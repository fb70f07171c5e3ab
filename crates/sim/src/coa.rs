//! Simulation of the upper-layer network model.

use redeval_avail::NetworkModel;

use crate::engine::{RewardEstimate, SimError, Simulation};

/// Simulates the capacity-oriented availability of a network model by
/// executing its Figure-4 SRN and time-averaging the Table-VI reward —
/// an independent check of the analytic
/// [`NetworkModel::coa`].
///
/// Returns the COA estimate with its batch-means confidence interval.
///
/// # Errors
///
/// Propagates simulation errors.
///
/// # Examples
///
/// ```
/// use redeval_avail::{AggregatedRates, NetworkModel, Tier};
/// use redeval_sim::simulate_coa;
///
/// # fn main() -> Result<(), redeval_sim::SimError> {
/// let r = AggregatedRates { lambda_eq: 1.0 / 720.0, mu_eq: 1.5 };
/// let net = NetworkModel::new(vec![Tier::new("dns", 1, r)]);
/// let est = simulate_coa(&net, 200_000.0, 42)?;
/// let analytic = net.coa().expect("solvable");
/// assert!((est.mean - analytic).abs() < 5.0 * est.ci95.max(1e-4));
/// # Ok(())
/// # }
/// ```
pub fn simulate_coa(
    model: &NetworkModel,
    horizon_hours: f64,
    seed: u64,
) -> Result<RewardEstimate, SimError> {
    let (net, ups) = model.to_srn();
    let mut sim = Simulation::new(&net, seed);
    sim.add_reward("coa", model.coa_reward(&ups));
    let warmup = horizon_hours * 0.02;
    let out = sim.run(warmup, horizon_hours, 20)?;
    Ok(out.rewards.into_iter().next().expect("one reward"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval_avail::{AggregatedRates, Tier};

    fn case_study() -> NetworkModel {
        NetworkModel::new(vec![
            Tier::new(
                "dns",
                1,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.49992,
                },
            ),
            Tier::new(
                "web",
                2,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.71420,
                },
            ),
            Tier::new(
                "app",
                2,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 0.99995,
                },
            ),
            Tier::new(
                "db",
                1,
                AggregatedRates {
                    lambda_eq: 1.0 / 720.0,
                    mu_eq: 1.09085,
                },
            ),
        ])
    }

    #[test]
    fn simulated_coa_matches_analytic() {
        let model = case_study();
        let analytic = model.coa().unwrap();
        // Long horizon: patching is rare (once per 720 h per server), so
        // many cycles are needed for a tight estimate.
        let est = simulate_coa(&model, 3_000_000.0, 2024).unwrap();
        let tolerance = (3.0 * est.ci95).max(3e-4);
        assert!(
            (est.mean - analytic).abs() < tolerance,
            "sim {} ± {} vs analytic {analytic}",
            est.mean,
            est.ci95
        );
    }

    #[test]
    fn estimate_is_below_one_and_positive() {
        let est = simulate_coa(&case_study(), 500_000.0, 7).unwrap();
        assert!(est.mean > 0.99 && est.mean < 1.0);
    }
}
