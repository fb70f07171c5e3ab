//! Property-based tests: the steady-state solvers agree with each other
//! and with closed forms on randomized chains.

use proptest::prelude::*;
use redeval_markov::{BirthDeath, Ctmc, SteadyStateMethod, SteadyStateOptions};

/// Random positive rates spanning several orders of magnitude.
fn rate() -> impl Strategy<Value = f64> {
    (-3.0f64..3.0).prop_map(|e| 10f64.powf(e))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Birth–death closed form == GTH, across six decades of stiffness
    /// (GTH is subtraction-free, so stiffness costs it nothing).
    #[test]
    fn birth_death_gth_agrees_with_closed_form(
        births in prop::collection::vec(rate(), 1..8),
        deaths in prop::collection::vec(rate(), 1..8),
    ) {
        let n = births.len().min(deaths.len());
        let bd = BirthDeath::new(births[..n].to_vec(), deaths[..n].to_vec());
        let closed = bd.steady_state().unwrap();
        let ctmc = bd.to_ctmc();
        let gth = ctmc
            .steady_state_with(&SteadyStateOptions {
                method: SteadyStateMethod::Gth,
                ..Default::default()
            })
            .unwrap();
        for (a, b) in closed.iter().zip(&gth) {
            prop_assert!((a - b).abs() < 1e-9, "gth: {a} vs {b}");
        }
    }

    /// Gauss–Seidel agrees with the closed form on moderately stiff
    /// chains (rates within ~4 decades — availability-model territory).
    /// Beyond that, iterative accuracy degrades and GTH is the right
    /// tool; the `Auto` method picks it for small chains.
    #[test]
    fn birth_death_gauss_seidel_agrees_when_moderately_stiff(
        births in prop::collection::vec(0.01f64..100.0, 1..8),
        deaths in prop::collection::vec(0.01f64..100.0, 1..8),
    ) {
        let n = births.len().min(deaths.len());
        let bd = BirthDeath::new(births[..n].to_vec(), deaths[..n].to_vec());
        let closed = bd.steady_state().unwrap();
        let gs = bd
            .to_ctmc()
            .steady_state_with(&SteadyStateOptions {
                method: SteadyStateMethod::GaussSeidel,
                tolerance: 1e-12,
                ..Default::default()
            })
            .unwrap();
        for (a, b) in closed.iter().zip(&gs) {
            prop_assert!((a - b).abs() < 1e-6 + 1e-5 * a, "gauss-seidel: {a} vs {b}");
        }
    }

    /// On a random irreducible chain (ring + random chords) the steady
    /// state satisfies πQ = 0 and Σπ = 1.
    #[test]
    fn steady_state_is_stationary(
        ring_rates in prop::collection::vec(rate(), 3..10),
        chords in prop::collection::vec((0usize..10, 0usize..10, rate()), 0..12),
    ) {
        let n = ring_rates.len();
        let mut c = Ctmc::new(n);
        for (i, &r) in ring_rates.iter().enumerate() {
            c.add_transition(i, (i + 1) % n, r);
        }
        for &(a, b, r) in &chords {
            c.add_transition(a % n, b % n, r);
        }
        let pi = c.steady_state().unwrap();
        prop_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-10);
        // Verify stationarity directly: inflow == outflow per state.
        let q = c.generator().unwrap();
        for j in 0..n {
            let mut flow = 0.0;
            for (i, p) in pi.iter().enumerate() {
                flow += p * q.get(i, j);
            }
            prop_assert!(flow.abs() < 1e-9, "state {j}: net flow {flow}");
        }
    }

    /// Transient distribution is a probability vector for any time and
    /// converges to the steady state.
    #[test]
    fn transient_is_distribution(
        ring_rates in prop::collection::vec(0.1f64..10.0, 3..7),
        t in 0.0f64..50.0,
    ) {
        let n = ring_rates.len();
        let mut c = Ctmc::new(n);
        for (i, &r) in ring_rates.iter().enumerate() {
            c.add_transition(i, (i + 1) % n, r);
        }
        let mut start = vec![0.0; n];
        start[0] = 1.0;
        let p = c.transient_from(&start, t).unwrap();
        prop_assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(p.iter().all(|&x| (-1e-12..=1.0 + 1e-12).contains(&x)));
    }

    /// Uniformization at a long horizon matches the stationary solution.
    #[test]
    fn transient_converges(ring_rates in prop::collection::vec(0.5f64..5.0, 3..6)) {
        let n = ring_rates.len();
        let mut c = Ctmc::new(n);
        for (i, &r) in ring_rates.iter().enumerate() {
            c.add_transition(i, (i + 1) % n, r);
            c.add_transition((i + 1) % n, i, r * 0.5);
        }
        let mut start = vec![0.0; n];
        start[0] = 1.0;
        let pt = c.transient_from(&start, 500.0).unwrap();
        let pi = c.steady_state().unwrap();
        for (a, b) in pt.iter().zip(&pi) {
            prop_assert!((a - b).abs() < 1e-6);
        }
    }
}
