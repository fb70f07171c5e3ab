//! Exact multi-server composition: every server's **full** lower-layer
//! net in one SRN.
//!
//! The paper's hierarchical method replaces each server by a two-state
//! abstraction (Equations (1),(2)) before composing the network — an
//! approximation. This module builds the *unreduced* composition so the
//! approximation error can be measured: analytically for small networks
//! (the state space is the product of ~25-state server spaces) and by
//! simulation for larger ones (the `redeval aggregation-error` report).

use redeval_srn::{Marking, Srn};

use crate::params::ServerParams;
use crate::server::{add_server, PatchScenario, ServerPlaces};

/// A network of complete server models sharing one SRN.
#[derive(Debug)]
pub struct CompositeNetwork {
    net: Srn,
    /// Per server: its tier index and its place handles.
    servers: Vec<(usize, ServerPlaces)>,
    /// Tier server counts.
    counts: Vec<u32>,
}

impl CompositeNetwork {
    /// Builds one full Figure-5 sub-net per server: tier `i` contributes
    /// `counts[i]` independent copies of `params[i]`'s server model.
    ///
    /// # Panics
    ///
    /// Panics when `params` and `counts` differ in length or a count is
    /// zero.
    pub fn build(params: &[ServerParams], counts: &[u32]) -> Self {
        assert_eq!(params.len(), counts.len(), "one count per tier");
        assert!(counts.iter().all(|&c| c > 0), "tiers need servers");
        let mut net = Srn::new("composite-network");
        let mut servers = Vec::new();
        for (tier, (p, &count)) in params.iter().zip(counts).enumerate() {
            for copy in 1..=count {
                let prefix = format!("{}{copy}:", p.name);
                let (places, _) = add_server(&mut net, p, &prefix, PatchScenario::Full);
                servers.push((tier, places));
            }
        }
        CompositeNetwork {
            net,
            servers,
            counts: counts.to_vec(),
        }
    }

    /// The composed net.
    pub fn net(&self) -> &Srn {
        &self.net
    }

    /// Per-server `(tier, places)` handles.
    pub fn servers(&self) -> &[(usize, ServerPlaces)] {
        &self.servers
    }

    /// Total number of servers.
    pub fn total_servers(&self) -> u32 {
        self.counts.iter().sum()
    }

    /// The Table-VI COA reward evaluated on a marking of the composite
    /// net: 0 when some tier has no service up, else the running fraction.
    pub fn coa_reward(&self, m: &Marking) -> f64 {
        let mut up_per_tier = vec![0u32; self.counts.len()];
        for (tier, places) in &self.servers {
            if places.service_up(m) {
                up_per_tier[*tier] += 1;
            }
        }
        if up_per_tier.contains(&0) {
            return 0.0;
        }
        f64::from(up_per_tier.iter().sum::<u32>()) / f64::from(self.total_servers())
    }

    /// Solves the composite net exactly and returns the COA.
    ///
    /// State spaces multiply (~25 states per server), so this is feasible
    /// for a handful of servers; prefer simulation beyond that.
    ///
    /// # Errors
    ///
    /// Propagates SRN errors (including state-space overflow).
    pub fn coa_exact(&self) -> Result<f64, redeval_srn::SrnError> {
        let solved = self.net.solve()?;
        Ok(solved.expected(|m| self.coa_reward(m)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::ServerAnalysis;
    use crate::network::{NetworkModel, Tier};
    use crate::params::Durations;
    use crate::server::ServerModel;

    /// A sped-up server so failure/patch events are not vanishingly rare
    /// (tightens simulation/solver comparisons).
    fn fast_server(name: &str) -> ServerParams {
        ServerParams::builder(name)
            .patch_interval(Durations::hours(72.0))
            .service_patch(Durations::minutes(30.0), Durations::minutes(15.0))
            .os_patch(Durations::minutes(60.0), Durations::minutes(30.0))
            .build()
    }

    #[test]
    fn single_server_composite_matches_server_model() {
        let p = fast_server("a");
        let composite = CompositeNetwork::build(std::slice::from_ref(&p), &[1]);
        let exact = composite.coa_exact().unwrap();
        // One server: COA == availability of the lone service.
        let a = ServerAnalysis::of(&p).unwrap();
        assert!(
            (exact - a.availability()).abs() < 1e-9,
            "{exact} vs {}",
            a.availability()
        );
    }

    #[test]
    fn two_server_composite_close_to_aggregated_model() {
        // The hierarchical (aggregated) model is an approximation; for
        // two independent servers the error should be small but the
        // *exact* value is the composite's.
        let p = fast_server("a");
        let composite = CompositeNetwork::build(&[p.clone(), p.clone()], &[1, 1]);
        let exact = composite.coa_exact().unwrap();

        let a = ServerAnalysis::of(&p).unwrap();
        let aggregated = NetworkModel::new(vec![
            Tier::new("a", 1, a.rates()),
            Tier::new("b", 1, a.rates()),
        ])
        .coa()
        .unwrap();
        // The paper's upper layer deliberately models *patch* downtime
        // only ("we only consider the states and transitions caused by
        // patch"), so the aggregated COA overestimates the exact value by
        // roughly the per-server failure downtime (~0.2–0.5 % for these
        // sped-up parameters).
        let err = aggregated - exact;
        assert!(
            err > 1e-4,
            "aggregation should overestimate: {exact} vs {aggregated}"
        );
        assert!(err < 1e-2, "exact {exact} vs aggregated {aggregated}");
    }

    #[test]
    fn composite_state_space_is_product_sized() {
        let p = fast_server("a");
        let single = ServerModel::build(&p).net().state_space().unwrap().len();
        let composite = CompositeNetwork::build(&[p], &[2]);
        let double = composite.net().state_space().unwrap().len();
        assert_eq!(double, single * single);
    }

    #[test]
    fn coa_reward_zeroes_on_empty_tier() {
        let p = fast_server("a");
        let composite = CompositeNetwork::build(&[p.clone(), p], &[1, 2]);
        let m0 = composite.net().initial_marking();
        assert_eq!(composite.coa_reward(&m0), 1.0);
        assert_eq!(composite.total_servers(), 3);
    }

    #[test]
    #[should_panic(expected = "one count per tier")]
    fn mismatched_counts_panic() {
        let p = fast_server("a");
        let _ = CompositeNetwork::build(&[p], &[1, 2]);
    }
}
