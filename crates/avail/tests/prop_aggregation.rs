//! Property-based tests for the availability models.

use proptest::prelude::*;
use redeval_avail::{AggregatedRates, Durations, NetworkModel, ServerParams, Tier};

fn minutes() -> impl Strategy<Value = Durations> {
    (1.0f64..90.0).prop_map(Durations::minutes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any patch-duration mix, the aggregated MTTR approximates the
    /// patch-cycle length (failures only perturb it slightly), and the
    /// aggregated two-state abstraction reproduces the exact patch-downtime
    /// probability.
    #[test]
    fn aggregation_matches_cycle(
        svc_patch in minutes(),
        os_patch in minutes(),
        svc_reboot in minutes(),
        os_reboot in minutes(),
    ) {
        let params = ServerParams::builder("x")
            .service_patch(svc_patch, svc_reboot)
            .os_patch(os_patch, os_reboot)
            .build();
        let a = params.analyze().unwrap();
        let cycle = params.patch_cycle().as_hours();
        let mttr = a.rates().mttr();
        let rel = (mttr - cycle).abs() / cycle;
        prop_assert!(rel < 0.02, "cycle {cycle} vs mttr {mttr}");
        // Two-state abstraction λ/(λ+µ) vs exact patch-downtime probability.
        let r = a.rates();
        let approx = r.lambda_eq / (r.lambda_eq + r.mu_eq);
        let exact = a.p_patch_down();
        prop_assert!((approx - exact).abs() / exact < 0.05);
        // λ_eq is always the clock rate.
        prop_assert!((a.rates().lambda_eq - params.patch_interval.rate_per_hour()).abs() < 1e-12);
    }

    /// Probability mass of the server chain is fully accounted for.
    #[test]
    fn server_mass_conserved(svc_patch in minutes(), os_patch in minutes()) {
        let params = ServerParams::builder("x")
            .service_patch(svc_patch, Durations::minutes(5.0))
            .os_patch(os_patch, Durations::minutes(10.0))
            .build();
        let a = params.analyze().unwrap();
        let total = a.availability() + a.p_patch_down() + a.p_failed();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(a.availability() > 0.9);
    }

    /// The paper's redundancy claim, stated precisely: duplicating a
    /// *single-server* tier raises COA (it removes a zero-capacity state),
    /// and plain availability is monotone under adding a server to any
    /// tier. (COA itself is NOT monotone for already-redundant tiers: the
    /// extra server dilutes the capacity fraction — a fact this suite
    /// originally discovered via proptest.)
    #[test]
    fn coa_rises_when_duplicating_single_server_tier(
        counts in prop::collection::vec(1u32..4, 1..4),
        mttrs in prop::collection::vec(0.2f64..3.0, 1..4),
        bump in 0usize..4,
    ) {
        let k = counts.len().min(mttrs.len());
        let tiers: Vec<Tier> = (0..k)
            .map(|i| Tier::new(
                format!("t{i}"),
                counts[i],
                AggregatedRates { lambda_eq: 1.0 / 720.0, mu_eq: 1.0 / mttrs[i] },
            ))
            .collect();
        let base = NetworkModel::new(tiers.clone());
        let mut bumped = tiers;
        let b = bump % k;
        bumped[b] = Tier::new(
            bumped[b].name.clone(),
            bumped[b].count + 1,
            bumped[b].rates,
        );
        let was_single = base.tiers()[b].count == 1;
        let more = NetworkModel::new(bumped);
        if was_single {
            prop_assert!(more.coa().unwrap() >= base.coa().unwrap() - 1e-12);
        }
        prop_assert!(more.availability().unwrap() >= base.availability().unwrap() - 1e-12);
    }

    /// Product form equals the composed-SRN solution on random networks.
    #[test]
    fn product_form_equals_srn(
        counts in prop::collection::vec(1u32..4, 1..4),
        mttrs in prop::collection::vec(0.2f64..3.0, 1..4),
    ) {
        let k = counts.len().min(mttrs.len());
        let tiers: Vec<Tier> = (0..k)
            .map(|i| Tier::new(
                format!("t{i}"),
                counts[i],
                AggregatedRates { lambda_eq: 1.0 / 720.0, mu_eq: 1.0 / mttrs[i] },
            ))
            .collect();
        let model = NetworkModel::new(tiers);
        let a = model.coa().unwrap();
        let b = model.coa_via_srn().unwrap();
        prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    /// COA ≤ availability ≤ 1 and expected-up ≤ total.
    #[test]
    fn measure_orderings(
        counts in prop::collection::vec(1u32..5, 1..5),
        mttrs in prop::collection::vec(0.2f64..3.0, 1..5),
    ) {
        let k = counts.len().min(mttrs.len());
        let tiers: Vec<Tier> = (0..k)
            .map(|i| Tier::new(
                format!("t{i}"),
                counts[i],
                AggregatedRates { lambda_eq: 1.0 / 720.0, mu_eq: 1.0 / mttrs[i] },
            ))
            .collect();
        let model = NetworkModel::new(tiers);
        let coa = model.coa().unwrap();
        let avail = model.availability().unwrap();
        prop_assert!(coa <= avail + 1e-12);
        prop_assert!(avail <= 1.0 + 1e-12);
        prop_assert!(model.expected_up_servers().unwrap() <= model.total_servers() as f64 + 1e-9);
    }
}
