//! Cross-crate integration tests of the public pipeline on non-case-study
//! networks.

use redeval::charts::{radar_data, scatter_ascii, scatter_data};
use redeval::cost::CostModel;
use redeval::decision::ScatterBounds;
use redeval_suite::prelude::*;

/// A three-tier network distinct from the paper's.
fn spec() -> NetworkSpec {
    let tree =
        |cve: &str, imp: f64, p: f64| Some(AttackTree::leaf(Vulnerability::new(cve, imp, p)));
    NetworkSpec::new(
        vec![
            TierSpec {
                name: "edge".into(),
                count: 2,
                params: ServerParams::builder("edge").build(),
                tree: tree("CVE-E", 10.0, 1.0),
                entry: true,
                target: false,
            },
            TierSpec {
                name: "mid".into(),
                count: 1,
                params: ServerParams::builder("mid")
                    .service_patch(Durations::minutes(20.0), Durations::minutes(10.0))
                    .build(),
                tree: tree("CVE-M", 6.4, 0.86),
                entry: false,
                target: false,
            },
            TierSpec {
                name: "store".into(),
                count: 1,
                params: ServerParams::builder("store")
                    .os_patch(Durations::minutes(45.0), Durations::minutes(15.0))
                    .build(),
                tree: tree("CVE-S", 10.0, 0.39),
                entry: false,
                target: true,
            },
        ],
        vec![(0, 1), (1, 2)],
    )
}

#[test]
fn full_pipeline_round_trip() {
    let base = spec();
    let designs = base.enumerate_designs(2);
    assert_eq!(designs.len(), 8);
    let evals = Sweep::new(base)
        .designs(designs)
        .run(&Pool::new(2), &std::sync::Arc::new(AnalysisCache::new()))
        .unwrap();

    // Every design: sane measure ranges and patch improves security.
    for e in &evals {
        assert!(e.coa > 0.95 && e.coa < 1.0, "{}: {}", e.name, e.coa);
        assert!(e.availability >= e.coa);
        assert!(e.expected_up <= e.total_servers() as f64);
        assert!(e.after.attack_success_probability <= e.before.attack_success_probability);
        assert!(e.after.exploitable_vulnerabilities <= e.before.exploitable_vulnerabilities);
    }

    // Chart data aligns with evaluations.
    let sc = scatter_data(&evals, true);
    assert_eq!(sc.len(), evals.len());
    let plot = scatter_ascii(&sc, 50, 12);
    assert!(plot.contains("[8]"));
    let radar = radar_data(&evals, false);
    assert_eq!(radar.len(), evals.len());

    // Decision + cost compose.
    let bounds = ScatterBounds {
        max_asp: 0.9,
        min_coa: 0.995,
    };
    let region = bounds.region(&evals);
    assert!(!region.is_empty());
    let (cheapest, _) = CostModel::default().cheapest(&evals).unwrap();
    assert!(cheapest.total_servers() <= 8);
}

#[test]
fn harm_and_dot_outputs() {
    let spec = spec();
    let harm = spec.build_harm();
    assert_eq!(harm.graph().host_count(), 4);
    let dot = harm.to_dot();
    assert!(dot.contains("edge1") && dot.contains("edge2") && dot.contains("store1"));

    // SRN DOT of a server model.
    let model = ServerModel::build(&spec.tiers()[0].params);
    let dot = model.net().to_dot();
    assert!(dot.contains("Pclock") && dot.contains("Tsvcprb"));
}

#[test]
fn patch_policies_bracket_each_other() {
    let cache = AnalysisCache::new();
    let evaluate = |policy| {
        Scenario::new("x", spec(), Design::new("x", vec![2, 1, 1]), policy)
            .evaluate(&cache)
            .unwrap()
    };
    let strictest = evaluate(PatchPolicy::All);
    let none = evaluate(PatchPolicy::None);
    assert_eq!(strictest.after.exploitable_vulnerabilities, 0);
    assert_eq!(
        none.after.exploitable_vulnerabilities,
        none.before.exploitable_vulnerabilities
    );
}

#[test]
fn queueing_extension_composes_with_availability() {
    let spec = spec();
    let analyses = spec.tier_analyses().unwrap();
    let model = spec.network_model(&analyses);
    // Edge tier: 2 servers, service rate 30/s, arrivals 20/s.
    let down = model.tier_down_distribution(0).unwrap();
    let dist: Vec<(u32, f64)> = down
        .iter()
        .enumerate()
        .map(|(k, &p)| (2 - k as u32, p))
        .collect();
    let w = redeval_avail::mmc::availability_weighted_response_time(20.0, 30.0, &dist, Some(10.0))
        .unwrap();
    let all_up = redeval_avail::mmc::Mmc::new(20.0, 30.0, 2)
        .unwrap()
        .mean_response_time();
    // Patching windows make the weighted response time slightly worse.
    assert!(w > all_up);
    assert!(w < all_up + 0.1);
}

#[test]
fn core_types_are_send_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Srn>();
    assert_send_sync::<Harm>();
    assert_send_sync::<NetworkModel>();
    assert_send_sync::<NetworkSpec>();
    assert_send_sync::<Scenario>();
    assert_send_sync::<AnalysisCache>();
    assert_send_sync::<DesignEvaluation>();
    assert_send_sync::<ServerModel>();
    assert_send_sync::<Ctmc>();
}

#[test]
fn evaluations_parallelize_across_threads() {
    // The spec and the analysis cache are shareable; designs can be
    // evaluated concurrently.
    let spec = std::sync::Arc::new(spec());
    let cache = std::sync::Arc::new(AnalysisCache::new());
    let handles: Vec<_> = (1..=3u32)
        .map(|edge| {
            let scenario = Scenario::new(
                "d",
                std::sync::Arc::clone(&spec),
                Design::new("d", vec![edge, 1, 1]),
                PatchPolicy::CriticalOnly(8.0),
            );
            let cache = std::sync::Arc::clone(&cache);
            std::thread::spawn(move || scenario.evaluate(&cache).unwrap().coa)
        })
        .collect();
    let coas: Vec<f64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    assert!(coas[1] > coas[0]); // 1 -> 2 duplication helps
}

#[test]
fn facade_reexports_are_usable() {
    // Touch every re-exported module through the facade.
    let v: redeval_suite::redeval_cvss::v2::BaseVector =
        "AV:N/AC:L/Au:N/C:C/I:C/A:C".parse().unwrap();
    assert_eq!(v.base_score(), 10.0);
    let mut c = Ctmc::new(2);
    c.add_transition(0, 1, 1.0);
    c.add_transition(1, 0, 1.0);
    assert!((c.steady_state().unwrap()[0] - 0.5).abs() < 1e-12);
    let bd = BirthDeath::machine_repair(3, 0.5, 1.5);
    assert_eq!(bd.steady_state().unwrap().len(), 4);
}
