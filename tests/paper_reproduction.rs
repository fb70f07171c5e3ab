//! End-to-end reproduction assertions for every table and figure of the
//! paper (the machine-checked version of EXPERIMENTS.md).

use redeval::case_study::{self, VULNERABILITIES};
use redeval::decision::{DecisionFunction, MultiBounds, ScatterBounds};
use redeval::{AspStrategy, MetricsConfig, OrCombine};
use redeval_suite::prelude::*;

/// The five Section-IV designs under the paper's critical-only policy.
fn five_design_evals() -> Vec<DesignEvaluation> {
    Sweep::new(case_study::network())
        .designs(case_study::five_designs())
        .run(&Pool::new(2), &std::sync::Arc::new(AnalysisCache::new()))
        .unwrap()
}

/// Table I: every reconstructed CVSS vector reproduces the paper's
/// impact/probability pair.
#[test]
fn table1_vectors() {
    assert_eq!(VULNERABILITIES.len(), 16);
    for r in &VULNERABILITIES {
        assert!(case_study::vector_consistent(r), "{}", r.id);
    }
}

/// Table II: before/after security metrics of the Figure-2 network.
#[test]
fn table2_metrics() {
    let harm = case_study::network().build_harm();
    let cfg = MetricsConfig::default();
    let before = harm.metrics(&cfg);
    assert!((before.attack_impact - 52.2).abs() < 1e-9);
    assert_eq!(before.attack_success_probability, 1.0);
    assert_eq!(before.attack_paths, 8);
    assert_eq!(before.entry_points, 3);
    assert_eq!(before.exploitable_vulnerabilities, 26); // paper prints 25

    let after = harm.patched_critical(8.0).metrics(&cfg);
    assert!((after.attack_impact - 42.2).abs() < 1e-9);
    assert_eq!(after.attack_paths, 4);
    assert_eq!(after.entry_points, 2);
    assert_eq!(after.exploitable_vulnerabilities, 11);
}

/// Table II ASP-after under each strategy brackets the paper's 0.265.
#[test]
fn table2_asp_family_brackets_paper() {
    let harm = case_study::network().build_harm().patched_critical(8.0);
    let asp = |s, oc| {
        harm.metrics(&MetricsConfig {
            asp: s,
            or_combine: oc,
            ..Default::default()
        })
        .attack_success_probability
    };
    let lo = asp(AspStrategy::MaxPath, OrCombine::Max);
    let hi = asp(AspStrategy::NoisyOrPaths, OrCombine::NoisyOr);
    assert!(lo < 0.265 && 0.265 < hi, "family [{lo}, {hi}]");
}

/// Table III: the generated server net carries every guard-bearing
/// transition of the paper.
#[test]
fn table3_guards_present() {
    let model = ServerModel::build(&case_study::dns_params());
    for name in [
        "Tosd",
        "Tosdrb",
        "Tosfup",
        "Tosptrig",
        "Tosp",
        "Tosrpd",
        "Tospd",
        "Tosprb",
        "Tsvcd",
        "Tsvcdrb",
        "Tsvcfup",
        "Tsvcptrig",
        "Tsvcp",
        "Tsvcrpd",
        "Tsvcrrb",
        "Tsvcrrbd",
        "Tsvcprb",
        "Tinterval",
        "Tpolicy",
        "Treset",
    ] {
        assert!(model.net().find_transition(name).is_some(), "{name}");
    }
    assert_eq!(model.net().place_count(), 16);
}

/// Table IV: the DNS parameter set is the paper's, to the digit.
#[test]
fn table4_dns_parameters() {
    let p = case_study::dns_params();
    assert_eq!(p.hw_mtbf.as_hours(), 87_600.0);
    assert_eq!(p.hw_repair.as_hours(), 1.0);
    assert_eq!(p.os_mtbf.as_hours(), 1440.0);
    assert_eq!(p.os_repair.as_hours(), 1.0);
    assert!((p.os_patch.as_hours() - 20.0 / 60.0).abs() < 1e-12);
    assert!((p.os_reboot_patch.as_hours() - 10.0 / 60.0).abs() < 1e-12);
    assert_eq!(p.svc_mtbf.as_hours(), 336.0);
    assert!((p.svc_repair.as_hours() - 0.5).abs() < 1e-12);
    assert!((p.svc_patch.as_hours() - 5.0 / 60.0).abs() < 1e-12);
    assert_eq!(p.patch_interval.as_hours(), 720.0);
}

/// Table V: λ_eq/µ_eq/MTTP/MTTR for all four tiers.
#[test]
fn table5_aggregated_rates() {
    let analyses = case_study::network().tier_analyses().unwrap();
    let expect = [
        ("dns", 1.49992, 0.6667),
        ("web", 1.71420, 0.5834),
        ("app", 0.99995, 1.0001),
        ("db", 1.09085, 0.9167),
    ];
    for (a, (name, mu, mttr)) in analyses.iter().zip(expect) {
        assert_eq!(a.name(), name);
        assert!((a.rates().mttp() - 720.0).abs() < 1e-6);
        assert!((a.rates().mu_eq - mu).abs() / mu < 1e-3, "{name}");
        assert!((a.rates().mttr() - mttr).abs() / mttr < 1e-3, "{name}");
    }
}

/// Section III-D2 worked example: the DNS probabilities.
#[test]
fn section3d2_dns_probabilities() {
    let a = case_study::dns_params().analyze().unwrap();
    assert!((a.p_ready_reboot() - 0.00011563).abs() < 2e-6);
    assert!((a.p_patch_down() - 0.00092506).abs() < 2e-5);
}

/// Table VI: COA ≈ 0.99707, by product form and by the explicit SRN.
#[test]
fn table6_coa() {
    let spec = case_study::network();
    let analyses = spec.tier_analyses().unwrap();
    let model = spec.network_model(&analyses);
    let coa = model.coa().unwrap();
    assert!((coa - 0.99707).abs() < 5e-5, "{coa}");
    let via_srn = model.coa_via_srn().unwrap();
    assert!((coa - via_srn).abs() < 1e-10);
}

/// Figure 6(b)+7(b): the five designs' after-patch metrics and COA
/// ordering.
#[test]
fn figures_6_7_design_table() {
    let evals = five_design_evals();

    // Structural after-patch metrics per design (D1..D5).
    let noev: Vec<usize> = evals
        .iter()
        .map(|e| e.after.exploitable_vulnerabilities)
        .collect();
    let noap: Vec<usize> = evals.iter().map(|e| e.after.attack_paths).collect();
    let noep: Vec<usize> = evals.iter().map(|e| e.after.entry_points).collect();
    assert_eq!(noev, [7, 7, 9, 9, 10]);
    assert_eq!(noap, [1, 1, 2, 2, 2]);
    assert_eq!(noep, [1, 1, 2, 1, 1]);

    // AIM identical across designs, before and after (paper's remark).
    for e in &evals {
        assert!((e.before.attack_impact - 52.2).abs() < 1e-9);
        assert!((e.after.attack_impact - 42.2).abs() < 1e-9);
        assert_eq!(e.before.attack_success_probability, 1.0);
    }

    // COA ordering D4 > D5 > D2 > D3 > D1 (Figure 6/7 geometry).
    let coa: Vec<f64> = evals.iter().map(|e| e.coa).collect();
    assert!(coa[3] > coa[4]);
    assert!(coa[4] > coa[1]);
    assert!(coa[1] > coa[2]);
    assert!(coa[2] > coa[0]);
    // All within the paper's radar axis range [0.9955, 0.9964].
    for &c in &coa {
        assert!((0.9955..0.99645).contains(&c), "{c}");
    }

    // Designs 1 and 2 share the same after-patch ASP (dns drops out).
    assert!(
        (evals[0].after.attack_success_probability - evals[1].after.attack_success_probability)
            .abs()
            < 1e-12
    );
    // Redundant designs have strictly higher ASP than design 1.
    for e in &evals[2..] {
        assert!(e.after.attack_success_probability > evals[0].after.attack_success_probability);
    }
}

/// Equations (3) and (4): all four region memberships.
#[test]
fn equations_3_4_regions() {
    let evals = five_design_evals();
    let names = |v: Vec<&redeval::DesignEvaluation>| -> Vec<String> {
        v.into_iter().map(|e| e.name.clone()).collect()
    };

    let r1 = ScatterBounds {
        max_asp: 0.2,
        min_coa: 0.9962,
    };
    assert_eq!(
        names(r1.region(&evals)),
        [
            "1 DNS + 1 WEB + 2 APP + 1 DB",
            "1 DNS + 1 WEB + 1 APP + 2 DB"
        ]
    );
    let r2 = ScatterBounds {
        max_asp: 0.1,
        min_coa: 0.9961,
    };
    assert_eq!(names(r2.region(&evals)), ["2 DNS + 1 WEB + 1 APP + 1 DB"]);

    let m1 = MultiBounds {
        max_asp: 0.2,
        max_noev: 9,
        max_noap: 2,
        max_noep: 1,
        min_coa: 0.9962,
    };
    assert_eq!(names(m1.region(&evals)), ["1 DNS + 1 WEB + 2 APP + 1 DB"]);
    let m2 = MultiBounds {
        max_asp: 0.1,
        max_noev: 7,
        max_noap: 1,
        max_noep: 1,
        min_coa: 0.9961,
    };
    assert_eq!(names(m2.region(&evals)), ["2 DNS + 1 WEB + 1 APP + 1 DB"]);
}

/// The paper's two summary observations (Section IV-C).
#[test]
fn section4c_observations() {
    let evals = five_design_evals();
    // 1. Duplicating the slowest-recovering tier (app) gives the best COA.
    let best = evals
        .iter()
        .max_by(|a, b| a.coa.partial_cmp(&b.coa).unwrap())
        .unwrap();
    assert_eq!(best.name, "1 DNS + 1 WEB + 2 APP + 1 DB");
    // 2. A redundant server with no exploitable vulnerabilities after
    //    patch (the DNS) does not decrease security while improving COA.
    let d1 = &evals[0];
    let d2 = &evals[1]; // 2 DNS
    assert_eq!(
        d1.after.attack_success_probability,
        d2.after.attack_success_probability
    );
    assert_eq!(
        d1.after.exploitable_vulnerabilities,
        d2.after.exploitable_vulnerabilities
    );
    assert_eq!(d1.after.attack_paths, d2.after.attack_paths);
    assert!(d2.coa > d1.coa);
}
