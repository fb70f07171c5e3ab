//! Simulation-vs-analytic cross-validation (kept at moderate horizons so
//! `cargo test` stays fast; the `redeval validate-sim` report runs longer).

use redeval::case_study;
use redeval::{AspStrategy, MetricsConfig};
use redeval_suite::prelude::*;

#[test]
fn server_availability_sim_matches_srn() {
    let params = case_study::dns_params();
    let analysis = params.analyze().unwrap();
    let model = ServerModel::build(&params);
    let places = *model.places();
    let mut sim = Simulation::new(model.net(), 424_242);
    sim.add_reward(
        "avail",
        move |m| {
            if places.service_up(m) {
                1.0
            } else {
                0.0
            }
        },
    );
    sim.add_reward("patching", move |m| {
        if places.down_due_to_patch(m) {
            1.0
        } else {
            0.0
        }
    });
    let out = sim.run(1_000.0, 400_000.0, 20).unwrap();
    let avail = &out.rewards[0];
    assert!(
        (avail.mean - analysis.availability()).abs() < (3.0 * avail.ci95).max(1e-3),
        "sim {} ± {} vs analytic {}",
        avail.mean,
        avail.ci95,
        analysis.availability()
    );
    let patching = &out.rewards[1];
    assert!(
        (patching.mean - analysis.p_patch_down()).abs() < (4.0 * patching.ci95).max(2e-4),
        "sim {} ± {} vs analytic {}",
        patching.mean,
        patching.ci95,
        analysis.p_patch_down()
    );
}

#[test]
fn network_coa_sim_matches_product_form() {
    let spec = case_study::network();
    let analyses = spec.tier_analyses().unwrap();
    let model = spec.network_model(&analyses);
    let analytic = model.coa().unwrap();
    let est = simulate_coa(&model, 800_000.0, 90_210).unwrap();
    assert!(
        (est.mean - analytic).abs() < (3.0 * est.ci95).max(5e-4),
        "sim {} ± {} vs analytic {analytic}",
        est.mean,
        est.ci95
    );
}

#[test]
fn attack_mc_matches_reliability_before_and_after() {
    let harm = case_study::network().build_harm();
    for (label, h) in [
        ("before", harm.clone()),
        ("after", harm.patched_critical(8.0)),
    ] {
        let exact = h
            .metrics(&MetricsConfig {
                asp: AspStrategy::Reliability,
                ..Default::default()
            })
            .attack_success_probability;
        let mc = estimate_asp(&h, 150_000, 1_618);
        assert!(
            (mc.mean - exact).abs() < (4.0 * mc.ci95).max(1e-3),
            "{label}: sim {} ± {} vs exact {exact}",
            mc.mean,
            mc.ci95
        );
    }
}

#[test]
fn transient_probability_consistent_with_simulation_intuition() {
    // At t = 0 everything is up; the transient P(all up) must start at 1
    // and decrease towards the steady state.
    let spec = case_study::network();
    let analyses = spec.tier_analyses().unwrap();
    let model = spec.network_model(&analyses);
    let (net, ups) = model.to_srn();
    let counts: Vec<u32> = model.tiers().iter().map(|t| t.count).collect();
    let solved = net.solve().unwrap();
    let all_up =
        |m: &redeval_srn::Marking| ups.iter().zip(&counts).all(|(&p, &c)| m.tokens(p) == c);
    let p_all_up = |t: f64| -> f64 {
        let dist = solved.transient_distribution(t).unwrap();
        solved
            .state_space()
            .tangible_markings()
            .iter()
            .zip(&dist)
            .filter(|(m, _)| all_up(m))
            .map(|(_, p)| p)
            .sum()
    };
    let p0 = p_all_up(0.0);
    assert!((p0 - 1.0).abs() < 1e-12);
    let p1 = p_all_up(1.0);
    let p_steady = solved.probability(all_up);
    assert!(p1 <= 1.0 && p1 >= p_steady - 1e-9);
    let p_inf = p_all_up(100_000.0);
    assert!((p_inf - p_steady).abs() < 1e-6);
}
