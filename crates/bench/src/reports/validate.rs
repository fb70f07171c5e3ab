//! Builders for the simulation and aggregation cross-validation reports.
//!
//! Both reports run the independent discrete-event simulator with fixed
//! seeds, so their numbers — and therefore their goldens — are exactly
//! reproducible.

use redeval::case_study;
use redeval::exec::AnalysisCache;
use redeval::output::{Report, Table, Value};
use redeval::{AspStrategy, MetricsConfig, ServerParams};
use redeval_avail::{CompositeNetwork, NetworkModel, ServerModel, Tier};
use redeval_sim::{estimate_asp, simulate_coa, Simulation};

use super::{compare_row, compare_table_vs};

/// Cross-validation report: every analytic quantity with a simulation
/// counterpart, side by side (availability, COA, ASP); the analytic
/// tiers are solved through `cache`.
pub fn validate_sim(cache: &AnalysisCache) -> Report {
    let mut r = Report::new(
        "validate_sim",
        "Cross-validation: analytic vs discrete-event simulation",
    );
    let spec = case_study::network();
    let analyses = cache.analyses_for(&spec).expect("server models solve");

    let mut avail = compare_table_vs("server-availability-srn-vs-sim", "analytic", "simulated");
    for (tier, analysis) in spec.tiers().iter().zip(&analyses) {
        let model = ServerModel::build(&tier.params);
        let places = *model.places();
        let mut sim = Simulation::new(model.net(), 1_234_567);
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
        let out = sim.run(2_000.0, 600_000.0, 20).expect("simulation runs");
        compare_row(
            &mut avail,
            &format!("{} availability", tier.name),
            analysis.availability(),
            out.rewards[0].mean,
        );
    }
    r.table(avail);

    let model = spec.network_model(&analyses);
    let analytic = model.coa().expect("product form solves");
    let est = simulate_coa(&model, 2_000_000.0, 31_337).expect("simulation runs");
    let mut coa = compare_table_vs("network-coa-analytic-vs-sim", "analytic", "simulated");
    compare_row(&mut coa, "COA", analytic, est.mean);
    r.table(coa);
    r.keys([("coa_sim_ci95", Value::from(est.ci95))]);

    let harm = spec.build_harm().patched_critical(8.0);
    let exact = harm
        .metrics(&MetricsConfig {
            asp: AspStrategy::Reliability,
            ..Default::default()
        })
        .attack_success_probability;
    let mc = estimate_asp(&harm, 500_000, 2_718);
    let mut asp = compare_table_vs("asp-exact-vs-monte-carlo", "exact", "monte_carlo");
    compare_row(&mut asp, "ASP (after patch)", exact, mc.mean);
    r.table(asp);
    r.keys([("asp_mc_ci95", Value::from(mc.ci95))]);

    r.note("every analytic result is reproduced by an independent simulator (fixed seeds).");
    r
}

/// The aggregated COA of `counts` servers of each of `params`, with the
/// tiers solved through `cache`.
fn aggregated_coa(params: &[ServerParams], counts: &[u32], cache: &AnalysisCache) -> f64 {
    let tiers: Vec<Tier> = params
        .iter()
        .zip(counts)
        .map(|(p, &c)| {
            let a = cache.analysis(p).expect("server model solves");
            Tier::new(p.name.clone(), c, a.rates())
        })
        .collect();
    NetworkModel::new(tiers).coa().expect("product form solves")
}

/// Validation of the paper's hierarchical aggregation (Equations
/// (1),(2) + patch-only upper layer) against the exact, unreduced
/// composition of full server models; the aggregated tiers are solved
/// through `cache`.
pub fn aggregation_error(cache: &AnalysisCache) -> Report {
    let mut r = Report::new(
        "aggregation_error",
        "Aggregation accuracy: exact composite vs Equations (1),(2)",
    );
    let dns = case_study::dns_params();
    let web = case_study::web_params();
    let cases: Vec<(&str, Vec<ServerParams>, Vec<u32>)> = vec![
        ("1 dns", vec![dns.clone()], vec![1]),
        ("2 dns (one tier)", vec![dns.clone()], vec![2]),
        ("dns + web", vec![dns.clone(), web.clone()], vec![1, 1]),
        ("dns + 2 web", vec![dns, web], vec![1, 2]),
    ];
    let mut exact_table = Table::new(
        "small-networks-exact-vs-aggregated",
        ["network", "exact_coa", "aggregated_coa", "error"],
    );
    for (label, params, counts) in cases {
        let composite = CompositeNetwork::build(&params, &counts);
        let exact = composite.coa_exact().expect("exact solve");
        let agg = aggregated_coa(&params, &counts, cache);
        exact_table.add_row(vec![
            Value::from(label),
            Value::from(exact),
            Value::from(agg),
            Value::from(agg - exact),
        ]);
    }
    r.table(exact_table);
    r.note(
        "the aggregation ignores failure-induced downtime (the paper's \
         upper layer models patch states only), so it overestimates COA \
         by roughly the summed failure unavailability.",
    );

    // Case-study network (6 servers): the full composite is too large to
    // solve exactly, so simulate it (fixed seed).
    let spec = case_study::network();
    let params: Vec<ServerParams> = spec.tiers().iter().map(|t| t.params.clone()).collect();
    let counts: Vec<u32> = spec.tiers().iter().map(|t| t.count).collect();
    let composite = CompositeNetwork::build(&params, &counts);
    let mut sim = Simulation::new(composite.net(), 777);
    sim.add_reward("coa", |m| composite.coa_reward(m));
    let out = sim.run(5_000.0, 1_000_000.0, 20).expect("simulation runs");
    let est = &out.rewards[0];
    let agg = aggregated_coa(&params, &counts, cache);
    r.keys([
        ("case_study_simulated_coa", Value::from(est.mean)),
        ("case_study_sim_ci95", Value::from(est.ci95)),
        ("case_study_aggregated_coa", Value::from(agg)),
        ("case_study_aggregation_error", Value::from(agg - est.mean)),
    ]);
    r.note(
        "the ~6e-3 offset is the failure-induced downtime the paper's \
         patch-only upper layer deliberately excludes. It applies almost \
         uniformly across redundancy designs, so the paper's design \
         *ranking* survives — but absolute COA values should be read as \
         'capacity under patching alone'.",
    );
    r
}
