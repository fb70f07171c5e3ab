//! Builders for the paper's Tables I–VI.

use std::borrow::Borrow;

use redeval::case_study::{self, VULNERABILITIES};
use redeval::exec::AnalysisCache;
use redeval::output::{Report, Table, Value};
use redeval::{AspStrategy, MetricsConfig, OrCombine, SecurityMetrics, ServerParams};
use redeval_avail::{ServerAnalysis, ServerModel};
use redeval_cvss::v2::BaseVector;
use redeval_sim::simulate_coa;

use super::{compare_row, compare_table};

/// **Table I** — vulnerability information of the example network,
/// regenerated from the embedded CVSS vectors; checks that every
/// reconstructed vector reproduces the paper's impact/probability pair.
pub fn table1() -> Report {
    let mut r = Report::new(
        "table1",
        "Table I: vulnerability information of the example network",
    );
    let mut t = Table::new(
        "vulnerabilities",
        [
            "vuln",
            "cve",
            "impact",
            "probability",
            "base_score",
            "critical",
            "vector",
            "consistent",
        ],
    );
    let mut all_ok = true;
    for rec in &VULNERABILITIES {
        let v: BaseVector = rec.vector.parse().expect("embedded vector parses");
        let ok = case_study::vector_consistent(rec);
        all_ok &= ok;
        t.add_row(vec![
            Value::from(rec.id),
            Value::from(rec.cve),
            Value::from(v.attack_impact()),
            Value::from(v.attack_success_probability()),
            Value::from(v.base_score()),
            Value::from(v.is_critical(8.0)),
            Value::from(rec.vector),
            Value::from(ok),
        ]);
    }
    r.table(t);
    r.keys([("all_vectors_consistent", Value::from(all_ok))]);
    r.check(all_ok);
    r.note(
        "critical set (base > 8.0) = the nine (10.0, 1.0) vulnerabilities, \
         which is exactly the set the paper patches.",
    );
    r
}

fn metrics_row(t: &mut Table, label: &str, m: &SecurityMetrics) {
    t.add_row(vec![
        Value::from(label),
        Value::from(m.attack_impact),
        Value::from(m.attack_success_probability),
        Value::from(m.exploitable_vulnerabilities),
        Value::from(m.attack_paths),
        Value::from(m.entry_points),
    ]);
}

/// **Table II** — security metrics for the example network before and
/// after patch, the deviation from the paper for every cell, and the ASP
/// aggregation-strategy family (EXPERIMENTS.md caveats).
pub fn table2() -> Report {
    table2_for(&case_study::network())
}

/// [`table2`] computed over an explicit network specification. The golden
/// tests call this with the network loaded from the pinned
/// `paper_case_study` scenario file to prove the declarative path
/// reproduces the committed Table-II report byte-for-byte.
pub fn table2_for(network: &redeval::NetworkSpec) -> Report {
    let mut r = Report::new(
        "table2",
        "Table II: security metrics for the example network",
    );
    let harm = network.build_harm();
    let cfg = MetricsConfig::default();
    let before = harm.metrics(&cfg);
    let after_harm = harm.patched_critical(8.0);
    let after = after_harm.metrics(&cfg);

    let mut t = Table::new("metrics", ["phase", "aim", "asp", "noev", "noap", "noep"]);
    metrics_row(&mut t, "before patch", &before);
    metrics_row(&mut t, "after patch", &after);
    r.table(t);

    let mut cmp = compare_table("paper-vs-measured");
    compare_row(&mut cmp, "AIM before", 52.2, before.attack_impact);
    compare_row(&mut cmp, "AIM after", 42.2, after.attack_impact);
    compare_row(
        &mut cmp,
        "ASP before",
        1.0,
        before.attack_success_probability,
    );
    compare_row(&mut cmp, "NoAP before", 8.0, before.attack_paths as f64);
    compare_row(&mut cmp, "NoAP after", 4.0, after.attack_paths as f64);
    compare_row(&mut cmp, "NoEP before", 3.0, before.entry_points as f64);
    compare_row(&mut cmp, "NoEP after", 2.0, after.entry_points as f64);
    compare_row(
        &mut cmp,
        "NoEV after",
        11.0,
        after.exploitable_vulnerabilities as f64,
    );
    compare_row(
        &mut cmp,
        "NoEV before (paper prints 25; see EXPERIMENTS.md)",
        25.0,
        before.exploitable_vulnerabilities as f64,
    );
    r.table(cmp);

    let mut strategies = Table::new("asp-strategies", ["strategy", "asp_after"]);
    for (label, strategy, combine) in [
        ("max path, max OR", AspStrategy::MaxPath, OrCombine::Max),
        (
            "max path, noisy OR",
            AspStrategy::MaxPath,
            OrCombine::NoisyOr,
        ),
        (
            "exact reliability",
            AspStrategy::Reliability,
            OrCombine::NoisyOr,
        ),
        (
            "noisy-or over paths, max OR",
            AspStrategy::NoisyOrPaths,
            OrCombine::Max,
        ),
        (
            "noisy-or over paths, noisy OR",
            AspStrategy::NoisyOrPaths,
            OrCombine::NoisyOr,
        ),
    ] {
        let m = after_harm.metrics(&MetricsConfig {
            asp: strategy,
            or_combine: combine,
            ..Default::default()
        });
        strategies.add_row(vec![
            Value::from(label),
            Value::from(m.attack_success_probability),
        ]);
    }
    r.table(strategies);
    r.note(
        "paper value 0.265 lies inside this strategy family; its exact \
         formula is not derivable from the paper (EXPERIMENTS.md, E-ASP).",
    );
    r
}

/// **Table III** — the guard functions of the server SRN, probed against
/// the constructed net; checks every guarded transition exists.
pub fn table3() -> Report {
    let mut r = Report::new(
        "table3",
        "Table III: guard functions in the SRN sub-models for a server",
    );
    let model = ServerModel::build(&case_study::dns_params());
    let net = model.net();

    let rows = [
        ("Tosd", "if (#Phwd == 1) 1 else 0"),
        ("Tosdrb", "if (#Phwup == 1) 1 else 0"),
        ("Tosfup", "if (#Phwup == 1) 1 else 0"),
        ("Tosptrig", "if (#Psvcp == 1) 1 else 0"),
        ("Tosp", "if (#Phwup == 1) 1 else 0"),
        ("Tosrpd", "if (#Phwd == 1) 1 else 0"),
        ("Tospd", "if (#Phwd == 1) 1 else 0"),
        ("Tosprb", "if (#Phwup == 1) 1 else 0"),
        ("Tsvcd", "if (#Phwd == 1 || #Posfd == 1) 1 else 0"),
        ("Tsvcdrb", "if (#Phwup == 1 && #Posup == 1) 1 else 0"),
        ("Tsvcfup", "if (#Phwup == 1 && #Posup == 1) 1 else 0"),
        ("Tsvcptrig", "if (#Ptrigger == 1) 1 else 0"),
        ("Tsvcp", "if (#Phwup == 1 && #Posup == 1) 1 else 0"),
        ("Tsvcrpd", "if (#Phwd == 1 || #Posfd == 1) 1 else 0"),
        ("Tsvcrrb", "if (#Posp == 1) 1 else 0"),
        ("Tsvcrrbd", "if (#Phwd == 1 || #Posfd == 1) 1 else 0"),
        ("Tsvcprb", "if (#Phwup == 1 && #Posup == 1) 1 else 0"),
        (
            "Tinterval",
            "if (#Psvcup == 1 || #Psvcd == 1 || #Psvcfd == 1) 1 else 0",
        ),
        (
            "Tpolicy",
            "if (#Psvcup == 1) 1 else 0  (paper text: service up)",
        ),
        ("Treset", "if (#Posp == 1) 1 else 0"),
    ];

    let mut t = Table::new("guards", ["transition", "definition", "present"]);
    for (name, def) in rows {
        let present = net.find_transition(name).is_some();
        r.check(present);
        t.add_row(vec![
            Value::from(name),
            Value::from(def),
            Value::from(present),
        ]);
    }
    r.table(t);
    r.keys([
        ("places", Value::from(net.place_count())),
        ("transitions", Value::from(net.transition_count())),
    ]);
    r.note(
        "additional freeze guards on Thwd/Tosfd/Tsvcfd realize the paper's \
         assumptions that hardware, OS and applications do not fail during \
         the patch period (Section III-D).",
    );
    r
}

fn params_table(p: &ServerParams) -> Table {
    let mut t = Table::new(format!("params-{}", p.name), ["parameter", "value"]);
    let rows: [(&str, String); 14] = [
        ("hardware 1/λhw (MTBF)", format!("{}", p.hw_mtbf)),
        ("hardware 1/µhw (repair)", format!("{}", p.hw_repair)),
        ("OS 1/λos (MTBF)", format!("{}", p.os_mtbf)),
        ("OS 1/µos (repair)", format!("{}", p.os_repair)),
        ("OS 1/αos (patch)", format!("{}", p.os_patch)),
        (
            "OS 1/βos (reboot after patch)",
            format!("{}", p.os_reboot_patch),
        ),
        (
            "OS 1/δos (reboot after failure)",
            format!("{}", p.os_reboot_failure),
        ),
        ("service 1/λsvc (MTBF)", format!("{}", p.svc_mtbf)),
        ("service 1/µsvc (repair)", format!("{}", p.svc_repair)),
        ("service 1/αsvc (patch)", format!("{}", p.svc_patch)),
        (
            "service 1/βsvc (reboot after patch)",
            format!("{}", p.svc_reboot_patch),
        ),
        (
            "service 1/δsvc (reboot after failure)",
            format!("{}", p.svc_reboot_failure),
        ),
        ("patch clock 1/τp", format!("{}", p.patch_interval)),
        ("patch cycle (MTTR target)", format!("{}", p.patch_cycle())),
    ];
    for (k, v) in rows {
        t.add_row(vec![Value::from(k), Value::from(v)]);
    }
    t
}

/// **Table IV** — input parameters of the SRN sub-models: the paper's
/// exact DNS row plus the derived tables for the other tiers
/// (DESIGN.md §4.3).
pub fn table4() -> Report {
    let mut r = Report::new("table4", "Table IV: input parameters of the SRN sub-models");
    r.note("DNS = exact paper row; web/app/db derived per DESIGN.md §4.3.");
    r.table(params_table(&case_study::dns_params()));
    r.table(params_table(&case_study::web_params()));
    r.table(params_table(&case_study::app_params()));
    r.table(params_table(&case_study::db_params()));
    r
}

/// **Table V** — aggregated patch/recovery rates for all servers, from
/// each tier's lower-layer SRN (solved through `cache`) and the paper's
/// Equations (1),(2).
pub fn table5(cache: &AnalysisCache) -> Report {
    let mut r = Report::new("table5", "Table V: aggregated values for the servers");
    let analyses = cache
        .analyses_for(&case_study::network())
        .expect("server models solve");

    let mut t = Table::new(
        "aggregated-rates",
        ["service", "mttp_h", "patch_rate", "mttr_h", "recovery_rate"],
    );
    for a in &analyses {
        let rates = a.rates();
        t.add_row(vec![
            Value::from(a.name()),
            Value::from(rates.mttp()),
            Value::from(rates.lambda_eq),
            Value::from(rates.mttr()),
            Value::from(rates.mu_eq),
        ]);
    }
    r.table(t);

    let mut cmp = compare_table("paper-vs-measured");
    let paper = [
        ("dns", 1.49992, 0.6667),
        ("web", 1.71420, 0.5834),
        ("app", 0.99995, 1.0001),
        ("db", 1.09085, 0.9167),
    ];
    for (a, (name, mu, mttr)) in analyses.iter().zip(paper) {
        assert_eq!(a.name(), name);
        compare_row(&mut cmp, &format!("{name} µ_eq"), mu, a.rates().mu_eq);
        compare_row(
            &mut cmp,
            &format!("{name} MTTR (h)"),
            mttr,
            a.rates().mttr(),
        );
    }
    compare_row(
        &mut cmp,
        "dns p_prrb (paper 0.00011563)",
        0.00011563,
        analyses[0].p_ready_reboot(),
    );
    compare_row(
        &mut cmp,
        "dns p_pd (paper 0.00092506)",
        0.00092506,
        analyses[0].p_patch_down(),
    );
    r.table(cmp);

    let mut steady = Table::new(
        "steady-state",
        [
            "service",
            "p_svcpd",
            "p_svcprrb",
            "availability",
            "tangible_states",
        ],
    );
    for a in &analyses {
        steady.add_row(vec![
            Value::from(a.name()),
            Value::from(a.p_patch_down()),
            Value::from(a.p_ready_reboot()),
            Value::from(a.availability()),
            Value::from(a.tangible_states()),
        ]);
    }
    r.table(steady);
    r
}

/// **Table VI** — the COA reward function and the paper's COA value
/// (≈ 0.99707), computed by product form, explicit upper-layer SRN and
/// discrete-event simulation (fixed seed), the tiers solved through
/// `cache`.
pub fn table6(cache: &AnalysisCache) -> Report {
    let spec = case_study::network();
    let analyses = cache.analyses_for(&spec).expect("server models solve");
    table6_for(&spec, &analyses)
}

/// [`table6`] computed over an explicit specification and its solved tier
/// analyses — plain values or the cache's shared ones (same
/// byte-for-byte contract as [`table2_for`]).
pub fn table6_for<A: Borrow<ServerAnalysis>>(
    spec: &redeval::NetworkSpec,
    analyses: &[A],
) -> Report {
    let mut r = Report::new(
        "table6",
        "Table VI: reward function of COA (1 DNS + 2 WEB + 2 APP + 1 DB)",
    );
    let mut reward = Table::new("reward-function", ["condition", "reward"]);
    for (cond, val) in [
        ("#Pdnsup==1 && #Pwebup==2 && #Pappup==2 && #Pdbup==1", 1.0),
        (
            "#Pdnsup==1 && #Pwebup==1 && #Pappup==2 && #Pdbup==1",
            0.83333,
        ),
        (
            "#Pdnsup==1 && #Pwebup==2 && #Pappup==1 && #Pdbup==1",
            0.83333,
        ),
        (
            "#Pdnsup==1 && #Pwebup==1 && #Pappup==1 && #Pdbup==1",
            0.66667,
        ),
        ("otherwise", 0.0),
    ] {
        reward.add_row(vec![Value::from(cond), Value::from(val)]);
    }
    r.table(reward);
    r.note(
        "generalization used here: 0 when any tier has zero servers up, \
         otherwise (running servers)/(total servers).",
    );

    let model = spec.network_model(analyses);
    let product = model.coa().expect("product form solves");
    let srn = model.coa_via_srn().expect("srn solves");
    let est = simulate_coa(&model, 1_500_000.0, 99).expect("simulation runs");

    let mut cmp = compare_table("coa-three-ways");
    compare_row(&mut cmp, "COA (product form)", 0.99707, product);
    compare_row(&mut cmp, "COA (explicit SRN)", 0.99707, srn);
    compare_row(&mut cmp, "COA (simulation, seed 99)", 0.99707, est.mean);
    r.table(cmp);
    r.keys([("simulation_ci95", Value::from(est.ci95))]);

    let tier_names: Vec<String> = model.tiers().iter().map(|t| t.name.clone()).collect();
    let mut down = Table::new("tier-down-distribution", ["tier", "servers_down", "p"]);
    for (i, name) in tier_names.iter().enumerate() {
        let d = model.tier_down_distribution(i).expect("solves");
        for (k, p) in d.iter().enumerate() {
            down.add_row(vec![
                Value::from(name.as_str()),
                Value::from(k),
                Value::from(*p),
            ]);
        }
    }
    r.table(down);
    r
}
