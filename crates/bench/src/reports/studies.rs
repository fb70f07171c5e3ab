//! Builders for the sweep, decision and extension studies.

use std::sync::Arc;

use redeval::case_study;
use redeval::cost::CostModel;
use redeval::decision::{DecisionFunction, ScatterBounds};
use redeval::exec::{AnalysisCache, Pool, Sweep};
use redeval::output::{Report, Series, Table, Value};
use redeval::sensitivity::coa_sensitivities;
use redeval::{
    AttackTree, Design, Durations, MetricsConfig, NetworkSpec, PatchPolicy, ServerParams, TierSpec,
    Vulnerability,
};
use redeval_avail::mmc::{availability_weighted_response_time, Mmc};
use redeval_avail::{NetworkModel, PatchScenario, ServerAnalysis, Tier};

use super::{
    design_table, five_design_evals, paper_multi_regions, paper_scatter_regions, region_table,
};
use crate::{CASE_STUDY_COUNTS, CVSS_THRESHOLDS, PATCH_WINDOWS_DAYS};

/// The paper's **Equation (3) and (4) region analyses** in one report —
/// the workspace's headline-result check (`ok` flips on any deviation).
pub fn regions(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new("regions", "Equations (3),(4): decision-function regions");
    let evals = five_design_evals(pool, cache);
    let refs: Vec<&redeval::DesignEvaluation> = evals.iter().collect();
    r.table(design_table("five-designs-after-patch", &refs));
    region_table(&mut r, "eq3-regions", paper_scatter_regions(), &evals);
    region_table(&mut r, "eq4-regions", paper_multi_regions(), &evals);
    r
}

/// Patch-interval and criticality-threshold sweeps on `pool` and `cache`.
pub fn sweep(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new(
        "sweep",
        "Patch-schedule sweeps (case-study network, 1+2+2+1)",
    );
    let case_design = Design::new("case", CASE_STUDY_COUNTS.to_vec());

    let evals = Sweep::new(case_study::network())
        .patch_intervals_days(&PATCH_WINDOWS_DAYS)
        .designs(vec![case_design.clone()])
        .run(pool, cache)
        .expect("interval grid evaluates");
    let mut intervals = Table::new(
        "patch-interval-sweep",
        [
            "interval_days",
            "coa",
            "downtime_h_per_month",
            "mean_exposure_days",
        ],
    );
    for (days, e) in PATCH_WINDOWS_DAYS.iter().zip(&evals) {
        intervals.add_row(vec![
            Value::from(*days),
            Value::from(e.coa),
            Value::from((1.0 - e.coa) * 720.0),
            // A vulnerability disclosed uniformly within a cycle waits on
            // average half the interval for its patch.
            Value::from(days / 2.0),
        ]);
    }
    r.table(intervals);
    r.note(
        "COA falls as patching gets more frequent (more patch windows), \
         while security exposure to newly disclosed criticals shrinks.",
    );

    let evals = Sweep::new(case_study::network())
        .designs(vec![case_design])
        .policies(
            CVSS_THRESHOLDS
                .iter()
                .map(|&t| PatchPolicy::CriticalOnly(t))
                .collect(),
        )
        .run(pool, cache)
        .expect("threshold grid evaluates");
    let mut thresholds = Table::new(
        "criticality-threshold-sweep",
        ["threshold", "asp", "noev", "noap", "noep"],
    );
    for (threshold, e) in CVSS_THRESHOLDS.iter().zip(&evals) {
        thresholds.add_row(vec![
            Value::from(*threshold),
            Value::from(e.after.attack_success_probability),
            Value::from(e.after.exploitable_vulnerabilities),
            Value::from(e.after.attack_paths),
            Value::from(e.after.entry_points),
        ]);
    }
    r.table(thresholds);
    r.note(
        "threshold 8.0 is the paper's policy; lowering it removes the \
         AND-pair footholds and eventually closes every attack path.",
    );
    r
}

/// COA-loss sensitivity analysis — which Table-IV parameter most moves
/// the availability conclusion, per tier, as elasticities of `1 − COA` —
/// on `pool` and `cache`.
pub fn sensitivity(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new(
        "sensitivity",
        "COA-loss sensitivities, case-study network (1+2+2+1)",
    );
    let spec = case_study::network();
    let sens =
        coa_sensitivities(&spec, &CASE_STUDY_COUNTS, 0.05, pool, cache).expect("pipeline solves");
    let mut t = Table::new(
        "sensitivities",
        [
            "tier",
            "parameter",
            "value_hours",
            "derivative",
            "elasticity",
        ],
    );
    for s in &sens {
        t.add_row(vec![
            Value::from(s.tier.as_str()),
            Value::from(s.parameter.name()),
            Value::from(s.value_hours),
            Value::from(s.derivative),
            Value::from(s.elasticity),
        ]);
    }
    r.table(t);
    r.note(
        "positive elasticity: longer duration costs capacity; negative: \
         longer patch intervals save it. With web/app duplicated, the \
         remaining single-server db and dns tiers dominate every ranking; \
         the next redundancy investment should go to the database, which \
         is exactly design 5's COA gain in Fig. 6.",
    );
    r
}

/// Partial patch scenarios — per-tier MTTR and network COA for each
/// round shape (paper §V "SRN models"). The full round's tier solves
/// resolve through `cache`; the [`AnalysisCache`] keys only full-round
/// solves, so the partial shapes are solved directly on `pool`.
pub fn scenarios(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new("scenarios", "Partial patch scenarios");
    let spec = case_study::network();
    let scenario_list = [
        PatchScenario::Full,
        PatchScenario::OsOnly,
        PatchScenario::NoReboot,
        PatchScenario::ServiceOnly,
    ];

    let tiers = spec.tiers();
    let full = cache.analyses_for(&spec).expect("server models solve");
    // One lower-layer solve per (tier, partial shape), on the caller's
    // pool; the partial shapes follow `Full` in the list.
    let shapes = scenario_list.len() - 1;
    let params: Vec<ServerParams> = tiers.iter().map(|t| t.params.clone()).collect();
    let partial: Vec<ServerAnalysis> = pool.run_batch(tiers.len() * shapes, move |job| {
        let (params, scenario) = (&params[job / shapes], scenario_list[1 + job % shapes]);
        ServerAnalysis::of_scenario(params, scenario).expect("model solves")
    });
    let analysis = |ti: usize, si: usize| match si {
        0 => &*full[ti],
        _ => &partial[ti * shapes + si - 1],
    };

    let mut mttr = Table::new(
        "per-tier-mttr-hours",
        ["tier", "full", "os_only", "no_reboot", "service_only"],
    );
    for (ti, tier) in tiers.iter().enumerate() {
        let mut row = vec![Value::from(tier.name.as_str())];
        for si in 0..scenario_list.len() {
            row.push(Value::from(analysis(ti, si).rates().mttr()));
        }
        mttr.add_row(row);
    }
    r.table(mttr);

    let mut coa = Table::new(
        "network-coa-per-scenario",
        ["scenario", "coa", "capacity_loss_h_per_month"],
    );
    for (si, s) in scenario_list.iter().enumerate() {
        let model_tiers: Vec<Tier> = tiers
            .iter()
            .enumerate()
            .map(|(ti, t)| Tier::new(t.name.clone(), t.count, analysis(ti, si).rates()))
            .collect();
        let value = NetworkModel::new(model_tiers)
            .coa()
            .expect("product form solves");
        coa.add_row(vec![
            Value::from(format!("{s:?}")),
            Value::from(value),
            Value::from((1.0 - value) * 720.0),
        ]);
    }
    r.table(coa);
    r.note(
        "lighter patch rounds (no OS patch, no reboot) recover most of the \
         capacity lost to the full monthly cycle — quantifying the value of \
         reboot-less patching the paper lists as future work.",
    );
    r
}

/// Expected monthly operational cost per design — server spend vs
/// capacity-loss vs expected breach loss (paper §V "other metrics").
pub fn cost(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new("cost", "Expected monthly cost per design");
    let evals = five_design_evals(pool, cache);
    let model = CostModel::default();
    r.keys([
        ("server_month", Value::from(model.server_month)),
        ("downtime_hour", Value::from(model.downtime_hour)),
        ("breach", Value::from(model.breach)),
    ]);

    let mut t = Table::new(
        "costs",
        ["design", "servers", "downtime", "breach", "total"],
    );
    for e in &evals {
        let b = model.evaluate(e);
        t.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(b.servers),
            Value::from(b.downtime),
            Value::from(b.breach),
            Value::from(b.total()),
        ]);
    }
    r.table(t);
    if let Some((best, b)) = model.cheapest(&evals) {
        r.keys([
            ("cheapest_design", Value::from(best.name.as_str())),
            ("cheapest_total", Value::from(b.total())),
        ]);
    }

    let mut sweep = Table::new("breach-cost-sweep", ["breach_cost", "cheapest_design"]);
    for breach in [0.0, 10_000.0, 100_000.0, 1_000_000.0, 10_000_000.0] {
        let m = CostModel { breach, ..model };
        if let Some((best, _)) = m.cheapest(&evals) {
            sweep.add_row(vec![Value::from(breach), Value::from(best.name.as_str())]);
        }
    }
    r.table(sweep);
    r.note(
        "as breach cost dominates, the low-attack-surface designs win; \
         as downtime dominates, the high-COA designs win.",
    );
    r
}

/// Exhaustive design-space search with the paper's decision functions,
/// beyond the five hand-picked designs (paper §V "systems"), over
/// `1..=max_redundancy` servers per tier on `pool` and `cache`. The
/// registry entry uses a bound of 3.
pub fn design_space(max_redundancy: u32, pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new("design_space", "Exhaustive design-space search");
    let sweep = Sweep::new(case_study::network()).full_design_space(max_redundancy);
    r.keys([
        ("max_redundancy", Value::from(max_redundancy)),
        ("designs", Value::from(sweep.len())),
    ]);
    let evals = sweep.run(pool, cache).expect("designs evaluate");

    let mut by_coa: Vec<&redeval::DesignEvaluation> = evals.iter().collect();
    by_coa.sort_by(|a, b| b.coa.partial_cmp(&a.coa).expect("finite"));
    r.table(design_table(
        "highest-coa",
        &by_coa.iter().take(5).copied().collect::<Vec<_>>(),
    ));
    r.table(design_table(
        "lowest-coa",
        &by_coa.iter().rev().take(3).copied().collect::<Vec<_>>(),
    ));

    let bounds = ScatterBounds {
        max_asp: 0.2,
        min_coa: 0.9968,
    };
    let mut region = bounds.region(&evals);
    region.sort_by(|a, b| {
        a.total_servers()
            .cmp(&b.total_servers())
            .then(a.name.cmp(&b.name))
    });
    r.keys([
        ("bounds", Value::from("φ=0.2, ψ=0.9968")),
        ("satisfying_designs", Value::from(region.len())),
    ]);
    r.table(design_table(
        "satisfying-region",
        &region.iter().take(10).copied().collect::<Vec<_>>(),
    ));
    r.note("tight bounds need redundancy; the satisfying table lists the 10 smallest designs.");
    r
}

fn stack_a_tree() -> AttackTree {
    AttackTree::leaf(Vulnerability::new("CVE-A (apache stack)", 10.0, 0.9))
}

fn stack_b_tree() -> AttackTree {
    AttackTree::and(vec![
        AttackTree::leaf(Vulnerability::new("CVE-B1 (nginx stack)", 2.9, 0.8)),
        AttackTree::leaf(Vulnerability::new("CVE-B2 (kernel lpe)", 10.0, 0.39)),
    ])
}

fn het_db_tier() -> TierSpec {
    TierSpec {
        name: "db".into(),
        count: 1,
        params: ServerParams::builder("db")
            .service_patch(Durations::minutes(10.0), Durations::minutes(5.0))
            .os_patch(Durations::minutes(30.0), Durations::minutes(10.0))
            .build(),
        tree: Some(AttackTree::leaf(Vulnerability::new("CVE-DB", 10.0, 0.39))),
        entry: false,
        target: true,
    }
}

fn het_web_tier(name: &str, tree: AttackTree) -> TierSpec {
    TierSpec {
        name: name.into(),
        count: 1,
        params: ServerParams::builder(name)
            .service_patch(Durations::minutes(10.0), Durations::minutes(5.0))
            .os_patch(Durations::minutes(10.0), Durations::minutes(10.0))
            .build(),
        tree: Some(tree),
        entry: true,
        target: false,
    }
}

/// Heterogeneous redundancy — a diverse replica carries a different
/// vulnerability set than its sibling (paper §V "systems") — on `pool`
/// and `cache`.
pub fn heterogeneous(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new(
        "heterogeneous",
        "Heterogeneous redundancy (web tier, after patch)",
    );
    let design = |label: &str, counts: &[u32]| Design::new(label, counts.to_vec());
    // A sweep's designs share one tier stack: the single-web and
    // identical-web designs are one sweep over the two-tier stack.
    let mut evals = Sweep::new(NetworkSpec::new(
        vec![het_web_tier("web", stack_a_tree()), het_db_tier()],
        vec![(0, 1)],
    ))
    .designs(vec![
        design("single web (stack A)", &[1, 1]),
        design("2x web (identical A+A)", &[2, 1]),
    ])
    .run(pool, cache)
    .expect("designs evaluate");
    // Heterogeneous redundancy: one stack-A and one stack-B server,
    // modelled as two single-server tiers feeding the same database.
    evals.extend(
        Sweep::new(NetworkSpec::new(
            vec![
                het_web_tier("webA", stack_a_tree()),
                het_web_tier("webB", stack_b_tree()),
                het_db_tier(),
            ],
            vec![(0, 2), (1, 2)],
        ))
        .designs(vec![design("2x web (diverse A+B)", &[1, 1, 1])])
        .run(pool, cache)
        .expect("designs evaluate"),
    );
    let mut t = Table::new("designs", ["design", "asp", "noev", "noap", "coa"]);
    for e in &evals {
        t.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(e.after.attack_success_probability),
            Value::from(e.after.exploitable_vulnerabilities),
            Value::from(e.after.attack_paths),
            Value::from(e.coa),
        ]);
    }
    r.table(t);
    r.note(
        "identical replicas double the attack surface with the *same* \
         exploit; the diverse replica adds a second, harder chain — its \
         marginal ASP increase is smaller while COA gains are identical.",
    );
    r
}

/// Host-importance ranking — which server most enables the attack goal,
/// before and after the patch round.
pub fn importance() -> Report {
    let mut r = Report::new("importance", "Host importance (ΔASP when hardened)");
    let harm = case_study::network().build_harm();
    let cfg = MetricsConfig::default();
    for (label, h) in [
        ("before-patch", harm.clone()),
        ("after-patch", harm.patched_critical(8.0)),
    ] {
        let base = h.metrics(&cfg).attack_success_probability;
        let mut t = Table::new(
            format!("host-importance-{label}"),
            ["host", "delta_asp", "asp_if_hardened"],
        );
        for (host, delta) in h.host_importance(&cfg) {
            t.add_row(vec![
                Value::from(h.graph().host_name(host)),
                Value::from(delta),
                Value::from(base - delta),
            ]);
        }
        r.keys([(format!("network_asp_{label}"), Value::from(base))]);
        r.table(t);
    }
    r.note(
        "the database (single point of the attack goal) dominates both \
         rankings; after the patch, hardening either remaining app server \
         severs half the surviving paths.",
    );
    r
}

/// Greedy patch prioritization — when the maintenance window only allows
/// a few patches, which vulnerabilities go first?
pub fn patch_priority(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new("patch_priority", "Greedy patch prioritization");
    let harm = case_study::network().build_harm();
    let cfg = MetricsConfig::default();

    let base = harm.metrics(&cfg).attack_success_probability;
    r.keys([("unpatched_asp", Value::from(base))]);
    let mut imp = Table::new("vulnerability-importance", ["vulnerability", "delta_asp"]);
    for (id, delta) in harm.vulnerability_importance(&cfg).iter().take(10) {
        imp.add_row(vec![Value::from(id.as_str()), Value::from(*delta)]);
    }
    r.table(imp);

    let mut greedy = Table::new("greedy-schedule", ["step", "patch", "asp_after"]);
    for (i, (id, asp)) in harm.greedy_patch_order(&cfg, 8).iter().enumerate() {
        greedy.add_row(vec![
            Value::from(i + 1),
            Value::from(id.as_str()),
            Value::from(*asp),
        ]);
    }
    r.table(greedy);

    let order = harm.greedy_patch_order(&cfg, 32);
    let blanket = harm
        .patched_critical(8.0)
        .metrics(&cfg)
        .attack_success_probability;
    r.keys([
        ("blanket_policy_asp", Value::from(blanket)),
        ("greedy_patches_to_asp_zero", Value::from(order.len())),
    ]);
    r.note(
        "with several independent certain-success vulnerabilities per \
         host, single patches have zero marginal ΔASP until a host's last \
         remote-root option is removed — a property of saturated noisy-or \
         metrics the schedule makes visible.",
    );

    let evals = five_design_evals(pool, cache);
    let mut blanket_table = Table::new(
        "blanket-policy-five-designs",
        ["design", "asp_before", "asp_after"],
    );
    for e in &evals {
        blanket_table.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(e.before.attack_success_probability),
            Value::from(e.after.attack_success_probability),
        ]);
    }
    r.table(blanket_table);
    r.note(
        "every redundant replica multiplies the paths the blanket policy \
         leaves open — the more redundancy a design carries, the more a \
         targeted (greedy) schedule matters.",
    );
    r
}

/// M/M/c response times per design, weighting each tier's queue by its
/// up-server distribution under the patch schedule (paper §V "user
/// oriented performance"), the tiers solved through `cache`.
pub fn perf(cache: &AnalysisCache) -> Report {
    let mut r = Report::new("perf", "M/M/c response times under patching");
    let spec = case_study::network();
    let analyses = cache.analyses_for(&spec).expect("server models solve");
    // Request profile: 50 req/s arrive at the web tier; each request
    // costs one app call and 0.5 db calls. Service rates are per server.
    let arrival_web = 50.0;
    // Tier indices follow case_study::network(): dns=0, web=1, app=2,
    // db=3. (DNS serves lookups, not request traffic, so it carries no
    // queue here.)
    let queue_tiers = [
        ("web", 1usize, arrival_web, 40.0),
        ("app", 2, arrival_web, 35.0),
        ("db", 3, arrival_web * 0.5, 60.0),
    ];
    r.keys([("arrival_web_req_s", Value::from(arrival_web))]);

    let mut t = Table::new(
        "response-times",
        [
            "design",
            "tier",
            "servers",
            "utilization",
            "w_all_up_ms",
            "w_patch_aware_ms",
        ],
    );
    for d in case_study::five_designs() {
        // The availability model depends only on the design, not on
        // which queue is being weighted.
        let model = spec
            .with_counts(&d.counts)
            .expect("valid design")
            .network_model(&analyses);
        for &(name, tier_idx, lambda, mu) in &queue_tiers {
            let count = d.counts[tier_idx];
            let design = Value::from(d.name.as_str());
            let Ok(q) = Mmc::new(lambda, mu, count) else {
                t.add_row(vec![
                    design,
                    Value::from(name),
                    Value::from(count),
                    Value::Null,
                    Value::Null,
                    Value::Null,
                ]);
                continue;
            };
            let down = model
                .tier_down_distribution(tier_idx)
                .expect("tier distribution solves");
            let dist: Vec<(u32, f64)> = down
                .iter()
                .enumerate()
                .map(|(k, &p)| (count - k as u32, p))
                .collect();
            let w = availability_weighted_response_time(lambda, mu, &dist, Some(5.0));
            t.add_row(vec![
                design,
                Value::from(name),
                Value::from(count),
                Value::from(q.utilization()),
                Value::from(q.mean_response_time() * 1000.0),
                match w {
                    Ok(w) => Value::from(w * 1000.0),
                    Err(_) => Value::Null,
                },
            ]);
        }
    }
    r.table(t);
    r.note(
        "redundant tiers keep response times flat through patch windows; \
         single-server tiers pay the 5 s outage penalty while rebooting. \
         Null cells mark unstable queues (utilization >= 1).",
    );
    r
}

/// Capacity transient of a patch round, by uniformization on the
/// upper-layer SRN, the tiers solved through `cache`.
pub fn transient(cache: &AnalysisCache) -> Report {
    let mut r = Report::new("transient", "Capacity transient from the fully-up state");
    let spec = case_study::network();
    let analyses = cache.analyses_for(&spec).expect("server models solve");
    let model = spec.network_model(&analyses);
    let (net, ups) = model.to_srn();
    let counts: Vec<u32> = model.tiers().iter().map(|t| t.count).collect();

    // The COA reward of Table VI — the same measure steady-state and
    // transient values are computed with, so the series converges to
    // `steady_state_coa`.
    let coa_reward = model.coa_reward(&ups);
    let solved = net.solve().expect("net solves");
    let steady = solved.expected(&coa_reward);
    r.keys([("steady_state_coa", Value::from(steady))]);

    let times = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 12.0, 48.0, 720.0];
    let mut p_up = Vec::with_capacity(times.len());
    let mut capacity = Vec::with_capacity(times.len());
    let markings = solved.state_space().tangible_markings();
    for &t in &times {
        // One uniformization solve per time point; both measures reduce
        // over the same distribution.
        let dist = solved.transient_distribution(t).expect("transient solves");
        let mut p_all = 0.0;
        let mut expected_coa = 0.0;
        for (m, &p) in markings.iter().zip(&dist) {
            if ups
                .iter()
                .zip(&counts)
                .all(|(&place, &c)| m.tokens(place) == c)
            {
                p_all += p;
            }
            expected_coa += coa_reward(m) * p;
        }
        p_up.push(p_all);
        capacity.push(expected_coa);
    }
    let index: Vec<String> = times.iter().map(|t| format!("t={t}h")).collect();
    r.series(Series::new("p-all-up", index.clone(), p_up));
    r.series(Series::new("expected-coa", index, capacity));
    r.note(
        "the network starts fully up; each tier dips independently once \
         per month, and the transient COA converges to the steady state.",
    );
    r
}
