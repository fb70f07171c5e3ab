//! Builders for the paper's Figures 3–7.

use std::sync::Arc;

use redeval::case_study;
use redeval::charts::{
    radar_data, radar_series_table, scatter_ascii, scatter_data, scatter_table, RADAR_AXES,
};
use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{Report, Table, Value};
use redeval::{Harm, MetricsConfig};
use redeval_avail::ServerModel;

use super::{eq3_regions, eq4_regions, five_design_evals};

fn path_table(name: &str, harm: &Harm, cfg: &MetricsConfig) -> Table {
    let mut t = Table::new(name, ["path", "aim", "asp"]);
    for p in &harm.attack_paths(cfg).expect("few paths") {
        let names: Vec<&str> = p.hosts.iter().map(|&h| harm.graph().host_name(h)).collect();
        t.add_row(vec![
            Value::from(format!("A -> {}", names.join(" -> "))),
            Value::from(p.impact),
            Value::from(p.probability),
        ]);
    }
    t
}

/// **Figure 3** — the HARMs of the example network before and after
/// patch: attack-path listings plus Graphviz DOT.
pub fn fig3() -> Report {
    let mut r = Report::new("fig3", "Figure 3: HARMs of the example network");
    let spec = case_study::network();
    let before = spec.build_harm();
    let after = before.patched_critical(8.0);
    let cfg = MetricsConfig::default();

    r.table(path_table("paths-before-patch", &before, &cfg));
    r.table(path_table("paths-after-patch", &after, &cfg));
    r.note("dns1 is excluded after patch: no exploitable vulnerability left.");
    r.note(format!(
        "Graphviz DOT, before patch (render with `dot -Tsvg`):\n{}",
        before.to_dot()
    ));
    r.note(format!("Graphviz DOT, after patch:\n{}", after.to_dot()));
    r
}

/// **Figures 4 and 5** — the SRN sub-models as Graphviz DOT, plus the
/// tangible state space of the server model; the network sub-model's
/// tiers are solved through `cache`.
pub fn fig45(cache: &AnalysisCache) -> Report {
    let mut r = Report::new("fig45", "Figures 4/5: SRN sub-models");
    let model = ServerModel::build(&case_study::dns_params());
    r.note(format!(
        "Figure 5 — SRN sub-models for a server (DNS parameters), DOT:\n{}",
        model.net().to_dot()
    ));

    let ss = model.net().state_space().expect("state space builds");
    r.keys([
        ("tangible_markings", Value::from(ss.len())),
        (
            "vanishing_markings_eliminated",
            Value::from(ss.vanishing_count()),
        ),
    ]);
    r.note(
        "places: Phwup Phwd Posup Posd Posfd Posrp Posp Psvcup Psvcd \
         Psvcfd Psvcrp Psvcp Psvcrrb Pclock Ppolicy Ptrigger",
    );
    let mut markings = Table::new("tangible-markings", ["marking"]);
    for m in ss.tangible_markings() {
        markings.add_row(vec![Value::from(format!("{m}"))]);
    }
    r.table(markings);

    let spec = case_study::network();
    let analyses = cache.analyses_for(&spec).expect("server models solve");
    let (net, _) = spec.network_model(&analyses).to_srn();
    r.note(format!(
        "Figure 4 — SRN sub-models for the network, DOT:\n{}",
        net.to_dot()
    ));
    r
}

/// **Figure 6** — the ASP-vs-COA scatter of the five designs, before and
/// after patch, plus the Equation-(3) region analysis.
pub fn fig6(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new("fig6", "Figure 6: ASP vs COA for the five designs");
    let evals = five_design_evals(pool, cache);

    let mut before = scatter_table(&scatter_data(&evals, false));
    before.name = "scatter-before-patch".to_string();
    r.table(before);
    r.note("all designs share ASP = 1.0 before patch, as in the paper.");

    let after_points = scatter_data(&evals, true);
    let mut after = scatter_table(&after_points);
    after.name = "scatter-after-patch".to_string();
    r.table(after);
    r.note(format!(
        "ASCII scatter (after patch):\n{}",
        scatter_ascii(&after_points, 64, 14)
    ));

    eq3_regions(&mut r, &evals);
    r
}

/// **Figure 7** — the six-metric radar comparison of the five designs,
/// the paper's qualitative observations (checked), and the Equation-(4)
/// region analysis.
pub fn fig7(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new(
        "fig7",
        "Figure 7: six-metric comparison of the five designs",
    );
    let evals = five_design_evals(pool, cache);
    r.note(format!("radar axes: {}", RADAR_AXES.join(" | ")));

    let before = radar_data(&evals, false);
    let mut before_table = radar_series_table(&before);
    before_table.name = "radar-before-patch".to_string();
    r.table(before_table);

    let after = radar_data(&evals, true);
    let mut after_table = radar_series_table(&after);
    after_table.name = "radar-after-patch".to_string();
    r.table(after_table);

    // The paper's qualitative observations, each as a checked fact.
    let aim_before: Vec<f64> = before.iter().map(|s| s.values[2]).collect();
    let aim_identical = aim_before.iter().all(|&a| (a - aim_before[0]).abs() < 1e-9);
    let d = |i: usize| &after[i].values;
    let share_noap_noev = d(0)[4] == d(1)[4] && d(0)[3] == d(1)[3];
    let only_web_more_entries =
        d(2)[0] > d(0)[0] && d(1)[0] == d(0)[0] && d(3)[0] == d(0)[0] && d(4)[0] == d(0)[0];
    let app_highest_coa = (0..5).all(|i| after[3].values[5] >= after[i].values[5]);
    for (label, ok) in [
        ("aim_identical_before_patch", aim_identical),
        ("designs_1_2_share_noap_noev_after_patch", share_noap_noev),
        ("only_design_3_gains_entry_points", only_web_more_entries),
        ("design_4_has_highest_coa", app_highest_coa),
    ] {
        r.check(ok);
        r.keys([(label, Value::from(ok))]);
    }

    eq4_regions(&mut r, &evals);
    r
}
