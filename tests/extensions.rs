//! Integration tests for the extensions beyond the paper (Section V
//! future work implemented in this workspace).

use redeval::case_study;
use redeval::MetricsConfig;
use redeval_avail::{CompositeNetwork, PatchScenario, ServerAnalysis};
use redeval_harm::topology::TopologyBuilder;
use redeval_suite::prelude::*;

/// The zone/firewall builder reproduces the case-study attack graph.
#[test]
fn topology_builder_matches_case_study_graph() {
    let mut b = TopologyBuilder::new();
    let dmz_dns = b.zone("dmz-dns");
    let dmz_web = b.zone("dmz-web");
    let intranet = b.zone("intranet");
    let db_zone = b.zone("db");
    b.host("dns1", dmz_dns);
    b.host("web1", dmz_web);
    b.host("web2", dmz_web);
    b.host("app1", intranet);
    b.host("app2", intranet);
    let db = b.host("db1", db_zone);
    b.expose_to_internet(dmz_dns);
    b.expose_to_internet(dmz_web);
    b.allow(dmz_dns, dmz_web);
    b.allow(dmz_web, intranet);
    b.allow(intranet, db_zone);
    let g = b.build();

    // Same tree assignment as the case study, same metrics as Table II.
    let spec = case_study::network();
    let tree = |tier: usize| spec.tiers()[tier].tree.clone();
    let trees = vec![tree(0), tree(1), tree(1), tree(2), tree(2), tree(3)];
    let harm = Harm::new(g, trees, vec![db]);
    let m = harm.metrics(&MetricsConfig::default());
    assert_eq!(m.attack_paths, 8);
    assert_eq!(m.entry_points, 3);
    assert!((m.attack_impact - 52.2).abs() < 1e-9);

    let reference = spec.build_harm();
    let mr = reference.metrics(&MetricsConfig::default());
    assert_eq!(m, mr);
}

/// Partial patch scenarios: COA improves as the patch round gets lighter.
#[test]
fn patch_scenarios_order_coa() {
    let spec = case_study::network();
    let coa_for = |scenario: PatchScenario| {
        let tiers: Vec<Tier> = spec
            .tiers()
            .iter()
            .map(|t| {
                let a = ServerAnalysis::of_scenario(&t.params, scenario).unwrap();
                Tier::new(t.name.clone(), t.count, a.rates())
            })
            .collect();
        NetworkModel::new(tiers).coa().unwrap()
    };
    let full = coa_for(PatchScenario::Full);
    let os_only = coa_for(PatchScenario::OsOnly);
    let no_reboot = coa_for(PatchScenario::NoReboot);
    let svc_only = coa_for(PatchScenario::ServiceOnly);
    assert!(full < os_only);
    assert!(os_only < no_reboot);
    assert!(no_reboot < svc_only);
    assert!((full - 0.99707).abs() < 5e-5);
}

/// The exact composite model quantifies the hierarchy's optimism.
#[test]
fn composite_exposes_aggregation_error() {
    let dns = case_study::dns_params();
    let composite = CompositeNetwork::build(std::slice::from_ref(&dns), &[1]);
    let exact = composite.coa_exact().unwrap();
    let a = ServerAnalysis::of(&dns).unwrap();
    let aggregated = NetworkModel::new(vec![Tier::new("dns", 1, a.rates())])
        .coa()
        .unwrap();
    // The aggregation ignores failure downtime: optimistic by p_failed.
    assert!(aggregated > exact);
    assert!((aggregated - exact - a.p_failed()).abs() < 1e-4);
}

/// Greedy prioritization beats the blanket policy patch-for-patch.
#[test]
fn greedy_patching_efficiency() {
    let harm = case_study::network().build_harm();
    let cfg = MetricsConfig::default();
    let schedule = harm.greedy_patch_order(&cfg, 32);
    // Greedy zeroes the ASP with at most as many patches as the blanket
    // critical set (nine), and the final state is fully closed.
    assert!(schedule.len() <= 9);
    assert_eq!(schedule.last().map(|(_, a)| *a), Some(0.0));
}
