//! Property suite for the equilibrium best-response oracles (ISSUE 9
//! satellite): on every design space small enough to enumerate
//! (≤ 10 000 cells), each player's *pruned* best response must be
//! **byte-identical** to the exhaustive argmax under the fixed
//! tie-break order —
//!
//! * the attacker's union-bound prune
//!   ([`EquilibriumAnalyzer::attacker_response`]) vs the full mask
//!   enumeration
//!   ([`EquilibriumAnalyzer::attacker_response_exhaustive`]), and
//! * the defender's branch-and-bound head
//!   ([`EquilibriumAnalyzer::defender_response`]) vs the materialized
//!   grid argmin ([`exhaustive_defender_response`]).
//!
//! Cases are generated scenarios from every family with randomized
//! knobs, defender counts and attacker masks, so the suite covers
//! profiles the Gauss-Seidel trajectory itself never visits. The
//! attacker cases also draw the ASP strategy and may close a tier cycle,
//! so its candidates are scored on both of the kernel's walks. A second
//! attacker property runs on fan-in networks whose argmax only a prune
//! bounding each mask by the *sum* of its single-tier bounds reaches.

use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestCaseError;
use redeval::equilibrium::{exhaustive_defender_response, EquilibriumAnalyzer};
use redeval::exec::{AnalysisCache, Pool};
use redeval::scenario::generate::{self, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::AspStrategy;

/// A generated document plus a cell-count guard: the knobs keep every
/// grid at most `3^6 × 2 = 1458` cells, well under the exhaustive cap.
fn small_doc(family_idx: usize, seed: u64, tiers: u32, policies: u32) -> ScenarioDoc {
    let family = generate::FAMILIES[family_idx % generate::FAMILIES.len()];
    let doc = generate::generate(
        family,
        &GenParams {
            tiers,
            redundancy: 2,
            designs: 1,
            policies,
        },
        seed,
    );
    assert!(!doc.tiers.is_empty());
    doc
}

fn analyzer(doc: &ScenarioDoc, max_redundancy: u32) -> EquilibriumAnalyzer {
    let cells = u64::from(max_redundancy).pow(doc.tiers.len() as u32) * doc.policies.len() as u64;
    assert!(cells <= 10_000, "property corpus must stay enumerable");
    EquilibriumAnalyzer::from_scenario(doc)
        .expect("generated documents convert")
        .max_redundancy(max_redundancy)
}

/// Defender counts derived from a seed: one count in 1..=max per tier.
fn derived_counts(doc: &ScenarioDoc, max: u32, seed: u64) -> Vec<u32> {
    (0..doc.tiers.len())
        .map(|i| 1 + ((seed >> (i % 60)) as u32 + i as u32) % max)
        .collect()
}

/// A fan-in network under noisy-or over paths: entry tiers `e0, e1, …`,
/// one per `(probability, impact)` in `entries`, each a single
/// vulnerability with an edge to the target tier `db`, whose single
/// vulnerability is `target`. Every path set of one entry tier is
/// disjoint from another's, so a mask's ASP is `1 − Π (1 − ASP_j)` over
/// its tiers' single-tier ASPs. With those strictly inside (0, 1) (for
/// singles 0.5, 0.4 and 0.4: 0.7 for the best pair, 0.82 for all
/// three), every pair beats every single, so the full mask, enumerated
/// last, is the unique argmax although its largest single is below the
/// best mask enumerated before it: bounding a mask by its largest
/// single would skip it.
fn fan_in_doc(entries: &[(f64, f64)], target: (f64, f64)) -> ScenarioDoc {
    let params = r#"{"hw_mtbf_h": 87600, "hw_repair_h": 1, "os_mtbf_h": 1440, "os_repair_h": 1, "os_patch_h": 0.25, "os_reboot_patch_h": 0.125, "os_reboot_failure_h": 0.125, "svc_mtbf_h": 336, "svc_repair_h": 0.5, "svc_patch_h": 0.125, "svc_reboot_patch_h": 0.0625, "svc_reboot_failure_h": 0.0625, "patch_interval_h": 720}"#;
    let vuln = |id: &str, (p, impact): (f64, f64)| {
        format!(r#"{{"id": "{id}", "impact": {impact}, "probability": {p}}}"#)
    };
    let tier = |name: &str, entry: bool| {
        format!(
            r#"{{"name": "{name}", "count": 1, "tree": "{name}", "entry": {entry}, "target": {}, "params": {params}}}"#,
            !entry
        )
    };
    let names: Vec<String> = (0..entries.len()).map(|j| format!("e{j}")).collect();
    let mut vulns: Vec<String> = names
        .iter()
        .zip(entries)
        .map(|(n, &e)| vuln(n, e))
        .collect();
    vulns.push(vuln("db", target));
    let mut all = names.clone();
    all.push("db".into());
    let trees: Vec<String> = all
        .iter()
        .map(|n| format!(r#"{{"name": "{n}", "tree": {{"vuln": "{n}"}}}}"#))
        .collect();
    let mut tiers: Vec<String> = names.iter().map(|n| tier(n, true)).collect();
    tiers.push(tier("db", false));
    let edges: Vec<String> = names.iter().map(|n| format!(r#"["{n}", "db"]"#)).collect();
    let ones = vec!["1"; all.len()].join(", ");
    let json = format!(
        r#"{{"schema": "redeval-scenario/1", "name": "fan_in", "title": "fan-in", "description": "",
        "vulnerabilities": [{}], "trees": [{}], "tiers": [{}], "edges": [{}],
        "designs": [{{"name": "ones", "counts": [{ones}]}}], "policies": ["none"],
        "metrics": {{"or_combine": "noisy-or", "asp": "noisy-or-paths", "max_paths": 1000000}}}}"#,
        vulns.join(", "),
        trees.join(", "),
        tiers.join(", "),
        edges.join(", "),
    );
    ScenarioDoc::from_json(&json).expect("the fan-in document is valid")
}

/// Checks the attacker's pruned best response at `counts` under policy
/// `policy_idx` against the exhaustive one and against the reference
/// argmax over every mask's host walk, replaced only on a strictly
/// better (ASP, AIM) pair. Requires a choice of at least `min_entries`
/// entry tiers, and returns each mask with its reference ASP, in
/// enumeration order.
fn check_attacker_response(
    doc: &ScenarioDoc,
    max_redundancy: u32,
    counts: &[u32],
    policy_idx: usize,
    min_entries: usize,
) -> Result<Vec<(Vec<bool>, f64)>, TestCaseError> {
    let analyzer = analyzer(doc, max_redundancy);
    let cache = AnalysisCache::new();
    let pruned = analyzer
        .attacker_response(counts, policy_idx, &cache)
        .expect("pruned attacker response");
    let full = analyzer
        .attacker_response_exhaustive(counts, policy_idx, &cache)
        .expect("exhaustive attacker response");

    prop_assert_eq!(&pruned.mask, &full.mask);
    prop_assert_eq!(pruned.asp.to_bits(), full.asp.to_bits());
    prop_assert_eq!(pruned.aim.to_bits(), full.aim.to_bits());
    // The prune only skips — evaluated + pruned covers exactly the
    // masks the exhaustive pass evaluated.
    prop_assert_eq!(pruned.evaluated + pruned.pruned, full.evaluated);
    prop_assert_eq!(full.pruned, 0);

    let policy = doc.policies[policy_idx];
    let spec = doc
        .to_spec()
        .expect("the document converts")
        .with_counts(counts)
        .expect("the counts are valid");
    let k = spec.entry_tiers().len();
    prop_assert!(
        k >= min_entries,
        "{} entry tier(s), fewer than {}",
        k,
        min_entries
    );
    let mut best: Option<(f64, f64, Vec<bool>)> = None;
    let mut masks = Vec::with_capacity((1 << k) - 1);
    for bits in 1u64..(1 << k) {
        let mask: Vec<bool> = (0..k).map(|j| bits & (1 << j) != 0).collect();
        let m = spec
            .with_entry_tiers(&mask)
            .expect("a non-empty mask")
            .build_harm()
            .patched(&move |v| policy.patches(v))
            .metrics(&doc.metrics);
        let (asp, aim) = (m.attack_success_probability, m.attack_impact);
        let better = match &best {
            None => true,
            Some((b_asp, b_aim, _)) => asp > *b_asp || (asp == *b_asp && aim > *b_aim),
        };
        if better {
            best = Some((asp, aim, mask.clone()));
        }
        masks.push((mask, asp));
    }
    let (asp, aim, mask) = best.expect("at least one entry tier");
    prop_assert_eq!(&full.mask, &mask);
    prop_assert_eq!(full.asp.to_bits(), asp.to_bits());
    prop_assert_eq!(full.aim.to_bits(), aim.to_bits());
    Ok(masks)
}

/// A non-empty entry-tier mask derived from seed bits.
fn derived_mask(entry_tiers: usize, seed: u64) -> Vec<bool> {
    let mut mask: Vec<bool> = (0..entry_tiers)
        .map(|i| (seed >> (i % 60)) & 1 == 1)
        .collect();
    if !mask.iter().any(|&b| b) {
        mask[0] = true;
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The attacker's pruned best response equals the exhaustive one,
    /// bit for bit, the prune accounts for every skipped mask, and the
    /// exhaustive one is the argmax over every mask's host walk. The ASP
    /// strategy is drawn and a back edge may close a tier cycle, so the
    /// kernel scores candidates on its host walk as well as its tier walk.
    /// One or two drawn tiers are opened to the attacker on top of the
    /// generated entry tiers, so every case has a choice of at least two.
    #[test]
    fn pruned_attacker_response_equals_exhaustive_argmax(
        family_idx in 0usize..3,
        seed in 0u64..1000,
        tiers in 5u32..=6,
        policies in 1u32..=2,
        max_redundancy in 2u32..=3,
        counts_seed in 0u64..(1 << 60),
        policy_pick in 0usize..64,
        asp_idx in 0usize..3,
        back_edge in 0usize..2,
        extra_entries in 1usize..=2,
        entry_pick in 0usize..64,
    ) {
        let mut doc = small_doc(family_idx, seed, tiers, policies);
        for i in 0..extra_entries {
            let closed: Vec<usize> =
                (0..doc.tiers.len()).filter(|&t| !doc.tiers[t].entry).collect();
            if !closed.is_empty() {
                doc.tiers[closed[(entry_pick + i) % closed.len()]].entry = true;
            }
        }
        doc.metrics.asp = [
            AspStrategy::MaxPath,
            AspStrategy::NoisyOrPaths,
            AspStrategy::Reliability,
        ][asp_idx];
        if back_edge == 1 {
            let (from, to) = doc.edges.last().cloned().expect("generated tiers are linked");
            doc.edges.push((to, from));
        }
        let counts = derived_counts(&doc, max_redundancy, counts_seed);
        let policy_idx = policy_pick % doc.policies.len();
        check_attacker_response(&doc, max_redundancy, &counts, policy_idx, 2)?;
    }

    /// The same oracle on noisy-or fan-in networks ([`fan_in_doc`]) of
    /// three or four entry tiers whose single-tier ASPs lie strictly
    /// inside (0, 1): the full mask is the unique argmax, reached only
    /// when the prune bounds it by the sum of its singles, since its
    /// largest single is below the incumbent's ASP.
    #[test]
    fn pruned_attacker_response_keeps_masks_only_the_summed_bound_admits(
        entries in prop::collection::vec((0.1f64..0.6, 1.0f64..10.0), 3..5),
        target in (0.5f64..0.95, 1.0f64..10.0),
        counts_seed in 0u64..(1 << 60),
    ) {
        let doc = fan_in_doc(&entries, target);
        let counts = derived_counts(&doc, 2, counts_seed);
        let masks = check_attacker_response(&doc, 2, &counts, 0, 3)?;
        let (last, rest) = masks.split_last().expect("at least one mask");
        prop_assert!(last.0.iter().all(|&b| b), "the full mask is enumerated last");
        let single = |(mask, _): &&(Vec<bool>, f64)| mask.iter().filter(|&&b| b).count() == 1;
        let largest_single = rest.iter().filter(single).map(|m| m.1).fold(0.0, f64::max);
        let incumbent = rest.iter().map(|m| m.1).fold(0.0, f64::max);
        prop_assert!(
            0.0 < largest_single && largest_single < incumbent && incumbent < last.1 && last.1 < 1.0,
            "singles up to {}, incumbent {}, full mask {}: not a case that needs the sum",
            largest_single,
            incumbent,
            last.1
        );
    }

    /// The defender's branch-and-bound best response equals the
    /// materialized-grid argmin under the fixed tie-break order.
    #[test]
    fn defender_response_equals_exhaustive_argmin(
        family_idx in 0usize..3,
        seed in 0u64..1000,
        tiers in 5u32..=6,
        policies in 1u32..=2,
        max_redundancy in 2u32..=3,
        mask_seed in 0u64..(1 << 60),
    ) {
        let doc = small_doc(family_idx, seed, tiers, policies);
        let analyzer = analyzer(&doc, max_redundancy);
        // attacker_space_masks = 2^k - 1; recover the entry-tier count k.
        let k = (analyzer.attacker_space_masks() + 1).trailing_zeros() as usize;
        prop_assert!(k >= 1, "generated scenarios have at least one entry tier");
        let mask = derived_mask(k, mask_seed);

        let pool = Pool::new(2);
        let pruned = analyzer.defender_response(&mask, &pool, &Arc::new(AnalysisCache::new()))
            .expect("pruned defender response");
        let (exhaustive_eval, exhaustive_policy) =
            exhaustive_defender_response(&analyzer, &mask, &pool, &Arc::new(AnalysisCache::new()))
                .expect("exhaustive defender response");

        prop_assert_eq!(pruned.policy_idx, exhaustive_policy);
        prop_assert_eq!(&pruned.eval.counts, &exhaustive_eval.counts);
        prop_assert_eq!(
            pruned.eval.after.attack_success_probability.to_bits(),
            exhaustive_eval.after.attack_success_probability.to_bits()
        );
        prop_assert_eq!(pruned.eval.coa.to_bits(), exhaustive_eval.coa.to_bits());
        prop_assert_eq!(&pruned.eval, &exhaustive_eval);
    }
}
