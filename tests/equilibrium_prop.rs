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
//! profiles the Gauss-Seidel trajectory itself never visits.

use std::sync::Arc;

use proptest::prelude::*;
use redeval::equilibrium::{exhaustive_defender_response, EquilibriumAnalyzer};
use redeval::exec::{AnalysisCache, Pool};
use redeval::scenario::generate::{self, GenParams};
use redeval::scenario::ScenarioDoc;

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
    /// bit for bit, and the prune accounts for every skipped mask.
    #[test]
    fn pruned_attacker_response_equals_exhaustive_argmax(
        family_idx in 0usize..3,
        seed in 0u64..1000,
        tiers in 5u32..=6,
        policies in 1u32..=2,
        max_redundancy in 2u32..=3,
        counts_seed in 0u64..(1 << 60),
        policy_pick in 0usize..64,
    ) {
        let doc = small_doc(family_idx, seed, tiers, policies);
        let analyzer = analyzer(&doc, max_redundancy);
        let counts = derived_counts(&doc, max_redundancy, counts_seed);
        let policy_idx = policy_pick % doc.policies.len();

        let cache = AnalysisCache::new();
        let pruned = analyzer.attacker_response(&counts, policy_idx, &cache)
            .expect("pruned attacker response");
        let full = analyzer.attacker_response_exhaustive(&counts, policy_idx, &cache)
            .expect("exhaustive attacker response");

        prop_assert_eq!(&pruned.mask, &full.mask);
        prop_assert_eq!(pruned.asp.to_bits(), full.asp.to_bits());
        prop_assert_eq!(pruned.aim.to_bits(), full.aim.to_bits());
        // The prune only skips — evaluated + pruned covers exactly the
        // masks the exhaustive pass evaluated.
        prop_assert_eq!(pruned.evaluated + pruned.pruned, full.evaluated);
        prop_assert_eq!(full.pruned, 0);
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
