//! Integration tests of the batch execution layer: the parallel sweep
//! must be **bitwise-identical** to the sequential reference over
//! randomized grids, and the shared analysis cache must dedupe every
//! repeated per-tier SRN solve.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redeval::case_study;
use redeval::decision::pareto_frontier;
use redeval_bench::CVSS_THRESHOLDS;
use redeval_suite::prelude::*;

/// The sequential reference of a one-variant grid over `spec`: each
/// point in grid order as its own one-design, one-policy sweep on a
/// one-worker pool and a fresh cache, the design named with the label
/// the grid gives that point.
fn per_point(
    spec: &Arc<NetworkSpec>,
    designs: &[Design],
    policies: &[PatchPolicy],
) -> Vec<DesignEvaluation> {
    let (pool, cache) = (Pool::new(1), Arc::new(AnalysisCache::new()));
    let mut out = Vec::with_capacity(designs.len() * policies.len());
    for design in designs {
        for &policy in policies {
            let label = if policies.len() > 1 {
                format!("{} | {policy}", design.name)
            } else {
                design.name.clone()
            };
            let point = Sweep::new(Arc::clone(spec))
                .designs(vec![Design::new(label, design.counts.clone())])
                .policies(vec![policy])
                .run(&pool, &cache)
                .expect("point evaluates");
            assert_eq!(point.len(), 1);
            out.extend(point);
        }
    }
    out
}

/// A randomized design grid over the case-study network (counts 1..=4).
fn random_designs(rng: &mut StdRng, n: usize) -> Vec<Design> {
    (0..n)
        .map(|i| {
            let counts: Vec<u32> = (0..4).map(|_| rng.gen::<u32>() % 4 + 1).collect();
            Design::new(format!("rnd{i} {counts:?}"), counts)
        })
        .collect()
}

#[test]
fn randomized_grid_parallel_is_bitwise_identical_to_sequential() {
    let mut rng = StdRng::seed_from_u64(0xD5417);
    let designs = random_designs(&mut rng, 24);
    let policies = vec![
        PatchPolicy::None,
        PatchPolicy::CriticalOnly(4.0 + 6.0 * rng.gen::<f64>()),
        PatchPolicy::All,
    ];
    let network = Arc::new(case_study::network());
    let sweep = Sweep::new(Arc::clone(&network))
        .designs(designs.clone())
        .policies(policies.clone());

    // Sequential reference: one point at a time, labels included.
    let reference = per_point(&network, &designs, &policies);

    // The engine must reproduce it exactly for any thread count.
    for threads in [1, 2, 4, 16] {
        let parallel = sweep
            .run(&Pool::new(threads), &Arc::new(AnalysisCache::new()))
            .expect("grid evaluates");
        assert_eq!(parallel.len(), reference.len());
        for (p, r) in parallel.iter().zip(&reference) {
            assert_eq!(p, r, "thread count {threads} changed a result");
            // PartialEq on f64 admits 0.0 == -0.0; pin the actual bits.
            assert_eq!(p.coa.to_bits(), r.coa.to_bits());
            assert_eq!(p.availability.to_bits(), r.availability.to_bits());
            assert_eq!(p.expected_up.to_bits(), r.expected_up.to_bits());
            assert_eq!(
                p.after.attack_success_probability.to_bits(),
                r.after.attack_success_probability.to_bits()
            );
        }
    }
}

#[test]
fn shared_cache_dedupes_per_tier_solves_across_the_batch() {
    let pool = Pool::new(4);
    let cache = Arc::new(AnalysisCache::new());
    // Warm the cache first, so the batch below starts from four solves.
    cache
        .analyses_for(&case_study::network())
        .expect("tiers solve");
    assert_eq!(cache.solves(), 4);
    assert_eq!(cache.len(), 4);

    let evals = Sweep::new(case_study::network())
        .designs(case_study::five_designs())
        .policies(vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All])
        .run(&pool, &cache)
        .expect("grid evaluates");
    assert_eq!(evals.len(), 10);
    // Four distinct tiers → the four warm-up solves serve the whole
    // batch; every per-cell lookup hits.
    assert_eq!(cache.solves(), 4);
    assert_eq!(cache.len(), 4);
    assert!(cache.hits() >= 4 * case_study::five_designs().len());

    // A second batch over the same parameters re-solves nothing.
    Sweep::new(case_study::network())
        .run(&pool, &cache)
        .expect("grid evaluates");
    assert_eq!(cache.solves(), 4);
}

#[test]
fn sweep_grid_agrees_with_legacy_evaluator_numbers() {
    // The engine's points, labels included, must match a per-policy loop
    // of one-point sweeps on a one-worker pool, which shares none of the
    // engine's cell grouping, over the standard policy axis: unpatched,
    // every CVSS threshold, patch-all.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let designs = random_designs(&mut rng, 12);
    let policies: Vec<PatchPolicy> = std::iter::once(PatchPolicy::None)
        .chain(CVSS_THRESHOLDS.map(PatchPolicy::CriticalOnly))
        .chain([PatchPolicy::All])
        .collect();
    let engine = Sweep::new(case_study::network())
        .designs(designs.clone())
        .policies(policies.clone())
        .run(&Pool::new(4), &Arc::new(AnalysisCache::new()))
        .expect("grid evaluates");
    assert_eq!(engine.len(), designs.len() * policies.len());
    let network = Arc::new(case_study::network());
    let (pool, cache) = (Pool::new(1), Arc::new(AnalysisCache::new()));
    for (pi, &policy) in policies.iter().enumerate() {
        // The engine's grid is design-major.
        for (di, d) in designs.iter().enumerate() {
            let l = Sweep::new(Arc::clone(&network))
                .designs(vec![d.clone()])
                .policies(vec![policy])
                .run(&pool, &cache)
                .expect("point evaluates")
                .remove(0);
            let e = &engine[di * policies.len() + pi];
            assert_eq!(e.name, format!("{} | {policy}", l.name));
            assert_eq!(e.counts, l.counts, "design {di}, {policy:?}");
            assert_eq!(e.before, l.before, "design {di}, {policy:?}");
            assert_eq!(e.after, l.after, "design {di}, {policy:?}");
            assert_eq!(e.coa.to_bits(), l.coa.to_bits());
            assert_eq!(e.availability.to_bits(), l.availability.to_bits());
            assert_eq!(e.expected_up.to_bits(), l.expected_up.to_bits());
        }
    }
}

#[test]
fn pareto_frontier_is_thread_count_independent() {
    let mut rng = StdRng::seed_from_u64(0xF007);
    let designs = random_designs(&mut rng, 20);
    let network = Arc::new(case_study::network());
    let sweep = Sweep::new(Arc::clone(&network)).designs(designs.clone());
    let evals = per_point(&network, &designs, &[PatchPolicy::CriticalOnly(8.0)]);
    let sequential = pareto_frontier(&evals);
    assert!(!sequential.is_empty());
    for threads in [2, 8] {
        let pooled = sweep
            .run(&Pool::new(threads), &Arc::new(AnalysisCache::new()))
            .expect("grid evaluates");
        assert_eq!(sequential, pareto_frontier(&pooled));
    }
}
