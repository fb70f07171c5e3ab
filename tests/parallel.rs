//! Integration tests of the batch execution layer: the parallel sweep
//! must be **bitwise-identical** to the sequential reference over
//! randomized grids, and the shared analysis cache must dedupe every
//! repeated per-tier SRN solve.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redeval::case_study;
use redeval::decision::{pareto_frontier, pareto_frontier_batch};
use redeval_bench::CVSS_THRESHOLDS;
use redeval_suite::prelude::*;

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
    let sweep = Sweep::new(case_study::network())
        .designs(designs)
        .policies(policies);

    // Sequential reference: one scenario at a time, fresh cache.
    let cache = AnalysisCache::new();
    let reference: Vec<DesignEvaluation> = sweep
        .scenarios()
        .iter()
        .map(|sc| sc.evaluate(&cache).expect("scenario evaluates"))
        .collect();

    // The engine must reproduce it exactly for any thread count.
    for threads in [1, 2, 4, 16] {
        let parallel = sweep
            .clone()
            .threads(threads)
            .run()
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
fn randomized_grid_evaluator_batch_matches_evaluate_all() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let designs = random_designs(&mut rng, 31);
    let evaluator = case_study::evaluator().expect("evaluator builds");
    let sequential = evaluator.evaluate_all(&designs).expect("designs evaluate");
    for threads in [2, 8] {
        let batch = evaluator
            .evaluate_batch(&designs, threads)
            .expect("designs evaluate");
        assert_eq!(batch, sequential);
    }
}

#[test]
fn shared_cache_dedupes_per_tier_solves_across_the_batch() {
    let cache = Arc::new(AnalysisCache::new());
    // Warm the cache sequentially first: concurrent cold misses on one
    // key are *allowed* to solve twice (exec.rs documents the race), so
    // exact solve counts are only deterministic from a warm start.
    cache
        .analyses_for(&case_study::network())
        .expect("tiers solve");
    assert_eq!(cache.solves(), 4);
    assert_eq!(cache.len(), 4);

    let evals = Sweep::new(case_study::network())
        .share_cache(&cache)
        .designs(case_study::five_designs())
        .policies(vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All])
        .threads(4)
        .run()
        .expect("grid evaluates");
    assert_eq!(evals.len(), 10);
    // Four distinct tiers → the four warm-up solves serve the whole
    // batch; every per-cell lookup hits.
    assert_eq!(cache.solves(), 4);
    assert_eq!(cache.len(), 4);
    assert!(cache.hits() >= 4 * case_study::five_designs().len());

    // A second batch over the same parameters re-solves nothing.
    Sweep::new(case_study::network())
        .share_cache(&cache)
        .run()
        .expect("grid evaluates");
    assert_eq!(cache.solves(), 4);
}

#[test]
fn sweep_grid_agrees_with_legacy_evaluator_numbers() {
    // The engine's numbers must match what a per-policy Evaluator loop
    // (the pre-engine code shape) produces, label excepted, over the
    // standard policy axis: unpatched, every CVSS threshold, patch-all.
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let designs = random_designs(&mut rng, 12);
    let policies: Vec<PatchPolicy> = std::iter::once(PatchPolicy::None)
        .chain(CVSS_THRESHOLDS.map(PatchPolicy::CriticalOnly))
        .chain([PatchPolicy::All])
        .collect();
    let engine = Sweep::new(case_study::network())
        .designs(designs.clone())
        .policies(policies.clone())
        .threads(4)
        .run()
        .expect("grid evaluates");
    assert_eq!(engine.len(), designs.len() * policies.len());
    for (pi, &policy) in policies.iter().enumerate() {
        let legacy =
            Evaluator::with_options(case_study::network(), MetricsConfig::default(), policy)
                .expect("evaluator builds")
                .evaluate_all(&designs)
                .expect("designs evaluate");
        // The engine's grid is design-major.
        for (di, l) in legacy.iter().enumerate() {
            let e = &engine[di * policies.len() + pi];
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
    let evaluator = case_study::evaluator().expect("evaluator builds");
    let evals = evaluator.evaluate_all(&designs).expect("designs evaluate");
    let sequential = pareto_frontier(&evals);
    assert!(!sequential.is_empty());
    for threads in [2, 8] {
        assert_eq!(sequential, pareto_frontier_batch(&evals, threads));
    }
}

#[test]
fn experiment_mixes_topologies_in_one_batch() {
    // Scenarios need not share a spec: a heterogeneous batch evaluates
    // like the individual scenarios do.
    let case = Arc::new(case_study::network());
    let custom = Arc::new({
        let tree = |cve: &str| Some(AttackTree::leaf(Vulnerability::new(cve, 10.0, 0.9)));
        NetworkSpec::new(
            vec![
                TierSpec {
                    name: "edge".into(),
                    count: 2,
                    params: ServerParams::builder("edge").build(),
                    tree: tree("CVE-E"),
                    entry: true,
                    target: false,
                },
                TierSpec {
                    name: "core".into(),
                    count: 1,
                    params: ServerParams::builder("core").build(),
                    tree: tree("CVE-C"),
                    entry: false,
                    target: true,
                },
            ],
            vec![(0, 1)],
        )
    });
    let scenarios = vec![
        Scenario::new(
            "case 1+2+2+1",
            Arc::clone(&case),
            Design::new("case", vec![1, 2, 2, 1]),
            PatchPolicy::CriticalOnly(8.0),
        ),
        Scenario::new(
            "custom 2+1",
            Arc::clone(&custom),
            Design::new("custom", vec![2, 1]),
            PatchPolicy::All,
        ),
        Scenario::new(
            "custom 3+2",
            Arc::clone(&custom),
            Design::new("custom", vec![3, 2]),
            PatchPolicy::None,
        ),
    ];
    let experiment = Experiment::new(scenarios.clone()).threads(3);
    let batch = experiment.run().expect("batch evaluates");
    let cache = AnalysisCache::new();
    for (b, sc) in batch.iter().zip(&scenarios) {
        let single = sc.evaluate(&cache).expect("scenario evaluates");
        assert_eq!(b, &single);
    }
    assert_eq!(batch[0].name, "case 1+2+2+1");
    assert!(batch[2].before == batch[2].after); // PatchPolicy::None
}
