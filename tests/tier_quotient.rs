//! Differential suite: the evaluation kernel's tier walk against the host
//! walk, bit for bit.
//!
//! On an acyclic tier graph the kernel folds the path metrics per tier
//! path with replica counts and never builds a host graph. The oracle is
//! the public host walk, `spec.with_counts(c).build_harm()` (patched or
//! not) and `Harm::metrics`. Every `SecurityMetrics` field must agree to
//! the bit on random acyclic specs, under every `OrCombine`, both
//! path-based `AspStrategy`s, patch policies that keep, cut or kill
//! trees, and path caps below, at and above the path count. Cyclic tier
//! graphs and `AspStrategy::Reliability` take the host walk inside the
//! kernel and must match too.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redeval_bench::CVSS_THRESHOLDS;
use redeval_suite::prelude::*;

/// Every field of `m`, floats as bits, so `0.0` and `-0.0` differ.
fn bits(m: &SecurityMetrics) -> [u64; 8] {
    let SecurityMetrics {
        attack_impact,
        attack_success_probability,
        exploitable_vulnerabilities,
        attack_paths,
        entry_points,
        shortest_path_length,
        mean_path_length,
        risk,
    } = m;
    [
        attack_impact.to_bits(),
        attack_success_probability.to_bits(),
        *exploitable_vulnerabilities as u64,
        *attack_paths as u64,
        *entry_points as u64,
        shortest_path_length.map_or(u64::MAX, |s| s as u64),
        mean_path_length.to_bits(),
        risk.to_bits(),
    ]
}

fn assert_same(got: &SecurityMetrics, want: &SecurityMetrics, context: &dyn Fn() -> String) {
    assert_eq!(
        bits(got),
        bits(want),
        "{}:\n kernel {got:?}\n host walk {want:?}",
        context()
    );
}

/// The host walk's metrics of `harm` under `policy` (`None` = before).
fn host_walk(harm: &Harm, policy: Option<PatchPolicy>, config: &MetricsConfig) -> SecurityMetrics {
    match policy {
        None => harm.metrics(config),
        Some(p) => harm.patched(&move |v| p.patches(v)).metrics(config),
    }
}

/// What one comparison run covered.
#[derive(Debug, Default)]
struct Coverage {
    /// Kernel evaluations compared (each carries a before and an after).
    evaluations: usize,
    /// Of those, evaluations whose before or after walk hit the cap.
    truncated: usize,
}

/// The kernel's evaluation of design `counts` of `spec` under `policy`
/// and `config`: a one-design, one-policy sweep on `pool`.
fn evaluate_point(
    spec: &Arc<NetworkSpec>,
    counts: &[u32],
    policy: PatchPolicy,
    config: MetricsConfig,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> DesignEvaluation {
    let mut evals = Sweep::new(Arc::clone(spec))
        .designs(vec![Design::new("d", counts.to_vec())])
        .policies(vec![policy])
        .metrics(config)
        .run(pool, cache)
        .expect("point evaluates");
    assert_eq!(evals.len(), 1);
    evals.remove(0)
}

/// Evaluates `design` of `spec` under every `(policy, config)` pair as
/// a one-point sweep on a one-worker pool and compares both metric sets
/// with the host walk. Each config's path cap is taken as is, except
/// `None`, which stands for "the path count" and adds the counts of the
/// uncapped walks and one more.
fn compare_scenarios(
    spec: &Arc<NetworkSpec>,
    counts: &[u32],
    policies: &[PatchPolicy],
    configs: &[MetricsConfig],
    caps: &[Option<usize>],
    cache: &Arc<AnalysisCache>,
    coverage: &mut Coverage,
) {
    let pool = Pool::new(1);
    let harm = spec.with_counts(counts).expect("valid design").build_harm();
    for &policy in policies {
        for config in configs {
            let uncapped = MetricsConfig {
                max_paths: usize::MAX,
                ..*config
            };
            let path_counts = [
                host_walk(&harm, None, &uncapped).attack_paths,
                host_walk(&harm, Some(policy), &uncapped).attack_paths,
            ];
            let mut max_paths: Vec<usize> = caps
                .iter()
                .flat_map(|cap| match cap {
                    Some(cap) => vec![*cap],
                    None => path_counts.iter().flat_map(|&n| [n, n + 1]).collect(),
                })
                .collect();
            max_paths.sort_unstable();
            max_paths.dedup();
            for max_paths in max_paths {
                let config = MetricsConfig {
                    max_paths,
                    ..*config
                };
                let e = evaluate_point(spec, counts, policy, config, &pool, cache);
                let context = |side: &str| {
                    format!(
                        "{side} of {counts:?} under {policy}, {config:?}, edges {:?}",
                        spec.edges()
                    )
                };
                assert_same(&e.before, &host_walk(&harm, None, &config), &|| {
                    context("before")
                });
                assert_same(&e.after, &host_walk(&harm, Some(policy), &config), &|| {
                    context("after")
                });
                coverage.evaluations += 1;
                if path_counts.iter().any(|&n| n > max_paths) {
                    coverage.truncated += 1;
                }
            }
        }
    }
}

/// `{Max, NoisyOr} × {MaxPath, NoisyOrPaths}` — the configs the tier
/// walk serves.
fn path_based_configs() -> Vec<MetricsConfig> {
    let mut out = Vec::new();
    for or_combine in [OrCombine::Max, OrCombine::NoisyOr] {
        for asp in [AspStrategy::MaxPath, AspStrategy::NoisyOrPaths] {
            out.push(MetricsConfig {
                or_combine,
                asp,
                ..MetricsConfig::default()
            });
        }
    }
    out
}

/// Uniform in `0..n`.
fn below(rng: &mut StdRng, n: u32) -> u32 {
    rng.gen::<u32>() % n
}

/// A probability or impact scale: often one of the edge values, else
/// uniform.
fn unit(rng: &mut StdRng) -> f64 {
    match below(rng, 6) {
        0 => 0.0,
        1 => 1.0,
        2 => 0.5,
        _ => rng.gen::<f64>(),
    }
}

/// A random AND/OR attack tree of at most `depth` gate levels.
fn random_tree(rng: &mut StdRng, depth: u32, next_id: &mut u32) -> AttackTree {
    if depth == 0 || below(rng, 3) == 0 {
        *next_id += 1;
        return AttackTree::leaf(Vulnerability::with_base_score(
            format!("v{next_id}"),
            10.0 * unit(rng),
            unit(rng),
            10.0 * unit(rng),
        ));
    }
    let children = (0..1 + below(rng, 3))
        .map(|_| random_tree(rng, depth - 1, next_id))
        .collect();
    if rng.gen::<bool>() {
        AttackTree::and(children)
    } else {
        AttackTree::or(children)
    }
}

/// A random tier spec from `seed`: 2–6 tiers of 1–3 replicas, random
/// trees with some `None` tiers, entry and target flags at any depth
/// (targets may have successors), and the edges of a random DAG,
/// duplicated and shuffled. With `cyclic`, one back edge closes a cycle.
fn random_spec(seed: u64, cyclic: bool) -> (NetworkSpec, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = 2 + below(&mut rng, 5) as usize;
    // A random topological order: edges run from earlier to later.
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, below(&mut rng, i as u32 + 1) as usize);
    }
    let mut edges = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            if below(&mut rng, 2) == 0 {
                edges.push((order[i], order[j]));
            }
        }
    }
    if cyclic {
        let j = 1 + below(&mut rng, n as u32 - 1) as usize;
        let i = below(&mut rng, j as u32) as usize;
        edges.push((order[i], order[j]));
        edges.push((order[j], order[i]));
    }
    for _ in 0..below(&mut rng, 3) {
        if !edges.is_empty() {
            let e = edges[below(&mut rng, edges.len() as u32) as usize];
            edges.push(e);
        }
    }
    for i in (1..edges.len()).rev() {
        edges.swap(i, below(&mut rng, i as u32 + 1) as usize);
    }
    let mut entry: Vec<bool> = (0..n).map(|_| below(&mut rng, 2) == 0).collect();
    let mut target: Vec<bool> = (0..n).map(|_| below(&mut rng, 3) == 0).collect();
    entry[below(&mut rng, n as u32) as usize] = true;
    target[below(&mut rng, n as u32) as usize] = true;
    let mut next_id = 0;
    let tiers = (0..n)
        .map(|t| TierSpec {
            name: format!("t{t}"),
            count: 1 + below(&mut rng, 3),
            params: ServerParams::builder("t").build(),
            tree: (below(&mut rng, 5) != 0).then(|| random_tree(&mut rng, 2, &mut next_id)),
            entry: entry[t],
            target: target[t],
        })
        .collect::<Vec<_>>();
    let counts = (0..n).map(|_| 1 + below(&mut rng, 3)).collect();
    let spec = NetworkSpec::try_new(tiers, edges).expect("valid random spec");
    (spec, counts)
}

/// The policies of the random suite: keep every tree, cut at a random
/// CVSS threshold, kill every tree.
fn random_policies(seed: u64) -> Vec<PatchPolicy> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
    let t = (100.0 * rng.gen::<f64>()).round() / 10.0;
    vec![
        PatchPolicy::None,
        PatchPolicy::CriticalOnly(t),
        PatchPolicy::All,
    ]
}

/// The path caps of the random suite; `None` is NoAP and NoAP + 1.
const CAPS: [Option<usize>; 7] = [
    Some(0),
    Some(1),
    Some(2),
    Some(3),
    Some(17),
    None,
    Some(1_000_000),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// Random acyclic specs take the tier walk and match the host walk,
    /// and a quarter of them, made cyclic, take the host walk inside the
    /// kernel and match too.
    #[test]
    fn tier_walk_matches_host_walk_on_random_specs(seed in 0u64..u64::MAX) {
        let cyclic = seed % 4 == 0;
        let (spec, counts) = random_spec(seed, cyclic);
        prop_assert_eq!(spec.tier_dag().is_none(), cyclic);
        let spec = Arc::new(spec);
        let cache = Arc::new(AnalysisCache::new());
        let mut coverage = Coverage::default();
        compare_scenarios(
            &spec,
            &counts,
            &random_policies(seed),
            &path_based_configs(),
            &CAPS,
            &cache,
            &mut coverage,
        );
    }
}

#[test]
fn random_suite_covers_truncated_untruncated_and_pathless_specs() {
    // The seeds of the property test are drawn afresh; this fixed set
    // pins what the suite covers: truncated walks, untruncated ones,
    // and specs with no path at all.
    let (mut coverage, mut pathless) = (Coverage::default(), 0);
    for seed in 0..24u64 {
        let (spec, counts) = random_spec(seed, false);
        let harm = spec.with_counts(&counts).unwrap().build_harm();
        if harm.metrics(&MetricsConfig::default()).attack_paths == 0 {
            pathless += 1;
        }
        compare_scenarios(
            &Arc::new(spec),
            &counts,
            &random_policies(seed),
            &path_based_configs(),
            &CAPS,
            &Arc::new(AnalysisCache::new()),
            &mut coverage,
        );
    }
    assert!(pathless > 0, "some spec has no path");
    assert!(coverage.truncated > 0, "{coverage:?}");
    assert!(coverage.truncated < coverage.evaluations, "{coverage:?}");
}

/// The paper case study with one back edge (app → web): a cyclic tier
/// graph.
fn cyclic_case_study() -> NetworkSpec {
    let base = case_study::network();
    let mut edges = base.edges().to_vec();
    edges.push((2, 1));
    NetworkSpec::try_new(base.tiers().to_vec(), edges).expect("valid cyclic spec")
}

#[test]
fn cyclic_tier_graphs_and_reliability_take_the_host_walk() {
    assert!(case_study::network().tier_dag().is_some());
    let cyclic = cyclic_case_study();
    assert!(cyclic.tier_dag().is_none());
    let mut configs = path_based_configs();
    for or_combine in [OrCombine::Max, OrCombine::NoisyOr] {
        configs.push(MetricsConfig {
            or_combine,
            asp: AspStrategy::Reliability,
            ..MetricsConfig::default()
        });
    }
    let policies = [
        PatchPolicy::None,
        PatchPolicy::CriticalOnly(8.0),
        PatchPolicy::All,
    ];
    let cache = Arc::new(AnalysisCache::new());
    let mut coverage = Coverage::default();
    // Up to 10 hosts keeps the reliability ASP exact; 8-8-8-8 passes the
    // 22-host limit, where it falls back to noisy-or. (The cyclic graph
    // stops at 2-3-3-2: its simple paths weave between the web and app
    // replicas, and at 8-8-8-8 they are too many to count.)
    let small: &[[u32; 4]] = &[[1, 1, 1, 1], [1, 2, 2, 1], [2, 3, 3, 2]];
    let acyclic_designs = [small, &[[8, 8, 8, 8]]].concat();
    for (spec, designs) in [
        (case_study::network(), acyclic_designs.as_slice()),
        (cyclic, small),
    ] {
        let spec = Arc::new(spec);
        for counts in designs {
            compare_scenarios(
                &spec,
                counts,
                &policies,
                &configs,
                &[Some(5), None, Some(1_000_000)],
                &cache,
                &mut coverage,
            );
        }
    }
    assert!(coverage.truncated > 0, "{coverage:?}");
}

#[test]
fn long_replicated_chains_saturate_and_match_the_capped_host_walk() {
    // 30 tiers of 8 replicas in a chain: 8³⁰ > 2⁶⁴ host paths, so the
    // run multiplicity saturates, and every cap truncates.
    let leaf = |i: usize| {
        Some(AttackTree::leaf(Vulnerability::new(
            format!("v{i}"),
            1.0,
            0.999,
        )))
    };
    let tiers = (0..30)
        .map(|i| TierSpec {
            name: format!("t{i}"),
            count: 8,
            params: ServerParams::builder("t").build(),
            tree: leaf(i),
            entry: i == 0,
            target: i == 29,
        })
        .collect();
    let edges = (0..29).map(|i| (i, i + 1)).collect();
    let spec = Arc::new(NetworkSpec::try_new(tiers, edges).expect("valid chain"));
    assert!(spec.tier_dag().is_some());
    let design = Design::new("8s", vec![8; 30]);
    let harm = spec.with_counts(&design.counts).unwrap().build_harm();
    let (pool, cache) = (Pool::new(1), Arc::new(AnalysisCache::new()));
    for config in path_based_configs() {
        for max_paths in [0, 1, 1000] {
            let config = MetricsConfig {
                max_paths,
                ..config
            };
            let e = evaluate_point(
                &spec,
                &design.counts,
                PatchPolicy::None,
                config,
                &pool,
                &cache,
            );
            let want = harm.metrics(&config);
            assert_eq!(want.attack_paths, max_paths);
            assert_same(&e.before, &want, &|| format!("{config:?}"));
            assert_same(&e.after, &want, &|| format!("{config:?}"));
        }
    }
}

/// The case study's policy axis: `None`, `CriticalOnly(t)` for every
/// `CVSS_THRESHOLDS` entry, `All`.
fn policy_axis() -> Vec<PatchPolicy> {
    let mut out = vec![PatchPolicy::None];
    out.extend(
        CVSS_THRESHOLDS
            .iter()
            .map(|&t| PatchPolicy::CriticalOnly(t)),
    );
    out.push(PatchPolicy::All);
    out
}

/// Runs `designs` of the case study through the batch kernel (`Sweep` on
/// a pool) under the policy axis and every path-based config, and checks
/// every evaluation against the host walk.
fn case_study_space_matches_host_walk(designs: Vec<Design>) {
    let spec = case_study::network();
    let policies = policy_axis();
    let pool = Pool::new(2);
    for config in path_based_configs() {
        let evals = Sweep::new(spec.clone())
            .designs(designs.clone())
            .policies(policies.clone())
            .metrics(config)
            .run(&pool, &Arc::new(AnalysisCache::new()))
            .expect("sweep evaluates");
        assert_eq!(evals.len(), designs.len() * policies.len());
        for (design, row) in designs.iter().zip(evals.chunks(policies.len())) {
            let harm = spec.with_counts(&design.counts).unwrap().build_harm();
            let before = host_walk(&harm, None, &config);
            for (&policy, e) in policies.iter().zip(row) {
                assert_eq!(e.counts, design.counts);
                let context = || format!("{:?} under {policy}, {config:?}", design.counts);
                assert_same(&e.before, &before, &context);
                assert_same(&e.after, &host_walk(&harm, Some(policy), &config), &context);
            }
        }
    }
}

#[test]
fn case_study_sample_matches_host_walk() {
    // A seeded 256-design sample of the 8⁴ space; the whole space runs
    // in release (`--ignored`).
    let mut rng = StdRng::seed_from_u64(0x7135);
    let designs = (0..256)
        .map(|i| {
            let counts: Vec<u32> = (0..4).map(|_| 1 + below(&mut rng, 8)).collect();
            Design::new(format!("sample{i}"), counts)
        })
        .collect();
    case_study_space_matches_host_walk(designs);
}

#[test]
#[ignore = "the full 8⁴ × 10 × 4 space; run in release"]
fn case_study_full_space_matches_host_walk() {
    case_study_space_matches_host_walk(case_study::network().enumerate_designs(8));
}
