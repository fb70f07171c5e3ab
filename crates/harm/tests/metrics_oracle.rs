//! Differential suite: the one-walk `Harm::metrics` against the
//! store-then-fold evaluation it replaced, compared bit for bit.
//!
//! The oracle below enumerates every attack path into a `Vec` with a
//! recursive depth-first search, then folds the stored paths. The
//! streaming kernel must reproduce its numbers exactly — same path
//! order, same fold order, same start values — on random host graphs
//! with cycles, targets that are also intermediate hops, non-exploitable
//! hosts, entry subsets, path caps below the path count, shared trees
//! and every `AspStrategy` × `OrCombine` pair.

use std::collections::HashSet;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::TestCaseError;
use redeval_harm::{
    AspStrategy, AttackGraph, AttackPath, AttackTree, Harm, HostId, MetricsConfig, OrCombine,
    SecurityMetrics, Vulnerability,
};

/// The store-then-fold evaluation: enumerate, then fold.
mod oracle {
    use super::*;

    fn dfs(
        harm: &Harm,
        h: HostId,
        targets: &HashSet<HostId>,
        stack: &mut Vec<HostId>,
        on_path: &mut Vec<bool>,
        out: &mut Vec<Vec<HostId>>,
        max_paths: usize,
    ) -> bool {
        stack.push(h);
        on_path[h.index()] = true;
        if targets.contains(&h) {
            if out.len() >= max_paths {
                return false;
            }
            out.push(stack.clone());
        }
        for &next in harm.graph().successors(h) {
            if on_path[next.index()] || !harm.is_exploitable(next) {
                continue;
            }
            if !dfs(harm, next, targets, stack, on_path, out, max_paths) {
                return false;
            }
        }
        stack.pop();
        on_path[h.index()] = false;
        true
    }

    pub fn attack_paths(harm: &Harm, config: &MetricsConfig) -> (Vec<AttackPath>, bool) {
        let targets: HashSet<HostId> = harm.targets().iter().copied().collect();
        let mut raw = Vec::new();
        let mut truncated = false;
        for &e in harm.graph().entries() {
            if !harm.is_exploitable(e) {
                continue;
            }
            let mut stack = Vec::new();
            let mut on_path = vec![false; harm.graph().host_count()];
            if !dfs(
                harm,
                e,
                &targets,
                &mut stack,
                &mut on_path,
                &mut raw,
                config.max_paths,
            ) {
                truncated = true;
                break;
            }
        }
        let tree = |h: &HostId| harm.tree(*h).expect("passable");
        let paths = raw
            .into_iter()
            .map(|hosts| AttackPath {
                impact: hosts.iter().map(|h| tree(h).impact()).sum(),
                probability: hosts
                    .iter()
                    .map(|h| tree(h).probability(config.or_combine))
                    .product(),
                hosts,
            })
            .collect();
        (paths, truncated)
    }

    fn reliability_asp(harm: &Harm, paths: &[AttackPath], config: &MetricsConfig) -> Option<f64> {
        let mut hosts: Vec<HostId> = Vec::new();
        for p in paths {
            for &h in &p.hosts {
                if !hosts.contains(&h) {
                    hosts.push(h);
                }
            }
        }
        let k = hosts.len();
        if k > Harm::RELIABILITY_HOST_LIMIT {
            return None;
        }
        let idx_of = |h: HostId| hosts.iter().position(|&x| x == h).expect("collected");
        let path_masks: Vec<u32> = paths
            .iter()
            .map(|p| p.hosts.iter().fold(0u32, |m, &h| m | (1u32 << idx_of(h))))
            .collect();
        let probs: Vec<f64> = hosts
            .iter()
            .map(|&h| {
                harm.tree(h)
                    .expect("exploitable")
                    .probability(config.or_combine)
            })
            .collect();
        let mut total = 0.0;
        for subset in 0u32..(1u32 << k) {
            let mut p = 1.0;
            for (i, &q) in probs.iter().enumerate() {
                if subset & (1 << i) != 0 {
                    p *= q;
                } else {
                    p *= 1.0 - q;
                }
                if p == 0.0 {
                    break;
                }
            }
            if p == 0.0 {
                continue;
            }
            if path_masks.iter().any(|&m| m & !subset == 0) {
                total += p;
            }
        }
        Some(total)
    }

    pub fn metrics(harm: &Harm, config: &MetricsConfig) -> SecurityMetrics {
        let (paths, _truncated) = attack_paths(harm, config);
        let noisy_or = || 1.0 - paths.iter().map(|p| 1.0 - p.probability).product::<f64>();
        let asp = if paths.is_empty() {
            0.0
        } else {
            match config.asp {
                AspStrategy::MaxPath => paths.iter().map(|p| p.probability).fold(0.0, f64::max),
                AspStrategy::NoisyOrPaths => noisy_or(),
                AspStrategy::Reliability => {
                    reliability_asp(harm, &paths, config).unwrap_or_else(noisy_or)
                }
            }
        };
        SecurityMetrics {
            attack_impact: paths.iter().map(|p| p.impact).fold(0.0, f64::max),
            attack_success_probability: asp,
            exploitable_vulnerabilities: harm.exploitable_vulnerabilities(),
            attack_paths: paths.len(),
            entry_points: harm.entry_points(),
            shortest_path_length: paths.iter().map(|p| p.hosts.len()).min(),
            mean_path_length: if paths.is_empty() {
                0.0
            } else {
                paths.iter().map(|p| p.hosts.len()).sum::<usize>() as f64 / paths.len() as f64
            },
            risk: paths
                .iter()
                .map(|p| p.impact * p.probability)
                .fold(0.0, f64::max),
        }
    }
}

type Bits = (u64, u64, usize, usize, usize, Option<usize>, u64, u64);

/// Every field of the metrics, floats as bit patterns.
fn bits(m: &SecurityMetrics) -> Bits {
    (
        m.attack_impact.to_bits(),
        m.attack_success_probability.to_bits(),
        m.exploitable_vulnerabilities,
        m.attack_paths,
        m.entry_points,
        m.shortest_path_length,
        m.mean_path_length.to_bits(),
        m.risk.to_bits(),
    )
}

fn path_bits(paths: &[AttackPath]) -> Vec<(Vec<HostId>, u64, u64)> {
    paths
        .iter()
        .map(|p| (p.hosts.clone(), p.impact.to_bits(), p.probability.to_bits()))
        .collect()
}

const STRATEGIES: [AspStrategy; 3] = [
    AspStrategy::MaxPath,
    AspStrategy::NoisyOrPaths,
    AspStrategy::Reliability,
];
const COMBINES: [OrCombine; 2] = [OrCombine::Max, OrCombine::NoisyOr];

/// Random attack tree: ids from a small pool so patches hit several
/// hosts, impacts on both sides of the usual critical thresholds.
fn tree() -> BoxedStrategy<AttackTree> {
    let leaf = (0usize..4, 0.0f64..=10.0, 0.0f64..=1.0).prop_map(|(id, imp, p)| {
        AttackTree::leaf(Vulnerability::new(["a", "b", "c", "d"][id], imp, p))
    });
    leaf.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..4).prop_map(AttackTree::and),
            prop::collection::vec(inner, 1..4).prop_map(AttackTree::or),
        ]
    })
    .boxed()
}

/// A host graph with trees: hosts `0..n`, directed edges, entries,
/// targets, and each host's tree in `pool` (`None` = not exploitable).
#[derive(Debug, Clone)]
struct Case {
    n: usize,
    edges: Vec<(usize, usize)>,
    entries: Vec<usize>,
    targets: Vec<usize>,
    slots: Vec<Option<usize>>,
    pool: Vec<AttackTree>,
}

/// Random digraphs: cycles anywhere, targets anywhere (often mid-path),
/// about one host in six not exploitable, and tree slots repeated across
/// the graph, so hosts that share a tree are not only neighbours.
fn random_case() -> impl Strategy<Value = Case> {
    (
        2usize..9,
        prop::collection::vec((0usize..8, 0usize..8), 8..40),
        prop::collection::vec(0usize..8, 1..4),
        prop::collection::vec(0usize..8, 1..4),
        prop::collection::vec(0usize..6, 8..9),
        prop::collection::vec(tree(), 3..4),
    )
        .prop_map(|(n, edges, entries, targets, slots, pool)| Case {
            n,
            edges: edges
                .into_iter()
                .map(|(a, b)| (a % n, b % n))
                .filter(|(a, b)| a != b)
                .collect(),
            entries: entries.into_iter().map(|e| e % n).collect(),
            targets: targets.into_iter().map(|t| t % n).collect(),
            slots: slots[..n]
                .iter()
                .map(|&s| (s != 3).then_some(s % 3))
                .collect(),
            pool,
        })
}

/// Replicated tiers as `NetworkSpec::build_harm` lays them out: 2–4
/// tiers of 1–3 hosts that share their tier's tree, every host of a tier
/// reaching every host of the next, plus (sometimes) edges back to the
/// previous tier, a second entry tier and a middle target tier. These
/// have tens to hundreds of paths, so the folds run long.
fn tiered_case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec(1usize..4, 2..5),
        prop::collection::vec(0usize..7, 4..5),
        0usize..5,
        0usize..4,
        prop::collection::vec(tree(), 3..4),
    )
        .prop_map(|(counts, tier_slots, back, flags, pool)| {
            let mut tiers: Vec<Vec<usize>> = Vec::new();
            let mut slots = Vec::new();
            for (t, &count) in counts.iter().enumerate() {
                let first = slots.len();
                tiers.push((first..first + count).collect());
                let slot = (tier_slots[t] != 6).then_some(tier_slots[t] % 3);
                slots.extend(std::iter::repeat(slot).take(count));
            }
            let mut edges = Vec::new();
            let mut link = |from: &[usize], to: &[usize]| {
                for &a in from {
                    edges.extend(to.iter().map(|&b| (a, b)));
                }
            };
            for pair in tiers.windows(2) {
                link(&pair[0], &pair[1]);
            }
            if (1..tiers.len()).contains(&back) {
                link(&tiers[back], &tiers[back - 1]);
            }
            let mut entries = tiers[0].clone();
            if flags & 1 == 1 {
                entries.extend(&tiers[1]);
            }
            let mut targets = tiers[tiers.len() - 1].clone();
            if flags & 2 == 2 && tiers.len() > 2 {
                targets.extend(&tiers[1]);
            }
            Case {
                n: slots.len(),
                edges,
                entries,
                targets,
                slots,
                pool,
            }
        })
}

/// The case's graph plus the same HARM twice: every host with its own
/// tree copy, and hosts with the same slot sharing one `Arc`.
fn build(case: &Case) -> (Harm, Harm) {
    let mut g = AttackGraph::new();
    let hosts: Vec<HostId> = (0..case.n).map(|i| g.add_host(format!("h{i}"))).collect();
    for &(a, b) in &case.edges {
        g.add_edge(hosts[a], hosts[b]);
    }
    for &e in &case.entries {
        g.add_entry(hosts[e]);
    }
    let targets: Vec<HostId> = case.targets.iter().map(|&t| hosts[t]).collect();
    let shared_pool: Vec<Arc<AttackTree>> = case.pool.iter().cloned().map(Arc::new).collect();
    let owned = case
        .slots
        .iter()
        .map(|s| s.map(|s| case.pool[s].clone()))
        .collect();
    let shared = case
        .slots
        .iter()
        .map(|s| s.map(|s| Arc::clone(&shared_pool[s])))
        .collect();
    (
        Harm::new(g.clone(), owned, targets.clone()),
        Harm::from_shared(g, shared, targets),
    )
}

/// Checks the kernel against the oracle on the case's HARM (owned and
/// shared trees) and on the HARM of the case with only the entries
/// `mask` selects, for every strategy pair.
fn check_against_oracle(case: &Case, cap: usize, mask: &[u8]) -> Result<(), TestCaseError> {
    let (owned, shared) = build(case);
    // The subset picks by position among the distinct entries, in the
    // order the graph records them.
    let mut entries = case.entries.clone();
    let mut seen = HashSet::new();
    entries.retain(|&e| seen.insert(e));
    let subset = Case {
        entries: (0..entries.len())
            .filter(|&i| mask[i % mask.len()] == 1)
            .map(|i| entries[i])
            .collect(),
        ..case.clone()
    };
    let (_, masked) = build(&subset);
    for harm in [&owned, &shared, &masked] {
        for asp in STRATEGIES {
            for or_combine in COMBINES {
                let config = MetricsConfig {
                    or_combine,
                    asp,
                    max_paths: cap,
                };
                let want = oracle::metrics(harm, &config);
                prop_assert_eq!(bits(&harm.metrics(&config)), bits(&want));
                let (paths, truncated) = harm.attack_paths_truncated(&config);
                let (want_paths, want_truncated) = oracle::attack_paths(harm, &config);
                prop_assert_eq!(path_bits(&paths), path_bits(&want_paths));
                prop_assert_eq!(truncated, want_truncated);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// On random digraphs the kernel's metrics and enumerated paths
    /// equal the oracle's, bit for bit, under every strategy pair, path
    /// cap and entry subset.
    #[test]
    fn metrics_match_oracle_on_random_graphs(
        case in random_case(),
        cap in prop_oneof![0usize..12, Just(1_000_000)],
        mask in prop::collection::vec(0u8..2, 4..5),
    ) {
        check_against_oracle(&case, cap, &mask)?;
    }

    /// The same on replicated tiers, where the folds run over many paths.
    #[test]
    fn metrics_match_oracle_on_tiered_graphs(
        case in tiered_case(),
        cap in prop_oneof![0usize..40, Just(1_000_000)],
        mask in prop::collection::vec(0u8..2, 6..7),
    ) {
        check_against_oracle(&case, cap, &mask)?;
    }

    /// Patching a HARM whose replicas share trees gives exactly the
    /// trees and metrics of patching one with a tree copy per host.
    #[test]
    fn shared_tree_patch_equals_unshared_patch(
        case in prop_oneof![random_case(), tiered_case()],
        threshold in 0.0f64..=10.0,
        id in 0usize..5,
    ) {
        let (owned, shared) = build(&case);
        let patch = |v: &Vulnerability| v.is_critical(threshold) || ["a", "b", "c", "d", "-"][id] == v.id;
        let (a, b) = (owned.patched(&patch), shared.patched(&patch));
        for h in owned.graph().hosts() {
            prop_assert_eq!(a.tree(h), b.tree(h));
        }
        for asp in STRATEGIES {
            for or_combine in COMBINES {
                let config = MetricsConfig { or_combine, asp, ..MetricsConfig::default() };
                prop_assert_eq!(bits(&a.metrics(&config)), bits(&b.metrics(&config)));
                prop_assert_eq!(bits(&b.metrics(&config)), bits(&oracle::metrics(&a, &config)));
            }
        }
    }
}

/// Past `RELIABILITY_HOST_LIMIT` hosts on paths the reliability ASP falls
/// back to noisy-or, in the kernel as in the oracle.
#[test]
fn reliability_fallback_matches_oracle() {
    let mut g = AttackGraph::new();
    let hosts: Vec<HostId> = (0..Harm::RELIABILITY_HOST_LIMIT + 2)
        .map(|i| g.add_host(format!("h{i}")))
        .collect();
    for &h in &hosts {
        g.add_entry(h);
    }
    let trees = hosts
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let p = 0.05 + 0.03 * i as f64;
            Some(AttackTree::leaf(Vulnerability::new("v", 5.0, p)))
        })
        .collect();
    let harm = Harm::new(g, trees, hosts);
    for or_combine in COMBINES {
        let config = MetricsConfig {
            or_combine,
            asp: AspStrategy::Reliability,
            ..MetricsConfig::default()
        };
        let noisy = MetricsConfig {
            asp: AspStrategy::NoisyOrPaths,
            ..config
        };
        let m = harm.metrics(&config);
        assert_eq!(bits(&m), bits(&oracle::metrics(&harm, &config)));
        assert_eq!(
            m.attack_success_probability.to_bits(),
            harm.metrics(&noisy).attack_success_probability.to_bits()
        );
    }
}
