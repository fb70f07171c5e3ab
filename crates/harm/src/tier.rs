//! The tier walk: the path metrics of a replicated network from its tier
//! graph, without expanding the host graph.

use crate::metrics::{empty_prefix, extend, AspStrategy, MetricsConfig, PathFold, SecurityMetrics};
use crate::tree::AttackTree;

/// One tier of a replicated network as [`TierDag::metrics`] sees it.
#[derive(Debug, Clone, Copy)]
pub struct ReplicatedTier<'a> {
    /// Number of replicas.
    pub count: u32,
    /// The attack tree every replica shares (`None` = not exploitable).
    pub tree: Option<&'a AttackTree>,
    /// Whether every replica is an attacker entry.
    pub entry: bool,
    /// Whether every replica is an attack target.
    pub target: bool,
}

/// The tier graph of a replicated network, recorded once when it is
/// acyclic.
///
/// A replicated network has `count` hosts per tier that share one attack
/// tree. Every tier edge becomes full bipartite host edges, every host of
/// an entry tier is an entry and every host of a target tier is a target,
/// hosts are numbered tier-major, and the entries follow the tier order.
/// [`Harm::metrics`](crate::Harm::metrics) on that host graph walks host
/// paths; on an acyclic tier graph [`metrics`](Self::metrics) folds the
/// same paths, in the same order, per tier path with replica counts.
///
/// # Examples
///
/// ```
/// use redeval_harm::{AttackTree, MetricsConfig, ReplicatedTier, TierDag, Vulnerability};
///
/// let web = AttackTree::leaf(Vulnerability::new("a", 10.0, 0.5));
/// let db = AttackTree::leaf(Vulnerability::new("b", 10.0, 0.5));
/// let tiers = [
///     ReplicatedTier { count: 2, tree: Some(&web), entry: true, target: false },
///     ReplicatedTier { count: 1, tree: Some(&db), entry: false, target: true },
/// ];
/// let dag = TierDag::new(2, &[(0, 1)]).expect("acyclic");
/// let m = dag.metrics(&tiers, &MetricsConfig::default());
/// assert_eq!(m.attack_paths, 2); // web1→db1, web2→db1
/// assert!(TierDag::new(2, &[(0, 1), (1, 0)]).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TierDag {
    /// Successors of each tier, deduplicated in first-insertion order —
    /// the order [`AttackGraph::add_edge`](crate::AttackGraph::add_edge)
    /// gives each replica's host successors.
    succ: Vec<Vec<usize>>,
    /// Every tier after all of its successors.
    reverse_topological: Vec<usize>,
}

impl TierDag {
    /// Records the graph of `tiers` tiers and `(from, to)` `edges`.
    /// Returns `None` when it has a cycle (a self edge included).
    ///
    /// # Panics
    ///
    /// Panics on an edge endpoint `≥ tiers`.
    pub fn new(tiers: usize, edges: &[(usize, usize)]) -> Option<TierDag> {
        let mut succ: Vec<Vec<usize>> = vec![Vec::new(); tiers];
        let mut pred: Vec<Vec<usize>> = vec![Vec::new(); tiers];
        for &(a, b) in edges {
            assert!(a < tiers && b < tiers, "tier edge out of range");
            if !succ[a].contains(&b) {
                succ[a].push(b);
                pred[b].push(a);
            }
        }
        // Kahn's algorithm from the sinks: a tier is placed once all of
        // its successors are.
        let mut unplaced: Vec<usize> = succ.iter().map(Vec::len).collect();
        let mut order: Vec<usize> = (0..tiers).filter(|&t| unplaced[t] == 0).collect();
        let mut next = 0;
        while let Some(&t) = order.get(next) {
            next += 1;
            for &p in &pred[t] {
                unplaced[p] -= 1;
                if unplaced[p] == 0 {
                    order.push(p);
                }
            }
        }
        (order.len() == tiers).then_some(TierDag {
            succ,
            reverse_topological: order,
        })
    }

    /// The metric suite of the replicated network `tiers` on this graph:
    /// bit for bit what [`Harm::metrics`](crate::Harm::metrics) gives on
    /// its expanded host graph.
    ///
    /// No replica is ever blocked by being on the path, because the tier
    /// graph is acyclic. So every replica of a tier leads on to the same
    /// sequence of tier paths, and the walk replays the host walk's path
    /// order one tier path at a time. A tier whose paths are one chain
    /// to one target adds one run of `count × Π counts` identical host
    /// paths (saturating); any other tier is walked once per replica.
    /// `config.max_paths` cuts the prefix the host walk cuts.
    ///
    /// # Panics
    ///
    /// Panics when `tiers.len()` differs from the tier count, and for
    /// [`AspStrategy::Reliability`]: its exact ASP needs each path's
    /// hosts, which only the host walk has.
    pub fn metrics(&self, tiers: &[ReplicatedTier<'_>], config: &MetricsConfig) -> SecurityMetrics {
        assert_eq!(
            tiers.len(),
            self.succ.len(),
            "one replicated tier per tier required"
        );
        assert_ne!(
            config.asp,
            AspStrategy::Reliability,
            "the reliability ASP needs the host walk"
        );
        let values: Vec<Option<(f64, f64)>> = tiers
            .iter()
            .map(|t| {
                t.tree
                    .map(|tree| (tree.impact(), tree.probability(config.or_combine)))
            })
            .collect();
        let mut reach = vec![Reach::Dead; tiers.len()];
        for &t in &self.reverse_topological {
            if values[t].is_none() {
                continue;
            }
            let mut onward = self.succ[t].iter().filter(|&&s| reach[s] != Reach::Dead);
            reach[t] = match (tiers[t].target, onward.next(), onward.next()) {
                (true, None, _) => Reach::Chain(1),
                (false, None, _) => Reach::Dead,
                (false, Some(&s), None) => match reach[s] {
                    Reach::Chain(m) => Reach::Chain(m.saturating_mul(u64::from(tiers[s].count))),
                    _ => Reach::Branches,
                },
                _ => Reach::Branches,
            };
        }
        let mut walk = Walk {
            succ: &self.succ,
            tiers,
            values: &values,
            reach: &reach,
            max_paths: config.max_paths,
            fold: PathFold::new(),
        };
        for e in (0..tiers.len()).filter(|&e| tiers[e].entry && reach[e] != Reach::Dead) {
            let prefix = extend(empty_prefix(), walk.value(e));
            if !walk.replicas(e, prefix, 1) {
                break;
            }
        }
        let exploitable_vulnerabilities = tiers
            .iter()
            .filter_map(|t| Some(t.count as usize * t.tree?.leaf_count()))
            .sum();
        let entry_points = tiers
            .iter()
            .filter(|t| t.entry && t.tree.is_some())
            .map(|t| t.count as usize)
            .sum();
        walk.fold
            .finish(config, None, exploitable_vulnerabilities, entry_points)
    }
}

/// The paths that one replica of a tier starts.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Reach {
    /// None: the tier is not exploitable, or leads to no target.
    Dead,
    /// `m` copies of one tier path, a chain to one target.
    Chain(u64),
    /// Paths along more than one tier path: walked replica by replica.
    Branches,
}

/// The state of one [`TierDag::metrics`] walk. Every step returns
/// `false` once the walk has passed `max_paths`.
struct Walk<'a> {
    succ: &'a [Vec<usize>],
    tiers: &'a [ReplicatedTier<'a>],
    values: &'a [Option<(f64, f64)>],
    reach: &'a [Reach],
    max_paths: usize,
    fold: PathFold,
}

impl Walk<'_> {
    fn value(&self, t: usize) -> (f64, f64) {
        self.values[t].expect("tiers that reach a target are exploitable")
    }

    /// Folds the next `n` host paths, all with `prefix` over `len`
    /// hosts, up to `max_paths` in all.
    fn emit(&mut self, prefix: (f64, f64), len: usize, n: u64) -> bool {
        let room = (self.max_paths - self.fold.paths) as u64;
        let k = n.min(room);
        if k > 0 {
            self.fold.add(prefix, len, k as usize);
        }
        k == n
    }

    /// The replicas of tier `t`, each reached by the path `prefix` over
    /// `len` hosts (one replica of `t` included).
    fn replicas(&mut self, t: usize, prefix: (f64, f64), len: usize) -> bool {
        let count = self.tiers[t].count;
        let Reach::Chain(m) = self.reach[t] else {
            return (0..count).all(|_| self.through(t, prefix, len));
        };
        let (mut at, mut prefix, mut len) = (t, prefix, len);
        while !self.tiers[at].target {
            at = *self.succ[at]
                .iter()
                .find(|&&s| self.reach[s] != Reach::Dead)
                .expect("a chain leads on to its target");
            prefix = extend(prefix, self.value(at));
            len += 1;
        }
        self.emit(prefix, len, m.saturating_mul(u64::from(count)))
    }

    /// The paths through one replica of `t`, reached by `prefix`: the
    /// path itself when `t` is a target, then the replicas of each
    /// successor tier that reaches a target, in successor order.
    fn through(&mut self, t: usize, prefix: (f64, f64), len: usize) -> bool {
        if self.tiers[t].target && !self.emit(prefix, len, 1) {
            return false;
        }
        let (succ, reach) = (self.succ, self.reach);
        succ[t]
            .iter()
            .filter(|&&s| reach[s] != Reach::Dead)
            .all(|&s| {
                let next = extend(prefix, self.value(s));
                self.replicas(s, next, len + 1)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn successors_dedupe_in_first_insertion_order() {
        let dag = TierDag::new(3, &[(0, 2), (0, 1), (0, 2), (1, 2)]).expect("acyclic");
        assert_eq!(dag.succ, vec![vec![2, 1], vec![2], vec![]]);
        // Every tier comes after all of its successors.
        assert_eq!(dag.reverse_topological, vec![2, 1, 0]);
    }

    #[test]
    fn cycles_and_self_edges_have_no_dag() {
        assert!(TierDag::new(3, &[(0, 1), (1, 2), (2, 0)]).is_none());
        assert!(TierDag::new(2, &[(0, 1), (1, 1)]).is_none());
        assert!(TierDag::new(1, &[]).is_some());
    }
}
