//! The two-layer HARM and its metric evaluation.

use std::sync::Arc;

use crate::graph::{AttackGraph, HostId, PathVisitor};
use crate::metrics::{
    empty_prefix, extend, AspStrategy, MetricsConfig, OrCombine, PathFold, SecurityMetrics,
};
use crate::tree::AttackTree;
use crate::vuln::Vulnerability;

/// One enumerated attack path with its aggregated impact and probability.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackPath {
    /// The hosts along the path (entry first, target last).
    pub hosts: Vec<HostId>,
    /// `aim_ap` — sum of host impacts.
    pub impact: f64,
    /// `asp_ap` — product of host success probabilities.
    pub probability: f64,
}

/// A two-layer hierarchical attack representation model: an upper-layer
/// [`AttackGraph`] plus one lower-layer [`AttackTree`] per host.
///
/// Hosts whose tree is `None` (no exploitable vulnerability) are treated as
/// non-traversable, exactly like the paper's post-patch DNS server.
///
/// The graph, the targets and the trees are shared behind [`Arc`]s: a
/// [`patched`](Self::patched) model reuses the graph and the targets,
/// and hosts built from one tree (the replicas of a tier, see
/// [`from_shared`](Self::from_shared)) hold one copy of it.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug, Clone)]
pub struct Harm {
    graph: Arc<AttackGraph>,
    trees: Vec<Option<Arc<AttackTree>>>,
    targets: Arc<[HostId]>,
}

impl Harm {
    /// Hosts-on-paths limit above which [`AspStrategy::Reliability`] falls
    /// back to [`AspStrategy::NoisyOrPaths`].
    pub const RELIABILITY_HOST_LIMIT: usize = 22;

    /// Assembles a HARM.
    ///
    /// # Panics
    ///
    /// Panics when `trees.len()` differs from the graph's host count, when
    /// `targets` is empty or contains a foreign id (model-construction
    /// errors).
    pub fn new(graph: AttackGraph, trees: Vec<Option<AttackTree>>, targets: Vec<HostId>) -> Self {
        let trees = trees.into_iter().map(|t| t.map(Arc::new)).collect();
        Self::from_shared(graph, trees, targets)
    }

    /// Assembles a HARM whose hosts may share attack trees: hosts handed
    /// clones of one [`Arc`] (replicated servers) are evaluated and
    /// patched once per call instead of once per host. The metrics are
    /// exactly those of [`new`](Self::new) with each tree cloned per host.
    ///
    /// # Panics
    ///
    /// As [`new`](Self::new).
    pub fn from_shared(
        graph: AttackGraph,
        trees: Vec<Option<Arc<AttackTree>>>,
        targets: Vec<HostId>,
    ) -> Self {
        assert_eq!(
            trees.len(),
            graph.host_count(),
            "one attack tree slot per host required"
        );
        assert!(!targets.is_empty(), "at least one target required");
        for t in &targets {
            assert!(t.index() < graph.host_count(), "unknown target host");
        }
        Harm {
            graph: Arc::new(graph),
            trees,
            targets: targets.into(),
        }
    }

    /// The upper-layer attack graph.
    pub fn graph(&self) -> &AttackGraph {
        &self.graph
    }

    /// The attack tree of a host (`None` = not exploitable).
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn tree(&self, h: HostId) -> Option<&AttackTree> {
        self.trees[h.index()].as_deref()
    }

    /// The attack targets.
    pub fn targets(&self) -> &[HostId] {
        &self.targets
    }

    /// Whether a host is exploitable (has a live attack tree).
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn is_exploitable(&self, h: HostId) -> bool {
        self.trees[h.index()].is_some()
    }

    /// A new HARM with every vulnerability matching `patched` removed and
    /// the trees pruned (the paper's "after patch" model).
    ///
    /// # Examples
    ///
    /// ```
    /// use redeval_harm::{AttackGraph, AttackTree, Harm, Vulnerability};
    ///
    /// let mut g = AttackGraph::new();
    /// let h = g.add_host("host");
    /// g.add_entry(h);
    /// let tree = AttackTree::leaf(Vulnerability::new("CVE", 10.0, 1.0));
    /// let harm = Harm::new(g, vec![Some(tree)], vec![h]);
    /// let after = harm.patched(&|v| v.is_critical(8.0));
    /// assert!(!after.is_exploitable(h));
    /// ```
    pub fn patched(&self, patched: &dyn Fn(&Vulnerability) -> bool) -> Harm {
        // Each distinct tree is pruned once; hosts that shared it share
        // the pruned tree.
        let mut pruned: Vec<(&Arc<AttackTree>, Option<Arc<AttackTree>>)> = Vec::new();
        let trees = self
            .trees
            .iter()
            .map(|t| {
                let tree = t.as_ref()?;
                if let Some((_, done)) = pruned.iter().find(|(k, _)| Arc::ptr_eq(k, tree)) {
                    return done.clone();
                }
                let done = tree.without(patched).map(Arc::new);
                pruned.push((tree, done.clone()));
                done
            })
            .collect();
        Harm {
            graph: Arc::clone(&self.graph),
            trees,
            targets: Arc::clone(&self.targets),
        }
    }

    /// Convenience for the paper's policy: patch every vulnerability whose
    /// CVSS base score strictly exceeds `threshold`.
    pub fn patched_critical(&self, threshold: f64) -> Harm {
        self.patched(&move |v: &Vulnerability| v.is_critical(threshold))
    }

    /// Enumerates the attack paths with their impact/probability values.
    ///
    /// Returns `None` when more than `config.max_paths` paths exist.
    pub fn attack_paths(&self, config: &MetricsConfig) -> Option<Vec<AttackPath>> {
        let (paths, truncated) = self.attack_paths_truncated(config);
        if truncated {
            None
        } else {
            Some(paths)
        }
    }

    /// Like [`attack_paths`](Self::attack_paths) but keeps the first
    /// `config.max_paths` paths on overflow, flagged with `truncated`.
    pub fn attack_paths_truncated(&self, config: &MetricsConfig) -> (Vec<AttackPath>, bool) {
        let values = self.host_values(config.or_combine);
        let (raw, truncated) = self.graph.simple_paths_truncated(
            &self.targets,
            &|h| values[h.index()].is_some(),
            config.max_paths,
        );
        let value = |h: &HostId| values[h.index()].expect("paths pass exploitable hosts");
        let paths = raw
            .into_iter()
            .map(|hosts| AttackPath {
                impact: hosts.iter().map(|h| value(h).0).sum(),
                probability: hosts.iter().map(|h| value(h).1).product(),
                hosts,
            })
            .collect();
        (paths, truncated)
    }

    /// Each host's `(impact, probability)` under `combine`, `None` for a
    /// host that is not exploitable. A tree shared by consecutive hosts
    /// (the replicas of a tier) is evaluated once.
    fn host_values(&self, combine: OrCombine) -> Vec<Option<(f64, f64)>> {
        let mut last: Option<(&Arc<AttackTree>, (f64, f64))> = None;
        self.trees
            .iter()
            .map(|t| {
                let tree = t.as_ref()?;
                match last {
                    Some((prev, value)) if Arc::ptr_eq(prev, tree) => Some(value),
                    _ => {
                        let value = (tree.impact(), tree.probability(combine));
                        last = Some((tree, value));
                        Some(value)
                    }
                }
            })
            .collect()
    }

    /// Number of entry points: attacker-reachable hosts that are
    /// exploitable.
    pub fn entry_points(&self) -> usize {
        self.graph
            .entries()
            .iter()
            .filter(|h| self.trees[h.index()].is_some())
            .count()
    }

    /// Total number of exploitable vulnerabilities over all hosts
    /// (the paper's `NoEV`).
    pub fn exploitable_vulnerabilities(&self) -> usize {
        self.trees
            .iter()
            .filter_map(|t| t.as_deref())
            .map(AttackTree::leaf_count)
            .sum()
    }

    /// Computes the full metric suite.
    ///
    /// When path enumeration overflows `config.max_paths`, path-based
    /// metrics saturate: `attack_paths` reports the cap and AIM/ASP/risk
    /// are computed over the enumerated prefix (a lower bound).
    ///
    /// One walk computes every metric without storing a path: each
    /// path's impact sum and probability product grow host by host along
    /// the walk, and the network metrics fold over the paths in walk
    /// order with the same start values — bit for bit what folding the
    /// enumerated [`attack_paths`](Self::attack_paths) gives.
    pub fn metrics(&self, config: &MetricsConfig) -> SecurityMetrics {
        let values = self.host_values(config.or_combine);
        let mut walk = HostWalk::new(&values, config.asp == AspStrategy::Reliability);
        self.graph.walk_paths(
            &self.graph.target_mask(&self.targets),
            |h| values[h.index()].is_some(),
            config.max_paths,
            &mut walk,
        );
        let reliability = walk.reliability.and_then(|r| r.asp(&values));
        walk.fold.finish(
            config,
            reliability,
            self.exploitable_vulnerabilities(),
            self.entry_points(),
        )
    }

    /// Ranks exploitable hosts by their contribution to the network attack
    /// success probability: for each host, the drop in ASP when that host
    /// is hardened (made non-exploitable).
    ///
    /// This is the security analogue of a component-importance measure and
    /// directly answers the redundancy-design question "which server most
    /// enables attacks?". Hosts are returned with their ΔASP, sorted
    /// descending.
    ///
    /// # Examples
    ///
    /// ```
    /// use redeval_harm::{AttackGraph, AttackTree, Harm, MetricsConfig, Vulnerability};
    ///
    /// let mut g = AttackGraph::new();
    /// let web = g.add_host("web");
    /// let db = g.add_host("db");
    /// g.add_entry(web);
    /// g.add_edge(web, db);
    /// let leaf = |p| Some(AttackTree::leaf(Vulnerability::new("v", 5.0, p)));
    /// let harm = Harm::new(g, vec![leaf(0.9), leaf(0.5)], vec![db]);
    /// let ranked = harm.host_importance(&MetricsConfig::default());
    /// // Hardening either host on a single chain kills the only path.
    /// assert_eq!(ranked.len(), 2);
    /// assert!(ranked[0].1 > 0.0);
    /// ```
    pub fn host_importance(&self, config: &MetricsConfig) -> Vec<(HostId, f64)> {
        let base = self.metrics(config).attack_success_probability;
        let mut out: Vec<(HostId, f64)> = self
            .graph
            .hosts()
            .filter(|&h| self.is_exploitable(h))
            .map(|h| {
                let mut hardened = self.clone();
                hardened.trees[h.index()] = None;
                let asp = hardened.metrics(config).attack_success_probability;
                (h, base - asp)
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite deltas"));
        out
    }

    /// Ranks vulnerabilities by their contribution to the network ASP:
    /// for each distinct vulnerability id, the ASP drop when that id is
    /// patched **everywhere** (redundant servers share CVEs, and a patch
    /// is rolled out fleet-wide).
    ///
    /// Returned sorted descending by ΔASP.
    pub fn vulnerability_importance(&self, config: &MetricsConfig) -> Vec<(String, f64)> {
        let base = self.metrics(config).attack_success_probability;
        let mut ids: Vec<String> = Vec::new();
        for h in self.graph.hosts() {
            if let Some(tree) = self.tree(h) {
                for v in tree.vulnerabilities() {
                    if !ids.contains(&v.id) {
                        ids.push(v.id.clone());
                    }
                }
            }
        }
        let mut out: Vec<(String, f64)> = ids
            .into_iter()
            .map(|id| {
                let target = id.clone();
                let patched = self.patched(&move |v: &Vulnerability| v.id == target);
                let asp = patched.metrics(config).attack_success_probability;
                (id, base - asp)
            })
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite deltas"));
        out
    }

    /// Greedy patch-priority schedule: repeatedly patches the single
    /// vulnerability (fleet-wide) whose removal lowers the network ASP
    /// the most, up to `budget` patches or until the ASP reaches zero.
    ///
    /// Returns `(vulnerability id, network ASP after applying it)` in
    /// application order — a concrete answer to "which patches first?"
    /// when time does not allow patching everything.
    pub fn greedy_patch_order(&self, config: &MetricsConfig, budget: usize) -> Vec<(String, f64)> {
        let mut current = self.clone();
        let mut out = Vec::new();
        for _ in 0..budget {
            let ranked = current.vulnerability_importance(config);
            let Some((best, delta)) = ranked.into_iter().next() else {
                break;
            };
            // Stop when no patch helps (ASP already minimal).
            let base = current.metrics(config).attack_success_probability;
            if base == 0.0 {
                break;
            }
            let target = best.clone();
            current = current.patched(&move |v: &Vulnerability| v.id == target);
            let asp = base - delta;
            out.push((best, asp));
        }
        out
    }
}

/// The host walk's visitor: each path's prefix values, grown host by
/// host, feed one [`PathFold`] update per path.
struct HostWalk<'a> {
    values: &'a [Option<(f64, f64)>],
    /// Entry `d`: the impact sum and probability product of the current
    /// path's first `d + 1` hosts.
    prefix: Vec<(f64, f64)>,
    fold: PathFold,
    /// Collected only for [`AspStrategy::Reliability`].
    reliability: Option<ReliabilityMasks>,
}

impl<'a> HostWalk<'a> {
    fn new(values: &'a [Option<(f64, f64)>], reliability: bool) -> Self {
        HostWalk {
            values,
            prefix: Vec::with_capacity(values.len()),
            fold: PathFold::new(),
            reliability: reliability.then(|| ReliabilityMasks::new(values.len())),
        }
    }
}

impl PathVisitor for HostWalk<'_> {
    fn enter(&mut self, h: HostId) {
        let value = self.values[h.index()].expect("walks pass exploitable hosts");
        let prefix = self.prefix.last().copied().unwrap_or_else(empty_prefix);
        self.prefix.push(extend(prefix, value));
    }

    fn leave(&mut self) {
        self.prefix.pop();
    }

    fn target(&mut self, path: &[HostId]) {
        let prefix = *self.prefix.last().expect("a path is being walked");
        self.fold.add(prefix, path.len(), 1);
        if let Some(r) = &mut self.reliability {
            r.add(path);
        }
    }
}

/// The inputs of the exact reliability ASP: the hosts on attack paths in
/// first-seen order, and one bitmask of those hosts per path.
struct ReliabilityMasks {
    /// Each host's bit, once seen.
    bit: Vec<Option<u32>>,
    hosts: Vec<HostId>,
    masks: Vec<u32>,
    /// More than [`Harm::RELIABILITY_HOST_LIMIT`] hosts are on paths.
    over_limit: bool,
}

impl ReliabilityMasks {
    fn new(host_count: usize) -> Self {
        ReliabilityMasks {
            bit: vec![None; host_count],
            hosts: Vec::new(),
            masks: Vec::new(),
            over_limit: false,
        }
    }

    fn add(&mut self, path: &[HostId]) {
        if self.over_limit {
            return;
        }
        let mut mask = 0u32;
        for &h in path {
            let bit = match self.bit[h.index()] {
                Some(bit) => bit,
                None if self.hosts.len() == Harm::RELIABILITY_HOST_LIMIT => {
                    self.over_limit = true;
                    return;
                }
                None => {
                    let bit = self.hosts.len() as u32;
                    self.bit[h.index()] = Some(bit);
                    self.hosts.push(h);
                    bit
                }
            };
            mask |= 1 << bit;
        }
        self.masks.push(mask);
    }

    /// Exact probability that at least one path is fully compromised,
    /// treating host compromises as independent Bernoulli trials.
    ///
    /// Returns `None` when more than
    /// [`RELIABILITY_HOST_LIMIT`](Harm::RELIABILITY_HOST_LIMIT) hosts are
    /// involved.
    fn asp(&self, values: &[Option<(f64, f64)>]) -> Option<f64> {
        if self.over_limit {
            return None;
        }
        let probs: Vec<f64> = self
            .hosts
            .iter()
            .map(|h| values[h.index()].expect("exploitable").1)
            .collect();
        let mut total = 0.0;
        for subset in 0u32..(1u32 << probs.len()) {
            // P(subset of compromised hosts).
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
            if self.masks.iter().any(|&m| m & !subset == 0) {
                total += p;
            }
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::OrCombine;

    fn v(id: &str, impact: f64, prob: f64) -> AttackTree {
        AttackTree::leaf(Vulnerability::new(id, impact, prob))
    }

    /// Entry -> mid -> target with simple probabilities.
    fn chain() -> (Harm, HostId, HostId, HostId) {
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let b = g.add_host("b");
        let c = g.add_host("c");
        g.add_entry(a);
        g.add_edge(a, b);
        g.add_edge(b, c);
        let harm = Harm::new(
            g,
            vec![
                Some(v("va", 4.0, 0.5)),
                Some(v("vb", 5.0, 0.5)),
                Some(v("vc", 6.0, 0.5)),
            ],
            vec![c],
        );
        (harm, a, b, c)
    }

    #[test]
    fn chain_metrics() {
        let (harm, ..) = chain();
        let m = harm.metrics(&MetricsConfig::default());
        assert_eq!(m.attack_paths, 1);
        assert_eq!(m.entry_points, 1);
        assert_eq!(m.exploitable_vulnerabilities, 3);
        assert!((m.attack_impact - 15.0).abs() < 1e-12);
        assert!((m.attack_success_probability - 0.125).abs() < 1e-12);
        assert_eq!(m.shortest_path_length, Some(3));
        assert!((m.risk - 15.0 * 0.125).abs() < 1e-12);
    }

    #[test]
    fn patching_middle_host_kills_path() {
        let (harm, _a, _b, _c) = chain();
        let after = harm.patched(&|vu| vu.id == "vb");
        let m = after.metrics(&MetricsConfig::default());
        assert_eq!(m.attack_paths, 0);
        assert_eq!(m.attack_impact, 0.0);
        assert_eq!(m.attack_success_probability, 0.0);
        assert_eq!(m.exploitable_vulnerabilities, 2);
        assert_eq!(m.shortest_path_length, None);
    }

    /// Two parallel two-hop paths sharing the target.
    fn diamond(p_mid: f64, p_tgt: f64) -> Harm {
        let mut g = AttackGraph::new();
        let m1 = g.add_host("m1");
        let m2 = g.add_host("m2");
        let t = g.add_host("t");
        g.add_entry(m1);
        g.add_entry(m2);
        g.add_edge(m1, t);
        g.add_edge(m2, t);
        Harm::new(
            g,
            vec![
                Some(v("v1", 1.0, p_mid)),
                Some(v("v2", 1.0, p_mid)),
                Some(v("vt", 1.0, p_tgt)),
            ],
            vec![t],
        )
    }

    #[test]
    fn asp_strategies_ordering() {
        let harm = diamond(0.5, 0.5);
        let base = MetricsConfig::default();
        let max = harm
            .metrics(&MetricsConfig {
                asp: AspStrategy::MaxPath,
                ..base
            })
            .attack_success_probability;
        let nor = harm
            .metrics(&MetricsConfig {
                asp: AspStrategy::NoisyOrPaths,
                ..base
            })
            .attack_success_probability;
        let rel = harm
            .metrics(&MetricsConfig {
                asp: AspStrategy::Reliability,
                ..base
            })
            .attack_success_probability;
        // Path prob = 0.25 each.
        assert!((max - 0.25).abs() < 1e-12);
        assert!((nor - (1.0 - 0.75 * 0.75)).abs() < 1e-12);
        // Exact: target AND (m1 OR m2) = 0.5 * 0.75.
        assert!((rel - 0.375).abs() < 1e-12);
        assert!(max <= rel && rel <= nor + 1e-12);
    }

    #[test]
    fn reliability_equals_noisy_or_for_disjoint_paths() {
        // Paths share no hosts: independence makes both formulas equal...
        // except NoisyOrPaths *is* exact for fully disjoint paths.
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let b = g.add_host("b");
        g.add_entry(a);
        g.add_entry(b);
        let harm = Harm::new(
            g,
            vec![Some(v("va", 1.0, 0.3)), Some(v("vb", 1.0, 0.4))],
            vec![a, b],
        );
        let nor = harm
            .metrics(&MetricsConfig {
                asp: AspStrategy::NoisyOrPaths,
                ..Default::default()
            })
            .attack_success_probability;
        let rel = harm
            .metrics(&MetricsConfig {
                asp: AspStrategy::Reliability,
                ..Default::default()
            })
            .attack_success_probability;
        assert!((nor - rel).abs() < 1e-12);
        assert!((rel - (1.0 - 0.7 * 0.6)).abs() < 1e-12);
    }

    #[test]
    fn entry_points_require_exploitability() {
        let (harm, _a, _b, _c) = chain();
        assert_eq!(harm.entry_points(), 1);
        let after = harm.patched(&|vu| vu.id == "va");
        assert_eq!(after.entry_points(), 0);
    }

    #[test]
    fn or_combine_propagates_to_paths() {
        // Host with two 0.5-vulns: Max -> 0.5, NoisyOr -> 0.75.
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        g.add_entry(a);
        let tree = AttackTree::or(vec![v("x", 1.0, 0.5), v("y", 1.0, 0.5)]);
        let harm = Harm::new(g, vec![Some(tree)], vec![a]);
        let m_max = harm.metrics(&MetricsConfig {
            or_combine: OrCombine::Max,
            asp: AspStrategy::MaxPath,
            ..Default::default()
        });
        let m_nor = harm.metrics(&MetricsConfig {
            or_combine: OrCombine::NoisyOr,
            asp: AspStrategy::MaxPath,
            ..Default::default()
        });
        assert!((m_max.attack_success_probability - 0.5).abs() < 1e-12);
        assert!((m_nor.attack_success_probability - 0.75).abs() < 1e-12);
    }

    #[test]
    fn host_importance_ranks_bottleneck_highest() {
        // Two parallel mids feeding one target: the target is the
        // bottleneck — hardening it kills everything, hardening one mid
        // only halves the options.
        let harm = diamond(0.5, 0.5);
        let ranked = harm.host_importance(&MetricsConfig::default());
        assert_eq!(ranked.len(), 3);
        let target_name = harm.graph().host_name(ranked[0].0).to_string();
        assert_eq!(target_name, "t");
        // Hardening the target removes all paths: ΔASP = full ASP.
        let full = harm
            .metrics(&MetricsConfig::default())
            .attack_success_probability;
        assert!((ranked[0].1 - full).abs() < 1e-12);
        // Mids tie and contribute less.
        assert!((ranked[1].1 - ranked[2].1).abs() < 1e-12);
        assert!(ranked[1].1 < ranked[0].1);
    }

    #[test]
    fn host_importance_is_zero_off_path() {
        // A host not on any attack path has zero importance.
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let t = g.add_host("t");
        let stray = g.add_host("stray");
        g.add_entry(a);
        g.add_edge(a, t);
        g.add_edge(t, stray); // beyond the target
        let harm = Harm::new(
            g,
            vec![
                Some(v("va", 1.0, 0.5)),
                Some(v("vt", 1.0, 0.5)),
                Some(v("vs", 1.0, 0.9)),
            ],
            vec![t],
        );
        let ranked = harm.host_importance(&MetricsConfig::default());
        let stray_delta = ranked.iter().find(|(h, _)| *h == stray).unwrap().1;
        assert_eq!(stray_delta, 0.0);
    }

    #[test]
    fn vulnerability_importance_targets_choke_point() {
        let (harm, ..) = chain();
        let ranked = harm.vulnerability_importance(&MetricsConfig::default());
        assert_eq!(ranked.len(), 3);
        // On a single chain, patching any host's only vuln kills the path:
        // all three tie at ΔASP = full ASP.
        let full = harm
            .metrics(&MetricsConfig::default())
            .attack_success_probability;
        for (_, delta) in &ranked {
            assert!((delta - full).abs() < 1e-12);
        }
    }

    #[test]
    fn greedy_patch_order_drives_asp_to_zero() {
        let harm = diamond(0.8, 0.9);
        let order = harm.greedy_patch_order(&MetricsConfig::default(), 10);
        assert!(!order.is_empty());
        // First pick is the target's vulnerability (kills everything).
        assert_eq!(order[0].0, "vt");
        assert_eq!(order[0].1, 0.0);
        assert_eq!(order.len(), 1); // no further patch needed
    }

    #[test]
    fn greedy_patch_order_respects_budget() {
        // Two disjoint entry->target chains: two patches needed, budget 1.
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let b = g.add_host("b");
        g.add_entry(a);
        g.add_entry(b);
        let harm = Harm::new(
            g,
            vec![Some(v("va", 1.0, 0.9)), Some(v("vb", 1.0, 0.4))],
            vec![a, b],
        );
        let order = harm.greedy_patch_order(&MetricsConfig::default(), 1);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].0, "va"); // the likelier chain first
        assert!(order[0].1 > 0.0); // vb still exploitable
        let full = harm.greedy_patch_order(&MetricsConfig::default(), 5);
        assert_eq!(full.len(), 2);
        assert_eq!(full[1].1, 0.0);
    }

    #[test]
    fn shared_cve_patched_fleet_wide() {
        // The same CVE id on two hosts: one "patch" removes both.
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let b = g.add_host("b");
        g.add_entry(a);
        g.add_entry(b);
        let harm = Harm::new(
            g,
            vec![Some(v("CVE-SAME", 1.0, 0.5)), Some(v("CVE-SAME", 1.0, 0.5))],
            vec![a, b],
        );
        let order = harm.greedy_patch_order(&MetricsConfig::default(), 5);
        assert_eq!(order.len(), 1);
        assert_eq!(order[0].1, 0.0);
    }

    #[test]
    #[should_panic(expected = "one attack tree slot per host")]
    fn tree_count_mismatch_panics() {
        let mut g = AttackGraph::new();
        let a = g.add_host("a");
        let _ = Harm::new(g, vec![], vec![a]);
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn empty_targets_panics() {
        let mut g = AttackGraph::new();
        let _a = g.add_host("a");
        let _ = Harm::new(g, vec![None], vec![]);
    }
}
