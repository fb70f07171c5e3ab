//! Network specifications: the phase-1 inputs of the paper's approach.

use std::fmt::Write as _;
use std::sync::Arc;

use redeval_avail::{NetworkModel, ServerParams, Tier};
use redeval_harm::{AttackGraph, AttackTree, Harm, TierDag};
use redeval_srn::SrnError;

use crate::error::SpecIssue;
use crate::EvalError;

/// One tier of identical servers (the paper uses identical redundant
/// servers throughout).
#[derive(Debug, Clone)]
pub struct TierSpec {
    /// Tier name (`"dns"`, `"web"`, …).
    pub name: String,
    /// Number of redundant servers in this tier.
    pub count: u32,
    /// Failure/recovery/patch rates of each server (Table IV).
    pub params: ServerParams,
    /// The per-server attack tree (Table I); `None` when the servers carry
    /// no exploitable vulnerabilities.
    pub tree: Option<AttackTree>,
    /// Whether the external attacker reaches this tier directly.
    pub entry: bool,
    /// Whether compromising a server of this tier achieves the attack goal.
    pub target: bool,
}

/// A named redundancy design: per-tier server counts applied to a base
/// specification.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Human-readable name, e.g. `"2 DNS + 1 WEB + 1 APP + 1 DB"`.
    pub name: String,
    /// Per-tier counts, aligned with the base spec's tiers.
    pub counts: Vec<u32>,
}

impl Design {
    /// Creates a design.
    pub fn new(name: impl Into<String>, counts: Vec<u32>) -> Self {
        Design {
            name: name.into(),
            counts,
        }
    }

    /// The conventional name `"a DNS + b WEB + c APP + d DB"` style, from
    /// tier names, written into one string. Upper-casing char by char
    /// gives the bytes of `str::to_uppercase`.
    pub fn conventional_name(tier_names: &[&str], counts: &[u32]) -> String {
        // Per tier: the name, a count of up to 10 digits, a space and
        // the ` + ` separator.
        let mut name =
            String::with_capacity(tier_names.iter().map(|n| n.len() + 14).sum::<usize>());
        for (i, (n, c)) in tier_names.iter().zip(counts).enumerate() {
            if i > 0 {
                name.push_str(" + ");
            }
            let _ = write!(name, "{c} ");
            name.extend(n.chars().flat_map(char::to_uppercase));
        }
        name
    }
}

/// A complete enterprise-network specification: tiers plus tier-level
/// reachability.
///
/// # Examples
///
/// ```
/// use redeval::{NetworkSpec, TierSpec, ServerParams, AttackTree, Vulnerability};
///
/// let spec = NetworkSpec::new(
///     vec![
///         TierSpec {
///             name: "web".into(),
///             count: 2,
///             params: ServerParams::builder("web").build(),
///             tree: Some(AttackTree::leaf(Vulnerability::new("CVE-A", 10.0, 1.0))),
///             entry: true,
///             target: false,
///         },
///         TierSpec {
///             name: "db".into(),
///             count: 1,
///             params: ServerParams::builder("db").build(),
///             tree: Some(AttackTree::leaf(Vulnerability::new("CVE-B", 10.0, 0.5))),
///             entry: false,
///             target: true,
///         },
///     ],
///     vec![(0, 1)],
/// );
/// let harm = spec.build_harm();
/// assert_eq!(harm.graph().host_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct NetworkSpec {
    tiers: Vec<TierSpec>,
    /// Tier-level reachability `(from, to)`; expanded to full bipartite
    /// host edges.
    edges: Vec<(usize, usize)>,
    /// The tier graph, recorded once; `None` when it has a cycle.
    tier_dag: Option<TierDag>,
}

impl NetworkSpec {
    /// Creates a specification, validating its structure.
    ///
    /// This is the fallible front door used by everything that accepts
    /// *data* (scenario files, future config surfaces); [`new`](Self::new)
    /// stays as a thin panicking wrapper for programmatic construction in
    /// tests and examples.
    ///
    /// # Errors
    ///
    /// [`EvalError::InvalidSpec`] when `tiers` is empty, an edge index is
    /// out of range, no tier is marked `target`, or no tier is marked
    /// `entry`.
    pub fn try_new(tiers: Vec<TierSpec>, edges: Vec<(usize, usize)>) -> Result<Self, EvalError> {
        if tiers.is_empty() {
            return Err(SpecIssue::EmptyTiers.into());
        }
        for &(a, b) in &edges {
            if a >= tiers.len() || b >= tiers.len() {
                return Err(SpecIssue::EdgeOutOfRange {
                    from: a,
                    to: b,
                    tiers: tiers.len(),
                }
                .into());
            }
            // The attack graph asserts against self edges; catch them
            // here so data-driven callers get an error, not a panic.
            if a == b {
                return Err(SpecIssue::SelfEdge { tier: a }.into());
            }
        }
        if !tiers.iter().any(|t| t.target) {
            return Err(SpecIssue::NoTargetTier.into());
        }
        if !tiers.iter().any(|t| t.entry) {
            return Err(SpecIssue::NoEntryTier.into());
        }
        let tier_dag = TierDag::new(tiers.len(), &edges);
        Ok(NetworkSpec {
            tiers,
            edges,
            tier_dag,
        })
    }

    /// Creates a specification.
    ///
    /// # Panics
    ///
    /// Panics when `tiers` is empty, an edge index is out of range, no
    /// tier is marked `target`, or no tier is marked `entry` — the
    /// validation of [`try_new`](Self::try_new), with the [`SpecIssue`]
    /// message as the panic payload.
    pub fn new(tiers: Vec<TierSpec>, edges: Vec<(usize, usize)>) -> Self {
        match Self::try_new(tiers, edges) {
            Ok(spec) => spec,
            Err(EvalError::InvalidSpec(issue)) => panic!("{issue}"),
            Err(e) => panic!("{e}"),
        }
    }

    /// The tiers.
    pub fn tiers(&self) -> &[TierSpec] {
        &self.tiers
    }

    /// Tier-level edges.
    pub fn edges(&self) -> &[(usize, usize)] {
        &self.edges
    }

    /// The tier graph when it is acyclic, `None` when it has a cycle.
    /// The evaluation kernel walks it instead of the host graph that
    /// [`build_harm`](Self::build_harm) expands.
    pub fn tier_dag(&self) -> Option<&TierDag> {
        self.tier_dag.as_ref()
    }

    /// Total servers over all tiers.
    pub fn total_servers(&self) -> u32 {
        self.tiers.iter().map(|t| t.count).sum()
    }

    /// A copy with different per-tier counts (a redundancy design applied).
    ///
    /// # Errors
    ///
    /// [`EvalError::CountMismatch`]/[`EvalError::ZeroServers`] for invalid
    /// designs.
    pub fn with_counts(&self, counts: &[u32]) -> Result<NetworkSpec, EvalError> {
        self.check_counts(counts)?;
        let mut out = self.clone();
        for (t, &c) in out.tiers.iter_mut().zip(counts) {
            t.count = c;
        }
        Ok(out)
    }

    /// The validation of [`with_counts`](Self::with_counts), without the
    /// copy.
    pub(crate) fn check_counts(&self, counts: &[u32]) -> Result<(), EvalError> {
        if counts.len() != self.tiers.len() {
            return Err(EvalError::CountMismatch {
                expected: self.tiers.len(),
                got: counts.len(),
            });
        }
        match self.tiers.iter().zip(counts).find(|(_, &c)| c == 0) {
            Some((t, _)) => Err(EvalError::ZeroServers {
                tier: t.name.clone(),
            }),
            None => Ok(()),
        }
    }

    /// The current per-tier counts.
    fn counts(&self) -> Vec<u32> {
        self.tiers.iter().map(|t| t.count).collect()
    }

    /// Indices of the tiers marked `entry`, in tier order — the
    /// coordinate system of attacker entry masks
    /// ([`with_entry_tiers`](Self::with_entry_tiers)).
    pub fn entry_tiers(&self) -> Vec<usize> {
        self.tiers
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.entry.then_some(i))
            .collect()
    }

    /// A copy keeping only the entry tiers selected by `mask` (one slot
    /// per entry tier, in [`entry_tiers`](Self::entry_tiers) order);
    /// everything else — counts, params, trees, targets, edges — is
    /// untouched.
    ///
    /// This is how the equilibrium's players mask entry points: the
    /// defender searches the masked spec's designs and the attacker
    /// scores each candidate mask as a masked spec, both through the
    /// evaluation kernel. `build_harm` adds hosts for every tier
    /// regardless of entry flags, so the masked spec's HARM differs from
    /// the full one only in its entry list: the hosts of the kept tiers.
    ///
    /// # Errors
    ///
    /// [`EvalError::InvalidSpec`] ([`SpecIssue::NoEntryTier`]) when the
    /// mask deselects every entry tier.
    ///
    /// # Panics
    ///
    /// Panics when `mask.len()` differs from the number of entry tiers.
    pub fn with_entry_tiers(&self, mask: &[bool]) -> Result<NetworkSpec, EvalError> {
        let out = self.clone();
        let (mut tiers, edges) = (out.tiers, out.edges);
        let mut slots = mask.iter();
        for t in &mut tiers {
            if t.entry {
                let keep = slots.next().expect("one mask slot per entry tier required");
                t.entry = *keep;
            }
        }
        assert!(
            slots.next().is_none(),
            "one mask slot per entry tier required"
        );
        Self::try_new(tiers, edges)
    }

    /// Builds the two-layer HARM of this network: each tier expands to
    /// `count` identical hosts named `name1, name2, …`; tier edges expand
    /// to full bipartite host edges; all servers of target tiers become
    /// attack targets.
    pub fn build_harm(&self) -> Harm {
        self.harm_for(&self.counts())
    }

    /// [`build_harm`](Self::build_harm) for the design `counts` (already
    /// checked) instead of the spec's own counts. The hosts of a tier
    /// share one attack tree.
    pub(crate) fn harm_for(&self, counts: &[u32]) -> Harm {
        let mut g = AttackGraph::new();
        let mut hosts: Vec<Vec<redeval_harm::HostId>> = Vec::with_capacity(self.tiers.len());
        let mut trees = Vec::new();
        for (t, &count) in self.tiers.iter().zip(counts) {
            let tree = t.tree.clone().map(Arc::new);
            let mut tier_hosts = Vec::with_capacity(count as usize);
            for i in 1..=count {
                let h = g.add_host(format!("{}{}", t.name, i));
                tier_hosts.push(h);
                trees.push(tree.clone());
            }
            hosts.push(tier_hosts);
        }
        for (ti, t) in self.tiers.iter().enumerate() {
            if t.entry {
                for &h in &hosts[ti] {
                    g.add_entry(h);
                }
            }
        }
        for &(a, b) in &self.edges {
            for &ha in &hosts[a] {
                for &hb in &hosts[b] {
                    g.add_edge(ha, hb);
                }
            }
        }
        let mut targets = Vec::new();
        for (ti, t) in self.tiers.iter().enumerate() {
            if t.target {
                targets.extend_from_slice(&hosts[ti]);
            }
        }
        Harm::from_shared(g, trees, targets)
    }

    /// Solves each tier's lower-layer server SRN and aggregates it
    /// (Equations (1),(2)). Count-independent: do this once per base spec.
    ///
    /// # Errors
    ///
    /// Propagates SRN errors.
    pub fn tier_analyses(&self) -> Result<Vec<redeval_avail::ServerAnalysis>, SrnError> {
        self.tiers.iter().map(|t| t.params.analyze()).collect()
    }

    /// Builds the upper-layer availability model from pre-computed tier
    /// analyses.
    ///
    /// Accepts any analysis container that borrows a
    /// [`ServerAnalysis`](redeval_avail::ServerAnalysis) — plain values or
    /// the shared `Arc`s handed out by
    /// [`exec::AnalysisCache`](crate::exec::AnalysisCache).
    ///
    /// # Panics
    ///
    /// Panics when `analyses.len()` differs from the tier count.
    pub fn network_model<A>(&self, analyses: &[A]) -> NetworkModel
    where
        A: std::borrow::Borrow<redeval_avail::ServerAnalysis>,
    {
        assert_eq!(analyses.len(), self.tiers.len(), "one analysis per tier");
        NetworkModel::new(
            self.tiers
                .iter()
                .zip(analyses)
                .map(|(t, a)| Tier::new(t.name.clone(), t.count, a.borrow().rates()))
                .collect(),
        )
    }

    /// A copy with every tier's patch interval replaced (the patch-window
    /// sweeps of the paper's Section V).
    pub fn with_patch_interval(&self, interval: redeval_avail::Durations) -> NetworkSpec {
        let mut out = self.clone();
        for t in &mut out.tiers {
            t.params.patch_interval = interval;
        }
        out
    }

    /// Enumerates all designs whose per-tier counts range over
    /// `1..=max_redundancy`, in lexicographic order (the design-space
    /// search of `redeval design-space`).
    pub fn enumerate_designs(&self, max_redundancy: u32) -> Vec<Design> {
        let names: Vec<&str> = self.tiers.iter().map(|t| t.name.as_str()).collect();
        let k = self.tiers.len();
        let mut counts = vec![1u32; k];
        let mut out = Vec::new();
        loop {
            out.push(Design::new(
                Design::conventional_name(&names, &counts),
                counts.clone(),
            ));
            // Mixed-radix increment over 1..=max.
            let mut i = 0;
            loop {
                if i == k {
                    return out;
                }
                if counts[i] < max_redundancy {
                    counts[i] += 1;
                    break;
                }
                counts[i] = 1;
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval_harm::{MetricsConfig, Vulnerability};

    fn tiny_spec() -> NetworkSpec {
        NetworkSpec::new(
            vec![
                TierSpec {
                    name: "web".into(),
                    count: 2,
                    params: ServerParams::builder("web").build(),
                    tree: Some(AttackTree::leaf(Vulnerability::new("a", 10.0, 0.5))),
                    entry: true,
                    target: false,
                },
                TierSpec {
                    name: "db".into(),
                    count: 1,
                    params: ServerParams::builder("db").build(),
                    tree: Some(AttackTree::leaf(Vulnerability::new("b", 10.0, 0.5))),
                    entry: false,
                    target: true,
                },
            ],
            vec![(0, 1)],
        )
    }

    #[test]
    fn harm_expansion_counts_hosts_and_paths() {
        let harm = tiny_spec().build_harm();
        assert_eq!(harm.graph().host_count(), 3);
        let m = harm.metrics(&MetricsConfig::default());
        assert_eq!(m.attack_paths, 2);
        assert_eq!(m.entry_points, 2);
        assert_eq!(m.exploitable_vulnerabilities, 3);
    }

    #[test]
    fn with_counts_validates() {
        let spec = tiny_spec();
        assert!(matches!(
            spec.with_counts(&[1]),
            Err(EvalError::CountMismatch { .. })
        ));
        assert!(matches!(
            spec.with_counts(&[1, 0]),
            Err(EvalError::ZeroServers { .. })
        ));
        let d = spec.with_counts(&[3, 2]).unwrap();
        assert_eq!(d.total_servers(), 5);
    }

    #[test]
    fn enumerate_designs_covers_space() {
        let designs = tiny_spec().enumerate_designs(3);
        assert_eq!(designs.len(), 9);
        assert!(designs.iter().any(|d| d.counts == vec![3, 3]));
        // Names are conventional.
        assert!(designs[0].name.contains("WEB"));
    }

    #[test]
    fn entry_tier_masking_matches_host_level_masking() {
        // Two entry tiers around a target: masking at the tier level
        // keeps exactly the host entries of the kept tiers.
        let spec = NetworkSpec::new(
            vec![
                TierSpec {
                    name: "dns".into(),
                    count: 1,
                    params: ServerParams::builder("dns").build(),
                    tree: Some(AttackTree::leaf(Vulnerability::new("a", 10.0, 0.5))),
                    entry: true,
                    target: false,
                },
                TierSpec {
                    name: "web".into(),
                    count: 2,
                    params: ServerParams::builder("web").build(),
                    tree: Some(AttackTree::leaf(Vulnerability::new("b", 10.0, 0.5))),
                    entry: true,
                    target: false,
                },
                TierSpec {
                    name: "db".into(),
                    count: 1,
                    params: ServerParams::builder("db").build(),
                    tree: Some(AttackTree::leaf(Vulnerability::new("c", 10.0, 0.5))),
                    entry: false,
                    target: true,
                },
            ],
            vec![(0, 2), (1, 2)],
        );
        assert_eq!(spec.entry_tiers(), vec![0, 1]);
        // Tier mask [false, true] → the masked HARM keeps every host and
        // enters only at web's two hosts.
        let harm = spec.with_entry_tiers(&[false, true]).unwrap().build_harm();
        let g = harm.graph();
        let entries: Vec<&str> = g.entries().iter().map(|&h| g.host_name(h)).collect();
        assert_eq!(entries, ["web1", "web2"]);
        assert_eq!(g.host_count(), 4);
        let m = harm.metrics(&MetricsConfig::default());
        assert_eq!(m.attack_paths, 2);
        assert_eq!(m.entry_points, 2);
        // Deselecting everything is a structural error, not a panic.
        assert!(matches!(
            spec.with_entry_tiers(&[false, false]),
            Err(EvalError::InvalidSpec(crate::error::SpecIssue::NoEntryTier))
        ));
    }

    #[test]
    #[should_panic(expected = "one mask slot per entry tier")]
    fn entry_tier_mask_length_mismatch_panics() {
        let _ = tiny_spec().with_entry_tiers(&[true, false]);
    }

    #[test]
    fn conventional_name_format() {
        let n = Design::conventional_name(&["dns", "web"], &[2, 1]);
        assert_eq!(n, "2 DNS + 1 WEB");
        // The bytes of `format!` + `str::to_uppercase` + `join`, on
        // names whose upper case changes length.
        let names = ["straße", "ǆ-ﬁ", "web", "", "İi"];
        let counts = [10, 0, u32::MAX, 3, 7];
        let joined = names
            .iter()
            .zip(counts)
            .map(|(n, c)| format!("{c} {}", n.to_uppercase()))
            .collect::<Vec<_>>()
            .join(" + ");
        assert_eq!(Design::conventional_name(&names, &counts), joined);
        assert_eq!(Design::conventional_name(&[], &[]), "");
    }

    #[test]
    #[should_panic(expected = "no target tier")]
    fn spec_requires_target() {
        let mut tiers = tiny_spec().tiers().to_vec();
        tiers[1].target = false;
        let _ = NetworkSpec::new(tiers, vec![(0, 1)]);
    }

    #[test]
    fn try_new_reports_each_structural_issue() {
        use crate::error::SpecIssue;
        let ok = tiny_spec();
        assert!(matches!(
            NetworkSpec::try_new(vec![], vec![]),
            Err(EvalError::InvalidSpec(SpecIssue::EmptyTiers))
        ));
        assert!(matches!(
            NetworkSpec::try_new(ok.tiers().to_vec(), vec![(0, 2)]),
            Err(EvalError::InvalidSpec(SpecIssue::EdgeOutOfRange {
                from: 0,
                to: 2,
                tiers: 2
            }))
        ));
        let mut no_target = ok.tiers().to_vec();
        no_target[1].target = false;
        assert!(matches!(
            NetworkSpec::try_new(no_target, vec![(0, 1)]),
            Err(EvalError::InvalidSpec(SpecIssue::NoTargetTier))
        ));
        let mut no_entry = ok.tiers().to_vec();
        no_entry[0].entry = false;
        assert!(matches!(
            NetworkSpec::try_new(no_entry, vec![(0, 1)]),
            Err(EvalError::InvalidSpec(SpecIssue::NoEntryTier))
        ));
        // Self edges would panic later inside the attack graph.
        assert!(matches!(
            NetworkSpec::try_new(ok.tiers().to_vec(), vec![(0, 1), (1, 1)]),
            Err(EvalError::InvalidSpec(SpecIssue::SelfEdge { tier: 1 }))
        ));
        // And the valid shape goes through.
        let spec = NetworkSpec::try_new(ok.tiers().to_vec(), ok.edges().to_vec()).unwrap();
        assert_eq!(spec.total_servers(), 3);
    }
}
