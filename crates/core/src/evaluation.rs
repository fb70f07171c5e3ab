//! Phase 2+3: model construction and combined evaluation of one design.

use std::sync::{Arc, OnceLock};

use redeval_avail::{AggregatedRates, NetworkMeasures, ServerAnalysis};
use redeval_harm::{
    AspStrategy, AttackTree, MetricsConfig, ReplicatedTier, SecurityMetrics, Vulnerability,
};
use redeval_markov::SolveError;

use crate::spec::NetworkSpec;
use crate::EvalError;

/// Which vulnerabilities the patch round removes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatchPolicy {
    /// Patch nothing (the "before" model).
    None,
    /// Patch vulnerabilities with CVSS base score strictly above the
    /// threshold — the paper uses `CriticalOnly(8.0)`.
    CriticalOnly(f64),
    /// Patch everything.
    All,
}

impl PatchPolicy {
    /// Whether this policy patches the given vulnerability.
    pub fn patches(&self, v: &Vulnerability) -> bool {
        match self {
            PatchPolicy::None => false,
            PatchPolicy::CriticalOnly(t) => v.is_critical(*t),
            PatchPolicy::All => true,
        }
    }
}

impl std::fmt::Display for PatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatchPolicy::None => write!(f, "no patch"),
            PatchPolicy::CriticalOnly(t) => write!(f, "critical>{t}"),
            PatchPolicy::All => write!(f, "patch all"),
        }
    }
}

/// Error parsing a [`PatchPolicy`] from a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePolicyError {
    /// The rejected input.
    pub input: String,
}

impl std::fmt::Display for ParsePolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The rejected spelling may come straight off the wire (scenario
        // files, `/v1/sweep` bodies), so the echo is snippet-capped: a
        // kilobyte of junk must never bounce back whole.
        write!(
            f,
            "unknown patch policy `{}` (expected `none`, `all` or `critical>T` \
             with a CVSS threshold T)",
            crate::output::snippet(&self.input)
        )
    }
}

impl std::error::Error for ParsePolicyError {}

impl std::str::FromStr for PatchPolicy {
    type Err = ParsePolicyError;

    /// Parses the [`Display`](std::fmt::Display) form back (`no patch`,
    /// `critical>8`, `patch all`) plus the terser spellings `none` and
    /// `all` used by scenario files and the CLI `--policy` flag. The
    /// threshold accepts any finite `f64` in `0.0..=10.0`; because
    /// `Display` prints the shortest round-trip form, `parse ∘ to_string`
    /// is the identity on every policy value.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePolicyError {
            input: s.to_string(),
        };
        match s.trim() {
            "none" | "no patch" => Ok(PatchPolicy::None),
            "all" | "patch all" => Ok(PatchPolicy::All),
            other => {
                let t = other
                    .strip_prefix("critical>")
                    .ok_or_else(err)?
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| err())?;
                if !t.is_finite() || !(0.0..=10.0).contains(&t) {
                    return Err(err());
                }
                Ok(PatchPolicy::CriticalOnly(t))
            }
        }
    }
}

/// The complete evaluation of one redundancy design: the paper's security
/// metrics before and after the patch, plus the availability measures.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEvaluation {
    /// Design name.
    pub name: String,
    /// Per-tier server counts.
    pub counts: Vec<u32>,
    /// Security metrics of the unpatched network.
    pub before: SecurityMetrics,
    /// Security metrics after the patch round.
    pub after: SecurityMetrics,
    /// Capacity-oriented availability under the patch schedule.
    pub coa: f64,
    /// Classical availability (every tier has ≥ 1 server up).
    pub availability: f64,
    /// Expected number of running servers.
    pub expected_up: f64,
}

impl DesignEvaluation {
    /// Total servers in the design.
    pub fn total_servers(&self) -> u32 {
        self.counts.iter().sum()
    }
}

/// Everything [`evaluate_design`] needs that does not depend on the
/// design: one spec variant, its metric configuration and its patch
/// policies. It is built once before a batch — [`Sweep::run`] builds one
/// per variant, [`Scenario::evaluate`] one for its single design — and
/// its cells share it.
///
/// [`Sweep::run`]: crate::exec::Sweep::run
/// [`Scenario::evaluate`]: crate::exec::Scenario::evaluate
#[derive(Debug)]
pub(crate) struct VariantContext {
    spec: Arc<NetworkSpec>,
    metrics: MetricsConfig,
    /// The policies in grid order, each with its label suffix.
    policies: Vec<(PatchPolicy, String)>,
    /// On the tier walk, every tier's tree as each policy prunes it
    /// (policy-major); `None` when the cells take the host walk.
    pruned: Option<Vec<Vec<Option<AttackTree>>>>,
    /// Per tier, the down distributions of the server counts the batch's
    /// designs give it.
    dists: Vec<TierDistributions>,
}

impl VariantContext {
    /// The context of `spec` under `metrics` and `policies` (each with
    /// its label suffix), for a batch of the designs whose per-tier
    /// counts `designs` lists.
    pub(crate) fn new<'a>(
        spec: Arc<NetworkSpec>,
        metrics: MetricsConfig,
        policies: Vec<(PatchPolicy, String)>,
        designs: impl Iterator<Item = &'a [u32]> + Clone,
    ) -> Self {
        let tier_walk = spec.tier_dag().is_some() && metrics.asp != AspStrategy::Reliability;
        let pruned = tier_walk.then(|| {
            policies
                .iter()
                .map(|&(p, _)| {
                    spec.tiers()
                        .iter()
                        .map(|t| t.tree.as_ref()?.without(&move |v| p.patches(v)))
                        .collect()
                })
                .collect()
        });
        let tiers = spec.tiers().len();
        let designs = designs.filter(|counts| counts.len() == tiers);
        let dists = (0..tiers)
            .map(|t| TierDistributions::new(designs.clone().map(|counts| counts[t])))
            .collect();
        VariantContext {
            spec,
            metrics,
            policies,
            pruned,
            dists,
        }
    }

    /// The security metrics of the checked design `counts` before the
    /// patch round and after each policy's, bit for bit those of
    /// `build_harm().metrics(..)`.
    fn security(&self, counts: &[u32]) -> (SecurityMetrics, Vec<SecurityMetrics>) {
        let config = &self.metrics;
        let tiers = self.spec.tiers();
        match (self.spec.tier_dag(), &self.pruned) {
            // An acyclic tier graph under a path-based ASP: the tier
            // walk, with no host graph.
            (Some(dag), Some(pruned)) => {
                let walk = |trees: &mut dyn Iterator<Item = Option<&AttackTree>>| {
                    let replicated: Vec<ReplicatedTier<'_>> = tiers
                        .iter()
                        .zip(counts)
                        .zip(trees)
                        .map(|((t, &count), tree)| ReplicatedTier {
                            count,
                            tree,
                            entry: t.entry,
                            target: t.target,
                        })
                        .collect();
                    dag.metrics(&replicated, config)
                };
                let before = walk(&mut tiers.iter().map(|t| t.tree.as_ref()));
                let after = pruned
                    .iter()
                    .map(|trees| walk(&mut trees.iter().map(Option::as_ref)))
                    .collect();
                (before, after)
            }
            // A cyclic tier graph, or `AspStrategy::Reliability` (its
            // exact ASP needs each path's hosts): the host walk over the
            // expanded HARM.
            _ => {
                let harm = self.spec.harm_for(counts);
                let before = harm.metrics(config);
                let after = self
                    .policies
                    .iter()
                    .map(|&(p, _)| harm.patched(&move |v| p.patches(v)).metrics(config))
                    .collect();
                (before, after)
            }
        }
    }

    /// The availability measures of the checked design `counts`, from
    /// the down distributions of the rates in `analyses`.
    fn measures(
        &self,
        counts: &[u32],
        analyses: &[Arc<ServerAnalysis>],
    ) -> Result<NetworkMeasures, SolveError> {
        assert_eq!(analyses.len(), counts.len(), "one analysis per tier");
        let dists = self
            .dists
            .iter()
            .zip(counts)
            .zip(analyses)
            .map(|((tier, &count), a)| tier.get(count, a.rates()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(NetworkMeasures::from_down_distributions(&dists))
    }
}

/// One tier's down distributions, one per server count of the batch,
/// each solved by the first cell that needs it from the rates that cell
/// looked up. A variant's tier has the same rates in every cell: the
/// analysis cache keys on parameter content and solves deterministically.
#[derive(Debug)]
struct TierDistributions {
    /// Sorted, distinct.
    counts: Vec<u32>,
    /// The distribution for each count, or the solve error every cell
    /// that needs it returns.
    solved: Vec<OnceLock<Result<Vec<f64>, SolveError>>>,
}

impl TierDistributions {
    fn new(counts: impl Iterator<Item = u32>) -> Self {
        let mut counts: Vec<u32> = counts.collect();
        counts.sort_unstable();
        counts.dedup();
        let solved = counts.iter().map(|_| OnceLock::new()).collect();
        TierDistributions { counts, solved }
    }

    fn get(&self, count: u32, rates: AggregatedRates) -> Result<&[f64], SolveError> {
        let slot = self
            .counts
            .binary_search(&count)
            .expect("the context lists every count of its batch's designs");
        self.solved[slot]
            .get_or_init(|| rates.down_distribution(count))
            .as_deref()
            .map_err(SolveError::clone)
    }
}

/// The evaluation kernel behind every front door — the batch executor's
/// cells and [`Scenario::evaluate`](crate::exec::Scenario::evaluate):
/// design `counts` of the `context`'s spec under each of its policies,
/// labelled `stem` plus the policy's suffix, with the tier solves already
/// resolved into `analyses`.
///
/// The policy-independent work happens once: the security model, the
/// before-patch metrics, and the three availability measures from one
/// pass. Each policy adds the metrics of its pruned model.
///
/// # Errors
///
/// Count-validation errors, then availability solver errors.
pub(crate) fn evaluate_design(
    context: &VariantContext,
    stem: &str,
    counts: &[u32],
    analyses: &[Arc<ServerAnalysis>],
) -> Result<Vec<DesignEvaluation>, EvalError> {
    context.spec.check_counts(counts)?;
    let (before, after) = context.security(counts);
    let availability = context.measures(counts, analyses)?;
    Ok(context
        .policies
        .iter()
        .zip(after)
        .map(|((_, suffix), after)| DesignEvaluation {
            name: [stem, suffix].concat(),
            counts: counts.to_vec(),
            before: before.clone(),
            after,
            coa: availability.coa,
            availability: availability.availability,
            expected_up: availability.expected_up,
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{AnalysisCache, Pool, Scenario, Sweep};
    use crate::spec::{Design, TierSpec};
    use redeval_avail::ServerParams;
    use redeval_harm::AttackTree;

    fn spec() -> NetworkSpec {
        let leaf = |id: &str, imp, p| Some(AttackTree::leaf(Vulnerability::new(id, imp, p)));
        NetworkSpec::new(
            vec![
                TierSpec {
                    name: "web".into(),
                    count: 1,
                    params: ServerParams::builder("web").build(),
                    tree: leaf("critical", 10.0, 1.0),
                    entry: true,
                    target: false,
                },
                TierSpec {
                    name: "db".into(),
                    count: 1,
                    params: ServerParams::builder("db").build(),
                    tree: leaf("minor", 2.9, 0.86),
                    entry: false,
                    target: true,
                },
            ],
            vec![(0, 1)],
        )
    }

    #[test]
    fn patch_policy_display_round_trips_through_from_str() {
        // Every variant, including thresholds that stress float printing.
        let policies = [
            PatchPolicy::None,
            PatchPolicy::All,
            PatchPolicy::CriticalOnly(8.0),
            PatchPolicy::CriticalOnly(0.0),
            PatchPolicy::CriticalOnly(10.0),
            PatchPolicy::CriticalOnly(7.1),
            PatchPolicy::CriticalOnly(9.55),
            PatchPolicy::CriticalOnly(1.0 / 3.0),
        ];
        for p in policies {
            let s = p.to_string();
            let back: PatchPolicy = s.parse().unwrap_or_else(|e| panic!("{s}: {e}"));
            assert_eq!(back, p, "round-trip through `{s}`");
            if let (PatchPolicy::CriticalOnly(t), PatchPolicy::CriticalOnly(b)) = (p, back) {
                assert_eq!(t.to_bits(), b.to_bits(), "threshold bits via `{s}`");
            }
        }
    }

    #[test]
    fn patch_policy_from_str_accepts_aliases_and_rejects_junk() {
        assert_eq!("none".parse::<PatchPolicy>().unwrap(), PatchPolicy::None);
        assert_eq!("all".parse::<PatchPolicy>().unwrap(), PatchPolicy::All);
        assert_eq!(
            " critical>8 ".parse::<PatchPolicy>().unwrap(),
            PatchPolicy::CriticalOnly(8.0)
        );
        for bad in [
            "",
            "patch",
            "critical",
            "critical>",
            "critical>eight",
            "critical>-1",
            "critical>10.5",
            "critical>NaN",
            "critical>inf",
            "ALL",
        ] {
            let e = bad.parse::<PatchPolicy>();
            assert!(e.is_err(), "accepted `{bad}`");
        }
        let msg = "bogus".parse::<PatchPolicy>().unwrap_err().to_string();
        assert!(msg.contains("bogus") && msg.contains("critical>T"));
        // Wire-sized junk is snippet-capped, never echoed whole.
        let huge = "z".repeat(100_000);
        let msg = huge.parse::<PatchPolicy>().unwrap_err().to_string();
        assert!(msg.len() < 300, "echoed {} bytes", msg.len());
        assert!(!msg.contains(&huge[..100]));
    }

    #[test]
    fn patch_policy_predicates() {
        let v_crit = Vulnerability::new("c", 10.0, 1.0);
        let v_minor = Vulnerability::new("m", 2.9, 0.86);
        assert!(!PatchPolicy::None.patches(&v_crit));
        assert!(PatchPolicy::All.patches(&v_minor));
        assert!(PatchPolicy::CriticalOnly(8.0).patches(&v_crit));
        assert!(!PatchPolicy::CriticalOnly(8.0).patches(&v_minor));
    }

    /// Design `counts` of [`spec`] under `patch`, through `cache`.
    fn evaluate(
        cache: &AnalysisCache,
        name: &str,
        counts: &[u32],
        patch: PatchPolicy,
    ) -> Result<DesignEvaluation, EvalError> {
        Scenario::new(name, spec(), Design::new(name, counts.to_vec()), patch).evaluate(cache)
    }

    const PAPER: PatchPolicy = PatchPolicy::CriticalOnly(8.0);

    #[test]
    fn evaluation_before_and_after() {
        let e = evaluate(&AnalysisCache::new(), "base", &[1, 1], PAPER).unwrap();
        // Before: one path web->db.
        assert_eq!(e.before.attack_paths, 1);
        assert!((e.before.attack_impact - 12.9).abs() < 1e-9);
        // After: web's critical vuln is patched, path dies.
        assert_eq!(e.after.attack_paths, 0);
        assert_eq!(e.after.exploitable_vulnerabilities, 1);
        assert!(e.coa > 0.99 && e.coa < 1.0);
        assert!(e.availability >= e.coa);
        assert_eq!(e.total_servers(), 2);
    }

    #[test]
    fn redundancy_raises_coa_and_attack_surface() {
        let cache = AnalysisCache::new();
        let base = evaluate(&cache, "base", &[1, 1], PAPER).unwrap();
        let red = evaluate(&cache, "2web", &[2, 1], PAPER).unwrap();
        assert!(red.coa > base.coa);
        assert!(red.before.exploitable_vulnerabilities > base.before.exploitable_vulnerabilities);
        assert!(red.before.attack_paths > base.before.attack_paths);
    }

    #[test]
    fn patch_all_removes_everything() {
        let e = evaluate(&AnalysisCache::new(), "x", &[1, 1], PatchPolicy::All).unwrap();
        assert_eq!(e.after.exploitable_vulnerabilities, 0);
        assert_eq!(e.after.entry_points, 0);
    }

    #[test]
    fn patch_none_changes_nothing() {
        let e = evaluate(&AnalysisCache::new(), "x", &[1, 1], PatchPolicy::None).unwrap();
        assert_eq!(e.before, e.after);
    }

    #[test]
    fn evaluate_all_preserves_order() {
        let designs = vec![Design::new("a", vec![1, 1]), Design::new("b", vec![2, 1])];
        let evals = Sweep::new(spec())
            .designs(designs)
            .run(&Pool::new(2), &Arc::new(AnalysisCache::new()))
            .unwrap();
        assert_eq!(evals[0].name, "a");
        assert_eq!(evals[1].name, "b");
    }

    #[test]
    fn with_cache_dedupes_solves_and_matches_with_options() {
        let cache = AnalysisCache::new();
        let cached = evaluate(&cache, "x", &[2, 1], PatchPolicy::All).unwrap();
        // Both tiers carry identical default parameters, so the
        // content-keyed cache solves once and relabels for the second.
        assert_eq!(cache.solves(), 1);
        assert_eq!(cache.relabels(), 1);
        let second = evaluate(&cache, "x", &[2, 1], PatchPolicy::None).unwrap();
        assert_eq!(cache.solves(), 1); // the second scenario re-solves nothing
        assert_eq!(cache.hits(), 3); // db relabel + both tiers of the second
        assert_eq!(second.before, second.after);
        // Identical numbers to the kernel over uncached per-tier solves.
        let base = Arc::new(spec());
        let uncached: Vec<_> = base
            .tier_analyses()
            .unwrap()
            .into_iter()
            .map(Arc::new)
            .collect();
        let context = VariantContext::new(
            Arc::clone(&base),
            MetricsConfig::default(),
            vec![(PatchPolicy::All, String::new())],
            std::iter::once(&[2, 1][..]),
        );
        let plain = evaluate_design(&context, "x", &[2, 1], &uncached).unwrap();
        assert_eq!(plain, [cached]);
    }

    #[test]
    fn memoized_distributions_solve_once_and_replay_errors() {
        let memo = TierDistributions::new([2, 1, 2].into_iter());
        assert_eq!(memo.counts, [1, 2]);
        let rates = AggregatedRates {
            lambda_eq: 1.0 / 720.0,
            mu_eq: 1.5,
        };
        let first = memo.get(2, rates).unwrap();
        assert_eq!(first, rates.down_distribution(2).unwrap());
        assert!(std::ptr::eq(first, memo.get(2, rates).unwrap()));
        // A failed solve is kept: every cell that needs it returns it.
        let memo = TierDistributions::new([3].into_iter());
        let bad = AggregatedRates {
            lambda_eq: -1.0,
            mu_eq: 1.5,
        };
        let err = bad.down_distribution(3).unwrap_err();
        assert_eq!(memo.get(3, bad).unwrap_err(), err);
        assert_eq!(memo.get(3, bad).unwrap_err(), err);
    }

    #[test]
    fn invalid_design_is_reported() {
        assert!(matches!(
            evaluate(&AnalysisCache::new(), "bad", &[1], PAPER),
            Err(EvalError::CountMismatch { .. })
        ));
    }
}
