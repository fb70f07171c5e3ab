//! Attacker–defender equilibrium analysis: Gauss-Seidel best-response
//! iteration over the joint design/policy × entry-subset strategy space.
//!
//! # The game
//!
//! The paper evaluates *fixed* patch policies against a *static* attacker
//! who uses every entry point. This module makes both sides strategic:
//!
//! * the **defender** picks a redundancy design (per-tier counts in
//!   `1..=max_redundancy`) and a patch policy from the configured list,
//!   minimizing after-patch ASP and then maximizing COA;
//! * the **attacker** picks a non-empty subset of the entry tiers to
//!   commit to, maximizing after-patch ASP and then AIM.
//!
//! Both players mask entry tiers the same way, with
//! [`NetworkSpec::with_entry_tiers`], and both score through the
//! evaluation kernel: the defender's inner best response is exactly
//! [`Optimizer`]'s pruned branch-and-bound over the masked
//! specification, and the attacker's enumerates its `2^k − 1` masks
//! with a union-bound prune, scoring each masked specification by the
//! kernel's after-patch security walk (the tier walk on an acyclic tier
//! graph under a path-based ASP, the host walk otherwise). Best
//! responses alternate Gauss-Seidel style — the scheme of the GNEP
//! literature (Nie–Tang–Xu; Choi–Nie–Tang–Zhong, see PAPERS.md) — with
//! fixed player order (defender first), until the profile repeats.
//!
//! # Determinism
//!
//! Everything is deterministic and invariant in the size of the
//! caller's [`Pool`] and in the state of the caller's [`AnalysisCache`]:
//!
//! * the defender's best response is the first member of the optimizer's
//!   frontier, which is byte-identical to the exhaustive grid's
//!   lexicographic argmin under (ASP ↑, COA ↓, counts reversed-lex ↑,
//!   policy index ↑) on any pool;
//! * the attacker's best response enumerates masks in ascending bit
//!   order sequentially and replaces the incumbent only on a strictly
//!   better `(ASP, AIM)` pair, so ties resolve to the first-enumerated
//!   (smallest) mask;
//! * the attacker's union-bound prune (per-tier single-entry noisy-or
//!   ASPs, which upper-bound every aggregation strategy by the Harris
//!   inequality) discards a mask only when its bound is strictly below
//!   the incumbent with a `1e-9` relative safety margin, so pruning can
//!   never change the argmax — the pruned response byte-equals the
//!   exhaustive one;
//! * iteration stops on a fixed point (a mutual best response by
//!   construction), on a revisited attacker strategy (cycle detector),
//!   or at the bounded iteration cap.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use redeval::equilibrium::EquilibriumAnalyzer;
//! use redeval::exec::{AnalysisCache, Pool};
//! use redeval::scenario::builtin;
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let doc = builtin::paper_case_study();
//! let cache = Arc::new(AnalysisCache::new());
//! let outcome = EquilibriumAnalyzer::from_scenario(&doc)?
//!     .max_redundancy(2)
//!     .run(&Pool::new(2), &cache)?;
//! assert!(outcome.converged);
//! assert!(outcome.attacker_mask.iter().any(|&b| b));
//! # Ok(())
//! # }
//! ```

use std::sync::Arc;

use redeval_harm::{AspStrategy, MetricsConfig, SecurityMetrics};

use crate::error::{EvalError, SpecIssue};
use crate::evaluation::{DesignEvaluation, PatchPolicy, VariantContext};
use crate::exec::{AnalysisCache, Pool};
use crate::optimize::{Optimizer, DEFAULT_MAX_REDUNDANCY};
use crate::spec::NetworkSpec;

/// Default Gauss-Seidel round cap — matches the CLI's `--max-iters`
/// default. Monotone entry-subset payoffs converge in a handful of
/// rounds; the cap is a hard stop for adversarial inputs.
pub const DEFAULT_MAX_ITERS: u32 = 16;

/// Most entry tiers the attacker-strategy enumeration covers
/// (`2^12 − 1 = 4095` masks per best response). Beyond this the analyzer
/// rejects the specification with a structural error instead of walking
/// an exponential space.
pub const MAX_ENTRY_TIERS: usize = 12;

/// Relative safety margin on the attacker's union bound, mirroring the
/// optimizer's discipline: the bound inflates by this factor before the
/// strict comparison against the incumbent, so float rounding can never
/// turn a sound prune into a wrong one.
const FP_MARGIN: f64 = 1e-9;

/// The defender's best response to one attacker strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct DefenderResponse {
    /// The chosen design's evaluation *under the attacker's entry mask*
    /// (its `after` metrics see only the masked entry points).
    pub eval: DesignEvaluation,
    /// Index of the chosen policy in the analyzer's policy list.
    pub policy_idx: usize,
    /// Design × policy cells the pruned search evaluated.
    pub evaluated_cells: usize,
}

/// The attacker's best response to one defender strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackerResponse {
    /// The chosen entry-tier mask (one slot per entry tier, in
    /// [`NetworkSpec::entry_tiers`] order).
    pub mask: Vec<bool>,
    /// After-patch ASP under the mask — the attacker's primary payoff.
    pub asp: f64,
    /// After-patch AIM under the mask — the tie-breaking payoff.
    pub aim: f64,
    /// Masks actually evaluated.
    pub evaluated: usize,
    /// Masks discarded by the union bound.
    pub pruned: usize,
}

/// One Gauss-Seidel round: the defender's response to the incoming
/// attacker strategy, then the attacker's response to it.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumStep {
    /// 1-based round number.
    pub iteration: usize,
    /// The defender's chosen design name.
    pub design: String,
    /// The defender's chosen policy index.
    pub policy_idx: usize,
    /// After-patch ASP of the defender's choice (under the incoming
    /// mask).
    pub defender_asp: f64,
    /// COA of the defender's choice.
    pub defender_coa: f64,
    /// The attacker's responding entry-tier mask.
    pub mask: Vec<bool>,
    /// The attacker's payoff ASP under its response.
    pub attacker_asp: f64,
    /// The attacker's payoff AIM under its response.
    pub attacker_aim: f64,
}

/// What one equilibrium run found and what it cost.
#[derive(Debug, Clone, PartialEq)]
pub struct EquilibriumOutcome {
    /// The defender's final strategy, evaluated under the mask it
    /// responded to (at a fixed point that *is* the equilibrium mask).
    pub defender: DesignEvaluation,
    /// Index of the defender's final policy in the policy list.
    pub policy_idx: usize,
    /// The attacker's final entry-tier mask.
    pub attacker_mask: Vec<bool>,
    /// The attacker's payoff ASP at the final profile.
    pub attacker_asp: f64,
    /// The attacker's payoff AIM at the final profile.
    pub attacker_aim: f64,
    /// Whether the iteration reached a fixed point (a mutual best
    /// response, i.e. a Nash equilibrium of the discretized game).
    pub converged: bool,
    /// Whether a non-trivial strategy cycle was detected instead.
    pub cycle_detected: bool,
    /// Gauss-Seidel rounds executed.
    pub iterations: usize,
    /// Per-round trace, in order.
    pub trace: Vec<EquilibriumStep>,
    /// Names of the entry tiers, aligned with the mask slots.
    pub entry_tier_names: Vec<String>,
    /// Design × policy cells evaluated over all defender best responses.
    pub defender_evaluated_cells: usize,
    /// Design × policy cells one exhaustive defender best response would
    /// evaluate (`max_redundancy ^ tiers × policies`).
    pub defender_space_cells: f64,
    /// Masks evaluated over all attacker best responses.
    pub attacker_masks_evaluated: usize,
    /// Masks discarded by the union bound over all attacker best
    /// responses.
    pub attacker_masks_pruned: usize,
    /// Candidate masks per attacker best response (`2^k − 1`).
    pub attacker_space_masks: u64,
}

impl EquilibriumOutcome {
    /// Names of the entry tiers the attacker's final mask selects.
    pub fn attacker_entry_tiers(&self) -> Vec<&str> {
        self.entry_tier_names
            .iter()
            .zip(&self.attacker_mask)
            .filter_map(|(n, &keep)| keep.then_some(n.as_str()))
            .collect()
    }

    /// Fraction of the per-round defender space the iteration actually
    /// evaluated (can exceed 1.0 only if pruning never fires across many
    /// rounds).
    pub fn defender_evaluated_fraction(&self) -> f64 {
        let space = self.defender_space_cells * self.iterations as f64;
        if space > 0.0 {
            self.defender_evaluated_cells as f64 / space
        } else {
            0.0
        }
    }
}

/// Deterministic Gauss-Seidel best-response iteration (see the
/// [module docs](self)).
///
/// Mirrors the [`Optimizer`] builder: policies and metrics default from
/// the scenario document, and [`run`](EquilibriumAnalyzer::run)
/// evaluates on the caller's [`Pool`] and [`AnalysisCache`] — entry
/// masking never touches tier parameters, so every round and every mask
/// reuse the same per-tier solves.
#[derive(Debug, Clone)]
pub struct EquilibriumAnalyzer {
    spec: Arc<NetworkSpec>,
    policies: Vec<PatchPolicy>,
    metrics: MetricsConfig,
    max_redundancy: u32,
    max_iters: u32,
}

impl EquilibriumAnalyzer {
    /// An analyzer over `spec` with the paper's critical-only policy,
    /// default metrics, [`DEFAULT_MAX_REDUNDANCY`] and
    /// [`DEFAULT_MAX_ITERS`].
    pub fn new(spec: NetworkSpec) -> Self {
        EquilibriumAnalyzer {
            spec: Arc::new(spec),
            policies: vec![PatchPolicy::CriticalOnly(8.0)],
            metrics: MetricsConfig::default(),
            max_redundancy: DEFAULT_MAX_REDUNDANCY,
            max_iters: DEFAULT_MAX_ITERS,
        }
    }

    /// An analyzer over a scenario document: its network, its policy
    /// list (the defender's policy axis) and its metric configuration.
    /// The document's explicit design list is *not* consulted — the
    /// defender explores the full `1..=max_redundancy` space.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors.
    pub fn from_scenario(doc: &crate::scenario::ScenarioDoc) -> Result<Self, EvalError> {
        let spec = doc.to_spec()?;
        Ok(EquilibriumAnalyzer::new(spec)
            .policies(doc.policies.clone())
            .metrics(doc.metrics))
    }

    /// Sets the defender's per-tier count bound (clamped to at least 1).
    pub fn max_redundancy(mut self, max_redundancy: u32) -> Self {
        self.max_redundancy = max_redundancy.max(1);
        self
    }

    /// Sets the Gauss-Seidel round cap (clamped to at least 1).
    pub fn max_iters(mut self, max_iters: u32) -> Self {
        self.max_iters = max_iters.max(1);
        self
    }

    /// Sets the defender's patch-policy axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty policy list.
    pub fn policies(mut self, policies: Vec<PatchPolicy>) -> Self {
        assert!(!policies.is_empty(), "at least one policy required");
        self.policies = policies;
        self
    }

    /// Sets the security-metric configuration.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Candidate masks per attacker best response, `2^k − 1` over the
    /// spec's `k` entry tiers.
    pub fn attacker_space_masks(&self) -> u64 {
        (1u64 << self.spec.entry_tiers().len().min(63)) - 1
    }

    /// The defender's best response to an entry-tier mask: the
    /// lexicographic optimum under (after-patch ASP ↑, COA ↓, counts
    /// reversed-lex ↑, policy index ↑) over the full design × policy
    /// space, computed as the first frontier member of the pruned
    /// branch-and-bound over the masked specification, on `pool` and
    /// `cache`.
    ///
    /// # Errors
    ///
    /// Mask-validation ([`SpecIssue::NoEntryTier`] on all-false) and
    /// evaluation errors.
    pub fn defender_response(
        &self,
        mask: &[bool],
        pool: &Pool,
        cache: &Arc<AnalysisCache>,
    ) -> Result<DefenderResponse, EvalError> {
        let masked = self.spec.with_entry_tiers(mask)?;
        let outcome = Optimizer::new(masked)
            .policies(self.policies.clone())
            .metrics(self.metrics)
            .max_redundancy(self.max_redundancy)
            .run(pool, cache)?;
        // The frontier is sorted (ASP ↑, counts reversed-lex ↑, policy ↑)
        // and equal-ASP members share their COA (an ASP tie with a COA
        // gap is a domination), so the head is the lexicographic optimum.
        let eval = outcome
            .frontier
            .first()
            .cloned()
            .expect("a non-empty design space has a non-empty frontier");
        let policy_idx = outcome.frontier_policy_indices[0];
        Ok(DefenderResponse {
            eval,
            policy_idx,
            evaluated_cells: outcome.evaluated_cells,
        })
    }

    /// The attacker's best response to a defender strategy: the
    /// first-enumerated maximizer of (after-patch ASP, then AIM) over all
    /// non-empty entry-tier masks, with the union-bound prune. Each
    /// candidate is the specification masked by
    /// [`NetworkSpec::with_entry_tiers`] at `counts`, scored by the
    /// evaluation kernel's after-patch security walk under the policy.
    /// The walks solve no tier, so `cache` serves only as the telemetry
    /// sink (its span and mask counters).
    ///
    /// # Errors
    ///
    /// [`SpecIssue::TooManyEntryTiers`], count-validation errors.
    ///
    /// # Panics
    ///
    /// Panics when `policy_idx` is out of range of the policy list.
    pub fn attacker_response(
        &self,
        counts: &[u32],
        policy_idx: usize,
        cache: &AnalysisCache,
    ) -> Result<AttackerResponse, EvalError> {
        self.attacker_response_impl(counts, policy_idx, cache, true)
    }

    /// [`attacker_response`](EquilibriumAnalyzer::attacker_response)
    /// without the union-bound prune — the reference the differential
    /// tests compare against byte-for-byte.
    ///
    /// # Errors
    ///
    /// As [`attacker_response`](EquilibriumAnalyzer::attacker_response).
    pub fn attacker_response_exhaustive(
        &self,
        counts: &[u32],
        policy_idx: usize,
        cache: &AnalysisCache,
    ) -> Result<AttackerResponse, EvalError> {
        self.attacker_response_impl(counts, policy_idx, cache, false)
    }

    fn attacker_response_impl(
        &self,
        counts: &[u32],
        policy_idx: usize,
        cache: &AnalysisCache,
        prune: bool,
    ) -> Result<AttackerResponse, EvalError> {
        let tel = cache.telemetry();
        let _span = tel.span("attacker response");
        let entry_tiers = self.spec.entry_tiers();
        let k = entry_tiers.len();
        if k > MAX_ENTRY_TIERS {
            return Err(SpecIssue::TooManyEntryTiers {
                entries: k,
                max: MAX_ENTRY_TIERS,
            }
            .into());
        }
        let policy = self.policies[policy_idx];
        self.spec.check_counts(counts)?;
        // A candidate is the spec keeping only the masked entry tiers,
        // scored by the kernel's after-patch walk at the responding
        // counts under the defender's policy.
        let score = |mask: &[bool], metrics: MetricsConfig| -> Result<SecurityMetrics, EvalError> {
            let masked = Arc::new(self.spec.with_entry_tiers(mask)?);
            let context = VariantContext::new(
                masked,
                metrics,
                vec![(policy, String::new())],
                std::iter::empty(),
            );
            let (_, mut after) = context.security(counts, false);
            Ok(after.remove(0))
        };
        // Union-bound singles: per-tier ASP under noisy-or, which
        // upper-bounds every aggregation strategy (max-path trivially,
        // exact reliability by the Harris inequality), so
        // `min(1, Σ_{j∈S} single_j)` bounds ASP(S) for any strategy.
        let nor = MetricsConfig {
            asp: AspStrategy::NoisyOrPaths,
            ..self.metrics
        };
        let mut single_ub = Vec::with_capacity(k);
        for j in 0..k {
            let mut mask = vec![false; k];
            mask[j] = true;
            single_ub.push(score(&mask, nor)?.attack_success_probability);
        }
        let mut best: Option<(f64, f64, Vec<bool>)> = None;
        let mut evaluated = 0usize;
        let mut pruned = 0usize;
        for bits in 1u64..=((1u64 << k) - 1) {
            if prune {
                if let Some((best_asp, _, _)) = &best {
                    let ub = (0..k)
                        .filter(|j| bits & (1u64 << j) != 0)
                        .map(|j| single_ub[j])
                        .sum::<f64>()
                        .min(1.0)
                        * (1.0 + FP_MARGIN);
                    // Strictly below the incumbent: the mask can neither
                    // beat nor tie it, so skipping cannot change the
                    // argmax or its tie-break.
                    if ub < *best_asp {
                        pruned += 1;
                        tel.add(crate::telemetry::Counter::MasksPruned, 1);
                        continue;
                    }
                }
            }
            let mask: Vec<bool> = (0..k).map(|j| bits & (1u64 << j) != 0).collect();
            let m = score(&mask, self.metrics)?;
            evaluated += 1;
            tel.add(crate::telemetry::Counter::MasksEvaluated, 1);
            let (asp, aim) = (m.attack_success_probability, m.attack_impact);
            let better = match &best {
                None => true,
                Some((b_asp, b_aim, _)) => asp > *b_asp || (asp == *b_asp && aim > *b_aim),
            };
            if better {
                best = Some((asp, aim, mask));
            }
        }
        let (asp, aim, mask) = best.expect("at least one entry tier, so at least one mask");
        Ok(AttackerResponse {
            mask,
            asp,
            aim,
            evaluated,
            pruned,
        })
    }

    /// Runs the iteration, each defender best response searching on
    /// `pool` and every round resolving tier solves through `cache`. The
    /// outcome is bitwise-identical for any pool size and any cache
    /// state.
    ///
    /// # Errors
    ///
    /// [`SpecIssue::TooManyEntryTiers`] past [`MAX_ENTRY_TIERS`];
    /// otherwise count-validation and solver errors from the evaluation
    /// pipeline.
    pub fn run(
        &self,
        pool: &Pool,
        cache: &Arc<AnalysisCache>,
    ) -> Result<EquilibriumOutcome, EvalError> {
        let tel = cache.telemetry();
        let _span = tel.span(format!("equilibrium (max_iters {})", self.max_iters));
        let entry_tiers = self.spec.entry_tiers();
        let k = entry_tiers.len();
        if k > MAX_ENTRY_TIERS {
            return Err(SpecIssue::TooManyEntryTiers {
                entries: k,
                max: MAX_ENTRY_TIERS,
            }
            .into());
        }
        let entry_tier_names: Vec<String> = entry_tiers
            .iter()
            .map(|&ti| self.spec.tiers()[ti].name.clone())
            .collect();
        let defender_space_cells = f64::from(self.max_redundancy)
            .powi(self.spec.tiers().len() as i32)
            * self.policies.len() as f64;

        // Round 0 attacker strategy: commit to every entry tier (the
        // paper's static adversary).
        let mut attacker: Vec<bool> = vec![true; k];
        let mut seen: Vec<Vec<bool>> = vec![attacker.clone()];
        let mut trace = Vec::new();
        let mut defender_evaluated_cells = 0usize;
        let mut masks_evaluated = 0usize;
        let mut masks_pruned = 0usize;
        let mut converged = false;
        let mut cycle_detected = false;
        let mut iterations = 0usize;
        let mut last: Option<(DefenderResponse, AttackerResponse)> = None;

        for iteration in 1..=self.max_iters {
            let _round_span = tel.span(format!("round {iteration}"));
            tel.add(crate::telemetry::Counter::EquilibriumRounds, 1);
            let d = self.defender_response(&attacker, pool, cache)?;
            defender_evaluated_cells += d.evaluated_cells;
            let a = self.attacker_response(&d.eval.counts, d.policy_idx, cache)?;
            masks_evaluated += a.evaluated;
            masks_pruned += a.pruned;
            iterations = iteration as usize;
            trace.push(EquilibriumStep {
                iteration: iteration as usize,
                design: d.eval.name.clone(),
                policy_idx: d.policy_idx,
                defender_asp: d.eval.after.attack_success_probability,
                defender_coa: d.eval.coa,
                mask: a.mask.clone(),
                attacker_asp: a.asp,
                attacker_aim: a.aim,
            });
            let next = a.mask.clone();
            let fixed = next == attacker;
            last = Some((d, a));
            if fixed {
                // The defender best-responds to `attacker == next` and
                // the attacker best-responds to the defender: a mutual
                // best response.
                converged = true;
                break;
            }
            if seen.contains(&next) {
                cycle_detected = true;
                break;
            }
            seen.push(next.clone());
            attacker = next;
        }

        let (d, a) = last.expect("the round cap is at least 1");
        Ok(EquilibriumOutcome {
            defender: d.eval,
            policy_idx: d.policy_idx,
            attacker_mask: a.mask,
            attacker_asp: a.asp,
            attacker_aim: a.aim,
            converged,
            cycle_detected,
            iterations,
            trace,
            entry_tier_names,
            defender_evaluated_cells,
            defender_space_cells,
            attacker_masks_evaluated: masks_evaluated,
            attacker_masks_pruned: masks_pruned,
            attacker_space_masks: self.attacker_space_masks(),
        })
    }
}

/// Reference defender best response for small spaces: materialize the
/// full design × policy grid over the masked specification on `pool` and
/// `cache` and take the lexicographic argmin under (after-patch ASP ↑,
/// COA ↓, counts reversed-lex ↑, policy index ↑) — what
/// [`EquilibriumAnalyzer::defender_response`] must agree with
/// byte-for-byte.
///
/// # Errors
///
/// Propagates grid evaluation errors.
pub fn exhaustive_defender_response(
    analyzer: &EquilibriumAnalyzer,
    mask: &[bool],
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<(DesignEvaluation, usize), EvalError> {
    let masked = analyzer.spec.with_entry_tiers(mask)?;
    let evals = crate::exec::Sweep::new(masked)
        .full_design_space(analyzer.max_redundancy)
        .policies(analyzer.policies.clone())
        .metrics(analyzer.metrics)
        .run(pool, cache)?;
    // Grid order is already (counts reversed-lex ↑, policy ↑), so a
    // strict-improvement scan realizes the full tie-break.
    let mut best: Option<(usize, &DesignEvaluation)> = None;
    for (i, e) in evals.iter().enumerate() {
        let better = match best {
            None => true,
            Some((_, b)) => {
                let (ea, ba) = (
                    e.after.attack_success_probability,
                    b.after.attack_success_probability,
                );
                ea < ba || (ea == ba && e.coa > b.coa)
            }
        };
        if better {
            best = Some((i, e));
        }
    }
    let (i, e) = best.expect("non-empty grid");
    Ok((e.clone(), i % analyzer.policies.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::default_threads;
    use crate::scenario::builtin;

    /// An empty cache for a run whose solves nothing else shares.
    fn fresh_cache() -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache::new())
    }

    #[test]
    fn converges_on_the_case_study_to_a_mutual_best_response() {
        let doc = builtin::paper_case_study();
        let pool = Pool::new(default_threads());
        for r in [2u32, 4] {
            let analyzer = EquilibriumAnalyzer::from_scenario(&doc)
                .unwrap()
                .max_redundancy(r);
            let cache = fresh_cache();
            let outcome = analyzer.run(&pool, &cache).unwrap();
            assert!(outcome.converged, "r = {r}");
            assert!(!outcome.cycle_detected, "r = {r}");
            assert!(outcome.iterations >= 1);

            // Brute force: the defender cannot improve against the final
            // mask…
            let (best_eval, best_policy) = exhaustive_defender_response(
                &analyzer,
                &outcome.attacker_mask,
                &pool,
                &fresh_cache(),
            )
            .unwrap();
            assert_eq!(best_eval, outcome.defender, "r = {r}");
            assert_eq!(best_policy, outcome.policy_idx, "r = {r}");
            // …and no attacker mask beats the final one (exhaustively).
            let a = analyzer
                .attacker_response_exhaustive(&outcome.defender.counts, outcome.policy_idx, &cache)
                .unwrap();
            assert_eq!(a.mask, outcome.attacker_mask, "r = {r}");
            assert_eq!(a.asp.to_bits(), outcome.attacker_asp.to_bits());
            assert_eq!(a.aim.to_bits(), outcome.attacker_aim.to_bits());
        }
    }

    #[test]
    fn outcome_is_bitwise_identical_across_runs_and_threads() {
        let doc = builtin::paper_case_study();
        let reference = EquilibriumAnalyzer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(2)
            .run(&Pool::new(1), &fresh_cache())
            .unwrap();
        for threads in [1, 2, 4] {
            let outcome = EquilibriumAnalyzer::from_scenario(&doc)
                .unwrap()
                .max_redundancy(2)
                .run(&Pool::new(threads), &fresh_cache())
                .unwrap();
            assert_eq!(outcome, reference);
            assert_eq!(
                outcome.defender.coa.to_bits(),
                reference.defender.coa.to_bits()
            );
            assert_eq!(
                outcome.attacker_asp.to_bits(),
                reference.attacker_asp.to_bits()
            );
        }
    }

    #[test]
    fn pooled_run_is_identical_and_shares_the_cache() {
        let doc = builtin::paper_case_study();
        let pool = Pool::new(3);
        let cache = Arc::new(AnalysisCache::new());
        let analyzer = EquilibriumAnalyzer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(2);
        let pooled = analyzer.run(&pool, &cache).unwrap();
        let single = analyzer.run(&Pool::new(1), &cache).unwrap();
        assert_eq!(pooled, single);
        assert!(cache.solves() > 0);
    }

    #[test]
    fn pruned_attacker_response_equals_exhaustive() {
        let doc = builtin::paper_case_study();
        let analyzer = EquilibriumAnalyzer::from_scenario(&doc).unwrap();
        let cache = AnalysisCache::new();
        for counts in [vec![1, 1, 1, 1], vec![2, 1, 2, 1], vec![2, 2, 2, 2]] {
            for policy_idx in 0..analyzer.policies.len() {
                let pruned = analyzer
                    .attacker_response(&counts, policy_idx, &cache)
                    .unwrap();
                let full = analyzer
                    .attacker_response_exhaustive(&counts, policy_idx, &cache)
                    .unwrap();
                assert_eq!(pruned.mask, full.mask);
                assert_eq!(pruned.asp.to_bits(), full.asp.to_bits());
                assert_eq!(pruned.aim.to_bits(), full.aim.to_bits());
                assert_eq!(pruned.evaluated + pruned.pruned, full.evaluated);
            }
        }
    }

    #[test]
    fn pruned_attacker_response_equals_exhaustive_on_a_wide_entry_fleet() {
        use crate::scenario::generate::{generate, Family, GenParams};
        let params = GenParams {
            tiers: 8,
            redundancy: 3,
            designs: 1,
            policies: 1,
        };
        let doc = generate(Family::IotSwarm, &params, 0);
        let analyzer = EquilibriumAnalyzer::from_scenario(&doc).unwrap();
        // Five entry tiers: a space where the union-bound prune has real
        // work to skip.
        assert_eq!(analyzer.attacker_space_masks(), 31);
        let tiers = analyzer.spec.tiers().len();
        let mixed: Vec<u32> = (0..tiers).map(|i| [1, 2, 3][i % 3]).collect();
        let mut pruned_any = false;
        let cache = AnalysisCache::new();
        for counts in [vec![1; tiers], vec![3; tiers], mixed] {
            for policy_idx in 0..analyzer.policies.len() {
                let pruned = analyzer
                    .attacker_response(&counts, policy_idx, &cache)
                    .unwrap();
                let full = analyzer
                    .attacker_response_exhaustive(&counts, policy_idx, &cache)
                    .unwrap();
                let context = format!("counts {counts:?}, policy {policy_idx}");
                assert_eq!(pruned.mask, full.mask, "{context}");
                assert_eq!(pruned.asp.to_bits(), full.asp.to_bits(), "{context}");
                assert_eq!(pruned.aim.to_bits(), full.aim.to_bits(), "{context}");
                assert_eq!(pruned.evaluated + pruned.pruned, full.evaluated);
                pruned_any |= pruned.pruned > 0;
            }
        }
        assert!(
            pruned_any,
            "the prune never fired; the comparison is vacuous"
        );
    }

    #[test]
    fn defender_response_matches_the_exhaustive_argmin() {
        let doc = builtin::paper_case_study();
        let analyzer = EquilibriumAnalyzer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(2);
        let k = analyzer.spec.entry_tiers().len();
        let pool = Pool::new(default_threads());
        let cache = fresh_cache();
        for bits in 1u64..(1u64 << k) {
            let mask: Vec<bool> = (0..k).map(|j| bits & (1 << j) != 0).collect();
            let pruned = analyzer.defender_response(&mask, &pool, &cache).unwrap();
            let (eval, policy_idx) =
                exhaustive_defender_response(&analyzer, &mask, &pool, &fresh_cache()).unwrap();
            assert_eq!(pruned.eval, eval, "mask {mask:?}");
            assert_eq!(pruned.policy_idx, policy_idx);
            assert_eq!(pruned.eval.coa.to_bits(), eval.coa.to_bits());
        }
    }

    #[test]
    fn too_many_entry_tiers_is_a_structural_error() {
        use crate::spec::TierSpec;
        use redeval_avail::ServerParams;
        use redeval_harm::{AttackTree, Vulnerability};
        let mut tiers: Vec<TierSpec> = (0..MAX_ENTRY_TIERS + 1)
            .map(|i| TierSpec {
                name: format!("edge{i}"),
                count: 1,
                params: ServerParams::builder(format!("edge{i}")).build(),
                tree: Some(AttackTree::leaf(Vulnerability::new("v", 5.0, 0.5))),
                entry: true,
                target: false,
            })
            .collect();
        tiers.push(TierSpec {
            name: "core".into(),
            count: 1,
            params: ServerParams::builder("core").build(),
            tree: Some(AttackTree::leaf(Vulnerability::new("w", 5.0, 0.5))),
            entry: false,
            target: true,
        });
        let edges: Vec<(usize, usize)> = (0..MAX_ENTRY_TIERS + 1)
            .map(|i| (i, MAX_ENTRY_TIERS + 1))
            .collect();
        let spec = NetworkSpec::new(tiers, edges);
        let err = EquilibriumAnalyzer::new(spec)
            .run(&Pool::new(1), &fresh_cache())
            .unwrap_err();
        assert!(matches!(
            err,
            EvalError::InvalidSpec(SpecIssue::TooManyEntryTiers { .. })
        ));
        assert!(err.to_string().contains("entry tiers"));
    }

    #[test]
    fn iteration_cap_is_respected() {
        let doc = builtin::paper_case_study();
        let outcome = EquilibriumAnalyzer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(2)
            .max_iters(1)
            .run(&Pool::new(default_threads()), &fresh_cache())
            .unwrap();
        assert_eq!(outcome.iterations, 1);
        assert_eq!(outcome.trace.len(), 1);
    }

    #[test]
    fn attacker_full_mask_matches_the_static_pipeline() {
        // The design under the full entry mask must score exactly the
        // classic evaluation path's after-patch metrics.
        use crate::exec::Sweep;
        use crate::spec::Design;
        let doc = builtin::paper_case_study();
        let analyzer = EquilibriumAnalyzer::from_scenario(&doc).unwrap();
        let k = analyzer.spec.entry_tiers().len();
        let counts = vec![1; analyzer.spec.tiers().len()];
        let policy = analyzer.policies[0];
        let expected = analyzer
            .spec
            .with_counts(&counts)
            .unwrap()
            .build_harm()
            .patched(&move |v| policy.patches(v))
            .metrics(&analyzer.metrics);
        let full = analyzer.spec.with_entry_tiers(&vec![true; k]).unwrap();
        let masked = Sweep::new(full)
            .designs(vec![Design::new("full", counts.clone())])
            .policies(vec![policy])
            .metrics(analyzer.metrics)
            .run(&Pool::new(1), &fresh_cache())
            .unwrap();
        assert_eq!(masked.len(), 1);
        assert_eq!(expected, masked[0].after);
        // And the BR search considered that mask (the all-ones bits).
        let a = analyzer
            .attacker_response_exhaustive(&counts, 0, &AnalysisCache::new())
            .unwrap();
        assert_eq!(a.evaluated as u64, (1u64 << k) - 1);
    }
}
