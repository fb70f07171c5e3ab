//! Pruned design-space search: deterministic branch-and-bound over the
//! per-tier redundancy-count space, replacing exhaustive grid
//! materialization for the paper's decision analysis (Eqs. (3)–(4)).
//!
//! # The search
//!
//! The candidate space is the box `[1, max_redundancy]^T` of per-tier
//! counts crossed with the patch-policy list — the same space
//! [`Sweep::full_design_space`] materializes eagerly, which caps it at
//! grids the executor can hold. The optimizer instead subdivides the
//! box and prunes sub-boxes whose *optimistic* objective point is
//! already dominated by the incremental Pareto front ([`ParetoFront`])
//! on (after-patch ASP ↓, COA ↑), so only candidates near the frontier
//! are ever evaluated.
//!
//! # Why the bounds are sound (DESIGN.md §11)
//!
//! * **ASP lower bound** — adding a host to a tier can only add attack
//!   paths (an unexploitable tier adds none), and every ASP aggregation
//!   is monotone in the path set, so per policy `ASP(c) ≥ ASP(lo)` for
//!   every `c` in a box `[lo, hi]`. (This holds while path enumeration
//!   stays under `MetricsConfig::max_paths`; past the cap metrics
//!   saturate and the monotone argument no longer applies.) A child box
//!   inherits its parent's corner bound — `parent.lo ≤ child.lo`
//!   componentwise — so a child can be pruned *before* its own corner
//!   is ever evaluated.
//! * **COA upper bound** — raw COA is *not* monotone in counts (it is
//!   normalized by the total server count), so no corner evaluation
//!   bounds it. Instead the bound comes from the exact factored form of
//!   the independent-tier availability model:
//!   `COA(c) · Σ_t c_t = Σ_t m_t(c_t) · Π_{s≠t} p_s(c_s)` where
//!   `p_t(c) = P(up_t ≥ 1)` and `m_t(c) = E[up_t · 1{up_t ≥ 1}]` under
//!   tier `t`'s aggregated machine-repair chain. Replacing each
//!   `p_s(c_s)` by its maximum over the box range makes the numerator
//!   separable per tier; a small dynamic program then maximizes the
//!   surrogate `Σ_t m_t(c_t)·p̄_t / Σ_t c_t` *exactly* over the box
//!   (best numerator for every achievable total, then best ratio).
//!   Both bounds carry a relative safety margin of `1e-9` so float
//!   rounding in either direction can never turn a sound prune into a
//!   wrong one.
//!
//! A box is pruned only when, for **every** policy, some front member
//! strictly dominates its optimistic point `(asp_floor, coa_ub)`.
//! Domination is strict in the [`dominates`](crate::decision::dominates)
//! sense, so a box that might contain an exact objective tie with a
//! front member is never pruned — the surviving frontier is exactly the
//! frontier of the exhaustive enumeration, ties included.
//!
//! # Determinism
//!
//! Traversal is a fixed-order wave loop: boxes split on the widest tier
//! range (lowest tier index on ties, counts ascending), each wave's
//! corner designs evaluate as one [`Sweep`] on the caller's [`Pool`] and
//! [`AnalysisCache`] (bitwise invariant in the pool size and the cache
//! state), and the front updates
//! sequentially in wave order. The reported frontier is re-sorted under
//! the exhaustive tie-break (ascending ASP, then design-enumeration
//! order, then policy order), so the outcome is byte-identical to
//! [`pareto_frontier`] over the materialized grid on any pool.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use redeval::exec::{AnalysisCache, Pool};
//! use redeval::optimize::Optimizer;
//! use redeval::scenario::builtin;
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let doc = builtin::paper_case_study();
//! let cache = Arc::new(AnalysisCache::new());
//! let outcome = Optimizer::from_scenario(&doc)?
//!     .max_redundancy(3)
//!     .run(&Pool::new(2), &cache)?;
//! assert!(!outcome.frontier.is_empty());
//! assert!((outcome.evaluated_designs as f64) <= outcome.space_designs);
//! # Ok(())
//! # }
//! ```

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use redeval_avail::{tier_moments, ServerAnalysis};
use redeval_harm::MetricsConfig;

use crate::decision::{pareto_frontier, ParetoFront};
use crate::error::EvalError;
use crate::evaluation::{DesignEvaluation, PatchPolicy};
use crate::exec::{AnalysisCache, Pool, Sweep};
use crate::spec::{Design, NetworkSpec};

/// Default per-tier count bound when a request does not name one —
/// matches the CLI's `--max-redundancy` default.
pub const DEFAULT_MAX_REDUNDANCY: u32 = 4;

/// Relative safety margin applied to both optimistic bounds: ASP floors
/// shrink and COA ceilings grow by this factor, so float rounding in
/// the evaluation pipeline (factored vs enumerated availability, path
/// aggregation order) can never turn a sound prune into a wrong one.
/// Observed discrepancies are ~1e-15 relative; the margin costs a few
/// extra evaluations near the frontier and nothing else.
const FP_MARGIN: f64 = 1e-9;

/// A sub-box of the design space: per-tier count ranges `[lo_i, hi_i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SpaceBox {
    lo: Vec<u32>,
    hi: Vec<u32>,
}

impl SpaceBox {
    fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    /// Widest dimension, lowest index on ties.
    fn widest(&self) -> usize {
        let mut best = 0;
        let mut width = 0;
        for (i, (l, h)) in self.lo.iter().zip(&self.hi).enumerate() {
            let w = h - l;
            if w > width {
                width = w;
                best = i;
            }
        }
        best
    }
}

/// Per-tier availability tables backing the box-level COA bound: for
/// tier `t` at count `c`, `p[t][c-1] = P(up ≥ 1)` and
/// `m[t][c-1] = E[up · 1{up ≥ 1}]` under the tier's aggregated
/// machine-repair chain — the [`tier_moments`] the factored COA form of
/// [`NetworkModel`](redeval_avail::NetworkModel) uses.
struct CoaBounder {
    p: Vec<Vec<f64>>,
    m: Vec<Vec<f64>>,
}

impl CoaBounder {
    fn new(analyses: &[Arc<ServerAnalysis>], max_redundancy: u32) -> Result<Self, EvalError> {
        let mut p = Vec::with_capacity(analyses.len());
        let mut m = Vec::with_capacity(analyses.len());
        for analysis in analyses {
            let rates = analysis.rates();
            let mut pt = Vec::with_capacity(max_redundancy as usize);
            let mut mt = Vec::with_capacity(max_redundancy as usize);
            for c in 1..=max_redundancy {
                let (prob_up, mean_up, _) = tier_moments(&rates.down_distribution(c)?);
                pt.push(prob_up);
                mt.push(mean_up);
            }
            p.push(pt);
            m.push(mt);
        }
        Ok(CoaBounder { p, m })
    }

    /// Sound upper bound on COA over every design in the box: the exact
    /// maximum of the separable surrogate (see the [module docs](self)),
    /// inflated by [`FP_MARGIN`].
    fn coa_upper_bound(&self, b: &SpaceBox) -> f64 {
        let n = self.p.len();
        // Per-tier max of P(up ≥ 1) over the count range. (Monotone in
        // the count in practice, but soundness never rests on that.)
        let pmax: Vec<f64> = (0..n)
            .map(|t| {
                (b.lo[t]..=b.hi[t])
                    .map(|c| self.p[t][(c - 1) as usize])
                    .fold(0.0, f64::max)
            })
            .collect();
        // pbar[t] = Π_{s≠t} pmax[s] via prefix/suffix products.
        let mut prefix = vec![1.0; n + 1];
        for (i, &v) in pmax.iter().enumerate() {
            prefix[i + 1] = prefix[i] * v;
        }
        let mut suffix = vec![1.0; n + 1];
        for i in (0..n).rev() {
            suffix[i] = suffix[i + 1] * pmax[i];
        }
        // dp[j] = best surrogate numerator over partial totals
        // Σ lo_t + j; one pass per tier keeps it exact.
        let mut dp = vec![0.0f64];
        for t in 0..n {
            let width = (b.hi[t] - b.lo[t]) as usize;
            let pbar = prefix[t] * suffix[t + 1];
            let mut next = vec![f64::NEG_INFINITY; dp.len() + width];
            for (j, &v) in dp.iter().enumerate() {
                if v == f64::NEG_INFINITY {
                    continue;
                }
                for c in b.lo[t]..=b.hi[t] {
                    let off = j + (c - b.lo[t]) as usize;
                    let val = v + self.m[t][(c - 1) as usize] * pbar;
                    if val > next[off] {
                        next[off] = val;
                    }
                }
            }
            dp = next;
        }
        let total_lo: u32 = b.lo.iter().sum();
        let mut best = 0.0f64;
        for (j, &v) in dp.iter().enumerate() {
            if v == f64::NEG_INFINITY {
                continue;
            }
            best = best.max(v / (f64::from(total_lo) + j as f64));
        }
        best * (1.0 + FP_MARGIN)
    }
}

/// What one pruned-search run found and what it cost.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The Pareto frontier on (after-patch ASP ↓, COA ↑) — byte-identical
    /// to [`pareto_frontier`] over the exhaustively enumerated
    /// design × policy grid, in the same order.
    pub frontier: Vec<DesignEvaluation>,
    /// Index into the optimizer's policy list of each frontier member,
    /// aligned with [`frontier`](Self::frontier) — the equilibrium layer
    /// reads the defender's chosen policy from here instead of parsing
    /// it back out of the scenario label.
    pub frontier_policy_indices: Vec<usize>,
    /// Distinct designs actually evaluated (low corners of surviving
    /// boxes, which include every surviving point).
    pub evaluated_designs: usize,
    /// Design × policy cells actually evaluated
    /// (`evaluated_designs × policies`).
    pub evaluated_cells: usize,
    /// Boxes taken off the work list (pruned, split or collapsed to a
    /// point).
    pub boxes_explored: usize,
    /// Boxes discarded because their optimistic bound was dominated for
    /// every policy.
    pub boxes_pruned: usize,
    /// The pruned boxes themselves, as `(lo, hi)` per-tier count ranges —
    /// every design inside one is dominated (the differential proptests
    /// assert no frontier member falls in any of them).
    pub pruned_boxes: Vec<(Vec<u32>, Vec<u32>)>,
    /// Total designs in the space, `max_redundancy ^ tiers` (as `f64`:
    /// fleet-scale spaces overflow any integer width).
    pub space_designs: f64,
    /// Total design × policy cells in the space.
    pub space_cells: f64,
}

impl OptimizeOutcome {
    /// Fraction of the design × policy space actually evaluated.
    pub fn evaluated_fraction(&self) -> f64 {
        if self.space_cells > 0.0 {
            self.evaluated_cells as f64 / self.space_cells
        } else {
            0.0
        }
    }
}

/// Deterministic branch-and-bound over the redundancy-count design
/// space (see the [module docs](self)).
///
/// Mirrors the [`Sweep`] builder: policies and metrics default from the
/// scenario document, and [`run`](Optimizer::run) evaluates on the
/// caller's [`Pool`] and [`AnalysisCache`], so every wave shares the
/// caller's per-tier solves.
#[derive(Debug, Clone)]
pub struct Optimizer {
    spec: Arc<NetworkSpec>,
    policies: Vec<PatchPolicy>,
    metrics: MetricsConfig,
    max_redundancy: u32,
}

impl Optimizer {
    /// An optimizer over `spec` with the paper's critical-only policy,
    /// default metrics and [`DEFAULT_MAX_REDUNDANCY`].
    pub fn new(spec: NetworkSpec) -> Self {
        Optimizer {
            spec: Arc::new(spec),
            policies: vec![PatchPolicy::CriticalOnly(8.0)],
            metrics: MetricsConfig::default(),
            max_redundancy: DEFAULT_MAX_REDUNDANCY,
        }
    }

    /// An optimizer over a scenario document: its network, its policy
    /// list and its metric configuration. The document's explicit design
    /// list is *not* consulted — the search explores the full
    /// `1..=max_redundancy` space.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors.
    pub fn from_scenario(doc: &crate::scenario::ScenarioDoc) -> Result<Self, EvalError> {
        let spec = doc.to_spec()?;
        Ok(Optimizer::new(spec)
            .policies(doc.policies.clone())
            .metrics(doc.metrics))
    }

    /// Sets the per-tier count bound (clamped to at least 1).
    pub fn max_redundancy(mut self, max_redundancy: u32) -> Self {
        self.max_redundancy = max_redundancy.max(1);
        self
    }

    /// Sets the patch-policy axis.
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

    /// Total designs in the search space, `max_redundancy ^ tiers`.
    pub fn space_designs(&self) -> f64 {
        f64::from(self.max_redundancy).powi(self.spec.tiers().len() as i32)
    }

    /// Evaluates the not-yet-memoized designs of `need` as one [`Sweep`]
    /// (all policies per design, one cell each) and offers every result
    /// to the front.
    fn evaluate_wave(
        &self,
        pool: &Pool,
        cache: &Arc<AnalysisCache>,
        need: &[Vec<u32>],
        memo: &mut HashMap<Vec<u32>, Vec<DesignEvaluation>>,
        front: &mut ParetoFront<(usize, DesignEvaluation)>,
    ) -> Result<(), EvalError> {
        if need.is_empty() {
            return Ok(());
        }
        let names: Vec<&str> = self.spec.tiers().iter().map(|t| t.name.as_str()).collect();
        let designs = need
            .iter()
            .map(|counts| Design::new(Design::conventional_name(&names, counts), counts.clone()))
            .collect();
        let evals = Sweep::new(Arc::clone(&self.spec))
            .designs(designs)
            .policies(self.policies.clone())
            .metrics(self.metrics)
            .run(pool, cache)?;
        for (counts, cell) in need.iter().zip(evals.chunks(self.policies.len())) {
            for (policy_idx, e) in cell.iter().enumerate() {
                front.insert(
                    e.after.attack_success_probability,
                    e.coa,
                    (policy_idx, e.clone()),
                );
            }
            memo.insert(counts.clone(), cell.to_vec());
        }
        Ok(())
    }

    /// Runs the search, evaluating each wave's corners on `pool` with
    /// tier solves resolved through `cache`. The outcome is
    /// bitwise-identical for any pool size and any cache state.
    ///
    /// # Errors
    ///
    /// Returns count-validation and solver errors (earliest in wave
    /// order, like the batch executor).
    pub fn run(
        &self,
        pool: &Pool,
        cache: &Arc<AnalysisCache>,
    ) -> Result<OptimizeOutcome, EvalError> {
        let tiers = self.spec.tiers().len();
        let space_designs = self.space_designs();
        let space_cells = space_designs * self.policies.len() as f64;
        let tel = cache.telemetry().clone();
        let _span = tel.span(format!("optimize (max_redundancy {})", self.max_redundancy));
        let analyses = cache.analyses_for(&self.spec)?;
        let bounder = CoaBounder::new(&analyses, self.max_redundancy)?;

        let mut memo: HashMap<Vec<u32>, Vec<DesignEvaluation>> = HashMap::new();
        let mut front: ParetoFront<(usize, DesignEvaluation)> = ParetoFront::new();
        // A wave item carries the ASP floors (one per policy) inherited
        // from its parent's low corner — a valid lower bound since
        // `parent.lo ≤ child.lo` — so dominated children prune before
        // evaluating anything.
        let mut wave = vec![(
            SpaceBox {
                lo: vec![1; tiers],
                hi: vec![self.max_redundancy; tiers],
            },
            vec![f64::NEG_INFINITY; self.policies.len()],
        )];
        let mut boxes_explored = 0;
        let mut boxes_pruned = 0;
        let mut pruned_boxes = Vec::new();

        let mut wave_no = 0usize;
        while !wave.is_empty() {
            wave_no += 1;
            let _wave_span = tel.span(format!("wave {wave_no} ({} boxes)", wave.len()));
            // Stage A: prune on inherited floors, no evaluation needed.
            let mut survivors = Vec::with_capacity(wave.len());
            for (b, floors) in wave {
                boxes_explored += 1;
                tel.add(crate::telemetry::Counter::BoxesExplored, 1);
                let coa_ub = bounder.coa_upper_bound(&b);
                if floors.iter().all(|&f| front.dominates_point(f, coa_ub)) {
                    boxes_pruned += 1;
                    tel.add(crate::telemetry::Counter::BoxesPruned, 1);
                    pruned_boxes.push((b.lo, b.hi));
                    continue;
                }
                survivors.push((b, coa_ub));
            }

            // Evaluate the surviving low corners, first-appearance order.
            let mut need: Vec<Vec<u32>> = Vec::new();
            let mut queued: HashSet<Vec<u32>> = HashSet::new();
            for (b, _) in &survivors {
                if !memo.contains_key(&b.lo) && queued.insert(b.lo.clone()) {
                    need.push(b.lo.clone());
                }
            }
            self.evaluate_wave(pool, cache, &need, &mut memo, &mut front)?;

            // Stage B: re-prune on the exact corner ASP, else split.
            let mut next = Vec::new();
            for (b, coa_ub) in survivors {
                if b.is_point() {
                    continue; // Its single design was evaluated above.
                }
                let floors: Vec<f64> = memo[&b.lo]
                    .iter()
                    .map(|e| e.after.attack_success_probability * (1.0 - FP_MARGIN))
                    .collect();
                if floors.iter().all(|&f| front.dominates_point(f, coa_ub)) {
                    boxes_pruned += 1;
                    tel.add(crate::telemetry::Counter::BoxesPruned, 1);
                    pruned_boxes.push((b.lo, b.hi));
                    continue;
                }
                let d = b.widest();
                let mid = b.lo[d] + (b.hi[d] - b.lo[d]) / 2;
                let mut low_half = b.clone();
                low_half.hi[d] = mid;
                let mut high_half = b;
                high_half.lo[d] = mid + 1;
                next.push((low_half, floors.clone()));
                next.push((high_half, floors));
            }
            wave = next;
        }

        // Re-sort exact ASP ties under the exhaustive grid's tie-break:
        // design-enumeration order (counts[0] fastest), then policy.
        let mut entries = front.into_entries();
        entries.sort_by(|(a_asp, _, (a_p, a_e)), (b_asp, _, (b_p, b_e))| {
            a_asp.partial_cmp(b_asp).expect("finite ASP").then_with(|| {
                a_e.counts
                    .iter()
                    .rev()
                    .cmp(b_e.counts.iter().rev())
                    .then(a_p.cmp(b_p))
            })
        });
        let evaluated_designs = memo.len();
        let frontier_policy_indices = entries.iter().map(|(_, _, (p, _))| *p).collect();
        Ok(OptimizeOutcome {
            frontier: entries.into_iter().map(|(_, _, (_, e))| e).collect(),
            frontier_policy_indices,
            evaluated_designs,
            evaluated_cells: evaluated_designs * self.policies.len(),
            boxes_explored,
            boxes_pruned,
            pruned_boxes,
            space_designs,
            space_cells,
        })
    }
}

/// Reference implementation for small spaces: materialize the full grid
/// on `pool` and `cache` through the batch executor and take
/// [`pareto_frontier`] — what the optimizer must agree with
/// byte-for-byte.
///
/// # Errors
///
/// Propagates grid evaluation errors.
pub fn exhaustive_frontier(
    optimizer: &Optimizer,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Vec<DesignEvaluation>, EvalError> {
    let evals = Sweep::new(Arc::clone(&optimizer.spec))
        .full_design_space(optimizer.max_redundancy)
        .policies(optimizer.policies.clone())
        .metrics(optimizer.metrics)
        .run(pool, cache)?;
    Ok(pareto_frontier(&evals).into_iter().cloned().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::default_threads;
    use crate::scenario::builtin;

    /// An empty cache for a search whose solves nothing else shares.
    fn fresh_cache() -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache::new())
    }

    #[test]
    fn matches_exhaustive_frontier_on_the_case_study() {
        // r = 8 is the top of the front doors' `max_redundancy` range.
        let doc = builtin::paper_case_study();
        let pool = Pool::new(default_threads());
        for r in [3u32, 8] {
            let opt = Optimizer::from_scenario(&doc).unwrap().max_redundancy(r);
            let outcome = opt.run(&pool, &fresh_cache()).unwrap();
            let exhaustive = exhaustive_frontier(&opt, &pool, &fresh_cache()).unwrap();
            assert_eq!(outcome.frontier.len(), exhaustive.len(), "r = {r}");
            for (a, b) in outcome.frontier.iter().zip(&exhaustive) {
                assert_eq!(a, b, "r = {r}");
                assert_eq!(a.coa.to_bits(), b.coa.to_bits());
                assert_eq!(
                    a.after.attack_success_probability.to_bits(),
                    b.after.attack_success_probability.to_bits()
                );
            }
            // The search never pays for the whole grid.
            assert!(outcome.evaluated_designs as f64 <= outcome.space_designs);
            assert_eq!(outcome.space_designs, f64::from(r).powi(4)); // r^4 designs
        }
    }

    #[test]
    fn thread_count_does_not_change_the_outcome() {
        let doc = builtin::ecommerce();
        let reference = Optimizer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(3)
            .run(&Pool::new(1), &fresh_cache())
            .unwrap();
        for threads in [2, 4] {
            let outcome = Optimizer::from_scenario(&doc)
                .unwrap()
                .max_redundancy(3)
                .run(&Pool::new(threads), &fresh_cache())
                .unwrap();
            assert_eq!(outcome.frontier, reference.frontier);
            assert_eq!(outcome.evaluated_designs, reference.evaluated_designs);
            assert_eq!(outcome.boxes_pruned, reference.boxes_pruned);
        }
    }

    #[test]
    fn pooled_run_is_identical_and_shares_the_cache() {
        let doc = builtin::paper_case_study();
        let pool = Pool::new(3);
        let cache = Arc::new(AnalysisCache::new());
        let opt = Optimizer::from_scenario(&doc).unwrap().max_redundancy(2);
        let pooled = opt.run(&pool, &cache).unwrap();
        let single = opt.run(&Pool::new(1), &cache).unwrap();
        assert_eq!(pooled.frontier, single.frontier);
        assert!(cache.solves() > 0);
    }

    #[test]
    fn single_point_space_is_the_whole_frontier_discussion() {
        let doc = builtin::paper_case_study();
        let outcome = Optimizer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(1)
            .run(&Pool::new(default_threads()), &fresh_cache())
            .unwrap();
        assert_eq!(outcome.evaluated_designs, 1);
        assert_eq!(outcome.space_designs, 1.0);
        assert_eq!(outcome.boxes_pruned, 0);
        assert!(!outcome.frontier.is_empty());
    }

    #[test]
    fn pruned_boxes_never_contain_frontier_members() {
        let doc = builtin::ecommerce();
        let outcome = Optimizer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(4)
            .run(&Pool::new(default_threads()), &fresh_cache())
            .unwrap();
        for member in &outcome.frontier {
            for (lo, hi) in &outcome.pruned_boxes {
                let inside = member
                    .counts
                    .iter()
                    .zip(lo.iter().zip(hi))
                    .all(|(c, (l, h))| l <= c && c <= h);
                assert!(!inside, "frontier member {} in pruned box", member.name);
            }
        }
    }

    #[test]
    fn search_prunes_most_of_a_larger_space() {
        let doc = builtin::ecommerce();
        let outcome = Optimizer::from_scenario(&doc)
            .unwrap()
            .max_redundancy(4)
            .run(&Pool::new(default_threads()), &fresh_cache())
            .unwrap();
        assert!(outcome.boxes_pruned > 0, "no pruning at all");
        assert!(
            (outcome.evaluated_designs as f64) < outcome.space_designs,
            "evaluated {} of {}",
            outcome.evaluated_designs,
            outcome.space_designs
        );
    }
}
