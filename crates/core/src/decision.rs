//! The paper's decision functions: Equations (3) and (4).
//!
//! An administrator defines upper bounds on the security metrics and a
//! lower bound on COA; a design *satisfies* the requirements when every
//! bound holds. [`ScatterBounds`] is Equation (3) (two metrics, the
//! Figure 6 scatter analysis); [`MultiBounds`] is Equation (4) (the
//! Figure 7 radar analysis). Both are [`DecisionFunction`]s.

use crate::evaluation::DesignEvaluation;

/// A decision function of the paper: the administrator's bounds, which a
/// design satisfies when every one of them holds.
pub trait DecisionFunction {
    /// Evaluates the decision function on a design evaluation.
    fn satisfied(&self, e: &DesignEvaluation) -> bool;

    /// The subset of designs satisfying the bounds (the paper's
    /// "region"), in input order.
    fn region<'a>(&self, evals: &'a [DesignEvaluation]) -> Vec<&'a DesignEvaluation> {
        evals.iter().filter(|e| self.satisfied(e)).collect()
    }
}

/// Equation (3): `f(ASP, COA) = 1 ⇔ ASP ≤ φ ∧ COA ≥ ψ`.
///
/// Bounds are checked against the **after-patch** security metrics, as in
/// the paper's Section IV-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterBounds {
    /// φ — upper bound on the attack success probability.
    pub max_asp: f64,
    /// ψ — lower bound on the capacity-oriented availability.
    pub min_coa: f64,
}

impl DecisionFunction for ScatterBounds {
    fn satisfied(&self, e: &DesignEvaluation) -> bool {
        e.after.attack_success_probability <= self.max_asp && e.coa >= self.min_coa
    }
}

/// Equation (4): bounds on ASP, NoEV, NoAP, NoEP and COA.
///
/// AIM carries no bound because it is identical across the paper's designs
/// (the longest attack path is shared); a bound can still be expressed by
/// filtering on [`DesignEvaluation::after`] directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiBounds {
    /// φ — upper bound on attack success probability.
    pub max_asp: f64,
    /// ξ — upper bound on the number of exploitable vulnerabilities.
    pub max_noev: usize,
    /// ω — upper bound on the number of attack paths.
    pub max_noap: usize,
    /// κ — upper bound on the number of entry points.
    pub max_noep: usize,
    /// ψ — lower bound on COA.
    pub min_coa: f64,
}

impl DecisionFunction for MultiBounds {
    fn satisfied(&self, e: &DesignEvaluation) -> bool {
        e.after.attack_success_probability <= self.max_asp
            && e.after.exploitable_vulnerabilities <= self.max_noev
            && e.after.attack_paths <= self.max_noap
            && e.after.entry_points <= self.max_noep
            && e.coa >= self.min_coa
    }
}

/// Whether `a` Pareto-dominates `b` on (after-patch ASP ↓, COA ↑): at
/// least as good on both axes and strictly better on one.
pub fn dominates(a: &DesignEvaluation, b: &DesignEvaluation) -> bool {
    let (a_asp, b_asp) = (
        a.after.attack_success_probability,
        b.after.attack_success_probability,
    );
    (a_asp <= b_asp && a.coa >= b.coa) && (a_asp < b_asp || a.coa > b.coa)
}

/// Whether the objective point `(a_asp, a_coa)` dominates
/// `(b_asp, b_coa)` — the point-wise form of [`dominates`], shared with
/// the incremental [`ParetoFront`] and the optimizer's bound checks.
pub fn dominates_point(a_asp: f64, a_coa: f64, b_asp: f64, b_coa: f64) -> bool {
    (a_asp <= b_asp && a_coa >= b_coa) && (a_asp < b_asp || a_coa > b_coa)
}

/// An incrementally maintained Pareto front on (ASP ↓, COA ↑).
///
/// Entries are kept sorted by ascending ASP. The non-domination
/// invariant makes COA non-decreasing along that order: a higher-ASP
/// survivor must buy strictly more COA, and equal-ASP survivors share
/// one COA value (exact objective ties are all kept, mirroring
/// [`dominates`]' strictness). Each insertion is a binary search plus a
/// contiguous splice, so building a front from `n` candidates costs
/// O(n log n + removals) instead of the former O(n²) all-pairs scan.
///
/// The surviving *set* is insertion-order independent (the Pareto front
/// of a set is unique, ties included); only the relative order of exact
/// ties reflects insertion order, which [`ParetoFront::into_entries`]
/// exposes for the caller to re-sort under its own tie-break rule.
#[derive(Debug, Clone)]
pub struct ParetoFront<T> {
    /// `(asp, coa, payload)`, sorted by `asp` ascending, ties in
    /// insertion order.
    entries: Vec<(f64, f64, T)>,
}

impl<T> Default for ParetoFront<T> {
    fn default() -> Self {
        ParetoFront::new()
    }
}

impl<T> ParetoFront<T> {
    /// An empty front.
    pub fn new() -> Self {
        ParetoFront {
            entries: Vec::new(),
        }
    }

    /// Number of members currently on the front.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the front is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// First index whose ASP is ≥ `asp` (entries are sorted by ASP).
    fn lower_bound(&self, asp: f64) -> usize {
        self.entries
            .partition_point(|(a, _, _)| a.partial_cmp(&asp).expect("finite ASP").is_lt())
    }

    /// Whether some member dominates the objective point `(asp, coa)` in
    /// the strict-[`dominates`] sense. Equal points are *not* dominated.
    ///
    /// Because COA is non-decreasing in sorted order, only the last
    /// member with ASP < `asp` and the (single) COA value at ASP ==
    /// `asp` need checking: O(log n).
    pub fn dominates_point(&self, asp: f64, coa: f64) -> bool {
        let at = self.lower_bound(asp);
        if at > 0 {
            // Strictly smaller ASP: dominating iff its COA is ≥ ours.
            let (_, c, _) = &self.entries[at - 1];
            if *c >= coa {
                return true;
            }
        }
        if let Some((a, c, _)) = self.entries.get(at) {
            if *a == asp && *c > coa {
                return true;
            }
        }
        false
    }

    /// Offers a candidate to the front. Returns `true` when the
    /// candidate survives (it is now a member, and any members it
    /// dominates have been removed); `false` when a member dominates it.
    pub fn insert(&mut self, asp: f64, coa: f64, payload: T) -> bool {
        if self.dominates_point(asp, coa) {
            return false;
        }
        let start = self.lower_bound(asp);
        // Members from `start` on have ASP ≥ ours; those with COA ≤ ours
        // are dominated (strict via the COA of exact objective ties being
        // equal — an equal point is never removed). They form a
        // contiguous run because COA is non-decreasing.
        let mut end = start;
        while let Some((a, c, _)) = self.entries.get(end) {
            let equal_point = *a == asp && *c == coa;
            if *c <= coa && !equal_point {
                end += 1;
            } else {
                break;
            }
        }
        // Exact ties keep insertion order: place behind existing equals.
        let mut at = end;
        while let Some((a, c, _)) = self.entries.get(at) {
            if *a == asp && *c == coa {
                at += 1;
            } else {
                break;
            }
        }
        self.entries.splice(start..end, std::iter::empty());
        self.entries.insert(at - (end - start), (asp, coa, payload));
        true
    }

    /// Consumes the front, returning `(asp, coa, payload)` members sorted
    /// by ascending ASP (exact ties in insertion order).
    pub fn into_entries(self) -> Vec<(f64, f64, T)> {
        self.entries
    }
}

/// The Pareto frontier of a batch of evaluations on (after-patch ASP ↓,
/// COA ↑): every design not [`dominates`]-dominated by another, sorted by
/// ascending ASP (ties in input order), in one O(n log n) pass through
/// the incremental [`ParetoFront`].
///
/// This is the batch decision function behind the design-space reports —
/// the paper's Figure 6 scatter picks from exactly this frontier.
pub fn pareto_frontier(evals: &[DesignEvaluation]) -> Vec<&DesignEvaluation> {
    let mut front = ParetoFront::new();
    for (i, e) in evals.iter().enumerate() {
        front.insert(e.after.attack_success_probability, e.coa, i);
    }
    // Inserting in input order makes the front's tie order the input
    // order, so the sorted entries are the surviving subsequence stably
    // sorted by ASP.
    front
        .into_entries()
        .into_iter()
        .map(|(_, _, i)| &evals[i])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval_harm::SecurityMetrics;

    fn metrics(asp: f64, noev: usize, noap: usize, noep: usize) -> SecurityMetrics {
        SecurityMetrics {
            attack_impact: 42.2,
            attack_success_probability: asp,
            exploitable_vulnerabilities: noev,
            attack_paths: noap,
            entry_points: noep,
            shortest_path_length: Some(3),
            mean_path_length: 3.0,
            risk: 1.0,
        }
    }

    fn eval(asp: f64, noev: usize, noap: usize, noep: usize, coa: f64) -> DesignEvaluation {
        DesignEvaluation {
            name: "d".into(),
            counts: vec![1, 1, 1, 1],
            before: metrics(1.0, 16, 2, 2),
            after: metrics(asp, noev, noap, noep),
            coa,
            availability: coa,
            expected_up: 4.0,
        }
    }

    #[test]
    fn scatter_bounds_both_must_hold() {
        let b = ScatterBounds {
            max_asp: 0.2,
            min_coa: 0.9962,
        };
        assert!(b.satisfied(&eval(0.15, 9, 2, 1, 0.9965)));
        assert!(!b.satisfied(&eval(0.25, 9, 2, 1, 0.9965))); // ASP too high
        assert!(!b.satisfied(&eval(0.15, 9, 2, 1, 0.9950))); // COA too low
    }

    #[test]
    fn bounds_are_inclusive() {
        let b = ScatterBounds {
            max_asp: 0.2,
            min_coa: 0.996,
        };
        assert!(b.satisfied(&eval(0.2, 9, 2, 1, 0.996)));
    }

    #[test]
    fn multi_bounds_every_metric_checked() {
        let b = MultiBounds {
            max_asp: 0.2,
            max_noev: 9,
            max_noap: 2,
            max_noep: 1,
            min_coa: 0.996,
        };
        assert!(b.satisfied(&eval(0.1, 9, 2, 1, 0.997)));
        assert!(!b.satisfied(&eval(0.1, 10, 2, 1, 0.997)));
        assert!(!b.satisfied(&eval(0.1, 9, 3, 1, 0.997)));
        assert!(!b.satisfied(&eval(0.1, 9, 2, 2, 0.997)));
        assert!(!b.satisfied(&eval(0.3, 9, 2, 1, 0.997)));
        assert!(!b.satisfied(&eval(0.1, 9, 2, 1, 0.99)));
    }

    #[test]
    fn pareto_frontier_drops_dominated_designs() {
        let evals = vec![
            eval(0.1, 7, 1, 1, 0.9960), // frontier: best ASP
            eval(0.3, 9, 2, 1, 0.9970), // frontier: best COA
            eval(0.3, 9, 2, 1, 0.9960), // dominated by the second
            eval(0.2, 9, 2, 1, 0.9965), // frontier: middle trade-off
        ];
        let frontier = pareto_frontier(&evals);
        assert_eq!(frontier.len(), 3);
        // Sorted by ascending ASP.
        assert!((frontier[0].after.attack_success_probability - 0.1).abs() < 1e-12);
        assert!((frontier[2].coa - 0.9970).abs() < 1e-12);
    }

    #[test]
    fn region_filters() {
        let evals = vec![
            eval(0.1, 7, 1, 1, 0.9965),
            eval(0.3, 9, 2, 1, 0.9968),
            eval(0.1, 9, 2, 1, 0.9950),
        ];
        let b = ScatterBounds {
            max_asp: 0.2,
            min_coa: 0.996,
        };
        let region = b.region(&evals);
        assert_eq!(region.len(), 1);
        assert_eq!(region[0].after.exploitable_vulnerabilities, 7);
    }
}
