//! Report builder for the pruned design-space search.
//!
//! [`optimize_report_on`] is the engine behind `redeval optimize` and
//! `POST /v1/optimize`: it runs the branch-and-bound search of
//! [`redeval::optimize`] over the per-tier redundancy space of a
//! scenario document and reports the Pareto frontier on (after-patch
//! ASP ↓, COA ↑) together with the search counters. The frontier is
//! byte-identical to what exhaustively enumerating the grid and
//! filtering with `pareto_frontier` would produce — that
//! equivalence is pinned by `tests/optimize_differential.rs` — but the
//! search visits only a fraction of the space, so it accepts documents
//! the sweep path's [`MAX_SWEEP_GRID`](super::scenario::MAX_SWEEP_GRID)
//! cap rejects.
//!
//! Like every registry builder, the report records **no wall-clock and
//! no machine parallelism**: the search counters (`boxes_explored`,
//! `evaluated_cells`, …) are deterministic functions of the request.

use std::sync::Arc;

use redeval::decision::ScatterBounds;
use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval::optimize::DEFAULT_MAX_REDUNDANCY;
use redeval::output::{Report, Value};
use redeval::scenario::builtin;
use redeval::{EvalError, OptimizeOutcome, Optimizer};
use redeval_server::OptimizeRequest;

use super::scenario::eval_table_from;

/// Evaluates an optimize request — a scenario document plus optional
/// policy list, per-tier bound and (φ, ψ) decision bounds — on `pool`
/// and `cache` into a report named `optimize_<scenario>`: the engine of
/// `redeval optimize` and `POST /v1/optimize`.
///
/// # Errors
///
/// Scenario validation and solver errors. Unlike the sweep path there
/// is no grid cap: the search never materializes the design space.
pub fn optimize_report_on(
    req: &OptimizeRequest,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Report, EvalError> {
    let doc = &req.doc;
    let max_redundancy = req.max_redundancy.unwrap_or(DEFAULT_MAX_REDUNDANCY);
    let mut optimizer = Optimizer::from_scenario(doc)?
        .max_redundancy(max_redundancy)
        .share_cache(cache);
    if let Some(policies) = &req.policies {
        optimizer = optimizer.policies(policies.clone());
    }
    let outcome = optimizer.run(pool)?;

    let mut r = Report::new(
        format!("optimize_{}", doc.name),
        format!("Pruned design-space search — {}", doc.title),
    );
    if !doc.description.is_empty() {
        r.note(doc.description.clone());
    }
    let policies: Vec<String> = match &req.policies {
        Some(p) => p.iter().map(ToString::to_string).collect(),
        None => doc.policies.iter().map(ToString::to_string).collect(),
    };
    r.keys([
        ("scenario", Value::from(doc.name.as_str())),
        ("tiers", Value::from(doc.tiers.len())),
        ("max_redundancy", Value::from(max_redundancy)),
        ("policies", Value::from(policies.join("; "))),
        ("space_designs", Value::from(outcome.space_designs)),
        ("space_cells", Value::from(outcome.space_cells)),
        ("evaluated_designs", Value::from(outcome.evaluated_designs)),
        ("evaluated_cells", Value::from(outcome.evaluated_cells)),
        (
            "evaluated_fraction",
            Value::from(outcome.evaluated_fraction()),
        ),
        ("boxes_explored", Value::from(outcome.boxes_explored)),
        ("boxes_pruned", Value::from(outcome.boxes_pruned)),
        ("frontier_size", Value::from(outcome.frontier.len())),
    ]);
    // Search-soundness self-checks: a regression flips `ok` in the
    // golden. The frontier is ASP-ascending by construction, and the
    // search can never evaluate more cells than the space holds.
    r.check(
        outcome.frontier.windows(2).all(|w| {
            w[0].after.attack_success_probability <= w[1].after.attack_success_probability
        }),
    );
    r.check(outcome.evaluated_cells as f64 <= outcome.space_cells);
    r.table(eval_table_from("frontier", &outcome.frontier));
    if let Some(bounds) = &req.bounds {
        satisfying_section(&mut r, bounds, &outcome);
    }
    r.note(
        "frontier computed by branch-and-bound over the per-tier count \
         space 1..=max_redundancy — byte-identical to exhaustively \
         enumerating the grid and keeping the Pareto-optimal \
         (ASP, COA) points, at any thread count",
    );
    Ok(r)
}

/// The administrator's decision view (the paper's Equation (3) region):
/// frontier members satisfying `ASP ≤ φ ∧ COA ≥ ψ`. A design anywhere
/// in the space satisfies the bounds iff some *frontier* member does —
/// every design is weakly dominated by a frontier member — so an empty
/// table proves the whole space unsatisfying.
fn satisfying_section(r: &mut Report, bounds: &ScatterBounds, outcome: &OptimizeOutcome) {
    let satisfying: Vec<_> = outcome
        .frontier
        .iter()
        .filter(|e| bounds.satisfied(e))
        .cloned()
        .collect();
    r.keys([
        ("max_asp", Value::from(bounds.max_asp)),
        ("min_coa", Value::from(bounds.min_coa)),
        ("satisfying", Value::from(satisfying.len())),
    ]);
    r.table(eval_table_from("satisfying", &satisfying));
    if satisfying.is_empty() {
        r.note(
            "no frontier member satisfies the bounds; since every design \
             is weakly dominated by a frontier member, no design in the \
             space does",
        );
    }
}

/// The request a bare `redeval optimize` runs: the paper's case-study
/// network with its bundled policy, the default per-tier bound, and the
/// paper's Equation (3) region bounds (φ = 0.2, ψ = 0.9962).
pub fn default_request() -> OptimizeRequest {
    OptimizeRequest {
        doc: builtin::paper_case_study(),
        policies: None,
        max_redundancy: None,
        bounds: Some(ScatterBounds {
            max_asp: 0.2,
            min_coa: 0.9962,
        }),
    }
}

/// The registry entry: [`default_request`] evaluated on a fresh pool and
/// cache and pinned under the registry key `optimize` (the golden-corpus
/// contract names every registry report after its key; the serving/CLI
/// paths keep the `optimize_<scenario>` convention).
pub fn builtin_optimize() -> Report {
    let pool = Pool::new(default_threads());
    let mut r = optimize_report_on(&default_request(), &pool, &Arc::new(AnalysisCache::new()))
        .expect("builtin optimize report");
    r.name = "optimize".into();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval::optimize::exhaustive_frontier;

    /// [`optimize_report_on`] on `pool` with a fresh cache.
    fn optimize_report(req: &OptimizeRequest, pool: &Pool) -> Result<Report, EvalError> {
        optimize_report_on(req, pool, &Arc::new(AnalysisCache::new()))
    }

    #[test]
    fn builtin_report_is_deterministic_and_passes_checks() {
        let r = builtin_optimize();
        assert!(r.ok);
        assert_eq!(r.name, "optimize");
        assert_eq!(r.to_json(), builtin_optimize().to_json());
    }

    #[test]
    fn report_frontier_table_matches_the_exhaustive_frontier() {
        let doc = builtin::paper_case_study();
        let req = OptimizeRequest {
            doc: doc.clone(),
            policies: None,
            max_redundancy: Some(3),
            bounds: None,
        };
        let pool = Pool::new(default_threads());
        let r = optimize_report(&req, &pool).unwrap();
        let exhaustive = exhaustive_frontier(
            &Optimizer::from_scenario(&doc).unwrap().max_redundancy(3),
            &pool,
        )
        .unwrap();
        let table = r.to_json();
        for e in &exhaustive {
            assert!(
                table.contains(&e.name),
                "frontier member {} missing from the report",
                e.name
            );
        }
        assert!(table.contains(&format!("\"frontier_size\": {}", exhaustive.len())));
    }

    #[test]
    fn policy_and_bound_overrides_shape_the_report() {
        let req = OptimizeRequest {
            doc: builtin::paper_case_study(),
            policies: Some(vec![redeval::PatchPolicy::None, redeval::PatchPolicy::All]),
            max_redundancy: Some(2),
            bounds: Some(ScatterBounds {
                max_asp: 0.2,
                min_coa: 0.9962,
            }),
        };
        let r = optimize_report(&req, &Pool::new(default_threads())).unwrap();
        let json = r.to_json();
        assert!(json.contains("\"max_redundancy\": 2"));
        assert!(json.contains("no patch; patch all"));
        assert!(json.contains("\"max_asp\": 0.2"));
        assert!(json.contains("\"satisfying\""));
    }
}
