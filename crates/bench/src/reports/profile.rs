//! Report builder for the deterministic telemetry counters.
//!
//! [`builtin_profile`] runs a fixed three-stage pipeline — the paper's
//! case-study evaluation, a small branch-and-bound optimize, and a small
//! attacker–defender equilibrium — on the caller's [`Pool`] over one
//! [`AnalysisCache`] of its own carrying a counters-mode [`Telemetry`]
//! handle, and reports the counter snapshot after each stage. Counters
//! are schedule-independent by the telemetry contract (DESIGN.md §14),
//! so the report is byte-identical at any thread count and joins the
//! golden corpus like every other registry builder. Wall-clock spans are
//! **not** recorded here: this is the counters-only view; timings live
//! exclusively in the `--profile` trace file.

use std::sync::Arc;

use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{Report, Table, Value};
use redeval::scenario::builtin;
use redeval::telemetry::{Counter, CounterSnapshot, Telemetry};
use redeval_server::{EquilibriumRequest, OptimizeRequest};

use super::{equilibrium, optimize, scenario};

/// The stage labels, in execution order.
const STAGES: [&str; 3] = ["eval", "optimize", "equilibrium"];

/// The registry entry: cumulative counter snapshots across the fixed
/// pipeline on `pool`, pinned under the registry key `profile`.
pub fn builtin_profile(pool: &Pool) -> Report {
    let tel = Telemetry::counters();
    // The one cache a registry builder makes for itself: the report
    // measures the solves and hits of this pipeline from a cold start,
    // and a cache warmed by the run's other reports would move every
    // counter. The pool is the caller's: counters do not depend on its
    // size (`tests/telemetry_differential.rs`).
    let cache = Arc::new(AnalysisCache::with_telemetry(tel.clone()));
    let doc = builtin::paper_case_study();

    scenario::eval_report_on(&doc, pool, &cache).expect("profile eval stage");
    let after_eval = tel.snapshot();

    let opt_req = OptimizeRequest {
        doc: doc.clone(),
        policies: None,
        max_redundancy: Some(2),
        bounds: None,
    };
    optimize::optimize_report_on(&opt_req, pool, &cache).expect("profile optimize stage");
    let after_optimize = tel.snapshot();

    let eq_req = EquilibriumRequest {
        doc,
        policies: None,
        max_redundancy: Some(2),
        max_iters: None,
    };
    equilibrium::equilibrium_report_on(&eq_req, pool, &cache).expect("profile equilibrium stage");
    let after_equilibrium = tel.snapshot();

    let mut r = Report::new(
        "profile",
        "Deterministic telemetry counters over a fixed eval → optimize → equilibrium pipeline",
    );
    r.keys([
        ("scenario", Value::from("paper_case_study")),
        ("stages", Value::from(STAGES.join("; "))),
        ("max_redundancy", Value::from(2_u32)),
        (
            "cache_hit_rate",
            Value::from(after_equilibrium.cache_hit_rate()),
        ),
        ("prune_ratio", Value::from(after_equilibrium.prune_ratio())),
        (
            "solver_residual_below_1e_9",
            Value::from(after_equilibrium.solver_residual_max < 1e-9),
        ),
    ]);
    // Counter-contract self-checks: a schedule dependence or a lost
    // instrumentation site flips `ok` in the golden.
    r.check(after_equilibrium.get(Counter::SolverSolves) > 0);
    r.check(after_equilibrium.get(Counter::CacheHits) > after_eval.get(Counter::CacheHits));
    r.check(after_optimize.get(Counter::BoxesExplored) > after_eval.get(Counter::BoxesExplored));
    r.check(
        after_equilibrium.get(Counter::EquilibriumRounds) > 0
            && after_equilibrium.get(Counter::MasksEvaluated) > 0,
    );
    r.table(counter_table(&[
        after_eval,
        after_optimize,
        after_equilibrium,
    ]));
    r.note(
        "cumulative counter snapshots after each stage, recorded through \
         one shared analysis cache; every value is a deterministic \
         function of the request — byte-identical at any thread count. \
         Wall-clock timing is deliberately absent (see `--profile`).",
    );
    r
}

/// One row per counter, one column per stage (cumulative values).
fn counter_table(snaps: &[CounterSnapshot; 3]) -> Table {
    let mut t = Table::new(
        "counters",
        [
            "counter",
            "after_eval",
            "after_optimize",
            "after_equilibrium",
        ],
    );
    let [eval, optimize, equilibrium] = snaps;
    let int = |v: u64| Value::from(i64::try_from(v).unwrap_or(i64::MAX));
    for (((name, a), (_, b)), (_, c)) in eval
        .entries()
        .zip(optimize.entries())
        .zip(equilibrium.entries())
    {
        t.add_row(vec![Value::from(name), int(a), int(b), int(c)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_report_is_deterministic_and_passes_checks() {
        let r = builtin_profile(&Pool::new(2));
        assert!(r.ok, "counter self-checks hold");
        assert_eq!(r.name, "profile");
        assert_eq!(r.to_json(), builtin_profile(&Pool::new(1)).to_json());
        let json = r.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("solver_solves"));
        assert!(json.contains("equilibrium_rounds"));
    }
}
