//! Report builder for the attacker–defender equilibrium analysis.
//!
//! [`equilibrium_report_on`] is the engine behind `redeval equilibrium`
//! and `POST /v1/equilibrium`: it runs the Gauss-Seidel best-response
//! iteration of [`redeval::equilibrium`] over a scenario document and
//! reports the final strategy profile, the per-round trace, and the
//! search counters of both best-response oracles. The iteration is
//! deterministic and invariant in the pool size, so the report joins the
//! golden corpus like every other registry builder: **no wall-clock, no
//! machine parallelism** in the output.

use std::sync::Arc;

use redeval::equilibrium::{EquilibriumAnalyzer, EquilibriumOutcome, DEFAULT_MAX_ITERS};
use redeval::exec::{AnalysisCache, Pool};
use redeval::optimize::DEFAULT_MAX_REDUNDANCY;
use redeval::output::{Report, Table, Value};
use redeval::scenario::builtin;
use redeval::EvalError;
use redeval_server::EquilibriumRequest;

use super::scenario::eval_table_from;

/// Evaluates an equilibrium request — a scenario document plus optional
/// policy list, per-tier bound and round cap — on `pool` and `cache` into
/// a report named `equilibrium_<scenario>`: the engine of
/// `redeval equilibrium` and `POST /v1/equilibrium`.
///
/// # Errors
///
/// Scenario validation errors, the entry-tier enumeration cap
/// ([`redeval::equilibrium::MAX_ENTRY_TIERS`]) and solver errors.
pub fn equilibrium_report_on(
    req: &EquilibriumRequest,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Report, EvalError> {
    let doc = &req.doc;
    let max_redundancy = req.max_redundancy.unwrap_or(DEFAULT_MAX_REDUNDANCY);
    let max_iters = req.max_iters.unwrap_or(DEFAULT_MAX_ITERS);
    let mut analyzer = EquilibriumAnalyzer::from_scenario(doc)?
        .max_redundancy(max_redundancy)
        .max_iters(max_iters);
    if let Some(policies) = &req.policies {
        analyzer = analyzer.policies(policies.clone());
    }
    let outcome = analyzer.run(pool, cache)?;

    let policies: Vec<String> = match &req.policies {
        Some(p) => p.iter().map(ToString::to_string).collect(),
        None => doc.policies.iter().map(ToString::to_string).collect(),
    };
    let mut r = Report::new(
        format!("equilibrium_{}", doc.name),
        format!(
            "Attacker–defender best-response equilibrium — {}",
            doc.title
        ),
    );
    if !doc.description.is_empty() {
        r.note(doc.description.clone());
    }
    r.keys([
        ("scenario", Value::from(doc.name.as_str())),
        ("tiers", Value::from(doc.tiers.len())),
        (
            "entry_tiers",
            Value::from(outcome.entry_tier_names.join("; ")),
        ),
        ("max_redundancy", Value::from(max_redundancy)),
        ("max_iters", Value::from(max_iters)),
        ("policies", Value::from(policies.join("; "))),
        ("converged", Value::from(outcome.converged)),
        ("cycle_detected", Value::from(outcome.cycle_detected)),
        ("iterations", Value::from(outcome.iterations)),
    ]);
    r.keys([
        (
            "defender_design",
            Value::from(outcome.defender.name.as_str()),
        ),
        (
            "defender_policy",
            Value::from(policies[outcome.policy_idx].as_str()),
        ),
        (
            "defender_asp",
            Value::from(outcome.defender.after.attack_success_probability),
        ),
        ("defender_coa", Value::from(outcome.defender.coa)),
        (
            "attacker_entry_tiers",
            Value::from(outcome.attacker_entry_tiers().join("; ")),
        ),
        ("attacker_asp", Value::from(outcome.attacker_asp)),
        ("attacker_aim", Value::from(outcome.attacker_aim)),
    ]);
    r.keys([
        (
            "defender_evaluated_cells",
            Value::from(outcome.defender_evaluated_cells),
        ),
        (
            "defender_space_cells",
            Value::from(outcome.defender_space_cells),
        ),
        (
            "defender_evaluated_fraction",
            Value::from(outcome.defender_evaluated_fraction()),
        ),
        (
            "attacker_masks_evaluated",
            Value::from(outcome.attacker_masks_evaluated),
        ),
        (
            "attacker_masks_pruned",
            Value::from(outcome.attacker_masks_pruned),
        ),
        (
            "attacker_space_masks",
            Value::from(outcome.attacker_space_masks as f64),
        ),
    ]);
    // Self-checks: the run must stop for a stated reason, the attacker's
    // payoff is a probability, and at a fixed point the attacker (who
    // maximizes over masks including the one the defender answered) does
    // at least as well as the defender's own evaluation under that mask.
    r.check(outcome.converged || outcome.cycle_detected || outcome.iterations as u32 == max_iters);
    r.check((0.0..=1.0).contains(&outcome.attacker_asp));
    if outcome.converged {
        r.check(outcome.attacker_asp >= outcome.defender.after.attack_success_probability);
    }
    r.table(trace_table(&outcome));
    r.table(eval_table_from(
        "equilibrium_design",
        std::slice::from_ref(&outcome.defender),
    ));
    r.note(if outcome.converged {
        "the profile is a mutual best response (a Nash equilibrium of the \
         discretized game): the defender's strategy is optimal against the \
         final attacker mask and vice versa — byte-identical at any thread \
         count"
    } else if outcome.cycle_detected {
        "best responses entered a cycle; the reported profile is the last \
         round's (the discretized game need not admit a pure equilibrium)"
    } else {
        "the iteration cap stopped the search before a fixed point or \
         cycle; the reported profile is the last round's"
    });
    Ok(r)
}

/// The per-round trace: defender move, then the attacker's reply.
fn trace_table(outcome: &EquilibriumOutcome) -> Table {
    let mut t = Table::new(
        "trace",
        [
            "iteration",
            "defender_design",
            "defender_policy_idx",
            "defender_asp",
            "defender_coa",
            "attacker_entry_tiers",
            "attacker_asp",
            "attacker_aim",
        ],
    );
    for step in &outcome.trace {
        let tiers: Vec<&str> = outcome
            .entry_tier_names
            .iter()
            .zip(&step.mask)
            .filter_map(|(n, &keep)| keep.then_some(n.as_str()))
            .collect();
        t.add_row(vec![
            Value::from(step.iteration),
            Value::from(step.design.as_str()),
            Value::from(step.policy_idx),
            Value::from(step.defender_asp),
            Value::from(step.defender_coa),
            Value::from(tiers.join("; ")),
            Value::from(step.attacker_asp),
            Value::from(step.attacker_aim),
        ]);
    }
    t
}

/// The request a bare `redeval equilibrium` runs: the paper's case-study
/// network with its bundled policy and the default bounds — the paper's
/// static full-entry attacker made strategic.
pub fn default_request() -> EquilibriumRequest {
    EquilibriumRequest {
        doc: builtin::paper_case_study(),
        policies: None,
        max_redundancy: None,
        max_iters: None,
    }
}

/// The registry entry: [`default_request`] evaluated on `pool` and
/// `cache` and pinned under the registry key `equilibrium`.
pub fn builtin_equilibrium(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r =
        equilibrium_report_on(&default_request(), pool, cache).expect("builtin equilibrium report");
    r.name = "equilibrium".into();
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval::exec::default_threads;

    /// [`builtin_equilibrium`] on a fresh pool and cache.
    fn builtin() -> Report {
        builtin_equilibrium(
            &Pool::new(default_threads()),
            &Arc::new(AnalysisCache::new()),
        )
    }

    #[test]
    fn builtin_report_is_deterministic_and_passes_checks() {
        let r = builtin();
        assert!(r.ok);
        assert_eq!(r.name, "equilibrium");
        assert_eq!(r.to_json(), builtin().to_json());
        let json = r.to_json();
        assert!(json.contains("\"converged\": true"));
        assert!(json.contains("\"trace\""));
    }

    #[test]
    fn knob_overrides_shape_the_report() {
        let req = EquilibriumRequest {
            doc: builtin::paper_case_study(),
            policies: Some(vec![redeval::PatchPolicy::None, redeval::PatchPolicy::All]),
            max_redundancy: Some(2),
            max_iters: Some(4),
        };
        let pool = Pool::new(default_threads());
        let r = equilibrium_report_on(&req, &pool, &Arc::new(AnalysisCache::new())).unwrap();
        let json = r.to_json();
        assert!(json.contains("\"max_redundancy\": 2"));
        assert!(json.contains("\"max_iters\": 4"));
        assert!(json.contains("no patch; patch all"));
    }

    #[test]
    fn pooled_report_is_byte_identical_across_pool_sizes() {
        let req = EquilibriumRequest {
            doc: builtin::iot_fleet(),
            policies: None,
            max_redundancy: Some(2),
            max_iters: None,
        };
        let single =
            equilibrium_report_on(&req, &Pool::new(1), &Arc::new(AnalysisCache::new())).unwrap();
        let pool = Pool::new(2);
        let cache = Arc::new(AnalysisCache::new());
        let pooled = equilibrium_report_on(&req, &pool, &cache).unwrap();
        assert_eq!(single.to_json(), pooled.to_json());
    }
}
