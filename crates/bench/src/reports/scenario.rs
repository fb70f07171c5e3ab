//! Report builders for the declarative scenario gallery and the serving
//! path.
//!
//! [`scenario_suite`] is the registry entry: every bundled scenario
//! evaluated end-to-end (designs × policies on the batch engine), pinned
//! in the golden corpus like any other report. [`eval_report_on`] is the
//! same evaluation for a *single* document — the engine behind
//! `redeval eval --scenario FILE` and `POST /v1/eval` — and
//! [`sweep_report_on`] layers grid axes (patch windows, policy lists,
//! full design spaces) over a document for `POST /v1/sweep`. Both run on
//! the caller's [`Pool`] + [`AnalysisCache`]; the engine's
//! bitwise-determinism guarantee (DESIGN.md §5) is what makes the
//! served bytes equal the CLI's whatever the pool size.

use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool, Sweep};
use redeval::output::{Report, Table, Value};
use redeval::scenario::{builtin, generate, ScenarioDoc};
use redeval::{DesignEvaluation, EvalError, ScenarioError};
use redeval_server::SweepRequest;

/// Largest design × policy × window grid one `/v1/sweep` request may
/// ask for; beyond it the request is rejected as a schema violation
/// rather than monopolizing the server.
pub const MAX_SWEEP_GRID: usize = 10_000;

/// Rejects a `grid` of more than [`MAX_SWEEP_GRID`] points as a schema
/// violation that points at the search, which never materializes one.
fn check_grid(grid: u128) -> Result<(), EvalError> {
    if grid <= MAX_SWEEP_GRID as u128 {
        return Ok(());
    }
    Err(EvalError::Scenario(ScenarioError::Invalid {
        at: "request".to_string(),
        message: format!(
            "grid of {grid} scenarios exceeds the limit of {MAX_SWEEP_GRID}; \
             `redeval optimize` (POST /v1/optimize) searches larger spaces \
             without materializing the grid"
        ),
    }))
}

/// The standard design × policy evaluation table over computed results.
pub(crate) fn eval_table_from(name: &str, evals: &[DesignEvaluation]) -> Table {
    let mut t = Table::new(
        name,
        [
            "scenario",
            "asp_before",
            "asp",
            "aim",
            "noev",
            "noap",
            "noep",
            "coa",
            "availability",
        ],
    );
    for e in evals {
        t.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(e.before.attack_success_probability),
            Value::from(e.after.attack_success_probability),
            Value::from(e.after.attack_impact),
            Value::from(e.after.exploitable_vulnerabilities),
            Value::from(e.after.attack_paths),
            Value::from(e.after.entry_points),
            Value::from(e.coa),
            Value::from(e.availability),
        ]);
    }
    t
}

/// The design × policy evaluation table of one scenario document.
fn evaluation_table(
    name: &str,
    doc: &ScenarioDoc,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Table, EvalError> {
    let evals = Sweep::from_scenario(doc)?.run(pool, cache)?;
    Ok(eval_table_from(name, &evals))
}

/// The tier-topology table of one scenario document.
fn topology_table(name: &str, doc: &ScenarioDoc) -> Table {
    let mut t = Table::new(name, ["tier", "count", "tree", "entry", "target", "feeds"]);
    for tier in &doc.tiers {
        let feeds: Vec<&str> = doc
            .edges
            .iter()
            .filter(|(from, _)| *from == tier.name)
            .map(|(_, to)| to.as_str())
            .collect();
        t.add_row(vec![
            Value::from(tier.name.as_str()),
            Value::from(tier.count),
            match &tier.tree {
                Some(tree) => Value::from(tree.as_str()),
                None => Value::Null,
            },
            Value::from(tier.entry),
            Value::from(tier.target),
            Value::from(feeds.join("; ")),
        ]);
    }
    t
}

/// [`eval_report_on`] on a fresh pool (one worker per core) and a fresh
/// solve cache. Kept for the benchmark harness (`perfbench/`), which
/// times a cold evaluation through it; every in-tree front door passes
/// its own pool and cache to [`eval_report_on`].
///
/// # Errors
///
/// Propagates scenario validation and solver errors.
pub fn eval_report(doc: &ScenarioDoc) -> Result<Report, EvalError> {
    eval_report_on(
        doc,
        &Pool::new(default_threads()),
        &Arc::new(AnalysisCache::new()),
    )
}

/// Evaluates one scenario document end-to-end on `pool` and `cache` into
/// a report named `eval_<scenario>`: summary facts, the tier topology
/// and the full design × policy evaluation table — the engine of
/// `redeval eval` and `POST /v1/eval`.
///
/// # Errors
///
/// Propagates scenario validation and solver errors.
pub fn eval_report_on(
    doc: &ScenarioDoc,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Report, EvalError> {
    // The same grid cap the sweep path enforces: an eval grid is
    // designs × policies, and a pathological document must come back as
    // a structured schema error, never a grid that monopolizes the
    // server or the CLI.
    check_grid((doc.designs.len() as u128).saturating_mul(doc.policies.len() as u128))?;
    let mut r = Report::new(
        format!("eval_{}", doc.name),
        format!("Scenario evaluation — {}", doc.title),
    );
    if !doc.description.is_empty() {
        r.note(doc.description.clone());
    }
    let policies: Vec<String> = doc.policies.iter().map(ToString::to_string).collect();
    r.keys([
        ("scenario", Value::from(doc.name.as_str())),
        ("tiers", Value::from(doc.tiers.len())),
        (
            "servers",
            Value::from(doc.tiers.iter().map(|t| u64::from(t.count)).sum::<u64>() as i64),
        ),
        ("vulnerabilities", Value::from(doc.vulnerabilities.len())),
        ("designs", Value::from(doc.designs.len())),
        ("policies", Value::from(policies.join("; "))),
    ]);
    r.table(topology_table("topology", doc));
    r.table(evaluation_table("evaluations", doc, pool, cache)?);
    Ok(r)
}

/// Evaluates a sweep request — a scenario document plus optional grid
/// axes — on `pool` and `cache` into a report named `sweep_<scenario>`:
/// the `POST /v1/sweep` engine. Axis semantics: `max_redundancy`
/// replaces the document's designs with the full per-tier design space,
/// `policies` overrides its policy list, and `patch_windows_days` adds
/// patch-interval variants of every tier.
///
/// # Errors
///
/// Scenario validation and solver errors, plus a schema violation when
/// the grid would exceed [`MAX_SWEEP_GRID`] points.
pub fn sweep_report_on(
    req: &SweepRequest,
    pool: &Pool,
    cache: &Arc<AnalysisCache>,
) -> Result<Report, EvalError> {
    let doc = &req.doc;
    // Bound the grid arithmetically BEFORE materializing anything:
    // `full_design_space` eagerly enumerates max_redundancy^tiers
    // designs, so a many-tier document must be rejected by this product,
    // not by an allocation attempt. The product equals the built sweep's
    // `len()` (`full_design_space(0)` still enumerates the all-ones
    // design), so this one check bounds the grid.
    let designs: u128 = match req.max_redundancy {
        Some(m) => {
            let per_tier = u128::from(m.max(1));
            let mut total: u128 = 1;
            for _ in 0..doc.tiers.len() {
                total = total.saturating_mul(per_tier);
            }
            total
        }
        None => doc.designs.len() as u128,
    };
    let policies_len = req.policies.as_ref().map_or(doc.policies.len(), Vec::len) as u128;
    let windows_len = req.patch_windows_days.as_ref().map_or(1, Vec::len) as u128;
    check_grid(
        designs
            .saturating_mul(policies_len)
            .saturating_mul(windows_len),
    )?;

    let mut sweep = Sweep::from_scenario(doc)?;
    if let Some(max_redundancy) = req.max_redundancy {
        sweep = sweep.full_design_space(max_redundancy);
    }
    if let Some(policies) = &req.policies {
        sweep = sweep.policies(policies.clone());
    }
    if let Some(days) = &req.patch_windows_days {
        sweep = sweep.patch_intervals_days(days);
    }
    let grid = sweep.len();
    let evals = sweep.run(pool, cache)?;
    let mut r = Report::new(
        format!("sweep_{}", doc.name),
        format!("Scenario sweep — {}", doc.title),
    );
    r.keys([
        ("scenario", Value::from(doc.name.as_str())),
        ("grid", Value::from(grid)),
        (
            "patch_windows_days",
            Value::from(req.patch_windows_days.as_ref().map_or(0, Vec::len)),
        ),
        (
            "policies",
            Value::from(req.policies.as_ref().map_or(doc.policies.len(), Vec::len)),
        ),
        (
            "max_redundancy",
            match req.max_redundancy {
                Some(m) => Value::from(m),
                None => Value::Null,
            },
        ),
    ]);
    r.table(eval_table_from("evaluations", &evals));
    Ok(r)
}

/// **Scenario suite** — every bundled scenario of
/// [`builtin::BUILTINS`] evaluated end-to-end through the scenario API on
/// `pool` and `cache`; the golden corpus pins the whole gallery's
/// numbers.
pub fn scenario_suite(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new(
        "scenario_suite",
        "Bundled scenario gallery, evaluated through the declarative API",
    );
    let mut index = Table::new(
        "scenarios",
        ["scenario", "tiers", "servers", "designs", "policies"],
    );
    for s in builtin::BUILTINS {
        let doc = (s.build)();
        index.add_row(vec![
            Value::from(s.name),
            Value::from(doc.tiers.len()),
            Value::from(doc.tiers.iter().map(|t| u64::from(t.count)).sum::<u64>() as i64),
            Value::from(doc.designs.len()),
            Value::from(doc.policies.len()),
        ]);
    }
    r.table(index);
    for s in builtin::BUILTINS {
        let doc = (s.build)();
        // Round-trip through the canonical JSON first: what this report
        // pins is the *file* semantics, not the in-memory constructors.
        let doc = ScenarioDoc::from_json(&doc.to_json()).expect("builtin round-trips");
        r.check(doc.validate().is_ok());
        r.table(evaluation_table(s.name, &doc, pool, cache).expect("builtin evaluates"));
    }
    r.note(
        "every table is produced by Sweep::from_scenario over the canonical \
         JSON form of the bundled document — identical to what \
         `redeval eval --scenario <file>` computes.",
    );
    r
}

/// **Generator suite** — the pinned generator corpus
/// ([`generate::PINNED`]) regenerated in-process, self-checked
/// (byte-determinism, strict validation, round-trip equality) and
/// evaluated end-to-end on `pool` and `cache`; the golden pins both the
/// corpus shape and its numbers, so any drift in the generators is a
/// test failure.
pub fn gen_suite(pool: &Pool, cache: &Arc<AnalysisCache>) -> Report {
    let mut r = Report::new(
        "gen_suite",
        "Seeded generator corpus, evaluated through the declarative API",
    );
    let mut index = Table::new(
        "corpus",
        [
            "scenario",
            "family",
            "seed",
            "tiers",
            "servers",
            "vulnerabilities",
            "edges",
            "designs",
            "policies",
            "bytes",
        ],
    );
    for &(family, params, seed) in generate::PINNED {
        let doc = generate::generate(family, &params, seed);
        let json = doc.to_json();
        // Byte-determinism, strict validity and round-trip fidelity are
        // report checks: a regression flips `ok` in the golden.
        r.check(generate::generate(family, &params, seed).to_json() == json);
        r.check(doc.validate().is_ok());
        let back = ScenarioDoc::from_json(&json).expect("generated doc parses back");
        r.check(back == doc);
        index.add_row(vec![
            Value::from(doc.name.as_str()),
            Value::from(family.key()),
            Value::from(seed as i64),
            Value::from(doc.tiers.len()),
            Value::from(doc.tiers.iter().map(|t| u64::from(t.count)).sum::<u64>() as i64),
            Value::from(doc.vulnerabilities.len()),
            Value::from(doc.edges.len()),
            Value::from(doc.designs.len()),
            Value::from(doc.policies.len()),
            Value::from(json.len()),
        ]);
    }
    r.table(index);
    for &(family, params, seed) in generate::PINNED {
        let doc = generate::generate(family, &params, seed);
        // Evaluate the canonical-JSON form: these numbers are what
        // `redeval eval --scenario <generated file>` computes.
        let doc = ScenarioDoc::from_json(&doc.to_json()).expect("generated doc round-trips");
        let name = doc.name.clone();
        r.table(evaluation_table(&name, &doc, pool, cache).expect("generated doc evaluates"));
    }
    r.note(
        "the corpus is redeval::scenario::generate::PINNED — the same \
         (family, params, seed) triples whose canonical exports are \
         byte-pinned under tests/golden/gen/ and regenerated by the CI \
         gen-corpus job via `redeval gen`.",
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`sweep_report_on`] on `pool` with a fresh cache.
    fn sweep_report(req: &SweepRequest, pool: &Pool) -> Result<Report, EvalError> {
        sweep_report_on(req, pool, &Arc::new(AnalysisCache::new()))
    }

    #[test]
    fn suite_covers_every_builtin_and_passes_checks() {
        let r = scenario_suite(
            &Pool::new(default_threads()),
            &Arc::new(AnalysisCache::new()),
        );
        assert!(r.ok);
        let json = r.to_json();
        for s in builtin::BUILTINS {
            assert!(json.contains(s.name), "missing {}", s.name);
        }
    }

    #[test]
    fn gen_suite_covers_every_pinned_doc_and_passes_checks() {
        let r = gen_suite(
            &Pool::new(default_threads()),
            &Arc::new(AnalysisCache::new()),
        );
        assert!(r.ok);
        let json = r.to_json();
        for &(family, params, seed) in generate::PINNED {
            let name = generate::generate(family, &params, seed).name;
            assert!(json.contains(&name), "missing {name}");
        }
    }

    #[test]
    fn oversized_eval_grids_are_rejected_upfront() {
        // 101 designs × 100 policies = 10 100 cells > the cap; the
        // rejection must be a structured schema error, not a grid run.
        let mut doc = builtin::paper_case_study();
        let base = doc.base_design();
        doc.designs = (0..101)
            .map(|i| redeval::Design::new(format!("d{i}"), base.counts.clone()))
            .collect();
        doc.policies = (0..100)
            .map(|i| redeval::PatchPolicy::CriticalOnly(f64::from(i) / 10.0))
            .collect();
        let e = eval_report(&doc).unwrap_err();
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
    }

    #[test]
    fn eval_report_name_embeds_the_scenario_name() {
        let doc = builtin::ecommerce();
        let r = eval_report(&doc).unwrap();
        assert_eq!(r.name, "eval_ecommerce");
        assert!(r.ok);
        // 3 designs × 2 policies.
        let json = r.to_json();
        assert!(json.contains("\"designs\": 3"));
    }

    #[test]
    fn pooled_eval_report_is_byte_identical() {
        let pool = Pool::new(2);
        let cache = Arc::new(AnalysisCache::new());
        let doc = builtin::paper_case_study();
        let single = eval_report_on(&doc, &Pool::new(1), &Arc::new(AnalysisCache::new()))
            .unwrap()
            .to_json();
        let pooled = eval_report_on(&doc, &pool, &cache).unwrap().to_json();
        assert_eq!(single, pooled);
        assert_eq!(eval_report(&doc).unwrap().to_json(), pooled);
        // The shared solve cache actually served the tier solves.
        assert!(cache.solves() > 0);
        // A second pooled run re-solves nothing.
        let solves = cache.solves();
        eval_report_on(&doc, &pool, &cache).unwrap();
        assert_eq!(cache.solves(), solves);
    }

    #[test]
    fn sweep_report_layers_axes_over_the_document() {
        let req = SweepRequest {
            doc: builtin::paper_case_study(),
            patch_windows_days: Some(vec![7.0, 30.0]),
            policies: Some(vec![redeval::PatchPolicy::None, redeval::PatchPolicy::All]),
            max_redundancy: None,
        };
        let r = sweep_report(&req, &Pool::new(1)).unwrap();
        assert_eq!(r.name, "sweep_paper_case_study");
        let json = r.to_json();
        // 2 windows × 5 designs × 2 policies.
        assert!(json.contains("\"grid\": 20"), "{json}");
        // A larger pool, identical bytes.
        assert_eq!(sweep_report(&req, &Pool::new(3)).unwrap().to_json(), json);
    }

    #[test]
    fn oversized_sweep_grids_are_rejected_upfront() {
        let req = SweepRequest {
            doc: builtin::paper_case_study(),
            patch_windows_days: Some((1..=31).map(f64::from).collect()),
            policies: Some(
                (0..31)
                    .map(|i| redeval::PatchPolicy::CriticalOnly(f64::from(i) / 4.0))
                    .collect(),
            ),
            max_redundancy: Some(6), // 31 × 6^4 × 31 ≫ the limit
        };
        let e = sweep_report(&req, &Pool::new(1)).unwrap_err();
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
    }

    #[test]
    fn astronomic_design_spaces_are_rejected_without_materializing() {
        // 8^16 designs must be rejected by arithmetic, not by an
        // allocation attempt — this test would OOM (not merely fail) if
        // full_design_space ran first.
        use redeval::scenario::{TierDef, TreeDef, VulnDef, VulnSource};
        use redeval::ServerParams;
        let mut doc = redeval::scenario::ScenarioDoc::new("wide", "Sixteen tiny tiers");
        doc.vulnerabilities = vec![VulnDef {
            id: "v".into(),
            cve: None,
            source: VulnSource::Explicit {
                impact: 5.0,
                probability: 0.5,
                base_score: None,
            },
        }];
        doc.trees = vec![("t".into(), TreeDef::Vuln("v".into()))];
        for i in 0..16 {
            doc.tiers.push(TierDef {
                name: format!("t{i}"),
                count: 1,
                params: ServerParams::builder(format!("t{i}")).build(),
                tree: Some("t".into()),
                entry: i == 0,
                target: i == 15,
            });
            if i > 0 {
                doc.edges.push((format!("t{}", i - 1), format!("t{i}")));
            }
        }
        doc.designs = vec![doc.base_design()];
        let req = SweepRequest {
            doc,
            patch_windows_days: None,
            policies: None,
            max_redundancy: Some(8),
        };
        let e = sweep_report(&req, &Pool::new(1)).unwrap_err();
        assert!(e.to_string().contains("exceeds the limit"), "{e}");
    }
}
