//! Boundary coverage of the 10 000-cell sweep/eval grid cap
//! ([`redeval_bench::reports::MAX_SWEEP_GRID`]) on *generated*
//! scenarios:
//!
//! * a grid of exactly 10 000 cells is accepted — by the in-process
//!   sweep builder and by `POST /v1/sweep`;
//! * one more design tips it over: a structured 400 `Report` (dotted
//!   path, projected cell count in the message), never an allocation —
//!   and the message points at `redeval optimize` / `POST /v1/optimize`,
//!   the front door that searches such spaces without a grid;
//! * the rejection is arithmetic, not material: `max_redundancy = 8` on
//!   a 120-tier generated fleet projects 8^120 cells and must come back
//!   instantly rather than attempt to enumerate the design space;
//! * `POST /v1/eval` enforces the same cap on a document's own
//!   designs × policies grid.

use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval::output::Report;
use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::{Design, EvalError};
use redeval_bench::reports::scenario::{eval_report, sweep_report_on, MAX_SWEEP_GRID};
use redeval_bench::serve;
use redeval_server::{Request, SweepRequest};

/// The in-process sweep builder on a fresh pool and cache.
fn sweep_report(req: &SweepRequest) -> Result<Report, EvalError> {
    sweep_report_on(
        req,
        &Pool::new(default_threads()),
        &Arc::new(AnalysisCache::new()),
    )
}

/// A tiny generated document widened to `designs` copies of its base
/// design — cheap cells, controllable grid width.
fn widened_doc(designs: usize) -> ScenarioDoc {
    let mut doc = generate::generate(
        Family::EcommerceFleet,
        &GenParams {
            tiers: 3,
            redundancy: 1,
            designs: 1,
            policies: 1,
        },
        1,
    );
    let base = doc.designs[0].counts.clone();
    doc.designs = (0..designs)
        .map(|i| Design::new(format!("d{i}"), base.clone()))
        .collect();
    doc.validate().expect("widened doc stays valid");
    doc
}

fn sweep_body(doc: &ScenarioDoc, policies: usize, windows: usize) -> String {
    let policy_list = (0..policies)
        .map(|_| "\"patch all\"".to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let window_list = (0..windows)
        .map(|i| format!("{}", 7 + i))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"scenario\": {}, \"policies\": [{policy_list}], \"patch_windows_days\": [{window_list}]}}",
        doc.to_json().trim_end()
    )
}

#[test]
fn sweep_grid_at_exactly_the_cap_is_accepted() {
    // 25 designs × 25 policies × 16 windows = 10 000 — exactly the cap.
    let doc = widened_doc(25);
    let req = SweepRequest {
        doc: doc.clone(),
        patch_windows_days: Some((0..16).map(|i| 7.0 + i as f64).collect()),
        policies: Some(vec![redeval::PatchPolicy::All; 25]),
        max_redundancy: None,
    };
    let report = sweep_report(&req).expect("at-cap grid evaluates");
    assert!(report.ok, "at-cap sweep fails its checks");
    let json = report.to_json();
    assert!(
        json.contains("10000"),
        "the report must show the full grid size"
    );

    let svc = serve::service(2, serve::DEFAULT_CACHE_CAP);
    let body = sweep_body(&doc, 25, 16);
    let resp = svc.handle(&Request::synthetic("POST", "/v1/sweep", body.as_bytes()));
    assert_eq!(resp.status, 200, "at-cap sweep rejected by /v1/sweep");
    assert_eq!(String::from_utf8(resp.body).unwrap(), json);
}

#[test]
fn sweep_grid_one_design_over_the_cap_is_rejected_structurally() {
    // 26 designs × 25 policies × 16 windows = 10 400 — over the cap.
    let doc = widened_doc(26);
    let req = SweepRequest {
        doc: doc.clone(),
        patch_windows_days: Some((0..16).map(|i| 7.0 + i as f64).collect()),
        policies: Some(vec![redeval::PatchPolicy::All; 25]),
        max_redundancy: None,
    };
    let e = sweep_report(&req).expect_err("over-cap grid must be rejected");
    let msg = e.to_string();
    assert!(
        msg.contains("10400") && msg.contains(&MAX_SWEEP_GRID.to_string()),
        "rejection must name the projected grid and the cap: {msg}"
    );
    assert!(
        msg.contains("redeval optimize"),
        "rejection must point at the pruned search: {msg}"
    );

    let svc = serve::service(2, serve::DEFAULT_CACHE_CAP);
    let body = sweep_body(&doc, 25, 16);
    let resp = svc.handle(&Request::synthetic("POST", "/v1/sweep", body.as_bytes()));
    assert_eq!(resp.status, 400);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(
        text.contains("\"ok\": false") && text.contains("10400"),
        "expected a structured over-cap report: {text}"
    );
    assert!(
        text.contains("/v1/optimize"),
        "the served rejection must point at the optimize endpoint: {text}"
    );
}

#[test]
fn astronomic_design_spaces_are_rejected_arithmetically() {
    // max_redundancy = 8 over 120 tiers projects 8^120 designs; the
    // rejection must come from the saturating pre-check, instantly,
    // without materializing a single design.
    let (family, params, seed) = generate::PINNED
        .iter()
        .max_by_key(|(_, p, _)| p.tiers)
        .expect("pinned corpus is non-empty");
    let doc = generate::generate(*family, params, *seed);
    assert!(doc.tiers.len() >= 100, "need a fleet-scale document");
    let req = SweepRequest {
        doc: doc.clone(),
        patch_windows_days: None,
        policies: None,
        max_redundancy: Some(8),
    };
    let start = std::time::Instant::now();
    let e = sweep_report(&req).expect_err("8^120 designs must be rejected");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "rejection took {:?} — the design space was materialized",
        start.elapsed()
    );
    assert!(
        e.to_string().contains("exceeds the limit") && e.to_string().contains("redeval optimize"),
        "unexpected rejection: {e}"
    );

    let svc = serve::service(1, 1 << 20);
    let body = format!(
        "{{\"scenario\": {}, \"max_redundancy\": 8}}",
        doc.to_json().trim_end()
    );
    let resp = svc.handle(&Request::synthetic("POST", "/v1/sweep", body.as_bytes()));
    assert_eq!(resp.status, 400);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("exceeds the limit") && text.contains("/v1/optimize"));
}

#[test]
fn eval_enforces_the_same_cap_on_the_document_grid() {
    // 101 designs × 100 policies = 10 100 > 10 000.
    let mut doc = widened_doc(101);
    doc.policies = vec![redeval::PatchPolicy::All; 100];
    doc.validate().expect("the wide doc itself is schema-valid");
    let e = eval_report(&doc).expect_err("over-cap eval grid");
    assert!(
        e.to_string().contains("10100") && e.to_string().contains("redeval optimize"),
        "{e}"
    );

    let svc = serve::service(1, 1 << 20);
    let resp = svc.handle(&Request::synthetic(
        "POST",
        "/v1/eval",
        doc.to_json().as_bytes(),
    ));
    assert_eq!(resp.status, 400);
    let text = String::from_utf8(resp.body).unwrap();
    assert!(text.contains("\"ok\": false") && text.contains("10100"));

    // At the cap exactly, eval accepts: 100 × 100 = 10 000.
    let mut doc = widened_doc(100);
    doc.policies = vec![redeval::PatchPolicy::All; 100];
    let report = eval_report(&doc).expect("at-cap eval grid");
    assert!(report.ok);
}
