//! Integration tests of the declarative scenario API: the JSON form is
//! the contract, so everything here goes through serialized documents
//! rather than in-memory constructors.

use redeval::exec::default_threads;
use redeval::scenario::{builtin, ScenarioDoc, ScenarioError};
use redeval::{case_study, EvalError, Evaluator, PatchPolicy, Pool, SpecIssue, Sweep};

/// The paper document evaluated through `from_scenario` must be
/// indistinguishable — bit for bit — from the hand-built case-study
/// evaluator, for all five Section-IV designs.
#[test]
fn from_scenario_matches_the_case_study_evaluator_bitwise() {
    let json = builtin::paper_case_study().to_json();
    let doc = ScenarioDoc::from_json(&json).unwrap();
    let from_doc = Evaluator::from_scenario(&doc).unwrap();
    let hand = case_study::evaluator().unwrap();
    assert_eq!(from_doc.patch_policy(), hand.patch_policy());
    for d in case_study::five_designs() {
        let a = from_doc.evaluate(&d.name, &d.counts).unwrap();
        let b = hand.evaluate(&d.name, &d.counts).unwrap();
        assert_eq!(a, b, "{} diverges through the scenario path", d.name);
        assert_eq!(a.coa.to_bits(), b.coa.to_bits());
        assert_eq!(
            a.after.attack_success_probability.to_bits(),
            b.after.attack_success_probability.to_bits()
        );
    }
}

/// Editing the serialized document changes the evaluated network — the
/// "bring your own network without recompiling" loop.
#[test]
fn edited_json_changes_the_evaluation() {
    let json = builtin::paper_case_study().to_json();
    // An administrator doubles the DNS tier in the file.
    let edited = json.replace(
        "{\"name\": \"dns\", \"count\": 1,",
        "{\"name\": \"dns\", \"count\": 2,",
    );
    assert_ne!(json, edited, "the edit must hit the document");
    let doc = ScenarioDoc::from_json(&edited).unwrap();
    let spec = doc.to_spec().unwrap();
    assert_eq!(spec.total_servers(), 7);
    let ev = Evaluator::from_scenario(&doc).unwrap();
    let base = ev.evaluate("edited", &[2, 2, 2, 1]).unwrap();
    let orig = case_study::evaluator()
        .unwrap()
        .evaluate("orig", &[1, 2, 2, 1])
        .unwrap();
    assert!(base.coa > orig.coa, "extra DNS redundancy must raise COA");
    assert!(base.before.entry_points > orig.before.entry_points);
}

/// `Sweep::from_scenario` materializes the document's full design ×
/// policy grid, labelled like any other sweep.
#[test]
fn sweep_from_scenario_covers_the_declared_grid() {
    let doc = builtin::iot_fleet();
    let sweep = Sweep::from_scenario(&doc).unwrap();
    assert_eq!(sweep.len(), doc.designs.len() * doc.policies.len());
    let evals = sweep.run(&Pool::new(default_threads())).unwrap();
    assert_eq!(evals.len(), 6); // 2 designs × 3 policies
    assert!(evals[0].name.ends_with("no patch"));
    assert!(evals[1].name.ends_with("critical>8"));
    assert!(evals[2].name.ends_with("patch all"));
    // Patch-everything kills the whole attack surface.
    assert_eq!(evals[2].after.exploitable_vulnerabilities, 0);
    // The policy axis never changes availability (same spec, same counts).
    assert_eq!(evals[0].coa.to_bits(), evals[2].coa.to_bits());
}

/// Scenario errors carry enough context to fix the file: syntax errors
/// point at line/column, schema errors at the offending field.
#[test]
fn error_reporting_points_at_the_problem() {
    let e = ScenarioDoc::from_json("{\n  \"schema\": oops\n}").unwrap_err();
    match e {
        EvalError::Scenario(ScenarioError::Json { line, col, .. }) => {
            assert_eq!(line, 2);
            assert!(col > 1);
        }
        other => panic!("expected a JSON error, got {other:?}"),
    }

    let json = builtin::ecommerce()
        .to_json()
        .replace("\"tree\": \"db\"", "\"tree\": \"dbb\"");
    let e = ScenarioDoc::from_json(&json).unwrap_err();
    assert!(e.to_string().contains("unknown tree `dbb`"), "{e}");

    // Structural spec defects surface as typed SpecIssue values even when
    // they arrive via a file.
    let json = builtin::paper_case_study()
        .to_json()
        .replace("\"entry\": true", "\"entry\": false");
    let e = ScenarioDoc::from_json(&json).unwrap_err();
    assert!(matches!(e, EvalError::InvalidSpec(SpecIssue::NoEntryTier)));

    // A self edge in a file is a validation error, not a later panic
    // inside HARM construction.
    let json = builtin::paper_case_study()
        .to_json()
        .replace("[\"app\", \"db\"]", "[\"db\", \"db\"]");
    let e = ScenarioDoc::from_json(&json).unwrap_err();
    assert!(matches!(
        e,
        EvalError::InvalidSpec(SpecIssue::SelfEdge { tier: 3 })
    ));

    // Hostile nesting depth fails with a pointed JSON error instead of
    // exhausting the stack.
    let bomb = format!("{}1{}", "[".repeat(100_000), "]".repeat(100_000));
    let e = ScenarioDoc::from_json(&bomb).unwrap_err();
    assert!(e.to_string().contains("nested deeper"), "{e}");
}

/// The canonical JSON form is a fixed point of parse ∘ serialize for
/// every bundled scenario.
#[test]
fn canonical_form_is_a_fixed_point_for_all_builtins() {
    for s in builtin::BUILTINS {
        let doc = (s.build)();
        let json = doc.to_json();
        let reparsed = ScenarioDoc::from_json(&json).unwrap();
        assert_eq!(reparsed, doc, "{}", s.name);
        assert_eq!(reparsed.to_json(), json, "{}", s.name);
    }
}

/// A document with a policy list drives the evaluator's primary policy;
/// overriding policies (what `eval --policy` does) changes the outcome.
#[test]
fn policy_list_controls_the_evaluator() {
    let mut doc = builtin::paper_case_study();
    doc.policies = vec![PatchPolicy::None];
    let ev = Evaluator::from_scenario(&doc).unwrap();
    assert_eq!(ev.patch_policy(), PatchPolicy::None);
    let e = ev.evaluate("base", &[1, 2, 2, 1]).unwrap();
    assert_eq!(e.before, e.after);

    doc.policies = vec![PatchPolicy::All, PatchPolicy::None];
    let ev = Evaluator::from_scenario(&doc).unwrap();
    assert_eq!(ev.patch_policy(), PatchPolicy::All);
    let e = ev.evaluate("base", &[1, 2, 2, 1]).unwrap();
    assert_eq!(e.after.exploitable_vulnerabilities, 0);
}
