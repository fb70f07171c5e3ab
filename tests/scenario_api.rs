//! Integration tests of the declarative scenario API: the JSON form is
//! the contract, so everything here goes through serialized documents
//! rather than in-memory constructors.

use redeval::exec::default_threads;
use redeval::scenario::{builtin, ScenarioDoc, ScenarioError};
use redeval::{case_study, Design, EvalError, PatchPolicy, Pool, SpecIssue, Sweep};

/// The paper document evaluated through `from_scenario` must be
/// indistinguishable — bit for bit — from the hand-built case-study
/// network under the paper's policy, for all five Section-IV designs.
#[test]
fn from_scenario_matches_the_case_study_evaluator_bitwise() {
    let json = builtin::paper_case_study().to_json();
    let doc = ScenarioDoc::from_json(&json).unwrap();
    assert_eq!(doc.policies, [PatchPolicy::CriticalOnly(8.0)]);
    let pool = Pool::new(default_threads());
    let designs = case_study::five_designs();
    let from_doc = Sweep::from_scenario(&doc)
        .unwrap()
        .designs(designs.clone())
        .run(&pool)
        .unwrap();
    let hand = Sweep::new(case_study::network())
        .designs(designs)
        .run(&pool)
        .unwrap();
    assert_eq!(from_doc.len(), 5);
    for (a, b) in from_doc.iter().zip(&hand) {
        assert_eq!(a, b, "{} diverges through the scenario path", a.name);
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
    let pool = Pool::new(1);
    let base = &Sweep::from_scenario(&doc)
        .unwrap()
        .designs(vec![Design::new("edited", vec![2, 2, 2, 1])])
        .run(&pool)
        .unwrap()[0];
    let orig = &Sweep::new(case_study::network())
        .designs(vec![Design::new("orig", vec![1, 2, 2, 1])])
        .run(&pool)
        .unwrap()[0];
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

/// A document's policy list is the policy axis of its sweep; overriding
/// policies (what `eval --policy` does) changes the outcome.
#[test]
fn policy_list_controls_the_evaluator() {
    let pool = Pool::new(1);
    let evaluate = |doc: &ScenarioDoc| {
        Sweep::from_scenario(doc)
            .unwrap()
            .designs(vec![Design::new("base", vec![1, 2, 2, 1])])
            .run(&pool)
            .unwrap()
    };
    let mut doc = builtin::paper_case_study();
    doc.policies = vec![PatchPolicy::None];
    let evals = evaluate(&doc);
    assert_eq!(evals.len(), 1);
    assert_eq!(evals[0].before, evals[0].after);

    doc.policies = vec![PatchPolicy::All, PatchPolicy::None];
    let evals = evaluate(&doc);
    assert_eq!(evals[0].name, "base | patch all");
    assert_eq!(evals[0].after.exploitable_vulnerabilities, 0);
    assert_eq!(evals[1].name, "base | no patch");
    assert_eq!(evals[1].before, evals[1].after);
}
