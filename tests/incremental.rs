//! Incremental re-evaluation, pinned differentially (ISSUE 8).
//!
//! A session-scoped [`AnalysisCache`] keys per-tier SRN solves by
//! parameter *content*, so editing one field of a scenario document and
//! re-evaluating through the same cache re-solves only what the edit
//! invalidated:
//!
//! * a rate edit on one tier invalidates exactly **one** content entry;
//! * a vulnerability edit (HARM layer) costs **zero** solves;
//! * renaming a tier costs zero solves — the cached solve is relabeled.
//!
//! Each incremental response must be byte-identical to a cold
//! evaluation of the mutated document on a fresh cache: the cache may
//! only save work, never change bytes. This is the serving-path
//! guarantee (`redeval serve` keeps one `AnalysisCache` across
//! requests), exercised here directly against the report builder.

use std::sync::Arc;

use redeval::exec::{AnalysisCache, Pool};
use redeval::scenario::{builtin, ScenarioDoc, VulnSource};
use redeval::Durations;
use redeval_bench::reports::scenario::{eval_report, eval_report_on};

/// Evaluates `doc` on the shared session cache and pins the bytes
/// against a cold run.
///
/// [`AnalysisCache::len`] — the number of distinct parameter contents —
/// measures what an edit invalidated.
fn incremental_eval(doc: &ScenarioDoc, pool: &Pool, cache: &Arc<AnalysisCache>) -> String {
    let warm = eval_report_on(doc, pool, cache)
        .expect("incremental eval")
        .to_json();
    let cold = eval_report(doc).expect("cold eval").to_json();
    assert_eq!(
        warm, cold,
        "incremental re-evaluation diverged from a cold evaluation"
    );
    warm
}

#[test]
fn single_field_edits_resolve_only_the_affected_tier() {
    let pool = Pool::new(1);
    let cache = Arc::new(AnalysisCache::new());
    let base = builtin::paper_case_study();

    // Session start: the cold evaluation populates one cache entry per
    // distinct tier parameterization.
    incremental_eval(&base, &pool, &cache);
    let cold_solves = cache.solves();
    let cold_entries = cache.len();
    assert!(cold_solves >= 1, "cold run must solve");

    // Re-submitting the unchanged document costs zero solves — every
    // key is present, so no request can miss (this one IS exact).
    incremental_eval(&base, &pool, &cache);
    assert_eq!(cache.solves(), cold_solves, "unchanged doc re-solved");

    // One rate edit on the db tier invalidates exactly one content
    // entry; the new key is solved at least once and at most once per
    // executing thread (caller + one worker — see the helper's doc).
    let mut rate_edit = base.clone();
    rate_edit.tiers[3].params.patch_interval = Durations::days(31.0);
    incremental_eval(&rate_edit, &pool, &cache);
    let rate_solves = cache.solves();
    assert_eq!(
        cache.len(),
        cold_entries + 1,
        "a one-tier rate edit must invalidate exactly that tier"
    );
    assert!(
        (1..=2).contains(&(rate_solves - cold_solves)),
        "the edited tier solves once per racing thread at most \
         (got {} new solves)",
        rate_solves - cold_solves
    );

    // A vulnerability edit changes the HARM layer only: the tier CTMCs
    // are untouched, so no key is new — zero solves, exactly.
    let mut vuln_edit = base.clone();
    vuln_edit.vulnerabilities[0].source = VulnSource::Explicit {
        impact: 9.0,
        probability: 0.7,
        base_score: None,
    };
    incremental_eval(&vuln_edit, &pool, &cache);
    assert_eq!(
        cache.solves(),
        rate_solves,
        "a vulnerability edit must not re-solve any tier"
    );
    assert_eq!(cache.len(), cold_entries + 1);

    // Renaming a tier (name, its parameter label, and the edges that
    // reference it) is a relabel of the cached solve, not a re-solve.
    let relabels_before = cache.relabels();
    let mut rename = base.clone();
    rename.tiers[1].name = "web_front".into();
    rename.tiers[1].params.name = "web_front".into();
    for edge in &mut rename.edges {
        if edge.0 == "web" {
            edge.0 = "web_front".into();
        }
        if edge.1 == "web" {
            edge.1 = "web_front".into();
        }
    }
    incremental_eval(&rename, &pool, &cache);
    assert_eq!(
        cache.solves(),
        rate_solves,
        "a rename must not re-solve the renamed tier"
    );
    assert!(
        cache.relabels() > relabels_before,
        "the rename must be served as a relabel of the cached solve"
    );
    assert_eq!(cache.len(), cold_entries + 1, "relabels share the entry");

    // The edited documents are distinct contents, not overwrites: the
    // original still answers without solving.
    incremental_eval(&base, &pool, &cache);
    assert_eq!(cache.solves(), rate_solves);
}

#[test]
fn mutation_corpus_stays_byte_identical_to_cold_evaluation() {
    // A broader differential sweep: every mutation in the corpus is
    // evaluated incrementally on one long-lived cache and compared
    // byte-for-byte against a cold evaluation of the same document.
    let pool = Pool::new(1);
    let cache = Arc::new(AnalysisCache::new());
    let base = builtin::paper_case_study();
    incremental_eval(&base, &pool, &cache);

    type Mutation = Box<dyn Fn(&mut ScenarioDoc)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        (
            "dns hardware mtbf",
            Box::new(|d| d.tiers[0].params.hw_mtbf = Durations::hours(900.0)),
        ),
        (
            "web service repair",
            Box::new(|d| d.tiers[1].params.svc_repair = Durations::minutes(45.0)),
        ),
        (
            "app os patch window",
            Box::new(|d| d.tiers[2].params.os_patch = Durations::minutes(70.0)),
        ),
        (
            "db patch interval",
            Box::new(|d| d.tiers[3].params.patch_interval = Durations::days(14.0)),
        ),
        ("description", Box::new(|d| d.description = "edited".into())),
        (
            "design counts",
            Box::new(|d| d.designs[0].counts = vec![1, 3, 2, 1]),
        ),
    ];
    for (label, mutate) in &mutations {
        let mut doc = base.clone();
        mutate(&mut doc);
        let entries_before = cache.len();
        let solves_before = cache.solves();
        incremental_eval(&doc, &pool, &cache);
        assert!(
            cache.len() <= entries_before + 1,
            "{label}: a single-field edit invalidated more than one tier"
        );
        // At most one new key, solved at most once per executing
        // thread (caller + one pool worker — see the helper's doc).
        assert!(
            cache.solves() <= solves_before + 2,
            "{label}: more solves than one racing key permits"
        );
    }
}
