//! Golden-corpus snapshot tests.
//!
//! Every report in `redeval_bench::reports::REGISTRY` is replayed
//! in-process and its canonical JSON byte-compared against the committed
//! snapshot `tests/golden/<name>.json` — the same files the CI
//! `golden-reports` job regenerates through the `redeval` CLI and diffs.
//! A failure means a paper-reproduction number (or the report schema)
//! changed; if the change is intentional, regenerate the corpus with
//! either
//!
//! ```console
//! $ REDEVAL_BLESS=1 cargo test --test golden
//! $ cargo run --release -p redeval-bench --bin redeval -- report --all --bless
//! ```
//!
//! and commit the diff. Both paths produce identical bytes (debug and
//! release builds share IEEE-754 semantics; DESIGN.md §6).

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

use redeval::exec::{AnalysisCache, Pool};
use redeval_bench::reports::{self, REGISTRY};

/// The execution context the registry replays here share, as one
/// `redeval report --all` run does: one multi-worker pool and one solve
/// cache.
fn shared() -> &'static (Pool, Arc<AnalysisCache>) {
    static CONTEXT: OnceLock<(Pool, Arc<AnalysisCache>)> = OnceLock::new();
    CONTEXT.get_or_init(|| (Pool::new(4), Arc::new(AnalysisCache::new())))
}

/// An empty cache, for a build that shares no solve with any other.
fn fresh_cache() -> Arc<AnalysisCache> {
    Arc::new(AnalysisCache::new())
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("REDEVAL_BLESS").is_some()
}

/// First line where two renderings diverge, for a readable failure.
fn first_diff(want: &str, got: &str) -> String {
    for (i, (w, g)) in want.lines().zip(got.lines()).enumerate() {
        if w != g {
            return format!(
                "first difference at line {}:\n  golden: {w}\n  got:    {g}",
                i + 1
            );
        }
    }
    format!(
        "one output is a prefix of the other (golden {} lines, got {} lines)",
        want.lines().count(),
        got.lines().count()
    )
}

#[test]
fn every_report_matches_its_golden() {
    let dir = golden_dir();
    let (pool, cache) = shared();
    let mut failures = Vec::new();
    for spec in REGISTRY {
        let report = (spec.build)(pool, cache);
        assert_eq!(
            report.name, spec.name,
            "report name must match registry key"
        );
        let json = report.to_json();
        // A builder computes *what* to report; the caller's pool and
        // cache decide only where it runs. Built alone, on one worker and
        // an empty cache, the report must match the same golden.
        let alone = (spec.build)(&Pool::new(1), &fresh_cache()).to_json();
        let path = dir.join(format!("{}.json", spec.name));
        let want = if blessing() {
            fs::create_dir_all(&dir).expect("golden dir");
            fs::write(&path, &json).expect("write golden");
            json.clone()
        } else {
            match fs::read_to_string(&path) {
                Ok(want) => want,
                Err(_) => {
                    failures.push(format!(
                        "{}: missing golden {} — bless with REDEVAL_BLESS=1 cargo test --test golden",
                        spec.name,
                        path.display()
                    ));
                    continue;
                }
            }
        };
        for (run, got) in [
            ("shared context", &json),
            ("one worker, empty cache", &alone),
        ] {
            if *got != want {
                failures.push(format!(
                    "{} ({run}): output changed; {}",
                    spec.name,
                    first_diff(&want, got)
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatches:\n{}\n\nIf intentional, regenerate with \
         `REDEVAL_BLESS=1 cargo test --test golden` (or `redeval report --all --bless`) \
         and commit the diff.",
        failures.join("\n")
    );
}

#[test]
fn no_orphan_goldens() {
    // Every committed golden must correspond to a registered report, so
    // a renamed/removed report cannot leave a stale-but-green snapshot.
    for entry in fs::read_dir(golden_dir()).expect("golden dir exists") {
        let path = entry.expect("dir entry").path();
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or_default()
            .to_string();
        if path.is_dir() {
            // The scenario corpus (checked below), the serve corpus
            // (orphan-checked by tests/serve.rs::no_orphan_serve_goldens)
            // and the generated corpus (orphan-checked by
            // tests/gen_corpus.rs) live in their own subdirectories.
            assert!(
                stem == "scenarios" || stem == "serve" || stem == "gen",
                "unexpected directory in tests/golden: {}",
                path.display()
            );
            continue;
        }
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("json"),
            "unexpected non-JSON file in tests/golden: {}",
            path.display()
        );
        assert!(
            reports::find(&stem).is_some(),
            "orphan golden {} has no registered report",
            path.display()
        );
    }
}

/// The scenario corpus: every bundled scenario's canonical JSON export is
/// byte-pinned under `tests/golden/scenarios/`, one file per gallery
/// entry, no strays. `REDEVAL_BLESS=1` regenerates it like the report
/// corpus.
#[test]
fn every_bundled_scenario_export_matches_its_golden() {
    let dir = golden_dir().join("scenarios");
    let mut failures = Vec::new();
    for s in redeval::scenario::builtin::BUILTINS {
        let json = (s.build)().to_json();
        let path = dir.join(format!("{}.json", s.name));
        if blessing() {
            fs::create_dir_all(&dir).expect("scenario golden dir");
            fs::write(&path, &json).expect("write scenario golden");
            continue;
        }
        match fs::read_to_string(&path) {
            Ok(want) if want == json => {}
            Ok(want) => failures.push(format!(
                "{}: export changed; {}",
                s.name,
                first_diff(&want, &json)
            )),
            Err(_) => failures.push(format!(
                "{}: missing scenario golden {}",
                s.name,
                path.display()
            )),
        }
    }
    if !blessing() {
        for entry in fs::read_dir(&dir).expect("scenario golden dir exists") {
            let path = entry.expect("dir entry").path();
            let stem = path
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or_default()
                .to_string();
            assert!(
                redeval::scenario::builtin::find(&stem).is_some(),
                "orphan scenario golden {} has no bundled scenario",
                path.display()
            );
        }
    }
    assert!(
        failures.is_empty(),
        "scenario corpus mismatches:\n{}\n\nIf intentional, regenerate with \
         `REDEVAL_BLESS=1 cargo test --test golden` and commit the diff.",
        failures.join("\n")
    );
}

/// The headline acceptance check of the scenario API: the network
/// resolved from the **pinned** `paper_case_study` file — through the
/// JSON parser, schema decoding and spec resolution — reproduces the
/// committed Table II and Table VI golden reports **byte for byte**.
#[test]
fn paper_scenario_file_reproduces_table2_and_table6_byte_for_byte() {
    use redeval::scenario::ScenarioDoc;
    use redeval_bench::reports::tables;

    let path = golden_dir().join("scenarios/paper_case_study.json");
    let text = fs::read_to_string(&path).expect("pinned paper scenario exists");
    let doc = ScenarioDoc::from_json(&text).expect("pinned paper scenario parses");
    let spec = doc.to_spec().expect("pinned paper scenario resolves");

    let table2 = tables::table2_for(&spec).to_json();
    let want2 = fs::read_to_string(golden_dir().join("table2.json")).expect("table2 golden");
    assert_eq!(
        table2, want2,
        "table2 from the scenario file differs from the golden"
    );

    let analyses = spec.tier_analyses().expect("tiers solve");
    let table6 = tables::table6_for(&spec, &analyses).to_json();
    let want6 = fs::read_to_string(golden_dir().join("table6.json")).expect("table6 golden");
    assert_eq!(
        table6, want6,
        "table6 from the scenario file differs from the golden"
    );
}

#[test]
fn golden_reports_all_pass_their_consistency_checks() {
    // The corpus must never pin a failing state: `ok` is serialized, so
    // this is equivalent to checking the committed files, but the
    // in-process check gives a direct message when a region regresses.
    let (pool, cache) = shared();
    for spec in REGISTRY {
        assert!(
            (spec.build)(pool, cache).ok,
            "report {} fails its embedded consistency checks",
            spec.name
        );
    }
    // That pass left every tier the registry solves in the shared cache,
    // so a replay of the whole registry solves none again.
    let solves = cache.solves();
    for spec in REGISTRY {
        (spec.build)(pool, cache);
    }
    assert_eq!(
        cache.solves(),
        solves,
        "replaying the registry on a warm cache re-solved tiers"
    );
}

#[test]
fn json_is_byte_identical_across_runs() {
    // Serialization is a pure function of the computed numbers, and the
    // computed numbers are run-to-run deterministic (fixed seeds, no
    // wall-clock, no hash-order dependence).
    let (pool, cache) = shared();
    for name in ["regions", "table2", "heterogeneous"] {
        let spec = reports::find(name).unwrap();
        assert_eq!(
            (spec.build)(pool, cache).to_json(),
            (spec.build)(pool, cache).to_json(),
            "report {name} differs between two in-process runs"
        );
    }
}

#[test]
fn json_is_byte_identical_across_thread_counts() {
    // The batch engine guarantees bitwise-identical numbers for any
    // worker count (DESIGN.md §5); the serialized reports inherit that.
    let sweep_1 = reports::studies::sweep(&Pool::new(1), &fresh_cache()).to_json();
    for threads in [2, 4, 8] {
        assert_eq!(
            sweep_1,
            reports::studies::sweep(&Pool::new(threads), &fresh_cache()).to_json(),
            "sweep report differs between 1 and {threads} threads"
        );
    }
    let sens_1 = reports::studies::sensitivity(&Pool::new(1), &fresh_cache()).to_json();
    for threads in [3, 7] {
        assert_eq!(
            sens_1,
            reports::studies::sensitivity(&Pool::new(threads), &fresh_cache()).to_json(),
            "sensitivity report differs between 1 and {threads} threads"
        );
    }
}
