//! Differential test harness over the generated corpus (ISSUE 6
//! acceptance): a seeded sweep of scenarios from every generator family
//! is pushed through all three execution paths —
//!
//! 1. the in-process report builder (`reports::scenario::eval_report`),
//! 2. the CLI (`redeval eval --scenario FILE --format json`), and
//! 3. the embedded server (`POST /v1/eval` on the wired service) —
//!
//! asserting **byte-identical** reports, and through the sweep engine
//! at several thread counts asserting **bitwise-identical** numbers.
//! The generator itself is also cross-checked: the `gen` subcommand,
//! the in-process `generate` call and `POST /v1/generate` must emit the
//! same canonical document bytes for the same inputs.
//!
//! Corpus shape: 50 seeds per family with seed-derived small knobs, so
//! every document is cheap to evaluate but no two are alike.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::{AnalysisCache, Pool, Sweep};
use redeval_bench::{cli, reports, serve};
use redeval_server::{Request, Service, CACHE_HEADER};

/// Seeds per family — the ISSUE 6 floor.
const SEEDS_PER_FAMILY: u64 = 50;

/// Small seed-derived knobs: documents stay cheap (few tiers, low
/// redundancy) while still exercising every family's shape logic.
fn corpus_params(family: Family, seed: u64) -> GenParams {
    let base = match family {
        Family::EcommerceFleet => 3,
        Family::IotSwarm => 4,
        Family::MicroserviceMesh => 5,
    };
    GenParams {
        tiers: base + (seed % 4) as u32,
        redundancy: 1 + (seed % 2) as u32,
        designs: 1 + (seed % 2) as u32,
        policies: 1 + (seed % 2) as u32,
    }
}

fn corpus(family: Family) -> Vec<ScenarioDoc> {
    (0..SEEDS_PER_FAMILY)
        .map(|seed| generate::generate(family, &corpus_params(family, seed), seed))
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("redeval-diff-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// One document through all three eval paths; returns the agreed bytes.
fn assert_three_paths_agree(svc: &Service, dir: &Path, doc: &ScenarioDoc) -> String {
    // Path 1: in-process builder.
    let in_process = reports::scenario::eval_report(doc)
        .unwrap_or_else(|e| panic!("{} fails in-process: {e}", doc.name))
        .to_json();

    // Path 2: the CLI, end to end through a real file.
    let scenario_file = dir.join(format!("{}.json", doc.name));
    fs::write(&scenario_file, doc.to_json()).expect("write scenario");
    let code = cli::run(&[
        "eval".to_string(),
        "--scenario".to_string(),
        scenario_file.to_str().unwrap().to_string(),
        "--format".to_string(),
        "json".to_string(),
        "--out".to_string(),
        dir.to_str().unwrap().to_string(),
    ]);
    assert_eq!(code, 0, "CLI eval of {} failed", doc.name);
    let cli_bytes = fs::read_to_string(dir.join(format!("eval_{}.json", doc.name)))
        .expect("CLI wrote the report");

    // Path 3: the served endpoint, wired exactly as `redeval serve`.
    let resp = svc.handle(&Request::synthetic(
        "POST",
        "/v1/eval",
        doc.to_json().as_bytes(),
    ));
    assert_eq!(resp.status, 200, "{} fails via /v1/eval", doc.name);
    let served = String::from_utf8(resp.body).expect("UTF-8 report");

    assert_eq!(in_process, cli_bytes, "{}: CLI diverges", doc.name);
    assert_eq!(in_process, served, "{}: serve diverges", doc.name);
    in_process
}

fn differential_family(family: Family) {
    let svc = serve::service(2, 64 * 1024 * 1024);
    let dir = scratch_dir(family.key());
    let docs = corpus(family);
    assert_eq!(docs.len() as u64, SEEDS_PER_FAMILY);
    let mut reports_seen = std::collections::HashSet::new();
    for doc in &docs {
        let bytes = assert_three_paths_agree(&svc, &dir, doc);
        reports_seen.insert(bytes);
    }
    // The corpus is genuinely diverse: distinct seeds, distinct reports.
    assert_eq!(
        reports_seen.len() as u64,
        SEEDS_PER_FAMILY,
        "{family}: seeds collapsed to identical reports"
    );
    // Replay one request: the served path must hit its cache with the
    // exact agreed bytes.
    let replay = svc.handle(&Request::synthetic(
        "POST",
        "/v1/eval",
        docs[0].to_json().as_bytes(),
    ));
    assert!(replay
        .extra_headers
        .contains(&(CACHE_HEADER, "hit".to_string())));
    assert!(reports_seen.contains(&String::from_utf8(replay.body).unwrap()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn ecommerce_corpus_agrees_across_all_execution_paths() {
    differential_family(Family::EcommerceFleet);
}

#[test]
fn iot_corpus_agrees_across_all_execution_paths() {
    differential_family(Family::IotSwarm);
}

#[test]
fn mesh_corpus_agrees_across_all_execution_paths() {
    differential_family(Family::MicroserviceMesh);
}

/// The sweep engine over generated documents is thread-count invariant:
/// identical bits at 1, 2 and 4 workers.
#[test]
fn generated_sweeps_are_thread_count_invariant() {
    let single = Pool::new(1);
    let pools = [(2, Pool::new(2)), (4, Pool::new(4))];
    for family in generate::FAMILIES {
        for seed in [0, 13, 49] {
            let doc = generate::generate(family, &corpus_params(family, seed), seed);
            let reference = Sweep::from_scenario(&doc)
                .unwrap_or_else(|e| panic!("{}: {e}", doc.name))
                .run(&single, &Arc::new(AnalysisCache::new()))
                .unwrap_or_else(|e| panic!("{}: {e}", doc.name));
            for (threads, pool) in &pools {
                let parallel = Sweep::from_scenario(&doc)
                    .unwrap()
                    .run(pool, &Arc::new(AnalysisCache::new()))
                    .unwrap();
                assert_eq!(parallel.len(), reference.len());
                for (p, r) in parallel.iter().zip(&reference) {
                    assert_eq!(p, r, "{}: {threads} threads diverge", doc.name);
                    assert_eq!(p.coa.to_bits(), r.coa.to_bits());
                    assert_eq!(p.availability.to_bits(), r.availability.to_bits());
                    assert_eq!(p.expected_up.to_bits(), r.expected_up.to_bits());
                    assert_eq!(
                        p.after.attack_success_probability.to_bits(),
                        r.after.attack_success_probability.to_bits()
                    );
                }
            }
        }
    }
}

/// The generator's three front doors — the in-process call, the `gen`
/// subcommand and `POST /v1/generate` — emit identical canonical bytes.
#[test]
fn generator_front_doors_emit_identical_bytes() {
    let svc = serve::service(1, 1 << 20);
    let dir = scratch_dir("gen");
    for family in generate::FAMILIES {
        // 2^53 is the largest seed both the CLI and `POST /v1/generate`
        // accept (`redeval_server::MAX_SEED`).
        for seed in [0u64, 7, 41, 1 << 53] {
            let params = corpus_params(family, seed);
            let doc = generate::generate(family, &params, seed);
            let api_bytes = doc.to_json();

            let code = cli::run(&[
                "gen".to_string(),
                family.key().to_string(),
                "--seed".to_string(),
                seed.to_string(),
                "--tiers".to_string(),
                params.tiers.to_string(),
                "--redundancy".to_string(),
                params.redundancy.to_string(),
                "--designs".to_string(),
                params.designs.to_string(),
                "--policies".to_string(),
                params.policies.to_string(),
                "--out".to_string(),
                dir.to_str().unwrap().to_string(),
            ]);
            assert_eq!(code, 0);
            let cli_bytes = fs::read_to_string(dir.join(format!("{}.json", doc.name)))
                .expect("CLI wrote the document");
            assert_eq!(api_bytes, cli_bytes, "{}: CLI diverges", doc.name);

            let body = format!(
                "{{\"family\": \"{}\", \"seed\": {seed}, \"tiers\": {}, \
                 \"redundancy\": {}, \"designs\": {}, \"policies\": {}}}",
                family.key(),
                params.tiers,
                params.redundancy,
                params.designs,
                params.policies
            );
            let resp = svc.handle(&Request::synthetic("POST", "/v1/generate", body.as_bytes()));
            assert_eq!(resp.status, 200);
            let served = String::from_utf8(resp.body).unwrap();
            assert_eq!(api_bytes, served, "{}: /v1/generate diverges", doc.name);
        }
    }
    let _ = fs::remove_dir_all(&dir);
}
