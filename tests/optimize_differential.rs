//! Differential tests for the pruned design-space search (ISSUE 7
//! acceptance): on every grid small enough for the exhaustive sweep
//! path (≤ 10 000 cells), `redeval optimize` must be **byte-identical**
//! to enumerating the full design × policy grid and keeping the
//! Pareto-optimal (after-patch ASP ↓, COA ↑) points — at 1, 2 and 4
//! threads, across seeded scenarios from every generator family, and
//! through all three front doors (the in-process report builder, the
//! CLI and `POST /v1/optimize`).
//!
//! A proptest-style sweep additionally pins the soundness of pruning
//! itself: no box the search discarded may contain a frontier member.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval::optimize::exhaustive_frontier;
use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::{DesignEvaluation, Optimizer, PatchPolicy};
use redeval_bench::{cli, reports, serve};
use redeval_server::{OptimizeRequest, Request, CACHE_HEADER};

/// Seed-derived knobs keeping every grid under the sweep cap: at most
/// 3^5 × 2 = 486 cells, so the exhaustive reference stays cheap.
fn corpus_params(seed: u64) -> (GenParams, u32) {
    let params = GenParams {
        tiers: 3 + (seed % 3) as u32,
        redundancy: 2,
        designs: 1,
        policies: 1 + (seed % 2) as u32,
    };
    let max_redundancy = 2 + (seed % 2) as u32;
    (params, max_redundancy)
}

fn grid_doc(family: Family, seed: u64) -> (ScenarioDoc, u32) {
    let (params, max_redundancy) = corpus_params(seed);
    let doc = generate::generate(family, &params, seed);
    let cells = u64::from(max_redundancy).pow(doc.tiers.len() as u32) * doc.policies.len() as u64;
    assert!(cells <= 10_000, "corpus grid must stay under the sweep cap");
    (doc, max_redundancy)
}

fn assert_bitwise_equal(a: &[DesignEvaluation], b: &[DesignEvaluation], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: frontier sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.name, y.name, "{ctx}: member order diverges");
        assert_eq!(x.counts, y.counts, "{ctx}: counts diverge");
        assert_eq!(
            x.after.attack_success_probability.to_bits(),
            y.after.attack_success_probability.to_bits(),
            "{ctx}: ASP bits diverge on {}",
            x.name
        );
        assert_eq!(
            x.coa.to_bits(),
            y.coa.to_bits(),
            "{ctx}: COA bits diverge on {}",
            x.name
        );
        assert_eq!(x, y, "{ctx}: evaluations diverge on {}", x.name);
    }
}

/// The headline acceptance check: the pruned search equals exhaustive
/// enumeration, bit for bit, on every corpus grid at every thread count.
#[test]
fn pruned_search_matches_exhaustive_enumeration_on_small_grids() {
    let reference_pool = Pool::new(default_threads());
    let pools = [1usize, 2, 4].map(|threads| (threads, Pool::new(threads)));
    for family in generate::FAMILIES {
        for seed in [0u64, 1, 2] {
            let (doc, max_redundancy) = grid_doc(family, seed);
            let optimizer = Optimizer::from_scenario(&doc)
                .unwrap_or_else(|e| panic!("{}: {e}", doc.name))
                .max_redundancy(max_redundancy);
            let reference = exhaustive_frontier(&optimizer, &reference_pool)
                .unwrap_or_else(|e| panic!("{}: exhaustive sweep: {e}", doc.name));
            assert!(!reference.is_empty(), "{}: empty frontier", doc.name);
            for (threads, pool) in &pools {
                let outcome = optimizer
                    .run(pool)
                    .unwrap_or_else(|e| panic!("{}: optimize: {e}", doc.name));
                assert_bitwise_equal(
                    &reference,
                    &outcome.frontier,
                    &format!("{} @ {threads} threads", doc.name),
                );
            }
        }
    }
}

/// The three front doors — in-process builder, CLI, served endpoint —
/// emit identical report bytes for the same optimize request.
#[test]
fn optimize_front_doors_emit_identical_bytes() {
    let svc = serve::service(2, 8 * 1024 * 1024);
    let dir: PathBuf =
        std::env::temp_dir().join(format!("redeval-opt-diff-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    for (i, family) in generate::FAMILIES.iter().enumerate() {
        let seed = i as u64;
        let (doc, max_redundancy) = grid_doc(*family, seed);
        // One config per family also overrides the policy list, so the
        // override plumbing of every door is exercised.
        let with_policy = i == 1;

        // Door 1: the in-process report builder.
        let req = OptimizeRequest {
            doc: doc.clone(),
            policies: with_policy.then(|| vec![PatchPolicy::All]),
            max_redundancy: Some(max_redundancy),
            bounds: None,
        };
        let in_process = reports::optimize::optimize_report_on(
            &req,
            &Pool::new(default_threads()),
            &Arc::new(AnalysisCache::new()),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", doc.name))
        .to_json();

        // Door 2: the CLI, end to end through a real file.
        let scenario_file = dir.join(format!("{}.json", doc.name));
        fs::write(&scenario_file, doc.to_json()).expect("write scenario");
        let mut args = vec![
            "optimize".to_string(),
            "--scenario".to_string(),
            scenario_file.to_str().unwrap().to_string(),
            "--max-redundancy".to_string(),
            max_redundancy.to_string(),
            "--format".to_string(),
            "json".to_string(),
            "--out".to_string(),
            dir.to_str().unwrap().to_string(),
        ];
        if with_policy {
            args.extend(["--policy".to_string(), "all".to_string()]);
        }
        assert_eq!(cli::run(&args), 0, "CLI optimize of {} failed", doc.name);
        let cli_bytes = fs::read_to_string(dir.join(format!("optimize_{}.json", doc.name)))
            .expect("CLI wrote the report");

        // Door 3: the served endpoint, wired exactly as `redeval serve`.
        let policies_field = if with_policy {
            ", \"policies\": [\"all\"]"
        } else {
            ""
        };
        let body = format!(
            "{{\"scenario\": {}, \"max_redundancy\": {max_redundancy}{policies_field}}}",
            doc.to_json().trim_end()
        );
        let resp = svc.handle(&Request::synthetic("POST", "/v1/optimize", body.as_bytes()));
        assert_eq!(resp.status, 200, "{} fails via /v1/optimize", doc.name);
        let served = String::from_utf8(resp.body).expect("UTF-8 report");

        assert_eq!(in_process, cli_bytes, "{}: CLI diverges", doc.name);
        assert_eq!(in_process, served, "{}: serve diverges", doc.name);

        // Replay: the served path must answer from its cache, same bytes.
        let replay = svc.handle(&Request::synthetic("POST", "/v1/optimize", body.as_bytes()));
        assert!(replay
            .extra_headers
            .contains(&(CACHE_HEADER, "hit".to_string())));
        assert_eq!(String::from_utf8(replay.body).unwrap(), in_process);
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Proptest-style soundness sweep: across seed-derived configurations,
/// no pruned box may contain a frontier member. (Together with the
/// exhaustive-equality test this pins both directions: nothing optimal
/// is discarded, and what is kept is exactly the frontier.)
#[test]
fn pruned_boxes_never_contain_frontier_members() {
    // Deterministic LCG over configuration space (no RNG in tests).
    let mut state = 0x2545F491_4F6CDD1Du64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    for case in 0..10u32 {
        let family = generate::FAMILIES[(next() % 3) as usize];
        let seed = next() % 1000;
        let (params, _) = corpus_params(next());
        let max_redundancy = 2 + (next() % 3) as u32; // 2..=4
        let doc = generate::generate(family, &params, seed);
        let optimizer = Optimizer::from_scenario(&doc)
            .unwrap_or_else(|e| panic!("case {case} ({}): {e}", doc.name))
            .max_redundancy(max_redundancy);
        let outcome = optimizer
            .run(&Pool::new(2))
            .unwrap_or_else(|e| panic!("case {case} ({}): {e}", doc.name));
        assert!(!outcome.frontier.is_empty(), "case {case}: empty frontier");
        for member in &outcome.frontier {
            for (lo, hi) in &outcome.pruned_boxes {
                let inside = member
                    .counts
                    .iter()
                    .zip(lo.iter().zip(hi))
                    .all(|(c, (l, h))| l <= c && c <= h);
                assert!(
                    !inside,
                    "case {case} ({}): frontier member {} (counts {:?}) lies in \
                     pruned box {lo:?}..={hi:?}",
                    doc.name, member.name, member.counts
                );
            }
        }
    }
}
