//! Differential tests for the equilibrium front doors (ISSUE 9
//! satellite): the in-process report builder
//! (`reports::equilibrium::equilibrium_report_on`), the CLI
//! (`redeval equilibrium`) and the served endpoint
//! (`POST /v1/equilibrium`) must emit **byte-identical** reports for
//! the same request, over generated scenarios from every family — and
//! the iteration itself must be bitwise invariant across runs and
//! thread counts (1, 2 and 4), whether it converges or the cycle
//! detector fires.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use redeval::equilibrium::EquilibriumAnalyzer;
use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval::scenario::generate::{self, Family, GenParams};
use redeval::scenario::ScenarioDoc;
use redeval::PatchPolicy;
use redeval_bench::{cli, reports, serve};
use redeval_server::{EquilibriumRequest, Request, CACHE_HEADER};

/// The differential corpus: one document per generator family, small
/// enough that every Gauss-Seidel round stays cheap. Single-policy
/// documents converge; the multi-policy mesh case exercises whichever
/// stop reason the iteration deterministically reaches.
fn corpus() -> Vec<(ScenarioDoc, u32)> {
    vec![
        (
            generate::generate(
                Family::EcommerceFleet,
                &GenParams {
                    tiers: 4,
                    redundancy: 2,
                    designs: 1,
                    policies: 1,
                },
                0,
            ),
            2,
        ),
        (
            generate::generate(
                Family::IotSwarm,
                &GenParams {
                    tiers: 6,
                    redundancy: 2,
                    designs: 1,
                    policies: 1,
                },
                1,
            ),
            2,
        ),
        (
            generate::generate(
                Family::MicroserviceMesh,
                &GenParams {
                    tiers: 5,
                    redundancy: 2,
                    designs: 1,
                    policies: 2,
                },
                2,
            ),
            3,
        ),
    ]
}

/// The headline determinism contract: the outcome is bitwise identical
/// across repeated runs and across thread counts, for every corpus
/// document and stop reason.
#[test]
fn equilibrium_outcome_is_bitwise_invariant_across_threads() {
    let pools = [1usize, 2, 4].map(|threads| (threads, Pool::new(threads)));
    for (doc, max_redundancy) in corpus() {
        let reference = EquilibriumAnalyzer::from_scenario(&doc)
            .unwrap_or_else(|e| panic!("{}: {e}", doc.name))
            .max_redundancy(max_redundancy)
            .run(&pools[0].1, &Arc::new(AnalysisCache::new()))
            .unwrap_or_else(|e| panic!("{}: {e}", doc.name));
        assert!(
            reference.converged || reference.cycle_detected,
            "{}: the corpus iteration must stop for a stated reason",
            doc.name
        );
        for (threads, pool) in &pools {
            let outcome = EquilibriumAnalyzer::from_scenario(&doc)
                .unwrap()
                .max_redundancy(max_redundancy)
                .run(pool, &Arc::new(AnalysisCache::new()))
                .unwrap_or_else(|e| panic!("{} @ {threads} threads: {e}", doc.name));
            assert_eq!(
                outcome, reference,
                "{} @ {threads} threads: outcome diverges",
                doc.name
            );
            assert_eq!(
                outcome.attacker_asp.to_bits(),
                reference.attacker_asp.to_bits(),
                "{} @ {threads} threads: attacker ASP bits diverge",
                doc.name
            );
            assert_eq!(
                outcome.defender.after.attack_success_probability.to_bits(),
                reference
                    .defender
                    .after
                    .attack_success_probability
                    .to_bits(),
                "{} @ {threads} threads: defender ASP bits diverge",
                doc.name
            );
        }
    }
}

/// The three front doors — in-process builder, CLI, served endpoint —
/// emit identical report bytes for the same equilibrium request, and
/// services at different worker counts serve the same bytes.
#[test]
fn equilibrium_front_doors_emit_identical_bytes() {
    let dir: PathBuf = std::env::temp_dir().join(format!("redeval-eq-diff-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    for (i, (doc, max_redundancy)) in corpus().into_iter().enumerate() {
        // One case also overrides the policy list and the round cap, so
        // the override plumbing of every door is exercised.
        let with_overrides = i == 2;
        let max_iters = with_overrides.then_some(8u32);

        // Door 1: the in-process report builder.
        let req = EquilibriumRequest {
            doc: doc.clone(),
            policies: with_overrides.then(|| vec![PatchPolicy::All]),
            max_redundancy: Some(max_redundancy),
            max_iters,
        };
        let in_process = reports::equilibrium::equilibrium_report_on(
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
            "equilibrium".to_string(),
            "--scenario".to_string(),
            scenario_file.to_str().unwrap().to_string(),
            "--max-redundancy".to_string(),
            max_redundancy.to_string(),
            "--format".to_string(),
            "json".to_string(),
            "--out".to_string(),
            dir.to_str().unwrap().to_string(),
        ];
        if with_overrides {
            args.extend([
                "--policy".to_string(),
                "all".to_string(),
                "--max-iters".to_string(),
                "8".to_string(),
            ]);
        }
        assert_eq!(cli::run(&args), 0, "CLI equilibrium of {} failed", doc.name);
        let cli_bytes = fs::read_to_string(dir.join(format!("equilibrium_{}.json", doc.name)))
            .expect("CLI wrote the report");

        // Door 3: the served endpoint at 1, 2 and 4 workers — wired
        // exactly as `redeval serve`, byte-identical at every width.
        let overrides_field = if with_overrides {
            ", \"policies\": [\"all\"], \"max_iters\": 8"
        } else {
            ""
        };
        let body = format!(
            "{{\"scenario\": {}, \"max_redundancy\": {max_redundancy}{overrides_field}}}",
            doc.to_json().trim_end()
        );
        for threads in [1usize, 2, 4] {
            let svc = serve::service(threads, 8 * 1024 * 1024);
            let resp = svc.handle(&Request::synthetic(
                "POST",
                "/v1/equilibrium",
                body.as_bytes(),
            ));
            assert_eq!(
                resp.status,
                200,
                "{} fails via /v1/equilibrium @ {threads} workers: {}",
                doc.name,
                String::from_utf8_lossy(&resp.body)
            );
            let served = String::from_utf8(resp.body).expect("UTF-8 report");
            assert_eq!(
                in_process, served,
                "{}: serve @ {threads} workers diverges",
                doc.name
            );
            // Replay: the served path answers from its cache, same bytes.
            let replay = svc.handle(&Request::synthetic(
                "POST",
                "/v1/equilibrium",
                body.as_bytes(),
            ));
            assert!(replay
                .extra_headers
                .contains(&(CACHE_HEADER, "hit".to_string())));
            assert_eq!(String::from_utf8(replay.body).unwrap(), in_process);
        }

        assert_eq!(in_process, cli_bytes, "{}: CLI diverges", doc.name);
    }
    let _ = fs::remove_dir_all(&dir);
}
