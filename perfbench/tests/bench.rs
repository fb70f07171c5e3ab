//! Tests of the benchmark itself: seeded inputs are reproducible and
//! seed-sensitive, the metric registry is well formed and matches
//! `BENCHMARK.json`, and the layer-call replay reproduces the numbers the
//! workloads' reports carry — so the traced run times the same work.

use std::sync::Arc;

use perfbench::inputs::{self, serve_doc, ClientStream, WORKING_SET};
use perfbench::metrics::{result_line, Values, END_TO_END, PER_LAYER};
use perfbench::replay::{counts_from_label, eval_row, find_row, replay_cell, row_labels};
use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{parse_json, Json};
use redeval::scenario::ScenarioDoc;
use redeval::Design;
use redeval_bench::reports::optimize::optimize_report_on;
use redeval_bench::reports::scenario::{eval_report, sweep_report_on};

/// The first `n` steps of a client stream.
fn steps(seed: u64, stream: u64, n: usize) -> Vec<inputs::Step> {
    ClientStream::new(seed, stream).take(n).collect()
}

#[test]
fn same_seed_same_inputs() {
    for seed in [0, 7, 1 << 40] {
        assert_eq!(steps(seed, 0, 400), steps(seed, 0, 400));
        let stream = ClientStream::new(seed, 1);
        assert_eq!(stream.body(3), stream.body(3));
    }
    assert_eq!(
        inputs::sweep_body(&inputs::sweep_doc()),
        inputs::sweep_body(&inputs::sweep_doc())
    );
}

#[test]
fn different_seeds_different_inputs() {
    assert_ne!(steps(1, 0, 400), steps(2, 0, 400));
    assert_ne!(
        ClientStream::new(1, 0).body(0),
        ClientStream::new(2, 0).body(0)
    );
    // The two clients of one run never share a document.
    let a: Vec<String> = (0..60).map(|k| ClientStream::new(5, 0).body(k)).collect();
    let b: Vec<String> = (0..60).map(|k| ClientStream::new(5, 1).body(k)).collect();
    assert!(a.iter().all(|body| !b.contains(body)));
}

#[test]
fn streams_mix_first_seen_and_repeated_documents() {
    let stream = ClientStream::new(3, 0);
    let steps = steps(3, 0, 20_000);
    let first = steps.iter().filter(|s| s.first).count();
    let share = first as f64 / steps.len() as f64;
    assert!((0.18..0.22).contains(&share), "new-document share {share}");
    // Every repeat names one of the last WORKING_SET documents introduced.
    let mut seen = 0;
    for step in &steps {
        if step.first {
            assert_eq!(step.doc, seen);
            seen += 1;
        } else {
            assert!(step.doc < seen && seen - step.doc <= WORKING_SET);
        }
    }
    assert!(seen > 2 * WORKING_SET, "the working set moves on");
    // Distinct documents, each a valid 6–8 tier network.
    let mut bodies: Vec<String> = (0..40).map(|k| stream.body(k)).collect();
    for body in bodies.iter().take(12) {
        let doc = ScenarioDoc::from_json(body).expect("stream documents decode");
        assert!((6..=8).contains(&doc.tiers.len()));
        doc.to_spec().expect("stream documents validate");
    }
    bodies.sort();
    bodies.dedup();
    assert_eq!(bodies.len(), 40);
}

/// A metric name as the benchmark contract allows it: 1–64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(def.name), "bad metric name {}", def.name);
        assert!(!def.unit.is_empty(), "{} has no unit", def.name);
        assert!(
            def.unit.len() <= 16
                && def
                    .unit
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
            "bad unit {}",
            def.unit
        );
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names repeat");
    assert!(END_TO_END
        .iter()
        .any(|d| d.name == "setup_s" && d.unit == "s"));
}

/// `(name, unit)` pairs of one list in `BENCHMARK.json`.
fn listed(root: &Json, key: &str) -> Vec<(String, String)> {
    root.get(key)
        .and_then(Json::as_arr)
        .expect("list present")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    let root = parse_json(&text).expect("BENCHMARK.json parses");
    let pairs = |defs: &[perfbench::metrics::MetricDef]| -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_string(), d.unit.to_string()))
            .collect()
    };
    assert_eq!(listed(&root, "end_to_end"), pairs(END_TO_END));
    assert_eq!(listed(&root, "per_layer"), pairs(PER_LAYER));
    let workloads: Vec<String> = root
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let known: Vec<String> = perfbench::workloads::Workload::ALL
        .iter()
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, known);
}

#[test]
fn result_line_has_the_contract_keys() {
    let mut values = Values::new();
    for def in END_TO_END {
        values.insert(def.name, 1.25);
    }
    let line = result_line(true, 10, 0, END_TO_END, &values);
    let root = parse_json(&line).expect("result line is JSON");
    let keys: Vec<&str> = root
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(root.get("correct").and_then(Json::as_bool), Some(true));
    let metrics = root.get("metrics").and_then(Json::as_obj).unwrap();
    assert_eq!(metrics.len(), END_TO_END.len());
    for (name, m) in metrics {
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25), "{name}");
    }
    // A missing metric can never pass as correct.
    values.remove("answer_s");
    let line = result_line(true, 10, 0, END_TO_END, &values);
    assert!(line.starts_with("{\"correct\": false"));
    // Nor can a run with failed operations.
    let mut values = Values::new();
    for def in END_TO_END {
        values.insert(def.name, 1.0);
    }
    assert!(result_line(true, 10, 1, END_TO_END, &values).starts_with("{\"correct\": false"));
}

#[test]
fn labels_round_trip_their_counts() {
    let names = ["web-00ff", "app", "db"];
    let counts = vec![3, 1, 8];
    let label = Design::conventional_name(&names, &counts);
    assert_eq!(counts_from_label(&label), Some(counts.clone()));
    assert_eq!(
        counts_from_label(&format!("{label} | critical>8")),
        Some(counts)
    );
}

#[test]
fn replay_reproduces_every_sweep_row() {
    let pool = Pool::new(2);
    let mut req = inputs::sweep_request(inputs::sweep_doc());
    req.max_redundancy = Some(2);
    let report = sweep_report_on(&req, &pool, &Arc::new(AnalysisCache::new())).unwrap();
    let spec = req.doc.to_spec().unwrap();
    let policies = req.policies.clone().unwrap();
    let cache = AnalysisCache::new();
    let labels = row_labels(&report, "evaluations");
    assert_eq!(labels.len(), 16 * 2);
    for label in labels.iter().step_by(2) {
        let counts = counts_from_label(label).unwrap();
        let names: Vec<&str> = spec.tiers().iter().map(|t| t.name.as_str()).collect();
        let design = Design::new(Design::conventional_name(&names, &counts), counts);
        let (_, evals) = replay_cell(&cache, &spec, &design, &policies, &req.doc.metrics).unwrap();
        for e in &evals {
            let row = find_row(&report, "evaluations", &e.name).expect("replayed label is a row");
            assert_eq!(row, eval_row(e).as_slice(), "{}", e.name);
        }
    }
}

#[test]
fn replay_reproduces_the_optimize_frontier() {
    let pool = Pool::new(1);
    let mut req = inputs::sweep_optimize_request(inputs::sweep_doc());
    req.max_redundancy = Some(3);
    let report = optimize_report_on(&req, &pool, &Arc::new(AnalysisCache::new())).unwrap();
    let spec = req.doc.to_spec().unwrap();
    let policies = req.policies.clone().unwrap();
    let names: Vec<&str> = spec.tiers().iter().map(|t| t.name.as_str()).collect();
    let cache = AnalysisCache::new();
    let labels = row_labels(&report, "frontier");
    assert!(!labels.is_empty());
    for label in &labels {
        let counts = counts_from_label(label).unwrap();
        let design = Design::new(Design::conventional_name(&names, &counts), counts);
        let (_, evals) = replay_cell(&cache, &spec, &design, &policies, &req.doc.metrics).unwrap();
        let row = find_row(&report, "frontier", label).expect("a frontier row");
        let replayed = evals
            .iter()
            .find(|e| e.name == *label)
            .expect("the replay names the frontier row");
        assert_eq!(row, eval_row(replayed).as_slice(), "{label}");
    }
}

#[test]
fn replay_reproduces_served_eval_rows() {
    let cache = AnalysisCache::new();
    for k in 0..3 {
        let doc = serve_doc(9, 0, k);
        let report = eval_report(&doc).unwrap();
        let spec = doc.to_spec().unwrap();
        for design in &doc.designs {
            let (_, evals) =
                replay_cell(&cache, &spec, design, &doc.policies, &doc.metrics).unwrap();
            for e in &evals {
                let row = find_row(&report, "evaluations", &e.name).expect("row");
                assert_eq!(row, eval_row(e).as_slice(), "{}", e.name);
            }
        }
    }
}
