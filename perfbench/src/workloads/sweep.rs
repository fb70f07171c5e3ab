//! `sweep_paper`: one `SweepRequest` at a time through the in-process
//! report builder, on a pool of [`POOL_WORKERS`] workers.

use std::sync::Arc;
use std::time::Instant;

use redeval::exec::{AnalysisCache, Pool};
use redeval::output::Report;
use redeval::scenario::ScenarioDoc;
use redeval::telemetry::{Counter, Telemetry};
use redeval::{Design, DesignEvaluation, NetworkSpec};
use redeval_bench::reports::optimize::optimize_report_on;
use redeval_bench::reports::scenario::sweep_report_on;
use redeval_server::{hex, sha256, SweepRequest};

use super::layers::{self, ReplayJob};
use super::{settle, Config, Outcome, POOL_WORKERS};
use crate::inputs::{self, http_request, Rng};
use crate::reference;
use crate::replay;
use crate::stats::{mean, median, peak_rss_mib, percentile};

/// Set-ups timed after each query of the measured window (`setup_s` is
/// the median of them all). Spread over the window, they see the machine
/// as the queries do, not as it was in the instant before the first one.
const SETUPS_PER_QUERY: usize = 8;

/// Report rows re-derived through the layer calls in every run.
const SPOT_CHECK_ROWS: usize = 4;

/// One set-up: generate the document, serialize and decode it (as a CLI
/// reads a scenario file), `to_spec`, spawn the pool.
fn setup() -> Result<(SweepRequest, NetworkSpec, Pool), String> {
    let doc = ScenarioDoc::from_json(&inputs::sweep_doc().to_json())
        .map_err(|e| format!("document: {e}"))?;
    let spec = doc.to_spec().map_err(|e| format!("to_spec: {e}"))?;
    Ok((inputs::sweep_request(doc), spec, Pool::new(POOL_WORKERS)))
}

/// One timed query: wall time from the request struct to the report
/// bytes.
struct QueryRun {
    secs: f64,
    digest: String,
    telemetry: Telemetry,
}

/// Runs queries back to back until `seconds` have passed (at least
/// `min` of them), query `i` on a fresh cache carrying `telemetry(i)`,
/// and `between` after each. Returns the runs, the window length without
/// the time spent in `between`, and the first report with its bytes.
fn timed_queries(
    req: &SweepRequest,
    pool: &Pool,
    seconds: f64,
    min: usize,
    telemetry: impl Fn(usize) -> Telemetry,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<QueryRun>, f64, Report, String), String> {
    let mut runs: Vec<QueryRun> = Vec::new();
    let mut first: Option<(Report, String)> = None;
    let mut aside = 0.0;
    let start = Instant::now();
    while runs.len() < min || start.elapsed().as_secs_f64() < seconds {
        let tel = telemetry(runs.len());
        let cache = Arc::new(AnalysisCache::with_telemetry(tel.clone()));
        let t = Instant::now();
        let report =
            sweep_report_on(req, pool, &cache).map_err(|e| format!("query failed: {e}"))?;
        let json = report.to_json();
        let secs = t.elapsed().as_secs_f64();
        runs.push(QueryRun {
            secs,
            digest: hex(&sha256(json.as_bytes())),
            telemetry: tel,
        });
        if first.is_none() {
            first = Some((report, json));
        }
        let t = Instant::now();
        between()?;
        aside += t.elapsed().as_secs_f64();
    }
    let window = start.elapsed().as_secs_f64() - aside;
    let (report, json) = first.expect("at least one query ran");
    Ok((runs, window, report, json))
}

/// The output checks every run makes: every query returned the same
/// bytes, those bytes match the recorded reference, the report's own
/// self-checks passed, and sampled report rows are reproduced exactly by
/// the layer-call replay.
fn check(
    cfg: &Config,
    spec: &NetworkSpec,
    (report, json): (&Report, &str),
    runs: &[QueryRun],
    out: &mut Outcome,
) {
    let digest = &runs[0].digest;
    out.fact("report_sha256", digest);
    let mismatched = runs.iter().filter(|r| &r.digest != digest).count() as u64;
    out.failed += mismatched;
    if mismatched > 0 {
        out.fail(format!("{mismatched} queries returned different bytes"));
    }
    if hex(&sha256(json.as_bytes())) == reference::SWEEP_PAPER {
        out.fact("reference_digest", "match");
    } else {
        out.failed += runs.len() as u64 - mismatched;
        out.fail(format!(
            "report digest {digest} != recorded {}",
            reference::SWEEP_PAPER
        ));
    }
    if !report.ok {
        out.fail("the report's self-checks failed");
    }
    let mut rng = Rng::new(inputs::mix(&[cfg.seed, 0x5907]));
    spot_check(spec, report, "evaluations", SPOT_CHECK_ROWS, &mut rng, out);
}

/// Replays `rows` rows of `table`, drawn by `rng`, through the layer
/// calls and checks that each reproduces its report row exactly.
fn spot_check(
    spec: &NetworkSpec,
    report: &Report,
    table: &str,
    rows: usize,
    rng: &mut Rng,
    out: &mut Outcome,
) {
    let labels = replay::row_labels(report, table);
    if labels.is_empty() {
        out.fail(format!("the report's `{table}` table has no rows"));
        return;
    }
    let cache = AnalysisCache::new();
    let policies = inputs::sweep_policies();
    let metrics = inputs::sweep_doc().metrics;
    for _ in 0..rows {
        let label = &labels[rng.below(labels.len())];
        let checked = design_for(spec, label).and_then(|design| {
            let (_, evals) = replay::replay_cell(&cache, spec, &design, &policies, &metrics)
                .map_err(|e| format!("replay of `{label}`: {e}"))?;
            compare_rows(report, table, &evals)
        });
        match checked {
            Ok(0) => out.fail(format!("replay of `{label}` found no report row")),
            Ok(_) => {}
            Err(e) => out.fail(e),
        }
    }
}

/// Compares replayed evaluations with the report rows of the same
/// labels; returns how many rows were compared.
pub(super) fn compare_rows(
    report: &Report,
    table: &str,
    evals: &[DesignEvaluation],
) -> Result<usize, String> {
    let mut compared = 0;
    for e in evals {
        if let Some(row) = replay::find_row(report, table, &e.name) {
            if row != replay::eval_row(e).as_slice() {
                return Err(format!("replay of `{}` disagrees with the report", e.name));
            }
            compared += 1;
        }
    }
    Ok(compared)
}

/// The design a conventional cell label names.
fn design_for(spec: &NetworkSpec, label: &str) -> Result<Design, String> {
    let counts = replay::counts_from_label(label)
        .filter(|c| c.len() == spec.tiers().len())
        .ok_or_else(|| format!("cannot read counts from `{label}`"))?;
    let names: Vec<&str> = spec.tiers().iter().map(|t| t.name.as_str()).collect();
    Ok(Design::new(
        Design::conventional_name(&names, &counts),
        counts,
    ))
}

/// Runs `sweep_paper`.
pub(super) fn run(cfg: &Config) -> Result<Outcome, String> {
    let t = Instant::now();
    let (req, spec, pool) = setup()?;
    let setup_s = t.elapsed().as_secs_f64();

    // Warm-up: one unmeasured query (allocator, page cache, code).
    let result = sweep_report_on(&req, &pool, &Arc::new(AnalysisCache::new()))
        .map_err(|e| format!("warm-up query failed: {e}"))
        .and_then(|_| {
            if cfg.trace {
                trace(cfg, &req, &spec, &pool, Outcome::new())
            } else {
                measure(cfg, &req, &spec, &pool, setup_s)
            }
        });
    settle();
    drop(pool);
    result
}

/// The untraced run: the end-to-end metrics.
fn measure(
    cfg: &Config,
    req: &SweepRequest,
    spec: &NetworkSpec,
    pool: &Pool,
    setup_s: f64,
) -> Result<Outcome, String> {
    let mut out = Outcome::new();
    let mut setups = vec![setup_s];
    // The set-ups of the last round, kept until their pools have idled
    // through the next query (see `settle`).
    let mut idle = Vec::with_capacity(SETUPS_PER_QUERY);
    let time_setups = || -> Result<(), String> {
        idle.clear();
        for _ in 0..SETUPS_PER_QUERY {
            let t = Instant::now();
            let built = setup()?;
            setups.push(t.elapsed().as_secs_f64());
            idle.push(built);
        }
        Ok(())
    };
    let timed = timed_queries(
        req,
        pool,
        cfg.seconds,
        3,
        |_| Telemetry::noop(),
        time_setups,
    );
    settle();
    drop(idle);
    let (runs, window, report, json) = timed?;
    out.values.insert("peak_rss_mb", peak_rss_mib());
    out.attempted = runs.len() as u64;
    check(cfg, spec, (&report, &json), &runs, &mut out);

    let secs: Vec<f64> = runs.iter().map(|r| r.secs).collect();
    let answer = median(&secs);
    out.values.insert("setup_s", median(&setups));
    out.values.insert("answer_s", answer);
    out.values
        .insert("throughput_rps", runs.len() as f64 / window);
    out.values
        .insert("latency_p99_ms", percentile(&secs, 0.99) * 1e3);
    out.fact("queries", runs.len());
    out.fact("setups", setups.len());
    out.fact("latency_p50_ms", answer * 1e3);
    out.fact(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// The optimize layer over the sweep's own design space: the pruned
/// search of `optimize_report_on` for the same document, policies and
/// count bound, on a fresh profiling cache. Its report must match the
/// recorded digest, and sampled frontier rows must replay exactly.
fn optimize_layer(
    cfg: &Config,
    req: &SweepRequest,
    spec: &NetworkSpec,
    pool: &Pool,
    out: &mut Outcome,
) -> Result<(), String> {
    let telemetry = Telemetry::profiler();
    let cache = Arc::new(AnalysisCache::with_telemetry(telemetry.clone()));
    let t = Instant::now();
    let report = optimize_report_on(
        &inputs::sweep_optimize_request(req.doc.clone()),
        pool,
        &cache,
    )
    .map_err(|e| format!("optimize query failed: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    let digest = hex(&sha256(report.to_json().as_bytes()));
    if digest != reference::OPTIMIZE_PAPER {
        out.fail(format!(
            "optimize report digest {digest} != recorded {}",
            reference::OPTIMIZE_PAPER
        ));
    }
    if !report.ok {
        out.fail("the optimize report's self-checks failed");
    }
    let mut rng = Rng::new(inputs::mix(&[cfg.seed, 0x0971]));
    spot_check(spec, &report, "frontier", SPOT_CHECK_ROWS, &mut rng, out);

    let snap = telemetry.snapshot();
    let grid_us: f64 = replay::span_us(&telemetry.spans(), "experiment ")
        .iter()
        .sum();
    let v = &mut out.values;
    v.insert(
        "optimize.boxes_explored",
        snap.get(Counter::BoxesExplored) as f64,
    );
    v.insert(
        "optimize.boxes_pruned",
        snap.get(Counter::BoxesPruned) as f64,
    );
    v.insert(
        "optimize.evaluated_fraction",
        replay::report_key(&report, "evaluated_fraction")
            .and_then(replay::as_f64)
            .unwrap_or(f64::NAN),
    );
    v.insert("optimize.search_overhead_s", secs - grid_us / 1e6);
    Ok(())
}

/// The traced run: per-layer metrics of `sweep_paper`.
fn trace(
    cfg: &Config,
    req: &SweepRequest,
    spec: &NetworkSpec,
    pool: &Pool,
    mut out: Outcome,
) -> Result<Outcome, String> {
    // Untraced and traced queries alternate, so drift in the machine's
    // speed hits both sides of the overhead comparison alike.
    let (runs, _, report, json) = timed_queries(
        req,
        pool,
        cfg.seconds,
        4,
        |i| {
            if i % 2 == 0 {
                Telemetry::noop()
            } else {
                Telemetry::profiler()
            }
        },
        || Ok(()),
    )?;
    out.attempted = runs.len() as u64;
    check(cfg, spec, (&report, &json), &runs, &mut out);
    let plain: Vec<f64> = runs.iter().step_by(2).map(|r| r.secs).collect();
    let traced: Vec<&QueryRun> = runs.iter().skip(1).step_by(2).collect();
    let traced_secs: Vec<f64> = traced.iter().map(|r| r.secs).collect();

    // Counters are exact per query: every traced query did the same work.
    let last = traced.last().expect("traced queries ran");
    let snap = last.telemetry.snapshot();
    let count = |c: Counter| snap.get(c) as f64;
    let v = &mut out.values;
    v.insert(
        "trace.overhead_pct",
        (median(&traced_secs) / median(&plain) - 1.0) * 100.0,
    );
    v.insert("exec.cache_solves", count(Counter::CacheSolves));
    v.insert("exec.cache_hits", count(Counter::CacheHits));
    v.insert("markov.solver_iterations", count(Counter::SolverIterations));
    v.insert("exec.cells_evaluated", count(Counter::CellsEvaluated));
    v.insert("exec.pool_jobs", count(Counter::PoolJobs));

    let cell_us: Vec<f64> = traced
        .iter()
        .flat_map(|r| replay::span_us(&r.telemetry.spans(), "cell "))
        .collect();
    v.insert("exec.cell_us", mean(&cell_us));
    optimize_layer(cfg, req, spec, pool, &mut out)?;

    // Replay a seeded sample of the cells the last traced query
    // evaluated, checking every replayed row the report carries.
    let mut labels = replay::cell_labels(&last.telemetry.spans());
    labels.sort();
    labels.dedup();
    let mut rng = Rng::new(inputs::mix(&[cfg.seed, 0x7ACE]));
    let shared_spec = Arc::new(spec.clone());
    let mut jobs = Vec::with_capacity(layers::REPLAY_CELLS);
    for _ in 0..layers::REPLAY_CELLS.min(labels.len()) {
        let label = labels.swap_remove(rng.below(labels.len()));
        match design_for(spec, &label) {
            Ok(design) => jobs.push(ReplayJob {
                spec: Arc::clone(&shared_spec),
                design,
                policies: inputs::sweep_policies(),
                metrics: req.doc.metrics,
            }),
            Err(e) => out.fail(e),
        }
    }
    let mut times = Vec::with_capacity(jobs.len());
    for replayed in layers::replay_on_pool(pool, jobs) {
        let checked = replayed
            .map_err(|e| format!("replay: {e}"))
            .and_then(|(t, evals)| compare_rows(&report, "evaluations", &evals).map(|_| t));
        match checked {
            Ok(t) => times.push(t),
            Err(e) => out.fail(e),
        }
    }
    let policies = inputs::SWEEP_POLICIES.len() as f64;
    layers::cell_metrics(
        &mut out.values,
        &times,
        policies,
        count(Counter::CellsEvaluated),
    );

    let body = inputs::sweep_body(&req.doc);
    layers::layer_calls(
        &mut out.values,
        &layers::LayerInputs {
            docs: &[req.doc.to_json()],
            report: &report,
            report_json: &json,
            raw_request: &http_request("POST", "/v1/sweep", &body),
        },
        &cfg.scratch,
    );
    layers::cell_coverage(&mut out.values, policies);
    layers::serve_replay(&mut out, "/v1/sweep", &body, &json, &cfg.scratch)?;
    Ok(out)
}
