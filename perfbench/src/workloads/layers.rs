//! The per-layer half of a traced run: the cell replay on the
//! workload's pool, the layer calls outside the evaluation kernel, and
//! the serve-path replay of the sweep workload's request.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use redeval::exec::{AnalysisCache, Pool};
use redeval::output::{cache_key_bytes, Json, Report};
use redeval::scenario::ScenarioDoc;
use redeval::{Design, DesignEvaluation, EvalError, MetricsConfig, NetworkSpec, PatchPolicy};
use redeval_bench::serve::{DEFAULT_CACHE_CAP, DEFAULT_DISK_CAP};
use redeval_server::{read_request, sha256, DiskCache, Limits, Request, ResultCache, Service};

use super::serve::start_server;
use super::{settle, Outcome};
use crate::client::Connection;
use crate::metrics::Values;
use crate::replay::{self, CellTimes};
use crate::stats::{mean, median, us};

/// Cells replayed layer by layer in a traced run.
pub(super) const REPLAY_CELLS: usize = 600;

/// Repetitions of each layer call outside the kernel (the reported time
/// is their median).
const REPS: usize = 41;

/// One cell to replay: a design of a network under a policy list.
pub(super) struct ReplayJob {
    pub(super) spec: Arc<NetworkSpec>,
    pub(super) design: Design,
    pub(super) policies: Vec<PatchPolicy>,
    pub(super) metrics: MetricsConfig,
}

/// A replayed cell's layer times and evaluations.
pub(super) type Replayed = Result<(CellTimes, Vec<DesignEvaluation>), EvalError>;

/// Replays `jobs` as one batch on the workload's own pool, so the
/// replayed layer calls run under the same thread contention as the
/// cells they stand for (tier solves happen first, untimed).
pub(super) fn replay_on_pool(pool: &Pool, jobs: Vec<ReplayJob>) -> Vec<Replayed> {
    let cache = Arc::new(AnalysisCache::new());
    for job in &jobs {
        let _ = cache.analyses_for(&job.spec);
    }
    let jobs = Arc::new(jobs);
    let shared = Arc::clone(&jobs);
    pool.run_batch(jobs.len(), move |i| {
        let job = &shared[i];
        replay::replay_cell(&cache, &job.spec, &job.design, &job.policies, &job.metrics)
    })
}

/// Per-cell layer means of the replayed sample, and the layers' CPU time
/// per query: the means scaled by the exact `cells_evaluated` counter.
pub(super) fn cell_metrics(v: &mut Values, times: &[CellTimes], policies: f64, cells: f64) {
    let avg = |f: fn(&CellTimes) -> f64| mean(&times.iter().map(f).collect::<Vec<_>>());
    let (build, metrics, patched, network) = (
        avg(|t| t.build_us),
        avg(|t| t.metrics_us),
        avg(|t| t.patched_us),
        avg(|t| t.network_us),
    );
    v.insert("harm.build_us", build);
    v.insert("harm.metrics_us", metrics);
    v.insert("harm.patched_metrics_us", patched);
    v.insert("harm.attack_paths", avg(|t| t.attack_paths));
    v.insert("avail.network_us", network);
    v.insert("avail.joint_states", avg(|t| t.joint_states));
    v.insert(
        "harm.cpu_s",
        (build + metrics + patched * policies) * cells / 1e6,
    );
    v.insert("avail.cpu_s", network * cells / 1e6);
}

/// The share of the mean `cell` span that the replayed layer calls
/// account for: HARM build and path metrics, the availability model,
/// and the cell's share of cold tier solves.
pub(super) fn cell_coverage(v: &mut Values, policies: f64) {
    let get = |k: &str| v.get(k).copied().unwrap_or(f64::NAN);
    let solves = get("srn.solve_us") * get("exec.cache_solves") / get("exec.cells_evaluated");
    let layers = get("harm.build_us")
        + get("harm.metrics_us")
        + get("harm.patched_metrics_us") * policies
        + get("avail.network_us")
        + solves;
    let pct = layers / get("exec.cell_us") * 100.0;
    v.insert("exec.cell_covered_pct", pct);
}

/// Median wall time (µs) of `reps` calls of `f`.
fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            us(t.elapsed())
        })
        .collect();
    median(&samples)
}

/// What the layer calls outside the kernel run on: the workload's own
/// documents, report and request.
pub(super) struct LayerInputs<'a> {
    /// Canonical JSON of the workload's documents (at least one).
    pub(super) docs: &'a [String],
    /// A report the workload produced.
    pub(super) report: &'a Report,
    /// That report's bytes.
    pub(super) report_json: &'a str,
    /// The workload's request as raw HTTP bytes.
    pub(super) raw_request: &'a str,
}

/// The layer calls outside the evaluation kernel, each timed on the
/// workload's own inputs: document decode and canonical re-serialize,
/// cold tier solves, report serialization, HTTP request parsing, the
/// cache-key hash (of the first document's `eval` key — request
/// parameters add a few bytes to a several-KB input), the memory result
/// cache and the disk tier.
pub(super) fn layer_calls(v: &mut Values, input: &LayerInputs<'_>, scratch: &Path) {
    let docs = input.docs;
    let parsed: Vec<ScenarioDoc> = docs
        .iter()
        .filter_map(|d| ScenarioDoc::from_json(d).ok())
        .collect();
    let mut i = 0;
    v.insert(
        "scenario.decode_us",
        time_us(REPS, || {
            std::hint::black_box(ScenarioDoc::from_json(&docs[i % docs.len()]).ok());
            i += 1;
        }),
    );
    let mut i = 0;
    v.insert(
        "scenario.canonical_us",
        time_us(REPS, || {
            std::hint::black_box(parsed[i % parsed.len()].to_json());
            i += 1;
        }),
    );
    let mut solves = Vec::new();
    for doc in parsed.iter().cycle().take(8) {
        let cache = AnalysisCache::new();
        let t = Instant::now();
        for tier in &doc.tiers {
            let _ = std::hint::black_box(cache.analysis(&tier.params));
        }
        solves.push(us(t.elapsed()) / cache.solves().max(1) as f64);
    }
    v.insert("srn.solve_us", median(&solves));

    let bytes = input.report_json.as_bytes();
    let reps = ((8 << 20) / bytes.len().max(1)).clamp(5, REPS);
    v.insert(
        "output.serialize_us",
        time_us(reps, || {
            std::hint::black_box(input.report.to_json());
        }),
    );
    v.insert("output.report_bytes", bytes.len() as f64);
    v.insert(
        "http.read_request_us",
        time_us(REPS, || {
            let _ = std::hint::black_box(read_request(
                &mut input.raw_request.as_bytes(),
                &Limits::default(),
            ));
        }),
    );
    let canonical = parsed[0].to_json();
    v.insert(
        "sha256.key_us",
        time_us(REPS, || {
            std::hint::black_box(sha256(&cache_key_bytes("eval", &Json::Null, &canonical)));
        }),
    );

    // Memory tier: distinct keys, each inserted, then each read back.
    let entries = ((32 << 20) / bytes.len().max(1)).clamp(5, REPS);
    let keys: Vec<_> = (0..entries as u64)
        .map(|k| sha256(&k.to_le_bytes()))
        .collect();
    let cache = ResultCache::new(DEFAULT_CACHE_CAP);
    let mut it = keys.iter();
    v.insert(
        "cache.insert_us",
        time_us(entries, || {
            cache.insert(*it.next().expect("one key per insert"), bytes);
        }),
    );
    let mut it = keys.iter();
    v.insert(
        "cache.get_us",
        time_us(entries, || {
            std::hint::black_box(cache.get(it.next().expect("one key per get")));
        }),
    );
    drop(cache);

    // Disk tier: write-fsync-rename of distinct entries.
    let dir = scratch.join("disk-replay");
    if let Ok(disk) = DiskCache::open(&dir, DEFAULT_DISK_CAP) {
        let stores = keys.len().min(9);
        let mut it = keys.iter();
        v.insert(
            "disk.store_us",
            time_us(stores, || {
                disk.store(it.next().expect("one key per store"), bytes);
            }),
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serve-path numbers of the sweep workload: its request sent once
/// over loopback (a miss that computes) and then repeatedly (memory
/// hits), every body checked against the in-process report bytes, plus
/// the in-process `Service::handle` time of the repeated request.
pub(super) fn serve_replay(
    out: &mut Outcome,
    path: &str,
    body: &str,
    expected: &str,
    scratch: &Path,
) -> Result<(), String> {
    let dir = scratch.join("serve-replay");
    let handle = start_server(Some(&dir))?;
    let mut conn = Connection::open(handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut latencies = Vec::new();
    for i in 0..21 {
        let t = Instant::now();
        let reply = conn.roundtrip("POST", path, body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let want = if i == 0 { "miss" } else { "hit" };
        match reply {
            Ok(r)
                if r.status == 200
                    && r.cache.as_deref() == Some(want)
                    && r.body == expected.as_bytes() =>
            {
                latencies.push(ms);
            }
            _ => out.fail(format!(
                "served {path} reply {i} was not the expected `{want}` bytes"
            )),
        }
    }
    drop(conn);
    let service = handle.service();
    handle_metrics(&mut out.values, service, path, body);
    if let Some((&miss, hits)) = latencies.split_first() {
        out.values.insert("serve.miss_latency_p50_ms", miss);
        out.values.insert("serve.hit_latency_p50_ms", median(hits));
    }
    out.values
        .insert("disk.stores", service.disk_stats().writes as f64);
    settle();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

/// `serve.handle_us` — the median in-process `Service::handle` time of
/// an already-answered request — and the service's result-cache hit
/// ratio over everything it has served.
pub(super) fn handle_metrics(v: &mut Values, service: &Service, path: &str, body: &str) {
    let req = Request::synthetic("POST", path, body.as_bytes());
    v.insert(
        "serve.handle_us",
        time_us(REPS, || {
            std::hint::black_box(service.handle(&req));
        }),
    );
    let stats = service.cache_stats();
    v.insert(
        "cache.hit_ratio",
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
}
