//! `serve_mixed`: closed-loop `POST /v1/eval` traffic from
//! [`SERVE_CLIENTS`] keep-alive loopback clients against the wired
//! server, every reply checked.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use redeval::exec::{run_batch, AnalysisCache, Pool};
use redeval::output::{Item, Report};
use redeval::scenario::ScenarioDoc;
use redeval::telemetry::{Counter, Telemetry};
use redeval::NetworkSpec;
use redeval_bench::reports::scenario::{eval_report, eval_report_on};
use redeval_bench::serve::{service, service_with_disk, DEFAULT_DISK_CAP};
use redeval_server::{sha256, Digest, Server, ServerHandle, Service};

use super::layers::{self, ReplayJob};
use super::sweep::compare_rows;
use super::{settle, Config, Outcome, CORES, POOL_WORKERS};
use crate::client::{wait_healthy, Connection};
use crate::inputs::{self, http_request, serve_doc, ClientStream, Rng, SERVE_CLIENTS, WORKING_SET};
use crate::replay;
use crate::stats::{mean, median, peak_rss_mib, percentile};

/// Parts the measured window is cut into; between parts the clients
/// wait while [`SETUPS_PER_PART`] set-ups are timed, so the set-ups see
/// the machine over the whole window, as the requests do, not as it was
/// in the instant before the first one.
const PARTS: usize = 4;

/// Set-ups timed after each part of the measured window (`setup_s` is
/// the median of them and the run's own set-up).
const SETUPS_PER_PART: usize = 10;

/// Byte budget of the server's memory tier. Far below the 64 MiB
/// default, which a measured window fills only in part, so `peak_rss_mb`
/// would grow with the number of documents served and read a faster
/// server as a memory regression. This tier fills early in the window
/// (~3 900 reports) and the rest of it runs as a long-running server
/// does, full and evicting. It still holds three times what the clients'
/// working sets keep live, so every repeat hits.
const MEMORY_TIER: usize = 8 << 20;

/// Served documents evaluated in process with and without the profiler
/// for `trace.overhead_pct`.
const OVERHEAD_DOCS: usize = 101;

/// Starts the wired server — [`CORES`] connection workers on an
/// ephemeral loopback port, a service pool of [`POOL_WORKERS`], a
/// [`MEMORY_TIER`] memory tier and, with `disk`, a disk tier in that
/// directory — and waits for the first `/healthz` 200.
pub(super) fn start_server(disk: Option<&Path>) -> Result<ServerHandle, String> {
    let service = match disk {
        Some(dir) => service_with_disk(POOL_WORKERS, MEMORY_TIER, dir, DEFAULT_DISK_CAP)
            .map_err(|e| format!("disk cache: {e}"))?,
        None => service(POOL_WORKERS, MEMORY_TIER),
    };
    let server = Server::bind("127.0.0.1:0", service, CORES).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn().map_err(|e| format!("spawn: {e}"))?;
    wait_healthy(handle.addr(), 1000).map_err(|e| format!("healthz: {e}"))?;
    Ok(handle)
}

/// The result of one client over one window.
#[derive(Debug, Default)]
struct ClientRun {
    /// Client-side latency (ms) of every completed request, and whether
    /// it was a first-seen document.
    samples: Vec<(f64, bool)>,
    attempted: u64,
    failed: u64,
    /// Each document served with its expected first reply, by index in
    /// the stream, with the SHA-256 of that reply.
    served: Vec<(usize, Digest)>,
    /// Why requests failed (the first few).
    errors: Vec<String>,
}

/// A document of a client's working set: its body, and the bytes first
/// served for it.
struct Known {
    body: String,
    first_reply: Option<Vec<u8>>,
}

/// Drives one closed-loop client through its stream for each of
/// `parts` parts of the window, released with the other clients by
/// `barrier` and running `part` long: each request is sent only after
/// the previous reply arrived, and each reply must be a 200 with the
/// disposition its position in the stream implies and, for a repeat, the
/// bytes first served.
fn drive_client(
    addr: SocketAddr,
    mut stream: ClientStream,
    barrier: &Barrier,
    parts: usize,
    part: Duration,
) -> ClientRun {
    let mut run = ClientRun::default();
    // Document `k` lives in slot `k % WORKING_SET` while it can repeat.
    let mut known: Vec<Option<Known>> = (0..WORKING_SET).map(|_| None).collect();
    let opened = Connection::open(addr).and_then(|mut c| {
        c.roundtrip("GET", "/healthz", "")?;
        Ok(c)
    });
    let mut conn = match opened {
        Ok(c) => Some(c),
        Err(e) => {
            run.attempted = 1;
            run.failed = 1;
            run.errors.push(format!("connect: {e}"));
            None
        }
    };
    for _ in 0..parts {
        barrier.wait();
        let deadline = Instant::now() + part;
        let alive = match &mut conn {
            Some(c) => drive_part(c, &mut stream, &mut known, deadline, &mut run),
            None => false,
        };
        if !alive {
            conn = None;
        }
        barrier.wait();
    }
    run
}

/// One part of a client's window, until `deadline`; `false` once an I/O
/// error broke the connection.
fn drive_part(
    conn: &mut Connection,
    stream: &mut ClientStream,
    known: &mut [Option<Known>],
    deadline: Instant,
    run: &mut ClientRun,
) -> bool {
    while Instant::now() < deadline {
        let step = stream.next().expect("client streams are endless");
        let slot = &mut known[step.doc % WORKING_SET];
        if step.first {
            *slot = Some(Known {
                body: stream.body(step.doc),
                first_reply: None,
            });
        }
        let doc = slot
            .as_mut()
            .expect("a repeat names a working-set document");
        run.attempted += 1;
        let t = Instant::now();
        let reply = conn.roundtrip("POST", "/v1/eval", &doc.body);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let want = if step.first { "miss" } else { "hit" };
        let ok = match &reply {
            Ok(r) if r.status == 200 && r.cache.as_deref() == Some(want) => {
                match &doc.first_reply {
                    Some(first) => first == &r.body,
                    None => step.first,
                }
            }
            _ => false,
        };
        if ok {
            run.samples.push((ms, step.first));
            if let (true, Ok(r)) = (step.first, reply) {
                run.served.push((step.doc, sha256(&r.body)));
                doc.first_reply = Some(r.body);
            }
            continue;
        }
        run.failed += 1;
        let broken = reply.is_err();
        if run.errors.len() < 3 {
            run.errors.push(match reply {
                Ok(r) => format!(
                    "status {} cache {:?} (wanted {want}) on document {}",
                    r.status, r.cache, step.doc
                ),
                Err(e) => format!("I/O error: {e}"),
            });
        }
        if broken {
            return false;
        }
    }
    true
}

/// One measured window of `seconds`, cut into `parts` equal parts:
/// every client on its own connection and stream, all released together
/// at the start of each part, and `between` run after each part while
/// they wait. Returns the client runs and the time the clients were
/// active (each part until its last reply arrived).
fn window(
    addr: SocketAddr,
    streams: Vec<ClientStream>,
    seconds: f64,
    parts: usize,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<(Vec<ClientRun>, f64), String> {
    let part = Duration::from_secs_f64(seconds / parts as f64);
    let barrier = Barrier::new(streams.len() + 1);
    let mut active = 0.0;
    let mut outcome = Ok(());
    let runs = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let barrier = &barrier;
                s.spawn(move || drive_client(addr, stream, barrier, parts, part))
            })
            .collect();
        for _ in 0..parts {
            barrier.wait();
            let t = Instant::now();
            barrier.wait();
            active += t.elapsed().as_secs_f64();
            if outcome.is_ok() {
                outcome = between();
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    outcome.map(|()| (runs, active))
}

/// The run's client streams, one per client.
fn streams(seed: u64) -> Vec<ClientStream> {
    (0..SERVE_CLIENTS as u64)
        .map(|s| ClientStream::new(seed, s))
        .collect()
}

/// A served document, re-evaluated in process.
struct VerifiedDoc {
    doc: ScenarioDoc,
    report: Report,
    secs: f64,
}

/// Checks every first-served body against the in-process
/// `eval_report(doc).to_json()` bytes, the document rendered again from
/// the seed; repeats were already compared with the first-served body of
/// their document. With `traced`, the re-evaluation runs through
/// `eval_report_on` on the given pool and profiling cache instead —
/// byte-identical by the engine's contract — and the verified documents
/// are returned for the layer replay. Returns the failure count, the
/// first few reasons and those documents.
fn verify(
    seed: u64,
    runs: &[ClientRun],
    traced: Option<(&Pool, &Arc<AnalysisCache>)>,
) -> (u64, Vec<String>, Vec<VerifiedDoc>) {
    let served: Vec<(u64, usize, &Digest)> = runs
        .iter()
        .zip(0u64..)
        .flat_map(|(run, stream)| run.served.iter().map(move |(k, d)| (stream, *k, d)))
        .collect();
    let check = |i: usize| -> Result<Option<VerifiedDoc>, String> {
        let (stream, k, digest) = served[i];
        let body = serve_doc(seed, stream, k as u64).to_json();
        let doc = ScenarioDoc::from_json(&body)
            .map_err(|e| format!("stream document does not decode: {e}"))?;
        let t = Instant::now();
        let report = match traced {
            Some((pool, cache)) => eval_report_on(&doc, pool, cache),
            None => eval_report(&doc),
        }
        .map_err(|e| format!("eval_report of `{}` failed: {e}", doc.name))?;
        let secs = t.elapsed().as_secs_f64();
        if &sha256(report.to_json().as_bytes()) != digest {
            return Err(format!(
                "served bytes of `{}` differ from eval_report",
                doc.name
            ));
        }
        Ok(traced.map(|_| VerifiedDoc { doc, report, secs }))
    };
    // Untraced, documents are independent: check them on the workers.
    let results: Vec<_> = match traced {
        Some(_) => (0..served.len()).map(check).collect(),
        None => run_batch(served.len(), CORES, check),
    };
    let mut failed = 0;
    let mut errors = Vec::new();
    let mut docs = Vec::new();
    for result in results {
        match result {
            Ok(doc) => docs.extend(doc),
            Err(e) => {
                failed += 1;
                if errors.len() < 3 {
                    errors.push(e);
                }
            }
        }
    }
    (failed, errors, docs)
}

/// Adds the clients' request counts and failures to the outcome.
fn tally(out: &mut Outcome, runs: &[ClientRun], bad_bodies: u64, errors: Vec<String>) {
    let misses: usize = runs
        .iter()
        .map(|r| r.samples.iter().filter(|s| s.1).count())
        .sum();
    let done: usize = runs.iter().map(|r| r.samples.len()).sum();
    out.attempted += runs.iter().map(|r| r.attempted).sum::<u64>();
    out.failed += runs.iter().map(|r| r.failed).sum::<u64>() + bad_bodies;
    out.fact("requests", done);
    out.fact("misses", misses);
    out.fact("first_seen_share", misses as f64 / done.max(1) as f64);
    for e in runs
        .iter()
        .flat_map(|r| r.errors.iter())
        .chain(&errors)
        .take(5)
    {
        out.fail(e);
    }
}

/// Runs `serve_mixed`.
///
/// The measured (untraced) run serves from the memory tier alone: on the
/// shared virtual disk the benchmark was tuned on, the disk tier's
/// write-fsync-rename on every miss moved throughput between 600 and
/// 1 830 req/s from run to run with host I/O load. The traced run
/// serves with the disk tier too, so `disk.*` still measures it.
pub(super) fn run(cfg: &Config) -> Result<Outcome, String> {
    let dir = cfg.scratch.join("serve");
    let t = Instant::now();
    let handle = start_server(cfg.trace.then_some(dir.as_path()))?;
    let setup = t.elapsed().as_secs_f64();
    let result = if cfg.trace {
        trace(cfg, &handle, Outcome::new())
    } else {
        measure(cfg, &handle, setup, Outcome::new())
    };
    settle();
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The untraced run: the end-to-end metrics.
fn measure(
    cfg: &Config,
    handle: &ServerHandle,
    setup: f64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut setups = vec![setup];
    // The servers set up after the last part, kept until their services'
    // pools have idled through the next part (see `settle`).
    let mut idle: Vec<ServerHandle> = Vec::with_capacity(SETUPS_PER_PART);
    let time_setups = || -> Result<(), String> {
        idle.drain(..).for_each(ServerHandle::stop);
        for _ in 0..SETUPS_PER_PART {
            let t = Instant::now();
            let extra = start_server(None)?;
            setups.push(t.elapsed().as_secs_f64());
            idle.push(extra);
        }
        Ok(())
    };
    let windowed = window(
        handle.addr(),
        streams(cfg.seed),
        cfg.seconds,
        PARTS,
        time_setups,
    );
    settle();
    idle.into_iter().for_each(ServerHandle::stop);
    let (runs, length) = windowed?;
    out.values.insert("peak_rss_mb", peak_rss_mib());
    let t = Instant::now();
    let (bad, errors, _) = verify(cfg.seed, &runs, None);
    out.fact("verify_s", t.elapsed().as_secs_f64());
    tally(&mut out, &runs, bad, errors);

    let latencies: Vec<f64> = runs
        .iter()
        .flat_map(|r| r.samples.iter().map(|&(ms, _)| ms))
        .collect();
    // A failed request counts as missing any latency limit.
    let mut with_failures = latencies.clone();
    with_failures.extend(std::iter::repeat(f64::INFINITY).take(out.failed as usize));
    let answer_ms = median(&latencies);
    out.values.insert("setup_s", median(&setups));
    out.values.insert("answer_s", answer_ms / 1e3);
    out.values
        .insert("throughput_rps", latencies.len() as f64 / length);
    out.values
        .insert("latency_p99_ms", percentile(&with_failures, 0.99));
    out.fact("setups", setups.len());
    out.fact("latency_p50_ms", answer_ms);
    out.fact(
        "error_rate",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    Ok(out)
}

/// The service's core counters (as `GET /v1/stats` reports them) and
/// its disk-tier writes.
fn service_counters(service: &Service) -> BTreeMap<String, f64> {
    let mut counters: BTreeMap<String, f64> = service
        .stats_report()
        .items
        .iter()
        .filter_map(|item| match item {
            Item::Keys(entries) => Some(entries),
            _ => None,
        })
        .flatten()
        .filter_map(|(k, v)| Some((k.strip_prefix("core_")?.to_string(), replay::as_f64(v)?)))
        .collect();
    counters.insert("disk_writes".into(), service.disk_stats().writes as f64);
    counters
}

/// `trace.overhead_pct`: how much slower the in-process evaluation of a
/// served document runs with the profiling telemetry than without it —
/// the median over documents of the paired ratio, each evaluation on a
/// fresh cache and the order alternating so drift hits both sides alike.
fn tracing_overhead(pool: &Pool, docs: &[VerifiedDoc]) -> f64 {
    let time = |doc: &ScenarioDoc, telemetry: Telemetry| {
        let cache = Arc::new(AnalysisCache::with_telemetry(telemetry));
        let t = Instant::now();
        let report = eval_report_on(doc, pool, &cache).map(|r| r.to_json());
        std::hint::black_box(report.ok());
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = docs
        .iter()
        .take(OVERHEAD_DOCS)
        .enumerate()
        .map(|(i, d)| {
            if i % 2 == 0 {
                let plain = time(&d.doc, Telemetry::noop());
                time(&d.doc, Telemetry::profiler()) / plain
            } else {
                let traced = time(&d.doc, Telemetry::profiler());
                traced / time(&d.doc, Telemetry::noop())
            }
        })
        .collect();
    (median(&ratios) - 1.0) * 100.0
}

/// The traced run: per-layer metrics of `serve_mixed`.
fn trace(cfg: &Config, handle: &ServerHandle, mut out: Outcome) -> Result<Outcome, String> {
    let service = handle.service();
    let before = service_counters(service);
    let (runs, _) = window(handle.addr(), streams(cfg.seed), cfg.seconds, 1, || Ok(()))?;
    let after = service_counters(service);

    let telemetry = Telemetry::profiler();
    let pool = Pool::new(POOL_WORKERS);
    let cache = Arc::new(AnalysisCache::with_telemetry(telemetry.clone()));
    let (bad, errors, verified) = verify(cfg.seed, &runs, Some((&pool, &cache)));
    tally(&mut out, &runs, bad, errors);
    if verified.is_empty() {
        return Err("no first-seen document was served in the traced window".into());
    }

    let v = &mut out.values;
    v.insert("trace.overhead_pct", tracing_overhead(&pool, &verified));
    let delta = |name: &str| after.get(name).unwrap_or(&0.0) - before.get(name).unwrap_or(&0.0);
    v.insert("exec.cache_solves", delta("cache_solves"));
    v.insert("exec.cache_hits", delta("cache_hits"));
    v.insert("markov.solver_iterations", delta("solver_iterations"));
    v.insert("exec.cells_evaluated", delta("cells_evaluated"));
    v.insert("exec.pool_jobs", delta("pool_jobs"));
    v.insert("optimize.boxes_explored", delta("boxes_explored"));
    v.insert("optimize.boxes_pruned", delta("boxes_pruned"));
    v.insert("disk.stores", delta("disk_writes"));

    // The in-process re-evaluation of the window's misses ran on
    // one profiling cache shared across documents, as the server's is.
    let spans = telemetry.spans();
    let grid: f64 = verified
        .iter()
        .map(|d| (d.doc.designs.len() * d.doc.policies.len()) as f64)
        .sum();
    let designs = telemetry.snapshot().get(Counter::DesignsEvaluated) as f64;
    v.insert("optimize.evaluated_fraction", designs / grid);
    v.insert("exec.cell_us", mean(&replay::span_us(&spans, "cell ")));
    let eval_secs: f64 = verified.iter().map(|d| d.secs).sum();
    let grid_secs = replay::span_us(&spans, "experiment ").iter().sum::<f64>() / 1e6;
    v.insert(
        "optimize.search_overhead_s",
        (eval_secs - grid_secs) / verified.len() as f64,
    );

    // Replay a seeded sample of the window's cells — (document,
    // design) pairs under every policy of the document — and check each
    // row against the in-process report.
    let specs: Vec<Arc<NetworkSpec>> = verified
        .iter()
        .map(|d| d.doc.to_spec().map(Arc::new))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("to_spec: {e}"))?;
    let mut rng = Rng::new(inputs::mix(&[cfg.seed, 0x7ACE]));
    let mut picks = Vec::with_capacity(layers::REPLAY_CELLS);
    let mut jobs = Vec::with_capacity(layers::REPLAY_CELLS);
    for _ in 0..layers::REPLAY_CELLS {
        let i = rng.below(verified.len());
        let doc = &verified[i].doc;
        jobs.push(ReplayJob {
            spec: Arc::clone(&specs[i]),
            design: doc.designs[rng.below(doc.designs.len())].clone(),
            policies: doc.policies.clone(),
            metrics: doc.metrics,
        });
        picks.push(i);
    }
    let policies = mean(
        &jobs
            .iter()
            .map(|j| j.policies.len() as f64)
            .collect::<Vec<_>>(),
    );
    let mut times = Vec::with_capacity(jobs.len());
    for (replayed, &i) in layers::replay_on_pool(&pool, jobs).into_iter().zip(&picks) {
        let checked = replayed
            .map_err(|e| format!("replay: {e}"))
            .and_then(|(t, evals)| {
                match compare_rows(&verified[i].report, "evaluations", &evals)? {
                    n if n == evals.len() => Ok(t),
                    _ => Err("a replayed cell has no report row".to_string()),
                }
            });
        match checked {
            Ok(t) => times.push(t),
            Err(e) => out.fail(e),
        }
    }
    let cells = out.values["exec.cells_evaluated"];
    layers::cell_metrics(&mut out.values, &times, policies, cells);

    let bodies: Vec<String> = verified.iter().take(16).map(|d| d.doc.to_json()).collect();
    let first = &verified[0];
    layers::layer_calls(
        &mut out.values,
        &layers::LayerInputs {
            docs: &bodies,
            report: &first.report,
            report_json: &first.report.to_json(),
            raw_request: &http_request("POST", "/v1/eval", &bodies[0]),
        },
        &cfg.scratch,
    );
    layers::cell_coverage(&mut out.values, policies);

    let latencies = |first: bool| -> Vec<f64> {
        runs.iter()
            .flat_map(|r| r.samples.iter().filter(|s| s.1 == first).map(|s| s.0))
            .collect()
    };
    out.values
        .insert("serve.hit_latency_p50_ms", median(&latencies(false)));
    out.values
        .insert("serve.miss_latency_p50_ms", median(&latencies(true)));
    // A document the traced window already answered: the calls hit.
    layers::handle_metrics(&mut out.values, service, "/v1/eval", &bodies[0]);
    settle();
    drop(pool);
    Ok(out)
}
