//! The two workloads and their traced variants.
//!
//! * `sweep_paper` — one `SweepRequest` per query through
//!   `reports::scenario::sweep_report_on`, each on a fresh
//!   `AnalysisCache`: the paper case study's full 8⁴ design space × two
//!   policies ([`sweep`]);
//! * `serve_mixed` — two closed-loop clients, each on its own keep-alive
//!   loopback connection to the wired `redeval serve` stack behind
//!   `Server`, sending seeded `POST /v1/eval` streams that are ~80 %
//!   repeats (memory hits) and ~20 % first-seen documents (misses that
//!   compute, and in the traced run also write the disk tier)
//!   ([`serve`]).
//!
//! An untraced run reports the end-to-end metrics. A traced run
//! (`--trace 1`) runs the workload with and without the profiling
//! telemetry, replays a seeded sample of the workload's cells and its
//! other layer calls from this crate ([`layers`]), and reports the
//! per-layer metrics; the traced `sweep_paper` run also measures the
//! optimize layer with one pruned search over its design space.

mod layers;
mod serve;
mod sweep;

use std::path::PathBuf;
use std::time::Duration;

use crate::metrics::Values;

/// Cores of the box the benchmark is sized for: the threads that compute
/// at once, and the server's connection workers (one per client).
pub const CORES: usize = 2;

/// Workers of every `exec::Pool` the benchmark builds, its own and the
/// one inside a server's service. The thread that submits a batch works
/// on it too, so a batch computes on [`CORES`] threads and none of them
/// waits for a core.
pub const POOL_WORKERS: usize = CORES - 1;

/// How long a pool is left idle before it is dropped; see [`settle`].
const SETTLE: Duration = Duration::from_millis(50);

/// Waits until the workers of a pool that is about to be dropped (an
/// `exec::Pool`, or the one inside a server's service) are parked.
///
/// `Pool`'s drop raises its shutdown flag and notifies the workers
/// without taking the queue lock, so a worker that is between its flag
/// check and its wait — just spawned, or just done with a task — misses
/// the wake-up, and the drop's join never returns. Workers reach their
/// wait within microseconds; after this pause none is in that window.
/// Every pool a run drops is dropped after such a pause, or after it
/// idled through at least one whole query or window part.
pub(crate) fn settle() {
    std::thread::sleep(SETTLE);
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Exhaustive sweep of the paper case study.
    SweepPaper,
    /// Closed-loop `POST /v1/eval` traffic against the wired server.
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::SweepPaper, Workload::ServeMixed];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepPaper => "sweep_paper",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Directory for the run's temporary files (created and removed by
    /// the run).
    pub scratch: PathBuf,
}

/// What a run measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Whether every checked output was right.
    pub correct: bool,
    /// Operations attempted (queries or requests).
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// The metrics of the run's list, by name.
    pub values: Values,
    /// Further human-readable facts, printed before the result line.
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    fn fail(&mut self, why: impl ToString) {
        self.correct = false;
        self.fact("error", why);
    }
}

/// Runs one configured benchmark invocation.
///
/// # Errors
///
/// Set-up failures (no result can be reported); output mismatches are
/// not errors but `correct: false` / `failed` counts in the outcome.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.scratch)
        .map_err(|e| format!("scratch directory {}: {e}", cfg.scratch.display()))?;
    let result = match cfg.workload {
        Workload::SweepPaper => sweep::run(cfg),
        Workload::ServeMixed => serve::run(cfg),
    };
    let _ = std::fs::remove_dir_all(&cfg.scratch);
    if let Some(parent) = cfg.scratch.parent() {
        // Only succeeds when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

/// The block of machine and build facts printed with every result.
pub fn machine_block(cfg: &Config) -> String {
    format!(
        "{{\"nproc\": {}, \"cores\": {CORES}, \"pool_workers\": {POOL_WORKERS}, \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        crate::stats::nproc(),
        crate::stats::rustc_version(),
        crate::stats::git_commit(),
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        cfg.trace
    )
}
