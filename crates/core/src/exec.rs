//! Batch execution layer: scenario grids evaluated on a reusable worker
//! pool.
//!
//! The paper's headline results are *sweeps* — designs × patch policies ×
//! schedule parameters — and every such sweep reduces to the same shape:
//! a grid of points, each producing one [`DesignEvaluation`]. This
//! module provides that shape once, so the design space can grow to
//! thousands of points without per-call-site `for` loops:
//!
//! * [`Pool`] — the one parallel primitive: persistent workers, owned by
//!   the caller, that run deterministic parallel maps over job indices
//!   ([`Pool::run_batch`]; no external dependencies). Every batch below
//!   runs on a pool passed in by the caller, so the thread count is set
//!   in exactly one place, [`Pool::new`];
//! * [`AnalysisCache`] — a thread-safe, session-scoped cache of the
//!   per-tier lower-layer SRN solves, keyed by parameter content
//!   (count- and name-independent, so one solve serves every design —
//!   and every later request — sharing a tier's [`ServerParams`]
//!   numbers). Like the pool it belongs to the caller: every batch
//!   below takes both, and the builders describe only *what* to
//!   compute;
//! * [`Sweep`] — the declarative grid, and the one in-process way to
//!   evaluate a design (one design under one policy is a one-point
//!   sweep): spec variants × designs × patch policies, run in one call.
//!   What depends only on the variant — each policy's pruned attack trees
//!   and label suffix, and the memo of tier down distributions per
//!   (tier, count) — is prepared once per variant before the batch. Each
//!   (variant, design) pair is then one cell and one pool job, so the
//!   security model, before-patch metrics and availability measures are
//!   computed once per cell instead of once per policy.
//!
//! # Determinism
//!
//! Results come back in grid order regardless of pool size, and every
//! point's numbers are bitwise-identical to a one-point sweep of it on a
//! one-worker pool: workers only partition *which* cells they compute,
//! never how a point is computed, and the shared caches store values
//! that do not depend on evaluation order.
//!
//! # Examples
//!
//! Evaluate the paper's five designs under three patch policies on a
//! two-worker pool and a solve cache, both owned by the caller:
//!
//! ```
//! use std::sync::Arc;
//!
//! use redeval::case_study;
//! use redeval::exec::{AnalysisCache, Pool, Sweep};
//! use redeval::PatchPolicy;
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let (pool, cache) = (Pool::new(2), Arc::new(AnalysisCache::new()));
//! let evals = Sweep::new(case_study::network())
//!     .designs(case_study::five_designs())
//!     .policies(vec![
//!         PatchPolicy::None,
//!         PatchPolicy::CriticalOnly(8.0),
//!         PatchPolicy::All,
//!     ])
//!     .run(&pool, &cache)?;
//! assert_eq!(evals.len(), 15); // 5 designs × 3 policies, in grid order
//! // A second batch on the same cache re-solves no tier.
//! Sweep::new(case_study::network()).run(&pool, &cache)?;
//! assert_eq!(cache.solves(), 4);
//! # Ok(())
//! # }
//! ```

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use redeval_avail::{Durations, ServerAnalysis, ServerParams};
use redeval_harm::MetricsConfig;
use redeval_srn::SrnError;

use crate::evaluation::{evaluate_design, DesignEvaluation, PatchPolicy, VariantContext};
use crate::spec::{Design, NetworkSpec};
use crate::telemetry::{Counter, Telemetry};
use crate::EvalError;

/// The number of worker threads matching the machine's available
/// parallelism (at least 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` independent jobs on up to `threads` scoped threads (the
/// caller among them) and returns the results **in job order**.
///
/// A one-off variant of [`Pool::run_batch`] for jobs that borrow from the
/// caller's stack: the helpers are spawned for this call and joined
/// before it returns, and they run the pool's own claim loop, so the
/// ordering and panic contract is the pool's. With `threads <= 1` (or a
/// single job) every job runs on the caller's thread. No batch of this
/// crate uses it; it stays because the repository benchmark
/// (`perfbench/`) verifies its served answers through it.
///
/// # Panics
///
/// Resumes the first panic raised by `job`, with its original payload.
///
/// # Examples
///
/// ```
/// let squares = redeval::exec::run_batch(5, 4, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
pub fn run_batch<T, F>(jobs: usize, threads: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let state = BatchState::new(jobs);
    let helpers = threads.clamp(1, jobs.max(1)) - 1;
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| state.work(&job));
        }
        state.work(&job);
    });
    state.finish()
}

/// A queued unit of [`Pool`] work.
type PoolTask = Box<dyn FnOnce() + Send + 'static>;

/// What the pool workers share: the task queue and shutdown flag.
#[derive(Default)]
struct PoolShared {
    queue: Mutex<VecDeque<PoolTask>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// Per-batch bookkeeping shared by [`Pool::run_batch`] and [`run_batch`]:
/// the job counter, the result slots, the first panic and the pool's
/// helper-completion latch. [`work`](BatchState::work) is the only code
/// that claims job indices.
struct BatchState<T> {
    next: AtomicUsize,
    jobs: usize,
    slots: Mutex<Vec<Option<T>>>,
    finished_helpers: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl<T: Send> BatchState<T> {
    fn new(jobs: usize) -> Self {
        BatchState {
            next: AtomicUsize::new(0),
            jobs,
            slots: Mutex::new((0..jobs).map(|_| None).collect()),
            finished_helpers: Mutex::new(0),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Claims and runs jobs until the counter is exhausted. A panicking
    /// job stops further claims and parks its payload for the caller.
    fn work(&self, job: &(dyn Fn(usize) -> T + Sync)) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.jobs {
                return;
            }
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job(i))) {
                Ok(value) => self.slots.lock().expect("batch slots lock")[i] = Some(value),
                Err(payload) => {
                    self.panic
                        .lock()
                        .expect("batch panic lock")
                        .get_or_insert(payload);
                    self.next.store(self.jobs, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// The results in job order, or the first job panic resumed on the
    /// caller's thread. Call once every worker has returned from
    /// [`work`](BatchState::work).
    fn finish(&self) -> Vec<T> {
        if let Some(payload) = self.panic.lock().expect("batch panic lock").take() {
            std::panic::resume_unwind(payload);
        }
        let mut slots = self.slots.lock().expect("batch slots lock");
        slots
            .drain(..)
            .map(|s| s.expect("every job index assigned exactly once"))
            .collect()
    }

    fn helper_finished(&self) {
        *self.finished_helpers.lock().expect("batch latch lock") += 1;
        self.done.notify_all();
    }

    /// Blocks until every helper task has checked in. While waiting, the
    /// caller drains the pool's task queue inline: with few workers (or a
    /// batch submitted from inside a pool job) a helper task might never
    /// be popped by anyone else, and running queued tasks here instead of
    /// sleeping makes that situation impossible to deadlock on.
    fn wait_for_helpers(&self, pool: &PoolShared, helpers: usize) {
        loop {
            {
                let finished = self.finished_helpers.lock().expect("batch latch lock");
                if *finished >= helpers {
                    return;
                }
            }
            let task = pool.queue.lock().expect("pool queue lock").pop_front();
            match task {
                Some(task) => task(),
                None => {
                    // Queue empty ⇒ every helper of this batch has been
                    // popped and is running; its completion will notify.
                    // Re-check under the lock so a check-in between the
                    // pop and this wait cannot be missed.
                    let finished = self.finished_helpers.lock().expect("batch latch lock");
                    if *finished >= helpers {
                        return;
                    }
                    drop(self.done.wait(finished).expect("batch latch wait"));
                }
            }
        }
    }
}

/// A reusable worker pool: threads spawned once, batches submitted many
/// times. Every batch of the crate — [`Sweep`], the optimizer, the
/// equilibrium analyzer and the sensitivity analysis —
/// runs on a pool its caller owns, next to the caller's
/// [`AnalysisCache`]: a CLI run builds one of each, `redeval serve`
/// keeps one of each for its lifetime.
///
/// [`Pool::run_batch`] returns results in job order, balances long and
/// short jobs through a shared counter, and resumes a job's panic on the
/// caller. Pool jobs must be `'static` (workers outlive the call), and
/// the calling thread participates in the batch, so a pool is never idle
/// while its submitter spins.
///
/// Dropping the pool joins every worker; tasks already queued finish
/// first.
///
/// # Examples
///
/// ```
/// use redeval::exec::Pool;
///
/// let pool = Pool::new(4);
/// let squares = pool.run_batch(5, |i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// // The same workers serve the next batch — no respawn.
/// assert_eq!(pool.run_batch(3, |i| i + 1), vec![1, 2, 3]);
/// ```
#[derive(Debug)]
pub struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared").finish_non_exhaustive()
    }
}

impl Pool {
    /// A pool with `threads` persistent workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared::default());
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("redeval-pool-{i}"))
                    .spawn(move || loop {
                        let task = {
                            let mut queue = shared.queue.lock().expect("pool queue lock");
                            loop {
                                if let Some(task) = queue.pop_front() {
                                    break task;
                                }
                                if shared.shutdown.load(Ordering::Acquire) {
                                    return;
                                }
                                queue = shared.ready.wait(queue).expect("pool queue wait");
                            }
                        };
                        task();
                    })
                    .expect("pool worker spawns")
            })
            .collect();
        Pool { shared, workers }
    }

    /// The number of persistent workers.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Runs `jobs` independent jobs across the pool (the calling thread
    /// helps) and returns the results **in job order**.
    ///
    /// Concurrent `run_batch` calls interleave safely: each batch claims
    /// its own job indices, workers drain whatever batch is queued.
    /// Calling it from *inside* a pool job is safe too (the submitting
    /// job works the batch itself even if every worker is busy), though
    /// nested batches share the same workers rather than growing them.
    ///
    /// # Panics
    ///
    /// Resumes the first panic raised by `job`, with its original payload.
    pub fn run_batch<T, F>(&self, jobs: usize, job: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(usize) -> T + Send + Sync + 'static,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let job: Arc<F> = Arc::new(job);
        let state = Arc::new(BatchState::new(jobs));
        // The caller takes one share of the work, so only `jobs - 1`
        // helpers can ever be useful.
        let helpers = self.workers.len().min(jobs - 1);
        {
            let mut queue = self.shared.queue.lock().expect("pool queue lock");
            for _ in 0..helpers {
                let job = Arc::clone(&job);
                let state = Arc::clone(&state);
                queue.push_back(Box::new(move || {
                    state.work(&*job);
                    state.helper_finished();
                }));
            }
        }
        for _ in 0..helpers {
            self.shared.ready.notify_one();
        }
        state.work(&*job);
        state.wait_for_helpers(&self.shared, helpers);
        state.finish()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // Raised under the queue lock: a worker checks the flag and
            // starts waiting under that lock too, so it either sees the
            // flag or is already waiting when the notification comes.
            let _queue = self.shared.queue.lock().expect("pool queue lock");
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            // A panic inside a *task* is contained by run_batch; a worker
            // itself only dies if the pool's own bookkeeping panicked.
            let _ = worker.join();
        }
    }
}

/// Cache key: the bit patterns of all thirteen duration parameters —
/// the *content* of a solve, deliberately excluding the server's name.
/// Keying on bits (not rounded values) keeps the cache exact — two
/// parameter sets collide only when every solve input is identical, so
/// a hit can never change a result. The name is reattached on lookup
/// (see [`AnalysisCache::analysis`]): it labels report rows but cannot
/// influence a single solved number, so tiers that differ only in name
/// share one SRN solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct ParamsKey {
    bits: [u64; 13],
}

impl ParamsKey {
    fn of(p: &ServerParams) -> ParamsKey {
        let b = |d: Durations| d.as_hours().to_bits();
        ParamsKey {
            bits: [
                b(p.hw_mtbf),
                b(p.hw_repair),
                b(p.os_mtbf),
                b(p.os_repair),
                b(p.os_patch),
                b(p.os_reboot_patch),
                b(p.os_reboot_failure),
                b(p.svc_mtbf),
                b(p.svc_repair),
                b(p.svc_patch),
                b(p.svc_reboot_patch),
                b(p.svc_reboot_failure),
                b(p.patch_interval),
            ],
        }
    }
}

/// How many distinct parameter contents the cache holds before it is
/// flushed wholesale (see [`AnalysisCache::analysis`]). Far above any
/// single batch (a sweep touches tiers × patch-interval variants), so a
/// flush only ever hits a long-running session that has evaluated
/// thousands of unrelated scenarios.
const DEFAULT_ANALYSIS_CAPACITY: usize = 4096;

/// One cache slot: either a finished solve (with its named relabels) or
/// a marker that some thread is solving this key right now.
#[derive(Debug)]
enum Slot {
    /// A solve is in flight on another thread; wait for its result.
    InFlight,
    /// Solved. Index 0 is the originally solved analysis, later entries
    /// are relabels of it.
    Ready(Vec<Arc<ServerAnalysis>>),
}

/// A thread-safe cache of per-tier lower-layer SRN solves.
///
/// The lower-layer solve of a tier depends only on its [`ServerParams`],
/// never on server counts, so one solve serves every design in a batch —
/// and every batch run on the same cache: a CLI run shares one across
/// its reports, and `redeval serve` holds one for its whole lifetime.
/// Entries are keyed by
/// parameter *content* (the thirteen duration bit patterns), not by
/// tier name: editing one tier's one rate re-solves exactly that tier,
/// while renames and vulnerability edits re-solve nothing.
/// [`hits`](AnalysisCache::hits), [`solves`](AnalysisCache::solves) and
/// [`relabels`](AnalysisCache::relabels) expose the dedup for tests and
/// diagnostics, and an attached [`Telemetry`] handle mirrors them into
/// the process-wide counter snapshot.
#[derive(Debug)]
pub struct AnalysisCache {
    map: Mutex<HashMap<ParamsKey, Slot>>,
    /// Signalled whenever an in-flight solve completes (or fails).
    ready: Condvar,
    capacity: usize,
    hits: AtomicUsize,
    solves: AtomicUsize,
    relabels: AtomicUsize,
    telemetry: Telemetry,
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisCache {
    /// An empty cache with the default session capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_ANALYSIS_CAPACITY)
    }

    /// An empty cache flushed after `capacity` distinct parameter
    /// contents (clamped to at least 1). The bound keeps a session-long
    /// cache from growing without limit; a flush costs only re-solves,
    /// never correctness.
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisCache {
            map: Mutex::new(HashMap::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            hits: AtomicUsize::new(0),
            solves: AtomicUsize::new(0),
            relabels: AtomicUsize::new(0),
            telemetry: Telemetry::noop(),
        }
    }

    /// An empty cache (default capacity) that mirrors its counters —
    /// and the convergence stats of every solve it performs — into
    /// `telemetry`. This is how the batch layer, the optimizer and the
    /// serving path get instrumented: they all resolve tier solves
    /// through a shared cache.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        let mut cache = Self::new();
        cache.telemetry = telemetry;
        cache
    }

    /// The telemetry handle counters are mirrored into (the no-op
    /// handle unless constructed via
    /// [`with_telemetry`](AnalysisCache::with_telemetry)).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The solved analysis for `params`, computed on first use.
    ///
    /// A lookup that finds the same parameter content under a
    /// *different* tier name reuses the solved numbers and only swaps
    /// the label (a [`relabel`](AnalysisCache::relabels), not a solve) —
    /// the name feeds report rows, never the SRN. First requests are
    /// **single-flighted** per key: concurrent requests for the same
    /// parameter content perform exactly one solve (the others wait for
    /// it and count as hits), so the hit/solve/relabel counters are
    /// schedule-independent — the same workload reports the same
    /// numbers at any thread count. Requests for *different* keys never
    /// wait on each other (the solve runs outside the map lock).
    ///
    /// # Errors
    ///
    /// Propagates SRN build/solve errors. Failures are not cached; a
    /// waiter re-attempts the solve itself.
    pub fn analysis(&self, params: &ServerParams) -> Result<Arc<ServerAnalysis>, SrnError> {
        let key = ParamsKey::of(params);
        {
            let mut map = self.map.lock().expect("cache lock");
            loop {
                match map.get_mut(&key) {
                    Some(Slot::Ready(variants)) => {
                        if let Some(hit) = variants.iter().find(|a| a.name() == params.name) {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            self.telemetry.add(Counter::CacheHits, 1);
                            return Ok(Arc::clone(hit));
                        }
                        // Same solve content under a new tier name:
                        // relabel the solved analysis instead of solving
                        // again. Done under the lock (a relabel is one
                        // clone), so each (key, name) pair relabels at
                        // most once however many threads race for it.
                        let relabeled = Arc::new(variants[0].renamed(&params.name));
                        variants.push(Arc::clone(&relabeled));
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        self.relabels.fetch_add(1, Ordering::Relaxed);
                        self.telemetry.add(Counter::CacheHits, 1);
                        self.telemetry.add(Counter::CacheRelabels, 1);
                        return Ok(relabeled);
                    }
                    Some(Slot::InFlight) => {
                        map = self.ready.wait(map).expect("cache wait");
                    }
                    None => {
                        if map.len() >= self.capacity {
                            // Wholesale flush, but never of in-flight
                            // markers: dropping one would let a second
                            // thread start a duplicate solve.
                            map.retain(|_, slot| matches!(slot, Slot::InFlight));
                        }
                        map.insert(key, Slot::InFlight);
                        break;
                    }
                }
            }
        }
        // Solve outside the lock; waiters for this key sleep on the
        // condvar, requests for other keys proceed untouched.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| params.analyze()));
        let mut map = self.map.lock().expect("cache lock");
        match result {
            Ok(Ok(analysis)) => {
                let solved = Arc::new(analysis);
                self.solves.fetch_add(1, Ordering::Relaxed);
                self.telemetry.add(Counter::CacheSolves, 1);
                self.telemetry.record_solve(&solved.solve_stats());
                map.insert(key, Slot::Ready(vec![Arc::clone(&solved)]));
                self.ready.notify_all();
                Ok(solved)
            }
            Ok(Err(err)) => {
                map.remove(&key);
                self.ready.notify_all();
                Err(err)
            }
            Err(payload) => {
                map.remove(&key);
                self.ready.notify_all();
                drop(map);
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// One cached analysis per tier of `spec`, in tier order.
    ///
    /// When every tier is a plain hit — solved, under its own name — the
    /// lookups share one lock; otherwise each tier goes through
    /// [`analysis`](Self::analysis). Either way the counters move as
    /// [`analysis`](Self::analysis) moves them, tier by tier.
    ///
    /// # Errors
    ///
    /// Propagates SRN build/solve errors.
    pub fn analyses_for(&self, spec: &NetworkSpec) -> Result<Vec<Arc<ServerAnalysis>>, SrnError> {
        if let Some(hits) = self.all_hits(spec) {
            return Ok(hits);
        }
        spec.tiers()
            .iter()
            .map(|t| self.analysis(&t.params))
            .collect()
    }

    /// Every tier's analysis of `spec` under one lock, counted as hits,
    /// when each is solved and labelled with its tier's name; `None`,
    /// counting nothing, when any tier needs a solve, a wait or a
    /// relabel.
    fn all_hits(&self, spec: &NetworkSpec) -> Option<Vec<Arc<ServerAnalysis>>> {
        let map = self.map.lock().expect("cache lock");
        let hits = spec
            .tiers()
            .iter()
            .map(|t| match map.get(&ParamsKey::of(&t.params))? {
                Slot::Ready(variants) => {
                    variants.iter().find(|a| a.name() == t.params.name).cloned()
                }
                Slot::InFlight => None,
            })
            .collect::<Option<Vec<_>>>()?;
        drop(map);
        self.hits.fetch_add(hits.len(), Ordering::Relaxed);
        self.telemetry.add(Counter::CacheHits, hits.len() as u64);
        Some(hits)
    }

    /// Requests served from the cache.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// SRN solves actually performed.
    pub fn solves(&self) -> usize {
        self.solves.load(Ordering::Relaxed)
    }

    /// Cache hits that reused a solve under a different tier name (a
    /// subset of [`hits`](AnalysisCache::hits)).
    pub fn relabels(&self) -> usize {
        self.relabels.load(Ordering::Relaxed)
    }

    /// Distinct parameter *contents* currently cached (named relabels
    /// of one solve share an entry).
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Declarative grid builder: spec variants × designs × patch policies.
///
/// Grid order is variant-major, then design, then policy — the order
/// [`Sweep::run`] returns. Each (variant, design) pair is one *cell*:
/// [`Sweep::run`] evaluates it as one pool job under every policy. The
/// axes are held behind [`Arc`]s, so handing a sweep to the pool copies
/// none of them. A sweep holds no pool and no cache: [`Sweep::run`]
/// takes the caller's.
///
/// See the [module docs](self) for an example.
#[derive(Debug, Clone)]
pub struct Sweep {
    base: Arc<NetworkSpec>,
    variants: Arc<[(String, Arc<NetworkSpec>)]>,
    designs: Arc<[Design]>,
    policies: Arc<[PatchPolicy]>,
    metrics: MetricsConfig,
}

impl Sweep {
    /// A sweep over `base` with its current counts as the single design,
    /// the paper's critical-only policy and default metrics.
    pub fn new(base: impl Into<Arc<NetworkSpec>>) -> Self {
        let base = base.into();
        let counts: Vec<u32> = base.tiers().iter().map(|t| t.count).collect();
        let names: Vec<&str> = base.tiers().iter().map(|t| t.name.as_str()).collect();
        let design = Design::new(Design::conventional_name(&names, &counts), counts);
        Sweep {
            variants: Arc::new([(String::new(), Arc::clone(&base))]),
            base,
            designs: Arc::new([design]),
            policies: Arc::new([PatchPolicy::CriticalOnly(8.0)]),
            metrics: MetricsConfig::default(),
        }
    }

    /// A sweep over everything a scenario document declares: its network,
    /// its designs, its patch policies and its metric configuration.
    ///
    /// # Errors
    ///
    /// Propagates scenario validation errors (see
    /// [`ScenarioDoc::to_spec`](crate::scenario::ScenarioDoc::to_spec)).
    ///
    /// # Examples
    ///
    /// ```
    /// use std::sync::Arc;
    ///
    /// use redeval::exec::{AnalysisCache, Pool, Sweep};
    /// use redeval::scenario::builtin;
    ///
    /// # fn main() -> Result<(), redeval::EvalError> {
    /// let doc = builtin::paper_case_study();
    /// let cache = Arc::new(AnalysisCache::new());
    /// let evals = Sweep::from_scenario(&doc)?.run(&Pool::new(2), &cache)?;
    /// assert_eq!(evals.len(), 5); // five designs × one policy
    /// # Ok(())
    /// # }
    /// ```
    pub fn from_scenario(doc: &crate::scenario::ScenarioDoc) -> Result<Self, EvalError> {
        let spec = doc.to_spec()?;
        Ok(Sweep::new(spec)
            .designs(doc.designs.clone())
            .policies(doc.policies.clone())
            .metrics(doc.metrics))
    }

    /// Sets the design axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty design list.
    pub fn designs(mut self, designs: Vec<Design>) -> Self {
        assert!(!designs.is_empty(), "at least one design required");
        self.designs = designs.into();
        self
    }

    /// Sets the design axis to the full space `1..=max_redundancy` per
    /// tier (see [`NetworkSpec::enumerate_designs`]).
    pub fn full_design_space(self, max_redundancy: u32) -> Self {
        let designs = self.base.enumerate_designs(max_redundancy);
        self.designs(designs)
    }

    /// Sets the patch-policy axis.
    ///
    /// # Panics
    ///
    /// Panics on an empty policy list.
    pub fn policies(mut self, policies: Vec<PatchPolicy>) -> Self {
        assert!(!policies.is_empty(), "at least one policy required");
        self.policies = policies.into();
        self
    }

    /// Sets the model-parameter axis to explicit named spec variants.
    ///
    /// # Panics
    ///
    /// Panics on an empty variant list.
    pub fn variants(mut self, variants: Vec<(String, NetworkSpec)>) -> Self {
        assert!(!variants.is_empty(), "at least one variant required");
        self.variants = variants
            .into_iter()
            .map(|(name, spec)| (name, Arc::new(spec)))
            .collect();
        self
    }

    /// Sets the model-parameter axis to patch-interval variants of the
    /// base spec, one per entry of `days` (applied to every tier).
    ///
    /// # Panics
    ///
    /// Panics on an empty list or non-positive interval.
    pub fn patch_intervals_days(self, days: &[f64]) -> Self {
        let base = Arc::clone(&self.base);
        let variants = days
            .iter()
            .map(|&d| {
                let label = format!("{d} d");
                (label, base.with_patch_interval(Durations::days(d)))
            })
            .collect();
        self.variants(variants)
    }

    /// Sets the security-metric configuration for every scenario.
    pub fn metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// The label of a grid point without its policy suffix: the design
    /// name, prefixed with the variant name when that axis has more than
    /// one point.
    fn stem<'a>(&self, variant: &str, design: &'a Design) -> Cow<'a, str> {
        if self.variants.len() > 1 && !variant.is_empty() {
            Cow::Owned([variant, " | ", &design.name].concat())
        } else {
            Cow::Borrowed(&design.name)
        }
    }

    /// Each policy with the suffix its points' labels end in: the policy
    /// when that axis has more than one point.
    fn labelled_policies(&self) -> Vec<(PatchPolicy, String)> {
        self.policies
            .iter()
            .map(|&policy| {
                let suffix = if self.policies.len() > 1 {
                    format!(" | {policy}")
                } else {
                    String::new()
                };
                (policy, suffix)
            })
            .collect()
    }

    /// The total number of grid points.
    pub fn len(&self) -> usize {
        self.variants.len() * self.designs.len() * self.policies.len()
    }

    /// Whether the grid is empty (never true: every axis keeps ≥ 1 point).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the grid on `pool`, one job per (variant, design) cell,
    /// resolving tier solves through `cache`, and returns the results in
    /// grid order, bitwise-identical for any pool size and any cache
    /// state (a hit returns the numbers a fresh solve would).
    ///
    /// What does not depend on the design is prepared once per variant
    /// before the batch: the trees each policy prunes, the label
    /// suffixes, and the memo of the tier down distributions. A cell
    /// builds the security model, the before-patch metrics and the
    /// availability measures once and then evaluates every policy.
    ///
    /// # Errors
    ///
    /// Returns the error of the earliest failing scenario (grid order).
    pub fn run(
        &self,
        pool: &Pool,
        cache: &Arc<AnalysisCache>,
    ) -> Result<Vec<DesignEvaluation>, EvalError> {
        let cells = self.variants.len() * self.designs.len();
        let tel = cache.telemetry();
        let _span = tel.span_with(|| format!("experiment ({cells} cells)"));
        tel.add(Counter::PoolBatches, 1);
        tel.add(Counter::PoolJobs, cells as u64);
        let policies = self.labelled_policies();
        let contexts: Arc<[VariantContext]> = self
            .variants
            .iter()
            .map(|(_, spec)| {
                VariantContext::new(
                    Arc::clone(spec),
                    self.metrics,
                    policies.clone(),
                    self.designs.iter().map(|d| d.counts.as_slice()),
                )
            })
            .collect();
        let first_suffix = policies[0].1.clone();
        let sweep = Arc::new(self.clone());
        let cache = Arc::clone(cache);
        let results = pool.run_batch(cells, move |cell| {
            let variant = cell / sweep.designs.len();
            let (variant_name, spec) = &sweep.variants[variant];
            let design = &sweep.designs[cell % sweep.designs.len()];
            let stem = sweep.stem(variant_name, design);
            let tel = cache.telemetry();
            let _span = tel.span_with(|| format!("cell {stem}{first_suffix}"));
            tel.add(Counter::CellsEvaluated, 1);
            tel.add(Counter::DesignsEvaluated, sweep.policies.len() as u64);
            tel.add(Counter::HarmBuilds, 1);
            let analyses = cache.analyses_for(spec)?;
            evaluate_design(&contexts[variant], &stem, &design.counts, &analyses)
        });
        let mut out = Vec::with_capacity(self.len());
        for evals in results {
            out.extend(evals?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;

    /// An empty cache for a batch whose solves nothing else shares.
    fn fresh_cache() -> Arc<AnalysisCache> {
        Arc::new(AnalysisCache::new())
    }

    #[test]
    fn run_batch_orders_results_any_thread_count() {
        for threads in [1, 2, 3, 8, 64] {
            let out = run_batch(17, threads, |i| 3 * i);
            assert_eq!(out, (0..17).map(|i| 3 * i).collect::<Vec<_>>());
        }
        assert!(run_batch(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_batch_propagates_the_job_panic_payload() {
        for threads in [1, 2, 4] {
            let result = std::panic::catch_unwind(|| {
                run_batch(8, threads, |i| {
                    assert!(i != 5, "job five exploded");
                    i
                })
            });
            let payload = result.expect_err("the job panic reaches the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied());
            assert_eq!(message, Some("job five exploded"), "{threads} threads");
        }
    }

    #[test]
    fn pool_reuses_workers_across_batches_and_orders_results() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        for jobs in [0, 1, 2, 17, 64] {
            let out = pool.run_batch(jobs, |i| 7 * i);
            assert_eq!(out, (0..jobs).map(|i| 7 * i).collect::<Vec<_>>());
        }
        // Zero threads clamps to one worker instead of a dead pool.
        assert_eq!(Pool::new(0).run_batch(4, |i| i), vec![0, 1, 2, 3]);
    }

    #[test]
    fn pool_matches_scoped_run_batch() {
        let pool = Pool::new(4);
        let scoped = run_batch(23, 4, |i| i * i + 1);
        assert_eq!(pool.run_batch(23, |i| i * i + 1), scoped);
    }

    #[test]
    fn pool_survives_nested_batches_even_with_one_worker() {
        // A pool job submitting a nested batch must not deadlock: the
        // waiter drains the shared queue instead of sleeping on it.
        let pool = Arc::new(Pool::new(1));
        let inner = Arc::clone(&pool);
        let out = pool.run_batch(3, move |i| inner.run_batch(2, move |j| i * 10 + j));
        assert_eq!(out, vec![vec![0, 1], vec![10, 11], vec![20, 21]]);
    }

    #[test]
    fn pool_drop_never_loses_the_shutdown_wakeup() {
        // Dropping a pool right after creating it races the shutdown
        // notification against workers on their way to their first wait.
        // A lost wakeup hangs the drop's join forever, so the cycles run
        // on a helper thread and a watchdog turns a hang into a failure.
        let (done, finished) = std::sync::mpsc::channel();
        let cycles = std::thread::spawn(move || {
            for _ in 0..20_000 {
                drop(Pool::new(2));
            }
            let _ = done.send(());
        });
        assert!(
            finished
                .recv_timeout(std::time::Duration::from_secs(60))
                .is_ok(),
            "a dropped pool never joined its workers"
        );
        cycles.join().expect("create/drop cycles ran to the end");
    }

    #[test]
    fn pool_propagates_job_panics() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(8, |i| {
                assert!(i != 5, "job five exploded");
                i
            })
        }));
        assert!(result.is_err());
        // The pool stays usable after a panicked batch.
        assert_eq!(pool.run_batch(2, |i| i), vec![0, 1]);
    }

    #[test]
    fn sweep_run_is_bitwise_identical_across_pool_sizes() {
        let pool = Pool::new(4);
        let sweep = Sweep::new(case_study::network())
            .designs(case_study::five_designs())
            .policies(vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All]);
        let single = sweep.run(&Pool::new(1), &fresh_cache()).unwrap();
        let pooled = sweep.run(&pool, &fresh_cache()).unwrap();
        assert_eq!(single, pooled);
        for (a, b) in single.iter().zip(&pooled) {
            assert_eq!(a.coa.to_bits(), b.coa.to_bits());
            assert_eq!(a.availability.to_bits(), b.availability.to_bits());
        }
        // Errors surface identically too.
        let bad = Sweep::new(case_study::network())
            .designs(vec![Design::new("bad", vec![1, 1])])
            .policies(vec![PatchPolicy::All]);
        assert!(matches!(
            bad.run(&pool, &fresh_cache()),
            Err(EvalError::CountMismatch { .. })
        ));
    }

    #[test]
    fn cache_dedupes_tier_solves() {
        let cache = AnalysisCache::new();
        let spec = case_study::network();
        // Four tiers with distinct parameters: four solves, zero hits.
        let first = cache.analyses_for(&spec).unwrap();
        assert_eq!(cache.solves(), 4);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 4);
        // Every further request is a hit, and the values are shared.
        let second = cache.analyses_for(&spec).unwrap();
        assert_eq!(cache.solves(), 4);
        assert_eq!(cache.hits(), 4);
        for (a, b) in first.iter().zip(&second) {
            assert!(Arc::ptr_eq(a, b));
        }
    }

    #[test]
    fn cache_distinguishes_parameter_changes() {
        let cache = AnalysisCache::new();
        let a = case_study::dns_params();
        let mut b = case_study::dns_params();
        b.patch_interval = Durations::hours(360.0);
        cache.analysis(&a).unwrap();
        cache.analysis(&b).unwrap();
        assert_eq!(cache.solves(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn cache_relabels_same_content_under_a_new_name_without_solving() {
        let cache = AnalysisCache::new();
        let a = case_study::dns_params();
        let mut b = case_study::dns_params();
        b.name = "dns replica".to_string();
        let first = cache.analysis(&a).unwrap();
        let relabeled = cache.analysis(&b).unwrap();
        // One solve served both names; the relabel kept the numbers and
        // swapped the label.
        assert_eq!((cache.solves(), cache.relabels()), (1, 1));
        assert_eq!(cache.len(), 1, "named variants share one content entry");
        assert_eq!(relabeled.name(), "dns replica");
        assert_eq!(
            first.availability().to_bits(),
            relabeled.availability().to_bits()
        );
        assert_eq!(first.rates(), relabeled.rates());
        // Both names now hit without further relabeling.
        assert!(Arc::ptr_eq(&cache.analysis(&a).unwrap(), &first));
        assert!(Arc::ptr_eq(&cache.analysis(&b).unwrap(), &relabeled));
        assert_eq!((cache.solves(), cache.relabels()), (1, 1));
    }

    #[test]
    fn cache_capacity_flush_costs_resolves_not_correctness() {
        let cache = AnalysisCache::with_capacity(2);
        let a = case_study::dns_params();
        let mut b = case_study::dns_params();
        b.patch_interval = Durations::hours(360.0);
        let mut c = case_study::dns_params();
        c.patch_interval = Durations::hours(180.0);
        let first = cache.analysis(&a).unwrap();
        cache.analysis(&b).unwrap();
        assert_eq!(cache.len(), 2);
        // The third distinct content flushes the full cache…
        cache.analysis(&c).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.solves(), 3);
        // …and a re-request simply re-solves to identical numbers.
        let again = cache.analysis(&a).unwrap();
        assert_eq!(cache.solves(), 4);
        assert_eq!(
            first.availability().to_bits(),
            again.availability().to_bits()
        );
    }

    /// The sequential reference of a one-variant grid over `spec`: each
    /// point in grid order as its own one-design, one-policy sweep on a
    /// one-worker pool, the design named with the label the grid gives
    /// that point.
    fn per_point(
        spec: &Arc<NetworkSpec>,
        designs: &[Design],
        policies: &[PatchPolicy],
    ) -> Vec<DesignEvaluation> {
        let (pool, cache) = (Pool::new(1), fresh_cache());
        let mut out = Vec::new();
        for design in designs {
            for &policy in policies {
                let label = if policies.len() > 1 {
                    format!("{} | {policy}", design.name)
                } else {
                    design.name.clone()
                };
                let point = Sweep::new(Arc::clone(spec))
                    .designs(vec![Design::new(label, design.counts.clone())])
                    .policies(vec![policy])
                    .run(&pool, &cache)
                    .unwrap();
                assert_eq!(point.len(), 1);
                out.extend(point);
            }
        }
        out
    }

    #[test]
    fn sweep_matches_sequential_reference_bitwise() {
        let spec = Arc::new(case_study::network());
        let (designs, policies) = (
            case_study::five_designs(),
            vec![PatchPolicy::CriticalOnly(8.0), PatchPolicy::All],
        );
        let parallel = Sweep::new(Arc::clone(&spec))
            .designs(designs.clone())
            .policies(policies.clone())
            .run(&Pool::new(4), &fresh_cache())
            .unwrap();
        let reference = per_point(&spec, &designs, &policies);
        assert_eq!(parallel, reference);
        for (a, b) in parallel.iter().zip(&reference) {
            assert_eq!(a.coa.to_bits(), b.coa.to_bits());
            assert_eq!(a.availability.to_bits(), b.availability.to_bits());
            assert_eq!(a.expected_up.to_bits(), b.expected_up.to_bits());
        }
    }

    #[test]
    fn sweep_availability_matches_the_network_model_per_variant() {
        // Each variant's cells share one memo of tier down distributions;
        // the variants' patch intervals give them different rates. Every
        // point must carry the measures of its own variant's
        // `NetworkModel`, bit for bit.
        let days = [7.0, 30.0];
        let spec = case_study::network();
        let sweep = Sweep::new(spec.clone())
            .patch_intervals_days(&days)
            .full_design_space(3)
            .policies(vec![PatchPolicy::None, PatchPolicy::All]);
        let evals = sweep.run(&Pool::new(2), &fresh_cache()).unwrap();
        let cache = AnalysisCache::new();
        let mut points = evals.iter();
        for &d in &days {
            let variant = spec.with_patch_interval(Durations::days(d));
            let analyses = cache.analyses_for(&variant).unwrap();
            for design in variant.enumerate_designs(3) {
                let sized = variant.with_counts(&design.counts).unwrap();
                let want = sized.network_model(&analyses).measures().unwrap();
                for _ in 0..2 {
                    let e = points.next().unwrap();
                    assert_eq!(e.counts, design.counts);
                    assert_eq!(e.coa.to_bits(), want.coa.to_bits(), "{}", e.name);
                    assert_eq!(e.availability.to_bits(), want.availability.to_bits());
                    assert_eq!(e.expected_up.to_bits(), want.expected_up.to_bits());
                }
            }
        }
        assert!(points.next().is_none());
    }

    #[test]
    fn cache_counts_a_shared_lock_hit_as_one_hit_per_tier() {
        // The all-hit lookup takes one lock for every tier; the counters
        // move as the tier-by-tier lookups move them.
        let tel = Telemetry::counters();
        let cache = AnalysisCache::with_telemetry(tel.clone());
        let spec = case_study::network();
        let mut renamed = spec.tiers().to_vec();
        renamed[0].params.name = "dns replica".to_string();
        let renamed = NetworkSpec::new(renamed, spec.edges().to_vec());
        let first = cache.analyses_for(&spec).unwrap();
        assert_eq!((cache.solves(), cache.hits(), cache.relabels()), (4, 0, 0));
        // A relabel takes the tier-by-tier path: 4 hits, one a relabel.
        cache.analyses_for(&renamed).unwrap();
        assert_eq!((cache.solves(), cache.hits(), cache.relabels()), (4, 4, 1));
        let again = cache.analyses_for(&spec).unwrap();
        let renamed_again = cache.analyses_for(&renamed).unwrap();
        assert_eq!((cache.solves(), cache.hits(), cache.relabels()), (4, 12, 1));
        assert_eq!(tel.snapshot().get(Counter::CacheHits), 12);
        assert_eq!(tel.snapshot().get(Counter::CacheRelabels), 1);
        for (a, b) in first.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b));
        }
        assert_eq!(renamed_again[0].name(), "dns replica");
    }

    #[test]
    fn sweep_grid_order_is_variant_design_policy() {
        let sweep = Sweep::new(case_study::network())
            .patch_intervals_days(&[7.0, 30.0])
            .designs(case_study::five_designs()[..2].to_vec())
            .policies(vec![PatchPolicy::None, PatchPolicy::All]);
        let evals = sweep.run(&Pool::new(2), &fresh_cache()).unwrap();
        assert_eq!(evals.len(), 8);
        assert_eq!(sweep.len(), 8);
        assert!(evals[0].name.starts_with("7 d | 1 DNS"));
        assert!(evals[0].name.ends_with("no patch"));
        assert!(evals[1].name.ends_with("patch all"));
        assert!(evals[4].name.starts_with("30 d | 1 DNS"));
    }

    #[test]
    fn sweep_cells_share_policy_independent_work() {
        let sweep = Sweep::new(case_study::network())
            .designs(case_study::five_designs())
            .policies(vec![
                PatchPolicy::None,
                PatchPolicy::CriticalOnly(8.0),
                PatchPolicy::All,
            ]);
        let evals = sweep
            .run(&Pool::new(default_threads()), &fresh_cache())
            .unwrap();
        assert_eq!(evals.len(), 15);
        // The three policies of one design share before-patch metrics.
        assert_eq!(evals[0].before, evals[1].before);
        assert_eq!(evals[1].before, evals[2].before);
        assert_eq!(evals[0].coa.to_bits(), evals[2].coa.to_bits());
        // And the policy axis orders after-patch security as expected.
        assert!(
            evals[0].after.attack_success_probability >= evals[1].after.attack_success_probability
        );
        assert_eq!(evals[2].after.exploitable_vulnerabilities, 0);
    }

    #[test]
    fn sweep_reports_earliest_error() {
        let sweep = Sweep::new(case_study::network())
            .designs(vec![
                Design::new("ok", vec![1, 1, 1, 1]),
                Design::new("bad", vec![1, 1]),
                Design::new("worse", vec![1, 1, 1]),
            ])
            .policies(vec![PatchPolicy::None, PatchPolicy::All]);
        assert!(matches!(
            sweep.run(&Pool::new(2), &fresh_cache()),
            Err(EvalError::CountMismatch { got: 2, .. })
        ));
    }

    #[test]
    fn sweep_run_records_one_batch_span_and_a_span_per_cell() {
        // The span names and counters a profiled sweep leaves behind are
        // read back by trace consumers: one batch span, one `cell` span
        // per (variant, design) named after the cell's first point.
        let tel = Telemetry::profiler();
        let cache = Arc::new(AnalysisCache::with_telemetry(tel.clone()));
        let sweep = Sweep::new(case_study::network())
            .patch_intervals_days(&[7.0, 30.0])
            .designs(case_study::five_designs()[..3].to_vec())
            .policies(vec![PatchPolicy::None, PatchPolicy::All]);
        let evals = sweep.run(&Pool::new(2), &cache).unwrap();
        assert_eq!(evals.len(), 12);
        let spans = tel.spans();
        let batches: Vec<&str> = spans
            .iter()
            .map(|s| s.name.as_str())
            .filter(|n| n.starts_with("experiment"))
            .collect();
        assert_eq!(batches, ["experiment (6 cells)"]);
        let mut cells: Vec<&str> = spans
            .iter()
            .filter_map(|s| s.name.strip_prefix("cell "))
            .collect();
        cells.sort_unstable();
        let mut expected: Vec<&str> = evals.iter().step_by(2).map(|e| e.name.as_str()).collect();
        expected.sort_unstable();
        assert_eq!(cells, expected);
        let snap = tel.snapshot();
        assert_eq!(snap.get(Counter::PoolBatches), 1);
        assert_eq!(snap.get(Counter::PoolJobs), 6);
        assert_eq!(snap.get(Counter::CellsEvaluated), 6);
        assert_eq!(snap.get(Counter::HarmBuilds), 6);
        assert_eq!(snap.get(Counter::DesignsEvaluated), 12);
    }

    #[test]
    fn shared_cache_spans_batches() {
        let pool = Pool::new(default_threads());
        let cache = Arc::new(AnalysisCache::new());
        let sweep = Sweep::new(case_study::network());
        sweep.run(&pool, &cache).unwrap();
        let solves_after_first = cache.solves();
        assert_eq!(solves_after_first, 4);
        // A second batch over the same spec re-solves nothing.
        Sweep::new(case_study::network())
            .designs(case_study::five_designs())
            .run(&pool, &cache)
            .unwrap();
        assert_eq!(cache.solves(), solves_after_first);
    }
}
