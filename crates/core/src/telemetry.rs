//! Zero-dependency telemetry: deterministic counters plus optional
//! wall-clock spans.
//!
//! The subsystem keeps two strictly separated kinds of signal:
//!
//! * **Deterministic counters** — monotone `u64` sums (solver
//!   iterations, cache hits/solves/relabels, boxes pruned, masks
//!   skipped, pool batches/jobs) plus one order-independent `f64`
//!   maximum (the worst solver residual). Every counter is a function
//!   of the *work done*, never of the schedule: the batch layer
//!   single-flights cache solves and partitions fixed grids, so the
//!   same request produces byte-identical counter snapshots at any
//!   thread count. That is what lets tests assert them and goldens pin
//!   them.
//! * **Wall-clock spans** — hierarchical timed regions recorded only in
//!   profiling mode. Timings are machine- and run-dependent by nature,
//!   so they are *never* part of canonical report bytes; they surface
//!   through the `--profile` Chrome-trace file and its stderr summary.
//!
//! The default handle is a no-op ([`Telemetry::noop`]): one `Option`
//! check per call site, no allocation, no locks — the uninstrumented
//! hot path costs nothing. [`Telemetry::counters`] enables counters
//! only (relaxed atomics); [`Telemetry::profiler`] additionally records
//! spans.
//!
//! # Examples
//!
//! ```
//! use redeval::telemetry::{Counter, Telemetry};
//!
//! let tel = Telemetry::counters();
//! tel.add(Counter::CacheHits, 2);
//! let snap = tel.snapshot();
//! assert_eq!(snap.get(Counter::CacheHits), 2);
//! assert!(snap.to_json().contains("\"cache_hits\":2"));
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use redeval_markov::SolveStats;

use crate::output::push_json_str;

/// The deterministic counters tracked by [`Telemetry`].
///
/// Each is a monotone sum over completed work items; see the
/// [module docs](self) for the determinism contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// CTMC steady-state solves performed (cache misses, not hits).
    SolverSolves,
    /// Total iterations/sweeps across all solves (0 per direct solve).
    SolverIterations,
    /// Total tangible states across all solved chains.
    SolverStates,
    /// Analysis-cache requests served from a cached solve.
    CacheHits,
    /// Analysis-cache misses that performed a solve.
    CacheSolves,
    /// Cache hits that only swapped the tier label (subset of hits).
    CacheRelabels,
    /// Scenario groups (cells) evaluated by the batch executor.
    CellsEvaluated,
    /// Design evaluations produced (one per scenario).
    DesignsEvaluated,
    /// Security-model builds: one per evaluation cell, whether the
    /// kernel walks the tier graph or expands the host HARM.
    HarmBuilds,
    /// Batches submitted to the execution layer.
    PoolBatches,
    /// Jobs (cells) dispatched across all batches.
    PoolJobs,
    /// Optimizer boxes taken off the work list.
    BoxesExplored,
    /// Optimizer boxes discharged by bound reasoning alone.
    BoxesPruned,
    /// Attacker best-response entry masks evaluated exactly.
    MasksEvaluated,
    /// Attacker masks skipped by the union-bound prune.
    MasksPruned,
    /// Attacker–defender best-response rounds run.
    EquilibriumRounds,
}

/// Counter names in declaration order — the stable key order of every
/// snapshot serialization.
const COUNTER_NAMES: [&str; COUNTER_COUNT] = [
    "solver_solves",
    "solver_iterations",
    "solver_states",
    "cache_hits",
    "cache_solves",
    "cache_relabels",
    "cells_evaluated",
    "designs_evaluated",
    "harm_builds",
    "pool_batches",
    "pool_jobs",
    "boxes_explored",
    "boxes_pruned",
    "masks_evaluated",
    "masks_pruned",
    "equilibrium_rounds",
];

/// Number of counters (the length of [`Counter`]'s variant list).
const COUNTER_COUNT: usize = 16;

/// An immutable copy of every deterministic counter at one instant.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    values: [u64; COUNTER_COUNT],
    /// The largest final residual `‖πQ‖∞` over all solves (`0.0` when
    /// nothing was solved). A maximum is order-independent, so this
    /// stays deterministic where an `f64` sum would not.
    pub solver_residual_max: f64,
}

impl CounterSnapshot {
    /// An all-zero snapshot (what a no-op handle reports).
    pub fn zero() -> Self {
        CounterSnapshot {
            values: [0; COUNTER_COUNT],
            solver_residual_max: 0.0,
        }
    }

    /// The value of one counter.
    pub fn get(&self, counter: Counter) -> u64 {
        self.values[counter as usize]
    }

    /// `(name, value)` pairs in the stable declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .iter()
            .copied()
            .zip(self.values.iter().copied())
    }

    /// Cache hit rate over all cache requests, in `[0, 1]` (`0` when the
    /// cache was never consulted).
    pub fn cache_hit_rate(&self) -> f64 {
        let hits = self.get(Counter::CacheHits);
        let total = hits + self.get(Counter::CacheSolves);
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// Fraction of explored optimizer boxes discharged by bounds alone
    /// (`0` when the optimizer never ran).
    pub fn prune_ratio(&self) -> f64 {
        let pruned = self.get(Counter::BoxesPruned);
        let explored = self.get(Counter::BoxesExplored);
        if explored == 0 {
            0.0
        } else {
            pruned as f64 / explored as f64
        }
    }

    /// The snapshot as one JSON object with keys in declaration order —
    /// byte-identical for identical counter values, which is what the
    /// trace-file contract pins across thread counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (name, value) in self.entries() {
            let _ = write!(out, "\"{name}\":{value},");
        }
        let _ = write!(
            out,
            "\"solver_residual_max\":{:?}",
            self.solver_residual_max
        );
        out.push('}');
        out
    }
}

/// One completed wall-clock span (profiling mode only).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The span label.
    pub name: String,
    /// Ordinal of the recording thread (first-seen order).
    pub tid: u64,
    /// Start offset from the handle's creation, in nanoseconds.
    pub start_ns: u64,
    /// End offset from the handle's creation, in nanoseconds.
    pub end_ns: u64,
}

/// Span storage: an epoch for relative timestamps, the completed spans
/// and the thread-ordinal registry.
struct SpanLog {
    epoch: Instant,
    records: Mutex<Vec<SpanRecord>>,
    tids: Mutex<HashMap<std::thread::ThreadId, u64>>,
}

impl SpanLog {
    fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            records: Mutex::new(Vec::new()),
            tids: Mutex::new(HashMap::new()),
        }
    }

    fn tid(&self) -> u64 {
        let mut tids = self.tids.lock().expect("telemetry tid lock");
        let next = tids.len() as u64;
        *tids.entry(std::thread::current().id()).or_insert(next)
    }
}

struct Inner {
    counters: [AtomicU64; COUNTER_COUNT],
    /// Bits of the max residual; residuals are non-negative, so IEEE
    /// order equals integer order of the bit patterns and `fetch_max`
    /// implements an atomic `f64` maximum.
    residual_bits: AtomicU64,
    spans: Option<SpanLog>,
}

impl Inner {
    fn new(spans: bool) -> Self {
        Inner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            residual_bits: AtomicU64::new(0),
            spans: spans.then(SpanLog::new),
        }
    }
}

/// A cheaply cloneable telemetry handle; see the [module docs](self).
///
/// All clones share one underlying sink, so counters recorded anywhere
/// in a pipeline aggregate into one snapshot. The [`Default`] handle is
/// a no-op.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "Telemetry(noop)"),
            Some(i) if i.spans.is_some() => write!(f, "Telemetry(profiler)"),
            Some(_) => write!(f, "Telemetry(counters)"),
        }
    }
}

impl Telemetry {
    /// The disabled handle: every call is a no-op.
    pub fn noop() -> Self {
        Telemetry { inner: None }
    }

    /// A handle recording deterministic counters only.
    pub fn counters() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::new(false))),
        }
    }

    /// A handle recording counters *and* wall-clock spans.
    pub fn profiler() -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner::new(true))),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether this handle records wall-clock spans.
    pub fn is_profiling(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.spans.is_some())
    }

    /// Adds `n` to `counter` (no-op when disabled).
    pub fn add(&self, counter: Counter, n: u64) {
        if let Some(inner) = &self.inner {
            inner.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one completed CTMC solve: solve count, iteration and
    /// state totals, and the residual maximum.
    pub fn record_solve(&self, stats: &SolveStats) {
        if let Some(inner) = &self.inner {
            inner.counters[Counter::SolverSolves as usize].fetch_add(1, Ordering::Relaxed);
            inner.counters[Counter::SolverIterations as usize]
                .fetch_add(stats.iterations as u64, Ordering::Relaxed);
            inner.counters[Counter::SolverStates as usize]
                .fetch_add(stats.states as u64, Ordering::Relaxed);
            inner
                .residual_bits
                .fetch_max(stats.residual.max(0.0).to_bits(), Ordering::Relaxed);
        }
    }

    /// Opens a wall-clock span; the returned guard records it when
    /// dropped. A no-op unless [`is_profiling`](Telemetry::is_profiling).
    pub fn span(&self, name: impl Into<String>) -> Span {
        self.span_with(|| name.into())
    }

    /// [`span`](Telemetry::span) with a lazily built name: `name` runs
    /// only when profiling, so hot paths that label spans with
    /// `format!` allocate nothing under the no-op and counters handles.
    pub fn span_with(&self, name: impl FnOnce() -> String) -> Span {
        let active = self
            .inner
            .as_ref()
            .filter(|i| i.spans.is_some())
            .map(|i| (Arc::clone(i), name(), Instant::now()));
        Span { active }
    }

    /// A copy of every counter at this instant.
    pub fn snapshot(&self) -> CounterSnapshot {
        match &self.inner {
            None => CounterSnapshot::zero(),
            Some(inner) => CounterSnapshot {
                values: std::array::from_fn(|i| inner.counters[i].load(Ordering::Relaxed)),
                solver_residual_max: f64::from_bits(inner.residual_bits.load(Ordering::Relaxed)),
            },
        }
    }

    /// The completed spans recorded so far (empty unless profiling).
    pub fn spans(&self) -> Vec<SpanRecord> {
        match self.inner.as_ref().and_then(|i| i.spans.as_ref()) {
            None => Vec::new(),
            Some(log) => log.records.lock().expect("telemetry span lock").clone(),
        }
    }

    /// The profile as Chrome trace format JSON (`chrome://tracing`,
    /// Perfetto): complete `"X"` duration events plus a top-level
    /// `"counters"` object. The counters object is byte-identical across
    /// thread counts; the events are wall-clock and are not.
    pub fn chrome_trace_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut spans = self.spans();
        spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.end_ns)));
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            push_json_str(&mut out, &s.name);
            let _ = write!(
                out,
                ",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3}}}",
                s.tid,
                s.start_ns as f64 / 1000.0,
                (s.end_ns - s.start_ns) as f64 / 1000.0,
            );
        }
        out.push_str("],\"counters\":");
        out.push_str(&self.snapshot().to_json());
        out.push('}');
        out
    }

    /// A human-readable summary: the counter rollup plus (when
    /// profiling) the span tree with per-name call counts and total
    /// wall-clock time. Intended for stderr, never for canonical report
    /// bytes.
    pub fn text_summary(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::from("telemetry counters (deterministic):\n");
        let width = COUNTER_NAMES.iter().map(|n| n.len()).max().unwrap_or(0);
        for (name, value) in snap.entries() {
            let _ = writeln!(out, "  {name:<width$}  {value}");
        }
        let _ = writeln!(
            out,
            "  {:<width$}  {:?}",
            "solver_residual_max", snap.solver_residual_max
        );
        let spans = self.spans();
        if !spans.is_empty() {
            out.push_str("span tree (wall clock; merged by name, threads flattened):\n");
            out.push_str(&span_tree(&spans));
        }
        out
    }
}

/// RAII guard for one wall-clock span; recording happens on drop.
#[must_use = "a span measures the region until the guard drops"]
pub struct Span {
    active: Option<(Arc<Inner>, String, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, name, start)) = self.active.take() {
            let log = inner.spans.as_ref().expect("span implies span log");
            let end = Instant::now();
            let start_ns = start.saturating_duration_since(log.epoch).as_nanos() as u64;
            let end_ns = end.saturating_duration_since(log.epoch).as_nanos() as u64;
            let tid = log.tid();
            log.records
                .lock()
                .expect("telemetry span lock")
                .push(SpanRecord {
                    name,
                    tid,
                    start_ns,
                    end_ns,
                });
        }
    }
}

/// Aggregated node of the rendered span tree.
#[derive(Default)]
struct TreeNode {
    name: String,
    calls: u64,
    total_ns: u64,
    /// Children, in first-seen order (the render order).
    children: Vec<usize>,
    /// Children by name.
    by_name: HashMap<String, usize>,
}

/// The merged span tree: nodes in an arena, node 0 the root. Children
/// are indexed by name, so merging `n` spans costs `n` lookups whatever
/// the fan-out — the per-cell roots of a large search are many thousands
/// of uniquely named siblings.
struct SpanTree {
    nodes: Vec<TreeNode>,
}

impl SpanTree {
    fn new() -> Self {
        SpanTree {
            nodes: vec![TreeNode::default()],
        }
    }

    /// The child of `parent` named `name`, added on first sight.
    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&i) = self.nodes[parent].by_name.get(name) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(TreeNode {
            name: name.to_string(),
            ..TreeNode::default()
        });
        let parent = &mut self.nodes[parent];
        parent.children.push(i);
        parent.by_name.insert(name.to_string(), i);
        i
    }

    fn render(&self, node: usize, depth: usize, out: &mut String) {
        for &i in &self.nodes[node].children {
            let child = &self.nodes[i];
            let _ = writeln!(
                out,
                "  {:indent$}- {}: {} call{}, {:.3} ms",
                "",
                child.name,
                child.calls,
                if child.calls == 1 { "" } else { "s" },
                child.total_ns as f64 / 1e6,
                indent = depth * 2,
            );
            self.render(i, depth + 1, out);
        }
    }
}

/// Reconstructs per-thread nesting by interval containment and merges
/// same-named siblings. Cross-thread parentage is not tracked: spans
/// opened on a worker thread root at that thread's top level.
fn span_tree(spans: &[SpanRecord]) -> String {
    let mut sorted: Vec<&SpanRecord> = spans.iter().collect();
    sorted.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.end_ns)));
    let mut tree = SpanTree::new();
    // Stack of (tid, end_ns, node): the open spans around the next one.
    let mut stack: Vec<(u64, u64, usize)> = Vec::new();
    for s in sorted {
        while let Some(&(tid, end, _)) = stack.last() {
            if tid != s.tid || end < s.end_ns {
                stack.pop();
            } else {
                break;
            }
        }
        let parent = stack.last().map_or(0, |&(_, _, node)| node);
        let node = tree.child(parent, &s.name);
        tree.nodes[node].calls += 1;
        tree.nodes[node].total_ns += s.end_ns - s.start_ns;
        stack.push((s.tid, s.end_ns, node));
    }
    let mut out = String::new();
    tree.render(0, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing_and_is_default() {
        let tel = Telemetry::default();
        assert!(!tel.is_enabled());
        assert!(!tel.is_profiling());
        tel.add(Counter::CacheHits, 5);
        let _span = tel.span("ignored");
        drop(_span);
        assert_eq!(tel.snapshot(), CounterSnapshot::zero());
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn span_names_are_built_only_when_profiling() {
        let built = std::cell::Cell::new(0);
        let name = || {
            built.set(built.get() + 1);
            "cell x".to_string()
        };
        drop(Telemetry::noop().span_with(name));
        drop(Telemetry::counters().span_with(name));
        assert_eq!(built.get(), 0);
        let tel = Telemetry::profiler();
        drop(tel.span_with(name));
        assert_eq!(built.get(), 1);
        assert_eq!(tel.spans()[0].name, "cell x");
    }

    #[test]
    fn counters_accumulate_across_clones() {
        let tel = Telemetry::counters();
        let clone = tel.clone();
        tel.add(Counter::BoxesPruned, 2);
        clone.add(Counter::BoxesPruned, 3);
        assert_eq!(tel.snapshot().get(Counter::BoxesPruned), 5);
        assert!(!tel.is_profiling(), "counters mode records no spans");
        let _ = tel.span("not recorded");
        assert!(tel.spans().is_empty());
    }

    #[test]
    fn record_solve_sums_and_maxes() {
        use redeval_markov::{SolveStats, SteadyStateMethod};
        let tel = Telemetry::counters();
        tel.record_solve(&SolveStats {
            method: SteadyStateMethod::Gth,
            iterations: 0,
            residual: 1e-14,
            states: 10,
        });
        tel.record_solve(&SolveStats {
            method: SteadyStateMethod::GaussSeidel,
            iterations: 42,
            residual: 3e-15,
            states: 7,
        });
        let snap = tel.snapshot();
        assert_eq!(snap.get(Counter::SolverSolves), 2);
        assert_eq!(snap.get(Counter::SolverIterations), 42);
        assert_eq!(snap.get(Counter::SolverStates), 17);
        assert_eq!(snap.solver_residual_max, 1e-14);
    }

    #[test]
    fn snapshot_json_has_stable_key_order() {
        let tel = Telemetry::counters();
        tel.add(Counter::CacheHits, 1);
        let json = tel.snapshot().to_json();
        assert!(json.starts_with("{\"solver_solves\":0,"));
        assert!(json.ends_with("\"solver_residual_max\":0.0}"));
        let hits = json.find("\"cache_hits\":1").expect("hits present");
        let solves = json.find("\"cache_solves\":0").expect("solves present");
        assert!(hits < solves, "declaration order preserved");
        // Identical counters serialize byte-identically.
        assert_eq!(json, tel.snapshot().to_json());
    }

    #[test]
    fn profiler_records_nested_spans() {
        let tel = Telemetry::profiler();
        {
            let _outer = tel.span("outer");
            let _inner = tel.span("inner");
        }
        let spans = tel.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        let tree = tel.text_summary();
        let outer_at = tree.find("- outer:").expect("outer in tree");
        let inner_at = tree.find("- inner:").expect("inner in tree");
        assert!(outer_at < inner_at, "inner nests under outer");
    }

    fn record(name: &str, tid: u64, start_ms: u64, end_ms: u64) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            tid,
            start_ns: start_ms * 1_000_000,
            end_ns: end_ms * 1_000_000,
        }
    }

    #[test]
    fn span_tree_nests_by_containment_and_merges_in_first_seen_order() {
        // Recorded out of order, on two threads: same-named siblings
        // merge, children render in first-seen order, and a worker
        // thread's spans root at the top level.
        let spans = [
            record("b", 0, 3, 4),
            record("outer", 0, 0, 10),
            record("a", 1, 0, 5),
            record("a", 0, 1, 2),
            record("c", 1, 1, 2),
            record("a", 0, 5, 6),
            record("outer", 0, 20, 30),
            record("b", 0, 21, 22),
        ];
        assert_eq!(
            span_tree(&spans),
            "  - outer: 2 calls, 20.000 ms\n\
             \x20   - a: 2 calls, 2.000 ms\n\
             \x20   - b: 2 calls, 2.000 ms\n\
             \x20 - a: 1 call, 5.000 ms\n\
             \x20   - c: 1 call, 1.000 ms\n"
        );
    }

    #[test]
    fn span_tree_merges_200k_unique_roots_quickly() {
        // The per-cell spans of a large profiled search are uniquely
        // named roots: merging them must stay linear in their number,
        // not quadratic.
        let n = 200_000;
        let spans: Vec<SpanRecord> = (0..n)
            .map(|i| SpanRecord {
                name: format!("cell {i}"),
                tid: i % 2,
                start_ns: i * 10,
                end_ns: i * 10 + 5,
            })
            .collect();
        let start = Instant::now();
        let tree = span_tree(&spans);
        let elapsed = start.elapsed();
        assert_eq!(tree.lines().count(), n as usize);
        assert!(tree.starts_with("  - cell 0: 1 call, 0.000 ms\n  - cell 2: "));
        assert!(
            elapsed < std::time::Duration::from_secs(5),
            "merged {n} roots in {elapsed:?}"
        );
    }

    #[test]
    fn chrome_trace_is_json_shaped_and_carries_counters() {
        let tel = Telemetry::profiler();
        tel.add(Counter::PoolJobs, 3);
        {
            let _s = tel.span("solve \"q\"");
        }
        let json = tel.chrome_trace_json();
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("solve \\\"q\\\""), "names are escaped");
        assert!(json.contains("\"counters\":{\"solver_solves\":0,"));
        assert!(json.contains("\"pool_jobs\":3"));
        assert!(json.ends_with("}"));
    }

    #[test]
    fn derived_rates_guard_division_by_zero() {
        let snap = CounterSnapshot::zero();
        assert_eq!(snap.cache_hit_rate(), 0.0);
        assert_eq!(snap.prune_ratio(), 0.0);
        let tel = Telemetry::counters();
        tel.add(Counter::CacheHits, 3);
        tel.add(Counter::CacheSolves, 1);
        tel.add(Counter::BoxesExplored, 8);
        tel.add(Counter::BoxesPruned, 2);
        let snap = tel.snapshot();
        assert_eq!(snap.cache_hit_rate(), 0.75);
        assert_eq!(snap.prune_ratio(), 0.25);
    }

    #[test]
    fn handles_are_send_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Telemetry>();
        ok::<CounterSnapshot>();
    }
}
