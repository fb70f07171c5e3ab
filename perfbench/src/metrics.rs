//! The metric registry and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] mirror the `end_to_end` and
//! `per_layer` lists of `BENCHMARK.json` (a test keeps them equal). A
//! run without tracing reports every end-to-end metric; a traced run
//! reports every per-layer metric. Each workload reports every metric of
//! its list — `README.md` gives the per-workload meaning.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// `[A-Za-z0-9_.-]+`, unique across both lists.
    pub name: &'static str,
    /// The unit the value is reported in.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What a user of each front door sees.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("answer_s", "s"),
    m("throughput_rps", "req/s"),
    m("latency_p99_ms", "ms"),
    m("peak_rss_mb", "MiB"),
];

/// Layer by layer, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("scenario.decode_us", "us"),
    m("scenario.canonical_us", "us"),
    m("srn.solve_us", "us"),
    m("exec.cache_solves", "count"),
    m("exec.cache_hits", "count"),
    m("markov.solver_iterations", "count"),
    m("harm.build_us", "us"),
    m("harm.metrics_us", "us"),
    m("harm.patched_metrics_us", "us"),
    m("harm.attack_paths", "count"),
    m("harm.cpu_s", "s"),
    m("avail.network_us", "us"),
    m("avail.joint_states", "count"),
    m("avail.cpu_s", "s"),
    m("exec.cells_evaluated", "count"),
    m("exec.cell_us", "us"),
    m("exec.cell_covered_pct", "%"),
    m("exec.pool_jobs", "count"),
    m("optimize.boxes_explored", "count"),
    m("optimize.boxes_pruned", "count"),
    m("optimize.evaluated_fraction", "ratio"),
    m("optimize.search_overhead_s", "s"),
    m("output.serialize_us", "us"),
    m("output.report_bytes", "bytes"),
    m("http.read_request_us", "us"),
    m("sha256.key_us", "us"),
    m("cache.get_us", "us"),
    m("cache.insert_us", "us"),
    m("cache.hit_ratio", "ratio"),
    m("disk.store_us", "us"),
    m("disk.stores", "count"),
    m("serve.handle_us", "us"),
    m("serve.hit_latency_p50_ms", "ms"),
    m("serve.miss_latency_p50_ms", "ms"),
    m("trace.overhead_pct", "%"),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// The last line of a run: correctness, operation counts and every
/// metric of `defs` with its unit. A metric missing from `values` (or
/// not finite) makes the line report `correct: false` and carries `-1`,
/// so a broken measurement can never pass for a good one.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut all_present = true;
    let mut body = String::new();
    for (i, def) in defs.iter().enumerate() {
        let value = match values.get(def.name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                all_present = false;
                -1.0
            }
        };
        if i > 0 {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        correct && all_present && failed == 0
    )
}
