//! The per-layer replay: one evaluation cell re-run call by call
//! through the layers' public functions, each call timed from here.
//!
//! A cell is what the batch executor evaluates as one job — one design
//! of one network under every policy of the request. The executor runs
//! `with_counts` + `build_harm`, the before-patch `Harm::metrics`, one
//! `Harm::patched(..).metrics` per policy and the `network_model`
//! availability solves; [`replay_cell`] makes exactly those calls in
//! that order and returns the [`DesignEvaluation`]s they produce, so a
//! replay can be checked against the workload's report row by row.

use std::time::Instant;

use redeval::output::{Item, Report, Value};
use redeval::telemetry::SpanRecord;
use redeval::{
    AnalysisCache, Design, DesignEvaluation, EvalError, MetricsConfig, NetworkSpec, PatchPolicy,
};

use crate::stats::us;

/// Wall time of each layer call of one replayed cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellTimes {
    /// `NetworkSpec::with_counts` + `build_harm`, µs.
    pub build_us: f64,
    /// Before-patch `Harm::metrics`, µs.
    pub metrics_us: f64,
    /// `Harm::patched(..).metrics`, µs per policy.
    pub patched_us: f64,
    /// `network_model` + `coa` + `availability` +
    /// `expected_up_servers`, µs.
    pub network_us: f64,
    /// Host-level attack paths of the before-patch HARM.
    pub attack_paths: f64,
    /// Joint up/down states of the availability model, Π(countᵢ + 1).
    pub joint_states: f64,
}

/// The scenario label the batch executor gives one design × policy
/// point: the design name, suffixed with the policy when the request
/// has more than one.
pub fn label(design: &str, policy: PatchPolicy, policies: usize) -> String {
    if policies > 1 {
        format!("{design} | {policy}")
    } else {
        design.to_string()
    }
}

/// Replays one cell: `design` of `spec` under every policy of
/// `policies`, tier solves resolved through `cache` (untimed — the
/// cold-solve cost is measured on its own).
///
/// # Errors
///
/// Count-validation and solver errors, as the executor would report.
pub fn replay_cell(
    cache: &AnalysisCache,
    spec: &NetworkSpec,
    design: &Design,
    policies: &[PatchPolicy],
    metrics: &MetricsConfig,
) -> Result<(CellTimes, Vec<DesignEvaluation>), EvalError> {
    let analyses = cache.analyses_for(spec)?;
    let t = Instant::now();
    let sized = spec.with_counts(&design.counts)?;
    let harm = sized.build_harm();
    let build_us = us(t.elapsed());

    let t = Instant::now();
    let before = harm.metrics(metrics);
    let metrics_us = us(t.elapsed());

    let t = Instant::now();
    let afters: Vec<_> = policies
        .iter()
        .map(|&p| harm.patched(&move |v| p.patches(v)).metrics(metrics))
        .collect();
    let patched_us = us(t.elapsed()) / policies.len() as f64;

    let t = Instant::now();
    let model = sized.network_model(&analyses);
    let coa = model.coa()?;
    let availability = model.availability()?;
    let expected_up = model.expected_up_servers()?;
    let network_us = us(t.elapsed());

    let times = CellTimes {
        build_us,
        metrics_us,
        patched_us,
        network_us,
        attack_paths: before.attack_paths as f64,
        joint_states: design.counts.iter().map(|&c| f64::from(c) + 1.0).product(),
    };
    let evals = policies
        .iter()
        .zip(afters)
        .map(|(&p, after)| DesignEvaluation {
            name: label(&design.name, p, policies.len()),
            counts: design.counts.clone(),
            before: before.clone(),
            after,
            coa,
            availability,
            expected_up,
        })
        .collect();
    Ok((times, evals))
}

/// The row the report builders write for one evaluation (the columns of
/// every `evaluations` / `frontier` table).
pub fn eval_row(e: &DesignEvaluation) -> Vec<Value> {
    vec![
        Value::from(e.name.as_str()),
        Value::from(e.before.attack_success_probability),
        Value::from(e.after.attack_success_probability),
        Value::from(e.after.attack_impact),
        Value::from(e.after.exploitable_vulnerabilities),
        Value::from(e.after.attack_paths),
        Value::from(e.after.entry_points),
        Value::from(e.coa),
        Value::from(e.availability),
    ]
}

/// The row of table `table` whose first column is `label`.
pub fn find_row<'a>(report: &'a Report, table: &str, label: &str) -> Option<&'a [Value]> {
    report.items.iter().find_map(|item| match item {
        Item::Table(t) if t.name == table => t
            .rows
            .iter()
            .find(|row| matches!(row.first(), Some(Value::Str(s)) if s == label))
            .map(Vec::as_slice),
        _ => None,
    })
}

/// Every first-column label of table `table`.
pub fn row_labels(report: &Report, table: &str) -> Vec<String> {
    report
        .items
        .iter()
        .filter_map(|item| match item {
            Item::Table(t) if t.name == table => Some(t),
            _ => None,
        })
        .flat_map(|t| t.rows.iter())
        .filter_map(|row| match row.first() {
            Some(Value::Str(s)) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

/// The value of key `key` in the report's key/value blocks.
pub fn report_key<'a>(report: &'a Report, key: &str) -> Option<&'a Value> {
    report.items.iter().find_map(|item| match item {
        Item::Keys(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    })
}

/// A numeric report value as `f64`.
pub fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::Int(i) => Some(*i as f64),
        Value::Num(x) => Some(*x),
        _ => None,
    }
}

/// The per-tier counts encoded in a conventional design name
/// (`"2 WEB + 1 APP + …"`, optionally followed by `" | <policy>"`).
pub fn counts_from_label(label: &str) -> Option<Vec<u32>> {
    let design = label.split(" | ").next()?;
    design
        .split(" + ")
        .map(|part| part.split(' ').next()?.parse().ok())
        .collect()
}

/// Durations (µs) of the spans whose name starts with `prefix`.
pub fn span_us(spans: &[SpanRecord], prefix: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name.starts_with(prefix))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// The labels of the executor's `cell` spans, in recording order.
pub fn cell_labels(spans: &[SpanRecord]) -> Vec<String> {
    spans
        .iter()
        .filter_map(|s| s.name.strip_prefix("cell ").map(str::to_string))
        .collect()
}
