//! Markdown report generation: the whole evaluation of a design space in
//! one self-contained document (used by the `full_report` binary and
//! convenient for CI artifacts).

use std::fmt::Write as _;

use crate::charts::{radar_data, radar_series_table, scatter_data, scatter_table};
use crate::decision::{MultiBounds, ScatterBounds};
use crate::evaluation::{DesignEvaluation, PatchPolicy};
use crate::output::{Table, Value};

/// Options for [`markdown_report`].
#[derive(Debug, Clone, PartialEq)]
pub struct ReportOptions {
    /// Title of the report.
    pub title: String,
    /// Equation-(3) bounds to evaluate (label, bounds).
    pub scatter_bounds: Vec<(String, ScatterBounds)>,
    /// Equation-(4) bounds to evaluate (label, bounds).
    pub multi_bounds: Vec<(String, MultiBounds)>,
}

impl Default for ReportOptions {
    fn default() -> Self {
        ReportOptions {
            title: "Redundancy-design evaluation".to_string(),
            scatter_bounds: Vec::new(),
            multi_bounds: Vec::new(),
        }
    }
}

/// Renders evaluated designs as a self-contained markdown report:
/// per-design metric tables (before/after patch), Figure-6/7-style data,
/// and the decision-function regions. `policy` is the patch policy the
/// rows were evaluated under; the header names it.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
///
/// use redeval::report::{markdown_report, ReportOptions};
/// use redeval::{case_study, AnalysisCache, PatchPolicy, Pool, Sweep};
///
/// # fn main() -> Result<(), redeval::EvalError> {
/// let policy = PatchPolicy::CriticalOnly(8.0);
/// let evals = Sweep::new(case_study::network())
///     .designs(case_study::five_designs())
///     .policies(vec![policy])
///     .run(&Pool::new(2), &Arc::new(AnalysisCache::new()))?;
/// let report = markdown_report(&evals, policy, &ReportOptions::default());
/// assert!(report.contains("## Availability"));
/// # Ok(())
/// # }
/// ```
pub fn markdown_report(
    evals: &[DesignEvaluation],
    policy: PatchPolicy,
    options: &ReportOptions,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {}\n", options.title);
    let _ = writeln!(
        out,
        "{} designs over {} tiers; patch policy: {:?}.\n",
        evals.len(),
        evals.first().map_or(0, |e| e.counts.len()),
        policy
    );

    let _ = writeln!(out, "## Security metrics\n");
    let mut security = Table::new(
        "security",
        [
            "design",
            "AIM pre",
            "ASP pre",
            "AIM post",
            "ASP post",
            "NoEV post",
            "NoAP post",
            "NoEP post",
        ],
    );
    for e in evals {
        security.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(e.before.attack_impact),
            Value::from(e.before.attack_success_probability),
            Value::from(e.after.attack_impact),
            Value::from(e.after.attack_success_probability),
            Value::from(e.after.exploitable_vulnerabilities),
            Value::from(e.after.attack_paths),
            Value::from(e.after.entry_points),
        ]);
    }
    let _ = write!(out, "{}", security.to_markdown());

    let _ = writeln!(out, "\n## Availability\n");
    let mut availability = Table::new(
        "availability",
        ["design", "servers", "COA", "availability", "E[up]"],
    );
    for e in evals {
        availability.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(e.total_servers()),
            Value::from(e.coa),
            Value::from(e.availability),
            Value::from(e.expected_up),
        ]);
    }
    let _ = write!(out, "{}", availability.to_markdown());

    let _ = writeln!(out, "\n## Scatter (ASP vs COA, after patch)\n");
    let _ = writeln!(out, "```");
    let _ = write!(
        out,
        "{}",
        scatter_table(&scatter_data(evals, true)).to_text()
    );
    let _ = writeln!(out, "```");

    let _ = writeln!(out, "\n## Radar data (after patch)\n");
    let _ = writeln!(out, "```");
    let _ = write!(
        out,
        "{}",
        radar_series_table(&radar_data(evals, true)).to_text()
    );
    let _ = writeln!(out, "```");

    if !options.scatter_bounds.is_empty() || !options.multi_bounds.is_empty() {
        let _ = writeln!(out, "\n## Decision regions\n");
        for (label, b) in &options.scatter_bounds {
            let names = region_names(b.region(evals));
            let _ = writeln!(out, "* **{label}** (Eq. 3): {}", names);
        }
        for (label, b) in &options.multi_bounds {
            let names = region_names(b.region(evals));
            let _ = writeln!(out, "* **{label}** (Eq. 4): {}", names);
        }
    }
    out
}

fn region_names(region: Vec<&DesignEvaluation>) -> String {
    if region.is_empty() {
        "(none)".to_string()
    } else {
        region
            .iter()
            .map(|e| e.name.as_str())
            .collect::<Vec<_>>()
            .join("; ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case_study;
    use crate::exec::{AnalysisCache, Pool, Sweep};

    const PAPER: PatchPolicy = PatchPolicy::CriticalOnly(8.0);

    fn five_design_evals() -> Vec<DesignEvaluation> {
        Sweep::new(case_study::network())
            .designs(case_study::five_designs())
            .policies(vec![PAPER])
            .run(&Pool::new(2), &std::sync::Arc::new(AnalysisCache::new()))
            .unwrap()
    }

    #[test]
    fn report_contains_all_sections_and_designs() {
        let options = ReportOptions {
            title: "T".into(),
            scatter_bounds: vec![(
                "region 1".into(),
                ScatterBounds {
                    max_asp: 0.2,
                    min_coa: 0.9962,
                },
            )],
            multi_bounds: vec![(
                "region 4.1".into(),
                MultiBounds {
                    max_asp: 0.2,
                    max_noev: 9,
                    max_noap: 2,
                    max_noep: 1,
                    min_coa: 0.9962,
                },
            )],
        };
        let md = markdown_report(&five_design_evals(), PAPER, &options);
        for needle in [
            "# T",
            "## Security metrics",
            "## Availability",
            "## Scatter",
            "## Radar data",
            "## Decision regions",
            "2 DNS + 1 WEB + 1 APP + 1 DB",
            "region 1",
        ] {
            assert!(md.contains(needle), "missing {needle}");
        }
        // Region 1 of the paper appears with its two designs.
        assert!(md.contains("1 DNS + 1 WEB + 2 APP + 1 DB; 1 DNS + 1 WEB + 1 APP + 2 DB"));
    }

    #[test]
    fn empty_bounds_render_no_region_section() {
        let md = markdown_report(&five_design_evals()[..1], PAPER, &ReportOptions::default());
        assert!(!md.contains("## Decision regions"));
    }
}
