//! Chart data for the paper's Figure 6 (scatter) and Figure 7 (radar),
//! with structured-table and ASCII renderers for the `redeval` reports.
//!
//! Tabular output goes through [`crate::output`] (the deterministic
//! serializers the golden corpus relies on); only the ASCII scatter plot
//! keeps its own renderer.

use std::fmt::Write as _;

use crate::evaluation::DesignEvaluation;
use crate::output::{Table, Value};

/// One point of the ASP-vs-COA scatter plot (Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterPoint {
    /// Design name.
    pub design: String,
    /// Attack success probability (x-axis).
    pub asp: f64,
    /// Capacity-oriented availability (y-axis).
    pub coa: f64,
}

/// Builds Figure-6 scatter data.
///
/// `after_patch` selects the 6(b) variant (after) or 6(a) (before).
pub fn scatter_data(evals: &[DesignEvaluation], after_patch: bool) -> Vec<ScatterPoint> {
    evals
        .iter()
        .map(|e| ScatterPoint {
            design: e.name.clone(),
            asp: if after_patch {
                e.after.attack_success_probability
            } else {
                e.before.attack_success_probability
            },
            coa: e.coa,
        })
        .collect()
}

/// Builds the structured `design,asp,coa` table of the scatter points.
pub fn scatter_table(points: &[ScatterPoint]) -> Table {
    let mut t = Table::new("scatter", ["design", "asp", "coa"]);
    for p in points {
        t.add_row(vec![
            Value::from(p.design.as_str()),
            Value::from(p.asp),
            Value::from(p.coa),
        ]);
    }
    t
}

/// Renders a small ASCII scatter plot (ASP on x, COA on y), marking each
/// design with its 1-based index.
pub fn scatter_ascii(points: &[ScatterPoint], width: usize, height: usize) -> String {
    assert!(width >= 10 && height >= 4, "canvas too small");
    let (mut x_lo, mut x_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_lo, mut y_hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points {
        x_lo = x_lo.min(p.asp);
        x_hi = x_hi.max(p.asp);
        y_lo = y_lo.min(p.coa);
        y_hi = y_hi.max(p.coa);
    }
    if points.is_empty() {
        return String::from("(no points)\n");
    }
    // Pad degenerate ranges.
    if x_hi - x_lo < 1e-12 {
        x_lo -= 0.05;
        x_hi += 0.05;
    }
    if y_hi - y_lo < 1e-12 {
        y_lo -= 0.0005;
        y_hi += 0.0005;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (i, p) in points.iter().enumerate() {
        let x = ((p.asp - x_lo) / (x_hi - x_lo) * (width - 1) as f64).round() as usize;
        let y = ((p.coa - y_lo) / (y_hi - y_lo) * (height - 1) as f64).round() as usize;
        let row = height - 1 - y;
        let ch = char::from_digit((i + 1) as u32 % 36, 36).unwrap_or('*');
        grid[row][x.min(width - 1)] = ch;
    }
    let mut out = String::new();
    let _ = writeln!(out, "COA {y_hi:.5}");
    for row in grid {
        out.push('|');
        out.extend(row);
        out.push('\n');
    }
    let _ = writeln!(out, "+{}", "-".repeat(width));
    let _ = writeln!(out, " ASP {x_lo:.3} .. {x_hi:.3}   (COA min {y_lo:.5})");
    for (i, p) in points.iter().enumerate() {
        let _ = writeln!(
            out,
            "  [{}] {}  ASP={:.4} COA={:.5}",
            i + 1,
            p.design,
            p.asp,
            p.coa
        );
    }
    out
}

/// One radar-chart series: six axes as in the paper's Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct RadarSeries {
    /// Design name.
    pub design: String,
    /// `NoEP`, `ASP`, `AIM`, `NoEV`, `NoAP`, `COA` — raw values.
    pub values: [f64; 6],
}

/// Axis labels of [`RadarSeries::values`], in order.
pub const RADAR_AXES: [&str; 6] = [
    "entry points",
    "attack success probability",
    "attack impact",
    "exploitable vulnerabilities",
    "attack paths",
    "capacity oriented availability",
];

/// Builds Figure-7 radar data (before or after patch).
pub fn radar_data(evals: &[DesignEvaluation], after_patch: bool) -> Vec<RadarSeries> {
    evals
        .iter()
        .map(|e| {
            let m = if after_patch { &e.after } else { &e.before };
            RadarSeries {
                design: e.name.clone(),
                values: [
                    m.entry_points as f64,
                    m.attack_success_probability,
                    m.attack_impact,
                    m.exploitable_vulnerabilities as f64,
                    m.attack_paths as f64,
                    e.coa,
                ],
            }
        })
        .collect()
}

/// Builds the structured radar table: one row per design, the six axes
/// as columns (counts as integers).
pub fn radar_series_table(series: &[RadarSeries]) -> Table {
    let mut t = Table::new(
        "radar",
        ["design", "noep", "asp", "aim", "noev", "noap", "coa"],
    );
    for s in series {
        t.add_row(vec![
            Value::from(s.design.as_str()),
            Value::Int(s.values[0] as i64),
            Value::from(s.values[1]),
            Value::from(s.values[2]),
            Value::Int(s.values[3] as i64),
            Value::Int(s.values[4] as i64),
            Value::from(s.values[5]),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval_harm::SecurityMetrics;

    fn eval(name: &str, asp_before: f64, asp_after: f64, coa: f64) -> DesignEvaluation {
        let m = |asp: f64| SecurityMetrics {
            attack_impact: 42.2,
            attack_success_probability: asp,
            exploitable_vulnerabilities: 9,
            attack_paths: 2,
            entry_points: 1,
            shortest_path_length: Some(3),
            mean_path_length: 3.0,
            risk: 4.0,
        };
        DesignEvaluation {
            name: name.into(),
            counts: vec![1, 1],
            before: m(asp_before),
            after: m(asp_after),
            coa,
            availability: coa,
            expected_up: 2.0,
        }
    }

    #[test]
    fn scatter_selects_patch_phase() {
        let evals = vec![eval("a", 1.0, 0.2, 0.996)];
        let before = scatter_data(&evals, false);
        let after = scatter_data(&evals, true);
        assert_eq!(before[0].asp, 1.0);
        assert_eq!(after[0].asp, 0.2);
        assert_eq!(after[0].coa, 0.996);
    }

    #[test]
    fn csv_well_formed() {
        let evals = vec![eval("a", 1.0, 0.2, 0.9961), eval("b", 1.0, 0.3, 0.9967)];
        let csv = scatter_table(&scatter_data(&evals, true)).to_csv();
        let lines: Vec<&str> = csv.trim_end().lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "design,asp,coa");
        assert!(lines[1].starts_with("a,0.2"));
    }

    #[test]
    fn ascii_plot_contains_all_markers() {
        let evals = vec![
            eval("a", 1.0, 0.1, 0.9955),
            eval("b", 1.0, 0.2, 0.9960),
            eval("c", 1.0, 0.3, 0.9965),
        ];
        let plot = scatter_ascii(&scatter_data(&evals, true), 40, 10);
        for marker in ['1', '2', '3'] {
            assert!(plot.contains(marker), "missing marker {marker}\n{plot}");
        }
        assert!(plot.contains("ASP"));
    }

    #[test]
    fn ascii_plot_handles_degenerate_ranges() {
        let evals = vec![eval("a", 1.0, 0.2, 0.996), eval("b", 1.0, 0.2, 0.996)];
        let plot = scatter_ascii(&scatter_data(&evals, true), 20, 5);
        assert!(plot.contains("[2]"));
    }

    #[test]
    fn radar_axes_and_values_align() {
        let evals = vec![eval("a", 1.0, 0.25, 0.9964)];
        let series = radar_data(&evals, true);
        assert_eq!(series[0].values[1], 0.25);
        assert_eq!(series[0].values[5], 0.9964);
        assert_eq!(RADAR_AXES.len(), series[0].values.len());
        let table = radar_series_table(&series);
        assert!(table.to_text().contains("0.25"));
        let csv = table.to_csv();
        assert!(csv.contains("a,1,0.25,42.2,9,2,0.9964"));
    }
}
