//! Shared library of the `redeval-bench` reproduction tooling.
//!
//! Each paper table/figure — Tables I–VI, Figures 3–7, the Equation
//! (3),(4) region analyses and the §V extension studies — is built by a
//! function in [`reports`] returning a structured
//! [`Report`](redeval::output::Report). The unified `redeval` binary
//! ([`cli`]) dispatches over the report registry with `--format
//! text|json|csv` (`redeval <name>` for any artifact); the `design_space`
//! and `full_report` binaries render the same functions with a bound
//! argument and as markdown. See `DESIGN.md` §6–§7 and the README's
//! reproduction index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use redeval::{DesignEvaluation, PatchPolicy};

pub mod cli;
pub mod reports;
pub mod serve;

/// The CVSS base-score thresholds swept by the criticality reports
/// (8.0 is the paper's policy; 0.0 patches everything scored).
pub const CVSS_THRESHOLDS: [f64; 8] = [9.5, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 0.0];

/// The patch-window grid (days) swept by the schedule reports, from
/// twice-weekly to yearly around the paper's monthly default.
pub const PATCH_WINDOWS_DAYS: [f64; 8] = [3.5, 7.0, 14.0, 30.0, 60.0, 90.0, 180.0, 365.0];

/// Per-tier counts of the paper's case-study network (Figure 2):
/// 1 DNS + 2 WEB + 2 APP + 1 DB.
pub const CASE_STUDY_COUNTS: [u32; 4] = [1, 2, 2, 1];

/// The standard policy axis of the big sweeps: unpatched, the full
/// CVSS-threshold grid of [`CVSS_THRESHOLDS`], and patch-everything.
pub fn threshold_policies() -> Vec<PatchPolicy> {
    let mut out = vec![PatchPolicy::None];
    out.extend(
        CVSS_THRESHOLDS
            .iter()
            .map(|&t| PatchPolicy::CriticalOnly(t)),
    );
    out.push(PatchPolicy::All);
    out
}

/// Parses positional CLI argument `n` (1-based), falling back to
/// `default` when absent or unparsable.
pub fn arg_or<T: std::str::FromStr>(n: usize, default: T) -> T {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// Prints a section header (used by the perf harnesses).
pub fn header(title: &str) {
    println!();
    println!("==== {title} ====");
    println!();
}

/// Prints a paper-vs-measured comparison line (perf-harness path; the
/// structured reports use `reports::compare_row` instead).
pub fn compare(label: &str, paper: f64, ours: f64) {
    let rel = if paper != 0.0 {
        format!("{:+.3}%", (ours - paper) / paper * 100.0)
    } else {
        String::from("n/a")
    };
    println!("{label:<44} paper {paper:>10.5}   ours {ours:>10.5}   Δ {rel}");
}

/// Formats a design-evaluation row used by the perf harnesses.
pub fn design_row(e: &DesignEvaluation) -> String {
    format!(
        "{:<32} ASP {:>7.4}  AIM {:>5.1}  NoEV {:>2}  NoAP {:>2}  NoEP {:>2}  COA {:>8.5}",
        e.name,
        e.after.attack_success_probability,
        e.after.attack_impact,
        e.after.exploitable_vulnerabilities,
        e.after.attack_paths,
        e.after.entry_points,
        e.coa
    )
}

#[cfg(test)]
mod tests {
    use redeval::PatchPolicy;

    #[test]
    fn smoke() {
        super::header("x");
        super::compare("y", 1.0, 1.001);
        super::compare("z", 0.0, 0.5);
    }

    #[test]
    fn policy_axis_brackets_the_threshold_grid() {
        let p = super::threshold_policies();
        assert_eq!(p.len(), super::CVSS_THRESHOLDS.len() + 2);
        assert_eq!(p[0], PatchPolicy::None);
        assert_eq!(p[p.len() - 1], PatchPolicy::All);
        assert_eq!(p[3], PatchPolicy::CriticalOnly(8.0));
    }
}
