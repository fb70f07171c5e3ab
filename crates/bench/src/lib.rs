//! Shared library of the `redeval-bench` reproduction tooling.
//!
//! Each paper table/figure — Tables I–VI, Figures 3–7, the Equation
//! (3),(4) region analyses and the §V extension studies — is built by a
//! function in [`reports`] returning a structured
//! [`Report`](redeval::output::Report). Every registry builder runs on
//! the caller's [`Pool`](redeval::exec::Pool) and
//! [`AnalysisCache`](redeval::exec::AnalysisCache). The unified `redeval`
//! binary ([`cli`]) dispatches over the report registry with `--format
//! text|json|csv` (`redeval <name>` for any artifact); the `design_space`
//! and `full_report` binaries render the same functions with a bound
//! argument and as markdown. Each of the three builds one pool and one
//! cache per run, and [`serve`] keeps one of each for the server's
//! lifetime. See `DESIGN.md` §5–§7 and the README's reproduction index.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
