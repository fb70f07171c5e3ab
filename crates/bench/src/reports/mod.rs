//! Report builders: one function per reproduction artifact, each
//! returning a structured [`Report`] (see `redeval::output`).
//!
//! These functions are the single source of every paper table, figure and
//! extension study. The `redeval` CLI dispatches over [`REGISTRY`]
//! (`redeval <name>` for each artifact), and the golden corpus under `tests/golden/` byte-pins each builder's
//! canonical JSON. Every builder is **deterministic**: fixed simulation
//! seeds, order-stable data structures, and results independent of thread
//! count (DESIGN.md §5–§6) — a builder that records wall-clock times or
//! machine parallelism must never join this registry.
//!
//! A builder describes *what* to compute; *where* it runs is the
//! caller's. Every registry entry takes the caller's [`Pool`] and
//! [`AnalysisCache`], and a builder that batches or solves tiers runs on
//! them, so one run — `redeval report --all`, the golden tests — builds
//! one pool and one cache and every report shares its tier solves
//! (`profile` alone counts on a cold cache of its own). The cache is
//! exact and every batch is bitwise-identical at any pool size, so
//! neither changes a byte.

pub mod equilibrium;
pub mod figures;
pub mod optimize;
pub mod profile;
pub mod scenario;
pub mod studies;
pub mod tables;
pub mod validate;

use std::sync::Arc;

use redeval::case_study;
use redeval::decision::{MultiBounds, ScatterBounds};
use redeval::exec::{AnalysisCache, Pool, Sweep};
use redeval::output::{Report, Table, Value};
use redeval::report::{markdown_report, ReportOptions};
use redeval::{DesignEvaluation, PatchPolicy};

/// One registry entry: the machine name (CLI subcommand / golden-file
/// stem), a one-line description, and the builder.
#[derive(Debug, Clone, Copy)]
pub struct ReportSpec {
    /// Machine name, e.g. `table2` or `design_space`.
    pub name: &'static str,
    /// One-line description (shown by `redeval list`).
    pub about: &'static str,
    /// Builds the report with its default parameters on the caller's
    /// pool and cache. A builder that needs neither ignores them.
    pub build: fn(&Pool, &Arc<AnalysisCache>) -> Report,
}

/// Every report, in the order `report --all` emits them. Names are the
/// golden-file stems; adding an entry here automatically surfaces it in
/// the CLI, the goldens and CI.
pub const REGISTRY: &[ReportSpec] = &[
    ReportSpec {
        name: "table1",
        about: "Table I — vulnerability data from reconstructed CVSS vectors",
        build: |_, _| tables::table1(),
    },
    ReportSpec {
        name: "table2",
        about: "Table II — security metrics before/after patch vs the paper",
        build: |_, _| tables::table2(),
    },
    ReportSpec {
        name: "table3",
        about: "Table III — SRN guard functions probed against the net",
        build: |_, _| tables::table3(),
    },
    ReportSpec {
        name: "table4",
        about: "Table IV — SRN input parameters per tier",
        build: |_, _| tables::table4(),
    },
    ReportSpec {
        name: "table5",
        about: "Table V — aggregated patch/recovery rates per tier",
        build: |_, cache| tables::table5(cache),
    },
    ReportSpec {
        name: "table6",
        about: "Table VI — COA reward function and the paper's COA, three ways",
        build: |_, cache| tables::table6(cache),
    },
    ReportSpec {
        name: "fig3",
        about: "Figure 3 — HARM attack paths and DOT, before/after patch",
        build: |_, _| figures::fig3(),
    },
    ReportSpec {
        name: "fig45",
        about: "Figures 4/5 — SRN sub-models as DOT + tangible state space",
        build: |_, cache| figures::fig45(cache),
    },
    ReportSpec {
        name: "fig6",
        about: "Figure 6 — ASP-vs-COA scatter + Equation (3) regions",
        build: figures::fig6,
    },
    ReportSpec {
        name: "fig7",
        about: "Figure 7 — six-metric radar + Equation (4) regions",
        build: figures::fig7,
    },
    ReportSpec {
        name: "regions",
        about: "Equations (3),(4) region analyses — the headline check",
        build: studies::regions,
    },
    ReportSpec {
        name: "sweep",
        about: "Patch-interval and criticality-threshold sweeps",
        build: studies::sweep,
    },
    ReportSpec {
        name: "sensitivity",
        about: "COA-loss sensitivities of every Table-IV parameter",
        build: studies::sensitivity,
    },
    ReportSpec {
        name: "scenarios",
        about: "Partial patch scenarios — per-tier MTTR and network COA",
        build: studies::scenarios,
    },
    ReportSpec {
        name: "cost",
        about: "Expected monthly operational cost per design",
        build: studies::cost,
    },
    ReportSpec {
        name: "design_space",
        about: "Exhaustive design-space search with the decision functions",
        build: |pool, cache| studies::design_space(3, pool, cache),
    },
    ReportSpec {
        name: "heterogeneous",
        about: "Heterogeneous (diverse-stack) redundancy study",
        build: studies::heterogeneous,
    },
    ReportSpec {
        name: "importance",
        about: "Host-importance ranking before/after patch",
        build: |_, _| studies::importance(),
    },
    ReportSpec {
        name: "patch_priority",
        about: "Greedy patch prioritization vs the blanket policy",
        build: studies::patch_priority,
    },
    ReportSpec {
        name: "perf",
        about: "M/M/c response times per design under patching",
        build: |_, cache| studies::perf(cache),
    },
    ReportSpec {
        name: "transient",
        about: "Capacity transient of a patch round (uniformization)",
        build: |_, cache| studies::transient(cache),
    },
    ReportSpec {
        name: "optimize",
        about: "Pruned branch-and-bound design-space search (case study)",
        build: optimize::builtin_optimize,
    },
    ReportSpec {
        name: "equilibrium",
        about: "Attacker–defender best-response equilibrium (case study)",
        build: equilibrium::builtin_equilibrium,
    },
    ReportSpec {
        name: "profile",
        about: "Deterministic telemetry counters over eval/optimize/equilibrium",
        build: |pool, _| profile::builtin_profile(pool),
    },
    ReportSpec {
        name: "scenario_suite",
        about: "Bundled scenario gallery evaluated through the declarative API",
        build: scenario::scenario_suite,
    },
    ReportSpec {
        name: "gen_suite",
        about: "Seeded generator corpus evaluated through the declarative API",
        build: scenario::gen_suite,
    },
    ReportSpec {
        name: "validate_sim",
        about: "Analytic vs simulation cross-validation (fixed seeds)",
        build: |_, cache| validate::validate_sim(cache),
    },
    ReportSpec {
        name: "aggregation_error",
        about: "Eq. (1),(2) aggregation accuracy vs the exact composite",
        build: |_, cache| validate::aggregation_error(cache),
    },
];

/// Looks a report up by registry name (underscore form).
pub fn find(name: &str) -> Option<&'static ReportSpec> {
    REGISTRY.iter().find(|s| s.name == name)
}

/// The paper's Equation-(3) regions: label, bounds, and the design set
/// the paper reports (used by `fig6`, `regions` and the full report).
pub fn paper_scatter_regions() -> Vec<(&'static str, ScatterBounds, Vec<&'static str>)> {
    vec![
        (
            "region 1: φ=0.2, ψ=0.9962",
            ScatterBounds {
                max_asp: 0.2,
                min_coa: 0.9962,
            },
            vec![
                "1 DNS + 1 WEB + 2 APP + 1 DB",
                "1 DNS + 1 WEB + 1 APP + 2 DB",
            ],
        ),
        (
            "region 2: φ=0.1, ψ=0.9961",
            ScatterBounds {
                max_asp: 0.1,
                min_coa: 0.9961,
            },
            vec!["2 DNS + 1 WEB + 1 APP + 1 DB"],
        ),
    ]
}

/// The paper's Equation-(4) regions (used by `fig7`, `regions` and the
/// full report).
pub fn paper_multi_regions() -> Vec<(&'static str, MultiBounds, Vec<&'static str>)> {
    vec![
        (
            "region 1: φ=0.2, ξ=9, ω=2, κ=1, ψ=0.9962",
            MultiBounds {
                max_asp: 0.2,
                max_noev: 9,
                max_noap: 2,
                max_noep: 1,
                min_coa: 0.9962,
            },
            vec!["1 DNS + 1 WEB + 2 APP + 1 DB"],
        ),
        (
            "region 2: φ=0.1, ξ=7, ω=1, κ=1, ψ=0.9961",
            MultiBounds {
                max_asp: 0.1,
                max_noev: 7,
                max_noap: 1,
                max_noep: 1,
                min_coa: 0.9961,
            },
            vec!["2 DNS + 1 WEB + 1 APP + 1 DB"],
        ),
    ]
}

/// Evaluates the paper's five designs under critical-only patching at
/// 8.0 (the [`Sweep`] default) on `pool` and `cache` — the shared
/// evaluation path of `fig6`, `fig7`, `regions`, `cost`,
/// `patch_priority` and `full_report`. A run building several of those
/// reports solves the case-study tiers once, in its cache; the five
/// cells themselves are cheap.
pub fn five_design_evals(pool: &Pool, cache: &Arc<AnalysisCache>) -> Vec<DesignEvaluation> {
    Sweep::new(case_study::network())
        .designs(case_study::five_designs())
        .run(pool, cache)
        .expect("five designs evaluate")
}

/// The complete markdown report over the five designs with the paper's
/// region bounds (the `full_report` binary), rendered from
/// [`five_design_evals`] on `pool` and `cache`.
pub fn full_report_markdown(pool: &Pool, cache: &Arc<AnalysisCache>) -> String {
    let options = ReportOptions {
        title: "Ge et al. (DSN 2017) — five redundancy designs under monthly critical patching"
            .into(),
        scatter_bounds: paper_scatter_regions()
            .into_iter()
            .map(|(label, b, _)| (label.to_string(), b))
            .collect(),
        multi_bounds: paper_multi_regions()
            .into_iter()
            .map(|(label, b, _)| (label.to_string(), b))
            .collect(),
    };
    markdown_report(
        &five_design_evals(pool, cache),
        PatchPolicy::CriticalOnly(8.0),
        &options,
    )
}

/// An empty paper-vs-measured comparison table.
pub(crate) fn compare_table(name: &str) -> Table {
    compare_table_vs(name, "paper", "ours")
}

/// An empty comparison table with explicit reference/measured column
/// names (e.g. `analytic` vs `simulated` in the cross-validation
/// reports).
pub(crate) fn compare_table_vs(name: &str, reference: &str, measured: &str) -> Table {
    Table::new(name, ["quantity", reference, measured, "delta_pct"])
}

/// Appends one comparison row; the relative deviation (of `ours` from
/// the reference `paper`) is null when the reference is zero.
pub(crate) fn compare_row(t: &mut Table, label: &str, paper: f64, ours: f64) {
    let delta = if paper != 0.0 {
        Value::from((ours - paper) / paper * 100.0)
    } else {
        Value::Null
    };
    t.add_row(vec![
        Value::from(label),
        Value::from(paper),
        Value::from(ours),
        delta,
    ]);
}

/// Appends the Equation-(3) region tables and their paper checks.
pub(crate) fn eq3_regions(report: &mut Report, evals: &[DesignEvaluation]) {
    let mut t = Table::new("eq3-regions", ["region", "members", "matches_paper"]);
    for (label, bounds, expect) in paper_scatter_regions() {
        let members: Vec<&str> = bounds
            .region(evals)
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        let ok = members == expect;
        report.check(ok);
        t.add_row(vec![
            Value::from(label),
            Value::from(members.join("; ")),
            Value::from(ok),
        ]);
    }
    report.table(t);
}

/// Appends the Equation-(4) region tables and their paper checks.
pub(crate) fn eq4_regions(report: &mut Report, evals: &[DesignEvaluation]) {
    let mut t = Table::new("eq4-regions", ["region", "members", "matches_paper"]);
    for (label, bounds, expect) in paper_multi_regions() {
        let members: Vec<&str> = bounds
            .region(evals)
            .iter()
            .map(|e| e.name.as_str())
            .collect();
        let ok = members == expect;
        report.check(ok);
        t.add_row(vec![
            Value::from(label),
            Value::from(members.join("; ")),
            Value::from(ok),
        ]);
    }
    report.table(t);
}

/// The standard after-patch design table (`regions`, `design_space`).
pub(crate) fn design_table(name: &str, evals: &[&DesignEvaluation]) -> Table {
    let mut t = Table::new(
        name,
        ["design", "asp", "aim", "noev", "noap", "noep", "coa"],
    );
    for e in evals {
        t.add_row(vec![
            Value::from(e.name.as_str()),
            Value::from(e.after.attack_success_probability),
            Value::from(e.after.attack_impact),
            Value::from(e.after.exploitable_vulnerabilities),
            Value::from(e.after.attack_paths),
            Value::from(e.after.entry_points),
            Value::from(e.coa),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        for (i, a) in REGISTRY.iter().enumerate() {
            assert!(find(a.name).is_some());
            for b in &REGISTRY[i + 1..] {
                assert_ne!(a.name, b.name, "duplicate registry name");
            }
        }
        assert!(find("no_such_report").is_none());
    }

    #[test]
    fn report_names_match_registry_keys() {
        // Cheap spot-check on a fast builder: the Report's own name must
        // equal its registry key (the golden-file stem).
        let spec = find("regions").unwrap();
        let report = (spec.build)(&Pool::new(1), &Arc::new(AnalysisCache::new()));
        assert_eq!(report.name, "regions");
    }
}
