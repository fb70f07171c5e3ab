//! Patch planning: sweep the patch interval (the paper's Section V
//! "patch schedule" extension) and compare patch policies.
//!
//! For the case-study network, shows how the patch frequency trades
//! exposure to critical vulnerabilities (time spent unpatched) against
//! patch-induced capacity loss, and how the `CriticalOnly` policy compares
//! with patching everything.
//!
//! Run with: `cargo run --example patch_planning`

use redeval::case_study;
use redeval::{Design, PatchPolicy, Pool, Sweep};

fn main() -> Result<(), redeval::EvalError> {
    let pool = Pool::new(2);
    let design = Design::new("case study", vec![1, 2, 2, 1]);

    println!("== patch interval sweep (case-study network, critical-only policy) ==");
    println!();
    println!(
        "{:>10} {:>12} {:>10} {:>14}",
        "interval", "COA", "downtime", "patches/year"
    );

    // One spec variant per interval, the schedule applied to every tier.
    let intervals = [7.0, 14.0, 30.0, 60.0, 90.0, 180.0];
    let evals = Sweep::new(case_study::network())
        .designs(vec![design.clone()])
        .patch_intervals_days(&intervals)
        .run(&pool)?;
    let mut last_coa = 0.0;
    for (days, e) in intervals.iter().zip(&evals) {
        let downtime_hours_month = (1.0 - e.coa) * 720.0;
        println!(
            "{:>8.0} d {:>12.5} {:>8.2} h {:>14.1}",
            days,
            e.coa,
            downtime_hours_month,
            365.25 / days
        );
        // More frequent patching must not *increase* COA.
        assert!(e.coa >= last_coa - 1e-9);
        last_coa = e.coa;
    }

    println!();
    println!("== patch policy comparison (monthly schedule) ==");
    println!();
    // One policy axis over the same design: the policies share its
    // security model and tier solves.
    let policies = [
        ("none", PatchPolicy::None),
        ("critical-only (>8.0)", PatchPolicy::CriticalOnly(8.0)),
        ("critical-only (>7.0)", PatchPolicy::CriticalOnly(7.0)),
        ("all", PatchPolicy::All),
    ];
    let evals = Sweep::new(case_study::network())
        .designs(vec![design])
        .policies(policies.iter().map(|&(_, p)| p).collect())
        .run(&pool)?;
    for ((name, _), e) in policies.iter().zip(&evals) {
        println!(
            "{:<22} ASP {:>6.4}  NoEV {:>2}  NoAP {:>2}  NoEP {:>2}",
            name,
            e.after.attack_success_probability,
            e.after.exploitable_vulnerabilities,
            e.after.attack_paths,
            e.after.entry_points
        );
    }
    Ok(())
}
