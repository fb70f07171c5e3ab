//! Quickstart: evaluate the paper's case-study network end to end.
//!
//! Builds the Figure-2 enterprise network (1 DNS + 2 WEB + 2 APP + 1 DB),
//! computes the security metrics before/after the monthly critical-patch
//! round (Table II) and the capacity-oriented availability (Table VI),
//! then checks an administrator policy.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use redeval::case_study;
use redeval::decision::ScatterBounds;
use redeval::{AnalysisCache, Design, PatchPolicy, Pool, Sweep};

fn main() -> Result<(), redeval::EvalError> {
    // Phase 1+2: inputs and model construction: the case-study design
    // under the paper's policy (patch base scores above 8.0), a one-point
    // sweep. The analysis cache solves each per-tier server SRN once.
    let design = Design::new("1 DNS + 2 WEB + 2 APP + 1 DB", vec![1, 2, 2, 1]);
    let sweep = Sweep::new(case_study::network())
        .designs(vec![design])
        .policies(vec![PatchPolicy::CriticalOnly(8.0)]);

    // Phase 3: evaluate it on a one-worker pool.
    let e = sweep
        .run(&Pool::new(1), &Arc::new(AnalysisCache::new()))?
        .remove(0);

    println!("design: {}", e.name);
    println!();
    println!("security (before patch):  {}", e.before);
    println!("security (after patch):   {}", e.after);
    println!();
    println!("capacity-oriented availability: {:.5}", e.coa);
    println!("classical availability:         {:.6}", e.availability);
    println!(
        "expected running servers:       {:.3} / {}",
        e.expected_up,
        e.total_servers()
    );

    // Decide against administrator bounds (Equation (3)).
    let bounds = ScatterBounds {
        max_asp: 0.35,
        min_coa: 0.9965,
    };
    println!();
    println!(
        "meets (ASP <= {}, COA >= {})? {}",
        bounds.max_asp,
        bounds.min_coa,
        if bounds.satisfied(&e) { "yes" } else { "no" }
    );

    // The monthly patch sharply reduces the attack surface.
    assert!(e.after.attack_success_probability < e.before.attack_success_probability);
    assert!(e.after.exploitable_vulnerabilities < e.before.exploitable_vulnerabilities);
    Ok(())
}
