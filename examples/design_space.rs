//! Design-space search: enumerate every redundancy design up to a given
//! per-tier maximum and report the Pareto frontier between after-patch
//! security (ASP) and capacity-oriented availability.
//!
//! This extends the paper's five hand-picked designs (Section IV) to the
//! full `max_redundancy^4` space and shows which designs are undominated.
//!
//! Run with: `cargo run --example design_space [max_redundancy]`

use redeval::case_study;
use redeval::decision::pareto_frontier;
use redeval::exec::{default_threads, Pool, Sweep};

fn main() -> Result<(), redeval::EvalError> {
    let max_redundancy: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);

    let sweep = Sweep::new(case_study::network()).full_design_space(max_redundancy);
    println!(
        "evaluating {} designs (1..={} servers per tier) on {} thread(s)",
        sweep.len(),
        max_redundancy,
        default_threads()
    );

    // The whole space evaluates on one worker pool; results come back in
    // design order, identical for any pool size.
    let evals = sweep.run(&Pool::new(default_threads()))?;

    // Pareto frontier: not dominated by any other design.
    let frontier = pareto_frontier(&evals);

    println!();
    println!(
        "{:<36} {:>8} {:>9} {:>8}",
        "design", "ASP", "COA", "servers"
    );
    println!("{}", "-".repeat(66));
    for e in &frontier {
        println!(
            "{:<36} {:>8.4} {:>9.5} {:>8}",
            e.name,
            e.after.attack_success_probability,
            e.coa,
            e.total_servers()
        );
    }
    println!();
    println!(
        "{} of {} designs are Pareto-optimal (lower ASP, higher COA)",
        frontier.len(),
        evals.len()
    );

    // Sanity: the frontier starts at the space's lowest after-patch ASP,
    // and the non-redundant design (smallest attack surface) attains it.
    // It need not be on the frontier itself: a design with the same ASP
    // and a higher COA (2-1-1-1 in the case study) dominates it.
    let min_asp = evals
        .iter()
        .map(|e| e.after.attack_success_probability)
        .fold(f64::INFINITY, f64::min);
    assert_eq!(frontier[0].after.attack_success_probability, min_asp);
    let single = evals
        .iter()
        .find(|e| e.total_servers() == 4)
        .expect("the 1-1-1-1 design is in the space");
    assert_eq!(single.after.attack_success_probability, min_asp);
    Ok(())
}
