//! Solver cross-validation: the two steady-state methods must agree
//! with each other and with two independent references.
//!
//! * **GTH** is the reference on the generated tier chains (direct,
//!   subtraction-free);
//! * **Gauss–Seidel** — the method `Auto` uses above the dense
//!   threshold — must match GTH tightly at its default tolerance;
//! * **power iteration** on the uniformized chain ([`power_iteration`],
//!   kept here as a test-only oracle) is the independent cross-check:
//!   slower on stiff chains (its step size is bounded by the fastest
//!   rate), so it runs with a raised iteration budget and is held to a
//!   looser but still decisive tolerance;
//! * on birth–death machine-repair chains, the **closed form** of the
//!   product formula is the exact answer every method must reach.
//!
//! On every tier CTMC of a generated scenario (real server SRNs with
//! seed-jittered, stiff rate constants — hardware MTBFs in years
//! against patch reboots in minutes), agreement is checked on the full
//! distribution (max-norm) and on the probability-weighted quantity the
//! evaluator actually consumes (service availability).

use redeval::scenario::generate::{self, GenParams};
use redeval_avail::ServerModel;
use redeval_markov::{BirthDeath, Ctmc, SteadyStateMethod, SteadyStateOptions};

fn solve(
    ctmc: &Ctmc,
    method: SteadyStateMethod,
    tolerance: f64,
    max_iterations: usize,
) -> Vec<f64> {
    ctmc.steady_state_with(&SteadyStateOptions {
        method,
        tolerance,
        max_iterations,
        ..Default::default()
    })
    .unwrap_or_else(|e| panic!("{method:?} fails: {e:?}"))
}

/// Power iteration on the uniformized DTMC `P = I + Q/Λ`, with `Λ` 5 %
/// above the largest exit rate. A step moves `π` by `πQ/Λ`, so it stops
/// once the residual `‖πQ‖∞ ≈ Λ·‖step‖∞` is under `tolerance` (scaled by
/// `Λ` on fast chains).
fn power_iteration(ctmc: &Ctmc, tolerance: f64, max_steps: usize) -> Vec<f64> {
    let jumps: Vec<_> = ctmc
        .transitions()
        .iter()
        .filter(|t| t.from != t.to)
        .collect();
    let mut exit = vec![0.0; ctmc.len()];
    for t in &jumps {
        exit[t.from] += t.rate;
    }
    let lambda = exit.iter().copied().fold(0.0, f64::max) * 1.05;
    assert!(lambda > 0.0, "a chain without transitions has no dynamics");
    let mut pi = vec![1.0 / exit.len() as f64; exit.len()];
    for _ in 0..max_steps {
        let mut next: Vec<f64> = pi
            .iter()
            .zip(&exit)
            .map(|(p, e)| p * (1.0 - e / lambda))
            .collect();
        for t in &jumps {
            next[t.to] += pi[t.from] * t.rate / lambda;
        }
        let total: f64 = next.iter().sum();
        next.iter_mut().for_each(|p| *p /= total);
        let step = max_abs_diff(&pi, &next);
        pi = next;
        if step * lambda < tolerance * lambda.max(1.0) {
            return pi;
        }
    }
    panic!("power iteration did not converge in {max_steps} steps");
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn steady_state_methods_agree_on_generated_tier_ctmcs() {
    let mut chains = 0usize;
    for family in generate::FAMILIES {
        for seed in [5u64, 23] {
            let params = GenParams {
                tiers: 6,
                redundancy: 2,
                designs: 1,
                policies: 1,
            };
            let doc = generate::generate(family, &params, seed);
            for tier in &doc.tiers {
                let model = ServerModel::build(&tier.params);
                let ss = model.net().state_space().expect("server SRN is finite");
                let ctmc = ss.ctmc();
                let gth = solve(ctmc, SteadyStateMethod::Gth, 1e-13, 200_000);
                let gs = solve(ctmc, SteadyStateMethod::GaussSeidel, 1e-13, 200_000);
                let power = power_iteration(ctmc, 1e-9, 5_000_000);

                let sum: f64 = gth.iter().sum();
                assert!((sum - 1.0).abs() < 1e-12, "{}/{}", doc.name, tier.name);
                let max_gs = max_abs_diff(&gth, &gs);
                let max_power = max_abs_diff(&gth, &power);
                assert!(
                    max_gs < 1e-9,
                    "{}/{}: GTH vs Gauss–Seidel diverge by {max_gs:e}",
                    doc.name,
                    tier.name
                );
                assert!(
                    max_power < 1e-6,
                    "{}/{}: GTH vs power iteration diverge by {max_power:e}",
                    doc.name,
                    tier.name
                );

                // The quantity the evaluator consumes: P(service up).
                let places = *model.places();
                let up = |pi: &[f64]| -> f64 {
                    ss.tangible_markings()
                        .iter()
                        .zip(pi)
                        .filter(|(m, _)| places.service_up(m))
                        .map(|(_, p)| p)
                        .sum()
                };
                let a_gth = up(&gth);
                let a_gs = up(&gs);
                let a_power = up(&power);
                assert!(
                    (a_gth - a_gs).abs() < 1e-10 && (a_gth - a_power).abs() < 1e-7,
                    "{}/{}: availability {a_gth} vs GS {a_gs} vs power {a_power}",
                    doc.name,
                    tier.name
                );
                chains += 1;
            }
        }
    }
    // Six tiers per document, two seeds, three families.
    assert_eq!(chains, 36, "the corpus shrank; the property lost coverage");
}

/// Every method against the birth–death closed form on machine-repair
/// chains (λ = 0.01, µ = 1) of 17, 65 and 257 states.
#[test]
fn steady_state_methods_match_the_birth_death_closed_form() {
    for n in [16, 64, 256] {
        let bd = BirthDeath::machine_repair(n, 0.01, 1.0);
        let exact = bd.steady_state().expect("closed form solves");
        let ctmc = bd.to_ctmc();
        for (label, pi) in [
            ("GTH", solve(&ctmc, SteadyStateMethod::Gth, 1e-10, 200_000)),
            (
                "Gauss–Seidel",
                solve(&ctmc, SteadyStateMethod::GaussSeidel, 1e-10, 200_000),
            ),
            ("power", power_iteration(&ctmc, 1e-10, 200_000)),
        ] {
            let err = max_abs_diff(&pi, &exact);
            assert!(
                err < 1e-6,
                "{label} deviates from the closed form by {err:e} at n = {n}"
            );
        }
    }
}

/// Convergence budgets on the success path (ISSUE 10): the
/// [`SolveStats`](redeval_markov::SolveStats) every solve now reports —
/// the numbers the telemetry layer aggregates into `solver_iterations`
/// and `solver_residual_max` — must be sane on real tier chains: GTH is
/// direct (0 iterations, residual within float noise), Gauss–Seidel
/// converges inside a small fraction of its iteration budget with a
/// residual at or under the requested tolerance, and both report the
/// same solved-class size.
#[test]
fn solve_stats_respect_convergence_budgets_on_generated_tiers() {
    let params = GenParams {
        tiers: 6,
        redundancy: 2,
        designs: 1,
        policies: 1,
    };
    for family in generate::FAMILIES {
        let doc = generate::generate(family, &params, 5);
        for tier in &doc.tiers {
            let model = ServerModel::build(&tier.params);
            let ss = model.net().state_space().expect("server SRN is finite");
            let ctmc = ss.ctmc();
            let with_stats = |method, tolerance, max_iterations| {
                ctmc.steady_state_with_stats(&SteadyStateOptions {
                    method,
                    tolerance,
                    max_iterations,
                    ..Default::default()
                })
                .unwrap_or_else(|e| panic!("{method:?} fails: {e:?}"))
            };
            let (_, gth) = with_stats(SteadyStateMethod::Gth, 1e-13, 200_000);
            let (_, gs) = with_stats(SteadyStateMethod::GaussSeidel, 1e-13, 200_000);
            let label = format!("{}/{}", doc.name, tier.name);
            assert_eq!(gth.method, SteadyStateMethod::Gth, "{label}");
            assert_eq!(gth.iterations, 0, "{label}: GTH is direct");
            assert!(
                gth.residual < 1e-10,
                "{label}: GTH a-posteriori residual {:e}",
                gth.residual
            );
            assert_eq!(gs.method, SteadyStateMethod::GaussSeidel, "{label}");
            assert!(gs.iterations > 0, "{label}: an iterative solve iterates");
            assert!(
                gs.iterations < 20_000,
                "{label}: Gauss–Seidel needed {} sweeps — the chain got \
                 pathologically stiff or the solver regressed",
                gs.iterations
            );
            // The reported residual is a-posteriori (balance-equation
            // defect), not the iterate delta the tolerance bounds, so
            // hold it to the same float-noise band as GTH.
            assert!(
                gs.residual < 1e-10,
                "{label}: converged residual {:e} above the noise band",
                gs.residual
            );
            assert_eq!(
                gth.states, gs.states,
                "{label}: methods solved different closed classes"
            );
            assert!(
                gth.states > 0 && gth.states <= ss.tangible_markings().len(),
                "{label}: solved class size {} outside the tangible space",
                gth.states
            );
        }
    }
}
