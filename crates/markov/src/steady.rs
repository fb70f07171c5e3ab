//! Steady-state solvers for CTMCs.
//!
//! The entry point is [`steady_state`], which takes the *off-diagonal* rate
//! matrix. It first isolates the single closed communicating class (the
//! recurrent states); unreachable/transient states receive probability zero.
//! The restricted system is then solved by one of two methods:
//!
//! * **GTH** (Grassmann–Taksar–Heyman) — direct elimination without
//!   subtractions; numerically the most robust, `O(m³)`.
//! * **Gauss–Seidel** — sparse iterative sweeps, good for large chains.

use crate::matrix::{Csr, Dense};
use crate::SolveError;

/// Which steady-state algorithm is used.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SteadyStateMethod {
    /// GTH for small chains, Gauss–Seidel above the size threshold.
    Auto,
    /// Grassmann–Taksar–Heyman elimination (direct, dense).
    Gth,
    /// Gauss–Seidel iteration.
    GaussSeidel,
}

/// Options controlling the steady-state solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyStateOptions {
    /// Algorithm selection.
    pub method: SteadyStateMethod,
    /// Convergence tolerance for Gauss–Seidel (max-norm of `πQ`).
    pub tolerance: f64,
    /// Iteration budget for Gauss–Seidel.
    pub max_iterations: usize,
    /// Chain size above which `Auto` switches from GTH to Gauss–Seidel.
    pub dense_threshold: usize,
}

impl Default for SteadyStateOptions {
    fn default() -> Self {
        SteadyStateOptions {
            method: SteadyStateMethod::Auto,
            tolerance: 1e-13,
            max_iterations: 200_000,
            dense_threshold: 512,
        }
    }
}

/// Convergence statistics of one steady-state solve, reported on the
/// **success** path (the failure path carries its own numbers inside
/// [`SolveError::NoConvergence`]).
///
/// All fields are deterministic functions of the chain and the options:
/// the same solve always reports the same stats, which is what lets the
/// telemetry layer pin them in goldens.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveStats {
    /// The method that actually ran (`Auto` is resolved to the concrete
    /// algorithm before solving).
    pub method: SteadyStateMethod,
    /// Sweeps/iterations performed; `0` for the direct GTH elimination
    /// and for trivial single-state classes.
    pub iterations: usize,
    /// Max-norm residual `‖πQ‖∞` of the returned distribution, measured
    /// on the closed recurrent class (`0.0` for trivial classes).
    pub residual: f64,
    /// Number of states in the closed recurrent class actually solved.
    pub states: usize,
}

/// Computes the steady-state distribution of a CTMC given its off-diagonal
/// rate matrix.
///
/// # Errors
///
/// * [`SolveError::Empty`] for a 0-state matrix;
/// * [`SolveError::Reducible`] when more than one closed communicating
///   class exists;
/// * [`SolveError::NoConvergence`] when Gauss–Seidel exhausts its budget.
pub fn steady_state(rates: &Csr, options: &SteadyStateOptions) -> Result<Vec<f64>, SolveError> {
    steady_state_with_stats(rates, options).map(|(pi, _)| pi)
}

/// [`steady_state`] returning the distribution **and** its convergence
/// statistics, so callers can surface iterations/residual on the success
/// path too (not just inside [`SolveError::NoConvergence`]).
///
/// # Errors
///
/// As [`steady_state`].
pub fn steady_state_with_stats(
    rates: &Csr,
    options: &SteadyStateOptions,
) -> Result<(Vec<f64>, SolveStats), SolveError> {
    let n = rates.rows();
    if n == 0 {
        return Err(SolveError::Empty);
    }
    let closed = closed_classes(rates);
    if closed.len() != 1 {
        return Err(SolveError::Reducible);
    }
    let class = &closed[0];
    let m = class.len();
    let method = match options.method {
        SteadyStateMethod::Auto => {
            if m <= options.dense_threshold {
                SteadyStateMethod::Gth
            } else {
                SteadyStateMethod::GaussSeidel
            }
        }
        other => other,
    };
    let mut pi = vec![0.0; n];
    if m == 1 {
        pi[class[0]] = 1.0;
        let stats = SolveStats {
            method,
            iterations: 0,
            residual: 0.0,
            states: 1,
        };
        return Ok((pi, stats));
    }

    // Restrict the rate matrix to the closed class.
    let mut map = vec![usize::MAX; n];
    for (k, &s) in class.iter().enumerate() {
        map[s] = k;
    }
    let mut trips = Vec::new();
    for &s in class {
        for e in rates.row(s) {
            if map[e.index] != usize::MAX && e.index != s {
                trips.push((map[s], map[e.index], e.value));
            }
        }
    }
    let sub = Csr::from_triplets(m, m, &trips);

    let (sol, iterations, resid) = match method {
        SteadyStateMethod::Gth => gth(&sub),
        SteadyStateMethod::GaussSeidel => gauss_seidel(&sub, options),
        SteadyStateMethod::Auto => unreachable!("resolved above"),
    }?;
    for (k, &s) in class.iter().enumerate() {
        pi[s] = sol[k];
    }
    let stats = SolveStats {
        method,
        iterations,
        residual: resid,
        states: m,
    };
    Ok((pi, stats))
}

/// Finds the closed communicating classes (SCCs with no outgoing edges)
/// of the directed graph induced by positive rates.
fn closed_classes(rates: &Csr) -> Vec<Vec<usize>> {
    let n = rates.rows();
    let scc = tarjan_scc(rates);
    let mut comp_of = vec![0usize; n];
    for (c, members) in scc.iter().enumerate() {
        for &s in members {
            comp_of[s] = c;
        }
    }
    let mut closed = vec![true; scc.len()];
    for s in 0..n {
        for e in rates.row(s) {
            if e.index != s && comp_of[e.index] != comp_of[s] {
                closed[comp_of[s]] = false;
            }
        }
    }
    scc.into_iter()
        .enumerate()
        .filter(|(c, _)| closed[*c])
        .map(|(_, mut members)| {
            members.sort_unstable();
            members
        })
        .collect()
}

/// Iterative Tarjan strongly-connected components.
fn tarjan_scc(rates: &Csr) -> Vec<Vec<usize>> {
    let n = rates.rows();
    const UNVISITED: usize = usize::MAX;
    let mut index = vec![UNVISITED; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut sccs: Vec<Vec<usize>> = Vec::new();

    // Explicit DFS stack of (node, edge cursor).
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut cursor)) = dfs.last_mut() {
            if *cursor == 0 {
                index[v] = next_index;
                low[v] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            let row = rates.row(v);
            let mut advanced = false;
            while *cursor < row.len() {
                let w = row[*cursor].index;
                *cursor += 1;
                if w == v {
                    continue;
                }
                if index[w] == UNVISITED {
                    dfs.push((w, 0));
                    advanced = true;
                    break;
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            }
            if advanced {
                continue;
            }
            // Node finished.
            dfs.pop();
            if let Some(&(parent, _)) = dfs.last() {
                low[parent] = low[parent].min(low[v]);
            }
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                sccs.push(comp);
            }
        }
    }
    sccs
}

/// GTH elimination on an irreducible off-diagonal rate matrix.
///
/// Returns `(pi, iterations, residual)`; GTH is direct, so iterations is
/// always `0` and the residual is measured a-posteriori on the input.
fn gth(rates: &Csr) -> Result<(Vec<f64>, usize, f64), SolveError> {
    let n = rates.rows();
    let mut a = rates.to_dense();
    // Forward elimination.
    for k in (1..n).rev() {
        let s: f64 = a.row(k)[..k].iter().sum();
        if s <= 0.0 {
            // State k cannot reach lower-numbered states: irreducibility was
            // checked, so this indicates numerical trouble.
            return Err(SolveError::Singular);
        }
        for i in 0..k {
            let v = a[(i, k)] / s;
            a[(i, k)] = v;
        }
        for i in 0..k {
            let aik = a[(i, k)];
            if aik == 0.0 {
                continue;
            }
            for j in 0..k {
                if j != i {
                    let add = aik * a[(k, j)];
                    a[(i, j)] += add;
                }
            }
        }
    }
    // Back substitution.
    let mut pi = vec![0.0; n];
    pi[0] = 1.0;
    for k in 1..n {
        let mut s = 0.0;
        for i in 0..k {
            s += pi[i] * a[(i, k)];
        }
        pi[k] = s;
    }
    normalize(&mut pi);
    let exit: Vec<f64> = (0..n)
        .map(|i| rates.row(i).iter().map(|e| e.value).sum())
        .collect();
    let resid = residual(rates, &exit, &pi);
    Ok((pi, 0, resid))
}

/// Gauss–Seidel sweeps on `πQ = 0`, returning `(pi, sweeps, residual)`.
fn gauss_seidel(
    rates: &Csr,
    options: &SteadyStateOptions,
) -> Result<(Vec<f64>, usize, f64), SolveError> {
    let n = rates.rows();
    let exit: Vec<f64> = (0..n)
        .map(|i| rates.row(i).iter().map(|e| e.value).sum())
        .collect();
    if exit.iter().any(|&e| e <= 0.0) {
        return Err(SolveError::Singular);
    }
    // The achievable residual scales with the rate magnitudes; make the
    // tolerance scale-aware so stiff chains still converge.
    let scale = exit.iter().cloned().fold(0.0f64, f64::max).max(1.0);
    let mut pi = vec![1.0 / n as f64; n];
    for it in 0..options.max_iterations {
        for j in 0..n {
            let mut s = 0.0;
            for e in rates.col(j) {
                if e.index != j {
                    s += pi[e.index] * e.value;
                }
            }
            pi[j] = s / exit[j];
        }
        normalize(&mut pi);
        // Residual: max_j |(πQ)_j|, relative to the rate scale.
        let resid = residual(rates, &exit, &pi);
        if resid < options.tolerance * scale {
            return Ok((pi, it + 1, resid));
        }
        if it == options.max_iterations - 1 {
            return Err(SolveError::NoConvergence {
                iterations: options.max_iterations,
                residual: resid,
            });
        }
    }
    unreachable!("loop always returns")
}

fn residual(rates: &Csr, exit: &[f64], pi: &[f64]) -> f64 {
    let n = rates.rows();
    let mut worst = 0.0f64;
    for j in 0..n {
        let mut s = -pi[j] * exit[j];
        for e in rates.col(j) {
            if e.index != j {
                s += pi[e.index] * e.value;
            }
        }
        worst = worst.max(s.abs());
    }
    worst
}

fn normalize(pi: &mut [f64]) {
    let s: f64 = pi.iter().sum();
    if s > 0.0 {
        for p in pi.iter_mut() {
            *p /= s;
        }
    }
}

/// Solves the embedded problem on a dense generator (testing hook).
#[allow(dead_code)]
fn dense_direct(q: &Dense) -> Result<Vec<f64>, SolveError> {
    // Replace last column with ones: π (Q | 1) = (0 | 1).
    let n = q.rows();
    let mut a = Dense::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            a[(j, i)] = q[(i, j)];
        }
    }
    for i in 0..n {
        a[(n - 1, i)] = 1.0;
    }
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    a.solve(&b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> Csr {
        let mut trips = Vec::new();
        for i in 0..n {
            trips.push((i, (i + 1) % n, 1.0 + i as f64));
        }
        Csr::from_triplets(n, n, &trips)
    }

    #[test]
    fn all_methods_agree_on_ring() {
        let r = ring(6);
        let opts_gth = SteadyStateOptions {
            method: SteadyStateMethod::Gth,
            ..Default::default()
        };
        let opts_gs = SteadyStateOptions {
            method: SteadyStateMethod::GaussSeidel,
            ..Default::default()
        };
        let a = steady_state(&r, &opts_gth).unwrap();
        let b = steady_state(&r, &opts_gs).unwrap();
        for i in 0..6 {
            assert!((a[i] - b[i]).abs() < 1e-9, "gth vs gs at {i}");
        }
    }

    #[test]
    fn ring_steady_state_is_inverse_rate_weighted() {
        // On a cycle, π_i ∝ 1/rate_i.
        let r = ring(4);
        let pi = steady_state(&r, &SteadyStateOptions::default()).unwrap();
        let weights: Vec<f64> = (0..4).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let total: f64 = weights.iter().sum();
        for i in 0..4 {
            assert!((pi[i] - weights[i] / total).abs() < 1e-12);
        }
    }

    #[test]
    fn transient_states_get_zero_probability() {
        // 0 -> 1 <-> 2; state 0 is transient.
        let r = Csr::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 1.0), (2, 1, 1.0)]);
        let pi = steady_state(&r, &SteadyStateOptions::default()).unwrap();
        assert_eq!(pi[0], 0.0);
        assert!((pi[1] - 0.5).abs() < 1e-12);
        assert!((pi[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn two_closed_classes_is_reducible() {
        let r = Csr::from_triplets(4, 4, &[(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0)]);
        assert_eq!(
            steady_state(&r, &SteadyStateOptions::default()),
            Err(SolveError::Reducible)
        );
    }

    #[test]
    fn absorbing_state_takes_all_mass() {
        let r = Csr::from_triplets(2, 2, &[(0, 1, 3.0)]);
        let pi = steady_state(&r, &SteadyStateOptions::default()).unwrap();
        assert_eq!(pi, vec![0.0, 1.0]);
    }

    #[test]
    fn single_state_chain() {
        let r = Csr::from_triplets(1, 1, &[]);
        let pi = steady_state(&r, &SteadyStateOptions::default()).unwrap();
        assert_eq!(pi, vec![1.0]);
    }

    #[test]
    fn gth_matches_dense_direct_solve() {
        // Random-ish irreducible 5-state chain with fixed rates.
        let trips = vec![
            (0, 1, 0.3),
            (0, 4, 0.7),
            (1, 2, 1.1),
            (2, 0, 0.2),
            (2, 3, 0.9),
            (3, 1, 2.0),
            (3, 4, 0.1),
            (4, 0, 0.5),
        ];
        let r = Csr::from_triplets(5, 5, &trips);
        let pi = steady_state(
            &r,
            &SteadyStateOptions {
                method: SteadyStateMethod::Gth,
                ..Default::default()
            },
        )
        .unwrap();
        // Build the dense generator and verify πQ = 0.
        let mut q = r.to_dense();
        for i in 0..5 {
            let s: f64 = r.row(i).iter().map(|e| e.value).sum();
            q[(i, i)] = -s;
        }
        let res = q.vecmat(&pi);
        for v in res {
            assert!(v.abs() < 1e-13, "residual {v}");
        }
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-13);
    }

    #[test]
    fn gauss_seidel_handles_stiff_rates() {
        // Rates spanning 8 orders of magnitude (like hardware vs patch).
        let trips = vec![
            (0, 1, 1e-5),
            (1, 0, 1.0),
            (1, 2, 0.5),
            (2, 0, 2.0),
            (0, 2, 3e-4),
        ];
        let r = Csr::from_triplets(3, 3, &trips);
        let gs = steady_state(
            &r,
            &SteadyStateOptions {
                method: SteadyStateMethod::GaussSeidel,
                tolerance: 1e-15,
                ..Default::default()
            },
        )
        .unwrap();
        let gth = steady_state(
            &r,
            &SteadyStateOptions {
                method: SteadyStateMethod::Gth,
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..3 {
            let rel = (gs[i] - gth[i]).abs() / gth[i].max(1e-300);
            assert!(rel < 1e-6, "state {i}: {} vs {}", gs[i], gth[i]);
        }
    }

    #[test]
    fn auto_dispatches_exactly_at_the_dense_threshold() {
        // The documented boundary: `Auto` solves with GTH while the
        // closed class has at most `dense_threshold` states and with
        // Gauss–Seidel strictly above it. Pin the dispatch bitwise on
        // 511/512/513-state chains against the explicit methods.
        let opts = |method| SteadyStateOptions {
            method,
            ..Default::default()
        };
        for n in [511usize, 512] {
            let auto = steady_state(&ring(n), &opts(SteadyStateMethod::Auto)).unwrap();
            let gth = steady_state(&ring(n), &opts(SteadyStateMethod::Gth)).unwrap();
            assert!(
                auto.iter()
                    .zip(&gth)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n}: Auto at or below the threshold must be GTH"
            );
        }
        let auto = steady_state(&ring(513), &opts(SteadyStateMethod::Auto)).unwrap();
        let gs = steady_state(&ring(513), &opts(SteadyStateMethod::GaussSeidel)).unwrap();
        assert!(
            auto.iter()
                .zip(&gs)
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "Auto above the threshold must be Gauss–Seidel"
        );
        // The identities above only pin the dispatch if the two methods
        // are bitwise distinguishable at this size — confirm they are.
        let gth = steady_state(&ring(513), &opts(SteadyStateMethod::Gth)).unwrap();
        assert!(
            auto.iter()
                .zip(&gth)
                .any(|(a, b)| a.to_bits() != b.to_bits()),
            "GTH and Gauss–Seidel coincide bitwise; the dispatch test is vacuous"
        );
        // A custom threshold moves the boundary with it.
        let tight = SteadyStateOptions {
            dense_threshold: 8,
            ..Default::default()
        };
        let auto = steady_state(&ring(9), &tight).unwrap();
        let gs = steady_state(
            &ring(9),
            &SteadyStateOptions {
                method: SteadyStateMethod::GaussSeidel,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(auto
            .iter()
            .zip(&gs)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn stats_surface_on_the_success_path() {
        let r = ring(6);
        let (pi, stats) = steady_state_with_stats(
            &r,
            &SteadyStateOptions {
                method: SteadyStateMethod::GaussSeidel,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(stats.method, SteadyStateMethod::GaussSeidel);
        assert_eq!(stats.states, 6);
        assert!(stats.iterations > 0, "iterative solves report sweeps");
        assert!(stats.residual >= 0.0 && stats.residual < 1e-12);
        // Identical to the stats-less entry point, bit for bit.
        let plain = steady_state(
            &r,
            &SteadyStateOptions {
                method: SteadyStateMethod::GaussSeidel,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(pi
            .iter()
            .zip(&plain)
            .all(|(a, b)| a.to_bits() == b.to_bits()));

        // GTH is direct: zero iterations, but the residual is still real.
        let (_, gth_stats) = steady_state_with_stats(
            &r,
            &SteadyStateOptions {
                method: SteadyStateMethod::Gth,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(gth_stats.iterations, 0);
        assert!(gth_stats.residual < 1e-12);

        // Trivial closed class short-circuits with empty stats.
        let absorbing = Csr::from_triplets(2, 2, &[(0, 1, 3.0)]);
        let (_, s1) = steady_state_with_stats(&absorbing, &SteadyStateOptions::default()).unwrap();
        assert_eq!((s1.states, s1.iterations), (1, 0));
        assert_eq!(s1.residual, 0.0);
    }

    #[test]
    fn stats_are_deterministic_across_repeat_solves() {
        let r = ring(40);
        let opts = SteadyStateOptions {
            method: SteadyStateMethod::GaussSeidel,
            ..Default::default()
        };
        let (_, a) = steady_state_with_stats(&r, &opts).unwrap();
        let (_, b) = steady_state_with_stats(&r, &opts).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn auto_threshold_picks_gs_for_large() {
        let n = 600;
        let r = ring(n);
        let pi = steady_state(&r, &SteadyStateOptions::default()).unwrap();
        let sum: f64 = pi.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }
}
