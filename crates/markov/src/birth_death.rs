//! Closed-form birth–death processes.
//!
//! The upper-layer redundancy models of the reproduced paper are
//! birth–death chains (number of servers currently down due to patching),
//! so a closed-form solver is both a fast path and an independent check of
//! the general CTMC machinery.

use crate::{Ctmc, SolveError};

/// A birth–death CTMC on states `0..=n` with per-level rates.
///
/// `birth[k]` is the rate `k -> k+1` and `death[k]` the rate `k+1 -> k`.
///
/// # Examples
///
/// The M/M/1 queue with utilization ρ has geometric steady state:
///
/// ```
/// use redeval_markov::BirthDeath;
///
/// # fn main() -> Result<(), redeval_markov::SolveError> {
/// let n = 50;
/// let (lambda, mu) = (0.5, 1.0);
/// let bd = BirthDeath::new(vec![lambda; n], vec![mu; n]);
/// let pi = bd.steady_state()?;
/// assert!((pi[0] - 0.5).abs() < 1e-9); // 1 - ρ with tiny truncation error
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BirthDeath {
    birth: Vec<f64>,
    death: Vec<f64>,
}

impl BirthDeath {
    /// Creates a birth–death chain from per-level birth and death rates.
    ///
    /// `birth.len()` must equal `death.len()`; the chain then has
    /// `birth.len() + 1` states.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn new(birth: Vec<f64>, death: Vec<f64>) -> Self {
        assert_eq!(
            birth.len(),
            death.len(),
            "birth and death rate vectors must have equal length"
        );
        BirthDeath { birth, death }
    }

    /// The machine-repair style chain used for redundancy under patching:
    /// `n` servers, each going down independently at `lambda` (birth of a
    /// failure) and each down server recovering independently at `mu`.
    ///
    /// State `k` = number of down servers; birth rate `(n-k)·λ`, death rate
    /// `k·µ`.
    pub fn machine_repair(n: usize, lambda: f64, mu: f64) -> Self {
        let birth = (0..n).map(|k| (n - k) as f64 * lambda).collect();
        let death = (0..n).map(|k| (k + 1) as f64 * mu).collect();
        BirthDeath::new(birth, death)
    }

    /// Number of states (`levels + 1`).
    pub fn len(&self) -> usize {
        self.birth.len() + 1
    }

    /// Whether the chain has a single state.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Closed-form steady state via the detailed-balance product formula.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::InvalidRate`] for non-finite/negative rates,
    /// or [`SolveError::Reducible`] when a zero death rate makes lower
    /// states unreachable (no unique stationary distribution on `0..=n`).
    pub fn steady_state(&self) -> Result<Vec<f64>, SolveError> {
        let n = self.birth.len();
        for (k, (&b, &d)) in self.birth.iter().zip(&self.death).enumerate() {
            for v in [b, d] {
                if !v.is_finite() || v < 0.0 {
                    return Err(SolveError::InvalidRate {
                        from: k,
                        to: k + 1,
                        value: v,
                    });
                }
            }
        }
        // Product form: π_k = π_0 Π_{j<k} birth_j / death_j.
        let mut weights = vec![1.0f64; n + 1];
        for k in 0..n {
            if self.birth[k] == 0.0 {
                // Levels above k are unreachable; they get weight 0.
                for w in weights.iter_mut().skip(k + 1) {
                    *w = 0.0;
                }
                break;
            }
            if self.death[k] == 0.0 {
                return Err(SolveError::Reducible);
            }
            weights[k + 1] = weights[k] * self.birth[k] / self.death[k];
        }
        let total: f64 = weights.iter().sum();
        Ok(weights.into_iter().map(|w| w / total).collect())
    }

    /// Converts to a general [`Ctmc`] (for cross-checks and transient
    /// analysis).
    pub fn to_ctmc(&self) -> Ctmc {
        let n = self.birth.len();
        let mut c = Ctmc::new(n + 1);
        for k in 0..n {
            c.add_transition(k, k + 1, self.birth[k]);
            c.add_transition(k + 1, k, self.death[k]);
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_level_matches_two_state() {
        let bd = BirthDeath::new(vec![0.2], vec![0.8]);
        let pi = bd.steady_state().unwrap();
        assert!((pi[0] - 0.8).abs() < 1e-12);
        assert!((pi[1] - 0.2).abs() < 1e-12);
    }

    #[test]
    fn matches_general_ctmc_solver() {
        let bd = BirthDeath::machine_repair(4, 0.3, 1.7);
        let closed = bd.steady_state().unwrap();
        let general = bd.to_ctmc().steady_state().unwrap();
        for (a, b) in closed.iter().zip(general.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn machine_repair_binomial_form() {
        // Independent servers: π_k = C(n,k) q^k (1-q)^{n-k}, q = λ/(λ+µ).
        let (n, l, m) = (3usize, 0.1, 0.9);
        let bd = BirthDeath::machine_repair(n, l, m);
        let pi = bd.steady_state().unwrap();
        let q = l / (l + m);
        let binom = |n: usize, k: usize| -> f64 {
            let mut v = 1.0;
            for i in 0..k {
                v *= (n - i) as f64 / (i + 1) as f64;
            }
            v
        };
        for (k, &p) in pi.iter().enumerate() {
            let expect = binom(n, k) * q.powi(k as i32) * (1.0 - q).powi((n - k) as i32);
            assert!((p - expect).abs() < 1e-12, "k={k}");
        }
    }

    #[test]
    fn zero_birth_truncates_upper_levels() {
        let bd = BirthDeath::new(vec![1.0, 0.0], vec![1.0, 1.0]);
        let pi = bd.steady_state().unwrap();
        assert_eq!(pi[2], 0.0);
        assert!((pi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_death_is_reducible() {
        let bd = BirthDeath::new(vec![1.0], vec![0.0]);
        assert_eq!(bd.steady_state(), Err(SolveError::Reducible));
    }

    #[test]
    fn invalid_rate_rejected() {
        let bd = BirthDeath::new(vec![-1.0], vec![1.0]);
        assert!(matches!(
            bd.steady_state(),
            Err(SolveError::InvalidRate { .. })
        ));
    }
}
