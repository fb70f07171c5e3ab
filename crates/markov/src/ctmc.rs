//! Continuous-time Markov chains.

use crate::matrix::Csr;
use crate::steady::{self, SteadyStateOptions};
use crate::transient;
use crate::SolveError;

/// One rate transition of a [`Ctmc`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Source state.
    pub from: usize,
    /// Destination state.
    pub to: usize,
    /// Transition rate (per unit time), strictly positive.
    pub rate: f64,
}

/// A finite continuous-time Markov chain described by its transition rates.
///
/// States are dense indices `0..n`. Self-loops are ignored (they have no
/// effect on a CTMC); parallel transitions are summed.
///
/// # Examples
///
/// A component that fails at rate `λ` and is never repaired is still up
/// at time `t` with probability `e^{-λt}`:
///
/// ```
/// use redeval_markov::Ctmc;
///
/// # fn main() -> Result<(), redeval_markov::SolveError> {
/// let mut c = Ctmc::new(2);
/// c.add_transition(0, 1, 2.0);
/// let p = c.transient_from(&[1.0, 0.0], 0.5)?;
/// assert!((p[0] - (-1.0f64).exp()).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Ctmc {
    n: usize,
    transitions: Vec<Transition>,
}

impl Ctmc {
    /// Creates an empty chain with `n` states and no transitions.
    pub fn new(n: usize) -> Self {
        Ctmc {
            n,
            transitions: Vec::new(),
        }
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the chain has zero states.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The raw transitions added so far.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// Adds a rate transition `from -> to`.
    ///
    /// Zero-rate transitions and self-loops are accepted and ignored at
    /// solve time; validation of indices/rates happens in the solvers so
    /// that model-construction code can stay infallible.
    pub fn add_transition(&mut self, from: usize, to: usize, rate: f64) {
        self.transitions.push(Transition { from, to, rate });
    }

    /// Validates all transitions, returning the cleaned list (no self-loops,
    /// no zero rates).
    fn validated(&self) -> Result<Vec<Transition>, SolveError> {
        if self.n == 0 {
            return Err(SolveError::Empty);
        }
        let mut out = Vec::with_capacity(self.transitions.len());
        for t in &self.transitions {
            if t.from >= self.n {
                return Err(SolveError::StateOutOfRange {
                    index: t.from,
                    n: self.n,
                });
            }
            if t.to >= self.n {
                return Err(SolveError::StateOutOfRange {
                    index: t.to,
                    n: self.n,
                });
            }
            if !t.rate.is_finite() || t.rate < 0.0 {
                return Err(SolveError::InvalidRate {
                    from: t.from,
                    to: t.to,
                    value: t.rate,
                });
            }
            if t.rate > 0.0 && t.from != t.to {
                out.push(*t);
            }
        }
        Ok(out)
    }

    /// Builds the infinitesimal generator `Q` as a sparse matrix
    /// (off-diagonal rates plus the negative row-sum diagonal).
    ///
    /// # Errors
    ///
    /// Returns an error if any transition is invalid.
    pub fn generator(&self) -> Result<Csr, SolveError> {
        let ts = self.validated()?;
        let mut trips: Vec<(usize, usize, f64)> = Vec::with_capacity(ts.len() * 2);
        let mut diag = vec![0.0; self.n];
        for t in &ts {
            trips.push((t.from, t.to, t.rate));
            diag[t.from] -= t.rate;
        }
        for (i, d) in diag.iter().enumerate() {
            if *d != 0.0 {
                trips.push((i, i, *d));
            }
        }
        Ok(Csr::from_triplets(self.n, self.n, &trips))
    }

    /// The off-diagonal rate matrix `R` (no diagonal entries).
    pub(crate) fn rate_matrix(&self) -> Result<Csr, SolveError> {
        let ts = self.validated()?;
        let trips: Vec<(usize, usize, f64)> = ts.iter().map(|t| (t.from, t.to, t.rate)).collect();
        Ok(Csr::from_triplets(self.n, self.n, &trips))
    }

    /// The steady-state distribution `π` with `πQ = 0`, `Σπ = 1`, using
    /// automatically chosen solver options (GTH for small chains,
    /// Gauss–Seidel for large ones).
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Reducible`] when the chain does not have a
    /// single closed communicating class, and solver errors otherwise.
    pub fn steady_state(&self) -> Result<Vec<f64>, SolveError> {
        self.steady_state_with(&SteadyStateOptions::default())
    }

    /// The steady-state distribution with explicit solver options.
    ///
    /// # Errors
    ///
    /// See [`steady_state`](Self::steady_state).
    pub fn steady_state_with(&self, options: &SteadyStateOptions) -> Result<Vec<f64>, SolveError> {
        let rates = self.rate_matrix()?;
        steady::steady_state(&rates, options)
    }

    /// The steady-state distribution together with its convergence
    /// statistics ([`SolveStats`](crate::SolveStats)): the method that ran, iterations and
    /// the final residual — surfaced on the success path, not just
    /// inside [`SolveError::NoConvergence`].
    ///
    /// # Errors
    ///
    /// See [`steady_state`](Self::steady_state).
    pub fn steady_state_with_stats(
        &self,
        options: &SteadyStateOptions,
    ) -> Result<(Vec<f64>, crate::SolveStats), SolveError> {
        let rates = self.rate_matrix()?;
        steady::steady_state_with_stats(&rates, options)
    }

    /// Transient state probabilities `π(t)` from the initial distribution
    /// `initial` (one entry per state), computed by uniformization.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid transitions or a non-finite `t`.
    ///
    /// # Panics
    ///
    /// Panics when `initial.len()` differs from the number of states.
    pub fn transient_from(&self, initial: &[f64], t: f64) -> Result<Vec<f64>, SolveError> {
        let rates = self.rate_matrix()?;
        transient::transient(&rates, initial, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(lambda: f64, mu: f64) -> Ctmc {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, lambda);
        c.add_transition(1, 0, mu);
        c
    }

    #[test]
    fn two_state_availability() {
        let c = two_state(0.01, 1.0);
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - 1.0 / 1.01).abs() < 1e-12);
        assert!((pi[1] - 0.01 / 1.01).abs() < 1e-12);
    }

    #[test]
    fn generator_rows_sum_to_zero() {
        let c = two_state(0.3, 0.7);
        let q = c.generator().unwrap();
        for r in 0..2 {
            let s: f64 = q.row(r).iter().map(|e| e.value).sum();
            assert!(s.abs() < 1e-15);
        }
    }

    #[test]
    fn parallel_transitions_sum() {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, 0.5);
        c.add_transition(0, 1, 0.5);
        c.add_transition(1, 0, 2.0);
        let pi = c.steady_state().unwrap();
        assert!((pi[1] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn self_loops_ignored() {
        let mut c = two_state(1.0, 1.0);
        c.add_transition(0, 0, 99.0);
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_rate_rejected() {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 1, -1.0);
        assert!(matches!(
            c.steady_state(),
            Err(SolveError::InvalidRate { .. })
        ));
        let mut c2 = Ctmc::new(2);
        c2.add_transition(0, 1, f64::NAN);
        assert!(matches!(
            c2.steady_state(),
            Err(SolveError::InvalidRate { .. })
        ));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut c = Ctmc::new(2);
        c.add_transition(0, 5, 1.0);
        assert!(matches!(
            c.steady_state(),
            Err(SolveError::StateOutOfRange { index: 5, n: 2 })
        ));
    }

    #[test]
    fn empty_chain_rejected() {
        let c = Ctmc::new(0);
        assert_eq!(c.steady_state(), Err(SolveError::Empty));
    }

    #[test]
    fn reducible_chain_detected() {
        // Two disconnected 2-cycles.
        let mut c = Ctmc::new(4);
        c.add_transition(0, 1, 1.0);
        c.add_transition(1, 0, 1.0);
        c.add_transition(2, 3, 1.0);
        c.add_transition(3, 2, 1.0);
        assert_eq!(c.steady_state(), Err(SolveError::Reducible));
    }

    #[test]
    fn transient_converges_to_steady_state() {
        let c = two_state(0.5, 1.5);
        let pt = c.transient_from(&[1.0, 0.0], 50.0).unwrap();
        let pi = c.steady_state().unwrap();
        for (a, b) in pt.iter().zip(pi.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn transient_at_zero_is_initial() {
        let c = two_state(0.5, 1.5);
        let p = c.transient_from(&[0.0, 1.0], 0.0).unwrap();
        assert_eq!(p, vec![0.0, 1.0]);
    }

    #[test]
    fn transient_two_state_analytic() {
        // p_down(t) = λ/(λ+µ) (1 - exp(-(λ+µ)t)) starting from up.
        let (l, m) = (0.4, 1.1);
        let c = two_state(l, m);
        for &t in &[0.1, 0.5, 2.0] {
            let p = c.transient_from(&[1.0, 0.0], t).unwrap();
            let expect = l / (l + m) * (1.0 - (-(l + m) * t).exp());
            assert!((p[1] - expect).abs() < 1e-10, "t={t}");
        }
    }
}
