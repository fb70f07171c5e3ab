//! Steady-state measures over a solved net.

use crate::net::PlaceId;
use crate::reach::StateSpace;
use crate::{Marking, SrnError};

/// A state space together with its steady-state distribution; the object on
/// which SPNP-style *reward measures* are evaluated.
///
/// Obtained from [`Srn::solve`](crate::Srn::solve) or
/// [`StateSpace::solve`].
#[derive(Debug)]
pub struct SolvedSrn {
    space: StateSpace,
    pi: Vec<f64>,
    stats: redeval_markov::SolveStats,
}

impl SolvedSrn {
    pub(crate) fn new(space: StateSpace, pi: Vec<f64>, stats: redeval_markov::SolveStats) -> Self {
        SolvedSrn { space, pi, stats }
    }

    /// The underlying state space.
    pub fn state_space(&self) -> &StateSpace {
        &self.space
    }

    /// Convergence statistics of the steady-state solve that produced
    /// [`steady_state`](SolvedSrn::steady_state): method, iterations and
    /// final residual — deterministic for a given net.
    pub fn solve_stats(&self) -> redeval_markov::SolveStats {
        self.stats
    }

    /// Steady-state probabilities, indexed like
    /// [`StateSpace::tangible_markings`].
    pub fn steady_state(&self) -> &[f64] {
        &self.pi
    }

    /// Expected steady-state reward `Σ_m π(m)·reward(m)`.
    ///
    /// This is the SRN reward-function mechanism: the paper's
    /// capacity-oriented availability (Table VI) is exactly such a measure.
    pub fn expected<F>(&self, reward: F) -> f64
    where
        F: Fn(&Marking) -> f64,
    {
        self.space
            .tangible_markings()
            .iter()
            .zip(&self.pi)
            .map(|(m, p)| reward(m) * p)
            .sum()
    }

    /// Steady-state probability of a marking predicate.
    pub fn probability<F>(&self, pred: F) -> f64
    where
        F: Fn(&Marking) -> bool,
    {
        self.expected(|m| if pred(m) { 1.0 } else { 0.0 })
    }

    /// Expected number of tokens in `place`.
    pub fn mean_tokens(&self, place: PlaceId) -> f64 {
        self.expected(|m| m.tokens(place) as f64)
    }

    /// Transient probability distribution over the tangible markings at
    /// time `t`, starting from the net's initial marking (uniformization).
    ///
    /// Callers reduce it against the markings of
    /// [`state_space`](SolvedSrn::state_space); one solve serves every
    /// measure at that time point.
    ///
    /// # Errors
    ///
    /// Propagates CTMC transient-solver errors.
    pub fn transient_distribution(&self, t: f64) -> Result<Vec<f64>, SrnError> {
        let n = self.space.len();
        let mut p0 = vec![0.0; n];
        for &(i, p) in self.space.initial_distribution() {
            p0[i] = p;
        }
        Ok(self.space.ctmc().transient_from(&p0, t)?)
    }
}

impl crate::Srn {
    /// Generates the state space and solves for the steady state in one
    /// step (default options).
    ///
    /// # Errors
    ///
    /// Propagates reachability and solver errors.
    pub fn solve(&self) -> Result<SolvedSrn, SrnError> {
        self.state_space()?.solve()
    }
}

#[cfg(test)]
mod tests {
    use crate::Srn;

    /// Two independent repairable components sharing one net, with the
    /// place counting the components up.
    fn two_components() -> (Srn, crate::PlaceId) {
        let mut net = Srn::new("two");
        let up = net.add_place("up", 2);
        let down = net.add_place("down", 0);
        let fail = net.add_timed_fn("fail", move |m| 0.1 * m.as_slice()[0] as f64);
        net.add_move(fail, up, down).unwrap();
        let repair = net.add_timed_fn("repair", move |m| 1.0 * m.as_slice()[1] as f64);
        net.add_move(repair, down, up).unwrap();
        (net, up)
    }

    #[test]
    fn mean_tokens_matches_expectation() {
        let (net, up) = two_components();
        let s = net.solve().unwrap();
        let q = 0.1 / 1.1; // per-component down probability
        assert!((s.mean_tokens(up) - 2.0 * (1.0 - q)).abs() < 1e-12);
    }

    #[test]
    fn steady_state_sums_to_one() {
        let (net, _) = two_components();
        let s = net.solve().unwrap();
        let sum: f64 = s.steady_state().iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_stats_cover_the_tangible_space() {
        let (net, _) = two_components();
        let s = net.solve().unwrap();
        let stats = s.solve_stats();
        assert_eq!(stats.states, s.state_space().len());
        assert!(stats.residual.is_finite() && stats.residual >= 0.0);
        // Solving the same net again reports identical stats.
        let again = net.solve().unwrap().solve_stats();
        assert_eq!(stats, again);
    }

    /// `Σ reward(m)·π_t(m)` over the tangible markings at time `t`.
    fn transient_reward(
        s: &crate::SolvedSrn,
        t: f64,
        reward: impl Fn(&crate::Marking) -> f64,
    ) -> f64 {
        let dist = s.transient_distribution(t).unwrap();
        s.state_space()
            .tangible_markings()
            .iter()
            .zip(&dist)
            .map(|(m, p)| reward(m) * p)
            .sum()
    }

    #[test]
    fn transient_probability_approaches_steady() {
        let (net, up) = two_components();
        let s = net.solve().unwrap();
        let all_up = |m: &crate::Marking| if m.tokens(up) == 2 { 1.0 } else { 0.0 };
        let at_steady = s.probability(|m| m.tokens(up) == 2);
        let transient = transient_reward(&s, 200.0, all_up);
        assert!((at_steady - transient).abs() < 1e-8);
        let at_zero = transient_reward(&s, 0.0, all_up);
        assert!((at_zero - 1.0).abs() < 1e-12);
    }

    #[test]
    fn transient_distribution_is_a_distribution_and_drives_expected() {
        let (net, up) = two_components();
        let s = net.solve().unwrap();
        for t in [0.0, 1.0, 50.0] {
            let dist = s.transient_distribution(t).unwrap();
            assert_eq!(dist.len(), s.state_space().len());
            let sum: f64 = dist.iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "t={t}: sums to {sum}");
        }
        // At large t the transient expectation reaches the steady reward.
        let steady = s.mean_tokens(up);
        let late = transient_reward(&s, 500.0, |m| m.tokens(up) as f64);
        assert!((steady - late).abs() < 1e-8);
    }
}
