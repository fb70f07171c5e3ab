use std::error::Error;
use std::fmt;

/// Error returned by the Markov-chain solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The chain has no states.
    Empty,
    /// A transition references a state index outside `0..n`.
    StateOutOfRange {
        /// The offending index.
        index: usize,
        /// The number of states in the chain.
        n: usize,
    },
    /// A rate or probability was negative, NaN or infinite.
    InvalidRate {
        /// Source state of the offending transition.
        from: usize,
        /// Destination state of the offending transition.
        to: usize,
        /// The invalid value.
        value: f64,
    },
    /// An iterative solver failed to reach the tolerance within the
    /// iteration budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Residual at the final iteration.
        residual: f64,
    },
    /// The chain is reducible (several closed communicating classes), so a
    /// unique steady-state distribution does not exist.
    Reducible,
    /// A linear system arising in the analysis was singular.
    Singular,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Empty => write!(f, "chain has no states"),
            SolveError::StateOutOfRange { index, n } => {
                write!(
                    f,
                    "state index {index} out of range for chain with {n} states"
                )
            }
            SolveError::InvalidRate { from, to, value } => {
                write!(f, "invalid rate {value} on transition {from} -> {to}")
            }
            SolveError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations (residual {residual:.3e})"
            ),
            SolveError::Reducible => {
                write!(f, "chain is reducible; steady state is not unique")
            }
            SolveError::Singular => write!(f, "linear system is singular"),
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<SolveError>();
    }

    #[test]
    fn display_messages() {
        assert!(SolveError::Empty.to_string().contains("no states"));
        assert!(SolveError::Reducible.to_string().contains("reducible"));
        let e = SolveError::NoConvergence {
            iterations: 10,
            residual: 0.5,
        };
        assert!(e.to_string().contains("10"));
    }
}
