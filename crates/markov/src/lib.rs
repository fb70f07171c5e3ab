//! Continuous-time Markov chain solvers.
//!
//! This crate is the numerical substrate of the `redeval` workspace: it
//! plays the role that SHARPE/SPNP's internal solvers play for the paper
//! being reproduced. It provides:
//!
//! * [`Ctmc`] — a sparse continuous-time Markov chain with
//!   steady-state solvers (GTH elimination, Gauss–Seidel) and
//!   transient analysis by uniformization;
//! * [`BirthDeath`] — closed-form birth–death processes used for the
//!   upper-layer redundancy models;
//! * dense and sparse matrix helpers ([`matrix`]).
//!
//! In the reproduction, these solvers carry the paper's availability side:
//! the tangible CTMCs of the SRN sub-models (paper Figures 4/5, guard
//! functions of Table III) are solved here, the birth–death closed forms
//! evaluate the upper-layer redundancy tiers whose COA reward is Table VI,
//! and uniformization powers the transient patch-dip extension.
//!
//! Everything is `f64`, deterministic and allocation-conscious; no external
//! dependencies.
//!
//! # Examples
//!
//! A two-state failure/repair CTMC has availability `µ/(λ+µ)`:
//!
//! ```
//! use redeval_markov::Ctmc;
//!
//! # fn main() -> Result<(), redeval_markov::SolveError> {
//! let (lambda, mu) = (0.001, 0.5);
//! let mut ctmc = Ctmc::new(2);
//! ctmc.add_transition(0, 1, lambda); // up -> down
//! ctmc.add_transition(1, 0, mu); // down -> up
//! let pi = ctmc.steady_state()?;
//! let expected = mu / (lambda + mu);
//! assert!((pi[0] - expected).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod birth_death;
mod ctmc;
mod error;
pub mod matrix;
mod steady;
mod transient;

pub use birth_death::BirthDeath;
pub use ctmc::{Ctmc, Transition};
pub use error::SolveError;
pub use steady::{SolveStats, SteadyStateMethod, SteadyStateOptions};

#[cfg(test)]
mod send_sync_audit {
    //! The batch execution layer shares solver values across its pool
    //! worker threads; every public type must stay `Send + Sync`.
    use super::*;

    #[test]
    fn solver_types_are_send_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Ctmc>();
        ok::<BirthDeath>();
        ok::<Transition>();
        ok::<SolveError>();
        ok::<SteadyStateOptions>();
        ok::<SolveStats>();
    }
}
