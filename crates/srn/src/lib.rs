//! A stochastic reward net (SRN) engine.
//!
//! This crate is the workspace's substitute for **SPNP** (the Stochastic
//! Petri Net Package the reproduced paper uses): it lets you describe a
//! stochastic reward net — places, timed transitions with (possibly
//! marking-dependent) exponential rates, immediate transitions with weights
//! and priorities, input/output/inhibitor arcs and guard functions — and
//! then
//!
//! 1. generates the reachability graph,
//! 2. eliminates *vanishing* markings (those enabling an immediate
//!    transition),
//! 3. exports the underlying CTMC, and
//! 4. evaluates steady-state / transient reward measures.
//!
//! The paper's server sub-models (Figure 5, with the guard functions of
//! Table III and the parameters of Table IV) are expressed in this engine;
//! their solutions feed the Equation (1),(2) aggregation in
//! `redeval_avail`.
//!
//! # Examples
//!
//! A repairable component as a two-place net:
//!
//! ```
//! use redeval_srn::Srn;
//!
//! # fn main() -> Result<(), redeval_srn::SrnError> {
//! let mut net = Srn::new("component");
//! let up = net.add_place("Pup", 1);
//! let down = net.add_place("Pdown", 0);
//! let fail = net.add_timed("Tfail", 0.001);
//! let repair = net.add_timed("Trepair", 0.5);
//! net.add_input(fail, up, 1)?;
//! net.add_output(fail, down, 1)?;
//! net.add_input(repair, down, 1)?;
//! net.add_output(repair, up, 1)?;
//!
//! let solved = net.solve()?;
//! let avail = solved.probability(|m| m.tokens(up) == 1);
//! assert!((avail - 0.5 / 0.501).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod error;
mod invariants;
mod marking;
mod net;
mod reach;
mod solved;

pub use error::SrnError;
pub use marking::Marking;
pub use net::{PlaceId, Srn, TransId, TransitionKind};
pub use reach::{ReachOptions, StateSpace};
pub use solved::SolvedSrn;

#[cfg(test)]
mod send_sync_audit {
    //! The batch execution layer shares solver values across its pool
    //! worker threads; every public type must stay `Send + Sync`.
    use super::*;

    #[test]
    fn solver_types_are_send_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Srn>();
        ok::<Marking>();
        ok::<StateSpace>();
        ok::<SolvedSrn>();
        ok::<SrnError>();
    }
}
