//! Availability models for servers under security patching.
//!
//! This crate builds the paper's hierarchical availability model:
//!
//! * [`ServerModel`] — the lower-layer SRN of one server (hardware, OS,
//!   service and patch-clock sub-models of the paper's Figure 5, with all
//!   guard functions of Table III), solved exactly through the
//!   [`redeval_srn`] engine;
//! * [`ServerAnalysis`] — steady-state quantities of one server and the
//!   aggregation of the whole patch cycle into a two-state abstraction
//!   (patch rate λ_eq = τ_p and recovery rate µ_eq = β_svc·p_prrb/p_pd,
//!   the paper's Equations (1) and (2));
//! * [`NetworkModel`] — the upper-layer model (Figure 4): one
//!   machine-repair birth–death process per redundant tier, evaluated in
//!   product form *and* as a composed SRN, with the capacity-oriented
//!   availability (COA) reward of Table VI;
//! * [`mmc`] — M/M/c queueing formulas for the paper's user-oriented
//!   performance extension (Section V).
//!
//! # Examples
//!
//! ```
//! use redeval_avail::{Durations, ServerParams};
//!
//! # fn main() -> Result<(), redeval_srn::SrnError> {
//! // The paper's DNS server (Table IV).
//! let params = ServerParams::builder("dns")
//!     .hardware(Durations::hours(87_600.0), Durations::hours(1.0))
//!     .os_failure(Durations::hours(1440.0), Durations::hours(1.0))
//!     .os_patch(Durations::minutes(20.0), Durations::minutes(10.0))
//!     .os_reboot_after_failure(Durations::minutes(10.0))
//!     .service_failure(Durations::hours(336.0), Durations::minutes(30.0))
//!     .service_patch(Durations::minutes(5.0), Durations::minutes(5.0))
//!     .service_reboot_after_failure(Durations::minutes(5.0))
//!     .patch_interval(Durations::hours(720.0))
//!     .build();
//! let analysis = params.analyze()?;
//! // Table V: µ_eq ≈ 1.49992/h for the DNS server.
//! assert!((analysis.rates().mu_eq - 1.5).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod composite;
pub mod mmc;
mod network;
mod params;
mod server;

pub use aggregate::{AggregatedRates, ServerAnalysis};
pub use composite::CompositeNetwork;
pub use network::{tier_moments, NetworkMeasures, NetworkModel, Tier};
pub use params::{Durations, ServerParams, ServerParamsBuilder};
pub use server::{PatchScenario, ServerModel, ServerPlaces};

#[cfg(test)]
mod send_sync_audit {
    //! The batch execution layer caches `ServerAnalysis` values behind
    //! `Arc` and solves tiers on worker threads; every public type must
    //! stay `Send + Sync`.
    use super::*;

    #[test]
    fn availability_types_are_send_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<ServerParams>();
        ok::<ServerModel>();
        ok::<ServerAnalysis>();
        ok::<AggregatedRates>();
        ok::<NetworkModel>();
        ok::<Tier>();
        ok::<CompositeNetwork>();
    }
}
