//! `redeval-suite` — facade over the `redeval` workspace.
//!
//! This crate re-exports every member crate under one roof and hosts the
//! runnable `examples/` and the cross-crate integration `tests/` of the
//! repository. Depend on the individual crates
//! (`redeval`, [`redeval_harm`], [`redeval_avail`],
//! [`redeval_srn`], [`redeval_markov`], [`redeval_cvss`], [`redeval_sim`])
//! for finer-grained builds. The serving layer ([`redeval_server`]) is
//! re-exported too; its CLI front door is `redeval serve` in
//! `redeval-bench`.
//!
//! # Examples
//!
//! ```
//! use redeval_suite::prelude::*;
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let design = Design::new("case study", vec![1, 2, 2, 1]);
//! let policy = PatchPolicy::CriticalOnly(8.0);
//! let e = Scenario::new("case study", case_study::network(), design, policy)
//!     .evaluate(&AnalysisCache::new())?;
//! assert!((e.coa - 0.99707).abs() < 5e-5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use redeval;
pub use redeval_avail;
pub use redeval_cvss;
pub use redeval_harm;
pub use redeval_markov;
pub use redeval_server;
pub use redeval_sim;
pub use redeval_srn;

/// Commonly used items, re-exported flat.
pub mod prelude {
    pub use redeval::case_study;
    pub use redeval::charts;
    pub use redeval::cost::CostModel;
    pub use redeval::decision::{MultiBounds, ScatterBounds};
    pub use redeval::exec::{self, AnalysisCache, Pool, Scenario, Sweep};
    pub use redeval::{
        AspStrategy, AttackGraph, AttackTree, Design, DesignEvaluation, Durations, EvalError, Harm,
        MetricsConfig, NetworkModel, NetworkSpec, OrCombine, PatchPolicy, SecurityMetrics,
        ServerParams, Tier, TierSpec, Vulnerability,
    };
    pub use redeval_avail::{AggregatedRates, ServerAnalysis, ServerModel};
    pub use redeval_markov::{BirthDeath, Ctmc};
    pub use redeval_sim::{estimate_asp, simulate_coa, Simulation};
    pub use redeval_srn::{Srn, SrnError};
}
