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
//! Every evaluation runs on an execution context the caller owns: a
//! worker [`Pool`](prelude::Pool) and an
//! [`AnalysisCache`](prelude::AnalysisCache) of the per-tier SRN solves.
//! Build one of each per run and pass them to every batch.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//!
//! use redeval_suite::prelude::*;
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let (pool, cache) = (Pool::new(2), Arc::new(AnalysisCache::new()));
//! // One design under one policy is a one-point sweep.
//! let evals = Sweep::new(case_study::network())
//!     .designs(vec![Design::new("case study", vec![1, 2, 2, 1])])
//!     .policies(vec![PatchPolicy::CriticalOnly(8.0)])
//!     .run(&pool, &cache)?;
//! assert_eq!(evals[0].name, "case study");
//! assert!((evals[0].coa - 0.99707).abs() < 5e-5);
//! // A sweep on the same cache re-solves none of the four tiers.
//! let evals = Sweep::new(case_study::network())
//!     .designs(case_study::five_designs())
//!     .run(&pool, &cache)?;
//! assert_eq!((evals.len(), cache.solves()), (5, 4));
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
    pub use redeval::exec::{self, AnalysisCache, Pool, Sweep};
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
