//! `redeval` — security and capacity-oriented-availability evaluation of
//! server-redundancy designs under security patching.
//!
//! This crate is the top of the workspace reproducing *“Evaluating Security
//! and Availability of Multiple Redundancy Designs when Applying Security
//! Patches”* (Ge, Kim & Kim, DSN 2017). It wires the substrates together
//! into the paper's three-phase approach:
//!
//! 1. **Inputs** ([`NetworkSpec`]/[`TierSpec`]): network topology,
//!    per-tier vulnerability trees (Table I), failure/recovery/patch rates
//!    (Table IV) and the patch policy;
//! 2. **Model construction**: a two-layer HARM per design
//!    ([`NetworkSpec::build_harm`]) and the hierarchical SRN availability
//!    model ([`NetworkSpec::tier_analyses`] solves each tier's lower-layer
//!    SRN and aggregates it via the paper's Equations (1),(2);
//!    [`NetworkSpec::network_model`] composes the upper layer);
//! 3. **Evaluation**: security metrics before/after patch, COA
//!    ([`DesignEvaluation`]), the decision functions of Equations (3),(4)
//!    ([`decision`]), and chart data for the paper's Figures 6 and 7
//!    ([`charts`]). Every design evaluation goes through the batch
//!    execution layer ([`exec`]): a [`Sweep`] over designs × patch
//!    policies × schedule parameters, one design under one policy being
//!    a one-point sweep.
//!    The execution context belongs to the caller: every batch — a sweep,
//!    the [`optimize`] search, the [`equilibrium`] iteration, the
//!    [`sensitivity`] analysis — runs on the caller's worker [`Pool`] and
//!    resolves the per-tier SRN solves through the caller's
//!    [`AnalysisCache`]. All tabular results flow through the
//!    deterministic structured-output model ([`output`]), whose canonical
//!    JSON is what the golden-corpus regression tests pin.
//!
//! The complete case study of the paper lives in [`case_study`].
//!
//! # Examples
//!
//! Evaluate the paper's five redundancy designs and pick the ones meeting
//! an administrator's bounds:
//!
//! ```
//! use std::sync::Arc;
//!
//! use redeval::case_study;
//! use redeval::decision::{DecisionFunction, ScatterBounds};
//! use redeval::{AnalysisCache, Pool, Sweep};
//!
//! # fn main() -> Result<(), redeval::EvalError> {
//! let (pool, cache) = (Pool::new(2), Arc::new(AnalysisCache::new()));
//! let evals = Sweep::new(case_study::network())
//!     .designs(case_study::five_designs())
//!     .run(&pool, &cache)?;
//!
//! // Region 1 of the paper: φ = 0.2, ψ = 0.9962.
//! let bounds = ScatterBounds { max_asp: 0.2, min_coa: 0.9962 };
//! let chosen: Vec<&str> = evals
//!     .iter()
//!     .filter(|e| bounds.satisfied(e))
//!     .map(|e| e.name.as_str())
//!     .collect();
//! assert_eq!(chosen, ["1 DNS + 1 WEB + 2 APP + 1 DB",
//!                     "1 DNS + 1 WEB + 1 APP + 2 DB"]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod case_study;
pub mod charts;
pub mod cost;
pub mod decision;
pub mod equilibrium;
mod error;
mod evaluation;
pub mod exec;
pub mod optimize;
pub mod output;
pub mod scenario;
pub mod sensitivity;
mod spec;
pub mod telemetry;

pub use equilibrium::{EquilibriumAnalyzer, EquilibriumOutcome};
pub use error::{EvalError, SpecIssue};
pub use evaluation::{DesignEvaluation, ParsePolicyError, PatchPolicy};
pub use exec::{AnalysisCache, Pool, Sweep};
pub use optimize::{OptimizeOutcome, Optimizer};
pub use scenario::{ScenarioDoc, ScenarioError};
pub use spec::{Design, NetworkSpec, TierSpec};
pub use telemetry::{Counter, CounterSnapshot, Telemetry};

// Re-export the substrate vocabulary users need at this level.
pub use redeval_avail::{AggregatedRates, Durations, NetworkModel, ServerParams, Tier};
pub use redeval_harm::{
    AspStrategy, AttackGraph, AttackTree, Harm, MetricsConfig, OrCombine, SecurityMetrics,
    Vulnerability,
};
