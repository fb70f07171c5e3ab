//! The repository benchmark, as a library: seeded workload inputs, the
//! metric registry, the per-layer replay and the workload runners. The
//! `perfbench` binary (`src/main.rs`) parses the command line and prints
//! what [`workloads::run`] returns; the tests in `tests/` drive the same
//! items.
//!
//! Everything here calls the workspace crates through their public
//! items only — the report builders of `redeval-bench`, the service and
//! server of `redeval-server`, and the layer functions of `redeval` — so
//! the benchmark measures the program as its users call it. See
//! `README.md` next to this crate for the workloads and the metric map.

pub mod client;
pub mod inputs;
pub mod metrics;
pub mod reference;
pub mod replay;
pub mod stats;
pub mod workloads;
