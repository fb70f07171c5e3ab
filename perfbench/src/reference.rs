//! Reference SHA-256 digests of the reports the benchmark checks.
//!
//! Recorded from release builds of the workspace at the commit that
//! introduced the benchmark; the reports are byte-deterministic at any
//! thread count and do not depend on the workload seed, so a digest that
//! changes means the program's answer changed.

/// `sweep_paper`: the report of the 8⁴-design × two-policy sweep of the
/// paper case study.
pub const SWEEP_PAPER: &str = "4937d0a57379ce8be39c291b3f1913208b9d0fe1330e80a6d8a5cce007fa8a90";

/// The traced `sweep_paper` run's optimize layer: the report of the
/// pruned optimize search over the same design space and policies.
pub const OPTIMIZE_PAPER: &str = "40919d58cb8c17b2573cd7db5ecf7051ec067283f3014511ba09bc0dfa1ab3bc";
