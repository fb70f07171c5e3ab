//! HARM — the two-layer Hierarchical Attack Representation Model.
//!
//! This crate implements the graphical security model of the reproduced
//! paper (Hong & Kim's HARM):
//!
//! * the **lower layer** is an [`AttackTree`] per host: AND/OR combinations
//!   of [`Vulnerability`] leaves carrying CVSS-derived *attack impact* and
//!   *attack success probability* values;
//! * the **upper layer** is an [`AttackGraph`]: network reachability between
//!   hosts, an external attacker, and one or more targets;
//! * [`Harm`] ties the two together and computes the paper's security
//!   metrics (attack impact `AIM`, attack success probability `ASP`, number
//!   of exploitable vulnerabilities `NoEV`, number of attack paths `NoAP`,
//!   number of entry points `NoEP`) plus several extension metrics.
//!
//! Patching is modelled by [`Harm::patched`], which removes vulnerabilities
//! matching a predicate and prunes the attack trees accordingly — a host
//! whose tree dies stops being exploitable and disappears from attack
//! paths, exactly as in the paper's before/after analysis.
//!
//! A network of identical replicas per tier has a second, faster route to
//! the same numbers: [`TierDag::metrics`] folds the host paths per tier
//! path with replica counts, bit for bit what [`Harm::metrics`] gives on
//! the expanded host graph, whenever the tier graph is acyclic.
//!
//! In the reproduction this crate realizes the paper's Figure 3 HARMs
//! (trees populated from Table I via `redeval_cvss`) and produces the five
//! security metrics of Table II that enter the Equation (3),(4) decision
//! functions.
//!
//! # Examples
//!
//! ```
//! use redeval_harm::{AttackGraph, AttackTree, Harm, MetricsConfig, Vulnerability};
//!
//! // One web server in front of a database.
//! let mut g = AttackGraph::new();
//! let web = g.add_host("web");
//! let db = g.add_host("db");
//! g.add_entry(web);
//! g.add_edge(web, db);
//!
//! let web_tree = AttackTree::leaf(Vulnerability::new("CVE-A", 10.0, 1.0));
//! let db_tree = AttackTree::leaf(Vulnerability::new("CVE-B", 10.0, 0.5));
//! let harm = Harm::new(g, vec![Some(web_tree), Some(db_tree)], vec![db]);
//!
//! let m = harm.metrics(&MetricsConfig::default());
//! assert_eq!(m.attack_paths, 1);
//! assert_eq!(m.attack_impact, 20.0);
//! assert!((m.attack_success_probability - 0.5).abs() < 1e-12);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;
mod graph;
mod harm;
mod metrics;
mod tier;
pub mod topology;
mod tree;
mod vuln;

pub use graph::{AttackGraph, HostId};
pub use harm::{AttackPath, Harm};
pub use metrics::{AspStrategy, MetricsConfig, OrCombine, SecurityMetrics};
pub use tier::{ReplicatedTier, TierDag};
pub use tree::AttackTree;
pub use vuln::Vulnerability;

#[cfg(test)]
mod send_sync_audit {
    //! The batch execution layer shares HARMs across its pool worker
    //! threads; every public type must stay `Send + Sync`.
    use super::*;

    #[test]
    fn harm_types_are_send_sync() {
        fn ok<T: Send + Sync>() {}
        ok::<Harm>();
        ok::<AttackGraph>();
        ok::<AttackTree>();
        ok::<AttackPath>();
        ok::<Vulnerability>();
        ok::<MetricsConfig>();
        ok::<SecurityMetrics>();
        ok::<TierDag>();
        ok::<ReplicatedTier<'static>>();
    }
}
