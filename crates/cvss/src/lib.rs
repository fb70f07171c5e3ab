//! CVSS (Common Vulnerability Scoring System) vector parsing and scoring.
//!
//! This crate implements the CVSS **v2.0** base-metric equations, the
//! scoring system used by the DSN 2017 paper this workspace reproduces. It
//! has no dependencies and performs no I/O.
//!
//! The paper derives two per-vulnerability quantities from CVSS v2:
//!
//! * **attack impact** = the v2 *impact subscore* (0.0–10.0), and
//! * **attack success probability** = the v2 *exploitability subscore*
//!   divided by 10 (0.0–1.0),
//!
//! and classifies a vulnerability as *critical* when its base score exceeds
//! 8.0 — these are exactly the AIM/ASP columns of the paper's Table I and
//! the criterion selecting the Table II patch round. Those helpers live on
//! [`v2::BaseVector`]
//! ([`attack_impact`](v2::BaseVector::attack_impact),
//! [`attack_success_probability`](v2::BaseVector::attack_success_probability),
//! [`is_critical`](v2::BaseVector::is_critical)).
//!
//! # Examples
//!
//! ```
//! use redeval_cvss::v2::BaseVector;
//!
//! # fn main() -> Result<(), redeval_cvss::ParseVectorError> {
//! // CVE-2016-6662-style: network, low complexity, no auth, complete C/I/A.
//! let v: BaseVector = "AV:N/AC:L/Au:N/C:C/I:C/A:C".parse()?;
//! assert_eq!(v.base_score(), 10.0);
//! assert_eq!(v.attack_impact(), 10.0);
//! assert_eq!(v.attack_success_probability(), 1.0);
//! assert!(v.is_critical(8.0));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod v2;

pub use error::ParseVectorError;
