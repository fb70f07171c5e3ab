//! `redeval-server` — an embedded HTTP/1.1 evaluation server with a
//! content-addressed result cache.
//!
//! The declarative scenario API (DESIGN.md §8) made networks pure data;
//! this crate puts that data on the wire: a long-running service accepts
//! `redeval-scenario/1` documents over HTTP and answers with the same
//! byte-deterministic reports the `redeval` CLI produces, memoizing each
//! answer under the SHA-256 of its request's canonical form. See
//! DESIGN.md §9 for the endpoint table and the determinism / cache-keying
//! guarantees; the reports themselves reproduce the security/availability
//! evaluation of redundancy designs under security patching of Ge, Kim &
//! Kim (DSN 2017, `PAPER.md`).
//!
//! Everything is dependency-free on top of `std` + the `redeval` core —
//! the build environment has no crate network, so the HTTP parsing
//! ([`http`]), the SHA-256 ([`mod@sha256`]) and the LRU cache ([`cache`])
//! are hand-rolled and individually pinned by tests (FIPS 180-4 vectors,
//! bounded wire parsing, capacity-accounting suites).
//!
//! Every `POST` body goes through one request model (`request.rs`): one
//! envelope decoder, one decoder per shared knob, each request type's
//! canonical cache-key form, and the knob limits the `redeval` CLI flags
//! share ([`MAX_REDUNDANCY_RANGE`], [`MAX_ITERS_RANGE`],
//! [`MAX_GRID_AXIS`], [`MAX_SEED`]) — and one cached path in
//! [`Service`].
//!
//! The crate deliberately does **not** know how reports are built:
//! [`Endpoints`] injects the report producers, which
//! `redeval-bench` wires to its report registry and the shared
//! [`redeval::exec::Pool`]. That keeps the dependency arrow pointing one
//! way (`bench → server → core`) while the loopback tests prove the
//! served bytes equal the CLI's.
//!
//! # Examples
//!
//! A service over stub endpoints, driven without a socket:
//!
//! ```
//! use redeval::output::Report;
//! use redeval_server::{Endpoints, Request, Service};
//!
//! let endpoints = Endpoints {
//!     eval: Box::new(|doc| Ok(Report::new(format!("eval_{}", doc.name), "demo"))),
//!     sweep: Box::new(|req| Ok(Report::new(format!("sweep_{}", req.doc.name), "demo"))),
//!     optimize: Box::new(|req| Ok(Report::new(format!("optimize_{}", req.doc.name), "demo"))),
//!     equilibrium: Box::new(|req| {
//!         Ok(Report::new(format!("equilibrium_{}", req.doc.name), "demo"))
//!     }),
//!     scenarios: Box::new(|| Report::new("scenario_list", "demo")),
//!     reports: Box::new(|| Report::new("list", "demo")),
//! };
//! let service = Service::new(endpoints, 1 << 20); // a 1 MiB result cache
//! let health = service.handle(&Request::synthetic("GET", "/healthz", b""));
//! assert_eq!(health.status, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod disk;
pub mod http;
pub mod metrics;
pub mod prometheus;
mod request;
pub mod server;
pub mod service;
pub mod sha256;

pub use cache::{CacheStats, ResultCache, ENTRY_OVERHEAD};
pub use disk::{DiskCache, DiskStats};
pub use http::{read_request, HttpError, Limits, Request, Response};
pub use metrics::{EndpointSnapshot, Histogram, ServiceMetrics};
pub use prometheus::validate_exposition;
pub use request::{
    EquilibriumRequest, OptimizeRequest, SweepRequest, MAX_GRID_AXIS, MAX_ITERS_RANGE,
    MAX_REDUNDANCY_RANGE, MAX_SEED,
};
pub use server::{Server, ServerHandle};
pub use service::{
    error_response, eval_error_response, http_error_response, Endpoints, EquilibriumEndpoint,
    EvalEndpoint, ListingEndpoint, OptimizeEndpoint, Service, SweepEndpoint, CACHE_HEADER,
    SERVE_SCHEMA,
};
pub use sha256::{hex, sha256, Digest};
