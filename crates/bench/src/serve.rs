//! Wiring for `redeval serve`: the report registry and batch engine
//! plugged into `redeval-server`'s endpoint slots.
//!
//! The server crate owns the wire (HTTP parsing, the result cache, the
//! routing contract); this module owns *what the endpoints mean*:
//!
//! * `POST /v1/eval` → [`reports::scenario::eval_report_on`] — the same
//!   builder behind `redeval eval --scenario FILE`, so a served response
//!   is byte-identical to the CLI's `--format json` output;
//! * `POST /v1/sweep` → [`reports::scenario::sweep_report_on`];
//! * `POST /v1/optimize` → [`reports::optimize::optimize_report_on`] —
//!   the pruned branch-and-bound search behind `redeval optimize`;
//! * `POST /v1/equilibrium` →
//!   [`reports::equilibrium::equilibrium_report_on`] — the Gauss-Seidel
//!   best-response iteration behind `redeval equilibrium`;
//! * `GET /v1/scenarios` → [`cli::scenario_list_report`];
//! * `GET /v1/reports` → [`cli::list_report`].
//!
//! `POST /v1/generate` needs no wiring here: the seeded generators are
//! pure core code, so the server crate runs them directly and returns
//! the same canonical bytes as `redeval gen`.
//!
//! Both evaluation endpoints share one [`Pool`] (spawned once, reused
//! for every request) and one [`AnalysisCache`] (tier solves survive
//! across requests), so a warm server only pays for what a request
//! actually changes.

use std::path::Path;
use std::sync::Arc;

use redeval::exec::{AnalysisCache, Pool};
use redeval_server::{DiskCache, Endpoints, Service};

use crate::{cli, reports};

/// Default listen address of `redeval serve`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7878";

/// Default result-cache budget (64 MiB of serialized responses).
pub const DEFAULT_CACHE_CAP: usize = 64 * 1024 * 1024;

/// Default byte budget of the persistent tier under `--cache-dir`
/// (256 MiB of entry files).
pub const DEFAULT_DISK_CAP: u64 = 256 * 1024 * 1024;

/// Builds the fully wired service: `threads` pool workers for the
/// evaluation grids and a result cache capped at `cache_capacity`
/// bytes (memory tier only; see [`service_with_disk`]).
pub fn service(threads: usize, cache_capacity: usize) -> Service {
    wired_service(threads, cache_capacity)
}

/// [`service`] plus a persistent cache tier under `cache_dir` (created
/// if needed, budgeted at `disk_capacity` bytes): a server restarted
/// over the same directory answers its first repeated request from
/// disk.
///
/// # Errors
///
/// Propagates the cache-directory open failure.
pub fn service_with_disk(
    threads: usize,
    cache_capacity: usize,
    cache_dir: &Path,
    disk_capacity: u64,
) -> std::io::Result<Service> {
    let disk = DiskCache::open(cache_dir, disk_capacity)?;
    Ok(wired_service(threads, cache_capacity).with_disk(disk))
}

fn wired_service(threads: usize, cache_capacity: usize) -> Service {
    // One counters-mode telemetry handle for the whole server lifetime:
    // the cache mirrors its hits/solves/relabels and every solver's
    // convergence stats into it, and the same handle backs the `core`
    // section of `GET /v1/stats` and the `redeval_core_*` series of
    // `GET /metrics`. Counters only — spans would cost wall-clock
    // bookkeeping on every request for a signal nobody scrapes.
    let telemetry = redeval::Telemetry::counters();
    let pool = Arc::new(Pool::new(threads));
    let cache = Arc::new(AnalysisCache::with_telemetry(telemetry.clone()));
    let (eval_pool, eval_cache) = (Arc::clone(&pool), Arc::clone(&cache));
    let (opt_pool, opt_cache) = (Arc::clone(&pool), Arc::clone(&cache));
    let (eq_pool, eq_cache) = (Arc::clone(&pool), Arc::clone(&cache));
    let endpoints = Endpoints {
        eval: Box::new(move |doc| reports::scenario::eval_report_on(doc, &eval_pool, &eval_cache)),
        sweep: Box::new(move |req| reports::scenario::sweep_report_on(req, &pool, &cache)),
        optimize: Box::new(move |req| {
            reports::optimize::optimize_report_on(req, &opt_pool, &opt_cache)
        }),
        equilibrium: Box::new(move |req| {
            reports::equilibrium::equilibrium_report_on(req, &eq_pool, &eq_cache)
        }),
        scenarios: Box::new(cli::scenario_list_report),
        reports: Box::new(cli::list_report),
    };
    Service::new(endpoints, cache_capacity).with_telemetry(telemetry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval::scenario::builtin;
    use redeval_server::{Request, CACHE_HEADER};

    #[test]
    fn wired_service_serves_the_cli_bytes_and_caches() {
        let svc = service(2, 1 << 20);
        let doc = builtin::paper_case_study();
        let body = doc.to_json();
        let first = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert_eq!(first.status, 200);
        // The serving path and the CLI path are the same builder.
        let cli_bytes = reports::scenario::eval_report(&doc).unwrap().to_json();
        assert_eq!(String::from_utf8(first.body.clone()).unwrap(), cli_bytes);
        // Second request: cache hit, identical bytes.
        let second = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert!(second.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, second.body);
    }

    #[test]
    fn wired_service_generates_the_cli_bytes() {
        use redeval::scenario::generate::{self, Family, GenParams};
        let svc = service(1, 1 << 20);
        let req_body =
            b"{\"family\": \"microservice_mesh\", \"seed\": 3, \"tiers\": 9, \"redundancy\": 2}";
        let resp = svc.handle(&Request::synthetic("POST", "/v1/generate", req_body));
        assert_eq!(resp.status, 200);
        let expected = generate::generate(
            Family::MicroserviceMesh,
            &GenParams {
                tiers: 9,
                redundancy: 2,
                ..GenParams::default()
            },
            3,
        )
        .to_json();
        assert_eq!(String::from_utf8(resp.body).unwrap(), expected);
    }

    #[test]
    fn wired_listings_expose_the_registries() {
        let svc = service(1, 1 << 20);
        let scenarios = svc.handle(&Request::synthetic("GET", "/v1/scenarios", b""));
        let text = String::from_utf8(scenarios.body).unwrap();
        assert!(text.contains("paper_case_study") && text.contains("ecommerce"));
        let reports_resp = svc.handle(&Request::synthetic("GET", "/v1/reports", b""));
        let text = String::from_utf8(reports_resp.body).unwrap();
        assert!(text.contains("table2") && text.contains("scenario_suite"));
    }
}
