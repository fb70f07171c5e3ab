//! The evaluation service: routing, the result cache and structured
//! error bodies — everything between a parsed [`Request`] and a
//! [`Response`], independent of any socket.
//!
//! The service does not know how reports are built: the report
//! producers are **injected** as [`Endpoints`] closures (the `redeval`
//! CLI wires them to its report registry and batch engine). What the
//! service owns is the serving contract:
//!
//! * bodies are decoded by the request model (`request.rs`) — the
//!   same dotted-path validation the CLI uses — and every rejection is a
//!   structured `Report` body with `ok: false`, never an echo of raw
//!   request bytes;
//! * every `POST` endpoint (`/v1/eval`, `/v1/sweep`, `/v1/optimize`,
//!   `/v1/equilibrium`, `/v1/generate`) takes one cached path: decode,
//!   SHA-256 key, memory then disk lookup, compute, remember. The key
//!   hashes [`cache_key_bytes`](redeval::output::cache_key_bytes) over
//!   the request kind, the canonicalized parameters and the
//!   **canonical** serialization of the scenario document, so two
//!   textually different bodies naming the same request share one
//!   entry, and a hit is byte-identical to a recompute by construction;
//! * `POST /v1/generate` runs the seeded scenario generators in-process
//!   (no injection needed — generation is pure core code) and returns
//!   the canonical document bytes;
//! * `GET /v1/stats` exposes the cache and request counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use redeval::output::{Report, Value};
use redeval::scenario::generate;
use redeval::scenario::ScenarioDoc;
use redeval::{EvalError, ScenarioError};

use crate::cache::{CacheStats, ResultCache};
use crate::disk::{DiskCache, DiskStats};
use crate::http::{HttpError, Request, Response};
use crate::metrics::ServiceMetrics;
use crate::prometheus;
use crate::request::{
    EquilibriumRequest, GenerateRequest, OptimizeRequest, PostRequest, SweepRequest,
};
use crate::sha256::sha256;

/// Identifies the serving schema (bumped on breaking endpoint changes).
pub const SERVE_SCHEMA: &str = "redeval-serve/1";

/// The response header reporting cache disposition: `hit` (memory
/// tier), `disk` (persistent tier, promoted into memory) or `miss`
/// (recomputed).
pub const CACHE_HEADER: &str = "X-Redeval-Cache";

/// A boxed `POST /v1/eval` report producer.
pub type EvalEndpoint = Box<dyn Fn(&ScenarioDoc) -> Result<Report, EvalError> + Send + Sync>;

/// A boxed `POST /v1/sweep` report producer.
pub type SweepEndpoint = Box<dyn Fn(&SweepRequest) -> Result<Report, EvalError> + Send + Sync>;

/// A boxed `POST /v1/optimize` report producer.
pub type OptimizeEndpoint =
    Box<dyn Fn(&OptimizeRequest) -> Result<Report, EvalError> + Send + Sync>;

/// A boxed `POST /v1/equilibrium` report producer.
pub type EquilibriumEndpoint =
    Box<dyn Fn(&EquilibriumRequest) -> Result<Report, EvalError> + Send + Sync>;

/// A boxed parameterless listing producer (`GET` registries).
pub type ListingEndpoint = Box<dyn Fn() -> Report + Send + Sync>;

/// The injected report producers (see the [module docs](self)).
pub struct Endpoints {
    /// Builds the `POST /v1/eval` report for a validated document.
    pub eval: EvalEndpoint,
    /// Builds the `POST /v1/sweep` report.
    pub sweep: SweepEndpoint,
    /// Builds the `POST /v1/optimize` report (pruned design-space
    /// search).
    pub optimize: OptimizeEndpoint,
    /// Builds the `POST /v1/equilibrium` report (attacker–defender
    /// best-response iteration).
    pub equilibrium: EquilibriumEndpoint,
    /// The `GET /v1/scenarios` listing (the bundled scenario registry).
    pub scenarios: ListingEndpoint,
    /// The `GET /v1/reports` listing (the report registry).
    pub reports: ListingEndpoint,
}

impl std::fmt::Debug for Endpoints {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoints").finish_non_exhaustive()
    }
}

/// The routing core: dispatches parsed requests, memoizes results,
/// counts traffic. Socket-free — the loopback server and in-process
/// tests drive the same `handle`.
#[derive(Debug)]
pub struct Service {
    endpoints: Endpoints,
    cache: ResultCache,
    disk: Option<DiskCache>,
    metrics: ServiceMetrics,
    telemetry: redeval::Telemetry,
    requests: AtomicU64,
    started: Instant,
}

impl Service {
    /// A service over the given endpoints with a memory cache tier of
    /// `cache_capacity` bytes (see [`with_disk`](Self::with_disk) for
    /// the persistent tier).
    pub fn new(endpoints: Endpoints, cache_capacity: usize) -> Self {
        Service {
            endpoints,
            cache: ResultCache::new(cache_capacity),
            disk: None,
            metrics: ServiceMetrics::new(),
            telemetry: redeval::Telemetry::noop(),
            requests: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    /// Attaches a persistent cache tier: lookups read through memory to
    /// disk (promoting disk hits), stores write to both, and a restart
    /// that reopens the same directory answers repeated requests from
    /// disk.
    #[must_use]
    pub fn with_disk(mut self, disk: DiskCache) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Attaches the core telemetry handle whose counters `GET /metrics`
    /// and the `/v1/stats` core section report — the same handle the
    /// injected endpoints' evaluation pipeline increments (the CLI
    /// threads it through the shared analysis cache). Defaults to a
    /// no-op handle whose counters read zero.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: redeval::Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// A snapshot of the memory-tier cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// A snapshot of the disk-tier counters (all-zero when no disk tier
    /// is attached).
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.as_ref().map(DiskCache::stats).unwrap_or_default()
    }

    /// Requests handled so far (every endpoint, including `/v1/stats`).
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Routes one request, timing it into the per-endpoint metrics.
    /// Never panics on request content: every malformed body becomes a
    /// structured 4xx [`Report`].
    pub fn handle(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let (label, response) = self.route(req);
        self.metrics
            .record(label, response.status, started.elapsed());
        response
    }

    /// The dispatch table, returning the metrics label alongside the
    /// response (405s count against the endpoint they aimed at, 404s
    /// against `other`).
    fn route(&self, req: &Request) -> (&'static str, Response) {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => (
                "healthz",
                Response::json(
                    200,
                    format!("{{\"ok\": true, \"schema\": \"{SERVE_SCHEMA}\"}}\n"),
                ),
            ),
            ("GET", "/v1/scenarios") => (
                "scenarios",
                Response::json(200, (self.endpoints.scenarios)().to_json()),
            ),
            ("GET", "/v1/reports") => (
                "reports",
                Response::json(200, (self.endpoints.reports)().to_json()),
            ),
            ("GET", "/v1/stats") => ("stats", Response::json(200, self.stats_report().to_json())),
            ("GET", "/metrics") => ("metrics", self.metrics_response()),
            ("POST", "/v1/eval") => (
                "eval",
                self.post(&req.body, |doc: &ScenarioDoc| {
                    (self.endpoints.eval)(doc).map(|r| r.to_json())
                }),
            ),
            ("POST", "/v1/sweep") => (
                "sweep",
                self.post(&req.body, |r: &SweepRequest| {
                    (self.endpoints.sweep)(r).map(|r| r.to_json())
                }),
            ),
            ("POST", "/v1/optimize") => (
                "optimize",
                self.post(&req.body, |r: &OptimizeRequest| {
                    (self.endpoints.optimize)(r).map(|r| r.to_json())
                }),
            ),
            ("POST", "/v1/equilibrium") => (
                "equilibrium",
                self.post(&req.body, |r: &EquilibriumRequest| {
                    (self.endpoints.equilibrium)(r).map(|r| r.to_json())
                }),
            ),
            ("POST", "/v1/generate") => (
                "generate",
                self.post(&req.body, |r: &GenerateRequest| {
                    Ok(generate::generate(r.family, &r.params, r.seed).to_json())
                }),
            ),
            (_, "/v1/eval") => ("eval", method_not_allowed("POST")),
            (_, "/v1/sweep") => ("sweep", method_not_allowed("POST")),
            (_, "/v1/optimize") => ("optimize", method_not_allowed("POST")),
            (_, "/v1/equilibrium") => ("equilibrium", method_not_allowed("POST")),
            (_, "/v1/generate") => ("generate", method_not_allowed("POST")),
            (_, "/healthz") => ("healthz", method_not_allowed("GET")),
            (_, "/v1/scenarios") => ("scenarios", method_not_allowed("GET")),
            (_, "/v1/reports") => ("reports", method_not_allowed("GET")),
            (_, "/v1/stats") => ("stats", method_not_allowed("GET")),
            (_, "/metrics") => ("metrics", method_not_allowed("GET")),
            _ => (
                "other",
                error_response(
                    404,
                    "not_found",
                    vec![(
                        "message".into(),
                        Value::from(
                            "no such endpoint; see /healthz, /metrics, /v1/scenarios, \
                             /v1/reports, /v1/stats, /v1/eval, /v1/sweep, /v1/optimize, \
                             /v1/equilibrium, /v1/generate",
                        ),
                    )],
                ),
            ),
        }
    }

    /// The one cached `POST` path: decode → SHA-256 key → memory, then
    /// disk lookup (a disk hit is promoted into memory) → compute →
    /// remember in every tier. [`CACHE_HEADER`] reports which step
    /// answered; rejections and failed computations are never cached.
    fn post<R: PostRequest>(
        &self,
        body: &[u8],
        compute: impl FnOnce(&R) -> Result<String, EvalError>,
    ) -> Response {
        let req = match R::decode(body) {
            Ok(req) => req,
            Err(rejection) => return *rejection,
        };
        let key = sha256(&req.cache_key());
        if let Some(bytes) = self.cache.get(&key) {
            return Response::json(200, bytes.to_vec()).with_header(CACHE_HEADER, "hit");
        }
        if let Some(bytes) = self.disk.as_ref().and_then(|disk| disk.load(&key)) {
            self.cache.insert(key, &bytes);
            return Response::json(200, bytes).with_header(CACHE_HEADER, "disk");
        }
        let body = match compute(&req) {
            Ok(json) => json.into_bytes(),
            Err(e) => return eval_error_response(&e),
        };
        self.cache.insert(key, &body);
        if let Some(disk) = &self.disk {
            disk.store(&key, &body);
        }
        Response::json(200, body).with_header(CACHE_HEADER, "miss")
    }

    /// The `GET /metrics` response: Prometheus text exposition over the
    /// same counters `/v1/stats` reports (see [`crate::prometheus`]).
    fn metrics_response(&self) -> Response {
        let text = prometheus::render(&prometheus::Scrape {
            requests: self.requests.load(Ordering::Relaxed),
            uptime_seconds: self.started.elapsed().as_secs(),
            metrics: &self.metrics,
            cache: self.cache.stats(),
            disk: self.disk_stats(),
            disk_enabled: self.disk.is_some(),
            core: self.telemetry.snapshot(),
        });
        Response {
            status: 200,
            content_type: prometheus::CONTENT_TYPE,
            extra_headers: Vec::new(),
            body: text.into_bytes(),
        }
    }

    /// The `GET /v1/stats` report: live counters, deliberately *not*
    /// golden-pinned (it changes with every request). Four blocks: the
    /// request/uptime counters, the memory- and disk-tier cache
    /// counters, the core evaluation-pipeline counters (the attached
    /// [`redeval::Telemetry`] snapshot, `core_`-prefixed), and a
    /// per-endpoint latency table (see [`crate::metrics`] for what the
    /// quantiles mean).
    pub fn stats_report(&self) -> Report {
        let c = self.cache.stats();
        let d = self.disk_stats();
        let mut r = Report::new("serve_stats", "redeval serve — live service counters");
        r.keys([
            ("schema_serve", Value::from(SERVE_SCHEMA)),
            ("requests", int(self.requests.load(Ordering::Relaxed))),
            ("uptime_ticks", int(self.started.elapsed().as_secs())),
        ]);
        r.keys([
            ("cache_hits", int(c.hits)),
            ("cache_misses", int(c.misses)),
            ("cache_evictions", int(c.evictions)),
            ("cache_rejected", int(c.rejected)),
            ("cache_entries", Value::from(c.entries)),
            ("cache_used_bytes", Value::from(c.used_bytes)),
            ("cache_capacity_bytes", Value::from(c.capacity_bytes)),
        ]);
        r.keys([
            ("cache_disk_enabled", Value::from(self.disk.is_some())),
            ("cache_disk_hits", int(d.hits)),
            ("cache_disk_misses", int(d.misses)),
            ("cache_disk_writes", int(d.writes)),
            ("cache_disk_evictions", int(d.evictions)),
            ("cache_disk_corrupt", int(d.corrupt)),
            ("cache_disk_rejected", int(d.rejected)),
            ("cache_disk_entries", Value::from(d.entries)),
            ("cache_disk_used_bytes", int(d.used_bytes)),
            ("cache_disk_capacity_bytes", int(d.capacity_bytes)),
        ]);
        let snap = self.telemetry.snapshot();
        let mut core: Vec<(String, Value)> = snap
            .entries()
            .map(|(name, value)| (format!("core_{name}"), int(value)))
            .collect();
        core.push((
            "core_cache_hit_rate".into(),
            Value::from(snap.cache_hit_rate()),
        ));
        core.push(("core_prune_ratio".into(), Value::from(snap.prune_ratio())));
        core.push((
            "core_solver_residual_max".into(),
            Value::from(snap.solver_residual_max),
        ));
        r.keys(core);
        let mut table = redeval::output::Table::new(
            "endpoints",
            [
                "endpoint", "requests", "errors", "p50_us", "p95_us", "p99_us", "max_us",
            ],
        );
        for s in self.metrics.snapshot() {
            table.add_row(vec![
                Value::from(s.endpoint),
                int(s.requests),
                int(s.errors),
                int(s.p50_us),
                int(s.p95_us),
                int(s.p99_us),
                int(s.max_us),
            ]);
        }
        r.table(table);
        r
    }
}

/// `u64` counters as report integers (saturating far beyond any
/// realistic uptime).
fn int(x: u64) -> Value {
    Value::from(i64::try_from(x).unwrap_or(i64::MAX))
}

/// A structured error body: a `Report` named `error` with `ok: false`
/// and one key/value block — `status`, `error` kind, then the detail
/// entries (whose message strings are snippet-capped upstream; raw
/// request bytes never appear here).
pub fn error_response(status: u16, kind: &str, details: Vec<(String, Value)>) -> Response {
    let mut r = Report::new("error", "request rejected");
    r.check(false);
    let mut entries: Vec<(String, Value)> = vec![
        ("schema_serve".into(), Value::from(SERVE_SCHEMA)),
        ("status".into(), Value::from(i64::from(status))),
        ("error".into(), Value::from(kind)),
    ];
    entries.extend(details);
    r.keys(entries);
    Response::json(status, r.to_json())
}

/// Maps an evaluation-path error to its structured response: scenario
/// and design defects are the client's fault (400), solver failures are
/// the server's (500).
pub fn eval_error_response(e: &EvalError) -> Response {
    match e {
        EvalError::Scenario(ScenarioError::Json { line, col, message }) => error_response(
            400,
            "json",
            vec![
                ("line".into(), int(*line as u64)),
                ("col".into(), int(*col as u64)),
                ("message".into(), Value::from(message.as_str())),
            ],
        ),
        EvalError::Scenario(ScenarioError::Invalid { at, message }) => error_response(
            400,
            "schema",
            vec![
                ("at".into(), Value::from(at.as_str())),
                ("message".into(), Value::from(message.as_str())),
            ],
        ),
        EvalError::InvalidSpec(issue) => error_response(
            400,
            "spec",
            vec![("message".into(), Value::from(issue.to_string()))],
        ),
        EvalError::CountMismatch { .. } | EvalError::ZeroServers { .. } => error_response(
            400,
            "design",
            vec![("message".into(), Value::from(e.to_string()))],
        ),
        EvalError::Srn(_) | EvalError::Solve(_) => error_response(
            500,
            "solver",
            vec![("message".into(), Value::from(e.to_string()))],
        ),
    }
}

/// The 405 response, naming the allowed method.
fn method_not_allowed(allow: &'static str) -> Response {
    error_response(
        405,
        "method_not_allowed",
        vec![(
            "message".into(),
            Value::from(format!("use {allow} for this endpoint")),
        )],
    )
    .with_header("Allow", allow)
}

/// Maps a wire-reading failure to its (connection-closing) response;
/// `None` when the socket is beyond answering.
pub fn http_error_response(e: &HttpError) -> Option<Response> {
    let status = e.status()?;
    Some(error_response(
        status,
        "http",
        vec![("message".into(), Value::from(e.to_string()))],
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redeval::output::{parse_json, Json};
    use redeval::scenario::builtin;
    use redeval::scenario::generate::{Family, GenParams};

    /// Cheap deterministic endpoints: no SRN solves, but real documents
    /// and real cache behaviour.
    fn test_service(cache_capacity: usize) -> Service {
        let endpoints = Endpoints {
            eval: Box::new(|doc| {
                let mut r = Report::new(format!("eval_{}", doc.name), "stub eval");
                r.keys([("tiers", Value::from(doc.tiers.len()))]);
                Ok(r)
            }),
            sweep: Box::new(|req| {
                let mut r = Report::new(format!("sweep_{}", req.doc.name), "stub sweep");
                r.keys([(
                    "axes",
                    Value::from(
                        req.patch_windows_days.as_ref().map_or(0, Vec::len)
                            + req.policies.as_ref().map_or(0, Vec::len),
                    ),
                )]);
                Ok(r)
            }),
            optimize: Box::new(|req| {
                let mut r = Report::new(format!("optimize_{}", req.doc.name), "stub optimize");
                r.keys([
                    (
                        "max_redundancy",
                        Value::from(i64::from(req.max_redundancy.unwrap_or(0))),
                    ),
                    ("bounded", Value::from(req.bounds.is_some())),
                ]);
                Ok(r)
            }),
            equilibrium: Box::new(|req| {
                let mut r =
                    Report::new(format!("equilibrium_{}", req.doc.name), "stub equilibrium");
                r.keys([
                    (
                        "max_redundancy",
                        Value::from(i64::from(req.max_redundancy.unwrap_or(0))),
                    ),
                    (
                        "max_iters",
                        Value::from(i64::from(req.max_iters.unwrap_or(0))),
                    ),
                ]);
                Ok(r)
            }),
            scenarios: Box::new(|| Report::new("scenario_list", "stub scenarios")),
            reports: Box::new(|| Report::new("list", "stub reports")),
        };
        Service::new(endpoints, cache_capacity)
    }

    fn doc_json() -> String {
        builtin::paper_case_study().to_json()
    }

    #[test]
    fn routes_get_endpoints() {
        let svc = test_service(1 << 20);
        let ok = svc.handle(&Request::synthetic("GET", "/healthz", b""));
        assert_eq!(ok.status, 200);
        assert_eq!(
            String::from_utf8(ok.body).unwrap(),
            format!("{{\"ok\": true, \"schema\": \"{SERVE_SCHEMA}\"}}\n")
        );
        for path in ["/v1/scenarios", "/v1/reports", "/v1/stats"] {
            assert_eq!(
                svc.handle(&Request::synthetic("GET", path, b"")).status,
                200
            );
        }
        assert_eq!(
            svc.handle(&Request::synthetic("GET", "/nope", b"")).status,
            404
        );
        let r = svc.handle(&Request::synthetic("GET", "/v1/eval", b""));
        assert_eq!(r.status, 405);
        assert!(r.extra_headers.contains(&("Allow", "POST".to_string())));
        let r = svc.handle(&Request::synthetic("POST", "/healthz", b"x"));
        assert_eq!(r.status, 405);
        assert_eq!(svc.requests(), 7);
    }

    #[test]
    fn eval_caches_by_canonical_content() {
        let svc = test_service(1 << 20);
        let body = doc_json();
        let first = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert_eq!(first.status, 200);
        assert!(first.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        let second = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert!(second.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, second.body, "hit must be byte-identical");
        // A *textually* different body for the same document also hits:
        // the key hashes the canonical form.
        let spaced = body.replace(",\n", " ,\n");
        assert!(redeval::scenario::ScenarioDoc::from_json(&spaced).is_ok());
        let third = svc.handle(&Request::synthetic("POST", "/v1/eval", spaced.as_bytes()));
        assert!(third.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, third.body);
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    #[test]
    fn generate_returns_the_canonical_document_and_caches_it() {
        let svc = test_service(1 << 20);
        let body = b"{\"family\": \"iot_swarm\", \"seed\": 2, \"tiers\": 7, \"redundancy\": 8}";
        let first = svc.handle(&Request::synthetic("POST", "/v1/generate", body));
        assert_eq!(first.status, 200);
        assert!(first.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        let expected = generate::generate(
            Family::IotSwarm,
            &GenParams {
                tiers: 7,
                redundancy: 8,
                ..GenParams::default()
            },
            2,
        )
        .to_json();
        assert_eq!(String::from_utf8(first.body.clone()).unwrap(), expected);
        let second = svc.handle(&Request::synthetic("POST", "/v1/generate", body));
        assert!(second.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, second.body, "hit must be byte-identical");
        // A request that clamps to the same parameters shares the entry.
        let clamped = b"{\"family\": \"iot_swarm\", \"seed\": 2, \"tiers\": 7, \"redundancy\": 99}";
        let third = svc.handle(&Request::synthetic("POST", "/v1/generate", clamped));
        assert!(third.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, third.body);
    }

    #[test]
    fn generate_rejects_malformed_requests_with_structured_errors() {
        let svc = test_service(1 << 20);
        let cases: &[(&[u8], &str)] = &[
            (b"{\"seed\": 1}", "missing key `family`"),
            (b"{\"family\": \"cloud\"}", "unknown family"),
            (b"{\"family\": 3}", "expected a family name string"),
            (
                b"{\"family\": \"iot_swarm\", \"speed\": 1}",
                "unknown key `speed`",
            ),
            (
                b"{\"family\": \"iot_swarm\", \"seed\": 1.5}",
                "non-negative integer",
            ),
            (
                b"{\"family\": \"iot_swarm\", \"tiers\": -2}",
                "non-negative integer",
            ),
            (b"[]", "expected an object"),
            (b"{", "json"),
        ];
        for (body, needle) in cases {
            let r = svc.handle(&Request::synthetic("POST", "/v1/generate", body));
            assert_eq!(r.status, 400, "body {:?}", String::from_utf8_lossy(body));
            let text = String::from_utf8(r.body).unwrap();
            assert!(
                text.contains(needle),
                "expected `{needle}` in response to {:?}, got: {text}",
                String::from_utf8_lossy(body)
            );
        }
        let r = svc.handle(&Request::synthetic("GET", "/v1/generate", b""));
        assert_eq!(r.status, 405);
        assert!(r.extra_headers.contains(&("Allow", "POST".to_string())));
    }

    #[test]
    fn eval_and_sweep_keys_do_not_collide() {
        let svc = test_service(1 << 20);
        let eval_body = doc_json();
        let sweep_body = format!("{{\"scenario\": {}}}", eval_body.trim_end());
        let a = svc.handle(&Request::synthetic(
            "POST",
            "/v1/eval",
            eval_body.as_bytes(),
        ));
        let b = svc.handle(&Request::synthetic(
            "POST",
            "/v1/sweep",
            sweep_body.as_bytes(),
        ));
        assert_eq!((a.status, b.status), (200, 200));
        assert!(b.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        assert_ne!(a.body, b.body);
        // Different sweep params, different entry.
        let with_axis = format!(
            "{{\"scenario\": {}, \"patch_windows_days\": [7, 30]}}",
            eval_body.trim_end()
        );
        let c = svc.handle(&Request::synthetic(
            "POST",
            "/v1/sweep",
            with_axis.as_bytes(),
        ));
        assert!(c.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        assert_eq!(svc.cache_stats().entries, 3);
    }

    #[test]
    fn malformed_bodies_become_structured_reports_without_echo() {
        let svc = test_service(1 << 20);
        let junk = format!("{{ nope {}", "Z".repeat(10_000));
        let r = svc.handle(&Request::synthetic("POST", "/v1/eval", junk.as_bytes()));
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"ok\": false"));
        assert!(body.contains("\"error\": \"json\""));
        assert!(!body.contains("ZZZZ"), "request bytes echoed: {body}");
        // Schema violations carry the dotted path.
        let bad_schema = doc_json().replace("\"title\"", "\"titel\"");
        let r = svc.handle(&Request::synthetic(
            "POST",
            "/v1/eval",
            bad_schema.as_bytes(),
        ));
        assert_eq!(r.status, 400);
        let body = String::from_utf8(r.body).unwrap();
        assert!(body.contains("\"error\": \"schema\"") && body.contains("titel"));
        // Non-UTF-8 bodies are rejected, not panicked on.
        let r = svc.handle(&Request::synthetic("POST", "/v1/eval", &[0xff, 0xfe, 0x00]));
        assert_eq!(r.status, 400);
        // Errors are not cached.
        assert_eq!(svc.cache_stats().entries, 0);
    }

    #[test]
    fn sweep_body_validation_pinpoints_axes() {
        let svc = test_service(1 << 20);
        let doc = doc_json();
        let doc = doc.trim_end();
        let cases = [
            ("{}".to_string(), "missing key `scenario`"),
            (
                format!("{{\"scenario\": {doc}, \"frob\": 1}}"),
                "unknown key",
            ),
            (
                format!("{{\"scenario\": {doc}, \"patch_windows_days\": [-1]}}"),
                "patch_windows_days[0]",
            ),
            (
                format!("{{\"scenario\": {doc}, \"policies\": [\"bogus\"]}}"),
                "policies[0]",
            ),
            (
                format!("{{\"scenario\": {doc}, \"max_redundancy\": 99}}"),
                "1..=8",
            ),
        ];
        for (body, needle) in cases {
            let r = svc.handle(&Request::synthetic("POST", "/v1/sweep", body.as_bytes()));
            assert_eq!(r.status, 400, "body {}", &body[..60.min(body.len())]);
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains(needle), "`{needle}` not in {text}");
        }
    }

    #[test]
    fn optimize_routes_caches_and_validates() {
        let svc = test_service(1 << 20);
        let doc = doc_json();
        let doc = doc.trim_end();
        let body = format!(
            "{{\"scenario\": {doc}, \"max_redundancy\": 3, \
             \"bounds\": {{\"max_asp\": 0.2, \"min_coa\": 0.9962}}}}"
        );
        let first = svc.handle(&Request::synthetic("POST", "/v1/optimize", body.as_bytes()));
        assert_eq!(first.status, 200);
        assert!(first.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        let text = String::from_utf8(first.body.clone()).unwrap();
        assert!(text.contains("\"max_redundancy\": 3") && text.contains("\"bounded\": true"));
        let second = svc.handle(&Request::synthetic("POST", "/v1/optimize", body.as_bytes()));
        assert!(second.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, second.body, "hit must be byte-identical");
        // Different knobs, different cache entry.
        let other = format!("{{\"scenario\": {doc}, \"max_redundancy\": 2}}");
        let third = svc.handle(&Request::synthetic(
            "POST",
            "/v1/optimize",
            other.as_bytes(),
        ));
        assert!(third.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        // Validation pinpoints the offending knob.
        let cases = [
            ("{}".to_string(), "missing key `scenario`"),
            (
                format!("{{\"scenario\": {doc}, \"depth\": 1}}"),
                "unknown key",
            ),
            (
                format!("{{\"scenario\": {doc}, \"max_redundancy\": 99}}"),
                "1..=8",
            ),
            (
                format!("{{\"scenario\": {doc}, \"bounds\": [1, 2]}}"),
                "expected an object",
            ),
            (
                format!("{{\"scenario\": {doc}, \"bounds\": {{\"max_asp\": 0.2}}}}"),
                "bounds.min_coa",
            ),
            (
                format!(
                    "{{\"scenario\": {doc}, \
                     \"bounds\": {{\"max_asp\": 0.2, \"min_coa\": 0.9, \"phi\": 1}}}}"
                ),
                "unknown key `phi`",
            ),
            (
                format!("{{\"scenario\": {doc}, \"policies\": [\"bogus\"]}}"),
                "policies[0]",
            ),
        ];
        for (body, needle) in cases {
            let r = svc.handle(&Request::synthetic("POST", "/v1/optimize", body.as_bytes()));
            assert_eq!(r.status, 400, "body {}", &body[..60.min(body.len())]);
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains(needle), "`{needle}` not in {text}");
        }
        let r = svc.handle(&Request::synthetic("GET", "/v1/optimize", b""));
        assert_eq!(r.status, 405);
        assert!(r.extra_headers.contains(&("Allow", "POST".to_string())));
        // The 404 listing names the new endpoint.
        let r = svc.handle(&Request::synthetic("GET", "/nope", b""));
        assert!(String::from_utf8(r.body).unwrap().contains("/v1/optimize"));
    }

    #[test]
    fn equilibrium_routes_caches_and_validates() {
        let svc = test_service(1 << 20);
        let doc = doc_json();
        let doc = doc.trim_end();
        let body = format!("{{\"scenario\": {doc}, \"max_redundancy\": 2, \"max_iters\": 8}}");
        let first = svc.handle(&Request::synthetic(
            "POST",
            "/v1/equilibrium",
            body.as_bytes(),
        ));
        assert_eq!(first.status, 200);
        assert!(first.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        let text = String::from_utf8(first.body.clone()).unwrap();
        assert!(text.contains("\"max_redundancy\": 2") && text.contains("\"max_iters\": 8"));
        let second = svc.handle(&Request::synthetic(
            "POST",
            "/v1/equilibrium",
            body.as_bytes(),
        ));
        assert!(second.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, second.body, "hit must be byte-identical");
        // Different knobs, different cache entry.
        let other = format!("{{\"scenario\": {doc}, \"max_iters\": 4}}");
        let third = svc.handle(&Request::synthetic(
            "POST",
            "/v1/equilibrium",
            other.as_bytes(),
        ));
        assert!(third.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
        // Validation pinpoints the offending knob.
        let cases = [
            ("{}".to_string(), "missing key `scenario`"),
            (
                format!("{{\"scenario\": {doc}, \"bounds\": {{}}}}"),
                "unknown key `bounds`",
            ),
            (
                format!("{{\"scenario\": {doc}, \"max_redundancy\": 99}}"),
                "1..=8",
            ),
            (
                format!("{{\"scenario\": {doc}, \"max_iters\": 0}}"),
                "1..=64",
            ),
            (
                format!("{{\"scenario\": {doc}, \"max_iters\": 2.5}}"),
                "1..=64",
            ),
            (
                format!("{{\"scenario\": {doc}, \"policies\": [\"bogus\"]}}"),
                "policies[0]",
            ),
        ];
        for (body, needle) in cases {
            let r = svc.handle(&Request::synthetic(
                "POST",
                "/v1/equilibrium",
                body.as_bytes(),
            ));
            assert_eq!(r.status, 400, "body {}", &body[..60.min(body.len())]);
            let text = String::from_utf8(r.body).unwrap();
            assert!(text.contains(needle), "`{needle}` not in {text}");
        }
        let r = svc.handle(&Request::synthetic("GET", "/v1/equilibrium", b""));
        assert_eq!(r.status, 405);
        assert!(r.extra_headers.contains(&("Allow", "POST".to_string())));
        // The 404 listing names the new endpoint.
        let r = svc.handle(&Request::synthetic("GET", "/nope", b""));
        assert!(String::from_utf8(r.body)
            .unwrap()
            .contains("/v1/equilibrium"));
    }

    #[test]
    fn every_routed_path_is_filed_under_its_own_label() {
        let svc = test_service(1 << 20);
        let doc = doc_json();
        let wrapped = format!("{{\"scenario\": {}}}", doc.trim_end());
        let generate = b"{\"family\": \"iot_swarm\", \"seed\": 2}".as_slice();
        let routes: [(&str, &str, &[u8], &str); 11] = [
            ("GET", "/healthz", b"", "healthz"),
            ("GET", "/v1/scenarios", b"", "scenarios"),
            ("GET", "/v1/reports", b"", "reports"),
            ("GET", "/v1/stats", b"", "stats"),
            ("GET", "/metrics", b"", "metrics"),
            ("POST", "/v1/eval", doc.as_bytes(), "eval"),
            ("POST", "/v1/sweep", wrapped.as_bytes(), "sweep"),
            ("POST", "/v1/optimize", wrapped.as_bytes(), "optimize"),
            ("POST", "/v1/equilibrium", wrapped.as_bytes(), "equilibrium"),
            ("POST", "/v1/generate", generate, "generate"),
            ("GET", "/nope", b"", "other"),
        ];
        for (method, path, body, _) in routes {
            let r = svc.handle(&Request::synthetic(method, path, body));
            let want = if path == "/nope" { 404 } else { 200 };
            assert_eq!(r.status, want, "{method} {path}");
        }
        let stats = svc.handle(&Request::synthetic("GET", "/v1/stats", b""));
        let json = parse_json(std::str::from_utf8(&stats.body).unwrap()).unwrap();
        let table = json
            .get("items")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .find(|item| item.get("name").and_then(Json::as_str) == Some("endpoints"))
            .expect("the stats report has an endpoint table");
        let filed: Vec<(&str, f64)> = table
            .get("rows")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|row| {
                let row = row.as_arr().unwrap();
                (row[0].as_str().unwrap(), row[1].as_f64().unwrap())
            })
            .collect();
        let want: Vec<(&str, f64)> = routes.iter().map(|&(.., label)| (label, 1.0)).collect();
        assert_eq!(filed, want);
    }

    #[test]
    fn stats_report_tracks_cache_counters() {
        let svc = test_service(1 << 20);
        let body = doc_json();
        svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        let stats = svc.handle(&Request::synthetic("GET", "/v1/stats", b""));
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"cache_hits\": 1"), "{text}");
        assert!(text.contains("\"cache_misses\": 1"));
        assert!(text.contains("\"cache_entries\": 1"));
        assert!(text.contains("\"requests\": 3"));
    }

    #[test]
    fn tiny_cache_evicts_but_stays_correct() {
        let svc = test_service(700); // fits roughly one stub response
        let a = doc_json();
        let b = builtin::ecommerce().to_json();
        let ra = svc.handle(&Request::synthetic("POST", "/v1/eval", a.as_bytes()));
        let rb = svc.handle(&Request::synthetic("POST", "/v1/eval", b.as_bytes()));
        assert_eq!((ra.status, rb.status), (200, 200));
        // Whatever was evicted, recomputation still yields identical
        // bytes.
        let ra2 = svc.handle(&Request::synthetic("POST", "/v1/eval", a.as_bytes()));
        assert_eq!(ra.body, ra2.body);
    }

    #[test]
    fn http_error_responses_map_statuses() {
        assert_eq!(
            http_error_response(&HttpError::BodyTooLarge)
                .unwrap()
                .status,
            413
        );
        assert_eq!(
            http_error_response(&HttpError::BadRequestLine)
                .unwrap()
                .status,
            400
        );
        assert!(http_error_response(&HttpError::Truncated).is_none());
    }

    /// A unique scratch directory per test, removed on drop.
    struct Scratch(std::path::PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "redeval-service-test-{}-{tag}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn disk_tier_survives_a_service_restart() {
        let scratch = Scratch::new("restart");
        let body = doc_json();
        let first = {
            let svc =
                test_service(1 << 20).with_disk(DiskCache::open(&scratch.0, 1 << 20).unwrap());
            let r = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
            assert!(r.extra_headers.contains(&(CACHE_HEADER, "miss".into())));
            assert_eq!(svc.disk_stats().writes, 1);
            r
        };
        // A fresh service over the same directory: cold memory, warm disk.
        let svc = test_service(1 << 20).with_disk(DiskCache::open(&scratch.0, 1 << 20).unwrap());
        let second = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert!(
            second
                .extra_headers
                .contains(&(CACHE_HEADER, "disk".into())),
            "first repeat after restart must be a disk hit: {:?}",
            second.extra_headers
        );
        assert_eq!(first.body, second.body, "disk hit must be byte-identical");
        assert_eq!(svc.disk_stats().hits, 1);
        // The disk hit was promoted: the next repeat is a memory hit.
        let third = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert!(third.extra_headers.contains(&(CACHE_HEADER, "hit".into())));
        assert_eq!(first.body, third.body);
        assert_eq!(svc.disk_stats().hits, 1, "memory answered the repeat");
        // Stats expose the disk tier.
        let stats = svc.handle(&Request::synthetic("GET", "/v1/stats", b""));
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"cache_disk_enabled\": true"), "{text}");
        assert!(text.contains("\"cache_disk_hits\": 1"), "{text}");
    }

    #[test]
    fn corrupted_disk_entry_degrades_to_a_recompute() {
        let scratch = Scratch::new("corrupt");
        let body = doc_json();
        let first = {
            let svc =
                test_service(1 << 20).with_disk(DiskCache::open(&scratch.0, 1 << 20).unwrap());
            svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()))
        };
        // Corrupt every stored entry on disk.
        for entry in std::fs::read_dir(&scratch.0).unwrap() {
            let path = entry.unwrap().path();
            let mut data = std::fs::read(&path).unwrap();
            let last = data.len() - 1;
            data[last] ^= 0xff;
            std::fs::write(&path, &data).unwrap();
        }
        let svc = test_service(1 << 20).with_disk(DiskCache::open(&scratch.0, 1 << 20).unwrap());
        let second = svc.handle(&Request::synthetic("POST", "/v1/eval", body.as_bytes()));
        assert_eq!(second.status, 200);
        assert!(
            second
                .extra_headers
                .contains(&(CACHE_HEADER, "miss".into())),
            "corruption must fall back to a recompute: {:?}",
            second.extra_headers
        );
        assert_eq!(first.body, second.body, "recompute is byte-identical");
        assert_eq!(svc.disk_stats().corrupt, 1);
    }

    #[test]
    fn stats_report_includes_per_endpoint_latency_rows() {
        let svc = test_service(1 << 20);
        svc.handle(&Request::synthetic(
            "POST",
            "/v1/eval",
            doc_json().as_bytes(),
        ));
        svc.handle(&Request::synthetic("GET", "/nope", b""));
        let stats = svc.handle(&Request::synthetic("GET", "/v1/stats", b""));
        let text = String::from_utf8(stats.body).unwrap();
        assert!(text.contains("\"endpoints\""), "{text}");
        assert!(text.contains("\"eval\""), "{text}");
        assert!(text.contains("\"other\""), "{text}");
        assert!(text.contains("p99_us"), "{text}");
    }

    #[test]
    fn solver_errors_are_500_not_400() {
        let endpoints = Endpoints {
            eval: Box::new(|_| Err(EvalError::from(redeval_srn::SrnError::VanishingLoop))),
            sweep: Box::new(|_| unreachable!()),
            optimize: Box::new(|_| unreachable!()),
            equilibrium: Box::new(|_| unreachable!()),
            scenarios: Box::new(|| Report::new("scenario_list", "x")),
            reports: Box::new(|| Report::new("list", "x")),
        };
        let svc = Service::new(endpoints, 1 << 20);
        let r = svc.handle(&Request::synthetic(
            "POST",
            "/v1/eval",
            doc_json().as_bytes(),
        ));
        assert_eq!(r.status, 500);
        assert!(String::from_utf8(r.body)
            .unwrap()
            .contains("\"error\": \"solver\""));
    }
}
