//! Loopback integration suite for `redeval serve` (ISSUE 5 acceptance).
//!
//! A real `TcpListener` server wired exactly as the CLI wires it
//! (`redeval_bench::serve::service`), driven through a socket:
//!
//! * the `/v1/eval` response for the **pinned** paper case-study
//!   scenario file is byte-identical to what
//!   `redeval eval --scenario … --format json` prints (the CLI and the
//!   server share one report builder) and to the committed golden under
//!   `tests/golden/serve/`;
//! * the repeat request is served from the cache with identical bytes,
//!   observable through `/v1/stats`;
//! * `/v1/optimize` answers with the same bytes as the in-process
//!   pruned-search report builder, pinned as its own golden;
//! * malformed bodies — broken JSON, schema violations, oversized
//!   payloads — come back as structured 4xx `Report`s that never echo
//!   request bytes, and the server keeps serving afterwards.
//!
//! The golden HTTP transcripts (`*.http`) are full serialized responses
//! (status line + headers + body); they stay byte-stable because the
//! response serializer emits no `Date` and a fixed header order.
//! Regenerate the corpus with `REDEVAL_BLESS=1 cargo test --test serve`.

use std::fs;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

use redeval::exec::{default_threads, AnalysisCache, Pool};
use redeval::output::Report;
use redeval::scenario::{builtin, ScenarioDoc};
use redeval_bench::{reports, serve};
use redeval_server::{
    DiskCache, Endpoints, EquilibriumRequest, OptimizeRequest, Request, Server, ServerHandle,
    Service, MAX_GRID_AXIS,
};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn blessing() -> bool {
    std::env::var_os("REDEVAL_BLESS").is_some()
}

/// Byte-compares `got` against the pinned file (or rewrites it under
/// `REDEVAL_BLESS=1`).
fn assert_matches_golden(got: &[u8], name: &str) {
    let dir = golden_dir().join("serve");
    let path = dir.join(name);
    if blessing() {
        fs::create_dir_all(&dir).expect("serve golden dir");
        fs::write(&path, got).expect("write serve golden");
        return;
    }
    let want = fs::read(&path).unwrap_or_else(|_| {
        panic!(
            "missing serve golden {} — bless with REDEVAL_BLESS=1 cargo test --test serve",
            path.display()
        )
    });
    assert_eq!(
        want, got,
        "{name} diverged from its golden; if intentional, re-bless and commit the diff"
    );
}

fn start_server() -> ServerHandle {
    let service = serve::service(2, 1 << 20);
    Server::bind("127.0.0.1:0", service, 2)
        .expect("loopback bind")
        .spawn()
        .expect("acceptors start")
}

/// A parsed loopback response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    fn body_text(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }
}

/// Sends one request over `stream` and reads the reply.
fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    raw_head: &str,
    body: &[u8],
) -> Reply {
    stream.write_all(raw_head.as_bytes()).expect("head sent");
    stream.write_all(body).expect("body sent");
    stream.flush().expect("flushed");
    let mut line = String::new();
    reader.read_line(&mut line).expect("status line");
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed status line {line:?}"));
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header_line = String::new();
        reader.read_line(&mut header_line).expect("header line");
        let header_line = header_line.trim_end();
        if header_line.is_empty() {
            break;
        }
        if let Some((name, value)) = header_line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("numeric length");
            }
            headers.push((name.to_string(), value.trim().to_string()));
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body read");
    Reply {
        status,
        headers,
        body,
    }
}

/// POSTs `body` to `path` on a persistent connection.
fn post(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    path: &str,
    body: &[u8],
) -> Reply {
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    roundtrip(stream, reader, &head, body)
}

fn get(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, path: &str) -> Reply {
    roundtrip(
        stream,
        reader,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n"),
        b"",
    )
}

fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("loopback connect");
    stream.set_nodelay(true).expect("nodelay");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

/// The pinned paper scenario file — the same bytes CI POSTs with curl.
fn paper_scenario_text() -> String {
    fs::read_to_string(golden_dir().join("scenarios/paper_case_study.json"))
        .expect("pinned paper scenario exists")
}

/// The ISSUE-5 headline acceptance test: served bytes ≡ CLI bytes ≡
/// golden, repeat is a byte-identical cache hit, observable in stats.
#[test]
fn eval_is_byte_identical_to_the_cli_and_cached_on_repeat() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);
    let scenario = paper_scenario_text();

    let first = post(&mut stream, &mut reader, "/v1/eval", scenario.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Redeval-Cache"), Some("miss"));

    // Byte-identical to the CLI's `eval --scenario … --format json`
    // output (both run reports::scenario::eval_report on the parsed
    // file).
    let doc = ScenarioDoc::from_json(&scenario).expect("pinned scenario parses");
    let cli_bytes = reports::scenario::eval_report(&doc)
        .expect("paper scenario evaluates")
        .to_json();
    assert_eq!(first.body_text(), cli_bytes);

    // And byte-identical to the committed golden response body.
    assert_matches_golden(&first.body, "eval_paper_case_study.json");

    // The repeat request is a cache hit with identical bytes …
    let second = post(&mut stream, &mut reader, "/v1/eval", scenario.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Redeval-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);

    // … observable through /v1/stats.
    let stats = get(&mut stream, &mut reader, "/v1/stats");
    assert_eq!(stats.status, 200);
    let text = stats.body_text();
    assert!(text.contains("\"cache_hits\": 1"), "{text}");
    assert!(text.contains("\"cache_misses\": 1"), "{text}");
    assert!(text.contains("\"cache_entries\": 1"), "{text}");
    handle.stop();
}

#[test]
fn sweep_endpoint_layers_axes_and_caches() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);
    let scenario = paper_scenario_text();
    let body = format!(
        "{{\"scenario\": {}, \"policies\": [\"none\", \"all\"]}}",
        scenario.trim_end()
    );
    let first = post(&mut stream, &mut reader, "/v1/sweep", body.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Redeval-Cache"), Some("miss"));
    let text = first.body_text();
    assert!(
        text.contains("\"report\": \"sweep_paper_case_study\""),
        "{text}"
    );
    assert!(
        text.contains("\"grid\": 10"),
        "5 designs × 2 policies: {text}"
    );
    let second = post(&mut stream, &mut reader, "/v1/sweep", body.as_bytes());
    assert_eq!(second.header("X-Redeval-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    handle.stop();
}

/// `/v1/optimize` front-door parity: the served pruned-search report is
/// byte-identical to the in-process builder (and thus to
/// `redeval optimize --scenario … --format json`), pinned as a golden,
/// and the repeat request is a cache hit.
#[test]
fn optimize_endpoint_matches_the_in_process_builder_and_caches() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);
    let scenario = paper_scenario_text();
    let body = format!("{{\"scenario\": {}}}", scenario.trim_end());

    let first = post(&mut stream, &mut reader, "/v1/optimize", body.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Redeval-Cache"), Some("miss"));

    let doc = ScenarioDoc::from_json(&scenario).expect("pinned scenario parses");
    let in_process = reports::optimize::optimize_report_on(
        &OptimizeRequest {
            doc,
            policies: None,
            max_redundancy: None,
            bounds: None,
        },
        &Pool::new(default_threads()),
        &Arc::new(AnalysisCache::new()),
    )
    .expect("paper scenario optimizes")
    .to_json();
    assert_eq!(first.body_text(), in_process);
    assert_matches_golden(&first.body, "optimize_paper_case_study.json");

    let second = post(&mut stream, &mut reader, "/v1/optimize", body.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Redeval-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    handle.stop();
}

/// `/v1/equilibrium` front-door parity: the served Gauss-Seidel report
/// is byte-identical to the in-process builder (and thus to
/// `redeval equilibrium --scenario … --format json`), pinned as a
/// golden, and the repeat request is a cache hit.
#[test]
fn equilibrium_endpoint_matches_the_in_process_builder_and_caches() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);
    let scenario = paper_scenario_text();
    let body = format!("{{\"scenario\": {}}}", scenario.trim_end());

    let first = post(&mut stream, &mut reader, "/v1/equilibrium", body.as_bytes());
    assert_eq!(first.status, 200);
    assert_eq!(first.header("X-Redeval-Cache"), Some("miss"));

    let doc = ScenarioDoc::from_json(&scenario).expect("pinned scenario parses");
    let in_process = reports::equilibrium::equilibrium_report_on(
        &EquilibriumRequest {
            doc,
            policies: None,
            max_redundancy: None,
            max_iters: None,
        },
        &Pool::new(default_threads()),
        &Arc::new(AnalysisCache::new()),
    )
    .expect("paper scenario reaches equilibrium")
    .to_json();
    assert_eq!(first.body_text(), in_process);
    assert_matches_golden(&first.body, "equilibrium_paper_case_study.json");

    let second = post(&mut stream, &mut reader, "/v1/equilibrium", body.as_bytes());
    assert_eq!(second.status, 200);
    assert_eq!(second.header("X-Redeval-Cache"), Some("hit"));
    assert_eq!(first.body, second.body);
    handle.stop();
}

#[test]
fn malformed_bodies_are_structured_4xx_without_leaking_or_killing_the_server() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);

    // 1. Broken JSON carrying a marker: structured 400, marker absent.
    let junk = format!("{{ \"nope\" {}", "LEAKMARKER".repeat(400));
    let reply = post(&mut stream, &mut reader, "/v1/eval", junk.as_bytes());
    assert_eq!(reply.status, 400);
    let text = reply.body_text();
    assert!(text.contains("\"ok\": false") && text.contains("\"error\": \"json\""));
    assert!(text.contains("\"line\": 1"), "{text}");
    assert!(!text.contains("LEAKMARKER"), "request bytes echoed: {text}");

    // 2. Well-formed JSON violating the schema: dotted-path 400.
    let scenario = paper_scenario_text();
    let bad_schema = scenario.replace("\"count\": 2", "\"count\": 0");
    let reply = post(&mut stream, &mut reader, "/v1/eval", bad_schema.as_bytes());
    assert_eq!(reply.status, 400);
    let text = reply.body_text();
    assert!(
        text.contains("\"error\": \"schema\"") && text.contains(".count"),
        "{text}"
    );

    // 3. Oversized payload: 413 before the body is even consumed; the
    //    connection closes (the server cannot resync mid-body).
    let huge_len = 64 * 1024 * 1024;
    let head =
        format!("POST /v1/eval HTTP/1.1\r\nHost: test\r\nContent-Length: {huge_len}\r\n\r\n");
    let reply = roundtrip(&mut stream, &mut reader, &head, b"");
    assert_eq!(reply.status, 413);
    assert!(reply.body_text().contains("\"ok\": false"));

    // 4. The server survived all of it: a fresh connection still serves.
    let (mut stream, mut reader) = connect(&handle);
    let ok = post(&mut stream, &mut reader, "/v1/eval", scenario.as_bytes());
    assert_eq!(ok.status, 200);
    handle.stop();
}

#[test]
fn unknown_paths_and_wrong_methods_are_4xx() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);
    let health = get(&mut stream, &mut reader, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"ok\": true"));
    let missing = get(&mut stream, &mut reader, "/v2/everything");
    assert_eq!(missing.status, 404);
    let wrong = get(&mut stream, &mut reader, "/v1/eval");
    assert_eq!(wrong.status, 405);
    assert_eq!(wrong.header("Allow"), Some("POST"));
    let listings = get(&mut stream, &mut reader, "/v1/scenarios");
    assert!(listings.body_text().contains("paper_case_study"));
    let registry = get(&mut stream, &mut reader, "/v1/reports");
    assert!(registry.body_text().contains("table2"));
    handle.stop();
}

/// `GET /metrics` (ISSUE 10): the scrape is valid Prometheus text
/// exposition cold *and* warm, carries per-endpoint histogram series
/// for every endpoint that served a request, and — once evaluations
/// ran — live `redeval_core_*` counters from the shared analysis cache.
#[test]
fn metrics_exposition_is_valid_cold_and_warm() {
    let handle = start_server();
    let (mut stream, mut reader) = connect(&handle);

    // Cold scrape: a valid exposition before any evaluation ran, core
    // counters all zero.
    let cold = get(&mut stream, &mut reader, "/metrics");
    assert_eq!(cold.status, 200);
    assert!(
        cold.header("Content-Type")
            .is_some_and(|t| t.starts_with("text/plain")),
        "exposition content type"
    );
    redeval_server::validate_exposition(cold.body_text()).expect("cold scrape validates");
    assert!(
        cold.body_text().contains("redeval_core_cache_hits_total 0"),
        "cold core counters are zero"
    );

    // Warm it: one eval (tier solves populate and re-hit the analysis
    // cache) plus the repeat (a result-cache hit).
    let scenario = paper_scenario_text();
    for _ in 0..2 {
        let reply = post(&mut stream, &mut reader, "/v1/eval", scenario.as_bytes());
        assert_eq!(reply.status, 200);
    }

    let warm = get(&mut stream, &mut reader, "/metrics");
    assert_eq!(warm.status, 200);
    let text = warm.body_text();
    redeval_server::validate_exposition(text).expect("warm scrape validates");
    // Per-endpoint request counters and cumulative histogram series.
    assert!(
        text.contains("redeval_endpoint_requests_total{endpoint=\"eval\"} 2"),
        "{text}"
    );
    assert!(
        text.contains(
            "redeval_request_duration_microseconds_bucket{endpoint=\"eval\",le=\"+Inf\"} 2"
        ),
        "{text}"
    );
    assert!(text.contains("redeval_cache_hits_total 1"), "{text}");
    // The warm scrape must show analysis-cache hits: the case-study
    // tiers share solve parameters, so one eval alone re-hits the
    // shared cache (the CI smoke job greps for exactly this).
    let hits: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("redeval_core_cache_hits_total "))
        .expect("core cache hits series present")
        .trim()
        .parse()
        .expect("counter value parses");
    assert!(hits > 0, "warm scrape shows no core cache hits: {text}");
    handle.stop();
}

/// The cache observability contract, pinned byte-for-byte: a fixed
/// request sequence against a fresh service yields a deterministic
/// `X-Redeval-Cache` header trace and deterministic cache/core counter
/// lines in `/v1/stats` (every extracted value is schedule-independent;
/// wall-clock stats keys are deliberately excluded).
#[test]
fn cache_contract_transcript_matches_its_golden() {
    let service = serve::service(2, 1 << 20);
    let scenario = paper_scenario_text();
    let optimize_body = format!(
        "{{\"scenario\": {}, \"max_redundancy\": 2}}",
        scenario.trim_end()
    );
    let sequence: [(&str, &[u8]); 4] = [
        ("/v1/eval", scenario.as_bytes()),
        ("/v1/eval", scenario.as_bytes()),
        ("/v1/optimize", optimize_body.as_bytes()),
        ("/v1/eval", scenario.as_bytes()),
    ];
    let mut transcript = String::new();
    for (path, body) in sequence {
        let resp = service.handle(&Request::synthetic("POST", path, body));
        let cache_state = resp
            .extra_headers
            .iter()
            .find(|(n, _)| *n == redeval_server::CACHE_HEADER)
            .map(|(_, v)| v.as_str())
            .expect("cache header present");
        transcript.push_str(&format!("POST {path} -> {} {cache_state}\n", resp.status));
    }
    let stats = service.handle(&Request::synthetic("GET", "/v1/stats", b""));
    assert_eq!(stats.status, 200);
    transcript.push_str("stats:\n");
    // The `keys` items serialize their whole entry map on one line, so
    // pick the pinned pairs out by key prefix rather than by line.
    let body = std::str::from_utf8(&stats.body).expect("stats utf8");
    let mut rest = body;
    while let Some(pos) = ["\"cache_", "\"core_"]
        .iter()
        .filter_map(|p| rest.find(p))
        .min()
    {
        let tail = &rest[pos..];
        let end = tail.find([',', '}']).expect("stats JSON is well formed");
        transcript.push_str(&format!("  {}\n", &tail[..end]));
        rest = &tail[end..];
    }
    assert_matches_golden(transcript.as_bytes(), "cache_contract.txt");
}

/// A service over stub report producers: request decoding, rejection
/// bodies and cache keys are the service's own, whatever the endpoints
/// compute, so the POST contract needs no solver.
fn stub_service() -> Service {
    let endpoints = Endpoints {
        eval: Box::new(|doc| Ok(Report::new(format!("eval_{}", doc.name), "stub"))),
        sweep: Box::new(|req| Ok(Report::new(format!("sweep_{}", req.doc.name), "stub"))),
        optimize: Box::new(|req| Ok(Report::new(format!("optimize_{}", req.doc.name), "stub"))),
        equilibrium: Box::new(|req| {
            Ok(Report::new(format!("equilibrium_{}", req.doc.name), "stub"))
        }),
        scenarios: Box::new(|| Report::new("scenario_list", "stub")),
        reports: Box::new(|| Report::new("list", "stub")),
    };
    Service::new(endpoints, serve::DEFAULT_CACHE_CAP)
}

/// One malformed body per rejection branch of every POST decoder, as
/// `(path, label, body)`.
fn malformed_post_bodies() -> Vec<(&'static str, &'static str, Vec<u8>)> {
    let doc = builtin::paper_case_study().to_json();
    let doc = doc.trim_end();
    let wrap = |knobs: &str| format!("{{\"scenario\": {doc}{knobs}}}").into_bytes();
    let bad_doc = doc.replacen("\"count\": 2", "\"count\": 0", 1);
    let many = |item: &str| vec![item; MAX_GRID_AXIS + 1].join(", ");
    let mut cases: Vec<(&'static str, &'static str, Vec<u8>)> = vec![
        ("/v1/eval", "non-UTF-8 body", vec![0xff, 0xfe, 0x00]),
        ("/v1/eval", "JSON syntax error", b"{ nope".to_vec()),
        ("/v1/eval", "not an object", b"[]".to_vec()),
        (
            "/v1/eval",
            "unknown key",
            doc.replacen('{', "{\"frob\": 1, ", 1).into_bytes(),
        ),
        ("/v1/eval", "invalid scenario", bad_doc.clone().into_bytes()),
    ];
    for path in ["/v1/sweep", "/v1/optimize", "/v1/equilibrium"] {
        cases.extend([
            (path, "non-UTF-8 body", vec![0xff, 0xfe, 0x00]),
            (path, "JSON syntax error", b"{\"scenario\": ".to_vec()),
            (path, "not an object", b"\"scenario\"".to_vec()),
            (path, "unknown key", wrap(", \"frob\": 1")),
            (path, "missing scenario", b"{}".to_vec()),
            (
                path,
                "scenario not an object",
                b"{\"scenario\": 3}".to_vec(),
            ),
            (
                path,
                "invalid scenario",
                format!("{{\"scenario\": {bad_doc}}}").into_bytes(),
            ),
            (
                path,
                "policies not an array",
                wrap(", \"policies\": \"all\""),
            ),
            (path, "policies empty", wrap(", \"policies\": []")),
            (
                path,
                "policies over the axis cap",
                wrap(&format!(", \"policies\": [{}]", many("\"all\""))),
            ),
            (
                path,
                "policy not a string",
                wrap(", \"policies\": [\"all\", 1]"),
            ),
            (
                path,
                "policy unparsable",
                wrap(", \"policies\": [\"bogus\"]"),
            ),
            (path, "max_redundancy zero", wrap(", \"max_redundancy\": 0")),
            (
                path,
                "max_redundancy above 8",
                wrap(", \"max_redundancy\": 9"),
            ),
            (
                path,
                "max_redundancy fractional",
                wrap(", \"max_redundancy\": 2.5"),
            ),
            (
                path,
                "max_redundancy a string",
                wrap(", \"max_redundancy\": \"3\""),
            ),
        ]);
    }
    cases.extend([
        (
            "/v1/sweep",
            "patch_windows_days not an array",
            wrap(", \"patch_windows_days\": 7"),
        ),
        (
            "/v1/sweep",
            "patch_windows_days empty",
            wrap(", \"patch_windows_days\": []"),
        ),
        (
            "/v1/sweep",
            "patch_windows_days over the axis cap",
            wrap(&format!(", \"patch_windows_days\": [{}]", many("7"))),
        ),
        (
            "/v1/sweep",
            "patch window negative",
            wrap(", \"patch_windows_days\": [7, -1]"),
        ),
        (
            "/v1/sweep",
            "patch window zero",
            wrap(", \"patch_windows_days\": [0]"),
        ),
        (
            "/v1/sweep",
            "patch window a string",
            wrap(", \"patch_windows_days\": [\"7\"]"),
        ),
        (
            "/v1/sweep",
            "bounds not a sweep knob",
            wrap(", \"bounds\": {}"),
        ),
        (
            "/v1/optimize",
            "max_iters not an optimize knob",
            wrap(", \"max_iters\": 4"),
        ),
        (
            "/v1/optimize",
            "bounds not an object",
            wrap(", \"bounds\": [0.2, 0.9]"),
        ),
        (
            "/v1/optimize",
            "bounds unknown key",
            wrap(", \"bounds\": {\"max_asp\": 0.2, \"min_coa\": 0.9, \"phi\": 1}"),
        ),
        (
            "/v1/optimize",
            "bounds.max_asp missing",
            wrap(", \"bounds\": {\"min_coa\": 0.9}"),
        ),
        (
            "/v1/optimize",
            "bounds.min_coa not a number",
            wrap(", \"bounds\": {\"max_asp\": 0.2, \"min_coa\": \"x\"}"),
        ),
        (
            "/v1/optimize",
            "bounds.max_asp overflows",
            wrap(", \"bounds\": {\"max_asp\": 1e999, \"min_coa\": 0.9}"),
        ),
        (
            "/v1/equilibrium",
            "bounds not an equilibrium knob",
            wrap(", \"bounds\": {}"),
        ),
        (
            "/v1/equilibrium",
            "max_iters zero",
            wrap(", \"max_iters\": 0"),
        ),
        (
            "/v1/equilibrium",
            "max_iters above 64",
            wrap(", \"max_iters\": 65"),
        ),
        (
            "/v1/equilibrium",
            "max_iters fractional",
            wrap(", \"max_iters\": 2.5"),
        ),
        (
            "/v1/equilibrium",
            "max_iters null",
            wrap(", \"max_iters\": null"),
        ),
        ("/v1/generate", "non-UTF-8 body", vec![0xff, 0xfe, 0x00]),
        (
            "/v1/generate",
            "JSON syntax error",
            b"{\"family\": \"iot_swarm\",}".to_vec(),
        ),
        ("/v1/generate", "not an object", b"7".to_vec()),
        (
            "/v1/generate",
            "unknown key",
            b"{\"family\": \"iot_swarm\", \"speed\": 1}".to_vec(),
        ),
        ("/v1/generate", "missing family", b"{\"seed\": 1}".to_vec()),
        (
            "/v1/generate",
            "family not a string",
            b"{\"family\": 3}".to_vec(),
        ),
        (
            "/v1/generate",
            "family unknown",
            b"{\"family\": \"cloud\"}".to_vec(),
        ),
        (
            "/v1/generate",
            "seed fractional",
            b"{\"family\": \"iot_swarm\", \"seed\": 1.5}".to_vec(),
        ),
        (
            "/v1/generate",
            "seed negative",
            b"{\"family\": \"iot_swarm\", \"seed\": -1}".to_vec(),
        ),
        (
            "/v1/generate",
            "seed above 2^53",
            b"{\"family\": \"iot_swarm\", \"seed\": 18446744073709551615}".to_vec(),
        ),
        (
            "/v1/generate",
            "seed a string",
            b"{\"family\": \"iot_swarm\", \"seed\": \"7\"}".to_vec(),
        ),
    ]);
    for (label, knobs) in [
        ("tiers negative", "\"tiers\": -2"),
        ("tiers above u32", "\"tiers\": 4294967296"),
        ("redundancy negative", "\"redundancy\": -2"),
        ("redundancy above u32", "\"redundancy\": 4294967296"),
        ("designs fractional", "\"designs\": 0.5"),
        ("designs above u32", "\"designs\": 4294967296"),
        ("policies negative", "\"policies\": -1"),
        ("policies a bool", "\"policies\": true"),
    ] {
        let body = format!("{{\"family\": \"iot_swarm\", {knobs}}}");
        cases.push(("/v1/generate", label, body.into_bytes()));
    }
    cases
}

/// Accepted bodies of every POST endpoint — each optional knob absent,
/// then each present — as `(path, label, body)`.
fn accepted_post_bodies() -> Vec<(&'static str, &'static str, String)> {
    let doc = builtin::paper_case_study().to_json();
    let doc = doc.trim_end();
    let wrap = |knobs: &str| format!("{{\"scenario\": {doc}{knobs}}}");
    vec![
        ("/v1/eval", "the document", doc.to_string()),
        ("/v1/sweep", "every knob absent", wrap("")),
        (
            "/v1/sweep",
            "every knob present",
            wrap(
                ", \"patch_windows_days\": [7, 30.5], \
                 \"policies\": [\"none\", \"patch all\", \"critical>7.5\"], \
                 \"max_redundancy\": 3",
            ),
        ),
        ("/v1/optimize", "every knob absent", wrap("")),
        (
            "/v1/optimize",
            "every knob present",
            wrap(
                ", \"policies\": [\"all\"], \"max_redundancy\": 3, \
                 \"bounds\": {\"min_coa\": 0.9962, \"max_asp\": 0.2}",
            ),
        ),
        ("/v1/equilibrium", "every knob absent", wrap("")),
        (
            "/v1/equilibrium",
            "every knob present",
            wrap(", \"policies\": [\"none\", \"all\"], \"max_redundancy\": 2, \"max_iters\": 8"),
        ),
        (
            "/v1/generate",
            "every knob absent",
            "{\"family\": \"iot_swarm\"}".to_string(),
        ),
        (
            "/v1/generate",
            "every knob present",
            "{\"family\": \"iot-swarm\", \"seed\": 9007199254740992, \"tiers\": 7, \
             \"redundancy\": 99, \"designs\": 1, \"policies\": 3}"
                .to_string(),
        ),
    ]
}

/// The POST contract, pinned byte for byte: the status and body of one
/// malformed request per rejection branch of every POST decoder, and the
/// disk-tier entry name (the SHA-256 cache key) of accepted bodies — the
/// names a restarted server looks up under `--cache-dir`.
#[test]
fn post_contract_transcript_matches_its_golden() {
    let service = stub_service();
    let mut transcript = String::new();
    for (path, label, body) in malformed_post_bodies() {
        let resp = service.handle(&Request::synthetic("POST", path, &body));
        assert!(
            (400..500).contains(&resp.status),
            "{path} {label}: accepted"
        );
        let text = String::from_utf8(resp.body).expect("rejections are UTF-8");
        transcript.push_str(&format!(
            "== POST {path} · {label} -> {}\n{text}",
            resp.status
        ));
    }
    let dir = std::env::temp_dir().join(format!("redeval-post-contract-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let service = stub_service().with_disk(DiskCache::open(&dir, 1 << 24).expect("disk tier"));
    let entries = || -> std::collections::BTreeSet<String> {
        fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| {
                e.expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("ASCII name")
            })
            .collect()
    };
    for (path, label, body) in accepted_post_bodies() {
        let before = entries();
        let resp = service.handle(&Request::synthetic("POST", path, body.as_bytes()));
        assert_eq!(resp.status, 200, "{path} {label}");
        let added: Vec<String> = entries().difference(&before).cloned().collect();
        assert_eq!(added.len(), 1, "{path} {label}: one new disk entry");
        transcript.push_str(&format!("== key POST {path} · {label}\n{}\n", added[0]));
    }
    let _ = fs::remove_dir_all(&dir);
    assert_matches_golden(transcript.as_bytes(), "post_contract.txt");
}

/// Every file under `tests/golden/serve/` must be one this suite pins —
/// a renamed golden must fail here, not linger as a dead byte pile
/// (`tests/golden.rs` excludes the directory from its own orphan check
/// and delegates to this one).
#[test]
fn no_orphan_serve_goldens() {
    const PINNED: [&str; 8] = [
        "eval_paper_case_study.json",
        "optimize_paper_case_study.json",
        "equilibrium_paper_case_study.json",
        "healthz.http",
        "bad_json.http",
        "not_found.http",
        "cache_contract.txt",
        "post_contract.txt",
    ];
    for entry in fs::read_dir(golden_dir().join("serve")).expect("serve golden dir exists") {
        let path = entry.expect("dir entry").path();
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        assert!(
            PINNED.contains(&name.as_str()),
            "orphan serve golden {} — no test pins it",
            path.display()
        );
    }
}

/// Golden HTTP transcripts: full serialized responses, pinned byte for
/// byte. Built straight from the service (no socket) so the pin covers
/// the response serializer too.
#[test]
fn http_transcripts_match_their_goldens() {
    let service = serve::service(1, 1 << 20);
    let health = service
        .handle(&Request::synthetic("GET", "/healthz", b""))
        .to_bytes(true);
    assert_matches_golden(&health, "healthz.http");
    let bad_json = service
        .handle(&Request::synthetic("POST", "/v1/eval", b"{ nope"))
        .to_bytes(true);
    assert_matches_golden(&bad_json, "bad_json.http");
    let not_found = service
        .handle(&Request::synthetic("GET", "/v2/everything", b""))
        .to_bytes(false);
    assert_matches_golden(&not_found, "not_found.http");
}
