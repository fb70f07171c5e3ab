//! Deterministic byte-level fuzzing of the request path — the
//! `fuzz_scenario.rs` discipline (splitmix64, fixed seeds, no
//! wall-clock) applied to the HTTP wire parser and the `POST` body
//! decoders.
//!
//! **Wire parser.** Valid raw requests — a `GET`, a `Content-Length`
//! `POST`, a chunked `POST` with trailers and an HTTP/1.0 request — are
//! byte-mutated, alone and pipelined in one buffer, and read by
//! [`read_request`] under the default and a tight [`Limits`]. The
//! contract under test:
//!
//! * nothing panics;
//! * an accepted request holds at most `max_body` body bytes and
//!   `max_headers` headers;
//! * every error maps to 400, 411, 413 or 431, except a mid-message
//!   disconnect (`Truncated`), which has no status;
//! * a pipelined buffer is exhausted within one call per byte plus one;
//! * over the run, every [`HttpError`] variant but `Io` occurs.
//!
//! **Body decoders.** Valid bodies of all five `POST` endpoints, with
//! every optional knob present, are byte-mutated and sent through
//! [`Service::handle`] over stub endpoints. The contract under test:
//!
//! * nothing panics;
//! * every response is a `200` or a 4xx `Report` with `ok: false` and a
//!   non-empty `error` kind and `message`;
//! * with a 4 KiB marker run planted in the body, no 4xx body carries
//!   more than [`SNIPPET_MAX`] consecutive marker bytes — rejections
//!   quote request bytes only through `output::snippet`.
//!
//! A failure reproduces from the (seed, round) or (endpoint, round) pair
//! in its message.

use std::panic::{catch_unwind, AssertUnwindSafe};

use redeval::output::{parse_json, Json, Report, SNIPPET_MAX};
use redeval::scenario::generate::{self, Family, GenParams};
use redeval_server::{
    read_request, Endpoints, HttpError, Limits, Request, Response, Service, ServiceConfig,
};

/// splitmix64 — same recurrence the generators use.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        (self.next_u64() & 0xFF) as u8
    }
}

/// One random structural mutation: bit flip, byte replace, delete,
/// insert, truncate, or an internal splice.
fn mutate(bytes: &mut Vec<u8>, rng: &mut Rng) {
    if bytes.is_empty() {
        bytes.push(rng.byte());
        return;
    }
    match rng.below(6) {
        0 => {
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        1 => {
            let i = rng.below(bytes.len());
            bytes[i] = rng.byte();
        }
        2 => {
            let i = rng.below(bytes.len());
            bytes.remove(i);
        }
        3 => {
            let i = rng.below(bytes.len() + 1);
            bytes.insert(i, rng.byte());
        }
        4 => {
            let i = rng.below(bytes.len());
            bytes.truncate(i);
        }
        _ => {
            let len = 1 + rng.below(24).min(bytes.len() - 1);
            let src = rng.below(bytes.len() - len + 1);
            let dst = rng.below(bytes.len() - len + 1);
            let chunk: Vec<u8> = bytes[src..src + len].to_vec();
            bytes[dst..dst + len].copy_from_slice(&chunk);
        }
    }
}

/// Valid raw requests, one per framing: a `GET` with a query string, a
/// `Content-Length` `POST`, a chunked `POST` with a chunk extension and
/// trailers, and an HTTP/1.0 request with a long header line. Under
/// [`tight_limits`] the first has one header too many, the two `POST`s
/// carry too many body bytes (one per framing) and the last has one line
/// too long.
fn wire_templates() -> [Vec<u8>; 4] {
    let body = "{\"name\": \"fuzzed\"}";
    [
        b"GET /v1/stats?verbose=1 HTTP/1.1\r\nHost: fuzz:7878\r\nAccept: */*\r\n\
          User-Agent: fuzz\r\nX-Request: 1\r\n\r\n"
            .to_vec(),
        format!(
            "POST /v1/eval HTTP/1.1\r\nHost: fuzz\r\nContent-Length: {}\r\n\
             Connection: keep-alive\r\n\r\n{body}",
            body.len()
        )
        .into_bytes(),
        b"POST /v1/sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          7;ext=1\r\n{\"a\": 1\r\n9\r\n, \"b\": 2}\r\n0\r\nX-Trailer: t\r\n\r\n"
            .to_vec(),
        b"GET /healthz HTTP/1.0\r\nConnection: close\r\n\
          X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n"
            .to_vec(),
    ]
}

/// Limits the templates brush against (see [`wire_templates`]).
fn tight_limits() -> Limits {
    Limits {
        max_head_line: 48,
        max_headers: 3,
        max_body: 12,
    }
}

/// Reads requests off `wire` until the stream ends or a read fails,
/// checking every outcome against the contract and recording each error.
fn read_all(wire: &[u8], limits: &Limits, context: &str, seen: &mut Vec<HttpError>) {
    let mut reader = wire;
    for _ in 0..=wire.len() {
        let outcome = catch_unwind(AssertUnwindSafe(|| read_request(&mut reader, limits)))
            .unwrap_or_else(|_| panic!("{context}: read_request panicked"));
        match outcome {
            Ok(None) => return,
            Ok(Some(r)) => {
                assert!(
                    r.body.len() <= limits.max_body,
                    "{context}: body over limit"
                );
                assert!(
                    r.headers.len() <= limits.max_headers,
                    "{context}: headers over limit"
                );
            }
            Err(e) => {
                let status = e.status();
                let mapped = match status {
                    None => e == HttpError::Truncated,
                    Some(code) => [400, 411, 413, 431].contains(&code),
                };
                assert!(mapped, "{context}: {e:?} maps to status {status:?}");
                if !seen.contains(&e) {
                    seen.push(e);
                }
                return;
            }
        }
    }
    panic!(
        "{context}: {} reads did not exhaust {} bytes",
        wire.len() + 1,
        wire.len()
    );
}

#[test]
fn mutated_wire_requests_never_panic_and_fail_with_a_mapped_status() {
    const SEED: u64 = 0x5EED_2000;
    const ROUNDS: u64 = 500;
    let templates = wire_templates();
    for template in &templates {
        let request = read_request(&mut template.as_slice(), &Limits::default());
        assert!(
            matches!(request, Ok(Some(_))),
            "template rejected: {request:?}"
        );
    }
    let limits = [Limits::default(), tight_limits()];
    let mut seen: Vec<HttpError> = Vec::new();
    for round in 0..ROUNDS {
        let mut rng = Rng(SEED + round);
        let context = format!("seed {SEED:#x}, round {round}");
        let mut pipeline: Vec<u8> = Vec::new();
        for template in &templates {
            let mut bytes = template.clone();
            for _ in 0..=rng.below(4) {
                mutate(&mut bytes, &mut rng);
            }
            for limits in &limits {
                read_all(&bytes, limits, &context, &mut seen);
            }
            pipeline.extend_from_slice(template);
        }
        for _ in 0..=rng.below(4) {
            mutate(&mut pipeline, &mut rng);
        }
        for limits in &limits {
            read_all(
                &pipeline,
                limits,
                &format!("{context} (pipelined)"),
                &mut seen,
            );
        }
    }
    // The mutator reaches every rejection the parser has.
    for variant in [
        HttpError::Truncated,
        HttpError::HeadTooLarge,
        HttpError::TooManyHeaders,
        HttpError::BadRequestLine,
        HttpError::BadVersion,
        HttpError::BadHeader,
        HttpError::BadContentLength,
        HttpError::AmbiguousFraming,
        HttpError::LengthRequired,
        HttpError::BadChunk,
        HttpError::BodyTooLarge,
    ] {
        assert!(seen.contains(&variant), "{variant:?} never occurred");
    }
}

/// The planted marker byte and run length.
const MARKER: u8 = b'Z';
const MARKER_RUN: usize = 4096;

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
    Service::new(endpoints, ServiceConfig::default())
}

/// A valid body per `POST` endpoint, every optional knob present.
fn templates() -> Vec<(&'static str, String)> {
    let doc = generate::generate(
        Family::MicroserviceMesh,
        &GenParams {
            tiers: 5,
            redundancy: 1,
            designs: 1,
            policies: 1,
        },
        3,
    )
    .to_json();
    let doc = doc.trim_end();
    let wrap = |knobs: &str| format!("{{\"scenario\": {doc}, {knobs}}}");
    vec![
        ("/v1/eval", doc.to_string()),
        (
            "/v1/sweep",
            wrap(
                "\"patch_windows_days\": [7, 30], \"policies\": [\"none\", \"critical>7\"], \
                 \"max_redundancy\": 2",
            ),
        ),
        (
            "/v1/optimize",
            wrap(
                "\"policies\": [\"all\"], \"max_redundancy\": 2, \
                 \"bounds\": {\"max_asp\": 0.2, \"min_coa\": 0.99}",
            ),
        ),
        (
            "/v1/equilibrium",
            wrap("\"policies\": [\"all\"], \"max_redundancy\": 2, \"max_iters\": 4"),
        ),
        (
            "/v1/generate",
            "{\"family\": \"iot_swarm\", \"seed\": 5, \"tiers\": 6, \"redundancy\": 2, \
             \"designs\": 1, \"policies\": 2}"
                .to_string(),
        ),
    ]
}

/// Marker runs planted where a decoder might quote them back: an
/// unknown key, each string-valued knob, and the scenario's own fields.
fn targeted_plants(path: &str, body: &str, run: &str) -> Vec<String> {
    let mut plants = vec![body.replacen('{', &format!("{{\"{run}\": 1, "), 1)];
    let swaps: &[(&str, String)] = &[
        ("\"critical>7\"", format!("\"{run}\"")),
        ("\"all\"", format!("\"critical>{run}\"")),
        ("\"max_asp\"", format!("\"{run}\"")),
        ("\"iot_swarm\"", format!("\"{run}\"")),
        ("\"seed\": 5", format!("\"seed\": \"{run}\"")),
        ("\"name\": \"", format!("\"name\": \"{run}")),
        ("\"vuln\": \"", format!("\"vuln\": \"{run}")),
        ("\"tiers\": [", format!("\"tiers\": [\"{run}\", ")),
    ];
    for (from, to) in swaps {
        if body.contains(from) {
            plants.push(body.replacen(from, to, 1));
        }
    }
    if path == "/v1/sweep" {
        plants.push(body.replacen("[7, 30]", &format!("[{run}]"), 1));
    }
    plants
}

/// The `keys` entries of a structured error body.
fn error_entries(root: &Json) -> Option<&Json> {
    root.get("items")?.as_arr()?.first()?.get("entries")
}

/// Checks the response contract; returns whether it was a rejection.
fn check(resp: &Response, context: &str) -> bool {
    match resp.status {
        200 => false,
        400..=499 => {
            let text = std::str::from_utf8(&resp.body)
                .unwrap_or_else(|_| panic!("{context}: rejection body is not UTF-8"));
            let root =
                parse_json(text).unwrap_or_else(|e| panic!("{context}: rejection not JSON: {e}"));
            assert_eq!(
                root.get("ok").and_then(Json::as_bool),
                Some(false),
                "{context}: rejection without ok: false"
            );
            let entries = error_entries(&root)
                .unwrap_or_else(|| panic!("{context}: rejection without a keys block: {text}"));
            for key in ["error", "message"] {
                let value = entries.get(key).and_then(Json::as_str).unwrap_or_default();
                assert!(!value.is_empty(), "{context}: empty `{key}` in {text}");
            }
            true
        }
        status => panic!("{context}: unexpected status {status}"),
    }
}

/// The longest run of [`MARKER`] bytes in `bytes`.
fn longest_marker_run(bytes: &[u8]) -> usize {
    bytes
        .split(|&b| b != MARKER)
        .map(<[u8]>::len)
        .max()
        .unwrap_or(0)
}

fn handle(service: &Service, path: &str, body: &[u8], context: &str) -> Response {
    catch_unwind(AssertUnwindSafe(|| {
        service.handle(&Request::synthetic("POST", path, body))
    }))
    .unwrap_or_else(|_| panic!("{context}: Service::handle panicked"))
}

/// Planted 4xx bodies must not echo the marker past the snippet cap;
/// returns whether the body was rejected.
fn check_planted(service: &Service, path: &str, body: &[u8], context: &str) -> bool {
    let resp = handle(service, path, body, context);
    let rejected = check(&resp, context);
    if rejected {
        let run = longest_marker_run(&resp.body);
        assert!(
            run <= SNIPPET_MAX,
            "{context}: {run} consecutive marker bytes echoed: {}",
            String::from_utf8_lossy(&resp.body)
        );
    }
    rejected
}

#[test]
fn mutated_post_bodies_never_panic_and_fail_as_structured_reports() {
    const ROUNDS: usize = 400;
    let service = stub_service();
    for (e, (path, template)) in templates().into_iter().enumerate() {
        // The unmutated template is accepted: mutations start from a
        // body that reaches every knob decoder.
        let ok = handle(&service, path, template.as_bytes(), path);
        assert_eq!(ok.status, 200, "{path}: template rejected");
        let mut rng = Rng(0x5EED_1000 + e as u64);
        let mut rejected = 0usize;
        for round in 0..ROUNDS {
            let context = format!("{path} round {round}");
            let mut bytes = template.clone().into_bytes();
            for _ in 0..=rng.below(4) {
                mutate(&mut bytes, &mut rng);
            }
            let resp = handle(&service, path, &bytes, &context);
            rejected += usize::from(check(&resp, &context));

            // The same mutated body with a marker run planted anywhere.
            let at = rng.below(bytes.len() + 1);
            bytes.splice(at..at, [MARKER; MARKER_RUN]);
            check_planted(&service, path, &bytes, &format!("{context} (planted)"));
        }
        // The mutator genuinely stresses the decoders.
        assert!(
            rejected > ROUNDS / 2,
            "{path}: only {rejected}/{ROUNDS} mutations rejected — mutator too tame"
        );
    }
}

#[test]
fn marker_runs_in_quoted_slots_are_snippet_capped() {
    let service = stub_service();
    let run = String::from_utf8(vec![MARKER; MARKER_RUN]).unwrap();
    for (path, template) in templates() {
        let plants = targeted_plants(path, &template, &run);
        let rejected = plants
            .iter()
            .enumerate()
            .filter(|(i, body)| {
                check_planted(
                    &service,
                    path,
                    body.as_bytes(),
                    &format!("{path} plant {i}"),
                )
            })
            .count();
        // A long scenario name is legal; every other slot must reject.
        assert!(
            rejected + 1 >= plants.len(),
            "{path}: only {rejected}/{} plants rejected",
            plants.len()
        );
    }
}
