//! Shutdown semantics over real sockets: a stop *drains* requests the
//! server has started handling (bounded by the grace period) while
//! severing idle keep-alive peers immediately.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use redeval::output::Report;
use redeval::scenario::builtin;
use redeval_server::{Endpoints, Server, Service};

/// A service whose `/v1/sweep` sleeps `delay` before answering —
/// standing in for a slow grid evaluation.
fn slow_sweep_service(delay: Duration) -> Service {
    let endpoints = Endpoints {
        eval: Box::new(|doc| Ok(Report::new(format!("eval_{}", doc.name), "stub"))),
        sweep: Box::new(move |req| {
            std::thread::sleep(delay);
            let mut r = Report::new(format!("sweep_{}", req.doc.name), "slow stub sweep");
            r.keys([(
                "slept_ms",
                redeval::output::Value::from(delay.as_millis() as i64),
            )]);
            Ok(r)
        }),
        optimize: Box::new(|_| unreachable!()),
        equilibrium: Box::new(|_| unreachable!()),
        scenarios: Box::new(|| Report::new("scenario_list", "stub")),
        reports: Box::new(|| Report::new("list", "stub")),
    };
    Service::new(endpoints, 1 << 20)
}

fn sweep_body() -> Vec<u8> {
    let doc = builtin::paper_case_study().to_json();
    format!("{{\"scenario\": {}}}", doc.trim_end()).into_bytes()
}

fn post_sweep(stream: &mut TcpStream, body: &[u8]) {
    let head = format!(
        "POST /v1/sweep HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    stream.flush().unwrap();
}

/// Reads one HTTP response to completion; `None` when the connection
/// dies before the full body arrives.
fn read_response(stream: &mut TcpStream) -> Option<(u16, Vec<u8>)> {
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let (head_end, content_length, status) = loop {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        raw.extend_from_slice(&buf[..n]);
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = std::str::from_utf8(&raw[..pos]).ok()?;
            let status: u16 = head.split_whitespace().nth(1)?.parse().ok()?;
            let len: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("Content-Length: "))?
                .trim()
                .parse()
                .ok()?;
            break (pos + 4, len, status);
        }
    };
    while raw.len() < head_end + content_length {
        let n = stream.read(&mut buf).ok()?;
        if n == 0 {
            return None;
        }
        raw.extend_from_slice(&buf[..n]);
    }
    Some((status, raw[head_end..head_end + content_length].to_vec()))
}

#[test]
fn stop_during_a_slow_sweep_returns_a_complete_response() {
    let delay = Duration::from_millis(300);
    let server = Server::bind("127.0.0.1:0", slow_sweep_service(delay), 2)
        .unwrap()
        .grace(Duration::from_secs(10));
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        post_sweep(&mut stream, &sweep_body());
        read_response(&mut stream)
    });
    // Let the request reach the handler, then stop mid-flight.
    std::thread::sleep(Duration::from_millis(100));
    handle.stop();
    let (status, body) = client
        .join()
        .unwrap()
        .expect("the in-flight sweep must be drained, not severed");
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(
        text.contains("\"slept_ms\": 300"),
        "complete body expected, got: {text}"
    );
}

#[test]
fn stop_severs_idle_keepalive_connections_immediately() {
    let server = Server::bind("127.0.0.1:0", slow_sweep_service(Duration::ZERO), 2)
        .unwrap()
        .grace(Duration::from_secs(10));
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    // Complete one request so the connection is a registered idle
    // keep-alive peer, then leave it parked.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let first = read_response(&mut stream).expect("healthz answers");
    assert_eq!(first.0, 200);
    let started = Instant::now();
    handle.stop();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "stop must not wait out an idle peer's read timeout (took {:?})",
        started.elapsed()
    );
    // The idle connection was severed: the next read sees EOF or reset.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 16];
    match stream.read(&mut buf) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("severed connection produced {n} bytes"),
    }
}

#[test]
fn requests_outliving_the_grace_period_are_cut_off() {
    let delay = Duration::from_millis(600);
    let server = Server::bind("127.0.0.1:0", slow_sweep_service(delay), 2)
        .unwrap()
        .grace(Duration::from_millis(50));
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    let client = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        post_sweep(&mut stream, &sweep_body());
        read_response(&mut stream)
    });
    std::thread::sleep(Duration::from_millis(100));
    handle.stop();
    assert!(
        client.join().unwrap().is_none(),
        "a request past the grace period must be severed, not drained"
    );
}

#[test]
fn queued_connections_beyond_the_worker_pool_are_served() {
    // One worker, several concurrent clients: the excess queues and is
    // served in turn instead of being refused.
    let server = Server::bind(
        "127.0.0.1:0",
        slow_sweep_service(Duration::from_millis(20)),
        1,
    )
    .unwrap();
    let handle = server.spawn().unwrap();
    let addr = handle.addr();
    let done = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).unwrap();
                post_sweep(&mut stream, &sweep_body());
                let (status, _) = read_response(&mut stream).expect("queued client is served");
                assert_eq!(status, 200);
                done.fetch_add(1, Ordering::SeqCst);
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }
    assert_eq!(done.load(Ordering::SeqCst), 4);
    handle.stop();
}
