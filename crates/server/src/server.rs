//! The TCP front: one acceptor thread feeding a pool of connection
//! workers over a condvar queue, with keep-alive connection handling
//! and draining shutdown.
//!
//! The acceptor only accepts: each connection is pushed onto a shared
//! queue (the same mutex-plus-condvar discipline as
//! `redeval::exec::Pool`) and served to completion by one of `threads`
//! workers — requests on one connection are sequential by HTTP/1.1
//! semantics anyway, so the server handles up to `threads` connections
//! concurrently and queues the excess instead of refusing it. The heavy
//! lifting inside a request — the sweep grids — runs on the shared
//! [`redeval::exec::Pool`] the injected endpoints carry, so one slow
//! evaluation still uses every core.
//!
//! Shutdown is cooperative and *draining*: [`ServerHandle::stop`]
//! raises a flag, severs idle keep-alive peers immediately, drops
//! queued-but-unserved connections, and gives connections that are
//! mid-request a bounded grace period ([`Server::grace`]) to finish
//! writing their response before severing them too. A request the
//! server has started handling is thus answered completely unless it
//! outlives the grace period.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::http::{read_request, Limits, Response};
use crate::service::{http_error_response, Service};

/// How long a single socket read may block (also the idle keep-alive
/// cap: a silent peer is dropped after one timed-out read).
const READ_TIMEOUT: Duration = Duration::from_secs(30);

/// Hard wall-clock budget for reading one *complete* request. A
/// per-read timeout alone would let a peer dribble one byte per
/// `READ_TIMEOUT` forever and pin its worker thread; the deadline cuts
/// the whole request off, slow or silent alike.
const REQUEST_DEADLINE: Duration = Duration::from_secs(60);

/// Default bound on how long [`ServerHandle::stop`] keeps in-flight
/// connections alive to finish their current response.
const DEFAULT_GRACE: Duration = Duration::from_secs(5);

/// A [`TcpStream`] whose reads respect a shared absolute deadline: each
/// read blocks at most until `min(deadline, now + READ_TIMEOUT)`. The
/// connection loop pushes the deadline forward once per request, so the
/// budget is per-request, not per-connection.
struct DeadlineStream {
    stream: TcpStream,
    deadline: Arc<Mutex<Instant>>,
}

impl Read for DeadlineStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let deadline = *self.deadline.lock().expect("deadline lock");
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        self.stream
            .set_read_timeout(Some(remaining.min(READ_TIMEOUT)))?;
        self.stream.read(buf)
    }
}

/// One registered connection: the severing handle plus whether a
/// request is currently being handled on it (read completely, response
/// not yet written).
#[derive(Debug)]
struct ConnState {
    stream: TcpStream,
    busy: Arc<AtomicBool>,
}

/// The open connections, so [`ServerHandle::stop`] can cut idle
/// keep-alive peers immediately and drain busy ones.
#[derive(Debug, Default)]
struct ActiveConnections {
    next_id: AtomicU64,
    map: Mutex<HashMap<u64, ConnState>>,
}

impl ActiveConnections {
    /// Registers a connection; returns its deregistration token (`None`
    /// when the fd cannot be duplicated — the connection then simply
    /// rides out its own timeout on shutdown).
    fn register(&self, stream: &TcpStream, busy: &Arc<AtomicBool>) -> Option<u64> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.map.lock().expect("connection registry").insert(
            id,
            ConnState {
                stream: clone,
                busy: Arc::clone(busy),
            },
        );
        Some(id)
    }

    fn deregister(&self, id: u64) {
        self.map.lock().expect("connection registry").remove(&id);
    }

    /// Severs every registered connection that is *not* mid-request,
    /// unblocking handlers parked in an idle keep-alive read.
    fn shutdown_idle(&self) {
        for conn in self.map.lock().expect("connection registry").values() {
            if !conn.busy.load(Ordering::SeqCst) {
                let _ = conn.stream.shutdown(Shutdown::Both);
            }
        }
    }

    /// Severs every registered connection, busy or not.
    fn shutdown_all(&self) {
        for conn in self.map.lock().expect("connection registry").values() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }

    /// Whether any registered connection is mid-request.
    fn any_busy(&self) -> bool {
        self.map
            .lock()
            .expect("connection registry")
            .values()
            .any(|c| c.busy.load(Ordering::SeqCst))
    }
}

/// The accepted-connection queue between the acceptor and the workers —
/// the `exec::Pool` discipline: a mutexed deque plus a condvar, no
/// spinning.
#[derive(Debug, Default)]
struct ConnQueue {
    queue: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
}

impl ConnQueue {
    fn push(&self, stream: TcpStream) {
        self.queue
            .lock()
            .expect("connection queue")
            .push_back(stream);
        self.ready.notify_one();
    }

    /// The next connection to serve, blocking while the queue is empty;
    /// `None` once `stop` is raised and the queue has drained.
    fn pop(&self, stop: &AtomicBool) -> Option<TcpStream> {
        let mut queue = self.queue.lock().expect("connection queue");
        loop {
            if let Some(stream) = queue.pop_front() {
                return Some(stream);
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            queue = self.ready.wait(queue).expect("connection queue");
        }
    }

    /// Removes and returns everything queued (shutdown: these
    /// connections were never served and are dropped, not drained).
    fn drain(&self) -> Vec<TcpStream> {
        self.queue
            .lock()
            .expect("connection queue")
            .drain(..)
            .collect()
    }

    fn wake_all(&self) {
        self.ready.notify_all();
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    threads: usize,
    grace: Duration,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, port `0` for an ephemeral
    /// test port) around the given service with `threads` connection
    /// workers (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Service,
        threads: usize,
    ) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(service),
            threads: threads.max(1),
            grace: DEFAULT_GRACE,
        })
    }

    /// Overrides how long [`ServerHandle::stop`] lets in-flight
    /// requests finish before severing their connections.
    #[must_use]
    pub fn grace(mut self, grace: Duration) -> Server {
        self.grace = grace;
        self
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service (e.g. for in-process stats in tests and benches).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Starts the acceptor and worker threads and returns a handle; the
    /// caller keeps running (tests, benches) or parks on
    /// [`ServerHandle::wait`] (the CLI).
    ///
    /// # Errors
    ///
    /// Propagates address-query or thread-spawn failures.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(ActiveConnections::default());
        let queue = Arc::new(ConnQueue::default());
        let mut threads = Vec::with_capacity(self.threads + 1);
        for i in 0..self.threads {
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            let queue = Arc::clone(&queue);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("redeval-serve-{i}"))
                    .spawn(move || {
                        while let Some(stream) = queue.pop(&stop) {
                            serve_connection(stream, &service, &connections, &stop);
                        }
                    })?,
            );
        }
        {
            let listener = self.listener;
            let stop = Arc::clone(&stop);
            let queue = Arc::clone(&queue);
            threads.push(
                std::thread::Builder::new()
                    .name("redeval-accept".to_string())
                    .spawn(move || loop {
                        match listener.accept() {
                            Ok((stream, _peer)) => {
                                if stop.load(Ordering::Acquire) {
                                    return;
                                }
                                queue.push(stream);
                            }
                            // Transient accept errors (e.g. the peer
                            // vanished between SYN and accept) must not
                            // kill the acceptor.
                            Err(_) => {
                                if stop.load(Ordering::Acquire) {
                                    return;
                                }
                            }
                        }
                    })?,
            );
        }
        Ok(ServerHandle {
            addr,
            service: self.service,
            stop,
            connections,
            queue,
            grace: self.grace,
            threads,
        })
    }
}

/// A running server: address, service access and cooperative shutdown.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    connections: Arc<ActiveConnections>,
    queue: Arc<ConnQueue>,
    grace: Duration,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server accepts on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (live counters, cache stats).
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Parks the caller until the server stops (the `redeval serve`
    /// foreground path — effectively forever).
    pub fn wait(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Stops accepting and shuts the server down, *draining* in-flight
    /// work: idle keep-alive peers and never-served queued connections
    /// are severed immediately, while connections mid-request get up to
    /// the configured grace period to finish writing their response.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        // Idle peers are parked in a read with nothing owed to them.
        self.connections.shutdown_idle();
        // Queued connections were never read from; drop them.
        for stream in self.queue.drain() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        self.queue.wake_all();
        // Poke the (possibly blocked) acceptor awake; it sees the flag
        // and returns, dropping this dummy connection unserved.
        let _ = TcpStream::connect(self.addr);
        // The drain: busy connections finish their current response and
        // then exit via the connection loop's stop check.
        let deadline = Instant::now() + self.grace;
        while self.connections.any_busy() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        // Anything still running past the grace period is cut off; its
        // response write fails and the worker returns.
        self.connections.shutdown_all();
        self.queue.wake_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

/// Serves one connection to completion: sequential keep-alive requests,
/// one response each; wire errors get a final structured response (when
/// the socket still works) and close the connection.
fn serve_connection(
    stream: TcpStream,
    service: &Service,
    connections: &ActiveConnections,
    stop: &AtomicBool,
) {
    let busy = Arc::new(AtomicBool::new(false));
    let token = connections.register(&stream, &busy);
    serve_requests(stream, service, &busy, stop);
    if let Some(token) = token {
        connections.deregister(token);
    }
}

/// The request/response loop of one registered connection. The `busy`
/// flag brackets handle-plus-write, so a draining shutdown knows which
/// connections are owed a response; the loop re-checks `stop` after
/// every response so drained connections close instead of idling.
fn serve_requests(stream: TcpStream, service: &Service, busy: &Arc<AtomicBool>, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let deadline = Arc::new(Mutex::new(Instant::now() + REQUEST_DEADLINE));
    let mut reader = BufReader::new(DeadlineStream {
        stream,
        deadline: Arc::clone(&deadline),
    });
    let limits = Limits::default();
    loop {
        *deadline.lock().expect("deadline lock") = Instant::now() + REQUEST_DEADLINE;
        match read_request(&mut reader, &limits) {
            Ok(None) => return,
            Ok(Some(request)) => {
                busy.store(true, Ordering::SeqCst);
                let keep_alive = request.keep_alive;
                let response = service.handle(&request);
                let wrote = write_response(&mut writer, &response, keep_alive);
                busy.store(false, Ordering::SeqCst);
                if wrote.is_err() || !keep_alive || stop.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(error) => {
                if let Some(response) = http_error_response(&error) {
                    let _ = write_response(&mut writer, &response, false);
                }
                return;
            }
        }
    }
}

fn write_response(
    writer: &mut TcpStream,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    writer.write_all(&response.to_bytes(keep_alive))?;
    writer.flush()
}
