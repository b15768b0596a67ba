//! The poll-driven connection event loop.
//!
//! One thread owns every client socket.  Connections are non-blocking and
//! registered with a [`Poller`] (epoll on Linux, `poll(2)` elsewhere); the
//! loop advances each through a readiness state machine — read bytes, parse
//! incrementally ([`crate::http::parse_request`]), answer cheap endpoints
//! and cache hits inline, hand compute misses to the worker pool through the
//! [`Dispatcher`], flush response bytes — and enforces every deadline
//! centrally, so a slow, quiet or never-reading client costs one buffered
//! connection instead of a blocked thread:
//!
//! * **idle** keep-alive connections close after [`KEEP_ALIVE_IDLE`];
//! * a **partial request** (bytes arrived, head/body incomplete) gets
//!   [`READ_TIMEOUT`] to finish, then `408 Request Timeout`;
//! * a peer that stops **reading** its response is dropped once no byte
//!   leaves for [`WRITE_TIMEOUT`].
//!
//! Admission control runs here too: the connection cap answers a
//! best-effort, non-blocking `503` at accept (the loop never stalls on a
//! rejected client's socket), the per-client token bucket answers `429` with
//! `Retry-After`, and the dispatcher's `max_inflight` cap sheds compute
//! requests with `503` before they queue.

use crate::admission::RateLimiter;
use crate::batch::{Dispatcher, JobKind, Placement};
use crate::cache::{CacheOp, CacheOutcome};
use crate::design::{DesignEvent, DesignHub};
use crate::error::ServeError;
use crate::http::{
    chunk_frame, parse_request, HttpError, ParseStatus, Request, Response, LAST_CHUNK,
};
use crate::metrics::ServiceMetrics;
use crate::poller::{Event, Interest, Poller, WakeReader};
use crate::server::{error_response, route, ServiceState};
use crate::EvaluateRequest;
use std::collections::HashMap;
use std::io;
use std::net::{IpAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default for [`crate::ServeConfig::keep_alive_idle`]: keep-alive
/// connections with no traffic close after this long.
pub const KEEP_ALIVE_IDLE: Duration = Duration::from_secs(5);
/// Default for [`crate::ServeConfig::read_timeout`]: a
/// started-but-incomplete request must finish within this, else `408`.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// Default for [`crate::ServeConfig::write_timeout`]: a connection whose
/// peer accepts no response byte for this long is dropped.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// The three connection deadlines, resolved from [`crate::ServeConfig`].
#[derive(Debug, Clone, Copy)]
struct Deadlines {
    idle: Duration,
    read: Duration,
    write: Duration,
}

/// Soft cap on buffered unparsed request bytes per connection; reading
/// pauses (level-triggered readiness resumes it) once reached.
const READ_BUF_CAP: usize = 2 * 1024 * 1024;
const READ_CHUNK: usize = 8 * 1024;

const WAKER_TOKEN: usize = 0;
const LISTENER_TOKEN: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// What a dispatched request needs to fan its response back out.
#[derive(Debug)]
pub(crate) struct ConnWaiter {
    token: usize,
    hex: String,
    close: bool,
}

/// One client connection's state.
struct Conn {
    token: usize,
    stream: TcpStream,
    peer: IpAddr,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// A request from this connection is dispatched; parsing pauses until
    /// its response is queued (pipelined responses stay ordered).
    processing: bool,
    /// Close once `write_buf` drains; no further reads or parses.
    pending_close: bool,
    /// Peer half-closed; buffered complete requests are still served.
    eof: bool,
    /// When the currently-buffered partial request started arriving.
    request_start: Option<Instant>,
    last_progress: Instant,
    interest: Interest,
}

impl Conn {
    fn write_pending(&self) -> bool {
        self.written < self.write_buf.len()
    }

    fn deadline(&self, deadlines: &Deadlines) -> Option<Instant> {
        if self.write_pending() {
            Some(self.last_progress + deadlines.write)
        } else if self.processing {
            None
        } else if let Some(start) = self.request_start {
            Some(start + deadlines.read)
        } else {
            Some(self.last_progress + deadlines.idle)
        }
    }
}

/// The loop itself; constructed by [`crate::server::start`] and run on the
/// `serve-loop` thread until shutdown.
pub(crate) struct EventLoop {
    state: Arc<ServiceState>,
    poller: Poller,
    wake_reader: WakeReader,
    listener: TcpListener,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    dispatcher: Dispatcher<ConnWaiter>,
    limiter: Option<RateLimiter>,
    max_conns: usize,
    deadlines: Deadlines,
    /// Design-stream subscribers: sweep digest hex → connection tokens
    /// receiving that sweep's chunked NDJSON frames.
    design_subs: HashMap<String, Vec<usize>>,
}

impl EventLoop {
    pub(crate) fn new(
        state: Arc<ServiceState>,
        listener: TcpListener,
        wake_reader: WakeReader,
    ) -> io::Result<Self> {
        let mut poller = Poller::new()?;
        poller.register(wake_reader.raw_fd(), WAKER_TOKEN, Interest::READ)?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ)?;
        let dispatcher = Dispatcher::new(state.config.max_inflight);
        let limiter = state.config.rate_limit.map(RateLimiter::new);
        let max_conns = state.config.queue_capacity.max(1);
        let deadlines = Deadlines {
            idle: state.config.keep_alive_idle,
            read: state.config.read_timeout,
            write: state.config.write_timeout,
        };
        Ok(Self {
            state,
            poller,
            wake_reader,
            listener,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            dispatcher,
            limiter,
            max_conns,
            deadlines,
            design_subs: HashMap::new(),
        })
    }

    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            let timeout = self.next_timeout();
            let _ = self.poller.wait(&mut events, timeout);
            if self.state.shutdown.load(Ordering::Acquire) {
                break;
            }
            let batch: Vec<Event> = std::mem::take(&mut events);
            for event in batch {
                match event.token {
                    WAKER_TOKEN => {
                        self.wake_reader.drain();
                        self.drain_completions();
                        self.drain_design_events();
                    }
                    LISTENER_TOKEN => self.accept_ready(),
                    token => {
                        if event.hangup && !event.readable {
                            self.close_conn(token);
                            continue;
                        }
                        if event.readable {
                            self.conn_readable(token);
                        }
                        if event.writable {
                            self.conn_writable(token);
                        }
                    }
                }
            }
            self.sweep_deadlines();
        }
        // Immediate teardown: connections reset, waiters dropped with the
        // dispatcher (workers finish their current job into an unread
        // mailbox).
        for (_, conn) in self.conns.drain() {
            self.poller.deregister(conn.stream.as_raw_fd());
        }
        self.state
            .metrics
            .connections_open
            .store(0, Ordering::Relaxed);
    }

    /// Nearest per-connection deadline, as a wait timeout.
    fn next_timeout(&self) -> Option<Duration> {
        let nearest = self
            .conns
            .values()
            .filter_map(|conn| conn.deadline(&self.deadlines))
            .min()?;
        Some(nearest.saturating_duration_since(Instant::now()))
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, addr)) => {
                    if self.conns.len() >= self.max_conns {
                        self.reject_overflow(stream);
                        continue;
                    }
                    self.add_conn(stream, addr.ip());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    /// Best-effort `503` for a connection over the cap: one non-blocking
    /// write, then drop — the loop never stalls on a rejected client (the
    /// old acceptor blocked here when the peer's receive window was full).
    fn reject_overflow(&self, stream: TcpStream) {
        ServiceMetrics::bump(&self.state.metrics.queue_rejections);
        let _ = stream.set_nonblocking(true);
        let bytes = error_response(&ServeError::Overloaded)
            .with_header("retry-after", "1")
            .serialize(true);
        let mut stream = stream;
        let _ = io::Write::write(&mut stream, &bytes);
    }

    fn add_conn(&mut self, stream: TcpStream, peer: IpAddr) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            return;
        }
        self.conns.insert(
            token,
            Conn {
                token,
                stream,
                peer,
                read_buf: Vec::new(),
                write_buf: Vec::new(),
                written: 0,
                processing: false,
                pending_close: false,
                eof: false,
                request_start: None,
                last_progress: Instant::now(),
                interest: Interest::READ,
            },
        );
        self.state
            .metrics
            .connections_open
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    fn close_conn(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            self.drop_conn(conn);
        }
    }

    fn drop_conn(&mut self, conn: Conn) {
        self.poller.deregister(conn.stream.as_raw_fd());
        self.state
            .metrics
            .connections_open
            .store(self.conns.len() as u64, Ordering::Relaxed);
    }

    /// Puts `conn` back in the map with fresh poller interest, or tears it
    /// down when `keep` is false.
    fn settle(&mut self, mut conn: Conn, keep: bool) {
        if keep {
            self.update_interest(&mut conn);
            self.conns.insert(conn.token, conn);
        } else {
            self.drop_conn(conn);
        }
    }

    fn conn_readable(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let keep = self.do_read(&mut conn) && self.advance(&mut conn) && self.flush(&mut conn);
        self.settle(conn, keep);
    }

    fn conn_writable(&mut self, token: usize) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let keep = self.flush(&mut conn);
        self.settle(conn, keep);
    }

    /// Reads until `WouldBlock`, EOF or the buffer cap; false = fatal error.
    fn do_read(&mut self, conn: &mut Conn) -> bool {
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.read_buf.len() >= READ_BUF_CAP {
                // Level-triggered readiness re-delivers once parsing drains.
                return true;
            }
            match io::Read::read(&mut conn.stream, &mut chunk) {
                Ok(0) => {
                    conn.eof = true;
                    return true;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parses and handles buffered requests until the buffer runs dry, a
    /// request dispatches (`processing`), or the connection starts closing.
    fn advance(&mut self, conn: &mut Conn) -> bool {
        while !conn.processing && !conn.pending_close {
            match parse_request(&conn.read_buf) {
                Ok(ParseStatus::Complete { request, consumed }) => {
                    conn.read_buf.drain(..consumed);
                    conn.request_start = None;
                    self.handle_request(conn, &request);
                }
                Ok(ParseStatus::Partial) => {
                    if conn.eof {
                        // Peer half-closed mid-request (or cleanly with an
                        // empty buffer): nothing more can complete.
                        conn.pending_close = true;
                    } else if !conn.read_buf.is_empty() && conn.request_start.is_none() {
                        conn.request_start = Some(Instant::now());
                    }
                    break;
                }
                Err(e) => {
                    ServiceMetrics::bump(&self.state.metrics.http_requests);
                    let response = match e {
                        HttpError::PayloadTooLarge => {
                            Response::error(413, "request body too large")
                        }
                        HttpError::BadRequest(msg) => Response::error(400, &msg),
                    };
                    conn.read_buf.clear();
                    self.queue_response(conn, response, true);
                    break;
                }
            }
        }
        true
    }

    fn handle_request(&mut self, conn: &mut Conn, request: &Request) {
        ServiceMetrics::bump(&self.state.metrics.http_requests);
        let close = request.wants_close() || self.state.shutdown.load(Ordering::Acquire);
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/evaluate") => {
                self.handle_compute(conn, request, close, CacheOp::Evaluate)
            }
            ("POST", "/v1/search") => self.handle_compute(conn, request, close, CacheOp::Search),
            ("POST", "/v1/design") => self.handle_design(conn, request),
            ("GET", path) if path.starts_with("/v1/reports/") => {
                let response = self.replay_nonblocking(path);
                self.queue_response(conn, response, close);
            }
            _ => {
                let response = route(request, &self.state);
                self.queue_response(conn, response, close);
            }
        }
    }

    /// `GET /v1/reports/{digest}` without blocking the loop: a digest whose
    /// computation is still in flight reads as not-yet-cached.
    fn replay_nonblocking(&self, path: &str) -> Response {
        let raw = path.trim_start_matches("/v1/reports/");
        let Some(parsed) = bitwave::digest::Digest::parse(raw) else {
            return error_response(&ServeError::BadRequest(format!(
                "`{raw}` is not a 32-hex-char digest"
            )));
        };
        let hex = parsed.to_hex();
        match self.state.cache.try_replay(parsed) {
            Some((body, outcome)) => {
                ServiceMetrics::bump(&self.state.metrics.report_replays);
                Response::json(200, body.as_bytes().to_vec())
                    .with_header("x-bitwave-cache", outcome.as_str())
                    .with_header("x-bitwave-digest", hex)
            }
            None => error_response(&ServeError::NotFound(format!(
                "no cached report for digest `{hex}`"
            ))),
        }
    }

    /// The compute path: normalise → rate-limit → cache probe → dispatch.
    fn handle_compute(&mut self, conn: &mut Conn, request: &Request, close: bool, op: CacheOp) {
        let normalized = EvaluateRequest::from_json(&request.body).and_then(|r| match op {
            CacheOp::Evaluate => r.normalize().and_then(|n| {
                let digest = n.key.digest()?;
                Ok((digest, JobKind::Evaluate(Box::new(n))))
            }),
            CacheOp::Search => r.normalize_search().and_then(|n| {
                let digest = n.key.digest()?;
                Ok((digest, JobKind::Search(Box::new(n))))
            }),
        });
        let (digest, kind) = match normalized {
            Ok(pair) => pair,
            Err(e) => {
                self.queue_response(conn, error_response(&e), close);
                return;
            }
        };
        if let Some(limiter) = &mut self.limiter {
            let now = Instant::now();
            if !limiter.allow(conn.peer, now) {
                let retry = limiter.retry_after_secs(conn.peer, now);
                ServiceMetrics::bump(&self.state.metrics.rate_limited);
                let response = error_response(&ServeError::RateLimited)
                    .with_header("retry-after", retry.to_string());
                self.queue_response(conn, response, close);
                return;
            }
        }
        let hex = digest.to_hex();
        if let Some((body, outcome)) = self.state.cache.probe(op, digest) {
            let response = Response::json(200, body.as_bytes().to_vec())
                .with_header("x-bitwave-cache", outcome.as_str())
                .with_header("x-bitwave-digest", hex);
            self.queue_response(conn, response, close);
            return;
        }
        let waiter = ConnWaiter {
            token: conn.token,
            hex,
            close,
        };
        match self.dispatcher.submit(digest, kind, waiter) {
            Placement::Dispatch(job) => {
                ServiceMetrics::bump(&self.state.metrics.batch_dispatches);
                self.state.jobs.push(job);
                conn.processing = true;
            }
            Placement::Rider => conn.processing = true,
            Placement::Shed => {
                ServiceMetrics::bump(&self.state.metrics.sheds);
                let response =
                    error_response(&ServeError::Overloaded).with_header("retry-after", "1");
                self.queue_response(conn, response, close);
            }
        }
        self.state
            .metrics
            .inflight_depth
            .store(self.dispatcher.inflight() as u64, Ordering::Relaxed);
    }

    /// `POST /v1/design`: a completed sweep replays from the store as one
    /// final NDJSON line; otherwise the connection subscribes to the (new
    /// or already-running) sweep's stream of partial-front frames.  Either
    /// way the response is chunked, `connection: close`, and tagged with
    /// the sweep digest.
    fn handle_design(&mut self, conn: &mut Conn, request: &Request) {
        let config = match crate::design::parse_design(&request.body) {
            Ok(config) => config,
            Err(e) => {
                self.queue_response(conn, error_response(&e), true);
                return;
            }
        };
        let sweep = config.digest().to_hex();
        let mut head = Response::json(200, Vec::new()).with_header("x-bitwave-sweep", &*sweep);
        head.content_type = "application/x-ndjson";
        if let Some(line) = self.state.design.replay(&sweep) {
            conn.write_buf
                .extend_from_slice(&head.serialize_chunked_head(true));
            conn.write_buf
                .extend_from_slice(&chunk_frame(format!("{line}\n").as_bytes()));
            conn.write_buf.extend_from_slice(LAST_CHUNK);
            conn.pending_close = true;
            return;
        }
        DesignHub::ensure_running(&self.state, config, sweep.clone());
        conn.write_buf
            .extend_from_slice(&head.serialize_chunked_head(true));
        // `processing` pauses request parsing and suspends the idle/read
        // deadlines for the lifetime of the stream; the write deadline
        // still drops a subscriber that stops draining frames.
        conn.processing = true;
        self.design_subs.entry(sweep).or_default().push(conn.token);
    }

    /// Fans queued design-sweep events out to their subscriber streams.
    fn drain_design_events(&mut self) {
        for event in self.state.design.drain_events() {
            match event {
                DesignEvent::Frame { sweep, line } => {
                    let Some(tokens) = self.design_subs.get(&sweep).cloned() else {
                        continue; // no subscribers (all died); sweep persists anyway
                    };
                    let frame = chunk_frame(format!("{line}\n").as_bytes());
                    let alive: Vec<usize> = tokens
                        .into_iter()
                        .filter(|&token| self.push_stream_bytes(token, &frame, false))
                        .collect();
                    if alive.is_empty() {
                        self.design_subs.remove(&sweep);
                    } else {
                        self.design_subs.insert(sweep, alive);
                    }
                }
                DesignEvent::Final { sweep, line } => {
                    let Some(tokens) = self.design_subs.remove(&sweep) else {
                        continue;
                    };
                    let mut bytes = chunk_frame(format!("{line}\n").as_bytes());
                    bytes.extend_from_slice(LAST_CHUNK);
                    for token in tokens {
                        self.push_stream_bytes(token, &bytes, true);
                    }
                }
            }
        }
    }

    /// Appends stream bytes to one subscriber and flushes; `finalize` ends
    /// the stream (the connection closes once the buffer drains).  Returns
    /// whether the connection is still alive and subscribed.
    fn push_stream_bytes(&mut self, token: usize, bytes: &[u8], finalize: bool) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else {
            return false;
        };
        conn.write_buf.extend_from_slice(bytes);
        if finalize {
            conn.processing = false;
            conn.pending_close = true;
        }
        let keep = self.flush(&mut conn);
        self.settle(conn, keep);
        keep && !finalize
    }

    fn queue_response(&self, conn: &mut Conn, response: Response, close: bool) {
        if response.status >= 300 {
            ServiceMetrics::bump(&self.state.metrics.http_errors);
        }
        conn.write_buf.extend_from_slice(&response.serialize(close));
        if close {
            conn.pending_close = true;
        }
    }

    /// Fans completed jobs back out to their waiting connections.
    fn drain_completions(&mut self) {
        for done in self.state.completions.drain() {
            let fan_out = self.dispatcher.complete(done);
            self.state
                .metrics
                .batch_requests
                .fetch_add(fan_out.len() as u64, Ordering::Relaxed);
            for served in fan_out {
                if served.rider {
                    // Riders shared the dispatch without touching the store;
                    // count them so per-op hits+misses+coalesced keeps
                    // matching request totals.
                    ServiceMetrics::bump(&self.state.metrics.batch_coalesced);
                    self.state.cache.stats(served.op).note_coalesced();
                }
                let ConnWaiter { token, hex, close } = served.waiter;
                let response = match served.result {
                    Ok((body, outcome)) => {
                        let outcome = if served.rider {
                            CacheOutcome::Coalesced
                        } else {
                            outcome
                        };
                        Response::json(200, body.as_bytes().to_vec())
                            .with_header("x-bitwave-cache", outcome.as_str())
                            .with_header("x-bitwave-digest", hex)
                            .with_header("x-bitwave-batch", served.batch_size.to_string())
                    }
                    Err(message) => error_response(&ServeError::Internal(message)),
                };
                let Some(mut conn) = self.conns.remove(&token) else {
                    continue; // connection died while computing
                };
                conn.processing = false;
                self.queue_response(&mut conn, response, close);
                let keep = self.advance(&mut conn) && self.flush(&mut conn);
                self.settle(conn, keep);
            }
            self.state
                .metrics
                .inflight_depth
                .store(self.dispatcher.inflight() as u64, Ordering::Relaxed);
        }
    }

    /// Writes as much of the response buffer as the socket takes; false =
    /// drop the connection (fatal error, or drained with a close pending).
    fn flush(&mut self, conn: &mut Conn) -> bool {
        while conn.write_pending() {
            match io::Write::write(&mut conn.stream, &conn.write_buf[conn.written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.written += n;
                    conn.last_progress = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        conn.write_buf.clear();
        conn.written = 0;
        !conn.pending_close
    }

    fn update_interest(&mut self, conn: &mut Conn) {
        let desired = Interest {
            read: !conn.processing && !conn.pending_close && conn.read_buf.len() < READ_BUF_CAP,
            write: conn.write_pending(),
        };
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    /// Enforces idle, read and write deadlines across all connections.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let mut drop_tokens = Vec::new();
        let mut timeout_tokens = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.write_pending() {
                if now >= conn.last_progress + self.deadlines.write {
                    ServiceMetrics::bump(&self.state.metrics.stalled_writer_dropped);
                    drop_tokens.push(token);
                }
            } else if conn.processing {
                // The response is coming; no deadline of its own.
            } else if let Some(start) = conn.request_start {
                if now >= start + self.deadlines.read {
                    timeout_tokens.push(token);
                }
            } else if conn.pending_close {
                // Response drained with close pending: a normal completion,
                // not an idle expiry.
                drop_tokens.push(token);
            } else if now >= conn.last_progress + self.deadlines.idle {
                ServiceMetrics::bump(&self.state.metrics.idle_closed);
                drop_tokens.push(token);
            }
        }
        for token in drop_tokens {
            self.close_conn(token);
        }
        for token in timeout_tokens {
            let Some(mut conn) = self.conns.remove(&token) else {
                continue;
            };
            ServiceMetrics::bump(&self.state.metrics.request_timeout_408);
            conn.read_buf.clear();
            conn.request_start = None;
            self.queue_response(
                &mut conn,
                Response::error(408, "request incomplete; closing"),
                true,
            );
            let keep = self.flush(&mut conn);
            self.settle(conn, keep);
        }
    }
}
