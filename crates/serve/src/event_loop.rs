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
//!
//! A compute request (`POST /v1/evaluate`, `/v1/search`, `/v1/design`)
//! needs its report digest before the cache can answer it.  For evaluate
//! and search the loop first looks the exact body bytes up in the service's
//! body memo ([`crate::memo`]); a body it resolved before goes straight to
//! the rate limiter and the cache probe.  Any other body is parsed,
//! normalised and digested, and recorded once it normalises.  A cached
//! report is shared with the cache up to the connection's write buffer,
//! where its bytes are copied once, right after the response head.
//!
//! A design request is parsed every time (its digest hashes the whole sweep
//! config), then takes the same limiter → probe → dispatch path.  Its
//! response is a chunked NDJSON stream: while the sweep runs on a worker,
//! each partial front the worker posts is written to the connections then
//! waiting on the sweep's digest, and the completion writes the final line
//! and closes every stream.

use crate::admission::RateLimiter;
use crate::batch::{Completion, Dispatcher, JobDone, JobKind, Placement};
use crate::cache::{CacheOp, CacheOutcome};
use crate::design::{error_line, parse_design};
use crate::error::ServeError;
use crate::http::{
    chunk_frame, parse_request, HttpError, ParseStatus, Request, Response, LAST_CHUNK,
};
use crate::metrics::ServiceMetrics;
use crate::poller::{Event, Interest, Poller, WakeReader};
use crate::server::{error_response, route, ServiceState};
use crate::EvaluateRequest;
use bitwave::digest::Digest;
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
        let mut bytes = Vec::new();
        error_response(&ServeError::Overloaded)
            .with_header("retry-after", "1")
            .write_to(true, &mut bytes);
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
                report_response(body, outcome, hex)
            }
            None => error_response(&ServeError::NotFound(format!(
                "no cached report for digest `{hex}`"
            ))),
        }
    }

    /// The evaluate/search path (`op` is one of the two): body → digest →
    /// rate-limit → cache probe → dispatch.  A body the memo recorded skips parsing, normalising and
    /// digesting; one the memo does not know, or whose report is in neither
    /// cache tier, takes the full path, and the memo records it once it
    /// normalises.
    fn handle_compute(&mut self, conn: &mut Conn, request: &Request, close: bool, op: CacheOp) {
        let remembered = self.state.memo.lookup(op, &request.body);
        if let Some(digest) = remembered {
            if !self.admit(conn, close) || self.answer_cached(conn, op, digest, close) {
                return;
            }
        }
        let normalized = EvaluateRequest::from_json(&request.body).and_then(|r| {
            if op == CacheOp::Evaluate {
                let n = r.normalize()?;
                Ok((n.key.digest()?, JobKind::Evaluate(Box::new(n))))
            } else {
                let n = r.normalize_search()?;
                Ok((n.key.digest()?, JobKind::Search(Box::new(n))))
            }
        });
        let (digest, kind) = match normalized {
            Ok(pair) => pair,
            Err(e) => {
                self.queue_response(conn, error_response(&e), close);
                return;
            }
        };
        if remembered.is_none() {
            self.state.memo.remember(op, &request.body, digest);
            if !self.admit(conn, close) || self.answer_cached(conn, op, digest, close) {
                return;
            }
        }
        self.dispatch(conn, digest, kind, close);
    }

    /// Hands a cache-missing request to the dispatcher: it rides the job in
    /// flight for `digest`, dispatches a job of its own, or is shed with
    /// `503` + `Retry-After`.  Returns whether the connection now waits on
    /// a job (`processing`).
    fn dispatch(&mut self, conn: &mut Conn, digest: Digest, kind: JobKind, close: bool) -> bool {
        let waiter = ConnWaiter {
            token: conn.token,
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
        conn.processing
    }

    /// Spends one of the peer's rate-limit tokens; without one, queues
    /// `429` + `Retry-After` and returns false.
    fn admit(&mut self, conn: &mut Conn, close: bool) -> bool {
        let Some(limiter) = &mut self.limiter else {
            return true;
        };
        let now = Instant::now();
        if limiter.allow(conn.peer, now) {
            return true;
        }
        let retry = limiter.retry_after_secs(conn.peer, now);
        ServiceMetrics::bump(&self.state.metrics.rate_limited);
        let response =
            error_response(&ServeError::RateLimited).with_header("retry-after", retry.to_string());
        self.queue_response(conn, response, close);
        false
    }

    /// Queues the cached report for `digest` if either tier holds it.
    fn answer_cached(&self, conn: &mut Conn, op: CacheOp, digest: Digest, close: bool) -> bool {
        let Some((body, outcome)) = self.state.cache.probe(op, digest) else {
            return false;
        };
        self.queue_response(conn, report_response(body, outcome, digest.to_hex()), close);
        true
    }

    /// `POST /v1/design`: after the rate limiter, a completed sweep replays
    /// from the store as one final NDJSON line; otherwise the connection
    /// waits on the sweep's job (new or already running) and receives its
    /// partial-front frames as they land.  Either way the response is
    /// chunked, `connection: close`, and tagged with the sweep digest.  A
    /// shed sweep answers a plain `503` instead.
    fn handle_design(&mut self, conn: &mut Conn, request: &Request) {
        let config = match parse_design(&request.body) {
            Ok(config) => config,
            Err(e) => {
                self.queue_response(conn, error_response(&e), true);
                return;
            }
        };
        if !self.admit(conn, true) {
            return;
        }
        let sweep = config.digest().to_hex();
        let digest = Digest::of_bytes(format!("design:{sweep}").as_bytes());
        let mut head = Response::json(200, String::new()).with_header("x-bitwave-sweep", sweep);
        head.content_type = "application/x-ndjson";
        if let Some((line, _)) = self.state.cache.probe(CacheOp::Design, digest) {
            head.write_chunked_head(true, &mut conn.write_buf);
            end_stream(conn, &line);
            return;
        }
        // `processing` pauses request parsing and suspends the idle/read
        // deadlines for the lifetime of the stream; the write deadline
        // still drops a waiter that stops draining frames.
        if self.dispatch(conn, digest, JobKind::Design(Box::new(config)), true) {
            head.write_chunked_head(true, &mut conn.write_buf);
        }
    }

    fn queue_response(&self, conn: &mut Conn, response: Response, close: bool) {
        if response.status >= 300 {
            ServiceMetrics::bump(&self.state.metrics.http_errors);
        }
        response.write_to(close, &mut conn.write_buf);
        if close {
            conn.pending_close = true;
        }
    }

    /// Streams posted frames and fans completed jobs back out to their
    /// waiting connections.
    fn drain_completions(&mut self) {
        for completion in self.state.completions.drain() {
            match completion {
                Completion::Frame { digest, line } => self.stream_frame(digest, &line),
                Completion::Done(done) => self.complete(done),
            }
        }
    }

    /// Writes one partial-front frame to every connection waiting on the
    /// sweep, and detaches those whose connection is gone.
    fn stream_frame(&mut self, digest: Digest, line: &str) {
        let frame = chunk_frame(format!("{line}\n").as_bytes());
        let tokens: Vec<usize> = self.dispatcher.waiters(digest).map(|w| w.token).collect();
        let dead: Vec<usize> = tokens
            .into_iter()
            .filter(|&token| !self.push_stream_bytes(token, &frame))
            .collect();
        if !dead.is_empty() {
            self.dispatcher
                .retain(digest, |waiter| !dead.contains(&waiter.token));
        }
    }

    /// Appends stream bytes to one connection and flushes; returns whether
    /// the connection is still alive.
    fn push_stream_bytes(&mut self, token: usize, bytes: &[u8]) -> bool {
        let Some(mut conn) = self.conns.remove(&token) else {
            return false;
        };
        conn.write_buf.extend_from_slice(bytes);
        let keep = self.flush(&mut conn);
        self.settle(conn, keep);
        keep
    }

    /// Fans one completed job back out to its waiting connections.
    fn complete(&mut self, done: JobDone) {
        let hex = done.digest.to_hex();
        let fan_out = self.dispatcher.complete(done);
        self.state
            .metrics
            .batch_requests
            .fetch_add(fan_out.len() as u64, Ordering::Relaxed);
        for served in fan_out {
            if served.rider {
                // Riders shared the dispatch without touching the store;
                // count them so per-op hits+misses+coalesced keeps matching
                // request totals.
                ServiceMetrics::bump(&self.state.metrics.batch_coalesced);
                self.state.cache.stats(served.op).note_coalesced();
            }
            let Some(mut conn) = self.conns.remove(&served.waiter.token) else {
                continue; // connection died while computing
            };
            conn.processing = false;
            match (served.op, served.result) {
                (CacheOp::Design, Ok((line, _))) => end_stream(&mut conn, &line),
                (CacheOp::Design, Err(message)) => end_stream(&mut conn, &error_line(&message)),
                (_, Ok((body, outcome))) => {
                    let outcome = if served.rider {
                        CacheOutcome::Coalesced
                    } else {
                        outcome
                    };
                    let response = report_response(body, outcome, hex.clone())
                        .with_header("x-bitwave-batch", served.batch_size.to_string());
                    self.queue_response(&mut conn, response, served.waiter.close);
                }
                (_, Err(message)) => self.queue_response(
                    &mut conn,
                    error_response(&ServeError::Internal(message)),
                    served.waiter.close,
                ),
            }
            let keep = self.advance(&mut conn) && self.flush(&mut conn);
            self.settle(conn, keep);
        }
        self.state
            .metrics
            .inflight_depth
            .store(self.dispatcher.inflight() as u64, Ordering::Relaxed);
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

/// Ends a design stream with its final NDJSON line; the connection closes
/// once the buffer drains.
fn end_stream(conn: &mut Conn, line: &str) {
    conn.write_buf
        .extend_from_slice(&chunk_frame(format!("{line}\n").as_bytes()));
    conn.write_buf.extend_from_slice(LAST_CHUNK);
    conn.pending_close = true;
}

/// A `200` report answer: the cached body, shared with the cache, tagged
/// with how the cache answered and the report digest.
fn report_response(body: Arc<String>, outcome: CacheOutcome, hex: String) -> Response {
    Response::json(200, body)
        .with_header("x-bitwave-cache", outcome.as_str())
        .with_header("x-bitwave-digest", hex)
}

#[cfg(test)]
mod tests {
    use crate::cache::CacheOp;
    use crate::client::{Client, ClientResponse};
    use crate::server::{start, ServeConfig, ServerHandle};
    use bitwave::digest::Digest;

    const BODY: &str = r#"{"model":"resnet18","sample_cap":400}"#;

    fn server(rate_limit: Option<u32>) -> ServerHandle {
        start(ServeConfig {
            workers: 2,
            rate_limit,
            ..ServeConfig::default()
        })
        .unwrap()
    }

    fn post(client: &mut Client, path: &str, body: &str) -> ClientResponse {
        client.post_json(path, body).unwrap()
    }

    fn digest_of(response: &ClientResponse) -> Digest {
        Digest::parse(response.header("x-bitwave-digest").unwrap()).unwrap()
    }

    #[test]
    fn a_repeated_body_is_answered_from_the_memo_like_the_full_path() {
        let handle = server(None);
        let memo = &handle.state().memo;
        let mut client = Client::new(handle.local_addr());
        let cold = post(&mut client, "/v1/evaluate", BODY);
        assert_eq!(cold.header("x-bitwave-cache"), Some("miss"));
        assert_eq!((memo.len(), memo.hits()), (1, 0));
        // The same key in other bytes takes the full path to a cache hit.
        let respaced = post(
            &mut client,
            "/v1/evaluate",
            r#"{ "sample_cap": 400, "model": "ResNet18" }"#,
        );
        assert_eq!(respaced.header("x-bitwave-cache"), Some("hit"));
        assert_eq!((memo.len(), memo.hits()), (2, 0));
        // The original bytes again: a memo hit, answered byte for byte like
        // the full path's hit.
        let memoised = post(&mut client, "/v1/evaluate", BODY);
        assert_eq!(memo.hits(), 1);
        assert_eq!(memoised.status, 200);
        assert_eq!(memoised.headers, respaced.headers);
        assert_eq!(memoised.body, respaced.body);
        assert_eq!(memoised.body, cold.body);
        handle.shutdown();
    }

    #[test]
    fn a_memoised_body_whose_report_was_evicted_is_computed_again() {
        let handle = start(ServeConfig {
            workers: 2,
            cache_capacity: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        let memo = &handle.state().memo;
        let mut client = Client::new(handle.local_addr());
        let cold = post(&mut client, "/v1/evaluate", BODY);
        // A second report evicts the first from the one-entry cache.
        let other = r#"{"model":"resnet18","sample_cap":400,"seed":2}"#;
        assert_eq!(post(&mut client, "/v1/evaluate", other).status, 200);
        let again = post(&mut client, "/v1/evaluate", BODY);
        assert_eq!(memo.hits(), 1);
        assert_eq!(again.header("x-bitwave-cache"), Some("miss"));
        assert_eq!(digest_of(&again), digest_of(&cold));
        assert_eq!(again.body, cold.body);
        handle.shutdown();
    }

    #[test]
    fn an_invalid_body_is_answered_400_every_time_and_never_recorded() {
        let handle = server(None);
        let memo = &handle.state().memo;
        let mut client = Client::new(handle.local_addr());
        for body in [
            r#"{"model":"no-such-net"}"#,
            r#"{"model":"#,
            r#"{"model":"resnet18","seed":-1}"#,
        ] {
            let first = post(&mut client, "/v1/evaluate", body);
            let second = post(&mut client, "/v1/evaluate", body);
            assert_eq!(first.status, 400, "{body}");
            assert_eq!(second.headers, first.headers);
            assert_eq!(second.body, first.body);
        }
        assert_eq!((memo.len(), memo.hits()), (0, 0));
        handle.shutdown();
    }

    #[test]
    fn one_body_under_evaluate_and_search_never_aliases() {
        let handle = server(None);
        let memo = &handle.state().memo;
        let mut client = Client::new(handle.local_addr());
        let evaluate = post(&mut client, "/v1/evaluate", BODY);
        let search = post(&mut client, "/v1/search", BODY);
        assert_eq!(search.header("x-bitwave-cache"), Some("miss"));
        assert_ne!(digest_of(&search), digest_of(&evaluate));
        assert_eq!((memo.len(), memo.hits()), (2, 0));
        let replayed = [
            post(&mut client, "/v1/evaluate", BODY),
            post(&mut client, "/v1/search", BODY),
        ];
        assert_eq!(memo.hits(), 2);
        assert_eq!(replayed[0].body, evaluate.body);
        assert_eq!(replayed[1].body, search.body);
        handle.shutdown();
    }

    #[test]
    fn memoised_bodies_still_spend_rate_limit_tokens() {
        let handle = server(Some(2));
        let memo = &handle.state().memo;
        let mut client = Client::new(handle.local_addr());
        assert_eq!(post(&mut client, "/v1/evaluate", BODY).status, 200);
        assert_eq!(post(&mut client, "/v1/evaluate", BODY).status, 200);
        let limited = post(&mut client, "/v1/evaluate", BODY);
        assert_eq!(memo.hits(), 2, "both repeats came from the memo");
        assert_eq!(limited.status, 429);
        assert!(limited.header("retry-after").is_some());
        handle.shutdown();
    }

    #[test]
    fn a_planted_collision_is_a_miss_not_another_report() {
        let handle = server(None);
        let memo = &handle.state().memo;
        let mut client = Client::new(handle.local_addr());
        let other_body = r#"{"model":"resnet18","sample_cap":400,"seed":2}"#;
        let cold = post(&mut client, "/v1/evaluate", BODY);
        let other = post(&mut client, "/v1/evaluate", other_body);
        // The key of BODY holds other bytes, then the same bytes under the
        // other op, each with the other report's digest: both are misses.
        let key = (CacheOp::Evaluate, BODY.as_bytes());
        for planted in [
            (CacheOp::Evaluate, other_body.as_bytes()),
            (CacheOp::Search, BODY.as_bytes()),
        ] {
            memo.plant(key, planted, digest_of(&other));
            let replayed = post(&mut client, "/v1/evaluate", BODY);
            assert_eq!(memo.hits(), 0);
            assert_eq!(replayed.header("x-bitwave-cache"), Some("hit"));
            assert_eq!(digest_of(&replayed), digest_of(&cold));
            assert_eq!(replayed.body, cold.body);
        }
        handle.shutdown();
    }
}
