//! The event-driven serving data plane.
//!
//! One thread runs a level-triggered epoll loop (via the vendored
//! [`polling`] crate) that owns every socket: it accepts connections,
//! reads request bytes into per-connection buffers, parses them
//! incrementally ([`crate::http::parse_request`]), and writes encoded
//! responses back out — all nonblocking. Compute never happens on this
//! thread: each parsed request is dispatched to the bounded worker pool,
//! and the finished response comes back over a channel (plus an eventfd
//! [`Waker`] nudge). HTTP/1.1 keep-alive and pipelining are native:
//! a connection can have many requests in flight, and responses are
//! reordered by sequence number so the wire order always matches the
//! request order.
//!
//! The backpressure ladder, from the outside in (see `docs/SERVING.md`):
//!
//! 1. **Connection budget** — beyond `--max-conns` open connections the
//!    accept handler answers `503` and closes (`chemcost_requests_shed_total`).
//! 2. **Compute queue** — a parsed request that cannot enter the worker
//!    pool's bounded queue gets a per-request `503`; the connection
//!    itself stays open (keep-alive preserved).
//! 3. **Parser limits** — oversized header lines (`431`) and bodies
//!    (`413`) are rejected mid-stream, before buffering the rest.
//! 4. **Write high-water mark** — a connection whose response backlog
//!    passes [`WRITE_HIGH_WATER`] stops being read until it drains, so
//!    a slow consumer cannot balloon server memory.
//!
//! Graceful drain: when `POST /v1/shutdown` is handled, the loop stops
//! accepting (the listener is closed), stops reading every connection,
//! forces `Connection: close` on every response still in flight, closes
//! idle keep-alive connections immediately, and exits once the last
//! response byte is flushed.
//!
//! The PR-4 chaos plane maps onto the loop without new semantics:
//! `saturate` sheds at accept, `slow-io` stalls the worker before
//! compute, `drop-conn` tears the response mid-status-line, and
//! `truncate-body` gives the connection a read budget after which the
//! client appears to die mid-upload.
//!
//! Every request additionally carries a [`TimelineBuilder`] (PR 8):
//! the loop stamps it at first byte, parse completion, worker dequeue,
//! handler return, reorder release, and last flushed byte, then folds
//! the completed timeline into the
//! `chemcost_request_stage_duration_seconds` histograms, the router's
//! [`crate::timeline::FlightRecorder`] (`GET /debug/requests`), and a
//! `request.timeline` obs event. The loop itself reports health series:
//! iteration duration, events per epoll wake, and gauges for
//! connections whose reads are paused by backpressure or whose writes
//! are stalled on the socket.

use crate::fault::{FaultKind, FaultPlane};
use crate::http::{encode_response_into, parse_request, HttpError, Request, Response};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::pool::ThreadPool;
use crate::routes::Router;
use crate::timeline::TimelineBuilder;
use polling::{Event, Interest, Poller, Waker};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::File;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on simultaneously open client connections
/// (`--max-conns`). Accepts beyond it are shed with `503`.
pub const DEFAULT_MAX_CONNS: usize = 1024;

/// Pause reading a connection whose unsent response bytes exceed this.
const WRITE_HIGH_WATER: usize = 256 * 1024;

/// Most requests one connection may have in flight (dispatched, not yet
/// responded). Bounds the reorder buffer under aggressive pipelining;
/// further pipelined bytes simply wait in the read buffer.
const MAX_PIPELINE: usize = 64;

/// Bytes read from a socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;

/// Poll timeout, which doubles as the idle-connection sweep cadence.
const SWEEP_INTERVAL: Duration = Duration::from_millis(250);

/// Poller key of the listening socket.
const KEY_LISTENER: usize = usize::MAX - 1;
/// Poller key of the cross-thread waker.
const KEY_WAKER: usize = usize::MAX;

/// Event-loop tuning, from the `Server` builder / CLI flags.
#[derive(Debug, Clone, Copy)]
pub struct EventLoopConfig {
    /// Open-connection budget; accepts beyond it are shed with `503`.
    pub max_conns: usize,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
}

impl Default for EventLoopConfig {
    fn default() -> EventLoopConfig {
        EventLoopConfig { max_conns: DEFAULT_MAX_CONNS, idle_timeout: Duration::from_secs(5) }
    }
}

/// A finished request riding back from a worker to the loop.
struct Done {
    token: usize,
    seq: u64,
    response: Response,
    keep_alive: bool,
    /// The request's timeline, stamped by the worker; `None` for
    /// loop-synthesized responses (parse errors, queue-full sheds).
    timeline: Option<Box<TimelineBuilder>>,
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Bytes received, not yet parsed into a complete request.
    read_buf: Vec<u8>,
    /// Encoded responses not yet accepted by the socket.
    write_buf: Vec<u8>,
    /// Sequence number for the next parsed request.
    next_seq: u64,
    /// Sequence number of the next response to encode — responses
    /// finishing out of order wait in `done` until their turn.
    next_flush: u64,
    done: BTreeMap<u64, (Response, bool, Option<Box<TimelineBuilder>>)>,
    /// Requests dispatched to workers, response not yet applied.
    in_flight: usize,
    /// Requests parsed on this connection (for the keep-alive metric).
    requests: u64,
    /// When the first byte of the *next* request landed in `read_buf`.
    /// Taken at parse completion; the `read` timeline stage starts here.
    req_first_byte: Option<Instant>,
    /// Total response bytes ever appended to `write_buf`.
    bytes_enqueued: u64,
    /// Total response bytes the socket has accepted.
    bytes_flushed: u64,
    /// Timelines of encoded responses, keyed by the `bytes_enqueued`
    /// offset at which each response ends — once `bytes_flushed` passes
    /// that offset, the response's last byte is on the wire and the
    /// timeline completes.
    pending_timelines: VecDeque<(u64, Box<TimelineBuilder>)>,
    /// Mirror of the `chemcost_connections_read_paused` gauge.
    read_paused: bool,
    /// Mirror of the `chemcost_connections_write_stalled` gauge.
    write_stalled: bool,
    /// Stop reading; close once flushed and nothing is in flight.
    closing: bool,
    /// Chaos `drop-conn`: close as soon as the (torn) buffer is flushed,
    /// discarding any responses still in flight.
    abort: bool,
    /// The peer half-closed its sending side (read returned 0).
    peer_closed: bool,
    /// Chaos `truncate-body`: remaining bytes we pretend the client
    /// still managed to send before dying.
    read_budget: Option<usize>,
    /// What the poller currently watches for this socket.
    registered: Option<Interest>,
    /// Last moment this connection made progress (for the idle sweep).
    idle_since: Instant,
}

impl Conn {
    fn new(stream: TcpStream, read_budget: Option<usize>) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            next_seq: 0,
            next_flush: 0,
            done: BTreeMap::new(),
            in_flight: 0,
            requests: 0,
            req_first_byte: None,
            bytes_enqueued: 0,
            bytes_flushed: 0,
            pending_timelines: VecDeque::new(),
            read_paused: false,
            write_stalled: false,
            closing: false,
            abort: false,
            peer_closed: false,
            read_budget,
            registered: None,
            idle_since: Instant::now(),
        }
    }

    /// Append response bytes to the wire buffer. Every append MUST go
    /// through here: `bytes_enqueued` offsets key `pending_timelines`,
    /// so a raw `write_buf` push would desync write-stage attribution.
    fn enqueue_bytes(&mut self, bytes: &[u8]) {
        self.write_buf.extend_from_slice(bytes);
        self.bytes_enqueued += bytes.len() as u64;
    }

    /// Serialize a response straight into the wire buffer — no
    /// intermediate allocation; the buffer's capacity is reused across
    /// every response on this connection. Same `bytes_enqueued`
    /// bookkeeping contract as [`Conn::enqueue_bytes`].
    fn enqueue_response(&mut self, response: &Response, keep_alive: bool) {
        let before = self.write_buf.len();
        encode_response_into(response, keep_alive, &mut self.write_buf);
        self.bytes_enqueued += (self.write_buf.len() - before) as u64;
    }

    /// Should this connection be torn down right now?
    fn finished(&self) -> bool {
        if self.abort {
            return self.write_buf.is_empty();
        }
        if self.closing {
            return self.write_buf.is_empty() && self.in_flight == 0 && self.done.is_empty();
        }
        // Peer gone, nothing left to answer: nothing to wait for.
        self.peer_closed && self.write_buf.is_empty() && self.in_flight == 0 && self.done.is_empty()
    }

    /// The poller interest this connection's state calls for. `None`
    /// means the socket needs no watching (e.g. only waiting on worker
    /// completions) and should be deregistered.
    fn desired_interest(&self) -> Option<Interest> {
        let want_read = !self.closing
            && !self.abort
            && !self.peer_closed
            && self.in_flight < MAX_PIPELINE
            && self.write_buf.len() < WRITE_HIGH_WATER;
        let want_write = !self.write_buf.is_empty();
        match (want_read, want_write) {
            (true, true) => Some(Interest::Both),
            (true, false) => Some(Interest::Read),
            (false, true) => Some(Interest::Write),
            (false, false) => None,
        }
    }
}

/// Everything the loop thread needs in one place.
struct Loop<'a> {
    poller: Poller,
    waker: Arc<Waker>,
    listener: Option<TcpListener>,
    router: Router,
    metrics: Arc<Metrics>,
    pool: &'a ThreadPool,
    faults: Option<Arc<FaultPlane>>,
    config: EventLoopConfig,
    conns: HashMap<usize, Conn>,
    next_token: usize,
    done_tx: Sender<Done>,
    done_rx: Receiver<Done>,
    /// Shutdown observed: listener closed, all responses forced
    /// `Connection: close`, loop exits when the last conn drains.
    draining: bool,
    /// One fd held in reserve so fd exhaustion (`EMFILE`/`ENFILE`) can
    /// be recovered: release it, accept the pending connection, close
    /// it immediately, reclaim it. See [`Loop::accept_failed`].
    fd_reserve: Option<File>,
}

/// Run the event loop until graceful drain completes. Owns the
/// listener; the worker `pool` and the router's installed [`Batcher`]
/// stay alive for the caller to join/shut down afterwards.
pub(crate) fn run(
    listener: TcpListener,
    router: Router,
    pool: &ThreadPool,
    faults: Option<Arc<FaultPlane>>,
    config: EventLoopConfig,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.register(listener.as_raw_fd(), KEY_LISTENER, Interest::Read)?;
    let waker = Arc::new(Waker::new(&poller, KEY_WAKER)?);
    let metrics = Arc::clone(router.metrics());
    let (done_tx, done_rx) = channel();
    let mut lp = Loop {
        poller,
        waker,
        listener: Some(listener),
        router,
        metrics,
        pool,
        faults,
        config,
        conns: HashMap::new(),
        next_token: 0,
        done_tx,
        done_rx,
        draining: false,
        fd_reserve: File::open("/dev/null").ok(),
    };
    let mut events: Vec<Event> = Vec::new();

    loop {
        events.clear();
        lp.poller.wait(&mut events, Some(SWEEP_INTERVAL))?;
        // Measured from after the wait: the histogram is time the loop
        // spends *working* per wake, not time parked in epoll.
        let iter_start = Instant::now();
        for ev in &events {
            match ev.key {
                KEY_WAKER => lp.waker.drain(),
                KEY_LISTENER => lp.accept_ready(),
                token => lp.conn_ready(token, ev),
            }
        }
        lp.drain_completions();
        lp.maybe_start_drain();
        lp.sweep_idle();
        lp.metrics.record_loop_iteration(iter_start.elapsed(), events.len());
        if lp.draining && lp.conns.is_empty() {
            return Ok(());
        }
    }
}

impl Loop<'_> {
    /// Accept until the listener would block, shedding over-budget and
    /// chaos-saturated connections with an immediate `503` + close.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                // The queued connection died before we reached it, or
                // the call was interrupted: the entry is consumed (or
                // nothing was), so trying the next one makes progress.
                Err(e)
                    if e.kind() == ErrorKind::ConnectionAborted
                        || e.kind() == ErrorKind::Interrupted =>
                {
                    continue
                }
                // Any other failure (fd exhaustion, ENOMEM, ...) would
                // fail identically on retry: do NOT loop in place, or
                // the whole data plane livelocks behind this listener.
                Err(e) => {
                    self.accept_failed(&e);
                    return;
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let saturated =
                self.faults.as_ref().is_some_and(|plane| plane.roll(FaultKind::Saturate));
            let over_budget = self.conns.len() >= self.config.max_conns;
            let read_budget = self.faults.as_ref().and_then(|plane| {
                plane.roll(FaultKind::TruncateBody).then(|| plane.truncate_after())
            });
            let token = self.next_token;
            self.next_token += 1;
            let mut conn = Conn::new(stream, read_budget);
            if saturated || over_budget {
                // Shed ladder rung 1: refuse before buffering anything.
                self.metrics.record_shed();
                chemcost_obs::event!(
                    chemcost_obs::Level::Warn,
                    "http.shed",
                    open_conns = self.conns.len(),
                    max_conns = self.config.max_conns,
                    shed_total = self.metrics.shed_total(),
                );
                let resp = Response::json(503, r#"{"error":"server overloaded"}"#);
                conn.enqueue_response(&resp, false);
                conn.closing = true;
            }
            self.metrics.inc_connections_open();
            self.conns.insert(token, conn);
            self.drive(token);
        }
    }

    /// A persistent `accept` failure. The caller returns to the main
    /// loop (the level-triggered poller re-reports the listener while
    /// the backlog is non-empty), so existing connections keep being
    /// serviced and the idle sweep keeps freeing fds.
    ///
    /// Fd exhaustion needs more than that: the pending connection is
    /// never dequeued by a failing `accept`, so the listener would stay
    /// ready and the loop would spin hot forever. Release the reserve
    /// fd, accept the connection into it, close it immediately (a
    /// budget-free shed), then reclaim the reserve — the backlog
    /// drains one entry per event-loop pass while starved.
    fn accept_failed(&mut self, e: &io::Error) {
        // Raw errno values (identical on Linux and the BSDs): std has
        // no stable `ErrorKind` for either.
        const ENFILE: i32 = 23;
        const EMFILE: i32 = 24;
        let fd_exhausted = matches!(e.raw_os_error(), Some(EMFILE) | Some(ENFILE));
        if fd_exhausted {
            self.fd_reserve = None;
            if let Some(listener) = &self.listener {
                if let Ok((stream, _)) = listener.accept() {
                    drop(stream); // immediate close: nothing buffered, nothing leaked
                    self.metrics.record_shed();
                }
            }
            self.fd_reserve = File::open("/dev/null").ok();
        }
        chemcost_obs::event!(
            chemcost_obs::Level::Warn,
            "http.accept_error",
            error = e.to_string(),
            fd_exhausted = fd_exhausted,
            open_conns = self.conns.len(),
        );
    }

    /// Handle readiness on one connection's socket.
    fn conn_ready(&mut self, token: usize, ev: &Event) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if ev.error && !ev.readable && !ev.writable {
            self.close(token);
            return;
        }
        if ev.readable {
            if !Self::fill_read_buf(conn) {
                self.close(token);
                return;
            }
            self.parse_available(token);
        }
        self.drive(token);
    }

    /// Pull bytes from the socket into the read buffer. Returns `false`
    /// when the connection is dead (hard error).
    fn fill_read_buf(conn: &mut Conn) -> bool {
        if conn.closing || conn.abort {
            return true; // ignore further client bytes
        }
        let mut chunk = [0u8; READ_CHUNK];
        loop {
            if conn.read_budget == Some(0) {
                // Chaos truncate-body: the client "died" mid-upload.
                conn.peer_closed = true;
                return true;
            }
            let cap = conn.read_budget.map_or(READ_CHUNK, |b| b.min(READ_CHUNK));
            match conn.stream.read(&mut chunk[..cap]) {
                Ok(0) => {
                    conn.peer_closed = true;
                    return true;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&chunk[..n]);
                    // The read stage of the next request starts at its
                    // first byte (a no-op mid-request).
                    conn.req_first_byte.get_or_insert_with(Instant::now);
                    if let Some(budget) = &mut conn.read_budget {
                        *budget -= n;
                    }
                    conn.idle_since = Instant::now();
                    // Backpressure: beyond the pipeline cap the rest of
                    // the bytes wait in the kernel buffer.
                    if conn.in_flight >= MAX_PIPELINE || conn.write_buf.len() >= WRITE_HIGH_WATER {
                        return true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Parse every complete request sitting in the read buffer and
    /// dispatch each to the worker pool (or answer parse errors
    /// directly). Pipelining lives here: the loop keeps going until the
    /// buffer holds no complete request.
    fn parse_available(&mut self, token: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.closing || conn.abort || conn.in_flight >= MAX_PIPELINE {
                return;
            }
            match parse_request(&conn.read_buf) {
                Ok(None) => return, // incomplete — wait for more bytes
                Ok(Some((req, consumed))) => {
                    conn.read_buf.drain(..consumed);
                    // This request's read stage ran from its first byte
                    // to now. Leftover bytes belong to the next
                    // pipelined request, whose clock starts immediately.
                    let first_byte = conn.req_first_byte.take().unwrap_or_else(Instant::now);
                    if !conn.read_buf.is_empty() {
                        conn.req_first_byte = Some(Instant::now());
                    }
                    conn.requests += 1;
                    if conn.requests > 1 {
                        self.metrics.record_keepalive_reuse();
                    }
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.in_flight += 1;
                    let keep_alive = req.keep_alive();
                    if !keep_alive {
                        // The client said close: answer this request,
                        // ignore anything pipelined behind it.
                        conn.closing = true;
                    }
                    self.dispatch(token, seq, req, keep_alive, first_byte);
                }
                Err(err) => {
                    // Rungs 3 of the shed ladder: the bytes are not (or
                    // cannot become) a servable request. Answer in
                    // sequence — pipelined predecessors still get their
                    // real responses first — then close.
                    let (status, msg) = match err {
                        HttpError::Malformed(msg) => (400, msg),
                        HttpError::Unsupported(status, msg) => (status, msg),
                        HttpError::Io(_) => {
                            self.close(token);
                            return;
                        }
                    };
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.in_flight += 1;
                    conn.closing = true;
                    let resp = Response::json(status, Json::obj([("error", msg.into())]).encode());
                    self.apply_done(Done {
                        token,
                        seq,
                        response: resp,
                        keep_alive: false,
                        timeline: None,
                    });
                    return;
                }
            }
        }
    }

    /// Hand one parsed request to the worker pool. A full compute queue
    /// is rung 2 of the shed ladder: this request gets a `503`, but the
    /// connection (and everything else pipelined on it) survives.
    fn dispatch(
        &mut self,
        token: usize,
        seq: u64,
        req: Request,
        keep_alive: bool,
        first_byte: Instant,
    ) {
        // Deadline anchor: the instant the request finished arriving.
        // Worker-queue wait happens after this, so it counts against the
        // request's budget exactly as the threadpool server's did.
        let arrived = Instant::now();
        let mut timeline =
            Box::new(TimelineBuilder::new(first_byte, arrived, &req.method, &req.path));
        let slow_io = self
            .faults
            .as_ref()
            .and_then(|plane| plane.roll(FaultKind::SlowIo).then(|| plane.slow_io_delay()));
        let router = self.router.clone();
        let metrics = Arc::clone(&self.metrics);
        let tx = self.done_tx.clone();
        let waker = Arc::clone(&self.waker);
        // Declare batch interest for the whole queue wait: a parsed
        // predict request can still join a micro-batch, so the collector
        // must not drain while it sits in the compute queue. (Advise
        // sweeps score inline and never join one.) The guard moves into
        // the job and drops when handling ends.
        let batch_interest =
            self.router.is_batched_path(&req.path).then(|| self.router.batch_interest());
        self.metrics.pool_enqueued();
        let job: crate::pool::Job = Box::new(move || {
            metrics.pool_dequeued();
            // Chaos slow-io: the stall a seizing disk or GC pause would
            // cause, now on the worker so the loop thread never blocks.
            // It lands in the queue stage: the worker not getting to the
            // request is exactly what slow-io models.
            if let Some(delay) = slow_io {
                std::thread::sleep(delay);
            }
            timeline.stamp_dequeued();
            crate::timeline::begin_capture();
            let response = router.handle_from(&req, arrived);
            drop(batch_interest);
            timeline.stamp_handler_done();
            timeline.absorb(crate::timeline::end_capture(), response.status);
            let _ = tx.send(Done { token, seq, response, keep_alive, timeline: Some(timeline) });
            let _ = waker.wake();
        });
        if self.pool.execute(job).is_err() {
            self.metrics.pool_dequeued();
            self.metrics.record_shed();
            chemcost_obs::event!(
                chemcost_obs::Level::Warn,
                "http.shed",
                queue_cap = self.pool.queue_cap(),
                shed_total = self.metrics.shed_total(),
            );
            let resp = Response::json(503, r#"{"error":"server overloaded"}"#);
            self.apply_done(Done { token, seq, response: resp, keep_alive, timeline: None });
        }
    }

    /// Apply every completion workers have sent since the last pass.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.apply_done(done);
        }
    }

    /// Slot one finished response into its connection and encode every
    /// response that is now next-in-order onto the wire buffer.
    fn apply_done(&mut self, done: Done) {
        let draining = self.draining || self.router.shutdown_requested();
        let Some(conn) = self.conns.get_mut(&done.token) else { return };
        conn.in_flight -= 1;
        conn.done.insert(done.seq, (done.response, done.keep_alive, done.timeline));
        while let Some((response, keep_alive, timeline)) = conn.done.remove(&conn.next_flush) {
            conn.next_flush += 1;
            // Chaos drop-conn: a torn status line, then nothing — the
            // client must see a broken connection, never a half-body
            // that parses. The timeline dies with the response: the
            // request never completed on the wire.
            if self.faults.as_ref().is_some_and(|plane| plane.roll(FaultKind::DropConn)) {
                conn.enqueue_bytes(b"HTTP/1.1 ");
                conn.abort = true;
                conn.closing = true;
                break;
            }
            // Graceful drain: every response sent after shutdown was
            // requested tells the client this connection is over.
            let keep_alive = keep_alive && !draining;
            conn.enqueue_response(&response, keep_alive);
            // Reorder release: the response's turn came up and its last
            // byte now sits at offset `bytes_enqueued`; the timeline
            // completes once the socket has accepted that many bytes.
            if let Some(mut timeline) = timeline {
                timeline.stamp_encoded();
                conn.pending_timelines.push_back((conn.bytes_enqueued, timeline));
            }
            if !keep_alive {
                conn.closing = true;
            }
            conn.idle_since = Instant::now();
        }
        let token = done.token;
        // Responses may have freed pipeline slots: parse what waited.
        self.parse_available(token);
        self.drive(token);
    }

    /// Flush pending writes, finalize timelines whose last byte made it
    /// onto the wire, update the backpressure gauges, then reconcile
    /// poller registration with the connection's desired interest — or
    /// close the connection if it is finished.
    fn drive(&mut self, token: usize) {
        let (alive, completed) = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let ok = Self::flush_writes(conn);
            let completed = if ok { Self::take_flushed(conn) } else { Vec::new() };
            (ok && !conn.finished(), completed)
        };
        for timeline in completed {
            self.finalize_timeline(timeline);
        }
        if !alive {
            self.close(token);
            return;
        }
        let metrics = Arc::clone(&self.metrics);
        let Some(conn) = self.conns.get_mut(&token) else { return };
        // Gauge reconciliation: a connection is read-paused when it is
        // still a live reader but backpressure (pipeline cap or write
        // high-water) gates it; write-stalled when the socket would not
        // take the whole backlog.
        let read_gated = !conn.closing
            && !conn.abort
            && !conn.peer_closed
            && (conn.in_flight >= MAX_PIPELINE || conn.write_buf.len() >= WRITE_HIGH_WATER);
        if read_gated != conn.read_paused {
            conn.read_paused = read_gated;
            match read_gated {
                true => metrics.inc_read_paused(),
                false => metrics.dec_read_paused(),
            }
        }
        let stalled = !conn.write_buf.is_empty();
        if stalled != conn.write_stalled {
            conn.write_stalled = stalled;
            match stalled {
                true => metrics.inc_write_stalled(),
                false => metrics.dec_write_stalled(),
            }
        }
        let desired = conn.desired_interest();
        let fd = conn.stream.as_raw_fd();
        if desired == conn.registered {
            return;
        }
        let ok = match (conn.registered, desired) {
            (None, Some(interest)) => self.poller.register(fd, token, interest).is_ok(),
            (Some(_), Some(interest)) => self.poller.modify(fd, token, interest).is_ok(),
            (Some(_), None) => self.poller.deregister(fd).is_ok(),
            (None, None) => true,
        };
        match ok {
            true => conn.registered = desired,
            false => self.close(token),
        }
    }

    /// Pop every pending timeline whose response's last byte the socket
    /// has now accepted.
    fn take_flushed(conn: &mut Conn) -> Vec<TimelineBuilder> {
        let mut out = Vec::new();
        while conn.pending_timelines.front().is_some_and(|(end, _)| *end <= conn.bytes_flushed) {
            let (_, timeline) = conn.pending_timelines.pop_front().expect("checked front");
            out.push(*timeline);
        }
        out
    }

    /// A request's last byte is on the wire: derive the six stages, feed
    /// the histograms and the flight recorder, emit `request.timeline`.
    fn finalize_timeline(&self, timeline: TimelineBuilder) {
        let done = timeline.complete(Instant::now());
        for (stage, duration) in done.stage_durations() {
            self.metrics.record_request_stage(stage, duration);
        }
        done.emit_event();
        self.router.flight().record(done);
    }

    /// Write as much of the response buffer as the socket accepts.
    /// Returns `false` when the connection died under the write.
    fn flush_writes(conn: &mut Conn) -> bool {
        let mut written = 0;
        while written < conn.write_buf.len() {
            match conn.stream.write(&conn.write_buf[written..]) {
                Ok(0) => return false,
                Ok(n) => {
                    written += n;
                    conn.idle_since = Instant::now();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if written > 0 {
            conn.write_buf.drain(..written);
            conn.bytes_flushed += written as u64;
            if conn.write_buf.is_empty() {
                let _ = conn.stream.flush();
            }
        }
        true
    }

    /// Tear a connection down: deregister, close, account.
    fn close(&mut self, token: usize) {
        if let Some(conn) = self.conns.remove(&token) {
            if conn.registered.is_some() {
                let _ = self.poller.deregister(conn.stream.as_raw_fd());
            }
            if conn.read_paused {
                self.metrics.dec_read_paused();
            }
            if conn.write_stalled {
                self.metrics.dec_write_stalled();
            }
            self.metrics.dec_connections_open();
        }
    }

    /// First pass after `POST /v1/shutdown` lands: stop accepting, stop
    /// reading, close idle connections, and let in-flight responses
    /// (which now carry `Connection: close`) finish.
    fn maybe_start_drain(&mut self) {
        if self.draining || !self.router.shutdown_requested() {
            return;
        }
        self.draining = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(listener.as_raw_fd());
        }
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            self.drive(token);
        }
        chemcost_obs::event!(
            chemcost_obs::Level::Info,
            "serve.drain",
            open_conns = self.conns.len(),
        );
    }

    /// Close keep-alive connections that have sat idle past the timeout
    /// — the event-loop equivalent of the old per-socket read timeout,
    /// so a slow-loris client cannot pin state forever.
    fn sweep_idle(&mut self) {
        let timeout = self.config.idle_timeout;
        let now = Instant::now();
        let stale: Vec<usize> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.in_flight == 0 && c.done.is_empty() && now.duration_since(c.idle_since) > timeout
            })
            .map(|(t, _)| *t)
            .collect();
        for token in stale {
            self.close(token);
        }
    }
}
