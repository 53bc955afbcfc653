//! The event-driven serving data plane.
//!
//! One thread runs a level-triggered epoll loop (via the vendored
//! [`polling`] crate) that owns every socket: it accepts connections,
//! reads request bytes into per-connection buffers, parses them
//! incrementally ([`crate::http::parse_request`]), and writes encoded
//! responses back out — all nonblocking. The loop thread never runs a
//! model: each parsed request is dispatched to the bounded worker pool,
//! and the finished response comes back over a channel (plus an eventfd
//! [`Waker`] nudge) — except an advise cache hit, which needs none. For
//! a `POST /v1/advise` with a canonical body the loop asks the router
//! for a probe that records nothing on a miss (fast scan, registry
//! resolve, key build, cache lookup); on a hit it answers through the
//! same replay a worker runs and slots the response straight into the
//! connection's reorder buffer — no pool hand-off, no channel, no wake.
//! The replay's quality-journal entry leaves the GP σ and the shadow
//! score to `/v1/observe`, which runs on a worker.
//! Misses, predicts, non-canonical bodies, stale serves, every other
//! route, and any request the chaos plane rolled `slow-io` for still
//! ride a worker. An inline hit holds no pipeline slot, so the loop
//! answers at most `INLINE_PER_PASS` of them per connection per pass;
//! a connection with more waiting is parked on a ready list and picked
//! up on the next pass, after every other connection's events.
//! HTTP/1.1 keep-alive and pipelining are native: a connection can have
//! many requests in flight, and responses are reordered by sequence
//! number so the wire order always matches the request order.
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
//!    passes 256 KiB (`WRITE_HIGH_WATER`) stops being read and parsed
//!    until it drains, so a slow consumer cannot balloon server memory:
//!    the loop answers no further pipelined hit once the backlog
//!    reaches the mark, and resumes on the pass after a flush takes it
//!    back under.
//!
//! Graceful drain: when `POST /v1/shutdown` is handled, the loop stops
//! accepting (the listener is closed), stops reading every connection,
//! forces `Connection: close` on every response still in flight, closes
//! idle keep-alive connections immediately, and exits once the last
//! response byte is flushed.
//!
//! The PR-4 chaos plane maps onto the loop without new semantics:
//! `saturate` sheds at accept, `slow-io` stalls the worker before
//! compute (a rolled request never takes the inline path, so the loop
//! itself never sleeps), `drop-conn` tears the response mid-status-line,
//! and `truncate-body` gives the connection a read budget after which
//! the client appears to die mid-upload.
//!
//! Every request additionally carries a [`TimelineBuilder`] (PR 8):
//! the loop stamps it at first byte, parse completion, worker dequeue
//! (parse completion again for an inline hit, whose queue stage is
//! zero), handler return, reorder release, and last flushed byte, then
//! folds the completed timeline into the
//! `chemcost_request_stage_duration_seconds` histograms, the router's
//! [`crate::timeline::FlightRecorder`] (`GET /debug/requests`), and a
//! `request.timeline` obs event. The loop itself reports health series:
//! iteration duration, events per epoll wake, and gauges for
//! connections whose reads are paused by backpressure or whose writes
//! are stalled on the socket.

use crate::fault::{FaultKind, FaultPlane};
use crate::http::{encode_response_into, parse_request, HttpError, Request, Response};
use crate::json::Json;
use crate::metrics::{
    Metrics, CONNECTIONS_OPEN, EVENTS_PER_WAKE, KEEPALIVE_REUSES, LOOP_ITERATION, POOL_QUEUE_DEPTH,
    READ_PAUSED, REQUEST_STAGES, SHED, WRITE_STALLED,
};
use crate::pool::ThreadPool;
use crate::routes::Router;
use crate::timeline::TimelineBuilder;
use chemcost_ml::flat::NoModelWork;
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

/// Most advise cache hits the loop answers for one connection in one
/// pass. An inline hit holds no pipeline slot, so without this one
/// connection's deep pipeline of hits would hold the loop while every
/// other connection waits; past it the connection yields until the
/// next pass, as a full pipeline of worker requests does.
const INLINE_PER_PASS: usize = MAX_PIPELINE;

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

/// A finished request: sent back by a worker, or answered on the loop.
struct Done {
    token: usize,
    seq: u64,
    response: Response,
    keep_alive: bool,
    /// The request's timeline, stamped by the worker; `None` for
    /// loop-synthesized responses (parse errors, queue-full sheds).
    timeline: Option<Box<TimelineBuilder>>,
}

/// Why complete requests may sit in a connection's read buffer with no
/// readable event coming to bring them back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Parked {
    /// Nothing waits but, at most, the bytes of an incomplete request.
    No,
    /// Parsing stopped at the write high-water mark (rung 4); the flush
    /// that takes the backlog back under it queues the connection.
    Mark,
    /// Queued on [`Loop::ready`]: parsing resumes on the next pass.
    Next,
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
    /// Requests parsed whose response is not yet slotted (an inline
    /// hit is slotted at once, so it never holds a pipeline slot).
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
    /// Whether parsing stopped with requests left in `read_buf` that
    /// need the loop, not the peer, to move on. Reading waits meanwhile.
    parked: Parked,
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
            parked: Parked::No,
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
        self.peer_closed
            && self.write_buf.is_empty()
            && self.in_flight == 0
            && self.done.is_empty()
            && self.parked == Parked::No
    }

    /// Backpressure holds this connection's reads: the pipeline is
    /// full, the write backlog is at the high-water mark, or parsed
    /// requests are parked waiting for the loop.
    fn read_gated(&self) -> bool {
        self.in_flight >= MAX_PIPELINE
            || self.write_buf.len() >= WRITE_HIGH_WATER
            || self.parked != Parked::No
    }

    /// The poller interest this connection's state calls for. `None`
    /// means the socket needs no watching (e.g. only waiting on worker
    /// completions) and should be deregistered.
    fn desired_interest(&self) -> Option<Interest> {
        let want_read = !self.closing && !self.abort && !self.peer_closed && !self.read_gated();
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
    /// Connections parked for the next pass (see [`Parked::Next`]).
    ready: Vec<usize>,
    /// Shutdown observed: listener closed, all responses forced
    /// `Connection: close`, loop exits when the last conn drains.
    draining: bool,
    /// One fd held in reserve so fd exhaustion (`EMFILE`/`ENFILE`) can
    /// be recovered: release it, accept the pending connection, close
    /// it immediately, reclaim it. See [`Loop::accept_failed`].
    fd_reserve: Option<File>,
}

/// Run the event loop until graceful drain completes. Owns the
/// listener; the worker `pool` stays alive for the caller to join
/// afterwards. The loop runs no model work (a cache hit is the most it
/// answers itself): a debug build asserts that.
pub(crate) fn run(
    listener: TcpListener,
    router: Router,
    pool: &ThreadPool,
    faults: Option<Arc<FaultPlane>>,
    config: EventLoopConfig,
) -> io::Result<()> {
    let _no_model_work = NoModelWork::on_this_thread();
    let mut lp = Loop::new(listener, router, pool, faults, config)?;
    let mut events: Vec<Event> = Vec::new();
    let mut parked: Vec<usize> = Vec::new();

    loop {
        events.clear();
        // A connection parked last pass has requests waiting: poll
        // without blocking, then pick it up after this pass's events.
        let timeout = if lp.ready.is_empty() { SWEEP_INTERVAL } else { Duration::ZERO };
        lp.poller.wait(&mut events, Some(timeout))?;
        // Measured from after the wait: the histogram is time the loop
        // spends *working* per wake, not time parked in epoll.
        let iter_start = Instant::now();
        std::mem::swap(&mut parked, &mut lp.ready);
        for ev in &events {
            match ev.key {
                KEY_WAKER => lp.waker.drain(),
                KEY_LISTENER => lp.accept_ready(),
                token => lp.conn_ready(token, ev),
            }
        }
        lp.drain_completions();
        for &token in &parked {
            lp.resume(token);
        }
        parked.clear();
        lp.maybe_start_drain();
        lp.sweep_idle();
        lp.metrics.observe(LOOP_ITERATION, iter_start.elapsed());
        lp.metrics.observe_count(EVENTS_PER_WAKE, events.len());
        if lp.draining && lp.conns.is_empty() {
            return Ok(());
        }
    }
}

impl<'a> Loop<'a> {
    fn new(
        listener: TcpListener,
        router: Router,
        pool: &'a ThreadPool,
        faults: Option<Arc<FaultPlane>>,
        config: EventLoopConfig,
    ) -> io::Result<Loop<'a>> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.register(listener.as_raw_fd(), KEY_LISTENER, Interest::Read)?;
        let waker = Arc::new(Waker::new(&poller, KEY_WAKER)?);
        let metrics = Arc::clone(router.metrics());
        let (done_tx, done_rx) = channel();
        Ok(Loop {
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
            ready: Vec::new(),
            draining: false,
            fd_reserve: File::open("/dev/null").ok(),
        })
    }

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
                    shed_total = self.metrics.count(SHED),
                );
                let resp = Response::json(503, r#"{"error":"server overloaded"}"#);
                conn.enqueue_response(&resp, false);
                conn.closing = true;
            }
            self.metrics.gauge_add(CONNECTIONS_OPEN, 1);
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
                    if conn.read_gated() {
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
    /// dispatch each one (parse errors are answered directly). Pipelining
    /// lives here: the loop keeps going until the buffer holds no
    /// complete request or the pipeline is full, or parks the connection
    /// when the answers fill the write buffer to its high-water mark
    /// (rung 4, lifted by [`Loop::drive`]) or reach this pass's
    /// `INLINE_PER_PASS` share.
    fn parse_available(&mut self, token: usize) {
        let mut inline = 0;
        loop {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            if conn.closing
                || conn.abort
                || conn.in_flight >= MAX_PIPELINE
                || conn.parked == Parked::Next
            {
                return;
            }
            if !conn.read_buf.is_empty() && conn.write_buf.len() >= WRITE_HIGH_WATER {
                conn.parked = Parked::Mark;
                return;
            }
            if !conn.read_buf.is_empty() && inline == INLINE_PER_PASS {
                conn.parked = Parked::Next;
                self.ready.push(token);
                return;
            }
            match parse_request(&conn.read_buf) {
                Ok(None) => {
                    // Incomplete: wait for more bytes.
                    conn.parked = Parked::No;
                    return;
                }
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
                        self.metrics.inc(KEEPALIVE_REUSES);
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
                    if self.dispatch(token, seq, req, keep_alive, first_byte) {
                        inline += 1;
                    }
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
                    self.slot(Done {
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

    /// Answer one parsed request. A cache hit the router can replay is
    /// answered right here and slotted into the reorder buffer (returns
    /// `true`); anything else goes to the worker pool. A full compute
    /// queue is rung 2 of the shed ladder: this request gets a `503`, but
    /// the connection (and everything else pipelined on it) survives.
    fn dispatch(
        &mut self,
        token: usize,
        seq: u64,
        req: Request,
        keep_alive: bool,
        first_byte: Instant,
    ) -> bool {
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
        // A slow-io roll always rides a worker: the loop never sleeps.
        if slow_io.is_none() {
            if let Some(response) = self.router.answer_if_cached(&req, arrived) {
                timeline.stamp_answered_inline();
                timeline.stamp_handler_done();
                timeline.absorb(&response);
                self.slot(Done { token, seq, response, keep_alive, timeline: Some(timeline) });
                return true;
            }
        }
        let router = self.router.clone();
        let metrics = Arc::clone(&self.metrics);
        let tx = self.done_tx.clone();
        let waker = Arc::clone(&self.waker);
        self.metrics.gauge_add(POOL_QUEUE_DEPTH, 1);
        let job: crate::pool::Job = Box::new(move || {
            metrics.gauge_add(POOL_QUEUE_DEPTH, -1);
            // Chaos slow-io: the stall a seizing disk or GC pause would
            // cause, now on the worker so the loop thread never blocks.
            // It lands in the queue stage: the worker not getting to the
            // request is exactly what slow-io models.
            if let Some(delay) = slow_io {
                std::thread::sleep(delay);
            }
            timeline.stamp_dequeued();
            let response = router.handle_from(&req, arrived);
            timeline.stamp_handler_done();
            timeline.absorb(&response);
            let _ = tx.send(Done { token, seq, response, keep_alive, timeline: Some(timeline) });
            let _ = waker.wake();
        });
        if self.pool.execute(job).is_err() {
            self.metrics.gauge_add(POOL_QUEUE_DEPTH, -1);
            self.metrics.record_shed();
            chemcost_obs::event!(
                chemcost_obs::Level::Warn,
                "http.shed",
                queue_cap = self.pool.queue_cap(),
                shed_total = self.metrics.count(SHED),
            );
            let resp = Response::json(503, r#"{"error":"server overloaded"}"#);
            self.slot(Done { token, seq, response: resp, keep_alive, timeline: None });
        }
        false
    }

    /// Apply every completion workers have sent since the last pass.
    fn drain_completions(&mut self) {
        while let Ok(done) = self.done_rx.try_recv() {
            self.apply_done(done);
        }
    }

    /// Pick up a connection parked for this pass: answer what waited in
    /// its read buffer, and flush.
    fn resume(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else { return };
        if conn.parked != Parked::Next {
            return;
        }
        conn.parked = Parked::No;
        self.parse_available(token);
        self.drive(token);
    }

    /// Apply one worker completion: slot it, parse what waited behind
    /// its pipeline slot, and flush.
    fn apply_done(&mut self, done: Done) {
        let token = done.token;
        self.slot(done);
        self.parse_available(token);
        self.drive(token);
    }

    /// Slot one finished response into its connection's reorder buffer
    /// and encode every response that is now next-in-order onto the
    /// wire buffer. Writing is left to the caller's [`Loop::drive`], so
    /// the hits answered from one read go out in one write.
    fn slot(&mut self, done: Done) {
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
    }

    /// Flush pending writes, finalize timelines whose last byte made it
    /// onto the wire, update the backpressure gauges, then reconcile
    /// poller registration with the connection's desired interest — or
    /// close the connection if it is finished. A flush that takes the
    /// backlog back under the high-water mark queues a connection parked
    /// there for the next pass: the requests left in its read buffer get
    /// no readable event of their own.
    fn drive(&mut self, token: usize) {
        let (alive, completed) = {
            let Some(conn) = self.conns.get_mut(&token) else { return };
            let ok = Self::flush_writes(conn);
            if conn.parked == Parked::Mark && conn.write_buf.len() < WRITE_HIGH_WATER {
                conn.parked = Parked::Next;
                self.ready.push(token);
            }
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
        // still a live reader but backpressure (pipeline cap, write
        // high-water, parked requests) gates it; write-stalled when the
        // socket would not take the whole backlog.
        let read_gated = !conn.closing && !conn.abort && !conn.peer_closed && conn.read_gated();
        if read_gated != conn.read_paused {
            conn.read_paused = read_gated;
            metrics.gauge_add(READ_PAUSED, if read_gated { 1 } else { -1 });
        }
        let stalled = !conn.write_buf.is_empty();
        if stalled != conn.write_stalled {
            conn.write_stalled = stalled;
            metrics.gauge_add(WRITE_STALLED, if stalled { 1 } else { -1 });
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

    /// A request's last byte is on the wire: derive the five stages, feed
    /// the histograms and the flight recorder, emit `request.timeline`.
    fn finalize_timeline(&self, timeline: TimelineBuilder) {
        let done = timeline.complete(Instant::now());
        for (stage, duration) in done.stage_durations() {
            self.metrics.observe(REQUEST_STAGES[stage as usize], duration);
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
                self.metrics.gauge_add(READ_PAUSED, -1);
            }
            if conn.write_stalled {
                self.metrics.gauge_add(WRITE_STALLED, -1);
            }
            self.metrics.gauge_add(CONNECTIONS_OPEN, -1);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CACHE_HITS;
    use crate::registry::ModelRegistry;
    use chemcost_linalg::Matrix;
    use chemcost_ml::gradient_boosting::GradientBoosting;
    use chemcost_ml::Regressor;

    const BODY: &str = r#"{"o":116,"v":840,"goal":"stq"}"#;

    /// A loop over a small model with `BODY`'s answer already cached,
    /// and `n` accepted client connections.
    fn warm_loop(pool: &ThreadPool, n: usize) -> (Loop<'_>, Vec<(usize, TcpStream)>) {
        let x = Matrix::from_fn(40, 4, |i, j| [60.0 + i as f64, 600.0, 8.0, 20.0][j]);
        let y: Vec<f64> = (0..40).map(|i| 100.0 + i as f64).collect();
        let mut gb = GradientBoosting::new(5, 2, 0.3);
        gb.fit(&x, &y).unwrap();
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("gb", "aurora", gb);
        let router = Router::new(registry);
        let warm = router.handle(&Request::new("POST", "/v1/advise", BODY.as_bytes()));
        assert_eq!(warm.status, 200);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut lp = Loop::new(listener, router, pool, None, EventLoopConfig::default()).unwrap();
        let mut clients = Vec::new();
        for _ in 0..n {
            let client = TcpStream::connect(addr).unwrap();
            let before = lp.conns.len();
            while lp.conns.len() == before {
                lp.accept_ready();
            }
            clients.push((lp.next_token - 1, client));
        }
        (lp, clients)
    }

    /// `n` pipelined cached advises tagged `{tag}-{i}`, as one readable
    /// event that drained the socket would leave them in the read buffer.
    fn burst(tag: &str, n: usize) -> Vec<u8> {
        let request = |i: usize| {
            format!(
                "POST /v1/advise HTTP/1.1\r\nX-Request-Id: {tag}-{i}\r\nContent-Length: {}\r\n\r\n{BODY}",
                BODY.len()
            )
        };
        (0..n).map(request).collect::<String>().into_bytes()
    }

    /// One pass of the main loop's ready list: resume every connection
    /// parked on the last pass.
    fn next_pass(lp: &mut Loop<'_>) {
        for token in std::mem::take(&mut lp.ready) {
            lp.resume(token);
        }
    }

    /// Rung 4 holds for hits the loop answers itself: 2,000 pipelined
    /// cached advises stop being answered once their responses reach the
    /// write high-water mark, so the backlog never passes the mark plus
    /// one response, and each flush that takes it back under the mark
    /// gets the requests that waited answered on the next pass — all
    /// 2,000, in order, with no further readable event.
    #[test]
    fn inline_hits_stop_at_the_write_high_water_mark_and_resume_on_flush() {
        const SENT: usize = 2000;
        let pool = ThreadPool::new(1, 4);
        let (mut lp, mut clients) = warm_loop(&pool, 1);
        let (token, client) = &mut clients[0];
        let token = *token;
        lp.conns.get_mut(&token).unwrap().read_buf = burst("hw", SENT);
        // An answer is under 1 KiB (status line, four headers, body).
        let bound = WRITE_HIGH_WATER + 1024;
        // Passes in which the socket takes nothing (a loopback socket
        // would swallow megabytes first): the burst is answered
        // `INLINE_PER_PASS` at a time until the backlog reaches the mark.
        while lp.conns[&token].parked != Parked::Mark {
            assert!(lp.conns[&token].write_buf.len() < WRITE_HIGH_WATER);
            lp.ready.clear();
            lp.conns.get_mut(&token).unwrap().parked = Parked::No;
            lp.parse_available(token);
        }
        let conn = &lp.conns[&token];
        assert!(conn.write_buf.len() >= WRITE_HIGH_WATER, "parked early");
        assert!(conn.write_buf.len() < bound, "backlog {} passed the mark", conn.write_buf.len());
        assert!(!conn.read_buf.is_empty(), "requests past the mark must wait");
        assert_eq!(conn.in_flight, 0, "an inline hit holds no pipeline slot");
        assert!(conn.read_gated(), "a parked connection reads nothing more");

        client.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut received = Vec::new();
        let mut chunk = vec![0u8; 64 * 1024];
        let deadline = Instant::now() + Duration::from_secs(30);
        while received.windows(4).filter(|w| w == b"\r\n\r\n").count() < SENT {
            assert!(Instant::now() < deadline, "answers stalled in the read buffer");
            lp.drive(token);
            next_pass(&mut lp);
            assert!(lp.conns[&token].write_buf.len() < bound);
            match client.read(&mut chunk) {
                Ok(n) => received.extend_from_slice(&chunk[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("client read failed: {e}"),
            }
        }
        let text = String::from_utf8(received).unwrap();
        let ids: Vec<&str> =
            text.split("\r\n").filter_map(|line| line.strip_prefix("X-Request-Id: ")).collect();
        let expected: Vec<String> = (0..SENT).map(|i| format!("hw-{i}")).collect();
        assert_eq!(ids, expected, "answers out of request order");
        assert_eq!(text.matches("HTTP/1.1 200 OK").count(), SENT);
        assert!(lp.conns[&token].read_buf.is_empty());
        assert_eq!(lp.conns[&token].parked, Parked::No);
        assert_eq!(lp.metrics.count(CACHE_HITS), SENT as u64);
    }

    /// One connection's deep pipeline of hits takes `INLINE_PER_PASS`
    /// answers per pass and then yields: another connection's request in
    /// the same pass is answered before the rest of the pipeline.
    #[test]
    fn a_deep_pipeline_of_hits_yields_to_other_connections_every_pass() {
        let pool = ThreadPool::new(1, 4);
        let (mut lp, clients) = warm_loop(&pool, 2);
        let (deep, other) = (clients[0].0, clients[1].0);
        lp.conns.get_mut(&deep).unwrap().read_buf = burst("deep", 3 * INLINE_PER_PASS);
        lp.conns.get_mut(&other).unwrap().read_buf = burst("other", 1);
        let hits = |lp: &Loop<'_>| lp.metrics.count(CACHE_HITS) as usize;

        lp.parse_available(deep);
        assert_eq!(hits(&lp), INLINE_PER_PASS);
        assert_eq!(lp.conns[&deep].parked, Parked::Next);
        assert_eq!(lp.ready, vec![deep]);
        assert!(lp.conns[&deep].read_gated(), "a parked connection reads nothing more");
        // More parsing on the same pass (say, a worker completion) adds
        // nothing to the parked connection's share.
        lp.parse_available(deep);
        assert_eq!(hits(&lp), INLINE_PER_PASS);
        lp.parse_available(other);
        assert_eq!(hits(&lp), INLINE_PER_PASS + 1, "the other connection is answered this pass");

        next_pass(&mut lp);
        assert_eq!(hits(&lp), 2 * INLINE_PER_PASS + 1);
        next_pass(&mut lp);
        assert_eq!(hits(&lp), 3 * INLINE_PER_PASS + 1);
        assert!(lp.conns[&deep].read_buf.is_empty());
        assert_eq!(lp.conns[&deep].parked, Parked::No, "an empty read buffer parks nothing");
        assert!(lp.ready.is_empty());
    }

    /// A half-closed connection is not finished while requests wait in
    /// its read buffer: flushing the answers before them to the last
    /// byte must not close it.
    #[test]
    fn a_half_closed_connection_with_parked_requests_is_not_finished() {
        let pool = ThreadPool::new(1, 4);
        let (mut lp, _clients) = warm_loop(&pool, 1);
        let token = lp.next_token - 1;
        let conn = lp.conns.get_mut(&token).unwrap();
        conn.read_buf = burst("half", 2 * INLINE_PER_PASS);
        conn.peer_closed = true;
        lp.parse_available(token);
        lp.drive(token);
        assert!(lp.conns.contains_key(&token), "closed with requests unanswered");
        next_pass(&mut lp);
        assert!(!lp.conns.contains_key(&token), "closes once every request is answered");
        assert_eq!(lp.metrics.count(CACHE_HITS), 2 * INLINE_PER_PASS as u64);
    }
}
