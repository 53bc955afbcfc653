//! Per-request timelines and the flight recorder.
//!
//! The event loop stamps every request at its lifecycle edges — first
//! byte read, parse complete (the deadline anchor), worker dequeue,
//! handler done, reorder release (response encoded onto the wire
//! buffer), last byte flushed to the socket — and the batcher reports
//! how long the request's worker sat inside [`crate::batcher::Batcher::
//! predict`] (window wait plus the coalesced model call). Out of those
//! stamps a [`TimelineBuilder`] derives six non-overlapping stages that
//! sum **exactly** to the request's end-to-end wall time:
//!
//! | stage        | span                                                  |
//! |--------------|-------------------------------------------------------|
//! | `read`       | first byte → parse complete                           |
//! | `queue`      | parse complete → worker dequeue                       |
//! | `batch_wait` | time blocked in the micro-batcher (wait + model call) |
//! | `handler`    | worker dequeue → handler done, minus `batch_wait`     |
//! | `reorder`    | handler done → response encoded (pipeline reordering) |
//! | `write`      | response encoded → last byte accepted by the socket   |
//!
//! Completed timelines are exported three ways (see
//! `docs/OBSERVABILITY.md`): the
//! `chemcost_request_stage_duration_seconds{stage=…}` histograms, the
//! [`FlightRecorder`] behind `GET /debug/requests` (slowest-K +
//! most-recent-N, rendered by `chemcost top`), and a `request.timeline`
//! obs event under the request's trace id.
//!
//! Worker-side notes (batch waits, the trace id) travel through a
//! thread-local capture — the handler call tree is deep inside
//! `Router::handle_from` and threading a context parameter through the
//! batcher would leak serving concerns into every predict signature.

use crate::batcher::FlushReason;
use crate::json::Json;
use crate::metrics::RequestStage;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// Most-recent complete timelines kept by the flight recorder.
pub const RECENT_CAP: usize = 64;
/// Slowest complete timelines kept by the flight recorder.
pub const SLOWEST_CAP: usize = 16;

/// What the worker thread observed while handling one request:
/// accumulated micro-batcher waits and the request's trace id.
#[derive(Debug, Clone, Default)]
pub struct HandlerNotes {
    /// Total time the worker spent blocked in `Batcher::predict`
    /// (window wait + the coalesced model call), across all calls.
    pub batch_wait: Duration,
    /// `Batcher::predict` calls the request made (a predict makes one;
    /// an advise, whose sweep scores inline, makes none).
    pub batch_calls: u32,
    /// Coalesced rows of the batched model calls that served this
    /// request (the whole batch, not just this request's share).
    pub batch_rows: u64,
    /// Why the last batch serving this request flushed.
    pub last_reason: Option<FlushReason>,
    /// The trace id `Router::handle_from` resolved for the request.
    pub trace: Option<Arc<str>>,
}

thread_local! {
    /// Active capture for the request this worker thread is handling.
    /// `None` outside a captured request (e.g. the router driven
    /// in-process by tests/benches) — notes are then dropped.
    static CAPTURE: RefCell<Option<HandlerNotes>> = const { RefCell::new(None) };
}

/// Start capturing handler notes on this thread (called by the event
/// loop's worker job just before `Router::handle_from`).
pub(crate) fn begin_capture() {
    CAPTURE.with(|c| *c.borrow_mut() = Some(HandlerNotes::default()));
}

/// Stop capturing and return what was noted since [`begin_capture`].
pub(crate) fn end_capture() -> Option<HandlerNotes> {
    CAPTURE.with(|c| c.borrow_mut().take())
}

/// Record one completed `Batcher::predict` call: how long the caller was
/// blocked, how many rows the coalesced batch carried, and why it
/// flushed. A no-op when no capture is active.
pub(crate) fn note_batch(wait: Duration, rows: usize, reason: FlushReason) {
    CAPTURE.with(|c| {
        if let Some(notes) = c.borrow_mut().as_mut() {
            notes.batch_wait += wait;
            notes.batch_calls += 1;
            notes.batch_rows += rows as u64;
            notes.last_reason = Some(reason);
        }
    });
}

/// Record the request's resolved trace id. A no-op when no capture is
/// active.
pub(crate) fn note_trace(trace: &Arc<str>) {
    CAPTURE.with(|c| {
        if let Some(notes) = c.borrow_mut().as_mut() {
            notes.trace = Some(Arc::clone(trace));
        }
    });
}

/// A request's lifecycle stamps, accumulated as it moves through the
/// data plane. Built by the event loop at parse time, stamped by the
/// worker job, finalized when the last response byte is flushed.
#[derive(Debug)]
pub struct TimelineBuilder {
    /// When the request's first byte landed in the read buffer.
    first_byte: Instant,
    /// Parse completion — the deadline anchor.
    parsed: Instant,
    /// When a worker picked the request off the compute queue.
    dequeued: Option<Instant>,
    /// When `Router::handle_from` returned.
    handler_done: Option<Instant>,
    /// When the response was encoded onto the wire buffer (its turn in
    /// the pipeline reorder came up).
    encoded: Option<Instant>,
    /// Worker-side notes (batch waits, trace id).
    notes: HandlerNotes,
    method: String,
    path: String,
    status: u16,
}

impl TimelineBuilder {
    /// Begin a timeline for a request whose first byte landed at
    /// `first_byte` and whose parse completed at `parsed`.
    pub fn new(first_byte: Instant, parsed: Instant, method: &str, path: &str) -> TimelineBuilder {
        TimelineBuilder {
            first_byte,
            parsed: parsed.max(first_byte),
            dequeued: None,
            handler_done: None,
            encoded: None,
            notes: HandlerNotes::default(),
            method: method.to_string(),
            path: path.to_string(),
            status: 0,
        }
    }

    /// A worker dequeued the request (chaos `slow-io` stalls count as
    /// queue time — they model the worker not getting to the request).
    pub fn stamp_dequeued(&mut self) {
        self.dequeued = Some(Instant::now());
    }

    /// The handler returned.
    pub fn stamp_handler_done(&mut self) {
        self.handler_done = Some(Instant::now());
    }

    /// The response was encoded onto the wire buffer (reorder release).
    pub fn stamp_encoded(&mut self) {
        self.encoded = Some(Instant::now());
    }

    /// Attach the worker's captured notes and the response status.
    pub fn absorb(&mut self, notes: Option<HandlerNotes>, status: u16) {
        if let Some(notes) = notes {
            self.notes = notes;
        }
        self.status = status;
    }

    /// Finalize at `last_byte` (the instant the socket accepted the last
    /// response byte). Missing stamps (never possible on the normal
    /// path) collapse their stage to zero rather than panicking.
    pub fn complete(self, last_byte: Instant) -> CompletedTimeline {
        let dequeued = self.dequeued.unwrap_or(self.parsed).max(self.parsed);
        let handler_done = self.handler_done.unwrap_or(dequeued).max(dequeued);
        let encoded = self.encoded.unwrap_or(handler_done).max(handler_done);
        let last_byte = last_byte.max(encoded);
        let handler_span = handler_done - dequeued;
        // Batch waits happen inside the handler span; clamping keeps the
        // six stages summing exactly to first_byte → last_byte.
        let batch_wait = self.notes.batch_wait.min(handler_span);
        let mut stages = [Duration::ZERO; 6];
        stages[RequestStage::Read.index()] = self.parsed - self.first_byte;
        stages[RequestStage::Queue.index()] = dequeued - self.parsed;
        stages[RequestStage::BatchWait.index()] = batch_wait;
        stages[RequestStage::Handler.index()] = handler_span - batch_wait;
        stages[RequestStage::Reorder.index()] = encoded - handler_done;
        stages[RequestStage::Write.index()] = last_byte - encoded;
        CompletedTimeline {
            trace: self.notes.trace.as_deref().unwrap_or("").to_string(),
            method: self.method,
            path: self.path,
            status: self.status,
            completed_unix_us: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_micros() as u64),
            total: last_byte - self.first_byte,
            stages,
            batch_calls: self.notes.batch_calls,
            batch_rows: self.notes.batch_rows,
            batch_wait: self.notes.batch_wait,
            batch_reason: self.notes.last_reason.map(FlushReason::label),
        }
    }
}

/// One finished request's stage-resolved timeline, as kept by the
/// flight recorder and served from `GET /debug/requests`.
#[derive(Debug, Clone)]
pub struct CompletedTimeline {
    /// The request's trace id (empty when the handler never ran, e.g. a
    /// request finalized without worker notes).
    pub trace: String,
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status.
    pub status: u16,
    /// Unix microseconds when the last byte was flushed.
    pub completed_unix_us: u64,
    /// First byte read → last byte flushed.
    pub total: Duration,
    /// Per-stage durations, indexed by [`RequestStage::index`]. Sums
    /// exactly to `total` by construction.
    pub stages: [Duration; 6],
    /// `Batcher::predict` calls the request made.
    pub batch_calls: u32,
    /// Coalesced rows of the batches that served it.
    pub batch_rows: u64,
    /// Total time blocked in the batcher (unclamped).
    pub batch_wait: Duration,
    /// Why the last batch serving it flushed.
    pub batch_reason: Option<&'static str>,
}

impl CompletedTimeline {
    /// The per-stage durations paired with their stages.
    pub fn stage_durations(&self) -> impl Iterator<Item = (RequestStage, Duration)> + '_ {
        RequestStage::ALL.into_iter().map(|s| (s, self.stages[s.index()]))
    }

    /// The JSON object served from `GET /debug/requests`.
    pub fn to_json(&self) -> Json {
        let us = |d: Duration| Json::Num(d.as_micros() as f64);
        let mut stage_fields: Vec<(String, Json)> = Vec::with_capacity(6);
        for stage in RequestStage::ALL {
            stage_fields.push((format!("{}_us", stage.label()), us(self.stages[stage.index()])));
        }
        Json::obj([
            ("trace", self.trace.clone().into()),
            ("method", self.method.clone().into()),
            ("path", self.path.clone().into()),
            ("status", Json::Num(self.status as f64)),
            ("ts_us", Json::Num(self.completed_unix_us as f64)),
            ("total_us", us(self.total)),
            ("stages", Json::Obj(stage_fields)),
            (
                "batch",
                Json::obj([
                    ("calls", Json::Num(self.batch_calls as f64)),
                    ("rows", Json::Num(self.batch_rows as f64)),
                    ("wait_us", us(self.batch_wait)),
                    ("last_reason", self.batch_reason.map_or(Json::Null, |r| r.into())),
                ]),
            ),
        ])
    }

    /// Emit the timeline as a `request.timeline` obs event at Debug
    /// level, under the request's trace id.
    pub fn emit_event(&self) {
        use chemcost_obs::{Field, Level};
        if !chemcost_obs::enabled(Level::Debug) {
            return;
        }
        let _scope = (!self.trace.is_empty())
            .then(|| chemcost_obs::TraceScope::enter(Arc::from(self.trace.as_str())));
        let mut tl = chemcost_obs::Timeline::new();
        for stage in RequestStage::ALL {
            tl = tl.stage(stage.field_key(), self.stages[stage.index()].as_micros() as u64);
        }
        tl.emit(
            Level::Debug,
            "request.timeline",
            vec![
                Field::new("method", self.method.as_str()),
                Field::new("path", self.path.as_str()),
                Field::new("status", self.status),
                Field::new("batch_calls", self.batch_calls as u64),
                Field::new("batch_rows", self.batch_rows),
            ],
        );
    }
}

/// Flight-recorder state under one lock: bounded rings of the most
/// recent and the slowest complete timelines.
struct Inner {
    recent: VecDeque<Arc<CompletedTimeline>>,
    /// Sorted by `total` descending; truncated to the cap.
    slowest: Vec<Arc<CompletedTimeline>>,
    /// Every timeline ever recorded (eviction makes rings lossy; this
    /// counter says how lossy).
    completed: u64,
}

/// Bounded in-memory ring of complete request timelines: the
/// most-recent-N plus the slowest-K, for `GET /debug/requests` and
/// `chemcost top`. Recording is one short mutex hold off the hot path
/// (the event-loop thread, once per request, after the last byte).
pub struct FlightRecorder {
    inner: parking_lot::Mutex<Inner>,
    recent_cap: usize,
    slowest_cap: usize,
}

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::with_caps(RECENT_CAP, SLOWEST_CAP)
    }
}

impl FlightRecorder {
    /// A recorder with the default caps.
    pub fn new() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// A recorder keeping at most `recent_cap` recent and `slowest_cap`
    /// slowest timelines (each clamped to at least 1).
    pub fn with_caps(recent_cap: usize, slowest_cap: usize) -> FlightRecorder {
        FlightRecorder {
            inner: parking_lot::Mutex::new(Inner {
                recent: VecDeque::new(),
                slowest: Vec::new(),
                completed: 0,
            }),
            recent_cap: recent_cap.max(1),
            slowest_cap: slowest_cap.max(1),
        }
    }

    /// Record one completed timeline, evicting the oldest recent entry
    /// and the fastest slowest entry when the rings are full.
    pub fn record(&self, timeline: CompletedTimeline) {
        let timeline = Arc::new(timeline);
        let mut inner = self.inner.lock();
        inner.completed += 1;
        if inner.recent.len() == self.recent_cap {
            inner.recent.pop_front();
        }
        inner.recent.push_back(Arc::clone(&timeline));
        let full = inner.slowest.len() == self.slowest_cap;
        if !full || inner.slowest.last().is_some_and(|last| timeline.total > last.total) {
            let at = inner.slowest.partition_point(|t| t.total >= timeline.total);
            inner.slowest.insert(at, timeline);
            inner.slowest.truncate(self.slowest_cap);
        }
    }

    /// Timelines ever recorded (including evicted ones).
    pub fn completed(&self) -> u64 {
        self.inner.lock().completed
    }

    /// Snapshot: (most recent, oldest → newest) and (slowest, slowest
    /// first).
    pub fn snapshot(&self) -> (Vec<Arc<CompletedTimeline>>, Vec<Arc<CompletedTimeline>>) {
        let inner = self.inner.lock();
        (inner.recent.iter().cloned().collect(), inner.slowest.clone())
    }

    /// The full `GET /debug/requests` document.
    pub fn to_json(&self) -> Json {
        self.to_json_filtered(0, None)
    }

    /// The `GET /debug/requests` document with the incremental-polling
    /// filters: only timelines completed strictly after `since_us`
    /// and, when `route` is given, whose path contains it (so `advise`
    /// matches `/v1/advise`). `chemcost top --watch` polls with the
    /// newest `ts_us` it has seen, downloading only the new tail.
    pub fn to_json_filtered(&self, since_us: u64, route: Option<&str>) -> Json {
        let (recent, slowest) = self.snapshot();
        let keep = |t: &&Arc<CompletedTimeline>| {
            t.completed_unix_us > since_us && route.is_none_or(|r| t.path.contains(r))
        };
        Json::obj([
            ("completed", Json::Num(self.completed() as f64)),
            ("recent_cap", Json::Num(self.recent_cap as f64)),
            ("slowest_cap", Json::Num(self.slowest_cap as f64)),
            ("since_us", Json::Num(since_us as f64)),
            ("recent", Json::Arr(recent.iter().filter(keep).map(|t| t.to_json()).collect())),
            ("slowest", Json::Arr(slowest.iter().filter(keep).map(|t| t.to_json()).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline_taking(total_ms: u64, path: &str) -> CompletedTimeline {
        let t0 = Instant::now() - Duration::from_millis(total_ms);
        let mut tl = TimelineBuilder::new(t0, t0, "GET", path);
        tl.stamp_dequeued();
        tl.stamp_handler_done();
        tl.stamp_encoded();
        let mut done = tl.complete(t0 + Duration::from_millis(total_ms));
        // Pin the synthetic total so ordering assertions are exact.
        done.total = Duration::from_millis(total_ms);
        done
    }

    #[test]
    fn stages_sum_exactly_to_total() {
        let t0 = Instant::now();
        let mut tl =
            TimelineBuilder::new(t0, t0 + Duration::from_micros(50), "POST", "/v1/predict");
        tl.dequeued = Some(t0 + Duration::from_micros(250));
        tl.handler_done = Some(t0 + Duration::from_micros(1250));
        tl.encoded = Some(t0 + Duration::from_micros(1300));
        tl.absorb(
            Some(HandlerNotes {
                batch_wait: Duration::from_micros(600),
                batch_calls: 1,
                batch_rows: 8,
                last_reason: Some(FlushReason::Drain),
                trace: Some(Arc::from("t-1")),
            }),
            200,
        );
        let done = tl.complete(t0 + Duration::from_micros(1400));
        let sum: Duration = done.stages.iter().sum();
        assert_eq!(sum, done.total);
        assert_eq!(done.total, Duration::from_micros(1400));
        assert_eq!(done.stages[RequestStage::Read.index()], Duration::from_micros(50));
        assert_eq!(done.stages[RequestStage::Queue.index()], Duration::from_micros(200));
        assert_eq!(done.stages[RequestStage::BatchWait.index()], Duration::from_micros(600));
        assert_eq!(done.stages[RequestStage::Handler.index()], Duration::from_micros(400));
        assert_eq!(done.stages[RequestStage::Reorder.index()], Duration::from_micros(50));
        assert_eq!(done.stages[RequestStage::Write.index()], Duration::from_micros(100));
        assert_eq!(done.trace, "t-1");
        assert_eq!(done.status, 200);
        assert_eq!(done.batch_reason, Some("drain"));
    }

    #[test]
    fn batch_wait_is_clamped_to_the_handler_span() {
        let t0 = Instant::now();
        let mut tl = TimelineBuilder::new(t0, t0, "POST", "/v1/predict");
        tl.dequeued = Some(t0 + Duration::from_micros(10));
        tl.handler_done = Some(t0 + Duration::from_micros(110));
        tl.absorb(
            Some(HandlerNotes {
                batch_wait: Duration::from_secs(5), // nonsense: longer than the handler ran
                ..HandlerNotes::default()
            }),
            200,
        );
        let done = tl.complete(t0 + Duration::from_micros(120));
        assert_eq!(done.stages[RequestStage::BatchWait.index()], Duration::from_micros(100));
        assert_eq!(done.stages[RequestStage::Handler.index()], Duration::ZERO);
        let sum: Duration = done.stages.iter().sum();
        assert_eq!(sum, done.total);
    }

    #[test]
    fn missing_stamps_collapse_to_zero_stages() {
        let t0 = Instant::now();
        let tl = TimelineBuilder::new(t0, t0 + Duration::from_micros(5), "GET", "/healthz");
        let done = tl.complete(t0 + Duration::from_micros(25));
        let sum: Duration = done.stages.iter().sum();
        assert_eq!(sum, done.total);
        assert_eq!(done.stages[RequestStage::Queue.index()], Duration::ZERO);
        assert_eq!(done.stages[RequestStage::Handler.index()], Duration::ZERO);
        assert_eq!(done.stages[RequestStage::Write.index()], Duration::from_micros(20));
    }

    #[test]
    fn capture_accumulates_batch_notes_only_while_active() {
        note_batch(Duration::from_micros(99), 4, FlushReason::Window); // no capture: dropped
        begin_capture();
        note_batch(Duration::from_micros(10), 3, FlushReason::Drain);
        note_batch(Duration::from_micros(20), 5, FlushReason::Window);
        note_trace(&Arc::from("cap-1"));
        let notes = end_capture().expect("capture was active");
        assert_eq!(notes.batch_wait, Duration::from_micros(30));
        assert_eq!(notes.batch_calls, 2);
        assert_eq!(notes.batch_rows, 8);
        assert_eq!(notes.last_reason, Some(FlushReason::Window));
        assert_eq!(notes.trace.as_deref(), Some("cap-1"));
        assert!(end_capture().is_none(), "capture is one-shot");
    }

    #[test]
    fn flight_recorder_keeps_recent_and_slowest_under_eviction() {
        let rec = FlightRecorder::with_caps(4, 2);
        // Totals 1..=10 ms in arrival order, so the slowest are 10 and 9.
        for ms in 1..=10u64 {
            rec.record(timeline_taking(ms, &format!("/r/{ms}")));
        }
        assert_eq!(rec.completed(), 10);
        let (recent, slowest) = rec.snapshot();
        assert_eq!(recent.len(), 4);
        let recent_paths: Vec<&str> = recent.iter().map(|t| t.path.as_str()).collect();
        assert_eq!(recent_paths, ["/r/7", "/r/8", "/r/9", "/r/10"]);
        assert_eq!(slowest.len(), 2);
        assert_eq!(slowest[0].total, Duration::from_millis(10));
        assert_eq!(slowest[1].total, Duration::from_millis(9));
        // A fast newcomer joins recent but not slowest.
        rec.record(timeline_taking(2, "/r/late"));
        let (recent, slowest) = rec.snapshot();
        assert_eq!(recent.last().unwrap().path, "/r/late");
        assert!(slowest.iter().all(|t| t.path != "/r/late"));
    }

    #[test]
    fn debug_requests_json_has_the_documented_shape() {
        let rec = FlightRecorder::with_caps(8, 4);
        rec.record(timeline_taking(3, "/v1/predict"));
        let doc = rec.to_json();
        assert_eq!(doc.get("completed").and_then(Json::as_f64), Some(1.0));
        assert_eq!(doc.get("recent_cap").and_then(Json::as_f64), Some(8.0));
        let recent = doc.get("recent").and_then(Json::as_array).expect("recent array");
        assert_eq!(recent.len(), 1);
        let entry = &recent[0];
        for key in ["trace", "method", "path", "status", "ts_us", "total_us", "stages", "batch"] {
            assert!(entry.get(key).is_some(), "missing {key}");
        }
        let stages = entry.get("stages").expect("stages object");
        for stage in RequestStage::ALL {
            assert!(
                stages.get(&format!("{}_us", stage.label())).and_then(Json::as_f64).is_some(),
                "missing stage {}",
                stage.label()
            );
        }
        // The document round-trips through the parser (what the CI smoke
        // job asserts over the wire).
        let encoded = doc.encode();
        Json::parse(&encoded).expect("debug/requests JSON parses");
    }

    #[test]
    fn filters_slice_by_timestamp_and_route() {
        let rec = FlightRecorder::with_caps(8, 4);
        rec.record(timeline_taking(3, "/v1/predict"));
        rec.record(timeline_taking(5, "/v1/advise"));
        rec.record(timeline_taking(7, "/v1/advise"));
        let all = rec.to_json_filtered(0, None);
        assert_eq!(all.get("recent").and_then(Json::as_array).unwrap().len(), 3);
        // Route substring filter.
        let advise = rec.to_json_filtered(0, Some("advise"));
        let recent = advise.get("recent").and_then(Json::as_array).unwrap();
        assert_eq!(recent.len(), 2);
        assert!(recent
            .iter()
            .all(|t| { t.get("path").and_then(Json::as_str).unwrap().contains("advise") }));
        // since_us strictly-after: polling back the newest seen ts_us
        // returns nothing new; ts-1 returns only the newest entries.
        let newest = all.get("recent").and_then(Json::as_array).unwrap()[2]
            .get("ts_us")
            .and_then(Json::as_f64)
            .unwrap() as u64;
        let empty = rec.to_json_filtered(newest, None);
        assert!(empty.get("recent").and_then(Json::as_array).unwrap().is_empty());
        let tail = rec.to_json_filtered(newest - 1, None);
        assert!(!tail.get("recent").and_then(Json::as_array).unwrap().is_empty());
        // Both caps and the echo of the filter survive.
        assert_eq!(tail.get("since_us").and_then(Json::as_f64), Some((newest - 1) as f64));
        // The filtered document stays parseable.
        Json::parse(&advise.encode()).expect("filtered JSON parses");
    }
}
