//! Request metrics with Prometheus text exposition.
//!
//! Everything is lock-free atomics: fixed route labels, per-route request
//! and error counters, a shared latency histogram with log-spaced
//! buckets, saturation gauges (queue depth, in-flight), shed-load and
//! advise-cache counters, a per-stage latency histogram for the
//! `/v1/advise` pipeline (`cache` → `sweep` → `encode`), and the
//! robustness series: deadline overruns per stage, model staleness,
//! reload failures, stale cache serves, and injected faults. `render`
//! produces the standard `text/plain; version=0.0.4` exposition format;
//! [`lint_exposition`] validates that format and doubles as the CI smoke
//! and chaos jobs' correctness check.
//!
//! # Hot-path layout
//!
//! The per-request counters (route requests/errors, advise-cache
//! hits/misses, keep-alive reuses) are `ShardedCounter`s: each is a
//! small array of cache-line-padded atomics and every thread increments
//! its own stripe, so concurrent request threads never bounce one
//! counter's cache line between cores. Reads sum the stripes — counters
//! are read on scrape, written per request, so the trade goes the right
//! way. Histogram bucket lines render through preformatted name slabs
//! (`name_bucket{…le="x"} ` prefixes built once per process), keeping
//! the scrape path to integer formatting instead of per-line `format!`
//! allocations.
//!
//! Every series is **pre-registered**: the label sets are fixed arrays,
//! so each family appears in the very first scrape at zero rather than
//! materializing on first increment (dashboards and the `increase()`
//! family of PromQL functions need the zero point). The chaos job
//! asserts this through [`REQUIRED_SERIES`] +
//! [`lint_exposition_with_required`].

use crate::fault::FaultKind;
use chemcost_lifecycle::{LifecycleObserver, LifecycleState, PromotionOutcome, TRANSITIONS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Route label a request is accounted under. Fixed set — unknown paths
/// all collapse into `Other` so label cardinality stays bounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`
    Healthz,
    /// `GET /metrics`
    Metrics,
    /// `GET /v1/models`
    Models,
    /// `POST /v1/models/{name}/reload`
    Reload,
    /// `POST /v1/predict`
    Predict,
    /// `POST /v1/advise`
    Advise,
    /// `POST /v1/observe` — ground-truth runtime reports.
    Observe,
    /// `GET /v1/quality` and `GET /v1/quality/next_experiments`.
    Quality,
    /// `GET /v1/lifecycle` and `POST /v1/lifecycle/*` operator overrides.
    Lifecycle,
    /// `POST /v1/shutdown`
    Shutdown,
    /// `GET /debug/requests` — the flight recorder.
    Debug,
    /// `GET /v1/health` — the SLO-driven readiness verdict.
    Health,
    /// Anything else (404s, bad methods, shed connections, …).
    Other,
}

impl Route {
    /// Every route, in exposition order.
    pub const ALL: [Route; 13] = [
        Route::Healthz,
        Route::Metrics,
        Route::Models,
        Route::Reload,
        Route::Predict,
        Route::Advise,
        Route::Observe,
        Route::Quality,
        Route::Lifecycle,
        Route::Shutdown,
        Route::Debug,
        Route::Health,
        Route::Other,
    ];

    fn index(self) -> usize {
        match self {
            Route::Healthz => 0,
            Route::Metrics => 1,
            Route::Models => 2,
            Route::Reload => 3,
            Route::Predict => 4,
            Route::Advise => 5,
            Route::Observe => 6,
            Route::Quality => 7,
            Route::Lifecycle => 8,
            Route::Shutdown => 9,
            Route::Debug => 10,
            Route::Health => 11,
            Route::Other => 12,
        }
    }

    /// The Prometheus label value.
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::Models => "models",
            Route::Reload => "reload",
            Route::Predict => "predict",
            Route::Advise => "advise",
            Route::Observe => "observe",
            Route::Quality => "quality",
            Route::Lifecycle => "lifecycle",
            Route::Shutdown => "shutdown",
            Route::Debug => "debug",
            Route::Health => "health",
            Route::Other => "other",
        }
    }
}

/// One stage of the `/v1/advise` pipeline, timed separately so a slow
/// answer can be attributed to the model sweep, the cache, or JSON
/// encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdviseStage {
    /// Key construction + cache probe (and hit replay).
    Cache,
    /// The candidate sweep through the flat model.
    Sweep,
    /// Reductions + JSON rendering + cache insert.
    Encode,
    /// Shadow-candidate scoring of the primary recommendation.
    Shadow,
}

impl AdviseStage {
    /// Every stage, in label order.
    pub const ALL: [AdviseStage; 4] =
        [AdviseStage::Cache, AdviseStage::Sweep, AdviseStage::Encode, AdviseStage::Shadow];

    fn index(self) -> usize {
        match self {
            AdviseStage::Cache => 0,
            AdviseStage::Sweep => 1,
            AdviseStage::Encode => 2,
            AdviseStage::Shadow => 3,
        }
    }

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            AdviseStage::Cache => "cache",
            AdviseStage::Sweep => "sweep",
            AdviseStage::Encode => "encode",
            AdviseStage::Shadow => "shadow",
        }
    }
}

/// One deadline checkpoint in the request path; the label on
/// `chemcost_deadline_exceeded_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeadlineStage {
    /// The budget was already gone when a worker dequeued the request.
    Queue,
    /// Expired at the advise cache probe.
    Cache,
    /// Expired before the candidate sweep could start.
    Sweep,
}

impl DeadlineStage {
    /// Every stage, in label order.
    pub const ALL: [DeadlineStage; 3] =
        [DeadlineStage::Queue, DeadlineStage::Cache, DeadlineStage::Sweep];

    fn index(self) -> usize {
        match self {
            DeadlineStage::Queue => 0,
            DeadlineStage::Cache => 1,
            DeadlineStage::Sweep => 2,
        }
    }

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            DeadlineStage::Queue => "queue",
            DeadlineStage::Cache => "cache",
            DeadlineStage::Sweep => "sweep",
        }
    }
}

/// One stage of a request's end-to-end timeline through the event-driven
/// data plane; the `stage` label on
/// `chemcost_request_stage_duration_seconds`. The five stages partition
/// the first-byte → last-byte wall time (see `crate::timeline`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestStage {
    /// First byte read → parse complete (the deadline anchor).
    Read,
    /// Parse complete → a worker dequeued the request.
    Queue,
    /// Worker dequeue → handler done, the model call included.
    Handler,
    /// Handler done → response encoded onto the wire buffer (waiting for
    /// its turn in the pipeline reorder).
    Reorder,
    /// Response encoded → last byte accepted by the socket.
    Write,
}

impl RequestStage {
    /// Every stage, in timeline order.
    pub const ALL: [RequestStage; 5] = [
        RequestStage::Read,
        RequestStage::Queue,
        RequestStage::Handler,
        RequestStage::Reorder,
        RequestStage::Write,
    ];

    /// Position in [`RequestStage::ALL`] (metric array index).
    pub fn index(self) -> usize {
        match self {
            RequestStage::Read => 0,
            RequestStage::Queue => 1,
            RequestStage::Handler => 2,
            RequestStage::Reorder => 3,
            RequestStage::Write => 4,
        }
    }

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        match self {
            RequestStage::Read => "read",
            RequestStage::Queue => "queue",
            RequestStage::Handler => "handler",
            RequestStage::Reorder => "reorder",
            RequestStage::Write => "write",
        }
    }

    /// The field key in `request.timeline` obs events and in the
    /// `/debug/requests` `stages` object (label + `_us`, values are
    /// microseconds).
    pub fn field_key(self) -> &'static str {
        match self {
            RequestStage::Read => "read_us",
            RequestStage::Queue => "queue_us",
            RequestStage::Handler => "handler_us",
            RequestStage::Reorder => "reorder_us",
            RequestStage::Write => "write_us",
        }
    }
}

/// Histogram bucket upper bounds, in seconds.
const BUCKETS: [f64; 10] = [1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0];

/// Every metric family the service exposes, by family name. The smoke
/// and chaos CI jobs pass this to [`lint_exposition_with_required`] so
/// a series silently dropped from [`Metrics::render`] (or one that only
/// materializes after its first increment) fails the scrape check.
pub const REQUIRED_SERIES: &[&str] = &[
    "chemcost_build_info",
    "chemcost_requests_total",
    "chemcost_request_errors_total",
    "chemcost_requests_in_flight",
    "chemcost_pool_queue_depth",
    "chemcost_requests_shed_total",
    "chemcost_request_duration_seconds",
    "chemcost_advise_stage_duration_seconds",
    "chemcost_advise_cache_hits_total",
    "chemcost_advise_cache_misses_total",
    "chemcost_advise_cache_entries",
    "chemcost_deadline_exceeded_total",
    "chemcost_model_staleness_seconds",
    "chemcost_model_reload_failures_total",
    "chemcost_advise_stale_served_total",
    "chemcost_faults_injected_total",
    "chemcost_quality_observations_total",
    "chemcost_model_mape",
    "chemcost_model_bias_seconds",
    "chemcost_residual_seconds",
    "chemcost_calibration_ratio",
    "chemcost_model_degraded",
    "chemcost_drift_trips_total",
    "chemcost_quality_pool_size",
    "chemcost_quality_pool_evictions_total",
    "chemcost_lifecycle_state",
    "chemcost_lifecycle_transitions_total",
    "chemcost_lifecycle_queue_depth",
    "chemcost_lifecycle_fit_duration_seconds",
    "chemcost_lifecycle_promotions_total",
    "chemcost_connections_open",
    "chemcost_keepalive_reuses_total",
    "chemcost_request_stage_duration_seconds",
    "chemcost_event_loop_iteration_duration_seconds",
    "chemcost_event_loop_events_per_wake",
    "chemcost_connections_read_paused",
    "chemcost_connections_write_stalled",
    "chemcost_alerts_transitions_total",
    "chemcost_alerts_firing",
    "chemcost_alerts_pending",
    "chemcost_slo_evaluations_total",
    "chemcost_slo_breaching",
    "chemcost_slo_scrapes_total",
];

/// Version baked into `chemcost_build_info`.
const BUILD_VERSION: &str = env!("CARGO_PKG_VERSION");
/// Git SHA baked into `chemcost_build_info` (set `CHEMCOST_GIT_SHA` at
/// build time; CI does).
const BUILD_GIT_SHA: &str = match option_env!("CHEMCOST_GIT_SHA") {
    Some(sha) => sha,
    None => "unknown",
};
/// Working-tree dirtiness baked into `chemcost_build_info` (set
/// `CHEMCOST_GIT_DIRTY` to `"true"`/`"false"` at build time; CI does).
/// `unknown` means the build script didn't say — e.g. a plain local
/// `cargo build`.
const BUILD_DIRTY: &str = match option_env!("CHEMCOST_GIT_DIRTY") {
    Some(dirty) => dirty,
    None => "unknown",
};

/// The `(version, git_sha, dirty)` triple stamped on
/// `chemcost_build_info`, reused verbatim by `GET /v1/quality` and
/// `chemcost --version` so every surface reports the same build.
pub fn build_info() -> (&'static str, &'static str, &'static str) {
    (BUILD_VERSION, BUILD_GIT_SHA, BUILD_DIRTY)
}

/// Stripes per [`ShardedCounter`]. Power of two so the per-thread pick
/// is a mask.
const COUNTER_SHARDS: usize = 8;

/// One cache line's worth of counter, so neighbouring stripes never
/// false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Per-thread stripe index, handed out round-robin on first use so a
/// steady pool of request threads spreads evenly over the stripes.
fn counter_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT.fetch_add(1, Ordering::Relaxed) & (COUNTER_SHARDS - 1);
        s.set(v);
        v
    })
}

/// A monotonically increasing counter striped across cache-line-padded
/// shards: increments touch only the calling thread's stripe, reads sum
/// all stripes. Written per request, read per scrape.
#[derive(Default)]
struct ShardedCounter {
    stripes: [PaddedU64; COUNTER_SHARDS],
}

impl ShardedCounter {
    #[inline]
    fn inc(&self) {
        self.stripes[counter_stripe()].0.fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

#[derive(Default)]
struct RouteStats {
    requests: ShardedCounter,
    errors: ShardedCounter,
}

/// Preformatted line prefixes for one histogram's fixed series names —
/// everything up to the sample value, built once per process so a scrape
/// only formats the integers.
struct RenderSlab {
    /// `name_bucket{extra,le="…"} ` for each bucket, `+Inf` last.
    bucket_prefixes: Vec<String>,
    /// `name_sum ` / `name_sum{labels} `.
    sum_prefix: String,
    /// `name_count ` / `name_count{labels} `.
    count_prefix: String,
}

impl RenderSlab {
    fn build<B: std::fmt::Display>(name: &str, extra: &str, bounds: &[B]) -> RenderSlab {
        let mut bucket_prefixes: Vec<String> =
            bounds.iter().map(|le| format!("{name}_bucket{{{extra}le=\"{le}\"}} ")).collect();
        bucket_prefixes.push(format!("{name}_bucket{{{extra}le=\"+Inf\"}} "));
        let (sum_prefix, count_prefix) = if extra.is_empty() {
            (format!("{name}_sum "), format!("{name}_count "))
        } else {
            let labels = extra.trim_end_matches(',');
            (format!("{name}_sum{{{labels}}} "), format!("{name}_count{{{labels}}} "))
        };
        RenderSlab { bucket_prefixes, sum_prefix, count_prefix }
    }
}

/// Render the cumulative bucket lines and return their total, which the
/// caller prints as `_count`. Concurrent `observe` calls bump bucket →
/// sum → count, so a separately loaded `count` can run ahead of the
/// buckets read a moment earlier and print a `+Inf` bucket below
/// `_count`; the total read in this one pass always equals `+Inf`.
fn render_buckets(out: &mut String, buckets: &[AtomicU64; 11], slab: &RenderSlab) -> u64 {
    let mut cumulative = 0u64;
    for (bucket, prefix) in buckets.iter().zip(&slab.bucket_prefixes) {
        cumulative += bucket.load(Ordering::Relaxed);
        out.push_str(prefix);
        let _ = writeln!(out, "{cumulative}");
    }
    cumulative
}

/// Cumulative bucket counts (+ overflow) with sum and count — one
/// Prometheus histogram series set.
#[derive(Default)]
struct Histogram {
    buckets: [AtomicU64; 11],
    sum_micros: AtomicU64,
    count: AtomicU64,
    /// Built on first render; each histogram instance renders under one
    /// fixed `(name, extra)` pair.
    slab: OnceLock<RenderSlab>,
}

impl Histogram {
    fn observe(&self, elapsed: Duration) {
        let secs = elapsed.as_secs_f64();
        let bucket = BUCKETS.iter().position(|&b| secs <= b).unwrap_or(BUCKETS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(elapsed.as_micros() as u64, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Render `name{extra_labels,le="…"} …` bucket lines plus sum and
    /// count. `extra` is either empty or `label="value",` (trailing
    /// comma included).
    fn render(&self, out: &mut String, name: &str, extra: &str) {
        let slab = self.slab.get_or_init(|| RenderSlab::build(name, extra, &BUCKETS));
        let count = render_buckets(out, &self.buckets, slab);
        let sum = self.sum_micros.load(Ordering::Relaxed) as f64 / 1e6;
        out.push_str(&slab.sum_prefix);
        let _ = writeln!(out, "{sum}");
        out.push_str(&slab.count_prefix);
        let _ = writeln!(out, "{count}");
    }
}

/// Bucket upper bounds for `chemcost_event_loop_events_per_wake`:
/// powers of two.
const SIZE_BUCKETS: [u64; 10] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512];

/// A histogram over discrete sizes (row counts), same Prometheus shape
/// as [`Histogram`] but with integer bucket bounds and a plain sum.
#[derive(Default)]
struct SizeHistogram {
    buckets: [AtomicU64; 11],
    sum: AtomicU64,
    count: AtomicU64,
    /// Built on first render; see [`Histogram::slab`].
    slab: OnceLock<RenderSlab>,
}

impl SizeHistogram {
    fn observe(&self, n: usize) {
        let n = n as u64;
        let bucket = SIZE_BUCKETS.iter().position(|&b| n <= b).unwrap_or(SIZE_BUCKETS.len());
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn render(&self, out: &mut String, name: &str) {
        let slab = self.slab.get_or_init(|| RenderSlab::build(name, "", &SIZE_BUCKETS));
        let count = render_buckets(out, &self.buckets, slab);
        out.push_str(&slab.sum_prefix);
        let _ = writeln!(out, "{}", self.sum.load(Ordering::Relaxed));
        out.push_str(&slab.count_prefix);
        let _ = writeln!(out, "{count}");
    }
}

/// Rolling model-quality numbers for one `(model, version, machine)`
/// serving group, as computed by the quality hub from observed runtimes
/// and pushed here for exposition. All window statistics are `NaN`
/// until the first ground-truth observation arrives — the gauges render
/// `NaN` rather than a misleading zero.
#[derive(Debug, Clone, Copy)]
pub struct QualityStats {
    /// Ground-truth observations ever accepted for this group.
    pub observations: u64,
    /// Residuals currently inside the sliding window.
    pub window: u64,
    /// Windowed mean absolute percentage error.
    pub mape: f64,
    /// Windowed signed bias in seconds (`mean(predicted − measured)`).
    pub bias_seconds: f64,
    /// Windowed absolute-residual median, in seconds.
    pub residual_p50: f64,
    /// Windowed absolute-residual 90th percentile, in seconds.
    pub residual_p90: f64,
    /// Windowed absolute-residual 99th percentile, in seconds.
    pub residual_p99: f64,
    /// Fraction of σ-carrying residuals inside the predicted ±σ band.
    pub calibration_ratio: f64,
    /// Times the Page–Hinkley drift detector tripped for this group.
    pub drift_trips: u64,
    /// Is the group currently flagged degraded (drift tripped and no
    /// successful reload since)?
    pub degraded: bool,
    /// Observations currently retained in the group's training pool.
    pub pool_size: u64,
    /// Observations silently evicted from the full training pool.
    pub pool_evictions: u64,
}

impl Default for QualityStats {
    fn default() -> QualityStats {
        QualityStats {
            observations: 0,
            window: 0,
            mape: f64::NAN,
            bias_seconds: f64::NAN,
            residual_p50: f64::NAN,
            residual_p90: f64::NAN,
            residual_p99: f64::NAN,
            calibration_ratio: f64::NAN,
            drift_trips: 0,
            degraded: false,
            pool_size: 0,
            pool_evictions: 0,
        }
    }
}

/// One registered quality group: its identifying labels plus the most
/// recently pushed stats.
#[derive(Debug, Clone)]
pub struct QualityEntry {
    /// Model name label.
    pub model: String,
    /// Model version label.
    pub version: u64,
    /// Machine label.
    pub machine: String,
    /// Latest stats snapshot.
    pub stats: QualityStats,
}

/// One lifecycle group's current state, for the per-group state gauge.
/// Keyed by (model, machine) — unlike quality groups, the lifecycle of a
/// model spans its versions.
#[derive(Debug, Clone)]
pub struct LifecycleEntry {
    /// Model name label.
    pub model: String,
    /// Machine label.
    pub machine: String,
    /// Current state (the gauge exports [`LifecycleState::code`]).
    pub state: LifecycleState,
}

/// Shared, thread-safe service metrics.
pub struct Metrics {
    routes: [RouteStats; 13],
    /// Whole-request handling latency.
    latency: Histogram,
    /// Per-stage request-timeline latency, indexed by [`RequestStage`].
    request_stages: [Histogram; 5],
    /// Event-loop iteration duration (one epoll wake's processing).
    loop_iteration: Histogram,
    /// Readiness events delivered per epoll wake.
    loop_events_per_wake: SizeHistogram,
    /// Connections whose reads are paused by backpressure (gauge).
    read_paused: AtomicI64,
    /// Connections with unsent response bytes after a flush (gauge).
    write_stalled: AtomicI64,
    /// Per-stage `/v1/advise` latency, indexed by [`AdviseStage`].
    advise_stages: [Histogram; 4],
    /// `/v1/advise` answers served from the recommendation cache.
    cache_hits: ShardedCounter,
    /// `/v1/advise` answers that had to run the sweep.
    cache_misses: ShardedCounter,
    /// Current number of cached advise answers (gauge).
    cache_entries: AtomicU64,
    /// Requests currently being handled (gauge).
    in_flight: AtomicI64,
    /// Connections queued in the worker pool, not yet picked up (gauge).
    pool_queue_depth: AtomicI64,
    /// Connections shed with 503 because the pool queue was full.
    shed: AtomicU64,
    /// Requests answered 504, per [`DeadlineStage`].
    deadline_exceeded: [AtomicU64; 3],
    /// Failed model reloads (the last-good model kept serving).
    reload_failures: AtomicU64,
    /// Advise answers served from an older model version under overload.
    stale_served: AtomicU64,
    /// Injected faults, per [`FaultKind`].
    faults_injected: [AtomicU64; 5],
    /// `/v1/observe` reports accepted into the quality stats.
    quality_accepted: AtomicU64,
    /// `/v1/observe` reports rejected (4xx) without touching the stats.
    quality_rejected: AtomicU64,
    /// Per-`(model, version, machine)` quality gauges, upserted by the
    /// quality hub. A `Vec` behind a lock, not atomics: the label set is
    /// dynamic (it follows the model registry) but tiny and updated only
    /// on observe/reload, never on the request hot path.
    quality: parking_lot::RwLock<Vec<QualityEntry>>,
    /// Per-`(model, machine)` lifecycle state gauge, upserted by the
    /// lifecycle hub through the [`LifecycleObserver`] bridge.
    lifecycle: parking_lot::RwLock<Vec<LifecycleEntry>>,
    /// Valid lifecycle transitions taken, indexed by position in
    /// [`chemcost_lifecycle::TRANSITIONS`].
    lifecycle_transitions: [AtomicU64; 13],
    /// Retrain jobs waiting in the trainer queue (gauge).
    lifecycle_queue_depth: AtomicI64,
    /// Candidate fit wall time (success or failure).
    lifecycle_fit_duration: Histogram,
    /// Promotion decisions, indexed by [`PromotionOutcome::ALL`] position.
    lifecycle_promotions: [AtomicU64; 4],
    /// Open client connections in the event loop (gauge).
    connections_open: AtomicI64,
    /// Requests served on a reused (non-first) keep-alive exchange.
    keepalive_reuses: ShardedCounter,
    /// Monotonic clock anchor for the two timestamps below.
    start: Instant,
    /// Micros-since-`start` + 1 of the moment the serving model went
    /// stale (first failed reload after a success); 0 = fresh.
    stale_since: AtomicU64,
    /// Micros-since-`start` + 1 of the most recent shed; 0 = never.
    last_shed: AtomicU64,
    /// Alert transitions by destination state, indexed ok/pending/
    /// firing/resolved (health plane).
    alert_transitions: [AtomicU64; 4],
    /// SLOs whose alert is currently firing (gauge).
    alerts_firing: AtomicI64,
    /// SLOs whose alert is currently pending (gauge).
    alerts_pending: AtomicI64,
    /// SLO evaluations run by the health sampler.
    slo_evaluations: AtomicU64,
    /// SLOs breaching on their latest evaluation (gauge).
    slo_breaching: AtomicI64,
    /// Self-scrape samples taken by the health sampler.
    slo_scrapes: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            routes: Default::default(),
            latency: Histogram::default(),
            request_stages: Default::default(),
            loop_iteration: Histogram::default(),
            loop_events_per_wake: SizeHistogram::default(),
            read_paused: AtomicI64::new(0),
            write_stalled: AtomicI64::new(0),
            advise_stages: Default::default(),
            cache_hits: ShardedCounter::default(),
            cache_misses: ShardedCounter::default(),
            cache_entries: AtomicU64::new(0),
            in_flight: AtomicI64::new(0),
            pool_queue_depth: AtomicI64::new(0),
            shed: AtomicU64::new(0),
            deadline_exceeded: Default::default(),
            reload_failures: AtomicU64::new(0),
            stale_served: AtomicU64::new(0),
            faults_injected: Default::default(),
            quality_accepted: AtomicU64::new(0),
            quality_rejected: AtomicU64::new(0),
            quality: parking_lot::RwLock::new(Vec::new()),
            lifecycle: parking_lot::RwLock::new(Vec::new()),
            lifecycle_transitions: Default::default(),
            lifecycle_queue_depth: AtomicI64::new(0),
            lifecycle_fit_duration: Histogram::default(),
            lifecycle_promotions: Default::default(),
            connections_open: AtomicI64::new(0),
            keepalive_reuses: ShardedCounter::default(),
            start: Instant::now(),
            stale_since: AtomicU64::new(0),
            last_shed: AtomicU64::new(0),
            alert_transitions: Default::default(),
            alerts_firing: AtomicI64::new(0),
            alerts_pending: AtomicI64::new(0),
            slo_evaluations: AtomicU64::new(0),
            slo_breaching: AtomicI64::new(0),
            slo_scrapes: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Micros elapsed since this `Metrics` was created, offset by +1 so
    /// 0 can mean "unset" in the timestamp atomics.
    fn now_stamp(&self) -> u64 {
        self.start.elapsed().as_micros() as u64 + 1
    }

    /// Record one request: its route, whether the response was an error
    /// (HTTP status >= 400), and how long handling took.
    pub fn record(&self, route: Route, is_error: bool, elapsed: Duration) {
        let stats = &self.routes[route.index()];
        stats.requests.inc();
        if is_error {
            stats.errors.inc();
        }
        self.latency.observe(elapsed);
    }

    /// Account one connection shed with 503 before it reached the
    /// router: a request *and* an error under the `other` route, plus
    /// the dedicated shed counter. Shed connections never produce a
    /// latency observation — they were refused, not handled.
    pub fn record_shed(&self) {
        let stats = &self.routes[Route::Other.index()];
        stats.requests.inc();
        stats.errors.inc();
        self.shed.fetch_add(1, Ordering::Relaxed);
        self.last_shed.store(self.now_stamp(), Ordering::Relaxed);
    }

    /// Connections shed so far.
    pub fn shed_total(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Did a shed happen within the last `window`? This is the overload
    /// signal that unlocks serve-stale-on-overload in the advise path.
    pub fn shed_within(&self, window: Duration) -> bool {
        match self.last_shed.load(Ordering::Relaxed) {
            0 => false,
            // Strictly less-than: a zero window never matches, even if
            // the shed landed on this very microsecond.
            stamp => self.now_stamp().saturating_sub(stamp) < window.as_micros() as u64,
        }
    }

    /// Record one 504: the request's budget ran out at `stage`.
    pub fn record_deadline_exceeded(&self, stage: DeadlineStage) {
        self.deadline_exceeded[stage.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Deadline overruns recorded at one stage.
    pub fn deadline_exceeded(&self, stage: DeadlineStage) -> u64 {
        self.deadline_exceeded[stage.index()].load(Ordering::Relaxed)
    }

    /// Record one fault injection (mirrored here by the bound
    /// [`crate::fault::FaultPlane`]).
    pub fn record_fault(&self, kind: FaultKind) {
        self.faults_injected[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Injections recorded for one fault kind.
    pub fn faults_injected(&self, kind: FaultKind) -> u64 {
        self.faults_injected[kind.index()].load(Ordering::Relaxed)
    }

    /// Record a failed model reload and start the staleness clock (if
    /// it is not already running).
    pub fn record_reload_failure(&self) {
        self.reload_failures.fetch_add(1, Ordering::Relaxed);
        let _ = self.stale_since.compare_exchange(
            0,
            self.now_stamp(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
    }

    /// Failed reloads so far.
    pub fn reload_failures(&self) -> u64 {
        self.reload_failures.load(Ordering::Relaxed)
    }

    /// A reload succeeded: the serving model is fresh again.
    pub fn mark_model_fresh(&self) {
        self.stale_since.store(0, Ordering::Relaxed);
    }

    /// Seconds the serving model has been known-stale (a reload has
    /// failed and no reload has succeeded since); 0 when fresh.
    pub fn model_staleness_seconds(&self) -> f64 {
        match self.stale_since.load(Ordering::Relaxed) {
            0 => 0.0,
            stamp => self.now_stamp().saturating_sub(stamp) as f64 / 1e6,
        }
    }

    /// Record the outcome of one `/v1/observe` report: accepted into
    /// the rolling stats, or rejected with a structured 4xx.
    pub fn record_quality_observation(&self, accepted: bool) {
        if accepted {
            self.quality_accepted.fetch_add(1, Ordering::Relaxed);
        } else {
            self.quality_rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `/v1/observe` reports accepted so far.
    pub fn quality_accepted(&self) -> u64 {
        self.quality_accepted.load(Ordering::Relaxed)
    }

    /// `/v1/observe` reports rejected so far.
    pub fn quality_rejected(&self) -> u64 {
        self.quality_rejected.load(Ordering::Relaxed)
    }

    /// Upsert the quality gauges for one `(model, version, machine)`
    /// group. Registering a group with [`QualityStats::default`] at
    /// startup (the router does this for every registry entry) is what
    /// makes the quality series appear on the very first scrape.
    pub fn set_model_quality(&self, model: &str, version: u64, machine: &str, stats: QualityStats) {
        let mut groups = self.quality.write();
        match groups
            .iter_mut()
            .find(|e| e.model == model && e.version == version && e.machine == machine)
        {
            Some(entry) => entry.stats = stats,
            None => groups.push(QualityEntry {
                model: model.to_string(),
                version,
                machine: machine.to_string(),
                stats,
            }),
        }
    }

    /// Snapshot of every registered quality group.
    pub fn quality_entries(&self) -> Vec<QualityEntry> {
        self.quality.read().clone()
    }

    /// Upsert the lifecycle state gauge for one `(model, machine)` group.
    /// Registering every group as `Idle` at startup is what makes
    /// `chemcost_lifecycle_state` appear on the very first scrape.
    pub fn set_lifecycle_state(&self, model: &str, machine: &str, state: LifecycleState) {
        let mut groups = self.lifecycle.write();
        match groups.iter_mut().find(|e| e.model == model && e.machine == machine) {
            Some(entry) => entry.state = state,
            None => groups.push(LifecycleEntry {
                model: model.to_string(),
                machine: machine.to_string(),
                state,
            }),
        }
    }

    /// Snapshot of every registered lifecycle group.
    pub fn lifecycle_entries(&self) -> Vec<LifecycleEntry> {
        self.lifecycle.read().clone()
    }

    /// Count one valid lifecycle transition. Pairs outside the enumerated
    /// [`TRANSITIONS`] table are ignored (the hub never emits them).
    pub fn record_lifecycle_transition(&self, from: LifecycleState, to: LifecycleState) {
        if let Some(i) = TRANSITIONS.iter().position(|&(f, t)| f == from && t == to) {
            self.lifecycle_transitions[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Transitions counted for one `(from, to)` pair.
    pub fn lifecycle_transitions(&self, from: LifecycleState, to: LifecycleState) -> u64 {
        TRANSITIONS
            .iter()
            .position(|&(f, t)| f == from && t == to)
            .map_or(0, |i| self.lifecycle_transitions[i].load(Ordering::Relaxed))
    }

    /// Update the trainer-queue depth gauge.
    pub fn set_lifecycle_queue_depth(&self, depth: usize) {
        self.lifecycle_queue_depth.store(depth as i64, Ordering::Relaxed);
    }

    /// Retrain jobs waiting in the trainer queue right now.
    pub fn lifecycle_queue_depth(&self) -> u64 {
        self.lifecycle_queue_depth.load(Ordering::Relaxed).max(0) as u64
    }

    /// Record one candidate fit's wall time (success or failure).
    pub fn record_lifecycle_fit_duration(&self, elapsed: Duration) {
        self.lifecycle_fit_duration.observe(elapsed);
    }

    /// Candidate fits recorded so far.
    pub fn lifecycle_fits(&self) -> u64 {
        self.lifecycle_fit_duration.count.load(Ordering::Relaxed)
    }

    /// Count one promotion decision.
    pub fn record_lifecycle_promotion(&self, outcome: PromotionOutcome) {
        let i = PromotionOutcome::ALL.iter().position(|&o| o == outcome).expect("outcome in ALL");
        self.lifecycle_promotions[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Promotion decisions counted for one outcome.
    pub fn lifecycle_promotions(&self, outcome: PromotionOutcome) -> u64 {
        let i = PromotionOutcome::ALL.iter().position(|&o| o == outcome).expect("outcome in ALL");
        self.lifecycle_promotions[i].load(Ordering::Relaxed)
    }

    /// Record an advise answer served from an older model version.
    pub fn record_stale_served(&self) {
        self.stale_served.fetch_add(1, Ordering::Relaxed);
    }

    /// Stale advise answers served so far.
    pub fn stale_served(&self) -> u64 {
        self.stale_served.load(Ordering::Relaxed)
    }

    /// Record one `/v1/advise` stage duration.
    pub fn record_advise_stage(&self, stage: AdviseStage, elapsed: Duration) {
        self.advise_stages[stage.index()].observe(elapsed);
    }

    /// Observations recorded for one advise stage.
    pub fn advise_stage_count(&self, stage: AdviseStage) -> u64 {
        self.advise_stages[stage.index()].count.load(Ordering::Relaxed)
    }

    /// Mean recorded duration for one advise stage, in seconds (NaN when
    /// the stage has no observations). Used by the promotion-safety tests
    /// to bound the shadow stage's overhead against the full pipeline.
    pub fn advise_stage_mean_seconds(&self, stage: AdviseStage) -> f64 {
        let h = &self.advise_stages[stage.index()];
        let n = h.count.load(Ordering::Relaxed);
        if n == 0 {
            return f64::NAN;
        }
        h.sum_micros.load(Ordering::Relaxed) as f64 / 1e6 / n as f64
    }

    /// A request entered the router.
    pub fn inc_in_flight(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// A request left the router.
    pub fn dec_in_flight(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently in flight (clamped at 0 — concurrent inc/dec
    /// can transiently observe a negative value).
    pub fn in_flight(&self) -> u64 {
        self.in_flight.load(Ordering::Relaxed).max(0) as u64
    }

    /// A connection was queued for the worker pool.
    pub fn pool_enqueued(&self) {
        self.pool_queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued connection was picked up by a worker (or bounced back
    /// on a full queue).
    pub fn pool_dequeued(&self) {
        self.pool_queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections waiting in the pool queue right now (clamped at 0).
    pub fn pool_queue_depth(&self) -> u64 {
        self.pool_queue_depth.load(Ordering::Relaxed).max(0) as u64
    }

    /// Total requests recorded for a route.
    pub fn requests(&self, route: Route) -> u64 {
        self.routes[route.index()].requests.load()
    }

    /// Total error responses recorded for a route.
    pub fn errors(&self, route: Route) -> u64 {
        self.routes[route.index()].errors.load()
    }

    /// A client connection was accepted by the event loop.
    pub fn inc_connections_open(&self) {
        self.connections_open.fetch_add(1, Ordering::Relaxed);
    }

    /// A client connection was closed (either side).
    pub fn dec_connections_open(&self) {
        self.connections_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Client connections open right now (clamped at 0).
    pub fn connections_open(&self) -> u64 {
        self.connections_open.load(Ordering::Relaxed).max(0) as u64
    }

    /// Record a request served on a reused keep-alive exchange (any
    /// request after the first on one connection).
    pub fn record_keepalive_reuse(&self) {
        self.keepalive_reuses.inc();
    }

    /// Keep-alive reuses so far.
    pub fn keepalive_reuses(&self) -> u64 {
        self.keepalive_reuses.load()
    }

    /// Record one stage of a completed request timeline.
    pub fn record_request_stage(&self, stage: RequestStage, elapsed: Duration) {
        self.request_stages[stage.index()].observe(elapsed);
    }

    /// Observations recorded for one request-timeline stage.
    pub fn request_stage_count(&self, stage: RequestStage) -> u64 {
        self.request_stages[stage.index()].count.load(Ordering::Relaxed)
    }

    /// Seconds recorded for one request-timeline stage, summed.
    pub fn request_stage_sum_seconds(&self, stage: RequestStage) -> f64 {
        self.request_stages[stage.index()].sum_micros.load(Ordering::Relaxed) as f64 / 1e6
    }

    /// Record one event-loop pass: how long processing one epoll wake
    /// took and how many readiness events it delivered.
    pub fn record_loop_iteration(&self, elapsed: Duration, events: usize) {
        self.loop_iteration.observe(elapsed);
        self.loop_events_per_wake.observe(events);
    }

    /// Event-loop iterations recorded so far.
    pub fn loop_iterations(&self) -> u64 {
        self.loop_iteration.count.load(Ordering::Relaxed)
    }

    /// A connection's reads were paused by backpressure (pipeline cap or
    /// write high-water mark).
    pub fn inc_read_paused(&self) {
        self.read_paused.fetch_add(1, Ordering::Relaxed);
    }

    /// A read-paused connection resumed (or closed).
    pub fn dec_read_paused(&self) {
        self.read_paused.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently read-paused (clamped at 0).
    pub fn read_paused(&self) -> u64 {
        self.read_paused.load(Ordering::Relaxed).max(0) as u64
    }

    /// A connection was left with unsent response bytes after a flush
    /// (the socket would block — a slow or stalled consumer).
    pub fn inc_write_stalled(&self) {
        self.write_stalled.fetch_add(1, Ordering::Relaxed);
    }

    /// A write-stalled connection drained (or closed).
    pub fn dec_write_stalled(&self) {
        self.write_stalled.fetch_sub(1, Ordering::Relaxed);
    }

    /// Connections currently write-stalled (clamped at 0).
    pub fn write_stalled(&self) -> u64 {
        self.write_stalled.load(Ordering::Relaxed).max(0) as u64
    }

    /// Record an advise-cache hit.
    pub fn record_cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Record an advise-cache miss.
    pub fn record_cache_miss(&self) {
        self.cache_misses.inc();
    }

    /// Update the advise-cache size gauge.
    pub fn set_cache_entries(&self, n: usize) {
        self.cache_entries.store(n as u64, Ordering::Relaxed);
    }

    /// Advise-cache hits so far.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load()
    }

    /// Advise-cache misses so far.
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load()
    }

    /// Cached advise answers right now.
    pub fn cache_entries(&self) -> u64 {
        self.cache_entries.load(Ordering::Relaxed)
    }

    /// Snapshot one histogram as `(buckets, sum_micros, count)`. The
    /// count is read *first*: `observe` bumps bucket → sum → count, so
    /// reading in the opposite order guarantees
    /// `sum(buckets) >= count` — a snapshot can under-report the very
    /// newest observation but never tear a bucket/count pair.
    fn snapshot_histogram(h: &Histogram) -> ([u64; 11], u64, u64) {
        let count = h.count.load(Ordering::Acquire);
        let sum_micros = h.sum_micros.load(Ordering::Acquire);
        let mut buckets = [0u64; 11];
        for (b, a) in buckets.iter_mut().zip(&h.buckets) {
            *b = a.load(Ordering::Acquire);
        }
        (buckets, sum_micros, count)
    }

    /// Histogram bucket upper bounds shared by every latency histogram
    /// (seconds; the 11th bucket is `+Inf`).
    pub fn histogram_bounds() -> &'static [f64] {
        &BUCKETS
    }

    /// Torn-pair-free snapshot of the whole-request latency histogram.
    pub fn latency_snapshot(&self) -> ([u64; 11], u64, u64) {
        Metrics::snapshot_histogram(&self.latency)
    }

    /// Torn-pair-free snapshot of one advise-stage histogram.
    pub fn advise_stage_snapshot(&self, stage: AdviseStage) -> ([u64; 11], u64, u64) {
        Metrics::snapshot_histogram(&self.advise_stages[stage.index()])
    }

    /// Torn-pair-free snapshot of one request-timeline stage histogram.
    pub fn request_stage_snapshot(&self, stage: RequestStage) -> ([u64; 11], u64, u64) {
        Metrics::snapshot_histogram(&self.request_stages[stage.index()])
    }

    /// Count one alert transition by destination-state label
    /// ("ok"/"pending"/"firing"/"resolved"); anything else is ignored
    /// so the label set stays pre-registered.
    pub fn record_alert_transition(&self, to: &str) {
        let i = match to {
            "ok" => 0,
            "pending" => 1,
            "firing" => 2,
            "resolved" => 3,
            _ => return,
        };
        self.alert_transitions[i].fetch_add(1, Ordering::Relaxed);
    }

    /// Alert transitions counted into one destination state.
    pub fn alert_transitions(&self, to: &str) -> u64 {
        match to {
            "ok" => self.alert_transitions[0].load(Ordering::Relaxed),
            "pending" => self.alert_transitions[1].load(Ordering::Relaxed),
            "firing" => self.alert_transitions[2].load(Ordering::Relaxed),
            "resolved" => self.alert_transitions[3].load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Update the firing/pending alert gauges after an evaluation pass.
    pub fn set_alert_gauges(&self, firing: usize, pending: usize) {
        self.alerts_firing.store(firing as i64, Ordering::Relaxed);
        self.alerts_pending.store(pending as i64, Ordering::Relaxed);
    }

    /// SLO alerts currently firing.
    pub fn alerts_firing(&self) -> u64 {
        self.alerts_firing.load(Ordering::Relaxed).max(0) as u64
    }

    /// SLO alerts currently pending.
    pub fn alerts_pending(&self) -> u64 {
        self.alerts_pending.load(Ordering::Relaxed).max(0) as u64
    }

    /// Account one health-sampler pass: `evaluations` SLO evaluations
    /// ran, `breaching` of them found both burn windows over threshold.
    pub fn record_slo_scrape(&self, evaluations: u64, breaching: usize) {
        self.slo_scrapes.fetch_add(1, Ordering::Relaxed);
        self.slo_evaluations.fetch_add(evaluations, Ordering::Relaxed);
        self.slo_breaching.store(breaching as i64, Ordering::Relaxed);
    }

    /// Self-scrape samples taken so far.
    pub fn slo_scrapes(&self) -> u64 {
        self.slo_scrapes.load(Ordering::Relaxed)
    }

    /// SLO evaluations run so far.
    pub fn slo_evaluations(&self) -> u64 {
        self.slo_evaluations.load(Ordering::Relaxed)
    }

    /// SLOs breaching on the latest evaluation.
    pub fn slo_breaching(&self) -> u64 {
        self.slo_breaching.load(Ordering::Relaxed).max(0) as u64
    }

    /// Render the Prometheus text exposition.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP chemcost_build_info Build metadata; constant 1.\n");
        out.push_str("# TYPE chemcost_build_info gauge\n");
        out.push_str(&format!(
            "chemcost_build_info{{version=\"{BUILD_VERSION}\",git_sha=\"{BUILD_GIT_SHA}\",dirty=\"{BUILD_DIRTY}\"}} 1\n"
        ));
        out.push_str("# HELP chemcost_requests_total Requests handled, by route.\n");
        out.push_str("# TYPE chemcost_requests_total counter\n");
        for route in Route::ALL {
            let n = self.requests(route);
            out.push_str(&format!("chemcost_requests_total{{route=\"{}\"}} {n}\n", route.label()));
        }
        out.push_str(
            "# HELP chemcost_request_errors_total Error responses (status >= 400), by route.\n",
        );
        out.push_str("# TYPE chemcost_request_errors_total counter\n");
        for route in Route::ALL {
            let n = self.errors(route);
            out.push_str(&format!(
                "chemcost_request_errors_total{{route=\"{}\"}} {n}\n",
                route.label()
            ));
        }
        out.push_str("# HELP chemcost_requests_in_flight Requests currently being handled.\n");
        out.push_str("# TYPE chemcost_requests_in_flight gauge\n");
        out.push_str(&format!("chemcost_requests_in_flight {}\n", self.in_flight()));
        out.push_str("# HELP chemcost_pool_queue_depth Connections queued for the worker pool.\n");
        out.push_str("# TYPE chemcost_pool_queue_depth gauge\n");
        out.push_str(&format!("chemcost_pool_queue_depth {}\n", self.pool_queue_depth()));
        out.push_str(
            "# HELP chemcost_requests_shed_total Connections answered 503 because the pool queue was full.\n",
        );
        out.push_str("# TYPE chemcost_requests_shed_total counter\n");
        out.push_str(&format!("chemcost_requests_shed_total {}\n", self.shed_total()));
        out.push_str("# HELP chemcost_request_duration_seconds Request handling latency.\n");
        out.push_str("# TYPE chemcost_request_duration_seconds histogram\n");
        self.latency.render(&mut out, "chemcost_request_duration_seconds", "");
        out.push_str(
            "# HELP chemcost_advise_stage_duration_seconds Advise pipeline latency, by stage (cache probe, model sweep, JSON encode).\n",
        );
        out.push_str("# TYPE chemcost_advise_stage_duration_seconds histogram\n");
        for stage in AdviseStage::ALL {
            self.advise_stages[stage.index()].render(
                &mut out,
                "chemcost_advise_stage_duration_seconds",
                &format!("stage=\"{}\",", stage.label()),
            );
        }
        out.push_str("# HELP chemcost_advise_cache_hits_total Advise answers served from cache.\n");
        out.push_str("# TYPE chemcost_advise_cache_hits_total counter\n");
        out.push_str(&format!("chemcost_advise_cache_hits_total {}\n", self.cache_hits()));
        out.push_str(
            "# HELP chemcost_advise_cache_misses_total Advise answers that ran the sweep.\n",
        );
        out.push_str("# TYPE chemcost_advise_cache_misses_total counter\n");
        out.push_str(&format!("chemcost_advise_cache_misses_total {}\n", self.cache_misses()));
        out.push_str("# HELP chemcost_advise_cache_entries Cached advise answers.\n");
        out.push_str("# TYPE chemcost_advise_cache_entries gauge\n");
        out.push_str(&format!(
            "chemcost_advise_cache_entries {}\n",
            self.cache_entries.load(Ordering::Relaxed)
        ));
        out.push_str(
            "# HELP chemcost_deadline_exceeded_total Requests answered 504, by the stage where the budget ran out.\n",
        );
        out.push_str("# TYPE chemcost_deadline_exceeded_total counter\n");
        for stage in DeadlineStage::ALL {
            out.push_str(&format!(
                "chemcost_deadline_exceeded_total{{stage=\"{}\"}} {}\n",
                stage.label(),
                self.deadline_exceeded(stage)
            ));
        }
        out.push_str(
            "# HELP chemcost_model_staleness_seconds Seconds since the serving model went stale (a reload failed); 0 when fresh.\n",
        );
        out.push_str("# TYPE chemcost_model_staleness_seconds gauge\n");
        out.push_str(&format!(
            "chemcost_model_staleness_seconds {}\n",
            self.model_staleness_seconds()
        ));
        out.push_str(
            "# HELP chemcost_model_reload_failures_total Failed model reloads (the last-good model kept serving).\n",
        );
        out.push_str("# TYPE chemcost_model_reload_failures_total counter\n");
        out.push_str(&format!("chemcost_model_reload_failures_total {}\n", self.reload_failures()));
        out.push_str(
            "# HELP chemcost_advise_stale_served_total Advise answers replayed from an older model version under overload.\n",
        );
        out.push_str("# TYPE chemcost_advise_stale_served_total counter\n");
        out.push_str(&format!("chemcost_advise_stale_served_total {}\n", self.stale_served()));
        out.push_str(
            "# HELP chemcost_faults_injected_total Faults injected by the chaos plane, by kind.\n",
        );
        out.push_str("# TYPE chemcost_faults_injected_total counter\n");
        for kind in FaultKind::ALL {
            out.push_str(&format!(
                "chemcost_faults_injected_total{{kind=\"{}\"}} {}\n",
                kind.label(),
                self.faults_injected(kind)
            ));
        }
        out.push_str(
            "# HELP chemcost_quality_observations_total Ground-truth runtime reports on /v1/observe, by outcome (accepted into the rolling stats, or rejected 4xx).\n",
        );
        out.push_str("# TYPE chemcost_quality_observations_total counter\n");
        out.push_str(&format!(
            "chemcost_quality_observations_total{{outcome=\"accepted\"}} {}\n",
            self.quality_accepted()
        ));
        out.push_str(&format!(
            "chemcost_quality_observations_total{{outcome=\"rejected\"}} {}\n",
            self.quality_rejected()
        ));
        let groups = self.quality.read().clone();
        let labels = |e: &QualityEntry| {
            format!("model=\"{}\",version=\"{}\",machine=\"{}\"", e.model, e.version, e.machine)
        };
        out.push_str(
            "# HELP chemcost_model_mape Windowed mean absolute percentage error of served predictions against observed runtimes; NaN until the first observation.\n",
        );
        out.push_str("# TYPE chemcost_model_mape gauge\n");
        for e in &groups {
            out.push_str(&format!("chemcost_model_mape{{{}}} {}\n", labels(e), e.stats.mape));
        }
        out.push_str(
            "# HELP chemcost_model_bias_seconds Windowed signed bias mean(predicted - measured) in seconds; positive means the model over-promises runtime.\n",
        );
        out.push_str("# TYPE chemcost_model_bias_seconds gauge\n");
        for e in &groups {
            out.push_str(&format!(
                "chemcost_model_bias_seconds{{{}}} {}\n",
                labels(e),
                e.stats.bias_seconds
            ));
        }
        out.push_str(
            "# HELP chemcost_residual_seconds Windowed absolute prediction residual quantiles, in seconds.\n",
        );
        out.push_str("# TYPE chemcost_residual_seconds gauge\n");
        for e in &groups {
            for (q, v) in [
                ("0.5", e.stats.residual_p50),
                ("0.9", e.stats.residual_p90),
                ("0.99", e.stats.residual_p99),
            ] {
                out.push_str(&format!(
                    "chemcost_residual_seconds{{{},quantile=\"{q}\"}} {v}\n",
                    labels(e)
                ));
            }
        }
        out.push_str(
            "# HELP chemcost_calibration_ratio Fraction of sigma-carrying residuals inside the predicted +/-sigma band (well-calibrated Gaussian: ~0.68).\n",
        );
        out.push_str("# TYPE chemcost_calibration_ratio gauge\n");
        for e in &groups {
            out.push_str(&format!(
                "chemcost_calibration_ratio{{{}}} {}\n",
                labels(e),
                e.stats.calibration_ratio
            ));
        }
        out.push_str(
            "# HELP chemcost_model_degraded 1 when the drift detector has tripped for the group and the model has not been refreshed since, else 0.\n",
        );
        out.push_str("# TYPE chemcost_model_degraded gauge\n");
        for e in &groups {
            out.push_str(&format!(
                "chemcost_model_degraded{{{}}} {}\n",
                labels(e),
                u64::from(e.stats.degraded)
            ));
        }
        out.push_str(
            "# HELP chemcost_drift_trips_total Page-Hinkley drift-detector trips over the residual stream, per serving group.\n",
        );
        out.push_str("# TYPE chemcost_drift_trips_total counter\n");
        for e in &groups {
            out.push_str(&format!(
                "chemcost_drift_trips_total{{{}}} {}\n",
                labels(e),
                e.stats.drift_trips
            ));
        }
        out.push_str(
            "# HELP chemcost_quality_pool_size Observations currently retained in the group's training pool.\n",
        );
        out.push_str("# TYPE chemcost_quality_pool_size gauge\n");
        for e in &groups {
            out.push_str(&format!(
                "chemcost_quality_pool_size{{{}}} {}\n",
                labels(e),
                e.stats.pool_size
            ));
        }
        out.push_str(
            "# HELP chemcost_quality_pool_evictions_total Observations silently evicted from the full training pool, per serving group.\n",
        );
        out.push_str("# TYPE chemcost_quality_pool_evictions_total counter\n");
        for e in &groups {
            out.push_str(&format!(
                "chemcost_quality_pool_evictions_total{{{}}} {}\n",
                labels(e),
                e.stats.pool_evictions
            ));
        }
        let lifecycle = self.lifecycle.read().clone();
        out.push_str(
            "# HELP chemcost_lifecycle_state Retrain/shadow/promote state per (model, machine) group: 0=idle 1=queued 2=training 3=shadow 4=promoted 5=rejected 6=rolled-back.\n",
        );
        out.push_str("# TYPE chemcost_lifecycle_state gauge\n");
        for e in &lifecycle {
            out.push_str(&format!(
                "chemcost_lifecycle_state{{model=\"{}\",machine=\"{}\"}} {}\n",
                e.model,
                e.machine,
                e.state.code()
            ));
        }
        out.push_str(
            "# HELP chemcost_lifecycle_transitions_total Lifecycle state-machine transitions taken, by (from, to) pair.\n",
        );
        out.push_str("# TYPE chemcost_lifecycle_transitions_total counter\n");
        for (i, (from, to)) in TRANSITIONS.iter().enumerate() {
            out.push_str(&format!(
                "chemcost_lifecycle_transitions_total{{from=\"{}\",to=\"{}\"}} {}\n",
                from.label(),
                to.label(),
                self.lifecycle_transitions[i].load(Ordering::Relaxed)
            ));
        }
        out.push_str(
            "# HELP chemcost_lifecycle_queue_depth Retrain jobs waiting in the background trainer's bounded queue.\n",
        );
        out.push_str("# TYPE chemcost_lifecycle_queue_depth gauge\n");
        out.push_str(&format!("chemcost_lifecycle_queue_depth {}\n", self.lifecycle_queue_depth()));
        out.push_str(
            "# HELP chemcost_lifecycle_fit_duration_seconds Wall time of one background candidate fit (success or failure).\n",
        );
        out.push_str("# TYPE chemcost_lifecycle_fit_duration_seconds histogram\n");
        self.lifecycle_fit_duration.render(&mut out, "chemcost_lifecycle_fit_duration_seconds", "");
        out.push_str(
            "# HELP chemcost_lifecycle_promotions_total Promotion decisions, by outcome (auto, operator, rejected, rolled-back).\n",
        );
        out.push_str("# TYPE chemcost_lifecycle_promotions_total counter\n");
        for outcome in PromotionOutcome::ALL {
            out.push_str(&format!(
                "chemcost_lifecycle_promotions_total{{outcome=\"{}\"}} {}\n",
                outcome.label(),
                self.lifecycle_promotions(outcome)
            ));
        }
        out.push_str(
            "# HELP chemcost_connections_open Client connections currently open in the event loop.\n",
        );
        out.push_str("# TYPE chemcost_connections_open gauge\n");
        out.push_str(&format!("chemcost_connections_open {}\n", self.connections_open()));
        out.push_str(
            "# HELP chemcost_keepalive_reuses_total Requests served on a reused keep-alive exchange (any request after a connection's first).\n",
        );
        out.push_str("# TYPE chemcost_keepalive_reuses_total counter\n");
        out.push_str(&format!("chemcost_keepalive_reuses_total {}\n", self.keepalive_reuses()));
        out.push_str(
            "# HELP chemcost_request_stage_duration_seconds Per-stage request-timeline latency through the event loop (read, queue, handler, reorder, write); the stages of one request sum to its first-byte to last-byte wall time.\n",
        );
        out.push_str("# TYPE chemcost_request_stage_duration_seconds histogram\n");
        for stage in RequestStage::ALL {
            self.request_stages[stage.index()].render(
                &mut out,
                "chemcost_request_stage_duration_seconds",
                &format!("stage=\"{}\",", stage.label()),
            );
        }
        out.push_str(
            "# HELP chemcost_event_loop_iteration_duration_seconds Processing time of one event-loop pass (one epoll wake).\n",
        );
        out.push_str("# TYPE chemcost_event_loop_iteration_duration_seconds histogram\n");
        self.loop_iteration.render(&mut out, "chemcost_event_loop_iteration_duration_seconds", "");
        out.push_str(
            "# HELP chemcost_event_loop_events_per_wake Readiness events delivered per epoll wake.\n",
        );
        out.push_str("# TYPE chemcost_event_loop_events_per_wake histogram\n");
        self.loop_events_per_wake.render(&mut out, "chemcost_event_loop_events_per_wake");
        out.push_str(
            "# HELP chemcost_connections_read_paused Connections whose reads are paused by backpressure (pipeline cap or write high-water mark).\n",
        );
        out.push_str("# TYPE chemcost_connections_read_paused gauge\n");
        out.push_str(&format!("chemcost_connections_read_paused {}\n", self.read_paused()));
        out.push_str(
            "# HELP chemcost_connections_write_stalled Connections holding unsent response bytes after a flush (slow consumers).\n",
        );
        out.push_str("# TYPE chemcost_connections_write_stalled gauge\n");
        out.push_str(&format!("chemcost_connections_write_stalled {}\n", self.write_stalled()));
        out.push_str(
            "# HELP chemcost_alerts_transitions_total SLO alert state transitions, by destination state.\n",
        );
        out.push_str("# TYPE chemcost_alerts_transitions_total counter\n");
        for to in ["ok", "pending", "firing", "resolved"] {
            out.push_str(&format!(
                "chemcost_alerts_transitions_total{{to=\"{to}\"}} {}\n",
                self.alert_transitions(to)
            ));
        }
        out.push_str("# HELP chemcost_alerts_firing SLO alerts currently firing.\n");
        out.push_str("# TYPE chemcost_alerts_firing gauge\n");
        out.push_str(&format!("chemcost_alerts_firing {}\n", self.alerts_firing()));
        out.push_str("# HELP chemcost_alerts_pending SLO alerts currently pending.\n");
        out.push_str("# TYPE chemcost_alerts_pending gauge\n");
        out.push_str(&format!("chemcost_alerts_pending {}\n", self.alerts_pending()));
        out.push_str(
            "# HELP chemcost_slo_evaluations_total SLO evaluations run by the health sampler.\n",
        );
        out.push_str("# TYPE chemcost_slo_evaluations_total counter\n");
        out.push_str(&format!("chemcost_slo_evaluations_total {}\n", self.slo_evaluations()));
        out.push_str(
            "# HELP chemcost_slo_breaching SLOs breaching both burn windows on the latest evaluation.\n",
        );
        out.push_str("# TYPE chemcost_slo_breaching gauge\n");
        out.push_str(&format!("chemcost_slo_breaching {}\n", self.slo_breaching()));
        out.push_str(
            "# HELP chemcost_slo_scrapes_total Self-scrape samples taken by the health sampler.\n",
        );
        out.push_str("# TYPE chemcost_slo_scrapes_total counter\n");
        out.push_str(&format!("chemcost_slo_scrapes_total {}\n", self.slo_scrapes()));
        out
    }
}

/// Bridge handing [`LifecycleObserver`] callbacks from the lifecycle hub's
/// trainer thread to the shared [`Metrics`] registry.
pub struct LifecycleMetricsBridge(pub Arc<Metrics>);

impl LifecycleObserver for LifecycleMetricsBridge {
    fn on_state(&self, model: &str, machine: &str, state: LifecycleState) {
        self.0.set_lifecycle_state(model, machine, state);
    }

    fn on_transition(&self, from: LifecycleState, to: LifecycleState) {
        self.0.record_lifecycle_transition(from, to);
    }

    fn on_queue_depth(&self, depth: usize) {
        self.0.set_lifecycle_queue_depth(depth);
    }

    fn on_fit_duration(&self, seconds: f64) {
        self.0.record_lifecycle_fit_duration(Duration::from_secs_f64(seconds.max(0.0)));
    }

    fn on_promotion(&self, outcome: PromotionOutcome) {
        self.0.record_lifecycle_promotion(outcome);
    }
}

/// Validate a Prometheus text exposition: syntax of every sample line,
/// `# HELP`/`# TYPE` metadata for every metric family, and histogram
/// invariants (cumulative non-decreasing buckets ending in `+Inf` whose
/// total matches `_count`). Returns every problem found, so a single
/// run of the CI smoke job reports all defects at once.
pub fn lint_exposition(text: &str) -> Result<(), Vec<String>> {
    let mut problems = Vec::new();
    let mut helped = std::collections::HashSet::new();
    let mut typed: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    // (family, labels-without-le) -> cumulative bucket values in order,
    // and the matching _count value when seen.
    let mut hist_buckets: std::collections::HashMap<(String, String), Vec<(String, f64)>> =
        std::collections::HashMap::new();
    let mut hist_counts: std::collections::HashMap<(String, String), f64> =
        std::collections::HashMap::new();

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        match chars.next() {
            Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
            _ => return false,
        }
        chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    /// Split `key="value",…` into pairs; returns `None` on bad syntax.
    fn parse_labels(s: &str) -> Option<Vec<(String, String)>> {
        let mut pairs = Vec::new();
        let mut rest = s;
        while !rest.is_empty() {
            let eq = rest.find('=')?;
            let key = rest[..eq].trim().to_string();
            rest = rest[eq + 1..].strip_prefix('"')?;
            // Find the closing quote, honoring backslash escapes.
            let mut end = None;
            let mut escaped = false;
            for (i, c) in rest.char_indices() {
                match c {
                    '\\' if !escaped => escaped = true,
                    '"' if !escaped => {
                        end = Some(i);
                        break;
                    }
                    _ => escaped = false,
                }
            }
            let end = end?;
            pairs.push((key, rest[..end].to_string()));
            rest = &rest[end + 1..];
            rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
        }
        Some(pairs)
    }

    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(meta) = line.strip_prefix("# HELP ") {
            match meta.split_once(' ') {
                Some((name, _)) if valid_name(name) => {
                    helped.insert(name.to_string());
                }
                _ => problems.push(format!("line {n}: malformed HELP: {line:?}")),
            }
            continue;
        }
        if let Some(meta) = line.strip_prefix("# TYPE ") {
            match meta.split_once(' ') {
                Some((name, kind)) if valid_name(name) => {
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        problems.push(format!("line {n}: unknown TYPE {kind:?} for {name}"));
                    }
                    if typed.insert(name.to_string(), kind.to_string()).is_some() {
                        problems.push(format!("line {n}: duplicate TYPE for {name}"));
                    }
                }
                _ => problems.push(format!("line {n}: malformed TYPE: {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // arbitrary comment
        }

        // Sample line: name[{labels}] value
        let (name_labels, value) = match line.rsplit_once(' ') {
            Some(split) => split,
            None => {
                problems.push(format!("line {n}: no value: {line:?}"));
                continue;
            }
        };
        let value: f64 = match value.parse() {
            Ok(v) => v,
            Err(_) => {
                problems.push(format!("line {n}: unparsable value {value:?}"));
                continue;
            }
        };
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels, Vec::new()),
            Some((name, rest)) => match rest.strip_suffix('}').and_then(parse_labels) {
                Some(pairs) => (name, pairs),
                None => {
                    problems.push(format!("line {n}: malformed labels: {line:?}"));
                    continue;
                }
            },
        };
        if !valid_name(name) {
            problems.push(format!("line {n}: invalid metric name {name:?}"));
            continue;
        }
        for (key, _) in &labels {
            if !valid_name(key) {
                problems.push(format!("line {n}: invalid label name {key:?}"));
            }
        }

        // Resolve the metric family (histogram series use suffixes).
        let family = ["_bucket", "_sum", "_count"]
            .iter()
            .find_map(|suffix| {
                let base = name.strip_suffix(suffix)?;
                (typed.get(base).map(String::as_str) == Some("histogram")).then_some(base)
            })
            .unwrap_or(name)
            .to_string();
        match typed.get(&family).map(String::as_str) {
            None => problems.push(format!("line {n}: sample {name} has no # TYPE")),
            Some("counter") => {
                if value < 0.0 {
                    problems.push(format!("line {n}: counter {name} is negative ({value})"));
                }
                if !name.ends_with("_total") {
                    problems.push(format!("line {n}: counter {name} should end in _total"));
                }
            }
            Some("histogram") => {
                let other: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| k != "le")
                    .map(|(k, v)| format!("{k}={v}"))
                    .collect();
                let series = (family.clone(), other.join(","));
                if name.ends_with("_bucket") {
                    let le = labels
                        .iter()
                        .find(|(k, _)| k == "le")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_else(|| {
                            problems.push(format!("line {n}: bucket without le label"));
                            String::new()
                        });
                    hist_buckets.entry(series).or_default().push((le, value));
                } else if name.ends_with("_count") {
                    hist_counts.insert(series, value);
                }
            }
            Some(_) => {}
        }
        if !helped.contains(&family) {
            problems.push(format!("line {n}: sample {name} has no # HELP"));
            helped.insert(family); // report once per family
        }
    }

    for ((family, labels), buckets) in &hist_buckets {
        let label_note = if labels.is_empty() { String::new() } else { format!(" ({labels})") };
        if buckets.last().map(|(le, _)| le.as_str()) != Some("+Inf") {
            problems.push(format!("histogram {family}{label_note}: missing trailing +Inf bucket"));
        }
        if buckets.windows(2).any(|w| w[1].1 < w[0].1) {
            problems.push(format!("histogram {family}{label_note}: buckets not cumulative"));
        }
        if let (Some((_, inf)), Some(count)) =
            (buckets.last(), hist_counts.get(&(family.clone(), labels.clone())))
        {
            if (inf - count).abs() > 0.0 {
                problems.push(format!(
                    "histogram {family}{label_note}: +Inf bucket {inf} != _count {count}"
                ));
            }
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

/// [`lint_exposition`] plus a presence check: every family in
/// `required` must have at least one **sample line** (histograms count
/// through their `_bucket`/`_sum`/`_count` series) — `# HELP`/`# TYPE`
/// metadata alone does not count. This is how the smoke and chaos CI
/// jobs catch a series that would only materialize after its first
/// increment: scrape a fresh server and require the full
/// [`REQUIRED_SERIES`] catalog.
pub fn lint_exposition_with_required(text: &str, required: &[&str]) -> Result<(), Vec<String>> {
    let mut problems = lint_exposition(text).err().unwrap_or_default();
    for family in required {
        let present = text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()).any(|l| {
            let name = l.split(['{', ' ']).next().unwrap_or("");
            name == *family
                || ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| name.strip_suffix(suffix) == Some(family))
        });
        if !present {
            problems.push(format!(
                "required series {family} has no sample line (unregistered before first increment?)"
            ));
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_requests_and_errors_per_route() {
        let m = Metrics::new();
        m.record(Route::Predict, false, Duration::from_millis(2));
        m.record(Route::Predict, true, Duration::from_millis(2));
        m.record(Route::Advise, false, Duration::from_millis(1));
        assert_eq!(m.requests(Route::Predict), 2);
        assert_eq!(m.errors(Route::Predict), 1);
        assert_eq!(m.requests(Route::Advise), 1);
        assert_eq!(m.errors(Route::Advise), 0);
        assert_eq!(m.requests(Route::Healthz), 0);
    }

    #[test]
    fn render_contains_all_series() {
        let m = Metrics::new();
        m.record(Route::Healthz, false, Duration::from_micros(50));
        let text = m.render();
        assert!(text.contains("chemcost_requests_total{route=\"healthz\"} 1"));
        assert!(text.contains("chemcost_requests_total{route=\"predict\"} 0"));
        assert!(text.contains("chemcost_request_errors_total{route=\"healthz\"} 0"));
        assert!(text.contains("chemcost_request_duration_seconds_count 1"));
        assert!(text.contains("le=\"+Inf\"} 1"));
        assert!(text.contains("chemcost_requests_in_flight 0"));
        assert!(text.contains("chemcost_pool_queue_depth 0"));
        assert!(text.contains("chemcost_requests_shed_total 0"));
        assert!(text.contains("chemcost_advise_stage_duration_seconds_bucket{stage=\"sweep\","));
    }

    #[test]
    fn cache_counters_render() {
        let m = Metrics::new();
        m.record_cache_miss();
        m.record_cache_hit();
        m.record_cache_hit();
        m.set_cache_entries(1);
        assert_eq!(m.cache_hits(), 2);
        assert_eq!(m.cache_misses(), 1);
        let text = m.render();
        assert!(text.contains("chemcost_advise_cache_hits_total 2"));
        assert!(text.contains("chemcost_advise_cache_misses_total 1"));
        assert!(text.contains("chemcost_advise_cache_entries 1"));
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let m = Metrics::new();
        m.record(Route::Other, false, Duration::from_micros(50)); // <= 1e-4
        m.record(Route::Other, false, Duration::from_millis(20)); // <= 5e-2
        m.record(Route::Other, false, Duration::from_secs(10)); // overflow
        let text = m.render();
        assert!(text.contains("le=\"0.0001\"} 1"));
        assert!(text.contains("le=\"0.05\"} 2"));
        assert!(text.contains("le=\"5\"} 2"));
        assert!(text.contains("le=\"+Inf\"} 3"));
    }

    #[test]
    fn shed_accounts_route_error_and_counter() {
        let m = Metrics::new();
        m.record_shed();
        m.record_shed();
        assert_eq!(m.shed_total(), 2);
        assert_eq!(m.requests(Route::Other), 2);
        assert_eq!(m.errors(Route::Other), 2);
        let text = m.render();
        assert!(text.contains("chemcost_requests_shed_total 2"));
        // Shed connections are refused, not timed.
        assert!(text.contains("chemcost_request_duration_seconds_count 0"));
    }

    #[test]
    fn gauges_track_in_flight_and_queue_depth() {
        let m = Metrics::new();
        m.inc_in_flight();
        m.inc_in_flight();
        m.dec_in_flight();
        assert_eq!(m.in_flight(), 1);
        m.pool_enqueued();
        m.pool_enqueued();
        m.pool_dequeued();
        assert_eq!(m.pool_queue_depth(), 1);
        // Transient underflow clamps to zero in the exposition.
        m.dec_in_flight();
        m.dec_in_flight();
        assert_eq!(m.in_flight(), 0);
    }

    #[test]
    fn advise_stage_histograms_render_per_stage() {
        let m = Metrics::new();
        m.record_advise_stage(AdviseStage::Cache, Duration::from_micros(30));
        m.record_advise_stage(AdviseStage::Sweep, Duration::from_millis(6));
        m.record_advise_stage(AdviseStage::Sweep, Duration::from_millis(8));
        m.record_advise_stage(AdviseStage::Encode, Duration::from_micros(200));
        m.record_advise_stage(AdviseStage::Shadow, Duration::from_micros(100));
        assert_eq!(m.advise_stage_count(AdviseStage::Sweep), 2);
        assert!((m.advise_stage_mean_seconds(AdviseStage::Shadow) - 1e-4).abs() < 1e-9);
        assert!(m.advise_stage_mean_seconds(AdviseStage::Sweep) > 0.005);
        let text = m.render();
        assert!(
            text.contains("chemcost_advise_stage_duration_seconds_count{stage=\"cache\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("chemcost_advise_stage_duration_seconds_count{stage=\"sweep\"} 2"),
            "{text}"
        );
        assert!(
            text.contains(
                "chemcost_advise_stage_duration_seconds_bucket{stage=\"sweep\",le=\"+Inf\"} 2"
            ),
            "{text}"
        );
        assert!(
            text.contains("chemcost_advise_stage_duration_seconds_count{stage=\"shadow\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn build_info_renders_version_sha_and_dirty() {
        let text = Metrics::new().render();
        assert!(
            text.contains(&format!("chemcost_build_info{{version=\"{BUILD_VERSION}\",git_sha=")),
            "{text}"
        );
        assert!(text.contains(&format!(",dirty=\"{BUILD_DIRTY}\"}} 1\n")), "{text}");
        // The CLI and /v1/quality surface the identical triple.
        let (version, sha, dirty) = build_info();
        assert_eq!(version, BUILD_VERSION);
        assert_eq!(sha, BUILD_GIT_SHA);
        assert_eq!(dirty, BUILD_DIRTY);
    }

    #[test]
    fn exposition_passes_its_own_linter() {
        let m = Metrics::new();
        m.record(Route::Advise, false, Duration::from_millis(3));
        m.record_advise_stage(AdviseStage::Sweep, Duration::from_millis(2));
        m.record_shed();
        m.record_cache_miss();
        lint_exposition(&m.render()).expect("fresh exposition must lint clean");
    }

    #[test]
    fn linter_rejects_malformed_expositions() {
        // Sample without TYPE.
        let errs = lint_exposition("mystery_metric 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("no # TYPE")), "{errs:?}");
        // Counter not ending in _total.
        let errs = lint_exposition("# HELP x c\n# TYPE x counter\nx 3\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("_total")), "{errs:?}");
        // Unparsable value.
        let errs = lint_exposition("# HELP y g\n# TYPE y gauge\ny banana\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("unparsable value")), "{errs:?}");
        // Histogram without +Inf.
        let errs = lint_exposition(
            "# HELP h hist\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_count 2\nh_sum 1\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("+Inf")), "{errs:?}");
        // Non-cumulative histogram.
        let errs = lint_exposition(
            "# HELP h hist\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 1\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("not cumulative")), "{errs:?}");
        // +Inf bucket disagreeing with _count.
        let errs = lint_exposition(
            "# HELP h hist\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_count 4\nh_sum 1\n",
        )
        .unwrap_err();
        assert!(errs.iter().any(|e| e.contains("!= _count")), "{errs:?}");
        // Malformed labels.
        let errs = lint_exposition("# HELP z g\n# TYPE z gauge\nz{oops} 1\n").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("malformed labels")), "{errs:?}");
    }

    /// Satellite (PR 4 bugfix): every family in [`REQUIRED_SERIES`] must
    /// have sample lines on a *fresh* registry — before any request,
    /// fault, or deadline event has incremented it. A scrape of a
    /// just-started server must already show the whole catalog at zero.
    #[test]
    fn all_required_series_render_before_first_increment() {
        let m = Metrics::new();
        // The router registers one quality group and one lifecycle group
        // per registry entry at startup; a just-started server always has
        // at least one of each.
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        let text = m.render();
        lint_exposition_with_required(&text, REQUIRED_SERIES)
            .expect("fresh exposition must pre-register every required series");
        // Spot-check the PR 4 families explicitly at zero.
        assert!(text.contains("chemcost_deadline_exceeded_total{stage=\"queue\"} 0"), "{text}");
        assert!(text.contains("chemcost_deadline_exceeded_total{stage=\"cache\"} 0"), "{text}");
        assert!(text.contains("chemcost_deadline_exceeded_total{stage=\"sweep\"} 0"), "{text}");
        assert!(text.contains("chemcost_model_staleness_seconds 0"), "{text}");
        assert!(text.contains("chemcost_model_reload_failures_total 0"), "{text}");
        assert!(text.contains("chemcost_advise_stale_served_total 0"), "{text}");
        assert!(
            text.contains("chemcost_faults_injected_total{kind=\"poison-reload\"} 0"),
            "{text}"
        );
        // The PR 5 quality families: counters at zero, windowed gauges
        // at NaN (no data yet — never a misleading zero).
        assert!(text.contains("chemcost_quality_observations_total{outcome=\"accepted\"} 0"));
        assert!(text.contains("chemcost_quality_observations_total{outcome=\"rejected\"} 0"));
        let quality_labels = "model=\"gb\",version=\"1\",machine=\"aurora\"";
        assert!(text.contains(&format!("chemcost_model_mape{{{quality_labels}}} NaN")), "{text}");
        assert!(
            text.contains(&format!(
                "chemcost_residual_seconds{{{quality_labels},quantile=\"0.99\"}} NaN"
            )),
            "{text}"
        );
        assert!(text.contains(&format!("chemcost_model_degraded{{{quality_labels}}} 0")));
        assert!(text.contains(&format!("chemcost_drift_trips_total{{{quality_labels}}} 0")));
        // The PR 6 lifecycle families, all at their zero points.
        assert!(text.contains(&format!("chemcost_quality_pool_size{{{quality_labels}}} 0")));
        assert!(
            text.contains(&format!("chemcost_quality_pool_evictions_total{{{quality_labels}}} 0"))
        );
        assert!(
            text.contains("chemcost_lifecycle_state{model=\"gb\",machine=\"aurora\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("chemcost_lifecycle_transitions_total{from=\"idle\",to=\"queued\"} 0"),
            "{text}"
        );
        assert!(
            text.contains(
                "chemcost_lifecycle_transitions_total{from=\"shadow\",to=\"promoted\"} 0"
            ),
            "{text}"
        );
        assert!(text.contains("chemcost_lifecycle_queue_depth 0"), "{text}");
        assert!(text.contains("chemcost_lifecycle_fit_duration_seconds_count 0"), "{text}");
        for outcome in ["auto", "operator", "rejected", "rolled-back"] {
            assert!(
                text.contains(&format!(
                    "chemcost_lifecycle_promotions_total{{outcome=\"{outcome}\"}} 0"
                )),
                "{outcome} missing: {text}"
            );
        }
        // The health-plane families, pre-registered at zero.
        for state in ["ok", "pending", "firing", "resolved"] {
            assert!(
                text.contains(&format!("chemcost_alerts_transitions_total{{to=\"{state}\"}} 0")),
                "{state} missing: {text}"
            );
        }
        assert!(text.contains("chemcost_alerts_firing 0"), "{text}");
        assert!(text.contains("chemcost_alerts_pending 0"), "{text}");
        assert!(text.contains("chemcost_slo_evaluations_total 0"), "{text}");
        assert!(text.contains("chemcost_slo_breaching 0"), "{text}");
        assert!(text.contains("chemcost_slo_scrapes_total 0"), "{text}");
    }

    #[test]
    fn alert_recorders_update_their_families() {
        let m = Metrics::new();
        m.record_alert_transition("pending");
        m.record_alert_transition("firing");
        m.record_alert_transition("firing");
        m.record_alert_transition("no-such-state"); // ignored, never panics
        m.set_alert_gauges(1, 2);
        m.record_slo_scrape(6, 1);
        m.record_slo_scrape(6, 0);
        assert_eq!(m.alert_transitions("firing"), 2);
        assert_eq!(m.alert_transitions("pending"), 1);
        assert_eq!(m.alert_transitions("resolved"), 0);
        assert_eq!(m.alerts_firing(), 1);
        assert_eq!(m.alerts_pending(), 2);
        assert_eq!(m.slo_scrapes(), 2);
        assert_eq!(m.slo_evaluations(), 12);
        assert_eq!(m.slo_breaching(), 0, "gauge tracks the latest scrape");
        let text = m.render();
        assert!(text.contains("chemcost_alerts_transitions_total{to=\"firing\"} 2"), "{text}");
        assert!(text.contains("chemcost_alerts_firing 1"), "{text}");
        assert!(text.contains("chemcost_slo_scrapes_total 2"), "{text}");
    }

    #[test]
    fn histogram_snapshot_is_internally_consistent() {
        let m = Metrics::new();
        for i in 0..50 {
            m.record(Route::Advise, false, Duration::from_micros(i * 997));
        }
        let (buckets, sum, count) = {
            let snap = m.latency_snapshot();
            (snap.0, snap.1, snap.2)
        };
        assert_eq!(count, 50);
        assert!(sum > 0);
        assert_eq!(buckets.iter().sum::<u64>(), 50, "every observation lands in one bucket");
        assert_eq!(buckets.len(), Metrics::histogram_bounds().len() + 1, "+Inf bucket");
    }

    /// Negative: without a registered quality group the per-model
    /// families have metadata but no sample lines, and the required
    /// linter must say so — this is exactly the regression the router's
    /// startup pre-registration guards against.
    #[test]
    fn required_linter_flags_unregistered_quality_groups() {
        let errs =
            lint_exposition_with_required(&Metrics::new().render(), REQUIRED_SERIES).unwrap_err();
        for family in
            ["chemcost_model_mape", "chemcost_residual_seconds", "chemcost_drift_trips_total"]
        {
            assert!(
                errs.iter().any(|e| e.contains(family) && e.contains("no sample line")),
                "{family} should be flagged: {errs:?}"
            );
        }
    }

    #[test]
    fn quality_gauges_render_and_upsert_by_group() {
        let m = Metrics::new();
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        let stats = QualityStats {
            observations: 12,
            window: 12,
            mape: 0.08,
            bias_seconds: -1.5,
            residual_p50: 2.0,
            residual_p90: 6.0,
            residual_p99: 9.0,
            calibration_ratio: 0.7,
            drift_trips: 1,
            degraded: true,
            pool_size: 12,
            pool_evictions: 4,
        };
        // Same triple: upsert, not a second series.
        m.set_model_quality("gb", 1, "aurora", stats);
        // New version after a reload: its own labelled series.
        m.set_model_quality("gb", 2, "aurora", QualityStats::default());
        assert_eq!(m.quality_entries().len(), 2);
        m.record_quality_observation(true);
        m.record_quality_observation(false);
        m.record_quality_observation(true);
        assert_eq!(m.quality_accepted(), 2);
        assert_eq!(m.quality_rejected(), 1);
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        let text = m.render();
        let v1 = "model=\"gb\",version=\"1\",machine=\"aurora\"";
        assert!(text.contains(&format!("chemcost_model_mape{{{v1}}} 0.08")), "{text}");
        assert!(text.contains(&format!("chemcost_model_bias_seconds{{{v1}}} -1.5")), "{text}");
        assert!(
            text.contains(&format!("chemcost_residual_seconds{{{v1},quantile=\"0.9\"}} 6")),
            "{text}"
        );
        assert!(text.contains(&format!("chemcost_calibration_ratio{{{v1}}} 0.7")), "{text}");
        assert!(text.contains(&format!("chemcost_model_degraded{{{v1}}} 1")), "{text}");
        assert!(text.contains(&format!("chemcost_drift_trips_total{{{v1}}} 1")), "{text}");
        assert!(
            text.contains("chemcost_model_mape{model=\"gb\",version=\"2\",machine=\"aurora\"} NaN"),
            "{text}"
        );
        assert!(text.contains("chemcost_quality_observations_total{outcome=\"accepted\"} 2"));
        lint_exposition_with_required(&text, REQUIRED_SERIES).expect("lint clean");
    }

    /// Negative: the required-series linter must flag a family whose
    /// sample lines are absent, even if its `# HELP`/`# TYPE` metadata
    /// is present (the unregistered-until-first-increment failure mode).
    #[test]
    fn required_linter_flags_missing_sample_lines() {
        let full = Metrics::new().render();
        let stripped: String = full
            .lines()
            .filter(|l| !l.starts_with("chemcost_deadline_exceeded_total"))
            .map(|l| format!("{l}\n"))
            .collect();
        let errs = lint_exposition_with_required(&stripped, REQUIRED_SERIES).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("chemcost_deadline_exceeded_total")
                    && e.contains("no sample line")),
            "{errs:?}"
        );
        // Histogram families are satisfied through their suffixed series.
        lint_exposition_with_required(&full, &["chemcost_request_duration_seconds"])
            .expect("histogram counted via _bucket/_sum/_count");
        // A family that never existed is reported too.
        let errs =
            lint_exposition_with_required(&full, &["chemcost_nonexistent_total"]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("chemcost_nonexistent_total")), "{errs:?}");
    }

    #[test]
    fn lifecycle_series_render_and_upsert_by_group() {
        let m = Metrics::new();
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        // Same (model, machine): upsert, not a second series.
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Shadow);
        m.set_lifecycle_state("gb2", "frontier", LifecycleState::Idle);
        assert_eq!(m.lifecycle_entries().len(), 2);
        m.record_lifecycle_transition(LifecycleState::Idle, LifecycleState::Queued);
        m.record_lifecycle_transition(LifecycleState::Queued, LifecycleState::Training);
        m.record_lifecycle_transition(LifecycleState::Queued, LifecycleState::Training);
        // Invalid pairs are ignored, never counted under a wrong label.
        m.record_lifecycle_transition(LifecycleState::Idle, LifecycleState::Promoted);
        assert_eq!(m.lifecycle_transitions(LifecycleState::Queued, LifecycleState::Training), 2);
        assert_eq!(m.lifecycle_transitions(LifecycleState::Idle, LifecycleState::Promoted), 0);
        m.set_lifecycle_queue_depth(3);
        assert_eq!(m.lifecycle_queue_depth(), 3);
        m.record_lifecycle_fit_duration(Duration::from_millis(40));
        assert_eq!(m.lifecycle_fits(), 1);
        m.record_lifecycle_promotion(PromotionOutcome::Auto);
        m.record_lifecycle_promotion(PromotionOutcome::Rejected);
        m.record_lifecycle_promotion(PromotionOutcome::Rejected);
        assert_eq!(m.lifecycle_promotions(PromotionOutcome::Auto), 1);
        assert_eq!(m.lifecycle_promotions(PromotionOutcome::Rejected), 2);
        assert_eq!(m.lifecycle_promotions(PromotionOutcome::RolledBack), 0);
        let text = m.render();
        assert!(
            text.contains("chemcost_lifecycle_state{model=\"gb\",machine=\"aurora\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("chemcost_lifecycle_state{model=\"gb2\",machine=\"frontier\"} 0"),
            "{text}"
        );
        assert!(
            text.contains(
                "chemcost_lifecycle_transitions_total{from=\"queued\",to=\"training\"} 2"
            ),
            "{text}"
        );
        assert!(text.contains("chemcost_lifecycle_queue_depth 3"), "{text}");
        assert!(text.contains("chemcost_lifecycle_fit_duration_seconds_count 1"), "{text}");
        assert!(
            text.contains("chemcost_lifecycle_promotions_total{outcome=\"rejected\"} 2"),
            "{text}"
        );
        lint_exposition(&text).expect("lifecycle exposition must lint clean");
    }

    /// The observer bridge forwards every hub callback into the registry.
    #[test]
    fn lifecycle_bridge_forwards_observer_callbacks() {
        let m = Arc::new(Metrics::new());
        let bridge = LifecycleMetricsBridge(Arc::clone(&m));
        bridge.on_state("gb", "aurora", LifecycleState::Training);
        bridge.on_transition(LifecycleState::Queued, LifecycleState::Training);
        bridge.on_queue_depth(2);
        bridge.on_fit_duration(0.25);
        bridge.on_promotion(PromotionOutcome::Operator);
        assert_eq!(m.lifecycle_entries()[0].state, LifecycleState::Training);
        assert_eq!(m.lifecycle_transitions(LifecycleState::Queued, LifecycleState::Training), 1);
        assert_eq!(m.lifecycle_queue_depth(), 2);
        assert_eq!(m.lifecycle_fits(), 1);
        assert_eq!(m.lifecycle_promotions(PromotionOutcome::Operator), 1);
    }

    /// Negative (satellite): stripping any lifecycle family's sample lines
    /// must trip the required-series linter, exactly like the quality
    /// families — pre-registration is load-bearing for all of them.
    #[test]
    fn required_linter_flags_missing_lifecycle_series() {
        let m = Metrics::new();
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        let full = m.render();
        lint_exposition_with_required(&full, REQUIRED_SERIES).expect("full exposition is complete");
        for family in [
            "chemcost_lifecycle_state",
            "chemcost_lifecycle_transitions_total",
            "chemcost_lifecycle_queue_depth",
            "chemcost_lifecycle_fit_duration_seconds",
            "chemcost_lifecycle_promotions_total",
            "chemcost_quality_pool_size",
            "chemcost_quality_pool_evictions_total",
        ] {
            let stripped: String = full
                .lines()
                .filter(|l| {
                    l.starts_with('#')
                        || !l.split(['{', ' ']).next().unwrap_or("").starts_with(family)
                })
                .map(|l| format!("{l}\n"))
                .collect();
            let errs = lint_exposition_with_required(&stripped, REQUIRED_SERIES).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(family) && e.contains("no sample line")),
                "{family} should be flagged: {errs:?}"
            );
        }
        // A lifecycle group that never registers is caught the same way.
        let errs =
            lint_exposition_with_required(&Metrics::new().render(), REQUIRED_SERIES).unwrap_err();
        assert!(
            errs.iter()
                .any(|e| e.contains("chemcost_lifecycle_state") && e.contains("no sample line")),
            "{errs:?}"
        );
    }

    #[test]
    fn deadline_and_fault_counters_track_per_label() {
        let m = Metrics::new();
        m.record_deadline_exceeded(DeadlineStage::Queue);
        m.record_deadline_exceeded(DeadlineStage::Sweep);
        m.record_deadline_exceeded(DeadlineStage::Sweep);
        assert_eq!(m.deadline_exceeded(DeadlineStage::Queue), 1);
        assert_eq!(m.deadline_exceeded(DeadlineStage::Cache), 0);
        assert_eq!(m.deadline_exceeded(DeadlineStage::Sweep), 2);
        m.record_fault(FaultKind::SlowIo);
        m.record_fault(FaultKind::PoisonReload);
        m.record_fault(FaultKind::PoisonReload);
        assert_eq!(m.faults_injected(FaultKind::SlowIo), 1);
        assert_eq!(m.faults_injected(FaultKind::PoisonReload), 2);
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        let text = m.render();
        assert!(text.contains("chemcost_deadline_exceeded_total{stage=\"sweep\"} 2"), "{text}");
        assert!(text.contains("chemcost_faults_injected_total{kind=\"slow-io\"} 1"), "{text}");
        lint_exposition_with_required(&text, REQUIRED_SERIES).expect("lint clean");
    }

    #[test]
    fn staleness_gauge_follows_reload_outcomes() {
        let m = Metrics::new();
        // Fresh registry: never failed, staleness pinned to zero.
        assert_eq!(m.model_staleness_seconds(), 0.0);
        m.record_reload_failure();
        assert_eq!(m.reload_failures(), 1);
        std::thread::sleep(Duration::from_millis(5));
        let stale = m.model_staleness_seconds();
        assert!(stale > 0.0, "staleness should accrue after a failed reload, got {stale}");
        // A later failure does not reset the clock to a smaller value.
        m.record_reload_failure();
        assert!(m.model_staleness_seconds() >= stale);
        // A successful reload clears it.
        m.mark_model_fresh();
        assert_eq!(m.model_staleness_seconds(), 0.0);
    }

    #[test]
    fn shed_within_reports_recent_overload_only() {
        let m = Metrics::new();
        assert!(!m.shed_within(Duration::from_secs(60)), "no shed yet");
        m.record_shed();
        assert!(m.shed_within(Duration::from_secs(60)));
        assert!(!m.shed_within(Duration::ZERO), "zero window excludes the past");
    }

    #[test]
    fn stale_served_counter_renders() {
        let m = Metrics::new();
        m.record_stale_served();
        assert_eq!(m.stale_served(), 1);
        assert!(m.render().contains("chemcost_advise_stale_served_total 1"));
    }

    /// Satellite: the serving-data-plane families render with labels and
    /// correct accounting.
    #[test]
    fn serving_series_render_and_count() {
        let m = Metrics::new();
        m.inc_connections_open();
        m.inc_connections_open();
        m.dec_connections_open();
        assert_eq!(m.connections_open(), 1);
        m.record_keepalive_reuse();
        m.record_keepalive_reuse();
        m.record_keepalive_reuse();
        assert_eq!(m.keepalive_reuses(), 3);
        let text = m.render();
        assert!(text.contains("chemcost_connections_open 1"), "{text}");
        assert!(text.contains("chemcost_keepalive_reuses_total 3"), "{text}");
        lint_exposition(&text).expect("serving exposition must lint clean");
    }

    /// Negative (satellite): stripping any serving-data-plane family's
    /// sample lines must trip the required-series linter — the event
    /// loop series are pre-registered like every other.
    #[test]
    fn required_linter_flags_missing_serving_series() {
        let m = Metrics::new();
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        let full = m.render();
        lint_exposition_with_required(&full, REQUIRED_SERIES).expect("full exposition is complete");
        for family in ["chemcost_connections_open", "chemcost_keepalive_reuses_total"] {
            let stripped: String = full
                .lines()
                .filter(|l| {
                    l.starts_with('#')
                        || !l.split(['{', ' ']).next().unwrap_or("").starts_with(family)
                })
                .map(|l| format!("{l}\n"))
                .collect();
            let errs = lint_exposition_with_required(&stripped, REQUIRED_SERIES).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(family) && e.contains("no sample line")),
                "{family} should be flagged: {errs:?}"
            );
        }
    }

    /// Tentpole (PR 8): the request-timeline stage histograms and the
    /// event-loop health series render with labels, count correctly, and
    /// lint clean.
    #[test]
    fn timeline_series_render_and_count() {
        let m = Metrics::new();
        m.record_request_stage(RequestStage::Read, Duration::from_micros(40));
        m.record_request_stage(RequestStage::Queue, Duration::from_micros(90));
        m.record_request_stage(RequestStage::Handler, Duration::from_micros(800));
        m.record_request_stage(RequestStage::Handler, Duration::from_micros(700));
        m.record_request_stage(RequestStage::Reorder, Duration::from_micros(5));
        m.record_request_stage(RequestStage::Write, Duration::from_micros(60));
        assert_eq!(m.request_stage_count(RequestStage::Handler), 2);
        assert_eq!(m.request_stage_count(RequestStage::Write), 1);
        assert!((m.request_stage_sum_seconds(RequestStage::Queue) - 90e-6).abs() < 1e-12);
        m.record_loop_iteration(Duration::from_micros(120), 3);
        m.record_loop_iteration(Duration::from_micros(80), 0);
        assert_eq!(m.loop_iterations(), 2);
        m.inc_read_paused();
        m.inc_write_stalled();
        m.inc_write_stalled();
        m.dec_write_stalled();
        assert_eq!(m.read_paused(), 1);
        assert_eq!(m.write_stalled(), 1);
        let text = m.render();
        assert!(
            text.contains("chemcost_request_stage_duration_seconds_count{stage=\"handler\"} 2"),
            "{text}"
        );
        assert!(
            text.contains(
                "chemcost_request_stage_duration_seconds_bucket{stage=\"read\",le=\"+Inf\"} 1"
            ),
            "{text}"
        );
        assert!(text.contains("chemcost_event_loop_iteration_duration_seconds_count 2"), "{text}");
        assert!(text.contains("chemcost_event_loop_events_per_wake_count 2"), "{text}");
        assert!(text.contains("chemcost_event_loop_events_per_wake_sum 3"), "{text}");
        assert!(text.contains("chemcost_connections_read_paused 1"), "{text}");
        assert!(text.contains("chemcost_connections_write_stalled 1"), "{text}");
        lint_exposition(&text).expect("timeline exposition must lint clean");
        // Every stage label renders even before its first observation.
        let fresh = Metrics::new().render();
        for stage in RequestStage::ALL {
            assert!(
                fresh.contains(&format!(
                    "chemcost_request_stage_duration_seconds_count{{stage=\"{}\"}} 0",
                    stage.label()
                )),
                "stage {} not pre-registered: {fresh}",
                stage.label()
            );
        }
        // The /debug/requests route is accounted like any other.
        m.record(Route::Debug, false, Duration::from_micros(30));
        assert!(m.render().contains("chemcost_requests_total{route=\"debug\"} 1"));
    }

    /// Negative (satellite): stripping any PR 8 timeline/event-loop
    /// family's sample lines must trip the required-series linter.
    #[test]
    fn required_linter_flags_missing_timeline_series() {
        let m = Metrics::new();
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        let full = m.render();
        lint_exposition_with_required(&full, REQUIRED_SERIES).expect("full exposition is complete");
        for family in [
            "chemcost_request_stage_duration_seconds",
            "chemcost_event_loop_iteration_duration_seconds",
            "chemcost_event_loop_events_per_wake",
            "chemcost_connections_read_paused",
            "chemcost_connections_write_stalled",
        ] {
            let stripped: String = full
                .lines()
                .filter(|l| {
                    l.starts_with('#')
                        || !l.split(['{', ' ']).next().unwrap_or("").starts_with(family)
                })
                .map(|l| format!("{l}\n"))
                .collect();
            let errs = lint_exposition_with_required(&stripped, REQUIRED_SERIES).unwrap_err();
            assert!(
                errs.iter().any(|e| e.contains(family) && e.contains("no sample line")),
                "{family} should be flagged: {errs:?}"
            );
        }
    }

    /// Satellite: N writer threads hammer every counter family while the
    /// main thread renders mid-flight; every intermediate exposition must
    /// stay well-formed, and the final counts must add up.
    #[test]
    fn concurrent_writers_keep_render_well_formed() {
        use std::sync::Arc;
        let m = Arc::new(Metrics::new());
        let writers = 8;
        let per_thread = 500;
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let route = Route::ALL[(t + i) % Route::ALL.len()];
                        m.inc_in_flight();
                        m.pool_enqueued();
                        m.record(route, i % 3 == 0, Duration::from_micros((i * 37) as u64));
                        let stage = AdviseStage::ALL[i % 3];
                        m.record_advise_stage(stage, Duration::from_micros((i * 11) as u64));
                        if i % 5 == 0 {
                            m.record_shed();
                        }
                        m.record_cache_miss();
                        m.pool_dequeued();
                        m.dec_in_flight();
                    }
                })
            })
            .collect();
        // Render (and lint) while the writers are running.
        for _ in 0..50 {
            let text = m.render();
            if let Err(problems) = lint_exposition(&text) {
                panic!("mid-flight exposition malformed: {problems:?}\n{text}");
            }
            std::thread::yield_now();
        }
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = Route::ALL.iter().map(|&r| m.requests(r)).sum();
        let expected = (writers * per_thread) as u64;
        // record() calls + record_shed() calls (every 5th iteration).
        assert_eq!(total, expected + expected / 5);
        assert_eq!(m.cache_misses(), expected);
        assert_eq!(m.shed_total(), expected / 5);
        assert_eq!(m.in_flight(), 0);
        assert_eq!(m.pool_queue_depth(), 0);
        let stage_total: u64 = AdviseStage::ALL.iter().map(|&s| m.advise_stage_count(s)).sum();
        assert_eq!(stage_total, expected);
        lint_exposition(&m.render()).expect("final exposition must lint clean");
    }
}
