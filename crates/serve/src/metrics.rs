//! Request metrics with Prometheus text exposition.
//!
//! Every metric family is declared once, as a row of [`FAMILIES`]: its
//! name, where its samples come from (which fixes its type), its label
//! keys and values, its health-schema alias and its help text. Storage,
//! [`Metrics::render`], [`REQUIRED_SERIES`], the health sampler's schema
//! (`crate::health_bridge::MetricsSampler`) and the docs catalog check
//! all walk that table. A handle ([`Counter`], [`Gauge`], [`Hist`]) is a
//! slot index computed from the table at compile time, so recording is
//! one relaxed atomic operation on a slot, never a lookup by name.
//! `render` produces the standard `text/plain; version=0.0.4` exposition
//! format; [`lint_exposition`] validates that format and doubles as the
//! CI smoke and chaos jobs' correctness check.
//!
//! # Hot-path layout
//!
//! Counters are `ShardedCounter`s: each is a small array of
//! cache-line-padded atomics and every thread increments its own stripe,
//! so concurrent request threads never bounce one counter's cache line
//! between cores. Reads sum the stripes — counters are read on scrape,
//! written per request, so the trade goes the right way. Sample lines
//! render through preformatted prefixes (`name{labels} `, built once per
//! process), keeping the scrape path to number formatting instead of
//! per-line `format!` allocations.
//!
//! Every series is **pre-registered**: the label sets are fixed arrays,
//! so each family appears in the very first scrape at zero rather than
//! materializing on first increment (dashboards and the `increase()`
//! family of PromQL functions need the zero point). The chaos job
//! asserts this through [`REQUIRED_SERIES`] +
//! [`lint_exposition_with_required`].

use crate::fault::FaultKind;
use chemcost_health::AlertState;
use chemcost_lifecycle::{LifecycleObserver, LifecycleState, PromotionOutcome, TRANSITIONS};
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLockReadGuard};
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

    /// The Prometheus `route` label values, indexed by `route as usize`.
    pub const LABELS: [&'static str; 13] = [
        "healthz",
        "metrics",
        "models",
        "reload",
        "predict",
        "advise",
        "observe",
        "quality",
        "lifecycle",
        "shutdown",
        "debug",
        "health",
        "other",
    ];

    /// The Prometheus label value.
    pub fn label(self) -> &'static str {
        Route::LABELS[self as usize]
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

    /// The Prometheus `stage` label values, indexed by `stage as usize`.
    pub const LABELS: [&'static str; 4] = ["cache", "sweep", "encode", "shadow"];
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

    /// The Prometheus `stage` label values, indexed by `stage as usize`.
    pub const LABELS: [&'static str; 3] = ["queue", "cache", "sweep"];

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        DeadlineStage::LABELS[self as usize]
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

    /// The Prometheus `stage` label values, indexed by `stage as usize`.
    pub const LABELS: [&'static str; 5] = ["read", "queue", "handler", "reorder", "write"];

    /// The Prometheus `stage` label value.
    pub fn label(self) -> &'static str {
        RequestStage::LABELS[self as usize]
    }

    /// The field key in `request.timeline` obs events and in the
    /// `/debug/requests` `stages` object (label + `_us`, values are
    /// microseconds).
    pub fn field_key(self) -> &'static str {
        ["read_us", "queue_us", "handler_us", "reorder_us", "write_us"][self as usize]
    }
}

/// What `/v1/observe` did with a ground-truth report; the `outcome`
/// label on `chemcost_quality_observations_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intake {
    /// Accepted into the rolling statistics.
    Accepted,
    /// Rejected with a structured 4xx; the statistics are untouched.
    Rejected,
}

impl Intake {
    /// The Prometheus `outcome` label values, indexed by `intake as usize`.
    pub const LABELS: [&'static str; 2] = ["accepted", "rejected"];
}

/// `(from, to)` label values of `chemcost_lifecycle_transitions_total`,
/// one pair per entry of [`TRANSITIONS`].
const TRANSITION_LABELS: [&str; 2 * TRANSITIONS.len()] = {
    let mut labels = [""; 2 * TRANSITIONS.len()];
    let mut i = 0;
    while i < TRANSITIONS.len() {
        labels[2 * i] = TRANSITIONS[i].0.label();
        labels[2 * i + 1] = TRANSITIONS[i].1.label();
        i += 1;
    }
    labels
};

/// Finite bucket upper bounds per histogram (`+Inf` is implied).
const BOUNDS: usize = 10;

/// A histogram family's bucket upper bounds, and the unit its sum is kept
/// in.
pub struct Buckets {
    /// Finite upper bounds, ascending.
    pub bounds: [f64; BOUNDS],
    /// Stored sum units per exposed unit: durations are summed in
    /// microseconds and exposed in seconds.
    sum_scale: f64,
}

/// Log-spaced latency buckets, 100 µs – 5 s.
const SECONDS: Buckets =
    Buckets { bounds: [1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1.0, 5.0], sum_scale: 1e6 };

/// Powers of two, for sizes.
const POWERS_OF_TWO: Buckets =
    Buckets { bounds: [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0], sum_scale: 1.0 };

/// Reads one value of a quality family from a group's stats; the index
/// picks the family's extra label value (`quantile`), 0 when it has none.
pub type QualityRead = fn(&QualityStats, usize) -> f64;

/// Where a family's samples come from; this also fixes its `# TYPE`.
#[derive(Clone, Copy)]
pub enum Source {
    /// Counters in the registry's counter slab, one slot per series.
    Counters,
    /// Integer gauges in the registry's gauge slab, read clamped at 0.
    Gauges,
    /// Histograms over these buckets in the registry's histogram slab.
    Histograms(&'static Buckets),
    /// A gauge fixed at 1; the information is in its labels.
    One,
    /// Seconds the serving model has been known-stale.
    Staleness,
    /// A counter per registered quality group (`model`, `version`,
    /// `machine`), read from its stats.
    QualityCounter(QualityRead),
    /// A gauge per registered quality group, read from its stats.
    QualityGauge(QualityRead),
    /// The state code of each registered lifecycle group (`model`,
    /// `machine`).
    LifecycleState,
}

impl Source {
    /// The storage slab holding this source's series.
    const fn slab(&self) -> Option<usize> {
        match self {
            Source::Counters => Some(COUNTERS),
            Source::Gauges => Some(GAUGES),
            Source::Histograms(_) => Some(HISTOGRAMS),
            _ => None,
        }
    }

    /// Label keys the source supplies itself, from its registered groups.
    const fn group_keys(&self) -> usize {
        match self {
            Source::QualityCounter(_) | Source::QualityGauge(_) => 3,
            Source::LifecycleState => 2,
            _ => 0,
        }
    }
}

/// One metric family: everything `/metrics`, pre-registration, the
/// health schema and the docs catalog need to know about it.
pub struct Family {
    /// Prometheus family name.
    pub name: &'static str,
    /// Where the samples come from.
    pub source: Source,
    /// Label keys in exposition order (`le` excluded), group keys first.
    pub keys: &'static [&'static str],
    /// Fixed label values, flattened: one value per key the source does
    /// not supply, per series.
    pub values: &'static [&'static str],
    /// Health-schema name: `alias` for an unlabelled family, `alias.<value>`
    /// per series otherwise, `alias.<model>@<machine>` per quality group;
    /// `None` keeps the family out of the schema.
    pub alias: Option<&'static str>,
    /// `# HELP` text.
    pub help: &'static str,
}

impl Family {
    /// The `# TYPE` keyword.
    pub fn kind(&self) -> &'static str {
        match self.source {
            Source::Counters | Source::QualityCounter(_) => "counter",
            Source::Histograms(_) => "histogram",
            _ => "gauge",
        }
    }

    /// Series per fixed label set (per registered group for a group
    /// source).
    pub const fn width(&self) -> usize {
        match self.keys.len() - self.source.group_keys() {
            0 => 1,
            fixed => self.values.len() / fixed,
        }
    }

    /// The fixed label values of series `i`.
    pub(crate) fn series_values(&self, i: usize) -> &'static [&'static str] {
        let fixed = self.keys.len() - self.source.group_keys();
        &self.values[i * fixed..(i + 1) * fixed]
    }

    /// `key="value",…` for the fixed labels of series `i`.
    fn series_labels(&self, i: usize) -> String {
        let keys = &self.keys[self.source.group_keys()..];
        let pairs: Vec<String> =
            keys.iter().zip(self.series_values(i)).map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        pairs.join(",")
    }
}

/// The defaults of a table row: an unlabelled counter outside the health
/// schema.
const PLAIN: Family =
    Family { name: "", source: Source::Counters, keys: &[], values: &[], alias: None, help: "" };

/// Label keys of the per-quality-group families.
const QUALITY: &[&str] = &["model", "version", "machine"];

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

use Source::{Gauges, Histograms, QualityCounter, QualityGauge};

/// Every metric family the service exposes, in exposition order. The
/// handles below name their rows by position.
#[rustfmt::skip]
pub static FAMILIES: [Family; 43] = [
    Family { name: "chemcost_build_info", source: Source::One, keys: &["version", "git_sha", "dirty"], values: &[BUILD_VERSION, BUILD_GIT_SHA, BUILD_DIRTY],
        help: "Build metadata; constant 1.", ..PLAIN },
    Family { name: "chemcost_requests_total", keys: &["route"], values: &Route::LABELS, alias: Some("requests"),
        help: "Requests handled, by route.", ..PLAIN },
    Family { name: "chemcost_request_errors_total", keys: &["route"], values: &Route::LABELS, alias: Some("errors"),
        help: "Error responses (status >= 400), by route.", ..PLAIN },
    Family { name: "chemcost_requests_in_flight", source: Gauges, alias: Some("inflight"),
        help: "Requests currently being handled.", ..PLAIN },
    Family { name: "chemcost_pool_queue_depth", source: Gauges, alias: Some("queue.depth"),
        help: "Connections queued for the worker pool.", ..PLAIN },
    Family { name: "chemcost_requests_shed_total", alias: Some("shed"),
        help: "Connections answered 503 because the pool queue was full.", ..PLAIN },
    Family { name: "chemcost_request_duration_seconds", source: Histograms(&SECONDS), alias: Some("latency"),
        help: "Request handling latency.", ..PLAIN },
    Family { name: "chemcost_advise_stage_duration_seconds", source: Histograms(&SECONDS), keys: &["stage"], values: &AdviseStage::LABELS, alias: Some("advise"),
        help: "Advise pipeline latency, by stage (cache probe, model sweep, JSON encode)." },
    Family { name: "chemcost_advise_cache_hits_total", alias: Some("cache.hits"),
        help: "Advise answers served from cache.", ..PLAIN },
    Family { name: "chemcost_advise_cache_misses_total", alias: Some("cache.misses"),
        help: "Advise answers that ran the sweep.", ..PLAIN },
    Family { name: "chemcost_advise_cache_entries", source: Gauges, alias: Some("cache.entries"),
        help: "Cached advise answers.", ..PLAIN },
    Family { name: "chemcost_deadline_exceeded_total", keys: &["stage"], values: &DeadlineStage::LABELS, alias: Some("deadline_exceeded"),
        help: "Requests answered 504, by the stage where the budget ran out.", ..PLAIN },
    Family { name: "chemcost_model_staleness_seconds", source: Source::Staleness, alias: Some("staleness_seconds"),
        help: "Seconds since the serving model went stale (a reload failed); 0 when fresh.", ..PLAIN },
    Family { name: "chemcost_model_reload_failures_total", alias: Some("reload_failures"),
        help: "Failed model reloads (the last-good model kept serving).", ..PLAIN },
    Family { name: "chemcost_advise_stale_served_total", alias: Some("stale_served"),
        help: "Advise answers replayed from an older model version under overload.", ..PLAIN },
    Family { name: "chemcost_faults_injected_total", keys: &["kind"], values: &FaultKind::LABELS,
        help: "Faults injected by the chaos plane, by kind.", ..PLAIN },
    Family { name: "chemcost_quality_observations_total", keys: &["outcome"], values: &Intake::LABELS, alias: Some("quality"),
        help: "Ground-truth runtime reports on /v1/observe, by outcome (accepted into the rolling stats, or rejected 4xx).", ..PLAIN },
    Family { name: "chemcost_model_mape", source: QualityGauge(|s, _| s.mape), keys: QUALITY, alias: Some("quality.mape"),
        help: "Windowed mean absolute percentage error of served predictions against observed runtimes; NaN until the first observation.", ..PLAIN },
    Family { name: "chemcost_model_bias_seconds", source: QualityGauge(|s, _| s.bias_seconds), keys: QUALITY,
        help: "Windowed signed bias mean(predicted - measured) in seconds; positive means the model over-promises runtime.", ..PLAIN },
    Family { name: "chemcost_residual_seconds", source: QualityGauge(|s, q| [s.residual_p50, s.residual_p90, s.residual_p99][q]),
        keys: &["model", "version", "machine", "quantile"], values: &["0.5", "0.9", "0.99"],
        help: "Windowed absolute prediction residual quantiles, in seconds.", ..PLAIN },
    Family { name: "chemcost_calibration_ratio", source: QualityGauge(|s, _| s.calibration_ratio), keys: QUALITY,
        help: "Fraction of sigma-carrying residuals inside the predicted +/-sigma band (well-calibrated Gaussian: ~0.68).", ..PLAIN },
    Family { name: "chemcost_model_degraded", source: QualityGauge(|s, _| u8::from(s.degraded).into()), keys: QUALITY,
        help: "1 when the drift detector has tripped for the group and the model has not been refreshed since, else 0.", ..PLAIN },
    Family { name: "chemcost_drift_trips_total", source: QualityCounter(|s, _| s.drift_trips as f64), keys: QUALITY, alias: Some("quality.drift_trips"),
        help: "Page-Hinkley drift-detector trips over the residual stream, per serving group.", ..PLAIN },
    Family { name: "chemcost_quality_pool_size", source: QualityGauge(|s, _| s.pool_size as f64), keys: QUALITY,
        help: "Observations currently retained in the group's training pool.", ..PLAIN },
    Family { name: "chemcost_quality_pool_evictions_total", source: QualityCounter(|s, _| s.pool_evictions as f64), keys: QUALITY,
        help: "Observations silently evicted from the full training pool, per serving group.", ..PLAIN },
    Family { name: "chemcost_lifecycle_state", source: Source::LifecycleState, keys: &["model", "machine"],
        help: "Retrain/shadow/promote state per (model, machine) group: 0=idle 1=queued 2=training 3=shadow 4=promoted 5=rejected 6=rolled-back.", ..PLAIN },
    Family { name: "chemcost_lifecycle_transitions_total", keys: &["from", "to"], values: &TRANSITION_LABELS,
        help: "Lifecycle state-machine transitions taken, by (from, to) pair.", ..PLAIN },
    Family { name: "chemcost_lifecycle_queue_depth", source: Gauges,
        help: "Retrain jobs waiting in the background trainer's bounded queue.", ..PLAIN },
    Family { name: "chemcost_lifecycle_fit_duration_seconds", source: Histograms(&SECONDS),
        help: "Wall time of one background candidate fit (success or failure).", ..PLAIN },
    Family { name: "chemcost_lifecycle_promotions_total", keys: &["outcome"], values: &PromotionOutcome::LABELS,
        help: "Promotion decisions, by outcome (auto, operator, rejected, rolled-back).", ..PLAIN },
    Family { name: "chemcost_connections_open", source: Gauges, alias: Some("connections.open"),
        help: "Client connections currently open in the event loop.", ..PLAIN },
    Family { name: "chemcost_keepalive_reuses_total", alias: Some("keepalive_reuses"),
        help: "Requests served on a reused keep-alive exchange (any request after a connection's first).", ..PLAIN },
    Family { name: "chemcost_request_stage_duration_seconds", source: Histograms(&SECONDS), keys: &["stage"], values: &RequestStage::LABELS, alias: Some("stage"),
        help: "Per-stage request-timeline latency through the event loop (read, queue, handler, reorder, write); the stages of one request sum to its first-byte to last-byte wall time." },
    Family { name: "chemcost_event_loop_iteration_duration_seconds", source: Histograms(&SECONDS),
        help: "Processing time of one event-loop pass (one epoll wake).", ..PLAIN },
    Family { name: "chemcost_event_loop_events_per_wake", source: Histograms(&POWERS_OF_TWO),
        help: "Readiness events delivered per epoll wake.", ..PLAIN },
    Family { name: "chemcost_connections_read_paused", source: Gauges, alias: Some("connections.read_paused"),
        help: "Connections whose reads are paused by backpressure (pipeline cap or write high-water mark).", ..PLAIN },
    Family { name: "chemcost_connections_write_stalled", source: Gauges, alias: Some("connections.write_stalled"),
        help: "Connections holding unsent response bytes after a flush (slow consumers).", ..PLAIN },
    Family { name: "chemcost_alerts_transitions_total", keys: &["to"], values: &AlertState::LABELS,
        help: "SLO alert state transitions, by destination state.", ..PLAIN },
    Family { name: "chemcost_alerts_firing", source: Gauges,
        help: "SLO alerts currently firing.", ..PLAIN },
    Family { name: "chemcost_alerts_pending", source: Gauges,
        help: "SLO alerts currently pending.", ..PLAIN },
    Family { name: "chemcost_slo_evaluations_total",
        help: "SLO evaluations run by the health sampler.", ..PLAIN },
    Family { name: "chemcost_slo_breaching", source: Gauges,
        help: "SLOs breaching both burn windows on the latest evaluation.", ..PLAIN },
    Family { name: "chemcost_slo_scrapes_total",
        help: "Self-scrape samples taken by the health sampler.", ..PLAIN },
];

/// Every family name, in exposition order. The smoke and chaos CI jobs
/// pass this to [`lint_exposition_with_required`] so a series silently
/// dropped from [`Metrics::render`] (or one that only materializes after
/// its first increment) fails the scrape check.
pub const REQUIRED_SERIES: &[&str] = &{
    let mut names = [""; FAMILIES.len()];
    let mut row = 0;
    while row < FAMILIES.len() {
        names[row] = FAMILIES[row].name;
        row += 1;
    }
    names
};

/// Each family's first slot in its storage slab, and each slab's length.
const LAYOUT: ([usize; FAMILIES.len()], [usize; 3]) = {
    let (mut first, mut lens) = ([0; FAMILIES.len()], [0; 3]);
    let mut row = 0;
    while row < FAMILIES.len() {
        let family = &FAMILIES[row];
        let fixed = family.keys.len() - family.source.group_keys();
        assert!(fixed == 0 || family.values.len().is_multiple_of(fixed), "ragged label values");
        assert!(fixed > 0 || family.values.is_empty(), "label values without keys");
        assert!(
            family.alias.is_none() || family.source.group_keys() == 0 || family.width() == 1,
            "a group family's health series is one per group"
        );
        if let Some(slab) = family.source.slab() {
            first[row] = lens[slab];
            lens[slab] += family.width();
        }
        row += 1;
    }
    (first, lens)
};

/// Storage slabs, by position in the registry's layout.
const COUNTERS: usize = 0;
const GAUGES: usize = 1;
const HISTOGRAMS: usize = 2;

/// A handle on one series: its slot in the registry's `SLAB` slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot<const SLAB: usize>(usize);

/// One counter series.
pub type Counter = Slot<COUNTERS>;
/// One integer gauge series.
pub type Gauge = Slot<GAUGES>;
/// One histogram series.
pub type Hist = Slot<HISTOGRAMS>;

impl<const SLAB: usize> Slot<SLAB> {
    /// The `N` series of the family at `row`, in label-value order;
    /// compilation fails unless the row lives in `SLAB` and has `N`
    /// series.
    const fn all<const N: usize>(row: usize) -> [Slot<SLAB>; N] {
        let family = &FAMILIES[row];
        assert!(matches!(family.source.slab(), Some(s) if s == SLAB), "wrong handle kind");
        assert!(family.width() == N, "wrong series count");
        let mut slots = [Slot(0); N];
        let mut i = 0;
        while i < N {
            slots[i] = Slot(LAYOUT.0[row] + i);
            i += 1;
        }
        slots
    }

    /// The one series of the unlabelled family at `row`.
    const fn one(row: usize) -> Slot<SLAB> {
        Slot::all::<1>(row)[0]
    }

    /// Series `i` of the family at `row`, which lives in `SLAB`.
    pub(crate) fn nth(row: usize, i: usize) -> Slot<SLAB> {
        debug_assert!(FAMILIES[row].source.slab() == Some(SLAB) && i < FAMILIES[row].width());
        Slot(LAYOUT.0[row] + i)
    }
}

// Handles of the slot-backed families, named after them. A labelled
// family's array is indexed by `label as usize`, the lifecycle
// transitions' by position in `TRANSITIONS`.
pub const REQUESTS: [Counter; 13] = Slot::all(1);
pub const ERRORS: [Counter; 13] = Slot::all(2);
pub const IN_FLIGHT: Gauge = Slot::one(3);
pub const POOL_QUEUE_DEPTH: Gauge = Slot::one(4);
pub const SHED: Counter = Slot::one(5);
pub const LATENCY: Hist = Slot::one(6);
pub const ADVISE_STAGES: [Hist; 4] = Slot::all(7);
pub const CACHE_HITS: Counter = Slot::one(8);
pub const CACHE_MISSES: Counter = Slot::one(9);
pub const CACHE_ENTRIES: Gauge = Slot::one(10);
pub const DEADLINE_EXCEEDED: [Counter; 3] = Slot::all(11);
pub const RELOAD_FAILURES: Counter = Slot::one(13);
pub const STALE_SERVED: Counter = Slot::one(14);
pub const FAULTS_INJECTED: [Counter; 5] = Slot::all(15);
pub const OBSERVATIONS: [Counter; 2] = Slot::all(16);
pub const LIFECYCLE_TRANSITIONS: [Counter; TRANSITIONS.len()] = Slot::all(26);
pub const LIFECYCLE_QUEUE_DEPTH: Gauge = Slot::one(27);
pub const LIFECYCLE_FIT_DURATION: Hist = Slot::one(28);
pub const LIFECYCLE_PROMOTIONS: [Counter; 4] = Slot::all(29);
pub const CONNECTIONS_OPEN: Gauge = Slot::one(30);
pub const KEEPALIVE_REUSES: Counter = Slot::one(31);
pub const REQUEST_STAGES: [Hist; 5] = Slot::all(32);
pub const LOOP_ITERATION: Hist = Slot::one(33);
pub const EVENTS_PER_WAKE: Hist = Slot::one(34);
pub const READ_PAUSED: Gauge = Slot::one(35);
pub const WRITE_STALLED: Gauge = Slot::one(36);
pub const ALERT_TRANSITIONS: [Counter; 4] = Slot::all(37);
pub const ALERTS_FIRING: Gauge = Slot::one(38);
pub const ALERTS_PENDING: Gauge = Slot::one(39);
pub const SLO_EVALUATIONS: Counter = Slot::one(40);
pub const SLO_BREACHING: Gauge = Slot::one(41);
pub const SLO_SCRAPES: Counter = Slot::one(42);

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
    fn add(&self, n: u64) {
        self.stripes[counter_stripe()].0.fetch_add(n, Ordering::Relaxed);
    }

    fn load(&self) -> u64 {
        self.stripes.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }
}

/// Preformatted sample-line prefixes of one family's fixed series —
/// everything up to the value, built once per process so a scrape only
/// formats the numbers. A histogram series takes [`HIST_LINES`] of them:
/// its buckets (`+Inf` last), `_sum`, `_count`.
struct RenderSlab(Vec<String>);

/// Sample lines per histogram series.
const HIST_LINES: usize = BOUNDS + 3;

impl RenderSlab {
    fn build(family: &Family) -> RenderSlab {
        let mut lines = Vec::new();
        if family.source.group_keys() > 0 {
            return RenderSlab(lines); // group series are labelled at render time
        }
        let name = family.name;
        let prefix = |suffix: &str, labels: &str| match labels {
            "" => format!("{name}{suffix} "),
            labels => format!("{name}{suffix}{{{labels}}} "),
        };
        for i in 0..family.width() {
            let labels = family.series_labels(i);
            let Source::Histograms(buckets) = family.source else {
                lines.push(prefix("", &labels));
                continue;
            };
            let extra = if labels.is_empty() { String::new() } else { format!("{labels},") };
            let les = buckets.bounds.iter().map(f64::to_string).chain(["+Inf".to_string()]);
            lines.extend(les.map(|le| format!("{name}_bucket{{{extra}le=\"{le}\"}} ")));
            lines.push(prefix("_sum", &labels));
            lines.push(prefix("_count", &labels));
        }
        RenderSlab(lines)
    }
}

/// Push one sample line: its preformatted prefix, then the value.
fn push_sample(out: &mut String, prefix: &str, value: impl Display) {
    out.push_str(prefix);
    let _ = writeln!(out, "{value}");
}

/// Render the cumulative bucket lines and return their total, which the
/// caller prints as `_count`. Concurrent `observe` calls bump bucket →
/// sum → count, so a separately loaded `count` can run ahead of the
/// buckets read a moment earlier and print a `+Inf` bucket below
/// `_count`; the total read in this one pass always equals `+Inf`.
fn render_buckets(out: &mut String, buckets: &[AtomicU64; BOUNDS + 1], prefixes: &[String]) -> u64 {
    let mut cumulative = 0u64;
    for (bucket, prefix) in buckets.iter().zip(prefixes) {
        cumulative += bucket.load(Ordering::Relaxed);
        push_sample(out, prefix, cumulative);
    }
    cumulative
}

/// One histogram series: per-bucket counts (overflow last), the sum in
/// its family's stored unit, and the observation count.
struct Histogram {
    scale: &'static Buckets,
    buckets: [AtomicU64; BOUNDS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    fn new(scale: &'static Buckets) -> Histogram {
        Histogram {
            scale,
            buckets: Default::default(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Count `x` (in bucket units) and add `sum` (in stored units).
    fn observe(&self, x: f64, sum: u64) {
        let bucket = self.scale.bounds.iter().position(|&b| x <= b).unwrap_or(BOUNDS);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Bucket lines, then `_sum` and `_count`, from `HIST_LINES` prefixes.
    fn render(&self, out: &mut String, prefixes: &[String]) {
        let count = render_buckets(out, &self.buckets, prefixes);
        let sum = self.sum.load(Ordering::Relaxed) as f64 / self.scale.sum_scale;
        push_sample(out, &prefixes[BOUNDS + 1], sum);
        push_sample(out, &prefixes[BOUNDS + 2], count);
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

/// Shared, thread-safe service metrics: one storage slab per slot-backed
/// source, laid out by [`FAMILIES`].
pub struct Metrics {
    counters: [ShardedCounter; LAYOUT.1[COUNTERS]],
    gauges: [AtomicI64; LAYOUT.1[GAUGES]],
    histograms: [Histogram; LAYOUT.1[HISTOGRAMS]],
    /// Per-`(model, version, machine)` quality gauges, upserted by the
    /// quality hub. A `Vec` behind a lock, not atomics: the label set is
    /// dynamic (it follows the model registry) but tiny and updated only
    /// on observe/reload, never on the request hot path.
    quality: parking_lot::RwLock<Vec<QualityEntry>>,
    /// Per-`(model, machine)` lifecycle state gauge, upserted by the
    /// lifecycle hub through the [`LifecycleObserver`] bridge.
    lifecycle: parking_lot::RwLock<Vec<LifecycleEntry>>,
    /// Monotonic clock anchor for the two timestamps below.
    start: Instant,
    /// Micros-since-`start` + 1 of the moment the serving model went
    /// stale (first failed reload after a success); 0 = fresh.
    stale_since: AtomicU64,
    /// Micros-since-`start` + 1 of the most recent shed; 0 = never.
    last_shed: AtomicU64,
    /// Sample-line prefixes per family, built on first render.
    slabs: OnceLock<Vec<RenderSlab>>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        let mut scales = FAMILIES.iter().flat_map(|f| match f.source {
            Source::Histograms(buckets) => vec![buckets; f.width()],
            _ => Vec::new(),
        });
        Metrics {
            counters: std::array::from_fn(|_| ShardedCounter::default()),
            gauges: std::array::from_fn(|_| AtomicI64::new(0)),
            histograms: std::array::from_fn(|_| {
                Histogram::new(scales.next().expect("one scale per histogram slot"))
            }),
            quality: parking_lot::RwLock::new(Vec::new()),
            lifecycle: parking_lot::RwLock::new(Vec::new()),
            start: Instant::now(),
            stale_since: AtomicU64::new(0),
            last_shed: AtomicU64::new(0),
            slabs: OnceLock::new(),
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
        self.inc(REQUESTS[route as usize]);
        if is_error {
            self.inc(ERRORS[route as usize]);
        }
        self.observe(LATENCY, elapsed);
    }

    /// Account one connection shed with 503 before it reached the
    /// router: a request *and* an error under the `other` route, plus
    /// the dedicated shed counter. Shed connections never produce a
    /// latency observation — they were refused, not handled.
    pub fn record_shed(&self) {
        self.inc(REQUESTS[Route::Other as usize]);
        self.inc(ERRORS[Route::Other as usize]);
        self.inc(SHED);
        self.last_shed.store(self.now_stamp(), Ordering::Relaxed);
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

    /// Record a failed model reload and start the staleness clock (if
    /// it is not already running).
    pub fn record_reload_failure(&self) {
        self.inc(RELOAD_FAILURES);
        let _ = self.stale_since.compare_exchange(
            0,
            self.now_stamp(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        );
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

    /// Add one to a counter.
    #[inline]
    pub fn inc(&self, counter: Counter) {
        self.add(counter, 1);
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, counter: Counter, n: u64) {
        self.counters[counter.0].add(n);
    }

    /// A counter's current total.
    pub fn count(&self, counter: Counter) -> u64 {
        self.counters[counter.0].load()
    }

    /// Move a gauge by `delta` (+1 on enter, −1 on leave).
    #[inline]
    pub fn gauge_add(&self, gauge: Gauge, delta: i64) {
        self.gauges[gauge.0].fetch_add(delta, Ordering::Relaxed);
    }

    /// Set a gauge.
    pub fn gauge_set(&self, gauge: Gauge, value: usize) {
        self.gauges[gauge.0].store(value as i64, Ordering::Relaxed);
    }

    /// A gauge's current value, clamped at 0 (concurrent adds can
    /// transiently observe a negative value).
    pub fn gauge(&self, gauge: Gauge) -> u64 {
        self.gauges[gauge.0].load(Ordering::Relaxed).max(0) as u64
    }

    /// Record one duration into a seconds histogram.
    #[inline]
    pub fn observe(&self, hist: Hist, elapsed: Duration) {
        self.histograms[hist.0].observe(elapsed.as_secs_f64(), elapsed.as_micros() as u64);
    }

    /// Record one size into a count histogram.
    pub fn observe_count(&self, hist: Hist, n: usize) {
        self.histograms[hist.0].observe(n as f64, n as u64);
    }

    /// Snapshot one histogram as `(buckets, sum, count)`, the sum in
    /// stored units (microseconds for durations). The count is read
    /// *first*: `observe` bumps bucket → sum → count, so reading in the
    /// opposite order guarantees `sum(buckets) >= count` — a snapshot can
    /// under-report the very newest observation but never tear a
    /// bucket/count pair.
    pub fn snapshot(&self, hist: Hist) -> ([u64; BOUNDS + 1], u64, u64) {
        let h = &self.histograms[hist.0];
        let count = h.count.load(Ordering::Acquire);
        let sum = h.sum.load(Ordering::Acquire);
        let buckets = std::array::from_fn(|i| h.buckets[i].load(Ordering::Acquire));
        (buckets, sum, count)
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

    /// Every registered quality group, read in place under the read
    /// guard — a scrape or health sample copies no group. Drop the
    /// guard before upserting a group on the same thread.
    pub fn quality_entries(&self) -> RwLockReadGuard<'_, Vec<QualityEntry>> {
        self.quality.read()
    }

    /// Upsert the lifecycle state gauge for one `(model, machine)` group.
    /// Registering every group as `Idle` at startup is what makes the
    /// lifecycle state family appear on the very first scrape.
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

    /// Every registered lifecycle group, read in place under the read
    /// guard (see [`Metrics::quality_entries`]).
    pub fn lifecycle_entries(&self) -> RwLockReadGuard<'_, Vec<LifecycleEntry>> {
        self.lifecycle.read()
    }

    /// Render the Prometheus text exposition: every row of [`FAMILIES`],
    /// in order.
    pub fn render(&self) -> String {
        let slabs = self.slabs.get_or_init(|| FAMILIES.iter().map(RenderSlab::build).collect());
        let quality = self.quality_entries();
        let lifecycle = self.lifecycle_entries();
        let mut out = String::with_capacity(1 << 15);
        for ((family, slab), &first) in FAMILIES.iter().zip(slabs).zip(&LAYOUT.0) {
            let RenderSlab(lines) = slab;
            let name = family.name;
            for part in
                ["# HELP ", name, " ", family.help, "\n# TYPE ", name, " ", family.kind(), "\n"]
            {
                out.push_str(part);
            }
            match family.source {
                Source::Counters => {
                    for (i, line) in lines.iter().enumerate() {
                        push_sample(&mut out, line, self.counters[first + i].load());
                    }
                }
                Source::Gauges => {
                    for (i, line) in lines.iter().enumerate() {
                        push_sample(&mut out, line, self.gauge(Slot(first + i)));
                    }
                }
                Source::Histograms(_) => {
                    for (i, lines) in lines.chunks(HIST_LINES).enumerate() {
                        self.histograms[first + i].render(&mut out, lines);
                    }
                }
                Source::One => push_sample(&mut out, &lines[0], 1),
                Source::Staleness => {
                    push_sample(&mut out, &lines[0], self.model_staleness_seconds())
                }
                Source::QualityCounter(read) | Source::QualityGauge(read) => {
                    for e in quality.iter() {
                        for i in 0..family.width() {
                            let extra = family.series_labels(i);
                            let _ = writeln!(
                                out,
                                "{name}{{model=\"{}\",version=\"{}\",machine=\"{}\"{}{extra}}} {}",
                                e.model,
                                e.version,
                                e.machine,
                                if extra.is_empty() { "" } else { "," },
                                read(&e.stats, i)
                            );
                        }
                    }
                }
                Source::LifecycleState => {
                    for e in lifecycle.iter() {
                        let _ = writeln!(
                            out,
                            "{name}{{model=\"{}\",machine=\"{}\"}} {}",
                            e.model,
                            e.machine,
                            e.state.code()
                        );
                    }
                }
            }
        }
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

    /// Pairs outside the enumerated [`TRANSITIONS`] table are not counted
    /// (the hub never emits them).
    fn on_transition(&self, from: LifecycleState, to: LifecycleState) {
        if let Some(i) = TRANSITIONS.iter().position(|&pair| pair == (from, to)) {
            self.0.inc(LIFECYCLE_TRANSITIONS[i]);
        }
    }

    fn on_queue_depth(&self, depth: usize) {
        self.0.gauge_set(LIFECYCLE_QUEUE_DEPTH, depth);
    }

    fn on_fit_duration(&self, seconds: f64) {
        self.0.observe(LIFECYCLE_FIT_DURATION, Duration::from_secs_f64(seconds.max(0.0)));
    }

    fn on_promotion(&self, outcome: PromotionOutcome) {
        self.0.inc(LIFECYCLE_PROMOTIONS[outcome as usize]);
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

    /// A registry as the router leaves it at startup: one quality group
    /// and one lifecycle group registered.
    fn registered() -> Metrics {
        let m = Metrics::new();
        m.set_model_quality("gb", 1, "aurora", QualityStats::default());
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        m
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
        assert_eq!(m.count(SHED), 2);
        assert_eq!(m.count(REQUESTS[Route::Other as usize]), 2);
        assert_eq!(m.count(ERRORS[Route::Other as usize]), 2);
        let text = m.render();
        assert!(text.contains("chemcost_requests_shed_total 2"));
        // Shed connections are refused, not timed.
        assert!(text.contains("chemcost_request_duration_seconds_count 0"));
    }

    #[test]
    fn gauges_track_in_flight_and_queue_depth() {
        let m = Metrics::new();
        m.gauge_add(IN_FLIGHT, 1);
        m.gauge_add(IN_FLIGHT, 1);
        m.gauge_add(IN_FLIGHT, -1);
        assert_eq!(m.gauge(IN_FLIGHT), 1);
        m.gauge_add(POOL_QUEUE_DEPTH, 1);
        m.gauge_add(POOL_QUEUE_DEPTH, 1);
        m.gauge_add(POOL_QUEUE_DEPTH, -1);
        assert_eq!(m.gauge(POOL_QUEUE_DEPTH), 1);
        // Transient underflow clamps to zero in the exposition.
        m.gauge_add(IN_FLIGHT, -1);
        m.gauge_add(IN_FLIGHT, -1);
        assert_eq!(m.gauge(IN_FLIGHT), 0);
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

    /// Every family in [`REQUIRED_SERIES`] must have sample lines on a
    /// *fresh* registry — before any request, fault, or deadline event
    /// has incremented it. A scrape of a just-started server must
    /// already show the whole catalog (the zero values themselves are
    /// pinned by the golden fixtures in `tests/metrics_golden.rs`).
    #[test]
    fn all_required_series_render_before_first_increment() {
        lint_exposition_with_required(&registered().render(), REQUIRED_SERIES)
            .expect("fresh exposition must pre-register every required series");
    }

    /// Negative: stripping any one family's sample lines (metadata kept)
    /// must trip the required-series linter — pre-registration is
    /// load-bearing for every family in the table.
    #[test]
    fn required_linter_flags_every_family_missing_its_samples() {
        let full = registered().render();
        lint_exposition_with_required(&full, REQUIRED_SERIES).expect("full exposition is complete");
        for family in REQUIRED_SERIES {
            let own = |l: &str| {
                let name = l.split(['{', ' ']).next().unwrap_or("");
                name == *family
                    || ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|s| name.strip_suffix(s) == Some(family))
            };
            let stripped: String = full
                .lines()
                .filter(|l| l.starts_with('#') || !own(l))
                .map(|l| format!("{l}\n"))
                .collect();
            assert!(stripped.len() < full.len(), "{family} has no sample lines to strip");
            let errs = lint_exposition_with_required(&stripped, REQUIRED_SERIES).unwrap_err();
            assert!(
                errs.iter()
                    .any(|e| e.contains(&format!("series {family} "))
                        && e.contains("no sample line")),
                "{family} should be flagged: {errs:?}"
            );
        }
        // A family that never existed is reported too.
        let errs =
            lint_exposition_with_required(&full, &["chemcost_nonexistent_total"]).unwrap_err();
        assert!(errs.iter().any(|e| e.contains("chemcost_nonexistent_total")), "{errs:?}");
    }

    #[test]
    fn histogram_snapshot_is_internally_consistent() {
        let m = Metrics::new();
        for i in 0..50 {
            m.record(Route::Advise, false, Duration::from_micros(i * 997));
        }
        let (buckets, sum, count) = m.snapshot(LATENCY);
        assert_eq!(count, 50);
        assert!(sum > 0);
        assert_eq!(buckets.iter().sum::<u64>(), 50, "every observation lands in one bucket");
        assert_eq!(buckets.len(), SECONDS.bounds.len() + 1, "+Inf bucket");
    }

    /// Negative: without a registered quality group the per-model
    /// families have metadata but no sample lines, and the required
    /// linter must say so — this is exactly the regression the router's
    /// startup pre-registration guards against.
    #[test]
    fn required_linter_flags_unregistered_quality_groups() {
        let errs =
            lint_exposition_with_required(&Metrics::new().render(), REQUIRED_SERIES).unwrap_err();
        for family in [
            "chemcost_model_mape",
            "chemcost_residual_seconds",
            "chemcost_drift_trips_total",
            "chemcost_lifecycle_state",
        ] {
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
        m.inc(OBSERVATIONS[Intake::Accepted as usize]);
        m.inc(OBSERVATIONS[Intake::Rejected as usize]);
        m.inc(OBSERVATIONS[Intake::Accepted as usize]);
        assert_eq!(m.count(OBSERVATIONS[Intake::Accepted as usize]), 2);
        assert_eq!(m.count(OBSERVATIONS[Intake::Rejected as usize]), 1);
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

    #[test]
    fn lifecycle_series_render_and_upsert_by_group() {
        let m = Arc::new(Metrics::new());
        let bridge = LifecycleMetricsBridge(Arc::clone(&m));
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
        // Same (model, machine): upsert, not a second series.
        m.set_lifecycle_state("gb", "aurora", LifecycleState::Shadow);
        m.set_lifecycle_state("gb2", "frontier", LifecycleState::Idle);
        assert_eq!(m.lifecycle_entries().len(), 2);
        bridge.on_transition(LifecycleState::Idle, LifecycleState::Queued);
        bridge.on_transition(LifecycleState::Queued, LifecycleState::Training);
        bridge.on_transition(LifecycleState::Queued, LifecycleState::Training);
        // Invalid pairs are ignored, never counted under a wrong label.
        bridge.on_transition(LifecycleState::Idle, LifecycleState::Promoted);
        let counted: Vec<u64> =
            (0..TRANSITIONS.len()).map(|i| m.count(LIFECYCLE_TRANSITIONS[i])).collect();
        assert_eq!(counted.iter().sum::<u64>(), 3, "{counted:?}");
        let queued_training = TRANSITIONS
            .iter()
            .position(|&p| p == (LifecycleState::Queued, LifecycleState::Training))
            .unwrap();
        assert_eq!(counted[queued_training], 2);
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
        let queued_training = (LifecycleState::Queued, LifecycleState::Training);
        let i = TRANSITIONS.iter().position(|&p| p == queued_training).unwrap();
        assert_eq!(m.count(LIFECYCLE_TRANSITIONS[i]), 1);
        assert_eq!(m.gauge(LIFECYCLE_QUEUE_DEPTH), 2);
        assert_eq!(m.snapshot(LIFECYCLE_FIT_DURATION).2, 1);
        assert_eq!(m.count(LIFECYCLE_PROMOTIONS[PromotionOutcome::Operator as usize]), 1);
    }

    #[test]
    fn staleness_gauge_follows_reload_outcomes() {
        let m = Metrics::new();
        // Fresh registry: never failed, staleness pinned to zero.
        assert_eq!(m.model_staleness_seconds(), 0.0);
        m.record_reload_failure();
        assert_eq!(m.count(RELOAD_FAILURES), 1);
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

    /// Satellite: N writer threads hammer every counter family while the
    /// main thread renders mid-flight; every intermediate exposition must
    /// stay well-formed, and the final counts must add up.
    #[test]
    fn concurrent_writers_keep_render_well_formed() {
        let m = Arc::new(Metrics::new());
        let writers = 8;
        let per_thread = 500;
        let handles: Vec<_> = (0..writers)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        let route = Route::ALL[(t + i) % Route::ALL.len()];
                        m.gauge_add(IN_FLIGHT, 1);
                        m.gauge_add(POOL_QUEUE_DEPTH, 1);
                        m.record(route, i % 3 == 0, Duration::from_micros((i * 37) as u64));
                        let stage = AdviseStage::ALL[i % 3];
                        m.observe(
                            ADVISE_STAGES[stage as usize],
                            Duration::from_micros((i * 11) as u64),
                        );
                        if i % 5 == 0 {
                            m.record_shed();
                        }
                        m.inc(CACHE_MISSES);
                        m.gauge_add(POOL_QUEUE_DEPTH, -1);
                        m.gauge_add(IN_FLIGHT, -1);
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
        let total: u64 = Route::ALL.iter().map(|&r| m.count(REQUESTS[r as usize])).sum();
        let expected = (writers * per_thread) as u64;
        // record() calls + record_shed() calls (every 5th iteration).
        assert_eq!(total, expected + expected / 5);
        assert_eq!(m.count(CACHE_MISSES), expected);
        assert_eq!(m.count(SHED), expected / 5);
        assert_eq!(m.gauge(IN_FLIGHT), 0);
        assert_eq!(m.gauge(POOL_QUEUE_DEPTH), 0);
        let stage_total: u64 =
            AdviseStage::ALL.iter().map(|&s| m.snapshot(ADVISE_STAGES[s as usize]).2).sum();
        assert_eq!(stage_total, expected);
        lint_exposition(&m.render()).expect("final exposition must lint clean");
    }
}
