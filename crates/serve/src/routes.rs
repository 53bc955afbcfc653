//! Request routing and the JSON API surface.
//!
//! `Router::handle` is a pure function from `Request` to `Response` —
//! no sockets involved — so the same code path is driven by the TCP
//! server, the end-to-end tests, and the throughput benchmarks.
//!
//! The two model-query endpoints ride the fast inference path:
//! `/v1/predict` and `/v1/advise` both evaluate the registry's compiled
//! [`chemcost_ml::flat::FlatGbt`] (quantized traversal, within the
//! documented `QUANT_REL_TOL` of the recursive ensemble), inline on
//! the worker that parsed the request. `/v1/predict` scores its rows in
//! one batch call, split over the cores only while it is the sole
//! request in flight (see `Router::alone`); otherwise the other workers
//! already use those cores and it scores serially. `/v1/advise` runs
//! **one** candidate sweep per request via [`Advisor::sweep`] no matter
//! how many questions the body asks: the sweep is one grid walk per
//! tree (`FlatGbt`'s `predict_grid`).
//! Fully-answered advise responses are replayed from a keyed, sharded LRU
//! [`AdviseCache`] until the model is reloaded — a warm hit probes with a
//! borrowed key and replays the `Arc<str>` body without copying it. The
//! event loop answers such a hit itself through `Router::answer_if_cached`,
//! which probes without side effects and, on a hit, replays the probe's
//! entry through the same wrapper a worker runs.

use crate::cache::{AdviseCache, AdviseKeyRef, CachedRec};
use crate::http::{Body, Request, Response};
use crate::json::{self, Json, Scanner};
use crate::metrics::{
    build_info, AdviseStage, DeadlineStage, Intake, LifecycleMetricsBridge, Metrics, Route,
    ADVISE_STAGES, CACHE_ENTRIES, CACHE_HITS, CACHE_MISSES, DEADLINE_EXCEEDED, IN_FLIGHT,
    OBSERVATIONS, POOL_QUEUE_DEPTH, STALE_SERVED,
};
use crate::quality::{ObserveError, ObserveOutcome, QualityHub};
use crate::registry::{ModelRegistry, ResolvedModel};
use crate::timeline::FlightRecorder;
use chemcost_core::advisor::{Advisor, Goal, Recommendation};
use chemcost_lifecycle::{
    LifecycleConfig, LifecycleHub, LifecycleState, PromotionTicket, RetrainReason, RetrainRequest,
    ShadowVerdict,
};
use chemcost_linalg::Matrix;
use chemcost_ml::persist::save_gb_with_lineage;
use chemcost_obs::{self as obs, Level};
use chemcost_sim::machine::by_name;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Most rows accepted in one `/v1/predict` batch.
const MAX_PREDICT_ROWS: usize = 10_000;

/// Default capacity of the advise recommendation cache.
const DEFAULT_CACHE_CAPACITY: usize = 512;

/// How recently the pool must have shed a connection for `/v1/advise`
/// to prefer a demoted (stale) cached answer over running a sweep.
const STALE_SERVE_WINDOW: Duration = Duration::from_secs(5);

/// A request's time budget, anchored at its arrival (enqueue) instant so
/// queue wait counts against it. Built from the `X-Deadline-Ms` header,
/// falling back to `--default-deadline-ms`.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    /// `None` when `arrived + budget` overflows `Instant` — effectively
    /// unbounded, which is what a multi-century budget means.
    expires: Option<Instant>,
    budget_ms: u64,
}

impl Deadline {
    /// A budget of `budget_ms` starting at `arrived`.
    pub fn new(arrived: Instant, budget_ms: u64) -> Deadline {
        Deadline { expires: arrived.checked_add(Duration::from_millis(budget_ms)), budget_ms }
    }

    /// Has the budget run out?
    pub fn expired(&self) -> bool {
        self.expires.is_some_and(|e| Instant::now() >= e)
    }

    /// Milliseconds of budget left (saturating at zero).
    pub fn remaining_ms(&self) -> u64 {
        match self.expires {
            Some(e) => e.saturating_duration_since(Instant::now()).as_millis() as u64,
            None => u64::MAX,
        }
    }

    /// The budget the client asked for.
    pub fn budget_ms(&self) -> u64 {
        self.budget_ms
    }
}

/// Parse the `X-Deadline-Ms` request header. `Ok(None)` means the header
/// is absent; the error string is safe to echo back in a 400. Duplicate
/// headers arrive comma-joined from the parser and are rejected here —
/// two conflicting budgets is a client bug, not a tiebreak to guess at.
pub fn parse_deadline_ms(req: &Request) -> Result<Option<u64>, String> {
    let Some(raw) = req.headers.get("x-deadline-ms") else {
        return Ok(None);
    };
    let raw = raw.trim();
    if raw.contains(',') {
        return Err(format!("conflicting X-Deadline-Ms values: {raw:?}"));
    }
    let ms: u64 = raw.parse().map_err(|_| {
        format!("X-Deadline-Ms must be a positive integer of milliseconds, got {raw:?}")
    })?;
    if ms == 0 {
        return Err(
            "X-Deadline-Ms: 0 allows no time at all; omit the header for no deadline".into()
        );
    }
    Ok(Some(ms))
}

/// Requests slower than this get a `http.slow` warning record.
/// Overridable in milliseconds via `CHEMCOST_SLOW_MS`.
fn slow_threshold() -> Duration {
    static THRESHOLD: OnceLock<Duration> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("CHEMCOST_SLOW_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::from_millis(500))
    })
}

/// Shared request handler: model registry + metrics + shutdown signal.
#[derive(Clone)]
pub struct Router {
    registry: Arc<ModelRegistry>,
    metrics: Arc<Metrics>,
    cache: Arc<AdviseCache>,
    quality: Arc<QualityHub>,
    lifecycle: Arc<LifecycleHub>,
    shutdown: Arc<AtomicBool>,
    /// Budget applied to requests that don't send `X-Deadline-Ms`.
    default_deadline_ms: Option<u64>,
    /// Flight recorder behind `GET /debug/requests`: the event loop
    /// records every completed request timeline here.
    flight: Arc<FlightRecorder>,
    /// Health hub behind `GET /v1/health` and `GET /debug/slo`.
    /// Installed once by `Server::run`; absent in routers driven
    /// in-process, which then answer "disabled".
    health: Arc<OnceLock<Arc<chemcost_health::HealthHub>>>,
}

impl Router {
    /// Build a router over a registry with fresh metrics.
    pub fn new(registry: Arc<ModelRegistry>) -> Router {
        Router::with_cache_capacity(registry, DEFAULT_CACHE_CAPACITY)
    }

    /// Build a router whose advise cache holds at most `capacity` entries.
    pub fn with_cache_capacity(registry: Arc<ModelRegistry>, capacity: usize) -> Router {
        Router::with_lifecycle_config(registry, capacity, LifecycleConfig::default())
    }

    /// Build a router with explicit lifecycle tuning. The soak tests use
    /// this to shrink shadow windows and pool triggers so the full
    /// retrain → shadow → promote loop closes in seconds.
    pub fn with_lifecycle_config(
        registry: Arc<ModelRegistry>,
        capacity: usize,
        lifecycle_config: LifecycleConfig,
    ) -> Router {
        let metrics = Arc::new(Metrics::new());
        let quality = Arc::new(QualityHub::new(Arc::clone(&metrics)));
        let lifecycle = Arc::new(LifecycleHub::with_observer(
            lifecycle_config,
            Box::new(LifecycleMetricsBridge(Arc::clone(&metrics))),
        ));
        // Pre-register every serving group so the quality and lifecycle
        // series exist on the very first /metrics scrape, not only after
        // traffic.
        for info in registry.list() {
            quality.register_group(&info.name, info.version, &info.machine);
            lifecycle.register_group(&info.name, &info.machine);
        }
        Router {
            registry,
            metrics,
            cache: Arc::new(AdviseCache::new(capacity)),
            quality,
            lifecycle,
            shutdown: Arc::new(AtomicBool::new(false)),
            default_deadline_ms: None,
            flight: Arc::new(FlightRecorder::new()),
            health: Arc::new(OnceLock::new()),
        }
    }

    /// The flight recorder served from `GET /debug/requests`.
    pub fn flight(&self) -> &Arc<FlightRecorder> {
        &self.flight
    }

    /// Install the health hub all clones of this router will serve
    /// `GET /v1/health` and `GET /debug/slo` from. One-shot: later
    /// calls on the same router (or any clone) are ignored.
    pub fn install_health(&self, hub: Arc<chemcost_health::HealthHub>) {
        let _ = self.health.set(hub);
    }

    /// The installed health hub, if any.
    pub fn health(&self) -> Option<&Arc<chemcost_health::HealthHub>> {
        self.health.get()
    }

    /// Apply `ms` as the deadline for requests without `X-Deadline-Ms`
    /// (`chemcost serve --default-deadline-ms`). `None` disables it.
    pub fn with_default_deadline_ms(mut self, ms: Option<u64>) -> Router {
        self.default_deadline_ms = ms.filter(|&ms| ms > 0);
        self
    }

    /// The model registry behind this router.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The metrics this router records into.
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// The model-quality tracker behind `/v1/observe` and `/v1/quality`.
    pub fn quality(&self) -> &Arc<QualityHub> {
        &self.quality
    }

    /// The retrain/shadow/promote machinery behind `GET /v1/lifecycle`.
    pub fn lifecycle(&self) -> &Arc<LifecycleHub> {
        &self.lifecycle
    }

    /// Has `POST /v1/shutdown` been received?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The flag `POST /v1/shutdown` sets (shared with the accept loop).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Dispatch one request, recording metrics (count, errors, latency)
    /// and the access log. Every record emitted while handling carries
    /// the request's trace id: the client's `X-Request-Id` when it sent
    /// one, a fresh monotonic id otherwise; either way the id is echoed
    /// back in the response's `X-Request-Id` header.
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_from(req, Instant::now())
    }

    /// Like [`Router::handle`] but anchored at `arrived` — the instant
    /// the request entered the server (its enqueue time) — so time spent
    /// waiting in the worker-pool queue counts against the deadline.
    pub fn handle_from(&self, req: &Request, arrived: Instant) -> Response {
        self.respond(req, arrived, None)
    }

    /// The event loop's answer to a `POST /v1/advise` with a canonical
    /// body whose answer is cached: the same wrapper, deadline gates and
    /// replay a worker runs, fed the probe's cache entry so the cache is
    /// probed once. Everything else — misses, non-canonical bodies,
    /// invalid questions, every other route — is `None` and goes to a
    /// worker, which probes again and counts: a probe that misses
    /// records nothing and leaves the cache as it was.
    pub(crate) fn answer_if_cached(&self, req: &Request, arrived: Instant) -> Option<Response> {
        if req.method != "POST" || req.path != "/v1/advise" {
            return None;
        }
        let fields = std::str::from_utf8(&req.body).ok().and_then(scan_advise)?;
        let probe = self.advise_probe(fields).ok()?;
        probe.cached.as_ref()?;
        Some(self.respond(req, arrived, Some(probe)))
    }

    fn respond(&self, req: &Request, arrived: Instant, hit: Option<AdviseProbe<'_>>) -> Response {
        let started = Instant::now();
        let trace_id: Arc<str> = match req.headers.get("x-request-id").map(|v| v.trim()) {
            Some(id) if !id.is_empty() => Arc::from(id),
            _ => Arc::from(obs::next_trace_id()),
        };
        let _trace = obs::TraceScope::enter(Arc::clone(&trace_id));
        obs::event!(
            Level::Debug,
            "http.accept",
            method = req.method.as_str(),
            path = req.path.as_str(),
        );
        let deadline = parse_deadline_ms(req)
            .map(|header_ms| header_ms.or(self.default_deadline_ms))
            .map(|ms| ms.map(|ms| Deadline::new(arrived, ms)));
        if let Ok(Some(d)) = &deadline {
            obs::event!(
                Level::Debug,
                "http.deadline",
                budget_ms = d.budget_ms(),
                remaining_ms = d.remaining_ms(),
            );
        }
        self.metrics.gauge_add(IN_FLIGHT, 1);
        let (route, mut response) = self.dispatch(req, deadline, hit);
        self.metrics.gauge_add(IN_FLIGHT, -1);
        // Two clocks (satellite of PR 8): `handler` is pure handler
        // time (the per-route latency histograms keep their meaning),
        // while the access log and the slow-request warning measure
        // from `arrived` — the deadline anchor — so queue wait counts
        // toward them. `max` guards callers passing a future
        // `arrived` (never the event loop, but `Instant` math panics).
        let handler = started.elapsed();
        let total = arrived.elapsed().max(handler);
        self.metrics.record(route, response.is_error(), handler);
        response.headers.push(("X-Request-Id", trace_id.to_string()));
        obs::event!(
            Level::Info,
            "http.request",
            method = req.method.as_str(),
            path = req.path.as_str(),
            route = route.label(),
            status = response.status,
            duration_us = total.as_micros() as u64,
            handler_us = handler.as_micros() as u64,
        );
        if total >= slow_threshold() {
            obs::event!(
                Level::Warn,
                "http.slow",
                method = req.method.as_str(),
                path = req.path.as_str(),
                route = route.label(),
                status = response.status,
                duration_us = total.as_micros() as u64,
                handler_us = handler.as_micros() as u64,
                threshold_ms = slow_threshold().as_millis() as u64,
            );
        }
        response
    }

    fn dispatch(
        &self,
        req: &Request,
        deadline: Result<Option<Deadline>, String>,
        hit: Option<AdviseProbe<'_>>,
    ) -> (Route, Response) {
        let deadline = match deadline {
            Ok(d) => d,
            Err(msg) => return (Route::Other, error(400, &msg)),
        };
        // Queue-dequeue stage: a request that burned its whole budget
        // waiting in the pool queue is answered 504 without touching a
        // model — the worker frees up immediately.
        if let Some(d) = deadline.filter(|d| d.expired()) {
            return (Route::Other, self.deadline_504(DeadlineStage::Queue, d));
        }
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/healthz") => {
                (Route::Healthz, Response::json(200, r#"{"status":"ok"}"#.to_string()))
            }
            ("GET", "/metrics") => (Route::Metrics, Response::text(200, self.metrics.render())),
            ("GET", "/v1/models") => (Route::Models, self.models()),
            ("GET", "/v1/quality") => (Route::Quality, self.quality_report()),
            ("GET", "/v1/quality/next_experiments") => {
                (Route::Quality, self.next_experiments_report())
            }
            ("GET", "/v1/lifecycle") => (Route::Lifecycle, self.lifecycle_report()),
            ("GET", "/v1/health") => (Route::Health, self.health_report()),
            ("GET", "/debug/slo") => (Route::Debug, self.debug_slo()),
            ("GET", "/debug/requests") => {
                let since_us =
                    req.query_param("since_us").and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
                let route_filter = req.query_param("route").filter(|r| !r.is_empty());
                (
                    Route::Debug,
                    Response::json(
                        200,
                        self.flight.to_json_filtered(since_us, route_filter).encode(),
                    ),
                )
            }
            ("POST", "/v1/lifecycle/promote") => {
                (Route::Lifecycle, self.lifecycle_promote(&req.body))
            }
            ("POST", "/v1/lifecycle/rollback") => {
                (Route::Lifecycle, self.lifecycle_rollback(&req.body))
            }
            ("POST", "/v1/lifecycle/freeze") => {
                (Route::Lifecycle, self.lifecycle_freeze(&req.body))
            }
            ("POST", "/v1/predict") => (Route::Predict, self.predict(&req.body)),
            ("POST", "/v1/advise") => match hit {
                Some(probe) => (Route::Advise, self.advise_answer(probe, deadline)),
                None => (Route::Advise, self.advise(&req.body, deadline)),
            },
            ("POST", "/v1/observe") => (Route::Observe, self.observe(&req.body)),
            ("POST", "/v1/shutdown") => {
                self.shutdown.store(true, Ordering::SeqCst);
                (Route::Shutdown, Response::json(200, r#"{"status":"shutting down"}"#.to_string()))
            }
            ("POST", path) => {
                if let Some(name) =
                    path.strip_prefix("/v1/models/").and_then(|rest| rest.strip_suffix("/reload"))
                {
                    (Route::Reload, self.reload(name))
                } else {
                    (Route::Other, error(404, &format!("no such endpoint {path}")))
                }
            }
            ("GET" | "HEAD", path) => {
                (Route::Other, error(404, &format!("no such endpoint {path}")))
            }
            (method, _) => (Route::Other, error(405, &format!("method {method} not allowed"))),
        }
    }

    /// `GET /v1/health`: the SLO verdict as a readiness probe — 200
    /// while healthy, 503 while any critical SLO is firing. Without an
    /// installed hub (in-process routers, health disabled) it reports
    /// 200/"disabled" so probes don't flap on configuration.
    fn health_report(&self) -> Response {
        match self.health.get() {
            Some(hub) => {
                let (status, body) = hub.health_json();
                Response::json(status, body)
            }
            None => Response::json(200, r#"{"status":"disabled","slos":[]}"#.to_string()),
        }
    }

    /// `GET /debug/slo`: ring accounting plus per-SLO evaluation
    /// history (the `chemcost health` sparkline source).
    fn debug_slo(&self) -> Response {
        match self.health.get() {
            Some(hub) => Response::json(200, hub.debug_json()),
            None => Response::json(200, r#"{"status":"disabled","slos":[]}"#.to_string()),
        }
    }

    fn models(&self) -> Response {
        let models: Vec<Json> = self
            .registry
            .list()
            .into_iter()
            .map(|info| {
                Json::obj([
                    ("name", info.name.into()),
                    ("version", Json::Num(info.version as f64)),
                    ("machine", info.machine.into()),
                    (
                        "path",
                        match info.path {
                            Some(p) => p.display().to_string().into(),
                            None => Json::Null,
                        },
                    ),
                    (
                        "default_for",
                        Json::Arr(info.default_for.into_iter().map(Json::from).collect()),
                    ),
                ])
            })
            .collect();
        Response::json(200, Json::obj([("models", Json::Arr(models))]).encode())
    }

    fn reload(&self, name: &str) -> Response {
        match self.registry.reload(name) {
            Ok(version) => {
                // The version-in-key already prevents silent stale hits;
                // demotion keeps the dead version's answers around as
                // last-resort overload fallbacks instead of dropping them.
                let demoted = self.cache.demote_model(name, version);
                self.metrics.gauge_set(CACHE_ENTRIES, self.cache.len());
                self.metrics.mark_model_fresh();
                // Track the new generation's quality from its first answer,
                // and flush buffered obs lines so the reload marker reaches
                // durable sinks even if the process dies mid-generation.
                if let Ok(resolved) = self.registry.resolve(Some(name), None) {
                    self.quality.register_group(&resolved.name, version, &resolved.machine);
                }
                obs::event!(
                    Level::Info,
                    "registry.reload",
                    model = name,
                    version = version,
                    cache_demoted = demoted,
                );
                obs::flush();
                Response::json(
                    200,
                    Json::obj([("model", name.into()), ("version", Json::Num(version as f64))])
                        .encode(),
                )
            }
            Err(e) => {
                let status = if e.contains("no model named") { 404 } else { 500 };
                if status == 500 {
                    // Stale-while-revalidate: the registry kept the
                    // last-good model live; start (or continue) the
                    // staleness clock and tell the client what is still
                    // being served.
                    self.metrics.record_reload_failure();
                    obs::event!(
                        Level::Error,
                        "registry.reload_failed",
                        model = name,
                        error = e.as_str(),
                        staleness_s = self.metrics.model_staleness_seconds(),
                    );
                }
                let mut fields: Vec<(&'static str, Json)> = vec![("error", e.as_str().into())];
                if let Ok(still) = self.registry.resolve(Some(name), None) {
                    fields.push(("serving_model", still.name.into()));
                    fields.push(("serving_version", Json::Num(still.version as f64)));
                }
                Response::json(status, Json::obj(fields).encode())
            }
        }
    }

    fn predict(&self, body: &[u8]) -> Response {
        // Fast scan of the canonical body shape: borrowed strings, no
        // Json tree. Anything unusual (escapes, extra keys, bad values)
        // falls back to the tree parser, which owns every error message.
        if let Some((features, model, machine)) =
            std::str::from_utf8(body).ok().and_then(scan_predict)
        {
            let resolved = match self.registry.resolve(model, machine) {
                Ok(r) => r,
                Err(e) => return error(404, &e),
            };
            return self.finish_predict(resolved, features);
        }
        let body = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let resolved = match self.registry.resolve(
            body.get("model").and_then(Json::as_str),
            body.get("machine").and_then(Json::as_str),
        ) {
            Ok(r) => r,
            Err(e) => return error(404, &e),
        };
        let Some(rows) = body.get("rows").and_then(Json::as_array) else {
            return error(400, "missing \"rows\" array");
        };
        if rows.is_empty() {
            return error(400, "\"rows\" is empty");
        }
        if rows.len() > MAX_PREDICT_ROWS {
            return error(400, &format!("too many rows (max {MAX_PREDICT_ROWS})"));
        }
        let mut features = Vec::with_capacity(rows.len());
        for (i, row) in rows.iter().enumerate() {
            let mut parsed = [0.0f64; 4];
            for (slot, key) in parsed.iter_mut().zip(["o", "v", "nodes", "tile"]) {
                match row.get(key).and_then(Json::as_f64) {
                    Some(n) if n > 0.0 && n.is_finite() => *slot = n,
                    _ => {
                        return error(400, &format!("rows[{i}]: missing or non-positive \"{key}\""))
                    }
                }
            }
            features.push(parsed);
        }
        self.finish_predict(resolved, features)
    }

    /// Is the calling request the only one in a handler, with none
    /// waiting for a worker? Then the cores the other workers would use
    /// are idle and a model call may split over them; otherwise each
    /// worker scores on its own thread, so `--workers` bounds the
    /// daemon's inference threads under load. Both counters are read
    /// after this request entered `in_flight`, so of two requests
    /// checking at once at most one sees itself alone.
    fn alone(&self) -> bool {
        self.metrics.gauge(IN_FLIGHT) <= 1 && self.metrics.gauge(POOL_QUEUE_DEPTH) == 0
    }

    /// Inference + response encoding shared by the fast-scanned and
    /// tree-parsed predict paths. Features are already validated.
    fn finish_predict(&self, resolved: ResolvedModel, features: Vec<[f64; 4]>) -> Response {
        // Shadow-score the request's first row so a candidate in Shadow
        // sees live /v1/predict traffic (and poison candidates are caught)
        // without the response or its latency depending on the result.
        self.lifecycle.shadow_predict(&resolved.name, &resolved.machine, &features[0]);
        let x = Matrix::from_fn(features.len(), 4, |i, j| features[i][j]);
        // Flat inference runs the quantized traversal, within
        // QUANT_REL_TOL of resolved.model's recursive path. Split and
        // serial scoring give the same bits.
        let seconds = if self.alone() {
            resolved.flat.predict_batch(&x)
        } else {
            resolved.flat.predict_batch_serial(&x)
        };
        // Direct-write the response: byte-identical to encoding a Json
        // tree (write_num/write_escaped are the tree encoder's own
        // writers) without allocating per-row objects.
        let mut out = String::with_capacity(64 + resolved.name.len() + seconds.len() * 48);
        out.push_str("{\"model\":");
        json::write_escaped(&resolved.name, &mut out);
        out.push_str(",\"model_version\":");
        json::write_num(resolved.version as f64, &mut out);
        out.push_str(",\"predictions\":[");
        for (i, (&s, row)) in seconds.iter().zip(&features).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"seconds\":");
            json::write_num(s, &mut out);
            out.push_str(",\"node_hours\":");
            json::write_num(s * row[2] / 3600.0, &mut out);
            out.push('}');
        }
        out.push_str("]}");
        Response::json(200, out)
    }

    /// 504 for `stage`, recording the counter and an obs event.
    fn deadline_504(&self, stage: DeadlineStage, d: Deadline) -> Response {
        self.metrics.inc(DEADLINE_EXCEEDED[stage as usize]);
        obs::event!(
            Level::Warn,
            "http.deadline_exceeded",
            stage = stage.label(),
            budget_ms = d.budget_ms(),
            exceeded_total = self.metrics.count(DEADLINE_EXCEEDED[stage as usize]),
        );
        Response::json(
            504,
            Json::obj([
                ("error", "deadline exceeded".into()),
                ("stage", stage.label().into()),
                ("deadline_ms", Json::Num(d.budget_ms() as f64)),
            ])
            .encode(),
        )
    }

    // `wall_budget` is the request's wall-clock deadline; the body's
    // "budget"/"deadline" fields are the user's node-hour and
    // job-walltime questions. Distinct concepts.
    fn advise(&self, body: &[u8], wall_budget: Option<Deadline>) -> Response {
        // Fast scan of the canonical body shape: borrowed strings, no
        // Json tree, nothing allocated before the cache probe. Anything
        // unusual falls back to the tree parser, which owns every error
        // message.
        if let Some(f) = std::str::from_utf8(body).ok().and_then(scan_advise) {
            return self.advise_fields(f, wall_budget);
        }
        let tree = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        self.advise_fields(
            AdviseFields {
                model: tree.get("model").and_then(Json::as_str),
                machine: tree.get("machine").and_then(Json::as_str),
                o: tree.get("o").and_then(Json::as_usize),
                v: tree.get("v").and_then(Json::as_usize),
                goal: tree.get("goal").and_then(Json::as_str),
                budget: tree.get("budget").and_then(Json::as_f64),
                deadline: tree.get("deadline").and_then(Json::as_f64),
            },
            wall_budget,
        )
    }

    /// Validation, cache probe, sweep and encode shared by the
    /// fast-scanned and tree-parsed advise paths.
    fn advise_fields(&self, f: AdviseFields<'_>, wall_budget: Option<Deadline>) -> Response {
        match self.advise_probe(f) {
            Ok(probe) => self.advise_answer(probe, wall_budget),
            Err(resp) => resp,
        }
    }

    /// Validate an advise question, resolve its model, and look its
    /// answer up in the cache. Records nothing — the answer counts the
    /// hit or miss — so the event loop can probe a request and still
    /// hand a miss to a worker untouched.
    fn advise_probe<'a>(&self, f: AdviseFields<'a>) -> Result<AdviseProbe<'a>, Response> {
        let resolved = self.registry.resolve(f.model, f.machine).map_err(|e| error(404, &e))?;
        let machine_name = f.machine.unwrap_or(&resolved.machine);
        if by_name(machine_name).is_none() {
            return Err(error(400, &format!("unknown machine {machine_name:?} (aurora|frontier)")));
        }
        let (o, v) = match (f.o, f.v) {
            (Some(o), Some(v)) if o > 0 && v > 0 => (o, v),
            _ => return Err(error(400, "\"o\" and \"v\" must be positive integers")),
        };
        let goal = f.goal.unwrap_or("stq");
        if !matches!(goal, "stq" | "bq" | "pareto") {
            return Err(error(400, &format!("unknown goal {goal:?} (stq|bq|pareto)")));
        }
        let mut probe = AdviseProbe {
            resolved,
            machine_field: f.machine,
            o,
            v,
            goal,
            budget: f.budget,
            deadline: f.deadline,
            cached: None,
            probe_time: Duration::ZERO,
        };
        let started = Instant::now();
        probe.cached = self.cache.get(&probe.key());
        probe.probe_time = started.elapsed();
        Ok(probe)
    }

    /// Answer a probed advise question: replay its cached answer, or on
    /// a miss serve stale under overload or run the sweep.
    fn advise_answer(&self, mut probe: AdviseProbe<'_>, wall_budget: Option<Deadline>) -> Response {
        // Cache-probe stage: out of budget at the probe? 504.
        if let Some(d) = wall_budget.filter(|d| d.expired()) {
            return self.deadline_504(DeadlineStage::Cache, d);
        }
        let cached = probe.cached.take();
        let AdviseProbe { ref resolved, o, v, goal, budget, deadline, .. } = probe;
        let machine_name = probe.machine_name();
        let hit = cached.is_some();
        self.metrics.observe(ADVISE_STAGES[AdviseStage::Cache as usize], probe.probe_time);
        obs::event!(Level::Debug, "advise.cache", hit = hit, o = o, v = v, goal = goal);
        if let Some((cached, rec)) = cached {
            self.metrics.inc(CACHE_HITS);
            let mut resp = Response::json(200, cached);
            // A replayed answer is a fresh prediction as far as the quality
            // loop is concerned: each round trip gets its own id, so the
            // cached body stays byte-identical and the id rides a header.
            self.journal_prediction(
                &mut resp,
                &resolved.name,
                resolved.version,
                machine_name,
                o,
                v,
                rec,
            );
            return resp;
        }
        self.metrics.inc(CACHE_MISSES);
        let key = probe.key();
        // Serve-stale-on-overload: while the pool is shedding, an answer
        // computed by a previous model version beats burning a sweep. The
        // replay is labelled `"stale": true` and keeps its original
        // `model_version` so the client can tell what it got.
        if self.metrics.shed_within(STALE_SERVE_WINDOW) {
            if let Some((stale_body, stale_version, stale_rec)) = self.cache.get_stale(&key) {
                self.metrics.inc(STALE_SERVED);
                obs::event!(
                    Level::Warn,
                    "advise.stale",
                    o = o,
                    v = v,
                    goal = goal,
                    stale_version = stale_version,
                    current_version = resolved.version,
                );
                let labelled: Body = match Json::parse(&stale_body) {
                    Ok(Json::Obj(mut fields)) => {
                        fields.push(("stale".to_string(), Json::Bool(true)));
                        Json::Obj(fields).encode().into()
                    }
                    _ => stale_body.into(),
                };
                let mut resp = Response::json(200, labelled);
                // Journal against the version that computed the answer, so
                // its residuals score the model that actually promised them.
                self.journal_prediction(
                    &mut resp,
                    &resolved.name,
                    stale_version,
                    machine_name,
                    o,
                    v,
                    stale_rec,
                );
                return resp;
            }
        }

        // Sweep stage: the most expensive step gets its own budget gate.
        if let Some(d) = wall_budget.filter(|d| d.expired()) {
            return self.deadline_504(DeadlineStage::Sweep, d);
        }
        if let Some(d) = &wall_budget {
            obs::event!(Level::Debug, "advise.budget", remaining_ms = d.remaining_ms());
        }

        // One sweep answers every question in the request: the flat model
        // scores the whole (nodes × tile) grid in one walk per tree, on
        // this worker, and the per-goal answers are reductions over that
        // shared sweep.
        let sweep_started = Instant::now();
        let sweep = {
            let _span = obs::span!(
                Level::Debug,
                "advise.sweep",
                o = o,
                v = v,
                machine = machine_name,
                model = resolved.name.as_str(),
                model_version = resolved.version,
            );
            let machine = by_name(machine_name).expect("advise_probe validated the machine");
            Advisor::new(resolved.flat.as_ref(), machine).sweep(o, v)
        };
        self.metrics.observe(ADVISE_STAGES[AdviseStage::Sweep as usize], sweep_started.elapsed());

        let encode_started = Instant::now();
        let mut fields: Vec<(&'static str, Json)> = vec![
            ("model", resolved.name.clone().into()),
            ("model_version", Json::Num(resolved.version as f64)),
            ("machine", machine_name.into()),
            ("o", o.into()),
            ("v", v.into()),
        ];
        // The primary recommendation is what the quality loop journals:
        // the goal answer for stq/bq, the frontier's fastest for pareto.
        let primary: Option<Recommendation>;
        match goal {
            "stq" | "bq" => {
                let g = if goal == "stq" { Goal::ShortestTime } else { Goal::Budget };
                fields.push(("goal", g.abbrev().into()));
                let best = sweep.best(g);
                primary = best;
                fields.push(("recommendation", best.map(rec_json).unwrap_or(Json::Null)));
            }
            _ => {
                fields.push(("goal", "pareto".into()));
                let frontier = sweep.pareto_frontier();
                primary = frontier.first().copied();
                fields.push(("frontier", Json::Arr(frontier.into_iter().map(rec_json).collect())));
            }
        }
        if let Some(budget) = budget {
            fields.push((
                "within_budget",
                sweep.fastest_within_budget(budget).map(rec_json).unwrap_or(Json::Null),
            ));
        }
        if let Some(deadline) = deadline {
            fields.push((
                "within_deadline",
                sweep.cheapest_within_deadline(deadline).map(rec_json).unwrap_or(Json::Null),
            ));
        }
        // One rendered slab shared between the cache and this response:
        // the insert is a refcount bump, not a body copy.
        let rendered: Arc<str> = Json::obj(fields).encode().into();
        let rec = primary.map(|r| (r.nodes, r.tile, r.predicted_seconds));
        self.cache.insert(key.to_owned_key(), Arc::clone(&rendered), rec);
        self.metrics.gauge_set(CACHE_ENTRIES, self.cache.len());
        self.metrics.observe(ADVISE_STAGES[AdviseStage::Encode as usize], encode_started.elapsed());
        let mut resp = Response::json(200, rendered);
        self.journal_prediction(
            &mut resp,
            &resolved.name,
            resolved.version,
            machine_name,
            o,
            v,
            rec,
        );
        resp
    }

    /// Journal one advise answer's primary recommendation and attach its
    /// `prediction_id` to the response as an `X-Prediction-Id` header.
    /// Answers with no feasible recommendation journal nothing.
    #[allow(clippy::too_many_arguments)]
    fn journal_prediction(
        &self,
        resp: &mut Response,
        model: &str,
        version: u64,
        machine: &str,
        o: usize,
        v: usize,
        rec: Option<CachedRec>,
    ) {
        if let Some((nodes, tile, predicted_seconds)) = rec {
            // Shadow stage: journal the group's candidate (if one is in
            // Shadow) with the answer, so `/v1/observe` can score the
            // recommendation with it and credit the same measurement to
            // both windows. A lookup only: the score runs when the
            // measurement arrives, so no answer path — the event loop's
            // included — runs a model here. Timed as its own advise stage.
            let shadow_started = Instant::now();
            let shadow = self.lifecycle.shadow_candidate(model, machine);
            self.metrics
                .observe(ADVISE_STAGES[AdviseStage::Shadow as usize], shadow_started.elapsed());
            let id = self.quality.record_prediction_with_shadow(
                model,
                version,
                machine,
                (o, v, nodes, tile),
                predicted_seconds,
                shadow,
            );
            resp.headers.push(("X-Prediction-Id", id.to_string()));
        }
    }

    /// `POST /v1/observe`: match one measured runtime back to its
    /// journaled prediction. Parsing is deliberately strict — a quality
    /// feed polluted by sloppy clients is worse than none — so unknown
    /// keys, duplicate keys, non-integer ids, and non-positive
    /// measurements are all structured 4xx, and none of them touch the
    /// rolling statistics.
    fn observe(&self, body: &[u8]) -> Response {
        let reject = |metrics: &Metrics, status: u16, msg: &str| {
            metrics.inc(OBSERVATIONS[Intake::Rejected as usize]);
            error(status, msg)
        };
        let parsed = match parse_body(body) {
            Ok(v) => v,
            Err(resp) => {
                self.metrics.inc(OBSERVATIONS[Intake::Rejected as usize]);
                return resp;
            }
        };
        let Json::Obj(ref obj_fields) = parsed else {
            return reject(&self.metrics, 400, "request body must be a JSON object");
        };
        // `Json::get` returns the first match, so duplicate keys need an
        // explicit scan: two `measured_seconds` values is a client bug to
        // report, not a tiebreak to guess at.
        for (i, (key, _)) in obj_fields.iter().enumerate() {
            if obj_fields.iter().skip(i + 1).any(|(other, _)| other == key) {
                return reject(&self.metrics, 400, &format!("duplicate key {key:?}"));
            }
            if key != "prediction_id" && key != "measured_seconds" {
                return reject(&self.metrics, 400, &format!("unknown key {key:?}"));
            }
        }
        let id = match parsed.get("prediction_id").and_then(Json::as_f64) {
            Some(f) if f.fract() == 0.0 && (1.0..=9_007_199_254_740_992.0).contains(&f) => f as u64,
            _ => {
                return reject(
                    &self.metrics,
                    400,
                    "\"prediction_id\" must be a positive integer (as issued in X-Prediction-Id)",
                )
            }
        };
        let Some(measured) = parsed.get("measured_seconds").and_then(Json::as_f64) else {
            return reject(&self.metrics, 400, "missing \"measured_seconds\" number");
        };
        match self.quality.observe(id, measured) {
            Ok(out) => {
                self.metrics.inc(OBSERVATIONS[Intake::Accepted as usize]);
                // Every accepted measurement drives the lifecycle loop:
                // shadow windows fill, retrain triggers fire, and shadow
                // candidates are judged — all before the response leaves.
                self.drive_lifecycle(&out, measured);
                Response::json(
                    200,
                    Json::obj([
                        ("prediction_id", Json::Num(id as f64)),
                        ("model", out.record.model.into()),
                        ("model_version", Json::Num(out.record.version as f64)),
                        ("machine", out.record.machine.into()),
                        ("residual_seconds", Json::Num(out.residual_seconds)),
                        ("ape", Json::Num(out.ape)),
                        ("window_mape", Json::Num(out.window_mape)),
                        ("drift_tripped", Json::Bool(out.drift_tripped)),
                        ("degraded", Json::Bool(out.degraded)),
                    ])
                    .encode(),
                )
            }
            Err(ObserveError::UnknownId) => reject(
                &self.metrics,
                404,
                &format!("prediction_id {id} is unknown (never issued, or evicted)"),
            ),
            Err(ObserveError::Replayed) => {
                reject(&self.metrics, 409, &format!("prediction_id {id} was already observed"))
            }
            Err(ObserveError::InvalidMeasurement) => {
                reject(&self.metrics, 400, "\"measured_seconds\" must be a finite positive number")
            }
        }
    }

    /// `GET /v1/quality`: the quality loop's state in one JSON document —
    /// build identity, journal occupancy, accept/reject counters, and
    /// per-(model, version, machine) rolling statistics.
    fn quality_report(&self) -> Response {
        let (version, git_sha, dirty) = build_info();
        let groups: Vec<Json> = self
            .quality
            .snapshot()
            .into_iter()
            .map(|g| {
                Json::obj([
                    ("model", g.model.into()),
                    ("version", Json::Num(g.version as f64)),
                    ("machine", g.machine.into()),
                    ("observations", Json::Num(g.stats.observations as f64)),
                    ("window", Json::Num(g.stats.window as f64)),
                    ("mape", Json::Num(g.stats.mape)),
                    ("bias_seconds", Json::Num(g.stats.bias_seconds)),
                    ("residual_p50", Json::Num(g.stats.residual_p50)),
                    ("residual_p90", Json::Num(g.stats.residual_p90)),
                    ("residual_p99", Json::Num(g.stats.residual_p99)),
                    ("calibration_ratio", Json::Num(g.stats.calibration_ratio)),
                    ("drift_trips", Json::Num(g.stats.drift_trips as f64)),
                    ("degraded", Json::Bool(g.stats.degraded)),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::obj([
                (
                    "build",
                    Json::obj([
                        ("version", version.into()),
                        ("git_sha", git_sha.into()),
                        ("dirty", dirty.into()),
                    ]),
                ),
                (
                    "journal",
                    Json::obj([
                        ("pending", Json::Num(self.quality.journal_len() as f64)),
                        ("capacity", Json::Num(self.quality.journal_capacity() as f64)),
                    ]),
                ),
                (
                    "observations",
                    Json::obj([
                        (
                            "accepted",
                            Json::Num(
                                self.metrics.count(OBSERVATIONS[Intake::Accepted as usize]) as f64
                            ),
                        ),
                        (
                            "rejected",
                            Json::Num(
                                self.metrics.count(OBSERVATIONS[Intake::Rejected as usize]) as f64
                            ),
                        ),
                    ]),
                ),
                ("groups", Json::Arr(groups)),
            ])
            .encode(),
        )
    }

    /// `GET /v1/quality/next_experiments`: configurations the active
    /// learner most wants measured, ranked by GP relative uncertainty.
    fn next_experiments_report(&self) -> Response {
        let plan = self.quality.next_experiments(10);
        let mut fields: Vec<(&'static str, Json)> = vec![("strategy", plan.strategy.into())];
        match plan.group {
            Some((model, version, machine)) => {
                fields.push(("model", model.into()));
                fields.push(("model_version", Json::Num(version as f64)));
                fields.push(("machine", machine.into()));
            }
            None => fields.push(("model", Json::Null)),
        }
        fields.push((
            "configs",
            Json::Arr(
                plan.configs
                    .into_iter()
                    .map(|c| {
                        Json::obj([
                            ("o", c.o.into()),
                            ("v", c.v.into()),
                            ("nodes", c.nodes.into()),
                            ("tile", c.tile.into()),
                            ("score", Json::Num(c.score)),
                        ])
                    })
                    .collect(),
            ),
        ));
        match plan.reason {
            Some(reason) => fields.push(("reason", reason.into())),
            None => fields.push(("reason", Json::Null)),
        }
        Response::json(200, Json::obj(fields).encode())
    }

    /// Feed one accepted observation through the lifecycle loop: credit
    /// the shadow window, fire retrain triggers, and judge the shadow
    /// candidate against the serving window the measurement just updated.
    fn drive_lifecycle(&self, out: &ObserveOutcome, measured_seconds: f64) {
        let model = out.record.model.as_str();
        let machine = out.record.machine.as_str();
        if let Some(handle) = &out.record.shadow {
            let r = &out.record;
            let features = [r.o as f64, r.v as f64, r.nodes as f64, r.tile as f64];
            if let Some(shadow) = self.lifecycle.score_shadow(model, machine, handle, &features) {
                self.lifecycle.record_shadow(model, machine, shadow, measured_seconds);
            }
        }
        // A drift trip always asks for a retrain; a full retained pool asks
        // too, and the hub spaces repeat pool triggers by `pool_trigger`
        // new observations.
        let reason = if out.drift_tripped {
            Some(RetrainReason::DriftTrip)
        } else if out.pool_len >= self.lifecycle.config().pool_trigger {
            Some(RetrainReason::PoolThreshold)
        } else {
            None
        };
        if let Some(reason) = reason {
            self.request_retrain(model, machine, out, reason);
        }
        match self.lifecycle.evaluate_shadow(model, machine, out.window_mape) {
            ShadowVerdict::Promote(ticket) => {
                if let Err(e) = self.execute_promotion(*ticket) {
                    obs::event!(
                        Level::Error,
                        "lifecycle.promote_failed",
                        model = model,
                        machine = machine,
                        error = e.as_str(),
                    );
                }
            }
            ShadowVerdict::Rejected | ShadowVerdict::KeepShadowing => {}
        }
    }

    /// Enqueue a retrain for the group that produced `out`, warm-started
    /// from the serving model. Skipped (not an error) when the registry has
    /// already moved past the version that produced the residuals; refusals
    /// from the hub (in-flight job, frozen group, thin pool, full queue)
    /// are logged and dropped.
    fn request_retrain(
        &self,
        model: &str,
        machine: &str,
        out: &ObserveOutcome,
        reason: RetrainReason,
    ) {
        let Ok(resolved) = self.registry.resolve(Some(model), None) else {
            return;
        };
        if resolved.version != out.record.version || resolved.machine != machine {
            return;
        }
        let rows = self.quality.retained_pool(model, resolved.version, machine);
        let request = RetrainRequest {
            model: model.to_string(),
            machine: machine.to_string(),
            parent_version: resolved.version,
            base: (*resolved.model).clone(),
            rows,
            observations: out.observations,
            reason,
        };
        if let Err(e) = self.lifecycle.request_retrain(request) {
            obs::event!(
                Level::Debug,
                "lifecycle.retrain_refused",
                model = model,
                machine = machine,
                reason = reason.label(),
                error = e.as_str(),
            );
        }
    }

    /// Swap a winning candidate into the registry and run the same
    /// freshness bookkeeping as a hot reload: demote stale cache entries,
    /// reset the staleness clock, and open a clean quality window (which
    /// also un-latches the drift detector) for the new generation.
    fn execute_promotion(&self, ticket: PromotionTicket) -> Result<u64, String> {
        let PromotionTicket {
            model,
            machine,
            candidate,
            lineage,
            shadow_mape,
            serving_mape,
            outcome,
        } = ticket;
        let version = self.registry.promote(&model, candidate)?;
        let demoted = self.cache.demote_model(&model, version);
        self.metrics.gauge_set(CACHE_ENTRIES, self.cache.len());
        self.metrics.mark_model_fresh();
        self.quality.register_group(&model, version, &machine);
        // Best-effort durability for file-backed models: write the promoted
        // candidate (lineage included) next to the serving artifact, so an
        // operator can pin or inspect the exact promoted generation.
        if let Some(path) =
            self.registry.list().into_iter().find(|i| i.name == model).and_then(|i| i.path)
        {
            if let Ok(resolved) = self.registry.resolve(Some(&model), None) {
                let sidecar = path.with_extension(format!("v{version}.ccgb"));
                if let Err(e) = save_gb_with_lineage(&sidecar, &resolved.model, &lineage) {
                    obs::event!(
                        Level::Warn,
                        "lifecycle.persist_failed",
                        model = model.as_str(),
                        path = sidecar.display().to_string(),
                        error = e.to_string(),
                    );
                }
            }
        }
        obs::event!(
            Level::Info,
            "lifecycle.promoted",
            model = model.as_str(),
            machine = machine.as_str(),
            version = version,
            outcome = outcome.label(),
            shadow_mape = shadow_mape,
            serving_mape = serving_mape,
            cache_demoted = demoted,
        );
        obs::flush();
        Ok(version)
    }

    /// Resolve the lifecycle group an operator request names: `model` and
    /// `machine` are both optional and default through the registry's
    /// usual resolution rules.
    fn resolve_group(&self, parsed: &Json) -> Result<(String, String), Response> {
        let name = parsed.get("model").and_then(Json::as_str);
        let machine = parsed.get("machine").and_then(Json::as_str);
        let resolved = self.registry.resolve(name, machine).map_err(|e| error(404, &e))?;
        Ok((resolved.name, resolved.machine))
    }

    /// Parse an operator body that may legitimately be empty.
    fn parse_operator_body(body: &[u8]) -> Result<Json, Response> {
        if body.is_empty() {
            return Ok(Json::Obj(Vec::new()));
        }
        parse_body(body)
    }

    /// `GET /v1/lifecycle`: every group's retrain/shadow/promote state,
    /// the trainer queue depth, and the loop's tuning knobs.
    fn lifecycle_report(&self) -> Response {
        let cfg = self.lifecycle.config();
        let groups: Vec<Json> = self
            .lifecycle
            .snapshot()
            .into_iter()
            .map(|g| {
                let lineage = match g.lineage {
                    Some(l) => Json::obj([
                        ("parent_version", Json::Num(l.parent_version as f64)),
                        ("train_rows", Json::Num(l.train_rows as f64)),
                        ("observed_rows", Json::Num(l.observed_rows as f64)),
                        ("fit_duration_ms", Json::Num(l.fit_duration_ms as f64)),
                        ("seed", Json::Num(l.seed as f64)),
                    ]),
                    None => Json::Null,
                };
                Json::obj([
                    ("model", g.model.into()),
                    ("machine", g.machine.into()),
                    ("state", g.state.label().into()),
                    ("frozen", g.frozen.into()),
                    ("retrains", Json::Num(g.retrains as f64)),
                    ("shadow_len", Json::Num(g.shadow_len as f64)),
                    ("shadow_mape", num_or_null(g.shadow_mape)),
                    ("lineage", lineage),
                    ("last_outcome", g.last_outcome.map(Json::from).unwrap_or(Json::Null)),
                ])
            })
            .collect();
        Response::json(
            200,
            Json::obj([
                ("queue_depth", Json::Num(self.lifecycle.queue_depth() as f64)),
                (
                    "config",
                    Json::obj([
                        ("min_shadow", cfg.min_shadow.into()),
                        ("max_shadow", cfg.max_shadow.into()),
                        ("guardband", Json::Num(cfg.guardband)),
                        ("pool_trigger", cfg.pool_trigger.into()),
                        ("extra_stages", cfg.extra_stages.into()),
                    ]),
                ),
                ("groups", Json::Arr(groups)),
            ])
            .encode(),
        )
    }

    /// `POST /v1/lifecycle/promote`: operator override — promote the
    /// current shadow candidate without waiting for the guardband.
    fn lifecycle_promote(&self, body: &[u8]) -> Response {
        let parsed = match Router::parse_operator_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let (model, machine) = match self.resolve_group(&parsed) {
            Ok(g) => g,
            Err(resp) => return resp,
        };
        let ticket = match self.lifecycle.force_promote(&model, &machine) {
            Ok(t) => t,
            Err(e) => return error(409, &e),
        };
        let shadow_mape = ticket.shadow_mape;
        match self.execute_promotion(ticket) {
            Ok(version) => Response::json(
                200,
                Json::obj([
                    ("model", model.into()),
                    ("machine", machine.into()),
                    ("version", Json::Num(version as f64)),
                    ("outcome", "operator".into()),
                    ("shadow_mape", num_or_null(shadow_mape)),
                ])
                .encode(),
            ),
            Err(e) => error(500, &e),
        }
    }

    /// `POST /v1/lifecycle/rollback`: restore the version displaced by the
    /// last promotion. Refused while a retrain is in flight (the candidate
    /// still owns the group) or when no promotion snapshot exists.
    fn lifecycle_rollback(&self, body: &[u8]) -> Response {
        let parsed = match Router::parse_operator_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let (model, machine) = match self.resolve_group(&parsed) {
            Ok(g) => g,
            Err(resp) => return resp,
        };
        if let Some(state @ (LifecycleState::Queued | LifecycleState::Training)) =
            self.lifecycle.group_state(&model, &machine)
        {
            return error(
                409,
                &format!("cannot roll back while a retrain is in flight (state {})", state.label()),
            );
        }
        let version = match self.registry.rollback(&model) {
            Ok(v) => v,
            Err(e) => return error(409, &e),
        };
        // The registry already swapped; a hub refusal here (a retrain that
        // raced in since the check above) only costs the state-machine
        // bookkeeping, never the serving path.
        if let Err(e) = self.lifecycle.mark_rolled_back(&model, &machine) {
            obs::event!(
                Level::Warn,
                "lifecycle.rollback_unrecorded",
                model = model.as_str(),
                machine = machine.as_str(),
                error = e.as_str(),
            );
        }
        let demoted = self.cache.demote_model(&model, version);
        self.metrics.gauge_set(CACHE_ENTRIES, self.cache.len());
        self.metrics.mark_model_fresh();
        self.quality.register_group(&model, version, &machine);
        obs::event!(
            Level::Info,
            "lifecycle.rolled_back",
            model = model.as_str(),
            machine = machine.as_str(),
            version = version,
            cache_demoted = demoted,
        );
        obs::flush();
        Response::json(
            200,
            Json::obj([
                ("model", model.into()),
                ("machine", machine.into()),
                ("version", Json::Num(version as f64)),
                ("outcome", "rolled-back".into()),
            ])
            .encode(),
        )
    }

    /// `POST /v1/lifecycle/freeze`: pin a group — no retrain triggers, no
    /// auto-promotion — until unfrozen with `{"frozen": false}`. An
    /// existing shadow keeps scoring so the operator can inspect it.
    fn lifecycle_freeze(&self, body: &[u8]) -> Response {
        let parsed = match Router::parse_operator_body(body) {
            Ok(v) => v,
            Err(resp) => return resp,
        };
        let frozen = match parsed.get("frozen") {
            None => true,
            Some(Json::Bool(b)) => *b,
            Some(_) => return error(400, "\"frozen\" must be a boolean"),
        };
        let (model, machine) = match self.resolve_group(&parsed) {
            Ok(g) => g,
            Err(resp) => return resp,
        };
        match self.lifecycle.set_frozen(&model, &machine, frozen) {
            Ok(was) => Response::json(
                200,
                Json::obj([
                    ("model", model.into()),
                    ("machine", machine.into()),
                    ("frozen", frozen.into()),
                    ("was_frozen", was.into()),
                ])
                .encode(),
            ),
            Err(e) => error(404, &e),
        }
    }
}

fn parse_body(body: &[u8]) -> Result<Json, Response> {
    let text =
        std::str::from_utf8(body).map_err(|_| error(400, "request body is not valid UTF-8"))?;
    Json::parse(text).map_err(|e| error(400, &format!("invalid JSON: {e}")))
}

fn rec_json(r: Recommendation) -> Json {
    Json::obj([
        ("nodes", r.nodes.into()),
        ("tile", r.tile.into()),
        ("predicted_seconds", Json::Num(r.predicted_seconds)),
        ("predicted_node_hours", Json::Num(r.predicted_node_hours)),
    ])
}

fn error(status: u16, message: &str) -> Response {
    Response::json(status, Json::obj([("error", message.into())]).encode())
}

/// The fields an advise request can carry, extracted either by the
/// zero-alloc fast scanner or from a parsed [`Json`] tree. Strings
/// borrow from the request body (fast path) or the tree (fallback).
struct AdviseFields<'a> {
    model: Option<&'a str>,
    machine: Option<&'a str>,
    o: Option<usize>,
    v: Option<usize>,
    goal: Option<&'a str>,
    budget: Option<f64>,
    deadline: Option<f64>,
}

/// An advise question validated, resolved and looked up in the cache:
/// everything its answer needs short of the answer itself. Built by
/// `Router::advise_probe`; `Router::answer_if_cached` answers from it
/// only on a hit, so a hit is probed exactly once.
struct AdviseProbe<'a> {
    resolved: ResolvedModel,
    /// The body's `machine` field; `None` means the model's machine.
    machine_field: Option<&'a str>,
    o: usize,
    v: usize,
    goal: &'a str,
    budget: Option<f64>,
    deadline: Option<f64>,
    /// The cached body and its journaled recommendation, on a hit.
    cached: Option<(Arc<str>, Option<CachedRec>)>,
    /// How long the cache lookup took: the `cache` advise stage.
    probe_time: Duration,
}

impl AdviseProbe<'_> {
    fn machine_name(&self) -> &str {
        self.machine_field.unwrap_or(&self.resolved.machine)
    }

    /// The cache key: everything the answer depends on. It borrows every
    /// string, so a warm hit allocates nothing for the key.
    fn key(&self) -> AdviseKeyRef<'_> {
        AdviseKeyRef {
            model: &self.resolved.name,
            version: self.resolved.version,
            machine: self.machine_name(),
            o: self.o,
            v: self.v,
            goal: self.goal,
            budget_bits: self.budget.map(f64::to_bits),
            deadline_bits: self.deadline.map(f64::to_bits),
        }
    }
}

/// [`Json::as_usize`] semantics applied to an already-scanned number.
fn num_as_usize(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0 && n <= u32::MAX as f64).then_some(n as usize)
}

/// Zero-alloc scan of the canonical advise body: a flat object whose
/// keys are a subset of `{o, v, goal, budget, deadline, model, machine}`
/// with escape-free string values. `None` ("fall back to the tree
/// parser") for anything else — unknown keys, duplicates, escapes,
/// wrongly-typed values — so every error path is decided by the parser
/// whose messages the API contract pins.
fn scan_advise(text: &str) -> Option<AdviseFields<'_>> {
    let mut sc = Scanner::new(text);
    sc.skip_ws();
    if !sc.eat(b'{') {
        return None;
    }
    let mut f = AdviseFields {
        model: None,
        machine: None,
        o: None,
        v: None,
        goal: None,
        budget: None,
        deadline: None,
    };
    let mut seen = 0u8;
    sc.skip_ws();
    if sc.eat(b'}') {
        return sc.at_end().then_some(f);
    }
    loop {
        sc.skip_ws();
        let key = sc.string()?;
        sc.skip_ws();
        if !sc.eat(b':') {
            return None;
        }
        sc.skip_ws();
        let bit: u8 = match key {
            "o" => 1,
            "v" => 2,
            "goal" => 4,
            "budget" => 8,
            "deadline" => 16,
            "model" => 32,
            "machine" => 64,
            _ => return None,
        };
        if seen & bit != 0 {
            // Duplicate keys: first-match semantics live in the tree parser.
            return None;
        }
        seen |= bit;
        match key {
            // A number that fails the `as_usize` contract leaves the
            // field `None`, exactly like the tree path's
            // `get("o").and_then(Json::as_usize)`.
            "o" => f.o = num_as_usize(sc.number()?),
            "v" => f.v = num_as_usize(sc.number()?),
            "goal" => f.goal = Some(sc.string()?),
            "budget" => f.budget = Some(sc.number()?),
            "deadline" => f.deadline = Some(sc.number()?),
            "model" => f.model = Some(sc.string()?),
            "machine" => f.machine = Some(sc.string()?),
            _ => unreachable!("key already matched above"),
        }
        sc.skip_ws();
        if sc.eat(b',') {
            continue;
        }
        if sc.eat(b'}') {
            break;
        }
        return None;
    }
    sc.at_end().then_some(f)
}

/// Zero-tree scan of the canonical predict body:
/// `{"rows": [{o, v, nodes, tile}, ...]}` with optional escape-free
/// `"model"`/`"machine"` strings. Returns the validated feature rows,
/// or `None` to fall back to the tree parser (which owns every error
/// message, including the rows-shape 400s).
type ScannedPredict<'a> = (Vec<[f64; 4]>, Option<&'a str>, Option<&'a str>);

fn scan_predict(text: &str) -> Option<ScannedPredict<'_>> {
    let mut sc = Scanner::new(text);
    sc.skip_ws();
    if !sc.eat(b'{') {
        return None;
    }
    let mut rows = None;
    let mut model = None;
    let mut machine = None;
    let mut seen = 0u8;
    sc.skip_ws();
    if sc.eat(b'}') {
        return None;
    }
    loop {
        sc.skip_ws();
        let key = sc.string()?;
        sc.skip_ws();
        if !sc.eat(b':') {
            return None;
        }
        sc.skip_ws();
        let bit: u8 = match key {
            "rows" => 1,
            "model" => 2,
            "machine" => 4,
            _ => return None,
        };
        if seen & bit != 0 {
            return None;
        }
        seen |= bit;
        match key {
            "rows" => rows = Some(scan_rows(&mut sc)?),
            "model" => model = Some(sc.string()?),
            "machine" => machine = Some(sc.string()?),
            _ => unreachable!("key already matched above"),
        }
        sc.skip_ws();
        if sc.eat(b',') {
            continue;
        }
        if sc.eat(b'}') {
            break;
        }
        return None;
    }
    if !sc.at_end() {
        return None;
    }
    let rows = rows?;
    if rows.is_empty() || rows.len() > MAX_PREDICT_ROWS {
        return None;
    }
    Some((rows, model, machine))
}

fn scan_rows(sc: &mut Scanner<'_>) -> Option<Vec<[f64; 4]>> {
    if !sc.eat(b'[') {
        return None;
    }
    let mut rows = Vec::new();
    sc.skip_ws();
    if sc.eat(b']') {
        return Some(rows);
    }
    loop {
        sc.skip_ws();
        rows.push(scan_row(sc)?);
        if rows.len() > MAX_PREDICT_ROWS {
            return None;
        }
        sc.skip_ws();
        if sc.eat(b',') {
            continue;
        }
        if sc.eat(b']') {
            return Some(rows);
        }
        return None;
    }
}

/// One feature object with exactly the keys `o`, `v`, `nodes`, `tile`
/// (any order, each once) and positive finite number values — the shape
/// the tree path accepts without a 400. Anything else falls back.
fn scan_row(sc: &mut Scanner<'_>) -> Option<[f64; 4]> {
    if !sc.eat(b'{') {
        return None;
    }
    let mut row = [0.0f64; 4];
    let mut seen = 0u8;
    sc.skip_ws();
    if sc.eat(b'}') {
        return None;
    }
    loop {
        sc.skip_ws();
        let key = sc.string()?;
        sc.skip_ws();
        if !sc.eat(b':') {
            return None;
        }
        sc.skip_ws();
        let idx = match key {
            "o" => 0,
            "v" => 1,
            "nodes" => 2,
            "tile" => 3,
            _ => return None,
        };
        if seen & (1 << idx) != 0 {
            return None;
        }
        seen |= 1 << idx;
        let n = sc.number()?;
        if n <= 0.0 {
            return None;
        }
        row[idx] = n;
        sc.skip_ws();
        if sc.eat(b',') {
            continue;
        }
        if sc.eat(b'}') {
            break;
        }
        return None;
    }
    (seen == 0b1111).then_some(row)
}

/// NaN-safe JSON number: JSON has no NaN literal, so a statistic that is
/// not yet available serializes as `null`.
fn num_or_null(v: f64) -> Json {
    if v.is_finite() {
        Json::Num(v)
    } else {
        Json::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chemcost_ml::flat::QUANT_REL_TOL;
    use chemcost_ml::gradient_boosting::GradientBoosting;
    use chemcost_ml::Regressor;
    use chemcost_sim::datagen::generate_dataset_sized;

    /// A router over one small model trained on simulated aurora data.
    fn test_router() -> Router {
        let machine = by_name("aurora").unwrap();
        let samples = generate_dataset_sized(&machine, 80, 7);
        let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
            0 => samples[i].o as f64,
            1 => samples[i].v as f64,
            2 => samples[i].nodes as f64,
            _ => samples[i].tile as f64,
        });
        let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
        let mut gb = GradientBoosting::new(20, 3, 0.2);
        gb.seed = 3;
        gb.fit(&x, &y).unwrap();
        let registry = Arc::new(ModelRegistry::new());
        registry.insert("gb", "aurora", gb);
        Router::new(registry)
    }

    fn post(router: &Router, path: &str, body: &str) -> Response {
        router.handle(&Request::new("POST", path, body.as_bytes()))
    }

    fn json_of(resp: &Response) -> Json {
        Json::parse(std::str::from_utf8(&resp.body).unwrap()).unwrap()
    }

    #[test]
    fn healthz_and_models() {
        let router = test_router();
        let resp = router.handle(&Request::new("GET", "/healthz", b""));
        assert_eq!(resp.status, 200);
        let resp = router.handle(&Request::new("GET", "/v1/models", b""));
        let v = json_of(&resp);
        let models = v.get("models").and_then(Json::as_array).unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].get("name").and_then(Json::as_str), Some("gb"));
    }

    #[test]
    fn predict_batch_matches_direct_model_call() {
        let router = test_router();
        let resp = post(
            &router,
            "/v1/predict",
            r#"{"rows": [{"o": 120, "v": 900, "nodes": 64, "tile": 24},
                         {"o": 60, "v": 500, "nodes": 16, "tile": 30}]}"#,
        );
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
        let v = json_of(&resp);
        let preds = v.get("predictions").and_then(Json::as_array).unwrap();
        assert_eq!(preds.len(), 2);

        // The served path runs the quantized flat traversal: within
        // QUANT_REL_TOL of the recursive model (routing is exact on these
        // integer features; only leaf rounding differs).
        let model = router.registry().resolve(Some("gb"), None).unwrap().model;
        let x = Matrix::from_fn(1, 4, |_, j| [120.0, 900.0, 64.0, 24.0][j]);
        let expect = model.predict(&x)[0];
        let got = preds[0].get("seconds").and_then(Json::as_f64).unwrap();
        assert!((got - expect).abs() <= QUANT_REL_TOL * (1.0 + expect.abs()));
        let nh = preds[0].get("node_hours").and_then(Json::as_f64).unwrap();
        assert!((nh - got * 64.0 / 3600.0).abs() < 1e-9);
    }

    #[test]
    fn a_predict_splits_only_while_it_is_the_sole_request() {
        let router = test_router();
        let m = &router.metrics;
        m.gauge_add(IN_FLIGHT, 1); // the calling request, as `handle_from` counts it
        assert!(router.alone());
        m.gauge_add(IN_FLIGHT, 1); // a second request in a handler
        assert!(!router.alone());
        m.gauge_add(IN_FLIGHT, -1);
        m.gauge_add(POOL_QUEUE_DEPTH, 1); // a request waiting for a worker
        assert!(!router.alone());
        m.gauge_add(POOL_QUEUE_DEPTH, -1);
        assert!(router.alone());
        m.gauge_add(IN_FLIGHT, -1);

        // Past the split threshold, both ways answer the same bytes.
        let rows: Vec<String> = (0..96)
            .map(|i| {
                let (o, v, nodes, tile) = (40 + i * 3, 300 + i * 11, 4 << (i % 6), 24 + i % 5 * 8);
                format!(r#"{{"o":{o},"v":{v},"nodes":{nodes},"tile":{tile}}}"#)
            })
            .collect();
        let body = format!(r#"{{"rows":[{}]}}"#, rows.join(","));
        let split = post(&router, "/v1/predict", &body);
        m.gauge_add(IN_FLIGHT, 1);
        let serial = post(&router, "/v1/predict", &body);
        m.gauge_add(IN_FLIGHT, -1);
        assert_eq!(split.status, 200, "{:?}", String::from_utf8_lossy(&split.body));
        assert_eq!(split.body, serial.body);
    }

    #[test]
    fn predict_fast_scan_and_tree_path_agree_byte_for_byte() {
        let router = test_router();
        // Canonical body: taken by the fast scanner.
        let fast = post(
            &router,
            "/v1/predict",
            r#"{"rows":[{"o":120,"v":900,"nodes":64,"tile":24},{"o":60,"v":500,"nodes":16,"tile":30}]}"#,
        );
        // Same request with an extra (ignored) key in a row: the scanner
        // rejects it, so this one rides the tree parser.
        let slow = post(
            &router,
            "/v1/predict",
            r#"{"rows":[{"o":120,"v":900,"nodes":64,"tile":24,"note":1},{"o":60,"v":500,"nodes":16,"tile":30}]}"#,
        );
        assert_eq!(fast.status, 200);
        assert_eq!(slow.status, 200);
        assert_eq!(fast.body.as_bytes(), slow.body.as_bytes());
    }

    #[test]
    fn advise_fast_scan_and_tree_path_agree() {
        let router = test_router();
        let fast = post(&router, "/v1/advise", r#"{"o":120,"v":900,"goal":"bq"}"#);
        // An ignored extra key forces the tree parser; the answer (modulo
        // the per-round-trip prediction id header) must match the cached
        // body the fast path produced.
        let slow = post(&router, "/v1/advise", r#"{"o":120,"v":900,"goal":"bq","x":1}"#);
        assert_eq!(fast.status, 200);
        assert_eq!(slow.status, 200);
        assert_eq!(fast.body.as_bytes(), slow.body.as_bytes());
    }

    #[test]
    fn fast_scanners_reject_noncanonical_shapes() {
        // Every one of these must fall back (None) so the tree parser
        // decides the semantics.
        for body in [
            "{\"o\": 1, \"v\": 2, \"goal\": \"st\\u0071\"}", // escaped string
            r#"{"o": 1, "o": 2, "v": 3}"#,                   // duplicate key
            r#"{"o": 1, "v": 2, "extra": true}"#,            // unknown key
            r#"{"o": "1", "v": 2}"#,                         // wrong type
            r#"[1, 2]"#,                                     // not an object
            r#"{"o": 1, "v": 2} trailing"#,                  // trailing garbage
            r#"{"o": 1e999, "v": 2}"#,                       // non-finite number
        ] {
            assert!(scan_advise(body).is_none(), "{body}");
        }
        for body in [
            r#"{"rows": []}"#,                                               // empty rows
            r#"{"rows": [{"o":1,"v":2,"nodes":3}]}"#,                        // missing tile
            r#"{"rows": [{"o":1,"v":2,"nodes":3,"tile":0}]}"#,               // non-positive
            r#"{"rows": [{"o":1,"v":2,"nodes":3,"tile":4,"tile":5}]}"#,      // duplicate
            r#"{"rows": [{"o":1,"v":2,"nodes":3,"tile":4}], "goal":"stq"}"#, // unknown key
        ] {
            assert!(scan_predict(body).is_none(), "{body}");
        }
    }

    #[test]
    fn fast_scan_extracts_same_fields_as_tree() {
        let body = r#" {"model":"gb","machine":"aurora","o":116,"v":840,"goal":"pareto","budget":12.5,"deadline":3600} "#;
        let f = scan_advise(body).expect("canonical body should fast-scan");
        let tree = Json::parse(body).unwrap();
        assert_eq!(f.model, tree.get("model").and_then(Json::as_str));
        assert_eq!(f.machine, tree.get("machine").and_then(Json::as_str));
        assert_eq!(f.o, tree.get("o").and_then(Json::as_usize));
        assert_eq!(f.v, tree.get("v").and_then(Json::as_usize));
        assert_eq!(f.goal, tree.get("goal").and_then(Json::as_str));
        assert_eq!(f.budget, tree.get("budget").and_then(Json::as_f64));
        assert_eq!(f.deadline, tree.get("deadline").and_then(Json::as_f64));

        // Fractional o: key present but not a usize — same as the tree's
        // as_usize returning None.
        let f = scan_advise(r#"{"o": 1.5, "v": 2}"#).unwrap();
        assert_eq!(f.o, None);
        assert_eq!(f.v, Some(2));
    }

    #[test]
    fn advise_matches_offline_advisor() {
        let router = test_router();
        let resp = post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "goal": "bq"}"#);
        assert_eq!(resp.status, 200, "{:?}", String::from_utf8_lossy(&resp.body));
        let v = json_of(&resp);
        assert_eq!(v.get("goal").and_then(Json::as_str), Some("BQ"));

        let model = router.registry().resolve(Some("gb"), None).unwrap().model;
        let advisor = Advisor::new(model.as_ref(), by_name("aurora").unwrap());
        let expect = advisor.answer_bq(120, 900).unwrap();
        let rec = v.get("recommendation").unwrap();
        assert_eq!(rec.get("nodes").and_then(Json::as_usize), Some(expect.nodes));
        assert_eq!(rec.get("tile").and_then(Json::as_usize), Some(expect.tile));
    }

    #[test]
    fn advise_pareto_returns_frontier() {
        let router = test_router();
        let resp = post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "goal": "pareto"}"#);
        let v = json_of(&resp);
        let frontier = v.get("frontier").and_then(Json::as_array).unwrap();
        assert!(!frontier.is_empty());
        // Frontier is seconds-ascending, node-hours-descending.
        let secs: Vec<f64> = frontier
            .iter()
            .map(|r| r.get("predicted_seconds").unwrap().as_f64().unwrap())
            .collect();
        assert!(secs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn malformed_and_invalid_requests_get_400() {
        let router = test_router();
        assert_eq!(post(&router, "/v1/predict", "{not json").status, 400);
        assert_eq!(post(&router, "/v1/predict", r#"{"rows": []}"#).status, 400);
        assert_eq!(
            post(&router, "/v1/predict", r#"{"rows": [{"o": 1, "v": 2, "nodes": 0, "tile": 4}]}"#)
                .status,
            400
        );
        assert_eq!(post(&router, "/v1/advise", r#"{"o": 120}"#).status, 400);
        assert_eq!(
            post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "goal": "??"}"#).status,
            400
        );
        assert_eq!(
            post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "machine": "summit"}"#).status,
            400
        );
    }

    #[test]
    fn unknown_routes_404_and_bad_methods_405() {
        let router = test_router();
        assert_eq!(router.handle(&Request::new("GET", "/nope", b"")).status, 404);
        assert_eq!(post(&router, "/v1/nope", "{}").status, 404);
        assert_eq!(router.handle(&Request::new("DELETE", "/healthz", b"")).status, 405);
    }

    #[test]
    fn unknown_model_404s() {
        let router = test_router();
        let resp = post(
            &router,
            "/v1/predict",
            r#"{"model": "ghost", "rows": [{"o":1,"v":2,"nodes":4,"tile":8}]}"#,
        );
        assert_eq!(resp.status, 404);
        assert_eq!(post(&router, "/v1/models/ghost/reload", "").status, 404);
    }

    #[test]
    fn metrics_reflect_traffic() {
        let router = test_router();
        router.handle(&Request::new("GET", "/healthz", b""));
        post(&router, "/v1/predict", "{bad");
        let resp = router.handle(&Request::new("GET", "/metrics", b""));
        assert_eq!(resp.status, 200);
        let text = String::from_utf8(resp.body.into_bytes()).unwrap();
        assert!(text.contains("chemcost_requests_total{route=\"healthz\"} 1"), "{text}");
        assert!(text.contains("chemcost_request_errors_total{route=\"predict\"} 1"), "{text}");
    }

    #[test]
    fn shutdown_sets_flag() {
        let router = test_router();
        assert!(!router.shutdown_requested());
        assert_eq!(post(&router, "/v1/shutdown", "").status, 200);
        assert!(router.shutdown_requested());
    }

    /// Scrape `/metrics` and pull one integer-valued series out of it.
    fn scrape(router: &Router, series: &str) -> u64 {
        let resp = router.handle(&Request::new("GET", "/metrics", b""));
        let text = String::from_utf8(resp.body.into_bytes()).unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix(&format!("{series} ")))
            .unwrap_or_else(|| panic!("series {series} missing from:\n{text}"))
            .parse()
            .unwrap()
    }

    #[test]
    fn advise_cache_warm_answers_identical_to_cold() {
        let router = test_router();
        let body = r#"{"o": 120, "v": 900, "goal": "stq", "budget": 2.5, "deadline": 40.0}"#;
        let cold = post(&router, "/v1/advise", body);
        assert_eq!(cold.status, 200);
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 1);
        assert_eq!(scrape(&router, "chemcost_advise_cache_hits_total"), 0);
        assert_eq!(scrape(&router, "chemcost_advise_cache_entries"), 1);

        let warm = post(&router, "/v1/advise", body);
        assert_eq!(warm.status, 200);
        assert_eq!(warm.body, cold.body, "warm answer must be byte-identical to cold");
        assert_eq!(scrape(&router, "chemcost_advise_cache_hits_total"), 1);
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 1);

        // A different question is its own cache line.
        let other = post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "goal": "bq"}"#);
        assert_eq!(other.status, 200);
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 2);
        assert_eq!(scrape(&router, "chemcost_advise_cache_entries"), 2);

        // Invalid requests never touch the cache.
        assert_eq!(
            post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "goal": "??"}"#).status,
            400
        );
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 2);
    }

    /// A file-backed router (reload has something to re-read) plus the
    /// training matrix/labels so tests can write new model generations.
    fn file_backed_router(tag: &str) -> (Router, std::path::PathBuf, Matrix, Vec<f64>) {
        let machine = by_name("aurora").unwrap();
        let samples = generate_dataset_sized(&machine, 80, 7);
        let x = Matrix::from_fn(samples.len(), 4, |i, j| match j {
            0 => samples[i].o as f64,
            1 => samples[i].v as f64,
            2 => samples[i].nodes as f64,
            _ => samples[i].tile as f64,
        });
        let y: Vec<f64> = samples.iter().map(|s| s.seconds).collect();
        let mut gb = GradientBoosting::new(20, 3, 0.2);
        gb.seed = 3;
        gb.fit(&x, &y).unwrap();
        let dir = std::env::temp_dir().join(format!("chemcost-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.ccgb");
        chemcost_ml::persist::save_gb(&path, &gb).unwrap();

        let registry = Arc::new(ModelRegistry::new());
        registry.load_file("gb", "aurora", &path).unwrap();
        (Router::new(registry), path, x, y)
    }

    #[test]
    fn reload_demotes_stale_cache_entries() {
        let (router, path, x, y) = file_backed_router("cache");

        let body = r#"{"o": 120, "v": 900, "goal": "stq"}"#;
        let v1 = post(&router, "/v1/advise", body);
        assert_eq!(v1.status, 200);
        assert_eq!(scrape(&router, "chemcost_advise_cache_entries"), 1);

        // Swap a differently-seeded model onto disk and hot-reload.
        let mut gb2 = GradientBoosting::new(20, 3, 0.2);
        gb2.seed = 11;
        gb2.fit(&x, &y).unwrap();
        chemcost_ml::persist::save_gb(&path, &gb2).unwrap();
        assert_eq!(post(&router, "/v1/models/gb/reload", "").status, 200);

        // The old answer is demoted, not dropped: it stays cached as an
        // overload fallback but is invisible to the normal probe.
        assert_eq!(scrape(&router, "chemcost_advise_cache_entries"), 1);

        // The next advise is a miss against the new version, not a stale hit.
        let hits_before = scrape(&router, "chemcost_advise_cache_hits_total");
        let v2 = post(&router, "/v1/advise", body);
        assert_eq!(v2.status, 200);
        assert_eq!(scrape(&router, "chemcost_advise_cache_hits_total"), hits_before);
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 2);
        let parsed = json_of(&v2);
        assert_eq!(parsed.get("model_version").and_then(Json::as_usize), Some(2));
        assert!(parsed.get("stale").is_none(), "fresh answer must not be stale-labelled");

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn overloaded_advise_serves_labelled_stale_answer() {
        let (router, path, x, y) = file_backed_router("stale");

        let body = r#"{"o": 120, "v": 900, "goal": "stq"}"#;
        assert_eq!(post(&router, "/v1/advise", body).status, 200);

        // Reload to v2 so the cached v1 answer demotes to stale.
        let mut gb2 = GradientBoosting::new(20, 3, 0.2);
        gb2.seed = 11;
        gb2.fit(&x, &y).unwrap();
        chemcost_ml::persist::save_gb(&path, &gb2).unwrap();
        assert_eq!(post(&router, "/v1/models/gb/reload", "").status, 200);

        // Simulate overload: the pool just shed a connection.
        router.metrics().record_shed();
        let resp = post(&router, "/v1/advise", body);
        assert_eq!(resp.status, 200);
        let parsed = json_of(&resp);
        assert_eq!(parsed.get("stale").and_then(Json::as_bool), Some(true));
        // The stale replay keeps the version it was computed against.
        assert_eq!(parsed.get("model_version").and_then(Json::as_usize), Some(1));
        assert_eq!(scrape(&router, "chemcost_advise_stale_served_total"), 1);

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    /// The event loop answers a request itself only when
    /// `answer_if_cached` does: a fresh cache hit with a canonical body.
    /// A probe that misses records nothing; a hit is counted once and is
    /// the worker's answer.
    #[test]
    fn only_fresh_canonical_cache_hits_answer_on_the_event_loop() {
        let (router, path, x, y) = file_backed_router("probe");
        let advise = |body: &str| Request::new("POST", "/v1/advise", body.as_bytes());
        let inline = |req: &Request| router.answer_if_cached(req, Instant::now());
        let body = r#"{"o": 120, "v": 900, "goal": "stq"}"#;
        let advise_total = "chemcost_requests_total{route=\"advise\"}";

        // A miss probes as nothing and leaves no trace: the worker
        // answers and counts it.
        assert!(inline(&advise(body)).is_none());
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 0);
        assert_eq!(scrape(&router, advise_total), 0);
        let cold = router.handle(&advise(body));
        assert_eq!(cold.status, 200);
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 1);

        // A hit is probed once and replayed from the probe.
        let warm = inline(&advise(body)).expect("a cached canonical question answers inline");
        assert_eq!((warm.status, &warm.body), (200, &cold.body));
        for header in ["X-Request-Id", "X-Prediction-Id"] {
            assert!(warm.headers.iter().any(|(name, _)| *name == header), "{header} missing");
        }
        assert_eq!(scrape(&router, "chemcost_advise_cache_hits_total"), 1);
        assert_eq!(scrape(&router, "chemcost_advise_cache_misses_total"), 1);
        assert_eq!(scrape(&router, advise_total), 2);

        // Predicts, other methods, non-canonical bodies (the same
        // question with an escape) and invalid questions go to a worker.
        let predict = r#"{"rows": [{"o": 120, "v": 900, "nodes": 64, "tile": 24}]}"#;
        assert!(inline(&Request::new("POST", "/v1/predict", predict.as_bytes())).is_none());
        assert!(inline(&Request::new("PUT", "/v1/advise", body.as_bytes())).is_none());
        assert!(inline(&advise(r#"{"o": 120, "v": 900, "goal": "st\u0071"}"#)).is_none());
        assert!(inline(&advise(r#"{"o": 120, "v": 900, "goal": "??"}"#)).is_none());
        assert_eq!(scrape(&router, advise_total), 2, "nothing above was counted");

        // A group with a candidate in shadow answers inline too: the
        // journal entry carries the candidate, which scores the answer
        // only when its measurement arrives.
        router.lifecycle().install_candidate(
            "gb",
            "aurora",
            (*router.registry().resolve(Some("gb"), None).unwrap().model).clone(),
            chemcost_ml::persist::Lineage {
                parent_version: 1,
                train_rows: 0,
                observed_rows: 0,
                fit_duration_ms: 0,
                seed: 0,
            },
        );
        let shadowed = inline(&advise(body)).expect("a shadowed group's hit answers inline");
        let id = shadowed.headers.iter().find(|(name, _)| *name == "X-Prediction-Id").unwrap();
        let rec = json_of(&cold).get("recommendation").cloned().unwrap();
        let measured = 1.25 * rec.get("predicted_seconds").and_then(Json::as_f64).unwrap();
        let observe = format!(r#"{{"prediction_id": {}, "measured_seconds": {measured}}}"#, id.1);
        assert_eq!(post(&router, "/v1/observe", &observe).status, 200);
        let group = &router.lifecycle().snapshot()[0];
        assert_eq!(group.shadow_len, 1, "the observe scored the shadow candidate");

        // After a reload the old answer is demoted: under overload a
        // worker serves it labelled stale, the loop never does.
        let mut gb2 = GradientBoosting::new(20, 3, 0.2);
        gb2.seed = 11;
        gb2.fit(&x, &y).unwrap();
        chemcost_ml::persist::save_gb(&path, &gb2).unwrap();
        assert_eq!(post(&router, "/v1/models/gb/reload", "").status, 200);
        router.metrics().record_shed();
        assert!(inline(&advise(body)).is_none());
        let stale = router.handle(&advise(body));
        assert_eq!(json_of(&stale).get("stale").and_then(Json::as_bool), Some(true));

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn failed_reload_keeps_serving_and_reports_last_good() {
        let (router, path, _x, _y) = file_backed_router("swr");
        std::fs::write(&path, b"garbage, not a model").unwrap();

        let resp = post(&router, "/v1/models/gb/reload", "");
        assert_eq!(resp.status, 500);
        let parsed = json_of(&resp);
        assert!(parsed.get("error").is_some());
        assert_eq!(parsed.get("serving_model").and_then(Json::as_str), Some("gb"));
        assert_eq!(parsed.get("serving_version").and_then(Json::as_usize), Some(1));

        // The service still answers from the last-good model...
        let ok = post(&router, "/v1/advise", r#"{"o": 120, "v": 900, "goal": "stq"}"#);
        assert_eq!(ok.status, 200);
        assert_eq!(json_of(&ok).get("model_version").and_then(Json::as_usize), Some(1));
        // ...and the staleness instruments are live.
        assert_eq!(scrape(&router, "chemcost_model_reload_failures_total"), 1);
        assert!(router.metrics().model_staleness_seconds() >= 0.0);

        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    fn with_deadline(path: &str, body: &str, deadline: &str) -> Request {
        let mut req = Request::new("POST", path, body.as_bytes());
        req.headers.insert("x-deadline-ms".to_string(), deadline.to_string());
        req
    }

    #[test]
    fn bad_deadline_headers_get_structured_400() {
        let router = test_router();
        let body = r#"{"o": 120, "v": 900, "goal": "stq"}"#;
        for bad in ["0", "-5", "banana", "18446744073709551616", "500, 9000", ""] {
            let resp = router.handle(&with_deadline("/v1/advise", body, bad));
            assert_eq!(resp.status, 400, "deadline {bad:?}");
            assert!(json_of(&resp).get("error").is_some(), "deadline {bad:?}");
        }
        // A generous valid deadline passes through untouched.
        let resp = router.handle(&with_deadline("/v1/advise", body, "60000"));
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn queue_expired_budget_is_504_at_dequeue() {
        let router = test_router();
        let req = with_deadline("/v1/advise", r#"{"o": 120, "v": 900, "goal": "stq"}"#, "10");
        // The request "arrived" 50 ms ago with a 10 ms budget: it spent
        // its whole deadline in the queue.
        let arrived = Instant::now() - Duration::from_millis(50);
        let resp = router.handle_from(&req, arrived);
        assert_eq!(resp.status, 504);
        let parsed = json_of(&resp);
        assert_eq!(parsed.get("error").and_then(Json::as_str), Some("deadline exceeded"));
        assert_eq!(parsed.get("stage").and_then(Json::as_str), Some("queue"));
        assert_eq!(parsed.get("deadline_ms").and_then(Json::as_usize), Some(10));
        assert_eq!(scrape(&router, "chemcost_deadline_exceeded_total{stage=\"queue\"}"), 1);
    }

    #[test]
    fn health_and_slo_routes_answer_disabled_before_install() {
        let router = test_router();
        let resp = router.handle(&Request::new("GET", "/v1/health", b""));
        assert_eq!(resp.status, 200);
        assert_eq!(json_of(&resp).get("status").and_then(Json::as_str), Some("disabled"));
        let resp = router.handle(&Request::new("GET", "/debug/slo", b""));
        assert_eq!(resp.status, 200);
        assert_eq!(json_of(&resp).get("status").and_then(Json::as_str), Some("disabled"));
        // The route is tracked under its own label.
        assert_eq!(scrape(&router, "chemcost_requests_total{route=\"health\"}"), 1);
    }

    #[test]
    fn health_route_serves_the_installed_hub() {
        let router = test_router();
        let sampler = crate::health_bridge::MetricsSampler::new(router.metrics());
        let config = chemcost_health::HealthConfig {
            slos: crate::health_bridge::builtin_slos(),
            ..Default::default()
        };
        let hub = Arc::new(chemcost_health::HealthHub::new(Arc::clone(sampler.schema()), &config));
        router.install_health(Arc::clone(&hub));
        let resp = router.handle(&Request::new("GET", "/v1/health", b""));
        assert_eq!(resp.status, 200, "no scrapes yet: nothing can be firing");
        let v = json_of(&resp);
        assert_eq!(v.get("status").and_then(Json::as_str), Some("ok"));
        let slos = v.get("slos").and_then(Json::as_array).unwrap();
        assert_eq!(slos.len(), crate::health_bridge::builtin_slos().len());
        let resp = router.handle(&Request::new("GET", "/debug/slo", b""));
        let v = json_of(&resp);
        assert!(v.get("ring").is_some());
        assert_eq!(v.get("slos").and_then(Json::as_array).unwrap().len(), slos.len());
    }

    #[test]
    fn debug_requests_passes_query_filters_through() {
        let router = test_router();
        let resp =
            router.handle(&Request::new("GET", "/debug/requests?since_us=12345&route=advise", b""));
        assert_eq!(resp.status, 200);
        let v = json_of(&resp);
        assert_eq!(v.get("since_us").and_then(Json::as_usize), Some(12345));
        assert_eq!(v.get("recent").and_then(Json::as_array).map(|a| a.len()), Some(0));
        // Unparsable since_us degrades to 0 rather than erroring.
        let resp = router.handle(&Request::new("GET", "/debug/requests?since_us=banana", b""));
        assert_eq!(resp.status, 200);
        assert_eq!(json_of(&resp).get("since_us").and_then(Json::as_usize), Some(0));
    }

    #[test]
    fn default_deadline_applies_when_header_absent() {
        let router = test_router().with_default_deadline_ms(Some(10));
        let req = Request::new("POST", "/v1/advise", br#"{"o": 120, "v": 900, "goal": "stq"}"#);
        let arrived = Instant::now() - Duration::from_millis(50);
        let resp = router.handle_from(&req, arrived);
        assert_eq!(resp.status, 504);
        // An explicit header beats the default.
        let generous =
            with_deadline("/v1/advise", r#"{"o": 120, "v": 900, "goal": "stq"}"#, "60000");
        assert_eq!(router.handle_from(&generous, arrived).status, 200);
    }
}
