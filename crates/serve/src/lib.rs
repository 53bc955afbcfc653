//! `chemcost-serve` — advisor-as-a-service.
//!
//! A dependency-light HTTP/1.1 JSON daemon that answers the paper's
//! user questions (shortest-time, budget, Pareto menu) over the network
//! from a registry of trained gradient-boosting runtime models:
//!
//! - `POST /v1/predict` — batch `(o, v, nodes, tile)` rows → predicted
//!   seconds and node-hours
//! - `POST /v1/advise` — `(o, v, goal)` → the same `Recommendation`s the
//!   offline `chemcost advise` CLI prints
//! - `GET /v1/models`, `POST /v1/models/{name}/reload` — model registry
//!   with versions and hot reload
//! - `POST /v1/observe`, `GET /v1/quality`,
//!   `GET /v1/quality/next_experiments` — the model-quality loop: report
//!   measured runtimes against issued predictions, read rolling accuracy
//!   and drift state, and get active-learning-ranked configurations to
//!   measure next (see [`quality`])
//! - `GET /v1/lifecycle`, `POST /v1/lifecycle/{promote,rollback,freeze}`
//!   — the in-service model lifecycle: background retraining on drift,
//!   shadow scoring, guarded auto-promotion, and operator overrides
//!   (see [`chemcost_lifecycle`])
//! - `GET /healthz`, `GET /metrics` — liveness and Prometheus metrics
//! - `POST /v1/shutdown` — graceful drain-and-exit
//!
//! Built as an event-driven data plane (see [`event_loop`] and
//! `docs/SERVING.md`): one nonblocking epoll loop owns every socket —
//! HTTP/1.1 keep-alive and pipelining, bounded buffers, per-request
//! `503` shedding, and the replay of advise cache hits — while a bounded
//! worker pool ([`pool`]) runs every other handler, each scoring its own
//! model call on the worker that parsed the request (a predict splits
//! over the cores only while it is the sole request in flight), so under
//! load `--workers` is the daemon's compute parallelism. No external
//! HTTP or JSON dependencies.

pub mod cache;
pub mod client;
pub mod event_loop;
pub mod fault;
pub mod health_bridge;
pub mod http;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod quality;
pub mod registry;
pub mod routes;
pub mod timeline;

pub use cache::{AdviseCache, AdviseKey};
pub use chemcost_health::{parse_duration, parse_slo_file, sparkline, HealthConfig, HealthHub};
pub use client::{Client, ClientError, RetryPolicy};
pub use event_loop::{EventLoopConfig, DEFAULT_MAX_CONNS};
pub use fault::{ChaosProfile, FaultKind, FaultPlane, FaultPlaneBuilder};
pub use health_bridge::{builtin_slos, HealthHandle, MetricsSampler};
pub use metrics::Metrics;
pub use quality::{ObserveError, ObserveOutcome, QualityHub};
pub use registry::{ModelInfo, ModelRegistry, ResolvedModel};
pub use routes::{parse_deadline_ms, Deadline, Router};
pub use timeline::{CompletedTimeline, FlightRecorder};

use pool::ThreadPool;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

/// Idle keep-alive connections are closed after this long, so a silent
/// client cannot pin per-connection state forever.
const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A bound-but-not-yet-running server.
pub struct Server {
    listener: TcpListener,
    router: Router,
    workers: usize,
    queue_cap: usize,
    max_conns: usize,
    faults: Option<Arc<FaultPlane>>,
    health_config: Option<HealthConfig>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:8080"`, port 0 for ephemeral) and
    /// prepare `workers` handler threads. The connection queue defaults
    /// to `workers * 4`; override with [`Server::with_queue_cap`].
    pub fn bind(addr: &str, router: Router, workers: usize) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            listener,
            router,
            workers: workers.max(1),
            queue_cap: workers.max(1) * 4,
            max_conns: DEFAULT_MAX_CONNS,
            faults: None,
            health_config: Some(HealthConfig {
                slos: health_bridge::builtin_slos(),
                ..HealthConfig::default()
            }),
        })
    }

    /// Override the worker-pool compute queue capacity (`chemcost serve
    /// --queue-cap`). Requests beyond `workers` in-flight plus `cap`
    /// queued are answered `503` (the connection itself stays open).
    /// Clamped to at least 1.
    pub fn with_queue_cap(mut self, cap: usize) -> Server {
        self.queue_cap = cap.max(1);
        self
    }

    /// Override the open-connection budget (`chemcost serve
    /// --max-conns`). Accepts beyond it are shed with `503` + close.
    /// Clamped to at least 1.
    pub fn with_max_conns(mut self, max: usize) -> Server {
        self.max_conns = max.max(1);
        self
    }

    /// Install a fault-injection plane (`chemcost serve --chaos`, or the
    /// builder API in tests). Wires the plane into the registry (so
    /// reloads can be poisoned) and into metrics (so injections surface
    /// as `chemcost_faults_injected_total`). Without this call the
    /// request path pays only a null check.
    pub fn with_faults(mut self, plane: Arc<FaultPlane>) -> Server {
        plane.bind_metrics(Arc::clone(self.router.metrics()));
        self.router.registry().set_fault_plane(Arc::clone(&plane));
        self.faults = Some(plane);
        self
    }

    /// Override the health plane's tuning (`chemcost serve
    /// --scrape-interval-ms` / `--slo-file`). Built-in SLOs are on by
    /// default; pass a config with the desired `slos` list (typically
    /// [`health_bridge::builtin_slos`] plus parsed `--slo-file` rules).
    pub fn with_health(mut self, config: HealthConfig) -> Server {
        self.health_config = Some(config);
        self
    }

    /// Disable the health plane entirely (`/v1/health` then answers
    /// "disabled"). Benches use this to keep the sampler thread out of
    /// latency baselines they compare against older builds.
    pub fn without_health(mut self) -> Server {
        self.health_config = None;
        self
    }

    /// The effective compute queue capacity.
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// The effective open-connection budget.
    pub fn max_conns(&self) -> usize {
        self.max_conns
    }

    /// The address actually bound (resolves an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Run the event loop until `POST /v1/shutdown` arrives, then drain
    /// in-flight work (forcing `Connection: close` on every persistent
    /// connection) and return.
    pub fn run(self) -> std::io::Result<()> {
        let local_addr = self.listener.local_addr()?;
        let pool = ThreadPool::new(self.workers, self.queue_cap);
        let health = self
            .health_config
            .as_ref()
            .map(|config| health_bridge::start(&self.router, config.clone()));
        chemcost_obs::event!(
            chemcost_obs::Level::Info,
            "serve.start",
            addr = local_addr.to_string(),
            workers = self.workers,
            queue_cap = self.queue_cap,
            max_conns = self.max_conns,
        );
        let config = EventLoopConfig { max_conns: self.max_conns, idle_timeout: READ_TIMEOUT };
        let result =
            event_loop::run(self.listener, self.router.clone(), &pool, self.faults.clone(), config);
        // Drain order matters: join the workers (they may still queue
        // retrains), then stop the background trainer.
        pool.join();
        self.router.lifecycle().shutdown();
        if let Some(health) = health {
            health.stop();
        }
        chemcost_obs::event!(
            chemcost_obs::Level::Info,
            "serve.stop",
            addr = local_addr.to_string()
        );
        // Every in-flight request has been answered; push whatever the
        // buffered sinks are still holding (including the stop marker
        // above) to durable storage before the process exits.
        chemcost_obs::flush();
        result
    }
}
