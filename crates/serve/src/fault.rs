//! Deterministic fault-injection plane for chaos testing the service.
//!
//! A [`FaultPlane`] makes seeded, reproducible per-request decisions
//! about whether to inject one of five faults:
//!
//! * **slow-io** — sleep before reading a request, simulating a stalled
//!   disk or a slow-loris client;
//! * **drop-conn** — close the socket after writing only part of the
//!   response, simulating a mid-flight network failure;
//! * **truncate-body** — end the request stream early, simulating a
//!   client that died while uploading;
//! * **saturate** — treat the worker-pool queue as full, forcing the
//!   `503` shed path;
//! * **poison-reload** — make a model reload fail as if the file on
//!   disk were corrupt, exercising the last-good stale-while-revalidate
//!   path.
//!
//! Decisions come from a counter-based hash (SplitMix64 over
//! `(seed, kind, nth-call)`): the *n*-th roll for a given fault kind is
//! a pure function of the seed, so a failing chaos run replays exactly
//! by re-running with the same `CHEMCOST_CHAOS_SEED`. Each kind has its
//! own counter, so interleaving between kinds never perturbs another
//! kind's decision stream.
//!
//! The plane is **opt-in only**: the server holds an
//! `Option<Arc<FaultPlane>>` that is `None` unless `chemcost serve
//! --chaos <profile>` (or the builder API in tests) installed one, so
//! the default request path pays a single null check and all injection
//! logic stays in this module, out of the hot loop.

use crate::metrics::{Metrics, FAULTS_INJECTED};
use parking_lot::RwLock;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Environment variable that seeds the fault plane's decision stream.
pub const CHAOS_SEED_ENV: &str = "CHEMCOST_CHAOS_SEED";

/// Default decision seed when [`CHAOS_SEED_ENV`] is unset.
pub const DEFAULT_CHAOS_SEED: u64 = 42;

/// The injectable fault kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sleep before reading the request.
    SlowIo,
    /// Drop the connection mid-response.
    DropConn,
    /// Truncate the request stream early.
    TruncateBody,
    /// Pretend the pool queue is full (shed with 503).
    Saturate,
    /// Fail a model reload as if the file were corrupt.
    PoisonReload,
}

impl FaultKind {
    /// Every kind, in metrics label order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::SlowIo,
        FaultKind::DropConn,
        FaultKind::TruncateBody,
        FaultKind::Saturate,
        FaultKind::PoisonReload,
    ];

    /// The Prometheus `kind` label values, indexed by `kind as usize`.
    pub const LABELS: [&'static str; 5] =
        ["slow-io", "drop-conn", "truncate-body", "saturate", "poison-reload"];

    /// The Prometheus `kind` label value.
    pub fn label(self) -> &'static str {
        FaultKind::LABELS[self as usize]
    }
}

/// A named chaos profile selectable with `chemcost serve --chaos`.
///
/// Each profile enables one fault kind at a rate tuned so a short soak
/// sees plenty of injections without starving legitimate traffic
/// (`all` enables every kind at a milder rate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProfile {
    /// 25% of requests read slowly (+25 ms).
    SlowIo,
    /// 15% of responses are cut off mid-write.
    DropConn,
    /// 15% of request streams end early.
    TruncateBody,
    /// 25% of accepts are shed as if the queue were full.
    Saturate,
    /// 50% of reloads fail as if the model file were corrupt.
    PoisonReload,
    /// Every fault kind at a mild rate.
    All,
}

impl ChaosProfile {
    /// Parse a `--chaos` value.
    pub fn parse(s: &str) -> Option<ChaosProfile> {
        match s {
            "slow-io" => Some(ChaosProfile::SlowIo),
            "drop-conn" => Some(ChaosProfile::DropConn),
            "truncate-body" => Some(ChaosProfile::TruncateBody),
            "saturate" => Some(ChaosProfile::Saturate),
            "poison-reload" => Some(ChaosProfile::PoisonReload),
            "all" => Some(ChaosProfile::All),
            _ => None,
        }
    }

    /// The `--chaos` spelling of this profile.
    pub fn name(self) -> &'static str {
        match self {
            ChaosProfile::SlowIo => "slow-io",
            ChaosProfile::DropConn => "drop-conn",
            ChaosProfile::TruncateBody => "truncate-body",
            ChaosProfile::Saturate => "saturate",
            ChaosProfile::PoisonReload => "poison-reload",
            ChaosProfile::All => "all",
        }
    }

    /// The accepted `--chaos` values, for error messages.
    pub const NAMES: &'static str = "slow-io|drop-conn|truncate-body|saturate|poison-reload|all";
}

/// Builder for a [`FaultPlane`] — the test-side API; production code
/// goes through [`FaultPlane::from_profile`].
#[derive(Debug, Clone)]
pub struct FaultPlaneBuilder {
    seed: u64,
    rates: [f64; 5],
    slow_io_delay: Duration,
    truncate_after: usize,
}

impl Default for FaultPlaneBuilder {
    fn default() -> Self {
        FaultPlaneBuilder {
            seed: seed_from_env(),
            rates: [0.0; 5],
            slow_io_delay: Duration::from_millis(25),
            truncate_after: 40,
        }
    }
}

impl FaultPlaneBuilder {
    /// Override the decision seed (defaults to [`CHAOS_SEED_ENV`] or
    /// [`DEFAULT_CHAOS_SEED`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Inject `kind` on this fraction of rolls (clamped to `[0, 1]`).
    pub fn rate(mut self, kind: FaultKind, rate: f64) -> Self {
        self.rates[kind as usize] = rate.clamp(0.0, 1.0);
        self
    }

    /// How long a slow-io injection sleeps.
    pub fn slow_io_delay(mut self, delay: Duration) -> Self {
        self.slow_io_delay = delay;
        self
    }

    /// How many request bytes a truncate-body injection lets through.
    pub fn truncate_after(mut self, bytes: usize) -> Self {
        self.truncate_after = bytes;
        self
    }

    /// Finish building.
    pub fn build(self) -> FaultPlane {
        FaultPlane {
            seed: self.seed,
            thresholds: self.rates.map(rate_to_threshold),
            slow_io_delay: self.slow_io_delay,
            truncate_after: self.truncate_after,
            counters: Default::default(),
            injected: Default::default(),
            metrics: RwLock::new(None),
        }
    }
}

/// Read the decision seed from the environment.
fn seed_from_env() -> u64 {
    std::env::var(CHAOS_SEED_ENV).ok().and_then(|v| v.parse().ok()).unwrap_or(DEFAULT_CHAOS_SEED)
}

/// Map a probability to a u64 comparison threshold.
fn rate_to_threshold(rate: f64) -> u64 {
    if rate >= 1.0 {
        u64::MAX
    } else if rate <= 0.0 {
        0
    } else {
        (rate * u64::MAX as f64) as u64
    }
}

/// SplitMix64: the decision hash. Statistically uniform, trivially
/// reproducible, and stateless given `(seed, kind, n)`.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic fault-injection plane. See the module docs.
pub struct FaultPlane {
    seed: u64,
    /// Per-kind injection thresholds (`hash < threshold` ⇒ inject).
    thresholds: [u64; 5],
    slow_io_delay: Duration,
    truncate_after: usize,
    /// Per-kind roll counters: the n-th roll of a kind is a pure
    /// function of `(seed, kind, n)`.
    counters: [AtomicU64; 5],
    /// Per-kind injection tallies (also mirrored into [`Metrics`] when
    /// bound).
    injected: [AtomicU64; 5],
    metrics: RwLock<Option<Arc<Metrics>>>,
}

impl FaultPlane {
    /// Start building a custom plane (tests).
    pub fn builder() -> FaultPlaneBuilder {
        FaultPlaneBuilder::default()
    }

    /// The plane for a named `--chaos` profile, seeded from the
    /// environment ([`CHAOS_SEED_ENV`]).
    pub fn from_profile(profile: ChaosProfile) -> FaultPlane {
        let b = FaultPlane::builder();
        match profile {
            ChaosProfile::SlowIo => b.rate(FaultKind::SlowIo, 0.25),
            ChaosProfile::DropConn => b.rate(FaultKind::DropConn, 0.15),
            ChaosProfile::TruncateBody => b.rate(FaultKind::TruncateBody, 0.15),
            ChaosProfile::Saturate => b.rate(FaultKind::Saturate, 0.25),
            ChaosProfile::PoisonReload => b.rate(FaultKind::PoisonReload, 0.5),
            ChaosProfile::All => FaultKind::ALL
                .iter()
                .fold(b, |b, &kind| b.rate(kind, 0.08))
                .rate(FaultKind::PoisonReload, 0.5),
        }
        .build()
    }

    /// Mirror injections into `metrics`
    /// (`chemcost_faults_injected_total{kind=…}`).
    pub fn bind_metrics(&self, metrics: Arc<Metrics>) {
        *self.metrics.write() = Some(metrics);
    }

    /// The decision seed in use.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Roll the dice for `kind`: deterministic given the seed and how
    /// many times this kind has been rolled before. On injection the
    /// tally (and bound metrics counter) is bumped and a `fault.inject`
    /// record is emitted.
    pub fn roll(&self, kind: FaultKind) -> bool {
        let threshold = self.thresholds[kind as usize];
        if threshold == 0 {
            return false;
        }
        let n = self.counters[kind as usize].fetch_add(1, Ordering::Relaxed);
        let h = splitmix(self.seed ^ splitmix(kind as u64 + 1).wrapping_add(n));
        let inject = h < threshold;
        if inject {
            self.injected[kind as usize].fetch_add(1, Ordering::Relaxed);
            if let Some(metrics) = &*self.metrics.read() {
                metrics.inc(FAULTS_INJECTED[kind as usize]);
            }
            chemcost_obs::event!(
                chemcost_obs::Level::Warn,
                "fault.inject",
                kind = kind.label(),
                nth_roll = n,
            );
        }
        inject
    }

    /// How many times `kind` has been injected.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize].load(Ordering::Relaxed)
    }

    /// Total injections across every kind.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The sleep a slow-io injection applies.
    pub fn slow_io_delay(&self) -> Duration {
        self.slow_io_delay
    }

    /// The request-byte budget a truncate-body injection enforces.
    pub fn truncate_after(&self) -> usize {
        self.truncate_after
    }
}

impl std::fmt::Debug for FaultPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlane")
            .field("seed", &self.seed)
            .field("injected_total", &self.injected_total())
            .finish_non_exhaustive()
    }
}

/// A reader that yields at most `budget` bytes before reporting EOF —
/// how a truncate-body injection makes the server see a client that
/// died mid-upload.
pub struct TruncatingReader<R> {
    inner: R,
    remaining: usize,
}

impl<R: Read> TruncatingReader<R> {
    /// Wrap `inner`, allowing `budget` bytes through.
    pub fn new(inner: R, budget: usize) -> TruncatingReader<R> {
        TruncatingReader { inner, remaining: budget }
    }
}

impl<R: Read> Read for TruncatingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.remaining == 0 {
            return Ok(0);
        }
        let cap = buf.len().min(self.remaining);
        let n = self.inner.read(&mut buf[..cap])?;
        self.remaining -= n;
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision_stream(plane: &FaultPlane, kind: FaultKind, n: usize) -> Vec<bool> {
        (0..n).map(|_| plane.roll(kind)).collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlane::builder().seed(7).rate(FaultKind::DropConn, 0.3).build();
        let b = FaultPlane::builder().seed(7).rate(FaultKind::DropConn, 0.3).build();
        assert_eq!(
            decision_stream(&a, FaultKind::DropConn, 200),
            decision_stream(&b, FaultKind::DropConn, 200)
        );
    }

    #[test]
    fn different_seeds_diverge() {
        let a = FaultPlane::builder().seed(1).rate(FaultKind::SlowIo, 0.5).build();
        let b = FaultPlane::builder().seed(2).rate(FaultKind::SlowIo, 0.5).build();
        assert_ne!(
            decision_stream(&a, FaultKind::SlowIo, 200),
            decision_stream(&b, FaultKind::SlowIo, 200)
        );
    }

    #[test]
    fn kinds_have_independent_streams() {
        // Rolling another kind in between must not perturb this kind's
        // decision sequence.
        let a = FaultPlane::builder()
            .seed(3)
            .rate(FaultKind::SlowIo, 0.4)
            .rate(FaultKind::Saturate, 0.4)
            .build();
        let b = FaultPlane::builder().seed(3).rate(FaultKind::SlowIo, 0.4).build();
        let mut interleaved = Vec::new();
        for _ in 0..100 {
            interleaved.push(a.roll(FaultKind::SlowIo));
            a.roll(FaultKind::Saturate);
        }
        assert_eq!(interleaved, decision_stream(&b, FaultKind::SlowIo, 100));
    }

    #[test]
    fn rates_are_roughly_honored() {
        let plane = FaultPlane::builder().seed(9).rate(FaultKind::Saturate, 0.25).build();
        let hits =
            decision_stream(&plane, FaultKind::Saturate, 4000).iter().filter(|&&b| b).count();
        assert!((700..1300).contains(&hits), "25% of 4000 ≈ 1000, got {hits}");
        assert_eq!(plane.injected(FaultKind::Saturate) as usize, hits);
        assert_eq!(plane.injected_total() as usize, hits);
    }

    #[test]
    fn zero_rate_never_fires_and_one_always_does() {
        let plane = FaultPlane::builder().seed(5).rate(FaultKind::DropConn, 1.0).build();
        assert!(decision_stream(&plane, FaultKind::DropConn, 50).iter().all(|&b| b));
        assert!(!decision_stream(&plane, FaultKind::SlowIo, 50).iter().any(|&b| b));
    }

    #[test]
    fn profiles_parse_round_trip() {
        for name in ["slow-io", "drop-conn", "truncate-body", "saturate", "poison-reload", "all"] {
            let p = ChaosProfile::parse(name).unwrap_or_else(|| panic!("parse {name}"));
            assert_eq!(p.name(), name);
        }
        assert!(ChaosProfile::parse("tornado").is_none());
    }

    #[test]
    fn injections_mirror_into_metrics() {
        let plane = FaultPlane::builder().seed(1).rate(FaultKind::PoisonReload, 1.0).build();
        let metrics = Arc::new(Metrics::new());
        plane.bind_metrics(Arc::clone(&metrics));
        assert!(plane.roll(FaultKind::PoisonReload));
        assert!(metrics
            .render()
            .contains("chemcost_faults_injected_total{kind=\"poison-reload\"} 1"));
    }

    #[test]
    fn truncating_reader_stops_at_budget() {
        let data = b"0123456789";
        let mut r = TruncatingReader::new(&data[..], 4);
        let mut out = Vec::new();
        r.read_to_end(&mut out).unwrap();
        assert_eq!(out, b"0123");
    }
}
