//! In-service model lifecycle: background retraining, shadow scoring, and
//! guarded auto-promotion.
//!
//! PR 5 left a drift-tripped (model, machine) group latched *degraded* until
//! a human reloaded a new model file. This crate closes that loop inside the
//! serving daemon:
//!
//! 1. a **retraining trigger** (drift trip or observation-pool threshold)
//!    enqueues a retrain job for the group;
//! 2. a **background trainer** — one dedicated worker thread behind a
//!    bounded queue, at most one in-flight job per group — warm-starts a
//!    candidate [`GradientBoosting`] from the serving model's trees on the
//!    retained observations, compiles it to [`FlatGbt`], and records
//!    [`Lineage`] (parent version, row counts, fit duration, seed);
//! 3. a **shadow deploy** — the candidate silently scores its group's
//!    traffic into its own [`RollingQuality`] window while the serving
//!    model keeps answering (a journaled answer carries a
//!    [`ShadowHandle`] and is scored when its measurement arrives);
//! 4. **guarded auto-promotion** — once the shadow window reaches
//!    [`LifecycleConfig::min_shadow`] and shadow MAPE beats serving MAPE by
//!    [`LifecycleConfig::guardband`], the hub issues a [`PromotionTicket`]
//!    that the server executes against its model registry (atomic hot swap,
//!    cache eviction, drift un-latch), keeping the prior version for
//!    one-command rollback.
//!
//! The crate is deliberately server-agnostic: it never touches sockets,
//! registries, or Prometheus. Metrics flow out through the
//! [`LifecycleObserver`] trait, and promotion is a two-phase handshake (the
//! hub hands out a ticket; the caller performs the registry swap and then
//! journals the outcome), so the state machine stays testable in isolation.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::sync::{Arc, Weak};
use std::thread;
use std::time::Instant;

use chemcost_linalg::Matrix;
use chemcost_ml::flat::FlatGbt;
use chemcost_ml::gradient_boosting::GradientBoosting;
use chemcost_ml::monitor::RollingQuality;
use chemcost_ml::persist::Lineage;
use chemcost_ml::Regressor;
use chemcost_obs::{self as obs, Level};
use parking_lot::Mutex;

pub mod state;

pub use state::{is_valid_transition, LifecycleState, TRANSITIONS};

/// Feature vector of one retained observation: `[o, v, nodes, tile]`,
/// matching the serving feature layout of `chemcost-serve`.
pub type FeatureRow = [f64; 4];

/// Tuning knobs for the retrain/shadow/promote loop.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Minimum shadow-window observations before promotion is considered.
    pub min_shadow: usize,
    /// Shadow observations after which a candidate that still has not beaten
    /// the serving model by the guardband is rejected.
    pub max_shadow: usize,
    /// Absolute MAPE margin a shadow must win by: promotion requires
    /// `shadow_mape + guardband <= serving_mape`.
    pub guardband: f64,
    /// Retained-pool size that triggers a retrain even without a drift trip.
    /// Also the minimum number of *new* observations between two
    /// pool-triggered retrains of the same group.
    pub pool_trigger: usize,
    /// Boosting stages appended on top of the parent model's trees.
    pub extra_stages: usize,
    /// Depth cap for the appended stages. Registry-loaded models report
    /// `max_depth = 0` (leaf-only), so the trainer always overrides depth.
    pub max_depth: usize,
    /// Minimum retained rows required to accept a retrain request.
    pub min_retrain_rows: usize,
    /// Bounded trainer-queue capacity; excess requests are refused, not
    /// buffered.
    pub queue_cap: usize,
    /// Capacity of each candidate's shadow `RollingQuality` window.
    pub shadow_window: usize,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            min_shadow: 24,
            max_shadow: 96,
            guardband: 0.02,
            pool_trigger: 96,
            extra_stages: 80,
            max_depth: 4,
            min_retrain_rows: 16,
            queue_cap: 8,
            shadow_window: 128,
        }
    }
}

/// Why a retrain job was enqueued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainReason {
    /// The group's Page-Hinkley detector tripped.
    DriftTrip,
    /// The retained-observation pool crossed `pool_trigger`.
    PoolThreshold,
    /// Explicit operator request.
    Operator,
}

impl RetrainReason {
    /// Label used in events and JSON.
    pub fn label(self) -> &'static str {
        match self {
            RetrainReason::DriftTrip => "drift-trip",
            RetrainReason::PoolThreshold => "pool-threshold",
            RetrainReason::Operator => "operator",
        }
    }
}

/// Outcome recorded on `chemcost_lifecycle_promotions_total{outcome=...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionOutcome {
    /// Guarded auto-promotion: shadow beat serving by the guardband.
    Auto,
    /// Operator forced the promotion via the CLI.
    Operator,
    /// Candidate rejected (fit failure, poison, or guardband never met).
    Rejected,
    /// A promoted version was rolled back.
    RolledBack,
}

impl PromotionOutcome {
    /// Every outcome, in metric-registration order.
    pub const ALL: [PromotionOutcome; 4] = [
        PromotionOutcome::Auto,
        PromotionOutcome::Operator,
        PromotionOutcome::Rejected,
        PromotionOutcome::RolledBack,
    ];

    /// Metric labels, indexed by `outcome as usize`.
    pub const LABELS: [&'static str; 4] = ["auto", "operator", "rejected", "rolled-back"];

    /// Metric label for this outcome.
    pub fn label(self) -> &'static str {
        PromotionOutcome::LABELS[self as usize]
    }
}

/// Sink for lifecycle metrics; implemented by the server's metrics registry.
///
/// All methods default to no-ops so tests can pass a zero-sized observer.
pub trait LifecycleObserver: Send + Sync {
    /// Per-group state gauge changed (called on register and every
    /// transition).
    fn on_state(&self, model: &str, machine: &str, state: LifecycleState) {
        let _ = (model, machine, state);
    }
    /// A valid state transition happened.
    fn on_transition(&self, from: LifecycleState, to: LifecycleState) {
        let _ = (from, to);
    }
    /// Trainer queue depth changed.
    fn on_queue_depth(&self, depth: usize) {
        let _ = depth;
    }
    /// A candidate fit finished (success or failure); duration in seconds.
    fn on_fit_duration(&self, seconds: f64) {
        let _ = seconds;
    }
    /// A promotion decision was reached.
    fn on_promotion(&self, outcome: PromotionOutcome) {
        let _ = outcome;
    }
}

/// Observer that drops everything; used by [`LifecycleHub::new`].
#[derive(Debug, Default)]
pub struct NullObserver;

impl LifecycleObserver for NullObserver {}

/// A retrain job handed to [`LifecycleHub::request_retrain`].
pub struct RetrainRequest {
    /// Registry model name.
    pub model: String,
    /// Machine the group serves.
    pub machine: String,
    /// Registry version of the serving model the candidate warm-starts from.
    pub parent_version: u64,
    /// Snapshot of the serving model (cloned trees are the warm start).
    pub base: GradientBoosting,
    /// Retained observations: feature row plus measured seconds.
    pub rows: Vec<(FeatureRow, f64)>,
    /// Cumulative observation count for the group, used to space
    /// pool-triggered retrains.
    pub observations: u64,
    /// Why this retrain fired.
    pub reason: RetrainReason,
}

/// Handed out by [`LifecycleHub::evaluate_shadow`] / [`LifecycleHub::force_promote`]
/// when a candidate wins; the caller swaps it into the registry.
pub struct PromotionTicket {
    /// Registry model name.
    pub model: String,
    /// Machine the group serves.
    pub machine: String,
    /// The winning candidate, ready for `ModelRegistry::promote`.
    pub candidate: GradientBoosting,
    /// Lineage recorded at fit time.
    pub lineage: Lineage,
    /// Shadow-window MAPE at promotion time.
    pub shadow_mape: f64,
    /// Serving-window MAPE the shadow was judged against.
    pub serving_mape: f64,
    /// `Auto` or `Operator`.
    pub outcome: PromotionOutcome,
}

/// The candidate a group had in shadow when an answer was journaled.
/// [`LifecycleHub::score_shadow`] scores the answer with it once the
/// measurement arrives, so the answer path itself runs no model. The
/// handle is weak: it keeps no rejected or promoted candidate alive, and
/// once the candidate is gone nothing is left to credit.
#[derive(Debug, Clone)]
pub struct ShadowHandle(Weak<FlatGbt>);

/// Verdict from [`LifecycleHub::evaluate_shadow`].
pub enum ShadowVerdict {
    /// Not enough evidence yet — keep shadow-scoring.
    KeepShadowing,
    /// The candidate won; execute the ticket against the registry.
    Promote(Box<PromotionTicket>),
    /// The candidate exhausted `max_shadow` without beating the guardband.
    Rejected,
}

/// Point-in-time view of one group, shaped for `GET /v1/lifecycle`.
#[derive(Debug, Clone)]
pub struct GroupLifecycle {
    /// Registry model name.
    pub model: String,
    /// Machine the group serves.
    pub machine: String,
    /// Current state.
    pub state: LifecycleState,
    /// Whether operator froze the group (no retrains, no auto-promotion).
    pub frozen: bool,
    /// Retrain jobs enqueued over the group's lifetime.
    pub retrains: u64,
    /// Shadow-window fill of the current candidate (0 when none).
    pub shadow_len: usize,
    /// Shadow-window MAPE of the current candidate (NaN when empty).
    pub shadow_mape: f64,
    /// Lineage of the current candidate, or of the last promoted candidate.
    pub lineage: Option<Lineage>,
    /// Human-readable reason for the last terminal decision.
    pub last_outcome: Option<String>,
}

struct Candidate {
    gb: GradientBoosting,
    flat: Arc<FlatGbt>,
    lineage: Lineage,
    window: RollingQuality,
}

struct GroupEntry {
    state: LifecycleState,
    frozen: bool,
    retrains: u64,
    candidate: Option<Candidate>,
    lineage: Option<Lineage>,
    last_outcome: Option<String>,
    last_trigger_obs: u64,
}

impl GroupEntry {
    fn new() -> GroupEntry {
        GroupEntry {
            state: LifecycleState::Idle,
            frozen: false,
            retrains: 0,
            candidate: None,
            lineage: None,
            last_outcome: None,
            last_trigger_obs: 0,
        }
    }
}

/// Every (model, machine) group, looked up by borrowed names. A
/// registry holds a handful of groups, so a scan allocates nothing where
/// a map keyed by `(String, String)` needs two owned strings per probe —
/// and `shadow_candidate` probes on every advise answer and predict.
#[derive(Default)]
struct Groups(Vec<(String, String, GroupEntry)>);

impl Groups {
    fn get(&self, model: &str, machine: &str) -> Option<&GroupEntry> {
        self.0.iter().find(|(m, mc, _)| m == model && mc == machine).map(|(_, _, e)| e)
    }

    fn get_mut(&mut self, model: &str, machine: &str) -> Option<&mut GroupEntry> {
        self.0.iter_mut().find(|(m, mc, _)| m == model && mc == machine).map(|(_, _, e)| e)
    }

    /// The group's entry, created `Idle` on first sight.
    fn entry(&mut self, model: &str, machine: &str) -> &mut GroupEntry {
        let i = match self.0.iter().position(|(m, mc, _)| m == model && mc == machine) {
            Some(i) => i,
            None => {
                self.0.push((model.to_string(), machine.to_string(), GroupEntry::new()));
                self.0.len() - 1
            }
        };
        &mut self.0[i].2
    }
}

struct Inner {
    config: LifecycleConfig,
    observer: Box<dyn LifecycleObserver>,
    groups: Mutex<Groups>,
    queue_depth: AtomicUsize,
}

impl Inner {
    /// Apply a state change, updating the gauge always and the transition
    /// counter only for pairs in the enumerated valid set.
    fn set_state(&self, model: &str, machine: &str, entry: &mut GroupEntry, to: LifecycleState) {
        let from = entry.state;
        if from == to {
            return;
        }
        entry.state = to;
        self.observer.on_state(model, machine, to);
        if is_valid_transition(from, to) {
            self.observer.on_transition(from, to);
        }
        obs::event!(
            Level::Info,
            "lifecycle.transition",
            model = model,
            machine = machine,
            from = from.label(),
            to = to.label(),
        );
    }

    /// Worker-side: fit the candidate and move the group to Shadow or
    /// Rejected.
    fn train(&self, job: RetrainRequest) {
        {
            let mut groups = self.groups.lock();
            let entry = groups.entry(&job.model, &job.machine);
            self.set_state(&job.model, &job.machine, entry, LifecycleState::Training);
        }
        let n = job.rows.len();
        let x = Matrix::from_fn(n, 4, |i, j| job.rows[i].0[j]);
        let y: Vec<f64> = job.rows.iter().map(|(_, m)| *m).collect();

        let mut candidate = job.base.clone();
        // Registry-loaded models decode with `max_depth = 0` (leaf-only), so
        // the appended stages always get a real depth cap; early stopping is
        // pointless on the small retained pool.
        candidate.max_depth = self.config.max_depth;
        candidate.n_iter_no_change = None;
        candidate.seed =
            job.parent_version.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(job.observations);
        let seed = candidate.seed;
        obs::event!(
            Level::Info,
            "lifecycle.fit.start",
            model = job.model.as_str(),
            machine = job.machine.as_str(),
            parent_version = job.parent_version,
            rows = n as u64,
            extra_stages = self.config.extra_stages as u64,
            reason = job.reason.label(),
        );
        let started = Instant::now();
        let fit = candidate.fit_more(&x, &y, self.config.extra_stages);
        let duration = started.elapsed();
        self.observer.on_fit_duration(duration.as_secs_f64());

        let failure = match fit {
            Err(e) => Some(format!("fit failed: {e}")),
            Ok(()) => {
                let preds = candidate.predict(&x);
                if preds.iter().any(|p| !p.is_finite()) {
                    Some("candidate produced non-finite predictions on its training rows".into())
                } else {
                    None
                }
            }
        };
        if let Some(why) = failure {
            obs::event!(
                Level::Warn,
                "lifecycle.fit.rejected",
                model = job.model.as_str(),
                machine = job.machine.as_str(),
                reason = why.as_str(),
                duration_us = duration.as_micros() as u64,
            );
            let mut groups = self.groups.lock();
            if let Some(entry) = groups.get_mut(&job.model, &job.machine) {
                entry.candidate = None;
                entry.last_outcome = Some(why);
                self.set_state(&job.model, &job.machine, entry, LifecycleState::Rejected);
            }
            self.observer.on_promotion(PromotionOutcome::Rejected);
            return;
        }

        let flat = Arc::new(FlatGbt::compile(&candidate));
        let lineage = Lineage {
            parent_version: job.parent_version,
            train_rows: 0,
            observed_rows: n as u32,
            fit_duration_ms: duration.as_millis() as u64,
            seed,
        };
        obs::event!(
            Level::Info,
            "lifecycle.fit.done",
            model = job.model.as_str(),
            machine = job.machine.as_str(),
            stages = candidate.n_stages() as u64,
            duration_us = duration.as_micros() as u64,
        );
        let mut groups = self.groups.lock();
        if let Some(entry) = groups.get_mut(&job.model, &job.machine) {
            entry.candidate = Some(Candidate {
                gb: candidate,
                flat,
                lineage,
                window: RollingQuality::new(self.config.shadow_window),
            });
            entry.lineage = Some(lineage);
            self.set_state(&job.model, &job.machine, entry, LifecycleState::Shadow);
        }
    }
}

/// Coordinates background retraining, shadow scoring, and promotion
/// decisions for every (model, machine) group.
///
/// Thread-safe; the server shares one hub between all connection handlers
/// and the single trainer thread the hub owns. Dropping the hub (or calling
/// [`LifecycleHub::shutdown`]) closes the queue and joins the trainer, so
/// in-flight fits finish and queued jobs drain before exit.
pub struct LifecycleHub {
    inner: Arc<Inner>,
    tx: Mutex<Option<SyncSender<RetrainRequest>>>,
    worker: Mutex<Option<thread::JoinHandle<()>>>,
}

impl LifecycleHub {
    /// Hub with a [`NullObserver`]; convenient for tests.
    pub fn new(config: LifecycleConfig) -> LifecycleHub {
        LifecycleHub::with_observer(config, Box::new(NullObserver))
    }

    /// Hub that reports metrics through `observer`; spawns the trainer
    /// thread.
    pub fn with_observer(
        config: LifecycleConfig,
        observer: Box<dyn LifecycleObserver>,
    ) -> LifecycleHub {
        let (tx, rx) = mpsc::sync_channel::<RetrainRequest>(config.queue_cap.max(1));
        let inner = Arc::new(Inner {
            config,
            observer,
            groups: Mutex::new(Groups::default()),
            queue_depth: AtomicUsize::new(0),
        });
        let worker_inner = Arc::clone(&inner);
        let handle = thread::Builder::new()
            .name("chemcost-lifecycle".into())
            .spawn(move || {
                while let Ok(job) = rx.recv() {
                    let depth =
                        worker_inner.queue_depth.fetch_sub(1, Ordering::AcqRel).saturating_sub(1);
                    worker_inner.observer.on_queue_depth(depth);
                    worker_inner.train(job);
                }
            })
            .expect("spawn lifecycle trainer thread");
        LifecycleHub { inner, tx: Mutex::new(Some(tx)), worker: Mutex::new(Some(handle)) }
    }

    /// Active configuration.
    pub fn config(&self) -> &LifecycleConfig {
        &self.inner.config
    }

    /// Ensure a group exists (Idle) and its state gauge is exported.
    pub fn register_group(&self, model: &str, machine: &str) {
        let mut groups = self.inner.groups.lock();
        let entry = groups.entry(model, machine);
        self.inner.observer.on_state(model, machine, entry.state);
    }

    /// Enqueue a retrain job. Refused (with a reason) when the group is
    /// frozen, already has a job or candidate in flight, lacks data, fired
    /// too recently, or the bounded queue is full.
    pub fn request_retrain(&self, req: RetrainRequest) -> Result<(), String> {
        {
            let mut groups = self.inner.groups.lock();
            let entry = groups.entry(&req.model, &req.machine);
            if entry.frozen {
                return Err("group is frozen; unfreeze before retraining".into());
            }
            match entry.state {
                LifecycleState::Queued | LifecycleState::Training | LifecycleState::Shadow => {
                    return Err(format!(
                        "retrain already in flight (state {})",
                        entry.state.label()
                    ));
                }
                _ => {}
            }
            if req.rows.len() < self.inner.config.min_retrain_rows {
                return Err(format!(
                    "only {} retained rows; need at least {}",
                    req.rows.len(),
                    self.inner.config.min_retrain_rows
                ));
            }
            if req.reason == RetrainReason::PoolThreshold
                && req.observations < entry.last_trigger_obs + self.inner.config.pool_trigger as u64
            {
                return Err(format!(
                    "pool trigger needs {} new observations since the last retrain",
                    self.inner.config.pool_trigger
                ));
            }
            let tx = self.tx.lock();
            let Some(tx) = tx.as_ref() else {
                return Err("lifecycle trainer is shut down".into());
            };
            let model = req.model.clone();
            let machine = req.machine.clone();
            let observations = req.observations;
            let reason = req.reason;
            // Count the job before sending so the worker's decrement can
            // never observe (and wrap) a zero counter.
            let depth = self.inner.queue_depth.fetch_add(1, Ordering::AcqRel) + 1;
            match tx.try_send(req) {
                Ok(()) => {
                    self.inner.observer.on_queue_depth(depth);
                    entry.retrains += 1;
                    entry.last_trigger_obs = observations;
                    entry.candidate = None;
                    self.inner.set_state(&model, &machine, entry, LifecycleState::Queued);
                    obs::event!(
                        Level::Info,
                        "lifecycle.retrain.queued",
                        model = model.as_str(),
                        machine = machine.as_str(),
                        reason = reason.label(),
                        queue_depth = depth as u64,
                    );
                    Ok(())
                }
                Err(TrySendError::Full(_)) => {
                    self.inner.queue_depth.fetch_sub(1, Ordering::AcqRel);
                    Err("trainer queue is full; retry later".into())
                }
                Err(TrySendError::Disconnected(_)) => {
                    self.inner.queue_depth.fetch_sub(1, Ordering::AcqRel);
                    Err("lifecycle trainer is shut down".into())
                }
            }
        }
    }

    /// Install a candidate directly into Shadow, bypassing the trainer.
    /// Used by tests and by operators re-arming a previously rejected
    /// candidate; the same promotion guards still apply.
    pub fn install_candidate(
        &self,
        model: &str,
        machine: &str,
        gb: GradientBoosting,
        lineage: Lineage,
    ) {
        let flat = Arc::new(FlatGbt::compile(&gb));
        let mut groups = self.inner.groups.lock();
        let entry = groups.entry(model, machine);
        entry.candidate = Some(Candidate {
            gb,
            flat,
            lineage,
            window: RollingQuality::new(self.inner.config.shadow_window),
        });
        entry.lineage = Some(lineage);
        self.inner.set_state(model, machine, entry, LifecycleState::Shadow);
    }

    /// Score one request with the group's shadow candidate, if any:
    /// [`LifecycleHub::shadow_candidate`] then
    /// [`LifecycleHub::score_shadow`].
    pub fn shadow_predict(&self, model: &str, machine: &str, features: &FeatureRow) -> Option<f64> {
        let handle = self.shadow_candidate(model, machine)?;
        self.score_shadow(model, machine, &handle, features)
    }

    /// A handle on the group's candidate, when one is in Shadow. Takes
    /// the group lock for a lookup only; no model runs.
    pub fn shadow_candidate(&self, model: &str, machine: &str) -> Option<ShadowHandle> {
        let groups = self.inner.groups.lock();
        let entry = groups.get(model, machine)?;
        if entry.state != LifecycleState::Shadow {
            return None;
        }
        Some(ShadowHandle(Arc::downgrade(&entry.candidate.as_ref()?.flat)))
    }

    /// Score `features` with the candidate `handle` names, outside the
    /// group lock. Returns `None` once that candidate is gone. A
    /// non-finite shadow prediction is poison: the candidate is rejected
    /// on the spot (if it is still the group's) and `None` is returned,
    /// so a poisoned candidate can never accumulate a window, let alone
    /// promote.
    pub fn score_shadow(
        &self,
        model: &str,
        machine: &str,
        handle: &ShadowHandle,
        features: &FeatureRow,
    ) -> Option<f64> {
        let flat = handle.0.upgrade()?;
        let predicted = flat.predict_row(features);
        if predicted.is_finite() {
            return Some(predicted);
        }
        let mut groups = self.inner.groups.lock();
        if let Some(entry) = groups.get_mut(model, machine) {
            let current = entry.candidate.as_ref().is_some_and(|c| Arc::ptr_eq(&c.flat, &flat));
            if entry.state == LifecycleState::Shadow && current {
                entry.candidate = None;
                entry.last_outcome =
                    Some("shadow candidate produced a non-finite prediction".into());
                self.inner.set_state(model, machine, entry, LifecycleState::Rejected);
                self.inner.observer.on_promotion(PromotionOutcome::Rejected);
                obs::event!(
                    Level::Warn,
                    "lifecycle.shadow.poison",
                    model = model,
                    machine = machine,
                );
            }
        }
        None
    }

    /// Journal one redeemed observation into the shadow window.
    pub fn record_shadow(&self, model: &str, machine: &str, shadow_predicted: f64, measured: f64) {
        let mut groups = self.inner.groups.lock();
        let Some(entry) = groups.get_mut(model, machine) else {
            return;
        };
        if entry.state != LifecycleState::Shadow {
            return;
        }
        if let Some(candidate) = entry.candidate.as_mut() {
            candidate.window.push(shadow_predicted, measured, None);
        }
    }

    /// Decide the shadow candidate's fate against the serving model's
    /// current rolling MAPE.
    ///
    /// Promotion requires `shadow_mape + guardband <= serving_mape` (a
    /// non-finite serving MAPE counts as beaten) once the window holds
    /// `min_shadow` points. A candidate that reaches `max_shadow` without
    /// winning is rejected. Frozen groups always keep shadowing.
    pub fn evaluate_shadow(&self, model: &str, machine: &str, serving_mape: f64) -> ShadowVerdict {
        let mut groups = self.inner.groups.lock();
        let Some(entry) = groups.get_mut(model, machine) else {
            return ShadowVerdict::KeepShadowing;
        };
        if entry.state != LifecycleState::Shadow || entry.frozen {
            return ShadowVerdict::KeepShadowing;
        }
        let Some(candidate) = entry.candidate.as_ref() else {
            return ShadowVerdict::KeepShadowing;
        };
        let len = candidate.window.len();
        if len < self.inner.config.min_shadow {
            return ShadowVerdict::KeepShadowing;
        }
        let shadow_mape = candidate.window.mape();
        let wins = shadow_mape.is_finite()
            && (!serving_mape.is_finite()
                || shadow_mape + self.inner.config.guardband <= serving_mape);
        if wins {
            let candidate = entry.candidate.take().expect("candidate checked above");
            let lineage = candidate.lineage;
            entry.lineage = Some(lineage);
            entry.last_outcome = Some(format!(
                "auto-promoted: shadow MAPE {shadow_mape:.4} beat serving {serving_mape:.4} by ≥ {:.4}",
                self.inner.config.guardband
            ));
            self.inner.set_state(model, machine, entry, LifecycleState::Promoted);
            self.inner.observer.on_promotion(PromotionOutcome::Auto);
            return ShadowVerdict::Promote(Box::new(PromotionTicket {
                model: model.to_string(),
                machine: machine.to_string(),
                candidate: candidate.gb,
                lineage,
                shadow_mape,
                serving_mape,
                outcome: PromotionOutcome::Auto,
            }));
        }
        if len >= self.inner.config.max_shadow {
            entry.candidate = None;
            entry.last_outcome = Some(format!(
                "rejected: shadow MAPE {shadow_mape:.4} never beat serving {serving_mape:.4} by {:.4} within {len} observations",
                self.inner.config.guardband
            ));
            self.inner.set_state(model, machine, entry, LifecycleState::Rejected);
            self.inner.observer.on_promotion(PromotionOutcome::Rejected);
            obs::event!(
                Level::Warn,
                "lifecycle.shadow.rejected",
                model = model,
                machine = machine,
                shadow_mape = shadow_mape,
                serving_mape = serving_mape,
            );
            return ShadowVerdict::Rejected;
        }
        ShadowVerdict::KeepShadowing
    }

    /// Operator override: promote the current shadow candidate regardless of
    /// the guardband. Fails unless the group is in Shadow.
    pub fn force_promote(&self, model: &str, machine: &str) -> Result<PromotionTicket, String> {
        let mut groups = self.inner.groups.lock();
        let entry = groups
            .get_mut(model, machine)
            .ok_or_else(|| format!("unknown lifecycle group {model}/{machine}"))?;
        if entry.state != LifecycleState::Shadow {
            return Err(format!("no shadow candidate to promote (state {})", entry.state.label()));
        }
        let candidate =
            entry.candidate.take().ok_or_else(|| "shadow state without a candidate".to_string())?;
        let shadow_mape = candidate.window.mape();
        let lineage = candidate.lineage;
        entry.lineage = Some(lineage);
        entry.last_outcome = Some("operator-promoted".into());
        self.inner.set_state(model, machine, entry, LifecycleState::Promoted);
        self.inner.observer.on_promotion(PromotionOutcome::Operator);
        Ok(PromotionTicket {
            model: model.to_string(),
            machine: machine.to_string(),
            candidate: candidate.gb,
            lineage,
            shadow_mape,
            serving_mape: f64::NAN,
            outcome: PromotionOutcome::Operator,
        })
    }

    /// Record that the caller rolled the registry back for this group.
    /// Refused while a retrain is queued or training (the in-flight
    /// candidate still owns the group).
    pub fn mark_rolled_back(&self, model: &str, machine: &str) -> Result<(), String> {
        let mut groups = self.inner.groups.lock();
        let entry = groups
            .get_mut(model, machine)
            .ok_or_else(|| format!("unknown lifecycle group {model}/{machine}"))?;
        match entry.state {
            LifecycleState::Queued | LifecycleState::Training => Err(format!(
                "cannot roll back while a retrain is in flight (state {})",
                entry.state.label()
            )),
            _ => {
                entry.candidate = None;
                entry.last_outcome = Some("rolled back to prior version".into());
                self.inner.set_state(model, machine, entry, LifecycleState::RolledBack);
                self.inner.observer.on_promotion(PromotionOutcome::RolledBack);
                Ok(())
            }
        }
    }

    /// Freeze or unfreeze a group. Frozen groups refuse retrain triggers and
    /// never auto-promote; an existing shadow keeps scoring so the operator
    /// can inspect it. Returns the previous frozen flag.
    pub fn set_frozen(&self, model: &str, machine: &str, frozen: bool) -> Result<bool, String> {
        let mut groups = self.inner.groups.lock();
        let entry = groups
            .get_mut(model, machine)
            .ok_or_else(|| format!("unknown lifecycle group {model}/{machine}"))?;
        let was = entry.frozen;
        entry.frozen = frozen;
        obs::event!(
            Level::Info,
            "lifecycle.freeze",
            model = model,
            machine = machine,
            frozen = if frozen { 1u64 } else { 0u64 },
        );
        Ok(was)
    }

    /// Current state of one group.
    pub fn group_state(&self, model: &str, machine: &str) -> Option<LifecycleState> {
        let groups = self.inner.groups.lock();
        groups.get(model, machine).map(|e| e.state)
    }

    /// Snapshot of every group, sorted by (model, machine).
    pub fn snapshot(&self) -> Vec<GroupLifecycle> {
        let groups = self.inner.groups.lock();
        let mut out: Vec<GroupLifecycle> = groups
            .0
            .iter()
            .map(|(model, machine, e)| GroupLifecycle {
                model: model.clone(),
                machine: machine.clone(),
                state: e.state,
                frozen: e.frozen,
                retrains: e.retrains,
                shadow_len: e.candidate.as_ref().map_or(0, |c| c.window.len()),
                shadow_mape: e.candidate.as_ref().map_or(f64::NAN, |c| c.window.mape()),
                lineage: e.lineage,
                last_outcome: e.last_outcome.clone(),
            })
            .collect();
        out.sort_by(|a, b| (&a.model, &a.machine).cmp(&(&b.model, &b.machine)));
        out
    }

    /// Jobs currently waiting in the trainer queue.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue_depth.load(Ordering::Acquire)
    }

    /// Close the queue and join the trainer thread. Idempotent; also called
    /// on drop. Queued jobs drain (each finishes training) before the
    /// thread exits.
    pub fn shutdown(&self) {
        let tx = self.tx.lock().take();
        drop(tx);
        let handle = self.worker.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for LifecycleHub {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    /// y = 3o + 2v + nodes/50 + tile/100, with a multiplicative `shift`.
    fn rows(n: usize, shift: f64, offset: usize) -> Vec<(FeatureRow, f64)> {
        (0..n)
            .map(|i| {
                let i = i + offset;
                let o = 90.0 + (i % 7) as f64;
                let v = 700.0 + (i % 11) as f64 * 3.0;
                let nodes = 60.0 + (i % 5) as f64 * 30.0;
                let tile = 30.0 + (i % 4) as f64 * 20.0;
                let y = shift * (3.0 * o + 2.0 * v + nodes / 50.0 + tile / 100.0);
                ([o, v, nodes, tile], y)
            })
            .collect()
    }

    fn fitted_base(n: usize) -> GradientBoosting {
        let data = rows(n, 1.0, 0);
        let x = Matrix::from_fn(n, 4, |i, j| data[i].0[j]);
        let y: Vec<f64> = data.iter().map(|(_, m)| *m).collect();
        let mut gb = GradientBoosting::new(60, 4, 0.1);
        gb.seed = 11;
        gb.fit(&x, &y).expect("fit base");
        gb
    }

    fn request(base: &GradientBoosting, shift: f64, n: usize) -> RetrainRequest {
        RetrainRequest {
            model: "gb".into(),
            machine: "aurora".into(),
            parent_version: 1,
            base: base.clone(),
            rows: rows(n, shift, 1),
            observations: n as u64 + 100,
            reason: RetrainReason::DriftTrip,
        }
    }

    fn wait_for(hub: &LifecycleHub, state: LifecycleState) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while hub.group_state("gb", "aurora") != Some(state) {
            assert!(Instant::now() < deadline, "timed out waiting for {state:?}");
            thread::sleep(Duration::from_millis(5));
        }
    }

    fn nan_candidate() -> GradientBoosting {
        use chemcost_ml::tree::FlatNode;
        let leaf =
            FlatNode { feature: u32::MAX, threshold: 0.0, left: 0, right: 0, value: f64::NAN };
        GradientBoosting::from_export(0.0, 0.1, 4, &[vec![leaf]])
    }

    fn lineage() -> Lineage {
        Lineage { parent_version: 1, train_rows: 0, observed_rows: 64, fit_duration_ms: 5, seed: 7 }
    }

    #[derive(Default)]
    struct CountingObserver {
        transitions: AtomicU64,
        promotions: AtomicU64,
        rejections: AtomicU64,
        fits: AtomicU64,
    }

    impl LifecycleObserver for CountingObserver {
        fn on_transition(&self, _from: LifecycleState, _to: LifecycleState) {
            self.transitions.fetch_add(1, Ordering::Relaxed);
        }
        fn on_fit_duration(&self, _seconds: f64) {
            self.fits.fetch_add(1, Ordering::Relaxed);
        }
        fn on_promotion(&self, outcome: PromotionOutcome) {
            match outcome {
                PromotionOutcome::Auto | PromotionOutcome::Operator => {
                    self.promotions.fetch_add(1, Ordering::Relaxed)
                }
                _ => self.rejections.fetch_add(1, Ordering::Relaxed),
            };
        }
    }

    #[test]
    fn retrain_reaches_shadow_and_auto_promotes() {
        let base = fitted_base(120);
        let hub = LifecycleHub::new(LifecycleConfig {
            min_shadow: 8,
            max_shadow: 32,
            guardband: 0.02,
            ..LifecycleConfig::default()
        });
        hub.register_group("gb", "aurora");
        hub.request_retrain(request(&base, 1.7, 120)).expect("enqueue");
        wait_for(&hub, LifecycleState::Shadow);

        // Replay the shifted world through the shadow and check it scores
        // far better than the stale serving model would.
        let world = rows(40, 1.7, 500);
        for (features, measured) in &world {
            let shadow = hub
                .shadow_predict("gb", "aurora", features)
                .expect("candidate must score while in Shadow");
            hub.record_shadow("gb", "aurora", shadow, *measured);
        }
        let snap = &hub.snapshot()[0];
        assert!(snap.shadow_mape < 0.1, "shadow MAPE {} too high", snap.shadow_mape);
        assert_eq!(snap.lineage.unwrap().observed_rows, 120);
        assert_eq!(snap.lineage.unwrap().parent_version, 1);

        // Serving MAPE under the shifted world is ~0.41 (1/1.7 off).
        match hub.evaluate_shadow("gb", "aurora", 0.41) {
            ShadowVerdict::Promote(ticket) => {
                assert_eq!(ticket.model, "gb");
                assert_eq!(ticket.outcome, PromotionOutcome::Auto);
                assert!(ticket.shadow_mape + 0.02 <= 0.41);
                assert!(ticket.candidate.n_stages() > base.n_stages());
            }
            _ => panic!("expected promotion"),
        }
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::Promoted));
        assert!(hub.shadow_predict("gb", "aurora", &world[0].0).is_none());
    }

    #[test]
    fn weak_candidate_is_rejected_at_max_shadow() {
        let base = fitted_base(120);
        let hub = LifecycleHub::new(LifecycleConfig {
            min_shadow: 4,
            max_shadow: 8,
            ..LifecycleConfig::default()
        });
        // Candidate trained on the SAME world as serving: it cannot beat a
        // serving MAPE that is already tiny.
        hub.request_retrain(request(&base, 1.0, 120)).expect("enqueue");
        wait_for(&hub, LifecycleState::Shadow);
        for (features, measured) in rows(8, 1.0, 900) {
            let shadow = hub.shadow_predict("gb", "aurora", &features).unwrap();
            hub.record_shadow("gb", "aurora", shadow, measured);
        }
        match hub.evaluate_shadow("gb", "aurora", 0.0001) {
            ShadowVerdict::Rejected => {}
            _ => panic!("expected rejection at max_shadow"),
        }
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::Rejected));
        let snap = &hub.snapshot()[0];
        assert!(snap.last_outcome.as_deref().unwrap().starts_with("rejected"));
    }

    #[test]
    fn poison_candidate_never_promotes() {
        let hub = LifecycleHub::new(LifecycleConfig::default());
        hub.install_candidate("gb", "aurora", nan_candidate(), lineage());
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::Shadow));
        let out = hub.shadow_predict("gb", "aurora", &[99.0, 718.0, 120.0, 90.0]);
        assert!(out.is_none());
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::Rejected));
        // Rejection is terminal for the candidate: evaluation cannot revive it.
        match hub.evaluate_shadow("gb", "aurora", 10.0) {
            ShadowVerdict::KeepShadowing => {}
            _ => panic!("rejected candidate must not be evaluated"),
        }
        assert!(hub.force_promote("gb", "aurora").is_err());
    }

    /// A handle taken at journal time scores with the candidate it named,
    /// and only while that candidate lives: a poisoned handle redeemed
    /// after the group moved on rejects nothing.
    #[test]
    fn a_shadow_handle_scores_only_its_own_candidate() {
        let hub = LifecycleHub::new(LifecycleConfig::default());
        let features = [99.0, 718.0, 120.0, 90.0];
        hub.install_candidate("gb", "aurora", nan_candidate(), lineage());
        let poisoned = hub.shadow_candidate("gb", "aurora").expect("candidate in shadow");
        hub.mark_rolled_back("gb", "aurora").unwrap();
        assert!(hub.shadow_candidate("gb", "aurora").is_none());
        let base = fitted_base(60);
        hub.install_candidate("gb", "aurora", base.clone(), lineage());
        let healthy = hub.shadow_candidate("gb", "aurora").expect("candidate in shadow");
        assert!(hub.score_shadow("gb", "aurora", &poisoned, &features).is_none());
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::Shadow));
        let expected = FlatGbt::compile(&base).predict_row(&features);
        assert_eq!(hub.score_shadow("gb", "aurora", &healthy, &features), Some(expected));
        hub.mark_rolled_back("gb", "aurora").unwrap();
        assert!(hub.score_shadow("gb", "aurora", &healthy, &features).is_none());
    }

    #[test]
    fn one_job_per_group_and_freeze_guard() {
        let base = fitted_base(60);
        let hub = LifecycleHub::new(LifecycleConfig::default());
        hub.request_retrain(request(&base, 1.3, 60)).expect("first enqueue");
        let err = hub.request_retrain(request(&base, 1.3, 60)).unwrap_err();
        assert!(err.contains("in flight"), "got: {err}");
        wait_for(&hub, LifecycleState::Shadow);

        // Frozen groups refuse triggers and never auto-promote.
        assert!(!hub.set_frozen("gb", "aurora", true).unwrap());
        match hub.evaluate_shadow("gb", "aurora", f64::NAN) {
            ShadowVerdict::KeepShadowing => {}
            _ => panic!("frozen group must keep shadowing"),
        }
        hub.set_frozen("gb", "aurora", false).unwrap();
        hub.mark_rolled_back("gb", "aurora").expect("rollback from shadow");
        let err = hub
            .request_retrain(RetrainRequest { rows: rows(4, 1.0, 0), ..request(&base, 1.0, 60) })
            .unwrap_err();
        assert!(err.contains("retained rows"), "got: {err}");
    }

    #[test]
    fn pool_trigger_is_spaced_by_new_observations() {
        let base = fitted_base(120);
        let hub = LifecycleHub::new(LifecycleConfig {
            min_shadow: 4,
            max_shadow: 8,
            pool_trigger: 100,
            ..LifecycleConfig::default()
        });
        let mut req = request(&base, 1.0, 120);
        req.reason = RetrainReason::PoolThreshold;
        req.observations = 120;
        hub.request_retrain(req).expect("first pool trigger");
        wait_for(&hub, LifecycleState::Shadow);
        for (features, measured) in rows(8, 1.0, 900) {
            let shadow = hub.shadow_predict("gb", "aurora", &features).unwrap();
            hub.record_shadow("gb", "aurora", shadow, measured);
        }
        let _ = hub.evaluate_shadow("gb", "aurora", 0.0001); // -> Rejected
        let mut again = request(&base, 1.0, 120);
        again.reason = RetrainReason::PoolThreshold;
        again.observations = 150; // only 30 new since the trigger at 120
        let err = hub.request_retrain(again).unwrap_err();
        assert!(err.contains("new observations"), "got: {err}");
        let mut later = request(&base, 1.0, 120);
        later.reason = RetrainReason::PoolThreshold;
        later.observations = 220;
        hub.request_retrain(later).expect("spaced pool trigger accepted");
    }

    #[test]
    fn fit_failure_rejects_and_observer_sees_everything() {
        let observer = Arc::new(CountingObserver::default());
        struct Fwd(Arc<CountingObserver>);
        impl LifecycleObserver for Fwd {
            fn on_transition(&self, f: LifecycleState, t: LifecycleState) {
                self.0.on_transition(f, t);
            }
            fn on_fit_duration(&self, s: f64) {
                self.0.on_fit_duration(s);
            }
            fn on_promotion(&self, o: PromotionOutcome) {
                self.0.on_promotion(o);
            }
        }
        let hub = LifecycleHub::with_observer(
            LifecycleConfig::default(),
            Box::new(Fwd(Arc::clone(&observer))),
        );
        // An unfitted base makes fit_more fail -> Rejected.
        let mut req = request(&GradientBoosting::new(10, 3, 0.1), 1.0, 60);
        req.rows = rows(60, 1.0, 0);
        hub.request_retrain(req).expect("enqueue");
        wait_for(&hub, LifecycleState::Rejected);
        let snap = &hub.snapshot()[0];
        assert!(snap.last_outcome.as_deref().unwrap().starts_with("fit failed"));
        // idle->queued, queued->training, training->rejected.
        assert_eq!(observer.transitions.load(Ordering::Relaxed), 3);
        assert_eq!(observer.fits.load(Ordering::Relaxed), 1);
        assert_eq!(observer.rejections.load(Ordering::Relaxed), 1);
        assert_eq!(observer.promotions.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn operator_force_promote_and_rollback() {
        let base = fitted_base(80);
        let hub = LifecycleHub::new(LifecycleConfig::default());
        hub.request_retrain(request(&base, 1.5, 80)).expect("enqueue");
        wait_for(&hub, LifecycleState::Shadow);
        let ticket = hub.force_promote("gb", "aurora").expect("force promote");
        assert_eq!(ticket.outcome, PromotionOutcome::Operator);
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::Promoted));
        hub.mark_rolled_back("gb", "aurora").expect("rollback");
        assert_eq!(hub.group_state("gb", "aurora"), Some(LifecycleState::RolledBack));
        // After rollback the group can re-enter the loop.
        hub.request_retrain(request(&base, 1.5, 80)).expect("re-queue");
        wait_for(&hub, LifecycleState::Shadow);
    }

    #[test]
    fn shutdown_drains_and_is_idempotent() {
        let base = fitted_base(60);
        let hub = LifecycleHub::new(LifecycleConfig::default());
        hub.request_retrain(request(&base, 1.2, 60)).expect("enqueue");
        hub.shutdown();
        hub.shutdown();
        // The queued job drained through training before the join returned.
        let state = hub.group_state("gb", "aurora").unwrap();
        assert!(
            matches!(state, LifecycleState::Shadow | LifecycleState::Rejected),
            "job did not drain: {state:?}"
        );
        assert_eq!(hub.queue_depth(), 0);
        // Settle the group so the next request reaches the (closed) queue.
        hub.mark_rolled_back("gb", "aurora").expect("settle group");
        let err = hub.request_retrain(request(&base, 1.2, 60)).unwrap_err();
        assert!(err.contains("shut down"), "got: {err}");
    }
}
