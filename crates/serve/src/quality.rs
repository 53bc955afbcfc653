//! Model-quality observability: the advise→observe→retrain loop.
//!
//! The advisor's value rests on its predictions staying accurate as
//! users run real configurations, so the serving layer closes the loop
//! the paper's active-learning campaign runs offline:
//!
//! 1. every `/v1/advise` answer is assigned a `prediction_id` and its
//!    primary recommendation journaled to a bounded in-memory ring
//!    (spilled to the obs sinks as `quality.prediction` debug events);
//! 2. `POST /v1/observe {prediction_id, measured_seconds}` matches a
//!    measured wall time back to its journal entry and scores it — one
//!    `quality.residual` event per accepted report, carrying the
//!    originating advise request's trace id;
//! 3. per `(model, version, machine)` serving group, a sliding window
//!    of residuals ([`chemcost_ml::monitor::RollingQuality`]) feeds the
//!    `/metrics` quality gauges and `GET /v1/quality`;
//! 4. a Page–Hinkley detector over the absolute-percentage-error stream
//!    flags the group `degraded` on trip (a `quality.drift` event +
//!    `chemcost_drift_trips_total`), and the accumulated observation
//!    pool is handed to `chemcost-active`'s uncertainty-sampling
//!    strategy to rank which configurations to measure next
//!    (`GET /v1/quality/next_experiments`).
//!
//! A [`chemcost_ml::gaussian_process::GaussianProcess`] is refit
//! periodically on the observation pool so each journaled prediction
//! carries a 1-σ uncertainty; the fraction of residuals inside that ±σ
//! band is the calibration ratio on `/metrics`. A journal entry keeps a
//! handle on the GP (and on the lifecycle's shadow candidate) current
//! when it was journaled, and the σ (and the shadow score) are computed
//! from those when the measurement arrives: the answer path, which may
//! run on the event loop, never runs a model.

use crate::metrics::{Metrics, QualityStats};
use chemcost_lifecycle::ShadowHandle;
use chemcost_linalg::Matrix;
use chemcost_ml::gaussian_process::GaussianProcess;
use chemcost_ml::monitor::{PageHinkley, RollingQuality};
use chemcost_ml::{Regressor, UncertaintyRegressor};
use chemcost_obs::{self as obs, Level};
use chemcost_sim::machine::by_name;
use chemcost_sim::simulate::fits_in_memory;
use chemcost_sim::Problem;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Journal capacity: predictions awaiting ground truth. When full, the
/// oldest pending prediction is evicted (a later report for it answers
/// 404, like any unknown id).
pub const JOURNAL_CAPACITY: usize = 4096;
/// Consumed-id memory: how many already-observed ids are remembered for
/// replay rejection (409) before the oldest are forgotten.
const CONSUMED_CAPACITY: usize = 8192;
/// Sliding residual window per serving group.
const WINDOW: usize = 128;
/// Labelled observation pool per group (feeds the GP and the
/// next-experiments ranking).
const POOL_CAPACITY: usize = 512;
/// Refit the per-group uncertainty GP every this many accepted
/// observations (an O(n³) fit — not a per-request cost).
const GP_REFIT_EVERY: u64 = 16;
/// Most recent pool rows used for GP fits and experiment ranking.
const GP_MAX_FIT: usize = 96;
/// Minimum accepted observations before experiment ranking is offered.
pub const MIN_OBSERVATIONS_FOR_EXPERIMENTS: usize = 8;
/// Candidate-grid cap for one `next_experiments` ranking pass.
const MAX_CANDIDATES: usize = 2000;
/// Serving groups tracked at once (registry entries × surviving
/// versions); oldest groups are dropped past this.
const MAX_GROUPS: usize = 64;
/// Replaced GPs that pending journal entries may keep alive for their σ
/// (about 80 KiB each at 96 rows); past this, the oldest one's entries
/// let go of it and report no σ.
const MAX_RETIRED_GPS: usize = 16;

/// One journaled `/v1/advise` answer awaiting its measured runtime.
#[derive(Debug, Clone)]
pub struct PredictionRecord {
    /// The id handed to the client (`prediction_id` in the response).
    pub id: u64,
    /// Serving model name.
    pub model: String,
    /// Serving model version.
    pub version: u64,
    /// Machine the recommendation targets.
    pub machine: String,
    /// Occupied orbitals of the question.
    pub o: usize,
    /// Virtual orbitals of the question.
    pub v: usize,
    /// Recommended node count.
    pub nodes: usize,
    /// Recommended tile size.
    pub tile: usize,
    /// The runtime the model promised, in seconds.
    pub predicted_seconds: f64,
    /// GP 1-σ uncertainty at the recommended configuration, from the
    /// group's GP at journal time (once it had enough observations to be
    /// fit). Computed when the measurement arrives, so `None` until then.
    pub gp_uncertainty: Option<f64>,
    /// The group's candidate in shadow at journal time, if any. Scored
    /// against the measured runtime on `/v1/observe` without ever being
    /// served.
    pub shadow: Option<ShadowHandle>,
    /// Trace id of the advise request that produced this prediction.
    pub advise_trace: Option<String>,
}

/// Why a ground-truth report was turned away (the route maps these to
/// structured 4xx responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObserveError {
    /// The id was never issued, or its journal entry has been evicted.
    UnknownId,
    /// The id was already consumed by an earlier report (replay).
    Replayed,
    /// `measured_seconds` was not a finite positive number. The routes
    /// reject this on the wire; the hub re-checks so bad input can
    /// never skew the rolling stats.
    InvalidMeasurement,
}

/// The result of one accepted ground-truth report.
#[derive(Debug, Clone)]
pub struct ObserveOutcome {
    /// The journaled prediction the report was matched to.
    pub record: PredictionRecord,
    /// `predicted − measured`, in seconds.
    pub residual_seconds: f64,
    /// Absolute percentage error of this single observation.
    pub ape: f64,
    /// The group's windowed MAPE after folding this observation in.
    pub window_mape: f64,
    /// Did this observation trip the Page–Hinkley drift detector?
    pub drift_tripped: bool,
    /// Is the group flagged degraded (now or from an earlier trip)?
    pub degraded: bool,
    /// Retained-pool fill for the group after folding this observation in.
    pub pool_len: usize,
    /// Total accepted observations for the group (monotonic).
    pub observations: u64,
}

/// One `(model, version, machine)` group's public quality snapshot.
#[derive(Debug, Clone)]
pub struct GroupSnapshot {
    /// Model name.
    pub model: String,
    /// Model version.
    pub version: u64,
    /// Machine name.
    pub machine: String,
    /// Rolling stats as exported on `/metrics`.
    pub stats: QualityStats,
}

/// One recommended measurement from the active-learning ranking.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Occupied orbitals.
    pub o: usize,
    /// Virtual orbitals.
    pub v: usize,
    /// Node count.
    pub nodes: usize,
    /// Tile size.
    pub tile: usize,
    /// Acquisition score (GP relative uncertainty; higher = run first).
    pub score: f64,
}

/// The ranked next-experiments answer for `GET /v1/quality/next_experiments`.
#[derive(Debug, Clone)]
pub struct NextExperiments {
    /// The serving group the ranking targets (degraded groups first,
    /// then the group with the most observations); `None` when no group
    /// has enough observations.
    pub group: Option<(String, u64, String)>,
    /// Acquisition strategy abbreviation (always "US").
    pub strategy: &'static str,
    /// Ranked configurations, best first. Empty when ranking is not
    /// possible yet — see `reason`.
    pub configs: Vec<ExperimentConfig>,
    /// Why `configs` is empty, when it is.
    pub reason: Option<String>,
}

struct Group {
    model: String,
    version: u64,
    machine: String,
    window: RollingQuality,
    detector: PageHinkley,
    degraded: bool,
    drift_trips: u64,
    /// Labelled observations `([o, v, nodes, tile], measured_seconds)`.
    pool: VecDeque<([f64; 4], f64)>,
    /// Observations silently dropped from the full pool — exported so the
    /// retrainer's data loss is visible, not silent.
    pool_evictions: u64,
    /// Shared with the journal entries made under it, whose σ it gives
    /// when their measurement arrives.
    gp: Option<Arc<GaussianProcess>>,
    /// `window.observations()` when the installed GP's rows were taken
    /// (0 before the first fit); a fit of an older snapshot never
    /// replaces a newer one.
    gp_rows_at: u64,
    accepted_since_fit: u64,
}

/// The most recent pool rows a GP refit trains on, copied out of the
/// group so the fit runs without the hub lock.
struct GpRows {
    x: Matrix,
    y: Vec<f64>,
    /// `window.observations()` when the rows were taken.
    at: u64,
}

impl Group {
    fn new(model: &str, version: u64, machine: &str) -> Group {
        Group {
            model: model.to_string(),
            version,
            machine: machine.to_string(),
            window: RollingQuality::new(WINDOW),
            detector: PageHinkley::for_ape_stream(),
            degraded: false,
            drift_trips: 0,
            pool: VecDeque::new(),
            pool_evictions: 0,
            gp: None,
            gp_rows_at: 0,
            accepted_since_fit: 0,
        }
    }

    fn stats(&self) -> QualityStats {
        QualityStats {
            observations: self.window.observations(),
            window: self.window.len() as u64,
            mape: self.window.mape(),
            bias_seconds: self.window.bias_seconds(),
            residual_p50: self.window.residual_quantile(0.5),
            residual_p90: self.window.residual_quantile(0.9),
            residual_p99: self.window.residual_quantile(0.99),
            calibration_ratio: self.window.calibration_ratio(),
            drift_trips: self.drift_trips,
            degraded: self.degraded,
            pool_size: self.pool.len() as u64,
            pool_evictions: self.pool_evictions,
        }
    }

    /// Copy the most recent pool rows for a GP refit, newest first, and
    /// restart the refit counter. `None` while the pool is too small.
    fn gp_rows(&mut self) -> Option<GpRows> {
        let n = self.pool.len().min(GP_MAX_FIT);
        if n < 4 {
            return None;
        }
        let rows: Vec<&([f64; 4], f64)> = self.pool.iter().rev().take(n).collect();
        let x = Matrix::from_fn(n, 4, |i, j| rows[i].0[j]);
        let y: Vec<f64> = rows.iter().map(|(_, m)| *m).collect();
        self.accepted_since_fit = 0;
        Some(GpRows { x, y, at: self.window.observations() })
    }
}

/// σ at one configuration from a fitted GP.
fn sigma_at(gp: &GaussianProcess, x: [f64; 4]) -> Option<f64> {
    let (_, std) = gp.predict_with_std(&Matrix::from_rows(&[&x]));
    std.first().copied().filter(|s| s.is_finite())
}

/// One pending prediction and the GP its σ will come from.
struct Journaled {
    record: PredictionRecord,
    gp: Option<Arc<GaussianProcess>>,
}

#[derive(Default)]
struct Inner {
    journal: HashMap<u64, Journaled>,
    /// Issue order of journal ids, for FIFO eviction. May hold ids
    /// already consumed (removed from `journal`); eviction skips them.
    order: VecDeque<u64>,
    consumed: HashSet<u64>,
    consumed_order: VecDeque<u64>,
    groups: Vec<Group>,
    /// GPs replaced by a refit while journal entries still held them,
    /// oldest first.
    retired: VecDeque<Weak<GaussianProcess>>,
}

impl Inner {
    fn group_mut(&mut self, model: &str, version: u64, machine: &str) -> &mut Group {
        if let Some(i) = self
            .groups
            .iter()
            .position(|g| g.model == model && g.version == version && g.machine == machine)
        {
            return &mut self.groups[i];
        }
        if self.groups.len() == MAX_GROUPS {
            self.groups.remove(0);
        }
        self.groups.push(Group::new(model, version, machine));
        self.groups.last_mut().expect("just pushed")
    }

    /// A refit replaced `gp`. Pending entries journaled under it keep it
    /// for their σ, up to `MAX_RETIRED_GPS` replaced GPs; past that the
    /// oldest one's entries drop it, so the journal's memory stays bounded.
    fn retire(&mut self, gp: Arc<GaussianProcess>) {
        if Arc::strong_count(&gp) == 1 {
            return;
        }
        self.retired.push_back(Arc::downgrade(&gp));
        drop(gp);
        self.retired.retain(|w| w.strong_count() > 0);
        while self.retired.len() > MAX_RETIRED_GPS {
            let oldest = self.retired.pop_front().expect("over the cap");
            for entry in self.journal.values_mut() {
                if entry.gp.as_ref().is_some_and(|gp| Arc::as_ptr(gp) == oldest.as_ptr()) {
                    entry.gp = None;
                }
            }
        }
    }
}

/// The serving daemon's quality tracker. One per [`crate::Router`];
/// thread-safe.
pub struct QualityHub {
    next_id: AtomicU64,
    metrics: Arc<Metrics>,
    inner: Mutex<Inner>,
}

impl QualityHub {
    /// A hub pushing its per-group gauges into `metrics`.
    pub fn new(metrics: Arc<Metrics>) -> QualityHub {
        QualityHub { next_id: AtomicU64::new(1), metrics, inner: Mutex::new(Inner::default()) }
    }

    /// Journal capacity (pending predictions).
    pub fn journal_capacity(&self) -> usize {
        JOURNAL_CAPACITY
    }

    /// Predictions currently awaiting ground truth.
    pub fn journal_len(&self) -> usize {
        self.inner.lock().journal.len()
    }

    /// Ensure a `(model, version, machine)` group exists and its gauges
    /// are pre-registered on `/metrics`. The router calls this for every
    /// registry entry at startup and again after each successful reload,
    /// so the quality series appear on the very first scrape.
    pub fn register_group(&self, model: &str, version: u64, machine: &str) {
        let mut inner = self.inner.lock();
        let stats = inner.group_mut(model, version, machine).stats();
        drop(inner);
        self.metrics.set_model_quality(model, version, machine, stats);
    }

    /// Journal one advise answer; returns the `prediction_id` to hand
    /// to the client. `config` is `(o, v, nodes, tile)`.
    pub fn record_prediction(
        &self,
        model: &str,
        version: u64,
        machine: &str,
        config: (usize, usize, usize, usize),
        predicted_seconds: f64,
    ) -> u64 {
        self.record_prediction_with_shadow(model, version, machine, config, predicted_seconds, None)
    }

    /// [`QualityHub::record_prediction`] plus the group's shadow
    /// candidate, so `/v1/observe` can score the candidate's window
    /// alongside the serving model's. Runs no model: the entry keeps the
    /// current GP for its σ, and both are read when the measurement
    /// arrives.
    pub fn record_prediction_with_shadow(
        &self,
        model: &str,
        version: u64,
        machine: &str,
        config: (usize, usize, usize, usize),
        predicted_seconds: f64,
        shadow: Option<ShadowHandle>,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (o, v, nodes, tile) = config;
        let mut inner = self.inner.lock();
        let gp = inner.group_mut(model, version, machine).gp.clone();
        let record = PredictionRecord {
            id,
            model: model.to_string(),
            version,
            machine: machine.to_string(),
            o,
            v,
            nodes,
            tile,
            predicted_seconds,
            gp_uncertainty: None,
            shadow,
            advise_trace: obs::current_trace().map(|t| t.to_string()),
        };
        // FIFO-evict once the journal is full; consumed ids linger in
        // `order` without journal entries, so skip them.
        while inner.journal.len() >= JOURNAL_CAPACITY {
            match inner.order.pop_front() {
                Some(old) => {
                    inner.journal.remove(&old);
                }
                None => break,
            }
        }
        inner.order.push_back(id);
        inner.journal.insert(id, Journaled { record, gp });
        drop(inner);
        obs::event!(
            Level::Debug,
            "quality.prediction",
            prediction_id = id,
            model = model,
            version = version,
            machine = machine,
            o = o,
            v = v,
            nodes = nodes,
            tile = tile,
            predicted_seconds = predicted_seconds,
        );
        id
    }

    /// Score one measured runtime against its journaled prediction.
    ///
    /// Validation happens **before** any state changes: a rejected
    /// report can never skew the rolling stats. An accepted report gets
    /// its σ from the GP it was journaled under, outside the hub lock,
    /// then updates the group's window, observation pool, GP refit
    /// counter, and the drift detector, pushes the new stats to
    /// `/metrics` and emits a `quality.residual` event (plus
    /// `quality.drift` on a trip).
    pub fn observe(
        &self,
        prediction_id: u64,
        measured_seconds: f64,
    ) -> Result<ObserveOutcome, ObserveError> {
        if !measured_seconds.is_finite() || measured_seconds <= 0.0 {
            return Err(ObserveError::InvalidMeasurement);
        }
        let mut inner = self.inner.lock();
        if inner.consumed.contains(&prediction_id) {
            return Err(ObserveError::Replayed);
        }
        let Some(Journaled { mut record, gp }) = inner.journal.remove(&prediction_id) else {
            return Err(ObserveError::UnknownId);
        };
        inner.consumed.insert(prediction_id);
        inner.consumed_order.push_back(prediction_id);
        while inner.consumed_order.len() > CONSUMED_CAPACITY {
            if let Some(old) = inner.consumed_order.pop_front() {
                inner.consumed.remove(&old);
            }
        }
        drop(inner);

        // The σ is a GP prediction: run it without the hub lock, which
        // every advise answer takes.
        let config = [record.o as f64, record.v as f64, record.nodes as f64, record.tile as f64];
        record.gp_uncertainty = gp.and_then(|gp| sigma_at(&gp, config));
        let mut inner = self.inner.lock();

        let residual_seconds = record.predicted_seconds - measured_seconds;
        let ape = residual_seconds.abs() / measured_seconds;
        let group = inner.group_mut(&record.model, record.version, &record.machine);
        group.window.push(record.predicted_seconds, measured_seconds, record.gp_uncertainty);
        if group.pool.len() == POOL_CAPACITY {
            group.pool.pop_front();
            group.pool_evictions += 1;
        }
        group.pool.push_back((config, measured_seconds));
        group.accepted_since_fit += 1;
        let refit = match group.gp.is_none() || group.accepted_since_fit >= GP_REFIT_EVERY {
            true => group.gp_rows(),
            false => None,
        };
        let drift_tripped = group.detector.update(ape);
        if drift_tripped {
            group.drift_trips += 1;
            group.degraded = true;
            // Re-arm so a persisting shift is re-confirmed from scratch
            // rather than re-reported on every subsequent observation.
            group.detector.reset();
        }
        let stats = group.stats();
        let degraded = group.degraded;
        let window_mape = stats.mape;
        let pool_len = stats.pool_size as usize;
        let observations = stats.observations;
        drop(inner);

        if let Some(rows) = refit {
            self.refit_gp(&record, &rows);
        }
        self.metrics.set_model_quality(&record.model, record.version, &record.machine, stats);
        obs::event!(
            Level::Info,
            "quality.residual",
            prediction_id = prediction_id,
            model = record.model.as_str(),
            version = record.version,
            machine = record.machine.as_str(),
            o = record.o,
            v = record.v,
            nodes = record.nodes,
            tile = record.tile,
            predicted_seconds = record.predicted_seconds,
            measured_seconds = measured_seconds,
            residual_seconds = residual_seconds,
            ape = ape,
            window_mape = window_mape,
            gp_uncertainty = record.gp_uncertainty.unwrap_or(f64::NAN),
            advise_trace = record.advise_trace.clone().unwrap_or_default(),
        );
        if drift_tripped {
            obs::event!(
                Level::Warn,
                "quality.drift",
                model = record.model.as_str(),
                version = record.version,
                machine = record.machine.as_str(),
                window_mape = window_mape,
                observations = stats.observations,
            );
        }
        Ok(ObserveOutcome {
            record,
            residual_seconds,
            ape,
            window_mape,
            drift_tripped,
            degraded,
            pool_len,
            observations,
        })
    }

    /// Refit `record`'s group GP on `rows`. The tuned fit is dozens of
    /// Cholesky factorizations, so it runs without the hub lock, which
    /// every advise answer takes; the lock is retaken only to install
    /// the result, unless the group is gone or a fit of newer rows
    /// landed first. A failed fit (a degenerate pool) keeps the
    /// previous GP.
    fn refit_gp(&self, record: &PredictionRecord, rows: &GpRows) {
        let mut gp = GaussianProcess::tuned();
        if gp.fit(&rows.x, &rows.y).is_err() {
            return;
        }
        let mut inner = self.inner.lock();
        let group = inner.groups.iter_mut().find(|g| {
            g.model == record.model && g.version == record.version && g.machine == record.machine
        });
        let Some(group) = group.filter(|g| rows.at > g.gp_rows_at) else { return };
        group.gp_rows_at = rows.at;
        if let Some(replaced) = group.gp.replace(Arc::new(gp)) {
            inner.retire(replaced);
        }
    }

    /// Snapshot of one group's retained observations
    /// (`([o, v, nodes, tile], measured_seconds)`), oldest first — the
    /// training set the lifecycle trainer consumes. Empty when the group
    /// is unknown.
    pub fn retained_pool(&self, model: &str, version: u64, machine: &str) -> Vec<([f64; 4], f64)> {
        let inner = self.inner.lock();
        inner
            .groups
            .iter()
            .find(|g| g.model == model && g.version == version && g.machine == machine)
            .map(|g| g.pool.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Every tracked group's current stats, for `GET /v1/quality`.
    /// Degraded groups sort first, then by observation count.
    pub fn snapshot(&self) -> Vec<GroupSnapshot> {
        let inner = self.inner.lock();
        let mut out: Vec<GroupSnapshot> = inner
            .groups
            .iter()
            .map(|g| GroupSnapshot {
                model: g.model.clone(),
                version: g.version,
                machine: g.machine.clone(),
                stats: g.stats(),
            })
            .collect();
        out.sort_by(|a, b| {
            (b.stats.degraded, b.stats.observations, &a.model)
                .partial_cmp(&(a.stats.degraded, a.stats.observations, &b.model))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }

    /// Rank the next configurations to measure with `chemcost-active`'s
    /// uncertainty-sampling strategy, trained on the chosen group's
    /// observation pool. The candidate grid is the group's observed
    /// `(O, V)` problems crossed with the full in-grid node/tile
    /// candidates, memory-feasibility-filtered, minus configurations
    /// already measured.
    pub fn next_experiments(&self, k: usize) -> NextExperiments {
        let inner = self.inner.lock();
        // Degraded groups first (they are the ones needing retraining
        // data), then the best-observed group.
        let group = inner
            .groups
            .iter()
            .max_by_key(|g| (g.degraded, g.pool.len(), std::cmp::Reverse(g.version)));
        let Some(group) = group else {
            return NextExperiments {
                group: None,
                strategy: "US",
                configs: Vec::new(),
                reason: Some("no serving group has received observations yet".to_string()),
            };
        };
        let chosen = (group.model.clone(), group.version, group.machine.clone());
        if group.pool.len() < MIN_OBSERVATIONS_FOR_EXPERIMENTS {
            return NextExperiments {
                group: Some(chosen),
                strategy: "US",
                configs: Vec::new(),
                reason: Some(format!(
                    "only {} observations; need at least {MIN_OBSERVATIONS_FOR_EXPERIMENTS}",
                    group.pool.len()
                )),
            };
        }
        let Some(machine) = by_name(&group.machine) else {
            return NextExperiments {
                group: Some(chosen),
                strategy: "US",
                configs: Vec::new(),
                reason: Some(format!("unknown machine {:?}", group.machine)),
            };
        };

        // Labelled set: the most recent pool rows (bounds the GP fit).
        let rows: Vec<&([f64; 4], f64)> = group.pool.iter().rev().take(GP_MAX_FIT).collect();
        let x_labeled = Matrix::from_fn(rows.len(), 4, |i, j| rows[i].0[j]);
        let y_labeled: Vec<f64> = rows.iter().map(|(_, m)| *m).collect();
        let seed = group.window.observations();

        // Candidate grid: observed problems × full node/tile grid,
        // memory-feasible, minus already-measured configurations.
        let mut problems: Vec<(usize, usize)> =
            group.pool.iter().map(|(f, _)| (f[0] as usize, f[1] as usize)).collect();
        problems.sort_unstable();
        problems.dedup();
        let measured: HashSet<[u64; 4]> = group
            .pool
            .iter()
            .map(|(f, _)| [f[0] as u64, f[1] as u64, f[2] as u64, f[3] as u64])
            .collect();
        let mut candidates: Vec<(usize, usize, usize, usize)> = Vec::new();
        for &(o, v) in &problems {
            let problem = Problem::new(o, v);
            for &nodes in &chemcost_sim::datagen::node_candidates() {
                if !fits_in_memory(&problem, nodes, &machine) {
                    continue;
                }
                for &tile in &chemcost_sim::datagen::tile_candidates() {
                    if measured.contains(&[o as u64, v as u64, nodes as u64, tile as u64]) {
                        continue;
                    }
                    candidates.push((o, v, nodes, tile));
                }
            }
        }
        drop(inner);
        if candidates.is_empty() {
            return NextExperiments {
                group: Some(chosen),
                strategy: "US",
                configs: Vec::new(),
                reason: Some("every in-grid feasible configuration is already measured".into()),
            };
        }
        // Stride-thin an oversized grid so the GP scoring pass stays
        // bounded; log nothing — the ranking is a sample either way.
        if candidates.len() > MAX_CANDIDATES {
            let stride = candidates.len().div_ceil(MAX_CANDIDATES);
            candidates = candidates.into_iter().step_by(stride).collect();
        }
        let x_pool = Matrix::from_fn(candidates.len(), 4, |i, j| match j {
            0 => candidates[i].0 as f64,
            1 => candidates[i].1 as f64,
            2 => candidates[i].2 as f64,
            _ => candidates[i].3 as f64,
        });
        match chemcost_active::rank_next_experiments(&x_labeled, &y_labeled, &x_pool, k, seed) {
            Ok(ranked) => NextExperiments {
                group: Some(chosen),
                strategy: "US",
                configs: ranked
                    .into_iter()
                    .map(|r| {
                        let (o, v, nodes, tile) = candidates[r.index];
                        ExperimentConfig { o, v, nodes, tile, score: r.score }
                    })
                    .collect(),
                reason: None,
            },
            Err(e) => NextExperiments {
                group: Some(chosen),
                strategy: "US",
                configs: Vec::new(),
                reason: Some(format!("ranking model failed to fit: {e}")),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chemcost_lifecycle::{LifecycleConfig, LifecycleHub};
    use chemcost_ml::flat::FlatGbt;
    use chemcost_ml::gradient_boosting::GradientBoosting;
    use chemcost_ml::persist::Lineage;

    fn hub() -> QualityHub {
        QualityHub::new(Arc::new(Metrics::new()))
    }

    fn journal_one(h: &QualityHub, predicted: f64) -> u64 {
        h.record_prediction("gb", 1, "aurora", (99, 718, 120, 90), predicted)
    }

    #[test]
    fn ids_are_unique_and_monotonic() {
        let h = hub();
        let a = journal_one(&h, 100.0);
        let b = journal_one(&h, 100.0);
        assert!(b > a);
        assert_eq!(h.journal_len(), 2);
    }

    #[test]
    fn observe_scores_matches_and_updates_metrics() {
        let metrics = Arc::new(Metrics::new());
        let h = QualityHub::new(metrics.clone());
        let id = h.record_prediction("gb", 1, "aurora", (99, 718, 120, 90), 110.0);
        let out = h.observe(id, 100.0).unwrap();
        assert_eq!(out.record.id, id);
        assert!((out.residual_seconds - 10.0).abs() < 1e-12);
        assert!((out.ape - 0.1).abs() < 1e-12);
        assert!((out.window_mape - 0.1).abs() < 1e-12);
        assert!(!out.drift_tripped);
        assert!(!out.degraded);
        let entries = metrics.quality_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].model, "gb");
        assert!((entries[0].stats.mape - 0.1).abs() < 1e-12);
        assert_eq!(entries[0].stats.observations, 1);
        assert_eq!(h.journal_len(), 0, "observed entries leave the journal");
    }

    #[test]
    fn unknown_replayed_and_invalid_reports_are_rejected_without_skew() {
        let h = hub();
        assert_eq!(h.observe(999, 1.0).unwrap_err(), ObserveError::UnknownId);
        let id = journal_one(&h, 50.0);
        assert_eq!(h.observe(id, f64::NAN).unwrap_err(), ObserveError::InvalidMeasurement);
        assert_eq!(h.observe(id, -3.0).unwrap_err(), ObserveError::InvalidMeasurement);
        assert_eq!(h.observe(id, 0.0).unwrap_err(), ObserveError::InvalidMeasurement);
        // Rejections must not have consumed the id or touched the stats.
        let out = h.observe(id, 50.0).unwrap();
        assert_eq!(out.record.id, id);
        assert_eq!(h.snapshot()[0].stats.observations, 1);
        // A second report for the same id is a replay.
        assert_eq!(h.observe(id, 50.0).unwrap_err(), ObserveError::Replayed);
        assert_eq!(h.snapshot()[0].stats.observations, 1, "replay must not skew stats");
    }

    #[test]
    fn journal_evicts_oldest_when_full() {
        let h = hub();
        let first = journal_one(&h, 1.0);
        for _ in 0..JOURNAL_CAPACITY {
            journal_one(&h, 1.0);
        }
        assert_eq!(h.journal_len(), JOURNAL_CAPACITY);
        assert_eq!(h.observe(first, 1.0).unwrap_err(), ObserveError::UnknownId);
    }

    #[test]
    fn drift_detector_trips_on_sustained_error_shift_and_flags_degraded() {
        let h = hub();
        // Healthy phase: ~5% error.
        for i in 0..40 {
            let id = journal_one(&h, 100.0);
            let measured = 100.0 / (1.0 + 0.05 * if i % 2 == 0 { 1.0 } else { -1.0 });
            let out = h.observe(id, measured).unwrap();
            assert!(!out.drift_tripped, "false trip at healthy observation {i}");
        }
        // The world shifts: real runtimes jump 60% above predictions.
        let mut tripped = false;
        for _ in 0..50 {
            let id = journal_one(&h, 100.0);
            let out = h.observe(id, 160.0).unwrap();
            if out.drift_tripped {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "a 60% runtime shift must trip the detector within 50 observations");
        let snap = h.snapshot();
        assert!(snap[0].stats.degraded);
        assert_eq!(snap[0].stats.drift_trips, 1);
    }

    #[test]
    fn predictions_carry_gp_uncertainty_once_the_pool_warms_up() {
        let h = hub();
        for i in 0..(GP_REFIT_EVERY as usize + 4) {
            let id = h.record_prediction(
                "gb",
                1,
                "aurora",
                (99, 718, 20 + 10 * (i % 6), 40 + 10 * (i % 5)),
                100.0 + i as f64,
            );
            h.observe(id, 95.0 + i as f64).unwrap();
        }
        let id = journal_one(&h, 120.0);
        let out = h.observe(id, 118.0).unwrap();
        assert!(
            out.record.gp_uncertainty.is_some(),
            "after {} observations the GP must be fit",
            GP_REFIT_EVERY + 4
        );
        assert!(out.record.gp_uncertainty.unwrap() >= 0.0);
        // Calibration ratio becomes defined once σ-carrying residuals land.
        assert!(!h.snapshot()[0].stats.calibration_ratio.is_nan());
    }

    /// The GP is fit outside the hub lock on a copy of the pool rows;
    /// the installed model is the one a fit under the lock would give.
    #[test]
    fn gp_refit_outside_the_lock_matches_a_fit_on_the_same_rows() {
        let h = hub();
        // 4 observations fit the first GP; 16 more trigger the refit on
        // all 20 rows that installs the GP checked below.
        for i in 0..4 + GP_REFIT_EVERY as usize {
            let config = (99 + i % 3, 718, 20 + 10 * (i % 6), 40 + 10 * (i % 5));
            let id = h.record_prediction("gb", 1, "aurora", config, 100.0 + i as f64);
            h.observe(id, 95.0 + 2.0 * i as f64).unwrap();
        }
        let installed = h.inner.lock().groups[0].gp.clone().expect("GP installed");
        // What a refit under the lock fit: the pool's rows, newest first.
        let pool = h.retained_pool("gb", 1, "aurora");
        let rows: Vec<&([f64; 4], f64)> = pool.iter().rev().collect();
        let x = Matrix::from_fn(rows.len(), 4, |i, j| rows[i].0[j]);
        let y: Vec<f64> = rows.iter().map(|(_, m)| *m).collect();
        let mut reference = GaussianProcess::tuned();
        reference.fit(&x, &y).unwrap();
        for at in
            [[99.0, 718.0, 20.0, 40.0], [100.0, 718.0, 70.0, 80.0], [120.0, 900.0, 64.0, 24.0]]
        {
            let sigma = sigma_at(&installed, at);
            assert!(sigma.is_some());
            assert_eq!(sigma, sigma_at(&reference, at), "σ at {at:?}");
        }
        // The journal reads σ from the installed GP.
        let id = h.record_prediction("gb", 1, "aurora", (99, 718, 20, 40), 100.0);
        let out = h.observe(id, 101.0).unwrap();
        assert_eq!(out.record.gp_uncertainty, sigma_at(&installed, [99.0, 718.0, 20.0, 40.0]));
    }

    #[test]
    fn pool_evictions_are_counted_and_retained_pool_snapshots() {
        let h = hub();
        for i in 0..POOL_CAPACITY + 3 {
            let id = h.record_prediction("gb", 1, "aurora", (99, 718, 120, 90), 100.0 + i as f64);
            let out = h.observe(id, 100.0 + i as f64).unwrap();
            assert_eq!(out.observations, i as u64 + 1);
            assert_eq!(out.pool_len, (i + 1).min(POOL_CAPACITY));
        }
        let snap = &h.snapshot()[0];
        assert_eq!(snap.stats.pool_size, POOL_CAPACITY as u64);
        assert_eq!(snap.stats.pool_evictions, 3, "silent drops must be counted");
        let pool = h.retained_pool("gb", 1, "aurora");
        assert_eq!(pool.len(), POOL_CAPACITY);
        // Oldest first; the three oldest measurements were evicted.
        assert!((pool[0].1 - 103.0).abs() < 1e-12);
        assert!((pool[POOL_CAPACITY - 1].1 - (100.0 + (POOL_CAPACITY + 2) as f64)).abs() < 1e-12);
        assert!(h.retained_pool("gb", 2, "aurora").is_empty());
        assert!(h.retained_pool("other", 1, "aurora").is_empty());
    }

    #[test]
    fn shadow_handles_round_trip_through_observe() {
        let lifecycle = LifecycleHub::new(LifecycleConfig::default());
        let x = Matrix::from_fn(40, 4, |i, j| [60.0 + i as f64, 600.0, 8.0, 20.0][j]);
        let y: Vec<f64> = (0..40).map(|i| 100.0 + i as f64).collect();
        let mut gb = GradientBoosting::new(5, 2, 0.3);
        gb.fit(&x, &y).unwrap();
        let lineage = Lineage {
            parent_version: 1,
            train_rows: 40,
            observed_rows: 0,
            fit_duration_ms: 0,
            seed: 0,
        };
        lifecycle.install_candidate("gb", "aurora", Arc::new(FlatGbt::compile(&gb)), lineage);
        let shadow = lifecycle.shadow_candidate("gb", "aurora");
        let h = hub();
        let id =
            h.record_prediction_with_shadow("gb", 1, "aurora", (99, 718, 120, 90), 110.0, shadow);
        let out = h.observe(id, 100.0).unwrap();
        let handle = out.record.shadow.as_ref().expect("the handle rides the journal");
        let features = [99.0, 718.0, 120.0, 90.0];
        let scored = lifecycle.score_shadow("gb", "aurora", handle, &features);
        assert_eq!(scored, lifecycle.shadow_predict("gb", "aurora", &features));
        assert!(scored.is_some());
        // The plain journal path leaves the shadow slot empty.
        let id = journal_one(&h, 110.0);
        let out = h.observe(id, 100.0).unwrap();
        assert!(out.record.shadow.is_none());
    }

    /// σ comes from the GP current when the prediction was journaled,
    /// even when a refit replaced it before the measurement arrived.
    #[test]
    fn sigma_comes_from_the_gp_the_prediction_was_journaled_under() {
        let h = hub();
        let observe_at = |i: usize| {
            let config = (99 + i % 3, 718, 20 + 10 * (i % 6), 40 + 10 * (i % 5));
            let id = h.record_prediction("gb", 1, "aurora", config, 100.0 + i as f64);
            h.observe(id, 95.0 + 2.0 * i as f64).unwrap();
        };
        (0..4).for_each(observe_at);
        let first = h.inner.lock().groups[0].gp.clone().expect("GP fit after 4 observations");
        let pending = h.record_prediction("gb", 1, "aurora", (120, 900, 64, 24), 100.0);
        (4..4 + GP_REFIT_EVERY as usize).for_each(observe_at);
        let refit = h.inner.lock().groups[0].gp.clone().expect("GP refit");
        assert!(!Arc::ptr_eq(&first, &refit));
        let at = [120.0, 900.0, 64.0, 24.0];
        assert_ne!(sigma_at(&first, at), sigma_at(&refit, at));
        let out = h.observe(pending, 101.0).unwrap();
        assert_eq!(out.record.gp_uncertainty, sigma_at(&first, at));
        assert!(out.record.gp_uncertainty.is_some());
    }

    /// Pending entries keep at most `MAX_RETIRED_GPS` replaced GPs alive.
    #[test]
    fn journal_entries_let_go_of_the_oldest_retired_gps() {
        let h = hub();
        let mut inner = h.inner.lock();
        let gps: Vec<Arc<GaussianProcess>> =
            (0..MAX_RETIRED_GPS + 2).map(|_| Arc::new(GaussianProcess::tuned())).collect();
        for (i, gp) in gps.iter().enumerate() {
            let record = PredictionRecord {
                id: i as u64,
                model: "gb".into(),
                version: 1,
                machine: "aurora".into(),
                o: 99,
                v: 718,
                nodes: 20,
                tile: 40,
                predicted_seconds: 100.0,
                gp_uncertainty: None,
                shadow: None,
                advise_trace: None,
            };
            inner.journal.insert(i as u64, Journaled { record, gp: Some(Arc::clone(gp)) });
        }
        // A GP no entry holds is not kept.
        inner.retire(Arc::new(GaussianProcess::tuned()));
        assert!(inner.retired.is_empty());
        for gp in gps {
            inner.retire(gp);
        }
        assert_eq!(inner.retired.len(), MAX_RETIRED_GPS);
        let held = |i: u64| inner.journal[&i].gp.is_some();
        assert!(!held(0) && !held(1), "the two oldest retired GPs are let go");
        assert!((2..MAX_RETIRED_GPS as u64 + 2).all(held));
    }

    #[test]
    fn next_experiments_requires_observations_then_ranks_in_grid() {
        let h = hub();
        let none = h.next_experiments(5);
        assert!(none.group.is_none());
        assert!(none.configs.is_empty());
        assert!(none.reason.is_some());

        // Two observed problems, several configs each.
        for i in 0..12 {
            let id = h.record_prediction(
                "gb",
                1,
                "aurora",
                (
                    if i % 2 == 0 { 99 } else { 134 },
                    if i % 2 == 0 { 718 } else { 951 },
                    [20, 30, 50, 80, 120, 150][i % 6],
                    40 + 10 * (i % 4),
                ),
                500.0 + 20.0 * i as f64,
            );
            h.observe(id, 480.0 + 21.0 * i as f64).unwrap();
        }
        let plan = h.next_experiments(10);
        assert_eq!(plan.group.as_ref().map(|(m, ..)| m.as_str()), Some("gb"));
        assert_eq!(plan.strategy, "US");
        assert!(plan.reason.is_none(), "{:?}", plan.reason);
        assert!(!plan.configs.is_empty());
        assert!(plan.configs.len() <= 10);
        let nodes_grid = chemcost_sim::datagen::node_candidates();
        let tile_grid = chemcost_sim::datagen::tile_candidates();
        let mut seen = HashSet::new();
        for c in &plan.configs {
            assert!([(99, 718), (134, 951)].contains(&(c.o, c.v)), "{c:?}");
            assert!(nodes_grid.contains(&c.nodes), "{c:?} nodes not in grid");
            assert!(tile_grid.contains(&c.tile), "{c:?} tile not in grid");
            assert!(c.score.is_finite() && c.score >= 0.0);
            assert!(seen.insert((c.o, c.v, c.nodes, c.tile)), "duplicate {c:?}");
        }
        // Ranked best-first.
        for pair in plan.configs.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
    }
}
