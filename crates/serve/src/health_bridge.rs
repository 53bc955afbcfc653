//! Bridge between the serve daemon and the `chemcost-health` plane.
//!
//! `chemcost-health` is deliberately ignorant of this crate: it stores
//! and judges abstract named series. This module owns the mapping —
//! which [`Metrics`] readers feed which schema series, what the
//! built-in SLOs are, and the background sampler thread that
//! self-scrapes the registry every `--scrape-interval-ms` into the
//! hub's delta-compressed ring.
//!
//! Schema series names are stable, dot-separated, and documented in
//! `docs/HEALTH.md`; `--slo-file` rules reference them by name or
//! prefix. Per-group quality series (`quality.mape.<model>@<machine>`)
//! are fixed at sampler start from the groups registered at that
//! moment — groups appearing later (a model added mid-run) join the
//! schema on the next restart.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use chemcost_health::{
    HealthConfig, HealthHub, HistSample, HistSchema, Sample, Schema, Signal, SloSpec,
};
use chemcost_obs::{self as obs, Level};

use crate::fault::FaultKind;
use crate::metrics::{AdviseStage, DeadlineStage, Metrics, RequestStage, Route};
use crate::routes::Router;

/// The built-in objectives, evaluated out of the box (and joined by
/// any `--slo-file` rules). Thresholds are deliberately loose — they
/// flag "users can tell something is wrong", not "p99 drifted 5%".
pub fn builtin_slos() -> Vec<SloSpec> {
    vec![
        // Whole-request handler p99; advise sweeps dominate the tail.
        SloSpec::new(
            "advise_p99_latency",
            Signal::Quantile { hist: "latency".into(), q: 0.99 },
            0.5,
        )
        .critical(),
        // Errors and sheds per request (sheds count as errors under
        // the `other` route, so `errors.` covers both).
        SloSpec::new(
            "error_ratio",
            Signal::Ratio { num: vec!["errors.".into()], den: vec!["requests.".into()] },
            0.05,
        )
        .critical(),
        SloSpec::new(
            "deadline_miss_ratio",
            Signal::Ratio { num: vec!["deadline_exceeded".into()], den: vec!["requests.".into()] },
            0.02,
        ),
        // Worst windowed MAPE across serving groups: the paper's
        // "guidance you can trust" bar.
        SloSpec::new("model_mape", Signal::ValueMax { prefix: "quality.mape.".into() }, 0.35),
        // Any drift-detector trip inside the window.
        SloSpec::new(
            "drift_trips",
            Signal::DeltaPrefix { prefix: "quality.drift_trips.".into() },
            0.5,
        ),
    ]
}

/// Samples one [`Metrics`] registry into [`Sample`]s with a fixed
/// schema. Construction captures the quality groups registered at that
/// moment; `sample()` then reads every series in schema order.
pub struct MetricsSampler {
    schema: Arc<Schema>,
    /// `(model, machine)` pairs feeding the per-group series, in
    /// schema order.
    groups: Vec<(String, String)>,
}

impl MetricsSampler {
    /// Build the sampler and its schema from the currently registered
    /// quality groups.
    pub fn new(metrics: &Metrics) -> MetricsSampler {
        let mut groups: Vec<(String, String)> = Vec::new();
        for entry in metrics.quality_entries() {
            let key = (entry.model.clone(), entry.machine.clone());
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        let mut counters = Vec::new();
        for route in Route::ALL {
            counters.push(format!("requests.{}", route.label()));
        }
        for route in Route::ALL {
            counters.push(format!("errors.{}", route.label()));
        }
        counters.push("shed".into());
        counters.push("deadline_exceeded".into());
        counters.push("reload_failures".into());
        counters.push("stale_served".into());
        counters.push("keepalive_reuses".into());
        counters.push("cache.hits".into());
        counters.push("cache.misses".into());
        counters.push("quality.accepted".into());
        counters.push("quality.rejected".into());
        counters.push("loop.iterations".into());
        for (model, machine) in &groups {
            counters.push(format!("quality.drift_trips.{model}@{machine}"));
        }
        let gauges = vec![
            "inflight".to_string(),
            "queue.depth".to_string(),
            "connections.open".to_string(),
            "connections.read_paused".to_string(),
            "connections.write_stalled".to_string(),
            "cache.entries".to_string(),
        ];
        let mut values = vec!["staleness_seconds".to_string()];
        for (model, machine) in &groups {
            values.push(format!("quality.mape.{model}@{machine}"));
        }
        let bounds: Vec<f64> = Metrics::histogram_bounds().to_vec();
        let mut histograms = vec![HistSchema { name: "latency".into(), bounds: bounds.clone() }];
        for stage in AdviseStage::ALL {
            histograms.push(HistSchema {
                name: format!("advise.{}", stage.label()),
                bounds: bounds.clone(),
            });
        }
        for stage in RequestStage::ALL {
            histograms.push(HistSchema {
                name: format!("stage.{}", stage.label()),
                bounds: bounds.clone(),
            });
        }
        let schema = Arc::new(Schema { counters, gauges, values, histograms });
        MetricsSampler { schema, groups }
    }

    /// The schema `sample()` produces.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Read every schema series out of `metrics`, stamped `unix_us`.
    /// Series order must mirror the constructor exactly; the width
    /// assert catches any drift between the two.
    pub fn sample(&self, metrics: &Metrics, unix_us: u64) -> Sample {
        let mut counters = Vec::with_capacity(self.schema.counters.len());
        for route in Route::ALL {
            counters.push(metrics.requests(route));
        }
        for route in Route::ALL {
            counters.push(metrics.errors(route));
        }
        counters.push(metrics.shed_total());
        counters.push(DeadlineStage::ALL.iter().map(|&s| metrics.deadline_exceeded(s)).sum());
        counters.push(metrics.reload_failures());
        counters.push(metrics.stale_served());
        counters.push(metrics.keepalive_reuses());
        counters.push(metrics.cache_hits());
        counters.push(metrics.cache_misses());
        counters.push(metrics.quality_accepted());
        counters.push(metrics.quality_rejected());
        counters.push(metrics.loop_iterations());
        let quality = metrics.quality_entries();
        for (model, machine) in &self.groups {
            let trips: u64 = quality
                .iter()
                .filter(|e| &e.model == model && &e.machine == machine)
                .map(|e| e.stats.drift_trips)
                .sum();
            counters.push(trips);
        }
        let gauges = vec![
            metrics.in_flight() as i64,
            metrics.pool_queue_depth() as i64,
            metrics.connections_open() as i64,
            metrics.read_paused() as i64,
            metrics.write_stalled() as i64,
            metrics.cache_entries() as i64,
        ];
        let mut values = vec![metrics.model_staleness_seconds()];
        for (model, machine) in &self.groups {
            // Worst (max) MAPE across the group's versions; NaN until
            // any version has data.
            let mape = quality
                .iter()
                .filter(|e| &e.model == model && &e.machine == machine)
                .map(|e| e.stats.mape)
                .filter(|m| !m.is_nan())
                .fold(f64::NAN, f64::max);
            values.push(mape);
        }
        let mut hists = Vec::with_capacity(self.schema.histograms.len());
        let push = |hists: &mut Vec<HistSample>,
                    (buckets, sum_micros, count): ([u64; 11], u64, u64)| {
            hists.push(HistSample { buckets: buckets.to_vec(), sum_micros, count });
        };
        push(&mut hists, metrics.latency_snapshot());
        for stage in AdviseStage::ALL {
            push(&mut hists, metrics.advise_stage_snapshot(stage));
        }
        for stage in RequestStage::ALL {
            push(&mut hists, metrics.request_stage_snapshot(stage));
        }
        let sample = Sample { unix_us, counters, gauges, values, hists };
        debug_assert_eq!(self.schema.flatten(&sample).len(), self.schema.width());
        sample
    }

    /// Faults injected so far, summed over kinds (not part of the
    /// schema; used by the chaos soak assertions).
    pub fn faults_total(metrics: &Metrics) -> u64 {
        FaultKind::ALL.iter().map(|&k| metrics.faults_injected(k)).sum()
    }
}

/// The running health plane: sampler thread + hub. Dropping the handle
/// does NOT stop the thread; call [`HealthHandle::stop`].
pub struct HealthHandle {
    hub: Arc<HealthHub>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HealthHandle {
    /// The hub serving `/v1/health` and `/debug/slo`.
    pub fn hub(&self) -> &Arc<HealthHub> {
        &self.hub
    }

    /// Signal the sampler thread and join it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

fn unix_us_now() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_micros() as u64).unwrap_or(0)
}

/// Build the hub for `router`, install it on the router, register the
/// metrics + obs-event transition observer, and start the background
/// sampler thread. The returned handle must be `stop()`ped during
/// drain (the `Server::run` epilogue does).
pub fn start(router: &Router, config: HealthConfig) -> HealthHandle {
    let metrics = Arc::clone(router.metrics());
    let sampler = MetricsSampler::new(&metrics);
    let hub = Arc::new(HealthHub::new(Arc::clone(sampler.schema()), &config));
    router.install_health(Arc::clone(&hub));
    let obs_metrics = Arc::clone(&metrics);
    hub.on_transition(Box::new(move |t| {
        obs_metrics.record_alert_transition(t.to.label());
        obs::event!(
            Level::Warn,
            "health.alert",
            slo = t.slo.as_str(),
            from = t.from.label(),
            to = t.to.label(),
            value = t.value,
            threshold = t.threshold,
            critical = t.critical,
        );
    }));
    let stop = Arc::new(AtomicBool::new(false));
    let thread = {
        let hub = Arc::clone(&hub);
        let stop = Arc::clone(&stop);
        let interval = config.scrape_interval.max(Duration::from_millis(1));
        std::thread::Builder::new()
            .name("health-sampler".into())
            .spawn(move || {
                // Poll the stop flag at most every 50 ms so drain never
                // waits a full scrape interval on this thread.
                let nap = interval.min(Duration::from_millis(50));
                let mut next = std::time::Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    if std::time::Instant::now() < next {
                        std::thread::sleep(nap);
                        continue;
                    }
                    next += interval;
                    let sample = sampler.sample(&metrics, unix_us_now());
                    hub.ingest(&sample);
                    let verdict = hub.verdict();
                    metrics.set_alert_gauges(verdict.firing, verdict.pending);
                    metrics
                        .record_slo_scrape(hub.slo_count() as u64, hub.breaching_count() as usize);
                }
            })
            .expect("spawn health sampler")
    };
    HealthHandle { hub, stop, thread: Some(thread) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_slos_are_the_five_documented_objectives() {
        let names: Vec<String> = builtin_slos().into_iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "advise_p99_latency",
                "error_ratio",
                "deadline_miss_ratio",
                "model_mape",
                "drift_trips"
            ]
        );
    }

    #[test]
    fn schema_has_no_batch_series() {
        let sampler = MetricsSampler::new(&Metrics::new());
        let schema = sampler.schema();
        assert!(schema.counters.iter().all(|c| !c.starts_with("batch.")), "{:?}", schema.counters);
        let stages: Vec<&str> = schema.histograms.iter().map(|h| h.name.as_str()).collect();
        assert!(!stages.contains(&"stage.batch_wait"), "{stages:?}");
        assert_eq!(stages.iter().filter(|h| h.starts_with("stage.")).count(), 5);
    }
}
