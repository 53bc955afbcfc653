//! Bridge between the serve daemon and the `chemcost-health` plane.
//!
//! `chemcost-health` is deliberately ignorant of this crate: it stores
//! and judges abstract named series. This module owns the mapping —
//! the schema derived from the health aliases in [`FAMILIES`], what the
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

use crate::metrics::{
    Counter, Gauge, Hist, Metrics, QualityEntry, QualityRead, Slot, Source, ALERTS_FIRING,
    ALERTS_PENDING, ALERT_TRANSITIONS, FAMILIES, SLO_BREACHING, SLO_EVALUATIONS, SLO_SCRAPES,
};
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

/// Where `sample` reads one counter or float series of the schema.
enum Read {
    /// A slot-backed counter.
    Counter(Counter),
    /// The model staleness clock.
    Staleness,
    /// A quality family over every version of one `(model, machine)`
    /// group: a counter sums the versions, a gauge takes their maximum
    /// (NaN until any version has data).
    Group { read: QualityRead, sum: bool, model: String, machine: String },
}

impl Read {
    fn value(&self, metrics: &Metrics, quality: &[QualityEntry]) -> f64 {
        match self {
            Read::Counter(counter) => metrics.count(*counter) as f64,
            Read::Staleness => metrics.model_staleness_seconds(),
            Read::Group { read, sum, model, machine } => {
                let versions = quality
                    .iter()
                    .filter(|e| &e.model == model && &e.machine == machine)
                    .map(|e| read(&e.stats, 0));
                match sum {
                    true => versions.sum(),
                    false => versions.filter(|v| !v.is_nan()).fold(f64::NAN, f64::max),
                }
            }
        }
    }
}

/// Samples one [`Metrics`] registry into [`Sample`]s with a fixed
/// schema: every series of every [`FAMILIES`] row that has a health
/// alias, in table order. Construction captures the quality groups
/// registered at that moment.
pub struct MetricsSampler {
    schema: Arc<Schema>,
    counters: Vec<Read>,
    gauges: Vec<Gauge>,
    values: Vec<Read>,
    histograms: Vec<Hist>,
}

impl MetricsSampler {
    /// Build the sampler and its schema from [`FAMILIES`] and the
    /// currently registered quality groups.
    pub fn new(metrics: &Metrics) -> MetricsSampler {
        let mut groups: Vec<(String, String)> = Vec::new();
        for entry in metrics.quality_entries().iter() {
            let key = (entry.model.clone(), entry.machine.clone());
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        let mut schema = Schema::default();
        let (mut counters, mut gauges, mut values, mut histograms) =
            (vec![], vec![], vec![], vec![]);
        for (row, family) in FAMILIES.iter().enumerate() {
            let Some(alias) = family.alias else { continue };
            let name = |i: usize| match family.series_values(i) {
                [] => alias.to_string(),
                labels => format!("{alias}.{}", labels.join(".")),
            };
            for i in 0..family.width() {
                match family.source {
                    Source::Counters => {
                        schema.counters.push(name(i));
                        counters.push(Read::Counter(Slot::nth(row, i)));
                    }
                    Source::Gauges => {
                        schema.gauges.push(name(i));
                        gauges.push(Slot::nth(row, i));
                    }
                    Source::Histograms(buckets) => {
                        schema
                            .histograms
                            .push(HistSchema { name: name(i), bounds: buckets.bounds.to_vec() });
                        histograms.push(Slot::nth(row, i));
                    }
                    Source::Staleness => {
                        schema.values.push(name(i));
                        values.push(Read::Staleness);
                    }
                    Source::QualityCounter(read) | Source::QualityGauge(read) => {
                        let sum = matches!(family.source, Source::QualityCounter(_));
                        let (names, reads) = match sum {
                            true => (&mut schema.counters, &mut counters),
                            false => (&mut schema.values, &mut values),
                        };
                        for (model, machine) in &groups {
                            names.push(format!("{alias}.{model}@{machine}"));
                            let (model, machine) = (model.clone(), machine.clone());
                            reads.push(Read::Group { read, sum, model, machine });
                        }
                    }
                    Source::One | Source::LifecycleState => {}
                }
            }
        }
        let schema = Arc::new(schema);
        MetricsSampler { schema, counters, gauges, values, histograms }
    }

    /// The schema `sample()` produces.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Read every schema series out of `metrics`, stamped `unix_us`.
    pub fn sample(&self, metrics: &Metrics, unix_us: u64) -> Sample {
        let quality = metrics.quality_entries();
        let counters = (self.counters.iter())
            .map(|read| match read {
                Read::Counter(counter) => metrics.count(*counter),
                read => read.value(metrics, &quality) as u64,
            })
            .collect();
        let gauges = self.gauges.iter().map(|&gauge| metrics.gauge(gauge) as i64).collect();
        let values = self.values.iter().map(|read| read.value(metrics, &quality)).collect();
        let hists = (self.histograms.iter())
            .map(|&hist| {
                let (buckets, sum_micros, count) = metrics.snapshot(hist);
                HistSample { buckets: buckets.to_vec(), sum_micros, count }
            })
            .collect();
        Sample { unix_us, counters, gauges, values, hists }
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
        obs_metrics.inc(ALERT_TRANSITIONS[t.to as usize]);
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
                    metrics.gauge_set(ALERTS_FIRING, verdict.firing);
                    metrics.gauge_set(ALERTS_PENDING, verdict.pending);
                    metrics.inc(SLO_SCRAPES);
                    metrics.add(SLO_EVALUATIONS, hub.slo_count() as u64);
                    metrics.gauge_set(SLO_BREACHING, hub.breaching_count() as usize);
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

    /// Absence of evidence never breaches, so an SLO whose series was
    /// renamed away would be silently disabled: every built-in signal
    /// must read at least one schema series of the kind it measures.
    #[test]
    fn every_builtin_slo_reads_a_live_schema_series() {
        let metrics = Metrics::new();
        metrics.set_model_quality("gb", 1, "aurora", crate::metrics::QualityStats::default());
        let sampler = MetricsSampler::new(&metrics);
        let schema = sampler.schema();
        let any = |names: &[String], prefix: &str| names.iter().any(|n| n.starts_with(prefix));
        for slo in builtin_slos() {
            let live = match &slo.signal {
                Signal::Quantile { hist, .. } => schema.histogram_index(hist).is_some(),
                Signal::Ratio { num, den } => {
                    num.iter().chain(den).all(|p| any(&schema.counters, p))
                }
                Signal::Rate { counters } => counters.iter().all(|p| any(&schema.counters, p)),
                Signal::DeltaPrefix { prefix } => any(&schema.counters, prefix),
                Signal::ValueMax { prefix } => any(&schema.values, prefix),
                Signal::GaugeMax { prefix } => any(&schema.gauges, prefix),
            };
            assert!(live, "{} reads no schema series: {:?}", slo.name, slo.signal);
        }
        let sample = sampler.sample(&metrics, 1);
        assert_eq!(schema.flatten(&sample).len(), schema.width());
    }
}
