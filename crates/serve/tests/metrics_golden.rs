//! Golden fixtures of the `/metrics` exposition.
//!
//! `golden/metrics_fresh.prom` is a just-started registry (one quality
//! group and one lifecycle group registered, nothing recorded yet);
//! `golden/metrics_filled.prom` is a registry in which every family
//! holds a non-zero value, each series of a labelled family a distinct
//! one, so a series rendered under the wrong label changes the bytes.
//! `Metrics::render` must reproduce both byte for byte. The
//! `chemcost_build_info` line is normalised (its labels come from the
//! build environment), and the staleness gauge is held at 0 (it reads
//! the clock).

use std::time::Duration;

use chemcost_health::AlertState;
use chemcost_lifecycle::{LifecycleState, PromotionOutcome};
use chemcost_serve::fault::FaultKind;
use chemcost_serve::metrics::*;
use chemcost_serve::Metrics;

/// The render output with the build-info sample line normalised.
fn normalised(m: &Metrics) -> String {
    m.render()
        .lines()
        .map(|l| if l.starts_with("chemcost_build_info{") { "chemcost_build_info{…} 1" } else { l })
        .map(|l| format!("{l}\n"))
        .collect()
}

fn registered() -> Metrics {
    let m = Metrics::new();
    m.set_model_quality("gb", 1, "aurora", QualityStats::default());
    m.set_lifecycle_state("gb", "aurora", LifecycleState::Idle);
    m
}

fn us(n: u64) -> Duration {
    Duration::from_micros(n)
}

/// Give every series of every family its own non-zero value.
fn fill(m: &Metrics) {
    for (i, route) in Route::ALL.into_iter().enumerate() {
        for k in 0..=i as u64 {
            m.record(route, false, us(40 + 700 * k));
            m.record(route, true, us(25 + 90_000 * k));
        }
    }
    m.record_shed();
    m.record_shed();
    for _ in 0..3 {
        m.gauge_add(IN_FLIGHT, 1);
    }
    for _ in 0..4 {
        m.gauge_add(POOL_QUEUE_DEPTH, 1);
    }
    for (i, stage) in AdviseStage::ALL.into_iter().enumerate() {
        for k in 0..=i {
            m.observe(ADVISE_STAGES[stage as usize], us(90 + 3_000 * (i + k) as u64));
        }
    }
    for _ in 0..5 {
        m.inc(CACHE_HITS);
    }
    for _ in 0..6 {
        m.inc(CACHE_MISSES);
    }
    m.gauge_set(CACHE_ENTRIES, 7);
    for (i, stage) in DeadlineStage::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            m.inc(DEADLINE_EXCEEDED[stage as usize]);
        }
    }
    m.record_reload_failure();
    m.record_reload_failure();
    m.mark_model_fresh();
    for _ in 0..3 {
        m.inc(STALE_SERVED);
    }
    for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            m.inc(FAULTS_INJECTED[kind as usize]);
        }
    }
    for intake in [Intake::Accepted, Intake::Rejected, Intake::Rejected] {
        m.inc(OBSERVATIONS[intake as usize]);
    }
    let stats = QualityStats {
        observations: 40,
        window: 32,
        mape: 0.125,
        bias_seconds: -2.5,
        residual_p50: 1.5,
        residual_p90: 4.25,
        residual_p99: 9.75,
        calibration_ratio: 0.6875,
        drift_trips: 2,
        degraded: true,
        pool_size: 33,
        pool_evictions: 5,
    };
    m.set_model_quality("gb", 1, "aurora", stats);
    let stats2 = QualityStats {
        observations: 7,
        window: 7,
        mape: 0.25,
        bias_seconds: 0.75,
        residual_p50: 0.5,
        residual_p90: 2.125,
        residual_p99: 3.0625,
        calibration_ratio: 0.5,
        drift_trips: 1,
        degraded: false,
        pool_size: 8,
        pool_evictions: 1,
    };
    m.set_model_quality("gb", 2, "aurora", stats2);
    m.set_lifecycle_state("gb", "aurora", LifecycleState::Shadow);
    m.set_lifecycle_state("gb2", "frontier", LifecycleState::Training);
    for (i, &counter) in LIFECYCLE_TRANSITIONS.iter().enumerate() {
        for _ in 0..=i {
            m.inc(counter);
        }
    }
    m.gauge_set(LIFECYCLE_QUEUE_DEPTH, 2);
    m.observe(LIFECYCLE_FIT_DURATION, Duration::from_millis(1_250));
    m.observe(LIFECYCLE_FIT_DURATION, Duration::from_millis(40));
    for (i, outcome) in PromotionOutcome::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            m.inc(LIFECYCLE_PROMOTIONS[outcome as usize]);
        }
    }
    for _ in 0..9 {
        m.gauge_add(CONNECTIONS_OPEN, 1);
    }
    for _ in 0..11 {
        m.inc(KEEPALIVE_REUSES);
    }
    for (i, stage) in RequestStage::ALL.into_iter().enumerate() {
        for k in 0..=i {
            m.observe(REQUEST_STAGES[stage as usize], us(15 + 450 * (i * k) as u64));
        }
    }
    for (elapsed, events) in [(120, 3), (2_500, 700), (60, 1)] {
        m.observe(LOOP_ITERATION, us(elapsed));
        m.observe_count(EVENTS_PER_WAKE, events);
    }
    m.gauge_add(READ_PAUSED, 1);
    for _ in 0..2 {
        m.gauge_add(WRITE_STALLED, 1);
    }
    for (i, state) in AlertState::ALL.into_iter().enumerate() {
        for _ in 0..=i {
            m.inc(ALERT_TRANSITIONS[state as usize]);
        }
    }
    m.gauge_set(ALERTS_FIRING, 1);
    m.gauge_set(ALERTS_PENDING, 2);
    for breaching in [1, 3] {
        m.inc(SLO_SCRAPES);
        m.add(SLO_EVALUATIONS, 5);
        m.gauge_set(SLO_BREACHING, breaching);
    }
}

#[test]
fn fresh_registry_renders_the_golden_exposition() {
    let m = registered();
    assert_eq!(normalised(&m), include_str!("golden/metrics_fresh.prom"));
}

#[test]
fn filled_registry_renders_the_golden_exposition() {
    let m = registered();
    fill(&m);
    let text = m.render();
    lint_exposition_with_required(&text, REQUIRED_SERIES).expect("filled exposition lints clean");
    assert_eq!(normalised(&m), include_str!("golden/metrics_filled.prom"));
}
