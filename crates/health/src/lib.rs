//! In-process telemetry history, SLO evaluation, and alerting.
//!
//! The serving daemon emits rich telemetry (request counters, latency
//! histograms, quality gauges) but a metric registry only knows *now* —
//! it cannot answer "has the advise p99 been over budget for the last
//! five minutes?". This crate adds the missing memory and judgment,
//! entirely in-process and entirely `std`:
//!
//! * [`Schema`] / [`Sample`] — a serve-agnostic snapshot of named
//!   counters, gauges, float values, and histograms. The producer (the
//!   daemon's self-scrape sampler) decides the series names; this crate
//!   never depends on the metric registry it observes.
//! * [`Ring`] — a bounded, delta-compressed history of samples.
//!   Consecutive snapshots differ by a handful of increments, so each
//!   entry stores zigzag-varint deltas against its predecessor: a
//!   steady-state sample costs a few bytes, not a few kilobytes. The
//!   ring evicts by byte budget and by retention window.
//! * [`WindowView`] — counter-rate, ratio, and histogram-quantile
//!   derivation over an arbitrary lookback slice of the ring.
//! * [`SloSpec`] / [`SloEngine`] — declarative objectives evaluated as
//!   fast/slow burn-rate window pairs (multi-window multi-burn
//!   alerting: both windows must breach before an alert advances).
//! * [`AlertMachine`] — the ok → pending → firing → resolved state
//!   machine with hysteresis on both edges; every transition is
//!   reported so the embedder can count and log it.
//! * [`HealthHub`] — ties the above together behind one `ingest`
//!   entry point and renders the `/v1/health` and `/debug/slo` JSON
//!   surfaces.
//! * [`parse_slo_file`] — a std-only parser for user-supplied SLO
//!   rules in a small TOML-like format (`--slo-file`).
//! * [`sparkline`] — ASCII sparklines over ring history for the
//!   `chemcost health` CLI.
//!
//! The ring is the in-memory precursor of the WAL-backed durable
//! observation store on the roadmap: the snapshot schema and the delta
//! encoding are exactly what a segment file would hold.

mod alert;
mod config;
mod hub;
mod json;
mod ring;
mod schema;
mod slo;
mod spark;
mod window;

pub use alert::{AlertMachine, AlertState, Transition};
pub use config::{parse_duration, parse_slo_file};
pub use hub::{HealthConfig, HealthHub, SloStatus, Verdict};
pub use json::json_num;
pub use ring::{Ring, RingStats};
pub use schema::{HistSample, HistSchema, Sample, Schema};
pub use slo::{Cmp, EvalPoint, Signal, SloEngine, SloSpec};
pub use spark::sparkline;
pub use window::WindowView;
