//! Prometheus text-exposition parsing and before/after diffs of the
//! daemon's `/metrics` series.

use std::collections::BTreeMap;

/// Every sample line of an exposition, keyed by series as written
/// (`name{labels}`), e.g. `chemcost_batch_flush_total{reason="window"}`.
/// Comment lines are skipped; so are values that do not parse (`NaN`
/// gauges parse and are kept).
pub fn parse(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Label values never contain spaces in this exposition, so the
        // value is everything after the last space.
        let Some((series, value)) = line.rsplit_once(' ') else { continue };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(series.to_string(), v);
        }
    }
    out
}

/// The change of every series between two scrapes (`after − before`);
/// a series absent before counts from zero.
#[derive(Debug, Clone, Default)]
pub struct Diff(BTreeMap<String, f64>);

impl Diff {
    /// Diff two parsed scrapes.
    pub fn between(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>) -> Diff {
        Diff(
            after
                .iter()
                .map(|(k, &a)| (k.clone(), a - before.get(k).copied().unwrap_or(0.0)))
                .collect(),
        )
    }

    /// Parse and diff two exposition texts.
    pub fn of_texts(before: &str, after: &str) -> Diff {
        Diff::between(&parse(before), &parse(after))
    }

    /// The change of one series (`0` when absent).
    pub fn get(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    /// Mean observation of a histogram over the diff window:
    /// `Δ_sum / Δ_count`, `0` when nothing was observed. `labels` is the
    /// label set without `le`, e.g. `stage="read"`, or empty.
    pub fn hist_mean(&self, family: &str, labels: &str) -> f64 {
        let suffix = if labels.is_empty() { String::new() } else { format!("{{{labels}}}") };
        let count = self.get(&format!("{family}_count{suffix}"));
        if count > 0.0 {
            self.get(&format!("{family}_sum{suffix}")) / count
        } else {
            0.0
        }
    }

    /// Sum of the changes of every series of `family` (all label sets),
    /// e.g. every `reason` of `chemcost_batch_flush_total`.
    pub fn family_total(&self, family: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| {
                k.strip_prefix(family).is_some_and(|rest| rest.is_empty() || rest.starts_with('{'))
            })
            .map(|(_, v)| v)
            .sum()
    }
}
