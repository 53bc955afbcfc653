//! Order statistics over latency samples and per-window rates.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p`% of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    // The epsilon absorbs representation error (99.9% of 1000 computes
    // as 999.0000000000001, which must still be rank 999).
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the two middle values for an even count). `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Arithmetic mean; `0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// One completed request: when its last byte arrived (ns since the start
/// of the timed phase) and how long it took (ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Completion time, ns after the phase started.
    pub end_ns: u64,
    /// Client-side latency, ns.
    pub latency_ns: u64,
}

/// Split completions into `n` consecutive windows of `window_ns` each,
/// by completion time, returning each window's latencies in ms, sorted.
/// Completions past the last window are dropped.
pub fn windows(completions: &[Completion], window_ns: u64, n: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); n];
    for c in completions {
        let w = (c.end_ns / window_ns) as usize;
        if w < n {
            out[w].push(c.latency_ns as f64 / 1e6);
        }
    }
    for w in &mut out {
        w.sort_by(f64::total_cmp);
    }
    out
}

/// All latencies in ms, sorted.
pub fn sorted_ms(completions: &[Completion]) -> Vec<f64> {
    let mut v: Vec<f64> = completions.iter().map(|c| c.latency_ns as f64 / 1e6).collect();
    v.sort_by(f64::total_cmp);
    v
}
