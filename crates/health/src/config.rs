//! Std-only parser for user-supplied SLO rules (`--slo-file`).
//!
//! The format is a small TOML subset: `[slo.<name>]` section headers,
//! `key = value` lines, `#` comments, quoted or bare strings. Example:
//!
//! ```text
//! [slo.predict_p99]
//! signal = "quantile"
//! hist = "latency"
//! q = 0.99
//! max = 0.25
//! fast_window = "1m"
//! slow_window = "5m"
//! pending_for = 2
//! clear_for = 3
//! critical = true
//! ```

use std::time::Duration;

use crate::slo::{Cmp, Signal, SloSpec};

/// Parse a human duration: `500ms`, `30s`, `5m`, `1h`, or bare
/// seconds (`30`).
pub fn parse_duration(s: &str) -> Result<Duration, String> {
    let s = s.trim();
    let (num, unit) = match s.find(|c: char| !c.is_ascii_digit() && c != '.') {
        Some(i) => s.split_at(i),
        None => (s, "s"),
    };
    let value: f64 = num.parse().map_err(|_| format!("bad duration `{s}`"))?;
    let secs = match unit.trim() {
        "ms" => value / 1000.0,
        "s" | "" => value,
        "m" => value * 60.0,
        "h" => value * 3600.0,
        u => return Err(format!("bad duration unit `{u}` in `{s}`")),
    };
    // Negative, non-finite and past-`Duration::MAX` values all fail here.
    Duration::try_from_secs_f64(secs).map_err(|_| format!("bad duration `{s}`"))
}

/// Parse an SLO rules file. Returns every `[slo.<name>]` section as a
/// [`SloSpec`]; any malformed line, unknown key, or incomplete
/// section is an error naming the line.
pub fn parse_slo_file(text: &str) -> Result<Vec<SloSpec>, String> {
    let mut specs = Vec::new();
    let mut current: Option<SectionBuilder> = None;
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {lineno}: unterminated section header"))?
                .trim();
            let slo_name = name
                .strip_prefix("slo.")
                .ok_or_else(|| format!("line {lineno}: expected [slo.<name>], got [{name}]"))?;
            if slo_name.is_empty() {
                return Err(format!("line {lineno}: empty SLO name"));
            }
            if let Some(done) = current.take() {
                specs.push(done.build()?);
            }
            current = Some(SectionBuilder::new(slo_name));
            continue;
        }
        let (key, value) =
            line.split_once('=').ok_or_else(|| format!("line {lineno}: expected `key = value`"))?;
        let section = current
            .as_mut()
            .ok_or_else(|| format!("line {lineno}: `key = value` before any [slo.*] section"))?;
        section
            .set(key.trim(), unquote(value.trim()))
            .map_err(|e| format!("line {lineno}: {e}"))?;
    }
    if let Some(done) = current.take() {
        specs.push(done.build()?);
    }
    Ok(specs)
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_quotes = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

fn unquote(s: &str) -> &str {
    s.strip_prefix('"').and_then(|s| s.strip_suffix('"')).unwrap_or(s)
}

fn parse_list(s: &str) -> Vec<String> {
    s.split(',').map(|p| unquote(p.trim()).to_string()).filter(|p| !p.is_empty()).collect()
}

struct SectionBuilder {
    name: String,
    signal: Option<String>,
    hist: Option<String>,
    q: Option<f64>,
    num: Vec<String>,
    den: Vec<String>,
    prefix: Option<String>,
    threshold: Option<(f64, Cmp)>,
    fast_window: Option<Duration>,
    slow_window: Option<Duration>,
    pending_evals: Option<u32>,
    clear_evals: Option<u32>,
    critical: bool,
}

impl SectionBuilder {
    fn new(name: &str) -> Self {
        SectionBuilder {
            name: name.to_string(),
            signal: None,
            hist: None,
            q: None,
            num: Vec::new(),
            den: Vec::new(),
            prefix: None,
            threshold: None,
            fast_window: None,
            slow_window: None,
            pending_evals: None,
            clear_evals: None,
            critical: false,
        }
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "signal" => self.signal = Some(value.to_string()),
            "hist" => self.hist = Some(value.to_string()),
            "q" => self.q = Some(value.parse().map_err(|_| format!("bad q `{value}`"))?),
            "num" => self.num = parse_list(value),
            "den" => self.den = parse_list(value),
            "prefix" => self.prefix = Some(value.to_string()),
            "max" => {
                let t: f64 = value.parse().map_err(|_| format!("bad max `{value}`"))?;
                self.threshold = Some((t, Cmp::Above));
            }
            "min" => {
                let t: f64 = value.parse().map_err(|_| format!("bad min `{value}`"))?;
                self.threshold = Some((t, Cmp::Below));
            }
            "fast_window" => self.fast_window = Some(parse_duration(value)?),
            "slow_window" => self.slow_window = Some(parse_duration(value)?),
            "pending_for" => {
                self.pending_evals =
                    Some(value.parse().map_err(|_| format!("bad pending_for `{value}`"))?)
            }
            "clear_for" => {
                self.clear_evals =
                    Some(value.parse().map_err(|_| format!("bad clear_for `{value}`"))?)
            }
            "critical" => {
                self.critical = match value {
                    "true" => true,
                    "false" => false,
                    v => return Err(format!("bad critical `{v}` (true/false)")),
                }
            }
            k => return Err(format!("unknown key `{k}`")),
        }
        Ok(())
    }

    fn build(self) -> Result<SloSpec, String> {
        let ctx = |msg: &str| format!("[slo.{}]: {msg}", self.name);
        let signal_kind = self.signal.as_deref().ok_or_else(|| ctx("missing `signal`"))?;
        let signal = match signal_kind {
            "quantile" => Signal::Quantile {
                hist: self.hist.clone().ok_or_else(|| ctx("quantile needs `hist`"))?,
                q: self.q.ok_or_else(|| ctx("quantile needs `q`"))?,
            },
            "ratio" => {
                if self.num.is_empty() || self.den.is_empty() {
                    return Err(ctx("ratio needs `num` and `den`"));
                }
                Signal::Ratio { num: self.num.clone(), den: self.den.clone() }
            }
            "rate" => {
                if self.num.is_empty() {
                    return Err(ctx("rate needs `num`"));
                }
                Signal::Rate { counters: self.num.clone() }
            }
            "delta" => Signal::DeltaPrefix {
                prefix: self.prefix.clone().ok_or_else(|| ctx("delta needs `prefix`"))?,
            },
            "value_max" => Signal::ValueMax {
                prefix: self.prefix.clone().ok_or_else(|| ctx("value_max needs `prefix`"))?,
            },
            "gauge_max" => Signal::GaugeMax {
                prefix: self.prefix.clone().ok_or_else(|| ctx("gauge_max needs `prefix`"))?,
            },
            k => return Err(ctx(&format!("unknown signal `{k}`"))),
        };
        let (threshold, cmp) =
            self.threshold.ok_or_else(|| ctx("missing `max` or `min` threshold"))?;
        let mut spec = SloSpec::new(self.name, signal, threshold);
        spec.cmp = cmp;
        if let Some(w) = self.fast_window {
            spec.fast_window = w;
        }
        if let Some(w) = self.slow_window {
            spec.slow_window = w;
        }
        if let Some(p) = self.pending_evals {
            spec.pending_evals = p.max(1);
        }
        if let Some(c) = self.clear_evals {
            spec.clear_evals = c.max(1);
        }
        spec.critical = self.critical;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("30s").unwrap(), Duration::from_secs(30));
        assert_eq!(parse_duration("5m").unwrap(), Duration::from_secs(300));
        assert_eq!(parse_duration("1h").unwrap(), Duration::from_secs(3600));
        assert_eq!(parse_duration("45").unwrap(), Duration::from_secs(45));
        assert!(parse_duration("5 fortnights").is_err());
        assert!(parse_duration("").is_err());
    }

    #[test]
    fn durations_past_duration_max_are_errors_not_panics() {
        for huge in ["20000000000000000000", "99999999999999999999h"] {
            assert_eq!(parse_duration(huge), Err(format!("bad duration `{huge}`")));
        }
        let text = "[slo.x]\nsignal = \"delta\"\nprefix = \"a\"\nmax = 1\nfast_window = \"99999999999999999999h\"\n";
        let err = parse_slo_file(text).unwrap_err();
        assert!(err.contains("bad duration"), "{err}");
    }

    #[test]
    fn full_file_parses() {
        let text = r#"
# local overrides
[slo.predict_p99]
signal = "quantile"
hist = "latency"
q = 0.99
max = 0.25
fast_window = "30s"
slow_window = "5m"
pending_for = 3
clear_for = 4
critical = true

[slo.shed_ratio]
signal = "ratio"
num = "shed"            # shed only, not errors
den = "requests."
max = 0.10

[slo.drift]
signal = "delta"
prefix = "quality.drift_trips."
max = 0.5

[slo.throughput_floor]
signal = "rate"
num = "requests."
min = 1.0
"#;
        let specs = parse_slo_file(text).unwrap();
        assert_eq!(specs.len(), 4);
        let p99 = &specs[0];
        assert_eq!(p99.name, "predict_p99");
        assert_eq!(p99.signal, Signal::Quantile { hist: "latency".into(), q: 0.99 });
        assert_eq!(p99.threshold, 0.25);
        assert_eq!(p99.cmp, Cmp::Above);
        assert_eq!(p99.fast_window, Duration::from_secs(30));
        assert_eq!(p99.slow_window, Duration::from_secs(300));
        assert_eq!(p99.pending_evals, 3);
        assert_eq!(p99.clear_evals, 4);
        assert!(p99.critical);
        let shed = &specs[1];
        assert_eq!(
            shed.signal,
            Signal::Ratio { num: vec!["shed".into()], den: vec!["requests.".into()] }
        );
        assert!(!shed.critical);
        assert_eq!(specs[2].signal, Signal::DeltaPrefix { prefix: "quality.drift_trips.".into() });
        let floor = &specs[3];
        assert_eq!(floor.signal, Signal::Rate { counters: vec!["requests.".into()] });
        assert_eq!(floor.cmp, Cmp::Below);
    }

    #[test]
    fn errors_name_the_line_or_section() {
        let err = parse_slo_file("signal = \"ratio\"").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        let err = parse_slo_file("[slo.x]\nsignal = \"quantile\"\nmax = 1").unwrap_err();
        assert!(err.contains("[slo.x]"), "{err}");
        let err =
            parse_slo_file("[slo.x]\nsignal = \"ratio\"\nnum = \"a\"\nden = \"b\"").unwrap_err();
        assert!(err.contains("threshold"), "{err}");
        let err = parse_slo_file("[slo.x]\nwat = 1").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        let err = parse_slo_file("[wrong.x]\n").unwrap_err();
        assert!(err.contains("expected [slo.<name>]"), "{err}");
    }

    #[test]
    fn comments_respect_quotes() {
        let specs =
            parse_slo_file("[slo.h]\nsignal = \"delta\"\nprefix = \"a#b\" # trailing\nmax = 1\n")
                .unwrap();
        assert_eq!(specs[0].signal, Signal::DeltaPrefix { prefix: "a#b".into() });
    }
}
