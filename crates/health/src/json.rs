//! Number rendering for the hand-written health JSON. Strings go
//! through [`chemcost_obs::write_json_string`], the workspace's one
//! string writer.

/// Render a float as a JSON value. JSON has no NaN/Infinity; those
/// become `null` (the health endpoints use NaN for "no data yet").
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        // Trim float noise: SLO values are human-read thresholds and
        // ratios, six significant decimals is plenty.
        let s = format!("{v:.6}");
        let s = s.trim_end_matches('0').trim_end_matches('.');
        if s.is_empty() || s == "-" {
            "0".to_string()
        } else {
            s.to_string()
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_render_compactly() {
        assert_eq!(json_num(0.5), "0.5");
        assert_eq!(json_num(0.0), "0");
        assert_eq!(json_num(-2.0), "-2");
        assert_eq!(json_num(0.050000), "0.05");
        assert_eq!(json_num(1.0 / 3.0), "0.333333");
    }

    #[test]
    fn non_finite_becomes_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(f64::NEG_INFINITY), "null");
    }
}
