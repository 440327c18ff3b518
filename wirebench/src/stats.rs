//! Pure reporting helpers: percentile selection, the metric name and
//! unit rules, and the one-line JSON result.

use std::fmt::Write as _;

/// A percentile is reported only when at least this many samples lie
/// beyond it; a tail read from fewer samples does not repeat between
/// runs.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let n = sorted.len();
    // 1-based nearest rank, clamped into 1..=n.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of a handful of values (mean of the middle two for an even
/// count); `None` when empty. Used across windows and repeated set-ups,
/// where every value is itself a summary, so no tail rule applies.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Sorts latency samples in place and returns them, ready for
/// [`percentile`].
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Metric names: 1 to 64 ASCII letters, digits, `_`, `.` and `-`,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Units: 1 to 16 ASCII letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

/// One named, unit-carrying measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (see [`valid_name`]).
    pub name: String,
    /// Unit (see [`valid_unit`]).
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// Shorthand constructor.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Self {
        Metric { name: name.into(), unit, value }
    }
}

/// Renders the result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}`. Refuses a metric whose name
/// or unit breaks the rules, a repeated name, or a non-finite value,
/// since any of those would make the line unreadable downstream.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(&m.name) || !valid_unit(m.unit) {
            return Err(format!("bad metric name or unit: {:?} [{}]", m.name, m.unit));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p50 of 1..=100 is 50, with 50 samples beyond.
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        // p90 is 90, with exactly 10 beyond: still reported.
        assert_eq!(percentile(&v, 0.9), Some(90.0));
        // p99 would rest on one sample beyond.
        assert_eq!(percentile(&v, 0.99), None);
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), Some(990.0));
        assert_eq!(percentile(&w, 0.999), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&v, 1.5), None);
    }

    #[test]
    fn percentile_at_small_counts() {
        // 20 samples: the median has 10 beyond it, 19 do not.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn names_and_units_follow_the_rules() {
        for ok in ["p50_us", "pool.heap.hit_rate", "hot-get.setup_s", "9lives"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_lead", ".lead", "has space", "slash/name", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["ms", "s", "1/s", "count", "%", "us/req", "page/batch", "MiB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "a b", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_json_shape_and_refusals() {
        let m = [Metric::new("p50_us", "us", 12.5), Metric::new("setup_s", "s", 0.75)];
        assert_eq!(
            result_json(true, 10, 0, &m).unwrap(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"p50_us\": {\"value\": 12.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.75, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[Metric::new("x", "s", f64::NAN)]).is_err());
        assert!(result_json(true, 1, 0, &[Metric::new("bad name", "s", 1.0)]).is_err());
        let twice = [Metric::new("x", "s", 1.0), Metric::new("x", "s", 2.0)];
        assert!(result_json(true, 1, 0, &twice).is_err());
    }
}
