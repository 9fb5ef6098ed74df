//! Metrics, percentiles and the result line.

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples, with the number of
/// samples above it.
fn rank(sorted: &[u64], p: f64) -> (u64, usize) {
    let n = sorted.len();
    let r = ((p * n as f64).ceil() as usize).clamp(1, n);
    (sorted[r - 1], n - r)
}

/// The median of sorted samples (0 for none).
pub fn p50(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        rank(sorted, 0.5).0
    }
}

/// The highest of p99.99, p99.9 and p99 that has at least ten samples
/// above it, with its label; the maximum when none has.
pub fn tail(sorted: &[u64]) -> (&'static str, u64) {
    if sorted.is_empty() {
        return ("max", 0);
    }
    for (label, p) in [("p99.99", 0.9999), ("p99.9", 0.999), ("p99", 0.99)] {
        let (v, above) = rank(sorted, p);
        if above >= 10 {
            return (label, v);
        }
    }
    ("max", sorted[sorted.len() - 1])
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: every digit Rust's shortest round-trip form gives,
/// and 0 in place of a value that is not finite.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=100_000).collect();
        assert_eq!(tail(&v), ("p99.99", 99_990));
        let v: Vec<u64> = (1..=20_000).collect();
        assert_eq!(tail(&v), ("p99.9", 19_980));
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail(&v), ("p99", 990));
        assert_eq!(tail(&[1, 2, 3]), ("max", 3));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(p50(&[1, 2, 3, 4]), 2);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let line = result_line(true, 3, 0, &[metric("a_ns", "ns", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"a_ns\": {\"value\": 1.5, \"unit\": \"ns\"}}}"
        );
        assert_eq!(json_num(f64::NAN), "0");
    }
}
