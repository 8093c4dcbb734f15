//! Metric records, summary statistics and the output formats.

use std::fmt::Write as _;

use mtp_workload::percentile;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name (as in `BENCHMARK.json` where declared there).
    pub name: &'static str,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How it was summarized (sample count, tail percentile).
    pub note: String,
}

/// Everything one benchmark invocation measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics, each workload's full set.
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced invocations only).
    pub layers: Vec<Metric>,
    /// Per-layer metrics this workload reaches but cannot measure from
    /// outside the layer, with the reason.
    pub unavailable: Vec<(&'static str, &'static str)>,
    /// Operations attempted across all measured repetitions.
    pub attempted: u64,
    /// Operations that failed (not completed, refused or lost).
    pub failed: u64,
    /// Extra JSON written to the output file (e.g. per-message spans),
    /// as `(key, raw JSON value)`.
    pub extra: Vec<(&'static str, String)>,
}

impl Report {
    /// Add an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.e2e.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    /// Add a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name,
            value,
            unit,
            note: String::new(),
        });
    }

    /// Add a wall-clock timing: the median of `samples`, noted with the
    /// sample count and the highest percentile that has at least ten
    /// samples beyond it.
    pub fn timing(&mut self, name: &'static str, samples: &[f64], unit: &'static str) {
        self.e2e(name, median(samples), unit, tail_note(samples));
    }

    /// Look up a metric of either kind by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.e2e
            .iter()
            .chain(self.layers.iter())
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The highest of p99.99, p99.9, p99, p90 with at least ten of `n`
/// samples beyond it.
pub fn tail_pct(n: usize) -> Option<f64> {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// "n=…, p…=…" summary of a sample set.
pub fn tail_note(xs: &[f64]) -> String {
    match tail_pct(xs.len()) {
        Some(p) => format!("n={}, p{}={:.6}", xs.len(), p, percentile(xs, p)),
        None => format!(
            "n={}, max={:.6} (too few samples for a tail percentile)",
            xs.len(),
            xs.iter().copied().fold(f64::NAN, f64::max)
        ),
    }
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A JSON number (non-finite values become 0, which JSON cannot hold
/// otherwise).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` over `metrics`.
pub fn metrics_json<'a>(metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) -> String {
    let mut s = String::from("{");
    for (i, (name, value, unit)) in metrics.enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    }
    s.push('}');
    s
}
