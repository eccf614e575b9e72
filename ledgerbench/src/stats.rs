//! Timing, order statistics, process memory, and the result line.

use std::fmt::Write as _;

use fj_telemetry::WallEpoch;

/// The benchmark's one clock: wall time since process start, read
/// through the audited [`WallEpoch`] seam.
#[derive(Debug, Clone, Copy)]
pub struct Clock(WallEpoch);

impl Clock {
    /// A clock starting now.
    pub fn start() -> Self {
        Clock(WallEpoch::now())
    }

    /// Seconds since the clock started.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since the clock started (span stamps).
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Median cost of one clock read as stamps see it: the gap between
    /// two back-to-back reads. A span between two stamps carries about
    /// one such read on top of the work it brackets.
    pub fn read_cost_ns(&self) -> f64 {
        let gaps: Vec<f64> = (0..2001)
            .map(|_| {
                let a = self.nanos();
                let b = self.nanos();
                (b - a) as f64
            })
            .collect();
        median(&gaps)
    }

    /// Runs `f` and returns its result with the seconds it took.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, f64) {
        let t0 = self.secs();
        let out = f();
        (out, self.secs() - t0)
    }
}

/// Median of `values` (mean of the middle pair for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    Some(out)
}

/// The tail the benchmark reports beside a median: the highest order
/// statistic with at least ten samples beyond it, with its percentile.
/// Below 21 samples that statistic would not even clear the median, so
/// the maximum stands in and the percentile reads 100.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 100.0),
        n if n < 21 => (v[n - 1], 100.0),
        n => {
            let i = n - 11;
            (v[i], 100.0 * (i + 1) as f64 / n as f64)
        }
    }
}

/// Peak resident set size of this process (VmHWM), in MB (2^20 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One metric of the result line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark run reports: operations attempted and failed, the
/// metrics, and the human-readable lines printed before the result.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records one checked operation.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.failures.push(format!("{what}: {e}"));
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Prints the metric table, any failures, and the JSON result line
    /// (always last on standard output).
    pub fn print(&self) {
        for m in &self.metrics {
            println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for f in &self.failures {
            println!("FAILED {f}");
        }
        println!("{}", self.json());
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they also never come out of
            // a sound measurement, so they read as zero.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (5.0, 100.0));
        let fifteen: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&fifteen), (15.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
