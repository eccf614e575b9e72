//! Property-based tests for the histogram, the Prometheus renderer, and
//! the deterministic/diagnostic registry split.

use std::collections::BTreeMap;

use fj_telemetry::render::{escape_label_value, to_prometheus_text, unescape_label_value};
use fj_telemetry::{Histogram, HistogramSnapshot, Registry, SpanRecord, Telemetry};
use fj_units::SimInstant;
use proptest::prelude::*;

fn positive_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(1e-9f64..1e9, 1..max_len)
}

/// The exact rank-q sample of a sorted slice, matching the histogram's
/// rank convention (1-based, ceil(q·n), at least 1).
fn true_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// Registers one generated `(name, labels)` series on `r`: kind 0 is a
/// counter, 1 a gauge, anything else a histogram.
fn register(r: &Registry, (name, labels): &(String, BTreeMap<String, String>), kind: u8, v: u32) {
    let labels: Vec<(&str, &str)> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    match kind {
        0 => r.counter(name, &labels).add(u64::from(v)),
        1 => r.gauge(name, &labels).set(f64::from(v) / 8.0),
        _ => r.histogram(name, &labels).observe(f64::from(v) + 0.5),
    }
}

proptest! {
    /// Splitting distinct series across the two registries changes
    /// nothing an operator sees: the merged rendering equals one registry
    /// holding every series, and the deterministic rendering holds
    /// exactly the `registry()` series.
    #[test]
    fn registry_split_renders_like_one_registry(
        series in prop::collection::btree_map(
            ("[a-z_]{1,8}", prop::collection::btree_map("[a-z]{1,3}", "[ -~]{0,4}", 0..3)),
            (0u8..3, 0u32..1000, any::<bool>()),
            0..24,
        ),
    ) {
        // `whole` and `det` keep everything on one registry each.
        let (t, whole, det) = (Telemetry::new(), Telemetry::new(), Telemetry::new());
        for (key, &(kind, v, diagnostic)) in &series {
            let home = if diagnostic { t.diagnostics() } else { t.registry() };
            register(home, key, kind, v);
            register(whole.registry(), key, kind, v);
            if !diagnostic {
                register(det.registry(), key, kind, v);
            }
        }
        let render = |t: &Telemetry| to_prometheus_text(&t.registry().snapshot());
        prop_assert_eq!(t.render_prometheus(), render(&whole));
        prop_assert_eq!(render(&t), render(&det));
    }

    /// A quantile estimate never underestimates the true quantile and
    /// overestimates it by at most one bucket's relative width.
    #[test]
    fn quantile_brackets_truth(values in positive_values(256), q in 0.0f64..1.0) {
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let truth = true_quantile(&sorted, q);
        let est = h.snapshot().quantile(q).unwrap();
        prop_assert!(est >= truth - 1e-12 * truth, "q{q}: {est} ≥ {truth}");
        let (lo, hi) = HistogramSnapshot::bucket_bounds_of(truth);
        prop_assert!(est <= truth * (hi / lo) + 1e-9, "q{q}: {est} within one bucket of {truth}");
    }

    /// Span wall durations pushed through a histogram keep the same
    /// bracket guarantee: the estimate never underestimates the true
    /// quantile and lands within one bucket width above it. This is the
    /// path the trace profile's duration statistics take.
    #[test]
    fn span_duration_quantiles_stay_within_bucket_bounds(
        micros in prop::collection::vec(1u64..1_000_000_000, 1..256),
        q in 0.0f64..1.0,
    ) {
        let h = Histogram::new();
        let mut secs = Vec::with_capacity(micros.len());
        for &us in &micros {
            let rec = SpanRecord {
                name: "router_step",
                sim_start: SimInstant::EPOCH,
                sim_end: SimInstant::EPOCH,
                wall_start_us: 0,
                wall_end_us: us,
            };
            prop_assert_eq!(rec.wall_micros(), us);
            h.observe(rec.wall_secs());
            secs.push(rec.wall_secs());
        }
        secs.sort_by(f64::total_cmp);
        let truth = true_quantile(&secs, q);
        let est = h.snapshot().quantile(q).unwrap();
        prop_assert!(est >= truth - 1e-12 * truth, "q{q}: {est} ≥ {truth}");
        let (lo, hi) = HistogramSnapshot::bucket_bounds_of(truth);
        prop_assert!(est <= truth * (hi / lo) + 1e-9, "q{q}: {est} within one bucket of {truth}");
    }

    /// Merging preserves count, sum, min, and max exactly.
    #[test]
    fn merge_preserves_invariants(a in positive_values(128), b in positive_values(128)) {
        let (ha, hb) = (Histogram::new(), Histogram::new());
        for &v in &a { ha.observe(v); }
        for &v in &b { hb.observe(v); }
        let (sa, sb) = (ha.snapshot(), hb.snapshot());
        ha.merge_from(&hb);
        let m = ha.snapshot();
        prop_assert_eq!(m.count, sa.count + sb.count);
        prop_assert!((m.sum - (sa.sum + sb.sum)).abs() <= 1e-9 * m.sum.abs().max(1.0));
        prop_assert_eq!(m.min, sa.min.min(sb.min));
        prop_assert_eq!(m.max, sa.max.max(sb.max));
    }

    /// Quantiles of a merge are bounded by the per-part extremes.
    #[test]
    fn merged_quantiles_within_extremes(a in positive_values(64), b in positive_values(64), q in 0.0f64..1.0) {
        let (ha, hb) = (Histogram::new(), Histogram::new());
        for &v in &a { ha.observe(v); }
        for &v in &b { hb.observe(v); }
        ha.merge_from(&hb);
        let m = ha.snapshot();
        let est = m.quantile(q).unwrap();
        prop_assert!(est >= m.min && est <= m.max);
    }

    /// Empty histograms never panic, whatever quantile is asked for.
    #[test]
    fn empty_histogram_never_panics(q in -2.0f64..3.0) {
        let s = Histogram::new().snapshot();
        prop_assert_eq!(s.quantile(q), None);
        prop_assert_eq!(s.mean(), None);
    }

    /// Arbitrary values — zero, negative, NaN-free floats of any sign —
    /// are all absorbed without panicking, and the count always matches.
    #[test]
    fn observe_total_over_all_floats(values in prop::collection::vec(-1e12f64..1e12, 0..128)) {
        let h = Histogram::new();
        for &v in &values {
            h.observe(v);
        }
        let s = h.snapshot();
        prop_assert_eq!(s.count, values.len() as u64);
        // Quantile queries stay well-defined whenever anything was observed.
        if s.count > 0 {
            prop_assert!(s.quantile(0.5).is_some());
        }
    }

    /// Label-value escaping round-trips exactly.
    #[test]
    fn label_escape_round_trips(v in "[ -~\\n\"\\\\]{0,48}") {
        let escaped = escape_label_value(&v);
        prop_assert!(!escaped.contains('\n'), "escaped text is single-line");
        prop_assert_eq!(unescape_label_value(&escaped), v);
    }

    /// Rendered Prometheus text quotes every label value on its own line,
    /// with raw newlines and quotes escaped away.
    #[test]
    fn rendered_labels_stay_single_line(v in "[ -~\\n\"\\\\]{0,32}") {
        let registry = Registry::new();
        registry.counter("fuzz_total", &[("label", &v)]).inc();
        let text = to_prometheus_text(&registry.snapshot());
        let line = text
            .lines()
            .find(|l| l.starts_with("fuzz_total{"))
            .expect("series rendered");
        prop_assert!(line.ends_with(" 1"));
        let inner = line
            .strip_prefix("fuzz_total{label=\"")
            .and_then(|r| r.strip_suffix("\"} 1"))
            .expect("well-formed label quoting");
        prop_assert_eq!(unescape_label_value(inner), v);
    }
}
