//! Performance of the analysis layers: fleet stepping, Hypnos decisions,
//! and the PSU what-if estimators — the inner loops behind every
//! table/figure regenerator.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fj_hypnos::{algorithm, sleeping_savings, HypnosConfig};
use fj_isp::{build_fleet, stats::psu_snapshot, FleetConfig, FleetInsights};
use fj_psu::{right_sizing_savings, uplift_savings, EightyPlus};
use fj_units::{percentile, Sample, SimDuration, SimInstant, SortedView, TimeSeries};

fn bench_isp(c: &mut Criterion) {
    let fleet = build_fleet(&FleetConfig::small(7));
    c.bench_function("fleet_small_build", |b| {
        b.iter(|| black_box(build_fleet(&FleetConfig::small(7))));
    });
    c.bench_function("fleet_small_advance_5min", |b| {
        b.iter_batched(
            || fleet.clone(),
            |mut f| {
                f.advance(SimDuration::from_mins(5)).expect("advances");
                black_box(f.now())
            },
            BatchSize::SmallInput,
        );
    });
    let full = build_fleet(&FleetConfig::switch_like(7));
    c.bench_function("fleet_107_total_wall_power", |b| {
        b.iter(|| black_box(full.total_wall_power_w()));
    });
    c.bench_function("fleet_107_insights", |b| {
        b.iter(|| black_box(FleetInsights::compute(black_box(&full))));
    });
}

fn bench_hypnos(c: &mut Criterion) {
    let fleet = build_fleet(&FleetConfig::switch_like(7));
    let observations = algorithm::observe_links(&fleet);
    let config = HypnosConfig::default();
    c.bench_function("hypnos_decide_full_fleet", |b| {
        b.iter(|| black_box(algorithm::decide(black_box(&observations), &config)));
    });
    let outcome = algorithm::decide(&observations, &config);
    c.bench_function("hypnos_price_sleep_set", |b| {
        b.iter(|| black_box(sleeping_savings(black_box(&outcome))));
    });
}

fn bench_psu(c: &mut Criterion) {
    let fleet = build_fleet(&FleetConfig::switch_like(7));
    let data = psu_snapshot(&fleet);
    c.bench_function("psu_uplift_titanium_214_psus", |b| {
        b.iter(|| black_box(uplift_savings(black_box(&data), EightyPlus::Titanium)));
    });
    c.bench_function("psu_right_sizing_214_psus", |b| {
        b.iter(|| black_box(right_sizing_savings(black_box(&data), 2.0)));
    });
}

/// ~10 months of 5-minute polls: the series length the long-horizon
/// regenerators actually analyse.
const KERNEL_N: usize = 100_000;

fn kernel_values() -> Vec<f64> {
    // Deterministic xorshift — enough spread to make selection
    // non-trivial without pulling a PRNG crate into the bench.
    let mut state = 0x6A09_E667_F3BC_C909u64;
    (0..KERNEL_N)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 42) as f64 * 500.0
        })
        .collect()
}

fn kernel_series() -> TimeSeries {
    TimeSeries::from_samples(
        kernel_values()
            .into_iter()
            .enumerate()
            .map(|(i, v)| Sample::new(SimInstant::from_secs(i as i64 * 300), v))
            .collect(),
    )
}

/// The pre-quickselect percentile: clone, full sort, type-7 interpolation.
fn percentile_by_sort(values: &[f64], pct: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = pct.clamp(0.0, 100.0) / 100.0 * (sorted.len() as f64 - 1.0);
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

fn bench_kernels(c: &mut Criterion) {
    let values = kernel_values();
    c.bench_function("percentile_100k_sort_baseline", |b| {
        b.iter(|| black_box(percentile_by_sort(black_box(&values), 95.0)));
    });
    c.bench_function("percentile_100k_quickselect", |b| {
        b.iter(|| black_box(percentile(black_box(&values), 95.0).unwrap()));
    });
    let view = SortedView::new(values.clone()).unwrap();
    c.bench_function("percentile_100k_sorted_view_9_levels", |b| {
        b.iter(|| {
            for pct in [1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
                black_box(view.percentile(black_box(pct)).unwrap());
            }
        });
    });

    let ts = kernel_series();
    let day = SimDuration::from_days(1);
    c.bench_function("window_mean_100k_daily", |b| {
        b.iter(|| black_box(ts.window_mean(day)));
    });
    let prefix = ts.prefix_sums();
    c.bench_function("window_mean_100k_daily_prefix_reuse", |b| {
        b.iter(|| black_box(prefix.window_mean(day)));
    });

    let mid = SimInstant::from_secs(KERNEL_N as i64 * 150);
    c.bench_function("value_at_100k", |b| {
        b.iter(|| black_box(ts.value_at(black_box(mid))));
    });
    let week = SimDuration::from_days(7);
    c.bench_function("slice_100k_one_week", |b| {
        b.iter(|| black_box(ts.slice(black_box(mid), black_box(mid + week))));
    });
}

criterion_group!(benches, bench_isp, bench_hypnos, bench_psu, bench_kernels);
criterion_main!(benches);
