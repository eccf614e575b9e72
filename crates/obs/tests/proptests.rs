//! Property-based tests for the utilization accounting and the
//! efficiency report invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fj_obs::EfficiencyAccumulator;
use fj_par::{ShardStats, WorkerPool, WorkerStats};
use proptest::prelude::*;

/// Runs a pool dispatch over `len` items with a deterministic, strictly
/// monotonic fake clock (each read advances by one tick plus a per-item
/// cost), returning the recorded stats.
fn profiled_run(len: usize, shards: usize, workers: usize, item_cost: u64) -> ShardStats {
    let tick = Arc::new(AtomicU64::new(0));
    let clock = {
        let tick = Arc::clone(&tick);
        move || tick.fetch_add(1, Ordering::Relaxed)
    };
    let items: Vec<u64> = (0..len as u64).collect();
    let done = WorkerPool::new(workers)
        .submit(items, shards, clock, move |_, v| {
            // Advance the clock to make shards visibly busy.
            tick.fetch_add(item_cost, Ordering::Relaxed);
            *v
        })
        .wait();
    done.result.expect("no panic injected");
    done.stats
}

fn arb_worker() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    // (items, spawn_wait, busy, join_wait) in microseconds.
    (0u64..1000, 0u64..10_000, 0u64..1_000_000, 0u64..10_000)
}

proptest! {
    /// The accounting identity: every shard's spawn wait + busy + join
    /// wait sums to the dispatch's measured wall time, and total busy
    /// never exceeds the available worker-time.
    #[test]
    fn worker_segments_sum_to_wall(
        len in 0usize..200,
        shards in 1usize..9,
        workers in 0usize..4,
        item_cost in 0u64..50,
    ) {
        let stats = profiled_run(len, shards, workers, item_cost);
        // One entry per non-empty shard: zero items report zero workers
        // (the efficiency report floors its shard count at 1).
        prop_assert_eq!(stats.shards(), fj_par::shard_ranges(len, shards).len());
        prop_assert_eq!(stats.items(), len as u64);
        for w in &stats.workers {
            prop_assert_eq!(
                w.spawn_wait_us + w.busy_us + w.join_wait_us,
                stats.wall_us,
                "shard {}: {} + {} + {}",
                w.shard, w.spawn_wait_us, w.busy_us, w.join_wait_us
            );
        }
        prop_assert!(stats.busy_us() <= stats.wall_us * stats.shards() as u64);
    }

    /// Report invariants hold for arbitrary folded stats: efficiency and
    /// the merge fraction stay in [0, 1], and imbalance ≥ 1.
    #[test]
    fn report_invariants(
        chunks in prop::collection::vec(
            (prop::collection::vec(arb_worker(), 1..8), 0u64..50_000),
            1..12,
        ),
    ) {
        let mut acc = EfficiencyAccumulator::default();
        let mut wall_total = 0u64;
        for (workers, merge_us) in &chunks {
            let workers: Vec<WorkerStats> = workers
                .iter()
                .enumerate()
                .map(|(shard, &(items, spawn_wait_us, busy_us, join_wait_us))| WorkerStats {
                    shard,
                    worker: shard,
                    items,
                    spawn_wait_us,
                    busy_us,
                    join_wait_us,
                })
                .collect();
            let wall_us = workers
                .iter()
                .map(|w| w.spawn_wait_us + w.busy_us + w.join_wait_us)
                .max()
                .unwrap_or(0);
            wall_total += wall_us + merge_us;
            acc.record_chunk(&ShardStats { wall_us, workers }, *merge_us);
        }
        let r = acc.report(wall_total);
        prop_assert_eq!(r.chunks, chunks.len() as u64);
        prop_assert!((0.0..=1.0).contains(&r.efficiency), "efficiency {}", r.efficiency);
        prop_assert!((0.0..=1.0).contains(&r.merge_fraction), "merge {}", r.merge_fraction);
        prop_assert!(r.imbalance >= 1.0, "imbalance {}", r.imbalance);
    }
}
