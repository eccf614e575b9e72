//! Property-based equivalence: [`WorkerPool::submit`] must be
//! observationally identical to the sequential map for arbitrary inputs,
//! shard counts, and worker counts — inline pools (0 or 1 workers)
//! included — with the same outputs in the same order, the same
//! mutations, and the same item counts. This is the FJ01 contract for
//! the one executor: thread placement (how shards round-robin onto
//! workers) may only ever change wall-clock time.

use std::collections::BTreeSet;
use std::sync::Once;

use fj_par::{shard_ranges, WorkerPool};
use proptest::prelude::*;

/// Keeps the injected panics of the panic property out of the test
/// output; every other panic still reaches the default hook.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("injected"));
            if !injected {
                default(info);
            }
        }));
    });
}

proptest! {
    /// Pool output == sequential map, element for element, for
    /// arbitrary item vectors and shard/worker counts — up to the FJ01
    /// 1024-shard case and beyond.
    #[test]
    fn pool_map_equals_sequential_map(
        items in proptest::collection::vec(0u64..1_000_000, 0..300),
        shards in 0usize..1100,
        workers in 0usize..6,
    ) {
        let f = |i: usize, v: &mut u64| {
            *v = v.wrapping_mul(31).wrapping_add(i as u64);
            *v ^ 0x5A5A
        };

        let pool = WorkerPool::new(workers);
        let done = pool.submit(items.clone(), shards, || 0, f).wait();
        let pool_out = done.result.expect("no panic injected");

        let mut seq_items = items;
        let seq_out: Vec<u64> = seq_items
            .iter_mut()
            .enumerate()
            .map(|(i, v)| f(i, v))
            .collect();
        prop_assert_eq!(&pool_out, &seq_out);
        prop_assert_eq!(&done.items, &seq_items);
    }

    /// For any set of panicking indices, inline and threaded pools alike
    /// hand every item back in order, with each shard's items mutated up
    /// to (and not including) its first panic, and name the lowest
    /// panicking shard.
    #[test]
    fn panics_return_every_item_and_name_the_lowest_shard(
        len in 0usize..200,
        panics in proptest::collection::btree_set(0usize..200, 0..4),
        shards in 1usize..40,
        workers in 0usize..4,
    ) {
        quiet_injected_panics();
        let armed: BTreeSet<usize> = panics.into_iter().filter(|&i| i < len).collect();
        let fire = armed.clone();
        let pool = WorkerPool::new(workers);
        let done = pool
            .submit((0..len as u64).collect(), shards, || 0, move |i, v: &mut u64| {
                assert!(!fire.contains(&i), "injected at {i}");
                *v += 1_000;
                i
            })
            .wait();

        let ranges = shard_ranges(len, shards);
        prop_assert_eq!(done.items.len(), len);
        for range in &ranges {
            let stop = armed.range(range.clone()).next().copied().unwrap_or(range.end);
            for i in range.clone() {
                let expect = if i < stop { i as u64 + 1_000 } else { i as u64 };
                prop_assert_eq!(done.items[i], expect, "item {} of shard {:?}", i, range);
            }
        }
        match armed.first() {
            None => prop_assert_eq!(done.result.expect("no panic armed"), (0..len).collect::<Vec<_>>()),
            Some(&lowest) => {
                let err = done.result.expect_err("an armed index panics");
                let shard = ranges.iter().position(|r| r.contains(&lowest));
                prop_assert_eq!(Some(err.shard), shard);
                let msg = err.payload.downcast_ref::<String>().cloned().unwrap_or_default();
                prop_assert_eq!(msg, format!("injected at {lowest}"));
            }
        }
    }

    /// shard_ranges always partitions 0..len exactly: contiguous,
    /// in-order, balanced within one item, never more than
    /// min(shards, len) non-empty ranges.
    #[test]
    fn shard_ranges_partition_exactly(len in 0usize..5_000, shards in 0usize..300) {
        let ranges = shard_ranges(len, shards);
        let mut expected_start = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, expected_start, "contiguous in order");
            prop_assert!(r.end > r.start, "no empty ranges emitted");
            expected_start = r.end;
        }
        prop_assert_eq!(expected_start, len, "covers 0..len exactly");
        prop_assert!(ranges.len() <= shards.max(1).min(len.max(1)));
        if let (Some(first), Some(last)) = (ranges.first(), ranges.last()) {
            prop_assert!(first.len() >= last.len(), "larger shards first");
            prop_assert!(first.len() - last.len() <= 1, "balanced within one");
        }
    }

    /// A dispatch's stats cover every item exactly once and satisfy the
    /// spawn+busy+join == wall partition under a strictly monotonic fake
    /// clock, inline pools included.
    #[test]
    fn pool_stats_cover_all_items(
        len in 0usize..200,
        shards in 1usize..20,
        workers in 0usize..4,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        let tick = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&tick);
        let pool = WorkerPool::new(workers);
        let done = pool
            .submit(
                (0..len as u64).collect::<Vec<u64>>(),
                shards,
                move || t.fetch_add(1, Ordering::Relaxed),
                |i, v: &mut u64| i as u64 + *v,
            )
            .wait();
        let out = done.result.expect("no panic injected");
        prop_assert_eq!(out.len(), len);
        let stats = done.stats;
        prop_assert_eq!(stats.items() as usize, len);
        prop_assert_eq!(stats.shards(), shard_ranges(len, shards).len());
        for w in &stats.workers {
            // Telescoping identity: the three segments partition the
            // dispatch wall exactly under a monotonic clock.
            prop_assert_eq!(w.spawn_wait_us + w.busy_us + w.join_wait_us, stats.wall_us);
        }
        // Per-worker dispatch wait drops only the time shards queued
        // behind siblings on a busy worker: never above the summed spawn
        // wait, equal to it when no shard queues, and zero inline.
        let wait = stats.dispatch_wait_us();
        prop_assert!(wait <= stats.spawn_wait_us());
        if stats.shards() <= pool.workers() {
            prop_assert_eq!(wait, stats.spawn_wait_us());
        }
        if pool.workers() == 0 {
            prop_assert_eq!(wait, 0);
        }
    }
}
