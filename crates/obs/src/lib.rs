//! `fj-obs` — runtime profiling for the sharded streaming engine.
//!
//! A sharded run's wall time alone cannot say *why* parallelism does
//! or does not pay: merge serialization, worker idle time, or
//! checkpoint stalls at chunk boundaries. `fj-obs` turns the raw
//! per-shard timings that [`fj_par::WorkerPool::submit`] stamps (plus
//! the engine's measured serial merge time) into a
//! [`ParallelEfficiencyReport`].
//!
//! Everything here is wall-clock-derived and therefore lives **off** the
//! FJ01 deterministic surface: reports ride in the `StreamOutcome` side
//! channel, never in traces, events, or the deterministic metric
//! registry (see DESIGN.md "Runtime profiling & live progress" for the
//! exclusion rationale, and `crates/isp/tests/profiler_fj01.rs` for the
//! enforcement).
//!
//! The accounting identity this crate leans on, pinned down by the
//! proptests in `tests/proptests.rs`: for every shard of a dispatch,
//! `spawn_wait + busy + join_wait` equals the dispatch's wall time up to
//! clock granularity, so Σbusy / (wall × shards) is a true utilization
//! in `[0, 1]` whenever workers get their own cores.

use fj_par::ShardStats;

const US_PER_SEC: f64 = 1_000_000.0;

/// A parallel-efficiency summary folded over every profiled chunk of a
/// streaming run (or any other sequence of sharded calls).
///
/// All durations are wall-clock seconds as sampled through the audited
/// `WallEpoch` seam; none of these numbers are deterministic and none
/// may feed back into simulation results.
#[derive(Debug, Clone, PartialEq)]
pub struct ParallelEfficiencyReport {
    /// Largest worker count observed in any chunk (≥ 1).
    pub shards: usize,
    /// Profiled sharded calls folded into this report.
    pub chunks: u64,
    /// Items mapped across all chunks (router-chunks for the engine).
    pub items: u64,
    /// Total wall time of the measured region (simulate + merge + glue).
    pub wall_secs: f64,
    /// Σ worker busy time across all chunks.
    pub busy_secs: f64,
    /// Σ serial merge time (the sequential (round, router) reduction).
    pub merge_secs: f64,
    /// Σ pool dispatch wait: the time workers sat idle while a chunk
    /// had work for them ([`ShardStats::dispatch_wait_us`]). Shards
    /// queued behind a sibling on a busy worker add nothing, and inline
    /// runs read zero. Always `Some`; an `Option` because ledgerbench
    /// reads it through `.unwrap_or(0.0)`.
    pub pool_dispatch_wait_secs: Option<f64>,
    /// Σ merge time that overlapped the *next* chunk's simulation — the
    /// pipelining win. Zero when the merge never overlaps (inline pools,
    /// single-chunk runs).
    pub merge_overlap_secs: f64,
    /// merge_overlap / merge: the fraction of the serial merge hidden
    /// behind pool workers, in `[0, 1]`. Always `Some`; an `Option`
    /// because ledgerbench reads it through `.unwrap_or(0.0)`.
    pub merge_overlap_fraction: Option<f64>,
    /// Σbusy / (wall × shards): fraction of the theoretically available
    /// worker-seconds actually spent mapping items.
    pub efficiency: f64,
    /// merge / wall: fraction of the run serialized in the merge.
    pub merge_fraction: f64,
    /// Σ per-chunk max busy / Σ per-chunk mean busy (≥ 1; 1 = perfectly
    /// balanced shards, 2 = the slowest worker does twice the mean).
    pub imbalance: f64,
}

impl ParallelEfficiencyReport {
    /// An empty report for `shards` workers — what a run with zero
    /// profiled chunks folds to.
    pub fn empty(shards: usize) -> Self {
        EfficiencyAccumulator::default().report_for(shards.max(1), 0)
    }
}

/// Folds per-chunk [`ShardStats`] (plus the caller's measured merge
/// time) into a [`ParallelEfficiencyReport`].
///
/// The accumulator is plain data: no clocks, no locks, no I/O. The
/// engine owns one per streaming run, feeds it after every successful
/// chunk, and snapshots a report on demand for the progress plane.
#[derive(Debug, Clone, Default)]
pub struct EfficiencyAccumulator {
    shards: usize,
    chunks: u64,
    items: u64,
    busy_us: u64,
    merge_us: u64,
    /// Σ per-chunk max worker busy — the parallel critical path.
    critical_us: u64,
    /// Σ per-chunk mean worker busy, in microsecond units scaled by the
    /// chunk's worker count (kept as a float to avoid rounding bias).
    mean_busy_us: f64,
    /// Σ per-worker dispatch wait ([`ShardStats::dispatch_wait_us`]).
    pool_dispatch_wait_us: u64,
    /// Σ merge time overlapped with the next chunk's simulation
    /// ([`EfficiencyAccumulator::record_merge_overlap`]).
    merge_overlap_us: u64,
}

impl EfficiencyAccumulator {
    /// Absorbs one profiled sharded call and the serial merge time that
    /// followed it.
    pub fn record_chunk(&mut self, stats: &ShardStats, merge_us: u64) {
        self.shards = self.shards.max(stats.shards());
        self.chunks += 1;
        self.items += stats.items();
        self.busy_us += stats.busy_us();
        self.merge_us += merge_us;
        self.pool_dispatch_wait_us += stats.dispatch_wait_us();
        self.critical_us += stats.max_busy_us();
        if stats.shards() > 0 {
            self.mean_busy_us += stats.busy_us() as f64 / stats.shards() as f64;
        }
    }

    /// Chunks folded so far.
    pub fn chunks(&self) -> u64 {
        self.chunks
    }

    /// Absorbs the portion of one merge interval that ran while the
    /// pool was already simulating the next chunk — the pipelined-merge
    /// win the report surfaces as `merge_overlap_fraction`.
    pub fn record_merge_overlap(&mut self, us: u64) {
        self.merge_overlap_us += us;
    }

    /// Snapshot the report against the measured total wall time of the
    /// region (microseconds, same clock the chunk stats used).
    pub fn report(&self, wall_us: u64) -> ParallelEfficiencyReport {
        self.report_for(self.shards.max(1), wall_us)
    }

    fn report_for(&self, shards: usize, wall_us: u64) -> ParallelEfficiencyReport {
        let wall_secs = wall_us as f64 / US_PER_SEC;
        let busy_secs = self.busy_us as f64 / US_PER_SEC;
        let efficiency = if wall_us > 0 {
            (busy_secs / (wall_secs * shards as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let merge_secs = self.merge_us as f64 / US_PER_SEC;
        let merge_fraction = if wall_us > 0 {
            (merge_secs / wall_secs).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let imbalance = if self.mean_busy_us > 0.0 {
            (self.critical_us as f64 / self.mean_busy_us).max(1.0)
        } else {
            1.0
        };
        let merge_overlap_fraction = if self.merge_us > 0 {
            (self.merge_overlap_us as f64 / self.merge_us as f64).clamp(0.0, 1.0)
        } else {
            0.0
        };
        ParallelEfficiencyReport {
            shards,
            chunks: self.chunks,
            items: self.items,
            wall_secs,
            busy_secs,
            merge_secs,
            pool_dispatch_wait_secs: Some(self.pool_dispatch_wait_us as f64 / US_PER_SEC),
            merge_overlap_secs: self.merge_overlap_us as f64 / US_PER_SEC,
            merge_overlap_fraction: Some(merge_overlap_fraction),
            efficiency,
            merge_fraction,
            imbalance,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fj_par::WorkerStats;

    fn stats(busy: &[u64]) -> ShardStats {
        let workers = busy
            .iter()
            .enumerate()
            .map(|(shard, &busy_us)| WorkerStats {
                shard,
                worker: shard,
                items: 10,
                spawn_wait_us: 5,
                busy_us,
                join_wait_us: 5,
            })
            .collect();
        ShardStats {
            wall_us: busy.iter().copied().max().unwrap_or(0) + 10,
            workers,
        }
    }

    #[test]
    fn balanced_chunks_report_high_efficiency_and_unit_imbalance() {
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[1000, 1000, 1000, 1000]), 0);
        let r = acc.report(1010);
        assert_eq!(r.shards, 4);
        assert_eq!(r.chunks, 1);
        assert_eq!(r.items, 40);
        assert!(r.efficiency > 0.98, "efficiency {}", r.efficiency);
        assert!(
            (r.imbalance - 1.0).abs() < 1e-9,
            "imbalance {}",
            r.imbalance
        );
    }

    #[test]
    fn skewed_chunks_report_imbalance_and_lower_efficiency() {
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[4000, 1000, 1000, 1000]), 0);
        let r = acc.report(4010);
        // mean busy = 1750, max = 4000 → imbalance ≈ 2.29.
        assert!(r.imbalance > 2.0, "imbalance {}", r.imbalance);
        assert!(r.efficiency < 0.5, "efficiency {}", r.efficiency);
    }

    #[test]
    fn merge_fraction_tracks_serial_merge_share() {
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[500, 500]), 500);
        let r = acc.report(1010);
        assert!(
            (r.merge_fraction - 500.0 / 1010.0).abs() < 1e-9,
            "merge fraction {}",
            r.merge_fraction
        );
    }

    #[test]
    fn empty_report_is_well_defined() {
        let r = ParallelEfficiencyReport::empty(4);
        assert_eq!(r.shards, 4);
        assert_eq!(r.chunks, 0);
        assert_eq!(r.efficiency, 0.0);
        assert_eq!(r.imbalance, 1.0);
    }

    #[test]
    fn pool_dispatch_wait_and_merge_overlap_fold_into_the_report() {
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[800, 900]), 400);
        acc.record_merge_overlap(300);
        acc.record_chunk(&stats(&[850, 850]), 600);
        acc.record_merge_overlap(450);
        let r = acc.report(3000);
        // Two chunks of two shards, each on its own worker after 5 µs.
        assert!((r.pool_dispatch_wait_secs.unwrap_or(0.0) - 20e-6).abs() < 1e-12);
        assert!((r.merge_overlap_secs - 750e-6).abs() < 1e-12);
        // 750 of 1000 merge µs hidden behind the pipeline.
        let frac = r.merge_overlap_fraction.unwrap_or(0.0);
        assert!((frac - 0.75).abs() < 1e-9, "overlap fraction {frac}");
    }

    #[test]
    fn overlap_fraction_clamps_and_defaults_sanely() {
        // No merge recorded → fraction is 0, not NaN.
        let mut acc = EfficiencyAccumulator::default();
        acc.record_merge_overlap(500);
        let r = acc.report(1000);
        assert_eq!(r.merge_overlap_fraction, Some(0.0));
        // Overlap beyond the merge total clamps to 1.
        let mut acc = EfficiencyAccumulator::default();
        acc.record_chunk(&stats(&[100]), 100);
        acc.record_merge_overlap(500);
        assert_eq!(acc.report(1000).merge_overlap_fraction, Some(1.0));
    }
}
