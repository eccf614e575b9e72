//! The worker pool — fj-par's one executor.
//!
//! [`WorkerPool`] spawns its threads once and parks them on channels
//! between dispatches, so an owner that issues many sharded calls — a
//! streaming run, one per chunk; a fleet, one per `advance` — pays no
//! spawn/join tax per call: dispatching is a handful of channel sends.
//! A pool of 0 or 1 workers spawns no thread at all and runs each job
//! inline inside [`WorkerPool::submit`].
//!
//! Every pool, inline or threaded, keeps one contract:
//!
//! - **Deterministic reduction.** Items are carved into contiguous shards
//!   by [`shard_ranges`](crate::shard_ranges) and results are reassembled
//!   in ascending shard order, so the output vector is element-for-element
//!   identical to the sequential map for any shard or worker count.
//! - **Panic capture.** Closures run under per-item `catch_unwind`; a
//!   panic is reported as a [`ShardPanic`] with the lowest panicking
//!   shard winning. Worker threads never unwind, so a panicked chunk
//!   leaves the pool fully serviceable for the supervised retry.
//! - **Ownership ping-pong.** Because pool threads are `'static` they
//!   cannot borrow the caller's slice; [`WorkerPool::submit`] takes the
//!   items *by value*, ships each shard's sub-vector to a worker, and
//!   [`Pending::wait`] hands every item back — including the items of a
//!   panicked shard, which the engine needs for supervised state restore.
//! - **One clock.** Every dispatch stamps its shards through a
//!   caller-supplied clock; a caller that does not profile passes one
//!   that returns 0.
//!
//! Concurrency inventory (FJ09): the pool is built exclusively on
//! [`std::sync::mpsc`] channels — no atomics, no locks, no unsafe. Jobs
//! are distributed round-robin by shard index (`shard % workers`), which
//! is deterministic and keeps shard counts far above the worker count
//! (the FJ01 1024-shard case) well-defined: each worker drains its jobs
//! in ascending shard order.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::{shard_ranges, ShardPanic, ShardStats, WorkerStats};

/// A unit of work shipped to a pool thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The monotonic clock a dispatch is stamped with.
type SharedClock = Arc<dyn Fn() -> u64 + Send + Sync>;

/// What one shard sends back when its job finishes (or panics).
struct ShardDone<T, R> {
    shard: usize,
    /// The shard's items, returned even when the closure panicked.
    items: Vec<T>,
    /// Per-item results up to (not including) the first panic.
    out: Vec<R>,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
    started_us: u64,
    ended_us: u64,
}

/// A pool of named worker threads (`fj-par-worker-{n}`).
///
/// Threads are spawned once in [`WorkerPool::new`] and parked on their
/// job channels until [`WorkerPool::submit`] feeds them; dropping the
/// pool closes the channels and joins every thread. If the OS refuses to
/// spawn a thread the pool degrades gracefully: jobs that cannot be
/// handed to a worker run inline on the submitting thread, preserving
/// results exactly (threads only ever decide wall-clock time).
pub struct WorkerPool {
    senders: Vec<Sender<Job>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` parked threads; `workers <= 1` spawns none, and
    /// every job then runs inline on the submitting thread.
    pub fn new(workers: usize) -> Self {
        let workers = if workers <= 1 { 0 } else { workers };
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for n in 0..workers {
            let (tx, rx): (Sender<Job>, Receiver<Job>) = channel();
            let spawned = std::thread::Builder::new()
                .name(format!("fj-par-worker-{n}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        job();
                    }
                });
            match spawned {
                Ok(handle) => {
                    senders.push(tx);
                    handles.push(handle);
                }
                // Out of threads: run with what we have (possibly none —
                // submit() then executes jobs inline).
                Err(_) => break,
            }
        }
        WorkerPool { senders, handles }
    }

    /// Worker threads running (0 for an inline pool).
    pub fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Dispatches `f` over `items` split into at most `shards` contiguous
    /// shards, returning a [`Pending`] handle at once on a threaded pool;
    /// an inline pool has already run every shard when it returns.
    ///
    /// `clock` stamps each shard's start and end: `spawn_wait` covers
    /// dispatch entry → shard start (channel send plus queue wait behind
    /// earlier shards on the same worker), `busy` the item loop, and
    /// `join_wait` shard end → `wait` returning. An inline pool runs its
    /// shards back to back, each starting at the stamp where the one
    /// before it ended, so its
    /// [`dispatch_wait_us`](crate::ShardStats::dispatch_wait_us) is
    /// exactly zero.
    pub fn submit<T, R, F, C>(
        &self,
        mut items: Vec<T>,
        shards: usize,
        clock: C,
        f: F,
    ) -> Pending<T, R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, &mut T) -> R + Send + Sync + 'static,
        C: Fn() -> u64 + Send + Sync + 'static,
    {
        let clock: SharedClock = Arc::new(clock);
        let f = Arc::new(f);
        let entered_us = clock();
        let ranges = shard_ranges(items.len(), shards);
        // Carve the item vector into owned per-shard parts without
        // shifting: split the tail off back-to-front, then restore order.
        let mut parts: Vec<(usize, usize, Vec<T>)> = Vec::with_capacity(ranges.len());
        for (shard, range) in ranges.iter().enumerate().rev() {
            parts.push((shard, range.start, items.split_off(range.start)));
        }
        parts.reverse();
        let (done_tx, done_rx) = channel::<ShardDone<T, R>>();
        let jobs = parts.len();
        let lanes = self.senders.len().max(1);
        let mut inline_us = entered_us;
        for (shard, first, part) in parts {
            let tx = done_tx.clone();
            let f = Arc::clone(&f);
            let job_clock = Arc::clone(&clock);
            let run = move |started_us: u64| {
                let done = run_shard(shard, first, part, &*f, started_us, &*job_clock);
                let ended_us = done.ended_us;
                // The receiver may be gone if the Pending was dropped;
                // the work is then simply discarded.
                // fj-lint: allow(FJ05) — send into a possibly-closed
                // result channel: the only failure is "caller abandoned
                // the dispatch", and the caller owns that choice.
                let _ = tx.send(done);
                ended_us
            };
            // Round-robin by shard index: deterministic placement, and a
            // worker drains its queue in ascending shard order.
            match self.senders.get(shard % lanes) {
                Some(worker) => {
                    let stamp = Arc::clone(&clock);
                    if let Err(send_err) = worker.send(Box::new(move || {
                        run(stamp());
                    })) {
                        // Worker thread gone (cannot happen while the
                        // pool is alive, but stay total): run inline.
                        (send_err.0)();
                    }
                }
                None => inline_us = run(inline_us),
            }
        }
        Pending {
            rx: done_rx,
            jobs,
            lanes,
            entered_us,
            clock,
        }
    }
}

/// Maps `f` over one shard's items, capturing a panic per item so the
/// worker thread stays alive and the shard's items stay recoverable.
fn run_shard<T, R, F: Fn(usize, &mut T) -> R>(
    shard: usize,
    first: usize,
    mut items: Vec<T>,
    f: &F,
    started_us: u64,
    clock: &(dyn Fn() -> u64 + Send + Sync),
) -> ShardDone<T, R> {
    let mut out = Vec::with_capacity(items.len());
    let mut panic = None;
    for (k, item) in items.iter_mut().enumerate() {
        match catch_unwind(AssertUnwindSafe(|| f(first + k, item))) {
            Ok(r) => out.push(r),
            Err(payload) => {
                panic = Some(payload);
                break;
            }
        }
    }
    ShardDone {
        shard,
        items,
        out,
        panic,
        started_us,
        ended_us: clock(),
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's recv loop; join so no
        // thread outlives the pool (structured concurrency).
        self.senders.clear();
        for handle in self.handles.drain(..) {
            // fj-lint: allow(FJ05) — join on teardown: workers never
            // unwind (jobs catch per item), so an Err here means a
            // non-unwinding abort already took the process down.
            let _ = handle.join();
        }
    }
}

/// An in-flight sharded dispatch. Consume it with [`Pending::wait`];
/// dropping it instead abandons the results (workers finish and their
/// sends land in a closed channel).
pub struct Pending<T, R> {
    rx: Receiver<ShardDone<T, R>>,
    jobs: usize,
    /// Workers the shards were placed on (1 for an inline pool).
    lanes: usize,
    entered_us: u64,
    clock: SharedClock,
}

impl<T, R> Pending<T, R> {
    /// Blocks until every shard reports, then reassembles items and
    /// results in ascending shard (= index) order.
    pub fn wait(self) -> Completed<T, R> {
        let mut done: Vec<Option<ShardDone<T, R>>> = (0..self.jobs).map(|_| None).collect();
        let mut received = 0;
        while received < self.jobs {
            match self.rx.recv() {
                Ok(d) => {
                    let slot = d.shard;
                    if done.get(slot).is_some_and(Option::is_none) {
                        done[slot] = Some(d);
                        received += 1;
                    }
                }
                // All senders gone with shards still missing: a worker
                // died mid-job. Surfaced below as a synthesized panic.
                Err(_) => break,
            }
        }
        let returned_us = (self.clock)();
        let mut items = Vec::new();
        let mut out = Vec::new();
        let mut workers = Vec::with_capacity(self.jobs);
        let mut first_panic: Option<ShardPanic> = None;
        for (shard, slot) in done.into_iter().enumerate() {
            match slot {
                Some(d) => {
                    if let Some(payload) = d.panic {
                        if first_panic.is_none() {
                            first_panic = Some(ShardPanic { shard, payload });
                        }
                    }
                    workers.push(WorkerStats {
                        shard,
                        worker: shard % self.lanes,
                        items: d.items.len() as u64,
                        spawn_wait_us: d.started_us.saturating_sub(self.entered_us),
                        busy_us: d.ended_us.saturating_sub(d.started_us),
                        join_wait_us: returned_us.saturating_sub(d.ended_us),
                    });
                    items.extend(d.items);
                    out.extend(d.out);
                }
                None => {
                    if first_panic.is_none() {
                        first_panic = Some(ShardPanic {
                            shard,
                            payload: Box::new(format!(
                                "fj-par: pool worker lost shard {shard} without reporting"
                            )),
                        });
                    }
                }
            }
        }
        let result = match first_panic {
            None => Ok(out),
            Some(p) => Err(p),
        };
        Completed {
            items,
            result,
            stats: ShardStats {
                wall_us: returned_us.saturating_sub(self.entered_us),
                workers,
            },
        }
    }
}

/// A finished pool dispatch.
pub struct Completed<T, R> {
    /// Every submitted item, reassembled in original index order — also
    /// on panic, so supervisors can restore state in place. (Items of a
    /// shard lost to a wedged worker are the one unrecoverable case; the
    /// caller detects it by length.)
    pub items: Vec<T>,
    /// Index-ordered results, or the lowest panicking shard's panic.
    pub result: Result<Vec<R>, ShardPanic>,
    /// Per-shard utilization, stamped by the dispatch's clock.
    pub stats: ShardStats,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn empty_dispatch_completes_immediately() {
        let pool = WorkerPool::new(2);
        let done = pool
            .submit(Vec::<u8>::new(), 4, || 0, |i, v| (i, *v))
            .wait();
        assert!(done.items.is_empty());
        assert!(done.result.expect("no panic").is_empty());
        assert_eq!(done.stats.shards(), 0);
    }

    #[test]
    fn inline_pool_runs_every_job_on_the_submitting_thread() {
        for workers in [0, 1] {
            let pool = WorkerPool::new(workers);
            assert_eq!(pool.workers(), 0, "no thread for {workers} workers");
            let caller = std::thread::current().id();
            let hits = Arc::new(AtomicUsize::new(0));
            let h = Arc::clone(&hits);
            let pending = pool.submit(
                (0..64u64).collect(),
                4,
                || 0,
                move |_, _| {
                    h.fetch_add(1, Ordering::SeqCst);
                    std::thread::current().id() == caller
                },
            );
            // Every shard ran inside submit, before wait.
            assert_eq!(hits.load(Ordering::SeqCst), 64);
            let done = pending.wait();
            assert!(done.result.expect("no panic").into_iter().all(|here| here));
        }
    }

    #[test]
    fn pool_survives_a_panicked_chunk_and_serves_the_next() {
        let pool = WorkerPool::new(2);
        let first = pool
            .submit(
                (0..16usize).collect(),
                4,
                || 0,
                |i, _: &mut usize| {
                    assert!(i != 3, "injected");
                    i
                },
            )
            .wait();
        assert!(first.result.is_err());
        // Same pool, same threads: the retry must succeed.
        let second = pool
            .submit(first.items, 4, || 0, |i, v: &mut usize| i + *v)
            .wait();
        assert_eq!(second.result.expect("retry clean").len(), 16);
        assert_eq!(pool.workers(), 2);
    }

    /// Four sleeping shards on two workers: shards 2 and 3 queue a whole
    /// shard behind shards 0 and 1. The summed spawn wait counts that
    /// queueing; the per-worker dispatch wait counts only idle workers,
    /// and an inline pool never leaves one idle. Sleeping jobs keep the
    /// timing independent of CPU contention.
    #[test]
    fn dispatch_wait_counts_idle_workers_not_queued_shards() {
        const SHARD_US: u64 = 100_000;
        let epoch = std::time::Instant::now();
        let clock = move || u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let sleep = |_: usize, _: &mut u8| {
            std::thread::sleep(std::time::Duration::from_micros(SHARD_US));
        };
        let stats = WorkerPool::new(2)
            .submit(vec![0u8; 4], 4, clock, sleep)
            .wait()
            .stats;
        let placed: Vec<usize> = stats.workers.iter().map(|w| w.worker).collect();
        assert_eq!(placed, [0, 1, 0, 1]);
        assert!(
            stats.spawn_wait_us() >= 2 * SHARD_US,
            "queued shards count as spawn wait: {stats:?}"
        );
        assert!(
            stats.dispatch_wait_us() < SHARD_US / 4,
            "busy workers are not waiting: {stats:?}"
        );
        let inline = WorkerPool::new(1)
            .submit(vec![0u8; 4], 4, clock, sleep)
            .wait()
            .stats;
        assert_eq!(inline.dispatch_wait_us(), 0, "{inline:?}");
    }

    #[test]
    fn dropping_the_pool_joins_all_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.workers(), 4);
        let done = pool.submit((0..8u8).collect(), 8, || 0, |_, v| *v).wait();
        assert_eq!(done.result.expect("no panic").len(), 8);
        drop(pool); // must not hang or leak threads
    }
}
