//! FJ01 — determinism: no raw wall-clock or ambient-entropy calls.
//!
//! Simulation-visible behaviour must be a pure function of seeds and the
//! sim clock (PR 1's fault plans and the chaos soak replay byte-for-byte
//! because of this). Wall time is allowed only behind the explicit
//! abstractions (`SpanTimer::wall`, `WallEpoch`) whose implementations
//! carry a justified allow pragma — everything else must either take a
//! clock/seed or justify itself in place.
//!
//! Threads deserve the same scrutiny but not a needle: the workspace's
//! one concurrency seam is `fj_par::WorkerPool`, whose shard reduction
//! is deterministic by construction (contiguous index shards, results
//! reassembled in index order — see DESIGN.md, "Parallel execution &
//! determinism contract"). Sim crates must parallelise through
//! `WorkerPool::submit` rather than spawning threads ad hoc, so the
//! determinism argument stays auditable in one place;
//! `crates/isp/tests/determinism.rs` enforces it end to end.

use super::{find_all, FileCtx};
use crate::findings::Finding;
use crate::workspace::FileClass;

const NEEDLES: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "from_entropy",
    "rand::random",
];

/// Scans library and binary code for wall-clock / entropy calls.
pub fn check(ctx: &FileCtx<'_>, out: &mut Vec<Finding>) {
    if !matches!(ctx.class, FileClass::Library | FileClass::Bin) {
        return;
    }
    for needle in NEEDLES {
        for pos in find_all(ctx.code, needle) {
            if ctx.in_test(pos) {
                continue;
            }
            out.push(ctx.finding(
                "FJ01",
                pos,
                format!(
                    "`{needle}` outside the wall-clock allowlist; take a SimInstant/seed, \
                     use SpanTimer/WallEpoch, or justify with an allow pragma"
                ),
            ));
        }
    }
}
