//! Long-horizon trace collection — the synthetic counterpart of the
//! 10-month SNMP dataset and the 2-month Autopower co-deployment.
//!
//! Collection can run under a [`FaultPlan`]: each recorded tick is one
//! "poll" per router, and the plan's drop channel decides which polls
//! fail. A failed poll is recorded as an explicit gap on the affected
//! series — never as a fabricated zero — so gap-aware statistics keep
//! fleet aggregates comparable between faulty and fault-free runs.
//!
//! # Streaming sharded execution
//!
//! Collection is a chunked engine built on [`fj_par`]. The horizon is
//! cut into **epoch chunks** of [`StreamConfig::chunk_rounds`] poll
//! rounds, and a run goes through named phases:
//!
//! - **resume** — with [`StreamConfig::resume`], restore the newest
//!   checkpoint that verifies;
//! - **dispatch** and **wait** — routers are split into contiguous index
//!   shards on a [`fj_par::WorkerPool`] built once per run (a one-shard
//!   run's pool spawns no thread and runs each chunk inline); each shard
//!   runs its routers through the chunk's window (events, polls, fault
//!   draws, health ladder, prediction) with no cross-shard
//!   synchronisation, producing columnar `RoundRecord` batches. This is
//!   sound because every input is per-router keyed: fault draws address
//!   stream `"snmp/{router}"` (and `"wall/{router}"`) at the *global*
//!   round index — the `(round, router)` cell of a pure oracle and the
//!   engine's "RNG cursor" — scheduled events each target exactly one
//!   router, and the simulators share no state;
//! - **merge** — the main thread drains the chunk's records in strict
//!   `(round, router-index)` order: per-router series and fleet totals
//!   accumulate in fleet order, and telemetry (gap cause events, health
//!   transitions, counters, gauges) is emitted in exactly the sequence
//!   the old sequential loop produced. The workers' stage spans are
//!   adopted in one batch at the end of the chunk, with the ids and ring
//!   contents span-by-span adoption in that order would give; only the
//!   spans the trace ring keeps are built. A flight-recorder trip first
//!   adopts the spans merged so far, so its dump sees them all;
//! - **boundary** — alerts, then progress, then checkpoint.
//!
//! The phases **pipeline** at every shard count: wait for chunk N,
//! dispatch chunk N+1, merge chunk N, run N's boundary — so on a threaded
//! pool the serial merge overlaps the workers' simulation. Ownership
//! makes this safe — workers own the router cells (ping-ponged by value
//! through the pool), the main thread owns all traces and telemetry
//! emission — so the pipelining is invisible to every output.
//!
//! The engine holds at most two chunks of records at a time — the one
//! being merged and the one being simulated — so peak record memory is
//! `O(routers × 2 × chunk_rounds)` instead of `O(routers × horizon)`
//! ([`estimated_peak_record_bytes`]).
//!
//! # Checkpoints and crash recovery
//!
//! With [`StreamConfig::checkpoints`] set, every chunk boundary (except
//! the last) serializes the complete resumable state — router sims,
//! health and predictor counters, event cursors, traces, totals, and the
//! whole telemetry bundle — to a CRC-sealed file
//! ([`crate::checkpoint`]). A supervisor catches shard panics (reported
//! deterministically by [`fj_par::Pending::wait`] — lowest panicking
//! shard wins attribution), rewinds every router to the chunk's first
//! round, and retries with [`fj_faults::Backoff`] up to
//! [`StreamConfig::max_restarts`] times; a killed process resumes from
//! the newest verifiable checkpoint ([`StreamConfig::resume`]), falling
//! back to the previous one when the latest is torn or corrupt.
//!
//! Rewind, checkpoint and resume share one per-router snapshot, the
//! checkpoint's router entry, taken at most once per boundary and only
//! when a supervised chunk is dispatched or a checkpoint written (or
//! before the first dispatch, when supervised).
//!
//! The contract (tested in `tests/determinism.rs` and
//! `tests/recovery.rs`): traces, gap markers, telemetry events, and the
//! deterministic registry ([`Telemetry::registry`]) are **bit-identical
//! for every shard count, every chunk size, and across any crash/resume
//! or supervised restart**. Threads, chunking and recovery decide only
//! wall-clock speed and memory, never results — the FJ01 determinism
//! rule extended to parallel *and* interrupted execution. Recovery itself
//! is observable out-of-band: the flight recorder trips on every restart
//! and checkpoint rejection. `tests/oracle.rs` also holds every shard
//! count and chunk size to a naive sequential collector.
//!
//! A series goes on [`Telemetry::diagnostics`] instead — rendered, never
//! compared or checkpointed — when a wall clock, the recovery schedule,
//! or an optional feature feeds it: the poll-round timing histogram, the
//! recovery counters (`fleet_recoveries_total`,
//! `fleet_checkpoints_rejected_total`), the profiler series, and the
//! alert-plane series.

use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use fj_alerts::{AlertEngine, AlertRule, TransitionKind};
use fj_faults::{Backoff, FaultPlan, HealthState, TargetHealth};
use fj_obs::{EfficiencyAccumulator, ParallelEfficiencyReport};
use fj_router_sim::SimError;
use fj_telemetry::{
    Counter, Gauge, Histogram, Level, RunProgress, SpanBuffer, SpanId, SpanTimer, StageSpan,
    Telemetry, TraceSink, WallEpoch,
};
use fj_traffic::PacketProfile;
use fj_units::{SimDuration, SimInstant, TimeSeries};

use crate::checkpoint::{self, CheckpointConfig, CheckpointError};
use crate::events::{sort_events, ScheduledEvent};
use crate::fleet::{Fleet, FleetRouter};
use crate::predict::ModelPredictor;

/// Numeric encoding of the health ladder for the per-router gauge
/// (`fleet_router_health`): 0 healthy, 1 degraded, 2 quarantined.
fn health_level(s: HealthState) -> f64 {
    match s {
        HealthState::Healthy => 0.0,
        HealthState::Degraded => 1.0,
        HealthState::Quarantined => 2.0,
    }
}

/// Collected series for one router. Serializable: checkpoints persist
/// the partially-collected trace at chunk boundaries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouterTrace {
    /// Router name.
    pub name: String,
    /// Hardware model.
    pub model: String,
    /// Sum of firmware-reported PSU input power (the SNMP trace). Empty
    /// for models that do not report (Fig. 4c).
    pub psu_reported: TimeSeries,
    /// External (Autopower) wall-power measurements. Only populated for
    /// instrumented routers.
    pub wall: TimeSeries,
    /// Power-model predictions (§6.2 method).
    pub predicted: TimeSeries,
    /// Traffic through the router, bits per second (both directions,
    /// summed over interfaces).
    pub traffic: TimeSeries,
}

/// Fleet-wide series plus per-router detail.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTrace {
    /// Poll period used.
    pub step: SimDuration,
    /// Per-router traces, fleet order.
    pub routers: Vec<RouterTrace>,
    /// Total wall power (W) — the physical ground truth.
    pub total_wall: TimeSeries,
    /// Total firmware-reported power (W) over reporting routers — what
    /// the Fig. 1 "Total power" curve is built from.
    pub total_reported: TimeSeries,
    /// Total traffic (bit/s), internal links counted once.
    pub total_traffic: TimeSeries,
    /// Polls that failed under the fault plan and were recorded as gaps
    /// (SNMP and wall-meter reads combined). Zero for a clean collection.
    pub missed_polls: u64,
}

impl FleetTrace {
    /// Trace of the router with the given name, if collected.
    pub fn router(&self, name: &str) -> Option<&RouterTrace> {
        self.routers.iter().find(|r| r.name == name)
    }
}

/// Runs the fleet from `start` (inclusive) to `end` (exclusive) at the
/// poll period `step`, applying `events` at their scheduled times and
/// recording one sample per poll — fault-free, into the global
/// telemetry bundle, at the default shard count ([`fj_par::shard_count`],
/// overridable via `FJ_SHARDS`).
///
/// `instrumented` lists fleet indices carrying Autopower units (the paper
/// deployed three); their wall power is recorded externally.
pub fn collect(
    fleet: &mut Fleet,
    start: SimInstant,
    end: SimInstant,
    step: SimDuration,
    events: Vec<ScheduledEvent>,
    instrumented: &[usize],
) -> Result<FleetTrace, SimError> {
    collect_streaming(
        fleet,
        start,
        end,
        step,
        events,
        instrumented,
        &FaultPlan::clean(),
        fj_telemetry::global(),
        &StreamConfig::default(),
    )
    .map(|outcome| outcome.trace)
}

/// What one router's SNMP poll yielded in one round.
#[derive(Debug, Clone, Copy)]
enum SnmpPoll {
    /// Firmware reported; the sample was recorded.
    Value(f64),
    /// A reporting router's poll was dropped by the fault plan: a gap on
    /// its series, and the fleet total is unknowable this round.
    Gap,
    /// The model exposes no PSU input sensor (Fig. 4c); its wall draw
    /// substitutes in the fleet total (documented deviation).
    NonReporting,
}

/// What the external wall meter read in one round.
#[derive(Debug, Clone, Copy)]
enum WallRead {
    /// No Autopower unit on this router.
    NotInstrumented,
    /// Read recorded (the value is the round's wall power).
    Value,
    /// Read dropped by the fault plan: a gap on the wall series.
    Gap,
}

/// Everything one router contributed to one poll round, recorded
/// columnar by the shard worker and replayed by the deterministic merge.
/// The record is fully self-contained — the merge alone writes the
/// per-router series from it — so a chunk of records is transactional:
/// a retried chunk re-derives the identical batch.
#[derive(Debug, Clone, Copy)]
struct RoundRecord {
    /// Wall power (W) at poll time — feeds `total_wall` and substitutes
    /// for non-reporting routers in `total_reported`.
    wall: f64,
    /// SNMP poll outcome.
    snmp: SnmpPoll,
    /// Wall-meter outcome.
    wall_read: WallRead,
    /// Traffic through the router (full rate over active interfaces),
    /// for the per-router traffic series.
    traffic: f64,
    /// Contribution to the fleet traffic total, with the Fig. 1
    /// convention applied per interface (external full, internal half).
    traffic_contrib: f64,
    /// The §6.2 prediction, if the model is known.
    predicted: Option<f64>,
    /// Health-ladder transition caused by this round's poll outcome, if
    /// any: `(before, after)`.
    transition: Option<(HealthState, HealthState)>,
}

/// Bound on each worker's span buffer: the newest ~1 300 rounds of a
/// router's stage spans survive to the merge; older ones are evicted and
/// *counted* (`spans_dropped_total`), with their wall time still folded
/// into the per-stage profile totals.
const SPAN_BUFFER_CAPACITY: usize = 4096;

/// Stage spans a worker records per router-round at most (`snmp_poll`,
/// `autopower_frame`, `predict`, `router_step`): what a chunk's span
/// buffer reserves per round of its window, up to the bound.
const SPANS_PER_ROUND: usize = 4;

/// Every `&'static str` the engine can intern into the span sink —
/// span/stage names plus the `router` span-field key. Restoring a
/// checkpoint re-interns its owned strings against this table; an
/// unknown name rejects the checkpoint instead of corrupting the sink.
const SPAN_NAMES: &[&str] = &[
    "fleet_collect",
    "fleet_simulate",
    "fleet_merge",
    "fleet_checkpoint",
    "snmp_poll",
    "autopower_frame",
    "predict",
    "router_step",
    "router",
];

/// Estimated peak resident bytes of columnar round records during a
/// streaming collection: `routers × rounds_in_flight ×
/// sizeof(RoundRecord)`. For the chunked engine `rounds_in_flight` is
/// two chunks — the one being merged and the one being simulated —
/// capped at the total round count, which is also the whole-horizon
/// value. (Bench reports use this to show the O(routers × chunk) memory
/// bound.)
pub fn estimated_peak_record_bytes(routers: usize, rounds_in_flight: u64) -> u64 {
    let per_round = u64::try_from(std::mem::size_of::<RoundRecord>()).unwrap_or(u64::MAX);
    u64::try_from(routers)
        .unwrap_or(u64::MAX)
        .saturating_mul(rounds_in_flight)
        .saturating_mul(per_round)
}

/// Deterministic chaos hook: panics one worker at an exact
/// `(round, router)` cell, a bounded number of times. Used by the
/// recovery tests and the crash-recovery CI smoke to prove the
/// supervisor restores chunk-boundary state; firing is latched through
/// an [`Arc`] so a supervised retry of the same chunk does not re-fire.
#[derive(Debug, Clone)]
pub struct ChaosPanic {
    round: u64,
    router: usize,
    remaining: Arc<AtomicU32>,
}

impl ChaosPanic {
    /// Panics the worker simulating `router` when it reaches the global
    /// poll round `round` — once.
    pub fn once(round: u64, router: usize) -> Self {
        Self {
            round,
            router,
            remaining: Arc::new(AtomicU32::new(1)),
        }
    }

    /// Consumes one firing if this `(round, router)` cell is armed.
    fn fires(&self, round: u64, router: usize) -> bool {
        round == self.round
            && router == self.router
            && self
                .remaining
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok()
    }
}

/// Streaming-engine knobs. `StreamConfig::default()` reproduces the
/// plain sharded engine exactly: default shard count, one chunk spanning
/// the whole horizon, no checkpoints, no supervision.
#[derive(Debug, Clone, Default)]
pub struct StreamConfig {
    /// Worker shard count; `0` means [`fj_par::shard_count`].
    pub shards: usize,
    /// Poll rounds simulated per epoch chunk; `0` means the whole
    /// horizon in one chunk. Peak record memory is
    /// `O(routers × 2 × chunk_rounds)` (64 B per router-round): at every
    /// shard count the next chunk simulates while this one merges.
    pub chunk_rounds: u64,
    /// Supervised restarts allowed after shard panics. Each restart
    /// restores the chunk-boundary state and retries the chunk after an
    /// [`fj_faults::Backoff`] delay; once exhausted, the panic resumes
    /// unwinding (the plain-engine behaviour).
    pub max_restarts: u32,
    /// Write a CRC-sealed checkpoint at every chunk boundary except the
    /// last.
    pub checkpoints: Option<CheckpointConfig>,
    /// Before starting, try to resume from the newest verifiable
    /// checkpoint in [`StreamConfig::checkpoints`]. Rejected candidates
    /// (torn, corrupt, wrong version/scenario) trip the flight recorder
    /// and fall back to the next-older file; with none left the run
    /// starts from round zero.
    pub resume: bool,
    /// Stop (successfully, with [`StreamOutcome::completed`] `false`)
    /// after this many chunks — the deterministic stand-in for a killed
    /// process in kill-and-resume tests.
    pub stop_after_chunks: Option<u64>,
    /// Deterministic fault injection for recovery tests.
    pub chaos_panic: Option<ChaosPanic>,
    /// Run the shard-utilization profiler and the live progress plane:
    /// per-chunk worker/merge timings fold into
    /// [`StreamOutcome::efficiency`], [`RunProgress`] snapshots publish
    /// into the telemetry bundle's bounded ring, and profiler-only
    /// registry series (`fleet_parallel_efficiency`, …) track the latest
    /// values. Everything recorded is wall-clock-derived, so the series
    /// live on [`Telemetry::diagnostics`] like the recovery counters —
    /// enabling the profiler never changes traces, events, span ids, or
    /// the deterministic registry (enforced by
    /// `tests/profiler_fj01.rs`).
    pub profile: bool,
    /// Additionally mirror each progress snapshot to this file with an
    /// atomic tmp+rename write (conventionally
    /// `target/telemetry/progress-<exp>.json`), so a long run can be
    /// watched from outside the process. Requires [`StreamConfig::profile`].
    pub progress_path: Option<PathBuf>,
    /// Evaluate a declarative alert rule pack ([`fj_alerts`]) at every
    /// epoch-chunk boundary, in sim time. The verdict stream — firing
    /// and resolved transitions with sim timestamps — is part of the
    /// deterministic contract: bit-identical at any shard/chunk count
    /// and across crash/resume (the engine state rides in checkpoints;
    /// `tests/alerts_fj01.rs` enforces it). The alert-plane series
    /// (`fleet_alerts_*`) are registered only when this is set, on
    /// [`Telemetry::diagnostics`], so the deterministic registry stays
    /// byte-identical. Firing alerts trip the flight recorder (if
    /// armed) with the triggering rule attached.
    pub alerts: Option<AlertsConfig>,
}

/// Alert-plane configuration for a streaming run.
#[derive(Debug, Clone)]
pub struct AlertsConfig {
    /// The rule pack to evaluate (e.g. [`fj_alerts::default_pack`]).
    /// On resume the pack must render to exactly the checkpointed
    /// rules text, or the candidate is rejected.
    pub rules: Vec<AlertRule>,
    /// Mirror the full alert state (rule phases, verdict stream) to
    /// this file after every evaluation with an atomic tmp+rename write
    /// (conventionally `target/telemetry/alerts-<exp>.json`).
    pub json_path: Option<PathBuf>,
}

impl AlertsConfig {
    /// The default rule pack, no JSON mirror.
    pub fn default_pack() -> AlertsConfig {
        AlertsConfig {
            rules: fj_alerts::default_pack(),
            json_path: None,
        }
    }
}

/// What a streaming collection produced, beyond the trace itself.
#[derive(Debug)]
pub struct StreamOutcome {
    /// The collected trace (partial when `completed` is false).
    pub trace: FleetTrace,
    /// Whether the full horizon was collected (`false` only under
    /// [`StreamConfig::stop_after_chunks`]).
    pub completed: bool,
    /// Rounds simulated and merged, including restored ones.
    pub rounds_done: u64,
    /// Rounds in the full horizon.
    pub rounds_total: u64,
    /// Supervised restarts consumed.
    pub restarts: u32,
    /// The round this run resumed from, if it restored a checkpoint.
    pub resumed_at_round: Option<u64>,
    /// Checkpoint files rejected during resume (torn/corrupt/mismatched).
    pub checkpoints_rejected: u32,
    /// Parallel-efficiency report folded over every merged chunk
    /// (`Some` iff [`StreamConfig::profile`] was on). Wall-clock-derived
    /// and off the deterministic surface.
    pub efficiency: Option<ParallelEfficiencyReport>,
    /// The alert engine after the final boundary evaluation (`Some` iff
    /// [`StreamConfig::alerts`] was set): rule phases, the verdict
    /// stream, and the `ALERTS` renderer.
    pub alerts: Option<AlertEngine>,
}

/// One router's sim-side engine state, owned across chunks: the
/// simulator and the per-router oracles' cursors (health ladder,
/// predictor counters, event index).
///
/// Cells are what the worker pool ping-pongs: dispatched by value for
/// each chunk, handed back by [`fj_par::Pending::wait`]. The per-router
/// traces deliberately live *outside* the cell (merge-owned, in a
/// parallel `Vec<RouterTrace>`), so the merge of chunk N can append to
/// them while the pool already simulates chunk N+1 on these cells.
struct RouterCell {
    router: FleetRouter,
    predictor: ModelPredictor,
    health: TargetHealth,
    /// Index of the next unfired event in this router's event list.
    next_event: usize,
    snmp_stream: String,
    wall_stream: String,
    instrumented: bool,
}

impl RouterCell {
    /// A round-zero cell: fresh health ladder and predictor memory, no
    /// event fired yet. A resumed run restores its state into this.
    fn new(router: FleetRouter, instrumented: bool) -> Self {
        Self {
            snmp_stream: format!("snmp/{}", router.name),
            wall_stream: format!("wall/{}", router.name),
            instrumented,
            predictor: ModelPredictor::new(fj_router_sim::spec::shared_truth_registry()),
            health: TargetHealth::new(),
            next_event: 0,
            router,
        }
    }

    /// The engine's one snapshot of a router, trace slot empty: a rewind
    /// point, or with the merge-owned trace filled in, a checkpoint entry.
    fn snapshot(&self) -> checkpoint::RouterState {
        checkpoint::RouterState {
            router: self.router.clone(),
            consecutive_failures: self.health.consecutive_failures(),
            total_failures: self.health.total_failures(),
            total_successes: self.health.total_successes(),
            predictor: self.predictor.counters_snapshot(),
            next_event: u64::try_from(self.next_event).unwrap_or(u64::MAX),
            trace: RouterTrace::default(),
        }
    }

    /// Puts a snapshot back (rewind or resume). The ladder state rederived
    /// from the failure streak is the captured one: the engine never probes.
    fn restore(&mut self, state: &checkpoint::RouterState) {
        self.router = state.router.clone();
        self.health.restore_counts(
            state.consecutive_failures,
            state.total_failures,
            state.total_successes,
        );
        self.predictor.restore_counters(&state.predictor);
        self.next_event = usize::try_from(state.next_event).unwrap_or(usize::MAX);
    }
}

/// A shard worker's output for one router and one chunk: the columnar
/// round records plus the stage spans, both keyed by global round.
struct ChunkOutput {
    records: Vec<RoundRecord>,
    spans: SpanBuffer,
}

/// Adopts, as one batch under `parent`, every worker span still pending
/// before the merge point `(round, router)`: all earlier rounds, plus
/// `round` itself for the routers below `router`. Ids follow strict
/// `(round, router-index)` order, so the span stream is bit-identical at
/// any shard count. The sink builds only the spans its ring keeps, so
/// the walk goes newest-first and stops once the ring's capacity is
/// filled: O(routers + capacity) per call, however many spans the chunk
/// recorded. The adopted prefix of every buffer is then discarded.
fn adopt_before(
    tracer: &TraceSink,
    parent: SpanId,
    outs: &mut [ChunkOutput],
    labels: &[Arc<str>],
    (round, router): (u64, usize),
) {
    let pending = |j: usize, o: &ChunkOutput| o.spans.count_before(round + u64::from(j < router));
    let total: usize = outs.iter().enumerate().map(|(j, o)| pending(j, o)).sum();
    let keep = total.min(tracer.capacity());
    let routers = outs.len();
    let cells = (0..=round).rev().flat_map(|r| {
        let below = if r == round { router } else { routers };
        (0..below).rev().map(move |j| (r, j))
    });
    let mut tail = Vec::with_capacity(keep);
    for (r, j) in cells {
        let room = keep - tail.len();
        if room == 0 {
            break;
        }
        let lane = u32::try_from(j + 1).unwrap_or(u32::MAX);
        let spans = outs[j].spans.round(r).rev().take(room);
        tail.extend(spans.map(|rec| (lane, *rec, Some(&labels[j]))));
    }
    let total = u64::try_from(total).unwrap_or(u64::MAX);
    tracer.adopt_tail(Some(parent), total, tail.into_iter().rev());
    for (j, o) in outs.iter_mut().enumerate() {
        o.spans.discard(pending(j, o));
    }
}

/// Global round window `[first, end)` of one epoch chunk.
#[derive(Debug, Clone, Copy)]
struct ChunkWindow {
    first: u64,
    end: u64,
}

/// Read-only inputs shared by every shard worker. Owned (and handed to
/// the pool behind an [`Arc`]) so dispatched chunks need no borrows into
/// the engine's stack frame — the caller thread is busy merging while
/// pool workers read this.
struct RunContext {
    start: SimInstant,
    step: SimDuration,
    packets: PacketProfile,
    /// Scheduled events per router (fleet index), each list time-sorted.
    events: Vec<Vec<ScheduledEvent>>,
    poll_faults: FaultPlan,
    /// The trace sink's wall-clock epoch, so worker span stamps and
    /// merge span stamps share one time base.
    epoch: WallEpoch,
    chaos: Option<ChaosPanic>,
}

/// Poll time of global round `round`: rounds sample at
/// `start + step·(round+1)` (the first step is consumed by priming).
fn round_time(start: SimInstant, step: SimDuration, round: u64) -> SimInstant {
    let n = i64::try_from(round).unwrap_or(i64::MAX).saturating_add(1);
    start + SimDuration::from_secs(step.as_secs().saturating_mul(n))
}

/// Simulates one router through one chunk window: fires its events,
/// polls it every `step` under the fault plan, steps its health ladder,
/// and runs the §6.2 predictor. Pure per-router *and* per-window — the
/// only inputs are the cell itself and per-router oracles keyed by the
/// global round — so shards can run any subset in any order, chunks of
/// any size, and produce identical records.
fn run_chunk(
    ctx: &RunContext,
    window: ChunkWindow,
    index: usize,
    cell: &mut RouterCell,
) -> Result<ChunkOutput, SimError> {
    let my_events = &ctx.events[index];
    let rounds = usize::try_from(window.end - window.first).unwrap_or(0);
    let mut out = ChunkOutput {
        records: Vec::with_capacity(rounds),
        spans: SpanBuffer::new(SPAN_BUFFER_CAPACITY, rounds.saturating_mul(SPANS_PER_ROUND)),
    };

    if window.first == 0 {
        // Prime: align the sim clock, seed predictor counters so the
        // first recorded sample has a delta, and consume the first step.
        // A resumed run never lands here — the checkpoint state is
        // already past priming.
        cell.router.sim.set_time(ctx.start);
        let _ = cell.predictor.predict_router(index, &cell.router, ctx.step);
        cell.router.step(ctx.start, &ctx.packets, ctx.step)?;
    }

    for round in window.first..window.end {
        let t = round_time(ctx.start, ctx.step, round);
        if let Some(chaos) = &ctx.chaos {
            if chaos.fires(round, index) {
                // fj-lint: allow(FJ02) — deliberate chaos injection: the
                // recovery tests and CI smoke panic a worker here to
                // prove the supervisor restores chunk-boundary state.
                panic!("chaos: injected worker panic (round {round}, router {index})");
            }
        }

        // Fire this router's due events.
        while cell.next_event < my_events.len() && my_events[cell.next_event].at <= t {
            my_events[cell.next_event].apply_to_router(&mut cell.router)?;
            cell.next_event += 1;
        }

        // Stamps are read only for spans that are recorded, and spans
        // that touch share one read. The poll span covers the round's one
        // wall-power evaluation, the PSU sensor reads and the fault draw:
        // the simulated counterpart of the poller's round trip. Only
        // reporting models poll, so only they record it.
        let poll_span = cell
            .router
            .sim
            .spec()
            .sensor
            .reports()
            .then(|| StageSpan::begin("snmp_poll", t, ctx.epoch.elapsed_micros()));
        let wall = cell.router.sim.wall_power().as_f64();
        let mut reported = 0.0;
        let mut reports = false;
        for slot in 0..cell.router.sim.psu_count() {
            if let Ok(Some(p)) = cell.router.sim.psu_reported_power(slot) {
                reported += p.as_f64();
                reports = true;
            }
        }
        let mut transition = None;
        let snmp = if reports {
            if ctx.poll_faults.should_drop(&cell.snmp_stream, round) {
                let before = cell.health.state();
                let after = cell.health.record_failure();
                if after != before {
                    transition = Some((before, after));
                }
                SnmpPoll::Gap
            } else {
                let before = cell.health.state();
                cell.health.record_success();
                if before != HealthState::Healthy {
                    transition = Some((before, HealthState::Healthy));
                }
                SnmpPoll::Value(reported)
            }
        } else {
            SnmpPoll::NonReporting
        };
        let poll_end = match poll_span {
            Some(span) if reports => {
                let end = ctx.epoch.elapsed_micros();
                out.spans.push(round, span.finish(t, end));
                Some(end)
            }
            _ => None,
        };

        let frame_span = cell.instrumented.then(|| {
            let start = poll_end.unwrap_or_else(|| ctx.epoch.elapsed_micros());
            StageSpan::begin("autopower_frame", t, start)
        });
        let wall_read = if cell.instrumented {
            if ctx.poll_faults.should_drop(&cell.wall_stream, round) {
                WallRead::Gap
            } else {
                WallRead::Value
            }
        } else {
            WallRead::NotInstrumented
        };
        if let Some(span) = frame_span {
            out.spans
                .push(round, span.finish(t, ctx.epoch.elapsed_micros()));
        }

        // One pattern evaluation feeds both the router's own traffic
        // series (full rate) and its share of the fleet total (internal
        // links halved — they appear at both ends).
        let mut traffic = 0.0;
        let mut traffic_contrib = 0.0;
        for p in cell.router.plan.iter().filter(|p| !p.spare) {
            let r = p.pattern.rate(t, p.class.speed.rate()).as_f64();
            traffic += r;
            traffic_contrib += if p.external { r } else { r / 2.0 };
        }

        let predict_span = StageSpan::begin("predict", t, ctx.epoch.elapsed_micros());
        let predicted = cell
            .predictor
            .predict_router(index, &cell.router, ctx.step)
            .map(|p| p.as_f64());
        let predict_end = ctx.epoch.elapsed_micros();
        out.spans.push(round, predict_span.finish(t, predict_end));

        let step_span = StageSpan::begin("router_step", t, predict_end);
        cell.router.step(t, &ctx.packets, ctx.step)?;
        out.spans.push(
            round,
            step_span.finish(t + ctx.step, ctx.epoch.elapsed_micros()),
        );

        out.records.push(RoundRecord {
            wall,
            snmp,
            wall_read,
            traffic,
            traffic_contrib,
            predicted,
            transition,
        });
    }

    Ok(out)
}

/// Recovery bookkeeping counters, registered only for supervised or
/// checkpointed runs so a plain run's registry snapshot stays
/// byte-identical to the pre-streaming engine's.
///
/// `written` is on the deterministic registry (same chunking ⇒ same
/// count, checkpointed and restored); `recoveries` and `rejected` follow
/// the recovery schedule, so they live on [`Telemetry::diagnostics`] —
/// an interrupted run *should* differ there.
struct RecoveryCounters {
    written: Counter,
    recoveries: Counter,
    rejected: Counter,
}

/// Relative error above which a §6.2 power-model prediction counts as a
/// miss for `fleet_prediction_errors_total` (with a 1 W absolute floor,
/// so near-idle readings don't flag on noise). Feeds the
/// `prediction_error_burn` SLO rule.
pub const PREDICTION_ERROR_TOLERANCE: f64 = 0.10;

/// Merge-side metric handles, resolved once per run; the replay then
/// costs one atomic op per update.
struct MergeMetrics {
    rounds: Counter,
    snmp_gaps: Counter,
    wall_gaps: Counter,
    total_gaps: Counter,
    quarantines: Counter,
    round_duration: Histogram,
    health: Vec<Gauge>,
    /// Rounds × routers with a §6.2 prediction and wall truth.
    predictions: Counter,
    /// Of those, predictions outside [`PREDICTION_ERROR_TOLERANCE`].
    prediction_errors: Counter,
}

/// Alert-plane state for one streaming run: the [`AlertEngine`] plus its
/// series. Like the recovery counters and the profiler, the series exist
/// only when the feature is configured and live on
/// [`Telemetry::diagnostics`] — but unlike the profiler they are
/// *deterministic given the config*: the verdict stream they mirror is
/// part of the extended contract.
struct AlertPlane {
    engine: AlertEngine,
    firing: Gauge,
    pending: Gauge,
    evals: Counter,
    fired: Counter,
    resolved: Counter,
    json_path: Option<PathBuf>,
}

impl AlertPlane {
    fn new(
        registry: &fj_telemetry::Registry,
        engine: AlertEngine,
        json_path: Option<PathBuf>,
    ) -> Self {
        Self {
            engine,
            firing: registry.gauge("fleet_alerts_firing", &[]),
            pending: registry.gauge("fleet_alerts_pending", &[]),
            evals: registry.counter("fleet_alert_evals_total", &[]),
            fired: registry.counter("fleet_alert_transitions_total", &[("kind", "firing")]),
            resolved: registry.counter("fleet_alert_transitions_total", &[("kind", "resolved")]),
            json_path,
        }
    }

    /// One boundary evaluation at sim time `now`: steps every rule,
    /// emits verdict events, trips the (armed-only) flight recorder per
    /// firing, refreshes the alert-plane series, and mirrors the JSON
    /// dump if configured.
    fn eval(&mut self, telemetry: &Telemetry, now: SimInstant) {
        let transitions = self.engine.eval_and_trip(telemetry, now);
        self.evals.inc();
        for t in &transitions {
            match t.kind {
                TransitionKind::Firing => self.fired.inc(),
                TransitionKind::Resolved => self.resolved.inc(),
            }
        }
        self.firing.set(self.engine.firing_count() as f64);
        self.pending.set(self.engine.pending_count() as f64);
        if let Some(path) = &self.json_path {
            if let Err(e) = self.engine.write_alerts_json(path) {
                // A failed dump degrades observability, not correctness.
                let _ = telemetry
                    .trip_flight_recorder("alerts write failed", &[("error", e.to_string())]);
            }
        }
    }
}

/// Profiler state for one streaming run: the efficiency accumulator, the
/// profiler-only series, the progress snapshot and the merge-overlap
/// bookkeeping. Like the recovery counters, the series exist only when
/// enabled and live on [`Telemetry::diagnostics`]: they are wall-clock
/// derived and *should* differ between otherwise identical runs.
struct RunProfiler {
    epoch: WallEpoch,
    /// Epoch reading when this run started, so rates cover only the work
    /// this process actually did (a resumed prefix is not ours).
    started_us: u64,
    acc: EfficiencyAccumulator,
    efficiency: Gauge,
    merge_fraction: Gauge,
    rounds_per_sec: Gauge,
    shard_busy: Histogram,
    dispatch_wait: Gauge,
    /// The latest progress snapshot; its run constants are set once.
    progress: RunProgress,
    merge_started_us: u64,
    /// The previous merge interval, until the chunk simulating meanwhile
    /// is waited for.
    overlap_pending: Option<(u64, u64)>,
}

impl RunProfiler {
    fn new(registry: &fj_telemetry::Registry, epoch: WallEpoch, progress: RunProgress) -> Self {
        Self {
            started_us: epoch.elapsed_micros(),
            epoch,
            acc: EfficiencyAccumulator::default(),
            efficiency: registry.gauge("fleet_parallel_efficiency", &[]),
            merge_fraction: registry.gauge("fleet_merge_fraction", &[]),
            rounds_per_sec: registry.gauge("fleet_progress_rounds_per_sec", &[]),
            shard_busy: registry.histogram("fleet_shard_busy_seconds", &[]),
            dispatch_wait: registry.gauge("fleet_pool_dispatch_wait_seconds", &[]),
            progress,
            merge_started_us: 0,
            overlap_pending: None,
        }
    }

    /// Wall microseconds since this run started.
    fn run_us(&self) -> u64 {
        self.epoch.elapsed_micros().saturating_sub(self.started_us)
    }

    /// Closes the merge of the chunk dispatched at `dispatched_us` and
    /// folds it into the accumulator and the profiler-only series. With
    /// the next chunk simulating, the interval awaits overlap attribution.
    fn merge_ends(&mut self, stats: &fj_par::ShardStats, dispatched_us: u64, next_in_flight: bool) {
        let ended_us = self.epoch.elapsed_micros();
        // How much of the previous merge ran while this chunk's workers
        // were busy: `dispatched_us + critical_end` is when its last worker
        // finished (for an inline dispatch, before the merge began).
        if let Some((m0, m1)) = self.overlap_pending.take() {
            let workers_end = dispatched_us.saturating_add(stats.critical_end_us());
            self.acc
                .record_merge_overlap(workers_end.min(m1).saturating_sub(m0));
        }
        // The per-worker spawn wait *is* the dispatch queue wait (channel
        // send + queueing behind earlier shards on the same worker); an
        // inline pool's first shard never waits.
        self.acc.record_pool_dispatch_wait(stats.spawn_wait_us());
        for w in &stats.workers {
            self.shard_busy.observe(w.busy_us as f64 / 1e6);
        }
        self.acc
            .record_chunk(stats, ended_us.saturating_sub(self.merge_started_us));
        let report = self.report();
        self.efficiency.set(report.efficiency);
        self.merge_fraction.set(report.merge_fraction);
        // Cumulative pool dispatch wait so far — the series the
        // `dispatch_wait_budget` alert rule watches.
        self.dispatch_wait
            .set(report.pool_dispatch_wait_secs.unwrap_or(0.0));
        if next_in_flight {
            self.overlap_pending = Some((self.merge_started_us, ended_us));
        }
    }

    /// Refreshes the progress snapshot at a boundary: the engine's counts,
    /// plus the rate of the `merged` rounds this run merged, the ETA, and
    /// the efficiency so far.
    fn progress(
        &mut self,
        chunk: u64,
        rounds_done: u64,
        merged: u64,
        checkpoints_written: u64,
        recoveries: u32,
    ) -> RunProgress {
        let report = self.report();
        let wall_secs = self.run_us() as f64 / 1e6;
        let rate = if wall_secs > 0.0 {
            merged as f64 / wall_secs
        } else {
            0.0
        };
        self.rounds_per_sec.set(rate);
        let remaining = self.progress.rounds_total.saturating_sub(rounds_done);
        self.progress = RunProgress {
            chunk,
            rounds_done,
            wall_secs,
            rounds_per_sec: rate,
            eta_secs: if rate > 0.0 {
                remaining as f64 / rate
            } else {
                0.0
            },
            checkpoints_written,
            recoveries: u64::from(recoveries),
            efficiency: report.efficiency,
            merge_fraction: report.merge_fraction,
            ..self.progress.clone()
        };
        self.progress.clone()
    }

    /// The efficiency report over the run so far.
    fn report(&self) -> ParallelEfficiencyReport {
        self.acc.report(self.run_us())
    }
}

/// A verified checkpoint, the telemetry bundle already restored from it:
/// the state, the reopened root span, and the restored alert engine.
type Resumed = (checkpoint::CheckpointState, SpanId, Option<AlertEngine>);

/// A chunk on the pool.
struct InFlight {
    window: ChunkWindow,
    /// Profiling clock reading at dispatch (0 when unprofiled).
    dispatched_us: u64,
    pending: fj_par::Pending<RouterCell, Result<ChunkOutput, SimError>>,
}

/// A simulated chunk: cells, records, pool stats, and dispatch stamp.
type Simulated = (Vec<RouterCell>, Vec<ChunkOutput>, fj_par::ShardStats, u64);

/// One streaming run. The fields are what the phases share; the methods
/// are the phases, which [`StreamEngine::run`] drives in pipeline order.
struct StreamEngine<'a> {
    telemetry: &'a Telemetry,
    config: &'a StreamConfig,
    ctx: Arc<RunContext>,
    end: SimInstant,
    fingerprint: u64,
    rounds_total: u64,
    chunk_rounds: u64,
    shards: usize,
    pool: fj_par::WorkerPool,
    recovery: Option<RecoveryCounters>,
    metrics: MergeMetrics,
    alert_plane: Option<AlertPlane>,
    profiler: Option<RunProfiler>,
    root_span: SpanId,
    /// Merge-owned per-router traces, parallel to the cells: the merge
    /// appends to them while the pool may already hold the cells.
    traces: Vec<RouterTrace>,
    /// Each router's name as the `router` label every adopted span
    /// shares, parallel to the cells.
    labels: Vec<Arc<str>>,
    trace: FleetTrace,
    /// Rounds merged so far, a resumed prefix included.
    round: u64,
    resumed_at_round: Option<u64>,
    chunks_done: u64,
    restarts: u32,
    backoff: Backoff,
    checkpoints_written: u64,
    checkpoints_rejected: u32,
}

impl<'a> StreamEngine<'a> {
    /// Builds the engine over `cells`, the caller's routers at round zero.
    /// A resumed run restores its cells, traces, totals and telemetry from
    /// the checkpoint; a fresh one opens its root span.
    fn new(
        telemetry: &'a Telemetry,
        config: &'a StreamConfig,
        ctx: RunContext,
        end: SimInstant,
        fingerprint: u64,
        cells: &mut [RouterCell],
    ) -> Self {
        let tracer = telemetry.tracer();
        let registry = telemetry.registry();
        let diagnostics = telemetry.diagnostics();
        // Round count derives from the horizon, not from the workers, so an
        // empty fleet still records (empty) totals every round.
        let mut rounds_total: u64 = 0;
        let mut tt = ctx.start + ctx.step;
        while tt < end {
            rounds_total += 1;
            tt += ctx.step;
        }
        let chunk_rounds = match config.chunk_rounds {
            0 => rounds_total.max(1),
            n => n,
        };
        let shards = match config.shards {
            0 => fj_par::shard_count(),
            n => n,
        };
        let recovery =
            (config.checkpoints.is_some() || config.max_restarts > 0).then(|| RecoveryCounters {
                written: registry.counter("fleet_checkpoints_written_total", &[]),
                recoveries: diagnostics.counter("fleet_recoveries_total", &[]),
                rejected: diagnostics.counter("fleet_checkpoints_rejected_total", &[]),
            });

        let (resumed, checkpoints_rejected) =
            Self::resume(telemetry, config, fingerprint, cells.len(), &recovery);
        let mut trace = FleetTrace {
            step: ctx.step,
            ..FleetTrace::default()
        };
        let mut traces: Vec<RouterTrace> = cells
            .iter()
            .map(|c| RouterTrace {
                name: c.router.name.clone(),
                model: c.router.sim.spec().model.clone(),
                ..RouterTrace::default()
            })
            .collect();
        let labels = cells
            .iter()
            .map(|c| Arc::from(c.router.name.as_str()))
            .collect();
        let (root_span, restored_alerts, resumed_at_round) = match resumed {
            Some((state, root, alert_engine)) => {
                for ((cell, rt), rs) in cells.iter_mut().zip(&mut traces).zip(state.routers) {
                    cell.restore(&rs);
                    *rt = rs.trace;
                }
                trace.total_wall = state.total_wall;
                trace.total_reported = state.total_reported;
                trace.total_traffic = state.total_traffic;
                trace.missed_polls = state.missed_polls;
                (root, alert_engine, Some(state.rounds_done))
            }
            None => {
                let root = tracer.begin_span("fleet_collect", None, ctx.start);
                (root, None, None)
            }
        };

        let metrics = MergeMetrics {
            rounds: registry.counter("fleet_poll_rounds_total", &[]),
            snmp_gaps: registry.counter("gaps_total", &[("source", "snmp")]),
            wall_gaps: registry.counter("gaps_total", &[("source", "wall")]),
            total_gaps: registry.counter("gaps_total", &[("source", "fleet_total")]),
            quarantines: registry.counter("fleet_routers_quarantined_total", &[]),
            round_duration: diagnostics.histogram("fleet_poll_round_duration_seconds", &[]),
            health: traces
                .iter()
                .map(|rt| registry.gauge("fleet_router_health", &[("router", &rt.name)]))
                .collect(),
            predictions: registry.counter("fleet_predictions_total", &[]),
            prediction_errors: registry.counter("fleet_prediction_errors_total", &[]),
        };

        // The alert plane exists only when configured, like the recovery
        // counters: a plain run registers none of the `fleet_alerts_*`
        // series and evaluates nothing.
        let alert_plane = config.alerts.as_ref().map(|alerts_cfg| {
            let engine =
                restored_alerts.unwrap_or_else(|| AlertEngine::new(alerts_cfg.rules.clone()));
            AlertPlane::new(diagnostics, engine, alerts_cfg.json_path.clone())
        });

        // Profiler state is created only when asked for: an unprofiled run
        // registers none of the profiler-only series and takes no clock
        // reads beyond what the span stamps already do.
        let profiler = config.profile.then(|| {
            let run = RunProgress {
                rounds_done: resumed_at_round.unwrap_or(0),
                rounds_total,
                routers: u64::try_from(cells.len()).unwrap_or(u64::MAX),
                shards: u64::try_from(shards).unwrap_or(u64::MAX),
                // The chunk being merged plus the one being simulated.
                est_peak_record_bytes: estimated_peak_record_bytes(
                    cells.len(),
                    chunk_rounds.saturating_mul(2).min(rounds_total),
                ),
                checkpoints_rejected: u64::from(checkpoints_rejected),
                ..RunProgress::default()
            };
            RunProfiler::new(diagnostics, tracer.epoch(), run)
        });

        Self {
            telemetry,
            config,
            ctx: Arc::new(ctx),
            end,
            fingerprint,
            rounds_total,
            chunk_rounds,
            shards,
            // One pool per run: threads spawn once and park between chunks
            // (none for one shard); shard counts above the core count (the
            // FJ01 1024-shard case) round-robin onto the workers.
            pool: fj_par::WorkerPool::new(fj_par::clamp_shards(shards)),
            recovery,
            metrics,
            alert_plane,
            profiler,
            root_span,
            traces,
            labels,
            trace,
            round: resumed_at_round.unwrap_or(0),
            resumed_at_round,
            chunks_done: 0,
            restarts: 0,
            backoff: Backoff::new(Duration::from_millis(2), Duration::from_millis(50))
                .with_seed(0x464A_434B),
            checkpoints_written: 0,
            checkpoints_rejected,
        }
    }

    /// Walks candidate checkpoints newest-first. Every rejection — torn
    /// frame, flipped bit, wrong version, foreign scenario, unrestorable
    /// telemetry — counts, trips the flight recorder, and falls back to
    /// the next-older file; verification is transactional, so a rejected
    /// candidate leaves the telemetry bundle untouched.
    fn resume(
        telemetry: &Telemetry,
        config: &StreamConfig,
        fingerprint: u64,
        router_count: usize,
        recovery: &Option<RecoveryCounters>,
    ) -> (Option<Resumed>, u32) {
        let (tracer, mut rejected) = (telemetry.tracer(), 0u32);
        let dirs = config.checkpoints.iter().filter(|_| config.resume);
        for path in dirs.flat_map(|ckpt_cfg| checkpoint::candidates(&ckpt_cfg.dir)) {
            let verdict = checkpoint::load(&path).and_then(|mut state| {
                if state.fingerprint != fingerprint {
                    return Err(CheckpointError::Fingerprint {
                        expected: fingerprint,
                        found: state.fingerprint,
                    });
                }
                if state.routers.len() != router_count {
                    return Err(CheckpointError::Parse(format!(
                        "checkpoint has {} routers, fleet has {router_count}",
                        state.routers.len()
                    )));
                }
                // The open root span must be restorable *before* the
                // bundle is mutated, keeping rejection transactional.
                let open = &state.telemetry.trace.open;
                if !open.iter().any(|s| s.name == "fleet_collect") {
                    return Err(CheckpointError::Parse(
                        "checkpoint has no open fleet_collect span".to_owned(),
                    ));
                }
                // The alert engine restores *before* the bundle is
                // mutated, keeping rejection transactional. A run
                // configured with alerts cannot resume a checkpoint
                // written without them (the verdict stream would
                // diverge from an uninterrupted run's); a run
                // without alerts ignores any checkpointed state.
                let alert_engine = match (&config.alerts, state.alerts.take()) {
                    (Some(alerts_cfg), Some(engine_state)) => Some(
                        AlertEngine::restore(alerts_cfg.rules.clone(), engine_state)
                            .map_err(CheckpointError::Parse)?,
                    ),
                    (Some(_), None) => {
                        return Err(CheckpointError::Parse(
                            "checkpoint carries no alert state but alerts are configured".into(),
                        ))
                    }
                    (None, _) => None,
                };
                telemetry
                    .restore_state(&state.telemetry, SPAN_NAMES)
                    .map_err(CheckpointError::Parse)?;
                let root = tracer.resume_open_span("fleet_collect").ok_or_else(|| {
                    CheckpointError::Parse("open fleet_collect span vanished".to_owned())
                })?;
                Ok((state, root, alert_engine))
            });
            let err = match verdict {
                Ok(hit) => return (Some(hit), rejected),
                Err(err) => err,
            };
            rejected += 1;
            if let Some(rc) = recovery {
                rc.rejected.inc();
            }
            let _ = telemetry.trip_flight_recorder(
                "checkpoint rejected",
                &[
                    ("path", path.display().to_string()),
                    ("error", err.to_string()),
                ],
            );
        }
        (None, rejected)
    }

    /// The loop: wait for chunk N, dispatch chunk N+1, merge chunk N
    /// while N+1 simulates, then run N's boundary. Hands the cells back
    /// with the outcome, after a worker's `SimError` too.
    fn run(mut self, cells: Vec<RouterCell>) -> (Vec<RouterCell>, Result<StreamOutcome, SimError>) {
        let supervising = self.config.max_restarts > 0;
        let mut rewind: Option<Vec<checkpoint::RouterState>> =
            supervising.then(|| cells.iter().map(RouterCell::snapshot).collect());
        let mut inflight = self.dispatch(self.round, cells);
        let cells = loop {
            let window = inflight.window;
            let (cells, outs, stats, dispatched_us) = match self.wait(inflight, rewind.take()) {
                Ok(chunk) => chunk,
                Err((e, cells)) => return (cells, Err(e)),
            };
            // Dispatch chunk N+1 *before* merging chunk N: that is the
            // pipeline. `stop_after_chunks` counts this chunk, so a
            // stopping run never simulates past the rounds it reports and
            // the returned fleet state matches an unpipelined engine's.
            let more = window.end < self.rounds_total;
            let limit = self.config.stop_after_chunks;
            let stop = limit.is_some_and(|n| self.chunks_done + 1 >= n);
            // The boundary's one snapshot, taken while the cells are in
            // hand: the merge never touches sim-side fields, so it is both
            // N's checkpoint payload and N+1's rewind point.
            let snapshot = (more && ((supervising && !stop) || self.config.checkpoints.is_some()))
                .then(|| cells.iter().map(RouterCell::snapshot).collect());
            let next = if more && !stop {
                ControlFlow::Continue(self.dispatch(window.end, cells))
            } else {
                ControlFlow::Break(cells)
            };
            let at = self.merge(window, outs);
            let snapshot = self.boundary(at, &stats, dispatched_us, snapshot, next.is_continue());
            match next {
                ControlFlow::Continue(following) => {
                    inflight = following;
                    rewind = snapshot.filter(|_| supervising);
                }
                ControlFlow::Break(cells) => break cells,
            }
        };
        let completed = self.round >= self.rounds_total;
        if completed {
            self.telemetry.tracer().end_span(self.root_span, self.end);
        }
        self.trace.routers = self.traces;
        let outcome = StreamOutcome {
            efficiency: self.profiler.as_ref().map(RunProfiler::report),
            alerts: self.alert_plane.map(|p| p.engine),
            trace: self.trace,
            completed,
            rounds_done: self.round,
            rounds_total: self.rounds_total,
            restarts: self.restarts,
            resumed_at_round: self.resumed_at_round,
            checkpoints_rejected: self.checkpoints_rejected,
        };
        (cells, Ok(outcome))
    }

    /// Submits the chunk starting at global round `first` to the pool. A
    /// profiled run stamps the dispatch with the tracer's epoch; an
    /// unprofiled run's clock returns 0 and takes no wall reads.
    fn dispatch(&self, first: u64, cells: Vec<RouterCell>) -> InFlight {
        let end = u64::min(first.saturating_add(self.chunk_rounds), self.rounds_total);
        let window = ChunkWindow { first, end };
        let epoch = self.profiler.as_ref().map(|p| p.epoch);
        let clock = move || epoch.map_or(0, |e| e.elapsed_micros());
        let ctx = Arc::clone(&self.ctx);
        let run = move |i: usize, cell: &mut RouterCell| run_chunk(&ctx, window, i, cell);
        InFlight {
            window,
            dispatched_us: clock(),
            pending: self.pool.submit(cells, self.shards, clock, run),
        }
    }

    /// Waits for a chunk dispatched from the cells `rewind` snapshots. The
    /// first worker error in fleet order ends the run, as in the
    /// sequential loop, and hands the cells back. A shard panic rewinds
    /// every cell and retries within [`StreamConfig::max_restarts`];
    /// unsupervised, or with the budget spent, it trips the flight
    /// recorder and re-raises.
    fn wait(
        &mut self,
        mut inflight: InFlight,
        rewind: Option<Vec<checkpoint::RouterState>>,
    ) -> Result<Simulated, (SimError, Vec<RouterCell>)> {
        loop {
            let done = inflight.pending.wait();
            let mut cells = done.items;
            let shard_panic = match done.result {
                Ok(results) => {
                    return match results.into_iter().collect::<Result<Vec<_>, _>>() {
                        Ok(outs) => Ok((cells, outs, done.stats, inflight.dispatched_us)),
                        Err(e) => Err((e, cells)),
                    };
                }
                Err(p) => p,
            };
            // A wedged pool worker loses its shard's cells; only a
            // complete set can be rewound and retried.
            let Some(points) = rewind
                .as_ref()
                .filter(|r| r.len() == cells.len() && self.restarts < self.config.max_restarts)
            else {
                // Crash context first, then the panic proceeds as a
                // sequential run's would.
                let _ = self.telemetry.trip_flight_recorder(
                    "shard worker panicked",
                    &[("shard", shard_panic.shard.to_string())],
                );
                shard_panic.resume();
            };
            // Count it, capture crash context, rewind every cell (healthy
            // shards already advanced through the chunk), back off, retry.
            // Nothing here touches the deterministic surface: no events,
            // no span ids, no series — only the recovery-excluded counter
            // and the (armed-only) flight recorder.
            self.restarts += 1;
            if let Some(rc) = &self.recovery {
                rc.recoveries.inc();
            }
            let _ = self.telemetry.trip_flight_recorder(
                "shard worker panicked",
                &[
                    ("shard", shard_panic.shard.to_string()),
                    ("chunk_first_round", inflight.window.first.to_string()),
                    ("restart", self.restarts.to_string()),
                ],
            );
            for (cell, point) in cells.iter_mut().zip(points.iter()) {
                cell.restore(point);
            }
            std::thread::sleep(self.backoff.next_delay(Duration::ZERO));
            inflight = self.dispatch(inflight.window.first, cells);
        }
    }

    /// Merges one chunk on the calling thread: drains the columnar records
    /// in strict `(round, router-index)` order, writing per-router series,
    /// fleet totals, and all telemetry exactly as the sequential loop
    /// would have. Returns the sim time the chunk ends at, where its
    /// boundary stands.
    fn merge(&mut self, window: ChunkWindow, mut outs: Vec<ChunkOutput>) -> SimInstant {
        debug_assert!(outs
            .iter()
            .all(|o| o.records.len()
                == usize::try_from(window.end - window.first).unwrap_or(usize::MAX)));
        // Chunk spans carry the window's sim extent; the whole-horizon
        // chunk spans exactly `[start, end]`.
        let (start, step) = (self.ctx.start, self.ctx.step);
        let chunk_start = match window.first {
            0 => start,
            first => round_time(start, step, first - 1),
        };
        let chunk_end = if window.end == self.rounds_total {
            self.end
        } else {
            round_time(start, step, window.end - 1)
        };
        let telemetry = self.telemetry;
        let tracer = telemetry.tracer();
        // The sim span is begun only after the chunk's workers succeeded:
        // a supervised retry must not consume span ids, or resumed and
        // uninterrupted runs would diverge.
        let sim_span = tracer.begin_span("fleet_simulate", Some(self.root_span), chunk_start);
        tracer.end_span(sim_span, chunk_end);
        // The profiler's "merge" starts here: span absorption, the replay,
        // and the boundary's alert evaluation.
        if let Some(p) = &mut self.profiler {
            p.merge_started_us = p.epoch.elapsed_micros();
        }
        // Fold each worker's complete stage totals (and span-drop
        // counts) into the sink before replay, in fleet order.
        for o in &outs {
            tracer.absorb_worker(Some(sim_span), &o.spans);
        }
        let merge_span = tracer.begin_span("fleet_merge", Some(self.root_span), chunk_start);
        let (metrics, traces, trace) = (&self.metrics, &mut self.traces, &mut self.trace);
        let labels = &self.labels;
        // Worker spans are adopted in bulk (`adopt_before`): after the
        // round loop, so they sit between the sim and merge spans in the
        // ring as they always did, and before a flight-recorder trip, so
        // the dump holds every span merged up to its router.
        for round in window.first..window.end {
            let t = round_time(start, step, round);
            // Stamp the sim clock first: every event emitted this round —
            // gap causes included — carries the round's timestamp, so gap
            // markers on the trace join to their cause events by `ts`.
            telemetry.set_now(t);
            metrics.rounds.inc();
            let round_span = SpanTimer::wall(metrics.round_duration.clone());
            let rec_index = usize::try_from(round - window.first).unwrap_or(usize::MAX);

            let mut total_wall = 0.0;
            let mut total_reported = 0.0;
            let mut total_traffic = 0.0;
            let mut reported_unknown = false;
            for (i, rt) in traces.iter_mut().enumerate() {
                let rec = outs[i].records[rec_index];
                total_wall += rec.wall;
                total_traffic += rec.traffic_contrib;

                match rec.snmp {
                    SnmpPoll::Value(v) => {
                        rt.psu_reported.push(t, v);
                        total_reported += v;
                        if let Some((before, _)) = rec.transition {
                            metrics.health[i].set(0.0);
                            telemetry.event(
                                Level::Info,
                                "fleet.collect",
                                "router health transition",
                                &[
                                    ("router", rt.name.clone()),
                                    ("from", before.label().to_owned()),
                                    ("to", "healthy".to_owned()),
                                ],
                            );
                        }
                    }
                    SnmpPoll::Gap => {
                        // Missed poll: an explicit gap, never a zero. With a
                        // contributor unknown, the fleet total is unknown
                        // too.
                        rt.psu_reported.push_gap(t);
                        trace.missed_polls += 1;
                        reported_unknown = true;
                        metrics.snmp_gaps.inc();
                        telemetry.event(
                            Level::Warn,
                            "fleet.collect",
                            "snmp poll dropped, gap recorded",
                            &[("router", rt.name.clone()), ("series", "snmp".to_owned())],
                        );
                        if let Some((before, after)) = rec.transition {
                            metrics.health[i].set(health_level(after));
                            if after == HealthState::Quarantined {
                                metrics.quarantines.inc();
                            }
                            telemetry.event(
                                Level::Warn,
                                "fleet.collect",
                                "router health transition",
                                &[
                                    ("router", rt.name.clone()),
                                    ("from", before.label().to_owned()),
                                    ("to", after.label().to_owned()),
                                ],
                            );
                            if before == HealthState::Healthy {
                                // Leaving Healthy is the dump trigger: the
                                // recorder (if armed) captures the recent
                                // span+event rings at the first failure,
                                // this router's spans of the round included.
                                if telemetry.flight_recorder_armed() {
                                    let point = (round, i + 1);
                                    adopt_before(tracer, sim_span, &mut outs, labels, point);
                                }
                                let _ = telemetry.trip_flight_recorder(
                                    "router health ladder left healthy",
                                    &[
                                        ("router", rt.name.clone()),
                                        ("to", after.label().to_owned()),
                                    ],
                                );
                            }
                        }
                    }
                    SnmpPoll::NonReporting => total_reported += rec.wall,
                }

                match rec.wall_read {
                    WallRead::Value => rt.wall.push(t, rec.wall),
                    WallRead::Gap => {
                        rt.wall.push_gap(t);
                        trace.missed_polls += 1;
                        metrics.wall_gaps.inc();
                        telemetry.event(
                            Level::Warn,
                            "fleet.collect",
                            "wall-meter read dropped, gap recorded",
                            &[("router", rt.name.clone()), ("series", "wall".to_owned())],
                        );
                    }
                    WallRead::NotInstrumented => {}
                }

                rt.traffic.push(t, rec.traffic);
                if let Some(p) = rec.predicted {
                    rt.predicted.push(t, p);
                    // Prediction-accuracy counters for the SLO plane: every
                    // predicted round has wall truth in hand; a miss is a
                    // relative error outside the tolerance band. Both are
                    // deterministic (same records ⇒ same counts) and feed
                    // the `prediction_error_burn` burn-rate rule.
                    metrics.predictions.inc();
                    if (p - rec.wall).abs() > PREDICTION_ERROR_TOLERANCE * rec.wall.abs().max(1.0) {
                        metrics.prediction_errors.inc();
                    }
                }
            }

            trace.total_wall.push(t, total_wall);
            if reported_unknown {
                trace.total_reported.push_gap(t);
                metrics.total_gaps.inc();
                telemetry.event(
                    Level::Warn,
                    "fleet.collect",
                    "fleet total unknowable, gap recorded",
                    &[("series", "fleet_total".to_owned())],
                );
            } else {
                trace.total_reported.push(t, total_reported);
            }
            trace.total_traffic.push(t, total_traffic);

            round_span.finish();
        }
        adopt_before(tracer, sim_span, &mut outs, labels, (window.end, 0));
        tracer.end_span(merge_span, chunk_end);
        self.round = window.end;
        self.chunks_done += 1;
        chunk_end
    }

    /// The boundary at sim time `at`, after a merge: alerts, then
    /// progress, then checkpoint. Alerts evaluate *before* the checkpoint
    /// write, so the checkpoint carries the post-eval engine state and a
    /// resumed run continues the verdict stream exactly (the boundary is
    /// never re-evaluated). Hands the snapshot back, trace slots empty.
    fn boundary(
        &mut self,
        at: SimInstant,
        stats: &fj_par::ShardStats,
        dispatched_us: u64,
        snapshot: Option<Vec<checkpoint::RouterState>>,
        next_in_flight: bool,
    ) -> Option<Vec<checkpoint::RouterState>> {
        let (telemetry, config) = (self.telemetry, self.config);
        if let Some(plane) = &mut self.alert_plane {
            plane.eval(telemetry, at);
        }
        if let Some(p) = &mut self.profiler {
            p.merge_ends(stats, dispatched_us, next_in_flight);
            telemetry.publish_progress(p.progress(
                self.chunks_done,
                self.round,
                self.round - self.resumed_at_round.unwrap_or(0),
                self.checkpoints_written,
                self.restarts,
            ));
            if let Some(path) = &config.progress_path {
                if let Err(e) = telemetry.write_progress_json(path) {
                    // A failed progress write degrades observability, not
                    // correctness; capture context if the recorder is armed.
                    let _ = telemetry
                        .trip_flight_recorder("progress write failed", &[("error", e.to_string())]);
                }
            }
        }
        match (&config.checkpoints, snapshot) {
            (Some(ckpt_cfg), Some(routers)) if self.round < self.rounds_total => {
                Some(self.checkpoint(ckpt_cfg, at, routers))
            }
            (_, snapshot) => snapshot,
        }
    }

    /// Writes the checkpoint at sim time `at`. Its span and counter are
    /// recorded *before* serialization, so the file carries its own
    /// bookkeeping and a resumed run continues the sequence exactly. The
    /// snapshot's trace slots hold the merge-owned traces for the write.
    fn checkpoint(
        &mut self,
        ckpt_cfg: &CheckpointConfig,
        at: SimInstant,
        routers: Vec<checkpoint::RouterState>,
    ) -> Vec<checkpoint::RouterState> {
        self.checkpoints_written += 1;
        if let Some(rc) = &self.recovery {
            rc.written.inc();
        }
        let (telemetry, plane) = (self.telemetry, self.alert_plane.as_ref());
        let tracer = telemetry.tracer();
        let ck_span = tracer.begin_span("fleet_checkpoint", Some(self.root_span), at);
        tracer.end_span(ck_span, at);
        let mut state = checkpoint::CheckpointState {
            version: checkpoint::CHECKPOINT_VERSION,
            fingerprint: self.fingerprint,
            rounds_done: self.round,
            missed_polls: self.trace.missed_polls,
            total_wall: self.trace.total_wall.clone(),
            total_reported: self.trace.total_reported.clone(),
            total_traffic: self.trace.total_traffic.clone(),
            routers,
            telemetry: telemetry.checkpoint_state(),
            alerts: plane.map(|p| p.engine.checkpoint_state()),
        };
        for (rs, rt) in state.routers.iter_mut().zip(&mut self.traces) {
            std::mem::swap(&mut rs.trace, rt);
        }
        if let Err(e) = checkpoint::write(ckpt_cfg, self.round, &state) {
            // A failed write degrades durability, not correctness: the
            // run continues, resumable only from the previous checkpoint.
            // Worth a dump if the recorder is armed.
            let _ = telemetry
                .trip_flight_recorder("checkpoint write failed", &[("error", e.to_string())]);
        }
        for (rs, rt) in state.routers.iter_mut().zip(&mut self.traces) {
            std::mem::swap(&mut rs.trace, rt);
        }
        state.routers
    }
}

/// [`collect`] under a fault plan, into an explicit [`Telemetry`] bundle,
/// as configured by `config` — the checkpointed streaming engine.
/// [`StreamConfig::default`] runs the horizon as one chunk.
///
/// The plan's drop channel, drawn per router per tick (streams
/// `"snmp/{router}"` and `"wall/{router}"`), decides which polls fail.
/// Failed polls become gap markers on the per-router series, each with a
/// Warn cause event stamped with the round's sim time and a `gaps_total`
/// count by source, and any tick with at least one failed SNMP poll turns
/// the fleet-total sample into a gap — the total is unknowable when a
/// contributor is missing. A per-router health ladder is kept in the
/// gauge `fleet_router_health`.
///
/// The merge runs in strict `(round, router-index)` order: fleet totals
/// sum in fleet order, so floating-point association never depends on the
/// shard count. See the module docs for the phases, the supervisor, and
/// the extended FJ01 contract.
#[allow(clippy::too_many_arguments)]
pub fn collect_streaming(
    fleet: &mut Fleet,
    start: SimInstant,
    end: SimInstant,
    step: SimDuration,
    mut events: Vec<ScheduledEvent>,
    instrumented: &[usize],
    poll_faults: &FaultPlan,
    telemetry: &Arc<Telemetry>,
    config: &StreamConfig,
) -> Result<StreamOutcome, SimError> {
    // Set up: sort, validate and fingerprint the events, then split them
    // per router once per run (each router's list stays time-sorted).
    assert!(step.is_positive(), "poll period must be positive");
    sort_events(&mut events);
    let router_count = fleet.routers.len();
    for e in &events {
        assert!(
            e.kind.router() < router_count,
            "event at {} targets router {} of a {router_count}-router fleet",
            e.at,
            e.kind.router()
        );
    }
    let fingerprint = checkpoint::scenario_fingerprint(
        start,
        end,
        step,
        &events,
        instrumented,
        poll_faults,
        &fleet.routers,
    );
    let mut router_events = vec![Vec::new(); router_count];
    for e in events {
        router_events[e.kind.router()].push(e);
    }
    let ctx = RunContext {
        start,
        step,
        packets: fleet.packets.clone(),
        events: router_events,
        poll_faults: poll_faults.clone(),
        epoch: telemetry.tracer().epoch(),
        chaos: config.chaos_panic.clone(),
    };

    // Build the engine over the caller's routers (a resume replaces their
    // state), then run it; the routers go back to the caller either way.
    let mut cells: Vec<RouterCell> = std::mem::take(&mut fleet.routers)
        .into_iter()
        .enumerate()
        .map(|(i, router)| RouterCell::new(router, instrumented.contains(&i)))
        .collect();
    let engine = StreamEngine::new(telemetry, config, ctx, end, fingerprint, &mut cells);
    let (cells, outcome) = engine.run(cells);
    fleet.routers = cells.into_iter().map(|c| c.router).collect();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_fleet;
    use crate::config::FleetConfig;
    use crate::events::EventKind;
    use fj_units::Watts;

    fn day_trace(events: Vec<ScheduledEvent>) -> (Fleet, FleetTrace) {
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let trace = collect(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            events,
            &[0],
        )
        .unwrap();
        (fleet, trace)
    }

    #[test]
    fn trace_has_expected_sample_counts() {
        let (fleet, trace) = day_trace(vec![]);
        let expected = 24 * 12 - 1; // one poll per 5 min, first consumed by priming
        assert_eq!(trace.total_wall.len(), expected);
        assert_eq!(trace.total_traffic.len(), expected);
        assert_eq!(trace.routers.len(), fleet.routers.len());
        // Instrumented router 0 has wall samples; others none.
        assert_eq!(trace.routers[0].wall.len(), expected);
        assert!(trace.routers[1].wall.is_empty());
    }

    #[test]
    fn non_reporting_models_have_empty_psu_series() {
        let (fleet, trace) = day_trace(vec![]);
        for (r, rt) in fleet.routers.iter().zip(&trace.routers) {
            let reports = r.sim.spec().sensor.reports();
            assert_eq!(
                !rt.psu_reported.is_empty(),
                reports,
                "{} ({})",
                rt.name,
                rt.model
            );
        }
    }

    #[test]
    fn power_step_event_visible_in_total() {
        let (_, quiet) = day_trace(vec![]);
        let (_, stepped) = day_trace(vec![ScheduledEvent {
            at: SimInstant::from_secs(12 * 3600),
            kind: EventKind::PowerStep {
                router: 0,
                delta: Watts::new(200.0),
            },
        }]);
        let before = |tr: &FleetTrace| {
            tr.total_wall
                .slice(SimInstant::from_secs(0), SimInstant::from_secs(11 * 3600))
                .mean()
                .unwrap()
        };
        let after = |tr: &FleetTrace| {
            tr.total_wall
                .slice(
                    SimInstant::from_secs(13 * 3600),
                    SimInstant::from_secs(24 * 3600),
                )
                .mean()
                .unwrap()
        };
        let quiet_delta = after(&quiet) - before(&quiet);
        let stepped_delta = after(&stepped) - before(&stepped);
        assert!(
            stepped_delta - quiet_delta > 150.0,
            "step visible: {stepped_delta} vs {quiet_delta}"
        );
    }

    #[test]
    fn predictions_collected_for_all_routers() {
        let (_, trace) = day_trace(vec![]);
        for rt in &trace.routers {
            assert!(!rt.predicted.is_empty(), "{} has predictions", rt.name);
            // Prediction is in a sane absolute range.
            let mean = rt.predicted.mean().unwrap();
            assert!(mean > 5.0 && mean < 1000.0, "{}: {mean}", rt.name);
        }
    }

    #[test]
    fn failed_polls_become_gaps_not_zeros() {
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let plan = FaultPlan::new(0x90115).with_drop_rate(0.2);
        let trace = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            vec![],
            &[0],
            &plan,
            fj_telemetry::global(),
            &StreamConfig::default(),
        )
        .unwrap()
        .trace;
        let ticks = 24 * 12 - 1;

        assert!(trace.missed_polls > 0, "plan injected failures");
        // Every reporting router's tick is either a sample or a gap.
        let mut router_gaps = 0;
        for rt in &trace.routers {
            if rt.psu_reported.is_empty() && !rt.psu_reported.has_gaps() {
                continue; // non-reporting model
            }
            assert_eq!(rt.psu_reported.len() + rt.psu_reported.gap_count(), ticks);
            router_gaps += rt.psu_reported.gap_count();
        }
        assert!(router_gaps > 0, "some SNMP polls failed");
        // No fabricated zeros anywhere.
        for rt in &trace.routers {
            assert!(rt.psu_reported.values().iter().all(|&v| v > 0.0));
        }
        // A missing contributor makes the fleet total a gap for that tick.
        assert_eq!(
            trace.total_reported.len() + trace.total_reported.gap_count(),
            ticks
        );
        assert!(trace.total_reported.has_gaps());
        // Wall meter on the instrumented router also degrades to gaps.
        let wall = &trace.routers[0].wall;
        assert_eq!(wall.len() + wall.gap_count(), ticks);

        // Aggregates over observed intervals stay comparable to a clean
        // collection: random misses shrink the denominator, they do not
        // drag the average down.
        let mut clean_fleet = build_fleet(&FleetConfig::small(11));
        let clean = collect(
            &mut clean_fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            vec![],
            &[0],
        )
        .unwrap();
        let until = SimInstant::from_days(1);
        let faulty_mean = trace.total_reported.mean_power_observed(until).unwrap();
        let clean_mean = clean.total_reported.mean_power_observed(until).unwrap();
        let rel = (faulty_mean - clean_mean).abs() / clean_mean;
        assert!(
            rel < 0.01,
            "observed-interval mean within 1%: faulty {faulty_mean:.1} vs clean {clean_mean:.1}"
        );
    }

    #[test]
    fn every_gap_marker_has_a_cause_event() {
        let telemetry = Telemetry::with_capacity(16384);
        let mut fleet = build_fleet(&FleetConfig::small(11));
        let plan = FaultPlan::new(0x6A9_0002).with_drop_rate(0.2);
        let trace = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            vec![],
            &[0],
            &plan,
            &telemetry,
            &StreamConfig::default(),
        )
        .unwrap()
        .trace;
        assert!(trace.missed_polls > 0, "plan injected failures");
        assert!(
            telemetry.events().evicted() == 0,
            "ring must hold all events"
        );

        let has_cause = |at: SimInstant, series: &str, router: Option<&str>| {
            telemetry
                .events()
                .events_where(|e| {
                    e.ts == at
                        && e.target == "fleet.collect"
                        && e.field("series").is_some_and(|s| s == series)
                        && router.is_none_or(|r| e.field("router").is_some_and(|f| f == r))
                })
                .len()
                == 1
        };
        for rt in &trace.routers {
            for &g in rt.psu_reported.gaps() {
                assert!(has_cause(g, "snmp", Some(&rt.name)), "{} @ {g:?}", rt.name);
            }
            for &g in rt.wall.gaps() {
                assert!(has_cause(g, "wall", Some(&rt.name)), "{} @ {g:?}", rt.name);
            }
        }
        for &g in trace.total_reported.gaps() {
            assert!(has_cause(g, "fleet_total", None), "total @ {g:?}");
        }

        // The gaps_total counter agrees with the trace's own count
        // (fleet-total gaps are derived, not missed polls).
        let reg = telemetry.registry();
        let counted = reg.counter("gaps_total", &[("source", "snmp")]).get()
            + reg.counter("gaps_total", &[("source", "wall")]).get();
        assert_eq!(counted, trace.missed_polls);
        assert!(
            reg.counter_total("gaps_total") > counted,
            "total gaps counted too"
        );
    }

    #[test]
    fn traffic_total_positive_and_diurnal() {
        let (_, trace) = day_trace(vec![]);
        let night = trace
            .total_traffic
            .slice(
                SimInstant::from_secs(2 * 3600),
                SimInstant::from_secs(4 * 3600),
            )
            .mean()
            .unwrap();
        let afternoon = trace
            .total_traffic
            .slice(
                SimInstant::from_secs(14 * 3600),
                SimInstant::from_secs(16 * 3600),
            )
            .mean()
            .unwrap();
        assert!(afternoon > night, "afternoon {afternoon} night {night}");
    }

    #[test]
    fn chunked_streaming_equals_whole_horizon_run() {
        let plan = FaultPlan::new(0xC4A5).with_drop_rate(0.1);
        let run = |chunk_rounds: u64, shards: usize| {
            let mut fleet = build_fleet(&FleetConfig::small(9));
            let telemetry = Telemetry::with_capacity(1 << 14);
            let config = StreamConfig {
                shards,
                chunk_rounds,
                ..StreamConfig::default()
            };
            let outcome = collect_streaming(
                &mut fleet,
                SimInstant::EPOCH,
                SimInstant::from_days(1),
                SimDuration::from_mins(5),
                vec![],
                &[0, 3],
                &plan,
                &telemetry,
                &config,
            )
            .unwrap();
            assert!(outcome.completed);
            assert_eq!(outcome.rounds_done, outcome.rounds_total);
            (outcome.trace, fleet.routers[4].sim.now())
        };
        let baseline = run(0, 1);
        // 37 does not divide the 287-round horizon: the final chunk is
        // ragged; 1-round chunks exercise the maximal boundary count.
        for chunk in [37, 1, 288] {
            for shards in [1, 4] {
                assert_eq!(
                    run(chunk, shards),
                    baseline,
                    "chunk={chunk} shards={shards}"
                );
            }
        }
    }

    #[test]
    fn stop_after_chunks_reports_partial_progress() {
        let mut fleet = build_fleet(&FleetConfig::small(5));
        let telemetry = Telemetry::with_capacity(1 << 10);
        let config = StreamConfig {
            shards: 2,
            chunk_rounds: 50,
            stop_after_chunks: Some(2),
            ..StreamConfig::default()
        };
        let outcome = collect_streaming(
            &mut fleet,
            SimInstant::EPOCH,
            SimInstant::from_days(1),
            SimDuration::from_mins(5),
            vec![],
            &[0],
            &FaultPlan::clean(),
            &telemetry,
            &config,
        )
        .unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.rounds_done, 100);
        assert_eq!(outcome.rounds_total, 287);
        assert_eq!(outcome.trace.total_wall.len(), 100);
    }

    #[test]
    fn progress_counts_the_chunk_simulating_behind_the_merge() {
        // 287 rounds in 96-round chunks: three chunks, so the engine holds
        // two chunks of records at its peak, at every shard count.
        for shards in [1, 2] {
            let mut fleet = build_fleet(&FleetConfig::small(5));
            let routers = fleet.routers.len();
            let telemetry = Telemetry::with_capacity(1 << 10);
            let config = StreamConfig {
                shards,
                chunk_rounds: 96,
                profile: true,
                ..StreamConfig::default()
            };
            let outcome = collect_streaming(
                &mut fleet,
                SimInstant::EPOCH,
                SimInstant::from_days(1),
                SimDuration::from_mins(5),
                vec![],
                &[0],
                &FaultPlan::clean(),
                &telemetry,
                &config,
            )
            .unwrap();
            let last = telemetry.latest_progress().expect("profiled run publishes");
            assert_eq!(last.chunk, 3, "shards {shards}");
            assert_eq!(last.rounds_done, outcome.rounds_total);
            assert_eq!(
                last.est_peak_record_bytes,
                estimated_peak_record_bytes(routers, 192),
                "shards {shards}"
            );
        }
    }

    #[test]
    fn peak_record_bytes_scales_with_chunk_not_horizon() {
        let chunked = estimated_peak_record_bytes(1000, 288);
        let whole = estimated_peak_record_bytes(1000, 80_000);
        assert!(chunked < whole / 100);
        assert_eq!(
            chunked,
            1000 * 288 * u64::try_from(std::mem::size_of::<RoundRecord>()).unwrap()
        );
    }
}
