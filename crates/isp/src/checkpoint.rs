//! Chunk-boundary checkpoints for the streaming fleet engine.
//!
//! At every chunk boundary (except the last) the engine serializes the
//! complete resumable state of a collection run — per-router simulator
//! state, health-ladder counters, predictor counter memory, the event
//! cursor, the merge-owned traces and fleet totals, and a full
//! [`fj_telemetry`] checkpoint (event ring, the deterministic registry's
//! counters and gauges, spans) — to a CRC-sealed frame on disk
//! ([`fj_faults::frame`]). A resumed run restores the newest checkpoint
//! that survives verification and continues; the FJ01 contract extends
//! across the crash: the resumed run's traces, events, gaps, and
//! deterministic registry are bit-identical to an uninterrupted run.
//! Diagnostic series (`Telemetry::diagnostics`) are per-process and
//! start from zero in a resumed run.
//!
//! # File format
//!
//! `ckpt-{rounds:012}.fjck` = [`fj_faults::frame::seal`] over a JSON
//! payload of `CheckpointState`. The frame gives magic, version, exact
//! length, and CRC-32 — torn writes surface as
//! [`FrameError::Truncated`](fj_faults::FrameError), flipped bits as
//! `BadCrc`, and both make the supervisor fall back to the previous
//! checkpoint. Files are written atomically (temp + rename) and the
//! newest [`CheckpointConfig::keep`] are retained so a corrupt latest
//! file never strands a run.
//!
//! # Scenario fingerprint
//!
//! Every checkpoint embeds a fingerprint of the collection scenario —
//! horizon, step, router names and models, instrumented set, scheduled
//! events, and the fault plan (seed plus a behavioural probe of the drop
//! channel). A checkpoint from a *different* scenario is rejected with
//! [`CheckpointError::Fingerprint`] instead of silently splicing two
//! incompatible runs together.

use std::fmt;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use fj_core::InterfaceClass;
use fj_faults::{frame, FaultPlan, FrameError};
use fj_router_sim::LinkEnd;
use fj_telemetry::TelemetryCheckpoint;
use fj_units::{SimDuration, SimInstant, TimeSeries};

use crate::events::ScheduledEvent;
use crate::fleet::FleetRouter;
use crate::trace::RouterTrace;

/// Checkpoint payload schema version. Bumped on any incompatible change
/// to `CheckpointState`; loads of other versions are rejected with
/// [`CheckpointError::Version`]. Version 2 carries the deterministic
/// registry only: a version-1 file also lists the diagnostic series,
/// which a restore would put on the deterministic registry.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Where checkpoints live and how many to retain.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory for `ckpt-*.fjck` files (created on first write).
    pub dir: PathBuf,
    /// Newest files kept after each write. Two by default, so a corrupt
    /// or torn latest file still leaves the previous chunk's state.
    pub keep: usize,
}

impl CheckpointConfig {
    /// Checkpoints under `dir`, keeping the newest two.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            keep: 2,
        }
    }
}

/// Why a checkpoint file was rejected.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file could not be read.
    Io(String),
    /// The CRC-sealed frame was torn, corrupt, or not a checkpoint
    /// ([`fj_faults::FrameError`] has the detail).
    Frame(FrameError),
    /// The payload was not a parseable `CheckpointState`.
    Parse(String),
    /// The payload's schema version is not [`CHECKPOINT_VERSION`].
    Version(u32),
    /// The checkpoint belongs to a different collection scenario.
    Fingerprint {
        /// Fingerprint of the scenario being resumed.
        expected: u64,
        /// Fingerprint stored in the checkpoint.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint read failed: {e}"),
            CheckpointError::Frame(e) => write!(f, "checkpoint frame rejected: {e}"),
            CheckpointError::Parse(e) => write!(f, "checkpoint payload rejected: {e}"),
            CheckpointError::Version(v) => {
                write!(
                    f,
                    "checkpoint version {v} != supported {CHECKPOINT_VERSION}"
                )
            }
            CheckpointError::Fingerprint { expected, found } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match scenario {expected:#018x}"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One router's resumable state at a chunk boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct RouterState {
    /// The full simulator + deployment plan (events may have mutated it).
    pub(crate) router: FleetRouter,
    /// Health-ladder streak; the ladder state is rederived from it.
    pub(crate) consecutive_failures: u32,
    /// Lifetime failed polls.
    pub(crate) total_failures: u64,
    /// Lifetime successful polls.
    pub(crate) total_successes: u64,
    /// Predictor counter memory, sorted `(fleet, iface, octets, packets)`.
    pub(crate) predictor: Vec<(usize, usize, u64, u64)>,
    /// Index of the next unfired scheduled event for this router.
    pub(crate) next_event: u64,
    /// The merge-owned per-router trace collected so far.
    pub(crate) trace: RouterTrace,
}

/// Everything needed to resume a streaming collection at a chunk
/// boundary. Serialized as JSON inside a CRC-sealed frame.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct CheckpointState {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub(crate) version: u32,
    /// Scenario fingerprint ([`scenario_fingerprint`]).
    pub(crate) fingerprint: u64,
    /// Rounds fully simulated *and* merged; the resume point.
    pub(crate) rounds_done: u64,
    /// [`FleetTrace::missed_polls`](crate::FleetTrace) so far.
    pub(crate) missed_polls: u64,
    /// Fleet-total wall power so far.
    pub(crate) total_wall: TimeSeries,
    /// Fleet-total reported power so far.
    pub(crate) total_reported: TimeSeries,
    /// Fleet-total traffic so far.
    pub(crate) total_traffic: TimeSeries,
    /// Per-router state, fleet order.
    pub(crate) routers: Vec<RouterState>,
    /// The telemetry bundle: event ring, counters, gauges, span sink.
    pub(crate) telemetry: TelemetryCheckpoint,
    /// Alert-engine state when the run had alerting configured. A run
    /// without alerts has no engine state to carry, so this is `None`
    /// there.
    pub(crate) alerts: Option<fj_alerts::EngineState>,
}

/// File name for the checkpoint taken after `rounds_done` rounds. Zero
/// padding makes lexical order equal numeric order, so retention and
/// newest-first listing are plain name sorts.
pub(crate) fn file_name(rounds_done: u64) -> String {
    format!("ckpt-{rounds_done:012}.fjck")
}

/// Checkpoint files under `dir`, newest (most rounds) first. Missing or
/// unreadable directories yield an empty list.
pub(crate) fn candidates(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("ckpt-") && n.ends_with(".fjck"))
        })
        .collect();
    files.sort();
    files.reverse();
    files
}

/// Serializes and atomically writes one checkpoint, then prunes to the
/// newest [`CheckpointConfig::keep`] files.
pub(crate) fn write(
    cfg: &CheckpointConfig,
    rounds_done: u64,
    state: &CheckpointState,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&cfg.dir)?;
    let payload = serde_json::to_vec(state).map_err(std::io::Error::other)?;
    let framed = frame::seal(&payload);
    let name = file_name(rounds_done);
    let tmp = cfg.dir.join(format!("{name}.tmp"));
    let path = cfg.dir.join(name);
    // Temp + rename: a crash mid-write leaves a `.tmp` orphan, never a
    // half-length `.fjck` masquerading as the newest checkpoint.
    std::fs::write(&tmp, &framed)?;
    std::fs::rename(&tmp, &path)?;
    for old in candidates(&cfg.dir).into_iter().skip(cfg.keep.max(1)) {
        // fj-lint: allow(FJ05) — best-effort retention pruning: a stale
        // checkpoint that survives deletion wastes disk but never
        // corrupts recovery (resume walks newest-first and verifies).
        let _ = std::fs::remove_file(old);
    }
    Ok(path)
}

/// Reads and fully verifies one checkpoint file: frame (magic, version,
/// exact length, CRC), JSON payload, schema version, and each router
/// against its spec. Fingerprint matching is the caller's job — it owns
/// the scenario.
pub(crate) fn load(path: &Path) -> Result<CheckpointState, CheckpointError> {
    let bytes = std::fs::read(path).map_err(|e| CheckpointError::Io(e.to_string()))?;
    decode(&bytes)
}

/// [`load`] after the read. Total: any bytes give a state or an error,
/// never a panic.
fn decode(bytes: &[u8]) -> Result<CheckpointState, CheckpointError> {
    let payload = frame::unseal(bytes).map_err(CheckpointError::Frame)?;
    let state: CheckpointState =
        serde_json::from_slice(payload).map_err(|e| CheckpointError::Parse(e.to_string()))?;
    if state.version != CHECKPOINT_VERSION {
        return Err(CheckpointError::Version(state.version));
    }
    state.routers.iter().try_for_each(RouterState::check)?;
    Ok(state)
}

impl RouterState {
    /// Rejects a router that contradicts its own spec. `SimulatedRouter::new`
    /// builds one interface per port and one PSU per bay, and the
    /// mutators index by them and by cable ends; `plug` admits only
    /// modules the truth model prices, which wall power relies on; the
    /// predictor remembers only interfaces that exist, and restoring its
    /// memory sizes it by them.
    fn check(&self) -> Result<(), CheckpointError> {
        let sim = &self.router.sim;
        let spec = sim.spec();
        let n = sim.interface_count();
        let unpriced = |i: usize| match (sim.interface(i), spec.ports.get(i)) {
            (Ok(st), Some(slot)) => st.transceiver.is_some_and(|trx| {
                let class = InterfaceClass::new(slot.port, trx, st.speed);
                spec.truth.lookup(class).is_none()
            }),
            _ => true,
        };
        let dangling = |i: usize| {
            sim.interface(i)
                .is_ok_and(|st| matches!(st.link, LinkEnd::Internal(j) if j >= n))
        };
        let contradiction = if n != spec.port_count() {
            format!("{n} interfaces for {} ports", spec.port_count())
        } else if sim.psu_count() != spec.psu_slots {
            format!("{} PSUs for {} bays", sim.psu_count(), spec.psu_slots)
        } else if let Some(i) = (0..n).find(|&i| unpriced(i)) {
            format!("interface {i} holds a module the truth model does not price")
        } else if let Some(i) = (0..n).find(|&i| dangling(i)) {
            format!("interface {i} is cabled to a missing interface")
        } else if let Some(e) = self.predictor.iter().find(|e| e.1 >= n) {
            format!("predictor memory for interface {} of {n}", e.1)
        } else {
            return Ok(());
        };
        Err(CheckpointError::Parse(format!(
            "router {} ({}): {contradiction}",
            self.router.name, spec.model
        )))
    }
}

/// FNV-1a over the collection scenario: horizon, step, router identity,
/// instrumented set, scheduled events, and the fault plan. The plan
/// contributes both its seed and a 64-draw behavioural probe of the drop
/// channel, so two plans with the same seed but different drop rates
/// fingerprint differently.
pub(crate) fn scenario_fingerprint(
    start: SimInstant,
    end: SimInstant,
    step: SimDuration,
    events: &[ScheduledEvent],
    instrumented: &[usize],
    poll_faults: &FaultPlan,
    routers: &[FleetRouter],
) -> u64 {
    let mut h = Fnv::new();
    h.write_i64(start.as_secs());
    h.write_i64(end.as_secs());
    h.write_i64(step.as_secs());
    for r in routers {
        h.write_str(&r.name);
        h.write_str(&r.sim.spec().model);
    }
    for &i in instrumented {
        h.write_u64(i as u64);
    }
    for e in events {
        h.write_i64(e.at.as_secs());
        // EventKind derives Debug; its formatting is a stable identity
        // for scheduling purposes.
        h.write_str(&format!("{:?}", e.kind));
    }
    h.write_u64(poll_faults.seed());
    let mut probe = 0u64;
    for i in 0..64 {
        if poll_faults.should_drop("fjck/fingerprint", i) {
            probe |= 1 << i;
        }
    }
    h.write_u64(probe);
    h.finish()
}

/// Minimal FNV-1a hasher (the workspace vendors no hash crates).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
        // Terminator so ("ab","c") never collides with ("a","bc").
        self.write_bytes(&[0xff]);
    }

    fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use std::sync::OnceLock;

    use super::*;
    use crate::build::build_fleet;
    use crate::config::FleetConfig;
    use crate::events::EventKind;
    use crate::predict::ModelPredictor;
    use fj_core::{ModelRegistry, Speed, TransceiverType};
    use fj_units::Watts;
    use proptest::prelude::*;
    use serde::Value;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fjck-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn state(fingerprint: u64, rounds_done: u64) -> CheckpointState {
        let fleet = build_fleet(&FleetConfig::small(3));
        CheckpointState {
            version: CHECKPOINT_VERSION,
            fingerprint,
            rounds_done,
            missed_polls: 2,
            total_wall: TimeSeries::default(),
            total_reported: TimeSeries::default(),
            total_traffic: TimeSeries::default(),
            routers: fleet
                .routers
                .into_iter()
                .map(|router| RouterState {
                    trace: RouterTrace {
                        name: router.name.clone(),
                        model: router.sim.spec().model.clone(),
                        ..Default::default()
                    },
                    router,
                    consecutive_failures: 1,
                    total_failures: 3,
                    total_successes: 40,
                    predictor: vec![(0, 1, 99, 7)],
                    next_event: 0,
                })
                .collect(),
            telemetry: fj_telemetry::Telemetry::with_capacity(8).checkpoint_state(),
            alerts: None,
        }
    }

    #[test]
    fn checkpoint_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let cfg = CheckpointConfig::new(&dir);
        let original = state(0xFEED, 288);
        let path = write(&cfg, 288, &original).unwrap();
        assert_eq!(path.file_name().unwrap(), "ckpt-000000000288.fjck");
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.rounds_done, 288);
        assert_eq!(loaded.fingerprint, 0xFEED);
        assert_eq!(loaded.missed_polls, 2);
        assert_eq!(loaded.routers.len(), original.routers.len());
        assert_eq!(loaded.routers[0].predictor, vec![(0, 1, 99, 7)]);
        assert_eq!(
            loaded.routers[0].router.name,
            original.routers[0].router.name
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_keeps_only_the_newest_two() {
        let dir = tmpdir("retention");
        let cfg = CheckpointConfig::new(&dir);
        for rounds in [100, 200, 300] {
            write(&cfg, rounds, &state(1, rounds)).unwrap();
        }
        let found = candidates(&dir);
        assert_eq!(found.len(), 2);
        // Newest first.
        assert_eq!(found[0].file_name().unwrap(), "ckpt-000000000300.fjck");
        assert_eq!(found[1].file_name().unwrap(), "ckpt-000000000200.fjck");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_and_truncation_surface_as_frame_errors() {
        let dir = tmpdir("corrupt");
        let cfg = CheckpointConfig::new(&dir);
        let path = write(&cfg, 10, &state(1, 10)).unwrap();
        let clean = std::fs::read(&path).unwrap();

        let mut flipped = clean.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::Frame(FrameError::BadCrc { .. }))
        ));

        std::fs::write(&path, &clean[..clean.len() - 5]).unwrap();
        assert!(matches!(
            load(&path),
            Err(CheckpointError::Frame(FrameError::Truncated { .. }))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let dir = tmpdir("version");
        let cfg = CheckpointConfig::new(&dir);
        let mut s = state(1, 10);
        s.version = CHECKPOINT_VERSION + 1;
        let path = write(&cfg, 10, &s).unwrap();
        assert!(
            matches!(load(&path), Err(CheckpointError::Version(v)) if v == CHECKPOINT_VERSION + 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_tracks_every_scenario_input() {
        let fleet = build_fleet(&FleetConfig::small(5));
        let start = SimInstant::EPOCH;
        let end = SimInstant::from_days(1);
        let step = SimDuration::from_mins(5);
        let plan = FaultPlan::new(7).with_drop_rate(0.1);
        let base = || scenario_fingerprint(start, end, step, &[], &[0], &plan, &fleet.routers);
        assert_eq!(base(), base(), "fingerprint is deterministic");

        let longer = scenario_fingerprint(
            start,
            SimInstant::from_days(2),
            step,
            &[],
            &[0],
            &plan,
            &fleet.routers,
        );
        assert_ne!(base(), longer);

        let other_instrumented =
            scenario_fingerprint(start, end, step, &[], &[1], &plan, &fleet.routers);
        assert_ne!(base(), other_instrumented);

        let with_event = scenario_fingerprint(
            start,
            end,
            step,
            &[ScheduledEvent {
                at: SimInstant::from_secs(60),
                kind: EventKind::PowerStep {
                    router: 0,
                    delta: Watts::new(5.0),
                },
            }],
            &[0],
            &plan,
            &fleet.routers,
        );
        assert_ne!(base(), with_event);

        // Same seed, different drop rate: the behavioural probe differs.
        let hotter = FaultPlan::new(7).with_drop_rate(0.9);
        let hotter_fp = scenario_fingerprint(start, end, step, &[], &[0], &hotter, &fleet.routers);
        assert_ne!(base(), hotter_fp);
    }

    /// The JSON payload of a small valid checkpoint, built once.
    fn payload() -> &'static [u8] {
        static PAYLOAD: OnceLock<Vec<u8>> = OnceLock::new();
        PAYLOAD.get_or_init(|| serde_json::to_vec(&state(1, 10)).expect("state serializes"))
    }

    /// [`payload`] as a value tree, edited, in a frame with a valid CRC.
    fn sealed_edit(edit: impl FnOnce(&mut Value)) -> Vec<u8> {
        let mut tree: Value = serde_json::from_slice(payload()).expect("payload parses");
        edit(&mut tree);
        frame::seal(&serde_json::to_vec(&tree).expect("tree serializes"))
    }

    /// The node at `path` (map keys and array indices).
    fn at<'v>(mut v: &'v mut Value, path: &[&str]) -> &'v mut Value {
        for key in path {
            v = match v {
                Value::Map(entries) => {
                    &mut entries.iter_mut().find(|(k, _)| k == key).expect("key").1
                }
                Value::Array(items) => &mut items[key.parse::<usize>().expect("index")],
                other => panic!("no {key} in a {}", other.kind()),
            };
        }
        v
    }

    fn items(v: &mut Value) -> &mut Vec<Value> {
        match v {
            Value::Array(items) => items,
            other => panic!("not an array: {}", other.kind()),
        }
    }

    const SIM: [&str; 4] = ["routers", "0", "router", "sim"];

    fn rejected_as(bytes: &[u8]) -> String {
        match decode(bytes) {
            Err(CheckpointError::Parse(msg)) => msg,
            other => panic!(
                "expected a parse rejection, got {:?}",
                other.map(|s| s.rounds_done)
            ),
        }
    }

    #[test]
    fn a_router_that_contradicts_its_spec_is_rejected() {
        assert!(
            decode(&frame::seal(payload())).is_ok(),
            "the unedited state loads"
        );
        let short = sealed_edit(|t| {
            items(at(t, &[&SIM[..], &["interfaces"]].concat())).pop();
        });
        assert!(rejected_as(&short).contains("interfaces for"));
        let no_psu = sealed_edit(|t| {
            items(at(t, &[&SIM[..], &["psus"]].concat())).pop();
        });
        assert!(rejected_as(&no_psu).contains("PSUs for"));
        let unpriced = sealed_edit(|t| {
            items(at(t, &[&SIM[..], &["spec", "truth", "classes"]].concat())).clear();
        });
        assert!(rejected_as(&unpriced).contains("does not price"));
        let dangling = sealed_edit(|t| {
            let link = at(t, &[&SIM[..], &["interfaces", "0", "link"]].concat());
            *link = Value::Map(vec![("Internal".into(), Value::Int(999))]);
        });
        assert!(rejected_as(&dangling).contains("cabled to a missing interface"));
        let memory = sealed_edit(|t| {
            let entry = Value::Array([0, 999, 1, 1].map(Value::Int).to_vec());
            items(at(t, &["routers", "0", "predictor"])).push(entry);
        });
        assert!(rejected_as(&memory).contains("predictor memory"));
    }

    /// Nodes of the tree, counted in pre-order.
    fn node_count(v: &Value) -> usize {
        1 + match v {
            Value::Map(entries) => entries.iter().map(|(_, c)| node_count(c)).sum(),
            Value::Array(items) => items.iter().map(node_count).sum(),
            _ => 0,
        }
    }

    /// The `n`-th node in pre-order.
    fn nth_node(v: &mut Value, n: usize) -> &mut Value {
        fn go<'v>(v: &'v mut Value, n: &mut usize) -> Option<&'v mut Value> {
            if *n == 0 {
                return Some(v);
            }
            *n -= 1;
            match v {
                Value::Map(entries) => entries.iter_mut().find_map(|(_, c)| go(c, n)),
                Value::Array(items) => items.iter_mut().find_map(|c| go(c, n)),
                _ => None,
            }
        }
        let n = n % node_count(v);
        go(v, &mut { n }).expect("n is below the node count")
    }

    /// A state that loads must be safe to drive: every call that indexes
    /// by interface or bay, on each, then wall power and a predictor
    /// restore.
    fn drive(state: CheckpointState) {
        for rs in state.routers {
            let mut sim = rs.router.sim;
            sim.wall_power();
            for i in 0..sim.interface_count() {
                let _ = sim.set_speed(i, Speed::G100);
                let _ = sim.unplug(i);
                let _ = sim.plug(i, TransceiverType::PassiveDac, Speed::G100);
                let _ = sim.set_admin(i, true);
                let _ = sim.set_external_peer(i, true);
                let _ = sim.uncable(i);
            }
            for slot in 0..sim.psu_count() {
                let _ = sim.psu_reported_power(slot);
                let _ = sim.psu_snapshot(slot);
            }
            sim.wall_power();
            ModelPredictor::new(ModelRegistry::new()).restore_counters(&rs.predictor);
        }
    }

    /// A replacement node of each JSON kind, numbers at their extremes.
    fn replacement(kind: u8) -> Value {
        match kind % 10 {
            0 => Value::Null,
            1 => Value::Bool(true),
            2 => Value::Int(-1),
            3 => Value::Int(i64::MIN),
            4 => Value::UInt(u64::MAX),
            5 => Value::Float(1e300),
            6 => Value::Float(-0.5),
            7 => Value::Str("x".into()),
            8 => Value::Array(Vec::new()),
            _ => Value::Map(Vec::new()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Arbitrary bytes, bare or in a frame with a valid CRC, never
        /// load.
        #[test]
        fn load_rejects_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
            prop_assert!(decode(&bytes).is_err());
            prop_assert!(decode(&frame::seal(&bytes)).is_err());
        }

        /// A truncated payload never loads.
        #[test]
        fn load_rejects_truncated_payloads(cut in any::<usize>()) {
            let text = payload();
            let bytes = frame::seal(&text[..cut % text.len()]);
            prop_assert!(decode(&bytes).is_err());
        }

        /// Mutated JSON under a valid CRC: a node dropped (a map key or
        /// an array element), replaced by another type, or replaced by an
        /// extreme number. Loading never panics, and whatever loads is
        /// safe to drive.
        #[test]
        fn load_is_total_over_mutated_payloads(
            node in any::<usize>(),
            pick in any::<usize>(),
            kind in any::<u8>(),
            drop_node in any::<bool>(),
        ) {
            let bytes = sealed_edit(|t| {
                let target = nth_node(t, node);
                match target {
                    Value::Map(entries) if drop_node && !entries.is_empty() => {
                        entries.remove(pick % entries.len());
                    }
                    Value::Array(items) if drop_node && !items.is_empty() => {
                        items.remove(pick % items.len());
                    }
                    _ => *target = replacement(kind),
                }
            });
            if let Ok(state) = decode(&bytes) {
                drive(state);
            }
        }
    }
}
