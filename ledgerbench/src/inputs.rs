//! Seeded workload inputs. Everything a workload feeds the program —
//! fleet, fault plan, Autopower set, event schedule — is a pure function
//! of the `--seed` argument.

use fj_faults::FaultPlan;
use fj_isp::{build_fleet, EventKind, Fleet, FleetConfig, FleetTrace, ScheduledEvent};
use fj_units::{SimDuration, SimInstant, TimeSeries, Watts};

/// Routers in both census configurations.
pub const CENSUS_ROUTERS: usize = 1000;
/// Stream configuration epoch chunk: 96 five-minute rounds (8 h).
pub const STREAM_CHUNK_ROUNDS: u64 = 96;
/// The SNMP poll period.
pub const STEP: SimDuration = SimDuration::from_mins(5);
/// Stream configuration horizon: one day, 287 recorded rounds (the
/// first step primes).
pub const STREAM_HORIZON: SimDuration = SimDuration::from_days(1);
/// Ops configuration horizon: 8 h, 95 rounds in two chunks, so one
/// checkpoint. Each checkpoint serializes the fleet state and the whole
/// trace so far, so a longer horizon only grows its cost.
pub const OPS_HORIZON: SimDuration = SimDuration::from_hours(8);
/// Ops configuration epoch chunk: 48 rounds (4 h), so the checkpoint
/// falls mid-horizon.
pub const OPS_CHUNK_ROUNDS: u64 = 48;
/// Ops configuration: share of SNMP polls and wall reads the plan drops.
pub const OPS_DROP_RATE: f64 = 0.03;
/// Ops configuration: routers carrying an Autopower meter.
pub const OPS_INSTRUMENTED: usize = 20;
/// Ops configuration: routers per event kind (flaps count one router each).
pub const OPS_EVENTS_PER_KIND: usize = 12;

/// SplitMix64, the benchmark's own seeded generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on a named input stream, so the fleet,
    /// plan, and schedule draw independent sequences from one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Everything one census engine run consumes.
#[derive(Clone)]
pub struct CensusInputs {
    pub fleet: Fleet,
    pub start: SimInstant,
    pub end: SimInstant,
    pub step: SimDuration,
    /// Rounds per epoch chunk.
    pub chunk_rounds: u64,
    pub events: Vec<ScheduledEvent>,
    pub instrumented: Vec<usize>,
    pub plan: FaultPlan,
}

impl CensusInputs {
    /// Recorded poll rounds over the horizon (the first step primes).
    pub fn rounds(&self) -> u64 {
        let span = (self.end.as_secs() - self.start.as_secs()) / self.step.as_secs();
        u64::try_from(span - 1).unwrap_or(0)
    }

    /// Epoch chunks of one engine run.
    pub fn chunks(&self) -> u64 {
        self.rounds().div_ceil(self.chunk_rounds)
    }

    /// Router-rounds one engine run simulates.
    pub fn router_rounds(&self) -> u64 {
        self.rounds() * self.fleet.routers.len() as u64
    }

    /// Sim time of global round `round`, as the engine stamps it.
    pub fn round_time(&self, round: u64) -> SimInstant {
        self.start + SimDuration::from_secs(self.step.as_secs() * (round as i64 + 1))
    }
}

/// The census fleet for `seed`.
pub fn census_config(seed: u64) -> FleetConfig {
    FleetConfig::census_of(seed, CENSUS_ROUTERS)
}

/// The stream configuration: clean plan, no events, no Autopower meters.
pub fn census_stream(seed: u64) -> CensusInputs {
    CensusInputs {
        fleet: build_fleet(&census_config(seed)),
        start: SimInstant::EPOCH,
        end: SimInstant::EPOCH + STREAM_HORIZON,
        step: STEP,
        chunk_rounds: STREAM_CHUNK_ROUNDS,
        events: Vec::new(),
        instrumented: Vec::new(),
        plan: FaultPlan::clean(),
    }
}

/// The ops configuration: a seeded drop plan, a seeded Autopower subset,
/// and a seeded schedule of the paper's event kinds.
pub fn census_ops(seed: u64) -> CensusInputs {
    let fleet = build_fleet(&census_config(seed));
    let start = SimInstant::EPOCH;
    let end = start + OPS_HORIZON;
    let mut rng = Rng::new(seed, 1);
    let mut order: Vec<usize> = (0..fleet.routers.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let instrumented = {
        let mut v = order[..OPS_INSTRUMENTED].to_vec();
        v.sort_unstable();
        v
    };
    let events = event_schedule(&fleet, &order[OPS_INSTRUMENTED..], &mut rng, start, end);
    CensusInputs {
        fleet,
        start,
        end,
        step: STEP,
        chunk_rounds: OPS_CHUNK_ROUNDS,
        events,
        instrumented,
        plan: FaultPlan::new(seed ^ 0x0D20_9000).with_drop_rate(OPS_DROP_RATE),
    }
}

/// Admin-down/up flaps, OS updates, power steps, PSU power cycles, and
/// transceiver unplugs, each on its own router so no event can act on an
/// interface another event removed.
fn event_schedule(
    fleet: &Fleet,
    targets: &[usize],
    rng: &mut Rng,
    start: SimInstant,
    end: SimInstant,
) -> Vec<ScheduledEvent> {
    let rounds = usize::try_from((end.as_secs() - start.as_secs()) / STEP.as_secs()).unwrap_or(1);
    let at = |rng: &mut Rng| {
        start + SimDuration::from_secs(STEP.as_secs() * (1 + rng.below(rounds - 1)) as i64)
    };
    let mut targets = targets.iter().copied();
    let mut events = Vec::new();
    for _ in 0..OPS_EVENTS_PER_KIND {
        let Some(router) = targets.next() else { break };
        let active: Vec<usize> = fleet.routers[router]
            .active_interfaces()
            .map(|p| p.index)
            .collect();
        if active.is_empty() {
            continue;
        }
        let iface = active[rng.below(active.len())];
        let down = at(rng);
        let up = down + SimDuration::from_secs(STEP.as_secs() * (1 + rng.below(36)) as i64);
        events.push(ScheduledEvent {
            at: down,
            kind: EventKind::AdminDown { router, iface },
        });
        if up < end {
            events.push(ScheduledEvent {
                at: up,
                kind: EventKind::AdminUp { router, iface },
            });
        }
    }
    for k in 0..OPS_EVENTS_PER_KIND {
        let Some(router) = targets.next() else { break };
        let delta = Watts::new(5.0 + rng.below(41) as f64);
        events.push(ScheduledEvent {
            at: at(rng),
            kind: EventKind::OsUpdate {
                router,
                version: format!("os-{k}"),
                delta,
            },
        });
    }
    for _ in 0..OPS_EVENTS_PER_KIND {
        let Some(router) = targets.next() else { break };
        let delta = Watts::new(rng.below(61) as f64 - 30.0);
        events.push(ScheduledEvent {
            at: at(rng),
            kind: EventKind::PowerStep { router, delta },
        });
    }
    for _ in 0..OPS_EVENTS_PER_KIND {
        let Some(router) = targets.next() else { break };
        let slot = rng.below(fleet.routers[router].sim.psu_count().max(1));
        events.push(ScheduledEvent {
            at: at(rng),
            kind: EventKind::PowerCyclePsu { router, slot },
        });
    }
    for _ in 0..OPS_EVENTS_PER_KIND {
        let Some(router) = targets.next() else { break };
        let plan = &fleet.routers[router].plan;
        if plan.is_empty() {
            continue;
        }
        let iface = plan[rng.below(plan.len())].index;
        events.push(ScheduledEvent {
            at: at(rng),
            kind: EventKind::UnplugTransceiver { router, iface },
        });
    }
    events
}

/// FNV-1a over everything a trace records: per-router series (sample
/// times, value bits, gap markers), fleet totals, and missed polls. Two
/// runs with equal digests produced the same trace bit for bit.
pub fn trace_digest(trace: &FleetTrace) -> u64 {
    let mut h = Fnv::default();
    for r in &trace.routers {
        h.bytes(r.name.as_bytes());
        for s in [&r.psu_reported, &r.wall, &r.predicted, &r.traffic] {
            h.series(s);
        }
    }
    for s in [
        &trace.total_wall,
        &trace.total_reported,
        &trace.total_traffic,
    ] {
        h.series(s);
    }
    h.u64(trace.missed_polls);
    h.0
}

/// Minimal FNV-1a.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn series(&mut self, s: &TimeSeries) {
        self.u64(s.len() as u64);
        for (t, v) in s.iter() {
            self.u64(t.as_secs() as u64);
            self.u64(v.to_bits());
        }
        self.u64(s.gap_count() as u64);
        for g in s.gaps() {
            self.u64(g.as_secs() as u64);
        }
    }
}
