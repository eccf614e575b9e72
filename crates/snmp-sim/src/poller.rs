//! The SNMP poller: issues GET / GET-NEXT requests with timeout + retry,
//! exponential backoff between retries, and per-target health tracking.

use std::collections::BTreeMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;

use fj_alerts::{AlertEngine, AlertRule};
use fj_faults::{Backoff, HealthState, TargetHealth};
use fj_telemetry::{Counter, Histogram, Level, SpanTimer, Telemetry, WallDeadline, WallEpoch};

use crate::codec::{Pdu, PduType, SnmpError};
use crate::mib::MibValue;
use crate::oid::Oid;

/// Per-target bookkeeping: the health ladder plus a backoff schedule that
/// spaces out whole poll rounds against a failing target.
struct TargetState {
    health: TargetHealth,
    backoff: Backoff,
}

/// Metric handles cached at construction: the per-request hot path must
/// not pay registry lookups (see `fj-telemetry` docs). Metric name
/// catalogue lives in DESIGN.md § Observability.
struct PollerMetrics {
    polls: Counter,
    successes: Counter,
    timeouts: Counter,
    suppressed: Counter,
    retries: Counter,
    crc_failures: Counter,
    backoff_delay: Histogram,
    poll_duration: Histogram,
}

impl PollerMetrics {
    fn new(telemetry: &Telemetry) -> Self {
        let r = telemetry.registry();
        Self {
            polls: r.counter("snmp_polls_total", &[]),
            successes: r.counter("snmp_polls_succeeded_total", &[]),
            timeouts: r.counter("snmp_poll_timeouts_total", &[]),
            suppressed: r.counter("snmp_polls_suppressed_total", &[]),
            retries: r.counter("snmp_poll_retries_total", &[]),
            crc_failures: r.counter("snmp_crc_failures_total", &[]),
            backoff_delay: r.histogram("snmp_backoff_delay_seconds", &[]),
            poll_duration: telemetry
                .diagnostics()
                .histogram("snmp_poll_duration_seconds", &[]),
        }
    }
}

/// A simple synchronous poller. One instance per collection task; request
/// ids increment per request so stray late datagrams are rejected.
///
/// Failure handling is layered:
///
/// * within one request, up to [`retries`](Self::retries) attempts with an
///   exponentially growing, jittered pause between them;
/// * across requests, each target carries a [`TargetHealth`] ladder
///   (healthy → degraded → quarantined) and a [`Backoff`] window. While a
///   target is backing off, polls short-circuit with
///   [`SnmpError::TargetSuppressed`] instead of burning a full timeout ×
///   retry budget per call; quarantined targets admit only periodic
///   recovery probes.
///
/// Every request feeds the `snmp_*` metric family, health transitions
/// emit `snmp.poller` events, and the per-target `snmp_target_health`
/// gauge mirrors the ladder (0 = healthy, 1 = degraded, 2 = quarantined).
pub struct SnmpPoller {
    socket: UdpSocket,
    next_request_id: u32,
    /// Per-attempt receive timeout.
    pub timeout: Duration,
    /// Number of attempts before giving up (paper-style collection is
    /// resilient to a lost datagram or two).
    pub retries: u32,
    /// Base pause between retry attempts (doubles per attempt, jittered).
    pub retry_pause: Duration,
    epoch: WallEpoch,
    targets: BTreeMap<SocketAddr, TargetState>,
    health_thresholds: (u32, u32, Duration),
    telemetry: Arc<Telemetry>,
    metrics: PollerMetrics,
    alerts: Option<AlertEngine>,
}

impl SnmpPoller {
    /// Creates a poller bound to an ephemeral local port, reporting into
    /// the global telemetry bundle.
    pub fn new() -> std::io::Result<SnmpPoller> {
        Self::with_telemetry(Arc::clone(fj_telemetry::global()))
    }

    /// Creates a poller reporting into an explicit telemetry bundle
    /// (isolated tests, soaks with their own snapshot).
    pub fn with_telemetry(telemetry: Arc<Telemetry>) -> std::io::Result<SnmpPoller> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let metrics = PollerMetrics::new(&telemetry);
        Ok(SnmpPoller {
            socket,
            next_request_id: 1,
            timeout: Duration::from_millis(200),
            retries: 3,
            retry_pause: Duration::from_millis(2),
            epoch: WallEpoch::now(),
            targets: BTreeMap::new(),
            health_thresholds: (3, 8, Duration::from_secs(5)),
            telemetry,
            metrics,
            alerts: None,
        })
    }

    /// Attaches an alert rule pack (e.g. [`fj_alerts::default_pack`],
    /// whose `snmp_target_unhealthy` rule mirrors the health ladder).
    /// The engine evaluates after every completed poll round-trip at the
    /// bundle's sim clock; firing rules emit `alerts` events and trip
    /// the flight recorder if armed.
    pub fn set_alert_rules(&mut self, rules: Vec<AlertRule>) {
        self.alerts = Some(AlertEngine::new(rules));
    }

    /// The attached alert engine, if any — its transition log is the
    /// poller's verdict stream.
    pub fn alerts(&self) -> Option<&AlertEngine> {
        self.alerts.as_ref()
    }

    /// Overrides the health-ladder thresholds applied to targets first
    /// seen after this call: degrade / quarantine after that many
    /// consecutive failures, one recovery probe per `probe_interval`.
    pub fn set_health_thresholds(
        &mut self,
        degrade_after: u32,
        quarantine_after: u32,
        probe_interval: Duration,
    ) {
        self.health_thresholds = (degrade_after, quarantine_after, probe_interval);
    }

    /// Current health of `agent` (targets never polled are healthy).
    pub fn health_state(&self, agent: SocketAddr) -> HealthState {
        self.targets
            .get(&agent)
            .map_or(HealthState::Healthy, |t| t.health.state())
    }

    /// Alias of [`SnmpPoller::health_state`], kept for existing callers.
    pub fn health(&self, agent: SocketAddr) -> HealthState {
        self.health_state(agent)
    }

    /// Whether `agent` is currently inside a failure backoff window.
    pub fn in_backoff(&self, agent: SocketAddr) -> bool {
        let now = self.epoch.elapsed();
        self.targets
            .get(&agent)
            .is_some_and(|t| t.backoff.in_backoff(now))
    }

    /// GET: the value at exactly `oid`.
    pub fn get(&mut self, agent: SocketAddr, oid: &Oid) -> Result<MibValue, SnmpError> {
        let request = Pdu::get(self.take_id(), oid.clone());
        let response = self.round_trip(agent, &request)?;
        match (response.error_status, response.value) {
            (0, Some(v)) => Ok(v),
            _ => Err(SnmpError::NoSuchObject(oid.clone())),
        }
    }

    /// GET-NEXT: the first `(oid, value)` after `oid`.
    pub fn get_next(&mut self, agent: SocketAddr, oid: &Oid) -> Result<(Oid, MibValue), SnmpError> {
        let request = Pdu::get_next(self.take_id(), oid.clone());
        let response = self.round_trip(agent, &request)?;
        match (response.error_status, response.value) {
            (0, Some(v)) => Ok((response.oid, v)),
            _ => Err(SnmpError::NoSuchObject(oid.clone())),
        }
    }

    /// Walks the whole subtree under `prefix`, like `snmpwalk`.
    pub fn walk(
        &mut self,
        agent: SocketAddr,
        prefix: &Oid,
    ) -> Result<Vec<(Oid, MibValue)>, SnmpError> {
        let mut out = Vec::new();
        let mut cursor = prefix.clone();
        loop {
            match self.get_next(agent, &cursor) {
                Ok((oid, value)) => {
                    if !prefix.is_prefix_of(&oid) {
                        break; // walked past the subtree
                    }
                    cursor = oid.clone();
                    out.push((oid, value));
                }
                Err(SnmpError::NoSuchObject(_)) => break, // end of MIB
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    fn take_id(&mut self) -> u32 {
        let id = self.next_request_id;
        self.next_request_id = self.next_request_id.wrapping_add(1);
        id
    }

    fn target(&mut self, agent: SocketAddr) -> &mut TargetState {
        let seed = hash_addr(agent);
        let (degrade, quarantine, probe) = self.health_thresholds;
        self.targets.entry(agent).or_insert_with(|| TargetState {
            health: TargetHealth::with_thresholds(degrade, quarantine, probe),
            backoff: Backoff::new(Duration::from_millis(20), Duration::from_secs(2))
                .with_seed(seed),
        })
    }

    /// Mirrors a health transition into the gauge, the transition
    /// counter, and the event log. Cold path: only runs on state change.
    fn record_transition(&self, agent: SocketAddr, from: HealthState, to: HealthState) {
        let target = agent.to_string();
        let registry = self.telemetry.registry();
        registry
            .gauge("snmp_target_health", &[("target", &target)])
            .set(health_level(to));
        registry
            .counter("snmp_health_transitions_total", &[("to", to.label())])
            .inc();
        let level = if to == HealthState::Healthy {
            Level::Info
        } else {
            Level::Warn
        };
        self.telemetry.event(
            level,
            "snmp.poller",
            format!("target {} → {}", from.label(), to.label()),
            &[
                ("target", target.clone()),
                ("from", from.label().to_owned()),
                ("to", to.label().to_owned()),
            ],
        );
        if from == HealthState::Healthy && to != HealthState::Healthy && self.alerts.is_none() {
            // A target leaving Healthy is a flight-recorder trigger: the
            // armed recorder (if any) dumps the recent span+event rings.
            // With an alert engine attached the paired rule owns the trip
            // instead (the recorder latches on its first trip, and the
            // rule-annotated dump is the more diagnostic one).
            let _ = self.telemetry.trip_flight_recorder(
                "snmp target health ladder left healthy",
                &[("target", target), ("to", to.label().to_owned())],
            );
        }
    }

    fn round_trip(&mut self, agent: SocketAddr, request: &Pdu) -> Result<Pdu, SnmpError> {
        self.metrics.polls.inc();
        let now = self.epoch.elapsed();
        let suppressed = {
            let state = self.target(agent);
            state.backoff.in_backoff(now) || !state.health.should_attempt(now)
        };
        if suppressed {
            self.metrics.suppressed.inc();
            self.telemetry.event(
                Level::Debug,
                "snmp.poller",
                "poll suppressed",
                &[("target", agent.to_string())],
            );
            return Err(SnmpError::TargetSuppressed);
        }
        let span = SpanTimer::wall(self.metrics.poll_duration.clone());
        let poll_span = self
            .telemetry
            .tracer()
            .begin_span("snmp_poll", None, self.telemetry.now());
        self.telemetry
            .tracer()
            .annotate(poll_span, "target", agent.to_string());
        let result = self.round_trip_inner(agent, request);
        self.telemetry
            .tracer()
            .end_span(poll_span, self.telemetry.now());
        span.finish();
        let now = self.epoch.elapsed();
        // Update the health ladder first, then mirror the outcome into
        // metrics/events (the target entry borrow must end before that).
        let (before, after, backoff_delay) = {
            let state = self.target(agent);
            let before = state.health.state();
            match &result {
                Ok(_) => {
                    state.health.record_success();
                    state.backoff.reset();
                    (before, Some(HealthState::Healthy), None)
                }
                // Only transport-level failures count against the target;
                // "no such object" is a healthy, well-formed answer.
                Err(SnmpError::Timeout) | Err(SnmpError::Io(_)) => {
                    let after = state.health.record_failure();
                    let delay = state.backoff.next_delay(now);
                    (before, Some(after), Some(delay))
                }
                Err(_) => (before, None, None),
            }
        };
        match (&result, backoff_delay) {
            (Ok(_), _) => self.metrics.successes.inc(),
            (Err(_), Some(delay)) => {
                self.metrics.timeouts.inc();
                self.metrics.backoff_delay.observe(delay.as_secs_f64());
                self.telemetry.event(
                    Level::Info,
                    "snmp.poller",
                    "poll failed",
                    &[
                        ("target", agent.to_string()),
                        ("backoff_ms", delay.as_millis().to_string()),
                    ],
                );
            }
            (Err(_), None) => {}
        }
        if let Some(after) = after {
            if after != before {
                self.record_transition(agent, before, after);
            }
        }
        if let Some(engine) = &mut self.alerts {
            let now = self.telemetry.now();
            engine.eval_and_trip(&self.telemetry, now);
        }
        result
    }

    fn round_trip_inner(&mut self, agent: SocketAddr, request: &Pdu) -> Result<Pdu, SnmpError> {
        let payload = request.encode();
        let mut buf = [0u8; 2048];
        // Pause between attempts, deterministic-jittered per poller.
        let mut pause =
            Backoff::new(self.retry_pause, self.timeout).with_seed(self.next_request_id as u64);
        for attempt in 0..self.retries.max(1) {
            if attempt > 0 {
                self.metrics.retries.inc();
                std::thread::sleep(pause.next_delay(Duration::ZERO));
            }
            self.socket.send_to(&payload, agent)?;
            // One attempt = one send plus draining datagrams until the
            // timeout elapses. Stray or corrupted datagrams do not burn
            // the attempt — only silence does.
            let deadline = WallDeadline::after(self.timeout);
            loop {
                let remaining = deadline.remaining();
                if remaining.is_zero() {
                    break; // next attempt
                }
                self.socket.set_read_timeout(Some(remaining))?;
                match self.socket.recv_from(&mut buf) {
                    Ok((len, _)) => {
                        let Ok(pdu) = Pdu::decode(&buf[..len]) else {
                            // A corrupted datagram is as good as a lost
                            // one: keep waiting within this attempt.
                            self.metrics.crc_failures.inc();
                            continue;
                        };
                        if pdu.request_id != request.request_id || pdu.pdu_type != PduType::Response
                        {
                            // Stray datagram from an earlier timeout or a
                            // duplicated reply; skip it.
                            continue;
                        }
                        return Ok(pdu);
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        break; // attempt timed out
                    }
                    Err(e) => return Err(SnmpError::Io(e)),
                }
            }
        }
        Err(SnmpError::Timeout)
    }
}

/// Gauge encoding of the health ladder.
fn health_level(state: HealthState) -> f64 {
    match state {
        HealthState::Healthy => 0.0,
        HealthState::Degraded => 1.0,
        HealthState::Quarantined => 2.0,
    }
}

fn hash_addr(addr: SocketAddr) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let s = addr.to_string();
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
