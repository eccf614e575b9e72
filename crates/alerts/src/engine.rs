//! The alert evaluation engine: samples the registry at sim-time
//! boundaries, steps each rule's `pending → firing → resolved` state
//! machine, and keeps a bounded, deterministic transition log — the
//! *verdict stream* the FJ01 suite compares bit-for-bit across shard
//! counts and crash/resume.
//!
//! Everything here is driven exclusively by sim time and registry
//! snapshots, so two runs that agree on those agree on every verdict.
//! Wall clocks never enter; evaluation order is rule order; window
//! arithmetic runs over [`fj_units`] prefix sums.

use std::collections::BTreeMap;
use std::path::Path;

use fj_telemetry::{Level, MetricSnapshot, Telemetry};
use fj_units::{SimDuration, SimInstant, TimeSeries};

use crate::rule::{render_rules, AlertExpr, AlertRule, MetricSelector, Severity};

/// Transitions retained in the engine's bounded log; older entries are
/// evicted (counted, never silent).
pub const TRANSITION_LOG_CAPACITY: usize = 1024;

/// Direction of a verdict-stream entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TransitionKind {
    /// The rule entered `firing`.
    Firing,
    /// The rule left `firing`.
    Resolved,
}

impl TransitionKind {
    /// Lower-case label used in rendering and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            TransitionKind::Firing => "firing",
            TransitionKind::Resolved => "resolved",
        }
    }
}

/// One entry of the verdict stream: a rule crossing into or out of
/// `firing`, stamped with sim time and the expression's value at the
/// crossing.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct AlertTransition {
    /// Sim time of the evaluation that crossed.
    pub at: SimInstant,
    /// Rule name.
    pub rule: String,
    /// Rule severity.
    pub severity: Severity,
    /// Firing or resolved.
    pub kind: TransitionKind,
    /// The evaluated expression value at the crossing (burn rate for
    /// burn-rate rules, sampled value for thresholds, seconds of
    /// silence for absence rules).
    pub value: f64,
}

/// Lifecycle of one rule. `Pending` is a breach younger than the rule's
/// `for` duration; `Firing` holds through clear readings younger than
/// `keep_firing_for` (hysteresis), so oscillating inputs do not flap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Condition clear.
    Inactive,
    /// Condition breached, `for` duration not yet served.
    Pending {
        /// When the current breach streak started.
        since: SimInstant,
    },
    /// Alert active.
    Firing {
        /// When the alert fired.
        since: SimInstant,
        /// When the condition last went clear while firing (hysteresis
        /// timer); `None` while the condition still breaches.
        breach_lost: Option<SimInstant>,
    },
}

impl Phase {
    /// Lower-case state label (`inactive`/`pending`/`firing`).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Inactive => "inactive",
            Phase::Pending { .. } => "pending",
            Phase::Firing { .. } => "firing",
        }
    }
}

/// Advances one rule's phase by one evaluation. Pure: the only inputs
/// are the previous phase, whether the condition breaches at `now`, and
/// the rule's two durations. Returns the next phase plus the transition
/// to emit, if the evaluation crossed into or out of `firing`.
pub fn step_phase(
    phase: Phase,
    breach: bool,
    now: SimInstant,
    for_duration: SimDuration,
    keep_firing_for: SimDuration,
) -> (Phase, Option<TransitionKind>) {
    match (phase, breach) {
        (Phase::Inactive, false) => (Phase::Inactive, None),
        (Phase::Inactive, true) => {
            if for_duration.is_positive() {
                (Phase::Pending { since: now }, None)
            } else {
                (
                    Phase::Firing {
                        since: now,
                        breach_lost: None,
                    },
                    Some(TransitionKind::Firing),
                )
            }
        }
        // A pending breach that clears resets silently: it never fired.
        (Phase::Pending { .. }, false) => (Phase::Inactive, None),
        (Phase::Pending { since }, true) => {
            if now - since >= for_duration {
                (
                    Phase::Firing {
                        since,
                        breach_lost: None,
                    },
                    Some(TransitionKind::Firing),
                )
            } else {
                (Phase::Pending { since }, None)
            }
        }
        (Phase::Firing { since, .. }, true) => (
            Phase::Firing {
                since,
                breach_lost: None,
            },
            None,
        ),
        (Phase::Firing { since, breach_lost }, false) => match breach_lost {
            None if keep_firing_for.is_positive() => (
                Phase::Firing {
                    since,
                    breach_lost: Some(now),
                },
                None,
            ),
            Some(lost) if now - lost < keep_firing_for => (
                Phase::Firing {
                    since,
                    breach_lost: Some(lost),
                },
                None,
            ),
            // Hysteresis served (or zero): resolve.
            _ => (Phase::Inactive, Some(TransitionKind::Resolved)),
        },
    }
}

/// Sum of per-eval increments with `from < at <= to`, via prefix sums.
/// The half-open-from convention pairs with increments being stamped at
/// the *end* of the interval they cover: the sum over `(t-w, t]` is
/// exactly the events attributed to the trailing window `w`.
pub fn window_sum(series: &TimeSeries, from: SimInstant, to: SimInstant) -> f64 {
    let samples = series.samples();
    let i = samples.partition_point(|s| s.at <= from);
    let j = samples.partition_point(|s| s.at <= to);
    series.prefix_sums().range_sum(i, j)
}

/// Burn rate over one trailing window ending at `now`: the error
/// fraction `num/den` relative to `budget`. A burn of 1.0 consumes
/// budget exactly at the allowed pace; 2.0 burns double. Zero when the
/// denominator saw no events in the window (no traffic, no burn).
pub fn burn_rate(
    num: &TimeSeries,
    den: &TimeSeries,
    budget: f64,
    now: SimInstant,
    window: SimDuration,
) -> f64 {
    let den_sum = window_sum(den, now - window, now);
    if den_sum <= 0.0 || budget <= 0.0 {
        return 0.0;
    }
    let num_sum = window_sum(num, now - window, now);
    (num_sum / den_sum) / budget
}

/// One watched selector: the per-eval increment series (for rate and
/// burn-rate windows) plus staleness bookkeeping.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Watch {
    /// Canonical selector text (see [`MetricSelector`]'s `Display`).
    pub selector: String,
    /// Positive per-eval deltas of the sampled value, stamped at eval
    /// time. The first sighting counts the full reading (counters start
    /// at zero).
    pub increments: TimeSeries,
    /// Last sampled value, for delta and change detection.
    pub last_value: Option<f64>,
    /// Sim time the sampled value last changed (or first appeared).
    pub last_change: Option<SimInstant>,
}

/// Serializable engine snapshot, embedded in fleet checkpoints so the
/// verdict stream survives crash/resume bit-identically. `rules_text`
/// fingerprints the rule pack: restoring under a different pack is
/// rejected rather than silently evaluated.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EngineState {
    /// Canonical rendering of the rule pack at checkpoint time.
    pub rules_text: String,
    /// Sim time of the first evaluation.
    pub started: Option<SimInstant>,
    /// Evaluations performed.
    pub evals: u64,
    /// Watched selectors, in engine order.
    pub watches: Vec<Watch>,
    /// Per-rule phases, in rule order.
    pub phases: Vec<Phase>,
    /// Retained verdict stream.
    pub transitions: Vec<AlertTransition>,
    /// Transitions evicted from the bounded log.
    pub evicted: u64,
}

/// The alert engine: rules, their phases, and the watch series they
/// sample. Drive it with [`AlertEngine::eval`] (pure, registry snapshot
/// in, transitions out) or [`AlertEngine::eval_and_trip`] (also emits
/// events and trips the flight recorder on firing).
#[derive(Debug, Clone)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    parsed: Vec<MetricSelector>,
    index: BTreeMap<String, usize>,
    watches: Vec<Watch>,
    phases: Vec<Phase>,
    started: Option<SimInstant>,
    evals: u64,
    transitions: Vec<AlertTransition>,
    evicted: u64,
}

impl AlertEngine {
    /// An engine over `rules`, all phases `inactive`.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let mut selectors: Vec<MetricSelector> = rules
            .iter()
            .flat_map(|r| r.expr.selectors())
            .cloned()
            .collect();
        selectors.sort();
        selectors.dedup();
        let watches = selectors
            .iter()
            .map(|s| Watch {
                selector: s.to_string(),
                increments: TimeSeries::new(),
                last_value: None,
                last_change: None,
            })
            .collect();
        let index = selectors
            .iter()
            .enumerate()
            .map(|(i, s)| (s.to_string(), i))
            .collect();
        let phases = vec![Phase::Inactive; rules.len()];
        AlertEngine {
            parsed: selectors,
            index,
            watches,
            phases,
            started: None,
            evals: 0,
            transitions: Vec::new(),
            evicted: 0,
            rules,
        }
    }

    /// The rule pack.
    pub fn rules(&self) -> &[AlertRule] {
        &self.rules
    }

    /// Per-rule phases, in rule order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Sim time of the first evaluation, if any ran.
    pub fn started(&self) -> Option<SimInstant> {
        self.started
    }

    /// Evaluations performed.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// The retained verdict stream, oldest first.
    pub fn transitions(&self) -> &[AlertTransition] {
        &self.transitions
    }

    /// Transitions evicted from the bounded log.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Names of rules currently firing, in rule order.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.phases)
            .filter(|(_, p)| matches!(p, Phase::Firing { .. }))
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Count of rules currently firing.
    pub fn firing_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Firing { .. }))
            .count()
    }

    /// Count of rules currently pending.
    pub fn pending_count(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| matches!(p, Phase::Pending { .. }))
            .count()
    }

    /// Evaluates every rule against a registry snapshot at sim time
    /// `now`, returning the transitions this evaluation produced.
    /// Deterministic: same snapshots at the same instants ⇒ same
    /// verdict stream, regardless of shard/chunk count.
    pub fn eval(&mut self, snapshot: &[MetricSnapshot], now: SimInstant) -> Vec<AlertTransition> {
        if self.started.is_none() {
            self.started = Some(now);
        }
        self.evals += 1;

        let mut current: Vec<Option<f64>> = Vec::with_capacity(self.watches.len());
        for (watch, selector) in self.watches.iter_mut().zip(&self.parsed) {
            let sampled = selector.sample(snapshot);
            if let Some(v) = sampled {
                // Counter-reset guard: a decreasing reading contributes
                // no increment rather than a negative one.
                let delta = (v - watch.last_value.unwrap_or(0.0)).max(0.0);
                watch.increments.push(now, delta);
                if watch.last_value != Some(v) {
                    watch.last_change = Some(now);
                }
                watch.last_value = Some(v);
            }
            current.push(sampled);
        }

        let mut out = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            let (breach, value) = eval_expr(
                &rule.expr,
                now,
                self.started,
                &self.watches,
                &self.index,
                &current,
            );
            let (next, crossed) = step_phase(
                self.phases[i],
                breach,
                now,
                rule.for_duration,
                rule.keep_firing_for,
            );
            self.phases[i] = next;
            if let Some(kind) = crossed {
                let transition = AlertTransition {
                    at: now,
                    rule: rule.name.clone(),
                    severity: rule.severity,
                    kind,
                    value,
                };
                if self.transitions.len() == TRANSITION_LOG_CAPACITY {
                    self.transitions.remove(0);
                    self.evicted += 1;
                }
                self.transitions.push(transition.clone());
                out.push(transition);
            }
        }
        out
    }

    /// [`AlertEngine::eval`] against both of `telemetry`'s registries
    /// ([`Telemetry::metrics_snapshot`]), plus the observability side
    /// effects: a `Warn` event and a flight-recorder trip (with the
    /// triggering rule attached) per firing transition, an `Info` event
    /// per resolution. Tripping is a strict no-op when the recorder is
    /// unarmed, so deterministic runs stay deterministic.
    pub fn eval_and_trip(
        &mut self,
        telemetry: &Telemetry,
        now: SimInstant,
    ) -> Vec<AlertTransition> {
        let transitions = self.eval(&telemetry.metrics_snapshot(), now);
        for transition in &transitions {
            let rule_line = self
                .rules
                .iter()
                .find(|r| r.name == transition.rule)
                .map(AlertRule::to_line)
                .unwrap_or_default();
            let fields = [
                ("alert", transition.rule.clone()),
                ("severity", transition.severity.as_str().to_owned()),
                ("value", format!("{:.6}", transition.value)),
                ("rule", rule_line),
            ];
            match transition.kind {
                TransitionKind::Firing => {
                    telemetry.event(Level::Warn, "alerts", "alert firing", &fields);
                    telemetry.trip_flight_recorder("alert firing", &fields);
                }
                TransitionKind::Resolved => {
                    telemetry.event(Level::Info, "alerts", "alert resolved", &fields);
                }
            }
        }
        transitions
    }

    /// Prometheus `ALERTS`-style text for the currently active alerts
    /// (`pending` and `firing`), in rule order. Empty when every rule is
    /// inactive. Deliberately separate from the registry exposition so
    /// alert state never leaks into the FJ01 surface.
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (rule, phase) in self.rules.iter().zip(&self.phases) {
            if matches!(phase, Phase::Inactive) {
                continue;
            }
            if out.is_empty() {
                out.push_str("# TYPE ALERTS gauge\n");
            }
            let _ = writeln!(
                out,
                "ALERTS{{alertname=\"{}\",alertstate=\"{}\",severity=\"{}\"}} 1",
                rule.name,
                phase.as_str(),
                rule.severity
            );
        }
        out
    }

    /// Serializable snapshot for embedding in checkpoints.
    pub fn checkpoint_state(&self) -> EngineState {
        EngineState {
            rules_text: render_rules(&self.rules),
            started: self.started,
            evals: self.evals,
            watches: self.watches.clone(),
            phases: self.phases.clone(),
            transitions: self.transitions.clone(),
            evicted: self.evicted,
        }
    }

    /// Rebuilds an engine from a checkpoint snapshot. The configured
    /// `rules` must render to exactly the checkpointed `rules_text` —
    /// resuming under a different pack would splice two verdict streams
    /// that never coexisted, so it is an error, not a best effort.
    pub fn restore(rules: Vec<AlertRule>, state: EngineState) -> Result<AlertEngine, String> {
        let text = render_rules(&rules);
        if text != state.rules_text {
            return Err(format!(
                "alert rule pack changed since checkpoint (checkpointed {} rules, configured {})",
                state.rules_text.lines().count(),
                text.lines().count()
            ));
        }
        if state.phases.len() != rules.len() {
            return Err(format!(
                "checkpoint carries {} phases for {} rules",
                state.phases.len(),
                rules.len()
            ));
        }
        let fresh = AlertEngine::new(rules);
        let expected: Vec<&str> = fresh.watches.iter().map(|w| w.selector.as_str()).collect();
        let got: Vec<&str> = state.watches.iter().map(|w| w.selector.as_str()).collect();
        if expected != got {
            return Err("checkpointed watch set does not match the rule pack".to_owned());
        }
        Ok(AlertEngine {
            watches: state.watches,
            phases: state.phases,
            started: state.started,
            evals: state.evals,
            transitions: state.transitions,
            evicted: state.evicted,
            ..fresh
        })
    }

    /// Atomically writes the full alert state (rules with phases, the
    /// verdict stream, eviction count) as pretty JSON to `path` — tmp +
    /// rename like checkpoints, so observers never read a torn dump.
    pub fn write_alerts_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        #[derive(serde::Serialize)]
        struct RuleStatus {
            name: String,
            severity: String,
            state: String,
            since: Option<SimInstant>,
            rule: String,
        }
        #[derive(serde::Serialize)]
        struct AlertsDump {
            started: Option<SimInstant>,
            evals: u64,
            firing: u64,
            pending: u64,
            rules: Vec<RuleStatus>,
            transitions: Vec<AlertTransition>,
            transitions_evicted: u64,
        }

        let dump = AlertsDump {
            started: self.started,
            evals: self.evals,
            firing: self.firing_count() as u64,
            pending: self.pending_count() as u64,
            rules: self
                .rules
                .iter()
                .zip(&self.phases)
                .map(|(rule, phase)| RuleStatus {
                    name: rule.name.clone(),
                    severity: rule.severity.as_str().to_owned(),
                    state: phase.as_str().to_owned(),
                    since: match phase {
                        Phase::Inactive => None,
                        Phase::Pending { since } | Phase::Firing { since, .. } => Some(*since),
                    },
                    rule: rule.to_line(),
                })
                .collect(),
            transitions: self.transitions.clone(),
            transitions_evicted: self.evicted,
        };
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let text = serde_json::to_string_pretty(&dump)
            .unwrap_or_else(|e| format!("{{\"error\":\"alerts serialization failed: {e}\"}}"));
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, path)
    }
}

fn eval_expr(
    expr: &AlertExpr,
    now: SimInstant,
    started: Option<SimInstant>,
    watches: &[Watch],
    index: &BTreeMap<String, usize>,
    current: &[Option<f64>],
) -> (bool, f64) {
    let watch_of = |selector: &MetricSelector| index[&selector.to_string()];
    match expr {
        AlertExpr::Threshold { metric, cmp, value } => match current[watch_of(metric)] {
            Some(v) => (cmp.holds(v, *value), v),
            // Missing data never breaches a threshold; absence rules
            // exist for that.
            None => (false, 0.0),
        },
        AlertExpr::Rate {
            metric,
            window,
            cmp,
            value,
        } => {
            let increments = &watches[watch_of(metric)].increments;
            let rate = window_sum(increments, now - *window, now) / window.as_secs_f64();
            (cmp.holds(rate, *value), rate)
        }
        AlertExpr::Absent { metric, staleness } => {
            let watch = &watches[watch_of(metric)];
            // A never-seen series is stale since the engine started.
            let reference = watch.last_change.or(started).unwrap_or(now);
            let silent = now - reference;
            (silent >= *staleness, silent.as_secs_f64())
        }
        AlertExpr::BurnRate {
            numerator,
            denominator,
            budget,
            factor,
            short,
            long,
        } => {
            let num = &watches[watch_of(numerator)].increments;
            let den = &watches[watch_of(denominator)].increments;
            let short_burn = burn_rate(num, den, *budget, now, *short);
            let long_burn = burn_rate(num, den, *budget, now, *long);
            // Both windows must burn hot: the short one proves it is
            // happening now, the long one proves it is not a blip. The
            // reported value is the binding (smaller) burn.
            (
                short_burn >= *factor && long_burn >= *factor,
                short_burn.min(long_burn),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::Cmp;
    use fj_telemetry::Telemetry;

    fn minute(m: i64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_mins(m)
    }

    fn threshold_rule(name: &str, metric: &str, value: f64) -> AlertRule {
        AlertRule::new(
            name,
            Severity::Warning,
            AlertExpr::Threshold {
                metric: MetricSelector::name(metric),
                cmp: Cmp::Ge,
                value,
            },
        )
    }

    #[test]
    fn threshold_fires_and_resolves_through_the_registry() {
        let telemetry = Telemetry::new();
        let gauge = telemetry.registry().gauge("unit_pressure", &[]);
        let mut engine = AlertEngine::new(vec![threshold_rule("unit_over", "unit_pressure", 2.0)]);

        gauge.set(1.0);
        assert!(engine.eval_and_trip(&telemetry, minute(0)).is_empty());
        gauge.set(3.0);
        let fired = engine.eval_and_trip(&telemetry, minute(5));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, TransitionKind::Firing);
        assert_eq!(fired[0].value, 3.0);
        assert_eq!(engine.firing(), vec!["unit_over"]);
        let prom = engine.render_prometheus();
        assert!(prom.contains(
            "ALERTS{alertname=\"unit_over\",alertstate=\"firing\",severity=\"warning\"} 1"
        ));

        gauge.set(0.5);
        let resolved = engine.eval_and_trip(&telemetry, minute(10));
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, TransitionKind::Resolved);
        assert_eq!(engine.firing_count(), 0);
        assert_eq!(engine.render_prometheus(), "");
        assert_eq!(engine.transitions().len(), 2);

        // Firing emitted a Warn event; resolution an Info one.
        let events = telemetry.events().events();
        assert!(events.iter().any(|e| e.message == "alert firing"));
        assert!(events.iter().any(|e| e.message == "alert resolved"));
    }

    #[test]
    fn for_duration_gates_and_pending_resets_silently() {
        let rule = threshold_rule("unit_slow", "m", 1.0).for_duration(SimDuration::from_mins(10));
        let mut engine = AlertEngine::new(vec![rule]);
        let snap = |v: f64| {
            vec![MetricSnapshot {
                name: "m".to_owned(),
                labels: Vec::new(),
                value: fj_telemetry::MetricValue::Gauge(v),
            }]
        };
        assert!(engine.eval(&snap(5.0), minute(0)).is_empty());
        assert_eq!(engine.pending_count(), 1);
        // Breach clears before `for` elapses: silent reset, no verdict.
        assert!(engine.eval(&snap(0.0), minute(5)).is_empty());
        assert_eq!(engine.pending_count(), 0);
        assert!(engine.transitions().is_empty());
        // A sustained breach fires once the duration is served.
        assert!(engine.eval(&snap(5.0), minute(10)).is_empty());
        assert!(engine.eval(&snap(5.0), minute(15)).is_empty());
        let fired = engine.eval(&snap(5.0), minute(20));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, TransitionKind::Firing);
    }

    #[test]
    fn keep_firing_holds_through_brief_clears() {
        let rule =
            threshold_rule("unit_hold", "m", 1.0).keep_firing_for(SimDuration::from_mins(15));
        let mut engine = AlertEngine::new(vec![rule]);
        let snap = |v: f64| {
            vec![MetricSnapshot {
                name: "m".to_owned(),
                labels: Vec::new(),
                value: fj_telemetry::MetricValue::Gauge(v),
            }]
        };
        assert_eq!(engine.eval(&snap(2.0), minute(0)).len(), 1);
        // Clear reading, hysteresis not served: still firing.
        assert!(engine.eval(&snap(0.0), minute(5)).is_empty());
        assert_eq!(engine.firing_count(), 1);
        // Re-breach cancels the hysteresis timer.
        assert!(engine.eval(&snap(2.0), minute(10)).is_empty());
        assert!(engine.eval(&snap(0.0), minute(12)).is_empty());
        assert!(engine.eval(&snap(0.0), minute(20)).is_empty());
        // Timer served at minute 27: resolves exactly once.
        let resolved = engine.eval(&snap(0.0), minute(27));
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].kind, TransitionKind::Resolved);
        assert_eq!(engine.transitions().len(), 2);
    }

    #[test]
    fn absence_rule_watches_staleness_not_just_presence() {
        let rule = AlertRule::new(
            "unit_stall",
            Severity::Critical,
            AlertExpr::Absent {
                metric: MetricSelector::name("work_total"),
                staleness: SimDuration::from_mins(30),
            },
        );
        let mut engine = AlertEngine::new(vec![rule]);
        let snap = |c: u64| {
            vec![MetricSnapshot {
                name: "work_total".to_owned(),
                labels: Vec::new(),
                value: fj_telemetry::MetricValue::Counter(c),
            }]
        };
        // Advancing counter: fresh.
        assert!(engine.eval(&snap(1), minute(0)).is_empty());
        assert!(engine.eval(&snap(2), minute(15)).is_empty());
        // Counter present but frozen: goes stale after 30 minutes.
        assert!(engine.eval(&snap(2), minute(30)).is_empty());
        let fired = engine.eval(&snap(2), minute(45));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].value, SimDuration::from_mins(30).as_secs_f64());
        // Movement resolves it.
        let resolved = engine.eval(&snap(3), minute(50));
        assert_eq!(resolved[0].kind, TransitionKind::Resolved);

        // A never-registered series is stale relative to engine start.
        let rule = AlertRule::new(
            "unit_missing",
            Severity::Critical,
            AlertExpr::Absent {
                metric: MetricSelector::name("never_total"),
                staleness: SimDuration::from_mins(10),
            },
        );
        let mut engine = AlertEngine::new(vec![rule]);
        assert!(engine.eval(&[], minute(0)).is_empty());
        assert_eq!(engine.eval(&[], minute(10)).len(), 1);
    }

    #[test]
    fn burn_rate_needs_both_windows_hot() {
        let rule = AlertRule::new(
            "unit_burn",
            Severity::Warning,
            AlertExpr::BurnRate {
                numerator: MetricSelector::name("errs_total"),
                denominator: MetricSelector::name("ops_total"),
                budget: 0.1,
                factor: 2.0,
                short: SimDuration::from_mins(10),
                long: SimDuration::from_mins(60),
            },
        );
        let mut engine = AlertEngine::new(vec![rule]);
        let snap = |errs: u64, ops: u64| {
            vec![
                MetricSnapshot {
                    name: "errs_total".to_owned(),
                    labels: Vec::new(),
                    value: fj_telemetry::MetricValue::Counter(errs),
                },
                MetricSnapshot {
                    name: "ops_total".to_owned(),
                    labels: Vec::new(),
                    value: fj_telemetry::MetricValue::Counter(ops),
                },
            ]
        };
        // Clean hour: 600 ops, no errors.
        for m in 0..6 {
            assert!(engine
                .eval(&snap(0, (m + 1) * 100), minute(m as i64 * 10))
                .is_empty());
        }
        // A short error spike: the 10m window burns hot (50/100/0.1 = 5x)
        // but the 60m window (50/700/0.1 ≈ 0.71x) stays cool — no alert.
        assert!(engine.eval(&snap(50, 700), minute(60)).is_empty());
        // Sustained errors heat the long window too: fires.
        let mut fired = Vec::new();
        for m in 7..=12 {
            fired.extend(engine.eval(&snap(50 * (m - 5), 100 * (m + 1)), minute(m as i64 * 10)));
        }
        assert_eq!(fired.len(), 1, "sustained burn fires exactly once");
        assert_eq!(fired[0].kind, TransitionKind::Firing);
        assert!(fired[0].value >= 2.0);
    }

    #[test]
    fn checkpoint_round_trips_and_rejects_changed_packs() {
        let rules = vec![
            threshold_rule("unit_a", "m", 1.0).for_duration(SimDuration::from_mins(10)),
            threshold_rule("unit_b", "n", 2.0),
        ];
        let mut engine = AlertEngine::new(rules.clone());
        let snap = vec![MetricSnapshot {
            name: "m".to_owned(),
            labels: Vec::new(),
            value: fj_telemetry::MetricValue::Gauge(5.0),
        }];
        engine.eval(&snap, minute(0));
        engine.eval(&snap, minute(10));

        let state = engine.checkpoint_state();
        let json = serde_json::to_string(&state).unwrap();
        let back: EngineState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, state);

        let restored = AlertEngine::restore(rules.clone(), back).unwrap();
        assert_eq!(restored.phases(), engine.phases());
        assert_eq!(restored.transitions(), engine.transitions());
        assert_eq!(restored.evals(), engine.evals());

        let changed = vec![threshold_rule("unit_a", "m", 99.0)];
        let err = AlertEngine::restore(changed, state).unwrap_err();
        assert!(err.contains("rule pack changed"));
    }

    #[test]
    fn firing_trips_the_armed_flight_recorder_with_the_rule_attached() {
        let telemetry = Telemetry::new();
        let dir = std::env::temp_dir().join("fj-alerts-triptest");
        let _ = std::fs::remove_dir_all(&dir);
        telemetry.arm_flight_recorder("alerts-unit", &dir);
        telemetry.registry().gauge("unit_pressure", &[]).set(9.0);

        let mut engine = AlertEngine::new(vec![threshold_rule("unit_over", "unit_pressure", 2.0)]);
        engine.eval_and_trip(&telemetry, minute(0));

        let path = telemetry.flight_recorder_path().expect("recorder tripped");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("alert firing"));
        assert!(text.contains("unit_over"));
        assert!(text.contains("expr=threshold"), "dump embeds the rule");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transition_log_is_bounded_with_visible_eviction() {
        let mut engine = AlertEngine::new(vec![threshold_rule("unit_flap", "m", 1.0)]);
        let snap = |v: f64| {
            vec![MetricSnapshot {
                name: "m".to_owned(),
                labels: Vec::new(),
                value: fj_telemetry::MetricValue::Gauge(v),
            }]
        };
        for i in 0..(TRANSITION_LOG_CAPACITY as i64 + 10) {
            engine.eval(&snap(if i % 2 == 0 { 5.0 } else { 0.0 }), minute(i));
        }
        assert_eq!(engine.transitions().len(), TRANSITION_LOG_CAPACITY);
        assert_eq!(engine.evicted(), 10);
    }

    #[test]
    fn alerts_json_dump_is_atomic_and_complete() {
        let telemetry = Telemetry::new();
        telemetry.registry().gauge("unit_pressure", &[]).set(9.0);
        let mut engine = AlertEngine::new(vec![threshold_rule("unit_over", "unit_pressure", 2.0)]);
        engine.eval_and_trip(&telemetry, minute(0));

        let dir = std::env::temp_dir().join("fj-alerts-dumptest");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("alerts-unit.json");
        engine.write_alerts_json(&path).unwrap();
        assert!(
            !path.with_extension("json.tmp").exists(),
            "tmp renamed away"
        );
        let back: serde::Value =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let doc = back.as_map().unwrap();
        assert_eq!(serde::field(doc, "firing"), &serde::Value::UInt(1));
        let rules = serde::field(doc, "rules").as_array().unwrap();
        assert_eq!(rules.len(), 1);
        let transitions = serde::field(doc, "transitions").as_array().unwrap();
        assert_eq!(transitions.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
