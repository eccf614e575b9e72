//! `switch_sleep`: the §8 link-sleeping loop of `exp_sec8_link_sleeping`
//! on the 107-router `switch_like(seed)` fleet. Each simulated hour runs
//! `observe_links` → `decide` → `sleeping_savings`, then advances the
//! fleet one hour on the scoped `fj-par` executor at two shards. A
//! repetition is one simulated day of consecutive decision-hours on a
//! fresh copy of the fleet; the unit of work is one decision-hour.

use std::collections::BTreeSet;

use fj_hypnos::algorithm::{decide, observe_links};
use fj_hypnos::{sleeping_savings, HypnosConfig, HypnosOutcome, SavingsRange, Topology};
use fj_isp::{build_fleet, Fleet, FleetConfig};
use fj_units::SimDuration;

use crate::inputs::Fnv;
use crate::ledger::{self, Ledger, Term};
use crate::stats::{self, Clock, Outcome};

/// Consecutive decision-hours per repetition: one day, so every
/// repetition covers the whole diurnal traffic cycle.
const HOURS: usize = 24;
/// Shards `Fleet::advance_with_shards` is pinned to.
const SHARDS: usize = 2;
/// Identical fleet builds timed for `isp.build_fleet.ms`.
const BUILD_REPEATS: usize = 31;
/// Rounds of the traced run, each a traced day followed by an untraced
/// day on fresh copies of the fleet.
const ROUNDS: usize = 5;

/// The Switch-like fleet for one seed.
fn fleet(seed: u64) -> Fleet {
    build_fleet(&FleetConfig::switch_like(seed))
}

/// One decision-hour's result.
struct Decision {
    outcome: HypnosOutcome,
    savings: SavingsRange,
}

/// Stamps around the four calls of one decision-hour (traced runs).
type HourStamps = [u64; 5];

/// Runs one decision-hour; with `stamps`, records the call boundaries.
fn hour(
    fleet: &mut Fleet,
    config: &HypnosConfig,
    clock: &Clock,
    stamps: Option<&mut HourStamps>,
) -> Result<Decision, String> {
    let mut t = [0u64; 5];
    let traced = stamps.is_some();
    let mut stamp = |i: usize| {
        if traced {
            t[i] = clock.nanos();
        }
    };
    stamp(0);
    let observations = observe_links(fleet);
    stamp(1);
    let outcome = decide(&observations, config);
    stamp(2);
    let savings = sleeping_savings(&outcome);
    stamp(3);
    fleet
        .advance_with_shards(SimDuration::from_hours(1), SHARDS)
        .map_err(|e| format!("advance: {e}"))?;
    stamp(4);
    if let Some(s) = stamps {
        *s = t;
    }
    Ok(Decision { outcome, savings })
}

/// The checks every decision must pass for any seed: sleeping never
/// changes the component count of the observed topology, no slept link
/// runs above the utilisation threshold, and every router next to a
/// slept link keeps `headroom ×` its internal traffic in up capacity.
fn check(d: &Decision, config: &HypnosConfig) -> Result<(), String> {
    let obs = &d.outcome.considered;
    let mut topology = Topology::new(obs.iter().map(|o| (o.link_id, o.routers.0, o.routers.1)));
    let before = topology.component_count();
    for &id in &d.outcome.slept {
        topology.sleep(id);
    }
    let after = topology.component_count();
    if before != after {
        return Err(format!(
            "sleeping changed the components from {before} to {after}"
        ));
    }
    let slept: BTreeSet<usize> = d.outcome.slept.iter().copied().collect();
    if let Some(o) = obs
        .iter()
        .find(|o| slept.contains(&o.link_id) && o.utilization() > config.max_sleep_utilization)
    {
        return Err(format!(
            "link {} slept at {:.3} utilisation",
            o.link_id,
            o.utilization()
        ));
    }
    let touched: BTreeSet<usize> = obs
        .iter()
        .filter(|o| slept.contains(&o.link_id))
        .flat_map(|o| [o.routers.0, o.routers.1])
        .collect();
    for r in touched {
        let (mut up, mut demand) = (0.0, 0.0);
        for o in obs.iter().filter(|o| o.routers.0 == r || o.routers.1 == r) {
            // A self-loop counts at both ends, as `decide` counts it.
            let ends = f64::from(u8::from(o.routers.0 == r) + u8::from(o.routers.1 == r));
            demand += ends * o.traffic.as_f64();
            if !slept.contains(&o.link_id) {
                up += ends * o.capacity.as_f64();
            }
        }
        if up < config.headroom * demand * (1.0 - 1e-12) {
            return Err(format!(
                "router {r} keeps {up:.3e} bit/s up against {demand:.3e} bit/s of demand"
            ));
        }
    }
    Ok(())
}

/// Folds a decision into the repetition digest.
fn digest(h: &mut Fnv, d: &Decision) {
    h.u64(d.outcome.slept.len() as u64);
    for &id in &d.outcome.slept {
        h.u64(id as u64);
    }
    h.u64(d.savings.low_w.to_bits());
    h.u64(d.savings.high_w.to_bits());
}

/// One checked repetition — a day on a fresh copy of the fleet —
/// returning the timed seconds, the digest, and the decisions.
fn repetition(
    base: &Fleet,
    config: &HypnosConfig,
    clock: &Clock,
) -> Result<(f64, u64, Vec<Decision>), String> {
    let mut fleet = base.clone();
    let mut decisions = Vec::with_capacity(HOURS);
    let (result, secs) = clock.time(|| -> Result<(), String> {
        for _ in 0..HOURS {
            decisions.push(hour(&mut fleet, config, clock, None)?);
        }
        Ok(())
    });
    result?;
    let mut h = Fnv::default();
    for d in &decisions {
        check(d, config)?;
        digest(&mut h, d);
    }
    Ok((secs, h.0, decisions))
}

/// The untraced run: `setup_s` is the median of identical fleet builds,
/// one before the first repetition and one after every timed
/// repetition; after one discarded warm-up repetition, repetitions are
/// timed for `seconds`; `work_per_s` is their median decision-hours per
/// second.
pub fn run_untraced(seed: u64, seconds: f64) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let config = HypnosConfig::default();
    let (base, secs) = clock.time(|| fleet(seed));
    let mut setups = vec![secs];

    let mut first_digest = None;
    let mut rates = Vec::new();
    let mut run_rep = |out: &mut Outcome| {
        let result = repetition(&base, &config, &clock).and_then(|(secs, d, decisions)| {
            if *first_digest.get_or_insert(d) != d {
                return Err("decisions differ from the first repetition".to_owned());
            }
            Ok(decisions.len() as f64 / secs)
        });
        let rate = result.as_ref().ok().copied();
        out.check("switch repetition", result.map(drop));
        rate
    };
    run_rep(&mut out);
    let t0 = clock.secs();
    while out.failed == 0 && (clock.secs() - t0 < seconds || rates.len() < 3) {
        rates.extend(run_rep(&mut out));
        setups.push(clock.time(|| fleet(seed)).1);
    }
    out.check("paper anchors", print_anchors(&base, &config, &clock));
    println!("{} repetitions of {HOURS} decision-hours", rates.len());
    out.metric("work_per_s", stats::median(&rates), "1/s");
    out.metric("setup_s", stats::median(&setups), "s");
    out.metric("peak_rss_mb", stats::peak_rss_mb().unwrap_or(0.0), "MB");
    out
}

/// The paper anchors for this seed's own fleet over one simulated day,
/// printed but not gated: §8 savings as a share of total power (paper:
/// 0.4–1.9 % at seed 7) and Fig. 1 mean utilisation (paper: ≈1.3 %).
fn print_anchors(base: &Fleet, config: &HypnosConfig, clock: &Clock) -> Result<(), String> {
    let total = base.total_wall_power_w();
    let mut fleet = base.clone();
    let (mut low, mut high, mut utilisation) = (0.0, 0.0, 0.0);
    for _ in 0..24 {
        utilisation += fleet.total_traffic().as_f64() / fleet.total_capacity().as_f64();
        let d = hour(&mut fleet, config, clock, None)?;
        low += d.savings.low_w / 24.0;
        high += d.savings.high_w / 24.0;
    }
    println!(
        "anchors: §8 savings {:.2}–{:.2} % of {:.1} kW (paper 0.4–1.9 %); \
         Fig. 1 utilisation {:.2} % (paper ≈1.3 %)",
        100.0 * low / total,
        100.0 * high / total,
        total / 1e3,
        100.0 * utilisation / 24.0
    );
    Ok(())
}

/// The traced run: [`ROUNDS`] rounds, each a traced day with spans
/// around the four calls of every decision-hour followed by an untraced
/// day, both on fresh copies of the fleet; the closure compares each
/// round's summed call spans with its untraced wall time.
pub fn run_traced(seed: u64) -> Outcome {
    let clock = Clock::start();
    let mut out = Outcome::default();
    let mut ledger = Ledger::default();
    let config = HypnosConfig::default();
    let builds: Vec<f64> = (0..BUILD_REPEATS)
        .map(|_| clock.time(|| fleet(seed)).1)
        .collect();
    ledger.set("isp.build_fleet.ms", stats::median(&builds) * 1e3);
    let base = fleet(seed);
    // Warm-up, discarded.
    out.check(
        "switch warm-up",
        repetition(&base, &config, &clock).map(drop),
    );

    let mut stamps: Vec<HourStamps> = Vec::with_capacity(ROUNDS * HOURS);
    let mut untraced_secs = Vec::with_capacity(ROUNDS);
    let mut slept = 0usize;
    for _ in 0..ROUNDS {
        let mut traced = base.clone();
        for _ in 0..HOURS {
            let mut s = [0u64; 5];
            let verdict = hour(&mut traced, &config, &clock, Some(&mut s)).and_then(|d| {
                slept += d.outcome.slept.len();
                check(&d, &config)
            });
            out.check("traced decision-hour", verdict);
            stamps.push(s);
        }
        let result = repetition(&base, &config, &clock).map(|(secs, _, _)| secs);
        untraced_secs.extend(result.as_ref().ok().copied());
        out.check("untraced day", result.map(drop));
    }
    if out.failed > 0 {
        ledger.emit(&mut out);
        return out;
    }

    let read_ns = clock.read_cost_ns();
    ledger.set("bench.clock_read.ns", read_ns);
    let call = |i: usize| -> Vec<f64> {
        stamps
            .iter()
            .map(|s| (s[i + 1] - s[i]) as f64 - read_ns)
            .collect()
    };
    let [observe, decided, savings, advance] = [call(0), call(1), call(2), call(3)];
    let (decide_tail, pct) = stats::tail(&decided);
    ledger.set("hypnos.observe.us", stats::median(&observe) / 1e3);
    ledger.set("hypnos.decide.ms", stats::median(&decided) / 1e6);
    ledger.set("hypnos.decide.tail_ms", decide_tail / 1e6);
    ledger.set("hypnos.decide.samples", decided.len() as f64);
    ledger.set("hypnos.savings.us", stats::median(&savings) / 1e3);
    ledger.set("isp.advance.ms", stats::median(&advance) / 1e6);
    ledger.set(
        "hypnos.links_slept",
        slept as f64 / stamps.len().max(1) as f64,
    );
    println!(
        "decide: p50 {:.2} ms, p{pct:.0} {:.2} ms over {} decisions",
        stats::median(&decided) / 1e6,
        decide_tail / 1e6,
        decided.len()
    );

    let path = std::path::Path::new(".bench_scratch/spans-switch_sleep.tsv");
    let written = write_spans(path, &stamps);
    out.check(
        "span file",
        written.map_err(|e| format!("writing {}: {e}", path.display())),
    );

    // Per-round totals: each traced day pairs with the untraced day that
    // followed it.
    let per_round = |v: &[f64]| -> Vec<f64> {
        v.chunks(HOURS)
            .map(|c| c.iter().sum::<f64>() / 1e9)
            .collect()
    };
    let terms = [
        Term {
            name: "hypnos.observe",
            secs: per_round(&observe),
        },
        Term {
            name: "hypnos.decide",
            secs: per_round(&decided),
        },
        Term {
            name: "hypnos.savings",
            secs: per_round(&savings),
        },
        Term {
            name: "isp.advance",
            secs: per_round(&advance),
        },
    ];
    let ratio = ledger::closure(&mut out, &terms, &untraced_secs);
    ledger.set("bench.ledger.closure", ratio);
    ledger.emit(&mut out);
    out
}

/// One line per decision-hour: the span id, then the five stamps. The
/// parent `decision_hour` span is `[t0, t4]`; its children are
/// `hypnos.observe` `[t0, t1]`, `hypnos.decide` `[t1, t2]`,
/// `hypnos.savings` `[t2, t3]`, and `isp.advance` `[t3, t4]`.
fn write_spans(path: &std::path::Path, stamps: &[HourStamps]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut text = String::from(
        "# id\tt0_ns\tt1_ns\tt2_ns\tt3_ns\tt4_ns\t# parent decision_hour=[t0,t4]; \
         children hypnos.observe,hypnos.decide,hypnos.savings,isp.advance\n",
    );
    for (id, [a, b, c, d, e]) in stamps.iter().enumerate() {
        let _ = writeln!(text, "{id}\t{a}\t{b}\t{c}\t{d}\t{e}");
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}
