//! Steadiness evidence: run one workload repeatedly, each run in its
//! own child process on the same seed, and print every metric's
//! median, quartiles, spread, min, and max. The inputs are identical
//! from run to run, so the spread is how far repeat runs of one
//! workload move; a second seed is a second set. Beside each run a fixed
//! host-contention probe is timed — an ALU loop and a 64 MiB pointer
//! chase — so a contended host can be told apart from a noisy program.
//! The probe is reported, never gated, and runs in this parent process
//! so its memory never reaches a measured child's peak RSS.

use std::hint::black_box;
use std::process::Command;

use crate::inputs::Rng;
use crate::stats::{self, Clock};

/// Elements of the pointer-chase ring: 16 Mi `u32`s = 64 MiB.
const CHASE_LEN: usize = 16 << 20;
/// Steps of one timed chase.
const CHASE_STEPS: usize = 4 << 20;
/// Iterations of the ALU loop.
const ALU_ITERS: u64 = 200_000_000;

/// The probe's two timings, in milliseconds.
struct Probe {
    alu_ms: f64,
    chase_ms: f64,
}

/// A random single-cycle permutation (Sattolo), so the chase visits
/// every element before repeating and defeats the prefetcher.
fn chase_ring() -> Vec<u32> {
    let mut ring: Vec<u32> = (0..CHASE_LEN as u32).collect();
    let mut rng = Rng::new(0x5EED, 7);
    for i in (1..CHASE_LEN).rev() {
        ring.swap(i, rng.below(i));
    }
    ring
}

fn probe(clock: &Clock, ring: &[u32]) -> Probe {
    let (_, alu) = clock.time(|| {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for i in 0..ALU_ITERS {
            x = (x ^ (x >> 29))
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(i);
        }
        black_box(x)
    });
    let (_, chase) = clock.time(|| {
        let mut at = black_box(0u32);
        for _ in 0..CHASE_STEPS {
            at = ring[at as usize];
        }
        black_box(at)
    });
    Probe {
        alu_ms: alu * 1e3,
        chase_ms: chase * 1e3,
    }
}

/// The value of metric `name` in a result line this binary printed.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

fn names(line: &str) -> Vec<String> {
    line.split("{\"value\"")
        .filter_map(|chunk| {
            let head = chunk.strip_suffix("\": ")?;
            Some(head[head.rfind('"')? + 1..].to_owned())
        })
        .collect()
}

/// Runs `runs` child processes of this binary on `workload` and `seed`,
/// and prints the per-metric spread table.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool, runs: u64) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let clock = Clock::start();
    let ring = chase_ring();
    let mut columns: Vec<(String, Vec<f64>)> = Vec::new();
    let mut probes = Vec::new();
    for i in 0..runs {
        let p = probe(&clock, &ring);
        let child = Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let line = stdout.lines().last().unwrap_or_default();
        if !child.status.success() || !line.contains("\"correct\": true") {
            return Err(format!("run {i} failed: {line}"));
        }
        if columns.is_empty() {
            columns = names(line).into_iter().map(|n| (n, Vec::new())).collect();
        }
        let mut row = format!(
            "run {i:>3}  alu {:7.1} ms  chase {:7.1} ms",
            p.alu_ms, p.chase_ms
        );
        for (name, values) in &mut columns {
            let v = metric_value(line, name).ok_or(format!("run {i}: no {name}"))?;
            values.push(v);
            row.push_str(&format!("  {name}={v:.6}"));
        }
        println!("{row}");
        probes.push(p);
    }
    let alu: Vec<f64> = probes.iter().map(|p| p.alu_ms).collect();
    let chase: Vec<f64> = probes.iter().map(|p| p.chase_ms).collect();
    columns.push(("probe.alu_ms".to_owned(), alu));
    columns.push(("probe.chase_ms".to_owned(), chase));
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>8} {:>14} {:>14}",
        "metric", "median", "q1", "q3", "iqr/med", "min", "max"
    );
    for (name, values) in &columns {
        let med = stats::median(values);
        let [q1, _, q3] = stats::quartiles(values).unwrap_or([med; 3]);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{name:<40} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>8.4} {min:>14.6} {max:>14.6}",
            (q3 - q1) / med
        );
    }
    Ok(())
}
