//! Fleet-engine benchmark: two workloads, three end-to-end metrics, and
//! a per-layer cost ledger.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledgerbench/Cargo.toml -- \
//!     --workload <census_stream|switch_sleep> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics untraced;
//! with `--trace 1` it prices every layer instead. The last line of
//! standard output is the JSON result.

mod alloc;
mod census;
mod inputs;
mod ledger;
mod replay;
mod stats;
mod steady;
mod switch;

use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The benchmark's workloads, as `--workload` names them.
const WORKLOADS: [&str; 2] = ["census_stream", "switch_sleep"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Steadiness mode: this many child runs instead of one run.
    repeat: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut repeat = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v.as_str()) {
                    return Err(format!("unknown workload {v}; one of {WORKLOADS:?}"));
                }
                workload = Some(v);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--repeat" => repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        repeat,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledgerbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.repeat {
        return match steady::run(&args.workload, args.seed, args.seconds, args.trace, runs) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("ledgerbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match (args.workload.as_str(), args.trace) {
        ("census_stream", false) => census::run_untraced(args.seed, args.seconds),
        ("census_stream", true) => census::run_traced(args.seed),
        ("switch_sleep", false) => switch::run_untraced(args.seed, args.seconds),
        ("switch_sleep", true) => switch::run_traced(args.seed),
        (other, _) => unreachable!("parse_args accepts only {WORKLOADS:?}, not {other}"),
    };
    outcome.print();
    ExitCode::SUCCESS
}
