#!/usr/bin/env bash
# Local CI gate — the same sequence the workflow runs. Everything is
# vendored in-repo, so the whole script works offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> fj-lint (domain rules, cold run with timing)"
rm -rf target/lint
cargo run -q -p fj-lint -- --timing target/lint/timing-cold.json
cp target/lint/findings.json target/lint/findings-cold.json

echo "==> fj-lint (warm run: cache must reproduce the cold bytes)"
cargo run -q -p fj-lint -- --timing target/lint/timing-warm.json
cmp target/lint/findings-cold.json target/lint/findings.json \
    || { echo "incremental cache changed findings.json" >&2; exit 1; }

echo "==> fj-lint wall-time gate (budget = 2x cold + 500ms, noise-calibrated)"
cold_ms=$(sed -n 's/.*"total_ms": \([0-9]*\).*/\1/p' target/lint/timing-cold.json)
cargo run -q -p fj-lint -- --max-wall-ms $((cold_ms * 2 + 500)) \
    --timing target/lint/timing-gated.json

echo "==> cargo test"
cargo test --workspace -q

echo "==> benchmark build (ledgerbench is its own workspace; test --workspace skips it)"
cargo build --release --offline --manifest-path ledgerbench/Cargo.toml

# metric NAME LINE: the value of metric NAME (a sed regex) on a result line.
metric() { echo "$2" | sed -n "s/.*\"$1\": {\"value\": \([^,}]*\).*/\1/p"; }

echo "==> benchmark output checks (both workloads untraced: correct, no failed operation; census_stream >= 100,000 router-rounds/s, switch_sleep >= 400 decision-hours/s)"
# Each workload's floor catches a collapsed hot path. census_stream:
# a serialized pool or a quadratic merge, at about 40 % of the ~244k
# router-rounds/s the 1,000-router census made at 2 shards on a 1-core
# host. switch_sleep: a `decide` back on full-graph searches, which
# made about 40 decision-hours/s.
for check in census_stream:100000 switch_sleep:400; do
    workload=${check%:*} floor=${check#*:}
    result=$(cargo run -q --release --offline --manifest-path ledgerbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
    echo "$workload: ${result:0:80}"
    echo "$result" | grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' \
        || { echo "$workload failed its output checks" >&2; exit 1; }
    rate=$(metric 'work_per_s' "$result")
    echo "$workload work_per_s=$rate"
    awk -v r="$rate" -v f="$floor" 'BEGIN { exit !(r != "" && r >= f) }' \
        || { echo "$workload fell below its floor of $floor per second" >&2; exit 1; }
done

echo "==> allocation and parallel budgets (traced census_stream: <= 0.5 allocations per router-round, exact replays, dispatch wait <= 0.25 s, merge fraction <= 0.35, efficiency >= 0.6)"
ledger=$(cargo run -q --release --offline --manifest-path ledgerbench/Cargo.toml -- \
    --workload census_stream --seed 1 --trace 1 | tail -n 1)
allocs=$(metric 'isp\.engine\.allocs_per_rr' "$ledger")
mismatches=$(metric 'bench\.replay\.mismatches' "$ledger")
ops_mismatches=$(metric 'ops\.bench\.replay\.mismatches' "$ledger")
dispatch=$(metric 'par\.dispatch_wait\.s' "$ledger")
merge=$(metric 'isp\.engine\.merge_fraction' "$ledger")
efficiency=$(metric 'par\.efficiency' "$ledger")
echo "isp.engine.allocs_per_rr=$allocs bench.replay.mismatches=$mismatches ops.bench.replay.mismatches=$ops_mismatches"
echo "par.dispatch_wait.s=$dispatch isp.engine.merge_fraction=$merge par.efficiency=$efficiency"
awk -v a="$allocs" -v m="$mismatches" -v o="$ops_mismatches" \
    'BEGIN { exit !(a != "" && m != "" && o != "" && a <= 0.5 && m == 0 && o == 0) }' \
    || { echo "allocation budget exceeded or replay diverged" >&2; exit 1; }
awk -v w="$dispatch" -v f="$merge" 'BEGIN { exit !(w != "" && f != "" && w <= 0.25 && f <= 0.35) }' \
    || { echo "dispatch wait or merge fraction over budget" >&2; exit 1; }
# One core runs the 2-shard pool inline, so busy time fills only half
# of wall x shards there: the floor measures the pool on >= 2 cores.
if [[ "$(nproc)" -le 1 ]]; then
    echo "efficiency floor skipped: single-core host"
else
    awk -v e="$efficiency" 'BEGIN { exit !(e != "" && e >= 0.6) }' \
        || { echo "parallel efficiency below 0.6" >&2; exit 1; }
fi

echo "==> cargo doc (warnings, broken and private intra-doc links are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> telemetry smoke"
cargo run -q -p fj-bench --bin telemetry_smoke

echo "==> alert smoke (default pack parses; seeded faults must fire)"
cargo run -q --release -p fj-bench --bin alert_smoke

echo "==> crash-recovery smoke (kill mid-run, resume, diff vs uninterrupted; exports the baseline's Perfetto trace)"
cargo run -q --release -p fj-bench --bin fleet_recover -- \
    --dir target/telemetry/recovery

echo "==> paper regenerators (§8 pair, Table 6 and Figs. 1 and 4 must exit 0)"
for bin in exp_sec8_link_sleeping exp_ext_combined_savings exp_table6_additional_models \
    exp_fig1_network exp_fig4_validation; do
    cargo run -q --release -p fj-bench --bin "$bin"
done

if [[ "${CI_SOAK:-0}" == "1" ]]; then
    echo "==> chaos soak (full)"
    cargo test -p fj-faults --test chaos_soak -q -- --ignored
fi

echo "==> ok"
