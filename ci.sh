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

echo "==> allocation budget (traced census_stream: <= 1 allocation per router-round, exact replay)"
ledger=$(cargo run -q --release --offline --manifest-path ledgerbench/Cargo.toml -- \
    --workload census_stream --seed 1 --trace 1 | tail -n 1)
allocs=$(echo "$ledger" | sed -n 's/.*"isp\.engine\.allocs_per_rr": {"value": \([^,}]*\).*/\1/p')
mismatches=$(echo "$ledger" | sed -n 's/.*"bench\.replay\.mismatches": {"value": \([^,}]*\).*/\1/p')
echo "isp.engine.allocs_per_rr=$allocs bench.replay.mismatches=$mismatches"
awk -v a="$allocs" -v m="$mismatches" 'BEGIN { exit !(a != "" && m != "" && a <= 1 && m == 0) }' \
    || { echo "allocation budget exceeded or replay diverged" >&2; exit 1; }

echo "==> cargo doc (broken and private intra-doc links are errors)"
cargo doc --workspace --no-deps --offline

echo "==> telemetry smoke"
cargo run -q -p fj-bench --bin telemetry_smoke

echo "==> alert smoke (default pack parses; seeded faults must fire)"
cargo run -q --release -p fj-bench --bin alert_smoke

echo "==> crash-recovery smoke (kill mid-run, resume, diff vs uninterrupted)"
cargo run -q --release -p fj-bench --bin fleet_recover -- \
    --dir target/telemetry/recovery

echo "==> paper regenerators (§8 pair, Table 6 and Figs. 1 and 4 must exit 0)"
for bin in exp_sec8_link_sleeping exp_ext_combined_savings exp_table6_additional_models \
    exp_fig1_network exp_fig4_validation; do
    cargo run -q --release -p fj-bench --bin "$bin"
done

echo "==> fleet throughput smoke (asserts shard-count determinism + dispatch-wait budget)"
# The ≥2-shard cells run on the persistent worker pool: cumulative
# dispatch wait (jobs queued behind busy workers) must stay under a
# fixed per-run budget. bench_fleet skips the budget with a note on
# single-core hosts, where one worker queues shards by construction.
cargo run -q --release -p fj-bench --bin bench_fleet -- --smoke --json \
    --max-dispatch-wait-secs 0.25 \
    --out target/telemetry/BENCH_fleet.json \
    --trace target/telemetry/trace-fleet.json

echo "==> efficiency report (profiler + progress plane must have produced output)"
grep -q '"efficiency"' target/telemetry/BENCH_fleet.json \
    || { echo "BENCH_fleet.json carries no parallel-efficiency report" >&2; exit 1; }
grep -q '"generated_by"' target/telemetry/BENCH_fleet.json \
    || { echo "BENCH_fleet.json carries no generated_by provenance" >&2; exit 1; }
test -s target/telemetry/progress-bench_fleet.json \
    || { echo "progress-bench_fleet.json missing or empty" >&2; exit 1; }

echo "==> perf gate (fresh smoke sweep vs committed BENCH_fleet.json)"
cargo run -q --release -p fj-bench --bin bench_compare

if [[ "${CI_SOAK:-0}" == "1" ]]; then
    echo "==> chaos soak (full)"
    cargo test -p fj-faults --test chaos_soak -q -- --ignored
fi

echo "==> ok"
