#!/usr/bin/env bash
# Local CI gate for the HammerHead reproduction.
#
# Usage: ./ci.sh
#
# Runs, in order: format check, clippy (warnings are errors), release
# build, the full workspace test suite (unit, integration and doc tests;
# what a recovery, byzantine, chaos, saturation or bursty report must
# show is asserted there, on typed rows, by crates/scenario/tests/
# fault_e2e.rs and scenario_gates.rs), an hh-cli smoke run of the
# Figure 1 scenario capped at 50 DAG rounds, a parallel matrix smoke run,
# a determinism gate checking that --jobs 1 and --jobs 4 emit
# byte-identical JSON for a fixed seed, a testnet smoke running 4 real
# hh-node processes over loopback TCP with a SIGKILL + WAL-restart in the
# middle (zero safety violations, clean shutdown, no orphans), a docs
# gate failing on broken relative links in README.md and docs/*.md, a
# gate failing on any reference to a deleted path, knob, module or type
# or to a DESIGN.md, a gate checking that --profile leaves the JSON
# report byte-identical, and a benchmark gate that unit-tests the
# perfbench package against the workspace's crates and requires two
# correct 2-second runs: sim_n100_f33 with its peak resident set under
# 26 MB, which only proposers sharing equal parent lists meet, and its
# simulated median latency under 560 ms, which only a proposer that stops
# awaiting leaders it has never heard from meets, and sim_n10_long (600
# simulated seconds) under 38 MB, which only a log of about 2 B a record
# meets, and 275 ms, a ceiling only a timely validator's own vertex
# ordering its transactions meets.

set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n== %s ==\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all -- --check

step "cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo build --release"
cargo build --release --workspace

step "cargo test -q"
cargo test --workspace -q

step "hh-cli smoke run (fig1, 50 rounds)"
./target/release/hh-cli run scenarios/fig1_faultless.toml --quick --rounds 50

step "hh-cli parallel matrix smoke (--jobs 2)"
./target/release/hh-cli matrix scenarios/fig1_faultless.toml \
    --set load.tps=100,200 --quick --rounds 40 --jobs 2

step "determinism: --jobs 1 and --jobs 4 emit identical JSON"
./target/release/hh-cli run scenarios/fig2_faults.toml \
    --quick --seed 7 --json --jobs 1 > target/ci-jobs1.json
./target/release/hh-cli run scenarios/fig2_faults.toml \
    --quick --seed 7 --json --jobs 4 > target/ci-jobs4.json
cmp target/ci-jobs1.json target/ci-jobs4.json
# And with [[analysis.window]] tables, which fig2 does not declare.
./target/release/hh-cli run scenarios/incident_replay.toml \
    --quick --seed 7 --json --jobs 1 > target/ci-windows-jobs1.json
./target/release/hh-cli run scenarios/incident_replay.toml \
    --quick --seed 7 --json --jobs 4 > target/ci-windows-jobs4.json
cmp target/ci-windows-jobs1.json target/ci-windows-jobs4.json

step "testnet smoke: 4 real hh-node processes, kill + restart, safety clean"
# Real OS processes over loopback TCP: node 2 is SIGKILLed a third of
# the way in and restarted against its WAL. Gates: >= 10 commits per
# node, committed round >= 20, zero safety violations, victim catch-up,
# clean stdin-close shutdown — all enforced by the harness (exit code).
timeout 120 ./target/release/hh-node testnet --nodes 4 --duration-secs 14 \
    --tps 200 --kill 2 --kill-after-secs 4 --restart-after-secs 2 \
    --min-commits 10 --min-rounds 20 > target/ci-testnet.json
grep -q '"safety_violations": 0' target/ci-testnet.json \
    || { echo "testnet report missing the clean safety gate"; exit 1; }
grep -q '"clean_shutdown": true' target/ci-testnet.json \
    || { echo "testnet shutdown was not clean"; exit 1; }
if pgrep -f 'hh-node --config' > /dev/null 2>&1; then
    echo "testnet left orphan hh-node processes behind"
    pgrep -af 'hh-node --config' || true
    exit 1
fi

step "docs: every relative link in README.md and docs/*.md resolves"
# No links in a page is fine (|| true guards grep's exit 1 under
# pipefail); a relative link whose target does not exist is not.
for doc in README.md docs/*.md; do
    dir=$(dirname "$doc")
    for link in $(grep -oE '\]\([^)]+\)' "$doc" | sed 's/^](//; s/)$//' || true); do
        case "$link" in
            http://*|https://*|\#*) continue ;;
        esac
        target="${link%%#*}"
        [ -n "$target" ] || continue
        if [ ! -e "$dir/$target" ]; then
            echo "broken link in $doc: $link"
            exit 1
        fi
    done
done

step "docs: nothing refers to a deleted path, knob, module or type, or to a DESIGN.md"
# The history files and this gate may name what was replaced: perfbench/
# is the one benchmark, net/sim.rs + node/runtime.rs the two drivers,
# docs/architecture.md holds the design notes, recompute-against-S0 is the
# only slot-swap rule, the simulator executes the FaultSchedule /
# ChaosSchedule the harness validates, one function executes runs, the
# testnet harness is `hh-node testnet`, a pinned leader is a one-slot
# RoundRobinPolicy, window latencies are RunResult::windows of the
# ExperimentConfig::windows the plan resolved, the
# workload rules are Workload::validate's, the one safety audit is the
# SafetyChecker the validator actors feed as they commit, a run's validator
# parameters and latency model are ExperimentConfig::{validator, network},
# the broadcast layer's ancestry buffer is the pending / awaited pair, the
# simulator has one run driver and one way to measure a run (hh_sim::run_sim
# ends in collect_metrics, which also reads a handle somebody else drove;
# nothing drains the latency logs mid-run), the exclusion budget is a
# percentage or f, the testnet's transactions model no payload, a report row's blocks follow from the run's
# fault families, S0's seed is a constant, std's TcpListener::bind sets
# SO_REUSEADDR, the validator has one wake token, the commit engine records
# the leader slots it decided skip, and a restart checks that its replay
# passes through the checkpointed commit count and chain hash.
if git grep -nE 'hotpath_smoke|BENCH_hotpath|hh[-_]bench|threaded::|threaded_demo|vendor/criterion|DESIGN\.md|swap_from_base|core/src/monitor|hammerhead::monitor|FaultPlan|ChaosPlan|SlowdownSpec|PartitionSpec|ChaosWindow|ChaosScope|KvStore|SerialExecutor|PooledExecutor|hh-cli testnet|StaticLeaderPolicy|TimeSeries|validate_workload|rbc_sender|audit_safety|derive_validator_config|schedule_override|flat_latency_ms|NetworkSpec|missing_index|missing_count|workload_declared|run_sim_streaming|run_sim_limited|run_experiment_limited|collect_streamed_metrics|ChaosRow|schedule_seed|bind_reusable|TOKEN_LEADER|drain_exec_records|with_window|ExclusionSpec::Stake|payload-bytes|chain_hash_prefix|hh_consensus::passed_over_candidates' \
    -- . ':!CHANGES.md' ':!ROADMAP.md' ':!ISSUE.md' ':!ci.sh' ':!perfbench'; then
    echo "dangling reference to a deleted path"
    exit 1
fi

step "determinism: --profile leaves the JSON report byte-identical"
./target/release/hh-cli run scenarios/fig2_faults.toml \
    --quick --seed 7 --json --profile > target/ci-profile.json 2> /dev/null
cmp target/ci-jobs1.json target/ci-profile.json

step "benchmark: perfbench builds and tests against the workspace, both sim workloads run correct"
# perfbench/ is a package of its own with path dependencies on crates/*:
# an API change there that breaks the benchmark must fail here, not in
# the next measurement.
cargo test --offline --manifest-path perfbench/Cargo.toml -q

# bench <workload>: a 2-second run of it into target/ci-<workload>.txt,
# whose last line must be a result that says "correct": true.
bench() {
    bash perfbench/run.sh --workload "$1" --seed 1 --seconds 2 > "target/ci-$1.txt"
    tail -n 1 "target/ci-$1.txt" | grep -q '"correct": true' \
        || { echo "perfbench $1 did not report a correct run"; exit 1; }
}
# ceiling <file> <metric> <limit>: the result on the last line of <file>
# must carry <metric>, at no more than <limit>.
ceiling() {
    local value
    value=$(tail -n 1 "$1" | sed -n 's/.*"'"$2"'": {"value": \([0-9.]*\).*/\1/p')
    [ -n "$value" ] || { echo "$1 carries no $2"; exit 1; }
    awk -v value="$value" -v limit="$3" 'BEGIN { exit !(value <= limit) }' \
        || { echo "$1: $2 $value exceeds $3"; exit 1; }
    echo "$1: $2 $value (ceiling $3)"
}

# Peak resident memory is set by allocation sizes, not by the machine's
# speed, and the simulated median latency is seed-exact, so one ceiling
# each holds on any host.
bench sim_n100_f33
# About 22.4 MB and 511 ms on seed 1 (30.0 MB and 799.125 ms while every
# proposer kept its own parent list and leaders crashed from t = 0 were
# awaited through epoch 0).
ceiling target/ci-sim_n100_f33.txt peak_rss_mb 26
ceiling target/ci-sim_n100_f33.txt sim_latency_p50_ms 560
bench sim_n10_long
# The paper-length run, two repetitions of it: about 32.2 MB (43.8 while
# the log stored four varints a record) and 253.825 ms on seed 1
# (302.403 while only the leader's vertex was an anchor candidate).
ceiling target/ci-sim_n10_long.txt peak_rss_mb 38
ceiling target/ci-sim_n10_long.txt sim_latency_p50_ms 275

step "all green"
