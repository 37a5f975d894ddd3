#!/usr/bin/env bash
# Local CI gate for the HammerHead reproduction.
#
# Usage: ./ci.sh
#
# Runs, in order: format check, clippy (warnings are errors), release
# build, the full workspace test suite (unit, integration and doc tests;
# what a recovery, byzantine, chaos, saturation or bursty report must
# show is asserted there, on typed rows, by crates/scenario/tests/
# fault_e2e.rs and scenario_gates.rs), a check that hh-node's dependency
# tree names neither hh-sim nor hh-scenario, a check that hh-scenario's
# direct dependencies name neither hh-consensus nor hh-net (the simulator
# measures a run; the scenario engine plans, runs and renders), an hh-cli
# list of every checked-in scenario that fails on any that does not plan,
# an hh-cli smoke run of the Figure 1 scenario capped at 50 DAG rounds, a
# parallel sweep smoke run, a determinism gate checking that --jobs 1 and
# --jobs 4 emit byte-identical JSON and text rows for a fixed seed, a
# testnet smoke running 4 real hh-node processes over loopback TCP with a
# SIGKILL + WAL-restart in the middle (zero safety violations, clean
# shutdown, no orphans), a docs gate failing on broken relative links in
# README.md and docs/*.md, a gate failing on any reference to a deleted
# path, knob, module or type or to a DESIGN.md, a gate checking that --profile leaves the JSON
# report byte-identical, and a benchmark gate that unit-tests the
# perfbench package against the workspace's crates and requires two
# correct 2-second runs: sim_n100_f33 with its peak resident set under
# 14.5 MB, which only a DAG whose round index is its only index (no digest
# table beside it), a deque of the contiguous retained rounds (no B-tree),
# and holds a pointer for the authors present in a round alone (no slot
# for a crashed one), with 24-byte transactions, engines that keep
# only their last anchor (the checker holds the sequence), vertices that
# hold their content once (no encoding memo, a block in one allocation),
# latency logs whose chunks grow from 1 KiB, author masks held inline (no
# 16-byte box per round or vertex) and a checker whose slots are rows of
# digests per round (no hash table of slots), meets, and its
# simulated median latency under 500 ms, which only a run whose epoch 0
# anchors every round meets (the committee earns candidacy when round 0
# closes, and a leader the ordered prefix never heard from is neither
# awaited by the proposers nor by its slot, which is decided at the
# quorum of the round above), and sim_n10_long (600
# simulated seconds) under 24 MB, which only a log of about 1.5 B a record
# (each commit's submission gaps packed at their width),
# per-commit bookkeeping that ends at the GC horizon (the safety
# checker's slots) and validators that keep only the
# live schedules (the checker holds the one schedule history) meet, and
# 250 ms, a ceiling only a timely validator's own vertex ordering its
# transactions meets, with a round's leader ordered at its own (f+1)-th
# vote as a commit ahead of the round's earned anchors. Both runs print their set-up time (`setup_s`) to the
# log with no ceiling, since host time holds no fixed limit on every host;
# its regression guard is crates/sim/tests/setup_allocs.rs, part of the
# test suite, which bounds the allocations one `build_sim` makes and the
# bytes they request (a run that copied S0 or re-derived the members' keys
# per validator, kept two words per event-queue slot or gave every policy
# a committee-sized table its scoring rule never reads exceeds it).

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

step "hh-node links the validator, not the simulator"
# README's "Nothing depends on the simulator" row: hh-node runs the
# validator on the simulator's driver (hammerhead::Driver), and must name
# neither hh-sim nor hh-scenario among its normal dependencies.
node_deps=$(cargo tree -p hh-node -e normal --offline)
if grep -E 'hh-(sim|scenario) v' <<< "$node_deps"; then
    echo "hh-node depends on the simulator"
    exit 1
fi

step "hh-scenario plans, runs and renders; the simulator measures"
# hh_sim::collect_metrics fills every number a report row prints, so the
# scenario engine has no edge of its own to the commit engine or the
# network crate (hh-sim reaches both; the fault round-trip test uses hh-net
# as a dev-dependency): its direct normal dependencies name neither.
scenario_deps=$(cargo tree -p hh-scenario -e normal --depth 1 --offline)
if grep -E 'hh-(consensus|net) v' <<< "$scenario_deps"; then
    echo "hh-scenario depends on hh-consensus or hh-net"
    exit 1
fi

step "hh-cli list: every checked-in scenario plans"
# `list` plans every file in scenarios/ and prints INVALID beside one
# that does not.
./target/release/hh-cli list scenarios | tee target/ci-list.txt
if grep -q 'INVALID' target/ci-list.txt; then
    echo "a checked-in scenario does not plan"
    exit 1
fi

step "hh-cli smoke run (fig1, 50 rounds)"
./target/release/hh-cli run scenarios/fig1_faultless.toml --quick --rounds 50

step "hh-cli parallel sweep smoke (--set, --jobs 2)"
./target/release/hh-cli run scenarios/fig1_faultless.toml \
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
# And the text rows, whose progress lines of a recovery run print its
# reinclusion rows.
./target/release/hh-cli run scenarios/recovery.toml \
    --quick --seed 7 --jobs 1 > target/ci-rows-jobs1.txt
./target/release/hh-cli run scenarios/recovery.toml \
    --quick --seed 7 --jobs 4 > target/ci-rows-jobs4.txt
cmp target/ci-rows-jobs1.txt target/ci-rows-jobs4.txt

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
# is the one benchmark, hammerhead::Driver the one driver (its route the
# one place an Output becomes an effect, one test transport, no hand-rolled
# timer heap),
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
# fault families, S0's seed is a constant (hh_types::S0_SEED, beside the
# one permutation, applied once per committee), std's TcpListener::bind sets
# SO_REUSEADDR, the validator has one wake token, the commit engine records
# the leader slots it decided skip, and a restart checks that its replay
# passes through the checkpointed commit count and chain hash, and the DAG
# resolves a parent in the round below (no digest table, no wrong-round
# error, no separate missing-parent scan, no digest-keyed ordered lookup),
# and the run's safety checker holds the schedule history (no validator
# keeps an epoch history), and a scenario section lowers from its schema
# row (no typed mirror of the grammar, no per-section reader or writer),
# the root too (no typed system, variant or exclusion budget, and no
# network, variant or exclusion-axis reader or writer), and the run path
# has one way in and out (the event queue only arms, the simulator runs
# one loop, a plan runs on the worker pool through one run_plan), and
# profiling has one registry and one switch (hh_crypto::prof: one time and
# one accrue for six sites; the simulator asks its node type at every op
# instead of being told once), and the await predicate is
# SchedulePolicy::heard_from, which the proposer's wait and the engine's
# slot rule both read, and Lemma 6's leader rounds are a counter of their
# own (a round may be two commits), and partial synchrony is an all-links
# chaos window that ends at GST (no pre-GST adversary, no gst_secs key or
# field, no deferral counter), the latency models are the two a run can
# select (geo and constant; no uniform model, no round-robin geo
# constructor, no region lookup, no delay bound), and the crash-fault,
# incident and testnet examples are fig2_faults.toml, incident_replay.toml
# and `hh-node testnet`, and a run is judged once, by
# ExperimentConfig::validate, in validators that return a String (no
# per-schedule error types, no ConfigError) and a sweep is `hh-cli run
# --set` (no matrix command), and hh_sim::collect_metrics measures the whole
# report row from one observer (no analysis row or recovery sample type in
# hh-scenario, no second pass over the handle), and every knob has a caller
# (no recover table, crashed list, client window, per-client spread,
# absolute phase rate, partition groups, directed chaos link, or block,
# pool and uncommitted-budget fields: a recovery is a crash's recover_at,
# the window and the three bounds are constants), and there are two
# scoring rules, vote-based and leader-outcome (no EMA rule, no smoothed
# cross-epoch score table), and a committee's stake is summed where it is
# read (no set-stake, quorum-set or validity-set helper), and a vertex
# holds no encoding memo (a WAL append encodes it), and a (round, author)
# address costs a mask bit (one inline AuthorMask, no stack mask buffer
# beside it; the checker's slot rows are dropped whole as its floor rises,
# with no pruning slack), and a latency log's unit is a run, not a record
# (no per-record size bound or difference reader).
if git grep -nE 'hotpath_smoke|BENCH_hotpath|hh[-_]bench|threaded::|threaded_demo|vendor/criterion|DESIGN\.md|swap_from_base|core/src/monitor|hammerhead::monitor|FaultPlan|ChaosPlan|SlowdownSpec|PartitionSpec|ChaosWindow|ChaosScope|KvStore|SerialExecutor|PooledExecutor|hh-cli testnet|StaticLeaderPolicy|TimeSeries|validate_workload|rbc_sender|audit_safety|derive_validator_config|schedule_override|flat_latency_ms|NetworkSpec|missing_index|missing_count|workload_declared|run_sim_streaming|run_sim_limited|run_experiment_limited|collect_streamed_metrics|ChaosRow|schedule_seed|bind_reusable|TOKEN_LEADER|drain_exec_records|with_window|ExclusionSpec|payload-bytes|chain_hash_prefix|hh_consensus::passed_over_candidates|ByDigest|contains_digest|WrongParentRound|missing_from\(|epoch_history|NodeSel|SlowdownEntry|TimedFaultEntry|PartitionSel|PartitionEntry|ByzantineStrategySpec|ByzantineEntrySpec|ChaosEntrySpec|FaultsSpec|ArrivalSpec|RateSpec|WorkloadPhaseSpec|WorkloadSpec|WindowSpec|AnalysisSpec|QuickSpec|read_faults|write_faults|write_workload|write_chaos|SystemSpec|VariantSpec|read_variant|write_variant|read_network|write_network|read_exclusion_axis|write_exclusion_axis|SoloPump|fn emit\(outputs|finish\(v, behavior|let dispatch =|BinaryHeap<Reverse<\(u64, u64\)>>|run_until_idle|schedule_message|link_in_order|run_plan_with|TimingWheel::push|set_profiling|hh_net::prof|accrue_queue|accrue_deliver|accrue_timer|time_digest|time_sig|time_codec|awaits_leader|passed_over_in_ordered_rounds|PreGstAdversary|pre_gst|gst_secs|adversary_deferred|LatencyModel::Uniform|GeoLatency::round_robin|region_of|max_delay\(|examples/crash_faults|examples/incident_replay|examples/local_testnet|FaultScheduleError|ChaosScheduleError|ByzantineScheduleError|WorkloadError|ConfigError|hh-cli matrix|AnalysisRow|RecoverySample|recovery_samples|faults\.recover\]|ChaosTarget::Pair|client_window_secs|max_uncommitted_txs|max_block_txs|client_rates|lower_crashed|PHASE_TPS|LINK_FROM|RESTART_AT|VoteEma|vote-ema|ema_milli|ema_scores_milli|stake_of_set|is_validity|Vertex::encoded_bytes|MaskBuf|SLOT_PRUNE_SLACK|EXEC_RECORD_MAX|take_delta' \
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
# the next measurement. --locked: a new edge between the crates would
# rewrite perfbench/Cargo.lock, and that must fail here too.
cargo test --offline --locked --manifest-path perfbench/Cargo.toml -q

# bench <workload>: a 2-second run of it into target/ci-<workload>.txt,
# whose last line must be a result that says "correct": true.
bench() {
    bash perfbench/run.sh --workload "$1" --seed 1 --seconds 2 > "target/ci-$1.txt"
    tail -n 1 "target/ci-$1.txt" | grep -q '"correct": true' \
        || { echo "perfbench $1 did not report a correct run"; exit 1; }
}
# metric <file> <metric>: the value of <metric> in the result on the last
# line of <file>, which must carry it.
metric() {
    local value
    value=$(tail -n 1 "$1" | sed -n 's/.*"'"$2"'": {"value": \([0-9.]*\).*/\1/p')
    [ -n "$value" ] || { echo "$1 carries no $2" >&2; exit 1; }
    echo "$value"
}
# ceiling <file> <metric> <limit>: that value is at no more than <limit>.
ceiling() {
    local value
    value=$(metric "$1" "$2")
    awk -v value="$value" -v limit="$3" 'BEGIN { exit !(value <= limit) }' \
        || { echo "$1: $2 $value exceeds $3"; exit 1; }
    echo "$1: $2 $value (ceiling $3)"
}
# report <file> <metric>: prints that value, with no ceiling.
report() {
    local value
    value=$(metric "$1" "$2")
    echo "$1: $2 $value (no ceiling)"
}

# Peak resident memory is set by allocation sizes, not by the machine's
# speed, and the simulated median latency is seed-exact, so one ceiling
# each holds on any host.
bench sim_n100_f33
# About 13.5 MB and 480 ms on seed 1 (13.9 MB while every round and
# every vertex kept its author mask in a 16-byte box and the checker its
# slots in a hash table; 14.4 MB while every vertex kept an
# encoding memo, every block an `Arc` header and every latency log a
# whole 64 KiB first chunk; 15.4 MB while every DAG kept its
# rounds in a B-tree and every engine the anchors above its GC horizon;
# 17.1-17.3 MB while every round of every DAG kept a pointer slot per
# committee member, a third of them for crashed validators, and a
# transaction took 32 B; 22.3 MB while every DAG kept a digest table
# beside its round index; 511.379 ms while epoch 0 stayed leader-only
# until its switch and a crashed leader's round waited for the anchor two
# rounds up, leaving an execution backlog in the gated window; 30.0 MB
# and 799.125 ms while every proposer kept its own parent list and
# leaders crashed from t = 0 were awaited through epoch 0).
ceiling target/ci-sim_n100_f33.txt peak_rss_mb 14.5
ceiling target/ci-sim_n100_f33.txt sim_latency_p50_ms 500
report target/ci-sim_n100_f33.txt setup_s
bench sim_n10_long
# The paper-length run, two repetitions of it: about 23.2 MB (24.65
# while every regular latency record was a two-byte varint, not its
# commit's submission gaps packed at their width; 24.73
# while every round and every vertex kept its author mask in a 16-byte box
# and the checker its slots in a hash table; 24.9 while
# every vertex kept an encoding memo, every block an `Arc` header and
# every latency log a whole 64 KiB first chunk; 25.1 while
# every DAG kept its rounds in a B-tree and every engine the anchors
# above its GC horizon; 25.5-25.7 while a transaction took 32 B; 26.1 while
# every validator kept its own epoch history and every schedule, 32.2
# while every engine kept every anchor and the checker every slot, 43.8
# while the log stored four varints a record) and 241.631 ms on seed 1
# (253.842 while a round holding earned anchors was ordered as one
# commit, its leader's block waiting for the slowest earned slot's
# (2f+1)-th vote; 302.403 while only the leader's vertex was an anchor
# candidate).
ceiling target/ci-sim_n10_long.txt peak_rss_mb 24
ceiling target/ci-sim_n10_long.txt sim_latency_p50_ms 250
report target/ci-sim_n10_long.txt setup_s

step "all green"
