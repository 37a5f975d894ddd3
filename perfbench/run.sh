#!/usr/bin/env bash
# The benchmark's one command. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
#   bash perfbench/run.sh --all --seed <n> [--runs <k>] [--trace] [--out set.json] [--ledger perfbench/ledger.jsonl]
#   bash perfbench/run.sh --scenario node4_loaded|node4_steady|node4_restart --seed <n> [--trace]
#   bash perfbench/run.sh --compare <a.json> <b.json>
#
# Builds the benchmark (a package of its own in this directory, which
# compiles the simulator from ../crates; how is below) and, for the node
# scenarios, the `hh-node` binary under test (root workspace, the repo's
# own release profile) into one target directory, then runs the benchmark
# with the arguments given. Build time is not part of any metric.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/sim ]]; then
    echo "perfbench/run.sh: run from the root of a checkout of the repository" >&2
    exit 2
fi

# One absolute target directory for both builds: the benchmark looks for
# `hh-node` next to its own executable.
root="$PWD"
target="${CARGO_TARGET_DIR:-target}"
mkdir -p "$target"
CARGO_TARGET_DIR="$(cd "$target" && pwd)"
export CARGO_TARGET_DIR

# The benchmark is built through a workspace assembled here, whose root
# holds links to every crate it compiles. Cargo names a path dependency
# outside the workspace root by its absolute path, and that name seeds
# every symbol hash: built straight from perfbench/Cargo.toml (whose
# dependencies are at ../crates), one source gave a different binary in
# every checkout directory, and `setup_s` of sim_n10_long read 0.088 ms in
# one and 0.109 ms in another. Inside a workspace root cargo uses relative
# names, as it does for hh-cli in the repo's own workspace, and the binary
# is the same wherever the checkout is.
ws="$CARGO_TARGET_DIR/perfbench-ws"
mkdir -p "$ws"
ln -sfn "$root/crates" "$ws/crates"
ln -sfn "$root/vendor" "$ws/vendor"
ln -sfn "$root/perfbench/src" "$ws/src"
sed 's#"\.\./crates/#"crates/#' perfbench/Cargo.toml >"$ws/Cargo.toml"

# Cargo's own progress goes to stderr; stdout stays the benchmark's.
cargo build --release --offline --manifest-path "$ws/Cargo.toml" >&2
case " $* " in
*" --scenario "*) cargo build --release --offline -p hh-node --bin hh-node >&2 ;;
esac

exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
