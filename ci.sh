#!/usr/bin/env bash
# CI entry point: formatting, lints, build, full test suite, a type check
# of the benchmark's replay against the library APIs, and a perf smoke of
# the simulation engines (which also regenerates BENCH_sim.json).
# The perf smoke prints every bench gate and fails if, on c7552, the
# delta-engine single-gate-mutation speedup drops below 3x full CSR
# re-evaluation, the fault-patch engine drops below 3x vs per-fault full
# re-simulation, or (on c1908) the patch-scored resynthesis candidates
# drop below 2x vs rebuild scoring at bit-identical costs, or the flat
# full-tier context build drops below 1.7x vs the hash-map reference
# constructor, or (on c432) the evolution loop drops below 2x vs
# rebuild-per-evaluation scoring, or the incremental dW separation
# maintenance drops below 2x vs the full separation pass on the c7552
# probe (bit-identical costs asserted), or the serial mega-circuit sweep
# misses its wall-clock budget. The full bench run additionally gates
# the CSR/wide kernel at 3x vs seed, the delta engine and the fault-patch
# engine at 5x, resynthesis patch scoring at 3x on c7552, and the c7552
# context build at 2.5x; and, on machines with >= 4 cores (announced
# ARMED or SKIPPED either way), the parallel fault sweep and parallel
# context build at 1.5x. Sequential-circuit correctness (multi-frame
# sweeps, resume, ATPG determinism) is pinned by the workspace tests.
# A CLI leg checks that the fault-patch sweep and its per-fault CSR
# re-simulation oracle detect the same number of faults on c1908, and
# another that the per-gate resynthesis search prunes probes there and
# on a sequential s1423.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo clippy (deny warnings)"
# Library crates additionally carry
#   #![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
# so a new unwrap()/expect() in non-test library code fails this step:
# untrusted input must surface as iddq_control::EngineError, and every
# surviving expect documents the internal invariant that justifies it.
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo build --release"
cargo build --release

echo "== cargo test (workspace)"
cargo test --workspace -q

echo "== cargo check (benchmark replay)"
# perfbench/replay is its own workspace built against the library crates;
# checking it here catches an API change that would break the benchmark.
# The shared target directory keeps build output out of perfbench/.
CARGO_TARGET_DIR=target cargo check --release --offline --locked \
    --manifest-path perfbench/replay/Cargo.toml

echo "== perf smoke"
cargo run --release -q -p iddq-bench --bin bench -- --smoke --out BENCH_sim.json

echo "== fault sweep: delta vs csr"
# The fault-patch engine (stuck-at probes, bridge forces) and the
# per-fault full re-simulation oracle, end to end through the CLI on a
# generated c1908: both must print the same detected count.
sweep_dir="$(mktemp -d)"
trap 'rm -rf "$sweep_dir"' EXIT
target/release/iddq gen c1908 --seed 5 --out "$sweep_dir/c1908.bench" 2>/dev/null
detected() {
    target/release/iddq faults "$sweep_dir/c1908.bench" --vectors 1024 "$@" \
        | grep -o '[0-9]* detected'
}
delta_detected="$(detected)"
csr_detected="$(detected --backend csr)"
echo "delta: $delta_detected; csr: $csr_detected"
if [ "$delta_detected" != "$csr_detected" ]; then
    echo "ERROR: the fault-sweep backends disagree"
    exit 1
fi

echo "== per-gate resynthesis: bound pruning"
# The per-gate search prunes the probes whose lower bound (the cost at
# the pre-patch separation) already loses; on a generated combinational
# c1908 and a generated sequential s1423 (whose DFFs sit in the current
# histogram at t = 0) the stderr line must report a nonzero pruned count.
target/release/iddq gen s1423 --seed 5 --out "$sweep_dir/s1423.bench" 2>/dev/null
for circuit in c1908 s1423; do
    target/release/iddq synth "$sweep_dir/$circuit.bench" --resynth --per-gate --seed 3 \
        --generations 5 >/dev/null 2>"$sweep_dir/resynth.err"
    pruned_line="$(grep -o '[0-9]* of [0-9]* probes pruned' "$sweep_dir/resynth.err")"
    echo "per-gate search on $circuit: $pruned_line"
    if [ "${pruned_line%% *}" -eq 0 ]; then
        echo "ERROR: the per-gate search pruned no probe on $circuit"
        exit 1
    fi
done

echo "== scale smoke"
# A 10^5-gate generated circuit: CSR build + one full sweep + a GateSep
# context + one resynthesis probe (bit-identical rollback asserted),
# all under one 60 s wall-clock RunBudget, with per-node memory asserted
# against fixed byte ceilings — scale regressions fail fast here instead
# of surfacing minutes into the full bench.
cargo run --release -q -p iddq-cli --bin iddq -- scale --smoke

echo "== serve smoke"
# The hardened service end to end against a live in-process server:
# artifact-cache hits, deterministic tier degradation under a tiny
# cache, deadline partials with grid coverage, malformed/oversized
# lines answered with typed line-numbered errors, admission shed with
# retry hints, injected worker panics + supervisor restarts, and a
# deadline-interrupted keyed job resumed bit-identically from its
# checkpoint. Any failed check exits nonzero.
cargo run --release -q -p iddq-cli --bin iddq -- serve --smoke

echo "== chaos smoke"
# Deterministic fault injection over the serving path: 12 checkpointed
# sweeps completed through seeded crash/restart schedules under injected
# ENOSPC / torn-write / failed-rename / corrupt-read faults (final digest
# bit-identical to an uninterrupted run). Fixed seeds, well under a
# second of wall clock; any violated invariant exits nonzero with the
# offending seed. The full 216-schedule sweep is `iddq chaos`.
cargo run --release -q -p iddq-cli --bin iddq -- chaos --smoke

echo "CI OK"
