#!/usr/bin/env bash
# CI entry point: formatting, lints, doc links, build, full test suite, a
# type check of the benchmark's replay against the library APIs, and a
# perf smoke of the simulation engines (which also regenerates
# BENCH_sim.json).
# The perf smoke prints every bench gate and fails if, on c7552, the
# fault-patch engine drops below 3x vs per-fault full re-simulation (22x
# vs the per-frame rebuild on s5378 at 4 frames per sequence, recorded
# under `fault_patch.multi_frame`), or (on c1908) the default GateSep
# context build drops below 2x vs a context handed the one-BFS-per-gate
# reference table, or (on c432) the evolution loop drops below 2x vs
# rebuild-per-evaluation scoring, or the incremental dW separation
# maintenance drops below 2x vs the full separation pass on the c7552
# probe (bit-identical costs asserted), or the serial mega-circuit sweep
# misses its wall-clock budget. The full bench run additionally gates the
# CSR/wide kernel at 3x vs seed, the fault-patch engine at 5x, and the
# c7552 context build at 1.2x; and, on machines with >= 4 cores
# (announced ARMED or SKIPPED either way), the parallel fault sweep and parallel
# gate-table build at 1.5x. Sequential-circuit correctness (multi-frame
# sweeps, resume, ATPG determinism) is pinned by the workspace tests.
# A CLI leg checks that the fault-patch sweep and its per-fault CSR
# re-simulation oracle detect the same number of faults on c1908 and, at
# 4 frames per sequence, on s5378 (whose checkpoint is pinned by digest),
# another that the per-gate resynthesis search prunes probes on c1908
# and on a sequential s1423, a third that `iddq test` (c1908) and `iddq
# synth` (s1423) print the same bytes at 1 and 2 threads, and a fourth
# that the flow outputs still hash to their pinned digests. The last
# step prints the tracked Rust line count and gates nothing.
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

echo "== cargo doc (deny warnings)"
# A broken or private intra-doc link fails here, so deleting an item that
# the docs still link to fails CI. `--lib` documents the library targets
# only: the facade's and the CLI's binaries share the output name `iddq`.
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --lib --offline

echo "== cargo build --release"
cargo build --release
# The CLI legs below run target/release/iddq, which the root build (the
# facade package only) does not produce.
cargo build --release -p iddq-cli

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
# The same pair on a generated s5378 at 4 frames per sequence, where each
# faulty machine is superimposed with its diverged flops in one logged
# walk; and the checkpoint of that sweep, which holds every fault's
# earliest detection, must hash to the digest recorded below. With
# dropping on (the default) each machine runs only on the lanes below its
# in-batch detection; the `--no-drop` rerun simulates every lane and must
# write the same checkpoint.
target/release/iddq gen s5378 --seed 5 --out "$sweep_dir/s5378.bench" 2>/dev/null
seq_detected() {
    target/release/iddq faults "$sweep_dir/s5378.bench" --vectors 256 --frames 4 --lanes 64 \
        --seed 5 "$@" 2>/dev/null | grep -o '[0-9]* detected'
}
delta_detected="$(seq_detected --checkpoint "$sweep_dir/faults_s5378.ckpt")"
unbounded_detected="$(seq_detected --no-drop --checkpoint "$sweep_dir/faults_s5378_no_drop.ckpt")"
csr_detected="$(seq_detected --backend csr)"
echo "s5378 at 4 frames: delta: ${delta_detected//$'\n'/, }; csr: ${csr_detected//$'\n'/, }"
if [ "$delta_detected" != "$csr_detected" ] || [ "$unbounded_detected" != "$csr_detected" ]; then
    echo "ERROR: the fault-sweep backends disagree at 4 frames"
    exit 1
fi
if ! (cd "$sweep_dir" && sha256sum --check --quiet --strict) <<'DIGESTS'
6dd5d1aa7478dc44ee12492898731611556c9c2921546e698463c1bae75e428c  faults_s5378.ckpt
6dd5d1aa7478dc44ee12492898731611556c9c2921546e698463c1bae75e428c  faults_s5378_no_drop.ckpt
DIGESTS
then
    echo "ERROR: the 4-frame s5378 fault sweep's earliest detections changed"
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

echo "== evolution: thread invariance through the CLI"
# The evolution prunes Monte-Carlo descendants whose cost lower bound
# loses to the surviving parents; what it selects must not depend on the
# thread count. `iddq test` on the generated c1908 and `iddq synth` on the
# generated sequential s1423 must print the same bytes at 1 and 2 threads.
for leg in "test c1908" "synth s1423"; do
    read -r sub circuit <<<"$leg"
    for threads in 1 2; do
        target/release/iddq "$sub" "$sweep_dir/$circuit.bench" --seed 3 --threads "$threads" \
            >"$sweep_dir/evo.$threads.out" 2>/dev/null
    done
    if ! cmp -s "$sweep_dir/evo.1.out" "$sweep_dir/evo.2.out"; then
        echo "ERROR: iddq $sub on $circuit prints different output at 1 and 2 threads"
        diff "$sweep_dir/evo.1.out" "$sweep_dir/evo.2.out" || true
        exit 1
    fi
    echo "iddq $sub on $circuit: identical at 1 and 2 threads"
done

echo "== evolution: pinned outputs"
# Scoring is exact, so a faster evaluator must not move what the flow
# prints: on the generated circuits, `iddq test` (c1908; c7552, the
# benchmarked paper flow; s1423 at 2 frames), `iddq synth` on s1423
# (stdout and the --json report), on c1908, and at seed 1 on c7552 and
# s5378 (runs on which the event-driven cone-walk settle, since removed
# for the full sweep, still fired), and the per-gate resynthesis of s1423
# and of s5378 (the benchmarked resynth_seq command) followed by its
# evolution (stdout and the --json report) must hash to the digests
# below, and `--resynth` without `--per-gate` must print and write the
# same bytes as with it. A change
# that alters these outputs on purpose re-records the digests and says
# why in CHANGES.md.
target/release/iddq test "$sweep_dir/c1908.bench" --seed 3 >"$sweep_dir/pin.test_c1908" 2>/dev/null
target/release/iddq gen c7552 --seed 5 --out "$sweep_dir/c7552.bench" 2>/dev/null
target/release/iddq test "$sweep_dir/c7552.bench" --seed 3 >"$sweep_dir/pin.test_c7552" 2>/dev/null
target/release/iddq test "$sweep_dir/s1423.bench" --seed 3 --frames 2 \
    >"$sweep_dir/pin.test_s1423" 2>/dev/null
target/release/iddq synth "$sweep_dir/s1423.bench" --seed 3 --json "$sweep_dir/pin.synth_s1423.json" \
    >"$sweep_dir/pin.synth_s1423" 2>/dev/null
target/release/iddq synth "$sweep_dir/c1908.bench" --seed 3 >"$sweep_dir/pin.synth_c1908" 2>/dev/null
target/release/iddq synth "$sweep_dir/c7552.bench" --seed 1 >"$sweep_dir/pin.synth_c7552" 2>/dev/null
target/release/iddq gen s5378 --seed 5 --out "$sweep_dir/s5378.bench" 2>/dev/null
target/release/iddq synth "$sweep_dir/s5378.bench" --seed 1 >"$sweep_dir/pin.synth_s5378" 2>/dev/null
target/release/iddq synth "$sweep_dir/s1423.bench" --resynth --per-gate --seed 3 \
    --json "$sweep_dir/pin.resynth_s1423.json" >"$sweep_dir/pin.resynth_s1423" 2>/dev/null
target/release/iddq synth "$sweep_dir/s1423.bench" --resynth --seed 3 \
    --json "$sweep_dir/resynth_implied.json" >"$sweep_dir/resynth_implied" 2>/dev/null
target/release/iddq synth "$sweep_dir/s5378.bench" --resynth --per-gate --seed 3 \
    --json "$sweep_dir/pin.resynth_s5378.json" >"$sweep_dir/pin.resynth_s5378" 2>/dev/null
if ! (cd "$sweep_dir" && sha256sum --check --quiet --strict) <<'DIGESTS'
3690e525dff748985d44d4fa1503b70eedff28d5b1c0e174e58b5144d25363f1  pin.test_c1908
c0897f167e33201c2e4f13d896ff85e5f8a73fdf521f7297d1fd97dc84fca340  pin.test_c7552
a184811580e8903cb73f61046c06eca42743ba64d71139f1b3e713e7c9a7e95e  pin.test_s1423
14b0e622303a24838a9d51978d0089590170f4d97b3054394f19914b110bfbd3  pin.synth_s1423
049d9689826953c1be89b3821d03cbcf0fc70ff71b730cc8e3ef0f3686ba0986  pin.synth_s1423.json
0ce3cc1a275eeb65f9593bb9efac01ea98db52743bc47dd818fd43c66a06c882  pin.synth_c1908
e6e46beb325f526fbaaebdbe2b1937f44c2472be02eaa0f500e73bdad91117ce  pin.synth_c7552
0fe9ec68f351d3d0aed3ea7fdcd3a2a11f14ac40127fa1a677eea8d709fc0e30  pin.synth_s5378
ea7201d6646f8f5443ceb3c7f898b2880912c320eaf6153f3981828a595a4554  pin.resynth_s1423
dc670a185cf7cad033368df3f7cb677bdcec5a4daf5bef744b6946a0f4e3e275  pin.resynth_s1423.json
c3ded7e0a135aebe15b2876526efd1ed8eb09f1ed1b915476dfcd2e6ccbcf418  pin.resynth_s5378
cef531bfec66e2fbd66ac5095e04edadee52172279026e737109f5a6eeb308f4  pin.resynth_s5378.json
DIGESTS
then
    echo "ERROR: a pinned flow output changed"
    exit 1
fi
if ! cmp "$sweep_dir/resynth_implied" "$sweep_dir/pin.resynth_s1423" \
    || ! cmp "$sweep_dir/resynth_implied.json" "$sweep_dir/pin.resynth_s1423.json"; then
    echo "ERROR: synth --resynth differs from synth --resynth --per-gate"
    exit 1
fi
echo "iddq test c1908, test c7552, test s1423 --frames 2, synth s1423 (+ --json), synth c1908," \
    "synth c7552 and s5378 at seed 1, synth s1423 --resynth [--per-gate] (+ --json)," \
    "synth s5378 --resynth --per-gate (+ --json): digests match"

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

echo "== tracked line count"
# Informational, gates nothing: the non-vendored Rust lines outside
# perfbench/, the figure ROADMAP.md tracks from change to change.
if rust_lines="$(git ls-files '*.rs' | grep -v '^vendor/\|^perfbench/' | xargs cat | wc -l)"; then
    echo "non-vendored Rust lines outside perfbench/: $rust_lines"
else
    echo "non-vendored Rust lines outside perfbench/: unknown (not a git checkout)"
fi

echo "CI OK"
