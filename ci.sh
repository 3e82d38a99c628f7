#!/usr/bin/env bash
# CI entry point: formatting, lints, build, full test suite, and a perf
# smoke of the simulation engines (which also regenerates BENCH_sim.json).
# The smoke fails if, on c7552, the delta-engine single-gate-mutation
# speedup drops below 3x full CSR re-evaluation, the fault-patch engine
# drops below 3x vs per-fault full re-simulation, or (on c1908) the
# patch-scored resynthesis candidates drop below 2x vs rebuild scoring /
# 3.5x vs the PR 4 rebuild at bit-identical costs, or the flat full-tier
# context build drops below 1.7x vs the PR 4 hash-map constructor, or
# the evolution loop drops below 2x vs rebuild-per-evaluation scoring,
# or the incremental dW separation maintenance drops below 2x vs the
# full separation pass on the c7552 probe (bit-identical costs
# asserted), or the mega-circuit sweep misses its wall-clock budget; the
# full bench run additionally gates the CSR/wide kernel at 3x vs seed,
# the delta engine and the fault-patch engine at 5x, resynthesis patch
# scoring at 3x/7.6x on c7552, the c7552 context build at 2.5x, and (on
# machines with >= 4 cores, announced explicitly either way) the
# parallel fault sweep, parallel context build, and structural-parallel
# sweep at 1.5x. The seq section gates on sequential correctness:
# multi-frame sweep grids bit-identical and at least one fault
# first-detected mid-sequence on every s* circuit. The serve section
# gates on correctness counts (every
# request answered exactly once, admission shed >= 1, tier degradation
# >= 1) in both modes, and the serve smoke leg replays the full service
# scenario end to end (overload, deadlines, degradation, worker panics,
# checkpoint resume) against a live daemon.
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

echo "== perf smoke"
cargo run --release -q -p iddq-bench --bin bench -- --smoke --out BENCH_sim.json

echo "== scale smoke"
# A 10^5-gate generated circuit: CSR build + one full sweep + a GateSep
# context + one resynthesis probe (bit-identical rollback asserted),
# all under one 60 s wall-clock RunBudget, with per-node memory asserted
# against fixed byte ceilings — scale regressions fail fast here instead
# of surfacing minutes into the full bench.
cargo run --release -q -p iddq-cli --bin iddq -- scale --smoke

echo "== seq smoke"
# Sequential circuits end to end on generated s* netlists: .bench DFF
# round-trip, frame-stepped simulation vs the scalar per-frame-rebuild
# reference, a multi-frame fault sweep with grid invariance and
# mid-sequence first detections (state actually carried), and
# time-frame-expanded ATPG whose vectors replay to detection.
cargo run --release -q -p iddq-cli --bin iddq -- seq --smoke

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
