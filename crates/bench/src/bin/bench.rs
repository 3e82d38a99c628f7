//! `bench` — machine-readable throughput measurements of the simulation
//! hot path, emitting `BENCH_sim.json`.
//!
//! Measures patterns/second of logic simulation on synthetic c432 / c1908
//! / c7552 circuits for four kernels:
//!
//! * `naive64` — the seed's evaluator (per-gate fan-in `Vec`s, scratch
//!   gather buffer, fresh value vector per 64-pattern batch), kept in
//!   `iddq_logicsim::reference` as the comparison baseline;
//! * `csr64` — the CSR-compiled kernel, 64 patterns/sweep, zero-allocation
//!   `eval_into`;
//! * `csr256` / `csr512` — the same kernel over 256-bit [`W256`] /
//!   512-bit [`W512`] words (the `--lanes` widths of the CLI).
//!
//! It also measures:
//!
//! * the parallel IDDQ fault sweep (vectors/second, sequential vs ≥ 4
//!   worker threads; the > 1.5× gate applies only when the machine
//!   actually has ≥ 4 cores),
//! * the fault-patch engine (`fault_patch`): stuck-at + bridge sweep on
//!   the persistent delta state (force patch → dirty-cone diff →
//!   rollback, fault dropping) against the per-fault full re-simulation
//!   oracle — detection results are asserted identical, and the speedup
//!   gate requires ≥ 5× (full) / ≥ 3× (smoke) on the largest benchmark,
//! * the event-driven incremental engine (`delta`): single-gate-mutation
//!   re-evaluation throughput (apply or rollback of one structural patch,
//!   dirty-cone-only propagation) against a full CSR re-simulation of the
//!   mutated circuit — the acceptance gate requires ≥ 5× (full mode) /
//!   ≥ 3× (smoke) on the largest benchmark,
//! * resynthesis candidate scoring (`resynth_patch`): the three
//!   `cost_aware` candidates scored by patch apply→score→rollback on one
//!   persistent `ResynthEval` vs materializing each candidate and
//!   rebuilding a fresh `EvalContext`/`Evaluated` — chosen candidate and
//!   costs asserted bit-identical, wall-clock gated ≥ 3× (full, c7552) /
//!   ≥ 2× (smoke, c1908),
//! * the evolution loop wall-clock against a **rebuild-per-evaluation**
//!   baseline: every candidate scored by a fresh from-scratch
//!   [`iddq_core::Evaluated`] (asserted to reproduce the search's best
//!   cost bit-exactly), plus a `threads = cores` arm asserted to return
//!   the serial arm's best partition, cost bits and evaluation count,
//! * the `scale` section: generated mega-circuits (10^5 gates in smoke,
//!   plus 10^6 in full mode) swept end-to-end under an asserted
//!   wall-clock budget — structurally parallel sweeps asserted
//!   bit-identical to serial, measured packed-state memory reported,
//!   and a row-budgeted streamed separation-oracle build demonstrating
//!   bounded-memory partial analysis at scale — plus the c7552
//!   incremental-ΔW probe: one `ResynthEval` apply→rollback separation
//!   refresh vs the retained full-refresh reference at asserted
//!   bit-identical costs, gated ≥ 2×,
//! * the `seq` section: ISCAS-89-like sequential circuits through the
//!   multi-frame fault sweep — every grid configuration (threads,
//!   shards, delta backend) asserted bit-identical to the serial CSR
//!   sweep, and at least one fault must be first detected mid-sequence,
//!   i.e. only explicable by latched state crossing a frame boundary.
//!
//! `--smoke` shrinks the measurement windows for a sub-second CI health
//! check; `--out PATH` overrides the JSON path.
//!
//! ```text
//! cargo run --release -p iddq-bench --bin bench [-- --smoke] [--out BENCH_sim.json]
//! ```

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use iddq_bench::table1_circuit;
use iddq_celllib::Library;
use iddq_control::{RunBudget, RunControl};
use iddq_core::config::PartitionConfig;
use iddq_core::evolution::{self, EvolutionConfig};
use iddq_core::{AnalysisTier, EvalContext, Evaluated, ResynthEval};
use iddq_gen::iscas::IscasProfile;
use iddq_gen::mega::{self, MegaConfig};
use iddq_logicsim::delta::{DeltaSim, Patch, PatchOp};
use iddq_logicsim::fault_sweep::{self, FaultSweepOptions, LogicFault};
use iddq_logicsim::faults::{enumerate, FaultUniverseConfig, IddqFault};
use iddq_logicsim::logic_test::StuckAtFault;
use iddq_logicsim::reference::NaiveSimulator;
use iddq_logicsim::{iddq, BackendKind, Simulator};
use iddq_netlist::separation::SeparationOracle;
use iddq_netlist::{CellKind, Netlist, NodeId, PackedWord, W256, W512};
use iddq_serve::{Client as ServeClient, Server as ServeServer, ServerConfig as ServeConfig};

const CIRCUITS: [&str; 3] = ["c432", "c1908", "c7552"];
/// Circuit the acceptance criterion is pinned to.
const HEADLINE: &str = "c7552";

struct Options {
    smoke: bool,
    out: String,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sim.json".to_string());
    Options {
        smoke: args.iter().any(|a| a == "--smoke"),
        out,
    }
}

/// Mean seconds per call of `f`, measured over a wall-clock window.
fn secs_per_iter(window_ms: u64, mut f: impl FnMut()) -> f64 {
    // Warm-up (touches caches, faults in pages).
    f();
    f();
    let floor = std::time::Duration::from_millis(window_ms);
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed();
        if elapsed >= floor || iters >= 1 << 30 {
            return elapsed.as_secs_f64() / iters as f64;
        }
        iters = iters.saturating_mul(4);
    }
}

/// Best-of-rounds seconds per call of every arm, measured **interleaved**
/// (round robin) so slow drift of a shared, noisy machine hits all arms
/// equally — the right way to measure a work *ratio* that a gate depends
/// on. Per arm the *minimum* round is reported: noise and preemption only
/// ever add time, so the minima estimate the true work of each arm and
/// their ratio is far more stable than a ratio of 2–3-sample means.
/// Rounds continue until at least three have run and the accumulated
/// wall-clock covers `window_ms` per arm.
fn secs_per_iter_interleaved<const K: usize>(
    window_ms: u64,
    arms: &mut [&mut dyn FnMut(); K],
) -> [f64; K] {
    for f in arms.iter_mut() {
        f(); // warm-up
    }
    let budget = std::time::Duration::from_millis(window_ms) * K as u32;
    let mut best = [std::time::Duration::MAX; K];
    let mut spent = std::time::Duration::ZERO;
    let mut rounds = 0u64;
    loop {
        for (f, best) in arms.iter_mut().zip(best.iter_mut()) {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed();
            spent += elapsed;
            *best = (*best).min(elapsed);
        }
        rounds += 1;
        if (rounds >= 3 && spent >= budget) || rounds >= 1 << 20 {
            return best.map(|t| t.as_secs_f64());
        }
    }
}

fn main() {
    let opts = parse_args();
    let window_ms: u64 = if opts.smoke { 8 } else { 150 };
    let mode = if opts.smoke { "smoke" } else { "full" };
    println!("== simulation kernel throughput ({mode}) ==");

    let mut circuits: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut headline_speedup = 0.0f64;
    let mut netlists: BTreeMap<&str, Netlist> = BTreeMap::new();
    let mut csr256_rates: BTreeMap<&str, f64> = BTreeMap::new();
    for name in CIRCUITS {
        let profile = IscasProfile::by_name(name).expect("known circuit");
        let nl = table1_circuit(profile);
        let naive = NaiveSimulator::new(&nl);
        let sim = Simulator::new(&nl);
        let inputs64: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let inputs256: Vec<W256> = inputs64
            .iter()
            .map(|&w| W256::from_limbs(|l| w.rotate_left(l as u32 * 7)))
            .collect();
        let inputs512: Vec<W512> = inputs64
            .iter()
            .map(|&w| W512::from_limbs(|l| w.rotate_left(l as u32 * 5)))
            .collect();
        let mut values64 = vec![0u64; sim.node_count()];
        let mut values256 = vec![W256::zeros(); sim.node_count()];
        let mut values512 = vec![W512::zeros(); sim.node_count()];

        // Structural-parallel differential: the threaded sweep must be
        // bit-identical to the serial kernel on every benched circuit
        // (here it degenerates to serial — ISCAS levels sit far below
        // the parallel threshold — but the contract is asserted anyway;
        // the mega-circuits in the scale section exercise the threaded
        // partitioning for real).
        {
            sim.eval_into(&inputs64, &mut values64);
            let mut par64 = vec![0u64; sim.node_count()];
            sim.eval_into_threads(&inputs64, &mut par64, 4);
            assert_eq!(
                values64, par64,
                "{name}: threaded sweep must be bit-identical to serial"
            );
        }

        let t_naive = secs_per_iter(window_ms, || {
            std::hint::black_box(naive.eval(&inputs64));
        });
        let t_csr64 = secs_per_iter(window_ms, || {
            sim.eval_into(std::hint::black_box(&inputs64), &mut values64);
        });
        let t_csr256 = secs_per_iter(window_ms, || {
            sim.eval_into(std::hint::black_box(&inputs256), &mut values256);
        });
        let t_csr512 = secs_per_iter(window_ms, || {
            sim.eval_into(std::hint::black_box(&inputs512), &mut values512);
        });

        let naive_pps = 64.0 / t_naive;
        let csr64_pps = 64.0 / t_csr64;
        let csr256_pps = 256.0 / t_csr256;
        let csr512_pps = 512.0 / t_csr512;
        let speedup = csr256_pps / naive_pps;
        if name == HEADLINE {
            headline_speedup = speedup;
        }
        println!(
            "{name:>8}: naive64 {naive_pps:10.3e} pat/s | csr64 {csr64_pps:10.3e} \
             ({:4.2}x) | csr256 {csr256_pps:10.3e} ({speedup:4.2}x) | \
             csr512 {csr512_pps:10.3e} ({:4.2}x vs seed)",
            csr64_pps / naive_pps,
            csr512_pps / naive_pps,
        );
        circuits.insert(
            name.to_string(),
            serde_json::json!({
                "gates": nl.gate_count(),
                "naive64_patterns_per_sec": naive_pps,
                "csr64_patterns_per_sec": csr64_pps,
                "csr256_patterns_per_sec": csr256_pps,
                "csr512_patterns_per_sec": csr512_pps,
                "csr64_speedup_vs_seed": csr64_pps / naive_pps,
                "csr256_speedup_vs_seed": speedup,
                "csr512_speedup_vs_seed": csr512_pps / naive_pps,
            }),
        );
        csr256_rates.insert(name, csr256_pps);
        netlists.insert(name, nl);
    }

    // Event-driven incremental engine: single-gate-mutation re-evaluation.
    // Each apply (or rollback) of a one-gate patch refreshes the full
    // 256-pattern state for a new circuit variant by re-simulating only
    // the dirty cone. Two baselines: what the CSR kernel actually pays
    // per mutated variant (program recompile + full sweep — its compiled
    // runs bake in gate kinds, so a mutation invalidates the program),
    // and the generous sweep-only rate (as if recompilation were free).
    // The acceptance gate uses the recompile-inclusive baseline; both are
    // recorded.
    println!("== delta engine: single-gate-mutation re-evaluation ==");
    let mut delta_entries: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut delta_headline_speedup = 0.0f64;
    for name in CIRCUITS {
        let nl = &netlists[name];
        let inputs256: Vec<W256> = (0..nl.num_inputs() as u64)
            .map(|i| {
                let w = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                W256::from_limbs(|l| w.rotate_left(l as u32 * 7))
            })
            .collect();
        let mut dsim = DeltaSim::<W256>::new(nl);
        dsim.set_inputs(&inputs256);
        // A deterministic pool of single-gate kind-flip patches.
        let gates: Vec<NodeId> = nl.gate_ids().collect();
        let mut state = 0xde17au64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 31)
        };
        let pool: Vec<Patch> = (0..512)
            .filter_map(|_| {
                let gate = gates[next() as usize % gates.len()];
                let arity = nl.node(gate).fanin().len();
                let current = nl.node(gate).kind().cell_kind();
                let options: Vec<CellKind> = CellKind::ALL
                    .into_iter()
                    .filter(|k| k.accepts_fanin(arity) && Some(*k) != current)
                    .collect();
                if options.is_empty() {
                    return None;
                }
                let kind = options[next() as usize % options.len()];
                Some(Patch::single(PatchOp::SetKind { gate, kind }))
            })
            .collect();
        let mut pi = 0usize;
        let mut reevaluated = 0u64;
        let mut mutations = 0u64;
        let t_pair = secs_per_iter(window_ms, || {
            let patch = &pool[pi % pool.len()];
            pi += 1;
            let r = dsim.apply(patch).expect("pool patches are valid");
            let rb = dsim.rollback();
            reevaluated += (r.reevaluated + rb.reevaluated) as u64;
            mutations += 2;
        });
        let mut values256 = vec![W256::zeros(); nl.node_count()];
        let t_rebuild = secs_per_iter(window_ms, || {
            let sim = Simulator::new(std::hint::black_box(nl));
            sim.eval_into(&inputs256, &mut values256);
            std::hint::black_box(&values256);
        });
        let inc_pps = 2.0 * f64::from(W256::LANES) / t_pair;
        let sweep_pps = csr256_rates[name];
        let rebuild_pps = f64::from(W256::LANES) / t_rebuild;
        let speedup = inc_pps / rebuild_pps;
        let sweep_speedup = inc_pps / sweep_pps;
        let mean_dirty = reevaluated as f64 / mutations as f64;
        if name == HEADLINE {
            delta_headline_speedup = speedup;
        }
        println!(
            "{name:>8}: incremental {inc_pps:10.3e} pat/s | csr rebuild+sweep {rebuild_pps:10.3e} \
             ({speedup:5.2}x) | csr sweep-only {sweep_pps:10.3e} ({sweep_speedup:4.2}x), \
             mean dirty cone {mean_dirty:6.1} of {} nodes",
            nl.node_count(),
        );
        delta_entries.insert(
            name.to_string(),
            serde_json::json!({
                "gates": nl.gate_count(),
                "incremental_patterns_per_sec": inc_pps,
                "full_csr_rebuild_patterns_per_sec": rebuild_pps,
                "full_csr_sweep_patterns_per_sec": sweep_pps,
                "speedup_vs_full_reeval": speedup,
                "speedup_vs_sweep_only": sweep_speedup,
                "mean_dirty_nodes": mean_dirty,
            }),
        );
    }

    // Fault-patch engine: stuck-at + bridge sweep on the persistent delta
    // state vs the per-fault full re-simulation oracle. Both runs use the
    // same fault-dropping semantics and are asserted to produce identical
    // detections, so the wall-clock ratio isolates the dirty-cone win.
    println!("== fault-patch engine: stuck-at/bridge sweep ==");
    let fp_nl = &netlists[HEADLINE];
    let fp_gates: Vec<NodeId> = fp_nl.gate_ids().collect();
    let num_sa = if opts.smoke { 40 } else { 192 };
    let sa_stride = (fp_gates.len() / num_sa).max(1);
    let mut fp_faults: Vec<LogicFault> = fp_gates
        .iter()
        .step_by(sa_stride)
        .take(num_sa)
        .flat_map(|&g| {
            [false, true].map(|stuck_at_one| {
                LogicFault::StuckAt(StuckAtFault {
                    node: g,
                    stuck_at_one,
                })
            })
        })
        .collect();
    let stuck_at_count = fp_faults.len();
    let num_bridges = if opts.smoke { 16 } else { 64 };
    fp_faults.extend(
        enumerate(fp_nl, &FaultUniverseConfig::default(), 7)
            .into_iter()
            .filter_map(|f| match f {
                IddqFault::Bridge { a, b, .. } => Some(LogicFault::Bridge { a, b }),
                _ => None,
            })
            .take(num_bridges),
    );
    let bridge_count = fp_faults.len() - stuck_at_count;
    let fp_num_vectors = if opts.smoke { 256 } else { 512 };
    let fp_vectors: Vec<Vec<bool>> = (0..fp_num_vectors)
        .map(|k| {
            (0..fp_nl.num_inputs())
                .map(|i| (k * 37 + i * 11) % 3 == 0)
                .collect()
        })
        .collect();
    let patch_opts = FaultSweepOptions {
        threads: 1,
        backend: BackendKind::Delta,
        ..FaultSweepOptions::default()
    };
    let oracle_opts = FaultSweepOptions {
        threads: 1,
        backend: BackendKind::Csr,
        ..FaultSweepOptions::default()
    };
    let patch_outcome = fault_sweep::sweep::<W256>(fp_nl, &fp_faults, &fp_vectors, &patch_opts);
    let oracle_outcome = fault_sweep::sweep::<W256>(fp_nl, &fp_faults, &fp_vectors, &oracle_opts);
    assert_eq!(
        patch_outcome.first_detection, oracle_outcome.first_detection,
        "fault-patch engine must match the per-fault full re-simulation oracle"
    );
    let t_patch = secs_per_iter(window_ms, || {
        std::hint::black_box(fault_sweep::sweep::<W256>(
            fp_nl,
            &fp_faults,
            &fp_vectors,
            &patch_opts,
        ));
    });
    let t_oracle = secs_per_iter(window_ms, || {
        std::hint::black_box(fault_sweep::sweep::<W256>(
            fp_nl,
            &fp_faults,
            &fp_vectors,
            &oracle_opts,
        ));
    });
    let fault_patterns = (fp_faults.len() * fp_num_vectors) as f64;
    let patch_fpps = fault_patterns / t_patch;
    let oracle_fpps = fault_patterns / t_oracle;
    let fault_patch_speedup = t_oracle / t_patch;
    let fault_patch_threshold = if opts.smoke { 3.0 } else { 5.0 };
    println!(
        "{HEADLINE:>8}: {stuck_at_count} stuck-at + {bridge_count} bridges x {fp_num_vectors} \
         vectors: patch {patch_fpps:10.3e} fault-pat/s | per-fault resim {oracle_fpps:10.3e} \
         ({fault_patch_speedup:5.2}x), mean dirty cone {:6.1} of {} nodes, coverage {:.1}%",
        patch_outcome.mean_dirty_nodes,
        fp_nl.node_count(),
        patch_outcome.coverage * 100.0,
    );
    let fault_patch = serde_json::json!({
        "circuit": HEADLINE,
        "stuck_at_faults": stuck_at_count,
        "bridge_faults": bridge_count,
        "vectors": fp_num_vectors,
        "patch_fault_patterns_per_sec": patch_fpps,
        "oracle_fault_patterns_per_sec": oracle_fpps,
        "speedup_vs_per_fault_resim": fault_patch_speedup,
        "mean_dirty_nodes": patch_outcome.mean_dirty_nodes,
        "coverage": patch_outcome.coverage,
        "results_match_oracle": true,
        "acceptance_threshold": fault_patch_threshold,
        "pass": fault_patch_speedup >= fault_patch_threshold,
    });

    // Analysis-context construction: the flat, tiered, parallel rework of
    // EvalContext. Four arms per circuit: the full (Separation) tier on
    // the flat BFS engine, the GateSep tier (gate table direct from the
    // netlist, no oracle), the PR 4-style constructor (hash-map oracle —
    // the differential baseline, asserted equal to the flat build), and
    // the thread-sharded parallel full build (bit-identical by stitching;
    // its speedup is only gated on machines with >= 4 real cores).
    println!("== analysis context construction ==");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let ctx_lib = Library::generic_1um();
    let ctx_cfg = PartitionConfig::paper_default();
    let ctx_circuits: &[&str] = if opts.smoke {
        &["c1908"]
    } else {
        &["c1908", HEADLINE]
    };
    let ctx_threads = cores.max(4);
    let mut context_entries: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut ctx_headline_speedup = 0.0f64;
    let mut ctx_parallel_speedup = 0.0f64;
    for name in ctx_circuits {
        let nl = &netlists[name];
        // Differential sanity: the flat full build, the PR 4 hash-map
        // build and the direct GateSep table agree entry for entry.
        {
            let flat = EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone()).build();
            let pr4 = EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone())
                .reference_oracle()
                .build();
            assert_eq!(
                flat.separation(),
                pr4.separation(),
                "flat oracle must equal the hash-map reference"
            );
            let gatesep = EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone())
                .tier(AnalysisTier::GateSep)
                .build();
            assert_eq!(
                gatesep.sep_table(),
                flat.sep_table(),
                "direct gate table must equal the oracle distillation"
            );
            let par = EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone())
                .threads(ctx_threads)
                .build();
            assert_eq!(
                par.separation(),
                flat.separation(),
                "parallel build must be bit-identical to serial"
            );
        }
        let [t_full, t_gatesep, t_pr4, t_par] = secs_per_iter_interleaved(
            window_ms,
            &mut [
                &mut || {
                    std::hint::black_box(
                        EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone()).build(),
                    );
                },
                &mut || {
                    std::hint::black_box(
                        EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone())
                            .tier(AnalysisTier::GateSep)
                            .build(),
                    );
                },
                &mut || {
                    std::hint::black_box(
                        EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone())
                            .reference_oracle()
                            .build(),
                    );
                },
                &mut || {
                    std::hint::black_box(
                        EvalContext::builder(nl, &ctx_lib, ctx_cfg.clone())
                            .threads(ctx_threads)
                            .build(),
                    );
                },
            ],
        );
        let flat_speedup = t_pr4 / t_full;
        let gatesep_speedup = t_pr4 / t_gatesep;
        let par_speedup = t_full / t_par;
        if *name == HEADLINE || (opts.smoke && *name == "c1908") {
            ctx_headline_speedup = flat_speedup;
            ctx_parallel_speedup = par_speedup;
        }
        println!(
            "{name:>8}: full(flat) {:7.1} ms ({flat_speedup:4.2}x vs PR4) | gatesep {:7.1} ms \
             ({gatesep_speedup:4.2}x) | pr4 {:7.1} ms | parallel x{ctx_threads} {:7.1} ms \
             ({par_speedup:4.2}x vs serial) on {cores} core(s)",
            t_full * 1e3,
            t_gatesep * 1e3,
            t_pr4 * 1e3,
            t_par * 1e3,
        );
        context_entries.insert(
            (*name).to_string(),
            serde_json::json!({
                "gates": nl.gate_count(),
                "full_flat_secs": t_full,
                "gatesep_secs": t_gatesep,
                "pr4_secs": t_pr4,
                "parallel_secs": t_par,
                "parallel_threads": ctx_threads,
                "full_flat_speedup_vs_pr4": flat_speedup,
                "gatesep_speedup_vs_pr4": gatesep_speedup,
                "parallel_speedup_vs_serial": par_speedup,
            }),
        );
    }
    // Work ratio between two deterministic builds: stable enough to gate
    // in smoke mode too (at the smaller circuit's lower threshold — the
    // oracle is a smaller fraction of the c1908 build).
    let ctx_build_threshold = if opts.smoke { 1.7 } else { 2.5 };
    let context_build = serde_json::json!({
        "circuit": if opts.smoke { "c1908" } else { HEADLINE },
        "circuits": context_entries,
        "full_flat_speedup_vs_pr4": ctx_headline_speedup,
        "acceptance_threshold": ctx_build_threshold,
        "pass": ctx_headline_speedup >= ctx_build_threshold,
        "parallel_speedup_vs_serial": ctx_parallel_speedup,
        // Mirrors the fault-sweep gate discipline: the sub-1x number a
        // 1-core container measures is recorded but explicitly marked
        // SKIPPED, so downstream tooling never reads it as a regression.
        "parallel_gate": if cores >= 4 { "ARMED" } else { "SKIPPED" },
        "parallel_gate_cores": cores,
    });

    // Resynthesis candidate scoring: the three cost_aware candidates
    // (Original / Balanced / Chain) scored by patch apply->score->rollback
    // on one persistent GateSep-tier ResynthEval, against two rebuild
    // arms: the current rebuild path (materialize every candidate, fresh
    // flat-engine EvalContext + single-module Evaluated each) and the PR
    // 4-era rebuild (same, with the hash-map oracle constructor) — the
    // baseline PR 4's recorded headline ratio was measured against, so
    // the two headlines stay comparable. All three paths must pick the
    // same candidate at bit-identical costs; both wall-clock ratios are
    // gated (vs-rebuild >= 2x smoke on c1908 / >= 3x full on c7552;
    // vs-PR4-rebuild >= 3.5x smoke / >= 7.6x full — at least twice the
    // 3.8x PR 4 recorded on this container against the same rebuild
    // baseline).
    println!("== resynthesis scoring: patch vs rebuild ==");
    let rs_name = if opts.smoke { "c1908" } else { HEADLINE };
    let rs_nl = &netlists[rs_name];
    let rs_lib = Library::generic_1um();
    let rs_cfg = PartitionConfig::paper_default();
    let (_, rep_patch) = iddq_synth::cost_aware(rs_nl, &rs_lib, &rs_cfg);
    let (_, rep_rebuild) = iddq_synth::cost_aware_rebuild(rs_nl, &rs_lib, &rs_cfg);
    let (_, rep_pr4) = iddq_synth::cost_aware_rebuild_reference(rs_nl, &rs_lib, &rs_cfg);
    for (path, rep) in [("rebuild", &rep_rebuild), ("pr4 rebuild", &rep_pr4)] {
        assert_eq!(
            rep_patch.chosen, rep.chosen,
            "patch and {path} scoring must choose the same candidate"
        );
        for (label, a, b) in [
            ("original", rep_patch.original_cost, rep.original_cost),
            ("balanced", rep_patch.balanced_cost, rep.balanced_cost),
            ("chain", rep_patch.chain_cost, rep.chain_cost),
        ] {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label} cost must be bit-identical across patch and {path} scoring"
            );
        }
    }
    let [t_rs_patch, t_rs_rebuild, t_rs_pr4] = secs_per_iter_interleaved(
        window_ms,
        &mut [
            &mut || {
                std::hint::black_box(iddq_synth::cost_aware(rs_nl, &rs_lib, &rs_cfg));
            },
            &mut || {
                std::hint::black_box(iddq_synth::cost_aware_rebuild(rs_nl, &rs_lib, &rs_cfg));
            },
            &mut || {
                std::hint::black_box(iddq_synth::cost_aware_rebuild_reference(
                    rs_nl, &rs_lib, &rs_cfg,
                ));
            },
        ],
    );
    let resynth_speedup = t_rs_rebuild / t_rs_patch;
    let resynth_pr4_speedup = t_rs_pr4 / t_rs_patch;
    let resynth_threshold = if opts.smoke { 2.0 } else { 3.0 };
    let resynth_pr4_threshold = if opts.smoke { 3.5 } else { 7.6 };
    println!(
        "{rs_name:>8}: 3 candidates: patch {t_rs_patch:8.3} s | rebuild {t_rs_rebuild:8.3} s \
         ({resynth_speedup:5.2}x) | pr4 rebuild {t_rs_pr4:8.3} s ({resynth_pr4_speedup:5.2}x), \
         chosen {:?} at identical costs",
        rep_patch.chosen,
    );
    let resynth_patch = serde_json::json!({
        "circuit": rs_name,
        "candidates": 3,
        "patch_secs": t_rs_patch,
        "rebuild_secs": t_rs_rebuild,
        "pr4_rebuild_secs": t_rs_pr4,
        "speedup_vs_rebuild": resynth_speedup,
        "speedup_vs_pr4_rebuild": resynth_pr4_speedup,
        "chosen": format!("{:?}", rep_patch.chosen),
        "costs_match_bitwise": true,
        "acceptance_threshold": resynth_threshold,
        "pr4_acceptance_threshold": resynth_pr4_threshold,
        "pass": resynth_speedup >= resynth_threshold
            && resynth_pr4_speedup >= resynth_pr4_threshold,
    });

    // Parallel fault-sweep throughput (vectors/second through the full
    // activation + detection pipeline). The parallel leg always runs at
    // >= 4 workers so the recorded speedup is the one the acceptance
    // criterion talks about; on machines with fewer cores it degenerates
    // to ~1x and is reported (not gated).
    println!("== IDDQ fault sweep ==");
    let threads = cores.max(4);
    let sweep_circuit = if opts.smoke { "c432" } else { "c1908" };
    let nl = &netlists[sweep_circuit];
    let faults = enumerate(nl, &FaultUniverseConfig::default(), 7);
    let num_vectors = if opts.smoke { 512 } else { 4096 };
    let vectors: Vec<Vec<bool>> = (0..num_vectors)
        .map(|k| {
            (0..nl.num_inputs())
                .map(|i| (k * 37 + i * 11) % 3 == 0)
                .collect()
        })
        .collect();
    let module_of: Vec<u32> = nl
        .node_ids()
        .map(|id| if nl.is_gate(id) { 0 } else { iddq::NO_MODULE })
        .collect();
    // One sane module whose sensor sees every defect current: activated
    // defects drop out, the never-activated rest are checked against
    // every batch.
    let sweep_secs = |threads| {
        let options = iddq::SweepOptions {
            threads,
            ..iddq::SweepOptions::default()
        };
        secs_per_iter(window_ms, || {
            std::hint::black_box(iddq::simulate_with_options(
                nl,
                &faults,
                &vectors,
                &module_of,
                &[0.01],
                1.0,
                &options,
            ));
        })
    };
    let t_seq = sweep_secs(1);
    let t_par = sweep_secs(threads);
    let seq_vps = num_vectors as f64 / t_seq;
    let par_vps = num_vectors as f64 / t_par;
    println!(
        "{sweep_circuit:>8}: {} faults x {num_vectors} vectors: seq {seq_vps:10.3e} vec/s | \
         {threads} threads {par_vps:10.3e} vec/s ({:4.2}x) on {cores} core(s)",
        faults.len(),
        par_vps / seq_vps,
    );

    // Evolution loop wall-clock. The gate rides the ratio against
    // scoring every evaluation with a fresh from-scratch `Evaluated` (the
    // reference constructor every incremental path is differentially
    // tested against). Its per-evaluation cost is measured on the
    // search's own best partition and asserted to reproduce the search's
    // best cost bit-exactly, then scaled by the evaluation count. A
    // second run at `threads = cores` pins the parallel scoring loop to
    // the serial result and records its wall-clock (not gated: the
    // speedup depends on the cores the host has).
    println!("== evolution loop wall-clock ==");
    let evo_circuit = if opts.smoke { "c432" } else { HEADLINE };
    let evo_nl = &netlists[evo_circuit];
    let library = Library::generic_1um();
    let evo_cfg = EvolutionConfig {
        generations: if opts.smoke { 4 } else { 25 },
        stagnation: usize::MAX,
        threads: 1,
        ..EvolutionConfig::default()
    };
    let evo_ctx = EvalContext::new(evo_nl, &library, PartitionConfig::paper_default());
    let start = Instant::now();
    let evo_out = evolution::optimize(&evo_ctx, &evo_cfg, 42);
    let t_inc = start.elapsed().as_secs_f64();
    let (cost_inc, evals) = (evo_out.best_cost, evo_out.evaluations);
    let threaded_cfg = EvolutionConfig {
        threads: cores,
        ..evo_cfg.clone()
    };
    let start = Instant::now();
    let threaded_out = evolution::optimize(&evo_ctx, &threaded_cfg, 42);
    let t_threaded = start.elapsed().as_secs_f64();
    assert_eq!(
        threaded_out.best, evo_out.best,
        "threaded evolution must return the serial best partition"
    );
    assert_eq!(
        threaded_out.best_cost.to_bits(),
        cost_inc.to_bits(),
        "threaded evolution must reproduce the serial best cost bit-exactly"
    );
    assert_eq!(
        threaded_out.evaluations, evals,
        "threaded evolution must score as many descendants as the serial run"
    );
    // Rebuild baseline: a fresh Evaluated per evaluation. Bit-exact
    // against the incremental search's best cost — the two paths score
    // the same partition to the same bits, so the wall-clock ratio is a
    // pure work ratio.
    let rebuild_cost = Evaluated::new(&evo_ctx, evo_out.best.clone()).total_cost();
    assert_eq!(
        rebuild_cost.to_bits(),
        cost_inc.to_bits(),
        "from-scratch Evaluated must reproduce the search's best cost bit-exactly"
    );
    let t_rebuild_eval = secs_per_iter(window_ms, || {
        std::hint::black_box(Evaluated::new(&evo_ctx, evo_out.best.clone()).total_cost());
    });
    let t_rebuild = t_rebuild_eval * evals as f64;
    let evo_rebuild_speedup = t_rebuild / t_inc;
    let evo_threshold = 2.0;
    println!(
        "{evo_circuit:>8}: {evals} evaluations: incremental {t_inc:.3} s | rebuild-per-eval \
         {t_rebuild:.3} s ({evo_rebuild_speedup:.2}x) | {cores} thread(s) {t_threaded:.3} s \
         ({:.2}x, identical result; not gated)",
        t_inc / t_threaded,
    );

    // Million-gate scale: generated mega-circuits swept end-to-end. The
    // default `MegaConfig::with_gates` shape mimics ISCAS depth growth
    // (33 levels at 10^5), which keeps mean level widths *below* the
    // structural partitioner's serial-fallback threshold — so the scale
    // bench pins a flat 16-level shape (6_250 nodes/level at 10^5,
    // 62_500 at 10^6) where the threaded sweep genuinely partitions.
    // Every threaded sweep is asserted bit-identical to serial; the
    // wall-clock of one full serial sweep is asserted under an explicit
    // budget; measured memory (netlist, CSR program, packed values) is
    // recorded; and a row-budgeted *streamed* separation-oracle build
    // shows bounded-memory partial analysis at scale (a complete rho=6
    // oracle at 10^6 gates would need gigabytes — the budget caps rows,
    // the streamed layout caps the transient peak).
    println!("== million-gate scale ==");
    let scale_threads = cores.max(4);
    let scale_sizes: &[usize] = if opts.smoke {
        &[100_000]
    } else {
        &[100_000, 1_000_000]
    };
    let sweep_budget_secs = if opts.smoke { 30.0 } else { 120.0 };
    let scale_rho = 4u32;
    let scale_row_quota: u64 = if opts.smoke { 20_000 } else { 200_000 };
    let mut scale_entries: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut scale_parallel_speedup = 0.0f64;
    let mut scale_budget_ok = true;
    for &gates in scale_sizes {
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let inputs = ((gates as f64).sqrt().round() as usize).max(64);
        let mega_cfg = MegaConfig {
            gates,
            inputs,
            depth: 16,
            seed: 0x5ca1e,
        };
        let t0 = Instant::now();
        let nl = mega::generate(&mega_cfg);
        let t_gen = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let sim = Simulator::new(&nl);
        let t_build = t0.elapsed().as_secs_f64();
        let inputs64: Vec<u64> = (0..nl.num_inputs() as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let mut serial = vec![0u64; sim.node_count()];
        let mut parallel = vec![0u64; sim.node_count()];
        // The acceptance sweep: one full 64-pattern pass, serial, under
        // the wall-clock budget.
        let t0 = Instant::now();
        sim.eval_into(&inputs64, &mut serial);
        let sweep_once = t0.elapsed().as_secs_f64();
        if sweep_once > sweep_budget_secs {
            eprintln!(
                "ERROR: mega{gates} end-to-end sweep took {sweep_once:.2} s, over the \
                 {sweep_budget_secs:.0} s budget"
            );
            scale_budget_ok = false;
        }
        sim.eval_into_threads(&inputs64, &mut parallel, scale_threads);
        assert_eq!(
            serial, parallel,
            "mega{gates}: threaded sweep must be bit-identical to serial"
        );
        let t_serial = secs_per_iter(window_ms, || {
            sim.eval_into(std::hint::black_box(&inputs64), &mut serial);
        });
        let t_par = secs_per_iter(window_ms, || {
            sim.eval_into_threads(
                std::hint::black_box(&inputs64),
                &mut parallel,
                scale_threads,
            );
        });
        let par_speedup = t_serial / t_par;
        scale_parallel_speedup = par_speedup; // largest size wins the gate
        let values_bytes = serial.len() * std::mem::size_of::<u64>();
        // Row-budgeted streamed oracle: bounded memory and wall-clock by
        // construction, partial coverage reported instead of an 8 GB
        // surprise.
        let control = RunControl::with_budget(
            RunBudget::unlimited()
                .with_quota(scale_row_quota)
                .with_timeout(Duration::from_secs(30)),
        );
        let t0 = Instant::now();
        let oracle_outcome = SeparationOracle::new_streamed_with_control(&nl, scale_rho, &control);
        let t_oracle = t0.elapsed().as_secs_f64();
        let oracle_complete = oracle_outcome.is_complete();
        let oracle_coverage = oracle_outcome.coverage();
        let oracle = oracle_outcome.into_value();
        println!(
            "mega{gates:>8}: gen {t_gen:6.2} s | csr build {t_build:6.2} s | sweep \
             {:8.1} ms (budget {sweep_budget_secs:.0} s) | x{scale_threads} threads \
             {:8.1} ms ({par_speedup:4.2}x) on {cores} core(s) | netlist {:7.1} MB, \
             csr {:6.1} MB, values {:5.1} MB | oracle rho={scale_rho}: {:.0}% of rows, \
             {} entries, {:5.1} MB in {t_oracle:5.2} s",
            t_serial * 1e3,
            t_par * 1e3,
            nl.memory_bytes() as f64 / 1e6,
            sim.memory_bytes() as f64 / 1e6,
            values_bytes as f64 / 1e6,
            oracle_coverage * 100.0,
            oracle.entry_count(),
            oracle.memory_bytes() as f64 / 1e6,
        );
        let oracle_entry = serde_json::json!({
            "rho": scale_rho,
            "row_quota": scale_row_quota,
            "complete": oracle_complete,
            "coverage": oracle_coverage,
            "entries": oracle.entry_count(),
            "memory_bytes": oracle.memory_bytes(),
            "build_secs": t_oracle,
        });
        scale_entries.insert(
            format!("mega{gates}"),
            serde_json::json!({
                "gates": gates,
                "inputs": inputs,
                "depth": mega_cfg.depth,
                "nodes": nl.node_count(),
                "generate_secs": t_gen,
                "csr_build_secs": t_build,
                "sweep_secs": t_serial,
                "sweep_once_secs": sweep_once,
                "sweep_within_budget": sweep_once <= sweep_budget_secs,
                "parallel_secs": t_par,
                "parallel_speedup_vs_serial": par_speedup,
                "parallel_bit_identical": true,
                "netlist_bytes": nl.memory_bytes(),
                "csr_bytes": sim.memory_bytes(),
                "packed_values_bytes": values_bytes,
                "oracle": oracle_entry,
            }),
        );
    }

    // Incremental ΔW separation maintenance: the c7552 probe. One
    // representative resynthesis probe (chain-decomposing the widest
    // gate) applied and rolled back on a persistent GateSep-tier
    // ResynthEval — incremental ΔW (`ResynthEval::new`) against the
    // retained full ball-refresh reference (`new_full_refresh`), scored
    // costs asserted bit-identical, wall-clock gated >= 2x in both
    // modes (a work ratio, like the delta/fault-patch gates).
    println!("== incremental dW separation maintenance ==");
    let dw_nl = &netlists[HEADLINE];
    let dw_ctx = EvalContext::builder(dw_nl, &ctx_lib, ctx_cfg.clone())
        .tier(AnalysisTier::GateSep)
        .build();
    let widest = dw_nl
        .gate_ids()
        .max_by_key(|&g| dw_nl.node(g).fanin().len())
        .expect("c7552 has gates");
    #[allow(clippy::cast_possible_truncation)]
    let probe = iddq_synth::decompose_gate_patch(
        dw_nl,
        widest,
        iddq_synth::DecompositionStyle::Chain,
        2,
        dw_nl.node_count() as u32,
    )
    .expect("max_fanin 2 is valid")
    .expect("the widest c7552 gate is wider than 2 inputs");
    let mut dw_inc = ResynthEval::new(&dw_ctx);
    let mut dw_full = ResynthEval::new_full_refresh(&dw_ctx);
    dw_inc.apply(&probe).expect("probe patch applies");
    dw_full.apply(&probe).expect("probe patch applies");
    let (c_inc, c_full) = (dw_inc.total_cost(), dw_full.total_cost());
    assert_eq!(
        c_inc.to_bits(),
        c_full.to_bits(),
        "incremental-dW and full-refresh scoring must be bit-identical"
    );
    dw_inc.rollback();
    dw_full.rollback();
    let [t_dw_inc, t_dw_full] = secs_per_iter_interleaved(
        window_ms,
        &mut [
            &mut || {
                dw_inc.apply(&probe).expect("probe patch applies");
                dw_inc.rollback();
            },
            &mut || {
                dw_full.apply(&probe).expect("probe patch applies");
                dw_full.rollback();
            },
        ],
    );
    // The timed loop never flushes a deferred row edit; any edit that
    // leaked into the rows anyway fails the consistency check here.
    dw_inc.verify_consistency();
    let dw_speedup = t_dw_full / t_dw_inc;
    let dw_threshold = 2.0;
    println!(
        "{HEADLINE:>8}: probe refresh (apply+rollback): dW {:8.3} ms | full separation pass \
         {:8.3} ms ({dw_speedup:5.2}x), costs bit-identical",
        t_dw_inc * 1e3,
        t_dw_full * 1e3,
    );
    let dw_probe = serde_json::json!({
        "circuit": HEADLINE,
        "incremental_secs": t_dw_inc,
        "full_refresh_secs": t_dw_full,
        "speedup_vs_full_refresh": dw_speedup,
        "costs_match_bitwise": true,
        "acceptance_threshold": dw_threshold,
        "pass": dw_speedup >= dw_threshold,
    });
    // Sequential circuits: the multi-frame fault sweep on ISCAS-89-like
    // s* profiles. Every grid configuration (worker threads, fault
    // shards, the delta-patch backend) is asserted to produce the same
    // per-fault earliest detection as the serial CSR sweep — the frame
    // loop must not perturb the bit-identity contract the combinational
    // sweep has always carried. The pass gate is correctness, not
    // wall-clock: some fault must be first detected mid-sequence (a
    // detection the frames=1 reading of the same vectors cannot express),
    // proving the state actually propagates across frame boundaries.
    println!("== sequential circuits: multi-frame fault sweep ==");
    let seq_frames: usize = 3;
    let seq_names: &[&str] = if opts.smoke {
        &["s298"]
    } else {
        &["s298", "s1423"]
    };
    let seq_num_vectors = if opts.smoke { 240 } else { 1200 };
    let mut seq_entries: BTreeMap<String, serde_json::Value> = BTreeMap::new();
    let mut seq_pass = true;
    for name in seq_names {
        let profile = iddq_gen::seq::SeqProfile::by_name(name).expect("known s* profile");
        let nl = iddq_gen::seq::generate(profile, 7);
        let seq_faults = iddq_serve::fault_universe(&nl, 32, 7);
        let seq_vectors = iddq_serve::random_vectors(&nl, seq_num_vectors, 7);
        let base_opts = FaultSweepOptions {
            threads: 1,
            frames: seq_frames,
            ..FaultSweepOptions::default()
        };
        let base = fault_sweep::sweep::<W256>(&nl, &seq_faults, &seq_vectors, &base_opts);
        for (label, grid) in [
            (
                "threads",
                FaultSweepOptions {
                    threads: scale_threads,
                    frames: seq_frames,
                    ..FaultSweepOptions::default()
                },
            ),
            (
                "shards",
                FaultSweepOptions {
                    threads: 1,
                    fault_shards: 3,
                    frames: seq_frames,
                    ..FaultSweepOptions::default()
                },
            ),
            (
                "delta",
                FaultSweepOptions {
                    threads: 1,
                    backend: BackendKind::Delta,
                    frames: seq_frames,
                    ..FaultSweepOptions::default()
                },
            ),
        ] {
            let alt = fault_sweep::sweep::<W256>(&nl, &seq_faults, &seq_vectors, &grid);
            assert_eq!(
                base.first_detection, alt.first_detection,
                "{name}: the {label} grid must detect bit-identically to the serial sweep"
            );
        }
        // The combinational lens: the same vector set read frames=1. Any
        // fault the multi-frame sweep first detects mid-sequence owes
        // that detection to latched state.
        let comb_opts = FaultSweepOptions {
            threads: 1,
            frames: 1,
            ..FaultSweepOptions::default()
        };
        let comb = fault_sweep::sweep::<W256>(&nl, &seq_faults, &seq_vectors, &comb_opts);
        let mid_sequence = base
            .first_detection
            .iter()
            .flatten()
            .filter(|&&v| v % seq_frames > 0)
            .count();
        let detected = base.detected.iter().filter(|&&d| d).count();
        let t_sweep = secs_per_iter(window_ms, || {
            std::hint::black_box(fault_sweep::sweep::<W256>(
                &nl,
                &seq_faults,
                &seq_vectors,
                &base_opts,
            ));
        });
        let seq_vps = seq_num_vectors as f64 / t_sweep;
        let ok = detected > 0 && mid_sequence > 0;
        seq_pass &= ok;
        println!(
            "{name:>8}: {} dffs, {} faults x {seq_num_vectors} vectors @ {seq_frames} frames: \
             {detected} detected ({:.1}%), {mid_sequence} first-detected mid-sequence | \
             frames=1 lens {:.1}% | {seq_vps:10.3e} vec/s | grids bit-identical",
            nl.num_state_elements(),
            seq_faults.len(),
            base.coverage * 100.0,
            comb.coverage * 100.0,
        );
        seq_entries.insert(
            (*name).to_string(),
            serde_json::json!({
                "gates": nl.gate_count(),
                "dffs": nl.num_state_elements(),
                "faults": seq_faults.len(),
                "vectors": seq_num_vectors,
                "frames": seq_frames,
                "detected": detected,
                "coverage": base.coverage,
                "frames1_coverage": comb.coverage,
                "mid_sequence_first_detections": mid_sequence,
                "vectors_per_sec": seq_vps,
                "grid_bit_identical": true,
                "pass": ok,
            }),
        );
    }
    let seq = serde_json::json!({
        "circuits": seq_entries,
        "frames": seq_frames,
        "acceptance": "all grids bit-identical; >= 1 fault first detected mid-sequence",
        "pass": seq_pass,
    });

    // `iddq serve` under concurrent clients: an in-process server with a
    // deliberately small queue and a tiny artifact cache takes a mixed
    // workload from several client threads. Sustained qps and p50/p99
    // round-trip latency are measured over the nominal phase; then a
    // pipelined sleep burst overruns the queue to exercise admission
    // shed, and a Separation-tier stats request against the tiny cache
    // exercises graceful degradation. The gates are correctness counts,
    // not wall-clock (a 1-core shared runner makes latency gates flaky):
    // every request gets exactly one response, shed >= 1, degraded >= 1.
    println!("== serve: hardened service under concurrent clients ==");
    let serve_state = std::env::temp_dir().join(format!("iddq-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_state);
    let serve_server = ServeServer::start(ServeConfig {
        workers: 2,
        queue_capacity: 4,
        cache_bytes: 4096,
        state_dir: serve_state.clone(),
        ..ServeConfig::default()
    })
    .expect("serve bench server starts");
    let serve_addr = serve_server.local_addr().to_string();
    let serve_clients: u64 = 4;
    let serve_reqs_per_client: u64 = if opts.smoke { 12 } else { 48 };
    let mut serve_errors: Vec<String> = Vec::new();
    let t0 = Instant::now();
    let mut serve_handles = Vec::new();
    for c in 0..serve_clients {
        let addr = serve_addr.clone();
        let per = serve_reqs_per_client;
        serve_handles.push(std::thread::spawn(move || -> Result<Vec<f64>, String> {
            let mut client = ServeClient::connect(&addr).map_err(|e| e.to_string())?;
            client
                .set_read_timeout(Some(Duration::from_secs(120)))
                .map_err(|e| e.to_string())?;
            let mut latencies = Vec::with_capacity(per as usize);
            for k in 0..per {
                let id = c * 10_000 + k;
                let req = match k % 4 {
                    0 => serde_json::json!({"id": id, "op": "ping"}),
                    1 => serde_json::json!({
                        "id": id, "op": "sim", "circuit": "c432", "patterns": 256,
                    }),
                    2 => serde_json::json!({
                        "id": id, "op": "stats", "circuit": "c432", "tier": "separation",
                    }),
                    _ => serde_json::json!({
                        "id": id, "op": "faults", "circuit": "c432", "vectors": 16,
                    }),
                };
                let start = Instant::now();
                let resp = client.call(&req).map_err(|e| e.to_string())?;
                latencies.push(start.elapsed().as_secs_f64());
                if resp["id"].as_u64() != Some(id) {
                    return Err(format!("response id mismatch: {resp:?}"));
                }
                let status = resp["status"].as_str().unwrap_or("");
                // Synchronous clients never overrun the queue, so the
                // nominal phase must not be shed or rejected.
                if !matches!(status, "ok" | "partial") {
                    return Err(format!("unexpected status under nominal load: {resp:?}"));
                }
            }
            Ok(latencies)
        }));
    }
    let mut serve_latencies: Vec<f64> = Vec::new();
    for h in serve_handles {
        match h.join().expect("serve client thread") {
            Ok(mut l) => serve_latencies.append(&mut l),
            Err(e) => serve_errors.push(e),
        }
    }
    let serve_wall = t0.elapsed().as_secs_f64().max(1e-9);
    let serve_qps = serve_latencies.len() as f64 / serve_wall;
    serve_latencies.sort_by(f64::total_cmp);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let serve_pct = |q: f64| -> f64 {
        if serve_latencies.is_empty() {
            return 0.0;
        }
        let idx = ((serve_latencies.len() - 1) as f64 * q).round() as usize;
        serve_latencies[idx]
    };
    let (serve_p50, serve_p99) = (serve_pct(0.50), serve_pct(0.99));
    // Overload burst: one client pipelines more slow jobs than workers +
    // queue can hold; the overflow must come back as typed `overloaded`
    // responses (with a retry hint), never as dropped lines.
    let serve_burst: u64 = 12;
    let mut serve_burst_ok = 0u64;
    let mut serve_burst_shed = 0u64;
    let mut serve_burst_lost = 0u64;
    {
        let mut client = ServeClient::connect(&serve_addr).expect("burst client connects");
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("burst read timeout");
        for i in 0..serve_burst {
            client
                .send_value(&serde_json::json!({
                    "id": i, "op": "sleep", "sleep_ms": 40,
                }))
                .expect("burst send");
        }
        for _ in 0..serve_burst {
            match client.recv() {
                Ok(Some(resp)) => match resp["status"].as_str().unwrap_or("") {
                    "ok" => serve_burst_ok += 1,
                    "overloaded" => {
                        serve_burst_shed += 1;
                        if resp["retry_after_ms"].as_u64().is_none() {
                            serve_errors
                                .push(format!("overloaded without retry_after_ms: {resp:?}"));
                        }
                    }
                    other => serve_errors.push(format!("burst status {other}: {resp:?}")),
                },
                _ => serve_burst_lost += 1,
            }
        }
    }
    let serve_metrics = serve_server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&serve_state);
    let serve_shed = serve_metrics["shed"].as_u64().unwrap_or(0);
    let serve_degraded = serve_metrics["degraded"].as_u64().unwrap_or(0);
    let serve_nominal = serve_clients * serve_reqs_per_client;
    if serve_latencies.len() as u64 != serve_nominal {
        serve_errors.push(format!(
            "nominal phase answered {} of {serve_nominal} requests",
            serve_latencies.len()
        ));
    }
    if serve_burst_lost > 0 {
        serve_errors.push(format!("burst lost {serve_burst_lost} responses"));
    }
    if serve_shed == 0 {
        serve_errors.push("admission control never shed under the burst".to_owned());
    }
    if serve_degraded == 0 {
        serve_errors.push("stats never degraded against the tiny cache".to_owned());
    }
    let serve_pass = serve_errors.is_empty();
    println!(
        "   serve: {serve_clients} clients x {serve_reqs_per_client} reqs: {serve_qps:7.1} req/s \
         sustained | p50 {:6.2} ms, p99 {:6.2} ms | burst {serve_burst}: {serve_burst_ok} ok, \
         {serve_burst_shed} shed, {serve_burst_lost} lost | shed {serve_shed}, degraded \
         {serve_degraded} | pass: {serve_pass}",
        serve_p50 * 1e3,
        serve_p99 * 1e3,
    );
    let serve = serde_json::json!({
        "clients": serve_clients,
        "requests_per_client": serve_reqs_per_client,
        "nominal_requests": serve_nominal,
        "nominal_responses": serve_latencies.len(),
        "sustained_qps": serve_qps,
        "p50_latency_ms": serve_p50 * 1e3,
        "p99_latency_ms": serve_p99 * 1e3,
        "burst_requests": serve_burst,
        "burst_ok": serve_burst_ok,
        "burst_overloaded": serve_burst_shed,
        "burst_lost": serve_burst_lost,
        "metrics": serve_metrics,
        "acceptance": "every request answered exactly once; shed >= 1; degraded >= 1",
        "errors": serve_errors.clone(),
        "pass": serve_pass,
    });

    let scale = serde_json::json!({
        "mega": scale_entries,
        "sweep_budget_secs": sweep_budget_secs,
        "sweep_within_budget": scale_budget_ok,
        "parallel_threads": scale_threads,
        "parallel_speedup_vs_serial": scale_parallel_speedup,
        "parallel_gate": if cores >= 4 { "ARMED" } else { "SKIPPED" },
        "parallel_gate_cores": cores,
        "dw_probe": dw_probe,
    });

    let headline = serde_json::json!({
        "circuit": HEADLINE,
        "csr256_speedup_vs_seed": headline_speedup,
        "acceptance_threshold": 3.0,
        "pass": headline_speedup >= 3.0,
    });
    let delta_threshold = if opts.smoke { 3.0 } else { 5.0 };
    let delta_headline = serde_json::json!({
        "circuit": HEADLINE,
        "speedup_vs_full_reeval": delta_headline_speedup,
        "acceptance_threshold": delta_threshold,
        "pass": delta_headline_speedup >= delta_threshold,
    });
    let delta = serde_json::json!({
        "circuits": delta_entries,
        "headline": delta_headline,
    });
    let evolution_entry = serde_json::json!({
        "circuit": evo_circuit,
        "generations": evo_cfg.generations,
        "evaluations": evals,
        "incremental_secs": t_inc,
        "rebuild_per_eval_secs": t_rebuild,
        "rebuild_cost_matches_bitwise": true,
        "speedup_vs_rebuild": evo_rebuild_speedup,
        "acceptance_threshold": evo_threshold,
        "pass": evo_rebuild_speedup >= evo_threshold,
        "threads": cores,
        "threaded_secs": t_threaded,
    });
    let fault_sweep_speedup = par_vps / seq_vps;
    let fault_sweep = serde_json::json!({
        "circuit": sweep_circuit,
        "faults": faults.len(),
        "vectors": num_vectors,
        "cores": cores,
        "threads": threads,
        "seq_vectors_per_sec": seq_vps,
        "par_vectors_per_sec": par_vps,
        "parallel_speedup": fault_sweep_speedup,
        "parallel_gate": if cores >= 4 { "ARMED" } else { "SKIPPED" },
        "parallel_gate_cores": cores,
    });
    let payload = serde_json::json!({
        "mode": mode,
        "headline": headline,
        "circuits": circuits,
        "delta": delta,
        "evolution": evolution_entry,
        "fault_sweep": fault_sweep,
        "fault_patch": fault_patch,
        "context_build": context_build,
        "resynth_patch": resynth_patch,
        "scale": scale,
        "seq": seq,
        "serve": serve,
    });
    // Atomic temp-file + rename: a crash mid-write can never leave a
    // truncated BENCH_sim.json behind for downstream tooling to choke on.
    iddq_control::write_atomic(
        std::path::Path::new(&opts.out),
        &serde_json::to_string_pretty(&payload).expect("serializable"),
    )
    .expect("writable output path");
    println!("wrote {}", opts.out);
    let mut failed = false;
    if headline_speedup < 3.0 {
        eprintln!(
            "WARNING: {HEADLINE} csr256 speedup {headline_speedup:.2}x is below the 3x target"
        );
        // Only full mode gates on this ratio: smoke's short windows are
        // too noisy to fail CI over on a loaded runner.
        failed |= !opts.smoke;
    }
    if delta_headline_speedup < delta_threshold {
        eprintln!(
            "ERROR: {HEADLINE} delta single-gate-mutation speedup {delta_headline_speedup:.2}x \
             is below the {delta_threshold}x gate"
        );
        // The dirty-cone/full-sweep ratio is a work ratio, far less
        // noise-sensitive than absolute rates: smoke gates on it too.
        failed = true;
    }
    if fault_patch_speedup < fault_patch_threshold {
        eprintln!(
            "ERROR: {HEADLINE} fault-patch speedup {fault_patch_speedup:.2}x is below the \
             {fault_patch_threshold}x gate vs per-fault full re-simulation"
        );
        // Like the delta gate, this is a work ratio: smoke gates on it too
        // (at the lower 3x threshold).
        failed = true;
    }
    if resynth_speedup < resynth_threshold {
        eprintln!(
            "ERROR: {rs_name} resynthesis patch-scoring speedup {resynth_speedup:.2}x is below \
             the {resynth_threshold}x gate vs rebuild scoring"
        );
        // A work ratio like the delta/fault-patch gates: smoke gates too
        // (at the lower 2x threshold).
        failed = true;
    }
    if resynth_pr4_speedup < resynth_pr4_threshold {
        eprintln!(
            "ERROR: {rs_name} resynthesis patch-scoring speedup {resynth_pr4_speedup:.2}x vs the \
             PR 4 rebuild path is below the {resynth_pr4_threshold}x gate (PR 4 recorded 3.8x on \
             this baseline; the lighter context must at least double it)"
        );
        failed = true;
    }
    {
        let ctx_name = if opts.smoke { "c1908" } else { HEADLINE };
        if ctx_headline_speedup < ctx_build_threshold {
            eprintln!(
                "ERROR: {ctx_name} full-tier context build speedup {ctx_headline_speedup:.2}x vs \
                 the PR 4 constructor is below the {ctx_build_threshold}x gate"
            );
            failed = true;
        }
        // The parallel-build gate mirrors the fault-sweep one: announced
        // as ARMED/SKIPPED so a 1-core container says why nothing fires.
        if cores >= 4 {
            println!(
                "context-build parallel gate ARMED ({cores} cores >= 4): measured \
                 {ctx_parallel_speedup:.2}x at {ctx_threads} threads against the 1.5x gate"
            );
            if ctx_parallel_speedup < 1.5 {
                let severity = if opts.smoke { "WARNING" } else { "ERROR" };
                eprintln!(
                    "{severity}: {ctx_name} parallel context build speedup \
                     {ctx_parallel_speedup:.2}x at {ctx_threads} threads is below the 1.5x gate"
                );
                failed |= !opts.smoke;
            }
        } else {
            println!(
                "context-build parallel gate SKIPPED: {cores} core(s) available, gate arms at \
                 >= 4 cores; measured {ctx_parallel_speedup:.2}x at {ctx_threads} threads is \
                 recorded in BENCH_sim.json, not gated"
            );
        }
    }
    if evo_rebuild_speedup < evo_threshold {
        eprintln!(
            "ERROR: {evo_circuit} evolution incremental-vs-rebuild speedup \
             {evo_rebuild_speedup:.2}x is below the {evo_threshold}x gate (rebuild arm = fresh \
             Evaluated per evaluation, bit-exact against the search's best cost)"
        );
        // A work ratio like the delta/fault-patch gates: smoke gates too.
        failed = true;
    }
    if dw_speedup < dw_threshold {
        eprintln!(
            "ERROR: {HEADLINE} incremental-dW probe-refresh speedup {dw_speedup:.2}x is below \
             the {dw_threshold}x gate vs the full separation pass"
        );
        // Also a work ratio between two deterministic refresh paths.
        failed = true;
    }
    if !scale_budget_ok {
        eprintln!("ERROR: a mega-circuit end-to-end sweep exceeded its wall-clock budget");
        failed = true;
    }
    if !serve_pass {
        // Correctness counts, not wall-clock: these gate in smoke too.
        for e in &serve_errors {
            eprintln!("ERROR: serve section: {e}");
        }
        failed = true;
    }
    if !seq_pass {
        // Correctness, not wall-clock: the multi-frame sweep must detect
        // something only latched state can explain. Gates in smoke too.
        eprintln!(
            "ERROR: seq section: no mid-sequence first detection — the frame loop is not \
             propagating state across frame boundaries"
        );
        failed = true;
    }
    // Structural-parallel sweep gate: same ARMED/SKIPPED discipline as
    // the fault-sweep and context-build gates.
    if cores >= 4 {
        println!(
            "structural-parallel sweep gate ARMED ({cores} cores >= 4): measured \
             {scale_parallel_speedup:.2}x at {scale_threads} threads against the 1.5x gate"
        );
        if scale_parallel_speedup < 1.5 {
            let severity = if opts.smoke { "WARNING" } else { "ERROR" };
            eprintln!(
                "{severity}: structural-parallel mega-circuit sweep speedup \
                 {scale_parallel_speedup:.2}x at {scale_threads} threads is below the 1.5x gate"
            );
            failed |= !opts.smoke;
        }
    } else {
        println!(
            "structural-parallel sweep gate SKIPPED: {cores} core(s) available, gate arms at \
             >= 4 cores; measured {scale_parallel_speedup:.2}x at {scale_threads} threads is \
             recorded in BENCH_sim.json, not gated (bit-identity asserted regardless)"
        );
    }
    // The parallel gate's armed/skipped state is always announced — a
    // 1-core container must say *why* nothing is gated instead of
    // silently arming at >= 4 cores.
    if cores >= 4 {
        println!(
            "fault-sweep parallel gate ARMED ({cores} cores >= 4): measured \
             {fault_sweep_speedup:.2}x at {threads} threads against the 1.5x gate"
        );
        if fault_sweep_speedup < 1.5 {
            // Parallel scaling is only meaningful with real cores; gate in
            // full mode where the windows are long enough to trust.
            let severity = if opts.smoke { "WARNING" } else { "ERROR" };
            eprintln!(
                "{severity}: fault-sweep parallel speedup {fault_sweep_speedup:.2}x at {threads} \
                 threads is below the 1.5x gate ({cores} cores available)"
            );
            failed |= !opts.smoke;
        }
    } else {
        println!(
            "fault-sweep parallel gate SKIPPED: {cores} core(s) available, gate arms at >= 4 \
             cores; measured {fault_sweep_speedup:.2}x at {threads} threads is recorded in \
             BENCH_sim.json, not gated"
        );
    }
    if failed {
        std::process::exit(1);
    }
}
