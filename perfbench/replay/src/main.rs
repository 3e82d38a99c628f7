//! In-process replay of the benchmark's operations.
//!
//! `perfbench/run.py` times the shipped `iddq` binary and the `iddq serve`
//! wire with tracing off. This program replays the same operations
//! through the public library calls the CLI and the server make, in the
//! same order and with the same configuration, and records one span per
//! layer call plus the work counts those calls return. It also computes
//! the outputs the driver checks the CLI and the daemon against. Spans
//! are kept in memory and printed, with everything else, as one JSON
//! object on stdout when the replay ends.
//!
//! ```text
//! perfbench-replay paper-flow  <netlist.bench> <seed>
//! perfbench-replay fault-sweep <netlist.bench> <vectors> [--oracle]
//! perfbench-replay resynth     <netlist.bench> <seed>
//! perfbench-replay serve       <requests.json> [--layers]
//! ```

use std::path::Path;
use std::time::Instant;

use iddq_celllib::Library;
use iddq_control::RunControl;
use iddq_core::evolution::EvolutionConfig;
use iddq_core::{config::PartitionConfig, flow, plan_tier, AnalysisTier, EvalContext, TierBudget};
use iddq_logicsim::fault_sweep::{sweep_with_control, FaultSweepOptions, FaultSweepOutcome};
use iddq_logicsim::{BackendKind, Simulator};
use iddq_netlist::{bench, Netlist, W256};
use iddq_serve::{
    detection_digest, fault_universe, random_vectors, server_sweep_options, Artifacts,
};
use serde_json::{json, Value};

const USAGE: &str = "usage: perfbench-replay paper-flow <netlist.bench> <seed>
       perfbench-replay fault-sweep <netlist.bench> <vectors> [--oracle]
       perfbench-replay resynth <netlist.bench> <seed>
       perfbench-replay serve <requests.json> [--layers]";

/// `iddq serve` defaults the serve replay reproduces: separation bound ρ
/// and the artifact-cache ceiling that feeds tier planning.
const SERVE_RHO: u32 = 6;
const SERVE_CACHE_BYTES: usize = 64 << 20;

/// One timed call. Spans of one replayed operation share `op`; `parent`
/// is the index of the span that caused this one.
struct Span {
    name: String,
    op: usize,
    parent: Option<usize>,
    start_ms: f64,
    end_ms: f64,
}

/// In-memory span recorder, written out once when the replay ends.
struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Opens the root span of operation `op`.
    fn open(&mut self, name: &str, op: usize) -> usize {
        let now = self.now_ms();
        self.spans.push(Span {
            name: name.to_owned(),
            op,
            parent: None,
            start_ms: now,
            end_ms: now,
        });
        self.spans.len() - 1
    }

    /// Closes a root span; returns its duration in milliseconds.
    fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ms();
        let span = &mut self.spans[id];
        span.end_ms = now;
        span.end_ms - span.start_ms
    }

    /// Runs `f` as a child span of `parent`; returns its value and its
    /// duration in milliseconds.
    fn stage<T>(&mut self, parent: usize, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let start_ms = self.now_ms();
        let value = f();
        let end_ms = self.now_ms();
        self.spans.push(Span {
            name: name.to_owned(),
            op: self.spans[parent].op,
            parent: Some(parent),
            start_ms,
            end_ms,
        });
        (value, end_ms - start_ms)
    }

    fn to_value(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name,
                        "op": s.op,
                        "parent": s.parent,
                        "start_ms": s.start_ms,
                        "end_ms": s.end_ms,
                    })
                })
                .collect(),
        )
    }
}

/// Reads and parses a `.bench` file the way the CLI does: the circuit is
/// named after the file stem.
fn load(path: &str) -> Netlist {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"));
    let name = Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist")
        .to_owned();
    bench::parse(name, &text).unwrap_or_else(|e| panic!("parse `{path}`: {e}"))
}

/// A named synthetic circuit, as `iddq gen` and the server build it.
fn generate(name: &str, seed: u64) -> Netlist {
    if let Some(profile) = iddq_gen::iscas::IscasProfile::by_name(name) {
        iddq_gen::iscas::generate(profile, seed)
    } else if let Some(profile) = iddq_gen::seq::SeqProfile::by_name(name) {
        iddq_gen::seq::generate(profile, seed)
    } else {
        panic!("unknown circuit `{name}`")
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

/// Runs `f` `times` times; returns the last value and the median time in
/// milliseconds.
fn timed_median<T>(times: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut samples = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times {
        let start = Instant::now();
        last = Some(f());
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    (last.expect("at least one repetition"), median(samples))
}

fn detected(outcome: &FaultSweepOutcome) -> usize {
    outcome.detected.iter().filter(|&&d| d).count()
}

/// `iddq test <netlist> --seed <seed>` at one frame, call for call.
fn paper_flow(path: &str, seed: u64) -> Value {
    let mut trace = Trace::new();
    let op = trace.open("paper_flow", 0);
    let (cut, parse_ms) = trace.stage(op, "netlist.parse", || load(path));
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();
    let (ctx, context_ms) = trace.stage(op, "core.context(separation)", || {
        EvalContext::builder(&cut, &library, config.clone()).build()
    });
    let (faults, universe_ms) = trace.stage(op, "logicsim.universe", || {
        iddq_logicsim::faults::enumerate_with(
            &cut,
            &iddq_logicsim::faults::FaultUniverseConfig::default(),
            seed,
            ctx.try_separation(),
        )
    });
    let (tests, atpg_ms) = trace.stage(op, "atpg.generate", || {
        iddq_atpg::generate_seq(&cut, &faults, &iddq_atpg::AtpgConfig::default(), seed, 1)
            .expect("one frame never unrolls")
    });
    let evo = EvolutionConfig {
        generations: 60,
        stagnation: 25,
        ..Default::default()
    };
    let (result, evolution_ms) = trace.stage(op, "core.evolution", || {
        flow::synthesize_in(&ctx, &evo, seed)
    });
    let leaks: Vec<f64> = result
        .report
        .modules
        .iter()
        .map(|m| m.leakage_na / 1000.0)
        .collect();
    let (sim, iddq_ms) = trace.stage(op, "logicsim.iddq_sim", || {
        iddq_logicsim::iddq::simulate_with_options(
            &cut,
            &faults,
            &tests.vectors,
            result.partition.assignment(),
            &leaks,
            library.technology().iddq_threshold_ua,
            &iddq_logicsim::iddq::SweepOptions {
                frames: 1,
                ..Default::default()
            },
        )
    });
    let wall_ms = trace.close(op);
    let line = format!(
        "{}: {} defects, {} vectors, coverage {:.1}% under {} BIC sensors",
        cut.name(),
        faults.len(),
        tests.vectors.len(),
        sim.coverage * 100.0,
        leaks.len()
    );
    json!({
        "spans": trace.to_value(),
        "wall_ms": wall_ms,
        "line": line,
        "feasible": result.report.feasible,
        "layers": json!({
            "netlist.parse_ms": parse_ms,
            "core.context_ms": context_ms,
            "logicsim.universe_ms": universe_ms,
            "atpg.generate_ms": atpg_ms,
            "atpg.vectors": tests.vectors.len(),
            "core.evolution_ms": evolution_ms,
            "core.evaluations": result.evaluations,
            "core.evals_per_s": result.evaluations as f64 / (evolution_ms / 1e3),
            "logicsim.iddq_sim_ms": iddq_ms,
            "iddq_coverage_pct": sim.coverage * 100.0,
            "partition_cost": result.report.total_cost,
        }),
    })
}

/// `iddq faults <netlist> --vectors <n>` at the CLI defaults: seed 42, 32
/// bridges, the delta (fault-patch) backend, 256 lanes, one thread,
/// dropping on. With `oracle`, the same sweep is re-run on the per-fault
/// CSR re-simulation oracle (on every core; detections are
/// thread-invariant) and the two earliest-detection tables compared.
fn fault_sweep(path: &str, vectors: usize, oracle: bool) -> Value {
    const SEED: u64 = 42;
    const BRIDGES: usize = 32;
    let mut trace = Trace::new();
    let op = trace.open("fault_sweep", 0);
    let (cut, parse_ms) = trace.stage(op, "netlist.parse", || load(path));
    let (faults, universe_ms) = trace.stage(op, "logicsim.universe", || {
        fault_universe(&cut, BRIDGES, SEED)
    });
    let (vecs, _) = trace.stage(op, "logicsim.vectors", || {
        random_vectors(&cut, vectors, SEED)
    });
    let options = FaultSweepOptions {
        threads: 1,
        backend: BackendKind::Delta,
        ..FaultSweepOptions::default()
    };
    let (outcome, sweep_ms) = trace.stage(op, "logicsim.sweep", || {
        sweep_with_control::<W256>(&cut, &faults, &vecs, &options, &RunControl::unlimited())
            .into_value()
    });
    let wall_ms = trace.close(op);
    let oracle_match = oracle.then(|| {
        let csr = FaultSweepOptions {
            threads: 0,
            backend: BackendKind::Csr,
            ..options.clone()
        };
        let reference =
            sweep_with_control::<W256>(&cut, &faults, &vecs, &csr, &RunControl::unlimited())
                .into_value();
        reference.first_detection == outcome.first_detection
    });
    let stuck_at = faults
        .iter()
        .filter(|f| matches!(f, iddq_logicsim::fault_sweep::LogicFault::StuckAt(_)))
        .count();
    json!({
        "spans": trace.to_value(),
        "wall_ms": wall_ms,
        "stuck_at": stuck_at,
        "bridges": faults.len() - stuck_at,
        "vectors": vecs.len(),
        "detected": detected(&outcome),
        "oracle_match": oracle_match,
        "layers": json!({
            "netlist.parse_ms": parse_ms,
            "logicsim.universe_ms": universe_ms,
            "logicsim.sweep_ms": sweep_ms,
            "logicsim.fault_patterns_per_s":
                (faults.len() * vecs.len()) as f64 / (sweep_ms / 1e3),
            "logicsim.dirty_frac": outcome.mean_dirty_nodes / cut.node_count() as f64,
            "logicsim.detected": detected(&outcome),
            "fault_coverage_pct": outcome.coverage * 100.0,
        }),
    })
}

/// `iddq synth <netlist> --resynth --per-gate --seed <seed> --json`, call
/// for call: a GateSep context for the per-gate search, then the full
/// flow (`flow::synthesize_with`, split into its context build and
/// evolution) on the resynthesized circuit.
fn resynth(path: &str, seed: u64) -> Value {
    let mut trace = Trace::new();
    let op = trace.open("resynth_seq", 0);
    let (cut, parse_ms) = trace.stage(op, "netlist.parse", || load(path));
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();
    let (ctx, gatesep_ms) = trace.stage(op, "core.context(gatesep)", || {
        EvalContext::builder(&cut, &library, config.clone())
            .tier(AnalysisTier::GateSep)
            .build()
    });
    let ((resynthesized, report), search_ms) = trace.stage(op, "synth.search", || {
        iddq_synth::cost_aware_per_gate_in(&ctx)
    });
    drop(ctx);
    let evo = EvolutionConfig {
        generations: 250,
        ..Default::default()
    };
    let (full, separation_ms) = trace.stage(op, "core.context(separation)", || {
        EvalContext::builder(&resynthesized, &library, config.clone())
            .threads(evo.threads)
            .build()
    });
    let (result, evolution_ms) = trace.stage(op, "core.evolution", || {
        flow::synthesize_in(&full, &evo, seed)
    });
    let (report_json, _) = trace.stage(op, "report.encode", || {
        serde_json::to_string_pretty(&result.report).expect("reports serialize")
    });
    let wall_ms = trace.close(op);
    json!({
        "spans": trace.to_value(),
        "wall_ms": wall_ms,
        "report_json": report_json,
        "feasible": result.report.feasible,
        "layers": json!({
            "netlist.parse_ms": parse_ms,
            "core.context_ms": gatesep_ms + separation_ms,
            "synth.search_ms": search_ms,
            "synth.rewritten_gates": report.balanced_gates + report.chain_gates,
            "core.evolution_ms": evolution_ms,
            "core.evaluations": result.evaluations,
            "core.evals_per_s": result.evaluations as f64 / (evolution_ms / 1e3),
            "partition_cost": result.report.total_cost,
        }),
    })
}

/// The `sim` handler's checksum: 64-lane batches of `frames`-vector
/// sequences from a SplitMix64 stream, every node value folded in.
fn sim_checksum(
    sim: &Simulator,
    netlist: &Netlist,
    patterns: u64,
    seed: u64,
    frames: usize,
) -> u64 {
    let batches = patterns.div_ceil(64 * frames as u64);
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    let mut inputs = vec![0u64; netlist.num_inputs()];
    let mut values = vec![0u64; netlist.node_count()];
    let mut dff_state = vec![0u64; netlist.num_state_elements()];
    let stepped = frames > 1 || !dff_state.is_empty();
    let mut checksum = 0u64;
    for _ in 0..batches {
        dff_state.fill(0);
        for _ in 0..frames {
            for w in &mut inputs {
                *w = next();
            }
            if stepped {
                sim.step_frame(&inputs, &mut dff_state, &mut values);
            } else {
                sim.eval_into::<u64>(&inputs, &mut values);
            }
            for &v in &values {
                checksum = checksum.rotate_left(1) ^ v;
            }
        }
    }
    checksum
}

/// The request's netlist, as the server resolves it.
fn resolve(trace: &mut Trace, root: usize, request: &Value, seed: u64) -> Netlist {
    match request["circuit"].as_str() {
        Some(name) => trace.stage(root, "gen.generate", || generate(name, seed)).0,
        None => {
            let text = request["bench"]
                .as_str()
                .expect("a circuit or an inline bench");
            trace
                .stage(root, "netlist.parse", || {
                    bench::parse("inline".to_owned(), text).expect("inline bench parses")
                })
                .0
        }
    }
}

/// One `faults` request executed the way the server's handler executes
/// it, minus the per-slice checkpoint captures: the service's fault
/// universe and vectors, swept at 64 lanes with the server's options.
/// Returns the fault count, the outcome and the sweep's milliseconds.
fn serve_faults(netlist: &Netlist, request: &Value, seed: u64) -> (usize, FaultSweepOutcome, f64) {
    let vectors = request["vectors"].as_u64().unwrap_or(256) as usize;
    let bridges = request["bridges"].as_u64().unwrap_or(16) as usize;
    let frames = request["frames"].as_u64().unwrap_or(1) as usize;
    let faults = fault_universe(netlist, bridges, seed);
    let vecs = random_vectors(netlist, vectors, seed);
    let options = server_sweep_options(request["drop"].as_bool().unwrap_or(true), frames);
    let start = Instant::now();
    let outcome =
        sweep_with_control::<u64>(netlist, &faults, &vecs, &options, &RunControl::unlimited())
            .into_value();
    (faults.len(), outcome, start.elapsed().as_secs_f64() * 1e3)
}

/// The result fields a wire response to `request` must carry.
fn serve_request(trace: &mut Trace, index: usize, request: &Value) -> Value {
    let op_name = request["op"].as_str().expect("every request names its op");
    let seed = request["seed"].as_u64().unwrap_or(42);
    let frames = request["frames"].as_u64().unwrap_or(1).max(1) as usize;
    let root = trace.open(op_name, index);
    let netlist = resolve(trace, root, request, seed);
    let expected = match op_name {
        "sim" => {
            let (sim, _) = trace.stage(root, "serve.compile", || Simulator::new(&netlist));
            let patterns = request["patterns"].as_u64().unwrap_or(1 << 14);
            let (checksum, _) = trace.stage(root, "logicsim.sim", || {
                sim_checksum(&sim, &netlist, patterns, seed, frames)
            });
            json!({
                "checksum": format!("{checksum:#018x}"),
                "patterns": patterns.div_ceil(64 * frames as u64) * 64 * frames as u64,
            })
        }
        "faults" => {
            let ((faults, outcome, _), _) = trace.stage(root, "serve.faults_execute", || {
                serve_faults(&netlist, request, seed)
            });
            json!({
                "digest": detection_digest(&outcome.first_detection),
                "detected": detected(&outcome),
                "faults": faults,
            })
        }
        "stats" => {
            let requested: AnalysisTier = request["tier"]
                .as_str()
                .unwrap_or("separation")
                .parse()
                .expect("a known tier");
            let plan = plan_tier(
                &netlist,
                SERVE_RHO,
                requested,
                &TierBudget {
                    remaining_ms: None,
                    memory_bytes: Some(SERVE_CACHE_BYTES),
                },
            );
            let fingerprint = format!("{:016x}", netlist.structural_fingerprint());
            let depth = iddq_netlist::levelize::depth(&netlist);
            let gates = netlist.gate_count();
            trace.stage(root, "serve.compile", || {
                Artifacts::build(netlist, plan.tier, SERVE_RHO)
            });
            json!({
                "fingerprint": fingerprint,
                "gates": gates,
                "depth": depth,
                "tier": plan.tier.as_str(),
            })
        }
        other => panic!("the mix sends no `{other}` requests"),
    };
    trace.close(root);
    expected
}

/// Per-layer figures of the serve path, measured in-process on the mix's
/// c7552 `faults` request: regenerating the named circuit (paid even on
/// a cache hit), compiling it at the separation tier (the recurring miss
/// path), and executing the request, of which the sweep proper is timed
/// apart. Each figure is the median of a few repetitions.
fn serve_layers(request: &Value) -> Value {
    let seed = request["seed"].as_u64().unwrap_or(42);
    let name = request["circuit"].as_str().expect("a named circuit");
    let (netlist, generate_ms) = timed_median(5, || generate(name, seed));
    let (_, compile_ms) = timed_median(3, || {
        Artifacts::build(netlist.clone(), AnalysisTier::Separation, SERVE_RHO)
    });
    let mut sweeps = Vec::new();
    let ((faults, outcome), execute_ms) = timed_median(3, || {
        let (faults, outcome, sweep_ms) = serve_faults(&netlist, request, seed);
        sweeps.push(sweep_ms);
        (faults, outcome)
    });
    let sweep_ms = median(sweeps);
    let vectors = request["vectors"].as_u64().unwrap_or(256) as f64;
    json!({
        "gen.generate_ms": generate_ms,
        "serve.compile_ms": compile_ms,
        "serve.faults_execute_ms": execute_ms,
        "logicsim.sweep_ms": sweep_ms,
        "logicsim.fault_patterns_per_s": faults as f64 * vectors / (sweep_ms / 1e3),
        "logicsim.dirty_frac": outcome.mean_dirty_nodes / netlist.node_count() as f64,
        "logicsim.detected": detected(&outcome),
        "fault_coverage_pct": outcome.coverage * 100.0,
    })
}

/// Every distinct request of the serve mix, replayed in-process. With
/// `layers`, also the per-layer serve figures for the first c7552
/// `faults` request.
fn serve(path: &str, layers: bool) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read `{path}`: {e}"));
    let requests: Value = serde_json::from_str(&text).expect("a JSON array of requests");
    let requests = requests.as_array().expect("a JSON array of requests");
    let mut trace = Trace::new();
    let expected: Vec<Value> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| serve_request(&mut trace, i, r))
        .collect();
    let layers = if layers {
        let probe = requests
            .iter()
            .find(|r| r["op"].as_str() == Some("faults") && r["circuit"].as_str() == Some("c7552"))
            .expect("the mix has a c7552 faults request");
        serve_layers(probe)
    } else {
        Value::Null
    };
    json!({
        "spans": trace.to_value(),
        "expected": Value::Array(expected),
        "layers": layers,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || -> ! {
        eprintln!("{USAGE}");
        std::process::exit(2)
    };
    let arg = |i: usize| args.get(i).map_or_else(|| usage(), String::as_str);
    let number = |i: usize| arg(i).parse::<u64>().unwrap_or_else(|_| usage());
    let flag = |f: &str| args.iter().any(|a| a == f);
    let out = match args.first().map(String::as_str) {
        Some("paper-flow") => paper_flow(arg(1), number(2)),
        Some("fault-sweep") => fault_sweep(arg(1), number(2) as usize, flag("--oracle")),
        Some("resynth") => resynth(arg(1), number(2)),
        Some("serve") => serve(arg(1), flag("--layers")),
        _ => usage(),
    };
    println!(
        "{}",
        serde_json::to_string(&out).expect("replay output serializes")
    );
}
