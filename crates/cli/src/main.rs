//! `iddq` — command-line front end for the IDDQ-testability synthesis
//! flow.
//!
//! ```text
//! iddq synth  <netlist.bench> [--seed N] [--generations N] [--d N]
//!             [--rstar MV] [--json PATH] [--dot PATH] [--modules PATH]
//!             [--resynth [--per-gate]] [--threads N]
//! iddq gen    <circuit> [--seed N] [--out PATH]
//! iddq test   <netlist.bench> [--seed N] [--frames N] [--threads N]
//! iddq sim    <netlist.bench> [--patterns N] [--seed N] [--threads N]
//!             [--backend csr|delta] [--lanes 64|256|512|auto] [--frames N]
//! iddq faults <netlist.bench> [--seed N] [--vectors N] [--bridges N]
//!             [--backend csr|delta] [--lanes 64|256|512|auto] [--threads N]
//!             [--shards N] [--no-drop] [--frames N] [--budget-ms MS]
//!             [--quota N] [--checkpoint PATH] [--resume PATH]
//! iddq seq    [--circuit sNNN] [--seed N] [--frames N]
//!             [--sequences N] [--bridges N] [--backend csr|delta]
//!             [--threads N] [--shards N]
//! iddq stats  <netlist.bench> [--memory] [--rho N]
//! iddq scale  [--smoke] [--gates N] [--seed N] [--rho N] [--budget-ms MS]
//! iddq serve  [--addr A] [--workers N] [--queue N] [--cache-mb N]
//!             [--state-dir DIR] [--rho N] [--budget-ms MS] [--max-secs S]
//!             [--smoke] [--call JSON --addr A [--retries N] [--retry-seed N]]
//! iddq chaos  [--smoke]
//! ```
//!
//! Exit codes follow the usual discipline: `0` for success (including a
//! budget-limited *partial* fault sweep, which reports its coverage),
//! `2` for usage errors (bad flags, bad bounds, unknown commands, flags
//! a subcommand does not take, and value flags given without a value),
//! `1` for runtime failures (unreadable files, parse errors, checkpoint
//! mismatches).

use std::process::ExitCode;
use std::time::Instant;

use iddq_celllib::Library;
use iddq_control::{write_atomic, EngineError, RunBudget, RunControl};
use iddq_core::evolution::EvolutionConfig;
use iddq_core::{config::PartitionConfig, flow, AnalysisTier, EvalContext};
use iddq_netlist::{bench, dot, Netlist};

/// A CLI failure: its message and whether it is the *caller's* fault
/// (a usage error — exit code 2) or the *run's* (exit code 1).
#[derive(Debug)]
struct CliError {
    message: String,
    usage: bool,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            usage: true,
        }
    }
}

/// Plain-string errors are runtime failures (exit 1).
impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError {
            message,
            usage: false,
        }
    }
}

/// Engine errors carry their own usage/runtime split:
/// [`EngineError::InvalidArg`] (e.g. a fan-out bound below 2) is the
/// caller's fault, everything else happened during the run.
impl From<EngineError> for CliError {
    fn from(e: EngineError) -> Self {
        CliError {
            usage: e.is_usage(),
            message: e.to_string(),
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let result = match cmd.as_str() {
        "synth" => cmd_synth(rest),
        "gen" => cmd_gen(rest),
        "test" => cmd_test(rest),
        "sim" => cmd_sim(rest),
        "faults" => cmd_faults(rest),
        "seq" => cmd_seq(rest),
        "stats" => cmd_stats(rest),
        "scale" => cmd_scale(rest),
        "serve" => cmd_serve(rest),
        "chaos" => cmd_chaos(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {}", e.message);
            ExitCode::from(if e.usage { 2 } else { 1 })
        }
    }
}

const USAGE: &str = "\
iddq — synthesis of IDDQ-testable circuits (Wunderlich et al., DATE 1995)

commands:
  synth <netlist.bench>   partition a circuit and size its BIC sensors
      --seed N            optimizer seed (default 42)
      --generations N     evolution generations (default 250)
      --d N               required discriminability (default 10)
      --rstar MV          virtual-rail budget in mV (default 200)
      --fanout N          buffer fan-out above N first (N >= 2)
      --resynth           run cost-aware resynthesis first (patch-scored
                          candidates on one persistent evaluation)
      --per-gate          with --resynth: choose the decomposition shape
                          gate by gate (greedy patch probes)
      --json PATH         write the full report as JSON
      --dot PATH          write a module-coloured Graphviz graph
      --modules PATH      write `gate module` assignment lines
      --threads N         worker threads for the analyses and the evolution
                          (default 0 = all cores; any count gives the same
                          result)
  gen <circuit>           emit a synthetic benchmark netlist: c* names are
                          ISCAS-85-like combinational circuits, s* names
                          ISCAS-89-like sequential ones (with DFFs)
      --seed N            generation seed (default 42)
      --out PATH          output path (default stdout)
  test <netlist.bench>    run the IDDQ defect-detection experiment
      --seed N            defect/ATPG seed (default 42)
      --frames N          frames per test sequence (default 1; sequential
                          circuits reach state-dependent defects at N > 1)
      --threads N         worker threads for the analyses, the evolution
                          and the IDDQ sweep (default 0 = all cores; any
                          count gives the same result)
  sim <netlist.bench>     measure logic-simulation throughput (wide kernel)
      --patterns N        number of random patterns (default 1048576)
      --seed N            pattern seed (default 42)
      --threads N         worker threads sharing the pattern stream (default 1)
      --backend B         simulation engine: csr | delta (default csr)
      --lanes L           patterns per sweep: 64 | 256 | 512 (default 256),
                          or `auto` to pick by a quick calibration sweep
      --frames N          frames per sequence (default 1): each lane then
                          carries one N-frame sequence from the all-zero
                          reset state, stepped through the DFF boundary
  faults <netlist.bench>  run the stuck-at/bridge fault-patch sweep
      --seed N            vector/bridge seed (default 42)
      --vectors N         number of random test vectors (default 256)
      --bridges N         number of sampled bridge faults (default 32)
      --backend B         delta = fault-patch engine, csr = per-fault full
                          re-simulation oracle (default delta)
      --lanes L           patterns per sweep: 64 | 256 | 512 (default 256),
                          or `auto` to pick by a quick calibration sweep
      --threads N         worker threads (default 1, 0 = all cores)
      --shards N          fault-list shards (default auto)
      --no-drop           disable earliest-detection fault dropping
      --frames N          frames per sequence (default 1): vectors are
                          consumed sequence-major (N consecutive vectors
                          per sequence) and a fault's earliest detection
                          is the first (sequence, frame) that exposes it
      --budget-ms MS      wall-clock budget; on expiry the sweep stops at
                          the next batch boundary and reports a partial
                          (still exit 0) coverage
      --quota N           work budget in fault x pattern applications
      --checkpoint PATH   write a resumable checkpoint (atomic rename)
      --resume PATH       resume from a checkpoint written by --checkpoint;
                          a resumed run that completes is bit-identical to
                          an uninterrupted one
  seq                     sequential end-to-end check on a generated
                          ISCAS-89-like circuit: multi-frame fault sweep
                          from the all-zero reset state, reporting how
                          many faults need latched state to be seen
      --circuit sNNN      profile to generate (default s298)
      --seed N            generation/vector seed (default 42)
      --frames N          frames per sequence (default 4)
      --sequences N       number of reset sequences (default 256)
      --bridges N         number of sampled bridge faults (default 32)
      --backend B         delta (default) | csr
      --threads N         worker threads (default 1, 0 = all cores)
      --shards N          fault-list shards (default auto)
  stats <netlist.bench>   print structural statistics
      --memory            also report the memory footprint of every engine
                          representation (graph, CSR schedule, packed values,
                          delta state, separation oracle, gate-sep table)
      --rho N             separation saturation bound for --memory (default 6)
  scale                   scale regression check on a generated mega-circuit:
                          build the CSR kernel, run one full sweep, build a
                          GateSep analysis context, and score one resynthesis
                          probe (apply + bit-identical rollback), all under one
                          wall-clock RunBudget, with per-node memory asserted
                          against fixed byte ceilings
      --smoke             10^5 gates under a 60 s budget (default: 10^6 gates
                          under 600 s)
      --gates N           override the gate count
      --seed N            generation seed (default 0x5ca1e, as the bench)
      --rho N             separation saturation bound (default 3)
      --budget-ms MS      override the wall-clock budget
  serve                   run the hardened fault-simulation service
                          (JSON-lines over TCP; see crates/serve docs for
                          the protocol, failure semantics and runbook)
      --addr A            bind address (default 127.0.0.1:0; the bound
                          address is printed as `listening on ADDR`)
      --workers N         worker threads (default 2)
      --queue N           admission queue capacity (default 16)
      --cache-mb N        artifact-cache memory ceiling in MiB (default 64)
      --state-dir DIR     checkpoint directory (default .iddq-serve)
      --rho N             separation bound for stats tiers (default 6)
      --budget-ms MS      global budget composed into every request
      --max-secs S        serve for S seconds, then drain and exit
      --smoke             run the end-to-end smoke scenario and exit
      --call JSON         one-shot client mode: send one request line to
                          --addr, print the response line, exit (exit 1
                          when the server answers status=error)
      --retries N         with --call: retry `overloaded` responses up to
                          N times with jittered exponential backoff,
                          honoring the server's retry_after_ms hint
                          (default 3; 0 = fail fast)
      --retry-seed N      seed of the deterministic retry jitter
  chaos                   deterministic fault-injection suite over the
                          serving path: checkpointed sweeps completed
                          through seeded crash/restart schedules under
                          ENOSPC / torn-write / failed-rename / corrupt-read
                          faults (digest bit-identical to an uninterrupted
                          run); any violation exits 1 with the offending seed
      --smoke             a dozen fixed seeds (seconds, the CI leg)
                          instead of the full 200+ schedule sweep
";

/// Rejects every `--flag` of `rest` that `cmd` does not document:
/// `values` take the argument after them (which is skipped, so a value
/// that starts with `--` is not misread as a flag), `switches` stand
/// alone. An unknown flag, or a value flag with nothing after it, is a
/// usage error (exit 2) naming the flag, so a typo never runs with a
/// silently defaulted setting.
fn check_flags(
    cmd: &str,
    rest: &[String],
    values: &[&str],
    switches: &[&str],
) -> Result<(), CliError> {
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if values.contains(&arg.as_str()) {
            if args.next().is_none() {
                return Err(CliError::usage(format!(
                    "flag `{arg}` of `iddq {cmd}` expects a value"
                )));
            }
        } else if arg.starts_with("--") && !switches.contains(&arg.as_str()) {
            return Err(CliError::usage(format!(
                "unknown flag `{arg}` for `iddq {cmd}` (see `iddq help`)"
            )));
        }
    }
    Ok(())
}

fn parse_flag(rest: &[String], flag: &str) -> Option<String> {
    rest.iter()
        .position(|a| a == flag)
        .and_then(|i| rest.get(i + 1))
        .cloned()
}

fn parse_num<T: std::str::FromStr>(rest: &[String], flag: &str, default: T) -> Result<T, CliError> {
    match parse_flag(rest, flag) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("{flag} expects a number, got `{v}`"))),
    }
}

fn parse_opt_num<T: std::str::FromStr>(rest: &[String], flag: &str) -> Result<Option<T>, CliError> {
    match parse_flag(rest, flag) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::usage(format!("{flag} expects a number, got `{v}`"))),
    }
}

/// `--threads N` of the evolution commands, resolved once: `0` (the
/// default) is every core the machine reports.
fn parse_threads(rest: &[String]) -> Result<usize, CliError> {
    match parse_num(rest, "--threads", 0usize)? {
        0 => Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)),
        n => Ok(n),
    }
}

fn load(path: &str) -> Result<Netlist, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("netlist")
        .to_owned();
    bench::parse(name, &text).map_err(|e| format!("parse `{path}`: {e}"))
}

fn cmd_synth(rest: &[String]) -> Result<(), CliError> {
    check_flags(
        "synth",
        rest,
        &[
            "--seed",
            "--generations",
            "--d",
            "--rstar",
            "--fanout",
            "--json",
            "--dot",
            "--modules",
            "--threads",
        ],
        &["--resynth", "--per-gate"],
    )?;
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(USAGE))?;
    let threads = parse_threads(rest)?;
    let mut cut = load(path)?;
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let generations: usize = parse_num(rest, "--generations", 250)?;
    let mut config = PartitionConfig::paper_default();
    config.d_min = parse_num(rest, "--d", config.d_min)?;
    config.sizing.r_star_mv = parse_num(rest, "--rstar", config.sizing.r_star_mv)?;
    let library = Library::generic_1um();

    if let Some(bound) = parse_opt_num::<usize>(rest, "--fanout")? {
        // A bound below 2 is the caller's mistake — `fanout_buffer`
        // reports it as a typed InvalidArg, which maps to exit code 2.
        cut = iddq_synth::fanout_buffer(&cut, bound)?;
        eprintln!(
            "fan-out buffered at bound {bound}: {} gates",
            cut.gate_count()
        );
    }

    if rest.iter().any(|a| a == "--resynth") {
        // The patch-scored searches only need the GateSep analysis tier;
        // the build and the search are timed separately so the report
        // shows where the wall-clock actually goes. The table is built
        // serially: stitching a sharded build raised the peak RSS of
        // s5378 from ~70 to ~87 MB and saved no measurable time.
        let t_analysis = Instant::now();
        let ctx = EvalContext::builder(&cut, &library, config.clone())
            .tier(AnalysisTier::GateSep)
            .build();
        let analysis_secs = t_analysis.elapsed().as_secs_f64();
        let t_search = Instant::now();
        if rest.iter().any(|a| a == "--per-gate") {
            let (out, report) = iddq_synth::cost_aware_per_gate_in(&ctx);
            let search_secs = t_search.elapsed().as_secs_f64();
            eprintln!(
                "resynthesis (per-gate): original {:.1} -> mixed {:.1} \
                 ({} balanced, {} chain, {} kept); \
                 analyses {analysis_secs:.3} s + search {search_secs:.3} s",
                report.original_cost,
                report.mixed_cost,
                report.balanced_gates,
                report.chain_gates,
                report.kept_gates
            );
            drop(ctx);
            cut = out;
        } else {
            let (out, report) = iddq_synth::cost_aware_in(&ctx);
            let search_secs = t_search.elapsed().as_secs_f64();
            eprintln!(
                "resynthesis: original {:.1} / balanced {:.1} / chain {:.1} -> {:?}; \
                 analyses {analysis_secs:.3} s + search {search_secs:.3} s",
                report.original_cost, report.balanced_cost, report.chain_cost, report.chosen
            );
            drop(ctx);
            cut = out;
        }
    }

    let evo = EvolutionConfig {
        generations,
        threads,
        ..Default::default()
    };
    let result = flow::synthesize_with(&cut, &library, &config, &evo, seed);
    let r = &result.report;
    println!(
        "{}: {} gates -> {} modules, feasible: {}, cost {:.1}",
        r.circuit,
        r.gates,
        r.modules.len(),
        r.feasible,
        r.total_cost
    );
    println!(
        "sensor area {:.3e}; delay {:.0} -> {:.0} ps; per-vector test {:.1} ns",
        r.cost.sensor_area,
        r.nominal_delay_ps,
        r.cost.dbic_ps,
        r.cost.vector_time_ps / 1000.0
    );
    for m in &r.modules {
        println!(
            "  M{}: {} gates, i_max {:.0} uA, d {:.0}, Rs {} ohm, area {}",
            m.index,
            m.gates,
            m.peak_current_ua,
            m.discriminability,
            m.rs_ohm.map_or("--".into(), |v| format!("{v:.2}")),
            m.sensor_area.map_or("--".into(), |v| format!("{v:.2e}")),
        );
    }

    if let Some(json) = parse_flag(rest, "--json") {
        let payload = serde_json::to_string_pretty(r).map_err(|e| e.to_string())?;
        write_atomic(std::path::Path::new(&json), &payload)?;
        eprintln!("wrote {json}");
    }
    if let Some(dot_path) = parse_flag(rest, "--dot") {
        let part = result.partition.clone();
        let colour = move |id: iddq_netlist::NodeId| part.module_of(id).unwrap_or(0);
        write_atomic(
            std::path::Path::new(&dot_path),
            &dot::to_dot(&cut, Some(&colour)),
        )?;
        eprintln!("wrote {dot_path}");
    }
    if let Some(mods) = parse_flag(rest, "--modules") {
        let mut lines = String::new();
        for g in cut.gate_ids() {
            lines.push_str(&format!(
                "{} {}\n",
                cut.node_name(g),
                result.partition.module_of(g).expect("gates assigned")
            ));
        }
        write_atomic(std::path::Path::new(&mods), &lines)?;
        eprintln!("wrote {mods}");
    }
    Ok(())
}

fn cmd_gen(rest: &[String]) -> Result<(), CliError> {
    check_flags("gen", rest, &["--seed", "--out"], &[])?;
    let name = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(USAGE))?;
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let nl = if let Some(profile) = iddq_gen::iscas::IscasProfile::by_name(name) {
        iddq_gen::iscas::generate(profile, seed)
    } else if let Some(profile) = iddq_gen::seq::SeqProfile::by_name(name) {
        iddq_gen::seq::generate(profile, seed)
    } else {
        return Err(CliError::usage(format!(
            "unknown circuit `{name}` (c432..c7552, s27..s5378)"
        )));
    };
    let text = bench::to_bench(&nl);
    match parse_flag(rest, "--out") {
        Some(path) => {
            write_atomic(std::path::Path::new(&path), &text)?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_test(rest: &[String]) -> Result<(), CliError> {
    check_flags("test", rest, &["--seed", "--frames", "--threads"], &[])?;
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(USAGE))?;
    let threads = parse_threads(rest)?;
    let cut = load(path)?;
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let frames: usize = parse_num(rest, "--frames", 1usize)?;
    if frames == 0 {
        return Err(CliError::usage("--frames must be at least 1"));
    }
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();

    // One full-tier analysis context serves both the defect enumeration
    // (its separation oracle covers the bridge-locality filter) and the
    // synthesis flow — the oracle is built once, not twice.
    let ctx = EvalContext::builder(&cut, &library, config.clone())
        .threads(threads)
        .build();
    let faults = iddq_logicsim::faults::enumerate_with(
        &cut,
        &iddq_logicsim::faults::FaultUniverseConfig::default(),
        seed,
        ctx.try_separation(),
    );
    // `generate_seq` at frames = 1 reproduces the combinational
    // generator bit-for-bit, so one call covers both regimes.
    let tests = iddq_atpg::generate_seq(
        &cut,
        &faults,
        &iddq_atpg::AtpgConfig::default(),
        seed,
        frames,
    )
    .map_err(|e| CliError::usage(format!("{e}")))?;
    let evo = EvolutionConfig {
        generations: 60,
        stagnation: 25,
        threads,
        ..Default::default()
    };
    let result = flow::synthesize_in(&ctx, &evo, seed);
    let leaks: Vec<f64> = result
        .report
        .modules
        .iter()
        .map(|m| m.leakage_na / 1000.0)
        .collect();
    let sim = iddq_logicsim::iddq::simulate_with_options(
        &cut,
        &faults,
        &tests.vectors,
        result.partition.assignment(),
        &leaks,
        library.technology().iddq_threshold_ua,
        &iddq_logicsim::iddq::SweepOptions { threads, frames },
    );
    if frames > 1 {
        println!(
            "{}: {} defects, {} sequences x {frames} frames, coverage {:.1}% under {} BIC sensors",
            cut.name(),
            faults.len(),
            tests.vectors.len() / frames,
            sim.coverage * 100.0,
            leaks.len()
        );
    } else {
        println!(
            "{}: {} defects, {} vectors, coverage {:.1}% under {} BIC sensors",
            cut.name(),
            faults.len(),
            tests.vectors.len(),
            sim.coverage * 100.0,
            leaks.len()
        );
    }
    Ok(())
}

/// Parses `--lanes`: a fixed width, or `None` for `auto` (calibrate on
/// the loaded circuit).
fn parse_lanes(rest: &[String]) -> Result<Option<iddq_netlist::LaneWidth>, CliError> {
    match parse_flag(rest, "--lanes") {
        None => Ok(Some(iddq_netlist::LaneWidth::default())),
        Some(v) if v == "auto" => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|e| CliError::usage(format!("{e}"))),
    }
}

/// Measures CSR sweep throughput (patterns/s) at one lane width: one
/// warm-up sweep off the clock, then timed sweeps until at least ten
/// milliseconds have elapsed. The pattern stream is deterministic, so
/// the calibration itself never perturbs downstream seeding.
fn calibrate_width<W: iddq_netlist::PackedWord>(cut: &Netlist) -> f64 {
    let sim = iddq_logicsim::Simulator::new(cut);
    let mut inputs = vec![W::zeros(); cut.num_inputs()];
    let mut values = vec![W::zeros(); sim.node_count()];
    let mut state = 0x1dd9_ca11_b0a7_ed00u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^ (z >> 31)
    };
    sim.eval_into(&inputs, &mut values);
    let start = Instant::now();
    let mut patterns = 0u64;
    loop {
        for w in &mut inputs {
            *w = W::from_limbs(|_| next());
        }
        sim.eval_into(&inputs, &mut values);
        patterns += u64::from(W::LANES);
        if start.elapsed().as_millis() >= 10 {
            break;
        }
    }
    patterns as f64 / start.elapsed().as_secs_f64()
}

/// `--lanes auto`: times a short CSR sweep at every width and picks the
/// fastest. Wider lanes amortize schedule-walking overhead but cost more
/// per value word; which side wins depends on the circuit's size relative
/// to cache, so a quick measurement beats a static guess.
fn calibrate_lanes(cut: &Netlist) -> iddq_netlist::LaneWidth {
    use iddq_netlist::LaneWidth;
    let rates = [
        (LaneWidth::L64, calibrate_width::<u64>(cut)),
        (LaneWidth::L256, calibrate_width::<iddq_netlist::W256>(cut)),
        (LaneWidth::L512, calibrate_width::<iddq_netlist::W512>(cut)),
    ];
    let best = rates
        .iter()
        .copied()
        .fold(rates[0], |acc, r| if r.1 > acc.1 { r } else { acc })
        .0;
    eprintln!(
        "lanes auto: 64 -> {:.3e}/s, 256 -> {:.3e}/s, 512 -> {:.3e}/s; picked {best}",
        rates[0].1, rates[1].1, rates[2].1
    );
    best
}

fn cmd_sim(rest: &[String]) -> Result<(), CliError> {
    use iddq_logicsim::BackendKind;
    use iddq_netlist::LaneWidth;
    check_flags(
        "sim",
        rest,
        &[
            "--patterns",
            "--seed",
            "--threads",
            "--backend",
            "--lanes",
            "--frames",
        ],
        &[],
    )?;
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(USAGE))?;
    let cut = load(path)?;
    let patterns: u64 = parse_num(rest, "--patterns", 1u64 << 20)?;
    if patterns == 0 {
        return Err(CliError::usage("--patterns must be at least 1"));
    }
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let threads: usize = parse_num(rest, "--threads", 1usize)?;
    if threads == 0 {
        return Err(CliError::usage("--threads must be at least 1"));
    }
    let backend: BackendKind = match parse_flag(rest, "--backend") {
        None => BackendKind::Csr,
        Some(v) => v.parse().map_err(|e| CliError::usage(format!("{e}")))?,
    };
    let frames: usize = parse_num(rest, "--frames", 1usize)?;
    if frames == 0 {
        return Err(CliError::usage("--frames must be at least 1"));
    }
    let lanes = match parse_lanes(rest)? {
        Some(width) => width,
        None => calibrate_lanes(&cut),
    };
    match lanes {
        LaneWidth::L64 => run_sim::<u64>(&cut, patterns, seed, threads, backend, lanes, frames),
        LaneWidth::L256 => {
            run_sim::<iddq_netlist::W256>(&cut, patterns, seed, threads, backend, lanes, frames)
        }
        LaneWidth::L512 => {
            run_sim::<iddq_netlist::W512>(&cut, patterns, seed, threads, backend, lanes, frames)
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn run_sim<W: iddq_netlist::PackedWord>(
    cut: &Netlist,
    patterns: u64,
    seed: u64,
    threads: usize,
    backend: iddq_logicsim::BackendKind,
    lanes: iddq_netlist::LaneWidth,
    frames: usize,
) {
    use iddq_logicsim::SimBackend;
    // One batch is W::LANES lanes; with frames > 1 each lane carries one
    // whole sequence, so a batch covers LANES x frames vectors.
    let batches = patterns.div_ceil(u64::from(W::LANES) * frames as u64);
    let threads = threads.min(batches as usize);
    // Each worker owns one engine instance and a disjoint slice of the
    // seeded pattern stream; the per-worker fingerprints are folded in
    // worker order, so the checksum is deterministic for a fixed
    // (seed, threads, backend, lanes, frames) tuple.
    let worker = |t: usize| -> [u64; 4] {
        let mut state = seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        let mut next = move || {
            // SplitMix64-style stream for reproducible pattern words.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^ (z >> 31)
        };
        let mut sim = SimBackend::<W>::new(cut, backend);
        let mut inputs = vec![W::zeros(); cut.num_inputs()];
        let mut values = vec![W::zeros(); sim.node_count()];
        let mut dff_state = vec![W::zeros(); sim.num_state_elements()];
        // Frame-based evaluation whenever the circuit has state or the
        // caller asked for multi-frame sequences; the plain one-shot path
        // otherwise.
        let stepped = frames > 1 || !dff_state.is_empty();
        // Fingerprint every node value, not just the primary outputs: the
        // deep outputs of the synthetic profiles are near-constant under
        // random stimuli and would make a poor discriminator. Four
        // independent limb accumulators keep the fold off the measured
        // loop's critical path.
        let mut acc = [0u64; 4];
        let my_batches = batches as usize / threads + usize::from(t < batches as usize % threads);
        for _ in 0..my_batches {
            // Every sequence starts from the all-zero reset state.
            dff_state.fill(W::zeros());
            for _frame in 0..frames {
                for w in &mut inputs {
                    *w = W::from_limbs(|_| next());
                }
                if stepped {
                    sim.step_frame(&inputs, &mut dff_state, &mut values);
                } else {
                    sim.eval_into(&inputs, &mut values);
                }
                for v in &values {
                    for i in 0..W::LIMBS {
                        let a = &mut acc[i % 4];
                        *a = a.rotate_left(1) ^ v.limb(i);
                    }
                }
            }
        }
        acc
    };
    let start = std::time::Instant::now();
    let accs: Vec<[u64; 4]> = if threads <= 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|scope| {
            let worker = &worker;
            let handles: Vec<_> = (0..threads)
                .map(|t| scope.spawn(move || worker(t)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sim worker never panics"))
                .collect()
        })
    };
    let mut checksum = 0u64;
    for acc in &accs {
        let c = acc[0] ^ acc[1].rotate_left(16) ^ acc[2].rotate_left(32) ^ acc[3].rotate_left(48);
        checksum = checksum.rotate_left(8) ^ c;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let evaluated = batches * u64::from(W::LANES) * frames as u64;
    println!(
        "{}: {} gates, {evaluated} patterns in {elapsed:.3} s = {:.3e} patterns/s \
         ({:.3e} gate-evals/s), backend {backend}, lanes {lanes}, frames {frames}, \
         {threads} thread(s), value checksum {checksum:#018x}",
        cut.name(),
        cut.gate_count(),
        evaluated as f64 / elapsed,
        evaluated as f64 * cut.gate_count() as f64 / elapsed,
    );
}

fn cmd_faults(rest: &[String]) -> Result<(), CliError> {
    use iddq_logicsim::fault_sweep::{FaultSweepOptions, LogicFault};
    use iddq_logicsim::logic_test::StuckAtFault;
    use iddq_logicsim::BackendKind;
    use iddq_netlist::LaneWidth;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    check_flags(
        "faults",
        rest,
        &[
            "--seed",
            "--vectors",
            "--bridges",
            "--backend",
            "--lanes",
            "--threads",
            "--shards",
            "--frames",
            "--budget-ms",
            "--quota",
            "--checkpoint",
            "--resume",
        ],
        &["--no-drop"],
    )?;
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(USAGE))?;
    let cut = load(path)?;
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let num_vectors: usize = parse_num(rest, "--vectors", 256usize)?;
    if num_vectors == 0 {
        return Err(CliError::usage("--vectors must be at least 1"));
    }
    let bridges: usize = parse_num(rest, "--bridges", 32usize)?;
    let backend: BackendKind = match parse_flag(rest, "--backend") {
        None => BackendKind::Delta,
        Some(v) => v.parse().map_err(|e| CliError::usage(format!("{e}")))?,
    };
    let lanes = match parse_lanes(rest)? {
        Some(width) => width,
        None => calibrate_lanes(&cut),
    };
    let frames: usize = parse_num(rest, "--frames", 1usize)?;
    if frames == 0 {
        return Err(CliError::usage("--frames must be at least 1"));
    }
    let options = FaultSweepOptions {
        threads: parse_num(rest, "--threads", 1usize)?,
        fault_shards: parse_num(rest, "--shards", 0usize)?,
        fault_dropping: !rest.iter().any(|a| a == "--no-drop"),
        backend,
        frames,
        ..FaultSweepOptions::default()
    };
    let mut budget = RunBudget::unlimited();
    if let Some(ms) = parse_opt_num::<u64>(rest, "--budget-ms")? {
        budget = budget.with_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(quota) = parse_opt_num::<u64>(rest, "--quota")? {
        budget = budget.with_quota(quota);
    }
    let control = RunControl::with_budget(budget);
    let checkpoint_path = parse_flag(rest, "--checkpoint");
    let resume_path = parse_flag(rest, "--resume");

    // Fault universe: both stuck-at polarities on every node, plus bridges
    // sampled with the IDDQ enumerator's locality model.
    let mut faults: Vec<LogicFault> = cut
        .node_ids()
        .flat_map(|node| {
            [false, true]
                .map(|stuck_at_one| LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }))
        })
        .collect();
    let stuck_at_count = faults.len();
    faults.extend(
        iddq_logicsim::faults::enumerate(
            &cut,
            &iddq_logicsim::faults::FaultUniverseConfig {
                bridges,
                gos_fraction: 0.0,
                stuck_on_fraction: 0.0,
                ..Default::default()
            },
            seed,
        )
        .into_iter()
        .filter_map(|f| match f {
            iddq_logicsim::faults::IddqFault::Bridge { a, b, .. } => {
                Some(LogicFault::Bridge { a, b })
            }
            _ => None,
        }),
    );
    let bridge_count = faults.len() - stuck_at_count;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17);
    let vectors: Vec<Vec<bool>> = (0..num_vectors)
        .map(|_| (0..cut.num_inputs()).map(|_| rng.gen()).collect())
        .collect();

    let start = std::time::Instant::now();
    let run = RunPaths {
        control: &control,
        resume: resume_path.as_deref(),
        checkpoint: checkpoint_path.as_deref(),
    };
    let outcome = match lanes {
        LaneWidth::L64 => run_fault_sweep::<u64>(&cut, &faults, &vectors, &options, &run),
        LaneWidth::L256 => {
            run_fault_sweep::<iddq_netlist::W256>(&cut, &faults, &vectors, &options, &run)
        }
        LaneWidth::L512 => {
            run_fault_sweep::<iddq_netlist::W512>(&cut, &faults, &vectors, &options, &run)
        }
    }?;
    let elapsed = start.elapsed().as_secs_f64();
    let work_coverage = outcome.coverage();
    let stop_reason = outcome.stop_reason();
    let outcome = outcome.into_value();
    let detected = outcome.detected.iter().filter(|&&d| d).count();
    println!(
        "{}: {stuck_at_count} stuck-at + {bridge_count} bridge faults x {num_vectors} vectors \
         (frames {frames}): {detected} detected ({:.1}% coverage) in {elapsed:.3} s, \
         backend {backend}, lanes {lanes}, {} thread(s), dropping {}, \
         mean dirty cone {:.1} of {} nodes",
        cut.name(),
        outcome.coverage * 100.0,
        if options.threads == 0 {
            "auto".to_owned()
        } else {
            options.threads.to_string()
        },
        if options.fault_dropping { "on" } else { "off" },
        outcome.mean_dirty_nodes,
        cut.node_count(),
    );
    if let Some(reason) = stop_reason {
        // A budget-limited sweep is a *successful* partial run (exit 0):
        // every detection it reports comes from fully completed pattern
        // batches, and the grid coverage says how much work remains.
        println!(
            "partial: stopped early ({reason}); {:.1}% of the fault x pattern grid completed{}",
            work_coverage * 100.0,
            if checkpoint_path.is_some() {
                " -- resume with --resume <checkpoint>"
            } else {
                ""
            },
        );
    }
    Ok(())
}

/// The control/resume/checkpoint context threaded through the
/// lane-width dispatch of `cmd_faults`.
struct RunPaths<'a> {
    control: &'a RunControl,
    resume: Option<&'a str>,
    checkpoint: Option<&'a str>,
}

/// Runs one fault sweep at a fixed lane width: resume from a checkpoint
/// if asked (validated against this exact run configuration), and write
/// a checkpoint of whatever completed — atomically, so an interrupted
/// write can never destroy the previous checkpoint.
fn run_fault_sweep<W: iddq_netlist::PackedWord>(
    cut: &Netlist,
    faults: &[iddq_logicsim::fault_sweep::LogicFault],
    vectors: &[Vec<bool>],
    options: &iddq_logicsim::fault_sweep::FaultSweepOptions,
    run: &RunPaths<'_>,
) -> Result<iddq_control::Outcome<iddq_logicsim::fault_sweep::FaultSweepOutcome>, CliError> {
    use iddq_logicsim::fault_sweep::{sweep_resume, sweep_with_control, SweepCheckpoint};
    let outcome = match run.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
            let cp = SweepCheckpoint::from_json(&text)?;
            sweep_resume::<W>(cut, faults, vectors, options, run.control, &cp)?
        }
        None => sweep_with_control::<W>(cut, faults, vectors, options, run.control),
    };
    if let Some(path) = run.checkpoint {
        let cp = SweepCheckpoint::capture::<W>(cut, faults, vectors, options, outcome.value());
        write_atomic(std::path::Path::new(path), &cp.to_json())?;
        eprintln!(
            "wrote checkpoint {path} ({:.1}% of the pattern grid done)",
            cp.progress() * 100.0
        );
    }
    Ok(outcome)
}

/// Stuck-at-everywhere plus sampled bridges for the `seq` command: the
/// same fault universe `cmd_faults` sweeps.
fn logic_fault_universe(
    cut: &Netlist,
    bridges: usize,
    seed: u64,
) -> Vec<iddq_logicsim::fault_sweep::LogicFault> {
    use iddq_logicsim::fault_sweep::LogicFault;
    use iddq_logicsim::logic_test::StuckAtFault;
    let mut faults: Vec<LogicFault> = cut
        .node_ids()
        .flat_map(|node| {
            [false, true]
                .map(|stuck_at_one| LogicFault::StuckAt(StuckAtFault { node, stuck_at_one }))
        })
        .collect();
    faults.extend(
        iddq_logicsim::faults::enumerate(
            cut,
            &iddq_logicsim::faults::FaultUniverseConfig {
                bridges,
                gos_fraction: 0.0,
                stuck_on_fraction: 0.0,
                ..Default::default()
            },
            seed,
        )
        .into_iter()
        .filter_map(|f| match f {
            iddq_logicsim::faults::IddqFault::Bridge { a, b, .. } => {
                Some(LogicFault::Bridge { a, b })
            }
            _ => None,
        }),
    );
    faults
}

/// The `seq` command: end-to-end sequential check on a generated
/// ISCAS-89-like circuit — a multi-frame fault sweep where every lane
/// carries one reset sequence, reporting how many detections needed
/// latched state (a first detection at frame > 0 of its sequence).
fn cmd_seq(rest: &[String]) -> Result<(), CliError> {
    use iddq_logicsim::fault_sweep::{sweep_with_control, FaultSweepOptions};
    use iddq_logicsim::BackendKind;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    check_flags(
        "seq",
        rest,
        &[
            "--circuit",
            "--seed",
            "--frames",
            "--sequences",
            "--bridges",
            "--backend",
            "--threads",
            "--shards",
        ],
        &[],
    )?;

    let name = parse_flag(rest, "--circuit").unwrap_or_else(|| "s298".into());
    let profile = iddq_gen::seq::SeqProfile::by_name(&name).ok_or_else(|| {
        CliError::usage(format!("unknown sequential circuit `{name}` (s27..s5378)"))
    })?;
    let seed: u64 = parse_num(rest, "--seed", 42)?;
    let frames: usize = parse_num(rest, "--frames", 4usize)?;
    if frames == 0 {
        return Err(CliError::usage("--frames must be at least 1"));
    }
    let sequences: usize = parse_num(rest, "--sequences", 256usize)?;
    if sequences == 0 {
        return Err(CliError::usage("--sequences must be at least 1"));
    }
    let bridges: usize = parse_num(rest, "--bridges", 32usize)?;
    let backend: BackendKind = match parse_flag(rest, "--backend") {
        None => BackendKind::Delta,
        Some(v) => v.parse().map_err(|e| CliError::usage(format!("{e}")))?,
    };
    let options = FaultSweepOptions {
        threads: parse_num(rest, "--threads", 1usize)?,
        fault_shards: parse_num(rest, "--shards", 0usize)?,
        backend,
        frames,
        ..FaultSweepOptions::default()
    };

    let cut = iddq_gen::seq::generate(profile, seed);
    let faults = logic_fault_universe(&cut, bridges, seed);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa17);
    let vectors: Vec<Vec<bool>> = (0..sequences * frames)
        .map(|_| (0..cut.num_inputs()).map(|_| rng.gen()).collect())
        .collect();

    let start = Instant::now();
    let outcome = sweep_with_control::<iddq_netlist::W256>(
        &cut,
        &faults,
        &vectors,
        &options,
        &RunControl::unlimited(),
    )
    .into_value();
    let elapsed = start.elapsed().as_secs_f64();
    let detected = outcome.detected.iter().filter(|&&d| d).count();
    // The sequential payoff: a first detection at frame > 0 of its
    // sequence means the exposing state was *reached*, not applied.
    let state_needed = outcome
        .first_detection
        .iter()
        .flatten()
        .filter(|&&v| v % frames > 0)
        .count();
    println!(
        "{}: {} dffs, {} faults x {sequences} sequences x {frames} frames: \
         {detected} detected ({:.1}% coverage), {state_needed} only beyond frame 0, \
         in {elapsed:.3} s, backend {backend}, {} thread(s)",
        cut.name(),
        cut.num_state_elements(),
        faults.len(),
        outcome.coverage * 100.0,
        if options.threads == 0 {
            "auto".to_owned()
        } else {
            options.threads.to_string()
        },
    );
    Ok(())
}

fn cmd_stats(rest: &[String]) -> Result<(), CliError> {
    check_flags("stats", rest, &["--rho"], &["--memory"])?;
    let path = rest
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or_else(|| CliError::usage(USAGE))?;
    let cut = load(path)?;
    let depth = iddq_netlist::levelize::depth(&cut);
    println!(
        "{}: {} inputs, {} outputs, {} gates, depth {}",
        cut.name(),
        cut.num_inputs(),
        cut.num_outputs(),
        cut.gate_count(),
        depth
    );
    let mut by_kind: std::collections::BTreeMap<String, usize> = Default::default();
    for g in cut.gate_ids() {
        let node = cut.node(g);
        let kind = node.kind().cell_kind().expect("gate");
        let n = node.fanin().len();
        let cell = if n > 1 {
            format!("{kind}{n}")
        } else {
            kind.to_string()
        };
        *by_kind.entry(cell).or_default() += 1;
    }
    for (cell, count) in by_kind {
        println!("  {cell:<8} {count}");
    }
    if rest.iter().any(|a| a == "--memory") {
        report_memory(&cut, rest)?;
    }
    Ok(())
}

/// Formats a byte count with a binary-unit suffix.
fn human_bytes(bytes: usize) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= 1024.0 * MIB {
        format!("{:.2} GiB", b / (1024.0 * MIB))
    } else if b >= MIB {
        format!("{:.2} MiB", b / MIB)
    } else if b >= 1024.0 {
        format!("{:.1} KiB", b / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

/// The `stats --memory` report: measured (capacity-accurate) footprints
/// of every engine representation of the circuit, each with its per-node
/// byte budget. This is the scaling proof for million-gate circuits —
/// the mutable graph is the only per-node-allocating structure; every
/// engine compiles into flat `u32`-indexed arrays whose per-node cost is
/// independent of circuit size.
fn report_memory(cut: &Netlist, rest: &[String]) -> Result<(), CliError> {
    let default_rho = PartitionConfig::paper_default().rho;
    let rho: u32 = parse_num(rest, "--rho", default_rho)?;
    if rho == 0 {
        return Err(CliError::usage("--rho must be at least 1"));
    }
    let nodes = cut.node_count();
    let line = |label: &str, bytes: usize, note: &str| {
        println!(
            "  {label:<22} {:>12}  ({:>7.1} B/node){}{note}",
            human_bytes(bytes),
            bytes as f64 / nodes.max(1) as f64,
            if note.is_empty() { "" } else { "  " },
        );
    };
    println!("memory at {nodes} nodes:");
    line("netlist graph", cut.memory_bytes(), "mutable front door");
    let sim = iddq_logicsim::Simulator::new(cut);
    line("csr schedule", sim.memory_bytes(), "immutable sweep kernel");
    for width in iddq_netlist::LaneWidth::ALL {
        let bytes = nodes * width.lanes() as usize / 8;
        line(&format!("packed values @{width}"), bytes, "one value/lane");
    }
    let delta = iddq_logicsim::delta::DeltaSim::<u64>::new(cut);
    line(
        "delta engine @64",
        delta.memory_bytes(),
        "incremental fault-patch state",
    );
    let control = RunControl::unlimited();
    let oracle =
        iddq_netlist::separation::SeparationOracle::new_streamed_with_control(cut, rho, &control)
            .into_value();
    line(
        &format!("separation oracle p{rho}"),
        oracle.memory_bytes(),
        &format!("{} entries, streamed build", oracle.entry_count()),
    );
    let table = iddq_netlist::separation::GateSeparationTable::direct(cut, rho, 1);
    line(
        &format!("gate-sep table p{rho}"),
        table.memory_bytes(),
        &format!("{} entries", table.entry_count()),
    );
    Ok(())
}

/// Per-node byte ceilings the `scale` check asserts. Generous versus the
/// measured footprints (~160 B/node graph, ~18 B/node CSR on the mega
/// profile) so only a genuine layout regression — a per-node allocation,
/// an index widened past u32, struct padding — trips them.
const SCALE_MAX_GRAPH_BYTES_PER_NODE: f64 = 256.0;
const SCALE_MAX_CSR_BYTES_PER_NODE: f64 = 48.0;

/// The `scale` command: a fast scale-regression check on a generated
/// mega-circuit. One wall-clock [`RunBudget`] spans every phase —
/// generation, CSR build, one full 64-pattern sweep, a GateSep analysis
/// context, and one resynthesis probe (apply + rollback, asserted to
/// restore the cost bit-identically) — so a regression that makes any
/// phase crawl fails fast instead of hanging CI, and the per-node memory
/// ceilings catch packed-state layout regressions.
fn cmd_scale(rest: &[String]) -> Result<(), CliError> {
    use iddq_core::{AnalysisTier, EvalContext, ResynthEval};
    check_flags(
        "scale",
        rest,
        &["--gates", "--seed", "--rho", "--budget-ms"],
        &["--smoke"],
    )?;
    let smoke = rest.iter().any(|a| a == "--smoke");
    let gates: usize = parse_num(rest, "--gates", if smoke { 100_000 } else { 1_000_000 })?;
    if gates == 0 {
        return Err(CliError::usage("--gates must be at least 1"));
    }
    let seed: u64 = parse_num(rest, "--seed", 0x5ca1e)?;
    let rho: u32 = parse_num(rest, "--rho", 3)?;
    if rho == 0 {
        return Err(CliError::usage("--rho must be at least 1"));
    }
    let budget_ms: u64 = parse_num(rest, "--budget-ms", if smoke { 60_000 } else { 600_000 })?;
    let control = RunControl::with_budget(
        RunBudget::unlimited().with_timeout(std::time::Duration::from_millis(budget_ms)),
    );
    let gate = |phase: &str| -> Result<(), CliError> {
        match control.check() {
            None => Ok(()),
            Some(reason) => Err(format!(
                "scale check over its {budget_ms} ms budget after {phase} ({reason})"
            )
            .into()),
        }
    };

    // Same profile as the bench's `scale` section, so the two agree on
    // what "the 10^5/10^6-gate circuit" means.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let inputs = ((gates as f64).sqrt().round() as usize).max(64);
    let t0 = Instant::now();
    let nl = iddq_gen::mega::generate(&iddq_gen::mega::MegaConfig {
        gates,
        inputs,
        depth: 16,
        seed,
    });
    let t_gen = t0.elapsed().as_secs_f64();
    gate("generation")?;

    let nodes = nl.node_count();
    let t0 = Instant::now();
    let sim = iddq_logicsim::Simulator::new(&nl);
    let t_build = t0.elapsed().as_secs_f64();
    gate("CSR build")?;
    let graph_per_node = nl.memory_bytes() as f64 / nodes as f64;
    let csr_per_node = sim.memory_bytes() as f64 / nodes as f64;
    println!(
        "mega {gates}: gen {t_gen:.2} s, csr build {t_build:.2} s; graph {} \
         ({graph_per_node:.1} B/node), csr {} ({csr_per_node:.1} B/node)",
        human_bytes(nl.memory_bytes()),
        human_bytes(sim.memory_bytes()),
    );
    if graph_per_node > SCALE_MAX_GRAPH_BYTES_PER_NODE {
        return Err(format!(
            "netlist graph at {graph_per_node:.1} B/node exceeds the \
             {SCALE_MAX_GRAPH_BYTES_PER_NODE:.0} B/node ceiling"
        )
        .into());
    }
    if csr_per_node > SCALE_MAX_CSR_BYTES_PER_NODE {
        return Err(format!(
            "csr schedule at {csr_per_node:.1} B/node exceeds the \
             {SCALE_MAX_CSR_BYTES_PER_NODE:.0} B/node ceiling"
        )
        .into());
    }

    let input_words: Vec<u64> = (0..nl.num_inputs() as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .collect();
    let mut values = vec![0u64; sim.node_count()];
    let t0 = Instant::now();
    sim.eval_into(&input_words, &mut values);
    let t_sweep = t0.elapsed().as_secs_f64();
    gate("the full sweep")?;
    println!("  sweep: 64 patterns end-to-end in {:.1} ms", t_sweep * 1e3);

    let library = Library::generic_1um();
    let mut config = PartitionConfig::paper_default();
    config.rho = rho;
    let t0 = Instant::now();
    let ctx = EvalContext::builder(&nl, &library, config)
        .tier(AnalysisTier::GateSep)
        .build();
    let t_ctx = t0.elapsed().as_secs_f64();
    gate("the analysis context build")?;

    let widest = nl
        .gate_ids()
        .max_by_key(|&g| nl.node(g).fanin().len())
        .expect("a generated mega-circuit always has gates");
    let probe = iddq_synth::decompose_gate_patch(
        &nl,
        widest,
        iddq_synth::DecompositionStyle::Chain,
        2,
        nl.node_count() as u32,
    )?
    .ok_or_else(|| "the widest mega gate always decomposes".to_owned())?;
    let mut eval = ResynthEval::new(&ctx);
    let cost_before = eval.total_cost();
    let t0 = Instant::now();
    let impact = eval
        .apply(&probe)
        .map_err(|e| format!("scale probe: {e}"))?;
    eval.rollback();
    let t_probe = t0.elapsed().as_secs_f64();
    gate("the resynthesis probe")?;
    let cost_after = eval.total_cost();
    if cost_after.to_bits() != cost_before.to_bits() {
        return Err(
            format!("probe rollback is not bit-identical: {cost_before} -> {cost_after}").into(),
        );
    }
    println!(
        "  probe: context (rho {rho}) {t_ctx:.2} s; decompose gate {} \
         ({} ops, {} rows rescored) apply+rollback in {:.1} ms, \
         cost restored bit-identically",
        nl.node_name(widest),
        probe.ops.len(),
        impact.separation_recomputed,
        t_probe * 1e3,
    );
    println!(
        "scale OK: {gates} gates within the {:.0} s budget",
        budget_ms as f64 / 1e3
    );
    Ok(())
}

fn cmd_serve(rest: &[String]) -> Result<(), CliError> {
    use iddq_serve::{Client, Server, ServerConfig};

    check_flags(
        "serve",
        rest,
        &[
            "--addr",
            "--workers",
            "--queue",
            "--cache-mb",
            "--state-dir",
            "--rho",
            "--budget-ms",
            "--max-secs",
            "--call",
            "--retries",
            "--retry-seed",
        ],
        &["--smoke"],
    )?;
    if rest.iter().any(|a| a == "--smoke") {
        let report = iddq_serve::run_smoke()?;
        for check in &report.checks {
            println!("smoke ok: {check}");
        }
        println!("serve smoke OK: {} checks passed", report.checks.len());
        return Ok(());
    }

    let addr = parse_flag(rest, "--addr");
    if let Some(request) = parse_flag(rest, "--call") {
        // One-shot client mode.
        let addr = addr.ok_or_else(|| CliError::usage("--call needs --addr HOST:PORT"))?;
        let value: serde_json::Value = serde_json::from_str(&request)
            .map_err(|e| CliError::usage(format!("--call expects a JSON request: {e}")))?;
        let retries: u32 = parse_num(rest, "--retries", 3)?;
        let retry_seed: u64 = parse_num(rest, "--retry-seed", 0x1dd9)?;
        let mut client = Client::connect(&addr)?;
        let response =
            client.call_with_retry(&value, &iddq_serve::RetryPolicy::new(retries, retry_seed))?;
        println!("{}", serde_json::to_string(&response).unwrap_or_default());
        if response["status"] == "error" {
            return Err(format!(
                "server answered with an error: {}",
                response["error"]["message"].as_str().unwrap_or("unknown")
            )
            .into());
        }
        return Ok(());
    }

    let workers: usize = parse_num(rest, "--workers", 2)?;
    let queue: usize = parse_num(rest, "--queue", 16)?;
    let cache_mb: usize = parse_num(rest, "--cache-mb", 64)?;
    let rho: u32 = parse_num(rest, "--rho", 6)?;
    if workers == 0 || queue == 0 || rho == 0 {
        return Err(CliError::usage(
            "--workers, --queue and --rho must be at least 1",
        ));
    }
    let budget_ms: Option<u64> = parse_opt_num(rest, "--budget-ms")?;
    let max_secs: Option<u64> = parse_opt_num(rest, "--max-secs")?;
    let state_dir = parse_flag(rest, "--state-dir").unwrap_or_else(|| ".iddq-serve".into());
    let config = ServerConfig {
        addr: addr.unwrap_or_else(|| "127.0.0.1:0".into()),
        workers,
        queue_capacity: queue,
        cache_bytes: cache_mb << 20,
        state_dir: state_dir.into(),
        rho,
        global_budget: match budget_ms {
            None => RunBudget::unlimited(),
            Some(ms) => RunBudget::unlimited().with_timeout(std::time::Duration::from_millis(ms)),
        },
        ..ServerConfig::default()
    };
    let server = Server::start(config)?;
    // The address line is the startup contract: callers parse it to
    // learn the port when binding to :0.
    println!("listening on {}", server.local_addr());
    let drain = server.drain_signal();
    let deadline = max_secs.map(|s| Instant::now() + std::time::Duration::from_secs(s));
    // Serve until a client sends `drain` (or the kill token fires, or
    // --max-secs elapses), then finish accepted work and exit.
    loop {
        if drain.is_draining() || deadline.is_some_and(|d| Instant::now() >= d) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let metrics = server.shutdown(std::time::Duration::from_secs(30));
    println!(
        "drained: {} completed, {} shed, {} partial, {} degraded, {} panics, {} restarts",
        metrics["completed"].as_u64().unwrap_or(0),
        metrics["shed"].as_u64().unwrap_or(0),
        metrics["partial"].as_u64().unwrap_or(0),
        metrics["degraded"].as_u64().unwrap_or(0),
        metrics["panics_caught"].as_u64().unwrap_or(0),
        metrics["worker_restarts"].as_u64().unwrap_or(0),
    );
    Ok(())
}

fn cmd_chaos(rest: &[String]) -> Result<(), CliError> {
    use iddq_serve::ChaosOptions;

    check_flags("chaos", rest, &[], &["--smoke"])?;
    let options = if rest.iter().any(|a| a == "--smoke") {
        ChaosOptions::smoke()
    } else {
        ChaosOptions::full()
    };
    let schedules = options.sweep_schedules;
    println!("chaos: {schedules} sweep crash/restart schedules...");
    // Any violated invariant surfaces here as a seed-stamped message
    // (exit 1); reaching the report means every schedule held.
    let report = iddq_serve::run_chaos(&options)?;
    println!(
        "  {} restarts survived, {} corrupt checkpoints recovered, \
         {} checkpoint saves failed typed",
        report.restarts, report.checkpoint_recoveries, report.save_failures
    );
    println!(
        "chaos OK: {schedules} schedules, {} faults injected, every digest bit-identical",
        report.faults_injected
    );
    Ok(())
}
