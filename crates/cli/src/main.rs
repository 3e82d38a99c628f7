//! `iddq` — command-line front end for the IDDQ-testability synthesis
//! flow.
//!
//! Every subcommand is one row of [`COMMANDS`]: its positional argument
//! (if any) and a table of its flags, each with a value [`Kind`], a
//! default and a help line. [`Args::parse`] checks the whole command
//! line against that table before the command reads any file, and
//! `iddq help` is generated from the same rows, so the accepted flags and
//! the usage text cannot drift apart.
//!
//! Exit codes follow the usual discipline: `0` for success (including a
//! budget-limited *partial* fault sweep, which reports its coverage),
//! `2` for usage errors (unknown commands and flags, missing, ill-typed
//! or repeated values, stray or missing arguments, a flag without its
//! required companion, bad bounds), `1` for runtime failures (unreadable
//! files, parse errors, checkpoint mismatches).

use std::any::TypeId;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Instant;

use iddq_celllib::Library;
use iddq_control::{write_atomic, EngineError, RunBudget, RunControl};
use iddq_core::evolution::EvolutionConfig;
use iddq_core::{config::PartitionConfig, flow, EvalContext};
use iddq_logicsim::{random_sim, BackendKind};
use iddq_netlist::separation::GateSeparationTable;
use iddq_netlist::{at_lanes, bench, dot, LaneWidth, Netlist};

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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = argv.split_first() else {
        eprint!("{}", help());
        return ExitCode::from(2);
    };
    let name = match name.as_str() {
        "--help" | "-h" => "help",
        other => other,
    };
    let result = match COMMANDS.iter().find(|c| c.name == name) {
        Some(cmd) => Args::parse(cmd, rest).and_then(|args| (cmd.run)(&args)),
        None => Err(CliError::usage(format!(
            "unknown command `{name}`\n{}",
            help()
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

/// What a flag's value must parse as. [`Args::parse`] checks every
/// given value against its kind, and the accessors read it back as the
/// kind's Rust type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// No value: giving the flag is the setting.
    Switch,
    U32,
    U64,
    Usize,
    F64,
    /// A `usize` worker count; `0` means every core.
    Threads,
    /// A [`LaneWidth`], or `auto` for [`LaneWidth::for_sweep`].
    Lanes,
    Backend,
    /// Free text: a path, an address, a JSON request.
    Text,
}

impl Kind {
    /// Checks `value` against this kind; `positive` also rejects zero.
    /// A float must be finite and not negative.
    fn check(self, value: &str, positive: bool) -> Result<(), String> {
        fn number<T: FromStr + Default + PartialEq>(
            value: &str,
            positive: bool,
        ) -> Result<(), String> {
            match value.parse::<T>() {
                Ok(n) if positive && n == T::default() => {
                    Err("expected at least 1, got `0`".into())
                }
                Ok(_) => Ok(()),
                Err(_) => Err(format!("expected a number, got `{value}`")),
            }
        }
        match self {
            Kind::Switch | Kind::Text => Ok(()),
            Kind::U32 => number::<u32>(value, positive),
            Kind::U64 => number::<u64>(value, positive),
            Kind::Usize | Kind::Threads => number::<usize>(value, positive),
            Kind::F64 => match value.parse::<f64>() {
                Ok(x) if !x.is_finite() || x < 0.0 => Err(format!(
                    "expected a finite non-negative number, got `{value}`"
                )),
                Ok(x) if positive && x == 0.0 => {
                    Err(format!("expected a number above 0, got `{value}`"))
                }
                Ok(_) => Ok(()),
                Err(_) => Err(format!("expected a number, got `{value}`")),
            },
            Kind::Lanes if value == "auto" => Ok(()),
            Kind::Lanes => value
                .parse::<LaneWidth>()
                .map(drop)
                .map_err(|e| e.to_string()),
            Kind::Backend => value
                .parse::<BackendKind>()
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }

    /// The Rust type the accessors must read this kind as.
    fn value_type(self) -> TypeId {
        match self {
            Kind::Switch => TypeId::of::<bool>(),
            Kind::U32 => TypeId::of::<u32>(),
            Kind::U64 => TypeId::of::<u64>(),
            Kind::Usize | Kind::Threads => TypeId::of::<usize>(),
            Kind::F64 => TypeId::of::<f64>(),
            Kind::Backend => TypeId::of::<BackendKind>(),
            Kind::Lanes | Kind::Text => TypeId::of::<String>(),
        }
    }
}

/// One row of a command's flag table.
#[derive(Debug)]
struct Flag {
    /// The flag and its value's placeholder, as `iddq help` shows them:
    /// `--seed N`, or a bare `--resynth` for a switch.
    spec: &'static str,
    kind: Kind,
    /// The value used when the flag is not given (and shown by `help`);
    /// empty when the command has no fixed default.
    default: &'static str,
    help: &'static str,
    /// A flag this one is meaningless without; empty when none.
    needs: &'static str,
    /// Flags selecting a mode this one is meaningless in; empty when
    /// none.
    excludes: &'static [&'static str],
    /// Zero is rejected.
    positive: bool,
}

const fn flag(spec: &'static str, kind: Kind, default: &'static str, help: &'static str) -> Flag {
    Flag {
        spec,
        kind,
        default,
        help,
        needs: "",
        excludes: &[],
        positive: false,
    }
}

impl Flag {
    const fn needs(self, companion: &'static str) -> Flag {
        Flag {
            needs: companion,
            ..self
        }
    }

    const fn excludes(self, modes: &'static [&'static str]) -> Flag {
        Flag {
            excludes: modes,
            ..self
        }
    }

    const fn positive(self) -> Flag {
        Flag {
            positive: true,
            ..self
        }
    }

    fn name(&self) -> &'static str {
        self.spec.split(' ').next().unwrap_or(self.spec)
    }
}

/// One subcommand: its positional argument (empty when it takes none),
/// what it does, its flags, and the function that runs it.
struct Command {
    name: &'static str,
    arg: &'static str,
    about: &'static str,
    flags: &'static [Flag],
    run: fn(&Args) -> Result<(), CliError>,
}

use Kind::{Backend, Lanes, Switch, Text, Threads, Usize, F64, U32, U64};

/// The `serve` modes that run no daemon, so the daemon's flags are
/// rejected under them.
const CLIENT_MODES: &[&str] = &["--call", "--smoke"];

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command { name: "synth", arg: "<netlist.bench>", run: cmd_synth,
        about: "partition a circuit and size its BIC sensors",
        flags: &[
            flag("--seed N", U64, "42", "optimizer seed"),
            flag("--generations N", Usize, "250", "evolution generations"),
            flag("--d N", F64, "10", "required discriminability"),
            flag("--rstar MV", F64, "200", "virtual-rail budget in mV").positive(),
            flag("--fanout N", Usize, "", "buffer fan-out above N first (N >= 2)"),
            flag("--resynth", Switch, "", "run cost-aware resynthesis first: each wide gate \
                keeps the decomposition shape (balanced, chain or none) that lowers the cost, \
                scored by patch probes on one persistent evaluation"),
            flag("--per-gate", Switch, "", "redundant, since --resynth implies it (the \
                per-gate search is the only resynthesis mode)").needs("--resynth"),
            flag("--json PATH", Text, "", "write the full report as JSON"),
            flag("--dot PATH", Text, "", "write a module-coloured Graphviz graph"),
            flag("--modules PATH", Text, "", "write `gate module` assignment lines"),
            flag("--threads N", Threads, "0", "worker threads for the analyses and the \
                evolution; 0 = all cores, and any count gives the same result"),
        ] },
    Command { name: "gen", arg: "<circuit>", run: cmd_gen,
        about: "emit a synthetic benchmark netlist: c* names are ISCAS-85-like \
            combinational circuits, s* names ISCAS-89-like sequential ones (with DFFs)",
        flags: &[
            flag("--seed N", U64, "42", "generation seed"),
            flag("--out PATH", Text, "", "output path (default stdout)"),
        ] },
    Command { name: "test", arg: "<netlist.bench>", run: cmd_test,
        about: "run the IDDQ defect-detection experiment",
        flags: &[
            flag("--seed N", U64, "42", "defect/ATPG seed"),
            flag("--frames N", Usize, "1", "frames per test sequence; sequential circuits \
                reach state-dependent defects at N > 1").positive(),
            flag("--threads N", Threads, "0", "worker threads for the analyses, the evolution \
                and the IDDQ sweep; 0 = all cores, and any count gives the same result"),
        ] },
    Command { name: "sim", arg: "<netlist.bench>", run: cmd_sim,
        about: "measure logic-simulation throughput (wide CSR kernel)",
        flags: &[
            flag("--patterns N", U64, "1048576", "number of random patterns").positive(),
            flag("--seed N", U64, "42", "pattern seed"),
            flag("--threads N", Threads, "1", "worker threads sharing the pattern stream; \
                0 = all cores"),
            flag("--lanes L", Lanes, "256", "patterns per sweep: 64 | 256 | 512, or `auto` \
                for the widest that the patterns' sequences fill"),
            flag("--frames N", Usize, "1", "frames per sequence: each lane then carries one \
                N-frame sequence from the all-zero reset state, stepped through the DFF \
                boundary").positive(),
        ] },
    Command { name: "faults", arg: "<netlist.bench>", run: cmd_faults,
        about: "run the stuck-at/bridge fault-patch sweep",
        flags: &[
            flag("--seed N", U64, "42", "vector/bridge seed"),
            flag("--vectors N", Usize, "256", "number of random test vectors").positive(),
            flag("--bridges N", Usize, "32", "number of sampled bridge faults"),
            flag("--backend B", Backend, "delta", "delta = fault-patch engine, csr = per-fault \
                full re-simulation oracle"),
            flag("--lanes L", Lanes, "auto", "sequences per sweep: 64 | 256 | 512, or `auto` \
                for the checkpoint's width on --resume, else the widest that the sweep's \
                sequences (vectors / frames) fill; a resume at another width is refused"),
            flag("--threads N", Threads, "1", "worker threads; 0 = all cores"),
            flag("--shards N", Usize, "0", "fault-list shards; 0 = auto"),
            flag("--no-drop", Switch, "", "disable earliest-detection fault dropping"),
            flag("--frames N", Usize, "1", "frames per sequence: vectors are consumed \
                sequence-major (N consecutive vectors per sequence from the all-zero reset \
                state), a fault's earliest detection is the first (sequence, frame) that \
                exposes it, and N > 1 also reports how many faults are detected only \
                beyond frame 0, i.e. need latched state").positive(),
            flag("--budget-ms MS", U64, "", "wall-clock budget; on expiry the sweep stops at \
                the next batch boundary and reports a partial (still exit 0) coverage"),
            flag("--quota N", U64, "", "work budget in fault x pattern applications"),
            flag("--checkpoint PATH", Text, "", "write a resumable checkpoint (atomic rename)"),
            flag("--resume PATH", Text, "", "resume from a checkpoint written by \
                --checkpoint; a resumed run that completes is bit-identical to an \
                uninterrupted one"),
        ] },
    Command { name: "stats", arg: "<netlist.bench>", run: cmd_stats,
        about: "print structural statistics",
        flags: &[
            flag("--memory", Switch, "", "also report the memory footprint of every engine \
                representation (graph, CSR schedule, packed values, delta state, gate-sep \
                table)"),
            flag("--rho N", U32, "6", "separation saturation bound").needs("--memory").positive(),
        ] },
    Command { name: "scale", arg: "", run: cmd_scale,
        about: "scale regression check on a generated mega-circuit: build the CSR kernel, \
            run one full sweep, build a GateSep analysis context, and score one \
            resynthesis probe (apply + bit-identical rollback), all under one wall-clock \
            RunBudget, with per-node memory asserted against fixed byte ceilings",
        flags: &[
            flag("--smoke", Switch, "", "10^5 gates under a 60 s budget (default: 10^6 gates \
                under 600 s)"),
            flag("--gates N", Usize, "", "override the gate count").positive(),
            flag("--seed N", U64, "379422", "generation seed: the bench's 0x5ca1e"),
            flag("--rho N", U32, "3", "separation saturation bound").positive(),
            flag("--budget-ms MS", U64, "", "override the wall-clock budget"),
        ] },
    Command { name: "serve", arg: "", run: cmd_serve,
        about: "run the hardened fault-simulation service (JSON-lines over TCP; see \
            crates/serve docs for the protocol, failure semantics and runbook)",
        flags: &[
            flag("--addr A", Text, "127.0.0.1:0", "bind address, printed once bound as \
                `listening on ADDR`; with --call, the server to call"),
            flag("--workers N", Usize, "2", "worker threads").positive()
                .excludes(CLIENT_MODES),
            flag("--queue N", Usize, "16", "admission queue capacity").positive()
                .excludes(CLIENT_MODES),
            flag("--cache-mb N", Usize, "64", "artifact-cache memory ceiling in MiB")
                .excludes(CLIENT_MODES),
            flag("--state-dir DIR", Text, ".iddq-serve", "checkpoint directory")
                .excludes(CLIENT_MODES),
            flag("--rho N", U32, "6", "separation bound for stats tiers").positive()
                .excludes(CLIENT_MODES),
            flag("--budget-ms MS", U64, "", "global budget composed into every request")
                .excludes(CLIENT_MODES),
            flag("--max-secs S", U64, "", "serve for S seconds, then drain and exit")
                .excludes(CLIENT_MODES),
            flag("--smoke", Switch, "", "run the end-to-end smoke scenario and exit"),
            flag("--call JSON", Text, "", "one-shot client mode: send one request line, \
                print the response line, exit (exit 1 when the server answers \
                status=error)").needs("--addr"),
            flag("--retries N", U32, "3", "retry `overloaded` responses up to N times with \
                jittered exponential backoff, honoring the server's retry_after_ms hint; \
                0 = fail fast").needs("--call"),
            flag("--retry-seed N", U64, "7641", "seed of the deterministic retry jitter")
                .needs("--call"),
        ] },
    Command { name: "chaos", arg: "", run: cmd_chaos,
        about: "deterministic fault-injection suite over the serving path: checkpointed \
            sweeps completed through seeded crash/restart schedules under ENOSPC / \
            torn-write / failed-rename / corrupt-read faults (digest bit-identical to an \
            uninterrupted run); any violation exits 1 with the offending seed",
        flags: &[
            flag("--smoke", Switch, "", "a dozen fixed seeds (seconds, the CI leg) instead of \
                the full 200+ schedule sweep"),
        ] },
    Command { name: "help", arg: "", run: cmd_help,
        about: "print this help", flags: &[] },
];

/// A command line checked against its command's table: the positional
/// argument (empty when the command takes none) and every given flag
/// with its value (empty for a switch).
struct Args {
    cmd: &'static Command,
    arg: String,
    given: Vec<(&'static str, String)>,
}

impl Args {
    /// Checks all of `argv` against `cmd`'s table. Any unknown flag,
    /// missing or ill-typed value, repeated flag, stray or missing
    /// positional argument, or flag given without its companion is a
    /// usage error naming the offending token.
    fn parse(cmd: &'static Command, argv: &[String]) -> Result<Args, CliError> {
        let name = cmd.name;
        let error = |what: String| CliError::usage(format!("{what} (see `iddq help`)"));
        let mut args = Args {
            cmd,
            arg: String::new(),
            given: Vec::new(),
        };
        let mut tokens = argv.iter();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                if cmd.arg.is_empty() || !args.arg.is_empty() {
                    return Err(error(format!("stray argument `{token}` for `iddq {name}`")));
                }
                args.arg.clone_from(token);
                continue;
            }
            let Some(flag) = cmd.flags.iter().find(|f| f.name() == token) else {
                return Err(error(format!("unknown flag `{token}` for `iddq {name}`")));
            };
            if args.given.iter().any(|(given, _)| given == token) {
                return Err(error(format!(
                    "flag `{token}` of `iddq {name}` given twice"
                )));
            }
            let mut value = String::new();
            if flag.kind != Kind::Switch {
                let Some(v) = tokens.next() else {
                    return Err(error(format!(
                        "flag `{token}` of `iddq {name}` expects a value"
                    )));
                };
                flag.kind
                    .check(v, flag.positive)
                    .map_err(|why| error(format!("flag `{token}` of `iddq {name}`: {why}")))?;
                value.clone_from(v);
            }
            args.given.push((flag.name(), value));
        }
        if !cmd.arg.is_empty() && args.arg.is_empty() {
            return Err(error(format!("`iddq {name}` expects {}", cmd.arg)));
        }
        for (given, _) in &args.given {
            let flag = args.flag(given);
            if !flag.needs.is_empty() && !args.has(flag.needs) {
                return Err(error(format!(
                    "flag `{given}` of `iddq {name}` needs `{}`",
                    flag.needs
                )));
            }
            if let Some(mode) = flag.excludes.iter().find(|mode| args.has(mode)) {
                return Err(error(format!(
                    "flag `{given}` of `iddq {name}` does nothing with `{mode}`"
                )));
            }
        }
        Ok(args)
    }

    /// The table row of `name`.
    ///
    /// # Panics
    ///
    /// Panics if the command's table lacks `name`, so a flag the code
    /// reads but the table omits fails the first test that reaches it.
    fn flag(&self, name: &str) -> &'static Flag {
        let cmd = self.cmd;
        cmd.flags
            .iter()
            .find(|f| f.name() == name)
            .unwrap_or_else(|| panic!("`iddq {}` has no flag `{name}` in its table", cmd.name))
    }

    /// Whether `name` was given: a switch's only setting.
    fn has(&self, name: &str) -> bool {
        self.flag(name);
        self.given.iter().any(|(given, _)| *given == name)
    }

    /// The value of `name` as `T`, or its table default; `None` when it
    /// was not given and has no default.
    ///
    /// # Panics
    ///
    /// Panics if `T` is not the Rust type of the flag's [`Kind`].
    fn opt<T: FromStr + 'static>(&self, name: &str) -> Option<T> {
        let flag = self.flag(name);
        assert!(
            flag.kind.value_type() == TypeId::of::<T>(),
            "`{name}` is read as another type than its {:?} kind",
            flag.kind
        );
        let text = match self.given.iter().find(|(given, _)| *given == name) {
            Some((_, value)) => value.as_str(),
            None if flag.default.is_empty() => return None,
            None => flag.default,
        };
        let value = text.parse();
        Some(value.unwrap_or_else(|_| panic!("`{name}` value `{text}` passed its kind check")))
    }

    /// The value of `name`, or its table default.
    ///
    /// # Panics
    ///
    /// As [`Args::opt`], and if the flag has no table default.
    fn get<T: FromStr + 'static>(&self, name: &str) -> T {
        self.opt(name)
            .unwrap_or_else(|| panic!("`{name}` has no table default"))
    }

    /// `--threads`, with `0` resolved to every core the machine reports.
    fn threads(&self) -> usize {
        match self.get("--threads") {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// `--lanes`, or `None` for `auto`.
    fn lanes(&self) -> Option<LaneWidth> {
        match self.get::<String>("--lanes").as_str() {
            "auto" => None,
            width => Some(width.parse().expect("checked by the flag table")),
        }
    }
}

/// Column where help text starts, and the width it wraps at.
const HELP_COLUMN: usize = 26;
const HELP_WIDTH: usize = 80;

/// `iddq help`, generated from [`COMMANDS`].
fn help() -> String {
    let mut out = String::from(
        "iddq — synthesis of IDDQ-testable circuits (Wunderlich et al., DATE 1995)\n\ncommands:\n",
    );
    for cmd in COMMANDS {
        help_entry(
            &mut out,
            format!("  {} {}", cmd.name, cmd.arg).trim_end(),
            cmd.about,
        );
        for flag in cmd.flags {
            let mut text = flag.help.to_owned();
            if !flag.needs.is_empty() {
                text = format!("with {}: {text}", flag.needs);
            }
            if !flag.excludes.is_empty() {
                text = format!("not with {}: {text}", flag.excludes.join(" or "));
            }
            if !flag.default.is_empty() {
                text = format!("{text} (default {})", flag.default);
            }
            help_entry(&mut out, &format!("      {}", flag.spec), &text);
        }
    }
    out
}

/// Appends `head` (narrower than [`HELP_COLUMN`]), then `text`
/// word-wrapped from that column.
fn help_entry(out: &mut String, head: &str, text: &str) {
    let mut line = format!("{head:<HELP_COLUMN$}");
    for word in text.split_whitespace() {
        if line.len() > HELP_COLUMN && line.len() + 1 + word.len() > HELP_WIDTH {
            out.push_str(&line);
            out.push('\n');
            line = " ".repeat(HELP_COLUMN);
        }
        if line.len() > HELP_COLUMN {
            line.push(' ');
        }
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

fn cmd_help(_: &Args) -> Result<(), CliError> {
    print!("{}", help());
    Ok(())
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

/// [`load`] for the commands that partition the gates: a netlist without
/// any is rejected before an engine runs.
fn load_gates(path: &str) -> Result<Netlist, CliError> {
    let cut = load(path)?;
    if cut.gate_count() == 0 {
        return Err(EngineError::Structure(format!("`{path}` has no gates to partition")).into());
    }
    Ok(cut)
}

fn cmd_synth(args: &Args) -> Result<(), CliError> {
    let mut cut = load_gates(&args.arg)?;
    let mut config = PartitionConfig::paper_default();
    config.d_min = args.get("--d");
    config.sizing.r_star_mv = args.get("--rstar");
    let library = Library::generic_1um();

    if let Some(bound) = args.opt::<usize>("--fanout") {
        // A bound below 2 is the caller's mistake — `fanout_buffer`
        // reports it as a typed InvalidArg, which maps to exit code 2.
        cut = iddq_synth::fanout_buffer(&cut, bound)?;
        eprintln!(
            "fan-out buffered at bound {bound}: {} gates",
            cut.gate_count()
        );
    }

    // The gate table the per-gate search ends holding: the evolution's
    // context is built around it instead of building it again.
    let mut handed_table = None;
    if args.has("--resynth") {
        // The analysis build and the search are timed separately so the
        // report shows where the wall-clock actually goes. The table is
        // built serially: stitching a sharded build raised the peak RSS
        // of s5378 from ~70 to ~87 MB and saved no measurable time.
        let t_analysis = Instant::now();
        let ctx = EvalContext::new(&cut, &library, config.clone());
        let analysis_secs = t_analysis.elapsed().as_secs_f64();
        let t_search = Instant::now();
        let (out, report, table) =
            iddq_synth::cost_aware_per_gate_in_with_control(&ctx, &RunControl::unlimited())
                .into_value();
        let search_secs = t_search.elapsed().as_secs_f64();
        eprintln!(
            "resynthesis (per-gate): original {:.1} -> mixed {:.1} \
             ({} balanced, {} chain, {} kept; {} of {} probes pruned); \
             analyses {analysis_secs:.3} s + search {search_secs:.3} s",
            report.original_cost,
            report.mixed_cost,
            report.balanced_gates,
            report.chain_gates,
            report.kept_gates,
            report.pruned_probes,
            report.probes
        );
        drop(ctx);
        cut = out;
        handed_table = table;
    }

    let evo = EvolutionConfig {
        generations: args.get("--generations"),
        threads: args.threads(),
        ..Default::default()
    };
    let seed = args.get("--seed");
    let result = match handed_table {
        Some(table) => {
            let ctx = EvalContext::builder(&cut, &library, config.clone())
                .sep_table(table)
                .build();
            flow::synthesize_in(&ctx, &evo, seed)
        }
        None => flow::synthesize_with(&cut, &library, &config, &evo, seed),
    };
    print_search_counters(&result);
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

    if let Some(json) = args.opt::<String>("--json") {
        let payload = serde_json::to_string_pretty(r).map_err(|e| e.to_string())?;
        write_atomic(std::path::Path::new(&json), &payload)?;
        eprintln!("wrote {json}");
    }
    if let Some(dot_path) = args.opt::<String>("--dot") {
        let part = result.partition.clone();
        let colour = move |id: iddq_netlist::NodeId| part.module_of(id).unwrap_or(0);
        write_atomic(
            std::path::Path::new(&dot_path),
            &dot::to_dot(&cut, Some(&colour)),
        )?;
        eprintln!("wrote {dot_path}");
    }
    if let Some(mods) = args.opt::<String>("--modules") {
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

/// One stderr line of evolution work counters: generations run,
/// partitions evaluated, and how many of them a cost lower bound decided
/// (Monte-Carlo descendants and mutations).
fn print_search_counters(result: &flow::SynthesisResult) {
    eprintln!(
        "evolution: {} generations, {} evaluations ({} Monte-Carlo descendants \
         and {} mutations pruned)",
        result.log.len(),
        result.evaluations,
        result.pruned,
        result.pruned_mutations
    );
}

fn cmd_gen(args: &Args) -> Result<(), CliError> {
    let name = &args.arg;
    let seed: u64 = args.get("--seed");
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
    match args.opt::<String>("--out") {
        Some(path) => {
            write_atomic(std::path::Path::new(&path), &text)?;
            eprintln!("wrote {path}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

fn cmd_test(args: &Args) -> Result<(), CliError> {
    let threads = args.threads();
    let cut = load_gates(&args.arg)?;
    let seed: u64 = args.get("--seed");
    let frames: usize = args.get("--frames");
    let library = Library::generic_1um();
    let config = PartitionConfig::paper_default();

    // The defect enumeration samples its bridges from the context's gate
    // table (the same universe lazy per-gate BFS balls would give).
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
    print_search_counters(&result);
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

fn cmd_sim(args: &Args) -> Result<(), CliError> {
    let cut = load(&args.arg)?;
    let patterns: u64 = args.get("--patterns");
    let seed: u64 = args.get("--seed");
    let threads = args.threads();
    let frames: usize = args.get("--frames");
    let lanes = args.lanes().unwrap_or_else(|| {
        LaneWidth::for_sweep(usize::try_from(patterns).unwrap_or(usize::MAX), frames)
    });
    at_lanes!(lanes, |W| run_sim::<W>(
        &cut, patterns, seed, threads, frames
    ));
    Ok(())
}

fn run_sim<W: iddq_netlist::PackedWord>(
    cut: &Netlist,
    patterns: u64,
    seed: u64,
    threads: usize,
    frames: usize,
) {
    // One batch is W::LANES lanes; with frames > 1 each lane carries one
    // whole sequence, so a batch covers LANES x frames vectors.
    let batches = patterns.div_ceil(u64::from(W::LANES) * frames as u64);
    let threads = threads.min(batches as usize);
    // Each worker owns a disjoint slice of the batches and its own seeded
    // pattern stream; the per-worker accumulators are folded in worker
    // order, so the checksum is deterministic for a fixed
    // (seed, threads, lanes, frames) tuple.
    let sim = iddq_logicsim::Simulator::new(cut);
    let unlimited = RunControl::unlimited();
    let worker = |t: usize| -> [u64; 4] {
        let seed = seed ^ (t as u64).wrapping_mul(0xa076_1d64_78bd_642f);
        let my_batches =
            batches / threads as u64 + u64::from((t as u64) < batches % threads as u64);
        random_sim::run::<W>(&sim, seed, my_batches, frames, &unlimited)
            .into_value()
            .acc
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
    let checksum = random_sim::fold_checksum(&accs);
    let elapsed = start.elapsed().as_secs_f64();
    let evaluated = batches * u64::from(W::LANES) * frames as u64;
    println!(
        "{}: {} gates, {evaluated} patterns in {elapsed:.3} s = {:.3e} patterns/s \
         ({:.3e} gate-evals/s), lanes {}, frames {frames}, \
         {threads} thread(s), value checksum {checksum:#018x}",
        cut.name(),
        cut.gate_count(),
        evaluated as f64 / elapsed,
        evaluated as f64 * cut.gate_count() as f64 / elapsed,
        W::LANES,
    );
}

fn cmd_faults(args: &Args) -> Result<(), CliError> {
    use iddq_control::RealEnv;
    use iddq_logicsim::fault_sweep::{
        fault_universe, random_vectors, FaultSweepOptions, LogicFault, SweepCheckpoint, SweepJob,
    };

    let cut = load(&args.arg)?;
    let seed: u64 = args.get("--seed");
    let num_vectors: usize = args.get("--vectors");
    let bridges: usize = args.get("--bridges");
    let backend: BackendKind = args.get("--backend");
    let frames: usize = args.get("--frames");
    let options = FaultSweepOptions {
        threads: args.get("--threads"),
        fault_shards: args.get("--shards"),
        fault_dropping: !args.has("--no-drop"),
        backend,
        frames,
        ..FaultSweepOptions::default()
    };
    let mut budget = RunBudget::unlimited();
    if let Some(ms) = args.opt("--budget-ms") {
        budget = budget.with_timeout(std::time::Duration::from_millis(ms));
    }
    if let Some(quota) = args.opt("--quota") {
        budget = budget.with_quota(quota);
    }
    let control = RunControl::with_budget(budget);

    // The same fault universe and vectors as a serve `faults` request.
    let faults = fault_universe(&cut, bridges, seed);
    let stuck_at_count = faults
        .iter()
        .filter(|f| matches!(f, LogicFault::StuckAt(_)))
        .count();
    let bridge_count = faults.len() - stuck_at_count;
    let vectors = random_vectors(&cut, num_vectors, seed);
    let resume = match args.opt::<String>("--resume") {
        Some(path) => Some(SweepCheckpoint::load_in(&RealEnv, path.as_ref())?),
        None => None,
    };
    let job = SweepJob::new(
        &cut,
        &faults,
        &vectors,
        &options,
        args.lanes(),
        resume.as_ref(),
    )?;
    let lanes = job.lanes();

    let start = std::time::Instant::now();
    let outcome = job.run(&control, resume.as_ref())?;
    if let Some(path) = args.opt::<String>("--checkpoint") {
        // Atomic: an interrupted write never destroys the previous file.
        let cp = job.checkpoint(&outcome);
        cp.save_in(&RealEnv, path.as_ref())?;
        eprintln!(
            "wrote checkpoint {path} ({:.1}% of the pattern grid done)",
            cp.progress() * 100.0
        );
    }
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
    if frames > 1 {
        // The sequential payoff: a first detection at frame > 0 of its
        // sequence means the exposing state was *reached*, not applied.
        let state_needed = outcome
            .first_detection
            .iter()
            .flatten()
            .filter(|&&v| v % frames > 0)
            .count();
        println!("{state_needed} detected only beyond frame 0");
        if backend == BackendKind::Delta {
            // Where the multi-frame work goes: an application is one
            // faulty machine superimposed for one frame, and the ones
            // carrying diverged latched state pin that many flops more.
            // With dropping, the detection bound skips a fault's later
            // frames once the batch caught it at lane 0, and runs the
            // others on the lanes below its detection.
            let work = outcome.work;
            eprintln!(
                "multi-frame work: {} faulty-machine applications, {} with diverged state \
                 (mean {:.1} flops pinned), {} node evaluations; detection bound: {} \
                 fault-frames skipped, {} applications narrowed",
                work.applications,
                work.diverged_applications,
                work.diverged_pins as f64 / work.diverged_applications.max(1) as f64,
                work.evaluations,
                work.skipped_frames,
                work.narrowed_applications,
            );
        }
    }
    if let Some(reason) = stop_reason {
        // A budget-limited sweep is a *successful* partial run (exit 0):
        // every detection it reports comes from fully completed pattern
        // batches, and the grid coverage says how much work remains.
        println!(
            "partial: stopped early ({reason}); {:.1}% of the fault x pattern grid completed{}",
            work_coverage * 100.0,
            if args.has("--checkpoint") {
                " -- resume with --resume <checkpoint>"
            } else {
                ""
            },
        );
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), CliError> {
    let cut = load(&args.arg)?;
    if args.has("--memory") {
        GateSeparationTable::check_capacity(cut.node_count(), args.get("--rho"))?;
    }
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
    if args.has("--memory") {
        report_memory(&cut, args.get("--rho"));
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
fn report_memory(cut: &Netlist, rho: u32) {
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
    let table = GateSeparationTable::direct(cut, rho, 1);
    line(
        &format!("gate-sep table p{rho}"),
        table.memory_bytes(),
        &format!("{} entries", table.entry_count()),
    );
}

/// Per-node byte ceilings the `scale` check asserts. Generous versus the
/// measured footprints (~160 B/node graph, ~18 B/node CSR on the mega
/// profile) so only a genuine layout regression — a per-node allocation,
/// an index widened past u32, struct padding — trips them.
const SCALE_MAX_GRAPH_BYTES_PER_NODE: f64 = 256.0;
const SCALE_MAX_CSR_BYTES_PER_NODE: f64 = 48.0;

/// The gate table's layout the `scale` check asserts: one packed `u32`
/// per entry, plus per node a `u32` row offset and a `u64` row total,
/// so wider entries cannot come back unnoticed.
const SCALE_MAX_TABLE_BYTES_PER_ENTRY: usize = 4;
const SCALE_TABLE_BYTES_PER_NODE: usize = 12;

/// The `scale` command: a fast scale-regression check on a generated
/// mega-circuit. One wall-clock [`RunBudget`] spans every phase —
/// generation, CSR build, one full 64-pattern sweep, a GateSep analysis
/// context, and one resynthesis probe (apply + rollback, asserted to
/// restore the cost bit-identically) — so a regression that makes any
/// phase crawl fails fast instead of hanging CI, and the per-node and
/// per-entry memory ceilings catch packed-state layout regressions. A
/// `--rho` too wide for the circuit's gate table is a usage error.
fn cmd_scale(args: &Args) -> Result<(), CliError> {
    use iddq_core::ResynthEval;
    let smoke = args.has("--smoke");
    let gates: usize = args
        .opt("--gates")
        .unwrap_or(if smoke { 100_000 } else { 1_000_000 });
    let seed: u64 = args.get("--seed");
    let rho: u32 = args.get("--rho");
    let budget_ms: u64 = args
        .opt("--budget-ms")
        .unwrap_or(if smoke { 60_000 } else { 600_000 });
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
    GateSeparationTable::check_capacity(nl.node_count(), rho)?;

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
    let ctx = EvalContext::new(&nl, &library, config);
    let t_ctx = t0.elapsed().as_secs_f64();
    gate("the analysis context build")?;
    let table = ctx.separation();
    let table_ceiling = SCALE_MAX_TABLE_BYTES_PER_ENTRY * table.entry_count()
        + SCALE_TABLE_BYTES_PER_NODE * (nodes + 1);
    println!(
        "  context: rho {rho} in {t_ctx:.2} s; gate table {} ({} entries, {:.2} B/entry)",
        human_bytes(table.memory_bytes()),
        table.entry_count(),
        table.memory_bytes() as f64 / table.entry_count().max(1) as f64,
    );
    if table.memory_bytes() > table_ceiling {
        return Err(format!(
            "gate table at {} bytes exceeds its {table_ceiling}-byte ceiling \
             ({SCALE_MAX_TABLE_BYTES_PER_ENTRY} B/entry + {SCALE_TABLE_BYTES_PER_NODE} B/node)",
            table.memory_bytes()
        )
        .into());
    }

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
        "  probe: decompose gate {} \
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

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    use iddq_serve::{Client, Server, ServerConfig};

    if args.has("--smoke") {
        let report = iddq_serve::run_smoke()?;
        for check in &report.checks {
            println!("smoke ok: {check}");
        }
        println!("serve smoke OK: {} checks passed", report.checks.len());
        return Ok(());
    }

    let addr: String = args.get("--addr");
    if let Some(request) = args.opt::<String>("--call") {
        // One-shot client mode; the table makes --addr explicit here.
        let value: serde_json::Value = serde_json::from_str(&request)
            .map_err(|e| CliError::usage(format!("--call expects a JSON request: {e}")))?;
        let retries: u32 = args.get("--retries");
        let retry_seed: u64 = args.get("--retry-seed");
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

    let max_secs: Option<u64> = args.opt("--max-secs");
    let cache_mb: usize = args.get("--cache-mb");
    let config = ServerConfig {
        addr,
        workers: args.get("--workers"),
        queue_capacity: args.get("--queue"),
        cache_bytes: cache_mb << 20,
        state_dir: args.get::<String>("--state-dir").into(),
        rho: args.get("--rho"),
        global_budget: match args.opt("--budget-ms") {
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

fn cmd_chaos(args: &Args) -> Result<(), CliError> {
    use iddq_serve::ChaosOptions;

    let options = if args.has("--smoke") {
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
        "  {} slices, {} restarts survived ({} resumed a checkpoint), \
         {} corrupt checkpoints recovered, {} checkpoint saves failed typed",
        report.slices,
        report.restarts,
        report.resumes,
        report.checkpoint_recoveries,
        report.save_failures
    );
    println!(
        "chaos OK: {schedules} schedules, {} faults injected, every digest bit-identical",
        report.faults_injected
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmd: &str, argv: &[&str]) -> Args {
        let cmd = COMMANDS.iter().find(|c| c.name == cmd).expect("a command");
        let argv: Vec<String> = argv.iter().map(|&a| a.to_owned()).collect();
        Args::parse(cmd, &argv).expect("a valid command line")
    }

    /// Every flag of the table is listed in `iddq help` under its own
    /// command, and its row is consistent: one row per name, a value
    /// placeholder exactly when it takes a value, a default that passes
    /// its own check, and a companion its command has.
    #[test]
    fn help_lists_every_flag_under_its_command() {
        let text = help();
        let starts: Vec<usize> = COMMANDS
            .iter()
            .map(|cmd| {
                text.find(&format!("\n  {} ", cmd.name))
                    .unwrap_or_else(|| panic!("`{}` missing from help", cmd.name))
            })
            .collect();
        for (i, cmd) in COMMANDS.iter().enumerate() {
            let end = starts.get(i + 1).copied().unwrap_or(text.len());
            let section = &text[starts[i]..end];
            for flag in cmd.flags {
                let name = flag.name();
                assert!(
                    section.contains(&format!("\n      {} ", flag.spec)),
                    "`{name}` not listed under `{}`",
                    cmd.name
                );
                assert_eq!(
                    cmd.flags.iter().filter(|f| f.name() == name).count(),
                    1,
                    "`{name}` has two rows in `{}`",
                    cmd.name
                );
                assert_eq!(
                    flag.kind == Kind::Switch,
                    flag.spec == name,
                    "{}",
                    flag.spec
                );
                if !flag.default.is_empty() {
                    assert_eq!(
                        flag.kind.check(flag.default, flag.positive),
                        Ok(()),
                        "{name}"
                    );
                }
                if !flag.needs.is_empty() {
                    assert!(cmd.flags.iter().any(|f| f.name() == flag.needs), "{name}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "has no flag `--sequences`")]
    fn reading_a_flag_the_table_lacks_panics() {
        let _: usize = parse("faults", &["c.bench"]).get("--sequences");
    }

    #[test]
    #[should_panic(expected = "another type")]
    fn reading_a_flag_as_another_type_panics() {
        let _: u32 = parse("faults", &["c.bench"]).get("--seed");
    }

    #[test]
    fn values_and_defaults_read_back_typed() {
        let args = parse("faults", &["c.bench", "--seed", "7", "--no-drop"]);
        assert_eq!(args.arg, "c.bench");
        assert_eq!(args.get::<u64>("--seed"), 7);
        assert_eq!(args.get::<usize>("--vectors"), 256);
        assert_eq!(args.get::<BackendKind>("--backend"), BackendKind::Delta);
        assert_eq!(args.opt::<u64>("--quota"), None);
        assert!(args.has("--no-drop"));
        assert!(!parse("sim", &["c.bench"]).has("--frames"));
    }
}
