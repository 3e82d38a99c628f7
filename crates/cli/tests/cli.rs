//! End-to-end tests of the `iddq` binary.

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iddq"))
}

/// A fresh temp path: unique per call, so tests running in parallel never
/// share a file.
fn tmp(name: &str) -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let mut p = std::env::temp_dir();
    p.push(format!("iddq-cli-test-{}-{n}-{name}", std::process::id()));
    p.to_str().expect("utf-8 temp path").to_owned()
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("binary runs")
}

/// Runs `iddq args`, asserts it succeeded, and returns (stdout, stderr).
fn ok(args: &[&str]) -> (String, String) {
    let out = run(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{args:?}: {err}");
    (String::from_utf8_lossy(&out.stdout).into_owned(), err)
}

/// Runs `iddq args`, asserts it exited with `code`, and returns stderr.
fn fails(args: &[&str], code: i32) -> String {
    let out = run(args);
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(code), "{args:?}: {err}");
    err
}

/// Generates `circuit` at `seed` into a temp file and returns its path.
fn gen_bench(circuit: &str, seed: u64) -> String {
    let path = tmp(&format!("{circuit}.bench"));
    ok(&["gen", circuit, "--seed", &seed.to_string(), "--out", &path]);
    path
}

/// Writes `text` into a temp netlist file and returns its path.
fn write_bench(text: &str) -> String {
    let path = tmp("hand.bench");
    std::fs::write(&path, text).expect("writable tmp");
    path
}

fn checksum(text: &str) -> String {
    text.split("checksum ")
        .nth(1)
        .expect("checksum printed")
        .trim()
        .to_string()
}

fn coverage(text: &str) -> String {
    text.split(" detected (")
        .nth(1)
        .expect("coverage printed")
        .split(')')
        .next()
        .expect("split yields a first piece")
        .to_string()
}

#[test]
fn help_prints_usage() {
    let (text, _) = ok(&["help"]);
    assert!(text.contains("synth"));
    assert!(text.contains("gen"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    fails(&["frobnicate"], 2);
}

#[test]
fn no_args_fails_with_code_2() {
    fails(&[], 2);
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A typo'd or foreign flag, a value flag with nothing or an ill-typed
    // value after it, a repeated flag, a stray or missing argument, or a
    // flag without its companion is rejected by name before any work runs
    // (the netlist path does not even need to exist), instead of the run
    // silently falling back to a default or ignoring the input. The valid
    // flags beside some typos keep the run short should the typo ever
    // slip through.
    let bench_path = tmp("strict-flags.bench");
    let bench = bench_path.as_str();
    // The flags of the deleted on-disk artifact store.
    let [dir_flag, mb_flag] = ["store-dir", "store-mb"].map(|name| format!("--{name}"));
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["synth", bench, "--generatons", "9"], "--generatons"),
        (vec!["test", bench, "--fames", "9"], "--fames"),
        (vec!["sim", bench, "--pattern", "9"], "--pattern"),
        (vec!["faults", bench, "--vectrs", "9"], "--vectrs"),
        (vec!["gen", "c432", "--sede", "9"], "--sede"),
        (vec!["stats", bench, "--memroy"], "--memroy"),
        (vec!["scale", "--gates", "50", "--gatse", "9"], "--gatse"),
        (
            vec!["serve", "--max-secs", "1", "--wokers", "2"],
            "--wokers",
        ),
        (vec!["chaos", "--smoke", "--smok"], "--smok"),
        (
            vec!["serve", "--max-secs", "1", &dir_flag, bench],
            &dir_flag,
        ),
        (vec!["serve", "--max-secs", "1", &mb_flag, "9"], &mb_flag),
        // `seq` is gone: `gen` + `faults --frames N` covers it.
        (vec!["seq"], "unknown command `seq`"),
        (vec!["seq", "--circuit", "s27"], "unknown command `seq`"),
        // The deleted second `sim` engine.
        (vec!["sim", bench, "--backend", "delta"], "--backend"),
        // Value flags given without their value.
        (vec!["faults", bench, "--vectors"], "--vectors"),
        (vec!["gen", "c432", "--seed"], "--seed"),
        (vec!["test", bench, "--threads"], "--threads"),
        (vec!["synth", bench, "--threads"], "--threads"),
        // A non-numeric worker count, rejected before the netlist loads.
        (vec!["test", bench, "--threads", "all"], "--threads"),
        (vec!["synth", bench, "--threads", "two"], "--threads"),
        // Ill-typed values, rejected before the (nonexistent) netlist is
        // read.
        (
            vec!["synth", "/nonexistent.bench", "--seed", "abc"],
            "--seed",
        ),
        (vec!["stats", bench, "--rho", "abc"], "--rho"),
        (vec!["sim", bench, "--frames", "0"], "--frames"),
        (vec!["faults", bench, "--backend", "warp"], "--backend"),
        // Floats must be finite and not negative; `--rstar` above 0.
        (vec!["synth", bench, "--rstar", "nan"], "`--rstar`"),
        (vec!["synth", bench, "--rstar", "inf"], "`--rstar`"),
        (vec!["synth", bench, "--rstar", "-5"], "`--rstar`"),
        (
            vec!["synth", bench, "--rstar", "0"],
            "expected a number above 0",
        ),
        (vec!["synth", bench, "--d", "-3"], "`--d`"),
        (vec!["synth", bench, "--d", "NaN"], "finite non-negative"),
        // A repeated flag.
        (
            vec!["stats", bench, "--memory", "--rho", "2", "--rho", "0"],
            "--rho",
        ),
        (vec!["gen", "c432", "--seed", "1", "--seed", "2"], "--seed"),
        // A stray or missing positional argument.
        (
            vec!["stats", bench, "/nonexistent.bench"],
            "/nonexistent.bench",
        ),
        (vec!["serve", "x"], "`x`"),
        (vec!["test"], "<netlist.bench>"),
        (vec!["stats", "--memory"], "<netlist.bench>"),
        // A flag without its required companion.
        (
            vec!["synth", bench, "--per-gate"],
            "`--per-gate` of `iddq synth` needs `--resynth`",
        ),
        (
            vec!["stats", bench, "--rho", "4"],
            "`--rho` of `iddq stats` needs `--memory`",
        ),
        (
            vec!["serve", "--max-secs", "1", "--retries", "2"],
            "`--retries` of `iddq serve` needs `--call`",
        ),
        (
            vec!["serve", "--max-secs", "1", "--retry-seed", "2"],
            "`--retry-seed` of `iddq serve` needs `--call`",
        ),
    ];
    for (args, flag) in cases {
        let err = fails(&args, 2);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn gen_stats_synth_test_pipeline() {
    let bench = gen_bench("c432", 7);
    let json_path = tmp("c432.json");

    let (text, _) = ok(&["stats", &bench]);
    assert!(text.contains("160 gates"), "{text}");

    // synth with JSON dump
    let (text, _) = ok(&["synth", &bench, "--generations", "20", "--json", &json_path]);
    assert!(text.contains("modules"), "{text}");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json_path).expect("json written"))
            .expect("valid json");
    assert_eq!(json["gates"], 160);
    assert!(json["feasible"].as_bool().expect("bool"));

    // iddq test experiment
    let (text, _) = ok(&["test", &bench]);
    assert!(text.contains("coverage"), "{text}");

    let _ = std::fs::remove_file(bench);
    let _ = std::fs::remove_file(json_path);
}

#[test]
fn test_and_synth_output_is_thread_invariant() {
    // `iddq test` on a combinational circuit: the printed line.
    let c432 = gen_bench("c432", 5);
    let test_stdout = |threads: &str| ok(&["test", &c432, "--seed", "3", "--threads", threads]).0;
    assert_eq!(test_stdout("1"), test_stdout("2"));

    // `iddq synth` on a sequential circuit: the full JSON report.
    let s298 = gen_bench("s298", 5);
    let synth_report = |threads: &str| {
        let json = tmp(&format!("s298-threads{threads}.json"));
        ok(&[
            "synth",
            &s298,
            "--seed",
            "3",
            "--threads",
            threads,
            "--json",
            &json,
        ]);
        let report = std::fs::read(&json).expect("report written");
        let _ = std::fs::remove_file(json);
        report
    };
    assert_eq!(synth_report("1"), synth_report("2"));

    let _ = std::fs::remove_file(c432);
    let _ = std::fs::remove_file(s298);
}

#[test]
fn gen_unknown_circuit_is_a_usage_error() {
    assert!(fails(&["gen", "c9999"], 2).contains("unknown circuit"));
}

#[test]
fn synth_missing_file_is_an_error() {
    assert!(fails(&["synth", "/nonexistent.bench"], 1).contains("cannot read"));
}

#[test]
fn resynth_flag_runs() {
    let bench = gen_bench("c432", 42);
    let (_, err) = ok(&["synth", &bench, "--generations", "10", "--resynth"]);
    assert!(err.contains("resynthesis"));
    let _ = std::fs::remove_file(bench);
}

#[test]
fn sim_threads_flag() {
    let bench = gen_bench("c432", 5);
    let run = |threads: &str| {
        ok(&[
            "sim",
            &bench,
            "--patterns",
            "2048",
            "--seed",
            "7",
            "--threads",
            threads,
        ])
        .0
    };

    // Threaded sharding is deterministic for a fixed thread count.
    let t2a = run("2");
    assert!(t2a.contains("2 thread(s)"), "{t2a}");
    assert_eq!(checksum(&t2a), checksum(&run("2")));

    // `--threads 0` means all cores, as on `test`, `synth` and `faults`.
    let all = run("0");
    assert!(all.contains("thread(s)"), "{all}");

    let _ = std::fs::remove_file(bench);
}

#[test]
fn sim_checksums_stay_pinned() {
    // `iddq sim` folds every node value of a seeded random run into one
    // checksum (the recipe serve `sim` shares). These values were printed
    // before the recipe moved into `iddq_logicsim::random_sim`; a change
    // that moves one changed the pattern stream, the stepping or the fold.
    let pins: [(&str, [&str; 12]); 2] = [
        (
            "c432",
            [
                "0x635437cc476986da",
                "0x635437cc476986da",
                "0xea4143583a767ba0",
                "0x81efec907bb8ac91",
                "0xd594ee75bd9f9246",
                "0x9dbeae5e0164481e",
                "0x66df933c692c33f8",
                "0xe80163ea5b3e4e56",
                "0x5094a20009adc8be",
                "0x50cb1d4ca4f3cf79",
                "0x9fa85ee561a22a65",
                "0x1f91814d5ba08544",
            ],
        ),
        (
            "s298",
            [
                "0xdbb138447234dcf0",
                "0xb22fd77290886759",
                "0x9594f409e2dcfad1",
                "0x842887ed21b95fd8",
                "0x0196d2959b6b4289",
                "0x22db8267f033a337",
                "0xc9f011349f2b3e0d",
                "0x4a6aed0b723b7397",
                "0xdc1d70490d3eb3fe",
                "0xa9ad71c2e50263e1",
                "0x290fdb17cabe3d79",
                "0xb62396a0ae433d21",
            ],
        ),
    ];
    for (circuit, want) in pins {
        let bench = gen_bench(circuit, 7);
        let mut k = 0;
        for lanes in ["64", "256", "512"] {
            for threads in ["1", "2"] {
                for frames in ["1", "3"] {
                    let args = [
                        "sim",
                        &bench,
                        "--patterns",
                        "100000",
                        "--seed",
                        "7",
                        "--lanes",
                        lanes,
                        "--threads",
                        threads,
                        "--frames",
                        frames,
                    ];
                    let (text, _) = ok(&args);
                    assert_eq!(checksum(&text), want[k], "{args:?}");
                    k += 1;
                }
            }
        }
        let _ = std::fs::remove_file(bench);
    }
}

#[test]
fn sim_lanes_flag_selects_width() {
    let bench = gen_bench("c432", 11);
    for lanes in ["64", "256", "512"] {
        let (text, _) = ok(&["sim", &bench, "--patterns", "1024", "--lanes", lanes]);
        assert!(text.contains(&format!("lanes {lanes}")), "{text}");
    }
    assert!(fails(&["sim", &bench, "--lanes", "128"], 2).contains("unknown lane width"));
    let _ = std::fs::remove_file(bench);
}

#[test]
fn sim_and_faults_accept_lanes_auto() {
    let bench = gen_bench("c432", 17);

    // `--lanes auto` calibrates on the loaded circuit, announces the
    // measured rates on stderr, and runs at the picked width.
    let (text, err) = ok(&["sim", &bench, "--patterns", "1024", "--lanes", "auto"]);
    assert!(err.contains("lanes auto:"), "{err}");
    assert!(err.contains("picked"), "{err}");
    let picked = ["lanes 64", "lanes 256", "lanes 512"]
        .iter()
        .any(|w| text.contains(w));
    assert!(picked, "{text}");

    // The fault sweep accepts the same selector.
    let args = [
        "faults",
        &bench,
        "--vectors",
        "64",
        "--bridges",
        "4",
        "--lanes",
        "auto",
    ];
    assert!(ok(&args).1.contains("lanes auto:"));

    let _ = std::fs::remove_file(bench);
}

#[test]
fn stats_memory_reports_engine_footprints() {
    let bench = gen_bench("c432", 19);

    let (text, _) = ok(&["stats", &bench, "--memory", "--rho", "4"]);
    for field in [
        "memory at",
        "netlist graph",
        "csr schedule",
        "packed values @512",
        "delta engine @64",
        "gate-sep table p4",
        "B/node",
    ] {
        assert!(text.contains(field), "missing `{field}` in: {text}");
    }
    assert!(
        !text.contains("oracle"),
        "the gate table is the one separation line: {text}"
    );

    // A zero saturation bound is the caller's mistake.
    fails(&["stats", &bench, "--memory", "--rho", "0"], 2);

    let _ = std::fs::remove_file(bench);
}

#[test]
fn faults_backends_lanes_and_dropping_agree() {
    let bench = gen_bench("c432", 13);
    let run = |extra: &[&str]| {
        let base = [
            "faults",
            &bench,
            "--seed",
            "9",
            "--vectors",
            "96",
            "--bridges",
            "8",
        ];
        ok(&[&base[..], extra].concat()).0
    };

    // The fault-patch engine and the per-fault full re-simulation oracle
    // score the same universe identically, at every lane width, with and
    // without fault dropping, and under threading.
    let delta = run(&["--backend", "delta"]);
    assert!(delta.contains("backend delta"), "{delta}");
    assert!(delta.contains("mean dirty cone"), "{delta}");
    let csr = run(&["--backend", "csr"]);
    assert!(csr.contains("backend csr"), "{csr}");
    assert_eq!(coverage(&delta), coverage(&csr));
    for extra in [
        &["--lanes", "64"][..],
        &["--lanes", "512"][..],
        &["--no-drop"][..],
        &["--threads", "3", "--shards", "2"][..],
    ] {
        assert_eq!(coverage(&run(extra)), coverage(&delta), "{extra:?}");
    }

    // Unknown backend is a usage error (exit 2); a non-numeric flag
    // value likewise.
    fails(&["faults", &bench, "--backend", "warp"], 2);
    fails(&["faults", &bench, "--vectors", "many"], 2);

    let _ = std::fs::remove_file(bench);
}

#[test]
fn synth_fanout_bound_below_two_is_a_usage_error() {
    let bench = write_bench(WIDE_BENCH);

    // The typed InvalidArg from `fanout_buffer` maps to exit code 2.
    let err = fails(&["synth", &bench, "--fanout", "1"], 2);
    assert!(err.contains("cannot host buffer cascades"), "{err}");

    // A legal bound runs the full flow.
    let (_, err) = ok(&["synth", &bench, "--fanout", "4", "--generations", "5"]);
    assert!(err.contains("fan-out buffered"));

    let _ = std::fs::remove_file(bench);
}

#[test]
fn faults_quota_checkpoint_resume_roundtrip() {
    let bench = gen_bench("c432", 21);
    let ckpt = tmp("c432-ckpt.json");
    // 512 vectors at 64 lanes = 8 pattern batches, so the quota has
    // real batch boundaries to stop at.
    let base = [
        "faults",
        &bench,
        "--seed",
        "9",
        "--bridges",
        "8",
        "--lanes",
        "64",
    ];

    // Uninterrupted baseline.
    let (full_text, _) = ok(&[&base[..], &["--vectors", "512"]].concat());

    // Quota-limited run: still exit 0, reports a partial grid, writes a
    // resumable checkpoint.
    let quota = ["--vectors", "512", "--quota", "150", "--checkpoint", &ckpt];
    let (text, _) = ok(&[&base[..], &quota].concat());
    assert!(text.contains("partial: stopped early"), "{text}");
    assert!(PathBuf::from(&ckpt).exists(), "checkpoint written");

    // Resumed run completes and reports the exact same coverage line as
    // the uninterrupted baseline.
    let (resumed_text, _) = ok(&[&base[..], &["--vectors", "512", "--resume", &ckpt]].concat());
    assert!(!resumed_text.contains("partial:"), "{resumed_text}");
    assert_eq!(coverage(&resumed_text), coverage(&full_text));

    // Resuming against a different run configuration is a runtime
    // failure (exit 1), not a silent wrong answer.
    let err = fails(
        &[&base[..], &["--vectors", "256", "--resume", &ckpt]].concat(),
        1,
    );
    assert!(err.contains("checkpoint"), "{err}");

    let _ = std::fs::remove_file(bench);
    let _ = std::fs::remove_file(ckpt);
}

#[test]
fn faults_frames_counts_detections_beyond_frame_zero() {
    // The figures of the deleted `iddq seq` (s298, seed 42, 256 sequences
    // x 4 frames): the same sweep through `gen` + `faults --frames 4`.
    let bench = gen_bench("s298", 42);
    let (text, _) = ok(&[
        "faults",
        &bench,
        "--seed",
        "42",
        "--frames",
        "4",
        "--vectors",
        "1024",
    ]);
    let mut lines = text.lines();
    let summary = lines.next().expect("summary line");
    assert!(summary.contains("(frames 4): 159 detected"), "{text}");
    assert_eq!(
        lines.next(),
        Some("125 detected only beyond frame 0"),
        "{text}"
    );

    let _ = std::fs::remove_file(bench);
}

#[test]
fn faults_wall_clock_budget_still_exits_zero() {
    let bench = gen_bench("c1355", 3);

    // Whether the budget expires mid-run (partial) or the sweep finishes
    // first, a wall-clock-budgeted run is a success.
    let (text, _) = ok(&["faults", &bench, "--vectors", "512", "--budget-ms", "20"]);
    assert!(text.contains("coverage"), "{text}");

    let _ = std::fs::remove_file(bench);
}

#[test]
fn sim_reports_throughput_and_checksum() {
    let bench = gen_bench("c432", 3);
    let run = |seed: &str| ok(&["sim", &bench, "--patterns", "4096", "--seed", seed]).0;
    let text = run("9");
    assert!(text.contains("patterns/s"), "{text}");
    // Same seed → same packed pattern stream → same output checksum.
    assert_eq!(checksum(&run("9")), checksum(&text));
    assert_ne!(checksum(&run("10")), checksum(&text));

    let _ = std::fs::remove_file(bench);
}

/// A tiny hand-written circuit with one wide gate, so `--resynth` has a
/// real decomposition candidate to weigh.
const WIDE_BENCH: &str = "\
# tiny resynthesis target
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
INPUT(e)
OUTPUT(y)
OUTPUT(z)
w = NAND(a, b, c, d, e)
y = NAND(w, a)
z = NOR(w, e)
";

/// `stderr` without the wall-clock figures of the resynthesis line.
fn untimed(stderr: &str) -> String {
    stderr
        .lines()
        .map(|line| line.split("; analyses ").next().unwrap_or(line))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn synth_resynth_is_the_per_gate_search() {
    // `--per-gate` is implied: with or without it, `--resynth` runs the
    // one per-gate search and prints the same bytes.
    let bench = write_bench(WIDE_BENCH);
    let run = |extra: &[&str]| {
        let mut args = vec!["synth", bench.as_str(), "--resynth", "--generations", "5"];
        args.extend_from_slice(extra);
        ok(&args)
    };
    let (text, err) = run(&[]);
    let (text_per_gate, err_per_gate) = run(&["--per-gate"]);
    assert!(err.contains("resynthesis (per-gate):"), "{err}");
    assert_eq!(text, text_per_gate);
    assert_eq!(untimed(&err), untimed(&err_per_gate));
    // The flow still reports the synthesized result on stdout.
    assert!(text.contains("modules"), "{text}");

    let _ = std::fs::remove_file(bench);
}

#[test]
fn synth_resynth_per_gate_reports_mixed_cost() {
    let bench = write_bench(WIDE_BENCH);
    let (_, err) = ok(&[
        "synth",
        &bench,
        "--resynth",
        "--per-gate",
        "--generations",
        "5",
    ]);
    assert!(err.contains("resynthesis (per-gate):"), "{err}");
    assert!(err.contains("mixed"), "{err}");
    assert!(err.contains("analyses"), "{err}");
    assert!(err.contains("search"), "{err}");
    // One wide gate, two probes; the bound may prune either.
    let pruned = err
        .split(" of 2 probes pruned")
        .next()
        .and_then(|head| head.rsplit(' ').next())
        .and_then(|n| n.parse::<usize>().ok());
    assert!(pruned.is_some_and(|p| p <= 2), "{err}");

    let _ = std::fs::remove_file(bench);
}

#[test]
fn test_and_synth_reject_a_gateless_netlist_with_code_1() {
    let bench = write_bench("INPUT(a)\nOUTPUT(a)\n");
    for args in [
        vec!["test", bench.as_str()],
        vec!["synth", bench.as_str()],
        vec!["synth", bench.as_str(), "--resynth", "--per-gate"],
    ] {
        let err = fails(&args, 1);
        assert!(err.contains("has no gates"), "{args:?}: {err}");
        assert!(err.contains(bench.as_str()), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }

    let _ = std::fs::remove_file(bench);
}

#[test]
fn synth_resynth_rejects_malformed_bench_with_code_1() {
    let bench = write_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a, what\n");
    let err = fails(&["synth", &bench, "--resynth"], 1);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("parse"), "{err}");

    let _ = std::fs::remove_file(bench);
}
