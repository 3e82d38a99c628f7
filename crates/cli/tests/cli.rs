//! End-to-end tests of the `iddq` binary.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iddq"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("iddq-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn help_prints_usage() {
    let out = bin().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("synth"));
    assert!(text.contains("gen"));
}

#[test]
fn unknown_command_is_a_usage_error() {
    let out = bin().arg("frobnicate").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn no_args_fails_with_code_2() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn unknown_flags_are_usage_errors() {
    // A typo'd or foreign flag, or a value flag with nothing after it, is
    // rejected by name before any work runs (the netlist path does not
    // even need to exist), instead of the run silently falling back to
    // the flag's default. The valid flags beside some typos keep the run
    // short should the typo ever slip through.
    let bench_path = tmp("strict-flags.bench");
    let bench = bench_path.to_str().expect("utf-8 temp path");
    // The flags of the deleted on-disk artifact store.
    let [dir_flag, mb_flag] = ["store-dir", "store-mb"].map(|name| format!("--{name}"));
    let cases: Vec<(Vec<&str>, &str)> = vec![
        (vec!["synth", bench, "--generatons", "9"], "--generatons"),
        (vec!["test", bench, "--fames", "9"], "--fames"),
        (vec!["sim", bench, "--pattern", "9"], "--pattern"),
        (vec!["faults", bench, "--vectrs", "9"], "--vectrs"),
        (vec!["gen", "c432", "--sede", "9"], "--sede"),
        (
            vec!["seq", "--sequences", "4", "--circut", "s27"],
            "--circut",
        ),
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
        // The deleted sequential smoke.
        (vec!["seq", "--smoke"], "--smoke"),
        // Value flags given without their value.
        (vec!["faults", bench, "--vectors"], "--vectors"),
        (vec!["gen", "c432", "--seed"], "--seed"),
        (vec!["test", bench, "--threads"], "--threads"),
        (vec!["synth", bench, "--threads"], "--threads"),
        // A non-numeric worker count, rejected before the netlist loads.
        (vec!["test", bench, "--threads", "all"], "--threads"),
        (vec!["synth", bench, "--threads", "two"], "--threads"),
    ];
    for (args, flag) in cases {
        let out = bin().args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(flag), "{args:?}: {err}");
    }
}

#[test]
fn gen_stats_synth_test_pipeline() {
    let bench_path = tmp("c432.bench");
    let json_path = tmp("c432.json");

    // gen
    let out = bin()
        .args(["gen", "c432", "--seed", "7", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // stats
    let out = bin().arg("stats").arg(&bench_path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("160 gates"), "{text}");

    // synth with JSON dump
    let out = bin()
        .args(["synth"])
        .arg(&bench_path)
        .args(["--generations", "20", "--json"])
        .arg(&json_path)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("modules"), "{text}");
    let json: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&json_path).expect("json written"))
            .expect("valid json");
    assert_eq!(json["gates"], 160);
    assert!(json["feasible"].as_bool().expect("bool"));

    // iddq test experiment
    let out = bin().arg("test").arg(&bench_path).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("coverage"), "{text}");

    let _ = std::fs::remove_file(bench_path);
    let _ = std::fs::remove_file(json_path);
}

/// Generates `circuit` at seed 5 into a temp file and returns its path.
fn gen_bench(circuit: &str) -> PathBuf {
    let path = tmp(&format!("gen5-{circuit}.bench"));
    let out = bin()
        .args(["gen", circuit, "--seed", "5", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    path
}

#[test]
fn test_and_synth_output_is_thread_invariant() {
    // `iddq test` on a combinational circuit: the printed line.
    let c432 = gen_bench("c432");
    let test_stdout = |threads: &str| {
        let out = bin()
            .arg("test")
            .arg(&c432)
            .args(["--seed", "3", "--threads", threads])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        out.stdout
    };
    assert_eq!(test_stdout("1"), test_stdout("2"));

    // `iddq synth` on a sequential circuit: the full JSON report.
    let s298 = gen_bench("s298");
    let synth_report = |threads: &str| {
        let json = tmp(&format!("s298-threads{threads}.json"));
        let out = bin()
            .arg("synth")
            .arg(&s298)
            .args(["--seed", "3", "--threads", threads, "--json"])
            .arg(&json)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
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
    let out = bin().args(["gen", "c9999"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown circuit"));
}

#[test]
fn synth_missing_file_is_an_error() {
    let out = bin()
        .args(["synth", "/nonexistent.bench"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn resynth_flag_runs() {
    let bench_path = tmp("resynth.bench");
    bin()
        .args(["gen", "c432", "--out"])
        .arg(&bench_path)
        .output()
        .expect("runs");
    let out = bin()
        .args(["synth"])
        .arg(&bench_path)
        .args(["--generations", "10", "--resynth"])
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("resynthesis"));
    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn sim_backend_and_threads_flags() {
    let bench_path = tmp("c432-backend.bench");
    let out = bin()
        .args(["gen", "c432", "--seed", "5", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let run = |extra: &[&str]| {
        let out = bin()
            .arg("sim")
            .arg(&bench_path)
            .args(["--patterns", "2048", "--seed", "7"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let checksum = |t: &str| {
        t.split("checksum ")
            .nth(1)
            .expect("checksum printed")
            .trim()
            .to_string()
    };

    // Both engines evaluate the same pattern stream bit-for-bit.
    let csr = run(&["--backend", "csr"]);
    let delta = run(&["--backend", "delta"]);
    assert!(csr.contains("backend csr"), "{csr}");
    assert!(delta.contains("backend delta"), "{delta}");
    assert_eq!(checksum(&csr), checksum(&delta));

    // Threaded sharding is deterministic for a fixed thread count.
    let t2a = run(&["--threads", "2"]);
    let t2b = run(&["--threads", "2", "--backend", "delta"]);
    assert!(t2a.contains("2 thread(s)"), "{t2a}");
    assert_eq!(checksum(&t2a), checksum(&t2b));

    // An unknown backend is a usage error (exit 2).
    let out = bin()
        .arg("sim")
        .arg(&bench_path)
        .args(["--backend", "warp"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown backend"));

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn sim_lanes_flag_selects_width() {
    let bench_path = tmp("c432-lanes.bench");
    let out = bin()
        .args(["gen", "c432", "--seed", "11", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    for lanes in ["64", "256", "512"] {
        let out = bin()
            .arg("sim")
            .arg(&bench_path)
            .args(["--patterns", "1024", "--lanes", lanes])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(&format!("lanes {lanes}")), "{text}");
    }

    let out = bin()
        .arg("sim")
        .arg(&bench_path)
        .args(["--lanes", "128"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown lane width"));

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn sim_and_faults_accept_lanes_auto() {
    let bench_path = tmp("c432-lanes-auto.bench");
    let out = bin()
        .args(["gen", "c432", "--seed", "17", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // `--lanes auto` calibrates on the loaded circuit, announces the
    // measured rates on stderr, and runs at the picked width.
    let out = bin()
        .arg("sim")
        .arg(&bench_path)
        .args(["--patterns", "1024", "--lanes", "auto"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("lanes auto:"), "{err}");
    assert!(err.contains("picked"), "{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    let picked = ["lanes 64", "lanes 256", "lanes 512"]
        .iter()
        .any(|w| text.contains(w));
    assert!(picked, "{text}");

    // The fault sweep accepts the same selector.
    let out = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(["--vectors", "64", "--bridges", "4", "--lanes", "auto"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("lanes auto:"));

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn stats_memory_reports_engine_footprints() {
    let bench_path = tmp("c432-memstats.bench");
    let out = bin()
        .args(["gen", "c432", "--seed", "19", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let out = bin()
        .arg("stats")
        .arg(&bench_path)
        .args(["--memory", "--rho", "4"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    for field in [
        "memory at",
        "netlist graph",
        "csr schedule",
        "packed values @512",
        "delta engine @64",
        "separation oracle p4",
        "gate-sep table p4",
        "B/node",
    ] {
        assert!(text.contains(field), "missing `{field}` in: {text}");
    }

    // A zero saturation bound is the caller's mistake.
    let out = bin()
        .arg("stats")
        .arg(&bench_path)
        .args(["--memory", "--rho", "0"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn faults_backends_lanes_and_dropping_agree() {
    let bench_path = tmp("c432-faults.bench");
    let out = bin()
        .args(["gen", "c432", "--seed", "13", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let run = |extra: &[&str]| {
        let out = bin()
            .arg("faults")
            .arg(&bench_path)
            .args(["--seed", "9", "--vectors", "96", "--bridges", "8"])
            .args(extra)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let coverage = |t: &str| {
        t.split(" detected (")
            .nth(1)
            .expect("coverage printed")
            .split(')')
            .next()
            .unwrap()
            .to_string()
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
    let out = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(["--backend", "warp"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(["--vectors", "many"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn synth_fanout_bound_below_two_is_a_usage_error() {
    let bench_path = tmp("fanout-bound.bench");
    std::fs::write(&bench_path, WIDE_BENCH).expect("writable tmp");

    // The typed InvalidArg from `fanout_buffer` maps to exit code 2.
    let out = bin()
        .arg("synth")
        .arg(&bench_path)
        .args(["--fanout", "1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot host buffer cascades"), "{err}");

    // A legal bound runs the full flow.
    let out = bin()
        .arg("synth")
        .arg(&bench_path)
        .args(["--fanout", "4", "--generations", "5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stderr).contains("fan-out buffered"));

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn faults_quota_checkpoint_resume_roundtrip() {
    let bench_path = tmp("c432-ckpt.bench");
    let ckpt_path = tmp("c432-ckpt.json");
    let out = bin()
        .args(["gen", "c432", "--seed", "21", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // 512 vectors at 64 lanes = 8 pattern batches, so the quota has
    // real batch boundaries to stop at.
    let base_args = [
        "--seed",
        "9",
        "--vectors",
        "512",
        "--bridges",
        "8",
        "--lanes",
        "64",
    ];

    // Uninterrupted baseline.
    let full = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(base_args)
        .output()
        .expect("binary runs");
    assert!(full.status.success());
    let full_text = String::from_utf8_lossy(&full.stdout).into_owned();

    // Quota-limited run: still exit 0, reports a partial grid, writes a
    // resumable checkpoint.
    let partial = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(base_args)
        .args(["--quota", "150", "--checkpoint"])
        .arg(&ckpt_path)
        .output()
        .expect("binary runs");
    assert!(
        partial.status.success(),
        "{}",
        String::from_utf8_lossy(&partial.stderr)
    );
    let text = String::from_utf8_lossy(&partial.stdout);
    assert!(text.contains("partial: stopped early"), "{text}");
    assert!(ckpt_path.exists(), "checkpoint written");

    // Resumed run completes and reports the exact same coverage line as
    // the uninterrupted baseline.
    let resumed = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(base_args)
        .args(["--resume"])
        .arg(&ckpt_path)
        .output()
        .expect("binary runs");
    assert!(
        resumed.status.success(),
        "{}",
        String::from_utf8_lossy(&resumed.stderr)
    );
    let resumed_text = String::from_utf8_lossy(&resumed.stdout);
    assert!(!resumed_text.contains("partial:"), "{resumed_text}");
    let coverage = |t: &str| {
        t.split(" detected (")
            .nth(1)
            .expect("coverage printed")
            .split(')')
            .next()
            .unwrap()
            .to_string()
    };
    assert_eq!(coverage(&resumed_text), coverage(&full_text));

    // Resuming against a different run configuration is a runtime
    // failure (exit 1), not a silent wrong answer.
    let mismatched = bin()
        .arg("faults")
        .arg(&bench_path)
        .args([
            "--seed",
            "9",
            "--vectors",
            "256",
            "--bridges",
            "8",
            "--lanes",
            "64",
            "--resume",
        ])
        .arg(&ckpt_path)
        .output()
        .expect("binary runs");
    assert_eq!(mismatched.status.code(), Some(1));
    let err = String::from_utf8_lossy(&mismatched.stderr);
    assert!(err.contains("checkpoint"), "{err}");

    let _ = std::fs::remove_file(bench_path);
    let _ = std::fs::remove_file(ckpt_path);
}

#[test]
fn faults_wall_clock_budget_still_exits_zero() {
    let bench_path = tmp("c1355-budget.bench");
    let out = bin()
        .args(["gen", "c1355", "--seed", "3", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Whether the budget expires mid-run (partial) or the sweep finishes
    // first, a wall-clock-budgeted run is a success.
    let out = bin()
        .arg("faults")
        .arg(&bench_path)
        .args(["--vectors", "512", "--budget-ms", "20"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("coverage"), "{text}");

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn sim_reports_throughput_and_checksum() {
    let bench_path = tmp("c432-sim.bench");
    let out = bin()
        .args(["gen", "c432", "--seed", "3", "--out"])
        .arg(&bench_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    let run = |seed: &str| {
        let out = bin()
            .arg("sim")
            .arg(&bench_path)
            .args(["--patterns", "4096", "--seed", seed])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let text = run("9");
    assert!(text.contains("patterns/s"), "{text}");
    let checksum = |t: &str| {
        t.split("checksum ")
            .nth(1)
            .expect("checksum printed")
            .trim()
            .to_string()
    };
    // Same seed → same packed pattern stream → same output checksum.
    assert_eq!(checksum(&run("9")), checksum(&text));
    assert_ne!(checksum(&run("10")), checksum(&text));

    let _ = std::fs::remove_file(bench_path);
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

#[test]
fn synth_resynth_reports_candidates_and_chosen() {
    let bench_path = tmp("resynth.bench");
    std::fs::write(&bench_path, WIDE_BENCH).expect("writable tmp");

    let out = bin()
        .arg("synth")
        .arg(&bench_path)
        .args(["--resynth", "--generations", "5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The report lands on stderr: all three candidate costs, the winner,
    // and the analysis-build vs candidate-search wall-clock split.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resynthesis:"), "{err}");
    for field in ["original", "balanced", "chain", "->", "analyses", "search"] {
        assert!(err.contains(field), "missing `{field}` in: {err}");
    }
    // The flow still reports the synthesized result on stdout.
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("modules"), "{text}");

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn synth_resynth_per_gate_reports_mixed_cost() {
    let bench_path = tmp("resynth-pg.bench");
    std::fs::write(&bench_path, WIDE_BENCH).expect("writable tmp");

    let out = bin()
        .arg("synth")
        .arg(&bench_path)
        .args(["--resynth", "--per-gate", "--generations", "5"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("resynthesis (per-gate):"), "{err}");
    assert!(err.contains("mixed"), "{err}");
    assert!(err.contains("analyses"), "{err}");
    assert!(err.contains("search"), "{err}");

    let _ = std::fs::remove_file(bench_path);
}

#[test]
fn synth_resynth_rejects_malformed_bench_with_code_1() {
    let bench_path = tmp("malformed.bench");
    std::fs::write(&bench_path, "INPUT(a)\nOUTPUT(y)\ny = FROB(a, what\n").expect("writable tmp");

    let out = bin()
        .arg("synth")
        .arg(&bench_path)
        .arg("--resynth")
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("parse"), "{err}");

    let _ = std::fs::remove_file(bench_path);
}
