//! The `bench` binary takes exactly `--smoke` and `--out PATH`, and the
//! experiment binaries their documented flags: anything else, or a flag
//! without a valid value, is a usage error naming the argument, raised
//! before any measurement runs or any JSON is written.

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors_before_any_measurement() {
    let dir = std::env::temp_dir().join(format!("iddq-bench-args-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (args, named) in [
        (vec!["--smok"], "--smok"),
        (vec!["--smoke", "--out"], "--out"),
        (vec!["--out"], "--out"),
        (vec!["--smoke", "extra"], "extra"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_bench"))
            .args(&args)
            .current_dir(&dir)
            .output()
            .expect("bench runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} measured something");
        assert!(
            !dir.join("BENCH_sim.json").exists(),
            "{args:?} wrote the default JSON"
        );
    }
    std::fs::remove_dir_all(&dir).expect("temp dir removed");
}

#[test]
fn experiment_binaries_reject_bad_flags_before_any_work() {
    for (bin, args, named) in [
        (
            env!("CARGO_BIN_EXE_table1"),
            vec!["--quick", "--json"],
            "--json",
        ),
        (env!("CARGO_BIN_EXE_table1"), vec!["--seed", "x"], "--seed"),
        (env!("CARGO_BIN_EXE_table1"), vec!["--seed"], "--seed"),
        (env!("CARGO_BIN_EXE_table1"), vec!["--quik"], "--quik"),
        (
            env!("CARGO_BIN_EXE_fig2_shape"),
            vec!["--rows", "x"],
            "--rows",
        ),
        (
            env!("CARGO_BIN_EXE_fig2_shape"),
            vec!["--cols", "0"],
            "--cols",
        ),
        (env!("CARGO_BIN_EXE_fig2_shape"), vec!["--rows"], "--rows"),
        (
            env!("CARGO_BIN_EXE_fig_c17_trace"),
            vec!["--seed"],
            "--seed",
        ),
    ] {
        let out = Command::new(bin).args(&args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{bin} {args:?}: {err}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran the experiment");
    }
}
