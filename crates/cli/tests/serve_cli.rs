//! End-to-end tests of `iddq serve`: the daemon process, the one-shot
//! `--call` client mode, and the `--smoke` scenario leg CI runs.

use std::io::{BufRead, BufReader, Lines};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_iddq"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("iddq-serve-cli-{}-{name}", std::process::id()));
    p
}

/// Waits for the child to exit, killing it after `timeout` so a hung
/// server fails the test instead of wedging the suite.
fn wait_with_timeout(child: &mut Child, timeout: Duration) -> Option<std::process::ExitStatus> {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        match child.try_wait().expect("try_wait") {
            Some(status) => return Some(status),
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    let _ = child.kill();
    let _ = child.wait();
    None
}

#[test]
fn serve_call_requires_an_addr() {
    let out = bin()
        .args(["serve", "--call", r#"{"op":"ping"}"#])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage error without --addr");
}

#[test]
fn serve_call_rejects_malformed_json_as_usage() {
    let out = bin()
        .args(["serve", "--call", "{ nope", "--addr", "127.0.0.1:1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
}

/// The daemon's flags, each with a valid value.
const DAEMON_FLAGS: [(&str, &str); 7] = [
    ("--workers", "3"),
    ("--queue", "4"),
    ("--cache-mb", "8"),
    ("--state-dir", "unused-state"),
    ("--rho", "4"),
    ("--budget-ms", "100"),
    ("--max-secs", "1"),
];

/// Runs `iddq serve <mode> <flag> <value>` for every daemon flag and
/// checks each exits 2 naming the flag and the mode, before the mode runs.
fn assert_daemon_flags_rejected(mode: &[&str], mode_flag: &str) {
    for (flag, value) in DAEMON_FLAGS {
        let out = bin()
            .arg("serve")
            .args(mode)
            .args([flag, value])
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {err}");
        assert!(
            err.contains(&format!(
                "`{flag}` of `iddq serve` does nothing with `{mode_flag}`"
            )),
            "{flag}: {err}"
        );
    }
}

#[test]
fn serve_call_rejects_daemon_flags() {
    // Port 1 refuses connections: a flag that slipped through would fail
    // with exit 1 instead of 2.
    assert_daemon_flags_rejected(
        &["--call", r#"{"op":"stats"}"#, "--addr", "127.0.0.1:1"],
        "--call",
    );
}

#[test]
fn serve_smoke_rejects_daemon_flags() {
    assert_daemon_flags_rejected(&["--smoke"], "--smoke");
}

/// A daemon process, killed on drop so a failed test leaves none behind.
/// It holds the daemon's stdout open: a line the daemon prints after its
/// banner must not hit a closed pipe.
struct Daemon {
    child: Child,
    _stdout: Lines<BufReader<ChildStdout>>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts a two-worker daemon on an OS-picked port and returns it with
/// the address its banner names.
fn spawn_daemon(state_dir: &Path) -> (Daemon, String) {
    let mut server = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--state-dir",
            state_dir.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    // The startup contract: first stdout line names the bound address.
    let mut lines = BufReader::new(server.stdout.take().expect("piped stdout")).lines();
    let banner = lines
        .next()
        .expect("server prints its address")
        .expect("readable stdout");
    let addr = banner
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"))
        .to_owned();
    let daemon = Daemon {
        child: server,
        _stdout: lines,
    };
    (daemon, addr)
}

/// Drains the daemon remotely and waits for it to exit 0 on its own.
fn drain(server: &mut Daemon, addr: &str) {
    let out = bin()
        .args(["serve", "--call", r#"{"op":"drain"}"#, "--addr", addr])
        .output()
        .expect("drain call runs");
    assert!(out.status.success(), "drain call: {out:?}");
    let status = wait_with_timeout(&mut server.child, Duration::from_secs(60))
        .expect("drained server must exit");
    assert!(status.success(), "server exit: {status:?}");
}

#[test]
fn serve_daemon_answers_calls_and_drains() {
    let state_dir = tmp("daemon-state");
    let (mut server, addr) = spawn_daemon(&state_dir);

    // One-shot client calls against the live daemon.
    let out = bin()
        .args([
            "serve",
            "--call",
            r#"{"id":1,"op":"ping"}"#,
            "--addr",
            &addr,
        ])
        .output()
        .expect("call runs");
    assert!(out.status.success(), "ping call: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(r#""status":"ok""#), "got: {text}");

    let out = bin()
        .args([
            "serve",
            "--call",
            r#"{"id":2,"op":"faults","circuit":"c432","vectors":32}"#,
            "--addr",
            &addr,
        ])
        .output()
        .expect("faults call runs");
    assert!(out.status.success(), "faults call: {out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains(r#""digest""#), "got: {text}");

    // A typed error response maps to exit 1 with the response printed.
    let out = bin()
        .args([
            "serve",
            "--call",
            r#"{"id":3,"op":"faults","circuit":"nope9"}"#,
            "--addr",
            &addr,
        ])
        .output()
        .expect("bad-circuit call runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains(r#""status":"error""#));

    drain(&mut server, &addr);
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// The stdout of a successful CLI run.
fn cli_stdout(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("binary runs");
    assert!(out.status.success(), "{args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf8 stdout")
}

/// The word of `text` right before `marker` (the count a CLI line prints
/// ahead of its label).
fn word_before(text: &str, marker: &str) -> u64 {
    let head = &text[..text
        .find(marker)
        .unwrap_or_else(|| panic!("{marker:?} in {text}"))];
    let word = head.rsplit(' ').next().expect("a word");
    word.parse()
        .unwrap_or_else(|e| panic!("{word:?} before {marker:?}: {e}"))
}

/// The `result` of one `--call` request against the daemon at `addr`.
fn call(addr: &str, request: &serde_json::Value) -> serde_json::Value {
    let request = serde_json::to_string(request).expect("serializable");
    let text = cli_stdout(&["serve", "--call", &request, "--addr", addr]);
    let response: serde_json::Value = serde_json::from_str(text.trim()).expect("JSON response");
    assert_eq!(response["status"], "ok", "{text}");
    response["result"].clone()
}

#[test]
fn serve_and_cli_agree_on_sim_and_faults() {
    // The same circuit, uploaded inline as `.bench` text, gets the same
    // `sim` checksum and pattern count from the daemon as from `iddq sim
    // --lanes 64 --threads 1`, and the same fault and detection counts
    // as from `iddq faults` at its default lanes (the width the daemon
    // reports) and at `--lanes 64`: one combinational circuit, and one
    // sequential circuit at 1 and 3 frames.
    let dir = tmp("agree");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let (mut server, addr) = spawn_daemon(&dir.join("state"));
    for (circuit, frame_counts) in [("c432", &[1][..]), ("s298", &[1, 3][..])] {
        let path = dir.join(format!("{circuit}.bench"));
        let path = path.to_str().expect("utf8 path");
        cli_stdout(&["gen", circuit, "--seed", "7", "--out", path]);
        let bench = std::fs::read_to_string(path).expect("generated bench");
        for &frames in frame_counts {
            let f = frames.to_string();
            let common = ["--seed", "7", "--frames", &f, "--lanes", "64"];
            let sim = cli_stdout(
                &[
                    &["sim", path, "--patterns", "1920", "--threads", "1"][..],
                    &common,
                ]
                .concat(),
            );
            let checksum = sim
                .rsplit("value checksum ")
                .next()
                .expect("checksum")
                .trim();
            let served = call(
                &addr,
                &serde_json::json!({
                    "op": "sim", "bench": bench, "patterns": 1920, "seed": 7, "frames": frames,
                }),
            );
            assert_eq!(
                served["checksum"], checksum,
                "{circuit} frames {frames}: {sim}"
            );
            assert_eq!(
                served["patterns"],
                word_before(&sim, " patterns in"),
                "{circuit} frames {frames}: {sim}"
            );

            // The daemon picks its lane width by the CLI's `--lanes auto`
            // rule, the `faults` default; detections agree at any width.
            for vectors in [192, 768] {
                let served = call(
                    &addr,
                    &serde_json::json!({
                        "op": "faults", "bench": bench, "vectors": vectors, "bridges": 16,
                        "seed": 7, "frames": frames,
                    }),
                );
                let v = vectors.to_string();
                let run = &["faults", path, "--vectors", &v, "--bridges", "16"][..];
                let auto = cli_stdout(&[run, &["--seed", "7", "--frames", &f]].concat());
                assert_eq!(
                    served["lanes"],
                    word_before(&auto, ", 1 thread(s)"),
                    "{circuit} frames {frames}: {auto}"
                );
                for faults in [auto.clone(), cli_stdout(&[run, &common].concat())] {
                    assert_eq!(
                        served["faults"],
                        word_before(&faults, " stuck-at + ")
                            + word_before(&faults, " bridge faults"),
                        "{circuit} frames {frames}: {faults}"
                    );
                    assert_eq!(
                        served["detected"],
                        word_before(&faults, " detected ("),
                        "{circuit} frames {frames}: {faults}"
                    );
                }
            }
        }
    }
    drain(&mut server, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A checkpoint that `iddq faults --quota --checkpoint` wrote into a
/// daemon's state directory as `<job>.ckpt.json` is resumed by a keyed
/// serve `faults` job with the same seed, bridges and vectors: the job
/// reports `resumed` at the CLI's lane width (64, where a fresh job would
/// pick 512) and finishes with the detected count and coverage of an
/// uninterrupted `iddq faults` run.
#[test]
fn a_cli_checkpoint_resumes_as_a_keyed_serve_job() {
    let dir = tmp("handoff");
    let state_dir = dir.join("state");
    std::fs::create_dir_all(&state_dir).expect("state dir");
    let (path, ckpt) = (dir.join("c432.bench"), state_dir.join("handoff.ckpt.json"));
    let (path, ckpt) = (path.to_str().expect("utf8"), ckpt.to_str().expect("utf8"));
    cli_stdout(&["gen", "c432", "--seed", "7", "--out", path]);
    let bench = std::fs::read_to_string(path).expect("generated bench");
    let run = |extra: &[&str]| {
        let common = ["--seed", "7", "--bridges", "16", "--vectors", "768"];
        cli_stdout(&[&["faults", path][..], &common, extra].concat())
    };
    let full = run(&[]);
    let partial = run(&["--lanes", "64", "--quota", "150", "--checkpoint", ckpt]);
    assert!(partial.contains("partial: stopped early"), "{partial}");

    let (mut server, addr) = spawn_daemon(&state_dir);
    let served = call(
        &addr,
        &serde_json::json!({
            "op": "faults", "bench": bench, "vectors": 768, "bridges": 16, "seed": 7,
            "job": "handoff",
        }),
    );
    assert_eq!(served["resumed"], true, "{served:?}");
    assert_eq!(served["lanes"], word_before(&partial, ", 1 thread(s)"));
    assert_eq!(served["lanes"], 64, "{served:?}");
    assert_eq!(served["detected"], word_before(&full, " detected ("));
    let coverage = served["fault_coverage"].as_f64().expect("coverage");
    let printed = format!("{:.1}% coverage", coverage * 100.0);
    assert!(full.contains(&printed), "{printed} in {full}");
    assert!(
        !Path::new(ckpt).exists(),
        "a finished job drops its checkpoint"
    );
    drain(&mut server, &addr);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_max_secs_exits_by_itself() {
    let state_dir = tmp("maxsecs-state");
    let mut server = bin()
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--max-secs",
            "1",
            "--state-dir",
            state_dir.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("server spawns");
    let status = wait_with_timeout(&mut server, Duration::from_secs(60)).expect("server must exit");
    assert!(status.success());
    let _ = std::fs::remove_dir_all(&state_dir);
}

#[test]
fn serve_smoke_passes() {
    let out = bin()
        .args(["serve", "--smoke"])
        .output()
        .expect("smoke runs");
    assert!(
        out.status.success(),
        "smoke failed: {}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("serve smoke OK"), "got: {text}");
}
