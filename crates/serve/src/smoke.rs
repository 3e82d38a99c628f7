//! The `iddq serve --smoke` scenario: one in-process server taken
//! through every failure mode the service hardens against — admission
//! shed, deadline partials, tier degradation, malformed/oversized lines,
//! worker panics and deaths, checkpoint resume, drain.
//!
//! Run by the CI serve leg; every check that passes is recorded so the
//! harness output shows *what* was exercised, and the first failing
//! check aborts with a typed error naming it.

use std::time::Duration;

use iddq_control::EngineError;
use serde_json::json;

use crate::client::Client;
use crate::protocol::detection_digest;
use crate::server::{fault_universe, random_vectors, server_sweep_options, Server, ServerConfig};

/// What the smoke scenario exercised, one line per passed check.
#[derive(Debug, Default)]
pub struct SmokeReport {
    /// Human-readable descriptions of every check that passed.
    pub checks: Vec<String>,
}

impl SmokeReport {
    fn check(&mut self, cond: bool, label: &str) -> Result<(), EngineError> {
        if cond {
            self.checks.push(label.to_owned());
            Ok(())
        } else {
            Err(EngineError::InvalidArg(format!(
                "smoke check failed: {label}"
            )))
        }
    }
}

/// Runs the full smoke scenario against a fresh in-process server.
///
/// # Errors
///
/// [`EngineError::InvalidArg`] naming the first failed check, or the
/// underlying I/O error when the server or a connection cannot be set
/// up at all.
pub fn run_smoke() -> Result<SmokeReport, EngineError> {
    let mut report = SmokeReport::default();
    let state_dir = std::env::temp_dir().join(format!("iddq-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 2,
        // A ceiling far below any separation table forces the stats
        // degradation path deterministically.
        cache_bytes: 4096,
        state_dir: state_dir.clone(),
        max_line_bytes: 4096,
        ..ServerConfig::default()
    })?;
    let addr = server.local_addr().to_string();
    let result = scenario(&addr, &state_dir, &mut report);
    // Drain last so in-flight checks settle; ignore the final metrics.
    let _ = server.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&state_dir);
    result.map(|()| report)
}

#[allow(clippy::too_many_lines)]
fn scenario(
    addr: &str,
    _state_dir: &std::path::Path,
    report: &mut SmokeReport,
) -> Result<(), EngineError> {
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(30)))?;

    // 1. Liveness.
    let pong = client.call(&json!({"id": 1, "op": "ping"}))?;
    report.check(pong["status"] == "ok", "ping answers ok")?;

    // 2. Graceful degradation: a gatesep request cannot fit the tiny
    // cache ceiling, so the server downgrades to timing and says so.
    let stats = client.call(&json!({
        "id": 2, "op": "stats", "circuit": "c432", "tier": "gatesep",
    }))?;
    report.check(stats["status"] == "ok", "stats answers ok")?;
    report.check(
        stats["result"]["degraded"] == true
            && stats["result"]["tier"] == "timing"
            && stats["result"]["requested_tier"] == "gatesep",
        "stats degrades gatesep under the memory ceiling and annotates the tier served",
    )?;
    let timing = client.call(&json!({
        "id": 3, "op": "stats", "circuit": "c432", "tier": "timing",
    }))?;
    report.check(
        timing["result"]["degraded"] == false && timing["result"]["tier"] == "timing",
        "a timing-tier stats request is never degraded",
    )?;
    let netlists_built = |client: &mut Client| -> Result<Option<u64>, EngineError> {
        let m = client.call(&json!({"op": "metrics"}))?;
        Ok(m["result"]["cache"]["netlists_built"].as_u64())
    };
    let built = netlists_built(&mut client)?;
    let repeat = client.call(&json!({
        "id": 31, "op": "stats", "circuit": "c432", "tier": "timing",
    }))?;
    report.check(
        repeat["result"]["cache_hit"] == true
            && built.is_some()
            && netlists_built(&mut client)? == built,
        "a repeated named stats request hits the cache without regenerating the circuit",
    )?;

    // 3. Packed simulation, then a cache hit on the same structure.
    let sim = client.call(&json!({
        "id": 4, "op": "sim", "circuit": "c432", "patterns": 4096,
    }))?;
    report.check(
        sim["status"] == "ok" && sim["result"]["checksum"].as_str().is_some(),
        "sim completes with a checksum",
    )?;
    let sim2 = client.call(&json!({
        "id": 5, "op": "sim", "circuit": "c432", "patterns": 4096,
    }))?;
    report.check(
        sim2["result"]["cache_hit"] == true
            && sim2["result"]["checksum"] == sim["result"]["checksum"],
        "repeated sim hits the artifact cache and reproduces the checksum",
    )?;

    // 4. A complete fault sweep matches an in-process baseline digest.
    let faults = client.call(&json!({
        "id": 6, "op": "faults", "circuit": "c432", "vectors": 128, "seed": 7,
    }))?;
    report.check(faults["status"] == "ok", "fault sweep completes")?;
    let baseline = {
        let profile = iddq_gen::iscas::IscasProfile::by_name("c432")
            .ok_or_else(|| EngineError::InvalidArg("smoke: missing c432 profile".into()))?;
        let netlist = iddq_gen::iscas::generate(profile, 7);
        let universe = fault_universe(&netlist, 16, 7);
        let vectors = random_vectors(&netlist, 128, 7);
        let outcome = iddq_logicsim::fault_sweep::sweep::<u64>(
            &netlist,
            &universe,
            &vectors,
            &server_sweep_options(true, 1),
        );
        detection_digest(&outcome.first_detection)
    };
    report.check(
        faults["result"]["digest"].as_str() == Some(baseline.as_str()),
        "served sweep digest matches the in-process baseline bit-identically",
    )?;

    // 4b. Sequential circuit, multi-frame sweep: an s* profile resolves,
    // the sweep honors `frames`, and the digest matches an in-process
    // multi-frame baseline.
    let seq = client.call(&json!({
        "id": 60, "op": "faults", "circuit": "s298", "vectors": 120, "frames": 3, "seed": 7,
    }))?;
    report.check(
        seq["status"] == "ok" && seq["result"]["frames"] == 3,
        "a sequential circuit sweeps across frames",
    )?;
    let seq_baseline = {
        let profile = iddq_gen::seq::SeqProfile::by_name("s298")
            .ok_or_else(|| EngineError::InvalidArg("smoke: missing s298 profile".into()))?;
        let netlist = iddq_gen::seq::generate(profile, 7);
        let universe = fault_universe(&netlist, 16, 7);
        let vectors = random_vectors(&netlist, 120, 7);
        let outcome = iddq_logicsim::fault_sweep::sweep::<u64>(
            &netlist,
            &universe,
            &vectors,
            &server_sweep_options(true, 3),
        );
        detection_digest(&outcome.first_detection)
    };
    report.check(
        seq["result"]["digest"].as_str() == Some(seq_baseline.as_str()),
        "the served multi-frame digest matches the in-process baseline bit-identically",
    )?;
    let seq_sim = client.call(&json!({
        "id": 61, "op": "sim", "circuit": "s298", "patterns": 1024, "frames": 4,
    }))?;
    report.check(
        seq_sim["status"] == "ok"
            && seq_sim["result"]["frames"] == 4
            && seq_sim["result"]["checksum"].as_str().is_some(),
        "packed sim steps a sequential circuit through frames",
    )?;

    // 5. Deadline mid-sweep: partial outcome with grid coverage. The
    // sweep is sized to outlast its deadline many times over, so a faster
    // engine still gets interrupted.
    let partial = client.call(&json!({
        "id": 7, "op": "faults", "circuit": "c880", "vectors": 16384, "deadline_ms": 1,
    }))?;
    report.check(
        partial["status"] == "partial"
            && partial["stop_reason"] == "deadline exceeded"
            && partial["result"]["grid_coverage"].as_f64().unwrap_or(1.0) < 1.0,
        "a 1 ms deadline yields a partial sweep with grid coverage",
    )?;

    // 6. Malformed and oversized lines get typed line-numbered errors on
    // a connection that keeps working.
    let mut rude = Client::connect(addr)?;
    rude.set_read_timeout(Some(Duration::from_secs(30)))?;
    rude.send_raw("{ this is not json")?;
    let err = rude.recv()?.unwrap_or(serde::Value::Null);
    report.check(
        err["status"] == "error" && err["error"]["kind"] == "parse" && err["error"]["line"] == 1,
        "malformed JSON yields a typed line-numbered parse error",
    )?;
    rude.send_raw(&format!(
        "{{\"op\": \"ping\", \"pad\": \"{}\"}}",
        "x".repeat(8192)
    ))?;
    let err = rude.recv()?.unwrap_or(serde::Value::Null);
    report.check(
        err["status"] == "error" && err["error"]["line"] == 2,
        "an oversized line is discarded with a typed error",
    )?;
    let pong = rude.call(&json!({"id": 8, "op": "ping"}))?;
    report.check(
        pong["status"] == "ok",
        "the connection survives malformed and oversized lines",
    )?;

    // 7. Admission control: saturate both workers and the queue, then
    // one more job must be shed with a typed overloaded response.
    for i in 0..5u64 {
        client.send_value(&json!({"id": 100 + i, "op": "sleep", "sleep_ms": 250}))?;
    }
    let mut ok = 0;
    let mut overloaded = 0;
    let mut retry_hint = 0u64;
    for _ in 0..5 {
        let resp = client.recv()?.ok_or_else(|| EngineError::Io {
            path: "smoke".into(),
            message: "connection closed during overload check".into(),
        })?;
        match resp["status"].as_str() {
            Some("overloaded") => {
                overloaded += 1;
                retry_hint = resp["retry_after_ms"].as_u64().unwrap_or(0);
            }
            _ => ok += 1,
        }
    }
    report.check(
        overloaded >= 1 && ok + overloaded == 5 && retry_hint >= 10,
        "a saturated queue sheds with overloaded + retry_after_ms, nothing is lost",
    )?;

    // 8. Panic isolation: an injected handler panic becomes a typed
    // internal error and the pool keeps serving.
    let boom = client.call(&json!({"id": 9, "op": "sleep", "sleep_ms": 1, "chaos": "panic"}))?;
    report.check(
        boom["status"] == "error" && boom["error"]["kind"] == "internal",
        "an injected worker panic is caught as a typed internal error",
    )?;
    // 9. Worker death: the supervisor replaces the worker.
    let last = client.call(&json!({"id": 10, "op": "sleep", "sleep_ms": 1, "chaos": "exit"}))?;
    report.check(last["status"] == "ok", "a dying worker still answers first")?;
    let mut restarts = 0;
    for _ in 0..100 {
        let m = client.call(&json!({"op": "metrics"}))?;
        restarts = m["result"]["worker_restarts"].as_u64().unwrap_or(0);
        if restarts >= 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    report.check(restarts >= 1, "the supervisor replaces a dead worker")?;
    let pong = client.call(&json!({"id": 11, "op": "ping"}))?;
    report.check(pong["status"] == "ok", "the pool serves after the restart")?;

    // 10. Checkpoint + resume: interrupt a keyed job, resubmit it, and
    // the finished digest matches an uninterrupted baseline. The job runs
    // tens of deadlines long, so it is interrupted at any engine speed.
    let first = client.call(&json!({
        "id": 12, "op": "faults", "circuit": "c7552", "vectors": 1024, "seed": 7,
        "job": "smoke-ckpt", "deadline_ms": 2,
    }))?;
    report.check(
        first["status"] == "partial" && first["result"]["checkpointed"] == true,
        "a keyed job interrupted by its deadline leaves a checkpoint",
    )?;
    let resumed = client.call(&json!({
        "id": 13, "op": "faults", "circuit": "c7552", "vectors": 1024, "seed": 7,
        "job": "smoke-ckpt",
    }))?;
    let resume_baseline = {
        let profile = iddq_gen::iscas::IscasProfile::by_name("c7552")
            .ok_or_else(|| EngineError::InvalidArg("smoke: missing c7552 profile".into()))?;
        let netlist = iddq_gen::iscas::generate(profile, 7);
        let universe = fault_universe(&netlist, 16, 7);
        let vectors = random_vectors(&netlist, 1024, 7);
        let outcome = iddq_logicsim::fault_sweep::sweep::<u64>(
            &netlist,
            &universe,
            &vectors,
            &server_sweep_options(true, 1),
        );
        detection_digest(&outcome.first_detection)
    };
    report.check(
        resumed["status"] == "ok"
            && resumed["result"]["resumed"] == true
            && resumed["result"]["digest"].as_str() == Some(resume_baseline.as_str()),
        "a resumed job completes bit-identically to an uninterrupted run",
    )?;

    // 11. Service metrics reflect everything this scenario did.
    let m = client.call(&json!({"op": "metrics"}))?;
    let r = &m["result"];
    report.check(
        r["shed"].as_u64().unwrap_or(0) >= 1
            && r["panics_caught"].as_u64().unwrap_or(0) >= 1
            && r["degraded"].as_u64().unwrap_or(0) >= 1
            && r["resumed_jobs"].as_u64().unwrap_or(0) >= 1
            && r["request_errors"].as_u64().unwrap_or(0) >= 2
            && r["completed"].as_u64().unwrap_or(0) >= 10,
        "metrics account for shed, panics, degradation, resumes and request errors",
    )?;

    // 12. Drain: admission stops, admin ops still answer.
    let drained = client.call(&json!({"id": 14, "op": "drain"}))?;
    report.check(drained["status"] == "ok", "drain is acknowledged")?;
    let refused = client.call(&json!({"id": 15, "op": "sleep", "sleep_ms": 1}))?;
    report.check(
        refused["status"] == "overloaded"
            && refused["error"]["message"]
                .as_str()
                .unwrap_or("")
                .contains("drain"),
        "a draining server sheds new work with a typed response",
    )?;
    let pong = client.call(&json!({"id": 16, "op": "ping"}))?;
    report.check(pong["status"] == "ok", "admin ops answer while draining")?;
    Ok(())
}
