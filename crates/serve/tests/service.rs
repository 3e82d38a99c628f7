//! End-to-end service tests: the CI smoke scenario, and the chaos suite —
//! concurrent clients, random mid-request disconnects, injected worker
//! panics, and a kill + restart with bit-identical checkpoint resume.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Duration;

use iddq_serve::protocol::detection_digest;
use iddq_serve::server::{fault_universe, random_vectors, server_sweep_options};
use iddq_serve::{Client, Server, ServerConfig};
use serde::Value;
use serde_json::json;

fn temp_state_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("iddq-serve-test-{tag}-{}", std::process::id()))
}

#[test]
fn smoke_scenario_passes() {
    let report = iddq_serve::run_smoke().expect("smoke scenario");
    assert!(
        report.checks.len() >= 15,
        "smoke exercised only {} checks: {:?}",
        report.checks.len(),
        report.checks
    );
}

/// The chaos suite of the acceptance checklist: synchronous clients
/// under nominal load are never shed or rejected; then several clients
/// pipeline mixed workloads (including injected panics) while others disconnect
/// mid-request; every surviving client gets exactly one response per
/// request (no losses, no duplicates, no hangs); then the server is
/// killed mid-lifecycle and a restart resumes a checkpointed job to a
/// bit-identical digest.
#[test]
fn chaos_clients_panics_kill_and_restart() {
    let state_dir = temp_state_dir("chaos");
    let _ = std::fs::remove_dir_all(&state_dir);
    let config = ServerConfig {
        workers: 3,
        queue_capacity: 4,
        cache_bytes: 1 << 20,
        state_dir: state_dir.clone(),
        slice_quota: 64,
        ..ServerConfig::default()
    };
    let server = Server::start(config.clone()).expect("server start");
    let addr = server.local_addr().to_string();

    // Phase 0: each synchronous client has at most one request
    // outstanding, so 4 of them never overrun 3 workers + 4 queue slots.
    let nominal: Vec<_> = (0..4u64)
        .map(|client_idx| {
            let addr = addr.clone();
            std::thread::spawn(move || -> Result<(), String> {
                let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
                client
                    .set_read_timeout(Some(Duration::from_secs(60)))
                    .map_err(|e| e.to_string())?;
                for k in 0..8u64 {
                    let id = client_idx * 1000 + k;
                    let req = match k % 4 {
                        0 => json!({"id": id, "op": "ping"}),
                        1 => json!({"id": id, "op": "sim", "circuit": "c432", "patterns": 256}),
                        2 => json!({"id": id, "op": "stats", "circuit": "c432", "tier": "separation"}),
                        _ => json!({"id": id, "op": "faults", "circuit": "c432", "vectors": 16}),
                    };
                    let resp = client.call(&req).map_err(|e| e.to_string())?;
                    let status = resp["status"].as_str().unwrap_or("");
                    if resp["id"].as_u64() != Some(id) || !matches!(status, "ok" | "partial") {
                        return Err(format!("nominal request {id} answered {resp:?}"));
                    }
                }
                Ok(())
            })
        })
        .collect();
    for h in nominal {
        h.join().expect("client thread").expect("nominal client");
    }

    // Phase 1: concurrent well-behaved clients with chaos mixed in.
    let mut handles = Vec::new();
    for client_idx in 0..4u64 {
        let addr = addr.clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let mut client = Client::connect(&addr).map_err(|e| e.to_string())?;
            client
                .set_read_timeout(Some(Duration::from_secs(60)))
                .map_err(|e| e.to_string())?;
            let per_client = 8u64;
            let mut sent = HashSet::new();
            for k in 0..per_client {
                let id = client_idx * 1000 + k;
                sent.insert(id);
                let req = match k % 8 {
                    0 => json!({"id": id, "op": "ping"}),
                    1 => json!({"id": id, "op": "sim", "circuit": "c432", "patterns": 256}),
                    2 => json!({"id": id, "op": "faults", "circuit": "c432", "vectors": 16}),
                    3 => json!({"id": id, "op": "sleep", "sleep_ms": 5}),
                    4 => json!({"id": id, "op": "sleep", "sleep_ms": 1, "chaos": "panic"}),
                    5 => json!({"id": id, "op": "stats", "circuit": "c432", "tier": "separation"}),
                    6 => json!({"id": id, "op": "sleep", "sleep_ms": 1, "chaos": "exit"}),
                    _ => json!({"id": id, "op": "faults", "circuit": "c432", "vectors": 32,
                                "deadline_ms": 1}),
                };
                client.send_value(&req).map_err(|e| e.to_string())?;
            }
            // Exactly one response per request, correlated by id, any
            // order; a hang here fails via the read timeout.
            let mut seen = HashSet::new();
            for _ in 0..per_client {
                let resp = client
                    .recv()
                    .map_err(|e| e.to_string())?
                    .ok_or("connection closed early")?;
                let id = resp["id"]
                    .as_u64()
                    .ok_or(format!("response without id: {resp:?}"))?;
                if !seen.insert(id) {
                    return Err(format!("duplicate response for id {id}"));
                }
                if !sent.contains(&id) {
                    return Err(format!("response for unknown id {id}"));
                }
                let status = resp["status"].as_str().unwrap_or("");
                if !matches!(status, "ok" | "partial" | "error" | "overloaded") {
                    return Err(format!("unexpected status {status}"));
                }
            }
            if seen.len() != sent.len() {
                return Err(format!("lost responses: {} of {}", seen.len(), sent.len()));
            }
            Ok(())
        }));
    }
    // Rude clients: send work, then disconnect without reading. The
    // server must neither crash nor wedge a worker on the dead socket.
    for _ in 0..3 {
        let mut rude = Client::connect(&addr).expect("rude connect");
        rude.send_value(&json!({"op": "sleep", "sleep_ms": 30}))
            .expect("rude send");
        rude.send_raw("{ not even json").expect("rude garbage");
        drop(rude);
    }
    for h in handles {
        h.join().expect("client thread").expect("chaos client");
    }

    // The pool took panics and deaths; it must still answer.
    let mut probe = Client::connect(&addr).expect("probe connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("probe timeout");
    let pong = probe.call(&json!({"op": "ping"})).expect("post-chaos ping");
    assert!(pong["status"] == "ok");
    // Deterministic panic + death on an otherwise idle server, so the
    // counters below cannot be skipped by admission shed during chaos.
    let boom = probe
        .call(&json!({"op": "sleep", "sleep_ms": 1, "chaos": "panic"}))
        .expect("probe panic");
    assert!(boom["status"] == "error" && boom["error"]["kind"] == "internal");
    let bye = probe
        .call(&json!({"op": "sleep", "sleep_ms": 1, "chaos": "exit"}))
        .expect("probe exit");
    assert!(bye["status"] == "ok");
    let mut restarts = 0;
    for _ in 0..150 {
        let m = probe.call(&json!({"op": "metrics"})).expect("metrics");
        restarts = m["result"]["worker_restarts"].as_u64().unwrap_or(0);
        if restarts >= 1 {
            assert!(m["result"]["panics_caught"].as_u64().unwrap_or(0) >= 1);
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(restarts >= 1, "supervisor must replace the dead worker");

    // Phase 2: answer a `stats` request (compared after the restart),
    // interrupt a keyed job, then kill the server abruptly. The keyed
    // jobs run tens of deadlines long, so they are interrupted at any
    // engine speed.
    let stats_request = json!({"id": 7, "op": "stats", "circuit": "c880", "tier": "gatesep"});
    let stats_before = probe.call(&stats_request).expect("stats before kill");
    assert!(stats_before["status"] == "ok", "got {stats_before:?}");
    let first = probe
        .call(&json!({
            "op": "faults", "circuit": "c7552", "vectors": 4096, "seed": 3,
            "job": "chaos-resume", "deadline_ms": 5,
        }))
        .expect("keyed job");
    assert!(first["status"] == "partial", "got {first:?}");
    assert!(first["result"]["checkpointed"] == true);
    // Leave unanswered work in flight at kill time.
    probe
        .send_value(&json!({"op": "sleep", "sleep_ms": 2000}))
        .expect("in-flight sleep");
    let _ = server.kill();

    // Phase 3: a fresh server on the same state directory resumes the
    // job bit-identically to an uninterrupted baseline.
    let server = Server::start(config).expect("restart");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("reconnect");
    client
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("timeout");
    // A restarted server recompiles: its first answer for the circuit is
    // field-identical to the one the killed process gave.
    let stats_after = client.call(&stats_request).expect("stats after restart");
    assert_eq!(
        stats_after["result"], stats_before["result"],
        "stats after restart must match the answer before the kill"
    );
    let resumed = client
        .call(&json!({
            "op": "faults", "circuit": "c7552", "vectors": 4096, "seed": 3,
            "job": "chaos-resume",
        }))
        .expect("resume");
    assert!(resumed["status"] == "ok", "got {resumed:?}");
    assert!(resumed["result"]["resumed"] == true);
    let baseline = {
        let profile = iddq_gen::iscas::IscasProfile::by_name("c7552").expect("profile");
        let netlist = iddq_gen::iscas::generate(profile, 3);
        let universe = fault_universe(&netlist, 16, 3);
        let vectors = random_vectors(&netlist, 4096, 3);
        let outcome = iddq_logicsim::fault_sweep::sweep::<u64>(
            &netlist,
            &universe,
            &vectors,
            &server_sweep_options(true, 1),
        );
        detection_digest(&outcome.first_detection)
    };
    assert_eq!(
        resumed["result"]["digest"].as_str(),
        Some(baseline.as_str()),
        "resumed digest must be bit-identical to the uninterrupted baseline"
    );

    // A checkpoint from a different grid config is rejected, not resumed.
    let mismatched = client
        .call(&json!({
            "op": "faults", "circuit": "c7552", "vectors": 1024, "seed": 3,
            "job": "chaos-resume2", "deadline_ms": 2,
        }))
        .expect("seed mismatched job");
    assert!(mismatched["status"] == "partial", "got {mismatched:?}");
    let rejected = client
        .call(&json!({
            "op": "faults", "circuit": "c7552", "vectors": 768, "seed": 3,
            "job": "chaos-resume2",
        }))
        .expect("mismatched resume");
    assert!(rejected["status"] == "error", "got {rejected:?}");
    assert!(rejected["error"]["kind"] == "checkpoint");

    let _ = server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Drained servers finish accepted work, refuse new work, and shut down
/// without hanging.
#[test]
fn drain_finishes_accepted_work() {
    let state_dir = temp_state_dir("drain");
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_capacity: 8,
        state_dir: state_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Queue slow work, then drain via the signal (the ops path is
    // covered by smoke) while responses are still outstanding.
    for i in 0..4u64 {
        client
            .send_value(&json!({"id": i, "op": "sleep", "sleep_ms": 50}))
            .expect("send");
    }
    // Lines on one connection are handled sequentially, so once this
    // inline admin op answers, the four sleeps are in the queue.
    let admitted = client
        .call(&json!({"id": 99, "op": "metrics"}))
        .expect("metrics");
    assert!(admitted["status"] == "ok");
    let metrics = server.shutdown(Duration::from_secs(10));
    // Every accepted job was answered before shutdown returned.
    assert_eq!(
        metrics["completed"].as_u64(),
        Some(4),
        "drain must answer accepted work: {metrics:?}"
    );
    let mut lost = 0;
    for _ in 0..4 {
        match client.recv() {
            Ok(Some(resp)) => assert!(resp["status"] == "ok"),
            _ => lost += 1,
        }
    }
    assert_eq!(lost, 0, "responses were written before the server exited");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A netlist without gates (which `iddq test` / `iddq synth` reject) is
/// a valid input to every serve op: none of them partitions the gates,
/// so each answers it without a worker panic.
#[test]
fn gateless_inline_netlist_is_answered_by_every_op() {
    let state_dir = temp_state_dir("gateless");
    let server = Server::start(ServerConfig {
        state_dir: state_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let bench = "INPUT(a)\nOUTPUT(a)\n";
    let requests = [
        json!({"op": "sim", "bench": bench, "patterns": 256}),
        json!({"op": "faults", "bench": bench, "vectors": 64}),
        json!({"op": "stats", "bench": bench, "tier": "timing"}),
        json!({"op": "stats", "bench": bench, "tier": "gatesep"}),
        json!({"op": "stats", "bench": bench, "tier": "separation"}),
    ];
    for request in requests {
        let resp = client.call(&request).expect("answered");
        assert_eq!(resp["status"], "ok", "{request:?}: {resp:?}");
        assert_eq!(resp["result"]["circuit"], "inline", "{request:?}: {resp:?}");
    }
    let metrics = server.shutdown(Duration::from_secs(10));
    assert_eq!(metrics["panics_caught"].as_u64(), Some(0), "{metrics:?}");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// `separation` is the wire alias of `gatesep`: a `separation` request
/// and a `gatesep` request for the same circuit cost one table build,
/// the second is a cache hit, and both report the tier they got as
/// `gatesep`.
#[test]
fn separation_and_gatesep_requests_share_one_build() {
    let state_dir = temp_state_dir("alias");
    let server = Server::start(ServerConfig {
        state_dir: state_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut answers = Vec::new();
    for tier in ["separation", "gatesep"] {
        let resp = client
            .call(&json!({"op": "stats", "circuit": "c432", "tier": tier}))
            .expect("answered");
        assert_eq!(resp["status"], "ok", "{tier}: {resp:?}");
        assert_eq!(resp["result"]["tier"], "gatesep", "{tier}: {resp:?}");
        assert_eq!(
            resp["result"]["requested_tier"], "gatesep",
            "{tier}: {resp:?}"
        );
        assert_eq!(resp["result"]["degraded"], false, "{tier}: {resp:?}");
        assert!(resp["result"]["memory"]["gate_table"].as_u64() > Some(0));
        assert!(resp["result"]["memory"]["oracle"].is_null());
        answers.push(resp["result"]["cache_hit"].clone());
    }
    assert_eq!(answers, [json!(false), json!(true)]);
    let metrics = server.shutdown(Duration::from_secs(10));
    assert_eq!(metrics["cache"]["misses"].as_u64(), Some(1), "{metrics:?}");
    assert_eq!(metrics["cache"]["hits"].as_u64(), Some(1), "{metrics:?}");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// `call_with_retry` against a deliberately tiny queue: retries turn
/// `overloaded` sheds into eventual answers, and `retries: 0` keeps
/// today's fail-fast behaviour.
#[test]
fn overloaded_requests_succeed_under_retry() {
    use iddq_serve::RetryPolicy;

    let state_dir = temp_state_dir("retry");
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        state_dir: state_dir.clone(),
        ..ServerConfig::default()
    })
    .expect("start");
    let addr = server.local_addr().to_string();

    // Saturate: one sleep occupies the single worker, a second occupies
    // the single queue slot. The pauses let the worker pop the first
    // before the second arrives, so the slot is genuinely held.
    let mut blocker = Client::connect(&addr).expect("blocker connect");
    blocker
        .send_value(&json!({"id": 0, "op": "sleep", "sleep_ms": 600}))
        .expect("send sleep");
    std::thread::sleep(Duration::from_millis(60));
    blocker
        .send_value(&json!({"id": 1, "op": "sleep", "sleep_ms": 600}))
        .expect("send sleep");
    std::thread::sleep(Duration::from_millis(60));

    let mut client = Client::connect(&addr).expect("client connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    // Fail-fast path: with the queue full, zero retries surfaces the
    // shed verbatim, retry_after_ms included.
    let shed = client
        .call_with_retry(
            &json!({"id": 10, "op": "sim", "circuit": "c432", "patterns": 64}),
            &RetryPolicy::new(0, 1),
        )
        .expect("fail-fast call");
    assert!(shed["status"] == "overloaded", "got {shed:?}");
    assert!(shed["retry_after_ms"].as_u64().is_some());
    // Retrying path: enough attempts ride out the blocker's sleeps.
    let ok = client
        .call_with_retry(
            &json!({"id": 11, "op": "sim", "circuit": "c432", "patterns": 64}),
            &RetryPolicy::new(10, 1),
        )
        .expect("retried call");
    assert!(ok["status"] == "ok", "got {ok:?}");
    let _ = server.shutdown(Duration::from_secs(20));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A started server on its own state directory, and a client of it.
fn server_and_client(tag: &str, config: ServerConfig) -> (Server, Client, PathBuf) {
    let state_dir = temp_state_dir(tag);
    let _ = std::fs::remove_dir_all(&state_dir);
    let server = Server::start(ServerConfig {
        state_dir: state_dir.clone(),
        ..config
    })
    .expect("start");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    (server, client, state_dir)
}

/// The `metrics.cache` object.
fn cache_metrics(client: &mut Client) -> Value {
    let m = client.call(&json!({"op": "metrics"})).expect("metrics");
    m["result"]["cache"].clone()
}

/// The result of an `ok` response without the fields that may differ
/// between two correct answers to one request: `cache_hit`, and `sim`'s
/// wall-clock rate.
fn comparable(response: &Value) -> Value {
    assert_eq!(response["status"], "ok", "{response:?}");
    let mut result = response["result"].clone();
    if let Value::Object(fields) = &mut result {
        assert!(fields.remove("cache_hit").is_some(), "{response:?}");
        fields.remove("patterns_per_sec");
    }
    result
}

/// Repeated named `sim`, `faults` and `stats` requests generate their
/// circuit once: every later request reaches the cached bundle through
/// its `(circuit, seed)` alias. Each answer equals a fresh server's
/// answer to the same request, `cache_hit` aside.
#[test]
fn repeated_named_requests_generate_the_circuit_once() {
    let requests = [
        json!({"id": 1, "op": "stats", "circuit": "c880", "seed": 3}),
        json!({"id": 2, "op": "sim", "circuit": "c880", "seed": 3, "patterns": 1024}),
        json!({"id": 3, "op": "faults", "circuit": "c880", "seed": 3, "vectors": 64}),
    ];
    let fresh: Vec<Value> = requests
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let (server, mut client, state_dir) =
                server_and_client(&format!("fresh{i}"), ServerConfig::default());
            let resp = client.call(request).expect("fresh answer");
            assert_eq!(resp["result"]["cache_hit"], false, "{resp:?}");
            let _ = server.shutdown(Duration::from_secs(10));
            let _ = std::fs::remove_dir_all(&state_dir);
            comparable(&resp)
        })
        .collect();

    let (server, mut client, state_dir) = server_and_client("repeat", ServerConfig::default());
    for round in 0..3 {
        for (request, fresh) in requests.iter().zip(&fresh) {
            let resp = client.call(request).expect("answered");
            let first = round == 0 && request["op"] == "stats";
            assert_eq!(resp["result"]["cache_hit"], !first, "{resp:?}");
            assert_eq!(&comparable(&resp), fresh);
        }
    }
    let cache = cache_metrics(&mut client);
    assert_eq!(cache["netlists_built"].as_u64(), Some(1), "{cache:?}");
    assert_eq!(cache["aliases"].as_u64(), Some(1), "{cache:?}");
    assert_eq!(cache["hits"].as_u64(), Some(8), "{cache:?}");
    assert_eq!(cache["misses"].as_u64(), Some(1), "{cache:?}");
    let _ = server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A request without `seed` and one with `seed: 42` name the same
/// generated circuit and share one alias; another seed is another
/// circuit.
#[test]
fn default_seed_and_seed_42_share_one_alias() {
    let (server, mut client, state_dir) = server_and_client("seed", ServerConfig::default());
    let mut answers = Vec::new();
    for request in [
        json!({"op": "stats", "circuit": "c432", "tier": "timing"}),
        json!({"op": "stats", "circuit": "c432", "tier": "timing", "seed": 42}),
        json!({"op": "stats", "circuit": "c432", "tier": "timing", "seed": 7}),
    ] {
        let resp = client.call(&request).expect("answered");
        assert_eq!(resp["status"], "ok", "{resp:?}");
        answers.push(resp);
    }
    let hits: Vec<_> = answers
        .iter()
        .map(|r| r["result"]["cache_hit"].clone())
        .collect();
    assert_eq!(hits, [json!(false), json!(true), json!(false)]);
    assert_eq!(
        answers[0]["result"]["fingerprint"],
        answers[1]["result"]["fingerprint"]
    );
    assert_ne!(
        answers[0]["result"]["fingerprint"],
        answers[2]["result"]["fingerprint"]
    );
    let cache = cache_metrics(&mut client);
    assert_eq!(cache["aliases"].as_u64(), Some(2), "{cache:?}");
    assert_eq!(cache["netlists_built"].as_u64(), Some(2), "{cache:?}");
    let _ = server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// Under a ceiling that holds one bundle at a time, eviction takes the
/// evicted bundle's alias with it: the next request for that circuit
/// regenerates it and answers exactly as before.
#[test]
fn eviction_drops_the_alias_and_the_next_request_regenerates() {
    let (server, mut client, state_dir) = server_and_client(
        "evict",
        ServerConfig {
            cache_bytes: 4096,
            ..ServerConfig::default()
        },
    );
    let c432 = json!({"op": "sim", "circuit": "c432", "patterns": 512});
    let c880 = json!({"op": "sim", "circuit": "c880", "patterns": 512});
    let first = client.call(&c432).expect("c432");
    let cache = cache_metrics(&mut client);
    assert_eq!(
        (cache["entries"].as_u64(), cache["aliases"].as_u64()),
        (Some(1), Some(1))
    );
    client.call(&c880).expect("c880");
    let cache = cache_metrics(&mut client);
    assert_eq!(cache["evictions"].as_u64(), Some(1), "{cache:?}");
    assert_eq!(
        (cache["entries"].as_u64(), cache["aliases"].as_u64()),
        (Some(1), Some(1))
    );
    let again = client.call(&c432).expect("c432 again");
    assert_eq!(again["result"]["cache_hit"], false, "{again:?}");
    assert_eq!(comparable(&again), comparable(&first));
    let cache = cache_metrics(&mut client);
    assert_eq!(cache["netlists_built"].as_u64(), Some(3), "{cache:?}");
    assert_eq!(cache["aliases"].as_u64(), Some(1), "{cache:?}");
    let _ = server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A `stats` request whose deadline could not afford a `gatesep` build
/// is degraded on a miss, but a `gatesep` bundle already cached is
/// served as it is: `tier: gatesep, degraded: false`.
#[test]
fn tight_deadline_stats_on_a_cached_gatesep_bundle_is_not_degraded() {
    let (server, mut client, state_dir) = server_and_client("deadline", ServerConfig::default());
    let tight = json!({"op": "stats", "circuit": "c1908", "tier": "gatesep", "deadline_ms": 1});
    let missed = client.call(&tight).expect("tight miss");
    assert_eq!(missed["status"], "ok", "{missed:?}");
    assert_eq!(missed["result"]["tier"], "timing", "{missed:?}");
    assert_eq!(missed["result"]["degraded"], true, "{missed:?}");
    let built = client
        .call(&json!({"op": "stats", "circuit": "c1908", "tier": "gatesep"}))
        .expect("gatesep build");
    assert_eq!(built["result"]["tier"], "gatesep", "{built:?}");
    assert_eq!(built["result"]["cache_hit"], false, "{built:?}");
    let hit = client.call(&tight).expect("tight hit");
    assert_eq!(hit["status"], "ok", "{hit:?}");
    assert_eq!(hit["result"]["cache_hit"], true, "{hit:?}");
    assert_eq!(hit["result"]["tier"], "gatesep", "{hit:?}");
    assert_eq!(hit["result"]["degraded"], false, "{hit:?}");
    assert_eq!(hit["result"]["degrade_reason"], "", "{hit:?}");
    assert_eq!(hit["result"]["memory"], built["result"]["memory"]);
    let metrics = server.shutdown(Duration::from_secs(10));
    assert_eq!(metrics["degraded"].as_u64(), Some(1), "{metrics:?}");
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A daemon `--rho` whose weight field leaves the packed gate table too
/// few bits for the circuit's node ids degrades a `stats` request to
/// `timing` instead of building (or panicking on) the table, and the
/// reason names both limits.
#[test]
fn stats_at_a_rho_too_wide_for_the_table_degrades_to_timing() {
    let (server, mut client, state_dir) = server_and_client(
        "wide-rho",
        ServerConfig {
            rho: u32::MAX,
            ..ServerConfig::default()
        },
    );
    let resp = client
        .call(&json!({"op": "stats", "circuit": "c432", "tier": "gatesep"}))
        .expect("answered");
    assert_eq!(resp["status"], "ok", "{resp:?}");
    assert_eq!(resp["result"]["tier"], "timing", "{resp:?}");
    assert_eq!(resp["result"]["degraded"], true, "{resp:?}");
    let reason = resp["result"]["degrade_reason"]
        .as_str()
        .unwrap_or_default();
    assert!(
        reason.contains("holds at most 1 nodes") && reason.contains("allow rho up to"),
        "{reason}"
    );
    assert_eq!(resp["result"]["memory"]["gate_table"].as_u64(), Some(0));
    server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A keyed `faults` job checkpointed at 64 lanes (before the lane width
/// followed the sweep's shape) resumes at 64 lanes and completes
/// bit-identically, while the same sweep without a checkpoint runs at
/// the 256 lanes its 256 sequences fill.
#[test]
fn a_job_checkpointed_at_64_lanes_resumes_at_64_lanes() {
    use iddq_control::{Outcome, RunBudget, RunControl};
    use iddq_logicsim::fault_sweep::{sweep_with_control, SweepCheckpoint};
    use iddq_netlist::LaneWidth;

    let (server, mut client, state_dir) = server_and_client("lanes64", ServerConfig::default());
    let profile = iddq_gen::iscas::IscasProfile::by_name("c7552").expect("profile");
    let netlist = iddq_gen::iscas::generate(profile, 3);
    let universe = fault_universe(&netlist, 16, 3);
    let vectors = random_vectors(&netlist, 256, 3);
    let options = server_sweep_options(true, 1);
    // One 64-lane batch of four, then the quota stops the sweep.
    let control = RunControl::unlimited().and_budget(RunBudget::unlimited().with_quota(64));
    let Outcome::Partial { value, .. } =
        sweep_with_control::<u64>(&netlist, &universe, &vectors, &options, &control)
    else {
        panic!("a 64-pattern quota must interrupt four batches");
    };
    let cp = SweepCheckpoint::capture(
        LaneWidth::L64,
        &netlist,
        &universe,
        &vectors,
        &options,
        &value,
    );
    assert_eq!((cp.lanes, cp.progress()), (64, 0.25));
    std::fs::create_dir_all(&state_dir).expect("state dir");
    std::fs::write(state_dir.join("lanes64.ckpt.json"), cp.to_json()).expect("checkpoint");

    let request = json!({"op": "faults", "circuit": "c7552", "vectors": 256, "seed": 3});
    let fresh = client.call(&request).expect("fresh job");
    assert_eq!(fresh["status"], "ok", "{fresh:?}");
    assert_eq!(fresh["result"]["lanes"], 256, "{fresh:?}");
    let keyed =
        json!({"op": "faults", "circuit": "c7552", "vectors": 256, "seed": 3, "job": "lanes64"});
    let resumed = client.call(&keyed).expect("resumed job");
    assert_eq!(resumed["status"], "ok", "{resumed:?}");
    assert_eq!(resumed["result"]["resumed"], true, "{resumed:?}");
    assert_eq!(resumed["result"]["lanes"], 64, "{resumed:?}");
    let baseline =
        iddq_logicsim::fault_sweep::sweep::<u64>(&netlist, &universe, &vectors, &options);
    let digest = detection_digest(&baseline.first_detection);
    for answer in [&fresh, &resumed] {
        assert_eq!(answer["result"]["digest"].as_str(), Some(digest.as_str()));
    }
    assert!(
        !state_dir.join("lanes64.ckpt.json").exists(),
        "a finished job drops its checkpoint"
    );
    let _ = server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}

/// A repeated inline upload reaches its bundle through its text: it is
/// parsed once and answers exactly as the first time. An upload that
/// fails to parse is parsed, and its error reported, every time.
#[test]
fn a_repeated_upload_is_parsed_once() {
    let (server, mut client, state_dir) = server_and_client("upload", ServerConfig::default());
    let profile = iddq_gen::iscas::IscasProfile::by_name("c432").expect("profile");
    let bench = iddq_netlist::bench::to_bench(&iddq_gen::iscas::generate(profile, 3));
    let request = json!({"op": "sim", "bench": bench, "patterns": 512});
    let first = client.call(&request).expect("first upload");
    assert_eq!(first["result"]["cache_hit"], false, "{first:?}");
    for _ in 0..2 {
        let again = client.call(&request).expect("repeated upload");
        assert_eq!(again["result"]["cache_hit"], true, "{again:?}");
        assert_eq!(comparable(&again), comparable(&first));
    }
    let cache = cache_metrics(&mut client);
    assert_eq!(cache["netlists_built"].as_u64(), Some(1), "{cache:?}");
    assert_eq!(cache["aliases"].as_u64(), Some(1), "{cache:?}");

    let broken = json!({"op": "sim", "bench": "OUTPUT(y)\ny = AND(a, b)\n"});
    for _ in 0..2 {
        let resp = client.call(&broken).expect("broken upload");
        assert_eq!(resp["status"], "error", "{resp:?}");
        assert_eq!(resp["error"]["kind"], "parse", "{resp:?}");
    }
    let cache = cache_metrics(&mut client);
    assert_eq!(cache["netlists_built"].as_u64(), Some(1), "{cache:?}");
    assert_eq!(cache["aliases"].as_u64(), Some(1), "{cache:?}");
    let _ = server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&state_dir);
}
