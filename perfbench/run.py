#!/usr/bin/env python3
"""The repository benchmark: the paper's flow and the serve daemon, timed
end to end through the interfaces users run.

Run from the repository root:

    python3 perfbench/run.py --workload paper_flow --seed 5 --seconds 10 --trace 0

Workloads (BENCHMARK.json says why each one is there):

    paper_flow   `iddq test c7552.bench --seed 3`, back to back
    fault_sweep  `iddq faults c7552.bench --vectors 4096` at the CLI defaults
    resynth_seq  `iddq synth s5378.bench --resynth --per-gate --seed 3 --json ...`
    serve_mix    a seeded request mix against one `iddq serve` daemon
    all          every workload above, one result line each

Circuits are `iddq gen` output at generation seed 5. A run builds the
release `iddq` binary and the in-process replay (`perfbench/replay`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), sets up its inputs, then
measures for `--seconds`: one `iddq` process per operation, or the daemon's
JSON-lines wire under a closed loop of two clients. Times are scaled to a
reference host speed, measured by a calibration spin between operations
(see SPIN_REF_MS). Outputs are checked against the repository's own
oracles outside the timed window. `--trace 0` prints the end-to-end
metrics; `--trace 1` also replays the operation in-process with one span
per layer call and prints the per-layer metrics (in-process times are not
scaled). The last stdout line is the JSON result. The run context, the raw
samples, the spin times and the spans are written to `perfbench/out/` when
the run ends.
"""

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import random
import re
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"

# Every circuit is `iddq gen` output at ROADMAP's generation seed. The
# workload seed does not pick circuits: on c7552 the fault sweep's work
# differs by ~1.5x between generation seeds, which would swamp the
# run-to-run comparison. It seeds the serve mix's request order.
CIRCUIT_SEED = 5
# Optimizer seed of `iddq test` and `iddq synth`, as in ROADMAP's baseline.
FLOW_SEED = 3
FAULT_VECTORS = 4096
SETUP_REPEATS = 15
SERVE_SETUP_REPEATS = 5
SERVE_CLIENTS = 2
SERVE_CIRCUITS = ("c432", "c1908", "c7552", "s5378")
TIERS = ("timing", "gatesep", "separation")
# Host-speed calibration. The shared host this benchmark was tuned on runs
# in phases of several seconds that differ by up to 1.7x in speed, and
# every process slows alike. A fixed pure-Python spin, timed between
# operations, tracks those phases: the ratio of an `iddq test` run to the
# spin around it varied about half as much as the run alone (coefficient
# of variation 0.09 against 0.15 over 35 runs). Every timing metric is
# therefore reported in reference-speed units: measured time scaled by
# SPIN_REF_MS over the spin time measured around it.
SPIN_ITERATIONS = 500_000
SPIN_REF_MS = 35.0
SERVE_CALIBRATE_EVERY = 8
# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# ROADMAP's "stages add up": the stage spans of a traced operation must
# cover this share of its wall.
MIN_COVERED_FRAC = 0.95

FAULTS_LINE = re.compile(
    r"(?P<circuit>\S+): (?P<stuck_at>\d+) stuck-at \+ (?P<bridges>\d+) bridge faults "
    r"x (?P<vectors>\d+) vectors \(frames (?P<frames>\d+)\): (?P<detected>\d+) detected "
    r"\((?P<coverage>[\d.]+)% coverage\)"
)
SYNTH_LINE = re.compile(
    r"(?P<circuit>\S+): (?P<gates>\d+) gates -> (?P<modules>\d+) modules, "
    r"feasible: (?P<feasible>true|false), cost (?P<cost>[\d.]+)"
)
DRAINED_LINE = re.compile(
    r"drained: (?P<completed>\d+) completed, (?P<shed>\d+) shed, (?P<partial>\d+) partial, "
    r"(?P<degraded>\d+) degraded, (?P<panics>\d+) panics, (?P<restarts>\d+) restarts"
)


class BenchError(Exception):
    """A failure that leaves nothing to report: the run prints no result."""


# --- Pure parts (self-tested in test_run.py) -------------------------------


def tail_latency(samples):
    """The highest ladder percentile with at least ten samples beyond it
    (nearest rank), as (percentile, value). Below 20 samples no ladder
    percentile qualifies and the median stands in, reported as p50."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct * n / 100 - 1e-9))
        if n - rank >= 10:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def p50(samples):
    return statistics.median(samples) if samples else 0.0


def parse_cli(pattern, stdout):
    """The fields of the first stdout line that `pattern` matches, with
    numbers converted; None when no line matches."""
    for line in stdout.splitlines():
        match = pattern.match(line)
        if match:
            fields = {}
            for key, text in match.groupdict().items():
                if re.fullmatch(r"\d+", text):
                    fields[key] = int(text)
                elif re.fullmatch(r"\d+\.\d*", text):
                    fields[key] = float(text)
                else:
                    fields[key] = text
            return fields
    return None


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason):
        """Counts one operation; `reason` is None when it passed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(reason)

    @property
    def ok(self):
        return self.attempted - self.failed


def check_response(response, expected):
    """Why a serve response fails its output check, or None when it passes.
    Errors, refusals (`overloaded`) and `partial` results fail, and so does
    any result field that differs from the in-process computation. A cached
    bundle may serve a `stats` request above its planned tier, never below."""
    status = response.get("status")
    if status != "ok":
        message = (response.get("error") or {}).get("message", "")
        return f"status {status} {message}".strip()
    result = response.get("result") or {}
    for field, want in expected.items():
        got = result.get(field)
        if field == "tier":
            if got not in TIERS or TIERS.index(got) < TIERS.index(want):
                return f"tier {got} below the planned {want}"
        elif got != want:
            return f"{field} {got!r} != {want!r}"
    return None


def drain_problems(metrics, drained):
    """What the daemon's final accounting says went wrong: every accepted
    request must have completed, with no panic, no worker restart and no
    request error."""
    if drained is None:
        return ["the daemon printed no `drained:` line"]
    problems = []
    if drained["completed"] != metrics["accepted"]:
        problems.append(f"{drained['completed']} completed of {metrics['accepted']} accepted")
    if drained["panics"] or drained["restarts"]:
        problems.append(f"{drained['panics']} panics, {drained['restarts']} worker restarts")
    if metrics["request_errors"]:
        problems.append(f"{metrics['request_errors']} request errors")
    return problems


def covered_frac(spans):
    """The share of the root spans' wall that their direct children cover."""
    roots = {i for i, span in enumerate(spans) if span["parent"] is None}
    wall = sum(spans[i]["end_ms"] - spans[i]["start_ms"] for i in roots)
    covered = sum(s["end_ms"] - s["start_ms"] for s in spans if s["parent"] in roots)
    return covered / wall


def request_line(body, rid):
    """One wire request: the encoded JSON object `body` with an `id` first."""
    return b'{"id":' + str(rid).encode() + b"," + body[1:] + b"\n"


def schedule(keys, seed):
    """The seeded request order: blocks that hold every distinct request
    once, each block shuffled. Yields (id, key) without end."""
    rng = random.Random(seed)
    rid = 0
    while True:
        block = list(keys)
        rng.shuffle(block)
        for key in block:
            rid += 1
            yield rid, key


# --- Processes ---------------------------------------------------------------


def build():
    """Builds the release `iddq` binary and the replay; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in (
        (Path("Cargo.toml"), ["-p", "iddq-cli"]),
        (BENCH_DIR / "replay" / "Cargo.toml", []),
    ):
        if not manifest.is_file():
            raise BenchError(f"{manifest} not found: run from the repository root")
        cmd = ["cargo", "build", "--release", "--quiet", "--offline"]
        cmd += ["--manifest-path", str(manifest), *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return str(target / "release" / "iddq"), str(target / "release" / "perfbench-replay")


def run_child(argv):
    """Runs one process to completion: (wall ms, peak RSS MB, exit code, stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall_ms = (time.perf_counter() - start) * 1e3
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall_ms, usage.ru_maxrss / 1024, proc.returncode, stdout


def gen(iddq, circuit, seed, path):
    code = run_child([iddq, "gen", circuit, "--seed", str(seed), "--out", str(path)])[2]
    if code != 0:
        raise BenchError(f"iddq gen {circuit} exited {code}")


def replay(tool, *args):
    """Runs the in-process replay; returns its JSON output."""
    proc = subprocess.run([tool, *args], capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"replay {args[0]} failed: {proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def timed_setup(repeats, setup, discard=None):
    """Runs `setup` `repeats` times; returns (median seconds, last value).
    `discard` releases every value but the last, outside the timing."""
    times = []
    value = None
    for i in range(repeats):
        start = time.perf_counter()
        value = setup()
        times.append(time.perf_counter() - start)
        if discard is not None and i + 1 < repeats:
            discard(value)
    return statistics.median(times), value


def spin(iterations):
    """The calibration workload: a fixed pure-Python loop; returns its ms."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc += i * i % 7
    return (time.perf_counter() - start) * 1e3


def _spin_server(conn):
    while conn.recv():
        conn.send(spin(SPIN_ITERATIONS))


class Calibrator:
    """Times the calibration spin in a helper process, so that calibrating
    from a client thread never holds this process's interpreter lock."""

    def __init__(self):
        self.conn, child = multiprocessing.Pipe()
        self.proc = multiprocessing.Process(target=_spin_server, args=(child,), daemon=True)
        self.proc.start()

    def measure(self):
        self.conn.send(True)
        return self.conn.recv()

    def close(self):
        self.conn.send(False)
        self.proc.join()


# --- The daemon ---------------------------------------------------------------


class Connection:
    """One JSON-lines connection to the daemon."""

    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=120)
        self.reader = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall(line)

    def receive(self):
        reply = self.reader.readline()
        if not reply:
            raise BenchError("the daemon closed the connection")
        return reply

    def call(self, line):
        self.send(line)
        return json.loads(self.receive())

    def close(self):
        self.reader.close()
        self.sock.close()


class Daemon:
    """One `iddq serve` process at its shipped defaults (2 workers, queue
    16, 64 MiB cache, no store), bound to port 0, with a temporary state
    directory and a `--max-secs` watchdog so that an aborted benchmark
    never leaves it behind."""

    def __init__(self, iddq, work, watchdog_s):
        state = tempfile.mkdtemp(prefix="serve-state-", dir=work)
        argv = [iddq, "serve", "--addr", "127.0.0.1:0", "--state-dir", state]
        argv += ["--max-secs", str(watchdog_s)]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
        )
        line = self.proc.stdout.readline().strip()
        match = re.fullmatch(r"listening on (\S+):(\d+)", line)
        if not match:
            self.kill()
            raise BenchError(f"iddq serve did not start: {line!r}")
        self.addr = (match[1], int(match[2]))

    def call(self, line):
        conn = Connection(self.addr)
        try:
            return conn.call(line)
        finally:
            conn.close()

    def metrics(self):
        return self.call(b'{"op":"metrics"}\n')["result"]

    def drain(self):
        """Drains the daemon and waits for it to exit; returns the parsed
        `drained:` line and the daemon's peak RSS in MB."""
        self.call(b'{"op":"drain"}\n')
        out = self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        match = DRAINED_LINE.search(out)
        drained = {k: int(v) for k, v in match.groupdict().items()} if match else None
        return drained, usage.ru_maxrss / 1024

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        if not self.proc.stdout.closed:
            self.proc.stdout.close()


def closed_loop(addr, bodies, order, seconds, clients, calibrator):
    """`clients` connections on as many threads; each sends its next request
    when the previous reply arrives, until `seconds` have passed. The first
    client times the calibration spin before every SERVE_CALIBRATE_EVERY-th
    request. Returns [(key, wire ms, response)], the loop's elapsed seconds
    and the spin times."""
    lock = threading.Lock()
    results = []
    failures = []
    spins = [calibrator.measure()]
    deadline = time.perf_counter() + seconds

    def client(index):
        try:
            conn = Connection(addr)
            try:
                sent = 0
                while time.perf_counter() < deadline:
                    if index == 0 and sent % SERVE_CALIBRATE_EVERY == 0:
                        spins.append(calibrator.measure())
                    sent += 1
                    with lock:
                        rid, key = next(order)
                    line = request_line(bodies[key], rid)
                    start = time.perf_counter()
                    conn.send(line)
                    reply = conn.receive()
                    wire_ms = (time.perf_counter() - start) * 1e3
                    results.append((key, wire_ms, json.loads(reply)))
            finally:
                conn.close()
        except (OSError, ValueError, BenchError) as e:
            failures.append(e)

    start = time.perf_counter()
    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if failures:
        raise BenchError(f"serve client failed: {failures[0]}")
    spins.append(calibrator.measure())
    return results, elapsed, spins


# --- Workloads ---------------------------------------------------------------


class Run:
    """One benchmark run: its settings, what it measured and what failed."""

    def __init__(self, args, workload, iddq, replay_tool, calibrator):
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = args.trace
        self.iddq = iddq
        self.replay = replay_tool
        self.calibrator = calibrator
        OUT_DIR.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT_DIR))
        self.tally = Tally()
        self.problems = []
        self.setup_s = None
        self.samples_ms = []
        self.spins_ms = []
        self.sample_keys = []
        self.end_to_end = {}
        self.layers = {}
        self.spans = []

    def measured(self, samples_ms, scaled_ms, busy_s, spins_ms, peak_rss_mb):
        """Records the end-to-end metrics. `samples_ms` are the raw op times,
        `scaled_ms` the same in reference-speed ms, and `busy_s` the
        reference-speed seconds the completed operations took."""
        self.samples_ms = samples_ms
        self.spins_ms = spins_ms
        speed = SPIN_REF_MS / statistics.median(spins_ms)
        self.end_to_end = {
            "op_p50_ms": statistics.median(scaled_ms),
            "latency_tail_ms": tail_latency(scaled_ms)[1],
            "throughput_rps": self.tally.ok / busy_s,
            "ok_frac": self.tally.ok / self.tally.attempted,
            "setup_s": self.setup_s * speed,
            "peak_rss_mb": peak_rss_mb,
        }

    def traced(self, replayed, layers, gap):
        """Per-layer figures from an in-process replay. `gap` is how far the
        replayed operation's wall falls short of the end-to-end p50 of the
        same operation, as a share of that p50."""
        self.spans = replayed["spans"]
        covered = covered_frac(self.spans)
        if covered < MIN_COVERED_FRAC:
            self.problems.append(f"stage spans cover {covered:.3f} of the traced wall")
        self.layers = dict(layers, **{"trace.covered_frac": covered, "trace.replay_gap_frac": gap})

    def cli_loop(self, argv, check, replayed):
        """Runs `argv` back to back until `--seconds` have passed (at least
        once), checking every output, and records the metrics."""
        walls, peaks = [], []
        spins = [self.calibrator.measure()]
        start = time.perf_counter()
        while True:
            wall_ms, peak_mb, code, stdout = run_child(argv)
            spins.append(self.calibrator.measure())
            walls.append(wall_ms)
            peaks.append(peak_mb)
            self.tally.record(f"exit code {code}" if code != 0 else check(stdout))
            if time.perf_counter() - start >= self.seconds:
                break
        scaled = [
            wall * 2 * SPIN_REF_MS / (before + after)
            for wall, before, after in zip(walls, spins, spins[1:])
        ]
        self.measured(walls, scaled, sum(scaled) / 1e3, spins, max(peaks))
        op_p50 = statistics.median(walls)
        self.traced(replayed, replayed["layers"], (op_p50 - replayed["wall_ms"]) / op_p50)

    def result(self, spec):
        if self.trace:
            section = spec["per_layer"]
            # A layer the workload never calls does no work on it: zero.
            values = dict({m["name"]: 0.0 for m in section}, **self.layers)
        else:
            section = spec["end_to_end"]
            values = self.end_to_end
        metrics = {}
        for metric in section:
            if metric["name"] not in values:
                raise BenchError(f"metric {metric['name']} was not measured")
            metrics[metric["name"]] = {"value": values[metric["name"]], "unit": metric["unit"]}
        return {
            "correct": self.tally.failed == 0 and not self.problems,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": metrics,
        }

    def write_record(self, result):
        pct, _ = tail_latency(self.samples_ms)
        record = {
            "workload": self.workload,
            "seconds": self.seconds,
            "trace": self.trace,
            "context": run_context(self.seed),
            "tail": {"percentile": pct, "samples": len(self.samples_ms)},
            "problems": self.problems,
            "failures": self.tally.reasons,
            "samples_ms": self.samples_ms,
            "spins_ms": self.spins_ms,
            "sample_keys": self.sample_keys,
            "spans": self.spans,
            "result": result,
        }
        path = OUT_DIR / f"{self.workload}-seed{self.seed}-trace{self.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        print(
            f"perfbench: {self.workload}: tail is p{pct:g} of {len(self.samples_ms)} samples; "
            f"context {json.dumps(record['context'])}; record {path}",
            file=sys.stderr,
        )
        for problem in self.problems + self.tally.reasons:
            print(f"perfbench: {self.workload}: {problem}", file=sys.stderr)


def paper_flow(run):
    path = run.work / "c7552.bench"
    run.setup_s, _ = timed_setup(SETUP_REPEATS, lambda: gen(run.iddq, "c7552", CIRCUIT_SEED, path))
    replayed = replay(run.replay, "paper-flow", str(path), str(FLOW_SEED))
    if not replayed["feasible"]:
        run.problems.append("the replayed partition is infeasible")
    line = replayed["line"]

    def check(stdout):
        return None if stdout.strip() == line else f"printed {stdout.strip()!r}, replayed {line!r}"

    run.cli_loop([run.iddq, "test", str(path), "--seed", str(FLOW_SEED)], check, replayed)


def fault_sweep(run):
    path = run.work / "c7552.bench"
    run.setup_s, _ = timed_setup(SETUP_REPEATS, lambda: gen(run.iddq, "c7552", CIRCUIT_SEED, path))
    replayed = replay(run.replay, "fault-sweep", str(path), str(FAULT_VECTORS), "--oracle")
    if replayed["oracle_match"] is not True:
        run.problems.append("fault-patch detections differ from the CSR re-simulation oracle")
    want = {key: replayed[key] for key in ("stuck_at", "bridges", "vectors", "detected")}

    def check(stdout):
        got = parse_cli(FAULTS_LINE, stdout)
        if got is None:
            return "no fault-sweep summary line"
        if "partial:" in stdout:
            return "partial sweep"
        diff = {key: (got[key], value) for key, value in want.items() if got[key] != value}
        return f"printed vs replayed: {diff}" if diff else None

    run.cli_loop([run.iddq, "faults", str(path), "--vectors", str(FAULT_VECTORS)], check, replayed)


def resynth_seq(run):
    path = run.work / "s5378.bench"
    report = run.work / "report.json"
    run.setup_s, _ = timed_setup(SETUP_REPEATS, lambda: gen(run.iddq, "s5378", CIRCUIT_SEED, path))
    replayed = replay(run.replay, "resynth", str(path), str(FLOW_SEED))
    if not replayed["feasible"]:
        run.problems.append("the replayed partition is infeasible")

    def check(stdout):
        if parse_cli(SYNTH_LINE, stdout) is None:
            return "no synthesis summary line"
        text = report.read_text() if report.exists() else ""
        report.unlink(missing_ok=True)
        return None if text == replayed["report_json"] else "--json report differs from the replay's"

    argv = [run.iddq, "synth", str(path), "--resynth", "--per-gate", "--seed", str(FLOW_SEED)]
    run.cli_loop(argv + ["--json", str(report)], check, replayed)


# --- serve_mix ---------------------------------------------------------------


def serve_requests(seed, upload):
    """The distinct requests of the mix. Named circuits are generated by the
    server at the workload seed; s5378 runs 4-frame sequences."""
    requests = {}
    for circuit in SERVE_CIRCUITS:
        frames = {"frames": 4} if circuit.startswith("s") else {}
        common = {"circuit": circuit, "seed": seed}
        requests[f"sim/{circuit}"] = dict(op="sim", patterns=16384, **common, **frames)
        requests[f"faults/{circuit}"] = dict(op="faults", vectors=256, **common, **frames)
        for tier in ("gatesep", "separation"):
            requests[f"stats-{tier}/{circuit}"] = dict(op="stats", tier=tier, **common)
    requests["upload/c7552"] = {"op": "sim", "bench": upload, "seed": seed, "patterns": 16384}
    return requests


def serve_mix(run):
    upload = run.work / "c7552.bench"
    daemons = []

    def start():
        gen(run.iddq, "c7552", CIRCUIT_SEED, upload)
        daemon = Daemon(run.iddq, run.work, int(run.seconds) + 120)
        daemons.append(daemon)
        daemon.call(b'{"op":"ping"}\n')
        return daemon

    try:
        run.setup_s, daemon = timed_setup(SERVE_SETUP_REPEATS, start, discard=Daemon.drain)
        requests = serve_requests(CIRCUIT_SEED, upload.read_text())
        keys = list(requests)
        listing = run.work / "requests.json"
        listing.write_text(json.dumps([requests[key] for key in keys]))
        replayed = replay(run.replay, "serve", str(listing), *(["--layers"] if run.trace else []))
        expected = dict(zip(keys, replayed["expected"]))
        bodies = {key: json.dumps(request).encode() for key, request in requests.items()}

        # Warm-up, untimed and checked: every distinct request once.
        conn = Connection(daemon.addr)
        try:
            for key in keys:
                reason = check_response(conn.call(request_line(bodies[key], 0)), expected[key])
                if reason:
                    run.problems.append(f"warm-up {key}: {reason}")
        finally:
            conn.close()

        before = daemon.metrics()
        results, elapsed, spins = closed_loop(
            daemon.addr,
            bodies,
            schedule(keys, run.seed),
            run.seconds,
            SERVE_CLIENTS,
            run.calibrator,
        )
        after = daemon.metrics()
        drained, peak_mb = daemon.drain()
        run.problems.extend(drain_problems(after, drained))
    finally:
        for daemon in daemons:
            daemon.kill()

    for key, _, response in results:
        run.tally.record(check_response(response, expected[key]))
    walls = [ms for _, ms, _ in results]
    speed = SPIN_REF_MS / statistics.median(spins)
    scaled = [ms * speed for ms in walls]
    run.measured(walls, scaled, elapsed * speed, spins, peak_mb)
    run.sample_keys = [key for key, _, _ in results]
    if not run.trace:
        return

    def wire(select):
        return p50([ms for key, ms, response in results if select(key, response)])

    def of_op(op):
        return lambda key, _: requests[key]["op"] == op

    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    probe = keys.index("faults/c7552")
    probe_wire = wire(lambda key, _: key == "faults/c7552")
    root = next(s for s in replayed["spans"] if s["op"] == probe and s["parent"] is None)
    execute_ms = replayed["layers"]["serve.faults_execute_ms"]
    layers = dict(
        replayed["layers"],
        **{
            "serve.sim_p50_ms": wire(of_op("sim")),
            "serve.faults_p50_ms": wire(of_op("faults")),
            "serve.stats_p50_ms": wire(of_op("stats")),
            "serve.miss_p50_ms": wire(
                lambda _, response: (response.get("result") or {}).get("cache_hit") is False
            ),
            "serve.cache_hit_frac": hits / max(1, hits + misses),
            "serve.evictions": after["cache"]["evictions"] - before["cache"]["evictions"],
            "serve.faults_overhead_ms": probe_wire - execute_ms,
        },
    )
    root_ms = root["end_ms"] - root["start_ms"]
    run.traced(replayed, layers, (probe_wire - root_ms) / probe_wire)


WORKLOADS = {
    "paper_flow": paper_flow,
    "fault_sweep": fault_sweep,
    "resynth_seq": resynth_seq,
    "serve_mix": serve_mix,
}


def source_revision():
    """The git commit of a repository checkout; otherwise a digest of the
    sources the benchmark builds."""
    if Path(".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if git.returncode == 0:
            return git.stdout.strip()
    digest = hashlib.sha256()
    replay_dir = Path(os.path.relpath(BENCH_DIR / "replay"))
    for root in (Path("Cargo.toml"), Path("Cargo.lock"), Path("crates"), Path("vendor"), replay_dir):
        files = sorted(p for p in root.rglob("*") if p.is_file()) if root.is_dir() else [root]
        for path in files:
            if "target" in path.parts:
                continue
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return "sources-" + digest.hexdigest()[:16]


def run_context(seed):
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "workload_seed": seed,
        "commit": source_revision(),
        "rustc": rustc.stdout.strip(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=5, help="workload seed (default 5)")
    parser.add_argument("--seconds", type=float, default=10, help="measured seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        spec = json.loads(Path("BENCHMARK.json").read_text())
        iddq, replay_tool = build()
        calibrator = Calibrator()
        try:
            for name in names:
                run = Run(args, name, iddq, replay_tool, calibrator)
                try:
                    WORKLOADS[name](run)
                    result = run.result(spec)
                    run.write_record(result)
                finally:
                    shutil.rmtree(run.work, ignore_errors=True)
                if len(names) > 1:
                    result = dict(workload=name, **result)
                print(json.dumps(result), flush=True)
        finally:
            calibrator.close()
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
