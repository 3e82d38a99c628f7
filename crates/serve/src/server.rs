//! The serving engine: listener, bounded job queue, panic-isolated
//! workers with supervisor replacement, per-request deadlines, tier
//! degradation, and job-keyed crash recovery.
//!
//! See the crate docs for the protocol and failure semantics; this module
//! is the composition of the PR 6 control primitives into a long-running
//! process:
//!
//! * every request runs under a [`RunControl`] whose budget is the
//!   *tightest* of the server's global budget and the request's own
//!   `deadline_ms` ([`RunBudget::tightest`]), with the server's kill
//!   token threaded in so an abrupt shutdown reaches running engines;
//! * fault sweeps run in checkpoint-sized slices (a work quota per
//!   slice); after every slice the checkpoint is written atomically under
//!   the request's job key, which is what makes a killed server
//!   resumable bit-identically;
//! * workers run each request under `catch_unwind`; a panic becomes a
//!   typed `internal` error response and the worker survives. A worker
//!   that dies anyway (chaos `exit`) trips its drop-guard and the
//!   supervisor spawns a replacement — the queue is never dropped.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use iddq_control::Outcome;
use iddq_control::{DrainSignal, EngineError, IoEnv, RealEnv, RunBudget, RunControl, StopReason};
use iddq_core::{plan_tier, AnalysisTier, TierBudget};
/// The fault universe and test vectors of a `faults` request — the same
/// recipe as the CLI `faults` command. Re-exported so tests can rebuild
/// the exact universe a server request swept.
pub use iddq_logicsim::fault_sweep::{fault_universe, random_vectors};
use iddq_logicsim::fault_sweep::{
    sweep_resume, sweep_with_control, FaultSweepOptions, FaultSweepOutcome, LogicFault,
    SweepCheckpoint,
};
use iddq_logicsim::random_sim::{self, RandomRun};
use iddq_netlist::{at_lanes, LaneWidth, Netlist};
use serde::Value;
use serde_json::json;

use crate::cache::{Alias, ArtifactCache, Resolved};
use crate::protocol::{detection_digest, parse_request, Request, RequestError};

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick (tests).
    pub addr: String,
    /// Worker threads draining the job queue.
    pub workers: usize,
    /// Bounded queue capacity; a full queue sheds with `overloaded`.
    pub queue_capacity: usize,
    /// Artifact-cache memory ceiling, bytes (LRU eviction driver) — also
    /// the memory-pressure input of the tier degradation planner.
    pub cache_bytes: usize,
    /// Directory for job checkpoints (crash recovery) — created on start.
    pub state_dir: PathBuf,
    /// Longest accepted request line; longer lines get a typed error.
    pub max_line_bytes: usize,
    /// Work quota per sweep slice: the interval between checkpoint
    /// writes, in sweep grid units. Smaller = finer crash granularity.
    pub slice_quota: u64,
    /// Separation bound ρ for the analysis tiers.
    pub rho: u32,
    /// Server-wide budget composed (tightest-wins) into every request.
    pub global_budget: RunBudget,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 16,
            cache_bytes: 64 << 20,
            state_dir: std::env::temp_dir().join("iddq-serve-state"),
            max_line_bytes: crate::protocol::DEFAULT_MAX_LINE_BYTES,
            slice_quota: 2048,
            rho: 6,
            global_budget: RunBudget::unlimited(),
        }
    }
}

/// Monotonic service counters, exposed by the `metrics` op.
#[derive(Debug, Default)]
pub struct Metrics {
    /// Work requests admitted to the queue.
    pub accepted: AtomicU64,
    /// Work requests answered (ok or partial).
    pub completed: AtomicU64,
    /// Requests shed with `overloaded`.
    pub shed: AtomicU64,
    /// Responses answered `partial` (deadline/cancel mid-run).
    pub partial: AtomicU64,
    /// `stats` requests served below their requested tier.
    pub degraded: AtomicU64,
    /// Worker panics caught and converted to `internal` errors.
    pub panics_caught: AtomicU64,
    /// Workers replaced by the supervisor after dying.
    pub worker_restarts: AtomicU64,
    /// Malformed/oversized/contract-violating lines answered with errors.
    pub request_errors: AtomicU64,
    /// Jobs resumed from an on-disk checkpoint.
    pub resumed_jobs: AtomicU64,
}

impl Metrics {
    fn add(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// One queued unit of work: the parsed request plus everything needed to
/// answer it after the connection thread has moved on.
struct Job {
    request: Request,
    line: usize,
    /// Absolute deadline derived from `deadline_ms` at receipt.
    deadline: Option<Instant>,
    writer: ConnWriter,
}

type ConnWriter = Arc<Mutex<TcpStream>>;

/// Bounded MPMC job queue with shed-on-full semantics.
struct JobQueue {
    inner: Mutex<QueueState>,
    cond: Condvar,
    capacity: usize,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// Why a push was refused.
enum Shed {
    Full(usize),
    Draining,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            cond: Condvar::new(),
            capacity,
        }
    }

    // The Err variant hands the whole Job back by value so the caller
    // can write the overloaded response on its connection — that is the
    // point, not an accident of a large error type.
    #[allow(clippy::result_large_err)]
    fn try_push(&self, job: Job) -> Result<(), (Job, Shed)> {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if state.closed {
            return Err((job, Shed::Draining));
        }
        if state.jobs.len() >= self.capacity {
            let depth = state.jobs.len();
            return Err((job, Shed::Full(depth)));
        }
        state.jobs.push_back(job);
        drop(state);
        self.cond.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed and empty
    /// (a closed queue still drains what was accepted).
    fn pop(&self) -> Option<Job> {
        let mut state = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.cond.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .len()
    }

    /// Stops admissions; workers finish what was already queued.
    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        self.cond.notify_all();
    }

    /// Crash simulation: drops every queued job on the floor.
    fn clear(&self) {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .clear();
        self.cond.notify_all();
    }
}

/// State shared by the listener, connections, workers and supervisor.
struct Shared {
    config: ServerConfig,
    queue: JobQueue,
    cache: ArtifactCache,
    /// Every disk touchpoint (job checkpoints) goes through
    /// this environment, so chaos tests can inject faults on the whole
    /// serving path.
    env: Arc<dyn IoEnv>,
    drain: DrainSignal,
    metrics: Metrics,
    /// EWMA of completed-job wall time, milliseconds ×16 (fixed point).
    ewma_job_ms16: AtomicU64,
    /// Work requests admitted but not yet answered.
    outstanding: AtomicU64,
}

impl Shared {
    /// `retry_after_ms` estimate: queue depth × smoothed job time per
    /// worker, floored so clients always back off a little.
    fn retry_after_ms(&self, depth: usize) -> u64 {
        let ewma = self.ewma_job_ms16.load(Ordering::Relaxed) / 16;
        let per_worker = (depth as u64 + 1) * ewma.max(5) / self.config.workers.max(1) as u64;
        per_worker.clamp(10, 60_000)
    }

    fn note_job_ms(&self, ms: u64) {
        // ewma ← 3/4·ewma + 1/4·sample, in ×16 fixed point.
        let prev = self.ewma_job_ms16.load(Ordering::Relaxed);
        let next = prev - prev / 4 + ms * 4;
        self.ewma_job_ms16.store(next, Ordering::Relaxed);
    }
}

/// A running `iddq serve` instance bound to a local socket.
///
/// Dropping the handle does *not* stop the server; call
/// [`Server::shutdown`] (graceful drain) or [`Server::kill`] (abrupt,
/// crash-simulating) explicitly.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener_thread: Option<std::thread::JoinHandle<()>>,
    worker_handles: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    supervisor: Option<std::thread::JoinHandle<()>>,
    supervisor_tx: mpsc::Sender<SupervisorNote>,
}

enum SupervisorNote {
    WorkerDied,
    Shutdown,
}

impl Server {
    /// Binds the socket, creates the state directory, and spawns the
    /// listener, worker pool and supervisor.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the bind or state-directory creation
    /// fails.
    pub fn start(config: ServerConfig) -> Result<Server, EngineError> {
        Server::start_with_env(config, Arc::new(RealEnv))
    }

    /// [`Server::start`] with an explicit I/O environment: every disk
    /// touchpoint of the serving path (job checkpoints)
    /// goes through `env`, which is how the chaos harness injects
    /// ENOSPC, torn writes, failed renames and corrupt reads into a
    /// live server.
    ///
    /// # Errors
    ///
    /// [`EngineError::Io`] when the bind or a directory creation fails.
    pub fn start_with_env(
        config: ServerConfig,
        env: Arc<dyn IoEnv>,
    ) -> Result<Server, EngineError> {
        env.create_dir_all(&config.state_dir)
            .map_err(|e| EngineError::Io {
                path: config.state_dir.display().to_string(),
                message: e.to_string(),
            })?;
        let listener = TcpListener::bind(&config.addr).map_err(|e| EngineError::Io {
            path: config.addr.clone(),
            message: e.to_string(),
        })?;
        let addr = listener.local_addr().map_err(|e| EngineError::Io {
            path: config.addr.clone(),
            message: e.to_string(),
        })?;
        let shared = Arc::new(Shared {
            queue: JobQueue::new(config.queue_capacity),
            cache: ArtifactCache::new(config.cache_bytes),
            env,
            drain: DrainSignal::new(),
            metrics: Metrics::default(),
            ewma_job_ms16: AtomicU64::new(0),
            outstanding: AtomicU64::new(0),
            config,
        });
        let (tx, rx) = mpsc::channel::<SupervisorNote>();
        let worker_handles = Arc::new(Mutex::new(Vec::new()));
        for i in 0..shared.config.workers.max(1) {
            spawn_worker(i, &shared, &tx, &worker_handles)?;
        }
        let supervisor = {
            let shared = Arc::clone(&shared);
            let tx = tx.clone();
            let handles = Arc::clone(&worker_handles);
            std::thread::Builder::new()
                .name("serve-supervisor".into())
                .spawn(move || {
                    let mut next_id = shared.config.workers.max(1);
                    while let Ok(note) = rx.recv() {
                        match note {
                            SupervisorNote::Shutdown => break,
                            SupervisorNote::WorkerDied => {
                                if shared.drain.is_draining() {
                                    continue;
                                }
                                shared.metrics.add(&shared.metrics.worker_restarts);
                                // A failed respawn leaves the pool one
                                // short; the remaining workers still
                                // drain the queue.
                                let _ = spawn_worker(next_id, &shared, &tx, &handles);
                                next_id += 1;
                            }
                        }
                    }
                })
                .map_err(|e| EngineError::Io {
                    path: "serve-supervisor".into(),
                    message: e.to_string(),
                })?
        };
        let listener_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-listener".into())
                .spawn(move || listen_loop(&listener, &shared))
                .map_err(|e| EngineError::Io {
                    path: "serve-listener".into(),
                    message: e.to_string(),
                })?
        };
        Ok(Server {
            addr,
            shared,
            listener_thread: Some(listener_thread),
            worker_handles,
            supervisor: Some(supervisor),
            supervisor_tx: tx,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clone of the server's drain/kill signal.
    #[must_use]
    pub fn drain_signal(&self) -> DrainSignal {
        self.shared.drain.clone()
    }

    /// Current metrics snapshot as a JSON value.
    #[must_use]
    pub fn metrics_value(&self) -> Value {
        metrics_value(&self.shared)
    }

    /// Graceful shutdown: stop admitting, finish every accepted job,
    /// join the workers and stop the listener/supervisor. Returns the
    /// final metrics. Never hangs on in-flight jobs longer than
    /// `settle`: jobs still running past it are abandoned to the kill
    /// token (they checkpoint and stop at their next boundary).
    pub fn shutdown(mut self, settle: Duration) -> Value {
        self.shared.drain.drain();
        let deadline = Instant::now() + settle;
        while self.shared.outstanding.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if self.shared.outstanding.load(Ordering::Relaxed) > 0 {
            // Jobs that outlive the settle window get the abrupt path.
            self.shared.drain.kill();
        }
        self.stop_threads();
        metrics_value(&self.shared)
    }

    /// Abrupt, crash-simulating stop: cancel the kill token (running
    /// sweeps stop at their next slice boundary, leaving their last
    /// checkpoint on disk), drop everything still queued, and tear the
    /// threads down without waiting for answers. Accepted jobs may never
    /// be answered — exactly like a crash — and are recovered by
    /// resubmitting under the same job key after a restart.
    pub fn kill(mut self) -> Value {
        self.shared.drain.kill();
        self.shared.queue.clear();
        self.stop_threads();
        metrics_value(&self.shared)
    }

    fn stop_threads(&mut self) {
        self.shared.queue.close();
        // Wake the accept loop so it observes the drain flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.listener_thread.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = {
            let mut guard = self
                .worker_handles
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            guard.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        let _ = self.supervisor_tx.send(SupervisorNote::Shutdown);
        if let Some(h) = self.supervisor.take() {
            let _ = h.join();
        }
    }
}

fn metrics_value(shared: &Shared) -> Value {
    let m = &shared.metrics;
    let (hits, misses, evictions) = shared.cache.stats().snapshot();
    let cache = json!({
        "entries": shared.cache.len(),
        "resident_bytes": shared.cache.resident_bytes(),
        "ceiling_bytes": shared.cache.ceiling_bytes(),
        "hits": hits,
        "misses": misses,
        "evictions": evictions,
        "aliases": shared.cache.aliases(),
        "netlists_built": shared.cache.stats().netlists_built(),
    });
    json!({
        "accepted": m.accepted.load(Ordering::Relaxed),
        "completed": m.completed.load(Ordering::Relaxed),
        "shed": m.shed.load(Ordering::Relaxed),
        "partial": m.partial.load(Ordering::Relaxed),
        "degraded": m.degraded.load(Ordering::Relaxed),
        "panics_caught": m.panics_caught.load(Ordering::Relaxed),
        "worker_restarts": m.worker_restarts.load(Ordering::Relaxed),
        "request_errors": m.request_errors.load(Ordering::Relaxed),
        "resumed_jobs": m.resumed_jobs.load(Ordering::Relaxed),
        "queue_depth": shared.queue.depth(),
        "draining": shared.drain.is_draining(),
        "cache": cache,
    })
}

fn spawn_worker(
    id: usize,
    shared: &Arc<Shared>,
    tx: &mpsc::Sender<SupervisorNote>,
    handles: &Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) -> Result<(), EngineError> {
    let shared = Arc::clone(shared);
    let guard_tx = tx.clone();
    let handle = std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || worker_loop(&shared, guard_tx))
        .map_err(|e| EngineError::Io {
            path: format!("serve-worker-{id}"),
            message: e.to_string(),
        })?;
    handles
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
    Ok(())
}

/// Drop-guard reporting an abnormal worker exit to the supervisor.
/// Disarmed on the clean path (queue closed), so only deaths — a panic
/// escaping the catch (impossible by construction, but belt and braces)
/// or the chaos `exit` knob — trigger a replacement.
struct WorkerGuard {
    tx: mpsc::Sender<SupervisorNote>,
    armed: bool,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        if self.armed {
            let _ = self.tx.send(SupervisorNote::WorkerDied);
        }
    }
}

fn worker_loop(shared: &Arc<Shared>, tx: mpsc::Sender<SupervisorNote>) {
    let mut guard = WorkerGuard { tx, armed: true };
    while let Some(job) = shared.queue.pop() {
        let started = Instant::now();
        let die_after = job.request.chaos.as_deref() == Some("exit");
        let result = catch_unwind(AssertUnwindSafe(|| handle_job(shared, &job)));
        let response = match result {
            Ok(value) => value,
            Err(panic) => {
                shared.metrics.add(&shared.metrics.panics_caught);
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic of unknown type".into());
                let mut err = RequestError {
                    kind: "internal".into(),
                    line: job.line,
                    message: format!("worker panicked: {what}"),
                    id: job.request.id,
                };
                err.id = job.request.id;
                err.to_response()
            }
        };
        write_response(&job.writer, &response);
        shared.metrics.add(&shared.metrics.completed);
        if response["status"] == "partial" {
            shared.metrics.add(&shared.metrics.partial);
        }
        shared.outstanding.fetch_sub(1, Ordering::Relaxed);
        shared.note_job_ms(started.elapsed().as_millis() as u64);
        if die_after {
            // Chaos: die *after* answering, so no response is lost while
            // the supervisor replacement path is still exercised.
            return;
        }
    }
    guard.armed = false;
}

fn write_response(writer: &ConnWriter, value: &Value) {
    let mut text = serde_json::to_string(value).unwrap_or_default();
    text.push('\n');
    let mut stream = writer.lock().unwrap_or_else(|e| e.into_inner());
    // A gone client is not an error: the response is simply dropped.
    let _ = stream.write_all(text.as_bytes());
    let _ = stream.flush();
}

fn listen_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if shared.drain.is_draining() {
            break;
        }
        let Ok(stream) = conn else { continue };
        let shared = Arc::clone(shared);
        let _ = std::thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || serve_connection(&shared, stream));
    }
}

/// Incremental capped line reader. Lines longer than the cap are consumed
/// (to the next newline) and reported as [`LineItem::TooLong`] — the
/// connection stays usable.
struct LineScanner<R: Read> {
    source: R,
    pending: Vec<u8>,
    cap: usize,
    eof: bool,
}

enum LineItem {
    Line(String),
    TooLong,
    Eof,
}

impl<R: Read> LineScanner<R> {
    fn new(source: R, cap: usize) -> Self {
        LineScanner {
            source,
            pending: Vec::new(),
            cap,
            eof: false,
        }
    }

    fn next_line(&mut self) -> std::io::Result<LineItem> {
        let mut overflowed = false;
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=pos).take(pos).collect();
                if overflowed || line.len() > self.cap {
                    return Ok(LineItem::TooLong);
                }
                return Ok(LineItem::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            if overflowed {
                // Keep discarding until the newline arrives.
                self.pending.clear();
            } else if self.pending.len() > self.cap {
                overflowed = true;
                self.pending.clear();
            }
            if self.eof {
                return Ok(LineItem::Eof);
            }
            let mut buf = [0u8; 8192];
            let n = self.source.read(&mut buf)?;
            if n == 0 {
                self.eof = true;
                if self.pending.is_empty() || overflowed {
                    return Ok(LineItem::Eof);
                }
                // Final unterminated line, same cap as terminated ones.
                let line = std::mem::take(&mut self.pending);
                if line.len() > self.cap {
                    return Ok(LineItem::TooLong);
                }
                return Ok(LineItem::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            self.pending.extend_from_slice(&buf[..n]);
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer: ConnWriter = Arc::new(Mutex::new(write_half));
    let mut scanner = LineScanner::new(stream, shared.config.max_line_bytes);
    let mut line_no = 0usize;
    loop {
        line_no += 1;
        match scanner.next_line() {
            Err(_) | Ok(LineItem::Eof) => break,
            Ok(LineItem::TooLong) => {
                shared.metrics.add(&shared.metrics.request_errors);
                let err = RequestError::parse(
                    line_no,
                    format!(
                        "request line exceeds {} bytes and was discarded",
                        shared.config.max_line_bytes
                    ),
                );
                write_response(&writer, &err.to_response());
            }
            Ok(LineItem::Line(text)) => {
                if text.trim().is_empty() {
                    continue;
                }
                handle_line(shared, &writer, line_no, &text);
            }
        }
    }
}

fn handle_line(shared: &Arc<Shared>, writer: &ConnWriter, line_no: usize, text: &str) {
    let received = Instant::now();
    let request = match parse_request(line_no, text) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.add(&shared.metrics.request_errors);
            write_response(writer, &e.to_response());
            return;
        }
    };
    if let Err(e) = request.validate(line_no) {
        shared.metrics.add(&shared.metrics.request_errors);
        write_response(writer, &e.to_response());
        return;
    }
    match request.op.as_deref().unwrap_or_default() {
        // Admin ops are answered inline — they must work under overload.
        "ping" => {
            let pong = json!({"id": request.id, "status": "ok", "op": "ping"});
            write_response(writer, &pong);
        }
        "metrics" => {
            let m = metrics_value(shared);
            let resp = json!({"id": request.id, "status": "ok", "op": "metrics", "result": m});
            write_response(writer, &resp);
        }
        "drain" => {
            shared.drain.drain();
            shared.queue.close();
            let resp = json!({"id": request.id, "status": "ok", "op": "drain"});
            write_response(writer, &resp);
        }
        // Work ops go through admission control.
        _ => {
            let deadline = request
                .deadline_ms
                .map(|ms| received + Duration::from_millis(ms));
            let job = Job {
                request,
                line: line_no,
                deadline,
                writer: Arc::clone(writer),
            };
            shared.outstanding.fetch_add(1, Ordering::Relaxed);
            match shared.queue.try_push(job) {
                Ok(()) => {
                    shared.metrics.add(&shared.metrics.accepted);
                }
                Err((job, shed)) => {
                    shared.outstanding.fetch_sub(1, Ordering::Relaxed);
                    shared.metrics.add(&shared.metrics.shed);
                    let (message, retry) = match shed {
                        Shed::Full(depth) => (
                            format!("queue full ({depth} jobs waiting)"),
                            shared.retry_after_ms(depth),
                        ),
                        Shed::Draining => ("server is draining".to_owned(), 1_000),
                    };
                    let error = json!({
                        "kind": "overloaded",
                        "line": job.line,
                        "message": message,
                    });
                    let resp = json!({
                        "id": job.request.id,
                        "status": "overloaded",
                        "retry_after_ms": retry,
                        "error": error,
                    });
                    write_response(&job.writer, &resp);
                }
            }
        }
    }
}

/// Builds the request's [`RunControl`]: the server's kill token plus the
/// tightest of the global budget and the request deadline, optionally
/// tightened further by a per-slice work quota.
fn job_control(shared: &Shared, deadline: Option<Instant>, slice_quota: Option<u64>) -> RunControl {
    let mut budget = shared.config.global_budget.tightest(RunBudget {
        deadline,
        quota: None,
    });
    if let Some(q) = slice_quota {
        budget = budget.tightest(RunBudget::unlimited().with_quota(q));
    }
    RunControl::with_token(shared.drain.kill_token().clone()).and_budget(budget)
}

fn handle_job(shared: &Arc<Shared>, job: &Job) -> Value {
    if job.request.chaos.as_deref() == Some("panic") {
        panic!("chaos: injected worker panic");
    }
    let result = match job.request.op.as_deref().unwrap_or_default() {
        "sleep" => handle_sleep(shared, job),
        "sim" => handle_sim(shared, job),
        "faults" => handle_faults(shared, job),
        "stats" => handle_stats(shared, job),
        other => Err(RequestError::invalid(
            job.line,
            format!("unroutable op `{other}`"),
        )),
    };
    match result {
        Ok(value) => value,
        Err(e) => {
            shared.metrics.add(&shared.metrics.request_errors);
            e.with_id(job.request.id).to_response()
        }
    }
}

/// Diagnostic op: hold a worker slot for `sleep_ms`, interruptible by the
/// deadline/kill control. Makes overload and drain behaviour
/// deterministic in tests without burning CPU.
fn handle_sleep(shared: &Arc<Shared>, job: &Job) -> Result<Value, RequestError> {
    let control = job_control(shared, job.deadline, None);
    let total = Duration::from_millis(job.request.sleep_ms.unwrap_or(50));
    let started = Instant::now();
    let mut stop = None;
    while started.elapsed() < total {
        if let Some(reason) = control.check() {
            stop = Some(reason);
            break;
        }
        std::thread::sleep(Duration::from_millis(2).min(total));
    }
    let slept = started.elapsed().as_millis() as u64;
    let result = json!({"slept_ms": slept});
    Ok(status_response(
        job.request.id,
        "sleep",
        result,
        stop,
        (slept as f64 / total.as_millis().max(1) as f64).min(1.0),
    ))
}

/// `ok` / `partial` response shell shared by the work ops.
fn status_response(
    id: Option<u64>,
    op: &str,
    result: Value,
    stop: Option<StopReason>,
    coverage: f64,
) -> Value {
    match stop {
        None => json!({"id": id, "status": "ok", "op": op, "result": result}),
        Some(reason) => json!({
            "id": id,
            "status": "partial",
            "op": op,
            "result": result,
            "coverage": coverage,
            "stop_reason": reason.to_string(),
        }),
    }
}

/// Makes the request's netlist: a named synthetic profile (`c*` =
/// ISCAS-85-like combinational, `s*` = ISCAS-89-like sequential) or an
/// inline `.bench` upload.
fn resolve_netlist(request: &Request, line: usize) -> Result<Netlist, RequestError> {
    if let Some(name) = &request.circuit {
        let seed = request.seed();
        if let Some(profile) = iddq_gen::iscas::IscasProfile::by_name(name) {
            return Ok(iddq_gen::iscas::generate(profile, seed));
        }
        if let Some(profile) = iddq_gen::seq::SeqProfile::by_name(name) {
            return Ok(iddq_gen::seq::generate(profile, seed));
        }
        return Err(
            RequestError::invalid(line, format!("unknown circuit `{name}`")).with_id(request.id),
        );
    }
    let text = request.bench.as_deref().unwrap_or_default();
    iddq_netlist::bench::parse("inline", text)
        .map_err(|e| RequestError::parse(line, format!("inline bench: {e}")).with_id(request.id))
}

/// The request's artifacts at (at least) `tier`, through the cache: a
/// named circuit or an upload is looked up by its [`Alias`] first and
/// generated or parsed only on a miss, when `plan` picks the tier to
/// build at.
fn lookup_or_build(
    shared: &Shared,
    request: &Request,
    line: usize,
    tier: AnalysisTier,
    plan: impl FnOnce(&Netlist) -> AnalysisTier,
) -> Result<Resolved, RequestError> {
    let alias = match &request.circuit {
        Some(name) => Some(Alias::Named {
            name: name.clone(),
            seed: request.seed(),
        }),
        None => request.bench.clone().map(Alias::Upload),
    };
    shared.cache.lookup_or_build(
        alias,
        tier,
        || resolve_netlist(request, line),
        plan,
        shared.config.rho,
    )
}

/// The sweep options every server fault job runs with. Pinned (single
/// worker thread, automatic shards) so every checkpoint the server
/// writes is resumable by every future server process — the grid config,
/// frames-per-sequence included, is part of the checkpoint fingerprint.
#[must_use]
pub fn server_sweep_options(fault_dropping: bool, frames: usize) -> FaultSweepOptions {
    FaultSweepOptions {
        threads: 1,
        fault_shards: 0,
        fault_dropping,
        frames: frames.max(1),
        ..FaultSweepOptions::default()
    }
}

/// One checkpointed fault-sweep job at a runtime lane width, swept slice
/// by slice: the serve `faults` handler and the chaos harness run every
/// slice through it.
pub(crate) struct SweepJob<'a> {
    netlist: &'a Netlist,
    faults: &'a [LogicFault],
    vectors: &'a [Vec<bool>],
    options: &'a FaultSweepOptions,
    lanes: LaneWidth,
}

impl<'a> SweepJob<'a> {
    /// The job over `vectors` at the width it runs at: [`LaneWidth::for_sweep`]
    /// for a fresh job, and the checkpoint's for one that resumes
    /// `resume`, so a job checkpointed at any width finishes at that
    /// width.
    ///
    /// # Errors
    ///
    /// [`EngineError::CheckpointMismatch`] when `resume` records a width
    /// other than 64, 256 or 512, or does not belong to this job at its
    /// width.
    pub(crate) fn new(
        netlist: &'a Netlist,
        faults: &'a [LogicFault],
        vectors: &'a [Vec<bool>],
        options: &'a FaultSweepOptions,
        resume: Option<&SweepCheckpoint>,
    ) -> Result<Self, EngineError> {
        let Some(cp) = resume else {
            let lanes = LaneWidth::for_sweep(vectors.len(), options.frames);
            return Ok(SweepJob {
                netlist,
                faults,
                vectors,
                options,
                lanes,
            });
        };
        let lanes = LaneWidth::from_lanes(cp.lanes).ok_or_else(|| {
            EngineError::CheckpointMismatch(format!(
                "lane width {} is not 64, 256 or 512",
                cp.lanes
            ))
        })?;
        at_lanes!(lanes, |W| cp
            .validate::<W>(netlist, faults, vectors, options))?;
        Ok(SweepJob {
            netlist,
            faults,
            vectors,
            options,
            lanes,
        })
    }

    /// The width the job runs at.
    pub(crate) fn lanes(&self) -> LaneWidth {
        self.lanes
    }

    /// One slice under `control`: a fresh sweep, or the resume of
    /// `resume`.
    pub(crate) fn slice(
        &self,
        control: &RunControl,
        resume: Option<&SweepCheckpoint>,
    ) -> Result<Outcome<FaultSweepOutcome>, EngineError> {
        let (nl, faults, vectors, options) =
            (self.netlist, self.faults, self.vectors, self.options);
        at_lanes!(self.lanes, |W| Ok(match resume {
            None => sweep_with_control::<W>(nl, faults, vectors, options, control),
            Some(cp) => sweep_resume::<W>(nl, faults, vectors, options, control, cp)?,
        }))
    }

    /// The checkpoint of what `outcome`, a slice of this job, completed.
    pub(crate) fn checkpoint(&self, outcome: &Outcome<FaultSweepOutcome>) -> SweepCheckpoint {
        let (nl, faults, vectors, options) =
            (self.netlist, self.faults, self.vectors, self.options);
        at_lanes!(self.lanes, |W| SweepCheckpoint::capture::<W>(
            nl,
            faults,
            vectors,
            options,
            outcome.value()
        ))
    }
}

fn handle_sim(shared: &Arc<Shared>, job: &Job) -> Result<Value, RequestError> {
    let request = &job.request;
    let Resolved {
        artifacts,
        cache_hit,
        ..
    } = lookup_or_build(shared, request, job.line, AnalysisTier::Timing, |_| {
        AnalysisTier::Timing
    })?;
    let patterns = request.patterns.unwrap_or(1 << 14);
    let seed = request.seed();
    let frames = request.frames.unwrap_or(1).max(1);
    let control = job_control(shared, job.deadline, None);
    let netlist = &artifacts.netlist;
    // One batch = 64 packed sequences of `frames` vectors each; the
    // budget is checked before every batch.
    let batches = patterns.div_ceil(64 * frames as u64);
    let started = Instant::now();
    let outcome = random_sim::run::<u64>(&artifacts.sim, seed, batches, frames, &control);
    let stop = outcome.stop_reason();
    let RandomRun { acc, batches: done } = outcome.into_value();
    let checksum = random_sim::fold_checksum(&[acc]);
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let evaluated = done * 64 * frames as u64;
    let result = json!({
        "circuit": netlist.name(),
        "gates": netlist.gate_count(),
        "patterns": evaluated,
        "frames": frames,
        "patterns_per_sec": evaluated as f64 / elapsed,
        "checksum": format!("{checksum:#018x}"),
        "cache_hit": cache_hit,
    });
    Ok(status_response(
        request.id,
        "sim",
        result,
        stop,
        done as f64 / batches.max(1) as f64,
    ))
}

fn handle_faults(shared: &Arc<Shared>, job: &Job) -> Result<Value, RequestError> {
    let request = &job.request;
    let with_id = |e: RequestError| e.with_id(request.id);
    let Resolved {
        artifacts,
        cache_hit,
        ..
    } = lookup_or_build(shared, request, job.line, AnalysisTier::Timing, |_| {
        AnalysisTier::Timing
    })?;
    let netlist = &artifacts.netlist;
    let seed = request.seed();
    let num_vectors = request.vectors.unwrap_or(256);
    let bridges = request.bridges.unwrap_or(16);
    let frames = request.frames.unwrap_or(1).max(1);
    let faults = fault_universe(netlist, bridges, seed);
    let vectors = random_vectors(netlist, num_vectors, seed);
    let options = server_sweep_options(request.drop.unwrap_or(true), frames);

    let ckpt_path = request
        .job
        .as_ref()
        .map(|j| shared.config.state_dir.join(format!("{j}.ckpt.json")));
    let engine = |e: &EngineError| with_id(RequestError::engine(job.line, e));
    let mut checkpoint: Option<SweepCheckpoint> = None;
    if let Some(path) = &ckpt_path {
        if let Ok(text) = shared.env.read_to_string(path) {
            checkpoint = Some(SweepCheckpoint::from_json(&text).map_err(|e| engine(&e))?);
        }
    }
    let sweep = SweepJob::new(netlist, &faults, &vectors, &options, checkpoint.as_ref())
        .map_err(|e| engine(&e))?;
    let resumed = checkpoint.is_some();
    if resumed {
        shared.metrics.add(&shared.metrics.resumed_jobs);
    }

    let mut slices = 0u64;
    loop {
        slices += 1;
        let control = job_control(shared, job.deadline, Some(shared.config.slice_quota));
        let outcome = sweep
            .slice(&control, checkpoint.as_ref())
            .map_err(|e| engine(&e))?;
        let stop = outcome.stop_reason();
        // The checkpoint is needed to write under the job key or to run
        // the next slice; a keyless sweep that finished or hit its
        // deadline reads its coverage straight off the outcome.
        let cp = (ckpt_path.is_some() || matches!(stop, Some(StopReason::QuotaExhausted)))
            .then(|| sweep.checkpoint(&outcome));
        if let (Some(path), Some(cp)) = (&ckpt_path, &cp) {
            cp.save_in(shared.env.as_ref(), path)
                .map_err(|e| engine(&e))?;
        }
        let grid_coverage = outcome.value().progress();
        let respond = |stop: Option<StopReason>| {
            let value = outcome.value();
            let detected = value.detected.iter().filter(|&&d| d).count();
            let result = json!({
                "circuit": netlist.name(),
                "faults": faults.len(),
                "vectors": vectors.len(),
                "frames": frames,
                "lanes": sweep.lanes().lanes(),
                "detected": detected,
                "fault_coverage": value.coverage,
                "grid_coverage": grid_coverage,
                "digest": detection_digest(&value.first_detection),
                "resumed": resumed,
                "slices": slices,
                "checkpointed": ckpt_path.is_some(),
                "cache_hit": cache_hit,
            });
            status_response(request.id, "faults", result, stop, grid_coverage)
        };
        match stop {
            None => {
                // Job finished: its checkpoint is obsolete.
                if let Some(path) = &ckpt_path {
                    let _ = shared.env.remove_file(path);
                }
                return Ok(respond(None));
            }
            Some(StopReason::QuotaExhausted) => {
                // The per-slice quota fired, not the request deadline:
                // keep sweeping from the checkpoint just captured.
                checkpoint = cp;
            }
            Some(reason) => return Ok(respond(Some(reason))),
        }
    }
}

fn handle_stats(shared: &Arc<Shared>, job: &Job) -> Result<Value, RequestError> {
    let request = &job.request;
    let requested: AnalysisTier = request
        .tier
        .as_deref()
        .unwrap_or("gatesep")
        .parse()
        .map_err(|e: EngineError| RequestError::engine(job.line, &e).with_id(request.id))?;
    // Degradation planning, on a miss only: what still fits the
    // request's remaining deadline and the cache's memory ceiling? A
    // bundle already resident at the requested tier costs nothing to
    // serve, so a hit is never degraded.
    let mut plan = None;
    let Resolved {
        artifacts,
        key,
        cache_hit,
    } = lookup_or_build(shared, request, job.line, requested, |netlist| {
        let budget = shared.config.global_budget.tightest(RunBudget {
            deadline: job.deadline,
            quota: None,
        });
        let planned = plan_tier(
            netlist,
            shared.config.rho,
            requested,
            &TierBudget {
                remaining_ms: budget.remaining_ms(),
                memory_bytes: Some(shared.config.cache_bytes),
            },
        );
        let tier = planned.tier;
        plan = Some(planned);
        tier
    })?;
    let (degraded, degrade_reason) =
        plan.map_or((false, String::new()), |p| (p.degraded, p.reason));
    if degraded {
        shared.metrics.add(&shared.metrics.degraded);
    }
    let netlist = &artifacts.netlist;
    let memory = json!({
        "netlist": netlist.memory_bytes(),
        "sim": artifacts.sim.memory_bytes(),
        "gate_table": artifacts.gate_table().map_or(0, |t| t.memory_bytes()),
        "total": artifacts.memory_bytes(),
    });
    let result = json!({
        "circuit": netlist.name(),
        "inputs": netlist.num_inputs(),
        "outputs": netlist.num_outputs(),
        "gates": netlist.gate_count(),
        "depth": iddq_netlist::levelize::depth(netlist),
        "tier": artifacts.tier().as_str(),
        "requested_tier": requested.as_str(),
        "degraded": degraded,
        "degrade_reason": degrade_reason,
        "memory": memory,
        "cache_hit": cache_hit,
        "fingerprint": format!("{key:016x}"),
    });
    Ok(status_response(request.id, "stats", result, None, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_scanner_caps_and_survives() {
        let data = b"short\nxxxxxxxxxxxxxxxxxxxxxxxxxxxxx\nafter\ntail";
        let mut scanner = LineScanner::new(&data[..], 10);
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Line(l) if l == "short"));
        assert!(matches!(scanner.next_line().unwrap(), LineItem::TooLong));
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Line(l) if l == "after"));
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Line(l) if l == "tail"));
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Eof));
    }

    #[test]
    fn line_scanner_handles_split_reads() {
        // A reader that yields one byte at a time exercises the pending
        // buffer reassembly.
        struct OneByte<'a>(&'a [u8], usize);
        impl Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() {
                    return Ok(0);
                }
                buf[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut scanner = LineScanner::new(OneByte(b"ab\ncd\n", 0), 100);
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Line(l) if l == "ab"));
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Line(l) if l == "cd"));
        assert!(matches!(scanner.next_line().unwrap(), LineItem::Eof));
    }

    #[test]
    fn queue_sheds_when_full_and_drains_when_closed() {
        let queue = JobQueue::new(1);
        let mk = || Job {
            request: Request::default(),
            line: 1,
            deadline: None,
            writer: Arc::new(Mutex::new(
                TcpStream::connect(
                    TcpListener::bind("127.0.0.1:0")
                        .unwrap()
                        .local_addr()
                        .unwrap(),
                )
                .unwrap(),
            )),
        };
        queue.try_push(mk()).map_err(|_| ()).unwrap();
        assert!(matches!(queue.try_push(mk()), Err((_, Shed::Full(1)))));
        queue.close();
        assert!(matches!(queue.try_push(mk()), Err((_, Shed::Draining))));
        // A closed queue still hands out what was accepted, then None.
        assert!(queue.pop().is_some());
        assert!(queue.pop().is_none());
    }
}
