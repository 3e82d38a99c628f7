//! Cooperative control layer for long-running engine paths.
//!
//! Every long-running entry point of the workspace — fault sweeps, the
//! IDDQ experiment, the evolution search, the resynthesis probes, the
//! parallel separation build — threads a [`RunControl`] through its
//! shard/batch/generation boundaries and returns a typed [`Outcome`]:
//! either the work [`Outcome::Complete`]d, or a budget/cancellation hit
//! degraded it gracefully to [`Outcome::Partial`] results with progress
//! stats instead of hanging or aborting the process.
//!
//! # Failure semantics
//!
//! The workspace distinguishes three ways an engine call can end short of
//! a complete answer, and each has its own vocabulary:
//!
//! * **Invalid input** — untrusted input (a netlist file, a patch, a CLI
//!   argument) is rejected with a typed [`EngineError`] *before* any work
//!   runs. Library crates never abort the process on caller-supplied
//!   data; panics are reserved for internal invariant violations.
//! * **Interruption** — a [`CancelToken`] fired or a [`RunBudget`]
//!   (wall-clock deadline or work quota) ran out. The engine stops at the
//!   next checkpoint boundary and returns `Partial { value, coverage,
//!   reason }`: everything computed so far, the fraction of planned work
//!   that finished, and the [`StopReason`]. Partial results are exact
//!   prefixes, never approximations — the deterministic min-merge of the
//!   sweep engines guarantees that any completed subset of the
//!   fault-shard × pattern-batch grid merges to the same per-fault
//!   earliest detections an uninterrupted run would have produced on that
//!   subset.
//! * **Worker panic** — a poisoned task inside a parallel region is
//!   caught at the worker boundary (`catch_unwind`); its grid cells are
//!   treated as not-run and the call returns `Partial` with
//!   [`StopReason::WorkerPanicked`] instead of aborting the process.
//!
//! # Cancellation protocol
//!
//! Cancellation is *cooperative*: [`CancelToken::cancel`] sets a shared
//! flag, and engines poll [`RunControl::check`] at coarse boundaries
//! (a pattern batch, a generation, a BFS source batch — never inside the
//! packed inner loops). Between boundaries the engine is non-blocking, so
//! the cancellation latency is one boundary interval. Workers observing a
//! stop finish nothing speculative: they record exactly which work units
//! completed, which is what makes checkpointed resume bit-exact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod env;

pub use env::{
    open_sealed, seal, write_atomic_in, FaultCounts, FaultPlan, FaultyEnv, IoEnv, RealEnv,
};

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Streaming 64-bit FNV-1a: the workspace's one cheap content hash. It
/// checksums sealed files, fingerprints netlist structure and sweep
/// checkpoints, digests detection tables and seeds generated circuits,
/// so its output is part of on-disk formats and must never change.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher at the FNV-1a 64-bit offset basis.
    #[must_use]
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Feeds a word as its 8 little-endian bytes.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// The hash of everything fed so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

/// Why an engine call stopped before completing its planned work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline of the [`RunBudget`] passed.
    DeadlineExceeded,
    /// The work quota of the [`RunBudget`] was spent.
    QuotaExhausted,
    /// A worker task panicked; its share of the work is missing and the
    /// process survived (worker-boundary `catch_unwind`).
    WorkerPanicked,
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExceeded => "deadline exceeded",
            StopReason::QuotaExhausted => "work quota exhausted",
            StopReason::WorkerPanicked => "worker panicked",
        })
    }
}

/// Outcome of a budgeted/cancellable engine call.
///
/// `Partial` is a *graceful degradation*, not an error: `value` holds
/// everything computed before the stop, and `coverage` states how much of
/// the planned work finished (in `[0, 1]`). What "work" means is
/// documented per engine (grid cells for sweeps, generations for the
/// evolution search, probes for resynthesis, BFS sources for the
/// separation build).
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// All planned work ran.
    Complete(T),
    /// The run stopped early; `value` holds the exact results of the
    /// completed fraction.
    Partial {
        /// Results of the completed work units.
        value: T,
        /// Fraction of planned work that completed, in `[0, 1]`.
        coverage: f64,
        /// Why the run stopped.
        reason: StopReason,
    },
}

impl<T> Outcome<T> {
    /// `true` iff all planned work ran.
    pub fn is_complete(&self) -> bool {
        matches!(self, Outcome::Complete(_))
    }

    /// The carried value, complete or partial.
    pub fn value(&self) -> &T {
        match self {
            Outcome::Complete(v) | Outcome::Partial { value: v, .. } => v,
        }
    }

    /// Consumes the outcome, returning the carried value.
    pub fn into_value(self) -> T {
        match self {
            Outcome::Complete(v) | Outcome::Partial { value: v, .. } => v,
        }
    }

    /// Fraction of planned work completed: `1.0` for `Complete`.
    pub fn coverage(&self) -> f64 {
        match self {
            Outcome::Complete(_) => 1.0,
            Outcome::Partial { coverage, .. } => *coverage,
        }
    }

    /// The stop reason, if the run ended early.
    pub fn stop_reason(&self) -> Option<StopReason> {
        match self {
            Outcome::Complete(_) => None,
            Outcome::Partial { reason, .. } => Some(*reason),
        }
    }

    /// Maps the carried value, preserving completeness metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Outcome<U> {
        match self {
            Outcome::Complete(v) => Outcome::Complete(f(v)),
            Outcome::Partial {
                value,
                coverage,
                reason,
            } => Outcome::Partial {
                value: f(value),
                coverage,
                reason,
            },
        }
    }
}

/// A clonable cooperative cancellation handle.
///
/// All clones share one flag: any of them can [`CancelToken::cancel`],
/// and engines holding any clone observe it at their next boundary check.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent and visible to all clones.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Resource limits for one engine call: a wall-clock deadline and/or a
/// work quota (patterns applied, descendants evaluated, probes scored —
/// the unit is documented per engine).
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBudget {
    /// Absolute deadline; `None` = unlimited wall clock.
    pub deadline: Option<Instant>,
    /// Total work units allowed; `None` = unlimited.
    pub quota: Option<u64>,
}

impl RunBudget {
    /// No limits.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Caps wall-clock time, measured from now.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> Self {
        self.deadline = Some(Instant::now() + timeout);
        self
    }

    /// Caps total work units.
    #[must_use]
    pub fn with_quota(mut self, quota: u64) -> Self {
        self.quota = Some(quota);
        self
    }

    /// Whether any limit is set at all.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some() || self.quota.is_some()
    }

    /// Composes two budgets into the *tightest* of both: the earlier
    /// deadline and the smaller quota win. This is how a serving layer
    /// combines its own global budget (a drain deadline, a per-job work
    /// cap) with a per-request deadline — the request can only ever
    /// shrink what the server allows, never extend it.
    #[must_use]
    pub fn tightest(self, other: RunBudget) -> RunBudget {
        let min_opt = |a: Option<Instant>, b: Option<Instant>| match (a, b) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        RunBudget {
            deadline: min_opt(self.deadline, other.deadline),
            quota: match (self.quota, other.quota) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Milliseconds of wall clock left before the deadline: `None` when no
    /// deadline is set, `Some(0)` once it has passed. Degradation
    /// heuristics use this to decide whether an expensive analysis still
    /// fits in the time that remains.
    #[must_use]
    pub fn remaining_ms(&self) -> Option<u64> {
        self.deadline.map(|d| {
            d.saturating_duration_since(Instant::now())
                .as_millis()
                .min(u128::from(u64::MAX)) as u64
        })
    }
}

/// Two-phase shutdown signal for a long-running service.
///
/// * [`DrainSignal::drain`] — *graceful*: stop admitting new work, let
///   everything already accepted run to completion, then exit. Engines
///   keep their [`RunControl`]s untouched.
/// * [`DrainSignal::kill`] — *abrupt*: additionally cancel the embedded
///   [`CancelToken`] so in-flight budgeted work stops at its next
///   checkpoint boundary. This is the crash-simulation path: whatever a
///   killed job persisted (checkpoints written at slice boundaries) is
///   what a restarted service resumes from.
///
/// All clones share state; `drain` and `kill` are idempotent, and `kill`
/// implies `drain`.
#[derive(Debug, Clone, Default)]
pub struct DrainSignal {
    draining: Arc<AtomicBool>,
    kill: CancelToken,
}

impl DrainSignal {
    /// A fresh signal: not draining, not killed.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests a graceful drain (idempotent, visible to all clones).
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
    }

    /// Requests an abrupt stop: drains *and* cancels the kill token so
    /// cooperative engines stop at their next boundary.
    pub fn kill(&self) {
        self.drain();
        self.kill.cancel();
    }

    /// Whether a drain (graceful or abrupt) has been requested.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Whether an abrupt stop has been requested.
    #[must_use]
    pub fn is_killed(&self) -> bool {
        self.kill.is_cancelled()
    }

    /// The cancellation token a killed service fires; thread it into every
    /// in-flight [`RunControl`] so kill reaches running engines.
    #[must_use]
    pub fn kill_token(&self) -> &CancelToken {
        &self.kill
    }
}

/// The control block threaded through an engine call: one cancellation
/// token, one budget, and a shared work counter all workers charge.
///
/// Engines call [`RunControl::charge`] as they complete work units and
/// [`RunControl::check`] at shard/batch/generation boundaries; a
/// `Some(reason)` answer means "stop at this boundary and report what you
/// have". Checks are cheap (two relaxed atomic loads; the deadline reads
/// the clock only when one is set), so per-batch polling costs nothing
/// against the packed inner loops.
#[derive(Debug, Clone, Default)]
pub struct RunControl {
    token: CancelToken,
    budget: RunBudget,
    spent: Arc<AtomicU64>,
}

impl RunControl {
    /// A control block that never stops anything (the default for the
    /// plain, non-budgeted entry points).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A control block observing `token`.
    #[must_use]
    pub fn with_token(token: CancelToken) -> Self {
        RunControl {
            token,
            ..Self::default()
        }
    }

    /// A control block enforcing `budget`.
    #[must_use]
    pub fn with_budget(budget: RunBudget) -> Self {
        RunControl {
            budget,
            ..Self::default()
        }
    }

    /// Replaces the budget, keeping the token and spend counter.
    #[must_use]
    pub fn and_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The cancellation token this control observes.
    #[must_use]
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Records `units` of completed work against the quota.
    pub fn charge(&self, units: u64) {
        if self.budget.quota.is_some() {
            self.spent.fetch_add(units, Ordering::Relaxed);
        }
    }

    /// Work units charged so far.
    #[must_use]
    pub fn spent(&self) -> u64 {
        self.spent.load(Ordering::Relaxed)
    }

    /// Boundary poll: `Some(reason)` iff the engine should stop here.
    ///
    /// Cancellation wins over budget reasons when both apply.
    #[must_use]
    pub fn check(&self) -> Option<StopReason> {
        if self.token.is_cancelled() {
            return Some(StopReason::Cancelled);
        }
        if let Some(q) = self.budget.quota {
            if self.spent.load(Ordering::Relaxed) >= q {
                return Some(StopReason::QuotaExhausted);
            }
        }
        if let Some(d) = self.budget.deadline {
            if Instant::now() >= d {
                return Some(StopReason::DeadlineExceeded);
            }
        }
        None
    }
}

/// The unified error taxonomy for untrusted input across the engine
/// crates.
///
/// Library crates reject bad input with these variants instead of
/// panicking; the CLI maps them onto its exit-code discipline (usage
/// errors exit 2, runtime errors exit 1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A caller-supplied parameter is out of its documented domain
    /// (e.g. a fan-out bound below 2). CLI: exit 2.
    InvalidArg(String),
    /// A text input failed to parse; `line` is 1-based. CLI: exit 1.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// A structural rule of the netlist model was violated (dangling
    /// reference, cycle, arity). CLI: exit 1.
    Structure(String),
    /// A structural patch could not be applied. CLI: exit 1.
    Patch(String),
    /// A checkpoint file does not match the run it is resumed into.
    /// CLI: exit 1.
    CheckpointMismatch(String),
    /// An I/O operation failed. CLI: exit 1.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error, stringified.
        message: String,
    },
}

impl EngineError {
    /// `true` iff this is a usage error (the caller passed a parameter
    /// outside its documented domain), which the CLI maps to exit 2; all
    /// other variants are runtime errors (exit 1).
    #[must_use]
    pub fn is_usage(&self) -> bool {
        matches!(self, EngineError::InvalidArg(_))
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            EngineError::Parse { line, message } => write!(f, "line {line}: {message}"),
            EngineError::Structure(m) => write!(f, "structural error: {m}"),
            EngineError::Patch(m) => write!(f, "patch rejected: {m}"),
            EngineError::CheckpointMismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            EngineError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temporary file first and are renamed over the target, so an
/// interrupted (cancelled, budget-killed, crashed) writer can never leave
/// a truncated file behind — the target either keeps its old contents or
/// holds the complete new ones.
///
/// # Errors
///
/// Returns [`EngineError::Io`] when the temporary file cannot be written
/// or the rename fails (the temporary file is cleaned up on rename
/// failure).
pub fn write_atomic(path: &std::path::Path, contents: &str) -> Result<(), EngineError> {
    write_atomic_in(&RealEnv, path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Published FNV-1a 64 test vectors, the word form, and the sealed
    /// header (whose checksum sealed files on disk carry) pinned.
    #[test]
    fn fnv1a_golden_values() {
        let hash = |b: &[u8]| Fnv1a::new().bytes(b).finish();
        assert_eq!(hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(hash(b"iddq"), 0x9e80_28c5_490d_2387);
        assert_eq!(Fnv1a::new().u64(7).finish(), hash(&7u64.to_le_bytes()));
        assert_eq!(
            seal("{\"a\": 1}"),
            "iddq-sealed v1 crc:c7f7c344acd8995f len:8\n{\"a\": 1}"
        );
    }

    #[test]
    fn unlimited_control_never_stops() {
        let c = RunControl::unlimited();
        c.charge(u64::MAX / 2);
        assert_eq!(c.check(), None);
        // Unlimited quota means charges are not even counted.
        assert_eq!(c.spent(), 0);
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let t = CancelToken::new();
        let c = RunControl::with_token(t.clone());
        assert_eq!(c.check(), None);
        t.cancel();
        assert_eq!(c.check(), Some(StopReason::Cancelled));
        assert!(c.token().is_cancelled());
    }

    #[test]
    fn quota_exhausts_after_charges() {
        let c = RunControl::with_budget(RunBudget::unlimited().with_quota(10));
        c.charge(4);
        assert_eq!(c.check(), None);
        c.charge(6);
        assert_eq!(c.check(), Some(StopReason::QuotaExhausted));
        assert_eq!(c.spent(), 10);
    }

    #[test]
    fn deadline_in_the_past_stops_immediately() {
        let c = RunControl::with_budget(RunBudget::unlimited().with_timeout(Duration::ZERO));
        assert_eq!(c.check(), Some(StopReason::DeadlineExceeded));
    }

    #[test]
    fn cancellation_outranks_budget() {
        let t = CancelToken::new();
        let c = RunControl::with_token(t.clone()).and_budget(RunBudget::unlimited().with_quota(0));
        assert_eq!(c.check(), Some(StopReason::QuotaExhausted));
        t.cancel();
        assert_eq!(c.check(), Some(StopReason::Cancelled));
    }

    #[test]
    fn outcome_accessors() {
        let c: Outcome<u32> = Outcome::Complete(7);
        assert!(c.is_complete());
        assert_eq!(c.coverage(), 1.0);
        assert_eq!(c.stop_reason(), None);
        assert_eq!(*c.value(), 7);
        let p = Outcome::Partial {
            value: 3u32,
            coverage: 0.25,
            reason: StopReason::Cancelled,
        };
        assert!(!p.is_complete());
        assert_eq!(p.coverage(), 0.25);
        assert_eq!(p.stop_reason(), Some(StopReason::Cancelled));
        assert_eq!(p.clone().map(|v| v * 2).into_value(), 6);
    }

    #[test]
    fn write_atomic_replaces_and_never_truncates() {
        let dir = std::env::temp_dir().join(format!("iddq-control-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.json");
        write_atomic(&target, "first").unwrap();
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "first");
        write_atomic(&target, "second, longer contents").unwrap();
        assert_eq!(
            std::fs::read_to_string(&target).unwrap(),
            "second, longer contents"
        );
        // No temporary debris left behind.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_reports_io_errors() {
        let err = write_atomic(std::path::Path::new("/nonexistent-dir/x/y.json"), "data")
            .expect_err("directory does not exist");
        assert!(matches!(err, EngineError::Io { .. }));
        assert!(!err.is_usage());
    }

    #[test]
    fn tightest_takes_earlier_deadline_and_smaller_quota() {
        let a = RunBudget::unlimited()
            .with_timeout(Duration::from_secs(10))
            .with_quota(100);
        let b = RunBudget::unlimited()
            .with_timeout(Duration::from_secs(1))
            .with_quota(500);
        let t = a.tightest(b);
        assert_eq!(t.deadline, b.deadline);
        assert_eq!(t.quota, Some(100));
        // A one-sided limit survives composition with an unlimited budget.
        let u = RunBudget::unlimited().tightest(a);
        assert_eq!(u.deadline, a.deadline);
        assert_eq!(u.quota, Some(100));
        assert!(!RunBudget::unlimited()
            .tightest(RunBudget::unlimited())
            .is_limited());
    }

    #[test]
    fn remaining_ms_tracks_deadline() {
        assert_eq!(RunBudget::unlimited().remaining_ms(), None);
        let far = RunBudget::unlimited().with_timeout(Duration::from_secs(3600));
        let ms = far.remaining_ms().unwrap();
        assert!(ms > 3_500_000 && ms <= 3_600_000, "ms={ms}");
        let past = RunBudget::unlimited().with_timeout(Duration::ZERO);
        assert_eq!(past.remaining_ms(), Some(0));
    }

    #[test]
    fn drain_signal_two_phases() {
        let s = DrainSignal::new();
        let clone = s.clone();
        assert!(!s.is_draining() && !s.is_killed());
        clone.drain();
        assert!(s.is_draining());
        assert!(!s.is_killed());
        assert!(!s.kill_token().is_cancelled());
        clone.kill();
        assert!(s.is_draining() && s.is_killed());
        assert!(s.kill_token().is_cancelled());
        // A control threaded with the kill token observes the kill.
        let c = RunControl::with_token(s.kill_token().clone());
        assert_eq!(c.check(), Some(StopReason::Cancelled));
    }

    #[test]
    fn kill_implies_drain() {
        let s = DrainSignal::new();
        s.kill();
        assert!(s.is_draining());
    }

    #[test]
    fn usage_classification() {
        assert!(EngineError::InvalidArg("bound".into()).is_usage());
        assert!(!EngineError::Parse {
            line: 3,
            message: "bad".into()
        }
        .is_usage());
    }
}
