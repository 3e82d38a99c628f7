//! Deterministic chaos harness: the serving path's crash-recovery and
//! corruption invariants, exercised under seeded fault schedules.
//!
//! One scenario, fully deterministic per seed (every random choice —
//! fault injection, crash points — derives from the seed by splitmix64,
//! so a failing seed replays exactly):
//!
//! * [`sweep_scenario`] — a checkpointed fault-sweep job run to
//!   completion through a crash/restart loop over a [`FaultyEnv`] that
//!   injects ENOSPC, torn writes, failed renames and corrupt reads. At every simulated
//!   process restart the job state is reloaded from disk (or restarted
//!   from scratch when the checkpoint is lost or detected corrupt). The
//!   invariant: however the schedule interleaves, the completed sweep's
//!   detection digest is **bit-identical** to an uninterrupted fault-free
//!   run, and every disk failure surfaces as a typed error — never a
//!   panic, never a silently wrong digest.
//!
//! [`run_chaos`] drives it across a seed range and aggregates; the CLI
//! `iddq chaos` subcommand and the `chaos --smoke` CI leg call it. The
//! full sweep runs ≥200 schedules.

use std::path::PathBuf;

use iddq_control::{
    CancelToken, EngineError, FaultPlan, FaultyEnv, IoEnv, RealEnv, RunBudget, RunControl,
    StopReason,
};
use iddq_logicsim::fault_sweep::{sweep, SweepCheckpoint, SweepJob};
use iddq_netlist::data;

use crate::protocol::detection_digest;
use crate::server::{fault_universe, random_vectors, server_sweep_options};

/// How many work units (patterns applied per cell) a chaos slice may run
/// before its quota stops it: less than one pattern batch, so a sweep
/// without fault dropping crosses a slice boundary at every batch. With
/// dropping, the small adders' faults all fall in the first batch and
/// most such schedules finish in one slice.
const SLICE_QUOTA: u64 = 48;

/// Upper bound on restart-loop iterations; the in-memory path always
/// makes progress, so hitting this means a logic bug, not bad luck.
const MAX_SLICES: usize = 4096;

/// Vector counts the schedules cycle through. A job's lane width follows
/// its vector count as in a served one: 5 pattern batches at 64 lanes,
/// 2 at 256 and 5 at 512.
const VECTOR_COUNTS: [usize; 3] = [320, 448, 2560];

/// Options for [`run_chaos`].
#[derive(Debug, Clone, Copy)]
pub struct ChaosOptions {
    /// First seed of the range.
    pub seed0: u64,
    /// Seeded sweep crash/restart schedules to run.
    pub sweep_schedules: usize,
}

impl ChaosOptions {
    /// The CI smoke configuration: a handful of fixed seeds, seconds of
    /// wall clock.
    #[must_use]
    pub fn smoke() -> Self {
        ChaosOptions {
            seed0: 0xc4a05,
            sweep_schedules: 12,
        }
    }

    /// The full suite: ≥200 independent fault schedules.
    #[must_use]
    pub fn full() -> Self {
        ChaosOptions {
            seed0: 0xc4a05,
            sweep_schedules: 216,
        }
    }
}

/// Aggregated outcome of a chaos run. Reaching the report at all means
/// every invariant held on every schedule — violations fail fast with a
/// seed-stamped message.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosReport {
    /// Schedules executed.
    pub schedules: u64,
    /// Sweep slices run across all schedules.
    pub slices: u64,
    /// Simulated process restarts across all sweep schedules.
    pub restarts: u64,
    /// Restarts that loaded a valid checkpoint and continued from it.
    pub resumes: u64,
    /// Checkpoint loads that failed typed (corrupt or unreadable) and
    /// fell back to a fresh start.
    pub checkpoint_recoveries: u64,
    /// Checkpoint saves that failed typed (the previous checkpoint
    /// stayed intact per the atomic-writer guarantee).
    pub save_failures: u64,
    /// Total faults injected by the environments.
    pub faults_injected: u64,
}

impl ChaosReport {
    fn absorb(&mut self, other: &ChaosReport) {
        self.schedules += other.schedules;
        self.slices += other.slices;
        self.restarts += other.restarts;
        self.resumes += other.resumes;
        self.checkpoint_recoveries += other.checkpoint_recoveries;
        self.save_failures += other.save_failures;
        self.faults_injected += other.faults_injected;
    }
}

/// Local splitmix64 for schedule decisions (crash points, request order)
/// — deliberately separate from the env's injection stream so the two
/// never correlate.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn chance(&mut self, permille: u64) -> bool {
        self.next() % 1000 < permille
    }
}

fn scratch_dir(seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!("iddq-chaos-sweep-{}-{seed:x}", std::process::id()))
}

fn slice_control() -> RunControl {
    RunControl::with_token(CancelToken::new())
        .and_budget(RunBudget::unlimited().with_quota(SLICE_QUOTA))
}

/// One seeded crash/restart schedule of a checkpointed fault sweep,
/// with fault dropping at odd seeds only: without it every pattern
/// batch runs, so the schedule crosses slice boundaries and resumes
/// from mid-sweep checkpoints.
///
/// # Errors
///
/// A human-readable, seed-stamped description of the violated invariant.
pub fn sweep_scenario(seed: u64) -> Result<ChaosReport, String> {
    let fail = |what: String| Err(format!("sweep seed {seed:#x}: {what}"));
    let netlist = data::ripple_adder(5 + (seed % 3) as usize);
    let faults = fault_universe(&netlist, 8, seed);
    let vectors = random_vectors(&netlist, VECTOR_COUNTS[(seed / 3 % 3) as usize], seed);
    let options = server_sweep_options(seed % 2 == 1, 1);

    // Ground truth: one uninterrupted, fault-free run under the same
    // options, at 64 lanes whatever width the job runs at.
    let want =
        detection_digest(&sweep::<u64>(&netlist, &faults, &vectors, &options).first_detection);

    let dir = scratch_dir(seed);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        return fail(format!("scratch dir: {e}"));
    }
    let path = dir.join("job.ckpt.json");
    let env = FaultyEnv::new(seed, FaultPlan::chaos());
    let mut mix = Mix(seed ^ 0x5eed);
    let mut report = ChaosReport {
        schedules: 1,
        ..ChaosReport::default()
    };
    // The job as the server takes it up: at the checkpoint's width when it
    // resumes one, which must belong to it.
    let job = |resume: Option<&SweepCheckpoint>| {
        SweepJob::new(&netlist, &faults, &vectors, &options, None, resume)
    };

    // The live process's view of the job. A simulated crash drops it and
    // everything must be reconstructable from disk (or from scratch).
    let mut checkpoint: Option<SweepCheckpoint> = None;
    let mut completed = None;
    for _ in 0..MAX_SLICES {
        if mix.chance(300) {
            // Simulated kill -9: lose the in-memory state, restart from
            // whatever the disk holds.
            report.restarts += 1;
            let loaded =
                SweepCheckpoint::load_in(&env, &path).and_then(|cp| job(Some(&cp)).map(|_| cp));
            checkpoint = match loaded {
                Ok(cp) => {
                    report.resumes += 1;
                    Some(cp)
                }
                Err(EngineError::CheckpointMismatch(_)) => {
                    // Corrupt, or not this job's: per the runbook, delete
                    // it and restart the job fresh.
                    report.checkpoint_recoveries += 1;
                    let _ = RealEnv.remove_file(&path);
                    None
                }
                // Missing file or an injected read fault: start fresh;
                // the next save simply rewrites it.
                Err(EngineError::Io { .. }) => None,
                Err(e) => return fail(format!("unexpected load error: {e}")),
            };
        }
        report.slices += 1;
        let slice = job(checkpoint.as_ref()).and_then(|job| {
            let outcome = job.run(&slice_control(), checkpoint.as_ref())?;
            let cp = job.checkpoint(&outcome);
            Ok((outcome, cp))
        });
        let (outcome, cp) = match slice {
            Ok(slice) => slice,
            Err(e) => return fail(format!("resume from validated checkpoint: {e}")),
        };
        if cp.save_in(&env, &path).is_err() {
            // Typed failure; the previous on-disk checkpoint (if any)
            // must still be intact — the restart branch verifies that.
            report.save_failures += 1;
        }
        match outcome.stop_reason() {
            None => {
                completed = Some(detection_digest(&outcome.value().first_detection));
                break;
            }
            Some(StopReason::QuotaExhausted) => checkpoint = Some(cp),
            Some(reason) => return fail(format!("unexpected stop: {reason:?}")),
        }
    }
    report.faults_injected = env.counts().total();
    let _ = std::fs::remove_dir_all(&dir);
    match completed {
        Some(got) if got == want => Ok(report),
        Some(got) => fail(format!("digest diverged: got {got}, want {want}")),
        None => fail(format!("no completion within {MAX_SLICES} slices")),
    }
}

/// Runs the configured number of seeded sweep schedules.
///
/// # Errors
///
/// The first violated invariant, seed-stamped for exact replay.
pub fn run_chaos(options: &ChaosOptions) -> Result<ChaosReport, String> {
    let mut report = ChaosReport::default();
    for i in 0..options.sweep_schedules {
        report.absorb(&sweep_scenario(options.seed0 + i as u64)?);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_holds_every_invariant() {
        let report = run_chaos(&ChaosOptions::smoke()).unwrap();
        assert_eq!(report.schedules, 12);
        assert!(report.faults_injected > 0, "chaos must actually inject");
        assert!(report.restarts > 0, "schedules must actually crash");
        assert!(report.resumes > 0, "no restart resumed a checkpoint");
        assert!(
            report.slices > report.schedules,
            "no schedule crossed a slice"
        );
    }

    #[test]
    fn scenarios_are_deterministic_per_seed() {
        assert_eq!(sweep_scenario(0xfeed), sweep_scenario(0xfeed));
    }
}
