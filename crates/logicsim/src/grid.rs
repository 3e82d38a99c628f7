//! The fault-shard × pattern-batch grid both sweeps run on.
//!
//! A sweep asks, for every fault, which vector detects it first. The
//! IDDQ sweep ([`iddq`](crate::iddq)) and the logic fault sweep
//! ([`fault_sweep`](crate::fault_sweep)) differ only in *how* one
//! pattern batch is checked against a set of faults; everything around
//! that is this module, PPSFP-style (parallel-pattern, single-fault):
//!
//! * **plan** — the fault list is split into shards and the pending
//!   pattern batches into ranges; every (shard, range) cell is a task,
//!   dealt round-robin to scoped worker threads;
//! * **state** — one shared earliest-detection array `best[]`. A cell
//!   skips a fault only when a detection *before* the current batch's
//!   first vector is already published (that detection wins the
//!   min-merge regardless), so worker timing never changes a result;
//! * **workers** — each builds its [`Detector`] lazily inside a
//!   `catch_unwind` boundary and throws it away after a caught panic;
//! * **merge** — the per-cell earliest detections are min-merged, a batch
//!   is *done* once every cell covering it finished it, and the run ends
//!   as [`Outcome::Complete`] or as [`Outcome::Partial`] with the
//!   fraction of cell-batch units that ran and the [`StopReason`].
//!
//! Detection indices are plain vector indices. With `frames = F` a batch
//! holds `lanes` sequences of `F` vectors each, and a detection at lane
//! `k`, frame `t` of batch `b` is vector `(b * lanes + k) * F + t`.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use iddq_control::{Outcome, RunControl, StopReason};

/// One worker's engine: checks one pattern batch against the live faults
/// of one grid cell.
pub(crate) trait Detector {
    /// Whether fault `fault` can be detected at all; faults that cannot
    /// are never handed to [`Detector::sweep_batch`].
    fn detectable(&self, _fault: usize) -> bool {
        true
    }

    /// Checks pattern batch `batch` against the faults `faults` (global
    /// indices). `live[k]` marks fault `faults.start + k` as worth
    /// checking; for each live fault the batch detects, `hits[k]` (all
    /// `None` on entry) receives its earliest `(lane, frame)` — a lower
    /// lane, an earlier sequence, outranks any frame.
    fn sweep_batch(
        &mut self,
        batch: usize,
        faults: Range<usize>,
        live: &[bool],
        hits: &mut [Option<(u32, usize)>],
    );

    /// Work counters so far.
    fn work(&self) -> SweepWork {
        SweepWork::default()
    }
}

/// Work counters of a fault-patch sweep, summed over its completed grid
/// cells (all zero on an engine that keeps none, such as the CSR oracle).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Node evaluations: probe steps, stem walks, superposition and force
    /// walks, and release walks of single-frame bridges.
    pub evaluations: u64,
    /// Fault applications: one per live fault per pattern batch, and per
    /// frame in a multi-frame sweep.
    pub applications: u64,
    /// Multi-frame applications whose faulty machine carried diverged
    /// latched state into the frame.
    pub diverged_applications: u64,
    /// DFF words pinned over those diverged applications.
    pub diverged_pins: u64,
    /// Multi-frame fault-frames skipped because the batch had already
    /// detected the fault at its lane 0 (an earlier frame of the first
    /// sequence): nothing later can beat that detection.
    pub skipped_frames: u64,
    /// Multi-frame applications run on fewer lanes than the frame holds,
    /// the lanes below the fault's in-batch detection.
    pub narrowed_applications: u64,
}

impl std::ops::Add for SweepWork {
    type Output = SweepWork;

    fn add(self, o: SweepWork) -> SweepWork {
        SweepWork {
            evaluations: self.evaluations + o.evaluations,
            applications: self.applications + o.applications,
            diverged_applications: self.diverged_applications + o.diverged_applications,
            diverged_pins: self.diverged_pins + o.diverged_pins,
            skipped_frames: self.skipped_frames + o.skipped_frames,
            narrowed_applications: self.narrowed_applications + o.narrowed_applications,
        }
    }
}

impl std::ops::Sub for SweepWork {
    type Output = SweepWork;

    fn sub(self, o: SweepWork) -> SweepWork {
        SweepWork {
            evaluations: self.evaluations - o.evaluations,
            applications: self.applications - o.applications,
            diverged_applications: self.diverged_applications - o.diverged_applications,
            diverged_pins: self.diverged_pins - o.diverged_pins,
            skipped_frames: self.skipped_frames - o.skipped_frames,
            narrowed_applications: self.narrowed_applications - o.narrowed_applications,
        }
    }
}

/// The shape and knobs of one sweep.
pub(crate) struct Spec<'a> {
    /// Fault count.
    pub faults: usize,
    /// Vector count.
    pub vectors: usize,
    /// Sequences per pattern batch (the packed word's lane count).
    pub lanes: usize,
    /// Frames per sequence (`0` is read as `1`).
    pub frames: usize,
    /// Worker threads; `0` = one per core, capped by the work.
    pub threads: usize,
    /// Fault shards; `0` = shard only when the batches cannot keep every
    /// worker busy.
    pub fault_shards: usize,
    /// Skip faults once their earliest detection is known.
    pub dropping: bool,
    /// The worker reaching this pattern batch panics (chaos testing).
    pub chaos_panic_batch: Option<usize>,
    /// Checkpointed earliest detections and done batches to resume from.
    pub resume: Option<(&'a [Option<usize>], &'a [bool])>,
}

/// The merged result of a grid run.
pub(crate) struct Sweep {
    /// Per fault: earliest detecting vector index.
    pub first_detection: Vec<Option<usize>>,
    /// Per pattern batch: swept against every fault shard.
    pub done_batches: Vec<bool>,
    /// Summed [`Detector::work`] of the completed cells.
    pub work: SweepWork,
}

impl Sweep {
    /// Per-fault detected flags and the detected fraction (`1.0` for an
    /// empty fault list).
    pub fn detected(&self) -> (Vec<bool>, f64) {
        let detected: Vec<bool> = self.first_detection.iter().map(Option::is_some).collect();
        let hits = detected.iter().filter(|&&d| d).count();
        let coverage = if detected.is_empty() {
            1.0
        } else {
            hits as f64 / detected.len() as f64
        };
        (detected, coverage)
    }
}

/// Pattern batches of a sweep over `vectors` vectors.
pub(crate) fn num_batches(vectors: usize, frames: usize, lanes: usize) -> usize {
    vectors.div_ceil(frames.max(1)).div_ceil(lanes)
}

/// One cell: a fault range crossed with a range of positions into the
/// pending-batch list.
struct Task {
    faults: Range<usize>,
    positions: Range<usize>,
}

/// What a finished (or interrupted) cell reports.
struct Cell {
    fault_start: usize,
    first: Vec<Option<usize>>,
    /// The prefix of the cell's positions that was fully swept.
    done: Range<usize>,
    work: SweepWork,
}

/// Runs the grid described by `spec` under `control`, one `engine()` per
/// worker.
pub(crate) fn run<D: Detector>(
    spec: &Spec<'_>,
    control: &RunControl,
    engine: impl Fn() -> D + Sync,
) -> Outcome<Sweep> {
    let frames = spec.frames.max(1);
    let batch_vectors = spec.lanes * frames;
    let num_batches = num_batches(spec.vectors, frames, spec.lanes);
    let batch_ids: Vec<usize> = match spec.resume {
        None => (0..num_batches).collect(),
        Some((_, done)) => (0..num_batches).filter(|&b| !done[b]).collect(),
    };
    let pending = batch_ids.len();
    let faults = spec.faults;

    // Plan: batch ranges feed the workers first; fault shards re-run the
    // same batches once per shard, so they only come in when there are
    // fewer batches than workers.
    let threads = match spec.threads {
        0 => std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(pending.max(1) * faults.div_ceil(64).max(1)),
        t => t,
    };
    let shards = match spec.fault_shards {
        0 if pending >= threads => 1,
        0 => threads
            .div_ceil(pending.max(1))
            .min(faults.div_ceil(16).max(1)),
        s => s.min(faults.max(1)),
    };
    let chunks = threads.div_ceil(shards).min(pending.max(1)).max(1);
    let per_shard = faults.div_ceil(shards).max(1);
    let per_chunk = pending.div_ceil(chunks).max(1);
    let mut tasks = Vec::with_capacity(shards * chunks);
    // How many cells cover each pending position: a batch is done only
    // when all of them finished it.
    let mut covering = vec![0u32; pending];
    for s in 0..shards {
        let fault_range = s * per_shard..faults.min((s + 1) * per_shard);
        if fault_range.is_empty() && faults > 0 {
            continue;
        }
        for c in 0..chunks {
            let positions = c * per_chunk..pending.min((c + 1) * per_chunk);
            if positions.is_empty() && pending > 0 {
                continue;
            }
            for p in positions.clone() {
                covering[p] += 1;
            }
            tasks.push(Task {
                faults: fault_range.clone(),
                positions,
            });
        }
    }
    let total_units: usize = tasks.iter().map(|t| t.positions.len()).sum();

    // Checkpointed detections pre-seed the drop state: they justify skips
    // for the same reason published ones do.
    let best: Vec<AtomicUsize> = (0..faults)
        .map(|i| {
            let seed = spec.resume.and_then(|(first, _)| first[i]);
            AtomicUsize::new(seed.unwrap_or(usize::MAX))
        })
        .collect();

    let run_cell = |task: &Task, eng: &mut D| -> Cell {
        let range = task.faults.clone();
        let mut first = vec![None; range.len()];
        let mut live: Vec<bool> = range.clone().map(|fi| eng.detectable(fi)).collect();
        let mut remaining = live.iter().filter(|&&l| l).count();
        let mut hits = vec![None; range.len()];
        let mut done = 0;
        let work0 = eng.work();
        for pos in task.positions.clone() {
            if spec.dropping && remaining == 0 {
                // Every fault has a detection no later batch can beat, so
                // the rest of the cell counts as swept.
                done = task.positions.len();
                break;
            }
            if control.check().is_some() {
                break;
            }
            let batch = batch_ids[pos];
            if spec.chaos_panic_batch == Some(batch) {
                panic!("chaos injection: worker panicked at pattern batch {batch}");
            }
            let start = batch * batch_vectors;
            if spec.dropping {
                for (k, l) in live.iter_mut().enumerate() {
                    if *l && best[range.start + k].load(Ordering::Relaxed) < start {
                        *l = false;
                        remaining -= 1;
                    }
                }
            }
            eng.sweep_batch(batch, range.clone(), &live, &mut hits);
            for (k, hit) in hits.iter_mut().enumerate() {
                if let Some((lane, t)) = hit.take() {
                    let v = (batch * spec.lanes + lane as usize) * frames + t;
                    first[k] = Some(first[k].map_or(v, |cur: usize| cur.min(v)));
                    best[range.start + k].fetch_min(v, Ordering::Relaxed);
                    if spec.dropping && live[k] {
                        live[k] = false;
                        remaining -= 1;
                    }
                }
            }
            done += 1;
            control.charge((spec.vectors.min(start + batch_vectors) - start) as u64);
        }
        Cell {
            fault_start: range.start,
            first,
            done: task.positions.start..task.positions.start + done,
            work: eng.work() - work0,
        }
    };

    // One worker: its engine is built lazily inside the panic boundary and
    // dropped, possibly mid-batch and so poisoned, after a caught panic.
    let run_tasks = |mine: &[Task]| -> (Vec<Cell>, bool) {
        let mut engine_slot: Option<D> = None;
        let mut cells = Vec::with_capacity(mine.len());
        let mut panicked = false;
        for task in mine {
            let mut slot = engine_slot.take();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_cell(task, slot.get_or_insert_with(&engine))
            }));
            match outcome {
                Ok(cell) => {
                    engine_slot = slot;
                    cells.push(cell);
                }
                Err(_) => panicked = true,
            }
        }
        (cells, panicked)
    };

    let per_worker: Vec<(Vec<Cell>, bool)> = if threads <= 1 || tasks.len() <= 1 {
        vec![run_tasks(&tasks)]
    } else {
        let mut assignments: Vec<Vec<Task>> = (0..threads).map(|_| Vec::new()).collect();
        for (i, t) in tasks.into_iter().enumerate() {
            assignments[i % threads].push(t);
        }
        std::thread::scope(|scope| {
            let handles: Vec<_> = assignments
                .iter()
                .filter(|mine| !mine.is_empty())
                .map(|mine| scope.spawn(|| run_tasks(mine)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| (Vec::new(), true)))
                .collect()
        })
    };

    // Deterministic merge: the minimum over the checkpoint and every
    // completed cell.
    let mut first_detection = match spec.resume {
        Some((first, _)) => first.to_vec(),
        None => vec![None; faults],
    };
    let mut done_batches = match spec.resume {
        Some((_, done)) => done.to_vec(),
        None => vec![false; num_batches],
    };
    let mut finished = vec![0u32; pending];
    let mut done_units = 0;
    let mut work = SweepWork::default();
    let mut panicked = false;
    for (cells, worker_panicked) in per_worker {
        panicked |= worker_panicked;
        for cell in cells {
            done_units += cell.done.len();
            work = work + cell.work;
            for (k, v) in cell.first.into_iter().enumerate() {
                if let Some(v) = v {
                    let slot = &mut first_detection[cell.fault_start + k];
                    *slot = Some(slot.map_or(v, |cur| cur.min(v)));
                }
            }
            for p in cell.done {
                finished[p] += 1;
            }
        }
    }
    for (p, &b) in batch_ids.iter().enumerate() {
        if covering[p] > 0 && finished[p] == covering[p] {
            done_batches[b] = true;
        }
    }
    let sweep = Sweep {
        first_detection,
        done_batches,
        work,
    };
    if done_units >= total_units && !panicked {
        return Outcome::Complete(sweep);
    }
    let reason = match control.check() {
        Some(reason) => reason,
        None => StopReason::WorkerPanicked,
    };
    Outcome::Partial {
        value: sweep,
        coverage: if total_units == 0 {
            1.0
        } else {
            done_units as f64 / total_units as f64
        },
        reason,
    }
}
