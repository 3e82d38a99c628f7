//! Deterministic fault-injection environment for disk I/O.
//!
//! Every disk touchpoint in the workspace — sweep checkpoints, serve job
//! checkpoints, bench JSON emission — goes through the [`IoEnv`] trait
//! instead of calling `std::fs` directly. In production the passthrough
//! [`RealEnv`] adds zero behaviour; in chaos tests a seeded [`FaultyEnv`]
//! interposes ENOSPC, short/torn writes, failed renames, corrupt-on-read
//! bytes and latency by a reproducible schedule, which makes the recovery
//! paths (atomic replace, checkpoint CRC validation) testable as ordinary
//! deterministic properties instead of hand-run process-boundary
//! experiments.
//!
//! The module also owns the **sealed payload** format shared by all
//! durable state files: a one-line header carrying a version tag, an
//! FNV-1a checksum and the payload length, followed by the payload bytes.
//! [`open_sealed`] rejects truncation, bit flips and version drift with a
//! descriptive message the caller maps onto its own typed error (a
//! checkpoint mismatch for sweep state) — never a panic, never a silently
//! half-read file.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::{EngineError, Fnv1a};

/// Abstraction over the filesystem operations the workspace performs on
/// durable state. Implementations must be shareable across worker threads.
pub trait IoEnv: Send + Sync {
    /// Reads an entire file into a string.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;

    /// Creates/truncates `path` with exactly `contents`.
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` onto `to` (same filesystem).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Recursively creates a directory.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The production environment: every operation is the `std::fs` call of
/// the same name, nothing added.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealEnv;

impl IoEnv for RealEnv {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        std::fs::write(path, contents)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// Per-mille injection rates for each fault class of a [`FaultyEnv`].
///
/// Rates are out of 1000 and drawn independently per operation, so a plan
/// with `enospc: 100` fails roughly one write in ten. All-zero rates make
/// the env behave exactly like [`RealEnv`] over its root.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Writes failing with an injected out-of-space error (‰).
    pub enospc: u16,
    /// Writes persisting only a prefix of the bytes, then failing (‰).
    pub torn_write: u16,
    /// Renames failing, leaving the source file in place (‰).
    pub rename_fail: u16,
    /// Reads returning the file's bytes with one byte corrupted (‰).
    pub corrupt_read: u16,
    /// Operations stalling ~1 ms before proceeding (‰).
    pub latency: u16,
}

impl FaultPlan {
    /// No faults: the env degenerates to a passthrough (useful to confirm
    /// a chaos scenario's baseline inside the same harness).
    #[must_use]
    pub fn none() -> Self {
        FaultPlan {
            enospc: 0,
            torn_write: 0,
            rename_fail: 0,
            corrupt_read: 0,
            latency: 0,
        }
    }

    /// The default chaos mix: every class enabled at a rate high enough
    /// that a multi-step scenario almost always sees several injections.
    #[must_use]
    pub fn chaos() -> Self {
        FaultPlan {
            enospc: 120,
            torn_write: 120,
            rename_fail: 120,
            corrupt_read: 100,
            latency: 50,
        }
    }
}

/// Counts of injected faults, by class, since the env was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Injected out-of-space write failures.
    pub enospc: u64,
    /// Injected torn (prefix-only) writes.
    pub torn_writes: u64,
    /// Injected rename failures.
    pub rename_fails: u64,
    /// Reads served with corrupted bytes.
    pub corrupt_reads: u64,
    /// Operations delayed.
    pub delays: u64,
}

impl FaultCounts {
    /// Total injections across all classes (delays included).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.enospc + self.torn_writes + self.rename_fails + self.corrupt_reads + self.delays
    }
}

struct FaultState {
    rng: u64,
    counts: FaultCounts,
}

/// A fault-injecting [`IoEnv`]: performs real filesystem operations but
/// consults a seeded schedule before each one and injects failures per its
/// [`FaultPlan`].
///
/// Determinism: the injection decisions are a pure function of the seed
/// and the *sequence* of operations performed, so a single-threaded
/// scenario replays bit-identically from the same seed. Injected errors
/// carry the `"injected:"` prefix in their message so tests can tell them
/// from real environmental failures.
pub struct FaultyEnv {
    plan: FaultPlan,
    state: Mutex<FaultState>,
}

impl FaultyEnv {
    /// An env injecting faults per `plan`, scheduled by `seed`.
    #[must_use]
    pub fn new(seed: u64, plan: FaultPlan) -> Self {
        FaultyEnv {
            plan,
            state: Mutex::new(FaultState {
                // splitmix64 recommends a non-zero, well-mixed init.
                rng: seed ^ 0x9e37_79b9_7f4a_7c15,
                counts: FaultCounts::default(),
            }),
        }
    }

    /// Injection counts so far.
    #[must_use]
    pub fn counts(&self) -> FaultCounts {
        match self.state.lock() {
            Ok(s) => s.counts,
            Err(poisoned) => poisoned.into_inner().counts,
        }
    }

    fn with_state<R>(&self, f: impl FnOnce(&mut FaultState) -> R) -> R {
        match self.state.lock() {
            Ok(mut s) => f(&mut s),
            Err(poisoned) => f(&mut poisoned.into_inner()),
        }
    }

    /// One splitmix64 step.
    fn next_u64(state: &mut FaultState) -> u64 {
        state.rng = state.rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draws a ‰ roll: `true` with probability `rate`/1000.
    fn roll(state: &mut FaultState, rate: u16) -> bool {
        rate > 0 && Self::next_u64(state) % 1000 < u64::from(rate)
    }

    fn maybe_delay(&self) {
        let hit = self.with_state(|s| {
            if Self::roll(s, self.plan.latency) {
                s.counts.delays += 1;
                true
            } else {
                false
            }
        });
        if hit {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}

impl IoEnv for FaultyEnv {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.maybe_delay();
        let text = std::fs::read_to_string(path)?;
        let corrupt_at = self.with_state(|s| {
            if !text.is_empty() && Self::roll(s, self.plan.corrupt_read) {
                s.counts.corrupt_reads += 1;
                Some(Self::next_u64(s) as usize % text.len())
            } else {
                None
            }
        });
        match corrupt_at {
            None => Ok(text),
            Some(idx) => {
                let mut bytes = text.into_bytes();
                // Swap to a different ASCII byte so the result stays valid
                // UTF-8 (all sealed payloads are ASCII JSON); non-ASCII
                // positions fall back to index 0 of the header.
                let idx = if bytes[idx].is_ascii() { idx } else { 0 };
                bytes[idx] = if bytes[idx] == b'#' { b'%' } else { b'#' };
                String::from_utf8(bytes)
                    .map_err(|_| io::Error::other("injected: corrupt read produced non-UTF-8"))
            }
        }
    }

    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.maybe_delay();
        enum Fate {
            Ok,
            Enospc,
            Torn(usize),
        }
        let fate = self.with_state(|s| {
            if Self::roll(s, self.plan.enospc) {
                s.counts.enospc += 1;
                Fate::Enospc
            } else if !contents.is_empty() && Self::roll(s, self.plan.torn_write) {
                s.counts.torn_writes += 1;
                Fate::Torn(Self::next_u64(s) as usize % contents.len())
            } else {
                Fate::Ok
            }
        });
        match fate {
            Fate::Ok => std::fs::write(path, contents),
            Fate::Enospc => Err(io::Error::other("injected: no space left on device")),
            Fate::Torn(cut) => {
                // A torn write persists a prefix and then reports failure,
                // modelling a crash mid-write.
                std::fs::write(path, &contents[..cut])?;
                Err(io::Error::other(format!(
                    "injected: torn write ({cut}/{} bytes persisted)",
                    contents.len()
                )))
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.maybe_delay();
        let fail = self.with_state(|s| {
            if Self::roll(s, self.plan.rename_fail) {
                s.counts.rename_fails += 1;
                true
            } else {
                false
            }
        });
        if fail {
            return Err(io::Error::other("injected: rename failed"));
        }
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.maybe_delay();
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.maybe_delay();
        std::fs::create_dir_all(path)
    }
}

/// Writes `contents` to `path` atomically through `env`: temp file in the
/// same directory, then rename over the target. Under any single injected
/// fault (ENOSPC, torn write, failed rename) the destination holds either
/// its complete old bytes or the complete new ones — never a prefix.
///
/// # Errors
///
/// Returns [`EngineError::Io`] when the temporary file cannot be written
/// or the rename fails; the temporary file is removed on failure.
pub fn write_atomic_in(env: &dyn IoEnv, path: &Path, contents: &str) -> Result<(), EngineError> {
    let io_err = |e: io::Error| EngineError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    if let Err(e) = env.write(&tmp, contents.as_bytes()) {
        let _ = env.remove_file(&tmp);
        return Err(io_err(e));
    }
    env.rename(&tmp, path).map_err(|e| {
        let _ = env.remove_file(&tmp);
        io_err(e)
    })
}

/// Version tag of the sealed payload format.
const SEAL_MAGIC: &str = "iddq-sealed v1";

/// Wraps `payload` in the sealed durable-state format: a header line
/// `iddq-sealed v1 crc:<16 hex> len:<bytes>` followed by the payload.
/// [`open_sealed`] verifies both fields, so truncation anywhere in the
/// file and any single corrupted byte are detected.
#[must_use]
pub fn seal(payload: &str) -> String {
    format!(
        "{SEAL_MAGIC} crc:{:016x} len:{}\n{payload}",
        Fnv1a::new().bytes(payload.as_bytes()).finish(),
        payload.len()
    )
}

/// Verifies a sealed file's header, length and checksum, returning the
/// payload.
///
/// # Errors
///
/// A human-readable description of the first violated check (missing or
/// foreign header, length mismatch i.e. truncation, checksum mismatch
/// i.e. corruption). Callers map this onto their typed error.
pub fn open_sealed(data: &str) -> Result<&str, String> {
    let Some((header, payload)) = data.split_once('\n') else {
        return Err("missing sealed header line".into());
    };
    let rest = header
        .strip_prefix(SEAL_MAGIC)
        .ok_or_else(|| format!("not a sealed payload (expected `{SEAL_MAGIC}` header)"))?;
    let mut crc: Option<u64> = None;
    let mut len: Option<usize> = None;
    for field in rest.split_whitespace() {
        if let Some(hex) = field.strip_prefix("crc:") {
            crc = u64::from_str_radix(hex, 16).ok();
        } else if let Some(dec) = field.strip_prefix("len:") {
            len = dec.parse().ok();
        }
    }
    let (Some(crc), Some(len)) = (crc, len) else {
        return Err("sealed header missing crc/len fields".into());
    };
    if payload.len() != len {
        return Err(format!(
            "sealed payload truncated: {} bytes present, {len} sealed",
            payload.len()
        ));
    }
    let got = Fnv1a::new().bytes(payload.as_bytes()).finish();
    if got != crc {
        return Err(format!(
            "sealed payload checksum mismatch: computed {got:016x}, sealed {crc:016x}"
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iddq-env-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn real_env_roundtrips() {
        let dir = temp_dir("real");
        let env = RealEnv;
        let p = dir.join("a.txt");
        env.write(&p, b"hello").unwrap();
        assert_eq!(env.read_to_string(&p).unwrap(), "hello");
        let q = dir.join("b.txt");
        env.rename(&p, &q).unwrap();
        let listed: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(listed, vec![q.clone()]);
        env.remove_file(&q).unwrap();
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn faulty_env_is_deterministic_per_seed() {
        let dir = temp_dir("det");
        let runs: Vec<FaultCounts> = (0..2)
            .map(|_| {
                let env = FaultyEnv::new(42, FaultPlan::chaos());
                for i in 0..200 {
                    let p = dir.join(format!("f{i}"));
                    let _ = env.write(&p, b"payload bytes");
                    let _ = env.read_to_string(&p);
                    let _ = env.rename(&p, &dir.join("g"));
                }
                env.counts()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].total() > 0, "chaos plan injected nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_plan_injects_nothing() {
        let dir = temp_dir("zero");
        let env = FaultyEnv::new(7, FaultPlan::none());
        let p = dir.join("x");
        for _ in 0..100 {
            env.write(&p, b"abc").unwrap();
            assert_eq!(env.read_to_string(&p).unwrap(), "abc");
        }
        assert_eq!(env.counts().total(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_errors_are_labelled() {
        let dir = temp_dir("label");
        // enospc-only plan at 100%: every write fails, nothing persisted.
        let env = FaultyEnv::new(1, {
            let mut p = FaultPlan::none();
            p.enospc = 1000;
            p
        });
        let p = dir.join("x");
        let err = env.write(&p, b"abc").unwrap_err();
        assert!(err.to_string().contains("injected:"), "{err}");
        assert!(!p.exists());
        assert_eq!(env.counts().enospc, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_persists_a_strict_prefix() {
        let dir = temp_dir("torn");
        let env = FaultyEnv::new(3, {
            let mut p = FaultPlan::none();
            p.torn_write = 1000;
            p
        });
        let p = dir.join("x");
        let err = env.write(&p, b"0123456789").unwrap_err();
        assert!(err.to_string().contains("torn write"), "{err}");
        let on_disk = std::fs::read(&p).unwrap();
        assert!(on_disk.len() < 10);
        assert_eq!(&on_disk[..], &b"0123456789"[..on_disk.len()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_read_flips_exactly_one_byte() {
        let dir = temp_dir("corrupt");
        let env = FaultyEnv::new(5, {
            let mut p = FaultPlan::none();
            p.corrupt_read = 1000;
            p
        });
        let p = dir.join("x");
        std::fs::write(&p, "abcdefgh").unwrap();
        let got = env.read_to_string(&p).unwrap();
        assert_eq!(got.len(), 8);
        let diffs = got
            .bytes()
            .zip("abcdefgh".bytes())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(diffs, 1);
        assert_eq!(env.counts().corrupt_reads, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_atomic_in_survives_rename_failure() {
        let dir = temp_dir("atomic");
        let target = dir.join("state.json");
        write_atomic_in(&RealEnv, &target, "old").unwrap();
        let env = FaultyEnv::new(9, {
            let mut p = FaultPlan::none();
            p.rename_fail = 1000;
            p
        });
        let err = write_atomic_in(&env, &target, "new").unwrap_err();
        assert!(matches!(err, EngineError::Io { .. }));
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "old");
        // Temp debris cleaned up.
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seal_roundtrip_and_rejections() {
        let sealed = seal("{\"a\":1}");
        assert_eq!(open_sealed(&sealed).unwrap(), "{\"a\":1}");
        // Every truncation point fails typed, never panics.
        for cut in 0..sealed.len() {
            assert!(open_sealed(&sealed[..cut]).is_err(), "cut={cut}");
        }
        // Any single byte flip fails.
        for i in 0..sealed.len() {
            let mut bytes = sealed.clone().into_bytes();
            bytes[i] = if bytes[i] == b'0' { b'1' } else { b'0' };
            if let Ok(s) = String::from_utf8(bytes) {
                if s != sealed {
                    assert!(open_sealed(&s).is_err(), "flip at {i}");
                }
            }
        }
        assert!(open_sealed("plain old json").is_err());
        assert!(open_sealed("").is_err());
    }

    #[test]
    fn seal_empty_payload() {
        let sealed = seal("");
        assert_eq!(open_sealed(&sealed).unwrap(), "");
    }
}
