//! Properties of the atomic writer and the sealed payload format under
//! injected faults: across arbitrary fault schedules the destination file
//! is always either the old bytes or the new bytes (never a prefix, never
//! debris), and a sealed payload opens iff it is byte-identical to what
//! was sealed.

use proptest::prelude::*;

use iddq_control::{
    open_sealed, seal, write_atomic_in, EngineError, FaultPlan, FaultyEnv, IoEnv, RealEnv,
};
use std::path::PathBuf;

fn temp_dir(tag: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "iddq-control-prop-{tag}-{}-{seed:x}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fault plan drawn from the seed: each class gets an independent rate
/// in 0..=1000, so schedules range from fault-free to always-failing.
fn plan_from(seed: u64) -> FaultPlan {
    let part = |shift: u32| ((seed >> shift) % 1001) as u16;
    FaultPlan {
        enospc: part(0),
        torn_write: part(12),
        rename_fail: part(24),
        corrupt_read: part(36),
        latency: 0, // pure timing noise, pointless in this property
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The destination of `write_atomic_in` reads as exactly the last
    /// successfully committed generation after every attempt — old bytes
    /// or new bytes, never a torn prefix — across arbitrary fault
    /// schedules, and failures are typed `Io` errors.
    #[test]
    fn atomic_writer_is_all_or_nothing(seed in any::<u64>(), attempts in 1usize..24) {
        let dir = temp_dir("atomic", seed);
        let target = dir.join("state.json");
        let env = FaultyEnv::new(seed, plan_from(seed));
        let mut committed: Option<String> = None;
        for gen in 0..attempts {
            let next = format!("generation {gen} :: {}", "x".repeat(gen * 7 % 90));
            match write_atomic_in(&env, &target, &next) {
                Ok(()) => committed = Some(next),
                Err(e) => prop_assert!(matches!(e, EngineError::Io { .. })),
            }
            // Read back through the real env: the file on disk must be a
            // complete generation regardless of what was injected.
            match &committed {
                None => prop_assert!(!target.exists()),
                Some(want) => {
                    let got = RealEnv.read_to_string(&target).unwrap();
                    prop_assert_eq!(&got, want);
                }
            }
        }
        // No temporary debris: the directory holds at most the target.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        prop_assert!(entries.len() <= 1, "debris: {entries:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Sealed payloads written through a faulty env either open to the
    /// exact original payload or fail typed — corrupt-on-read bytes can
    /// never smuggle a silently different payload through the seal.
    #[test]
    fn seal_detects_faulty_reads(seed in any::<u64>(), len in 0usize..200) {
        let dir = temp_dir("seal", seed);
        let target = dir.join("sealed.json");
        let payload: String = (0..len)
            .map(|i| char::from(b'a' + ((seed as usize + i * 31) % 26) as u8))
            .collect();
        write_atomic_in(&RealEnv, &target, &seal(&payload)).unwrap();
        let env = FaultyEnv::new(seed, plan_from(seed));
        for _ in 0..8 {
            if let Ok(text) = env.read_to_string(&target) {
                match open_sealed(&text) {
                    Ok(got) => prop_assert_eq!(got, payload.as_str()),
                    Err(msg) => prop_assert!(!msg.is_empty()),
                }
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Truncating a sealed file at any byte offset is detected.
    #[test]
    fn seal_rejects_every_truncation(len in 0usize..64) {
        let payload: String = (0..len).map(|i| char::from(b'A' + (i % 26) as u8)).collect();
        let sealed = seal(&payload);
        for cut in 0..sealed.len() {
            prop_assert!(open_sealed(&sealed[..cut]).is_err(), "cut={cut}");
        }
        prop_assert_eq!(open_sealed(&sealed).unwrap(), payload.as_str());
    }
}
