//! Wide packed pattern words.
//!
//! Pattern-parallel logic simulation evaluates one test pattern per bit of
//! a machine word. [`PackedWord`] abstracts the word so the same kernel
//! runs 64 patterns per sweep on a plain `u64`, 256 patterns per sweep on
//! [`W256`] (four `u64` limbs) or 512 on [`W512`] (eight limbs). The
//! limbed ops are fixed-length straight-line loops, which the compiler
//! auto-vectorizes on any target with 128/256/512-bit SIMD. Everything
//! downstream — fault activation, IDDQ detection, ATPG, logic testing,
//! the fault-patch sweep — is generic over this trait; [`LaneWidth`] is
//! the runtime selector the CLI, the server and the bench thread through
//! (`--lanes {64,256,512}`), and [`at_lanes!`](crate::at_lanes) runs a
//! generic call at one.
//!
//! # Lane-width trade-offs
//!
//! Wider lanes amortize the per-gate loop overhead (index arithmetic,
//! loads of fan-in offsets) over more patterns, so throughput grows until
//! the word stops fitting the target's vector registers: `W256` is four
//! `u64`s (two 128-bit or one 256-bit vector op), `W512` eight (one
//! 512-bit op on AVX-512, two 256-bit ops elsewhere — still profitable
//! because the loop overhead halves again). The cost is footprint: the
//! per-node value arrays grow linearly with the lane count, so on large
//! circuits the widest lane can fall out of cache on machines with small
//! L2. Measure with `bench` (`csr64/csr256/csr512` rates) before pinning
//! a default.
//!
//! A sweep whose lanes carry independent sequences has a second limit:
//! lanes beyond its sequence count are empty, and every word op still
//! pays for them. [`LaneWidth::for_sweep`] therefore picks the widest
//! word the sweep fills.

use std::fmt::Debug;
use std::ops::{BitAnd, BitOr, BitXor, Not};

/// A fixed-width bundle of pattern bits with bitwise logic.
///
/// Bit *k* of the word carries pattern *k*; `LANES` is the pattern
/// capacity. All bit positions given to the accessors must be below
/// `LANES`.
pub trait PackedWord:
    Copy
    + Eq
    + Debug
    + Send
    + Sync
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + BitXor<Output = Self>
    + Not<Output = Self>
    + 'static
{
    /// Number of patterns one word carries.
    const LANES: u32;

    /// Number of 64-bit limbs (`LANES / 64`).
    const LIMBS: usize;

    /// The `i`-th 64-bit limb (pattern bits `64·i .. 64·i + 64`).
    fn limb(self, i: usize) -> u64;

    /// The all-zeros word.
    fn zeros() -> Self;

    /// The all-ones word.
    fn ones() -> Self;

    /// `true` if no pattern bit is set.
    fn is_zero(self) -> bool;

    /// Word with every lane equal to `b`.
    fn splat(b: bool) -> Self {
        if b {
            Self::ones()
        } else {
            Self::zeros()
        }
    }

    /// Value of pattern bit `k`.
    fn bit(self, k: u32) -> bool;

    /// Sets pattern bit `k`.
    fn set_bit(&mut self, k: u32);

    /// Index of the lowest set pattern bit, if any.
    fn first_set(self) -> Option<u32>;

    /// Keeps only the lowest `n` pattern bits (`n <= LANES`).
    #[must_use]
    fn mask_lanes(self, n: u32) -> Self;

    /// Builds a word from its 64-bit limbs, `f(0)` being bits `0..64`.
    fn from_limbs(f: impl FnMut(usize) -> u64) -> Self;
}

impl PackedWord for u64 {
    const LANES: u32 = 64;
    const LIMBS: usize = 1;

    fn limb(self, i: usize) -> u64 {
        // Same out-of-range contract as the array-backed wide words: panic.
        assert_eq!(i, 0, "u64 has a single limb");
        self
    }

    fn zeros() -> Self {
        0
    }

    fn ones() -> Self {
        !0
    }

    fn is_zero(self) -> bool {
        self == 0
    }

    fn bit(self, k: u32) -> bool {
        self >> k & 1 == 1
    }

    fn set_bit(&mut self, k: u32) {
        *self |= 1u64 << k;
    }

    fn first_set(self) -> Option<u32> {
        if self == 0 {
            None
        } else {
            Some(self.trailing_zeros())
        }
    }

    fn mask_lanes(self, n: u32) -> Self {
        if n >= 64 {
            self
        } else {
            self & ((1u64 << n) - 1)
        }
    }

    fn from_limbs(mut f: impl FnMut(usize) -> u64) -> Self {
        f(0)
    }
}

/// Defines a multi-limb packed word: a `#[repr(transparent)]` array of
/// `u64`s whose bitwise ops are fixed-length limb loops (branch-free,
/// reliably lowered to vector instructions where available).
macro_rules! limbed_word {
    ($(#[$doc:meta])* $name:ident, $limbs:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(transparent)]
        pub struct $name(pub [u64; $limbs]);

        impl BitAnd for $name {
            type Output = $name;

            #[inline(always)]
            fn bitand(self, rhs: $name) -> $name {
                let mut out = self.0;
                for (a, b) in out.iter_mut().zip(rhs.0) {
                    *a &= b;
                }
                $name(out)
            }
        }

        impl BitOr for $name {
            type Output = $name;

            #[inline(always)]
            fn bitor(self, rhs: $name) -> $name {
                let mut out = self.0;
                for (a, b) in out.iter_mut().zip(rhs.0) {
                    *a |= b;
                }
                $name(out)
            }
        }

        impl BitXor for $name {
            type Output = $name;

            #[inline(always)]
            fn bitxor(self, rhs: $name) -> $name {
                let mut out = self.0;
                for (a, b) in out.iter_mut().zip(rhs.0) {
                    *a ^= b;
                }
                $name(out)
            }
        }

        impl Not for $name {
            type Output = $name;

            #[inline(always)]
            fn not(self) -> $name {
                let mut out = self.0;
                for a in out.iter_mut() {
                    *a = !*a;
                }
                $name(out)
            }
        }

        impl PackedWord for $name {
            const LANES: u32 = $limbs * 64;
            const LIMBS: usize = $limbs;

            fn limb(self, i: usize) -> u64 {
                self.0[i]
            }

            fn zeros() -> Self {
                $name([0; $limbs])
            }

            fn ones() -> Self {
                $name([!0; $limbs])
            }

            fn is_zero(self) -> bool {
                self.0 == [0; $limbs]
            }

            fn bit(self, k: u32) -> bool {
                self.0[(k / 64) as usize] >> (k % 64) & 1 == 1
            }

            fn set_bit(&mut self, k: u32) {
                self.0[(k / 64) as usize] |= 1u64 << (k % 64);
            }

            fn first_set(self) -> Option<u32> {
                for (i, limb) in self.0.iter().enumerate() {
                    if *limb != 0 {
                        return Some(i as u32 * 64 + limb.trailing_zeros());
                    }
                }
                None
            }

            fn mask_lanes(self, n: u32) -> Self {
                let mut out = self.0;
                for (i, limb) in out.iter_mut().enumerate() {
                    let lo = (i as u32) * 64;
                    if n <= lo {
                        *limb = 0;
                    } else if n < lo + 64 {
                        *limb &= (1u64 << (n - lo)) - 1;
                    }
                }
                $name(out)
            }

            fn from_limbs(mut f: impl FnMut(usize) -> u64) -> Self {
                $name(std::array::from_fn(&mut f))
            }
        }
    };
}

limbed_word! {
    /// 256 patterns per word: four `u64` limbs evaluated in lock-step.
    ///
    /// The bitwise ops are straight-line 4-limb loops, which LLVM lowers to
    /// vector instructions where available; on scalar-only targets they are
    /// still branch-free and cache-friendly.
    W256, 4
}

limbed_word! {
    /// 512 patterns per word: eight `u64` limbs evaluated in lock-step.
    ///
    /// One op per gate input covers 512 patterns — a single 512-bit vector
    /// instruction on AVX-512 targets, two 256-bit ops elsewhere. The wider
    /// value arrays cost cache footprint on large circuits; see the module
    /// docs for the trade-off.
    W512, 8
}

/// Runtime-selectable pattern-parallel lane width.
///
/// CLI and bench front ends parse `--lanes {64,256,512}` into this and
/// dispatch to the matching [`PackedWord`] monomorphization; results are
/// lane-width invariant bit-for-bit (each lane carries one pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneWidth {
    /// 64 patterns per sweep (`u64`).
    L64,
    /// 256 patterns per sweep ([`W256`]).
    #[default]
    L256,
    /// 512 patterns per sweep ([`W512`]).
    L512,
}

impl LaneWidth {
    /// Every selectable width, narrowest first.
    pub const ALL: [LaneWidth; 3] = [LaneWidth::L64, LaneWidth::L256, LaneWidth::L512];

    /// Patterns per sweep at this width.
    #[must_use]
    pub fn lanes(self) -> u32 {
        match self {
            LaneWidth::L64 => 64,
            LaneWidth::L256 => 256,
            LaneWidth::L512 => 512,
        }
    }

    /// The width of `lanes` patterns per sweep, if it is one of 64, 256
    /// and 512.
    #[must_use]
    pub fn from_lanes(lanes: u32) -> Option<LaneWidth> {
        LaneWidth::ALL.into_iter().find(|w| w.lanes() == lanes)
    }

    /// The width a sweep of `vectors` vectors read as `frames`-vector
    /// sequences (one per lane) runs at: the widest of 64, 256 and 512
    /// that its `⌈vectors / frames⌉` sequences fill, or 64 when there are
    /// fewer than 64. Deterministic, so the CLI and the server pick the
    /// same width for the same sweep.
    #[must_use]
    pub fn for_sweep(vectors: usize, frames: usize) -> LaneWidth {
        let sequences = vectors.div_ceil(frames.max(1));
        LaneWidth::ALL
            .into_iter()
            .rev()
            .find(|w| w.lanes() as usize <= sequences)
            .unwrap_or(LaneWidth::L64)
    }
}

/// Runs an expression generic over [`PackedWord`] at a runtime
/// [`LaneWidth`]: `at_lanes!(width, |W| f::<W>(..))` evaluates the body
/// once, with `W` the width's word (`u64`, [`W256`] or [`W512`]).
#[macro_export]
macro_rules! at_lanes {
    ($width:expr, |$w:ident| $body:expr) => {
        match $width {
            $crate::LaneWidth::L64 => {
                type $w = u64;
                $body
            }
            $crate::LaneWidth::L256 => {
                type $w = $crate::W256;
                $body
            }
            $crate::LaneWidth::L512 => {
                type $w = $crate::W512;
                $body
            }
        }
    };
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.lanes())
    }
}

/// Error for unknown lane widths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseLaneError(String);

impl std::fmt::Display for ParseLaneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown lane width `{}` (expected 64|256|512)", self.0)
    }
}

impl std::error::Error for ParseLaneError {}

impl std::str::FromStr for LaneWidth {
    type Err = ParseLaneError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "64" => Ok(LaneWidth::L64),
            "256" => Ok(LaneWidth::L256),
            "512" => Ok(LaneWidth::L512),
            other => Err(ParseLaneError(other.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_word<W: PackedWord>() {
        assert!(W::zeros().is_zero());
        assert!(!W::ones().is_zero());
        assert_eq!(W::ones(), !W::zeros());
        assert_eq!(W::splat(true), W::ones());
        assert_eq!(W::zeros().first_set(), None);
        for k in [0, 1, W::LANES / 2, W::LANES - 1] {
            let mut w = W::zeros();
            w.set_bit(k);
            assert!(w.bit(k), "bit {k}");
            assert_eq!(w.first_set(), Some(k));
            assert!((w & !w).is_zero());
            assert_eq!(w | W::zeros(), w);
            assert_eq!(w ^ !w, W::ones());
            // Lane masking keeps bits strictly below the cut.
            assert!(w.mask_lanes(k).is_zero());
            assert_eq!(w.mask_lanes(k + 1), w);
        }
        assert_eq!(W::ones().mask_lanes(W::LANES), W::ones());
        assert_eq!(W::LIMBS as u32 * 64, W::LANES);
        let w = W::from_limbs(|i| i as u64 + 7);
        for i in 0..W::LIMBS {
            assert_eq!(w.limb(i), i as u64 + 7, "limb {i}");
        }
    }

    #[test]
    fn u64_word_laws() {
        check_word::<u64>();
    }

    #[test]
    fn w256_word_laws() {
        check_word::<W256>();
    }

    #[test]
    fn w512_word_laws() {
        check_word::<W512>();
    }

    #[test]
    fn w256_limbs_are_little_endian_in_pattern_order() {
        let w = W256::from_limbs(|i| if i == 2 { 0b10 } else { 0 });
        assert_eq!(w.first_set(), Some(129));
        assert!(w.bit(129));
        assert!(!w.bit(128));
    }

    #[test]
    fn w512_limbs_are_little_endian_in_pattern_order() {
        let w = W512::from_limbs(|i| if i == 7 { 0b100 } else { 0 });
        assert_eq!(w.first_set(), Some(450));
        assert!(w.bit(450));
        assert!(!w.bit(449));
        assert!(!w.bit(386));
    }

    #[test]
    fn w512_low_limbs_match_w256() {
        let w512 = W512::from_limbs(|i| (i as u64 + 1) * 0x0101);
        let w256 = W256::from_limbs(|i| (i as u64 + 1) * 0x0101);
        for k in 0..256 {
            assert_eq!(w512.bit(k), w256.bit(k), "bit {k}");
        }
    }

    #[test]
    fn lane_width_parses_and_displays() {
        assert_eq!("64".parse::<LaneWidth>().unwrap(), LaneWidth::L64);
        assert_eq!("256".parse::<LaneWidth>().unwrap(), LaneWidth::L256);
        assert_eq!("512".parse::<LaneWidth>().unwrap(), LaneWidth::L512);
        assert!("128".parse::<LaneWidth>().is_err());
        assert_eq!(LaneWidth::default(), LaneWidth::L256);
        assert_eq!(LaneWidth::L512.to_string(), "512");
        for w in LaneWidth::ALL {
            assert_eq!(w.to_string().parse::<LaneWidth>().unwrap(), w);
            assert_eq!(LaneWidth::from_lanes(w.lanes()), Some(w));
        }
        assert_eq!(LaneWidth::from_lanes(128), None);
    }

    /// The lane rule on the sweeps it was measured on: the widest word
    /// the sweep's sequences fill.
    #[test]
    fn sweep_width_follows_the_sequence_count() {
        for (what, vectors, frames, want) in [
            ("c7552 x 256", 256, 1, LaneWidth::L256),
            ("c7552 x 4096", 4096, 1, LaneWidth::L512),
            ("s5378 x 256 x 4 frames", 256, 4, LaneWidth::L64),
            ("s5378 x 1024 x 4 frames", 1024, 4, LaneWidth::L256),
            ("fewer than 64 sequences", 63, 1, LaneWidth::L64),
            ("one vector", 1, 4, LaneWidth::L64),
            ("no vectors", 0, 1, LaneWidth::L64),
            ("255 sequences", 255, 1, LaneWidth::L64),
            ("511 sequences", 511 * 3, 3, LaneWidth::L256),
            (
                "a partial last sequence counts",
                511 * 3 + 1,
                3,
                LaneWidth::L512,
            ),
            ("frames 0 reads as 1", 512, 0, LaneWidth::L512),
        ] {
            assert_eq!(LaneWidth::for_sweep(vectors, frames), want, "{what}");
        }
    }

    #[test]
    fn at_lanes_runs_the_width_word() {
        fn lanes_of<W: PackedWord>() -> u32 {
            W::LANES
        }
        for w in LaneWidth::ALL {
            assert_eq!(crate::at_lanes!(w, |W| lanes_of::<W>()), w.lanes());
        }
    }
}
