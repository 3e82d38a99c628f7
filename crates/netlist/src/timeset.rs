use std::fmt;

/// A set of discrete transition times, stored as a bitset.
///
/// §3.1 of the paper associates with every gate `g_i` the set of integers
/// `t_i^1, …, t_i^{L_i}` at which a transition can arrive over any of its
/// `L_i` transition paths. The peak-current estimator then sums, per time
/// step, the maximum currents of all gates that can switch at that step.
///
/// Times are measured on a discrete *grid* (a fixed fraction of a gate
/// delay); bit `t` set means "some path delivers a transition at grid step
/// `t`".
///
/// # Example
///
/// ```rust
/// use iddq_netlist::TimeSet;
///
/// let mut a = TimeSet::new();
/// a.insert(0);
/// let b = a.shifted(3); // a gate 3 grid units downstream
/// assert!(b.contains(3));
/// assert_eq!(b.iter().collect::<Vec<_>>(), vec![3]);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct TimeSet {
    // Invariant: no trailing zero words, so derived equality is structural.
    words: Vec<u64>,
}

impl TimeSet {
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
    }
    /// Creates an empty time set.
    #[must_use]
    pub fn new() -> Self {
        TimeSet { words: Vec::new() }
    }

    /// Creates a set containing exactly `t`.
    #[must_use]
    pub fn singleton(t: u32) -> Self {
        let mut s = TimeSet::new();
        s.insert(t);
        s
    }

    /// Inserts time step `t`.
    pub fn insert(&mut self, t: u32) {
        let w = (t / 64) as usize;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1u64 << (t % 64);
    }

    /// Returns `true` if `t` is in the set.
    #[must_use]
    pub fn contains(&self, t: u32) -> bool {
        let w = (t / 64) as usize;
        w < self.words.len() && self.words[w] & (1u64 << (t % 64)) != 0
    }

    /// Returns `true` if the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of time steps in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Largest time step in the set, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate().rev() {
            if w != 0 {
                return Some(wi as u32 * 64 + 63 - w.leading_zeros());
            }
        }
        None
    }

    /// Smallest time step in the set, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u32> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(wi as u32 * 64 + w.trailing_zeros());
            }
        }
        None
    }

    /// In-place union: `self ∪= other`.
    pub fn union_with(&mut self, other: &TimeSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, &b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// In-place union with `other` shifted right by `delta` grid steps:
    /// `self ∪= { t + delta : t ∈ other }`.
    ///
    /// This is the inner step of the transition-time propagation: a gate
    /// with intrinsic delay `delta` can switch at `t + delta` for every
    /// arrival `t` at its inputs.
    pub fn union_with_shifted(&mut self, other: &TimeSet, delta: u32) {
        let word_shift = (delta / 64) as usize;
        let bit_shift = delta % 64;
        let needed = other.words.len() + word_shift + 1;
        if needed > self.words.len() {
            self.words.resize(needed, 0);
        }
        for (i, &w) in other.words.iter().enumerate() {
            if w == 0 {
                continue;
            }
            self.words[i + word_shift] |= w << bit_shift;
            if bit_shift != 0 {
                self.words[i + word_shift + 1] |= w >> (64 - bit_shift);
            }
        }
        self.trim();
    }

    /// Returns a copy of `self` shifted right by `delta` steps.
    #[must_use]
    pub fn shifted(&self, delta: u32) -> TimeSet {
        let mut out = TimeSet::new();
        out.union_with_shifted(self, delta);
        out
    }

    /// Iterates the member time steps in increasing order, visiting only
    /// the set bits of each word.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let base = wi as u32 * 64;
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                // Clear the lowest set bit.
                rest &= rest - 1;
                Some(base + b)
            })
        })
    }
}

impl fmt::Debug for TimeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<u32> for TimeSet {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        let mut s = TimeSet::new();
        for t in iter {
            s.insert(t);
        }
        s
    }
}

impl Extend<u32> for TimeSet {
    fn extend<I: IntoIterator<Item = u32>>(&mut self, iter: I) {
        for t in iter {
            self.insert(t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_len() {
        let mut s = TimeSet::new();
        assert!(s.is_empty());
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(200);
        assert_eq!(s.len(), 4);
        for t in [0, 63, 64, 200] {
            assert!(s.contains(t));
        }
        assert!(!s.contains(1));
        assert!(!s.contains(201));
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(200));
    }

    #[test]
    fn shift_across_word_boundary() {
        let s: TimeSet = [60u32, 61, 62, 63].into_iter().collect();
        let sh = s.shifted(5);
        assert_eq!(sh.iter().collect::<Vec<_>>(), vec![65, 66, 67, 68]);
    }

    #[test]
    fn shift_by_multiple_words() {
        let s = TimeSet::singleton(3);
        let sh = s.shifted(130);
        assert_eq!(sh.iter().collect::<Vec<_>>(), vec![133]);
    }

    #[test]
    fn union_and_union_shifted() {
        let a: TimeSet = [1u32, 5].into_iter().collect();
        let b: TimeSet = [5u32, 9].into_iter().collect();
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
        let mut v = a;
        v.union_with_shifted(&b, 2);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![1, 5, 7, 11]);
    }

    #[test]
    fn zero_shift_is_plain_union() {
        let a: TimeSet = [0u32, 64, 128].into_iter().collect();
        let mut u = TimeSet::new();
        u.union_with_shifted(&a, 0);
        assert_eq!(u, a);
    }

    #[test]
    fn debug_is_nonempty() {
        let s = TimeSet::singleton(7);
        assert_eq!(format!("{s:?}"), "{7}");
        let empty = TimeSet::new();
        assert_eq!(format!("{empty:?}"), "{}");
    }

    /// The bit-walking iterator against a per-bit reference scan.
    #[test]
    fn iter_matches_per_bit_reference() {
        let reference = |s: &TimeSet| -> Vec<u32> {
            (0..s.words.len() as u32 * 64)
                .filter(|&t| s.contains(t))
                .collect()
        };
        let sets: Vec<TimeSet> = vec![
            TimeSet::new(),
            [0u32].into_iter().collect(),
            [63u32].into_iter().collect(),
            [64u32].into_iter().collect(),
            [0u32, 63, 64].into_iter().collect(),
            // Three words, with the word boundaries and a dense run.
            [0u32, 1, 2, 62, 63, 64, 65, 100, 127, 128, 190, 191]
                .into_iter()
                .collect(),
            (0..192u32).collect(),
            (0..192u32).filter(|t| t % 3 == 1).collect(),
        ];
        for s in &sets {
            assert_eq!(s.iter().collect::<Vec<_>>(), reference(s), "{s:?}");
        }
        assert_eq!(sets[6].words.len(), 3);
    }

    #[test]
    fn iterator_roundtrip() {
        let times = [0u32, 7, 13, 64, 65, 127, 128, 500];
        let s: TimeSet = times.into_iter().collect();
        assert_eq!(s.iter().collect::<Vec<_>>(), times.to_vec());
    }
}
