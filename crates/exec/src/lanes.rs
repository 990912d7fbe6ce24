//! Lane-width-generic bit-parallel frame words.
//!
//! The simulation and TPG stack packs one pattern per *lane*, bit `ℓ`
//! of a machine word. The original engine hard-wired that word to
//! `u64` (64 lanes per pass). [`LaneWord`] abstracts the word so the
//! bit-sliced LFSR stepping, phase-shifter/expander XOR networks, PRPG
//! frame fills **and the whole grading kernel** (gate evaluation,
//! fault propagation, detection popcounts, MISR accumulation) are
//! generic over the lane count: `u64` (64) and `u128` (128 lanes per
//! pass). No wider word measured faster than 64 lanes; `u128` is kept
//! so every width-invariance test has a second width to compare.
//!
//! Every `LaneWord` is, bit for bit, a sequence of [`LaneWord::WORDS`]
//! 64-lane `u64` sub-words ([`LaneWord::word`]): lane `ℓ` of the wide
//! word is lane `ℓ % 64` of sub-word `ℓ / 64`. That layout is what
//! makes wide fills drop-in: one 128-lane PRPG pass produces exactly
//! the two consecutive 64-lane frames of two 64-lane passes (enforced
//! by property tests in the bench crate).

/// A packed multi-lane bit word: the unit of bit-parallel simulation.
///
/// # Example
///
/// ```
/// use lbist_exec::LaneWord;
///
/// fn ones<W: LaneWord>() -> usize {
///     let mut w = W::zero();
///     w.set_lane(0);
///     w.set_lane(W::LANES - 1);
///     (0..W::LANES).filter(|&l| w.get_lane(l)).count()
/// }
/// assert_eq!(ones::<u64>(), 2);
/// assert_eq!(ones::<u128>(), 2);
/// ```
pub trait LaneWord: Copy + Send + Sync + Eq + std::fmt::Debug + 'static {
    /// Patterns carried per word.
    const LANES: usize;
    /// 64-lane `u64` sub-words per word (`LANES / 64`).
    const WORDS: usize;

    /// The all-zero word.
    fn zero() -> Self;

    /// The all-ones word (every lane 1) — the identity of lane-wise
    /// AND and the value of a `Const1` net.
    fn ones() -> Self;

    /// Lane-wise XOR — the only arithmetic GF(2) networks need.
    #[must_use]
    fn xor(self, rhs: Self) -> Self;

    /// Lane-wise AND.
    #[must_use]
    fn and(self, rhs: Self) -> Self;

    /// Lane-wise OR.
    #[must_use]
    fn or(self, rhs: Self) -> Self;

    /// Lane-wise complement.
    #[must_use]
    fn not(self) -> Self;

    /// Reads lane `ℓ`.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn get_lane(self, lane: usize) -> bool;

    /// Sets lane `ℓ` to 1.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= Self::LANES`.
    fn set_lane(&mut self, lane: usize);

    /// The `k`-th 64-lane sub-word (lanes `64k..64k+63`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= Self::WORDS`.
    fn word(self, k: usize) -> u64;

    /// Overwrites the `k`-th 64-lane sub-word (lanes `64k..64k+63`).
    ///
    /// # Panics
    ///
    /// Panics if `k >= Self::WORDS`.
    fn set_word(&mut self, k: usize, sub: u64);

    /// Number of set lanes — the detection popcount of a grading word.
    fn count_ones(self) -> u32 {
        (0..Self::WORDS).map(|k| self.word(k).count_ones()).sum()
    }

    /// `true` when no lane is set.
    fn is_zero(self) -> bool {
        self == Self::zero()
    }

    /// The word with the first `n` lanes set — the live-lane mask of a
    /// batch carrying `n` real patterns.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or exceeds `Self::LANES`.
    fn mask_lanes(n: usize) -> Self {
        assert!(
            (1..=Self::LANES).contains(&n),
            "a batch carries 1..={} patterns, got {n}",
            Self::LANES
        );
        let mut w = Self::zero();
        for k in 0..Self::WORDS {
            let bits = n.saturating_sub(64 * k).min(64);
            if bits == 64 {
                w.set_word(k, !0);
            } else if bits > 0 {
                w.set_word(k, (1u64 << bits) - 1);
            }
        }
        w
    }

    /// Calls `f(lane)` for every set lane, in ascending lane order —
    /// the width-generic replacement for open-coded `u64`
    /// trailing-zeros walks (which silently truncate at wider widths).
    fn for_each_set_lane(self, mut f: impl FnMut(usize)) {
        for k in 0..Self::WORDS {
            let mut sub = self.word(k);
            while sub != 0 {
                let lane = sub.trailing_zeros() as usize;
                sub &= sub - 1;
                f(64 * k + lane);
            }
        }
    }
}

impl LaneWord for u64 {
    const LANES: usize = 64;
    const WORDS: usize = 1;

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn ones() -> Self {
        !0
    }

    #[inline]
    fn xor(self, rhs: Self) -> Self {
        self ^ rhs
    }

    #[inline]
    fn and(self, rhs: Self) -> Self {
        self & rhs
    }

    #[inline]
    fn or(self, rhs: Self) -> Self {
        self | rhs
    }

    #[inline]
    fn not(self) -> Self {
        !self
    }

    #[inline]
    fn get_lane(self, lane: usize) -> bool {
        assert!(lane < 64);
        (self >> lane) & 1 == 1
    }

    #[inline]
    fn set_lane(&mut self, lane: usize) {
        assert!(lane < 64);
        *self |= 1u64 << lane;
    }

    #[inline]
    fn word(self, k: usize) -> u64 {
        assert!(k < 1);
        self
    }

    #[inline]
    fn set_word(&mut self, k: usize, sub: u64) {
        assert!(k < 1);
        *self = sub;
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
}

impl LaneWord for u128 {
    const LANES: usize = 128;
    const WORDS: usize = 2;

    #[inline]
    fn zero() -> Self {
        0
    }

    #[inline]
    fn ones() -> Self {
        !0
    }

    #[inline]
    fn xor(self, rhs: Self) -> Self {
        self ^ rhs
    }

    #[inline]
    fn and(self, rhs: Self) -> Self {
        self & rhs
    }

    #[inline]
    fn or(self, rhs: Self) -> Self {
        self | rhs
    }

    #[inline]
    fn not(self) -> Self {
        !self
    }

    #[inline]
    fn get_lane(self, lane: usize) -> bool {
        assert!(lane < 128);
        (self >> lane) & 1 == 1
    }

    #[inline]
    fn set_lane(&mut self, lane: usize) {
        assert!(lane < 128);
        *self |= 1u128 << lane;
    }

    #[inline]
    fn word(self, k: usize) -> u64 {
        assert!(k < 2);
        (self >> (64 * k)) as u64
    }

    #[inline]
    fn set_word(&mut self, k: usize, sub: u64) {
        assert!(k < 2);
        *self = (*self & !(u128::from(u64::MAX) << (64 * k))) | (u128::from(sub) << (64 * k));
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u128::count_ones(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<W: LaneWord>() {
        let mut w = W::zero();
        assert!((0..W::LANES).all(|l| !w.get_lane(l)));
        for lane in (0..W::LANES).step_by(3) {
            w.set_lane(lane);
        }
        for lane in 0..W::LANES {
            assert_eq!(w.get_lane(lane), lane % 3 == 0, "lane {lane}");
        }
        // Sub-word layout: lane ℓ is bit ℓ%64 of sub-word ℓ/64.
        for k in 0..W::WORDS {
            let sub = w.word(k);
            for bit in 0..64 {
                assert_eq!((sub >> bit) & 1 == 1, w.get_lane(64 * k + bit));
            }
        }
        // XOR clears what was set.
        assert_eq!(w.xor(w), W::zero());
        assert_eq!(W::LANES, 64 * W::WORDS);
        // Boolean algebra against the per-lane reference.
        assert_eq!(w.and(W::ones()), w);
        assert_eq!(w.or(W::zero()), w);
        assert_eq!(w.not().not(), w);
        assert_eq!(w.and(w.not()), W::zero());
        assert_eq!(w.or(w.not()), W::ones());
        assert_eq!(W::ones().count_ones() as usize, W::LANES);
        assert_eq!(w.count_ones() as usize, W::LANES.div_ceil(3));
        assert!(W::zero().is_zero());
        assert!(!w.is_zero());
        // set_word/word round-trip.
        let mut v = W::zero();
        for k in 0..W::WORDS {
            v.set_word(k, 0xDEAD_BEEF ^ k as u64);
        }
        for k in 0..W::WORDS {
            assert_eq!(v.word(k), 0xDEAD_BEEF ^ k as u64);
        }
        // mask_lanes sets exactly the first n lanes.
        for n in [1, 2, W::LANES / 2 + 1, W::LANES - 1, W::LANES] {
            let m = W::mask_lanes(n);
            for lane in 0..W::LANES {
                assert_eq!(m.get_lane(lane), lane < n, "mask_lanes({n}) lane {lane}");
            }
        }
        // for_each_set_lane visits exactly the set lanes, ascending.
        let mut seen = Vec::new();
        w.for_each_set_lane(|l| seen.push(l));
        let expect: Vec<usize> = (0..W::LANES).step_by(3).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn u64_roundtrip() {
        roundtrip::<u64>();
    }

    #[test]
    fn u128_roundtrip() {
        roundtrip::<u128>();
    }
}
