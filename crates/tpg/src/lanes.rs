//! Bit-sliced multi-lane LFSR stepping, generic over the lane width.
//!
//! The PPSFP fault simulators grade one pattern per lane of a packed
//! machine word, and each pattern is a full scan load: lane `ℓ` of a
//! batch holds the chain contents after shift cycles
//! `[ℓ·stride, (ℓ+1)·stride)` of one continuous PRPG stream. Stepping
//! a scalar [`Lfsr`] through all of that costs `LANES·stride` `Gf2Vec`
//! steps per batch and forces the caller to buffer per-lane bit
//! vectors.
//!
//! [`LaneLfsr`] instead keeps the *transpose*: `W::LANES` virtual
//! copies of the LFSR — copy `ℓ` pre-advanced by `ℓ·stride` cycles via
//! the GF(2) transition matrix — stored bit-sliced, one [`LaneWord`]
//! per register stage with lane `ℓ` belonging to virtual copy `ℓ`. One
//! [`LaneLfsr::step`] then advances **all lanes one cycle** with a
//! handful of word XORs, and every tap/phase-shifter read yields a
//! ready-made multi-lane pattern word. A whole batch costs `stride`
//! word-steps instead of `LANES·stride` scalar steps, and the produced
//! words drop straight into simulation frames with no per-lane
//! allocation.
//!
//! The width is a type parameter (`u64` 64 lanes — the default — or
//! `u128` for 128 lanes per pass); the stream semantics are identical
//! at both widths, enforced by the tests below and by property tests in
//! the bench crate.

use crate::{Gf2Matrix, Gf2Vec, Lfsr};
use lbist_exec::LaneWord;

/// `W::LANES` phase-staggered virtual copies of one Fibonacci LFSR,
/// stored bit-sliced (stage `j` of all lanes packed into one `W`).
///
/// # Example
///
/// ```
/// use lbist_tpg::{LaneLfsr, Lfsr, LfsrPoly};
///
/// let poly = LfsrPoly::maximal(19).unwrap();
/// let mut scalar = Lfsr::with_ones_seed(poly.clone());
/// let mut lanes: LaneLfsr = LaneLfsr::fork(&scalar, 5);
///
/// // Lane ℓ's output stream equals the scalar stream delayed ℓ·5 cycles.
/// let stream: Vec<bool> = (0..64 * 5).map(|_| scalar.step()).collect();
/// for t in 0..5 {
///     let word = lanes.step();
///     for lane in 0..64 {
///         assert_eq!((word >> lane) & 1 == 1, stream[lane * 5 + t]);
///     }
/// }
/// ```
#[derive(Clone, Debug)]
pub struct LaneLfsr<W: LaneWord = u64> {
    /// `sliced[j]` = stage `j` of every lane; lane `ℓ` is virtual copy `ℓ`.
    sliced: Vec<W>,
    /// Stage indices XORed into the feedback (from the polynomial's
    /// feedback mask).
    taps: Vec<usize>,
    /// Transition matrix raised to `stride` — advances one lane state to
    /// the next lane's start state.
    jump: Gf2Matrix,
}

impl<W: LaneWord> LaneLfsr<W> {
    /// Forks `lfsr` into `W::LANES` bit-sliced lanes: lane `ℓ` starts
    /// at the scalar state advanced by `ℓ·stride` cycles. The scalar
    /// LFSR is not modified; use [`LaneLfsr::lane_state`] to
    /// resynchronise it after a batch.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is 0.
    pub fn fork(lfsr: &Lfsr, stride: u64) -> Self {
        assert!(stride > 0, "lane stride must be nonzero");
        let degree = lfsr.len();
        let mask = lfsr.poly().feedback_mask();
        let taps = (0..degree).filter(|&j| mask.get(j)).collect();
        let jump = lfsr.transition_matrix().pow(stride);
        let mut lanes = LaneLfsr { sliced: vec![W::zero(); degree], taps, jump };
        lanes.reload(lfsr);
        lanes
    }

    /// Re-slices the lane states from the scalar LFSR's current state,
    /// reusing the cached jump matrix. Cheap enough to call once per
    /// batch.
    pub fn reload(&mut self, lfsr: &Lfsr) {
        assert_eq!(lfsr.len(), self.sliced.len(), "LFSR degree changed under a LaneLfsr");
        self.sliced.fill(W::zero());
        let mut state = lfsr.state().clone();
        for lane in 0..W::LANES {
            for (j, word) in self.sliced.iter_mut().enumerate() {
                if state.get(j) {
                    word.set_lane(lane);
                }
            }
            if lane + 1 < W::LANES {
                state = self.jump.mul_vec(&state);
            }
        }
    }

    /// Register width.
    pub fn degree(&self) -> usize {
        self.sliced.len()
    }

    /// Stage `j` of all lanes as a packed word.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn stage_word(&self, j: usize) -> W {
        self.sliced[j]
    }

    /// The output stage (stage 0) of all lanes.
    #[inline]
    pub fn output_word(&self) -> W {
        self.sliced[0]
    }

    /// Advances every lane one cycle and returns the multi-lane word
    /// shifted out of stage 0 — the bit-sliced equivalent of
    /// [`Lfsr::step`].
    pub fn step(&mut self) -> W {
        let out = self.sliced[0];
        let mut feedback = W::zero();
        for &t in &self.taps {
            feedback = feedback.xor(self.sliced[t]);
        }
        let degree = self.sliced.len();
        self.sliced.copy_within(1..degree, 0);
        self.sliced[degree - 1] = feedback;
        out
    }

    /// Extracts one lane's scalar state (e.g. the last lane after a
    /// batch is the state the scalar LFSR would hold after
    /// `W::LANES·stride` cycles).
    ///
    /// # Panics
    ///
    /// Panics if `lane >= W::LANES`.
    pub fn lane_state(&self, lane: usize) -> Gf2Vec {
        assert!(lane < W::LANES, "a LaneLfsr holds {} lanes", W::LANES);
        Gf2Vec::from_fn(self.sliced.len(), |j| self.sliced[j].get_lane(lane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LfsrPoly;

    fn scalar_stream(mut lfsr: Lfsr, n: usize) -> Vec<bool> {
        (0..n).map(|_| lfsr.step()).collect()
    }

    #[test]
    fn lanes_match_scalar_stream_at_every_offset() {
        for degree in [5, 8, 13, 19] {
            let poly = LfsrPoly::maximal(degree).unwrap();
            let scalar = Lfsr::with_ones_seed(poly);
            let stride = 7u64;
            let mut lanes: LaneLfsr = LaneLfsr::fork(&scalar, stride);
            let stream = scalar_stream(scalar, 64 * stride as usize);
            for t in 0..stride as usize {
                let word = lanes.step();
                for lane in 0..64usize {
                    assert_eq!(
                        (word >> lane) & 1 == 1,
                        stream[lane * stride as usize + t],
                        "degree {degree} lane {lane} cycle {t}"
                    );
                }
            }
        }
    }

    /// Every lane width replays the identical scalar stream: lane `ℓ`
    /// of width `W` equals the scalar stream delayed `ℓ·stride` cycles,
    /// for 64 and 128 lanes.
    #[test]
    fn wide_lanes_match_scalar_stream() {
        fn check<W: LaneWord>() {
            let poly = LfsrPoly::maximal(13).unwrap();
            let scalar = Lfsr::with_ones_seed(poly);
            let stride = 5u64;
            let mut lanes: LaneLfsr<W> = LaneLfsr::fork(&scalar, stride);
            let stream = scalar_stream(scalar, W::LANES * stride as usize);
            for t in 0..stride as usize {
                let word = lanes.step();
                for lane in 0..W::LANES {
                    assert_eq!(
                        word.get_lane(lane),
                        stream[lane * stride as usize + t],
                        "{} lanes, lane {lane} cycle {t}",
                        W::LANES
                    );
                }
            }
        }
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn lane63_end_state_is_full_batch_advance() {
        let poly = LfsrPoly::maximal(11).unwrap();
        let scalar = Lfsr::with_ones_seed(poly.clone());
        let stride = 9u64;
        let mut lanes: LaneLfsr = LaneLfsr::fork(&scalar, stride);
        for _ in 0..stride {
            lanes.step();
        }
        let mut reference = Lfsr::with_ones_seed(poly);
        for _ in 0..64 * stride {
            reference.step();
        }
        assert_eq!(lanes.lane_state(63), *reference.state());
    }

    /// The wide equivalent: the last lane of a 128-lane fork ends a
    /// batch at the 128-load advance point.
    #[test]
    fn last_wide_lane_end_state_is_full_batch_advance() {
        let poly = LfsrPoly::maximal(11).unwrap();
        let scalar = Lfsr::with_ones_seed(poly.clone());
        let stride = 4u64;
        let mut lanes: LaneLfsr<u128> = LaneLfsr::fork(&scalar, stride);
        for _ in 0..stride {
            lanes.step();
        }
        let mut reference = Lfsr::with_ones_seed(poly);
        for _ in 0..128 * stride {
            reference.step();
        }
        assert_eq!(lanes.lane_state(127), *reference.state());
    }

    #[test]
    fn reload_resumes_mid_stream() {
        let poly = LfsrPoly::maximal(10).unwrap();
        let mut scalar = Lfsr::with_ones_seed(poly);
        let stride = 4u64;
        let mut lanes: LaneLfsr = LaneLfsr::fork(&scalar, stride);
        // Consume one batch, resync the scalar, reload, run a second batch.
        for _ in 0..stride {
            lanes.step();
        }
        scalar.set_state(lanes.lane_state(63));
        lanes.reload(&scalar);
        let stream = scalar_stream(scalar.clone(), 64 * stride as usize);
        for t in 0..stride as usize {
            let word = lanes.step();
            for lane in 0..64usize {
                assert_eq!((word >> lane) & 1 == 1, stream[lane * stride as usize + t]);
            }
        }
    }

    #[test]
    fn stage_words_expose_full_state() {
        let poly = LfsrPoly::maximal(6).unwrap();
        let scalar = Lfsr::with_ones_seed(poly);
        let lanes: LaneLfsr = LaneLfsr::fork(&scalar, 3);
        assert_eq!(lanes.degree(), 6);
        assert_eq!(lanes.output_word(), lanes.stage_word(0));
        // Lane 0 is the unadvanced scalar state.
        assert_eq!(lanes.lane_state(0), *scalar.state());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_stride_rejected() {
        let poly = LfsrPoly::maximal(4).unwrap();
        let _: LaneLfsr = LaneLfsr::fork(&Lfsr::with_ones_seed(poly), 0);
    }
}
