//! Multiple-input signature registers: the scalar cycle-faithful
//! [`Misr`] and the bit-sliced, lane-parallel [`LaneMisr`] bank the
//! wide grading pipeline compacts responses with.

use crate::{Gf2Vec, Lfsr, LfsrPoly};
use lbist_exec::LaneWord;

/// A multiple-input signature register (MISR).
///
/// Each [`Misr::clock`] absorbs one bit per input port: the register shifts
/// like its underlying LFSR and the input vector is XORed into the low
/// stages. Because every operation is linear over GF(2), signatures obey
/// superposition — `sig(a ⊕ b) = sig(a) ⊕ sig(b)` for equal-length streams
/// from a zero start — which is what makes aliasing analysis tractable
/// (and is property-tested below).
///
/// The paper's configuration notes matter here: when no space compactor is
/// used, the MISR must be at least as wide as the chain count, which is why
/// Core X carries a 99-bit MISR and Core Y an 80-bit one.
///
/// # Example
///
/// ```
/// use lbist_tpg::{LfsrPoly, Misr};
/// let mut m = Misr::new(LfsrPoly::maximal(19).unwrap(), 4);
/// m.clock(&[true, false, true, true]);
/// m.clock(&[false, false, true, false]);
/// assert!(!m.signature().is_zero());
/// ```
#[derive(Clone, Debug)]
pub struct Misr {
    lfsr_poly: LfsrPoly,
    tap_mask: Gf2Vec,
    state: Gf2Vec,
    inputs: usize,
}

impl Misr {
    /// Creates a MISR of the polynomial's width with `inputs` parallel input
    /// ports, starting from the all-zero signature.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` exceeds the register width.
    pub fn new(poly: LfsrPoly, inputs: usize) -> Self {
        assert!(
            inputs <= poly.degree(),
            "a {}-bit MISR cannot absorb {} parallel inputs",
            poly.degree(),
            inputs
        );
        let tap_mask = poly.feedback_mask();
        Misr { state: Gf2Vec::zeros(poly.degree()), tap_mask, lfsr_poly: poly, inputs }
    }

    /// Register width in bits.
    pub fn width(&self) -> usize {
        self.lfsr_poly.degree()
    }

    /// Number of parallel input ports.
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// The feedback polynomial.
    pub fn poly(&self) -> &LfsrPoly {
        &self.lfsr_poly
    }

    /// Absorbs one cycle of input bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_inputs()`.
    pub fn clock(&mut self, bits: &[bool]) {
        assert_eq!(bits.len(), self.inputs, "MISR input width mismatch");
        // LFSR shift (zero state is fine for a MISR: inputs perturb it).
        let fb = self.state.dot(&self.tap_mask);
        self.state.shift_down();
        let top = self.width() - 1;
        self.state.set(top, fb);
        // Inject inputs into the low stages.
        for (i, &b) in bits.iter().enumerate() {
            if b {
                let cur = self.state.get(i);
                self.state.set(i, !cur);
            }
        }
    }

    /// The current signature.
    pub fn signature(&self) -> &Gf2Vec {
        &self.state
    }

    /// Resets the signature to zero.
    pub fn reset(&mut self) {
        self.state = Gf2Vec::zeros(self.width());
    }

    /// Overwrites the signature (diagnosis replay via Boundary-Scan).
    ///
    /// # Panics
    ///
    /// Panics on width mismatch.
    pub fn set_signature(&mut self, sig: Gf2Vec) {
        assert_eq!(sig.len(), self.width());
        self.state = sig;
    }

    /// Builds the MISR whose shift structure matches an existing LFSR
    /// (convenience for tests that cross-check against [`Lfsr`]).
    pub fn from_lfsr(lfsr: &Lfsr, inputs: usize) -> Self {
        Misr::new(lfsr.poly().clone(), inputs)
    }
}

/// A bit-sliced bank of `W::LANES` independent MISRs stepping together.
///
/// Lane `ℓ` of the bank is a scalar [`Misr`] of the same polynomial,
/// started from zero and fed lane `ℓ` of every clocked input word —
/// the signature-side counterpart of [`crate::LaneLfsr`]: one
/// [`LaneMisr::clock`] absorbs one response cycle of **all** packed
/// patterns with a handful of word XORs. The wide grading pipeline
/// compacts each pattern's unloaded responses this way and folds the
/// per-lane signatures into a batch signature.
///
/// Because every MISR is linear from a zero start, the XOR-fold of the
/// first `n` lane signatures ([`LaneMisr::folded_signature`]) depends
/// only on the multiset of per-pattern response streams — not on how
/// many lanes a pass packs — so 64- and 128-lane runs over the same
/// pattern stream produce the identical accumulated signature
/// (property-tested in the bench crate).
///
/// # Example
///
/// ```
/// use lbist_tpg::{LaneMisr, LfsrPoly};
/// let mut bank: LaneMisr<u128> = LaneMisr::new(LfsrPoly::maximal(19).unwrap(), 4);
/// bank.clock(&[0b1u128, 0, 0b1, 0]); // pattern 0 responds 1,0,1,0
/// assert!(!bank.lane_signature(0).is_zero());
/// assert!(bank.lane_signature(77).is_zero()); // idle lane: all-zero stream
/// ```
#[derive(Clone, Debug)]
pub struct LaneMisr<W: LaneWord = u64> {
    poly: LfsrPoly,
    /// Stage indices XORed into the feedback bit.
    taps: Vec<usize>,
    /// `state[j]` = stage `j` of every lane's register.
    state: Vec<W>,
    inputs: usize,
}

impl<W: LaneWord> LaneMisr<W> {
    /// Creates a zero-started bank of the polynomial's width with
    /// `inputs` parallel input ports per lane.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` exceeds the register width.
    pub fn new(poly: LfsrPoly, inputs: usize) -> Self {
        assert!(
            inputs <= poly.degree(),
            "a {}-bit MISR cannot absorb {} parallel inputs",
            poly.degree(),
            inputs
        );
        let mask = poly.feedback_mask();
        let taps = (0..poly.degree()).filter(|&j| mask.get(j)).collect();
        LaneMisr { state: vec![W::zero(); poly.degree()], taps, poly, inputs }
    }

    /// Register width in bits (per lane).
    pub fn width(&self) -> usize {
        self.poly.degree()
    }

    /// Number of parallel input ports (per lane).
    pub fn num_inputs(&self) -> usize {
        self.inputs
    }

    /// Absorbs one cycle: `words[i]` carries input port `i` of every
    /// lane. Bit-sliced mirror of [`Misr::clock`].
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != num_inputs()`.
    pub fn clock(&mut self, words: &[W]) {
        assert_eq!(words.len(), self.inputs, "MISR input width mismatch");
        // Per-lane feedback bit = XOR of the tap stages (the bit-sliced
        // form of `state.dot(tap_mask)`).
        let fb = self.taps.iter().fold(W::zero(), |acc, &t| acc.xor(self.state[t]));
        let top = self.width() - 1;
        self.state.copy_within(1.., 0);
        self.state[top] = fb;
        for (i, &w) in words.iter().enumerate() {
            self.state[i] = self.state[i].xor(w);
        }
    }

    /// Lane `ℓ`'s signature — bit-identical to a scalar [`Misr`] fed
    /// lane `ℓ` of every clocked word.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= W::LANES`.
    pub fn lane_signature(&self, lane: usize) -> Gf2Vec {
        assert!(lane < W::LANES, "a LaneMisr holds {} lanes", W::LANES);
        Gf2Vec::from_fn(self.width(), |j| self.state[j].get_lane(lane))
    }

    /// XOR-fold of the first `num_lanes` lane signatures — the batch
    /// signature the wide grading pipeline accumulates. Linearity makes
    /// this width-invariant: folding one 128-lane bank equals XORing
    /// the folds of the two 64-lane banks covering the same patterns.
    ///
    /// # Panics
    ///
    /// Panics if `num_lanes` is 0 or exceeds `W::LANES`.
    pub fn folded_signature(&self, num_lanes: usize) -> Gf2Vec {
        let mask = W::mask_lanes(num_lanes);
        Gf2Vec::from_fn(self.width(), |j| self.state[j].and(mask).count_ones() % 2 == 1)
    }

    /// Resets every lane's signature to zero.
    pub fn reset(&mut self) {
        for w in &mut self.state {
            *w = W::zero();
        }
    }

    /// The raw bank state flattened to `u64` words, stage-major:
    /// `W::WORDS` words per stage, `width()` stages. Lane-width-neutral
    /// snapshot form for checkpoint serialization.
    pub fn state_words(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.state.len() * W::WORDS);
        for &w in &self.state {
            for k in 0..W::WORDS {
                out.push(w.word(k));
            }
        }
        out
    }

    /// Restores bank state from a [`LaneMisr::state_words`] snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != width() * W::WORDS`.
    pub fn load_state_words(&mut self, words: &[u64]) {
        assert_eq!(words.len(), self.state.len() * W::WORDS, "MISR bank snapshot length mismatch");
        for (j, w) in self.state.iter_mut().enumerate() {
            for k in 0..W::WORDS {
                w.set_word(k, words[j * W::WORDS + k]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, len: usize, width: usize) -> Vec<Vec<bool>> {
        // Simple deterministic bit stream for tests.
        let mut x = seed.max(1);
        (0..len)
            .map(|_| {
                (0..width)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x & 1 == 1
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn different_streams_give_different_signatures() {
        let poly = LfsrPoly::maximal(16).unwrap();
        let mut a = Misr::new(poly.clone(), 4);
        let mut b = Misr::new(poly, 4);
        for bits in stream(1, 64, 4) {
            a.clock(&bits);
        }
        for bits in stream(2, 64, 4) {
            b.clock(&bits);
        }
        assert_ne!(a.signature(), b.signature());
    }

    #[test]
    fn single_bit_error_always_changes_signature() {
        // With fewer cycles than the register width, a single injected error
        // cannot alias (it has not had time to feed back and cancel).
        let poly = LfsrPoly::maximal(19).unwrap();
        let data = stream(7, 16, 8);
        let golden = {
            let mut m = Misr::new(poly.clone(), 8);
            for bits in &data {
                m.clock(bits);
            }
            m.signature().clone()
        };
        for cycle in 0..data.len() {
            for lane in 0..8 {
                let mut m = Misr::new(poly.clone(), 8);
                for (t, bits) in data.iter().enumerate() {
                    let mut b = bits.clone();
                    if t == cycle {
                        b[lane] = !b[lane];
                    }
                    m.clock(&b);
                }
                assert_ne!(*m.signature(), golden, "error at ({cycle},{lane}) aliased");
            }
        }
    }

    #[test]
    fn superposition_property() {
        // sig(a XOR b) == sig(a) XOR sig(b) from a zero start.
        let poly = LfsrPoly::maximal(17).unwrap();
        let a = stream(11, 100, 6);
        let b = stream(23, 100, 6);
        let run = |data: &[Vec<bool>]| {
            let mut m = Misr::new(poly.clone(), 6);
            for bits in data {
                m.clock(bits);
            }
            m.signature().clone()
        };
        let xored: Vec<Vec<bool>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(&p, &q)| p ^ q).collect())
            .collect();
        let mut lhs = run(&a);
        lhs.xor_assign(&run(&b));
        assert_eq!(lhs, run(&xored));
    }

    #[test]
    fn reset_and_set_signature() {
        let poly = LfsrPoly::maximal(9).unwrap();
        let mut m = Misr::new(poly, 3);
        m.clock(&[true, true, false]);
        assert!(!m.signature().is_zero());
        let snap = m.signature().clone();
        m.reset();
        assert!(m.signature().is_zero());
        m.set_signature(snap.clone());
        assert_eq!(*m.signature(), snap);
    }

    #[test]
    fn paper_sized_misrs_construct() {
        // 19-bit (small domains), 80-bit (Core Y main), 99-bit (Core X main).
        for (width, inputs) in [(19, 19), (80, 80), (99, 99)] {
            let poly = LfsrPoly::maximal(width).unwrap();
            let mut m = Misr::new(poly, inputs);
            m.clock(&vec![true; inputs]);
            assert_eq!(m.width(), width);
        }
    }

    #[test]
    #[should_panic(expected = "cannot absorb")]
    fn too_many_inputs_rejected() {
        Misr::new(LfsrPoly::maximal(8).unwrap(), 9);
    }

    /// Every lane of a `LaneMisr` bank is bit-identical to a scalar
    /// `Misr` fed that lane's bools, at 64 and 128 lanes.
    #[test]
    fn lane_misr_lanes_match_scalar_misrs() {
        fn check<W: LaneWord>() {
            let poly = LfsrPoly::maximal(17).unwrap();
            let inputs = 5;
            let cycles = 40;
            let mut bank: LaneMisr<W> = LaneMisr::new(poly.clone(), inputs);
            // Deterministic per-(cycle, port, lane) bit.
            let bit = |t: usize, i: usize, lane: usize| {
                let mut x = (t as u64 + 1)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add((i as u64) << 17)
                    .wrapping_add(lane as u64);
                x ^= x >> 29;
                x & 1 == 1
            };
            for t in 0..cycles {
                let words: Vec<W> = (0..inputs)
                    .map(|i| {
                        let mut w = W::zero();
                        for lane in 0..W::LANES {
                            if bit(t, i, lane) {
                                w.set_lane(lane);
                            }
                        }
                        w
                    })
                    .collect();
                bank.clock(&words);
            }
            for lane in [0, 1, W::LANES / 2, W::LANES - 1] {
                let mut scalar = Misr::new(poly.clone(), inputs);
                for t in 0..cycles {
                    let bits: Vec<bool> = (0..inputs).map(|i| bit(t, i, lane)).collect();
                    scalar.clock(&bits);
                }
                assert_eq!(
                    bank.lane_signature(lane),
                    *scalar.signature(),
                    "{} lanes: lane {lane}",
                    W::LANES
                );
            }
        }
        check::<u64>();
        check::<u128>();
    }

    /// Snapshot / restore of the bank state round-trips at every lane
    /// width and preserves lane signatures.
    #[test]
    fn lane_misr_state_words_round_trip() {
        fn check<W: LaneWord>() {
            let poly = LfsrPoly::maximal(13).unwrap();
            let mut bank: LaneMisr<W> = LaneMisr::new(poly.clone(), 4);
            for t in 0..17 {
                let words: Vec<W> = (0..4)
                    .map(|i| {
                        let mut w = W::zero();
                        for lane in 0..W::LANES {
                            if (t * 5 + i * 3 + lane) % 4 == 0 {
                                w.set_lane(lane);
                            }
                        }
                        w
                    })
                    .collect();
                bank.clock(&words);
            }
            let snap = bank.state_words();
            assert_eq!(snap.len(), bank.width() * W::WORDS);
            let sig = bank.lane_signature(W::LANES - 1);
            let mut fresh: LaneMisr<W> = LaneMisr::new(poly, 4);
            fresh.load_state_words(&snap);
            assert_eq!(fresh.lane_signature(W::LANES - 1), sig);
            assert_eq!(fresh.state_words(), snap);
        }
        check::<u64>();
        check::<u128>();
    }

    /// The folded batch signature is width-invariant: one 128-lane fold
    /// equals the XOR of the two 64-lane folds covering the same
    /// patterns — and a partial fold masks idle lanes out.
    #[test]
    fn folded_signature_is_width_invariant() {
        let poly = LfsrPoly::maximal(19).unwrap();
        let inputs = 3;
        let cycles = 25;
        let bit = |t: usize, i: usize, lane: usize| (t * 7 + i * 31 + lane * 13).is_multiple_of(3);

        let mut wide: LaneMisr<u128> = LaneMisr::new(poly.clone(), inputs);
        let mut lo: LaneMisr<u64> = LaneMisr::new(poly.clone(), inputs);
        let mut hi: LaneMisr<u64> = LaneMisr::new(poly.clone(), inputs);
        for t in 0..cycles {
            let mut wide_words = vec![0u128; inputs];
            let mut lo_words = vec![0u64; inputs];
            let mut hi_words = vec![0u64; inputs];
            for (i, ((ww, lw), hw)) in
                wide_words.iter_mut().zip(&mut lo_words).zip(&mut hi_words).enumerate()
            {
                for lane in 0..128 {
                    if bit(t, i, lane) {
                        *ww |= 1u128 << lane;
                        if lane < 64 {
                            *lw |= 1u64 << lane;
                        } else {
                            *hw |= 1u64 << (lane - 64);
                        }
                    }
                }
            }
            wide.clock(&wide_words);
            lo.clock(&lo_words);
            hi.clock(&hi_words);
        }
        let mut narrow_fold = lo.folded_signature(64);
        narrow_fold.xor_assign(&hi.folded_signature(64));
        assert_eq!(wide.folded_signature(128), narrow_fold);
        // A 70-lane fold = full low fold XOR the first 6 high lanes.
        let mut partial = lo.folded_signature(64);
        partial.xor_assign(&hi.folded_signature(6));
        assert_eq!(wide.folded_signature(70), partial);
    }
}
