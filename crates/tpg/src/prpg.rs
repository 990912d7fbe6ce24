//! The pseudo-random pattern generator: LFSR → phase shifter → expander.

use crate::{LaneLfsr, Lfsr, PhaseShifter, SpaceExpander};
use lbist_exec::LaneWord;

/// A complete PRPG channel: one per clock domain in the paper's
/// architecture.
///
/// Every call to [`Prpg::step_vector`] produces the bit entering each scan
/// chain of the domain on this shift cycle, then advances the LFSR.
///
/// # Example
///
/// ```
/// use lbist_tpg::{Lfsr, LfsrPoly, PhaseShifter, Prpg, SpaceExpander};
///
/// let poly = LfsrPoly::maximal(19).unwrap();
/// let lfsr = Lfsr::with_ones_seed(poly.clone());
/// let ps = PhaseShifter::synthesize(&poly, 8, 64);
/// let mut prpg = Prpg::with_expander(lfsr, ps, SpaceExpander::new(8, 20));
/// assert_eq!(prpg.num_chains(), 20);
/// let cycle0 = prpg.step_vector();
/// let cycle1 = prpg.step_vector();
/// assert_eq!(cycle0.len(), 20);
/// assert_ne!(cycle0, cycle1); // the stream advances
/// ```
#[derive(Clone, Debug)]
pub struct Prpg {
    lfsr: Lfsr,
    shifter: PhaseShifter,
    expander: Option<SpaceExpander>,
}

impl Prpg {
    /// PRPG without a space expander: chains == shifter channels.
    pub fn new(lfsr: Lfsr, shifter: PhaseShifter) -> Self {
        Prpg { lfsr, shifter, expander: None }
    }

    /// PRPG with a space expander widening the shifter outputs.
    ///
    /// # Panics
    ///
    /// Panics if the expander's channel count differs from the shifter's.
    pub fn with_expander(lfsr: Lfsr, shifter: PhaseShifter, expander: SpaceExpander) -> Self {
        assert_eq!(
            expander.num_channels(),
            shifter.num_channels(),
            "expander input width must match shifter output width"
        );
        Prpg { lfsr, shifter, expander: Some(expander) }
    }

    /// Number of scan chains this PRPG feeds.
    pub fn num_chains(&self) -> usize {
        self.expander
            .as_ref()
            .map(SpaceExpander::num_chains)
            .unwrap_or_else(|| self.shifter.num_channels())
    }

    /// The underlying LFSR (e.g. for seed load via Boundary-Scan).
    pub fn lfsr(&self) -> &Lfsr {
        &self.lfsr
    }

    /// Mutable access to the underlying LFSR.
    pub fn lfsr_mut(&mut self) -> &mut Lfsr {
        &mut self.lfsr
    }

    /// The phase shifter between the LFSR and the chains — the linear
    /// network a reseeding solver must compose with the LFSR transition
    /// matrix to know which seed bits reach which scan cells.
    pub fn shifter(&self) -> &PhaseShifter {
        &self.shifter
    }

    /// The space expander widening the shifter outputs, if one is fitted.
    pub fn expander(&self) -> Option<&SpaceExpander> {
        self.expander.as_ref()
    }

    /// Produces this cycle's chain input bits and advances the LFSR.
    pub fn step_vector(&mut self) -> Vec<bool> {
        let channel_bits = self.shifter.outputs(self.lfsr.state());
        let out = match &self.expander {
            Some(e) => e.expand(&channel_bits),
            None => channel_bits,
        };
        self.lfsr.step();
        out
    }

    /// Runs `W::LANES` consecutive scan loads bit-parallel: lane `ℓ` of
    /// every emitted word is what [`Prpg::step_vector`] would produce on
    /// shift cycles `[ℓ·shift_cycles, (ℓ+1)·shift_cycles)` of the scalar
    /// stream. For each of the `shift_cycles` cycles, `sink(cycle,
    /// chain_words)` receives one packed word per scan chain.
    ///
    /// After the call the PRPG has advanced exactly
    /// `W::LANES·shift_cycles` cycles, so batches interleave
    /// transparently with scalar stepping. By the [`LaneWord`] sub-word
    /// layout, `word.word(k)` of a 128-lane fill is bit-identical to the
    /// `k`-th of two consecutive 64-lane fills (property-tested in the
    /// bench crate). The lane machinery is built per call.
    ///
    /// # Panics
    ///
    /// Panics if `shift_cycles` is 0.
    pub fn fill_lanes<W: LaneWord>(
        &mut self,
        shift_cycles: usize,
        mut sink: impl FnMut(usize, &[W]),
    ) {
        assert!(shift_cycles > 0, "a scan load shifts at least one cycle");
        let mut lanes = LaneLfsr::<W>::fork(&self.lfsr, shift_cycles as u64);
        let mut channel_words = vec![W::zero(); self.shifter.num_channels()];
        let mut chain_words =
            vec![W::zero(); self.expander.as_ref().map_or(0, SpaceExpander::num_chains)];
        for cycle in 0..shift_cycles {
            self.shifter.outputs_words(&lanes, &mut channel_words);
            match &self.expander {
                Some(e) => {
                    e.expand_words(&channel_words, &mut chain_words);
                    sink(cycle, &chain_words);
                }
                None => sink(cycle, &channel_words),
            }
            lanes.step();
        }
        // The last lane finished at W::LANES·stride cycles past the old
        // scalar state: resynchronise the scalar LFSR there.
        self.lfsr.set_state(lanes.lane_state(W::LANES - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LfsrPoly;

    #[test]
    fn stream_is_deterministic_from_seed() {
        let poly = LfsrPoly::maximal(13).unwrap();
        let make = || {
            Prpg::new(Lfsr::with_ones_seed(poly.clone()), PhaseShifter::synthesize(&poly, 4, 32))
        };
        let mut a = make();
        let mut b = make();
        for _ in 0..100 {
            assert_eq!(a.step_vector(), b.step_vector());
        }
    }

    #[test]
    fn chains_get_balanced_bit_streams() {
        let poly = LfsrPoly::maximal(11).unwrap();
        let lfsr = Lfsr::with_ones_seed(poly.clone());
        let ps = PhaseShifter::synthesize(&poly, 3, 101);
        let mut prpg = Prpg::with_expander(lfsr, ps, SpaceExpander::new(3, 6));
        let n = 2000;
        let mut ones = vec![0usize; prpg.num_chains()];
        for _ in 0..n {
            for (c, b) in prpg.step_vector().into_iter().enumerate() {
                ones[c] += b as usize;
            }
        }
        for (c, &o) in ones.iter().enumerate() {
            let frac = o as f64 / n as f64;
            assert!((0.4..0.6).contains(&frac), "chain {c} biased: {frac}");
        }
    }

    /// The word-level fill is stream-equivalent to 64 consecutive scalar
    /// loads, and leaves the PRPG in the identical state.
    #[test]
    fn fill_lanes_matches_scalar_loads() {
        let poly = LfsrPoly::maximal(13).unwrap();
        let make = || {
            Prpg::with_expander(
                Lfsr::with_ones_seed(poly.clone()),
                PhaseShifter::synthesize(&poly, 4, 32),
                SpaceExpander::new(4, 9),
            )
        };
        let shift_cycles = 11usize;

        // Reference: 64 scalar loads, recorded per (lane, cycle, chain).
        let mut scalar = make();
        let mut reference = vec![vec![Vec::new(); shift_cycles]; 64];
        for lane_loads in reference.iter_mut() {
            for cycle_bits in lane_loads.iter_mut() {
                *cycle_bits = scalar.step_vector();
            }
        }

        let mut wordwise = make();
        // Two batches back-to-back; only the first is checked against
        // the reference.
        for batch in 0..2 {
            let mut seen_cycles = 0usize;
            wordwise.fill_lanes::<u64>(shift_cycles, |cycle, words| {
                seen_cycles += 1;
                if batch > 0 {
                    return;
                }
                assert_eq!(words.len(), 9);
                for (chain, &word) in words.iter().enumerate() {
                    for (lane, lane_loads) in reference.iter().enumerate() {
                        assert_eq!(
                            (word >> lane) & 1 == 1,
                            lane_loads[cycle][chain],
                            "lane {lane} cycle {cycle} chain {chain}"
                        );
                    }
                }
            });
            assert_eq!(seen_cycles, shift_cycles);
        }
        // State equivalence: one word-level batch leaves the LFSR exactly
        // where 64 scalar loads leave it.
        let mut scalar_state = make();
        for _ in 0..64 * shift_cycles {
            scalar_state.step_vector();
        }
        let mut word_state = make();
        word_state.fill_lanes::<u64>(shift_cycles, |_, _| {});
        assert_eq!(word_state.lfsr().state(), scalar_state.lfsr().state());
    }

    /// Changing the shift length between fills does not corrupt the
    /// stream.
    #[test]
    fn fill_lanes_stride_change_stays_coherent() {
        let poly = LfsrPoly::maximal(9).unwrap();
        let make = || {
            Prpg::new(Lfsr::with_ones_seed(poly.clone()), PhaseShifter::synthesize(&poly, 3, 17))
        };
        let mut a = make();
        a.fill_lanes::<u64>(5, |_, _| {});
        a.fill_lanes::<u64>(8, |_, _| {});
        let mut b = make();
        for _ in 0..64 * 5 + 64 * 8 {
            b.step_vector();
        }
        assert_eq!(a.lfsr().state(), b.lfsr().state());
    }

    /// The wide fill is stream-equivalent to `W::LANES` consecutive
    /// scalar loads and leaves the PRPG at the identical stream
    /// position, at 128 lanes.
    #[test]
    fn wide_fill_matches_scalar_loads_and_state() {
        fn check<W: LaneWord>() {
            let poly = LfsrPoly::maximal(13).unwrap();
            let make = || {
                Prpg::with_expander(
                    Lfsr::with_ones_seed(poly.clone()),
                    PhaseShifter::synthesize(&poly, 4, 32),
                    SpaceExpander::new(4, 9),
                )
            };
            let shift_cycles = 6usize;

            let mut scalar = make();
            let mut reference = vec![vec![Vec::new(); shift_cycles]; W::LANES];
            for lane_loads in reference.iter_mut() {
                for cycle_bits in lane_loads.iter_mut() {
                    *cycle_bits = scalar.step_vector();
                }
            }

            let mut wide = make();
            wide.fill_lanes::<W>(shift_cycles, |cycle, words| {
                assert_eq!(words.len(), 9);
                for (chain, &word) in words.iter().enumerate() {
                    for (lane, lane_loads) in reference.iter().enumerate() {
                        assert_eq!(
                            word.get_lane(lane),
                            lane_loads[cycle][chain],
                            "{} lanes: lane {lane} cycle {cycle} chain {chain}",
                            W::LANES
                        );
                    }
                }
            });
            assert_eq!(
                wide.lfsr().state(),
                scalar.lfsr().state(),
                "{} lanes: wide fill must land at the scalar stream position",
                W::LANES
            );
        }
        check::<u128>();
    }

    #[test]
    fn expander_width_mismatch_panics() {
        let poly = LfsrPoly::maximal(9).unwrap();
        let lfsr = Lfsr::with_ones_seed(poly.clone());
        let ps = PhaseShifter::synthesize(&poly, 4, 16);
        let result =
            std::panic::catch_unwind(|| Prpg::with_expander(lfsr, ps, SpaceExpander::new(3, 5)));
        assert!(result.is_err());
    }
}
