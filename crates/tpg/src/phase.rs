//! Phase shifters: decorrelating the chains fed by one PRPG.
//!
//! Adjacent stages of a plain LFSR feed scan chains bit streams that are
//! one-cycle-shifted copies of each other; neighbouring chains would then
//! load near-identical patterns ("structural correlation") and random fault
//! coverage collapses. The paper's TPG block (Fig. 1, `PS1`/`PS2`) inserts a
//! phase shifter: each channel taps an XOR of LFSR stages chosen so channel
//! `c` outputs the LFSR sequence delayed by `c × separation` cycles.
//!
//! The synthesis here is exact, not heuristic: the tap row for a delay of
//! `k` cycles is row 0 of `A^k`, where `A` is the LFSR transition matrix
//! (see [`crate::Lfsr::transition_matrix`]), because
//! `y(t + k) = (A^k s_t)[0]`.

use crate::{Gf2Vec, Lfsr, LfsrPoly};

/// An XOR network mapping LFSR state to `channels` phase-separated outputs.
///
/// # Example
///
/// ```
/// use lbist_tpg::{Lfsr, LfsrPoly, PhaseShifter};
/// let poly = LfsrPoly::maximal(8).unwrap();
/// let ps = PhaseShifter::synthesize(&poly, 4, 16);
/// assert_eq!(ps.num_channels(), 4);
/// assert_eq!(ps.separation(), 16);
/// let lfsr = Lfsr::with_ones_seed(poly);
/// let outs = ps.outputs(lfsr.state());
/// assert_eq!(outs.len(), 4);
/// ```
#[derive(Clone, Debug)]
pub struct PhaseShifter {
    rows: Vec<Gf2Vec>,
    separation: u64,
}

impl PhaseShifter {
    /// Synthesises a shifter for `channels` outputs with the given phase
    /// `separation` (in LFSR cycles) between adjacent channels. Channel 0
    /// is the raw LFSR output stage.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is 0 or `separation` is 0.
    pub fn synthesize(poly: &LfsrPoly, channels: usize, separation: u64) -> Self {
        assert!(channels > 0, "a phase shifter needs at least one channel");
        assert!(separation > 0, "phase separation must be nonzero");
        let lfsr = Lfsr::with_ones_seed(poly.clone());
        let a_sep = lfsr.transition_matrix().pow(separation);
        let mut rows = Vec::with_capacity(channels);
        // Row for channel 0 is e0 (delay 0); each next channel multiplies by
        // A^sep once more: row_c = e0^T * A^(c*sep).
        let mut current = {
            let mut e0 = Gf2Vec::zeros(poly.degree());
            e0.set(0, true);
            e0
        };
        for _ in 0..channels {
            rows.push(current.clone());
            // current^T · A^sep  ==  (A^sep)^T · current; compute by dotting
            // with columns, i.e. building the vector whose bit j is
            // current · column_j = XOR_i current_i * A[i][j].
            let mut next = Gf2Vec::zeros(poly.degree());
            for j in 0..poly.degree() {
                let mut bit = false;
                for i in 0..poly.degree() {
                    if current.get(i) && a_sep.row(i).get(j) {
                        bit = !bit;
                    }
                }
                next.set(j, bit);
            }
            current = next;
        }
        PhaseShifter { rows, separation }
    }

    /// Identity shifter: channel `c` simply taps LFSR stage `c`
    /// (the *no phase shifter* baseline of the A4 ablation).
    ///
    /// # Panics
    ///
    /// Panics if `channels > poly.degree()` — a raw LFSR has only `degree`
    /// stages to tap.
    pub fn identity(poly: &LfsrPoly, channels: usize) -> Self {
        assert!(channels <= poly.degree(), "identity tapping supports at most `degree` channels");
        let rows = (0..channels)
            .map(|c| {
                let mut r = Gf2Vec::zeros(poly.degree());
                r.set(c, true);
                r
            })
            .collect();
        PhaseShifter { rows, separation: 1 }
    }

    /// Number of output channels.
    pub fn num_channels(&self) -> usize {
        self.rows.len()
    }

    /// Phase separation between adjacent channels, in LFSR cycles.
    pub fn separation(&self) -> u64 {
        self.separation
    }

    /// The XOR-tap row of a channel (mostly for inspection/tests).
    ///
    /// # Panics
    ///
    /// Panics if `channel` is out of range.
    pub fn taps(&self, channel: usize) -> &Gf2Vec {
        &self.rows[channel]
    }

    /// Computes all channel outputs for an LFSR state.
    ///
    /// # Panics
    ///
    /// Panics if the state length does not match the tap rows.
    pub fn outputs(&self, state: &Gf2Vec) -> Vec<bool> {
        self.rows.iter().map(|r| r.dot(state)).collect()
    }

    /// Computes all channel outputs for bit-sliced lanes at once:
    /// `out[c]` receives the multi-lane pattern word of channel `c`
    /// (lane `ℓ` = what [`PhaseShifter::outputs`] bit `c` would be for
    /// lane `ℓ`'s LFSR state). Generic over the lane width
    /// ([`lbist_exec::LaneWord`]: `u64`/`u128`) and
    /// allocation-free: the XOR tree is evaluated straight onto the
    /// caller's buffer.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != num_channels()` or the lane register width
    /// differs from the tap rows.
    pub fn outputs_words<W: lbist_exec::LaneWord>(
        &self,
        lanes: &crate::LaneLfsr<W>,
        out: &mut [W],
    ) {
        assert_eq!(out.len(), self.rows.len(), "output buffer must cover every channel");
        for (word, row) in out.iter_mut().zip(&self.rows) {
            assert_eq!(row.len(), lanes.degree(), "lane register width mismatch");
            let mut acc = W::zero();
            for j in 0..row.len() {
                if row.get(j) {
                    acc = acc.xor(lanes.stage_word(j));
                }
            }
            *word = acc;
        }
    }

    /// Maximum XOR fan-in over all channels — proportional to shifter area
    /// and delay, reported by the overhead model.
    pub fn max_taps(&self) -> usize {
        self.rows.iter().map(Gf2Vec::count_ones).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defining property: channel `c` at time `t` equals the raw LFSR
    /// output at time `t + c*separation`.
    #[test]
    fn channels_are_exact_phase_shifts() {
        let poly = LfsrPoly::maximal(10).unwrap();
        let sep = 37u64;
        let channels = 5;
        let ps = PhaseShifter::synthesize(&poly, channels, sep);

        // Reference stream long enough to cover t + (channels-1)*sep.
        let horizon = 200 + (channels as u64 - 1) * sep;
        let mut ref_lfsr = Lfsr::with_ones_seed(poly.clone());
        let stream: Vec<bool> = (0..horizon).map(|_| ref_lfsr.step()).collect();

        let mut lfsr = Lfsr::with_ones_seed(poly);
        for t in 0..200usize {
            let outs = ps.outputs(lfsr.state());
            for (c, &bit) in outs.iter().enumerate() {
                let expect = stream[t + c * sep as usize];
                assert_eq!(bit, expect, "channel {c} at t={t}");
            }
            lfsr.step();
        }
    }

    #[test]
    fn channel_zero_is_raw_output() {
        let poly = LfsrPoly::maximal(7).unwrap();
        let ps = PhaseShifter::synthesize(&poly, 3, 11);
        let mut lfsr = Lfsr::with_ones_seed(poly);
        for _ in 0..50 {
            let outs = ps.outputs(lfsr.state());
            assert_eq!(outs[0], lfsr.state().get(0));
            lfsr.step();
        }
    }

    #[test]
    fn identity_shifter_taps_stages_directly() {
        let poly = LfsrPoly::maximal(6).unwrap();
        let ps = PhaseShifter::identity(&poly, 4);
        let lfsr = Lfsr::with_ones_seed(poly);
        let outs = ps.outputs(lfsr.state());
        for (c, &o) in outs.iter().enumerate() {
            assert_eq!(o, lfsr.state().get(c));
        }
        assert_eq!(ps.max_taps(), 1);
    }

    #[test]
    fn identity_correlation_vs_synthesized() {
        // Adjacent identity channels are 1-cycle shifts (fully correlated);
        // synthesized channels with a large separation are not.
        let poly = LfsrPoly::maximal(12).unwrap();
        let n = 300usize;

        let collect = |ps: &PhaseShifter| -> Vec<Vec<bool>> {
            let mut lfsr = Lfsr::with_ones_seed(poly.clone());
            let mut chans = vec![Vec::with_capacity(n); ps.num_channels()];
            for _ in 0..n {
                for (c, b) in ps.outputs(lfsr.state()).into_iter().enumerate() {
                    chans[c].push(b);
                }
                lfsr.step();
            }
            chans
        };

        let ident = collect(&PhaseShifter::identity(&poly, 2));
        // identity: channel 1 at t equals channel 0 at t+1 (pure shift).
        let matches = (0..n - 1).filter(|&t| ident[1][t] == ident[0][t + 1]).count();
        assert_eq!(matches, n - 1, "identity channels are shifted copies");

        let synth = PhaseShifter::synthesize(&poly, 2, 97);
        let s = collect(&synth);
        let near_matches = (0..n - 1).filter(|&t| s[1][t] == s[0][t + 1]).count();
        // A decorrelated pair agrees about half the time, not always.
        assert!(
            near_matches < (n * 3) / 4,
            "synthesized channels decorrelated, got {near_matches}/{n}"
        );
    }

    #[test]
    fn max_taps_bounded_by_degree() {
        let poly = LfsrPoly::maximal(16).unwrap();
        let ps = PhaseShifter::synthesize(&poly, 20, 1 << 12);
        assert!(ps.max_taps() <= 16);
        assert!(ps.max_taps() >= 1);
    }

    #[test]
    #[should_panic(expected = "at most `degree`")]
    fn identity_rejects_too_many_channels() {
        let poly = LfsrPoly::maximal(4).unwrap();
        PhaseShifter::identity(&poly, 5);
    }
}
