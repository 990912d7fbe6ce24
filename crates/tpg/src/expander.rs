//! Space expanders: feeding more chains than the shifter has channels.
//!
//! The paper uses space expanders (`SpE1`/`SpE2` in Fig. 1) to keep PRPGs
//! short: a 19-bit PRPG plus phase shifter produces a handful of channels,
//! and the expander XOR-combines channel pairs so that ~100 chains each get
//! a distinct linear combination of the PRPG sequence.

use crate::Gf2Vec;

/// A linear (XOR) expander from `channels` shifter outputs to `chains`
/// chain inputs.
///
/// Chain `i < channels` passes channel `i` through; later chains XOR a
/// deterministic pair of channels, chosen so no two chains get the same
/// combination (checked at construction).
///
/// # Example
///
/// ```
/// use lbist_tpg::SpaceExpander;
/// let e = SpaceExpander::new(4, 10);
/// assert_eq!(e.num_chains(), 10);
/// let outs = e.expand(&[true, false, true, false]);
/// assert_eq!(outs.len(), 10);
/// assert_eq!(outs[0], true); // passthrough region
/// ```
#[derive(Clone, Debug)]
pub struct SpaceExpander {
    channels: usize,
    /// Per chain: mask over channels that are XORed together.
    combos: Vec<Gf2Vec>,
}

impl SpaceExpander {
    /// Builds an expander from `channels` inputs to `chains` outputs.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0`, or if `chains` exceeds the number of
    /// distinct one- and two-channel combinations
    /// (`channels + channels*(channels-1)/2`).
    pub fn new(channels: usize, chains: usize) -> Self {
        assert!(channels > 0, "expander needs at least one input channel");
        let capacity = channels + channels * channels.saturating_sub(1) / 2;
        assert!(
            chains <= capacity,
            "cannot expand {channels} channels to {chains} chains with <=2-input XOR combos (max {capacity})"
        );
        let mut combos = Vec::with_capacity(chains);
        // Passthrough region.
        for i in 0..chains.min(channels) {
            let mut m = Gf2Vec::zeros(channels);
            m.set(i, true);
            combos.push(m);
        }
        // Pair region: enumerate pairs (a,b), a<b, in a fixed order.
        'outer: for a in 0..channels {
            for b in a + 1..channels {
                if combos.len() >= chains {
                    break 'outer;
                }
                let mut m = Gf2Vec::zeros(channels);
                m.set(a, true);
                m.set(b, true);
                combos.push(m);
            }
        }
        debug_assert_eq!(combos.len(), chains);
        SpaceExpander { channels, combos }
    }

    /// Identity expander (`chains == channels`).
    pub fn identity(channels: usize) -> Self {
        SpaceExpander::new(channels, channels)
    }

    /// Number of input channels.
    pub fn num_channels(&self) -> usize {
        self.channels
    }

    /// Number of output chains.
    pub fn num_chains(&self) -> usize {
        self.combos.len()
    }

    /// The channel mask feeding a chain.
    ///
    /// # Panics
    ///
    /// Panics if `chain` is out of range.
    pub fn combo(&self, chain: usize) -> &Gf2Vec {
        &self.combos[chain]
    }

    /// Expands one cycle of channel bits to chain bits.
    ///
    /// # Panics
    ///
    /// Panics if `channel_bits.len() != num_channels()`.
    pub fn expand(&self, channel_bits: &[bool]) -> Vec<bool> {
        assert_eq!(channel_bits.len(), self.channels);
        let v = Gf2Vec::from_bools(channel_bits);
        self.combos.iter().map(|m| m.dot(&v)).collect()
    }

    /// Expands one cycle of multi-lane channel words to chain words:
    /// `out[i]` = XOR of the channel words in chain `i`'s combination.
    /// Linear in GF(2), so it distributes over the packed lanes at any
    /// width ([`lbist_exec::LaneWord`]: `u64`/`u128`).
    /// Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `channel_words.len() != num_channels()` or
    /// `out.len() != num_chains()`.
    pub fn expand_words<W: lbist_exec::LaneWord>(&self, channel_words: &[W], out: &mut [W]) {
        assert_eq!(channel_words.len(), self.channels, "channel word count mismatch");
        assert_eq!(out.len(), self.combos.len(), "chain word buffer mismatch");
        for (word, combo) in out.iter_mut().zip(&self.combos) {
            let mut acc = W::zero();
            for (c, &cw) in channel_words.iter().enumerate() {
                if combo.get(c) {
                    acc = acc.xor(cw);
                }
            }
            *word = acc;
        }
    }

    /// Verifies all chains receive distinct combinations (true by
    /// construction; exposed for property tests).
    pub fn combos_distinct(&self) -> bool {
        for i in 0..self.combos.len() {
            for j in i + 1..self.combos.len() {
                if self.combos[i] == self.combos[j] {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_then_pairs() {
        let e = SpaceExpander::new(3, 6);
        assert!(e.combos_distinct());
        assert_eq!(e.combo(0).count_ones(), 1);
        assert_eq!(e.combo(3).count_ones(), 2);
        let outs = e.expand(&[true, false, false]);
        assert!(outs[0]);
        assert!(!outs[1]);
        // chain 3 = ch0 ^ ch1 = 1
        assert!(outs[3]);
        // chain 5 = ch1 ^ ch2 = 0
        assert!(!outs[5]);
    }

    #[test]
    fn identity_is_noop() {
        let e = SpaceExpander::identity(5);
        let bits = [true, false, true, true, false];
        assert_eq!(e.expand(&bits), bits.to_vec());
    }

    #[test]
    fn capacity_limit_enforced() {
        // 4 channels -> 4 + 6 = 10 max chains.
        assert_eq!(SpaceExpander::new(4, 10).num_chains(), 10);
    }

    #[test]
    #[should_panic(expected = "cannot expand")]
    fn over_capacity_panics() {
        SpaceExpander::new(4, 11);
    }

    #[test]
    fn linearity() {
        // expand(a ^ b) == expand(a) ^ expand(b)
        let e = SpaceExpander::new(5, 12);
        let a = [true, false, true, false, true];
        let b = [false, false, true, true, true];
        let axb: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| x ^ y).collect();
        let lhs = e.expand(&axb);
        let rhs: Vec<bool> = e.expand(&a).iter().zip(e.expand(&b)).map(|(&x, y)| x ^ y).collect();
        assert_eq!(lhs, rhs);
    }
}
