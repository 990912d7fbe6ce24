//! Space compactors: XOR trees between scan-outs and the MISR.
//!
//! A compactor lets a short MISR absorb many chains, at the price of XOR
//! logic levels on the scan-out path — exactly the setup-time risk the
//! paper eliminates by *not* compacting before its main-domain MISRs
//! (§3 note 3). Both options are modelled so the trade-off can be measured
//! (ablation A5).

/// An XOR-tree space compactor from `chains` inputs to `outputs` lines.
///
/// Chains are distributed round-robin over output groups; each output is
/// the parity of its group. `SpaceCompactor::passthrough` models the
/// paper's chosen configuration (no compaction; zero added logic levels).
///
/// # Example
///
/// ```
/// use lbist_tpg::SpaceCompactor;
/// let c = SpaceCompactor::balanced(8, 2);
/// let outs = c.compact(&[true, false, false, false, true, false, false, false]);
/// assert_eq!(outs, vec![false, false]); // two 1s land in group 0: parity 0...
/// // chains 0..8 round-robin: group0 = {0,2,4,6}, group1 = {1,3,5,7}
/// assert_eq!(c.logic_levels(), 2);      // 4-input parity = 2 XOR levels
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpaceCompactor {
    chains: usize,
    groups: Vec<Vec<usize>>,
}

impl SpaceCompactor {
    /// Round-robin balanced compactor.
    ///
    /// # Panics
    ///
    /// Panics if `outputs` is zero or exceeds `chains`.
    pub fn balanced(chains: usize, outputs: usize) -> Self {
        assert!(outputs > 0, "compactor needs at least one output");
        assert!(outputs <= chains, "cannot compact {chains} chains into {outputs} outputs");
        let mut groups = vec![Vec::new(); outputs];
        for c in 0..chains {
            groups[c % outputs].push(c);
        }
        SpaceCompactor { chains, groups }
    }

    /// No-op compactor: every chain goes straight to its own MISR input,
    /// adding zero logic levels (the paper's configuration).
    pub fn passthrough(chains: usize) -> Self {
        SpaceCompactor::balanced(chains, chains)
    }

    /// Number of chain inputs.
    pub fn num_chains(&self) -> usize {
        self.chains
    }

    /// Number of compacted outputs (MISR width required).
    pub fn num_outputs(&self) -> usize {
        self.groups.len()
    }

    /// `true` when this is a passthrough (no XOR gates at all).
    pub fn is_passthrough(&self) -> bool {
        self.groups.iter().all(|g| g.len() == 1)
    }

    /// XOR logic levels on the deepest output — the delay this compactor
    /// adds to the chain→MISR path, consumed by the shift-path timing model.
    pub fn logic_levels(&self) -> u32 {
        self.groups.iter().map(|g| (g.len().max(1) as f64).log2().ceil() as u32).max().unwrap_or(0)
    }

    /// Compacts one cycle of scan-out bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != num_chains()`.
    pub fn compact(&self, bits: &[bool]) -> Vec<bool> {
        assert_eq!(bits.len(), self.chains, "compactor input width mismatch");
        self.groups.iter().map(|g| g.iter().fold(false, |acc, &c| acc ^ bits[c])).collect()
    }

    /// Compacts one cycle of scan-out *pattern words*: lane `ℓ` of every
    /// output word is [`SpaceCompactor::compact`] applied to lane `ℓ` of
    /// the input words. This is the word-level form the lane-parallel
    /// grading pipeline feeds into a [`crate::LaneMisr`], compacting all
    /// `W::LANES` packed patterns per call.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != num_chains()` or
    /// `out.len() != num_outputs()`.
    pub fn compact_words<W: lbist_exec::LaneWord>(&self, words: &[W], out: &mut [W]) {
        assert_eq!(words.len(), self.chains, "compactor input width mismatch");
        assert_eq!(out.len(), self.groups.len(), "compactor output width mismatch");
        for (slot, group) in out.iter_mut().zip(&self.groups) {
            *slot = group.iter().fold(W::zero(), |acc, &c| acc.xor(words[c]));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_grouping() {
        let c = SpaceCompactor::balanced(7, 3);
        assert_eq!(c.num_outputs(), 3);
        let mut seen = [false; 7];
        for g in &c.groups {
            for &ch in g {
                assert!(!seen[ch], "chain {ch} in two groups");
                seen[ch] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn parity_semantics() {
        let c = SpaceCompactor::balanced(4, 2);
        // groups: {0,2}, {1,3}
        assert_eq!(c.compact(&[true, false, true, false]), vec![false, false]);
        assert_eq!(c.compact(&[true, false, false, false]), vec![true, false]);
        assert_eq!(c.compact(&[false, true, false, false]), vec![false, true]);
    }

    #[test]
    fn passthrough_is_identity_with_zero_levels() {
        let c = SpaceCompactor::passthrough(5);
        assert!(c.is_passthrough());
        assert_eq!(c.logic_levels(), 0);
        let bits = [true, false, true, true, false];
        assert_eq!(c.compact(&bits), bits.to_vec());
    }

    #[test]
    fn logic_levels_grow_with_compaction_ratio() {
        assert_eq!(SpaceCompactor::balanced(8, 8).logic_levels(), 0);
        assert_eq!(SpaceCompactor::balanced(8, 4).logic_levels(), 1);
        assert_eq!(SpaceCompactor::balanced(8, 2).logic_levels(), 2);
        assert_eq!(SpaceCompactor::balanced(8, 1).logic_levels(), 3);
    }

    #[test]
    fn error_masking_exists_under_compaction() {
        // Two errors in the same group cancel — the aliasing the paper
        // avoids by going compactor-less on wide domains.
        let c = SpaceCompactor::balanced(4, 2);
        let clean = c.compact(&[false; 4]);
        let two_errors = c.compact(&[true, false, true, false]); // both in group 0
        assert_eq!(clean, two_errors, "even error multiplicity masks");
        let one_error = c.compact(&[true, false, false, false]);
        assert_ne!(clean, one_error);
    }

    #[test]
    #[should_panic(expected = "cannot compact")]
    fn more_outputs_than_chains_rejected() {
        SpaceCompactor::balanced(2, 3);
    }

    /// Word-level compaction is the per-lane scalar compaction, at every
    /// lane width (including lanes past bit 63).
    #[test]
    fn compact_words_matches_scalar_per_lane() {
        fn check<W: lbist_exec::LaneWord>() {
            let c = SpaceCompactor::balanced(5, 2);
            let bit = |chain: usize, lane: usize| (chain * 17 + lane * 5).is_multiple_of(4);
            let words: Vec<W> = (0..5)
                .map(|chain| {
                    let mut w = W::zero();
                    for lane in 0..W::LANES {
                        if bit(chain, lane) {
                            w.set_lane(lane);
                        }
                    }
                    w
                })
                .collect();
            let mut out = vec![W::zero(); 2];
            c.compact_words(&words, &mut out);
            for lane in [0, 1, W::LANES / 2, W::LANES - 1] {
                let bits: Vec<bool> = (0..5).map(|chain| bit(chain, lane)).collect();
                let scalar = c.compact(&bits);
                for (o, &s) in out.iter().zip(&scalar) {
                    assert_eq!(o.get_lane(lane), s, "{} lanes: lane {lane}", W::LANES);
                }
            }
        }
        check::<u64>();
        check::<u128>();
    }
}
