//! The input selector: random or deterministic patterns into the chains.

use crate::architecture::StumpsArchitecture;
use lbist_atpg::Pattern;
use lbist_netlist::NodeId;
use std::collections::HashMap;

/// Where the next load's chain bits come from.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub enum PatternSource {
    /// Pseudo-random bits from the TPG block (PRPG → phase shifter →
    /// expander), the normal self-test mode.
    #[default]
    Random,
    /// Deterministic top-up patterns (from ATPG), applied through the same
    /// chains. The selector walks the list in order.
    TopUp,
}

/// Fig. 1's input selector: multiplexes the TPG stream with stored top-up
/// patterns.
///
/// # Example
///
/// ```
/// use lbist_core::{InputSelector, PatternSource};
/// let mut sel = InputSelector::new();
/// assert_eq!(*sel.source(), PatternSource::Random);
/// sel.select(PatternSource::TopUp);
/// assert_eq!(*sel.source(), PatternSource::TopUp);
/// ```
#[derive(Clone, Debug, Default)]
pub struct InputSelector {
    source: PatternSource,
    top_up: Vec<Pattern>,
    /// Each flip-flop's position in a top-up pattern's `ff_values`.
    ff_bit: HashMap<NodeId, usize>,
    next_top_up: usize,
}

impl InputSelector {
    /// A selector in random mode with no stored top-up patterns.
    pub fn new() -> Self {
        InputSelector::default()
    }

    /// The active source.
    pub fn source(&self) -> &PatternSource {
        &self.source
    }

    /// Switches source.
    pub fn select(&mut self, source: PatternSource) {
        self.source = source;
    }

    /// Loads the deterministic pattern store (ATPG output). Each
    /// pattern's `ff_values` hold one bit per flip-flop of `dffs`, in
    /// that order: the `CompiledCircuit::dffs` order ATPG fills them in.
    pub fn load_top_up(&mut self, patterns: Vec<Pattern>, dffs: &[NodeId]) {
        self.top_up = patterns;
        self.ff_bit = dffs.iter().enumerate().map(|(i, &ff)| (ff, i)).collect();
        self.next_top_up = 0;
    }

    /// Top-up patterns not yet dispensed.
    pub fn top_up_remaining(&self) -> usize {
        self.top_up.len().saturating_sub(self.next_top_up)
    }

    /// Marks the first `n` top-up patterns as already dispensed without
    /// producing their loads — checkpoint resume fast-forwards the
    /// store to where the interrupted session left it.
    pub fn skip_top_up(&mut self, n: usize) {
        self.next_top_up = n.min(self.top_up.len());
    }

    /// Produces the chain-load bits for one full load, one `Vec<bool>` per
    /// chain in domain-then-chain order matching `arch`.
    ///
    /// In `Random` mode this steps every domain's PRPG `shift_cycles`
    /// times; bit `s` of a chain's vector is what enters at shift cycle
    /// `s`. In `TopUp` mode each chain cell gets its own flip-flop's bit
    /// of the next stored pattern (and `None` is returned when the store
    /// is exhausted).
    ///
    /// # Panics
    ///
    /// Panics in `TopUp` mode if a chain cell is not one of the
    /// flip-flops the store was loaded with.
    pub fn next_load(
        &mut self,
        arch: &mut StumpsArchitecture,
        shift_cycles: usize,
    ) -> Option<Vec<Vec<bool>>> {
        match self.source {
            PatternSource::Random => {
                let mut per_chain: Vec<Vec<bool>> = Vec::new();
                let mut chain_base = Vec::new();
                for db in arch.domains() {
                    chain_base.push(per_chain.len());
                    for _ in 0..db.chains.len() {
                        per_chain.push(Vec::with_capacity(shift_cycles));
                    }
                }
                for _ in 0..shift_cycles {
                    for (di, db) in arch.domains_mut().iter_mut().enumerate() {
                        let bits = db.prpg.step_vector();
                        for (ci, bit) in bits.into_iter().enumerate() {
                            if ci < db.chains.len() {
                                per_chain[chain_base[di] + ci].push(bit);
                            }
                        }
                    }
                }
                Some(per_chain)
            }
            PatternSource::TopUp => {
                if self.next_top_up >= self.top_up.len() {
                    return None;
                }
                let pattern = &self.top_up[self.next_top_up];
                self.next_top_up += 1;
                // Deal each cell's FF value into its shift position: the
                // bit destined for cell i of a chain must be inserted at
                // shift cycle (shift_cycles - 1 - i) so that after the
                // full load it rests in cell i.
                let mut per_chain = Vec::new();
                for db in arch.domains() {
                    for chain in &db.chains {
                        let mut bits = vec![false; shift_cycles];
                        for (i, cell) in chain.cells.iter().enumerate().take(shift_cycles) {
                            let bit = *self
                                .ff_bit
                                .get(cell)
                                .expect("every chain cell is a flip-flop of the top-up store");
                            bits[shift_cycles - 1 - i] =
                                pattern.ff_values.get(bit).copied().unwrap_or(false);
                        }
                        per_chain.push(bits);
                    }
                }
                Some(per_chain)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::{StumpsArchitecture, StumpsConfig};
    use lbist_cores::{CoreProfile, CpuCoreGenerator};
    use lbist_dft::{prepare_core, PrepConfig, TpiMethod};

    /// Core X at 1/`scale` from generator `seed`, stitched into `chains`
    /// chains, and its flip-flops in `CompiledCircuit::dffs` order.
    fn arch_of(scale: usize, seed: u64, chains: usize) -> (StumpsArchitecture, Vec<NodeId>) {
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(scale), seed).generate();
        let core = prepare_core(
            &nl,
            &PrepConfig {
                total_chains: chains,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        (arch, core.netlist.dffs().to_vec())
    }

    #[test]
    fn random_mode_streams_bits() {
        let (mut a, _) = arch_of(800, 3, 4);
        let mut sel = InputSelector::new();
        let load1 = sel.next_load(&mut a, 10).unwrap();
        let load2 = sel.next_load(&mut a, 10).unwrap();
        let total_chains: usize = a.domains().iter().map(|d| d.chains.len()).sum();
        assert_eq!(load1.len(), total_chains);
        assert!(load1.iter().all(|c| c.len() == 10));
        assert_ne!(load1, load2, "the PRPG advances between loads");
    }

    #[test]
    fn top_up_mode_dispenses_then_exhausts() {
        let (mut a, dffs) = arch_of(800, 3, 4);
        let mut sel = InputSelector::new();
        sel.load_top_up(
            vec![lbist_atpg::Pattern {
                pi_values: vec![],
                ff_values: (0..dffs.len()).map(|i| i % 2 == 0).collect(),
            }],
            &dffs,
        );
        sel.select(PatternSource::TopUp);
        assert_eq!(sel.top_up_remaining(), 1);
        let shift = a.max_chain_length();
        let load = sel.next_load(&mut a, shift).unwrap();
        assert!(!load.is_empty());
        assert_eq!(sel.top_up_remaining(), 0);
        assert!(sel.next_load(&mut a, shift).is_none());
    }

    /// After one top-up load every cell holds its own flip-flop's
    /// `ff_values` bit. Stitching deals a domain's flip-flops round-robin
    /// over its chains, so on a domain with several chains, chain order
    /// is not `dffs` order.
    #[test]
    fn top_up_bits_land_in_their_cells() {
        let (mut a, dffs) = arch_of(600, 21, 5);
        assert!(a.domains().iter().any(|d| d.chains.len() > 1), "needs a multi-chain domain");
        let want: Vec<bool> = (0..dffs.len()).map(|i| i % 3 == 0).collect();
        let mut sel = InputSelector::new();
        sel.load_top_up(
            vec![lbist_atpg::Pattern { pi_values: vec![], ff_values: want.clone() }],
            &dffs,
        );
        sel.select(PatternSource::TopUp);
        let shift = a.max_chain_length();
        let load = sel.next_load(&mut a, shift).unwrap();
        // Emulate the shift: cell i ends with the bit inserted at cycle
        // shift-1-i.
        let chains = a.domains().iter().flat_map(|d| &d.chains);
        for (chain_idx, chain) in chains.enumerate() {
            for (i, cell) in chain.cells.iter().enumerate() {
                let own = dffs.iter().position(|ff| ff == cell).unwrap();
                let inserted = load[chain_idx][shift - 1 - i];
                assert_eq!(inserted, want[own], "chain {chain_idx} cell {i} ({cell})");
            }
        }
    }
}
