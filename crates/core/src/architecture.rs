//! Sizing and construction of the per-domain STUMPS hardware.

use lbist_dft::{BistReadyCore, ScanChain};
use lbist_netlist::DomainId;
use lbist_tpg::{Gf2Vec, Lfsr, LfsrPoly, Misr, PhaseShifter, Prpg, SpaceCompactor, SpaceExpander};

/// Phase-shifter channel separation in LFSR cycles.
pub const PHASE_SEPARATION: u64 = 64;

/// Minimum MISR length (19 in Table 1; domains with few chains still
/// get at least this much signature state).
const MISR_MIN_LENGTH: usize = 19;

/// Architecture-level configuration (the knobs Table 1 reports).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StumpsConfig {
    /// PRPG length per domain (the paper uses 19 everywhere).
    pub prpg_length: usize,
    /// Use a synthesized phase shifter (`false` taps raw LFSR stages — the
    /// A4 ablation's baseline, which leaves adjacent chains correlated).
    pub use_phase_shifter: bool,
    /// Use a space expander between the shifter and the chains (`true`,
    /// the paper's choice — it keeps the shifter narrow). `false` gives
    /// every chain its own phase-shifter channel instead: more XOR rows,
    /// but the chains become linearly independent per shift cycle, which
    /// is what hybrid-BIST reseeding needs (an expander caps the
    /// per-cycle image at `channels` independent bits, so cubes touching
    /// many chains at one scan position become unsolvable for *any* seed
    /// length).
    pub use_expander: bool,
    /// Compact scan-outs into a short MISR (`true`) or connect every chain
    /// straight to a chain-count-wide MISR (`false`, the paper's choice —
    /// §3 note 3 — to keep setup-risk logic off the scan-out path).
    pub use_compactor: bool,
    /// Seed material for the PRPGs (mixed with the domain index).
    pub seed: u64,
}

impl Default for StumpsConfig {
    fn default() -> Self {
        StumpsConfig {
            prpg_length: 19,
            use_phase_shifter: true,
            use_expander: true,
            use_compactor: false,
            seed: 0xB157,
        }
    }
}

/// One clock domain's BIST hardware: PRPG → phase shifter → expander →
/// chains → compactor → MISR (Fig. 1's `PRPGi`/`PSi`/`SpEi` and
/// `SpCi`/`MISRi`).
#[derive(Clone, Debug)]
pub struct DomainBist {
    /// The clock domain served.
    pub domain: DomainId,
    /// Pattern generator feeding this domain's chains.
    pub prpg: Prpg,
    /// Scan-out compactor (passthrough when the paper's compactor-less
    /// configuration is chosen).
    pub compactor: SpaceCompactor,
    /// Signature register.
    pub misr: Misr,
    /// The chains of this domain, scan order preserved.
    pub chains: Vec<ScanChain>,
}

impl DomainBist {
    /// Longest chain in this domain.
    pub fn max_chain_length(&self) -> usize {
        self.chains.iter().map(ScanChain::len).max().unwrap_or(0)
    }
}

/// The complete per-domain STUMPS wiring for a BIST-ready core.
#[derive(Clone, Debug)]
pub struct StumpsArchitecture {
    config: StumpsConfig,
    domains: Vec<DomainBist>,
}

impl StumpsArchitecture {
    /// Builds the architecture: one PRPG–MISR pair per clock domain (§2.1:
    /// "we use two PRPG-MISR pairs, one for each clock domain, even though
    /// they may have the same frequency").
    ///
    /// # Panics
    ///
    /// Panics if the core has no scan chains.
    pub fn build(core: &BistReadyCore, config: &StumpsConfig) -> Self {
        let num_domains = core.netlist.num_domains().max(1);
        let mut domains = Vec::with_capacity(num_domains);
        for d in 0..num_domains {
            let domain = DomainId::new(d as u16);
            let chains: Vec<ScanChain> =
                core.chains.chains_in_domain(domain).into_iter().cloned().collect();
            let n_chains = chains.len().max(1);

            let poly = LfsrPoly::maximal(config.prpg_length)
                .unwrap_or_else(|| LfsrPoly::nearest_maximal(config.prpg_length));
            let channels = if config.use_expander {
                // Smallest channel count whose <=2-input XOR expander
                // covers all chains.
                let mut channels = 1usize;
                while channels + channels * (channels - 1) / 2 < n_chains {
                    channels += 1;
                }
                channels.min(poly.degree())
            } else if config.use_phase_shifter {
                // Direct drive: one shifter channel per chain (a
                // synthesized shifter can produce any channel count).
                n_chains
            } else {
                // Raw identity tapping has only `degree` stages; cap the
                // channels there and cover any excess chains with an
                // expander below.
                n_chains.min(poly.degree())
            };
            let shifter = if config.use_phase_shifter {
                PhaseShifter::synthesize(&poly, channels, PHASE_SEPARATION)
            } else {
                PhaseShifter::identity(&poly, channels)
            };
            let seed = domain_seed(config, d, poly.degree());
            let lfsr = Lfsr::new(poly, seed);
            let prpg = if config.use_expander || channels < n_chains {
                Prpg::with_expander(lfsr, shifter, SpaceExpander::new(channels, n_chains))
            } else {
                Prpg::new(lfsr, shifter)
            };

            let (compactor, misr_width) = if config.use_compactor {
                let outs = MISR_MIN_LENGTH.min(n_chains);
                (SpaceCompactor::balanced(n_chains, outs), MISR_MIN_LENGTH)
            } else {
                // Paper configuration: no compactor; the MISR must absorb
                // every chain in parallel, hence the long MISRs of Table 1
                // (99-bit for Core X's main domain, 80-bit for Core Y's).
                (SpaceCompactor::passthrough(n_chains), n_chains.max(MISR_MIN_LENGTH))
            };
            let misr_poly = LfsrPoly::nearest_maximal(misr_width);
            let misr = Misr::new(misr_poly, compactor.num_outputs());

            domains.push(DomainBist { domain, prpg, compactor, misr, chains });
        }
        assert!(
            domains.iter().any(|d| !d.chains.is_empty()),
            "a BIST architecture needs at least one scan chain"
        );
        StumpsArchitecture { config: config.clone(), domains }
    }

    /// Per-domain hardware, in domain order.
    pub fn domains(&self) -> &[DomainBist] {
        &self.domains
    }

    /// Mutable access (the session steps PRPGs and MISRs).
    pub fn domains_mut(&mut self) -> &mut [DomainBist] {
        &mut self.domains
    }

    /// Longest chain across all domains — shift cycles per load.
    pub fn max_chain_length(&self) -> usize {
        self.domains.iter().map(DomainBist::max_chain_length).max().unwrap_or(0)
    }

    /// Total PRPG stages (Table 1's "# of PRPGs × PRPG Length").
    pub fn total_prpg_stages(&self) -> usize {
        self.domains.iter().map(|d| d.prpg.lfsr().len()).sum()
    }

    /// Total MISR stages, and the per-domain widths (Table 1's "MISR
    /// Length" row, e.g. `1: 19 / 1: 99`).
    pub fn misr_widths(&self) -> Vec<usize> {
        self.domains.iter().map(|d| d.misr.width()).collect()
    }

    /// Resets all MISRs and re-seeds all PRPGs to their build-time state.
    pub fn reset(&mut self) {
        for (d, db) in self.domains.iter_mut().enumerate() {
            db.misr.reset();
            let seed = domain_seed(&self.config, d, db.prpg.lfsr().len());
            db.prpg.lfsr_mut().set_state(seed);
        }
    }
}

/// Domain `d`'s build-time PRPG state: a distinct nonzero seed of
/// `degree` bits derived from `config.seed`.
fn domain_seed(config: &StumpsConfig, d: usize, degree: usize) -> Gf2Vec {
    let seed_word = config.seed.rotate_left(d as u32 * 7) | 1;
    Gf2Vec::from_fn(degree, |i| (seed_word >> (i % 64)) & 1 == 1 || i == 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_cores::{CoreProfile, CpuCoreGenerator};
    use lbist_dft::{prepare_core, PrepConfig, TpiMethod};

    fn small_core() -> BistReadyCore {
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(400), 5).generate();
        prepare_core(
            &nl,
            &PrepConfig {
                total_chains: 6,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        )
    }

    #[test]
    fn one_pair_per_domain() {
        let core = small_core();
        let arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        assert_eq!(arch.domains().len(), core.netlist.num_domains());
        for db in arch.domains() {
            assert_eq!(db.prpg.num_chains(), db.chains.len().max(1));
            assert_eq!(db.compactor.num_chains(), db.chains.len().max(1));
        }
    }

    #[test]
    fn compactorless_misr_spans_all_chains() {
        let core = small_core();
        let arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        for db in arch.domains() {
            assert!(db.compactor.is_passthrough());
            assert!(db.misr.width() >= db.chains.len());
            assert!(db.misr.width() >= 19);
        }
    }

    #[test]
    fn compactor_shrinks_the_misr() {
        let core = small_core();
        let cfg = StumpsConfig { use_compactor: true, ..StumpsConfig::default() };
        let arch = StumpsArchitecture::build(&core, &cfg);
        let no_compact = StumpsArchitecture::build(&core, &StumpsConfig::default());
        let total = |a: &StumpsArchitecture| a.misr_widths().iter().sum::<usize>();
        assert!(total(&arch) <= total(&no_compact));
    }

    #[test]
    fn prpg_seeds_differ_across_domains() {
        let core = small_core();
        let arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        if arch.domains().len() >= 2 {
            assert_ne!(
                arch.domains()[0].prpg.lfsr().state(),
                arch.domains()[1].prpg.lfsr().state()
            );
        }
    }

    #[test]
    fn reset_restores_initial_state() {
        let core = small_core();
        let mut arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        let initial: Vec<_> =
            arch.domains().iter().map(|d| d.prpg.lfsr().state().clone()).collect();
        for db in arch.domains_mut() {
            db.prpg.step_vector();
            db.misr.clock(&vec![true; db.misr.num_inputs()]);
        }
        arch.reset();
        for (db, init) in arch.domains().iter().zip(&initial) {
            assert_eq!(db.prpg.lfsr().state(), init);
            assert!(db.misr.signature().is_zero());
        }
    }

    #[test]
    fn direct_drive_without_shifter_builds_past_degree() {
        // More chains in one domain than the 19-bit PRPG has stages: raw
        // identity tapping can't give every chain its own channel, so the
        // build must fall back to an expander instead of panicking.
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(100), 8).generate();
        let core = prepare_core(
            &nl,
            &PrepConfig {
                total_chains: 48,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let cfg = StumpsConfig {
            use_expander: false,
            use_phase_shifter: false,
            ..StumpsConfig::default()
        };
        let arch = StumpsArchitecture::build(&core, &cfg);
        assert!(arch.domains().iter().any(|d| d.chains.len() > 19), "shape exercises the cap");
        for db in arch.domains() {
            assert_eq!(db.prpg.num_chains(), db.chains.len().max(1));
        }
    }

    #[test]
    fn paper_sizing_on_core_x_shape() {
        // 100 chains over 2 domains with the main domain holding most FFs:
        // expect the main-domain MISR to be wide (compactor-less) and the
        // small domain's to clamp at the 19-bit minimum.
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(100), 8).generate();
        let core = prepare_core(
            &nl,
            &PrepConfig {
                // Enough chains that the main domain exceeds the 19-bit
                // MISR minimum, forcing a wide compactor-less MISR as in
                // Table 1 (99 chains -> 99-bit MISR).
                total_chains: 48,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        let widths = arch.misr_widths();
        assert!(widths.iter().any(|&w| w > 19), "main domain gets a wide MISR: {widths:?}");
        assert!(widths.iter().all(|&w| w >= 19));
    }
}
