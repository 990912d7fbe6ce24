//! The end-to-end BIST-ready-core preparation pipeline.

use crate::{
    insert_observation_points, wrap_ios, DftOverhead, IoWrapReport, ScanChains, TestPointInsertion,
    XBoundReport, XBounding,
};
use lbist_fault::{FaultUniverse, StuckAtSim};
use lbist_netlist::{DomainId, Netlist, NodeId};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How observation points are selected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TpiMethod {
    /// No test points (baseline).
    None,
    /// The paper's method: grade `patterns` random patterns, then cover
    /// the undetected faults' propagation profiles.
    FaultSimGuided {
        /// Random patterns used for the grading pass.
        patterns: usize,
    },
    /// The observability-calculation baseline the paper replaces.
    Cop,
}

/// Configuration for [`prepare_core`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrepConfig {
    /// Total scan chains (split across domains; Table 1 uses 100/106).
    pub total_chains: usize,
    /// Insert scan cells on PIs and POs (the paper's §3 technique 2).
    pub wrap_ios: bool,
    /// Observation-point budget (Table 1 uses 1K "Obv-Only" points).
    pub obs_budget: usize,
    /// Selection method for the observation points.
    pub tpi: TpiMethod,
    /// Seed for the grading pass's random patterns.
    pub seed: u64,
}

impl Default for PrepConfig {
    fn default() -> Self {
        PrepConfig {
            total_chains: 8,
            wrap_ios: true,
            obs_budget: 32,
            tpi: TpiMethod::FaultSimGuided { patterns: 512 },
            seed: 0x1_b157,
        }
    }
}

/// A full-scan, X-bounded, test-point-instrumented core: the "BIST-ready
/// core" of the paper's Fig. 1, plus everything the BIST architecture
/// needs to know about it.
#[derive(Clone, Debug)]
pub struct BistReadyCore {
    /// The transformed netlist.
    pub netlist: Netlist,
    /// Per-domain balanced scan chains over every flip-flop (functional,
    /// IO-wrapper and observation cells alike).
    pub chains: ScanChains,
    /// Observation-point cells added by TPI.
    pub observation_cells: Vec<NodeId>,
    /// The nets those cells observe (parallel to `observation_cells`).
    pub observation_sites: Vec<NodeId>,
    /// IO wrapper report, if `wrap_ios` was requested.
    pub io_report: Option<IoWrapReport>,
    /// X-bounding report (test-mode input, bounding gates).
    pub xbound: XBoundReport,
    /// Core-side area overhead (scan muxes, added cells, bounds). The BIST
    /// architecture adds its own TPG/ODC/controller costs on top.
    pub overhead: DftOverhead,
}

impl BistReadyCore {
    /// The `test_mode` input that must be held 1 during self-test.
    pub fn test_mode(&self) -> NodeId {
        self.xbound.test_mode
    }
}

/// Runs the full preparation pipeline on a copy of `netlist`:
/// X-bounding → IO wrapping → test point insertion → chain stitching →
/// overhead accounting.
///
/// # Panics
///
/// Panics if the netlist fails validation, or if `total_chains` is smaller
/// than the number of clock domains.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind, DomainId};
/// use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
///
/// let mut nl = Netlist::new("tiny");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a]);
/// let q = nl.add_dff(g, DomainId::new(0));
/// nl.add_output("y", q);
///
/// let core = prepare_core(&nl, &PrepConfig {
///     total_chains: 1,
///     wrap_ios: true,
///     obs_budget: 0,
///     tpi: TpiMethod::None,
///     seed: 1,
/// });
/// assert!(core.chains.total_cells() >= 3); // original FF + 2 IO cells
/// ```
pub fn prepare_core(netlist: &Netlist, config: &PrepConfig) -> BistReadyCore {
    netlist.validate().expect("prepare_core requires a valid netlist");
    let mut nl = netlist.clone();
    let original_ffs = nl.dffs().len();
    let core_ge = nl.gate_equivalents().max(1.0);

    let xbound = XBounding::apply(&mut nl);
    debug_assert!(XBounding::verify(&nl, xbound.test_mode));

    let io_report = if config.wrap_ios { Some(wrap_ios(&mut nl, DomainId::new(0))) } else { None };

    let observation_sites = match &config.tpi {
        TpiMethod::None => Vec::new(),
        TpiMethod::Cop => TestPointInsertion::cop_guided(&nl, config.obs_budget).sites,
        TpiMethod::FaultSimGuided { patterns } => {
            let cc = CompiledCircuit::compile(&nl).expect("validated netlist");
            let universe = FaultUniverse::stuck_at(&nl);
            let mut sim = StuckAtSim::new(
                &cc,
                universe.representatives(),
                StuckAtSim::observe_all_captures(&cc),
            );
            let mut rng = SmallRng::seed_from_u64(config.seed);
            let batches = patterns.div_ceil(64).max(1);
            let mut frame = cc.new_frame();
            for _ in 0..batches {
                fill_random_scan_frame(&cc, xbound.test_mode, &mut rng, &mut frame);
                sim.run_batch(&mut frame, 64);
            }
            let survivors = sim.undetected();
            // The simulator's program and replay plan are not needed
            // past this point: free them before site selection.
            drop(sim);
            TestPointInsertion::fault_sim_guided(
                &cc,
                &survivors,
                config.obs_budget,
                4,
                config.seed ^ 0x5eed,
            )
            .sites
        }
    };
    let observation_cells = insert_observation_points(&mut nl, &observation_sites);

    let chains = ScanChains::stitch(&nl, config.total_chains);

    let mut overhead = DftOverhead::new(core_ge);
    overhead.add_scan_muxes(original_ffs);
    let io_cells =
        io_report.as_ref().map(|r| r.input_cells.len() + r.output_cells.len()).unwrap_or(0);
    overhead.add_scan_cells(io_cells + observation_cells.len());
    overhead.add_x_bounds(xbound.bounding_gates.len());

    BistReadyCore {
        netlist: nl,
        chains,
        observation_cells,
        observation_sites,
        io_report,
        xbound,
        overhead,
    }
}

/// Fills the source words of `frame` with 64 random full-scan patterns,
/// the stimulus of the grading pass behind observation-point selection:
/// a random word on every primary input, then on every flip-flop, in
/// that draw order, with `test_mode` held high and every X-source at 0.
pub fn fill_random_scan_frame(
    cc: &CompiledCircuit,
    test_mode: NodeId,
    rng: &mut impl Rng,
    frame: &mut [u64],
) {
    for &pi in cc.inputs() {
        frame[pi.index()] = rng.gen();
    }
    frame[test_mode.index()] = !0;
    for &ff in cc.dffs() {
        frame[ff.index()] = rng.gen();
    }
    for &x in cc.xsources() {
        frame[x.index()] = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::GateKind;

    fn sample() -> Netlist {
        let mut nl = Netlist::new("sample");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.add_xsource();
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[g1, x]);
        let f1 = nl.add_dff(g2, DomainId::new(0));
        let g3 = nl.add_gate(GateKind::Xor, &[f1, a]);
        let f2 = nl.add_dff(g3, DomainId::new(1));
        nl.add_output("y", f2);
        nl
    }

    #[test]
    fn pipeline_produces_valid_bounded_core() {
        let core = prepare_core(&sample(), &PrepConfig::default());
        assert!(core.netlist.validate().is_ok());
        assert!(XBounding::verify(&core.netlist, core.test_mode()));
        assert!(core.chains.total_cells() >= 2);
        assert!(core.overhead.percent() > 0.0);
    }

    #[test]
    fn original_netlist_untouched() {
        let nl = sample();
        let before = nl.len();
        let _ = prepare_core(&nl, &PrepConfig::default());
        assert_eq!(nl.len(), before);
    }

    #[test]
    fn io_wrapping_is_optional() {
        let cfg = PrepConfig { wrap_ios: false, ..PrepConfig::default() };
        let core = prepare_core(&sample(), &cfg);
        assert!(core.io_report.is_none());
        let with = prepare_core(&sample(), &PrepConfig::default());
        assert!(with.chains.total_cells() > core.chains.total_cells());
    }

    #[test]
    fn obs_cells_match_sites() {
        let cfg = PrepConfig { obs_budget: 4, tpi: TpiMethod::Cop, ..PrepConfig::default() };
        let core = prepare_core(&sample(), &cfg);
        assert_eq!(core.observation_cells.len(), core.observation_sites.len());
        for (cell, site) in core.observation_cells.iter().zip(&core.observation_sites) {
            assert_eq!(core.netlist.fanins(*cell), &[*site]);
        }
    }

    #[test]
    fn all_ffs_end_up_in_chains() {
        let core = prepare_core(&sample(), &PrepConfig::default());
        assert_eq!(core.chains.total_cells(), core.netlist.dffs().len());
    }

    #[test]
    fn tpi_methods_differ() {
        let mk = |tpi| PrepConfig { obs_budget: 3, tpi, ..PrepConfig::default() };
        let fsg = prepare_core(&sample(), &mk(TpiMethod::FaultSimGuided { patterns: 128 }));
        let cop = prepare_core(&sample(), &mk(TpiMethod::Cop));
        let none = prepare_core(&sample(), &mk(TpiMethod::None));
        assert!(none.observation_cells.is_empty());
        // The tiny sample may make the two methods agree, but both must
        // produce *some* plan within budget.
        assert!(cop.observation_cells.len() <= 3);
        assert!(fsg.observation_cells.len() <= 3);
    }
}
