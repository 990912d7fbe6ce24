//! The Table 1 flow, driven through the same public functions in the
//! same order as `lbist_bench::run_table1_flow`: generated netlist →
//! `prepare_core` with fault-sim-guided TPI → re-stitch → compile →
//! PRPG random phase → `TopUpAtpg::run`.
//!
//! Untraced, preparation is one `prepare_core` call. Traced, it is split
//! into the stages `prepare_core` runs (X-bound → wrap → TPI grade →
//! `fault_sim_guided` → insert → stitch) so each can be timed; the split
//! must reproduce `prepare_core` exactly, which the caller checks.

use crate::trace::Tracer;
use lbist_atpg::{TopUpAtpg, TopUpReport};
use lbist_core::{fill_frame_from_prpg, StumpsArchitecture, StumpsConfig};
use lbist_cores::CoreProfile;
use lbist_dft::{
    insert_observation_points, prepare_core, wrap_ios, BistReadyCore, DftOverhead, PrepConfig,
    ScanChains, TestPointInsertion, TpiMethod, XBounding,
};
use lbist_fault::{Fault, FaultUniverse, StuckAtSim};
use lbist_netlist::{DomainId, Netlist, NodeId};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// One Table 1 column's inputs.
#[derive(Clone, Debug)]
pub struct Table1Config {
    /// Core profile after scaling.
    pub profile: CoreProfile,
    /// Netlist generation seed.
    pub netlist_seed: u64,
    /// Seed of the TPI grading pass and the top-up fill
    /// (`run_table1_flow` uses the netlist seed).
    pub seed: u64,
    /// PRPG seed of the STUMPS architecture.
    pub prpg_seed: u64,
    /// PRPG patterns in the random phase.
    pub random_patterns: usize,
    /// Observation-point budget.
    pub obs_budget: usize,
    /// Scan chains the core is re-stitched into.
    pub target_chains: usize,
}

impl Table1Config {
    /// The `table1` Core X column at 1/96 scale (2 clock domains), seed
    /// 42, 2048 patterns, 31 observation points, 100 chains. A third of
    /// the size of `table1`'s 1/32, so a run holds several iterations;
    /// top-up dominates the flow.
    pub fn core_x() -> Self {
        Table1Config {
            profile: CoreProfile::core_x().scaled(96),
            netlist_seed: 42,
            seed: 42,
            prpg_seed: StumpsConfig::default().seed,
            random_patterns: 2048,
            obs_budget: 1000 / 32,
            target_chains: 100,
        }
    }

    /// The Core Y column at 1/192 scale (8 clock domains), seed 43, 2048
    /// patterns, 31 observation points, 106 chains. Half the size of
    /// `table1`'s 1/96, so a run holds several iterations; top-up still
    /// dominates the flow.
    pub fn core_y() -> Self {
        Table1Config {
            profile: CoreProfile::core_y().scaled(192),
            netlist_seed: 43,
            seed: 43,
            prpg_seed: StumpsConfig::default().seed,
            random_patterns: 2048,
            obs_budget: 1000 / 32,
            target_chains: 106,
        }
    }

    /// The STUMPS configuration: `table1`'s, with this PRPG seed.
    pub fn stumps(&self) -> StumpsConfig {
        StumpsConfig { seed: self.prpg_seed, ..StumpsConfig::default() }
    }

    /// The `prepare_core` configuration `run_table1_flow` uses.
    pub fn prep_config(&self) -> PrepConfig {
        PrepConfig {
            total_chains: self.profile.num_chains,
            wrap_ios: true,
            obs_budget: self.obs_budget,
            tpi: TpiMethod::FaultSimGuided { patterns: (self.random_patterns / 4).max(256) },
            seed: self.seed,
        }
    }
}

/// What one pass of the flow produced.
#[derive(Debug)]
pub struct FlowOutcome {
    /// Wall seconds from the generated netlist to the top-up report.
    pub flow_s: f64,
    /// The prepared, re-stitched core.
    pub core: BistReadyCore,
    /// Its compiled form.
    pub cc: CompiledCircuit,
    /// Collapsed stuck-at faults (the coverage denominator).
    pub faults: Vec<Fault>,
    /// Faults the random phase detected.
    pub random_detected: usize,
    /// Indices (into `faults`) the random phase left undetected.
    pub undetected: Vec<usize>,
    /// The undetected faults handed to top-up.
    pub survivors: Vec<Fault>,
    /// The top-up result.
    pub report: TopUpReport,
}

impl FlowOutcome {
    /// FC1: random-phase coverage over all collapsed faults, percent.
    pub fn coverage_random_pct(&self) -> f64 {
        self.random_detected as f64 / self.faults.len().max(1) as f64 * 100.0
    }

    /// Random plus top-up detections over the same all-faults
    /// denominator, percent.
    pub fn coverage_final_pct(&self) -> f64 {
        (self.random_detected + self.report.faults_detected) as f64
            / self.faults.len().max(1) as f64
            * 100.0
    }

    /// FC2 as `run_table1_flow` reports it: over faults not proven
    /// untestable.
    pub fn table1_fc2(&self) -> f64 {
        let testable = self.faults.len() - self.report.untestable;
        (self.random_detected + self.report.faults_detected) as f64 / testable.max(1) as f64 * 100.0
    }

    /// Timing-free identity of everything before top-up: the TPI sites
    /// and the random phase's undetected set.
    pub fn pre_topup_digest(&self) -> u64 {
        let mut h = lbist_ckpt::Fnv64::new();
        h.write_usize(self.core.observation_sites.len());
        for s in &self.core.observation_sites {
            h.write_usize(s.index());
        }
        h.write_usize(self.undetected.len());
        for &i in &self.undetected {
            h.write_usize(i);
        }
        h.finish()
    }
}

/// Runs the flow on `netlist`. With a recording tracer every stage runs
/// under its own span inside a `flow` span.
pub fn run_flow(netlist: &Netlist, cfg: &Table1Config, t: &mut Tracer) -> FlowOutcome {
    let start = Instant::now();
    let mut out = t.span("flow", |t| flow_body(netlist, cfg, t));
    out.flow_s = start.elapsed().as_secs_f64();
    out
}

fn flow_body(netlist: &Netlist, cfg: &Table1Config, t: &mut Tracer) -> FlowOutcome {
    let threads = lbist_exec::current_num_threads();
    let mut core = prepare(netlist, &cfg.prep_config(), t);
    // Re-stitch with the paper's chain count, as run_table1_flow does.
    let chains_needed = cfg.target_chains.max(core.netlist.num_domains());
    core.chains = t.span("dft.stitch", |_| ScanChains::stitch(&core.netlist, chains_needed));
    let cc = t.span("sim.compile", |_| compile(&core.netlist));
    let faults =
        t.span("fault.universe", |_| FaultUniverse::stuck_at(&core.netlist).representatives());
    let mut sim = StuckAtSim::new(&cc, faults.clone(), StuckAtSim::observe_all_captures(&cc));

    let mark = t.mark();
    let mut arch = t.span("core.arch", |_| StumpsArchitecture::build(&core, &cfg.stumps()));
    let mut frame = cc.new_frame();
    let mut faults_graded = 0u64;
    for _ in 0..cfg.random_patterns.div_ceil(64) {
        t.span("core.fill", |_| fill_frame_from_prpg(&mut arch, &core, &mut frame));
        faults_graded += sim.active_faults() as u64;
        t.span("fault.random_grade", |_| sim.run_batch(&mut frame, 64));
    }
    t.record_util("exec.cpu_util.random", mark, threads);
    t.record("fault.random_faults_graded", faults_graded as f64);
    let random_detected = sim.coverage().detected;
    let undetected = sim.undetected_indices();
    let survivors = sim.undetected();
    drop(sim);

    let mark = t.mark();
    let report = t.span("atpg.topup", |_| {
        let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
        atpg.pin(core.test_mode(), true);
        atpg.run(&survivors, cfg.seed ^ 0xA7B6)
    });
    t.record_util("exec.cpu_util.topup", mark, threads);

    FlowOutcome { flow_s: 0.0, core, cc, faults, random_detected, undetected, survivors, report }
}

/// Compiles a netlist the flow built itself (always valid).
pub fn compile(netlist: &Netlist) -> CompiledCircuit {
    CompiledCircuit::compile(netlist).expect("a prepared core compiles")
}

/// `prepare_core(netlist, cfg)`: one call when untraced, the same stages
/// one span each when traced.
pub fn prepare(netlist: &Netlist, cfg: &PrepConfig, t: &mut Tracer) -> BistReadyCore {
    if !t.enabled() {
        return prepare_core(netlist, cfg);
    }
    let threads = lbist_exec::current_num_threads();
    let (mut nl, original_ffs, core_ge, xbound) = t.span("dft.xbound", |_| {
        netlist.validate().expect("generated netlists are valid");
        let mut nl = netlist.clone();
        let original_ffs = nl.dffs().len();
        let core_ge = nl.gate_equivalents().max(1.0);
        let xbound = XBounding::apply(&mut nl);
        (nl, original_ffs, core_ge, xbound)
    });
    let io_report =
        cfg.wrap_ios.then(|| t.span("dft.wrap", |_| wrap_ios(&mut nl, DomainId::new(0))));
    let observation_sites: Vec<NodeId> = match &cfg.tpi {
        TpiMethod::None => Vec::new(),
        TpiMethod::Cop => TestPointInsertion::cop_guided(&nl, cfg.obs_budget).sites,
        TpiMethod::FaultSimGuided { patterns } => {
            let mark = t.mark();
            let (cc, survivors) = t.span("dft.tpi_grade", |t| {
                let cc = t.span("sim.compile", |_| compile(&nl));
                let universe = FaultUniverse::stuck_at(&nl);
                let mut sim = StuckAtSim::new(
                    &cc,
                    universe.representatives(),
                    StuckAtSim::observe_all_captures(&cc),
                );
                let mut rng = SmallRng::seed_from_u64(cfg.seed);
                let mut frame = cc.new_frame();
                for _ in 0..patterns.div_ceil(64).max(1) {
                    for &pi in cc.inputs() {
                        frame[pi.index()] = rng.gen();
                    }
                    frame[xbound.test_mode.index()] = !0;
                    for &ff in cc.dffs() {
                        frame[ff.index()] = rng.gen();
                    }
                    for &x in cc.xsources() {
                        frame[x.index()] = 0;
                    }
                    sim.run_batch(&mut frame, 64);
                }
                let survivors = sim.undetected();
                drop(sim);
                (cc, survivors)
            });
            let plan = t.span("dft.tpi_select", |_| {
                TestPointInsertion::fault_sim_guided(
                    &cc,
                    &survivors,
                    cfg.obs_budget,
                    4,
                    cfg.seed ^ 0x5eed,
                )
            });
            t.record_util("exec.cpu_util.tpi", mark, threads);
            t.record("dft.tpi_survivors", survivors.len() as f64);
            t.record("dft.tpi_sites", plan.sites.len() as f64);
            t.record(
                "dft.tpi_cover_ratio",
                plan.covered_faults as f64 / survivors.len().max(1) as f64,
            );
            plan.sites
        }
    };
    let observation_cells =
        t.span("dft.insert", |_| insert_observation_points(&mut nl, &observation_sites));
    let chains = t.span("dft.stitch", |_| ScanChains::stitch(&nl, cfg.total_chains));

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

/// Re-grades the top-up patterns with a fresh simulator over the
/// survivors and returns how many of them the patterns detect — what
/// `TopUpReport::faults_detected` must equal.
pub fn regrade_topup(cc: &CompiledCircuit, survivors: &[Fault], report: &TopUpReport) -> usize {
    let mut sim = StuckAtSim::new(cc, survivors.to_vec(), StuckAtSim::observe_all_captures(cc));
    for chunk in report.patterns.chunks(64) {
        let mut frame = cc.new_frame();
        for (lane, p) in chunk.iter().enumerate() {
            p.load_into_lane(cc, &mut frame, lane);
        }
        sim.run_batch(&mut frame, chunk.len());
    }
    sim.detections().iter().filter(|&&d| d > 0).count()
}
