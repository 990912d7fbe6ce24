//! The at-speed multi-clock self-test session: no TPI, no ATPG. Core Y
//! goes through `prepare_core` (X-bounding, IO wrapping, no test
//! points), then two `WideGradingSession<u64>` runs on the default
//! kernel path grade the paper's PRPG budget with fault dropping and
//! MISR signatures — stuck-at over every collapsed fault, then
//! launch-on-capture transition over the stem faults, pulsing every
//! clock domain.

use crate::flow::{compile, prepare};
use crate::trace::Tracer;
use lbist_core::{GradingMetrics, StumpsConfig, WideGradingOutcome, WideGradingSession};
use lbist_cores::CoreProfile;
use lbist_dft::{BistReadyCore, PrepConfig, TpiMethod};
use lbist_fault::{CaptureWindow, Fault, FaultUniverse};
use lbist_netlist::Netlist;
use lbist_obs::Registry;
use lbist_sim::CompiledCircuit;
use std::time::Instant;

/// The session's inputs.
#[derive(Clone, Debug)]
pub struct SelftestConfig {
    /// Core profile after scaling.
    pub profile: CoreProfile,
    /// Netlist generation seed.
    pub netlist_seed: u64,
    /// PRPG seed of the STUMPS architecture.
    pub prpg_seed: u64,
    /// Scan chains.
    pub chains: usize,
    /// PRPG patterns per session run (a multiple of 64).
    pub patterns: usize,
}

impl SelftestConfig {
    /// Core Y at 1/192 scale (seed 43, as in `table1`), 106 chains, the
    /// paper's 20480-pattern budget: the `table1-y` workload's core, half
    /// the size of `table1`'s 1/96, so a run holds several iterations.
    pub fn core_y() -> Self {
        SelftestConfig {
            profile: CoreProfile::core_y().scaled(192),
            netlist_seed: 43,
            prpg_seed: StumpsConfig::default().seed,
            chains: 106,
            patterns: 20480,
        }
    }
}

/// Everything built before the timed session: the prepared core, its
/// compiled form and both fault universes.
#[derive(Debug)]
pub struct SelftestInputs {
    /// The BIST-ready core.
    pub core: BistReadyCore,
    /// Its compiled form.
    pub cc: CompiledCircuit,
    /// Collapsed stuck-at faults.
    pub stuck: Vec<Fault>,
    /// Collapsed transition faults on stems.
    pub transition: Vec<Fault>,
}

/// Prepares the core and builds the fault universes.
pub fn setup(netlist: &Netlist, cfg: &SelftestConfig, t: &mut Tracer) -> SelftestInputs {
    let prep = PrepConfig {
        total_chains: cfg.chains,
        wrap_ios: true,
        obs_budget: 0,
        tpi: TpiMethod::None,
        seed: cfg.netlist_seed,
    };
    let core = prepare(netlist, &prep, t);
    let cc = t.span("sim.compile", |_| compile(&core.netlist));
    let (stuck, transition) = t.span("fault.universe", |_| {
        let stuck = FaultUniverse::stuck_at(&core.netlist).representatives();
        let transition: Vec<Fault> = FaultUniverse::transition(&core.netlist)
            .representatives()
            .into_iter()
            .filter(Fault::is_stem)
            .collect();
        (stuck, transition)
    });
    SelftestInputs { core, cc, stuck, transition }
}

/// One session run's result.
#[derive(Debug)]
pub struct GradeRun {
    /// Wall seconds of the run.
    pub wall_s: f64,
    /// The grading verdict.
    pub outcome: WideGradingOutcome,
}

/// Both runs of one session.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Stuck-at over all collapsed faults.
    pub stuck: GradeRun,
    /// Launch-on-capture transition over stem faults.
    pub transition: GradeRun,
}

impl SessionOutcome {
    /// Wall seconds of the whole session.
    pub fn flow_s(&self) -> f64 {
        self.stuck.wall_s + self.transition.wall_s
    }
}

/// Runs the session. With a recording tracer each run gets a span and a
/// fresh metrics registry whose phase figures land in the tracer under
/// `grading.{stuck,transition}.*`.
pub fn run_session(
    inputs: &SelftestInputs,
    cfg: &SelftestConfig,
    t: &mut Tracer,
) -> SessionOutcome {
    let batches = cfg.patterns / 64;
    let domains = inputs.core.netlist.num_domains().max(1);
    t.span("flow", |t| {
        let stumps = StumpsConfig { seed: cfg.prpg_seed, ..StumpsConfig::default() };
        let stuck = grade(inputs, &stumps, t, "grading.stuck", |s| {
            s.run_stuck_at(inputs.stuck.clone(), batches)
        });
        let transition = grade(inputs, &stumps, t, "grading.transition", |s| {
            s.run_transition(
                inputs.transition.clone(),
                CaptureWindow::all_domains(domains),
                batches,
            )
        });
        SessionOutcome { stuck, transition }
    })
}

fn grade(
    inputs: &SelftestInputs,
    stumps: &StumpsConfig,
    t: &mut Tracer,
    name: &'static str,
    run: impl FnOnce(&mut WideGradingSession<'_, u64>) -> WideGradingOutcome,
) -> GradeRun {
    let registry = if t.enabled() { Registry::new() } else { Registry::disabled() };
    let threads = lbist_exec::current_num_threads();
    let mark = t.mark();
    let start = Instant::now();
    let outcome = t.span(name, |_| {
        let mut session = WideGradingSession::<u64>::new(&inputs.core, &inputs.cc, stumps);
        session.set_metrics(GradingMetrics::from_registry(&registry));
        run(&mut session)
    });
    let wall_s = start.elapsed().as_secs_f64();
    if t.enabled() {
        let stuck = name == "grading.stuck";
        t.record_util(
            if stuck { "exec.cpu_util.stuck" } else { "exec.cpu_util.transition" },
            mark,
            threads,
        );
        let snap = registry.snapshot();
        let secs = |h: &str| snap.histogram(h).map_or(0.0, |h| h.sum as f64 * 1e-9);
        let graded = snap.counter("grading.faults_graded").unwrap_or(0) as f64;
        let keys: [&'static str; 7] = if stuck {
            [
                "grading.stuck.fill_s",
                "grading.stuck.sim_s",
                "grading.stuck.detect_s",
                "grading.stuck.absorb_s",
                "grading.stuck.lower_s",
                "grading.stuck.faults_graded",
                "grading.stuck.faults_graded_per_s",
            ]
        } else {
            [
                "grading.transition.fill_s",
                "grading.transition.sim_s",
                "grading.transition.detect_s",
                "grading.transition.absorb_s",
                "grading.transition.lower_s",
                "grading.transition.faults_graded",
                "grading.transition.faults_graded_per_s",
            ]
        };
        let vals = [
            secs("grading.fill_ns"),
            secs("grading.sim_ns"),
            secs("grading.detect_ns"),
            secs("grading.absorb_ns"),
            secs("sim.kernel.compile_ns"),
            graded,
            graded / wall_s.max(1e-9),
        ];
        for (k, v) in keys.into_iter().zip(vals) {
            t.record(k, v);
        }
    }
    GradeRun { wall_s, outcome }
}
