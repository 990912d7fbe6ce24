//! IP-core test sign-off: the paper's full flow on one core.
//!
//! Reproduces the Table 1 *methodology* end to end on a scaled synthetic
//! core: random-phase fault grading (Fault Coverage 1), fault-sim-guided
//! observation points, top-up ATPG (Fault Coverage 2), and the final
//! self-test signature.
//!
//! ```text
//! cargo run --release --example ip_core_signoff
//! ```

use lbist::atpg::TopUpAtpg;
use lbist::core::{SelfTestSession, SessionConfig, StumpsConfig};
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{fill_random_scan_frame, prepare_core, PrepConfig, TpiMethod};
use lbist::fault::{FaultUniverse, StuckAtSim};
use lbist::sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let profile = CoreProfile::core_x().scaled(50);
    println!("=== sign-off for {profile} ===");
    let netlist = CpuCoreGenerator::new(profile, 7).generate();

    // BIST preparation with the paper's observation-point method.
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 16,
            wrap_ios: true,
            obs_budget: 24,
            tpi: TpiMethod::FaultSimGuided { patterns: 1024 },
            seed: 3,
        },
    );
    println!(
        "chains: {} (max len {}), obs points: {}, overhead: {:.2}%",
        core.chains.num_chains(),
        core.chains.max_chain_length(),
        core.observation_cells.len(),
        core.overhead.percent()
    );

    // Random phase: grade 2048 PRPG-style patterns.
    let cc = CompiledCircuit::compile(&core.netlist).expect("core compiles");
    let universe = FaultUniverse::stuck_at(&core.netlist);
    println!(
        "fault universe: {} total, {} collapsed",
        universe.num_total(),
        universe.num_collapsed()
    );
    let mut sim =
        StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
    let mut rng = SmallRng::seed_from_u64(11);
    let mut frame = cc.new_frame();
    for _ in 0..(2048 / 64) {
        fill_random_scan_frame(&cc, core.test_mode(), &mut rng, &mut frame);
        sim.run_batch(&mut frame, 64);
    }
    let fc1 = sim.coverage();
    println!("Fault Coverage 1 (random, {} patterns): {:.2}%", fc1.patterns, fc1.percent());

    // Top-up ATPG for the survivors.
    let survivors = sim.undetected();
    let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
    atpg.pin(core.test_mode(), true);
    let report = atpg.run(&survivors, 13);
    let testable = fc1.total - report.untestable;
    let fc2 = (fc1.detected + report.faults_detected) as f64 / testable.max(1) as f64 * 100.0;
    println!("top-up: {report}");
    println!("Fault Coverage 2 (with {} top-up patterns): {:.2}%", report.patterns.len(), fc2);

    // Final signature sign-off through the real architecture.
    let mut session = SelfTestSession::new(&core, &StumpsConfig::default());
    let result = session.run(&SessionConfig {
        num_patterns: 128,
        top_up: report.patterns.clone(),
        ..Default::default()
    });
    println!(
        "\nsignatures after {} patterns ({} shift cycles):",
        result.patterns_applied, result.shift_cycles
    );
    for (db, sig) in session.architecture().domains().iter().zip(&result.signatures) {
        println!("  domain {} MISR[{}] = {:?}", db.domain, db.misr.width(), sig);
    }
    println!("\nsign-off complete in {:.2?}", t0.elapsed());
}
