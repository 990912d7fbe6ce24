//! Hybrid-BIST reseeding: top-up cubes become LFSR seeds, a seed-
//! scheduled session applies them through the normal scan plumbing, and
//! the storage ledger shows seeds beating stored patterns.
//!
//! ```text
//! cargo run --release --example hybrid_reseed
//! ```

use lbist::atpg::TopUpAtpg;
use lbist::core::{SelfTestSession, SessionConfig, StumpsConfig, WideGradingSession};
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{prepare_core, PrepConfig, TpiMethod};
use lbist::fault::{FaultUniverse, StuckAtSim};
use lbist::reseed::{CubeFate, DomainChannel, ReseedPlanner, ScanLinearMap};
use lbist::sim::CompiledCircuit;

fn main() {
    // 1. A BIST-ready core. Direct phase-shifter channels (no space
    //    expander) keep the chains linearly independent per shift cycle —
    //    the TPG shape reseeding wants.
    let netlist = CpuCoreGenerator::new(CoreProfile::core_x().scaled(300), 7).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 12,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let stumps = StumpsConfig { use_expander: false, ..StumpsConfig::default() };
    let cc = CompiledCircuit::compile(&core.netlist).unwrap();

    // 2. Random phase: find the random-resistant tail.
    let faults = FaultUniverse::stuck_at(&core.netlist).representatives();
    let mut grading = WideGradingSession::<u64>::new(&core, &cc, &stumps);
    let random = grading.run_stuck_at(faults.clone(), 8);
    let survivors: Vec<_> = random.undetected_indices().into_iter().map(|i| faults[i]).collect();
    println!(
        "FC1 = {:.2}% after {} random patterns, {} survivors",
        random.coverage.percent(),
        random.patterns,
        survivors.len()
    );

    // 3. Top-up ATPG emits partially-specified cubes (care-bit masks).
    let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
    atpg.pin(core.test_mode(), true);
    let report = atpg.run(&survivors, 11);
    println!("top-up: {} cubes ({})", report.cubes.len(), report);

    // 4. Solve the cubes into PRPG seeds over the architecture's linear
    //    map, packing compatible cubes into shared seeds.
    let arch = grading.architecture();
    let shift_cycles = arch.max_chain_length().max(1);
    let channels: Vec<DomainChannel<'_>> = arch
        .domains()
        .iter()
        .map(|db| DomainChannel {
            lfsr: db.prpg.lfsr(),
            shifter: db.prpg.shifter(),
            expander: db.prpg.expander(),
            chains: &db.chains,
        })
        .collect();
    let map = ScanLinearMap::build(&channels, shift_cycles);
    let mut planner = ReseedPlanner::new(&map);
    for &pi in cc.inputs() {
        planner.hold(pi, pi == core.test_mode());
    }
    planner.use_fallback_patterns(&report.patterns);
    let plan = planner.plan(&report.cubes, &cc, 0xFEED);
    let seeded = plan.fates.iter().filter(|f| matches!(f, CubeFate::Seeded { .. })).count();
    println!(
        "plan: {seeded}/{} cubes into {} seeds — {} seed bits + {} stored-pattern bits vs {} \
         baseline bits ({:.1}x compression)",
        plan.storage.cubes,
        plan.storage.seeds,
        plan.storage.seed_bits,
        plan.storage.stored_pattern_bits,
        plan.storage.baseline_bits,
        plan.storage.compression_ratio(),
    );

    // 5. A seed-scheduled self-test session: the random budget split
    //    around the reseed windows, signatures compared golden-vs-retest.
    let schedule = plan.schedule(256, 4);
    let mut session = SelfTestSession::new(&core, &stumps);
    let cfg = SessionConfig {
        reseed: Some(schedule.clone()),
        top_up: plan.stored.clone(),
        ..SessionConfig::default()
    };
    let golden = session.run(&cfg);
    let retest = session.run(&cfg);
    println!(
        "seed-scheduled session: {} loads ({} reseeds, {} stored), result = {}",
        golden.patterns_applied,
        schedule.num_seeds(),
        plan.stored.len(),
        if retest.matches(&golden) { "PASS" } else { "FAIL" },
    );
    assert!(retest.matches(&golden));
}
