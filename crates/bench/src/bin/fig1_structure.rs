//! Reproduces **Fig. 1**: the general LBIST structure, instantiated and
//! exercised end to end (Start → self-test → Finish/Result, plus the
//! Boundary-Scan path).
//!
//! ```text
//! cargo run --release -p lbist-bench --bin fig1_structure
//! ```

use lbist_core::{
    BistController, BistPhase, ControllerConfig, SelfTestSession, SessionConfig, StumpsConfig,
    PHASE_SEPARATION,
};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
use lbist_fault::{Fault, FaultKind};

fn main() {
    let profile = CoreProfile::core_x().scaled(100);
    println!("=== Fig. 1: general LBIST structure ({profile}) ===\n");
    let netlist = CpuCoreGenerator::new(profile, 1).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 12,
            wrap_ios: true,
            obs_budget: 8,
            tpi: TpiMethod::FaultSimGuided { patterns: 512 },
            seed: 9,
        },
    );
    let session = SelfTestSession::new(&core, &StumpsConfig::default());

    // The block diagram, as instantiated.
    println!("TPG block / ODC block (one pair per clock domain):");
    for db in session.architecture().domains() {
        println!(
            "  clk{}: PRPG[{}] -> PS({} ch, sep {}) -> SpE({} -> {}) -> {} chains -> {} -> MISR[{}]",
            db.domain.index(),
            db.prpg.lfsr().len(),
            db.prpg.num_chains().min(db.chains.len()),
            PHASE_SEPARATION,
            db.compactor.num_chains(),
            db.chains.len(),
            db.chains.len(),
            if db.compactor.is_passthrough() {
                "direct".to_string()
            } else {
                format!("SpC({} -> {})", db.compactor.num_chains(), db.compactor.num_outputs())
            },
            db.misr.width(),
        );
    }
    println!(
        "BIST-ready core: {} FFs in {} chains (max length {}), {} observation points, X-bounded: {}",
        core.netlist.dffs().len(),
        core.chains.num_chains(),
        core.chains.max_chain_length(),
        core.observation_cells.len(),
        lbist_dft::XBounding::verify(&core.netlist, core.test_mode()),
    );

    // Controller walk: Start -> ... -> Finish.
    let mut controller = BistController::new(ControllerConfig {
        shift_cycles: core.chains.max_chain_length().max(1),
        num_patterns: 32,
        num_domains: core.netlist.num_domains(),
    });
    println!("\ncontroller: phase = {:?} (waiting for Start)", controller.phase());
    controller.start();
    let mut transitions = vec![(0usize, BistPhase::Load)];
    let mut last = BistPhase::Load;
    for tick in 0..controller.total_ticks() {
        let phase = controller.step();
        if phase != last {
            transitions.push((tick + 1, phase));
            last = phase;
        }
    }
    println!("controller trace ({} ticks):", controller.total_ticks());
    for (tick, phase) in transitions.iter().take(6) {
        println!("  tick {tick:>6}: -> {phase:?}");
    }
    println!(
        "  ... Finish = {}, patterns done = {}",
        controller.finish(),
        controller.patterns_done()
    );

    // The self-test itself: golden vs defective.
    let mut session = session;
    let cfg = SessionConfig { num_patterns: 32, ..Default::default() };
    let golden = session.run(&cfg);
    println!(
        "\nself-test: {} patterns, {} shift cycles",
        golden.patterns_applied, golden.shift_cycles
    );
    for (db, sig) in session.architecture().domains().iter().zip(&golden.signatures) {
        let ones = (0..sig.len()).filter(|&i| sig.get(i)).count();
        println!("  clk{} signature: {} bits, {} ones", db.domain.index(), sig.len(), ones);
    }
    let retest = session.run(&cfg);
    println!(
        "healthy rerun   -> Result = {}",
        if retest.matches(&golden) { "PASS" } else { "FAIL" }
    );
    // Inject defects on a few capture nets until one is excited by this
    // pattern set (a stuck-at matching a net's idle polarity needs the
    // right stimulus, exactly like silicon).
    let mut verdict = None;
    for i in 0..core.netlist.dffs().len().min(16) {
        let site = core.netlist.fanins(core.netlist.dffs()[i])[0];
        for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1] {
            let fault = Fault::stem(site, kind);
            let mut bad = cfg.clone();
            bad.injected_fault = Some(fault);
            let faulty = session.run(&bad);
            if !faulty.matches(&golden) {
                let diverged = faulty
                    .signatures
                    .iter()
                    .zip(&golden.signatures)
                    .filter(|(a, b)| a != b)
                    .count();
                verdict = Some((fault, diverged));
                break;
            }
        }
        if verdict.is_some() {
            break;
        }
    }
    match verdict {
        Some((fault, diverged)) => println!(
            "defective rerun -> Result = FAIL ({} of {} MISRs diverged, injected {fault})",
            diverged,
            golden.signatures.len()
        ),
        None => println!("defective rerun -> Result = PASS [MISS: no injected defect caught]"),
    }
}
