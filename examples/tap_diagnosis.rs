//! Driving BIST through Boundary-Scan and diagnosing a failing core.
//!
//! The paper's pure-BIST interface is three pins plus a TAP: start
//! self-test over JTAG, poll `Finish`, read `Result`, and on failure
//! download MISR snapshots to localise the first failing pattern window.
//!
//! ```text
//! cargo run --release --example tap_diagnosis
//! ```

use lbist::core::{
    diagnose_first_failing_interval, JtagBist, SelfTestSession, SessionConfig, StumpsConfig,
    TapBackend, TapController, TapInstruction,
};
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{prepare_core, PrepConfig, TpiMethod};
use lbist::fault::{Fault, FaultKind};

fn main() {
    let netlist = CpuCoreGenerator::new(CoreProfile::core_x().scaled(200), 99).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 8,
            wrap_ios: true,
            obs_budget: 0,
            tpi: TpiMethod::None,
            seed: 4,
        },
    );
    let session = SelfTestSession::new(&core, &StumpsConfig::default());
    let cfg = SessionConfig { num_patterns: 48, snapshot_every: 8, ..Default::default() };

    println!("=== golden pass over JTAG ===");
    // The chip's BIST engine behind the TAP: the first `Start` records
    // the golden signatures, later runs compare against them.
    let mut tap = TapController::new(JtagBist::new(session, cfg.clone()));

    // Start BIST: IR <- LBIST_START, DR <- 1.
    tap.load_instruction(TapInstruction::LbistStart);
    tap.shift_dr(&[true]);
    // Poll status.
    tap.load_instruction(TapInstruction::LbistStatus);
    let status = tap.shift_dr(&[false, false]);
    println!("finish = {}, result = {} (golden recorded)", status[0], status[1]);

    // Download the signature.
    tap.load_instruction(TapInstruction::LbistSignature);
    let n = tap.backend().signature_bits().len();
    let sig = tap.shift_dr(&vec![false; n]);
    let ones = sig.iter().filter(|&&b| b).count();
    println!("downloaded {} signature bits ({} ones)", sig.len(), ones);

    println!("\n=== defective chip ===");
    let site = core.netlist.fanins(core.netlist.dffs()[1])[0];
    let fault = Fault::stem(site, FaultKind::StuckAt1);
    println!("injecting {fault}");
    let golden_snapshot_run = {
        let mut s = SelfTestSession::new(&core, &StumpsConfig::default());
        s.run(&cfg)
    };
    tap.backend_mut().inject(Some(fault));
    tap.load_instruction(TapInstruction::LbistStart);
    tap.shift_dr(&[true]);
    tap.load_instruction(TapInstruction::LbistStatus);
    let status = tap.shift_dr(&[false, false]);
    println!("finish = {}, result = {}", status[0], status[1]);

    // Diagnosis: re-run with snapshots and bracket the first failure.
    let faulty_run = {
        let mut s = SelfTestSession::new(&core, &StumpsConfig::default());
        let mut c = cfg.clone();
        c.injected_fault = Some(fault);
        s.run(&c)
    };
    match diagnose_first_failing_interval(&golden_snapshot_run, &faulty_run, 8) {
        Some(report) => println!("diagnosis: {report}"),
        None => println!("diagnosis: no divergence (aliased)"),
    }
}
