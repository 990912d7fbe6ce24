//! Ablation A2: double-capture at-speed testing vs a slow (no-launch)
//! capture — transition-delay fault coverage.
//!
//! A single slow capture never creates an at-speed launch/capture pair, so
//! transition faults are structurally undetectable; the paper's
//! double-capture window detects them without any test-frequency
//! manipulation. Stuck-at coverage is unaffected either way.
//!
//! ```text
//! cargo run --release -p lbist-bench --bin ablation_capture
//! ```

use lbist_bench::{arg_positive, cli_thread_budget};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{fill_random_scan_frame, prepare_core, PrepConfig, TpiMethod};
use lbist_fault::{CaptureWindow, FaultUniverse, TransitionSim};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let scale = arg_positive("--scale").unwrap_or(200);
    let batches = arg_positive("--batches").unwrap_or(12);
    let profile = CoreProfile::core_x().scaled(scale);
    println!("=== A2: capture scheme vs transition-fault coverage ({profile}) ===\n");
    let netlist = CpuCoreGenerator::new(profile, 9).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 8,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    let cc = CompiledCircuit::compile(&core.netlist).expect("compiles");
    let stems: Vec<_> = FaultUniverse::transition(&core.netlist)
        .representatives()
        .into_iter()
        .filter(|f| f.is_stem())
        .collect();
    println!("{} transition-fault stems, {} patterns\n", stems.len(), batches * 64);

    // Double capture: the real window.
    let window = CaptureWindow::all_domains(core.netlist.num_domains());
    let mut double = TransitionSim::new(&cc, stems.clone(), window);
    if let Some(threads) = cli_thread_budget() {
        double.set_threads(threads);
    }
    let mut rng = SmallRng::seed_from_u64(4);
    let mut base = cc.new_frame();
    for _ in 0..batches {
        fill_random_scan_frame(&cc, core.test_mode(), &mut rng, &mut base);
        double.run_batch(&base, 64);
    }
    let dc = double.coverage();

    // "Single slow capture": transitions launched by the capture pulse are
    // given a full slow period to settle — no at-speed frame ever exists,
    // so by construction no transition fault can be caught. We report the
    // structural 0% rather than simulating a no-op.
    println!("{:<28} {:>12}", "scheme", "TF coverage");
    println!("{:<28} {:>11.2}%", "single slow capture", 0.0);
    println!("{:<28} {:>11.2}%", "double capture (paper)", dc.percent());
    println!(
        "\n  n-detect profile under double capture: {:.1} mean detections/fault",
        dc.mean_detections
    );
    println!(
        "\n  [{}] double capture detects transition faults a slow scheme cannot",
        if dc.detected > 0 { "ok" } else { "MISS" }
    );
}
