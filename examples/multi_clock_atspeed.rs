//! Multi-clock at-speed testing: Fig. 2 waveforms and transition-fault
//! grading through the double-capture window.
//!
//! ```text
//! cargo run --release --example multi_clock_atspeed
//! ```

use lbist::clock::{CaptureTimingPlan, ClockGatingBlock, DomainTimingPlan, SkewModel};
use lbist::cores::{CoreProfile, CpuCoreGenerator};
use lbist::dft::{fill_random_scan_frame, prepare_core, PrepConfig, TpiMethod};
use lbist::fault::{CaptureWindow, FaultUniverse, TransitionSim};
use lbist::netlist::DomainId;
use lbist::sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    // --- Fig. 2: the clock gating block's waveforms -----------------------
    let plan = CaptureTimingPlan::with_domains(
        vec![
            DomainTimingPlan::from_mhz(DomainId::new(0), 250.0),
            DomainTimingPlan::from_mhz(DomainId::new(1), 330.0),
        ],
        4, // shift cycles drawn in the chart
    );
    let waves = ClockGatingBlock::generate(&plan);
    println!("=== capture window waveforms (Fig. 2) ===");
    println!("{}", waves.render(waves.end_ps / 110));
    let skew = SkewModel::uniform(2, plan.d3_ps / 4);
    match plan.verify(&skew) {
        Ok(()) => println!("at-speed properties VERIFIED: two pulses per domain at the"),
        Err(v) => println!("timing violation: {v}"),
    }
    println!("functional period (d2/d4), slow SE, d3 > max skew\n");

    // --- transition faults through the double-capture window --------------
    let profile = CoreProfile::core_y().scaled(400); // 8 domains, small
    println!("=== transition-fault grading on {profile} ===");
    let netlist = CpuCoreGenerator::new(profile, 21).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: 16,
            wrap_ios: true,
            obs_budget: 0,
            tpi: TpiMethod::None,
            seed: 5,
        },
    );
    let cc = CompiledCircuit::compile(&core.netlist).expect("compiles");
    let universe = FaultUniverse::transition(&core.netlist);
    let stems: Vec<_> = universe.representatives().into_iter().filter(|f| f.is_stem()).collect();
    println!("{} transition fault stems", stems.len());

    let window = CaptureWindow::all_domains(core.netlist.num_domains());
    let mut sim = TransitionSim::new(&cc, stems, window);
    let mut rng = SmallRng::seed_from_u64(77);
    let mut base = cc.new_frame();
    for batch in 0..16 {
        fill_random_scan_frame(&cc, core.test_mode(), &mut rng, &mut base);
        sim.run_batch(&base, 64);
        if (batch + 1) % 4 == 0 {
            let cov = sim.coverage();
            println!("  after {:>4} patterns: TF coverage {:.2}%", cov.patterns, cov.percent());
        }
    }
    let cov = sim.coverage();
    println!("\ndouble-capture transition coverage: {:.2}% of {} faults", cov.percent(), cov.total);
    println!("(a single-capture scheme detects 0% — no launch/capture pair exists)");
}
