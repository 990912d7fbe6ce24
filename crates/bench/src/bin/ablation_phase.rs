//! Ablation A4: phase shifter on vs off.
//!
//! Without a phase shifter, adjacent chains receive one-cycle-shifted
//! copies of the same LFSR stream: neighbouring scan cells load nearly
//! identical values and random coverage suffers. The synthesized shifter
//! gives each chain a stream displaced by a guaranteed number of cycles.
//!
//! ```text
//! cargo run --release -p lbist-bench --bin ablation_phase
//! ```

use lbist_bench::{arg_positive, cli_thread_budget};
use lbist_core::{fill_frame_from_prpg, StumpsArchitecture, StumpsConfig};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
use lbist_fault::{FaultUniverse, StuckAtSim};
use lbist_sim::CompiledCircuit;

fn main() {
    let scale = arg_positive("--scale").unwrap_or(100);
    let batches = arg_positive("--batches").unwrap_or(16);
    let profile = CoreProfile::core_x().scaled(scale);
    println!("=== A4: phase shifter ablation ({profile}) ===\n");
    let netlist = CpuCoreGenerator::new(profile, 11).generate();
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
    let universe = FaultUniverse::stuck_at(&core.netlist);

    let mut results = Vec::new();
    for (label, use_ps) in [("raw LFSR taps", false), ("phase shifter (paper)", true)] {
        let config = StumpsConfig { use_phase_shifter: use_ps, ..StumpsConfig::default() };
        let mut arch = StumpsArchitecture::build(&core, &config);

        // Inter-chain correlation: worst-case agreement between adjacent
        // chains over small relative cell offsets. Raw LFSR taps make
        // chain c+1 a one-cycle-delayed copy of chain c, which shows up as
        // ~100% agreement at offset ±1; a phase shifter keeps every offset
        // near 50%.
        let mut corr = 0.0f64;
        let mut sim =
            StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
        if let Some(threads) = cli_thread_budget() {
            sim.set_threads(threads);
        }
        let mut frame = cc.new_frame();
        for _ in 0..batches {
            fill_frame_from_prpg(&mut arch, &core, &mut frame);
            for db in arch.domains() {
                for pair in db.chains.windows(2) {
                    for off in -2i64..=2 {
                        let mut agree = 0usize;
                        let mut total = 0usize;
                        let n = pair[0].cells.len().min(pair[1].cells.len());
                        for i in 0..n {
                            let j = i as i64 + off;
                            if j < 0 || j >= pair[1].cells.len() as i64 {
                                continue;
                            }
                            let a = frame[pair[0].cells[i].index()];
                            let b = frame[pair[1].cells[j as usize].index()];
                            agree += (!(a ^ b)).count_ones() as usize;
                            total += 64;
                        }
                        if total >= 256 {
                            corr = corr.max(agree as f64 / total as f64);
                        }
                    }
                }
            }
            sim.run_batch(&mut frame, 64);
        }
        let cov = sim.coverage().percent();
        println!(
            "{label:<24} worst adjacent-chain agreement {:>6.1}%   coverage {:>6.2}% ({} patterns)",
            corr * 100.0,
            cov,
            batches * 64
        );
        results.push((corr, cov));
    }

    println!("\nshape checks:");
    let checks = [
        (
            "phase shifter decorrelates adjacent chains (worst agreement -> ~50%)",
            results[1].0 < 0.65 && results[0].0 > 0.9,
        ),
        ("decorrelation does not hurt coverage", results[1].1 >= results[0].1 - 0.5),
    ];
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
    }
}
