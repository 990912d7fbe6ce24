//! Ablation A1: fault-sim-guided test points vs COP-based vs none.
//!
//! The paper's §2.1 claim: observation points chosen "based on the results
//! of fault simulation, instead of observability calculation commonly used
//! in previous logic BIST schemes" directly improve final coverage.
//!
//! ```text
//! cargo run --release -p lbist-bench --bin ablation_tpi
//! ```

use lbist_bench::{arg_positive, cli_thread_budget};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{fill_random_scan_frame, prepare_core, PrepConfig, TpiMethod};
use lbist_fault::{FaultUniverse, StuckAtSim};
use lbist_sim::CompiledCircuit;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn coverage_with(
    netlist: &lbist_netlist::Netlist,
    tpi: TpiMethod,
    budget: usize,
    patterns: usize,
) -> f64 {
    let core = prepare_core(
        netlist,
        &PrepConfig { total_chains: 8, wrap_ios: true, obs_budget: budget, tpi, seed: 7 },
    );
    let cc = CompiledCircuit::compile(&core.netlist).expect("compiles");
    let universe = FaultUniverse::stuck_at(&core.netlist);
    let mut sim =
        StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
    if let Some(threads) = cli_thread_budget() {
        sim.set_threads(threads);
    }
    let mut rng = SmallRng::seed_from_u64(1);
    let mut frame = cc.new_frame();
    for _ in 0..patterns.div_ceil(64) {
        fill_random_scan_frame(&cc, core.test_mode(), &mut rng, &mut frame);
        sim.run_batch(&mut frame, 64);
    }
    sim.coverage().percent()
}

fn main() {
    let scale = arg_positive("--scale").unwrap_or(100);
    let patterns = arg_positive("--patterns").unwrap_or(1024);
    let profile = CoreProfile::core_x().scaled(scale);
    println!("=== A1: test point insertion method ({profile}, {patterns} random patterns) ===\n");
    let netlist = CpuCoreGenerator::new(profile, 42).generate();

    println!("{:>10} | {:>10} | {:>10} | {:>14}", "budget", "none", "COP", "fault-sim (paper)");
    let mut rows = Vec::new();
    for budget in [0usize, 8, 32, 96] {
        let none = coverage_with(&netlist, TpiMethod::None, 0, patterns);
        let cop = if budget == 0 {
            none
        } else {
            coverage_with(&netlist, TpiMethod::Cop, budget, patterns)
        };
        let fsg = if budget == 0 {
            none
        } else {
            coverage_with(&netlist, TpiMethod::FaultSimGuided { patterns }, budget, patterns)
        };
        println!("{budget:>10} | {none:>9.2}% | {cop:>9.2}% | {fsg:>13.2}%");
        rows.push((budget, none, cop, fsg));
    }
    println!("\nshape checks:");
    let last = rows.last().unwrap();
    let checks = [
        ("test points raise coverage over none", last.3 > last.1),
        ("fault-sim-guided >= COP at max budget", last.3 >= last.2 - 0.2),
        ("coverage grows with budget (fault-sim)", rows[3].3 >= rows[1].3 - 0.2),
    ];
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
    }
}
