//! Reproduces **Table 1** of the paper: the full flow on Core X and Core Y.
//!
//! ```text
//! cargo run --release -p lbist-bench --bin table1            # scaled (default /32, /48)
//! cargo run --release -p lbist-bench --bin table1 -- --scale 16
//! cargo run --release -p lbist-bench --bin table1 -- --full  # paper scale (hours)
//! cargo run --release -p lbist-bench --bin table1 -- --patterns 4096
//! ```
//!
//! Absolute numbers differ from the paper (synthetic cores, scaled sizes,
//! 2026 laptop vs 2005 server) — the *shape* is the reproduction target:
//! FC1 in the low-to-mid 90s from random patterns with observation points,
//! a small top-up set lifting FC2 by a few points, Core Y needing more
//! patterns/time than Core X, per-domain PRPG/MISR pairs sized as in the
//! paper (19-bit PRPGs, compactor-less MISRs as wide as the chain count).

use lbist_bench::{
    arg_flag, arg_positive, arg_value_strict, format_misr_widths, run_table1_flow, Table1Column,
};
use lbist_cores::CoreProfile;

struct PaperColumn {
    gates: &'static str,
    ffs: &'static str,
    chains: &'static str,
    max_chain: &'static str,
    domains: &'static str,
    freq: &'static str,
    prpgs: &'static str,
    misrs: &'static str,
    tps: &'static str,
    patterns: &'static str,
    fc1: &'static str,
    cpu: &'static str,
    overhead: &'static str,
    topup: &'static str,
    fc2: &'static str,
}

const PAPER_X: PaperColumn = PaperColumn {
    gates: "218.1K",
    ffs: "10.3K",
    chains: "100",
    max_chain: "104",
    domains: "2",
    freq: "250MHz",
    prpgs: "2 x 19",
    misrs: "1: 19 / 1: 99",
    tps: "1K (Obv-Only)",
    patterns: "20K",
    fc1: "93.82%",
    cpu: "25m43s",
    overhead: "4.4%",
    topup: "135",
    fc2: "97.12%",
};

const PAPER_Y: PaperColumn = PaperColumn {
    gates: "633.4K",
    ffs: "33.2K",
    chains: "106",
    max_chain: "345",
    domains: "8",
    freq: "330MHz",
    prpgs: "8 x 19",
    misrs: "7: 19 / 1: 80",
    tps: "1K (Obv-Only)",
    patterns: "20K",
    fc1: "93.22%",
    cpu: "2h26m48s",
    overhead: "3.2%",
    topup: "528",
    fc2: "97.58%",
};

fn print_core(name: &str, paper: &PaperColumn, ours: &Table1Column) {
    let fmt_dur = |d: std::time::Duration| {
        let s = d.as_secs();
        if s >= 60 {
            format!("{}m{:02}s", s / 60, s % 60)
        } else {
            format!("{:.1}s", d.as_secs_f64())
        }
    };
    println!("--- {name} ({}) ---", ours.profile.name);
    println!("{:<22} {:>16} {:>22}", "row", "paper", "measured");
    let row = |label: &str, paper: &str, ours: String| {
        println!("{label:<22} {paper:>16} {ours:>22}");
    };
    row("Gate Count", paper.gates, format!("{:.1}K", ours.gates as f64 / 1000.0));
    row("# of FFs", paper.ffs, format!("{:.1}K", ours.ffs as f64 / 1000.0));
    row("# of Scan Chains", paper.chains, ours.chains.to_string());
    row("Max. Chain Length", paper.max_chain, ours.max_chain.to_string());
    row("# of Clock Domains", paper.domains, ours.domains.to_string());
    row("Frequency", paper.freq, format!("{:.0}MHz", ours.profile.domain_freq_mhz(0)));
    row("# PRPGs x Length", paper.prpgs, format!("{} x {}", ours.prpgs.0, ours.prpgs.1));
    row("MISR Lengths", paper.misrs, format_misr_widths(&ours.misr_widths));
    row("# of Test Points", paper.tps, format!("{} (Obv-Only)", ours.test_points));
    row("# Random Patterns", paper.patterns, ours.random_patterns.to_string());
    row("Fault Coverage 1", paper.fc1, format!("{:.2}%", ours.fc1));
    row("CPU Time", paper.cpu, fmt_dur(ours.cpu_time));
    row("Overhead", paper.overhead, format!("{:.1}%", ours.overhead));
    row("# of Top-Up Patterns", paper.topup, ours.top_up_patterns.to_string());
    row("Fault Coverage 2", paper.fc2, format!("{:.2}%", ours.fc2));
    // Not in the paper: where the top-up targets no pattern detects went.
    row("Untestable / Aborted", "-", format!("{} / {}", ours.untestable, ours.aborted));
    row("Unconfirmed Cubes", "-", ours.unconfirmed.to_string());
    println!();
}

fn main() {
    let full = arg_flag("--full");
    let scale_override = arg_positive("--scale");
    let (scale_x, scale_y) = if full {
        (1, 1)
    } else {
        let s = scale_override.unwrap_or(32);
        (s, s.max(48))
    };
    let patterns: usize =
        arg_value_strict("--patterns").unwrap_or(if full { 20_000 } else { 2_048 });
    let obs_budget: usize =
        arg_value_strict("--obs").unwrap_or(if full { 1_000 } else { 1_000 / scale_x.max(8) });

    println!("=== Table 1 reproduction ===");
    println!(
        "scale: X 1/{scale_x}, Y 1/{scale_y}; {patterns} random patterns; {obs_budget} observation points"
    );
    println!("(chain COUNT kept at paper values; chain LENGTH shrinks with the scaled FF count)\n");

    let x = run_table1_flow(&CoreProfile::core_x().scaled(scale_x), 42, patterns, obs_budget, 100);
    print_core("Core X", &PAPER_X, &x);

    let y = run_table1_flow(&CoreProfile::core_y().scaled(scale_y), 43, patterns, obs_budget, 106);
    print_core("Core Y", &PAPER_Y, &y);

    println!("shape checks:");
    let checks = [
        ("FC1 in the 90s band (X)", x.fc1 > 88.0 && x.fc1 < 100.0),
        ("FC2 > FC1 (X)", x.fc2 > x.fc1),
        ("FC2 > FC1 (Y)", y.fc2 > y.fc1),
        ("top-up count << random budget (X)", x.top_up_patterns * 20 < x.random_patterns),
        ("Y needs more CPU time than X", y.cpu_time > x.cpu_time),
        ("Y has more domains, PRPGs and MISRs", y.prpgs.0 > x.prpgs.0),
        ("some MISR wider than the 19-bit minimum", x.misr_widths.iter().any(|&w| w > 19)),
        // At reduced scale the fixed BIST blocks (controller, 19-bit
        // minimum PRPG/MISRs) weigh more against the shrunken core; the
        // paper-scale figure lands in the single digits (see --full).
        ("overhead bounded (scaled regime)", x.overhead < 25.0),
    ];
    let mut pass = true;
    for (label, ok) in checks {
        println!("  [{}] {label}", if ok { "ok" } else { "MISS" });
        pass &= ok;
    }
    std::process::exit(if pass { 0 } else { 1 });
}
