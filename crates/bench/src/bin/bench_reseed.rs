//! Hybrid-BIST reseeding benchmark: stored LFSR seeds vs stored top-up
//! patterns on the Table 1 (FC2) core-generator flow.
//!
//! Runs the shared random phase once per architecture variant, generates
//! top-up cubes with PODEM, then grades two deterministic tails against
//! identical fault lists: the paper's stored-pattern top-up (the FC2
//! baseline) and the reseeded session (cubes packed into LFSR seeds,
//! residual cubes stored). Two variants are measured:
//!
//! * `expander` — the paper's Fig. 1 TPG (narrow phase shifter + space
//!   expander). The expander caps the chains' per-cycle image at
//!   `channels` independent bits, so cubes touching many chains at one
//!   scan position are unsolvable for *any* seed length and fall back to
//!   stored patterns.
//! * `direct` — one phase-shifter channel per chain (no expander), the
//!   reseeding-friendly TPG: full per-cycle rank, so nearly every cube
//!   solves into a seed.
//!
//! Emits `BENCH_reseed.json` with both coverages and storage ledgers;
//! the run aborts if a reseeded tail falls below its baseline coverage
//! or (given any top-up work) fails to store strictly fewer bits.
//!
//! ```text
//! cargo run --release --bin bench_reseed [--scale N] [--random N]
//!           [--chains N] [--prpg N] [--backtrack N]
//!           [--serial | --threads N] [--out PATH] [--metrics-out PATH]
//! ```
//!
//! `--metrics-out PATH` writes a snapshot of the process-global metrics
//! registry after the run — JSON by default, Prometheus text exposition
//! for a `.prom`/`.txt` extension. It holds the worker-pool and
//! resilient-dispatch counters of the sharded grading underneath both
//! tails, and both variants' top-up PODEM statistics: per pass `p`,
//! the gauge `atpg.pass{p}.limit` and the counters
//! `atpg.pass{p}.{candidates,tests,untestable,aborted,discarded}`, plus
//! the backtracks-per-search histogram `atpg.podem.backtracks`.
//! Telemetry never steers the run: the JSON `"digest"` is identical
//! with and without the flag.

use lbist_atpg::{Pattern, TopUpAtpg, TopUpReport};
use lbist_bench::{
    arg_positive, arg_value_strict, cli_metrics_out, cli_thread_budget, write_metrics_snapshot,
};
use lbist_core::{fill_lane_from_prpg, outcome_digest, StumpsConfig, WideGradingSession};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist_fault::{CoverageReport, Fault, StuckAtSim};
use lbist_netlist::NodeId;
use lbist_reseed::{
    DomainChannel, PackStrategy, ReseedPlan, ReseedPlanner, ScanLinearMap, SeedWindow,
};
use lbist_sim::CompiledCircuit;
use lbist_tpg::LfsrPoly;
use std::fmt::Write as _;

struct FlowConfig {
    random_patterns: usize,
    prpg_length: usize,
    use_expander: bool,
    backtrack: usize,
    gen_seed: u64,
    threads: Option<usize>,
}

struct FlowResult {
    fc1: CoverageReport,
    survivors: usize,
    cubes: usize,
    untestable: usize,
    aborted: usize,
    fc2_base: CoverageReport,
    fc2_seed: CoverageReport,
    baseline_bits: usize,
    plan: ReseedPlan,
    /// Seed count / seed bits of the same cubes packed first-fit — the
    /// baseline the best-fit packer must not exceed.
    first_fit_seeds: usize,
    first_fit_seed_bits: usize,
    /// Faults still undetected after each tail — the timing-free identity
    /// of the run, folded into the JSON's `"digest"` field.
    undetected_base: Vec<usize>,
    undetected_seed: Vec<usize>,
}

/// One full FC2 flow: shared random phase, top-up cubes, then the
/// stored-pattern and reseeded tails graded against identical fault
/// lists.
fn run_flow(
    core: &BistReadyCore,
    cc: &CompiledCircuit,
    faults: &[Fault],
    cfg: &FlowConfig,
) -> FlowResult {
    // The shared random phase, graded once through the session; both
    // tails start from its detections.
    let stumps = StumpsConfig {
        prpg_length: cfg.prpg_length,
        use_expander: cfg.use_expander,
        ..StumpsConfig::default()
    };
    let mut session = WideGradingSession::<u64>::new(core, cc, &stumps);
    if let Some(threads) = cfg.threads {
        session.set_threads(threads);
    }
    let random = session.run_stuck_at(faults.to_vec(), cfg.random_patterns / 64);
    let observed = StuckAtSim::observe_all_captures(cc);
    let tail = || {
        let mut sim = StuckAtSim::new(cc, faults.to_vec(), observed.clone());
        if let Some(threads) = cfg.threads {
            sim.set_threads(threads);
        }
        sim.restore(&random.detections, random.patterns);
        sim
    };
    let (mut sim_base, mut sim_seed) = (tail(), tail());
    let survivors: Vec<Fault> =
        random.undetected_indices().into_iter().map(|i| faults[i]).collect();

    // Top-up ATPG: the cubes drive both tails. A generous backtrack
    // budget keeps the aborted tail small — aborted faults are the one
    // place the two tails' incidental detections could diverge.
    let tm = core.test_mode();
    let mut atpg = TopUpAtpg::new(cc, observed.clone());
    atpg.pin(tm, true).set_backtrack_limit(cfg.backtrack);
    let report = atpg.run(&survivors, cfg.gen_seed ^ 0xA7B6);
    record_podem_stats(&report);

    // ---- Baseline tail: every cube as a stored, fully specified
    // pattern, applied with the session's held primary inputs (pads low,
    // test_mode high).
    let held_pattern = |p: &Pattern| -> Pattern {
        let mut held = p.clone();
        for (i, &pi) in cc.inputs().iter().enumerate() {
            held.pi_values[i] = pi == tm;
        }
        held
    };
    let load_pattern = |p: &Pattern, frame: &mut [u64], lane| p.load_into_lane(cc, frame, lane);
    grade_loads(&mut sim_base, cc, tm, &report.patterns, |p, frame, lane| {
        held_pattern(p).load_into_lane(cc, frame, lane)
    });
    let fc2_base = sim_base.coverage();

    // ---- Hybrid tail: pack the same cubes into seeds, continuing the
    // PRPGs from where the random phase left them.
    let mut arch = session.architecture().clone();
    let shift_cycles = arch.max_chain_length().max(1);
    let (plan, first_fit_seeds, first_fit_seed_bits) = {
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
            planner.hold(pi, pi == tm);
        }
        // Stored fallbacks reuse the baseline's filled patterns verbatim,
        // so the two tails differ only where cubes became seeds.
        planner.use_fallback_patterns(&report.patterns);
        let plan = planner.plan(&report.cubes, cc, cfg.gen_seed ^ 0xC0DE);
        // The first-fit baseline over the identical cubes: best-fit must
        // pack at least as tightly (asserted by the caller).
        planner.set_strategy(PackStrategy::FirstFit);
        let ff = planner.plan(&report.cubes, cc, cfg.gen_seed ^ 0xC0DE);
        (plan, ff.storage.seeds, ff.storage.seed_bits)
    };

    // The schedule's reseed windows, applied through the live PRPGs the
    // random phase left off with (single-segment layout keeps the random
    // prefix identical to the baseline's).
    let schedule = plan.schedule(0, 1);
    let seed_windows: Vec<&Vec<Option<_>>> = schedule
        .windows()
        .iter()
        .filter_map(|w| match w {
            SeedWindow::Reseed { seeds } => Some(seeds),
            SeedWindow::Random { .. } => None,
        })
        .collect();
    grade_loads(&mut sim_seed, cc, tm, &seed_windows, |seeds, frame, lane| {
        for (db, seed) in arch.domains_mut().iter_mut().zip(seeds.iter()) {
            if let Some(s) = seed {
                db.prpg.lfsr_mut().set_state(s.clone());
            }
        }
        fill_lane_from_prpg(&mut arch, frame, lane);
    });
    grade_loads(&mut sim_seed, cc, tm, &plan.stored, load_pattern);

    // Patch-up: hybrid flows are fault-sim-driven. The baseline's
    // random-filled patterns can detect *incidental* faults (usually
    // ATPG-aborted ones) that the seed-expanded fills happen to miss;
    // any such fault gets the specific baseline pattern that catches it
    // kept as an extra stored residual, so the hybrid store never trades
    // coverage for bits.
    let mut plan = plan;
    let missing: Vec<Fault> = sim_seed
        .undetected_indices()
        .into_iter()
        .filter(|&i| sim_base.detections()[i] > 0)
        .map(|i| faults[i])
        .collect();
    if !missing.is_empty() {
        let mut probe = StuckAtSim::new(cc, missing, observed);
        for p in &report.patterns {
            if probe.active_faults() == 0 {
                break;
            }
            let held = held_pattern(p);
            let one = std::slice::from_ref(&held);
            if grade_loads(&mut probe, cc, tm, one, load_pattern) > 0 {
                // This pattern recovers at least one missing fault: store
                // it and credit the hybrid grader with it.
                grade_loads(&mut sim_seed, cc, tm, one, load_pattern);
                plan.stored.push(held);
                plan.storage.stored_patterns += 1;
                plan.storage.stored_pattern_bits += plan.storage.bits_per_pattern;
            }
        }
    }
    let fc2_seed = sim_seed.coverage();

    FlowResult {
        fc1: random.coverage,
        survivors: survivors.len(),
        cubes: report.cubes.len(),
        untestable: report.untestable,
        aborted: report.aborted,
        fc2_base,
        fc2_seed,
        baseline_bits: report.patterns.len() * plan.storage.bits_per_pattern,
        plan,
        first_fit_seeds,
        first_fit_seed_bits,
        undetected_base: sim_base.undetected_indices(),
        undetected_seed: sim_seed.undetected_indices(),
    }
}

/// Grades `loads` on `sim`, 64 to a frame: every source word starts at
/// zero with `test_mode` held high, then `load` writes each load into
/// its lane. Returns the faults newly dropped.
fn grade_loads<T>(
    sim: &mut StuckAtSim<'_>,
    cc: &CompiledCircuit,
    test_mode: NodeId,
    loads: &[T],
    mut load: impl FnMut(&T, &mut [u64], usize),
) -> usize {
    let mut dropped = 0;
    for chunk in loads.chunks(64) {
        let mut frame = cc.new_frame();
        frame[test_mode.index()] = !0;
        for (lane, item) in chunk.iter().enumerate() {
            load(item, &mut frame, lane);
        }
        dropped += sim.run_batch(&mut frame, chunk.len());
    }
    dropped
}

/// Adds a top-up run's PODEM statistics to the process-global registry.
fn record_podem_stats(report: &TopUpReport) {
    let registry = lbist_obs::global();
    for (p, pass) in report.passes.iter().enumerate() {
        let name = |field: &str| format!("atpg.pass{}.{field}", p + 1);
        registry.gauge(&name("limit")).set(pass.limit as i64);
        for (field, count) in [
            ("candidates", pass.candidates),
            ("tests", pass.tests),
            ("untestable", pass.untestable),
            ("aborted", pass.aborted),
            ("discarded", pass.discarded),
        ] {
            registry.counter(&name(field)).add(count as u64);
        }
    }
    // The registry buckets by the same log2 rule, so recording each
    // bucket's lowest value carries the counts over exactly (the
    // histogram's sum becomes a lower bound).
    let histogram = registry.histogram("atpg.podem.backtracks");
    for (bucket, &searches) in report.backtracks.iter().enumerate() {
        let lowest = if bucket == 0 { 0 } else { 1u64 << (bucket - 1) };
        for _ in 0..searches {
            histogram.record(lowest);
        }
    }
}

fn json_coverage(c: &CoverageReport) -> String {
    format!(
        "{{\"coverage_percent\": {:.4}, \"detected\": {}, \"total\": {}}}",
        c.percent(),
        c.detected,
        c.total
    )
}

/// Baseline bits over hybrid bits, with the zero-case semantics of
/// [`lbist_reseed::StorageReport::compression_ratio`] (the numerator here
/// is the bench's all-stored baseline, which keeps every top-up pattern,
/// not the ledger's infeasible-excluding one).
fn compression_ratio(baseline_bits: usize, hybrid_bits: usize) -> f64 {
    if hybrid_bits == 0 {
        return if baseline_bits == 0 { 1.0 } else { f64::INFINITY };
    }
    baseline_bits as f64 / hybrid_bits as f64
}

fn json_variant(r: &FlowResult) -> String {
    let storage = &r.plan.storage;
    let reseed_bits = storage.total_bits();
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "    \"fc1\": {},", json_coverage(&r.fc1));
    let _ = writeln!(json, "    \"survivors\": {},", r.survivors);
    let _ = writeln!(json, "    \"top_up_cubes\": {},", r.cubes);
    let _ = writeln!(json, "    \"untestable\": {},", r.untestable);
    let _ = writeln!(json, "    \"aborted\": {},", r.aborted);
    let _ = writeln!(json, "    \"baseline\": {{");
    let _ = writeln!(json, "      \"stored_patterns\": {},", r.cubes);
    let _ = writeln!(json, "      \"bits_per_pattern\": {},", storage.bits_per_pattern);
    let _ = writeln!(json, "      \"stored_bits\": {},", r.baseline_bits);
    let _ = writeln!(json, "      \"fc2\": {}", json_coverage(&r.fc2_base));
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"reseed\": {{");
    let _ = writeln!(json, "      \"packing\": \"best_fit\",");
    let _ = writeln!(json, "      \"seeds\": {},", storage.seeds);
    let _ = writeln!(json, "      \"seed_bits\": {},", storage.seed_bits);
    let _ = writeln!(json, "      \"first_fit_seeds\": {},", r.first_fit_seeds);
    let _ = writeln!(json, "      \"first_fit_seed_bits\": {},", r.first_fit_seed_bits);
    let _ = writeln!(json, "      \"seeded_cubes\": {},", storage.seeded_cubes);
    let _ = writeln!(json, "      \"residual_patterns\": {},", storage.stored_patterns);
    let _ = writeln!(json, "      \"residual_bits\": {},", storage.stored_pattern_bits);
    let _ = writeln!(json, "      \"infeasible_cubes\": {},", storage.infeasible_cubes);
    let _ = writeln!(json, "      \"total_bits\": {reseed_bits},");
    let ratio = compression_ratio(r.baseline_bits, reseed_bits);
    let _ = writeln!(
        json,
        "      \"compression_ratio\": {},",
        // JSON has no Infinity literal: an unbounded ratio (seeds replaced
        // every stored bit) serialises as null.
        if ratio.is_finite() { format!("{ratio:.3}") } else { "null".to_string() }
    );
    let _ = writeln!(json, "      \"fc2\": {}", json_coverage(&r.fc2_seed));
    let _ = writeln!(json, "    }},");
    let _ = writeln!(
        json,
        "    \"coverage_delta_detected\": {},",
        r.fc2_seed.detected as i64 - r.fc2_base.detected as i64
    );
    let _ = writeln!(
        json,
        "    \"storage_saved_bits\": {}",
        r.baseline_bits as i64 - reseed_bits as i64
    );
    let _ = write!(json, "  }}");
    json
}

fn main() {
    let scale = arg_positive("--scale").unwrap_or(300);
    let random_patterns: usize =
        arg_value_strict::<usize>("--random").unwrap_or(1024).div_ceil(64) * 64;
    let chains = arg_positive("--chains").unwrap_or(16);
    let gen_seed: u64 = arg_value_strict("--seed").unwrap_or(7);
    // PRPG length: 19 is the paper's everywhere.
    let prpg_length = arg_positive("--prpg").unwrap_or(19);
    let backtrack: usize = arg_value_strict("--backtrack").unwrap_or(4096);
    let out_path: String =
        arg_value_strict("--out").unwrap_or_else(|| "BENCH_reseed.json".to_string());
    let metrics_out = cli_metrics_out();
    let threads = cli_thread_budget();

    let profile = CoreProfile::core_x().scaled(scale);
    // Chains never cross clock domains, so every domain needs its own.
    if chains < profile.num_domains {
        eprintln!(
            "error: `--chains {chains}` cannot cover the core's {} clock domains",
            profile.num_domains
        );
        std::process::exit(2);
    }
    println!("generating {} (scale {scale})...", profile.name);
    let netlist = CpuCoreGenerator::new(profile, gen_seed).generate();
    let core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: chains,
            obs_budget: 0,
            tpi: TpiMethod::None,
            ..PrepConfig::default()
        },
    );
    // The expander TPG drives a domain's chains from at most `degree`
    // PRPG channels through one- and two-input XOR combinations, so a
    // short PRPG cannot feed the widest domain (`SpaceExpander::new`).
    let degree = LfsrPoly::nearest_maximal(prpg_length).degree();
    let domain_chains = core.chains.chains().chunk_by(|a, b| a.domain == b.domain);
    let widest_domain = domain_chains.map(<[_]>::len).max().unwrap_or(0);
    if widest_domain > degree + degree * (degree - 1) / 2 {
        eprintln!(
            "error: `--prpg {prpg_length}` is too short to expand into the {widest_domain} chains \
             of the widest clock domain"
        );
        std::process::exit(2);
    }
    let cc = CompiledCircuit::compile(&core.netlist).expect("core compiles");
    let universe = lbist_fault::FaultUniverse::stuck_at(&core.netlist);
    let faults = universe.representatives();
    println!(
        "core: {} gates, {} FFs ({} scan cells), {} collapsed stuck-at faults",
        core.netlist.gate_count(),
        core.netlist.dffs().len(),
        core.chains.total_cells(),
        faults.len()
    );

    let mut results = Vec::new();
    for (name, use_expander) in [("expander", true), ("direct", false)] {
        println!("\n== {name} TPG ({random_patterns} random patterns, {prpg_length}-bit PRPGs) ==");
        let r = run_flow(
            &core,
            &cc,
            &faults,
            &FlowConfig {
                random_patterns,
                prpg_length,
                use_expander,
                backtrack,
                gen_seed,
                threads,
            },
        );
        let storage = &r.plan.storage;
        println!(
            "FC1 = {:.2}% ({} survivors); top-up: {} cubes, {} untestable, {} aborted",
            r.fc1.percent(),
            r.survivors,
            r.cubes,
            r.untestable,
            r.aborted
        );
        println!(
            "plan: {} seeds ({} bits) + {} stored patterns ({} bits), {} infeasible",
            storage.seeds,
            storage.seed_bits,
            storage.stored_patterns,
            storage.stored_pattern_bits,
            storage.infeasible_cubes
        );
        println!(
            "FC2 baseline = {:.2}% with {} stored bits; FC2 reseeded = {:.2}% with {} bits \
             ({:.1}x compression)",
            r.fc2_base.percent(),
            r.baseline_bits,
            r.fc2_seed.percent(),
            storage.total_bits(),
            compression_ratio(r.baseline_bits, storage.total_bits()),
        );

        // The hybrid-BIST contract, enforced at bench time: no coverage
        // regression, strictly fewer stored bits (when there was anything
        // to top up at all).
        assert!(
            r.fc2_seed.detected >= r.fc2_base.detected,
            "{name}: reseeded session lost coverage: {} < {} detected",
            r.fc2_seed.detected,
            r.fc2_base.detected
        );
        if r.cubes > 0 {
            assert!(
                storage.total_bits() < r.baseline_bits,
                "{name}: reseeding must store strictly fewer bits: {} >= {}",
                storage.total_bits(),
                r.baseline_bits
            );
        }
        // The packing satellite's contract: best-fit never needs more
        // seeds than the first-fit baseline on the bench cores.
        println!(
            "packing: best-fit {} seeds vs first-fit {} seeds",
            storage.seeds, r.first_fit_seeds
        );
        assert!(
            storage.seeds <= r.first_fit_seeds,
            "{name}: best-fit used more seeds than first-fit: {} > {}",
            storage.seeds,
            r.first_fit_seeds
        );
        results.push((name, r));
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"reseed\",");
    let _ = writeln!(
        json,
        "  \"core\": {{\"profile\": \"core_x\", \"scale\": {scale}, \"gates\": {}, \"ffs\": {}, \
         \"scan_cells\": {}, \"stuck_faults\": {}}},",
        core.netlist.gate_count(),
        core.netlist.dffs().len(),
        core.chains.total_cells(),
        faults.len()
    );
    let _ = writeln!(json, "  \"random_patterns\": {random_patterns},");
    let _ = writeln!(json, "  \"prpg_length\": {prpg_length},");
    // Timing-free identity of the whole run: both variants' undetected
    // sets after each tail, folded into one word. Two invocations on the
    // same inputs must produce the same digest regardless of thread
    // budget or wall-clock, so comparison scripts can diff runs on this
    // one line.
    let mut digest = lbist_ckpt::Fnv64::new();
    for (name, r) in &results {
        digest.write(name.as_bytes());
        digest.write_u64(outcome_digest(&r.undetected_base, &[]));
        digest.write_u64(outcome_digest(&r.undetected_seed, &[]));
    }
    let _ = writeln!(json, "  \"digest\": {},", digest.finish());
    for (i, (name, r)) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "  \"{name}\": {}{comma}", json_variant(r));
    }
    let _ = writeln!(json, "}}");

    // Atomic replace (tmp + fsync + rename): a crash mid-write can never
    // leave a torn BENCH_reseed.json behind for a comparison script.
    lbist_ckpt::write_atomic(std::path::Path::new(&out_path), json.as_bytes())
        .expect("write benchmark JSON");
    println!("\n{json}");
    println!("wrote {out_path}");
    if let Some(path) = &metrics_out {
        write_metrics_snapshot(path, &lbist_obs::global().snapshot());
    }
}
