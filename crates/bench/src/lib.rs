//! Shared harness code for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/` that
//! regenerates it:
//!
//! | binary | artifact |
//! |---|---|
//! | `table1` | Table 1 (both cores, scaled by default, `--full` for paper scale) |
//! | `fig1_structure` | Fig. 1 — architecture wiring + Start/Finish/Result |
//! | `fig2_timing` | Fig. 2 — double-capture waveforms + property checks |
//! | `fig3_skew` | Fig. 3 — shift-path skew sweep, retiming/compactor fixes |
//! | `ablation_tpi` | fault-sim-guided vs COP vs no test points |
//! | `ablation_capture` | double-capture vs no-launch transition coverage |
//! | `ablation_domains` | per-domain PRPG–MISR pairs vs one shared pair |
//! | `ablation_phase` | phase shifter on/off: correlation + coverage |
//! | `ablation_compactor` | compactor vs compactor-less MISR sizing/slack |
//!
//! This library holds the flow they share: PRPG-faithful pattern
//! generation, the Table 1 measurement pipeline, and argument parsing.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use lbist_atpg::TopUpAtpg;
use lbist_core::{CheckpointSpec, RunControl, StumpsArchitecture, StumpsConfig};
use lbist_cores::{CoreProfile, CpuCoreGenerator};
use lbist_dft::{prepare_core, BistReadyCore, PrepConfig, TpiMethod};
use lbist_exec::CancelToken;
use lbist_fault::{CoverageReport, Fault, FaultUniverse, StuckAtSim};
use lbist_sim::CompiledCircuit;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The PRPG frame fills moved into `lbist-core` (`lbist_core::fill`)
/// when the grading pipeline went lane-width generic — they are
/// architecture properties, not bench harness code. Re-exported here so
/// the experiment binaries and property tests keep one import path.
pub use lbist_core::{
    fill_frame_from_prpg, fill_frames_from_prpg_wide, fill_lane_from_prpg,
    fill_wide_frame_from_prpg,
};

/// The verdict digest moved into `lbist-core` when the serve crate's
/// preempt→resume equivalence checks started needing it; re-exported so
/// the experiment binaries and CLI tests keep one import path.
pub use lbist_core::outcome_digest;

/// Exit status of a *deliberately* interrupted benchmark run: the batch
/// budget (`--kill-after-batches`) ran out, the checkpoint was saved,
/// and no verdict JSON was written. Distinct from success (0) and from
/// usage/runtime errors (2) so CI scripts and the `fault_tolerant_cli`
/// tests can assert the interruption was the planned one — every binary
/// with a kill knob exits with this, never a hardcoded literal.
pub const INTERRUPTED_EXIT_CODE: i32 = 86;

/// One core's measured Table 1 column.
#[derive(Clone, Debug)]
pub struct Table1Column {
    /// Profile used (after scaling).
    pub profile: CoreProfile,
    /// Measured gate count.
    pub gates: usize,
    /// Measured flip-flop count (after DFT insertion).
    pub ffs: usize,
    /// Scan chains.
    pub chains: usize,
    /// Longest chain.
    pub max_chain: usize,
    /// Clock domains.
    pub domains: usize,
    /// PRPG count and length.
    pub prpgs: (usize, usize),
    /// MISR widths per domain.
    pub misr_widths: Vec<usize>,
    /// Observation points inserted.
    pub test_points: usize,
    /// Random patterns graded.
    pub random_patterns: usize,
    /// Fault coverage after the random phase (percent, collapsed).
    pub fc1: f64,
    /// Wall-clock of the grading + TPI + ATPG pipeline.
    pub cpu_time: Duration,
    /// Area overhead percent (core DFT + BIST hardware).
    pub overhead: f64,
    /// Top-up pattern count.
    pub top_up_patterns: usize,
    /// Coverage including top-up patterns (percent of testable faults).
    pub fc2: f64,
    /// Top-up targets PODEM proved untestable (and no pattern detects).
    pub untestable: usize,
    /// Top-up targets abandoned at the backtrack limit (and undetected).
    pub aborted: usize,
    /// Top-up targets PODEM resolved with a cube that no pattern detects.
    pub unconfirmed: usize,
}

/// A core after the Table 1 flow's random phase: the state top-up ATPG
/// starts from.
#[derive(Debug)]
pub struct RandomPhase {
    /// The DFT-prepared core, re-stitched to the paper's chain count.
    pub core: BistReadyCore,
    /// The compiled core.
    pub cc: CompiledCircuit,
    /// The STUMPS architecture the random patterns came through.
    pub arch: StumpsArchitecture,
    /// Coverage after the random phase (over all collapsed faults).
    pub fc1: CoverageReport,
    /// Random patterns applied (whole 64-pattern batches).
    pub patterns: usize,
    /// The faults the random phase left undetected: top-up's targets.
    pub survivors: Vec<Fault>,
}

/// Runs the Table 1 pipeline up to and including the random phase:
/// generate → X-bound/wrap → fault-sim-guided TPI → stitch/compile →
/// PRPG random phase. Arguments as for [`run_table1_flow`].
pub fn run_random_phase(
    profile: &CoreProfile,
    seed: u64,
    random_patterns: usize,
    obs_budget: usize,
    target_chains: usize,
) -> RandomPhase {
    let netlist = CpuCoreGenerator::new(profile.clone(), seed).generate();
    let mut core = prepare_core(
        &netlist,
        &PrepConfig {
            total_chains: profile.num_chains,
            wrap_ios: true,
            obs_budget,
            tpi: TpiMethod::FaultSimGuided { patterns: (random_patterns / 4).max(256) },
            seed,
        },
    );
    // Re-stitch with the paper's (unscaled) chain count: chain count is a
    // test-bandwidth choice that does not shrink with the core, so keeping
    // it preserves the architecture rows (e.g. a main-domain MISR wider
    // than the chain count); only the chain *length* scales down.
    let chains_needed = target_chains.max(core.netlist.num_domains());
    core.chains = lbist_dft::ScanChains::stitch(&core.netlist, chains_needed);
    let cc = CompiledCircuit::compile(&core.netlist).expect("core compiles");
    let universe = FaultUniverse::stuck_at(&core.netlist);
    let mut sim =
        StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
    // Rayon-sharded PPSFP by default; `--serial` / `--threads N` override.
    if let Some(threads) = cli_thread_budget() {
        sim.set_threads(threads);
    }

    // Random phase with genuine PRPG patterns through the architecture.
    let mut arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
    let mut frame = cc.new_frame();
    let batches = random_patterns.div_ceil(64);
    for _ in 0..batches {
        fill_frame_from_prpg(&mut arch, &core, &mut frame);
        sim.run_batch(&mut frame, 64);
    }
    let fc1 = sim.coverage();
    let survivors = sim.undetected();
    RandomPhase { core, cc, arch, fc1, patterns: batches * 64, survivors }
}

/// Runs the full Table 1 measurement pipeline for one profile.
///
/// `random_patterns` is the PRPG budget (the paper used 20K);
/// `obs_budget` the test point budget (paper: 1K, "Obv-Only").
pub fn run_table1_flow(
    profile: &CoreProfile,
    seed: u64,
    random_patterns: usize,
    obs_budget: usize,
    target_chains: usize,
) -> Table1Column {
    let t0 = Instant::now();
    let RandomPhase { core, cc, arch, fc1, patterns, survivors } =
        run_random_phase(profile, seed, random_patterns, obs_budget, target_chains);

    // Top-up ATPG.
    let mut atpg = TopUpAtpg::new(&cc, StuckAtSim::observe_all_captures(&cc));
    atpg.pin(core.test_mode(), true);
    // The same CLI budget steers speculative PODEM generation (reports
    // are byte-identical at any budget).
    if let Some(threads) = cli_thread_budget() {
        atpg.set_threads(threads);
    }
    let report = atpg.run(&survivors, seed ^ 0xA7B6);
    let testable = fc1.total - report.untestable;
    let fc2 = (fc1.detected + report.faults_detected) as f64 / testable.max(1) as f64 * 100.0;
    let cpu_time = t0.elapsed();

    // Overhead: core-side DFT plus the BIST hardware.
    let mut overhead = core.overhead.clone();
    overhead
        .add_register_stages(arch.total_prpg_stages() + arch.misr_widths().iter().sum::<usize>());
    let shifter_xors: usize = arch.domains().iter().map(|d| d.chains.len() * 2).sum();
    overhead.add_xor_network(shifter_xors);
    overhead.add_controller();

    Table1Column {
        profile: profile.clone(),
        gates: core.netlist.gate_count(),
        ffs: core.netlist.dffs().len(),
        chains: core.chains.num_chains(),
        max_chain: core.chains.max_chain_length(),
        domains: core.netlist.num_domains(),
        prpgs: (arch.domains().len(), StumpsConfig::default().prpg_length),
        misr_widths: arch.misr_widths(),
        test_points: core.observation_cells.len(),
        random_patterns: patterns,
        fc1: fc1.percent(),
        cpu_time,
        overhead: overhead.percent(),
        top_up_patterns: report.patterns.len(),
        fc2,
        untestable: report.untestable,
        aborted: report.aborted,
        unconfirmed: report.unconfirmed,
    }
}

/// Formats a MISR-width row the way Table 1 prints it (`7: 19 / 1: 80`).
pub fn format_misr_widths(widths: &[usize]) -> String {
    let mut counts: Vec<(usize, usize)> = Vec::new();
    for &w in widths {
        match counts.iter_mut().find(|(width, _)| *width == w) {
            Some((_, c)) => *c += 1,
            None => counts.push((w, 1)),
        }
    }
    counts.sort();
    counts.iter().map(|(w, c)| format!("{c}: {w}")).collect::<Vec<_>>().join(" / ")
}

/// Tiny CLI helper: returns the value following `--name`, parsed.
pub fn arg_value<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).and_then(|v| v.parse().ok())
}

/// Tiny CLI helper: `--flag` presence.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Prints a CLI diagnostic and exits with the usage status (2).
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Like [`arg_value`], but a flag that is *present* with a missing or
/// unparseable value is a hard usage error (diagnostic + exit 2) instead
/// of a silent `None` — `None` here always means "flag absent".
pub fn arg_value_strict<T: std::str::FromStr>(name: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    let flag_pos = args.iter().position(|a| a == name)?;
    match args.get(flag_pos + 1) {
        None => usage_error(&format!("`{name}` expects a value, got nothing")),
        Some(v) => match v.parse::<T>() {
            Ok(t) => Some(t),
            Err(_) => usage_error(&format!("`{name}` could not parse its value `{v}`")),
        },
    }
}

/// Like [`arg_value_strict`], for a count that must be positive: `0` is a
/// usage error too.
pub fn arg_positive(name: &str) -> Option<usize> {
    let n = arg_value_strict::<usize>(name)?;
    if n == 0 {
        usage_error(&format!("`{name}` expects a positive integer, got `0`"));
    }
    Some(n)
}

/// The shared fault-sim threading knobs every experiment binary honours:
/// `--serial` pins grading to one thread (the determinism escape hatch),
/// `--threads N` sets an explicit worker budget, and absent both the
/// simulators keep their default (all available hardware threads).
///
/// This is the single parsing point for the flags — binaries must not
/// roll their own. A malformed `--threads` value (missing, non-numeric,
/// or zero) and the contradictory `--serial --threads N` combination are
/// hard usage errors: the process prints a diagnostic and exits with
/// status 2 instead of silently picking one of the two requests.
pub fn cli_thread_budget() -> Option<usize> {
    let serial = arg_flag("--serial");
    let args: Vec<String> = std::env::args().collect();
    let flag_pos = args.iter().position(|a| a == "--threads");
    if serial && flag_pos.is_some() {
        usage_error("`--serial` conflicts with `--threads` — pass one or the other");
    }
    if serial {
        return Some(1);
    }
    let flag_pos = flag_pos?;
    let die = |got: &str| -> ! {
        usage_error(&format!("`--threads` expects a positive integer worker count, got {got}"));
    };
    match args.get(flag_pos + 1) {
        None => die("nothing"),
        Some(v) => match v.parse::<usize>() {
            Ok(0) => die("`0` (use --serial for single-threaded grading)"),
            Ok(n) => Some(n),
            Err(_) => die(&format!("`{v}`")),
        },
    }
}

/// The shared telemetry knob: parses `--metrics-out PATH`, the file the
/// binary writes a metrics-registry snapshot to after the run. The
/// format follows the extension: `.prom` / `.txt` get the Prometheus
/// text exposition, anything else the JSON snapshot (the format
/// [`lbist_obs::Snapshot::from_json`] round-trips). `None` means the
/// flag was absent; a present flag with no value is a usage error.
///
/// Telemetry never steers the run: the binaries' verdict digests are
/// bit-identical with and without this flag (asserted in CI).
pub fn cli_metrics_out() -> Option<PathBuf> {
    arg_value_strict::<String>("--metrics-out").map(PathBuf::from)
}

/// Writes `snapshot` to `path` in the format [`cli_metrics_out`]
/// documents, atomically (tmp + fsync + rename), so a crash mid-write
/// never leaves a torn metrics file for a scrape or comparison script.
pub fn write_metrics_snapshot(path: &std::path::Path, snapshot: &lbist_obs::Snapshot) {
    let prom = matches!(path.extension().and_then(|e| e.to_str()), Some("prom") | Some("txt"));
    let body = if prom { snapshot.to_prometheus() } else { snapshot.to_json() };
    if let Err(e) = lbist_ckpt::write_atomic(path, body.as_bytes()) {
        eprintln!("error: could not write metrics snapshot {}: {e}", path.display());
        std::process::exit(2);
    }
    println!("wrote {}", path.display());
}

/// The shared fault-tolerance knobs: parses `--checkpoint PATH`,
/// `--checkpoint-every N`, `--resume`, `--deadline SECS` and
/// `--kill-after-batches N` into a [`RunControl`], or `None` when none
/// of them were passed (the binary then runs its ordinary flow).
///
/// Invalid combinations are hard usage errors (diagnostic + exit 2),
/// checked up front so a misconfigured run fails at argument time, not
/// hours in:
///
/// * `--resume`, `--kill-after-batches` and `--checkpoint-every` require
///   `--checkpoint PATH` (without one the interrupted progress would be
///   unrecoverable);
/// * a `--checkpoint` path must be writable *now*, probed via
///   [`lbist_ckpt::validate_writable`] (same directory permissions the
///   eventual atomic write needs);
/// * `--resume` requires the checkpoint file to already exist;
/// * `--deadline` must be a non-negative seconds value.
pub fn cli_run_control() -> Option<RunControl> {
    let checkpoint: Option<String> = arg_value_strict("--checkpoint");
    let every: Option<u64> = arg_value_strict("--checkpoint-every");
    let deadline: Option<f64> = arg_value_strict("--deadline");
    let kill_after: Option<u64> = arg_value_strict("--kill-after-batches");
    let resume = arg_flag("--resume");

    let deadline_token = deadline.map(|secs| {
        if !secs.is_finite() || secs < 0.0 {
            usage_error(&format!("`--deadline` expects non-negative seconds, got `{secs}`"));
        }
        CancelToken::with_deadline(Duration::from_secs_f64(secs))
    });

    let Some(path) = checkpoint.map(PathBuf::from) else {
        if resume {
            usage_error("`--resume` requires `--checkpoint PATH` to resume from");
        }
        if kill_after.is_some() {
            usage_error(
                "`--kill-after-batches` requires `--checkpoint PATH` \
                 (the interrupted progress would be lost)",
            );
        }
        if every.is_some() {
            usage_error("`--checkpoint-every` requires `--checkpoint PATH`");
        }
        // A bare deadline is fine: a partial verdict without persistence.
        return deadline_token.map(RunControl::with_cancel);
    };

    if let Err(e) = lbist_ckpt::validate_writable(&path) {
        usage_error(&format!("checkpoint path {} is not writable: {e}", path.display()));
    }
    if resume && !path.exists() {
        usage_error(&format!(
            "`--resume` was passed but checkpoint {} does not exist",
            path.display()
        ));
    }
    Some(RunControl {
        cancel: deadline_token,
        budget: kill_after,
        checkpoint: Some(CheckpointSpec::new(path, every.unwrap_or(0))),
        resume,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_tpg::Gf2Vec;

    #[test]
    fn outcome_digest_is_deterministic_and_sensitive() {
        let sigs = vec![Gf2Vec::from_fn(19, |i| i % 3 == 0), Gf2Vec::zeros(7)];
        let a = outcome_digest(&[1, 4, 9], &sigs);
        assert_eq!(a, outcome_digest(&[1, 4, 9], &sigs), "digest must be deterministic");
        assert_ne!(a, outcome_digest(&[1, 4], &sigs), "undetected set must matter");
        assert_ne!(a, outcome_digest(&[1, 9, 4], &sigs), "order is part of the identity");
        let mut flipped = sigs.clone();
        flipped[0] = Gf2Vec::from_fn(19, |i| i % 3 == 1);
        assert_ne!(a, outcome_digest(&[1, 4, 9], &flipped), "signatures must matter");
        // Length is hashed, so an empty trailing signature still changes it.
        let mut extra = sigs.clone();
        extra.push(Gf2Vec::zeros(0));
        assert_ne!(a, outcome_digest(&[1, 4, 9], &extra));
    }

    #[test]
    fn misr_width_formatting_matches_table1_style() {
        assert_eq!(format_misr_widths(&[19, 19, 19, 19, 19, 19, 19, 80]), "7: 19 / 1: 80");
        assert_eq!(format_misr_widths(&[19, 99]), "1: 19 / 1: 99");
        assert_eq!(format_misr_widths(&[]), "");
    }

    #[test]
    fn scaled_flow_produces_sane_numbers() {
        let profile = CoreProfile::core_x().scaled(400);
        let col = run_table1_flow(&profile, 3, 256, 4, 24);
        assert!(col.fc1 > 50.0, "fc1 = {}", col.fc1);
        assert!(col.fc2 >= col.fc1 * 0.99, "fc2 {} vs fc1 {}", col.fc2, col.fc1);
        assert_eq!(col.domains, 2);
        assert_eq!(col.prpgs, (2, 19));
        assert!(col.overhead > 0.0);
    }

    /// The word-level fill must reproduce, bit for bit, what the original
    /// per-lane scalar shift loops produced — the PRPG stream semantics
    /// are part of the paper reproduction.
    #[test]
    fn word_level_fill_matches_scalar_reference() {
        let profile = CoreProfile::core_x().scaled(800);
        let netlist = CpuCoreGenerator::new(profile, 9).generate();
        let core = prepare_core(
            &netlist,
            &PrepConfig {
                total_chains: 6,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let cc = CompiledCircuit::compile(&core.netlist).unwrap();
        let stumps = StumpsConfig::default();
        let mut arch = StumpsArchitecture::build(&core, &stumps);
        let mut arch_ref = StumpsArchitecture::build(&core, &stumps);

        // Scalar reference: one load per lane via step_vector (the
        // original implementation).
        let scalar_fill = |arch: &mut StumpsArchitecture, frame: &mut [u64]| {
            for w in frame.iter_mut() {
                *w = 0;
            }
            frame[core.test_mode().index()] = !0;
            let shift_cycles = arch.max_chain_length().max(1);
            for lane in 0..64 {
                let mut per_chain: Vec<Vec<bool>> = Vec::new();
                for _ in 0..shift_cycles {
                    let mut chain_idx = 0;
                    for db in arch.domains_mut() {
                        let bits = db.prpg.step_vector();
                        if per_chain.len() < chain_idx + bits.len() {
                            per_chain.resize(chain_idx + bits.len(), Vec::new());
                        }
                        for (c, bit) in bits.into_iter().enumerate() {
                            per_chain[chain_idx + c].push(bit);
                        }
                        chain_idx += db.chains.len();
                    }
                }
                let mut chain_idx = 0;
                for db in arch.domains() {
                    for chain in &db.chains {
                        for (i, &cell) in chain.cells.iter().enumerate() {
                            if per_chain[chain_idx][shift_cycles - 1 - i] {
                                frame[cell.index()] |= 1 << lane;
                            }
                        }
                        chain_idx += 1;
                    }
                }
            }
        };

        // Two consecutive batches: covers both the cold path (lane cache
        // build) and the steady-state reuse path.
        for batch in 0..2 {
            let mut frame = cc.new_frame();
            let mut ref_frame = cc.new_frame();
            fill_frame_from_prpg(&mut arch, &core, &mut frame);
            scalar_fill(&mut arch_ref, &mut ref_frame);
            assert_eq!(frame, ref_frame, "word-level fill diverged in batch {batch}");
        }
    }

    /// 64 single-lane fills reproduce one word-level batch fill exactly
    /// (same PRPG stream position, same cell bits).
    #[test]
    fn single_lane_fill_matches_batch_fill() {
        let profile = CoreProfile::core_x().scaled(800);
        let netlist = CpuCoreGenerator::new(profile, 11).generate();
        let core = prepare_core(
            &netlist,
            &PrepConfig {
                total_chains: 5,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let cc = CompiledCircuit::compile(&core.netlist).unwrap();
        let stumps = StumpsConfig::default();
        let mut arch_batch = StumpsArchitecture::build(&core, &stumps);
        let mut arch_lane = StumpsArchitecture::build(&core, &stumps);
        let mut batch_frame = cc.new_frame();
        fill_frame_from_prpg(&mut arch_batch, &core, &mut batch_frame);
        let mut lane_frame = cc.new_frame();
        lane_frame[core.test_mode().index()] = !0;
        for lane in 0..64 {
            fill_lane_from_prpg(&mut arch_lane, &mut lane_frame, lane);
        }
        assert_eq!(lane_frame, batch_frame);
        // Both leave the PRPGs in the same stream position.
        for (a, b) in arch_batch.domains().iter().zip(arch_lane.domains()) {
            assert_eq!(a.prpg.lfsr().state(), b.prpg.lfsr().state());
        }
    }

    #[test]
    fn prpg_fill_matches_session_load_shape() {
        let profile = CoreProfile::core_x().scaled(800);
        let netlist = CpuCoreGenerator::new(profile, 5).generate();
        let core = prepare_core(
            &netlist,
            &PrepConfig {
                total_chains: 4,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        );
        let cc = CompiledCircuit::compile(&core.netlist).unwrap();
        let mut arch = StumpsArchitecture::build(&core, &StumpsConfig::default());
        let mut frame = cc.new_frame();
        fill_frame_from_prpg(&mut arch, &core, &mut frame);
        // Lanes must differ (the PRPG advances) and chains get nonzero data.
        let ff_words: Vec<u64> = cc.dffs().iter().map(|&ff| frame[ff.index()]).collect();
        assert!(ff_words.iter().any(|&w| w != 0));
        let lane0: Vec<bool> = cc.dffs().iter().map(|&ff| frame[ff.index()] & 1 == 1).collect();
        let lane1: Vec<bool> = cc.dffs().iter().map(|&ff| frame[ff.index()] & 2 == 2).collect();
        assert_ne!(lane0, lane1);
    }
}
