//! Fault-simulation throughput benchmark: serial vs pool-sharded PPSFP
//! and launch-on-capture transition grading on a generated CPU core,
//! plus a worker-count sweep, a **grading-width sweep** (the whole
//! fill → sim → detect → MISR pipeline at 64 and 128 lanes per pass),
//! a **compiled-kernel reference check** and a lane-width PRPG-fill
//! comparison.
//!
//! Emits `BENCH_faultsim.json` (in the working directory) with
//! patterns/sec, faults-graded/sec, the serial-vs-parallel speedup, a
//! 1/2/4/max threads sweep (entries oversubscribing the box's
//! `available_parallelism` are skipped and listed), the grading-width
//! sweep (with cross-width coverage and signature identity asserted at
//! run time), a `"kernel"` section (lowering time, program size, and
//! the first headline batch of each model graded with no dropping and
//! asserted identical, fault by fault, to the slow reference grader
//! `lbist_fault::oracle`) and the 64/128-lane fill throughput — the
//! perf baseline later PRs compare against.
//!
//! ```text
//! cargo run --release --bin bench_faultsim [--scale N] [--batches N]
//!           [--threads N] [--lanes {64,128}] [--out PATH]
//!           [--metrics-out PATH]
//!           [--checkpoint PATH [--checkpoint-every N] [--resume]
//!            [--kill-after-batches N]] [--deadline SECS]
//! ```
//!
//! `--metrics-out PATH` additionally writes a snapshot of the engine's
//! metrics registry (phase histograms, pool counters, resilience
//! counters) after the run — JSON by default, Prometheus text
//! exposition for a `.prom`/`.txt` extension. The ordinary flow also
//! runs one *instrumented* headline configuration against the no-op
//! registry baseline, asserts the verdict digests match, and records
//! the throughput delta plus the per-phase trace (fill/sim/detect/
//! absorb vs batch wall time) under `"observability"` in the JSON.
//!
//! `--lanes` selects the frame width of the headline runs and the
//! threads sweep; the grading-width sweep always covers both widths
//! over the identical pattern stream.
//!
//! Any of the fault-tolerance flags switches the binary into the
//! **checkpointed flow**: one controlled stuck-at phase through
//! [`lbist_core::WideGradingSession::run_stuck_at_controlled`] instead
//! of the full sweep suite. `--kill-after-batches N` stops after `N`
//! batches with the checkpoint written and the deliberate-interruption
//! exit status ([`lbist_bench::INTERRUPTED_EXIT_CODE`], the marker the
//! CI smoke keys on); `--resume`
//! picks the run back up from `--checkpoint PATH`; `--deadline SECS`
//! arms a wall-clock budget that ends the run with a partial-coverage
//! verdict. Every JSON emitted carries a timing-free `"digest"` of the
//! verdict (undetected set + MISR signatures), so an interrupted-and-
//! resumed run is diffable against an uninterrupted reference.

use lbist_bench::{
    arg_positive, arg_value_strict, cli_metrics_out, cli_run_control, cli_thread_budget,
    write_metrics_snapshot, INTERRUPTED_EXIT_CODE,
};
use lbist_ckpt::CkptError;
use lbist_core::{
    fill_frame_from_prpg, ControlledGradingOutcome, GradingMetrics, RunControl, RunStatus,
    StumpsArchitecture, StumpsConfig, WideGradingOutcome, WideGradingSession,
};
use lbist_exec::{CancelReason, LaneWord};
use lbist_fault::{
    oracle, CaptureWindow, Fault, FaultUniverse, StuckAtSim, WideStuckAtSim, WideTransitionSim,
};
use lbist_sim::{CompiledCircuit, KernelProgram};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed session run: the verdict and how the run ended, and the
/// wall time of the run itself (session construction excluded).
struct Run {
    outcome: ControlledGradingOutcome,
    seconds: f64,
}

impl Run {
    fn verdict(&self) -> &WideGradingOutcome {
        &self.outcome.outcome
    }
    fn patterns_per_sec(&self) -> f64 {
        self.verdict().patterns as f64 / self.seconds.max(1e-9)
    }
    /// Fault-grading operations per second: Σ over batches of the
    /// active-fault count entering the batch (what the engine actually
    /// scans — shrinks as compaction drops detected faults).
    fn faults_graded_per_sec(&self) -> f64 {
        self.verdict().faults_graded as f64 / self.seconds.max(1e-9)
    }
}

fn json_run(run: &Run) -> String {
    let verdict = run.verdict();
    format!(
        "{{\"seconds\": {:.6}, \"patterns\": {}, \"faults_graded\": {}, \
         \"patterns_per_sec\": {:.1}, \"faults_graded_per_sec\": {:.1}, \
         \"coverage_percent\": {:.4}, \"detected\": {}, \"total\": {}}}",
        run.seconds,
        verdict.patterns,
        verdict.faults_graded,
        run.patterns_per_sec(),
        run.faults_graded_per_sec(),
        verdict.coverage.percent(),
        verdict.coverage.detected,
        verdict.coverage.total,
    )
}

/// The fault model a session run grades, with its fault list.
#[derive(Clone, Copy)]
enum Model<'f> {
    StuckAt(&'f [Fault]),
    /// Launch-on-capture across every clock domain.
    Transition(&'f [Fault]),
}

/// One whole random phase through [`WideGradingSession`] (PRPG fill →
/// sim → detect → MISR) at `lanes` lanes per pass, over the patterns of
/// `batches` 64-lane batches, under `control`. One thread also turns
/// the fill/grade overlap off, so the 1-thread timing is a true serial
/// baseline; `metered` records the session's phase trace and counters
/// in the process-global registry. Exits the process on a checkpoint
/// error (a mismatched resume is a usage problem, not a panic).
#[allow(clippy::too_many_arguments)]
fn grade(
    lanes: usize,
    core: &lbist_dft::BistReadyCore,
    cc: &CompiledCircuit,
    model: Model<'_>,
    batches: usize,
    threads: usize,
    metered: bool,
    control: &RunControl,
) -> Run {
    fn run<W: LaneWord>(
        core: &lbist_dft::BistReadyCore,
        cc: &CompiledCircuit,
        model: Model<'_>,
        batches: usize,
        threads: usize,
        metered: bool,
        control: &RunControl,
    ) -> Result<Run, CkptError> {
        let mut session: WideGradingSession<'_, W> =
            WideGradingSession::new(core, cc, &StumpsConfig::default());
        session.set_threads(threads);
        if threads == 1 {
            session.sequential();
        }
        if metered {
            session.set_metrics(GradingMetrics::from_registry(lbist_obs::global()));
        }
        let batches = batches * 64 / W::LANES;
        let t0 = Instant::now();
        let outcome = match model {
            Model::StuckAt(faults) => {
                session.run_stuck_at_controlled(faults.to_vec(), batches, control)?
            }
            Model::Transition(faults) => {
                let window = CaptureWindow::all_domains(core.netlist.num_domains().max(1));
                session.run_transition_controlled(faults.to_vec(), window, batches, control)?
            }
        };
        Ok(Run { outcome, seconds: t0.elapsed().as_secs_f64() })
    }
    let run = match lanes {
        64 => run::<u64>(core, cc, model, batches, threads, metered, control),
        _ => run::<u128>(core, cc, model, batches, threads, metered, control),
    };
    run.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The fault-tolerant flow: one controlled stuck-at phase with the
/// checkpoint/deadline/kill knobs applied, emitting a compact JSON with
/// the digest. Never returns — the exit status reports how the run
/// ended (0 = verdict written, [`INTERRUPTED_EXIT_CODE`] = deliberately
/// interrupted with the checkpoint saved).
#[allow(clippy::too_many_arguments)]
fn checkpointed_main(
    core: &lbist_dft::BistReadyCore,
    cc: &CompiledCircuit,
    faults: &[Fault],
    scale: usize,
    batches: usize,
    lanes: usize,
    threads: usize,
    control: &RunControl,
    out_path: &str,
    metrics_out: Option<&Path>,
) -> ! {
    println!("stuck-at controlled run ({threads} threads, {lanes} lanes)...");
    let metered = metrics_out.is_some();
    let run = grade(lanes, core, cc, Model::StuckAt(faults), batches, threads, metered, control);
    let res = &run.outcome;
    if res.status == RunStatus::BudgetExhausted {
        let path =
            control.checkpoint.as_ref().map(|s| s.path.display().to_string()).unwrap_or_default();
        println!(
            "interrupted after {} batches ({} this invocation); checkpoint saved to {path}",
            res.batches_done,
            res.batches_done - res.resumed_from.unwrap_or(0),
        );
        // Telemetry of the interrupted prefix is still valid data — and
        // exporting it must not perturb the checkpoint (the resume digest
        // smoke in CI covers the whole interrupted-and-exported path).
        if let Some(path) = metrics_out {
            write_metrics_snapshot(path, &lbist_obs::global().snapshot());
        }
        std::process::exit(INTERRUPTED_EXIT_CODE);
    }

    let status = match res.status {
        RunStatus::Completed => "completed",
        RunStatus::Cancelled(CancelReason::Deadline) => "deadline",
        RunStatus::Cancelled(CancelReason::Requested) => "cancelled",
        RunStatus::BudgetExhausted => unreachable!("handled above"),
    };
    let batches_done = res.batches_done;
    let resumed_from = res.resumed_from.map_or_else(|| "null".to_string(), |b| b.to_string());
    let digest = run.verdict().digest();

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"faultsim\",");
    let _ = writeln!(json, "  \"mode\": \"fault_tolerant\",");
    let _ = writeln!(
        json,
        "  \"core\": {{\"profile\": \"core_x\", \"scale\": {scale}, \"gates\": {}, \"ffs\": {}, \
         \"stuck_faults\": {}}},",
        core.netlist.gate_count(),
        core.netlist.dffs().len(),
        faults.len()
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"batches\": {batches},");
    let _ = writeln!(json, "  \"lanes\": {lanes},");
    let _ = writeln!(json, "  \"status\": \"{status}\",");
    let _ = writeln!(json, "  \"batches_done\": {batches_done},");
    let _ = writeln!(json, "  \"resumed_from\": {resumed_from},");
    let _ = writeln!(json, "  \"stuck_at\": {},", json_run(&run));
    let _ = writeln!(json, "  \"digest\": \"{digest:016x}\"");
    let _ = writeln!(json, "}}");

    lbist_ckpt::write_atomic(Path::new(out_path), json.as_bytes()).expect("write benchmark JSON");
    println!("\n{json}");
    println!(
        "stuck-at ({status}): {:.0} patterns/s, {:.2}% coverage over {} batches",
        run.patterns_per_sec(),
        run.verdict().coverage.percent(),
        batches_done,
    );
    println!("wrote {out_path}");
    if let Some(path) = metrics_out {
        write_metrics_snapshot(path, &lbist_obs::global().snapshot());
    }
    std::process::exit(0);
}

/// Grades the first headline batch (the first PRPG fill at width `W`)
/// of each model with a fresh simulator and no dropping, and asserts
/// that every fault's detection count equals the popcount of its
/// `lbist_fault::oracle` detection word.
fn check_against_reference<W: LaneWord>(
    core: &lbist_dft::BistReadyCore,
    cc: &CompiledCircuit,
    stuck_faults: &[Fault],
    transition_faults: &[Fault],
) {
    let mut arch = StumpsArchitecture::build(core, &StumpsConfig::default());
    let mut frame: Vec<W> = cc.new_wide_frame();
    fill_frame_from_prpg(&mut arch, core, &mut frame);
    let assert_identical = |model: &str, detections: &[u32], reference: Vec<W>| {
        for (i, (&got, want)) in detections.iter().zip(reference).enumerate() {
            assert_eq!(
                got,
                want.count_ones(),
                "{model} fault {i}: kernel detections differ from the reference oracle"
            );
        }
    };

    let observed = StuckAtSim::observe_all_captures(cc);
    let reference = oracle::stuck_at(cc, stuck_faults, &observed, &frame, W::LANES);
    let mut sim = WideStuckAtSim::<W>::new(cc, stuck_faults.to_vec(), observed);
    sim.set_drop_after(u32::MAX);
    sim.run_batch(&mut frame.clone(), W::LANES);
    assert_identical("stuck-at", sim.detections(), reference);

    let window = CaptureWindow::all_domains(core.netlist.num_domains().max(1));
    let reference = oracle::transition(cc, transition_faults, &window, &frame, W::LANES);
    let mut sim = WideTransitionSim::<W>::new(cc, transition_faults.to_vec(), window);
    sim.set_drop_after(u32::MAX);
    sim.run_batch(&frame, W::LANES);
    assert_identical("transition", sim.detections(), reference);
}

fn main() {
    let scale = arg_positive("--scale").unwrap_or(100);
    // Normalised to a multiple of 2 so 64- and 128-lane runs cover
    // the identical pattern stream.
    let batches_requested = arg_positive("--batches").unwrap_or(16);
    let batches = batches_requested.next_multiple_of(2);
    if batches != batches_requested {
        eprintln!(
            "note: --batches {batches_requested} rounded up to {batches} \
             (width sweep needs a multiple of 2)"
        );
    }
    let lanes: usize = arg_value_strict("--lanes").unwrap_or(64);
    if !matches!(lanes, 64 | 128) {
        eprintln!("error: `--lanes` must be 64 or 128, got {lanes}");
        std::process::exit(2);
    }
    // The shared `--serial` / `--threads N` knobs (with the usual
    // malformed-value diagnostics) instead of a private parse.
    let parallel_threads = cli_thread_budget().unwrap_or_else(lbist_exec::current_num_threads);
    let out_path: String =
        arg_value_strict("--out").unwrap_or_else(|| "BENCH_faultsim.json".to_string());
    let metrics_out = cli_metrics_out();
    // Fault-tolerance knobs, validated before the (expensive) core
    // generation so a bad checkpoint path fails in milliseconds.
    let run_control = cli_run_control();

    let profile = lbist_cores::CoreProfile::core_x().scaled(scale);
    println!("generating {} (scale {scale})...", profile.name);
    let netlist = lbist_cores::CpuCoreGenerator::new(profile, 7).generate();
    let core = lbist_dft::prepare_core(
        &netlist,
        &lbist_dft::PrepConfig {
            total_chains: 16,
            obs_budget: 0,
            tpi: lbist_dft::TpiMethod::None,
            ..lbist_dft::PrepConfig::default()
        },
    );
    let cc = CompiledCircuit::compile(&core.netlist).expect("core compiles");
    let stuck_universe = FaultUniverse::stuck_at(&core.netlist);
    let stuck_faults = stuck_universe.representatives();
    let transition_faults: Vec<_> = FaultUniverse::transition(&core.netlist)
        .representatives()
        .into_iter()
        .filter(|f| f.is_stem())
        .collect();
    println!(
        "core: {} gates, {} FFs, {} collapsed stuck-at faults, {} transition stems",
        core.netlist.gate_count(),
        core.netlist.dffs().len(),
        stuck_faults.len(),
        transition_faults.len()
    );

    if let Some(control) = &run_control {
        checkpointed_main(
            &core,
            &cc,
            &stuck_faults,
            scale,
            batches,
            lanes,
            parallel_threads,
            control,
            &out_path,
            metrics_out.as_deref(),
        );
    }

    // Each run builds a fresh (reset) grading session so every
    // configuration grades the identical PRPG pattern stream.
    let uncontrolled = RunControl::new();
    let session = |lanes, model, threads, metered| {
        grade(lanes, &core, &cc, model, batches, threads, metered, &uncontrolled)
    };
    let (stuck, transition) =
        (Model::StuckAt(&stuck_faults), Model::Transition(&transition_faults));

    println!("stuck-at serial ({lanes} lanes)...");
    let stuck_serial = session(lanes, stuck, 1, false);
    println!("stuck-at parallel ({parallel_threads} threads, {lanes} lanes)...");
    let stuck_parallel = session(lanes, stuck, parallel_threads, false);
    println!("transition serial ({lanes} lanes)...");
    let tr_serial = session(lanes, transition, 1, false);
    println!("transition parallel ({parallel_threads} threads, {lanes} lanes)...");
    let tr_parallel = session(lanes, transition, parallel_threads, false);

    // Worker-count sweep (stuck-at): how faults-graded/s scales with the
    // shard budget on the persistent pool. Budgets beyond the box's
    // available parallelism would only measure oversubscription noise
    // (a "4-thread speedup" on a single-core runner is fiction), so
    // they are skipped and listed in the JSON instead.
    let available_parallelism = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut sweep_budgets = vec![1usize, 2, 4, parallel_threads];
    sweep_budgets.sort_unstable();
    sweep_budgets.dedup();
    let (sweep_budgets, sweep_skipped): (Vec<usize>, Vec<usize>) =
        sweep_budgets.into_iter().partition(|&t| t <= available_parallelism);
    if !sweep_skipped.is_empty() {
        println!(
            "threads sweep: skipping {sweep_skipped:?} (box has {available_parallelism} \
             hardware threads)"
        );
    }
    let sweep: Vec<(usize, Run)> = sweep_budgets
        .into_iter()
        .map(|t| {
            println!("stuck-at sweep ({t} threads)...");
            (t, session(lanes, stuck, t, false))
        })
        .collect();
    for (t, run) in &sweep {
        assert_eq!(
            run.verdict().coverage,
            stuck_serial.verdict().coverage,
            "{t}-thread sweep coverage must be bit-identical"
        );
        assert_eq!(
            run.verdict().signatures,
            stuck_serial.verdict().signatures,
            "{t}-thread sweep signatures must be bit-identical"
        );
    }

    // Grading-width sweep: the whole pipeline at 64 and 128 lanes over
    // the identical pattern stream, both fault models. The detected
    // sets and accumulated MISR signatures must be identical at both
    // widths — asserted here, recorded in the JSON.
    println!("grading-width sweep (64/128 lanes, both models)...");
    let t = parallel_threads;
    let width_sweep: Vec<(usize, Run, Run)> = [64, 128]
        .into_iter()
        .map(|w| (w, session(w, stuck, t, false), session(w, transition, t, false)))
        .collect();
    let (base_stuck, base_tr) = (width_sweep[0].1.verdict(), width_sweep[0].2.verdict());
    for (w, stuck, tr) in &width_sweep {
        let (stuck, tr) = (stuck.verdict(), tr.verdict());
        assert_eq!(stuck.patterns, base_stuck.patterns, "{w}-lane stuck-at pattern count");
        assert_eq!(
            stuck.undetected_indices(),
            base_stuck.undetected_indices(),
            "{w}-lane stuck-at detected set must be width-invariant"
        );
        assert_eq!(
            stuck.signatures, base_stuck.signatures,
            "{w}-lane stuck-at signatures must be width-invariant"
        );
        assert_eq!(
            tr.undetected_indices(),
            base_tr.undetected_indices(),
            "{w}-lane transition detected set must be width-invariant"
        );
        assert_eq!(
            tr.signatures, base_tr.signatures,
            "{w}-lane transition signatures must be width-invariant"
        );
    }

    // Compiled kernel: time one lowering (keep set covering both fault
    // lists, as the serve cache shares it) for the program-size report,
    // and check the first headline batch of each model against the
    // slow reference grader. Identity is a runtime assert, not a
    // recorded claim: every fault's detection count must match.
    println!("kernel vs reference oracle ({lanes} lanes, first batch)...");
    let t0 = Instant::now();
    let kernel_program = {
        let observed = lbist_fault::StuckAtSim::observe_all_captures(&cc);
        let keep = lbist_fault::grading_keep_set(
            &cc,
            &[stuck_faults.as_slice(), transition_faults.as_slice()],
            &observed,
        );
        KernelProgram::lower(&cc, &keep)
    };
    let kernel_compile_seconds = t0.elapsed().as_secs_f64();
    match lanes {
        64 => check_against_reference::<u64>(&core, &cc, &stuck_faults, &transition_faults),
        _ => check_against_reference::<u128>(&core, &cc, &stuck_faults, &transition_faults),
    }

    // Lane-width PRPG fill throughput: identical pattern streams filled
    // 64 and 128 lanes per pass through the one frame fill (bit-identity
    // is enforced by the lane_width_equivalence property tests; here we
    // time it).
    struct FillStats {
        seconds: f64,
        patterns: u64,
    }
    fn fill_run<W: LaneWord>(
        core: &lbist_dft::BistReadyCore,
        cc: &CompiledCircuit,
        total_patterns: u64,
    ) -> FillStats {
        let mut arch = StumpsArchitecture::build(core, &StumpsConfig::default());
        let mut frame: Vec<W> = cc.new_wide_frame();
        let passes = total_patterns / W::LANES as u64;
        let t0 = Instant::now();
        for _ in 0..passes {
            fill_frame_from_prpg(&mut arch, core, &mut frame);
        }
        FillStats { seconds: t0.elapsed().as_secs_f64(), patterns: passes * W::LANES as u64 }
    }
    println!("PRPG fill sweep (64/128 lanes)...");
    let fill_patterns = batches.max(8) as u64 * 16 * 64;
    let fill_64 = fill_run::<u64>(&core, &cc, fill_patterns);
    let fill_128 = fill_run::<u128>(&core, &cc, fill_patterns);

    // Observability: the same headline parallel run with the full
    // telemetry layer live (phase spans + counters into the global
    // registry), against the uninstrumented run just measured. Two
    // contracts checked here: telemetry never changes the verdict
    // (digest-identical), and the per-phase trace accounts for ≥ 90% of
    // the measured batch wall time (the spans genuinely cover the work).
    println!("observability: instrumented stuck-at run ({parallel_threads} threads)...");
    let instrumented = session(lanes, stuck, parallel_threads, true);
    assert_eq!(
        instrumented.verdict().digest(),
        stuck_parallel.verdict().digest(),
        "telemetry must not change the verdict"
    );
    let obs_snap = lbist_obs::global().snapshot();
    let phase_sum = |name: &str| -> u64 { obs_snap.histogram(name).map(|h| h.sum).unwrap_or(0) };
    let (fill_ns, sim_ns, detect_ns, absorb_ns, batch_wall_ns) = (
        phase_sum("grading.fill_ns"),
        phase_sum("grading.sim_ns"),
        phase_sum("grading.detect_ns"),
        phase_sum("grading.absorb_ns"),
        phase_sum("grading.batch_ns"),
    );
    // Pipelined fill overlaps grading, so the accounted sum may exceed
    // the batch wall time — the check is a lower bound only.
    let accounted = fill_ns + sim_ns + detect_ns + absorb_ns;
    assert!(
        accounted as f64 >= 0.9 * batch_wall_ns as f64,
        "phase trace accounts for only {accounted} of {batch_wall_ns} batch ns"
    );
    // Recorded, not asserted: wall-clock deltas on shared CI runners are
    // too noisy to gate on, but the trend belongs in the baseline JSON.
    let obs_overhead_percent =
        (instrumented.seconds / stuck_parallel.seconds.max(1e-9) - 1.0) * 100.0;
    println!(
        "observability: {:+.2}% vs no-op registry; phase trace covers {:.1}% of batch wall time",
        obs_overhead_percent,
        accounted as f64 / (batch_wall_ns as f64).max(1.0) * 100.0
    );

    // The determinism contract, enforced at bench time too.
    assert_eq!(
        stuck_serial.verdict().coverage,
        stuck_parallel.verdict().coverage,
        "serial and parallel stuck-at coverage must be bit-identical"
    );
    assert_eq!(
        tr_serial.verdict().coverage,
        tr_parallel.verdict().coverage,
        "serial and parallel transition coverage must be bit-identical"
    );
    assert_eq!(stuck_serial.verdict().signatures, stuck_parallel.verdict().signatures);
    assert_eq!(tr_serial.verdict().signatures, tr_parallel.verdict().signatures);

    let stuck_speedup = stuck_serial.seconds / stuck_parallel.seconds.max(1e-9);
    let tr_speedup = tr_serial.seconds / tr_parallel.seconds.max(1e-9);

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"faultsim\",");
    let _ = writeln!(
        json,
        "  \"core\": {{\"profile\": \"core_x\", \"scale\": {scale}, \"gates\": {}, \"ffs\": {}, \
         \"stuck_faults\": {}, \"transition_faults\": {}}},",
        core.netlist.gate_count(),
        core.netlist.dffs().len(),
        stuck_faults.len(),
        transition_faults.len()
    );
    let _ = writeln!(json, "  \"threads\": {parallel_threads},");
    let _ = writeln!(json, "  \"available_parallelism\": {available_parallelism},");
    let _ = writeln!(json, "  \"batches\": {batches},");
    let _ = writeln!(json, "  \"lanes\": {lanes},");
    let _ = writeln!(json, "  \"digest\": \"{:016x}\",", stuck_serial.verdict().digest());
    let _ = writeln!(json, "  \"stuck_at\": {{");
    let _ = writeln!(json, "    \"serial\": {},", json_run(&stuck_serial));
    let _ = writeln!(json, "    \"parallel\": {},", json_run(&stuck_parallel));
    let _ = writeln!(json, "    \"speedup\": {stuck_speedup:.3},");
    let _ = writeln!(json, "    \"coverage_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"transition\": {{");
    let _ = writeln!(json, "    \"serial\": {},", json_run(&tr_serial));
    let _ = writeln!(json, "    \"parallel\": {},", json_run(&tr_parallel));
    let _ = writeln!(json, "    \"speedup\": {tr_speedup:.3},");
    let _ = writeln!(json, "    \"coverage_identical\": true");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"threads_sweep\": [");
    for (i, (t, run)) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(json, "    {{\"threads\": {t}, \"stuck_at\": {}}}{comma}", json_run(run));
    }
    let _ = writeln!(json, "  ],");
    let skipped_list = sweep_skipped.iter().map(usize::to_string).collect::<Vec<_>>().join(", ");
    let _ = writeln!(json, "  \"threads_sweep_skipped\": [{skipped_list}],");
    let _ = writeln!(json, "  \"grading_width_sweep\": {{");
    let _ = writeln!(json, "    \"coverage_identical\": true,");
    let _ = writeln!(json, "    \"signatures_identical\": true,");
    let _ = writeln!(json, "    \"widths\": [");
    for (i, (w, stuck, tr)) in width_sweep.iter().enumerate() {
        let comma = if i + 1 < width_sweep.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "      {{\"lanes\": {w}, \"stuck_at\": {}, \"transition\": {}}}{comma}",
            json_run(stuck),
            json_run(tr)
        );
    }
    let _ = writeln!(json, "    ]");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kernel\": {{");
    let _ = writeln!(json, "    \"compile_seconds\": {kernel_compile_seconds:.6},");
    let _ = writeln!(json, "    \"instrs\": {},", kernel_program.stats().instrs);
    let _ = writeln!(json, "    \"fused_gates\": {},", kernel_program.stats().fused_gates);
    let _ = writeln!(json, "    \"pool_words\": {},", kernel_program.stats().pool_words);
    let reference = |faults: &[Fault]| {
        format!("{{\"faults\": {}, \"reference_identical\": true}}", faults.len())
    };
    let _ = writeln!(json, "    \"stuck_at\": {},", reference(&stuck_faults));
    let _ = writeln!(json, "    \"transition\": {}", reference(&transition_faults));
    let _ = writeln!(json, "  }},");
    let json_fill = |f: &FillStats| {
        format!(
            "{{\"seconds\": {:.6}, \"patterns\": {}, \"patterns_per_sec\": {:.1}}}",
            f.seconds,
            f.patterns,
            f.patterns as f64 / f.seconds.max(1e-9)
        )
    };
    let _ = writeln!(json, "  \"prpg_fill\": {{");
    let _ = writeln!(json, "    \"lanes_64\": {},", json_fill(&fill_64));
    let _ = writeln!(json, "    \"lanes_128\": {}", json_fill(&fill_128));
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"observability\": {{");
    let _ = writeln!(json, "    \"instrumented\": {},", json_run(&instrumented));
    let _ = writeln!(json, "    \"noop_reference\": {},", json_run(&stuck_parallel));
    let _ = writeln!(json, "    \"overhead_percent\": {obs_overhead_percent:.3},");
    let _ = writeln!(json, "    \"digest_identical\": true,");
    let _ = writeln!(json, "    \"phases\": {{");
    let _ = writeln!(json, "      \"fill_ns\": {fill_ns},");
    let _ = writeln!(json, "      \"sim_ns\": {sim_ns},");
    let _ = writeln!(json, "      \"detect_ns\": {detect_ns},");
    let _ = writeln!(json, "      \"absorb_ns\": {absorb_ns},");
    let _ = writeln!(json, "      \"batch_wall_ns\": {batch_wall_ns},");
    let _ = writeln!(
        json,
        "      \"accounted_fraction\": {:.4}",
        accounted as f64 / (batch_wall_ns as f64).max(1.0)
    );
    let _ = writeln!(json, "    }}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    lbist_ckpt::write_atomic(Path::new(&out_path), json.as_bytes()).expect("write benchmark JSON");
    println!("\n{json}");
    println!(
        "stuck-at: {:.0} patterns/s serial, {:.0} patterns/s parallel ({stuck_speedup:.2}x)",
        stuck_serial.patterns_per_sec(),
        stuck_parallel.patterns_per_sec()
    );
    println!(
        "transition: {:.0} patterns/s serial, {:.0} patterns/s parallel ({tr_speedup:.2}x)",
        tr_serial.patterns_per_sec(),
        tr_parallel.patterns_per_sec()
    );
    let sweep_summary: Vec<String> =
        sweep.iter().map(|(t, s)| format!("{t}t: {:.0}", s.faults_graded_per_sec())).collect();
    println!("stuck-at sweep (faults-graded/s): {}", sweep_summary.join(", "));
    // Patterns/s is the cross-width metric: the faults-graded counter
    // shrinks with the batch count (one 128-lane batch scans the active
    // list once for 2× the patterns).
    let width_summary: Vec<String> = width_sweep
        .iter()
        .map(|(w, s, t)| format!("{w}l: {:.0}/{:.0}", s.patterns_per_sec(), t.patterns_per_sec()))
        .collect();
    println!("grading width sweep (stuck/transition patterns/s): {}", width_summary.join(", "));
    println!(
        "kernel: {} instrs, {} gates fused, compiled in {:.1} ms; first batch identical to \
         the reference oracle ({} stuck-at, {} transition faults)",
        kernel_program.stats().instrs,
        kernel_program.stats().fused_gates,
        kernel_compile_seconds * 1e3,
        stuck_faults.len(),
        transition_faults.len(),
    );
    println!(
        "prpg fill: {:.0}/{:.0} patterns/s at 64/128 lanes",
        fill_64.patterns as f64 / fill_64.seconds.max(1e-9),
        fill_128.patterns as f64 / fill_128.seconds.max(1e-9),
    );
    println!("wrote {out_path}");
    if let Some(path) = &metrics_out {
        write_metrics_snapshot(path, &lbist_obs::global().snapshot());
    }
}
