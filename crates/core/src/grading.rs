//! The lane-width-generic grading pipeline: PRPG fill → bit-parallel
//! fault simulation → detection → MISR signature compaction, end to
//! end at 64 or 128 lanes per pass.
//!
//! PR 4 made pattern *generation* width-generic; this module closes the
//! loop on the grade side. A [`WideGradingSession`] owns the STUMPS
//! architecture and drives whole self-test random phases through the
//! width-generic engines:
//!
//! * **Fill** — [`crate::fill_frame_from_prpg`] packs `W::LANES`
//!   consecutive scan loads into one wide frame, fed to the graders
//!   directly (no de-staging into 64-lane frames).
//! * **Pipeline** — PRPG fill of batch *k+1* runs on the `lbist-exec`
//!   pool **while batch *k* grades**: the fill touches only the
//!   architecture's PRPG state, the grader only the simulator and the
//!   current frame, so the overlap cannot change results (enforced by
//!   test against the unpipelined loop).
//! * **Grade** — [`lbist_fault::WideStuckAtSim`] /
//!   [`lbist_fault::WideTransitionSim`] at the same `W`, on the compiled
//!   kernel: each run's simulator lowers its own program at its first
//!   batch, unless the session shares a prebuilt one
//!   ([`WideGradingSession::set_kernel_program`]).
//! * **Compact** — after the grade, each batch's fault-free responses
//!   unload through the architecture's chains and
//!   [`lbist_tpg::SpaceCompactor`]s (word-level) into one [`LaneMisr`]
//!   bank per domain; the per-lane signatures fold into one accumulated
//!   signature per domain. Linearity of the MISR makes the accumulated
//!   signature **width-invariant**: 64- and 128-lane runs over the same
//!   pattern stream produce bit-identical signatures (property-tested in
//!   the bench crate), so a signature regression caught at 128 lanes is
//!   a real regression, not a width artifact.

use crate::architecture::{StumpsArchitecture, StumpsConfig};
use crate::checkpoint::{
    expect_field, faults_fingerprint, GradingCheckpoint, ModelTag, RunControl, RunStatus,
};
use crate::fill::fill_frame_from_prpg;
use lbist_ckpt::CkptError;
use lbist_dft::BistReadyCore;
use lbist_exec::LaneWord;
use lbist_fault::{
    CaptureWindow, CoverageReport, Fault, FaultModel, FaultSim, SimPhaseMetrics, StuckAt,
    StuckAtSim, Transition, WideStuckAtSim, WideTransitionSim,
};
use lbist_netlist::NodeId;
use lbist_obs::{Counter, Histogram, Registry};
use lbist_sim::{CompiledCircuit, KernelProgram};
use lbist_tpg::{Gf2Vec, LaneMisr};
use std::sync::Arc;

/// Telemetry handles for the grading pipeline: per-batch phase timers
/// (`fill`/`sim`/`detect`/`absorb` plus the whole-batch wall time) and
/// progress counters. Install on a session via
/// [`WideGradingSession::set_metrics`]; the default handles are no-ops,
/// so an uninstrumented session never reads the clock.
///
/// Telemetry is observational only — with metrics on, off, or exported
/// mid-run, outcomes, digests and checkpoints are bit-identical
/// (enforced by the `metrics_determinism` tests).
///
/// In the pipelined session the `fill` of batch *k+1* overlaps the
/// `sim`+`detect` of batch *k*, so summed phase times can legitimately
/// exceed summed batch wall time.
#[derive(Clone, Debug, Default)]
pub struct GradingMetrics {
    /// Batches fully graded and absorbed (`grading.batches`).
    pub batches: Counter,
    /// Patterns graded (`grading.patterns`).
    pub patterns: Counter,
    /// Fault-grading operations, Σ of active faults entering each batch
    /// (`grading.faults_graded`).
    pub faults_graded: Counter,
    /// PRPG scan-fill time per batch (`grading.fill_ns`).
    pub fill_ns: Histogram,
    /// MISR signature absorption time per batch (`grading.absorb_ns`).
    pub absorb_ns: Histogram,
    /// Whole-batch wall time (`grading.batch_ns`).
    pub batch_ns: Histogram,
    /// The phase, lowering and replay-count handles every run installs
    /// on its fault simulator: `grading.sim_ns`, `grading.detect_ns`,
    /// `sim.kernel.{compile_ns,instrs,fused_gates}`,
    /// `grading.stuck.{stem_replays,stem_hits}` and
    /// `grading.drain_evals`.
    pub sim: SimPhaseMetrics,
}

impl GradingMetrics {
    /// Handles registered under the canonical `grading.*` names (no-ops
    /// when `registry` is disabled).
    pub fn from_registry(registry: &Registry) -> Self {
        GradingMetrics {
            batches: registry.counter("grading.batches"),
            patterns: registry.counter("grading.patterns"),
            faults_graded: registry.counter("grading.faults_graded"),
            fill_ns: registry.histogram("grading.fill_ns"),
            absorb_ns: registry.histogram("grading.absorb_ns"),
            batch_ns: registry.histogram("grading.batch_ns"),
            sim: SimPhaseMetrics {
                sim_ns: registry.histogram("grading.sim_ns"),
                detect_ns: registry.histogram("grading.detect_ns"),
                kernel_compile_ns: registry.histogram("sim.kernel.compile_ns"),
                kernel_instrs: registry.counter("sim.kernel.instrs"),
                kernel_fused_gates: registry.counter("sim.kernel.fused_gates"),
                stem_replays: registry.counter("grading.stuck.stem_replays"),
                stem_hits: registry.counter("grading.stuck.stem_hits"),
                drain_evals: registry.counter("grading.drain_evals"),
            },
        }
    }
}

/// What one graded random phase produced.
#[derive(Clone, Debug, PartialEq)]
pub struct WideGradingOutcome {
    /// Coverage over the graded fault list.
    pub coverage: CoverageReport,
    /// Per-fault detection counts, in fault-list order.
    pub detections: Vec<u32>,
    /// Accumulated fault-free response signature per domain, in domain
    /// order (the XOR-fold of every pattern's unload signature).
    pub signatures: Vec<Gf2Vec>,
    /// Patterns graded.
    pub patterns: u64,
    /// Lanes per pass the phase ran at.
    pub lanes: usize,
    /// Fault-grading operations: Σ over batches of the active-fault
    /// count entering the batch (what the engine actually scans —
    /// shrinks as compaction drops detected faults).
    pub faults_graded: u64,
}

impl WideGradingOutcome {
    /// Indices of faults the phase left undetected — the
    /// width-invariant coverage *set* (detection counts are only exact
    /// across widths when dropping is disabled, because drop timing is
    /// batch-granular).
    pub fn undetected_indices(&self) -> Vec<usize> {
        (0..self.detections.len()).filter(|&i| self.detections[i] == 0).collect()
    }

    /// [`outcome_digest`] over this outcome's undetected set and
    /// signatures — the one-line identity a resumed or replayed run is
    /// diffed against.
    pub fn digest(&self) -> u64 {
        outcome_digest(&self.undetected_indices(), &self.signatures)
    }
}

/// Deterministic digest of a grading verdict: FNV-1a-64 over the
/// undetected-fault set and the accumulated per-domain MISR signatures —
/// exactly the width-invariant identity material, none of the timing.
///
/// Benchmark JSON carries it as the `"digest"` field, and the serve
/// crate's preempt→resume equivalence checks compare it, so an
/// interrupted-and-resumed run can be diffed against an uninterrupted
/// reference on one line (the surrounding throughput numbers
/// legitimately differ run to run).
pub fn outcome_digest(undetected: &[usize], signatures: &[Gf2Vec]) -> u64 {
    let mut h = lbist_ckpt::Fnv64::new();
    h.write_usize(undetected.len());
    for &i in undetected {
        h.write_u64(i as u64);
    }
    h.write_usize(signatures.len());
    for sig in signatures {
        h.write_usize(sig.len());
        for bit in sig.to_bools() {
            h.write(&[bit as u8]);
        }
    }
    h.finish()
}

/// What a controlled (cancellable / budgeted / checkpointed) grading
/// run produced: the (possibly partial) coverage verdict plus how the
/// run ended.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlledGradingOutcome {
    /// Coverage, detections and signatures over the batches that
    /// completed — a partial verdict unless `status.is_complete()`.
    pub outcome: WideGradingOutcome,
    /// How the run ended.
    pub status: RunStatus,
    /// Batches fully graded and absorbed (across resume boundaries).
    pub batches_done: u64,
    /// `Some(batches)` when the run resumed a checkpoint taken at that
    /// batch count.
    pub resumed_from: Option<u64>,
}

/// A whole-session grading run at lane width `W`.
///
/// # Example
///
/// ```no_run
/// use lbist_core::{StumpsConfig, WideGradingSession};
/// use lbist_cores::{CoreProfile, CpuCoreGenerator};
/// use lbist_dft::{prepare_core, PrepConfig};
/// use lbist_fault::FaultUniverse;
/// use lbist_sim::CompiledCircuit;
///
/// let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(400), 1).generate();
/// let core = prepare_core(&nl, &PrepConfig::default());
/// let cc = CompiledCircuit::compile(&core.netlist).unwrap();
/// let faults = FaultUniverse::stuck_at(&core.netlist).representatives();
/// // 128 lanes per pass: 4 batches grade 512 patterns.
/// let mut session: WideGradingSession<'_, u128> =
///     WideGradingSession::new(&core, &cc, &StumpsConfig::default());
/// let outcome = session.run_stuck_at(faults, 4);
/// assert_eq!(outcome.patterns, 512);
/// ```
#[derive(Debug)]
pub struct WideGradingSession<'a, W: LaneWord = u64> {
    core: &'a BistReadyCore,
    cc: &'a CompiledCircuit,
    arch: StumpsArchitecture,
    /// One signature bank per domain, reused across batches.
    banks: Vec<LaneMisr<W>>,
    /// Accumulated per-domain signatures of the current run.
    signatures: Vec<Gf2Vec>,
    threads: Option<usize>,
    drop_after: u32,
    /// `false` disables the fill/grade overlap (the sequential
    /// reference the pipelining equivalence test compares against).
    pipelined: bool,
    /// Telemetry handles (no-op by default; see
    /// [`WideGradingSession::set_metrics`]).
    metrics: GradingMetrics,
    /// Shared compiled program every run grades on (see
    /// [`WideGradingSession::set_kernel_program`]); without one, each
    /// run's simulator lowers its own.
    kernel: Option<Arc<KernelProgram>>,
}

impl<'a, W: LaneWord> WideGradingSession<'a, W> {
    /// Builds the grading session: STUMPS hardware from `config`, one
    /// response-signature bank per domain.
    pub fn new(core: &'a BistReadyCore, cc: &'a CompiledCircuit, config: &StumpsConfig) -> Self {
        let arch = StumpsArchitecture::build(core, config);
        let banks: Vec<LaneMisr<W>> = arch
            .domains()
            .iter()
            .map(|db| LaneMisr::new(db.misr.poly().clone(), db.misr.num_inputs()))
            .collect();
        let signatures = banks.iter().map(|b| Gf2Vec::zeros(b.width())).collect();
        WideGradingSession {
            core,
            cc,
            arch,
            banks,
            signatures,
            threads: None,
            drop_after: 1,
            pipelined: true,
            metrics: GradingMetrics::default(),
            kernel: None,
        }
    }

    /// Sets the grading worker budget (`1` = serial grading; the fill
    /// overlap is unaffected — it is deterministic either way).
    pub fn set_threads(&mut self, n: usize) -> &mut Self {
        self.threads = Some(n);
        self
    }

    /// Sets the n-detect drop budget (default 1). `u32::MAX` disables
    /// dropping, which makes detection *counts* exact across lane
    /// widths (the detected *set* is width-invariant regardless).
    pub fn set_drop_after(&mut self, n: u32) -> &mut Self {
        self.drop_after = n;
        self
    }

    /// Disables the fill/grade pipeline overlap (sequential reference
    /// for the equivalence tests; results are bit-identical).
    pub fn sequential(&mut self) -> &mut Self {
        self.pipelined = false;
        self
    }

    /// Installs telemetry handles: subsequent runs record the per-batch
    /// `fill`/`sim`/`detect`/`absorb` phase trace plus batch wall time
    /// and progress counters. Observational only — outcomes, digests
    /// and checkpoints stay bit-identical (test-enforced).
    pub fn set_metrics(&mut self, metrics: GradingMetrics) -> &mut Self {
        self.metrics = metrics;
        self
    }

    /// Installs a prebuilt compiled program, skipping the per-run
    /// lowering — e.g. one shared through an asset cache across jobs on
    /// the same netlist. The program must target this session's circuit
    /// and have been lowered with a keep set covering every run's fault
    /// list and observation points
    /// ([`lbist_fault::grading_keep_set`]); the fault engines validate
    /// this at plan-build time and panic on a violation.
    pub fn set_kernel_program(&mut self, program: Arc<KernelProgram>) -> &mut Self {
        assert_eq!(
            program.num_nodes(),
            self.cc.num_nodes(),
            "kernel program was lowered from a different netlist"
        );
        self.kernel = Some(program);
        self
    }

    /// The architecture in use.
    pub fn architecture(&self) -> &StumpsArchitecture {
        &self.arch
    }

    /// Lanes graded per pass.
    pub fn lanes(&self) -> usize {
        W::LANES
    }

    /// Grades `batches` random-phase batches (`batches · W::LANES`
    /// patterns) against `faults` under the stuck-at model, compacting
    /// every batch's fault-free responses into the per-domain
    /// signatures. The architecture is reset first, so identical calls
    /// reproduce identical outcomes.
    pub fn run_stuck_at(&mut self, faults: Vec<Fault>, batches: usize) -> WideGradingOutcome {
        self.run_stuck_at_controlled(faults, batches, &RunControl::new())
            .expect("uncontrolled runs perform no checkpoint IO")
            .outcome
    }

    /// The controlled form of [`WideGradingSession::run_stuck_at`]:
    /// observes `control`'s cancel token (at shard granularity inside
    /// the dispatch and at batch boundaries), stops after its batch
    /// budget, checkpoints at batch boundaries, and resumes a prior
    /// checkpoint bit-identically — a killed-and-resumed run produces
    /// the same detected set and signatures as an uninterrupted one
    /// (property-tested in the bench crate).
    ///
    /// Cancellation unwinds cleanly: an interrupted batch leaves no
    /// trace (no merge, no signature absorption, no pattern count), so
    /// the returned partial verdict — and any checkpoint written on
    /// exit — always describes exactly `batches_done` whole batches.
    pub fn run_stuck_at_controlled(
        &mut self,
        faults: Vec<Fault>,
        batches: usize,
        control: &RunControl,
    ) -> Result<ControlledGradingOutcome, CkptError> {
        let observed = StuckAtSim::observe_all_captures(self.cc);
        self.run_controlled(WideStuckAtSim::new(self.cc, faults, observed), batches, control)
    }

    /// Grades `batches` random-phase batches against `faults` under the
    /// launch-on-capture transition model across `window`, compacting
    /// each batch's fault-free end-of-window flip-flop states into the
    /// per-domain signatures.
    pub fn run_transition(
        &mut self,
        faults: Vec<Fault>,
        window: CaptureWindow,
        batches: usize,
    ) -> WideGradingOutcome {
        self.run_transition_controlled(faults, window, batches, &RunControl::new())
            .expect("uncontrolled runs perform no checkpoint IO")
            .outcome
    }

    /// The controlled form of [`WideGradingSession::run_transition`]:
    /// same cancellation / budget / checkpoint-resume semantics as
    /// [`WideGradingSession::run_stuck_at_controlled`].
    pub fn run_transition_controlled(
        &mut self,
        faults: Vec<Fault>,
        window: CaptureWindow,
        batches: usize,
        control: &RunControl,
    ) -> Result<ControlledGradingOutcome, CkptError> {
        self.run_controlled(WideTransitionSim::new(self.cc, faults, window), batches, control)
    }

    /// The controlled run loop both fault models share: resume,
    /// pipelined fill, cancellation, MISR absorption and checkpoints.
    fn run_controlled<M: SessionModel<W>>(
        &mut self,
        mut sim: FaultSim<'a, M, W>,
        batches: usize,
        control: &RunControl,
    ) -> Result<ControlledGradingOutcome, CkptError> {
        let faults_hash = faults_fingerprint(sim.faults());
        self.begin_run();
        if let Some(program) = &self.kernel {
            sim.set_kernel(program.clone());
        }
        sim.set_drop_after(self.drop_after);
        if let Some(n) = self.threads {
            sim.set_threads(n);
        }
        sim.set_cancel(control.cancel.clone());
        sim.set_phase_metrics(self.metrics.sim.clone());

        let netlist_hash = lbist_ckpt::netlist_fingerprint(&self.core.netlist);
        let mut resumed_from = None;
        let mut start_batch = 0u64;
        let mut faults_graded = 0u64;
        if control.resume {
            let ckpt = self.resume_grading(
                control,
                M::TAG,
                netlist_hash,
                faults_hash,
                sim.detections().len(),
            )?;
            sim.restore(&ckpt.detections, ckpt.patterns_run);
            start_batch = ckpt.batches_done;
            faults_graded = ckpt.faults_graded;
            resumed_from = Some(ckpt.batches_done);
        }
        let drop_after = self.drop_after;
        let snapshot = |batches_done: u64,
                        faults_graded: u64,
                        sim: &FaultSim<'_, M, W>,
                        lfsr_states: &[Gf2Vec],
                        banks: &[LaneMisr<W>],
                        signatures: &[Gf2Vec]| GradingCheckpoint {
            netlist_hash,
            faults_hash,
            model: M::TAG,
            lanes: W::LANES as u64,
            drop_after,
            batches_done,
            patterns_run: sim.patterns_run(),
            faults_graded,
            lfsr_states: lfsr_states.to_vec(),
            bank_words: banks.iter().map(LaneMisr::state_words).collect(),
            signatures: signatures.to_vec(),
            detections: sim.detections().to_vec(),
        };

        let cc = self.cc;
        let core = self.core;
        let metrics = self.metrics.clone();
        let arch = &mut self.arch;
        let pipelined = self.pipelined;
        let total = batches as u64;
        let budget_limit = control.budget.map(|b| start_batch.saturating_add(b));
        let mut batches_done = start_batch;
        let mut status = RunStatus::Completed;
        // LFSR snapshot valid for a checkpoint at `batches_done` fills
        // (the pipelined overlap advances the live LFSRs further).
        let mut snap_completed: Vec<Gf2Vec> =
            arch.domains().iter().map(|d| d.prpg.lfsr().state().clone()).collect();
        let mut cur: Vec<W> = cc.new_wide_frame();
        let mut next: Vec<W> = cc.new_wide_frame();
        if start_batch < total {
            let _fill_span = metrics.fill_ns.start();
            fill_frame_from_prpg(arch, core, &mut cur);
        }
        for batch in start_batch..total {
            if budget_limit.is_some_and(|limit| batches_done >= limit) {
                status = RunStatus::BudgetExhausted;
                break;
            }
            if let Some(cancelled) = control.cancelled_status() {
                status = cancelled;
                break;
            }
            // Spans the whole iteration: grade + overlapped fill +
            // absorb + checkpoint write.
            let _batch_span = metrics.batch_ns.start();
            // The LFSRs sit at fill position `batch + 1` here — the
            // state a checkpoint taken after this batch must record.
            let snap_next: Vec<Gf2Vec> =
                arch.domains().iter().map(|d| d.prpg.lfsr().state().clone()).collect();
            let last = batch + 1 == total;
            let active_before = sim.active_faults() as u64;
            let graded = if last || !pipelined {
                let graded = M::grade(&mut sim, &mut cur);
                if graded.is_some() && !last {
                    let _fill_span = metrics.fill_ns.start();
                    fill_frame_from_prpg(arch, core, &mut next);
                }
                graded
            } else {
                // Fill batch k+1 while grading batch k: disjoint state
                // (PRPG stream vs simulator + current frame), so the
                // overlap cannot change results.
                let sim = &mut sim;
                let cur = &mut cur;
                let next = &mut next;
                let fill_ns = &metrics.fill_ns;
                let (graded, ()) = lbist_exec::join(
                    || M::grade(sim, cur),
                    || {
                        let _fill_span = fill_ns.start();
                        fill_frame_from_prpg(arch, core, next)
                    },
                );
                graded
            };
            if graded.is_none() {
                // Cancelled mid-batch: the simulator discarded the
                // batch, so state still describes `batches_done`.
                status = control
                    .cancelled_status()
                    .unwrap_or(RunStatus::Cancelled(lbist_exec::CancelReason::Requested));
                break;
            }
            faults_graded += active_before;
            {
                let _absorb_span = metrics.absorb_ns.start();
                absorb_batch(arch, &mut self.banks, &mut self.signatures, |cell| {
                    M::captured(&sim, cc, &cur, cell)
                });
            }
            batches_done += 1;
            metrics.batches.inc();
            metrics.patterns.add(W::LANES as u64);
            metrics.faults_graded.add(active_before);
            snap_completed = snap_next;
            std::mem::swap(&mut cur, &mut next);
            if let Some(spec) = &control.checkpoint {
                if spec.every > 0
                    && (batches_done - start_batch).is_multiple_of(spec.every)
                    && batches_done < total
                {
                    let (banks, sigs) = (&self.banks, &self.signatures);
                    snapshot(batches_done, faults_graded, &sim, &snap_completed, banks, sigs)
                        .save(&spec.path)?;
                }
            }
        }
        if let Some(spec) = &control.checkpoint {
            let (banks, sigs) = (&self.banks, &self.signatures);
            snapshot(batches_done, faults_graded, &sim, &snap_completed, banks, sigs)
                .save(&spec.path)?;
        }

        Ok(ControlledGradingOutcome {
            outcome: WideGradingOutcome {
                coverage: sim.coverage(),
                detections: sim.detections().to_vec(),
                signatures: self.signatures.clone(),
                patterns: batches_done * W::LANES as u64,
                lanes: W::LANES,
                faults_graded,
            },
            status,
            batches_done,
            resumed_from,
        })
    }

    /// Loads `control`'s checkpoint, validates it against this session
    /// and workload, and restores architecture-side state (PRPG LFSRs,
    /// MISR banks, accumulated signatures). The caller restores the
    /// simulator from the returned checkpoint's detections.
    fn resume_grading(
        &mut self,
        control: &RunControl,
        model: ModelTag,
        netlist_hash: u64,
        faults_hash: u64,
        num_faults: usize,
    ) -> Result<GradingCheckpoint, CkptError> {
        let spec = control.checkpoint.as_ref().ok_or_else(|| {
            CkptError::Mismatch("resume requested without a checkpoint spec".into())
        })?;
        let ckpt = GradingCheckpoint::load(&spec.path)?;
        expect_field("netlist fingerprint", ckpt.netlist_hash, netlist_hash)?;
        expect_field("fault-list fingerprint", ckpt.faults_hash, faults_hash)?;
        expect_field("fault model", ckpt.model, model)?;
        expect_field("lane width", ckpt.lanes, W::LANES as u64)?;
        expect_field("drop budget", ckpt.drop_after, self.drop_after)?;
        expect_field("fault count", ckpt.detections.len(), num_faults)?;
        expect_field("domain count", ckpt.lfsr_states.len(), self.arch.domains().len())?;
        expect_field("bank count", ckpt.bank_words.len(), self.banks.len())?;
        expect_field("signature count", ckpt.signatures.len(), self.signatures.len())?;
        for (db, state) in self.arch.domains().iter().zip(&ckpt.lfsr_states) {
            expect_field("PRPG width", state.len(), db.prpg.lfsr().len())?;
        }
        for (bank, words) in self.banks.iter().zip(&ckpt.bank_words) {
            expect_field("MISR bank words", words.len(), bank.width() * W::WORDS)?;
        }
        for (sig, cur) in ckpt.signatures.iter().zip(&self.signatures) {
            expect_field("signature width", sig.len(), cur.len())?;
        }
        for (db, state) in self.arch.domains_mut().iter_mut().zip(&ckpt.lfsr_states) {
            db.prpg.lfsr_mut().set_state(state.clone());
        }
        for (bank, words) in self.banks.iter_mut().zip(&ckpt.bank_words) {
            bank.load_state_words(words);
        }
        self.signatures = ckpt.signatures.clone();
        Ok(ckpt)
    }

    fn begin_run(&mut self) {
        self.arch.reset();
        for bank in &mut self.banks {
            bank.reset();
        }
        for sig in &mut self.signatures {
            *sig = Gf2Vec::zeros(sig.len());
        }
    }
}

/// The per-model half of [`WideGradingSession`]'s run loop: how a
/// filled frame is graded and which word the unload shifts out of each
/// scan cell afterwards. Everything else is shared.
trait SessionModel<W: LaneWord>: FaultModel<W> + Sized {
    /// The checkpoint tag of the model.
    const TAG: ModelTag;
    /// Grades one filled frame, every lane a pattern.
    fn grade(sim: &mut FaultSim<'_, Self, W>, frame: &mut [W]) -> Option<usize>;
    /// The response `cell` captured in the batch just graded from `frame`.
    fn captured(sim: &FaultSim<'_, Self, W>, cc: &CompiledCircuit, frame: &[W], cell: NodeId) -> W;
}

impl<W: LaneWord> SessionModel<W> for StuckAt {
    const TAG: ModelTag = ModelTag::StuckAt;
    fn grade(sim: &mut WideStuckAtSim<'_, W>, frame: &mut [W]) -> Option<usize> {
        sim.try_run_batch(frame, W::LANES)
    }
    /// `frame` now holds the fault-free evaluation: captured responses
    /// are the D-pin words the capture latches.
    fn captured(_: &WideStuckAtSim<'_, W>, cc: &CompiledCircuit, frame: &[W], cell: NodeId) -> W {
        frame[cc.fanins(cell)[0].index()]
    }
}

impl<W: LaneWord> SessionModel<W> for Transition<W> {
    const TAG: ModelTag = ModelTag::Transition;
    fn grade(sim: &mut WideTransitionSim<'_, W>, frame: &mut [W]) -> Option<usize> {
        sim.try_run_batch(frame, W::LANES)
    }
    /// The unload observes the end-of-window flip-flop states.
    fn captured(sim: &WideTransitionSim<'_, W>, _: &CompiledCircuit, _: &[W], cell: NodeId) -> W {
        sim.last_good_frame()[cell.index()]
    }
}

/// Compacts one batch's fault-free responses: for every domain, every
/// unload cycle feeds the chain-tail words through the space compactor
/// into the domain's [`LaneMisr`] bank; the bank's lane signatures then
/// fold (XOR) into the accumulated domain signature. Unload cycle `s`
/// emits chain cell `len-1-s` (scan-out end first); exhausted chains
/// contribute zero — a fixed convention, identical at every width.
fn absorb_batch<W: LaneWord>(
    arch: &StumpsArchitecture,
    banks: &mut [LaneMisr<W>],
    signatures: &mut [Gf2Vec],
    captured: impl Fn(NodeId) -> W,
) {
    let shift_cycles = arch.max_chain_length().max(1);
    let mut tails: Vec<W> = Vec::new();
    let mut compacted: Vec<W> = Vec::new();
    for ((dom, bank), sig) in arch.domains().iter().zip(banks).zip(signatures) {
        compacted.clear();
        compacted.resize(dom.compactor.num_outputs(), W::zero());
        for s in 0..shift_cycles {
            tails.clear();
            for chain in &dom.chains {
                let cells = &chain.cells;
                let w =
                    if s < cells.len() { captured(cells[cells.len() - 1 - s]) } else { W::zero() };
                tails.push(w);
            }
            // Domains sized for at least one chain input pad with zero.
            tails.resize(dom.compactor.num_chains(), W::zero());
            dom.compactor.compact_words(&tails, &mut compacted);
            bank.clock(&compacted);
        }
        sig.xor_assign(&bank.folded_signature(W::LANES));
        bank.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_cores::{CoreProfile, CpuCoreGenerator};
    use lbist_dft::{prepare_core, PrepConfig, TpiMethod};
    use lbist_fault::FaultUniverse;

    fn core() -> BistReadyCore {
        let nl = CpuCoreGenerator::new(CoreProfile::core_x().scaled(500), 23).generate();
        prepare_core(
            &nl,
            &PrepConfig {
                total_chains: 6,
                obs_budget: 0,
                tpi: TpiMethod::None,
                ..PrepConfig::default()
            },
        )
    }

    /// The pipelined loop (fill k+1 while grading k) is bit-identical
    /// to the sequential loop, for both fault models.
    #[test]
    fn pipelined_and_sequential_runs_are_bit_identical() {
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let stuck = FaultUniverse::stuck_at(&c.netlist).representatives();
        let transition: Vec<Fault> = FaultUniverse::transition(&c.netlist)
            .representatives()
            .into_iter()
            .filter(|f| f.is_stem())
            .collect();
        let stumps = StumpsConfig::default();

        let mut pipelined: WideGradingSession<'_, u128> = WideGradingSession::new(&c, &cc, &stumps);
        let mut sequential: WideGradingSession<'_, u128> =
            WideGradingSession::new(&c, &cc, &stumps);
        sequential.sequential();

        let a = pipelined.run_stuck_at(stuck.clone(), 3);
        let b = sequential.run_stuck_at(stuck.clone(), 3);
        assert_eq!(a, b, "stuck-at: pipelining changed the outcome");
        assert!(a.coverage.detected > 0);
        assert!(a.signatures.iter().any(|s| !s.is_zero()));

        let window = CaptureWindow::all_domains(c.netlist.num_domains().max(1));
        let a = pipelined.run_transition(transition.clone(), window.clone(), 3);
        let b = sequential.run_transition(transition, window, 3);
        assert_eq!(a, b, "transition: pipelining changed the outcome");
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("lbist-grading-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Kill-at-batch + resume is bit-identical to an uninterrupted run,
    /// for both fault models, at every kill point.
    #[test]
    fn killed_and_resumed_runs_match_uninterrupted() {
        use crate::checkpoint::{CheckpointSpec, RunControl, RunStatus};
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let stuck = FaultUniverse::stuck_at(&c.netlist).representatives();
        let stumps = StumpsConfig::default();
        let batches = 4;
        let dir = scratch_dir("kill");

        let mut reference: WideGradingSession<'_, u128> = WideGradingSession::new(&c, &cc, &stumps);
        let want = reference.run_stuck_at(stuck.clone(), batches);

        for kill_after in 0..=batches as u64 {
            let path = dir.join(format!("kill-{kill_after}.ckpt"));
            let spec = CheckpointSpec::new(&path, 1);
            let mut session: WideGradingSession<'_, u128> =
                WideGradingSession::new(&c, &cc, &stumps);
            let killed = session
                .run_stuck_at_controlled(
                    stuck.clone(),
                    batches,
                    &RunControl {
                        budget: Some(kill_after),
                        checkpoint: Some(spec.clone()),
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(killed.batches_done, kill_after);
            if kill_after < batches as u64 {
                assert_eq!(killed.status, RunStatus::BudgetExhausted);
            } else {
                assert_eq!(killed.status, RunStatus::Completed);
            }
            let resumed = session
                .run_stuck_at_controlled(
                    stuck.clone(),
                    batches,
                    &RunControl { checkpoint: Some(spec), resume: true, ..Default::default() },
                )
                .unwrap();
            assert_eq!(resumed.status, RunStatus::Completed);
            assert_eq!(resumed.resumed_from, Some(kill_after));
            assert_eq!(resumed.outcome, want, "kill at batch {kill_after} diverged");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Transition grading kills and resumes bit-identically too.
    #[test]
    fn transition_kill_resume_matches() {
        use crate::checkpoint::{CheckpointSpec, RunControl};
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let faults: Vec<Fault> = FaultUniverse::transition(&c.netlist)
            .representatives()
            .into_iter()
            .filter(|f| f.is_stem())
            .collect();
        let window = CaptureWindow::all_domains(c.netlist.num_domains().max(1));
        let stumps = StumpsConfig::default();
        let dir = scratch_dir("transition");
        let path = dir.join("t.ckpt");

        let mut reference: WideGradingSession<'_, u64> = WideGradingSession::new(&c, &cc, &stumps);
        let want = reference.run_transition(faults.clone(), window.clone(), 3);

        let mut session: WideGradingSession<'_, u64> = WideGradingSession::new(&c, &cc, &stumps);
        session
            .run_transition_controlled(
                faults.clone(),
                window.clone(),
                3,
                &RunControl {
                    budget: Some(2),
                    checkpoint: Some(CheckpointSpec::new(&path, 1)),
                    ..Default::default()
                },
            )
            .unwrap();
        let resumed = session
            .run_transition_controlled(
                faults,
                window,
                3,
                &RunControl {
                    checkpoint: Some(CheckpointSpec::new(&path, 1)),
                    resume: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(resumed.outcome, want);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One fault model's workload, run through its controlled entry
    /// point, so a scenario can be checked under both models.
    enum Workload {
        StuckAt(Vec<Fault>),
        Transition(Vec<Fault>, CaptureWindow),
    }

    impl Workload {
        fn both(c: &BistReadyCore) -> [Workload; 2] {
            let transition = FaultUniverse::transition(&c.netlist)
                .representatives()
                .into_iter()
                .filter(|f| f.is_stem())
                .collect();
            let window = CaptureWindow::all_domains(c.netlist.num_domains().max(1));
            [
                Workload::StuckAt(FaultUniverse::stuck_at(&c.netlist).representatives()),
                Workload::Transition(transition, window),
            ]
        }

        /// The same workload minus its last fault.
        fn truncated(&self) -> Workload {
            match self {
                Workload::StuckAt(f) => Workload::StuckAt(f[..f.len() - 1].to_vec()),
                Workload::Transition(f, w) => {
                    Workload::Transition(f[..f.len() - 1].to_vec(), w.clone())
                }
            }
        }

        fn run<W: LaneWord>(
            &self,
            session: &mut WideGradingSession<'_, W>,
            batches: usize,
            control: &RunControl,
        ) -> Result<ControlledGradingOutcome, CkptError> {
            match self {
                Workload::StuckAt(f) => {
                    session.run_stuck_at_controlled(f.clone(), batches, control)
                }
                Workload::Transition(f, w) => {
                    session.run_transition_controlled(f.clone(), w.clone(), batches, control)
                }
            }
        }
    }

    /// A fired cancel token stops the run at a clean batch boundary
    /// with a partial verdict; a pre-fired token grades nothing. Both
    /// fault models unwind the same way.
    #[test]
    fn cancellation_unwinds_to_partial_verdict() {
        use crate::checkpoint::{RunControl, RunStatus};
        use lbist_exec::{CancelReason, CancelToken};
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        for workload in Workload::both(&c) {
            let token = CancelToken::new();
            token.cancel();
            let mut session: WideGradingSession<'_, u64> =
                WideGradingSession::new(&c, &cc, &StumpsConfig::default());
            let out = workload.run(&mut session, 3, &RunControl::with_cancel(token)).unwrap();
            assert_eq!(out.status, RunStatus::Cancelled(CancelReason::Requested));
            assert_eq!(out.batches_done, 0);
            assert_eq!(out.outcome.patterns, 0);
            assert!(out.outcome.signatures.iter().all(|s| s.is_zero()));

            // An expired deadline reports the deadline reason.
            let expired = RunControl::with_deadline(std::time::Duration::ZERO);
            let out = workload.run(&mut session, 3, &expired).unwrap();
            assert_eq!(out.status, RunStatus::Cancelled(CancelReason::Deadline));
        }
    }

    /// Resume validates the workload: a different fault list, lane
    /// width, drop budget or fault model is rejected with a mismatch,
    /// not silently regraded — under both fault models.
    #[test]
    fn resume_rejects_mismatched_workload() {
        use crate::checkpoint::{CheckpointSpec, RunControl};
        use lbist_ckpt::CkptError;
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let stumps = StumpsConfig::default();
        let dir = scratch_dir("mismatch");
        let workloads = Workload::both(&c);
        let resume_from = |i: usize| RunControl {
            checkpoint: Some(CheckpointSpec::new(dir.join(format!("m{i}.ckpt")), 1)),
            resume: true,
            ..Default::default()
        };
        let mut session: WideGradingSession<'_, u64> = WideGradingSession::new(&c, &cc, &stumps);
        for (i, workload) in workloads.iter().enumerate() {
            let spec = CheckpointSpec::new(dir.join(format!("m{i}.ckpt")), 1);
            let first =
                RunControl { budget: Some(1), checkpoint: Some(spec), ..Default::default() };
            workload.run(&mut session, 3, &first).unwrap();

            let resume = resume_from(i);
            // Truncated fault list.
            assert!(matches!(
                workload.truncated().run(&mut session, 3, &resume),
                Err(CkptError::Mismatch(_))
            ));
            // Different drop budget.
            session.set_drop_after(7);
            assert!(matches!(workload.run(&mut session, 3, &resume), Err(CkptError::Mismatch(_))));
            session.set_drop_after(1);
            // Different lane width.
            let mut wide: WideGradingSession<'_, u128> = WideGradingSession::new(&c, &cc, &stumps);
            assert!(matches!(workload.run(&mut wide, 3, &resume), Err(CkptError::Mismatch(_))));
        }
        // A stuck-at checkpoint never resumes a transition run.
        assert!(matches!(
            workloads[1].run(&mut session, 3, &resume_from(0)),
            Err(CkptError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A session whose simulators lower their own program and one sharing
    /// a prebuilt program produce bit-identical whole-session outcomes —
    /// detections, coverage, signatures and digest — for both fault
    /// models. (Detection against the reference grader is checked in
    /// `lbist-fault`'s tests and the oracle property tests.)
    #[test]
    fn kernel_and_interpreter_sessions_are_bit_identical() {
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let stuck = FaultUniverse::stuck_at(&c.netlist).representatives();
        let transition: Vec<Fault> = FaultUniverse::transition(&c.netlist)
            .representatives()
            .into_iter()
            .filter(|f| f.is_stem())
            .collect();
        let stumps = StumpsConfig::default();

        let mut lowered: WideGradingSession<'_, u64> = WideGradingSession::new(&c, &cc, &stumps);
        let stuck_lowered = lowered.run_stuck_at(stuck.clone(), 3);
        assert!(stuck_lowered.coverage.detected > 0);
        let window = CaptureWindow::all_domains(c.netlist.num_domains().max(1));
        let trans_lowered = lowered.run_transition(transition.clone(), window.clone(), 3);

        // A prebuilt program whose keep set covers both fault lists
        // serves both models and matches the per-run lowering.
        let observed = lbist_fault::StuckAtSim::observe_all_captures(&cc);
        let keep = lbist_fault::grading_keep_set(
            &cc,
            &[stuck.as_slice(), transition.as_slice()],
            &observed,
        );
        let program = Arc::new(KernelProgram::lower(&cc, &keep));
        let mut shared: WideGradingSession<'_, u64> = WideGradingSession::new(&c, &cc, &stumps);
        shared.set_kernel_program(program);
        let stuck_shared = shared.run_stuck_at(stuck, 3);
        assert_eq!(stuck_shared, stuck_lowered, "stuck-at: prebuilt program diverged");
        assert_eq!(stuck_shared.digest(), stuck_lowered.digest());
        assert_eq!(
            shared.run_transition(transition, window, 3),
            trans_lowered,
            "transition: prebuilt program diverged"
        );
    }

    /// Reruns of the same session reproduce the same outcome (the
    /// architecture and signature state reset per run).
    #[test]
    fn reruns_are_deterministic() {
        let c = core();
        let cc = CompiledCircuit::compile(&c.netlist).unwrap();
        let faults = FaultUniverse::stuck_at(&c.netlist).representatives();
        let mut session: WideGradingSession<'_, u128> =
            WideGradingSession::new(&c, &cc, &StumpsConfig::default());
        let a = session.run_stuck_at(faults.clone(), 2);
        let b = session.run_stuck_at(faults, 2);
        assert_eq!(a, b);
        assert_eq!(a.patterns, 256);
        assert_eq!(a.lanes, 128);
    }
}
