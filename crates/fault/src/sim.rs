//! The batch-grading core both fault models share: one simulator type,
//! [`FaultSim`], generic over a sealed [`FaultModel`].
//!
//! Everything about a batch that does not depend on the fault model is
//! written once here: the level-sorted active list, the thread budget,
//! the n-detect drop budget, the cancel token and phase timers, the
//! kernel program and replay plan built at the first batch, shard
//! dispatch under panic containment, and the serial merge with
//! order-keeping compaction. A model supplies only its observation set,
//! its fault-free evaluation, its replay plan and its per-fault shard
//! replay on the compiled kernel. The model is a type parameter, so it
//! is chosen at compile time: no dynamic dispatch and no per-fault
//! branch on the model.

use crate::coverage::CoverageReport;
use crate::kernel::{grading_keep_set, KernelScratch};
use crate::phases::SimPhaseMetrics;
use crate::Fault;
use lbist_exec::{CancelToken, LaneWord, RetryPolicy};
use lbist_netlist::NodeId;
use lbist_sim::{CompiledCircuit, KernelProgram};
use std::fmt::Debug;
use std::sync::Arc;

/// How many faults a shard grades between cancellation polls: frequent
/// enough that a fired token unwinds within microseconds of work, rare
/// enough that the atomic load is invisible in profiles.
pub(crate) const CANCEL_POLL_STRIDE: usize = 64;

mod sealed {
    pub trait Sealed {}
    impl Sealed for crate::StuckAt {}
    impl<W> Sealed for crate::Transition<W> {}
}

/// A fault model [`FaultSim`] grades: [`crate::StuckAt`] (single-frame
/// PPSFP) or [`crate::Transition`] (launch-on-capture across the
/// double-capture window). Sealed — the two models are the only
/// implementations.
///
/// The items are the simulator core's hooks; callers use the
/// [`FaultSim`] methods instead. The hooks name crate-internal types
/// (`Batch`, the kernel plans), which are `pub` only so this public
/// trait can name them: no path outside the crate reaches them.
pub trait FaultModel<W: LaneWord>: Debug + Send + Sync + sealed::Sealed {
    /// What a batch hands the simulator: the caller's value frame,
    /// evaluated in place (`&mut [W]`, stuck-at), or the window's base
    /// frame, read only (`&[W]`, transition).
    type Frame<'f>: Sync;
    /// The model's kernel replay plan, built once per program.
    type Plan: Debug + Send + Sync;
    /// Minimum faults per shard before auto mode engages another worker
    /// or splits off another shard: below it, dispatch and per-shard
    /// set-up cost more than the grading.
    const MIN_SHARD_FAULTS: usize;

    /// The observation set the simulator's own program is lowered for
    /// (with the fault sites and capture sources, see
    /// [`grading_keep_set`]).
    fn observed(&self, cc: &CompiledCircuit) -> Vec<NodeId>;

    /// Runs the batch's fault-free evaluation on `prog`, which `plan`
    /// was built for.
    fn evaluate(&mut self, prog: &KernelProgram, plan: &Self::Plan, frame: &mut Self::Frame<'_>);

    /// Builds the kernel replay plan for `faults`, validating that the
    /// program materializes every node the replay reads.
    fn plan(&self, prog: &KernelProgram, cc: &CompiledCircuit, faults: &[Fault]) -> Self::Plan;

    /// Grades one shard on the compiled kernel.
    #[allow(clippy::too_many_arguments)]
    fn kernel_shard(
        &self,
        batch: &Batch<'_, W>,
        frame: &Self::Frame<'_>,
        prog: &KernelProgram,
        plan: &Self::Plan,
        shard: &[u32],
        scratch: &mut KernelScratch<W>,
        out: &mut [W],
    );
}

/// What every shard of one batch reads: the circuit, the fault list,
/// the mask of lanes carrying real patterns, and the cancel token.
pub struct Batch<'b, W> {
    pub(crate) cc: &'b CompiledCircuit,
    pub(crate) faults: &'b [Fault],
    pub(crate) lane_mask: W,
    pub(crate) cancel: Option<&'b CancelToken>,
}

impl<W: LaneWord> Batch<'_, W> {
    pub(crate) fn cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Writes `grade(fault index, fault)`, lane-masked, for every fault
    /// of `shard` into `out`. Polls the cancel token every
    /// [`CANCEL_POLL_STRIDE`] faults and returns early when it fires (the
    /// caller then discards the whole batch).
    pub(crate) fn each(
        &self,
        shard: &[u32],
        out: &mut [W],
        mut grade: impl FnMut(u32, &Fault) -> W,
    ) {
        debug_assert_eq!(shard.len(), out.len());
        for (i, (&fault_idx, slot)) in shard.iter().zip(out.iter_mut()).enumerate() {
            if i % CANCEL_POLL_STRIDE == 0 && self.cancelled() {
                return;
            }
            *slot = grade(fault_idx, &self.faults[fault_idx as usize]).and(self.lane_mask);
        }
    }
}

/// Parallel-pattern fault simulator, generic over the fault model and
/// the lane width (64/128 patterns per pass for `u64`/`u128` frames).
/// Use it through the aliases
/// [`crate::StuckAtSim`]/[`crate::WideStuckAtSim`] and
/// [`crate::TransitionSim`]/[`crate::WideTransitionSim`].
///
/// Each [`FaultSim::run_batch`] grades up to `W::LANES` patterns: the
/// model runs the fault-free evaluation, then every still-active fault
/// is replayed against it and yields a per-lane detection word. Detected
/// faults are dropped once their n-detect budget is met. Coverage is
/// **width-invariant**: a wide run grades the same patterns as the
/// equivalent sequence of 64-lane batches and reports bit-identical
/// detection counts (enforced by property tests in the bench crate).
///
/// # Parallel grading
///
/// Faults are graded independently against the shared fault-free
/// evaluation, so the simulator shards the **active-fault list** across
/// the persistent `lbist-exec` pool. Each worker owns a
/// replay scratch (reused across batches) and writes per-fault
/// detection words into its own slice of the batch result; the serial
/// merge then updates n-detect counts and compacts the active list so
/// later batches stop scanning dropped faults. The active list is
/// ordered by logic level, and compaction keeps that order, so each
/// shard walks a cache-friendly band of the circuit.
///
/// Because every fault's detection word depends only on the fault-free
/// evaluation — never on other faults or on scheduling — parallel and
/// serial grading produce **bit-identical** detection counts and
/// coverage. [`FaultSim::serial`] pins grading to the calling thread
/// for debugging or strict single-thread environments.
///
/// # Engine
///
/// Grading runs on the compiled kernel: the fault-free evaluation
/// executes a [`KernelProgram`] as flat bytecode, and faults replay
/// over it through one event drain (see the `kernel` module). The
/// simulator lowers its own program at its first batch, from its
/// circuit, its fault list and the model's observation set; a caller
/// sharing one program across simulators installs it with
/// [`FaultSim::set_kernel`] instead. Detection counts equal those of
/// the slow reference grader in [`crate::oracle`] (property-tested).
#[derive(Debug)]
pub struct FaultSim<'a, M: FaultModel<W>, W: LaneWord = u64> {
    cc: &'a CompiledCircuit,
    faults: Vec<Fault>,
    /// Indices into `faults` still being graded, ordered by logic level
    /// (then node) for shard locality; dropped faults are compacted out
    /// in order.
    active: Vec<u32>,
    detections: Vec<u32>,
    drop_after: u32,
    patterns_run: u64,
    /// Worker budget for a batch (1 = serial).
    threads: usize,
    /// `true` until [`FaultSim::set_threads`] is called: in auto mode
    /// the worker count also respects the model's minimum shard size;
    /// an explicit budget is honoured exactly (tests force sharding on
    /// tiny lists).
    threads_auto: bool,
    /// Compiled kernel program: lowered at the first batch unless
    /// installed with [`FaultSim::set_kernel`].
    kernel: Option<Arc<KernelProgram>>,
    /// Kernel replay plan, built at the first batch from the program.
    plan: Option<M::Plan>,
    /// One kernel replay scratch per worker.
    kscratch: Vec<KernelScratch<W>>,
    /// Per-active-fault detection words of the current batch (aligned
    /// with `active`, compacted in lockstep during the merge).
    batch_det: Vec<W>,
    /// Cooperative cancellation: polled at batch entry, every
    /// [`CANCEL_POLL_STRIDE`] faults within a shard, and before the
    /// merge. A cancelled batch is never merged, so the simulator state
    /// stays at the last completed batch — clean to checkpoint.
    cancel: Option<CancelToken>,
    /// Per-batch phase timers (no-op unless a session installs real
    /// handles via [`FaultSim::set_phase_metrics`]).
    phases: SimPhaseMetrics,
    pub(crate) model: M,
}

impl<'a, M: FaultModel<W>, W: LaneWord> FaultSim<'a, M, W> {
    /// The shared constructor behind each model's `new`: every fault
    /// active, level-major order, drop after one detection, every
    /// available hardware thread.
    pub(crate) fn with_model(cc: &'a CompiledCircuit, faults: Vec<Fault>, model: M) -> Self {
        let n = faults.len();
        FaultSim {
            active: level_order(cc, &faults, 0..n as u32),
            cc,
            faults,
            detections: vec![0; n],
            drop_after: 1,
            patterns_run: 0,
            threads: lbist_exec::current_num_threads(),
            threads_auto: true,
            kernel: None,
            plan: None,
            kscratch: Vec::new(),
            batch_det: Vec::new(),
            cancel: None,
            phases: SimPhaseMetrics::default(),
            model,
        }
    }

    /// Pins grading to the calling thread. Coverage is bit-identical to
    /// parallel grading (enforced by tests); this is the determinism
    /// escape hatch for debugging and strict single-thread environments.
    pub fn serial(mut self) -> Self {
        self.set_threads(1);
        self
    }

    /// Sets the worker-thread budget for subsequent batches (`1` =
    /// serial). Capped shard-wise by the number of active faults.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_threads(&mut self, n: usize) {
        assert!(n > 0, "at least one grading thread is required");
        self.threads = n;
        self.threads_auto = false;
    }

    /// The current worker-thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the n-detect budget: faults are simulated until detected by
    /// `n` patterns (default 1), then dropped.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn set_drop_after(&mut self, n: u32) {
        assert!(n > 0, "drop budget must be at least 1");
        self.drop_after = n;
    }

    /// Installs a shared compiled kernel program in place of the one
    /// the simulator would lower at its first batch — e.g. one program
    /// serving several simulators on the same circuit.
    ///
    /// The program must have been lowered from this simulator's circuit
    /// with a keep set covering this fault list and observation set —
    /// use [`crate::grading_keep_set`]. Violations panic at the next
    /// batch, never misgrade silently.
    ///
    /// # Panics
    ///
    /// Panics if the program's node count differs from the circuit's.
    pub fn set_kernel(&mut self, kernel: Arc<KernelProgram>) {
        assert_eq!(
            kernel.num_nodes(),
            self.cc.num_nodes(),
            "kernel program was lowered from a different circuit"
        );
        self.kernel = Some(kernel);
        self.plan = None;
        self.kscratch.clear();
    }

    /// Number of faults still actively graded (shrinks as faults drop —
    /// the compaction that keeps late batches cheap).
    pub fn active_faults(&self) -> usize {
        self.active.len()
    }

    /// Installs (or clears) a cancellation token polled by subsequent
    /// batches; see [`FaultSim::try_run_batch`].
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// Installs phase timers: each batch records its fault-free
    /// evaluation time into `phases.sim_ns` and its sharded replay plus
    /// merge time into `phases.detect_ns`, and adds its replay counts to
    /// the `phases` counters; the first batch's lowering records into
    /// the `phases.kernel_*` handles. Timing is observational only —
    /// grading results are bit-identical with or without it.
    pub fn set_phase_metrics(&mut self, phases: SimPhaseMetrics) {
        self.phases = phases;
    }

    /// Grades one batch; `num_patterns` (1..=`W::LANES`) marks how many
    /// lanes carry real patterns. Returns the number of faults newly
    /// dropped by this batch.
    ///
    /// * Stuck-at: the caller must have loaded the source words of
    ///   `frame` (inputs, flip-flop states, X-source substitutes); on
    ///   return `frame` holds the fault-free evaluation.
    /// * Transition: `frame` carries the scan state in its flip-flop
    ///   words and the held PI values; it is consumed as window frame
    ///   F0.
    ///
    /// # Panics
    ///
    /// Panics if `num_patterns` is 0 or exceeds `W::LANES`, or if a
    /// cancellation token installed via [`FaultSim::set_cancel`] has
    /// fired (use [`FaultSim::try_run_batch`] on cancellable paths).
    pub fn run_batch(&mut self, frame: M::Frame<'_>, num_patterns: usize) -> usize {
        self.try_run_batch(frame, num_patterns)
            .expect("batch cancelled: cancellable callers must use try_run_batch")
    }

    /// Cancellable [`FaultSim::run_batch`]: returns `None` — with the
    /// batch **discarded, not merged** — once the installed token fires.
    /// Counts, the active list, and `patterns_run` then still describe
    /// the last completed batch, so the simulator is in a clean state to
    /// checkpoint or resume.
    ///
    /// Shards are graded under panic containment (bounded retries, then
    /// serial degrade) and poll the token every 64 faults.
    pub fn try_run_batch(&mut self, mut frame: M::Frame<'_>, num_patterns: usize) -> Option<usize> {
        let cancel = self.cancel.as_ref();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return None;
        }
        let cc = self.cc;
        if self.plan.is_none() {
            // One-time lowering and replay-plan construction are
            // detection machinery — charged to the detect span so the
            // phase trace still accounts for the batch wall time.
            let _setup_span = self.phases.detect_ns.start();
            let prog = self.kernel.get_or_insert_with(|| {
                let _lower_span = self.phases.kernel_compile_ns.start();
                let keep = grading_keep_set(cc, &[&self.faults], &self.model.observed(cc));
                let prog = KernelProgram::lower(cc, &keep);
                self.phases.kernel_instrs.add(prog.stats().instrs as u64);
                self.phases.kernel_fused_gates.add(prog.stats().fused_gates as u64);
                Arc::new(prog)
            });
            self.plan = Some(self.model.plan(prog, cc, &self.faults));
        }
        let (Some(prog), Some(plan)) = (self.kernel.as_deref(), &self.plan) else {
            unreachable!("the program and plan are built above");
        };
        let lane_mask = W::mask_lanes(num_patterns);
        {
            let _sim_span = self.phases.sim_ns.start();
            self.model.evaluate(prog, plan, &mut frame);
        }

        let n_active = self.active.len();
        self.batch_det.clear();
        self.batch_det.resize(n_active, W::zero());
        if n_active == 0 {
            self.patterns_run += num_patterns as u64;
            return Some(0);
        }

        // In auto mode each worker, and each extra shard the dispatcher
        // splits off for balance, must own a meaningful shard: pool
        // tasks and per-shard set-up for a handful of survivors (late
        // batches after compaction) would cost more than the grading
        // itself. An explicit budget is honoured exactly.
        let min_shard = self.threads_auto.then_some(M::MIN_SHARD_FAULTS);
        let workers = lbist_exec::worker_budget(self.threads, n_active, min_shard);

        // One detect span covers dispatch, retries, and the serial
        // merge below (it records on every exit path, cancelled included
        // — a discarded batch still spent the time).
        let _detect_span = self.phases.detect_ns.start();
        let batch = Batch { cc, faults: &self.faults, lane_mask, cancel };
        let (model, frame) = (&self.model, &frame);
        lbist_exec::resilient_chunks_with_scratch(
            &self.active,
            &mut self.batch_det,
            workers,
            min_shard,
            &mut self.kscratch,
            || KernelScratch::new(prog, cc),
            |shard, out, scratch| {
                model.kernel_shard(&batch, frame, prog, plan, shard, scratch, out)
            },
            &RetryPolicy::default(),
            cancel,
        );
        for scratch in &mut self.kscratch {
            let counts = std::mem::take(&mut scratch.counts);
            self.phases.stem_replays.add(counts.stem_replays);
            self.phases.stem_hits.add(counts.stem_hits);
            self.phases.drain_evals.add(counts.drain_evals);
        }
        if cancel.is_some_and(CancelToken::is_cancelled) {
            // Unwind cleanly: the half-graded batch is discarded whole.
            return None;
        }
        self.patterns_run += num_patterns as u64;

        // Serial merge: order-independent counts, then write-cursor
        // compaction of (active, batch_det) in lockstep, which keeps
        // the survivors in level order.
        let mut kept = 0usize;
        for pos in 0..self.active.len() {
            let (fault_idx, detected) = (self.active[pos], self.batch_det[pos]);
            if !detected.is_zero() {
                let count = &mut self.detections[fault_idx as usize];
                *count = count.saturating_add(detected.count_ones());
                if *count >= self.drop_after {
                    continue;
                }
            }
            self.active[kept] = fault_idx;
            self.batch_det[kept] = detected;
            kept += 1;
        }
        let newly_dropped = self.active.len() - kept;
        self.active.truncate(kept);
        self.batch_det.truncate(kept);
        Some(newly_dropped)
    }

    /// Restores the simulator to a checkpointed position: per-fault
    /// detection counts plus the pattern counter. The active list is
    /// rebuilt as every fault with `detections < drop_after`, in the
    /// constructor's level-major order — the resulting per-batch counts,
    /// detected sets, and drop decisions are bit-identical to a run that
    /// was never interrupted, because the batch merge is
    /// order-independent (enforced by the resume property tests in the
    /// bench crate).
    ///
    /// Call after [`FaultSim::set_drop_after`] so the rebuilt active
    /// list honours the run's drop budget.
    ///
    /// # Panics
    ///
    /// Panics if `detections` does not match the fault-list length.
    pub fn restore(&mut self, detections: &[u32], patterns_run: u64) {
        assert_eq!(
            detections.len(),
            self.faults.len(),
            "restored detections must match the fault list"
        );
        self.detections = detections.to_vec();
        self.patterns_run = patterns_run;
        let live = (0..self.faults.len() as u32)
            .filter(|&i| self.detections[i as usize] < self.drop_after);
        self.active = level_order(self.cc, &self.faults, live);
        self.batch_det.clear();
    }

    /// Patterns graded so far (the counter captured by checkpoints).
    pub fn patterns_run(&self) -> u64 {
        self.patterns_run
    }

    /// The faults being graded, in index order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Per-fault detection counts (saturating at the drop budget).
    pub fn detections(&self) -> &[u32] {
        &self.detections
    }

    /// Faults not yet detected, in index order.
    pub fn undetected(&self) -> Vec<Fault> {
        self.undetected_indices().into_iter().map(|i| self.faults[i]).collect()
    }

    /// Indices of faults not yet detected.
    pub fn undetected_indices(&self) -> Vec<usize> {
        (0..self.faults.len()).filter(|&i| self.detections[i] == 0).collect()
    }

    /// Current coverage over the graded fault list.
    pub fn coverage(&self) -> CoverageReport {
        CoverageReport::from_detections(&self.faults, &self.detections, self.patterns_run)
    }
}

/// Level-major order of fault indices: a shard of consecutive entries
/// then touches a band of adjacent logic levels (fanout-cone locality)
/// instead of striding the whole netlist.
fn level_order(
    cc: &CompiledCircuit,
    faults: &[Fault],
    indices: impl Iterator<Item = u32>,
) -> Vec<u32> {
    let mut order: Vec<u32> = indices.collect();
    order.sort_unstable_by_key(|&i| {
        let f = &faults[i as usize];
        (cc.level(f.node), f.node.index())
    });
    order
}

#[cfg(test)]
mod tests {
    use crate::{FaultUniverse, StuckAtSim};
    use lbist_netlist::{GateKind, Netlist};
    use lbist_sim::CompiledCircuit;

    /// Dropping detected faults leaves the survivors in the constructor's
    /// level-major order, batch after batch, and the active list holds
    /// exactly the undetected faults.
    #[test]
    fn active_list_stays_level_ordered_across_drops() {
        let mut nl = Netlist::new("levels");
        let ins: Vec<_> = (0..4).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let kinds = [GateKind::And, GateKind::Or, GateKind::Xor, GateKind::Nand, GateKind::Nor];
        let mut pool = ins.clone();
        for k in 0..24 {
            let a = pool[(7 * k + 1) % pool.len()];
            let b = pool[(5 * k + 3) % pool.len()];
            pool.push(nl.add_gate(kinds[k % kinds.len()], &[a, b]));
        }
        for (k, &g) in pool[pool.len() - 4..].iter().enumerate() {
            nl.add_output(&format!("y{k}"), g);
        }
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let faults = FaultUniverse::stuck_at(&nl).representatives();
        let mut sim = StuckAtSim::new(&cc, faults, StuckAtSim::observe_all_captures(&cc));
        let mut dropped = 0;
        // One pattern per batch, so drops trickle in across batches.
        for p in 0..8u64 {
            let mut frame = cc.new_frame();
            for (bit, &i) in ins.iter().enumerate() {
                frame[i.index()] = (p.wrapping_mul(0x9E37) >> bit) & 1;
            }
            dropped += sim.run_batch(&mut frame, 1);
            let key = |i: &u32| {
                let node = sim.faults[*i as usize].node;
                (cc.level(node), node.index())
            };
            assert!(
                sim.active.windows(2).all(|w| key(&w[0]) <= key(&w[1])),
                "batch {p}: active list left level order"
            );
            assert_eq!(sim.active_faults(), sim.undetected_indices().len(), "batch {p}");
        }
        assert!(dropped > 0 && sim.active_faults() > 0, "drops must leave survivors behind");
    }
}
