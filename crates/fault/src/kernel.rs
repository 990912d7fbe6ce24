//! Kernel-backed fault grading: replaying faults as patched instructions
//! over the lowered program.
//!
//! Every simulator grades on a compiled [`KernelProgram`]: the one it
//! lowers at its first batch, or a shared one installed with
//! [`crate::FaultSim::set_kernel`]. Fault-free evaluation runs the flat
//! bytecode, and per-fault replay is patched-instruction execution, in
//! the shape that fits each fault model:
//!
//! * **Stuck-at** faults replay as a **patched suffix re-execution**.
//!   Each worker keeps a *shadow frame*; injecting a fault writes the
//!   forced word over the site instruction's slot and linearly re-runs
//!   only the instructions after the patch point — a branch-free
//!   [`KernelProgram::execute_range`] with no overlay checks, no queue,
//!   and no per-gate dispatch. Because the active-fault list is level
//!   sorted, consecutive patch points are non-decreasing and restoring
//!   the shadow frame between faults costs one pass over the program per
//!   shard, amortized. PPSFP words make this the right shape: with 64+
//!   patterns per word an excited fault's difference word almost never
//!   dies, so sparse propagation revisits most of the suffix anyway —
//!   at a much higher cost per instruction.
//! * **Transition** faults replay **event-driven** over [`EventEdges`]
//!   (a slot → consumer-instruction CSR derived from the program's own
//!   operands): only instructions an actually-changed word feeds are
//!   re-evaluated, level-ordered, against an epoch-stamped overlay.
//!   Each window frame ends in one domain's capture, so a frame's
//!   events are confined to that domain's [`CaptureCone`] — the
//!   instructions whose result can reach a `D` input it loads — and
//!   die at the cone's edge. Most frames carry little difference, so
//!   early-dying events are the right shape, with no `GateKind` match
//!   or fanin gather, and fused NOT/BUF chains costing zero events.
//!   This is [`KernelStep`], the per-frame step of the window replay
//!   loop.
//!
//! Both paths are bit-identical to [`KernelProgram::execute_patched`],
//! at a fraction of the work, and their detection words equal those of
//! the slow reference grader in [`crate::oracle`] (property-tested).
//!
//! The plans here are built once per (program, fault list, observation
//! set) and validated up front: every node the replay reads — fault
//! sites, branch-gate fanins, observed nodes, capture `D` sources — must
//! be materialized by the program, which is exactly what lowering with
//! [`grading_keep_set`] guarantees. A program lowered with a smaller keep
//! set fails loudly at plan build, never silently misgrades.

use crate::model::Fault;
use crate::sim::{Batch, CANCEL_POLL_STRIDE};
use crate::transition::{CaptureWindow, WindowState};
use lbist_exec::LaneWord;
use lbist_netlist::{DomainId, GateKind, NodeId};
use lbist_sim::{eval_gate, CompiledCircuit, KernelProgram, SlotState};

/// The keep set grading needs: every node whose frame slot the fault
/// simulators read must stay materialized when lowering the kernel
/// program. That is the observed nodes, every flip-flop `D` source
/// (captures and MISR absorption read them), every fault site (faulty
/// values are seeded there and excitation compares against the good
/// word), and the fanins of branch-fault gates (branch injection
/// re-evaluates the gate with one pin forced).
///
/// Pass the result to [`KernelProgram::lower`]; grade stuck-at and
/// transition faults with one program by passing both fault lists.
pub fn grading_keep_set(
    cc: &CompiledCircuit,
    faults: &[&[Fault]],
    observed: &[NodeId],
) -> Vec<bool> {
    let mut keep = vec![false; cc.num_nodes()];
    for &o in observed {
        keep[o.index()] = true;
    }
    for &ff in cc.dffs() {
        keep[cc.fanins(ff)[0].index()] = true;
    }
    for list in faults {
        for f in *list {
            keep[f.node.index()] = true;
            if !f.is_stem() {
                for &fi in cc.fanins(f.node) {
                    keep[fi.index()] = true;
                }
            }
        }
    }
    keep
}

/// Slot → consumer-instruction event edges of a lowered program, packed
/// as `(level << 32) | instruction index` so the replay drain reads one
/// word per edge. Derived purely from instruction operands: a slot's
/// edge list is exactly the set of instructions whose result could
/// change when that slot's word changes.
#[derive(Debug)]
struct EventEdges {
    /// CSR starts per slot, one past-the-end entry.
    start: Vec<u32>,
    edges: Vec<u64>,
}

impl EventEdges {
    fn build(prog: &KernelProgram, cc: &CompiledCircuit) -> EventEdges {
        let n = prog.num_nodes();
        let mut start = vec![0u32; n + 1];
        for idx in 0..prog.num_instrs() {
            prog.for_each_operand(idx, |s| start[s + 1] += 1);
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut cursor: Vec<u32> = start[..n].to_vec();
        let mut edges = vec![0u64; start[n] as usize];
        for idx in 0..prog.num_instrs() {
            let dst = NodeId::from_index(prog.instr_dst(idx));
            let packed = (u64::from(cc.level(dst)) << 32) | idx as u64;
            prog.for_each_operand(idx, |s| {
                edges[cursor[s] as usize] = packed;
                cursor[s] += 1;
            });
        }
        EventEdges { start, edges }
    }

    #[inline]
    fn of(&self, slot: usize) -> &[u64] {
        &self.edges[self.start[slot] as usize..self.start[slot + 1] as usize]
    }
}

/// Per-worker replay scratch: the stuck-at shadow frames, the
/// epoch-stamped faulty-slot overlay and level-bucketed event queue of
/// the transition drain, plus the transition window state — reused
/// across faults and batches.
#[derive(Debug)]
pub struct KernelScratch<W: LaneWord> {
    /// Stuck-at suffix-execution frame: equals the fault-free frame on
    /// every slot an instruction before the current patch point writes,
    /// stale after it (the next injection restores exactly the gap).
    shadow: Vec<W>,
    /// Stuck-at cone-replay frame, fully restored after every replay so
    /// it always equals the fault-free frame on entry — cone instruction
    /// operands may read *outside* the cone, where the suffix frame
    /// could be stale, so the two modes never share a frame.
    cone_shadow: Vec<W>,
    /// Second cone frame, same invariant: paired replay walks one cone
    /// over two shadows at once.
    cone_shadow2: Vec<W>,
    /// Second suffix frame with its own stale region: paired suffix
    /// replay re-executes one shared suffix over both.
    shadow_b: Vec<W>,
    /// Faulty slot words, valid where `mark` holds the current epoch.
    vals: Vec<W>,
    mark: Vec<u32>,
    /// Queued-instruction stamps (event dedup), same epoch domain.
    queued: Vec<u32>,
    epoch: u32,
    /// Pending instruction indices per level; always drained empty.
    buckets: Vec<Vec<u32>>,
    /// Transition window replay state.
    window: WindowState<W>,
    /// Branch-injection fanin gather buffer.
    fanin_buf: Vec<W>,
}

impl<W: LaneWord> KernelScratch<W> {
    pub(crate) fn new(prog: &KernelProgram, cc: &CompiledCircuit) -> Self {
        KernelScratch {
            shadow: Vec::new(),
            cone_shadow: Vec::new(),
            cone_shadow2: Vec::new(),
            shadow_b: Vec::new(),
            vals: vec![W::zero(); prog.num_nodes()],
            mark: vec![0; prog.num_nodes()],
            queued: vec![0; prog.num_instrs()],
            epoch: 0,
            buckets: vec![Vec::new(); cc.max_level() as usize + 2],
            window: WindowState::new(),
            fanin_buf: Vec::new(),
        }
    }

    /// Starts a fresh overlay epoch (O(1); stamps invalidate lazily).
    #[inline]
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.mark.fill(0);
            self.queued.fill(0);
            self.epoch = 1;
        }
    }
}

/// Floor of the cone-size ceiling. The ceiling itself scales with the
/// program (`num_instrs / 16`, at least this): a cone entry costs more
/// than a sequential suffix instruction (random `instrs[]` access plus
/// a restore pass), so small programs want small cones, while on large
/// programs even a many-hundred-entry cone beats a multi-thousand
/// instruction suffix. The cap also bounds plan-build time (an aborted
/// traversal costs its whole budget) and arena memory.
const CONE_BUDGET_FLOOR: usize = 128;

/// How a patched site's downstream effect is recomputed, chosen per
/// patched slot at plan build by comparing the two costs.
#[derive(Debug, Clone, Copy)]
enum Replay {
    /// Re-execute every instruction after the patch point (branch-free
    /// linear [`KernelProgram::execute_range`]): cheapest when the
    /// fault's cone covers much of the remaining program, or sits so
    /// late that the suffix is short.
    Suffix,
    /// Walk the precomputed forward-cone instruction list (`len`
    /// instruction indices from `start` in
    /// [`StuckKernelPlan::cone_arena`], ascending = dependency order):
    /// cheapest for the common shallow fault whose cone is a sliver of
    /// the suffix. Cone replays restore every slot they wrote, so they
    /// leave the shadow frame exactly as they found it. Detection scans
    /// only the observed cone destinations, during the restore —
    /// everything else provably equals the fault-free frame. (An
    /// event-skipping variant that stamp-checks operands was measured
    /// slower here: with 64+ patterns per word the difference word
    /// almost never dies, so the stamp loads are pure overhead.)
    Cone { start: u32, len: u32 },
}

/// Index of the one shared [`Replay::Suffix`] entry in
/// [`StuckKernelPlan::replays`].
const SUFFIX: u32 = 0;

/// How one stuck-at fault is injected on the kernel path, resolved once
/// at plan build (the per-fault twin of `inject_stuck_at`). Each
/// `replay` indexes [`StuckKernelPlan::replays`].
#[derive(Debug, Clone, Copy)]
enum Inject {
    /// The injection site is a flip-flop (stem on Q, or a branch on the
    /// D pin): the forced value is captured directly, detection compares
    /// it against the fault-free `D` source. `excite_site` carries the
    /// stem case's excitation check at the Q slot (a stem fault whose
    /// site already holds the forced word is not excited).
    DPin { site: u32, d_src: u32, force1: bool, excite_site: bool },
    /// No observed slot is forward-reachable from the site (and the site
    /// itself is unobserved): the detection word is identically zero for
    /// every pattern, so the fault costs nothing per batch. Resolved by a
    /// single reverse reachability pass at plan build.
    Dead,
    /// Output-stem fault at a materialized instruction: overwrite the
    /// instruction's slot with the forced word and replay downstream.
    PatchInstr { instr: u32, dst: u32, force1: bool, replay: u32 },
    /// Output-stem fault at a frame source (a primary input): force the
    /// source slot and replay from the top of the program.
    SourceStem { site: u32, force1: bool, replay: u32 },
    /// Input-branch fault on a logic gate: re-evaluate the gate with one
    /// pin forced, patch the gate's instruction slot with the result and
    /// replay downstream.
    Branch { instr: u32, dst: u32, pin: u8, force1: bool, replay: u32 },
}

// One entry per fault lives as long as the plan: keep it at 16 bytes.
const _: () = assert!(std::mem::size_of::<Inject>() == 16);

/// The per-(program, faults, observation) stuck-at replay plan.
#[derive(Debug)]
pub struct StuckKernelPlan {
    /// Aligned with the simulator's fault list.
    injects: Vec<Inject>,
    /// Replay decisions: [`SUFFIX`] first, then one [`Replay::Cone`] per
    /// patched slot whose cone fits — faults on the same gate share one.
    replays: Vec<Replay>,
    /// Observation flag per slot.
    observed: Vec<bool>,
    /// `(instruction index, dst slot)` of every observed instruction-
    /// computed slot, in instruction order: the detection scan walks the
    /// entries at or after the patch point (slots before it equal the
    /// fault-free frame by the shadow invariant; observed *source* slots
    /// never change — only the source-stem site itself, handled
    /// explicitly).
    obs_scan: Vec<(u32, u32)>,
    /// Concatenated [`Replay::Cone`] instruction lists.
    cone_arena: Vec<u32>,
}

impl StuckKernelPlan {
    /// Builds the plan, validating that the program materializes every
    /// node grading reads.
    ///
    /// # Panics
    ///
    /// Panics when a fault site, branch-gate fanin, or observed node has
    /// no valid slot — i.e. the program was lowered without
    /// [`grading_keep_set`] for this fault list and observation set.
    pub(crate) fn build(
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
        observed: &[bool],
    ) -> StuckKernelPlan {
        for (i, &obs) in observed.iter().enumerate() {
            let node = NodeId::from_index(i);
            assert!(
                !obs || prog.has_slot(node),
                "observed node {node} is not materialized: lower the kernel \
                 program with grading_keep_set"
            );
        }
        for f in faults {
            let site = f.node;
            assert!(
                prog.has_slot(site),
                "fault site {site} is not materialized: lower the kernel \
                 program with grading_keep_set"
            );
            if cc.kind(site) == GateKind::Dff {
                let d_src = cc.fanins(site)[0];
                assert!(
                    prog.has_slot(d_src),
                    "capture source {d_src} is not materialized: lower the \
                     kernel program with grading_keep_set"
                );
            } else if !f.is_stem() {
                for &fi in cc.fanins(site) {
                    assert!(
                        prog.has_slot(fi),
                        "branch-gate fanin {fi} is not materialized: lower \
                         the kernel program with grading_keep_set"
                    );
                }
            }
        }
        // Observability closure: `reaches[s]` ⇔ some observed slot is
        // forward-reachable from `s` (or `s` is observed itself). One
        // reverse pass suffices because operands are defined at strictly
        // lower instruction indices. Faults below an unreachable site
        // can never be detected — a diff scan over observed slots is
        // identically zero for them — so they are planned as
        // [`Inject::Dead`] and skipped per batch.
        let mut reaches = observed.to_vec();
        for idx in (0..prog.num_instrs()).rev() {
            if reaches[prog.instr_dst(idx)] {
                prog.for_each_operand(idx, |s| reaches[s] = true);
            }
        }
        let mut cones = ConeBuilder::new(prog, cc);
        let injects: Vec<Inject> = faults
            .iter()
            .map(|f| {
                let site = f.node;
                let force1 = f.kind.faulty_value();
                if cc.kind(site) != GateKind::Dff && !reaches[site.index()] {
                    return Inject::Dead;
                }
                if cc.kind(site) == GateKind::Dff {
                    Inject::DPin {
                        site: site.index() as u32,
                        d_src: cc.fanins(site)[0].index() as u32,
                        force1,
                        excite_site: f.is_stem(),
                    }
                } else if f.is_stem() {
                    match prog.slot_state(site) {
                        SlotState::Instr(idx) => Inject::PatchInstr {
                            instr: idx as u32,
                            dst: site.index() as u32,
                            force1,
                            replay: cones.replay_of(site.index(), idx),
                        },
                        SlotState::Source => Inject::SourceStem {
                            site: site.index() as u32,
                            force1,
                            replay: cones.replay_of(site.index(), 0),
                        },
                        // `has_slot` was asserted above.
                        state => unreachable!("stem site {site} lowered as {state:?}"),
                    }
                } else {
                    let SlotState::Instr(idx) = prog.slot_state(site) else {
                        // Branch sites are scheduled gates; kept gates
                        // always materialize as instructions.
                        unreachable!("branch gate {site} has no instruction")
                    };
                    Inject::Branch {
                        instr: idx as u32,
                        dst: site.index() as u32,
                        pin: f.pin.expect("branch faults carry a pin"),
                        force1,
                        replay: cones.replay_of(site.index(), idx),
                    }
                }
            })
            .collect();
        let obs_scan = (0..prog.num_instrs())
            .filter(|&idx| observed[prog.instr_dst(idx)])
            .map(|idx| (idx as u32, prog.instr_dst(idx) as u32))
            .collect();
        StuckKernelPlan {
            injects,
            replays: cones.replays,
            observed: observed.to_vec(),
            obs_scan,
            cone_arena: cones.arena,
        }
    }
}

/// Plan-build helper: discovers the forward-cone instruction list of
/// each patched slot (memoized — every fault on a gate shares one cone)
/// and decides [`Replay`] per fault by cost; the traversal aborts as
/// soon as the cone budget is exceeded.
struct ConeBuilder<'a> {
    prog: &'a KernelProgram,
    edges: EventEdges,
    arena: Vec<u32>,
    replays: Vec<Replay>,
    /// Patched slot → index of its memoized decision in `replays`
    /// (`u32::MAX` until decided).
    memo: Vec<u32>,
    /// Traversal epoch stamps per instruction.
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
    cone: Vec<u32>,
}

impl<'a> ConeBuilder<'a> {
    fn new(prog: &'a KernelProgram, cc: &CompiledCircuit) -> Self {
        ConeBuilder {
            prog,
            edges: EventEdges::build(prog, cc),
            arena: Vec::new(),
            replays: vec![Replay::Suffix],
            memo: vec![u32::MAX; prog.num_nodes()],
            stamp: vec![0; prog.num_instrs()],
            epoch: 0,
            stack: Vec::new(),
            cone: Vec::new(),
        }
    }

    /// The replay mode (an index into `replays`) for a fault patched at
    /// `slot`, whose suffix execution would start after instruction `p`
    /// (0 for sources).
    fn replay_of(&mut self, slot: usize, p: usize) -> u32 {
        if self.memo[slot] != u32::MAX {
            return self.memo[slot];
        }
        // A cone entry costs roughly an eval plus a restore (~1.5x a
        // linear suffix instruction), so the cone must be under two
        // thirds of the suffix to win. The constant cap bounds what a
        // budget-aborted traversal can waste at plan build (discovering
        // a too-big cone costs the whole budget before aborting — the
        // uncapped build spent more time probing doomed cones than the
        // fitting ones took to store) and keeps the arena small.
        let n = self.prog.num_instrs();
        let budget = (2 * (n - p) / 3).min((n / 16).max(CONE_BUDGET_FLOOR));
        self.epoch += 1;
        self.cone.clear();
        self.stack.clear();
        self.stack.extend(self.edges.of(slot).iter().map(|&e| e as u32));
        let mut fits = true;
        while let Some(idx) = self.stack.pop() {
            if self.stamp[idx as usize] == self.epoch {
                continue;
            }
            self.stamp[idx as usize] = self.epoch;
            self.cone.push(idx);
            if self.cone.len() > budget {
                fits = false;
                break;
            }
            let dst = self.prog.instr_dst(idx as usize);
            self.stack.extend(self.edges.of(dst).iter().map(|&e| e as u32));
        }
        let replay = if fits {
            // Ascending instruction order is dependency order: every
            // cone operand that changes is produced by an earlier cone
            // instruction (or is the patched slot itself).
            self.cone.sort_unstable();
            let start = self.arena.len() as u32;
            self.arena.extend_from_slice(&self.cone);
            self.replays.push(Replay::Cone { start, len: self.cone.len() as u32 });
            self.replays.len() as u32 - 1
        } else {
            SUFFIX
        };
        self.memo[slot] = replay;
        replay
    }
}

/// The stuck-at kernel shard: grades one shard of the active-fault list
/// against the shared fault-free frame using precomputed injections and
/// patched replay, with the cancellation protocol of `Batch::each`.
///
/// Injection resolution and replay are split so adjacent faults that
/// share a replay can run it **paired**: the level-sorted active list
/// puts a gate's sa0/sa1 stems and branch faults next to each other, all
/// patching the same destination slot with the same memoized cone or the
/// same suffix patch point, so one [`KernelProgram::eval_instr2`] /
/// [`KernelProgram::execute_range2`] pass grades two of them for a
/// single instruction fetch, dispatch and restore sweep.
pub(crate) fn kernel_grade_shard<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    batch: &Batch<'_, W>,
    shard: &[u32],
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    out: &mut [W],
) {
    debug_assert_eq!(shard.len(), out.len());
    let lane_mask = batch.lane_mask;
    scratch.shadow.clear();
    scratch.shadow.extend_from_slice(frame);
    scratch.shadow_b.clear();
    scratch.shadow_b.extend_from_slice(frame);
    scratch.cone_shadow.clear();
    scratch.cone_shadow.extend_from_slice(frame);
    scratch.cone_shadow2.clear();
    scratch.cone_shadow2.extend_from_slice(frame);
    // Instruction destinations in `[last_p, n_instrs)` are stale in the
    // corresponding shadow frame; everything else equals `frame`.
    let mut last_p = prog.num_instrs();
    let mut last_p_b = prog.num_instrs();
    let mut i = 0usize;
    // A replay prepared while hunting for the previous replay's partner,
    // waiting its own turn.
    let mut carry: Option<(usize, Prepared<W>)> = None;
    loop {
        let (ci, cur) = match carry.take() {
            Some(held) => held,
            None => match next_replay(plan, batch, shard, frame, scratch, out, &mut i) {
                Scan::Found(idx, job) => (idx, job),
                Scan::End => break,
                Scan::Cancelled => return,
            },
        };
        let partner = match next_replay(plan, batch, shard, frame, scratch, out, &mut i) {
            Scan::Found(idx, job) => Some((idx, job)),
            Scan::End => None,
            Scan::Cancelled => return,
        };
        match (cur, partner) {
            (Prepared::Cone(a), Some((pi, Prepared::Cone(b))))
                if b.start == a.start && b.dst == a.dst =>
            {
                let (d1, d2) = dual_cone_patch_and_scan(prog, plan, frame, scratch, &a, b.word);
                out[ci] = finish(&a, frame, d1).and(lane_mask);
                out[pi] = finish(&b, frame, d2).and(lane_mask);
            }
            (Prepared::Suffix(a), Some((pi, Prepared::Suffix(b)))) => {
                let (d1, d2) = dual_patch_and_scan(
                    prog,
                    plan,
                    frame,
                    scratch,
                    &mut last_p,
                    &mut last_p_b,
                    &a,
                    &b,
                );
                out[ci] = finish(&a, frame, d1).and(lane_mask);
                out[pi] = finish(&b, frame, d2).and(lane_mask);
            }
            (cur, partner) => {
                let diff = match &cur {
                    Prepared::Cone(a) => {
                        finish(a, frame, cone_patch_and_scan(prog, plan, frame, scratch, a))
                    }
                    Prepared::Suffix(a) => {
                        finish(a, frame, patch_and_scan(prog, plan, frame, scratch, &mut last_p, a))
                    }
                    Prepared::Done(_) => unreachable!("next_replay never yields Done"),
                };
                out[ci] = diff.and(lane_mask);
                carry = partner;
            }
        }
    }
}

/// One step of the replay scan: the next fault whose replay is still
/// owed, or why the scan stopped.
enum Scan<W> {
    Found(usize, Prepared<W>),
    End,
    Cancelled,
}

/// Advances the shard cursor to the next fault whose injection leaves a
/// replay owed, resolving (and writing out) every `Done` fault passed
/// over. Skipping completed faults this way keeps replay jobs adjacent,
/// so the pairing in [`kernel_grade_shard`] is not broken by the
/// unexcited and dead faults interleaved with them.
#[inline]
fn next_replay<W: LaneWord>(
    plan: &StuckKernelPlan,
    batch: &Batch<'_, W>,
    shard: &[u32],
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    out: &mut [W],
    i: &mut usize,
) -> Scan<W> {
    while *i < shard.len() {
        if (*i).is_multiple_of(CANCEL_POLL_STRIDE) && batch.cancelled() {
            return Scan::Cancelled;
        }
        let idx = *i;
        *i += 1;
        match prepare(plan, batch.cc, shard[idx], frame, scratch) {
            Prepared::Done(diff) => {
                out[idx] = diff.and(batch.lane_mask);
            }
            job => return Scan::Found(idx, job),
        }
    }
    Scan::End
}

/// A replay still owed after injection resolution, in one of the two
/// shapes that pair across adjacent faults. `word` is the patched word;
/// `site_obs` says whether the patched slot is observed itself.
struct ConeJob<W> {
    dst: u32,
    word: W,
    site_obs: bool,
    start: u32,
    len: u32,
}

/// An owed suffix re-execution: patch `dst` with `word`, re-run
/// `[exec_lo, n_instrs)`. `p` is the patch point (the scan cut and the
/// pairing key); `exec_lo` is `p + 1` for instruction sites and `0` for
/// source stems (nothing executes before a source, and the source slot
/// itself is restored right after the run).
struct SuffixJob<W> {
    p: u32,
    exec_lo: u32,
    dst: u32,
    word: W,
    site_obs: bool,
}

/// [`prepare`]'s result: either the detection word is already final
/// (dead, unexcited, or `D`-pin compare), or a replay remains.
enum Prepared<W> {
    Done(W),
    Cone(ConeJob<W>),
    Suffix(SuffixJob<W>),
}

/// The patched slot's own contribution when it is observed, applied per
/// fault after a (possibly shared) replay. (For an instruction site the
/// suffix scan reads the slot too; OR-ing it twice changes nothing.)
#[inline]
fn finish_site<W: LaneWord>(site_obs: bool, dst: u32, word: W, frame: &[W], diff: W) -> W {
    if site_obs {
        diff.or(word.xor(frame[dst as usize]))
    } else {
        diff
    }
}

/// [`finish_site`] keyed off either job shape.
#[inline]
fn finish<W: LaneWord>(job: &impl ReplayJob<W>, frame: &[W], diff: W) -> W {
    finish_site(job.site_obs(), job.dst(), job.word(), frame, diff)
}

trait ReplayJob<W: Copy> {
    fn site_obs(&self) -> bool;
    fn dst(&self) -> u32;
    fn word(&self) -> W;
}

impl<W: Copy> ReplayJob<W> for ConeJob<W> {
    fn site_obs(&self) -> bool {
        self.site_obs
    }
    fn dst(&self) -> u32 {
        self.dst
    }
    fn word(&self) -> W {
        self.word
    }
}

impl<W: Copy> ReplayJob<W> for SuffixJob<W> {
    fn site_obs(&self) -> bool {
        self.site_obs
    }
    fn dst(&self) -> u32 {
        self.dst
    }
    fn word(&self) -> W {
        self.word
    }
}

/// Resolves one fault's injection: excitation checks and direct `D`-pin
/// compares complete here; cone and suffix replays are returned as jobs
/// so the caller can pair them.
#[inline]
fn prepare<W: LaneWord>(
    plan: &StuckKernelPlan,
    cc: &CompiledCircuit,
    fault_idx: u32,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
) -> Prepared<W> {
    match plan.injects[fault_idx as usize] {
        Inject::Dead => Prepared::Done(W::zero()),
        Inject::DPin { site, d_src, force1, excite_site } => {
            let forced = if force1 { W::ones() } else { W::zero() };
            // A stem fault on the flip-flop is skipped whole when its
            // Q word already equals the forced value (the word-level
            // excitation check); the D-pin branch needs no check — an
            // unexcited pin XORs to zero.
            if excite_site && forced == frame[site as usize] {
                Prepared::Done(W::zero())
            } else {
                Prepared::Done(forced.xor(frame[d_src as usize]))
            }
        }
        Inject::PatchInstr { instr, dst, force1, replay } => {
            let forced = if force1 { W::ones() } else { W::zero() };
            if forced == frame[dst as usize] {
                return Prepared::Done(W::zero());
            }
            replay_job(plan, instr, instr + 1, dst, forced, replay)
        }
        Inject::SourceStem { site, force1, replay } => {
            let forced = if force1 { W::ones() } else { W::zero() };
            if forced == frame[site as usize] {
                return Prepared::Done(W::zero());
            }
            replay_job(plan, 0, 0, site, forced, replay)
        }
        Inject::Branch { instr, dst, pin, force1, replay } => {
            let site = NodeId::from_index(dst as usize);
            let forced = if force1 { W::ones() } else { W::zero() };
            scratch.fanin_buf.clear();
            scratch.fanin_buf.extend(cc.fanins(site).iter().map(|f| frame[f.index()]));
            scratch.fanin_buf[pin as usize] = forced;
            let val = eval_gate(cc.kind(site), &scratch.fanin_buf);
            if val == frame[dst as usize] {
                return Prepared::Done(W::zero());
            }
            replay_job(plan, instr, instr + 1, dst, val, replay)
        }
    }
}

/// The replay job patching `dst` with `word`, in the shape
/// `plan.replays[replay]` chose; `p`/`exec_lo` as in [`SuffixJob`].
#[inline]
fn replay_job<W: LaneWord>(
    plan: &StuckKernelPlan,
    p: u32,
    exec_lo: u32,
    dst: u32,
    word: W,
    replay: u32,
) -> Prepared<W> {
    let site_obs = plan.observed[dst as usize];
    match plan.replays[replay as usize] {
        Replay::Suffix => Prepared::Suffix(SuffixJob { p, exec_lo, dst, word, site_obs }),
        Replay::Cone { start, len } => Prepared::Cone(ConeJob { dst, word, site_obs, start, len }),
    }
}

/// One suffix replay on the shadow frame: restore the gap the previous
/// patch left (`p <= last_p` needs none — the suffix execution
/// recomputes the whole stale region), overwrite the patched slot with
/// the forced word, re-execute `[exec_lo, n)` branch-free, and OR the
/// differences of observed instruction slots at or after `p` (slots
/// before `p` equal the fault-free frame by the shadow invariant, so
/// they cannot contribute). Source stems execute the whole program and
/// restore their slot immediately — no instruction writes it.
#[inline]
fn patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    last_p: &mut usize,
    job: &SuffixJob<W>,
) -> W {
    let p = job.p as usize;
    let dst = job.dst as usize;
    for j in *last_p..p {
        let d = prog.instr_dst(j);
        scratch.shadow[d] = frame[d];
    }
    scratch.shadow[dst] = job.word;
    prog.execute_range(&mut scratch.shadow, job.exec_lo as usize, prog.num_instrs());
    *last_p = p;
    if job.exec_lo == 0 {
        scratch.shadow[dst] = frame[dst];
    }
    let k0 = plan.obs_scan.partition_point(|&(idx, _)| (idx as usize) < p);
    let mut diff = W::zero();
    for &(_, d) in &plan.obs_scan[k0..] {
        let d = d as usize;
        diff = diff.or(scratch.shadow[d].xor(frame[d]));
    }
    diff
}

/// [`patch_and_scan`] for two suffix replays at once — any two, not
/// just a gate's sibling faults: each shadow frame restores its own
/// stale gap down to the shared execution start, patches its own slot,
/// and one [`KernelProgram::execute_range2_skip`] pass re-executes the
/// union suffix over both frames for a single instruction fetch and
/// dispatch. The skip indices protect each frame's patched instruction
/// from being recomputed when it lies inside the shared range (the
/// partner's suffix may start earlier). One walk of the observed slots
/// scans both; the partner with the later patch point contributes
/// nothing below it (those slots recompute fault-free), so the shared
/// scan stays exact.
#[allow(clippy::too_many_arguments)]
#[inline]
fn dual_patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    last_p: &mut usize,
    last_p_b: &mut usize,
    a: &SuffixJob<W>,
    b: &SuffixJob<W>,
) -> (W, W) {
    let exec_lo = (a.exec_lo as usize).min(b.exec_lo as usize);
    let dst_a = a.dst as usize;
    let dst_b = b.dst as usize;
    for j in *last_p..exec_lo {
        let d = prog.instr_dst(j);
        scratch.shadow[d] = frame[d];
    }
    for j in *last_p_b..exec_lo {
        let d = prog.instr_dst(j);
        scratch.shadow_b[d] = frame[d];
    }
    scratch.shadow[dst_a] = a.word;
    scratch.shadow_b[dst_b] = b.word;
    let skip = |job: &SuffixJob<W>| {
        if job.exec_lo == 0 {
            usize::MAX
        } else {
            job.p as usize
        }
    };
    prog.execute_range2_skip(
        &mut scratch.shadow,
        &mut scratch.shadow_b,
        exec_lo,
        prog.num_instrs(),
        skip(a),
        skip(b),
    );
    *last_p = a.p as usize;
    *last_p_b = b.p as usize;
    if a.exec_lo == 0 {
        scratch.shadow[dst_a] = frame[dst_a];
    }
    if b.exec_lo == 0 {
        scratch.shadow_b[dst_b] = frame[dst_b];
    }
    let p_scan = (a.p as usize).min(b.p as usize);
    let k0 = plan.obs_scan.partition_point(|&(idx, _)| (idx as usize) < p_scan);
    let mut diff1 = W::zero();
    let mut diff2 = W::zero();
    for &(_, d) in &plan.obs_scan[k0..] {
        let d = d as usize;
        let good = frame[d];
        diff1 = diff1.or(scratch.shadow[d].xor(good));
        diff2 = diff2.or(scratch.shadow_b[d].xor(good));
    }
    (diff1, diff2)
}

/// The [`Replay::Cone`] injection: patch the slot, evaluate only the
/// precomputed forward-cone instructions (ascending = dependency
/// order), then restore every written slot, scanning the observed ones
/// on the way — the shadow frame leaves exactly as it came, so cone
/// replays never perturb the suffix protocol's stale region.
#[inline]
fn cone_patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    job: &ConeJob<W>,
) -> W {
    let dst = job.dst as usize;
    let cone = &plan.cone_arena[job.start as usize..(job.start + job.len) as usize];
    let shadow = &mut scratch.cone_shadow;
    shadow[dst] = job.word;
    for &idx in cone {
        let v = prog.eval_instr(idx as usize, |s| shadow[s as usize]);
        shadow[prog.instr_dst(idx as usize)] = v;
    }
    let mut diff = W::zero();
    shadow[dst] = frame[dst];
    for &idx in cone {
        let d = prog.instr_dst(idx as usize);
        if plan.observed[d] {
            diff = diff.or(shadow[d].xor(frame[d]));
        }
        shadow[d] = frame[d];
    }
    diff
}

/// [`cone_patch_and_scan`] for two faults patching the same slot with
/// the same memoized cone: one instruction fetch and dispatch per cone
/// entry serves both shadow frames, and the restore pass with its
/// observed scan reads the cone (and the fault-free words) once.
#[inline]
fn dual_cone_patch_and_scan<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    job: &ConeJob<W>,
    word_b: W,
) -> (W, W) {
    let dst = job.dst as usize;
    let cone = &plan.cone_arena[job.start as usize..(job.start + job.len) as usize];
    let s1 = &mut scratch.cone_shadow;
    let s2 = &mut scratch.cone_shadow2;
    s1[dst] = job.word;
    s2[dst] = word_b;
    for &idx in cone {
        let (v1, v2) = prog.eval_instr2(idx as usize, |s| s1[s as usize], |s| s2[s as usize]);
        let d = prog.instr_dst(idx as usize);
        s1[d] = v1;
        s2[d] = v2;
    }
    let mut diff1 = W::zero();
    let mut diff2 = W::zero();
    let good = frame[dst];
    s1[dst] = good;
    s2[dst] = good;
    for &idx in cone {
        let d = prog.instr_dst(idx as usize);
        let good = frame[d];
        if plan.observed[d] {
            diff1 = diff1.or(s1[d].xor(good));
            diff2 = diff2.or(s2[d].xor(good));
        }
        s1[d] = good;
        s2[d] = good;
    }
    (diff1, diff2)
}

/// The capture cone of one window position: every slot whose word can
/// reach a `D` input of a flip-flop the position's domain loads at the
/// end of its frames. One reverse pass over the program finds it,
/// seeded at those `D` sources, in the shape of the observability
/// closure in [`StuckKernelPlan::build`]. It is slot-level: an
/// instruction is in the cone iff its destination slot is, so every
/// operand of a cone instruction is in the cone too.
///
/// Within a frame, faulty words live only until the frame boundary, and
/// what survives it is what the capturing domain's flip-flops load. An
/// instruction outside the cone cannot change a captured word, and
/// neither can anything it feeds (a consumer in the cone would have put
/// it in the cone). So a frame evaluates, and replays faults through,
/// its cone alone. A domain with no flip-flops has an empty cone.
#[derive(Debug)]
pub(crate) struct CaptureCone {
    /// Slot membership, one bit per slot.
    slots: Vec<u64>,
    /// The cone's instructions in ascending (dependency) order.
    instrs: Vec<u32>,
    /// `(flip-flop, D source)` of every flip-flop the domain loads.
    captures: Vec<(NodeId, NodeId)>,
}

impl CaptureCone {
    fn build(prog: &KernelProgram, cc: &CompiledCircuit, domain: DomainId) -> CaptureCone {
        let captures: Vec<(NodeId, NodeId)> = cc
            .dffs()
            .iter()
            .enumerate()
            .filter(|&(i, _)| cc.dff_domain(i) == domain)
            .map(|(_, &ff)| (ff, cc.fanins(ff)[0]))
            .collect();
        let mut cone = CaptureCone {
            slots: vec![0; prog.num_nodes().div_ceil(64)],
            instrs: Vec::new(),
            captures,
        };
        for i in 0..cone.captures.len() {
            cone.insert(cone.captures[i].1.index());
        }
        // Operands are defined at strictly lower instruction indices, so
        // one reverse pass closes the cone.
        for idx in (0..prog.num_instrs()).rev() {
            if cone.contains(prog.instr_dst(idx)) {
                cone.instrs.push(idx as u32);
                prog.for_each_operand(idx, |s| cone.insert(s));
            }
        }
        cone.instrs.reverse();
        cone
    }

    fn insert(&mut self, slot: usize) {
        self.slots[slot / 64] |= 1 << (slot % 64);
    }

    /// `true` when `slot` is in the cone.
    #[inline]
    pub(crate) fn contains(&self, slot: usize) -> bool {
        self.slots[slot / 64] >> (slot % 64) & 1 != 0
    }

    /// `(flip-flop, D source)` of every flip-flop the domain loads.
    pub(crate) fn captures(&self) -> &[(NodeId, NodeId)] {
        &self.captures
    }

    /// Executes only the cone's instructions over `frame`: afterwards
    /// every cone slot holds its full-execution word, provided the
    /// frame's source slots are current. Slots outside the cone keep
    /// whatever they held.
    pub(crate) fn execute<W: LaneWord>(&self, prog: &KernelProgram, frame: &mut [W]) {
        for &idx in &self.instrs {
            let idx = idx as usize;
            frame[prog.instr_dst(idx)] = prog.eval_instr(idx, |s| frame[s as usize]);
        }
    }
}

/// The per-(program, faults, window) transition replay plan: the event
/// edges, one [`CaptureCone`] per window position, and the up-front
/// validation that every site and capture source is materialized.
#[derive(Debug)]
pub struct TransitionKernelPlan {
    edges: EventEdges,
    /// Indexed by window position: the `k`-th domain the window pulses.
    cones: Vec<CaptureCone>,
}

impl TransitionKernelPlan {
    /// Builds the plan; panics (like [`StuckKernelPlan::build`]) when a
    /// fault site or capture source is not materialized.
    pub(crate) fn build(
        prog: &KernelProgram,
        cc: &CompiledCircuit,
        faults: &[Fault],
        window: &CaptureWindow,
    ) -> TransitionKernelPlan {
        for f in faults {
            assert!(
                prog.has_slot(f.node),
                "fault site {} is not materialized: lower the kernel program \
                 with grading_keep_set",
                f.node
            );
        }
        for &ff in cc.dffs() {
            let d_src = cc.fanins(ff)[0];
            assert!(
                prog.has_slot(d_src),
                "capture source {d_src} is not materialized: lower the kernel \
                 program with grading_keep_set"
            );
        }
        TransitionKernelPlan {
            edges: EventEdges::build(prog, cc),
            cones: window.order().iter().map(|&d| CaptureCone::build(prog, cc, d)).collect(),
        }
    }

    /// The capture cone of window frame `frame`: that of the domain
    /// captured at the frame's end. Frames `2k` and `2k + 1` end in
    /// position `k`'s launch and capture pulses.
    ///
    /// # Panics
    ///
    /// Panics for the window's final frame, which captures nothing.
    pub(crate) fn cone(&self, frame: usize) -> &CaptureCone {
        &self.cones[frame / 2]
    }
}

/// The kernel step of transition window replay: within a frame the
/// overlay's flip-flops and (when the launch activates it) the pinned
/// site seed the event queue, and only instructions inside the frame's
/// capture cone that an actually-changed word feeds are re-evaluated,
/// level-ordered.
pub(crate) struct KernelStep<'s, W: LaneWord> {
    prog: &'s KernelProgram,
    plan: &'s TransitionKernelPlan,
    /// The capture cone of the frame being replayed.
    cone: &'s CaptureCone,
    scratch: &'s mut KernelScratch<W>,
    /// Level range the seeds queued this frame.
    lo: usize,
    hi: usize,
}

impl<'s, W: LaneWord> KernelStep<'s, W> {
    pub(crate) fn new(
        prog: &'s KernelProgram,
        plan: &'s TransitionKernelPlan,
        scratch: &'s mut KernelScratch<W>,
    ) -> Self {
        KernelStep { prog, plan, cone: plan.cone(0), scratch, lo: usize::MAX, hi: 0 }
    }
}

impl<W: LaneWord> KernelStep<'_, W> {
    /// The worker's cross-frame replay state.
    pub(crate) fn window(&mut self) -> &mut WindowState<W> {
        &mut self.scratch.window
    }

    /// Starts window frame `frame` with no faulty word anywhere; events
    /// stay inside its capture cone until the next `begin`.
    pub(crate) fn begin(&mut self, frame: usize) {
        self.cone = self.plan.cone(frame);
        self.scratch.begin();
        (self.lo, self.hi) = (usize::MAX, 0);
    }

    /// `node`'s word under the fault in the current frame.
    pub(crate) fn value(&self, node: NodeId, good: &[W]) -> W {
        let s = &self.scratch;
        if s.mark[node.index()] == s.epoch {
            s.vals[node.index()]
        } else {
            good[node.index()]
        }
    }

    /// Gives `node` the faulty `word` and queues its consumers inside
    /// the frame's cone, widening the level range the drain must walk.
    /// A consumer outside the cone is stamped as queued too, so later
    /// events skip its membership test.
    pub(crate) fn seed(&mut self, node: NodeId, word: W) {
        let (prog, cone) = (self.prog, self.cone);
        let s = &mut *self.scratch;
        let slot = node.index();
        s.vals[slot] = word;
        s.mark[slot] = s.epoch;
        for &e in self.plan.edges.of(slot) {
            let idx = e as u32 as usize;
            if s.queued[idx] == s.epoch {
                continue;
            }
            s.queued[idx] = s.epoch;
            if cone.contains(prog.instr_dst(idx)) {
                let lvl = (e >> 32) as usize;
                s.buckets[lvl].push(idx as u32);
                self.lo = self.lo.min(lvl);
                self.hi = self.hi.max(lvl);
            }
        }
    }

    /// Propagates the seeded words through the frame's cone: drains the
    /// event queue in level order, re-evaluating each queued instruction
    /// against the overlay. A changed result is stamped into the overlay
    /// and queues its consumers inside the cone; an unchanged result
    /// kills the event. Level order makes single-fault propagation exact
    /// (all operands are final before a consumer runs). A `pin`ned node
    /// keeps its seeded word even when other events reach it.
    pub(crate) fn run(&mut self, good: &[W], pin: Option<NodeId>) {
        let pin = pin.map_or(usize::MAX, NodeId::index);
        let (prog, edges, cone) = (self.prog, &self.plan.edges, self.cone);
        let KernelScratch { vals, mark, queued, buckets, epoch, .. } = &mut *self.scratch;
        let epoch = *epoch;
        let mut hi = self.hi;
        let mut level = self.lo;
        while level <= hi {
            // Edges always target strictly higher levels, so this bucket
            // cannot grow while draining — but `hi` can.
            let mut i = 0;
            while i < buckets[level].len() {
                let idx = buckets[level][i] as usize;
                i += 1;
                let dst = prog.instr_dst(idx);
                if dst == pin {
                    continue; // the seeded site stays authoritative
                }
                let v = prog.eval_instr(idx, |s| {
                    let s = s as usize;
                    if mark[s] == epoch {
                        vals[s]
                    } else {
                        good[s]
                    }
                });
                // v == good: the event dies (no overlay entry needed —
                // un-stamped slots read the fault-free frame).
                if v == good[dst] {
                    continue;
                }
                vals[dst] = v;
                mark[dst] = epoch;
                for &e in edges.of(dst) {
                    let j = e as u32 as usize;
                    if queued[j] == epoch {
                        continue;
                    }
                    queued[j] = epoch;
                    if cone.contains(prog.instr_dst(j)) {
                        let lvl = (e >> 32) as usize;
                        buckets[lvl].push(j as u32);
                        hi = hi.max(lvl);
                    }
                }
            }
            buckets[level].clear();
            level += 1;
        }
    }
}
