//! Kernel-backed fault grading: replaying faults over the lowered
//! program.
//!
//! Every simulator grades on a compiled [`KernelProgram`]: the one it
//! lowers at its first batch, or a shared one installed with
//! [`crate::FaultSim::set_kernel`]. Fault-free evaluation runs the flat
//! bytecode. Fault effects travel through one **event drain**,
//! [`KernelStep`]: seeded slots queue their consumers over
//! [`EventEdges`] (a slot → consumer-instruction CSR derived from the
//! program's own operands), and only instructions an actually-changed
//! word feeds are re-evaluated, level-ordered, against an epoch-stamped
//! overlay. Events stay inside a [`SlotClosure`], the slots whose word
//! can reach a set of seed slots, and die at its edge. There is no
//! `GateKind` match or fanin gather, and fused NOT/BUF chains cost zero
//! events. Each fault model uses the drain in the shape that fits it:
//!
//! * **Stuck-at** faults are graded by **critical-path tracing to their
//!   fanout-free-region stem** (see [`StuckKernelPlan`]). The effect is
//!   traced from the site along the region's single path, one AND per
//!   hop, which finds the lanes on which it reaches the stem. At the
//!   stem, the detection word is those lanes ANDed with the stem's
//!   observability, which one drain inside the observability closure
//!   computes. The faults of a region share that drain through a
//!   per-shard memo. With 64+ patterns per word the faults that
//!   survive the first batches are the random-pattern-resistant tail,
//!   whose effects die within a few gates of the site. Most of them
//!   cost a handful of evaluations and no drain at all.
//! * **Transition** faults replay frame by frame through the window.
//!   Each window frame ends in one domain's capture, so a frame's
//!   events are confined to that domain's capture cone: the closure of
//!   the `D` sources it loads. Most frames carry little difference, so
//!   early-dying events are the right shape.
//!
//! Both paths give the detection words of a full faulty re-simulation
//! at a fraction of the work: they equal those of the slow reference
//! grader in [`crate::oracle`] (property-tested). Test-point selection
//! drains stuck-at faults unconfined, through [`StuckAtReach`], to learn
//! every node an effect changes; that set equals the one a full faulty
//! re-simulation changes (property-tested too).
//!
//! The plans here are built once per (program, fault list, observation
//! set) and validated up front: every node the replay reads — fault
//! sites, branch-gate fanins, observed nodes, capture `D` sources — must
//! be materialized by the program, which is exactly what lowering with
//! [`grading_keep_set`] guarantees. A program lowered with a smaller keep
//! set fails loudly at plan build, never silently misgrades.

use crate::model::Fault;
use crate::sim::Batch;
use crate::transition::{CaptureWindow, WindowState};
use lbist_exec::LaneWord;
use lbist_netlist::{DomainId, GateKind, NodeId};
use lbist_sim::{eval_gate, CompiledCircuit, KernelProgram};

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
pub(crate) struct EventEdges {
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

/// The closure of a set of seed slots: every slot whose word can reach
/// a seed, the seeds included. One reverse pass over the program builds
/// it, because operands are defined at strictly lower instruction
/// indices. It is slot-level: an instruction is in the closure iff its
/// destination slot is, so every operand of a closure instruction is in
/// the closure too.
///
/// An instruction outside the closure cannot change a seed's word, and
/// neither can anything it feeds (a consumer in the closure would have
/// put it in the closure). So the event drain never leaves it:
///
/// * the stuck-at plan seeds it at the observed slots (the
///   **observability closure**; a fault site outside it is never
///   detected);
/// * the transition plan builds one per window position, seeded at the
///   `D` sources of the flip-flops that position's domain loads (the
///   position's **capture cone**; a domain with no flip-flops has an
///   empty one).
#[derive(Debug)]
pub(crate) struct SlotClosure {
    /// Membership, one bit per slot.
    slots: Vec<u64>,
    /// Seed membership, one bit per slot.
    seeds: Vec<u64>,
    /// The closure's instructions in ascending (dependency) order.
    instrs: Vec<u32>,
}

impl SlotClosure {
    fn build(prog: &KernelProgram, seeds: impl IntoIterator<Item = usize>) -> SlotClosure {
        let words = prog.num_nodes().div_ceil(64);
        let mut closure =
            SlotClosure { slots: vec![0; words], seeds: vec![0; words], instrs: Vec::new() };
        for s in seeds {
            insert(&mut closure.seeds, s);
        }
        closure.slots.copy_from_slice(&closure.seeds);
        for idx in (0..prog.num_instrs()).rev() {
            if closure.contains(prog.instr_dst(idx)) {
                closure.instrs.push(idx as u32);
                prog.for_each_operand(idx, |s| insert(&mut closure.slots, s));
            }
        }
        closure.instrs.reverse();
        closure
    }

    /// `true` when `slot` is in the closure.
    #[inline]
    pub(crate) fn contains(&self, slot: usize) -> bool {
        member(&self.slots, slot)
    }

    /// `true` when `slot` is one of the seeds the closure was built from.
    #[inline]
    fn is_seed(&self, slot: usize) -> bool {
        member(&self.seeds, slot)
    }

    /// Executes only the closure's instructions over `frame`: afterwards
    /// every closure slot holds its full-execution word, provided the
    /// frame's source slots are current. Slots outside the closure keep
    /// whatever they held.
    pub(crate) fn execute<W: LaneWord>(&self, prog: &KernelProgram, frame: &mut [W]) {
        for &idx in &self.instrs {
            let idx = idx as usize;
            frame[prog.instr_dst(idx)] = prog.eval_instr(idx, |s| frame[s as usize]);
        }
    }
}

fn insert(bits: &mut [u64], slot: usize) {
    bits[slot / 64] |= 1 << (slot % 64);
}

#[inline]
fn member(bits: &[u64], slot: usize) -> bool {
    bits[slot / 64] >> (slot % 64) & 1 != 0
}

/// Work counts a worker's replays accumulate; the simulator flushes them
/// into its phase counters once per batch.
#[derive(Debug, Default)]
pub(crate) struct ReplayCounts {
    /// Stuck-at stem observabilities computed (per-shard memo misses).
    pub(crate) stem_replays: u64,
    /// Stuck-at faults that reached a stem already in the memo.
    pub(crate) stem_hits: u64,
    /// Instructions the event drain evaluated, both fault models.
    pub(crate) drain_evals: u64,
}

/// Per-worker replay scratch: the epoch-stamped faulty-slot overlay and
/// level-bucketed event queue of the drain, the stuck-at stem memo, and
/// the transition window state — reused across faults and batches.
/// Outside the simulators, [`StuckAtReach::scratch`] makes one.
#[derive(Debug)]
pub struct KernelScratch<W: LaneWord> {
    /// Faulty slot words, valid where `mark` holds the current epoch.
    vals: Vec<W>,
    mark: Vec<u32>,
    /// Queued-instruction stamps (event dedup), same epoch domain.
    queued: Vec<u32>,
    epoch: u32,
    /// Pending instruction indices per level; always drained empty.
    buckets: Vec<Vec<u32>>,
    /// Stuck-at stem observability words, valid where `memo_mark` holds
    /// `memo_epoch`. Sized at the first stuck-at shard.
    memo: Vec<W>,
    memo_mark: Vec<u32>,
    /// Bumped at every stuck-at shard: a memo entry never outlives the
    /// fault-free frame it was computed on.
    memo_epoch: u32,
    /// Transition window replay state.
    window: WindowState<W>,
    /// Branch-injection fanin gather buffer.
    fanin_buf: Vec<W>,
    pub(crate) counts: ReplayCounts,
}

impl<W: LaneWord> KernelScratch<W> {
    pub(crate) fn new(prog: &KernelProgram, cc: &CompiledCircuit) -> Self {
        KernelScratch {
            vals: vec![W::zero(); prog.num_nodes()],
            mark: vec![0; prog.num_nodes()],
            queued: vec![0; prog.num_instrs()],
            epoch: 0,
            buckets: vec![Vec::new(); cc.max_level() as usize + 2],
            memo: Vec::new(),
            memo_mark: Vec::new(),
            memo_epoch: 0,
            window: WindowState::new(),
            fanin_buf: Vec::new(),
            counts: ReplayCounts::default(),
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

    /// The word a branch fault puts on `gate`'s output in `frame`: the
    /// gate re-evaluated with input `pin` held at `forced`.
    fn branch_word(
        &mut self,
        cc: &CompiledCircuit,
        gate: NodeId,
        pin: u8,
        forced: W,
        frame: &[W],
    ) -> W {
        self.fanin_buf.clear();
        self.fanin_buf.extend(cc.fanins(gate).iter().map(|f| frame[f.index()]));
        self.fanin_buf[pin as usize] = forced;
        eval_gate(cc.kind(gate), &self.fanin_buf)
    }

    /// Starts a fresh stem-memo epoch for a shard graded against a new
    /// fault-free frame.
    fn begin_memo(&mut self) {
        if self.memo.len() != self.vals.len() {
            self.memo = vec![W::zero(); self.vals.len()];
            self.memo_mark = vec![0; self.vals.len()];
        }
        self.memo_epoch = self.memo_epoch.wrapping_add(1);
        if self.memo_epoch == 0 {
            self.memo_mark.fill(0);
            self.memo_epoch = 1;
        }
    }
}

/// `ffr_next` entry of a slot with no reader yet (plan build only).
const UNREAD: u32 = u32::MAX;
/// `ffr_next` entry of a stem: the slot is observed or read more than
/// once. Every entry at or above it ends the walk.
const STEM: u32 = u32::MAX - 1;

/// How one stuck-at fault is injected on the kernel path, resolved once
/// at plan build.
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
    /// every pattern, so the fault costs nothing per batch.
    Dead,
    /// Output-stem fault at a materialized slot (an instruction's or a
    /// frame source's): the forced word replaces the slot's word.
    Stem { slot: u32, force1: bool },
    /// Input-branch fault on a logic gate: re-evaluate the gate with one
    /// pin forced; the result replaces the gate's slot word.
    Branch { dst: u32, pin: u8, force1: bool },
}

// One entry per fault lives as long as the plan: keep it at 12 bytes.
const _: () = assert!(std::mem::size_of::<Inject>() == 12);

/// The per-(program, faults, observation) stuck-at plan: each fault's
/// injection, each slot's fanout-free-region successor, and the event
/// drain's edges and observability closure.
///
/// # Why tracing to the stem is exact
///
/// Lanes are independent: a detection word is 64 or 128 separate
/// patterns. A slot that exactly one instruction operand reads and that
/// is not observed lies inside a **fanout-free region**, and its reader
/// is its FFR successor. Every other slot is a **stem**; observed slots
/// always are. An effect entering a region therefore travels one path
/// to the region's stem, and the side inputs along the path are outside
/// the fault's fanout, so they hold fault-free words.
///
/// Let `r` be the lanes on which the effect has reached the current
/// slot: the excited word XOR the fault-free word at the site. At each
/// hop, `r` is ANDed with the lanes on which complementing the path
/// operand flips the consumer's result. On the stem the faulty word is
/// then `good ^ r`, so whether lane `L` shows an observed difference
/// depends only on whether the stem is flipped on lane `L`. Hence
/// `det = r & obs(stem)`, where `obs(stem)` is the lanes on which
/// complementing the stem on every lane changes some observed slot (for
/// an observed stem, every lane). `obs(stem)` depends only on the
/// batch's fault-free frame, so memoizing it can never change a result.
#[derive(Debug)]
pub struct StuckKernelPlan {
    /// Aligned with the simulator's fault list.
    injects: Vec<Inject>,
    /// Per slot: the FFR successor instruction, or an entry at or above
    /// [`STEM`] at a stem.
    ffr_next: Vec<u32>,
    edges: EventEdges,
    /// The observability closure, seeded at the observed slots.
    closure: SlotClosure,
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
        // A fault below a site outside the observability closure can
        // never be detected, so it is planned as `Dead` and skipped per
        // batch.
        let closure = SlotClosure::build(prog, (0..observed.len()).filter(|&i| observed[i]));
        let injects = faults
            .iter()
            .map(|f| {
                let site = f.node;
                let force1 = f.kind.faulty_value();
                if cc.kind(site) == GateKind::Dff {
                    Inject::DPin {
                        site: site.index() as u32,
                        d_src: cc.fanins(site)[0].index() as u32,
                        force1,
                        excite_site: f.is_stem(),
                    }
                } else if !closure.contains(site.index()) {
                    Inject::Dead
                } else if let Some(pin) = f.pin {
                    Inject::Branch { dst: site.index() as u32, pin, force1 }
                } else {
                    Inject::Stem { slot: site.index() as u32, force1 }
                }
            })
            .collect();
        // A repeated operand counts as a second read.
        let mut ffr_next = vec![UNREAD; prog.num_nodes()];
        for idx in 0..prog.num_instrs() {
            prog.for_each_operand(idx, |s| {
                ffr_next[s] = if ffr_next[s] == UNREAD && !observed[s] { idx as u32 } else { STEM };
            });
        }
        StuckKernelPlan { injects, ffr_next, edges: EventEdges::build(prog, cc), closure }
    }
}

/// The stuck-at kernel shard: grades one shard of the active-fault list
/// against the shared fault-free frame by tracing each fault to its
/// fanout-free-region stem (see [`StuckKernelPlan`]), with the
/// cancellation protocol of `Batch::each`.
pub(crate) fn kernel_grade_shard<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    batch: &Batch<'_, W>,
    shard: &[u32],
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    out: &mut [W],
) {
    scratch.begin_memo();
    batch.each(shard, out, |fault_idx, _| {
        let (mut slot, word) = match plan.injects[fault_idx as usize] {
            Inject::Dead => return W::zero(),
            Inject::DPin { site, d_src, force1, excite_site } => {
                let forced = if force1 { W::ones() } else { W::zero() };
                // A stem fault on the flip-flop is skipped whole when its
                // Q word already equals the forced value (the word-level
                // excitation check); the D-pin branch needs no check — an
                // unexcited pin XORs to zero.
                if excite_site && forced == frame[site as usize] {
                    return W::zero();
                }
                return forced.xor(frame[d_src as usize]);
            }
            Inject::Stem { slot, force1 } => {
                (slot as usize, if force1 { W::ones() } else { W::zero() })
            }
            Inject::Branch { dst, pin, force1 } => {
                let forced = if force1 { W::ones() } else { W::zero() };
                let site = NodeId::from_index(dst as usize);
                (dst as usize, scratch.branch_word(batch.cc, site, pin, forced, frame))
            }
        };
        // The excited lanes, traced hop by hop to the region's stem.
        let mut reach = word.xor(frame[slot]);
        loop {
            if reach.is_zero() {
                return W::zero();
            }
            let next = plan.ffr_next[slot];
            if next >= STEM {
                break;
            }
            let idx = next as usize;
            let path = slot as u32;
            let flipped = prog.eval_instr(idx, |s| {
                if s == path {
                    frame[s as usize].not()
                } else {
                    frame[s as usize]
                }
            });
            slot = prog.instr_dst(idx);
            reach = reach.and(flipped.xor(frame[slot]));
        }
        reach.and(stem_observability(prog, plan, frame, scratch, slot))
    });
}

/// The lanes on which complementing `stem` changes some observed slot:
/// every lane for an observed stem, otherwise the observed difference
/// one drain inside the observability closure leaves. Memoized per
/// shard, so the faults of one region share a single drain.
fn stem_observability<W: LaneWord>(
    prog: &KernelProgram,
    plan: &StuckKernelPlan,
    frame: &[W],
    scratch: &mut KernelScratch<W>,
    stem: usize,
) -> W {
    if scratch.memo_mark[stem] == scratch.memo_epoch {
        scratch.counts.stem_hits += 1;
        return scratch.memo[stem];
    }
    scratch.counts.stem_replays += 1;
    let obs = if plan.closure.is_seed(stem) {
        W::ones()
    } else {
        let mut step = KernelStep::new(prog, &plan.edges, &plan.closure, scratch);
        step.seed(NodeId::from_index(stem), frame[stem].not());
        step.run(frame, None, |_, _| {})
    };
    scratch.memo[stem] = obs;
    scratch.memo_mark[stem] = scratch.memo_epoch;
    obs
}

/// Where stuck-at fault effects travel in one fault-free frame: the
/// reach profiles fault-simulation-guided test-point selection builds
/// from the faults random patterns leave undetected.
///
/// Grading needs only the lanes on which an effect reaches an observed
/// slot; reach needs every node it changes. So the program is lowered
/// with every node kept, every slot holds its interpreter word, and the
/// drain's closure is the whole program: an effect is followed until it
/// dies. Faults are injected the way
/// grading resolves them: a stem fault forces its slot, a branch fault
/// re-evaluates its gate with one pin forced, and a fault on a
/// flip-flop (a stem on `Q` or a branch on the `D` pin) is reported at
/// the flip-flop alone, because the capture latches the forced value
/// directly.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind};
/// use lbist_sim::CompiledCircuit;
/// use lbist_fault::{Fault, FaultKind, StuckAtReach};
///
/// let mut nl = Netlist::new("p");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a]);
/// nl.add_output("y", g);
/// let cc = CompiledCircuit::compile(&nl).unwrap();
/// let mut frame = cc.new_frame();
/// frame[a.index()] = 0; // all patterns drive a = 0
/// cc.eval2(&mut frame);
///
/// let reach = StuckAtReach::new(&cc);
/// let mut scratch = reach.scratch();
/// let mut reached = Vec::new();
/// reach.visit(&Fault::stem(a, FaultKind::StuckAt1), &frame, &mut scratch,
///             |node, _diff| reached.push(node));
/// assert_eq!(reached[0], a);
/// assert!(reached.contains(&g));
/// ```
#[derive(Debug)]
pub struct StuckAtReach<'a> {
    cc: &'a CompiledCircuit,
    prog: KernelProgram,
    edges: EventEdges,
    /// Every slot, so no event is cut short.
    closure: SlotClosure,
}

impl<'a> StuckAtReach<'a> {
    /// Lowers `cc` with every node kept.
    pub fn new(cc: &'a CompiledCircuit) -> Self {
        let prog = KernelProgram::lower(cc, &vec![true; cc.num_nodes()]);
        let edges = EventEdges::build(&prog, cc);
        let closure = SlotClosure::build(&prog, 0..prog.num_nodes());
        StuckAtReach { cc, prog, edges, closure }
    }

    /// A replay scratch for one worker, reused across faults and frames.
    pub fn scratch<W: LaneWord>(&self) -> KernelScratch<W> {
        KernelScratch::new(&self.prog, self.cc)
    }

    /// Calls `visitor(node, diff)` for every node whose word `fault`
    /// changes in `frame`, with the lanes on which it differs: the site
    /// first, then every node the effect reaches. `frame` is a fully
    /// evaluated fault-free frame. An unexcited fault visits nothing; a
    /// flip-flop site is visited with the forced word against the
    /// fault-free `D` source's.
    ///
    /// # Panics
    ///
    /// Panics if `fault` is not a stuck-at fault.
    pub fn visit<W: LaneWord>(
        &self,
        fault: &Fault,
        frame: &[W],
        scratch: &mut KernelScratch<W>,
        mut visitor: impl FnMut(NodeId, W),
    ) {
        assert!(fault.kind.is_stuck_at(), "reach profiles stuck-at faults");
        let (cc, site) = (self.cc, fault.node);
        let forced = if fault.kind.faulty_value() { W::ones() } else { W::zero() };
        if cc.kind(site) == GateKind::Dff {
            let d_src = cc.fanins(site)[0];
            let held = if fault.is_stem() { site } else { d_src };
            if forced != frame[held.index()] {
                visitor(site, forced.xor(frame[d_src.index()]));
            }
            return;
        }
        let word = match fault.pin {
            None => forced,
            Some(pin) => scratch.branch_word(cc, site, pin, forced, frame),
        };
        if word == frame[site.index()] {
            return;
        }
        visitor(site, word.xor(frame[site.index()]));
        let mut step = KernelStep::new(&self.prog, &self.edges, &self.closure, scratch);
        step.seed(site, word);
        step.run(frame, None, visitor);
    }
}

/// The per-(program, faults, window) transition replay plan: the event
/// edges, one capture cone per window position with the `(flip-flop,
/// D source)` list of the domain it loads, and the up-front validation
/// that every site and capture source is materialized.
#[derive(Debug)]
pub struct TransitionKernelPlan {
    pub(crate) edges: EventEdges,
    /// Indexed by window position: the `k`-th domain the window pulses.
    cones: Vec<SlotClosure>,
    captures: Vec<Vec<(NodeId, NodeId)>>,
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
        let loads = |domain: DomainId| -> Vec<(NodeId, NodeId)> {
            cc.dffs()
                .iter()
                .enumerate()
                .filter(|&(i, _)| cc.dff_domain(i) == domain)
                .map(|(_, &ff)| (ff, cc.fanins(ff)[0]))
                .collect()
        };
        let captures: Vec<_> = window.order().iter().map(|&d| loads(d)).collect();
        TransitionKernelPlan {
            edges: EventEdges::build(prog, cc),
            cones: captures
                .iter()
                .map(|c| SlotClosure::build(prog, c.iter().map(|&(_, d)| d.index())))
                .collect(),
            captures,
        }
    }

    /// The capture cone of window frame `frame`: that of the domain
    /// captured at the frame's end. Frames `2k` and `2k + 1` end in
    /// position `k`'s launch and capture pulses.
    ///
    /// # Panics
    ///
    /// Panics for the window's final frame, which captures nothing.
    pub(crate) fn cone(&self, frame: usize) -> &SlotClosure {
        &self.cones[frame / 2]
    }

    /// `(flip-flop, D source)` of every flip-flop loaded at the end of
    /// window frame `frame`; panics like [`Self::cone`].
    pub(crate) fn captures(&self, frame: usize) -> &[(NodeId, NodeId)] {
        &self.captures[frame / 2]
    }
}

/// The event drain both fault models and [`StuckAtReach`] replay
/// through: seeded words queue their consumers inside the current
/// closure, and only instructions an actually-changed word feeds are
/// re-evaluated, level-ordered.
pub(crate) struct KernelStep<'s, W: LaneWord> {
    prog: &'s KernelProgram,
    edges: &'s EventEdges,
    /// The closure events are confined to until the next `begin`.
    closure: &'s SlotClosure,
    scratch: &'s mut KernelScratch<W>,
    /// Level range the seeds queued since `begin`.
    lo: usize,
    hi: usize,
}

impl<'s, W: LaneWord> KernelStep<'s, W> {
    /// A drain over `prog`'s event `edges`, begun in `closure`.
    pub(crate) fn new(
        prog: &'s KernelProgram,
        edges: &'s EventEdges,
        closure: &'s SlotClosure,
        scratch: &'s mut KernelScratch<W>,
    ) -> Self {
        let mut step = KernelStep { prog, edges, closure, scratch, lo: usize::MAX, hi: 0 };
        step.begin(closure);
        step
    }

    /// Starts over with no faulty word anywhere; events stay inside
    /// `closure` until the next `begin`.
    pub(crate) fn begin(&mut self, closure: &'s SlotClosure) {
        self.closure = closure;
        self.scratch.begin();
        (self.lo, self.hi) = (usize::MAX, 0);
    }
}

impl<W: LaneWord> KernelStep<'_, W> {
    /// The worker's cross-frame replay state.
    pub(crate) fn window(&mut self) -> &mut WindowState<W> {
        &mut self.scratch.window
    }

    /// `node`'s faulty word since the last `begin`.
    pub(crate) fn value(&self, node: NodeId, good: &[W]) -> W {
        let s = &self.scratch;
        if s.mark[node.index()] == s.epoch {
            s.vals[node.index()]
        } else {
            good[node.index()]
        }
    }

    /// Gives `node` the faulty `word` and queues its consumers inside
    /// the closure, widening the level range the drain must walk. A
    /// consumer outside the closure is stamped as queued too, so later
    /// events skip its membership test.
    pub(crate) fn seed(&mut self, node: NodeId, word: W) {
        let (prog, closure) = (self.prog, self.closure);
        let s = &mut *self.scratch;
        let slot = node.index();
        s.vals[slot] = word;
        s.mark[slot] = s.epoch;
        for &e in self.edges.of(slot) {
            let idx = e as u32 as usize;
            if s.queued[idx] == s.epoch {
                continue;
            }
            s.queued[idx] = s.epoch;
            if closure.contains(prog.instr_dst(idx)) {
                let lvl = (e >> 32) as usize;
                s.buckets[lvl].push(idx as u32);
                self.lo = self.lo.min(lvl);
                self.hi = self.hi.max(lvl);
            }
        }
    }

    /// Propagates the seeded words through the closure: drains the event
    /// queue in level order, re-evaluating each queued instruction
    /// against the overlay. A changed result is stamped into the overlay
    /// and queues its consumers inside the closure; an unchanged result
    /// kills the event. Level order makes single-fault propagation exact
    /// (all operands are final before a consumer runs). A `pin`ned node
    /// keeps its seeded word even when other events reach it.
    ///
    /// Returns the OR of the differences the drain left at the closure's
    /// seed slots (seeded slots themselves excluded), and calls
    /// `changed(node, diff)` for every slot the drain changes, with its
    /// difference from `good`.
    pub(crate) fn run(
        &mut self,
        good: &[W],
        pin: Option<NodeId>,
        mut changed: impl FnMut(NodeId, W),
    ) -> W {
        let pin = pin.map_or(usize::MAX, NodeId::index);
        let (prog, edges, closure) = (self.prog, self.edges, self.closure);
        let KernelScratch { vals, mark, queued, buckets, epoch, counts, .. } = &mut *self.scratch;
        let epoch = *epoch;
        let mut seen = W::zero();
        let mut evals = 0u64;
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
                evals += 1;
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
                let diff = v.xor(good[dst]);
                changed(NodeId::from_index(dst), diff);
                if closure.is_seed(dst) {
                    seen = seen.or(diff);
                }
                for &e in edges.of(dst) {
                    let j = e as u32 as usize;
                    if queued[j] == epoch {
                        continue;
                    }
                    queued[j] = epoch;
                    if closure.contains(prog.instr_dst(j)) {
                        let lvl = (e >> 32) as usize;
                        buckets[lvl].push(j as u32);
                        hi = hi.max(lvl);
                    }
                }
            }
            buckets[level].clear();
            level += 1;
        }
        counts.drain_evals += evals;
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use lbist_netlist::Netlist;

    /// Every `(node, diff)` `fault` changes in `frame`, in visit order.
    fn reached(cc: &CompiledCircuit, fault: Fault, frame: &[u64]) -> Vec<(NodeId, u64)> {
        let reach = StuckAtReach::new(cc);
        let mut scratch = reach.scratch();
        let mut out = Vec::new();
        reach.visit(&fault, frame, &mut scratch, |node, diff| out.push((node, diff)));
        out
    }

    fn nodes(reached: &[(NodeId, u64)]) -> Vec<NodeId> {
        reached.iter().map(|&(node, _)| node).collect()
    }

    #[test]
    fn stem_fault_propagates_through_chain() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let n1 = nl.add_gate(GateKind::Not, &[a]);
        let n2 = nl.add_gate(GateKind::Buf, &[n1]);
        let y = nl.add_output("y", n2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0b10;
        cc.eval2(&mut frame);

        // a=1 only in pattern 1, so the diff mask is 0b10 everywhere.
        let diffs = reached(&cc, Fault::stem(a, FaultKind::StuckAt0), &frame);
        assert_eq!(diffs, vec![(a, 0b10), (n1, 0b10), (n2, 0b10), (y, 0b10)]);
    }

    #[test]
    fn unexcited_fault_reaches_nothing() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Buf, &[a]);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0; // a always 0: SA0 not excited
        cc.eval2(&mut frame);
        assert!(reached(&cc, Fault::stem(a, FaultKind::StuckAt0), &frame).is_empty());
    }

    #[test]
    fn branch_fault_affects_only_reading_gate() {
        // a fans out to g1 (AND with b=1) and g2 (OR with 0).
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g1 = nl.add_gate(GateKind::And, &[a, b]);
        let g2 = nl.add_gate(GateKind::Or, &[a, a]);
        nl.add_output("y1", g1);
        nl.add_output("y2", g2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = !0;
        frame[b.index()] = !0;
        cc.eval2(&mut frame);

        let reached = nodes(&reached(&cc, Fault::branch(g1, 0, FaultKind::StuckAt0), &frame));
        assert!(reached.contains(&g1));
        assert!(!reached.contains(&g2), "branch fault leaked to sibling gate");
        assert!(!reached.contains(&a), "branch fault must not affect the stem");
    }

    #[test]
    fn masking_blocks_propagation() {
        // AND(a, b) with b=0: a-fault cannot pass.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let g = nl.add_gate(GateKind::And, &[a, b]);
        nl.add_output("y", g);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = !0;
        frame[b.index()] = 0;
        cc.eval2(&mut frame);
        let reached = nodes(&reached(&cc, Fault::stem(a, FaultKind::StuckAt0), &frame));
        assert_eq!(reached, vec![a], "effect must die at the masked AND");
    }

    #[test]
    fn reconvergence_is_exact() {
        // a -> (NOT, BUF) -> XOR: the two paths reconverge; with both
        // inverted/buffered the XOR output is constant 1 regardless of a,
        // so an a-fault must NOT reach the XOR output.
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, &[a]);
        let buf = nl.add_gate(GateKind::Buf, &[a]);
        let x = nl.add_gate(GateKind::Xor, &[inv, buf]);
        nl.add_output("y", x);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0b0101;
        cc.eval2(&mut frame);
        let reached = nodes(&reached(&cc, Fault::stem(a, FaultKind::StuckAt1), &frame));
        assert!(reached.contains(&inv));
        assert!(reached.contains(&buf));
        assert!(!reached.contains(&x), "XOR of complementary diffs must cancel");
    }

    /// A flip-flop `Q`-stem fault whose `Q` word already holds the forced
    /// value on every lane is not excited: the kernel, the reference
    /// grader and the reach profile all skip it, although its `D` source
    /// differs from the forced value on 32 lanes. The opposite polarity
    /// on the same flip-flops is detected on those lanes, so the set-up
    /// exposes a grader that drops the check.
    #[test]
    fn unexcited_flip_flop_q_stem_is_not_detected() {
        let mut nl = Netlist::new("q");
        let a = nl.add_input("a");
        let not_a = nl.add_gate(GateKind::Not, &[a]);
        let ff0 = nl.add_dff(a, DomainId::new(0));
        let ff1 = nl.add_dff(not_a, DomainId::new(0));
        nl.add_output("q0", ff0);
        nl.add_output("q1", ff1);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = 0xFFFF_FFFF;
        frame[ff0.index()] = 0;
        frame[ff1.index()] = !0;
        cc.eval2(&mut frame);
        let faults = [
            Fault::stem(ff0, FaultKind::StuckAt0),
            Fault::stem(ff1, FaultKind::StuckAt1),
            Fault::stem(ff0, FaultKind::StuckAt1),
            Fault::stem(ff1, FaultKind::StuckAt0),
        ];
        let high = 0xFFFF_FFFF_0000_0000;

        let observed = crate::StuckAtSim::observe_all_captures(&cc);
        let mut sim = crate::StuckAtSim::new(&cc, faults.to_vec(), observed.clone());
        sim.set_drop_after(u32::MAX);
        sim.run_batch(&mut frame.clone(), 64);
        assert_eq!(sim.detections(), &[0, 0, 32, 32]);
        let words = crate::oracle::stuck_at(&cc, &faults, &observed, &frame, 64);
        assert_eq!(words, vec![0, 0, high, high]);
        assert!(reached(&cc, faults[0], &frame).is_empty());
        assert!(reached(&cc, faults[1], &frame).is_empty());
        assert_eq!(reached(&cc, faults[2], &frame), vec![(ff0, high)]);
        assert_eq!(reached(&cc, faults[3], &frame), vec![(ff1, high)]);
    }
}
