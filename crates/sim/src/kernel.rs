//! The compiled word-op simulation kernel.
//!
//! [`CompiledCircuit::eval2`] walks the schedule and dispatches a
//! `GateKind` match plus a CSR fanin lookup **per gate per batch** —
//! fine for one evaluation, ruinous when fault grading replays the same
//! structure millions of times. This module lowers a levelized
//! [`CompiledCircuit`] **once** into a [`KernelProgram`]: a flat,
//! branch-free bytecode of word ops over [`LaneWord`] that a tight
//! dispatch loop executes with no per-gate kind match and no
//! node-indexed CSR indirection on the hot path.
//!
//! # Lowering pipeline
//!
//! 1. **Slot assignment** — every materialized node computes into the
//!    frame slot of its node index, so kernel frames remain layout-
//!    compatible with interpreter frames (PRPG fills, scan loads and
//!    MISR unloads are untouched).
//! 2. **Constant folding** — operands that resolve to `Const0`/`Const1`
//!    are folded into their consumers (`And` drops const-1 pins and
//!    dies on const-0 pins, `Xor` folds constants into a parity flip,
//!    `Mux2` collapses around constant pins); a whole cone of constants
//!    folds to a single `Const0`/`Const1` instruction, or to nothing at
//!    all if no kept node needs the value.
//! 3. **NOT/BUF chain fusion** — fanout-free `Buf`/`Not` (and
//!    constant-reduced single-operand gates) are fused into their
//!    consumer's *operand*: each operand word carries an inversion bit,
//!    so a chain of inverters costs zero instructions. Output-inverting
//!    gates (`Nand`/`Nor`/`Xnor`) are canonicalized by De Morgan into
//!    the base family with inverted operands — bit-exact at word level.
//! 4. **Level runs** — instructions are emitted in schedule (level)
//!    order and [`KernelProgram::level_starts`] records each level's
//!    run, so pool sharding across a level stays possible exactly as
//!    with the interpreter's schedule.
//!
//! Nodes in the caller-supplied **keep set** (observed nodes, capture
//! `D` sources, fault sites…) are always materialized: their slots hold
//! bit-identical values to the interpreter, which is what makes fault
//! injection, detection and MISR absorption drop-in.
//!
//! # Patched-instruction fault injection
//!
//! A fault is not a netlist overlay here but a **patched instruction**:
//! [`KernelProgram::execute_patched`] swaps the result of exactly one
//! instruction for a forced word (`Force0`/`Force1` for stuck-at, the
//! [`PatchKind::FlipLanes`] delay variant for transition faults) and
//! leaves the program itself untouched, so the same shared program
//! serves fault-free simulation and every per-fault replay. The fault
//! simulators in `lbist-fault` reach the same detection words sparsely,
//! for speed: stuck-at faults by tracing each effect to its
//! fanout-free-region stem and draining events from there, transition
//! faults by draining events frame by frame, both with
//! [`KernelProgram::eval_instr`] over an overlay read. Property tests
//! pin them to a slow reference grader with the same semantics.

use crate::compiled::CompiledCircuit;
use lbist_exec::LaneWord;
use lbist_netlist::GateKind;

/// Operand flag: read the slot and complement it (a fused NOT).
const INV: u32 = 1 << 31;
/// Low bits of an operand: the frame slot to read.
const SLOT: u32 = INV - 1;
/// `instr_of_node` sentinel for nodes without an instruction.
const NO_INSTR: u32 = u32::MAX;

/// One word operation. Output-inverting gate kinds never appear: they
/// are canonicalized into these by De Morgan / parity folding during
/// lowering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `dst = 0` (a kept constant-resolved node).
    Const0,
    /// `dst = !0`.
    Const1,
    /// `dst = rd(a)` (kept Buf/Not/Output or a gate reduced to one pin).
    Copy,
    /// `dst = rd(a) & rd(b)`.
    And2,
    /// `dst = rd(a) | rd(b)`.
    Or2,
    /// `dst = rd(a) ^ rd(b)`.
    Xor2,
    /// `dst = rd(a) & rd(b) & rd(c)`.
    And3,
    /// `dst = rd(a) | rd(b) | rd(c)`.
    Or3,
    /// `dst = rd(a) ^ rd(b) ^ rd(c)`.
    Xor3,
    /// `dst = AND of pool[a..a+b]`.
    AndN,
    /// `dst = OR of pool[a..a+b]`.
    OrN,
    /// `dst = XOR of pool[a..a+b]`.
    XorN,
    /// `dst = (!rd(a) & rd(b)) | (rd(a) & rd(c))` — 2:1 mux, sel `a`.
    Mux,
}

/// One lowered instruction: `dst` is always the node's own frame slot;
/// `a`/`b`/`c` are inline operands (slot | inversion bit) for arity ≤ 3
/// and `(pool start, len)` for the n-ary ops.
#[derive(Clone, Copy, Debug)]
struct Instr {
    dst: u32,
    a: u32,
    b: u32,
    c: u32,
    op: Op,
}

/// What the kernel knows about a node's frame slot; see
/// [`KernelProgram::slot_state`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotState {
    /// A frame source (input, flip-flop, X-source, constant): the
    /// caller loads the slot, the kernel reads it. Constant sources
    /// count too — frames preload them.
    Source,
    /// Computed by the instruction at this index: the slot holds the
    /// bit-exact interpreter value after [`KernelProgram::execute`].
    Instr(usize),
    /// Fused into consumers (NOT/BUF chain interior): the slot is
    /// **stale** after kernel execution; no one reads it.
    Fused,
    /// Constant-resolved and folded away: the node's value is this
    /// constant on every lane, no slot is written.
    Const(bool),
}

/// Lowering statistics, also published as kernel telemetry
/// (`sim.kernel.instrs`, `sim.kernel.fused_gates`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LowerStats {
    /// Instructions emitted (== materialized non-source nodes).
    pub instrs: usize,
    /// Scheduled nodes fused away (NOT/BUF chains + folded constants).
    pub fused_gates: usize,
    /// Operand-pool words used by n-ary instructions.
    pub pool_words: usize,
}

/// How a patched instruction forces its destination word; see
/// [`KernelProgram::execute_patched`].
#[derive(Clone, Copy, Debug)]
pub enum PatchKind<W: LaneWord> {
    /// Stuck-at-0: the instruction writes all-zero.
    Force0,
    /// Stuck-at-1: the instruction writes all-ones.
    Force1,
    /// Delay-fault variant: the instruction's computed word with the
    /// given lanes flipped (a slow transition holds its previous value
    /// exactly on the activated lanes).
    FlipLanes(W),
}

/// A compiled simulation program: the product of lowering a
/// [`CompiledCircuit`] once, executable at any lane width.
///
/// Immutable after lowering and plain owned data, so one `Arc`'d
/// program is shared read-only across all grading worker threads (the
/// same contract as `CompiledCircuit` itself).
#[derive(Clone, Debug)]
pub struct KernelProgram {
    num_nodes: usize,
    instrs: Vec<Instr>,
    pool: Vec<u32>,
    /// `level_starts[l]` = index of the first instruction of level `l`;
    /// one past-the-end entry, so level `l` runs over
    /// `instrs[level_starts[l]..level_starts[l+1]]`.
    level_starts: Vec<u32>,
    /// Node index → instruction index ([`NO_INSTR`] if none).
    instr_of_node: Vec<u32>,
    /// Per-node slot bookkeeping for replay planning: 0 = source,
    /// 1 = instr, 2 = fused, 3 = const0, 4 = const1.
    state: Vec<u8>,
    stats: LowerStats,
}

/// Operand resolution during lowering: what a consumer should read for
/// a given fanin node.
#[derive(Clone, Copy, Debug)]
enum Res {
    /// Read this operand (slot + inversion bit).
    Operand(u32),
    /// The value is this constant on every lane.
    Const(bool),
}

impl Res {
    fn invert(self) -> Res {
        match self {
            Res::Operand(o) => Res::Operand(o ^ INV),
            Res::Const(b) => Res::Const(!b),
        }
    }
}

/// Normal form of a node after operand resolution + constant folding.
enum Nf {
    Const(bool),
    Pass(u32),
    Gate(Fam, Vec<u32>),
}

/// Canonical gate families (inverting kinds fold into these).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Fam {
    And,
    Or,
    Xor,
    Mux,
}

impl KernelProgram {
    /// Lowers `cc` into a kernel program.
    ///
    /// `keep` marks nodes that must stay **materialized** (their slot
    /// holds the bit-exact interpreter value after execution): pass the
    /// observed nodes, every capture `D` source, and every fault site
    /// the caller will inject at. Everything else is fair game for
    /// fusion and constant folding. `lbist-fault` builds this set via
    /// `grading_keep_set`.
    ///
    /// # Panics
    ///
    /// Panics if `keep.len() != cc.num_nodes()`.
    pub fn lower(cc: &CompiledCircuit, keep: &[bool]) -> KernelProgram {
        let n = cc.num_nodes();
        assert_eq!(keep.len(), n, "keep set must cover every node");

        let mut res: Vec<Res> = Vec::with_capacity(n);
        for i in 0..n {
            let id = lbist_netlist::NodeId::from_index(i);
            res.push(match cc.kind(id) {
                GateKind::Const0 => Res::Const(false),
                GateKind::Const1 => Res::Const(true),
                _ => Res::Operand(i as u32),
            });
        }

        let mut prog = KernelProgram {
            num_nodes: n,
            instrs: Vec::new(),
            pool: Vec::new(),
            level_starts: Vec::new(),
            instr_of_node: vec![NO_INSTR; n],
            state: vec![0u8; n],
            stats: LowerStats::default(),
        };

        for &node in cc.schedule() {
            let kind = cc.kind(node);
            let fanins = cc.fanins(node);
            let nf = match kind {
                GateKind::Buf | GateKind::Output => match res[fanins[0].index()] {
                    Res::Operand(o) => Nf::Pass(o),
                    Res::Const(b) => Nf::Const(b),
                },
                GateKind::Not => match res[fanins[0].index()].invert() {
                    Res::Operand(o) => Nf::Pass(o),
                    Res::Const(b) => Nf::Const(b),
                },
                GateKind::And | GateKind::Nand => {
                    fold_and_or(Fam::And, kind == GateKind::Nand, fanins, &res)
                }
                GateKind::Or | GateKind::Nor => {
                    fold_and_or(Fam::Or, kind == GateKind::Nor, fanins, &res)
                }
                GateKind::Xor | GateKind::Xnor => fold_xor(kind == GateKind::Xnor, fanins, &res),
                GateKind::Mux2 => {
                    fold_mux(res[fanins[0].index()], res[fanins[1].index()], res[fanins[2].index()])
                }
                GateKind::Input
                | GateKind::Dff
                | GateKind::XSource
                | GateKind::Const0
                | GateKind::Const1 => unreachable!("frame sources are never scheduled"),
            };

            let idx = node.index();
            match nf {
                Nf::Const(b) => {
                    if keep[idx] {
                        prog.emit(idx, if b { Op::Const1 } else { Op::Const0 }, 0, 0, 0);
                        res[idx] = Res::Operand(idx as u32);
                        prog.state[idx] = 1;
                    } else {
                        res[idx] = Res::Const(b);
                        prog.state[idx] = if b { 4 } else { 3 };
                        prog.stats.fused_gates += 1;
                    }
                }
                Nf::Pass(o) => {
                    if keep[idx] || cc.fanouts(node).len() != 1 {
                        prog.emit(idx, Op::Copy, o, 0, 0);
                        res[idx] = Res::Operand(idx as u32);
                        prog.state[idx] = 1;
                    } else {
                        res[idx] = Res::Operand(o);
                        prog.state[idx] = 2;
                        prog.stats.fused_gates += 1;
                    }
                }
                Nf::Gate(fam, slots) => {
                    prog.emit_gate(idx, fam, &slots);
                    res[idx] = Res::Operand(idx as u32);
                    prog.state[idx] = 1;
                }
            }
        }

        // Level runs: instructions are in schedule (level) order, so
        // each level is one contiguous run of the instruction list.
        let max_level = cc.max_level() as usize;
        let mut starts = vec![0u32; max_level + 2];
        let mut cur = 0usize;
        for (i, ins) in prog.instrs.iter().enumerate() {
            let lvl = cc.level(lbist_netlist::NodeId::from_index(ins.dst as usize)) as usize;
            debug_assert!(lvl >= cur, "schedule order must be level order");
            while cur < lvl {
                cur += 1;
                starts[cur] = i as u32;
            }
        }
        while cur <= max_level {
            cur += 1;
            starts[cur] = prog.instrs.len() as u32;
        }
        prog.level_starts = starts;

        prog.stats.instrs = prog.instrs.len();
        prog.stats.pool_words = prog.pool.len();
        prog
    }

    /// [`KernelProgram::lower`] with telemetry: records the lowering
    /// wall time into the `sim.kernel.compile_ns` histogram and the
    /// program shape into the `sim.kernel.instrs` /
    /// `sim.kernel.fused_gates` counters of `registry`.
    pub fn lower_with_metrics(
        cc: &CompiledCircuit,
        keep: &[bool],
        registry: &lbist_obs::Registry,
    ) -> KernelProgram {
        let t0 = std::time::Instant::now();
        let prog = Self::lower(cc, keep);
        registry
            .histogram("sim.kernel.compile_ns")
            .record(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
        registry.counter("sim.kernel.instrs").add(prog.stats.instrs as u64);
        registry.counter("sim.kernel.fused_gates").add(prog.stats.fused_gates as u64);
        prog
    }

    fn emit(&mut self, dst: usize, op: Op, a: u32, b: u32, c: u32) {
        self.instr_of_node[dst] = self.instrs.len() as u32;
        self.instrs.push(Instr { dst: dst as u32, a, b, c, op });
    }

    fn emit_gate(&mut self, dst: usize, fam: Fam, slots: &[u32]) {
        match (fam, slots.len()) {
            (Fam::Mux, 3) => self.emit(dst, Op::Mux, slots[0], slots[1], slots[2]),
            (Fam::And, 2) => self.emit(dst, Op::And2, slots[0], slots[1], 0),
            (Fam::Or, 2) => self.emit(dst, Op::Or2, slots[0], slots[1], 0),
            (Fam::Xor, 2) => self.emit(dst, Op::Xor2, slots[0], slots[1], 0),
            (Fam::And, 3) => self.emit(dst, Op::And3, slots[0], slots[1], slots[2]),
            (Fam::Or, 3) => self.emit(dst, Op::Or3, slots[0], slots[1], slots[2]),
            (Fam::Xor, 3) => self.emit(dst, Op::Xor3, slots[0], slots[1], slots[2]),
            (fam, n) => {
                debug_assert!(n >= 4);
                let start = self.pool.len() as u32;
                self.pool.extend_from_slice(slots);
                let op = match fam {
                    Fam::And => Op::AndN,
                    Fam::Or => Op::OrN,
                    Fam::Xor => Op::XorN,
                    Fam::Mux => unreachable!("mux is always ternary"),
                };
                self.emit(dst, op, start, n as u32, 0);
            }
        }
    }

    /// Number of frame slots (== [`CompiledCircuit::num_nodes`] of the
    /// lowered circuit).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of lowered instructions.
    pub fn num_instrs(&self) -> usize {
        self.instrs.len()
    }

    /// Lowering statistics.
    pub fn stats(&self) -> &LowerStats {
        &self.stats
    }

    /// What the program did with a node's slot — replay planners use
    /// this to validate that every site they patch and every node they
    /// observe is materialized.
    pub fn slot_state(&self, node: lbist_netlist::NodeId) -> SlotState {
        match self.state[node.index()] {
            0 => SlotState::Source,
            1 => SlotState::Instr(self.instr_of_node[node.index()] as usize),
            2 => SlotState::Fused,
            3 => SlotState::Const(false),
            4 => SlotState::Const(true),
            _ => unreachable!(),
        }
    }

    /// `true` when the node's slot holds a valid value after
    /// [`KernelProgram::execute`] (a source or a materialized node).
    pub fn has_slot(&self, node: lbist_netlist::NodeId) -> bool {
        matches!(self.slot_state(node), SlotState::Source | SlotState::Instr(_))
    }

    /// The frame slot an instruction writes.
    #[inline]
    pub fn instr_dst(&self, idx: usize) -> usize {
        self.instrs[idx].dst as usize
    }

    /// Per-level instruction runs: level `l` occupies
    /// `level_starts()[l]..level_starts()[l + 1]` of the instruction
    /// list. Level order is the only execution-order constraint, so a
    /// pool can shard *within* a level exactly as the interpreter's
    /// schedule allowed.
    pub fn level_starts(&self) -> &[u32] {
        &self.level_starts
    }

    /// Visits the frame slots instruction `idx` reads (inversion flags
    /// stripped, n-ary operands resolved through the pool). A slot may
    /// repeat if the instruction reads it on several pins. Replay
    /// planners use this to build slot → consumer event edges.
    #[inline]
    pub fn for_each_operand(&self, idx: usize, mut f: impl FnMut(usize)) {
        let ins = &self.instrs[idx];
        match ins.op {
            Op::Const0 | Op::Const1 => {}
            Op::Copy => f((ins.a & SLOT) as usize),
            Op::And2 | Op::Or2 | Op::Xor2 => {
                f((ins.a & SLOT) as usize);
                f((ins.b & SLOT) as usize);
            }
            Op::And3 | Op::Or3 | Op::Xor3 | Op::Mux => {
                f((ins.a & SLOT) as usize);
                f((ins.b & SLOT) as usize);
                f((ins.c & SLOT) as usize);
            }
            Op::AndN | Op::OrN | Op::XorN => {
                for &o in &self.pool[ins.a as usize..(ins.a + ins.b) as usize] {
                    f((o & SLOT) as usize);
                }
            }
        }
    }

    /// Evaluates one instruction against an arbitrary read function
    /// (`read(slot)` returns the current word of a frame slot; operand
    /// inversions are applied on top). This is the primitive the fault
    /// simulators' event drain uses with an overlay read, and stuck-at
    /// tracing with one operand's slot read complemented.
    #[inline]
    pub fn eval_instr<W: LaneWord>(&self, idx: usize, read: impl Fn(u32) -> W) -> W {
        let ins = &self.instrs[idx];
        let rd = |o: u32| {
            let w = read(o & SLOT);
            if o & INV != 0 {
                w.not()
            } else {
                w
            }
        };
        match ins.op {
            Op::Const0 => W::zero(),
            Op::Const1 => W::ones(),
            Op::Copy => rd(ins.a),
            Op::And2 => rd(ins.a).and(rd(ins.b)),
            Op::Or2 => rd(ins.a).or(rd(ins.b)),
            Op::Xor2 => rd(ins.a).xor(rd(ins.b)),
            Op::And3 => rd(ins.a).and(rd(ins.b)).and(rd(ins.c)),
            Op::Or3 => rd(ins.a).or(rd(ins.b)).or(rd(ins.c)),
            Op::Xor3 => rd(ins.a).xor(rd(ins.b)).xor(rd(ins.c)),
            Op::AndN => self.pool[ins.a as usize..(ins.a + ins.b) as usize]
                .iter()
                .fold(W::ones(), |acc, &o| acc.and(rd(o))),
            Op::OrN => self.pool[ins.a as usize..(ins.a + ins.b) as usize]
                .iter()
                .fold(W::zero(), |acc, &o| acc.or(rd(o))),
            Op::XorN => self.pool[ins.a as usize..(ins.a + ins.b) as usize]
                .iter()
                .fold(W::zero(), |acc, &o| acc.xor(rd(o))),
            Op::Mux => {
                let s = rd(ins.a);
                s.not().and(rd(ins.b)).or(s.and(rd(ins.c)))
            }
        }
    }

    /// Executes the instruction range `[lo, hi)` in place. Used for
    /// level-sharded execution; `execute` is the `0..num_instrs` case.
    #[inline]
    pub fn execute_range<W: LaneWord>(&self, frame: &mut [W], lo: usize, hi: usize) {
        debug_assert_eq!(frame.len(), self.num_nodes);
        for idx in lo..hi {
            let v = self.eval_instr(idx, |slot| frame[slot as usize]);
            frame[self.instrs[idx].dst as usize] = v;
        }
    }

    /// Full fault-free evaluation: the kernel equivalent of
    /// [`CompiledCircuit::eval2`]. The caller loads source slots; on
    /// return every **materialized** slot holds the bit-exact
    /// interpreter value (fused slots are stale by design — nothing
    /// reads them; see [`SlotState`]).
    ///
    /// # Panics
    ///
    /// Panics if the frame length differs from
    /// [`KernelProgram::num_nodes`].
    pub fn execute<W: LaneWord>(&self, frame: &mut [W]) {
        assert_eq!(frame.len(), self.num_nodes, "frame length mismatch");
        self.execute_range(frame, 0, self.instrs.len());
    }

    /// The kernel equivalent of [`CompiledCircuit::eval2_into`]:
    /// copies `base` into `dst` and executes in place.
    ///
    /// # Panics
    ///
    /// Panics if either frame length differs from
    /// [`KernelProgram::num_nodes`].
    pub fn execute_into<W: LaneWord>(&self, base: &[W], dst: &mut [W]) {
        assert_eq!(base.len(), self.num_nodes, "base frame length mismatch");
        dst.copy_from_slice(base);
        self.execute(dst);
    }

    /// Full evaluation with exactly one **patched instruction**: the
    /// instruction at `patched` has its result swapped for the forced
    /// word ([`PatchKind`]), every downstream instruction consumes the
    /// faulty value, and the program itself is never mutated — so the
    /// shared program stays valid for concurrent fault-free use.
    ///
    /// This is the reference semantics of kernel fault injection; the
    /// fault simulators reach the same observed words sparsely, by
    /// fanout-free-region tracing and an event drain (see the module
    /// doc).
    ///
    /// # Panics
    ///
    /// Panics if the frame length differs from
    /// [`KernelProgram::num_nodes`] or `patched` is out of range.
    pub fn execute_patched<W: LaneWord>(
        &self,
        frame: &mut [W],
        patched: usize,
        patch: PatchKind<W>,
    ) {
        assert_eq!(frame.len(), self.num_nodes, "frame length mismatch");
        assert!(patched < self.instrs.len(), "patched instruction out of range");
        for idx in 0..self.instrs.len() {
            let mut v = self.eval_instr(idx, |slot| frame[slot as usize]);
            if idx == patched {
                v = match patch {
                    PatchKind::Force0 => W::zero(),
                    PatchKind::Force1 => W::ones(),
                    PatchKind::FlipLanes(m) => v.xor(m),
                };
            }
            frame[self.instrs[idx].dst as usize] = v;
        }
    }
}

/// Folds an AND/OR-family gate: neutral constants drop, absorbing
/// constants kill the gate, and an inverting output (`Nand`/`Nor`) is
/// canonicalized by De Morgan into the dual family with all operands
/// inverted.
fn fold_and_or(fam: Fam, out_inv: bool, fanins: &[lbist_netlist::NodeId], res: &[Res]) -> Nf {
    let absorbing = fam == Fam::Or; // Or dies on const-1, And on const-0
    let mut slots: Vec<u32> = Vec::with_capacity(fanins.len());
    for &f in fanins {
        match res[f.index()] {
            Res::Const(b) => {
                if b == absorbing {
                    return Nf::Const(absorbing != out_inv);
                }
                // Neutral constant: drop the pin.
            }
            Res::Operand(o) => slots.push(o),
        }
    }
    match slots.len() {
        0 => Nf::Const(absorbing == out_inv), // empty And = 1, empty Or = 0
        1 => Nf::Pass(if out_inv { slots[0] ^ INV } else { slots[0] }),
        _ => {
            if out_inv {
                // De Morgan: !(a & b) = !a | !b (bit-exact per lane).
                for s in &mut slots {
                    *s ^= INV;
                }
                Nf::Gate(if fam == Fam::And { Fam::Or } else { Fam::And }, slots)
            } else {
                Nf::Gate(fam, slots)
            }
        }
    }
}

/// Folds an XOR-family gate: constants accumulate into a parity flip
/// that lands on the first remaining operand's inversion bit.
fn fold_xor(out_inv: bool, fanins: &[lbist_netlist::NodeId], res: &[Res]) -> Nf {
    let mut parity = out_inv;
    let mut slots: Vec<u32> = Vec::with_capacity(fanins.len());
    for &f in fanins {
        match res[f.index()] {
            Res::Const(b) => parity ^= b,
            Res::Operand(o) => slots.push(o),
        }
    }
    match slots.len() {
        0 => Nf::Const(parity),
        1 => Nf::Pass(if parity { slots[0] ^ INV } else { slots[0] }),
        _ => {
            if parity {
                slots[0] ^= INV; // !(a ^ b) = (!a) ^ b, bit-exact
            }
            Nf::Gate(Fam::Xor, slots)
        }
    }
}

/// Folds a 2:1 mux (`(!s & x) | (s & y)`) around constant pins using
/// the exact per-lane absorption identities.
fn fold_mux(s: Res, x: Res, y: Res) -> Nf {
    match (s, x, y) {
        (Res::Const(sv), x, y) => match if sv { y } else { x } {
            Res::Operand(o) => Nf::Pass(o),
            Res::Const(b) => Nf::Const(b),
        },
        (Res::Operand(s), Res::Const(xv), Res::Const(yv)) => match (xv, yv) {
            (false, false) => Nf::Const(false),
            (true, true) => Nf::Const(true),
            (false, true) => Nf::Pass(s),
            (true, false) => Nf::Pass(s ^ INV),
        },
        (Res::Operand(s), Res::Const(xv), Res::Operand(y)) => {
            if xv {
                // (!s & 1) | (s & y) = !s | y
                Nf::Gate(Fam::Or, vec![s ^ INV, y])
            } else {
                // (!s & 0) | (s & y) = s & y
                Nf::Gate(Fam::And, vec![s, y])
            }
        }
        (Res::Operand(s), Res::Operand(x), Res::Const(yv)) => {
            if yv {
                // (!s & x) | (s & 1) = x | s
                Nf::Gate(Fam::Or, vec![x, s])
            } else {
                // (!s & x) | (s & 0) = !s & x
                Nf::Gate(Fam::And, vec![s ^ INV, x])
            }
        }
        (Res::Operand(s), Res::Operand(x), Res::Operand(y)) => Nf::Gate(Fam::Mux, vec![s, x, y]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::{GateKind, Netlist, NodeId};

    /// Lowers with every node kept: nothing fuses, every scheduled node
    /// gets bit-exact slot values — the strictest equivalence baseline.
    fn lower_keep_all(cc: &CompiledCircuit) -> KernelProgram {
        KernelProgram::lower(cc, &vec![true; cc.num_nodes()])
    }

    /// Lowers with a minimal keep set (outputs + DFF `D` sources), the
    /// shape grading uses.
    fn lower_keep_captures(cc: &CompiledCircuit) -> KernelProgram {
        let mut keep = vec![false; cc.num_nodes()];
        for &o in cc.outputs() {
            keep[o.index()] = true;
        }
        for &ff in cc.dffs() {
            keep[cc.fanins(ff)[0].index()] = true;
        }
        KernelProgram::lower(cc, &keep)
    }

    /// A mixed netlist exercising every gate kind, constants, fanout
    /// and NOT/BUF chains.
    fn mixed_netlist() -> Netlist {
        let mut nl = Netlist::new("mix");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let d = nl.add_input("d");
        let c0 = nl.add_const(false);
        let c1 = nl.add_const(true);
        let n1 = nl.add_gate(GateKind::Not, &[a]);
        let n2 = nl.add_gate(GateKind::Not, &[n1]); // chain interior
        let buf = nl.add_gate(GateKind::Buf, &[n2]);
        let and = nl.add_gate(GateKind::And, &[buf, b, c1]); // const-1 pin drops
        let nand = nl.add_gate(GateKind::Nand, &[a, b, c, d]); // n-ary + De Morgan
        let or = nl.add_gate(GateKind::Or, &[and, c0]); // const-0 pin drops
        let nor = nl.add_gate(GateKind::Nor, &[or, nand]);
        let xor = nl.add_gate(GateKind::Xor, &[nor, c1, d]); // const parity flip
        let xnor = nl.add_gate(GateKind::Xnor, &[xor, a]);
        let mux = nl.add_gate(GateKind::Mux2, &[xnor, and, nand]);
        let mux_c = nl.add_gate(GateKind::Mux2, &[c1, a, mux]); // const select
        let dead = nl.add_gate(GateKind::And, &[c0, a]); // const-resolved cone
        let dead2 = nl.add_gate(GateKind::Or, &[dead, c0]);
        nl.add_output("y", mux_c);
        nl.add_output("z", dead2);
        nl
    }

    fn rand_word(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// Kernel execution matches the interpreter bit-for-bit at every
    /// materialized slot, for both keep-set shapes.
    #[test]
    fn kernel_matches_interpreter_on_materialized_slots() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        for prog in [lower_keep_all(&cc), lower_keep_captures(&cc)] {
            let mut x = 0x0123_4567_89AB_CDEF_u64;
            for _ in 0..16 {
                let mut reference = cc.new_frame();
                for &i in cc.inputs() {
                    reference[i.index()] = rand_word(&mut x);
                }
                let mut frame = reference.clone();
                cc.eval2(&mut reference);
                prog.execute(&mut frame);
                for i in 0..cc.num_nodes() {
                    let id = NodeId::from_index(i);
                    if prog.has_slot(id) {
                        assert_eq!(frame[i], reference[i], "slot {id} diverged");
                    }
                }
            }
        }
    }

    /// The production keep-set actually fuses gates, and the const
    /// cone folds to nothing.
    #[test]
    fn fusion_and_folding_shrink_the_program() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let all = lower_keep_all(&cc);
        let min = lower_keep_captures(&cc);
        assert_eq!(all.stats().fused_gates, 0, "keep-all must not fuse");
        assert!(min.stats().fused_gates > 0, "capture keep-set must fuse chains");
        assert!(min.num_instrs() < all.num_instrs());
        assert_eq!(all.num_instrs(), cc.schedule().len());
        // The dead const cone (`dead`, `dead2`) resolves: the kept
        // output marker becomes a Const instruction, the interiors
        // vanish.
        let dead_like: Vec<SlotState> = (0..cc.num_nodes())
            .map(|i| min.slot_state(NodeId::from_index(i)))
            .filter(|s| matches!(s, SlotState::Const(_)))
            .collect();
        assert!(!dead_like.is_empty(), "const folding must resolve the dead cone");
    }

    /// Level runs partition the instruction list and executing them
    /// level by level (the pool-sharding shape) equals one flat pass.
    #[test]
    fn level_runs_partition_and_execute() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let prog = lower_keep_captures(&cc);
        let starts = prog.level_starts();
        assert_eq!(*starts.last().unwrap() as usize, prog.num_instrs());
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "level runs must be ordered");

        let mut x = 7u64;
        let mut flat = cc.new_frame();
        for &i in cc.inputs() {
            flat[i.index()] = rand_word(&mut x);
        }
        let mut level_by_level = flat.clone();
        prog.execute(&mut flat);
        for w in prog.level_starts().windows(2) {
            prog.execute_range(&mut level_by_level, w[0] as usize, w[1] as usize);
        }
        assert_eq!(flat, level_by_level);
    }

    /// `execute_patched` is the interpreter's pinned-site faulty
    /// evaluation: force a site, compare observed slots.
    #[test]
    fn patched_execution_matches_pinned_interpreter() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let prog = lower_keep_all(&cc);
        let mut x = 99u64;
        let mut base = cc.new_frame();
        for &i in cc.inputs() {
            base[i.index()] = rand_word(&mut x);
        }
        for &site in cc.schedule() {
            let SlotState::Instr(idx) = prog.slot_state(site) else { continue };
            for force1 in [false, true] {
                // Interpreter reference: evaluate with the site pinned.
                let forced = if force1 { !0u64 } else { 0 };
                let mut reference = base.clone();
                for &n in cc.schedule() {
                    reference[n.index()] = cc.eval_node2(n, &reference);
                    if n == site {
                        reference[n.index()] = forced;
                    }
                }
                let mut frame = base.clone();
                let patch = if force1 { PatchKind::Force1 } else { PatchKind::<u64>::Force0 };
                prog.execute_patched(&mut frame, idx, patch);
                for i in 0..cc.num_nodes() {
                    assert_eq!(
                        frame[i], reference[i],
                        "patched slot {i} diverged (site {site}, force1={force1})"
                    );
                }
            }
        }
    }

    /// The delay-variant patch flips exactly the activated lanes.
    #[test]
    fn flip_lanes_patch_is_partial() {
        let mut nl = Netlist::new("flip");
        let a = nl.add_input("a");
        let inv = nl.add_gate(GateKind::Not, &[a]);
        nl.add_output("y", inv);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let prog = lower_keep_all(&cc);
        let SlotState::Instr(idx) = prog.slot_state(inv) else { panic!("kept") };
        let mut frame = cc.new_frame();
        frame[a.index()] = 0b1100;
        prog.execute_patched(&mut frame, idx, PatchKind::FlipLanes(0b0110u64));
        // Fault-free NOT(a) = ...0011; lanes 1 and 2 flipped -> ...0101.
        assert_eq!(frame[inv.index()] & 0b1111, 0b0101);
    }

    /// Executing at every lane width produces the same sub-words (the
    /// kernel inherits the interpreter's width invariance).
    #[test]
    fn kernel_wide_matches_64_lane_subwords() {
        fn check<W: LaneWord>() {
            let nl = mixed_netlist();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let prog = lower_keep_captures(&cc);
            let mut wide: Vec<W> = cc.new_wide_frame();
            let mut narrow: Vec<Vec<u64>> = (0..W::WORDS).map(|_| cc.new_frame()).collect();
            let mut x = 0xABCDu64;
            for &i in cc.inputs() {
                for (k, frame) in narrow.iter_mut().enumerate() {
                    let w = rand_word(&mut x);
                    wide[i.index()].set_word(k, w);
                    frame[i.index()] = w;
                }
            }
            prog.execute(&mut wide);
            for (k, frame) in narrow.iter_mut().enumerate() {
                prog.execute(frame);
                for i in 0..cc.num_nodes() {
                    let id = NodeId::from_index(i);
                    if prog.has_slot(id) {
                        assert_eq!(wide[i].word(k), frame[i], "node {i} sub-word {k}");
                    }
                }
            }
        }
        check::<u128>();
    }

    /// Slot-state bookkeeping: sources report `Source`, kept nodes
    /// report their instruction, fused interiors report `Fused`.
    #[test]
    fn slot_states_are_consistent() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let prog = lower_keep_captures(&cc);
        for &i in cc.inputs() {
            assert_eq!(prog.slot_state(i), SlotState::Source);
            assert!(prog.has_slot(i));
        }
        let mut fused = 0;
        let mut materialized = 0;
        for &n in cc.schedule() {
            match prog.slot_state(n) {
                SlotState::Instr(idx) => {
                    assert_eq!(prog.instr_dst(idx), n.index());
                    materialized += 1;
                }
                SlotState::Fused | SlotState::Const(_) => fused += 1,
                SlotState::Source => panic!("scheduled node {n} cannot be a source"),
            }
        }
        assert_eq!(materialized, prog.num_instrs());
        assert_eq!(fused, prog.stats().fused_gates);
    }

    /// Telemetry lowering records compile time and shape counters.
    #[test]
    fn lower_with_metrics_records() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let registry = lbist_obs::Registry::new();
        let prog = KernelProgram::lower_with_metrics(&cc, &vec![true; cc.num_nodes()], &registry);
        assert_eq!(registry.counter("sim.kernel.instrs").value(), prog.num_instrs() as u64);
        assert_eq!(registry.histogram("sim.kernel.compile_ns").count(), 1);
    }
}
