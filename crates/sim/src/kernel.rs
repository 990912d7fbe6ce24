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
//!
//! Instructions are emitted in schedule (level) order, so one forward
//! pass over the list evaluates every instruction after its operands.
//!
//! Nodes in the caller-supplied **keep set** (observed nodes, capture
//! `D` sources, fault sites…) are always materialized: their slots hold
//! bit-identical values to the interpreter, which is what makes fault
//! injection, detection and MISR absorption drop-in.
//!
//! # Fault injection
//!
//! The program never carries a fault: the same shared program serves
//! fault-free simulation and every per-fault replay. The fault
//! simulators in `lbist-fault` reach a fault's detection words
//! sparsely: stuck-at faults by tracing each effect to its
//! fanout-free-region stem and draining events from there, transition
//! faults by draining events frame by frame, both with
//! [`KernelProgram::eval_instr`] over an overlay read. Property tests
//! pin them to the slow reference grader, `lbist_fault::oracle`.

use crate::compiled::CompiledCircuit;
use lbist_exec::LaneWord;
use lbist_netlist::GateKind;

/// Operand flag: read the slot and complement it (a fused NOT).
const INV: u32 = 1 << 31;
/// Low bits of an operand: the frame slot to read.
const SLOT: u32 = INV - 1;

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
    /// Per-node slot bookkeeping for replay planning: 0 = source
    /// (loaded by the caller; constant sources count, frames preload
    /// them), 1 = computed by an instruction, 2 = fused into its
    /// consumers (the slot is stale after execution), 3 = const0,
    /// 4 = const1 (folded away, no slot is written).
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

    /// `true` when the node's slot holds a valid value after
    /// [`KernelProgram::execute`] (a source or a materialized node).
    /// Replay planners use this to validate that every fault site they
    /// seed and every node they observe is materialized.
    pub fn has_slot(&self, node: lbist_netlist::NodeId) -> bool {
        self.state[node.index()] <= 1
    }

    /// The frame slot an instruction writes.
    #[inline]
    pub fn instr_dst(&self, idx: usize) -> usize {
        self.instrs[idx].dst as usize
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

    /// Full fault-free evaluation: the kernel equivalent of
    /// [`CompiledCircuit::eval2`]. The caller loads source slots; on
    /// return every **materialized** slot holds the bit-exact
    /// interpreter value (fused slots are stale by design — nothing
    /// reads them; see [`KernelProgram::has_slot`]).
    ///
    /// # Panics
    ///
    /// Panics if the frame length differs from
    /// [`KernelProgram::num_nodes`].
    pub fn execute<W: LaneWord>(&self, frame: &mut [W]) {
        assert_eq!(frame.len(), self.num_nodes, "frame length mismatch");
        for idx in 0..self.instrs.len() {
            let v = self.eval_instr(idx, |slot| frame[slot as usize]);
            frame[self.instrs[idx].dst as usize] = v;
        }
    }

    /// Copies `base` into `dst` and executes in place, leaving `base`
    /// untouched.
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
        let z = nl.find("z").unwrap();
        let dead2 = nl.fanins(z)[0];
        let dead = nl.fanins(dead2)[0];
        assert!(min.has_slot(z), "the kept output marker stays materialized");
        assert!(
            !min.has_slot(dead) && !min.has_slot(dead2),
            "const folding must resolve the dead cone"
        );
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

    /// Slot bookkeeping: sources have slots, and the scheduled nodes
    /// split into the materialized ones (one instruction each, emitted
    /// in schedule order into the node's own slot) and the fused or
    /// folded ones.
    #[test]
    fn slot_states_are_consistent() {
        let nl = mixed_netlist();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let prog = lower_keep_captures(&cc);
        for &i in cc.inputs() {
            assert!(prog.has_slot(i));
        }
        let dsts: Vec<usize> = (0..prog.num_instrs()).map(|idx| prog.instr_dst(idx)).collect();
        let materialized: Vec<usize> =
            cc.schedule().iter().filter(|&&n| prog.has_slot(n)).map(|n| n.index()).collect();
        assert_eq!(dsts, materialized, "one instruction per materialized node, in schedule order");
        assert_eq!(cc.schedule().len() - materialized.len(), prog.stats().fused_gates);
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
