//! Bit-parallel 3-valued (0/1/X) simulation frames, generic over the
//! lane width.

use crate::compiled::CompiledCircuit;
use crate::logic::Logic;
use lbist_exec::LaneWord;
use lbist_netlist::{GateKind, NodeId};

/// The default 64-way 3-valued frame — [`WideFrame3`] at the `u64`
/// width every existing call site uses.
pub type Frame3 = WideFrame3<u64>;

/// A 3-valued value frame: per node one `(value, xmask)` word pair,
/// `W::LANES` patterns wide.
///
/// Encoding per pattern lane: `xmask = 1` means unknown (the `value` bit is
/// forced to 0 for canonicity); `xmask = 0` means the `value` bit is a
/// definite 0/1. The algebra is the usual pessimistic ternary extension:
/// a controlling definite value dominates (`0` on AND, `1` on OR), XOR of
/// anything with X is X.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind};
/// use lbist_sim::{CompiledCircuit, Frame3, Logic};
///
/// let mut nl = Netlist::new("xdemo");
/// let a = nl.add_input("a");
/// let x = nl.add_xsource();
/// let g = nl.add_gate(GateKind::And, &[a, x]);
/// nl.add_output("y", g);
///
/// let cc = CompiledCircuit::compile(&nl).unwrap();
/// let mut f = Frame3::new(&cc);
/// f.set(a, 0, Logic::Zero);
/// f.set(a, 1, Logic::One);
/// cc.eval3(&mut f);
/// assert_eq!(f.get(g, 0), Logic::Zero); // 0 blocks the X
/// assert_eq!(f.get(g, 1), Logic::X);    // 1 lets it through
/// ```
#[derive(Clone, Debug)]
pub struct WideFrame3<W: LaneWord = u64> {
    /// Definite-value bits (canonically 0 where `xmask` is 1).
    pub value: Vec<W>,
    /// Unknown-mask bits.
    pub xmask: Vec<W>,
}

impl<W: LaneWord> WideFrame3<W> {
    /// Allocates a frame for `cc` with constants preloaded and every
    /// X-source marked unknown on all lanes.
    pub fn new(cc: &CompiledCircuit) -> Self {
        let mut f =
            WideFrame3 { value: cc.new_wide_frame(), xmask: vec![W::zero(); cc.num_nodes()] };
        for &x in cc.xsources() {
            f.xmask[x.index()] = W::ones();
        }
        f
    }

    /// Sets pattern `pat` of `node` to a scalar logic value.
    ///
    /// # Panics
    ///
    /// Panics if `pat >= W::LANES`.
    pub fn set(&mut self, node: NodeId, pat: usize, v: Logic) {
        assert!(pat < W::LANES);
        let mut bit = W::zero();
        bit.set_lane(pat);
        let keep = bit.not();
        match v {
            Logic::Zero => {
                self.value[node.index()] = self.value[node.index()].and(keep);
                self.xmask[node.index()] = self.xmask[node.index()].and(keep);
            }
            Logic::One => {
                self.value[node.index()] = self.value[node.index()].or(bit);
                self.xmask[node.index()] = self.xmask[node.index()].and(keep);
            }
            Logic::X => {
                self.value[node.index()] = self.value[node.index()].and(keep);
                self.xmask[node.index()] = self.xmask[node.index()].or(bit);
            }
        }
    }

    /// Sets all lanes of `node` at once from packed words.
    pub fn set_words(&mut self, node: NodeId, value: W, xmask: W) {
        self.value[node.index()] = value.and(xmask.not());
        self.xmask[node.index()] = xmask;
    }

    /// Reads pattern `pat` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `pat >= W::LANES`.
    pub fn get(&self, node: NodeId, pat: usize) -> Logic {
        assert!(pat < W::LANES);
        if self.xmask[node.index()].get_lane(pat) {
            Logic::X
        } else if self.value[node.index()].get_lane(pat) {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Returns the X-mask word of a node.
    pub fn xmask_of(&self, node: NodeId) -> W {
        self.xmask[node.index()]
    }

    /// Returns the value word of a node.
    pub fn value_of(&self, node: NodeId) -> W {
        self.value[node.index()]
    }
}

impl CompiledCircuit {
    /// Full-frame 3-valued evaluation (see [`WideFrame3`]).
    pub fn eval3<W: LaneWord>(&self, frame: &mut WideFrame3<W>) {
        for &node in self.schedule() {
            let (v, x) = self.eval_node3(node, frame);
            frame.value[node.index()] = v.and(x.not());
            frame.xmask[node.index()] = x;
        }
    }

    /// Evaluates one node's 3-valued function from its fanin words,
    /// returning `(value, xmask)`.
    pub fn eval_node3<W: LaneWord>(&self, node: NodeId, frame: &WideFrame3<W>) -> (W, W) {
        let kind = self.kind(node);
        if kind.is_frame_source() {
            return (frame.value[node.index()], frame.xmask[node.index()]);
        }
        let fi = self.fanins(node);
        let v = |id: NodeId| frame.value[id.index()];
        let x = |id: NodeId| frame.xmask[id.index()];
        match kind {
            GateKind::Buf | GateKind::Output => (v(fi[0]), x(fi[0])),
            GateKind::Not => (v(fi[0]).not().and(x(fi[0]).not()), x(fi[0])),
            GateKind::And | GateKind::Nand => {
                let mut any_x = W::zero();
                let mut any_def0 = W::zero();
                let mut all1 = W::ones();
                for &f in fi {
                    any_x = any_x.or(x(f));
                    any_def0 = any_def0.or(v(f).not().and(x(f).not()));
                    all1 = all1.and(v(f));
                }
                let rx = any_x.and(any_def0.not());
                let rv = all1.and(rx.not());
                if kind == GateKind::And {
                    (rv, rx)
                } else {
                    (rv.not().and(rx.not()), rx)
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut any_x = W::zero();
                let mut any_def1 = W::zero();
                let mut any1 = W::zero();
                for &f in fi {
                    any_x = any_x.or(x(f));
                    any_def1 = any_def1.or(v(f).and(x(f).not()));
                    any1 = any1.or(v(f));
                }
                let rx = any_x.and(any_def1.not());
                let rv = any1.and(rx.not());
                if kind == GateKind::Or {
                    (rv, rx)
                } else {
                    (rv.not().and(rx.not()), rx)
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut any_x = W::zero();
                let mut parity = W::zero();
                for &f in fi {
                    any_x = any_x.or(x(f));
                    parity = parity.xor(v(f));
                }
                let rv = parity.and(any_x.not());
                if kind == GateKind::Xor {
                    (rv, any_x)
                } else {
                    (rv.not().and(any_x.not()), any_x)
                }
            }
            GateKind::Mux2 => {
                let (sv, sx) = (v(fi[0]), x(fi[0]));
                let (av, ax) = (v(fi[1]), x(fi[1]));
                let (bv, bx) = (v(fi[2]), x(fi[2]));
                let def_s0 = sv.not().and(sx.not());
                let def_s1 = sv.and(sx.not());
                // When sel is X the result is definite only if both data
                // inputs agree and are definite.
                let agree = av.xor(bv).not().and(ax.not()).and(bx.not());
                let rx = def_s0.and(ax).or(def_s1.and(bx)).or(sx.and(agree.not()));
                let rv = def_s0.and(av).or(def_s1.and(bv)).or(sx.and(agree).and(av)).and(rx.not());
                (rv, rx)
            }
            GateKind::Const0 => (W::zero(), W::zero()),
            GateKind::Const1 => (W::ones(), W::zero()),
            GateKind::Input | GateKind::Dff | GateKind::XSource => unreachable!(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::Netlist;

    fn one_gate(kind: GateKind, n: usize) -> (Netlist, Vec<NodeId>, NodeId) {
        let mut nl = Netlist::new("g");
        let ins: Vec<NodeId> = (0..n).map(|i| nl.add_input(&format!("i{i}"))).collect();
        let g = nl.add_gate(kind, &ins);
        nl.add_output("y", g);
        (nl, ins, g)
    }

    /// Exhaustively compares each 2-input gate against the scalar ternary
    /// algebra from `logic.rs`.
    #[test]
    fn gates_match_scalar_ternary_algebra() {
        let cases = [
            (GateKind::And, (|a: Logic, b: Logic| a & b) as fn(Logic, Logic) -> Logic),
            (GateKind::Nand, |a, b| !(a & b)),
            (GateKind::Or, |a, b| a | b),
            (GateKind::Nor, |a, b| !(a | b)),
            (GateKind::Xor, |a, b| a ^ b),
            (GateKind::Xnor, |a, b| !(a ^ b)),
        ];
        let vals = [Logic::Zero, Logic::One, Logic::X];
        for (kind, reference) in cases {
            let (nl, ins, g) = one_gate(kind, 2);
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let mut frame = Frame3::new(&cc);
            let mut pat = 0;
            for &a in &vals {
                for &b in &vals {
                    frame.set(ins[0], pat, a);
                    frame.set(ins[1], pat, b);
                    pat += 1;
                }
            }
            cc.eval3(&mut frame);
            let mut pat = 0;
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(frame.get(g, pat), reference(a, b), "{kind} on ({a},{b})");
                    pat += 1;
                }
            }
        }
    }

    #[test]
    fn not_and_buf_propagate_x() {
        let (nl, ins, g) = one_gate(GateKind::Not, 1);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut f = Frame3::new(&cc);
        f.set(ins[0], 0, Logic::X);
        f.set(ins[0], 1, Logic::One);
        cc.eval3(&mut f);
        assert_eq!(f.get(g, 0), Logic::X);
        assert_eq!(f.get(g, 1), Logic::Zero);
    }

    #[test]
    fn mux_x_select_cases() {
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.add_gate(GateKind::Mux2, &[s, a, b]);
        nl.add_output("y", m);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut f = Frame3::new(&cc);
        // pat 0: sel X, a=b=1 -> definite 1
        f.set(s, 0, Logic::X);
        f.set(a, 0, Logic::One);
        f.set(b, 0, Logic::One);
        // pat 1: sel X, a=0, b=1 -> X
        f.set(s, 1, Logic::X);
        f.set(a, 1, Logic::Zero);
        f.set(b, 1, Logic::One);
        // pat 2: sel 1, b=X -> X
        f.set(s, 2, Logic::One);
        f.set(a, 2, Logic::Zero);
        f.set(b, 2, Logic::X);
        // pat 3: sel 0, a=0, b=X -> 0
        f.set(s, 3, Logic::Zero);
        f.set(a, 3, Logic::Zero);
        f.set(b, 3, Logic::X);
        cc.eval3(&mut f);
        assert_eq!(f.get(m, 0), Logic::One);
        assert_eq!(f.get(m, 1), Logic::X);
        assert_eq!(f.get(m, 2), Logic::X);
        assert_eq!(f.get(m, 3), Logic::Zero);
    }

    /// The ternary algebra is width-blind: every 2-input gate evaluated
    /// on lanes past bit 63 matches the scalar reference.
    #[test]
    fn wide_ternary_matches_scalar_algebra_on_high_lanes() {
        fn check<W: LaneWord>() {
            let vals = [Logic::Zero, Logic::One, Logic::X];
            let (nl, ins, g) = one_gate(GateKind::Nand, 2);
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let mut frame: WideFrame3<W> = WideFrame3::new(&cc);
            let base = W::LANES - 9; // the last 9 lanes
            let mut pat = base;
            for &a in &vals {
                for &b in &vals {
                    frame.set(ins[0], pat, a);
                    frame.set(ins[1], pat, b);
                    pat += 1;
                }
            }
            cc.eval3(&mut frame);
            let mut pat = base;
            for &a in &vals {
                for &b in &vals {
                    assert_eq!(frame.get(g, pat), !(a & b), "{} lanes: ({a},{b})", W::LANES);
                    pat += 1;
                }
            }
        }
        check::<u128>();
    }

    #[test]
    fn xsources_default_to_x() {
        let mut nl = Netlist::new("x");
        let x = nl.add_xsource();
        let b = nl.add_gate(GateKind::Buf, &[x]);
        nl.add_output("y", b);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut f = Frame3::new(&cc);
        cc.eval3(&mut f);
        for pat in 0..64 {
            assert_eq!(f.get(b, pat), Logic::X);
        }
    }

    #[test]
    fn canonical_encoding_keeps_value_zero_under_x() {
        let (nl, ins, g) = one_gate(GateKind::Xor, 2);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut f = Frame3::new(&cc);
        f.set(ins[0], 0, Logic::X);
        f.set(ins[1], 0, Logic::One);
        cc.eval3(&mut f);
        assert_eq!(f.value_of(g) & 1, 0);
        assert_eq!(f.xmask_of(g) & 1, 1);
    }
}
