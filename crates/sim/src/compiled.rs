//! The flattened circuit representation all simulators share.

use lbist_exec::LaneWord;
use lbist_netlist::{DomainId, Fanouts, GateKind, Levelization, Netlist, NetlistError, NodeId};

/// A netlist compiled for fast repeated simulation.
///
/// Compilation copies the structure out of the arena into flat arrays:
/// a CSR fanin table, a level-ordered evaluation schedule of non-source
/// nodes, a CSR fanout table (PODEM's implication and X-path walks, and
/// kernel lowering's fusion test) and the source-node lists (inputs,
/// flip-flops, X-sources, constants). After compilation the original
/// [`Netlist`] is no longer needed for simulation.
///
/// Pattern-parallel convention: every net's value is one
/// [`LaneWord`] holding `W::LANES` independent patterns; lane `p` of
/// every word belongs to pattern `p`. The evaluation entry points
/// ([`CompiledCircuit::eval2`], [`eval_gate`]) are generic over the
/// word, so the same compiled circuit grades 64 (`u64`) or 128
/// (`u128`) patterns per pass; `u64` remains the default frame width
/// ([`CompiledCircuit::new_frame`]).
#[derive(Clone, Debug)]
pub struct CompiledCircuit {
    num_nodes: usize,
    kinds: Vec<GateKind>,
    fanin_start: Vec<u32>,
    fanins: Vec<NodeId>,
    fanout_start: Vec<u32>,
    fanouts: Vec<NodeId>,
    /// Non-source nodes in level order — the evaluation schedule.
    schedule: Vec<NodeId>,
    level: Vec<u32>,
    max_level: u32,
    inputs: Vec<NodeId>,
    outputs: Vec<NodeId>,
    dffs: Vec<NodeId>,
    xsources: Vec<NodeId>,
    const1: Vec<NodeId>,
    dff_domain: Vec<DomainId>,
    num_domains: usize,
}

impl CompiledCircuit {
    /// Compiles `netlist` for simulation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the netlist has a
    /// combinational cycle.
    pub fn compile(netlist: &Netlist) -> Result<Self, NetlistError> {
        let lv = Levelization::compute(netlist)?;
        let fo = Fanouts::compute(netlist);
        let n = netlist.len();

        let mut kinds = Vec::with_capacity(n);
        let mut fanin_start = Vec::with_capacity(n + 1);
        let mut fanins = Vec::new();
        fanin_start.push(0u32);
        for id in netlist.ids() {
            kinds.push(netlist.kind(id));
            fanins.extend_from_slice(netlist.fanins(id));
            fanin_start.push(fanins.len() as u32);
        }

        let mut fanout_start = Vec::with_capacity(n + 1);
        let mut fanouts = Vec::new();
        fanout_start.push(0u32);
        for id in netlist.ids() {
            fanouts.extend_from_slice(fo.readers(id));
            fanout_start.push(fanouts.len() as u32);
        }

        let schedule: Vec<NodeId> = lv.eval_order(netlist).collect();
        let level: Vec<u32> = netlist.ids().map(|id| lv.level(id)).collect();

        let dffs: Vec<NodeId> = netlist.dffs().to_vec();
        let dff_domain: Vec<DomainId> =
            dffs.iter().map(|&ff| netlist.domain(ff).unwrap_or_default()).collect();

        Ok(CompiledCircuit {
            num_nodes: n,
            kinds,
            fanin_start,
            fanins,
            fanout_start,
            fanouts,
            schedule,
            max_level: lv.max_level(),
            level,
            inputs: netlist.inputs().to_vec(),
            outputs: netlist.outputs().to_vec(),
            xsources: netlist.xsources().to_vec(),
            const1: netlist.ids().filter(|&id| netlist.kind(id) == GateKind::Const1).collect(),
            num_domains: netlist.num_domains(),
            dffs,
            dff_domain,
        })
    }

    /// Number of nodes (and length of every value frame).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The kind of a node.
    #[inline]
    pub fn kind(&self, node: NodeId) -> GateKind {
        self.kinds[node.index()]
    }

    /// Fanins of a node, in pin order.
    #[inline]
    pub fn fanins(&self, node: NodeId) -> &[NodeId] {
        let lo = self.fanin_start[node.index()] as usize;
        let hi = self.fanin_start[node.index() + 1] as usize;
        &self.fanins[lo..hi]
    }

    /// Nodes reading this node's output.
    #[inline]
    pub fn fanouts(&self, node: NodeId) -> &[NodeId] {
        let lo = self.fanout_start[node.index()] as usize;
        let hi = self.fanout_start[node.index() + 1] as usize;
        &self.fanouts[lo..hi]
    }

    /// Logic level of a node (0 for frame sources).
    #[inline]
    pub fn level(&self, node: NodeId) -> u32 {
        self.level[node.index()]
    }

    /// Maximum logic level in the design.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// The evaluation schedule: every non-source node in level order.
    #[inline]
    pub fn schedule(&self) -> &[NodeId] {
        &self.schedule
    }

    /// Primary inputs.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary output markers.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Flip-flops (frame sources; their word is the current state `Q`).
    pub fn dffs(&self) -> &[NodeId] {
        &self.dffs
    }

    /// Clock domain of the `i`-th flip-flop of [`CompiledCircuit::dffs`].
    #[inline]
    pub fn dff_domain(&self, i: usize) -> DomainId {
        self.dff_domain[i]
    }

    /// Number of clock domains.
    pub fn num_domains(&self) -> usize {
        self.num_domains
    }

    /// X-source nodes.
    pub fn xsources(&self) -> &[NodeId] {
        &self.xsources
    }

    /// Allocates a zeroed 2-valued value frame at the default 64-lane
    /// width (one `u64` word per node) with constants preloaded.
    pub fn new_frame(&self) -> Vec<u64> {
        self.new_wide_frame::<u64>()
    }

    /// Allocates a zeroed 2-valued value frame at an arbitrary lane
    /// width (one `W` word per node) with constants preloaded on every
    /// lane.
    pub fn new_wide_frame<W: LaneWord>(&self) -> Vec<W> {
        let mut v = vec![W::zero(); self.num_nodes];
        for &c in &self.const1 {
            v[c.index()] = W::ones();
        }
        v
    }

    /// Evaluates one node from the words in `values`: a gate from its
    /// fanin words, a frame source as the word loaded for it. Exposed so
    /// faulty frames can be re-simulated node by node, with the fault
    /// site's word overridden: the slow reference grader
    /// (`lbist_fault::oracle`) and a session's injected defect do.
    #[inline]
    pub fn eval_node2<W: LaneWord>(&self, node: NodeId, values: &[W]) -> W {
        let kind = self.kinds[node.index()];
        if kind.is_frame_source() {
            // Sources hold whatever the caller loaded for this frame.
            return values[node.index()];
        }
        eval_kind2(kind, self.fanins(node), values)
    }

    /// Full-frame 2-valued evaluation: assumes the caller has loaded source
    /// words (inputs, flip-flop states, X-source substitutes); evaluates the
    /// schedule in level order. Generic over the lane width — each call
    /// grades `W::LANES` patterns.
    pub fn eval2<W: LaneWord>(&self, values: &mut [W]) {
        debug_assert_eq!(values.len(), self.num_nodes);
        for &node in &self.schedule {
            values[node.index()] = self.eval_node2(node, values);
        }
    }
}

// A `CompiledCircuit` is immutable after compilation and holds only plain
// owned data, so shared references (and shared `&[u64]` frame views) can
// fan out across fault-grading worker threads. This is a compile-time
// witness of that contract: adding interior mutability or a non-Send
// cache to `CompiledCircuit` breaks the parallel simulators in
// `lbist-fault`, and breaks this assertion first, loudly.
const _: () = {
    const fn shareable_across_workers<T: Send + Sync>() {}
    shareable_across_workers::<CompiledCircuit>();
    shareable_across_workers::<&[u64]>();
};

/// Evaluates a 2-valued gate function from an explicit slice of fanin
/// pattern words (`words[i]` = value on pin `i`), at any lane width.
///
/// The fault simulators and the reference grader use it to evaluate a
/// gate with a branch fault: the fanin words with one pin forced.
///
/// # Panics
///
/// Panics (in debug builds) if called for a frame-source kind or with a
/// word count outside the gate's arity.
///
/// # Example
///
/// ```
/// use lbist_netlist::GateKind;
/// assert_eq!(lbist_sim::eval_gate(GateKind::Nand, &[0b11u64, 0b01]), !0b01);
/// assert_eq!(lbist_sim::eval_gate(GateKind::Nand, &[0b11u128, 0b01]), !0b01);
/// ```
#[inline]
pub fn eval_gate<W: LaneWord>(kind: GateKind, words: &[W]) -> W {
    debug_assert!(kind.accepts_fanins(words.len()), "{kind} with {} words", words.len());
    match kind {
        GateKind::Buf | GateKind::Output => words[0],
        GateKind::Not => words[0].not(),
        GateKind::And => words.iter().fold(W::ones(), |acc, &w| acc.and(w)),
        GateKind::Nand => words.iter().fold(W::ones(), |acc, &w| acc.and(w)).not(),
        GateKind::Or => words.iter().fold(W::zero(), |acc, &w| acc.or(w)),
        GateKind::Nor => words.iter().fold(W::zero(), |acc, &w| acc.or(w)).not(),
        GateKind::Xor => words.iter().fold(W::zero(), |acc, &w| acc.xor(w)),
        GateKind::Xnor => words.iter().fold(W::zero(), |acc, &w| acc.xor(w)).not(),
        GateKind::Mux2 => words[0].not().and(words[1]).or(words[0].and(words[2])),
        GateKind::Const0 => W::zero(),
        GateKind::Const1 => W::ones(),
        GateKind::Input | GateKind::Dff | GateKind::XSource => {
            unreachable!("frame sources are never evaluated")
        }
    }
}

/// Evaluates a single 2-valued gate function over pattern words.
#[inline]
pub(crate) fn eval_kind2<W: LaneWord>(kind: GateKind, fanins: &[NodeId], values: &[W]) -> W {
    let v = |id: NodeId| values[id.index()];
    match kind {
        GateKind::Buf | GateKind::Output => v(fanins[0]),
        GateKind::Not => v(fanins[0]).not(),
        GateKind::And => fanins.iter().fold(W::ones(), |acc, &f| acc.and(v(f))),
        GateKind::Nand => fanins.iter().fold(W::ones(), |acc, &f| acc.and(v(f))).not(),
        GateKind::Or => fanins.iter().fold(W::zero(), |acc, &f| acc.or(v(f))),
        GateKind::Nor => fanins.iter().fold(W::zero(), |acc, &f| acc.or(v(f))).not(),
        GateKind::Xor => fanins.iter().fold(W::zero(), |acc, &f| acc.xor(v(f))),
        GateKind::Xnor => fanins.iter().fold(W::zero(), |acc, &f| acc.xor(v(f))).not(),
        GateKind::Mux2 => {
            let s = v(fanins[0]);
            s.not().and(v(fanins[1])).or(s.and(v(fanins[2])))
        }
        GateKind::Const0 => W::zero(),
        GateKind::Const1 => W::ones(),
        GateKind::Input | GateKind::Dff | GateKind::XSource => {
            unreachable!("frame sources are never evaluated")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::{DomainId, GateKind, Netlist};

    fn full_adder() -> (Netlist, [NodeId; 3], [NodeId; 2]) {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let axb = nl.add_gate(GateKind::Xor, &[a, b]);
        let s = nl.add_gate(GateKind::Xor, &[axb, c]);
        let ab = nl.add_gate(GateKind::And, &[a, b]);
        let axbc = nl.add_gate(GateKind::And, &[axb, c]);
        let cout = nl.add_gate(GateKind::Or, &[ab, axbc]);
        nl.add_output("s", s);
        nl.add_output("cout", cout);
        (nl, [a, b, c], [s, cout])
    }

    #[test]
    fn full_adder_truth_table() {
        let (nl, ins, outs) = full_adder();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut vals = cc.new_frame();
        // Pattern p = binary abc.
        for p in 0..8u64 {
            vals[ins[0].index()] |= ((p >> 2) & 1) << p;
            vals[ins[1].index()] |= ((p >> 1) & 1) << p;
            vals[ins[2].index()] |= (p & 1) << p;
        }
        cc.eval2(&mut vals);
        for p in 0..8u64 {
            let a = (p >> 2) & 1;
            let b = (p >> 1) & 1;
            let c = p & 1;
            let sum = a + b + c;
            assert_eq!((vals[outs[0].index()] >> p) & 1, sum & 1, "sum at p={p}");
            assert_eq!((vals[outs[1].index()] >> p) & 1, sum >> 1, "carry at p={p}");
        }
    }

    /// Wide evaluation is, sub-word for sub-word, the same function as
    /// 64-lane evaluation: lane `64k+ℓ` of a `W` frame evaluates exactly
    /// like lane `ℓ` of the `k`-th `u64` frame.
    #[test]
    fn wide_eval_matches_64_lane_subwords() {
        fn check<W: LaneWord>() {
            let (nl, ins, _) = full_adder();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let mut wide: Vec<W> = cc.new_wide_frame();
            let mut narrow: Vec<Vec<u64>> = (0..W::WORDS).map(|_| cc.new_frame()).collect();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for &i in &ins {
                for (k, frame) in narrow.iter_mut().enumerate() {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    wide[i.index()].set_word(k, x);
                    frame[i.index()] = x;
                }
            }
            cc.eval2(&mut wide);
            for (k, frame) in narrow.iter_mut().enumerate() {
                cc.eval2(frame);
                for id in nl.ids() {
                    assert_eq!(
                        wide[id.index()].word(k),
                        frame[id.index()],
                        "{} lanes: node {id} sub-word {k}",
                        W::LANES
                    );
                }
            }
        }
        check::<u64>();
        check::<u128>();
    }

    #[test]
    fn constants_preloaded() {
        let mut nl = Netlist::new("c");
        let c0 = nl.add_const(false);
        let c1 = nl.add_const(true);
        let o = nl.add_gate(GateKind::Or, &[c0, c1]);
        nl.add_output("y", o);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut vals = cc.new_frame();
        cc.eval2(&mut vals);
        assert_eq!(vals[o.index()], !0);
    }

    #[test]
    fn mux_semantics() {
        let mut nl = Netlist::new("m");
        let s = nl.add_input("s");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let m = nl.add_gate(GateKind::Mux2, &[s, a, b]);
        nl.add_output("y", m);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut vals = cc.new_frame();
        vals[s.index()] = 0b1100;
        vals[a.index()] = 0b1010;
        vals[b.index()] = 0b0110;
        cc.eval2(&mut vals);
        // sel=0 -> a, sel=1 -> b
        assert_eq!(vals[m.index()] & 0b1111, 0b0110 & 0b1100 | 0b1010 & 0b0011);
    }

    #[test]
    fn schedule_excludes_sources_and_covers_gates() {
        let (nl, _, _) = full_adder();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        assert_eq!(cc.schedule().len(), 5 + 2); // 5 gates + 2 output markers
        assert_eq!(cc.inputs().len(), 3);
        assert_eq!(cc.num_domains(), 0);
    }

    #[test]
    fn fanouts_mirror_fanins() {
        let (nl, ins, _) = full_adder();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        for id in nl.ids() {
            for &f in cc.fanins(id) {
                assert!(cc.fanouts(f).contains(&id));
            }
        }
        assert_eq!(cc.fanouts(ins[0]).len(), 2);
    }

    #[test]
    fn dff_domains_copied() {
        let mut nl = Netlist::new("d");
        let a = nl.add_input("a");
        let f0 = nl.add_dff(a, DomainId::new(0));
        let _f1 = nl.add_dff(f0, DomainId::new(2));
        let cc = CompiledCircuit::compile(&nl).unwrap();
        assert_eq!(cc.dffs().len(), 2);
        assert_eq!(cc.dff_domain(0), DomainId::new(0));
        assert_eq!(cc.dff_domain(1), DomainId::new(2));
        assert_eq!(cc.num_domains(), 3);
    }
}
