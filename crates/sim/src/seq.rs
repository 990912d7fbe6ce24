//! Cycle-based sequential simulation with per-clock-domain capture.

use crate::compiled::CompiledCircuit;
use lbist_exec::LaneWord;
use lbist_netlist::{DomainId, NodeId};

/// The default 64-way sequential simulator — [`WideSeqSim`] at the
/// `u64` frame width every existing call site uses.
pub type SeqSim<'a> = WideSeqSim<'a, u64>;

/// A bit-parallel sequential simulator, generic over the lane width
/// (`W::LANES` independent patterns per pass).
///
/// The simulator owns a value frame plus the flip-flop state vector. A
/// "cycle" is: load inputs → [`WideSeqSim::eval`] the combinational logic →
/// [`WideSeqSim::capture`] a *subset* of clock domains (the flip-flops of
/// unclocked domains hold). Per-domain capture is exactly the primitive the
/// paper's double-capture scheme sequences: each capture window issues two
/// `capture` calls per domain, ordered across domains by the `d3` gap.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind, DomainId};
/// use lbist_sim::{CompiledCircuit, SeqSim};
///
/// // 1-bit toggle counter.
/// let mut nl = Netlist::new("tog");
/// let ff = nl.add_dff_floating(DomainId::new(0));
/// let inv = nl.add_gate(GateKind::Not, &[ff]);
/// nl.set_fanin(ff, 0, inv).unwrap();
/// nl.add_output("q", ff);
///
/// let cc = CompiledCircuit::compile(&nl).unwrap();
/// let mut sim = SeqSim::new(&cc);
/// sim.eval();
/// sim.capture_all();
/// assert_eq!(sim.value(ff) & 1, 1); // toggled 0 -> 1
/// sim.eval();
/// sim.capture_all();
/// assert_eq!(sim.value(ff) & 1, 0); // and back
/// ```
#[derive(Clone, Debug)]
pub struct WideSeqSim<'a, W: LaneWord = u64> {
    cc: &'a CompiledCircuit,
    values: Vec<W>,
}

impl<'a, W: LaneWord> WideSeqSim<'a, W> {
    /// Creates a simulator with all flip-flops and inputs at 0 and constants
    /// preloaded.
    pub fn new(cc: &'a CompiledCircuit) -> Self {
        WideSeqSim { cc, values: cc.new_wide_frame() }
    }

    /// The compiled circuit this simulator runs.
    pub fn circuit(&self) -> &CompiledCircuit {
        self.cc
    }

    /// Loads a primary input with a `W::LANES`-pattern word.
    pub fn set_input(&mut self, input: NodeId, word: W) {
        debug_assert!(self.cc.inputs().contains(&input));
        self.values[input.index()] = word;
    }

    /// Forces a flip-flop's state (`Q`) word — scan load, in effect.
    pub fn set_state(&mut self, ff: NodeId, word: W) {
        debug_assert!(self.cc.dffs().contains(&ff));
        self.values[ff.index()] = word;
    }

    /// Forces an X-source substitute value (2-valued simulation has no X;
    /// bounded designs tie these to a constant).
    pub fn set_xsource(&mut self, x: NodeId, word: W) {
        debug_assert!(self.cc.xsources().contains(&x));
        self.values[x.index()] = word;
    }

    /// Reads any node's current word.
    #[inline]
    pub fn value(&self, node: NodeId) -> W {
        self.values[node.index()]
    }

    /// Direct access to the whole frame (one word per node).
    pub fn frame(&self) -> &[W] {
        &self.values
    }

    /// Mutable access to the whole frame.
    pub fn frame_mut(&mut self) -> &mut [W] {
        &mut self.values
    }

    /// Evaluates the combinational logic from the current sources.
    pub fn eval(&mut self) {
        self.cc.eval2(&mut self.values);
    }

    /// Clocks the flip-flops of the selected domains: each captures the
    /// value at its `D` pin. Unselected domains hold. Call
    /// [`WideSeqSim::eval`] first so `D` values are up to date, and again
    /// afterwards if the new state must propagate.
    pub fn capture(&mut self, domains: &[DomainId]) {
        // Two passes: latch all D values first so simultaneous capture is
        // race-free (a FF feeding another FF in the same domain transfers
        // the *old* value, as real edge-triggered hardware does).
        let dffs = self.cc.dffs();
        let mut next: Vec<(usize, W)> = Vec::new();
        for (i, &ff) in dffs.iter().enumerate() {
            if domains.contains(&self.cc.dff_domain(i)) {
                let d = self.cc.fanins(ff)[0];
                next.push((ff.index(), self.values[d.index()]));
            }
        }
        for (idx, word) in next {
            self.values[idx] = word;
        }
    }

    /// Clocks every domain at once.
    pub fn capture_all(&mut self) {
        let all: Vec<DomainId> =
            (0..self.cc.num_domains().max(1)).map(|d| DomainId::new(d as u16)).collect();
        self.capture(&all);
    }

    /// Convenience: run `n` full cycles (eval + capture-all), leaving the
    /// final state propagated.
    pub fn run_cycles(&mut self, n: usize) {
        for _ in 0..n {
            self.eval();
            self.capture_all();
        }
        self.eval();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::{GateKind, Netlist};

    /// Two-domain pipeline: ff_a (domain 0) feeds ff_b (domain 1).
    fn two_domain_pipe() -> (Netlist, NodeId, NodeId, NodeId) {
        let mut nl = Netlist::new("pipe");
        let d = nl.add_input("d");
        let ff_a = nl.add_dff(d, DomainId::new(0));
        let ff_b = nl.add_dff(ff_a, DomainId::new(1));
        nl.add_output("q", ff_b);
        (nl, d, ff_a, ff_b)
    }

    #[test]
    fn per_domain_capture_holds_other_domains() {
        let (nl, d, ff_a, ff_b) = two_domain_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut sim = SeqSim::new(&cc);
        sim.set_input(d, !0);
        sim.eval();
        sim.capture(&[DomainId::new(0)]);
        assert_eq!(sim.value(ff_a), !0, "domain 0 captured");
        assert_eq!(sim.value(ff_b), 0, "domain 1 held");
        sim.eval();
        sim.capture(&[DomainId::new(1)]);
        assert_eq!(sim.value(ff_b), !0, "domain 1 captured the propagated value");
    }

    #[test]
    fn simultaneous_capture_is_race_free() {
        let (nl, d, ff_a, ff_b) = two_domain_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut sim = SeqSim::new(&cc);
        sim.set_input(d, !0);
        sim.eval();
        sim.capture_all();
        // ff_b must capture ff_a's OLD value (0), not the new one.
        assert_eq!(sim.value(ff_a), !0);
        assert_eq!(sim.value(ff_b), 0);
    }

    #[test]
    fn shift_register_moves_one_stage_per_cycle() {
        let mut nl = Netlist::new("sr");
        let d = nl.add_input("d");
        let f1 = nl.add_dff(d, DomainId::new(0));
        let f2 = nl.add_dff(f1, DomainId::new(0));
        let f3 = nl.add_dff(f2, DomainId::new(0));
        nl.add_output("q", f3);
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut sim = SeqSim::new(&cc);
        sim.set_input(d, 0b1);
        sim.run_cycles(1);
        sim.set_input(d, 0);
        assert_eq!(sim.value(f1) & 1, 1);
        sim.run_cycles(2);
        assert_eq!(sim.value(f3) & 1, 1);
        assert_eq!(sim.value(f1) & 1, 0);
    }

    #[test]
    fn set_state_acts_as_scan_load() {
        let (nl, _d, ff_a, ff_b) = two_domain_pipe();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut sim = SeqSim::new(&cc);
        sim.set_state(ff_a, 0xDEAD);
        sim.set_state(ff_b, 0xBEEF);
        assert_eq!(sim.value(ff_a), 0xDEAD);
        assert_eq!(sim.value(ff_b), 0xBEEF);
    }

    /// The same gated-toggle machine runs identically at every lane
    /// width: lane `ℓ` only depends on lane `ℓ` of the inputs.
    #[test]
    fn wide_widths_run_independent_lanes() {
        fn check<W: LaneWord>() {
            let mut nl = Netlist::new("g");
            let en = nl.add_input("en");
            let ff = nl.add_dff_floating(DomainId::new(0));
            let nxt = nl.add_gate(GateKind::Xor, &[ff, en]);
            nl.set_fanin(ff, 0, nxt).unwrap();
            let cc = CompiledCircuit::compile(&nl).unwrap();
            let mut sim: WideSeqSim<'_, W> = WideSeqSim::new(&cc);
            let mut mask = W::zero();
            for lane in (0..W::LANES).step_by(2) {
                mask.set_lane(lane);
            }
            sim.set_input(en, mask);
            sim.run_cycles(3);
            assert_eq!(sim.value(ff), mask, "{} lanes: odd toggle count", W::LANES);
            sim.run_cycles(1);
            assert_eq!(sim.value(ff), W::zero(), "{} lanes: even toggle count", W::LANES);
        }
        check::<u128>();
    }

    #[test]
    fn sixty_four_parallel_counters_diverge() {
        // Toggle FF gated by the input: each of the 64 lanes toggles only
        // when its input bit is 1 — lanes stay independent.
        let mut nl = Netlist::new("g");
        let en = nl.add_input("en");
        let ff = nl.add_dff_floating(DomainId::new(0));
        let nxt = nl.add_gate(GateKind::Xor, &[ff, en]);
        nl.set_fanin(ff, 0, nxt).unwrap();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut sim = SeqSim::new(&cc);
        sim.set_input(en, 0x5555_5555_5555_5555);
        sim.run_cycles(3);
        assert_eq!(sim.value(ff), 0x5555_5555_5555_5555); // odd # of toggles
        sim.run_cycles(1);
        assert_eq!(sim.value(ff), 0);
    }
}
