//! Ground truth for PODEM on circuits small enough to enumerate.
//!
//! Every input vector of `c17` and of small random combinational
//! netlists is applied to the fault-free circuit and to each fault's
//! faulty circuit, both evaluated here gate by gate over 64-vector
//! words, independent of the fault simulator and of PODEM. Every PODEM
//! cube must detect its target on every vector consistent with the
//! cube, and no vector may detect a fault PODEM proves untestable.

use lbist_atpg::{AtpgOutcome, Podem, TestCube};
use lbist_cores::{benchmarks, RandomLogicGenerator};
use lbist_fault::{Fault, FaultUniverse, StuckAtSim};
use lbist_netlist::{GateKind, Levelization, Netlist, NodeId};
use lbist_sim::CompiledCircuit;

/// Every input vector of a combinational netlist, with each node's
/// fault-free value. Vector `v` is lane `v % 64` of word `v / 64`, and
/// sets input `i` to bit `i` of `v`.
struct Enumeration<'a> {
    nl: &'a Netlist,
    /// Combinational evaluation order, and each node's place in it.
    order: Vec<NodeId>,
    place: Vec<usize>,
    readers: Vec<Vec<NodeId>>,
    words: usize,
    /// Lanes of each word that hold a vector.
    valid: u64,
    /// Node `n`'s value on vector `v` is bit `v % 64` of
    /// `good[n * words + v / 64]`.
    good: Vec<u64>,
}

fn eval_word(kind: GateKind, ins: &[u64]) -> u64 {
    let and = || ins.iter().fold(!0, |a, &b| a & b);
    let or = || ins.iter().fold(0, |a, &b| a | b);
    let xor = || ins.iter().fold(0, |a, &b| a ^ b);
    match kind {
        GateKind::Output | GateKind::Buf => ins[0],
        GateKind::Not => !ins[0],
        GateKind::And => and(),
        GateKind::Nand => !and(),
        GateKind::Or => or(),
        GateKind::Nor => !or(),
        GateKind::Xor => xor(),
        GateKind::Xnor => !xor(),
        GateKind::Mux2 => (!ins[0] & ins[1]) | (ins[0] & ins[2]),
        GateKind::Const0 => 0,
        GateKind::Const1 => !0,
        other => panic!("{other:?} is not combinational logic"),
    }
}

impl<'a> Enumeration<'a> {
    fn new(nl: &'a Netlist) -> Self {
        assert!(nl.dffs().is_empty() && nl.xsources().is_empty(), "combinational netlists only");
        let inputs = nl.inputs().len();
        assert!(inputs <= 16, "{inputs} inputs are too many to enumerate");
        let vectors = 1usize << inputs;
        let words = vectors.div_ceil(64);
        let valid = if vectors >= 64 { !0 } else { (1u64 << vectors) - 1 };
        let order = Levelization::compute(nl).expect("acyclic").order().to_vec();
        let mut place = vec![0; nl.len()];
        let mut readers = vec![Vec::new(); nl.len()];
        for (i, &node) in order.iter().enumerate() {
            place[node.index()] = i;
            for &f in nl.fanins(node) {
                readers[f.index()].push(node);
            }
        }
        let mut good = vec![0u64; nl.len() * words];
        for (i, &pi) in nl.inputs().iter().enumerate() {
            for w in 0..words {
                let bits = (0..64).filter(|lane| (w * 64 + lane) >> i & 1 == 1);
                good[pi.index() * words + w] = bits.fold(0, |acc, lane| acc | 1 << lane);
            }
        }
        let mut e = Enumeration { nl, order, place, readers, words, valid, good };
        for i in 0..e.order.len() {
            let node = e.order[i];
            if nl.kind(node) != GateKind::Input {
                for w in 0..words {
                    let value = e.eval(&e.good, node, w, None);
                    e.good[node.index() * words + w] = value;
                }
            }
        }
        e
    }

    /// Word `w` of `node`'s value, from its fanins' words in `values`,
    /// with `fault` injected: a stem fault forces its node, a branch
    /// fault the word its gate reads on that pin.
    fn eval(&self, values: &[u64], node: NodeId, w: usize, fault: Option<&Fault>) -> u64 {
        let forced = |f: &Fault| if f.kind.faulty_value() { !0 } else { 0 };
        let at_site = fault.filter(|f| f.node == node);
        if let Some(f @ Fault { pin: None, .. }) = at_site {
            return forced(f);
        }
        let mut ins: Vec<u64> =
            self.nl.fanins(node).iter().map(|f| values[f.index() * self.words + w]).collect();
        if let Some(f) = at_site {
            ins[f.pin.expect("stem faults returned above") as usize] = forced(f);
        }
        eval_word(self.nl.kind(node), &ins)
    }

    /// Per word, the vectors on which some output differs with `fault`
    /// injected. Only the site's fanout cone is re-evaluated.
    fn detecting(&self, fault: &Fault) -> Vec<u64> {
        let words = self.words;
        let mut faulty = self.good.clone();
        let mut dirty = vec![false; self.nl.len()];
        dirty[fault.node.index()] = true;
        for &node in &self.order[self.place[fault.node.index()]..] {
            if !dirty[node.index()] {
                continue;
            }
            let mut changed = false;
            for w in 0..words {
                let value = self.eval(&faulty, node, w, Some(fault));
                let at = node.index() * words + w;
                changed |= value != self.good[at];
                faulty[at] = value;
            }
            if changed {
                for &r in &self.readers[node.index()] {
                    dirty[r.index()] = true;
                }
            }
        }
        (0..words)
            .map(|w| {
                let diff = self.nl.outputs().iter().fold(0, |acc, o| {
                    let at = o.index() * words + w;
                    acc | (self.good[at] ^ faulty[at])
                });
                diff & self.valid
            })
            .collect()
    }

    /// Per word, the vectors that agree with every care bit of `cube`.
    fn consistent(&self, cube: &TestCube) -> Vec<u64> {
        (0..self.words)
            .map(|w| {
                cube.assignments().iter().fold(self.valid, |acc, &(node, value)| {
                    assert_eq!(self.nl.kind(node), GateKind::Input, "cube assigns {node:?}");
                    let bits = self.good[node.index() * self.words + w];
                    acc & if value { bits } else { !bits }
                })
            })
            .collect()
    }
}

/// PODEM verdicts on one netlist, all checked against enumeration.
#[derive(Debug, Default)]
struct Tally {
    tests: usize,
    untestable: usize,
    aborted: usize,
}

/// Runs PODEM on every fault of `nl`'s stuck-at universe and checks each
/// verdict against enumeration.
fn check_netlist(nl: &Netlist, tally: &mut Tally) {
    let cc = CompiledCircuit::compile(nl).expect("compiles");
    let enumeration = Enumeration::new(nl);
    let mut podem = Podem::new(&cc, StuckAtSim::observe_all_captures(&cc));
    // The limit decides which faults get a verdict, not whether a verdict
    // is right; a low one keeps the aborted searches short.
    podem.set_backtrack_limit(64);
    for fault in FaultUniverse::stuck_at(nl).faults() {
        match podem.generate(fault) {
            AtpgOutcome::Test(cube) => {
                tally.tests += 1;
                let detecting = enumeration.detecting(fault);
                let consistent = enumeration.consistent(&cube);
                for (w, (c, d)) in consistent.iter().zip(&detecting).enumerate() {
                    let missed = c & !d;
                    assert_eq!(
                        missed,
                        0,
                        "{}: cube {:?} for {fault} misses vector {}",
                        nl.name(),
                        cube.assignments(),
                        w * 64 + missed.trailing_zeros() as usize
                    );
                }
            }
            AtpgOutcome::Untestable => {
                tally.untestable += 1;
                let detecting = enumeration.detecting(fault);
                if let Some(w) = detecting.iter().position(|&d| d != 0) {
                    panic!(
                        "{}: {fault} is called untestable, but vector {} detects it",
                        nl.name(),
                        w * 64 + detecting[w].trailing_zeros() as usize
                    );
                }
            }
            AtpgOutcome::Aborted => tally.aborted += 1,
        }
    }
}

#[test]
fn podem_verdicts_on_c17_match_enumeration() {
    let mut tally = Tally::default();
    check_netlist(&benchmarks::c17(), &mut tally);
    // c17 is irredundant: every fault gets a test.
    assert_eq!((tally.untestable, tally.aborted), (0, 0), "{tally:?}");
}

/// Random netlists enumerated per run.
const NETLISTS: u64 = 60;

#[test]
fn podem_verdicts_on_random_logic_match_enumeration() {
    let mut tally = Tally::default();
    for seed in 0..NETLISTS {
        // 8 to 239 gates: 4 to 11 primary inputs.
        let gates = 8 + (seed as usize * 37) % 232;
        let nl = RandomLogicGenerator::new(gates, 0, 1, seed).generate();
        assert!(nl.inputs().len() <= 11);
        check_netlist(&nl, &mut tally);
    }
    println!("{NETLISTS} random netlists: {tally:?}");
    // Both verdicts are exercised.
    assert!(tally.tests > 0 && tally.untestable > 0, "{tally:?}");
}
