//! Test cubes and filled patterns.

use lbist_netlist::NodeId;
use lbist_sim::CompiledCircuit;
use rand::Rng;

/// A partial input assignment found by PODEM: values for some primary
/// inputs and pseudo-primary-inputs (flip-flops), everything else
/// don't-care.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct TestCube {
    assignments: Vec<(NodeId, bool)>,
}

impl TestCube {
    /// An empty cube.
    pub fn new() -> Self {
        TestCube::default()
    }

    /// Adds or overwrites an assignment.
    pub fn assign(&mut self, node: NodeId, value: bool) {
        if let Some(slot) = self.assignments.iter_mut().find(|(n, _)| *n == node) {
            slot.1 = value;
        } else {
            self.assignments.push((node, value));
        }
    }

    /// The assigned value of a node, if any.
    pub fn value_of(&self, node: NodeId) -> Option<bool> {
        self.assignments.iter().find(|(n, _)| *n == node).map(|&(_, v)| v)
    }

    /// All assignments in insertion order.
    pub fn assignments(&self) -> &[(NodeId, bool)] {
        &self.assignments
    }

    /// Number of specified bits.
    pub fn specified(&self) -> usize {
        self.assignments.len()
    }

    /// Random-fills the don't-cares into a full [`Pattern`] over the
    /// circuit's inputs and flip-flops.
    pub fn fill(&self, cc: &CompiledCircuit, rng: &mut impl Rng) -> Pattern {
        let mut p = Pattern {
            pi_values: cc.inputs().iter().map(|_| rng.gen()).collect(),
            ff_values: cc.dffs().iter().map(|_| rng.gen()).collect(),
        };
        for (i, &pi) in cc.inputs().iter().enumerate() {
            if let Some(v) = self.value_of(pi) {
                p.pi_values[i] = v;
            }
        }
        for (i, &ff) in cc.dffs().iter().enumerate() {
            if let Some(v) = self.value_of(ff) {
                p.ff_values[i] = v;
            }
        }
        p
    }
}

/// A fully-specified scan pattern: one bit per primary input and one per
/// flip-flop (the scan-load state), in [`CompiledCircuit::inputs`] /
/// [`CompiledCircuit::dffs`] order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pattern {
    /// Primary-input values.
    pub pi_values: Vec<bool>,
    /// Flip-flop (scan) values.
    pub ff_values: Vec<bool>,
}

impl Pattern {
    /// Loads this pattern into lane `lane` of a 64-wide frame.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or the pattern shape mismatches the circuit.
    pub fn load_into_lane(&self, cc: &CompiledCircuit, frame: &mut [u64], lane: usize) {
        assert!(lane < 64);
        assert_eq!(self.pi_values.len(), cc.inputs().len());
        assert_eq!(self.ff_values.len(), cc.dffs().len());
        let bit = 1u64 << lane;
        for (i, &pi) in cc.inputs().iter().enumerate() {
            if self.pi_values[i] {
                frame[pi.index()] |= bit;
            } else {
                frame[pi.index()] &= !bit;
            }
        }
        for (i, &ff) in cc.dffs().iter().enumerate() {
            if self.ff_values[i] {
                frame[ff.index()] |= bit;
            } else {
                frame[ff.index()] &= !bit;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::{DomainId, GateKind, Netlist};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn circuit() -> (Netlist, NodeId, NodeId) {
        let mut nl = Netlist::new("p");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]);
        let q = nl.add_dff(g, DomainId::new(0));
        nl.add_output("y", q);
        (nl, a, q)
    }

    #[test]
    fn cube_assign_and_overwrite() {
        let (_, a, _) = circuit();
        let mut cube = TestCube::new();
        cube.assign(a, true);
        assert_eq!(cube.value_of(a), Some(true));
        cube.assign(a, false);
        assert_eq!(cube.value_of(a), Some(false));
        assert_eq!(cube.specified(), 1);
    }

    #[test]
    fn fill_respects_cube_bits() {
        let (nl, a, q) = circuit();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut cube = TestCube::new();
        cube.assign(a, true);
        cube.assign(q, false);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..10 {
            let p = cube.fill(&cc, &mut rng);
            assert!(p.pi_values[0]);
            assert!(!p.ff_values[0]);
        }
    }

    #[test]
    fn load_into_lane_sets_only_that_lane() {
        let (nl, a, _) = circuit();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let p = Pattern { pi_values: vec![true], ff_values: vec![false] };
        let mut frame = cc.new_frame();
        p.load_into_lane(&cc, &mut frame, 3);
        assert_eq!(frame[a.index()], 1 << 3);
        let p2 = Pattern { pi_values: vec![false], ff_values: vec![true] };
        p2.load_into_lane(&cc, &mut frame, 3);
        assert_eq!(frame[a.index()], 0, "lane 3 overwritten");
    }
}
