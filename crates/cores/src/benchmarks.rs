//! Tiny public benchmark circuits, embedded as `.bench` text.
//!
//! Two classics small enough to reason about by hand: ISCAS-85's `c17`
//! (six NAND gates) and ISCAS-89's `s27` (three flip-flops). They anchor
//! unit tests and examples with circuits whose behaviour is known from
//! thirty years of literature.

use lbist_netlist::{parse_bench, Netlist};

/// ISCAS-85 c17: 5 inputs, 2 outputs, 6 NAND gates.
pub const C17_BENCH: &str = "\
# ISCAS-85 c17
INPUT(g1)
INPUT(g2)
INPUT(g3)
INPUT(g6)
INPUT(g7)
OUTPUT(g22)
OUTPUT(g23)
g10 = NAND(g1, g3)
g11 = NAND(g3, g6)
g16 = NAND(g2, g11)
g19 = NAND(g11, g7)
g22 = NAND(g10, g16)
g23 = NAND(g16, g19)
";

/// ISCAS-89 s27: 4 inputs, 1 output, 3 flip-flops, 10 gates.
pub const S27_BENCH: &str = "\
# ISCAS-89 s27
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
";

/// Parses the embedded c17.
///
/// # Example
///
/// ```
/// let nl = lbist_cores::benchmarks::c17();
/// assert_eq!(nl.inputs().len(), 5);
/// assert_eq!(nl.gate_count(), 6);
/// ```
pub fn c17() -> Netlist {
    let mut nl = parse_bench(C17_BENCH).expect("embedded c17 is well-formed");
    nl.set_design_name("c17");
    nl
}

/// Parses the embedded s27.
///
/// # Example
///
/// ```
/// let nl = lbist_cores::benchmarks::s27();
/// assert_eq!(nl.dffs().len(), 3);
/// ```
pub fn s27() -> Netlist {
    let mut nl = parse_bench(S27_BENCH).expect("embedded s27 is well-formed");
    nl.set_design_name("s27");
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_sim::CompiledCircuit;

    #[test]
    fn c17_structure() {
        let nl = c17();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.inputs().len(), 5);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.gate_count(), 6);
        assert_eq!(nl.dffs().len(), 0);
    }

    #[test]
    fn c17_truth_spot_checks() {
        // g22 = NAND(NAND(g1,g3), NAND(g2, NAND(g3,g6))).
        let nl = c17();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        // Pattern 0: all inputs 0 -> g10=1, g11=1, g16=1, g22=NAND(1,1)=0.
        // Pattern 1: g1=g3=1, others 0 -> g10=0 -> g22=1.
        let set = |frame: &mut Vec<u64>, name: &str, word: u64| {
            let id = nl.find(name).unwrap();
            frame[id.index()] = word;
        };
        set(&mut frame, "g1", 0b10);
        set(&mut frame, "g3", 0b10);
        cc.eval2(&mut frame);
        let g22 = nl.find("g22").unwrap();
        assert_eq!(frame[g22.index()] & 0b11, 0b10);
    }

    #[test]
    fn s27_structure_and_simulation() {
        let nl = s27();
        assert!(nl.validate().is_ok());
        assert_eq!(nl.dffs().len(), 3);
        assert_eq!(nl.outputs().len(), 1);
        // From the all-zero reset state (G5 = G6 = G7 = 0),
        // G17 = NOT(G11) = NOT(G3 AND NOT G1).
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        let (g1, g3) = (0x0F0F_0F0F_0F0F_0F0Fu64, 0x3333_3333_3333_3333u64);
        frame[nl.find("G1").unwrap().index()] = g1;
        frame[nl.find("G3").unwrap().index()] = g3;
        cc.eval2(&mut frame);
        assert_eq!(frame[cc.outputs()[0].index()], !(g3 & !g1));
    }

    #[test]
    fn full_stuck_at_coverage_of_c17_is_reachable() {
        // c17 is fully testable: exhaustive 32-pattern grading must reach
        // 100% collapsed coverage.
        let nl = c17();
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let universe = lbist_fault::FaultUniverse::stuck_at(&nl);
        let mut sim = lbist_fault::StuckAtSim::new(
            &cc,
            universe.representatives(),
            lbist_fault::StuckAtSim::observe_all_captures(&cc),
        );
        let mut frame = cc.new_frame();
        for (bit, &pi) in cc.inputs().iter().enumerate() {
            let mut word = 0u64;
            for p in 0..32u64 {
                if (p >> bit) & 1 == 1 {
                    word |= 1 << p;
                }
            }
            frame[pi.index()] = word;
        }
        sim.run_batch(&mut frame, 32);
        let cov = sim.coverage();
        assert_eq!(cov.detected, cov.total, "undetected: {:?}", sim.undetected());
    }
}
