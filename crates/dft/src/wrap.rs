//! PI/PO scan wrapper cells.

use lbist_netlist::{DomainId, Netlist, NodeId};

/// Report of an IO-wrapping pass.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IoWrapReport {
    /// Input wrapper cells, parallel to the wrapped primary inputs.
    pub input_cells: Vec<NodeId>,
    /// Output wrapper cells, parallel to the wrapped primary outputs.
    pub output_cells: Vec<NodeId>,
}

/// Adds scan cells on all primary inputs and outputs (the paper's §3
/// technique 2, used "to increase delay fault coverage").
///
/// * An **input cell** is a flip-flop between the pad and the core: the
///   core logic reads the cell, so the scan chain controls core inputs
///   during test (and the launch pulse can create transitions on them).
/// * An **output cell** is a flip-flop capturing the net that drives the
///   pad, making core outputs observable through the chains.
///
/// Cells are placed in `domain`. Inputs named `test_mode` (and other
/// test-infrastructure pins added later) are not wrapped.
///
/// # Example
///
/// ```
/// use lbist_netlist::{Netlist, GateKind, DomainId};
/// use lbist_dft::wrap_ios;
///
/// let mut nl = Netlist::new("w");
/// let a = nl.add_input("a");
/// let g = nl.add_gate(GateKind::Not, &[a]);
/// nl.add_output("y", g);
///
/// let report = wrap_ios(&mut nl, DomainId::new(0));
/// assert_eq!(report.input_cells.len(), 1);
/// assert_eq!(report.output_cells.len(), 1);
/// assert_eq!(nl.dffs().len(), 2);
/// ```
pub fn wrap_ios(netlist: &mut Netlist, domain: DomainId) -> IoWrapReport {
    let mut input_cells = Vec::new();
    for &pi in &netlist.inputs().to_vec() {
        if netlist.node_name(pi) == Some("test_mode") {
            continue;
        }
        let cell = netlist.add_dff(pi, domain);
        netlist.rewire_readers(pi, cell, &[cell]);
        input_cells.push(cell);
    }
    let mut output_cells = Vec::new();
    for &po in &netlist.outputs().to_vec() {
        let src = netlist.fanins(po)[0];
        let cell = netlist.add_dff(src, domain);
        output_cells.push(cell);
    }
    IoWrapReport { input_cells, output_cells }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbist_netlist::GateKind;
    use lbist_sim::CompiledCircuit;

    #[test]
    fn core_reads_input_cells_not_pads() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Buf, &[a]);
        nl.add_output("y", g);
        let report = wrap_ios(&mut nl, DomainId::new(0));
        assert_eq!(nl.fanins(g), &[report.input_cells[0]]);
        // The cell itself still reads the pad.
        assert_eq!(nl.fanins(report.input_cells[0]), &[a]);
        assert!(nl.validate().is_ok());
    }

    #[test]
    fn output_cells_capture_the_po_net() {
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]);
        let po = nl.add_output("y", g);
        let report = wrap_ios(&mut nl, DomainId::new(1));
        let cell = report.output_cells[0];
        assert_eq!(nl.fanins(cell), &[g]);
        assert_eq!(nl.domain(cell), Some(DomainId::new(1)));
        // The functional PO path is untouched.
        assert_eq!(nl.fanins(po), &[g]);
    }

    #[test]
    fn test_mode_is_not_wrapped() {
        let mut nl = Netlist::new("w");
        nl.add_input("test_mode");
        let a = nl.add_input("a");
        nl.add_output("y", a);
        let report = wrap_ios(&mut nl, DomainId::new(0));
        assert_eq!(report.input_cells.len(), 1, "only `a` gets a cell");
    }

    #[test]
    fn wrapped_core_behaves_after_one_cycle() {
        // The wrapper adds one cycle of input latency; functionally the
        // value still arrives.
        let mut nl = Netlist::new("w");
        let a = nl.add_input("a");
        let g = nl.add_gate(GateKind::Not, &[a]);
        nl.add_output("y", g);
        wrap_ios(&mut nl, DomainId::new(0));
        let po = nl.outputs()[0];
        let cc = CompiledCircuit::compile(&nl).unwrap();
        let mut frame = cc.new_frame();
        frame[a.index()] = !0;
        cc.eval2(&mut frame);
        // One clock: every flip-flop latches its `D` word.
        let d: Vec<u64> = cc.dffs().iter().map(|&ff| frame[cc.fanins(ff)[0].index()]).collect();
        for (&ff, word) in cc.dffs().iter().zip(d) {
            frame[ff.index()] = word;
        }
        cc.eval2(&mut frame);
        assert_eq!(frame[po.index()], 0, "NOT(1) after the input cell latched");
    }
}
