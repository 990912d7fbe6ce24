//! Bit-parallel logic simulation.
//!
//! Everything test-related in this workspace — random-pattern fault grading,
//! test point scoring, PODEM implication, BIST session replay — reduces to
//! evaluating the combinational core of a netlist millions of times. This
//! crate provides that engine:
//!
//! * [`CompiledCircuit`] — a flattened, cache-friendly copy of a
//!   [`lbist_netlist::Netlist`] (CSR fanins, level-ordered evaluation
//!   schedule) that simulators iterate without touching the arena.
//! * **2-valued** simulation ([`CompiledCircuit::eval2`]): one
//!   [`lbist_exec::LaneWord`] per net carries `W::LANES` independent test
//!   patterns — 64 (`u64`, the default frame width) or 128 (`u128`) per
//!   pass.
//! * **3-valued** simulation ([`CompiledCircuit::eval3`]): a
//!   `(value, x-mask)` word pair per net tracks unknowns pessimistically —
//!   used to prove X-bounding actually blocks every X source.
//! * A **sequential engine** ([`SeqSim`] / [`WideSeqSim`]) with
//!   per-clock-domain capture, the primitive underneath the double-capture
//!   at-speed scheme.
//! * A **compiled kernel** ([`KernelProgram`]): the circuit lowered once
//!   into flat word-op bytecode (constants folded, inverter chains fused
//!   into operand flags) that executes with no per-gate dispatch, and
//!   injects faults as patched instructions — the fast path under fault
//!   grading.
//!
//! # Example
//!
//! ```
//! use lbist_netlist::{Netlist, GateKind};
//! use lbist_sim::CompiledCircuit;
//!
//! let mut nl = Netlist::new("fa");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let s = nl.add_gate(GateKind::Xor, &[a, b]);
//! nl.add_output("s", s);
//!
//! let cc = CompiledCircuit::compile(&nl).unwrap();
//! let mut vals = cc.new_frame();
//! vals[a.index()] = 0b0011;
//! vals[b.index()] = 0b0101;
//! cc.eval2(&mut vals);
//! assert_eq!(vals[s.index()] & 0b1111, 0b0110);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiled;
mod kernel;
mod logic;
mod seq;
mod three;

pub use compiled::{eval_gate, CompiledCircuit};
pub use kernel::{KernelProgram, LowerStats, PatchKind, SlotState};
pub use logic::{pack_bits, unpack_bits, Logic};
pub use seq::{SeqSim, WideSeqSim};
pub use three::{Frame3, WideFrame3};
