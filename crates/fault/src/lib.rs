//! Fault models and bit-parallel fault simulation.
//!
//! The paper's flow is driven end-to-end by fault simulation: random
//! patterns are graded against the single-stuck-at universe (Table 1's
//! "Fault Coverage 1"), observation points are chosen from the propagation
//! profiles of *undetected* faults, top-up ATPG targets what remains
//! ("Fault Coverage 2"), and the at-speed double-capture claim is about
//! transition-delay faults. This crate implements all of that machinery:
//!
//! * [`Fault`]/[`FaultKind`] — single stuck-at and transition-delay faults
//!   on gate output stems and input branches.
//! * [`FaultUniverse`] — fault enumeration plus structural equivalence
//!   collapsing (wire and gate-rule classes via union-find); coverage is
//!   reported over collapsed classes, as testers do.
//! * [`FaultSim`] — the one batch-grading core both fault models run
//!   on: one [`lbist_exec::LaneWord`] of patterns per pass (64 for the
//!   default `u64` frames, 128 for `u128`), sharded
//!   per-fault replay on the gate interpreter or the compiled kernel,
//!   fault dropping and n-detect counting.
//! * [`StuckAtSim`] / [`WideStuckAtSim`] — PPSFP under the [`StuckAt`]
//!   model: fault-free simulation followed by single-fault forward
//!   propagation.
//! * [`TransitionSim`] / [`WideTransitionSim`] — launch-on-capture
//!   transition grading under the [`Transition`] model, across the
//!   paper's **double-capture window**: per-domain pulse pairs in `d3`
//!   order, launches at each first pulse, captures at the second, fault
//!   effects carried across the window through flip-flop state.
//! * [`CoverageReport`] — the numbers the paper's Table 1 rows report.
//!
//! # Example
//!
//! ```
//! use lbist_netlist::{Netlist, GateKind};
//! use lbist_sim::CompiledCircuit;
//! use lbist_fault::{FaultUniverse, StuckAtSim};
//!
//! let mut nl = Netlist::new("demo");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate(GateKind::And, &[a, b]);
//! nl.add_output("y", g);
//!
//! let cc = CompiledCircuit::compile(&nl).unwrap();
//! let universe = FaultUniverse::stuck_at(&nl);
//! let mut sim = StuckAtSim::new(&cc, universe.representatives(), StuckAtSim::observe_all_captures(&cc));
//! let mut frame = cc.new_frame();
//! frame[a.index()] = 0b01_u64; // two patterns: a=1,b=1 and a=0,b=1
//! frame[b.index()] = 0b11_u64;
//! sim.run_batch(&mut frame, 2);
//! assert!(sim.coverage().fault_coverage() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coverage;
mod dictionary;
mod kernel;
mod model;
mod phases;
mod propagate;
mod sim;
mod stuck;
mod transition;
mod universe;

pub use coverage::CoverageReport;
pub use dictionary::{build_dictionary, FaultDictionary};
pub use kernel::grading_keep_set;
pub use model::{Fault, FaultKind};
pub use phases::SimPhaseMetrics;
pub use propagate::propagate_fault;
pub use sim::{FaultModel, FaultSim};
pub use stuck::{StuckAt, StuckAtSim, WideStuckAtSim};
pub use transition::{CaptureWindow, Transition, TransitionSim, WideTransitionSim};
pub use universe::FaultUniverse;
