//! Combinational ATPG for the paper's **top-up patterns**.
//!
//! Logic BIST leaves a tail of random-pattern-resistant faults. The paper's
//! input selector (Fig. 1) lets deterministic patterns ride the same scan
//! plumbing: Table 1 tops up Core X with 135 patterns (93.82% → 97.12%)
//! and Core Y with 528 (93.22% → 97.58%). This crate generates those
//! patterns:
//!
//! * [`Podem`] — the classic PODEM algorithm (objective → backtrace →
//!   implication → D-frontier/X-path checks, with backtracking) on the
//!   full-scan combinational view: flip-flops are pseudo-primary-inputs,
//!   capture points are pseudo-primary-outputs.
//! * [`TestCube`]/[`Pattern`] — partial cubes and their random-filled
//!   patterns.
//! * [`TopUpAtpg`] — the flow: target every surviving fault, fault-grade
//!   each new pattern against the remaining list (dynamic compaction by
//!   fault dropping), and report the pattern count Table 1 quotes.
//!
//! # Example
//!
//! ```
//! use lbist_netlist::{Netlist, GateKind};
//! use lbist_sim::CompiledCircuit;
//! use lbist_fault::{Fault, FaultKind, StuckAtSim};
//! use lbist_atpg::{AtpgOutcome, Podem};
//!
//! let mut nl = Netlist::new("t");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let g = nl.add_gate(GateKind::And, &[a, b]);
//! nl.add_output("y", g);
//! let cc = CompiledCircuit::compile(&nl).unwrap();
//!
//! let mut podem = Podem::new(&cc, StuckAtSim::observe_all_captures(&cc));
//! match podem.generate(&Fault::stem(g, FaultKind::StuckAt0)) {
//!     AtpgOutcome::Test(cube) => {
//!         // Exciting g/SA0 needs a = b = 1.
//!         assert_eq!(cube.value_of(a), Some(true));
//!         assert_eq!(cube.value_of(b), Some(true));
//!     }
//!     other => panic!("expected a test, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compact;
mod pattern;
mod podem;
mod topup;
mod values;

pub use compact::{compact_cubes, compacted_count, compatible, cube_of, merge};
pub use pattern::{Pattern, TestCube};
pub use podem::{AtpgOutcome, Podem};
pub use topup::{PassStats, TopUpAtpg, TopUpReport};
pub use values::eval_logic;
