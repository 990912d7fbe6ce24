//! Design-for-test transformations: from an RTL-ish netlist to the paper's
//! **BIST-ready core**.
//!
//! Section 2.1 of the paper defines a BIST-ready core as "a full-scan
//! circuit with unknown value (X) sources properly blocked", with
//! observation points "inserted based on the results of fault simulation"
//! and **no control points** (to protect functional timing). Section 3
//! adds that scan cells were inserted for all PIs and POs. This crate
//! implements that pipeline:
//!
//! * [`XBounding`] — forces every X-source to a constant in test mode and
//!   proves (by 3-valued simulation) that no X can reach a capture point.
//! * [`wrap_ios`] — adds scan cells on primary inputs and outputs so the
//!   BIST session controls and observes the core boundary.
//! * [`ScanChains`] — balanced stitching of flip-flops into per-domain
//!   chains (chains never cross clock domains; the architecture gives each
//!   domain its own PRPG–MISR pair instead).
//! * [`TestPointInsertion`] — observation-point selection, either
//!   **fault-simulation-guided** (the paper's method: score candidate nets
//!   by how many random-pattern-resistant fault effects reach them, greedy
//!   set cover) or **COP-based** (the observability-calculation baseline
//!   the paper compares against).
//! * [`DftOverhead`] — the gate-equivalent area accounting behind Table 1's
//!   "Overhead" row.
//!
//! The one-call entry point is [`prepare_core`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cop;
mod overhead;
mod prep;
mod scan;
mod tpi;
mod wrap;
mod xbound;

pub use cop::CopMeasures;
pub use overhead::DftOverhead;
pub use prep::{fill_random_scan_frame, prepare_core, BistReadyCore, PrepConfig, TpiMethod};
pub use scan::{ScanChain, ScanChains};
pub use tpi::{insert_observation_points, TestPointInsertion};
pub use wrap::{wrap_ios, IoWrapReport};
pub use xbound::{XBoundReport, XBounding};
