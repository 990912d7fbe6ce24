//! The paper's primary contribution: a flexible logic BIST architecture
//! for IP cores.
//!
//! Fig. 1 of the paper wires together everything the other crates of this
//! workspace model: a TPG block (per-domain PRPGs + phase shifters + space
//! expanders), an input selector that multiplexes random and top-up
//! patterns into the scan chains of a BIST-ready core, an ODC block
//! (space compactors + per-domain MISRs), a clock gating block issuing the
//! double-capture waveforms, and a controller with `Start`/`Finish`/
//! `Result` pins plus a Boundary-Scan interface. This crate is that
//! wiring:
//!
//! * [`StumpsArchitecture`]/[`StumpsConfig`] — sizes and builds the
//!   per-domain PRPG–MISR pairs exactly the way Table 1 reports them
//!   (19-bit PRPGs; compactor-less MISRs as wide as the domain's chain
//!   count, e.g. 99 bits for a 99-chain main domain).
//! * [`InputSelector`] — random patterns from the TPG or deterministic
//!   top-up patterns from ATPG, through the same chains.
//! * [`BistController`] — a standalone model of the load/capture/unload
//!   state machine and its `Start`/`Finish`/`Result` interface.
//! * [`SelfTestSession`] — a cycle-faithful self-test run: shift-in
//!   through phase shifters and expanders, double-capture window in `d3`
//!   domain order, shift-out through compactors into MISRs, golden
//!   signature comparison, and fault injection to prove defective cores
//!   flip `Result`.
//! * [`TapController`] — an IEEE 1149.1 TAP front-end with LBIST
//!   instructions for starting self-test, polling status, loading PRPG
//!   seeds and reading signatures (the paper's fault-diagnosis path).
//! * [`WideGradingSession`] — the lane-width-generic grading pipeline:
//!   PRPG fill ([`fill_frame_from_prpg`]) → bit-parallel fault
//!   simulation → detection → [`lbist_tpg::LaneMisr`] signature
//!   compaction, 64 or 128 lanes per pass, with batch *k+1*'s fill
//!   pipelined against batch *k*'s grading on the `lbist-exec` pool.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod architecture;
mod checkpoint;
mod controller;
mod diag;
mod fill;
mod grading;
mod jtag_bist;
mod selector;
mod session;
mod tap;

pub use architecture::{DomainBist, StumpsArchitecture, StumpsConfig, PHASE_SEPARATION};
pub use checkpoint::{
    faults_fingerprint, CheckpointSpec, GradingCheckpoint, ModelTag, RunControl, RunStatus,
    SessionCheckpoint, KIND_GRADING, KIND_SESSION,
};
pub use controller::{BistController, BistPhase, ControllerConfig};
pub use diag::{diagnose_first_failing_interval, DiagnosisReport};
pub use fill::{fill_frame_from_prpg, fill_lane_from_prpg};
pub use grading::{
    outcome_digest, ControlledGradingOutcome, GradingMetrics, WideGradingOutcome,
    WideGradingSession,
};
pub use jtag_bist::JtagBist;
pub use selector::{InputSelector, PatternSource};
pub use session::{ControlledSessionOutcome, SelfTestSession, SessionConfig, SessionResult};
pub use tap::{TapBackend, TapController, TapInstruction, TapState};
