//! Test-pattern-generation hardware models.
//!
//! This crate models the on-chip pseudo-random test machinery of the
//! paper's logic BIST architecture (Fig. 1):
//!
//! * [`Lfsr`] — a Fibonacci linear-feedback shift register over GF(2) with
//!   a table of maximal-length (primitive) polynomials ([`LfsrPoly`]),
//!   the building block of both PRPGs and MISRs. Arbitrary widths are
//!   supported (the paper's Core X uses a **99-bit** MISR).
//! * [`PhaseShifter`] — an XOR network that hands each scan chain a
//!   far-apart phase of the PRPG sequence, synthesised exactly with GF(2)
//!   matrix powers ([`Gf2Matrix`]) so the channel-`c` output provably equals
//!   the LFSR stream delayed by `c × separation` cycles.
//! * [`Prpg`] — LFSR + phase shifter + optional [`SpaceExpander`], producing
//!   one bit per scan chain per shift cycle.
//! * [`Misr`] — multiple-input signature register with the superposition
//!   property, plus [`SpaceCompactor`] XOR trees (the paper deliberately
//!   *omits* these before long MISRs to avoid setup-time risk — that
//!   trade-off is an ablation in the bench suite).
//! * [`aliasing`] — the classic `2^-n` aliasing estimate and an empirical
//!   checker.
//!
//! # Example: PRPG feeding four chains
//!
//! ```
//! use lbist_tpg::{Lfsr, LfsrPoly, PhaseShifter, Prpg};
//!
//! let poly = LfsrPoly::maximal(19).unwrap(); // the paper's PRPG length
//! let lfsr = Lfsr::with_ones_seed(poly);
//! let shifter = PhaseShifter::synthesize(lfsr.poly(), 4, 8);
//! let mut prpg = Prpg::new(lfsr, shifter);
//! let bits = prpg.step_vector();
//! assert_eq!(bits.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aliasing;
mod compactor;
mod expander;
mod gf2;
mod lanes;
mod lfsr;
mod misr;
mod phase;
mod poly;
mod prpg;

pub use compactor::SpaceCompactor;
pub use expander::SpaceExpander;
pub use gf2::{Gf2Matrix, Gf2Vec};
pub use lanes::LaneLfsr;
pub use lfsr::Lfsr;
pub use misr::{LaneMisr, Misr};
pub use phase::PhaseShifter;
pub use poly::LfsrPoly;
pub use prpg::Prpg;
