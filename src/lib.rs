//! **lbist** — at-speed logic BIST for IP cores, in Rust.
//!
//! A full reproduction of *"At-Speed Logic BIST for IP Cores"* (Cheon,
//! Lee, Wang, Wen, Hsu, Cho, Park, Chao, Wu — DATE 2005, DOI
//! 10.1109/DATE.2005.70): the STUMPS-class BIST architecture with one
//! PRPG–MISR pair per clock domain, fault-simulation-guided observation
//! points, double-capture at-speed clocking with a single slow
//! scan-enable, and the skew-tolerant shift-path discipline of the
//! paper's Fig. 3 — plus every substrate it needs (netlist, simulation,
//! fault models, DFT transformations, ATPG, clocking, synthetic cores).
//!
//! This crate is a facade: each subsystem lives in its own crate and is
//! re-exported here as a module.
//!
//! | module | contents |
//! |---|---|
//! | [`exec`] | persistent thread pool + 64/128-lane frame words |
//! | [`netlist`] | gate-level circuits, levelization, `.bench` I/O |
//! | [`sim`] | 64/128-way bit-parallel 2-/3-valued simulation and the compiled kernel |
//! | [`tpg`] | LFSR/PRPG, phase shifters, space expanders, MISRs, compactors |
//! | [`fault`] | stuck-at & transition faults, collapsing, PPSFP, LOC grading |
//! | [`dft`] | X-bounding, IO wrappers, scan stitching, test point insertion |
//! | [`atpg`] | PODEM (emitting test cubes) and the top-up pattern flow |
//! | [`reseed`] | hybrid-BIST reseeding: GF(2) seed solving, cube packing, seed schedules |
//! | [`clock`] | clock gating block, Fig. 2 waveforms, Fig. 3 skew analysis |
//! | [`core`] | the BIST architecture, controller, sessions (seed-scheduled too), TAP |
//! | [`cores`] | synthetic CPU-like IP cores matching Table 1's profiles |
//! | [`ckpt`] | versioned, checksummed checkpoint serialization + atomic file I/O |
//! | [`serve`] | multi-tenant job control plane: admission, fair scheduling, preemption |
//! | [`obs`] | engine-wide metrics: counter/gauge/histogram registry, phase spans, JSON/Prometheus export |
//!
//! # Quickstart
//!
//! ```
//! use lbist::cores::{CoreProfile, CpuCoreGenerator};
//! use lbist::dft::{prepare_core, PrepConfig, TpiMethod};
//! use lbist::core::{SelfTestSession, SessionConfig, StumpsConfig};
//!
//! // 1. An IP core (here: a small synthetic CPU-like block).
//! let netlist = CpuCoreGenerator::new(CoreProfile::core_x().scaled(800), 7).generate();
//!
//! // 2. Make it BIST-ready: X-bounding, IO scan cells, chains, test points.
//! let core = prepare_core(&netlist, &PrepConfig {
//!     total_chains: 4,
//!     obs_budget: 2,
//!     tpi: TpiMethod::FaultSimGuided { patterns: 128 },
//!     ..PrepConfig::default()
//! });
//!
//! // 3. Self-test: golden signature, then verify a re-run matches.
//! let mut session = SelfTestSession::new(&core, &StumpsConfig::default());
//! let golden = session.run(&SessionConfig { num_patterns: 16, ..Default::default() });
//! let retest = session.run(&SessionConfig { num_patterns: 16, ..Default::default() });
//! assert!(retest.matches(&golden)); // Result = pass
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use lbist_atpg as atpg;
pub use lbist_ckpt as ckpt;
pub use lbist_clock as clock;
pub use lbist_core as core;
pub use lbist_cores as cores;
pub use lbist_dft as dft;
pub use lbist_exec as exec;
pub use lbist_fault as fault;
pub use lbist_netlist as netlist;
pub use lbist_obs as obs;
pub use lbist_reseed as reseed;
pub use lbist_serve as serve;
pub use lbist_sim as sim;
pub use lbist_tpg as tpg;
