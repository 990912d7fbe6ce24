//! The repository benchmark: the Table 1 flow on Core X and Core Y and
//! the multi-clock at-speed self-test session, timed end to end in a
//! closed loop and, in a separate traced run, per layer.
//!
//! The library holds the workload drivers, the span recorder and the
//! layer probes; `src/main.rs` is the command line that runs them and
//! prints the result. See `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod host;
pub mod probe;
pub mod selftest;
pub mod trace;
