//! Engine-wide observability: a dependency-free metrics layer every
//! runtime crate can afford to wire through its hot paths.
//!
//! # Model
//!
//! A [`Registry`] owns named metrics of three kinds:
//!
//! * [`Counter`] — a monotonic `u64` in one relaxed atomic (grading
//!   workers count in their own scratch and flush once per batch, so no
//!   hot path has two threads adding to one counter);
//! * [`Gauge`] — a point-in-time `i64` (queue depths, in-flight jobs);
//! * [`Histogram`] — log2-bucketed `u64` distribution (65 buckets:
//!   `{0}` plus one per power of two), with a wrapping sum. Every `u64`
//!   value lands in exactly one bucket (property-tested).
//!
//! Handles are cheap (`Arc` clones) and record with relaxed atomics;
//! the registration map is only locked when a metric is first named.
//!
//! # No-op mode
//!
//! [`Registry::disabled`] hands out handles whose record operations
//! compile to a branch on a `None` — no atomics, no time sources. A
//! [`Histogram::start`] span on a disabled histogram never even reads
//! the clock. This is what lets the grading engine keep its
//! instrumentation permanently in place: callers that don't export
//! metrics pay near-zero cost.
//!
//! # Spans
//!
//! [`Histogram::start`] returns a scoped [`Span`] guard that records
//! the elapsed nanoseconds into the histogram on drop — the building
//! block of the per-batch `fill`/`sim`/`detect`/`absorb` phase trace in
//! `lbist_core::WideGradingSession` and the queue-wait / slice-latency
//! trace in `lbist-serve`.
//!
//! # Determinism contract
//!
//! Telemetry observes; it never steers. No metric value feeds back into
//! scheduling, grading, or any sealed artifact — digests, checkpoints
//! and parallel ≡ serial equivalences are bit-identical with metrics
//! on, off, or exported mid-run (enforced by tests in the core, serve
//! and bench crates). Timing lives only in snapshots.
//!
//! # Export
//!
//! [`Registry::snapshot`] freezes every metric into a [`Snapshot`],
//! which serializes to a JSON object ([`Snapshot::to_json`], parsed
//! back by [`Snapshot::from_json`] — round-trip property-tested) or to
//! Prometheus text exposition ([`Snapshot::to_prometheus`]). The bench
//! binaries surface both through their `--metrics-out PATH` flag.
//!
//! # Example
//!
//! ```
//! let registry = lbist_obs::Registry::new();
//! let batches = registry.counter("grading.batches");
//! let fill_ns = registry.histogram("grading.fill_ns");
//! for _ in 0..3 {
//!     let _span = fill_ns.start(); // records elapsed ns on drop
//!     batches.inc();
//! }
//! let snap = registry.snapshot();
//! assert_eq!(snap.counter("grading.batches"), Some(3));
//! assert_eq!(snap.histogram("grading.fill_ns").unwrap().count, 3);
//! let json = snap.to_json();
//! assert_eq!(lbist_obs::Snapshot::from_json(&json).unwrap(), snap);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;

pub use export::{HistogramSnapshot, Snapshot};
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, Registry, Span, NUM_BUCKETS,
};

use std::sync::OnceLock;

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry, created (enabled) on first use. Runtime
/// layers whose lifetime is the whole process — the global
/// `lbist_exec` thread pool, the resilient-dispatch retry counters —
/// register here so one snapshot covers the entire engine.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}
