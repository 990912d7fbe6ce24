//! The unified parallel execution layer.
//!
//! Every parallel consumer in the workspace — PPSFP fault grading,
//! launch-on-capture transition replay, top-up PODEM, test-point
//! scoring, session verdicts — used to parallelise ad hoc: scoped OS
//! threads spawned per batch, frames hard-wired to 64 `u64` lanes.
//! This crate turns those one-off schemes into one subsystem:
//!
//! * [`ThreadPool`] — a **persistent pool**: workers are spawned once,
//!   park when idle, and pop tasks from one shared FIFO queue; a batch
//!   no longer pays OS-thread spawn/join per invocation. [`scope`],
//!   [`join`] and [`parallel_chunks_with_scratch`] run on the current
//!   pool (the lazily-initialised [`global`] pool unless a
//!   [`ThreadPool::install`] overrides it). Threads waiting for a
//!   scope *help*: they execute queued tasks instead of blocking, so
//!   nested scopes make progress even on a single-worker pool.
//! * [`LaneWord`] — the lane-width-generic bit-parallel frame word:
//!   the `u64` 64-lane assumption of the original TPG/fault-sim stack
//!   generalised over `u64`/`u128` (64/128 lanes per pass).
//! * **Resilience** — [`CancelToken`] for cooperative cancellation and
//!   deadlines, [`resilient_chunks_with_scratch`] for per-shard panic
//!   containment with bounded retries and serial degrade (failures
//!   surface as a [`ShardPanic`] naming the shard and carrying the
//!   original payload), and the [`chaos`] module's deterministic
//!   fault-injection hook that lets tests rehearse worker failure.
//! * **Telemetry** — every pool charges per-worker `tasks_run`
//!   counters (readable via [`ThreadPool::stats`] or by name through
//!   `lbist_obs::global()` snapshots), and resilient dispatch
//!   counts shards dispatched, retried, serially degraded, and
//!   escalated to [`ShardPanic`] (`exec.shard_dispatches` /
//!   `exec.shard_retries` / `exec.serial_degrades` /
//!   `exec.shard_panics`). Counters observe; they never feed back into
//!   scheduling, so the determinism contract below is unaffected.
//!
//! Determinism contract: the pool schedules *where* tasks run, never
//! *what* they compute. Consumers shard work into disjoint output
//! slices and merge serially, so any thread budget — including the
//! `--serial` / `--threads N` CLI knobs parsed by
//! `lbist_bench::cli_thread_budget` — produces bit-identical results.
//!
//! # Example
//!
//! ```
//! let mut out = vec![0u64; 1024];
//! lbist_exec::scope(|s| {
//!     for (chunk_index, chunk) in out.chunks_mut(256).enumerate() {
//!         s.spawn(move |_| {
//!             for (i, v) in chunk.iter_mut().enumerate() {
//!                 *v = (chunk_index * 1_000 + i) as u64;
//!             }
//!         });
//!     }
//! });
//! assert_eq!(out[0], 0);
//! assert_eq!(out[256], 1_000);
//! let (a, b) = lbist_exec::join(|| 2 + 2, || "at speed");
//! assert_eq!((a, b), (4, "at speed"));
//! ```

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

mod cancel;
pub mod chaos;
mod lanes;
mod pool;
mod resilient;

pub use cancel::{CancelReason, CancelToken};
pub use lanes::LaneWord;
pub use pool::{
    current_num_threads, global, join, parallel_chunks_with_scratch, scope, worker_budget,
    PoolStats, Scope, ThreadPool, WorkerStats,
};
pub use resilient::{resilient_chunks_with_scratch, retry_backoff, RetryPolicy, ShardPanic};
