//! Pool and resilience telemetry: every executed task is charged to a
//! worker counter, and chaos-injected shard failures are visible in the
//! process-wide retry/degrade/panic counters.
//!
//! The resilience counters live in `lbist_obs::global()` and are
//! monotonic across the whole process, so these tests assert
//! before/after deltas (`>=`), never absolute values — other tests in
//! this binary may be dispatching concurrently.

use lbist_exec::chaos::{self, ChaosPlan};
use lbist_exec::{resilient_chunks_with_scratch, RetryPolicy, ShardPanic, ThreadPool};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Value of a global counter, 0 when nothing registered it yet.
fn global_counter(name: &str) -> u64 {
    lbist_obs::global().snapshot().counter(name).unwrap_or(0)
}

fn run_resilient(workers: usize, policy: &RetryPolicy) -> Vec<u64> {
    let items: Vec<u64> = (0..257).collect();
    let mut out = vec![0u64; items.len()];
    let mut scratch: Vec<u64> = Vec::new();
    resilient_chunks_with_scratch(
        &items,
        &mut out,
        workers,
        &mut scratch,
        || 0,
        |items, out, _| {
            for (i, o) in items.iter().zip(out.iter_mut()) {
                *o = i * 3 + 1;
            }
        },
        policy,
        None,
    );
    out
}

#[test]
fn every_executed_task_is_charged_to_a_worker() {
    let pool = ThreadPool::new(3);
    let executed = AtomicUsize::new(0);
    const TASKS: usize = 64;
    pool.scope(|s| {
        for _ in 0..TASKS {
            let executed = &executed;
            s.spawn(move |_| {
                executed.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(executed.load(Ordering::Relaxed), TASKS);
    let stats = pool.stats();
    assert_eq!(stats.workers.len(), 3);
    // A fresh pool's counters start at zero (per-pool names), so the
    // totals are exact, not deltas: every task ran exactly once,
    // whoever picked it up.
    assert_eq!(stats.total_tasks(), TASKS as u64, "stats: {stats:?}");
}

#[test]
fn pool_counters_are_visible_by_name_in_the_global_registry() {
    let pool = ThreadPool::new(2);
    pool.scope(|s| {
        for _ in 0..8 {
            s.spawn(|_| {});
        }
    });
    // The per-pool names are id-suffixed; sum every pool's tasks_run
    // and check this pool's contribution is included.
    let snap = lbist_obs::global().snapshot();
    let total_by_name: u64 = snap
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("exec.pool") && name.ends_with(".tasks_run"))
        .map(|&(_, v)| v)
        .sum();
    assert!(
        total_by_name >= pool.stats().total_tasks(),
        "registry total {total_by_name} < pool total {}",
        pool.stats().total_tasks()
    );
    assert_eq!(pool.stats().total_tasks(), 8);
}

#[test]
fn chaos_injected_retries_are_visible_in_counters() {
    let policy = RetryPolicy { max_retries: 2, backoff: Duration::ZERO };
    let dispatches_before = global_counter("exec.shard_dispatches");
    let retries_before = global_counter("exec.shard_retries");
    // Shard 0 of dispatch 0 fails its first attempt, then recovers.
    let out = chaos::with_plan(ChaosPlan::new().panic_on(0, 1, 1), || run_resilient(4, &policy));
    assert_eq!(out[0], 1, "recovered shard must still produce correct output");
    assert!(global_counter("exec.shard_dispatches") >= dispatches_before + 4);
    assert!(
        global_counter("exec.shard_retries") > retries_before,
        "an injected panic must surface as a retry"
    );
}

#[test]
fn chaos_forced_serial_degrades_are_visible_in_counters() {
    let policy = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
    let degrades_before = global_counter("exec.serial_degrades");
    // Both pool attempts of shard 1 die; the serial degrade succeeds.
    let out = chaos::with_plan(ChaosPlan::new().panic_on(0, 1, 2), || run_resilient(4, &policy));
    assert_eq!(out[100], 301, "degraded shard must still produce correct output");
    assert!(
        global_counter("exec.serial_degrades") > degrades_before,
        "a degraded shard must surface in the counter"
    );
}

#[test]
fn escalated_shard_panics_are_visible_in_counters() {
    let policy = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
    let panics_before = global_counter("exec.shard_panics");
    let caught = panic::catch_unwind(AssertUnwindSafe(|| {
        chaos::with_plan(ChaosPlan::new().panic_always(2, u32::MAX), || run_resilient(4, &policy));
    }))
    .expect_err("a permanently dead shard must raise");
    assert!(caught.downcast_ref::<ShardPanic>().is_some());
    assert!(
        global_counter("exec.shard_panics") > panics_before,
        "an escalated ShardPanic must surface in the counter"
    );
}
