//! Pool teardown regression test: `cargo test -q` must not leak OS
//! threads across pool lifetimes — `Drop` joins every worker.
//!
//! This is the only test in this binary on purpose: the assertion reads
//! the process-wide thread count, which a concurrently running sibling
//! test's harness thread would race.

use lbist_exec::ThreadPool;

/// OS-level thread count of this process (Linux); `None` elsewhere.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:")).and_then(|v| v.trim().parse().ok())
}

#[test]
fn dropped_pools_leave_no_os_threads_behind() {
    // Warm up the global pool first so its (process-lifetime) workers
    // are part of the baseline.
    lbist_exec::scope(|s| s.spawn(|_| {}));
    let baseline = os_thread_count();

    for round in 0..8 {
        let pool = ThreadPool::new(3);
        let mut acc = vec![0u64; 256];
        pool.install(|| {
            lbist_exec::scope(|s| {
                for (ci, chunk) in acc.chunks_mut(86).enumerate() {
                    s.spawn(move |_| {
                        for v in chunk.iter_mut() {
                            *v = ci as u64 + round + 1;
                        }
                    });
                }
            });
        });
        assert!(acc.iter().all(|&v| v > 0));
        assert_eq!(pool.alive_workers(), 3);
        drop(pool); // joins the 3 workers before the next round spawns 3 more
    }

    if let (Some(before), Some(after)) = (baseline, os_thread_count()) {
        assert!(
            after <= before,
            "pool teardown leaked OS threads: {before} before, {after} after 8 pool lifetimes"
        );
    }
}
