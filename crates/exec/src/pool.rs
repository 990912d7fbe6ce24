//! The persistent thread pool.
//!
//! One [`ThreadPool`] owns a fixed set of worker threads spawned once
//! and parked when idle. Work enters through [`Scope::spawn`], which
//! appends to the pool's one FIFO task queue; workers pop from its
//! front. A thread waiting for a scope to finish *helps* — it pops and
//! executes queued tasks instead of blocking — so nested scopes cannot
//! deadlock even on a one-worker pool.
//!
//! Structured concurrency makes the borrowed-task lifetimes sound: a
//! scope's tasks may borrow the caller's stack, and [`scope`] does not
//! return until every spawned task has completed (panics included —
//! they are captured per scope and re-raised at the scope exit). This
//! is the same contract as `std::thread::scope`, with persistent
//! workers instead of per-call OS threads.

use lbist_obs::Counter;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Assigns each pool a process-unique id so its counters get their own
/// names in the global registry (a fresh pool's stats start at zero).
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(0);

/// Observed execution counts for one worker (or the external identity).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks picked up and executed.
    pub tasks_run: u64,
}

/// Point-in-time execution counts for a whole pool, from
/// [`ThreadPool::stats`]. The same numbers are exported by name
/// (`exec.pool<id>.worker<i>.tasks_run`, `exec.pool<id>.external.tasks_run`)
/// through `lbist_obs::global()` snapshots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// One entry per worker thread, by worker index.
    pub workers: Vec<WorkerStats>,
    /// Tasks executed by non-worker threads helping a scope join.
    pub external: WorkerStats,
}

impl PoolStats {
    /// Tasks executed across all workers plus helping threads.
    pub fn total_tasks(&self) -> u64 {
        self.workers.iter().map(|w| w.tasks_run).sum::<u64>() + self.external.tasks_run
    }
}

/// A queued unit of work: the lifetime-erased job plus the latch of the
/// scope it belongs to (completion and panic capture follow the task,
/// so *any* thread may execute it).
struct QueuedTask {
    latch: Arc<ScopeLatch>,
    job: Box<dyn FnOnce() + Send + 'static>,
}

/// Completion tracking for one scope: outstanding-task count plus the
/// first captured panic payload.
struct ScopeLatch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

impl ScopeLatch {
    fn new() -> Self {
        ScopeLatch {
            state: Mutex::new(LatchState { pending: 0, panic: None }),
            done: Condvar::new(),
        }
    }

    fn add_task(&self) {
        self.state.lock().expect("latch poisoned").pending += 1;
    }

    fn complete(&self, panic_payload: Option<Box<dyn std::any::Any + Send + 'static>>) {
        let mut st = self.state.lock().expect("latch poisoned");
        st.pending -= 1;
        if st.panic.is_none() {
            if let Some(p) = panic_payload {
                st.panic = Some(p);
            }
        }
        if st.pending == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().expect("latch poisoned").pending == 0
    }

    /// Parks briefly until the scope completes or the timeout elapses
    /// (the caller re-runs its help loop either way, so a spurious or
    /// timed-out wake only costs one queue check).
    fn wait_done_briefly(&self) {
        let st = self.state.lock().expect("latch poisoned");
        if st.pending > 0 {
            let _ = self.done.wait_timeout(st, Duration::from_millis(1)).expect("latch poisoned");
        }
    }

    fn take_panic(&self) -> Option<Box<dyn std::any::Any + Send + 'static>> {
        self.state.lock().expect("latch poisoned").panic.take()
    }
}

/// Executes one queued task, routing a panic into the task's scope
/// latch instead of unwinding the executing thread.
fn run_task(task: QueuedTask) {
    let result = panic::catch_unwind(AssertUnwindSafe(task.job));
    task.latch.complete(result.err());
}

/// State shared between the pool handle, its workers, and live scopes.
struct PoolShared {
    /// Every queued task, oldest first. Workers and helping threads pop
    /// the front; spawns append to the back.
    queue: Mutex<VecDeque<QueuedTask>>,
    /// Wakes a parked worker: notified once per push and by shutdown.
    /// Workers check the queue and the shutdown flag under the queue
    /// lock before waiting, so neither wakeup can be lost.
    task_ready: Condvar,
    shutdown: AtomicBool,
    /// Workers currently alive (decremented on worker exit) — the
    /// teardown regression tests read this.
    alive: AtomicUsize,
    /// `tasks_run` per worker thread, by worker index, plus the pooled
    /// identity for helping non-worker threads.
    worker_tasks: Vec<Counter>,
    external_tasks: Counter,
}

impl PoolShared {
    /// Pops the oldest queued task and charges it to the identity that
    /// runs it: worker `who`, or the external identity for `None`.
    fn pop(&self, who: Option<usize>) -> Option<QueuedTask> {
        let task = self.queue.lock().expect("queue poisoned").pop_front()?;
        match who {
            Some(idx) => self.worker_tasks[idx].inc(),
            None => self.external_tasks.inc(),
        }
        Some(task)
    }

    /// Appends a task to the queue and wakes one parked worker.
    fn push(&self, task: QueuedTask) {
        self.queue.lock().expect("queue poisoned").push_back(task);
        self.task_ready.notify_one();
    }
}

thread_local! {
    /// Set for the lifetime of a worker thread: which pool it belongs
    /// to and its worker index (the identity its helping loops charge
    /// executed tasks to).
    static WORKER: std::cell::RefCell<Option<(Arc<PoolShared>, usize)>> =
        const { std::cell::RefCell::new(None) };
    /// Stack of pools installed via [`ThreadPool::install`] (workers
    /// push their own pool so nested free-function calls stay on it).
    static INSTALLED: std::cell::RefCell<Vec<Arc<PoolShared>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn worker_loop(shared: Arc<PoolShared>, index: usize) {
    WORKER.with(|w| *w.borrow_mut() = Some((Arc::clone(&shared), index)));
    INSTALLED.with(|s| s.borrow_mut().push(Arc::clone(&shared)));
    let mut queue = shared.queue.lock().expect("queue poisoned");
    loop {
        if let Some(task) = queue.pop_front() {
            drop(queue);
            shared.worker_tasks[index].inc();
            run_task(task);
            queue = shared.queue.lock().expect("queue poisoned");
        } else if shared.shutdown.load(Ordering::SeqCst) {
            break;
        } else {
            queue = shared.task_ready.wait(queue).expect("queue poisoned");
        }
    }
    drop(queue);
    shared.alive.fetch_sub(1, Ordering::SeqCst);
}

/// A persistent thread pool with one FIFO task queue.
///
/// Workers are spawned at construction and live until the pool is
/// dropped; [`Drop`] signals shutdown and **joins every worker**, so a
/// pool cannot leak OS threads across its lifetime (enforced by a
/// regression test). The process-wide [`global`] pool lives in a
/// once-cell and is initialised exactly once, on first use.
///
/// # Example
///
/// ```
/// let pool = lbist_exec::ThreadPool::new(2);
/// let mut buf = vec![0u32; 8];
/// pool.install(|| {
///     lbist_exec::scope(|s| {
///         for (i, slot) in buf.iter_mut().enumerate() {
///             s.spawn(move |_| *slot = i as u32 * 10);
///         }
///     });
/// });
/// assert_eq!(buf[3], 30);
/// drop(pool); // joins both workers
/// ```
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.handles.len()).finish()
    }
}

impl ThreadPool {
    /// Spawns a pool with `threads` persistent workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a thread pool needs at least one worker");
        let pool_id = NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed);
        let tasks_run =
            |who: &str| lbist_obs::global().counter(&format!("exec.pool{pool_id}.{who}.tasks_run"));
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            task_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            alive: AtomicUsize::new(threads),
            worker_tasks: (0..threads).map(|i| tasks_run(&format!("worker{i}"))).collect(),
            external_tasks: tasks_run("external"),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("lbist-exec-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, handles }
    }

    /// Number of worker threads.
    pub fn num_threads(&self) -> usize {
        self.handles.len()
    }

    /// Worker threads currently alive — `num_threads()` while the pool
    /// runs, `0` once [`Drop`] has joined them (teardown diagnostics).
    pub fn alive_workers(&self) -> usize {
        self.shared.alive.load(Ordering::SeqCst)
    }

    /// Point-in-time per-worker execution counts (tasks run).
    /// Purely observational: reading them never perturbs scheduling.
    pub fn stats(&self) -> PoolStats {
        let read = |c: &Counter| WorkerStats { tasks_run: c.value() };
        PoolStats {
            workers: self.shared.worker_tasks.iter().map(read).collect(),
            external: read(&self.shared.external_tasks),
        }
    }

    /// Runs `f` with this pool installed as the calling thread's
    /// current pool: [`scope`], [`join`],
    /// [`resilient_chunks_with_scratch`](crate::resilient_chunks_with_scratch)
    /// and [`current_num_threads`] inside `f` target it instead of the
    /// global pool.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct PopGuard;
        impl Drop for PopGuard {
            fn drop(&mut self) {
                INSTALLED.with(|s| {
                    s.borrow_mut().pop();
                });
            }
        }
        INSTALLED.with(|s| s.borrow_mut().push(Arc::clone(&self.shared)));
        let _guard = PopGuard;
        f()
    }

    /// [`scope`] pinned to this pool.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        scope_on(Arc::clone(&self.shared), f)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let _queue = self.shared.queue.lock().expect("queue poisoned");
            self.shared.shutdown.store(true, Ordering::SeqCst);
            self.shared.task_ready.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();

/// The process-wide pool, created on first use (once-cell guarded:
/// every later call returns the same pool). Size comes from the
/// `LBIST_THREADS` environment variable, then `RAYON_NUM_THREADS` (hosts
/// commonly set it to cap a process's worker threads), then the
/// machine's available parallelism.
pub fn global() -> &'static ThreadPool {
    GLOBAL.get_or_init(|| ThreadPool::new(default_threads()))
}

fn default_threads() -> usize {
    for var in ["LBIST_THREADS", "RAYON_NUM_THREADS"] {
        if let Ok(v) = std::env::var(var) {
            if let Ok(n) = v.parse::<usize>() {
                if n > 0 {
                    return n;
                }
            }
        }
    }
    std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
}

fn current_shared() -> Arc<PoolShared> {
    if let Some(shared) = INSTALLED.with(|s| s.borrow().last().cloned()) {
        return shared;
    }
    Arc::clone(&global().shared)
}

/// Worker-thread budget of the current pool (installed pool if any,
/// else the global pool).
pub fn current_num_threads() -> usize {
    current_shared().worker_tasks.len()
}

/// A scope in which borrowed-data tasks can be spawned onto the pool;
/// every task completes before [`scope`] returns. Mirrors the
/// `std::thread::scope` lifetime discipline (`'scope` invariant,
/// `'env: 'scope` for borrowed data).
pub struct Scope<'scope, 'env: 'scope> {
    shared: Arc<PoolShared>,
    latch: Arc<ScopeLatch>,
    /// Invariance over `'scope` (the `std::thread::scope` trick): a
    /// scope cannot be smuggled into an outer or inner lifetime.
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from outside the scope. Panics in
    /// the task are captured and re-raised when the scope joins.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&Scope<'scope, 'env>) + Send + 'scope,
    {
        let handoff = Scope {
            shared: Arc::clone(&self.shared),
            latch: Arc::clone(&self.latch),
            _scope: PhantomData,
            _env: PhantomData,
        };
        self.latch.add_task();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || f(&handoff));
        // SAFETY: the job is erased to 'static so persistent workers
        // can hold it, but it only ever borrows data outliving 'env.
        // Soundness rests on structured concurrency: `scope_on` does
        // not return until the latch reports every task complete
        // (`add_task` above runs before the push, and `run_task`
        // completes the latch even when the job panics), so no borrow
        // inside the job can outlive the frame that owns the data.
        let job: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<
                Box<dyn FnOnce() + Send + 'scope>,
                Box<dyn FnOnce() + Send + 'static>,
            >(job)
        };
        self.shared.push(QueuedTask { latch: Arc::clone(&self.latch), job });
    }

    /// Helps the pool until every task of this scope has completed:
    /// queued tasks (of any scope) run on the waiting thread instead of
    /// it blocking, which is what lets nested scopes progress on small
    /// pools.
    fn wait_all(&self) {
        let who = WORKER.with(|w| match &*w.borrow() {
            Some((shared, idx)) if Arc::ptr_eq(shared, &self.shared) => Some(*idx),
            _ => None,
        });
        while !self.latch.is_done() {
            match self.shared.pop(who) {
                Some(task) => run_task(task),
                None => self.latch.wait_done_briefly(),
            }
        }
    }
}

fn scope_on<'env, F, R>(shared: Arc<PoolShared>, f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    let scope = Scope {
        shared,
        latch: Arc::new(ScopeLatch::new()),
        _scope: PhantomData,
        _env: PhantomData,
    };
    // The body may panic after spawning: tasks borrowing the caller's
    // stack must still be joined before the unwind continues.
    let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
    scope.wait_all();
    match result {
        Err(body_panic) => panic::resume_unwind(body_panic),
        Ok(r) => {
            if let Some(task_panic) = scope.latch.take_panic() {
                panic::resume_unwind(task_panic);
            }
            r
        }
    }
}

/// Creates a scope on the current pool for spawning borrowed-data
/// tasks; returns once every spawned task has completed.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
{
    scope_on(current_shared(), f)
}

/// Runs two closures, potentially in parallel on the current pool, and
/// returns both results.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let mut rb = None;
    let ra = scope(|s| {
        let slot = &mut rb;
        s.spawn(move |_| *slot = Some(b()));
        a()
    });
    (ra, rb.expect("joined task completed"))
}

/// The shared worker-budget rule of every sharded consumer: engage
/// another worker only once it owns a meaningful shard. With
/// `min_shard: Some(m)` (auto mode) the budget is
/// `threads.min(len.div_ceil(m)).max(1)` — small or compacted work
/// lists fall back toward serial instead of paying dispatch overhead;
/// with `None` (an explicit `set_threads` budget) it is honoured
/// exactly, capped only by the item count (tests force sharding on
/// tiny lists).
pub fn worker_budget(threads: usize, len: usize, min_shard: Option<usize>) -> usize {
    match min_shard {
        Some(m) => threads.min(len.div_ceil(m.max(1))).max(1),
        None => threads.min(len).max(1),
    }
}

/// Shards per worker in the chunk dispatcher. More shards than workers
/// let a worker that finishes early pull another shard instead of
/// idling while a slower one finishes its band; each shard also pays its
/// consumer's per-shard set-up. 1, 4 and 8 were measured on the fault
/// simulators, and 4 was best.
const SHARDS_PER_WORKER: usize = 4;

/// The shard length the chunk dispatcher,
/// [`resilient_chunks_with_scratch`](crate::resilient_chunks_with_scratch),
/// splits `len` items into for `workers` workers (the split its doc
/// describes). `len` must be at least 1: the dispatcher returns early
/// on no items.
pub(crate) fn shard_len(len: usize, workers: usize, min_shard: Option<usize>) -> usize {
    let most = workers * SHARDS_PER_WORKER;
    let shards = match min_shard {
        _ if workers <= 1 => 1,
        Some(m) => (len / m.max(1)).clamp(workers, most),
        None => most,
    };
    len.div_ceil(shards.min(len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scope_joins_all_tasks() {
        let counter = AtomicUsize::new(0);
        let data = vec![1usize; 100];
        scope(|s| {
            for chunk in data.chunks(7) {
                let counter = &counter;
                s.spawn(move |_| {
                    counter.fetch_add(chunk.iter().sum::<usize>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn tasks_mutate_disjoint_slices() {
        let mut buf = vec![0u64; 64];
        scope(|s| {
            for (i, chunk) in buf.chunks_mut(16).enumerate() {
                s.spawn(move |_| {
                    for v in chunk.iter_mut() {
                        *v = i as u64 + 1;
                    }
                });
            }
        });
        assert!(buf.iter().all(|&v| v > 0));
    }

    #[test]
    fn nested_scopes_progress_on_one_worker() {
        let pool = ThreadPool::new(1);
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let total = &total;
                s.spawn(move |_| {
                    // Nested scope inside a task of a 1-worker pool:
                    // only caller-helping makes this terminate.
                    scope(|inner| {
                        for k in 0..4u64 {
                            inner.spawn(move |_| {
                                total.fetch_add(k, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 4 * (1 + 2 + 3));
    }

    #[test]
    fn join_returns_both() {
        let (a, b) = join(|| 2 + 2, || "ok");
        assert_eq!(a, 4);
        assert_eq!(b, "ok");
    }

    #[test]
    fn join_nests() {
        let pool = ThreadPool::new(2);
        let ((a, b), (c, d)) = pool.install(|| join(|| join(|| 1, || 2), || join(|| 3, || 4)));
        assert_eq!((a, b, c, d), (1, 2, 3, 4));
    }

    #[test]
    fn worker_budget_rules() {
        // Auto mode: shards must be worth dispatching.
        assert_eq!(worker_budget(8, 1000, Some(64)), 8);
        assert_eq!(worker_budget(8, 100, Some(64)), 2);
        assert_eq!(worker_budget(8, 10, Some(64)), 1);
        assert_eq!(worker_budget(8, 0, Some(64)), 1);
        // Explicit budgets are honoured exactly, capped by the items.
        assert_eq!(worker_budget(8, 3, None), 3);
        assert_eq!(worker_budget(2, 1000, None), 2);
        assert_eq!(worker_budget(8, 0, None), 1);
    }

    #[test]
    fn shard_split_rules() {
        // One worker runs everything as one shard.
        assert_eq!(shard_len(1000, 1, Some(64)), 1000);
        assert_eq!(shard_len(1000, 1, None), 1000);
        // Auto mode: up to four shards per worker (8, then 4 here), none
        // under the floor beyond the one per worker the budget granted.
        assert_eq!(shard_len(1000, 2, Some(64)), 125);
        assert_eq!(shard_len(300, 2, Some(64)), 75);
        assert_eq!(shard_len(100, 2, Some(64)), 50);
        // Explicit budgets: four per worker, down to single items.
        assert_eq!(shard_len(257, 2, None), 33);
        assert_eq!(shard_len(5, 4, None), 1);
    }

    #[test]
    fn task_panic_propagates_at_scope_exit() {
        let result = panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|_| panic!("task exploded"));
                s.spawn(|_| {}); // sibling still joins
            });
        });
        assert!(result.is_err(), "the task panic must surface");
        // The pool survives: workers caught the unwind.
        let (x, y) = join(|| 1, || 2);
        assert_eq!((x, y), (1, 2));
    }

    #[test]
    fn install_overrides_the_global_pool() {
        let pool = ThreadPool::new(3);
        assert_eq!(pool.install(current_num_threads), 3);
    }

    /// The teardown satellite: dropping a pool joins every worker — no
    /// OS thread outlives its pool.
    #[test]
    fn drop_joins_all_workers() {
        let pool = ThreadPool::new(4);
        let shared = Arc::clone(&pool.shared);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|_| {});
            }
        });
        assert_eq!(pool.alive_workers(), 4);
        drop(pool);
        assert_eq!(shared.alive.load(Ordering::SeqCst), 0, "drop must join every worker");
    }

    /// The once-cell guard: the global pool is initialised exactly once
    /// and keeps a stable thread count.
    #[test]
    fn global_pool_is_a_singleton() {
        let a = global() as *const ThreadPool;
        let n = global().num_threads();
        scope(|s| {
            s.spawn(|_| {});
        });
        let b = global() as *const ThreadPool;
        assert_eq!(a, b);
        assert_eq!(global().num_threads(), n);
        assert!(n >= 1);
    }
}
