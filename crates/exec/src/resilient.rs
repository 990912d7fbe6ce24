//! Resilient sharded dispatch: retries, graceful degradation, and
//! shard-identified panic propagation.
//!
//! [`resilient_chunks_with_scratch`] is the workspace's one chunk
//! dispatcher: a deterministic split into up to four contiguous shards
//! per worker, pulled by the workers from a shared cursor, with each
//! shard run under panic containment. A shard that panics is retried on the
//! pool with per-shard-jittered doubling backoff ([`RetryPolicy`],
//! [`retry_backoff`]); a shard that keeps failing is
//! **degraded to the serial path** — re-run once on the calling thread —
//! before the session is given up on; and only when even that fails does
//! the dispatch panic, re-raising the *original* payload wrapped in a
//! [`ShardPanic`] that names the shard (the plain scope latch loses
//! which shard died). Chaos actions, retries and the degrade all key on
//! the shard index, which runs past the worker count.
//!
//! The shard closure contract follows: `f` may be executed more than
//! once for the same shard, so it must fully overwrite its `out` slice
//! on success and tolerate running against a scratch value any earlier
//! attempt or shard already touched — scratch belongs to a worker, not
//! to a shard (the fault sims' replay scratch resets on entry, so they
//! qualify).

use crate::cancel::CancelToken;
use crate::chaos::{self, ChaosAction};
use crate::pool::{scope, shard_len};
use lbist_obs::Counter;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Process-wide resilience telemetry, registered once in
/// `lbist_obs::global()`. Dispatch counts shards handed to the pool;
/// retries/degrades/panics count the escalation ladder. Monotonic, so
/// tests assert before/after deltas even when suites run concurrently.
struct ResilienceCounters {
    shard_dispatches: Counter,
    shard_retries: Counter,
    serial_degrades: Counter,
    shard_panics: Counter,
}

fn counters() -> &'static ResilienceCounters {
    static COUNTERS: OnceLock<ResilienceCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        let registry = lbist_obs::global();
        ResilienceCounters {
            shard_dispatches: registry.counter("exec.shard_dispatches"),
            shard_retries: registry.counter("exec.shard_retries"),
            serial_degrades: registry.counter("exec.serial_degrades"),
            shard_panics: registry.counter("exec.shard_panics"),
        }
    })
}

/// How hard to try before declaring a shard dead.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Pool-side re-executions after the first failed attempt.
    pub max_retries: u32,
    /// Sleep before the first retry; doubles per subsequent retry, plus
    /// a deterministic per-shard jitter (see [`retry_backoff`]) so
    /// shards felled together don't retry in lockstep.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    /// Two retries starting at 1 ms: transient failures get absorbed
    /// in a few milliseconds, persistent ones degrade quickly.
    fn default() -> Self {
        RetryPolicy { max_retries: 2, backoff: Duration::from_millis(1) }
    }
}

/// The panic payload raised when a shard failed every pool attempt *and*
/// the serial degrade. Carries the original payload so callers can still
/// downcast to the root cause, plus the shard identity the plain scope
/// capture loses.
pub struct ShardPanic {
    /// Index of the shard that died.
    pub shard: usize,
    /// Total execution attempts made (pool attempts + the serial one).
    pub attempts: u32,
    /// Payload of the shard's *first* panic — the root cause, not the
    /// last retry's echo.
    pub payload: Box<dyn Any + Send + 'static>,
}

impl ShardPanic {
    /// The original payload rendered as a string when it was a `&str`
    /// or `String` panic message.
    pub fn message(&self) -> Option<&str> {
        if let Some(s) = self.payload.downcast_ref::<&str>() {
            Some(s)
        } else {
            self.payload.downcast_ref::<String>().map(String::as_str)
        }
    }
}

impl std::fmt::Debug for ShardPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPanic")
            .field("shard", &self.shard)
            .field("attempts", &self.attempts)
            .field("message", &self.message())
            .finish()
    }
}

struct ShardFailure {
    shard: usize,
    payload: Box<dyn Any + Send + 'static>,
}

/// Runs one attempt of a shard under panic containment, applying any
/// chaos action first (delay outside the containment, injected panic
/// inside it, so an injected payload is captured like a real one).
fn attempt<T, U, S>(
    f: &(impl Fn(&[T], &mut [U], &mut S) + Sync),
    items: &[T],
    out: &mut [U],
    scratch: &mut S,
    action: ChaosAction,
    attempt_index: u32,
) -> Result<(), Box<dyn Any + Send + 'static>> {
    if !action.delay.is_zero() {
        std::thread::sleep(action.delay);
    }
    panic::catch_unwind(AssertUnwindSafe(|| {
        if attempt_index < action.fail_attempts {
            panic!("{}", chaos::CHAOS_PANIC);
        }
        f(items, out, scratch)
    }))
}

/// The delay before retry number `retry` (0-based) of `shard`: the
/// policy's doubling base plus a deterministic per-shard jitter of up
/// to half the base.
///
/// The jitter is a multiplicative hash of the shard index — no RNG, so
/// retry timing is exactly reproducible run to run — and exists because
/// one stalled resource typically fells *many* shards at once: without
/// it every victim sleeps the identical doubling schedule and the whole
/// cohort re-stampedes the pool in lockstep at each retry.
pub fn retry_backoff(policy: &RetryPolicy, retry: u32, shard: usize) -> Duration {
    let base = policy.backoff.saturating_mul(1u32 << retry.min(16));
    if base.is_zero() {
        return base;
    }
    // Fibonacci-hash the shard index into a 24-bit value; scaling by
    // 2^-25 yields a jitter fraction in [0, 0.5) of the base delay.
    let hashed =
        (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(0xD1B5_4A32_D192_ED03);
    let frac = (hashed >> 40) as u128;
    let jitter_nanos = (base.as_nanos().saturating_mul(frac) >> 25).min(u64::MAX as u128);
    base.saturating_add(Duration::from_nanos(jitter_nanos as u64))
}

/// Sleeps [`retry_backoff`] before retry number `retry` (0-based) of
/// `shard`, unless the token has already fired.
fn backoff_sleep(policy: &RetryPolicy, retry: u32, shard: usize, cancel: Option<&CancelToken>) {
    if policy.backoff.is_zero() || cancel.is_some_and(|c| c.is_cancelled()) {
        return;
    }
    std::thread::sleep(retry_backoff(policy, retry, shard));
}

/// The 3-way zip dispatch shape shared by every sharded consumer:
/// `items` are split into contiguous shards, `out` is split in lockstep
/// (`out[i]` belongs to `items[i]`), and `workers` tasks pull shards
/// from a shared cursor until none is left, each running its shards
/// with its own reusable per-worker `scratch` entry. `scratch` is grown
/// on demand with `make_scratch` and kept for the next call — the
/// allocation-heavy propagation state survives across batches.
///
/// The split makes up to four shards per worker, so a worker that
/// finishes its shard early takes another instead of idling. In auto
/// mode (`min_shard: Some(m)`, as passed to
/// [`worker_budget`](crate::worker_budget)) it makes no more shards
/// than keep `m` items each, beyond the one per worker the budget
/// granted; with `None` it goes down to single items. A budget of 1
/// runs on the caller as one shard (the `--serial` escape hatch); shard
/// boundaries depend only on `items.len()`, `workers` and `min_shard`,
/// and every shard writes its own disjoint `out` slice, so results are
/// bit-identical at any budget.
///
/// Every shard runs under panic containment with bounded retries,
/// serial degrade, and [`ShardPanic`] propagation. The shard — not the
/// worker — is the unit of chaos actions, retries, the serial degrade
/// and [`ShardPanic::shard`]; shards outnumber workers, and each worker
/// retries a failed shard on its own scratch before pulling the next.
///
/// When `cancel` fires mid-dispatch, pending retries and degrades are
/// abandoned and the function returns early with `out` unspecified —
/// callers observing a fired token must discard the output (the fault
/// sims do: a cancelled batch is never merged).
///
/// # Panics
///
/// Panics with a [`ShardPanic`] payload if a shard fails every pool
/// attempt and the serial degrade; panics if `items` and `out` lengths
/// differ.
///
/// # Example
///
/// ```
/// use lbist_exec::{resilient_chunks_with_scratch, RetryPolicy};
///
/// let items = [1u32, 2, 3, 4, 5];
/// let mut out = [0u32; 5];
/// let mut scratch: Vec<u32> = Vec::new();
/// resilient_chunks_with_scratch(
///     &items,
///     &mut out,
///     2,
///     None,
///     &mut scratch,
///     || 0,
///     |items, out, calls| {
///         *calls += 1;
///         for (i, o) in items.iter().zip(out.iter_mut()) {
///             *o = i * 10;
///         }
///     },
///     &RetryPolicy::default(),
///     None,
/// );
/// assert_eq!(out, [10, 20, 30, 40, 50]);
/// // Five single-item shards, shared between the two workers.
/// assert_eq!(scratch.iter().sum::<u32>(), 5);
/// ```
#[allow(clippy::too_many_arguments)]
pub fn resilient_chunks_with_scratch<T, U, S>(
    items: &[T],
    out: &mut [U],
    workers: usize,
    min_shard: Option<usize>,
    scratch: &mut Vec<S>,
    mut make_scratch: impl FnMut() -> S,
    f: impl Fn(&[T], &mut [U], &mut S) + Sync,
    policy: &RetryPolicy,
    cancel: Option<&CancelToken>,
) where
    T: Sync,
    U: Send,
    S: Send,
{
    assert_eq!(items.len(), out.len(), "items and outputs must align one-to-one");
    if items.is_empty() {
        return;
    }
    let workers = workers.clamp(1, items.len());
    while scratch.len() < workers {
        scratch.push(make_scratch());
    }
    let shard_len = shard_len(items.len(), workers, min_shard);
    let num_shards = items.len().div_ceil(shard_len);
    // Chaos actions are resolved on the calling thread (the plan is
    // thread-local) before any shard is handed to a pool worker.
    let seq = chaos::begin_dispatch();
    let actions: Vec<ChaosAction> = match seq {
        Some(seq) => (0..num_shards).map(|i| chaos::action_for(seq, i)).collect(),
        None => vec![ChaosAction::default(); num_shards],
    };

    counters().shard_dispatches.add(num_shards as u64);
    let failures: Mutex<Vec<ShardFailure>> = Mutex::new(Vec::new());
    if workers == 1 {
        run_shard_on_pool(
            &f,
            items,
            out,
            &mut scratch[0],
            actions[0],
            0,
            policy,
            cancel,
            &failures,
        );
    } else {
        let cursor = Mutex::new(items.chunks(shard_len).zip(out.chunks_mut(shard_len)).enumerate());
        let next_shard = || cursor.lock().expect("shard cursor poisoned").next();
        scope(|s| {
            for scratch in scratch.iter_mut().take(workers) {
                let (f, next_shard, failures, actions) = (&f, &next_shard, &failures, &actions);
                s.spawn(move |_| {
                    while let Some((i, (item_shard, out_shard))) = next_shard() {
                        run_shard_on_pool(
                            f, item_shard, out_shard, scratch, actions[i], i, policy, cancel,
                            failures,
                        );
                    }
                });
            }
        });
    }

    let mut failures = failures.into_inner().expect("failure list poisoned");
    if failures.is_empty() {
        return;
    }
    failures.sort_by_key(|fail| fail.shard);
    // Graceful degradation: every failed shard gets one more attempt on
    // the calling thread, serially, before the session is abandoned.
    let serial_attempt = policy.max_retries + 1;
    for fail in failures {
        if cancel.is_some_and(|c| c.is_cancelled()) {
            return;
        }
        counters().serial_degrades.inc();
        let item_shard =
            items.chunks(shard_len).nth(fail.shard).expect("failed shard index within the split");
        let out_shard =
            out.chunks_mut(shard_len).nth(fail.shard).expect("failed shard index within the split");
        let result = attempt(
            &f,
            item_shard,
            out_shard,
            &mut scratch[0],
            actions[fail.shard],
            serial_attempt,
        );
        if result.is_err() {
            counters().shard_panics.inc();
            panic::panic_any(ShardPanic {
                shard: fail.shard,
                attempts: serial_attempt + 1,
                payload: fail.payload,
            });
        }
    }
}

/// The pool-side attempt loop for one shard: try, retry with doubling
/// backoff, and on exhaustion record the first payload for the caller's
/// serial degrade pass.
#[allow(clippy::too_many_arguments)]
fn run_shard_on_pool<T, U, S>(
    f: &(impl Fn(&[T], &mut [U], &mut S) + Sync),
    items: &[T],
    out: &mut [U],
    scratch: &mut S,
    action: ChaosAction,
    shard: usize,
    policy: &RetryPolicy,
    cancel: Option<&CancelToken>,
    failures: &Mutex<Vec<ShardFailure>>,
) {
    let mut first_payload = None;
    for attempt_index in 0..=policy.max_retries {
        if attempt_index > 0 {
            counters().shard_retries.inc();
        }
        match attempt(f, items, out, scratch, action, attempt_index) {
            Ok(()) => return,
            Err(payload) => {
                if first_payload.is_none() {
                    first_payload = Some(payload);
                }
            }
        }
        if cancel.is_some_and(|c| c.is_cancelled()) {
            break;
        }
        if attempt_index < policy.max_retries {
            backoff_sleep(policy, attempt_index, shard, cancel);
        }
    }
    failures.lock().expect("failure list poisoned").push(ShardFailure {
        shard,
        payload: first_payload.expect("exhausted shard recorded no payload"),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::ChaosPlan;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Reference output for the shard closure used throughout.
    fn expected(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| i * 3 + 1).collect()
    }

    fn run_resilient(
        workers: usize,
        policy: &RetryPolicy,
        cancel: Option<&CancelToken>,
    ) -> Vec<u64> {
        let items: Vec<u64> = (0..257).collect();
        let mut out = vec![0u64; items.len()];
        let mut scratch: Vec<u64> = Vec::new();
        resilient_chunks_with_scratch(
            &items,
            &mut out,
            workers,
            None,
            &mut scratch,
            || 0,
            |items, out, count| {
                // Scratch is reused across retries: epoch-style reset
                // behaviour is modelled by overwriting out regardless.
                *count += 1;
                for (i, o) in items.iter().zip(out.iter_mut()) {
                    *o = i * 3 + 1;
                }
            },
            policy,
            cancel,
        );
        out
    }

    #[test]
    fn matches_plain_dispatch_without_chaos() {
        for workers in [1, 2, 3, 8] {
            assert_eq!(run_resilient(workers, &RetryPolicy::default(), None), expected(257));
        }
    }

    #[test]
    fn chunks_with_scratch_is_budget_invariant() {
        let items: Vec<u64> = (0..257).collect();
        let run = |workers: usize| {
            let mut out = vec![0u64; items.len()];
            let mut scratch: Vec<Vec<u64>> = Vec::new();
            resilient_chunks_with_scratch(
                &items,
                &mut out,
                workers,
                None,
                &mut scratch,
                Vec::new,
                |items, out, seen| {
                    for (i, o) in items.iter().zip(out.iter_mut()) {
                        seen.push(*i);
                        *o = i * 3 + 1;
                    }
                },
                &RetryPolicy::default(),
                None,
            );
            (out, scratch)
        };
        let (serial, serial_scratch) = run(1);
        assert_eq!(serial_scratch.len(), 1);
        for workers in [2, 3, 8, 300] {
            let (parallel, scratch) = run(workers);
            assert_eq!(parallel, serial, "{workers}-worker output differs");
            // Every item was visited exactly once across all workers.
            let visited: usize = scratch.iter().map(Vec::len).sum();
            assert_eq!(visited, items.len());
        }
    }

    #[test]
    fn chunks_with_scratch_reuses_scratch_across_calls() {
        let items = [0u8; 40];
        let mut out = [0u8; 40];
        let mut scratch: Vec<u32> = Vec::new();
        let mut builds = 0;
        let policy = RetryPolicy::default();
        resilient_chunks_with_scratch(
            &items,
            &mut out,
            4,
            None,
            &mut scratch,
            || 7,
            |_, _, _| {},
            &policy,
            None,
        );
        assert_eq!(scratch.len(), 4);
        resilient_chunks_with_scratch(
            &items,
            &mut out,
            4,
            None,
            &mut scratch,
            || {
                builds += 1;
                7
            },
            |_, _, _| {},
            &policy,
            None,
        );
        assert_eq!(builds, 0, "a second same-budget call must reuse the scratch");
    }

    #[test]
    #[should_panic(expected = "align")]
    fn chunks_with_scratch_rejects_misaligned_outputs() {
        let items = [1u8, 2];
        let mut out = [0u8; 3];
        let mut scratch: Vec<()> = Vec::new();
        resilient_chunks_with_scratch(
            &items,
            &mut out,
            2,
            None,
            &mut scratch,
            || (),
            |_, _, _| {},
            &RetryPolicy::default(),
            None,
        );
    }

    #[test]
    fn recovers_from_transient_shard_panic() {
        let policy = RetryPolicy { max_retries: 2, backoff: Duration::ZERO };
        let out = chaos::with_plan(ChaosPlan::new().panic_on(0, 1, 2), || {
            run_resilient(4, &policy, None)
        });
        assert_eq!(out, expected(257), "retried shard must produce correct output");
    }

    #[test]
    fn degrades_to_serial_after_repeated_failures() {
        let policy = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
        // fail_attempts = 2 kills both pool attempts; the serial
        // degrade (attempt index 2) succeeds.
        let out = chaos::with_plan(ChaosPlan::new().panic_on(0, 2, 2), || {
            run_resilient(4, &policy, None)
        });
        assert_eq!(out, expected(257), "degraded shard must produce correct output");
    }

    #[test]
    fn injected_delay_does_not_corrupt_results() {
        let out =
            chaos::with_plan(ChaosPlan::new().delay_on(0, 0, Duration::from_millis(5)), || {
                run_resilient(3, &RetryPolicy::default(), None)
            });
        assert_eq!(out, expected(257));
    }

    #[test]
    fn persistent_failure_raises_shard_panic_with_original_payload() {
        let policy = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            chaos::with_plan(ChaosPlan::new().panic_always(2, u32::MAX), || {
                run_resilient(4, &policy, None)
            });
        }))
        .expect_err("a permanently dead shard must raise");
        let shard_panic =
            caught.downcast::<ShardPanic>().expect("payload must be a ShardPanic naming the shard");
        assert_eq!(shard_panic.shard, 2, "shard identity must be preserved");
        assert_eq!(shard_panic.attempts, 3, "2 pool attempts + 1 serial degrade");
        assert_eq!(
            shard_panic.message(),
            Some(chaos::CHAOS_PANIC),
            "original panic payload must be preserved"
        );
    }

    #[test]
    fn real_panics_are_contained_and_retried_too() {
        // No chaos plan: a closure that panics by itself on its first
        // execution of the shard starting at item 32 still recovers.
        let items: Vec<u64> = (0..64).collect();
        let mut out = vec![0u64; items.len()];
        let mut scratch: Vec<()> = Vec::new();
        let failed = AtomicBool::new(false);
        let policy = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
        resilient_chunks_with_scratch(
            &items,
            &mut out,
            2,
            None,
            &mut scratch,
            || (),
            |items, out, ()| {
                if items[0] == 32 && !failed.swap(true, Ordering::Relaxed) {
                    panic!("flaky hardware");
                }
                for (i, o) in items.iter().zip(out.iter_mut()) {
                    *o = i + 1;
                }
            },
            &policy,
            None,
        );
        assert!(failed.load(Ordering::Relaxed), "the flaky shard must have run");
        assert_eq!(out, (1..=64).collect::<Vec<u64>>());
    }

    /// Shards outnumber workers (two workers pull eight shards here), and
    /// the shard stays the unit of recovery: chaos aimed at shard indices
    /// past the worker count retries, degrades or escalates exactly that
    /// shard.
    #[test]
    fn shards_past_the_worker_count_recover() {
        assert_eq!(257usize.div_ceil(shard_len(257, 2, None)), 8);
        let policy = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
        // Shard 5 fails once (retried on the pool); shard 7 fails both
        // pool attempts (degraded to the calling thread). The counters
        // are process-wide and only grow, so deltas hold under
        // concurrent tests.
        let (retries, degrades) =
            (counters().shard_retries.value(), counters().serial_degrades.value());
        let out = chaos::with_plan(ChaosPlan::new().panic_on(0, 5, 1).panic_on(0, 7, 2), || {
            run_resilient(2, &policy, None)
        });
        assert_eq!(out, expected(257), "retried and degraded shards must produce correct output");
        assert!(counters().shard_retries.value() >= retries + 2, "shards 5 and 7 retry");
        assert!(counters().serial_degrades.value() > degrades, "shard 7 degrades");
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            chaos::with_plan(ChaosPlan::new().panic_always(6, u32::MAX), || {
                run_resilient(2, &policy, None)
            });
        }))
        .expect_err("a permanently dead shard must raise");
        let shard_panic = caught.downcast::<ShardPanic>().expect("payload must be a ShardPanic");
        assert_eq!(shard_panic.shard, 6, "the shard index, not the worker, must be named");
    }

    #[test]
    fn retry_backoff_is_reproducible_and_jittered() {
        let policy = RetryPolicy { max_retries: 3, backoff: Duration::from_millis(4) };
        // Reproducible: identical inputs, identical delay — no RNG.
        for retry in 0..3 {
            for shard in 0..32 {
                assert_eq!(
                    retry_backoff(&policy, retry, shard),
                    retry_backoff(&policy, retry, shard),
                    "retry timing must be deterministic"
                );
            }
        }
        // Doubling base preserved: every delay lies in [base, 1.5·base).
        for retry in 0..3 {
            let base = policy.backoff * (1 << retry);
            for shard in 0..32 {
                let d = retry_backoff(&policy, retry, shard);
                assert!(d >= base, "shard {shard} retry {retry}: {d:?} < base {base:?}");
                assert!(
                    d < base + base / 2 + Duration::from_nanos(1),
                    "shard {shard} retry {retry}: {d:?} exceeds 1.5x base"
                );
            }
        }
        // Jittered: neighbouring shards must not share a delay.
        let delays: Vec<Duration> = (0..8).map(|s| retry_backoff(&policy, 0, s)).collect();
        for pair in delays.windows(2) {
            assert_ne!(pair[0], pair[1], "adjacent shards retry in lockstep");
        }
        // A zero-backoff policy stays zero (tests rely on instant retries).
        let zero = RetryPolicy { max_retries: 1, backoff: Duration::ZERO };
        assert_eq!(retry_backoff(&zero, 0, 5), Duration::ZERO);
    }

    #[test]
    fn fired_token_abandons_retries_without_panicking() {
        let token = CancelToken::new();
        token.cancel();
        let policy = RetryPolicy { max_retries: 3, backoff: Duration::from_secs(60) };
        // Every attempt of every shard fails; with the token fired the
        // dispatch must give up quickly (no backoff sleeps, no degrade,
        // no ShardPanic).
        chaos::with_plan(ChaosPlan::new().panic_always(0, u32::MAX), || {
            let _ = run_resilient(2, &policy, Some(&token));
        });
    }
}
