//! The metric primitives: registry, counters, gauges, log2-bucketed
//! histograms, and scoped span timers.

use crate::export::{HistogramSnapshot, Snapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Histogram buckets: `{0}` plus one bucket per power of two —
/// bucket `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]` (bucket 64 runs
/// to `u64::MAX`). Every `u64` lands in exactly one bucket.
pub const NUM_BUCKETS: usize = 65;

/// The bucket index `value` lands in: 0 for 0, else the position of the
/// highest set bit plus one (`64 - leading_zeros`).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The largest value bucket `index` holds: 0, 1, 3, 7, … , `u64::MAX`.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[inline]
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    match index {
        0 => 0,
        64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// One counter's value, wrapping on overflow. A single atomic: no hot
/// path has two threads adding to one counter (graders flush once per
/// batch, each pool worker owns its own counter, and the dispatching
/// thread bumps the resilience counters).
#[derive(Debug, Default)]
struct CounterCell(AtomicU64);

#[derive(Debug, Default)]
struct GaugeCell(AtomicI64);

#[derive(Debug)]
struct HistoCell {
    buckets: [AtomicU64; NUM_BUCKETS],
    /// Wrapping sum of every recorded value.
    sum: AtomicU64,
}

impl Default for HistoCell {
    fn default() -> Self {
        HistoCell { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

impl HistoCell {
    #[inline]
    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// A monotonic counter handle. Cloning shares the underlying cell; the
/// default handle (and any handle from a disabled registry) is a no-op.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// A handle that records nothing (what disabled registries return).
    pub fn noop() -> Self {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.0.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Current value; 0 for a no-op handle.
    pub fn value(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.0.load(Ordering::Relaxed))
    }
}

/// A point-in-time signed gauge handle (queue depths, in-flight work).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(cell) = &self.cell {
            cell.0.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        if let Some(cell) = &self.cell {
            cell.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value; 0 for a no-op handle.
    pub fn value(&self) -> i64 {
        self.cell.as_ref().map_or(0, |c| c.0.load(Ordering::Relaxed))
    }
}

/// A log2-bucketed `u64` distribution handle. Records are lock-free;
/// the sum wraps on overflow (it is diagnostic, not identity, data).
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    cell: Option<Arc<HistoCell>>,
}

impl Histogram {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Histogram::default()
    }

    /// Whether records actually land anywhere.
    pub fn is_enabled(&self) -> bool {
        self.cell.is_some()
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(cell) = &self.cell {
            cell.record(v);
        }
    }

    /// Starts a scoped span: the guard records the elapsed nanoseconds
    /// into this histogram when dropped. On a no-op handle the clock is
    /// never read.
    #[inline]
    pub fn start(&self) -> Span {
        Span { started: self.cell.as_ref().map(|c| (Arc::clone(c), Instant::now())) }
    }

    /// Total records; 0 for a no-op handle.
    pub fn count(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| {
            c.buckets.iter().map(|b| b.load(Ordering::Relaxed)).fold(0, u64::wrapping_add)
        })
    }

    /// Wrapping sum of recorded values; 0 for a no-op handle.
    pub fn sum(&self) -> u64 {
        self.cell.as_ref().map_or(0, |c| c.sum.load(Ordering::Relaxed))
    }
}

/// Scoped timer returned by [`Histogram::start`]: drop (or
/// [`Span::stop`]) records the elapsed nanoseconds, saturated to
/// `u64::MAX`.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    started: Option<(Arc<HistoCell>, Instant)>,
}

impl Span {
    /// Ends the span now (equivalent to dropping it).
    pub fn stop(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cell, start)) = self.started.take() {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            cell.record(ns);
        }
    }
}

#[derive(Debug)]
enum MetricCell {
    Counter(Arc<CounterCell>),
    Gauge(Arc<GaugeCell>),
    Histogram(Arc<HistoCell>),
}

#[derive(Debug)]
struct RegistryInner {
    enabled: bool,
    /// Name → cell. Only locked at registration and snapshot time —
    /// never on the record path.
    metrics: Mutex<BTreeMap<String, MetricCell>>,
}

/// A named-metric registry. Cloning shares the registry (handles and
/// snapshots of either clone see the same metrics).
///
/// Metric names may use ASCII alphanumerics plus `.`, `_` and `-`
/// (checked at registration) so both exporters can emit them verbatim.
/// Registering the same name twice returns a handle onto the same cell;
/// re-registering it as a *different* kind panics.
#[derive(Clone, Debug)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An enabled registry: handles record, snapshots export.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner { enabled: true, metrics: Mutex::new(BTreeMap::new()) }),
        }
    }

    /// A disabled registry: every handle it returns is a no-op and its
    /// snapshot is empty. The near-zero-cost mode for callers that
    /// don't export telemetry.
    pub fn disabled() -> Self {
        Registry {
            inner: Arc::new(RegistryInner { enabled: false, metrics: Mutex::new(BTreeMap::new()) }),
        }
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled
    }

    fn validate(name: &str) {
        assert!(
            !name.is_empty()
                && name
                    .bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-'),
            "metric name {name:?} must be non-empty ASCII alphanumerics plus '.', '_', '-'"
        );
    }

    /// Registers (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.inner.enabled {
            return Counter::noop();
        }
        Self::validate(name);
        let mut map = self.inner.metrics.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| MetricCell::Counter(Arc::new(CounterCell::default())));
        match cell {
            MetricCell::Counter(c) => Counter { cell: Some(Arc::clone(c)) },
            _ => panic!("metric {name:?} is already registered as a non-counter"),
        }
    }

    /// Registers (or retrieves) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        if !self.inner.enabled {
            return Gauge::noop();
        }
        Self::validate(name);
        let mut map = self.inner.metrics.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| MetricCell::Gauge(Arc::new(GaugeCell::default())));
        match cell {
            MetricCell::Gauge(g) => Gauge { cell: Some(Arc::clone(g)) },
            _ => panic!("metric {name:?} is already registered as a non-gauge"),
        }
    }

    /// Registers (or retrieves) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.inner.enabled {
            return Histogram::noop();
        }
        Self::validate(name);
        let mut map = self.inner.metrics.lock().expect("registry poisoned");
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| MetricCell::Histogram(Arc::new(HistoCell::default())));
        match cell {
            MetricCell::Histogram(h) => Histogram { cell: Some(Arc::clone(h)) },
            _ => panic!("metric {name:?} is already registered as a non-histogram"),
        }
    }

    /// Freezes every metric into a [`Snapshot`] (empty for a disabled
    /// registry). Values are read relaxed: a snapshot taken mid-run is
    /// a consistent-enough monitoring view, not a barrier.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        let map = self.inner.metrics.lock().expect("registry poisoned");
        for (name, cell) in map.iter() {
            match cell {
                MetricCell::Counter(c) => {
                    snap.counters.push((name.clone(), c.0.load(Ordering::Relaxed)));
                }
                MetricCell::Gauge(g) => {
                    snap.gauges.push((name.clone(), g.0.load(Ordering::Relaxed)));
                }
                MetricCell::Histogram(h) => {
                    let mut buckets = Vec::new();
                    let mut count = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        let n = b.load(Ordering::Relaxed);
                        if n > 0 {
                            buckets.push((i as u32, n));
                            count = count.wrapping_add(n);
                        }
                    }
                    snap.histograms.push(HistogramSnapshot {
                        name: name.clone(),
                        count,
                        sum: h.sum.load(Ordering::Relaxed),
                        buckets,
                    });
                }
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_clones_and_names() {
        let r = Registry::new();
        let a = r.counter("x.hits");
        let b = r.counter("x.hits");
        a.add(3);
        b.inc();
        assert_eq!(a.value(), 4);
        assert_eq!(r.snapshot().counter("x.hits"), Some(4));
    }

    #[test]
    fn counters_sum_across_threads() {
        let r = Registry::new();
        let c = r.counter("threads.total");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn gauges_set_and_add() {
        let r = Registry::new();
        let g = r.gauge("queue.depth");
        g.set(5);
        g.add(-2);
        assert_eq!(g.value(), 3);
        assert_eq!(r.snapshot().gauge("queue.depth"), Some(3));
    }

    #[test]
    fn histogram_records_and_spans() {
        let r = Registry::new();
        let h = r.histogram("latency_ns");
        h.record(0);
        h.record(1);
        h.record(1024);
        {
            let _span = h.start();
        }
        assert_eq!(h.count(), 4);
        assert!(h.sum() >= 1025);
        let snap = r.snapshot();
        let hs = snap.histogram("latency_ns").unwrap();
        assert_eq!(hs.count, 4);
        // 0 → bucket 0, 1 → bucket 1, 1024 → bucket 11.
        assert!(hs.buckets.iter().any(|&(i, n)| i == 0 && n == 1));
        assert!(hs.buckets.iter().any(|&(i, n)| i == 1 && n >= 1));
        assert!(hs.buckets.iter().any(|&(i, n)| i == 11 && n == 1));
    }

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        assert!(!r.is_enabled());
        let c = r.counter("never");
        let g = r.gauge("never");
        let h = r.histogram("never");
        c.add(7);
        g.set(7);
        h.record(7);
        let _span = h.start();
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        assert!(!h.is_enabled());
        let snap = r.snapshot();
        assert!(snap.counters.is_empty() && snap.gauges.is_empty() && snap.histograms.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_conflicts_panic() {
        let r = Registry::new();
        let _ = r.gauge("same.name");
        let _ = r.counter("same.name");
    }

    #[test]
    #[should_panic(expected = "metric name")]
    fn invalid_names_panic() {
        let _ = Registry::new().counter("no spaces allowed");
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }
}
