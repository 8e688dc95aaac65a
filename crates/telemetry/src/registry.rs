//! The metrics registry and its handle types.

use crate::snapshot::{HistogramSnapshot, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// Upper bounds (inclusive, in nanoseconds) of the fixed duration-histogram
/// buckets: a 1–5–10 ladder from 1µs to 5s. Durations above the last bound
/// land in a final overflow bucket.
pub const DURATION_BUCKET_BOUNDS_NANOS: [u64; 14] = [
    1_000,
    5_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    5_000_000,
    10_000_000,
    50_000_000,
    100_000_000,
    500_000_000,
    1_000_000_000,
    5_000_000_000,
];

/// Total bucket count: one per bound plus the overflow bucket.
pub const DURATION_BUCKET_COUNT: usize = DURATION_BUCKET_BOUNDS_NANOS.len() + 1;

/// A monotonic counter handle. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge handle storing an `f64` (as raw bits in an
/// `AtomicU64`). Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

struct HistogramCore {
    buckets: [AtomicU64; DURATION_BUCKET_COUNT],
    count: AtomicU64,
    sum_nanos: AtomicU64,
}

/// A fixed-bucket duration histogram handle (bounds in
/// [`DURATION_BUCKET_BOUNDS_NANOS`]). Cloning shares the underlying cells.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one duration.
    pub fn record(&self, duration: Duration) {
        // A single observation beyond ~584 years saturates rather than
        // wrapping; durations that long are already nonsense.
        self.record_nanos(u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Records one duration given in nanoseconds.
    pub fn record_nanos(&self, nanos: u64) {
        let idx = DURATION_BUCKET_BOUNDS_NANOS
            .iter()
            .position(|&bound| nanos <= bound)
            .unwrap_or(DURATION_BUCKET_BOUNDS_NANOS.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.0.count.load(Ordering::Relaxed),
            sum_nanos: self.0.sum_nanos.load(Ordering::Relaxed),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A drop guard that records its lifetime into a duration [`Histogram`].
pub struct Span {
    histogram: Histogram,
    start: Instant,
}

impl Span {
    /// Starts timing into `histogram`.
    pub fn new(histogram: Histogram) -> Self {
        Self {
            histogram,
            start: Instant::now(),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.histogram.record(self.start.elapsed());
    }
}

enum Metric {
    Counter { cell: Counter, volatile: bool },
    Gauge { cell: Gauge, volatile: bool },
    Histogram { cell: Histogram, volatile: bool },
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter { .. } => "counter",
            Metric::Gauge { .. } => "gauge",
            Metric::Histogram { .. } => "histogram",
        }
    }
}

/// A lock-cheap registry of named metrics.
///
/// Registration (name → handle) takes a `RwLock`; recording through a
/// resolved handle is pure atomics. Hot loops should resolve their handles
/// once and reuse them. Names are free-form; the workspace uses
/// `component.metric` dotted paths (`engine.batches_generated`,
/// `monitor.smoothed_score`, …).
///
/// Looking a name up again returns a handle to the *same* cell; asking for
/// an existing name with a different metric kind panics — that is a
/// programming error, not a runtime condition.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Read access to the metric map, recovering a poisoned lock.
    ///
    /// Every value in the map is a bag of atomics that is valid at all
    /// times — a panic while the lock was held cannot leave the map
    /// half-updated in any way that matters to readers — so a metrics
    /// thread that panicked must not take the whole daemon's telemetry
    /// down with it.
    fn read_metrics(&self) -> RwLockReadGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write access to the metric map, recovering a poisoned lock (see
    /// [`Self::read_metrics`]).
    fn write_metrics(&self) -> RwLockWriteGuard<'_, BTreeMap<String, Metric>> {
        self.metrics.write().unwrap_or_else(PoisonError::into_inner)
    }

    fn resolve<H: Clone>(
        &self,
        name: &str,
        match_existing: impl Fn(&Metric) -> Option<H>,
        create: impl FnOnce() -> (Metric, H),
    ) -> H {
        {
            let metrics = self.read_metrics();
            if let Some(metric) = metrics.get(name) {
                if let Some(handle) = match_existing(metric) {
                    return handle;
                }
                // Kind mismatch: fall through to the write path so the
                // panic below is the single authoritative check.
            }
        }
        let mut metrics = self.write_metrics();
        // Racing registrations (and read-path mismatches): re-check under
        // the write lock.
        if let Some(metric) = metrics.get(name) {
            return match_existing(metric).unwrap_or_else(|| {
                panic!(
                    "metric '{name}' is already registered as a {}",
                    metric.kind()
                )
            });
        }
        let (metric, handle) = create();
        metrics.insert(name.to_string(), metric);
        handle
    }

    fn counter_with(&self, name: &str, volatile: bool) -> Counter {
        self.resolve(
            name,
            |m| match m {
                Metric::Counter { cell, .. } => Some(cell.clone()),
                _ => None,
            },
            || {
                let cell = Counter(Arc::new(AtomicU64::new(0)));
                (
                    Metric::Counter {
                        cell: cell.clone(),
                        volatile,
                    },
                    cell,
                )
            },
        )
    }

    fn gauge_with(&self, name: &str, volatile: bool) -> Gauge {
        self.resolve(
            name,
            |m| match m {
                Metric::Gauge { cell, .. } => Some(cell.clone()),
                _ => None,
            },
            || {
                let cell = Gauge(Arc::new(AtomicU64::new(0f64.to_bits())));
                (
                    Metric::Gauge {
                        cell: cell.clone(),
                        volatile,
                    },
                    cell,
                )
            },
        )
    }

    /// Gets or registers the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, false)
    }

    /// Gets or registers a counter whose value is scheduling-dependent
    /// (dropped by [`TelemetrySnapshot::deterministic`]).
    pub fn volatile_counter(&self, name: &str) -> Counter {
        self.counter_with(name, true)
    }

    /// Gets or registers the gauge `name` (initial value 0.0).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, false)
    }

    /// Gets or registers a gauge whose value is scheduling-dependent
    /// (dropped by [`TelemetrySnapshot::deterministic`]).
    pub fn volatile_gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, true)
    }

    fn histogram_with(&self, name: &str, volatile: bool) -> Histogram {
        self.resolve(
            name,
            |m| match m {
                Metric::Histogram { cell, .. } => Some(cell.clone()),
                _ => None,
            },
            || {
                let cell = Histogram(Arc::new(HistogramCore {
                    buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    count: AtomicU64::new(0),
                    sum_nanos: AtomicU64::new(0),
                }));
                (
                    Metric::Histogram {
                        cell: cell.clone(),
                        volatile,
                    },
                    cell,
                )
            },
        )
    }

    /// Gets or registers the duration histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, false)
    }

    /// Gets or registers a duration histogram whose very observation
    /// *count* is scheduling- or configuration-dependent — e.g. fsync
    /// latency, where the count depends on the fsync policy — so
    /// [`TelemetrySnapshot::deterministic`] drops it entirely (ordinary
    /// histograms keep their deterministic count).
    pub fn volatile_histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, true)
    }

    /// A point-in-time copy of every metric. Atomic loads are relaxed, so
    /// a snapshot taken while writers are active is advisory; snapshots of
    /// a quiescent registry are exact.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let metrics = self.read_metrics();
        let mut snap = TelemetrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter { cell, volatile } => {
                    snap.counters.insert(name.clone(), cell.get());
                    if *volatile {
                        snap.volatile.push(name.clone());
                    }
                }
                Metric::Gauge { cell, volatile } => {
                    snap.gauges.insert(name.clone(), cell.get());
                    if *volatile {
                        snap.volatile.push(name.clone());
                    }
                }
                Metric::Histogram { cell, volatile } => {
                    snap.histograms.insert(name.clone(), cell.snapshot());
                    if *volatile {
                        snap.volatile.push(name.clone());
                    }
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let metrics = self.read_metrics();
        f.debug_struct("Registry")
            .field("metrics", &metrics.keys().collect::<Vec<_>>())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_cells() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(4);
        assert_eq!(r.counter("x").get(), 5);
        assert_eq!(r.snapshot().counters["x"], 5);
    }

    #[test]
    fn gauges_store_last_value() {
        let r = Registry::new();
        let g = r.gauge("score");
        assert_eq!(g.get(), 0.0);
        g.set(0.75);
        g.set(-1.5);
        assert_eq!(r.snapshot().gauges["score"], -1.5);
    }

    #[test]
    fn histogram_buckets_total_the_count() {
        let r = Registry::new();
        let h = r.histogram("latency");
        h.record_nanos(500); // first bucket (≤ 1µs)
        h.record_nanos(1_000); // boundary is inclusive
        h.record_nanos(2_000_000); // ≤ 5ms bucket
        h.record_nanos(u64::MAX); // overflow bucket
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
        assert_eq!(snap.buckets[0], 2);
        assert_eq!(snap.buckets[DURATION_BUCKET_COUNT - 1], 1);
        assert_eq!(snap.buckets.len(), DURATION_BUCKET_COUNT);
    }

    #[test]
    fn span_records_into_histogram() {
        let r = Registry::new();
        for _ in 0..2 {
            let _guard = Span::new(r.histogram("work"));
        }
        assert_eq!(r.histogram("work").count(), 2);
        assert!(r.snapshot().histograms["work"].sum_nanos > 0);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let r = Registry::new();
        r.counter("x").inc();
        // A kind mismatch panics under the *write* lock, poisoning it —
        // exactly what a panicking metrics thread does to the registry.
        let mismatch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.gauge("x")));
        assert!(mismatch.is_err(), "kind mismatch must still panic");
        // Pre-fix, every one of these calls died on `.expect("registry
        // lock")`. The map itself is still valid (all values are atomics),
        // so resolution, registration, snapshots and Debug must all keep
        // working.
        r.counter("x").inc();
        r.counter("y").add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counters["x"], 2);
        assert_eq!(snap.counters["y"], 3);
        assert!(!format!("{r:?}").is_empty());
    }

    #[test]
    fn volatile_metrics_are_listed() {
        let r = Registry::new();
        r.volatile_counter("cache.hits").inc();
        r.volatile_gauge("cache.entries").set(3.0);
        r.counter("batches").inc();
        let snap = r.snapshot();
        assert_eq!(snap.volatile, vec!["cache.entries", "cache.hits"]);
    }

    #[test]
    fn concurrent_increments_converge() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let c = r.counter("n");
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("n").get(), 8000);
    }
}
