//! Serializable point-in-time views of a [`Registry`](crate::Registry).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A point-in-time copy of one duration histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of recorded observations (deterministic for seeded runs —
    /// one per span, regardless of how long each span took).
    pub count: u64,
    /// Sum of all recorded durations in nanoseconds (wall-clock data).
    pub sum_nanos: u64,
    /// Per-bucket observation counts, aligned with
    /// [`DURATION_BUCKET_BOUNDS_NANOS`](crate::DURATION_BUCKET_BOUNDS_NANOS)
    /// plus a final overflow bucket (wall-clock data).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Sum of the per-bucket counts; always equals [`Self::count`] for a
    /// snapshot of a quiescent registry.
    pub fn bucket_total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded duration in nanoseconds (0 when empty).
    pub fn mean_nanos(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_nanos as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every metric in a registry, exported via serde.
///
/// The maps are `BTreeMap`s, so field order — and therefore the JSON text —
/// is deterministic given deterministic contents.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Monotonic counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-set gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Duration histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Names of counters/gauges/histograms whose values are scheduling-
    /// or configuration-dependent (e.g. circuit-breaker transitions, fsync
    /// latency); sorted. These are excluded from [`Self::deterministic`].
    pub volatile: Vec<String>,
}

impl TelemetrySnapshot {
    /// The schedule- and wall-clock-independent view: volatile metrics are
    /// dropped and histograms keep only their (deterministic) observation
    /// `count`. For a seeded run this view is bit-identical across repeat
    /// runs and thread counts.
    pub fn deterministic(&self) -> TelemetrySnapshot {
        let is_volatile = |name: &String| self.volatile.binary_search(name).is_ok();
        TelemetrySnapshot {
            counters: self
                .counters
                .iter()
                .filter(|(name, _)| !is_volatile(name))
                .map(|(name, &v)| (name.clone(), v))
                .collect(),
            gauges: self
                .gauges
                .iter()
                .filter(|(name, _)| !is_volatile(name))
                .map(|(name, &v)| (name.clone(), v))
                .collect(),
            histograms: self
                .histograms
                .iter()
                .filter(|(name, _)| !is_volatile(name))
                .map(|(name, h)| {
                    (
                        name.clone(),
                        HistogramSnapshot {
                            count: h.count,
                            sum_nanos: 0,
                            buckets: Vec::new(),
                        },
                    )
                })
                .collect(),
            volatile: Vec::new(),
        }
    }

    /// Serializes the snapshot to a JSON string.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parses a snapshot back from [`Self::to_json`] output.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }

    /// Renders a human-readable table (counters, gauges, then histograms
    /// with count/mean), for examples and CI logs.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (name, v) in &self.counters {
            let tag = if self.volatile.binary_search(name).is_ok() {
                "  (volatile)"
            } else {
                ""
            };
            let _ = writeln!(out, "counter    {name:<width$}  {v}{tag}");
        }
        for (name, v) in &self.gauges {
            let tag = if self.volatile.binary_search(name).is_ok() {
                "  (volatile)"
            } else {
                ""
            };
            let _ = writeln!(out, "gauge      {name:<width$}  {v:.6}{tag}");
        }
        for (name, h) in &self.histograms {
            let tag = if self.volatile.binary_search(name).is_ok() {
                "  (volatile)"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "histogram  {name:<width$}  count={} mean={:.1}µs{tag}",
                h.count,
                h.mean_nanos() / 1_000.0,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn populated() -> Registry {
        let r = Registry::new();
        r.counter("engine.batches").add(7);
        r.gauge("monitor.smoothed").set(0.8125);
        r.volatile_counter("cache.hits").add(3);
        r.histogram("observe").record_nanos(1_234);
        r.histogram("observe").record_nanos(5_000_000_000_000);
        r
    }

    #[test]
    fn json_round_trip_is_exact() {
        let snap = populated().snapshot();
        let json = snap.to_json().unwrap();
        assert_eq!(TelemetrySnapshot::from_json(&json).unwrap(), snap);
    }

    #[test]
    fn volatile_histograms_are_dropped_from_the_deterministic_view() {
        let r = Registry::new();
        r.volatile_histogram("journal.fsync").record_nanos(1_000);
        r.histogram("observe").record_nanos(2_000);
        let snap = r.snapshot();
        assert_eq!(snap.volatile, vec!["journal.fsync"]);
        assert!(snap.render_text().contains("journal.fsync"));
        let det = snap.deterministic();
        // An ordinary histogram keeps its (deterministic) count; a
        // volatile one — whose count depends on configuration such as the
        // fsync policy — disappears entirely.
        assert_eq!(det.histograms["observe"].count, 1);
        assert!(!det.histograms.contains_key("journal.fsync"));
    }

    #[test]
    fn deterministic_view_strips_wall_clock_and_volatile_data() {
        let snap = populated().snapshot();
        let det = snap.deterministic();
        assert!(!det.counters.contains_key("cache.hits"));
        assert_eq!(det.counters["engine.batches"], 7);
        assert_eq!(det.gauges["monitor.smoothed"], 0.8125);
        let h = &det.histograms["observe"];
        assert_eq!((h.count, h.sum_nanos), (2, 0));
        assert!(h.buckets.is_empty());
        assert!(det.volatile.is_empty());
        // Idempotent.
        assert_eq!(det.deterministic(), det);
    }

    #[test]
    fn render_text_lists_every_metric() {
        let text = populated().snapshot().render_text();
        for needle in [
            "engine.batches",
            "monitor.smoothed",
            "cache.hits",
            "(volatile)",
            "observe",
            "count=2",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn bucket_total_matches_count() {
        let snap = populated().snapshot();
        let h = &snap.histograms["observe"];
        assert_eq!(h.bucket_total(), h.count);
        assert!(h.mean_nanos() > 0.0);
        assert_eq!(HistogramSnapshot::default().mean_nanos(), 0.0);
    }
}
