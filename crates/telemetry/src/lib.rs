//! Runtime telemetry for the serving stack.
//!
//! The paper positions the performance predictor as a *production
//! monitoring* component (§6.5 evaluates it as a continuous check on
//! serving batches), and a production monitor is only actionable together
//! with its surrounding evidence: per-batch statistics, counters, timings
//! and history. This crate supplies that layer for the whole workspace:
//!
//! * a lock-cheap [`Registry`] of named metrics — monotonic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket duration [`Histogram`]s, all backed by
//!   `AtomicU64` so the hot paths never block each other;
//! * a lightweight span API ([`Registry::span`] / the [`span!`] macro):
//!   a drop guard that records its lifetime into a duration histogram;
//! * serde snapshot export ([`TelemetrySnapshot`] ↔ JSON) plus a text
//!   renderer for examples and CI.
//!
//! # Determinism contract
//!
//! Counters and gauges written from seeded, logically-deterministic code
//! converge to the same totals on any thread schedule (atomic increments
//! commute). Two kinds of metric do *not*:
//!
//! * wall-clock data — histogram bucket counts and `sum_nanos` depend on
//!   machine speed;
//! * metrics registered as **volatile** (e.g. circuit-breaker transitions,
//!   which depend on how concurrent calls interleave, and fsync
//!   latencies).
//!
//! [`TelemetrySnapshot::deterministic`] strips exactly those two kinds
//! (volatile metrics are dropped; histograms keep their call `count` —
//! which *is* deterministic — and zero the wall-clock fields), so a seeded
//! end-to-end run produces a bit-identical deterministic view across runs
//! and thread counts. `tests/telemetry.rs` pins that property.
//!
//! # Overhead
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s around
//! atomics: resolving a name takes a `RwLock` read and a map lookup, and
//! every *recording* operation after that is one or two relaxed atomic
//! RMWs. Hot loops resolve handles once up front (see
//! `lvp_core::engine`); the measured overhead of full instrumentation on
//! the Algorithm 1 generation loop is below 1% (EXPERIMENTS.md).

mod registry;
mod snapshot;

pub use registry::{
    Counter, Gauge, Histogram, Registry, Span, DURATION_BUCKET_BOUNDS_NANOS, DURATION_BUCKET_COUNT,
};
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot};

/// Starts a [`Span`] recording into `registry`'s duration histogram
/// `name`; the elapsed time is recorded when the guard drops.
///
/// ```
/// use lvp_telemetry::{span, Registry};
/// let registry = Registry::new();
/// {
///     let _guard = span!(registry, "alg1.generate");
///     // ... timed work ...
/// }
/// assert_eq!(registry.snapshot().histograms["alg1.generate"].count, 1);
/// ```
#[macro_export]
macro_rules! span {
    ($registry:expr, $name:expr) => {
        $registry.span($name)
    };
}
