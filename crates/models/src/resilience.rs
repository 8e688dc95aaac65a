//! Fault tolerance for the remote serving path.
//!
//! The paper's capstone experiment (§6.3.2) validates a model hosted by a
//! third-party cloud service, and related work on assessing black-box
//! models under query budgets presupposes a client layer that survives
//! flaky, metered endpoints. This module supplies that layer:
//!
//! * [`ResilientModel`] wraps any [`BlackBoxModel`] with retry + seeded
//!   exponential backoff under a per-call attempt budget, a circuit
//!   breaker (closed → open → half-open), and a response validator that
//!   rejects malformed probability matrices at the trust boundary;
//! * [`backoff_nanos`] is the one jittered exponential backoff rule, shared
//!   by the client's retries and the `lvpd` daemon's retry-after hints;
//! * [`VirtualClock`] replaces wall-clock time everywhere, so backoff
//!   schedules and breaker cooldowns are exactly reproducible in tests and
//!   chaos runs — "sleeping" advances the clock instead of blocking a
//!   thread;
//! * [`validate_probability_matrix`] is the shared contract check, also
//!   enforced at the [`RemoteModel`](crate::cloud::RemoteModel) boundary
//!   for non-resilient callers.
//!
//! # Determinism
//!
//! Nothing here reads ambient time or randomness. Backoff jitter is a pure
//! function of `(request key, attempt)`, where the request key
//! ([`frame_content_key`]) hashes the batch *content* — not its arrival
//! order — so the retry schedule of a given logical request is identical
//! at any thread count. Circuit-breaker state, by contrast,
//! depends on the *interleaving* of call outcomes across threads, so its
//! metrics are registered as volatile and excluded from deterministic
//! telemetry views.

use crate::{BlackBoxModel, ModelError, ModelErrorKind};
use lvp_dataframe::{derive_seed, mix64, unit_draw, Column, DataFrame, Fnv1a};
use lvp_linalg::DenseMatrix;
use lvp_telemetry::{Counter, Gauge, Histogram, Registry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically advancing virtual clock in nanoseconds, shared between
/// a fault-injecting service (simulated latency) and the resilience layer
/// (backoff, breaker cooldowns). Cloning shares the underlying cell.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock(Arc<AtomicU64>);

impl VirtualClock {
    /// A clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Advances the clock (a virtual "sleep" or simulated latency).
    pub fn advance(&self, nanos: u64) {
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }
}

/// Base of the exponential backoff: 10 virtual ms.
const BASE_BACKOFF_NANOS: u64 = 10_000_000;
/// Cap on the un-jittered exponential backoff: 1 virtual s.
const MAX_BACKOFF_NANOS: u64 = 1_000_000_000;
/// Seed of the [`ResilientModel`] backoff jitter.
const JITTER_SEED: u64 = 0x5EED_1E55;

/// Jittered exponential backoff before retry `attempt` (1-based):
/// `min(10 ms · 2^(attempt−1), 1 s) · (0.5 + unit_draw(draw))`, in
/// virtual nanoseconds. A pure function of its inputs, so a caller that
/// derives `draw` from stable keys gets the same schedule on every run and
/// at any thread count.
pub fn backoff_nanos(attempt: u32, draw: u64) -> u64 {
    let raw = BASE_BACKOFF_NANOS
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(62))
        .min(MAX_BACKOFF_NANOS);
    (raw as f64 * (0.5 + unit_draw(draw))) as u64
}

/// Content key of a batch request: an FNV-1a hash over the frame's schema
/// fingerprint, labels and every cell value.
///
/// Fault plans and backoff jitter key on this instead of a request arrival
/// counter, so the fault/retry schedule of a logical request does not
/// depend on how rayon interleaves requests across threads.
pub fn frame_content_key(frame: &DataFrame) -> u64 {
    let mut hash = Fnv1a::new(frame.schema().fingerprint());
    hash.write(&(frame.n_rows() as u64).to_le_bytes());
    for &label in frame.labels() {
        hash.write(&u64::from(label).to_le_bytes());
    }
    let eat_opt_f64 = |hash: &mut Fnv1a, v: Option<f64>| {
        hash.write(&v.map_or(u64::MAX, f64::to_bits).to_le_bytes());
    };
    let eat_opt_str = |hash: &mut Fnv1a, v: Option<&str>| match v {
        None => hash.write_u8(0xFF),
        Some(s) => {
            hash.write(s.as_bytes());
            hash.write_u8(0xFE);
        }
    };
    for col in 0..frame.n_cols() {
        match frame.column(col) {
            Column::Numeric(values) => {
                for &v in values {
                    eat_opt_f64(&mut hash, v);
                }
            }
            // Decoded values, never codes: a frame's key must not depend on
            // its dictionary, which copies of the same cells may order
            // differently.
            Column::Categorical(values) => {
                for v in values.iter() {
                    eat_opt_str(&mut hash, v);
                }
            }
            Column::Text(values) => {
                for v in values {
                    eat_opt_str(&mut hash, v.as_deref());
                }
            }
            Column::Image(values) => {
                for v in values {
                    match v {
                        None => eat_opt_f64(&mut hash, None),
                        Some(img) => {
                            eat_opt_f64(&mut hash, Some(img.width as f64));
                            eat_opt_f64(&mut hash, Some(img.height as f64));
                            for &px in &img.pixels {
                                eat_opt_f64(&mut hash, Some(px));
                            }
                        }
                    }
                }
            }
        }
    }
    mix64(hash.finish())
}

/// Row-sum tolerance of [`validate_probability_matrix`]. Softmax and
/// logistic outputs normalize to well within this; corrupted rows (scaled,
/// non-finite) are far outside it.
pub const ROW_SUM_TOLERANCE: f64 = 1e-4;

/// Checks a prediction response against the probability contract: the
/// matrix must have exactly `expected_rows × n_classes` entries, every
/// entry must be finite and in `[0, 1]` (within tolerance), and every row
/// must sum to 1 within [`ROW_SUM_TOLERANCE`].
///
/// This is the trust boundary between a remote service and the predictor:
/// a malformed response becomes a typed, retryable
/// [`ModelErrorKind::InvalidResponse`] instead of garbage flowing into
/// `prediction_statistics`.
pub fn validate_probability_matrix(
    proba: &DenseMatrix,
    expected_rows: usize,
    n_classes: usize,
) -> Result<(), ModelError> {
    if proba.rows() != expected_rows {
        return Err(ModelError::invalid_response(format!(
            "truncated response: {} rows returned for a {expected_rows}-row request",
            proba.rows()
        )));
    }
    if proba.cols() != n_classes {
        return Err(ModelError::invalid_response(format!(
            "response has {} class columns, expected {n_classes}",
            proba.cols()
        )));
    }
    for (i, row) in proba.row_iter().enumerate() {
        let mut sum = 0.0;
        for &p in row {
            if !p.is_finite() || !(-ROW_SUM_TOLERANCE..=1.0 + ROW_SUM_TOLERANCE).contains(&p) {
                return Err(ModelError::invalid_response(format!(
                    "corrupted response: row {i} contains probability {p}"
                )));
            }
            sum += p;
        }
        if (sum - 1.0).abs() > ROW_SUM_TOLERANCE {
            return Err(ModelError::invalid_response(format!(
                "corrupted response: row {i} sums to {sum}"
            )));
        }
    }
    Ok(())
}

/// Circuit breaker configuration of a [`CircuitBreaker`].
///
/// The breaker watches *call-level* outcomes (a call that exhausts its
/// retry budget counts as one failure; a successful call resets the run),
/// not individual attempt failures — concurrent callers would otherwise
/// interleave their attempt failures into spuriously long runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive terminally-failed calls that trip the breaker open.
    pub failure_threshold: u32,
    /// Virtual nanoseconds the breaker stays open before admitting
    /// half-open probe calls.
    pub cooldown_nanos: u64,
    /// Successful half-open probes required to close the breaker again.
    pub half_open_successes: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            failure_threshold: 5,
            cooldown_nanos: 30_000_000_000, // 30 virtual seconds
            half_open_successes: 2,
        }
    }
}

/// Retry and breaker knobs of a [`ResilientModel`]. The backoff before
/// each retry is [`backoff_nanos`], jittered per request key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilienceConfig {
    /// Attempts per call before it fails terminally (≥ 1).
    pub max_attempts: u32,
    /// Circuit breaker policy.
    pub breaker: BreakerConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            breaker: BreakerConfig::default(),
        }
    }
}

/// State of a [`CircuitBreaker`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CircuitState {
    /// Calls flow through; consecutive terminal failures are counted.
    #[default]
    Closed,
    /// Calls are rejected without touching the endpoint until the cooldown
    /// elapses on the virtual clock.
    Open,
    /// Probe calls are admitted; enough successes close the breaker, any
    /// failure re-opens it.
    HalfOpen,
}

impl CircuitState {
    /// Numeric encoding for breaker-state gauges: 0 closed, 1 open,
    /// 2 half-open.
    pub fn gauge_value(self) -> f64 {
        match self {
            CircuitState::Closed => 0.0,
            CircuitState::Open => 1.0,
            CircuitState::HalfOpen => 2.0,
        }
    }
}

/// The closed → open → half-open state machine behind both the
/// [`ResilientModel`] client and the `lvpd` daemon's per-tenant admission
/// gates. A plain value on a caller-supplied virtual clock: the caller
/// decides what counts as a success or a failure and owns any locking.
#[derive(Debug, Clone, Default)]
pub struct CircuitBreaker {
    state: CircuitState,
    consecutive_failures: u32,
    half_open_successes: u32,
    opened_at_nanos: u64,
}

impl CircuitBreaker {
    /// Admission check at virtual time `now`. An open breaker whose
    /// cooldown has elapsed turns half-open and admits; one still cooling
    /// down refuses with the remaining cooldown in nanoseconds.
    pub fn admit(&mut self, now: u64, config: &BreakerConfig) -> Result<(), u64> {
        if self.state == CircuitState::Open {
            let elapsed = now.saturating_sub(self.opened_at_nanos);
            if elapsed < config.cooldown_nanos {
                return Err(config.cooldown_nanos - elapsed);
            }
            self.state = CircuitState::HalfOpen;
            self.half_open_successes = 0;
        }
        Ok(())
    }

    /// A success: ends the failure run while closed; while half-open,
    /// counts a probe and closes (ending the run) after enough of them.
    pub fn record_success(&mut self, config: &BreakerConfig) {
        match self.state {
            CircuitState::Closed => self.consecutive_failures = 0,
            CircuitState::HalfOpen => {
                self.half_open_successes += 1;
                if self.half_open_successes >= config.half_open_successes {
                    self.state = CircuitState::Closed;
                    self.consecutive_failures = 0;
                }
            }
            CircuitState::Open => {}
        }
    }

    /// A failure at virtual time `now`: extends the run while closed and
    /// trips open at the threshold; a failed half-open probe re-opens
    /// immediately.
    pub fn record_failure(&mut self, now: u64, config: &BreakerConfig) {
        let trip = match self.state {
            CircuitState::Closed => {
                self.consecutive_failures += 1;
                self.consecutive_failures >= config.failure_threshold
            }
            CircuitState::HalfOpen => true,
            CircuitState::Open => false,
        };
        if trip {
            self.state = CircuitState::Open;
            self.opened_at_nanos = now;
        }
    }

    /// The current state.
    pub fn state(&self) -> CircuitState {
        self.state
    }

    /// Failures since the run last ended. Kept through open and half-open,
    /// so it still counts the run that tripped the breaker.
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }
}

/// Pre-resolved telemetry handles. Retry/attempt counters derive from the
/// content-keyed fault schedule and are deterministic at any thread count;
/// breaker metrics depend on cross-thread interleaving and are volatile.
struct ResilienceMetrics {
    /// `resilience.calls` — predict calls entering the wrapper.
    calls: Counter,
    /// `resilience.call_failures` — calls that failed terminally.
    call_failures: Counter,
    /// `resilience.attempts` — individual endpoint attempts.
    attempts: Counter,
    /// `resilience.retries` — attempts beyond the first of a call.
    retries: Counter,
    /// `resilience.transient_errors` — attempts failed with a transient error.
    transient: Counter,
    /// `resilience.rate_limited` — attempts rejected by rate limiting.
    rate_limited: Counter,
    /// `resilience.invalid_responses` — responses rejected by the validator.
    invalid: Counter,
    /// `resilience.backoff` — virtual backoff durations slept before retries.
    backoff: Histogram,
    /// `resilience.breaker_state` — 0 closed / 1 open / 2 half-open (volatile).
    breaker_state: Gauge,
    /// `resilience.breaker_transitions` — state changes (volatile).
    breaker_transitions: Counter,
    /// `resilience.breaker_rejections` — calls rejected while open (volatile).
    breaker_rejections: Counter,
}

impl ResilienceMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            calls: registry.counter("resilience.calls"),
            call_failures: registry.counter("resilience.call_failures"),
            attempts: registry.counter("resilience.attempts"),
            retries: registry.counter("resilience.retries"),
            transient: registry.counter("resilience.transient_errors"),
            rate_limited: registry.counter("resilience.rate_limited"),
            invalid: registry.counter("resilience.invalid_responses"),
            backoff: registry.histogram("resilience.backoff"),
            breaker_state: registry.volatile_gauge("resilience.breaker_state"),
            breaker_transitions: registry.volatile_counter("resilience.breaker_transitions"),
            breaker_rejections: registry.volatile_counter("resilience.breaker_rejections"),
        }
    }
}

/// A fault-tolerant [`BlackBoxModel`] wrapper for flaky remote endpoints.
///
/// Every scoring call is retried with deterministic seeded-jitter
/// exponential backoff under a per-call attempt budget, each response is
/// checked against the probability contract, and a circuit breaker sheds
/// load after sustained terminal failures.
pub struct ResilientModel {
    inner: Arc<dyn BlackBoxModel>,
    config: ResilienceConfig,
    clock: VirtualClock,
    breaker: Mutex<CircuitBreaker>,
    name: String,
    metrics: Option<ResilienceMetrics>,
}

impl ResilientModel {
    /// Wraps `inner` with the given policy. Backoff sleeps and breaker
    /// cooldowns run on `clock`, which a fault-injecting service can share
    /// to simulate latency on the same timeline.
    pub fn new(
        inner: Arc<dyn BlackBoxModel>,
        config: ResilienceConfig,
        clock: VirtualClock,
    ) -> Self {
        let name = format!("resilient({})", inner.name());
        Self {
            inner,
            config,
            clock,
            breaker: Mutex::default(),
            name,
            metrics: None,
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Current circuit-breaker state. A poisoned breaker lock (a peer
    /// thread panicked mid-transition) reads as [`CircuitState::Open`]:
    /// the conservative answer for a breaker whose state is unknowable.
    pub fn circuit_state(&self) -> CircuitState {
        self.breaker
            .lock()
            .map(|b| b.state())
            .unwrap_or(CircuitState::Open)
    }

    /// [`backoff_nanos`] before retry `attempt` of the request with content
    /// key `key`, its jitter drawn from `(JITTER_SEED, key, attempt)`.
    fn backoff(key: u64, attempt: u32) -> u64 {
        backoff_nanos(attempt, derive_seed(key, JITTER_SEED, u64::from(attempt)))
    }

    /// Runs one breaker step under its lock, publishing the volatile
    /// transition metrics when the state changed. `None` when a panicked
    /// thread poisoned the lock.
    fn breaker_step<T>(&self, step: impl FnOnce(&mut CircuitBreaker) -> T) -> Option<T> {
        let mut b = self.breaker.lock().ok()?;
        let before = b.state();
        let out = step(&mut b);
        if let Some(m) = self.metrics.as_ref().filter(|_| b.state() != before) {
            m.breaker_state.set(b.state().gauge_value());
            m.breaker_transitions.inc();
        }
        Some(out)
    }

    /// Breaker admission check. Returns an error when calls must be shed.
    fn admit(&self) -> Result<(), ModelError> {
        let admitted = self
            .breaker_step(|b| b.admit(self.clock.now_nanos(), &self.config.breaker))
            .ok_or_else(|| {
                ModelError::new("circuit breaker state poisoned by a panicked thread")
            })?;
        if admitted.is_err() {
            if let Some(m) = &self.metrics {
                m.breaker_rejections.inc();
            }
            return Err(ModelError::transient(
                "circuit breaker open: calls are being shed until the cooldown elapses",
            ));
        }
        Ok(())
    }

    fn on_call_success(&self) {
        self.breaker_step(|b| b.record_success(&self.config.breaker));
    }

    fn on_call_failure(&self) {
        self.breaker_step(|b| b.record_failure(self.clock.now_nanos(), &self.config.breaker));
    }

    /// One call's attempts under the retry budget, sleeping the backoff on
    /// the virtual clock between them.
    fn predict_with_retries(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        let key = frame_content_key(data);
        let n_classes = self.inner.n_classes();
        let mut last_error = None;
        for attempt in 1..=self.config.max_attempts.max(1) {
            if attempt > 1 {
                let backoff = Self::backoff(key, attempt - 1);
                self.clock.advance(backoff);
                if let Some(m) = &self.metrics {
                    m.retries.inc();
                    m.backoff.record(Duration::from_nanos(backoff));
                }
            }
            if let Some(m) = &self.metrics {
                m.attempts.inc();
            }
            let outcome = self.inner.try_predict_proba(data).and_then(|proba| {
                validate_probability_matrix(&proba, data.n_rows(), n_classes)?;
                Ok(proba)
            });
            match outcome {
                Ok(proba) => return Ok(proba),
                Err(e) => {
                    if let Some(m) = &self.metrics {
                        match e.kind {
                            ModelErrorKind::Transient => m.transient.inc(),
                            ModelErrorKind::RateLimited => m.rate_limited.inc(),
                            ModelErrorKind::InvalidResponse => m.invalid.inc(),
                            _ => {}
                        }
                    }
                    if !e.is_retryable() {
                        return Err(e);
                    }
                    last_error = Some(e);
                }
            }
        }
        Err(ModelError::transient(format!(
            "retry budget of {} attempts exhausted; last error: {}",
            self.config.max_attempts.max(1),
            last_error.map_or_else(|| "none".into(), |e| e.message)
        )))
    }
}

impl BlackBoxModel for ResilientModel {
    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        if let Some(m) = &self.metrics {
            m.calls.inc();
        }
        if let Err(e) = self.admit() {
            // A shed call is a terminal failure for the caller but must not
            // extend the breaker's failure run: it never reached the
            // endpoint.
            if let Some(m) = &self.metrics {
                m.call_failures.inc();
            }
            return Err(e);
        }
        match self.predict_with_retries(data) {
            Ok(proba) => {
                self.on_call_success();
                Ok(proba)
            }
            Err(e) => {
                self.on_call_failure();
                if let Some(m) = &self.metrics {
                    m.call_failures.inc();
                }
                Err(e)
            }
        }
    }

    fn n_classes(&self) -> usize {
        self.inner.n_classes()
    }

    fn name(&self) -> &str {
        &self.name
    }

    /// The inner model's answer: retries and the breaker react only to the
    /// inner model's failures, so they keep its independence.
    fn rows_are_independent(&self) -> bool {
        self.inner.rows_are_independent()
    }

    fn attach_telemetry(&mut self, registry: &Registry) {
        let metrics = ResilienceMetrics::resolve(registry);
        metrics
            .breaker_state
            .set(CircuitState::Closed.gauge_value());
        self.metrics = Some(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lvp_dataframe::{toy_frame, DataFrameBuilder};
    use std::sync::atomic::AtomicUsize;

    /// A scripted inner model: fails the first `failures_per_call` attempts
    /// of every call (keyed per request), or fails always when
    /// `always_fail` is set.
    struct Scripted {
        n_classes: usize,
        attempts: AtomicUsize,
        fail_first: usize,
        always_fail: bool,
        corrupt_instead: bool,
    }

    impl Scripted {
        fn healthy_after(fail_first: usize) -> Self {
            Self {
                n_classes: 2,
                attempts: AtomicUsize::new(0),
                fail_first,
                always_fail: false,
                corrupt_instead: false,
            }
        }

        fn broken() -> Self {
            Self {
                always_fail: true,
                ..Self::healthy_after(0)
            }
        }

        fn uniform(&self, n: usize) -> DenseMatrix {
            DenseMatrix::from_vec(n, self.n_classes, vec![0.5; n * self.n_classes]).unwrap()
        }
    }

    impl BlackBoxModel for Scripted {
        fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
            let attempt = self.attempts.fetch_add(1, Ordering::SeqCst);
            if self.always_fail || attempt < self.fail_first {
                if self.corrupt_instead {
                    let mut bad = self.uniform(data.n_rows());
                    bad.set(0, 0, f64::NAN);
                    return Ok(bad);
                }
                return Err(ModelError::transient("injected"));
            }
            Ok(self.uniform(data.n_rows()))
        }

        fn n_classes(&self) -> usize {
            self.n_classes
        }

        fn name(&self) -> &str {
            "scripted"
        }
    }

    fn resilient(inner: Scripted, config: ResilienceConfig) -> ResilientModel {
        ResilientModel::new(Arc::new(inner), config, VirtualClock::new())
    }

    #[test]
    fn validator_enforces_the_probability_contract() {
        let good = DenseMatrix::from_rows(&[vec![0.25, 0.75], vec![1.0, 0.0]]).unwrap();
        assert!(validate_probability_matrix(&good, 2, 2).is_ok());
        // Truncated.
        let err = validate_probability_matrix(&good, 3, 2).unwrap_err();
        assert_eq!(err.kind, ModelErrorKind::InvalidResponse);
        assert!(err.message.contains("truncated"), "{err}");
        // Wrong width.
        assert!(validate_probability_matrix(&good, 2, 3).is_err());
        // Non-finite.
        let nan = DenseMatrix::from_rows(&[vec![f64::NAN, 1.0]]).unwrap();
        assert!(validate_probability_matrix(&nan, 1, 2).is_err());
        // Non-normalized.
        let scaled = DenseMatrix::from_rows(&[vec![0.9, 0.9]]).unwrap();
        let err = validate_probability_matrix(&scaled, 1, 2).unwrap_err();
        assert!(err.message.contains("sums to"), "{err}");
        // Negative probability.
        let neg = DenseMatrix::from_rows(&[vec![-0.2, 1.2]]).unwrap();
        assert!(validate_probability_matrix(&neg, 1, 2).is_err());
        // All retryable: a healthy replica may answer correctly.
        assert!(validate_probability_matrix(&neg, 1, 2)
            .unwrap_err()
            .is_retryable());
    }

    #[test]
    fn retries_recover_from_transient_failures() {
        let model = resilient(Scripted::healthy_after(3), ResilienceConfig::default());
        let df = toy_frame(12);
        let proba = model.try_predict_proba(&df).unwrap();
        assert_eq!(proba.rows(), 12);
        assert_eq!(model.circuit_state(), CircuitState::Closed);
        // Three backoffs were slept on the virtual clock.
        assert!(model.clock().now_nanos() > 0);
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_terminal_error() {
        let model = resilient(
            Scripted::broken(),
            ResilienceConfig {
                max_attempts: 3,
                breaker: BreakerConfig {
                    failure_threshold: 100,
                    ..BreakerConfig::default()
                },
            },
        );
        let err = model.try_predict_proba(&toy_frame(5)).unwrap_err();
        assert!(err.message.contains("retry budget"), "{err}");
        assert!(err.is_retryable());
    }

    #[test]
    fn corrupted_responses_are_rejected_and_retried() {
        let inner = Scripted {
            corrupt_instead: true,
            ..Scripted::healthy_after(2)
        };
        let model = resilient(inner, ResilienceConfig::default());
        let proba = model.try_predict_proba(&toy_frame(8)).unwrap();
        // The NaN-poisoned responses never escaped the trust boundary.
        assert!(proba.data().iter().all(|p| p.is_finite()));
    }

    #[test]
    fn backoff_is_exponential_capped_and_jittered_in_range() {
        // Draw 0 gives half the raw backoff; the largest draw rounds to one
        // and a half times it.
        for (attempt, raw) in [(1, 10_000_000u64), (4, 80_000_000), (7, 640_000_000)] {
            assert_eq!(backoff_nanos(attempt, 0), raw / 2);
            assert_eq!(backoff_nanos(attempt, u64::MAX), raw * 3 / 2);
        }
        // From the eighth attempt on the raw backoff is capped at 1 s.
        for attempt in [8, 30, 63, 64, u32::MAX] {
            assert_eq!(backoff_nanos(attempt, 0), 500_000_000);
        }
        // A different key re-rolls the client's jitter.
        let key = frame_content_key(&toy_frame(7));
        let schedule: Vec<u64> = (1..=6).map(|a| ResilientModel::backoff(key, a)).collect();
        let other: Vec<u64> = (1..=6)
            .map(|a| ResilientModel::backoff(key ^ 0xDEAD, a))
            .collect();
        assert_ne!(schedule, other);
    }

    /// The client's backoff for one fixed request key at attempts 1..=10,
    /// across the 1 s cap, pinned value by value.
    #[test]
    fn backoff_schedule_is_pinned_golden() {
        let key = frame_content_key(&toy_frame(7));
        let schedule: Vec<u64> = (1..=10).map(|a| ResilientModel::backoff(key, a)).collect();
        assert_eq!(
            schedule,
            [
                6_144_457,
                23_940_491,
                58_441_955,
                59_566_929,
                204_000_921,
                383_245_222,
                747_340_914,
                1_417_410_840,
                1_063_125_584,
                691_625_954,
            ]
        );
    }

    #[test]
    fn breaker_walks_closed_open_half_open_closed() {
        let inner = Scripted::healthy_after(2 * 3); // first two calls fail terminally
        let model = resilient(
            inner,
            ResilienceConfig {
                max_attempts: 3,
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    cooldown_nanos: 1_000,
                    half_open_successes: 2,
                },
            },
        );
        let df = toy_frame(6);
        assert_eq!(model.circuit_state(), CircuitState::Closed);
        // Two terminal call failures trip the breaker.
        assert!(model.try_predict_proba(&df).is_err());
        assert_eq!(model.circuit_state(), CircuitState::Closed);
        assert!(model.try_predict_proba(&df).is_err());
        assert_eq!(model.circuit_state(), CircuitState::Open);
        // While open, calls are shed without touching the endpoint.
        let before = model.clock().now_nanos();
        let err = model.try_predict_proba(&df).unwrap_err();
        assert!(err.message.contains("circuit breaker open"), "{err}");
        assert_eq!(model.clock().now_nanos(), before, "no endpoint attempt");
        // After the cooldown the breaker admits half-open probes.
        model.clock().advance(1_000);
        assert!(model.try_predict_proba(&df).is_ok());
        assert_eq!(model.circuit_state(), CircuitState::HalfOpen);
        assert!(model.try_predict_proba(&df).is_ok());
        assert_eq!(model.circuit_state(), CircuitState::Closed);
    }

    #[test]
    fn half_open_failure_reopens_the_breaker() {
        let model = resilient(
            Scripted::broken(),
            ResilienceConfig {
                max_attempts: 1,
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown_nanos: 500,
                    half_open_successes: 1,
                },
            },
        );
        let df = toy_frame(3);
        assert!(model.try_predict_proba(&df).is_err());
        assert_eq!(model.circuit_state(), CircuitState::Open);
        model.clock().advance(500);
        assert!(model.try_predict_proba(&df).is_err());
        assert_eq!(model.circuit_state(), CircuitState::Open, "probe failed");
    }

    #[test]
    fn an_unbounded_cooldown_keeps_shedding() {
        let model = resilient(
            Scripted::broken(),
            ResilienceConfig {
                max_attempts: 1,
                breaker: BreakerConfig {
                    failure_threshold: 1,
                    cooldown_nanos: u64::MAX,
                    half_open_successes: 1,
                },
            },
        );
        let df = toy_frame(3);
        model.clock().advance(1_000);
        assert!(model.try_predict_proba(&df).is_err());
        assert_eq!(model.circuit_state(), CircuitState::Open);
        // The trip time plus the cooldown overflows u64: the breaker must
        // keep shedding rather than wrap around into half-open.
        let err = model.try_predict_proba(&df).unwrap_err();
        assert!(err.message.contains("circuit breaker open"), "{err}");
        assert_eq!(model.circuit_state(), CircuitState::Open);
    }

    #[test]
    fn telemetry_counts_attempts_retries_and_breaker_state() {
        let mut model = resilient(Scripted::healthy_after(2), ResilienceConfig::default());
        let registry = Registry::new();
        model.attach_telemetry(&registry);
        let df = toy_frame(9);
        assert!(model.try_predict_proba(&df).is_ok());
        let snap = registry.snapshot();
        assert_eq!(snap.counters["resilience.calls"], 1);
        assert_eq!(snap.counters["resilience.attempts"], 3);
        assert_eq!(snap.counters["resilience.retries"], 2);
        assert_eq!(snap.counters["resilience.transient_errors"], 2);
        assert_eq!(snap.counters["resilience.call_failures"], 0);
        assert_eq!(snap.histograms["resilience.backoff"].count, 2);
        assert_eq!(snap.gauges["resilience.breaker_state"], 0.0);
        // Breaker metrics are scheduling-dependent → volatile; the retry
        // counters derive from the content-keyed schedule → deterministic.
        assert!(snap.volatile.contains(&"resilience.breaker_state".into()));
        assert!(!snap.volatile.contains(&"resilience.retries".into()));
    }

    #[test]
    fn frame_content_key_tracks_content_not_identity() {
        let a = toy_frame(20);
        let b = toy_frame(20);
        assert_eq!(frame_content_key(&a), frame_content_key(&b));
        assert_ne!(frame_content_key(&a), frame_content_key(&toy_frame(21)));
        let mut mutated = a.clone();
        mutated.column_mut(1).set_null(3);
        assert_ne!(frame_content_key(&a), frame_content_key(&mutated));
    }

    #[test]
    fn frame_content_key_hashes_category_values_not_codes() {
        use rand::SeedableRng;
        // Fault plans key on this hash, so it must not move when the
        // storage of categorical cells does: the value is the one the key
        // had while categorical cells were stored as strings.
        let income = lvp_datasets::income(300, &mut rand::rngs::StdRng::seed_from_u64(11));
        assert_eq!(frame_content_key(&income), 0x6032_de91_6307_c573);
        // The same cells under a dictionary in another order: rebuilt in
        // reverse, then reversed back.
        let mut b = DataFrameBuilder::new(income.schema().clone(), income.label_names().to_vec());
        for r in (0..income.n_rows()).rev() {
            let cells = (0..income.n_cols()).map(|c| income.cell(r, c)).collect();
            b.push_row(cells, income.labels()[r]).unwrap();
        }
        let rows: Vec<usize> = (0..income.n_rows()).rev().collect();
        let same = b.finish().unwrap().select_rows(&rows);
        let workclass =
            |df: &DataFrame| df.column(5).as_categorical().unwrap().dictionary().to_vec();
        assert_ne!(workclass(&same), workclass(&income));
        assert_eq!(frame_content_key(&same), frame_content_key(&income));
    }
}
