//! Simulated cloud ML service (the Google AutoML Tables stand-in of §6.3.2).
//!
//! The paper's final experiment validates a model that is *trained and
//! hosted* by a third-party cloud service: the user uploads training data,
//! receives an opaque model handle, and can only retrieve batched
//! predictions. This module reproduces that contract:
//!
//! * [`CloudModelService::train_and_deploy`] runs an AutoML search
//!   server-side and returns only a [`ModelHandle`],
//! * predictions are served via [`CloudModelService::batch_predict`], which
//!   meters request counts and row quotas like a billed endpoint,
//! * [`RemoteModel`] adapts a handle to the [`BlackBoxModel`] trait so the
//!   performance predictor can be trained against the remote endpoint
//!   exactly like against a local model.
//!
//! Real cloud endpoints fail: requests time out, quotas reject, responses
//! arrive truncated or corrupted. [`FaultPlan`] reproduces exactly that —
//! a deterministic, seed-driven per-request fault schedule installable via
//! [`CloudModelService::install_fault_plan`], its simulated latency
//! advancing a [`VirtualClock`] the client can share. Fault decisions are a
//! pure function of `(plan seed, request content key, attempt number)` — no
//! wall clock, no ambient randomness — so chaos runs replay bit-identically
//! at any thread count (see [`crate::resilience`] for the client half).

use crate::automl::auto_sklearn_like;
use crate::resilience::{frame_content_key, validate_probability_matrix, VirtualClock};
use crate::{BlackBoxModel, ModelError};
use lvp_dataframe::{derive_seed, mix64, unit_draw, DataFrame};
use lvp_linalg::DenseMatrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Opaque identifier of a deployed cloud model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelHandle(u64);

/// One injected fault, decided per `(request key, attempt)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultKind {
    /// Retryable 5xx-style failure.
    Transient,
    /// Quota / rate-limit rejection.
    RateLimited,
    /// Response is served but rows are missing.
    Truncated,
    /// Response is served but probability rows are corrupted (non-finite
    /// or non-normalized).
    Corrupted,
    /// Response is served correctly but slowly (advances the virtual
    /// clock).
    Slow,
}

/// Totals of injected faults, for assertions and chaos-run reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Requests that failed with an injected transient error.
    pub transient: u64,
    /// Requests rejected by the injected rate limiter.
    pub rate_limited: u64,
    /// Requests answered with a truncated row set.
    pub truncated: u64,
    /// Requests answered with corrupted probability rows.
    pub corrupted: u64,
    /// Requests answered correctly but with injected latency.
    pub slow: u64,
    /// Requests served cleanly while the plan was installed.
    pub clean: u64,
}

impl FaultStats {
    /// Total injected faults (everything except clean and slow responses).
    pub fn total_faults(&self) -> u64 {
        self.transient + self.rate_limited + self.truncated + self.corrupted
    }
}

/// A deterministic, seed-driven fault-injection schedule for
/// [`CloudModelService`].
///
/// Every fault decision is a pure function of `(seed, request content key,
/// attempt)` where the content key hashes the requested batch
/// ([`frame_content_key`]) and `attempt` counts how often that exact batch
/// has been requested. Identical runs therefore inject identical faults —
/// regardless of thread count or wall-clock speed — which is what makes
/// chaos tests reproducible.
///
/// Probabilities are independent cumulative weights in `[0, 1]`; their sum
/// must not exceed 1. `max_faults_per_key` bounds how many attempts on one
/// key may fault (guaranteeing that retry loops converge); `poisoned`
/// designates a fraction of keys that fail on *every* attempt, which is
/// how terminal failures — and the monitor's degraded mode — are
/// exercised.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Master seed of the schedule.
    pub seed: u64,
    /// Probability of a retryable transient failure.
    pub transient: f64,
    /// Probability of a rate-limit / quota rejection.
    pub rate_limited: f64,
    /// Probability of a truncated response.
    pub truncated: f64,
    /// Probability of corrupted probability rows.
    pub corrupted: f64,
    /// Probability of a slow (but correct) response.
    pub slow: f64,
    /// Fraction of request keys that fail on every attempt.
    pub poisoned: f64,
    /// Virtual latency added to every request.
    pub base_latency_nanos: u64,
    /// Extra virtual latency of a `FaultKind::Slow` response.
    pub slow_latency_nanos: u64,
    /// Attempts on one key beyond which requests always succeed (poisoned
    /// keys excepted). Guarantees liveness for retrying clients.
    pub max_faults_per_key: u32,
}

impl FaultPlan {
    /// An inert plan (no faults) with the given seed; set the probability
    /// fields to taste.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            transient: 0.0,
            rate_limited: 0.0,
            truncated: 0.0,
            corrupted: 0.0,
            slow: 0.0,
            poisoned: 0.0,
            base_latency_nanos: 0,
            slow_latency_nanos: 0,
            max_faults_per_key: u32::MAX,
        }
    }

    /// Whether `key` fails on every attempt under this plan.
    pub fn is_poisoned(&self, key: u64) -> bool {
        unit_draw(mix64(
            self.seed ^ key.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0x7015_0ED5_A17E_D0A7,
        )) < self.poisoned
    }

    /// The fault (if any) injected on the given attempt at `key`. Pure
    /// function — the cornerstone of chaos-run reproducibility.
    fn decide(&self, key: u64, attempt: u32) -> Option<FaultKind> {
        if self.is_poisoned(key) {
            // Poisoned keys alternate failure modes so terminal failures
            // exercise both the transport-error and the corrupt-response
            // paths.
            return Some(if attempt.is_multiple_of(2) {
                FaultKind::Transient
            } else {
                FaultKind::Corrupted
            });
        }
        if attempt >= self.max_faults_per_key {
            return None;
        }
        let draw = unit_draw(derive_seed(self.seed, key, u64::from(attempt)));
        let mut cutoff = self.transient;
        if draw < cutoff {
            return Some(FaultKind::Transient);
        }
        cutoff += self.rate_limited;
        if draw < cutoff {
            return Some(FaultKind::RateLimited);
        }
        cutoff += self.truncated;
        if draw < cutoff {
            return Some(FaultKind::Truncated);
        }
        cutoff += self.corrupted;
        if draw < cutoff {
            return Some(FaultKind::Corrupted);
        }
        cutoff += self.slow;
        if draw < cutoff {
            return Some(FaultKind::Slow);
        }
        None
    }
}

/// Installed fault schedule plus its bookkeeping (per-key attempt counts,
/// injected totals, the virtual clock latency is simulated on).
struct FaultInjector {
    plan: FaultPlan,
    clock: VirtualClock,
    attempts: HashMap<u64, u32>,
    stats: FaultStats,
}

struct ServiceInner {
    models: Mutex<HashMap<ModelHandle, Box<dyn BlackBoxModel>>>,
    faults: Mutex<Option<FaultInjector>>,
    next_handle: AtomicU64,
    requests: AtomicU64,
    rows_scored: AtomicU64,
}

/// A simulated cloud prediction service hosting opaque models.
#[derive(Clone)]
pub struct CloudModelService {
    inner: Arc<ServiceInner>,
}

impl Default for CloudModelService {
    fn default() -> Self {
        Self::new()
    }
}

impl CloudModelService {
    /// Starts an empty service.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(ServiceInner {
                models: Mutex::new(HashMap::new()),
                faults: Mutex::new(None),
                next_handle: AtomicU64::new(1),
                requests: AtomicU64::new(0),
                rows_scored: AtomicU64::new(0),
            }),
        }
    }

    /// Locks the model store, degrading a poisoned lock (a peer thread
    /// panicked while serving) into a typed [`ModelError`] instead of
    /// cascading the panic into every subsequent caller.
    #[allow(clippy::type_complexity)]
    fn lock_models(
        &self,
    ) -> Result<MutexGuard<'_, HashMap<ModelHandle, Box<dyn BlackBoxModel>>>, ModelError> {
        self.inner.models.lock().map_err(|_| {
            ModelError::new("cloud service model store poisoned by a panicked peer thread")
        })
    }

    fn lock_faults(&self) -> Result<MutexGuard<'_, Option<FaultInjector>>, ModelError> {
        self.inner.faults.lock().map_err(|_| {
            ModelError::new("cloud service fault injector poisoned by a panicked peer thread")
        })
    }

    /// Installs (or replaces) a fault-injection schedule; per-key attempt
    /// counters start fresh. The service advances `clock` by
    /// `base_latency_nanos` per request (plus `slow_latency_nanos` on slow
    /// responses), simulating latency on the timeline a client sharing the
    /// clock runs its backoff and breaker cooldowns on.
    pub fn install_fault_plan(&self, plan: FaultPlan, clock: VirtualClock) {
        if let Ok(mut faults) = self.lock_faults() {
            *faults = Some(FaultInjector {
                plan,
                clock,
                attempts: HashMap::new(),
                stats: FaultStats::default(),
            });
        }
    }

    /// Removes the installed fault plan; subsequent requests serve cleanly.
    pub fn clear_fault_plan(&self) {
        if let Ok(mut faults) = self.lock_faults() {
            *faults = None;
        }
    }

    /// Whether a fault plan is installed. Its faults are keyed on each
    /// request's content, so which request fails depends on which rows it
    /// carries.
    fn has_fault_plan(&self) -> bool {
        self.lock_faults().is_ok_and(|faults| faults.is_some())
    }

    /// Totals of injected faults since the plan was installed.
    pub fn fault_stats(&self) -> FaultStats {
        self.lock_faults()
            .ok()
            .and_then(|f| f.as_ref().map(|i| i.stats))
            .unwrap_or_default()
    }

    /// "Uploads" training data, runs a server-side AutoML search and deploys
    /// the resulting model. Only the handle is returned — the learning
    /// algorithm and feature map stay inside the service, as with Google
    /// AutoML Tables.
    pub fn train_and_deploy(
        &self,
        train: &DataFrame,
        seed: u64,
    ) -> Result<ModelHandle, ModelError> {
        let mut rng = StdRng::seed_from_u64(seed);
        let model = auto_sklearn_like(train, 6, &mut rng)?;
        let handle = ModelHandle(self.inner.next_handle.fetch_add(1, Ordering::Relaxed));
        self.lock_models()?.insert(handle, model);
        Ok(handle)
    }

    /// Runs the installed fault schedule for one request. Returns an error
    /// for fail-fast faults, otherwise the decided response mutation as
    /// `(kind, request key, attempt, plan seed)`.
    #[allow(clippy::type_complexity)]
    fn injected_fault(
        &self,
        data: &DataFrame,
    ) -> Result<Option<(FaultKind, u64, u32, u64)>, ModelError> {
        let mut guard = self.lock_faults()?;
        let Some(injector) = guard.as_mut() else {
            return Ok(None);
        };
        let key = frame_content_key(data);
        let attempt_slot = injector.attempts.entry(key).or_insert(0);
        let attempt = *attempt_slot;
        *attempt_slot += 1;
        let fault = injector.plan.decide(key, attempt);
        let mut latency = injector.plan.base_latency_nanos;
        if fault == Some(FaultKind::Slow) {
            latency += injector.plan.slow_latency_nanos;
        }
        injector.clock.advance(latency);
        match fault {
            None => {
                injector.stats.clean += 1;
                Ok(None)
            }
            Some(FaultKind::Transient) => {
                injector.stats.transient += 1;
                Err(ModelError::transient(
                    "injected fault: transient service failure (503)",
                ))
            }
            Some(FaultKind::RateLimited) => {
                injector.stats.rate_limited += 1;
                Err(ModelError::rate_limited(
                    "injected fault: prediction quota exceeded (429)",
                ))
            }
            Some(kind @ FaultKind::Truncated) => {
                injector.stats.truncated += 1;
                Ok(Some((kind, key, attempt, injector.plan.seed)))
            }
            Some(kind @ FaultKind::Corrupted) => {
                injector.stats.corrupted += 1;
                Ok(Some((kind, key, attempt, injector.plan.seed)))
            }
            Some(kind @ FaultKind::Slow) => {
                injector.stats.slow += 1;
                Ok(Some((kind, key, attempt, injector.plan.seed)))
            }
        }
    }

    /// Applies a response-mutating fault to an otherwise correct response.
    fn mutate_response(
        plan_seed: u64,
        kind: FaultKind,
        key: u64,
        attempt: u32,
        proba: DenseMatrix,
    ) -> DenseMatrix {
        match kind {
            FaultKind::Slow => proba,
            FaultKind::Truncated => {
                // Drop the tail third (at least one row; possibly all of a
                // one-row response).
                let n = proba.rows();
                let keep = n - (n / 3).max(1).min(n);
                proba.select_rows(&(0..keep).collect::<Vec<_>>())
            }
            FaultKind::Corrupted => {
                let h =
                    mix64(plan_seed ^ key ^ u64::from(attempt).wrapping_mul(0xC0FF_EE00_DEAD_BEEF));
                let mut bad = proba;
                if bad.rows() == 0 {
                    return bad;
                }
                let row = (h as usize) % bad.rows();
                if h & 1 == 0 {
                    // Non-finite probability.
                    bad.set(row, 0, f64::NAN);
                } else {
                    // Non-normalized row: scale it well past the tolerance.
                    for c in 0..bad.cols() {
                        let v = bad.get(row, c);
                        bad.set(row, c, v * 3.0 + 0.5);
                    }
                }
                bad
            }
            _ => proba,
        }
    }

    /// Scores a batch of rows against a deployed model, subject to the
    /// installed [`FaultPlan`] (if any). An unknown handle, or a frame the
    /// model was not fitted for, is an
    /// [`InvalidInput`](crate::ModelErrorKind::InvalidInput) error, and the
    /// service keeps serving. The model scores the frame before the
    /// request is metered, so a rejected request counts in neither meter
    /// and uses up no fault-plan attempt.
    pub fn batch_predict(
        &self,
        handle: ModelHandle,
        data: &DataFrame,
    ) -> Result<DenseMatrix, ModelError> {
        let proba = {
            let models = self.lock_models()?;
            let model = models
                .get(&handle)
                .ok_or_else(|| ModelError::invalid_input("unknown model handle"))?;
            model.try_predict_proba(data)?
        };
        self.inner.requests.fetch_add(1, Ordering::Relaxed);
        self.inner
            .rows_scored
            .fetch_add(data.n_rows() as u64, Ordering::Relaxed);
        match self.injected_fault(data)? {
            None => Ok(proba),
            Some((kind, key, attempt, plan_seed)) => {
                Ok(Self::mutate_response(plan_seed, kind, key, attempt, proba))
            }
        }
    }

    /// Number of classes of a deployed model.
    pub fn model_classes(&self, handle: ModelHandle) -> Result<usize, ModelError> {
        let models = self.lock_models()?;
        models
            .get(&handle)
            .map(|m| m.n_classes())
            .ok_or_else(|| ModelError::invalid_input("unknown model handle"))
    }

    /// Total prediction requests served (the "billing meter").
    pub fn requests_served(&self) -> u64 {
        self.inner.requests.load(Ordering::Relaxed)
    }

    /// Total rows scored across all requests.
    pub fn rows_scored(&self) -> u64 {
        self.inner.rows_scored.load(Ordering::Relaxed)
    }

    /// Adapts a deployed model to the [`BlackBoxModel`] trait.
    pub fn remote_model(&self, handle: ModelHandle) -> Result<RemoteModel, ModelError> {
        let n_classes = self.model_classes(handle)?;
        Ok(RemoteModel {
            service: self.clone(),
            handle,
            n_classes,
        })
    }
}

/// A client-side view of a cloud-hosted model. Every scoring call is a
/// metered request against the service.
pub struct RemoteModel {
    service: CloudModelService,
    handle: ModelHandle,
    n_classes: usize,
}

impl BlackBoxModel for RemoteModel {
    /// Requests predictions and enforces the probability contract at the
    /// trust boundary: a truncated or corrupted response surfaces as a
    /// typed, retryable [`ModelError`] instead of flowing downstream into
    /// `prediction_statistics`.
    fn try_predict_proba(&self, data: &DataFrame) -> Result<DenseMatrix, ModelError> {
        let proba = self.service.batch_predict(self.handle, data)?;
        validate_probability_matrix(&proba, data.n_rows(), self.n_classes)?;
        Ok(proba)
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn name(&self) -> &str {
        "cloud-automl"
    }

    /// `false` while the service has a fault plan installed: its faults
    /// are keyed on the batch content, so scoring a subset of a batch
    /// would move the fault schedule.
    fn rows_are_independent(&self) -> bool {
        !self.service.has_fault_plan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelErrorKind;
    use lvp_dataframe::{toy_frame, Schema};

    #[test]
    fn deploy_and_predict_round_trip() {
        let service = CloudModelService::new();
        let df = toy_frame(60);
        let handle = service.train_and_deploy(&df, 1).unwrap();
        let p = service.batch_predict(handle, &df).unwrap();
        assert_eq!(p.rows(), 60);
        assert_eq!(service.requests_served(), 1);
        assert_eq!(service.rows_scored(), 60);
    }

    #[test]
    fn unknown_handle_is_rejected() {
        let service = CloudModelService::new();
        let df = toy_frame(5);
        let err = service.batch_predict(ModelHandle(99), &df).unwrap_err();
        assert_eq!(err.kind, ModelErrorKind::InvalidInput);
        assert!(!err.is_retryable());
        assert!(service.model_classes(ModelHandle(99)).is_err());
    }

    #[test]
    fn remote_model_meters_requests() {
        let service = CloudModelService::new();
        let df = toy_frame(30);
        let handle = service.train_and_deploy(&df, 2).unwrap();
        let remote = service.remote_model(handle).unwrap();
        let _ = remote.predict_proba(&df);
        let _ = remote.predict_proba(&df);
        assert_eq!(service.requests_served(), 2);
        assert_eq!(remote.name(), "cloud-automl");
        assert_eq!(remote.n_classes(), 2);
    }

    #[test]
    fn a_frame_missing_a_column_is_rejected_and_the_service_keeps_serving() {
        let service = CloudModelService::new();
        let df = toy_frame(30);
        let handle = service.train_and_deploy(&df, 5).unwrap();
        let remote = service.remote_model(handle).unwrap();
        // Only the numeric column: the fitted categorical column is missing.
        let short = DataFrame::new(
            Schema::new(df.schema().fields()[..1].to_vec()).unwrap(),
            vec![df.column(0).clone()],
            df.labels().to_vec(),
            df.label_names().to_vec(),
        )
        .unwrap();
        let err = remote.try_predict_proba(&short).unwrap_err();
        assert_eq!(err.kind, ModelErrorKind::InvalidInput, "{err}");
        assert!(err.message.starts_with("column 1: "), "{err}");
        assert_eq!(remote.try_predict_proba(&df).unwrap().rows(), 30);
        // Only the served request is metered.
        assert_eq!(service.requests_served(), 1);
        assert_eq!(service.rows_scored(), 30);
        // Neither a rejected frame nor an unknown handle uses up an attempt
        // of the fault plan.
        service.install_fault_plan(FaultPlan::new(7), VirtualClock::new());
        assert!(remote.try_predict_proba(&short).is_err());
        assert!(service.batch_predict(ModelHandle(u64::MAX), &df).is_err());
        assert_eq!(service.fault_stats(), FaultStats::default());
        assert_eq!(service.requests_served(), 1);
    }

    #[test]
    fn handles_are_unique() {
        let service = CloudModelService::new();
        let df = toy_frame(30);
        let h1 = service.train_and_deploy(&df, 3).unwrap();
        let h2 = service.train_and_deploy(&df, 4).unwrap();
        assert_ne!(h1, h2);
    }

    #[test]
    fn rows_are_independent_only_without_a_fault_plan() {
        use crate::{ResilienceConfig, ResilientModel};
        let (service, handle, _) = faulty_service();
        let remote: Arc<dyn BlackBoxModel> = Arc::new(service.remote_model(handle).unwrap());
        let resilient = ResilientModel::new(
            Arc::clone(&remote),
            ResilienceConfig::default(),
            VirtualClock::new(),
        );
        assert!(remote.rows_are_independent() && resilient.rows_are_independent());
        service.install_fault_plan(FaultPlan::new(1), VirtualClock::new());
        assert!(!remote.rows_are_independent() && !resilient.rows_are_independent());
        service.clear_fault_plan();
        assert!(remote.rows_are_independent() && resilient.rows_are_independent());
    }

    fn faulty_service() -> (CloudModelService, ModelHandle, DataFrame) {
        let service = CloudModelService::new();
        let df = toy_frame(50);
        let handle = service.train_and_deploy(&df, 5).unwrap();
        (service, handle, df)
    }

    #[test]
    fn transient_faults_follow_the_schedule_and_eventually_clear() {
        let (service, handle, df) = faulty_service();
        let mut plan = FaultPlan::new(99);
        plan.transient = 1.0;
        plan.max_faults_per_key = 3;
        service.install_fault_plan(plan, VirtualClock::new());
        for _ in 0..3 {
            let err = service.batch_predict(handle, &df).unwrap_err();
            assert_eq!(err.kind, ModelErrorKind::Transient, "{err}");
        }
        // Attempt 3 exceeds max_faults_per_key → served cleanly.
        assert!(service.batch_predict(handle, &df).is_ok());
        let stats = service.fault_stats();
        assert_eq!(stats.transient, 3);
        assert_eq!(stats.clean, 1);
    }

    #[test]
    fn fault_schedule_is_reproducible() {
        let run = || {
            let (service, handle, df) = faulty_service();
            let mut plan = FaultPlan::new(1234);
            plan.transient = 0.3;
            plan.rate_limited = 0.1;
            plan.corrupted = 0.2;
            plan.truncated = 0.1;
            service.install_fault_plan(plan, VirtualClock::new());
            let outcomes: Vec<String> = (0..20)
                .map(|_| match service.batch_predict(handle, &df) {
                    Ok(p) => format!("ok:{}", p.rows()),
                    Err(e) => format!("err:{:?}", e.kind),
                })
                .collect();
            (outcomes, service.fault_stats())
        };
        let (a, stats_a) = run();
        let (b, stats_b) = run();
        assert_eq!(a, b, "same seed, same content → same fault schedule");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.total_faults() > 0, "{stats_a:?}");
    }

    #[test]
    fn corrupted_and_truncated_responses_are_caught_by_the_remote_boundary() {
        let (service, handle, df) = faulty_service();
        let remote = service.remote_model(handle).unwrap();
        let mut plan = FaultPlan::new(7);
        plan.corrupted = 1.0;
        service.install_fault_plan(plan, VirtualClock::new());
        let err = remote.try_predict_proba(&df).unwrap_err();
        assert_eq!(err.kind, ModelErrorKind::InvalidResponse, "{err}");
        let mut plan = FaultPlan::new(7);
        plan.truncated = 1.0;
        service.install_fault_plan(plan, VirtualClock::new());
        let err = remote.try_predict_proba(&df).unwrap_err();
        assert!(err.message.contains("truncated"), "{err}");
    }

    #[test]
    fn poisoned_keys_fail_on_every_attempt() {
        let (service, handle, df) = faulty_service();
        let mut plan = FaultPlan::new(11);
        plan.poisoned = 1.0; // every key poisoned
        plan.max_faults_per_key = 0; // irrelevant for poisoned keys
        service.install_fault_plan(plan, VirtualClock::new());
        let remote = service.remote_model(handle).unwrap();
        for _ in 0..6 {
            assert!(remote.try_predict_proba(&df).is_err());
        }
    }

    #[test]
    fn slow_faults_advance_the_shared_virtual_clock() {
        let (service, handle, df) = faulty_service();
        let clock = VirtualClock::new();
        let mut plan = FaultPlan::new(3);
        plan.slow = 1.0;
        plan.base_latency_nanos = 1_000;
        plan.slow_latency_nanos = 9_000;
        service.install_fault_plan(plan, clock.clone());
        assert!(service.batch_predict(handle, &df).is_ok());
        assert_eq!(clock.now_nanos(), 10_000);
        assert_eq!(service.fault_stats().slow, 1);
    }

    #[test]
    fn clearing_the_plan_restores_clean_serving() {
        let (service, handle, df) = faulty_service();
        let mut plan = FaultPlan::new(13);
        plan.transient = 1.0;
        service.install_fault_plan(plan, VirtualClock::new());
        assert!(service.batch_predict(handle, &df).is_err());
        service.clear_fault_plan();
        assert!(service.batch_predict(handle, &df).is_ok());
        assert_eq!(service.fault_stats(), FaultStats::default());
    }
}
