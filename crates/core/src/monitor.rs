//! Continuous monitoring of a deployed model's serving batches.
//!
//! The paper positions the performance predictor as a component that is
//! "deployed along with the original model" so that "end users and serving
//! systems can raise alarms" (§1, Figure 1b). This module supplies that
//! serving-system half: a [`BatchMonitor`] consumes one serving batch at a
//! time, tracks the history of estimated scores, smooths them with an
//! exponentially weighted moving average, and applies a debounced alarm
//! policy (alarm only after `k` consecutive violations) so a single noisy
//! batch does not page an on-call engineer.
//!
//! Batches need not be materialized: [`BatchMonitor::observe_chunk`] folds
//! row chunks into a fixed-memory [`BatchSketch`] window and
//! [`BatchMonitor::finish_window`] scores the accumulated state, so a
//! million-row batch (or an unbounded traffic window) streams through in
//! `O(bins)` memory. [`BatchMonitor::merge_shard_sketches`] folds the
//! windows of N independent shards into one fleet-level [`BatchReport`]
//! that is bit-identical to what a single stream over all rows would have
//! produced.

use crate::features::{BatchSketch, FeatureSource, OutputReference};
use crate::interval::ScoreInterval;
use crate::{CoreError, PerformancePredictor};
use lvp_dataframe::DataFrame;
use lvp_linalg::DenseMatrix;
use lvp_telemetry::{Counter, Gauge, Histogram, Registry};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Which signal drives the monitor's violation and alarm decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AlarmMode {
    /// Legacy point-estimate policy: a batch violates when the (smoothed)
    /// estimate drops below `(1 - threshold) · test_score`. Requires the
    /// operator to hand-tune `threshold` wide enough to absorb estimator
    /// noise.
    Threshold,
    /// Calibrated interval policy: a batch violates when the retained
    /// `test_score` falls outside the batch's serving [`ScoreInterval`].
    /// No tuned cutoff — the interval's conformal calibration absorbs
    /// estimator noise by construction.
    Interval,
}

/// Alarm policy for a [`BatchMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MonitorPolicy {
    /// Acceptable relative score drop against the test score (e.g. 0.05).
    /// Only consulted under [`AlarmMode::Threshold`].
    pub threshold: f64,
    /// Consecutive violating batches required before an alarm fires.
    pub consecutive_violations: usize,
    /// Smoothing factor of the EWMA over estimates (interval midpoints
    /// under [`AlarmMode::Interval`]), in `(0, 1]`; 1.0 disables smoothing.
    pub ewma_alpha: f64,
    /// Alarm mode; `None` means [`AlarmMode::Threshold`] (see
    /// [`Self::alarm_mode`]). Kept optional so policies serialized before
    /// the interval refactor load unchanged into the legacy behavior.
    pub mode: Option<AlarmMode>,
}

impl Default for MonitorPolicy {
    fn default() -> Self {
        Self {
            threshold: 0.05,
            consecutive_violations: 2,
            ewma_alpha: 0.5,
            mode: None,
        }
    }
}

impl MonitorPolicy {
    /// The effective alarm mode: [`AlarmMode::Threshold`] when [`Self::mode`]
    /// is unset, which is both the `Default` and what pre-interval
    /// artifacts deserialize to.
    pub fn alarm_mode(&self) -> AlarmMode {
        self.mode.unwrap_or(AlarmMode::Threshold)
    }

    /// This policy switched to the calibrated interval alarm: violations
    /// become "the retained test score escaped the serving interval", and
    /// [`Self::threshold`] is no longer consulted.
    pub fn with_interval_alarm(self) -> Self {
        Self {
            mode: Some(AlarmMode::Interval),
            ..self
        }
    }
}

/// Drift evidence for one class column: a two-sample KS test of the model's
/// serving-batch output distribution against its reference (held-out test)
/// output distribution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassDrift {
    /// Class column index.
    pub class: usize,
    /// KS D statistic between serving and reference output distributions.
    pub statistic: f64,
    /// Asymptotic p-value under "no drift".
    pub p_value: f64,
}

/// Per-batch observability payload carried on every [`BatchReport`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct BatchTelemetry {
    /// Consecutive-smoothed-violation streak *after* this batch.
    pub violation_streak: usize,
    /// Per-class KS drift of the batch's outputs against the monitor's
    /// reference outputs. Filled for every batch the monitor scores itself
    /// ([`BatchMonitor::observe`], [`BatchMonitor::observe_outputs`],
    /// [`BatchMonitor::finish_window`] and
    /// [`BatchMonitor::merge_shard_sketches`]) once it holds a reference:
    /// from [`BatchMonitor::retain_reference_outputs`], or from a restored
    /// artifact, which carries the reference ECDFs but not the exact
    /// columns, so only sketched batches are tested after a restore.
    /// Empty otherwise, and on estimate, interval and degraded reports.
    pub per_class_ks: Vec<ClassDrift>,
}

/// The monitor's verdict on one batch.
///
/// Serializes losslessly except that the degraded-batch `NaN` estimate
/// travels as JSON `null` and comes back as `NaN` (the vendored serde maps
/// non-finite floats through `null`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Sequence number of the batch (starting at 0, monotonically
    /// increasing across restarts restored from a
    /// [`MonitorArtifact`](crate::MonitorArtifact)).
    pub batch_index: usize,
    /// Raw estimated score for this batch.
    pub estimate: f64,
    /// EWMA-smoothed estimate.
    pub smoothed: f64,
    /// Whether this batch's *raw* estimate individually violates the
    /// threshold (diagnostics; a single noisy batch can trip this while
    /// the smoothed signal stays healthy).
    pub raw_violation: bool,
    /// Whether the *EWMA-smoothed* estimate violates the threshold — the
    /// signal the debounce streak and the alarm are driven by.
    pub smoothed_violation: bool,
    /// Whether the debounced alarm is firing.
    pub alarm: bool,
    /// The calibrated serving interval, when the batch was scored through
    /// an interval-producing path (always under [`AlarmMode::Interval`]
    /// except for bare [`BatchMonitor::observe_estimate`] updates; also
    /// carried diagnostically when [`BatchMonitor::observe_interval`] is
    /// used under the threshold policy). Degraded interval-mode batches
    /// carry an all-NaN [`ScoreInterval`], which serializes through the
    /// same NaN↔null convention as [`Self::estimate`].
    pub interval: Option<ScoreInterval>,
    /// Whether this batch was *degraded*: the estimate is withheld (NaN)
    /// because scoring failed terminally (remote serving failure) or
    /// produced no information (non-finite estimate). Degraded batches
    /// leave the EWMA and the violation streak untouched — they are
    /// evidence of infrastructure trouble, not of model-quality trouble.
    pub degraded: bool,
    /// Why the batch was degraded, when [`Self::degraded`] is set.
    pub degrade_reason: Option<String>,
    /// Streak state and per-class drift statistics for this batch.
    pub telemetry: BatchTelemetry,
}

/// What one batch contributed to the monitor, before the alarm policy
/// decides what its report carries.
enum Evidence {
    /// An interval scored by the monitor's own predictor, with the batch's
    /// per-class drift tests.
    Scored(ScoreInterval, Vec<ClassDrift>),
    /// An externally computed bare estimate.
    Estimate(f64),
    /// An externally computed, validated interval (all-NaN: degraded).
    Interval(ScoreInterval),
    /// A batch lost before it could be scored, and why.
    Degraded(String),
}

/// Tracks estimated scores across a stream of serving batches and raises
/// debounced alarms on sustained drops.
pub struct BatchMonitor {
    pub(crate) predictor: PerformancePredictor,
    pub(crate) policy: MonitorPolicy,
    history: Vec<BatchReport>,
    /// Oldest reports are dropped once `history` exceeds this bound;
    /// `None` keeps everything (library default — long-running daemons set
    /// a bound so an unbounded report stream cannot exhaust memory).
    history_limit: Option<usize>,
    pub(crate) smoothed: Option<f64>,
    pub(crate) violation_streak: usize,
    /// Total batches observed, including ones observed before a restart
    /// (restored from a [`MonitorArtifact`](crate::MonitorArtifact));
    /// `history` only holds this process's reports.
    pub(crate) batches_seen: usize,
    /// Model outputs on the reference (held-out test) frame, retained for
    /// per-class drift tests. `None` until
    /// [`Self::retain_reference_outputs`] is called. A restore carries the
    /// ECDF sketches over (they travel in the
    /// [`MonitorArtifact`](crate::MonitorArtifact)) but not the exact
    /// columns, so only sketched batches are drift-tested after one.
    pub(crate) reference: Option<OutputReference>,
    /// The currently open streaming window, `None` between windows.
    pub(crate) window: Option<BatchSketch>,
    /// Set when a chunk of the open window failed to score terminally; the
    /// window then finishes as a degraded report instead of an estimate
    /// computed from a sketch with silently missing rows.
    pub(crate) window_degraded: Option<String>,
    metrics: Option<MonitorMetrics>,
}

/// Pre-resolved registry handles for [`BatchMonitor::observe`]. All values
/// derive from seeded estimates, so none are volatile.
struct MonitorMetrics {
    /// `monitor.raw_score` — the latest raw estimate.
    raw: Gauge,
    /// `monitor.smoothed_score` — the latest EWMA value.
    smoothed: Gauge,
    /// `monitor.violation_streak` — the current debounce streak.
    streak: Gauge,
    /// `monitor.alarm_batches` — batches reported with the alarm firing.
    alarms: Counter,
    /// `monitor.batches_observed` — total batches observed.
    batches: Counter,
    /// `monitor.degraded_batches` — batches quarantined without an estimate.
    degraded: Counter,
    /// `monitor.interval_width` — width of the latest finite serving
    /// interval: the system's self-reported uncertainty, which widens
    /// under drift before the alarm fires.
    interval_width: Gauge,
    /// `monitor.coverage_violations` — interval-mode batches whose serving
    /// interval failed to cover the retained test score.
    coverage_violations: Counter,
    /// `monitor.chunks_observed` — row chunks folded into streaming windows.
    chunks: Counter,
    /// `monitor.chunk_rows` — total rows folded via the streaming path.
    chunk_rows: Counter,
    /// `monitor.sketch_merges` — shard sketches folded into fleet reports.
    sketch_merges: Counter,
    /// `monitor.window_sketch_bytes` — footprint of the open window sketch.
    window_bytes: Gauge,
    /// `monitor.chunk_latency` — wall-clock time per observed chunk.
    /// Deterministic snapshot views keep its call count and zero its
    /// wall-clock fields, as for every non-volatile histogram.
    chunk_latency: Histogram,
}

impl BatchMonitor {
    /// Wraps a fitted predictor with an alarm policy.
    pub fn new(predictor: PerformancePredictor, policy: MonitorPolicy) -> Result<Self, CoreError> {
        if !(0.0..1.0).contains(&policy.threshold) {
            return Err(CoreError::new("threshold must lie in [0, 1)"));
        }
        if policy.consecutive_violations == 0 {
            return Err(CoreError::new("need at least one violation to alarm"));
        }
        if !(0.0 < policy.ewma_alpha && policy.ewma_alpha <= 1.0) {
            return Err(CoreError::new("ewma_alpha must lie in (0, 1]"));
        }
        Ok(Self {
            predictor,
            policy,
            history: Vec::new(),
            history_limit: None,
            smoothed: None,
            violation_streak: 0,
            batches_seen: 0,
            reference: None,
            window: None,
            window_degraded: None,
            metrics: None,
        })
    }

    /// Registers the monitor's gauges and counters with `registry`
    /// (`monitor.raw_score`, `monitor.smoothed_score`,
    /// `monitor.violation_streak`, `monitor.alarm_batches`,
    /// `monitor.batches_observed`, `monitor.degraded_batches`, plus the
    /// interval-policy pair `monitor.interval_width` /
    /// `monitor.coverage_violations`), every name prefixed with `prefix`:
    /// `""` for a lone monitor, or e.g. `"tenant.acme.fraud.v3."` (giving
    /// `tenant.acme.fraud.v3.monitor.raw_score`) so one registry can host
    /// many monitors — one per deployment — without their gauges
    /// clobbering each other. All of them track seeded estimates, so they
    /// appear in deterministic snapshot views.
    pub fn attach_telemetry_prefixed(&mut self, registry: &Registry, prefix: &str) {
        self.metrics = Some(MonitorMetrics {
            raw: registry.gauge(&format!("{prefix}monitor.raw_score")),
            smoothed: registry.gauge(&format!("{prefix}monitor.smoothed_score")),
            streak: registry.gauge(&format!("{prefix}monitor.violation_streak")),
            alarms: registry.counter(&format!("{prefix}monitor.alarm_batches")),
            batches: registry.counter(&format!("{prefix}monitor.batches_observed")),
            degraded: registry.counter(&format!("{prefix}monitor.degraded_batches")),
            interval_width: registry.gauge(&format!("{prefix}monitor.interval_width")),
            coverage_violations: registry.counter(&format!("{prefix}monitor.coverage_violations")),
            chunks: registry.counter(&format!("{prefix}monitor.chunks_observed")),
            chunk_rows: registry.counter(&format!("{prefix}monitor.chunk_rows")),
            sketch_merges: registry.counter(&format!("{prefix}monitor.sketch_merges")),
            window_bytes: registry.gauge(&format!("{prefix}monitor.window_sketch_bytes")),
            chunk_latency: registry.histogram(&format!("{prefix}monitor.chunk_latency")),
        });
    }

    /// Bounds [`Self::history`] to the most recent `limit` reports (`None`
    /// keeps everything). [`BatchReport::batch_index`] stays absolute, so
    /// trimmed history still identifies batches unambiguously.
    pub fn set_history_limit(&mut self, limit: Option<usize>) {
        self.history_limit = limit;
        self.trim_history();
    }

    fn trim_history(&mut self) {
        if let Some(limit) = self.history_limit {
            if self.history.len() > limit {
                let excess = self.history.len() - limit;
                self.history.drain(..excess);
            }
        }
    }

    /// Computes and retains the model's outputs on `reference` (normally
    /// the held-out test frame the predictor was fitted on). Subsequent
    /// [`Self::observe`] calls run a per-class KS drift test of each
    /// batch's output distribution against these columns and attach the
    /// results to [`BatchReport::telemetry`].
    pub fn retain_reference_outputs(&mut self, reference: &DataFrame) -> Result<(), CoreError> {
        let outputs = self.predictor.model_outputs(reference)?;
        self.reference = Some(OutputReference::from_outputs(&outputs));
        Ok(())
    }

    /// Scores one serving batch and updates the alarm state.
    ///
    /// A *terminal serving failure* (the predictor's model exhausted its
    /// retries against a remote endpoint — recognizable by the typed
    /// [`lvp_models::ModelError`] on the error's source chain) does not
    /// abort the monitoring run: the batch is quarantined and reported as a
    /// degraded [`BatchReport`] — estimate withheld, EWMA and violation
    /// streak untouched, reason recorded. Caller-side errors (empty batch,
    /// schema mismatch) stay hard errors: retrying or skipping cannot make
    /// an incompatible frame scoreable.
    pub fn observe(&mut self, batch: &DataFrame) -> Result<BatchReport, CoreError> {
        match self.predictor.model_outputs(batch) {
            Ok(proba) => self.observe_outputs(&proba),
            Err(err) => match err.model_error() {
                Some(cause) => Ok(self.record(Evidence::Degraded(format!(
                    "serving failure on batch {}: {}",
                    self.batches_seen, cause.message
                )))),
                None => Err(err),
            },
        }
    }

    /// Scores a batch of already-computed model outputs (e.g. when the
    /// model serves in a different process and only its probability matrix
    /// reaches the monitor) and updates the alarm state. Runs the
    /// per-class drift tests when reference outputs are retained.
    pub fn observe_outputs(&mut self, proba: &DenseMatrix) -> Result<BatchReport, CoreError> {
        self.report_source(&FeatureSource::Exact(proba))
    }

    /// Records a batch that was lost before it could be scored — shed by
    /// an admission controller, dropped by an upstream queue — as a
    /// degraded [`BatchReport`]: estimate withheld (NaN), `reason`
    /// recorded, EWMA and violation streak untouched. The loss thereby
    /// shows up in the history and the degraded-batch counter instead of
    /// being silently dropped.
    pub fn observe_degraded(&mut self, reason: impl Into<String>) -> BatchReport {
        self.record(Evidence::Degraded(reason.into()))
    }

    /// Updates the monitor from an externally computed estimate (e.g. when
    /// the predictor runs in a different process).
    ///
    /// The very first finite estimate seeds the EWMA directly (no zero-init
    /// bias: `smoothed == estimate` for batch 0, so a healthy first batch
    /// can never trip the smoothed signal). A non-finite estimate carries no
    /// information and is quarantined: it is reported verbatim but not folded
    /// into the EWMA — one NaN would otherwise poison every subsequent
    /// smoothed value — and it neither extends nor resets the streak.
    ///
    /// A bare estimate carries no interval, so under
    /// [`AlarmMode::Interval`] the violation check falls back to the
    /// threshold cutoff for these batches; callers with interval-producing
    /// remote predictors should use [`Self::observe_interval`] instead.
    pub fn observe_estimate(&mut self, estimate: f64) -> BatchReport {
        self.record(Evidence::Estimate(estimate))
    }

    /// Updates the monitor from an externally computed [`ScoreInterval`]
    /// (e.g. when the predictor runs in a different process — the interval
    /// counterpart of [`Self::observe_estimate`]).
    ///
    /// Being an external entry point, the interval is validated first:
    /// `lo ≤ point ≤ hi` with all bounds finite — or all NaN, which is
    /// recorded as a degraded batch — and `alpha` in `(0, 1)`; anything
    /// else is a typed [`CoreError`]. Valid intervals update the alarm
    /// state like any internally scored batch.
    pub fn observe_interval(&mut self, interval: ScoreInterval) -> Result<BatchReport, CoreError> {
        interval.validate()?;
        Ok(self.record(Evidence::Interval(interval)))
    }

    /// Folds one chunk of serving rows into the open streaming window
    /// (opening one if none is open), in fixed memory: only the window's
    /// [`BatchSketch`] is retained, never the rows or outputs themselves.
    ///
    /// A terminal serving failure on a chunk poisons the *window*, not the
    /// run: remaining chunks are accepted (and counted) but
    /// [`Self::finish_window`] then yields a degraded report — an estimate
    /// computed from a sketch with silently missing rows would understate
    /// drift. Caller-side errors (schema mismatch) stay hard errors.
    pub fn observe_chunk(&mut self, chunk: &DataFrame) -> Result<(), CoreError> {
        let started = Instant::now();
        let proba = match self.predictor.model_outputs(chunk) {
            Ok(proba) => proba,
            Err(err) => {
                return match err.model_error() {
                    Some(cause) => {
                        self.poison_window(format!(
                            "serving failure on chunk of window {}: {}",
                            self.batches_seen, cause.message
                        ));
                        self.note_chunk(0, started);
                        Ok(())
                    }
                    None => Err(err),
                };
            }
        };
        self.fold_output_chunk(&proba)?;
        self.note_chunk(proba.rows(), started);
        Ok(())
    }

    /// Folds one chunk of already-computed model outputs into the open
    /// window (e.g. when the model serves in a different process and only
    /// its outputs reach the monitor).
    ///
    /// A zero-row chunk is a no-op: it neither opens nor extends a window.
    pub fn observe_output_chunk(&mut self, proba: &DenseMatrix) -> Result<(), CoreError> {
        let started = Instant::now();
        self.fold_output_chunk(proba)?;
        self.note_chunk(proba.rows(), started);
        Ok(())
    }

    fn fold_output_chunk(&mut self, proba: &DenseMatrix) -> Result<(), CoreError> {
        if proba.rows() == 0 {
            // A zero-row chunk carries no evidence. Folding it in would
            // open (or extend) a window whose every percentile feature is
            // the sketch's empty-state neutral value — `finish_window`
            // would then score that fabricated featurization as a real
            // (and terrible-looking) batch. No-op instead.
            return Ok(());
        }
        let window = self
            .window
            .get_or_insert_with(|| BatchSketch::new(self.predictor.n_classes()));
        window.observe_chunk(proba)
    }

    fn note_chunk(&mut self, rows: usize, started: Instant) {
        if let Some(m) = &self.metrics {
            m.chunks.inc();
            m.chunk_rows.add(rows as u64);
            if let Some(w) = &self.window {
                m.window_bytes.set(w.approx_bytes() as f64);
            }
            m.chunk_latency.record(started.elapsed());
        }
    }

    /// Marks the open window as unsalvageable (opening one if none is
    /// open, so the degradation is reported even when the first chunk
    /// failed); [`Self::finish_window`] will yield a degraded report.
    pub fn abandon_window(&mut self, reason: impl Into<String>) {
        self.poison_window(reason.into());
    }

    fn poison_window(&mut self, reason: String) {
        self.window
            .get_or_insert_with(|| BatchSketch::new(self.predictor.n_classes()));
        // First failure wins: the earliest reason is the root cause.
        self.window_degraded.get_or_insert(reason);
    }

    /// Closes the open streaming window: scores the accumulated sketch
    /// state, runs the per-class drift tests against the reference ECDFs
    /// (when retained), updates the alarm state, and resets the window.
    ///
    /// Errors when no window is open (no [`Self::observe_chunk`] since the
    /// last finish) — silently reporting on an empty window would look
    /// like a healthy batch.
    pub fn finish_window(&mut self) -> Result<BatchReport, CoreError> {
        let window = self
            .window
            .take()
            .ok_or_else(|| CoreError::new("no open streaming window to finish"))?;
        if let Some(reason) = self.window_degraded.take() {
            return Ok(self.record(Evidence::Degraded(reason)));
        }
        self.report_source(&FeatureSource::Sketched(&window))
    }

    /// Folds the window sketches of N independent shards into one
    /// fleet-level report, merging in slice order. Errors on an empty
    /// shard slice — there is no window state to report on.
    ///
    /// Because [`BatchSketch::merge`] is exactly associative and
    /// commutative, the merged state — and therefore the report — is
    /// bit-identical to what a single stream over every shard's rows would
    /// have produced, at any thread count and for any chunking.
    pub fn merge_shard_sketches(
        &mut self,
        shards: &[BatchSketch],
    ) -> Result<BatchReport, CoreError> {
        let Some((first, rest)) = shards.split_first() else {
            return Err(CoreError::new("no shard sketches to merge"));
        };
        let mut merged = first.clone();
        for shard in rest {
            merged.merge(shard)?;
        }
        if let Some(m) = &self.metrics {
            m.sketch_merges.add(shards.len() as u64);
        }
        self.report_source(&FeatureSource::Sketched(&merged))
    }

    /// Shared tail of every scoring path: interval estimate, per-class
    /// drift tests against the reference (when retained), alarm-state
    /// update.
    fn report_source(&mut self, source: &FeatureSource<'_>) -> Result<BatchReport, CoreError> {
        if matches!(source, FeatureSource::Sketched(sketch) if sketch.rows() == 0) {
            // Zero observed rows means every feature is the sketch's
            // empty-state neutral value; scoring it would fabricate a
            // batch out of nothing.
            return Err(CoreError::new(
                "cannot score a sketch with zero observed rows",
            ));
        }
        let interval = self.predictor.predict_source(source)?;
        let outcomes = match &self.reference {
            Some(reference) => reference.ks(source)?,
            None => Vec::new(),
        };
        let per_class_ks = outcomes
            .into_iter()
            .enumerate()
            .map(|(class, outcome)| ClassDrift {
                class,
                statistic: outcome.statistic,
                p_value: outcome.p_value,
            })
            .collect();
        Ok(self.record(Evidence::Scored(interval, per_class_ks)))
    }

    /// The currently open streaming window, if any.
    pub fn window(&self) -> Option<&BatchSketch> {
        self.window.as_ref()
    }

    /// Why the open window is poisoned, if it is.
    pub fn window_degraded(&self) -> Option<&str> {
        self.window_degraded.as_deref()
    }

    /// Folds one batch's evidence into the alarm state and history. The
    /// only reader of the policy's [`AlarmMode`]: it decides which interval
    /// the report carries and which violation rule applies.
    fn record(&mut self, evidence: Evidence) -> BatchReport {
        let interval_mode = matches!(self.policy.alarm_mode(), AlarmMode::Interval);
        let (estimate, interval, per_class_ks, degrade_reason) = match evidence {
            // Threshold-mode reports keep `interval: None` for scored
            // batches: the interval is computed, but not reported.
            Evidence::Scored(iv, ks) => (iv.point, interval_mode.then_some(iv), ks, None),
            Evidence::Estimate(estimate) => (estimate, None, Vec::new(), None),
            Evidence::Interval(iv) => (
                iv.point,
                Some(iv),
                Vec::new(),
                iv.is_degraded()
                    .then(|| "degraded interval quarantined".to_string()),
            ),
            // Degraded interval-mode batches carry an all-NaN interval —
            // bounds withheld like the estimate.
            Evidence::Degraded(reason) => (
                f64::NAN,
                interval_mode.then(|| ScoreInterval::degraded(self.predictor.interval_alpha())),
                Vec::new(),
                Some(reason),
            ),
        };
        let alpha = self.policy.ewma_alpha;
        // A batch is degraded when scoring failed (explicit reason) or the
        // estimate carries no information (non-finite). Either way it is
        // quarantined: reported, but never folded into the EWMA or streak.
        let finite = estimate.is_finite() && degrade_reason.is_none();
        let degrade_reason = degrade_reason
            .or_else(|| (!finite).then(|| "non-finite estimate quarantined".to_string()));
        // Under the interval policy the EWMA tracks the interval midpoint
        // (the center of the system's stated uncertainty); the raw point
        // estimate drives it otherwise.
        let signal = match &interval {
            Some(iv) if finite && interval_mode => iv.midpoint(),
            _ => estimate,
        };
        let smoothed = if finite {
            let next = match self.smoothed {
                Some(prev) => alpha * signal + (1.0 - alpha) * prev,
                None => signal,
            };
            self.smoothed = Some(next);
            next
        } else {
            // Report the last healthy EWMA (or the test score before any
            // observation) without mutating state.
            self.smoothed.unwrap_or_else(|| self.predictor.test_score())
        };

        let test_score = self.predictor.test_score();
        let (raw_violation, smoothed_violation) = match &interval {
            // Interval policy: a violation is the retained test score
            // escaping the serving interval — raw against the batch's own
            // interval, smoothed against that interval re-centered on the
            // EWMA midpoint. No tuned threshold involved.
            Some(iv) if finite && interval_mode => (
                !iv.contains(test_score),
                !iv.recentered(smoothed).contains(test_score),
            ),
            // Threshold policy (and interval-mode bare estimates, which
            // carry no interval): the legacy relative-drop cutoff.
            _ => {
                let cutoff = (1.0 - self.policy.threshold) * test_score;
                (finite && estimate < cutoff, finite && smoothed < cutoff)
            }
        };
        if finite {
            if smoothed_violation {
                self.violation_streak += 1;
            } else {
                self.violation_streak = 0;
            }
        }
        let report = BatchReport {
            batch_index: self.batches_seen,
            estimate,
            smoothed,
            raw_violation,
            smoothed_violation,
            alarm: self.violation_streak >= self.policy.consecutive_violations,
            interval,
            degraded: !finite,
            degrade_reason,
            telemetry: BatchTelemetry {
                violation_streak: self.violation_streak,
                per_class_ks,
            },
        };
        if let Some(m) = &self.metrics {
            if finite {
                m.raw.set(estimate);
                m.smoothed.set(smoothed);
                m.streak.set(self.violation_streak as f64);
                if let Some(iv) = &report.interval {
                    m.interval_width.set(iv.width());
                }
            } else {
                // Degraded batches leave the score gauges at their last
                // healthy values (a NaN gauge would also poison serialized
                // telemetry views).
                m.degraded.inc();
            }
            m.batches.inc();
            if report.alarm {
                m.alarms.inc();
            }
            if interval_mode && raw_violation {
                m.coverage_violations.inc();
            }
        }
        self.batches_seen += 1;
        self.history.push(report.clone());
        self.trim_history();
        report
    }

    /// All retained reports, in arrival order (bounded by
    /// [`Self::set_history_limit`]; everything by default).
    pub fn history(&self) -> &[BatchReport] {
        &self.history
    }

    /// Whether the alarm is currently firing.
    pub fn alarming(&self) -> bool {
        self.history.last().is_some_and(|r| r.alarm)
    }

    /// The underlying predictor.
    pub fn predictor(&self) -> &PerformancePredictor {
        &self.predictor
    }

    /// The configured policy.
    pub fn policy(&self) -> MonitorPolicy {
        self.policy
    }

    /// Total batches observed, including any observed before a restore.
    pub fn batches_seen(&self) -> usize {
        self.batches_seen
    }

    /// The current EWMA value, if any batch has been observed.
    pub fn smoothed(&self) -> Option<f64> {
        self.smoothed
    }

    /// The current consecutive-violation streak.
    pub fn violation_streak(&self) -> usize {
        self.violation_streak
    }

    /// Resets the alarm state, history and any open streaming window
    /// (e.g. after remediation).
    pub fn reset(&mut self) {
        self.history.clear();
        self.smoothed = None;
        self.violation_streak = 0;
        self.batches_seen = 0;
        self.window = None;
        self.window_degraded = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PredictorConfig;
    use lvp_corruptions::standard_tabular_suite;
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, BlackBoxModel, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Relative-drop cutoff used by the *legacy threshold-policy* tests.
    /// The predictor's calibration contract (see
    /// `clean_serving_data_scores_near_test_score` in predictor.rs) only
    /// bounds clean estimates within 0.15 of the test score, so these
    /// tests must hand-tune at least that much slack into the cutoff —
    /// exactly the tuning the interval policy (the `interval_policy_*`
    /// tests below) makes unnecessary.
    const LEGACY_THRESHOLD: f64 = 0.2;

    fn monitor(policy: MonitorPolicy) -> (BatchMonitor, lvp_dataframe::DataFrame) {
        let df = toy_frame(300);
        let mut rng = StdRng::seed_from_u64(31);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let predictor =
            PerformancePredictor::fit(model, &test, &gens, &PredictorConfig::fast(), &mut rng)
                .unwrap();
        (BatchMonitor::new(predictor, policy).unwrap(), serving)
    }

    #[test]
    fn clean_stream_never_alarms() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..5 {
            let report = m.observe(&serving.sample_n(100, &mut rng)).unwrap();
            assert!(!report.alarm, "{report:?}");
        }
        assert!(!m.alarming());
        assert_eq!(m.history().len(), 5);
    }

    #[test]
    fn sustained_corruption_alarms_after_debounce() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 2,
            ewma_alpha: 1.0,
            ..MonitorPolicy::default()
        });
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        let r1 = m.observe(&corrupted).unwrap();
        assert!(r1.raw_violation);
        assert!(r1.smoothed_violation);
        assert!(!r1.alarm, "first violation must not alarm yet");
        let r2 = m.observe(&corrupted).unwrap();
        assert!(r2.alarm, "second consecutive violation alarms");
        assert!(m.alarming());
    }

    #[test]
    fn recovery_clears_the_streak() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 2,
            ewma_alpha: 1.0,
            ..MonitorPolicy::default()
        });
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        m.observe(&corrupted).unwrap();
        m.observe(&serving).unwrap(); // recovery
        let r = m.observe(&corrupted).unwrap();
        assert!(!r.alarm, "streak was broken by the clean batch");
    }

    #[test]
    fn first_clean_batch_never_alarms_even_with_instant_debounce() {
        // Regression: with a zero-initialized EWMA the first smoothed value
        // would be α·estimate, far below the cutoff, and a policy with
        // consecutive_violations = 1 would page on a perfectly healthy first
        // batch. Seeding the EWMA with the raw estimate removes that bias.
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 1,
            ewma_alpha: 0.1, // small α maximizes the hypothetical init bias
            ..MonitorPolicy::default()
        });
        let mut rng = StdRng::seed_from_u64(35);
        let r = m.observe(&serving.sample_n(100, &mut rng)).unwrap();
        assert_eq!(
            r.smoothed, r.estimate,
            "batch 0 must seed the EWMA with the raw estimate"
        );
        assert!(!r.alarm, "{r:?}");
        assert!(!m.alarming());
    }

    #[test]
    fn nan_estimate_does_not_poison_the_ewma() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 2,
            ewma_alpha: 0.5,
            ..MonitorPolicy::default()
        });
        m.observe_estimate(0.9);
        let r_nan = m.observe_estimate(f64::NAN);
        assert!(r_nan.estimate.is_nan(), "reported verbatim");
        assert_eq!(r_nan.smoothed, 0.9, "EWMA untouched by the NaN");
        assert!(!r_nan.raw_violation && !r_nan.smoothed_violation && !r_nan.alarm);
        // The stream keeps working afterwards with finite smoothed values.
        let r = m.observe_estimate(0.7);
        assert!((r.smoothed - 0.8).abs() < 1e-12, "{r:?}");
        assert!(r.smoothed.is_finite());
    }

    #[test]
    fn nan_estimate_neither_extends_nor_resets_the_streak() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 2,
            ewma_alpha: 1.0,
            ..MonitorPolicy::default()
        });
        m.observe_estimate(0.0); // violation, streak = 1
        assert_eq!(m.violation_streak(), 1);
        m.observe_estimate(f64::INFINITY); // no information
        assert_eq!(m.violation_streak(), 1, "streak held, not reset");
        let r = m.observe_estimate(0.0); // second real violation
        assert!(r.alarm, "{r:?}");
    }

    #[test]
    fn nan_before_any_finite_estimate_is_harmless() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 1,
            ewma_alpha: 0.5,
            ..MonitorPolicy::default()
        });
        let r = m.observe_estimate(f64::NAN);
        assert!(!r.alarm && !r.smoothed_violation, "{r:?}");
        assert!(r.smoothed.is_finite());
        assert_eq!(m.smoothed(), None, "EWMA still unseeded");
        // The next finite estimate seeds the EWMA exactly.
        let r = m.observe_estimate(0.85);
        assert_eq!(r.smoothed, 0.85);
    }

    #[test]
    fn ewma_smooths_estimates() {
        let (mut m, _) = monitor(MonitorPolicy {
            ewma_alpha: 0.5,
            ..MonitorPolicy::default()
        });
        let r1 = m.observe_estimate(1.0);
        assert_eq!(r1.smoothed, 1.0);
        let r2 = m.observe_estimate(0.0);
        assert!((r2.smoothed - 0.5).abs() < 1e-12);
        let r3 = m.observe_estimate(0.0);
        assert!((r3.smoothed - 0.25).abs() < 1e-12);
    }

    #[test]
    fn raw_and_smoothed_violations_can_diverge() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 2,
            ewma_alpha: 0.2,
            ..MonitorPolicy::default()
        });
        // Warm the EWMA well above the cutoff, then inject one terrible
        // batch: the raw estimate violates, the smoothed signal holds
        // (with α = 0.2 the EWMA only drops to 0.8, above the cutoff
        // (1 − 0.2) · test_score ≤ 0.8).
        m.observe_estimate(1.0);
        let r = m.observe_estimate(0.0);
        assert!(r.raw_violation, "{r:?}");
        assert!(!r.smoothed_violation, "{r:?}");
        assert_eq!(
            m.violation_streak(),
            0,
            "streak follows the smoothed signal"
        );
    }

    #[test]
    fn attached_registry_tracks_scores_streak_and_alarms() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 2,
            ewma_alpha: 1.0,
            ..MonitorPolicy::default()
        });
        let registry = Registry::new();
        m.attach_telemetry_prefixed(&registry, "");
        m.observe_estimate(0.9);
        m.observe_estimate(0.0);
        let r = m.observe_estimate(0.0);
        assert!(r.alarm);
        assert_eq!(r.telemetry.violation_streak, 2);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["monitor.batches_observed"], 3);
        assert_eq!(snap.counters["monitor.alarm_batches"], 1);
        assert_eq!(snap.gauges["monitor.raw_score"], 0.0);
        assert_eq!(snap.gauges["monitor.smoothed_score"], 0.0);
        assert_eq!(snap.gauges["monitor.violation_streak"], 2.0);
        // Monitor metrics derive from seeded estimates → none are volatile.
        assert!(snap.volatile.is_empty());
    }

    #[test]
    fn reference_outputs_enable_per_class_drift_tests() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        let mut rng = StdRng::seed_from_u64(36);
        // Without retained reference outputs the drift list stays empty.
        let r = m.observe(&serving.sample_n(80, &mut rng)).unwrap();
        assert!(r.telemetry.per_class_ks.is_empty());

        m.retain_reference_outputs(&serving).unwrap();
        let clean = m.observe(&serving.sample_n(80, &mut rng)).unwrap();
        assert_eq!(clean.telemetry.per_class_ks.len(), 2, "one test per class");
        for drift in &clean.telemetry.per_class_ks {
            assert!(drift.statistic.is_finite() && drift.p_value.is_finite());
            assert!(
                drift.p_value > 0.01,
                "clean subsample must not look drifted: {drift:?}"
            );
        }

        // Wipe the label-revealing column: outputs shift, KS notices.
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        let drifted = m.observe(&corrupted).unwrap();
        assert!(
            drifted
                .telemetry
                .per_class_ks
                .iter()
                .any(|d| d.p_value < 0.01),
            "{:?}",
            drifted.telemetry.per_class_ks
        );
    }

    #[test]
    fn single_row_batches_flow_through_the_monitor_without_nan() {
        // End-to-end exercise of the small-sample stats fixes: a one-row
        // serving batch produces one-element percentile inputs and
        // one-element KS samples (λ deep in the small-λ regime). Everything
        // must stay finite and alarm-free on clean data.
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            consecutive_violations: 1,
            ewma_alpha: 1.0,
            ..MonitorPolicy::default()
        });
        m.retain_reference_outputs(&serving).unwrap();
        let mut rng = StdRng::seed_from_u64(37);
        for _ in 0..3 {
            let r = m.observe(&serving.sample_n(1, &mut rng)).unwrap();
            assert!(r.estimate.is_finite() && r.smoothed.is_finite(), "{r:?}");
            for drift in &r.telemetry.per_class_ks {
                assert!(drift.p_value.is_finite(), "{drift:?}");
                assert!(
                    drift.p_value > 0.05,
                    "a single row cannot evidence drift: {drift:?}"
                );
            }
        }
    }

    /// A remote-endpoint stand-in that fails terminally whenever a batch
    /// has exactly `poison_rows` rows (content-dependent, like a poisoned
    /// key under a real fault plan).
    struct FailOnRows {
        inner: Arc<dyn BlackBoxModel>,
        poison_rows: usize,
    }

    impl BlackBoxModel for FailOnRows {
        fn predict_proba(&self, data: &lvp_dataframe::DataFrame) -> lvp_linalg::DenseMatrix {
            self.try_predict_proba(data).unwrap()
        }
        fn try_predict_proba(
            &self,
            data: &lvp_dataframe::DataFrame,
        ) -> Result<lvp_linalg::DenseMatrix, lvp_models::ModelError> {
            if data.n_rows() == self.poison_rows {
                return Err(lvp_models::ModelError::transient(
                    "endpoint down: retry budget exhausted",
                ));
            }
            Ok(self.inner.predict_proba(data))
        }
        fn n_classes(&self) -> usize {
            self.inner.n_classes()
        }
        fn name(&self) -> &str {
            "fail-on-rows"
        }
        fn rows_are_independent(&self) -> bool {
            false // failures depend on the batch size
        }
    }

    #[test]
    fn terminal_serving_failure_degrades_the_batch_not_the_run() {
        let df = toy_frame(300);
        let mut rng = StdRng::seed_from_u64(41);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> = Arc::new(FailOnRows {
            inner: Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap()),
            // Fit-time batches of the 90-row test frame hold ≥ 30 rows, so
            // only the 13-row serving batches below ever hit the poison.
            poison_rows: 13,
        });
        let gens = standard_tabular_suite(test.schema());
        let predictor =
            PerformancePredictor::fit(model, &test, &gens, &PredictorConfig::fast(), &mut rng)
                .unwrap();
        let mut m = BatchMonitor::new(
            predictor,
            MonitorPolicy {
                threshold: LEGACY_THRESHOLD,
                consecutive_violations: 2,
                ewma_alpha: 0.5,
                ..MonitorPolicy::default()
            },
        )
        .unwrap();

        let healthy = m.observe(&serving.sample_n(100, &mut rng)).unwrap();
        assert!(!healthy.degraded && healthy.degrade_reason.is_none());
        let ewma_before = m.smoothed();
        let streak_before = m.violation_streak();

        // The poisoned batch degrades instead of aborting the run.
        let r = m.observe(&serving.sample_n(13, &mut rng)).unwrap();
        assert!(r.degraded, "{r:?}");
        assert!(r.estimate.is_nan(), "estimate withheld");
        assert!(
            r.degrade_reason
                .as_deref()
                .unwrap()
                .contains("endpoint down"),
            "{r:?}"
        );
        assert_eq!(
            r.smoothed,
            ewma_before.unwrap(),
            "last healthy EWMA reported"
        );
        assert_eq!(m.smoothed(), ewma_before, "EWMA untouched");
        assert_eq!(m.violation_streak(), streak_before, "streak untouched");
        assert!(!r.alarm);
        assert_eq!(m.batches_seen(), 2, "degraded batches still count");

        // The stream recovers seamlessly afterwards.
        let r = m.observe(&serving.sample_n(100, &mut rng)).unwrap();
        assert!(!r.degraded && r.estimate.is_finite());

        // Caller-side errors stay hard: an empty batch is not degradable.
        let err = m.observe(&serving.select_rows(&[])).unwrap_err();
        assert!(err.model_error().is_none());
        assert!(err.message.contains("empty"), "{err}");
    }

    #[test]
    fn degraded_batches_are_counted_and_leave_gauges_healthy() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        let registry = Registry::new();
        m.attach_telemetry_prefixed(&registry, "");
        m.observe_estimate(0.9);
        let r = m.observe_estimate(f64::NAN);
        assert!(r.degraded);
        assert_eq!(
            r.degrade_reason.as_deref(),
            Some("non-finite estimate quarantined")
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counters["monitor.degraded_batches"], 1);
        assert_eq!(snap.counters["monitor.batches_observed"], 2);
        // Score gauges keep their last healthy values (no NaN leaks into
        // serialized telemetry views).
        assert_eq!(snap.gauges["monitor.raw_score"], 0.9);
        assert!(snap.gauges["monitor.smoothed_score"].is_finite());
    }

    #[test]
    fn reset_clears_state() {
        let (mut m, serving) = monitor(MonitorPolicy::default());
        let mut rng = StdRng::seed_from_u64(33);
        m.observe(&serving.sample_n(50, &mut rng)).unwrap();
        m.observe_chunk(&serving).unwrap();
        m.reset();
        assert!(m.history().is_empty());
        assert!(!m.alarming());
        assert!(m.window().is_none());
    }

    #[test]
    fn streamed_window_matches_materialized_batch_estimate() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        // Stream the batch through in chunks...
        let rows: Vec<usize> = (0..serving.n_rows()).collect();
        for chunk in rows.chunks(17) {
            m.observe_chunk(&serving.select_rows(chunk)).unwrap();
        }
        assert_eq!(
            m.window().unwrap().rows(),
            serving.n_rows() as u64,
            "all rows folded in"
        );
        let streamed = m.finish_window().unwrap();
        assert!(m.window().is_none(), "window closed");
        assert!(streamed.estimate.is_finite());
        // ...and score the identical sketch state directly: the report's
        // estimate must match bit for bit (same sketch → same features).
        let proba = m.predictor().model_outputs(&serving).unwrap();
        let direct = m
            .predictor()
            .predict_source(&FeatureSource::Sketched(&BatchSketch::from_outputs(&proba)))
            .map(|interval| interval.point);
        assert_eq!(streamed.estimate.to_bits(), direct.unwrap().to_bits());
        // A healthy full serving frame stays alarm-free.
        assert!(!streamed.alarm, "{streamed:?}");
    }

    #[test]
    fn finishing_without_a_window_is_an_error() {
        let (mut m, _) = monitor(MonitorPolicy::default());
        assert!(m.finish_window().is_err());
    }

    #[test]
    fn zero_row_output_chunks_are_a_no_op() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        let proba = m.predictor().model_outputs(&serving).unwrap();
        let empty = proba.select_rows(&[]);
        // Pre-fix this opened a window whose finish scored the sketch's
        // all-neutral empty featurization as a real (terrible) batch.
        m.observe_output_chunk(&empty).unwrap();
        assert!(m.window().is_none(), "empty chunk must not open a window");
        assert!(m.finish_window().is_err(), "nothing to finish");
        // Interleaved with real rows, empty chunks change nothing.
        m.observe_output_chunk(&empty).unwrap();
        m.observe_output_chunk(&proba).unwrap();
        m.observe_output_chunk(&empty).unwrap();
        assert_eq!(m.window().unwrap().rows(), proba.rows() as u64);
        let streamed = m.finish_window().unwrap();
        assert!(!streamed.degraded && streamed.estimate.is_finite());
        let direct = m
            .predictor()
            .predict_source(&FeatureSource::Sketched(&BatchSketch::from_outputs(&proba)))
            .map(|interval| interval.point)
            .unwrap();
        assert_eq!(streamed.estimate.to_bits(), direct.to_bits());
        // The frame-level chunk path keeps its typed caller error.
        let err = m.observe_chunk(&serving.select_rows(&[])).unwrap_err();
        assert!(err.message.contains("empty"), "{err}");
    }

    #[test]
    fn merging_zero_shards_is_a_typed_error() {
        let (mut m, _) = monitor(MonitorPolicy::default());
        let err = m.merge_shard_sketches(&[]).unwrap_err();
        assert!(err.message.contains("no shard sketches"), "{err}");
        assert_eq!(m.batches_seen(), 0, "failed merges consume no batch index");
        assert!(m.history().is_empty());
    }

    #[test]
    fn merging_only_empty_sketches_is_a_typed_error() {
        let (mut m, _) = monitor(MonitorPolicy::default());
        let n = m.predictor().n_classes();
        let err = m
            .merge_shard_sketches(&[BatchSketch::new(n), BatchSketch::new(n)])
            .unwrap_err();
        assert!(err.message.contains("zero observed rows"), "{err}");
        assert_eq!(m.batches_seen(), 0);
    }

    #[test]
    fn history_limit_bounds_retention_with_absolute_indices() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        m.set_history_limit(Some(3));
        for i in 0..7 {
            m.observe_estimate(0.8 + 0.01 * i as f64);
        }
        assert_eq!(m.history().len(), 3, "history bounded");
        assert_eq!(m.batches_seen(), 7, "absolute count unaffected");
        let indices: Vec<usize> = m.history().iter().map(|r| r.batch_index).collect();
        assert_eq!(indices, vec![4, 5, 6], "most recent reports retained");
        // Tightening the limit trims immediately; lifting it stops trimming.
        m.set_history_limit(Some(1));
        assert_eq!(m.history().len(), 1);
        m.set_history_limit(None);
        m.observe_estimate(0.9);
        assert_eq!(m.history().len(), 2);
    }

    #[test]
    fn batch_report_serde_round_trips_including_nan_estimate() {
        let (mut m, _) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        m.observe_estimate(0.9);
        let degraded = m.observe_estimate(f64::NAN);
        for report in m.history() {
            let json = serde_json::to_string(report).unwrap();
            let back: BatchReport = serde_json::from_str(&json).unwrap();
            // NaN != NaN, so compare degraded reports field by field.
            assert_eq!(back.batch_index, report.batch_index);
            assert_eq!(back.estimate.is_nan(), report.estimate.is_nan());
            if !report.estimate.is_nan() {
                assert_eq!(back, *report);
            }
            assert_eq!(back.degrade_reason, report.degrade_reason);
            assert_eq!(back.telemetry, report.telemetry);
        }
        assert!(degraded.degraded);
    }

    #[test]
    fn merged_shards_report_bit_identically_to_a_single_stream() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        m.retain_reference_outputs(&serving).unwrap();
        let rows: Vec<usize> = (0..serving.n_rows()).collect();

        // One monitor-level stream over everything...
        for chunk in rows.chunks(13) {
            m.observe_chunk(&serving.select_rows(chunk)).unwrap();
        }
        let single = m.finish_window().unwrap();

        // ...versus 4 shards, each sketching independently.
        let proba = m.predictor().model_outputs(&serving).unwrap();
        let shards: Vec<BatchSketch> = rows
            .chunks(rows.len().div_ceil(4))
            .map(|shard_rows| BatchSketch::from_outputs(&proba.select_rows(shard_rows)))
            .collect();
        assert_eq!(shards.len(), 4);
        let merged = m.merge_shard_sketches(&shards).unwrap();

        assert_eq!(single.estimate.to_bits(), merged.estimate.to_bits());
        assert_eq!(
            single.telemetry.per_class_ks, merged.telemetry.per_class_ks,
            "sketched drift tests agree exactly"
        );
    }

    #[test]
    fn chunk_serving_failure_degrades_the_window_not_the_run() {
        let df = toy_frame(300);
        let mut rng = StdRng::seed_from_u64(51);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> = Arc::new(FailOnRows {
            inner: Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap()),
            poison_rows: 13,
        });
        let gens = standard_tabular_suite(test.schema());
        let predictor =
            PerformancePredictor::fit(model, &test, &gens, &PredictorConfig::fast(), &mut rng)
                .unwrap();
        let mut m = BatchMonitor::new(
            predictor,
            MonitorPolicy {
                threshold: LEGACY_THRESHOLD,
                ..MonitorPolicy::default()
            },
        )
        .unwrap();

        m.observe_chunk(&serving.sample_n(50, &mut rng)).unwrap();
        m.observe_chunk(&serving.sample_n(13, &mut rng)).unwrap(); // poisoned
        m.observe_chunk(&serving.sample_n(50, &mut rng)).unwrap();
        let r = m.finish_window().unwrap();
        assert!(r.degraded, "{r:?}");
        assert!(r.estimate.is_nan(), "estimate withheld");
        assert!(
            r.degrade_reason
                .as_deref()
                .unwrap()
                .contains("endpoint down"),
            "{r:?}"
        );

        // The next window is clean and recovers seamlessly.
        m.observe_chunk(&serving.sample_n(50, &mut rng)).unwrap();
        let r = m.finish_window().unwrap();
        assert!(!r.degraded && r.estimate.is_finite(), "{r:?}");
    }

    #[test]
    fn abandoned_window_reports_degraded() {
        let (mut m, serving) = monitor(MonitorPolicy::default());
        m.observe_chunk(&serving).unwrap();
        m.abandon_window("upstream queue lost the tail of the window");
        let r = m.finish_window().unwrap();
        assert!(r.degraded);
        assert_eq!(
            r.degrade_reason.as_deref(),
            Some("upstream queue lost the tail of the window")
        );
    }

    #[test]
    fn streaming_telemetry_tracks_chunks_rows_and_footprint() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        let registry = Registry::new();
        m.attach_telemetry_prefixed(&registry, "");
        let rows: Vec<usize> = (0..serving.n_rows()).collect();
        for chunk in rows.chunks(20) {
            m.observe_chunk(&serving.select_rows(chunk)).unwrap();
        }
        let expected_bytes = m.window().unwrap().approx_bytes();
        m.finish_window().unwrap();
        let shard = BatchSketch::from_outputs(&m.predictor().model_outputs(&serving).unwrap());
        m.merge_shard_sketches(&[shard]).unwrap();
        let snap = registry.snapshot();
        assert_eq!(
            snap.counters["monitor.chunks_observed"],
            rows.len().div_ceil(20) as u64
        );
        assert_eq!(snap.counters["monitor.chunk_rows"], rows.len() as u64);
        assert_eq!(snap.counters["monitor.sketch_merges"], 1);
        assert_eq!(
            snap.gauges["monitor.window_sketch_bytes"],
            expected_bytes as f64
        );
        // Chunk latency records wall-clock per chunk; the deterministic
        // view keeps its call count but strips the durations.
        let latency = &snap.histograms["monitor.chunk_latency"];
        assert_eq!(latency.count, rows.len().div_ceil(20) as u64);
    }

    #[test]
    fn invalid_policies_are_rejected() {
        let (m, _) = monitor(MonitorPolicy::default());
        let predictor_policy_pairs = [
            MonitorPolicy {
                threshold: 1.0,
                ..MonitorPolicy::default()
            },
            MonitorPolicy {
                consecutive_violations: 0,
                ..MonitorPolicy::default()
            },
            MonitorPolicy {
                ewma_alpha: 0.0,
                ..MonitorPolicy::default()
            },
        ];
        // Rebuild monitors from the same predictor is not possible (moved),
        // so validate policies via a fresh fit each time.
        drop(m);
        for policy in predictor_policy_pairs {
            let df = toy_frame(120);
            let mut rng = StdRng::seed_from_u64(34);
            let model: Arc<dyn BlackBoxModel> =
                Arc::from(train_model(ModelKind::Lr, &df, &mut rng).unwrap());
            let gens = standard_tabular_suite(df.schema());
            let predictor =
                PerformancePredictor::fit(model, &df, &gens, &PredictorConfig::fast(), &mut rng)
                    .unwrap();
            assert!(BatchMonitor::new(predictor, policy).is_err(), "{policy:?}");
        }
    }

    #[test]
    fn interval_policy_covers_clean_batches_without_a_tuned_threshold() {
        // The honest version of the old LEGACY_THRESHOLD contract: at seed
        // 31 the calibrated interval must itself cover the retained test
        // score on clean serving data — no hand-tuned slack anywhere.
        let (mut m, serving) = monitor(MonitorPolicy::default().with_interval_alarm());
        assert_eq!(m.policy().alarm_mode(), AlarmMode::Interval);
        let test_score = m.predictor().test_score();
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..5 {
            let r = m.observe(&serving.sample_n(100, &mut rng)).unwrap();
            let iv = r
                .interval
                .expect("interval-policy reports carry the interval");
            iv.validate().unwrap();
            assert_eq!(r.estimate.to_bits(), iv.point.to_bits());
            assert!(
                iv.contains(test_score),
                "clean interval [{}, {}] must cover test score {test_score}",
                iv.lo,
                iv.hi
            );
            assert!(
                !r.raw_violation && !r.smoothed_violation && !r.alarm,
                "{r:?}"
            );
        }
        assert!(!m.alarming());
    }

    #[test]
    fn interval_policy_flags_sustained_drift_after_debounce() {
        // The PR 1 drift scenario, without any hand-tuned threshold:
        // wiping the label-revealing column must push the serving interval
        // entirely below the retained test score.
        let (mut m, serving) = monitor(
            MonitorPolicy {
                consecutive_violations: 2,
                ewma_alpha: 1.0,
                ..MonitorPolicy::default()
            }
            .with_interval_alarm(),
        );
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        let r1 = m.observe(&corrupted).unwrap();
        let iv = r1.interval.unwrap();
        assert!(
            !iv.contains(m.predictor().test_score()),
            "corrupted interval [{}, {}] still covers test score {}",
            iv.lo,
            iv.hi,
            m.predictor().test_score()
        );
        assert!(r1.raw_violation && r1.smoothed_violation);
        assert!(!r1.alarm, "first violation must not alarm yet");
        let r2 = m.observe(&corrupted).unwrap();
        assert!(r2.alarm, "second consecutive violation alarms");
        assert!(m.alarming());
        // Recovery on clean data clears the streak, as under the old policy.
        let clean = m.observe(&serving).unwrap();
        assert!(!clean.smoothed_violation && !clean.alarm, "{clean:?}");
    }

    #[test]
    fn interval_policy_ewma_smooths_the_midpoint() {
        let (mut m, serving) = monitor(
            MonitorPolicy {
                ewma_alpha: 0.5,
                ..MonitorPolicy::default()
            }
            .with_interval_alarm(),
        );
        let mut rng = StdRng::seed_from_u64(38);
        let r1 = m.observe(&serving.sample_n(80, &mut rng)).unwrap();
        let m1 = r1.interval.unwrap().midpoint();
        assert_eq!(
            r1.smoothed.to_bits(),
            m1.to_bits(),
            "batch 0 seeds the EWMA with the interval midpoint"
        );
        let r2 = m.observe(&serving.sample_n(80, &mut rng)).unwrap();
        let m2 = r2.interval.unwrap().midpoint();
        assert!(
            (r2.smoothed - (0.5 * m2 + 0.5 * m1)).abs() < 1e-15,
            "{r2:?}"
        );
    }

    #[test]
    fn interval_policy_telemetry_tracks_width_and_coverage() {
        let (mut m, serving) = monitor(
            MonitorPolicy {
                consecutive_violations: 2,
                ewma_alpha: 1.0,
                ..MonitorPolicy::default()
            }
            .with_interval_alarm(),
        );
        let registry = Registry::new();
        m.attach_telemetry_prefixed(&registry, "");
        let mut rng = StdRng::seed_from_u64(39);
        let clean = m.observe(&serving.sample_n(100, &mut rng)).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["monitor.coverage_violations"], 0);
        assert_eq!(
            snap.gauges["monitor.interval_width"],
            clean.interval.unwrap().width()
        );
        let mut corrupted = serving.clone();
        for row in 0..corrupted.n_rows() {
            corrupted.column_mut(1).set_null(row);
        }
        m.observe(&corrupted).unwrap();
        m.observe(&corrupted).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["monitor.coverage_violations"], 2);
        assert_eq!(snap.counters["monitor.alarm_batches"], 1);
        // Interval metrics derive from seeded estimates → not volatile.
        assert!(snap.volatile.is_empty());
    }

    #[test]
    fn observe_interval_validates_external_intervals() {
        let (mut m, _) = monitor(MonitorPolicy::default().with_interval_alarm());
        let test_score = m.predictor().test_score();
        // A healthy external interval around the test score is recorded.
        let good = ScoreInterval {
            point: test_score,
            lo: test_score - 0.05,
            hi: test_score + 0.05,
            alpha: 0.1,
        };
        let r = m.observe_interval(good).unwrap();
        assert!(!r.raw_violation && !r.degraded, "{r:?}");
        assert_eq!(r.interval, Some(good));
        // Inconsistent intervals are typed errors and consume no batch index.
        let bad = ScoreInterval {
            point: 0.9,
            lo: 0.5,
            hi: 0.8,
            alpha: 0.1,
        };
        let err = m.observe_interval(bad).unwrap_err();
        assert!(err.message.contains("lo ≤ point ≤ hi"), "{err}");
        let mixed = ScoreInterval {
            point: f64::NAN,
            lo: 0.5,
            hi: 0.8,
            alpha: 0.1,
        };
        let err = m.observe_interval(mixed).unwrap_err();
        assert!(err.message.contains("all finite or all NaN"), "{err}");
        let bad_alpha = ScoreInterval {
            point: 0.7,
            lo: 0.6,
            hi: 0.8,
            alpha: 1.5,
        };
        assert!(m.observe_interval(bad_alpha).is_err());
        assert_eq!(
            m.batches_seen(),
            1,
            "rejected intervals consume no batch index"
        );
        // An all-NaN interval is a degraded batch, like a NaN estimate.
        let r = m.observe_interval(ScoreInterval::degraded(0.1)).unwrap();
        assert!(r.degraded && r.estimate.is_nan(), "{r:?}");
        assert_eq!(
            r.degrade_reason.as_deref(),
            Some("degraded interval quarantined")
        );
        assert!(r.interval.unwrap().is_degraded());
        assert_eq!(m.batches_seen(), 2);
    }

    #[test]
    fn interval_policy_streams_and_shard_merges_carry_the_interval() {
        let (mut m, serving) = monitor(MonitorPolicy::default().with_interval_alarm());
        let rows: Vec<usize> = (0..serving.n_rows()).collect();
        for chunk in rows.chunks(17) {
            m.observe_chunk(&serving.select_rows(chunk)).unwrap();
        }
        let streamed = m.finish_window().unwrap();
        let iv = streamed.interval.unwrap();
        iv.validate().unwrap();
        assert_eq!(streamed.estimate.to_bits(), iv.point.to_bits());
        // The direct sketch path produces the identical interval.
        let proba = m.predictor().model_outputs(&serving).unwrap();
        let direct = m
            .predictor()
            .predict_source(&FeatureSource::Sketched(&BatchSketch::from_outputs(&proba)))
            .unwrap();
        assert_eq!(iv, direct);
        // Shard merges route through the same interval path.
        let merged = m
            .merge_shard_sketches(&[BatchSketch::from_outputs(&proba)])
            .unwrap();
        assert_eq!(merged.interval, Some(direct));
    }

    #[test]
    fn threshold_policy_reports_carry_no_interval() {
        let (mut m, serving) = monitor(MonitorPolicy {
            threshold: LEGACY_THRESHOLD,
            ..MonitorPolicy::default()
        });
        assert_eq!(m.policy().alarm_mode(), AlarmMode::Threshold);
        let mut rng = StdRng::seed_from_u64(42);
        let r = m.observe(&serving.sample_n(80, &mut rng)).unwrap();
        assert_eq!(r.interval, None, "legacy policy is unchanged: {r:?}");
    }

    #[test]
    fn degraded_interval_batches_report_nan_bounds() {
        let (mut m, _) = monitor(MonitorPolicy::default().with_interval_alarm());
        let r = m.observe_degraded("shed by admission control");
        assert!(r.degraded);
        let iv = r.interval.unwrap();
        assert!(iv.is_degraded(), "{iv:?}");
        assert_eq!(iv.alpha, m.predictor().interval_alpha());
        // And the report serde round-trips through the NaN↔null convention.
        let json = serde_json::to_string(&r).unwrap();
        let back: BatchReport = serde_json::from_str(&json).unwrap();
        assert!(back.interval.unwrap().is_degraded());
        assert_eq!(back.interval.unwrap().alpha, iv.alpha);
    }
}
