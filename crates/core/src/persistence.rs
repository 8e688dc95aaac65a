//! Serialization of the whole serving stack: predictor, validator and
//! monitor artifacts.
//!
//! A predictor or validator is deployed *alongside* a model (Figure 1b),
//! typically in a different process or machine than where it was trained,
//! and the monitor wrapping them is a long-lived process that must survive
//! restarts without losing its debounce state. Each artifact captures
//! everything except the black box model itself (which lives wherever it
//! lives — a cloud endpoint, a vendored binary): the fitted meta-model,
//! the metric, the reference test score, and the input contract the
//! serving side must honour (schema fingerprint + class count). Serialize
//! with any serde format — [`to_json`]/[`save_json`] cover the common
//! JSON-file case; at load time, reattach the model handle.
//!
//! ## The input contract
//!
//! Every artifact records the fit-time [`Schema::fingerprint`] of the
//! held-out test frame and the model's class count. At restore time the
//! class count is checked against the reattached model, and at serving
//! time every frame (and every raw output matrix) is checked before
//! featurization — a mismatched frame returns [`CoreError`] instead of
//! silently mis-featurizing.
//!
//! [`Schema::fingerprint`]: lvp_dataframe::Schema::fingerprint

use crate::features::{BatchSketch, OutputReference};
use crate::interval::check_interval_alpha;
use crate::PerformanceValidator;
use crate::{BatchMonitor, CoreError, CoreErrorKind, Metric, MonitorPolicy, PerformancePredictor};
use lvp_dataframe::Fnv1a;
use lvp_models::forest::RandomForestRegressor;
use lvp_models::gbdt::GbdtClassifier;
use lvp_models::BlackBoxModel;
use lvp_stats::EcdfSketch;
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::sync::Arc;

/// Current artifact format version, shared by all three artifact types.
///
/// Version history: 1 — original format, no input contract; 2 — adds the
/// schema-fingerprint/class-count input contract; 3 — adds streaming
/// sketch state (the validator's test-output ECDFs, the monitor's open
/// window and reference ECDFs); 4 — adds the calibrated-interval state
/// (the predictor's conformal calibration residuals and interval alpha,
/// the monitor policy's alarm mode). Every added field is an `Option`, so
/// older artifacts deserialize with `None` and the loaders reconstruct (or
/// skip) the missing state — pre-v4 artifacts load into the point-estimate
/// threshold policy with quantile-only intervals.
pub const ARTIFACT_VERSION: u32 = 4;

/// Serializes an artifact (or anything serde-serializable) to JSON.
pub fn to_json<T: Serialize>(artifact: &T) -> Result<String, CoreError> {
    serde_json::to_string(artifact).map_err(|e| CoreError::new(format!("serialize artifact: {e}")))
}

/// Deserializes an artifact from JSON.
pub fn from_json<T: Deserialize>(json: &str) -> Result<T, CoreError> {
    serde_json::from_str(json).map_err(|e| CoreError::new(format!("deserialize artifact: {e}")))
}

/// Magic token opening every enveloped artifact file. Files that do not
/// start with it are treated as legacy bare-JSON artifacts.
pub const ENVELOPE_MAGIC: &str = "LVPENV";

/// Envelope *format* version (independent of [`ARTIFACT_VERSION`], which
/// versions the JSON payload inside).
const ENVELOPE_VERSION: u32 = 1;

/// FNV-1a (64-bit) over a byte slice — the integrity checksum of the
/// artifact envelope and the lvpd journal records. Not cryptographic; it
/// catches the failure modes a serving host actually has (truncation,
/// torn writes, bit rot), at a cost of one pass over the payload.
pub fn checksum64(bytes: &[u8]) -> u64 {
    Fnv1a::hash(0, bytes)
}

/// Wraps a serialized payload in the checksummed, length-framed artifact
/// envelope: one ASCII header line
/// `LVPENV <envelope-version> <payload-len> <fnv1a64-hex>\n` followed by
/// the raw payload bytes. The header is text so enveloped JSON artifacts
/// stay greppable and diffable; the frame is exact so [`unwrap_envelope`]
/// can detect truncation and corruption byte-for-byte.
pub fn wrap_envelope(payload: &[u8]) -> Vec<u8> {
    let header = format!(
        "{ENVELOPE_MAGIC} {ENVELOPE_VERSION} {} {:016x}\n",
        payload.len(),
        checksum64(payload)
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Whether `bytes` starts with the artifact-envelope magic.
pub fn is_enveloped(bytes: &[u8]) -> bool {
    bytes.starts_with(ENVELOPE_MAGIC.as_bytes())
}

/// Verifies an artifact envelope and returns the payload slice. Every
/// defect is a typed [`CoreError`]: a malformed or unsupported header is
/// [`CoreErrorKind::CorruptHeader`], a payload shorter than the declared
/// length is [`CoreErrorKind::Truncated`] (the signature of a crash
/// mid-write), and a checksum failure — including trailing garbage — is
/// [`CoreErrorKind::ChecksumMismatch`].
pub fn unwrap_envelope(bytes: &[u8]) -> Result<&[u8], CoreError> {
    let corrupt = |m: String| CoreError::with_kind(CoreErrorKind::CorruptHeader, m);
    if !is_enveloped(bytes) {
        return Err(corrupt("artifact is not enveloped".to_string()));
    }
    let newline = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| corrupt("envelope header has no terminating newline".to_string()))?;
    let header = std::str::from_utf8(&bytes[..newline])
        .map_err(|_| corrupt("envelope header is not ASCII".to_string()))?;
    let mut fields = header.split(' ');
    let _magic = fields.next();
    let version: u32 = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("envelope header '{header}' has no version")))?;
    if version != ENVELOPE_VERSION {
        return Err(corrupt(format!(
            "unsupported envelope version {version} (supported: {ENVELOPE_VERSION})"
        )));
    }
    let declared_len: usize = fields
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("envelope header '{header}' has no payload length")))?;
    let declared_sum = fields
        .next()
        .and_then(|v| u64::from_str_radix(v, 16).ok())
        .ok_or_else(|| corrupt(format!("envelope header '{header}' has no checksum")))?;
    if fields.next().is_some() {
        return Err(corrupt(format!(
            "envelope header '{header}' has trailing fields"
        )));
    }
    let payload = &bytes[newline + 1..];
    if payload.len() < declared_len {
        return Err(CoreError::with_kind(
            CoreErrorKind::Truncated,
            format!(
                "artifact truncated: header declares {declared_len} payload bytes, \
                 file holds {}",
                payload.len()
            ),
        ));
    }
    // Trailing bytes beyond the declared length are corruption too (an
    // interrupted overwrite, a concatenated file): the declared-length
    // prefix may well checksum clean, but the file as a whole is not the
    // artifact that was written.
    if payload.len() > declared_len {
        return Err(CoreError::with_kind(
            CoreErrorKind::ChecksumMismatch,
            format!(
                "artifact has {} trailing bytes beyond the declared {declared_len}-byte payload",
                payload.len() - declared_len
            ),
        ));
    }
    let actual_sum = checksum64(payload);
    if actual_sum != declared_sum {
        return Err(CoreError::with_kind(
            CoreErrorKind::ChecksumMismatch,
            format!(
                "artifact checksum mismatch: header records {declared_sum:016x}, \
                 payload hashes to {actual_sum:016x}"
            ),
        ));
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically and durably: the bytes land in a
/// sibling `.tmp` file first, that file is fsynced, renamed over `path`,
/// and the parent directory is fsynced so the rename itself survives a
/// power cut. A crash at any point leaves either the old file or the new
/// one — never a half-written mix, and never neither.
pub fn atomic_write_durable(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), CoreError> {
    let path = path.as_ref();
    let io_err = |stage: &str, e: std::io::Error| {
        CoreError::with_kind(
            CoreErrorKind::Io,
            format!("{stage} {}: {e}", path.display()),
        )
    };
    let mut file_name = path
        .file_name()
        .ok_or_else(|| {
            CoreError::with_kind(
                CoreErrorKind::Io,
                format!("write artifact {}: path has no file name", path.display()),
            )
        })?
        .to_os_string();
    file_name.push(".tmp");
    let tmp = path.with_file_name(file_name);
    {
        let mut file = std::fs::File::create(&tmp).map_err(|e| io_err("create", e))?;
        use std::io::Write as _;
        file.write_all(bytes).map_err(|e| io_err("write", e))?;
        file.sync_all().map_err(|e| io_err("sync", e))?;
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err("rename into", e))?;
    // Make the rename durable: fsync the directory entry. Directories
    // cannot be opened for sync on every platform; where they cannot,
    // atomicity still holds and durability is the filesystem's default.
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().map_err(|e| io_err("sync parent of", e))?;
        }
    }
    Ok(())
}

/// Serializes an artifact to a checksummed envelope file, atomically and
/// durably (see [`atomic_write_durable`] — a crash mid-save can no longer
/// destroy the previous snapshot, and a completed save survives power
/// loss).
pub fn save_json<T: Serialize>(artifact: &T, path: impl AsRef<Path>) -> Result<(), CoreError> {
    atomic_write_durable(path, &wrap_envelope(to_json(artifact)?.as_bytes()))
}

/// Deserializes an artifact from a file written by [`save_json`] — or
/// from a legacy bare-JSON artifact file (anything not starting with
/// [`ENVELOPE_MAGIC`]), which predates the envelope and carries no
/// integrity frame. Envelope defects surface as typed [`CoreError`]s
/// ([`CoreError::kind`]) instead of downstream serde garbage.
pub fn load_json<T: Deserialize>(path: impl AsRef<Path>) -> Result<T, CoreError> {
    let path = path.as_ref();
    let bytes = std::fs::read(path).map_err(|e| {
        CoreError::with_kind(
            CoreErrorKind::Io,
            format!("read artifact {}: {e}", path.display()),
        )
    })?;
    let payload = if is_enveloped(&bytes) {
        unwrap_envelope(&bytes)
            .map_err(|e| {
                CoreError::with_kind(
                    e.kind(),
                    format!("artifact {}: {}", path.display(), e.message),
                )
            })?
            .to_vec()
    } else {
        bytes
    };
    let json = std::str::from_utf8(&payload).map_err(|e| {
        CoreError::with_kind(
            CoreErrorKind::CorruptHeader,
            format!("artifact {} payload is not UTF-8: {e}", path.display()),
        )
    })?;
    from_json(json)
}

/// Checks a stored format `version` of the named `kind` ("predictor
/// artifact", "registry snapshot", ...) against the versions this build
/// reads. All prior versions are still loadable: fields they predate
/// deserialize as `None` and the loaders reconstruct or skip the
/// corresponding state (see [`ARTIFACT_VERSION`]).
pub fn check_version(kind: &str, version: u32) -> Result<(), CoreError> {
    if version == 0 || version > ARTIFACT_VERSION {
        return Err(CoreError::new(format!(
            "unsupported {kind} version {version} (supported: 1..={ARTIFACT_VERSION})"
        )));
    }
    Ok(())
}

fn check_model_classes(
    kind: &str,
    expected: Option<usize>,
    model: &dyn BlackBoxModel,
) -> Result<(), CoreError> {
    if let Some(expected) = expected {
        if expected != model.n_classes() {
            return Err(CoreError::new(format!(
                "{kind} artifact was fitted for {expected} classes but the \
                 reattached model produces {}",
                model.n_classes()
            )));
        }
    }
    Ok(())
}

/// Serializable snapshot of a fitted [`PerformancePredictor`], minus the
/// black box model it monitors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictorArtifact {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The fitted random-forest meta-regressor.
    pub regressor: RandomForestRegressor,
    /// The scoring function the predictor estimates.
    pub metric: Metric,
    /// Reference score on the held-out test data.
    pub test_score: f64,
    /// Expected featurization dimensionality (n_classes × 21).
    pub n_feature_dims: usize,
    /// Class count of the model the predictor was fitted against
    /// (`None` only in version-1 artifacts).
    pub n_classes: Option<usize>,
    /// Fingerprint of the fit-time test schema (`None` in version-1
    /// artifacts and for predictors fitted from raw examples).
    pub schema_fingerprint: Option<u64>,
    /// Miscoverage rate of the predictor's intervals (`None` in pre-v4
    /// artifacts, which load with the default alpha).
    pub interval_alpha: Option<f64>,
    /// Sorted held-out absolute residuals backing the conformal interval
    /// half-width, each finite and non-negative (`None` in pre-v4
    /// artifacts and when calibration was disabled or starved — intervals
    /// then fall back to bare ensemble quantiles).
    pub calibration_residuals: Option<Vec<f64>>,
}

impl PerformancePredictor {
    /// Snapshots the predictor for serialization.
    pub fn to_artifact(&self) -> PredictorArtifact {
        PredictorArtifact {
            version: ARTIFACT_VERSION,
            regressor: self.regressor.clone(),
            metric: self.metric,
            test_score: self.test_score,
            n_feature_dims: self.n_feature_dims,
            n_classes: Some(self.n_classes),
            schema_fingerprint: self.schema_fingerprint,
            interval_alpha: Some(self.interval_alpha),
            calibration_residuals: self.calibration.clone(),
        }
    }

    /// Restores a predictor from an artifact, reattaching the black box
    /// model it monitors. The model must have the same number of classes
    /// as at training time.
    pub fn from_artifact(
        artifact: PredictorArtifact,
        model: Arc<dyn BlackBoxModel>,
    ) -> Result<Self, CoreError> {
        check_version("predictor artifact", artifact.version)?;
        check_model_classes("predictor", artifact.n_classes, model.as_ref())?;
        let expected = crate::feature_dimensionality(model.n_classes());
        if artifact.n_feature_dims != expected {
            return Err(CoreError::new(format!(
                "artifact expects {} feature dims but the model produces {}",
                artifact.n_feature_dims, expected
            )));
        }
        artifact.regressor.check(artifact.n_feature_dims)?;
        // Pre-v4 artifacts carry no alpha: they load with the default.
        let interval_alpha = artifact
            .interval_alpha
            .unwrap_or(crate::DEFAULT_INTERVAL_ALPHA);
        check_interval_alpha(interval_alpha)?;
        // A hand-edited artifact must not mis-calibrate: residuals are
        // absolute errors (serde reads `null` as NaN), in sorted order.
        let mut calibration = artifact.calibration_residuals;
        if let Some(residuals) = &mut calibration {
            if let Some(bad) = residuals.iter().find(|r| !(r.is_finite() && **r >= 0.0)) {
                return Err(CoreError::new(format!("bad calibration residual {bad}")));
            }
            residuals.sort_by(f64::total_cmp);
        }
        Ok(Self {
            n_classes: model.n_classes(),
            model,
            regressor: artifact.regressor,
            metric: artifact.metric,
            test_score: artifact.test_score,
            n_feature_dims: artifact.n_feature_dims,
            schema_fingerprint: artifact.schema_fingerprint,
            interval_alpha,
            calibration,
        })
    }
}

/// Serializable snapshot of a fitted [`PerformanceValidator`], minus the
/// black box model. Unlike the predictor, the validator's fitted state
/// includes the model's retained test-time output columns (the KS features
/// compare every serving batch against them, §4), so they travel in the
/// artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ValidatorArtifact {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The fitted gradient-boosted decision-tree classifier.
    pub classifier: GbdtClassifier,
    /// Retained per-class test-time output columns.
    pub test_columns: Vec<Vec<f64>>,
    /// Reference score on the held-out test data.
    pub test_score: f64,
    /// Acceptable relative quality loss `t`.
    pub threshold: f64,
    /// The scoring function the validator decides about.
    pub metric: Metric,
    /// Whether the KS features against `test_columns` are in use.
    pub use_ks_features: bool,
    /// Fingerprint of the fit-time test schema.
    pub schema_fingerprint: Option<u64>,
    /// Compressed ECDF sketches of the test-time outputs (the sketched-path
    /// KS reference). `None` in pre-version-3 artifacts. Loading always
    /// rebuilds them from `test_columns` (a pure function of them) and
    /// rejects an artifact whose sketches differ; they are written for
    /// version-4 readers.
    pub test_ecdf: Option<Vec<EcdfSketch>>,
}

impl PerformanceValidator {
    /// Snapshots the validator for serialization.
    pub fn to_artifact(&self) -> ValidatorArtifact {
        ValidatorArtifact {
            version: ARTIFACT_VERSION,
            classifier: self.classifier.clone(),
            test_columns: self.reference.columns().unwrap_or_default().to_vec(),
            test_score: self.test_score,
            threshold: self.threshold,
            metric: self.metric,
            use_ks_features: self.use_ks_features,
            schema_fingerprint: self.schema_fingerprint,
            test_ecdf: Some(self.reference.ecdfs().to_vec()),
        }
    }

    /// Restores a validator from an artifact, reattaching the black box
    /// model. The model must have the same number of classes as at
    /// training time (the retained test columns are per class).
    pub fn from_artifact(
        artifact: ValidatorArtifact,
        model: Arc<dyn BlackBoxModel>,
    ) -> Result<Self, CoreError> {
        check_version("validator artifact", artifact.version)?;
        check_model_classes(
            "validator",
            Some(artifact.test_columns.len()),
            model.as_ref(),
        )?;
        if !(0.0..1.0).contains(&artifact.threshold) {
            return Err(CoreError::new(
                "validator artifact threshold must lie in [0, 1)",
            ));
        }
        // Per class: the percentiles, then a KS statistic and p-value.
        let per_class =
            crate::feature_dimensionality(1) + 2 * usize::from(artifact.use_ks_features);
        artifact.classifier.check(per_class * model.n_classes())?;
        let reference = OutputReference::from_columns(artifact.test_columns);
        if artifact
            .test_ecdf
            .is_some_and(|ecdfs| ecdfs != reference.ecdfs())
        {
            return Err(CoreError::new(
                "validator artifact's reference ECDF sketches differ from the sketches of its test columns",
            ));
        }
        Ok(Self {
            model,
            classifier: artifact.classifier,
            reference,
            test_score: artifact.test_score,
            threshold: artifact.threshold,
            metric: artifact.metric,
            use_ks_features: artifact.use_ks_features,
            schema_fingerprint: artifact.schema_fingerprint,
        })
    }
}

/// Serializable snapshot of a [`BatchMonitor`]'s alarm state, minus the
/// predictor it wraps (persist that separately as a
/// [`PredictorArtifact`]). Restoring it lets a crashed monitor resume with
/// its EWMA value and debounce streak intact, so a drop that started
/// before the crash still alarms on schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MonitorArtifact {
    /// Format version for forward compatibility.
    pub version: u32,
    /// The alarm policy.
    pub policy: MonitorPolicy,
    /// Current EWMA value (`None` before the first batch).
    pub smoothed: Option<f64>,
    /// Current consecutive-violation streak.
    pub violation_streak: usize,
    /// Total batches observed so far (continues the batch numbering).
    pub batches_seen: usize,
    /// The open streaming window's sketch state, if a window was open when
    /// the snapshot was taken (`None` in pre-version-3 artifacts). The
    /// sketches persist bit-identically, so a window that started before a
    /// crash finishes with the exact report an uninterrupted monitor would
    /// have produced.
    pub window: Option<BatchSketch>,
    /// Why the open window was poisoned, when it was.
    pub window_degraded: Option<String>,
    /// Compressed reference ECDFs for the sketched drift tests (`None` in
    /// pre-version-3 artifacts and when
    /// [`BatchMonitor::retain_reference_outputs`] was never called).
    pub reference_ecdf: Option<Vec<EcdfSketch>>,
}

impl BatchMonitor {
    /// Snapshots the monitor's policy and alarm state for serialization —
    /// including any open streaming window, which survives bit-identically.
    pub fn to_artifact(&self) -> MonitorArtifact {
        MonitorArtifact {
            version: ARTIFACT_VERSION,
            policy: self.policy,
            smoothed: self.smoothed,
            violation_streak: self.violation_streak,
            batches_seen: self.batches_seen,
            window: self.window.clone(),
            window_degraded: self.window_degraded.clone(),
            reference_ecdf: self.reference.as_ref().map(|r| r.ecdfs().to_vec()),
        }
    }

    /// Restores a monitor from an artifact, reattaching a restored
    /// predictor. The report history does not survive the restart (ship it
    /// to a log store if it must), but the EWMA value, debounce streak,
    /// batch numbering, open streaming window and reference ECDFs do. The
    /// raw reference *outputs* do not — re-call
    /// [`BatchMonitor::retain_reference_outputs`] if the exact-path drift
    /// tests are needed; the sketched path works immediately.
    pub fn from_artifact(
        artifact: MonitorArtifact,
        predictor: PerformancePredictor,
    ) -> Result<Self, CoreError> {
        check_version("monitor artifact", artifact.version)?;
        let n_classes = predictor.n_classes();
        if let Some(window) = &artifact.window {
            window.check_shape(n_classes)?;
        }
        let reference = artifact
            .reference_ecdf
            .map(|ecdfs| OutputReference::new(ecdfs, n_classes))
            .transpose()?;
        let mut monitor = Self::new(predictor, artifact.policy)?;
        monitor.smoothed = artifact.smoothed;
        monitor.violation_streak = artifact.violation_streak;
        monitor.batches_seen = artifact.batches_seen;
        monitor.window = artifact.window;
        monitor.window_degraded = artifact.window_degraded;
        monitor.reference = reference;
        Ok(monitor)
    }
}

/// Self-contained snapshot of one serving deployment: the fitted predictor
/// plus the monitor's alarm state, bundled so a single JSON value carries
/// everything a serving daemon needs (minus the black box model handle,
/// which is reattached at restore time like for the individual artifacts).
/// This is the unit `lvpd` accepts on `register` and writes back out when
/// snapshotting its registry — one bundle per `(tenant, model, version)`
/// deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServingArtifact {
    /// The monitor's fitted predictor.
    pub predictor: PredictorArtifact,
    /// The monitor's policy and alarm state (EWMA, streak, open window).
    pub monitor: MonitorArtifact,
}

impl ServingArtifact {
    /// Bundles a live monitor (and the predictor inside it) into one
    /// deployable artifact.
    pub fn from_monitor(monitor: &BatchMonitor) -> Self {
        Self {
            predictor: monitor.predictor().to_artifact(),
            monitor: monitor.to_artifact(),
        }
    }

    /// Class count of the model the predictor was fitted against.
    /// Version-1 artifacts did not record it; there it is implied by the
    /// feature dimensionality.
    pub fn n_classes(&self) -> usize {
        self.predictor
            .n_classes
            .unwrap_or(self.predictor.n_feature_dims / crate::feature_dimensionality(1))
    }

    /// Restores the bundled monitor, reattaching the black box model the
    /// predictor scores with. State carries over bit-identically, open
    /// streaming window included.
    pub fn into_monitor(self, model: Arc<dyn BlackBoxModel>) -> Result<BatchMonitor, CoreError> {
        let predictor = PerformancePredictor::from_artifact(self.predictor, model)?;
        BatchMonitor::from_artifact(self.monitor, predictor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FeatureSource, PredictorConfig, ValidatorConfig};
    use lvp_corruptions::standard_tabular_suite;
    use lvp_dataframe::toy_frame;
    use lvp_linalg::DenseMatrix;
    use lvp_models::{train_model, ModelKind};
    use lvp_stats::QuantileSketch;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Whether a restored validator agrees with the original on a batch of
    /// outputs, bit for bit.
    fn verdicts_identical(
        a: &PerformanceValidator,
        b: &PerformanceValidator,
        proba: &DenseMatrix,
    ) -> Result<bool, CoreError> {
        let va = a.validate_source(&FeatureSource::Exact(proba))?;
        let vb = b.validate_source(&FeatureSource::Exact(proba))?;
        Ok(va.within_threshold == vb.within_threshold
            && va.confidence.to_bits() == vb.confidence.to_bits())
    }

    fn fitted() -> (
        Arc<dyn BlackBoxModel>,
        lvp_dataframe::DataFrame,
        lvp_dataframe::DataFrame,
    ) {
        let df = toy_frame(250);
        let mut rng = StdRng::seed_from_u64(41);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        (model, test, serving)
    }

    #[test]
    fn artifact_round_trip_preserves_predictions() {
        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(41);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let before = predictor.predict(&serving).unwrap();

        let artifact = predictor.to_artifact();
        assert_eq!(artifact.version, ARTIFACT_VERSION);
        assert_eq!(
            artifact.schema_fingerprint,
            Some(test.schema().fingerprint())
        );
        let restored = PerformancePredictor::from_artifact(artifact, model).unwrap();
        let after = restored.predict(&serving).unwrap();
        assert_eq!(before, after);
        assert_eq!(restored.test_score(), predictor.test_score());
        assert_eq!(
            restored.schema_fingerprint(),
            predictor.schema_fingerprint()
        );
    }

    #[test]
    fn validator_artifact_round_trip_preserves_verdicts() {
        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(7);
        let gens = standard_tabular_suite(test.schema());
        let validator = PerformanceValidator::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &ValidatorConfig::fast(0.08),
            &mut rng,
        )
        .unwrap();

        let json = to_json(&validator.to_artifact()).unwrap();
        let artifact: ValidatorArtifact = from_json(&json).unwrap();
        let restored = PerformanceValidator::from_artifact(artifact, Arc::clone(&model)).unwrap();

        let proba = model.predict_proba(&serving);
        assert!(verdicts_identical(&validator, &restored, &proba).unwrap());
        assert_eq!(restored.threshold(), validator.threshold());
        assert_eq!(restored.test_score(), validator.test_score());
        let before = validator.validate(&serving).unwrap();
        let after = restored.validate(&serving).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn monitor_artifact_restores_debounce_state() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(8);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let policy = MonitorPolicy {
            threshold: 0.2,
            consecutive_violations: 3,
            ewma_alpha: 0.5,
            ..MonitorPolicy::default()
        };
        let mut monitor = BatchMonitor::new(predictor, policy).unwrap();
        // Two violations — one short of the alarm.
        monitor.observe_estimate(0.0);
        monitor.observe_estimate(0.0);
        assert!(!monitor.alarming());

        let json = to_json(&monitor.to_artifact()).unwrap();
        let artifact: MonitorArtifact = from_json(&json).unwrap();
        let predictor2 = PerformancePredictor::from_artifact(
            monitor.predictor().to_artifact(),
            Arc::clone(&model),
        )
        .unwrap();
        let mut restored = BatchMonitor::from_artifact(artifact, predictor2).unwrap();
        assert_eq!(restored.batches_seen(), 2);
        assert_eq!(restored.violation_streak(), 2);
        assert_eq!(restored.smoothed(), monitor.smoothed());

        // The third violation lands *after* the restart — the streak
        // carried over, so it alarms exactly on schedule...
        let r_restored = restored.observe_estimate(0.0);
        // ...matching what the uninterrupted monitor reports.
        let r_live = monitor.observe_estimate(0.0);
        assert_eq!(r_restored, r_live);
        assert!(r_restored.alarm);
        assert_eq!(r_restored.batch_index, 2);
    }

    #[test]
    fn artifact_rejects_wrong_class_count() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(42);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let mut artifact = predictor.to_artifact();
        artifact.n_feature_dims = 63; // pretend 3 classes
        artifact.n_classes = Some(3);
        assert!(PerformancePredictor::from_artifact(artifact, model).is_err());
    }

    #[test]
    fn validator_artifact_rejects_wrong_class_count() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(43);
        let gens = standard_tabular_suite(test.schema());
        let validator = PerformanceValidator::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &ValidatorConfig::fast(0.05),
            &mut rng,
        )
        .unwrap();
        let mut artifact = validator.to_artifact();
        artifact.test_columns.push(vec![0.5; 8]); // pretend 3 classes
        assert!(PerformanceValidator::from_artifact(artifact, model).is_err());
    }

    #[test]
    fn validator_artifact_rejects_trees_inference_cannot_walk() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(43);
        let gens = standard_tabular_suite(test.schema());
        let validator = PerformanceValidator::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &ValidatorConfig::fast(0.05),
            &mut rng,
        )
        .unwrap();
        let json = to_json(&validator.to_artifact()).unwrap();
        let start = json.find("\"nodes\":[").unwrap() + "\"nodes\":".len();
        let end = start + json[start..].find(']').unwrap() + 1;
        let looping = r#"[{"Split":{"feature":0,"threshold":0.5,"left":0,"right":0}}]"#;
        let crafted = format!("{}{looping}{}", &json[..start], &json[end..]);
        let artifact: ValidatorArtifact = from_json(&crafted).unwrap();
        let err = PerformanceValidator::from_artifact(artifact, model)
            .err()
            .expect("a looping tree loaded");
        assert!(err.message.contains("tree node 0 has a child"), "{err}");
    }

    #[test]
    fn predictor_artifact_rejects_trees_inference_cannot_walk() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(43);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let json = to_json(&predictor.to_artifact()).unwrap();
        let start = json.find("\"nodes\":[").unwrap() + "\"nodes\":".len();
        let end = start + json[start..].find(']').unwrap() + 1;
        // A child one past the end of the node list, and one past what a
        // `u32` node index can hold.
        for right in ["2", "4294967296"] {
            let nodes = format!(
                r#"[{{"Split":{{"feature":0,"threshold":0.5,"left":1,"right":{right}}}}},{{"Leaf":{{"value":0.5}}}}]"#
            );
            let crafted = format!("{}{nodes}{}", &json[..start], &json[end..]);
            let artifact: PredictorArtifact = from_json(&crafted).unwrap();
            let err = PerformancePredictor::from_artifact(artifact, Arc::clone(&model))
                .err()
                .expect("a tree with a child past its node list loaded");
            assert!(
                err.message.contains("tree node 0 has a child outside 1..2"),
                "{err}"
            );
        }
    }

    #[test]
    fn validator_artifact_rejects_test_ecdfs_off_the_class_count_or_grid() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(43);
        let gens = standard_tabular_suite(test.schema());
        let config = ValidatorConfig::fast(0.05);
        let validator =
            PerformanceValidator::fit(Arc::clone(&model), &test, &gens, &config, &mut rng).unwrap();
        for ecdfs in [
            vec![EcdfSketch::from(&QuantileSketch::unit()); 3],
            vec![EcdfSketch::from(&QuantileSketch::new(0.0, 1.0, 16)); 2],
        ] {
            let mut artifact = validator.to_artifact();
            artifact.test_ecdf = Some(ecdfs);
            let err = PerformanceValidator::from_artifact(artifact, Arc::clone(&model))
                .err()
                .expect("a reference the validator cannot test against loaded");
            assert!(err.message.contains("reference ECDF"), "{err}");
        }
    }

    #[test]
    fn validator_artifact_rejects_test_ecdfs_of_other_outputs() {
        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(43);
        let gens = standard_tabular_suite(test.schema());
        let config = ValidatorConfig::fast(0.05);
        let validator =
            PerformanceValidator::fit(Arc::clone(&model), &test, &gens, &config, &mut rng).unwrap();
        // The serving outputs' sketches: one per class, on the unit grid and
        // self-consistent, but not the sketches of `test_columns`.
        let other = crate::BatchSketch::from_outputs(&model.predict_proba(&serving)).ecdfs();
        let mut artifact = validator.to_artifact();
        assert_ne!(artifact.test_ecdf.as_ref(), Some(&other));
        artifact.test_ecdf = Some(other);
        let err = PerformanceValidator::from_artifact(artifact, Arc::clone(&model))
            .err()
            .expect("a reference that disagrees with the test columns loaded");
        assert!(err.message.contains("reference ECDF"), "{err}");
    }

    #[test]
    fn artifact_rejects_unknown_version() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(43);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let mut artifact = predictor.to_artifact();
        artifact.version = 99;
        assert!(PerformancePredictor::from_artifact(artifact, model).is_err());
    }

    #[test]
    fn version_1_predictor_artifacts_still_load() {
        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(44);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let mut artifact = predictor.to_artifact();
        // A v1 artifact carries no input contract.
        artifact.version = 1;
        artifact.n_classes = None;
        artifact.schema_fingerprint = None;
        let json = to_json(&artifact).unwrap();
        let artifact: PredictorArtifact = from_json(&json).unwrap();
        let restored = PerformancePredictor::from_artifact(artifact, model).unwrap();
        // Without a recorded fingerprint the schema check is skipped.
        assert_eq!(
            restored.predict(&serving).unwrap(),
            predictor.predict(&serving).unwrap()
        );
    }

    #[test]
    fn version_2_validator_artifacts_load_and_validate_identically() {
        // A v2 artifact predates the sketch era: no `test_ecdf` field at
        // all in its JSON. Serialize through a v2-shaped mirror struct to
        // prove missing-field tolerance (not just `null` tolerance), then
        // check the restored validator agrees bit-for-bit on both the
        // exact and the sketched validation paths.
        #[derive(Serialize)]
        struct ValidatorArtifactV2 {
            version: u32,
            classifier: GbdtClassifier,
            test_columns: Vec<Vec<f64>>,
            test_score: f64,
            threshold: f64,
            metric: Metric,
            use_ks_features: bool,
            schema_fingerprint: Option<u64>,
        }

        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(9);
        let gens = standard_tabular_suite(test.schema());
        let validator = PerformanceValidator::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &ValidatorConfig::fast(0.08),
            &mut rng,
        )
        .unwrap();

        let full = validator.to_artifact();
        assert_eq!(full.version, ARTIFACT_VERSION);
        assert!(full.test_ecdf.is_some());
        let v2 = ValidatorArtifactV2 {
            version: 2,
            classifier: full.classifier.clone(),
            test_columns: full.test_columns.clone(),
            test_score: full.test_score,
            threshold: full.threshold,
            metric: full.metric,
            use_ks_features: full.use_ks_features,
            schema_fingerprint: full.schema_fingerprint,
        };
        let json = to_json(&v2).unwrap();
        assert!(!json.contains("test_ecdf"), "field genuinely absent");
        let artifact: ValidatorArtifact = from_json(&json).unwrap();
        assert_eq!(artifact.test_ecdf, None);
        let restored = PerformanceValidator::from_artifact(artifact, Arc::clone(&model)).unwrap();

        // The missing sketches were rebuilt from the retained columns —
        // identical to the freshly fitted state.
        assert_eq!(restored.reference.ecdfs(), validator.reference.ecdfs());
        let proba = model.predict_proba(&serving);
        assert!(verdicts_identical(&validator, &restored, &proba).unwrap());
        let sketch = crate::BatchSketch::from_outputs(&proba);
        let a = validator
            .validate_source(&FeatureSource::Sketched(&sketch))
            .unwrap();
        let b = restored
            .validate_source(&FeatureSource::Sketched(&sketch))
            .unwrap();
        assert_eq!(a.within_threshold, b.within_threshold);
        assert_eq!(a.confidence.to_bits(), b.confidence.to_bits());
    }

    #[test]
    fn version_2_monitor_artifacts_still_load() {
        #[derive(Serialize)]
        struct MonitorArtifactV2 {
            version: u32,
            policy: MonitorPolicy,
            smoothed: Option<f64>,
            violation_streak: usize,
            batches_seen: usize,
        }

        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(10);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let v2 = MonitorArtifactV2 {
            version: 2,
            policy: MonitorPolicy::default(),
            smoothed: Some(0.9),
            violation_streak: 1,
            batches_seen: 7,
        };
        let json = to_json(&v2).unwrap();
        let artifact: MonitorArtifact = from_json(&json).unwrap();
        assert_eq!(artifact.window, None);
        assert_eq!(artifact.reference_ecdf, None);
        let restored = BatchMonitor::from_artifact(artifact, predictor).unwrap();
        assert_eq!(restored.batches_seen(), 7);
        assert_eq!(restored.violation_streak(), 1);
        assert_eq!(restored.smoothed(), Some(0.9));
        assert!(restored.window().is_none());
    }

    #[test]
    fn version_3_predictor_artifacts_load_into_quantile_only_intervals() {
        // A v3 artifact predates the interval era: neither `interval_alpha`
        // nor `calibration_residuals` exist in its JSON. Serialize through
        // a v3-shaped mirror struct to prove missing-field tolerance.
        #[derive(Serialize)]
        struct PredictorArtifactV3 {
            version: u32,
            regressor: RandomForestRegressor,
            metric: Metric,
            test_score: f64,
            n_feature_dims: usize,
            n_classes: Option<usize>,
            schema_fingerprint: Option<u64>,
        }

        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(46);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let full = predictor.to_artifact();
        assert_eq!(full.interval_alpha, Some(crate::DEFAULT_INTERVAL_ALPHA));
        assert!(full.calibration_residuals.is_some());
        let v3 = PredictorArtifactV3 {
            version: 3,
            regressor: full.regressor.clone(),
            metric: full.metric,
            test_score: full.test_score,
            n_feature_dims: full.n_feature_dims,
            n_classes: full.n_classes,
            schema_fingerprint: full.schema_fingerprint,
        };
        let json = to_json(&v3).unwrap();
        assert!(!json.contains("interval_alpha"), "field genuinely absent");
        assert!(!json.contains("calibration_residuals"));
        let artifact: PredictorArtifact = from_json(&json).unwrap();
        assert_eq!(artifact.interval_alpha, None);
        assert_eq!(artifact.calibration_residuals, None);
        let restored = PerformancePredictor::from_artifact(artifact, model).unwrap();
        // Point predictions are untouched by the missing interval state...
        assert_eq!(
            restored.predict(&serving).unwrap().to_bits(),
            predictor.predict(&serving).unwrap().to_bits()
        );
        // ...and intervals fall back to bare ensemble quantiles at the
        // default alpha: valid, just narrower than the calibrated ones.
        assert_eq!(restored.interval_alpha(), crate::DEFAULT_INTERVAL_ALPHA);
        assert!(restored.calibration_residuals().is_none());
        let narrow = restored.predict_interval(&serving).unwrap();
        narrow.validate().unwrap();
        let calibrated = predictor.predict_interval(&serving).unwrap();
        assert!(
            narrow.width() < calibrated.width(),
            "{narrow:?} vs {calibrated:?}"
        );
    }

    #[test]
    fn hand_edited_calibration_residuals_must_be_finite_and_non_negative() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(47);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let json = to_json(&predictor.to_artifact()).unwrap();
        let key = "\"calibration_residuals\":[";
        let start = json.find(key).unwrap() + key.len();
        let end = start + json[start..].find(',').unwrap();
        // `null` reads back as NaN; -1 would give a half-width of -1.
        for edit in ["null", "-1.0"] {
            let edited = format!("{}{edit}{}", &json[..start], &json[end..]);
            let artifact: PredictorArtifact = from_json(&edited).unwrap();
            let err = PerformancePredictor::from_artifact(artifact, Arc::clone(&model))
                .err()
                .unwrap_or_else(|| panic!("residual {edit} accepted"));
            assert!(err.message.contains("calibration residual"), "{err}");
        }
        // The unedited artifact still loads.
        let artifact: PredictorArtifact = from_json(&json).unwrap();
        assert!(PerformancePredictor::from_artifact(artifact, model).is_ok());
    }

    #[test]
    fn version_3_monitor_policies_load_into_the_threshold_mode() {
        // Pre-v4 policy JSON has no `mode` field; it must keep the legacy
        // threshold behavior bit for bit.
        #[derive(Serialize)]
        struct MonitorPolicyV3 {
            threshold: f64,
            consecutive_violations: usize,
            ewma_alpha: f64,
        }
        #[derive(Serialize)]
        struct MonitorArtifactV3 {
            version: u32,
            policy: MonitorPolicyV3,
            smoothed: Option<f64>,
            violation_streak: usize,
            batches_seen: usize,
        }

        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(47);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let v3 = MonitorArtifactV3 {
            version: 3,
            policy: MonitorPolicyV3 {
                threshold: 0.1,
                consecutive_violations: 2,
                ewma_alpha: 1.0,
            },
            smoothed: Some(0.9),
            violation_streak: 1,
            batches_seen: 4,
        };
        let json = to_json(&v3).unwrap();
        assert!(!json.contains("mode"), "field genuinely absent");
        let artifact: MonitorArtifact = from_json(&json).unwrap();
        assert_eq!(artifact.policy.mode, None);
        let mut restored = BatchMonitor::from_artifact(artifact, predictor).unwrap();
        assert_eq!(restored.policy().alarm_mode(), crate::AlarmMode::Threshold);
        // Threshold-mode semantics: a relative-drop violation, no interval
        // on the report.
        let r = restored.observe_estimate(0.0);
        assert!(r.raw_violation && r.interval.is_none(), "{r:?}");
    }

    #[test]
    fn version_4_artifacts_round_trip_interval_state_bit_identically() {
        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(48);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let mut monitor =
            BatchMonitor::new(predictor, MonitorPolicy::default().with_interval_alarm()).unwrap();
        let mut rng2 = StdRng::seed_from_u64(49);
        monitor.observe(&serving.sample_n(60, &mut rng2)).unwrap();
        // Leave a streaming window open across the round trip.
        monitor
            .observe_chunk(&serving.sample_n(40, &mut rng2))
            .unwrap();

        let json = to_json(&ServingArtifact::from_monitor(&monitor)).unwrap();
        let bundle: ServingArtifact = from_json(&json).unwrap();
        assert_eq!(bundle.predictor.version, ARTIFACT_VERSION);
        assert_eq!(bundle.monitor.policy.mode, Some(crate::AlarmMode::Interval));
        let mut restored = bundle.into_monitor(Arc::clone(&model)).unwrap();
        // Calibration residuals carried over bit for bit.
        assert_eq!(
            restored.predictor().calibration_residuals(),
            monitor.predictor().calibration_residuals()
        );
        // Re-serializing the restored deployment is byte-identical,
        // open window included.
        assert_eq!(
            to_json(&ServingArtifact::from_monitor(&restored)).unwrap(),
            json
        );
        // Both monitors finish the carried-over window with the exact same
        // interval report.
        let extra = serving.sample_n(40, &mut rng2);
        restored.observe_chunk(&extra).unwrap();
        monitor.observe_chunk(&extra).unwrap();
        let r_restored = restored.finish_window().unwrap();
        let r_live = monitor.finish_window().unwrap();
        assert_eq!(r_restored, r_live);
        let iv = r_restored.interval.unwrap();
        iv.validate().unwrap();
    }

    #[test]
    fn open_window_survives_an_artifact_round_trip_bit_identically() {
        let (model, test, serving) = fitted();
        let mut rng = StdRng::seed_from_u64(11);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let mut monitor = BatchMonitor::new(predictor, MonitorPolicy::default()).unwrap();
        monitor.retain_reference_outputs(&test).unwrap();

        // Open a window, stream half the batch, then "crash".
        let rows: Vec<usize> = (0..serving.n_rows()).collect();
        let (first_half, second_half) = rows.split_at(rows.len() / 2);
        for chunk in first_half.chunks(11) {
            monitor.observe_chunk(&serving.select_rows(chunk)).unwrap();
        }
        let json = to_json(&monitor.to_artifact()).unwrap();

        // Restore and stream the remaining rows into the carried-over
        // window; an uninterrupted monitor does the same without the
        // restart. The final reports must agree bit for bit.
        let artifact: MonitorArtifact = from_json(&json).unwrap();
        let predictor2 = PerformancePredictor::from_artifact(
            monitor.predictor().to_artifact(),
            Arc::clone(&model),
        )
        .unwrap();
        let mut restored = BatchMonitor::from_artifact(artifact, predictor2).unwrap();
        assert_eq!(restored.window(), monitor.window());
        for chunk in second_half.chunks(11) {
            restored.observe_chunk(&serving.select_rows(chunk)).unwrap();
            monitor.observe_chunk(&serving.select_rows(chunk)).unwrap();
        }
        let r_restored = restored.finish_window().unwrap();
        let r_live = monitor.finish_window().unwrap();
        assert_eq!(r_restored.estimate.to_bits(), r_live.estimate.to_bits());
        assert_eq!(
            r_restored.telemetry.per_class_ks,
            r_live.telemetry.per_class_ks
        );
    }

    #[test]
    fn serving_artifact_bundles_predictor_and_monitor_state() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(12);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let mut monitor = BatchMonitor::new(predictor, MonitorPolicy::default()).unwrap();
        monitor.observe_estimate(0.0);

        let json = to_json(&ServingArtifact::from_monitor(&monitor)).unwrap();
        let bundle: ServingArtifact = from_json(&json).unwrap();
        let mut restored = bundle.into_monitor(Arc::clone(&model)).unwrap();
        assert_eq!(restored.batches_seen(), 1);
        assert_eq!(restored.violation_streak(), 1);
        assert_eq!(restored.smoothed(), monitor.smoothed());
        // Both continue identically.
        let r_restored = restored.observe_estimate(0.0);
        let r_live = monitor.observe_estimate(0.0);
        assert_eq!(r_restored, r_live);
        // Re-bundling the restored monitor is byte-identical to re-bundling
        // the live one: nothing was lost in the round trip.
        assert_eq!(
            to_json(&ServingArtifact::from_monitor(&restored)).unwrap(),
            to_json(&ServingArtifact::from_monitor(&monitor)).unwrap()
        );
    }

    #[test]
    fn save_and_load_json_round_trip_on_disk() {
        let (model, test, _) = fitted();
        let mut rng = StdRng::seed_from_u64(45);
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let path = std::env::temp_dir().join("lvp_predictor_artifact_test.json");
        save_json(&predictor.to_artifact(), &path).unwrap();
        let artifact: PredictorArtifact = load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(PerformancePredictor::from_artifact(artifact, model).is_ok());
    }

    #[test]
    fn load_json_reports_missing_file() {
        let err = load_json::<PredictorArtifact>("/nonexistent/lvp-artifact.json").unwrap_err();
        assert!(err.message.contains("read artifact"));
        assert_eq!(err.kind(), CoreErrorKind::Io);
    }

    #[test]
    fn envelope_round_trip_and_checksum() {
        let payload = b"{\"hello\": [1, 2, 3]}";
        let framed = wrap_envelope(payload);
        assert!(is_enveloped(&framed));
        assert!(!is_enveloped(payload));
        assert_eq!(unwrap_envelope(&framed).unwrap(), payload);
        // The checksum is a stable function of the bytes.
        assert_eq!(checksum64(payload), checksum64(payload));
        assert_ne!(checksum64(payload), checksum64(b"{\"hello\": [1, 2, 4]}"));
        // FNV-1a reference value: hash of the empty input is the offset
        // basis, hash of "a" is a published constant.
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn unwrap_envelope_types_every_defect() {
        let framed = wrap_envelope(b"payload bytes here");

        // Truncation anywhere inside the payload → Truncated.
        for cut in [framed.len() - 1, framed.len() - 10] {
            let err = unwrap_envelope(&framed[..cut]).unwrap_err();
            assert_eq!(err.kind(), CoreErrorKind::Truncated, "{err}");
        }
        // Truncation inside the header itself → CorruptHeader (no
        // newline ever arrives).
        let err = unwrap_envelope(&framed[..4]).unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::CorruptHeader, "{err}");

        // A single flipped bit in the payload → ChecksumMismatch.
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let err = unwrap_envelope(&flipped).unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::ChecksumMismatch, "{err}");

        // Trailing garbage beyond the declared frame → ChecksumMismatch.
        let mut long = framed.clone();
        long.extend_from_slice(b"junk");
        let err = unwrap_envelope(&long).unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::ChecksumMismatch, "{err}");

        // A mangled header → CorruptHeader.
        let mut bad_header = framed;
        bad_header[7] = b'x'; // clobber the version field
        let err = unwrap_envelope(&bad_header).unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::CorruptHeader, "{err}");

        // Not enveloped at all → CorruptHeader from unwrap (load_json
        // would instead take the legacy bare-JSON path).
        let err = unwrap_envelope(b"{\"version\": 4}").unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::CorruptHeader, "{err}");
    }

    #[test]
    fn save_json_writes_envelope_and_load_json_detects_damage() {
        let artifact = Metric::Auc;
        let dir = std::env::temp_dir().join("lvp_envelope_damage_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        save_json(&artifact, &path).unwrap();

        // On disk: envelope header + JSON payload; no .tmp left behind.
        let bytes = std::fs::read(&path).unwrap();
        assert!(is_enveloped(&bytes));
        assert!(!dir.join("artifact.json.tmp").exists());
        let reloaded: Metric = load_json(&path).unwrap();
        assert_eq!(reloaded, Metric::Auc);

        // Truncate the file (crash mid-write of a non-atomic writer) →
        // typed Truncated error, not serde garbage.
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let err = load_json::<Metric>(&path).unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::Truncated, "{err}");
        assert!(err.message.contains("artifact"), "{err}");

        // Flip a payload bit (bit rot) → typed ChecksumMismatch.
        let mut rotted = bytes.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x04;
        std::fs::write(&path, &rotted).unwrap();
        let err = load_json::<Metric>(&path).unwrap_err();
        assert_eq!(err.kind(), CoreErrorKind::ChecksumMismatch, "{err}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_json_accepts_legacy_bare_json() {
        // Artifacts written before the envelope existed are bare JSON;
        // they must keep loading through the checksummed loader.
        let path = std::env::temp_dir().join("lvp_legacy_bare_artifact.json");
        std::fs::write(&path, to_json(&Metric::Accuracy).unwrap()).unwrap();
        let metric: Metric = load_json(&path).unwrap();
        assert_eq!(metric, Metric::Accuracy);
        // Re-saving upgrades the file to envelope form in place.
        save_json(&metric, &path).unwrap();
        assert!(is_enveloped(&std::fs::read(&path).unwrap()));
        let metric: Metric = load_json(&path).unwrap();
        assert_eq!(metric, Metric::Accuracy);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_durable_replaces_not_destroys() {
        let path = std::env::temp_dir().join("lvp_atomic_write_test.bin");
        atomic_write_durable(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write_durable(&path, b"second generation").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second generation");
        std::fs::remove_file(&path).ok();
    }

    /// `checksum64` of the little-endian bytes of a float sequence.
    fn float_digest(values: impl IntoIterator<Item = f64>) -> u64 {
        let bytes: Vec<u8> = values.into_iter().flat_map(f64::to_le_bytes).collect();
        checksum64(&bytes)
    }

    /// Pins, by digest, every byte the output KS tests feed: the validator
    /// artifact and its exact and sketched features, an interval-policy
    /// deployment with retained reference outputs and an open window, the
    /// reports (per-class drift included) of an exact batch and a finished
    /// window, and BBSE's per-class p-values and verdict on a shifted batch.
    #[test]
    fn ks_reference_bytes_are_pinned_golden() {
        let (model, test, serving) = fitted();
        let proba = model.predict_proba(&serving);
        let sketch = crate::BatchSketch::from_outputs(&proba);
        let mut digests = Vec::new();

        let mut rng = StdRng::seed_from_u64(61);
        let gens = standard_tabular_suite(test.schema());
        let config = ValidatorConfig::fast(0.08);
        let validator =
            PerformanceValidator::fit(Arc::clone(&model), &test, &gens, &config, &mut rng).unwrap();
        let json = to_json(&validator.to_artifact()).unwrap();
        digests.push(("validator artifact", checksum64(json.as_bytes())));
        for (label, source) in [
            ("validator exact features", FeatureSource::Exact(&proba)),
            (
                "validator sketched features",
                FeatureSource::Sketched(&sketch),
            ),
        ] {
            digests.push((label, float_digest(validator.featurize(&source).unwrap())));
        }

        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let policy = MonitorPolicy::default().with_interval_alarm();
        let mut monitor = BatchMonitor::new(predictor, policy).unwrap();
        monitor.retain_reference_outputs(&test).unwrap();
        let report = monitor.observe_outputs(&proba).unwrap();
        assert_eq!(report.telemetry.per_class_ks.len(), 2);
        digests.push((
            "observe_outputs report",
            checksum64(to_json(&report).unwrap().as_bytes()),
        ));
        let rows: Vec<usize> = (0..proba.rows()).collect();
        for chunk in rows.chunks(17) {
            monitor
                .observe_output_chunk(&proba.select_rows(chunk))
                .unwrap();
        }
        let report = monitor.finish_window().unwrap();
        assert_eq!(report.telemetry.per_class_ks.len(), 2);
        digests.push((
            "finish_window report",
            checksum64(to_json(&report).unwrap().as_bytes()),
        ));
        monitor
            .observe_output_chunk(&proba.select_rows(&rows[..23]))
            .unwrap();
        let json = to_json(&ServingArtifact::from_monitor(&monitor)).unwrap();
        digests.push(("serving artifact", checksum64(json.as_bytes())));
        // Restored, the reference is sketch-only: an exact batch reports no
        // drift, the carried-over window is tested sketch to sketch.
        let bundle: ServingArtifact = from_json(&json).unwrap();
        let mut restored = bundle.into_monitor(Arc::clone(&model)).unwrap();
        let report = restored.observe_outputs(&proba).unwrap();
        assert!(report.telemetry.per_class_ks.is_empty());
        digests.push((
            "restored observe_outputs report",
            checksum64(to_json(&report).unwrap().as_bytes()),
        ));
        let report = restored.finish_window().unwrap();
        assert_eq!(report.telemetry.per_class_ks.len(), 2);
        digests.push((
            "restored finish_window report",
            checksum64(to_json(&report).unwrap().as_bytes()),
        ));

        let bbse = crate::BbseDetector::new(Arc::clone(&model), &test);
        let mut shifted = serving.clone();
        for row in 0..shifted.n_rows() {
            shifted.column_mut(1).set_null(row);
        }
        let outcomes = bbse.per_class_ks(&shifted);
        digests.push((
            "bbse p-values",
            float_digest(outcomes.iter().map(|o| o.p_value)),
        ));
        assert!(crate::Baseline::detects_shift(&bbse, &shifted));

        let observed: Vec<String> = digests
            .iter()
            .map(|(label, digest)| format!("{label} {digest:016x}"))
            .collect();
        let expected = [
            "validator artifact 024c5638195fbde4",
            "validator exact features bf38970fb140aee9",
            "validator sketched features 2fbd59224975cccb",
            "observe_outputs report 9f9be4988777be14",
            "finish_window report 0c874878575f8a25",
            "serving artifact 997a35e8e0607738",
            "restored observe_outputs report 3bbfdd4f3d5d58c5",
            "restored finish_window report 75e1a07b6ea2db93",
            "bbse p-values 040524c1a8f27453",
        ];
        assert_eq!(observed, expected);
    }

    #[test]
    fn metric_serializes_as_its_variant_name() {
        // Every predictor and validator artifact carries its metric in
        // these bytes.
        for (metric, json) in [(Metric::Accuracy, "\"Accuracy\""), (Metric::Auc, "\"Auc\"")] {
            assert_eq!(to_json(&metric).unwrap(), json);
            assert_eq!(from_json::<Metric>(json).unwrap(), metric);
        }
    }
}
