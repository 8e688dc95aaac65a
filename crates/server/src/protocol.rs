//! The lvpd wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line; the daemon answers with
//! exactly one JSON object on one line. The request shape is a single flat
//! struct — the `verb` field selects the operation and the remaining
//! fields are optional, each verb requiring its own subset (see
//! [`Request`]). This keeps the protocol trivially evolvable under the
//! vendored serde: absent fields deserialize as `None`, so old clients
//! keep working when new optional fields appear.

use lvp_core::{BatchReport, ScoreInterval, ServingArtifact};
use lvp_telemetry::TelemetrySnapshot;
use serde::{Deserialize, Serialize};

/// Identity of one deployed monitor. The daemon's registry is a map keyed
/// by this triple; `BTreeMap` ordering (tenant, then model, then version)
/// makes every registry iteration — listings, snapshots, metric prefixes —
/// deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MonitorKey {
    /// Owning tenant (admission control is per tenant).
    pub tenant: String,
    /// Monitored model name.
    pub model: String,
    /// Deployed model version.
    pub version: String,
}

impl MonitorKey {
    /// The telemetry name prefix of this deployment's monitor metrics,
    /// e.g. `tenant.acme.fraud.v1.` →
    /// `tenant.acme.fraud.v1.monitor.raw_score`.
    pub fn metric_prefix(&self) -> String {
        format!("tenant.{}.{}.{}.", self.tenant, self.model, self.version)
    }
}

impl std::fmt::Display for MonitorKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}/{}", self.tenant, self.model, self.version)
    }
}

/// One protocol request. `verb` selects the operation:
///
/// | verb       | required fields                          | optional |
/// |------------|------------------------------------------|----------|
/// | `register` | `tenant`,`model`,`version`,`artifact`    |          |
/// | `observe`  | key + exactly one of `outputs`/`chunk`/`estimate`/`interval` | |
/// | `finish`   | `tenant`,`model`,`version`               |          |
/// | `history`  | `tenant`,`model`,`version`               | `limit`,`offset` |
/// | `metrics`  |                                          |          |
/// | `list`     |                                          |          |
/// | `save`     |                                          |          |
/// | `shutdown` |                                          |          |
///
/// A `save` line that still carries the removed export `path` is
/// answered with an error rather than ignored.
///
/// `outputs` submits a full serving batch of model output rows (scored
/// immediately), `chunk` folds output rows into the deployment's open
/// streaming window (closed by `finish`), `estimate` reports an
/// externally computed score, and `interval` reports an externally
/// computed [`ScoreInterval`] (validated on entry: bounds must be all
/// finite with `0 ≤ lo ≤ point ≤ hi ≤ 1`, or all NaN for a degraded
/// batch). Every `outputs` and `chunk` value must lie in `[0, 1]`, and
/// an `estimate` in `[0, 1]` or be NaN (a degraded batch).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Request {
    /// Operation selector (see the table above).
    pub verb: String,
    /// Target tenant.
    pub tenant: Option<String>,
    /// Target model name.
    pub model: Option<String>,
    /// Target model version.
    pub version: Option<String>,
    /// `register`: the deployment bundle to install.
    pub artifact: Option<ServingArtifact>,
    /// `observe`: a full batch of model output rows (n × classes).
    pub outputs: Option<Vec<Vec<f64>>>,
    /// `observe`: one chunk of model output rows for the streaming window.
    pub chunk: Option<Vec<Vec<f64>>>,
    /// `observe`: an externally computed score estimate.
    pub estimate: Option<f64>,
    /// `observe`: an externally computed score interval (validated by the
    /// daemon before it is recorded).
    pub interval: Option<ScoreInterval>,
    /// `history`: maximum reports to return (default: everything retained).
    pub limit: Option<usize>,
    /// `history`: reports to skip from the start of the retained history.
    pub offset: Option<usize>,
}

impl Request {
    /// A request with only the verb set.
    pub fn new(verb: impl Into<String>) -> Self {
        Self {
            verb: verb.into(),
            tenant: None,
            model: None,
            version: None,
            artifact: None,
            outputs: None,
            chunk: None,
            estimate: None,
            interval: None,
            limit: None,
            offset: None,
        }
    }

    /// A request targeting one deployment.
    pub fn targeted(verb: impl Into<String>, key: &MonitorKey) -> Self {
        let mut req = Self::new(verb);
        req.tenant = Some(key.tenant.clone());
        req.model = Some(key.model.clone());
        req.version = Some(key.version.clone());
        req
    }

    /// The deployment the request targets, when tenant, model and version
    /// are all set.
    pub(crate) fn key(&self) -> Option<MonitorKey> {
        Some(MonitorKey {
            tenant: self.tenant.clone()?,
            model: self.model.clone()?,
            version: self.version.clone()?,
        })
    }
}

/// One protocol response. `status` is `"ok"`, `"shed"` (admission control
/// rejected the request; retry after `retry_after_nanos` on the daemon's
/// virtual clock) or `"error"`; the payload fields are filled per verb.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Response {
    /// `"ok"`, `"shed"` or `"error"`.
    pub status: String,
    /// Human-readable detail (always set for `shed`/`error`).
    pub message: Option<String>,
    /// The batch report produced by `observe`/`finish` (also set on shed
    /// responses that degraded a batch, so the loss is visible inline).
    pub report: Option<BatchReport>,
    /// `history`: the requested report slice, oldest first.
    pub history: Option<Vec<BatchReport>>,
    /// Total batches the target monitor has observed (absolute count).
    pub batches_seen: Option<usize>,
    /// Chunks currently in flight (unfinished windows) for the tenant.
    pub pending_chunks: Option<u64>,
    /// `shed`: virtual nanoseconds the client should back off before
    /// retrying.
    pub retry_after_nanos: Option<u64>,
    /// `metrics`: the deterministic telemetry view.
    pub metrics: Option<TelemetrySnapshot>,
    /// `list`: every registered deployment, in key order.
    pub deployments: Option<Vec<MonitorKey>>,
}

impl Response {
    fn empty(status: &str) -> Self {
        Self {
            status: status.to_string(),
            message: None,
            report: None,
            history: None,
            batches_seen: None,
            pending_chunks: None,
            retry_after_nanos: None,
            metrics: None,
            deployments: None,
        }
    }

    /// A bare success response.
    pub fn ok() -> Self {
        Self::empty("ok")
    }

    /// An error response with a message.
    pub fn error(message: impl Into<String>) -> Self {
        let mut r = Self::empty("error");
        r.message = Some(message.into());
        r
    }

    /// A shed (admission-rejected) response with a retry-after hint.
    pub fn shed(retry_after_nanos: u64, message: impl Into<String>) -> Self {
        let mut r = Self::empty("shed");
        r.message = Some(message.into());
        r.retry_after_nanos = Some(retry_after_nanos);
        r
    }

    /// Whether the request succeeded.
    pub fn is_ok(&self) -> bool {
        self.status == "ok"
    }

    /// Whether admission control shed the request.
    pub fn is_shed(&self) -> bool {
        self.status == "shed"
    }
}

/// On-disk snapshot of the whole registry: one [`ServingArtifact`] bundle
/// per deployment, in key order. Written by the `save` verb and loaded at
/// daemon startup; the bundled v4 artifacts round-trip monitor state —
/// open streaming windows included — bit-identically.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegistrySnapshot {
    /// Artifact format version (shared with the core artifacts).
    pub version: u32,
    /// The write-ahead-journal compaction epoch this snapshot covers:
    /// replay applies only journal records at exactly this epoch,
    /// skipping stale ones left by a crash between snapshot and journal
    /// truncation. `None` on [`Daemon::snapshot`](crate::Daemon::snapshot)
    /// views and in pre-journal snapshot files (the field is absent there
    /// and deserializes as `None`); recovery reads `None` as epoch 0.
    pub journal_epoch: Option<u64>,
    /// Every deployment, sorted by key.
    pub deployments: Vec<DeploymentEntry>,
}

/// One deployment inside a [`RegistrySnapshot`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentEntry {
    /// The deployment's registry key.
    pub key: MonitorKey,
    /// The deployment's bundled predictor + monitor state.
    pub artifact: ServingArtifact,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_and_tolerate_missing_fields() {
        let key = MonitorKey {
            tenant: "acme".into(),
            model: "fraud".into(),
            version: "v1".into(),
        };
        let mut req = Request::targeted("observe", &key);
        req.estimate = Some(0.84);
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);

        // A minimal hand-written line (absent optional fields) parses too.
        let back: Request = serde_json::from_str(r#"{"verb":"metrics"}"#).unwrap();
        assert_eq!(back.verb, "metrics");
        assert!(back.tenant.is_none() && back.artifact.is_none());
    }

    #[test]
    fn responses_round_trip() {
        let mut r = Response::shed(1_500, "queue full");
        r.pending_chunks = Some(4);
        let json = serde_json::to_string(&r).unwrap();
        let back: Response = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.retry_after_nanos, Some(1_500));
        assert!(back.is_shed() && !back.is_ok());
    }

    #[test]
    fn monitor_keys_order_by_tenant_model_version() {
        let mk = |t: &str, m: &str, v: &str| MonitorKey {
            tenant: t.into(),
            model: m.into(),
            version: v.into(),
        };
        let mut keys = [
            mk("b", "a", "v1"),
            mk("a", "z", "v1"),
            mk("a", "a", "v2"),
            mk("a", "a", "v1"),
        ];
        keys.sort();
        assert_eq!(
            keys.iter().map(|k| k.to_string()).collect::<Vec<_>>(),
            vec!["a/a/v1", "a/a/v2", "a/z/v1", "b/a/v1"]
        );
        assert_eq!(keys[0].metric_prefix(), "tenant.a.a.v1.");
    }
}
