//! The daemon state machine: a registry of deployed monitors plus
//! per-tenant admission control, independent of any transport.
//!
//! [`Daemon::handle_line`] maps one request line to one response line, so
//! the whole protocol is testable without a socket; the TCP listener in
//! [`crate::net`] is a thin framing layer over it.
//!
//! ## Admission control
//!
//! Streaming chunks are the unbounded input: a tenant can open windows on
//! every deployment and feed them forever without calling `finish`. Each
//! tenant therefore gets a bounded in-flight budget — the total number of
//! chunks sitting in the tenant's unfinished windows. A chunk that would
//! exceed the budget is *shed*, 429-style: the response carries a
//! deterministic retry-after hint ([`lvp_models::backoff_nanos`], the
//! client's retry rule, at the tenant's consecutive overflows),
//! and the target window is poisoned so its eventual `finish` reports a
//! degraded batch — shed load degrades monitor state, it never silently
//! disappears from it. Sustained overflow trips a per-tenant
//! [`CircuitBreaker`] — the one the resilience layer's client runs, with
//! overflows as its failures: while open, every observe from the tenant is
//! shed immediately with the remaining cooldown as the retry-after, and
//! each shed full batch is recorded as a degraded report. Cooldowns run on a
//! [`VirtualClock`] advanced a fixed tick per request, so breaker behavior
//! is a pure function of the request sequence.

use crate::journal::{scan_journal, FsyncPolicy, Journal, JournalFaultPlan, JournalOp};
use crate::protocol::{DeploymentEntry, MonitorKey, RegistrySnapshot, Request, Response};
use lvp_core::{
    check_version, load_json, save_json, BatchMonitor, BatchReport, FeatureSource, ServingArtifact,
    ARTIFACT_VERSION,
};
use lvp_dataframe::{mix64, Fnv};
use lvp_linalg::DenseMatrix;
use lvp_models::{
    backoff_nanos, BlackBoxModel, BreakerConfig, CircuitBreaker, CircuitState, ModelError,
    VirtualClock,
};
use lvp_telemetry::{Counter, Histogram, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Stand-in for the black box model of a registered deployment. The model
/// itself serves in the tenant's own infrastructure; the daemon only ever
/// receives its *outputs* (or score estimates), so the monitor's model
/// handle exists purely to satisfy the predictor's class-count contract.
struct DetachedModel {
    n_classes: usize,
    label: String,
}

impl BlackBoxModel for DetachedModel {
    /// Unreachable through the daemon: every observe path feeds
    /// pre-computed outputs or estimates. Fails loudly if a future code
    /// path tries to score raw frames against a detached handle.
    fn try_predict_proba(
        &self,
        _data: &lvp_dataframe::DataFrame,
    ) -> Result<DenseMatrix, ModelError> {
        Err(ModelError::invalid_input(format!(
            "detached model '{}' cannot predict; submit model outputs instead",
            self.label
        )))
    }

    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn name(&self) -> &str {
        "detached"
    }
}

/// Seed of the deterministic retry-after jitter.
const JITTER_SEED: u64 = 0x1_5EED_D0E5;

/// Admission-control and retention knobs of a [`Daemon`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Per-tenant budget of in-flight chunks (chunks folded into windows
    /// not yet closed by `finish`); the next chunk beyond it is shed.
    pub queue_capacity: u64,
    /// Per-tenant circuit breaker tripped by consecutive overflows.
    pub breaker: BreakerConfig,
    /// Virtual nanoseconds the clock advances per handled request; breaker
    /// cooldowns are measured in these ticks, so behavior is a pure
    /// function of the request sequence.
    pub clock_tick_nanos: u64,
    /// Report-history bound applied to every registered monitor (`None`
    /// retains everything; daemons should bound it).
    pub history_limit: Option<usize>,
    /// Upper bound on one request line in bytes; longer lines are
    /// discarded unread and answered with a typed error instead of
    /// buffering without limit.
    pub max_request_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 64,
            breaker: BreakerConfig::default(),
            clock_tick_nanos: 1_000_000, // 1 virtual ms per request
            history_limit: Some(256),
            max_request_bytes: 16 << 20, // 16 MiB
        }
    }
}

/// Durability wiring of a [`Daemon`]: the state directory that holds its
/// recovery snapshot (`registry.json`) and write-ahead journal
/// (`observe.journal`), and how eagerly the journal fsyncs. A daemon
/// without one ([`Daemon::new`]) is purely in-memory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The state directory, created by [`Daemon::recover`] if absent.
    pub dir: PathBuf,
    /// The journal's fsync policy.
    pub fsync: FsyncPolicy,
}

impl DurabilityConfig {
    /// The state directory `dir`, fsyncing the journal per `fsync`.
    pub fn in_dir_with_fsync(dir: impl AsRef<Path>, fsync: FsyncPolicy) -> Self {
        Self {
            dir: dir.as_ref().to_path_buf(),
            fsync,
        }
    }

    /// The recovery snapshot: loaded by [`Daemon::recover`], rewritten by
    /// every compaction (the `save` verb and shutdown).
    pub fn snapshot_path(&self) -> PathBuf {
        self.dir.join("registry.json")
    }

    /// The write-ahead journal: every accepted mutation is appended here
    /// *before* it is applied.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("observe.journal")
    }
}

/// What [`Daemon::recover`] found and did. Every count is also surfaced
/// as a `journal.*` telemetry counter on the recovered daemon.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a registry snapshot file existed and was loaded.
    pub snapshot_loaded: bool,
    /// Deployments restored from the snapshot.
    pub snapshot_deployments: usize,
    /// Bytes found in the journal file.
    pub journal_bytes: u64,
    /// Records replayed over the snapshot (current epoch).
    pub records_replayed: usize,
    /// Records skipped as stale — an older epoch already folded into the
    /// snapshot by a compaction the crash interrupted after the snapshot
    /// write.
    pub records_stale: usize,
    /// Records skipped as future — a *newer* epoch than the snapshot,
    /// meaning the snapshot in the directory is older than its journal
    /// (e.g. an operator copied in an earlier snapshot). Nothing is
    /// guessed: the records are skipped and counted, never misapplied.
    pub records_future: usize,
    /// Replayed records whose application errored and applied nothing.
    /// Live requests are validated before they are journaled, so only
    /// journals written by releases that journaled first hold such
    /// records.
    pub replay_op_errors: usize,
    /// Bytes of damaged tail truncated off the journal.
    pub truncated_tail_bytes: u64,
    /// Human-readable classification of the tail defect, if any.
    pub tail_defect: Option<String>,
}

impl RecoveryReport {
    /// One-line operator summary (printed by `lvpd` at startup).
    pub fn summary(&self) -> String {
        let mut s = format!(
            "recovered {} deployments from snapshot={} journal={}B: {} replayed, {} stale, {} future, {} op errors",
            self.snapshot_deployments,
            if self.snapshot_loaded { "yes" } else { "no" },
            self.journal_bytes,
            self.records_replayed,
            self.records_stale,
            self.records_future,
            self.replay_op_errors,
        );
        if let Some(defect) = &self.tail_defect {
            s.push_str(&format!(
                "; truncated {}B damaged tail ({defect})",
                self.truncated_tail_bytes
            ));
        }
        s
    }
}

/// Per-tenant admission gate: the shared [`CircuitBreaker`], whose
/// failures are chunk overflows, plus the tenant's shed count. The
/// in-flight chunk count is *not* stored here — it is derived from the
/// open windows of the tenant's monitors, so it survives a registry
/// save/restore cycle with no extra state.
#[derive(Debug, Clone, Default)]
struct TenantGate {
    breaker: CircuitBreaker,
    sheds: u64,
}

#[derive(Default)]
struct Inner {
    deployments: BTreeMap<MonitorKey, BatchMonitor>,
    tenants: BTreeMap<String, TenantGate>,
    /// The state directory's files, when durability is configured.
    durable: Option<Durable>,
}

struct Durable {
    /// Where compactions write the registry snapshot.
    snapshot_path: PathBuf,
    /// The write-ahead journal. Living under the state mutex guarantees
    /// append order == application order, which is what makes replay
    /// bit-identical.
    journal: Journal,
}

/// What the validate step built for the apply step, so nothing is parsed
/// or constructed twice.
enum Prepared {
    /// The op carries everything the apply step needs.
    Nothing,
    /// The parsed output matrix of a row-carrying op.
    Rows(DenseMatrix),
    /// The monitor a register installs.
    Monitor(Box<BatchMonitor>),
}

/// What applying one op produced: the parts of the response it determines.
struct Applied {
    /// The batch report the op recorded, if it recorded one.
    report: Option<BatchReport>,
    /// The target monitor's absolute batch count after the op.
    batches_seen: usize,
}

/// Why [`Daemon::apply_op`] applied nothing.
enum Rejected {
    /// The op failed validation.
    Invalid(String),
    /// The write-ahead journal append failed.
    Journal(String),
}

impl From<Rejected> for Response {
    fn from(rejected: Rejected) -> Self {
        match rejected {
            Rejected::Invalid(message) | Rejected::Journal(message) => Response::error(message),
        }
    }
}

/// Daemon-level request counters (all deterministic in the request
/// sequence, except the volatile fsync latency histogram).
struct ServerMetrics {
    /// `server.requests` — lines handled.
    requests: Counter,
    /// `server.registrations` — deployments (re)installed.
    registrations: Counter,
    /// `server.shed_requests` — observes rejected by admission control.
    shed: Counter,
    /// `server.error_responses` — lines answered with an error status.
    errors: Counter,
    /// `server.oversized_requests` — request lines discarded for
    /// exceeding [`DaemonConfig::max_request_bytes`].
    oversized: Counter,
    /// `journal.appends` — records appended to the write-ahead journal.
    journal_appends: Counter,
    /// `journal.append_failures` — appends that failed (the request was
    /// rejected without being applied).
    journal_append_failures: Counter,
    /// `journal.compactions` — snapshot saves that truncated the journal.
    journal_compactions: Counter,
    /// `journal.records_replayed` — records applied during recovery.
    journal_replayed: Counter,
    /// `journal.replay_op_errors` — replayed records that applied nothing
    /// (only journals written before validate-before-append hold them).
    journal_replay_errors: Counter,
    /// `journal.stale_records_skipped` — pre-compaction records skipped
    /// during recovery.
    journal_stale_skipped: Counter,
    /// `journal.future_records_skipped` — records newer than the snapshot
    /// epoch, skipped rather than misapplied.
    journal_future_skipped: Counter,
    /// `journal.tail_defects` — damaged journal tails found at recovery.
    journal_tail_defects: Counter,
    /// `journal.tail_truncated_bytes` — damaged bytes truncated away.
    journal_tail_truncated: Counter,
    /// `journal.fsync_latency` — wall-clock fsync durations (volatile:
    /// both values and count depend on the fsync policy and hardware).
    fsync_latency: Histogram,
}

/// The lvpd daemon: a registry of deployed monitors keyed by
/// `(tenant, model, version)` with per-tenant admission control, exposed
/// as a pure line-in/line-out request handler.
pub struct Daemon {
    inner: Mutex<Inner>,
    registry: Registry,
    metrics: ServerMetrics,
    clock: VirtualClock,
    config: DaemonConfig,
    shutdown: AtomicBool,
}

/// Whether a request line has a top-level `path` key.
fn names_path(line: &str) -> bool {
    serde_json::from_str::<serde::Value>(line).is_ok_and(|v| v.get("path").is_some())
}

/// Rejects `values` (the `what` of an observe) unless every one lies in
/// `[0, 1]`: no model emits a probability or a score outside it, and NaN
/// and ±inf are neither.
fn check_unit_range(what: &str, values: &[f64]) -> Result<(), String> {
    match values.iter().find(|v| !(0.0..=1.0).contains(*v)) {
        Some(v) => Err(format!("{what} value {v} lies outside [0, 1]")),
        None => Ok(()),
    }
}

/// A tenant name's hash, for per-tenant jitter: [`Fnv`] with the
/// multiplier `0x1_0000_01b3`, not the FNV prime. It sets every
/// retry-after jitter, so the multiplier stays as it is.
fn tenant_hash(tenant: &str) -> u64 {
    Fnv::<0x1_0000_01b3>::hash(0, tenant.as_bytes())
}

impl Daemon {
    /// An empty daemon.
    pub fn new(config: DaemonConfig) -> Self {
        let registry = Registry::new();
        let metrics = ServerMetrics {
            requests: registry.counter("server.requests"),
            registrations: registry.counter("server.registrations"),
            shed: registry.counter("server.shed_requests"),
            errors: registry.counter("server.error_responses"),
            oversized: registry.counter("server.oversized_requests"),
            journal_appends: registry.counter("journal.appends"),
            journal_append_failures: registry.counter("journal.append_failures"),
            journal_compactions: registry.counter("journal.compactions"),
            journal_replayed: registry.counter("journal.records_replayed"),
            journal_replay_errors: registry.counter("journal.replay_op_errors"),
            journal_stale_skipped: registry.counter("journal.stale_records_skipped"),
            journal_future_skipped: registry.counter("journal.future_records_skipped"),
            journal_tail_defects: registry.counter("journal.tail_defects"),
            journal_tail_truncated: registry.counter("journal.tail_truncated_bytes"),
            fsync_latency: registry.volatile_histogram("journal.fsync_latency"),
        };
        Self {
            inner: Mutex::new(Inner::default()),
            registry,
            metrics,
            clock: VirtualClock::new(),
            config,
            shutdown: AtomicBool::new(false),
        }
    }

    /// Installs every deployment of a registry snapshot into this daemon
    /// after checking its version. Returns the number of deployments
    /// installed.
    fn install_snapshot(&self, snapshot: RegistrySnapshot) -> Result<usize, String> {
        check_version("registry snapshot", snapshot.version).map_err(|e| e.message)?;
        let mut inner = self.lock_inner();
        for entry in snapshot.deployments {
            let monitor = Self::build_monitor(&entry.key, entry.artifact)?;
            self.install(&mut inner, entry.key, monitor);
        }
        Ok(inner.deployments.len())
    }

    /// Crash-recovering startup from a state directory (created if
    /// absent): loads the registry snapshot if one exists, replays the
    /// write-ahead journal tail over it, truncates any damaged tail to the
    /// last durable record, and leaves the journal open for appending.
    /// Monitors are deterministic, so the recovered registry is
    /// bit-identical to the pre-crash one up to the last durable journal
    /// record. A directory holding only a snapshot restores it as is.
    ///
    /// Defects are never fatal: a torn or bit-flipped tail is classified
    /// and truncated ([`RecoveryReport::tail_defect`], `journal.tail_*`
    /// counters), stale/future-epoch records are skipped and counted.
    /// Only unreadable files (I/O or a corrupt snapshot envelope) error.
    pub fn recover(
        config: DaemonConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), String> {
        std::fs::create_dir_all(&durability.dir)
            .map_err(|e| format!("create state directory {}: {e}", durability.dir.display()))?;
        let daemon = Self::new(config);
        let snapshot_path = durability.snapshot_path();
        let jpath = durability.journal_path();
        let mut report = RecoveryReport::default();
        let mut epoch = 0u64;

        if snapshot_path.exists() {
            let snapshot: RegistrySnapshot =
                load_json(&snapshot_path).map_err(|e| format!("recover registry snapshot: {e}"))?;
            epoch = snapshot.journal_epoch.unwrap_or(0);
            report.snapshot_deployments = daemon.install_snapshot(snapshot)?;
            report.snapshot_loaded = true;
        }

        if jpath.exists() {
            let bytes = std::fs::read(&jpath)
                .map_err(|e| format!("read journal {}: {e}", jpath.display()))?;
            report.journal_bytes = bytes.len() as u64;
            let scan = scan_journal(&bytes);
            {
                let mut inner = daemon.lock_inner();
                let inner = &mut *inner;
                for record in scan.records {
                    match record.epoch.cmp(&epoch) {
                        std::cmp::Ordering::Less => report.records_stale += 1,
                        std::cmp::Ordering::Greater => report.records_future += 1,
                        std::cmp::Ordering::Equal => {
                            report.records_replayed += 1;
                            // No journal is attached yet, so the append
                            // inside apply_op is a no-op.
                            if daemon.apply_op(inner, record.op).is_err() {
                                report.replay_op_errors += 1;
                            }
                        }
                    }
                }
            }
            if let Some(defect) = scan.defect {
                report.truncated_tail_bytes = (bytes.len() - scan.valid_len) as u64;
                report.tail_defect = Some(defect.to_string());
                let file = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&jpath)
                    .map_err(|e| format!("open journal for repair: {e}"))?;
                file.set_len(scan.valid_len as u64)
                    .map_err(|e| format!("truncate damaged journal tail: {e}"))?;
                file.sync_all()
                    .map_err(|e| format!("sync repaired journal: {e}"))?;
            }
        }
        let journal = Journal::open(&jpath, durability.fsync, epoch)
            .map_err(|e| format!("open journal {}: {e}", jpath.display()))?;
        daemon.lock_inner().durable = Some(Durable {
            snapshot_path,
            journal,
        });

        let m = &daemon.metrics;
        m.journal_replayed.add(report.records_replayed as u64);
        m.journal_replay_errors.add(report.replay_op_errors as u64);
        m.journal_stale_skipped.add(report.records_stale as u64);
        m.journal_future_skipped.add(report.records_future as u64);
        if report.tail_defect.is_some() {
            m.journal_tail_defects.inc();
            m.journal_tail_truncated.add(report.truncated_tail_bytes);
        }
        Ok((daemon, report))
    }

    /// The daemon's metrics registry (scraped by the `metrics` verb).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The daemon's admission/retention configuration.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The journal's current compaction epoch (`None` without a journal).
    pub fn journal_epoch(&self) -> Option<u64> {
        self.lock_inner()
            .durable
            .as_ref()
            .map(|durable| durable.journal.epoch())
    }

    /// Wraps the live journal sink in a seeded fault injector — test and
    /// chaos-example plumbing; a no-op without a journal.
    pub fn inject_journal_faults(&self, plan: JournalFaultPlan) {
        if let Some(d) = self.lock_inner().durable.as_mut() {
            d.journal
                .wrap_sink(|sink| Box::new(crate::journal::FaultFile::new(sink, plan)));
        }
    }

    /// The virtual clock admission cooldowns run on.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The tenant's current admission circuit state (`Closed` for tenants
    /// the daemon has never seen).
    pub fn tenant_circuit(&self, tenant: &str) -> CircuitState {
        self.lock_inner()
            .tenants
            .get(tenant)
            .map(|gate| gate.breaker.state())
            .unwrap_or(CircuitState::Closed)
    }

    /// Whether a `shutdown` request has been received.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown (also reachable through the `shutdown` verb).
    ///
    /// The first call compacts a durable daemon's state: the registry is
    /// saved to its snapshot and the journal truncated. A failure is
    /// reported on stderr and the journal is fsynced instead, so records
    /// acknowledged since the last fsync stay durable; shutdown proceeds
    /// regardless.
    pub fn request_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut inner = self.lock_inner();
        if inner.durable.is_none() {
            return;
        }
        if let Err(e) = self.compact(&mut inner) {
            eprintln!("lvpd: shutdown compaction failed: {e}");
            if let Some(Err(e)) = inner.durable.as_mut().map(|d| d.journal.flush()) {
                eprintln!("lvpd: shutdown journal flush failed: {e}");
            }
        }
    }

    /// State access, recovering a poisoned lock: every mutation is a
    /// single monitor/gate method call, so a panicking handler thread
    /// leaves valid state behind and must not brick the daemon (mirroring
    /// the telemetry registry's poisoning policy).
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Handles one request line, returning the response line (without the
    /// trailing newline). Never panics on malformed input — parse and
    /// validation failures come back as `status: "error"` responses.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match serde_json::from_str::<Request>(line) {
            // `save` takes no fields. A client still naming an export path
            // (which `Request` no longer has, so serde ignored it) is told
            // no file was written there rather than `ok`.
            Ok(request) if request.verb == "save" && names_path(line) => self.refuse(
                "save takes no path: it compacts the state directory and exports nothing".into(),
            ),
            Ok(request) => self.handle_request(request),
            Err(e) => self.refuse(format!("malformed request: {e}")),
        };
        serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"status\":\"error\",\"message\":\"encode: {e}\"}}"))
    }

    /// The response line for a request whose raw bytes exceeded
    /// [`DaemonConfig::max_request_bytes`]. The transport calls this
    /// *instead of* [`Self::handle_line`] — the oversized line was never
    /// fully buffered, so there is nothing to parse — and the rejection
    /// still ticks the clock and the request/error counters like any
    /// other handled request.
    pub fn reject_oversized(&self) -> String {
        self.metrics.oversized.inc();
        let response = self.refuse(format!(
            "request line exceeds max_request_bytes ({}); raise the cap or split the batch",
            self.config.max_request_bytes
        ));
        serde_json::to_string(&response)
            .unwrap_or_else(|e| format!("{{\"status\":\"error\",\"message\":\"encode: {e}\"}}"))
    }

    /// An error response for a line refused before dispatch, ticking the
    /// clock and the request/error counters like any handled request.
    fn refuse(&self, message: String) -> Response {
        self.clock.advance(self.config.clock_tick_nanos);
        self.metrics.requests.inc();
        self.metrics.errors.inc();
        Response::error(message)
    }

    /// Typed entry point behind [`Self::handle_line`] (useful for
    /// embedding the daemon without a socket). Advances the virtual clock
    /// one tick, so admission timing is a pure function of the request
    /// sequence.
    pub fn handle_request(&self, request: Request) -> Response {
        self.clock.advance(self.config.clock_tick_nanos);
        self.metrics.requests.inc();
        let response = self.dispatch(request);
        if response.status == "error" {
            self.metrics.errors.inc();
        }
        response
    }

    fn dispatch(&self, request: Request) -> Response {
        let keyed_verb: fn(&Self, MonitorKey, Request) -> Response = match request.verb.as_str() {
            "register" => Self::register,
            "observe" => Self::observe,
            "finish" => Self::finish,
            "history" => Self::history,
            "metrics" => return self.metrics(),
            "list" => return self.list(),
            "save" => return self.save(),
            "shutdown" => {
                self.request_shutdown();
                let mut r = Response::ok();
                r.message = Some("shutting down".to_string());
                return r;
            }
            other => return Response::error(format!("unknown verb '{other}'")),
        };
        match request.key() {
            Some(key) => keyed_verb(self, key, request),
            None => Response::error("tenant, model and version are all required for this verb"),
        }
    }

    /// Appends `op` to the write-ahead journal (a no-op without one). On
    /// failure nothing is applied, preserving the invariant that replaying
    /// the journal reproduces exactly the mutations the daemon
    /// acknowledged.
    fn journal_append(&self, inner: &mut Inner, op: &JournalOp) -> Result<(), String> {
        let Some(durable) = inner.durable.as_mut() else {
            return Ok(());
        };
        match durable.journal.append(op) {
            Ok(sync_nanos) => {
                self.metrics.journal_appends.inc();
                if let Some(nanos) = sync_nanos {
                    self.metrics.fsync_latency.record_nanos(nanos);
                }
                Ok(())
            }
            Err(e) => {
                self.metrics.journal_append_failures.inc();
                Err(format!(
                    "write-ahead journal append failed; request not applied: {e}"
                ))
            }
        }
    }

    /// The validate step: checks `op` against the registry without
    /// mutating anything, so a request that would apply nothing is never
    /// journaled. Returns what it parsed or built on the way.
    fn validate_op(inner: &Inner, op: &JournalOp) -> Result<Prepared, String> {
        if let JournalOp::Register { key, artifact } = op {
            return Self::build_monitor(key, artifact.clone())
                .map(|monitor| Prepared::Monitor(Box::new(monitor)));
        }
        let key = op.key();
        let monitor = inner
            .deployments
            .get(key)
            .ok_or_else(|| format!("unknown deployment {key}"))?;
        let parse = |rows: &[Vec<f64>], form: &str| {
            DenseMatrix::from_rows(rows).map_err(|e| format!("bad {form}: {e}"))
        };
        match op {
            JournalOp::ObserveOutputs { rows, .. } => {
                let proba = parse(rows, "outputs")?;
                monitor
                    .predictor()
                    .check_source(&FeatureSource::Exact(&proba))
                    .map_err(|e| e.to_string())?;
                check_unit_range("outputs", proba.data())?;
                Ok(Prepared::Rows(proba))
            }
            JournalOp::ObserveChunk { rows, .. } => {
                let proba = parse(rows, "chunk")?;
                let n_classes = monitor.predictor().n_classes();
                if proba.rows() > 0 && proba.cols() != n_classes {
                    return Err(format!(
                        "chunk has {} columns but {key} serves {n_classes} classes",
                        proba.cols()
                    ));
                }
                check_unit_range("chunk", proba.data())?;
                Ok(Prepared::Rows(proba))
            }
            // A NaN estimate is a degraded batch (`observe_estimate`
            // quarantines it); any other value must be a score.
            JournalOp::ObserveEstimate { estimate, .. } if !estimate.is_nan() => {
                check_unit_range("estimate", &[*estimate])?;
                Ok(Prepared::Nothing)
            }
            JournalOp::ObserveInterval { interval, .. } => {
                interval.validate().map_err(|e| e.to_string())?;
                Ok(Prepared::Nothing)
            }
            JournalOp::Finish { .. } if monitor.window().is_none() => {
                Err("core error: no open streaming window to finish".to_string())
            }
            _ => Ok(Prepared::Nothing),
        }
    }

    /// The one mutation path, shared by every live verb and by recovery:
    /// validate `op`, append it to the write-ahead journal, apply it.
    /// Recovery replays before the journal is attached, so there the
    /// append is a no-op and replay runs exactly the code the live request
    /// ran — replay ≡ live by construction. Admission happened before the
    /// op was built (a shed is journaled as its effect), so none runs here.
    fn apply_op(&self, inner: &mut Inner, op: JournalOp) -> Result<Applied, Rejected> {
        let prepared = Self::validate_op(inner, &op).map_err(Rejected::Invalid)?;
        self.journal_append(inner, &op).map_err(Rejected::Journal)?;
        let mut proba = match prepared {
            Prepared::Monitor(monitor) => {
                let batches_seen = monitor.batches_seen();
                self.install(inner, op.key().clone(), *monitor);
                return Ok(Applied {
                    report: None,
                    batches_seen,
                });
            }
            Prepared::Rows(proba) => Some(proba),
            Prepared::Nothing => None,
        };
        let monitor = inner
            .deployments
            .get_mut(op.key())
            .expect("validated above");
        let mut proba = || proba.take().expect("validated rows are parsed");
        let report = match op {
            JournalOp::ObserveOutputs { .. } => monitor.observe_outputs(&proba()).map(Some),
            JournalOp::ObserveChunk { .. } => monitor.observe_output_chunk(&proba()).map(|()| None),
            JournalOp::ObserveEstimate { estimate, .. } => {
                Ok(Some(monitor.observe_estimate(estimate)))
            }
            JournalOp::ObserveInterval { interval, .. } => {
                monitor.observe_interval(interval).map(Some)
            }
            JournalOp::Finish { .. } => monitor.finish_window().map(Some),
            JournalOp::AbandonWindow { reason, .. } => {
                monitor.abandon_window(reason);
                Ok(None)
            }
            JournalOp::ObserveDegraded { reason, .. } => Ok(Some(monitor.observe_degraded(reason))),
            JournalOp::Register { .. } => unreachable!("installed above"),
        }
        .map_err(|e| Rejected::Invalid(e.to_string()))?;
        Ok(Applied {
            report,
            batches_seen: monitor.batches_seen(),
        })
    }

    /// Restores the monitor a deployment's artifact describes, against a
    /// detached model handle of the artifact's class count.
    fn build_monitor(key: &MonitorKey, artifact: ServingArtifact) -> Result<BatchMonitor, String> {
        let n_classes = artifact.n_classes();
        if n_classes == 0 {
            return Err(format!("register {key}: artifact declares zero classes"));
        }
        let model: Arc<dyn BlackBoxModel> = Arc::new(DetachedModel {
            n_classes,
            label: key.to_string(),
        });
        artifact
            .into_monitor(model)
            .map_err(|e| format!("register {key}: {e}"))
    }

    /// Installs (or replaces) a deployment, attaching per-tenant telemetry
    /// and the configured history bound.
    fn install(&self, inner: &mut Inner, key: MonitorKey, mut monitor: BatchMonitor) {
        monitor.set_history_limit(self.config.history_limit);
        monitor.attach_telemetry_prefixed(&self.registry, &key.metric_prefix());
        inner.tenants.entry(key.tenant.clone()).or_default();
        inner.deployments.insert(key, monitor);
        self.metrics.registrations.inc();
    }

    fn register(&self, key: MonitorKey, request: Request) -> Response {
        let Some(artifact) = request.artifact else {
            return Response::error("register requires an artifact");
        };
        let mut inner = self.lock_inner();
        match self.apply_op(
            &mut inner,
            JournalOp::Register {
                key: key.clone(),
                artifact,
            },
        ) {
            Ok(applied) => {
                let mut r = Response::ok();
                r.message = Some(format!("registered {key}"));
                r.batches_seen = Some(applied.batches_seen);
                r
            }
            Err(rejected) => rejected.into(),
        }
    }

    /// Total in-flight chunks of a tenant: the chunk counts of every open
    /// window across the tenant's deployments. Derived from monitor state
    /// so it is exact after any save/restore cycle.
    fn tenant_pending(inner: &Inner, tenant: &str) -> u64 {
        inner
            .deployments
            .iter()
            .filter(|(key, _)| key.tenant == tenant)
            .filter_map(|(_, monitor)| monitor.window())
            .map(|window| window.chunks())
            .sum()
    }

    /// Deterministic retry-after for the `consecutive`-th consecutive
    /// overflow: the resilience layer's [`backoff_nanos`], its jitter drawn
    /// from `(JITTER_SEED, tenant, total sheds)`.
    fn retry_after(tenant: &str, consecutive: u32, sheds: u64) -> u64 {
        let draw = mix64(
            JITTER_SEED
                .wrapping_add(tenant_hash(tenant))
                .wrapping_add(sheds),
        );
        backoff_nanos(consecutive, draw)
    }

    /// Publishes the tenant's breaker-state and queue-depth gauges,
    /// returning the depth (its in-flight chunks).
    fn publish_gate(&self, inner: &mut Inner, tenant: &str) -> u64 {
        let pending = Self::tenant_pending(inner, tenant);
        let gate = inner.tenants.entry(tenant.to_string()).or_default();
        self.registry
            .gauge(&format!("tenant.{tenant}.server.breaker_state"))
            .set(gate.breaker.state().gauge_value());
        self.registry
            .gauge(&format!("tenant.{tenant}.server.queue_depth"))
            .set(pending as f64);
        pending
    }

    fn note_shed(&self, tenant: &str) {
        self.metrics.shed.inc();
        self.registry
            .counter(&format!("tenant.{tenant}.server.shed_requests"))
            .inc();
    }

    /// `observe`: lower → admit → validate → append → apply, the last three
    /// in [`Self::apply_op`]. Errors take precedence in that order: unknown
    /// deployment, then not exactly one observe form, then a shed, then an
    /// invalid payload.
    fn observe(&self, key: MonitorKey, request: Request) -> Response {
        let now = self.clock.now_nanos();
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        if !inner.deployments.contains_key(&key) {
            return Response::error(format!("unknown deployment {key}"));
        }
        let Some(op) = Self::lower_observe(key.clone(), request) else {
            return Response::error(
                "observe requires exactly one of outputs, chunk, estimate or interval",
            );
        };
        let (op, shed) = self.admit(inner, op, now);
        let applied = match self.apply_op(inner, op) {
            Ok(applied) => applied,
            Err(rejected) => return rejected.into(),
        };
        let mut resp = match shed {
            Some(shed) => {
                self.note_shed(&key.tenant);
                shed
            }
            None => {
                // An accepted observe is a success signal for the breaker.
                let gate = inner.tenants.get_mut(&key.tenant).expect("admitted");
                gate.breaker.record_success(&self.config.breaker);
                let mut r = Response::ok();
                r.batches_seen = Some(applied.batches_seen);
                r
            }
        };
        resp.report = applied.report;
        resp.pending_chunks = Some(self.publish_gate(inner, &key.tenant));
        resp
    }

    /// The lower step: moves the request's one observe form (rows are
    /// moved, not cloned) into the op that journals and applies it.
    /// `None` unless exactly one form is present.
    fn lower_observe(key: MonitorKey, request: Request) -> Option<JournalOp> {
        Some(
            match (
                request.outputs,
                request.chunk,
                request.estimate,
                request.interval,
            ) {
                (Some(rows), None, None, None) => JournalOp::ObserveOutputs { key, rows },
                (None, Some(rows), None, None) => JournalOp::ObserveChunk { key, rows },
                (None, None, Some(estimate), None) => JournalOp::ObserveEstimate { key, estimate },
                (None, None, None, Some(interval)) => JournalOp::ObserveInterval { key, interval },
                _ => return None,
            },
        )
    }

    /// The admit step: passes `op` through, or replaces it with its shed
    /// effect and returns the shed response. An open breaker sheds every
    /// observe form; a chunk beyond the tenant's in-flight budget is shed
    /// and counts toward tripping the breaker. Degrade, never drop: a shed
    /// chunk poisons its window and any other shed observe is recorded as
    /// a degraded batch. The effect is journaled with its literal reason,
    /// so replay needs no gate state.
    fn admit(&self, inner: &mut Inner, op: JournalOp, now: u64) -> (JournalOp, Option<Response>) {
        let key = op.key().clone();
        let chunk = matches!(op, JournalOp::ObserveChunk { .. });
        let gate = inner.tenants.entry(key.tenant.clone()).or_default();
        if let Err(retry) = gate.breaker.admit(now, &self.config.breaker) {
            gate.sheds += 1;
            let reason = format!(
                "tenant '{}' circuit open: observe shed, retry in {retry} virtual ns",
                key.tenant
            );
            let shed = Response::shed(retry, reason.clone());
            let op = if chunk {
                JournalOp::AbandonWindow { key, reason }
            } else {
                JournalOp::ObserveDegraded { key, reason }
            };
            return (op, Some(shed));
        }
        if !chunk {
            return (op, None);
        }
        let pending = Self::tenant_pending(inner, &key.tenant);
        if pending < self.config.queue_capacity {
            return (op, None);
        }
        let gate = inner.tenants.get_mut(&key.tenant).expect("created above");
        gate.sheds += 1;
        gate.breaker.record_failure(now, &self.config.breaker);
        let retry = Self::retry_after(&key.tenant, gate.breaker.consecutive_failures(), gate.sheds);
        let reason = format!(
            "tenant '{}' over its in-flight chunk budget ({pending}/{}): chunk shed",
            key.tenant, self.config.queue_capacity
        );
        let shed = Response::shed(retry, reason.clone());
        (JournalOp::AbandonWindow { key, reason }, Some(shed))
    }

    fn finish(&self, key: MonitorKey, _: Request) -> Response {
        let mut inner = self.lock_inner();
        let inner = &mut *inner;
        if !inner.deployments.contains_key(&key) {
            return Response::error(format!("unknown deployment {key}"));
        }
        let applied = match self.apply_op(inner, JournalOp::Finish { key: key.clone() }) {
            Ok(applied) => applied,
            Err(Rejected::Invalid(message)) => {
                // A finish with no open window still refreshes the gauges.
                self.publish_gate(inner, &key.tenant);
                return Response::error(message);
            }
            Err(rejected) => return rejected.into(),
        };
        let mut r = Response::ok();
        r.report = applied.report;
        r.batches_seen = Some(applied.batches_seen);
        r.pending_chunks = Some(self.publish_gate(inner, &key.tenant));
        r
    }

    fn history(&self, key: MonitorKey, request: Request) -> Response {
        let inner = self.lock_inner();
        let Some(monitor) = inner.deployments.get(&key) else {
            return Response::error(format!("unknown deployment {key}"));
        };
        let reports = monitor.history();
        let offset = request.offset.unwrap_or(0);
        let limit = request.limit.unwrap_or(reports.len());
        let mut r = Response::ok();
        r.history = Some(reports.iter().skip(offset).take(limit).cloned().collect());
        r.batches_seen = Some(monitor.batches_seen());
        r
    }

    fn metrics(&self) -> Response {
        let mut r = Response::ok();
        r.metrics = Some(self.registry.snapshot().deterministic());
        r
    }

    fn list(&self) -> Response {
        let inner = self.lock_inner();
        let mut r = Response::ok();
        r.deployments = Some(inner.deployments.keys().cloned().collect());
        r
    }

    /// Snapshot of the registry contents, for embedding and tests. Pure
    /// content — `journal_epoch` is `None`, so two daemons holding the
    /// same monitor state snapshot identically regardless of how many
    /// compactions each has been through.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = self.lock_inner();
        Self::snapshot_of(&inner.deployments, None)
    }

    fn snapshot_of(
        deployments: &BTreeMap<MonitorKey, BatchMonitor>,
        journal_epoch: Option<u64>,
    ) -> RegistrySnapshot {
        RegistrySnapshot {
            version: ARTIFACT_VERSION,
            journal_epoch,
            deployments: deployments
                .iter()
                .map(|(key, monitor)| DeploymentEntry {
                    key: key.clone(),
                    artifact: ServingArtifact::from_monitor(monitor),
                })
                .collect(),
        }
    }

    /// Compacts a durable daemon's state: writes the registry to the state
    /// directory's snapshot (enveloped, atomic, durable) recording
    /// `epoch + 1`, then truncates the journal and moves it to the new
    /// epoch. A crash between those two steps leaves old-epoch records in
    /// the journal that recovery recognizes as stale and skips — the crash
    /// window double-applies nothing.
    fn compact(&self, inner: &mut Inner) -> Result<String, String> {
        let Some(durable) = inner.durable.as_mut() else {
            return Err(
                "save needs a durable daemon; this one is in-memory (start lvpd with --state-dir)"
                    .to_string(),
            );
        };
        let (journal, snapshot_path) = (&mut durable.journal, &durable.snapshot_path);
        let journal_epoch = journal.next_epoch();
        let snapshot = Self::snapshot_of(&inner.deployments, Some(journal_epoch));
        save_json(&snapshot, snapshot_path).map_err(|e| e.to_string())?;
        journal.compact_to_epoch(journal_epoch).map_err(|e| {
            format!(
                "snapshot saved to {} but journal compaction failed: {e}",
                snapshot_path.display()
            )
        })?;
        self.metrics.journal_compactions.inc();
        Ok(format!(
            "saved {} deployments to {} (journal compacted)",
            snapshot.deployments.len(),
            snapshot_path.display(),
        ))
    }

    fn save(&self) -> Response {
        match self.compact(&mut self.lock_inner()) {
            Ok(message) => {
                let mut r = Response::ok();
                r.message = Some(message);
                r
            }
            Err(e) => Response::error(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::Request;
    use lvp_core::{BatchSketch, MonitorPolicy, PerformancePredictor, PredictorConfig};
    use lvp_corruptions::standard_tabular_suite;
    use lvp_dataframe::toy_frame;
    use lvp_models::{train_model, ModelKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn artifact() -> ServingArtifact {
        let df = toy_frame(220);
        let mut rng = StdRng::seed_from_u64(17);
        let (train, rest) = df.split_frac(0.4, &mut rng);
        let (test, _serving) = rest.split_frac(0.5, &mut rng);
        let model: Arc<dyn BlackBoxModel> =
            Arc::from(train_model(ModelKind::Lr, &train, &mut rng).unwrap());
        let gens = standard_tabular_suite(test.schema());
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .unwrap();
        let monitor = BatchMonitor::new(predictor, MonitorPolicy::default()).unwrap();
        ServingArtifact::from_monitor(&monitor)
    }

    fn key(tenant: &str) -> MonitorKey {
        MonitorKey {
            tenant: tenant.to_string(),
            model: "fraud".to_string(),
            version: "v1".to_string(),
        }
    }

    fn register(daemon: &Daemon, key: &MonitorKey, artifact: ServingArtifact) {
        let mut req = Request::targeted("register", key);
        req.artifact = Some(artifact);
        let resp = daemon.handle_request(req);
        assert!(resp.is_ok(), "register failed: {:?}", resp.message);
    }

    fn chunk_rows(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let p = 0.2 + 0.6 * (i as f64 / n.max(1) as f64);
                vec![p, 1.0 - p]
            })
            .collect()
    }

    #[test]
    fn register_observe_finish_history_round_trip() {
        let daemon = Daemon::new(DaemonConfig::default());
        let k = key("acme");
        register(&daemon, &k, artifact());

        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.81);
        let resp = daemon.handle_request(req);
        assert!(resp.is_ok());
        assert_eq!(resp.batches_seen, Some(1));
        assert!(resp.report.unwrap().estimate.is_finite());

        for _ in 0..2 {
            let mut req = Request::targeted("observe", &k);
            req.chunk = Some(chunk_rows(16));
            let resp = daemon.handle_request(req);
            assert!(resp.is_ok(), "chunk rejected: {:?}", resp.message);
        }
        let resp = daemon.handle_request(Request::targeted("finish", &k));
        assert!(resp.is_ok(), "finish failed: {:?}", resp.message);
        let report = resp.report.unwrap();
        assert!(report.estimate.is_finite() && !report.degraded);
        assert_eq!(resp.pending_chunks, Some(0));

        let mut req = Request::targeted("history", &k);
        req.limit = Some(1);
        req.offset = Some(1);
        let resp = daemon.handle_request(req);
        let history = resp.history.unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].batch_index, 1);

        let resp = daemon.handle_request(Request::new("list"));
        assert_eq!(resp.deployments.unwrap(), vec![k]);
        assert!(daemon
            .handle_request(Request::new("metrics"))
            .metrics
            .is_some());
    }

    #[test]
    fn overflow_sheds_trip_the_breaker_and_cooldown_recovers() {
        let config = DaemonConfig {
            queue_capacity: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_nanos: 2_000_000, // two request ticks
                half_open_successes: 2,
            },
            ..DaemonConfig::default()
        };
        let daemon = Daemon::new(config);
        let k = key("noisy");
        register(&daemon, &k, artifact());

        let chunk = |daemon: &Daemon| {
            let mut req = Request::targeted("observe", &k);
            req.chunk = Some(chunk_rows(8));
            daemon.handle_request(req)
        };

        assert!(chunk(&daemon).is_ok()); // pending: 1 == capacity
        let shed = chunk(&daemon);
        assert!(shed.is_shed());
        assert!(shed.retry_after_nanos.unwrap() > 0);
        assert_eq!(daemon.tenant_circuit("noisy"), CircuitState::Closed);

        let shed = chunk(&daemon); // second consecutive overflow trips it
        assert!(shed.is_shed());
        assert_eq!(daemon.tenant_circuit("noisy"), CircuitState::Open);

        // Open breaker sheds even estimate observes, recording the loss as
        // a degraded batch (never dropping it).
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.8);
        let resp = daemon.handle_request(req);
        assert!(resp.is_shed());
        let degraded = resp.report.unwrap();
        assert!(degraded.estimate.is_nan());
        assert!(degraded.degrade_reason.unwrap().contains("circuit open"));

        // The poisoned window still finishes (degraded), freeing the budget.
        let resp = daemon.handle_request(Request::targeted("finish", &k));
        assert!(resp.is_ok());
        assert!(resp
            .report
            .unwrap()
            .degrade_reason
            .unwrap()
            .contains("budget"));
        assert_eq!(resp.pending_chunks, Some(0));

        // Cooldown has elapsed on the virtual clock; two successful probes
        // close the breaker.
        for expected in [CircuitState::HalfOpen, CircuitState::Closed] {
            let mut req = Request::targeted("observe", &k);
            req.estimate = Some(0.8);
            assert!(daemon.handle_request(req).is_ok());
            assert_eq!(daemon.tenant_circuit("noisy"), expected);
        }
        assert!(chunk(&daemon).is_ok());
    }

    /// Golden admission sequence: every response of a scripted stream that
    /// walks the tenant breaker through each transition — overflows until
    /// it trips, sheds during the cooldown, a half-open probe success, a
    /// probe failure that re-opens, then closing — pinned field by field.
    #[test]
    fn admission_walks_every_breaker_transition_golden() {
        let daemon = Daemon::new(DaemonConfig {
            queue_capacity: 1,
            breaker: BreakerConfig {
                failure_threshold: 2,
                cooldown_nanos: 3_000_000, // three request ticks
                half_open_successes: 2,
            },
            ..DaemonConfig::default()
        });
        let k = key("golden");
        register(&daemon, &k, artifact());
        let script = [
            "chunk", "chunk", "chunk", "chunk", "estimate", "finish", "chunk", "chunk", "estimate",
            "finish", "estimate", "estimate", "chunk", "chunk", "finish",
        ];
        let observed: Vec<String> = script
            .iter()
            .map(|&step| {
                let mut req =
                    Request::targeted(if step == "finish" { step } else { "observe" }, &k);
                match step {
                    "chunk" => req.chunk = Some(chunk_rows(4)),
                    "estimate" => req.estimate = Some(0.8),
                    _ => {}
                }
                let r = daemon.handle_request(req);
                format!(
                    "{step} {} {:?} {:?} {:?} {:?}",
                    r.status,
                    r.retry_after_nanos,
                    r.message,
                    r.pending_chunks,
                    daemon.tenant_circuit("golden"),
                )
            })
            .collect();
        let expected = [
            r#"chunk ok None None Some(1) Closed"#,
            r#"chunk shed Some(13235667) Some("tenant 'golden' over its in-flight chunk budget (1/1): chunk shed") Some(1) Closed"#,
            r#"chunk shed Some(15361655) Some("tenant 'golden' over its in-flight chunk budget (1/1): chunk shed") Some(1) Open"#,
            r#"chunk shed Some(2000000) Some("tenant 'golden' circuit open: observe shed, retry in 2000000 virtual ns") Some(1) Open"#,
            r#"estimate shed Some(1000000) Some("tenant 'golden' circuit open: observe shed, retry in 1000000 virtual ns") Some(1) Open"#,
            r#"finish ok None None Some(0) Open"#,
            r#"chunk ok None None Some(1) HalfOpen"#,
            r#"chunk shed Some(24756005) Some("tenant 'golden' over its in-flight chunk budget (1/1): chunk shed") Some(1) Open"#,
            r#"estimate shed Some(2000000) Some("tenant 'golden' circuit open: observe shed, retry in 2000000 virtual ns") Some(1) Open"#,
            r#"finish ok None None Some(0) Open"#,
            r#"estimate ok None None Some(0) HalfOpen"#,
            r#"estimate ok None None Some(0) Closed"#,
            r#"chunk ok None None Some(1) Closed"#,
            r#"chunk shed Some(11735855) Some("tenant 'golden' over its in-flight chunk budget (1/1): chunk shed") Some(1) Closed"#,
            r#"finish ok None None Some(0) Closed"#,
        ];
        assert_eq!(observed, expected);
    }

    /// The retry-after hint for 1..=12 consecutive overflows, across the
    /// 1 s cap, pinned value by value.
    #[test]
    fn retry_after_schedule_is_pinned_golden() {
        let schedule: Vec<u64> = (1..=12)
            .map(|n| Daemon::retry_after("golden", n, u64::from(n)))
            .collect();
        assert_eq!(
            schedule,
            [
                13_235_667,
                15_361_655,
                39_747_102,
                80_678_607,
                198_048_040,
                204_231_179,
                751_094_767,
                959_691_576,
                1_271_741_637,
                970_318_431,
                1_472_541_503,
                744_487_795,
            ]
        );
    }

    #[test]
    fn tenant_hash_is_pinned_on_one_byte() {
        // True FNV-1a gives 0xaf63_dc4c_8601_ec8c here.
        assert_eq!(tenant_hash("a"), 0x1162_bb90_8601_ec8c);
    }

    #[test]
    fn v1_artifacts_register_and_unknown_snapshot_versions_are_rejected() {
        // A version-1 predictor recorded no class count: the daemon takes
        // it from the feature dimensionality.
        let mut legacy = artifact();
        legacy.predictor.version = 1;
        legacy.predictor.n_classes = None;
        legacy.predictor.schema_fingerprint = None;
        let daemon = Daemon::new(DaemonConfig::default());
        let k = key("legacy");
        register(&daemon, &k, legacy);
        let mut req = Request::targeted("observe", &k);
        req.chunk = Some(chunk_rows(4));
        assert!(daemon.handle_request(req).is_ok());

        let dir = std::env::temp_dir().join(format!("lvpd-version-test-{}", std::process::id()));
        let durability = durability(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for version in [0, ARTIFACT_VERSION + 1] {
            let snapshot = RegistrySnapshot {
                version,
                ..daemon.snapshot()
            };
            save_json(&snapshot, durability.snapshot_path()).unwrap();
            let err = Daemon::recover(DaemonConfig::default(), durability.clone())
                .err()
                .expect("unsupported snapshot version must be rejected");
            assert_eq!(
                err,
                format!(
                    "unsupported registry snapshot version {version} \
                     (supported: 1..={ARTIFACT_VERSION})"
                )
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The state directory `dir` with the default fsync policy.
    fn durability(dir: &Path) -> DurabilityConfig {
        DurabilityConfig::in_dir_with_fsync(dir, FsyncPolicy::default())
    }

    /// Sends each `register` line to a durable daemon and expects an error
    /// response naming `needle`. A rejected register must reach neither the
    /// registry nor the journal, so a recovery afterwards replays nothing
    /// and reports no op errors.
    fn assert_registers_rejected(name: &str, lines: &[String], needle: &str) {
        let dir = std::env::temp_dir().join(format!("lvpd-reject-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let durability = durability(&dir);
        let (daemon, _) = Daemon::recover(DaemonConfig::default(), durability.clone()).unwrap();
        for line in lines {
            let resp: Response = serde_json::from_str(&daemon.handle_line(line)).unwrap();
            assert_eq!(resp.status, "error", "accepted: {:?}", resp.message);
            let message = resp.message.unwrap();
            assert!(message.contains(needle), "{message}");
        }
        assert!(daemon.snapshot().deployments.is_empty());
        drop(daemon);
        let (recovered, report) = Daemon::recover(DaemonConfig::default(), durability).unwrap();
        assert_eq!(report.journal_bytes, 0, "{}", report.summary());
        assert_eq!(report.replay_op_errors, 0, "{}", report.summary());
        assert!(recovered.snapshot().deployments.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `register` request line for `artifact`.
    fn register_line(name: &str, artifact: ServingArtifact) -> String {
        let mut req = Request::targeted("register", &key(name));
        req.artifact = Some(artifact);
        serde_json::to_string(&req).unwrap()
    }

    /// JSON of `n` empty ECDF sketches on a 16-bin grid, off the unit grid
    /// every monitor sketches on.
    fn coarse_ecdfs_json(n: usize) -> String {
        let one = format!(
            r#"{{"lo":0.0,"hi":1.0,"counts":{:?},"n":0,"dropped":0}}"#,
            [0u64; 16]
        );
        format!("[{}]", vec![one; n].join(","))
    }

    #[test]
    fn register_rejects_an_interval_alpha_outside_the_unit_interval() {
        let mut lines: Vec<String> = [1.5, -0.5, 0.0, 1.0]
            .into_iter()
            .map(|alpha| {
                let mut a = artifact();
                a.predictor.interval_alpha = Some(alpha);
                register_line("alpha", a)
            })
            .collect();
        // The vendored parser reads an overflowing literal as infinity.
        let line = register_line("alpha", artifact());
        let needle = r#""interval_alpha":0.1,"#;
        assert!(line.contains(needle), "{line}");
        lines.push(line.replace(needle, r#""interval_alpha":1e999,"#));
        assert_registers_rejected("alpha", &lines, "interval_alpha must lie in (0, 1)");
    }

    #[test]
    fn register_rejects_reference_ecdfs_off_the_class_count_or_grid() {
        let unit = serde_json::to_string(&BatchSketch::new(3).ecdfs()).unwrap();
        let unit2 = serde_json::to_string(&BatchSketch::new(2).ecdfs()).unwrap();
        // An ECDF whose total is not its counts' sum: CDF values above 1.
        let miscounted = unit2.replacen(r#""n":0,"#, r#""n":5,"#, 1);
        assert_ne!(miscounted, unit2);
        let lines: Vec<String> = [coarse_ecdfs_json(2), unit, miscounted]
            .iter()
            .map(|ecdfs| {
                let mut a = artifact();
                a.monitor.reference_ecdf = Some(serde_json::from_str(ecdfs).unwrap());
                register_line("reference", a)
            })
            .collect();
        assert_registers_rejected("reference", &lines, "reference ECDF");
    }

    #[test]
    fn register_rejects_an_open_window_off_the_class_count_or_grid() {
        let line = |window: BatchSketch| {
            let mut a = artifact();
            a.monitor.window = Some(window);
            register_line("window", a)
        };
        let json = serde_json::to_string(&BatchSketch::new(2)).unwrap();
        let tampered = |from: &str, to: &str| {
            assert!(json.contains(from), "{from}");
            json.replacen(from, to, 1)
        };
        // A quantile sketch with one bin minimum short: the next chunk would
        // panic inserting into the last bin.
        let short: BatchSketch =
            serde_json::from_str(&tampered(r#""bin_min":[null,"#, r#""bin_min":["#)).unwrap();
        // Window ECDFs off the unit grid, and one whose total is not its
        // counts' sum: neither is the view of the window's quantile
        // sketches, so no `BatchSketch` holds them; send them as raw lines.
        let (head, tail) = json.split_once(r#""ecdfs":"#).unwrap();
        let rest = &tail[tail.find(r#","rows""#).unwrap()..];
        let coarse = format!(r#"{head}"ecdfs":{}{rest}"#, coarse_ecdfs_json(2));
        let miscounted = tampered(r#""n":0,"dropped":0}"#, r#""n":5,"dropped":0}"#);
        let clean = line(BatchSketch::new(2));
        assert!(clean.contains(&json));
        let lines = [
            line(BatchSketch::new(3)),
            clean.replacen(&json, &coarse, 1),
            line(short),
            clean.replacen(&json, &miscounted, 1),
        ];
        assert_registers_rejected("window", &lines, "sketch");
    }

    #[test]
    fn malformed_and_invalid_requests_answer_with_errors() {
        let daemon = Daemon::new(DaemonConfig::default());
        let resp: Response = serde_json::from_str(&daemon.handle_line("{ not json")).unwrap();
        assert_eq!(resp.status, "error");
        assert!(daemon.handle_request(Request::new("frobnicate")).status == "error");

        let k = key("ghost");
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.5);
        let resp = daemon.handle_request(req);
        assert!(resp.message.unwrap().contains("unknown deployment"));

        register(&daemon, &k, artifact());
        // No mode at all, then two modes at once: both rejected.
        let resp = daemon.handle_request(Request::targeted("observe", &k));
        assert!(resp.message.unwrap().contains("exactly one"));
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(0.5);
        req.chunk = Some(chunk_rows(4));
        let resp = daemon.handle_request(req);
        assert!(resp.message.unwrap().contains("exactly one"));

        // Mis-shaped chunk: column count must match the class count.
        let mut req = Request::targeted("observe", &k);
        req.chunk = Some(vec![vec![0.2, 0.3, 0.5]]);
        let resp = daemon.handle_request(req);
        assert!(resp.message.unwrap().contains("classes"));
    }

    #[test]
    fn registry_snapshot_restores_bit_identically() {
        let dir = std::env::temp_dir().join(format!("lvpd-daemon-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (daemon, _) = Daemon::recover(DaemonConfig::default(), durability(&dir)).unwrap();
        register(&daemon, &key("acme"), artifact());
        register(&daemon, &key("bravo"), artifact());
        let mut req = Request::targeted("observe", &key("acme"));
        req.estimate = Some(0.77);
        daemon.handle_request(req);
        // Leave an open in-flight window: it must survive the restart.
        let mut req = Request::targeted("observe", &key("bravo"));
        req.chunk = Some(chunk_rows(12));
        assert!(daemon.handle_request(req).is_ok());
        let resp = daemon.handle_request(Request::new("save"));
        assert!(resp.message.unwrap().contains("journal compacted"));
        let live = serde_json::to_string(&daemon.snapshot()).unwrap();
        drop(daemon);

        // The compacted directory holds the snapshot and an empty journal.
        let (restored, report) =
            Daemon::recover(DaemonConfig::default(), durability(&dir)).unwrap();
        assert!(report.snapshot_loaded && report.journal_bytes == 0);
        assert_eq!(
            serde_json::to_string(&restored.snapshot()).unwrap(),
            live,
            "registry snapshot must round-trip bit-identically"
        );

        // The restored in-flight window still finishes into a real report.
        let resp = restored.handle_request(Request::targeted("finish", &key("bravo")));
        assert!(resp.is_ok(), "finish after restore: {:?}", resp.message);
        assert!(resp.report.unwrap().estimate.is_finite());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_in_memory_daemon_refuses_to_save() {
        let daemon = Daemon::new(DaemonConfig::default());
        register(&daemon, &key("acme"), artifact());
        let resp = daemon.handle_request(Request::new("save"));
        assert_eq!(resp.status, "error");
        assert!(resp.message.unwrap().contains("in-memory"));
        // Shutdown has nothing to compact and writes nothing.
        daemon.request_shutdown();
        assert!(daemon.is_shutdown());
    }

    #[test]
    fn an_observe_rejected_by_a_failed_fsync_is_not_replayed() {
        // A sink whose first sync fails.
        struct FailFirstSync(Box<dyn crate::journal::JournalSink>, bool);
        impl crate::journal::JournalSink for FailFirstSync {
            fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
                self.0.append(bytes)
            }
            fn sync(&mut self) -> std::io::Result<()> {
                if std::mem::replace(&mut self.1, true) {
                    self.0.sync()
                } else {
                    Err(std::io::Error::other("injected fsync failure"))
                }
            }
            fn truncate(&mut self, len: u64) -> std::io::Result<()> {
                self.0.truncate(len)
            }
        }
        let observe = |daemon: &Daemon| {
            let mut req = Request::targeted("observe", &key("acme"));
            req.estimate = Some(0.81);
            daemon.handle_request(req)
        };

        let dir = std::env::temp_dir().join(format!("lvpd-fsync-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let always = DurabilityConfig::in_dir_with_fsync(&dir, FsyncPolicy::Always);
        let (daemon, _) = Daemon::recover(DaemonConfig::default(), always.clone()).unwrap();
        register(&daemon, &key("acme"), artifact());
        assert_eq!(observe(&daemon).batches_seen, Some(1));
        if let Some(durable) = daemon.lock_inner().durable.as_mut() {
            durable
                .journal
                .wrap_sink(|sink| Box::new(FailFirstSync(sink, false)));
        }
        let resp = observe(&daemon);
        assert_eq!(resp.status, "error");
        assert!(resp.message.unwrap().contains("not applied"));
        // Dropped without a shutdown: recovery replays the journal.
        drop(daemon);

        let (recovered, report) = Daemon::recover(DaemonConfig::default(), always).unwrap();
        assert_eq!(report.records_replayed, 2, "{}", report.summary());
        assert_eq!(observe(&recovered).batches_seen, Some(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observes_outside_the_unit_range_are_rejected_before_the_journal() {
        let dir = std::env::temp_dir().join(format!("lvpd-range-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let never = DurabilityConfig::in_dir_with_fsync(&dir, FsyncPolicy::Never);
        let (daemon, _) = Daemon::recover(DaemonConfig::default(), never).unwrap();
        let k = key("acme");
        register(&daemon, &k, artifact());
        let appended = || {
            let inner = daemon.lock_inner();
            inner.durable.as_ref().unwrap().journal.records_appended()
        };
        let line = |form: &str, value: &str| {
            format!(
                r#"{{"verb":"observe","tenant":"acme","model":"fraud","version":"v1","{form}":{value}}}"#
            )
        };
        let respond =
            |line: &str| serde_json::from_str::<Response>(&daemon.handle_line(line)).unwrap();
        let before = appended();
        // The first three were accepted before the range check: two
        // overflow to +inf, and 8125 is no score.
        for (line, message) in [
            (
                line(
                    "outputs",
                    "[[0.7000000000000001,0.2e9999999999999999999999993]]",
                ),
                "outputs value inf lies outside [0, 1]",
            ),
            (
                line("chunk", "[[0.68333333333333e99999999933,0.3]]"),
                "chunk value inf lies outside [0, 1]",
            ),
            (
                line("estimate", "8125"),
                "estimate value 8125 lies outside [0, 1]",
            ),
            (line("outputs", "[[1.5,-0.5]]"), "outputs value 1.5"),
            (
                line("chunk", "[[0.5,0.5],[-0.25,1.25]]"),
                "chunk value -0.25",
            ),
            (line("estimate", "-1e999"), "estimate value -inf"),
            (
                line("interval", r#"{"point":0.9,"lo":0.8,"hi":1.2,"alpha":0.1}"#),
                "interval bounds must lie in [0, 1]",
            ),
        ] {
            let response = respond(&line);
            assert_eq!(response.status, "error", "{line}");
            let got = response.message.unwrap();
            assert!(got.contains(message), "{line}: {got}");
        }
        assert_eq!(appended(), before);

        // Scores at the edges, and a NaN estimate (a degraded batch), are
        // observed and journaled.
        for line in [
            line("outputs", "[[0.0,1.0]]"),
            line("chunk", "[[1,0]]"),
            line("estimate", "0"),
            line("interval", r#"{"point":1,"lo":0,"hi":1,"alpha":0.1}"#),
        ] {
            assert!(respond(&line).is_ok(), "{line}");
        }
        let mut req = Request::targeted("observe", &k);
        req.estimate = Some(f64::NAN);
        let response = daemon.handle_request(req);
        assert!(response.is_ok() && response.report.unwrap().degraded);
        assert_eq!(appended(), before + 5);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_shutdown_compaction_still_fsyncs_the_journal() {
        struct CountSyncs(
            Box<dyn crate::journal::JournalSink>,
            Arc<std::sync::atomic::AtomicU64>,
        );
        impl crate::journal::JournalSink for CountSyncs {
            fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
                self.0.append(bytes)
            }
            fn sync(&mut self) -> std::io::Result<()> {
                self.1.fetch_add(1, Ordering::SeqCst);
                self.0.sync()
            }
            fn truncate(&mut self, len: u64) -> std::io::Result<()> {
                self.0.truncate(len)
            }
        }

        let dir = std::env::temp_dir().join(format!("lvpd-flush-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let never = DurabilityConfig::in_dir_with_fsync(&dir, FsyncPolicy::Never);
        let (daemon, _) = Daemon::recover(DaemonConfig::default(), never.clone()).unwrap();
        let syncs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        if let Some(durable) = daemon.lock_inner().durable.as_mut() {
            let syncs = Arc::clone(&syncs);
            durable
                .journal
                .wrap_sink(|sink| Box::new(CountSyncs(sink, syncs)));
        }
        register(&daemon, &key("acme"), artifact());
        assert_eq!(syncs.load(Ordering::SeqCst), 0, "fsync=never defers syncs");

        // A directory where the snapshot goes makes the compaction fail.
        std::fs::create_dir(never.snapshot_path()).unwrap();
        daemon.request_shutdown();
        assert_eq!(
            syncs.load(Ordering::SeqCst),
            1,
            "the journal is flushed instead"
        );
        drop(daemon);

        // The acknowledged register is still in the journal.
        std::fs::remove_dir(never.snapshot_path()).unwrap();
        let (recovered, report) = Daemon::recover(DaemonConfig::default(), never).unwrap();
        assert_eq!(report.records_replayed, 1, "{}", report.summary());
        assert_eq!(recovered.snapshot().deployments.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
