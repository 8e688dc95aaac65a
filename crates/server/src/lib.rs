//! lvpd: a multi-tenant monitoring daemon for deployed
//! [`BatchMonitor`](lvp_core::BatchMonitor)s.
//!
//! The paper's validator scores the predictions a black box model makes on
//! unseen serving data; in production that check runs *next to* the model,
//! one monitor per deployment. This crate packages that shape as a daemon:
//!
//! - a **registry** of monitors keyed by `(tenant, model, version)`
//!   ([`MonitorKey`]), installed from the v4
//!   [`ServingArtifact`](lvp_core::ServingArtifact) bundles the training
//!   pipeline persists;
//! - **durability** out of one state directory ([`DurabilityConfig`]): a
//!   write-ahead journal of every accepted mutation plus a registry
//!   snapshot in the same bundle format — open streaming windows and
//!   all — that the `save` verb and shutdown compact the journal into.
//!   [`Daemon::recover`] is the one restore path, so a restart or a crash
//!   loses nothing acknowledged;
//! - a **wire protocol** of line-delimited JSON verbs (`register`,
//!   `observe`, `finish`, `history`, `metrics`, `list`, `save`,
//!   `shutdown`) over a std-only threaded TCP listener ([`Server`]);
//! - **per-tenant admission control** ([`DaemonConfig`]): a bounded
//!   in-flight chunk budget per tenant with 429-style shedding
//!   (deterministic exponential retry-after) and a per-tenant circuit
//!   breaker reusing the [`lvp_models`] resilience vocabulary. Shed load
//!   *degrades* monitor state (degraded reports, poisoned windows) —
//!   it is never silently dropped from the record.
//!
//! The daemon core ([`Daemon`]) is transport-free — `handle_line` maps a
//! request line to a response line — so the full protocol is testable
//! in-process, and every timing decision runs on a virtual clock advanced
//! one tick per request, making breaker behavior and telemetry a pure
//! function of the request sequence.

pub mod daemon;
pub mod journal;
pub mod net;
pub mod protocol;

pub use daemon::{Daemon, DaemonConfig, DurabilityConfig, RecoveryReport};
pub use journal::{
    encode_record, scan_journal, FaultFile, FileSink, FsyncPolicy, Journal, JournalDefect,
    JournalFaultPlan, JournalOp, JournalRecord, JournalScan, JournalSink, MemorySink,
};
pub use net::{Client, Server};
pub use protocol::{DeploymentEntry, MonitorKey, RegistrySnapshot, Request, Response};
