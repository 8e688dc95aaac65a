//! The lvpd write-ahead observe journal: checksummed, length-prefixed
//! records of every accepted state-mutating request, appended *before*
//! the mutation is applied.
//!
//! ## Why a journal
//!
//! Registry snapshots are only as fresh as the last compaction; every
//! `observe`/`finish`/`register` accepted since is monitor state that a
//! daemon crash would silently lose. Monitors are deterministic, so the
//! journal makes them recoverable: replaying the journal tail over the
//! last snapshot reproduces the pre-crash registry **bit-identically**.
//!
//! ## Record framing
//!
//! Each record is one frame: a fixed 16-byte header over a payload.
//!
//! ```text
//! [magic (4)] [payload len: u32 LE (4)] [FNV-1a64 of payload: u64 LE (8)] [payload]
//! ```
//!
//! Every append writes a **v2** frame (magic `LVJ2`), whose payload is a
//! small typed binary layout, all integers little-endian:
//!
//! ```text
//! epoch: u64 | op tag: u8 | tenant, model, version: str | body
//! str  = len: u32, then that many UTF-8 bytes
//! rows = n_rows: u32, n_cols: u32, then n_rows × n_cols f64 bits (row-major)
//! ```
//!
//! The tag numbers the [`JournalOp`] variants in declaration order, and
//! the body is `Register`: the artifact's JSON as a str; `ObserveOutputs`
//! and `ObserveChunk`: rows; `ObserveEstimate`: one f64;
//! `ObserveInterval`: point, lo, hi, alpha as f64; `Finish`: nothing;
//! `AbandonWindow` and `ObserveDegraded`: the reason str. Floats travel as
//! their bit patterns, so replay is bit-exact by construction, and the
//! frame is encoded from the borrowed op ([`encode_record`]) with no
//! intermediate copy.
//!
//! **v1 still replays.** Journals written before v2 hold frames with magic
//! `LVJR` over a JSON [`JournalRecord`]; a journal upgraded in place holds
//! v1 frames followed by v2 frames, and [`scan_journal`] decodes each
//! frame by its own magic.
//!
//! The frame makes every tail defect detectable and classifiable
//! ([`JournalDefect`]): a torn header or torn payload is a crash
//! mid-append, a checksum mismatch is bit rot, a bad magic is a
//! misaligned or foreign write, and a payload that passes its checksum but
//! does not decode is malformed. The v2 decoder checks every length
//! against the bytes that remain before it allocates, validates UTF-8,
//! and rejects an unknown tag or trailing bytes. [`scan_journal`] walks
//! frames until the first defect and reports the last durable prefix —
//! recovery truncates to it and replays what survived; it never panics.
//!
//! ## Epochs
//!
//! Compaction (the `save` verb, or shutdown) bumps the journal epoch,
//! writes the snapshot recording the new epoch, *then* truncates the
//! journal. A crash between those steps leaves stale-epoch records in the
//! journal; replay skips any record whose epoch predates the snapshot's,
//! so compaction has no window in which a crash double-applies or loses
//! operations.
//!
//! ## Fault injection
//!
//! [`FaultFile`] wraps any [`JournalSink`] with a seeded
//! [`JournalFaultPlan`] that tears writes (a prefix lands on disk, then
//! the "process dies") or flips a bit silently at deterministic offsets —
//! the same philosophy as the PR 5 model-serving fault injection, extended
//! to the filesystem. Property tests crash-recover at every record
//! boundary under these faults.

use crate::protocol::MonitorKey;
use lvp_core::{checksum64, ScoreInterval, ServingArtifact};
use lvp_models::mix64;
use serde::Deserialize;
use std::io::{self, Write};
use std::path::Path;

/// Magic bytes opening every journal record frame the journal writes: a
/// v2 frame over the binary payload layout (see the module docs).
pub const RECORD_MAGIC: [u8; 4] = *b"LVJ2";

/// Magic bytes opening a v1 record frame, whose payload is a JSON
/// [`JournalRecord`]. Nothing writes v1 any more; it still replays.
const RECORD_MAGIC_V1: [u8; 4] = *b"LVJR";

/// Frame header size: magic + payload length (u32 LE) + checksum (u64 LE).
pub const RECORD_HEADER_LEN: usize = 16;

/// One state-mutating operation, journaled before it is applied. Shed
/// decisions are journaled as their *effects* ([`JournalOp::AbandonWindow`],
/// [`JournalOp::ObserveDegraded`], with the literal reason string), so
/// replay reproduces the monitor state without needing the ephemeral
/// admission-gate state that produced the decision.
#[derive(Debug, Clone, Deserialize)]
// `Register` carries a whole `ServingArtifact` and dwarfs the other
// variants, but ops are journaled and replayed by reference/once — boxing
// the artifact would complicate the (vendored) serde derive for no win.
#[allow(clippy::large_enum_variant)]
pub enum JournalOp {
    /// A deployment was (re)installed.
    Register {
        /// Registry key.
        key: MonitorKey,
        /// The installed bundle.
        artifact: ServingArtifact,
    },
    /// A full batch of model output rows was scored.
    ObserveOutputs {
        /// Registry key.
        key: MonitorKey,
        /// The batch (n × classes).
        rows: Vec<Vec<f64>>,
    },
    /// A chunk was folded into the open streaming window.
    ObserveChunk {
        /// Registry key.
        key: MonitorKey,
        /// The chunk rows.
        rows: Vec<Vec<f64>>,
    },
    /// An external score estimate was recorded.
    ObserveEstimate {
        /// Registry key.
        key: MonitorKey,
        /// The estimate.
        estimate: f64,
    },
    /// An external score interval was recorded.
    ObserveInterval {
        /// Registry key.
        key: MonitorKey,
        /// The interval.
        interval: ScoreInterval,
    },
    /// The open streaming window was finished into a report.
    Finish {
        /// Registry key.
        key: MonitorKey,
    },
    /// The open streaming window was poisoned by a shed chunk.
    AbandonWindow {
        /// Registry key.
        key: MonitorKey,
        /// The literal degrade reason recorded at decision time.
        reason: String,
    },
    /// A shed non-chunk observe was recorded as a degraded batch.
    ObserveDegraded {
        /// Registry key.
        key: MonitorKey,
        /// The literal degrade reason recorded at decision time.
        reason: String,
    },
}

impl JournalOp {
    /// The deployment the operation targets.
    pub(crate) fn key(&self) -> &MonitorKey {
        match self {
            JournalOp::Register { key, .. }
            | JournalOp::ObserveOutputs { key, .. }
            | JournalOp::ObserveChunk { key, .. }
            | JournalOp::ObserveEstimate { key, .. }
            | JournalOp::ObserveInterval { key, .. }
            | JournalOp::Finish { key }
            | JournalOp::AbandonWindow { key, .. }
            | JournalOp::ObserveDegraded { key, .. } => key,
        }
    }
}

/// One journal record: a compaction epoch plus the operation.
/// `Deserialize` reads v1 payloads.
#[derive(Debug, Clone, Deserialize)]
pub struct JournalRecord {
    /// Compaction epoch the record belongs to (see the module docs).
    pub epoch: u64,
    /// The journaled operation.
    pub op: JournalOp,
}

/// Encodes `op` at `epoch` into its v2 frame, reading the op in place.
/// Errors on rows that are ragged, or not empty but zero columns wide
/// (no validated request has either), and on a length that overflows
/// `u32`.
pub fn encode_record(epoch: u64, op: &JournalOp) -> Result<Vec<u8>, String> {
    let key = op.key();
    let mut frame = Vec::with_capacity(64);
    frame.extend_from_slice(&RECORD_MAGIC);
    // Length and checksum, filled in once the payload is written.
    frame.extend_from_slice(&[0; RECORD_HEADER_LEN - 4]);
    frame.extend_from_slice(&epoch.to_le_bytes());
    // Tags number the variants in declaration order.
    frame.push(match op {
        JournalOp::Register { .. } => 0,
        JournalOp::ObserveOutputs { .. } => 1,
        JournalOp::ObserveChunk { .. } => 2,
        JournalOp::ObserveEstimate { .. } => 3,
        JournalOp::ObserveInterval { .. } => 4,
        JournalOp::Finish { .. } => 5,
        JournalOp::AbandonWindow { .. } => 6,
        JournalOp::ObserveDegraded { .. } => 7,
    });
    for part in [&key.tenant, &key.model, &key.version] {
        put_str(&mut frame, part)?;
    }
    match op {
        JournalOp::Register { artifact, .. } => {
            let json = serde_json::to_string(artifact)
                .map_err(|e| format!("encode journal artifact: {e}"))?;
            put_str(&mut frame, &json)?;
        }
        JournalOp::ObserveOutputs { rows, .. } | JournalOp::ObserveChunk { rows, .. } => {
            put_rows(&mut frame, rows)?;
        }
        JournalOp::ObserveEstimate { estimate, .. } => put_f64(&mut frame, *estimate),
        JournalOp::ObserveInterval { interval, .. } => {
            for v in [interval.point, interval.lo, interval.hi, interval.alpha] {
                put_f64(&mut frame, v);
            }
        }
        JournalOp::Finish { .. } => {}
        JournalOp::AbandonWindow { reason, .. } | JournalOp::ObserveDegraded { reason, .. } => {
            put_str(&mut frame, reason)?;
        }
    }
    let payload_len = len_u32(frame.len() - RECORD_HEADER_LEN, "journal record payload")?;
    let sum = checksum64(&frame[RECORD_HEADER_LEN..]);
    frame[4..8].copy_from_slice(&payload_len.to_le_bytes());
    frame[8..RECORD_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    Ok(frame)
}

fn len_u32(len: usize, what: &str) -> Result<u32, String> {
    u32::try_from(len).map_err(|_| format!("{what} of {len} overflows u32"))
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), String> {
    out.extend_from_slice(&len_u32(s.len(), "journal string length")?.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

fn put_rows(out: &mut Vec<u8>, rows: &[Vec<f64>]) -> Result<(), String> {
    let n_cols = rows.first().map_or(0, Vec::len);
    if rows.iter().any(|row| row.len() != n_cols) {
        return Err("journal rows are ragged".to_string());
    }
    if n_cols == 0 && !rows.is_empty() {
        return Err("journal rows have no columns".to_string());
    }
    out.extend_from_slice(&len_u32(rows.len(), "journal row count")?.to_le_bytes());
    out.extend_from_slice(&len_u32(n_cols, "journal column count")?.to_le_bytes());
    out.reserve(rows.len() * n_cols * 8);
    for v in rows.iter().flatten() {
        put_f64(out, *v);
    }
    Ok(())
}

/// A cursor over a v2 payload. Every read checks the bytes that remain
/// and yields `None` past the end, so no length read from the payload
/// sizes an allocation unchecked.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let (head, rest) = self.0.split_at_checked(n)?;
        self.0 = rest;
        Some(head)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N)?.try_into().ok()
    }

    /// A `u32` length or count.
    fn len(&mut self) -> Option<usize> {
        usize::try_from(u32::from_le_bytes(self.array()?)).ok()
    }

    fn f64(&mut self) -> Option<f64> {
        Some(f64::from_bits(u64::from_le_bytes(self.array()?)))
    }

    fn str(&mut self) -> Option<&'a str> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?).ok()
    }

    fn rows(&mut self) -> Option<Vec<Vec<f64>>> {
        let (n_rows, n_cols) = (self.len()?, self.len()?);
        if n_rows == 0 {
            return Some(Vec::new());
        }
        if n_cols == 0 {
            return None;
        }
        let bytes = self.take(n_rows.checked_mul(n_cols)?.checked_mul(8)?)?;
        Some(
            bytes
                .chunks_exact(n_cols * 8)
                .map(|row| {
                    row.chunks_exact(8)
                        .map(|b| f64::from_bits(u64::from_le_bytes(b.try_into().expect("8 bytes"))))
                        .collect()
                })
                .collect(),
        )
    }
}

/// Decodes a v2 payload; `None` when it is malformed.
fn decode_v2(payload: &[u8]) -> Option<JournalRecord> {
    let mut r = Reader(payload);
    let epoch = u64::from_le_bytes(r.array()?);
    let tag = r.array::<1>()?[0];
    let key = MonitorKey {
        tenant: r.str()?.to_owned(),
        model: r.str()?.to_owned(),
        version: r.str()?.to_owned(),
    };
    let op = match tag {
        0 => JournalOp::Register {
            key,
            artifact: serde_json::from_str(r.str()?).ok()?,
        },
        1 => JournalOp::ObserveOutputs {
            key,
            rows: r.rows()?,
        },
        2 => JournalOp::ObserveChunk {
            key,
            rows: r.rows()?,
        },
        3 => JournalOp::ObserveEstimate {
            key,
            estimate: r.f64()?,
        },
        4 => JournalOp::ObserveInterval {
            key,
            interval: ScoreInterval {
                point: r.f64()?,
                lo: r.f64()?,
                hi: r.f64()?,
                alpha: r.f64()?,
            },
        },
        5 => JournalOp::Finish { key },
        6 => JournalOp::AbandonWindow {
            key,
            reason: r.str()?.to_owned(),
        },
        7 => JournalOp::ObserveDegraded {
            key,
            reason: r.str()?.to_owned(),
        },
        _ => return None,
    };
    r.0.is_empty().then_some(JournalRecord { epoch, op })
}

/// Decodes a v1 (JSON) payload; `None` when it is malformed.
fn decode_v1(payload: &[u8]) -> Option<JournalRecord> {
    serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()
}

/// Classification of the first defect found while scanning a journal.
/// Every variant means the same thing operationally — the journal is
/// valid up to [`JournalScan::valid_len`] and unusable past it — but they
/// distinguish *how* the tail died, which telemetry and operators care
/// about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalDefect {
    /// The tail is shorter than a record header: a crash mid-append.
    TornHeader,
    /// The tail header is whole but the payload ends early: a crash
    /// mid-append.
    TornPayload,
    /// A payload does not match its recorded checksum: bit rot, or a torn
    /// overwrite inside the payload.
    ChecksumMismatch,
    /// The bytes at a record boundary do not start with the record magic:
    /// a misaligned or foreign write.
    BadMagic,
    /// The payload passed its checksum but is not a parsable record —
    /// e.g. written by an incompatible future version.
    Malformed,
}

impl std::fmt::Display for JournalDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            JournalDefect::TornHeader => "torn record header",
            JournalDefect::TornPayload => "torn record payload",
            JournalDefect::ChecksumMismatch => "record checksum mismatch",
            JournalDefect::BadMagic => "bad record magic",
            JournalDefect::Malformed => "unparsable record payload",
        };
        f.write_str(s)
    }
}

/// The result of [`scan_journal`]: every record in the valid prefix, how
/// long that prefix is, and what (if anything) killed the tail.
#[derive(Debug, Clone)]
pub struct JournalScan {
    /// Records decoded from the valid prefix, in append order.
    pub records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (equals the input length when the
    /// journal is defect-free). Recovery truncates the file to this.
    pub valid_len: usize,
    /// The first defect, if the tail is damaged.
    pub defect: Option<JournalDefect>,
}

/// Walks a journal byte-by-byte, decoding frames until the bytes run out
/// or the first defect. Never panics, never returns partially-checked
/// payloads: a record is only surfaced once its magic, length, checksum
/// and payload all verified. v1 and v2 frames may interleave; each decodes
/// by its own magic.
pub fn scan_journal(bytes: &[u8]) -> JournalScan {
    let mut records = Vec::new();
    let mut offset = 0usize;
    let defect = loop {
        if offset == bytes.len() {
            break None;
        }
        let rest = &bytes[offset..];
        if rest.len() < RECORD_HEADER_LEN {
            let head = &rest[..rest.len().min(4)];
            break Some(
                if RECORD_MAGIC.starts_with(head) || RECORD_MAGIC_V1.starts_with(head) {
                    JournalDefect::TornHeader
                } else {
                    JournalDefect::BadMagic
                },
            );
        }
        let magic: [u8; 4] = rest[..4].try_into().expect("4 bytes");
        let decode = match magic {
            RECORD_MAGIC => decode_v2,
            RECORD_MAGIC_V1 => decode_v1,
            _ => break Some(JournalDefect::BadMagic),
        };
        let len = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes")) as usize;
        let declared_sum = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
        let Some(payload) = rest.get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len) else {
            break Some(JournalDefect::TornPayload);
        };
        if checksum64(payload) != declared_sum {
            break Some(JournalDefect::ChecksumMismatch);
        }
        let Some(record) = decode(payload) else {
            break Some(JournalDefect::Malformed);
        };
        records.push(record);
        offset += RECORD_HEADER_LEN + len;
    };
    JournalScan {
        records,
        valid_len: offset,
        defect,
    }
}

/// When the journal fsyncs.
///
/// `Always` makes every accepted request durable before it is applied or
/// acknowledged — the strongest guarantee and the slowest. `EveryN(n)`
/// fsyncs every `n`-th append, bounding loss to the last `n - 1` accepted
/// requests. `Never` leaves flushing to the OS page cache: a *process*
/// crash loses nothing that reached `write(2)`, but a power cut can lose
/// the un-flushed tail — which the checksummed framing then detects and
/// truncates rather than misparses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// fsync after every append.
    #[default]
    Always,
    /// fsync after every `n`-th append (`EveryN(1)` ≡ `Always`).
    EveryN(u64),
    /// Never fsync explicitly.
    Never,
}

impl FsyncPolicy {
    /// Parses the `--fsync` flag forms: `always`, `never`, `every:N`.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("every:").map(str::parse::<u64>) {
                Some(Ok(n)) if n > 0 => Ok(FsyncPolicy::EveryN(n)),
                _ => Err(format!(
                    "bad fsync policy '{other}' (expected always, never or every:N)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => f.write_str("always"),
            FsyncPolicy::EveryN(n) => write!(f, "every:{n}"),
            FsyncPolicy::Never => f.write_str("never"),
        }
    }
}

/// Where journal frames land. The daemon only needs append/sync/reset;
/// abstracting them lets tests swap in in-memory sinks and the
/// fault-injection wrapper without touching the journal logic.
pub trait JournalSink: Send {
    /// Appends `bytes` at the end of the journal.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes everything appended so far durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Truncates the journal to `len` bytes (`0` = compaction; a frame
    /// boundary = repair after a torn append).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

impl JournalSink for Box<dyn JournalSink> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        (**self).append(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        (**self).truncate(len)
    }
}

/// A [`JournalSink`] over a real append-mode file.
pub struct FileSink {
    file: std::fs::File,
}

impl FileSink {
    /// Opens (creating if absent) `path` for appending.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(Self { file })
    }
}

impl JournalSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }
    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // The file is in append mode, so later writes land at the (new)
        // end regardless of any cursor position.
        self.file.set_len(len)
    }
}

/// An in-memory [`JournalSink`] for tests: the buffer is shared, so a
/// clone of the handle inspects what the journal wrote.
#[derive(Clone, Default)]
pub struct MemorySink(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl MemorySink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A copy of everything appended so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

impl JournalSink for MemorySink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .extend_from_slice(bytes);
        Ok(())
    }
    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }
    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .truncate(usize::try_from(len).unwrap_or(usize::MAX));
        Ok(())
    }
}

/// A seeded plan of filesystem faults to inject through [`FaultFile`] —
/// the journal-side sibling of the PR 5 model-serving `FaultPlan`.
/// Append indices count from 0; faults fire when
/// `mix64(seed ^ index) % period == 0` for the configured period, so a
/// given (seed, plan) pair always damages the same appends at the same
/// offsets, and every failure a test observes is replayable.
#[derive(Debug, Clone, Copy, Default)]
pub struct JournalFaultPlan {
    /// Seed mixed into every per-append decision.
    pub seed: u64,
    /// Tear roughly one in `period` appends: a seeded prefix of the frame
    /// reaches the sink, then the append fails like a crashed process
    /// (`Other` I/O error). `None` disables tearing.
    pub torn_write_period: Option<u64>,
    /// Silently flip one seeded bit in roughly one in `period` appends
    /// (the append *succeeds* — only the recovery-time checksum can catch
    /// it). `None` disables flips.
    pub bit_flip_period: Option<u64>,
}

impl JournalFaultPlan {
    /// A plan that never fires.
    pub fn none() -> Self {
        Self::default()
    }

    fn fires(&self, period: Option<u64>, salt: u64, index: u64) -> bool {
        match period {
            Some(p) if p > 0 => mix64(self.seed ^ salt ^ index).is_multiple_of(p),
            _ => false,
        }
    }
}

/// A [`JournalSink`] wrapper that injects the faults of a
/// [`JournalFaultPlan`] into an inner sink.
pub struct FaultFile<S: JournalSink> {
    inner: S,
    plan: JournalFaultPlan,
    appends: u64,
    torn_writes: u64,
    bit_flips: u64,
}

impl<S: JournalSink> FaultFile<S> {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: S, plan: JournalFaultPlan) -> Self {
        Self {
            inner,
            plan,
            appends: 0,
            torn_writes: 0,
            bit_flips: 0,
        }
    }

    /// Faults injected so far: `(torn writes, bit flips)`.
    pub fn injected(&self) -> (u64, u64) {
        (self.torn_writes, self.bit_flips)
    }
}

impl<S: JournalSink> JournalSink for FaultFile<S> {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let index = self.appends;
        self.appends += 1;
        if self.plan.fires(self.plan.torn_write_period, 0x7011, index) && !bytes.is_empty() {
            // A crash mid-append: some prefix made it to disk, the rest —
            // and the acknowledgement — did not.
            let keep = (mix64(self.plan.seed ^ 0xCAFE ^ index) as usize) % bytes.len();
            self.inner.append(&bytes[..keep])?;
            self.torn_writes += 1;
            return Err(io::Error::other(format!(
                "injected torn write: {keep} of {} bytes persisted",
                bytes.len()
            )));
        }
        if self.plan.fires(self.plan.bit_flip_period, 0xF11B, index) && !bytes.is_empty() {
            // Silent corruption: the write "succeeds", one bit lies.
            let mut damaged = bytes.to_vec();
            let bit = (mix64(self.plan.seed ^ 0xB17 ^ index) as usize) % (damaged.len() * 8);
            damaged[bit / 8] ^= 1 << (bit % 8);
            self.bit_flips += 1;
            return self.inner.append(&damaged);
        }
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}

/// The write-ahead journal: frames records, enforces the fsync policy,
/// and tracks the compaction epoch. Owned by the daemon's state mutex so
/// append order is exactly application order.
///
/// A failed append leaves an unknown prefix of the frame on disk; the
/// journal repairs by truncating back to the last durable frame boundary.
/// If even the repair fails, the journal goes **poisoned** — every later
/// append is refused — so the daemon fails stop (rejecting mutations)
/// rather than diverging from what recovery would replay.
pub struct Journal {
    sink: Box<dyn JournalSink>,
    policy: FsyncPolicy,
    epoch: u64,
    durable_bytes: u64,
    appends_since_sync: u64,
    records_appended: u64,
    poisoned: bool,
}

impl Journal {
    /// A journal writing frames to an empty `sink` starting at `epoch`.
    pub fn new(sink: Box<dyn JournalSink>, policy: FsyncPolicy, epoch: u64) -> Self {
        Self {
            sink,
            policy,
            epoch,
            durable_bytes: 0,
            appends_since_sync: 0,
            records_appended: 0,
            poisoned: false,
        }
    }

    /// A journal appending to the file at `path` (created if absent). The
    /// caller (recovery) must already have truncated the file to its last
    /// valid record boundary.
    pub fn open(path: impl AsRef<Path>, policy: FsyncPolicy, epoch: u64) -> io::Result<Self> {
        let path = path.as_ref();
        let durable_bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
        let mut journal = Self::new(Box::new(FileSink::open(path)?), policy, epoch);
        journal.durable_bytes = durable_bytes;
        Ok(journal)
    }

    /// The current compaction epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Records appended over this journal's lifetime.
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Whether the journal has failed stop (see the type docs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Wraps the current sink (e.g. in a [`FaultFile`]) — test plumbing
    /// for injecting filesystem faults under a live daemon.
    pub fn wrap_sink(&mut self, wrap: impl FnOnce(Box<dyn JournalSink>) -> Box<dyn JournalSink>) {
        // Replace with a throwaway memory sink while the wrapper is built.
        let sink = std::mem::replace(&mut self.sink, Box::new(MemorySink::new()));
        self.sink = wrap(sink);
    }

    /// Appends one operation at the current epoch, fsyncing per policy.
    /// Returns the fsync duration in nanoseconds when one ran. On error
    /// nothing was made durable — the caller rejects the request *without
    /// applying it*, preserving the write-ahead invariant — and the torn
    /// frame has been truncated away (or the journal poisoned).
    pub fn append(&mut self, op: &JournalOp) -> io::Result<Option<u64>> {
        if self.poisoned {
            return Err(io::Error::other(
                "journal is poisoned by an unrepaired append failure",
            ));
        }
        let frame = encode_record(self.epoch, op).map_err(io::Error::other)?;
        if let Err(e) = self.sink.append(&frame) {
            // An unknown prefix of the frame may have landed; cut back to
            // the last durable frame boundary so the on-disk journal and
            // the in-memory registry stay in lockstep.
            if self.sink.truncate(self.durable_bytes).is_err() {
                self.poisoned = true;
            }
            return Err(e);
        }
        self.durable_bytes += frame.len() as u64;
        self.records_appended += 1;
        self.appends_since_sync += 1;
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if !due {
            return Ok(None);
        }
        let start = std::time::Instant::now();
        self.sink.sync()?;
        self.appends_since_sync = 0;
        Ok(Some(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
        ))
    }

    /// Forces an fsync regardless of policy (the shutdown fallback when
    /// compaction fails).
    pub fn flush(&mut self) -> io::Result<()> {
        self.appends_since_sync = 0;
        self.sink.sync()
    }

    /// The epoch the next compaction will record.
    pub fn next_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// Compacts: adopts the new epoch and truncates the journal. The
    /// caller must have *already durably written* a snapshot recording
    /// `epoch` — that ordering is what makes a crash between snapshot and
    /// truncation safe (leftover records carry the old epoch and are
    /// skipped as stale on replay).
    pub fn compact_to_epoch(&mut self, epoch: u64) -> io::Result<()> {
        self.epoch = epoch;
        self.appends_since_sync = 0;
        self.durable_bytes = 0;
        self.sink.truncate(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MonitorKey {
        MonitorKey {
            tenant: "acme".into(),
            model: "fraud".into(),
            version: "v1".into(),
        }
    }

    fn estimate_op(v: f64) -> JournalOp {
        JournalOp::ObserveEstimate {
            key: key(),
            estimate: v,
        }
    }

    /// One of every op that carries no artifact, with the awkward values
    /// (NaN, −0, subnormals, empty rows, non-ASCII strings) a bit-exact
    /// codec must keep.
    fn sample_ops() -> Vec<JournalOp> {
        let odd_key = MonitorKey {
            tenant: "ténant ☃".into(),
            model: String::new(),
            version: "v\u{0}2".into(),
        };
        vec![
            estimate_op(0.5),
            estimate_op(f64::NAN),
            JournalOp::ObserveEstimate {
                key: odd_key.clone(),
                estimate: -0.0,
            },
            JournalOp::Finish { key: key() },
            JournalOp::AbandonWindow {
                key: key(),
                reason: "tenant 'acme' over budget".into(),
            },
            JournalOp::ObserveDegraded {
                key: odd_key,
                reason: String::new(),
            },
            JournalOp::ObserveChunk {
                key: key(),
                rows: vec![vec![0.25, 0.75], vec![0.5, 0.5]],
            },
            JournalOp::ObserveChunk {
                key: key(),
                rows: Vec::new(),
            },
            JournalOp::ObserveOutputs {
                key: key(),
                rows: vec![
                    vec![f64::MIN_POSITIVE / 2.0, 1.0, f64::INFINITY],
                    vec![0.1 + 0.2, f64::NAN, -1e-300],
                ],
            },
            JournalOp::ObserveInterval {
                key: key(),
                interval: ScoreInterval {
                    point: 0.8,
                    lo: 0.7,
                    hi: 0.9,
                    alpha: 0.1,
                },
            },
            JournalOp::ObserveInterval {
                key: key(),
                interval: ScoreInterval::degraded(0.1),
            },
        ]
    }

    /// A frame with `magic` over `payload`, its length and checksum
    /// computed, so a test reaches the payload decoder.
    fn frame(magic: [u8; 4], payload: &[u8]) -> Vec<u8> {
        let mut frame = magic.to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&checksum64(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn records_round_trip_through_the_frame_bit_exactly() {
        let ops = sample_ops();
        let frames: Vec<Vec<u8>> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| encode_record(i as u64, op).unwrap())
            .collect();
        let bytes = frames.concat();
        let scan = scan_journal(&bytes);
        assert!(scan.defect.is_none());
        assert_eq!(scan.valid_len, bytes.len());
        assert_eq!(scan.records.len(), ops.len());
        for (i, record) in scan.records.iter().enumerate() {
            assert_eq!(record.epoch, i as u64);
            // Floats travel as bits, so re-encoding reproduces the frame.
            assert_eq!(encode_record(record.epoch, &record.op).unwrap(), frames[i]);
        }
        let JournalOp::ObserveOutputs { rows, .. } = &scan.records[8].op else {
            panic!("op order changed");
        };
        assert_eq!(rows[1][0].to_bits(), (0.1f64 + 0.2).to_bits());
        assert!(rows[1][1].is_nan());
    }

    #[test]
    fn encode_rejects_ragged_and_zero_width_rows() {
        for rows in [
            vec![vec![0.5, 0.5], vec![1.0]],
            vec![Vec::new(), Vec::new()],
        ] {
            let op = JournalOp::ObserveChunk { key: key(), rows };
            assert!(encode_record(0, &op).is_err());
        }
    }

    #[test]
    fn v1_frames_still_decode_and_interleave_with_v2() {
        let v1 = |epoch: u64, estimate: &str| {
            let json = format!(
                "{{\"epoch\":{epoch},\"op\":{{\"ObserveEstimate\":{{\"key\":\
                 {{\"tenant\":\"acme\",\"model\":\"fraud\",\"version\":\"v1\"}},\
                 \"estimate\":{estimate}}}}}}}"
            );
            frame(RECORD_MAGIC_V1, json.as_bytes())
        };
        let bytes = [
            v1(3, "0.25"),
            v1(3, "0.5"),
            encode_record(3, &estimate_op(0.75)).unwrap(),
            encode_record(4, &JournalOp::Finish { key: key() }).unwrap(),
        ]
        .concat();
        let scan = scan_journal(&bytes);
        assert!(scan.defect.is_none(), "{:?}", scan.defect);
        let ops: Vec<(u64, Option<f64>)> = scan
            .records
            .iter()
            .map(|r| match r.op {
                JournalOp::ObserveEstimate { estimate, .. } => (r.epoch, Some(estimate)),
                _ => (r.epoch, None),
            })
            .collect();
        assert_eq!(
            ops,
            vec![(3, Some(0.25)), (3, Some(0.5)), (3, Some(0.75)), (4, None)]
        );
    }

    #[test]
    fn scan_classifies_every_tail_defect() {
        let frame_bytes = encode_record(0, &estimate_op(0.25)).unwrap();
        let two = [frame_bytes.clone(), frame_bytes.clone()].concat();
        let len = frame_bytes.len();

        // Torn header: second frame cut inside its header.
        let scan = scan_journal(&two[..len + 7]);
        assert_eq!(scan.defect, Some(JournalDefect::TornHeader));
        assert_eq!((scan.records.len(), scan.valid_len), (1, len));

        // Torn payload: second frame cut inside its payload.
        let scan = scan_journal(&two[..len + RECORD_HEADER_LEN + 3]);
        assert_eq!(scan.defect, Some(JournalDefect::TornPayload));
        assert_eq!((scan.records.len(), scan.valid_len), (1, len));

        // Bit flip in the second payload: checksum mismatch.
        let mut flipped = two.clone();
        flipped[len + RECORD_HEADER_LEN + 5] ^= 0x20;
        let scan = scan_journal(&flipped);
        assert_eq!(scan.defect, Some(JournalDefect::ChecksumMismatch));
        assert_eq!((scan.records.len(), scan.valid_len), (1, len));

        // Garbage at a record boundary: bad magic.
        let mut garbage = frame_bytes.clone();
        garbage.extend_from_slice(b"this is not a journal record at all");
        let scan = scan_journal(&garbage);
        assert_eq!(scan.defect, Some(JournalDefect::BadMagic));
        assert_eq!((scan.records.len(), scan.valid_len), (1, len));

        // Valid frames over non-record payloads: malformed, in either
        // version.
        for fake in [
            frame(RECORD_MAGIC_V1, b"{\"not\": \"a record\"}"),
            frame(RECORD_MAGIC, b"{\"not\": \"a record\"}"),
        ] {
            let scan = scan_journal(&fake);
            assert_eq!(scan.defect, Some(JournalDefect::Malformed));
            assert_eq!((scan.records.len(), scan.valid_len), (0, 0));
        }

        // Empty journal: clean.
        let scan = scan_journal(&[]);
        assert!(scan.defect.is_none() && scan.records.is_empty());
    }

    #[test]
    fn a_torn_tail_that_prefixes_either_magic_is_a_torn_header() {
        let good = encode_record(0, &estimate_op(0.5)).unwrap();
        for tail in [
            &b"L"[..],
            b"LV",
            b"LVJ",
            b"LVJ2",
            b"LVJR",
            b"LVJ2\x10\x00\x00",
            b"LVJR\x10\x00\x00\x00\x01\x02\x03",
        ] {
            let scan = scan_journal(&[&good[..], tail].concat());
            assert_eq!(scan.defect, Some(JournalDefect::TornHeader), "{tail:?}");
            assert_eq!((scan.records.len(), scan.valid_len), (1, good.len()));
        }
        for tail in [&b"X"[..], b"LVX", b"LVJ3", b"LVJ3\x00\x00\x00\x00\x00"] {
            let scan = scan_journal(&[&good[..], tail].concat());
            assert_eq!(scan.defect, Some(JournalDefect::BadMagic), "{tail:?}");
        }
    }

    /// The payload offset of the first row-count field of a rows op keyed
    /// by [`key`]: epoch, tag, then the three length-prefixed strings.
    fn rows_offset() -> usize {
        let k = key();
        8 + 1 + 12 + k.tenant.len() + k.model.len() + k.version.len()
    }

    /// Scans `payload` inside a correctly checksummed v2 frame: whatever
    /// the bytes, the decoder either yields the one record or reports
    /// the payload malformed.
    fn scan_payload(payload: &[u8]) -> Option<JournalDefect> {
        let scan = scan_journal(&frame(RECORD_MAGIC, payload));
        match &scan.defect {
            None => assert_eq!(scan.records.len(), 1),
            Some(defect) => {
                assert_eq!(*defect, JournalDefect::Malformed);
                assert_eq!((scan.records.len(), scan.valid_len), (0, 0));
            }
        }
        scan.defect
    }

    #[test]
    fn adversarial_v2_payloads_yield_typed_defects_without_panicking() {
        let payloads: Vec<Vec<u8>> = sample_ops()
            .iter()
            .map(|op| encode_record(7, op).unwrap()[RECORD_HEADER_LEN..].to_vec())
            .collect();
        let mut rng = 0x5EED_u64;
        for payload in &payloads {
            // Seeded bit flips: a flipped float bit still decodes; anything
            // else may be malformed, but nothing panics.
            for _ in 0..64 {
                rng = mix64(rng);
                let bit = (rng % (payload.len() as u64 * 8)) as usize;
                let mut damaged = payload.clone();
                damaged[bit / 8] ^= 1 << (bit % 8);
                scan_payload(&damaged);
            }
            // Truncation at every offset, re-checksummed: always malformed.
            for cut in 0..payload.len() {
                assert_eq!(
                    scan_payload(&payload[..cut]),
                    Some(JournalDefect::Malformed),
                    "cut at {cut}"
                );
            }
            // Truncation of the frame itself at every offset: torn.
            let whole = frame(RECORD_MAGIC, payload);
            for cut in 1..whole.len() {
                let defect = scan_journal(&whole[..cut]).defect;
                let expected = if cut < RECORD_HEADER_LEN {
                    JournalDefect::TornHeader
                } else {
                    JournalDefect::TornPayload
                };
                assert_eq!(defect, Some(expected), "frame cut at {cut}");
            }
            // Trailing bytes.
            let mut trailing = payload.clone();
            trailing.push(0);
            assert_eq!(scan_payload(&trailing), Some(JournalDefect::Malformed));
            // Unknown tags.
            for tag in [8u8, 0x7F, u8::MAX] {
                let mut unknown = payload.clone();
                unknown[8] = tag;
                assert_eq!(scan_payload(&unknown), Some(JournalDefect::Malformed));
            }
            // Every string length of the key set to u32::MAX.
            let mut at = 9;
            for part in [key().tenant, key().model, key().version] {
                let mut huge = payload.clone();
                let declared = u32::from_le_bytes(huge[at..at + 4].try_into().unwrap());
                if declared as usize != part.len() {
                    break; // the odd key; its offsets differ
                }
                huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                assert_eq!(scan_payload(&huge), Some(JournalDefect::Malformed));
                at += 4 + part.len();
            }
        }

        // Row and column counts set to u32::MAX, alone and together, and a
        // non-empty zero-width block.
        let chunk = &payloads[6];
        let at = rows_offset();
        for (n_rows, n_cols) in [
            (u32::MAX, 2),
            (2, u32::MAX),
            (u32::MAX, u32::MAX),
            (u32::MAX, 0),
            (3, 0),
            (3, 2),
        ] {
            let mut huge = chunk.clone();
            huge[at..at + 4].copy_from_slice(&n_rows.to_le_bytes());
            huge[at + 4..at + 8].copy_from_slice(&n_cols.to_le_bytes());
            assert_eq!(
                scan_payload(&huge),
                Some(JournalDefect::Malformed),
                "{n_rows} x {n_cols}"
            );
        }

        // Invalid UTF-8 in a key string and in a reason.
        let mut bad = payloads[0].clone();
        bad[13] = 0xFF;
        assert_eq!(scan_payload(&bad), Some(JournalDefect::Malformed));
        let abandon = &payloads[4];
        let mut bad = abandon.clone();
        let last = bad.len() - 1;
        bad[last] = 0xC3;
        assert_eq!(scan_payload(&bad), Some(JournalDefect::Malformed));

        // A register whose artifact JSON does not parse.
        let mut register = payloads[3].clone();
        register[8] = 0;
        register.extend_from_slice(&2u32.to_le_bytes());
        register.extend_from_slice(b"{}");
        assert_eq!(scan_payload(&register), Some(JournalDefect::Malformed));
    }

    #[test]
    fn fsync_policy_parses_and_schedules() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
        assert_eq!(
            FsyncPolicy::parse("every:3").unwrap(),
            FsyncPolicy::EveryN(3)
        );
        assert!(FsyncPolicy::parse("every:0").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
        assert_eq!(FsyncPolicy::EveryN(3).to_string(), "every:3");

        let mut journal = Journal::new(Box::new(MemorySink::new()), FsyncPolicy::EveryN(3), 0);
        let synced: Vec<bool> = (0..6)
            .map(|i| journal.append(&estimate_op(i as f64)).unwrap().is_some())
            .collect();
        assert_eq!(synced, vec![false, false, true, false, false, true]);
        let mut journal = Journal::new(Box::new(MemorySink::new()), FsyncPolicy::Always, 0);
        assert!(journal.append(&estimate_op(0.5)).unwrap().is_some());
        let mut journal = Journal::new(Box::new(MemorySink::new()), FsyncPolicy::Never, 0);
        assert!(journal.append(&estimate_op(0.5)).unwrap().is_none());
    }

    #[test]
    fn compaction_bumps_epoch_and_truncates() {
        let sink = MemorySink::new();
        let handle = sink.clone();
        let mut journal = Journal::new(Box::new(sink), FsyncPolicy::Never, 0);
        journal.append(&estimate_op(0.1)).unwrap();
        journal.append(&estimate_op(0.2)).unwrap();
        assert!(!handle.contents().is_empty());

        let next = journal.next_epoch();
        journal.compact_to_epoch(next).unwrap();
        assert!(handle.contents().is_empty());
        assert_eq!(journal.epoch(), 1);
        journal.append(&estimate_op(0.3)).unwrap();
        let scan = scan_journal(&handle.contents());
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].epoch, 1);
    }

    #[test]
    fn journal_poisons_when_torn_append_repair_fails() {
        // A sink where both the append and the repair truncate fail —
        // e.g. the disk fell out from under the daemon.
        struct DeadSink;
        impl JournalSink for DeadSink {
            fn append(&mut self, _bytes: &[u8]) -> io::Result<()> {
                Err(io::Error::other("dead"))
            }
            fn sync(&mut self) -> io::Result<()> {
                Err(io::Error::other("dead"))
            }
            fn truncate(&mut self, _len: u64) -> io::Result<()> {
                Err(io::Error::other("dead"))
            }
        }
        let mut journal = Journal::new(Box::new(DeadSink), FsyncPolicy::Never, 0);
        assert!(!journal.is_poisoned());
        assert!(journal.append(&estimate_op(0.5)).is_err());
        // Repair failed → fail stop: every further append refuses fast.
        assert!(journal.is_poisoned());
        let err = journal.append(&estimate_op(0.5)).unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
    }

    #[test]
    fn fault_file_tears_and_flips_deterministically() {
        let plan = JournalFaultPlan {
            seed: 42,
            torn_write_period: Some(3),
            bit_flip_period: None,
        };
        // The same plan over the same appends injects the same faults.
        let run = || {
            let sink = MemorySink::new();
            let handle = sink.clone();
            let mut journal =
                Journal::new(Box::new(FaultFile::new(sink, plan)), FsyncPolicy::Never, 0);
            let results: Vec<bool> = (0..12)
                .map(|i| journal.append(&estimate_op(i as f64)).is_ok())
                .collect();
            (results, handle.contents())
        };
        let (results_a, bytes_a) = run();
        let (results_b, bytes_b) = run();
        assert_eq!(results_a, results_b);
        assert_eq!(bytes_a, bytes_b);
        assert!(results_a.iter().any(|ok| !ok), "plan must tear something");
        assert!(results_a.iter().any(|ok| *ok), "plan must pass something");

        // The journal repaired each torn append by truncating back to the
        // last durable frame, so the surviving bytes hold exactly the
        // accepted records — scans clean, nothing panics.
        let scan = scan_journal(&bytes_a);
        let accepted = results_a.iter().filter(|ok| **ok).count();
        assert_eq!(scan.records.len(), accepted);
        assert!(scan.defect.is_none());

        // Bit flips succeed at append time and only the checksum catches
        // them.
        let plan = JournalFaultPlan {
            seed: 7,
            torn_write_period: None,
            bit_flip_period: Some(4),
        };
        let sink = MemorySink::new();
        let handle = sink.clone();
        let mut fault = FaultFile::new(sink, plan);
        let mut flipped_any = false;
        for i in 0..8 {
            let frame = encode_record(0, &estimate_op(i as f64)).unwrap();
            fault.append(&frame).unwrap();
        }
        let (_, flips) = fault.injected();
        flipped_any |= flips > 0;
        assert!(flipped_any, "plan must flip something");
        let scan = scan_journal(&handle.contents());
        assert_eq!(scan.defect, Some(JournalDefect::ChecksumMismatch));
        assert!(scan.records.len() < 8);
    }
}
