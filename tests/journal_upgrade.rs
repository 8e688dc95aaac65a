//! The journal's v1 → v2 upgrade: a state directory written before the
//! binary v2 frames (`tests/fixtures/v1_state`, JSON `LVJR` frames) still
//! recovers to the registry it held, and a daemon recovered from it
//! appends v2 frames after the v1 ones, all of which replay in order on
//! the next restart.
//!
//! The fixture was written by the v1 journal writer: one deployment
//! (`acme/churn/v1`) registered and compacted into `registry.json`
//! (epoch 1), then 21 journaled records — a second deployment's register,
//! estimates, two full output batches, an external interval, a clean
//! streamed window, two overflowing windows whose shed chunks journal as
//! abandonments (the second trips the tenant's breaker), and two
//! breaker-open observes journaled as degraded batches. The fingerprint
//! below is what that writer's own recovery produced.

use lvp_core::{checksum64, to_json, ScoreInterval};
use lvp_models::BreakerConfig;
use lvp_server::{
    scan_journal, Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, JournalOp, MonitorKey,
    Request,
};
use std::path::{Path, PathBuf};

/// `checksum64` of the registry JSON the v1 fixture recovers to.
const V1_FINGERPRINT: u64 = 0x3e2d_5d77_fdad_67fb;
/// Records in the fixture's journal, all at the snapshot's epoch.
const V1_RECORDS: usize = 21;

fn config() -> DaemonConfig {
    DaemonConfig {
        queue_capacity: 2,
        breaker: BreakerConfig {
            failure_threshold: 2,
            cooldown_nanos: 50_000_000,
            half_open_successes: 1,
        },
        ..DaemonConfig::default()
    }
}

fn key(tenant: &str) -> MonitorKey {
    MonitorKey {
        tenant: tenant.into(),
        model: "churn".into(),
        version: "v1".into(),
    }
}

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v1_state")
}

/// A fresh copy of the fixture, so recovery never touches the original.
fn copy_fixture(name: &str) -> DurabilityConfig {
    let dir = std::env::temp_dir().join(format!("lvpd-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for file in ["registry.json", "observe.journal"] {
        std::fs::copy(fixture_dir().join(file), dir.join(file)).unwrap();
    }
    DurabilityConfig::in_dir_with_fsync(dir, FsyncPolicy::Never)
}

fn kind(op: &JournalOp) -> &'static str {
    match op {
        JournalOp::Register { .. } => "register",
        JournalOp::ObserveOutputs { .. } => "outputs",
        JournalOp::ObserveChunk { .. } => "chunk",
        JournalOp::ObserveEstimate { .. } => "estimate",
        JournalOp::ObserveInterval { .. } => "interval",
        JournalOp::Finish { .. } => "finish",
        JournalOp::AbandonWindow { .. } => "abandon",
        JournalOp::ObserveDegraded { .. } => "degraded",
    }
}

fn kinds(journal: &[u8]) -> Vec<&'static str> {
    let scan = scan_journal(journal);
    assert!(scan.defect.is_none(), "{:?}", scan.defect);
    scan.records.iter().map(|r| kind(&r.op)).collect()
}

fn fingerprint(daemon: &Daemon) -> u64 {
    checksum64(to_json(&daemon.snapshot()).unwrap().as_bytes())
}

#[test]
fn a_v1_journal_recovers_to_its_pinned_registry() {
    let journal = std::fs::read(fixture_dir().join("observe.journal")).unwrap();
    assert!(journal.starts_with(b"LVJR"), "the fixture must be v1");
    let seen = kinds(&journal);
    assert_eq!(seen.len(), V1_RECORDS);
    for expected in [
        "register", "outputs", "chunk", "estimate", "interval", "finish", "abandon", "degraded",
    ] {
        assert!(
            seen.contains(&expected),
            "fixture lacks a {expected} record"
        );
    }

    let durability = copy_fixture("v1-fixture");
    let (daemon, report) = Daemon::recover(config(), durability.clone()).unwrap();
    assert!(report.snapshot_loaded, "{report:?}");
    assert_eq!(report.records_replayed, V1_RECORDS, "{report:?}");
    assert_eq!(report.replay_op_errors, 0, "{report:?}");
    assert!(report.tail_defect.is_none(), "{report:?}");
    assert_eq!(fingerprint(&daemon), V1_FINGERPRINT);
    drop(daemon);
    let _ = std::fs::remove_dir_all(&durability.dir);
}

#[test]
fn a_journal_upgraded_in_place_replays_v1_then_v2_records_in_order() {
    let durability = copy_fixture("v1-upgrade");
    let (daemon, _) = Daemon::recover(config(), durability.clone()).unwrap();
    assert_eq!(fingerprint(&daemon), V1_FINGERPRINT);

    let rows = |n: usize| -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let p = 0.2 + 0.05 * i as f64;
                vec![p, 1.0 - p]
            })
            .collect()
    };
    let mut requests = Vec::new();
    let mut req = Request::targeted("observe", &key("acme"));
    req.outputs = Some(rows(9));
    requests.push(req);
    let mut req = Request::targeted("observe", &key("acme"));
    req.chunk = Some(rows(4));
    requests.push(req);
    requests.push(Request::targeted("finish", &key("acme")));
    let mut req = Request::targeted("observe", &key("bravo"));
    req.estimate = Some(0.66);
    requests.push(req);
    let mut req = Request::targeted("observe", &key("bravo"));
    req.interval = Some(ScoreInterval {
        point: 0.6,
        lo: 0.5,
        hi: 0.7,
        alpha: 0.1,
    });
    requests.push(req);
    for request in requests {
        let resp = daemon.handle_request(request);
        assert!(resp.is_ok(), "{:?}", resp.message);
    }
    let live = fingerprint(&daemon);
    // A crash: no compaction, the journal holds both versions.
    drop(daemon);

    let v1 = std::fs::read(fixture_dir().join("observe.journal")).unwrap();
    let journal = std::fs::read(durability.journal_path()).unwrap();
    assert_eq!(&journal[..v1.len()], &v1[..], "the v1 prefix is untouched");
    assert!(journal[v1.len()..].starts_with(b"LVJ2"));
    let mut expected = kinds(&v1);
    expected.extend(["outputs", "chunk", "finish", "estimate", "interval"]);
    assert_eq!(kinds(&journal), expected);

    let (restarted, report) = Daemon::recover(config(), durability.clone()).unwrap();
    assert_eq!(report.records_replayed, V1_RECORDS + 5, "{report:?}");
    assert_eq!(report.replay_op_errors, 0, "{report:?}");
    assert!(report.tail_defect.is_none(), "{report:?}");
    assert_eq!(fingerprint(&restarted), live);
    drop(restarted);
    let _ = std::fs::remove_dir_all(&durability.dir);
}
