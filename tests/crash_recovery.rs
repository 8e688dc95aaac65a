//! Crash-recovery properties of the durable lvpd stack: a daemon killed
//! at *any* journal record boundary recovers bit-identical registry
//! state; torn, truncated, or bit-flipped journal tails are classified
//! and truncated to the last durable record (never a panic); live torn
//! appends reject the request without applying it; pre-envelope
//! registry snapshots still load; a `save` naming a path still compacts
//! in place; and after every request of a random stream, replaying the
//! journal reproduces the live registry.

use lvp_core::{
    to_json, BatchMonitor, MonitorPolicy, PerformancePredictor, PredictorConfig, ScoreInterval,
    ServingArtifact,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_dataframe::toy_frame;
use lvp_models::{train_model, BlackBoxModel, BreakerConfig, ModelKind};
use lvp_server::{
    Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, JournalFaultPlan, MonitorKey, Request,
    Response,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::sync::{Arc, OnceLock};

fn serving_artifact() -> ServingArtifact {
    let df = toy_frame(220);
    let mut rng = StdRng::seed_from_u64(23);
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

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::in_dir_with_fsync(dir, FsyncPolicy::default())
}

fn key(tenant: &str) -> MonitorKey {
    MonitorKey {
        tenant: tenant.to_string(),
        model: "churn".to_string(),
        version: "v2".to_string(),
    }
}

fn chunk_rows(n: usize, shift: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let p = (0.15 + shift + 0.6 * (i as f64 / n as f64)).clamp(0.01, 0.99);
            vec![p, 1.0 - p]
        })
        .collect()
}

/// The deterministic workload: two deployments, full batches, estimates,
/// streamed chunks with overflow sheds (the per-tenant budget is 2), a
/// breaker-open phase, finishes, and one mid-stream compacting `save`.
/// Well over 50 journaled mutations.
fn workload(artifact: &ServingArtifact) -> Vec<Request> {
    let mut requests = Vec::new();
    for tenant in ["acme", "bravo"] {
        let mut req = Request::targeted("register", &key(tenant));
        req.artifact = Some(artifact.clone());
        requests.push(req);
    }
    for i in 0..18 {
        let mut req = Request::targeted("observe", &key("acme"));
        req.estimate = Some(0.3 + 0.02 * i as f64);
        requests.push(req);
    }
    for i in 0..4 {
        let mut req = Request::targeted("observe", &key("acme"));
        req.outputs = Some(chunk_rows(12, 0.02 * i as f64));
        requests.push(req);
    }
    // bravo floods its chunk budget: each round journals two accepted
    // chunks, one shed (as its window-abandonment effect), and a finish
    // of the poisoned window. Two overflow rounds trip the breaker.
    for round in 0..4 {
        for c in 0..3 {
            let mut req = Request::targeted("observe", &key("bravo"));
            req.chunk = Some(chunk_rows(8, 0.03 * (round * 3 + c) as f64));
            requests.push(req);
        }
        requests.push(Request::targeted("finish", &key("bravo")));
    }
    // Breaker-open sheds journal as degraded-batch effects.
    for i in 0..4 {
        let mut req = Request::targeted("observe", &key("bravo"));
        req.estimate = Some(0.5 + 0.01 * i as f64);
        requests.push(req);
    }
    // An invalid interval errors without journaling or mutating anything.
    let mut req = Request::targeted("observe", &key("acme"));
    req.interval = Some(lvp_core::ScoreInterval {
        point: 0.8,
        lo: 0.9,
        hi: 0.7,
        alpha: 0.1,
    });
    requests.push(req);
    // Mid-stream save: compacts the journal.
    requests.push(Request::new("save"));
    // Post-compaction traffic, including a valid external interval and an
    // open window left in flight at the end.
    for i in 0..10 {
        let mut req = Request::targeted("observe", &key("acme"));
        req.estimate = Some(0.4 + 0.015 * i as f64);
        requests.push(req);
    }
    let mut req = Request::targeted("observe", &key("acme"));
    req.interval = Some(lvp_core::ScoreInterval {
        point: 0.8,
        lo: 0.7,
        hi: 0.9,
        alpha: 0.1,
    });
    requests.push(req);
    let mut req = Request::targeted("observe", &key("acme"));
    req.chunk = Some(chunk_rows(10, 0.0));
    requests.push(req);
    requests
}

/// Files on disk after one request: the journal plus the snapshot, if one
/// has been written yet — exactly what a crash at this boundary leaves.
#[derive(Clone)]
struct DiskState {
    journal: Vec<u8>,
    snapshot: Option<Vec<u8>>,
}

struct Trace {
    /// Disk state after request `i` of the workload.
    disk: Vec<DiskState>,
    /// Registry-content JSON after request `i` (the recovery target).
    state_json: Vec<String>,
    responses: Vec<Response>,
}

/// Runs the workload on a durable daemon in `dir`, capturing the on-disk
/// bytes and the in-memory registry state after every request.
fn run_durable(artifact: &ServingArtifact, dir: &Path) -> Trace {
    let durability = durability(dir);
    let (snapshot_path, journal_path) = (durability.snapshot_path(), durability.journal_path());
    let (daemon, report) = Daemon::recover(config(), durability).unwrap();
    assert!(!report.snapshot_loaded && report.journal_bytes == 0);

    let mut trace = Trace {
        disk: Vec::new(),
        state_json: Vec::new(),
        responses: Vec::new(),
    };
    for request in workload(artifact) {
        let response = daemon.handle_request(request);
        trace.disk.push(DiskState {
            journal: std::fs::read(&journal_path).unwrap(),
            snapshot: std::fs::read(&snapshot_path).ok(),
        });
        trace.state_json.push(to_json(&daemon.snapshot()).unwrap());
        trace.responses.push(response);
    }
    trace
}

/// Lays `disk` down in `dir` as the post-crash filesystem.
fn plant(disk: &DiskState, dir: &Path) -> DurabilityConfig {
    std::fs::create_dir_all(dir).unwrap();
    let durability = durability(dir);
    std::fs::write(durability.journal_path(), &disk.journal).unwrap();
    let snapshot_path = durability.snapshot_path();
    match &disk.snapshot {
        Some(bytes) => std::fs::write(&snapshot_path, bytes).unwrap(),
        None => {
            let _ = std::fs::remove_file(&snapshot_path);
        }
    }
    durability
}

#[test]
fn crashing_at_every_record_boundary_recovers_bit_identical_state() {
    let dir = std::env::temp_dir().join(format!("lvpd-crash-{}", std::process::id()));
    let artifact = serving_artifact();
    let trace = run_durable(&artifact, &dir.join("live"));
    assert!(
        trace.disk.len() > 50,
        "workload too small: {}",
        trace.disk.len()
    );
    // The workload really exercised the interesting paths.
    assert!(trace.responses.iter().any(Response::is_shed));
    assert!(trace.responses.iter().any(|r| r.status == "error"));
    let compactions = trace.windows_compacted();
    assert!(compactions >= 1, "the save must have compacted the journal");

    // Crash after every request: recovery from exactly the bytes on disk
    // must reproduce the live daemon's registry state bit-for-bit.
    let scratch = dir.join("scratch");
    for (step, disk) in trace.disk.iter().enumerate() {
        let durability = plant(disk, &scratch);
        let (recovered, report) = Daemon::recover(config(), durability)
            .unwrap_or_else(|e| panic!("recovery at step {step} failed: {e}"));
        assert_eq!(
            to_json(&recovered.snapshot()).unwrap(),
            trace.state_json[step],
            "state diverged after crash at step {step} ({report:?})",
        );
        assert!(
            report.tail_defect.is_none(),
            "clean boundary misread as damage at step {step}: {report:?}"
        );
        // Requests that apply nothing (the invalid interval) are refused
        // before the journal append, so replay never reproduces an error.
        assert_eq!(report.replay_op_errors, 0, "step {step}: {report:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

impl Trace {
    /// How many times the on-disk journal shrank — i.e. was compacted.
    fn windows_compacted(&self) -> usize {
        self.disk
            .windows(2)
            .filter(|w| w[1].journal.len() < w[0].journal.len())
            .count()
    }
}

#[test]
fn identical_durable_sessions_leave_byte_identical_files() {
    let dir = std::env::temp_dir().join(format!("lvpd-det-{}", std::process::id()));
    let artifact = serving_artifact();
    let a = run_durable(&artifact, &dir.join("a"));
    let b = run_durable(&artifact, &dir.join("b"));
    let (la, lb) = (a.disk.last().unwrap(), b.disk.last().unwrap());
    assert_eq!(la.journal, lb.journal, "journals must be byte-identical");
    assert_eq!(la.snapshot, lb.snapshot, "snapshots must be byte-identical");
    assert_eq!(a.state_json.last(), b.state_json.last());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_compaction_skips_stale_records_instead_of_double_applying() {
    let dir = std::env::temp_dir().join(format!("lvpd-stale-{}", std::process::id()));
    let artifact = serving_artifact();
    let trace = run_durable(&artifact, &dir.join("live"));

    // The save step: the snapshot appears (or changes) and the journal
    // shrinks one step later than the last pre-save capture.
    let save_step = trace
        .disk
        .windows(2)
        .position(|w| w[1].journal.len() < w[0].journal.len())
        .expect("workload contains a compacting save")
        + 1;

    // A crash *between* the snapshot write and the journal truncation
    // leaves the new-epoch snapshot next to the old-epoch journal.
    let torn_compaction = DiskState {
        journal: trace.disk[save_step - 1].journal.clone(),
        snapshot: trace.disk[save_step].snapshot.clone(),
    };
    let scratch = dir.join("scratch");
    let durability = plant(&torn_compaction, &scratch);
    let (recovered, report) = Daemon::recover(config(), durability).unwrap();
    assert!(
        report.records_stale > 0,
        "old-epoch records must be recognized as stale: {report:?}"
    );
    assert_eq!(report.records_replayed, 0);
    // The snapshot already contains every stale record's effect: state
    // equals the live registry at the save point, nothing double-applied.
    assert_eq!(
        to_json(&recovered.snapshot()).unwrap(),
        trace.state_json[save_step]
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_and_bit_flipped_tails_truncate_to_the_last_durable_record() {
    let dir = std::env::temp_dir().join(format!("lvpd-tails-{}", std::process::id()));
    let artifact = serving_artifact();
    let trace = run_durable(&artifact, &dir.join("live"));
    let last = trace.disk.last().unwrap();

    // The journal grew right up to the end (an open window was left in
    // flight), so the final capture has at least one trailing record.
    let boundary_step = trace
        .disk
        .iter()
        .rposition(|d| d.journal.len() < last.journal.len())
        .expect("final record has a preceding boundary");
    let boundary = trace.disk[boundary_step].journal.len();
    assert!(boundary < last.journal.len());

    let scratch = dir.join("scratch");
    // Tear the final record at several depths: inside the header, inside
    // the payload, and one byte short of complete.
    for cut in [boundary + 3, boundary + 12, last.journal.len() - 1] {
        let torn = DiskState {
            journal: last.journal[..cut].to_vec(),
            snapshot: last.snapshot.clone(),
        };
        let durability = plant(&torn, &scratch);
        let journal_path = durability.journal_path();
        let (recovered, report) = Daemon::recover(config(), durability)
            .unwrap_or_else(|e| panic!("torn tail at {cut} must recover, got: {e}"));
        assert!(
            report.tail_defect.is_some(),
            "cut at {cut} must be classified: {report:?}"
        );
        assert_eq!(report.truncated_tail_bytes, (cut - boundary) as u64);
        // The damaged tail is physically truncated to the last durable
        // record, and the recovered state is the boundary state.
        assert_eq!(
            std::fs::metadata(&journal_path).unwrap().len(),
            boundary as u64
        );
        assert_eq!(
            to_json(&recovered.snapshot()).unwrap(),
            trace.state_json[boundary_step]
        );
        // The truncation is visible in telemetry, typed, not a panic.
        let snap = recovered.registry().snapshot();
        assert_eq!(snap.counters["journal.tail_defects"], 1);
        assert_eq!(
            snap.counters["journal.tail_truncated_bytes"],
            (cut - boundary) as u64
        );
    }

    // A silent bit flip in the *middle* of the journal: every record up
    // to the flipped one replays, the rest is truncated with a checksum
    // defect — corruption never propagates into monitor state.
    let mut flipped = DiskState {
        journal: last.journal.clone(),
        snapshot: last.snapshot.clone(),
    };
    let mid = boundary / 2;
    flipped.journal[mid] ^= 0x10;
    let durability = plant(&flipped, &scratch);
    let (recovered, report) = Daemon::recover(config(), durability).unwrap();
    let defect = report.tail_defect.clone().expect("flip must be detected");
    assert!(
        ["checksum", "magic", "header", "payload"]
            .iter()
            .any(|class| defect.contains(class)),
        "unexpected defect class: {defect}"
    );
    assert!(report.truncated_tail_bytes > 0);
    // The recovered prefix matches some earlier boundary exactly.
    let prefix_state = to_json(&recovered.snapshot()).unwrap();
    assert!(
        trace.state_json.contains(&prefix_state),
        "bit-flip recovery must land on a boundary state"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn live_torn_appends_reject_the_request_without_applying_it() {
    let dir = std::env::temp_dir().join(format!("lvpd-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let artifact = serving_artifact();
    let durability = durability(&dir);
    let (daemon, _) = Daemon::recover(config(), durability.clone()).unwrap();

    // Register cleanly, then inject deterministic torn writes.
    let mut req = Request::targeted("register", &key("acme"));
    req.artifact = Some(artifact.clone());
    assert!(daemon.handle_request(req).is_ok());
    daemon.inject_journal_faults(JournalFaultPlan {
        seed: 41,
        torn_write_period: Some(4),
        bit_flip_period: None,
    });

    let mut rejected = 0usize;
    let mut applied = 0usize;
    for i in 0..24 {
        let mut req = Request::targeted("observe", &key("acme"));
        req.estimate = Some(0.35 + 0.01 * i as f64);
        let resp = daemon.handle_request(req);
        if resp.is_ok() {
            applied += 1;
        } else {
            rejected += 1;
            assert!(
                resp.message
                    .as_ref()
                    .unwrap()
                    .contains("journal append failed"),
                "{:?}",
                resp.message
            );
        }
    }
    assert!(rejected > 0, "the fault plan must have fired");
    assert!(applied > 0, "most appends must still succeed");

    // WAL-before-apply under faults: rejected observes were never applied,
    // so the monitor saw exactly the accepted ones...
    let live_state = to_json(&daemon.snapshot()).unwrap();
    let batches = daemon
        .snapshot()
        .deployments
        .iter()
        .map(|d| d.artifact.monitor.batches_seen)
        .sum::<usize>();
    assert!(batches >= applied);

    // ...and the torn half-records were repaired in place, so recovery
    // from the faulted journal reproduces the live state exactly, with no
    // tail damage left behind.
    let (recovered, report) = Daemon::recover(config(), durability).unwrap();
    assert!(report.tail_defect.is_none(), "{report:?}");
    assert_eq!(to_json(&recovered.snapshot()).unwrap(), live_state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn legacy_bare_json_snapshots_still_load_and_resave_enveloped() {
    let dir = std::env::temp_dir().join(format!("lvpd-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let artifact = serving_artifact();

    // An in-memory daemon builds some state.
    let daemon = Daemon::new(config());
    let mut req = Request::targeted("register", &key("acme"));
    req.artifact = Some(artifact);
    assert!(daemon.handle_request(req).is_ok());
    let mut req = Request::targeted("observe", &key("acme"));
    req.estimate = Some(0.61);
    assert!(daemon.handle_request(req).is_ok());

    // Write the registry the way pre-envelope, pre-journal releases did:
    // bare JSON with no `journal_epoch` field at all, alone in the state
    // directory.
    let mut json = to_json(&daemon.snapshot()).unwrap();
    assert!(json.contains("\"journal_epoch\":null"));
    json = json.replace("\"journal_epoch\":null,", "");
    let durability = durability(&dir);
    let legacy_path = durability.snapshot_path();
    std::fs::write(&legacy_path, json.as_bytes()).unwrap();

    // Recovery ingests it.
    let (recovered, report) = Daemon::recover(config(), durability.clone()).unwrap();
    assert!(report.snapshot_loaded);
    assert_eq!(report.snapshot_deployments, 1);
    assert_eq!(
        to_json(&recovered.snapshot()).unwrap(),
        to_json(&daemon.snapshot()).unwrap()
    );

    // Re-saving upgrades the file to the checksummed envelope in place.
    assert!(recovered.handle_request(Request::new("save")).is_ok());
    drop(recovered);
    let bytes = std::fs::read(&legacy_path).unwrap();
    assert!(lvp_core::is_enveloped(&bytes));
    let (reloaded, _) = Daemon::recover(config(), durability).unwrap();
    assert_eq!(
        to_json(&reloaded.snapshot()).unwrap(),
        to_json(&daemon.snapshot()).unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every file under `dir`, relative to it, sorted.
fn files_under(dir: &Path) -> Vec<String> {
    let mut files = Vec::new();
    let mut pending = vec![dir.to_path_buf()];
    while let Some(next) = pending.pop() {
        for entry in std::fs::read_dir(&next).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                pending.push(path);
            } else {
                let relative = path.strip_prefix(dir).unwrap();
                files.push(relative.to_string_lossy().into_owned());
            }
        }
    }
    files.sort();
    files
}

#[test]
fn a_save_naming_a_path_is_refused_and_writes_nowhere() {
    let root = std::env::temp_dir().join(format!("lvpd-save-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let dir = root.join("state");
    std::fs::create_dir_all(dir.join("sub")).unwrap();
    let (daemon, _) = Daemon::recover(config(), durability(&dir)).unwrap();
    let mut req = Request::targeted("register", &key("acme"));
    req.artifact = Some(serving_artifact());
    assert!(daemon.handle_request(req).is_ok());
    let observe = |estimate: f64| {
        let mut req = Request::targeted("observe", &key("acme"));
        req.estimate = Some(estimate);
        assert!(daemon.handle_request(req).is_ok());
    };
    observe(0.7);
    assert!(daemon.handle_request(Request::new("save")).is_ok());
    observe(0.6);

    // Clients that still send a path: the configured snapshot spelled
    // another way, and a file outside the state directory. Each save is
    // refused, so the client knows no export was written.
    for path in [
        format!("{}/sub/../registry.json", dir.display()),
        root.join("export.json").display().to_string(),
    ] {
        let line = format!(r#"{{"verb":"save","path":"{path}"}}"#);
        let resp: Response = serde_json::from_str(&daemon.handle_line(&line)).unwrap();
        assert_eq!(resp.status, "error");
        assert!(resp.message.unwrap().contains("takes no path"));
    }
    observe(0.5);
    let live = to_json(&daemon.snapshot()).unwrap();
    drop(daemon);

    assert_eq!(
        files_under(&root),
        ["state/observe.journal", "state/registry.json"]
    );
    let (recovered, report) = Daemon::recover(config(), durability(&dir)).unwrap();
    assert_eq!(report.records_future, 0, "{}", report.summary());
    assert_eq!(to_json(&recovered.snapshot()).unwrap(), live);
    let _ = std::fs::remove_dir_all(&root);
}

/// The next requests of the differential stream: every observe form with
/// valid, malformed, wrong-width and invalid payloads, chunk bursts past
/// the budget of 2 (enough to trip the breaker), finishes with and without
/// an open window, valid and broken re-registrations, and unknown keys.
fn random_requests(rng: &mut StdRng, artifact: &ServingArtifact) -> Vec<Request> {
    let target = if rng.gen_bool(0.05) {
        key("ghost")
    } else {
        key(["acme", "bravo"][rng.gen_range(0..2)])
    };
    let shift = rng.gen_range(0.0..0.3);
    let rows = rng.gen_range(1..16);
    let mut req = Request::targeted("observe", &target);
    match rng.gen_range(0..12) {
        0 => {
            // Every other re-registration carries an artifact that does
            // not restore.
            let mut artifact = artifact.clone();
            if rows % 2 == 0 {
                artifact.predictor.n_classes = Some(0);
            }
            req = Request::targeted("register", &target);
            req.artifact = Some(artifact);
        }
        1 | 2 => {
            req.chunk = Some(chunk_rows(rows, shift));
            return vec![req; rng.gen_range(1..5)];
        }
        3 => req.outputs = Some(chunk_rows(rows, shift)),
        4 => {
            // Ragged rows: a shape error.
            let mut ragged = chunk_rows(rows, shift);
            ragged[0].push(0.0);
            req.outputs = Some(ragged);
        }
        5 => req.chunk = Some(vec![vec![0.2, 0.3, 0.5]; rows]),
        6 => req.outputs = Some(vec![vec![0.2, 0.3, 0.5]; rows]),
        7 => req.estimate = Some(shift + 0.5),
        8 => {
            // Every other interval is inverted, hence invalid.
            let (lo, hi) = if rows % 2 == 0 {
                (0.6, 0.4)
            } else {
                (0.4, 0.6)
            };
            req.interval = Some(ScoreInterval {
                point: 0.5,
                lo: lo + shift,
                hi: hi + shift,
                alpha: 0.1,
            });
        }
        9 => {
            req.estimate = Some(0.5);
            req.chunk = Some(chunk_rows(rows, shift));
        }
        _ => req = Request::targeted("finish", &target),
    }
    vec![req]
}

fn shared_artifact() -> &'static ServingArtifact {
    static ARTIFACT: OnceLock<ServingArtifact> = OnceLock::new();
    ARTIFACT.get_or_init(serving_artifact)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn live_registry_equals_the_replay_of_its_journal_after_every_request(seed in 0u64..u64::MAX) {
        let dir = std::env::temp_dir().join(format!("lvpd-diff-{}-{seed}", std::process::id()));
        let live = durability(&dir.join("live"));
        let journal_path = live.journal_path();
        let (daemon, _) = Daemon::recover(config(), live).unwrap();
        let artifact = shared_artifact();
        let mut stream: Vec<Request> = ["acme", "bravo"]
            .iter()
            .map(|tenant| {
                let mut req = Request::targeted("register", &key(tenant));
                req.artifact = Some(artifact.clone());
                req
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        while stream.len() < 48 {
            stream.extend(random_requests(&mut rng, artifact));
        }
        let mut statuses = std::collections::BTreeSet::new();
        for (step, request) in stream.into_iter().enumerate() {
            statuses.insert(daemon.handle_request(request).status);
            let disk = DiskState {
                journal: std::fs::read(&journal_path).unwrap(),
                snapshot: None,
            };
            let (replayed, report) =
                Daemon::recover(config(), plant(&disk, &dir.join("replay"))).unwrap();
            prop_assert_eq!(report.replay_op_errors, 0, "step {}: {:?}", step, report);
            prop_assert_eq!(
                to_json(&replayed.snapshot()).unwrap(),
                to_json(&daemon.snapshot()).unwrap(),
                "replay diverged from the live registry at step {}",
                step
            );
        }
        prop_assert!(statuses.contains("error") && statuses.contains("shed"), "{:?}", statuses);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
