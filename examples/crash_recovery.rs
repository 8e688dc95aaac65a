//! Crash and recover a durable lvpd registry, end to end.
//!
//! Trains a serving stack, registers it with a daemon configured for
//! durability (checksummed snapshot + write-ahead observe journal), and
//! drives traffic — batches, streamed chunks, an overflowing tenant whose
//! chunk is shed, and a compacting `save`. Then it simulates a crash the
//! nasty way: the process state is dropped on the floor and the journal
//! file is torn mid-record, as if the machine died during an append.
//! Recovery classifies and truncates the damaged tail, replays the
//! durable records over the snapshot, and reproduces the registry
//! **bit-identically** up to the last durable record; re-submitting the
//! one unacknowledged observe lands the registry exactly on the pre-crash
//! state. Everything asserts, and every printed line is deterministic, so
//! CI diffs this output across thread counts.
//!
//! Run with `cargo run --release --example crash_recovery`.

use lvp::prelude::*;
use lvp_core::{checksum64, to_json, ServingArtifact};
use lvp_server::{Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, MonitorKey, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn estimate_request(key: &MonitorKey, estimate: f64) -> Request {
    let mut req = Request::targeted("observe", key);
    req.estimate = Some(estimate);
    req
}

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);

    // --- Training side: fit the stack and bundle it --------------------
    println!("training model + performance predictor...");
    let df = lvp::datasets::heart(900, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.75, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(lvp::models::train_model(ModelKind::Lr, &train, &mut rng).unwrap());
    let errors = lvp::corruptions::standard_tabular_suite(test.schema());
    let predictor = PerformancePredictor::fit(
        Arc::clone(&model),
        &test,
        &errors,
        &PredictorConfig::fast(),
        &mut rng,
    )
    .unwrap();
    let monitor = BatchMonitor::new(predictor, MonitorPolicy::default()).unwrap();
    let artifact = ServingArtifact::from_monitor(&monitor);

    // --- A durable daemon: snapshot + write-ahead journal ---------------
    let dir = std::env::temp_dir().join(format!("lvpd-crash-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityConfig::in_dir_with_fsync(&dir, FsyncPolicy::Always);
    let journal_path = durability.journal_path();
    let config = DaemonConfig {
        queue_capacity: 2,
        ..DaemonConfig::default()
    };
    let (daemon, report) = Daemon::recover(config, durability.clone()).unwrap();
    assert!(!report.snapshot_loaded);
    println!("durable daemon up (journal fsync=always)");

    let key = MonitorKey {
        tenant: "acme".to_string(),
        model: "heart-risk".to_string(),
        version: "v1".to_string(),
    };
    let mut req = Request::targeted("register", &key);
    req.artifact = Some(artifact);
    assert!(daemon.handle_request(req).is_ok());
    println!("registered {key}");

    // Full output batches, journaled before they are applied.
    let proba = model.predict_proba(&serving);
    let rows: Vec<Vec<f64>> = (0..proba.rows()).map(|i| proba.row(i).to_vec()).collect();
    for (label, slice) in [("#0", &rows[..140]), ("#1", &rows[140..280])] {
        let mut req = Request::targeted("observe", &key);
        req.outputs = Some(slice.to_vec());
        let resp = daemon.handle_request(req);
        assert!(resp.is_ok(), "observe {label}: {:?}", resp.message);
        println!(
            "batch {label}: estimated score {:.3}",
            resp.report.unwrap().estimate
        );
    }

    // Stream a window, overflow the 2-chunk budget (the shed is journaled
    // as its window-poisoning effect), finish degraded, then recover with
    // a clean window.
    for chunk in rows[280..].chunks(60).take(3) {
        let mut req = Request::targeted("observe", &key);
        req.chunk = Some(chunk.to_vec());
        let resp = daemon.handle_request(req);
        if resp.is_shed() {
            println!("chunk shed: {}", resp.message.unwrap());
        }
    }
    let resp = daemon.handle_request(Request::targeted("finish", &key));
    assert!(resp.report.as_ref().unwrap().degraded);
    println!("overflowed window finished degraded (shed, not dropped)");

    // Compact: snapshot the registry and truncate the journal.
    let resp = daemon.handle_request(Request::new("save"));
    assert!(resp.is_ok(), "save: {:?}", resp.message);
    assert!(resp.message.unwrap().contains("journal compacted"));
    println!("compacting save: snapshot written, journal truncated");

    // Post-compaction traffic; every record is fsynced before the ack.
    for i in 0..6 {
        assert!(daemon
            .handle_request(estimate_request(&key, 0.55 + 0.01 * i as f64))
            .is_ok());
    }
    let durable_state = to_json(&daemon.snapshot()).unwrap();
    // One more observe is acknowledged...
    assert!(daemon.handle_request(estimate_request(&key, 0.42)).is_ok());
    let final_state = to_json(&daemon.snapshot()).unwrap();

    // --- The crash -------------------------------------------------------
    // The process dies: in-memory state vanishes, and the last journal
    // append is torn seven bytes short, as a real crash mid-write would.
    drop(daemon);
    let journal = std::fs::read(&journal_path).unwrap();
    std::fs::write(&journal_path, &journal[..journal.len() - 7]).unwrap();
    println!("simulated crash: process gone, journal torn mid-record");

    // --- Recovery --------------------------------------------------------
    let (recovered, report) = Daemon::recover(config, durability.clone()).unwrap();
    println!("recovery: {}", report.summary());
    assert_eq!(report.tail_defect.as_deref(), Some("torn record payload"));
    // The whole partial record is truncated, not just the seven cut bytes.
    assert!(report.truncated_tail_bytes > 7);
    let recovered_state = to_json(&recovered.snapshot()).unwrap();
    assert_eq!(recovered_state, durable_state);
    println!(
        "registry fingerprint {:016x} matches the last durable boundary",
        checksum64(recovered_state.as_bytes())
    );

    // The torn record's observe was never acknowledged; re-submitting it
    // lands the registry exactly on the pre-crash state.
    assert!(recovered
        .handle_request(estimate_request(&key, 0.42))
        .is_ok());
    assert_eq!(to_json(&recovered.snapshot()).unwrap(), final_state);
    println!(
        "re-submitted the unacknowledged observe: fingerprint {:016x} matches pre-crash state",
        checksum64(final_state.as_bytes())
    );

    // Shutdown compacts: final snapshot written, journal truncated...
    recovered.request_shutdown();
    drop(recovered);
    assert_eq!(std::fs::metadata(&journal_path).unwrap().len(), 0);
    let (restarted, report) = Daemon::recover(config, durability.clone()).unwrap();
    assert!(report.snapshot_loaded && report.journal_bytes == 0);
    assert_eq!(to_json(&restarted.snapshot()).unwrap(), final_state);
    drop(restarted);
    // ...and the snapshot restores standalone: a directory holding only
    // it recovers the pre-crash state.
    std::fs::remove_file(&journal_path).unwrap();
    let (standalone, report) = Daemon::recover(config, durability).unwrap();
    assert!(report.snapshot_loaded && report.journal_bytes == 0);
    assert_eq!(to_json(&standalone.snapshot()).unwrap(), final_state);
    println!("shutdown compacted the journal; snapshot restores standalone");

    let _ = std::fs::remove_dir_all(&dir);
    println!("crash recovery example passed");
}
