//! One tenant's full lvpd lifecycle over a real loopback socket.
//!
//! Trains a serving stack, bundles it into a [`ServingArtifact`], then
//! drives a live `lvpd` daemon end to end the way a serving system would:
//! `register` the deployment, `observe` full output batches and streamed
//! chunks, `finish` the window, page through `history`, scrape
//! deterministic `metrics`, and shut the daemon down cleanly over the
//! wire. Everything asserts, so CI can run it as a smoke test; the daemon
//! listens on an ephemeral port, so it never collides with another run.
//!
//! Run with `cargo run --release --example lvpd_demo`.

use lvp::prelude::*;
use lvp_core::ServingArtifact;
use lvp_server::{Client, Daemon, DaemonConfig, MonitorKey, Request, Server};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let mut rng = StdRng::seed_from_u64(4242);

    // --- Training side: fit the stack and bundle it --------------------
    println!("training model + performance predictor...");
    let df = lvp::datasets::heart(1_500, &mut rng);
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

    // --- Serving side: a live daemon on an ephemeral port ---------------
    let daemon = Arc::new(Daemon::new(DaemonConfig::default()));
    let server = Server::spawn(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    println!("lvpd listening on {addr}");
    let mut client = Client::connect(addr).unwrap();

    let key = MonitorKey {
        tenant: "acme".to_string(),
        model: "heart-risk".to_string(),
        version: "v1".to_string(),
    };
    let mut req = Request::targeted("register", &key);
    req.artifact = Some(artifact);
    let resp = client.call(&req).unwrap();
    assert!(resp.is_ok(), "register: {:?}", resp.message);
    println!("registered {}/{}/{}", key.tenant, key.model, key.version);

    // Observe three full serving batches: the tenant's model scores them
    // locally and ships only the output matrices to the daemon.
    let (first, rest) = serving.split_frac(0.33, &mut rng);
    let (second, third) = rest.split_frac(0.5, &mut rng);
    for (label, batch) in [("#0", &first), ("#1", &second)] {
        let proba = model.predict_proba(batch);
        let rows: Vec<Vec<f64>> = (0..proba.rows()).map(|i| proba.row(i).to_vec()).collect();
        let mut req = Request::targeted("observe", &key);
        req.outputs = Some(rows);
        let resp = client.call(&req).unwrap();
        assert!(resp.is_ok(), "observe {label}: {:?}", resp.message);
        let report = resp.report.unwrap();
        assert!(report.estimate.is_finite());
        println!(
            "batch {label}: estimated score {:.3} (alarm: {})",
            report.estimate, report.alarm
        );
    }

    // Stream the third batch as chunks instead, closing the window once
    // every chunk has arrived.
    let proba = model.predict_proba(&third);
    let rows: Vec<Vec<f64>> = (0..proba.rows()).map(|i| proba.row(i).to_vec()).collect();
    for chunk in rows.chunks(64) {
        let mut req = Request::targeted("observe", &key);
        req.chunk = Some(chunk.to_vec());
        let resp = client.call(&req).unwrap();
        assert!(resp.is_ok(), "chunk: {:?}", resp.message);
    }
    let resp = client.call(&Request::targeted("finish", &key)).unwrap();
    assert!(resp.is_ok(), "finish: {:?}", resp.message);
    let report = resp.report.unwrap();
    assert!(report.estimate.is_finite() && !report.degraded);
    println!("streamed batch #2: estimated score {:.3}", report.estimate);

    // Page through the retained history and scrape deterministic metrics.
    let mut req = Request::targeted("history", &key);
    req.limit = Some(2);
    req.offset = Some(1);
    let history = client.call(&req).unwrap().history.unwrap();
    assert_eq!(history.len(), 2);
    assert_eq!(history[0].batch_index, 1);
    println!("history page: batches {:?}", [1, 2]);

    let metrics = client
        .call(&Request::new("metrics"))
        .unwrap()
        .metrics
        .unwrap();
    let prefix = key.metric_prefix();
    assert_eq!(
        metrics
            .counters
            .get(&format!("{prefix}monitor.batches_observed")),
        Some(&3),
    );
    println!("metrics: {} counters exported", metrics.counters.len());

    // Clean shutdown over the wire.
    let resp = client.call(&Request::new("shutdown")).unwrap();
    assert!(resp.is_ok());
    drop(client);
    server.join();
    println!("daemon shut down cleanly; lvpd demo passed");
}
