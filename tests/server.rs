//! End-to-end tests for the lvpd daemon: two tenants over a real loopback
//! socket, interleaved verbs, queue-overflow shedding, deterministic
//! telemetry, and bit-identical registry persistence across a restart.

use lvp_core::{
    BatchMonitor, MonitorPolicy, PerformancePredictor, PredictorConfig, ServingArtifact,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_dataframe::toy_frame;
use lvp_models::{train_model, BlackBoxModel, BreakerConfig, ModelKind};
use lvp_server::{
    Client, Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, MonitorKey, Request, Response,
    Server,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

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
            failure_threshold: 3,
            cooldown_nanos: 5_000_000,
            half_open_successes: 1,
        },
        ..DaemonConfig::default()
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

fn key(tenant: &str) -> MonitorKey {
    MonitorKey {
        tenant: tenant.to_string(),
        model: "churn".to_string(),
        version: "v2".to_string(),
    }
}

fn durability(dir: &std::path::Path) -> DurabilityConfig {
    DurabilityConfig::in_dir_with_fsync(dir, FsyncPolicy::default())
}

/// Drives one full daemon lifetime over loopback on a durable daemon in
/// `state_dir`: registers two tenants, interleaves their traffic (including
/// bravo overrunning its chunk budget), saves the registry, scrapes
/// metrics, and shuts the daemon down. Returns the deterministic metrics
/// JSON and the registry-content JSON at shutdown.
fn run_session(artifact: &ServingArtifact, state_dir: &std::path::Path) -> (String, String) {
    let (daemon, _) = Daemon::recover(config(), durability(state_dir)).unwrap();
    let daemon = Arc::new(daemon);
    let server = Server::spawn(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();

    // Two tenants on two independent connections.
    let mut acme = Client::connect(addr).unwrap();
    let mut bravo = Client::connect(addr).unwrap();

    for (client, tenant) in [(&mut acme, "acme"), (&mut bravo, "bravo")] {
        let mut req = Request::targeted("register", &key(tenant));
        req.artifact = Some(artifact.clone());
        let resp = client.call(&req).unwrap();
        assert!(resp.is_ok(), "register {tenant}: {:?}", resp.message);
    }

    // Interleaved traffic. acme submits full output batches; bravo streams
    // chunks and overruns its in-flight budget (capacity 2).
    let mut req = Request::targeted("observe", &key("acme"));
    req.outputs = Some(chunk_rows(24, 0.0));
    let resp = acme.call(&req).unwrap();
    assert!(resp.is_ok());
    assert!(resp.report.as_ref().unwrap().estimate.is_finite());

    for round in 0..2 {
        let mut req = Request::targeted("observe", &key("bravo"));
        req.chunk = Some(chunk_rows(10, 0.05 * round as f64));
        let resp = bravo.call(&req).unwrap();
        assert!(resp.is_ok(), "bravo chunk {round}: {:?}", resp.message);
        assert_eq!(resp.pending_chunks, Some(round + 1));
    }

    // Third chunk exceeds the budget: shed with a retry-after hint, and
    // bravo's window is poisoned rather than silently short.
    let mut req = Request::targeted("observe", &key("bravo"));
    req.chunk = Some(chunk_rows(10, 0.2));
    let shed = bravo.call(&req).unwrap();
    assert!(shed.is_shed(), "expected shed, got {:?}", shed.status);
    assert!(shed.retry_after_nanos.unwrap() > 0);
    assert!(shed.message.unwrap().contains("budget"));

    // Shedding is per tenant: acme's traffic is unaffected.
    let mut req = Request::targeted("observe", &key("acme"));
    req.estimate = Some(0.74);
    assert!(acme.call(&req).unwrap().is_ok());

    // bravo's poisoned window finishes degraded — the shed is recorded in
    // monitor state, not dropped — and frees the budget.
    let resp = bravo
        .call(&Request::targeted("finish", &key("bravo")))
        .unwrap();
    assert!(resp.is_ok());
    let report = resp.report.unwrap();
    assert!(report.degraded && report.estimate.is_nan());
    assert_eq!(resp.pending_chunks, Some(0));

    // With the budget freed the very next chunk is accepted again, and a
    // clean window scores normally.
    let mut req = Request::targeted("observe", &key("bravo"));
    req.chunk = Some(chunk_rows(16, 0.0));
    assert!(bravo.call(&req).unwrap().is_ok());
    let resp = bravo
        .call(&Request::targeted("finish", &key("bravo")))
        .unwrap();
    assert!(resp.report.unwrap().estimate.is_finite());

    // Bounded history slicing.
    let mut req = Request::targeted("history", &key("bravo"));
    req.limit = Some(1);
    req.offset = Some(1);
    let resp = bravo.call(&req).unwrap();
    let history = resp.history.unwrap();
    assert_eq!(history.len(), 1);
    assert_eq!(history[0].batch_index, 1);

    // Leave an open in-flight window on acme: persistence must carry it.
    let mut req = Request::targeted("observe", &key("acme"));
    req.chunk = Some(chunk_rows(12, 0.0));
    assert!(acme.call(&req).unwrap().is_ok());

    assert!(acme.call(&Request::new("save")).unwrap().is_ok());

    let metrics = bravo
        .call(&Request::new("metrics"))
        .unwrap()
        .metrics
        .unwrap();
    let metrics_json = serde_json::to_string(&metrics).unwrap();

    // Clean shutdown through the wire.
    let resp = acme.call(&Request::new("shutdown")).unwrap();
    assert!(resp.is_ok());
    drop(acme);
    drop(bravo);
    server.join();
    (
        metrics_json,
        serde_json::to_string(&daemon.snapshot()).unwrap(),
    )
}

#[test]
fn two_tenants_end_to_end_with_shedding_persistence_and_determinism() {
    let dir = std::env::temp_dir().join(format!("lvpd-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let artifact = serving_artifact();

    // Two identical daemon lifetimes: the request sequence fully determines
    // telemetry (virtual clock, no wall time), so the deterministic
    // snapshots must be byte-identical, as must the saved registries.
    let (first_state, second_state) = (dir.join("run1"), dir.join("run2"));
    let (metrics_a, live_a) = run_session(&artifact, &first_state);
    let (metrics_b, _) = run_session(&artifact, &second_state);
    assert_eq!(metrics_a, metrics_b, "telemetry must be deterministic");
    assert_eq!(
        std::fs::read(durability(&first_state).snapshot_path()).unwrap(),
        std::fs::read(durability(&second_state).snapshot_path()).unwrap(),
        "saved registries of identical sessions must be byte-identical"
    );
    assert!(metrics_a.contains("tenant.bravo.server.shed_requests"));

    // Restart from the saved state: the restored registry reproduces the
    // live one bit-identically (open windows included) ...
    let (restored, report) = Daemon::recover(config(), durability(&first_state)).unwrap();
    assert!(report.snapshot_loaded && report.journal_bytes == 0);
    assert_eq!(
        serde_json::to_string(&restored.snapshot()).unwrap(),
        live_a,
        "restore must round-trip bit-identically"
    );

    // ... and acme's in-flight window survives the restart: one more chunk
    // and a finish complete it as if the daemon never restarted.
    let restored = Arc::new(restored);
    let server = Server::spawn(Arc::clone(&restored), "127.0.0.1:0").unwrap();
    let mut acme = Client::connect(server.local_addr()).unwrap();
    let resp = acme
        .call(&Request::targeted("finish", &key("acme")))
        .unwrap();
    assert!(resp.is_ok(), "finish after restart: {:?}", resp.message);
    let report = resp.report.unwrap();
    assert!(report.estimate.is_finite() && !report.degraded);
    drop(acme);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A serving artifact whose monitor runs the calibrated interval alarm
/// policy instead of a tuned threshold.
fn interval_serving_artifact() -> ServingArtifact {
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
    let monitor =
        BatchMonitor::new(predictor, MonitorPolicy::default().with_interval_alarm()).unwrap();
    ServingArtifact::from_monitor(&monitor)
}

/// Drives one interval-policy deployment over loopback: scored outputs and
/// externally supplied intervals flow in, calibrated intervals and interval
/// telemetry flow out, and malformed intervals are rejected without
/// consuming a batch index. Returns the deterministic metrics JSON.
fn run_interval_session(artifact: &ServingArtifact) -> String {
    let daemon = Arc::new(Daemon::new(config()));
    let server = Server::spawn(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let mut req = Request::targeted("register", &key("acme"));
    req.artifact = Some(artifact.clone());
    assert!(client.call(&req).unwrap().is_ok());

    // A scored output batch carries the daemon-computed interval.
    let mut req = Request::targeted("observe", &key("acme"));
    req.outputs = Some(chunk_rows(24, 0.0));
    let resp = client.call(&req).unwrap();
    assert!(resp.is_ok());
    let report = resp.report.unwrap();
    let interval = report.interval.expect("interval policy reports carry one");
    assert!(interval.validate().is_ok());
    assert!(interval.lo <= interval.point && interval.point <= interval.hi);
    assert_eq!(report.estimate.to_bits(), interval.point.to_bits());

    // An externally computed interval is accepted verbatim...
    let mut req = Request::targeted("observe", &key("acme"));
    req.interval = Some(lvp_core::ScoreInterval {
        point: 0.8,
        lo: 0.7,
        hi: 0.9,
        alpha: 0.1,
    });
    let resp = client.call(&req).unwrap();
    assert!(resp.is_ok());
    assert_eq!(resp.report.unwrap().interval.unwrap().lo, 0.7);
    assert_eq!(resp.batches_seen, Some(2));

    // ...but a malformed one is a hard error that consumes no batch index.
    for (bad, needle) in [
        (
            lvp_core::ScoreInterval {
                point: 0.8,
                lo: 0.9,
                hi: 0.7,
                alpha: 0.1,
            },
            "lo ≤ point ≤ hi",
        ),
        (
            lvp_core::ScoreInterval {
                point: f64::NAN,
                lo: 0.7,
                hi: 0.9,
                alpha: 0.1,
            },
            "all finite or all NaN",
        ),
    ] {
        let mut req = Request::targeted("observe", &key("acme"));
        req.interval = Some(bad);
        let resp = client.call(&req).unwrap();
        assert_eq!(resp.status, "error");
        assert!(
            resp.message.as_ref().unwrap().contains(needle),
            "{:?}",
            resp.message
        );
    }

    // A degraded (all-NaN) interval is quarantined, not rejected.
    let mut req = Request::targeted("observe", &key("acme"));
    req.interval = Some(lvp_core::ScoreInterval::degraded(0.1));
    let resp = client.call(&req).unwrap();
    assert!(resp.is_ok());
    let report = resp.report.unwrap();
    assert!(report.degraded && report.estimate.is_nan());
    assert_eq!(resp.batches_seen, Some(3));

    // Exactly one observe payload, interval included in the arity rule.
    let mut req = Request::targeted("observe", &key("acme"));
    req.estimate = Some(0.8);
    req.interval = Some(lvp_core::ScoreInterval {
        point: 0.8,
        lo: 0.7,
        hi: 0.9,
        alpha: 0.1,
    });
    let resp = client.call(&req).unwrap();
    assert_eq!(resp.status, "error");
    assert!(resp.message.unwrap().contains("exactly one"));

    // Interval telemetry is exported under the tenant prefix.
    let metrics = client
        .call(&Request::new("metrics"))
        .unwrap()
        .metrics
        .unwrap();
    let metrics_json = serde_json::to_string(&metrics).unwrap();
    assert!(metrics_json.contains("tenant.acme.churn.v2.monitor.interval_width"));
    assert!(metrics_json.contains("tenant.acme.churn.v2.monitor.coverage_violations"));

    assert!(client.call(&Request::new("shutdown")).unwrap().is_ok());
    drop(client);
    server.join();
    metrics_json
}

#[test]
fn interval_policy_deployments_serve_intervals_over_the_wire() {
    let artifact = interval_serving_artifact();
    // Identical sessions must produce byte-identical interval telemetry:
    // the calibrated interval pipeline adds no nondeterminism to the wire.
    let metrics_a = run_interval_session(&artifact);
    let metrics_b = run_interval_session(&artifact);
    assert_eq!(metrics_a, metrics_b);
}

/// A serialized `register` request for `tenant` whose artifact's first
/// forest tree has the node list `nodes`.
fn register_line_with_first_tree(tenant: &str, nodes: &str) -> String {
    let mut req = Request::targeted("register", &key(tenant));
    req.artifact = Some(serving_artifact());
    let json = serde_json::to_string(&req).unwrap();
    let trees = json.find("\"trees\":[").expect("forest in artifact");
    let start = trees + json[trees..].find("\"nodes\":[").unwrap() + "\"nodes\":".len();
    // Node objects hold no brackets, so the first `]` closes the list.
    let end = start + json[start..].find(']').unwrap() + 1;
    format!("{}{nodes}{}", &json[..start], &json[end..])
}

#[test]
fn register_rejects_forests_that_inference_cannot_walk() {
    let daemon = Daemon::new(DaemonConfig::default());
    let register = |tenant: &str, nodes: &str| -> Response {
        let line = register_line_with_first_tree(tenant, nodes);
        serde_json::from_str(&daemon.handle_line(&line)).unwrap()
    };
    let leaf = r#"{"Leaf":{"value":0.5}}"#;
    // A sound one-leaf tree registers, so each rejection below is down to
    // its crafted tree.
    let resp = register("sound", &format!("[{leaf}]"));
    assert_eq!(resp.status, "ok", "{:?}", resp.message);
    let crafted = [
        // A split whose children point back at itself: inference would loop.
        r#"[{"Split":{"feature":0,"threshold":0.5,"left":0,"right":0}}]"#.to_string(),
        // Children past the node list.
        r#"[{"Split":{"feature":0,"threshold":0.5,"left":1,"right":7}}]"#.to_string(),
        // A split on feature 42 of the 21·2 = 42 percentile features.
        format!(
            r#"[{{"Split":{{"feature":42,"threshold":0.5,"left":1,"right":2}}}},{leaf},{leaf}]"#
        ),
        // No nodes at all.
        "[]".to_string(),
    ];
    for (i, nodes) in crafted.iter().enumerate() {
        let resp = register(&format!("crafted{i}"), nodes);
        assert_eq!(resp.status, "error", "{nodes} registered");
    }
}
