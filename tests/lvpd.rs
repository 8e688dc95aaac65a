//! Drives the `lvpd` binary end to end: a durable daemon started on a
//! state directory that does not exist yet keeps a deployment across a
//! restart, and malformed command lines exit non-zero with the usage text
//! instead of starting a daemon.

use lvp_core::{
    BatchMonitor, MonitorPolicy, PerformancePredictor, PredictorConfig, ServingArtifact,
};
use lvp_corruptions::standard_tabular_suite;
use lvp_dataframe::toy_frame;
use lvp_models::{train_model, BlackBoxModel, ModelKind};
use lvp_server::{Client, MonitorKey, Request};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn key() -> MonitorKey {
    MonitorKey {
        tenant: "acme".to_string(),
        model: "churn".to_string(),
        version: "v2".to_string(),
    }
}

/// A running `lvpd`, killed on drop if a failed assertion leaves it up.
struct Lvpd {
    child: Child,
    addr: SocketAddr,
}

impl Lvpd {
    /// Starts `lvpd` on an ephemeral port with `state_dir` and reads the
    /// address it prints.
    fn start(state_dir: &Path) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_lvpd"))
            .args(["--addr", "127.0.0.1:0", "--state-dir"])
            .arg(state_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("lvpd binary runs");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .trim()
            .strip_prefix("lvpd listening on ")
            .unwrap_or_else(|| panic!("unexpected first line: {line:?}"))
            .parse()
            .unwrap();
        Self { child, addr }
    }

    /// Sends `shutdown` and returns the daemon's stderr once it has exited
    /// successfully.
    fn shutdown(mut self, client: &mut Client) -> String {
        assert!(client.call(&Request::new("shutdown")).unwrap().is_ok());
        assert!(self.child.wait().unwrap().success());
        let mut stderr = String::new();
        self.child
            .stderr
            .take()
            .unwrap()
            .read_to_string(&mut stderr)
            .unwrap();
        stderr
    }
}

impl Drop for Lvpd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn a_durable_lvpd_keeps_its_deployments_across_a_restart() {
    let root = std::env::temp_dir().join(format!("lvpd-bin-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let state_dir = root.join("state");

    let daemon = Lvpd::start(&state_dir);
    let mut client = Client::connect(daemon.addr).unwrap();
    let mut req = Request::targeted("register", &key());
    req.artifact = Some(serving_artifact());
    assert!(client.call(&req).unwrap().is_ok());
    for estimate in [0.8, 0.7] {
        let mut req = Request::targeted("observe", &key());
        req.estimate = Some(estimate);
        assert!(client.call(&req).unwrap().is_ok());
    }
    daemon.shutdown(&mut client);
    assert!(state_dir.join("registry.json").is_file());

    let daemon = Lvpd::start(&state_dir);
    let mut client = Client::connect(daemon.addr).unwrap();
    let listed = client.call(&Request::new("list")).unwrap();
    assert_eq!(listed.deployments, Some(vec![key()]));
    let history = client.call(&Request::targeted("history", &key())).unwrap();
    assert_eq!(history.batches_seen, Some(2));
    let stderr = daemon.shutdown(&mut client);
    assert!(
        stderr.contains("recovered 1 deployments from snapshot=yes"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// Runs `lvpd` with `args`, killing it if it is still up after ten
/// seconds. Returns whether it exited successfully, and its stderr.
fn run_briefly(args: &[&str]) -> (bool, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lvpd"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lvpd binary runs");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break Some(status);
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    (status.is_some_and(|s| s.success()), stderr)
}

#[test]
fn lvpd_rejects_unknown_flags_missing_values_and_bad_counts() {
    let bad: [&[&str]; 8] = [
        &["--addr", "127.0.0.1:0", "--jornal", "x"],
        &["--addr", "127.0.0.1:0", "--state-dir"],
        &["--state-dir", "--addr", "127.0.0.1:0"],
        &["--addr", "127.0.0.1:0", "--queue-capacity", "lots"],
        &["--addr", "127.0.0.1:0", "--tick", "-1"],
        &["--addr", "127.0.0.1:0", "--state", "registry.json"],
        &["--addr", "127.0.0.1:0", "--journal", "observe.journal"],
        &["--addr", "127.0.0.1:0", "--fsync", "never"],
    ];
    for args in bad {
        let (ok, stderr) = run_briefly(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains("USAGE:"), "{args:?}: {stderr}");
    }
    let (ok, _) = run_briefly(&["--help"]);
    assert!(ok, "--help exits successfully");
}
