//! Adversarial lvpd request lines and the JSON reader behind them.
//!
//! - A seeded mutation fuzzer over a valid line of every verb: every
//!   mutated line gets exactly one JSON response line with a known status,
//!   and the daemon's state equals a replay of the lines it accepted.
//! - Deep nesting is a typed error on a default-sized thread, and a server
//!   keeps answering after such a line.
//! - Escaped surrogate pairs decode to one character.
//! - A differential golden, `tests/golden/json_reads.txt`: for every
//!   request line (mutated ones included), the v1 state fixture and a
//!   saved artifact of each kind, whether the text parses, and the
//!   checksum of what it parses to, written back out. It was recorded
//!   before deserialization read straight from the text, so it pins that
//!   the reader accepts, rejects and decodes exactly what the old parser
//!   did.

use lvp_core::{
    checksum64, unwrap_envelope, MonitorArtifact, PredictorArtifact, ServingArtifact,
    ValidatorArtifact,
};
use lvp_server::{
    encode_record, Daemon, DaemonConfig, JournalRecord, MonitorKey, RegistrySnapshot, Request,
    Response, Server,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// Nesting the golden may hold: deeper lines are rejected by the reader's
/// depth limit, which the parser the golden was recorded with lacked.
const GOLDEN_MAX_NESTING: usize = 128;

fn fixture(path: &str) -> Vec<u8> {
    std::fs::read(format!("{FIXTURES}/{path}")).unwrap()
}

fn key() -> MonitorKey {
    MonitorKey {
        tenant: "acme".into(),
        model: "churn".into(),
        version: "v1".into(),
    }
}

fn rows(n: usize, shift: f64) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| {
            let p = (0.1 + shift + 0.8 * (i as f64 / n as f64)).clamp(0.01, 0.99);
            vec![p, 1.0 - p]
        })
        .collect()
}

/// A valid line of every verb, labelled, in an order that serves them all.
fn base_lines() -> Vec<(&'static str, String)> {
    let artifact = String::from_utf8(fixture("artifacts/serving.json")).unwrap();
    let targeted = |verb: &str, fill: &dyn Fn(&mut Request)| {
        let mut req = Request::targeted(verb, &key());
        fill(&mut req);
        serde_json::to_string(&req).unwrap()
    };
    vec![
        (
            "register",
            format!(
                r#"{{"verb":"register","tenant":"acme","model":"churn","version":"v1","artifact":{artifact}}}"#
            ),
        ),
        (
            "observe_outputs",
            targeted("observe", &|r| r.outputs = Some(rows(12, 0.0))),
        ),
        (
            "observe_chunk",
            targeted("observe", &|r| r.chunk = Some(rows(6, 0.05))),
        ),
        ("finish", targeted("finish", &|_| {})),
        (
            "observe_estimate",
            targeted("observe", &|r| r.estimate = Some(0.8125)),
        ),
        (
            "observe_interval",
            targeted("observe", &|r| {
                r.interval = Some(lvp_core::ScoreInterval {
                    point: 0.8,
                    lo: 0.7,
                    hi: 0.9,
                    alpha: 0.1,
                })
            }),
        ),
        (
            "history",
            targeted("history", &|r| {
                r.limit = Some(3);
                r.offset = Some(1)
            }),
        ),
        ("metrics", r#"{"verb":"metrics"}"#.to_string()),
        ("list", r#"{"verb":"list"}"#.to_string()),
        ("save", r#"{"verb":"save"}"#.to_string()),
        ("shutdown", r#"{"verb":"shutdown"}"#.to_string()),
    ]
}

/// Nested empty arrays, `depth` deep.
fn nested(depth: usize) -> String {
    format!("{}{}", "[".repeat(depth), "]".repeat(depth))
}

/// Seeded mutations of one line, labelled by kind, with the nesting depth
/// of the deep ones (0 for the rest).
fn mutations(line: &str, rng: &mut StdRng) -> Vec<(String, String, usize)> {
    const BYTES: &[u8] = b"{}[]\",:0123456789-+.eEnul\\ \xff";
    let bytes = line.as_bytes();
    let at = |rng: &mut StdRng| rng.gen_range(0..bytes.len());
    let text = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    let mut out = Vec::new();
    for i in 0..4 {
        let mut b = bytes.to_vec();
        let pos = at(rng);
        b[pos] = BYTES[rng.gen_range(0..BYTES.len())];
        out.push((format!("flip{i}"), text(b), 0));
    }
    for i in 0..3 {
        let mut b = bytes.to_vec();
        let pos = at(rng);
        let end = (pos + rng.gen_range(1..9)).min(b.len());
        b.drain(pos..end);
        out.push((format!("delete{i}"), text(b), 0));
    }
    for i in 0..2 {
        out.push((format!("truncate{i}"), text(bytes[..at(rng)].to_vec()), 0));
    }
    for i in 0..2 {
        let pos = at(rng);
        let end = (pos + rng.gen_range(1..33)).min(bytes.len());
        let mut b = bytes[..end].to_vec();
        b.extend_from_slice(&bytes[pos..]);
        out.push((format!("duplicate{i}"), text(b), 0));
    }
    // A huge exponent on the first number at or after a random offset.
    for (i, exponent) in ["e999999999", "e-400", "e308"].into_iter().enumerate() {
        let from = at(rng);
        if let Some(pos) = bytes[from..].iter().position(u8::is_ascii_digit) {
            let pos = from + pos;
            let mut b = bytes[..=pos].to_vec();
            b.extend_from_slice(exponent.as_bytes());
            b.extend_from_slice(&bytes[pos + 1..]);
            out.push((format!("exponent{i}"), text(b), 0));
        }
    }
    // Deep nesting inside the line's object, balanced under an unknown
    // key and unbalanced in place of a value.
    let body = line.strip_suffix('}').unwrap_or(line);
    let colon = line.find(':').map_or(0, |c| c + 1);
    for arrays in [16, 127, 128, 100_000] {
        out.push((
            format!("nest{arrays}"),
            format!(r#"{body},"deep":{}}}"#, nested(arrays)),
            arrays + 1,
        ));
        out.push((
            format!("open{arrays}"),
            format!("{}{}", &line[..colon], "[".repeat(arrays)),
            arrays + 1,
        ));
    }
    out
}

/// Every base line and its mutations, with the nesting depth of the deep
/// ones.
fn request_lines() -> Vec<(String, String, usize)> {
    let mut rng = StdRng::seed_from_u64(34);
    let mut out = Vec::new();
    for (label, line) in base_lines() {
        out.push((label.to_string(), line.clone(), 0));
        for (kind, mutated, depth) in mutations(&line, &mut rng) {
            out.push((format!("{label}~{kind}"), mutated, depth));
        }
    }
    out
}

fn config() -> DaemonConfig {
    // Room for every chunk, so nothing is shed and the replay below sees
    // the same admission decisions.
    DaemonConfig {
        queue_capacity: 1 << 16,
        ..DaemonConfig::default()
    }
}

fn state_digest(daemon: &Daemon) -> u64 {
    checksum64(
        serde_json::to_string(&daemon.snapshot())
            .unwrap()
            .as_bytes(),
    )
}

/// Panics unless every score `request` carries is one a model emits: each
/// output and chunk value in `[0, 1]`, and the estimate and the interval
/// bounds in `[0, 1]` or NaN (a degraded batch).
fn assert_scores_in_unit_range(label: &str, request: &Request) {
    let unit = |v: f64| (0.0..=1.0).contains(&v);
    let rows = request.outputs.iter().chain(&request.chunk).flatten();
    assert!(rows.flatten().all(|&v| unit(v)), "{label}: {request:?}");
    let mut scores: Vec<f64> = request.estimate.into_iter().collect();
    if let Some(iv) = request.interval {
        scores.extend([iv.lo, iv.point, iv.hi]);
    }
    assert!(
        scores.iter().all(|&v| v.is_nan() || unit(v)),
        "{label}: {request:?}"
    );
}

#[test]
fn mutated_request_lines_get_one_response_and_replay_to_the_same_state() {
    let daemon = Daemon::new(config());
    let mut accepted = Vec::new();
    let mut statuses = std::collections::BTreeMap::<String, usize>::new();
    // Each base line runs before its mutations, so mutated observes find
    // a registered deployment.
    for (label, line, _) in request_lines() {
        let response = daemon.handle_line(&line);
        assert!(!response.contains('\n'), "{label}: {response}");
        let parsed: Response = serde_json::from_str(&response)
            .unwrap_or_else(|e| panic!("{label}: response {response} does not parse: {e}"));
        assert!(
            ["ok", "error"].contains(&parsed.status.as_str()),
            "{label}: status {}",
            parsed.status
        );
        if parsed.is_ok() {
            if let Ok(request) = serde_json::from_str::<Request>(&line) {
                assert_scores_in_unit_range(&label, &request);
            }
            accepted.push(line);
        }
        *statuses.entry(parsed.status).or_default() += 1;
    }
    assert!(
        statuses["ok"] > 20 && statuses["error"] > 100,
        "{statuses:?}"
    );

    let replay = Daemon::new(config());
    for line in &accepted {
        assert!(serde_json::from_str::<Response>(&replay.handle_line(line))
            .unwrap()
            .is_ok());
    }
    assert_eq!(state_digest(&replay), state_digest(&daemon));
    assert!(!daemon.snapshot().deployments.is_empty());
}

/// A line nested 100,000 arrays deep, under a key `Request` ignores.
fn deep_line() -> String {
    format!(r#"{{"verb":"metrics","x":{}"#, "[".repeat(100_000))
}

#[test]
fn deeply_nested_line_is_an_error_on_a_default_thread() {
    let daemon = Arc::new(Daemon::new(config()));
    let handler = Arc::clone(&daemon);
    let response = std::thread::spawn(move || handler.handle_line(&deep_line()))
        .join()
        .unwrap();
    let response: Response = serde_json::from_str(&response).unwrap();
    assert_eq!(response.status, "error");
    assert!(response
        .message
        .unwrap()
        .contains("recursion limit exceeded"),);

    // Over the wire, the connection that sent it gets the error and the
    // next connection is still served.
    let server = Server::spawn(Arc::clone(&daemon), "127.0.0.1:0").unwrap();
    let call = |line: &str| {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut response = String::new();
        BufReader::new(stream).read_line(&mut response).unwrap();
        serde_json::from_str::<Response>(&response).unwrap()
    };
    assert_eq!(call(&deep_line()).status, "error");
    assert!(call(r#"{"verb":"list"}"#).is_ok());
    server.shutdown();
}

#[test]
fn escaped_surrogate_pairs_decode_to_one_char() {
    // What Python's `json.dumps` sends for a tenant named "🦀".
    let line = r#"{"verb":"finish","tenant":"\ud83e\udd80","model":"m","version":"v"}"#;
    let request: Request = serde_json::from_str(line).unwrap();
    assert_eq!(request.tenant.as_deref(), Some("🦀"));
    let lone: Request = serde_json::from_str(&line.replace(r"\udd80", "")).unwrap();
    assert_eq!(lone.tenant.as_deref(), Some("\u{fffd}"));
}

/// One golden line per input and type: `<label> <type> ok <checksum>` or
/// `<label> <type> err`.
fn golden_line<T: Deserialize>(label: &str, text: &str, write: impl Fn(&T) -> Vec<u8>) -> String {
    let type_name = std::any::type_name::<T>().rsplit("::").next().unwrap();
    match serde_json::from_str::<T>(text) {
        Ok(value) => format!("{label} {type_name} ok {:016x}", checksum64(&write(&value))),
        Err(_) => format!("{label} {type_name} err"),
    }
}

fn json<T: Serialize>(value: &T) -> Vec<u8> {
    serde_json::to_string(value).unwrap().into_bytes()
}

/// Typed and untyped reads of `text`.
fn golden_pair<T: Deserialize + Serialize>(label: &str, text: &str) -> [String; 2] {
    [
        golden_line::<T>(label, text, json),
        golden_line::<Value>(label, text, json),
    ]
}

fn golden() -> String {
    let mut lines = Vec::new();
    for (label, line, depth) in request_lines() {
        if depth <= GOLDEN_MAX_NESTING {
            lines.extend(golden_pair::<Request>(&label, &line));
        }
    }

    let registry = fixture("v1_state/registry.json");
    let registry = std::str::from_utf8(unwrap_envelope(&registry).unwrap()).unwrap();
    lines.extend(golden_pair::<RegistrySnapshot>(
        "v1_state/registry.json",
        registry,
    ));
    // Journal frames: magic (4 bytes), payload length (u32 LE), checksum
    // (8 bytes), payload.
    let journal = fixture("v1_state/observe.journal");
    let mut rest = &journal[..];
    let mut index = 0;
    while rest.len() >= 16 {
        let len = u32::from_le_bytes(rest[4..8].try_into().unwrap()) as usize;
        let payload = std::str::from_utf8(&rest[16..16 + len]).unwrap();
        let label = format!("v1_state/observe.journal#{index}");
        lines.push(golden_line::<JournalRecord>(&label, payload, |r| {
            encode_record(r.epoch, &r.op).unwrap()
        }));
        lines.push(golden_line::<Value>(&label, payload, json));
        rest = &rest[16 + len..];
        index += 1;
    }
    assert_eq!(index, 21, "journal fixture holds 21 records");

    let artifact = |name: &str| String::from_utf8(fixture(&format!("artifacts/{name}"))).unwrap();
    lines.extend(golden_pair::<PredictorArtifact>(
        "artifacts/predictor.json",
        &artifact("predictor.json"),
    ));
    lines.extend(golden_pair::<ValidatorArtifact>(
        "artifacts/validator.json",
        &artifact("validator.json"),
    ));
    lines.extend(golden_pair::<MonitorArtifact>(
        "artifacts/monitor.json",
        &artifact("monitor.json"),
    ));
    lines.extend(golden_pair::<ServingArtifact>(
        "artifacts/serving.json",
        &artifact("serving.json"),
    ));
    lines.join("\n") + "\n"
}

#[test]
fn json_reads_match_the_golden() {
    let expected = String::from_utf8(fixture("../golden/json_reads.txt")).unwrap();
    let actual = golden();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
