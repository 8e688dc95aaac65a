//! A differential golden of the JSON writer, `tests/golden/json_writes.txt`.
//!
//! For every value below, written compact and pretty, the golden holds
//! the length and checksum of the text, and the text itself when it is
//! short. It was recorded with the writer that rendered a `Value` tree
//! first, before `Serialize` wrote JSON text directly, so it pins that
//! the streaming writer emits exactly the bytes the old one did: the
//! saved artifacts, a registry snapshot, daemon responses and request
//! lines, a telemetry snapshot, edge-case numbers and strings, and empty
//! containers.

use lvp_core::{checksum64, ScoreInterval, ServingArtifact};
use lvp_server::{Daemon, DaemonConfig, MonitorKey, Request, Response};
use serde::{Serialize, Value};
use std::collections::{BTreeMap, HashMap};

const FIXTURES: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures");

/// Texts up to this many bytes are spelled out in the golden.
const INLINE_MAX: usize = 160;

fn fixture(path: &str) -> String {
    std::fs::read_to_string(format!("{FIXTURES}/{path}")).unwrap()
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

/// The golden lines of `value`: `<label> <mode> <bytes> <checksum>`, then
/// the text (newlines shown as `⏎`) when it is short.
fn lines_of<T: Serialize + ?Sized>(label: &str, value: &T, out: &mut Vec<String>) {
    for (mode, text) in [
        ("compact", serde_json::to_string(value)),
        ("pretty", serde_json::to_string_pretty(value)),
    ] {
        let text = text.unwrap_or_else(|e| panic!("{label} {mode}: {e}"));
        let mut line = format!(
            "{label} {mode} {} {:016x}",
            text.len(),
            checksum64(text.as_bytes())
        );
        if text.len() <= INLINE_MAX {
            line.push(' ');
            line.push_str(&text.replace('\n', "⏎"));
        }
        out.push(line);
    }
}

/// A daemon's response line to `line`, read back into a `Response`.
fn respond(daemon: &Daemon, line: &str) -> Response {
    serde_json::from_str(&daemon.handle_line(line)).unwrap()
}

fn golden() -> String {
    let mut out = Vec::new();

    // The saved artifacts, read and written back.
    let serving: ServingArtifact =
        serde_json::from_str(&fixture("artifacts/serving.json")).unwrap();
    for name in ["monitor", "predictor", "serving", "validator"] {
        let text = fixture(&format!("artifacts/{name}.json"));
        let value: Value = serde_json::from_str(&text).unwrap();
        lines_of(&format!("artifacts/{name}.json"), &value, &mut out);
    }
    lines_of("artifacts/serving.json:typed", &serving, &mut out);

    // Request lines of every form.
    let targeted = |verb: &str, fill: &dyn Fn(&mut Request)| {
        let mut req = Request::targeted(verb, &key());
        fill(&mut req);
        req
    };
    let requests = [
        (
            "register",
            targeted("register", &|r| r.artifact = Some(serving.clone())),
        ),
        (
            "observe_outputs",
            targeted("observe", &|r| r.outputs = Some(rows(12, 0.0))),
        ),
        (
            "observe_chunk",
            targeted("observe", &|r| r.chunk = Some(rows(6, 0.05))),
        ),
        (
            "observe_estimate",
            targeted("observe", &|r| r.estimate = Some(0.8125)),
        ),
        (
            "observe_estimate_nan",
            targeted("observe", &|r| r.estimate = Some(f64::NAN)),
        ),
        (
            "observe_interval",
            targeted("observe", &|r| {
                r.interval = Some(ScoreInterval {
                    point: 0.8,
                    lo: 0.7,
                    hi: 0.9,
                    alpha: 0.1,
                })
            }),
        ),
        ("finish", targeted("finish", &|_| {})),
        (
            "history",
            targeted("history", &|r| {
                r.limit = Some(16);
                r.offset = Some(0)
            }),
        ),
        ("metrics", Request::new("metrics")),
    ];
    for (label, request) in &requests {
        lines_of(&format!("request/{label}"), request, &mut out);
    }

    // Responses, from a daemon served the requests above and 16 batches.
    let daemon = Daemon::new(DaemonConfig::default());
    let line = |req: &Request| serde_json::to_string(req).unwrap();
    let register = respond(&daemon, &line(&requests[0].1));
    assert!(register.is_ok(), "{register:?}");
    lines_of("response/register", &register, &mut out);
    for i in 0..16 {
        let req = targeted("observe", &|r| {
            r.outputs = Some(rows(8 + i, 0.01 * i as f64))
        });
        let report = respond(&daemon, &line(&req));
        assert!(report.report.is_some(), "{report:?}");
        if i == 0 {
            lines_of("response/report", &report, &mut out);
        }
    }
    let history = respond(&daemon, &line(&requests[7].1));
    assert_eq!(history.history.as_ref().map(Vec::len), Some(16));
    lines_of("response/history16", &history, &mut out);
    let metrics = respond(&daemon, &line(&requests[8].1));
    let telemetry = metrics.metrics.clone().unwrap();
    lines_of("response/metrics", &metrics, &mut out);
    lines_of("telemetry", &telemetry, &mut out);
    lines_of(
        "telemetry/deterministic",
        &telemetry.deterministic(),
        &mut out,
    );
    lines_of("registry", &daemon.snapshot(), &mut out);
    lines_of("response/ok", &Response::ok(), &mut out);
    lines_of(
        "response/shed",
        &Response::shed(1_500, "tenant acme: queue full"),
        &mut out,
    );
    lines_of(
        "response/error",
        &respond(&daemon, r#"{"verb":"nope"}"#),
        &mut out,
    );
    lines_of(
        "response/list",
        &respond(&daemon, r#"{"verb":"list"}"#),
        &mut out,
    );

    // Edge-case numbers.
    let two53 = 1u64 << 53;
    let floats = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE / 3.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        1.0 / 3.0,
        -123456.789,
        1e21,
        1e-7,
        1e15 + 0.3,
        two53 as f64,
        two53 as f64 + 2.0,
    ];
    for (i, x) in floats.iter().enumerate() {
        lines_of(&format!("f64/{i}"), x, &mut out);
    }
    lines_of("f64/all", &floats[..], &mut out);
    lines_of(
        "f32",
        &vec![0.1f32, -2.5, f32::MAX, f32::NAN, 1e-40],
        &mut out,
    );
    lines_of("u64/2^53-1", &(two53 - 1), &mut out);
    lines_of("u64/2^53", &two53, &mut out);
    lines_of("i64/-2^53", &-(two53 as i64), &mut out);
    lines_of("i64/-(2^53-1)", &(1 - two53 as i64), &mut out);
    lines_of("u8/max", &u8::MAX, &mut out);
    lines_of("i8/min", &i8::MIN, &mut out);
    lines_of("u32/max", &u32::MAX, &mut out);
    lines_of("i32/min", &i32::MIN, &mut out);
    lines_of("usize/0", &0usize, &mut out);
    lines_of("isize/-1", &-1isize, &mut out);
    lines_of(
        "options",
        &vec![Some(1u32), None, Some(0), Some(u32::MAX)],
        &mut out,
    );
    lines_of("bools", &[true, false][..], &mut out);

    // Strings that need escaping, as values and as map keys.
    let strings = [
        "",
        "plain",
        "quote \" and back\\slash",
        "\u{1} and \u{1f}",
        "tab\there\r\nline",
        "\u{8}\u{c}\u{7f}/",
        "héllo wörld — 日本語",
        "crab 🦀 and ✓",
        "\"\\\"",
    ];
    for (i, s) in strings.iter().enumerate() {
        lines_of(&format!("str/{i}"), *s, &mut out);
    }
    lines_of("str/owned", &strings.map(String::from).to_vec(), &mut out);
    let btree: BTreeMap<String, f64> = strings
        .iter()
        .enumerate()
        .map(|(i, s)| (s.to_string(), i as f64 - 0.5))
        .collect();
    lines_of("btreemap/keys", &btree, &mut out);
    let hash: HashMap<String, Vec<u32>> = strings
        .iter()
        .enumerate()
        .map(|(i, s)| (s.to_string(), (0..i as u32).collect()))
        .collect();
    lines_of("hashmap/keys", &hash, &mut out);

    // Empty and nested containers.
    lines_of("empty/vec", &Vec::<f64>::new(), &mut out);
    lines_of("empty/btreemap", &BTreeMap::<String, u8>::new(), &mut out);
    lines_of("empty/hashmap", &HashMap::<String, u8>::new(), &mut out);
    lines_of(
        "empty/nested",
        &vec![vec![], vec![Vec::<u8>::new()], vec![vec![], vec![7]]],
        &mut out,
    );
    let empty_maps: BTreeMap<String, BTreeMap<String, Vec<f64>>> = [
        ("a".to_string(), BTreeMap::new()),
        ("b".to_string(), [("c".to_string(), vec![])].into()),
    ]
    .into();
    lines_of("empty/maps", &empty_maps, &mut out);
    let tree = Value::Obj(vec![
        ("arr".into(), Value::Arr(vec![])),
        ("obj".into(), Value::Obj(vec![])),
        (
            "deep".into(),
            Value::Arr(vec![
                Value::Arr(vec![Value::Arr(vec![])]),
                Value::Obj(vec![("k\"ey".into(), Value::Null)]),
                Value::Bool(false),
                Value::Num(-0.0),
                Value::Num(f64::NAN),
                Value::Str("s\u{0}".into()),
            ]),
        ),
    ]);
    lines_of("value/tree", &tree, &mut out);
    out.join("\n") + "\n"
}

#[test]
fn json_writes_match_the_golden() {
    let expected = fixture("../golden/json_writes.txt");
    let actual = golden();
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "golden line {}", i + 1);
    }
    assert_eq!(actual.lines().count(), expected.lines().count());
}
