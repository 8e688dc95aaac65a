//! lvpd workloads: one client sends pre-encoded request lines to a daemon
//! in the same process, first at a fixed rate and then in a closed loop;
//! the final registry is checked against a sequential replay of the
//! stream. The traced variant replays the stream layer by layer.
//!
//! One client on the calling thread, rather than several threads: on a
//! 2-vCPU host, how two clients contend for the daemon's registry lock
//! changes with the hypervisor's steal, and with it the time per request.

use crate::alg1::{fit_digest, traced_fit, FitEnv};
use crate::host::{self, percentile, Phase, Reference};
use crate::trace::Tracer;
use crate::{Outcome, Params, Sample, Workload, SETUP_REPS};
use lvp_core::{
    checksum64, to_json, BatchMonitor, MonitorPolicy, PredictorConfig, ServingArtifact,
};
use lvp_linalg::DenseMatrix;
use lvp_models::forest::ForestConfig;
use lvp_models::{BlackBoxModel, ModelKind};
use lvp_server::{
    Daemon, DaemonConfig, DurabilityConfig, FsyncPolicy, Journal, JournalOp, MonitorKey, Request,
    Server,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants the client sends to; each tenant has one deployment.
const TENANTS: usize = 8;
/// A streamed window is finished after this many chunks.
const CHUNKS_PER_WINDOW: usize = 4;
const HISTORY_LIMIT: usize = 16;
/// Share of `--seconds` spent at the fixed rate; the rest is closed loop.
const FIXED_SHARE: f64 = 0.3;
/// The generator sleeps until this long before a request is due and spins
/// the rest, so timer slack is not counted as server latency.
const SPIN_AHEAD: Duration = Duration::from_micros(200);
/// Units of the reference task run between two closed-loop segments
/// (about 0.12 ms, under a tenth of a segment).
const SEGMENT_REFERENCE_UNITS: u64 = 8;
/// Every response line of a successful request starts with this.
const OK_PREFIX: &str = "{\"status\":\"ok\"";

/// One lvpd workload's traffic and durability.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Request mix in percent; `history` takes the rest (at least 1).
    outputs_pct: u32,
    chunk_pct: u32,
    estimate_pct: u32,
    outputs_rows: usize,
    chunk_rows: usize,
    fsync: FsyncPolicy,
    /// Requests per second in the fixed-rate phase.
    fixed_rate: f64,
    /// Requests per closed-loop segment: about 2 ms of work, short enough
    /// that most segments run between two pauses of the hypervisor.
    segment: usize,
    /// Requests before the stream repeats.
    pool: usize,
}

/// The traffic of each lvpd workload; the Algorithm 1 workloads serve
/// their fitted predictor with the mixed traffic in traced runs.
pub fn spec(workload: Workload, smoke: bool) -> ServeSpec {
    let spec = match workload {
        // Small requests and a group fsync every 64 journal records: the
        // journal and the daemon's dispatch dominate, the monitor and the
        // parser do little.
        Workload::LvpdDurableInproc => ServeSpec {
            outputs_pct: 5,
            chunk_pct: 55,
            estimate_pct: 35,
            outputs_rows: 16,
            chunk_rows: 16,
            fsync: FsyncPolicy::EveryN(64),
            fixed_rate: 3000.0,
            // 61 journal records on average, so nearly every segment pays
            // one fsync.
            segment: 64,
            pool: 2048,
        },
        // Large output batches: parsing, monitor featurization and forest
        // inference dominate.
        _ => ServeSpec {
            outputs_pct: 50,
            chunk_pct: 35,
            estimate_pct: 10,
            outputs_rows: 256,
            chunk_rows: 64,
            fsync: FsyncPolicy::Never,
            fixed_rate: 1000.0,
            segment: 16,
            pool: 2048,
        },
    };
    ServeSpec {
        pool: if smoke { 96 } else { spec.pool },
        ..spec
    }
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Outputs,
    Chunk,
    Finish,
    Estimate,
    History,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Outputs,
        Kind::Chunk,
        Kind::Finish,
        Kind::Estimate,
        Kind::History,
    ];

    fn parse_metric(self) -> &'static str {
        match self {
            Kind::Outputs => "protocol.parse_us.outputs",
            Kind::Chunk => "protocol.parse_us.chunk",
            Kind::Finish => "protocol.parse_us.finish",
            Kind::Estimate => "protocol.parse_us.estimate",
            Kind::History => "protocol.parse_us.history",
        }
    }

    fn monitor_metric(self) -> Option<&'static str> {
        match self {
            Kind::Outputs => Some("monitor.observe_us.outputs"),
            Kind::Chunk => Some("monitor.observe_us.chunk"),
            Kind::Finish => Some("monitor.observe_us.finish"),
            Kind::Estimate => Some("monitor.observe_us.estimate"),
            Kind::History => None,
        }
    }
}

/// The deployments the client sends to.
fn deployment_keys() -> Vec<MonitorKey> {
    (0..TENANTS)
        .map(|t| MonitorKey {
            tenant: format!("t{t}"),
            model: "income".to_string(),
            version: "v1".to_string(),
        })
        .collect()
}

/// The client's request stream, pre-encoded. Every window it opens is
/// finished by the end, so the stream can repeat.
pub struct Stream {
    keys: Vec<MonitorKey>,
    requests: Vec<Request>,
    lines: Vec<String>,
    kinds: Vec<Kind>,
    targets: Vec<usize>,
}

impl Stream {
    /// Draws the stream from the seed; output rows are sampled from
    /// `outputs`, the black box's outputs on serving data.
    pub fn build(outputs: &DenseMatrix, spec: &ServeSpec, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000);
        let mut stream = Stream {
            keys: deployment_keys(),
            requests: Vec::new(),
            lines: Vec::new(),
            kinds: Vec::new(),
            targets: Vec::new(),
        };
        let mut open = [0usize; TENANTS];
        let push = |stream: &mut Stream, kind: Kind, target: usize, rng: &mut StdRng| {
            let verb = match kind {
                Kind::Finish => "finish",
                Kind::History => "history",
                _ => "observe",
            };
            let mut req = Request::targeted(verb, &stream.keys[target]);
            let mut rows = |n: usize| -> Vec<Vec<f64>> {
                (0..n)
                    .map(|_| outputs.row(rng.gen_range(0..outputs.rows())).to_vec())
                    .collect()
            };
            match kind {
                Kind::Outputs => req.outputs = Some(rows(spec.outputs_rows)),
                Kind::Chunk => req.chunk = Some(rows(spec.chunk_rows)),
                Kind::Estimate => req.estimate = Some(rng.gen_range(0.5..0.95)),
                Kind::History => req.limit = Some(HISTORY_LIMIT),
                Kind::Finish => {}
            }
            stream
                .lines
                .push(serde_json::to_string(&req).expect("requests encode"));
            stream.requests.push(req);
            stream.kinds.push(kind);
            stream.targets.push(target);
        };
        // Every block of 100 requests holds the mix exactly, in seeded
        // order, so every seed asks for the same amount of work.
        let history_pct = 100 - spec.outputs_pct - spec.chunk_pct - spec.estimate_pct;
        let mut block: Vec<Kind> = [
            (Kind::Outputs, spec.outputs_pct),
            (Kind::Chunk, spec.chunk_pct),
            (Kind::Estimate, spec.estimate_pct),
            (Kind::History, history_pct),
        ]
        .into_iter()
        .flat_map(|(kind, pct)| std::iter::repeat_n(kind, pct as usize))
        .collect();
        while stream.requests.len() < spec.pool {
            block.shuffle(&mut rng);
            for &kind in &block {
                let target = rng.gen_range(0..TENANTS);
                push(&mut stream, kind, target, &mut rng);
                if kind == Kind::Chunk {
                    open[target] += 1;
                }
                if open[target] == CHUNKS_PER_WINDOW {
                    push(&mut stream, Kind::Finish, target, &mut rng);
                    open[target] = 0;
                }
            }
        }
        for (target, &chunks) in open.iter().enumerate() {
            if chunks > 0 {
                push(&mut stream, Kind::Finish, target, &mut rng);
            }
        }
        stream
    }

    fn len(&self) -> usize {
        self.requests.len()
    }

    fn line(&self, i: usize) -> &str {
        &self.lines[i % self.len()]
    }

    /// The write-ahead journal record the daemon appends for request `i`.
    fn journal_op(&self, i: usize) -> Option<JournalOp> {
        let (req, key) = (&self.requests[i], self.keys[self.targets[i]].clone());
        Some(match self.kinds[i] {
            Kind::Outputs => JournalOp::ObserveOutputs {
                key,
                rows: req.outputs.clone()?,
            },
            Kind::Chunk => JournalOp::ObserveChunk {
                key,
                rows: req.chunk.clone()?,
            },
            Kind::Estimate => JournalOp::ObserveEstimate {
                key,
                estimate: req.estimate?,
            },
            Kind::Finish => JournalOp::Finish { key },
            Kind::History => return None,
        })
    }
}

/// Predictor configuration of the deployed artifact.
fn artifact_config(smoke: bool) -> PredictorConfig {
    if smoke {
        PredictorConfig {
            runs_per_generator: 6,
            clean_copies: 3,
            forest_grid: vec![ForestConfig {
                n_trees: 10,
                ..ForestConfig::default()
            }],
            ..PredictorConfig::default()
        }
    } else {
        PredictorConfig::fast()
    }
}

/// income/lr with a `fast()` predictor bundled into the artifact every
/// deployment is registered from; also returns the fit's digest.
fn artifact_env(params: &Params) -> Result<(FitEnv, ServingArtifact, u64), String> {
    let env = FitEnv::setup(
        if params.smoke { 90 } else { 300 },
        ModelKind::Lr,
        params.seed,
    )?;
    let predictor = env
        .fit(&artifact_config(params.smoke))
        .map_err(|e| format!("artifact fit: {e}"))?;
    let digest = fit_digest(&predictor, &env.probe).map_err(|e| e.to_string())?;
    let monitor = BatchMonitor::new(predictor, MonitorPolicy::default().with_interval_alarm())
        .map_err(|e| e.to_string())?;
    Ok((env, ServingArtifact::from_monitor(&monitor), digest))
}

/// A crash-recovering daemon journaling into `dir`.
fn recover(dir: &Path, fsync: FsyncPolicy) -> Result<Arc<Daemon>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let durability = DurabilityConfig::in_dir_with_fsync(dir, fsync);
    let (daemon, _) = Daemon::recover(DaemonConfig::default(), durability)?;
    Ok(Arc::new(daemon))
}

/// Registers `artifact` under every key, over the wire protocol
/// (`handle_line`, as a deploying client does) or embedded
/// (`handle_request`, where parsing the artifact is not what is measured).
fn register(
    daemon: &Daemon,
    artifact: &ServingArtifact,
    keys: &[MonitorKey],
    wire: bool,
) -> Result<(), String> {
    for key in keys {
        let mut req = Request::targeted("register", key);
        req.artifact = Some(artifact.clone());
        let ok = if wire {
            let line = serde_json::to_string(&req).map_err(|e| e.to_string())?;
            daemon.handle_line(&line).starts_with(OK_PREFIX)
        } else {
            daemon.handle_request(req).is_ok()
        };
        if !ok {
            return Err(format!("register {key} failed"));
        }
    }
    Ok(())
}

fn snapshot_digest(daemon: &Daemon) -> Result<u64, String> {
    Ok(checksum64(
        to_json(&daemon.snapshot())
            .map_err(|e| e.to_string())?
            .as_bytes(),
    ))
}

/// Tallies of the client's requests.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
    latency_s: Vec<f64>,
    late_s: Vec<f64>,
}

impl Tally {
    /// Sends request `i` of `stream` to the daemon and counts it; a
    /// response other than `ok` is a failure.
    fn call(&mut self, daemon: &Daemon, stream: &Stream, i: usize) {
        let response = daemon.handle_line(stream.line(i));
        self.attempted += 1;
        if !response.starts_with(OK_PREFIX) {
            self.failures.push(format!("non-ok response: {response}"));
        }
    }
}

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN_AHEAD {
        std::thread::sleep(due - now - SPIN_AHEAD);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Open-loop phase: sends `rate` requests per second on a fixed schedule
/// and times every request from when it was due.
fn fixed_rate(
    daemon: &Daemon,
    stream: &Stream,
    sent: &mut usize,
    tally: &mut Tally,
    rate: f64,
    seconds: f64,
) {
    let period = Duration::from_secs_f64(1.0 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + Duration::from_secs_f64(seconds);
    for k in 0u32.. {
        let due = start + period * k;
        if due >= end {
            break;
        }
        sleep_until(due);
        let sent_at = Instant::now();
        tally.call(daemon, stream, *sent);
        let done = Instant::now();
        *sent += 1;
        tally.latency_s.push((done - due).as_secs_f64());
        tally.late_s.push((sent_at - due).as_secs_f64());
    }
}

/// Closed-loop phase: sends the next request as soon as the previous one
/// is answered, in segments of `segment` requests with the reference task
/// run between them. Returns one sample per window of about a second: the
/// median time per request over its segments, and the median time per unit
/// over its reference runs. Segments and reference runs are short enough
/// that most of them run between two pauses of the hypervisor, and the
/// medians leave out the others.
fn closed_loop(
    daemon: &Daemon,
    stream: &Stream,
    segment: usize,
    sent: &mut usize,
    tally: &mut Tally,
    seconds: f64,
) -> (Vec<Sample>, Phase) {
    let n_windows = seconds.round().max(1.0) as u32;
    let window = Duration::from_secs_f64(seconds / f64::from(n_windows));
    let start = Instant::now();
    Phase::measure(|| {
        (1..=n_windows)
            .map(|w| {
                let [mut wall, mut cpu, mut ref_wall, mut ref_cpu] = [(); 4].map(|_| Vec::new());
                while wall.is_empty() || Instant::now() < start + window * w {
                    let (started, cpu_before) = (Instant::now(), host::process_cpu_s());
                    for _ in 0..segment {
                        tally.call(daemon, stream, *sent);
                        *sent += 1;
                    }
                    wall.push(started.elapsed().as_secs_f64() / segment as f64);
                    cpu.push((host::process_cpu_s() - cpu_before) / segment as f64);
                    let reference = Reference::run(SEGMENT_REFERENCE_UNITS);
                    ref_wall.push(reference.unit_wall_s());
                    ref_cpu.push(reference.unit_cpu_s());
                }
                Sample {
                    wall_s: host::median(&wall),
                    cpu_s: host::median(&cpu),
                    ref_wall_s: host::median(&ref_wall),
                    ref_cpu_s: host::median(&ref_cpu),
                }
            })
            .collect()
    })
}

/// Replays the stream in order on a fresh in-memory daemon: first one full
/// pass, giving the run's output digest, then up to the number of requests
/// the client sent, giving the digest the live registry must match.
fn replay(artifact: &ServingArtifact, stream: &Stream, sent: usize) -> Result<[u64; 2], String> {
    let daemon = Daemon::new(DaemonConfig::default());
    register(&daemon, artifact, &stream.keys, false)?;
    if sent < stream.len() {
        return Err(format!(
            "sent {sent} requests, less than one pass over the {}-request stream",
            stream.len()
        ));
    }
    let mut done = 0;
    let mut digests = [0u64; 2];
    for (digest, target) in digests.iter_mut().zip([stream.len(), sent]) {
        while done < target {
            let resp = daemon.handle_request(stream.requests[done % stream.len()].clone());
            if !resp.is_ok() {
                return Err(format!("replay of request {done}: {:?}", resp.message));
            }
            done += 1;
        }
        *digest = snapshot_digest(&daemon)?;
    }
    Ok(digests)
}

/// Runs an lvpd workload, untraced or traced.
pub fn run(workload: Workload, params: &Params) -> Result<Outcome, String> {
    let spec = spec(workload, params.smoke);
    if params.trace {
        return traced(&spec, params);
    }
    let keys = deployment_keys();
    let mut rep = 0;
    let ((env, artifact, daemon), setups) = crate::repeat_setup(SETUP_REPS, || {
        rep += 1;
        let (env, artifact, _) = artifact_env(params)?;
        let daemon = recover(&params.scratch.join(format!("setup-{rep}")), spec.fsync)?;
        register(&daemon, &artifact, &keys, true)?;
        Ok((env, artifact, daemon))
    })?;
    let outputs = env.model.predict_proba(&env.serving);
    let stream = Stream::build(&outputs, &spec, params.seed);

    let (mut sent, mut tally) = (0, Tally::default());
    let fixed_s = params.seconds * FIXED_SHARE;
    fixed_rate(
        &daemon,
        &stream,
        &mut sent,
        &mut tally,
        spec.fixed_rate,
        fixed_s,
    );
    let fixed_sent = sent;
    let (windows, phase) = closed_loop(
        &daemon,
        &stream,
        spec.segment,
        &mut sent,
        &mut tally,
        params.seconds - fixed_s,
    );
    let live = snapshot_digest(&daemon)?;
    drop(daemon);

    let [digest, replayed] = replay(&artifact, &stream, sent)?;
    let mut outcome = Outcome::new(digest);
    outcome.attempted += tally.attempted;
    for failure in tally.failures {
        outcome.fail(failure);
    }
    if live != replayed {
        outcome.fail(format!(
            "live registry digest {live:016x} != sequential replay digest {replayed:016x}"
        ));
    }

    outcome.end_to_end(&setups, &windows, &phase);
    outcome.note("lvpd.closed.requests", "count", (sent - fixed_sent) as f64);
    outcome.note("lvpd.fixed.rate", "1/s", spec.fixed_rate);
    outcome.note(
        "lvpd.fixed.p50_ms",
        "ms",
        1e3 * percentile(&tally.latency_s, 50.0),
    );
    outcome.note(
        "lvpd.fixed.p99_ms",
        "ms",
        1e3 * percentile(&tally.latency_s, 99.0),
    );
    outcome.note(
        "lvpd.fixed.gen_late_p99_ms",
        "ms",
        1e3 * percentile(&tally.late_s, 99.0),
    );
    Ok(outcome)
}

/// Traced rounds until `--seconds` run out: the artifact's fit, plain and
/// decomposed, and the stream replayed layer by layer.
fn traced(spec: &ServeSpec, params: &Params) -> Result<Outcome, String> {
    let (env, artifact, fit_reference) = artifact_env(params)?;
    let outputs = env.model.predict_proba(&env.serving);
    let stream = Stream::build(&outputs, spec, params.seed);
    let [digest, _] = replay(&artifact, &stream, stream.len())?;
    let mut outcome = Outcome::new(digest);
    outcome.attempted += stream.len() as u64;
    let tracer = Arc::new(Tracer::new());
    let config = artifact_config(params.smoke);
    let mut rounds = Vec::new();
    let deadline = Instant::now() + params.run_time();
    while rounds.is_empty() || Instant::now() < deadline {
        let mut layers = traced_fit(&env, &config, fit_reference, &tracer, &mut outcome)?;
        layers.extend(trace_serving(
            &env.model,
            &artifact,
            &stream,
            spec,
            &params.scratch,
            &tracer,
        )?);
        rounds.push(layers);
    }
    outcome.layers_from_rounds(&rounds);
    outcome.finish_trace(&tracer, params);
    Ok(outcome)
}

/// Sends every line of `stream` over one loopback connection, one at a
/// time, and returns each round trip's seconds.
fn round_trips(addr: SocketAddr, stream: &Stream, tracer: &Tracer) -> Result<Vec<f64>, String> {
    let io = |e: std::io::Error| format!("lvpd connection: {e}");
    let socket = TcpStream::connect(addr).map_err(io)?;
    socket.set_nodelay(true).map_err(io)?;
    let mut reader = BufReader::new(socket.try_clone().map_err(io)?);
    let mut writer = BufWriter::new(socket);
    let mut response = String::new();
    (0..stream.len())
        .map(|i| {
            response.clear();
            let (result, t) = tracer.timed("net.round_trip", Some(i as u64), || {
                writer.write_all(stream.line(i).as_bytes())?;
                writer.write_all(b"\n")?;
                writer.flush()?;
                reader.read_line(&mut response)
            });
            result.map_err(io)?;
            if !response.starts_with(OK_PREFIX) {
                return Err(format!("traced round trip: {}", response.trim_end()));
            }
            Ok(t)
        })
        .collect()
}

/// Replays `stream` once per layer view and returns the serving layers:
/// `handle_line` whole; the same lines split into parse → `handle_request`
/// → encode on a second daemon; the journal records appended to a bare
/// `Journal`; the monitor calls made on bare monitors; and the lines sent
/// over loopback TCP to a third daemon.
pub fn trace_serving(
    model: &Arc<dyn BlackBoxModel>,
    artifact: &ServingArtifact,
    stream: &Stream,
    spec: &ServeSpec,
    scratch: &Path,
    tracer: &Tracer,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let dir = scratch.join("trace");
    let _ = std::fs::remove_dir_all(&dir);
    let whole = recover(&dir.join("whole"), spec.fsync)?;
    let split = recover(&dir.join("split"), spec.fsync)?;
    let wire = recover(&dir.join("wire"), spec.fsync)?;
    for daemon in [&whole, &split, &wire] {
        register(daemon, artifact, &stream.keys, false)?;
    }
    let n = stream.len();
    let ok = |text: &str, what: &str| {
        if text.starts_with(OK_PREFIX) {
            Ok(())
        } else {
            Err(format!("traced {what}: {text}"))
        }
    };
    let (mut line_s, mut parse_s, mut handle_s, mut encode_s) =
        (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    for i in 0..n {
        let (line, id) = (stream.line(i), Some(i as u64));
        let mut run_whole = || {
            let (resp, t) = tracer.timed("serve.handle_line", id, || whole.handle_line(line));
            line_s[i] = t;
            ok(&resp, "handle_line")
        };
        let mut run_split = || {
            let (req, t) = tracer.timed("protocol.parse", id, || {
                serde_json::from_str::<Request>(line)
            });
            parse_s[i] = t;
            let req = req.map_err(|e| format!("traced parse: {e}"))?;
            let (resp, t) = tracer.timed("daemon.handle_request", id, || split.handle_request(req));
            handle_s[i] = t;
            let (text, t) = tracer.timed("protocol.encode", id, || serde_json::to_string(&resp));
            encode_s[i] = t;
            ok(&text.map_err(|e| e.to_string())?, "handle_request")
        };
        // Alternate which view sees a line first, so that neither always
        // finds the line already in cache.
        if i % 2 == 0 {
            run_whole()?;
            run_split()?;
        } else {
            run_split()?;
            run_whole()?;
        }
    }

    let journal_path = dir.join("replay.journal");
    let mut journal =
        Journal::open(&journal_path, spec.fsync, 0).map_err(|e| format!("open journal: {e}"))?;
    let mut journal_s = vec![0.0; n];
    let mut appended = 0usize;
    for (i, slot) in journal_s.iter_mut().enumerate() {
        if let Some(op) = stream.journal_op(i) {
            let (result, t) =
                tracer.timed("journal.append", Some(i as u64), || journal.append(&op));
            result.map_err(|e| format!("journal append: {e}"))?;
            *slot = t;
            appended += 1;
        }
    }
    let journal_bytes = std::fs::metadata(&journal_path).map_or(0, |m| m.len());

    // Bare monitors set up as the daemon sets up its deployments.
    let registry = lvp_telemetry::Registry::new();
    let mut monitors = stream
        .keys
        .iter()
        .map(|key| {
            let mut monitor = artifact.clone().into_monitor(Arc::clone(model))?;
            monitor.set_history_limit(DaemonConfig::default().history_limit);
            monitor.attach_telemetry_prefixed(&registry, &key.metric_prefix());
            Ok(monitor)
        })
        .collect::<Result<Vec<_>, lvp_core::CoreError>>()
        .map_err(|e| e.to_string())?;
    let mut monitor_s = vec![0.0; n];
    for (i, slot) in monitor_s.iter_mut().enumerate() {
        let (req, monitor) = (&stream.requests[i], &mut monitors[stream.targets[i]]);
        let rows = req.outputs.as_ref().or(req.chunk.as_ref());
        let matrix = rows.map(|r| DenseMatrix::from_rows(r).expect("stream rows are rectangular"));
        let id = Some(i as u64);
        let (result, t) = match (stream.kinds[i], matrix) {
            (Kind::Outputs, Some(m)) => tracer.timed("monitor.observe", id, || {
                monitor.observe_outputs(&m).map(drop)
            }),
            (Kind::Chunk, Some(m)) => {
                tracer.timed("monitor.observe", id, || monitor.observe_output_chunk(&m))
            }
            (Kind::Finish, _) => {
                tracer.timed("monitor.observe", id, || monitor.finish_window().map(drop))
            }
            (Kind::Estimate, _) => {
                let estimate = req.estimate.expect("estimate requests carry one");
                tracer.timed("monitor.observe", id, || {
                    monitor.observe_estimate(estimate);
                    Ok(())
                })
            }
            _ => continue,
        };
        result.map_err(|e| format!("traced monitor call: {e}"))?;
        *slot = t;
    }

    let server =
        Server::spawn(Arc::clone(&wire), "127.0.0.1:0").map_err(|e| format!("bind lvpd: {e}"))?;
    let wire_s = round_trips(server.local_addr(), stream, tracer);
    server.shutdown();
    let wire_s = wire_s?;
    drop((whole, split, wire));
    let _ = std::fs::remove_dir_all(&dir);

    let mean_us = |values: &[f64], keep: &dyn Fn(usize) -> bool| {
        let kept: Vec<f64> = (0..n).filter(|&i| keep(i)).map(|i| values[i]).collect();
        1e6 * kept.iter().sum::<f64>() / kept.len() as f64
    };
    let sum = |v: &[f64]| v.iter().sum::<f64>();
    let mut layers = BTreeMap::new();
    for kind in Kind::ALL {
        layers.insert(
            kind.parse_metric(),
            mean_us(&parse_s, &|i| stream.kinds[i] == kind),
        );
        if let Some(name) = kind.monitor_metric() {
            layers.insert(name, mean_us(&monitor_s, &|i| stream.kinds[i] == kind));
        }
    }
    layers.insert("protocol.encode_us", mean_us(&encode_s, &|_| true));
    layers.insert(
        "journal.append_us",
        mean_us(&journal_s, &|i| stream.kinds[i] != Kind::History),
    );
    layers.insert(
        "journal.bytes_per_op",
        journal_bytes as f64 / appended as f64,
    );
    let other: Vec<f64> = (0..n)
        .map(|i| handle_s[i] - journal_s[i] - monitor_s[i])
        .collect();
    layers.insert("daemon.other_us", mean_us(&other, &|_| true));
    layers.insert(
        "net.overhead_us",
        mean_us(&wire_s, &|_| true) - mean_us(&line_s, &|_| true),
    );
    layers.insert(
        "trace.serve_split_share",
        (sum(&parse_s) + sum(&handle_s) + sum(&encode_s)) / sum(&line_s),
    );
    Ok(layers)
}
