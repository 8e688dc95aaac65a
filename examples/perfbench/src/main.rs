//! perfbench: end-to-end and per-layer benchmark of Algorithm 1 fits and
//! lvpd serving. See README.md for the workloads, the metrics and how to
//! claim a gain with them.
//!
//! ```text
//! perfbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <file.jsonl>]
//! perfbench --smoke
//! perfbench --compare <a.jsonl> <b.jsonl>
//! ```
//!
//! One run measures one workload and prints every metric with its unit;
//! its last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the per-layer
//! metrics traced). A run whose outputs fail a check exits with code 1.

mod alg1;
mod compare;
mod host;
mod serve;
mod trace;

use host::Reference;
use lvp_core::CoreError;
use serde::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Alg1FitLargeTest,
    Alg1FitMetaGrid,
    LvpdMixedInproc,
    LvpdDurableInproc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Alg1FitLargeTest,
        Workload::Alg1FitMetaGrid,
        Workload::LvpdMixedInproc,
        Workload::LvpdDurableInproc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Alg1FitLargeTest => "alg1_fit_large_test",
            Workload::Alg1FitMetaGrid => "alg1_fit_meta_grid",
            Workload::LvpdMixedInproc => "lvpd_mixed_inproc",
            Workload::LvpdDurableInproc => "lvpd_durable_inproc",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A metric as `BENCHMARK.json` declares it.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by untraced runs.
pub const END_TO_END: [MetricDef; 4] = [
    gated("setup_s", "s", 0.25),
    gated("ms_per_op", "ms", 0.25),
    gated("cpu_ms_per_op", "ms", 0.25),
    gated("peak_rss_mib", "MiB", 0.25),
];

/// Reported by traced runs: one Algorithm 1 fit and one serving replay,
/// decomposed by layer (README.md maps each to the end-to-end metric and
/// workload it should move).
pub const PER_LAYER: [MetricDef; 27] = [
    layer("models.blackbox_busy_s", "s", "lower"),
    layer("models.blackbox_rows", "count", "lower"),
    layer("models.blackbox_calls", "count", "lower"),
    layer("corruptions.corrupt_busy_s", "s", "lower"),
    layer("features.featurize_busy_s", "s", "lower"),
    layer("engine.generate_wall_s", "s", "lower"),
    layer("engine.parallel_efficiency", "ratio", "higher"),
    layer("predictor.test_score_s", "s", "lower"),
    layer("predictor.meta_fit_s", "s", "lower"),
    layer("predictor.training_examples", "count", "higher"),
    layer("trace.fit_span_share", "ratio", "higher"),
    layer("trace.fit_overhead_pct", "%", "lower"),
    layer("protocol.parse_us.outputs", "us", "lower"),
    layer("protocol.parse_us.chunk", "us", "lower"),
    layer("protocol.parse_us.finish", "us", "lower"),
    layer("protocol.parse_us.estimate", "us", "lower"),
    layer("protocol.parse_us.history", "us", "lower"),
    layer("protocol.encode_us", "us", "lower"),
    layer("monitor.observe_us.outputs", "us", "lower"),
    layer("monitor.observe_us.chunk", "us", "lower"),
    layer("monitor.observe_us.finish", "us", "lower"),
    layer("monitor.observe_us.estimate", "us", "lower"),
    layer("journal.append_us", "us", "lower"),
    layer("journal.bytes_per_op", "B", "lower"),
    layer("daemon.other_us", "us", "lower"),
    layer("net.overhead_us", "us", "lower"),
    layer("trace.serve_split_share", "ratio", "higher"),
];

/// Settings of one run.
pub struct Params {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs, for `--smoke`.
    pub smoke: bool,
    /// Where span files go (inside the working directory).
    pub out_dir: PathBuf,
    /// This run's private directory for daemon state; removed at the end.
    pub scratch: PathBuf,
}

impl Params {
    pub fn run_time(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// One timed sample — one set-up, one fit, or about a second of closed-loop
/// requests — with the reference task timed around it: seconds per
/// operation and per reference unit, by the wall clock and by the
/// process's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub ref_wall_s: f64,
    pub ref_cpu_s: f64,
}

/// Times `work` once per call of `next`, with [`REFERENCE_UNITS`] of the
/// reference task run between two samples; a sample is set against the
/// reference runs just before and just after it.
pub struct Sampler {
    before: Reference,
}

impl Sampler {
    /// Runs the first reference stretch.
    pub fn start() -> Self {
        Self {
            before: Reference::run(REFERENCE_UNITS),
        }
    }

    /// Times `work`, which returns how many operations it completed.
    pub fn next(&mut self, work: impl FnOnce() -> f64) -> Sample {
        let (cpu, started) = (host::process_cpu_s(), Instant::now());
        let ops = work();
        let (wall_s, cpu_s) = (started.elapsed().as_secs_f64(), host::process_cpu_s() - cpu);
        let after = Reference::run(REFERENCE_UNITS);
        let around = self.before.merge(after);
        self.before = after;
        Sample {
            wall_s: wall_s / ops,
            cpu_s: cpu_s / ops,
            ref_wall_s: around.unit_wall_s(),
            ref_cpu_s: around.unit_cpu_s(),
        }
    }
}

/// Time per operation at the reference speed: each sample's time per
/// operation over the time per unit of the reference task around it, on
/// the same clock, times [`host::REFERENCE_UNIT_S`]; the median over the
/// samples. The ratio takes out how fast the host ran around each sample,
/// and the median the samples the hypervisor paused more than the
/// reference runs around them, or less.
fn scaled_s(samples: &[Sample], time: fn(&Sample) -> f64, reference: fn(&Sample) -> f64) -> f64 {
    let ratios: Vec<f64> = samples.iter().map(|s| time(s) / reference(s)).collect();
    host::REFERENCE_UNIT_S * host::median(&ratios)
}

/// What one run measured and whether its outputs checked out.
pub struct Outcome {
    /// Digest of the run's outputs: equal across runs of one seed.
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    first_failure: Option<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    pub fn new(digest: u64) -> Self {
        Self {
            digest,
            attempted: 0,
            failed: 0,
            first_failure: None,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        self.first_failure.get_or_insert_with(|| why.into());
    }

    /// Counts one fit and checks its digest against `reference`.
    pub fn check_fit(&mut self, digest: Result<u64, CoreError>, reference: u64) {
        self.attempted += 1;
        match digest {
            Ok(d) if d == reference => {}
            Ok(d) => self.fail(format!("fit digest {d:016x} != {reference:016x}")),
            Err(e) => self.fail(format!("fit: {e}")),
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// A diagnostic: printed and recorded, not a benchmark metric.
    pub fn note(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.notes.push((name, unit, value));
    }

    /// Reduces the set-up samples, the timed samples and what the host did
    /// over the timed phase to the end-to-end metrics, times scaled to the
    /// reference speed. The raw times, the reference speed and the steal
    /// are diagnostics.
    pub fn end_to_end(&mut self, setups: &[Sample], samples: &[Sample], phase: &host::Phase) {
        let median_of = |samples: &[Sample], f: fn(&Sample) -> f64| {
            host::median(&samples.iter().map(f).collect::<Vec<_>>())
        };
        let (wall, cpu) = (|s: &Sample| s.wall_s, |s: &Sample| s.cpu_s);
        let (ref_wall, ref_cpu) = (|s: &Sample| s.ref_wall_s, |s: &Sample| s.ref_cpu_s);
        self.metric("setup_s", scaled_s(setups, wall, ref_wall));
        self.metric("ms_per_op", 1e3 * scaled_s(samples, wall, ref_wall));
        self.metric("cpu_ms_per_op", 1e3 * scaled_s(samples, cpu, ref_cpu));
        self.metric("peak_rss_mib", phase.peak_rss_mib);
        self.note("samples", "count", samples.len() as f64);
        self.note("raw.setup_s", "s", median_of(setups, wall));
        self.note("raw.wall_ms_per_op", "ms", 1e3 * median_of(samples, wall));
        self.note("raw.cpu_ms_per_op", "ms", 1e3 * median_of(samples, cpu));
        self.note(
            "reference.unit_us",
            "us",
            1e6 * median_of(samples, ref_wall),
        );
        self.note("host.steal_share", "ratio", phase.steal_share);
    }

    /// Reports the median over traced rounds of every per-layer metric.
    pub fn layers_from_rounds(&mut self, rounds: &[BTreeMap<&'static str, f64>]) {
        for def in &PER_LAYER {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.get(def.name).copied())
                .collect();
            if !values.is_empty() {
                self.metric(def.name, host::median(&values));
            }
        }
        self.note("trace.rounds", "count", rounds.len() as f64);
    }

    /// Writes the run's spans next to the other benchmark output.
    pub fn finish_trace(&mut self, tracer: &Tracer, params: &Params) {
        let path = params.out_dir.join(format!(
            "trace-{}-{}.jsonl",
            params.workload.name(),
            params.seed
        ));
        self.note("trace.spans", "count", tracer.mark() as f64);
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
        }
    }
}

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Reference units run between two set-ups or two fits (about 40 ms).
pub const REFERENCE_UNITS: u64 = 2_600;

/// Runs `setup` `reps` times; returns the last result and one sample per
/// repetition.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<Sample>), String> {
    let (mut last, mut samples) = (None, Vec::with_capacity(reps));
    let mut sampler = Sampler::start();
    for _ in 0..reps {
        let mut made = None;
        samples.push(sampler.next(|| {
            made = Some(setup());
            1.0
        }));
        last = Some(made.expect("the measured closure ran")?);
    }
    Ok((last.expect("at least one set-up"), samples))
}

/// Runs one workload on one thread: the Algorithm 1 engine's parallel
/// loops run inline, and lvpd's one client calls the daemon from this
/// thread. On a small shared host, work spread over its few CPUs is
/// timed at the mercy of the hypervisor's steal on each of them; one
/// thread is timed the same way as the reference task run next to it.
/// The engine's outputs are bit-identical at any thread count.
fn run_workload(params: &Params) -> Result<Outcome, String> {
    std::fs::create_dir_all(&params.scratch)
        .map_err(|e| format!("create {}: {e}", params.scratch.display()))?;
    let one_thread = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| format!("one-thread pool: {e}"))?;
    let outcome = one_thread.install(|| match params.workload {
        Workload::Alg1FitLargeTest | Workload::Alg1FitMetaGrid => {
            alg1::run(params.workload, params)
        }
        Workload::LvpdMixedInproc | Workload::LvpdDurableInproc => {
            serve::run(params.workload, params)
        }
    });
    let _ = std::fs::remove_dir_all(&params.scratch);
    outcome
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn metric_obj(values: impl IntoIterator<Item = (&'static str, &'static str, f64)>) -> Value {
    obj(values
        .into_iter()
        .map(|(name, unit, value)| {
            (
                name,
                obj(vec![
                    ("value", Value::Num(value)),
                    ("unit", Value::Str(unit.to_string())),
                ]),
            )
        })
        .collect())
}

/// Prints every metric and diagnostic, appends the run record to `out`,
/// and prints the result line last. Returns whether the run is correct.
fn report(params: &Params, mut outcome: Outcome, out: Option<&Path>) -> bool {
    let defs: &[MetricDef] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let mut values = Vec::with_capacity(defs.len());
    for def in defs {
        match outcome.metrics.get(def.name) {
            Some(&v) if v.is_finite() => values.push((def.name, def.unit, v)),
            other => {
                outcome.fail(format!("metric {} was not measured ({other:?})", def.name));
                values.push((def.name, def.unit, 0.0));
            }
        }
    }
    println!(
        "# {} seed {} ({}, {} s)",
        params.workload.name(),
        params.seed,
        if params.trace { "traced" } else { "untraced" },
        params.seconds
    );
    for (name, unit, value) in &values {
        println!("{name:<32} {value:>16.6} {unit}");
    }
    for (name, unit, value) in &outcome.notes {
        println!("  diagnostic {name:<28} {value:>12.4} {unit}");
    }
    println!("output_digest {:016x}", outcome.digest);
    if let Some(why) = &outcome.first_failure {
        println!(
            "FAILED {} of {}: first failure: {why}",
            outcome.failed, outcome.attempted
        );
    }
    let correct = outcome.failed == 0;
    let counts = |o: &Outcome| {
        vec![
            ("correct", Value::Bool(correct)),
            ("attempted", Value::Num(o.attempted.max(1) as f64)),
            ("failed", Value::Num(o.failed as f64)),
        ]
    };
    if let Some(path) = out {
        let mut record = vec![
            ("workload", Value::Str(params.workload.name().to_string())),
            ("seed", Value::Num(params.seed as f64)),
            ("trace", Value::Num(f64::from(u8::from(params.trace)))),
            ("seconds", Value::Num(params.seconds)),
            (
                "output_digest",
                Value::Str(format!("{:016x}", outcome.digest)),
            ),
        ];
        record.extend(counts(&outcome));
        record.push(("metrics", metric_obj(values.iter().copied())));
        record.push(("diagnostics", metric_obj(outcome.notes.iter().copied())));
        let line = serde_json::to_string(&obj(record)).expect("records encode");
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = appended {
            eprintln!("perfbench: appending to {}: {e}", path.display());
        }
    }
    let mut result = counts(&outcome);
    result.push(("metrics", metric_obj(values)));
    println!(
        "{}",
        serde_json::to_string(&obj(result)).expect("results encode")
    );
    correct
}

/// Checks that `BENCHMARK.json`, when present in the working directory,
/// declares exactly the workloads and metrics this program measures.
fn check_benchmark_json() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Ok(());
    };
    let json: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| match json.get(key) {
        Some(Value::Arr(items)) => items.clone(),
        _ => Vec::new(),
    };
    let field = |item: &Value, key: &str| match item.get(key) {
        Some(Value::Str(s)) => s.clone(),
        Some(Value::Num(n)) => n.to_string(),
        _ => String::new(),
    };
    let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
    let expected: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    if workloads != expected {
        return Err(format!(
            "BENCHMARK.json workloads {workloads:?} != {expected:?}"
        ));
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let declared: Vec<[String; 4]> = list(key)
            .iter()
            .map(|m| ["name", "unit", "better", "bound"].map(|k| field(m, k)))
            .collect();
        let measured: Vec<[String; 4]> = defs
            .iter()
            .map(|d| {
                let bound = d.bound.map(|b| b.to_string()).unwrap_or_default();
                [
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.to_string(),
                    bound,
                ]
            })
            .collect();
        if declared != measured {
            return Err(format!(
                "BENCHMARK.json {key} differs from the metrics perfbench reports"
            ));
        }
    }
    Ok(())
}

/// Every workload at a tiny scale, untraced and traced, with every check.
fn smoke(out_dir: &Path) -> bool {
    let started = Instant::now();
    let mut ok = match check_benchmark_json() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench smoke: {e}");
            false
        }
    };
    for workload in Workload::ALL {
        for trace in [false, true] {
            let params = Params {
                workload,
                seed: 1,
                seconds: 1.0,
                trace,
                smoke: true,
                out_dir: out_dir.to_path_buf(),
                scratch: out_dir.join(format!("smoke-{}-{}", workload.name(), std::process::id())),
            };
            ok &= match run_workload(&params) {
                Ok(outcome) => report(&params, outcome, None),
                Err(e) => {
                    eprintln!("perfbench smoke: {} failed: {e}", workload.name());
                    false
                }
            };
        }
    }
    println!(
        "# smoke {} in {:.1} s",
        if ok { "passed" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    ok
}

const USAGE: &str = "usage: perfbench --workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--out <file.jsonl>]
       perfbench --smoke
       perfbench --compare <a.jsonl> <b.jsonl>
workloads: alg1_fit_large_test alg1_fit_meta_grid lvpd_mixed_inproc lvpd_durable_inproc";

/// Parses `--workload <name> [--seed <u64>] [--seconds <s>] [--trace <0|1>]
/// [--out <file>]` into the workload, seed, seconds, trace flag and output
/// file.
fn parse_run(args: &[String]) -> Option<(Workload, u64, f64, bool, Option<PathBuf>)> {
    let mut flags = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flags.insert(flag.as_str(), value.as_str()).is_none() => {}
            _ => return None,
        }
    }
    let workload = Workload::parse(flags.remove("--workload")?)?;
    let seed = flags.remove("--seed").map_or(Some(1), |v| v.parse().ok())?;
    let seconds = flags
        .remove("--seconds")
        .map_or(Some(15.0), |v| v.parse().ok())?;
    let trace = match flags.remove("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let out = flags.remove("--out").map(PathBuf::from);
    (flags.is_empty() && seconds > 0.0).then_some((workload, seed, seconds, trace, out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Span files and per-run daemon state live here, inside the working
    // directory; each run's state directory is removed when the run ends.
    let out_dir = PathBuf::from(".perfbench");
    match args.first().map(String::as_str) {
        Some("--smoke") if args.len() == 1 => {
            return if smoke(&out_dir) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Some("--compare") if args.len() == 3 => {
            return match compare::compare(Path::new(&args[1]), Path::new(&args[2])) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let Some((workload, seed, seconds, trace, out)) = parse_run(&args) else {
        eprintln!("perfbench: bad arguments {:?}\n{USAGE}", args.join(" "));
        return ExitCode::from(2);
    };
    let params = Params {
        workload,
        seed,
        seconds,
        trace,
        smoke: false,
        scratch: out_dir.join(format!(
            "run-{}-{seed}-{}",
            workload.name(),
            std::process::id()
        )),
        out_dir,
    };
    match run_workload(&params) {
        Ok(outcome) => {
            if report(&params, outcome, out.as_deref()) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(wall_s: f64, ref_wall_s: f64) -> Sample {
        Sample {
            wall_s,
            cpu_s: wall_s,
            ref_wall_s,
            ref_cpu_s: ref_wall_s,
        }
    }

    #[test]
    fn scaled_time_is_the_median_ratio_to_the_reference_around_each_sample() {
        // The samples take 2, 2 and 40 reference units per operation: the
        // host ran twice as slow around the second, and the third was
        // paused. The median ratio is 2 units.
        let samples = [sample(2.0, 1.0), sample(4.0, 2.0), sample(40.0, 1.0)];
        let scaled = scaled_s(&samples, |s| s.wall_s, |s| s.ref_wall_s);
        assert!(
            (scaled - 2.0 * host::REFERENCE_UNIT_S).abs() < 1e-15,
            "{scaled}"
        );
    }
}
