//! `--compare a.jsonl b.jsonl`: per workload and metric, each side's
//! median and quartiles over its runs, and the change of the median
//! against the metric's bound. It only reports; it never fails a change.

use crate::host::quartiles;
use crate::{MetricDef, Workload, END_TO_END, PER_LAYER};
use serde::Value;
use std::collections::BTreeMap;
use std::path::Path;

/// One run record written by `--out`.
struct Record {
    workload: String,
    seed: u64,
    trace: bool,
    failed: u64,
    digest: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let num = |v: Option<&Value>| match v {
        Some(Value::Num(n)) => *n,
        _ => f64::NAN,
    };
    let text_of = |v: Option<&Value>| v.and_then(Value::as_str).unwrap_or_default().to_string();
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let json: Value = serde_json::from_str(line)
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
            let metrics = match json.get("metrics") {
                Some(Value::Obj(entries)) => entries
                    .iter()
                    .map(|(name, m)| (name.clone(), num(m.get("value"))))
                    .collect(),
                _ => BTreeMap::new(),
            };
            Ok(Record {
                workload: text_of(json.get("workload")),
                seed: num(json.get("seed")) as u64,
                trace: num(json.get("trace")) == 1.0,
                failed: num(json.get("failed")) as u64,
                digest: text_of(json.get("output_digest")),
                metrics,
            })
        })
        .collect()
}

fn runs_of<'a>(set: &'a [Record], workload: &str, trace: bool) -> Vec<&'a Record> {
    set.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .collect()
}

fn fmt(v: f64) -> String {
    if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// Prints the comparison of run sets `a` (the base) and `b`.
pub fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let (base, new) = (load(a)?, load(b)?);
    println!(
        "# perfbench compare: a = {}  b = {}",
        a.display(),
        b.display()
    );
    println!(
        "# median [q1, q3] spread per side, spread = (q3 - q1) / median; delta = (b - a) / a, positive when b is worse; gated metrics against their bound"
    );
    for workload in Workload::ALL.map(Workload::name) {
        if runs_of(&base, workload, false).is_empty() && runs_of(&new, workload, false).is_empty() {
            continue;
        }
        println!("\n## {workload}");
        let failed = |set: &[Record]| {
            set.iter()
                .filter(|r| r.workload == workload)
                .map(|r| r.failed)
                .sum::<u64>()
        };
        println!(
            "runs a {} + {} traced, b {} + {} traced; failed operations a {} b {}",
            runs_of(&base, workload, false).len(),
            runs_of(&base, workload, true).len(),
            runs_of(&new, workload, false).len(),
            runs_of(&new, workload, true).len(),
            failed(&base),
            failed(&new)
        );
        // Runs of one seed must agree on their outputs, traced or not.
        let mut digests: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
        for r in base.iter().chain(&new).filter(|r| r.workload == workload) {
            digests.entry(r.seed).or_default().push(&r.digest);
        }
        let shared: Vec<&Vec<&str>> = digests.values().filter(|d| d.len() > 1).collect();
        let stable = shared
            .iter()
            .filter(|d| d.iter().all(|x| *x == d[0]))
            .count();
        println!(
            "output digests identical for {stable} of {} seeds run more than once",
            shared.len()
        );
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            for def in defs {
                let values = |set: &[Record]| -> Vec<f64> {
                    runs_of(set, workload, trace)
                        .iter()
                        .filter_map(|r| r.metrics.get(def.name).copied())
                        .collect()
                };
                print_row(def, &values(&base), &values(&new));
            }
        }
    }
    Ok(())
}

fn print_row(def: &MetricDef, a: &[f64], b: &[f64]) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (qa, qb) = (quartiles(a), quartiles(b));
    let change = (qb[1] - qa[1]) / qa[1];
    let worse = if def.better == "lower" {
        change
    } else {
        -change
    };
    let verdict = match def.bound {
        Some(bound) if worse > bound => format!("WORSE than bound {:.0}%", 100.0 * bound),
        Some(bound) => format!("within bound {:.0}%", 100.0 * bound),
        None => String::new(),
    };
    // The distance between the quartiles as a share of the median.
    let spread = |q: [f64; 3]| 100.0 * (q[2] - q[0]) / q[1].abs();
    println!(
        "{:<30} {:>6} a {:>10} [{}, {}] {:>5.1}%  b {:>10} [{}, {}] {:>5.1}%  delta {:>+7.2}%  {verdict}",
        def.name,
        def.unit,
        fmt(qa[1]),
        fmt(qa[0]),
        fmt(qa[2]),
        spread(qa),
        fmt(qb[1]),
        fmt(qb[0]),
        fmt(qb[2]),
        spread(qb),
        100.0 * worse,
    );
}
