//! `lvp` — command-line interface to the performance prediction workflow.
//!
//! Lets a user run the paper's full loop on their own CSV data without
//! writing Rust:
//!
//! ```text
//! lvp datagen --dataset income --n 2000 --out income.csv
//! lvp estimate --train income.csv --serving serving.csv --label label --model xgb
//! lvp validate --train income.csv --serving serving.csv --label label --threshold 0.05
//! ```
//!
//! `estimate` trains a black box model plus performance predictor on the
//! training file and prints the estimated score for the serving file;
//! `validate` additionally answers whether the score is within the given
//! relative threshold of the held-out test score. The serving file is parsed
//! against the training file's columns and classes. Its label column is
//! never required — if present it is only used to also print the true score
//! for comparison.

use lvp::prelude::*;
use lvp_core::{PerformancePredictor, PerformanceValidator};
use lvp_dataframe::{read_csv_file, read_serving_csv_str, write_csv_string, CsvOptions};
use lvp_models::{train_model_quick, ModelKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// The `--flag value` pairs after the command.
struct Args(Vec<(String, String)>);

impl Args {
    /// Pairs every flag with its value. A flag not in `known` (a stray
    /// argument included) or a flag without a value is an error naming it.
    fn parse(argv: &[String], known: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut args = argv.iter();
        while let Some(flag) = args.next() {
            if !known.contains(&flag.as_str()) {
                return Err(format!("unknown flag '{flag}'\n{USAGE}"));
            }
            let value = args
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn value_of(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.value_of(flag)
            .ok_or_else(|| format!("missing required argument {flag} <value>"))
    }
}

const DATAGEN_FLAGS: &[&str] = &["--dataset", "--n", "--out", "--seed"];
/// `validate` takes these and `--threshold`.
const ESTIMATE_FLAGS: &[&str] = &[
    "--train",
    "--serving",
    "--label",
    "--model",
    "--text-columns",
    "--seed",
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "datagen" => Args::parse(rest, DATAGEN_FLAGS).and_then(|args| cmd_datagen(&args)),
        "estimate" => Args::parse(rest, ESTIMATE_FLAGS).and_then(|args| cmd_estimate(&args, false)),
        "validate" => Args::parse(rest, &[ESTIMATE_FLAGS, &["--threshold"]].concat())
            .and_then(|args| cmd_estimate(&args, true)),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
lvp — learn to validate black box model predictions on unseen data

USAGE:
  lvp datagen  --dataset <income|heart|bank|tweets> --n <rows> --out <file.csv> [--seed <u64>]
  lvp estimate --train <file.csv> --serving <file.csv> --label <column>
               [--model <lr|dnn|xgb>] [--text-columns a,b] [--seed <u64>]
  lvp validate --train <file.csv> --serving <file.csv> --label <column>
               --threshold <0..1> [--model <lr|dnn|xgb>] [--text-columns a,b] [--seed <u64>]";

fn seed_of(args: &Args) -> Result<u64, String> {
    args.value_of("--seed").map_or(Ok(42), |s| {
        s.parse()
            .map_err(|_| format!("--seed must be an unsigned integer, got '{s}'"))
    })
}

fn cmd_datagen(args: &Args) -> Result<(), String> {
    let dataset = args.required("--dataset")?;
    let n: usize = args
        .required("--n")?
        .parse()
        .map_err(|_| "--n must be a positive integer".to_string())?;
    let out = PathBuf::from(args.required("--out")?);
    let mut rng = StdRng::seed_from_u64(seed_of(args)?);
    let df = match dataset {
        "income" => lvp::datasets::income(n, &mut rng),
        "heart" => lvp::datasets::heart(n, &mut rng),
        "bank" => lvp::datasets::bank(n, &mut rng),
        "tweets" => lvp::datasets::tweets(n, &mut rng),
        other => return Err(format!("dataset '{other}' is not CSV-exportable")),
    };
    let csv = write_csv_string(&df).map_err(|e| e.to_string())?;
    std::fs::write(&out, csv).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "wrote {} rows of '{dataset}' to {}",
        df.n_rows(),
        out.display()
    );
    Ok(())
}

fn model_kind(args: &Args) -> Result<ModelKind, String> {
    match args.value_of("--model").unwrap_or("xgb") {
        "lr" => Ok(ModelKind::Lr),
        "dnn" => Ok(ModelKind::Dnn),
        "xgb" => Ok(ModelKind::Xgb),
        other => Err(format!("unknown model '{other}' (expected lr|dnn|xgb)")),
    }
}

fn csv_options(args: &Args) -> CsvOptions {
    CsvOptions {
        text_columns: args
            .value_of("--text-columns")
            .map(|v| v.split(',').map(str::to_string).collect())
            .unwrap_or_default(),
    }
}

fn cmd_estimate(args: &Args, validate: bool) -> Result<(), String> {
    let train_path = PathBuf::from(args.required("--train")?);
    let serving_path = PathBuf::from(args.required("--serving")?);
    let label = args.required("--label")?;
    let options = csv_options(args);
    let kind = model_kind(args)?;
    let mut rng = StdRng::seed_from_u64(seed_of(args)?);
    // Checked before any training, so a bad value fails at once.
    let threshold = if validate {
        let t = args.required("--threshold")?.parse::<f64>().ok();
        Some(
            t.filter(|t| (0.0..1.0).contains(t))
                .ok_or("--threshold must be a number in [0, 1)")?,
        )
    } else {
        None
    };

    let source = read_csv_file(&train_path, label, &options).map_err(|e| e.to_string())?;
    let serving = std::fs::read_to_string(&serving_path)
        .map_err(|e| format!("cannot read {}: {e}", serving_path.display()))?;
    let (serving, serving_labeled) =
        read_serving_csv_str(&serving, label, &source).map_err(|e| e.to_string())?;

    eprintln!(
        "training {} model on {} rows...",
        kind.name(),
        source.n_rows()
    );
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(kind, &train, &mut rng).map_err(|e| e.to_string())?);
    let test_acc = lvp::models::model_accuracy(model.as_ref(), &test);
    eprintln!("held-out test accuracy: {test_acc:.4}");

    let gens = lvp::corruptions::standard_tabular_suite(test.schema());
    if let Some(threshold) = threshold {
        eprintln!("fitting performance validator (t = {threshold})...");
        let validator = PerformanceValidator::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &ValidatorConfig::fast(threshold),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let outcome = validator.validate(&serving).map_err(|e| e.to_string())?;
        println!(
            "verdict: {} (confidence the score is within {:.0}% of {:.4}: {:.3})",
            if outcome.within_threshold {
                "TRUST"
            } else {
                "ALARM"
            },
            threshold * 100.0,
            validator.test_score(),
            outcome.confidence
        );
    } else {
        eprintln!("fitting performance predictor...");
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &PredictorConfig::fast(),
            &mut rng,
        )
        .map_err(|e| e.to_string())?;
        let estimate = predictor.predict(&serving).map_err(|e| e.to_string())?;
        println!("estimated accuracy on serving batch: {estimate:.4}");
    }
    // If the serving file carried labels, print the true score for the
    // user's own comparison (the predictor never used them).
    if serving_labeled {
        let truth = lvp::models::model_accuracy(model.as_ref(), &serving);
        eprintln!("(serving file has labels; true accuracy for comparison: {truth:.4})");
    }
    Ok(())
}
