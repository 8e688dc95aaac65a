//! Drives the `lvp` binary end to end: `datagen` writes heart data, and
//! `estimate` scores serving files that only parse against the training
//! file's schema and classes — no label column, a numeric column that is
//! entirely missing, and single-class slices of a labeled file.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A temporary directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("lvp-cli-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    /// Writes `lines` as a file and returns its name.
    fn write(&self, name: &str, lines: &[String]) -> String {
        std::fs::write(self.0.join(name), lines.join("\n") + "\n").unwrap();
        name.to_string()
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `lvp` in `dir`, returning its exit status, stdout and stderr.
fn lvp(dir: &Path, args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_lvp"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("lvp binary runs");
    (
        out.status.success(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

/// The number printed after `marker`, if the text has one.
fn number_after(text: &str, marker: &str) -> Option<f64> {
    let rest = &text[text.find(marker)? + marker.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    Some(rest[..end].parse().unwrap())
}

/// An estimate and, when the serving file is labeled, its true accuracy.
struct Run {
    estimate: f64,
    truth: Option<f64>,
}

/// Runs `lvp estimate --model lr` on `serving` against `train.csv`.
fn estimate(dir: &TempDir, serving: &str) -> Run {
    let args = [
        "estimate",
        "--train",
        "train.csv",
        "--serving",
        serving,
        "--label",
        "label",
        "--model",
        "lr",
    ];
    let (ok, stdout, stderr) = lvp(&dir.0, &args);
    assert!(ok, "estimate on {serving} failed:\n{stderr}");
    Run {
        estimate: number_after(&stdout, "estimated accuracy on serving batch: ")
            .unwrap_or_else(|| panic!("no estimate in {stdout:?}")),
        truth: number_after(&stderr, "true accuracy for comparison: "),
    }
}

/// Writes heart training and serving files and returns the serving
/// file's lines (header first, label last on every line).
fn heart_files(dir: &TempDir) -> Vec<String> {
    for (file, n, seed) in [("train.csv", "600", "1"), ("serve.csv", "200", "2")] {
        let args = [
            "datagen",
            "--dataset",
            "heart",
            "--n",
            n,
            "--out",
            file,
            "--seed",
            seed,
        ];
        let (ok, _, stderr) = lvp(&dir.0, &args);
        assert!(ok, "datagen failed:\n{stderr}");
    }
    let serving = std::fs::read_to_string(dir.0.join("serve.csv")).unwrap();
    assert!(serving.lines().next().unwrap().ends_with(",label"));
    serving.lines().map(str::to_string).collect()
}

#[test]
fn an_unlabeled_serving_file_gets_an_estimate_and_no_true_accuracy() {
    let dir = TempDir::new("unlabeled");
    let lines = heart_files(&dir);
    let unlabeled: Vec<String> = lines
        .iter()
        .map(|l| l.rsplit_once(',').unwrap().0.to_string())
        .collect();
    let file = dir.write("unlabeled.csv", &unlabeled);
    let run = estimate(&dir, &file);
    assert!((0.0..=1.0).contains(&run.estimate), "{}", run.estimate);
    assert_eq!(run.truth, None, "no labels, no true accuracy");
    // The labels never reach the estimate.
    assert_eq!(estimate(&dir, "serve.csv").estimate, run.estimate);
}

#[test]
fn a_fully_missing_numeric_column_is_scored_not_rejected() {
    let dir = TempDir::new("missing");
    let lines = heart_files(&dir);
    let col = lines[0].split(',').position(|h| h == "ap_hi").unwrap();
    let mut blanked = vec![lines[0].clone()];
    for line in &lines[1..] {
        let mut fields: Vec<&str> = line.split(',').collect();
        fields[col] = "";
        blanked.push(fields.join(","));
    }
    let file = dir.write("missing.csv", &blanked);
    let run = estimate(&dir, &file);
    assert!((0.0..=1.0).contains(&run.estimate), "{}", run.estimate);
    assert!(run.truth.is_some());
}

#[test]
fn one_class_slices_report_the_accuracy_of_the_whole_file() {
    let dir = TempDir::new("halves");
    let lines = heart_files(&dir);
    let full = estimate(&dir, "serve.csv").truth.expect("labeled");
    let label = |l: &String| l.rsplit_once(',').unwrap().1.to_string();
    let mut classes: Vec<String> = lines[1..].iter().map(label).collect();
    classes.sort();
    classes.dedup();
    assert_eq!(classes, ["cardio", "healthy"]);
    let mut weighted = 0.0;
    for class in &classes {
        let mut slice = vec![lines[0].clone()];
        slice.extend(lines[1..].iter().filter(|l| label(l) == *class).cloned());
        let file = dir.write(&format!("{class}.csv"), &slice);
        let truth = estimate(&dir, &file).truth.expect("labeled");
        weighted += truth * (slice.len() - 1) as f64;
    }
    weighted /= (lines.len() - 1) as f64;
    // Each printed accuracy is rounded to 4 decimals.
    assert!(
        (weighted - full).abs() <= 1e-4 + 1e-12,
        "slices weigh up to {weighted:.6}, the whole file prints {full:.4}"
    );

    // A label training never saw is an error that names it.
    let mut unseen = lines[..2].to_vec();
    unseen[1] = format!("{},sick", unseen[1].rsplit_once(',').unwrap().0);
    let file = dir.write("unseen.csv", &unseen);
    let args = [
        "estimate",
        "--train",
        "train.csv",
        "--serving",
        &file,
        "--label",
        "label",
    ];
    let (ok, _, stderr) = lvp(&dir.0, &args);
    assert!(
        !ok && stderr.contains("unknown class label: sick"),
        "{stderr}"
    );
}

#[test]
fn bad_flags_exit_non_zero_and_name_the_flag() {
    let dir = TempDir::new("flags");
    let datagen = [
        "datagen",
        "--dataset",
        "heart",
        "--n",
        "50",
        "--out",
        "x.csv",
    ];
    let estimate = [
        "estimate",
        "--train",
        "t.csv",
        "--serving",
        "s.csv",
        "--label",
        "y",
    ];
    let validate = [
        "validate",
        "--train",
        "t.csv",
        "--serving",
        "s.csv",
        "--label",
        "y",
    ];
    let cases: [(&[&str], &[&str], &str); 8] = [
        (&datagen, &["--seed", "abc"], "--seed"),
        (&datagen, &["--seed"], "--seed"),
        (&datagen, &["--rows", "9"], "--rows"),
        (&estimate, &["--modle", "lr"], "--modle"),
        (&estimate, &["--threshold", "0.05"], "--threshold"),
        (&validate, &["--threshold", "1"], "[0, 1)"),
        (&validate, &["--threshold", "x"], "[0, 1)"),
        (&validate, &["--threshold", "0.05", "extra"], "'extra'"),
    ];
    for (command, extra, named) in cases {
        let args: Vec<&str> = command.iter().chain(extra).copied().collect();
        let (ok, _, stderr) = lvp(&dir.0, &args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    assert!(!dir.0.join("x.csv").exists(), "no run with a bad flag");
}
