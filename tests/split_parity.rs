//! Histogram-vs-exact split parity: same data and seeds, both split
//! methods, the fig2/fig5-style pipelines must reach equivalent decisions
//! — and both split methods must stay bit-identical across thread counts,
//! including through the blocked inference kernels.
//!
//! Run under `RAYON_NUM_THREADS=1` and `=4` in CI; the thread-count tests
//! below additionally pin pools of both sizes against each other inside a
//! single process.

use lvp_core::{PerformancePredictor, PerformanceValidator, PredictorConfig, ValidatorConfig};
use lvp_corruptions::{standard_tabular_suite, ErrorGen, Mixture};
use lvp_linalg::{CsrBuilder, CsrMatrix};
use lvp_models::forest::{default_forest_grid, ForestConfig, RandomForestRegressor};
use lvp_models::gbdt::{GbdtClassifier, GbdtConfig};
use lvp_models::tree::{RegressionTree, SplitMethod, TrainingColumns, TreeParams};
use lvp_models::{model_accuracy, train_model_quick, BlackBoxModel, Classifier, ModelKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const METHODS: [SplitMethod; 2] = [SplitMethod::Exact, SplitMethod::Histogram];

/// Fig2-style check: the validator accepts clean serving batches and its
/// corrupt/clean decisions agree across split methods on a seeded batch
/// stream.
#[test]
fn validator_decisions_agree_across_split_methods() {
    let mut rng = StdRng::seed_from_u64(41);
    let df = lvp::datasets::heart(1_000, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Xgb, &train, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());

    let validators: Vec<PerformanceValidator> = METHODS
        .iter()
        .map(|&method| {
            let mut config = ValidatorConfig::fast(0.05);
            config.runs_per_generator = 30;
            config.gbdt.split_method = method;
            PerformanceValidator::fit(
                Arc::clone(&model),
                &test,
                &gens,
                &config,
                &mut StdRng::seed_from_u64(42),
            )
            .unwrap()
        })
        .collect();

    for v in &validators {
        assert!(
            v.validate(&serving).unwrap().within_threshold,
            "clean serving data must pass"
        );
    }

    // Alternate clean and corrupted batches. The two validators may split
    // on a batch whose corruption lands right at the decision boundary —
    // but then both must report similar, boundary-straddling confidence.
    // A disagreement where the confidences are far apart would mean the
    // split methods learned genuinely different validators.
    let mixture = Mixture::from_boxes(standard_tabular_suite(serving.schema()));
    let mut batch_rng = StdRng::seed_from_u64(43);
    let total = 12;
    let mut hard_disagreements = Vec::new();
    let mut soft_disagreements = 0;
    for i in 0..total {
        let batch = serving.sample_n(250, &mut batch_rng);
        let batch = if i % 2 == 0 {
            batch
        } else {
            mixture.corrupt(&batch, &mut batch_rng)
        };
        let a = validators[0].validate(&batch).unwrap();
        let b = validators[1].validate(&batch).unwrap();
        if a.within_threshold != b.within_threshold {
            if (a.confidence - b.confidence).abs() < 0.25 {
                soft_disagreements += 1;
            } else {
                hard_disagreements.push(format!("batch {i}: exact {a:?} vs histogram {b:?}"));
            }
        }
    }
    assert!(
        hard_disagreements.is_empty(),
        "confident disagreements: {hard_disagreements:?}"
    );
    assert!(
        soft_disagreements <= 2,
        "{soft_disagreements}/{total} boundary batches split the validators"
    );
}

/// Fig5-style check: the performance predictor's accuracy estimate stays
/// close to the truth — and to its counterpart — under either split
/// method for the meta-forest.
#[test]
fn predictor_estimates_agree_across_split_methods() {
    let mut rng = StdRng::seed_from_u64(51);
    let df = lvp::datasets::income(500, &mut rng);
    let (source, serving) = df.split_frac(0.5, &mut rng);
    let (train, test) = source.split_frac(0.7, &mut rng);
    let model: Arc<dyn BlackBoxModel> =
        Arc::from(train_model_quick(ModelKind::Lr, &train, &mut rng).unwrap());
    let gens = standard_tabular_suite(test.schema());
    let truth = model_accuracy(model.as_ref(), &serving);

    let mut estimates = [0.0f64; 2];
    for (slot, &method) in METHODS.iter().enumerate() {
        let mut config = PredictorConfig::fast();
        for cfg in &mut config.forest_grid {
            cfg.split_method = method;
        }
        let predictor = PerformancePredictor::fit(
            Arc::clone(&model),
            &test,
            &gens,
            &config,
            &mut StdRng::seed_from_u64(52),
        )
        .unwrap();
        estimates[slot] = predictor.predict(&serving).unwrap();
        assert!(
            (estimates[slot] - truth).abs() < 0.15,
            "{method:?} estimate {} vs truth {truth}",
            estimates[slot]
        );
    }
    assert!(
        (estimates[0] - estimates[1]).abs() < 0.1,
        "estimate gap {estimates:?}"
    );
}

/// Both split finders place a threshold by one rule. After a run of `-inf`
/// it is `f64::MIN`, since a `-inf` midpoint is no storable threshold.
/// Between two adjacent floats, whose midpoint rounds up to the larger, it
/// is the smaller value. So both methods route every value alike.
#[test]
fn exact_and_histogram_trees_split_after_a_negative_infinity_run_alike() {
    let ninf = f64::NEG_INFINITY;
    let (lo, hi) = (1.0 + f64::EPSILON, 1.0 + 2.0 * f64::EPSILON);
    let cases: [(Vec<f64>, Vec<f64>, f64, f64); 2] = [
        (
            vec![ninf, ninf, 1.0, 2.0, 3.0],
            vec![5.0, 5.0, 0.0, 0.0, 0.0],
            ninf,
            1.0,
        ),
        (vec![lo, lo, hi, hi], vec![5.0, 5.0, 0.0, 0.0], lo, hi),
    ];
    let params = TreeParams {
        max_depth: 1,
        min_samples_leaf: 1,
        lambda: 0.0,
        ..TreeParams::default()
    };
    for (column, y, left, right) in cases {
        let x = lvp_linalg::DenseMatrix::from_rows(
            &column.iter().map(|&v| vec![v]).collect::<Vec<_>>(),
        )
        .unwrap();
        let grad: Vec<f64> = y.iter().map(|v| -v).collect();
        let hess = vec![1.0; y.len()];
        let rows: Vec<usize> = (0..y.len()).collect();
        let [exact, binned] = METHODS.map(|method| {
            let columns = TrainingColumns::from_dense(&x, method);
            RegressionTree::fit(
                &columns,
                &grad,
                &hess,
                &rows,
                &params,
                &mut StdRng::seed_from_u64(81),
            )
        });
        for v in [
            ninf,
            f64::MIN,
            -1.0,
            1.0,
            lo,
            hi,
            3.0,
            f64::INFINITY,
            f64::NAN,
        ] {
            let p = exact.predict_dense_row(&[v]);
            assert_eq!(p.to_bits(), binned.predict_dense_row(&[v]).to_bits(), "{v}");
        }
        assert_eq!(exact.predict_dense_row(&[left]), 5.0, "{column:?}");
        assert_eq!(exact.predict_dense_row(&[right]), 0.0, "{column:?}");
    }
}

fn rings(n: usize, seed: u64) -> (CsrMatrix, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows = CsrBuilder::new(2);
    let mut labels = Vec::new();
    for _ in 0..n {
        let a: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let y = u32::from(rng.gen_bool(0.5));
        let r = if y == 0 {
            rng.gen_range(0.0..0.5)
        } else {
            rng.gen_range(0.8..1.2)
        };
        rows.push_row_pairs(&mut vec![(0, r * a.cos()), (1, r * a.sin())])
            .unwrap();
        labels.push(y);
    }
    (rows.finish(), labels)
}

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
}

/// Both split methods must produce bit-identical GBDT models and blocked
/// predictions regardless of thread count.
#[test]
fn gbdt_training_and_blocked_inference_are_thread_count_invariant() {
    for method in METHODS {
        let run = |threads: usize| -> Vec<u64> {
            pool(threads).install(|| {
                let (x, y) = rings(240, 61);
                let cfg = GbdtConfig {
                    split_method: method,
                    ..GbdtConfig::default()
                };
                let model =
                    GbdtClassifier::fit(&x, &y, 2, &cfg, &mut StdRng::seed_from_u64(62)).unwrap();
                model
                    .predict_proba(&x)
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect()
            })
        };
        assert_eq!(run(1), run(4), "{method:?}");
    }
}

/// The forest's parallel tree fitting, blocked `predict` /
/// `predict_per_tree` and cross-validated grid search over the paper's
/// tree counts must be bit-identical across thread counts for both split
/// methods.
#[test]
fn forest_training_and_blocked_inference_are_thread_count_invariant() {
    let mut rng = StdRng::seed_from_u64(71);
    let rows: Vec<Vec<f64>> = (0..300)
        .map(|_| (0..8).map(|_| rng.gen_range(-2.0..2.0)).collect())
        .collect();
    let x = lvp_linalg::DenseMatrix::from_rows(&rows).unwrap();
    let y: Vec<f64> = rows.iter().map(|r| r[0] * r[1] + r[2].sin()).collect();
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|v| v.to_bits()).collect() };
    for method in METHODS {
        let run = |threads: usize| -> [Vec<u64>; 3] {
            pool(threads).install(|| {
                let cfg = ForestConfig {
                    n_trees: 20,
                    split_method: method,
                    ..ForestConfig::default()
                };
                let model =
                    RandomForestRegressor::fit(&x, &y, &cfg, &mut StdRng::seed_from_u64(72))
                        .unwrap();
                let grid: Vec<ForestConfig> = default_forest_grid()
                    .into_iter()
                    .map(|c| ForestConfig {
                        split_method: method,
                        ..c
                    })
                    .collect();
                let (cv_model, cv_cfg) =
                    RandomForestRegressor::fit_cv(&x, &y, &grid, 5, &mut StdRng::seed_from_u64(73))
                        .unwrap();
                let mut cv = bits(&cv_model.predict(&x));
                cv.push(cv_cfg.n_trees as u64);
                [
                    bits(&model.predict(&x)),
                    bits(model.predict_per_tree(&x).data()),
                    cv,
                ]
            })
        };
        assert_eq!(run(1), run(4), "{method:?}");
    }
}

/// One node of a tree as artifacts store it, walked node by node: the
/// reference the flat inference kernel must reproduce bit for bit.
enum RefNode {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

/// A reference tree: its stored node list, each split before its children.
struct RefTree(Vec<RefNode>);

impl RefTree {
    /// A random tree no deeper than `max_depth` splitting on features
    /// `0..n_features`, at thresholds drawn from `thresholds`.
    fn random(rng: &mut StdRng, max_depth: usize, n_features: usize, thresholds: &[f64]) -> Self {
        fn grow(
            nodes: &mut Vec<RefNode>,
            rng: &mut StdRng,
            depth: usize,
            n_features: usize,
            thresholds: &[f64],
        ) -> usize {
            let at = nodes.len();
            nodes.push(RefNode::Leaf(rng.gen_range(-4.0..4.0)));
            if depth == 0 || rng.gen_bool(0.25) {
                return at;
            }
            let left = grow(nodes, rng, depth - 1, n_features, thresholds);
            let right = grow(nodes, rng, depth - 1, n_features, thresholds);
            nodes[at] = RefNode::Split {
                feature: rng.gen_range(0..n_features),
                threshold: thresholds[rng.gen_range(0..thresholds.len())],
                left,
                right,
            };
            at
        }
        let mut nodes = Vec::new();
        grow(&mut nodes, rng, max_depth, n_features, thresholds);
        Self(nodes)
    }

    /// The stored form, `{"nodes": [...]}`.
    fn to_json(&self) -> String {
        let num = |v: f64| serde_json::to_string(&v).unwrap();
        let nodes: Vec<String> = self
            .0
            .iter()
            .map(|node| match *node {
                RefNode::Leaf(value) => format!(r#"{{"Leaf":{{"value":{}}}}}"#, num(value)),
                RefNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => format!(
                    r#"{{"Split":{{"feature":{feature},"threshold":{},"left":{left},"right":{right}}}}}"#,
                    num(threshold)
                ),
            })
            .collect();
        format!(r#"{{"nodes":[{}]}}"#, nodes.join(","))
    }

    /// Node-by-node walk of one dense row.
    fn walk(&self, row: &[f64]) -> f64 {
        let mut at = 0;
        loop {
            match self.0[at] {
                RefNode::Leaf(value) => return value,
                RefNode::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    at = if row[feature] <= threshold {
                        left
                    } else {
                        right
                    }
                }
            }
        }
    }
}

/// The flat, level-synchronous inference kernel against a node-by-node
/// walk, bit for bit, on random trees loaded through their stored form:
/// single leaves and depths up to 12, feature values that are NaN, ±inf
/// or -0.0, sparse rows with implicit zeros, row counts around the
/// 64-row block, and matrices wider than any split feature.
#[test]
fn tree_kernel_matches_a_node_walk_on_random_trees() {
    const N_FEATURES: usize = 6;
    const WIDTH: usize = N_FEATURES + 3;
    let (inf, nan) = (f64::INFINITY, f64::NAN);
    let thresholds = [-1.5, -0.25, 0.0, -0.0, 0.5, 1.0, 2.75, f64::MIN, f64::MAX];
    let values = [
        nan,
        inf,
        -inf,
        -0.0,
        0.0,
        0.5,
        -0.25,
        1.0,
        3.0,
        f64::MIN_POSITIVE,
    ];
    let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|v| v.to_bits()).collect() };
    for seed in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let n_rows = [1, 63, 64, 65, 130][seed as usize % 5];
        let rows: Vec<Vec<f64>> = (0..n_rows)
            .map(|_| {
                (0..WIDTH)
                    .map(|_| match rng.gen_range(0..3) {
                        0 => values[rng.gen_range(0..values.len())],
                        1 => 0.0,
                        _ => rng.gen_range(-3.0..3.0),
                    })
                    .collect()
            })
            .collect();
        let dense = lvp_linalg::DenseMatrix::from_rows(&rows).unwrap();
        // Zeros are stored or left implicit at random.
        let mut builder = CsrBuilder::new(WIDTH);
        for row in &rows {
            let mut pairs: Vec<(u32, f64)> = (0..WIDTH)
                .filter(|&c| row[c] != 0.0 || rng.gen_bool(0.5))
                .map(|c| (c as u32, row[c]))
                .collect();
            builder.push_row_pairs(&mut pairs).unwrap();
        }
        let sparse = builder.finish();

        // Tree `t` is at most `t % 13` deep; the first is a lone leaf.
        let trees: Vec<RefTree> = (0..26)
            .map(|t| RefTree::random(&mut rng, t % 13, N_FEATURES, &thresholds))
            .collect();
        let stored: Vec<String> = trees.iter().map(RefTree::to_json).collect();

        // Forest: every tree's leaf per row, and their mean.
        let forest: RandomForestRegressor =
            serde_json::from_str(&format!(r#"{{"trees":[{}]}}"#, stored.join(","))).unwrap();
        let per_tree = forest.predict_per_tree(&dense);
        let means = forest.predict(&dense);
        for (r, row) in rows.iter().enumerate() {
            let expected: Vec<f64> = trees.iter().map(|t| t.walk(row)).collect();
            assert_eq!(
                bits(per_tree.row(r)),
                bits(&expected),
                "seed {seed} row {r}"
            );
            assert_eq!(bits(&forest.predict_per_tree_row(row)), bits(&expected));
            let mean = expected.iter().fold(0.0, |s, v| s + v) / expected.len() as f64;
            assert_eq!(means[r].to_bits(), mean.to_bits(), "seed {seed} row {r}");
        }

        // Boosting over sparse rows: 13 rounds of two classes.
        let rounds: Vec<String> = stored
            .chunks(2)
            .map(|pair| format!("[{}]", pair.join(",")))
            .collect();
        let learning_rate = 0.3;
        let boosted: GbdtClassifier = serde_json::from_str(&format!(
            r#"{{"trees":[{}],"learning_rate":{learning_rate},"n_classes":2}}"#,
            rounds.join(",")
        ))
        .unwrap();
        let mut logits = lvp_linalg::DenseMatrix::zeros(n_rows, 2);
        for (r, row) in rows.iter().enumerate() {
            for pair in trees.chunks(2) {
                for (k, tree) in pair.iter().enumerate() {
                    logits.set(r, k, logits.get(r, k) + learning_rate * tree.walk(row));
                }
            }
        }
        assert_eq!(
            bits(boosted.predict_proba(&sparse).data()),
            bits(lvp_linalg::stable_softmax(&logits).data()),
            "seed {seed}"
        );
    }
}
