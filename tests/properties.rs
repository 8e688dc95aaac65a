//! Property-based tests over the workspace's core invariants.

use lvp_core::BatchSketch;
use lvp_corruptions::standard_tabular_suite;
use lvp_dataframe::{CellValue, ColumnType, DataFrameBuilder, Field, Schema};
use lvp_linalg::{stable_softmax, DenseMatrix};
use lvp_stats::{ks_two_sample, percentiles, QuantileSketch, VIGINTILE_GRID};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One numeric column `x` and one categorical column `c`.
fn mixed_schema() -> Schema {
    Schema::new(vec![
        Field::new("x", ColumnType::Numeric),
        Field::new("c", ColumnType::Categorical),
    ])
    .unwrap()
}

/// Builds a random small mixed frame from proptest-generated cells.
fn build_frame(nums: &[f64], cats: &[u8]) -> lvp_dataframe::DataFrame {
    let n = nums.len().min(cats.len());
    let mut b = DataFrameBuilder::new(mixed_schema(), vec!["n".into(), "y".into()]);
    for i in 0..n {
        b.push_row(
            vec![
                CellValue::Num(nums[i]),
                CellValue::Cat(format!("c{}", cats[i] % 5)),
            ],
            (i % 2) as u32,
        )
        .unwrap();
    }
    b.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn percentiles_are_bounded_and_monotone(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let qs = VIGINTILE_GRID;
        let out = percentiles(&values, &qs);
        let (min, max) = values.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        for w in out.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-9);
        }
        prop_assert!(out[0] >= min - 1e-9);
        prop_assert!(*out.last().unwrap() <= max + 1e-9);
    }

    #[test]
    fn percentile_boundaries_hit_min_and_max_exactly(
        values in prop::collection::vec(-1e6f64..1e6, 1..8),
    ) {
        // Small-n boundary contract: q = 0 is exactly min, q = 100 exactly
        // max (no interpolation slop, no out-of-bounds rank) — the regime
        // where tiny serving batches land.
        let out = percentiles(&values, &[0.0, 100.0]);
        let (min, max) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        prop_assert_eq!(out[0], min);
        prop_assert_eq!(out[1], max);
    }

    #[test]
    fn ks_statistic_is_in_unit_interval(
        a in prop::collection::vec(-100f64..100.0, 1..100),
        b in prop::collection::vec(-100f64..100.0, 1..100),
    ) {
        let out = ks_two_sample(&a, &b);
        prop_assert!((0.0..=1.0).contains(&out.statistic));
        prop_assert!((0.0..=1.0).contains(&out.p_value));
    }

    #[test]
    fn ks_is_symmetric(
        a in prop::collection::vec(-100f64..100.0, 1..60),
        b in prop::collection::vec(-100f64..100.0, 1..60),
    ) {
        let ab = ks_two_sample(&a, &b);
        let ba = ks_two_sample(&b, &a);
        prop_assert!((ab.statistic - ba.statistic).abs() < 1e-12);
    }

    #[test]
    fn ks_identical_sample_never_rejects(a in prop::collection::vec(-100f64..100.0, 1..100)) {
        let out = ks_two_sample(&a, &a);
        prop_assert_eq!(out.statistic, 0.0);
        prop_assert!(out.p_value > 0.99);
    }

    #[test]
    fn softmax_rows_are_distributions(
        logits in prop::collection::vec(-50f64..50.0, 2..40),
    ) {
        let cols = 2;
        let rows = logits.len() / cols;
        let m = DenseMatrix::from_vec(rows, cols, logits[..rows * cols].to_vec()).unwrap();
        let p = stable_softmax(&m);
        for row in p.row_iter() {
            let sum: f64 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(row.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn corruption_preserves_shape_schema_and_labels(
        nums in prop::collection::vec(-1000f64..1000.0, 4..60),
        cats in prop::collection::vec(0u8..255, 4..60),
        seed in 0u64..1000,
    ) {
        let df = build_frame(&nums, &cats);
        let mut rng = StdRng::seed_from_u64(seed);
        for gen in standard_tabular_suite(df.schema()) {
            let out = gen.corrupt(&df, &mut rng);
            prop_assert_eq!(out.n_rows(), df.n_rows());
            prop_assert_eq!(out.schema(), df.schema());
            prop_assert_eq!(out.labels(), df.labels());
        }
    }

    #[test]
    fn split_frac_partitions_rows(
        nums in prop::collection::vec(-10f64..10.0, 4..80),
        cats in prop::collection::vec(0u8..255, 4..80),
        frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let df = build_frame(&nums, &cats);
        let mut rng = StdRng::seed_from_u64(seed);
        let (a, b) = df.split_frac(frac, &mut rng);
        prop_assert_eq!(a.n_rows() + b.n_rows(), df.n_rows());
    }

    #[test]
    fn prediction_statistics_is_permutation_invariant(
        probs in prop::collection::vec(0.0f64..1.0, 4..50),
        seed in 0u64..1000,
    ) {
        use rand::seq::SliceRandom;
        let rows: Vec<Vec<f64>> = probs.iter().map(|&p| vec![p, 1.0 - p]).collect();
        let m = DenseMatrix::from_rows(&rows).unwrap();
        let f1 = lvp_core::prediction_statistics(&m);
        let mut shuffled = rows.clone();
        shuffled.shuffle(&mut StdRng::seed_from_u64(seed));
        let m2 = DenseMatrix::from_rows(&shuffled).unwrap();
        let f2 = lvp_core::prediction_statistics(&m2);
        for (a, b) in f1.iter().zip(&f2) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn cow_frames_match_deep_copied_frames_under_corruption(
        nums in prop::collection::vec(-1000f64..1000.0, 4..60),
        cats in prop::collection::vec(0u8..255, 4..60),
        seed in 0u64..1000,
    ) {
        let df = build_frame(&nums, &cats);
        // `deep_clone` physically copies every column, so corrupting it
        // exercises the plain ownership path; corrupting the CoW clone must
        // produce value-identical output and leave the original untouched.
        let original = df.deep_clone();
        let mut gens = standard_tabular_suite(df.schema());
        gens.extend(lvp_corruptions::extended_tabular_suite(df.schema()));
        for gen in gens {
            let deep = gen.corrupt(&df.deep_clone(), &mut StdRng::seed_from_u64(seed));
            let cow = gen.corrupt(&df.clone(), &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(&cow, &deep, "{}", gen.name());
            prop_assert_eq!(&df, &original, "{} mutated its input", gen.name());
            // Row re-selectors (empty touched set) rebuild storage even when
            // the row count happens to be unchanged, so only value-mutating
            // generators carry the sharing guarantee.
            let touched = gen.touched_columns(&df);
            if cow.n_rows() == df.n_rows() && !touched.is_empty() {
                // Every column the generator did not declare still shares
                // storage with the input frame.
                for col in 0..df.n_cols() {
                    if !touched.contains(&col) {
                        prop_assert!(
                            df.shares_column_storage(&cow, col),
                            "{} copied undeclared column {}", gen.name(), col
                        );
                    }
                }
            }
        }
    }

    /// The quantile sketch is a commutative monoid under merge: any
    /// parenthesization and any order over the same inputs yields
    /// bit-identical state (`PartialEq` on sketches is bit-identical, NaN
    /// sentinels included). This is the algebraic fact behind the
    /// shard-merged ≡ single-stream guarantee.
    #[test]
    fn quantile_sketch_merge_is_associative_and_commutative(
        a in prop::collection::vec(0.0f64..1.0, 0..80),
        b in prop::collection::vec(0.0f64..1.0, 0..80),
        c in prop::collection::vec(0.0f64..1.0, 0..80),
    ) {
        let sketch = |v: &[f64]| {
            let mut s = QuantileSketch::unit();
            s.extend(v.iter().copied());
            s
        };
        let (sa, sb, sc) = (sketch(&a), sketch(&b), sketch(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb).unwrap();
        left.merge(&sc).unwrap();
        // a ⊕ (b ⊕ c)
        let mut bc = sb.clone();
        bc.merge(&sc).unwrap();
        let mut right = sa.clone();
        right.merge(&bc).unwrap();
        prop_assert_eq!(&left, &right, "associativity");
        // b ⊕ a == a ⊕ b
        let mut ab = sa.clone();
        ab.merge(&sb).unwrap();
        let mut ba = sb.clone();
        ba.merge(&sa).unwrap();
        prop_assert_eq!(&ab, &ba, "commutativity");
        // Merged state ≡ single-stream state over the concatenation.
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        prop_assert_eq!(&ab, &sketch(&concat), "merge ≡ stream");
    }

    /// Percentiles queried from the sketch stay within the proven
    /// value-error bound of the exact sort-based oracle on adversarial
    /// input shapes: sorted, reversed, all-tied, and NaN-bearing.
    #[test]
    fn sketch_percentile_error_is_bounded_on_adversarial_inputs(
        values in prop::collection::vec(0.0f64..1.0, 1..400),
        shape in 0usize..4,
    ) {
        let mut values = values;
        match shape {
            0 => values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap()),
            1 => {
                values.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
                values.reverse();
            }
            2 => {
                let v = values[0];
                values.iter_mut().for_each(|x| *x = v);
            }
            _ => {
                // Poison every third cell, as a NaN-injecting corruption
                // would; both paths must drop them identically.
                values.iter_mut().skip(2).step_by(3).for_each(|x| *x = f64::NAN);
            }
        }
        let mut sketch = QuantileSketch::unit();
        sketch.extend(values.iter().copied());
        let qs = VIGINTILE_GRID;
        let exact = percentiles(&values, &qs);
        let mut approx = Vec::new();
        sketch.extend_percentiles(&qs, &mut approx);
        let bound = sketch.value_error_bound() + 1e-12;
        for (i, (e, s)) in exact.iter().zip(&approx).enumerate() {
            prop_assert!((e - s).abs() <= bound, "q {}: exact {} sketched {}", qs[i], e, s);
        }
    }

    /// Chunk boundaries and shard fan-out are invisible: any chunking of a
    /// batch and any sharding (merged in order) produce features
    /// bit-identical to the one-shot sketch of the whole batch.
    #[test]
    fn batch_sketch_features_are_chunking_and_sharding_invariant(
        probs in prop::collection::vec(0.0f64..1.0, 1..200),
        chunk in 1usize..64,
        shards in 1usize..6,
    ) {
        let rows: Vec<Vec<f64>> = probs.iter().map(|&p| vec![p, 1.0 - p]).collect();
        let m = DenseMatrix::from_rows(&rows).unwrap();
        let whole = BatchSketch::from_outputs(&m);

        let idx: Vec<usize> = (0..m.rows()).collect();
        let mut chunked = BatchSketch::new(2);
        for c in idx.chunks(chunk) {
            chunked.observe_chunk(&m.select_rows(c)).unwrap();
        }
        prop_assert_eq!(
            whole.prediction_statistics(),
            chunked.prediction_statistics()
        );

        let per_shard = idx.len().div_ceil(shards);
        let mut merged = BatchSketch::new(2);
        for shard_rows in idx.chunks(per_shard) {
            merged.merge(&BatchSketch::from_outputs(&m.select_rows(shard_rows))).unwrap();
        }
        let a = whole.prediction_statistics();
        let b = merged.prediction_statistics();
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
