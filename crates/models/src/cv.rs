//! K-fold cross-validation and grid-search helpers.
//!
//! The paper trains every model with five-fold cross-validation and a grid
//! search over its key hyperparameters (§6 "Models", §4 for the random
//! forest meta-model). [`kfold_select`] implements that protocol once,
//! generically over the model family, and every `fit_cv` in this crate
//! calls it.

use crate::{Classifier, ModelError};
use lvp_linalg::CsrMatrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Selects a configuration from `grid` by `k`-fold cross-validation.
///
/// `hosts[i]` names the candidate whose fit also scores candidate `i`: a
/// host hosts itself, and every fit of a host is scored once per
/// candidate it hosts. Draws the folds from `rng`, then one seed per
/// candidate; candidates take the seeds from the back, and each host fits
/// from its own seed. For each host, `fit(host, train_rows, fold_rng)`
/// trains on every fold's training rows and `score(model, candidate,
/// validation_rows)` rates the fit for each hosted candidate on the
/// held-out rows (higher is better). A candidate scores the mean over its
/// folds, or −∞ as soon as one fit of its host fails; the winner is chosen
/// by [`grid_search_max`]. With every candidate its own host this is plain
/// grid search, and a host's own score never depends on what else it
/// hosts.
///
/// With fewer rows than folds some validation folds would be empty, so the
/// first candidate wins without drawing anything. A one-candidate grid
/// wins whatever its folds score, so it still draws the folds and its seed
/// but fits nothing. Either way the caller refits the returned
/// configuration on all rows with `rng`, from the same stream.
///
/// Errors on an empty grid, before drawing anything. Panics unless
/// `hosts` has one entry per candidate and names only candidates that host
/// themselves.
pub fn kfold_select<C: Clone, M>(
    n_rows: usize,
    grid: &[C],
    hosts: &[usize],
    k: usize,
    rng: &mut impl Rng,
    mut fit: impl FnMut(&C, &[usize], &mut StdRng) -> Result<M, ModelError>,
    mut score: impl FnMut(&M, &C, &[usize]) -> f64,
) -> Result<C, ModelError> {
    assert!(
        hosts.len() == grid.len() && hosts.iter().all(|&h| hosts.get(h) == Some(&h)),
        "every candidate needs a host that hosts itself"
    );
    let first = grid
        .first()
        .ok_or_else(|| ModelError::new("empty hyperparameter grid"))?;
    if n_rows < k {
        return Ok(first.clone());
    }
    let folds = kfold_indices(n_rows, k, rng);
    let seeds: Vec<u64> = (0..grid.len()).map(|_| rng.gen()).collect();
    if grid.len() == 1 {
        return Ok(first.clone());
    }
    let mut totals = vec![0.0; grid.len()];
    for host in (0..grid.len()).filter(|&h| hosts[h] == h) {
        let hosted: Vec<usize> = (0..grid.len()).filter(|&i| hosts[i] == host).collect();
        let mut local = StdRng::seed_from_u64(seeds[grid.len() - 1 - host]);
        for (train_rows, val_rows) in &folds {
            let Ok(model) = fit(&grid[host], train_rows, &mut local) else {
                hosted.iter().for_each(|&i| totals[i] = f64::NEG_INFINITY);
                break;
            };
            for &i in &hosted {
                totals[i] += score(&model, &grid[i], val_rows);
            }
        }
    }
    let candidates: Vec<usize> = (0..grid.len()).collect();
    let (best, _) = grid_search_max(&candidates, |&i| totals[i] / folds.len() as f64);
    Ok(grid[best].clone())
}

/// [`kfold_select`] for a classifier family: `fit(x, labels, candidate,
/// fold_rng)` trains on each fold's rows of `x` for every candidate alone
/// (each candidate hosts itself), and the fit is scored by its
/// [`accuracy`] on the held-out rows.
pub(crate) fn kfold_select_classifier<C: Clone, M: Classifier>(
    x: &CsrMatrix,
    labels: &[u32],
    grid: &[C],
    k: usize,
    rng: &mut impl Rng,
    mut fit: impl FnMut(&CsrMatrix, &[u32], &C, &mut StdRng) -> Result<M, ModelError>,
) -> Result<C, ModelError> {
    let own_hosts: Vec<usize> = (0..grid.len()).collect();
    kfold_select(
        x.rows(),
        grid,
        &own_hosts,
        k,
        rng,
        |candidate, rows, local| {
            let (xt, yt) = select_labeled(x, labels, rows);
            fit(&xt, &yt, candidate, local)
        },
        |model, _, rows| {
            let (xv, yv) = select_labeled(x, labels, rows);
            accuracy(model, &xv, &yv)
        },
    )
}

/// The given rows of `x` together with their labels.
pub(crate) fn select_labeled(
    x: &CsrMatrix,
    labels: &[u32],
    rows: &[usize],
) -> (CsrMatrix, Vec<u32>) {
    (
        x.select_rows(rows),
        rows.iter().map(|&i| labels[i]).collect(),
    )
}

/// Accuracy of `model`'s most probable class on `x` against `labels`: the
/// score every classifier selection in this crate maximizes.
pub(crate) fn accuracy(model: &dyn Classifier, x: &CsrMatrix, labels: &[u32]) -> f64 {
    let truth: Vec<usize> = labels.iter().map(|&l| l as usize).collect();
    lvp_stats::accuracy(&model.predict_proba(x).argmax_rows(), &truth)
}

/// Produces `k` (train, validation) index partitions of `0..n`.
///
/// Rows are shuffled once, then each fold takes a contiguous slice as its
/// validation set; folds are disjoint and cover all rows.
pub fn kfold_indices(n: usize, k: usize, rng: &mut impl Rng) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2, "need at least two folds");
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(rng);
    let mut folds = Vec::with_capacity(k);
    for f in 0..k {
        let lo = n * f / k;
        let hi = n * (f + 1) / k;
        let val: Vec<usize> = idx[lo..hi].to_vec();
        let train: Vec<usize> = idx[..lo].iter().chain(&idx[hi..]).copied().collect();
        folds.push((train, val));
    }
    folds
}

/// Exhaustive grid search: evaluates `score_fn(candidate)` (higher is
/// better) for every candidate and returns the best one with its score.
///
/// NaN scores lose explicitly: a NaN never replaces an incumbent, and any
/// non-NaN score replaces a NaN incumbent. (With a plain `s > best`
/// comparison a NaN incumbent — e.g. from an accuracy over an empty
/// validation fold — would silently win against every later candidate.)
///
/// Panics on an empty grid — a grid search without candidates is a bug at
/// the call site.
pub fn grid_search_max<C: Clone>(
    candidates: &[C],
    mut score_fn: impl FnMut(&C) -> f64,
) -> (C, f64) {
    assert!(!candidates.is_empty(), "empty hyperparameter grid");
    let mut best: Option<(C, f64)> = None;
    for c in candidates {
        let s = score_fn(c);
        let better = match &best {
            None => true,
            Some((_, bs)) => s > *bs || (bs.is_nan() && !s.is_nan()),
        };
        if better {
            best = Some((c.clone(), s));
        }
    }
    best.expect("non-empty grid produced a winner")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn folds_partition_all_rows() {
        let mut rng = StdRng::seed_from_u64(1);
        let folds = kfold_indices(103, 5, &mut rng);
        assert_eq!(folds.len(), 5);
        let mut seen = [false; 103];
        for (train, val) in &folds {
            assert_eq!(train.len() + val.len(), 103);
            for &i in val {
                assert!(!seen[i], "row {i} in two validation folds");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every row validates exactly once");
    }

    #[test]
    fn train_and_val_are_disjoint() {
        let mut rng = StdRng::seed_from_u64(2);
        for (train, val) in kfold_indices(50, 5, &mut rng) {
            for v in &val {
                assert!(!train.contains(v));
            }
        }
    }

    /// Counts the fits and returns the candidate itself as the "model",
    /// so the score can rank candidates directly.
    fn select(n_rows: usize, grid: &[u8], rng: &mut StdRng) -> (Result<u8, ModelError>, usize) {
        let mut fits = 0;
        let own_hosts: Vec<usize> = (0..grid.len()).collect();
        let chosen = kfold_select(
            n_rows,
            grid,
            &own_hosts,
            5,
            rng,
            |&c, _, _| {
                fits += 1;
                if c == 0 {
                    Err(ModelError::new("cannot fit"))
                } else {
                    Ok(c)
                }
            },
            |_, &c, _| f64::from(c),
        );
        (chosen, fits)
    }

    #[test]
    fn kfold_select_fits_each_host_once_per_fold_from_its_own_seed() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut fitted = Vec::new();
        let mut scored = Vec::new();
        let chosen = kfold_select(
            40,
            &[3u8, 9, 5, 8, 0],
            &[1, 1, 2, 4, 4],
            5,
            &mut rng,
            |&host, _, local| {
                fitted.push((host, local.gen::<u64>()));
                if host == 0 {
                    Err(ModelError::new("cannot fit"))
                } else {
                    Ok(host)
                }
            },
            |&host, &c, _| {
                scored.push((host, c));
                f64::from(c)
            },
        );
        // The failed host takes its guest 8 down with it.
        assert_eq!(chosen.unwrap(), 9);
        let mut expected = StdRng::seed_from_u64(7);
        kfold_indices(40, 5, &mut expected);
        let seeds: Vec<u64> = (0..5).map(|_| expected.gen()).collect();
        let first_draw = |seed| StdRng::seed_from_u64(seed).gen::<u64>();
        // Candidate i takes seeds[4 - i]; each host fits from its own.
        assert_eq!(fitted.len(), 5 + 5 + 1);
        assert_eq!(fitted[0], (9, first_draw(seeds[3])));
        assert_eq!(fitted[5], (5, first_draw(seeds[2])));
        assert_eq!(fitted[10], (0, first_draw(seeds[0])));
        assert_eq!(scored.len(), 2 * 5 + 5);
        assert_eq!(scored[..3], [(9, 3), (9, 9), (9, 3)]);
        assert_eq!(rng.gen::<u64>(), expected.gen::<u64>());
    }

    #[test]
    #[should_panic(expected = "host that hosts itself")]
    fn kfold_select_rejects_a_host_that_is_hosted_elsewhere() {
        let mut rng = StdRng::seed_from_u64(8);
        let _ = kfold_select(
            40,
            &[1u8, 2, 3],
            &[1, 2, 2],
            5,
            &mut rng,
            |&c, _, _| Ok(c),
            |_, &c, _| f64::from(c),
        );
    }

    #[test]
    fn kfold_select_cross_validates_every_candidate() {
        let mut rng = StdRng::seed_from_u64(3);
        let (chosen, fits) = select(40, &[2, 7, 0, 5], &mut rng);
        assert_eq!(chosen.unwrap(), 7);
        // A failed fit scores −∞ at its first fold and skips the rest.
        assert_eq!(fits, 5 + 5 + 1 + 5);
    }

    #[test]
    fn kfold_select_takes_the_first_candidate_below_k_rows_without_drawing() {
        let mut rng = StdRng::seed_from_u64(4);
        let (chosen, fits) = select(4, &[2, 7], &mut rng);
        assert_eq!(chosen.unwrap(), 2);
        assert_eq!(fits, 0);
        assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(4).gen::<u64>());
    }

    #[test]
    fn kfold_select_fits_nothing_for_one_candidate_but_draws_as_if_it_had() {
        let mut rng = StdRng::seed_from_u64(6);
        let (chosen, fits) = select(40, &[0], &mut rng);
        // The lone candidate wins even though every fit of it would fail.
        assert_eq!(chosen.unwrap(), 0);
        assert_eq!(fits, 0);
        let mut expected = StdRng::seed_from_u64(6);
        kfold_indices(40, 5, &mut expected);
        let _seed: u64 = expected.gen();
        assert_eq!(rng.gen::<u64>(), expected.gen::<u64>());
    }

    #[test]
    fn kfold_select_rejects_an_empty_grid_without_drawing() {
        for n_rows in [4, 40] {
            let mut rng = StdRng::seed_from_u64(5);
            let (chosen, fits) = select(n_rows, &[], &mut rng);
            assert!(chosen
                .unwrap_err()
                .message
                .contains("empty hyperparameter grid"));
            assert_eq!(fits, 0);
            assert_eq!(rng.gen::<u64>(), StdRng::seed_from_u64(5).gen::<u64>());
        }
    }

    #[test]
    fn grid_search_picks_maximum() {
        let grid = [1, 5, 3];
        let (best, score) = grid_search_max(&grid, |&c| f64::from(c));
        assert_eq!(best, 5);
        assert_eq!(score, 5.0);
    }

    #[test]
    #[should_panic(expected = "empty hyperparameter grid")]
    fn grid_search_rejects_empty_grid() {
        grid_search_max::<u8>(&[], |_| 0.0);
    }

    /// Satellite-2 regression test: a NaN score for the first candidate
    /// must not shadow every later finite score.
    #[test]
    fn nan_incumbent_loses_to_any_finite_score() {
        let grid = [1, 2, 3];
        let (best, score) = grid_search_max(&grid, |&c| match c {
            1 => f64::NAN,
            2 => -5.0,
            _ => -7.0,
        });
        assert_eq!(best, 2);
        assert_eq!(score, -5.0);
    }

    #[test]
    fn nan_candidate_never_replaces_finite_incumbent() {
        let grid = [1, 2];
        let (best, score) = grid_search_max(&grid, |&c| if c == 1 { 0.5 } else { f64::NAN });
        assert_eq!(best, 1);
        assert_eq!(score, 0.5);
    }

    #[test]
    fn all_nan_scores_fall_back_to_first_candidate() {
        let grid = [7, 8];
        let (best, score) = grid_search_max(&grid, |_| f64::NAN);
        assert_eq!(best, 7);
        assert!(score.is_nan());
    }
}
