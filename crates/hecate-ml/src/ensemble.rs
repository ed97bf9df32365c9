//! Averaging ensembles: Random Forest (R13), which is also Bagging (R3).
//!
//! scikit-learn defaults mirrored: `RandomForestRegressor(n_estimators=100,
//! max_features=1.0, bootstrap=True)` over full-depth CART trees. With
//! every feature at every split, `BaggingRegressor(n_estimators=10,
//! max_samples=1.0, bootstrap=True)` is the same forest with ten trees,
//! so [`crate::RegressorKind::Bagging`] builds a ten-tree
//! [`RandomForestRegressor`].
//!
//! Tree fitting is embarrassingly parallel and runs on scoped threads
//! ([`linalg::par::par_map_indexed`]); per-tree bootstrap streams are
//! derived deterministically from the ensemble seed so parallel and
//! sequential fits produce identical forests.

use crate::model::Regressor;
use crate::tree::{Forest, Presort, TreeBuilder};
use crate::MlError;
use linalg::par::{par_map_indexed, worker_count};
use linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// The once-per-forest set-up: the column ranks every tree shares.
fn presort(x: &Matrix, y: &[f64], n_estimators: usize) -> Result<Presort, MlError> {
    if n_estimators == 0 {
        return Err(MlError::BadHyperparameter(
            "n_estimators must be > 0".into(),
        ));
    }
    Presort::new(x, y)
}

/// Tree `k`'s bootstrap, into `sample` (as many rows as the data has),
/// from its own RNG stream.
fn draw_tree(seed: u64, k: usize, sample: &mut [u32]) {
    let mut rng = StdRng::seed_from_u64(seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let n = sample.len();
    for row in sample.iter_mut() {
        *row = rng.gen_range(0..n) as u32;
    }
}

/// Fits `n_estimators` full-depth bootstrap trees over one shared
/// [`Presort`]. Trees are dealt to `workers` scoped threads in
/// contiguous chunks, one reusable [`TreeBuilder`] each; tree `k` draws
/// its bootstrap from its own RNG stream and a worker writes its trees
/// into one chunk of the arena, so the forest does not depend on
/// `workers`.
fn fit_forest(
    x: &Matrix,
    y: &[f64],
    n_estimators: usize,
    seed: u64,
    workers: usize,
) -> Result<Forest, MlError> {
    let pre = presort(x, y, n_estimators)?;
    let chunk = n_estimators.div_ceil(workers.max(1));
    let chunks = par_map_indexed(n_estimators.div_ceil(chunk), |c| {
        let mut builder = TreeBuilder::new(&pre);
        let mut sample = vec![0u32; x.rows()];
        let mut trees = Forest::default();
        for k in c * chunk..n_estimators.min((c + 1) * chunk) {
            draw_tree(seed, k, &mut sample);
            builder.fit(None, &sample, y, None, &mut trees);
        }
        trees
    });
    Ok(Forest::concat(chunks))
}

/// The forest [`fit_forest`] grows, grown only where `run`'s queries
/// walk, on one thread. `run` gets the forest's predictor: the mean over
/// trees, summed in tree order like [`row_mean`], of each tree's leaf,
/// growing [`TreeBuilder::lazy_leaf`]'s way. Bit for bit the fitted
/// forest's prediction for every row. Errors as [`fit_forest`] does,
/// before `run` is called.
fn sketch_forest<T>(
    x: &Matrix,
    y: &[f64],
    n_estimators: usize,
    seed: u64,
    run: impl FnOnce(&mut dyn FnMut(&[f64]) -> f64) -> T,
) -> Result<T, MlError> {
    let pre = presort(x, y, n_estimators)?;
    let mut builder = TreeBuilder::new(&pre);
    let mut sample = vec![0u32; x.rows()];
    let mut trees: Vec<_> = (0..n_estimators)
        .map(|k| {
            draw_tree(seed, k, &mut sample);
            builder.lazy(None, &sample, y)
        })
        .collect();
    Ok(run(&mut |row| {
        let mut acc = 0.0;
        for tree in &mut trees {
            acc += builder.lazy_leaf(tree, row);
        }
        acc / trees.len() as f64
    }))
}

/// Mean over trees, summed in tree order, of one row's predictions.
fn row_mean(trees: &Forest, row: &[f64]) -> f64 {
    let mut acc = 0.0;
    trees.leaves(0..trees.len(), row, |leaf| acc += leaf);
    acc / trees.len() as f64
}

fn predict_mean(trees: &Forest, x: &Matrix) -> Result<Vec<f64>, MlError> {
    trees.check_cols(x.cols())?;
    Ok((0..x.rows()).map(|i| row_mean(trees, x.row(i))).collect())
}

/// R13: Random Forest regressor.
#[derive(Debug, Clone)]
pub struct RandomForestRegressor {
    /// Number of trees (scikit-learn default 100).
    pub n_estimators: usize,
    /// Ensemble seed.
    pub seed: u64,
    trees: Forest,
}

impl Default for RandomForestRegressor {
    fn default() -> Self {
        RandomForestRegressor {
            n_estimators: 100,
            seed: 0,
            trees: Forest::default(),
        }
    }
}

impl RandomForestRegressor {
    /// Forest with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forest with a custom size.
    #[cfg(test)]
    fn with_trees(n_estimators: usize) -> Self {
        RandomForestRegressor {
            n_estimators,
            ..Self::default()
        }
    }

    /// Forest with a fixed seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomForestRegressor {
            seed,
            ..Self::default()
        }
    }

    /// Number of fitted trees.
    #[cfg(test)]
    fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// What [`Regressor::fit`] on `(x, y)` and then `run` over
    /// [`Regressor::predict_row`] would compute, bit for bit, without
    /// the forest: `run` gets a predictor that grows each tree only along
    /// the paths its rows take, on one thread. For a fit that serves a
    /// handful of queries, all known before the next fit. Errors as the
    /// fit does.
    pub(crate) fn sketch<T>(
        &self,
        x: &Matrix,
        y: &[f64],
        run: impl FnOnce(&mut dyn FnMut(&[f64]) -> f64) -> T,
    ) -> Result<T, MlError> {
        sketch_forest(x, y, self.n_estimators, self.seed, run)
    }
}

impl Regressor for RandomForestRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        let workers = worker_count(self.n_estimators);
        self.trees = fit_forest(x, y, self.n_estimators, self.seed, workers)?;
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        predict_mean(&self.trees, x)
    }

    fn predict_row(&self, row: &[f64]) -> Result<f64, MlError> {
        self.trees.check_cols(row.len())?;
        Ok(row_mean(&self.trees, row))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn wavy_data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / 10.0;
                vec![t.sin(), t.cos(), (2.0 * t).sin()]
            })
            .collect();
        let y = rows.iter().map(|r| 3.0 * r[0] + r[1] * r[2]).collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn forest_fits_nonlinear_target() {
        let (x, y) = wavy_data(150);
        let mut f = RandomForestRegressor::with_trees(30);
        f.fit(&x, &y).unwrap();
        let pred = f.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.3, "rmse = {}", rmse(&y, &pred));
        assert_eq!(f.tree_count(), 30);
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let (x, y) = wavy_data(80);
        let mut a = RandomForestRegressor {
            n_estimators: 10,
            seed: 9,
            ..Default::default()
        };
        let mut b = RandomForestRegressor {
            n_estimators: 10,
            seed: 9,
            ..Default::default()
        };
        a.fit(&x, &y).unwrap();
        b.fit(&x, &y).unwrap();
        assert_eq!(a.predict(&x).unwrap(), b.predict(&x).unwrap());
    }

    #[test]
    fn forest_beats_single_tree_on_noise() {
        // noisy target: averaging should reduce variance on held-out data
        let (x, y_clean) = wavy_data(200);
        let mut rng_state = 12345u64;
        let mut noise = || {
            rng_state = rng_state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((rng_state >> 33) as f64 / (1u64 << 31) as f64 - 0.5) * 1.0
        };
        let y: Vec<f64> = y_clean.iter().map(|v| v + noise()).collect();
        let train = 150;
        let xt = x.select_rows(&(0..train).collect::<Vec<_>>());
        let yt = &y[..train];
        let xv = x.select_rows(&(train..200).collect::<Vec<_>>());
        let yv_clean = &y_clean[train..];

        let mut forest = RandomForestRegressor {
            n_estimators: 50,
            seed: 1,
            ..Default::default()
        };
        forest.fit(&xt, yt).unwrap();
        let mut tree = crate::tree::DecisionTreeRegressor::new();
        use crate::model::Regressor as _;
        tree.fit(&xt, yt).unwrap();

        let forest_err = rmse(yv_clean, &forest.predict(&xv).unwrap());
        let tree_err = rmse(yv_clean, &tree.predict(&xv).unwrap());
        assert!(
            forest_err < tree_err,
            "forest {forest_err} should beat single tree {tree_err}"
        );
    }

    #[test]
    fn bagging_fits_and_averages() {
        let (x, y) = wavy_data(100);
        let mut b = crate::RegressorKind::Bagging.build(2);
        b.fit(&x, &y).unwrap();
        let pred = b.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.5);
    }

    #[test]
    fn forest_does_not_depend_on_worker_count() {
        // Chunking trees over workers must not leak into a single bit:
        // tree k owns its RNG stream, builders carry no state over.
        let (x, y) = wavy_data(110);
        let one = fit_forest(&x, &y, 23, 9, 1).unwrap();
        assert_eq!(one.len(), 23);
        for workers in [0, 2, 3, 8, 23, 50] {
            let many = fit_forest(&x, &y, 23, 9, workers).unwrap();
            assert_eq!(many.bits(), one.bits(), "{workers} workers");
        }
    }

    #[test]
    fn non_finite_input_is_an_error_not_a_panic() {
        let (x, y) = wavy_data(40);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut xb = x.clone();
            xb[(3, 1)] = bad;
            let mut yb = y.clone();
            yb[3] = bad;
            let mut f = RandomForestRegressor::with_trees(5);
            assert!(matches!(f.fit(&xb, &y), Err(MlError::Numeric(_))));
            assert!(matches!(f.fit(&x, &yb), Err(MlError::Numeric(_))));
        }
    }

    #[test]
    fn zero_estimators_rejected() {
        let (x, y) = wavy_data(20);
        let mut f = RandomForestRegressor::with_trees(0);
        assert!(f.fit(&x, &y).is_err());
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            RandomForestRegressor::new()
                .predict(&Matrix::zeros(1, 3))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
