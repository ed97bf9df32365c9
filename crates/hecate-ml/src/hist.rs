//! R8: Histogram-based Gradient Boosting (scikit-learn's
//! `HistGradientBoostingRegressor`, itself modeled on LightGBM).
//!
//! Defaults mirrored: `max_iter = 100`, `learning_rate = 0.1`,
//! `max_bins = 255`, `max_leaf_nodes = 31`, `min_samples_leaf = 20`,
//! squared-error loss.
//!
//! Features are quantile-binned once up front; each boosting stage grows a
//! tree **best-first** (highest-gain leaf expanded next) using per-bin
//! gradient histograms, so split search costs `O(features · bins)` per
//! node instead of `O(features · n log n)`.

use crate::model::Regressor;
use crate::{check_finite, check_xy, MlError};
use linalg::Matrix;
use std::cmp::Ordering;

/// Quantile binner shared by fit and predict.
#[derive(Debug, Clone, Default)]
struct Binner {
    /// Per-feature ascending bin edges; value v falls in bin
    /// `edges.partition_point(|e| e < v)`.
    edges: Vec<Vec<f64>>,
}

impl Binner {
    fn fit(x: &Matrix, max_bins: usize) -> Self {
        let mut edges = Vec::with_capacity(x.cols());
        for j in 0..x.cols() {
            let mut col = x.col(j);
            // `fit` rejects non-finite input first; `Equal` keeps `-0.0`
            // and `0.0` in place, where `total_cmp` would reorder them.
            col.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));
            col.dedup();
            let mut ej = Vec::new();
            if col.len() > 1 {
                let n_edges = (col.len() - 1).min(max_bins - 1);
                for k in 1..=n_edges {
                    let pos = k * (col.len() - 1) / (n_edges + 1).max(1);
                    let edge = 0.5 * (col[pos] + col[(pos + 1).min(col.len() - 1)]);
                    ej.push(edge);
                }
                ej.dedup();
            }
            edges.push(ej);
        }
        Binner { edges }
    }

    fn bin_value(&self, j: usize, v: f64) -> u16 {
        self.edges[j].partition_point(|e| *e < v) as u16
    }

    fn bin_matrix(&self, x: &Matrix) -> Vec<Vec<u16>> {
        (0..x.rows())
            .map(|i| {
                x.row(i)
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| self.bin_value(j, v))
                    .collect()
            })
            .collect()
    }

    fn n_bins(&self, j: usize) -> usize {
        self.edges[j].len() + 1
    }
}

#[derive(Debug, Clone)]
enum HNode {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        /// Samples with `bin <= split_bin` go left.
        split_bin: u16,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone)]
struct HistTree {
    nodes: Vec<HNode>,
}

impl HistTree {
    fn predict_binned(&self, row: &[u16]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                HNode::Leaf { value } => return *value,
                HNode::Split {
                    feature,
                    split_bin,
                    left,
                    right,
                } => {
                    i = if row[*feature] <= *split_bin {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

struct LeafCandidate {
    node: usize,
    idx: Vec<u32>,
    gain: f64,
    feature: usize,
    split_bin: u16,
}

/// Builds one best-first histogram tree on the residuals.
fn grow_hist_tree(
    binned: &[Vec<u16>],
    grad: &[f64],
    binner: &Binner,
    max_leaf_nodes: usize,
    min_samples_leaf: usize,
) -> HistTree {
    let all: Vec<u32> = (0..binned.len() as u32).collect();
    let mut nodes = Vec::new();
    let root_value = mean_of(grad, &all);
    nodes.push(HNode::Leaf { value: root_value });
    let mut frontier: Vec<LeafCandidate> = Vec::new();
    if let Some(c) = best_hist_split(binned, grad, binner, &all, min_samples_leaf) {
        frontier.push(LeafCandidate {
            node: 0,
            idx: all,
            gain: c.0,
            feature: c.1,
            split_bin: c.2,
        });
    }
    let mut n_leaves = 1;
    while n_leaves < max_leaf_nodes {
        // expand the highest-gain candidate
        let Some(pos) = frontier
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.gain.total_cmp(&b.1.gain))
            .map(|(i, _)| i)
        else {
            break;
        };
        let cand = frontier.swap_remove(pos);
        let (mut left_idx, mut right_idx) = (Vec::new(), Vec::new());
        for &i in &cand.idx {
            if binned[i as usize][cand.feature] <= cand.split_bin {
                left_idx.push(i);
            } else {
                right_idx.push(i);
            }
        }
        if left_idx.is_empty() || right_idx.is_empty() {
            continue;
        }
        let left_node = nodes.len();
        nodes.push(HNode::Leaf {
            value: mean_of(grad, &left_idx),
        });
        let right_node = nodes.len();
        nodes.push(HNode::Leaf {
            value: mean_of(grad, &right_idx),
        });
        nodes[cand.node] = HNode::Split {
            feature: cand.feature,
            split_bin: cand.split_bin,
            left: left_node,
            right: right_node,
        };
        n_leaves += 1;
        for (node, idx) in [(left_node, left_idx), (right_node, right_idx)] {
            if let Some(c) = best_hist_split(binned, grad, binner, &idx, min_samples_leaf) {
                frontier.push(LeafCandidate {
                    node,
                    idx,
                    gain: c.0,
                    feature: c.1,
                    split_bin: c.2,
                });
            }
        }
    }
    HistTree { nodes }
}

fn mean_of(grad: &[f64], idx: &[u32]) -> f64 {
    if idx.is_empty() {
        return 0.0;
    }
    idx.iter().map(|&i| grad[i as usize]).sum::<f64>() / idx.len() as f64
}

/// Returns `(gain, feature, split_bin)` for the best histogram split.
#[allow(clippy::needless_range_loop)] // feature index addresses two parallel arrays
fn best_hist_split(
    binned: &[Vec<u16>],
    grad: &[f64],
    binner: &Binner,
    idx: &[u32],
    min_samples_leaf: usize,
) -> Option<(f64, usize, u16)> {
    if idx.len() < 2 * min_samples_leaf {
        return None;
    }
    let n_features = binner.edges.len();
    let total_g: f64 = idx.iter().map(|&i| grad[i as usize]).sum();
    let total_n = idx.len() as f64;
    let parent_score = total_g * total_g / total_n;
    let mut best: Option<(f64, usize, u16)> = None;
    for j in 0..n_features {
        let bins = binner.n_bins(j);
        if bins < 2 {
            continue;
        }
        let mut hist_g = vec![0.0f64; bins];
        let mut hist_n = vec![0u32; bins];
        for &i in idx {
            let b = binned[i as usize][j] as usize;
            hist_g[b] += grad[i as usize];
            hist_n[b] += 1;
        }
        let mut left_g = 0.0;
        let mut left_n = 0u32;
        for b in 0..bins - 1 {
            left_g += hist_g[b];
            left_n += hist_n[b];
            let right_n = idx.len() as u32 - left_n;
            if (left_n as usize) < min_samples_leaf || (right_n as usize) < min_samples_leaf {
                continue;
            }
            if left_n == 0 || right_n == 0 {
                continue;
            }
            let right_g = total_g - left_g;
            let score = left_g * left_g / left_n as f64 + right_g * right_g / right_n as f64;
            let gain = score - parent_score;
            if gain > 1e-12 && best.is_none_or(|(g, _, _)| gain > g) {
                best = Some((gain, j, b as u16));
            }
        }
    }
    best
}

/// R8: histogram gradient boosting regressor.
#[derive(Debug, Clone)]
pub struct HistGradientBoostingRegressor {
    /// Boosting iterations (sklearn default 100).
    pub max_iter: usize,
    /// Shrinkage (sklearn default 0.1).
    pub learning_rate: f64,
    /// Maximum feature bins (sklearn default 255).
    pub max_bins: usize,
    /// Leaf budget per tree (sklearn default 31).
    pub max_leaf_nodes: usize,
    /// Minimum samples per leaf (sklearn default 20).
    pub min_samples_leaf: usize,
    baseline: f64,
    binner: Binner,
    stages: Vec<HistTree>,
}

impl Default for HistGradientBoostingRegressor {
    fn default() -> Self {
        HistGradientBoostingRegressor {
            max_iter: 100,
            learning_rate: 0.1,
            max_bins: 255,
            max_leaf_nodes: 31,
            min_samples_leaf: 20,
            baseline: 0.0,
            binner: Binner::default(),
            stages: Vec::new(),
        }
    }
}

impl HistGradientBoostingRegressor {
    /// HGBR with scikit-learn defaults.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Regressor for HistGradientBoostingRegressor {
    fn fit(&mut self, x: &Matrix, y: &[f64]) -> Result<(), MlError> {
        check_xy(x, y)?;
        check_finite("X", x.as_slice())?;
        check_finite("y", y)?;
        self.binner = Binner::fit(x, self.max_bins);
        let binned = self.binner.bin_matrix(x);
        self.baseline = linalg::stats::mean(y);
        self.stages.clear();
        let mut current = vec![self.baseline; y.len()];
        for _ in 0..self.max_iter {
            let grad: Vec<f64> = y.iter().zip(&current).map(|(a, b)| a - b).collect();
            let tree = grow_hist_tree(
                &binned,
                &grad,
                &self.binner,
                self.max_leaf_nodes,
                self.min_samples_leaf,
            );
            let mut any_change = false;
            for (i, c) in current.iter_mut().enumerate() {
                let u = tree.predict_binned(&binned[i]);
                if u != 0.0 {
                    any_change = true;
                }
                *c += self.learning_rate * u;
            }
            self.stages.push(tree);
            if !any_change {
                break; // tree degenerated to a zero root: nothing to learn
            }
        }
        Ok(())
    }

    fn predict(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.stages.is_empty() {
            return Err(MlError::NotFitted);
        }
        let binned = self.binner.bin_matrix(x);
        Ok(binned
            .iter()
            .map(|row| {
                self.baseline
                    + self.learning_rate
                        * self
                            .stages
                            .iter()
                            .map(|t| t.predict_binned(row))
                            .sum::<f64>()
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;

    fn data(n: usize) -> (Matrix, Vec<f64>) {
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / 9.0;
                vec![t.sin(), (1.3 * t).cos(), (t * 0.25).tanh()]
            })
            .collect();
        let y = rows
            .iter()
            .map(|r| 4.0 * r[0] + r[1] * r[2] - 2.0 * r[2])
            .collect();
        (Matrix::from_rows(&rows), y)
    }

    #[test]
    fn fits_nonlinear_target() {
        let (x, y) = data(300);
        let mut m = HistGradientBoostingRegressor::new();
        m.fit(&x, &y).unwrap();
        let pred = m.predict(&x).unwrap();
        assert!(rmse(&y, &pred) < 0.4, "rmse = {}", rmse(&y, &pred));
    }

    #[test]
    fn binner_is_monotone() {
        let x = Matrix::from_rows(&(0..100).map(|i| vec![i as f64]).collect::<Vec<_>>());
        let b = Binner::fit(&x, 16);
        let mut last = 0;
        for v in 0..100 {
            let bin = b.bin_value(0, v as f64);
            assert!(bin as usize >= last);
            last = bin as usize;
        }
        assert!(b.n_bins(0) <= 16);
    }

    #[test]
    fn constant_feature_never_splits() {
        let x = Matrix::from_rows(&(0..50).map(|_| vec![3.0]).collect::<Vec<_>>());
        let y: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let mut m = HistGradientBoostingRegressor::new();
        m.fit(&x, &y).unwrap();
        // Only the baseline can be learned.
        let pred = m.predict(&x).unwrap();
        let mean = linalg::stats::mean(&y);
        assert!(pred.iter().all(|p| (p - mean).abs() < 1e-9));
    }

    #[test]
    fn respects_min_samples_leaf() {
        let (x, y) = data(30); // below 2*min_samples_leaf=40
        let mut m = HistGradientBoostingRegressor::new();
        m.fit(&x, &y).unwrap();
        // No split possible -> predictions equal the mean.
        let pred = m.predict(&x).unwrap();
        let mean = linalg::stats::mean(&y);
        assert!(pred.iter().all(|p| (p - mean).abs() < 1e-9));
    }

    #[test]
    fn more_iterations_reduce_training_error() {
        let (x, y) = data(300);
        let mut small = HistGradientBoostingRegressor {
            max_iter: 5,
            ..Default::default()
        };
        let mut large = HistGradientBoostingRegressor::new();
        small.fit(&x, &y).unwrap();
        large.fit(&x, &y).unwrap();
        assert!(rmse(&y, &large.predict(&x).unwrap()) < rmse(&y, &small.predict(&x).unwrap()));
    }

    #[test]
    fn unfitted_errors() {
        assert_eq!(
            HistGradientBoostingRegressor::new()
                .predict(&Matrix::zeros(1, 3))
                .unwrap_err(),
            MlError::NotFitted
        );
    }
}
