//! Dataset shaping: lag windows and the paper's sequential 75/25 split.

use linalg::Matrix;

/// Builds a supervised dataset from a univariate series: row `i` holds the
/// `lags` values `[x(i), …, x(i+lags-1)]` and the target is `x(i+lags)`.
///
/// The paper: "We set the history of measurements used in the regression
/// models to 10 values that represent t_i to t_{i-9}. These values are
/// passed to the models to predict bandwidth at t_{i+1}."
///
/// Returns `None` if `lags` is 0 or the series is too short to produce a
/// single window.
pub fn make_supervised(series: &[f64], lags: usize) -> Option<(Matrix, Vec<f64>)> {
    if lags == 0 || series.len() <= lags {
        return None;
    }
    let n = series.len() - lags;
    let mut x = Matrix::zeros(n, lags);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        x.row_mut(i).copy_from_slice(&series[i..i + lags]);
        y.push(series[i + lags]);
    }
    Some((x, y))
}

/// Splits a series *sequentially* into train/test — the paper
/// "proportionally split\[s\] UQ dataset into training and testing sets by
/// 75% and 25%". Time order is preserved (no shuffling): the test set is
/// the future.
pub fn sequential_split(series: &[f64], train_fraction: f64) -> (&[f64], &[f64]) {
    let cut = ((series.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize;
    let cut = cut.min(series.len());
    series.split_at(cut)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_shifted_views() {
        let series = [1.0, 2.0, 3.0, 4.0, 5.0];
        let (x, y) = make_supervised(&series, 2).unwrap();
        assert_eq!(x.rows(), 3);
        assert_eq!(x.row(0), &[1.0, 2.0]);
        assert_eq!(x.row(2), &[3.0, 4.0]);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn too_short_series_returns_none() {
        assert!(make_supervised(&[1.0, 2.0], 2).is_none());
        assert!(make_supervised(&[1.0, 2.0, 3.0], 10).is_none());
    }

    #[test]
    fn zero_lags_returns_none() {
        assert!(make_supervised(&[1.0, 2.0, 3.0], 0).is_none());
    }

    #[test]
    fn split_preserves_time_order() {
        let series: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (train, test) = sequential_split(&series, 0.75);
        assert_eq!(train.len(), 75);
        assert_eq!(test.len(), 25);
        assert_eq!(train[74], 74.0);
        assert_eq!(test[0], 75.0); // the test set is strictly the future
    }

    #[test]
    fn split_fraction_edges() {
        let series = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(sequential_split(&series, 0.0).0.len(), 0);
        assert_eq!(sequential_split(&series, 1.0).1.len(), 0);
        assert_eq!(sequential_split(&series, 2.0).0.len(), 4); // clamped
    }

    #[test]
    fn supervised_split_shapes() {
        // Each side of the split is windowed on its own, as the
        // evaluation protocol does.
        let series: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let (train, test) = sequential_split(&series, 0.75);
        let (x_train, y_train) = make_supervised(train, 10).unwrap();
        let (x_test, y_test) = make_supervised(test, 10).unwrap();
        assert_eq!(x_train.rows(), 75 - 10);
        assert_eq!(x_test.rows(), 25 - 10);
        assert_eq!(x_train.cols(), 10);
        assert_eq!(y_train.len(), 65);
        assert_eq!(y_test.len(), 15);
    }

    #[test]
    fn supervised_split_too_short_test_side() {
        let series: Vec<f64> = (0..20).map(|i| i as f64).collect();
        // test side has 5 points < lags+1
        let (train, test) = sequential_split(&series, 0.75);
        assert!(make_supervised(train, 10).is_some());
        assert!(make_supervised(test, 10).is_none());
    }
}
