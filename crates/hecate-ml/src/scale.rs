//! Feature standardization, mirroring scikit-learn's `StandardScaler`.
//!
//! The paper: "we used the StandardScaler utility function to re-scale the
//! dataset features, where it calculates the mean and standard deviation of
//! the dataset features at the training set, using fit method, and then
//! scales the testing set using transform method. As a later operation
//! after the ML model is applied, inverse transform on the estimated values
//! are applied to get the feature values back to their original scale."

use crate::MlError;
use linalg::Matrix;

/// Per-column standardization to zero mean and unit variance.
///
/// Columns with zero variance are scaled by 1 (matching scikit-learn,
/// which leaves constant features centered but un-divided).
#[derive(Debug, Clone, Default)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// An unfitted scaler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learns per-column mean and standard deviation from training data.
    pub fn fit(&mut self, x: &Matrix) -> Result<(), MlError> {
        if x.rows() == 0 {
            return Err(MlError::BadShape("cannot fit scaler on 0 rows".into()));
        }
        let n = x.rows() as f64;
        self.means = vec![0.0; x.cols()];
        self.stds = vec![0.0; x.cols()];
        for i in 0..x.rows() {
            for (j, &v) in x.row(i).iter().enumerate() {
                self.means[j] += v;
            }
        }
        for m in &mut self.means {
            *m /= n;
        }
        for i in 0..x.rows() {
            for (j, &v) in x.row(i).iter().enumerate() {
                let d = v - self.means[j];
                self.stds[j] += d * d;
            }
        }
        for s in &mut self.stds {
            *s = (*s / n).sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        Ok(())
    }

    /// Standardizes a matrix column-wise.
    pub fn transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        self.check(x.cols())?;
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = (*v - self.means[j]) / self.stds[j];
            }
        }
        Ok(out)
    }

    /// Fits and transforms in one step.
    pub fn fit_transform(&mut self, x: &Matrix) -> Result<Matrix, MlError> {
        self.fit(x)?;
        self.transform(x)
    }

    /// Maps standardized values back to the original scale.
    pub fn inverse_transform(&self, x: &Matrix) -> Result<Matrix, MlError> {
        self.check(x.cols())?;
        let mut out = x.clone();
        for i in 0..out.rows() {
            let row = out.row_mut(i);
            for (j, v) in row.iter_mut().enumerate() {
                *v = *v * self.stds[j] + self.means[j];
            }
        }
        Ok(out)
    }

    /// Standardizes one value using column `col`'s statistics.
    pub fn transform_value(&self, value: f64, col: usize) -> Result<f64, MlError> {
        self.check(col + 1)?;
        Ok((value - self.means[col]) / self.stds[col])
    }

    /// Maps one standardized value back to column `col`'s scale.
    pub fn inverse_transform_value(&self, value: f64, col: usize) -> Result<f64, MlError> {
        self.check(col + 1)?;
        Ok(value * self.stds[col] + self.means[col])
    }

    /// Transforms a single column vector using column `col`'s statistics.
    pub fn transform_column(&self, values: &[f64], col: usize) -> Result<Vec<f64>, MlError> {
        self.check(col + 1)?;
        Ok(values
            .iter()
            .map(|v| (v - self.means[col]) / self.stds[col])
            .collect())
    }

    /// Inverse-transforms a single column vector using column `col`.
    pub fn inverse_transform_column(
        &self,
        values: &[f64],
        col: usize,
    ) -> Result<Vec<f64>, MlError> {
        self.check(col + 1)?;
        Ok(values
            .iter()
            .map(|v| v * self.stds[col] + self.means[col])
            .collect())
    }

    /// Learned means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    fn check(&self, cols: usize) -> Result<(), MlError> {
        if self.means.is_empty() {
            return Err(MlError::NotFitted);
        }
        if cols > self.means.len() {
            return Err(MlError::BadShape(format!(
                "scaler fitted on {} columns, got {}",
                self.means.len(),
                cols
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transform_standardizes() {
        let x = Matrix::from_rows(&[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]);
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&x).unwrap();
        // Column means ~0, stds ~1.
        for j in 0..2 {
            let col = z.col(j);
            assert!(linalg::stats::mean(&col).abs() < 1e-12);
            assert!((linalg::stats::std_dev(&col) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn inverse_transform_roundtrips() {
        let x = Matrix::from_rows(&[vec![5.0, -3.0], vec![7.5, 0.0], vec![-2.0, 9.0]]);
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&x).unwrap();
        let back = s.inverse_transform(&z).unwrap();
        for (a, b) in back.as_slice().iter().zip(x.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_is_safe() {
        let x = Matrix::from_rows(&[vec![4.0], vec![4.0], vec![4.0]]);
        let mut s = StandardScaler::new();
        let z = s.fit_transform(&x).unwrap();
        assert!(z.as_slice().iter().all(|v| *v == 0.0));
        let back = s.inverse_transform(&z).unwrap();
        assert!(back.as_slice().iter().all(|v| *v == 4.0));
    }

    #[test]
    fn unfitted_scaler_errors() {
        let s = StandardScaler::new();
        assert_eq!(
            s.transform(&Matrix::zeros(1, 1)).unwrap_err(),
            MlError::NotFitted
        );
    }

    #[test]
    fn column_helpers_match_matrix_path() {
        let x = Matrix::from_rows(&[vec![1.0, 100.0], vec![3.0, 300.0]]);
        let mut s = StandardScaler::new();
        s.fit(&x).unwrap();
        let z = s.transform_column(&[2.0], 1).unwrap();
        // col 1: mean 200, std 100 -> (2-200)/100
        assert!((z[0] - (2.0 - 200.0) / 100.0).abs() < 1e-12);
        let back = s.inverse_transform_column(&z, 1).unwrap();
        assert!((back[0] - 2.0).abs() < 1e-12);
    }
}
