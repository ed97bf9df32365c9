//! Row-major dense matrices and the decompositions the regressors need.

use crate::LinalgError;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Matrix { rows, cols, data }
    }

    /// Builds from row slices.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Column `j` copied into a vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// The flat row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Selects a subset of rows (with repetition allowed — bootstrap
    /// resampling uses this directly).
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Matrix product `self * rhs`: the tests' oracle for the fused
    /// products.
    #[cfg(test)]
    fn matmul(&self, rhs: &Matrix) -> Result<Matrix, LinalgError> {
        if self.cols != rhs.rows {
            return Err(LinalgError::DimensionMismatch {
                op: "matmul",
                lhs: (self.rows, self.cols),
                rhs: (rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams rhs rows, cache-friendly for row-major.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = out.row_mut(i);
                for (o, &r) in orow.iter_mut().zip(rrow) {
                    *o += a * r;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "matvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        Ok((0..self.rows).map(|i| dot(self.row(i), v)).collect())
    }

    /// `self^T * self` — the Gram matrix, computed without materializing
    /// the transpose (used by Ridge/ARD normal equations).
    pub fn gram(&self) -> Matrix {
        let n = self.cols;
        let mut out = Matrix::zeros(n, n);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..n {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                for j in i..n {
                    out[(i, j)] += ri * row[j];
                }
            }
        }
        for i in 0..n {
            for j in 0..i {
                out[(i, j)] = out[(j, i)];
            }
        }
        out
    }

    /// `self^T * v` without materializing the transpose.
    pub fn t_matvec(&self, v: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != v.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "t_matvec",
                lhs: (self.rows, self.cols),
                rhs: (v.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &vi) in v.iter().enumerate() {
            if vi == 0.0 {
                continue;
            }
            for (o, &x) in out.iter_mut().zip(self.row(i)) {
                *o += vi * x;
            }
        }
        Ok(out)
    }

    /// Solves `self * x = b` by LU with partial pivoting.
    #[allow(clippy::needless_range_loop)] // index arithmetic mirrors the textbook algorithm
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "solve",
                lhs: (self.rows, self.cols),
                rhs: (b.len(), 1),
            });
        }
        if self.rows != b.len() {
            return Err(LinalgError::DimensionMismatch {
                op: "solve",
                lhs: (self.rows, self.cols),
                rhs: (b.len(), 1),
            });
        }
        let n = self.rows;
        if n == 0 {
            return Err(LinalgError::Empty);
        }
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // partial pivot
            let mut p = k;
            let mut max = a[perm[k] * n + k].abs();
            for i in k + 1..n {
                let v = a[perm[i] * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max < 1e-300 {
                return Err(LinalgError::Singular);
            }
            perm.swap(k, p);
            let pk = perm[k];
            let pivot = a[pk * n + k];
            for i in k + 1..n {
                let pi = perm[i];
                let f = a[pi * n + k] / pivot;
                a[pi * n + k] = f;
                for j in k + 1..n {
                    a[pi * n + j] -= f * a[pk * n + j];
                }
            }
        }
        // forward substitution on permuted b
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = x[perm[i]];
            for j in 0..i {
                s -= a[perm[i] * n + j] * y[j];
            }
            y[i] = s;
        }
        // back substitution
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= a[perm[i] * n + j] * x[j];
            }
            x[i] = s / a[perm[i] * n + i];
        }
        Ok(x)
    }

    /// Cholesky factor `L` (lower triangular with `L L^T = self`) for a
    /// symmetric positive-definite matrix.
    pub fn cholesky(&self) -> Result<Matrix, LinalgError> {
        if self.rows != self.cols {
            return Err(LinalgError::DimensionMismatch {
                op: "cholesky",
                lhs: (self.rows, self.cols),
                rhs: (self.rows, self.cols),
            });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut s = self[(i, j)];
                for k in 0..j {
                    s -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(LinalgError::Singular);
                    }
                    l[(i, j)] = s.sqrt();
                } else {
                    l[(i, j)] = s / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// Solves `self * x = b` for symmetric positive-definite `self` via
    /// Cholesky (used by Ridge, ARD, GPR).
    pub fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let l = self.cholesky()?;
        Ok(l.cholesky_solve(b))
    }

    /// Given `self = L` (a Cholesky factor), solves `L L^T x = b`.
    pub fn cholesky_solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.rows;
        let mut y = vec![0.0; n];
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self[(i, j)] * y[j];
            }
            y[i] = s / self[(i, i)];
        }
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in i + 1..n {
                s -= self[(j, i)] * x[j];
            }
            x[i] = s / self[(i, i)];
        }
        x
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Dot product.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Least squares `min ||A x - b||` via Householder QR with column checks;
/// requires `A.rows >= A.cols`. Returns the coefficient vector.
pub fn lstsq(a: &Matrix, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let (m, n) = (a.rows(), a.cols());
    if m != b.len() {
        return Err(LinalgError::DimensionMismatch {
            op: "lstsq",
            lhs: (m, n),
            rhs: (b.len(), 1),
        });
    }
    if m < n || n == 0 {
        return Err(LinalgError::Empty);
    }
    let mut r = a.clone();
    let mut qtb = b.to_vec();
    // Householder transformations applied in place to r and qtb.
    for k in 0..n {
        let mut norm = 0.0;
        for i in k..m {
            norm += r[(i, k)] * r[(i, k)];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            return Err(LinalgError::Singular);
        }
        let alpha = if r[(k, k)] > 0.0 { -norm } else { norm };
        let mut v = vec![0.0; m - k];
        v[0] = r[(k, k)] - alpha;
        for i in k + 1..m {
            v[i - k] = r[(i, k)];
        }
        let vtv = dot(&v, &v);
        if vtv < 1e-300 {
            continue;
        }
        // apply H = I - 2 v v^T / (v^T v) to the trailing block of r
        for j in k..n {
            let mut s = 0.0;
            for i in k..m {
                s += v[i - k] * r[(i, j)];
            }
            let f = 2.0 * s / vtv;
            for i in k..m {
                r[(i, j)] -= f * v[i - k];
            }
        }
        // and to qtb
        let mut s = 0.0;
        for i in k..m {
            s += v[i - k] * qtb[i];
        }
        let f = 2.0 * s / vtv;
        for i in k..m {
            qtb[i] -= f * v[i - k];
        }
    }
    // back substitution on the upper-triangular R
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut s = qtb[i];
        for j in i + 1..n {
            s -= r[(i, j)] * x[j];
        }
        let d = r[(i, i)];
        if d.abs() < 1e-300 {
            return Err(LinalgError::Singular);
        }
        x[i] = s / d;
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: &[f64], b: &[f64], tol: f64) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol)
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn identity_is_neutral() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let a = Matrix::from_rows(&[
            vec![1.0, 2.0, 0.5],
            vec![3.0, -4.0, 1.0],
            vec![0.0, 1.0, 2.0],
            vec![2.0, 2.0, 2.0],
        ]);
        let g = a.gram();
        let explicit = a.transpose().matmul(&a).unwrap();
        assert!(approx(g.as_slice(), explicit.as_slice(), 1e-12));
    }

    #[test]
    fn t_matvec_matches_transpose() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = vec![1.0, 0.5, -1.0];
        let direct = a.t_matvec(&v).unwrap();
        let explicit = a.transpose().matvec(&v).unwrap();
        assert!(approx(&direct, &explicit, 1e-12));
    }

    #[test]
    fn lu_solve_known_system() {
        let a = Matrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!(approx(&x, &[2.0, 3.0, -1.0], 1e-10));
    }

    #[test]
    fn lu_solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!(approx(&x, &[7.0, 3.0], 1e-12));
    }

    #[test]
    fn singular_solve_fails() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 2.0],
        ]);
        let l = a.cholesky().unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(approx(back.as_slice(), a.as_slice(), 1e-10));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(a.cholesky().unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn spd_solve_matches_lu() {
        let a = Matrix::from_rows(&[
            vec![4.0, 2.0, 0.6],
            vec![2.0, 5.0, 1.5],
            vec![0.6, 1.5, 2.0],
        ]);
        let b = [1.0, -2.0, 0.5];
        let x1 = a.solve(&b).unwrap();
        let x2 = a.solve_spd(&b).unwrap();
        assert!(approx(&x1, &x2, 1e-9));
    }

    #[test]
    fn lstsq_exact_system() {
        // y = 2x + 1 fit through exact points.
        let a = Matrix::from_rows(&[vec![1.0, 0.0], vec![1.0, 1.0], vec![1.0, 2.0]]);
        let x = lstsq(&a, &[1.0, 3.0, 5.0]).unwrap();
        assert!(approx(&x, &[1.0, 2.0], 1e-10));
    }

    #[test]
    fn lstsq_overdetermined_minimizes_residual() {
        // Noisy line: solution must be the classic normal-equation answer.
        let a = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 2.0],
            vec![1.0, 3.0],
        ]);
        let b = [0.1, 1.9, 4.1, 5.9];
        let x = lstsq(&a, &b).unwrap();
        // normal equations solution
        let gram = a.gram();
        let rhs = a.t_matvec(&b).unwrap();
        let ne = gram.solve(&rhs).unwrap();
        assert!(approx(&x, &ne, 1e-9));
    }

    #[test]
    fn lstsq_underdetermined_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(lstsq(&a, &[0.0, 0.0]).is_err());
    }

    #[test]
    fn select_rows_bootstraps() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.as_slice(), &[3.0, 1.0, 3.0]);
    }
}
