//! Minimal dense linear algebra for the Levenberg–Marquardt solver.
//!
//! The sensitivity model has one parameter, but `curve_fit` is generic so the
//! solver handles small square systems (a handful of parameters at most) via
//! Gaussian elimination with partial pivoting. No external BLAS.

/// A small, dense, row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// `AᵀA` for this matrix (used to form the normal equations).
    pub(crate) fn gram(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in 0..self.cols {
                let mut acc = 0.0;
                for r in 0..self.rows {
                    acc += self[(r, i)] * self[(r, j)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }

    /// `Aᵀv` for a column vector `v` of length `rows`.
    pub(crate) fn tr_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows);
        let mut out = vec![0.0; self.cols];
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for r in 0..self.rows {
                acc += self[(r, i)] * v[r];
            }
            *o = acc;
        }
        out
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Solve `A x = b` for square `A` by Gaussian elimination with partial
/// pivoting. Returns `None` if `A` is (numerically) singular.
pub(crate) fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve requires a square matrix");
    assert_eq!(b.len(), n);
    let mut m = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        for r in (col + 1)..n {
            if m[(r, col)].abs() > m[(pivot, col)].abs() {
                pivot = r;
            }
        }
        if m[(pivot, col)].abs() < 1e-300 {
            return None;
        }
        if pivot != col {
            for c in 0..n {
                let tmp = m[(col, c)];
                m[(col, c)] = m[(pivot, c)];
                m[(pivot, c)] = tmp;
            }
            x.swap(col, pivot);
        }
        // Eliminate below.
        for r in (col + 1)..n {
            let f = m[(r, col)] / m[(col, col)];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                let v = m[(col, c)];
                m[(r, c)] -= f * v;
            }
            x[r] -= f * x[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for c in (col + 1)..n {
            acc -= m[(col, c)] * x[c];
        }
        x[col] = acc / m[(col, col)];
    }
    if x.iter().all(|v| v.is_finite()) {
        Some(x)
    } else {
        None
    }
}

/// Invert a square matrix by solving against the identity columns.
/// Returns `None` for singular matrices.
pub(crate) fn invert(a: &Matrix) -> Option<Matrix> {
    let n = a.rows();
    let mut out = Matrix::zeros(n, n);
    for j in 0..n {
        let mut e = vec![0.0; n];
        e[j] = 1.0;
        let col = solve(a, &e)?;
        for i in 0..n {
            out[(i, j)] = col[i];
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            a[(i, i)] = 1.0;
        }
        let x = solve(&a, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_2x2() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 2.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 3.0;
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Leading zero forces a row swap.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 0.0;
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_matrix_detected() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn invert_roundtrip() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 4.0;
        a[(0, 1)] = 7.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 6.0;
        let inv = invert(&a).unwrap();
        // A * A^-1 = I
        for i in 0..2 {
            for j in 0..2 {
                let mut acc = 0.0;
                for k in 0..2 {
                    acc += a[(i, k)] * inv[(k, j)];
                }
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((acc - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gram_and_trmul() {
        let mut j = Matrix::zeros(3, 2);
        j[(0, 0)] = 1.0;
        j[(1, 0)] = 2.0;
        j[(2, 0)] = 3.0;
        j[(0, 1)] = 1.0;
        j[(1, 1)] = 1.0;
        j[(2, 1)] = 1.0;
        let g = j.gram();
        assert_eq!(g[(0, 0)], 14.0);
        assert_eq!(g[(0, 1)], 6.0);
        assert_eq!(g[(1, 1)], 3.0);
        let v = j.tr_mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(v, vec![6.0, 3.0]);
    }
}
