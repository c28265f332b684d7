//! LU factorization with partial pivoting.

use crate::dense::DenseMatrix;
use crate::error::LinalgError;

/// Pivot magnitudes below this (relative to the matrix scale) are treated as
/// singular.
const SINGULARITY_RTOL: f64 = 1e-13;

/// An LU factorization `P·A = L·U` of a square matrix with partial
/// (row) pivoting.
///
/// ```
/// use ttsv_linalg::DenseMatrix;
/// let a = DenseMatrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]]); // needs pivoting
/// let lu = a.lu().unwrap();
/// let x = lu.solve(&[2.0, 2.0]).unwrap();
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: DenseMatrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Sign of the permutation (+1.0 / −1.0), used by `det`.
    perm_sign: f64,
}

impl LuDecomposition {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::InvalidInput`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot is numerically zero.
    pub fn new(a: &DenseMatrix) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::InvalidInput {
                reason: format!("LU needs a square matrix, got {}×{}", a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let scale = a.max_abs().max(f64::MIN_POSITIVE);
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for col in 0..n {
            // Find the pivot row.
            let mut pivot_row = col;
            let mut pivot_val = lu[(col, col)].abs();
            for r in (col + 1)..n {
                let v = lu[(r, col)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val <= SINGULARITY_RTOL * scale {
                return Err(LinalgError::Singular { pivot: col });
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = lu[(col, j)];
                    lu[(col, j)] = lu[(pivot_row, j)];
                    lu[(pivot_row, j)] = tmp;
                }
                perm.swap(col, pivot_row);
                perm_sign = -perm_sign;
            }
            // Eliminate below the pivot.
            let pivot = lu[(col, col)];
            for r in (col + 1)..n {
                let factor = lu[(r, col)] / pivot;
                lu[(r, col)] = factor; // store L
                for j in (col + 1)..n {
                    let u = lu[(col, j)];
                    lu[(r, j)] -= factor * u;
                }
            }
        }

        Ok(Self {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factored matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                operation: "LU solve",
                expected: n,
                actual: b.len(),
            });
        }
        // Apply permutation, then forward-substitute L, then back-substitute U.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let mut sum = x[i];
            for j in 0..i {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum;
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum -= self.lu[(i, j)] * x[j];
            }
            x[i] = sum / self.lu[(i, i)];
        }
        Ok(x)
    }

    /// Determinant of the original matrix (product of U's diagonal with the
    /// permutation sign).
    #[must_use]
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Inverse of the original matrix (column-by-column solve).
    ///
    /// # Errors
    ///
    /// Never fails for a successfully constructed factorization; the
    /// `Result` mirrors [`LuDecomposition::solve`].
    pub fn inverse(&self) -> Result<DenseMatrix, LinalgError> {
        let n = self.dim();
        let mut inv = DenseMatrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for i in 0..n {
                inv[(i, j)] = col[i];
            }
            e[j] = 0.0;
        }
        Ok(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_known_3x3() {
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        // Known solution: x = 2, y = 3, z = -1.
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = a.solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        match a.lu() {
            Err(LinalgError::Singular { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected Singular, got {other:?}"),
        }
    }

    #[test]
    fn non_square_rejected() {
        let a = DenseMatrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::InvalidInput { .. })));
    }

    #[test]
    fn det_matches_cofactor_expansion() {
        let a = DenseMatrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert!((a.lu().unwrap().det() + 2.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips the sign.
        let b = DenseMatrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        assert!((b.lu().unwrap().det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = DenseMatrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]);
        let inv = a.lu().unwrap().inverse().unwrap();
        let prod = a.matmul(&inv).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                let want = if i == j { 1.0 } else { 0.0 };
                assert!((prod[(i, j)] - want).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rhs_length_validated() {
        let a = DenseMatrix::identity(3);
        assert!(matches!(
            a.lu().unwrap().solve(&[1.0]),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
