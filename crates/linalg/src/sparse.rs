//! Sparse matrices: COO assembly and CSR storage.

use crate::error::LinalgError;

/// Coordinate-format builder for assembling sparse matrices entry by entry.
///
/// Duplicate `(row, col)` contributions are summed when converting to CSR —
/// exactly what finite-volume/KCL stencil assembly wants.
///
/// ```
/// use ttsv_linalg::CooBuilder;
/// let mut coo = CooBuilder::new(2, 2);
/// coo.add(0, 0, 1.0);
/// coo.add(0, 0, 1.0); // accumulates
/// coo.add(1, 1, 3.0);
/// let csr = coo.to_csr();
/// assert_eq!(csr.get(0, 0), 2.0);
/// assert_eq!(csr.nnz(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl CooBuilder {
    /// Creates an empty builder for a `rows × cols` matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be nonzero");
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates an empty builder with space reserved for `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    pub fn with_capacity(rows: usize, cols: usize, capacity: usize) -> Self {
        let mut b = Self::new(rows, cols);
        b.entries.reserve(capacity);
        b
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Adds `value` at `(row, col)`; contributions to the same position
    /// accumulate.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.rows && col < self.cols,
            "entry ({row}, {col}) out of bounds for {}×{} matrix",
            self.rows,
            self.cols
        );
        if value != 0.0 {
            self.entries.push((row, col, value));
        }
    }

    /// Finalizes into compressed sparse row format (duplicates summed,
    /// columns sorted within each row, explicit zeros from cancellation
    /// retained).
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        let mut entries = self.entries.clone();
        entries.sort_unstable_by_key(|&(r, c, _)| (r, c));

        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx = Vec::with_capacity(entries.len());
        let mut values = Vec::with_capacity(entries.len());

        row_ptr.push(0);
        let mut current_row = 0;
        for (r, c, v) in entries {
            while current_row < r {
                row_ptr.push(col_idx.len());
                current_row += 1;
            }
            // Merge duplicates: the previous stored entry is a duplicate iff
            // it belongs to this row (past the row start) and shares `c`.
            let row_start = *row_ptr.last().expect("row_ptr is never empty");
            if col_idx.len() > row_start && *col_idx.last().expect("nonempty") == c {
                *values.last_mut().expect("nonempty") += v;
            } else {
                col_idx.push(c);
                values.push(v);
            }
        }
        while current_row < self.rows {
            row_ptr.push(col_idx.len());
            current_row += 1;
        }
        debug_assert_eq!(row_ptr.len(), self.rows + 1);

        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            values,
        }
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from raw parts (used by kernels that build
    /// rows in order, skipping the COO sort). Columns must be sorted and
    /// unique within each row.
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), rows + 1);
        debug_assert_eq!(*row_ptr.last().expect("nonempty"), col_idx.len());
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert!((0..rows).all(|i| {
            col_idx[row_ptr[i]..row_ptr[i + 1]]
                .windows(2)
                .all(|w| w[0] < w[1])
                && col_idx[row_ptr[i]..row_ptr[i + 1]]
                    .iter()
                    .all(|&c| c < cols)
        }));
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The identity matrix as CSR.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut coo = CooBuilder::new(n, n);
        for i in 0..n {
            coo.add(i, i, 1.0);
        }
        coo.to_csr()
    }

    /// Reads entry `(i, j)` (zero if not stored).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.rows && j < self.cols, "index out of bounds");
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        match self.col_idx[lo..hi].binary_search(&j) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Iterates over the stored `(col, value)` pairs of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(i < self.rows, "row index out of bounds");
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c, v))
    }

    /// Matrix-vector product `A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if x.len() != self.cols {
            return Err(LinalgError::DimensionMismatch {
                operation: "csr matvec",
                expected: self.cols,
                actual: x.len(),
            });
        }
        let mut y = vec![0.0; self.rows];
        self.matvec_into(x, &mut y);
        Ok(y)
    }

    /// Matrix-vector product writing into a preallocated buffer (hot path of
    /// the iterative solvers).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `y` has the wrong length.
    pub fn matvec_into(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "matvec_into: x has wrong length");
        assert_eq!(y.len(), self.rows, "matvec_into: y has wrong length");
        self.matvec_range(x, y, 0);
    }

    /// Computes rows `start..start + y.len()` of `A·x` into `y` — the
    /// row-chunk kernel behind the threaded multigrid sweeps.
    ///
    /// # Panics
    ///
    /// Panics if the row range exceeds the matrix or `x` is too short.
    pub(crate) fn matvec_range(&self, x: &[f64], y: &mut [f64], start: usize) {
        assert!(
            start + y.len() <= self.rows,
            "matvec_range: rows out of bounds"
        );
        assert_eq!(x.len(), self.cols, "matvec_range: x has wrong length");
        for (k, yi) in y.iter_mut().enumerate() {
            let i = start + k;
            let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut acc = 0.0;
            for e in lo..hi {
                acc += self.values[e] * x[self.col_idx[e]];
            }
            *yi = acc;
        }
    }

    /// The stored values, in row-major pattern order.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values (the multigrid Galerkin mirror;
    /// the pattern itself is immutable).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The `(start, end)` range into [`CsrMatrix::values`] for row `i`.
    pub(crate) fn row_range(&self, i: usize) -> (usize, usize) {
        (self.row_ptr[i], self.row_ptr[i + 1])
    }

    /// The stored column indices, in row-major pattern order.
    pub(crate) fn col_indices(&self) -> &[usize] {
        &self.col_idx
    }

    /// The main diagonal as a vector (missing entries are zero).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        assert_eq!(self.rows, self.cols, "diagonal of a non-square matrix");
        (0..self.rows).map(|i| self.get(i, i)).collect()
    }

    /// Checks symmetry within `tol` by comparing stored entries against
    /// their transposes.
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                if (v - self.get(j, i)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Residual norm `‖b − A·x‖₂` (solver verification helper).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] on length mismatch.
    pub fn residual_norm(&self, x: &[f64], b: &[f64]) -> Result<f64, LinalgError> {
        if b.len() != self.rows {
            return Err(LinalgError::DimensionMismatch {
                operation: "csr residual",
                expected: self.rows,
                actual: b.len(),
            });
        }
        let ax = self.matvec(x)?;
        Ok(crate::vector::norm2(&crate::vector::sub(b, &ax)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coo_accumulates_duplicates() {
        let mut coo = CooBuilder::new(3, 3);
        coo.add(1, 1, 2.0);
        coo.add(1, 1, 3.0);
        coo.add(0, 2, 1.0);
        coo.add(2, 0, -1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(1, 1), 5.0);
        assert_eq!(csr.get(0, 2), 1.0);
        assert_eq!(csr.get(2, 0), -1.0);
        assert_eq!(csr.get(0, 0), 0.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn empty_rows_are_handled() {
        let mut coo = CooBuilder::new(4, 4);
        coo.add(0, 0, 1.0);
        coo.add(3, 3, 1.0);
        let csr = coo.to_csr();
        assert_eq!(csr.get(1, 2), 0.0);
        assert_eq!(
            csr.matvec(&[1.0, 1.0, 1.0, 1.0]).unwrap(),
            vec![1.0, 0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn matvec_matches_dense_equivalent() {
        let mut coo = CooBuilder::new(3, 3);
        let dense = [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]];
        for (i, row) in dense.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                coo.add(i, j, v);
            }
        }
        let csr = coo.to_csr();
        let x = [1.0, 2.0, 3.0];
        let y = csr.matvec(&x).unwrap();
        for i in 0..3 {
            let want: f64 = (0..3).map(|j| dense[i][j] * x[j]).sum();
            assert!((y[i] - want).abs() < 1e-14);
        }
    }

    #[test]
    fn diagonal_and_symmetry() {
        let mut coo = CooBuilder::new(2, 2);
        coo.add(0, 0, 4.0);
        coo.add(0, 1, 1.0);
        coo.add(1, 0, 1.0);
        coo.add(1, 1, 3.0);
        let csr = coo.to_csr();
        assert_eq!(csr.diagonal(), vec![4.0, 3.0]);
        assert!(csr.is_symmetric(0.0));

        let mut coo2 = CooBuilder::new(2, 2);
        coo2.add(0, 1, 1.0);
        let csr2 = coo2.to_csr();
        assert!(!csr2.is_symmetric(1e-15));
    }

    #[test]
    fn identity_acts_as_identity() {
        let id = CsrMatrix::identity(5);
        let x: Vec<f64> = (0..5).map(|i| i as f64 * 1.5).collect();
        assert_eq!(id.matvec(&x).unwrap(), x);
        assert_eq!(id.nnz(), 5);
    }

    #[test]
    fn zero_contributions_are_skipped() {
        let mut coo = CooBuilder::new(2, 2);
        coo.add(0, 0, 0.0);
        coo.add(1, 1, 1.0);
        assert_eq!(coo.to_csr().nnz(), 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_add_panics() {
        let mut coo = CooBuilder::new(2, 2);
        coo.add(2, 0, 1.0);
    }

    #[test]
    fn residual_norm_is_zero_for_exact_solution() {
        let mut coo = CooBuilder::new(2, 2);
        coo.add(0, 0, 2.0);
        coo.add(1, 1, 4.0);
        let csr = coo.to_csr();
        let r = csr.residual_norm(&[1.0, 0.5], &[2.0, 2.0]).unwrap();
        assert!(r < 1e-15);
    }
}
