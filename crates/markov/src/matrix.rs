//! Minimal dense and sparse matrix types used by the solvers.
//!
//! These are deliberately small: the solvers need row iteration, column
//! iteration, matrix–vector products and an LU-style dense solve — nothing
//! more — so we implement exactly that instead of pulling in a linear
//! algebra dependency.

use crate::SolveError;

/// A dense row-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use redeval_markov::matrix::Dense;
///
/// let mut a = Dense::zeros(2, 2);
/// a[(0, 0)] = 2.0;
/// a[(1, 1)] = 4.0;
/// let x = a.solve(&[2.0, 8.0]).unwrap();
/// assert_eq!(x, vec![1.0, 2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Dense {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Dense {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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

    /// Immutable view of one row.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Computes `self * x` for a column vector `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|i| self.row(i).iter().zip(x).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Computes the row-vector product `x * self`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (j, &a) in self.row(i).iter().enumerate() {
                y[j] += xi * a;
            }
        }
        y
    }

    /// Solves `self * x = b` by Gaussian elimination with partial pivoting.
    ///
    /// The matrix must be square; `self` is not modified.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError::Singular`] when a pivot underflows.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square or `b.len() != self.rows()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, SolveError> {
        assert_eq!(self.rows, self.cols, "matrix must be square");
        assert_eq!(b.len(), self.rows, "rhs length mismatch");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();

        for col in 0..n {
            // Partial pivoting.
            let mut piv = col;
            let mut best = a[col * n + col].abs();
            for r in col + 1..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    piv = r;
                }
            }
            if best < 1e-300 {
                return Err(SolveError::Singular);
            }
            if piv != col {
                for j in 0..n {
                    a.swap(col * n + j, piv * n + j);
                }
                x.swap(col, piv);
            }
            let d = a[col * n + col];
            for r in col + 1..n {
                let factor = a[r * n + col] / d;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for j in col + 1..n {
                    a[r * n + j] -= factor * a[col * n + j];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut s = x[col];
            for j in col + 1..n {
                s -= a[col * n + j] * x[j];
            }
            x[col] = s / a[col * n + col];
        }
        Ok(x)
    }
}

impl std::ops::Index<(usize, usize)> for Dense {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Dense {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        &mut self.data[r * self.cols + c]
    }
}

/// One entry of a sparse matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Column (or row, for column-major storage) index.
    pub index: usize,
    /// Value.
    pub value: f64,
}

/// A compressed sparse row matrix built from triplets.
///
/// Duplicate `(row, col)` entries are summed. Also keeps the transpose
/// index so solvers can iterate incoming transitions cheaply.
///
/// # Examples
///
/// ```
/// use redeval_markov::matrix::Csr;
///
/// let m = Csr::from_triplets(2, 2, &[(0, 1, 3.0), (1, 0, 4.0), (0, 1, 1.0)]);
/// assert_eq!(m.row(0), &[redeval_markov::matrix::Entry { index: 1, value: 4.0 }]);
/// let y = m.vecmat(&[1.0, 1.0]);
/// assert_eq!(y, vec![4.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    row_entries: Vec<Entry>,
    col_ptr: Vec<usize>,
    col_entries: Vec<Entry>,
}

impl Csr {
    /// Builds a matrix from `(row, col, value)` triplets, summing duplicates
    /// and dropping exact zeros.
    ///
    /// # Panics
    ///
    /// Panics if a triplet index is out of range.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(usize, usize, f64)]) -> Self {
        let mut per_row: Vec<Vec<Entry>> = vec![Vec::new(); rows];
        for &(r, c, v) in triplets {
            assert!(r < rows && c < cols, "triplet ({r},{c}) out of range");
            per_row[r].push(Entry { index: c, value: v });
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut row_entries = Vec::new();
        row_ptr.push(0);
        for row in &mut per_row {
            row.sort_by_key(|e| e.index);
            let mut merged: Vec<Entry> = Vec::with_capacity(row.len());
            for e in row.iter() {
                match merged.last_mut() {
                    Some(last) if last.index == e.index => last.value += e.value,
                    _ => merged.push(*e),
                }
            }
            merged.retain(|e| e.value != 0.0);
            row_entries.extend_from_slice(&merged);
            row_ptr.push(row_entries.len());
        }

        // Transpose index.
        let mut per_col: Vec<Vec<Entry>> = vec![Vec::new(); cols];
        for r in 0..rows {
            for e in &row_entries[row_ptr[r]..row_ptr[r + 1]] {
                per_col[e.index].push(Entry {
                    index: r,
                    value: e.value,
                });
            }
        }
        let mut col_ptr = Vec::with_capacity(cols + 1);
        let mut col_entries = Vec::new();
        col_ptr.push(0);
        for col in per_col {
            col_entries.extend_from_slice(&col);
            col_ptr.push(col_entries.len());
        }

        Csr {
            rows,
            cols,
            row_ptr,
            row_entries,
            col_ptr,
            col_entries,
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

    /// The non-zero entries of row `r` (sorted by column).
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[Entry] {
        assert!(r < self.rows, "row {r} out of range");
        &self.row_entries[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// The non-zero entries of column `c` (as `(row, value)` pairs).
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn col(&self, c: usize) -> &[Entry] {
        assert!(c < self.cols, "column {c} out of range");
        &self.col_entries[self.col_ptr[c]..self.col_ptr[c + 1]]
    }

    /// Value at `(r, c)`, zero when not stored.
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.row(r)
            .binary_search_by_key(&c, |e| e.index)
            .map(|k| self.row(r)[k].value)
            .unwrap_or(0.0)
    }

    /// Row-vector product `x * self`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch");
        let mut y = vec![0.0; self.cols];
        for (r, &xr) in x.iter().enumerate() {
            if xr == 0.0 {
                continue;
            }
            for e in self.row(r) {
                y[e.index] += xr * e.value;
            }
        }
        y
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        (0..self.rows)
            .map(|r| self.row(r).iter().map(|e| e.value * x[e.index]).sum())
            .collect()
    }

    /// Converts to a dense matrix (for small systems / tests).
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for e in self.row(r) {
                d[(r, e.index)] += e.value;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_solve_identity() {
        let mut a = Dense::zeros(3, 3);
        for i in 0..3 {
            a[(i, i)] = 1.0;
        }
        let x = a.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn dense_solve_requires_pivoting() {
        // First pivot is zero; solvable only with row swaps.
        let mut a = Dense::zeros(2, 2);
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_eq!(x, vec![5.0, 3.0]);
    }

    #[test]
    fn dense_solve_singular() {
        let a = Dense::zeros(2, 2);
        assert_eq!(a.solve(&[1.0, 1.0]), Err(SolveError::Singular));
    }

    #[test]
    fn dense_solve_random_roundtrip() {
        // A fixed well-conditioned system.
        let mut a = Dense::zeros(3, 3);
        let vals = [[4.0, 1.0, -0.5], [1.0, 5.0, 2.0], [-0.5, 2.0, 6.0]];
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = vals[i][j];
            }
        }
        let x_true = [1.0, -2.0, 0.5];
        let b = a.matvec(&x_true);
        let x = a.solve(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_vecmat_matches_matvec_of_transpose() {
        let mut a = Dense::zeros(2, 3);
        a[(0, 0)] = 1.0;
        a[(0, 2)] = 2.0;
        a[(1, 1)] = 3.0;
        let y = a.vecmat(&[2.0, 1.0]);
        assert_eq!(y, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn csr_merges_duplicates_and_drops_zeros() {
        let m = Csr::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, -1.0), (0, 1, 2.0)]);
        // The cancelled (0, 0) pair is dropped, not stored as a zero.
        let row0: Vec<_> = m.row(0).iter().map(|e| (e.index, e.value)).collect();
        assert_eq!(row0, vec![(1, 2.0)]);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.get(0, 1), 2.0);
    }

    #[test]
    fn csr_column_index_is_transpose() {
        let m = Csr::from_triplets(3, 3, &[(0, 1, 5.0), (2, 1, 7.0), (1, 0, 1.0)]);
        let col1: Vec<_> = m.col(1).iter().map(|e| (e.index, e.value)).collect();
        assert_eq!(col1, vec![(0, 5.0), (2, 7.0)]);
    }

    #[test]
    fn csr_products_match_dense() {
        let trips = [(0, 1, 2.0), (1, 0, 3.0), (1, 2, 4.0), (2, 2, 5.0)];
        let s = Csr::from_triplets(3, 3, &trips);
        let d = s.to_dense();
        let x = [1.0, 2.0, 3.0];
        assert_eq!(s.matvec(&x), d.matvec(&x));
        assert_eq!(s.vecmat(&x), d.vecmat(&x));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn csr_rejects_out_of_range() {
        let _ = Csr::from_triplets(1, 1, &[(0, 1, 1.0)]);
    }
}
