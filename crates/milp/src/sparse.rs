//! Sparse matrix storage in compressed-sparse-column (CSC) form.
//!
//! The simplex engine accesses the constraint matrix column-wise (pricing a
//! column, loading it into the basis), so CSC is the native layout. A
//! [`TripletBuilder`] accumulates `(row, col, value)` entries in any order and
//! assembles them, summing duplicates and dropping explicit zeros.

use std::fmt;

/// A sparse matrix in compressed-sparse-column format.
///
/// Column `j` occupies entries `col_ptr[j] .. col_ptr[j + 1]` of the parallel
/// `row_idx` / `values` arrays. Row indices within a column are strictly
/// increasing.
///
/// # Examples
///
/// ```
/// use milp::sparse::TripletBuilder;
///
/// let mut b = TripletBuilder::new(2, 3);
/// b.push(0, 0, 1.0);
/// b.push(1, 2, -4.0);
/// let m = b.build();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.col(2).count(), 1);
/// ```
#[derive(Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Creates an `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        CscMatrix {
            nrows,
            ncols,
            col_ptr: vec![0; ncols + 1],
            row_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structurally nonzero) entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// Iterates over the `(row, value)` entries of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= ncols`.
    pub fn col(&self, j: usize) -> ColIter<'_> {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        ColIter {
            rows: &self.row_idx[lo..hi],
            vals: &self.values[lo..hi],
            pos: 0,
        }
    }

    /// Computes the dot product of column `j` with the dense vector `x`.
    pub fn col_dot(&self, j: usize, x: &[f64]) -> f64 {
        let mut acc = 0.0;
        for (r, v) in self.col(j) {
            acc += v * x[r];
        }
        acc
    }

    /// Returns the matrix in row-major triplets, useful for row-wise scans
    /// (e.g. presolve). Triplets are ordered by column, then row.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.ncols).flat_map(move |j| self.col(j).map(move |(r, v)| (r, j, v)))
    }

    /// Builds the transpose (CSR view of `self`, represented as CSC of `A^T`).
    pub fn transpose(&self) -> CscMatrix {
        let mut b = TripletBuilder::new(self.ncols, self.nrows);
        for (r, c, v) in self.triplets() {
            b.push(c, r, v);
        }
        b.build()
    }
}

impl fmt::Debug for CscMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CscMatrix({}x{}, nnz={})",
            self.nrows,
            self.ncols,
            self.nnz()
        )
    }
}

/// Iterator over the `(row, value)` entries of one column.
#[derive(Debug, Clone)]
pub struct ColIter<'a> {
    rows: &'a [usize],
    vals: &'a [f64],
    pos: usize,
}

impl<'a> Iterator for ColIter<'a> {
    type Item = (usize, f64);

    fn next(&mut self) -> Option<(usize, f64)> {
        if self.pos < self.rows.len() {
            let item = (self.rows[self.pos], self.vals[self.pos]);
            self.pos += 1;
            Some(item)
        } else {
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.rows.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ColIter<'_> {}

/// Accumulates `(row, col, value)` triplets and assembles a [`CscMatrix`].
///
/// Duplicate entries are summed; entries that sum to exactly zero are kept as
/// explicit zeros only if `keep_zeros` is enabled (default: dropped).
#[derive(Debug, Clone)]
pub struct TripletBuilder {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, f64)>,
    keep_zeros: bool,
}

impl TripletBuilder {
    /// Creates a builder for an `nrows x ncols` matrix.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        TripletBuilder {
            nrows,
            ncols,
            entries: Vec::new(),
            keep_zeros: false,
        }
    }

    /// Number of raw triplets pushed so far (before duplicate merging).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no triplets have been pushed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds `value` at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range or `value` is not finite.
    pub fn push(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.nrows, "row {} out of range {}", row, self.nrows);
        assert!(col < self.ncols, "col {} out of range {}", col, self.ncols);
        assert!(value.is_finite(), "matrix entry must be finite");
        self.entries.push((row, col, value));
    }

    /// Assembles the CSC matrix, merging duplicates.
    pub fn build(mut self) -> CscMatrix {
        // Sort by (col, row) then merge runs.
        self.entries
            .sort_unstable_by_key(|a| (a.1, a.0));
        let mut col_ptr = vec![0usize; self.ncols + 1];
        let mut row_idx = Vec::with_capacity(self.entries.len());
        let mut values = Vec::with_capacity(self.entries.len());
        let mut i = 0;
        while i < self.entries.len() {
            let (r, c, mut v) = self.entries[i];
            let mut j = i + 1;
            while j < self.entries.len() && self.entries[j].0 == r && self.entries[j].1 == c {
                v += self.entries[j].2;
                j += 1;
            }
            if v != 0.0 || self.keep_zeros {
                row_idx.push(r);
                values.push(v);
                col_ptr[c + 1] += 1;
            }
            i = j;
        }
        for c in 0..self.ncols {
            col_ptr[c + 1] += col_ptr[c];
        }
        CscMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            col_ptr,
            row_idx,
            values,
        }
    }
}

/// A sparse vector used as a workspace for basis solves: dense values plus a
/// list of (possibly) nonzero positions.
///
/// Operations are `O(nnz)` rather than `O(n)` where possible; the dense
/// backing array makes random access free.
#[derive(Debug, Clone)]
pub struct SparseVec {
    values: Vec<f64>,
    pattern: Vec<usize>,
    marked: Vec<bool>,
}

impl SparseVec {
    /// Creates a zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        SparseVec {
            values: vec![0.0; n],
            pattern: Vec::new(),
            marked: vec![false; n],
        }
    }

    /// Dimension of the vector.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Clears all entries back to zero in `O(nnz)`.
    pub fn clear(&mut self) {
        for &i in &self.pattern {
            self.values[i] = 0.0;
            self.marked[i] = false;
        }
        self.pattern.clear();
    }

    /// Value at index `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Sets index `i` to `v`, tracking the pattern.
    #[inline]
    pub fn set(&mut self, i: usize, v: f64) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.pattern.push(i);
        }
        self.values[i] = v;
    }

    /// Adds `v` to index `i`, tracking the pattern.
    #[inline]
    pub fn add(&mut self, i: usize, v: f64) {
        if !self.marked[i] {
            self.marked[i] = true;
            self.pattern.push(i);
        }
        self.values[i] += v;
    }

    /// The (over-approximate) nonzero pattern. Entries may hold exact zeros
    /// after cancellation.
    pub fn pattern(&self) -> &[usize] {
        &self.pattern
    }

    /// Dense read-only view.
    pub fn dense(&self) -> &[f64] {
        &self.values
    }

    /// Iterates `(index, value)` over pattern entries with `|value| > drop`.
    pub fn iter_above(&self, drop: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.pattern.iter().filter_map(move |&i| {
            let v = self.values[i];
            if v.abs() > drop {
                Some((i, v))
            } else {
                None
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut b = TripletBuilder::new(3, 3);
        b.push(0, 0, 2.0);
        b.push(2, 0, -1.0);
        b.push(1, 1, 3.0);
        b.push(0, 2, 5.0);
        let m = b.build();
        assert_eq!(m.nnz(), 4);
        let c0: Vec<_> = m.col(0).collect();
        assert_eq!(c0, vec![(0, 2.0), (2, -1.0)]);
        let c1: Vec<_> = m.col(1).collect();
        assert_eq!(c1, vec![(1, 3.0)]);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(0, 0, 1.0);
        b.push(0, 0, 2.5);
        let m = b.build();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.col(0).next(), Some((0, 3.5)));
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(1, 1, 4.0);
        b.push(1, 1, -4.0);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn transpose_roundtrip() {
        let mut b = TripletBuilder::new(3, 2);
        b.push(0, 0, 1.0);
        b.push(2, 1, -7.0);
        b.push(1, 0, 2.0);
        let m = b.build();
        let mtt = m.transpose().transpose();
        assert_eq!(m, mtt);
    }

    #[test]
    fn sparse_vec_tracks_pattern() {
        let mut v = SparseVec::zeros(5);
        v.set(3, 1.5);
        v.add(3, 0.5);
        v.add(0, -1.0);
        assert_eq!(v.get(3), 2.0);
        assert_eq!(v.get(0), -1.0);
        assert_eq!(v.get(1), 0.0);
        let mut p = v.pattern().to_vec();
        p.sort_unstable();
        assert_eq!(p, vec![0, 3]);
        v.clear();
        assert_eq!(v.get(3), 0.0);
        assert!(v.pattern().is_empty());
    }

    #[test]
    #[should_panic(expected = "row 5 out of range")]
    fn out_of_range_row_panics() {
        let mut b = TripletBuilder::new(2, 2);
        b.push(5, 0, 1.0);
    }

    #[test]
    fn col_dot_matches_dense() {
        let mut b = TripletBuilder::new(3, 1);
        b.push(0, 0, 1.0);
        b.push(2, 0, 3.0);
        let m = b.build();
        assert_eq!(m.col_dot(0, &[2.0, 9.0, 4.0]), 2.0 + 12.0);
    }
}
