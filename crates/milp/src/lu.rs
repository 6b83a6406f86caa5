//! Sparse LU factorization of the simplex basis, with product-form (eta)
//! updates.
//!
//! The factorization follows the Gilbert–Peierls left-looking scheme with
//! partial pivoting: basis columns are eliminated one at a time, producing a
//! sequence of elementary transformations `E_k = I - l_k e_{p_k}^T` (the "L
//! part") and an upper-triangular matrix `U` in pivot coordinates, such that
//! `E_{m-1} .. E_0 B = U_P`. Basis changes between refactorizations are
//! absorbed as product-form eta matrices.
//!
//! Callers use [`Factorization::factorize`] to build the decomposition,
//! [`Factorization::ftran`]/[`Factorization::btran`] for the two solve
//! directions, and [`Factorization::update`] after each basis change.

use crate::sparse::SparseVec;

/// Error raised when a basis cannot be factorized or updated.
#[derive(Debug, Clone, PartialEq)]
pub enum LuError {
    /// No acceptable pivot was found while eliminating the given basis
    /// position: the basis matrix is (numerically) singular.
    Singular { position: usize },
    /// An eta update had a pivot element too close to zero.
    UnstableUpdate { position: usize },
}

impl std::fmt::Display for LuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LuError::Singular { position } => {
                write!(f, "singular basis at position {}", position)
            }
            LuError::UnstableUpdate { position } => {
                write!(f, "numerically unstable eta update at position {}", position)
            }
        }
    }
}

impl std::error::Error for LuError {}

/// One elementary elimination `E_k = I - l_k e_{p_k}^T`.
#[derive(Debug, Clone, Default)]
struct EliminationCol {
    /// Multiplier entries `(row, l)` on rows that were non-pivotal at step k.
    entries: Vec<(usize, f64)>,
}

/// One column of `U` in pivot coordinates.
#[derive(Debug, Clone, Default)]
struct UpperCol {
    /// Off-diagonal entries `(pivot_step, value)` with `pivot_step < k`.
    entries: Vec<(usize, f64)>,
    /// Diagonal value `u_kk` (the chosen pivot magnitude).
    diag: f64,
}

/// A product-form eta transformation recording one basis column replacement.
#[derive(Debug, Clone)]
struct Eta {
    /// Basis position whose column was replaced.
    q: usize,
    /// Sparse entries of `w = B^{-1} a_new`, excluding position `q`.
    entries: Vec<(usize, f64)>,
    /// `w[q]`, the pivot element of the update.
    wq: f64,
}

/// Sparse LU factorization of a square basis matrix with eta updates.
#[derive(Debug)]
pub struct Factorization {
    m: usize,
    lower: Vec<EliminationCol>,
    upper: Vec<UpperCol>,
    /// `pivot_row[k]` = original row chosen as pivot at step `k`.
    pivot_row: Vec<usize>,
    /// `col_order[k]` = original basis position of the column eliminated at
    /// step `k` (columns are processed sparsest-first to curb fill-in).
    col_order: Vec<usize>,
    etas: Vec<Eta>,
    work: SparseVec,
    drop_tol: f64,
    pivot_tol: f64,
}

impl Factorization {
    /// Creates an empty factorization for an `m x m` basis.
    pub fn new(m: usize) -> Self {
        Factorization {
            m,
            lower: Vec::new(),
            upper: Vec::new(),
            pivot_row: Vec::new(),
            col_order: Vec::new(),
            etas: Vec::new(),
            work: SparseVec::zeros(m),
            drop_tol: 1e-12,
            pivot_tol: 1e-10,
        }
    }

    /// Number of eta updates accumulated since the last refactorization.
    pub fn eta_count(&self) -> usize {
        self.etas.len()
    }

    /// Factorizes the basis whose column at position `k` is produced by
    /// `get_col(k, &mut buf)` as `(row, value)` pairs (any order, no
    /// duplicates). Discards any previous factorization and eta updates.
    ///
    /// # Errors
    ///
    /// Returns [`LuError::Singular`] if at some elimination step every
    /// remaining candidate pivot is below the pivot tolerance.
    pub fn factorize<F>(&mut self, mut get_col: F) -> Result<(), LuError>
    where
        F: FnMut(usize, &mut Vec<(usize, f64)>),
    {
        let m = self.m;
        self.lower.clear();
        self.lower.resize(m, EliminationCol::default());
        self.upper.clear();
        self.upper.resize(m, UpperCol::default());
        self.pivot_row.clear();
        self.pivot_row.resize(m, usize::MAX);
        self.etas.clear();

        // Collect all columns, then eliminate sparsest-first: unit (slack)
        // columns pivot without fill, leaving a small dense core. The
        // processing permutation is tracked in `col_order`.
        let mut cols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut colbuf: Vec<(usize, f64)> = Vec::new();
        for k in 0..m {
            colbuf.clear();
            get_col(k, &mut colbuf);
            cols.push(colbuf.clone());
        }
        self.col_order = (0..m).collect();
        self.col_order.sort_by_key(|&k| cols[k].len());

        // row_step[r] = elimination step at which row r became pivotal.
        let mut row_step = vec![usize::MAX; m];
        // Worklist of elimination steps to apply, processed in increasing
        // step order; `queued` dedups. This keeps each column's cost
        // proportional to the steps actually touched instead of O(k).
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> =
            std::collections::BinaryHeap::new();
        let mut queued = vec![false; m];

        for k in 0..m {
            let orig = self.col_order[k];
            self.work.clear();
            heap.clear();
            for &(r, v) in &cols[orig] {
                debug_assert!(r < m);
                self.work.add(r, v);
                let step = row_step[r];
                if step != usize::MAX && !queued[step] {
                    queued[step] = true;
                    heap.push(std::cmp::Reverse(step));
                }
            }
            // Apply prior eliminations in increasing pivot order; L_j only
            // touches rows that were non-pivotal at step j (their steps are
            // > j), so newly reached pivotal rows can be pushed safely.
            while let Some(std::cmp::Reverse(j)) = heap.pop() {
                queued[j] = false;
                let pj = self.pivot_row[j];
                let xpj = self.work.get(pj);
                if xpj.abs() > self.drop_tol {
                    for idx in 0..self.lower[j].entries.len() {
                        let (r, l) = self.lower[j].entries[idx];
                        self.work.add(r, -l * xpj);
                        let step = row_step[r];
                        if step != usize::MAX && !queued[step] {
                            debug_assert!(step > j);
                            queued[step] = true;
                            heap.push(std::cmp::Reverse(step));
                        }
                    }
                }
            }
            // Partition into U entries (pivotal rows) and pivot candidates.
            let mut best_row = usize::MAX;
            let mut best_val = 0.0f64;
            for (r, v) in self.work.iter_above(self.drop_tol) {
                if row_step[r] == usize::MAX && v.abs() > best_val.abs() {
                    best_val = v;
                    best_row = r;
                }
            }
            if best_row == usize::MAX || best_val.abs() < self.pivot_tol {
                return Err(LuError::Singular { position: orig });
            }
            let d = best_val;
            let mut ucol = UpperCol {
                entries: Vec::new(),
                diag: d,
            };
            let mut lcol = EliminationCol {
                entries: Vec::new(),
            };
            for (r, v) in self.work.iter_above(self.drop_tol) {
                if r == best_row {
                    continue;
                }
                match row_step[r] {
                    usize::MAX => lcol.entries.push((r, v / d)),
                    j => ucol.entries.push((j, v)),
                }
            }
            row_step[best_row] = k;
            self.pivot_row[k] = best_row;
            self.upper[k] = ucol;
            self.lower[k] = lcol;
        }
        Ok(())
    }

    /// Solves `B x = b` in place: on entry `buf` holds `b` (dense, length m);
    /// on exit it holds `x` indexed by **basis position**.
    pub fn ftran(&self, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.m);
        // y = E b (apply eliminations in order).
        for k in 0..self.m {
            let xp = buf[self.pivot_row[k]];
            if xp != 0.0 {
                for &(r, l) in &self.lower[k].entries {
                    buf[r] -= l * xp;
                }
            }
        }
        // Solve U_P x = y backward; component k belongs to the basis column
        // processed at step k, i.e. original position col_order[k].
        let mut x = vec![0.0; self.m];
        for k in (0..self.m).rev() {
            let pk = self.pivot_row[k];
            let xk = buf[pk] / self.upper[k].diag;
            x[self.col_order[k]] = xk;
            if xk != 0.0 {
                for &(j, u) in &self.upper[k].entries {
                    buf[self.pivot_row[j]] -= u * xk;
                }
            }
        }
        buf.copy_from_slice(&x);
        // Apply eta inverses in order of creation.
        for eta in &self.etas {
            let t = buf[eta.q] / eta.wq;
            if t != 0.0 {
                for &(j, w) in &eta.entries {
                    buf[j] -= w * t;
                }
            }
            buf[eta.q] = t;
        }
    }

    /// Solves `B^T x = b` in place: on entry `buf` holds `b` indexed by
    /// **basis position**; on exit it holds `x` in original row space.
    pub fn btran(&self, buf: &mut [f64]) {
        debug_assert_eq!(buf.len(), self.m);
        // Undo etas in reverse creation order (transposed inverses).
        for eta in self.etas.iter().rev() {
            let mut acc = buf[eta.q];
            for &(j, w) in &eta.entries {
                acc -= w * buf[j];
            }
            buf[eta.q] = acc / eta.wq;
        }
        // Solve U_P^T w = b forward (w indexed by pivot step; the rhs entry
        // of step k lives at original basis position col_order[k]).
        let mut w = vec![0.0; self.m];
        for k in 0..self.m {
            let mut acc = buf[self.col_order[k]];
            for &(j, u) in &self.upper[k].entries {
                acc -= u * w[j];
            }
            w[k] = acc / self.upper[k].diag;
        }
        // x = E^T w: scatter w to pivot rows, then apply E_k^T backward.
        let mut x = vec![0.0; self.m];
        for k in 0..self.m {
            x[self.pivot_row[k]] = w[k];
        }
        for k in (0..self.m).rev() {
            let mut acc = x[self.pivot_row[k]];
            for &(r, l) in &self.lower[k].entries {
                acc -= l * x[r];
            }
            x[self.pivot_row[k]] = acc;
        }
        buf.copy_from_slice(&x);
    }

    /// Records the replacement of the basis column at position `q`, given
    /// `w = B^{-1} a_new` (the ftran of the entering column, indexed by basis
    /// position, as computed *before* the update).
    ///
    /// # Errors
    ///
    /// Returns [`LuError::UnstableUpdate`] if `|w[q]|` is below the pivot
    /// tolerance; the caller should refactorize instead.
    pub fn update(&mut self, q: usize, w: &[f64]) -> Result<(), LuError> {
        debug_assert_eq!(w.len(), self.m);
        let wq = w[q];
        if wq.abs() < self.pivot_tol {
            return Err(LuError::UnstableUpdate { position: q });
        }
        let entries: Vec<(usize, f64)> = w
            .iter()
            .enumerate()
            .filter(|&(j, &v)| j != q && v.abs() > self.drop_tol)
            .map(|(j, &v)| (j, v))
            .collect();
        self.etas.push(Eta { q, entries, wq });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a column getter from a dense row-major matrix.
    fn dense_cols(a: &[Vec<f64>]) -> impl FnMut(usize, &mut Vec<(usize, f64)>) + '_ {
        move |k: usize, buf: &mut Vec<(usize, f64)>| {
            for (r, row) in a.iter().enumerate() {
                if row[k] != 0.0 {
                    buf.push((r, row[k]));
                }
            }
        }
    }

    fn dense_mul(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        a.iter()
            .map(|row| row.iter().zip(x).map(|(r, v)| r * v).sum())
            .collect()
    }

    fn dense_mul_t(a: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let n = a[0].len();
        (0..n)
            .map(|j| a.iter().zip(x).map(|(row, v)| row[j] * v).sum())
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-8, "{:?} != {:?}", a, b);
        }
    }

    #[test]
    fn identity_solves() {
        let a = vec![
            vec![1.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let mut f = Factorization::new(3);
        f.factorize(dense_cols(&a)).unwrap();
        let mut b = vec![3.0, -1.0, 2.0];
        f.ftran(&mut b);
        assert_close(&b, &[3.0, -1.0, 2.0]);
        f.btran(&mut b);
        assert_close(&b, &[3.0, -1.0, 2.0]);
    }

    #[test]
    fn ftran_solves_small_system() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut f = Factorization::new(2);
        f.factorize(dense_cols(&a)).unwrap();
        let b = vec![5.0, 10.0];
        let mut x = b.clone();
        f.ftran(&mut x);
        assert_close(&dense_mul(&a, &x), &b);
    }

    #[test]
    fn btran_solves_small_system() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let mut f = Factorization::new(2);
        f.factorize(dense_cols(&a)).unwrap();
        let b = vec![4.0, -2.0];
        let mut x = b.clone();
        f.btran(&mut x);
        assert_close(&dense_mul_t(&a, &x), &b);
    }

    #[test]
    fn permuted_identity_needs_pivoting() {
        let a = vec![
            vec![0.0, 0.0, 5.0],
            vec![2.0, 0.0, 0.0],
            vec![0.0, -1.0, 0.0],
        ];
        let mut f = Factorization::new(3);
        f.factorize(dense_cols(&a)).unwrap();
        let b = vec![10.0, 4.0, 3.0];
        let mut x = b.clone();
        f.ftran(&mut x);
        assert_close(&dense_mul(&a, &x), &b);
        let mut y = b.clone();
        f.btran(&mut y);
        assert_close(&dense_mul_t(&a, &y), &b);
    }

    #[test]
    fn singular_detected() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        let mut f = Factorization::new(2);
        assert!(matches!(
            f.factorize(dense_cols(&a)),
            Err(LuError::Singular { .. })
        ));
    }

    #[test]
    fn random_dense_roundtrip() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..30 {
            let m = 1 + (trial % 8);
            let a: Vec<Vec<f64>> = (0..m)
                .map(|i| {
                    (0..m)
                        .map(|j| {
                            let v: f64 = rng.gen_range(-3.0..3.0);
                            // diagonal boost keeps matrices comfortably nonsingular
                            if i == j {
                                v + 5.0
                            } else if rng.gen_bool(0.4) {
                                0.0
                            } else {
                                v
                            }
                        })
                        .collect()
                })
                .collect();
            let mut f = Factorization::new(m);
            f.factorize(dense_cols(&a)).unwrap();
            let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
            let mut x = b.clone();
            f.ftran(&mut x);
            assert_close(&dense_mul(&a, &x), &b);
            let mut y = b.clone();
            f.btran(&mut y);
            assert_close(&dense_mul_t(&a, &y), &b);
        }
    }

    #[test]
    fn eta_update_matches_refactorization() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let m = 5;
        let mut a: Vec<Vec<f64>> = (0..m)
            .map(|i| {
                (0..m)
                    .map(|j| if i == j { 4.0 } else { rng.gen_range(-1.0..1.0) })
                    .collect()
            })
            .collect();
        let mut f = Factorization::new(m);
        f.factorize(dense_cols(&a)).unwrap();

        // Replace column 2 with a fresh column.
        let newcol: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut w = newcol.clone();
        f.ftran(&mut w);
        f.update(2, &w).unwrap();
        for (i, row) in a.iter_mut().enumerate() {
            row[2] = newcol[i];
        }

        let b: Vec<f64> = (0..m).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut x = b.clone();
        f.ftran(&mut x);
        assert_close(&dense_mul(&a, &x), &b);
        let mut y = b.clone();
        f.btran(&mut y);
        assert_close(&dense_mul_t(&a, &y), &b);

        // A second update on a different position.
        let newcol2: Vec<f64> = (0..m).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut w2 = newcol2.clone();
        f.ftran(&mut w2);
        f.update(0, &w2).unwrap();
        for (i, row) in a.iter_mut().enumerate() {
            row[0] = newcol2[i];
        }
        let mut x2 = b.clone();
        f.ftran(&mut x2);
        assert_close(&dense_mul(&a, &x2), &b);
        let mut y2 = b.clone();
        f.btran(&mut y2);
        assert_close(&dense_mul_t(&a, &y2), &b);
        assert_eq!(f.eta_count(), 2);
    }

    #[test]
    fn unstable_update_rejected() {
        let a = vec![vec![1.0, 0.0], vec![0.0, 1.0]];
        let mut f = Factorization::new(2);
        f.factorize(dense_cols(&a)).unwrap();
        let w = vec![1.0, 0.0]; // w[1] == 0 -> replacing column 1 is singular
        assert!(matches!(
            f.update(1, &w),
            Err(LuError::UnstableUpdate { .. })
        ));
    }
}
