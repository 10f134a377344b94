//! Dense and banded linear solvers used by the collocation BVP engine.
//!
//! Everything here is implemented from scratch (no external linear algebra
//! crates, per `DESIGN.md` §9):
//!
//! * [`DenseLu`] — LU with partial pivoting for small dense systems
//!   (boundary-condition blocks, verification, unit tests).
//! * [`BandedMatrix`] / [`BandedLu`] — LU with partial pivoting for banded
//!   systems stored in compact *sliding-row* form: row `i` keeps the entries
//!   of columns `i−kl … i+ku`. Partial pivoting only ever swaps rows within
//!   `kl` of the diagonal, so the fill stays within `kl+ku+1` columns of the
//!   sliding representation, with the `kl` lower multipliers stored
//!   separately. This is the classic band algorithm for two-point
//!   boundary-value systems.

use std::fmt;

/// Error produced when a factorization encounters an (exactly) singular pivot.
#[derive(Debug, Clone, PartialEq)]
pub struct SingularMatrix {
    /// Pivot column at which elimination broke down.
    pub column: usize,
}

impl fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "matrix is singular at pivot column {}", self.column)
    }
}

impl std::error::Error for SingularMatrix {}

// ---------------------------------------------------------------------------
// Dense LU
// ---------------------------------------------------------------------------

/// Dense LU factorization with partial pivoting (row-major storage).
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl DenseLu {
    /// Factors the `n × n` row-major matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is exactly zero.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != n * n`.
    pub fn factor(mut a: Vec<f64>, n: usize) -> Result<Self, SingularMatrix> {
        assert_eq!(a.len(), n * n, "matrix storage must be n*n");
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search in column k.
            let mut p = k;
            let mut max = a[k * n + k].abs();
            for i in (k + 1)..n {
                let v = a[i * n + k].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            if max == 0.0 {
                return Err(SingularMatrix { column: k });
            }
            if p != k {
                for j in 0..n {
                    a.swap(k * n + j, p * n + j);
                }
                piv.swap(k, p);
            }
            let pivot = a[k * n + k];
            for i in (k + 1)..n {
                let m = a[i * n + k] / pivot;
                a[i * n + k] = m;
                for j in (k + 1)..n {
                    a[i * n + j] -= m * a[k * n + j];
                }
            }
        }
        Ok(Self { n, lu: a, piv })
    }

    /// Solves `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != n`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length must match matrix size");
        let n = self.n;
        // Apply the row permutation.
        let mut x: Vec<f64> = (0..n).map(|i| b[self.piv[i]]).collect();
        // Forward substitution (unit lower triangle).
        for i in 1..n {
            let row = &self.lu[i * n..i * n + i];
            let s: f64 = row.iter().zip(&x[..i]).map(|(l, xj)| l * xj).sum();
            x[i] -= s;
        }
        // Back substitution.
        for i in (0..n).rev() {
            let row = &self.lu[i * n + i + 1..i * n + n];
            let s: f64 = row.iter().zip(&x[i + 1..n]).map(|(u, xj)| u * xj).sum();
            x[i] = (x[i] - s) / self.lu[i * n + i];
        }
        b.copy_from_slice(&x);
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }
}

// ---------------------------------------------------------------------------
// Banded LU (sliding-row storage)
// ---------------------------------------------------------------------------

/// A square banded matrix with `kl` sub-diagonals and `ku` super-diagonals,
/// stored in sliding-row form: `data[i][c]` holds `A[i, i - kl + c]` for
/// `c ∈ 0..kl+ku+1` (entries outside the matrix are zero padding).
#[derive(Debug, Clone)]
pub struct BandedMatrix {
    n: usize,
    kl: usize,
    ku: usize,
    width: usize,
    data: Vec<f64>,
}

impl BandedMatrix {
    /// Creates a zero matrix of size `n` with bandwidths `kl`, `ku`.
    pub fn zeros(n: usize, kl: usize, ku: usize) -> Self {
        let width = kl + ku + 1;
        Self {
            n,
            kl,
            ku,
            width,
            data: vec![0.0; n * width],
        }
    }

    /// Matrix dimension.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Lower bandwidth.
    pub fn lower_bandwidth(&self) -> usize {
        self.kl
    }

    /// Upper bandwidth.
    pub fn upper_bandwidth(&self) -> usize {
        self.ku
    }

    #[inline]
    fn offset(&self, i: usize, j: usize) -> Option<usize> {
        let c = j as isize - i as isize + self.kl as isize;
        if c < 0 || c >= self.width as isize {
            None
        } else {
            Some(i * self.width + c as usize)
        }
    }

    /// Reads `A[i, j]` (zero outside the band).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of range");
        self.offset(i, j).map_or(0.0, |o| self.data[o])
    }

    /// Writes `A[i, j] = v`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band or the matrix.
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        let o = self.offset(i, j).expect("entry outside the band");
        self.data[o] = v;
    }

    /// Adds `v` to `A[i, j]`.
    ///
    /// # Panics
    ///
    /// Panics if the entry lies outside the band or the matrix.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "index out of range");
        let o = self.offset(i, j).expect("entry outside the band");
        self.data[o] += v;
    }

    /// Mutable view of row `i`'s in-band storage: entry `(i, j)` lives at
    /// local index `j + kl − i`. Assembly hot loops use this to write a
    /// row's entries without recomputing the banded offset per entry.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (and out-of-band local indices panic at
    /// the slice boundary, preserving [`BandedMatrix::add`]'s band check).
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(i < self.n, "row out of range");
        &mut self.data[i * self.width..(i + 1) * self.width]
    }

    /// Resets all entries to zero, keeping the allocation (assembly reuse in
    /// optimizer inner loops). Also restores the storage length after a
    /// [`BandedMatrix::factor_into`] swapped buffers with a [`BandedLu`].
    pub fn clear(&mut self) {
        self.data.clear();
        self.data.resize(self.n * self.width, 0.0);
    }

    /// Re-shapes the matrix to `n × n` with bandwidths `kl`, `ku` and zeroes
    /// every entry, reusing the existing allocation when it is large enough.
    pub fn reset(&mut self, n: usize, kl: usize, ku: usize) {
        self.n = n;
        self.kl = kl;
        self.ku = ku;
        self.width = kl + ku + 1;
        self.clear();
    }

    /// Matrix–vector product `y = A x` (used by tests and residual checks).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != n`.
    pub fn mat_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n, "vector length must match matrix size");
        let mut y = vec![0.0; self.n];
        for (i, yi) in y.iter_mut().enumerate() {
            let j0 = i.saturating_sub(self.kl);
            let j1 = (i + self.ku).min(self.n - 1);
            let row = &self.data[i * self.width + (j0 + self.kl - i)..];
            *yi = row.iter().zip(&x[j0..=j1]).map(|(a, xj)| a * xj).sum();
        }
        y
    }

    /// Factors the matrix in place (consumes `self`).
    ///
    /// The algorithm is the classic sliding-row band LU with partial
    /// pivoting: at step `k` the pivot is chosen among rows `k..=k+kl`, rows
    /// are swapped in the compact storage, and the eliminated multipliers are
    /// kept in a separate `kl`-wide array for the solve phase.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is exactly zero.
    pub fn factor(mut self) -> Result<BandedLu, SingularMatrix> {
        let mut lu = BandedLu::empty();
        self.factor_into(&mut lu)?;
        Ok(lu)
    }

    /// Factors the matrix into `lu` without allocating in steady state.
    ///
    /// The elimination runs directly on this matrix's storage, which is then
    /// swapped into `lu.upper`; the multiplier and pivot arrays of `lu` are
    /// resized (a no-op after the first call at a given shape). Afterwards
    /// this matrix holds `lu`'s previous storage and arbitrary values — call
    /// [`BandedMatrix::clear`] (or [`BandedMatrix::reset`]) before the next
    /// assembly, exactly as the workspace-driven solve loop does.
    ///
    /// Performs the same floating-point operations in the same order as
    /// [`BandedMatrix::factor`], so repeated factorizations through a reused
    /// `lu` are bitwise identical to fresh ones.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrix`] if a pivot is exactly zero (the matrix and
    /// `lu` are left in an unspecified but safe state).
    pub fn factor_into(&mut self, lu: &mut BandedLu) -> Result<(), SingularMatrix> {
        let n = self.n;
        let kl = self.kl;
        let ku = self.ku;
        let width = kl + ku + 1;
        let a = &mut self.data;

        // Left-justify the first kl rows so that every row i is stored
        // starting at its first in-band matrix column max(i - kl, 0). The
        // elimination below maintains the invariant that when step k begins,
        // each participating row r (k ≤ r ≤ k+kl) is stored left-justified
        // at column k; eliminating shifts the row one slot further left, so
        // the kl pivoting fill stays inside the kl+ku+1 storage width.
        for i in 0..kl {
            let shift = kl - i;
            for c in shift..width {
                a[i * width + c - shift] = a[i * width + c];
            }
            for c in (width - shift)..width {
                a[i * width + c] = 0.0;
            }
        }

        lu.lower.clear();
        lu.lower.resize(n * kl, 0.0);
        lu.piv.clear();
        lu.piv.resize(n, 0usize);
        let al = &mut lu.lower;
        let piv = &mut lu.piv;
        let mut l = kl;
        for k in 0..n {
            if l < n {
                l += 1;
            }
            // Pivot search in the current (left-justified) first column.
            let mut p = k;
            let mut max = a[k * width].abs();
            for i in (k + 1)..l.min(n) {
                let v = a[i * width].abs();
                if v > max {
                    max = v;
                    p = i;
                }
            }
            piv[k] = p;
            if max == 0.0 {
                return Err(SingularMatrix { column: k });
            }
            if p != k {
                for j in 0..width {
                    a.swap(k * width + j, p * width + j);
                }
            }
            // Eliminate below the pivot. Split borrows so the pivot row and
            // the target rows are disjoint slices: the inner shift-left
            // update then runs without per-element bounds checks (this loop
            // is the factorization's entire O(n·kl·width) cost).
            let (head, tail) = a.split_at_mut((k + 1) * width);
            let pivot_row = &head[k * width..];
            let n_elim = l.min(n) - (k + 1);
            for (idx, row) in tail.chunks_exact_mut(width).take(n_elim).enumerate() {
                let m = row[0] / pivot_row[0];
                al[k * kl + idx] = m;
                for j in 1..width {
                    row[j - 1] = row[j] - m * pivot_row[j];
                }
                row[width - 1] = 0.0;
            }
        }
        lu.n = n;
        lu.kl = kl;
        lu.width = width;
        std::mem::swap(&mut self.data, &mut lu.upper);
        Ok(())
    }
}

/// Factored form of a [`BandedMatrix`]; solves systems by forward and back
/// substitution.
#[derive(Debug, Clone)]
pub struct BandedLu {
    n: usize,
    kl: usize,
    width: usize,
    /// Upper-triangular factor in left-justified sliding-row storage.
    upper: Vec<f64>,
    /// Multipliers from the elimination, `lower[k][i-k-1]`.
    lower: Vec<f64>,
    piv: Vec<usize>,
}

impl BandedLu {
    /// An empty factorization to be filled by [`BandedMatrix::factor_into`]
    /// (workspace storage; solving before a factorization panics on the size
    /// assertion for any non-empty right-hand side).
    pub fn empty() -> Self {
        Self {
            n: 0,
            kl: 0,
            width: 0,
            upper: Vec::new(),
            lower: Vec::new(),
            piv: Vec::new(),
        }
    }

    /// Dimension of the factored system (zero for [`BandedLu::empty`]).
    pub fn size(&self) -> usize {
        self.n
    }

    /// Solves `A x = b`, overwriting `b` with `x`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` does not match the matrix size.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length must match matrix size");
        let n = self.n;
        let kl = self.kl;
        let width = self.width;
        // Forward: apply permutations and multipliers.
        let mut l = kl;
        for k in 0..n {
            let p = self.piv[k];
            if p != k {
                b.swap(k, p);
            }
            if l < n {
                l += 1;
            }
            let (head, tail) = b.split_at_mut(k + 1);
            let bk = head[k];
            for (bi, m) in tail
                .iter_mut()
                .zip(&self.lower[k * kl..])
                .take(l.min(n) - (k + 1))
            {
                *bi -= m * bk;
            }
        }
        // Back substitution on the left-justified upper factor.
        let mut l = 1;
        for k in (0..n).rev() {
            let row = &self.upper[k * width..k * width + l];
            let mut s = b[k];
            for (u, bj) in row[1..].iter().zip(&b[k + 1..]) {
                s -= u * bj;
            }
            b[k] = s / row[0];
            if l < width {
                l += 1;
            }
        }
    }

    /// Convenience wrapper returning the solution as a new vector.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// Solves the transposed system `Aᵀ y = c` with the same factors,
    /// overwriting `c` with `y` (the adjoint solve of the width gradient).
    ///
    /// The factorization reads `A⁻¹ = U⁻¹·E_{n−1}⋯E_0`, where step `E_k`
    /// swaps rows `k` and `piv[k]` and then subtracts multiples of row `k`
    /// from the rows below it. Transposing gives
    /// `A⁻ᵀ = E_0ᵀ⋯E_{n−1}ᵀ·U⁻ᵀ`: a forward substitution with `Uᵀ`, then
    /// the steps undone in reverse order, each one gathering the
    /// multiplier-weighted entries below row `k` into it before the swap.
    ///
    /// # Panics
    ///
    /// Panics if `c.len()` does not match the matrix size.
    pub fn solve_transpose_in_place(&self, c: &mut [f64]) {
        assert_eq!(c.len(), self.n, "rhs length must match matrix size");
        let n = self.n;
        let kl = self.kl;
        let width = self.width;
        // Uᵀ z = c, column-oriented over the rows of U: once z[k] is known,
        // row k of U (column k of Uᵀ) is eliminated from the entries below.
        for k in 0..n {
            let row = &self.upper[k * width..k * width + width.min(n - k)];
            let (head, tail) = c.split_at_mut(k + 1);
            let zk = head[k] / row[0];
            head[k] = zk;
            for (cj, u) in tail.iter_mut().zip(&row[1..]) {
                *cj -= u * zk;
            }
        }
        // E_kᵀ for k = n−1 … 0: gather, then swap.
        for k in (0..n).rev() {
            let taken = kl.min(n - k - 1);
            let gathered: f64 = self.lower[k * kl..k * kl + taken]
                .iter()
                .zip(&c[k + 1..])
                .map(|(m, ci)| m * ci)
                .sum();
            c[k] -= gathered;
            let p = self.piv[k];
            if p != k {
                c.swap(k, p);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat_vec_dense(a: &[f64], n: usize, x: &[f64]) -> Vec<f64> {
        (0..n)
            .map(|i| (0..n).map(|j| a[i * n + j] * x[j]).sum())
            .collect()
    }

    #[test]
    fn dense_solves_known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [4/5, 7/5]
        let lu = DenseLu::factor(vec![2.0, 1.0, 1.0, 3.0], 2).unwrap();
        let x = lu.solve(&[3.0, 5.0]);
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn dense_requires_pivoting() {
        // Zero on the diagonal forces a swap.
        let lu = DenseLu::factor(vec![0.0, 1.0, 1.0, 0.0], 2).unwrap();
        let x = lu.solve(&[2.0, 3.0]);
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn dense_detects_singularity() {
        let r = DenseLu::factor(vec![1.0, 2.0, 2.0, 4.0], 2);
        assert!(r.is_err());
    }

    #[test]
    fn dense_random_roundtrip() {
        // Deterministic pseudo-random matrix; verify A·x = b reproduction.
        let n = 12;
        let mut seed = 0x12345678u64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let a: Vec<f64> = (0..n * n).map(|_| rnd()).collect();
        let x_true: Vec<f64> = (0..n).map(|_| rnd()).collect();
        let b = mat_vec_dense(&a, n, &x_true);
        let lu = DenseLu::factor(a, n).unwrap();
        let x = lu.solve(&b);
        for i in 0..n {
            assert!(
                (x[i] - x_true[i]).abs() < 1e-9,
                "x[{i}] = {} vs {}",
                x[i],
                x_true[i]
            );
        }
    }

    #[test]
    fn banded_get_set() {
        let mut m = BandedMatrix::zeros(5, 1, 2);
        m.set(0, 0, 1.0);
        m.set(0, 2, 3.0);
        m.set(4, 3, -2.0);
        m.add(4, 3, 1.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(4, 3), -1.0);
        assert_eq!(m.get(2, 2), 0.0);
        // Out-of-band reads are zero.
        assert_eq!(m.get(0, 4), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the band")]
    fn banded_set_out_of_band_panics() {
        let mut m = BandedMatrix::zeros(5, 1, 1);
        m.set(0, 4, 1.0);
    }

    #[test]
    fn banded_tridiagonal_solve() {
        // Classic -1 2 -1 tridiagonal with known solution.
        let n = 10;
        let mut m = BandedMatrix::zeros(n, 1, 1);
        for i in 0..n {
            m.set(i, i, 2.0);
            if i > 0 {
                m.set(i, i - 1, -1.0);
            }
            if i + 1 < n {
                m.set(i, i + 1, -1.0);
            }
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let b = m.mat_vec(&x_true);
        let lu = m.factor().unwrap();
        let x = lu.solve(&b);
        for i in 0..n {
            assert!((x[i] - x_true[i]).abs() < 1e-11, "x[{i}]");
        }
    }

    /// Deterministic random banded systems of several shapes (diagonally
    /// weighted), each as `(band, dense, n, rhs)`.
    fn random_band_systems() -> Vec<(BandedMatrix, Vec<f64>, usize, Vec<f64>)> {
        let mut seed = 0xdeadbeefu64;
        let mut rnd = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let mut systems = Vec::new();
        for &(n, kl, ku) in &[
            (8usize, 2usize, 1usize),
            (15, 3, 4),
            (30, 5, 5),
            (12, 0, 3),
            (12, 3, 0),
        ] {
            let mut band = BandedMatrix::zeros(n, kl, ku);
            let mut dense = vec![0.0; n * n];
            for i in 0..n {
                for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                    let v = rnd() + if i == j { 4.0 } else { 0.0 };
                    band.set(i, j, v);
                    dense[i * n + j] = v;
                }
            }
            let b: Vec<f64> = (0..n).map(|_| rnd()).collect();
            systems.push((band, dense, n, b));
        }
        systems
    }

    /// A matrix engineered so the natural pivot order is bad: tiny diagonal
    /// with large off-diagonal neighbours. Returns `(band, dense, n, rhs)`.
    fn pivoting_stress_system() -> (BandedMatrix, Vec<f64>, usize, Vec<f64>) {
        let n = 20;
        let mut band = BandedMatrix::zeros(n, 2, 2);
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            for j in i.saturating_sub(2)..=(i + 2).min(n - 1) {
                let v = if i == j {
                    1e-12
                } else {
                    1.0 + (i + 2 * j) as f64 * 0.1
                };
                band.set(i, j, v);
                dense[i * n + j] = v;
            }
        }
        let b: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        (band, dense, n, b)
    }

    fn transposed(dense: &[f64], n: usize) -> Vec<f64> {
        (0..n * n).map(|k| dense[(k % n) * n + k / n]).collect()
    }

    #[test]
    fn banded_matches_dense_on_random_bands() {
        // Cross-validate the band factorization against the dense one on
        // deterministic random banded matrices of several shapes.
        for (band, dense, n, b) in random_band_systems() {
            let (kl, ku) = (band.lower_bandwidth(), band.upper_bandwidth());
            let xb = band.factor().unwrap().solve(&b);
            let xd = DenseLu::factor(dense, n).unwrap().solve(&b);
            for i in 0..n {
                assert!(
                    (xb[i] - xd[i]).abs() < 1e-9,
                    "(n={n},kl={kl},ku={ku}) x[{i}]: banded {} vs dense {}",
                    xb[i],
                    xd[i]
                );
            }
        }
    }

    #[test]
    fn banded_pivoting_stress() {
        let (band, dense, n, b) = pivoting_stress_system();
        let xb = band.factor().unwrap().solve(&b);
        let xd = DenseLu::factor(dense, n).unwrap().solve(&b);
        for i in 0..n {
            let scale = xd[i].abs().max(1.0);
            assert!(
                (xb[i] - xd[i]).abs() / scale < 1e-8,
                "x[{i}]: banded {} vs dense {}",
                xb[i],
                xd[i]
            );
        }
    }

    #[test]
    fn transpose_solve_matches_dense_transpose() {
        // The adjoint solve reuses the banded factors of A; it must agree
        // with a dense factorization of Aᵀ on every random shape and on the
        // pivot-heavy matrix.
        let mut systems = random_band_systems();
        systems.push(pivoting_stress_system());
        for (band, dense, n, c) in systems {
            let (kl, ku) = (band.lower_bandwidth(), band.upper_bandwidth());
            let lu = band.factor().unwrap();
            let mut yb = c.clone();
            lu.solve_transpose_in_place(&mut yb);
            let yd = DenseLu::factor(transposed(&dense, n), n).unwrap().solve(&c);
            for i in 0..n {
                let scale = yd[i].abs().max(1.0);
                assert!(
                    (yb[i] - yd[i]).abs() / scale < 1e-8,
                    "(n={n},kl={kl},ku={ku}) y[{i}]: banded {} vs dense {}",
                    yb[i],
                    yd[i]
                );
            }
            // And the residual of the transposed system is at round-off.
            let residual = mat_vec_dense(&transposed(&dense, n), n, &yb);
            for i in 0..n {
                assert!((residual[i] - c[i]).abs() < 1e-9, "residual[{i}]");
            }
        }
    }

    #[test]
    fn banded_detects_singularity() {
        let m = BandedMatrix::zeros(4, 1, 1);
        assert!(m.factor().is_err());
    }

    #[test]
    fn banded_mat_vec_agrees_with_dense() {
        let n = 9;
        let (kl, ku) = (2, 3);
        let mut band = BandedMatrix::zeros(n, kl, ku);
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            for j in i.saturating_sub(kl)..=(i + ku).min(n - 1) {
                let v = (i * 7 + j * 3) as f64 * 0.01 - 0.1;
                band.set(i, j, v);
                dense[i * n + j] = v;
            }
        }
        let x: Vec<f64> = (0..n).map(|i| i as f64 - 4.0).collect();
        let yb = band.mat_vec(&x);
        let yd = mat_vec_dense(&dense, n, &x);
        for i in 0..n {
            assert!((yb[i] - yd[i]).abs() < 1e-12);
        }
    }

    fn fill_tridiagonal(m: &mut BandedMatrix, n: usize, scale: f64) {
        for i in 0..n {
            m.set(i, i, 2.0 * scale);
            if i > 0 {
                m.set(i, i - 1, -scale);
            }
            if i + 1 < n {
                m.set(i, i + 1, -scale);
            }
        }
    }

    #[test]
    fn factor_into_reuse_is_bitwise_identical_to_fresh() {
        // Factor two different systems through one reused BandedLu and one
        // reused BandedMatrix; every solve must match a fresh factorization
        // bit for bit.
        let n = 24;
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin()).collect();
        let mut mat = BandedMatrix::zeros(n, 1, 1);
        let mut lu = BandedLu::empty();
        for &scale in &[1.0, 3.5, 0.25] {
            mat.reset(n, 1, 1);
            fill_tridiagonal(&mut mat, n, scale);
            let mut fresh = BandedMatrix::zeros(n, 1, 1);
            fill_tridiagonal(&mut fresh, n, scale);

            mat.factor_into(&mut lu).unwrap();
            let x_reused = lu.solve(&b);
            let x_fresh = fresh.factor().unwrap().solve(&b);
            assert_eq!(lu.size(), n);
            for i in 0..n {
                assert!(
                    x_reused[i].to_bits() == x_fresh[i].to_bits(),
                    "scale {scale}, x[{i}]: reused {} vs fresh {}",
                    x_reused[i],
                    x_fresh[i]
                );
            }
        }
    }

    #[test]
    fn reset_reshapes_and_zeroes() {
        let mut m = BandedMatrix::zeros(3, 1, 1);
        m.set(1, 1, 5.0);
        m.reset(6, 2, 1);
        assert_eq!(m.size(), 6);
        assert_eq!(m.lower_bandwidth(), 2);
        assert_eq!(m.upper_bandwidth(), 1);
        for i in 0..6usize {
            for j in i.saturating_sub(2)..=(i + 1).min(5) {
                assert_eq!(m.get(i, j), 0.0);
            }
        }
        // Still factors correctly after the reshape.
        fill_tridiagonal(&mut m, 6, 1.0);
        assert!(m.factor().is_ok());
    }

    #[test]
    fn banded_clear_resets() {
        let mut m = BandedMatrix::zeros(3, 1, 1);
        m.set(1, 1, 5.0);
        m.clear();
        assert_eq!(m.get(1, 1), 0.0);
    }
}
