//! Symmetric eigen-decomposition via the cyclic Jacobi method.
//!
//! (DP-)PCA only ever needs the eigen-decomposition of a symmetric (noisy)
//! covariance matrix. The cyclic Jacobi algorithm is simple, numerically
//! robust, and fast enough for the dimensionalities used in the paper's
//! experiments (tens to a few hundred features), so it is the only
//! eigen-solver in this workspace.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;

/// Result of a symmetric eigen-decomposition `A = V diag(λ) Vᵀ`.
///
/// Eigenvalues are sorted in descending order and `eigenvectors` stores the
/// corresponding eigenvectors as **columns**, so
/// `eigenvectors.col(i)` is the unit eigenvector for `eigenvalues[i]`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues in descending order.
    pub eigenvalues: Vec<f64>,
    /// Matrix whose `i`-th column is the eigenvector for `eigenvalues[i]`.
    pub eigenvectors: Matrix,
}

impl SymmetricEigen {
    /// Computes the eigen-decomposition of the symmetric matrix `a`.
    ///
    /// The input must be square; only the symmetric part is meaningful (the
    /// algorithm reads both triangles, so callers should symmetrize noisy
    /// matrices first, e.g. with [`Matrix::symmetrize`]).
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] for non-square inputs,
    /// [`LinalgError::InvalidArgument`] for an input holding a non-finite
    /// entry, and [`LinalgError::EigenNoConvergence`] if the off-diagonal
    /// mass does not vanish within the sweep budget (which does not happen
    /// for genuinely symmetric inputs of the sizes used here).
    pub fn new(a: &Matrix) -> Result<Self> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::Empty { op: "eigen" });
        }
        if a.as_slice().iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::InvalidArgument {
                msg: "eigen input must be finite".to_string(),
            });
        }

        let mut m = a.clone();
        let mut v = Matrix::identity(n);

        // Convergence threshold relative to the magnitude of the matrix, so
        // the solver behaves sensibly for both tiny and huge covariances.
        let scale = a.max_abs().max(f64::MIN_POSITIVE);
        let tol = 1e-14 * scale;
        let max_sweeps = 100;

        for _sweep in 0..max_sweeps {
            let off = off_diagonal_norm(&m);
            if off <= tol {
                break;
            }
            for p in 0..n - 1 {
                for q in (p + 1)..n {
                    let apq = m.get(p, q);
                    if apq.abs() <= tol * 1e-2 {
                        continue;
                    }
                    let app = m.get(p, p);
                    let aqq = m.get(q, q);
                    // Standard Jacobi rotation angle.
                    let theta = 0.5 * (aqq - app) / apq;
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;

                    apply_rotation(&mut m, p, q, c, s);
                    accumulate_rotation(&mut v, p, q, c, s);
                }
            }
        }

        let final_off = off_diagonal_norm(&m);
        if final_off > tol * 1e3 {
            return Err(LinalgError::EigenNoConvergence {
                off_diagonal: final_off,
            });
        }

        // Extract eigenpairs and sort by descending eigenvalue.
        let mut pairs: Vec<(f64, Vec<f64>)> = (0..n).map(|i| (m.get(i, i), v.col(i))).collect();
        pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));

        let eigenvalues: Vec<f64> = pairs.iter().map(|(l, _)| *l).collect();
        let mut eigenvectors = Matrix::zeros(n, n);
        for (j, (_, vec)) in pairs.iter().enumerate() {
            for (i, &x) in vec.iter().enumerate() {
                eigenvectors.set(i, j, x);
            }
        }

        Ok(SymmetricEigen {
            eigenvalues,
            eigenvectors,
        })
    }

    /// Returns the top-`k` eigenvectors as a `d x k` matrix (columns are the
    /// leading eigenvectors). `k` is clamped to the matrix dimension.
    pub fn top_k_eigenvectors(&self, k: usize) -> Matrix {
        let d = self.eigenvectors.rows();
        let k = k.min(d);
        let idx: Vec<usize> = (0..k).collect();
        self.eigenvectors
            .select_cols(&idx)
            .expect("indices are in range by construction")
    }

    /// Fraction of total (absolute) variance explained by the top-`k`
    /// eigenvalues. Returns 1.0 when the spectrum sums to zero.
    pub fn explained_variance_ratio(&self, k: usize) -> f64 {
        let total: f64 = self.eigenvalues.iter().map(|l| l.abs()).sum();
        if total == 0.0 {
            return 1.0;
        }
        let k = k.min(self.eigenvalues.len());
        self.eigenvalues[..k].iter().map(|l| l.abs()).sum::<f64>() / total
    }

    /// Reconstructs the original matrix `V diag(λ) Vᵀ` (useful for testing).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.eigenvalues.len();
        let lambda = Matrix::from_diagonal(&self.eigenvalues);
        let v = &self.eigenvectors;
        v.matmul(&lambda)
            .and_then(|m| m.matmul_transposed(v))
            .unwrap_or_else(|_| Matrix::zeros(n, n))
    }
}

/// Frobenius norm of the strictly off-diagonal part of a square matrix.
fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.rows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let x = m.get(i, j);
                acc += x * x;
            }
        }
    }
    acc.sqrt()
}

/// Applies the two-sided Jacobi rotation G(p,q,θ)ᵀ M G(p,q,θ) in place.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.rows();
    // Rotate rows/columns p and q.
    for k in 0..n {
        let mkp = m.get(k, p);
        let mkq = m.get(k, q);
        m.set(k, p, c * mkp - s * mkq);
        m.set(k, q, s * mkp + c * mkq);
    }
    for k in 0..n {
        let mpk = m.get(p, k);
        let mqk = m.get(q, k);
        m.set(p, k, c * mpk - s * mqk);
        m.set(q, k, s * mpk + c * mqk);
    }
}

/// Accumulates the rotation into the eigenvector matrix: V <- V G(p,q,θ).
fn accumulate_rotation(v: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = v.rows();
    for k in 0..n {
        let vkp = v.get(k, p);
        let vkq = v.get(k, q);
        v.set(k, p, c * vkp - s * vkq);
        v.set(k, q, s * vkp + c * vkq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = Matrix::from_diagonal(&[3.0, 1.0, 2.0]);
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues[0], 3.0, 1e-12);
        assert_close(eig.eigenvalues[1], 2.0, 1e-12);
        assert_close(eig.eigenvalues[2], 1.0, 1e-12);
    }

    #[test]
    fn non_finite_input_is_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut m = Matrix::from_diagonal(&[1.0, 2.0, 2.0]);
            m.set(0, 1, bad);
            m.set(1, 0, bad);
            assert!(matches!(
                SymmetricEigen::new(&m),
                Err(LinalgError::InvalidArgument { .. })
            ));
        }
    }

    #[test]
    fn known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let m = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues[0], 3.0, 1e-10);
        assert_close(eig.eigenvalues[1], 1.0, 1e-10);
        // Leading eigenvector is (1,1)/sqrt(2) up to sign.
        let v0 = eig.eigenvectors.col(0);
        assert_close(v0[0].abs(), 1.0 / 2.0_f64.sqrt(), 1e-8);
        assert_close(v0[1].abs(), 1.0 / 2.0_f64.sqrt(), 1e-8);
    }

    #[test]
    fn reconstruction_matches_input() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert!(eig.reconstruct().approx_eq(&m, 1e-8));
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 3.0, 0.2],
            vec![0.5, 0.2, 2.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        let vtv = eig
            .eigenvectors
            .transpose()
            .matmul(&eig.eigenvectors)
            .unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(3), 1e-8));
    }

    #[test]
    fn trace_equals_sum_of_eigenvalues() {
        let m = Matrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 6.0, 0.0],
            vec![1.0, 0.0, 7.0],
        ])
        .unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues.iter().sum::<f64>(), m.trace(), 1e-9);
    }

    #[test]
    fn top_k_and_explained_variance() {
        let m = Matrix::from_diagonal(&[4.0, 3.0, 2.0, 1.0]);
        let eig = SymmetricEigen::new(&m).unwrap();
        let top2 = eig.top_k_eigenvectors(2);
        assert_eq!(top2.shape(), (4, 2));
        assert_close(eig.explained_variance_ratio(2), 7.0 / 10.0, 1e-12);
        assert_close(eig.explained_variance_ratio(10), 1.0, 1e-12);
        // Over-large k clamps.
        assert_eq!(eig.top_k_eigenvectors(100).shape(), (4, 4));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(SymmetricEigen::new(&Matrix::zeros(2, 3)).is_err());
        assert!(SymmetricEigen::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn handles_negative_eigenvalues() {
        // Noisy covariance matrices (after the Wishart/Gaussian mechanism)
        // can be indefinite; the solver must still work.
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
        let eig = SymmetricEigen::new(&m).unwrap();
        assert_close(eig.eigenvalues[0], 3.0, 1e-10);
        assert_close(eig.eigenvalues[1], -1.0, 1e-10);
    }

    #[test]
    fn zero_matrix_explained_variance_is_one() {
        let eig = SymmetricEigen::new(&Matrix::zeros(3, 3)).unwrap();
        assert_close(eig.explained_variance_ratio(1), 1.0, 1e-12);
    }

    #[test]
    fn larger_random_like_matrix() {
        // Deterministic "pseudo-random" symmetric matrix: A = B Bᵀ for a fixed B.
        let d = 12;
        let b = Matrix::from_fn(d, d, |i, j| ((i * 7 + j * 13) % 11) as f64 / 11.0 - 0.5);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.symmetrize();
        let eig = SymmetricEigen::new(&a).unwrap();
        // PSD: all eigenvalues >= -tol.
        assert!(eig.eigenvalues.iter().all(|&l| l > -1e-9));
        assert!(eig.reconstruct().approx_eq(&a, 1e-7));
    }
}
