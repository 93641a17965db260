// tfd::linalg — symmetric eigendecomposition.
//
// Both paths reduce to tridiagonal form by Householder reflections
// (EISPACK tred2 lineage, cache-friendly row-major layout):
//
//   * full spectrum (symmetric_eigen) — the classic tred2 loop,
//     accumulating Q, then implicit-shift QL (tql2 lineage): every
//     eigenpair, the O(n^3) dense path. It is the reference the tests
//     pin the other paths against and the top-k fallback.
//   * partial spectrum (symmetric_eigen_topk) — a blocked (panel)
//     reduction whose trailing updates run through the GEMM
//     micro-kernels, bisection on the Sturm sequence for the k largest
//     eigenvalues, inverse iteration (with reorthogonalization inside
//     clustered groups) for their tridiagonal eigenvectors, then a
//     Householder back-transform of just those k vectors. Skips the
//     O(n^3) QL rotation accumulation entirely, which is the dominant
//     cost of a full decomposition; exact power sums of the whole
//     spectrum ride along via tridiagonal trace identities so
//     subspace-method thresholds never need the discarded eigenpairs.
//
// symmetric_eigenvalues runs the blocked reduction followed by QL
// without accumulation. Each path is deterministic run-to-run for a
// given kernel ISA; parity between them is tolerance-level.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace tfd::linalg {

/// Result of a symmetric eigendecomposition A = V diag(w) V^T.
struct eigen_result {
    /// Eigenvalues in descending order.
    std::vector<double> values;
    /// Column j of `vectors` is the unit eigenvector for values[j].
    matrix vectors;
};

/// Eigendecomposition of a symmetric matrix.
///
/// The input must be square and (numerically) symmetric; asymmetry beyond
/// `symmetry_tol` relative to the largest element throws
/// std::invalid_argument. Eigenvalues are returned in descending order
/// with matching eigenvector columns.
///
/// Complexity: O(n^3) time, O(n^2) space.
eigen_result symmetric_eigen(const matrix& a, double symmetry_tol = 1e-8);

/// Eigenvalues only: the blocked reduction, then QL without vector
/// accumulation (still O(n^3) but several times faster).
std::vector<double> symmetric_eigenvalues(const matrix& a,
                                          double symmetry_tol = 1e-8);

/// Result of a partial symmetric eigendecomposition.
struct partial_eigen_result {
    /// The k largest eigenvalues, descending.
    std::vector<double> values;
    /// n x k; column j is the unit eigenvector for values[j].
    matrix vectors;
    /// Power sums sum_i lambda_i^p for p = 1, 2, 3 over the FULL
    /// spectrum, computed from trace identities on the tridiagonal form
    /// (trace T, trace T^2, trace T^3 are O(n) for a tridiagonal matrix)
    /// — exact without ever materializing the discarded eigenpairs.
    /// moments[0] is the trace, i.e. the total variance when `a` is a
    /// covariance matrix; moments[1] and moments[2] are what the
    /// Jackson–Mudholkar threshold needs for the residual tail.
    std::array<double, 3> moments{0.0, 0.0, 0.0};
};

/// The k largest eigenpairs of a symmetric matrix, plus full-spectrum
/// power sums.
///
/// Cost: one blocked Householder tridiagonalization (O(n^3) with a
/// small constant — no accumulation) + O(n k) bisection / inverse
/// iteration + O(n^2 k) back-transform. For the subspace method's
/// k ~ 10 this beats the full decomposition several-fold. Falls back to
/// the full QL path internally when 2k >= n or n < 16 (the partial
/// machinery would not pay for itself), and — defensively — when
/// inverse iteration fails to converge; the result shape is identical
/// either way.
///
/// k is clamped to n. Input validation matches symmetric_eigen.
partial_eigen_result symmetric_eigen_topk(const matrix& a, std::size_t k,
                                          double symmetry_tol = 1e-8);

}  // namespace tfd::linalg
