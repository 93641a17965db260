// tfd::linalg — principal component analysis.
//
// PCA over a data matrix whose rows are observations (timebins) and whose
// columns are variables (OD flows, or OD-flow x feature columns of the
// unfolded multiway matrix). Used by the subspace method to separate
// normal from residual traffic variation.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "linalg/matrix.h"

namespace tfd::linalg {

/// Fitted PCA model.
struct pca_result {
    /// Per-column means that were removed before fitting.
    std::vector<double> mean;
    /// The leading k covariance eigenvalues, descending; the tail lives
    /// in `spectrum_moments`.
    std::vector<double> eigenvalues;
    /// cols x k matrix with orthonormal columns; column j is the j-th
    /// principal axis.
    matrix components;
    /// Sum of all eigenvalues (= total variance).
    double total_variance = 0.0;
    /// Power sums sum lambda^p (p = 1, 2, 3) over the FULL covariance
    /// spectrum; spectrum_moments[0] == total_variance up to rounding.
    /// Exact although only k eigenpairs are kept (the tail comes from
    /// tridiagonal trace identities, or from the full QL spectrum when
    /// the fit falls back to it), so threshold formulas that need
    /// residual-spectrum moments (Jackson–Mudholkar) never require the
    /// discarded eigenpairs.
    std::array<double, 3> spectrum_moments{0.0, 0.0, 0.0};

    /// Fraction of total variance captured by the first m components.
    double variance_captured(std::size_t m) const;
};

/// Fit the leading k principal axes of data matrix `x` (rows =
/// observations, columns = variables).
///
/// Takes `x` by value and centers it in place, so a caller that moves
/// its matrix in pays for no copy of it. Then eigendecomposes the
/// covariance — or, when rows < cols, the rows x rows Gram of the
/// centered data (the "Gram trick": same nonzero spectrum, much cheaper
/// for wide matrices), recovering feature-space axes from its
/// eigenvectors. Only the top-k eigenpairs are extracted, via bisection
/// + inverse iteration (symmetric_eigen_topk), so the cost of the tail
/// the subspace method throws away is never paid. The result carries
/// exact full-spectrum power sums (`spectrum_moments`); `components`
/// has exactly min(k, cols) columns (orthonormally completed past the
/// data's rank if the input is too degenerate to supply them). k is
/// clamped to [1, cols]. Falls back to the full QL solver internally
/// when k is within a factor 2 of the eigenproblem order, so
/// fit_pca_topk(x, x.cols()) is the full-basis fit.
///
/// Throws std::invalid_argument if x has fewer than 2 rows or no columns.
pca_result fit_pca_topk(matrix x, std::size_t k);

/// Project a single observation (length = cols) onto the first m principal
/// axes and reconstruct it in the original space: the "modelled" part
/// x_hat. The residual is x - x_hat. Mean handling matches the fit.
std::vector<double> project_normal(const pca_result& p,
                                   std::span<const double> x, std::size_t m);

/// Residual component x_tilde = x - project_normal(...).
std::vector<double> residual(const pca_result& p, std::span<const double> x,
                             std::size_t m);

/// Fast-SPE cancellation guard: the identity formula below loses all
/// significance when the observation lies (numerically) inside the
/// normal subspace, so results under guard * ||x_c||^2 are recomputed by
/// explicit residual reconstruction. Shared by every SPE path (single
/// observation, batch, and subspace_model's streaming copy) so they
/// stay in sync.
inline constexpr double spe_cancellation_guard = 1e-10;

/// SPE by explicit residual reconstruction (exact in the near-zero
/// regime; ~2x the flops of the identity path plus allocations).
double squared_prediction_error_by_reconstruction(const pca_result& p,
                                                  std::span<const double> x,
                                                  std::size_t m);

/// Squared Euclidean norm of the residual (the SPE / Q statistic).
/// Computed via the orthonormality identity ||x_tilde||^2 = ||x_c||^2 -
/// sum_{j<m} <x_c, v_j>^2 — half the flops of reconstructing the
/// residual and equal to ||residual()||^2 up to rounding — with the
/// cancellation-guard fallback above.
double squared_prediction_error(const pca_result& p, std::span<const double> x,
                                std::size_t m);

/// SPE of every row of `x` (rows = observations), evaluated as a batch:
/// one centered copy, one blocked matrix product against the leading m
/// axes, then per-row norm arithmetic — instead of per-row projection
/// with three temporary vectors each.
std::vector<double> squared_prediction_error_rows(const pca_result& p,
                                                  const matrix& x,
                                                  std::size_t m);

}  // namespace tfd::linalg
