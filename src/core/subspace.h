// tfd::core — the subspace method (Section 4.1).
//
// PCA separates a t x n data matrix into a low-dimensional *normal*
// subspace capturing typical temporal variation and a *residual*
// subspace; each observation x decomposes as x = x_hat + x_tilde and the
// squared prediction error ||x_tilde||^2 (SPE, a.k.a. the Q statistic)
// is tested against the Jackson–Mudholkar threshold delta^2_alpha for a
// chosen false-alarm rate 1 - alpha [13].
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "io/wire.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"

namespace tfd::core {

/// Options for fitting a subspace model.
struct subspace_options {
    /// Dimension of the normal subspace. The paper found a knee at m ~= 10
    /// capturing ~85% of variance in its datasets.
    std::size_t normal_dims = 10;
};

/// A fitted subspace model over one data matrix.
class subspace_model {
public:
    /// Empty (unfitted) model; usable only as an assignment target.
    subspace_model() = default;

    /// Fit on a t x n matrix (rows = timebins) through the
    /// partial-spectrum fit (linalg::fit_pca_topk): the leading
    /// normal_dims axes plus exact residual-spectrum moments. Throws
    /// via fit_pca_topk on degenerate input; normal_dims is clamped to
    /// n. `x` is taken by value and handed on to the fit, which centers
    /// it in place: a caller that moves its matrix in pays for no copy
    /// of it.
    static subspace_model fit(linalg::matrix x,
                              const subspace_options& opts = {});

    /// Squared prediction error ||x_tilde||^2 of one observation.
    double spe(std::span<const double> obs) const;

    /// Allocation-free SPE for the single-observation streaming path:
    /// `scratch` is resized on first use and reused across calls.
    double spe(std::span<const double> obs, std::vector<double>& scratch) const;

    /// Residual vector x_tilde (length n).
    std::vector<double> residual(std::span<const double> obs) const;

    /// Modeled (normal) part x_hat.
    std::vector<double> modeled(std::span<const double> obs) const;

    /// SPE for every row of a matrix with matching column count,
    /// evaluated as a batch (two matrix products) rather than row by row.
    std::vector<double> spe_rows(const linalg::matrix& x) const;

    /// Jackson–Mudholkar Q-statistic threshold delta^2_alpha; SPE above
    /// this is anomalous at (two-sided) confidence alpha. Throws
    /// std::invalid_argument unless 0 < alpha < 1.
    double q_threshold(double alpha) const;

    std::size_t normal_dims() const noexcept { return m_; }
    std::size_t dimension() const noexcept { return pca_.components.rows(); }

    /// Fraction of variance captured by the normal subspace.
    double variance_captured() const { return pca_.variance_captured(m_); }

    const linalg::pca_result& pca() const noexcept { return pca_; }

    /// Snapshot hook: serialize the fitted model — full PCA state,
    /// normal dimension, residual-spectrum moments and the threshold
    /// constant — with bit-exact doubles, so a restored model scores
    /// every future observation identically to the original.
    void save(io::wire_writer& w) const;

    /// Restore from save() output (contents replaced; the derived
    /// row-contiguous axis copy is rebuilt). Throws io::wire_error on
    /// truncated or inconsistent payloads.
    void load(io::wire_reader& r);

private:
    void finish_fit(std::size_t normal_dims);
    void rebuild_pt();

    linalg::pca_result pca_;
    std::size_t m_ = 0;
    /// Leading m_ principal axes stored row-contiguous (m_ x n), so the
    /// streaming SPE path runs as m_ unit-stride dot products instead of
    /// strided column walks over `components`.
    linalg::matrix pt_;
    double phi_[3] = {0, 0, 0};  ///< residual eigenvalue moments
    double h0_ = 1.0;
};

/// Detection summary for one data matrix: per-bin SPE plus the bins whose
/// SPE exceeds the threshold.
struct detection_result {
    std::vector<double> spe;           ///< per-bin squared residual norm
    double threshold = 0.0;            ///< Q threshold used
    std::vector<std::size_t> anomalous_bins;
};

/// Fit on `x` and flag every row whose SPE exceeds q_threshold(alpha).
detection_result detect_rows(const linalg::matrix& x,
                             const subspace_options& opts, double alpha);

}  // namespace tfd::core
