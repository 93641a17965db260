#include "linalg/pca.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/stats.h"
#include "linalg/symmetric_eigen.h"

namespace tfd::linalg {

double pca_result::variance_captured(std::size_t m) const {
    if (total_variance <= 0.0) return 0.0;
    double s = 0.0;
    for (std::size_t j = 0; j < std::min(m, eigenvalues.size()); ++j)
        s += eigenvalues[j];
    return s / total_variance;
}

namespace {

// Length of the numerically significant prefix of the (descending) Gram
// eigenvalues: only these have recoverable feature-space axes.
std::size_t significant_prefix(const std::vector<double>& values,
                               std::size_t t, std::size_t n) {
    const double lambda_tol =
        1e-14 * std::max(1.0, values.empty() ? 0.0 : values[0]);
    std::size_t kept = 0;
    while (kept < values.size() && kept < t && kept < n &&
           std::max(values[kept], 0.0) > lambda_tol)
        ++kept;
    return kept;
}

// Gram-trick axis assembly: recover feature-space axes
// v = Xc^T u / ||Xc^T u|| for the leading `kept` Gram eigenpairs as one
// blocked matrix product, then complete orthonormally past the data's
// rank up to `target` columns via Gram-Schmidt over canonical start
// vectors. out.eigenvalues is padded to `target`.
void assemble_gram_axes(const matrix& xc, const std::vector<double>& values,
                        const matrix& u_cols, std::size_t kept,
                        std::size_t target, pca_result& out) {
    const std::size_t t = xc.rows(), n = xc.cols();
    out.eigenvalues.assign(target, 0.0);
    // Assemble the basis transposed (one row per axis) so both the
    // normalization and the Gram-Schmidt completion below run on
    // unit-stride rows; transpose once at the end.
    matrix qt(target, n);
    std::size_t filled = 0;
    if (kept > 0) {
        // The axes come out as rows, V^T = U_kept^T Xc: one blocked
        // (kept x t)(t x n) product straight from Xc, never a transposed
        // copy of it.
        const matrix vt =
            multiply(transpose(u_cols.block(0, 0, t, kept)), xc);
        for (std::size_t j = 0; j < kept; ++j) {
            const double* vj = vt.row(j).data();
            double ss = 0.0;
            for (std::size_t i = 0; i < n; ++i) ss += vj[i] * vj[i];
            if (ss == 0.0) continue;
            const double inv = 1.0 / std::sqrt(ss);
            double* qrow = qt.row(filled).data();
            for (std::size_t i = 0; i < n; ++i) qrow[i] = vj[i] * inv;
            out.eigenvalues[filled] = std::max(values[j], 0.0);
            ++filled;
        }
    }
    // Complete the basis for the rank-deficient tail via Gram-Schmidt
    // against already-filled axes, starting from canonical vectors.
    // The residual subspace projector only needs an orthonormal
    // complement; exact choice is irrelevant. Only runs up to `target`
    // axes, so a fit of k << n axes skips (most of) this entirely.
    std::vector<double> v(n);
    std::size_t next_canon = 0;
    while (filled < target && next_canon < n) {
        std::fill(v.begin(), v.end(), 0.0);
        v[next_canon++] = 1.0;
        for (std::size_t j = 0; j < filled; ++j) {
            const double* qj = qt.row(j).data();
            const double pj = dot({v.data(), n}, qt.row(j));
            for (std::size_t i = 0; i < n; ++i) v[i] -= pj * qj[i];
        }
        const double nrm = norm2(v);
        if (nrm < 1e-8) continue;
        double* qrow = qt.row(filled).data();
        for (std::size_t i = 0; i < n; ++i) qrow[i] = v[i] / nrm;
        out.eigenvalues[filled] = 0.0;
        ++filled;
    }
    out.components = transpose(qt);
}

}  // namespace

pca_result fit_pca_topk(matrix x, std::size_t k) {
    if (x.rows() < 2)
        throw std::invalid_argument(
            "fit_pca_topk: need at least two observations");
    if (x.cols() == 0) throw std::invalid_argument("fit_pca_topk: no columns");
    pca_result out;
    out.mean = column_means(x);
    const double* mu = out.mean.data();
    for (std::size_t r = 0; r < x.rows(); ++r) {
        double* xr = x.row(r).data();
        for (std::size_t c = 0; c < x.cols(); ++c) xr[c] -= mu[c];
    }

    const std::size_t t = x.rows(), n = x.cols();
    const double denom = static_cast<double>(t - 1);
    k = std::min(std::max<std::size_t>(k, 1), n);

    if (t < n) {
        // Gram trick: only the top-k eigenpairs of the t x t Gram are
        // ever extracted. Its spectrum is the covariance spectrum padded
        // with n - t zeros, so the Gram's full-spectrum moments ARE the
        // covariance moments.
        matrix g = outer_gram(x);
        for (double& v : g.data()) v /= denom;
        partial_eigen_result pe = symmetric_eigen_topk(g, std::min(k, t));
        const std::size_t kept = significant_prefix(pe.values, t, n);
        assemble_gram_axes(x, pe.values, pe.vectors, kept, k, out);
        out.spectrum_moments = pe.moments;
    } else {
        matrix cov = gram(x);
        for (double& v : cov.data()) v /= denom;
        x = matrix{};  // the data is spent: free it before the eigensolve
        partial_eigen_result pe = symmetric_eigen_topk(cov, k);
        out.eigenvalues = std::move(pe.values);
        for (double& v : out.eigenvalues) v = std::max(v, 0.0);
        out.components = std::move(pe.vectors);
        out.spectrum_moments = pe.moments;
    }

    out.total_variance = std::max(out.spectrum_moments[0], 0.0);
    return out;
}

namespace {
void require_dim(const pca_result& p, std::span<const double> x) {
    if (x.size() != p.components.rows())
        throw std::invalid_argument("pca: observation dimension mismatch");
}

}  // namespace

double squared_prediction_error_by_reconstruction(const pca_result& p,
                                                  std::span<const double> x,
                                                  std::size_t m) {
    const std::vector<double> r = residual(p, x, m);
    double s = 0.0;
    for (double v : r) s += v * v;
    return s;
}

std::vector<double> project_normal(const pca_result& p,
                                   std::span<const double> x, std::size_t m) {
    require_dim(p, x);
    const std::size_t n = x.size();
    m = std::min(m, p.components.cols());
    std::vector<double> centered(n);
    for (std::size_t i = 0; i < n; ++i) centered[i] = x[i] - p.mean[i];

    std::vector<double> xhat(n, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
        double score = 0.0;
        for (std::size_t i = 0; i < n; ++i) score += centered[i] * p.components(i, j);
        for (std::size_t i = 0; i < n; ++i) xhat[i] += score * p.components(i, j);
    }
    for (std::size_t i = 0; i < n; ++i) xhat[i] += p.mean[i];
    return xhat;
}

std::vector<double> residual(const pca_result& p, std::span<const double> x,
                             std::size_t m) {
    std::vector<double> xhat = project_normal(p, x, m);
    std::vector<double> r(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) r[i] = x[i] - xhat[i];
    return r;
}

double squared_prediction_error(const pca_result& p, std::span<const double> x,
                                std::size_t m) {
    require_dim(p, x);
    const std::size_t n = x.size();
    m = std::min(m, p.components.cols());
    std::vector<double> centered(n), scores(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) centered[i] = x[i] - p.mean[i];
    const double ssq = dot(centered, centered);
    // One row-major streaming pass over the leading m columns; each
    // score_j accumulates <x_c, v_j> in ascending row order.
    for (std::size_t i = 0; i < n; ++i) {
        const double c = centered[i];
        if (c == 0.0) continue;
        const double* pi = p.components.row(i).data();
        for (std::size_t j = 0; j < m; ++j) scores[j] += c * pi[j];
    }
    double spe = ssq;
    for (std::size_t j = 0; j < m; ++j) spe -= scores[j] * scores[j];
    if (m > 0 && spe < spe_cancellation_guard * ssq)
        return squared_prediction_error_by_reconstruction(p, x, m);
    return spe > 0.0 ? spe : 0.0;
}

std::vector<double> squared_prediction_error_rows(const pca_result& p,
                                                  const matrix& x,
                                                  std::size_t m) {
    if (x.cols() != p.components.rows())
        throw std::invalid_argument("pca: observation dimension mismatch");
    const std::size_t t = x.rows(), n = x.cols();
    m = std::min(m, p.components.cols());

    matrix xc(t, n);
    std::vector<double> ssq(t, 0.0);
    for (std::size_t r = 0; r < t; ++r) {
        const double* xr = x.row(r).data();
        double* cr = xc.row(r).data();
        for (std::size_t i = 0; i < n; ++i) cr[i] = xr[i] - p.mean[i];
        ssq[r] = dot(xc.row(r), xc.row(r));
    }

    std::vector<double> out(t, 0.0);
    if (m == 0) return ssq;

    // scores = Xc * P_m as one blocked product (k-ascending reduction,
    // matching the streaming single-observation path), then per-row
    // ||x_tilde||^2 = ||x_c||^2 - ||scores||^2.
    const matrix pm = p.components.block(0, 0, n, m);
    const matrix scores = multiply(xc, pm);
    for (std::size_t r = 0; r < t; ++r) {
        const double* sr = scores.row(r).data();
        double spe = ssq[r];
        for (std::size_t j = 0; j < m; ++j) spe -= sr[j] * sr[j];
        if (spe < spe_cancellation_guard * ssq[r])
            spe = squared_prediction_error_by_reconstruction(p, x.row(r), m);
        out[r] = spe > 0.0 ? spe : 0.0;
    }
    return out;
}

}  // namespace tfd::linalg
