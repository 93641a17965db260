#include "core/subspace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "linalg/serialize.h"
#include "linalg/stats.h"

namespace tfd::core {

void subspace_model::finish_fit(std::size_t normal_dims) {
    m_ = std::min(normal_dims, pca_.eigenvalues.size());

    // Residual eigenvalue moments phi_i = sum_{j>m} lambda_j^i. The
    // tail eigenvalues were never materialized; subtract the leading
    // power sums from the exact full-spectrum moments.
    double lead[3] = {0.0, 0.0, 0.0};
    for (std::size_t j = 0; j < m_; ++j) {
        const double l = pca_.eigenvalues[j];
        lead[0] += l;
        lead[1] += l * l;
        lead[2] += l * l * l;
    }
    for (int i = 0; i < 3; ++i)
        phi_[i] = std::max(pca_.spectrum_moments[i] - lead[i], 0.0);
    h0_ = 1.0;
    if (phi_[1] > 0.0)
        h0_ = 1.0 - 2.0 * phi_[0] * phi_[2] / (3.0 * phi_[1] * phi_[1]);
    if (h0_ == 0.0) h0_ = 1e-6;

    rebuild_pt();
}

void subspace_model::rebuild_pt() {
    // Row-contiguous copy of the leading axes for the streaming SPE
    // path. Shared by fitting and snapshot restore so the derived copy
    // cannot drift from the serialized model.
    const std::size_t mm = std::min(m_, pca_.components.cols());
    const std::size_t n = pca_.components.rows();
    pt_.resize(mm, n);
    for (std::size_t i = 0; i < n; ++i) {
        const double* ci = pca_.components.row(i).data();
        for (std::size_t j = 0; j < mm; ++j) pt_(j, i) = ci[j];
    }
}

subspace_model subspace_model::fit(linalg::matrix x,
                                   const subspace_options& opts) {
    subspace_model m;
    m.pca_ = linalg::fit_pca_topk(std::move(x), opts.normal_dims);
    m.finish_fit(opts.normal_dims);
    return m;
}

void subspace_model::save(io::wire_writer& w) const {
    linalg::save(w, pca_);
    w.varint(m_);
    for (double p : phi_) w.f64(p);
    w.f64(h0_);
}

void subspace_model::load(io::wire_reader& r) {
    linalg::load(r, pca_);
    m_ = static_cast<std::size_t>(r.varint());
    for (double& p : phi_) p = r.f64();
    h0_ = r.f64();
    if (pca_.mean.size() != pca_.components.rows())
        r.fail("subspace_model: mean/components shape mismatch");
    rebuild_pt();
}

double subspace_model::spe(std::span<const double> obs) const {
    thread_local std::vector<double> scratch;
    return spe(obs, scratch);
}

double subspace_model::spe(std::span<const double> obs,
                           std::vector<double>& scratch) const {
    const std::size_t n = dimension();
    if (obs.size() != n)
        throw std::invalid_argument("spe: observation dimension mismatch");
    scratch.resize(n);
    double* centered = scratch.data();
    const double* mean = pca_.mean.data();
    for (std::size_t i = 0; i < n; ++i) centered[i] = obs[i] - mean[i];
    const std::span<const double> c{centered, n};
    const double ssq = linalg::dot(c, c);
    // ||x_tilde||^2 = ||x_c||^2 - sum_j <x_c, v_j>^2 with each score a
    // unit-stride dot against the transposed axis rows.
    double sub = 0.0;
    for (std::size_t j = 0; j < pt_.rows(); ++j) {
        const double s = linalg::dot(c, pt_.row(j));
        sub += s * s;
    }
    const double spe = ssq - sub;
    if (pt_.rows() > 0 && spe < linalg::spe_cancellation_guard * ssq)
        return linalg::squared_prediction_error_by_reconstruction(pca_, obs, m_);
    return spe > 0.0 ? spe : 0.0;
}

std::vector<double> subspace_model::residual(std::span<const double> obs) const {
    return linalg::residual(pca_, obs, m_);
}

std::vector<double> subspace_model::modeled(std::span<const double> obs) const {
    return linalg::project_normal(pca_, obs, m_);
}

std::vector<double> subspace_model::spe_rows(const linalg::matrix& x) const {
    if (x.cols() != dimension())
        throw std::invalid_argument("spe_rows: column count mismatch");
    return linalg::squared_prediction_error_rows(pca_, x, m_);
}

double subspace_model::q_threshold(double alpha) const {
    if (!(alpha > 0.0 && alpha < 1.0))
        throw std::invalid_argument("q_threshold: alpha must be in (0,1)");
    // Degenerate residual space: nothing left over, nothing to test.
    if (phi_[0] <= 0.0 || phi_[1] <= 0.0) return 0.0;

    const double c = linalg::normal_quantile(alpha);
    const double p1 = phi_[0], p2 = phi_[1];

    // Jackson-Mudholkar [13].
    const double h = h0_;
    const double term = c * std::sqrt(2.0 * p2 * h * h) / p1 + 1.0 +
                        p2 * h * (h - 1.0) / (p1 * p1);
    const double jm = term > 0.0 ? p1 * std::pow(term, 1.0 / h) : 0.0;

    // Box's chi-square approximation (SPE ~ g * chi^2_dof with
    // g = phi2/phi1, dof = phi1^2/phi2), evaluated via Wilson-Hilferty.
    // The JM formula degenerates when h0 -> 0 (slowly decaying residual
    // spectra): its threshold collapses below the SPE mean phi1 and
    // everything gets flagged. Box is well behaved for every spectrum
    // shape, so it serves as a floor.
    const double g = p2 / p1;
    const double dof = p1 * p1 / p2;
    const double wh = 1.0 - 2.0 / (9.0 * dof) + c * std::sqrt(2.0 / (9.0 * dof));
    const double box = g * dof * wh * wh * wh;

    return std::max(jm, box);
}

detection_result detect_rows(const linalg::matrix& x,
                             const subspace_options& opts, double alpha) {
    const auto model = subspace_model::fit(x, opts);
    detection_result out;
    out.spe = model.spe_rows(x);
    out.threshold = model.q_threshold(alpha);
    for (std::size_t r = 0; r < out.spe.size(); ++r)
        if (out.spe[r] > out.threshold) out.anomalous_bins.push_back(r);
    return out;
}

}  // namespace tfd::core
