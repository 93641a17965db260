#include "core/multiway.h"

#include <cmath>
#include <stdexcept>

namespace tfd::core {

std::size_t multiway_matrix::column(flow::feature f, int od) const {
    if (od < 0 || static_cast<std::size_t>(od) >= flows)
        throw std::out_of_range("multiway_matrix::column: od out of range");
    return static_cast<std::size_t>(f) * flows + static_cast<std::size_t>(od);
}

std::pair<flow::feature, int> multiway_matrix::unpack(std::size_t col) const {
    if (col >= h.cols())
        throw std::out_of_range("multiway_matrix::unpack: column out of range");
    return {static_cast<flow::feature>(col / flows),
            static_cast<int>(col % flows)};
}

multiway_matrix unfold(
    const std::array<linalg::matrix, flow::feature_count>& features) {
    const std::size_t t = features[0].rows();
    const std::size_t p = features[0].cols();
    if (t == 0 || p == 0)
        throw std::invalid_argument("unfold: empty feature matrices");
    for (const auto& m : features)
        if (m.rows() != t || m.cols() != p)
            throw std::invalid_argument("unfold: feature matrix shape mismatch");

    multiway_matrix out;
    out.flows = p;
    out.h.resize(t, flow::feature_count * p);
    for (int f = 0; f < flow::feature_count; ++f) {
        double norm = linalg::frobenius_norm(features[f]);
        if (norm == 0.0) norm = 1.0;  // all-zero feature block stays zero
        out.submatrix_norm[f] = norm;
        const double inv = 1.0 / norm;
        for (std::size_t r = 0; r < t; ++r) {
            const auto src = features[f].row(r);
            auto dst = out.h.row(r);
            for (std::size_t c = 0; c < p; ++c)
                dst[static_cast<std::size_t>(f) * p + c] = src[c] * inv;
        }
    }
    return out;
}

multiway_matrix unfold(const od_dataset& dataset) {
    return unfold(dataset.entropy);
}

std::array<double, flow::feature_count> flow_residual(
    std::span<const double> residual, int od) {
    if (residual.size() % flow::feature_count != 0)
        throw std::invalid_argument("flow_residual: length is not 4p");
    const std::size_t p = residual.size() / flow::feature_count;
    if (od < 0 || static_cast<std::size_t>(od) >= p)
        throw std::out_of_range("flow_residual: od out of range");
    std::array<double, flow::feature_count> out{};
    for (int f = 0; f < flow::feature_count; ++f)
        out[f] = residual[static_cast<std::size_t>(f) * p +
                          static_cast<std::size_t>(od)];
    return out;
}

std::array<double, flow::feature_count> to_unit_norm(
    std::array<double, flow::feature_count> v) noexcept {
    double n = 0.0;
    for (double x : v) n += x * x;
    if (n <= 0.0) return v;
    const double inv = 1.0 / std::sqrt(n);
    for (double& x : v) x *= inv;
    return v;
}

}  // namespace tfd::core
