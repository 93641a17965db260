// Naive single-threaded reference kernels for the dense products in
// linalg/matrix.h. The blocked/parallel kernels are tested against
// these: bit-for-bit under the scalar ISA, to a contraction tolerance
// under fma256. They are the executable statement of each kernel's
// per-element reduction order.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>

#include "linalg/matrix.h"

namespace tfd::linalg::reference {

/// C = A * B; every C(i, j) sums k ascending, skipping zero A(i, k).
inline matrix naive_multiply(const matrix& a, const matrix& b) {
    if (a.cols() != b.rows())
        throw std::invalid_argument("multiply: inner dimension mismatch");
    matrix c(a.rows(), b.cols());
    const std::size_t n = a.rows(), k_dim = a.cols(), m = b.cols();
    for (std::size_t i = 0; i < n; ++i) {
        double* ci = c.row(i).data();
        for (std::size_t k = 0; k < k_dim; ++k) {
            const double aik = a(i, k);
            if (aik == 0.0) continue;
            const double* bk = b.row(k).data();
            for (std::size_t j = 0; j < m; ++j) ci[j] += aik * bk[j];
        }
    }
    return c;
}

/// C = A^T A; every C(i, j) sums observation rows ascending, skipping
/// zero A(r, i); the upper triangle is mirrored.
inline matrix naive_gram(const matrix& a) {
    const std::size_t n = a.cols();
    matrix c(n, n);
    for (std::size_t r = 0; r < a.rows(); ++r) {
        const double* ar = a.row(r).data();
        for (std::size_t i = 0; i < n; ++i) {
            const double v = ar[i];
            if (v == 0.0) continue;
            double* ci = c.row(i).data();
            for (std::size_t j = i; j < n; ++j) ci[j] += v * ar[j];
        }
    }
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
    return c;
}

/// C = A A^T; every C(i, j) is one dispatched dot() of rows i and j.
inline matrix naive_outer_gram(const matrix& a) {
    const std::size_t n = a.rows();
    matrix c(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        const auto ri = a.row(i);
        for (std::size_t j = i; j < n; ++j) {
            const double v = dot(ri, a.row(j));
            c(i, j) = v;
            c(j, i) = v;
        }
    }
    return c;
}

/// outer_gram's fma256 order (simd::outer_gram_rows), one entry at a
/// time with std::fma.
inline double lane_order_dot(const double* x, const double* y,
                             std::size_t d) {
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    std::size_t k = 0;
    for (; k + 4 <= d; k += 4)
        for (std::size_t l = 0; l < 4; ++l)
            lane[l] = std::fma(x[k + l], y[k + l], lane[l]);
    double s = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    for (; k < d; ++k) s = std::fma(x[k], y[k], s);
    return s;
}

/// C = A A^T with every entry summed by lane_order_dot.
inline matrix lane_order_outer_gram(const matrix& a) {
    const std::size_t n = a.rows(), d = a.cols();
    matrix c(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j) {
            const double v =
                lane_order_dot(a.row(i).data(), a.row(j).data(), d);
            c(i, j) = v;
            c(j, i) = v;
        }
    return c;
}

}  // namespace tfd::linalg::reference
