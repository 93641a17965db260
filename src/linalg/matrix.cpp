#include "linalg/matrix.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "linalg/parallel.h"
#include "linalg/simd.h"

namespace tfd::linalg {

matrix::matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

matrix::matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

matrix matrix::from_rows(const std::vector<std::vector<double>>& rows) {
    if (rows.empty()) return {};
    const std::size_t nc = rows.front().size();
    matrix m(rows.size(), nc);
    for (std::size_t r = 0; r < rows.size(); ++r) {
        if (rows[r].size() != nc)
            throw std::invalid_argument("matrix::from_rows: ragged rows");
        for (std::size_t c = 0; c < nc; ++c) m(r, c) = rows[r][c];
    }
    return m;
}

matrix matrix::identity(std::size_t n) {
    matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

double& matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_)
        throw std::out_of_range("matrix::at: index out of range");
    return data_[r * cols_ + c];
}

double matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_)
        throw std::out_of_range("matrix::at: index out of range");
    return data_[r * cols_ + c];
}

std::span<double> matrix::row(std::size_t r) {
    if (r >= rows_) throw std::out_of_range("matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
}

std::span<const double> matrix::row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("matrix::row: index out of range");
    return {data_.data() + r * cols_, cols_};
}

std::vector<double> matrix::col(std::size_t c) const {
    if (c >= cols_) throw std::out_of_range("matrix::col: index out of range");
    std::vector<double> out(rows_);
    for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
    return out;
}

void matrix::resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.assign(rows * cols, 0.0);
}

void matrix::fill(double v) noexcept {
    for (double& x : data_) x = v;
}

matrix matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
    if (r0 + nr > rows_ || c0 + nc > cols_)
        throw std::out_of_range("matrix::block: block exceeds matrix");
    matrix out(nr, nc);
    for (std::size_t r = 0; r < nr; ++r)
        for (std::size_t c = 0; c < nc; ++c) out(r, c) = (*this)(r0 + r, c0 + c);
    return out;
}

void matrix::set_block(std::size_t r0, std::size_t c0, const matrix& src) {
    if (r0 + src.rows() > rows_ || c0 + src.cols() > cols_)
        throw std::out_of_range("matrix::set_block: block exceeds matrix");
    for (std::size_t r = 0; r < src.rows(); ++r)
        for (std::size_t c = 0; c < src.cols(); ++c)
            (*this)(r0 + r, c0 + c) = src(r, c);
}

namespace {
void require_same_shape(const matrix& a, const matrix& b, const char* what) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(std::string(what) + ": shape mismatch");
}
}  // namespace

matrix add(const matrix& a, const matrix& b) {
    require_same_shape(a, b, "add");
    matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] + b.data()[i];
    return c;
}

matrix subtract(const matrix& a, const matrix& b) {
    require_same_shape(a, b, "subtract");
    matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = a.data()[i] - b.data()[i];
    return c;
}

matrix scale(const matrix& a, double s) {
    matrix c(a.rows(), a.cols());
    for (std::size_t i = 0; i < a.size(); ++i) c.data()[i] = s * a.data()[i];
    return c;
}

namespace {

// Fixed tile sizes for the blocked kernels. These are constants (never
// derived from the worker count) so block boundaries — and therefore
// results — are machine-independent.
constexpr std::size_t kRowBlock = 32;   // output rows per parallel task
constexpr std::size_t kColTile = 256;   // output columns per multiply task
constexpr std::size_t kDepthTile = 64;  // k-tile kept hot in cache

}  // namespace

matrix multiply(const matrix& a, const matrix& b) {
    if (a.cols() != b.rows())
        throw std::invalid_argument("multiply: inner dimension mismatch");
    matrix c(a.rows(), b.cols());
    const std::size_t k_dim = a.cols(), m = b.cols();
    // Each task owns a block of output rows times a tile of output
    // columns, so a product with few rows (the 10-row Gram-trick axis
    // product) still spreads over the pool. Within a task, k is tiled
    // so the touched part of B stays cache-resident while the
    // row-update micro-kernel accumulates. Neither tiling reorders the
    // per-element reduction: k still ascends, and a column tile is a
    // multiple of the micro-kernel's 32-column step, so every element
    // takes the path it would take in a whole-row update. Under the
    // scalar ISA this matches the naive reference bit for bit; under
    // fma256 the same order runs with fused multiply-adds
    // (tolerance-level parity, see linalg/simd.h).
    const std::size_t col_tiles = (m + kColTile - 1) / kColTile;
    const std::size_t tasks = (a.rows() + kRowBlock - 1) / kRowBlock * col_tiles;
    parallel_for_blocked(tasks, 1, [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
            const std::size_t i0 = t / col_tiles * kRowBlock;
            const std::size_t i1 = std::min(i0 + kRowBlock, a.rows());
            const std::size_t j0 = t % col_tiles * kColTile;
            const std::size_t width = std::min(j0 + kColTile, m) - j0;
            for (std::size_t k0 = 0; k0 < k_dim; k0 += kDepthTile) {
                const std::size_t k1 = std::min(k0 + kDepthTile, k_dim);
                for (std::size_t i = i0; i < i1; ++i)
                    simd::gemm_row_update(c.row(i).data() + j0,
                                          a.row(i).data() + k0, 1,
                                          b.row(k0).data() + j0, m, k1 - k0,
                                          width);
            }
        }
    });
    return c;
}

std::vector<double> multiply(const matrix& a, std::span<const double> x) {
    if (a.cols() != x.size())
        throw std::invalid_argument("multiply(mat,vec): dimension mismatch");
    std::vector<double> y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* ai = a.row(i).data();
        double acc = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) acc += ai[j] * x[j];
        y[i] = acc;
    }
    return y;
}

std::vector<double> multiply_transpose(const matrix& a,
                                       std::span<const double> x) {
    if (a.rows() != x.size())
        throw std::invalid_argument("multiply_transpose: dimension mismatch");
    std::vector<double> y(a.cols(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double xi = x[i];
        if (xi == 0.0) continue;
        const double* ai = a.row(i).data();
        for (std::size_t j = 0; j < a.cols(); ++j) y[j] += ai[j] * xi;
    }
    return y;
}

matrix transpose(const matrix& a) {
    matrix t(a.cols(), a.rows());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
    return t;
}

matrix gram(const matrix& a) {
    const std::size_t n = a.cols();
    matrix c(n, n);
    // Each task owns upper-triangle rows [i0, i1) of C; the observation
    // rows of A are streamed in fixed-size r-tiles, each row of C
    // accumulating its tile's rank-1 contributions through the row-update
    // micro-kernel. r still ascends for every (i, j), so the scalar ISA
    // matches the naive reference bit for bit (fma256: tolerance-level
    // parity).
    const std::size_t lda = a.cols();
    parallel_for_blocked(n, kRowBlock, [&](std::size_t i0, std::size_t i1) {
        for (std::size_t r0 = 0; r0 < a.rows(); r0 += kDepthTile) {
            const std::size_t depth = std::min(r0 + kDepthTile, a.rows()) - r0;
            const double* base = a.row(r0).data();
            for (std::size_t i = i0; i < i1; ++i)
                simd::gemm_row_update(c.row(i).data() + i, base + i, lda,
                                      base + i, lda, depth, n - i);
        }
    });
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
    return c;
}

matrix outer_gram(const matrix& a) {
    const std::size_t n = a.rows();
    matrix c(n, n);
    // Each task owns upper-triangle rows [i0, i1) and fills them straight
    // from A's rows through the register-tiled micro-kernel (no packing,
    // no transposed copy). The lower triangle is mirrored serially
    // afterwards so parallel tasks write strictly disjoint row ranges.
    parallel_for_blocked(n, kRowBlock, [&](std::size_t i0, std::size_t i1) {
        simd::outer_gram_rows(a.data().data(), n, a.cols(), i0, i1,
                              c.data().data());
    });
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < i; ++j) c(i, j) = c(j, i);
    return c;
}

double frobenius_norm(const matrix& a) noexcept {
    double s = 0.0;
    for (double v : a.data()) s += v * v;
    return std::sqrt(s);
}

double norm2(std::span<const double> x) noexcept {
    double s = 0.0;
    for (double v : x) s += v * v;
    return std::sqrt(s);
}

double dot(std::span<const double> x, std::span<const double> y) {
    if (x.size() != y.size())
        throw std::invalid_argument("dot: length mismatch");
    // Dispatched micro-kernel (linalg/simd.h). The scalar ISA is the
    // historical 4-accumulator interleave (bit-identical to the pre-SIMD
    // dot); fma256 widens to 8 fused accumulators. Either way the
    // summation order depends only on the length, so results are
    // deterministic for a given ISA.
    return simd::dot(x.data(), y.data(), x.size());
}

double max_abs_diff(const matrix& a, const matrix& b) {
    require_same_shape(a, b, "max_abs_diff");
    double m = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
    return m;
}

std::string to_string(const matrix& a, int precision) {
    std::ostringstream os;
    os.precision(precision);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < a.cols(); ++j) {
            if (j) os << ' ';
            os << a(i, j);
        }
        os << '\n';
    }
    return os.str();
}

}  // namespace tfd::linalg
