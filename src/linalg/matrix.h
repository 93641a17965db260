// tfd::linalg — dense row-major matrix of double.
//
// A deliberately small, dependency-free dense matrix used by the PCA /
// subspace machinery. Row-major storage, value semantics, bounds-checked
// element access through at(), unchecked through operator().
//
// Kernel strategy: multiply / gram / outer_gram are parallelized over
// fixed-size row (or output-row) blocks on the shared thread pool
// (linalg/parallel.h), with the inner loops dispatched to the
// runtime-selected SIMD tier, scalar or fma256 (linalg/simd.h).
// multiply and gram tile the reduction depth so their operand rows stay
// cache-hot; outer_gram register-blocks row pairs read straight from A.
// Block boundaries and the per-element reduction order are independent
// of the worker count — multiply sums k ascending, gram sums
// observation rows ascending, outer_gram follows simd::outer_gram_rows —
// so results never depend on the thread count. Under the scalar ISA
// every kernel is bit-identical to its naive reference
// (tests/linalg/reference_kernels.h). Under fma256 the same orders run
// with fused multiply-adds: deterministic run-to-run on the same
// machine, tolerance-level parity with the references.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace tfd::linalg {

/// Dense row-major matrix of double with value semantics.
///
/// Sizes are fixed at construction (resize() replaces contents). All
/// arithmetic helpers live as free functions in this header so the class
/// stays a plain data carrier (C.4: make a function a member only if it
/// needs direct access to the representation).
class matrix {
public:
    /// Empty 0x0 matrix.
    matrix() = default;

    /// rows x cols matrix, zero-initialized.
    matrix(std::size_t rows, std::size_t cols);

    /// rows x cols matrix filled with `fill`.
    matrix(std::size_t rows, std::size_t cols, double fill);

    /// Build from nested initializer-like data; every row must have equal
    /// length. Throws std::invalid_argument on ragged input.
    static matrix from_rows(const std::vector<std::vector<double>>& rows);

    /// Identity matrix of order n.
    static matrix identity(std::size_t n);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }
    std::size_t size() const noexcept { return data_.size(); }
    bool empty() const noexcept { return data_.empty(); }

    /// Unchecked element access.
    double& operator()(std::size_t r, std::size_t c) noexcept {
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const noexcept {
        return data_[r * cols_ + c];
    }

    /// Bounds-checked element access; throws std::out_of_range.
    double& at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;

    /// View of row r as a contiguous span.
    std::span<double> row(std::size_t r);
    std::span<const double> row(std::size_t r) const;

    /// Copy of column c.
    std::vector<double> col(std::size_t c) const;

    /// Raw storage (row-major).
    std::span<double> data() noexcept { return data_; }
    std::span<const double> data() const noexcept { return data_; }

    /// Replace contents with a zeroed rows x cols matrix.
    void resize(std::size_t rows, std::size_t cols);

    /// Set every element to v.
    void fill(double v) noexcept;

    /// Submatrix copy: rows [r0, r0+nr) x cols [c0, c0+nc).
    /// Throws std::out_of_range if the block exceeds the matrix.
    matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
                 std::size_t nc) const;

    /// Overwrite the block starting at (r0, c0) with `src`.
    void set_block(std::size_t r0, std::size_t c0, const matrix& src);

    bool operator==(const matrix& other) const = default;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// C = A + B. Throws std::invalid_argument on shape mismatch.
matrix add(const matrix& a, const matrix& b);

/// C = A - B. Throws std::invalid_argument on shape mismatch.
matrix subtract(const matrix& a, const matrix& b);

/// C = s * A.
matrix scale(const matrix& a, double s);

/// C = A * B (cache-blocked, parallel over row blocks; k-ascending
/// reduction order). Throws on shape mismatch.
matrix multiply(const matrix& a, const matrix& b);

/// y = A * x. Throws on shape mismatch.
std::vector<double> multiply(const matrix& a, std::span<const double> x);

/// y = A^T * x without forming A^T. Throws on shape mismatch.
std::vector<double> multiply_transpose(const matrix& a,
                                       std::span<const double> x);

/// C = A^T.
matrix transpose(const matrix& a);

/// C = A^T * A without forming A^T explicitly (symmetric result;
/// parallel over output-row blocks; observation rows summed ascending).
matrix gram(const matrix& a);

/// C = A * A^T without forming A^T explicitly (symmetric result;
/// parallel over output-row blocks; per-entry order: see
/// simd::outer_gram_rows).
matrix outer_gram(const matrix& a);

/// Frobenius norm of A.
double frobenius_norm(const matrix& a) noexcept;

/// Euclidean norm of x.
double norm2(std::span<const double> x) noexcept;

/// Dot product; spans must have equal length (checked).
double dot(std::span<const double> x, std::span<const double> y);

/// Maximum absolute element difference; shapes must match (checked).
double max_abs_diff(const matrix& a, const matrix& b);

/// Human-readable rendering (for diagnostics / small matrices).
std::string to_string(const matrix& a, int precision = 4);

}  // namespace tfd::linalg
