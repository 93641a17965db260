// tfd::linalg — runtime-dispatched SIMD micro-kernels for the dense
// hot loops.
//
// Every helper here has two implementations, selected once at process
// start (and overridable for tests):
//
//   scalar  — plain C++ loops that reproduce the historical kernels
//             bit-for-bit (the 4-accumulator dot, the axpy/rotation
//             loops of tred2/QL, the k-ascending GEMM row update).
//             Runs on any CPU without AVX2+FMA.
//   fma256  — AVX2 + FMA bodies compiled via per-function target
//             attributes, so the binary stays runnable on baseline
//             x86-64 and the fast path lights up automatically on
//             machines whose CPU reports AVX2+FMA (no -march flags
//             needed).
//
// Determinism: both ISAs use a fixed, input-length-dependent summation
// order, so results are reproducible run-to-run on the same machine.
// The fma256 bodies fuse multiply-adds (and widen the reduction to 8
// vector accumulators where noted), which changes *rounding* relative
// to the scalar bodies — parity across tiers is tolerance-level, not
// bit-level. force_kernel_isa(kernel_isa::scalar) reproduces pre-SIMD
// results exactly. See linalg/parallel.h for how this composes with the
// blocked-kernel determinism contract.
#pragma once

#include <cstddef>

namespace tfd::linalg {

/// Instruction set the micro-kernels dispatch to.
enum class kernel_isa {
    scalar,  ///< portable loops, bit-identical to the historical kernels
    fma256,  ///< AVX2+FMA bodies (8-accumulator tiling where applicable)
};

/// The ISA selected for this process: fma256 when the CPU reports
/// AVX2+FMA, scalar otherwise.
kernel_isa active_kernel_isa() noexcept;

/// Test hook: force an ISA. Returns false (and changes nothing) if the
/// requested ISA is not runnable on this machine. Not thread-safe
/// against concurrent kernel calls; call it from test setup only.
bool force_kernel_isa(kernel_isa isa) noexcept;

/// Stable lowercase name of an ISA tier ("scalar", "fma256")
/// for logs, bench context, and the observability surface.
const char* kernel_isa_name(kernel_isa isa) noexcept;

namespace simd {

/// sum_i x[i] * y[i]. Scalar body: the historical 4-accumulator
/// interleave. fma256 body: 8 vector accumulators + fused madds.
double dot(const double* x, const double* y, std::size_t n) noexcept;

/// dst[i] += a * x[i].
void axpy(double* dst, const double* x, double a, std::size_t n) noexcept;

/// dst[i] -= a * x[i] + b * y[i]  (tred2's rank-2 row update).
void axpy2_sub(double* dst, const double* x, double a, const double* y,
               double b, std::size_t n) noexcept;

/// Givens rotation of two rows (QL eigenvector accumulation):
///   f = y[i]; y[i] = s * x[i] + c * f; x[i] = c * x[i] - s * f.
void rot(double* x, double* y, double c, double s, std::size_t n) noexcept;

/// Fused symmetric-matvec row op: dst[i] += a * z[i] for i < n, and
/// returns sum_i z[i] * u[i] — one pass over z instead of the two an
/// axpy + dot pair would take. The tridiagonalization matvec streams
/// the whole lower triangle through this call once per step, so the
/// halved row traffic is the difference between running at L2
/// bandwidth and running at L1 speed. Scalar body composes
/// axpy + dot exactly (bit-identical to calling them back to back);
/// the fma256 body fuses both ops in a single sweep with 4 vector
/// accumulators for the reduction (fixed order, deterministic).
double axpy_dot(double* dst, const double* z, double a, const double* u,
                std::size_t n) noexcept;

/// GEMM row update: c[j] += sum_{t < depth} a[t * a_stride] * b[t * b_stride + j]
/// for j in [0, width). The reduction over t ascends for every j in both
/// ISAs (identical per-element order to the naive kernels); the fma256
/// body register-blocks j in 8 vector accumulators (32 doubles), so the
/// C row stays in registers across the whole depth tile.
void gemm_row_update(double* c, const double* a, std::size_t a_stride,
                     const double* b, std::size_t b_stride, std::size_t depth,
                     std::size_t width) noexcept;

/// Rows [i0, i1) of C = A A^T for the n x d row-major A at `a` and the
/// n x n row-major C at `c`: c[i * n + j] = sum_k a_i[k] * a_j[k] for
/// i0 <= i < i1 and every j >= i. Entries left of the diagonal in those
/// rows may be written too (callers mirror the upper triangle); nothing
/// outside those rows is.
///
/// Per-entry order, on both tiers; it depends on d alone, never on the
/// thread count: lane l sums the k = l (mod 4) in ascending order, the
/// lanes combine as ((l0 + l1) + (l2 + l3)), and the d mod 4 tail is
/// then added, ascending. The scalar body runs it entry by entry,
/// unfused (the scalar dot()'s order). The fma256 body runs it fused,
/// from a 3 x 4 register tile of row pairs read straight from A with
/// one 4-lane accumulator per pair; tests/linalg/reference_kernels.h
/// restates it as the executable lane_order_dot.
void outer_gram_rows(const double* a, std::size_t n, std::size_t d,
                     std::size_t i0, std::size_t i1, double* c) noexcept;

}  // namespace simd

}  // namespace tfd::linalg
