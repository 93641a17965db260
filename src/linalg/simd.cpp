#include "linalg/simd.h"

#include <algorithm>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TFD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace tfd::linalg {

namespace {

bool cpu_supports_fma256() noexcept {
#ifdef TFD_SIMD_X86
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
    return false;
#endif
}

kernel_isa g_isa =
    cpu_supports_fma256() ? kernel_isa::fma256 : kernel_isa::scalar;

// ---------------------------------------------------------------------
// Scalar bodies: these reproduce the pre-SIMD loops bit-for-bit.

double dot_scalar(const double* x, const double* y, std::size_t n) noexcept {
    // Four independent accumulators, fixed interleave (the historical
    // matrix.cpp dot): deterministic and ~4x a strict-FP reduction.
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    double s = (s0 + s1) + (s2 + s3);
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
}

void axpy_scalar(double* dst, const double* x, double a,
                 std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) dst[i] += a * x[i];
}

void axpy2_sub_scalar(double* dst, const double* x, double a, const double* y,
                      double b, std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) dst[i] -= a * x[i] + b * y[i];
}

void rot_scalar(double* x, double* y, double c, double s,
                std::size_t n) noexcept {
    for (std::size_t i = 0; i < n; ++i) {
        const double f = y[i];
        y[i] = s * x[i] + c * f;
        x[i] = c * x[i] - s * f;
    }
}

double axpy_dot_scalar(double* dst, const double* z, double a,
                       const double* u, std::size_t n) noexcept {
    // Exact composition of the two scalar kernels, so the scalar tier
    // stays bit-identical whether callers fuse or not.
    axpy_scalar(dst, z, a, n);
    return dot_scalar(z, u, n);
}

void gemm_row_update_scalar(double* c, const double* a, std::size_t a_stride,
                            const double* b, std::size_t b_stride,
                            std::size_t depth, std::size_t width) noexcept {
    for (std::size_t t = 0; t < depth; ++t) {
        const double at = a[t * a_stride];
        if (at == 0.0) continue;
        const double* bt = b + t * b_stride;
        for (std::size_t j = 0; j < width; ++j) c[j] += at * bt[j];
    }
}

void outer_gram_rows_scalar(const double* a, std::size_t n, std::size_t d,
                            std::size_t i0, std::size_t i1,
                            double* c) noexcept {
    for (std::size_t i = i0; i < i1; ++i)
        for (std::size_t j = i; j < n; ++j)
            c[i * n + j] = dot_scalar(a + i * d, a + j * d, d);
}

// ---------------------------------------------------------------------
// fma256 bodies: AVX2+FMA via per-function target attributes, so they
// compile into baseline binaries and are only ever *called* after the
// runtime CPU check.

#ifdef TFD_SIMD_X86

#define TFD_TARGET_FMA __attribute__((target("avx2,fma")))

TFD_TARGET_FMA
double dot_fma(const double* x, const double* y, std::size_t n) noexcept {
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    __m256d a4 = _mm256_setzero_pd(), a5 = _mm256_setzero_pd();
    __m256d a6 = _mm256_setzero_pd(), a7 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        a0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), a0);
        a1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                             _mm256_loadu_pd(y + i + 4), a1);
        a2 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 8),
                             _mm256_loadu_pd(y + i + 8), a2);
        a3 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 12),
                             _mm256_loadu_pd(y + i + 12), a3);
        a4 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 16),
                             _mm256_loadu_pd(y + i + 16), a4);
        a5 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 20),
                             _mm256_loadu_pd(y + i + 20), a5);
        a6 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 24),
                             _mm256_loadu_pd(y + i + 24), a6);
        a7 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 28),
                             _mm256_loadu_pd(y + i + 28), a7);
    }
    for (; i + 4 <= n; i += 4)
        a0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i), a0);
    const __m256d v = _mm256_add_pd(_mm256_add_pd(a0, a1),
                                    _mm256_add_pd(a2, a3));
    const __m256d w = _mm256_add_pd(_mm256_add_pd(a4, a5),
                                    _mm256_add_pd(a6, a7));
    const __m256d vw = _mm256_add_pd(v, w);
    const __m128d lo = _mm256_castpd256_pd128(vw);
    const __m128d hi = _mm256_extractf128_pd(vw, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    for (; i < n; ++i) s += x[i] * y[i];
    return s;
}

TFD_TARGET_FMA
void axpy_fma(double* dst, const double* x, double a, std::size_t n) noexcept {
    const __m256d av = _mm256_set1_pd(a);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_pd(
            dst + i,
            _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(dst + i)));
        _mm256_storeu_pd(dst + i + 4,
                         _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i + 4),
                                         _mm256_loadu_pd(dst + i + 4)));
    }
    for (; i + 4 <= n; i += 4)
        _mm256_storeu_pd(
            dst + i,
            _mm256_fmadd_pd(av, _mm256_loadu_pd(x + i), _mm256_loadu_pd(dst + i)));
    for (; i < n; ++i) dst[i] += a * x[i];
}

TFD_TARGET_FMA
void axpy2_sub_fma(double* dst, const double* x, double a, const double* y,
                   double b, std::size_t n) noexcept {
    const __m256d av = _mm256_set1_pd(a);
    const __m256d bv = _mm256_set1_pd(b);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        __m256d d = _mm256_loadu_pd(dst + i);
        d = _mm256_fnmadd_pd(av, _mm256_loadu_pd(x + i), d);
        d = _mm256_fnmadd_pd(bv, _mm256_loadu_pd(y + i), d);
        _mm256_storeu_pd(dst + i, d);
    }
    for (; i < n; ++i) dst[i] -= a * x[i] + b * y[i];
}

TFD_TARGET_FMA
void rot_fma(double* x, double* y, double c, double s, std::size_t n) noexcept {
    const __m256d cv = _mm256_set1_pd(c);
    const __m256d sv = _mm256_set1_pd(s);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256d xv = _mm256_loadu_pd(x + i);
        const __m256d yv = _mm256_loadu_pd(y + i);
        _mm256_storeu_pd(y + i,
                         _mm256_fmadd_pd(sv, xv, _mm256_mul_pd(cv, yv)));
        _mm256_storeu_pd(x + i,
                         _mm256_fnmadd_pd(sv, yv, _mm256_mul_pd(cv, xv)));
    }
    for (; i < n; ++i) {
        const double f = y[i];
        y[i] = s * x[i] + c * f;
        x[i] = c * x[i] - s * f;
    }
}

TFD_TARGET_FMA
double axpy_dot_fma(double* dst, const double* z, double a, const double* u,
                    std::size_t n) noexcept {
    const __m256d av = _mm256_set1_pd(a);
    __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd(), a3 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m256d z0 = _mm256_loadu_pd(z + i);
        const __m256d z1 = _mm256_loadu_pd(z + i + 4);
        const __m256d z2 = _mm256_loadu_pd(z + i + 8);
        const __m256d z3 = _mm256_loadu_pd(z + i + 12);
        a0 = _mm256_fmadd_pd(z0, _mm256_loadu_pd(u + i), a0);
        a1 = _mm256_fmadd_pd(z1, _mm256_loadu_pd(u + i + 4), a1);
        a2 = _mm256_fmadd_pd(z2, _mm256_loadu_pd(u + i + 8), a2);
        a3 = _mm256_fmadd_pd(z3, _mm256_loadu_pd(u + i + 12), a3);
        _mm256_storeu_pd(
            dst + i, _mm256_fmadd_pd(av, z0, _mm256_loadu_pd(dst + i)));
        _mm256_storeu_pd(
            dst + i + 4,
            _mm256_fmadd_pd(av, z1, _mm256_loadu_pd(dst + i + 4)));
        _mm256_storeu_pd(
            dst + i + 8,
            _mm256_fmadd_pd(av, z2, _mm256_loadu_pd(dst + i + 8)));
        _mm256_storeu_pd(
            dst + i + 12,
            _mm256_fmadd_pd(av, z3, _mm256_loadu_pd(dst + i + 12)));
    }
    for (; i + 4 <= n; i += 4) {
        const __m256d z0 = _mm256_loadu_pd(z + i);
        a0 = _mm256_fmadd_pd(z0, _mm256_loadu_pd(u + i), a0);
        _mm256_storeu_pd(
            dst + i, _mm256_fmadd_pd(av, z0, _mm256_loadu_pd(dst + i)));
    }
    const __m256d vw = _mm256_add_pd(_mm256_add_pd(a0, a1),
                                     _mm256_add_pd(a2, a3));
    const __m128d lo = _mm256_castpd256_pd128(vw);
    const __m128d hi = _mm256_extractf128_pd(vw, 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
    for (; i < n; ++i) {
        s += z[i] * u[i];
        dst[i] += a * z[i];
    }
    return s;
}

// The 8-accumulator GEMM micro-kernel the ROADMAP calls for: a 32-wide
// slice of the output row lives in 8 ymm registers across the whole
// depth tile, so C traffic drops from once per (t, j) to once per tile
// while the per-element reduction still ascends in t.
TFD_TARGET_FMA
void gemm_row_update_fma(double* c, const double* a, std::size_t a_stride,
                         const double* b, std::size_t b_stride,
                         std::size_t depth, std::size_t width) noexcept {
    std::size_t j = 0;
    for (; j + 32 <= width; j += 32) {
        double* cj = c + j;
        __m256d r0 = _mm256_loadu_pd(cj);
        __m256d r1 = _mm256_loadu_pd(cj + 4);
        __m256d r2 = _mm256_loadu_pd(cj + 8);
        __m256d r3 = _mm256_loadu_pd(cj + 12);
        __m256d r4 = _mm256_loadu_pd(cj + 16);
        __m256d r5 = _mm256_loadu_pd(cj + 20);
        __m256d r6 = _mm256_loadu_pd(cj + 24);
        __m256d r7 = _mm256_loadu_pd(cj + 28);
        for (std::size_t t = 0; t < depth; ++t) {
            const __m256d at = _mm256_set1_pd(a[t * a_stride]);
            const double* bt = b + t * b_stride + j;
            r0 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt), r0);
            r1 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 4), r1);
            r2 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 8), r2);
            r3 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 12), r3);
            r4 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 16), r4);
            r5 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 20), r5);
            r6 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 24), r6);
            r7 = _mm256_fmadd_pd(at, _mm256_loadu_pd(bt + 28), r7);
        }
        _mm256_storeu_pd(cj, r0);
        _mm256_storeu_pd(cj + 4, r1);
        _mm256_storeu_pd(cj + 8, r2);
        _mm256_storeu_pd(cj + 12, r3);
        _mm256_storeu_pd(cj + 16, r4);
        _mm256_storeu_pd(cj + 20, r5);
        _mm256_storeu_pd(cj + 24, r6);
        _mm256_storeu_pd(cj + 28, r7);
    }
    for (; j + 4 <= width; j += 4) {
        __m256d r0 = _mm256_loadu_pd(c + j);
        for (std::size_t t = 0; t < depth; ++t)
            r0 = _mm256_fmadd_pd(_mm256_set1_pd(a[t * a_stride]),
                                 _mm256_loadu_pd(b + t * b_stride + j), r0);
        _mm256_storeu_pd(c + j, r0);
    }
    for (; j < width; ++j) {
        double acc = c[j];
        for (std::size_t t = 0; t < depth; ++t)
            acc += a[t * a_stride] * b[t * b_stride + j];
        c[j] = acc;
    }
}

// Four 4-lane accumulators to one vector of their sums, each summed as
// ((l0 + l1) + (l2 + l3)).
TFD_TARGET_FMA
inline __m256d lane_sums(__m256d v0, __m256d v1, __m256d v2,
                         __m256d v3) noexcept {
    const __m256d h01 = _mm256_hadd_pd(v0, v1);  // v0:l0+l1 v1:l0+l1 v0:l2+l3 v1:l2+l3
    const __m256d h23 = _mm256_hadd_pd(v2, v3);
    return _mm256_add_pd(_mm256_permute2f128_pd(h01, h23, 0x20),
                         _mm256_permute2f128_pd(h01, h23, 0x31));
}

// One 3 x 4 tile of outer_gram_rows: out[r * ldo + s] = <x[r], y[s]>.
// 12 accumulators plus 3 row loads and 1 column load fill the 16 ymm
// registers; each step of 4 columns is 7 loads for 12 FMAs.
TFD_TARGET_FMA
inline void outer_gram_tile_fma(const double* const x[3],
                                const double* const y[4], std::size_t d,
                                double* out, std::size_t ldo) noexcept {
    __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
    __m256d c02 = _mm256_setzero_pd(), c03 = _mm256_setzero_pd();
    __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
    __m256d c12 = _mm256_setzero_pd(), c13 = _mm256_setzero_pd();
    __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
    __m256d c22 = _mm256_setzero_pd(), c23 = _mm256_setzero_pd();
    const double *x0 = x[0], *x1 = x[1], *x2 = x[2];
    const double *y0 = y[0], *y1 = y[1], *y2 = y[2], *y3 = y[3];
    std::size_t k = 0;
    for (; k + 4 <= d; k += 4) {
        const __m256d a0 = _mm256_loadu_pd(x0 + k);
        const __m256d a1 = _mm256_loadu_pd(x1 + k);
        const __m256d a2 = _mm256_loadu_pd(x2 + k);
        __m256d b = _mm256_loadu_pd(y0 + k);
        c00 = _mm256_fmadd_pd(a0, b, c00);
        c10 = _mm256_fmadd_pd(a1, b, c10);
        c20 = _mm256_fmadd_pd(a2, b, c20);
        b = _mm256_loadu_pd(y1 + k);
        c01 = _mm256_fmadd_pd(a0, b, c01);
        c11 = _mm256_fmadd_pd(a1, b, c11);
        c21 = _mm256_fmadd_pd(a2, b, c21);
        b = _mm256_loadu_pd(y2 + k);
        c02 = _mm256_fmadd_pd(a0, b, c02);
        c12 = _mm256_fmadd_pd(a1, b, c12);
        c22 = _mm256_fmadd_pd(a2, b, c22);
        b = _mm256_loadu_pd(y3 + k);
        c03 = _mm256_fmadd_pd(a0, b, c03);
        c13 = _mm256_fmadd_pd(a1, b, c13);
        c23 = _mm256_fmadd_pd(a2, b, c23);
    }
    __m256d r0 = lane_sums(c00, c01, c02, c03);
    __m256d r1 = lane_sums(c10, c11, c12, c13);
    __m256d r2 = lane_sums(c20, c21, c22, c23);
    for (; k < d; ++k) {
        const __m256d b = _mm256_set_pd(y3[k], y2[k], y1[k], y0[k]);
        r0 = _mm256_fmadd_pd(_mm256_set1_pd(x0[k]), b, r0);
        r1 = _mm256_fmadd_pd(_mm256_set1_pd(x1[k]), b, r1);
        r2 = _mm256_fmadd_pd(_mm256_set1_pd(x2[k]), b, r2);
    }
    _mm256_storeu_pd(out, r0);
    _mm256_storeu_pd(out + ldo, r1);
    _mm256_storeu_pd(out + 2 * ldo, r2);
}

// The loop runs over 4-row column tiles outermost so the tile's 4 rows
// of A stay cache-hot while every 3-row tile of the block reuses them.
// A tile that overhangs the block's last row or A's last row repeats
// that row, and the surplus results are dropped.
TFD_TARGET_FMA
void outer_gram_rows_fma(const double* a, std::size_t n, std::size_t d,
                         std::size_t i0, std::size_t i1, double* c) noexcept {
    double edge[3 * 4];
    for (std::size_t j = i0 & ~std::size_t{3}; j < n; j += 4) {
        const std::size_t nj = std::min<std::size_t>(4, n - j);
        const double* y[4];
        for (std::size_t s = 0; s < 4; ++s)
            y[s] = a + std::min(j + s, n - 1) * d;
        for (std::size_t i = i0; i < i1 && i < j + 4; i += 3) {
            const std::size_t ni = std::min<std::size_t>(3, i1 - i);
            const double* x[3];
            for (std::size_t r = 0; r < 3; ++r)
                x[r] = a + std::min(i + r, i1 - 1) * d;
            if (ni == 3 && nj == 4) {
                outer_gram_tile_fma(x, y, d, c + i * n + j, n);
                continue;
            }
            outer_gram_tile_fma(x, y, d, edge, 4);
            for (std::size_t r = 0; r < ni; ++r)
                for (std::size_t s = 0; s < nj; ++s)
                    c[(i + r) * n + j + s] = edge[r * 4 + s];
        }
    }
}

#undef TFD_TARGET_FMA

#endif  // TFD_SIMD_X86

}  // namespace

kernel_isa active_kernel_isa() noexcept { return g_isa; }

bool force_kernel_isa(kernel_isa isa) noexcept {
    if (isa == kernel_isa::fma256 && !cpu_supports_fma256()) return false;
    g_isa = isa;
    return true;
}

const char* kernel_isa_name(kernel_isa isa) noexcept {
    switch (isa) {
        case kernel_isa::scalar: return "scalar";
        case kernel_isa::fma256: return "fma256";
    }
    return "unknown";
}

namespace simd {

double dot(const double* x, const double* y, std::size_t n) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256) return dot_fma(x, y, n);
#endif
    return dot_scalar(x, y, n);
}

void axpy(double* dst, const double* x, double a, std::size_t n) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256) return axpy_fma(dst, x, a, n);
#endif
    axpy_scalar(dst, x, a, n);
}

void axpy2_sub(double* dst, const double* x, double a, const double* y,
               double b, std::size_t n) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256) return axpy2_sub_fma(dst, x, a, y, b, n);
#endif
    axpy2_sub_scalar(dst, x, a, y, b, n);
}

void rot(double* x, double* y, double c, double s, std::size_t n) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256) return rot_fma(x, y, c, s, n);
#endif
    rot_scalar(x, y, c, s, n);
}

double axpy_dot(double* dst, const double* z, double a, const double* u,
                std::size_t n) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256) return axpy_dot_fma(dst, z, a, u, n);
#endif
    return axpy_dot_scalar(dst, z, a, u, n);
}

void gemm_row_update(double* c, const double* a, std::size_t a_stride,
                     const double* b, std::size_t b_stride, std::size_t depth,
                     std::size_t width) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256)
        return gemm_row_update_fma(c, a, a_stride, b, b_stride, depth, width);
#endif
    gemm_row_update_scalar(c, a, a_stride, b, b_stride, depth, width);
}

void outer_gram_rows(const double* a, std::size_t n, std::size_t d,
                     std::size_t i0, std::size_t i1, double* c) noexcept {
#ifdef TFD_SIMD_X86
    if (g_isa == kernel_isa::fma256)
        return outer_gram_rows_fma(a, n, d, i0, i1, c);
#endif
    outer_gram_rows_scalar(a, n, d, i0, i1, c);
}

}  // namespace simd

}  // namespace tfd::linalg
