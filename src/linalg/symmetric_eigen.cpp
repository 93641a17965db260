#include "linalg/symmetric_eigen.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "linalg/parallel.h"
#include "linalg/simd.h"

namespace tfd::linalg {

namespace {

void require_symmetric(const matrix& a, double tol) {
    if (a.rows() != a.cols())
        throw std::invalid_argument("symmetric_eigen: matrix not square");
    double scale = 0.0;
    for (double v : a.data()) scale = std::max(scale, std::fabs(v));
    if (scale == 0.0) return;
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t j = i + 1; j < a.cols(); ++j)
            if (std::fabs(a(i, j) - a(j, i)) > tol * scale)
                throw std::invalid_argument(
                    "symmetric_eigen: matrix not symmetric");
}

// Householder reduction of a real symmetric matrix to tridiagonal form,
// accumulating the transformation for the full-QL path. On exit: d
// holds the diagonal, e the subdiagonal (e[0] unused), and `z` holds
// the orthogonal transformation Q such that Q^T A Q = T.
//
// The inner loops are arranged so every O(n^3) access runs along rows of
// the row-major storage (the symmetric matrix-vector product walks the
// lower triangle row-wise, and the Q-accumulation pass is loop-
// interchanged to k-outer/j-inner), with reductions done through the
// multi-accumulator dot(). Results are deterministic (fixed summation
// order) and agree with the textbook column-walking formulation to
// rounding.
void tridiagonalize(matrix& z, std::vector<double>& d, std::vector<double>& e) {
    const std::size_t n = z.rows();
    d.assign(n, 0.0);
    e.assign(n, 0.0);
    if (n == 0) return;

    for (std::size_t i = n - 1; i >= 1; --i) {
        const std::size_t l = i - 1;
        double h = 0.0;
        if (i > 1) {
            double sc = 0.0;
            for (std::size_t k = 0; k <= l; ++k) sc += std::fabs(z(i, k));
            if (sc == 0.0) {
                e[i] = z(i, l);
            } else {
                for (std::size_t k = 0; k <= l; ++k) {
                    z(i, k) /= sc;
                    h += z(i, k) * z(i, k);
                }
                double f = z(i, l);
                double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
                e[i] = sc * g;
                h -= f * g;
                z(i, l) = f - g;

                // e[0..l] = (A_sub * u) / h via a row-wise symmetric
                // matrix-vector product over the lower triangle: one
                // vectorizable axpy into e plus one multi-accumulator dot
                // per row, all unit-stride.
                const double* zi = z.row(i).data();
                for (std::size_t j = 0; j <= l; ++j) {
                    z(j, i) = z(i, j) / h;
                    e[j] = 0.0;
                }
                for (std::size_t j = 0; j <= l; ++j) {
                    const double* zj = z.row(j).data();
                    const double zij = zi[j];
                    simd::axpy(e.data(), zj, zij, j);
                    e[j] += dot({zj, j}, {zi, j}) + zj[j] * zij;
                }
                f = 0.0;
                for (std::size_t j = 0; j <= l; ++j) {
                    e[j] /= h;
                    f += e[j] * zi[j];
                }

                const double hh = f / (h + h);
                for (std::size_t j = 0; j <= l; ++j) {
                    f = z(i, j);
                    e[j] = g = e[j] - hh * f;
                    simd::axpy2_sub(z.row(j).data(), e.data(), f, zi, g, j + 1);
                }
            }
        } else {
            e[i] = z(i, l);
        }
        d[i] = h;
    }

    d[0] = 0.0;
    e[0] = 0.0;

    std::vector<double> gbuf(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        if (d[i] != 0.0) {
            // g[j] = sum_k z(i,k) z(k,j), then z(k,j) -= g[j] z(k,i);
            // k-outer so both sweeps stream rows of z. The g[j]
            // accumulation still runs k ascending per element.
            const double* zi = z.row(i).data();
            for (std::size_t j = 0; j < i; ++j) gbuf[j] = 0.0;
            for (std::size_t k = 0; k < i; ++k)
                simd::axpy(gbuf.data(), z.row(k).data(), zi[k], i);
            for (std::size_t k = 0; k < i; ++k) {
                double* zk = z.row(k).data();
                simd::axpy(zk, gbuf.data(), -zk[i], i);
            }
        }
        d[i] = z(i, i);
        z(i, i) = 1.0;
        for (std::size_t j = 0; j < i; ++j) z(j, i) = z(i, j) = 0.0;
    }
}

// ---------------------------------------------------------------------
// Blocked (panel) Householder reduction, LAPACK dsytrd/dlatrd lineage
// mapped onto tred2's bottom-up row convention; it serves every
// non-accumulating solve (symmetric_eigenvalues, symmetric_eigen_topk).
// The reflectors are the same as the classic loop's (up to rounding);
// row i of z holds the scaled u_i in columns [0, i) for the Householder
// back-transform. What changes is WHEN the rank-2 updates hit the
// matrix:
//
//   * classic: every step applies q_i u_i^T + u_i q_i^T to the whole
//     trailing block immediately (one read-modify-write sweep per step).
//   * blocked: inside a panel of kTridiagPanel steps the update is
//     applied lazily — row i absorbs the panel's pending pairs right
//     before its own reduction, and the symmetric matvec corrects
//     against the pending pairs algebraically (p = A_stale u - U(Q^T u)
//     - Q(U^T u)). The trailing rows [0, panel_lo) then absorb one
//     rank-2·nb update per panel through the blocked GEMM micro-kernels
//     on the shared thread pool.
//
// Net effect: half the O(n^3) work moves from axpy-bound sweeps (one
// pass over the trailing matrix per step) to GEMM-level tiles (one pass
// per panel), which is the classic memory-traffic fix for
// tridiagonalization. Deterministic: panel boundaries depend only on n,
// the per-row reduction order inside gemm_row_update is fixed, and
// parallel rows write disjoint slices.

// Panel width: the per-step panel overhead (catch-up rank-2 pairs plus
// matvec correction dots) grows linearly with nb while the trailing
// read-modify-write traffic shrinks as 1/nb; nb = 16 is the measured
// sweet spot on 2 MB-L2 hardware at the n = 484..2048 widths the
// unfolded OD matrices produce (swept 8..64).
constexpr std::size_t kTridiagPanel = 16;
// Trailing-update column tile: 64 doubles = two full 32-double register
// blocks of the fma256 GEMM kernel, and 2 * nb * 64 * 8 B = 16 KB of
// panel slice, safely L1-resident.
constexpr std::size_t kTrailTile = 64;

// Non-accumulating reduction. On exit: d diagonal, e subdiagonal (e[0]
// unused), rows i >= 2 of z hold the scaled reflectors u_i in columns
// [0, i) for the back-transform.
void tridiagonalize_blocked(matrix& z, std::vector<double>& d,
                            std::vector<double>& e) {
    const std::size_t n = z.rows();
    d.assign(n, 0.0);
    e.assign(n, 0.0);
    if (n == 0) return;
    if (n == 1) {
        d[0] = z(0, 0);
        return;
    }

    // Panel workspace: row t holds the reflector u_t / update vector
    // q_t of the t-th step of the current panel (support [0, i_t)).
    // wq is negated in place before the trailing update so the
    // add-only GEMM micro-kernel can apply the subtraction directly.
    matrix wu(kTridiagPanel, n), wq(kTridiagPanel, n);
    std::vector<double> p(n, 0.0);

    std::size_t hi = n - 1;
    while (hi >= 1) {
        const std::size_t plo = hi >= kTridiagPanel ? hi - kTridiagPanel + 1 : 1;
        const std::size_t members = hi - plo + 1;
        std::size_t t = 0;
        for (std::size_t i = hi + 1; i-- > plo; ++t) {
            const std::size_t l = i - 1;
            double* zi = z.row(i).data();
            // Catch row i up on the panel's pending rank-2 pairs
            // (classic applies these eagerly; cols 0..i incl. diagonal).
            for (std::size_t s = 0; s < t; ++s)
                simd::axpy2_sub(zi, wu.row(s).data(), wq(s, i),
                                wq.row(s).data(), wu(s, i), i + 1);
            double* ut = wu.row(t).data();
            double* qt = wq.row(t).data();
            std::fill(ut, ut + i, 0.0);
            std::fill(qt, qt + i, 0.0);
            double h = 0.0;
            if (i > 1) {
                double sc = 0.0;
                for (std::size_t k = 0; k <= l; ++k) sc += std::fabs(zi[k]);
                if (sc == 0.0) {
                    e[i] = zi[l];
                } else {
                    for (std::size_t k = 0; k <= l; ++k) {
                        zi[k] /= sc;
                        h += zi[k] * zi[k];
                    }
                    double f = zi[l];
                    double g = (f >= 0.0) ? -std::sqrt(h) : std::sqrt(h);
                    e[i] = sc * g;
                    h -= f * g;
                    zi[l] = f - g;

                    // p = A_eff u / h over [0, i): the row-wise symmetric
                    // matvec against the stale trailing block (each row
                    // read ONCE via the fused axpy_dot kernel — this
                    // stream is the reduction's irreducible memory
                    // traffic), then the algebraic correction for this
                    // panel's pending pairs.
                    for (std::size_t j = 0; j <= l; ++j) p[j] = 0.0;
                    for (std::size_t j = 0; j <= l; ++j) {
                        const double* zj = z.row(j).data();
                        const double zij = zi[j];
                        p[j] += simd::axpy_dot(p.data(), zj, zij, zi, j) +
                                zj[j] * zij;
                    }
                    for (std::size_t s = 0; s < t; ++s) {
                        const double* us = wu.row(s).data();
                        const double* qs = wq.row(s).data();
                        const double alpha = simd::dot(qs, zi, i);
                        const double beta = simd::dot(us, zi, i);
                        simd::axpy2_sub(p.data(), us, alpha, qs, beta, i);
                    }
                    f = 0.0;
                    for (std::size_t j = 0; j <= l; ++j) {
                        p[j] /= h;
                        f += p[j] * zi[j];
                    }
                    const double hh = f / (h + h);
                    for (std::size_t j = 0; j <= l; ++j)
                        qt[j] = p[j] - hh * zi[j];
                    std::copy(zi, zi + i, ut);
                }
            } else {
                e[i] = zi[l];
            }
            d[i] = h;
        }

        // Trailing rows [0, plo) absorb the whole panel at once:
        // z(j, 0..j) -= sum_s q_s[j] u_s + u_s[j] q_s, evaluated with
        // the add-only GEMM kernel against the negated q workspace.
        for (std::size_t s = 0; s < members; ++s) {
            double* qs = wq.row(s).data();
            for (std::size_t k = 0; k < n; ++k) qs[k] = -qs[k];
        }
        // Column tiles of kTrailTile keep the panel slices the GEMM
        // kernel streams (2 * members rows x tile doubles, ~16 KB at
        // nb = 16) resident in L1 across every row of the tile, so the
        // only L2-and-beyond traffic left is one read-modify-write of
        // the trailing triangle per panel. Tile boundaries depend only
        // on n, and each row still reduces t ascending: deterministic.
        const double* ub = wu.row(0).data();
        const double* qb = wq.row(0).data();
        parallel_for_blocked(plo, 32, [&](std::size_t j0, std::size_t j1) {
            for (std::size_t jt = 0; jt < j1; jt += kTrailTile) {
                for (std::size_t j = std::max(jt, j0); j < j1; ++j) {
                    double* zj = z.row(j).data() + jt;
                    const std::size_t w = std::min(kTrailTile, j + 1 - jt);
                    simd::gemm_row_update(zj, qb + j, n, ub + jt, n,
                                          members, w);
                    simd::gemm_row_update(zj, ub + j, n, qb + jt, n,
                                          members, w);
                }
            }
        });
        hi = plo - 1;
    }

    for (std::size_t i = 0; i < n; ++i) d[i] = z(i, i);
    e[0] = 0.0;
}

double hypot2(double a, double b) { return std::hypot(a, b); }

// Implicit-shift QL on a tridiagonal matrix (d diagonal, e subdiagonal with
// e[0] unused). If accumulate, applies rotations to *rows* of zt (the
// transposed accumulator) so that on exit row j of zt is the eigenvector
// for d[j]. Operating on rows keeps every rotation update on two
// contiguous cache lines instead of two stride-n columns — the dominant
// cost of the dense path at the unfolded widths — while performing the
// identical arithmetic in the identical order.
void ql_implicit(std::vector<double>& d, std::vector<double>& e, matrix& zt,
                 bool accumulate) {
    const std::size_t n = d.size();
    if (n == 0) return;
    for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
    e[n - 1] = 0.0;

    for (std::size_t l = 0; l < n; ++l) {
        int iter = 0;
        std::size_t m;
        do {
            for (m = l; m + 1 < n; ++m) {
                const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
                if (std::fabs(e[m]) <= 1e-300 ||
                    std::fabs(e[m]) <= std::numeric_limits<double>::epsilon() * dd)
                    break;
            }
            if (m != l) {
                if (++iter == 50)
                    throw std::runtime_error(
                        "symmetric_eigen: QL failed to converge");
                double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                double r = hypot2(g, 1.0);
                g = d[m] - d[l] + e[l] / (g + (g >= 0 ? std::fabs(r) : -std::fabs(r)));
                double s = 1.0, c = 1.0, p = 0.0;
                for (std::size_t i = m; i-- > l;) {
                    double f = s * e[i];
                    const double b = c * e[i];
                    r = hypot2(f, g);
                    e[i + 1] = r;
                    if (r == 0.0) {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    if (accumulate)
                        simd::rot(zt.row(i).data(), zt.row(i + 1).data(), c, s,
                                  n);
                }
                if (r == 0.0 && m - l > 1) continue;
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        } while (m != l);
    }
}

// Sort eigenvalues descending, permuting the matching *rows* of the
// transposed accumulator zt.
void sort_descending(std::vector<double>& d, matrix* zt) {
    const std::size_t n = d.size();
    std::vector<std::size_t> idx(n);
    std::iota(idx.begin(), idx.end(), 0);
    std::stable_sort(idx.begin(), idx.end(),
                     [&](std::size_t a, std::size_t b) { return d[a] > d[b]; });
    std::vector<double> ds(n);
    for (std::size_t j = 0; j < n; ++j) ds[j] = d[idx[j]];
    if (zt) {
        matrix zs(zt->rows(), zt->cols());
        for (std::size_t j = 0; j < n; ++j) {
            const auto src = zt->row(idx[j]);
            auto dst = zs.row(j);
            std::copy(src.begin(), src.end(), dst.begin());
        }
        *zt = std::move(zs);
    }
    d = std::move(ds);
}

}  // namespace

eigen_result symmetric_eigen(const matrix& a, double symmetry_tol) {
    require_symmetric(a, symmetry_tol);
    eigen_result out;
    matrix q = a;
    std::vector<double> e;
    tridiagonalize(q, out.values, e);
    // QL accumulates into rows, so hand it Q^T and transpose back at the
    // end; both transposes are O(n^2) against the O(n^3) rotation work.
    matrix zt = transpose(q);
    ql_implicit(out.values, e, zt, /*accumulate=*/true);
    sort_descending(out.values, &zt);
    out.vectors = transpose(zt);
    return out;
}

std::vector<double> symmetric_eigenvalues(const matrix& a, double symmetry_tol) {
    require_symmetric(a, symmetry_tol);
    matrix work = a;
    std::vector<double> d, e;
    tridiagonalize_blocked(work, d, e);
    ql_implicit(d, e, work, /*accumulate=*/false);
    sort_descending(d, nullptr);
    return d;
}

// ---------------------------------------------------------------------
// Partial spectrum: bisection + inverse iteration on the tridiagonal.

namespace {

constexpr double kEps = std::numeric_limits<double>::epsilon();

// Power sums of the spectrum from trace identities on T: trace(T^p) is
// O(n) for tridiagonal T (paths of length p in the tridiagonal graph).
std::array<double, 3> tridiagonal_moments(const std::vector<double>& d,
                                          const std::vector<double>& e) {
    const std::size_t n = d.size();
    std::array<double, 3> m{0.0, 0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
        m[0] += d[i];
        m[1] += d[i] * d[i];
        m[2] += d[i] * d[i] * d[i];
    }
    for (std::size_t i = 1; i < n; ++i) {
        const double e2 = e[i] * e[i];
        m[1] += 2.0 * e2;
        m[2] += 3.0 * e2 * (d[i] + d[i - 1]);
    }
    return m;
}

// Number of eigenvalues of T strictly below x (Sturm sequence sign
// count; Barth–Martin–Wilkinson recurrence with a pivot floor).
constexpr std::size_t kSturmBatch = 16;

// Sturm counts for m <= kSturmBatch shifts in ONE sweep over the
// tridiagonal. Each shift's recurrence q = d[i] - x - e2[i]/q is a
// serial division chain (~20 cycles/element of pure latency); m
// independent chains in flight turn the sweep throughput-bound, so a
// batched pass costs barely more than a single-shift one. Per-shift
// arithmetic is identical to the classic scalar loop — batching changes
// which shifts share a sweep, never a count.
void sturm_count_batch(const std::vector<double>& d,
                       const std::vector<double>& e2, const double* x,
                       std::size_t m, double pivmin, std::size_t* cnt) {
    const std::size_t n = d.size();
    double q[kSturmBatch];
    std::size_t c[kSturmBatch];
    for (std::size_t j = 0; j < m; ++j) {
        q[j] = d[0] - x[j];
        if (std::fabs(q[j]) < pivmin) q[j] = -pivmin;
        c[j] = q[j] < 0.0 ? 1 : 0;
    }
    for (std::size_t i = 1; i < n; ++i) {
        const double di = d[i];
        const double e2i = e2[i];
        for (std::size_t j = 0; j < m; ++j) {
            q[j] = di - x[j] - e2i / q[j];
            if (std::fabs(q[j]) < pivmin) q[j] = -pivmin;
            c[j] += q[j] < 0.0 ? 1 : 0;
        }
    }
    for (std::size_t j = 0; j < m; ++j) cnt[j] = c[j];
}

// The k largest eigenvalues of T, descending, by bisection to machine
// precision. Deterministic: a pure function of (d, e).
std::vector<double> bisect_topk(const std::vector<double>& d,
                                const std::vector<double>& e, std::size_t k) {
    const std::size_t n = d.size();
    std::vector<double> e2(n, 0.0);
    double emax2 = 0.0;
    for (std::size_t i = 1; i < n; ++i) {
        e2[i] = e[i] * e[i];
        emax2 = std::max(emax2, e2[i]);
    }
    const double pivmin =
        std::numeric_limits<double>::min() * std::max(1.0, emax2);

    // Gershgorin bounds, slightly widened.
    double gl = d[0], gu = d[0];
    for (std::size_t i = 0; i < n; ++i) {
        const double r = (i > 0 ? std::fabs(e[i]) : 0.0) +
                         (i + 1 < n ? std::fabs(e[i + 1]) : 0.0);
        gl = std::min(gl, d[i] - r);
        gu = std::max(gu, d[i] + r);
    }
    const double span = std::max(gu - gl, 1.0);
    gl -= kEps * span;
    gu += kEps * span;

    // All k intervals bisect in lockstep: every round narrows each
    // unconverged interval with one batched Sturm sweep (grouped in
    // kSturmBatch shifts), so the whole top-k search costs
    // ~log2(span/tol) batched sweeps instead of k times that many
    // serial ones. Each interval's narrowing sequence is independent
    // of the others', so the per-eigenvalue trajectory — and the
    // result — is deterministic regardless of how rounds group.
    std::vector<double> lo(k, gl), hi(k, gu), w(k, 0.0);
    std::vector<double> mid(k, 0.0);
    std::vector<std::size_t> which(k, 0);
    for (int it = 0; it < 128; ++it) {
        std::size_t active = 0;
        for (std::size_t j = 0; j < k; ++j) {
            if (hi[j] - lo[j] >
                2.0 * kEps * std::max(std::fabs(lo[j]), std::fabs(hi[j])) +
                    2.0 * pivmin) {
                mid[active] = 0.5 * (lo[j] + hi[j]);
                which[active] = j;
                ++active;
            }
        }
        if (active == 0) break;
        std::size_t counts[kSturmBatch];
        for (std::size_t g = 0; g < active; g += kSturmBatch) {
            const std::size_t m = std::min(kSturmBatch, active - g);
            sturm_count_batch(d, e2, mid.data() + g, m, pivmin, counts);
            for (std::size_t t = 0; t < m; ++t) {
                const std::size_t j = which[g + t];
                // Ascending 0-based index of the j-th largest eigenvalue.
                if (counts[t] > n - 1 - j)
                    hi[j] = mid[g + t];
                else
                    lo[j] = mid[g + t];
            }
        }
    }
    for (std::size_t j = 0; j < k; ++j) w[j] = 0.5 * (lo[j] + hi[j]);
    return w;
}

// LU factorization of (T - lambda I) with partial pivoting, stored so
// repeated solves against new right-hand sides are O(n).
struct tridiag_lu {
    std::vector<double> u, v1, v2, mult;
    std::vector<char> swapped;

    void factor(const std::vector<double>& d, const std::vector<double>& e,
                double lambda, double eps3) {
        const std::size_t n = d.size();
        u.assign(n, 0.0);
        v1.assign(n, 0.0);
        v2.assign(n, 0.0);
        mult.assign(n, 0.0);
        swapped.assign(n, 0);
        double p = d[0] - lambda;
        double q = n > 1 ? e[1] : 0.0;
        for (std::size_t i = 0; i + 1 < n; ++i) {
            const double sub = e[i + 1];
            const double dip = d[i + 1] - lambda;
            const double sup2 = (i + 2 < n) ? e[i + 2] : 0.0;
            if (std::fabs(p) >= std::fabs(sub)) {
                if (p == 0.0) p = eps3;
                const double m = sub / p;
                mult[i] = m;
                u[i] = p;
                v1[i] = q;
                v2[i] = 0.0;
                p = dip - m * q;
                q = sup2;
            } else {
                swapped[i] = 1;
                const double m = p / sub;
                mult[i] = m;
                u[i] = sub;
                v1[i] = dip;
                v2[i] = sup2;
                p = q - m * dip;
                q = -m * sup2;
            }
        }
        if (p == 0.0) p = eps3;
        u[n - 1] = p;
    }

    // Solve in place: b becomes the solution.
    void solve(std::vector<double>& b) const {
        const std::size_t n = u.size();
        for (std::size_t i = 0; i + 1 < n; ++i) {
            if (swapped[i]) std::swap(b[i], b[i + 1]);
            b[i + 1] -= mult[i] * b[i];
        }
        b[n - 1] /= u[n - 1];
        if (n >= 2) b[n - 2] = (b[n - 2] - v1[n - 2] * b[n - 1]) / u[n - 2];
        for (std::size_t i = n; i-- > 0;) {
            if (i + 2 >= n) continue;
            b[i] = (b[i] - v1[i] * b[i + 1] - v2[i] * b[i + 2]) / u[i];
        }
    }
};

// Deterministic start-vector noise (splitmix64): inverse iteration must
// not start orthogonal to the wanted eigenvector; a fixed pseudo-random
// fill makes that event measure-zero while keeping runs reproducible.
double splitmix_unit(std::uint64_t& s) {
    s += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return static_cast<double>(z >> 11) * (2.0 / 9007199254740992.0) - 1.0;
}

// Residual ||T y - lambda y||_2.
double tridiag_residual(const std::vector<double>& d,
                        const std::vector<double>& e,
                        const std::vector<double>& y, double lambda) {
    const std::size_t n = d.size();
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double r = (d[i] - lambda) * y[i];
        if (i > 0) r += e[i] * y[i - 1];
        if (i + 1 < n) r += e[i + 1] * y[i + 1];
        s += r * r;
    }
    return std::sqrt(s);
}

// Eigenvectors of the tridiagonal for the (descending) eigenvalues w,
// one per row of yt, by inverse iteration with Gram-Schmidt
// reorthogonalization inside clustered groups. Returns false if any
// vector fails to converge (caller falls back to full QL).
bool inverse_iteration(const std::vector<double>& d,
                       const std::vector<double>& e,
                       const std::vector<double>& w, matrix& yt) {
    const std::size_t n = d.size();
    const std::size_t k = w.size();
    double scale = 0.0;
    for (std::size_t i = 0; i < n; ++i) scale = std::max(scale, std::fabs(d[i]));
    for (std::size_t i = 1; i < n; ++i) scale = std::max(scale, std::fabs(e[i]));
    if (scale == 0.0) scale = 1.0;
    const double eps3 = kEps * scale;      // pivot floor / perturbation unit
    const double cluster_gap = 64.0 * eps3;  // machine-indistinguishable
    const double accept_res = 1e4 * eps3 * std::sqrt(static_cast<double>(n));

    tridiag_lu lu;
    std::vector<double> b(n), y(n);
    std::size_t cluster_start = 0;
    double prev_lambda = 0.0;
    for (std::size_t j = 0; j < k; ++j) {
        double lambda = w[j];
        if (j > 0) {
            if (w[j - 1] - w[j] > cluster_gap) cluster_start = j;
            // Perturb machine-identical eigenvalues apart so the LU
            // factorizations (and hence the iteration fixed points)
            // differ; orthogonalization below does the real separation.
            if (lambda >= prev_lambda - eps3) lambda = prev_lambda - eps3;
        }
        prev_lambda = lambda;
        lu.factor(d, e, lambda, eps3);

        std::uint64_t seed = 0x5851F42D4C957F2DULL ^ (j + 1);
        for (std::size_t i = 0; i < n; ++i) b[i] = splitmix_unit(seed);

        bool accepted = false;
        for (int attempt = 0; attempt < 3 && !accepted; ++attempt) {
            for (int iter = 0; iter < 6; ++iter) {
                y = b;
                lu.solve(y);
                // Keep the candidate orthogonal to every sibling in its
                // cluster: degenerate eigenvalues share an invariant
                // subspace and unguided inverse iteration would hand
                // back the same vector k times.
                for (std::size_t p = cluster_start; p < j; ++p) {
                    const double* yp = yt.row(p).data();
                    const double proj = simd::dot(y.data(), yp, n);
                    simd::axpy(y.data(), yp, -proj, n);
                }
                const double nrm = norm2(y);
                if (nrm == 0.0 || !std::isfinite(nrm)) break;
                const double inv = 1.0 / nrm;
                for (std::size_t i = 0; i < n; ++i) y[i] *= inv;
                b = y;
                if (iter >= 1 &&
                    tridiag_residual(d, e, y, lambda) <= accept_res) {
                    accepted = true;
                    break;
                }
            }
            if (!accepted) {
                // Re-seed from a different stream and try again (the
                // start vector may have been pathological).
                std::uint64_t s2 = 0xDA3E39CB94B95BDBULL ^ (31 * (j + 1) +
                                                            attempt);
                for (std::size_t i = 0; i < n; ++i) b[i] = splitmix_unit(s2);
            }
        }
        if (!accepted) return false;
        std::copy(y.begin(), y.end(), yt.row(j).begin());
    }

    // Final modified Gram-Schmidt sweep: guarantees the returned set is
    // orthonormal to machine precision even across cluster boundaries.
    for (std::size_t j = 0; j < k; ++j) {
        double* yj = yt.row(j).data();
        for (std::size_t p = 0; p < j; ++p) {
            const double* yp = yt.row(p).data();
            const double proj = simd::dot(yj, yp, n);
            simd::axpy(yj, yp, -proj, n);
        }
        const double nrm = norm2({yj, n});
        if (nrm < 1e-3) return false;  // lost a direction: bail to QL
        const double inv = 1.0 / nrm;
        for (std::size_t i = 0; i < n; ++i) yj[i] *= inv;
    }
    return true;
}

// v = Q y for each row y of yt, where Q is the accumulated Householder
// product of the tridiagonalization (z rows i >= 2 hold the scaled
// reflector vectors u_i in columns [0, i); P_i = I - u_i u_i^T / h_i
// with h_i = |u_i|^2 / 2). Q = P_{n-1} ... P_2, so P_2 applies first.
// O(n^2 k): this replaces the O(n^3) QL rotation accumulation.
void householder_back_transform(const matrix& z, matrix& yt) {
    const std::size_t n = z.cols();
    for (std::size_t i = 2; i < n; ++i) {
        const double* ui = z.row(i).data();
        const double h = 0.5 * simd::dot(ui, ui, i);
        if (h == 0.0) continue;
        for (std::size_t r = 0; r < yt.rows(); ++r) {
            double* y = yt.row(r).data();
            const double s = simd::dot(y, ui, i) / h;
            simd::axpy(y, ui, -s, i);
        }
    }
}

partial_eigen_result topk_via_full(const matrix& a, std::size_t k,
                                   double symmetry_tol) {
    eigen_result full = symmetric_eigen(a, symmetry_tol);
    partial_eigen_result out;
    for (double v : full.values) {
        out.moments[0] += v;
        out.moments[1] += v * v;
        out.moments[2] += v * v * v;
    }
    out.values.assign(full.values.begin(), full.values.begin() + k);
    out.vectors = full.vectors.block(0, 0, a.rows(), k);
    return out;
}

}  // namespace

partial_eigen_result symmetric_eigen_topk(const matrix& a, std::size_t k,
                                          double symmetry_tol) {
    require_symmetric(a, symmetry_tol);
    const std::size_t n = a.rows();
    k = std::min(k, n);
    if (n == 0) return {};
    // Below this the partial machinery cannot beat QL: the
    // tridiagonalization dominates either way and the full path has no
    // convergence edge cases at all.
    if (2 * k >= n || n < 16) return topk_via_full(a, k, symmetry_tol);

    matrix z = a;
    std::vector<double> d, e;
    tridiagonalize_blocked(z, d, e);

    partial_eigen_result out;
    out.moments = tridiagonal_moments(d, e);
    out.values = bisect_topk(d, e, k);

    matrix yt(k, n);
    if (!inverse_iteration(d, e, out.values, yt))
        return topk_via_full(a, k, symmetry_tol);
    householder_back_transform(z, yt);
    out.vectors = transpose(yt);
    return out;
}

}  // namespace tfd::linalg
