// The blocked (panel) Householder tridiagonalization behind every
// non-accumulating solve (symmetric_eigenvalues, symmetric_eigen_topk),
// checked against the full-QL reference symmetric_eigen: full-spectrum
// eigenvalues, top-k values / moments / subspaces across small, odd and
// panel-boundary orders up to the Abilene unfolded width, determinism,
// and clustered / rank-deficient covariances at the n = 1024 width a
// 16-PoP synthetic topology unfolds to (4 * 16^2), checked against
// their known spectra.
#include "linalg/symmetric_eigen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "linalg/matrix.h"
#include "net/topology.h"

namespace la = tfd::linalg;

namespace {

std::uint64_t lcg(std::uint64_t& s) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return s >> 33;
}

double unit(std::uint64_t& s) {
    return static_cast<double>(lcg(s) % 2000) / 1000.0 - 1.0;
}

// Random symmetric positive semidefinite matrix B^T B.
la::matrix random_spd(std::size_t n, std::uint64_t seed) {
    la::matrix b(n, n);
    std::uint64_t s = seed;
    for (double& v : b.data()) v = unit(s);
    return la::gram(b);
}

double scale_of(const std::vector<double>& w) {
    double s = 1.0;
    for (double v : w) s = std::max(s, std::fabs(v));
    return s;
}

std::array<double, 3> power_sums(const std::vector<double>& w) {
    std::array<double, 3> m{0.0, 0.0, 0.0};
    for (double v : w) {
        m[0] += v;
        m[1] += v * v;
        m[2] += v * v * v;
    }
    return m;
}

// || V V^T - W W^T ||_max for two n x k bases (see eigen_topk_test).
double projector_gap(const la::matrix& v, const la::matrix& w) {
    const la::matrix pv = la::multiply(v, la::transpose(v));
    const la::matrix pw = la::multiply(w, la::transpose(w));
    return la::max_abs_diff(pv, pw);
}

// Element-wise bit equality for two matrices (data() is a span, which
// gtest cannot compare directly).
::testing::AssertionResult same_bits(const la::matrix& a, const la::matrix& b) {
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return ::testing::AssertionFailure() << "shape mismatch";
    const auto da = a.data();
    const auto db = b.data();
    for (std::size_t i = 0; i < da.size(); ++i)
        if (da[i] != db[i])
            return ::testing::AssertionFailure()
                   << "element " << i << ": " << da[i] << " != " << db[i];
    return ::testing::AssertionSuccess();
}

// Top-k of `a` against the full-QL decomposition: values at 1e-8 of the
// spectrum scale, moments at 1e-10 relative, and the leading-k
// projector at 1e-8.
void expect_topk_matches_full(const la::matrix& a, std::size_t k) {
    const std::size_t n = a.rows();
    const auto full = la::symmetric_eigen(a);
    const auto part = la::symmetric_eigen_topk(a, k);
    ASSERT_EQ(part.values.size(), k) << "n=" << n;

    const double tol = 1e-8 * scale_of(full.values);
    for (std::size_t i = 0; i < k; ++i)
        EXPECT_NEAR(part.values[i], full.values[i], tol)
            << "n=" << n << " i=" << i;

    // Moments come from trace identities on the tridiagonal form, which
    // is orthogonally similar to A, so they must match the power sums of
    // the full spectrum to rounding.
    const auto want = power_sums(full.values);
    for (std::size_t p = 0; p < 3; ++p) {
        const double denom = std::max(std::fabs(want[p]), 1.0);
        EXPECT_LT(std::fabs(part.moments[p] - want[p]) / denom, 1e-10)
            << "n=" << n << " moment p=" << p + 1;
    }

    // Subspace agreement, basis-invariant.
    EXPECT_LT(projector_gap(part.vectors, full.vectors.block(0, 0, n, k)),
              1e-8)
        << "n=" << n;
}

// Cheap clustered covariance at large n: c * I plus a low-rank bump with
// orthonormal directions (the rows of `dirs`). Spectrum is known
// exactly — r distinct leading eigenvalues c + {r, ..., 1} with the
// rows of `dirs` as eigenvectors, then c with multiplicity n - r —
// without the O(n^3) dense construction with_spectrum needs.
struct shifted_low_rank {
    la::matrix a;
    la::matrix dirs;
};

shifted_low_rank make_shifted_low_rank(std::size_t n, std::size_t r, double c,
                                       std::uint64_t seed) {
    la::matrix v(r, n);
    std::uint64_t s = seed;
    for (double& x : v.data()) x = unit(s);
    for (std::size_t i = 0; i < r; ++i) {
        auto vi = v.row(i);
        for (std::size_t j = 0; j < i; ++j) {
            const double p = la::dot(vi, v.row(j));
            for (std::size_t col = 0; col < n; ++col)
                vi[col] -= p * v.row(j)[col];
        }
        const double nrm = la::norm2(vi);
        for (std::size_t col = 0; col < n; ++col) vi[col] /= nrm;
    }
    la::matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) a(i, i) = c;
    for (std::size_t j = 0; j < r; ++j) {
        const double gain = static_cast<double>(r - j);  // descending
        for (std::size_t row = 0; row < n; ++row)
            for (std::size_t col = 0; col < n; ++col)
                a(row, col) += gain * v(j, row) * v(j, col);
    }
    return {std::move(a), std::move(v)};
}

}  // namespace

TEST(BlockedTridiagTest, EigenvaluesMatchFullQlAcrossSizes) {
    for (std::size_t n : {64u, 130u, 300u, 484u}) {
        const auto a = random_spd(n, 9000 + n);
        const auto full = la::symmetric_eigen(a).values;
        const auto blocked = la::symmetric_eigenvalues(a);
        ASSERT_EQ(full.size(), blocked.size());
        const double tol = 1e-8 * scale_of(full);
        for (std::size_t i = 0; i < full.size(); ++i)
            EXPECT_NEAR(full[i], blocked[i], tol) << "n=" << n << " i=" << i;
    }
}

TEST(BlockedTridiagTest, SmallAndOddOrdersMatchFullQl) {
    // Every order reaches the blocked reduction through
    // symmetric_eigenvalues; top-k reaches it from n = 16 up (below
    // that, or at 2k >= n, it falls back to full QL). The sweep covers
    // single-panel orders, odd remainders either side of the 16-wide
    // panel, and both sides of n = 128.
    for (std::size_t n :
         {2u, 3u, 5u, 15u, 16u, 17u, 31u, 33u, 64u, 127u, 128u, 129u}) {
        const auto a = random_spd(n, 4100 + n);
        const auto full = la::symmetric_eigen(a).values;
        const auto blocked = la::symmetric_eigenvalues(a);
        ASSERT_EQ(full.size(), blocked.size()) << "n=" << n;
        const double tol = 1e-8 * scale_of(full);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(full[i], blocked[i], tol) << "n=" << n << " i=" << i;

        expect_topk_matches_full(a, std::min<std::size_t>(5, n));
    }
}

TEST(BlockedTridiagTest, TopkValuesMomentsAndSubspaceMatchFullQl) {
    expect_topk_matches_full(random_spd(484, 42), 10);
}

TEST(BlockedTridiagTest, IsDeterministic) {
    const auto a = random_spd(300, 11);
    const auto r1 = la::symmetric_eigen_topk(a, 10);
    const auto r2 = la::symmetric_eigen_topk(a, 10);
    ASSERT_EQ(r1.values, r2.values);
    ASSERT_TRUE(same_bits(r1.vectors, r2.vectors));
    ASSERT_EQ(r1.moments, r2.moments);
    ASSERT_EQ(la::symmetric_eigenvalues(a), la::symmetric_eigenvalues(a));
}

TEST(BlockedTridiagTest, ClusteredSpectrumAtSyntheticWidth1024) {
    // A 16-PoP synthetic backbone unfolds to 4 * 16^2 = 1024 columns —
    // the width this covariance models. Leading spectrum: 6 distinct
    // eigenvalues 2 + {6..1}, then 2.0 with multiplicity n - 6 (a
    // maximally clustered tail straddling any k > 6 cut).
    const auto topo = tfd::net::topology::synthetic(16);
    ASSERT_EQ(topo.od_count(), 256);
    const std::size_t n = 4 * static_cast<std::size_t>(topo.od_count());
    ASSERT_EQ(n, 1024u);

    const auto [a, dirs] = make_shifted_low_rank(n, 6, 2.0, 99);
    const std::size_t k = 8;
    const auto blocked = la::symmetric_eigen_topk(a, k);

    std::vector<double> spectrum(n, 2.0);
    for (std::size_t i = 0; i < 6; ++i)
        spectrum[i] = 2.0 + (6.0 - static_cast<double>(i));
    for (std::size_t i = 0; i < k; ++i)
        EXPECT_NEAR(blocked.values[i], spectrum[i], 1e-7) << "i=" << i;

    // Only the 6 distinct leaders have an identifiable subspace; inside
    // the multiplicity-(n-6) cluster any rotation is valid.
    EXPECT_LT(projector_gap(blocked.vectors.block(0, 0, n, 6),
                            la::transpose(dirs)),
              1e-7);
    const auto want = power_sums(spectrum);
    for (std::size_t p = 0; p < 3; ++p)
        EXPECT_NEAR(blocked.moments[p], want[p],
                    1e-9 * std::max(std::fabs(want[p]), 1.0))
            << "moment p=" << p + 1;
}

TEST(BlockedTridiagTest, RankDeficientAtSyntheticWidth1024) {
    // Covariance of 40 observations over 1024 features: rank <= 40, so
    // 984 eigenvalues are exactly zero — the shape a short traffic
    // window over a large synthetic topology produces. Its nonzero
    // spectrum is that of the 40 x 40 Gram B B^T, with eigenvectors
    // B^T u / ||B^T u|| — a known answer from an independent, small
    // full-QL solve.
    const std::size_t n = 1024, t = 40, k = 10;
    la::matrix b(t, n);
    std::uint64_t s = 2026;
    for (double& v : b.data()) v = unit(s);
    const la::matrix a = la::gram(b);

    const auto small = la::symmetric_eigen(la::outer_gram(b));
    const auto blocked = la::symmetric_eigen_topk(a, k);

    const double tol = 1e-8 * scale_of(small.values);
    for (std::size_t i = 0; i < k; ++i) {
        EXPECT_NEAR(blocked.values[i], small.values[i], tol) << "i=" << i;
        EXPECT_GT(blocked.values[i], 0.0);  // leading 10 of rank 40
    }

    la::matrix lead = la::multiply(la::transpose(b),
                                   small.vectors.block(0, 0, t, k));
    for (std::size_t j = 0; j < k; ++j) {
        const double inv = 1.0 / std::sqrt(small.values[j]);
        for (std::size_t i = 0; i < n; ++i) lead(i, j) *= inv;
    }
    EXPECT_LT(projector_gap(blocked.vectors, lead), 1e-7);

    const auto want = power_sums(small.values);
    for (std::size_t p = 0; p < 3; ++p)
        EXPECT_NEAR(blocked.moments[p], want[p],
                    1e-9 * std::max(std::fabs(want[p]), 1.0))
            << "moment p=" << p + 1;
}
