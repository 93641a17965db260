// fit_pca_topk parity against the full-basis fit fit_pca_topk(x,
// x.cols()), which runs the full QL solver: leading eigenvalues, exact
// variance / all three spectrum moments, subspace projectors, both
// eigenproblem branches (Gram trick for wide data, covariance for tall
// data), rank-deficient input, and the k >= order/2 fallback. The leading
// eigenvalues and the three moments are every input of
// subspace_model::q_threshold (subspace_model always fits through
// fit_pca_topk).
#include "linalg/pca.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.h"

namespace la = tfd::linalg;

namespace {

la::matrix rand_mat(std::size_t t, std::size_t n, std::uint64_t seed) {
    la::matrix m(t, n);
    std::uint64_t s = seed;
    for (double& v : m.data()) {
        s = s * 6364136223846793005ULL + 1442695040888963407ULL;
        v = static_cast<double>((s >> 33) % 2000) / 1000.0 - 1.0;
    }
    return m;
}

double projector_gap(const la::matrix& v, const la::matrix& w) {
    return la::max_abs_diff(la::multiply(v, la::transpose(v)),
                            la::multiply(w, la::transpose(w)));
}

void expect_topk_matches_full(const la::matrix& x, std::size_t k,
                              const char* what) {
    const auto full = la::fit_pca_topk(x, x.cols());
    const auto part = la::fit_pca_topk(x, k);

    ASSERT_GE(part.components.cols(), std::min(k, x.cols())) << what;
    ASSERT_EQ(part.eigenvalues.size(), std::min(k, x.cols())) << what;

    const double sc = std::max(1.0, full.eigenvalues.empty()
                                        ? 0.0
                                        : full.eigenvalues[0]);
    for (std::size_t j = 0; j < part.eigenvalues.size(); ++j)
        EXPECT_NEAR(part.eigenvalues[j], full.eigenvalues[j], 1e-10 * sc)
            << what << " j=" << j;

    EXPECT_NEAR(part.total_variance, full.total_variance, 1e-9 * sc) << what;
    EXPECT_NEAR(part.spectrum_moments[0], full.spectrum_moments[0], 1e-9 * sc)
        << what;
    EXPECT_NEAR(part.spectrum_moments[1], full.spectrum_moments[1],
                1e-9 * sc * sc)
        << what;
    EXPECT_NEAR(part.spectrum_moments[2], full.spectrum_moments[2],
                1e-9 * sc * sc * sc)
        << what;

    // Subspace parity over the leading axes (projector distance — basis
    // sign/rotation is not identifiable).
    const std::size_t kk = std::min(k, x.cols());
    EXPECT_LT(projector_gap(part.components.block(0, 0, x.cols(), kk),
                            full.components.block(0, 0, x.cols(), kk)),
              1e-8)
        << what;

    // Means must match the full fit exactly (same centering code).
    for (std::size_t i = 0; i < x.cols(); ++i)
        EXPECT_DOUBLE_EQ(part.mean[i], full.mean[i]) << what;
}

}  // namespace

TEST(PcaTopkTest, GramTrickBranchMatchesFullFit) {
    // t < n: the eigenproblem runs on the t x t Gram.
    expect_topk_matches_full(rand_mat(48, 130, 11), 8, "wide 48x130 k=8");
    expect_topk_matches_full(rand_mat(96, 484, 12), 10, "wide 96x484 k=10");
}

TEST(PcaTopkTest, CovarianceBranchMatchesFullFit) {
    // t >= n: the eigenproblem runs on the n x n covariance.
    expect_topk_matches_full(rand_mat(120, 40, 13), 6, "tall 120x40 k=6");
    expect_topk_matches_full(rand_mat(300, 64, 14), 10, "tall 300x64 k=10");
}

TEST(PcaTopkTest, FallbackWhenKNearOrder) {
    // k within a factor 2 of the eigenproblem order routes through full
    // QL internally; results must still line up.
    expect_topk_matches_full(rand_mat(24, 80, 15), 14, "fallback k=14/24");
    expect_topk_matches_full(rand_mat(60, 20, 16), 20, "fallback k=n");
}

TEST(PcaTopkTest, RankDeficientDataCompletesTheBasis) {
    // Rank-2 data in 30 columns: ask for 6 axes; the last four are
    // orthonormal completions with zero eigenvalue, and the exact
    // moments still equal the (rank-2) full-spectrum sums.
    const la::matrix base = rand_mat(40, 2, 21);
    const la::matrix dirs = rand_mat(2, 30, 22);
    const la::matrix x = la::multiply(base, dirs);
    const auto part = la::fit_pca_topk(x, 6);
    ASSERT_EQ(part.components.cols(), 6u);
    for (std::size_t j = 2; j < 6; ++j)
        EXPECT_NEAR(part.eigenvalues[j], 0.0, 1e-9 * part.eigenvalues[0]);
    const la::matrix vtv = la::gram(part.components);
    EXPECT_LT(la::max_abs_diff(vtv, la::matrix::identity(6)), 1e-8);

    const auto full = la::fit_pca_topk(x, x.cols());
    EXPECT_NEAR(part.total_variance, full.total_variance,
                1e-9 * std::max(1.0, full.total_variance));
}

TEST(PcaTopkTest, ProjectionApisWorkOnPartialFits) {
    const la::matrix x = rand_mat(60, 90, 31);
    const auto part = la::fit_pca_topk(x, 5);
    const auto full = la::fit_pca_topk(x, x.cols());
    // SPE of a row against the leading 5 axes matches the full fit.
    for (std::size_t r : {0u, 17u, 59u}) {
        const double sp = la::squared_prediction_error(part, x.row(r), 5);
        const double sf = la::squared_prediction_error(full, x.row(r), 5);
        EXPECT_NEAR(sp, sf, 1e-8 * std::max(1.0, sf)) << "row " << r;
    }
    // variance_captured clamps at the materialized prefix.
    EXPECT_GT(part.variance_captured(5), 0.0);
    EXPECT_LE(part.variance_captured(5), 1.0 + 1e-12);
}

TEST(PcaTopkTest, KIsClamped) {
    const la::matrix x = rand_mat(30, 12, 41);
    const auto part = la::fit_pca_topk(x, 0);  // clamped up to 1
    EXPECT_EQ(part.eigenvalues.size(), 1u);
    const auto big = la::fit_pca_topk(x, 500);  // clamped down to n
    EXPECT_EQ(big.eigenvalues.size(), 12u);
}

TEST(PcaTopkTest, ThrowsLikeFitPca) {
    EXPECT_THROW(la::fit_pca_topk(la::matrix(1, 4), 2), std::invalid_argument);
    EXPECT_THROW(la::fit_pca_topk(la::matrix(5, 0), 2), std::invalid_argument);
}
