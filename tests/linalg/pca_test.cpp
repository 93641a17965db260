// Unit and property tests for PCA and subspace projections. The fits
// keep every axis, fit_pca_topk(x, x.cols()), which runs the full QL
// solver.
#include "linalg/pca.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "linalg/matrix.h"
#include "linalg/stats.h"
#include "linalg/symmetric_eigen.h"

namespace la = tfd::linalg;

namespace {

std::uint64_t g_state;
double next_uniform() {
    g_state = g_state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(g_state >> 33) /
           static_cast<double>(1ULL << 31);
}

// Low-rank data: t observations in n dims generated from r latent factors.
la::matrix low_rank_data(std::size_t t, std::size_t n, std::size_t r,
                         double noise, std::uint64_t seed) {
    g_state = seed;
    la::matrix basis(r, n), latents(t, r);
    for (auto& v : basis.data()) v = next_uniform() * 2.0 - 1.0;
    for (auto& v : latents.data()) v = next_uniform() * 10.0 - 5.0;
    auto x = la::multiply(latents, basis);
    for (auto& v : x.data()) v += noise * (next_uniform() - 0.5);
    return x;
}

}  // namespace

TEST(PcaTest, RejectsDegenerateInput) {
    EXPECT_THROW(la::fit_pca_topk(la::matrix(1, 3), 3), std::invalid_argument);
    EXPECT_THROW(la::fit_pca_topk(la::matrix(5, 0), 1), std::invalid_argument);
}

TEST(PcaTest, TwoDimKnownAxes) {
    // Points along y = x: first PC is (1,1)/sqrt(2), second eigenvalue ~ 0.
    auto x = la::matrix::from_rows(
        {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}, {6, 6}});
    auto p = la::fit_pca_topk(x, x.cols());
    EXPECT_NEAR(p.eigenvalues[1], 0.0, 1e-10);
    EXPECT_NEAR(std::fabs(p.components(0, 0)), std::sqrt(0.5), 1e-10);
    EXPECT_NEAR(p.components(0, 0), p.components(1, 0), 1e-10);
    EXPECT_NEAR(p.variance_captured(1), 1.0, 1e-10);
}

TEST(PcaTest, EigenvalueSumEqualsTotalColumnVariance) {
    auto x = low_rank_data(50, 8, 3, 0.5, 42);
    auto p = la::fit_pca_topk(x, x.cols());
    double total = 0.0;
    for (std::size_t c = 0; c < x.cols(); ++c) {
        auto col = x.col(c);
        total += la::variance(col);
    }
    EXPECT_NEAR(p.total_variance, total, 1e-8 * std::max(1.0, total));
}

TEST(PcaTest, LowRankDataCapturedByFewComponents) {
    auto x = low_rank_data(100, 20, 3, 0.0, 7);
    auto p = la::fit_pca_topk(x, x.cols());
    EXPECT_NEAR(p.variance_captured(3), 1.0, 1e-9);
    for (std::size_t j = 3; j < 20; ++j)
        EXPECT_NEAR(p.eigenvalues[j], 0.0, 1e-8 * p.eigenvalues[0]);
}

TEST(PcaTest, GramTrickMatchesCovariancePath) {
    // Wide matrix: rows < cols makes the fit take the Gram trick; compare
    // against the direct eigendecomposition of the covariance
    // gram(Xc) / (t - 1), built here from the centered data.
    auto x = low_rank_data(12, 30, 4, 0.3, 11);
    const std::size_t t = x.rows(), n = x.cols();
    const auto mu = la::column_means(x);
    la::matrix xc = x;
    for (std::size_t r = 0; r < t; ++r)
        for (std::size_t c = 0; c < n; ++c) xc(r, c) -= mu[c];
    la::matrix cov = la::gram(xc);
    for (double& v : cov.data()) v /= static_cast<double>(t - 1);
    const auto eg = la::symmetric_eigen(cov);
    la::pca_result direct;
    direct.mean = mu;
    direct.eigenvalues = eg.values;
    direct.components = eg.vectors;
    const auto p = la::fit_pca_topk(x, x.cols());  // gram trick path

    for (std::size_t j = 0; j < 8; ++j)
        EXPECT_NEAR(direct.eigenvalues[j], p.eigenvalues[j],
                    1e-7 * std::max(1.0, direct.eigenvalues[0]));

    // Residual energies must agree for any observation and any m.
    auto obs = x.row(3);
    for (std::size_t m : {1u, 3u, 5u}) {
        EXPECT_NEAR(la::squared_prediction_error(direct, obs, m),
                    la::squared_prediction_error(p, obs, m), 1e-7);
    }
}

TEST(PcaTest, ProjectionPlusResidualReconstructsObservation) {
    auto x = low_rank_data(40, 10, 3, 1.0, 99);
    auto p = la::fit_pca_topk(x, x.cols());
    auto obs = x.row(5);
    for (std::size_t m : {0u, 2u, 5u, 10u}) {
        auto xhat = la::project_normal(p, obs, m);
        auto res = la::residual(p, obs, m);
        for (std::size_t i = 0; i < obs.size(); ++i)
            EXPECT_NEAR(xhat[i] + res[i], obs[i], 1e-10);
    }
}

TEST(PcaTest, FullProjectionHasZeroResidual) {
    auto x = low_rank_data(30, 6, 6, 2.0, 5);
    auto p = la::fit_pca_topk(x, x.cols());
    auto obs = x.row(2);
    EXPECT_NEAR(la::squared_prediction_error(p, obs, 6), 0.0, 1e-9);
}

TEST(PcaTest, SpeDecreasesMonotonicallyInSubspaceSize) {
    auto x = low_rank_data(60, 12, 5, 1.5, 17);
    auto p = la::fit_pca_topk(x, x.cols());
    auto obs = x.row(9);
    double prev = la::squared_prediction_error(p, obs, 0);
    for (std::size_t m = 1; m <= 12; ++m) {
        const double spe = la::squared_prediction_error(p, obs, m);
        EXPECT_LE(spe, prev + 1e-10);
        prev = spe;
    }
}

TEST(PcaTest, OutlierHasLargerResidualThanInliers) {
    auto x = low_rank_data(80, 10, 2, 0.1, 23);
    auto p = la::fit_pca_topk(x, x.cols());
    // Construct an observation far off the 2-dim latent plane.
    std::vector<double> outlier(10, 0.0);
    for (std::size_t i = 0; i < 10; ++i)
        outlier[i] = p.mean[i] + ((i % 2) ? 25.0 : -25.0);
    const double spe_out = la::squared_prediction_error(p, outlier, 2);
    double max_in = 0.0;
    for (std::size_t r = 0; r < x.rows(); ++r)
        max_in = std::max(max_in,
                          la::squared_prediction_error(p, x.row(r), 2));
    EXPECT_GT(spe_out, 4.0 * max_in);
}

TEST(PcaTest, DimensionMismatchThrows) {
    auto x = low_rank_data(20, 5, 2, 0.5, 3);
    auto p = la::fit_pca_topk(x, x.cols());
    std::vector<double> bad(4, 0.0);
    EXPECT_THROW(la::project_normal(p, bad, 2), std::invalid_argument);
}

// Sweep: components are orthonormal for various shapes.
class PcaShapeSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(PcaShapeSweep, ComponentsOrthonormal) {
    auto [t, n] = GetParam();
    auto x = low_rank_data(t, n, std::min<std::size_t>(3, n), 0.8,
                           1000 + t * 31 + n);
    auto p = la::fit_pca_topk(x, x.cols());
    auto vtv = la::gram(p.components);
    EXPECT_LT(la::max_abs_diff(vtv, la::matrix::identity(n)), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shapes, PcaShapeSweep,
                         ::testing::Values(std::tuple{10, 4}, std::tuple{4, 10},
                                           std::tuple{50, 8}, std::tuple{8, 50},
                                           std::tuple{30, 30}));
