// Unit and property tests for the subspace method and the
// Jackson–Mudholkar Q-statistic threshold.
#include "core/subspace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>

using namespace tfd::core;
namespace la = tfd::linalg;

namespace {

std::uint64_t g_state;
double nextu() {
    g_state = g_state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(g_state >> 33) / 2147483648.0;
}

// t observations in n dims with r-dim latent structure + noise, plus
// optional planted spikes at given rows. Latent amplitude is large so a
// one-row spike stays in the residual subspace (as in real traffic,
// where a single anomalous bin cannot dominate total variance).
la::matrix synth(std::size_t t, std::size_t n, std::size_t r, double noise,
                 std::uint64_t seed,
                 const std::vector<std::size_t>& spike_rows = {},
                 double spike = 10.0) {
    g_state = seed;
    la::matrix basis(r, n), lat(t, r);
    for (auto& v : basis.data()) v = nextu() * 2 - 1;
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 0; j < r; ++j)
            lat(i, j) = std::sin(0.07 * (i + 1) * (j + 1)) * 25 + nextu();
    auto x = la::multiply(lat, basis);
    for (auto& v : x.data()) v += noise * (nextu() - 0.5);
    // Spikes hit a row-dependent column subset so repeated spikes do not
    // align into a single strong direction the PCA would adopt; fixed
    // magnitude keeps every spike's SPE above the (spike-inflated)
    // threshold.
    for (auto row : spike_rows)
        for (std::size_t j = row % 3; j < n; j += 3) x(row, j) += spike * 1.5;
    return x;
}

}  // namespace

TEST(SubspaceTest, FitClampsNormalDims) {
    auto x = synth(30, 5, 2, 0.1, 1);
    subspace_options opts;
    opts.normal_dims = 50;
    auto m = subspace_model::fit(x, opts);
    EXPECT_EQ(m.normal_dims(), 5u);
    EXPECT_EQ(m.dimension(), 5u);
}

TEST(SubspaceTest, ResidualOrthogonalToModeled) {
    auto x = synth(40, 8, 3, 0.5, 2);
    subspace_options opts;
    opts.normal_dims = 3;
    auto m = subspace_model::fit(x, opts);
    const auto obs = x.row(7);
    const auto res = m.residual(obs);
    const auto mod = m.modeled(obs);
    // <residual, modeled - mean> == 0.
    double dot = 0.0;
    for (std::size_t i = 0; i < res.size(); ++i)
        dot += res[i] * (mod[i] - m.pca().mean[i]);
    EXPECT_NEAR(dot, 0.0, 1e-8);
    // Decomposition: x = x_hat + x_tilde.
    for (std::size_t i = 0; i < res.size(); ++i)
        EXPECT_NEAR(mod[i] + res[i], obs[i], 1e-10);
}

TEST(SubspaceTest, SpeRowsMatchesSingleSpe) {
    auto x = synth(25, 6, 2, 0.3, 3);
    auto m = subspace_model::fit(x, {.normal_dims = 2});
    const auto all = m.spe_rows(x);
    ASSERT_EQ(all.size(), 25u);
    for (std::size_t r = 0; r < 25; r += 5)
        EXPECT_NEAR(all[r], m.spe(x.row(r)), 1e-12);
    la::matrix wrong(3, 5);
    EXPECT_THROW(m.spe_rows(wrong), std::invalid_argument);
}

TEST(SubspaceTest, QThresholdValidation) {
    auto x = synth(30, 6, 2, 0.3, 4);
    auto m = subspace_model::fit(x, {.normal_dims = 2});
    EXPECT_THROW(m.q_threshold(0.0), std::invalid_argument);
    EXPECT_THROW(m.q_threshold(1.0), std::invalid_argument);
    EXPECT_GT(m.q_threshold(0.999), 0.0);
}

TEST(SubspaceTest, QThresholdIncreasesWithAlpha) {
    auto x = synth(60, 10, 3, 1.0, 5);
    auto m = subspace_model::fit(x, {.normal_dims = 3});
    const double q95 = m.q_threshold(0.95);
    const double q995 = m.q_threshold(0.995);
    const double q999 = m.q_threshold(0.999);
    EXPECT_LT(q95, q995);
    EXPECT_LT(q995, q999);
}

TEST(SubspaceTest, QThresholdZeroWhenResidualSpaceEmpty) {
    // normal_dims == dimension -> no residual eigenvalues.
    auto x = synth(30, 4, 2, 0.2, 6);
    auto m = subspace_model::fit(x, {.normal_dims = 4});
    EXPECT_EQ(m.q_threshold(0.999), 0.0);
}

TEST(SubspaceTest, DetectsPlantedSpikes) {
    const std::vector<std::size_t> spikes{10, 25, 40};
    auto x = synth(60, 12, 3, 0.5, 7, spikes, 8.0);
    auto det = detect_rows(x, {.normal_dims = 3}, 0.999);
    for (auto s : spikes)
        EXPECT_TRUE(std::find(det.anomalous_bins.begin(),
                              det.anomalous_bins.end(),
                              s) != det.anomalous_bins.end())
            << "spike at " << s << " not detected";
}

TEST(SubspaceTest, FalseAlarmRateNearAlpha) {
    // Pure low-rank + noise data: the flagged fraction should be within a
    // few multiples of (1 - alpha).
    auto x = synth(800, 15, 4, 1.0, 8);
    auto det = detect_rows(x, {.normal_dims = 4}, 0.995);
    const double rate =
        static_cast<double>(det.anomalous_bins.size()) / 800.0;
    EXPECT_LT(rate, 0.06);  // nominal 0.005; generous on synthetic data
}

TEST(SubspaceTest, SpikesDominateSpeDistribution) {
    auto x = synth(100, 10, 3, 0.5, 9, {50}, 12.0);
    auto m = subspace_model::fit(x, {.normal_dims = 3});
    const auto spe = m.spe_rows(x);
    double max_other = 0.0;
    for (std::size_t r = 0; r < spe.size(); ++r)
        if (r != 50) max_other = std::max(max_other, spe[r]);
    EXPECT_GT(spe[50], 3.0 * max_other);
}

TEST(SubspaceTest, VarianceCapturedMonotoneInDims) {
    auto x = synth(80, 12, 5, 1.0, 10);
    double prev = 0.0;
    for (std::size_t m = 1; m <= 12; ++m) {
        auto model = subspace_model::fit(x, {.normal_dims = m});
        EXPECT_GE(model.variance_captured() + 1e-12, prev);
        prev = model.variance_captured();
    }
    EXPECT_NEAR(prev, 1.0, 1e-9);
}

// Sweep alpha: threshold must be finite, positive, increasing.
class AlphaSweep : public ::testing::TestWithParam<double> {};

TEST_P(AlphaSweep, ThresholdFiniteAndPositive) {
    auto x = synth(60, 10, 3, 0.8, 11);
    auto m = subspace_model::fit(x, {.normal_dims = 3});
    const double q = m.q_threshold(GetParam());
    EXPECT_TRUE(std::isfinite(q));
    EXPECT_GT(q, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Alphas, AlphaSweep,
                         ::testing::Values(0.5, 0.9, 0.95, 0.99, 0.995, 0.999,
                                           0.9999));

TEST(SubspaceTest, ThresholdStaysAboveTypicalSpeWithStructuredResidual) {
    // Regression: when the normal subspace is chosen SMALLER than the
    // data's latent rank, the residual contains leftover structure and
    // the raw Jackson-Mudholkar threshold can collapse below the mean
    // SPE (h0 -> 0), flagging most bins. The Box chi-square floor must
    // keep the threshold above the bulk of the SPE distribution.
    auto x = synth(400, 20, 8, 1.0, 21);  // rank 8 data
    auto m = subspace_model::fit(x, {.normal_dims = 4});
    const auto spe = m.spe_rows(x);
    std::vector<double> sorted = spe;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double thr = m.q_threshold(0.999);
    EXPECT_GT(thr, median);
    // And fewer than 25% of clean bins may be flagged.
    std::size_t flagged = 0;
    for (double v : spe)
        if (v > thr) ++flagged;
    EXPECT_LT(flagged * 4, spe.size());
}

TEST(SubspaceTest, BoxFloorMatchesJmOnSingleSpikeResidual) {
    // For a residual dominated by one direction both approximations
    // agree within a factor ~2 (chi^2_1 quantile vs JM).
    auto x = synth(200, 10, 3, 0.01, 23);
    // Plant persistent variance in ONE residual direction.
    for (std::size_t t = 0; t < x.rows(); ++t)
        x(t, 7) += ((t % 2) ? 4.0 : -4.0);
    auto m = subspace_model::fit(x, {.normal_dims = 3});
    const double thr = m.q_threshold(0.999);
    EXPECT_GT(thr, 0.0);
    EXPECT_TRUE(std::isfinite(thr));
}
