// Tests for multi-attribute identification (Section 4.2): given a
// detected timebin, find the OD flow(s) responsible, then attribute it
// (top OD and its unit-norm residual h_tilde).
//
// The synthetic entropy tensor mimics real data's spectral shape: a
// shared diurnal cycle, per-column quasi-periodic idiosyncrasies, and
// noise — so a one-bin perturbation lands in the residual subspace
// instead of becoming a principal component.
#include "core/identify.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "core/multiway.h"
#include "core/subspace.h"

using namespace tfd::core;
namespace la = tfd::linalg;

namespace {

double hash_noise(std::size_t a, std::size_t b, std::size_t c) {
    std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xBF58476D1CE4E5B9ULL ^
                      c * 0x94D049BB133111EBULL;
    h ^= h >> 31;
    h *= 0x2545F4914F6CDD1DULL;
    h ^= h >> 29;
    return static_cast<double>(h >> 11) / 9007199254740992.0 - 0.5;
}

std::array<la::matrix, 4> entropy_features(std::size_t t, std::size_t p) {
    std::array<la::matrix, 4> f;
    for (int k = 0; k < 4; ++k) {
        f[k].resize(t, p);
        for (std::size_t i = 0; i < t; ++i)
            for (std::size_t j = 0; j < p; ++j)
                f[k](i, j) =
                    3.0 + std::sin(2 * M_PI * i / 288.0 + 0.3 * k + 0.1 * j) +
                    0.3 * std::sin(2 * M_PI * i / ((j % 7 + 2) * 24.0) + j) +
                    0.2 * hash_noise(i, j, k);
    }
    return f;
}

// Perturb the raw (pre-unfolding) entropy of flow `od` at `bin` — the
// natural units: an anomaly shifts entropy by O(1) bits.
void perturb(std::array<la::matrix, 4>& f, std::size_t bin, int od,
             const std::array<double, 4>& delta) {
    for (int k = 0; k < 4; ++k) f[k](bin, od) += delta[k];
}

}  // namespace

TEST(IdentifyTest, FindsSingleAnomalousFlow) {
    auto f = entropy_features(288, 20);
    const std::size_t bin = 150;
    const int od = 13;
    perturb(f, bin, od, {-0.8, 1.0, -0.9, 1.2});
    auto m = unfold(f);

    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    const double thr = model.q_threshold(0.999);
    auto id = identify_flows(model, m.h.row(bin),
                             {.max_flows = 3, .stop_threshold = thr});
    ASSERT_FALSE(id.flows.empty());
    EXPECT_EQ(id.flows.front().od, od);
    EXPECT_EQ(id.top_od, id.flows.front().od);
    EXPECT_EQ(id.h_tilde, to_unit_norm(flow_residual(
                              model.residual(m.h.row(bin)), id.top_od)));
    EXPECT_GT(id.spe_before, thr);
    // Deflating the anomalous flow must reduce the SPE drastically.
    EXPECT_LT(id.flows.front().spe_after, 0.2 * id.spe_before);
}

TEST(IdentifyTest, MagnitudeRecoversPerturbation) {
    auto f = entropy_features(288, 15);
    const std::size_t bin = 100;
    const int od = 4;
    const std::array<double, 4> delta{1.5, -1.0, 2.0, 0.7};
    perturb(f, bin, od, delta);
    auto m = unfold(f);

    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    auto id = identify_flows(model, m.h.row(bin),
                             {.max_flows = 1, .stop_threshold = 0.0});
    ASSERT_FALSE(id.flows.empty());
    ASSERT_EQ(id.flows.front().od, od);
    // Recovered magnitudes must match the injected signs on the dominant
    // coordinates (magnitudes live in normalized units).
    EXPECT_GT(id.flows.front().magnitude[0] * delta[0], 0.0);
    EXPECT_GT(id.flows.front().magnitude[2] * delta[2], 0.0);
    // And their ratio should roughly match the injected ratio.
    const double ratio = id.flows.front().magnitude[2] /
                         id.flows.front().magnitude[0];
    EXPECT_NEAR(ratio, delta[2] / delta[0], 0.5);
}

TEST(IdentifyTest, RecursionFindsMultipleFlows) {
    auto f = entropy_features(288, 25);
    const std::size_t bin = 77;
    perturb(f, bin, 3, {1.6, -1.2, 1.5, -0.9});
    perturb(f, bin, 17, {-1.0, 1.8, -0.7, 1.3});
    auto m = unfold(f);

    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    const double thr = model.q_threshold(0.999);
    auto id = identify_flows(model, m.h.row(bin),
                             {.max_flows = 5, .stop_threshold = thr});
    std::set<int> found;
    for (const auto& fl : id.flows) found.insert(fl.od);
    EXPECT_TRUE(found.count(3));
    EXPECT_TRUE(found.count(17));
}

TEST(IdentifyTest, QuietBinIdentifiesNothing) {
    auto f = entropy_features(288, 12);
    perturb(f, 200, 7, {1.5, 1.5, 1.5, 1.5});
    auto m = unfold(f);
    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    const double thr = model.q_threshold(0.995);
    // Pick the quietest bin (minimum SPE): identification must stop at
    // once because SPE <= threshold.
    const auto spes = model.spe_rows(m.h);
    std::size_t quiet = 0;
    for (std::size_t r = 1; r < spes.size(); ++r)
        if (spes[r] < spes[quiet]) quiet = r;
    if (spes[quiet] <= thr) {
        auto id = identify_flows(model, m.h.row(quiet),
                                 {.max_flows = 10, .stop_threshold = thr});
        EXPECT_TRUE(id.flows.empty());
    }
}

TEST(IdentifyTest, MaxFlowsBoundsRecursion) {
    auto f = entropy_features(288, 12);
    for (int od : {1, 4, 8}) perturb(f, 60, od, {2.0, -2.0, 2.0, -2.0});
    auto m = unfold(f);
    auto model = subspace_model::fit(m.h, {.normal_dims = 8});
    auto id = identify_flows(model, m.h.row(60),
                             {.max_flows = 2, .stop_threshold = 0.0});
    EXPECT_LE(id.flows.size(), 2u);
}

TEST(IdentifyTest, DimensionMismatchThrows) {
    auto m = unfold(entropy_features(96, 8));
    auto model = subspace_model::fit(m.h, {.normal_dims = 4});
    std::vector<double> bad(7, 0.0);
    EXPECT_THROW(identify_flows(model, bad, {}), std::invalid_argument);
}

TEST(IdentifyTest, SpeAfterDecreasesMonotonically) {
    auto f = entropy_features(288, 18);
    perturb(f, 20, 2, {1.8, 0.9, -1.5, 1.0});
    perturb(f, 20, 9, {-1.2, 1.6, 0.8, -1.1});
    auto m = unfold(f);
    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    auto id = identify_flows(model, m.h.row(20),
                             {.max_flows = 4, .stop_threshold = 0.0});
    double prev = id.spe_before;
    for (const auto& fl : id.flows) {
        EXPECT_LE(fl.spe_after, prev + 1e-12);
        prev = fl.spe_after;
    }
}

TEST(IdentifyTest, MultiFlowAnomalySharedDestination) {
    // A DDOS converging on one destination from 4 origins: all four OD
    // flows shift simultaneously; recursive identification should pull
    // out several of them.
    auto f = entropy_features(288, 22);
    const std::size_t bin = 111;
    const std::set<int> truth{2, 7, 12, 19};
    for (int od : truth) perturb(f, bin, od, {1.2, -0.8, -1.4, 0.6});
    auto m = unfold(f);
    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    const double thr = model.q_threshold(0.999);
    auto id = identify_flows(model, m.h.row(bin),
                             {.max_flows = 6, .stop_threshold = thr});
    int hits = 0;
    for (const auto& fl : id.flows)
        if (truth.count(fl.od)) ++hits;
    EXPECT_GE(hits, 3);
    ASSERT_FALSE(id.flows.empty());
    EXPECT_EQ(id.top_od, id.flows.front().od);
}

// With no flow identified (max_flows = 0), the top OD falls back to the
// flow with the largest residual energy, the first on ties, and h_tilde
// is that flow's unit-norm residual.
TEST(IdentifyTest, FallbackTakesLargestResidualEnergy) {
    auto f = entropy_features(288, 16);
    const std::size_t bin = 140;
    perturb(f, bin, 11, {1.4, -1.1, 1.6, -0.9});
    auto m = unfold(f);
    auto model = subspace_model::fit(m.h, {.normal_dims = 10});
    const auto obs = m.h.row(bin);
    const auto id = identify_flows(model, obs,
                                   {.max_flows = 0, .stop_threshold = 0.0});
    EXPECT_TRUE(id.flows.empty());

    const auto residual = model.residual(obs);
    int expect_od = -1;
    double best = -1.0;
    for (int od = 0; od < 16; ++od) {
        double e = 0.0;
        for (double x : flow_residual(residual, od)) e += x * x;
        if (e > best) {
            best = e;
            expect_od = od;
        }
    }
    EXPECT_EQ(expect_od, 11);
    EXPECT_EQ(id.top_od, expect_od);
    EXPECT_EQ(id.h_tilde, to_unit_norm(flow_residual(residual, id.top_od)));

    // At the model mean every residual is exactly zero: all flows tie,
    // the first wins, and h_tilde stays the zero vector.
    const auto& mean = model.pca().mean;
    const auto tie = identify_flows(model, mean,
                                    {.max_flows = 0, .stop_threshold = 0.0});
    for (double x : model.residual(mean)) ASSERT_EQ(x, 0.0);
    EXPECT_EQ(tie.top_od, 0);
    EXPECT_EQ(tie.h_tilde, (std::array<double, 4>{0.0, 0.0, 0.0, 0.0}));
}
