// Parity tests for the fast SPE paths: the batch spe_rows evaluation,
// the identity formula against explicit residual reconstruction, and
// subspace_model's streaming copy.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/subspace.h"
#include "linalg/matrix.h"
#include "linalg/pca.h"
#include "traffic/rng.h"

namespace la = tfd::linalg;
using tfd::core::subspace_model;

namespace {

// Low-rank structure plus noise, the shape PCA cares about.
la::matrix structured_data(std::size_t t, std::size_t n, std::uint64_t seed) {
    la::matrix x(t, n);
    tfd::traffic::rng gen(seed);
    std::vector<double> u1(n), u2(n);
    for (std::size_t j = 0; j < n; ++j) {
        u1[j] = gen.uniform(-1, 1);
        u2[j] = gen.uniform(-1, 1);
    }
    for (std::size_t i = 0; i < t; ++i) {
        const double a = std::sin(0.2 * static_cast<double>(i));
        const double b = std::cos(0.07 * static_cast<double>(i));
        for (std::size_t j = 0; j < n; ++j)
            x(i, j) = 3.0 + a * u1[j] + b * u2[j] + 0.05 * gen.uniform(-1, 1);
    }
    return x;
}

}  // namespace

TEST(SpeBatchTest, BatchRowsMatchPerRowSpe) {
    for (auto [t, n] : {std::tuple{30u, 12u}, std::tuple{20u, 50u},
                        std::tuple{96u, 121u}}) {
        const auto x = structured_data(t, n, 77u + n);
        const auto p = la::fit_pca_topk(x, x.cols());
        for (std::size_t m : {0u, 2u, 5u}) {
            const auto batch = la::squared_prediction_error_rows(p, x, m);
            ASSERT_EQ(batch.size(), t);
            for (std::size_t r = 0; r < t; ++r)
                EXPECT_NEAR(batch[r],
                            la::squared_prediction_error(p, x.row(r), m),
                            1e-12)
                    << "t=" << t << " n=" << n << " m=" << m << " r=" << r;
        }
    }
}

TEST(SpeBatchTest, FastSpeAgreesWithExplicitResidual) {
    // The identity ||x_c||^2 - sum scores^2 must agree with the residual
    // reconstruction it replaced, up to rounding.
    const auto x = structured_data(50, 40, 9);
    const auto p = la::fit_pca_topk(x, x.cols());
    for (std::size_t r = 0; r < x.rows(); r += 7) {
        const auto res = la::residual(p, x.row(r), 5);
        double ref = 0.0;
        for (double v : res) ref += v * v;
        EXPECT_NEAR(la::squared_prediction_error(p, x.row(r), 5), ref,
                    1e-9 * (1.0 + ref));
    }
}

TEST(SpeBatchTest, DegenerateObservationsReportNearZeroSpe) {
    // Rank-2 data with the model covering it: SPE must be ~0 (exactly the
    // cancellation regime the reconstruction fallback handles), never the
    // ~1e-13 noise floor of the raw identity formula.
    la::matrix x(30, 10);
    for (std::size_t i = 0; i < 30; ++i)
        for (std::size_t j = 0; j < 10; ++j)
            x(i, j) = std::sin(0.3 * static_cast<double>(i)) * (1.0 + static_cast<double>(j)) +
                      std::cos(0.2 * static_cast<double>(i));
    const auto p = la::fit_pca_topk(x, x.cols());
    const auto spe = la::squared_prediction_error_rows(p, x, 4);
    for (double v : spe) EXPECT_LT(v, 1e-18);
}

TEST(SpeBatchTest, SubspaceModelSpePathsAgree) {
    const auto x = structured_data(40, 48, 13);
    const auto model = subspace_model::fit(x, {.normal_dims = 6});
    std::vector<double> scratch;
    const auto batch = model.spe_rows(x);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        EXPECT_NEAR(batch[r], model.spe(x.row(r)), 1e-12);
        EXPECT_EQ(model.spe(x.row(r)), model.spe(x.row(r), scratch));
    }
}
