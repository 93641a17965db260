// Parity test for the online detector's refit: after arbitrary
// push/evict streams, a refit is the batch fit of the block-normalized
// window, so its SPE and threshold must equal a from-scratch batch refit
// of the same window bit for bit, on both branches of the fit. An
// anomalous verdict's attribution (flows, top OD, h_tilde) must equal
// identify_flows on the batch model, as the batch detector computes it.
#include "core/online.h"

#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <string>
#include <vector>

#include "core/identify.h"
#include "core/subspace.h"

using namespace tfd::core;
namespace la = tfd::linalg;

namespace {

double noise(std::size_t a, std::size_t b, std::size_t c) {
    std::uint64_t h = a * 0x9E3779B97F4A7C15ULL ^ b * 0xBF58476D1CE4E5B9ULL ^
                      c * 0x94D049BB133111EBULL;
    h ^= h >> 31;
    h *= 0x2545F4914F6CDD1DULL;
    h ^= h >> 29;
    return static_cast<double>(h >> 11) / 9007199254740992.0 - 0.5;
}

entropy_snapshot snapshot_at(std::size_t bin, std::size_t flows) {
    entropy_snapshot s;
    for (int f = 0; f < 4; ++f) {
        s.entropies[f].resize(flows);
        for (std::size_t od = 0; od < flows; ++od)
            s.entropies[f][od] =
                3.0 + std::sin(2 * M_PI * bin / 96.0 + 0.4 * f + 0.2 * od) +
                0.2 * noise(bin, od, f);
    }
    return s;
}

// Reference: flatten the window rows, block-normalize them to unit energy
// in unfold()'s summation order, batch-fit, and score the newest row.
struct batch_reference {
    subspace_model model;
    double threshold = 0.0;
    double spe_last = 0.0;
    std::vector<double> last_row;  ///< the newest row, normalized
};

batch_reference batch_refit_and_score(
    const std::deque<std::vector<double>>& window, std::size_t flows,
    const subspace_options& sopts, double alpha) {
    const std::size_t t = window.size();
    const std::size_t d = 4 * flows;
    la::matrix h(t, d);
    for (std::size_t r = 0; r < t; ++r)
        for (std::size_t c = 0; c < d; ++c) h(r, c) = window[r][c];
    std::array<double, 4> norms{};
    for (int f = 0; f < 4; ++f) {
        double energy = 0.0;
        for (std::size_t r = 0; r < t; ++r)
            for (std::size_t od = 0; od < flows; ++od) {
                const double v = h(r, static_cast<std::size_t>(f) * flows + od);
                energy += v * v;
            }
        norms[f] = energy > 0.0 ? std::sqrt(energy) : 1.0;
        const double inv = 1.0 / norms[f];
        for (std::size_t r = 0; r < t; ++r)
            for (std::size_t od = 0; od < flows; ++od)
                h(r, static_cast<std::size_t>(f) * flows + od) *= inv;
    }
    batch_reference out;
    out.model = subspace_model::fit(h, sopts);
    out.threshold = out.model.q_threshold(alpha);
    out.spe_last = out.model.spe(h.row(t - 1));
    out.last_row.assign(h.row(t - 1).begin(), h.row(t - 1).end());
    return out;
}

}  // namespace

// The two branches of the fit: d = 36 below the window (every refit
// takes the covariance), and d = 96 above it (every refit takes the
// Gram trick), with a 62-row window off outer_gram's 3 x 4 tile.
struct refit_shape {
    const char* name;
    std::size_t flows;
    std::size_t window;
};

class OnlineIncrementalTest : public ::testing::TestWithParam<refit_shape> {};

TEST_P(OnlineIncrementalTest, RefitMatchesBatchAfterEvictions) {
    const std::size_t flows = GetParam().flows;
    online_options opts;
    opts.window = GetParam().window;
    opts.warmup = 40;
    opts.refit_interval = 1;  // refit every bin: compare at many states
    opts.subspace.normal_dims = 8;
    online_detector det(flows, opts);

    std::deque<std::vector<double>> shadow;
    std::size_t compared = 0, anomalous = 0;
    for (std::size_t bin = 0; bin < 160; ++bin) {
        auto s = snapshot_at(bin, flows);
        // Every bin refits on a window that holds it, so a lone spike is
        // absorbed into the normal subspace. Large spikes on ODs 0-5 at
        // bins 101-106 first take the six normal dimensions the diurnal
        // signal leaves to noise; the smaller spike at bin 130 then stays
        // in the residual, and its anomalous verdict is compared.
        if (bin >= 101 && bin <= 106)
            for (int f = 0; f < 4; ++f) s.entropies[f][bin - 101] += 2.0;
        if (bin == 130)
            for (int f = 0; f < 4; ++f) s.entropies[f][flows - 1] += 0.5;
        std::vector<double> row(4 * flows);
        for (int f = 0; f < 4; ++f)
            for (std::size_t od = 0; od < flows; ++od)
                row[static_cast<std::size_t>(f) * flows + od] =
                    s.entropies[f][od];
        shadow.push_back(row);
        if (shadow.size() > opts.window) shadow.pop_front();

        const auto v = det.push(s);
        if (!v.scored) continue;
        // bin >= 100 guarantees dozens of evictions have passed.
        if (bin < 100) continue;
        const auto ref = batch_refit_and_score(shadow, flows, opts.subspace,
                                               opts.alpha);
        EXPECT_EQ(v.spe, ref.spe_last) << "bin " << bin;
        EXPECT_EQ(v.threshold, ref.threshold) << "bin " << bin;
        ++compared;
        if (!v.anomalous) continue;
        const auto id = identify_flows(ref.model, ref.last_row,
                                       {.max_flows = 3,
                                        .stop_threshold = ref.threshold});
        EXPECT_EQ(v.flows, id.flows) << "bin " << bin;
        EXPECT_EQ(v.top_od, id.top_od) << "bin " << bin;
        EXPECT_EQ(v.h_tilde, id.h_tilde) << "bin " << bin;
        ++anomalous;
    }
    EXPECT_GT(compared, 50u);
    EXPECT_GE(anomalous, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    FitBranches, OnlineIncrementalTest,
    ::testing::Values(refit_shape{"covariance", 9, 60},
                      refit_shape{"gram_trick", 24, 62}),
    [](const auto& info) { return std::string(info.param.name); });
