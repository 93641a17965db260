// Integration: unsupervised classification of known anomalies in entropy
// space — the Figure 7 experiment ("only 4 cases out of 296 where an
// anomaly is placed in the wrong cluster").
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "cluster/hierarchical.h"
#include "cluster/metrics.h"
#include "cluster/summary.h"
#include "core/detector.h"
#include "diagnosis/labeler.h"
#include "net/topology.h"
#include "traffic/anomaly.h"
#include "traffic/background.h"

using namespace tfd;

namespace {

// Generate unit-norm residual-entropy h_tilde vectors for a set of known
// anomalies by perturbing background cells and extracting residuals
// under a clean multiway model.
struct entropy_space_points {
    linalg::matrix x;            // n x 4 unit-norm residual vectors
    std::vector<int> truth;      // known type index per point
};

entropy_space_points make_known_points(
    const std::vector<traffic::anomaly_type>& types, int per_type,
    std::uint64_t seed) {
    const auto topo = net::topology::abilene();
    traffic::background_model bg(topo);
    const std::size_t bins = 288;

    auto clean = core::build_od_dataset(
        bins, topo.od_count(),
        [&](std::size_t b, int od) { return bg.generate(b, od); });
    auto m = core::unfold(clean);
    auto model = core::subspace_model::fit(m.h, {.normal_dims = 10});

    entropy_space_points out;
    out.x.resize(types.size() * per_type, 4);
    std::size_t row = 0;
    traffic::rng gen(seed);
    for (std::size_t ti = 0; ti < types.size(); ++ti) {
        for (int i = 0; i < per_type; ++i) {
            const std::size_t bin = 20 + (row * 7) % (bins - 40);
            const int od = static_cast<int>(gen.uniform_int(topo.od_count()));

            traffic::anomaly_cell cell;
            cell.type = types[ti];
            cell.od = od;
            cell.bin = bin;
            const auto [lo, hi] = traffic::default_intensity_range(types[ti]);
            cell.packets = gen.uniform(lo, hi) * 300.0;
            auto extra =
                traffic::generate_anomaly_records(topo, cell, gen.derive(row));

            // Patch the observation row with the perturbed cell.
            std::vector<double> obs(m.h.row(bin).begin(), m.h.row(bin).end());
            core::feature_histogram_set hists;
            hists.add_records(bg.generate(bin, od));
            hists.add_records(extra);
            const auto h = hists.entropies();
            for (int f = 0; f < 4; ++f)
                obs[m.column(static_cast<flow::feature>(f), od)] =
                    h[f] / m.submatrix_norm[f];

            const auto residual = model.residual(obs);
            const auto v = core::to_unit_norm(
                core::flow_residual(residual, od));
            for (int f = 0; f < 4; ++f) out.x(row, f) = v[f];
            out.truth.push_back(static_cast<int>(ti));
            ++row;
        }
    }
    return out;
}

// Count points whose cluster's plurality type differs from their own.
int misclustered(const std::vector<int>& assignment,
                 const std::vector<int>& truth, std::size_t k) {
    std::map<int, std::map<int, int>> votes;
    for (std::size_t i = 0; i < assignment.size(); ++i)
        ++votes[assignment[i]][truth[i]];
    std::map<int, int> plurality;
    for (auto& [c, tally] : votes) {
        int best = -1, best_n = -1;
        for (auto& [t, n] : tally)
            if (n > best_n) {
                best = t;
                best_n = n;
            }
        plurality[c] = best;
    }
    int wrong = 0;
    for (std::size_t i = 0; i < assignment.size(); ++i)
        if (plurality[assignment[i]] != truth[i]) ++wrong;
    (void)k;
    return wrong;
}

}  // namespace

TEST(ClassificationIntegration, KnownAttackTypesSeparateInEntropySpace) {
    // The Figure 7 trio: single-source DOS, multi-source DDOS, worm scan.
    const std::vector<traffic::anomaly_type> types{
        traffic::anomaly_type::dos, traffic::anomaly_type::ddos,
        traffic::anomaly_type::worm};
    auto pts = make_known_points(types, 30, 99);

    auto c = cluster::hierarchical_cluster(pts.x, 3, cluster::linkage::ward);
    const int wrong = misclustered(c.assignment, pts.truth, 3);
    // Paper: 4 wrong out of 296 (~1.4%). Allow a little slack: <= 8%.
    EXPECT_LE(wrong, 7) << "of " << pts.truth.size();
}

TEST(ClassificationIntegration, KmeansAgreesWithHierarchical) {
    // Section 7: "our results are not sensitive to the choice of
    // algorithm used".
    const std::vector<traffic::anomaly_type> types{
        traffic::anomaly_type::dos, traffic::anomaly_type::ddos,
        traffic::anomaly_type::worm};
    auto pts = make_known_points(types, 20, 7);

    auto h = cluster::hierarchical_cluster(pts.x, 3, cluster::linkage::ward);
    cluster::kmeans_options ko;
    ko.seed = 3;
    auto km = cluster::kmeans(pts.x, 3, ko);
    EXPECT_LE(misclustered(h.assignment, pts.truth, 3), 6);
    EXPECT_LE(misclustered(km.assignment, pts.truth, 3), 6);
}

TEST(ClassificationIntegration, SignaturesMatchTableSix) {
    // Port scans: concentrated srcIP/dstIP (negative residual entropy),
    // dispersed dstPort (positive) — Table 6's signature row.
    const std::vector<traffic::anomaly_type> types{
        traffic::anomaly_type::port_scan};
    auto pts = make_known_points(types, 25, 21);
    std::vector<int> one_cluster(pts.truth.size(), 0);
    auto sums = cluster::summarize_clusters(pts.x, one_cluster, 1, 1.0);
    ASSERT_EQ(sums.size(), 1u);
    EXPECT_LT(sums[0].mean[0], 0.0);  // srcIP concentrates
    EXPECT_LT(sums[0].mean[2], 0.0);  // dstIP concentrates
    EXPECT_GT(sums[0].mean[3], 0.3);  // dstPort disperses strongly
}

TEST(ClassificationIntegration, ClusterCountKneeNearPaperRange) {
    // Figure 10: the knee falls around 8-12 clusters for mixed anomalies.
    std::vector<traffic::anomaly_type> types{
        traffic::anomaly_type::alpha,      traffic::anomaly_type::dos,
        traffic::anomaly_type::ddos,       traffic::anomaly_type::flash_crowd,
        traffic::anomaly_type::port_scan,  traffic::anomaly_type::network_scan,
        traffic::anomaly_type::worm,       traffic::anomaly_type::point_multipoint};
    auto pts = make_known_points(types, 12, 17);
    auto sweep = cluster::variation_sweep(
        pts.x, 2, 20, cluster::cluster_algorithm::hierarchical_single);
    // Within decreases, between increases monotonically.
    for (std::size_t i = 1; i < sweep.size(); ++i) {
        EXPECT_LE(sweep[i].within, sweep[i - 1].within + 1e-9);
        EXPECT_GE(sweep[i].between, sweep[i - 1].between - 1e-9);
    }
    const auto knee = cluster::knee_of(sweep);
    EXPECT_GE(knee, 3u);
    EXPECT_LE(knee, 16u);
}
