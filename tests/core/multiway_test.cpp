// Tests for the multiway unfolding, unit-energy normalization, and the
// end-to-end entropy/volume detectors.
#include "core/multiway.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "core/detector.h"
#include "net/topology.h"
#include "traffic/anomaly.h"
#include "traffic/background.h"

using namespace tfd::core;
using tfd::flow::feature;
namespace la = tfd::linalg;

namespace {

std::array<la::matrix, 4> synthetic_features(std::size_t t, std::size_t p,
                                             double scale0 = 1.0) {
    std::array<la::matrix, 4> f;
    for (int k = 0; k < 4; ++k) {
        f[k].resize(t, p);
        for (std::size_t i = 0; i < t; ++i)
            for (std::size_t j = 0; j < p; ++j)
                f[k](i, j) = (k == 0 ? scale0 : 1.0) *
                             (std::sin(0.1 * (i + 1) * (k + 1)) + 2.0 +
                              0.1 * static_cast<double>(j));
    }
    return f;
}

}  // namespace

TEST(MultiwayTest, UnfoldShape) {
    auto m = unfold(synthetic_features(10, 7));
    EXPECT_EQ(m.bins(), 10u);
    EXPECT_EQ(m.flows, 7u);
    EXPECT_EQ(m.h.cols(), 28u);
}

TEST(MultiwayTest, UnfoldRejectsMismatchedShapes) {
    auto f = synthetic_features(10, 7);
    f[2].resize(10, 6);
    EXPECT_THROW(unfold(f), std::invalid_argument);
    std::array<la::matrix, 4> empty;
    EXPECT_THROW(unfold(empty), std::invalid_argument);
}

TEST(MultiwayTest, SubmatricesHaveUnitEnergy) {
    // "Each submatrix of H must be normalized to unit energy, so that no
    // one feature dominates our analysis." Make feature 0 1000x larger;
    // after unfolding all four blocks have Frobenius norm 1.
    auto m = unfold(synthetic_features(12, 9, 1000.0));
    for (int k = 0; k < 4; ++k) {
        double energy = 0.0;
        for (std::size_t i = 0; i < m.bins(); ++i)
            for (std::size_t j = 0; j < m.flows; ++j) {
                const double v = m.h(i, k * 9 + j);
                energy += v * v;
            }
        EXPECT_NEAR(energy, 1.0, 1e-9) << "feature " << k;
    }
    EXPECT_GT(m.submatrix_norm[0], 500.0 * m.submatrix_norm[1]);
}

TEST(MultiwayTest, ColumnLayoutIsFeatureMajor) {
    auto m = unfold(synthetic_features(5, 11));
    EXPECT_EQ(m.column(feature::src_ip, 0), 0u);
    EXPECT_EQ(m.column(feature::src_port, 0), 11u);
    EXPECT_EQ(m.column(feature::dst_ip, 3), 25u);
    EXPECT_EQ(m.column(feature::dst_port, 10), 43u);
    EXPECT_THROW(m.column(feature::src_ip, 11), std::out_of_range);

    const auto [f, od] = m.unpack(25);
    EXPECT_EQ(f, feature::dst_ip);
    EXPECT_EQ(od, 3);
    EXPECT_THROW(m.unpack(44), std::out_of_range);
}

TEST(MultiwayTest, AllZeroFeatureBlockStaysZero) {
    auto f = synthetic_features(6, 4);
    f[1].fill(0.0);
    auto m = unfold(f);
    for (std::size_t i = 0; i < 6; ++i)
        for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(m.h(i, 4 + j), 0.0);
}

TEST(MultiwayTest, FlowResidualExtractsPerFlowCoordinates) {
    auto m = unfold(synthetic_features(4, 3));
    std::vector<double> residual(12, 0.0);
    residual[m.column(feature::src_ip, 1)] = 0.5;
    residual[m.column(feature::dst_port, 1)] = -0.25;
    const auto v = flow_residual(residual, 1);
    EXPECT_EQ(v[0], 0.5);
    EXPECT_EQ(v[1], 0.0);
    EXPECT_EQ(v[3], -0.25);
    std::vector<double> bad(5, 0.0);
    EXPECT_THROW(flow_residual(bad, 0), std::invalid_argument);
    // p = 3 comes from the length 12: the valid ODs are 0, 1 and 2.
    EXPECT_THROW(flow_residual(residual, -1), std::out_of_range);
    EXPECT_THROW(flow_residual(residual, 3), std::out_of_range);
}

TEST(MultiwayTest, UnitNormRescale) {
    auto v = to_unit_norm({3.0, 0.0, 4.0, 0.0});
    EXPECT_NEAR(v[0], 0.6, 1e-12);
    EXPECT_NEAR(v[2], 0.8, 1e-12);
    auto z = to_unit_norm({0.0, 0.0, 0.0, 0.0});
    for (double x : z) EXPECT_EQ(x, 0.0);
}

// End-to-end: a port scan planted in background traffic is detected by
// the multiway method and identified to the right OD flow.
TEST(DetectorTest, DetectsAndIdentifiesPlantedPortScan) {
    const auto topo = tfd::net::topology::abilene();
    tfd::traffic::background_model bg(topo);
    const int target_od = topo.od_index(2, 9);
    const std::size_t anomaly_bin = 300;
    // Two days of bins: long enough that a one-bin anomaly cannot
    // contaminate the PCA model (its covariance share is ~1/t).
    const std::size_t bins = 576;

    cell_source source = [&](std::size_t bin, int od) {
        auto recs = bg.generate(bin, od);
        if (bin == anomaly_bin && od == target_od) {
            tfd::traffic::anomaly_cell cell;
            cell.type = tfd::traffic::anomaly_type::port_scan;
            cell.od = od;
            cell.bin = bin;
            cell.packets = 300;  // ~1 pps: invisible in volume
            auto extra = generate_anomaly_records(topo, cell,
                                                  tfd::traffic::rng(99));
            recs.insert(recs.end(), extra.begin(), extra.end());
        }
        return recs;
    };

    auto data = build_od_dataset(bins, topo.od_count(), source);
    auto det = detect_entropy_anomalies(data, {.normal_dims = 10},
                                        0.999);

    // The anomalous bin must be flagged...
    bool found = false;
    for (const auto& ev : det.events)
        if (ev.bin == anomaly_bin) {
            found = true;
            // ...and identified to the right OD flow.
            EXPECT_EQ(ev.top_od, target_od);
            // h_tilde: dstPort disperses (positive), dstIP concentrates
            // (negative) — the Figure 2 signature.
            EXPECT_GT(ev.h_tilde[3], 0.1);
            EXPECT_LT(ev.h_tilde[2], 0.1);
            // Unit norm.
            double n = 0.0;
            for (double x : ev.h_tilde) n += x * x;
            EXPECT_NEAR(n, 1.0, 1e-9);
        }
    EXPECT_TRUE(found);

    // Volume detection runs on the same dataset without error. (Whether
    // this particular scan is volume-visible depends on cell scale; the
    // entropy-vs-volume sensitivity comparison is made at calibrated
    // scale in bench/fig5_detection_rate.)
    auto vol = detect_volume_anomalies(data, {.normal_dims = 10},
                                       0.999);
    EXPECT_EQ(vol.bytes.spe.size(), bins);
    EXPECT_EQ(vol.packets.spe.size(), bins);
}

TEST(DetectorTest, CompareDetectionsPartitions) {
    volume_detection v;
    v.anomalous_bins = {1, 3, 5, 7};
    entropy_detection e;
    e.rows.anomalous_bins = {3, 4, 7, 9};
    const auto overlap = compare_detections(v, e);
    EXPECT_EQ(overlap.volume_only, (std::vector<std::size_t>{1, 5}));
    EXPECT_EQ(overlap.entropy_only, (std::vector<std::size_t>{4, 9}));
    EXPECT_EQ(overlap.both, (std::vector<std::size_t>{3, 7}));
    EXPECT_EQ(overlap.total(), 6u);
}

TEST(MultiwayTest, DetectionInvariantUnderFeatureRescaling) {
    // Unit-energy normalization makes the unfolded matrix invariant to a
    // constant rescaling of any raw feature block, so SPE and detections
    // cannot change.
    auto f1 = synthetic_features(32, 6);
    auto f2 = f1;
    for (auto& v : f2[1].data()) v *= 250.0;   // rescale srcPort block
    for (auto& v : f2[3].data()) v *= 0.004;   // and dstPort block

    const auto m1 = unfold(f1);
    const auto m2 = unfold(f2);
    EXPECT_LT(la::max_abs_diff(m1.h, m2.h), 1e-12);

    const auto d1 = detect_entropy_anomalies(
        m1, {.normal_dims = 4}, 0.995);
    const auto d2 = detect_entropy_anomalies(
        m2, {.normal_dims = 4}, 0.995);
    ASSERT_EQ(d1.rows.spe.size(), d2.rows.spe.size());
    for (std::size_t b = 0; b < d1.rows.spe.size(); ++b)
        EXPECT_NEAR(d1.rows.spe[b], d2.rows.spe[b],
                    1e-9 * (1.0 + d1.rows.spe[b]));
    EXPECT_EQ(d1.rows.anomalous_bins, d2.rows.anomalous_bins);
}
