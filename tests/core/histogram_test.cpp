// Tests for od_dataset construction (the Figure 3 tensor builder).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/timeseries.h"
#include "net/topology.h"
#include "traffic/background.h"

using namespace tfd::core;
using tfd::flow::feature;

namespace {

const tfd::net::topology& abilene() {
    static const auto t = tfd::net::topology::abilene();
    return t;
}

cell_source background_source(const tfd::traffic::background_model& m) {
    return [&m](std::size_t bin, int od) { return m.generate(bin, od); };
}

}  // namespace

TEST(DatasetBuilderTest, ShapeMatchesRequest) {
    tfd::traffic::background_model m(abilene());
    auto d = build_od_dataset(12, 121, background_source(m));
    EXPECT_EQ(d.bins(), 12u);
    EXPECT_EQ(d.flows(), 121u);
    for (const auto& e : d.entropy) {
        EXPECT_EQ(e.rows(), 12u);
        EXPECT_EQ(e.cols(), 121u);
    }
}

TEST(DatasetBuilderTest, RejectsDegenerateArguments) {
    tfd::traffic::background_model m(abilene());
    EXPECT_THROW(build_od_dataset(0, 10, background_source(m)),
                 std::invalid_argument);
    EXPECT_THROW(build_od_dataset(10, 0, background_source(m)),
                 std::invalid_argument);
    EXPECT_THROW(build_od_dataset(10, 10, cell_source{}),
                 std::invalid_argument);
}

TEST(DatasetBuilderTest, PoolBuildMatchesSerialCells) {
    // The bins run as pool tasks in any order; every cell must equal a
    // fresh serial histogram of the same records, bit for bit.
    tfd::traffic::background_model m(abilene());
    const auto d = build_od_dataset(8, 30, background_source(m));
    for (std::size_t bin = 0; bin < 8; ++bin)
        for (int od = 0; od < 30; ++od) {
            feature_histogram_set hists;
            hists.add_records(m.generate(bin, od));
            EXPECT_EQ(d.bytes(bin, od),
                      static_cast<double>(hists.total_bytes()));
            EXPECT_EQ(d.packets(bin, od),
                      static_cast<double>(hists.total_packets()));
            const auto h = hists.entropies();
            for (int f = 0; f < 4; ++f)
                EXPECT_EQ(d.entropy[f](bin, od), h[f]);
        }
}

TEST(DatasetBuilderTest, VolumeAndEntropyArePositiveForBusyFlows) {
    tfd::traffic::background_model m(abilene());
    auto d = build_od_dataset(6, 121, background_source(m));
    int busy_cells = 0, entropic_cells = 0;
    for (std::size_t t = 0; t < d.bins(); ++t)
        for (std::size_t od = 0; od < d.flows(); ++od) {
            if (d.packets(t, od) > 20) {
                ++busy_cells;
                if (d.entropy[0](t, od) > 0.5) ++entropic_cells;
            }
        }
    ASSERT_GT(busy_cells, 100);
    // Nearly every busy cell has meaningful srcIP entropy.
    EXPECT_GT(entropic_cells * 10, busy_cells * 9);
}

TEST(DatasetBuilderTest, EntropySeriesSliceMatchesMatrix) {
    tfd::traffic::background_model m(abilene());
    auto d = build_od_dataset(5, 20, background_source(m));
    auto s = entropy_series(d, feature::dst_port, 7);
    ASSERT_EQ(s.size(), 5u);
    for (std::size_t t = 0; t < 5; ++t)
        EXPECT_EQ(s[t], d.entropy[3](t, 7));
}

TEST(DatasetBuilderTest, EmptyCellsYieldZeros) {
    auto d = build_od_dataset(
        3, 4, [](std::size_t, int) { return std::vector<tfd::flow::flow_record>{}; });
    for (std::size_t t = 0; t < 3; ++t)
        for (std::size_t od = 0; od < 4; ++od) {
            EXPECT_EQ(d.bytes(t, od), 0.0);
            EXPECT_EQ(d.packets(t, od), 0.0);
            for (int f = 0; f < 4; ++f) EXPECT_EQ(d.entropy[f](t, od), 0.0);
        }
}
