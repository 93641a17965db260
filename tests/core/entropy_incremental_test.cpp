// Parity tests for the incrementally maintained entropy accumulator and
// the histogram early-outs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/histogram.h"
#include "traffic/rng.h"

using namespace tfd::core;

namespace {

// Direct (sorted-order) entropy definition, as the seed computed it.
double entropy_reference(const std::vector<double>& counts) {
    double total = 0.0;
    for (double n : counts) total += n;
    if (total <= 0.0 || counts.size() < 2) return 0.0;
    std::vector<double> ns = counts;
    std::sort(ns.begin(), ns.end());
    double h = 0.0;
    for (double n : ns) {
        const double p = n / total;
        h -= p * std::log2(p);
    }
    return std::max(0.0, h);
}

}  // namespace

TEST(EntropyIncrementalTest, MatchesDirectComputationUnderRandomStreams) {
    tfd::traffic::rng gen(1234);
    feature_histogram h;
    std::vector<double> by_value(200, 0.0);
    for (std::size_t step = 0; step < 20000; ++step) {
        const auto value =
            static_cast<std::uint32_t>(gen.uniform_int(by_value.size()));
        const std::uint64_t w = 1 + gen.uniform_int(9);
        h.add(value, w);
        by_value[value] += static_cast<double>(w);
        if (step % 1024 == 0) {
            std::vector<double> counts;
            for (double c : by_value)
                if (c > 0.0) counts.push_back(c);
            EXPECT_NEAR(h.entropy_bits(), entropy_reference(counts), 1e-11)
                << "step " << step;
        }
    }
    std::vector<double> counts;
    for (double c : by_value)
        if (c > 0.0) counts.push_back(c);
    EXPECT_NEAR(h.entropy_bits(), entropy_reference(counts), 1e-11);
}

// Counts are integers: past the 4096-entry n·log2 n table the slow path
// takes over, and past 2^32 nothing wraps or truncates, through the
// periodic exact recompute as well.
TEST(EntropyIncrementalTest, CountsAboveTheTableAndAbove32BitsAreExact) {
    constexpr std::uint64_t k2to32 = std::uint64_t{1} << 32;
    feature_histogram h;
    h.add(1, 4000);
    h.add(1, 200);  // leaves the table
    h.add(2, k2to32);
    h.add(2, k2to32);
    h.add(3, k2to32 - 1);
    h.add(3, 2);  // crosses 2^32
    h.add(4, 1);
    EXPECT_EQ(h.count_of(1), 4200.0);
    EXPECT_EQ(h.count_of(2), 8589934592.0);
    EXPECT_EQ(h.count_of(3), 4294967297.0);
    EXPECT_EQ(h.total(), 12884906090.0);
    EXPECT_NEAR(h.entropy_bits(),
                entropy_reference({4200.0, 8589934592.0, 4294967297.0, 1.0}),
                1e-12);

    // Indexed by value; value 0 is never added.
    std::vector<double> by_value{0.0, 4200.0, 8589934592.0, 4294967297.0, 1.0};
    by_value.resize(12, 0.0);
    for (std::uint64_t i = 0; i < 5000; ++i) {  // past one recompute
        const std::uint64_t w = (i % 3 == 0 ? k2to32 : 4096) + i;
        h.add(static_cast<std::uint32_t>(5 + i % 7), w);
        by_value[5 + i % 7] += static_cast<double>(w);
    }
    double total = 0.0;
    for (std::size_t v = 1; v < by_value.size(); ++v) {
        EXPECT_EQ(h.count_of(static_cast<std::uint32_t>(v)), by_value[v]);
        total += by_value[v];
    }
    EXPECT_EQ(h.total(), total);
    by_value.erase(by_value.begin());
    EXPECT_NEAR(h.entropy_bits(), entropy_reference(by_value), 1e-12);
}

TEST(EntropyIncrementalTest, LargeCountsBeyondTableAreExact) {
    feature_histogram h;
    h.add(1, 100000);
    h.add(2, 300000);
    EXPECT_NEAR(h.entropy_bits(), 0.8112781244591328, 1e-12);
}

TEST(EntropyIncrementalTest, ClearResetsAccumulator) {
    feature_histogram h;
    h.add(1, 10);
    h.add(2, 20);
    EXPECT_GT(h.entropy_bits(), 0.0);
    h.clear();
    EXPECT_EQ(h.entropy_bits(), 0.0);
    EXPECT_EQ(h.total(), 0.0);
    h.add(5, 4);
    h.add(6, 4);
    EXPECT_NEAR(h.entropy_bits(), 1.0, 1e-12);
}

TEST(HistogramEarlyOutTest, TopOnEmptyAndZeroK) {
    feature_histogram h;
    EXPECT_TRUE(h.top(10).empty());
    EXPECT_EQ(h.normalized_entropy(), 0.0);
    h.add(3, 5);
    EXPECT_TRUE(h.top(0).empty());
    EXPECT_EQ(h.normalized_entropy(), 0.0);  // N < 2
}

TEST(HistogramEarlyOutTest, PartialTopMatchesFullSort) {
    tfd::traffic::rng gen(9);
    feature_histogram h;
    for (int i = 0; i < 500; ++i)
        h.add(static_cast<std::uint32_t>(gen.uniform_int(120)), 1);
    const auto full = h.top(h.distinct());
    for (std::size_t k : {1u, 3u, 17u, 120u, 500u}) {
        const auto part = h.top(k);
        ASSERT_EQ(part.size(), std::min<std::size_t>(k, h.distinct()));
        for (std::size_t i = 0; i < part.size(); ++i) {
            EXPECT_EQ(part[i].first, full[i].first) << "k=" << k;
            EXPECT_EQ(part[i].second, full[i].second) << "k=" << k;
        }
    }
}

TEST(HistogramEarlyOutTest, CountOfAndDistinctSurviveGrowth) {
    feature_histogram h;
    for (std::uint32_t v = 0; v < 3000; ++v) h.add(v * 2654435761u, 1);
    EXPECT_EQ(h.distinct(), 3000u);
    for (std::uint32_t v = 0; v < 3000; ++v)
        EXPECT_EQ(h.count_of(v * 2654435761u), 1.0);
    EXPECT_EQ(h.count_of(123456789u), 0.0);
}
