// Unit tests for sample entropy — the paper's Section 3 definition and
// its boundary behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "core/histogram.h"

using namespace tfd::core;

TEST(EntropyTest, EmptyHistogramIsZero) {
    feature_histogram h;
    EXPECT_EQ(h.entropy_bits(), 0.0);
    EXPECT_EQ(h.distinct(), 0u);
    EXPECT_EQ(h.total(), 0.0);
    EXPECT_TRUE(h.empty());
}

TEST(EntropyTest, SingleValueIsMaximallyConcentrated) {
    // "The metric takes on the value 0 when the distribution is maximally
    // concentrated, i.e., all observations are the same."
    feature_histogram h;
    h.add(42, 1000);
    EXPECT_EQ(h.entropy_bits(), 0.0);
    EXPECT_EQ(h.normalized_entropy(), 0.0);
}

TEST(EntropyTest, UniformIsMaximallyDispersed) {
    // "Sample entropy takes on the value log2 N when ... n_1 = ... = n_N."
    for (std::size_t n : {2u, 4u, 16u, 1024u}) {
        feature_histogram h;
        for (std::size_t i = 0; i < n; ++i) h.add(static_cast<std::uint32_t>(i), 7);
        EXPECT_NEAR(h.entropy_bits(), std::log2(static_cast<double>(n)), 1e-12)
            << "n=" << n;
        EXPECT_NEAR(h.normalized_entropy(), 1.0, 1e-12);
    }
}

TEST(EntropyTest, KnownTwoValueSplit) {
    // H(1/4, 3/4) = 2 - 0.75*log2(3) ~= 0.8112781.
    feature_histogram h;
    h.add(0, 1);
    h.add(1, 3);
    EXPECT_NEAR(h.entropy_bits(), 0.8112781244591328, 1e-12);
}

TEST(EntropyTest, RangeIsZeroToLogN) {
    feature_histogram h;
    h.add(1, 100);
    h.add(2, 5);
    h.add(3, 1);
    const double e = h.entropy_bits();
    EXPECT_GT(e, 0.0);
    EXPECT_LT(e, std::log2(3.0));
}

TEST(EntropyTest, ScaleInvariant) {
    // Entropy depends only on the shape (relative frequencies).
    feature_histogram a, b;
    a.add(1, 3);
    a.add(2, 5);
    a.add(3, 8);
    b.add(1, 300);
    b.add(2, 500);
    b.add(3, 800);
    EXPECT_NEAR(a.entropy_bits(), b.entropy_bits(), 1e-12);
}

// Counts are whole packets: a floating-point weight must not compile,
// so no caller can have one truncated.
template <typename W>
concept histogram_weight = requires(feature_histogram& h, W w) { h.add(1u, w); };
static_assert(histogram_weight<int>);
static_assert(histogram_weight<std::uint64_t>);
static_assert(!histogram_weight<double>);
static_assert(!histogram_weight<float>);

TEST(EntropyTest, ZeroCountIgnored) {
    feature_histogram h;
    h.add(1, 0);
    EXPECT_TRUE(h.empty());
    h.add(3, 2);
    EXPECT_EQ(h.distinct(), 1u);
}

TEST(EntropyTest, ConcentrationLowersEntropy) {
    // Start uniform over 64 values, then concentrate mass on one value:
    // entropy must fall monotonically (the DOS signature on dstIP).
    feature_histogram base;
    for (int i = 0; i < 64; ++i) base.add(i, 10);
    double prev = base.entropy_bits();
    for (std::uint64_t extra : {100u, 1000u, 10000u}) {
        feature_histogram h;
        for (int i = 0; i < 64; ++i) h.add(i, 10);
        h.add(0, extra);
        const double e = h.entropy_bits();
        EXPECT_LT(e, prev);
        prev = e;
    }
}

TEST(EntropyTest, DispersalRaisesEntropy) {
    // Adding new distinct values at constant mass (the port-scan
    // signature on dstPort) raises entropy.
    double prev = -1.0;
    for (int extra : {0, 64, 256, 1024}) {
        feature_histogram h;
        h.add(9999, 100);  // the typical service port
        for (int i = 0; i < extra; ++i) h.add(i, 1);
        const double e = h.entropy_bits();
        EXPECT_GT(e, prev);
        prev = e;
    }
}

TEST(HistogramTest, TopHeavyHitters) {
    feature_histogram h;
    h.add(10, 5);
    h.add(20, 50);
    h.add(30, 7);
    auto top = h.top(2);
    ASSERT_EQ(top.size(), 2u);
    EXPECT_EQ(top[0].first, 20u);
    EXPECT_EQ(top[0].second, 50.0);
    EXPECT_EQ(top[1].first, 30u);
    // Asking for more than distinct returns all.
    EXPECT_EQ(h.top(99).size(), 3u);
}

TEST(HistogramTest, RankCountsSortedDescending) {
    feature_histogram h;
    h.add(1, 3);
    h.add(2, 9);
    h.add(3, 1);
    const auto rc = h.rank_counts();
    ASSERT_EQ(rc.size(), 3u);
    EXPECT_EQ(rc[0], 9.0);
    EXPECT_EQ(rc[1], 3.0);
    EXPECT_EQ(rc[2], 1.0);
}

TEST(HistogramTest, CountOfAndClear) {
    feature_histogram h;
    h.add(5, 2);
    h.add(5, 3);
    EXPECT_EQ(h.count_of(5), 5.0);
    EXPECT_EQ(h.count_of(6), 0.0);
    h.clear();
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count_of(5), 0.0);
}

// The Abilene feed zeroes the low 11 bits of every address (paper §5).
// The count table must still spread such keys over its home slots; a
// hash read from the product's low bits sends every one of them to slot
// 0, and an insert then walks the whole run of earlier keys.
TEST(FlatCountsTest, AnonymizedKeysSpreadOverHomeSlots) {
    detail::flat_u32_counts t;
    t.reserve(96);
    ASSERT_EQ(t.capacity(), 128u);
    // 48 consecutive /21 blocks, then 48 scattered ones.
    std::vector<std::uint32_t> keys;
    for (std::uint32_t i = 0; i < 48; ++i)
        keys.push_back((10u << 24) + (i << 11));
    std::uint64_t x = 12345;
    while (keys.size() < 96) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        const auto k = static_cast<std::uint32_t>(x >> 32) & ~0x7FFu;
        if (std::find(keys.begin(), keys.end(), k) == keys.end())
            keys.push_back(k);
    }
    std::set<std::size_t> homes;
    for (const std::uint32_t k : keys) {
        t[k] = 1;
        homes.insert(t.home_slot(k));
    }
    ASSERT_EQ(t.capacity(), 128u);  // 96 keys fit without growing
    EXPECT_EQ(t.size(), 96u);
    double probes = 0.0;
    for (const std::uint32_t k : keys) {
        EXPECT_EQ(t.count_of(k), 1u);
        probes += static_cast<double>(t.probe_length(k));
    }
    EXPECT_GE(homes.size(), 48u);
    EXPECT_LT(probes / static_cast<double>(keys.size()), 3.0);
}

// Entropy grows with sample size for a fixed heavy-tailed source — the
// volume/entropy coupling the paper notes in Section 3.
TEST(EntropyTest, SampleEntropyGrowsWithSampleSizeOnZipfSource) {
    // Deterministic Zipf-ish draw: value = floor(1/u) capped.
    std::uint64_t state = 12345;
    auto next_value = [&]() {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const double u =
            (static_cast<double>(state >> 11) + 1.0) / 9007199254740993.0;
        const double v = 1.0 / u;
        return static_cast<std::uint32_t>(std::min(v, 1e6));
    };
    double prev = -1.0;
    for (std::size_t n : {100u, 1000u, 10000u}) {
        feature_histogram h;
        state = 12345;
        for (std::size_t i = 0; i < n; ++i) h.add(next_value(), 1);
        const double e = h.entropy_bits();
        EXPECT_GT(e, prev) << "n=" << n;
        prev = e;
    }
}

TEST(HistogramSetTest, AccumulatesRecordsWeightedByPackets) {
    feature_histogram_set set;
    tfd::flow::flow_record r;
    r.key.src = tfd::net::parse_ipv4("1.0.0.1");
    r.key.dst = tfd::net::parse_ipv4("2.0.0.1");
    r.key.src_port = 1000;
    r.key.dst_port = 80;
    r.packets = 5;
    r.bytes = 500;
    set.add_record(r);
    r.key.src_port = 1001;
    r.packets = 3;
    r.bytes = 120;
    set.add_record(r);

    EXPECT_EQ(set.total_packets(), 8u);
    EXPECT_EQ(set.total_bytes(), 620u);
    EXPECT_EQ(set.total_records(), 2u);
    EXPECT_EQ(set[tfd::flow::feature::dst_port].distinct(), 1u);
    EXPECT_EQ(set[tfd::flow::feature::src_port].distinct(), 2u);
    // srcPort histogram: {5, 3} -> H = -(5/8 log 5/8 + 3/8 log 3/8).
    const double expect =
        -(5.0 / 8 * std::log2(5.0 / 8) + 3.0 / 8 * std::log2(3.0 / 8));
    EXPECT_NEAR(set.entropies()[1], expect, 1e-12);
    // dstIP concentrated: zero entropy.
    EXPECT_EQ(set.entropies()[2], 0.0);

    set.clear();
    EXPECT_EQ(set.total_packets(), 0u);
    EXPECT_EQ(set.total_records(), 0u);
}

// Information-theoretic invariants of sample entropy.

TEST(EntropyInvariantTest, ConcavityUnderMixing) {
    // H(lambda*p + (1-lambda)*q) >= lambda*H(p) + (1-lambda)*H(q) for
    // distributions over the same support.
    feature_histogram p, q, mix;
    const std::uint64_t pc[4] = {40, 30, 20, 10};
    const std::uint64_t qc[4] = {5, 10, 25, 60};
    for (int i = 0; i < 4; ++i) {
        p.add(i, pc[i]);
        q.add(i, qc[i]);
        mix.add(i, pc[i] + qc[i]);  // equal-mass mixture (lambda = 1/2)
    }
    const double lhs = mix.entropy_bits();
    const double rhs = 0.5 * p.entropy_bits() + 0.5 * q.entropy_bits();
    EXPECT_GE(lhs, rhs - 1e-12);
}

TEST(EntropyInvariantTest, GroupingRuleOnDisjointSupports) {
    // For disjoint supports: H(mix) = lambda*H(p) + (1-lambda)*H(q)
    //                                + H_binary(lambda), exactly.
    feature_histogram p, q, mix;
    p.add(1, 30);
    p.add(2, 10);
    q.add(100, 5);
    q.add(200, 5);
    q.add(300, 10);
    for (auto [v, c] : std::initializer_list<std::pair<int, std::uint64_t>>{
             {1, 30}, {2, 10}, {100, 5}, {200, 5}, {300, 10}})
        mix.add(v, c);
    const double lambda = 40.0 / 60.0;
    const double hl = -(lambda * std::log2(lambda) +
                        (1 - lambda) * std::log2(1 - lambda));
    EXPECT_NEAR(mix.entropy_bits(),
                lambda * p.entropy_bits() + (1 - lambda) * q.entropy_bits() +
                    hl,
                1e-12);
}

TEST(EntropyInvariantTest, PermutationInvariance) {
    // Entropy depends only on the multiset of counts, not the values.
    feature_histogram a, b;
    const std::uint64_t counts[5] = {7, 1, 19, 3, 3};
    for (int i = 0; i < 5; ++i) a.add(1000 + i, counts[i]);
    for (int i = 0; i < 5; ++i) b.add(99 * i + 5, counts[4 - i]);
    EXPECT_NEAR(a.entropy_bits(), b.entropy_bits(), 1e-12);
}
