// Unit tests for the longest-prefix-match table.
#include "net/prefix_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/ip.h"
#include "reference_lpm.h"

using namespace tfd::net;

TEST(PrefixTableTest, EmptyTableFindsNothing) {
    prefix_table t;
    EXPECT_TRUE(t.empty());
    EXPECT_FALSE(t.lookup(parse_ipv4("1.2.3.4")).has_value());
}

TEST(PrefixTableTest, ExactMatchSingleRoute) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 7);
    EXPECT_EQ(t.size(), 1u);
    auto r = t.lookup(parse_ipv4("10.200.1.1"));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 7);
    EXPECT_FALSE(t.lookup(parse_ipv4("11.0.0.1")).has_value());
}

TEST(PrefixTableTest, LongestPrefixWins) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    t.insert(parse_prefix("10.1.0.0/16"), 2);
    t.insert(parse_prefix("10.1.2.0/24"), 3);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.2.3")), 3);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.9.9")), 2);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.200.0.1")), 1);
}

TEST(PrefixTableTest, DefaultRouteCatchesAll) {
    prefix_table t;
    t.insert(parse_prefix("0.0.0.0/0"), 99);
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    EXPECT_EQ(*t.lookup(parse_ipv4("200.200.200.200")), 99);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.0.0.1")), 1);
}

TEST(PrefixTableTest, InsertReplacesExisting) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    t.insert(parse_prefix("10.0.0.0/8"), 2);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.0.0.1")), 2);
}

TEST(PrefixTableTest, EraseRemovesRoute) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    t.insert(parse_prefix("10.1.0.0/16"), 2);
    EXPECT_TRUE(t.erase(parse_prefix("10.1.0.0/16")));
    EXPECT_FALSE(t.erase(parse_prefix("10.1.0.0/16")));
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.2.3")), 1);
    EXPECT_EQ(t.size(), 1u);
}

TEST(PrefixTableTest, ExactLookupIgnoresLpm) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    EXPECT_FALSE(t.exact(parse_prefix("10.1.0.0/16")).has_value());
    ASSERT_TRUE(t.exact(parse_prefix("10.0.0.0/8")).has_value());
    EXPECT_EQ(*t.exact(parse_prefix("10.0.0.0/8")), 1);
}

TEST(PrefixTableTest, HostRoutes) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    t.insert(parse_prefix("10.0.0.5/32"), 42);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.0.0.5")), 42);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.0.0.6")), 1);
}

TEST(PrefixTableTest, EntriesEnumerateAllRoutes) {
    prefix_table t;
    t.insert(parse_prefix("10.0.0.0/8"), 1);
    t.insert(parse_prefix("20.0.0.0/8"), 2);
    t.insert(parse_prefix("10.1.0.0/16"), 3);
    auto es = t.entries();
    EXPECT_EQ(es.size(), 3u);
}

// Sweep: a chain of nested prefixes always resolves to the deepest one.
class NestedPrefixSweep : public ::testing::TestWithParam<int> {};

TEST_P(NestedPrefixSweep, DeepestWins) {
    const int depth = GetParam();
    prefix_table t;
    for (int len = 8; len <= depth; ++len)
        t.insert(prefix{parse_ipv4("10.128.128.128"), len}, len);
    auto r = t.lookup(parse_ipv4("10.128.128.128"));
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, depth);
}

INSTANTIATE_TEST_SUITE_P(Depths, NestedPrefixSweep,
                         ::testing::Values(8, 12, 16, 21, 24, 28, 32));

TEST(PrefixTableTest, EraseFallsBackToTheNextShorterRoute) {
    prefix_table t;
    t.insert(parse_prefix("0.0.0.0/0"), 0);
    t.insert(parse_prefix("10.0.0.0/8"), 8);
    t.insert(parse_prefix("10.0.0.0/12"), 12);
    t.insert(parse_prefix("10.1.0.0/16"), 16);
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.2.3")), 16);
    EXPECT_TRUE(t.erase(parse_prefix("10.1.0.0/16")));
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.2.3")), 12);
    EXPECT_TRUE(t.erase(parse_prefix("10.0.0.0/12")));
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.2.3")), 8);
    EXPECT_TRUE(t.erase(parse_prefix("10.0.0.0/8")));
    EXPECT_EQ(*t.lookup(parse_ipv4("10.1.2.3")), 0);
    EXPECT_TRUE(t.erase(parse_prefix("0.0.0.0/0")));
    EXPECT_FALSE(t.lookup(parse_ipv4("10.1.2.3")).has_value());
    EXPECT_TRUE(t.empty());
}

TEST(PrefixTableTest, NetworkWithHostBitsNeverMatches) {
    // Only field assignment builds such a prefix (the constructor masks
    // host bits); no address equals it under its own mask.
    prefix p;
    p.network = parse_ipv4("10.1.2.3");
    p.length = 8;
    prefix_table t;
    t.insert(p, 1);
    EXPECT_EQ(t.size(), 1u);
    EXPECT_EQ(*t.exact(p), 1);
    EXPECT_FALSE(t.lookup(parse_ipv4("10.1.2.3")).has_value());
    EXPECT_FALSE(t.lookup(parse_ipv4("10.0.0.0")).has_value());
    EXPECT_TRUE(t.erase(p));
    EXPECT_TRUE(t.empty());
}

// Randomized parity with the per-length walk: route sets nested around a
// few anchors, with a /0 and routes longer than /16, built and torn down
// by interleaved insert() and erase() calls.
TEST(PrefixTableTest, RandomRouteSetsMatchTheReferenceWalk) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        std::uint64_t state = seed;
        const auto next = [&state] {  // splitmix64
            std::uint64_t x = (state += 0x9E3779B97F4A7C15ull);
            x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
            x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
            return x ^ (x >> 31);
        };
        const auto below = [&next](std::uint64_t n) { return next() % n; };
        std::vector<std::uint32_t> anchors;
        for (int a = 0; a < 6; ++a)
            anchors.push_back(static_cast<std::uint32_t>(next()));
        const auto near_anchor = [&] {
            // An anchor with its low bits replaced, down to a random depth.
            const std::uint32_t a = anchors[below(anchors.size())];
            const int keep = static_cast<int>(below(33));
            const std::uint32_t mask =
                keep == 0 ? 0u : (~std::uint32_t{0} << (32 - keep));
            return ipv4{(a & mask) |
                        (static_cast<std::uint32_t>(next()) & ~mask)};
        };

        prefix_table t;
        reference::lpm ref;
        std::vector<prefix> live;
        for (int op = 0; op < 300; ++op) {
            if (live.empty() || below(10) < 7) {
                int len;
                const auto roll = below(10);
                if (roll == 0) len = 0;
                else if (roll < 6) len = 1 + static_cast<int>(below(16));
                else len = 17 + static_cast<int>(below(16));
                const prefix p{near_anchor(), len};
                const int target = static_cast<int>(below(1000)) - 500;
                t.insert(p, target);
                ref.insert(p, target);
                if (std::find(live.begin(), live.end(), p) == live.end())
                    live.push_back(p);
            } else if (below(5) == 0) {
                // A route that was never inserted (or is already gone).
                const prefix p{near_anchor(), static_cast<int>(below(33))};
                EXPECT_EQ(t.erase(p), ref.erase(p));
                live.erase(std::remove(live.begin(), live.end(), p),
                           live.end());
            } else {
                const std::size_t k = below(live.size());
                EXPECT_TRUE(t.erase(live[k]));
                ref.erase(live[k]);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
            }
            ASSERT_EQ(t.size(), ref.size());
            ASSERT_EQ(t.size(), live.size());
            std::vector<ipv4> probes;
            for (int q = 0; q < 24; ++q) probes.push_back(near_anchor());
            for (int q = 0; q < 8; ++q)
                probes.push_back(ipv4{static_cast<std::uint32_t>(next())});
            if (!live.empty()) {  // both ends of a live route
                const prefix& p = live[below(live.size())];
                probes.push_back(p.network);
                probes.push_back(ipv4{p.network.value | ~p.mask()});
            }
            for (const ipv4 a : probes)
                ASSERT_EQ(t.lookup(a), ref.lookup(a)) << to_string(a);
        }
    }
}
