// Unit tests for the backbone topology model: geometry, PoP and OD
// indexing, egress resolution, and the synthetic backbones.
#include "net/topology.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <vector>

#include "reference_lpm.h"

using namespace tfd::net;

TEST(TopologyTest, AbileneHasPaperGeometry) {
    const auto t = topology::abilene();
    EXPECT_EQ(t.name(), "Abilene");
    EXPECT_EQ(t.pop_count(), 11);
    EXPECT_EQ(t.od_count(), 121);  // paper: 121 OD flows
    EXPECT_EQ(t.links().size(), 14u);
}

TEST(TopologyTest, GeantHasPaperGeometry) {
    const auto t = topology::geant();
    EXPECT_EQ(t.pop_count(), 22);
    EXPECT_EQ(t.od_count(), 484);  // paper: 484 OD flows
}

TEST(TopologyTest, PopLookupByName) {
    const auto t = topology::abilene();
    auto id = t.pop_by_name("NYCM");
    ASSERT_TRUE(id.has_value());
    EXPECT_EQ(t.pop_at(*id).name, "NYCM");
    EXPECT_FALSE(t.pop_by_name("NOPE").has_value());
    EXPECT_THROW(t.pop_at(-1), std::out_of_range);
    EXPECT_THROW(t.pop_at(11), std::out_of_range);
}

TEST(TopologyTest, OdIndexRoundTrip) {
    const auto t = topology::abilene();
    for (int o = 0; o < t.pop_count(); ++o)
        for (int d = 0; d < t.pop_count(); ++d) {
            const int od = t.od_index(o, d);
            const auto [oo, dd] = t.od_pair(od);
            EXPECT_EQ(oo, o);
            EXPECT_EQ(dd, d);
        }
    EXPECT_THROW(t.od_index(0, 11), std::out_of_range);
    EXPECT_THROW(t.od_pair(121), std::out_of_range);
}

TEST(TopologyTest, AddressSpacesAreDisjointAcrossPops) {
    const auto t = topology::geant();
    std::set<std::uint32_t> nets;
    for (const auto& p : t.pops()) {
        EXPECT_EQ(p.address_space.length, 8);
        EXPECT_TRUE(nets.insert(p.address_space.network.value).second);
    }
}

TEST(TopologyTest, EgressResolutionMapsAddressesToOwningPop) {
    const auto t = topology::abilene();
    for (const auto& p : t.pops()) {
        const ipv4 a = t.address_in_pop(p.id, 0xDEADBEEF);
        EXPECT_TRUE(p.address_space.contains(a));
        auto egress = t.egress_pop(a);
        ASSERT_TRUE(egress.has_value());
        EXPECT_EQ(*egress, p.id);
    }
}

TEST(TopologyTest, ExternalAddressHasNoEgress) {
    const auto t = topology::abilene();
    // Abilene uses base octet 10..20; 200.x is outside.
    EXPECT_FALSE(t.egress_pop(parse_ipv4("200.1.2.3")).has_value());
}

TEST(TopologyTest, EgressTableContainsCustomerPrefixes) {
    const auto t = topology::abilene();
    // 11 PoPs x (1 aggregate + 3 customer prefixes).
    EXPECT_EQ(t.egress_table().size(), 11u * 4u);
}

// Egress resolution agrees with the per-length walk over the egress
// table's own routes: at every /16 (its first address and one inside)
// and at sampled addresses, on Abilene, Geant and a 64-PoP backbone.
TEST(TopologyTest, EgressMatchesTheReferenceWalkOnEverySlash16) {
    for (const topology& t :
         {topology::abilene(), topology::geant(), topology::synthetic(64)}) {
        SCOPED_TRACE(t.name());
        const reference::lpm ref(t.egress_table().entries());
        std::uint64_t x = 7;
        const auto next = [&x] {  // 64-bit LCG, high half
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<std::uint32_t>(x >> 32);
        };
        std::size_t resolved = 0;
        for (std::uint32_t s = 0; s < (1u << 16); ++s) {
            const ipv4 first{s << 16};
            const ipv4 inside{first.value | (next() >> 16)};
            for (const ipv4 a : {first, inside}) {
                const auto got = t.egress_pop(a);
                ASSERT_EQ(got, ref.lookup(a)) << to_string(a);
                if (got) ++resolved;
            }
        }
        for (int q = 0; q < 100000; ++q) {
            const ipv4 a{next()};
            ASSERT_EQ(t.egress_pop(a), ref.lookup(a)) << to_string(a);
        }
        // Every PoP's /8 resolves: 256 /16s each, two addresses per /16.
        EXPECT_EQ(resolved, static_cast<std::size_t>(t.pop_count()) * 512u);
    }
}

TEST(TopologyTest, ConstructorValidation) {
    EXPECT_THROW(topology("x", {}, {}), std::invalid_argument);
    EXPECT_THROW(topology("x", {"A", "B"}, {{0, 5}}), std::invalid_argument);
}

TEST(TopologyTest, SyntheticIsDeterministicInPopsAndSeed) {
    const auto a = topology::synthetic(64, 7);
    const auto b = topology::synthetic(64, 7);
    EXPECT_EQ(a.name(), "Synthetic-64");
    EXPECT_EQ(a.pop_count(), 64);
    EXPECT_EQ(a.od_count(), 64 * 64);
    ASSERT_EQ(a.links().size(), b.links().size());
    for (std::size_t i = 0; i < a.links().size(); ++i) {
        EXPECT_EQ(a.links()[i].a, b.links()[i].a);
        EXPECT_EQ(a.links()[i].b, b.links()[i].b);
    }
    // A different seed rewires.
    const auto c = topology::synthetic(64, 8);
    bool same = a.links().size() == c.links().size();
    for (std::size_t i = 0; same && i < a.links().size(); ++i)
        same = a.links()[i].a == c.links()[i].a &&
               a.links()[i].b == c.links()[i].b;
    EXPECT_FALSE(same);
}

namespace {

// PoPs reachable from PoP 0 over links(), by sweeping the link list
// until no link joins a reached PoP to an unreached one.
int reachable_from_first(const topology& t) {
    std::vector<bool> seen(static_cast<std::size_t>(t.pop_count()), false);
    seen[0] = true;
    for (bool grew = true; grew;) {
        grew = false;
        for (const auto& l : t.links())
            if (seen[l.a] != seen[l.b]) {
                seen[l.a] = seen[l.b] = true;
                grew = true;
            }
    }
    return static_cast<int>(std::count(seen.begin(), seen.end(), true));
}

}  // namespace

TEST(TopologyTest, SyntheticIsConnectedAcrossTheBand) {
    // synthetic() documents its backbone as connected by construction.
    for (int pops : {2, 16, 50, 100, 150, 180}) {
        const auto t = topology::synthetic(pops, 3);
        EXPECT_GE(t.links().size(),
                  static_cast<std::size_t>(pops) - 1);  // tree at minimum
        EXPECT_EQ(reachable_from_first(t), pops) << pops << " PoPs";
    }
    // The walk itself tells a disconnected backbone apart.
    EXPECT_EQ(reachable_from_first(topology("island", {"A", "B", "C"},
                                            {{0, 1}})),
              2);
}

TEST(TopologyTest, SyntheticValidation) {
    EXPECT_THROW(topology::synthetic(1), std::invalid_argument);
    EXPECT_THROW(topology::synthetic(181), std::invalid_argument);
    // base_octet + pops must stay inside the /8 space (checked by the
    // base constructor).
    EXPECT_THROW(topology::synthetic(100, 1, 200), std::invalid_argument);
}
