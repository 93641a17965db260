#include "net/topology.h"

#include <cstdio>
#include <stdexcept>

namespace tfd::net {

topology::topology(std::string name, std::vector<std::string> pop_names,
                   std::vector<link> links, int base_octet)
    : name_(std::move(name)), links_(std::move(links)) {
    if (pop_names.empty())
        throw std::invalid_argument("topology: need at least one PoP");
    if (base_octet < 1 || base_octet + static_cast<int>(pop_names.size()) > 255)
        throw std::invalid_argument("topology: base_octet out of range");

    pops_.reserve(pop_names.size());
    for (std::size_t i = 0; i < pop_names.size(); ++i) {
        pop p;
        p.id = static_cast<int>(i);
        p.name = std::move(pop_names[i]);
        const auto octet = static_cast<std::uint8_t>(base_octet + i);
        p.address_space = prefix{ipv4::from_octets(octet, 0, 0, 0), 8};
        pops_.push_back(std::move(p));
    }

    for (const link& l : links_)
        if (l.a < 0 || l.b < 0 || l.a >= pop_count() || l.b >= pop_count())
            throw std::invalid_argument("topology: link endpoint out of range");

    // Egress table: the aggregate /8 per PoP plus a few more-specific /16
    // "customer" prefixes pointing at the same PoP, so lookups exercise
    // genuine longest-prefix-match behaviour.
    for (const pop& p : pops_) {
        egress_.insert(p.address_space, p.id);
        for (std::uint8_t sub : {1, 7, 42}) {
            const prefix customer{
                ipv4{p.address_space.network.value |
                     (std::uint32_t(sub) << 16)},
                16};
            egress_.insert(customer, p.id);
        }
    }
}

const pop& topology::pop_at(int id) const {
    if (id < 0 || id >= pop_count())
        throw std::out_of_range("topology: PoP id out of range");
    return pops_[id];
}

std::optional<int> topology::pop_by_name(const std::string& name) const noexcept {
    for (const pop& p : pops_)
        if (p.name == name) return p.id;
    return std::nullopt;
}

int topology::od_index(int origin, int destination) const {
    if (origin < 0 || origin >= pop_count() || destination < 0 ||
        destination >= pop_count())
        throw std::out_of_range("topology: OD endpoint out of range");
    return origin * pop_count() + destination;
}

std::pair<int, int> topology::od_pair(int od) const {
    if (od < 0 || od >= od_count())
        throw std::out_of_range("topology: OD index out of range");
    return {od / pop_count(), od % pop_count()};
}

std::optional<int> topology::egress_pop(ipv4 dst) const noexcept {
    return egress_.lookup(dst);
}

ipv4 topology::address_in_pop(int id, std::uint32_t host_bits) const {
    const pop& p = pop_at(id);
    const std::uint32_t host_mask = ~p.address_space.mask();
    return ipv4{p.address_space.network.value | (host_bits & host_mask)};
}

topology topology::abilene() {
    // Abilene (Internet2), circa 2003: 11 PoPs, 14 OC-192 links.
    std::vector<std::string> names{"STTL", "SNVA", "LOSA", "DNVR",
                                   "KSCY", "HSTN", "IPLS", "ATLA",
                                   "CHIN", "NYCM", "WASH"};
    auto id = [&](const char* n) {
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i] == n) return static_cast<int>(i);
        throw std::logic_error("abilene: unknown PoP");
    };
    std::vector<link> links{
        {id("STTL"), id("SNVA")}, {id("STTL"), id("DNVR")},
        {id("SNVA"), id("LOSA")}, {id("SNVA"), id("DNVR")},
        {id("LOSA"), id("HSTN")}, {id("DNVR"), id("KSCY")},
        {id("KSCY"), id("HSTN")}, {id("KSCY"), id("IPLS")},
        {id("HSTN"), id("ATLA")}, {id("IPLS"), id("CHIN")},
        {id("IPLS"), id("ATLA")}, {id("CHIN"), id("NYCM")},
        {id("ATLA"), id("WASH")}, {id("NYCM"), id("WASH")},
    };
    return topology("Abilene", std::move(names), std::move(links),
                    /*base_octet=*/10);
}

topology topology::geant() {
    // Geant, circa 2004: 22 PoPs in European capitals. Link set is a
    // representative reconstruction (hubs in DE/UK/FR/NL/IT) — the
    // diagnosis methods depend only on PoP count and OD structure.
    std::vector<std::string> names{"AT", "BE", "CH", "CZ", "DE", "DK",
                                   "ES", "FR", "GR", "HR", "HU", "IE",
                                   "IT", "LU", "NL", "PL", "PT", "SE",
                                   "SI", "SK", "UK", "NO"};
    auto id = [&](const char* n) {
        for (std::size_t i = 0; i < names.size(); ++i)
            if (names[i] == n) return static_cast<int>(i);
        throw std::logic_error("geant: unknown PoP");
    };
    std::vector<link> links{
        {id("UK"), id("FR")}, {id("UK"), id("NL")}, {id("UK"), id("IE")},
        {id("FR"), id("ES")}, {id("FR"), id("CH")}, {id("FR"), id("BE")},
        {id("FR"), id("LU")}, {id("ES"), id("PT")}, {id("CH"), id("IT")},
        {id("CH"), id("AT")}, {id("IT"), id("GR")}, {id("IT"), id("SI")},
        {id("SI"), id("HR")}, {id("AT"), id("HU")}, {id("AT"), id("CZ")},
        {id("AT"), id("SK")}, {id("HU"), id("HR")}, {id("CZ"), id("PL")},
        {id("CZ"), id("DE")}, {id("DE"), id("NL")}, {id("DE"), id("DK")},
        {id("DE"), id("PL")}, {id("DE"), id("AT")}, {id("DE"), id("FR")},
        {id("NL"), id("BE")}, {id("DK"), id("SE")}, {id("SE"), id("NO")},
        {id("DE"), id("SE")}, {id("UK"), id("NO")},
    };
    return topology("Geant", std::move(names), std::move(links),
                    /*base_octet=*/60);
}

topology topology::synthetic(int pops, std::uint64_t seed, int base_octet) {
    if (pops < 2 || pops > 180)
        throw std::invalid_argument("synthetic: pops must be in [2, 180]");

    // splitmix64 — small, deterministic, and keeps net free of a
    // dependency on the traffic-layer rng (traffic already depends on
    // net for the topology type).
    std::uint64_t state = seed ^ 0x9e3779b97f4a7c15ULL;
    auto next = [&state]() {
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    };
    auto uniform = [&next](std::uint64_t bound) {
        return static_cast<int>(next() % bound);
    };

    std::vector<std::string> names(static_cast<std::size_t>(pops));
    for (int i = 0; i < pops; ++i) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "P%03d", i);
        names[static_cast<std::size_t>(i)] = buf;
    }

    // Spanning tree with preferential attachment: each new PoP homes to
    // an endpoint drawn from all existing link endpoints (so high-degree
    // PoPs attract more links — the hub structure real backbones show),
    // guaranteeing connectivity. Then ~pops/2 shortcut links bring the
    // mean degree to ~3, Abilene/Geant territory.
    std::vector<link> links;
    std::vector<int> endpoints{0};
    for (int i = 1; i < pops; ++i) {
        const int parent = endpoints[static_cast<std::size_t>(
            uniform(endpoints.size()))];
        links.push_back({parent, i});
        endpoints.push_back(parent);
        endpoints.push_back(i);
    }
    auto linked = [&links](int a, int b) {
        for (const link& l : links)
            if ((l.a == a && l.b == b) || (l.a == b && l.b == a)) return true;
        return false;
    };
    for (int extra = pops / 2; extra > 0;) {
        const int a = uniform(static_cast<std::uint64_t>(pops));
        const int b = uniform(static_cast<std::uint64_t>(pops));
        if (a == b || linked(a, b)) {
            --extra;  // bounded walk: skip without retrying forever
            continue;
        }
        links.push_back({a, b});
        endpoints.push_back(a);
        endpoints.push_back(b);
        --extra;
    }

    return topology("Synthetic-" + std::to_string(pops), std::move(names),
                    std::move(links), base_octet);
}

}  // namespace tfd::net
