// tfd::net — backbone topology model.
//
// Models a PoP-level backbone: named PoPs, bidirectional links, per-PoP
// address space, and an egress-resolution table (longest-prefix match
// over per-PoP prefixes, standing in for the BGP/ISIS tables of [10]).
// Factories reproduce the two networks studied in the paper: Abilene
// (11 PoPs, 121 OD flows, 1/100 sampling, 11-bit anonymization) and
// Geant (22 PoPs, 484 OD flows, 1/1000 sampling, no anonymization).
// OD flows are keyed by ingress and egress PoP, so nothing routes over
// the links: they describe the backbone (and enter the checkpoint
// fingerprint), and no path is ever computed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ip.h"
#include "net/prefix_table.h"

namespace tfd::net {

/// A point of presence.
struct pop {
    int id = 0;                ///< dense index in [0, pop_count)
    std::string name;          ///< e.g. "STTL" or "DE"
    prefix address_space;      ///< aggregate prefix owned by this PoP
};

/// A bidirectional backbone link between two PoPs.
struct link {
    int a = 0;
    int b = 0;
};

/// PoP-level backbone topology with per-PoP address space and an LPM
/// egress table. Immutable after construction.
class topology {
public:
    /// Build a topology from PoP names and links; PoP i is assigned the
    /// aggregate prefix (base_octet + i).0.0.0/8 plus a handful of more
    /// specific customer prefixes (exercising real LPM behaviour).
    /// Throws std::invalid_argument on empty PoP list or out-of-range link
    /// endpoints.
    topology(std::string name, std::vector<std::string> pop_names,
             std::vector<link> links, int base_octet = 1);

    /// The Abilene Internet2 backbone, ca. 2003: 11 PoPs, 14 links.
    static topology abilene();

    /// The Geant European research backbone, ca. 2004: 22 PoPs.
    static topology geant();

    /// A parameterized synthetic backbone for scale testing — the
    /// 50–150 PoP band between Geant and a tier-1 ISP, where the
    /// unfolded OD x feature width (4 * pops^2) reaches the n >= 1024
    /// scales the blocked eigensolver targets. Structure is ISP-like:
    /// a hub-biased random spanning tree (preferential attachment, so
    /// a few PoPs grow Frankfurt/London-style degrees) plus ~pops/2
    /// shortcut links. Fully deterministic in (pops, seed): the same
    /// arguments always produce the same topology, and the graph is
    /// connected by construction. `pops` must be in [2, 180] (the
    /// band below 50 stays available so tests can pick widths like
    /// 4 * 16^2 = 1024); base_octet + pops must stay <= 255.
    static topology synthetic(int pops, std::uint64_t seed = 1,
                              int base_octet = 70);

    const std::string& name() const noexcept { return name_; }
    int pop_count() const noexcept { return static_cast<int>(pops_.size()); }
    const std::vector<pop>& pops() const noexcept { return pops_; }
    const std::vector<link>& links() const noexcept { return links_; }

    /// PoP by id; throws std::out_of_range.
    const pop& pop_at(int id) const;

    /// PoP id by name; std::nullopt if unknown.
    std::optional<int> pop_by_name(const std::string& name) const noexcept;

    /// Number of OD flows = pop_count^2 (self-pairs included, matching the
    /// paper's 121 for Abilene and 484 for Geant).
    int od_count() const noexcept { return pop_count() * pop_count(); }

    /// Dense OD index for (origin, destination). Throws std::out_of_range.
    int od_index(int origin, int destination) const;

    /// Inverse of od_index.
    std::pair<int, int> od_pair(int od) const;

    /// Egress PoP for a destination address (longest-prefix match over the
    /// per-PoP address space); std::nullopt for addresses outside the
    /// network (e.g. external peers).
    std::optional<int> egress_pop(ipv4 dst) const noexcept;

    /// An address chosen deterministically inside PoP `id`'s space;
    /// `host_bits` selects the host portion. Throws std::out_of_range.
    ipv4 address_in_pop(int id, std::uint32_t host_bits) const;

    /// The LPM egress table (read-only), for tests and tools.
    const prefix_table& egress_table() const noexcept { return egress_; }

private:
    std::string name_;
    std::vector<pop> pops_;
    std::vector<link> links_;
    prefix_table egress_;
};

}  // namespace tfd::net
