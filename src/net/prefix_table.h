// tfd::net — longest-prefix-match table.
//
// Stand-in for the BGP/ISIS-derived egress resolution of Feldmann et al.
// [10] used by the paper to attribute each sampled flow to an egress PoP:
// a static table mapping destination prefixes to PoP ids, queried with
// longest-prefix match.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/ip.h"

namespace tfd::net {

/// Longest-prefix-match table from IPv4 prefixes to integer route targets
/// (PoP ids here, but the value type is an opaque int).
///
/// Implementation: one hash map per prefix length records the routes
/// (exact(), erase(), entries()). Beside them, a 65,536-entry array
/// indexed by an address's top 16 bits holds, for each /16, the target
/// and length of the longest route of length <= 16 that covers it;
/// insert() and erase() keep it current (512 KiB per table). lookup()
/// probes the maps of routes longer than /16 first, from /32 down, only
/// while any exist, then reads the array, so a table of /8 and /16
/// routes (every topology's egress table) answers with one load.
/// Insertion replaces an existing identical prefix.
class prefix_table {
public:
    prefix_table();

    /// Add (or replace) a route. Throws std::invalid_argument via prefix
    /// validation if the prefix is malformed.
    void insert(const prefix& p, int target);

    /// Longest-prefix match; std::nullopt if no prefix covers `addr`.
    std::optional<int> lookup(ipv4 addr) const noexcept;

    /// Exact-prefix lookup (no LPM semantics).
    std::optional<int> exact(const prefix& p) const noexcept;

    /// Remove an exact prefix; returns true if something was removed.
    bool erase(const prefix& p) noexcept;

    /// Number of routes installed.
    std::size_t size() const noexcept { return count_; }
    bool empty() const noexcept { return count_ == 0; }

    /// All routes, for iteration/diagnostics (unspecified order).
    std::vector<std::pair<prefix, int>> entries() const;

private:
    /// The longest route of length <= 16 covering one /16 (none when
    /// length < 0).
    struct short_route {
        int target = 0;
        int length = -1;
    };

    // maps_[len]: network address -> target for prefixes of that length.
    std::unordered_map<std::uint32_t, int> maps_[33];
    std::vector<short_route> by16_;  ///< indexed by an address's top 16 bits
    std::size_t long_routes_ = 0;    ///< routes longer than /16
    std::size_t count_ = 0;
};

}  // namespace tfd::net
