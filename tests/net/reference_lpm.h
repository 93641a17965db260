// Reference longest-prefix match: one ordered map per prefix length,
// walked from /32 down to /0 for every lookup. It is the executable
// statement of the LPM semantics prefix_table's fast lookup must keep.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "net/ip.h"

namespace tfd::net::reference {

class lpm {
public:
    lpm() = default;

    /// The routes of `entries` (e.g. prefix_table::entries()).
    explicit lpm(const std::vector<std::pair<prefix, int>>& entries) {
        for (const auto& [p, target] : entries) insert(p, target);
    }

    void insert(const prefix& p, int target) {
        maps_[p.length][p.network.value] = target;
    }

    bool erase(const prefix& p) {
        return maps_[p.length].erase(p.network.value) > 0;
    }

    std::optional<int> lookup(ipv4 addr) const {
        for (int len = 32; len >= 0; --len) {
            const std::uint32_t mask =
                len == 0 ? 0u : (~std::uint32_t{0} << (32 - len));
            const auto it = maps_[len].find(addr.value & mask);
            if (it != maps_[len].end()) return it->second;
        }
        return std::nullopt;
    }

    std::size_t size() const {
        std::size_t n = 0;
        for (const auto& m : maps_) n += m.size();
        return n;
    }

private:
    std::map<std::uint32_t, int> maps_[33];
};

}  // namespace tfd::net::reference
