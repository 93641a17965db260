#include "net/prefix_table.h"

namespace tfd::net {

namespace {

constexpr int kArrayBits = 16;

std::uint32_t mask_of(int len) noexcept {
    return len == 0 ? 0u : (~std::uint32_t{0} << (32 - len));
}

/// The array slots a route of length <= 16 covers: [first, first + n).
/// A network with host bits set (only field assignment makes one) never
/// matches an address, so it covers none.
std::pair<std::uint32_t, std::uint32_t> covered_slots(
    const prefix& p) noexcept {
    if ((p.network.value & mask_of(p.length)) != p.network.value)
        return {0, 0};
    return {p.network.value >> kArrayBits,
            std::uint32_t{1} << (kArrayBits - p.length)};
}

}  // namespace

prefix_table::prefix_table() : by16_(std::size_t{1} << kArrayBits) {}

void prefix_table::insert(const prefix& p, int target) {
    auto& m = maps_[p.length];
    auto [it, inserted] = m.insert_or_assign(p.network.value, target);
    (void)it;
    if (inserted) {
        ++count_;
        if (p.length > kArrayBits) ++long_routes_;
    }
    if (p.length > kArrayBits) return;
    // Within one /16 the routes covering it nest, so the new route is
    // the longest there unless a longer one already covers the slot.
    const auto [first, n] = covered_slots(p);
    for (std::uint32_t s = first; s < first + n; ++s)
        if (by16_[s].length <= p.length) by16_[s] = {target, p.length};
}

std::optional<int> prefix_table::lookup(ipv4 addr) const noexcept {
    if (long_routes_ > 0)
        for (int len = 32; len > kArrayBits; --len) {
            const auto& m = maps_[len];
            if (m.empty()) continue;
            const auto it = m.find(addr.value & mask_of(len));
            if (it != m.end()) return it->second;
        }
    const short_route& r = by16_[addr.value >> kArrayBits];
    if (r.length < 0) return std::nullopt;
    return r.target;
}

std::optional<int> prefix_table::exact(const prefix& p) const noexcept {
    const auto& m = maps_[p.length];
    const auto it = m.find(p.network.value);
    if (it == m.end()) return std::nullopt;
    return it->second;
}

bool prefix_table::erase(const prefix& p) noexcept {
    auto& m = maps_[p.length];
    if (m.erase(p.network.value) == 0) return false;
    --count_;
    if (p.length > kArrayBits) {
        --long_routes_;
        return true;
    }
    // Slots this route served fall back to the next shorter route that
    // covers them, if any.
    const auto [first, n] = covered_slots(p);
    for (std::uint32_t s = first; s < first + n; ++s) {
        if (by16_[s].length != p.length) continue;
        short_route next;
        for (int len = p.length - 1; len >= 0; --len) {
            const auto it = maps_[len].find((s << kArrayBits) & mask_of(len));
            if (it != maps_[len].end()) {
                next = {it->second, len};
                break;
            }
        }
        by16_[s] = next;
    }
    return true;
}

std::vector<std::pair<prefix, int>> prefix_table::entries() const {
    std::vector<std::pair<prefix, int>> out;
    out.reserve(count_);
    for (int len = 0; len <= 32; ++len)
        for (const auto& [net, target] : maps_[len])
            out.emplace_back(prefix{ipv4{net}, len}, target);
    return out;
}

}  // namespace tfd::net
