#include "core/histogram.h"

#include <algorithm>
#include <cmath>

namespace tfd::core {

namespace {

// n * log2(n) with a lookup table for small integral counts (the common
// case: packet counts), avoiding two libm calls per histogram update.
constexpr std::size_t kNlognTableSize = 4096;

double nlogn_slow(double n) noexcept {
    return n > 0.0 ? n * std::log2(n) : 0.0;
}

// Namespace-scope (initialized before main) so lookups skip the
// thread-safe magic-static guard that a function-local static would pay
// on every call.
const std::vector<double> kNlognTable = [] {
    std::vector<double> t(kNlognTableSize, 0.0);
    for (std::size_t i = 2; i < kNlognTableSize; ++i)
        t[i] = nlogn_slow(static_cast<double>(i));
    return t;
}();

double nlogn(double n) noexcept {
    if (n >= 0.0 && n < static_cast<double>(kNlognTableSize)) {
        const auto i = static_cast<std::size_t>(n);
        if (static_cast<double>(i) == n) return kNlognTable[i];
    }
    return nlogn_slow(n);
}

}  // namespace

void feature_histogram::add(std::uint32_t value, double count) {
    if (count <= 0.0) return;
    double& slot = counts_[value];
    const double before = slot;
    slot += count;
    total_ += count;
    sum_nlogn_ += nlogn(slot) - nlogn(before);
    if (++mutations_ >= kExactRecomputeInterval) recompute_sum_nlogn();
}

void feature_histogram::recompute_sum_nlogn() noexcept {
    // Sum in sorted order: a canonical order independent of hash-table
    // iteration, so the periodic resync is exactly reproducible.
    std::vector<double> ns;
    ns.reserve(counts_.size());
    counts_.for_each([&](std::uint32_t, double n) { ns.push_back(n); });
    std::sort(ns.begin(), ns.end());
    double s = 0.0;
    for (double n : ns) s += nlogn(n);
    sum_nlogn_ = s;
    mutations_ = 0;
}

double feature_histogram::entropy_bits() const noexcept {
    if (total_ <= 0.0 || counts_.size() < 2) return 0.0;
    // H = -sum p log2 p = log2 S - (sum n log2 n) / S.
    return std::max(0.0, std::log2(total_) - sum_nlogn_ / total_);
}

double feature_histogram::normalized_entropy() const noexcept {
    if (counts_.size() < 2) return 0.0;
    return entropy_bits() / std::log2(static_cast<double>(counts_.size()));
}

std::vector<std::pair<std::uint32_t, double>> feature_histogram::top(
    std::size_t k) const {
    if (k == 0 || counts_.empty()) return {};
    std::vector<std::pair<std::uint32_t, double>> all;
    all.reserve(counts_.size());
    counts_.for_each(
        [&](std::uint32_t v, double n) { all.emplace_back(v, n); });
    const auto by_count_desc = [](const auto& a, const auto& b) {
        return a.second > b.second ||
               (a.second == b.second && a.first < b.first);
    };
    if (k < all.size()) {
        std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(k),
                          all.end(), by_count_desc);
        all.resize(k);
    } else {
        std::sort(all.begin(), all.end(), by_count_desc);
    }
    return all;
}

std::vector<double> feature_histogram::rank_counts() const {
    std::vector<double> out;
    out.reserve(counts_.size());
    counts_.for_each([&](std::uint32_t, double n) { out.push_back(n); });
    std::sort(out.begin(), out.end(), std::greater<>());
    return out;
}

double feature_histogram::count_of(std::uint32_t value) const noexcept {
    return counts_.count_of(value);
}

void feature_histogram::clear() noexcept {
    counts_.clear();
    total_ = 0.0;
    sum_nlogn_ = 0.0;
    mutations_ = 0;
}

void feature_histogram::save(io::wire_writer& w) const {
    // Canonical order: ascending key, delta-encoded (sorted u32 gaps
    // pack small). Equal histograms always serialize to equal bytes,
    // independent of hash-table layout or insertion history.
    std::vector<std::pair<std::uint32_t, double>> entries;
    entries.reserve(counts_.size());
    counts_.for_each(
        [&](std::uint32_t v, double n) { entries.emplace_back(v, n); });
    std::sort(entries.begin(), entries.end());
    w.varint(entries.size());
    std::uint32_t prev = 0;
    for (const auto& [key, count] : entries) {
        w.varint(key - prev);
        w.f64(count);
        prev = key;
    }
    w.f64(total_);
    w.f64(sum_nlogn_);
    w.varint(mutations_);
}

void feature_histogram::load(io::wire_reader& r) {
    clear();
    const std::uint64_t n = r.varint();
    if (n > r.remaining() / 9)  // >= 1 key byte + 8 count bytes each
        r.fail("feature_histogram: implausible entry count");
    counts_.reserve(static_cast<std::size_t>(n));
    std::uint32_t key = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        key += static_cast<std::uint32_t>(r.varint());
        const double count = r.f64();
        // A nonpositive count would poison the open-addressing table
        // (count == 0.0 marks an empty slot).
        if (!(count > 0.0)) r.fail("feature_histogram: nonpositive count");
        counts_[key] = count;
    }
    total_ = r.f64();
    sum_nlogn_ = r.f64();
    mutations_ = static_cast<std::size_t>(r.varint());
}

void feature_histogram_set::add_record(const flow::flow_record& r) {
    const auto w = static_cast<double>(r.packets);
    for (int f = 0; f < flow::feature_count; ++f)
        hists_[f].add(r.feature_value(static_cast<flow::feature>(f)), w);
    packets_ += r.packets;
    bytes_ += r.bytes;
    ++records_;
}

void feature_histogram_set::add_records(std::span<const flow::flow_record> rs) {
    // Distinct values are bounded by the record count; pre-sizing the
    // tables avoids rehash-and-move churn during the batch. Cap the
    // reservation so one huge batch can't balloon four bucket arrays.
    const std::size_t hint = std::min<std::size_t>(rs.size(), 1u << 16);
    if (hint > 16)
        for (auto& h : hists_) h.reserve(hint);
    for (const auto& r : rs) add_record(r);
}

std::array<double, flow::feature_count> feature_histogram_set::entropies()
    const noexcept {
    std::array<double, flow::feature_count> out{};
    for (int f = 0; f < flow::feature_count; ++f)
        out[f] = hists_[f].entropy_bits();
    return out;
}

void feature_histogram_set::clear() noexcept {
    for (auto& h : hists_) h.clear();
    packets_ = 0;
    bytes_ = 0;
    records_ = 0;
}

void feature_histogram_set::save(io::wire_writer& w) const {
    for (const auto& h : hists_) h.save(w);
    w.varint(packets_);
    w.varint(bytes_);
    w.varint(records_);
}

void feature_histogram_set::load(io::wire_reader& r) {
    for (auto& h : hists_) h.load(r);
    packets_ = r.varint();
    bytes_ = r.varint();
    records_ = static_cast<std::size_t>(r.varint());
}

}  // namespace tfd::core
