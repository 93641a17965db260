#include "core/histogram.h"

#include <algorithm>
#include <cmath>

namespace tfd::core {

namespace {

// n * log2(n) with a lookup table for small counts (the common case:
// packet counts), avoiding a libm call per histogram update.
constexpr std::size_t kNlognTableSize = 4096;

// Namespace-scope (initialized before main) so lookups skip the
// thread-safe magic-static guard that a function-local static would pay
// on every call.
const std::vector<double> kNlognTable = [] {
    std::vector<double> t(kNlognTableSize, 0.0);
    for (std::size_t i = 2; i < kNlognTableSize; ++i) {
        const auto n = static_cast<double>(i);
        t[i] = n * std::log2(n);
    }
    return t;
}();

double nlogn(std::uint64_t n) noexcept {
    if (n < kNlognTableSize) return kNlognTable[n];
    const auto x = static_cast<double>(n);
    return x * std::log2(x);
}

// Counts travel as f64 in the snapshot layout. Only a whole number in
// [min, 2^53] converts back to the count that was saved.
std::uint64_t read_count(io::wire_reader& r, double min, const char* what) {
    const double c = r.f64();
    if (!(c >= min && c <= 0x1p53 && c == std::floor(c))) r.fail(what);
    return static_cast<std::uint64_t>(c);
}

}  // namespace

void feature_histogram::add(std::uint32_t value, std::uint64_t count) {
    if (count == 0) return;
    std::uint64_t& slot = counts_[value];
    const std::uint64_t before = slot;
    slot += count;
    total_ += count;
    sum_nlogn_ += nlogn(slot) - nlogn(before);
    if (++mutations_ >= kExactRecomputeInterval) recompute_sum_nlogn();
}

void feature_histogram::recompute_sum_nlogn() noexcept {
    // Sum in sorted order: a canonical order independent of hash-table
    // iteration, so the periodic resync is exactly reproducible.
    std::vector<std::uint64_t> ns;
    ns.reserve(counts_.size());
    counts_.for_each([&](std::uint32_t, std::uint64_t n) { ns.push_back(n); });
    std::sort(ns.begin(), ns.end());
    double s = 0.0;
    for (const std::uint64_t n : ns) s += nlogn(n);
    sum_nlogn_ = s;
    mutations_ = 0;
}

double feature_histogram::entropy_bits() const noexcept {
    if (total_ == 0 || counts_.size() < 2) return 0.0;
    // H = -sum p log2 p = log2 S - (sum n log2 n) / S.
    const auto total = static_cast<double>(total_);
    return std::max(0.0, std::log2(total) - sum_nlogn_ / total);
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
    counts_.for_each([&](std::uint32_t v, std::uint64_t n) {
        all.emplace_back(v, static_cast<double>(n));
    });
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
    counts_.for_each([&](std::uint32_t, std::uint64_t n) {
        out.push_back(static_cast<double>(n));
    });
    std::sort(out.begin(), out.end(), std::greater<>());
    return out;
}

double feature_histogram::count_of(std::uint32_t value) const noexcept {
    return static_cast<double>(counts_.count_of(value));
}

void feature_histogram::clear() noexcept {
    counts_.clear();
    total_ = 0;
    sum_nlogn_ = 0.0;
    mutations_ = 0;
}

void feature_histogram::save(io::wire_writer& w) const {
    // Canonical order: ascending key, delta-encoded (sorted u32 gaps
    // pack small). Equal histograms always serialize to equal bytes,
    // independent of hash-table layout or insertion history.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> entries;
    entries.reserve(counts_.size());
    counts_.for_each([&](std::uint32_t v, std::uint64_t n) {
        entries.emplace_back(v, n);
    });
    std::sort(entries.begin(), entries.end());
    w.varint(entries.size());
    std::uint32_t prev = 0;
    for (const auto& [key, count] : entries) {
        w.varint(key - prev);
        w.f64(static_cast<double>(count));
        prev = key;
    }
    w.f64(static_cast<double>(total_));
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
        // A zero count would poison the open-addressing table (count
        // == 0 marks an empty slot).
        counts_[key] = read_count(r, 1.0, "feature_histogram: bad count");
    }
    total_ = read_count(r, 0.0, "feature_histogram: bad total");
    sum_nlogn_ = r.f64();
    mutations_ = static_cast<std::size_t>(r.varint());
}

void feature_histogram_set::add_record(const flow::flow_record& r) {
    for (int f = 0; f < flow::feature_count; ++f)
        hists_[f].add(r.feature_value(static_cast<flow::feature>(f)),
                      r.packets);
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
