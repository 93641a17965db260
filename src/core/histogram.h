// tfd::core — feature histograms and sample entropy.
//
// The paper's summarization primitive (Section 3): given an empirical
// histogram X = {n_i, i = 1..N} of a traffic feature, the sample entropy
//
//     H(X) = - sum_i (n_i / S) log2 (n_i / S),   S = sum_i n_i
//
// lies in [0, log2 N]: 0 when all observations are one value (maximal
// concentration), log2 N when all values are equally common (maximal
// dispersal). Histograms are built from flow records with each feature
// value weighted by the record's packet count.
#pragma once

#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "flow/flow_record.h"
#include "io/wire.h"

namespace tfd::core {

namespace detail {

/// Minimal open-addressing count table: uint32 keys, uint64 counts,
/// linear probing, power-of-two capacity, count == 0 marking an empty
/// slot (histogram counts are always positive). One flat allocation and
/// ~5ns inserts versus a node allocation per distinct value with
/// std::unordered_map — the histogram accumulation hot path is mostly
/// this table. No erase; clear() keeps capacity for reuse.
class flat_u32_counts {
public:
    struct entry {
        std::uint32_t key = 0;
        std::uint64_t count = 0;
    };

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    /// Find-or-insert. A newly inserted slot has count 0; the caller
    /// must immediately make it positive (add() always does). The
    /// returned reference is invalidated by the next operator[].
    std::uint64_t& operator[](std::uint32_t key) {
        if (entries_.empty() || (size_ + 1) * 4 > capacity() * 3)
            grow(capacity() == 0 ? 16 : capacity() * 2);
        entry& e = entries_[probe(key)];
        if (e.count == 0) {
            e.key = key;
            ++size_;
        }
        return e.count;
    }

    std::uint64_t count_of(std::uint32_t key) const noexcept {
        if (entries_.empty()) return 0;
        return entries_[probe(key)].count;
    }

    /// Invoke fn(key, count) for every occupied slot, in table order
    /// (unspecified; callers that need determinism must sort).
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const entry& e : entries_)
            if (e.count != 0) fn(e.key, e.count);
    }

    void reserve(std::size_t n) {
        std::size_t want = 16;
        while (want * 3 < n * 4) want *= 2;
        if (want > capacity()) grow(want);
    }

    void clear() noexcept {
        for (entry& e : entries_) e.count = 0;
        size_ = 0;
    }

    std::size_t capacity() const noexcept { return entries_.size(); }

    /// The slot a probe for `key` starts at (capacity must be nonzero):
    /// the low log2(capacity) bits of the high half of the 64-bit
    /// Fibonacci product key * 2^64/phi. Every key bit reaches them.
    /// The low bits of the product itself depend only on the key's low
    /// bits, so they would send every anonymized address (low 11 bits
    /// zero) to slot 0. Over 16 synthetic Abilene bins, the address
    /// tables averaged 1.28 probes per insert on plain keys and 1.33 on
    /// anonymized ones; the product's top bits gave 1.33 and 1.60.
    std::size_t home_slot(std::uint32_t key) const noexcept {
        return static_cast<std::size_t>(
                   (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> 32) &
               (capacity() - 1);
    }

    /// Slots a lookup of `key` examines, counting its home slot; 0 for
    /// a table with no capacity. Shows the hash's spread to tests.
    std::size_t probe_length(std::uint32_t key) const noexcept {
        if (entries_.empty()) return 0;
        return ((probe(key) - home_slot(key)) & (capacity() - 1)) + 1;
    }

private:
    std::size_t probe(std::uint32_t key) const noexcept {
        const std::size_t mask = capacity() - 1;
        std::size_t i = home_slot(key);
        while (entries_[i].count != 0 && entries_[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void grow(std::size_t new_cap) {
        std::vector<entry> old = std::move(entries_);
        entries_.assign(new_cap, entry{});
        for (const entry& e : old)
            if (e.count != 0) entries_[probe(e.key)] = e;
    }

    std::vector<entry> entries_;
    std::size_t size_ = 0;
};

}  // namespace detail

/// Packet-count histogram over one traffic feature's values.
///
/// Counts are whole packets, held as std::uint64_t: add() takes an
/// integer weight (a floating-point one does not compile), and the
/// Σ n·log2 n table is indexed by the count itself. The read API
/// (total(), count_of(), top(), rank_counts()) reports counts as
/// doubles, exact below 2^53.
///
/// Sample entropy is maintained incrementally: add() updates a running
/// sum_nlogn = sum_i n_i log2 n_i accumulator (H = log2 S - sum_nlogn/S),
/// making entropy_bits() O(1) instead of a copy + sort per call. To bound
/// float drift from long update streams, the accumulator is recomputed
/// exactly (in sorted order, a canonical summation independent of hash
/// iteration order) every kExactRecomputeInterval mutations and on every
/// entropy-affecting structural change.
class feature_histogram {
public:
    /// Add `count` observations of `value` (count == 0 is ignored).
    void add(std::uint32_t value, std::uint64_t count = 1);

    /// Fractional weights are not counts: a floating-point weight fails
    /// to compile instead of being truncated.
    template <std::floating_point F>
    void add(std::uint32_t value, F count) = delete;

    /// Number of distinct values (N).
    std::size_t distinct() const noexcept { return counts_.size(); }

    /// Total observations (S).
    double total() const noexcept { return static_cast<double>(total_); }

    bool empty() const noexcept { return counts_.empty(); }

    /// Sample entropy in bits; 0 for empty or single-valued histograms.
    /// O(1): reads the incrementally maintained accumulator.
    double entropy_bits() const noexcept;

    /// Normalized entropy H / log2(N) in [0,1]; 0 when N < 2.
    double normalized_entropy() const noexcept;

    /// The k most frequent values, by decreasing count (ties by value).
    /// Empty result without touching the table when k == 0 or the
    /// histogram is empty; partial sort when k < distinct().
    std::vector<std::pair<std::uint32_t, double>> top(std::size_t k) const;

    /// Counts in decreasing rank order (the Figure 1 view).
    std::vector<double> rank_counts() const;

    /// Raw count of one value (0 if absent).
    double count_of(std::uint32_t value) const noexcept;

    void clear() noexcept;

    /// Pre-size the hash table for about `n` distinct values.
    void reserve(std::size_t n) { counts_.reserve(n); }

    /// Snapshot hook: serialize the complete observable state — the
    /// count table (canonical key order, so equal histograms serialize
    /// to equal bytes), the total, the incremental Σ n·log2 n
    /// accumulator bit-exactly, and the recompute cadence counter.
    /// load() replaces this histogram with exactly that state, so a
    /// resumed histogram's every future entropy value matches the
    /// uninterrupted one bit for bit (hash-table layout may differ; it
    /// never influences a numeric output).
    void save(io::wire_writer& w) const;

    /// Restore from save() output (contents replaced). Throws
    /// io::wire_error on truncated or inconsistent payloads, including a
    /// count that is not a whole number in [1, 2^53].
    void load(io::wire_reader& r);

private:
    /// Mutations between exact recomputations of sum_nlogn_.
    static constexpr std::size_t kExactRecomputeInterval = 4096;

    void recompute_sum_nlogn() noexcept;

    detail::flat_u32_counts counts_;
    std::uint64_t total_ = 0;
    double sum_nlogn_ = 0.0;           ///< sum_i n_i * log2(n_i)
    std::size_t mutations_ = 0;        ///< since last exact recompute
};

/// The four per-feature histograms of one (timebin, OD flow) cell,
/// accumulated alongside byte/packet volume counters.
class feature_histogram_set {
public:
    /// Accumulate one flow record (feature values weighted by packets).
    void add_record(const flow::flow_record& r);

    /// Accumulate a batch (reserves the per-feature tables up front).
    void add_records(std::span<const flow::flow_record> rs);

    const feature_histogram& operator[](flow::feature f) const noexcept {
        return hists_[static_cast<int>(f)];
    }

    /// Sample entropies in feature order (srcIP, srcPort, dstIP, dstPort).
    std::array<double, flow::feature_count> entropies() const noexcept;

    std::uint64_t total_packets() const noexcept { return packets_; }
    std::uint64_t total_bytes() const noexcept { return bytes_; }
    std::size_t total_records() const noexcept { return records_; }

    void clear() noexcept;

    /// Snapshot hook: the four histograms plus the volume counters.
    void save(io::wire_writer& w) const;

    /// Restore from save() output (contents replaced).
    void load(io::wire_reader& r);

private:
    std::array<feature_histogram, flow::feature_count> hists_;
    std::uint64_t packets_ = 0;
    std::uint64_t bytes_ = 0;
    std::size_t records_ = 0;
};

}  // namespace tfd::core
