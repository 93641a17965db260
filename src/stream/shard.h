// tfd::stream — hash-partitioned OD shards.
//
// ROADMAP names sharded OD aggregation as the scaling step after the
// kernel layer went parallel: histogram accumulation is the last
// single-threaded stage between a flow feed and the detector. An
// od_shard_set partitions the OD-flow space across S shards (shard of
// OD i = i mod S) and accumulates each shard's cells on the shared
// linalg thread pool.
//
// Determinism contract (the parity test pins this for S in {1,2,4}):
//
//   * Partitioning is by OD index only — never by thread, load, or
//     arrival timing — so every record of one OD lands in exactly one
//     shard, in input order.
//   * Within a shard, records are accumulated serially in input order,
//     so the sequence of histogram updates per (OD, feature) cell is
//     identical to the single-threaded path.
//   * Harvest reads each cell from its owning shard, the only shard
//     that ever held its records, so no cross-shard combination step
//     exists: entropies, byte and packet counts are bit-identical to
//     the batch path for any shard count. Parallelism only changes
//     wall-clock.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/histogram.h"
#include "core/online.h"
#include "flow/flow_record.h"
#include "io/wire.h"

namespace tfd::stream {

/// One network-wide bin's harvested statistics: the detector snapshot
/// plus the volume counters the batch od_dataset tracks per cell.
struct bin_statistics {
    std::size_t bin = 0;              ///< absolute bin index
    core::entropy_snapshot snapshot;  ///< per-OD entropy 4-tuples
    std::vector<double> bytes;        ///< per-OD byte counts
    std::vector<double> packets;      ///< per-OD packet counts
    std::uint64_t records = 0;        ///< records accumulated in the bin
};

/// Shard-parallel per-(OD, feature) histogram accumulation for one
/// timebin at a time.
class od_shard_set {
public:
    /// `shards` == 0 picks the shared thread pool's size. Throws
    /// std::invalid_argument if od_count <= 0.
    explicit od_shard_set(int od_count, std::size_t shards = 0);

    std::size_t shard_count() const noexcept { return shards_.size(); }
    int od_count() const noexcept { return od_count_; }

    /// Owning shard of an OD flow.
    std::size_t shard_of(int od) const noexcept {
        return static_cast<std::size_t>(od) % shards_.size();
    }

    /// Accumulate a batch into the current bin's cells, in parallel over
    /// shards. `ods[i]` is the OD index of `records[i]` (from
    /// od_resolver::resolve_batch); records with od < 0 (the resolver's
    /// reason codes, counted as drops upstream) are skipped. Records with
    /// od >= od_count() are also skipped, but counted in
    /// records_dropped_bad_od() — they indicate a broken producer, not
    /// a resolve failure, and must not vanish from the conservation
    /// ledger. Per-OD accumulation order equals input order (see the
    /// determinism contract above).
    void accumulate(std::span<const flow::flow_record> records,
                    std::span<const int> ods);

    /// Harvest the current bin into `out` (entropies, volumes, record
    /// count; `out.bin` is left to the caller) and reset every cell for
    /// the next bin. Parallel over shards; deterministic.
    void harvest(bin_statistics& out);

    /// Records accumulated into the current (un-harvested) bin.
    std::uint64_t pending_records() const noexcept { return pending_records_; }

    /// Cumulative count of records offered with an OD index >= od_count()
    /// (never reset by harvest; process-local, not serialized — callers
    /// that persist accounting fold deltas into their own metrics).
    std::uint64_t records_dropped_bad_od() const noexcept {
        return dropped_bad_od_;
    }

    /// Snapshot hook: the open (un-harvested) bin's state — pending
    /// record count plus every non-empty cell, keyed by OD index in
    /// ascending order. The layout is shard-count independent (cells
    /// travel by OD, not by shard slot), so the bytes a 1-shard and a
    /// 4-shard set produce for the same accumulated records are
    /// identical.
    void save(io::wire_writer& w) const;

    /// Restore from save() output into this set's shard layout (current
    /// bin replaced). Throws io::wire_error on truncation, an OD-count
    /// mismatch, or out-of-order/out-of-range OD keys.
    void load(io::wire_reader& r);

private:
    struct shard {
        /// Cells for ODs owned by this shard, indexed od / shard_count.
        std::vector<core::feature_histogram_set> cells;
        /// Input-order indices of the current batch routed here.
        std::vector<std::uint32_t> batch;
    };

    int od_count_;
    std::vector<shard> shards_;
    std::uint64_t pending_records_ = 0;
    std::uint64_t dropped_bad_od_ = 0;
};

}  // namespace tfd::stream
