#include "stream/shard.h"

#include <algorithm>
#include <stdexcept>

#include "linalg/parallel.h"

namespace tfd::stream {

od_shard_set::od_shard_set(int od_count, std::size_t shards)
    : od_count_(od_count) {
    if (od_count <= 0)
        throw std::invalid_argument("od_shard_set: od_count must be > 0");
    if (shards == 0) shards = linalg::thread_pool::shared().size();
    shards = std::min(shards, static_cast<std::size_t>(od_count));
    shards_.resize(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        // Shard s owns ODs {s, s + S, s + 2S, ...}.
        const auto owned =
            (static_cast<std::size_t>(od_count) - s + shards - 1) / shards;
        shards_[s].cells.resize(owned);
    }
}

void od_shard_set::accumulate(std::span<const flow::flow_record> records,
                              std::span<const int> ods) {
    if (records.size() != ods.size())
        throw std::invalid_argument(
            "od_shard_set: records/ods size mismatch");

    // Route serially so each shard sees its records in input order, then
    // let every shard drain its run in parallel (disjoint cells, so the
    // only cross-shard effect of parallelism is wall-clock).
    for (auto& s : shards_) s.batch.clear();
    std::uint64_t routed = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const int od = ods[i];
        if (od < 0) continue;  // resolver drop, counted upstream
        if (od >= od_count_) {
            // A positive out-of-range OD is not a resolve failure — the
            // resolver only ever emits a negative reason code or a valid
            // index — so it must be counted here or the record vanishes
            // from the records_in == accumulated + late + drops ledger.
            ++dropped_bad_od_;
            continue;
        }
        shards_[shard_of(od)].batch.push_back(static_cast<std::uint32_t>(i));
        ++routed;
    }
    pending_records_ += routed;

    const std::size_t nshards = shards_.size();
    linalg::thread_pool::shared().run(nshards, [&](std::size_t s) {
        shard& sh = shards_[s];
        for (const std::uint32_t i : sh.batch) {
            const int od = ods[i];
            sh.cells[static_cast<std::size_t>(od) / nshards].add_record(
                records[i]);
        }
    });
}

void od_shard_set::harvest(bin_statistics& out) {
    const auto p = static_cast<std::size_t>(od_count_);
    for (auto& e : out.snapshot.entropies) e.assign(p, 0.0);
    out.bytes.assign(p, 0.0);
    out.packets.assign(p, 0.0);
    out.records = pending_records_;

    const std::size_t nshards = shards_.size();
    linalg::thread_pool::shared().run(nshards, [&](std::size_t s) {
        shard& sh = shards_[s];
        for (std::size_t local = 0; local < sh.cells.size(); ++local) {
            const std::size_t od = local * nshards + s;
            auto& cell = sh.cells[local];
            const auto h = cell.entropies();
            for (int f = 0; f < flow::feature_count; ++f)
                out.snapshot.entropies[f][od] = h[f];
            out.bytes[od] = static_cast<double>(cell.total_bytes());
            out.packets[od] = static_cast<double>(cell.total_packets());
            cell.clear();
        }
    });
    pending_records_ = 0;
}

void od_shard_set::save(io::wire_writer& w) const {
    w.varint(static_cast<std::uint64_t>(od_count_));
    w.varint(pending_records_);
    // Count, then emit, the non-empty cells in ascending OD order —
    // a canonical layout independent of the shard partition.
    std::uint64_t nonempty = 0;
    for (int od = 0; od < od_count_; ++od) {
        const auto& cell = shards_[shard_of(od)]
                               .cells[static_cast<std::size_t>(od) /
                                      shards_.size()];
        if (cell.total_records() > 0) ++nonempty;
    }
    w.varint(nonempty);
    for (int od = 0; od < od_count_; ++od) {
        const auto& cell = shards_[shard_of(od)]
                               .cells[static_cast<std::size_t>(od) /
                                      shards_.size()];
        if (cell.total_records() == 0) continue;
        w.varint(static_cast<std::uint64_t>(od));
        cell.save(w);
    }
}

void od_shard_set::load(io::wire_reader& r) {
    if (r.varint() != static_cast<std::uint64_t>(od_count_))
        r.fail("od_shard_set: od_count mismatch");
    const std::uint64_t pending = r.varint();
    for (auto& s : shards_)
        for (auto& cell : s.cells) cell.clear();
    const std::uint64_t nonempty = r.varint();
    if (nonempty > static_cast<std::uint64_t>(od_count_))
        r.fail("od_shard_set: implausible cell count");
    std::int64_t prev_od = -1;
    for (std::uint64_t i = 0; i < nonempty; ++i) {
        const auto od = static_cast<std::int64_t>(r.varint());
        if (od <= prev_od || od >= od_count_)
            r.fail("od_shard_set: cell OD out of order or range");
        prev_od = od;
        shards_[shard_of(static_cast<int>(od))]
            .cells[static_cast<std::size_t>(od) / shards_.size()]
            .load(r);
    }
    pending_records_ = pending;
}

}  // namespace tfd::stream
