// Shard-parity tests: hash-partitioned accumulation must be
// bit-identical to the single-threaded path for any shard count.
#include "stream/shard.h"

#include <gtest/gtest.h>

#include "core/histogram.h"
#include "net/topology.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

struct labelled_stream {
    std::vector<flow::flow_record> records;
    std::vector<int> ods;
};

// One bin's records for every OD, concatenated in OD order (the order
// the batch path would feed each cell).
labelled_stream bin_stream(const traffic::background_model& bg,
                           std::size_t bin) {
    labelled_stream s;
    for (int od = 0; od < bg.topo().od_count(); ++od) {
        const auto cell = bg.generate(bin, od);
        for (const auto& r : cell) {
            s.records.push_back(r);
            s.ods.push_back(od);
        }
    }
    return s;
}

}  // namespace

TEST(OdShardSetTest, BitIdenticalToSingleThreadedForShardCounts124) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);

    for (const std::size_t shards : {1u, 2u, 4u}) {
        od_shard_set set(topo.od_count(), shards);
        ASSERT_EQ(set.shard_count(), shards);
        bin_statistics stats;
        for (std::size_t bin = 0; bin < 3; ++bin) {
            const auto s = bin_stream(bg, bin);
            set.accumulate(s.records, s.ods);
            EXPECT_EQ(set.pending_records(), s.records.size());
            set.harvest(stats);

            // Single-threaded reference, cell by cell.
            for (int od = 0; od < topo.od_count(); ++od) {
                core::feature_histogram_set ref;
                ref.add_records(bg.generate(bin, od));
                const auto h = ref.entropies();
                for (int f = 0; f < flow::feature_count; ++f) {
                    // Bit-identical, not approximately equal.
                    EXPECT_EQ(stats.snapshot.entropies[f][od], h[f])
                        << "shards=" << shards << " bin=" << bin << " od="
                        << od << " feature=" << f;
                }
                EXPECT_EQ(stats.bytes[od],
                          static_cast<double>(ref.total_bytes()));
                EXPECT_EQ(stats.packets[od],
                          static_cast<double>(ref.total_packets()));
            }
        }
    }
}

TEST(OdShardSetTest, HarvestResetsCells) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    od_shard_set set(topo.od_count(), 2);
    const auto s = bin_stream(bg, 0);
    set.accumulate(s.records, s.ods);
    bin_statistics stats;
    set.harvest(stats);
    EXPECT_GT(stats.records, 0u);
    EXPECT_EQ(set.pending_records(), 0u);
    set.harvest(stats);  // everything cleared
    EXPECT_EQ(stats.records, 0u);
    for (int od = 0; od < topo.od_count(); ++od)
        for (int f = 0; f < flow::feature_count; ++f)
            EXPECT_EQ(stats.snapshot.entropies[f][od], 0.0);
}

TEST(OdShardSetTest, SkipsUnresolvedRecords) {
    const auto topo = net::topology::abilene();
    od_shard_set set(topo.od_count(), 2);
    std::vector<flow::flow_record> records(3);
    for (auto& r : records) r.packets = 1;
    const std::vector<int> ods = {5, -1, 5};
    set.accumulate(records, ods);
    EXPECT_EQ(set.pending_records(), 2u);
    bin_statistics stats;
    set.harvest(stats);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.packets[5], 2.0);
}

// A positive out-of-range OD used to be skipped without a trace,
// leaving a hole in the records_in == accumulated + late + drops
// conservation ledger; it must be counted, distinctly from the
// resolver's od < 0 markers (those are already in resolver_drops).
TEST(OdShardSetTest, CountsBadOdDropsDistinctFromResolverDrops) {
    const auto topo = net::topology::abilene();
    od_shard_set set(topo.od_count(), 2);
    std::vector<flow::flow_record> records(5);
    for (auto& r : records) r.packets = 1;
    const std::vector<int> ods = {5, -1, topo.od_count(), 5,
                                  topo.od_count() + 7};
    set.accumulate(records, ods);
    EXPECT_EQ(set.pending_records(), 2u);
    EXPECT_EQ(set.records_dropped_bad_od(), 2u);
    bin_statistics stats;
    set.harvest(stats);
    EXPECT_EQ(stats.records, 2u);
    // Cumulative: harvest resets pending, never the bad-OD count.
    EXPECT_EQ(set.records_dropped_bad_od(), 2u);
    set.accumulate(records, ods);
    EXPECT_EQ(set.records_dropped_bad_od(), 4u);
}

TEST(OdShardSetTest, RejectsDegenerateArguments) {
    EXPECT_THROW(od_shard_set(0, 1), std::invalid_argument);
    od_shard_set set(10, 3);
    std::vector<flow::flow_record> records(2);
    std::vector<int> ods(1);
    EXPECT_THROW(set.accumulate(records, ods), std::invalid_argument);
}
