// End-to-end streaming pipeline tests: parity with the batch path for
// shard counts {1,2,4}, bin-synchronous semantics (gaps, late records),
// and the bounded queue's backpressure behaviour.
#include "stream/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/histogram.h"
#include "net/topology.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

core::online_options small_online() {
    core::online_options o;
    o.window = 8;
    o.warmup = 4;
    o.refit_interval = 2;
    o.subspace.normal_dims = 2;
    return o;
}

// A multi-bin synthetic Abilene stream in bin-major, OD-minor order
// (each cell's records appear in generation order, the order the batch
// path feeds them).
std::vector<flow::flow_record> make_stream(const traffic::background_model& bg,
                                           std::size_t bins) {
    std::vector<flow::flow_record> out;
    for (std::size_t bin = 0; bin < bins; ++bin)
        for (int od = 0; od < bg.topo().od_count(); ++od) {
            const auto cell = bg.generate(bin, od);
            out.insert(out.end(), cell.begin(), cell.end());
        }
    return out;
}

// The single-threaded reference: resolve + bin with the same resolver,
// accumulate per cell in stream order, score with a fresh detector.
struct batch_reference {
    std::vector<std::array<std::vector<double>, flow::feature_count>> entropy;
    std::vector<core::online_verdict> verdicts;
};

batch_reference run_batch(const net::topology& topo,
                          std::span<const flow::flow_record> records,
                          std::size_t bins) {
    const flow::od_resolver resolver(topo);
    const auto binned = flow::bin_records(resolver, records);
    const auto p = static_cast<std::size_t>(topo.od_count());

    std::vector<std::vector<core::feature_histogram_set>> cells(bins);
    for (auto& row : cells) row.resize(p);
    for (const auto& b : binned) cells[b.bin][b.od].add_record(b.record);

    batch_reference ref;
    core::online_detector det(p, small_online());
    for (std::size_t bin = 0; bin < bins; ++bin) {
        core::entropy_snapshot snap;
        for (auto& e : snap.entropies) e.resize(p);
        for (std::size_t od = 0; od < p; ++od) {
            const auto h = cells[bin][od].entropies();
            for (int f = 0; f < flow::feature_count; ++f)
                snap.entropies[f][od] = h[f];
        }
        ref.entropy.push_back(snap.entropies);
        ref.verdicts.push_back(det.push(snap));
    }
    return ref;
}

}  // namespace

TEST(StreamPipelineTest, ParityWithBatchPathForShardCounts124) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::size_t bins = 10;
    const auto stream = make_stream(bg, bins);
    const auto ref = run_batch(topo, stream, bins);

    for (const std::size_t shards : {1u, 2u, 4u}) {
        pipeline_options opts;
        opts.shards = shards;
        opts.online = small_online();
        stream_pipeline pipeline(topo, opts);

        std::vector<bin_result> results;
        pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });

        // Push in uneven chunks so batches straddle bin boundaries.
        std::size_t i = 0;
        std::size_t chunk = 1;
        while (i < stream.size()) {
            const std::size_t n = std::min(chunk, stream.size() - i);
            pipeline.push(std::span(stream).subspan(i, n));
            i += n;
            chunk = chunk * 3 + 1;
        }
        pipeline.finish();

        ASSERT_EQ(results.size(), bins) << "shards=" << shards;
        for (std::size_t bin = 0; bin < bins; ++bin) {
            const auto& r = results[bin];
            EXPECT_EQ(r.stats.bin, bin);
            for (int f = 0; f < flow::feature_count; ++f)
                for (int od = 0; od < topo.od_count(); ++od)
                    // Bit-identical entropy matrices.
                    EXPECT_EQ(r.stats.snapshot.entropies[f][od],
                              ref.entropy[bin][f][od])
                        << "shards=" << shards << " bin=" << bin;
            // Identical detection sets.
            const auto& v = ref.verdicts[bin];
            EXPECT_EQ(r.verdict.scored, v.scored);
            EXPECT_EQ(r.verdict.anomalous, v.anomalous);
            EXPECT_EQ(r.verdict.spe, v.spe);
            EXPECT_EQ(r.verdict.threshold, v.threshold);
            EXPECT_EQ(r.verdict.top_od, v.top_od);
            ASSERT_EQ(r.verdict.flows.size(), v.flows.size());
            for (std::size_t k = 0; k < v.flows.size(); ++k)
                EXPECT_EQ(r.verdict.flows[k].od, v.flows[k].od);
        }
        const auto& m = pipeline.metrics();
        EXPECT_EQ(m.records_in, stream.size());
        EXPECT_EQ(m.records_accumulated,
                  stream.size() - m.resolver_drops.total());
        EXPECT_EQ(m.late_records, 0u);
        EXPECT_EQ(m.bins_emitted, bins);
    }
}

TEST(StreamPipelineTest, CodecRunMatchesDirectPush) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::size_t bins = 8;
    const auto stream = make_stream(bg, bins);
    const auto ref = run_batch(topo, stream, bins);

    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();
    opts.queue_frames = 2;
    stream_pipeline pipeline(topo, opts);
    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });

    const auto bytes = encode_records(stream, {.records_per_frame = 512});
    std::istringstream in(std::string(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    flow_codec_reader reader(in);
    const std::size_t frames = pipeline.run(reader);
    EXPECT_EQ(frames, (stream.size() + 511) / 512);

    // Frame-buffer recycling: after the first queue-depth's worth of
    // frames every decode reuses a consumed buffer, and the metric
    // surfaces it. (The exact count depends on producer/consumer
    // interleaving; at minimum the steady-state tail must have reused.)
    EXPECT_GT(pipeline.metrics().frames_reused, 0u);
    EXPECT_LE(pipeline.metrics().frames_reused, frames);

    ASSERT_EQ(results.size(), bins);
    for (std::size_t bin = 0; bin < bins; ++bin) {
        for (int f = 0; f < flow::feature_count; ++f)
            for (int od = 0; od < topo.od_count(); ++od)
                EXPECT_EQ(results[bin].stats.snapshot.entropies[f][od],
                          ref.entropy[bin][f][od]);
        EXPECT_EQ(results[bin].verdict.anomalous, ref.verdicts[bin].anomalous);
        EXPECT_EQ(results[bin].verdict.spe, ref.verdicts[bin].spe);
    }
}

TEST(StreamPipelineTest, EmitsEmptyGapBinsAndCountsLateRecords) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    stream_pipeline pipeline(topo, opts);
    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });

    auto record_in_bin = [&](std::size_t bin) {
        flow::flow_record r;
        r.ingress_pop = 0;
        r.key.dst = topo.address_in_pop(1, 5);
        r.packets = 3;
        r.bytes = 100;
        r.first_us = bin * flow::default_bin_us + 7;
        r.last_us = r.first_us;
        return r;
    };

    std::vector<flow::flow_record> batch = {record_in_bin(0), record_in_bin(3)};
    pipeline.push(batch);
    // Bin 0 closed, gap bins 1 and 2 emitted empty, bin 3 open.
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].stats.records, 1u);
    EXPECT_EQ(results[1].stats.records, 0u);
    EXPECT_EQ(results[2].stats.records, 0u);

    // A straggler for bin 1 cannot be replayed.
    std::vector<flow::flow_record> late = {record_in_bin(1)};
    pipeline.push(late);
    EXPECT_EQ(pipeline.metrics().late_records, 1u);

    pipeline.finish();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[3].stats.bin, 3u);
    EXPECT_EQ(results[3].stats.records, 1u);
    EXPECT_EQ(pipeline.metrics().bins_emitted, 4u);
    EXPECT_EQ(pipeline.metrics().empty_bins, 2u);
    EXPECT_EQ(pipeline.metrics().records_accumulated, 2u);
}

TEST(StreamPipelineTest, RecordsAfterFinishAreLateNotReplayed) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    stream_pipeline pipeline(topo, opts);
    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });

    auto record_in_bin = [&](std::size_t bin) {
        flow::flow_record r;
        r.ingress_pop = 0;
        r.key.dst = topo.address_in_pop(1, 5);
        r.packets = 3;
        r.first_us = bin * flow::default_bin_us + 7;
        r.last_us = r.first_us;
        return r;
    };

    std::vector<flow::flow_record> batch = {record_in_bin(2)};
    pipeline.push(batch);
    pipeline.finish();
    ASSERT_EQ(results.size(), 1u);

    // Bins 0..2 are scored; stragglers for them (including the very bin
    // just closed) must not reopen or duplicate a bin.
    std::vector<flow::flow_record> stragglers = {record_in_bin(1),
                                                 record_in_bin(2)};
    pipeline.push(stragglers);
    pipeline.finish();
    EXPECT_EQ(results.size(), 1u);
    EXPECT_EQ(pipeline.metrics().late_records, 2u);
    EXPECT_EQ(pipeline.metrics().bins_emitted, 1u);

    // A genuinely newer bin continues the stream: bins 3 and 4 are
    // bridged with empty gap bins, as if bin 2 had stayed open.
    std::vector<flow::flow_record> fresh = {record_in_bin(5)};
    pipeline.push(fresh);
    pipeline.finish();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[1].stats.bin, 3u);
    EXPECT_EQ(results[1].stats.records, 0u);
    EXPECT_EQ(results[2].stats.bin, 4u);
    EXPECT_EQ(results[2].stats.records, 0u);
    EXPECT_EQ(results[3].stats.bin, 5u);
    EXPECT_EQ(results[3].stats.records, 1u);
    EXPECT_EQ(pipeline.metrics().empty_bins, 2u);
    EXPECT_EQ(pipeline.metrics().time_base_resets, 0u);
}

TEST(StreamPipelineTest, FarForwardPushAfterFinishResetsTimeBase) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.max_gap_bins = 10;
    stream_pipeline pipeline(topo, opts);
    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });
    std::vector<lifecycle_event> events;
    pipeline.on_lifecycle(
        [&](const lifecycle_event& ev) { events.push_back(ev); });

    auto record_in_bin = [&](std::size_t bin) {
        flow::flow_record r;
        r.ingress_pop = 0;
        r.key.dst = topo.address_in_pop(1, 5);
        r.packets = 1;
        r.first_us = bin * flow::default_bin_us + 7;
        r.last_us = r.first_us;
        return r;
    };

    std::vector<flow::flow_record> first = {record_in_bin(2)};
    pipeline.push(first);
    pipeline.finish();
    // Eleven bins past the last emitted one: beyond max_gap_bins, so the
    // time base resets instead of bridging ten empty bins.
    std::vector<flow::flow_record> far = {record_in_bin(13)};
    pipeline.push(far);
    pipeline.finish();

    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].stats.bin, 2u);
    EXPECT_EQ(results[1].stats.bin, 13u);
    EXPECT_EQ(results[1].stats.records, 1u);
    EXPECT_EQ(pipeline.metrics().empty_bins, 0u);
    EXPECT_EQ(pipeline.metrics().time_base_resets, 1u);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].type, lifecycle_event::kind::time_base_reset);
    EXPECT_EQ(events[0].from_bin, 2u);
    EXPECT_EQ(events[0].to_bin, 13u);
}

TEST(StreamPipelineTest, LateUnresolvableRecordsCountOnceInMetrics) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    stream_pipeline pipeline(topo, opts);

    auto record_in_bin = [&](std::size_t bin, bool resolvable) {
        flow::flow_record r;
        r.ingress_pop = resolvable ? 0 : -1;
        r.key.dst = topo.address_in_pop(1, 5);
        r.packets = 1;
        r.first_us = bin * flow::default_bin_us + 7;
        r.last_us = r.first_us;
        return r;
    };

    std::vector<flow::flow_record> batch = {record_in_bin(3, true)};
    pipeline.push(batch);
    // One resolvable + one unresolvable straggler: the unresolvable one
    // lands in resolver_drops only, never in late_records.
    std::vector<flow::flow_record> late = {record_in_bin(0, true),
                                           record_in_bin(0, false)};
    pipeline.push(late);
    pipeline.finish();

    const auto& m = pipeline.metrics();
    EXPECT_EQ(m.records_in, 3u);
    EXPECT_EQ(m.late_records, 1u);
    EXPECT_EQ(m.resolver_drops.unknown_ingress, 1u);
    EXPECT_EQ(m.records_accumulated, 1u);
    // The counters partition the input exactly.
    EXPECT_EQ(m.records_in, m.records_accumulated + m.late_records +
                                m.resolver_drops.total());
}

TEST(StreamPipelineTest, ThrowingOnBinCallbackPropagatesFromRun) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 4);

    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.queue_frames = 1;  // keep the producer on the verge of blocking
    stream_pipeline pipeline(topo, opts);
    pipeline.on_bin([](const bin_result&) {
        throw std::runtime_error("observer failed");
    });

    const auto bytes = encode_records(stream, {.records_per_frame = 256});
    std::istringstream in(std::string(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    flow_codec_reader reader(in);
    // Must propagate the callback's exception (not std::terminate with a
    // blocked producer thread).
    EXPECT_THROW(pipeline.run(reader), std::runtime_error);
}

TEST(StreamPipelineTest, CountsResolverDropsPerReason) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    stream_pipeline pipeline(topo, opts);

    std::vector<flow::flow_record> batch(3);
    batch[0].ingress_pop = 0;
    batch[0].key.dst = topo.address_in_pop(1, 5);  // resolves
    batch[1].ingress_pop = -1;                     // unknown ingress
    batch[1].key.dst = topo.address_in_pop(1, 5);
    batch[2].ingress_pop = 0;
    batch[2].key.dst = net::parse_ipv4("250.0.0.1");  // off-net egress
    for (auto& r : batch) r.packets = 1;
    pipeline.push(batch);
    pipeline.finish();

    const auto& m = pipeline.metrics();
    EXPECT_EQ(m.records_in, 3u);
    EXPECT_EQ(m.records_accumulated, 1u);
    EXPECT_EQ(m.resolver_drops.unknown_ingress, 1u);
    EXPECT_EQ(m.resolver_drops.unresolvable_egress, 1u);
}

TEST(StreamPipelineTest, RejectsZeroBinDuration) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.online = small_online();
    opts.bin_us = 0;
    EXPECT_THROW(stream_pipeline(topo, opts), std::invalid_argument);
}

TEST(StreamPipelineTest, HugeForwardJumpResetsTimeBaseInsteadOfSpinning) {
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.max_gap_bins = 10;
    stream_pipeline pipeline(topo, opts);
    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });

    auto record_in_bin = [&](std::size_t bin) {
        flow::flow_record r;
        r.ingress_pop = 0;
        r.key.dst = topo.address_in_pop(1, 5);
        r.packets = 1;
        r.first_us = bin * flow::default_bin_us + 7;
        r.last_us = r.first_us;
        return r;
    };

    // A jump of ~5.9 million bins (epoch-microsecond garbage) must not
    // emit millions of empty harvests.
    const std::size_t garbage_bin =
        flow::bin_index(1'772'000'000'000'000ull);
    std::vector<flow::flow_record> batch = {record_in_bin(0),
                                            record_in_bin(garbage_bin)};
    pipeline.push(batch);
    pipeline.finish();

    // Bin 0 closed, then the time base jumped straight to the new bin.
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].stats.bin, 0u);
    EXPECT_EQ(results[1].stats.bin, garbage_bin);
    EXPECT_EQ(pipeline.metrics().time_base_resets, 1u);
    EXPECT_EQ(pipeline.metrics().empty_bins, 0u);

    // Small jumps still bridge with empty gap bins.
    std::vector<flow::flow_record> near = {record_in_bin(garbage_bin + 3)};
    pipeline.push(near);
    pipeline.finish();
    EXPECT_EQ(pipeline.metrics().time_base_resets, 1u);
}

TEST(StreamPipelineTest, RecoversWhenSaneRecordsFollowAGarbageTimestamp) {
    // The mirror case: after one corrupt far-future record drags the
    // time base forward, the sane feed behind it must resync (another
    // time-base reset), not be late-dropped forever.
    const auto topo = net::topology::abilene();
    pipeline_options opts;
    opts.shards = 1;
    opts.online = small_online();
    opts.max_gap_bins = 10;
    stream_pipeline pipeline(topo, opts);
    std::vector<bin_result> results;
    pipeline.on_bin([&](const bin_result& r) { results.push_back(r); });

    auto record_in_bin = [&](std::size_t bin) {
        flow::flow_record r;
        r.ingress_pop = 0;
        r.key.dst = topo.address_in_pop(1, 5);
        r.packets = 1;
        r.first_us = bin * flow::default_bin_us + 7;
        r.last_us = r.first_us;
        return r;
    };

    const std::size_t garbage_bin = flow::bin_index(1'772'000'000'000'000ull);
    std::vector<flow::flow_record> batch = {
        record_in_bin(100), record_in_bin(garbage_bin), record_in_bin(101),
        record_in_bin(102)};
    pipeline.push(batch);
    pipeline.finish();

    // bin 100 closed (forward reset), garbage bin closed (backward
    // reset), then the sane feed continues at 101, 102.
    EXPECT_EQ(pipeline.metrics().time_base_resets, 2u);
    EXPECT_EQ(pipeline.metrics().late_records, 0u);
    ASSERT_EQ(results.size(), 4u);
    EXPECT_EQ(results[0].stats.bin, 100u);
    EXPECT_EQ(results[1].stats.bin, garbage_bin);
    EXPECT_EQ(results[2].stats.bin, 101u);
    EXPECT_EQ(results[3].stats.bin, 102u);
    EXPECT_EQ(results[2].stats.records, 1u);
    EXPECT_EQ(results[3].stats.records, 1u);
}

TEST(BoundedQueueTest, FifoAndClose) {
    bounded_queue<int> q(2);
    EXPECT_TRUE(q.push(1));
    EXPECT_TRUE(q.push(2));
    EXPECT_EQ(q.blocked_pushes(), 0u);
    EXPECT_EQ(q.high_watermark(), 2u);
    EXPECT_EQ(*q.pop(), 1);
    EXPECT_EQ(*q.pop(), 2);
    q.close();
    EXPECT_FALSE(q.pop().has_value());
    EXPECT_FALSE(q.push(4));  // closed
}

TEST(BoundedQueueTest, PushBlocksWhenFullUntilPopped) {
    bounded_queue<int> q(1);
    ASSERT_TRUE(q.push(1));

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        EXPECT_TRUE(q.push(2));  // must block until the pop below
        pushed = true;
    });

    // Wait until the producer is actually blocked in push().
    for (int spin = 0; spin < 1000 && q.blocked_pushes() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(q.blocked_pushes(), 1u);
    EXPECT_FALSE(pushed.load());

    EXPECT_EQ(*q.pop(), 1);
    producer.join();
    EXPECT_TRUE(pushed.load());
    EXPECT_EQ(*q.pop(), 2);
}

TEST(BoundedQueueTest, CloseUnblocksProducer) {
    bounded_queue<int> q(1);
    ASSERT_TRUE(q.push(1));
    std::thread producer([&] { EXPECT_FALSE(q.push(2)); });
    for (int spin = 0; spin < 1000 && q.blocked_pushes() == 0; ++spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    q.close();
    producer.join();
    // The item that was in the queue is still drainable after close.
    EXPECT_EQ(*q.pop(), 1);
    EXPECT_FALSE(q.pop().has_value());
}
