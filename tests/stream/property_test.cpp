// Randomized-stream properties of the bin-synchronous pipeline. Each
// seed builds a stream that mixes in-order bins split across pushes,
// gap bins, stragglers for bins already scored, forward and backward
// jumps beyond max_gap_bins, a lone far-future timestamp and resolver
// rejects (a gap that follows a backward jump can also land whole bins
// within max_gap_bins behind the cursor, where they are late), then
// checks:
//
//   1. the five-term conservation ledger
//        records_in == records_accumulated + late_records
//                      + resolver_drops.unknown_ingress
//                      + resolver_drops.unresolvable_egress
//                      + records_dropped_bad_od;
//   2. bins, verdicts, time-base resets and counting metrics are
//      identical for shard counts 1, 2 and 4, and through run() on a
//      codec spool with queue_frames 1 and 8;
//   3. a checkpoint taken at a random on_bin cut, restored, and fed
//      exactly the records after records_in, gives identical later bins
//      and final counters. run() on the spool takes the same cut from
//      its observer: run()'s decode thread resolves whole frames, which
//      can span the cut, so its counters at the cut must still equal
//      push()'s, and resuming from it must be identical too.
//
// A second case pins the replay bound of checkpoint.h: replaying a
// consumed prefix whose bins stay within max_gap_bins of the restored
// cursor late-drops exactly that prefix and leaves every later verdict
// unchanged.
//
// A third pins the finish() contract: a finish() at a random cut, then
// the rest of the stream, continues the stream. At a bin boundary the
// bins, verdicts, resets and counters equal the uninterrupted stream's;
// mid-bin, the cut bin's later records count as late and the ledger
// still balances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <tuple>
#include <vector>

#include "flow/od_aggregator.h"
#include "io/snapshot.h"
#include "net/topology.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

constexpr std::size_t kSeeds = 20;
constexpr std::size_t kSteps = 40;
constexpr std::size_t kMaxGap = 6;
constexpr std::size_t kOdsPerBin = 12;
constexpr std::size_t kStartBin = 10'000;

/// splitmix64: a seeded stream that reads the same on every platform.
struct rng {
    std::uint64_t state;
    std::uint64_t next() {
        std::uint64_t x = (state += 0x9E3779B97F4A7C15ull);
        x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
        x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
        return x ^ (x >> 31);
    }
    std::size_t below(std::size_t n) {
        return static_cast<std::size_t>(next() % n);
    }
};

core::online_options small_online() {
    core::online_options o;
    o.window = 8;
    o.warmup = 4;
    o.refit_interval = 2;
    o.subspace.normal_dims = 2;
    o.alpha = 0.99;  // more alarms, so identified flows are compared too
    return o;
}

pipeline_options make_opts(std::size_t shards, std::size_t max_gap) {
    pipeline_options opts;
    opts.shards = shards;
    opts.online = small_online();
    opts.max_gap_bins = max_gap;
    return opts;
}

/// A stream: records in arrival order plus the sizes of the push()
/// batches they arrive in (batches cut across bins at random).
struct random_stream {
    std::vector<flow::flow_record> records;
    std::vector<std::size_t> batches;
};

/// Background records of `ods` for one bin, re-stamped into bin `bin`.
void append_bin(const traffic::background_model& bg,
                const std::vector<int>& ods, std::size_t bin,
                std::vector<flow::flow_record>& out) {
    for (const int od : ods)
        for (flow::flow_record r : bg.generate(bin % 512, od)) {
            const std::uint64_t span = r.last_us - r.first_us;
            r.first_us = bin * flow::default_bin_us +
                         r.first_us % flow::default_bin_us;
            r.last_us = r.first_us + span;
            out.push_back(r);
        }
}

/// The first `count` records of one OD's cell, re-stamped into `bin`.
std::vector<flow::flow_record> cell_records(const traffic::background_model& bg,
                                            int od, std::size_t bin,
                                            std::size_t count) {
    std::vector<flow::flow_record> cell;
    append_bin(bg, {od}, bin, cell);
    if (cell.size() > count) cell.resize(count);
    return cell;
}

random_stream make_random_stream(const traffic::background_model& bg,
                                 std::uint64_t seed) {
    rng g{seed};
    const net::topology& topo = bg.topo();
    std::vector<int> ods;
    for (std::size_t k = 0; k < kOdsPerBin; ++k)
        ods.push_back(static_cast<int>(
            g.below(static_cast<std::size_t>(topo.od_count()))));

    random_stream s;
    std::vector<flow::flow_record>& out = s.records;
    std::size_t t = kStartBin;  // next in-order bin
    std::size_t last = t;       // bin of the newest in-order records
    for (std::size_t step = 0; step < kSteps; ++step) {
        const std::size_t roll = g.below(100);
        if (roll < 55) {  // in-order bin
            append_bin(bg, ods, t, out);
            last = t;
            t += 1;
        } else if (roll < 65) {  // gap bins, bridged as empty bins
            t += 1 + g.below(3);
        } else if (roll < 75) {  // stragglers for a bin already scored
            const std::size_t b = last - 1 - g.below(3);
            const auto late = cell_records(bg, ods[g.below(ods.size())], b,
                                           1 + g.below(20));
            out.insert(out.end(), late.begin(), late.end());
        } else if (roll < 81) {  // forward jump beyond max_gap_bins
            t += kMaxGap + 1 + g.below(20);
        } else if (roll < 87) {  // backward jump beyond max_gap_bins
            t = last - (kMaxGap + 1 + g.below(20));
        } else if (roll < 92) {  // a lone far-future timestamp
            const auto lone =
                cell_records(bg, ods[0], t + 1'000'000 + g.below(1000), 1);
            out.insert(out.end(), lone.begin(), lone.end());
        } else {  // resolver rejects, in the open bin or a scored one
            auto bad =
                cell_records(bg, ods[0], last - g.below(2), 1 + g.below(4));
            for (std::size_t k = 0; k < bad.size(); ++k) {
                if (k % 2 == 0)
                    bad[k].ingress_pop = -1;  // unknown ingress
                else
                    bad[k].key.dst = net::ipv4{0xFA000001u};  // no egress
            }
            out.insert(out.end(), bad.begin(), bad.end());
        }
    }
    for (std::size_t done = 0; done < out.size();) {
        const std::size_t n =
            std::min(out.size() - done, 1 + g.below(3000));
        s.batches.push_back(n);
        done += n;
    }
    return s;
}

/// What one pipeline produced: every bin, every time-base reset (tagged
/// with the bins emitted before it), and the final metrics.
struct outcome {
    std::vector<bin_result> bins;
    std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> resets;
    pipeline_metrics metrics;
};

/// A checkpoint taken in the on_bin observer of one emitted bin.
struct cut_checkpoint {
    std::vector<std::uint8_t> bytes;
    pipeline_metrics metrics;  ///< at the cut; records_in resumes
};

/// Record every bin and reset into `out`; if `ck` is non-null, also
/// checkpoint into it from the observer of emission `cut` (0-based).
void observe(stream_pipeline& p, outcome& out, std::size_t cut = 0,
             cut_checkpoint* ck = nullptr) {
    p.on_bin([&p, &out, cut, ck](const bin_result& r) {
        if (ck && out.bins.size() == cut) {
            io::snapshot_writer w(p.config_fingerprint());
            p.save_state(w);
            ck->bytes = w.serialize();
            ck->metrics = p.metrics();
        }
        out.bins.push_back(r);
    });
    p.on_lifecycle([&p, &out](const lifecycle_event& ev) {
        if (ev.type == lifecycle_event::kind::time_base_reset)
            out.resets.emplace_back(p.metrics().bins_emitted, ev.from_bin,
                                    ev.to_bin);
    });
}

void push_batches(stream_pipeline& p, const random_stream& s) {
    std::size_t at = 0;
    for (const std::size_t n : s.batches) {
        p.push(std::span(s.records).subspan(at, n));
        at += n;
    }
}

outcome run_pushed(const net::topology& topo, const pipeline_options& opts,
                   const random_stream& s, std::size_t cut = 0,
                   cut_checkpoint* ck = nullptr) {
    stream_pipeline p(topo, opts);
    outcome out;
    observe(p, out, cut, ck);
    push_batches(p, s);
    p.finish();
    out.metrics = p.metrics();
    return out;
}

outcome run_spooled(const net::topology& topo, const pipeline_options& opts,
                    const random_stream& s, std::size_t records_per_frame,
                    std::size_t cut = 0, cut_checkpoint* ck = nullptr) {
    std::ostringstream os;
    {
        flow_codec_writer writer(os, {.records_per_frame = records_per_frame});
        writer.add(s.records);
        writer.finish();
    }
    std::istringstream in(os.str());
    flow_codec_reader reader(in);
    stream_pipeline p(topo, opts);
    outcome out;
    observe(p, out, cut, ck);
    p.run(reader);
    out.metrics = p.metrics();
    return out;
}

void expect_bins_identical(const bin_result& got, const bin_result& want) {
    EXPECT_EQ(got.stats.bin, want.stats.bin);
    EXPECT_EQ(got.stats.records, want.stats.records);
    EXPECT_EQ(got.stats.bytes, want.stats.bytes);
    EXPECT_EQ(got.stats.packets, want.stats.packets);
    for (int f = 0; f < flow::feature_count; ++f)
        EXPECT_EQ(got.stats.snapshot.entropies[f],
                  want.stats.snapshot.entropies[f]);
    EXPECT_EQ(got.verdict.scored, want.verdict.scored);
    EXPECT_EQ(got.verdict.anomalous, want.verdict.anomalous);
    EXPECT_EQ(got.verdict.spe, want.verdict.spe);
    EXPECT_EQ(got.verdict.threshold, want.verdict.threshold);
    EXPECT_EQ(got.verdict.top_od, want.verdict.top_od);
    ASSERT_EQ(got.verdict.flows.size(), want.verdict.flows.size());
    for (std::size_t k = 0; k < want.verdict.flows.size(); ++k) {
        EXPECT_EQ(got.verdict.flows[k].od, want.verdict.flows[k].od);
        EXPECT_EQ(got.verdict.flows[k].magnitude,
                  want.verdict.flows[k].magnitude);
    }
}

/// The counting (non-timing) metrics.
void expect_counters_identical(const pipeline_metrics& got,
                               const pipeline_metrics& want) {
    EXPECT_EQ(got.records_in, want.records_in);
    EXPECT_EQ(got.records_accumulated, want.records_accumulated);
    EXPECT_EQ(got.resolver_drops.unknown_ingress,
              want.resolver_drops.unknown_ingress);
    EXPECT_EQ(got.resolver_drops.unresolvable_egress,
              want.resolver_drops.unresolvable_egress);
    EXPECT_EQ(got.late_records, want.late_records);
    EXPECT_EQ(got.records_dropped_bad_od, want.records_dropped_bad_od);
    EXPECT_EQ(got.bins_emitted, want.bins_emitted);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.time_base_resets, want.time_base_resets);
    EXPECT_EQ(got.anomalies, want.anomalies);
}

void expect_identical(const outcome& got, const outcome& want) {
    ASSERT_EQ(got.bins.size(), want.bins.size());
    for (std::size_t b = 0; b < want.bins.size(); ++b)
        expect_bins_identical(got.bins[b], want.bins[b]);
    EXPECT_EQ(got.resets, want.resets);
    expect_counters_identical(got.metrics, want.metrics);
}

void expect_conservation(const pipeline_metrics& m) {
    EXPECT_EQ(m.records_in, m.records_accumulated + m.late_records +
                                m.resolver_drops.unknown_ingress +
                                m.resolver_drops.unresolvable_egress +
                                m.records_dropped_bad_od);
}

/// Run with a checkpoint taken in the on_bin observer of bin `cut`
/// (0-based emission index); returns the snapshot bytes and the
/// records consumed at the cut.
std::pair<std::vector<std::uint8_t>, std::uint64_t> checkpoint_at(
    const net::topology& topo, const pipeline_options& opts,
    const random_stream& s, std::size_t cut) {
    cut_checkpoint ck;
    run_pushed(topo, opts, s, cut, &ck);
    return {ck.bytes, ck.metrics.records_in};
}

/// push() the records before `cut`, finish(), then push() the rest and
/// finish(). `closed` receives the emission index and the bin of what
/// the mid-stream finish() emitted.
outcome run_with_finish_at(const net::topology& topo,
                           const pipeline_options& opts,
                           const random_stream& s, std::size_t cut,
                           std::pair<std::size_t, std::size_t>& closed) {
    stream_pipeline p(topo, opts);
    outcome out;
    observe(p, out);
    p.push(std::span(s.records).first(cut));
    p.finish();
    closed = {out.bins.size() - 1, out.bins.back().stats.bin};
    p.push(std::span(s.records).subspan(cut));
    p.finish();
    out.metrics = p.metrics();
    return out;
}

/// Where an uninterrupted pipeline holding bin `open` first moves its
/// cursor after `cut` (the first record of a later bin, or of a bin
/// beyond max_gap_bins behind it; records.size() if none), and how many
/// resolvable records of bin `open` arrive before that.
struct cut_shape {
    std::size_t decisive = 0;
    std::uint64_t open_bin_records = 0;
};

cut_shape shape_after(const random_stream& s, const flow::od_resolver& resolver,
                      std::size_t cut, std::size_t open, std::size_t max_gap) {
    cut_shape shape{s.records.size(), 0};
    for (std::size_t i = cut; i < s.records.size(); ++i) {
        const std::size_t b = flow::bin_index(s.records[i].first_us);
        if (b > open || open - b > max_gap) {
            shape.decisive = i;
            break;
        }
        if (b == open && resolver.resolve(s.records[i]))
            ++shape.open_bin_records;
    }
    return shape;
}

/// Each time-base reset's (from, to), without the emitted-bin tag: a
/// finish() just before a reset emits the closing bin ahead of the
/// reset event instead of after it.
std::vector<std::pair<std::size_t, std::size_t>> reset_jumps(const outcome& o) {
    std::vector<std::pair<std::size_t, std::size_t>> jumps;
    for (const auto& r : o.resets)
        jumps.emplace_back(std::get<1>(r), std::get<2>(r));
    return jumps;
}

/// A fresh pipeline restored from `bytes`, observed into `out`.
void restore_into(stream_pipeline& p, std::vector<std::uint8_t> bytes,
                  outcome& out) {
    p.restore_state(io::snapshot_reader(std::move(bytes),
                                        p.config_fingerprint()));
    observe(p, out);
}

/// Restore `ck`, taken after emission `cut`, push() the records after
/// its records_in and finish(): the later bins, the later resets and
/// the final counters must equal the uninterrupted `ref`'s.
void expect_resume_identical(const net::topology& topo,
                             const pipeline_options& opts,
                             const random_stream& s, const cut_checkpoint& ck,
                             std::size_t cut, const outcome& ref) {
    ASSERT_FALSE(ck.bytes.empty());
    stream_pipeline resumed(topo, opts);
    outcome after;
    restore_into(resumed, ck.bytes, after);
    resumed.push(std::span(s.records).subspan(
        static_cast<std::size_t>(ck.metrics.records_in)));
    resumed.finish();
    after.metrics = resumed.metrics();
    ASSERT_EQ(after.bins.size(), ref.bins.size() - cut - 1);
    for (std::size_t b = 0; b < after.bins.size(); ++b)
        expect_bins_identical(after.bins[b], ref.bins[cut + 1 + b]);
    std::vector<std::tuple<std::uint64_t, std::size_t, std::size_t>> later;
    for (const auto& r : ref.resets)
        if (std::get<0>(r) > cut) later.push_back(r);
    EXPECT_EQ(after.resets, later);
    expect_counters_identical(after.metrics, ref.metrics);
}

}  // namespace

TEST(StreamPropertyTest, RandomStreamsConserveAndAgreeAcrossShardsSpoolAndResume) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    std::uint64_t records = 0, resets = 0, late = 0, empty = 0, anomalies = 0,
                  rejects = 0, bins = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const random_stream s = make_random_stream(bg, seed);
        rng g{seed * 7919};

        // 1 + 2: the ledger, and identity across shard counts and run().
        const outcome ref = run_pushed(topo, make_opts(1, kMaxGap), s);
        expect_conservation(ref.metrics);
        EXPECT_EQ(ref.metrics.records_in, s.records.size());
        for (const std::size_t shards : {2u, 4u}) {
            SCOPED_TRACE(testing::Message() << "shards " << shards);
            expect_identical(run_pushed(topo, make_opts(shards, kMaxGap), s),
                             ref);
        }

        // 3: checkpoint at a random on_bin cut, restore, feed the rest;
        // run() on a spool takes the same cut from its observer.
        ASSERT_FALSE(ref.bins.empty());
        const std::size_t frame_records[] = {1 + g.below(700), 1 + g.below(700)};
        const std::size_t cut = g.below(ref.bins.size());
        auto opts = make_opts(2, kMaxGap);
        cut_checkpoint pushed;
        run_pushed(topo, opts, s, cut, &pushed);
        {
            SCOPED_TRACE(testing::Message() << "resume after bin " << cut);
            expect_resume_identical(topo, opts, s, pushed, cut, ref);
        }
        const std::size_t depths[] = {1, pipeline_options{}.queue_frames};
        for (std::size_t d = 0; d < 2; ++d) {
            SCOPED_TRACE(testing::Message()
                         << "run() on a codec spool, queue_frames "
                         << depths[d] << ", " << frame_records[d]
                         << " records per frame");
            opts.queue_frames = depths[d];
            cut_checkpoint spooled_ck;
            const outcome spooled =
                run_spooled(topo, opts, s, frame_records[d], cut, &spooled_ck);
            expect_conservation(spooled.metrics);
            expect_identical(spooled, ref);
            expect_counters_identical(spooled_ck.metrics, pushed.metrics);
            expect_resume_identical(topo, opts, s, spooled_ck, cut, ref);
        }

        const pipeline_metrics& m = ref.metrics;
        records += m.records_in;
        resets += m.time_base_resets;
        late += m.late_records;
        empty += m.empty_bins;
        anomalies += m.anomalies;
        rejects += m.resolver_drops.unknown_ingress +
                   m.resolver_drops.unresolvable_egress;
        bins += m.bins_emitted;
    }
    // The totals show what the seeds exercised; every path must occur.
    std::printf("property totals: seeds %zu, records %llu, bins %llu, "
                "resets %llu, late %llu, empty bins %llu, anomalies %llu, "
                "resolver rejects %llu\n",
                kSeeds, static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(bins),
                static_cast<unsigned long long>(resets),
                static_cast<unsigned long long>(late),
                static_cast<unsigned long long>(empty),
                static_cast<unsigned long long>(anomalies),
                static_cast<unsigned long long>(rejects));
    EXPECT_GT(resets, 0u);
    EXPECT_GT(late, 0u);
    EXPECT_GT(empty, 0u);
    EXPECT_GT(anomalies, 0u);
    EXPECT_GT(rejects, 0u);
}

TEST(StreamPropertyTest, ReplayWithinMaxGapLateDropsExactlyThePrefix) {
    // An in-order 16-bin stream with max_gap_bins = 50: every replayed
    // bin is within the gap bound of the restored cursor, so replaying
    // from the start of the stream drops the consumed prefix as late
    // and changes no later verdict.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto opts = make_opts(2, 50);
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        rng g{seed};
        std::vector<int> ods;
        for (std::size_t k = 0; k < kOdsPerBin; ++k)
            ods.push_back(static_cast<int>(
                g.below(static_cast<std::size_t>(topo.od_count()))));
        random_stream s;
        for (std::size_t b = 0; b < 16; ++b)
            append_bin(bg, ods, kStartBin + b, s.records);
        s.batches = {s.records.size()};

        const outcome ref = run_pushed(topo, opts, s);
        ASSERT_EQ(ref.bins.size(), 16u);
        ASSERT_EQ(ref.metrics.late_records, 0u);
        const std::size_t cut = g.below(ref.bins.size());
        auto [bytes, consumed] = checkpoint_at(topo, opts, s, cut);
        ASSERT_GT(consumed, 0u);

        stream_pipeline resumed(topo, opts);
        outcome after;
        restore_into(resumed, std::move(bytes), after);
        resumed.push(s.records);  // the whole stream, prefix included
        resumed.finish();
        const pipeline_metrics& m = resumed.metrics();

        EXPECT_EQ(m.late_records, consumed);
        EXPECT_EQ(m.records_in, ref.metrics.records_in + consumed);
        EXPECT_EQ(m.records_accumulated, ref.metrics.records_accumulated);
        EXPECT_EQ(m.bins_emitted, ref.metrics.bins_emitted);
        EXPECT_EQ(m.anomalies, ref.metrics.anomalies);
        EXPECT_EQ(m.time_base_resets, 0u);
        expect_conservation(m);
        ASSERT_EQ(after.bins.size(), ref.bins.size() - cut - 1);
        for (std::size_t b = 0; b < after.bins.size(); ++b)
            expect_bins_identical(after.bins[b], ref.bins[cut + 1 + b]);
    }
}

TEST(StreamPropertyTest, FinishAtARandomCutContinuesTheStream) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const flow::od_resolver resolver(topo);
    const auto opts = make_opts(2, kMaxGap);
    std::size_t mid_bin_cuts = 0, boundary_cuts = 0;
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        const random_stream s = make_random_stream(bg, seed);
        const outcome ref = run_pushed(topo, opts, s);
        rng g{seed * 104729};
        std::size_t cut = 1 + g.below(s.records.size() - 1);
        std::pair<std::size_t, std::size_t> closed;
        const outcome got = run_with_finish_at(topo, opts, s, cut, closed);
        const auto [emitted_at, open] = closed;
        const cut_shape shape = shape_after(s, resolver, cut, open, kMaxGap);
        expect_conservation(got.metrics);
        EXPECT_EQ(reset_jumps(got), reset_jumps(ref));
        ASSERT_EQ(got.bins.size(), ref.bins.size());

        if (shape.open_bin_records > 0) {
            // Mid-bin: the cut bin closes early and its later records
            // are late; every bin index and every other counter matches.
            SCOPED_TRACE(testing::Message() << "mid-bin cut " << cut);
            ++mid_bin_cuts;
            const pipeline_metrics& m = got.metrics;
            const pipeline_metrics& r = ref.metrics;
            EXPECT_EQ(m.late_records, r.late_records + shape.open_bin_records);
            EXPECT_EQ(m.records_accumulated,
                      r.records_accumulated - shape.open_bin_records);
            EXPECT_EQ(m.records_in, r.records_in);
            EXPECT_EQ(m.resolver_drops.total(), r.resolver_drops.total());
            EXPECT_EQ(m.bins_emitted, r.bins_emitted);
            EXPECT_EQ(m.empty_bins, r.empty_bins);
            EXPECT_EQ(m.time_base_resets, r.time_base_resets);
            for (std::size_t b = 0; b < emitted_at; ++b)
                expect_bins_identical(got.bins[b], ref.bins[b]);
            for (std::size_t b = emitted_at; b < ref.bins.size(); ++b) {
                EXPECT_EQ(got.bins[b].stats.bin, ref.bins[b].stats.bin);
                EXPECT_EQ(got.bins[b].stats.records +
                              (b == emitted_at ? shape.open_bin_records : 0),
                          ref.bins[b].stats.records);
            }
            // The record that moves the cursor on from the cut bin marks
            // its boundary; cut there instead.
            cut = shape.decisive;
        }

        // At a bin boundary a finish() changes nothing.
        SCOPED_TRACE(testing::Message() << "boundary cut " << cut);
        ++boundary_cuts;
        std::pair<std::size_t, std::size_t> at_boundary;
        const outcome whole =
            run_with_finish_at(topo, opts, s, cut, at_boundary);
        EXPECT_EQ(at_boundary, closed);
        expect_conservation(whole.metrics);
        EXPECT_EQ(reset_jumps(whole), reset_jumps(ref));
        ASSERT_EQ(whole.bins.size(), ref.bins.size());
        for (std::size_t b = 0; b < ref.bins.size(); ++b)
            expect_bins_identical(whole.bins[b], ref.bins[b]);
        expect_counters_identical(whole.metrics, ref.metrics);
    }
    std::printf("finish() cuts: %zu mid-bin, %zu at a bin boundary\n",
                mid_bin_cuts, boundary_cuts);
    EXPECT_GT(mid_bin_cuts, 0u);
}
