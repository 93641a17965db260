// The observability reconciliation contract (pinned in obs/event.h):
// for a pipeline drained through obs::pipeline_bridge, the structured
// event stream reconciles EXACTLY with pipeline_metrics — no event is
// lost, none is double-counted — and the metrics themselves satisfy the
// conservation invariant
//
//   records_in == records_accumulated + late_records
//                 + resolver_drops.unknown_ingress
//                 + resolver_drops.unresolvable_egress
//                 + records_dropped_bad_od
//
// under every degraded-operation mode at once: stragglers and other
// late drops, resolver drops, empty gap bins, a time-base reset,
// corrupt-frame quarantine, backpressure, and a crash/restore resume
// with the event sequence continuing across the restart.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "io/fault.h"
#include "net/topology.h"
#include "obs/alert.h"
#include "obs/bridge.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "stream/checkpoint.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kBins = 12;
constexpr double kBitRate = 4e-6;

core::online_options small_online() {
    core::online_options o;
    o.window = 8;
    o.warmup = 4;
    o.refit_interval = 2;
    o.subspace.normal_dims = 2;
    return o;
}

/// All ODs' background records for one bin.
std::vector<flow::flow_record> gen_bin(const traffic::background_model& bg,
                                       std::size_t bin) {
    std::vector<flow::flow_record> records;
    for (int od = 0; od < bg.topo().od_count(); ++od) {
        const auto cell = bg.generate(bin, od);
        records.insert(records.end(), cell.begin(), cell.end());
    }
    return records;
}

std::string build_spool(const traffic::background_model& bg) {
    std::ostringstream os;
    flow_codec_writer writer(os);
    for (std::size_t bin = 0; bin < kBins; ++bin) {
        writer.add(gen_bin(bg, bin));
        writer.flush_frame();
    }
    writer.finish();
    return os.str();
}

/// A seed whose bit flips quarantine at least one frame (with records)
/// without blowing the reader's error budget.
std::uint64_t probe_corruption_seed(const std::string& spool) {
    for (std::uint64_t seed = 1; seed < 500; ++seed) {
        std::istringstream clean(spool);
        io::fault_injector faults({.seed = seed, .bit_flip_per_byte = kBitRate});
        io::fault_streambuf degraded(*clean.rdbuf(), faults);
        std::istream in(&degraded);
        codec_read_options opts;
        opts.on_corrupt = corrupt_policy::quarantine;
        flow_codec_reader reader(in, opts);
        std::vector<flow::flow_record> frame;
        try {
            while (reader.next_frame(frame)) {
            }
        } catch (const codec_error&) {
            continue;
        }
        const quarantine_stats q = reader.quarantine();
        if (q.frames_quarantined > 0 && q.records_lost_corrupt > 0)
            return seed;
    }
    throw std::logic_error("no corruption seed in probe range");
}

struct temp_dir {
    fs::path path;
    explicit temp_dir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("tfd_obs_reconcile_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~temp_dir() { fs::remove_all(path); }
};

/// The full observability harness a daemon would wire up.
struct obs_harness {
    obs::metrics_registry registry;
    obs::alert_manager alerts;
    obs::memory_sink sink;

    obs::bridge_options options(const net::topology& topo,
                                std::uint64_t first_seq = 1) {
        obs::bridge_options o;
        o.sink = &sink;
        o.registry = &registry;
        o.alerts = &alerts;
        o.topology = &topo;
        o.first_seq = first_seq;
        return o;
    }
};

std::uint64_t sum_bin_closed_records(const std::vector<obs::event>& events) {
    std::uint64_t sum = 0;
    for (const obs::event& e : events)
        sum += std::get<obs::bin_closed_data>(e.data).records;
    return sum;
}

std::uint64_t counter_value(obs::metrics_registry& reg, const char* name) {
    return reg.get_counter(name, "").value();
}

/// The conservation invariant every drained pipeline must satisfy.
/// Every term is explicit — including records_dropped_bad_od, which
/// used to be an uncounted skip inside od_shard_set::accumulate, so
/// the equality only held because the resolver never emits a positive
/// out-of-range OD.
void expect_conservation(const pipeline_metrics& pm) {
    EXPECT_EQ(pm.records_in,
              pm.records_accumulated + pm.late_records +
                  pm.resolver_drops.unknown_ingress +
                  pm.resolver_drops.unresolvable_egress +
                  pm.records_dropped_bad_od);
}

}  // namespace

TEST(ObsReconcile, LateDropsGapAndResetReconcileExactly) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);

    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();
    opts.online.alpha = 0.5;  // permissive threshold: anomalies do occur
    opts.max_gap_bins = 20;

    stream_pipeline p(topo, opts);
    obs_harness h;
    obs::pipeline_bridge bridge(p, h.options(topo));
    p.on_bin([&](const bin_result& r) { bridge.observe_bin(r); });

    std::uint64_t pushed = 0;
    const auto push = [&](const std::vector<flow::flow_record>& records) {
        p.push(records);
        pushed += records.size();
    };
    const auto push_bin = [&](std::size_t b) { push(gen_bin(bg, b)); };

    // Bins 0..4 in order, then stragglers for bin 3, already scored,
    // land behind the cursor and are dropped as late.
    for (std::size_t b = 0; b <= 4; ++b) push_bin(b);
    const auto stragglers = gen_bin(bg, 3);
    push(stragglers);

    // Bins 5, 6, then a gap at 7 (emitted as an empty bin), then 8..11.
    push_bin(5);
    push_bin(6);
    for (std::size_t b = 8; b <= 11; ++b) push_bin(b);

    // More late records: bin 0 closed long ago, still within
    // max_gap_bins of the cursor (so not a time-base reset).
    const auto late = gen_bin(bg, 0);
    push(late);

    // Resolver drops: one record with no ingress PoP stamped, one with a
    // destination outside every PoP prefix.
    std::vector<flow::flow_record> bad = {gen_bin(bg, 11)[0],
                                          gen_bin(bg, 11)[1]};
    bad[0].ingress_pop = -1;                    // unknown_ingress
    bad[1].key.dst = net::ipv4{0xFA000001u};    // 250.0.0.1: unresolvable
    push(bad);

    // A forward jump beyond max_gap_bins: time-base reset to bin 40.
    push_bin(40);
    push_bin(41);
    p.finish();
    bridge.sync_metrics();

    const pipeline_metrics& pm = p.metrics();

    // The conservation invariant, with every degraded path populated.
    expect_conservation(pm);
    EXPECT_EQ(pm.records_in, pushed);
    EXPECT_EQ(pm.late_records, stragglers.size() + late.size());
    EXPECT_EQ(pm.resolver_drops.unknown_ingress, 1u);
    EXPECT_EQ(pm.resolver_drops.unresolvable_egress, 1u);
    EXPECT_EQ(pm.empty_bins, 1u);            // the gap at bin 7
    EXPECT_EQ(pm.time_base_resets, 1u);      // 11 -> 40
    EXPECT_EQ(pm.bins_emitted, 14u);         // 0..11 plus 40, 41
    EXPECT_GE(pm.anomalies, 1u);             // alpha 0.5 guarantees some

    // Event-stream totals reconcile exactly with the metrics.
    const auto bins = h.sink.events_of(obs::event_type::bin_closed);
    EXPECT_EQ(bins.size(), pm.bins_emitted);
    EXPECT_EQ(sum_bin_closed_records(bins), pm.records_accumulated);
    std::uint64_t empty = 0, anomalous = 0;
    for (const obs::event& e : bins) {
        const auto& d = std::get<obs::bin_closed_data>(e.data);
        empty += d.empty ? 1 : 0;
        anomalous += d.anomalous ? 1 : 0;
    }
    EXPECT_EQ(empty, pm.empty_bins);
    EXPECT_EQ(anomalous, pm.anomalies);

    const auto anomalies = h.sink.events_of(obs::event_type::anomaly);
    EXPECT_EQ(anomalies.size(), pm.anomalies);
    std::uint64_t delivered = 0, suppressed = 0;
    for (const obs::event& e : anomalies) {
        const auto& a = std::get<obs::anomaly_data>(e.data);
        EXPECT_GE(a.od, 0);
        EXPECT_FALSE(a.origin.empty());  // topology was provided
        EXPECT_FALSE(a.severity.empty());
        EXPECT_GT(a.spe, 0.0);
        (a.suppressed ? suppressed : delivered) += 1;
    }
    EXPECT_EQ(delivered, h.alerts.alerts_total());
    EXPECT_EQ(suppressed, h.alerts.suppressed_total());
    EXPECT_EQ(delivered + suppressed, pm.anomalies);

    const auto resets = h.sink.events_of(obs::event_type::time_base_reset);
    ASSERT_EQ(resets.size(), pm.time_base_resets);
    const auto& reset = std::get<obs::time_base_reset_data>(resets[0].data);
    EXPECT_EQ(reset.to_bin, 40u);
    EXPECT_LT(reset.from_bin, 40u);

    // The registry mirrors the metrics (set_to adoption at bin close).
    EXPECT_EQ(counter_value(h.registry, "tfd_records_in_total"),
              pm.records_in);
    EXPECT_EQ(counter_value(h.registry, "tfd_records_accumulated_total"),
              pm.records_accumulated);
    EXPECT_EQ(counter_value(h.registry, "tfd_records_late_total"),
              pm.late_records);
    EXPECT_EQ(counter_value(h.registry, "tfd_records_dropped_bad_od_total"),
              pm.records_dropped_bad_od);
    EXPECT_EQ(counter_value(h.registry,
                            "tfd_resolver_drops_unknown_ingress_total"),
              pm.resolver_drops.unknown_ingress);
    EXPECT_EQ(counter_value(h.registry,
                            "tfd_resolver_drops_unresolvable_egress_total"),
              pm.resolver_drops.unresolvable_egress);
    EXPECT_EQ(counter_value(h.registry, "tfd_bins_emitted_total"),
              pm.bins_emitted);
    EXPECT_EQ(counter_value(h.registry, "tfd_bins_empty_total"),
              pm.empty_bins);
    EXPECT_EQ(counter_value(h.registry, "tfd_anomalies_total"), pm.anomalies);
    EXPECT_EQ(counter_value(h.registry, "tfd_time_base_resets_total"),
              pm.time_base_resets);
    EXPECT_EQ(counter_value(h.registry, "tfd_events_emitted_total"),
              h.sink.count());

    // Derived gauges expose the documented edge-case-guarded values.
    EXPECT_DOUBLE_EQ(
        h.registry.get_gauge("tfd_ingest_records_per_second", "").value(),
        pm.records_per_second());
    EXPECT_DOUBLE_EQ(
        h.registry.get_gauge("tfd_bin_close_mean_seconds", "").value(),
        pm.mean_bin_close_ms() * 1e-3);
}

TEST(ObsReconcile, QuarantinedRunReconcilesEventDeltas) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::string spool = build_spool(bg);
    const std::uint64_t seed = probe_corruption_seed(spool);

    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();
    opts.queue_frames = 1;  // tiny queue: backpressure becomes plausible

    obs_harness h;
    obs::stage_timers timers = obs::register_stage_timers(h.registry);
    opts.timers = &timers;

    stream_pipeline p(topo, opts);
    obs::pipeline_bridge bridge(p, h.options(topo));
    p.on_bin([&](const bin_result& r) { bridge.observe_bin(r); });

    std::istringstream clean(spool);
    io::fault_injector faults({.seed = seed, .bit_flip_per_byte = kBitRate});
    io::fault_streambuf degraded(*clean.rdbuf(), faults);
    std::istream in(&degraded);
    codec_read_options ropts;
    ropts.on_corrupt = corrupt_policy::quarantine;
    flow_codec_reader reader(in, ropts);
    const std::size_t frames = p.run(reader);
    bridge.sync_metrics();

    const pipeline_metrics& pm = p.metrics();
    expect_conservation(pm);
    ASSERT_GT(pm.frames_quarantined, 0u);  // the probed seed guarantees it

    // Quarantine events carry per-run deltas; their sums reproduce the
    // folded pipeline counters exactly.
    std::uint64_t ev_frames = 0, ev_lost = 0, ev_resync = 0;
    for (const obs::event& e :
         h.sink.events_of(obs::event_type::quarantine)) {
        const auto& q = std::get<obs::quarantine_data>(e.data);
        ev_frames += q.frames;
        ev_lost += q.records_lost;
        ev_resync += q.resync_bytes;
    }
    EXPECT_EQ(ev_frames, pm.frames_quarantined);
    EXPECT_EQ(ev_lost, pm.records_lost_corrupt);
    EXPECT_EQ(ev_resync, pm.resync_bytes_skipped);
    EXPECT_EQ(counter_value(h.registry, "tfd_frames_quarantined_total"),
              pm.frames_quarantined);
    EXPECT_EQ(counter_value(h.registry, "tfd_records_lost_corrupt_total"),
              pm.records_lost_corrupt);
    EXPECT_EQ(counter_value(h.registry, "tfd_resync_bytes_skipped_total"),
              pm.resync_bytes_skipped);

    // Backpressure: the counter equals the event-delta sum whether or
    // not the tiny queue actually blocked this run.
    std::uint64_t ev_blocked = 0;
    for (const obs::event& e :
         h.sink.events_of(obs::event_type::backpressure))
        ev_blocked +=
            std::get<obs::backpressure_data>(e.data).blocked_pushes;
    EXPECT_EQ(ev_blocked, p.last_run_blocked_pushes());
    EXPECT_EQ(
        counter_value(h.registry, "tfd_backpressure_blocked_pushes_total"),
        ev_blocked);

    // Stage timers observed the run: one bin-close sample per emitted
    // bin, one accumulate sample per consumed frame, decode samples for
    // at least every frame.
    EXPECT_EQ(timers.bin_close->count(), pm.bins_emitted);
    EXPECT_EQ(timers.accumulate->count(), frames);
    EXPECT_GE(timers.decode->count(), frames);

    const auto bins = h.sink.events_of(obs::event_type::bin_closed);
    EXPECT_EQ(bins.size(), pm.bins_emitted);
    EXPECT_EQ(sum_bin_closed_records(bins), pm.records_accumulated);
    // Per-bin close_ns deltas sum back to the cumulative counter.
    std::uint64_t ev_close_ns = 0;
    for (const obs::event& e : bins)
        ev_close_ns += std::get<obs::bin_closed_data>(e.data).close_ns;
    EXPECT_EQ(ev_close_ns, pm.bin_close_ns);
}

TEST(ObsReconcile, ResumeFromRunCheckpointKeepsQuarantineCounts) {
    // Frames of 997 records that ignore bin boundaries, so a checkpoint
    // cut falls inside a frame. Three frames get one payload byte
    // flipped (a checksum mismatch quarantines each whole): one before
    // the bin-6 checkpoint, one after it, and the last frame, which has
    // no surviving frame after it.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    std::vector<flow::flow_record> all;
    for (std::size_t bin = 0; bin < kBins; ++bin) {
        const auto records = gen_bin(bg, bin);
        all.insert(all.end(), records.begin(), records.end());
    }
    constexpr std::size_t kFrameRecords = 997;
    constexpr std::size_t kHeaderBytes = 24;
    std::ostringstream os;
    std::vector<std::size_t> offsets, sizes, first_bins;
    {
        flow_codec_writer writer(os);
        for (std::size_t i = 0; i < all.size(); i += kFrameRecords) {
            const auto frame = std::span(all).subspan(
                i, std::min(kFrameRecords, all.size() - i));
            offsets.push_back(static_cast<std::size_t>(os.tellp()));
            sizes.push_back(frame.size());
            first_bins.push_back(flow::bin_index(frame.front().first_us));
            writer.add(frame);
            writer.flush_frame();
        }
        writer.finish();
    }
    std::string spool = os.str();
    const auto frame_in_bin = [&](std::size_t bin) {
        return static_cast<std::size_t>(
            std::find(first_bins.begin(), first_bins.end(), bin) -
            first_bins.begin());
    };
    const std::size_t corrupt[] = {frame_in_bin(2), frame_in_bin(9),
                                   offsets.size() - 1};
    std::uint64_t corrupt_records = 0;
    for (const std::size_t f : corrupt) {
        ASSERT_LT(f, offsets.size());
        spool[offsets[f] + kHeaderBytes + 10] ^= 0x10;
        corrupt_records += sizes[f];
    }

    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();
    codec_read_options ropts;
    ropts.on_corrupt = corrupt_policy::quarantine;
    const temp_dir dir("run_ckpt");

    // Uninterrupted run, checkpointing every 3 bins from run()'s own
    // on_bin: checkpoint-000001 holds bins 0-5, checkpoint-000003 all 12.
    pipeline_metrics full;
    {
        stream_pipeline p(topo, opts);
        obs_harness h;
        obs::pipeline_bridge bridge(p, h.options(topo));
        periodic_checkpointer ckpt(p, dir.path.string(), 3);
        bridge.wire_checkpointer(ckpt);
        p.on_bin([&](const bin_result& r) {
            bridge.observe_bin(r);
            ckpt.on_bin_emitted();
        });
        std::istringstream in(spool);
        flow_codec_reader reader(in, ropts);
        p.run(reader);
        full = p.metrics();
        ASSERT_EQ(ckpt.checkpoints_written(), 4u);
    }
    ASSERT_EQ(full.frames_quarantined, 3u);
    EXPECT_EQ(full.records_lost_corrupt, corrupt_records);

    for (const auto& [name, restored_frames] :
         {std::pair{"checkpoint-000001.tfss", 1u},
          std::pair{"checkpoint-000003.tfss", 2u}}) {
        SCOPED_TRACE(name);
        stream_pipeline p(topo, opts);
        restore_checkpoint(p, (dir.path / name).string());
        // The checkpoint holds the losses before its cut, no more.
        EXPECT_EQ(p.metrics().frames_quarantined, restored_frames);
        const std::uint64_t restored_lost = p.metrics().records_lost_corrupt;

        obs_harness h;
        obs::pipeline_bridge bridge(p, h.options(topo));
        p.on_bin([&](const bin_result& r) { bridge.observe_bin(r); });

        // Resume as the daemon does: skip records_in surviving records
        // frame by frame, push the rest of the frame the cut falls in,
        // then drain the remainder through run().
        std::istringstream in(spool);
        flow_codec_reader reader(in, ropts);
        std::uint64_t skip = p.metrics().records_in;
        std::vector<flow::flow_record> frame;
        bool cut_inside_frame = false;
        while (skip > 0 && reader.next_frame(frame)) {
            const auto n = static_cast<std::size_t>(
                std::min<std::uint64_t>(skip, frame.size()));
            skip -= n;
            if (n < frame.size()) {
                p.push(std::span<const flow::flow_record>(frame).subspan(n));
                cut_inside_frame = true;
            }
        }
        ASSERT_EQ(skip, 0u);
        if (restored_frames == 1) {
            EXPECT_TRUE(cut_inside_frame);
        }
        p.run(reader);

        const pipeline_metrics& pm = p.metrics();
        expect_conservation(pm);
        EXPECT_EQ(pm.records_in, full.records_in);
        EXPECT_EQ(pm.bins_emitted, full.bins_emitted);
        EXPECT_EQ(pm.anomalies, full.anomalies);
        EXPECT_EQ(pm.frames_quarantined, full.frames_quarantined);
        EXPECT_EQ(pm.records_lost_corrupt, full.records_lost_corrupt);
        EXPECT_EQ(pm.resync_bytes_skipped, full.resync_bytes_skipped);

        // This run's quarantine event carries only what it added.
        std::uint64_t ev_frames = 0, ev_lost = 0;
        for (const obs::event& e :
             h.sink.events_of(obs::event_type::quarantine)) {
            const auto& q = std::get<obs::quarantine_data>(e.data);
            ev_frames += q.frames;
            ev_lost += q.records_lost;
        }
        EXPECT_EQ(ev_frames, pm.frames_quarantined - restored_frames);
        EXPECT_EQ(ev_lost, pm.records_lost_corrupt - restored_lost);
    }
}

TEST(ObsReconcile, ResumeContinuesSequenceAndReconcilesDeltas) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::string spool = build_spool(bg);

    pipeline_options opts;
    opts.shards = 2;
    opts.online = small_online();

    const temp_dir dir("resume");
    constexpr std::size_t kCrashBin = 6;

    // --- attempt 0: ingest, checkpoint every 2 bins, crash mid-frame --
    obs_harness a;
    std::uint64_t last_seq_a = 0;
    std::uint64_t ckpts_a = 0;
    std::vector<obs::event> bins_a;
    {
        stream_pipeline p(topo, opts);
        obs::pipeline_bridge bridge(p, a.options(topo));
        periodic_checkpointer ckpt(p, dir.path.string(), 2, /*keep_last=*/0);
        bridge.wire_checkpointer(ckpt);
        p.on_bin([&](const bin_result& r) {
            bridge.observe_bin(r);
            ckpt.on_bin_emitted();
        });
        std::istringstream in(spool);
        flow_codec_reader reader(in);
        std::vector<flow::flow_record> frame;
        bool crashed = false;
        while (!crashed && reader.next_frame(frame)) {
            if (p.metrics().bins_emitted >= kCrashBin && !frame.empty()) {
                p.push(std::span(frame).first(frame.size() / 2));
                crashed = true;
                break;
            }
            p.push(frame);
        }
        ASSERT_TRUE(crashed);
        ckpts_a = ckpt.checkpoints_written();
        ASSERT_GT(ckpts_a, 0u);
        bins_a = a.sink.events_of(obs::event_type::bin_closed);
        for (const obs::event& e : a.sink.events())
            last_seq_a = std::max(last_seq_a, e.seq);
        // No finish(): abandoned exactly as a killed process.
    }

    // Every checkpoint produced one checkpoint_saved event, and the
    // registry counted them.
    const auto saved = a.sink.events_of(obs::event_type::checkpoint_saved);
    ASSERT_EQ(saved.size(), ckpts_a);
    for (std::size_t i = 1; i < saved.size(); ++i) {
        EXPECT_GT(std::get<obs::checkpoint_saved_data>(saved[i].data).seq,
                  std::get<obs::checkpoint_saved_data>(saved[i - 1].data).seq);
    }
    EXPECT_EQ(counter_value(a.registry, "tfd_checkpoints_written_total"),
              ckpts_a);
    EXPECT_EQ(counter_value(a.registry, "tfd_checkpoint_retries_total"), 0u);

    // --- attempt 1: restore, continue the event sequence, replay ------
    obs_harness b;
    stream_pipeline p(topo, opts);
    const auto report = restore_latest_checkpoint(p, dir.path.string());
    ASSERT_FALSE(report.restored_path.empty());
    obs::pipeline_bridge bridge(p, b.options(topo, last_seq_a + 1));
    bridge.emit_checkpoint_restored(report);
    p.on_bin([&](const bin_result& r) { bridge.observe_bin(r); });

    const std::uint64_t bins_at_restore = p.metrics().bins_emitted;
    const std::uint64_t acc_at_restore = p.metrics().records_accumulated;
    ASSERT_GT(bins_at_restore, 0u);

    // The restore event leads the new stream and names the exact resume
    // position.
    {
        const auto events = b.sink.events();
        ASSERT_FALSE(events.empty());
        EXPECT_EQ(events[0].seq, last_seq_a + 1);
        const auto& d =
            std::get<obs::checkpoint_restored_data>(events[0].data);
        EXPECT_EQ(d.bins_emitted, bins_at_restore);
        EXPECT_EQ(d.records_in, p.metrics().records_in);
        EXPECT_EQ(d.path, report.restored_path);
    }

    // Replay: skip exactly records_in within the (identical) stream.
    std::uint64_t skip = p.metrics().records_in;
    std::istringstream in(spool);
    flow_codec_reader reader(in);
    std::vector<flow::flow_record> frame;
    while (reader.next_frame(frame)) {
        std::span<const flow::flow_record> s(frame);
        if (skip >= s.size()) {
            skip -= s.size();
            continue;
        }
        s = s.subspan(static_cast<std::size_t>(skip));
        skip = 0;
        p.push(s);
    }
    ASSERT_EQ(skip, 0u);
    p.finish();
    bridge.sync_metrics();

    const pipeline_metrics& pm = p.metrics();
    expect_conservation(pm);
    EXPECT_EQ(pm.bins_emitted, kBins);

    // Delta reconciliation: attempt 1's events cover exactly the bins
    // and records beyond the restore cut.
    const auto bins_b = b.sink.events_of(obs::event_type::bin_closed);
    EXPECT_EQ(bins_b.size(), pm.bins_emitted - bins_at_restore);
    EXPECT_EQ(sum_bin_closed_records(bins_b),
              pm.records_accumulated - acc_at_restore);

    // Seqs continue strictly across the restart boundary.
    std::uint64_t prev = 0;
    for (const obs::event& e : a.sink.events()) {
        EXPECT_GT(e.seq, prev);
        prev = e.seq;
    }
    for (const obs::event& e : b.sink.events()) {
        EXPECT_GT(e.seq, prev);
        prev = e.seq;
    }

    // Stitched totals: attempt 0 owns bins below the cut, attempt 1 the
    // rest — together they reproduce the uninterrupted record count.
    std::uint64_t stitched = 0;
    for (const obs::event& e : bins_a)
        if (e.bin < bins_at_restore)
            stitched += std::get<obs::bin_closed_data>(e.data).records;
    stitched += sum_bin_closed_records(bins_b);
    std::uint64_t spool_records = 0;
    {
        std::istringstream cin(spool);
        flow_codec_reader r2(cin);
        std::vector<flow::flow_record> f2;
        while (r2.next_frame(f2)) spool_records += f2.size();
    }
    EXPECT_EQ(stitched, spool_records);
    EXPECT_EQ(pm.records_in, spool_records);

    // The restored registry mirrors the final metrics.
    EXPECT_EQ(counter_value(b.registry, "tfd_records_in_total"),
              pm.records_in);
    EXPECT_EQ(counter_value(b.registry, "tfd_bins_emitted_total"),
              pm.bins_emitted);
}
