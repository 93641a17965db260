// Checkpoint/restore integration: kill-at-record-K (mid-bin) and
// kill-at-bin-N (from the on_bin observer) both resume bit-identically
// to the uninterrupted run for shard counts {1, 2, 4}; corrupt,
// truncated, version-bumped and config-mismatched snapshot files are
// rejected loudly with distinct errors and never partially restore.
#include "stream/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <vector>

#include "io/snapshot.h"
#include "net/topology.h"
#include "stream/pipeline.h"
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

pipeline_options make_opts(std::size_t shards) {
    pipeline_options opts;
    opts.shards = shards;
    opts.online = small_online();
    return opts;
}

/// Everything a bin emission produced, captured for bit comparison.
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
    EXPECT_EQ(got.verdict.h_tilde, want.verdict.h_tilde);
    ASSERT_EQ(got.verdict.flows.size(), want.verdict.flows.size());
    for (std::size_t k = 0; k < want.verdict.flows.size(); ++k) {
        EXPECT_EQ(got.verdict.flows[k].od, want.verdict.flows[k].od);
        EXPECT_EQ(got.verdict.flows[k].magnitude,
                  want.verdict.flows[k].magnitude);
        EXPECT_EQ(got.verdict.flows[k].spe_after,
                  want.verdict.flows[k].spe_after);
    }
}

/// The counting (non-timing) metrics that must be identical modulo
/// restart; the ns timers measure wall-clock and legitimately differ.
void expect_counters_identical(const pipeline_metrics& got,
                               const pipeline_metrics& want) {
    EXPECT_EQ(got.records_in, want.records_in);
    EXPECT_EQ(got.records_accumulated, want.records_accumulated);
    EXPECT_EQ(got.resolver_drops.unknown_ingress,
              want.resolver_drops.unknown_ingress);
    EXPECT_EQ(got.resolver_drops.unresolvable_egress,
              want.resolver_drops.unresolvable_egress);
    EXPECT_EQ(got.late_records, want.late_records);
    EXPECT_EQ(got.bins_emitted, want.bins_emitted);
    EXPECT_EQ(got.empty_bins, want.empty_bins);
    EXPECT_EQ(got.time_base_resets, want.time_base_resets);
    EXPECT_EQ(got.anomalies, want.anomalies);
}

struct temp_dir {
    std::filesystem::path path;
    temp_dir() {
        path = std::filesystem::temp_directory_path() /
               ("tfd_ckpt_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(path);
    }
    ~temp_dir() { std::filesystem::remove_all(path); }
};

std::vector<bin_result> run_uninterrupted(const net::topology& topo,
                                          const pipeline_options& opts,
                                          std::span<const flow::flow_record> s,
                                          pipeline_metrics* metrics = nullptr) {
    stream_pipeline p(topo, opts);
    std::vector<bin_result> bins;
    p.on_bin([&](const bin_result& r) { bins.push_back(r); });
    p.push(s);
    p.finish();
    if (metrics) *metrics = p.metrics();
    return bins;
}

}  // namespace

TEST(CheckpointTest, KillMidBinAndResumeIsBitIdenticalForShards124) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const std::size_t bins = 12;
    const auto stream = make_stream(bg, bins);
    // Split mid-stream, deliberately inside a bin (bin-major generation
    // means any interior index is mid-bin with high probability).
    const std::size_t split = stream.size() * 2 / 5;

    for (const std::size_t shards : {1u, 2u, 4u}) {
        const auto opts = make_opts(shards);
        pipeline_metrics ref_metrics;
        const auto ref = run_uninterrupted(topo, opts, stream, &ref_metrics);

        const temp_dir dir;
        const std::string path = (dir.path / "ckpt.tfss").string();
        std::vector<bin_result> got;
        {
            // "Process 1": ingest a prefix ending mid-bin, checkpoint,
            // die without finish().
            stream_pipeline p(topo, opts);
            p.on_bin([&](const bin_result& r) { got.push_back(r); });
            p.push(std::span(stream).first(split));
            save_checkpoint(p, path);
        }
        {
            // "Process 2": fresh pipeline, restore, drain the rest.
            stream_pipeline p(topo, opts);
            restore_checkpoint(p, path);
            p.on_bin([&](const bin_result& r) { got.push_back(r); });
            p.push(std::span(stream).subspan(split));
            p.finish();

            ASSERT_EQ(got.size(), ref.size()) << "shards=" << shards;
            for (std::size_t b = 0; b < ref.size(); ++b)
                expect_bins_identical(got[b], ref[b]);
            expect_counters_identical(p.metrics(), ref_metrics);
        }
    }
}

TEST(CheckpointTest, CheckpointFromOnBinObserverResumesExactly) {
    // The deployment shape: a periodic_checkpointer snapshots from the
    // bin observer; the restored pipeline reports via
    // metrics().records_in exactly how many records were consumed, and
    // skipping that many on replay resumes bit-identically.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 10);
    const auto opts = make_opts(2);
    pipeline_metrics ref_metrics;
    const auto ref = run_uninterrupted(topo, opts, stream, &ref_metrics);

    const temp_dir dir;
    std::size_t checkpoints = 0;
    std::string last_path;
    {
        stream_pipeline p(topo, opts);
        periodic_checkpointer ckpt(p, dir.path.string(), 4);
        p.on_bin([&](const bin_result&) { ckpt.on_bin_emitted(); });
        p.push(stream);
        p.finish();
        checkpoints = ckpt.checkpoints_written();
        EXPECT_EQ(checkpoints, 2u);  // bins 10 / every 4
        last_path = ckpt.path();
        EXPECT_EQ(ckpt.save_stats().saves_ok, 2u);
        EXPECT_EQ(ckpt.save_stats().save_retries, 0u);
    }
    // "Restart": the last checkpoint was taken when bin 7 closed.
    stream_pipeline p(topo, opts);
    restore_checkpoint(p, last_path);
    const std::uint64_t consumed = p.metrics().records_in;
    ASSERT_GT(consumed, 0u);
    ASSERT_LT(consumed, stream.size());
    EXPECT_EQ(p.metrics().bins_emitted, 8u);

    std::vector<bin_result> got;
    p.on_bin([&](const bin_result& r) { got.push_back(r); });
    p.push(std::span(stream).subspan(static_cast<std::size_t>(consumed)));
    p.finish();

    ASSERT_EQ(got.size(), ref.size() - 8);
    for (std::size_t b = 0; b < got.size(); ++b)
        expect_bins_identical(got[b], ref[b + 8]);
    expect_counters_identical(p.metrics(), ref_metrics);
}

TEST(CheckpointTest, CorruptTruncatedBumpedOrMismatchedSnapshotsFailDistinctly) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 5);
    const auto opts = make_opts(2);

    const temp_dir dir;
    const std::string path = (dir.path / "ckpt.tfss").string();
    {
        stream_pipeline p(topo, opts);
        p.push(stream);
        save_checkpoint(p, path);
    }
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    in.close();
    const auto write_variant = [&](std::vector<char> v) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(v.data(), static_cast<std::streamsize>(v.size()));
    };
    const auto restore_code = [&](const pipeline_options& o) {
        stream_pipeline p(topo, o);
        try {
            restore_checkpoint(p, path);
            return std::optional<io::snapshot_errc>{};
        } catch (const io::snapshot_error& e) {
            return std::optional<io::snapshot_errc>{e.code()};
        }
    };

    // Flipped checksum byte (payload corruption deep in the file).
    {
        auto v = bytes;
        v[v.size() - 9] ^= 0x20;
        write_variant(v);
        EXPECT_EQ(restore_code(opts), io::snapshot_errc::checksum_mismatch);
    }
    // Truncated section.
    {
        auto v = bytes;
        v.resize(v.size() - 40);
        write_variant(v);
        EXPECT_EQ(restore_code(opts), io::snapshot_errc::truncated);
    }
    // Container format version bump.
    {
        auto v = bytes;
        v[4] = 0x7F;
        write_variant(v);
        EXPECT_EQ(restore_code(opts), io::snapshot_errc::unsupported_version);
    }
    // Config-fingerprint mismatch: same file, differently configured
    // pipeline (shard count, then bin width, then detector options).
    {
        write_variant(bytes);
        EXPECT_EQ(restore_code(make_opts(4)),
                  io::snapshot_errc::fingerprint_mismatch);
        auto o = make_opts(2);
        o.bin_us *= 2;
        EXPECT_EQ(restore_code(o), io::snapshot_errc::fingerprint_mismatch);
        o = make_opts(2);
        o.online.refit_interval = 7;
        EXPECT_EQ(restore_code(o), io::snapshot_errc::fingerprint_mismatch);
        // And the unmodified file under the right config still loads.
        EXPECT_FALSE(restore_code(opts).has_value());
    }
}

TEST(CheckpointTest, OldSectionVersionsAreRejectedAsUnsupported) {
    // PIPE v4 and SHRD v3 dropped the reorder ring's bookkeeping and
    // held bins; DETC v3 dropped the maintained Gram and column sums. A
    // file that is intact in every other respect but carries one older
    // section must be refused by the per-section version gate, never
    // decoded as a current payload.
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 6);
    const auto opts = make_opts(2);
    stream_pipeline src(topo, opts);
    src.push(stream);
    const std::uint64_t fp = src.config_fingerprint();
    io::snapshot_writer current(fp);
    src.save_state(current);
    const io::snapshot_reader valid(current.serialize(), fp);

    constexpr std::uint32_t kPipeline = 0x45504950u;  // "PIPE"
    constexpr std::uint32_t kShards = 0x44524853u;    // "SHRD"
    constexpr std::uint32_t kDetector = 0x43544544u;  // "DETC"
    EXPECT_EQ(valid.section_version(kPipeline), 4);
    EXPECT_EQ(valid.section_version(kShards), 3);
    EXPECT_EQ(valid.section_version(kDetector), 3);

    const temp_dir dir;
    const std::string path = (dir.path / "old-section.tfss").string();
    // Rewrite `path` with the current payloads, `old_tag` relabelled as
    // `old_version`.
    const auto save_with = [&](std::uint32_t old_tag,
                               std::uint16_t old_version) {
        io::snapshot_writer w(fp);
        for (const std::uint32_t tag : {kPipeline, kShards, kDetector}) {
            io::wire_reader r = valid.section(tag);
            w.add_section(tag,
                          tag == old_tag ? old_version
                                         : valid.section_version(tag),
                          r.bytes(r.remaining()));
        }
        w.save_file(path);
    };
    const struct {
        std::uint32_t tag;
        std::uint16_t version;
    } old_sections[] = {{kPipeline, 3}, {kShards, 2}, {kDetector, 2}};
    for (const auto& old : old_sections) {
        SCOPED_TRACE(testing::Message()
                     << "tag " << std::hex << old.tag << " v" << std::dec
                     << old.version);
        save_with(old.tag, old.version);
        stream_pipeline dst(topo, opts);
        try {
            restore_checkpoint(dst, path);
            ADD_FAILURE() << "an old section version was restored";
        } catch (const io::snapshot_error& e) {
            EXPECT_EQ(e.code(), io::snapshot_errc::unsupported_version)
                << e.what();
        }
    }

    // The same payloads under the current versions restore cleanly.
    current.save_file(path);
    stream_pipeline ok(topo, opts);
    EXPECT_NO_THROW(restore_checkpoint(ok, path));
}

TEST(CheckpointTest, QueueFramesIsNotPartOfTheFingerprint) {
    // A pure perf knob must not invalidate a snapshot.
    const auto topo = net::topology::abilene();
    auto a = make_opts(2);
    a.queue_frames = 4;
    auto b = make_opts(2);
    b.queue_frames = 64;
    EXPECT_EQ(stream_pipeline(topo, a).config_fingerprint(),
              stream_pipeline(topo, b).config_fingerprint());
    auto c = make_opts(2);
    c.online.subspace.normal_dims = 3;
    EXPECT_NE(stream_pipeline(topo, a).config_fingerprint(),
              stream_pipeline(topo, c).config_fingerprint());
}
