// Checkpoint durability under failure: bounded retry on transient
// write errors, retention of the last N snapshots, and restore that
// scans the directory and falls back to the newest *valid* snapshot
// (with distinct counters for why candidates were skipped).
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "io/fault.h"
#include "io/snapshot.h"
#include "net/topology.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"
#include "traffic/background.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

namespace fs = std::filesystem;

core::online_options small_online() {
    core::online_options o;
    o.window = 8;
    o.warmup = 4;
    o.refit_interval = 2;
    o.subspace.normal_dims = 2;
    return o;
}

pipeline_options make_opts(std::size_t shards) {
    pipeline_options opts;
    opts.shards = shards;
    opts.online = small_online();
    return opts;
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

struct temp_dir {
    fs::path path;
    explicit temp_dir(const char* tag) {
        path = fs::temp_directory_path() /
               (std::string("tfd_hard_") + tag + "_" +
                std::to_string(::getpid()));
        fs::create_directories(path);
    }
    ~temp_dir() { fs::remove_all(path); }
};

/// A seed whose write-failure site fires on attempt 0 but not attempt 1
/// at the given rate — found by probing the pure decision function, so
/// the test documents its own precondition instead of hardcoding magic.
std::uint64_t seed_failing_first_attempt_only(double rate) {
    for (std::uint64_t seed = 0; seed < 1000; ++seed) {
        io::fault_injector probe({.seed = seed, .write_failure_per_call = rate});
        if (probe.fires(io::fault_site::write_failure, 0, rate) &&
            !probe.fires(io::fault_site::write_failure, 1, rate))
            return seed;
    }
    throw std::logic_error("no suitable seed in probe range");
}

void corrupt_byte(const std::string& path, std::size_t back_offset,
                  std::uint8_t mask) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::size_t>(f.tellg());
    f.seekp(static_cast<std::streamoff>(size - back_offset));
    char c;
    f.seekg(static_cast<std::streamoff>(size - back_offset));
    f.get(c);
    c = static_cast<char>(c ^ mask);
    f.seekp(static_cast<std::streamoff>(size - back_offset));
    f.put(c);
}

void truncate_file(const std::string& path, std::size_t drop) {
    const auto size = fs::file_size(path);
    fs::resize_file(path, size - drop);
}

std::vector<std::string> checkpoint_files(const fs::path& dir) {
    std::vector<std::string> names;
    for (const auto& e : fs::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

TEST(CheckpointHardeningTest, RetryRidesOutTransientWriteFailure) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 4);
    const auto opts = make_opts(2);
    stream_pipeline p(topo, opts);
    p.push(stream);

    const double rate = 0.5;
    io::fault_injector faults(
        {.seed = seed_failing_first_attempt_only(rate),
         .write_failure_per_call = rate});
    const temp_dir dir("retry");
    const std::string path = (dir.path / "ckpt.tfss").string();

    checkpoint_options copts;
    copts.save_attempts = 3;
    copts.backoff_initial_us = 0;  // no sleeping in tests
    copts.faults = &faults;
    checkpoint_save_stats stats;
    save_checkpoint(p, path, copts, &stats);

    EXPECT_EQ(stats.saves_ok, 1u);
    EXPECT_EQ(stats.save_retries, 1u);
    EXPECT_EQ(stats.saves_failed, 0u);
    EXPECT_EQ(faults.stats().writes_failed, 1u);

    // The file that finally landed restores cleanly.
    stream_pipeline q(topo, opts);
    restore_checkpoint(q, path);
    EXPECT_EQ(q.metrics().records_in, p.metrics().records_in);
}

TEST(CheckpointHardeningTest, ExhaustedRetriesRethrowAndCount) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 2);
    stream_pipeline p(topo, make_opts(1));
    p.push(stream);

    io::fault_injector faults({.seed = 1, .write_failure_per_call = 1.0});
    const temp_dir dir("exhaust");
    const std::string path = (dir.path / "ckpt.tfss").string();

    checkpoint_options copts;
    copts.save_attempts = 3;
    copts.backoff_initial_us = 0;
    copts.faults = &faults;
    checkpoint_save_stats stats;
    try {
        save_checkpoint(p, path, copts, &stats);
        FAIL() << "expected io_failure";
    } catch (const io::snapshot_error& e) {
        EXPECT_EQ(e.code(), io::snapshot_errc::io_failure);
    }
    EXPECT_EQ(stats.saves_ok, 0u);
    EXPECT_EQ(stats.save_retries, 2u);
    EXPECT_EQ(stats.saves_failed, 1u);
    EXPECT_FALSE(fs::exists(path));  // no torn file left behind
}

TEST(CheckpointHardeningTest, RestoreLatestFallsBackPastCorruptAndTruncated) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 6);
    const auto opts = make_opts(2);

    const temp_dir dir("fallback");
    {
        stream_pipeline p(topo, opts);
        periodic_checkpointer ckpt(p, dir.path.string(), 2);
        p.on_bin([&](const bin_result&) { ckpt.on_bin_emitted(); });
        p.push(stream);
        p.finish();
        ASSERT_EQ(ckpt.checkpoints_written(), 3u);
    }
    // Newest (seq 2) truncated mid-section; seq 1 corrupted deep in a
    // payload; seq 0 left intact.
    truncate_file((dir.path / "checkpoint-000002.tfss").string(), 33);
    corrupt_byte((dir.path / "checkpoint-000001.tfss").string(), 9, 0x40);

    stream_pipeline p(topo, opts);
    const auto report = restore_latest_checkpoint(p, dir.path.string());
    EXPECT_EQ(report.restored_path,
              (dir.path / "checkpoint-000000.tfss").string());
    EXPECT_EQ(report.candidates, 3u);
    EXPECT_EQ(report.truncated_skipped, 1u);
    EXPECT_EQ(report.corrupt_skipped, 1u);
    EXPECT_EQ(report.mismatched_skipped, 0u);
    EXPECT_EQ(p.metrics().bins_emitted, 2u);  // seq 0 = after bin 1 closed
}

TEST(CheckpointHardeningTest, RestoreLatestDistinguishesConfigMismatch) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto stream = make_stream(bg, 4);

    const temp_dir dir("mismatch");
    {
        stream_pipeline p(topo, make_opts(2));
        periodic_checkpointer ckpt(p, dir.path.string(), 2);
        p.on_bin([&](const bin_result&) { ckpt.on_bin_emitted(); });
        p.push(stream);
        p.finish();
    }
    stream_pipeline other(topo, make_opts(4));  // different shard count
    const auto report = restore_latest_checkpoint(other, dir.path.string());
    EXPECT_TRUE(report.restored_path.empty());
    EXPECT_EQ(report.mismatched_skipped, report.candidates);
    EXPECT_GT(report.candidates, 0u);

    // A newest file written by an older build: intact container, same
    // config, but a "PIPE" section at v3. The scan must skip it as
    // mismatched and restore the older current-version file, not throw.
    ASSERT_EQ(checkpoint_files(dir.path),
              (std::vector<std::string>{"checkpoint-000000.tfss",
                                        "checkpoint-000001.tfss"}));
    const std::string newest = (dir.path / "checkpoint-000001.tfss").string();
    {
        constexpr std::uint32_t kPipeline = 0x45504950u;  // "PIPE"
        stream_pipeline same(topo, make_opts(2));
        const std::uint64_t fp = same.config_fingerprint();
        const auto snap = io::snapshot_reader::load_file(newest, fp);
        io::snapshot_writer old(fp);
        for (const std::uint32_t tag : {kPipeline, 0x44524853u, 0x43544544u}) {
            io::wire_reader r = snap.section(tag);
            const std::uint16_t version =
                tag == kPipeline ? 3 : snap.section_version(tag);
            old.add_section(tag, version, r.bytes(r.remaining()));
        }
        old.save_file(newest);
    }
    stream_pipeline same(topo, make_opts(2));
    const auto fallback = restore_latest_checkpoint(same, dir.path.string());
    EXPECT_EQ(fallback.restored_path,
              (dir.path / "checkpoint-000000.tfss").string());
    EXPECT_EQ(fallback.candidates, 2u);
    EXPECT_EQ(fallback.mismatched_skipped, 1u);
    EXPECT_EQ(same.metrics().bins_emitted, 2u);
}

TEST(CheckpointHardeningTest, RestoreLatestOnEmptyOrMissingDirIsCleanMiss) {
    const auto topo = net::topology::abilene();
    stream_pipeline p(topo, make_opts(1));
    const temp_dir dir("empty");
    auto report = restore_latest_checkpoint(p, dir.path.string());
    EXPECT_TRUE(report.restored_path.empty());
    EXPECT_EQ(report.candidates, 0u);
    report = restore_latest_checkpoint(
        p, (dir.path / "does_not_exist").string());
    EXPECT_TRUE(report.restored_path.empty());
    EXPECT_EQ(report.candidates, 0u);
}

TEST(CheckpointHardeningTest, RetentionKeepsNewestNAndSequencesContinue) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    // 9 bins with a write every 2: checkpoints land at bins 2,4,6,8, so
    // the newest checkpoint is NOT at end-of-stream and a restart has a
    // bin left to process.
    const auto stream = make_stream(bg, 9);
    const auto opts = make_opts(1);

    const temp_dir dir("retain");
    {
        stream_pipeline p(topo, opts);
        periodic_checkpointer ckpt(p, dir.path.string(), 2, /*keep_last=*/2);
        p.on_bin([&](const bin_result&) { ckpt.on_bin_emitted(); });
        p.push(stream);
        p.finish();
        EXPECT_EQ(ckpt.checkpoints_written(), 4u);
        EXPECT_EQ(ckpt.path(),
                  (dir.path / "checkpoint-000003.tfss").string());
    }
    const auto names = checkpoint_files(dir.path);
    EXPECT_EQ(names, (std::vector<std::string>{"checkpoint-000002.tfss",
                                               "checkpoint-000003.tfss"}));

    // A restarted checkpointer continues the sequence instead of
    // overwriting the snapshot it would restore from (cadence may even
    // differ across restarts).
    stream_pipeline p(topo, opts);
    restore_latest_checkpoint(p, dir.path.string());
    EXPECT_EQ(p.metrics().bins_emitted, 8u);
    periodic_checkpointer ckpt(p, dir.path.string(), 1, 2);
    p.on_bin([&](const bin_result&) { ckpt.on_bin_emitted(); });
    p.push(std::span(stream).subspan(
        static_cast<std::size_t>(p.metrics().records_in)));
    p.finish();
    EXPECT_EQ(ckpt.checkpoints_written(), 1u);
    EXPECT_EQ(ckpt.path(), (dir.path / "checkpoint-000004.tfss").string());
}

TEST(CheckpointHardeningTest, AgeBasedRetentionExpiresOldCheckpoints) {
    const auto topo = net::topology::abilene();
    const traffic::background_model bg(topo);
    const auto opts = make_opts(1);
    const temp_dir dir("age");

    stream_pipeline p(topo, opts);
    checkpoint_options copts;
    copts.keep_hours = 1.0;  // count-based retention off: age decides
    periodic_checkpointer ckpt(p, dir.path.string(), 2, /*keep_last=*/0,
                               copts);
    p.on_bin([&](const bin_result&) { ckpt.on_bin_emitted(); });

    auto push_bin = [&](std::size_t bin) {
        std::vector<flow::flow_record> records;
        for (int od = 0; od < topo.od_count(); ++od) {
            const auto cell = bg.generate(bin, od);
            records.insert(records.end(), cell.begin(), cell.end());
        }
        p.push(records);
    };

    // Bins 0..6 emit 6 bins: checkpoints 0, 1, 2 land.
    for (std::size_t bin = 0; bin < 7; ++bin) push_bin(bin);
    ASSERT_EQ(ckpt.checkpoints_written(), 3u);
    ASSERT_EQ(checkpoint_files(dir.path).size(), 3u);

    // The two oldest checkpoints cross the age horizon; the third stays
    // fresh. Nothing is deleted until the next successful write runs a
    // retention pass.
    const auto aged =
        fs::file_time_type::clock::now() - std::chrono::hours(2);
    fs::last_write_time(dir.path / "checkpoint-000000.tfss", aged);
    fs::last_write_time(dir.path / "checkpoint-000001.tfss", aged);
    ASSERT_EQ(checkpoint_files(dir.path).size(), 3u);

    // Bins 7, 8 emit through bin 7: checkpoint 3 lands and its
    // retention pass expires the aged files — but neither the fresh
    // survivor nor the snapshot just written.
    push_bin(7);
    push_bin(8);
    p.finish();
    EXPECT_EQ(ckpt.checkpoints_written(), 4u);
    EXPECT_EQ(checkpoint_files(dir.path),
              (std::vector<std::string>{"checkpoint-000002.tfss",
                                        "checkpoint-000003.tfss"}));

    // The surviving newest checkpoint restores cleanly.
    stream_pipeline fresh(topo, opts);
    const restore_report report =
        restore_latest_checkpoint(fresh, dir.path.string());
    EXPECT_EQ(report.restored_path,
              (dir.path / "checkpoint-000003.tfss").string());
    EXPECT_EQ(fresh.metrics().bins_emitted, 8u);
}
