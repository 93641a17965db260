#include "stream/checkpoint.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "io/fault.h"
#include "io/snapshot.h"
#include "obs/trace.h"

namespace tfd::stream {

namespace {

namespace fs = std::filesystem;

constexpr const char* kCheckpointPrefix = "checkpoint-";
constexpr const char* kCheckpointSuffix = ".tfss";

std::string checkpoint_name(std::uint64_t seq) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "checkpoint-%06llu.tfss",
                  static_cast<unsigned long long>(seq));
    return buf;
}

/// Parse "checkpoint-NNNNNN.tfss" -> NNNNNN.
std::optional<std::uint64_t> parse_seq(const std::string& name) {
    const std::string prefix = kCheckpointPrefix;
    const std::string suffix = kCheckpointSuffix;
    if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
    if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0)
        return std::nullopt;
    std::uint64_t seq = 0;
    for (std::size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
        const char c = name[i];
        if (c < '0' || c > '9') return std::nullopt;
        seq = seq * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return seq;
}

struct candidate {
    std::uint64_t seq;
    std::string path;
};

/// All checkpoint files in `dir`, newest first.
std::vector<candidate> list_checkpoints(const std::string& dir) {
    std::vector<candidate> found;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        if (const auto seq = parse_seq(entry.path().filename().string()))
            found.push_back({*seq, entry.path().string()});
    }
    std::sort(found.begin(), found.end(),
              [](const candidate& a, const candidate& b) {
                  return a.seq > b.seq;
              });
    return found;
}

}  // namespace

void save_checkpoint(const stream_pipeline& pipeline,
                     const std::string& path) {
    io::snapshot_writer snap(pipeline.config_fingerprint());
    pipeline.save_state(snap);
    snap.save_file(path);
}

void save_checkpoint(const stream_pipeline& pipeline, const std::string& path,
                     const checkpoint_options& opts,
                     checkpoint_save_stats* stats) {
    io::snapshot_writer snap(pipeline.config_fingerprint());
    pipeline.save_state(snap);
    const std::size_t attempts = std::max<std::size_t>(1, opts.save_attempts);
    for (std::size_t attempt = 0;; ++attempt) {
        try {
            // Time each physical attempt, failed ones included (a slow
            // failing disk belongs in the write-latency distribution).
            obs::stage_span span(opts.save_timer);
            snap.save_file(path, opts.faults,
                           opts.first_attempt_index + attempt);
            span.stop();
            if (stats) stats->saves_ok += 1;
            return;
        } catch (const io::snapshot_error& e) {
            // Only the transient cause is worth retrying; everything
            // else (corrupt state, bad config) is a bug, not weather.
            if (e.code() != io::snapshot_errc::io_failure ||
                attempt + 1 >= attempts) {
                if (stats) stats->saves_failed += 1;
                throw;
            }
            if (stats) stats->save_retries += 1;
            std::uint64_t delay_us = opts.backoff_initial_us;
            for (std::size_t k = 0; k < attempt; ++k) delay_us *= 4;
            if (delay_us > 0)
                std::this_thread::sleep_for(
                    std::chrono::microseconds(delay_us));
        }
    }
}

void restore_checkpoint(stream_pipeline& pipeline, const std::string& path) {
    const io::snapshot_reader snap =
        io::snapshot_reader::load_file(path, pipeline.config_fingerprint());
    pipeline.restore_state(snap);
}

restore_report restore_latest_checkpoint(stream_pipeline& pipeline,
                                         const std::string& dir) {
    restore_report report;
    for (const auto& cand : list_checkpoints(dir)) {
        report.candidates += 1;
        std::optional<io::snapshot_reader> snap;
        try {
            // Full container validation on the file bytes, then the
            // section-version gate — nothing in the pipeline is touched
            // until a candidate passes whole.
            snap.emplace(io::snapshot_reader::load_file(
                cand.path, pipeline.config_fingerprint()));
            stream_pipeline::check_section_versions(*snap);
        } catch (const io::snapshot_error& e) {
            switch (e.code()) {
                case io::snapshot_errc::truncated:
                    report.truncated_skipped += 1;
                    break;
                case io::snapshot_errc::io_failure:
                    report.io_failed_skipped += 1;
                    break;
                case io::snapshot_errc::unsupported_version:
                case io::snapshot_errc::fingerprint_mismatch:
                    report.mismatched_skipped += 1;
                    break;
                default:  // bad magic, checksum, framing, sections
                    report.corrupt_skipped += 1;
                    break;
            }
            continue;
        }
        pipeline.restore_state(*snap);
        report.restored_path = cand.path;
        return report;
    }
    return report;
}

periodic_checkpointer::periodic_checkpointer(stream_pipeline& pipeline,
                                             std::string dir,
                                             std::size_t every_bins,
                                             std::size_t keep_last,
                                             checkpoint_options opts)
    : pipeline_(&pipeline),
      dir_(std::move(dir)),
      every_bins_(every_bins),
      keep_last_(keep_last),
      opts_(opts) {
    // Sequence numbers continue past whatever the directory holds, so a
    // restarted daemon never overwrites the snapshot it restored from.
    const auto existing = list_checkpoints(dir_);
    if (!existing.empty()) next_seq_ = existing.front().seq + 1;
}

void periodic_checkpointer::on_bin_emitted() {
    if (every_bins_ == 0) return;
    if (++since_last_ < every_bins_) return;

    const std::string path =
        (fs::path(dir_) / checkpoint_name(next_seq_)).string();
    checkpoint_options opts = opts_;
    // Every physical attempt so far consumed one decision index: each
    // save used 1 final attempt (ok or failed) plus its retries.
    opts.first_attempt_index = opts_.first_attempt_index + stats_.saves_ok +
                               stats_.saves_failed + stats_.save_retries;
    const std::uint64_t retries_before = stats_.save_retries;
    save_checkpoint(*pipeline_, path, opts, &stats_);

    last_path_ = path;
    const std::uint64_t seq = next_seq_;
    next_seq_ += 1;
    since_last_ = 0;
    ++written_;

    if (keep_last_ > 0 || opts_.keep_hours > 0.0) {
        const auto all = list_checkpoints(dir_);  // newest first
        const auto now = fs::file_time_type::clock::now();
        const auto max_age =
            std::chrono::duration_cast<fs::file_time_type::duration>(
                std::chrono::duration<double, std::ratio<3600>>(
                    opts_.keep_hours));
        for (std::size_t i = 0; i < all.size(); ++i) {
            if (all[i].path == path) continue;  // never the one just written
            bool expire = keep_last_ > 0 && i >= keep_last_;
            if (!expire && opts_.keep_hours > 0.0) {
                std::error_code ec;
                const auto mtime = fs::last_write_time(all[i].path, ec);
                expire = !ec && now - mtime > max_age;
            }
            if (expire) {
                std::error_code ec;
                fs::remove(all[i].path, ec);  // best-effort
            }
        }
    }

    if (on_checkpoint_) {
        checkpoint_written info;
        info.path = path;
        info.seq = seq;
        info.retries = stats_.save_retries - retries_before;
        on_checkpoint_(info);
    }
}

}  // namespace tfd::stream
