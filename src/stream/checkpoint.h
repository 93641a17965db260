// tfd::stream — checkpoint/restore orchestration for the streaming
// pipeline.
//
// The paper's method is stateful by construction: detection quality
// depends on the PCA window of past bins and on the per-(OD, feature)
// histograms of the currently open bin, so a daemon restart used to
// cost a full warmup gap before verdicts were trustworthy again — and
// for anonymized feeds (Burkhart et al.) the source trace cannot even
// be re-read. This layer closes that gap: save_checkpoint() writes one
// atomic io::snapshot file holding the complete pipeline state, and
// restore_checkpoint() resumes a freshly constructed pipeline from it
// such that every subsequent bin's detections, identified flows and
// counters are bit-identical to the uninterrupted run (pinned by
// tests/stream/checkpoint_test.cpp for shard counts {1, 2, 4}).
//
// Failure semantics are inherited from io::snapshot: the file is
// validated in full — magic, format version, config fingerprint, every
// section checksum — before a single byte of pipeline state is
// touched, so corruption, truncation, a version bump, or a snapshot
// taken under different options all fail loudly (distinct
// io::snapshot_errc codes) and never partially restore.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "stream/pipeline.h"

namespace tfd::io {
class fault_injector;  // io/fault.h — optional test seam
}

namespace tfd::obs {
class latency_histogram;  // obs/metrics.h — optional write latency sink
}

namespace tfd::stream {

/// Atomically write `pipeline`'s complete state (cursor + time base,
/// open-bin shard cells, detector window/model, cumulative metrics) to
/// `path` (write-to-temp + rename). Throws io::snapshot_error on
/// filesystem failure.
void save_checkpoint(const stream_pipeline& pipeline,
                     const std::string& path);

/// Durability policy for checkpoint writes under a flaky filesystem.
struct checkpoint_options {
    /// Total save attempts before giving up (>= 1). Only transient
    /// io::snapshot_errc::io_failure is retried; anything else (a bug,
    /// not weather) rethrows immediately.
    std::size_t save_attempts = 3;
    /// Backoff before retry k (0-based): backoff_initial_us *
    /// backoff_multiplier^k, plus deterministic jitter in [0, delay/2)
    /// drawn from (jitter_seed, k) — retries de-synchronize across
    /// daemons without a global clock, and a replay sleeps identically.
    /// 0 disables sleeping entirely (tests).
    std::uint64_t backoff_initial_us = 500;
    double backoff_multiplier = 4.0;
    std::uint64_t jitter_seed = 0;
    /// Injected write failures (io/fault.h); decisions are drawn at
    /// index first_attempt_index + attempt, so a caller issuing many
    /// saves threads a cumulative counter through and each physical
    /// attempt draws a fresh decision.
    io::fault_injector* faults = nullptr;
    std::uint64_t first_attempt_index = 0;
    /// Optional latency sink: every physical save attempt (including
    /// failed ones — a slow failing disk should show in the
    /// distribution) records its duration here when non-null.
    /// Observability-only, never changes behaviour.
    obs::latency_histogram* save_timer = nullptr;
    /// Age-based retention for periodic_checkpointer, alongside
    /// keep_last: after each successful write, checkpoint files whose
    /// mtime is older than this many hours are deleted (best-effort),
    /// regardless of how few files that leaves — except the snapshot
    /// just written, which is never deleted. 0 disables. Both policies
    /// apply when both are set (a file is deleted when either says so).
    double keep_hours = 0.0;
};

/// What the retrying saver did (cumulative across calls when reused).
struct checkpoint_save_stats {
    std::uint64_t saves_ok = 0;      ///< saves that eventually landed
    std::uint64_t save_retries = 0;  ///< extra attempts beyond the first
    std::uint64_t saves_failed = 0;  ///< saves abandoned after all attempts
};

/// save_checkpoint with bounded retry: on transient io_failure, retry
/// up to opts.save_attempts total attempts with exponential backoff and
/// deterministic jitter. Rethrows the last error once attempts are
/// exhausted (after counting saves_failed). `stats`, when non-null, is
/// updated either way.
void save_checkpoint(const stream_pipeline& pipeline, const std::string& path,
                     const checkpoint_options& opts,
                     checkpoint_save_stats* stats = nullptr);

/// Restore a checkpoint into `pipeline`, which must be freshly
/// constructed with the same topology and options as the saver (the
/// snapshot's config fingerprint is checked first). Throws
/// io::snapshot_error (see io::snapshot_errc for the distinct causes)
/// or io::wire_error; on throw the pipeline must be discarded — but no
/// partially restored state can be observed for container-level
/// corruption, which is rejected before restoration begins.
void restore_checkpoint(stream_pipeline& pipeline, const std::string& path);

/// What restore_latest_checkpoint() found while scanning a directory.
struct restore_report {
    /// The snapshot actually restored; empty when no valid candidate
    /// existed (the caller cold-starts).
    std::string restored_path;
    std::size_t candidates = 0;          ///< checkpoint files considered
    std::size_t corrupt_skipped = 0;     ///< bad magic/checksum/framing
    std::size_t truncated_skipped = 0;   ///< shorter than their framing claims
    std::size_t mismatched_skipped = 0;  ///< other config or format version
    std::size_t io_failed_skipped = 0;   ///< unreadable (permissions, EIO)
};

/// Scan `dir` for checkpoint snapshots (newest sequence number first,
/// the legacy unnumbered `checkpoint.tfss` last), fully validate each
/// candidate, and restore the newest valid one into `pipeline`. Invalid
/// candidates are skipped and counted by cause — a corrupt latest
/// checkpoint costs `every_bins` of extra replay, not the run.
///
/// Validation happens on the file bytes (container, fingerprint, and
/// every section's payload version) before any pipeline state is
/// touched, so skipping a bad candidate never taints the pipeline. If
/// the post-validation restore itself throws (a semantic mismatch a
/// valid container cannot rule out), that error propagates and the
/// pipeline must be discarded, same as restore_checkpoint().
restore_report restore_latest_checkpoint(stream_pipeline& pipeline,
                                         const std::string& dir);

/// Periodic checkpointing policy for a daemon: call on_bin_emitted()
/// from the pipeline's bin observer; every `every_bins` emitted bins it
/// writes `<dir>/checkpoint-NNNNNN.tfss` atomically (sequence numbers
/// continue from whatever the directory already holds). A crash between
/// writes loses at most `every_bins` bins of progress. Resume by
/// replaying the stream from exactly `metrics().records_in` records in
/// — the precise drained position at the checkpoint cut; that resumes
/// bit-identically. Replaying from an earlier point is safe only while
/// every replayed record's bin is within `max_gap_bins` of the restored
/// cursor: the open bin is empty at every observer cut, so such a
/// prefix is dropped as late (late_records grows by its resolvable
/// records) and later verdicts match. A replayed record further back is
/// a backward time-base reset, and the prefix is scored again as a new
/// era.
///
/// `keep_last` > 0 enables count-based retention: after each successful
/// write, older checkpoint files beyond the newest keep_last are
/// deleted oldest-first (the legacy unnumbered file counts as oldest).
/// opts.keep_hours > 0 adds age-based retention on top (delete anything
/// older than that many hours by mtime, never the file just written).
/// 0 for both keeps everything.
/// What one successful periodic checkpoint write produced (for the
/// on_checkpoint observer).
struct checkpoint_written {
    std::string path;          ///< the snapshot file that landed
    std::uint64_t seq = 0;     ///< its sequence number
    std::uint64_t retries = 0; ///< extra attempts this write needed
};

class periodic_checkpointer {
public:
    /// `every_bins` == 0 disables (on_bin_emitted becomes a no-op).
    periodic_checkpointer(stream_pipeline& pipeline, std::string dir,
                          std::size_t every_bins, std::size_t keep_last = 0,
                          checkpoint_options opts = {});

    /// Observer invoked after each successful checkpoint write (and its
    /// retention pass), on the thread driving on_bin_emitted().
    void on_checkpoint(std::function<void(const checkpoint_written&)> cb) {
        on_checkpoint_ = std::move(cb);
    }

    /// Count one emitted bin; writes a checkpoint when due. Write
    /// failures (after opts.save_attempts tries) propagate
    /// io::snapshot_error — the caller decides whether a daemon without
    /// durable progress should keep running.
    void on_bin_emitted();

    /// Path of the most recently written snapshot (empty before the
    /// first write).
    const std::string& path() const noexcept { return last_path_; }

    /// Checkpoints written so far (this instance).
    std::size_t checkpoints_written() const noexcept { return written_; }

    /// Retry/failure counters for this instance's saves.
    const checkpoint_save_stats& save_stats() const noexcept { return stats_; }

private:
    stream_pipeline* pipeline_;
    std::string dir_;
    std::string last_path_;
    std::size_t every_bins_;
    std::size_t keep_last_;
    checkpoint_options opts_;
    checkpoint_save_stats stats_;
    std::function<void(const checkpoint_written&)> on_checkpoint_;
    std::uint64_t next_seq_ = 0;
    std::size_t since_last_ = 0;
    std::size_t written_ = 0;
};

}  // namespace tfd::stream
