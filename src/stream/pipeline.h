// tfd::stream — bin-synchronous streaming pipeline.
//
// Turns a flow-record stream (codec frames or raw batches) into per-bin
// entropy snapshots and feeds them to the online detector, bin by bin:
//
//   frames -> decode + resolve -> [bounded queue] -> shard accumulate
//          -> (bin boundary) harvest -> online_detector::push -> verdict
//
// "Bin-synchronous" means the pipeline never scores a bin until every
// record of that bin has been accumulated: records drive time forward,
// a bin closes when the first record of a later bin arrives (or on
// finish()), and gap bins are emitted as empty snapshots so the
// detector's time base matches the batch dataset's row-per-bin layout.
// Records for already-closed bins cannot be replayed into the model and
// are counted as late drops (`metrics().late_records`), mirroring what
// a real collector does with straggler exports.
//
// Backpressure: run() decodes and resolves frames on a producer thread
// into a bounded queue and consumes them on the calling thread. When
// accumulation + detection falls behind, the queue fills and the
// producer blocks in push() — ingest slows to the pipeline's pace
// instead of buffering the trace in RAM. `bounded_queue` counts blocked
// pushes so deployments can see when they are backpressure-bound.
//
// Every counter the operator needs is in pipeline_metrics: records in /
// accumulated, per-reason resolver drops, late drops, bins and
// anomalies emitted, accumulate/harvest/detect time, and the max and
// mean close-to-verdict latency per bin.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "core/online.h"
#include "flow/od_aggregator.h"
#include "io/snapshot.h"
#include "io/wire.h"
#include "net/topology.h"
#include "stream/flow_codec.h"
#include "stream/shard.h"

namespace tfd::obs {
struct stage_timers;  // obs/metrics.h — optional per-stage latency sinks
}

namespace tfd::stream {

/// A mutex+condvar bounded MPMC queue with blocking push (backpressure)
/// and blocking pop. close() wakes everyone; pop() drains remaining
/// items before reporting end-of-stream.
template <typename T>
class bounded_queue {
public:
    explicit bounded_queue(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    /// Blocks while full. Returns false (item dropped) if closed.
    bool push(T item) {
        std::unique_lock lock(mu_);
        if (items_.size() >= capacity_) ++blocked_pushes_;
        space_cv_.wait(lock,
                       [&] { return items_.size() < capacity_ || closed_; });
        if (closed_) return false;
        items_.push_back(std::move(item));
        high_watermark_ = std::max(high_watermark_, items_.size());
        lock.unlock();
        item_cv_.notify_one();
        return true;
    }

    /// Blocks until an item arrives; std::nullopt once closed and empty.
    std::optional<T> pop() {
        std::unique_lock lock(mu_);
        item_cv_.wait(lock, [&] { return !items_.empty() || closed_; });
        if (items_.empty()) return std::nullopt;
        T item = std::move(items_.front());
        items_.erase(items_.begin());
        lock.unlock();
        space_cv_.notify_one();
        return item;
    }

    void close() {
        {
            std::unique_lock lock(mu_);
            closed_ = true;
        }
        item_cv_.notify_all();
        space_cv_.notify_all();
    }

    std::size_t capacity() const noexcept { return capacity_; }

    /// Times a push() found the queue full (backpressure events).
    std::uint64_t blocked_pushes() const {
        std::unique_lock lock(mu_);
        return blocked_pushes_;
    }

    /// Deepest the queue has been.
    std::size_t high_watermark() const {
        std::unique_lock lock(mu_);
        return high_watermark_;
    }

private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable item_cv_;
    std::condition_variable space_cv_;
    std::vector<T> items_;
    bool closed_ = false;
    std::uint64_t blocked_pushes_ = 0;
    std::size_t high_watermark_ = 0;
};

/// One decoded codec frame with its records' OD indices: the
/// od_resolver::resolve_batch output, reason codes included. run()'s
/// decode thread fills it and the consuming thread accumulates it.
struct resolved_frame {
    std::vector<flow::flow_record> records;
    std::vector<int> ods;
    /// What the reader quarantined since the previous frame it handed
    /// out: the corrupt frames just before this one.
    quarantine_stats lost;
};

/// A bounded free-list of resolved-frame buffers. run()'s producer
/// thread acquires a recycled buffer before each decode and the
/// consumer releases buffers after accumulation, so steady-state
/// streaming performs no per-frame allocation: the ring caps out at
/// queue depth + in-flight buffers and every later frame reuses the
/// capacity a previous frame grew. Thread-safe; counts reuses for the
/// pipeline's `frames_reused` metric.
class frame_ring {
public:
    /// Buffers retained at most (surplus releases free their memory).
    explicit frame_ring(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    /// A recycled buffer (cleared, capacity intact) or a fresh one.
    resolved_frame acquire() {
        std::lock_guard lock(mu_);
        if (free_.empty()) return {};
        resolved_frame buf = std::move(free_.back());
        free_.pop_back();
        ++reuses_;
        return buf;
    }

    /// Return a consumed buffer to the ring (dropped if the ring is
    /// already holding `capacity` buffers).
    void release(resolved_frame&& buf) {
        buf.records.clear();
        buf.ods.clear();
        std::lock_guard lock(mu_);
        if (free_.size() < capacity_) free_.push_back(std::move(buf));
    }

    /// How many acquires were served from a recycled buffer.
    std::uint64_t reuses() const {
        std::lock_guard lock(mu_);
        return reuses_;
    }

private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::vector<resolved_frame> free_;
    std::uint64_t reuses_ = 0;
};

/// Pipeline tuning.
struct pipeline_options {
    std::size_t shards = 0;  ///< OD shards; 0 picks the thread pool size
    std::uint64_t bin_us = flow::default_bin_us;
    core::online_options online{};  ///< passed to the online detector
    /// Frames buffered between the decode thread and the pipeline in
    /// run(); the producer blocks when it gets this far ahead.
    std::size_t queue_frames = 8;
    /// Largest bin jump treated as normal stream behaviour: forward
    /// jumps up to this are bridged with empty gap bins, backward jumps
    /// up to this are late records. A jump beyond it in either
    /// direction is a time-base discontinuity (a feed switching clocks,
    /// or a corrupt timestamp): the open bin is closed, the pipeline
    /// resumes at the new bin, and metrics().time_base_resets counts it
    /// — so a far-future straggler neither spins through millions of
    /// empty harvests nor poisons the time base so every later sane
    /// record gets late-dropped. Default: one week of 5-minute bins.
    std::size_t max_gap_bins = 2016;
    /// Optional per-stage latency histograms (obs/metrics.h) fed when
    /// non-null: decode per frame (in run(), the decode thread's whole
    /// per-frame work: decode plus resolve), accumulate per push() or
    /// frame (push(): resolve plus shard work; run(): shard work only),
    /// and bin close. Observability-only — not part of the config
    /// fingerprint, never changes behaviour.
    obs::stage_timers* timers = nullptr;
};

/// A lifecycle occurrence the on_lifecycle observer is told about —
/// the degraded-operation moments that the bin observer cannot see:
/// time-base discontinuities (emitted at the reset, before the closing
/// bin's on_bin callback), and per-run() quarantine/backpressure
/// summaries (emitted once after a run() drain and its finish(), with
/// this run's deltas, once all of them are in metrics()).
struct lifecycle_event {
    enum class kind { time_base_reset, quarantine, backpressure };
    kind type = kind::time_base_reset;
    // time_base_reset: the cursor jumped from_bin -> to_bin.
    std::size_t from_bin = 0;
    std::size_t to_bin = 0;
    // quarantine: this run()'s deltas (sum over events == metrics()).
    std::uint64_t frames_quarantined = 0;
    std::uint64_t records_lost = 0;
    std::uint64_t resync_bytes = 0;
    // backpressure: this run()'s producer stalls and peak queue depth.
    std::uint64_t blocked_pushes = 0;
    std::uint64_t queue_high_watermark = 0;
};

/// Operational counters (see the header comment).
struct pipeline_metrics {
    std::uint64_t records_in = 0;           ///< records offered via push()
    std::uint64_t records_accumulated = 0;  ///< survived resolve + lateness
    flow::drop_counts resolver_drops;       ///< per-reason resolve failures
    std::uint64_t late_records = 0;         ///< arrived after their bin closed
    /// Records carrying a positive out-of-range OD index (>= od_count),
    /// dropped by the shard set. The resolver never emits these, so
    /// nonzero means a broken producer — but they are counted, not
    /// silently lost: the conservation invariant is
    /// records_in == records_accumulated + late_records +
    /// resolver_drops.total() + records_dropped_bad_od.
    std::uint64_t records_dropped_bad_od = 0;
    std::uint64_t bins_emitted = 0;
    std::uint64_t empty_bins = 0;           ///< gap bins emitted with no records
    std::uint64_t time_base_resets = 0;     ///< jumps > max_gap_bins, either way
    std::uint64_t anomalies = 0;
    /// Consuming-thread ingest time: resolve + shard accumulation in
    /// push(); in run() resolve runs on the decode thread, so only the
    /// shard accumulation.
    std::uint64_t accumulate_ns = 0;
    std::uint64_t bin_close_ns = 0;   ///< harvest + detector push, total
    std::uint64_t max_bin_close_ns = 0;
    /// Decoded-frame buffers served from the recycling ring across all
    /// run() calls (steady state: every frame after the first
    /// queue-depth's worth reuses a prior buffer's capacity).
    std::uint64_t frames_reused = 0;
    /// Degraded-operation counters, folded in from the codec reader's
    /// quarantine_stats by run() when the reader was constructed with
    /// corrupt_policy::quarantine (always zero under fail_fast):
    /// corrupt frames skipped, records they provably carried, and bytes
    /// discarded while rescanning for the next plausible frame
    /// boundary. Records lost to quarantine never reach push(), so
    /// records_in still names the exact resume position within the
    /// *surviving* record stream. A corrupt frame is counted together
    /// with the first surviving record after it (corrupt frames with
    /// none after them, after run()'s finish()), so a checkpoint holds
    /// exactly the losses before its records_in cut: the ones a
    /// resume's skip passes again.
    std::uint64_t frames_quarantined = 0;
    std::uint64_t records_lost_corrupt = 0;
    std::uint64_t resync_bytes_skipped = 0;

    /// Mean harvest+detect latency per *emitted* bin, in milliseconds.
    /// The denominator is bins_emitted, which includes empty gap bins —
    /// they go through the same harvest+score path, just cheaply — so a
    /// gappy stream reads lower than max_bin_close_ns suggests; compare
    /// against the per-stage histogram for the distribution. Returns
    /// 0.0 before the first bin is emitted (never divides by zero).
    double mean_bin_close_ms() const noexcept {
        return bins_emitted == 0 ? 0.0
                                 : static_cast<double>(bin_close_ns) / 1e6 /
                                       static_cast<double>(bins_emitted);
    }
    /// Ingest throughput over time spent *inside* the pipeline on the
    /// consuming thread (accumulate_ns + bin close) — not wall clock, so
    /// idle time between pushes does not dilute it, and in run() the
    /// decode thread's decode and resolve are not in it. Counts only
    /// records that survived resolve + lateness (records_accumulated).
    /// Returns 0.0 until any pipeline time has been spent (never divides
    /// by zero).
    double records_per_second() const noexcept {
        const double ns =
            static_cast<double>(accumulate_ns) + static_cast<double>(bin_close_ns);
        return ns <= 0.0 ? 0.0
                         : static_cast<double>(records_accumulated) * 1e9 / ns;
    }
};

/// One emitted bin: harvested statistics plus the detector's verdict.
struct bin_result {
    bin_statistics stats;
    core::online_verdict verdict;
};

/// The bin-synchronous streaming driver.
class stream_pipeline {
public:
    /// Throws std::invalid_argument on degenerate options (propagated
    /// from od_shard_set / online_detector).
    explicit stream_pipeline(const net::topology& topo,
                             pipeline_options opts = {});

    /// Observer invoked for every emitted bin, in bin order, on the
    /// thread driving push()/finish()/run().
    void on_bin(std::function<void(const bin_result&)> callback) {
        callback_ = std::move(callback);
    }

    /// Observer for degraded-operation moments the bin observer cannot
    /// see (time-base resets as they happen; quarantine/backpressure
    /// summaries once per run()). Invoked on the thread driving
    /// push()/run(); see lifecycle_event for the exact timing contract.
    void on_lifecycle(std::function<void(const lifecycle_event&)> callback) {
        lifecycle_cb_ = std::move(callback);
    }

    /// Ingest a record batch. Records may span bins; bins must be
    /// non-decreasing across the stream (records for closed bins are
    /// dropped as late). Closing a bin triggers harvest + detection and
    /// the on_bin callback.
    void push(std::span<const flow::flow_record> records);

    /// Drain an entire codec stream: decodes and resolves frames on a
    /// producer thread, consumes them here through a bounded queue
    /// (capacity opts.queue_frames) with push()'s per-run accounting,
    /// then finishes the open bin. Returns frames consumed (empty
    /// frames are skipped); rethrows codec errors on this thread. The
    /// reader's quarantine counters from before the call are not
    /// folded, so a resume can skip the consumed prefix through the
    /// same reader, push() the rest of the cut frame, then run() it.
    std::size_t run(flow_codec_reader& reader);

    /// Close the currently open bin (if any) and emit it. A later push()
    /// continues the same stream: a record of a later bin gets the gap
    /// bins or the time-base reset it would have got had the closed bin
    /// stayed open, and a record of the closed bin or an earlier one is
    /// late. So draining several readers in turn gives the detector one
    /// row per bin.
    void finish();

    const pipeline_metrics& metrics() const noexcept { return metrics_; }
    const core::online_detector& detector() const noexcept { return detector_; }

    /// Backpressure observability for the most recent run().
    std::uint64_t last_run_blocked_pushes() const noexcept {
        return last_run_blocked_pushes_;
    }

    // ---- checkpoint/restore (see stream/checkpoint.h for the file
    //      orchestration on top of these hooks) ----

    /// FNV-1a fingerprint of every configuration knob that changes
    /// serialized-state semantics: OD count, effective shard count, bin
    /// width, gap policy, and the full online-detector options.
    /// Perf-only knobs (queue_frames) are excluded — resuming under a
    /// different queue depth is sound. A snapshot restores only into a
    /// pipeline with an equal fingerprint.
    std::uint64_t config_fingerprint() const;

    /// Add this pipeline's full state to `snap` as three sections:
    /// cursor/time-base/metrics, the open bin's shard cells, and the
    /// online detector. Bins already emitted are NOT re-emitted after
    /// restore; everything needed to close the open bin and score every
    /// later bin bit-identically to an uninterrupted run is captured.
    void save_state(io::snapshot_writer& snap) const;

    /// Throws io::snapshot_error{unsupported_version} unless every
    /// section of `snap` carries the payload version this build reads.
    /// Touches no state, so a checkpoint scan can reject an old file
    /// before restoring from it.
    static void check_section_versions(const io::snapshot_reader& snap);

    /// Restore state saved by save_state() into this freshly
    /// constructed pipeline (same topology + options; the checkpoint
    /// layer enforces the fingerprint before any section is readable).
    /// Throws io::wire_error / io::snapshot_error on inconsistent
    /// payloads; on throw the pipeline must be discarded.
    void restore_state(const io::snapshot_reader& snap);

private:
    /// The per-run loop push() and run() share: `ods[i]` is the
    /// resolve_batch output for `records[i]`, the accumulation clock
    /// started at `t0`, and `lost` is counted with the first run.
    void ingest(std::span<const flow::flow_record> records,
                std::span<const int> ods, std::uint64_t t0,
                const quarantine_stats& lost);
    void emit_bin(std::size_t bin);
    void close_bin();
    void reset_time_base(std::size_t bin);

    flow::od_resolver resolver_;
    pipeline_options opts_;
    od_shard_set shards_;  ///< the open bin's cells
    core::online_detector detector_;
    std::function<void(const bin_result&)> callback_;
    std::function<void(const lifecycle_event&)> lifecycle_cb_;
    pipeline_metrics metrics_;
    bin_result scratch_;           ///< reused harvest/verdict buffer
    std::vector<int> od_scratch_;  ///< push()'s reused resolve_batch output
    std::size_t current_bin_ = 0;
    bool bin_open_ = false;
    std::uint64_t last_run_blocked_pushes_ = 0;
};

}  // namespace tfd::stream
