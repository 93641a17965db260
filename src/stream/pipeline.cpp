#include "stream/pipeline.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace tfd::stream {

namespace {

std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

// Section tags of a pipeline snapshot ("PIPE", "SHRD", "DETC" as
// little-endian fourccs) and their payload versions. DETC moved to v2
// when the detector grew the drift monitor / recalibration state block,
// and to v3 when the detector stopped maintaining a Gram (the payload
// lost the Gram upper triangle, the column sums and the exact-rebuild
// counter). PIPE moved to v3 when the metrics block grew
// records_dropped_bad_od. PIPE v4 and SHRD v3 hold exactly one open
// bin: the reorder ring's bookkeeping (any_emitted, last_emitted_bin,
// open_floor, records_reordered) and held-bin list are gone. Older
// versions are rejected as unsupported_version rather than guessed at.
constexpr std::uint32_t kTagPipeline = 0x45504950u;
constexpr std::uint32_t kTagShards = 0x44524853u;
constexpr std::uint32_t kTagDetector = 0x43544544u;
constexpr std::uint16_t kVersionPipeline = 4;
constexpr std::uint16_t kVersionShards = 3;
constexpr std::uint16_t kVersionDetector = 3;

}  // namespace

stream_pipeline::stream_pipeline(const net::topology& topo,
                                 pipeline_options opts)
    : resolver_(topo),
      opts_(opts),
      shards_(topo.od_count(), opts.shards),
      detector_(static_cast<std::size_t>(topo.od_count()), opts.online) {
    if (opts.bin_us == 0)
        throw std::invalid_argument("stream_pipeline: bin_us must be > 0");
}

void stream_pipeline::emit_bin(std::size_t bin) {
    const std::uint64_t t0 = now_ns();
    shards_.harvest(scratch_.stats);
    scratch_.stats.bin = bin;
    if (scratch_.stats.records == 0) ++metrics_.empty_bins;
    scratch_.verdict = detector_.push(scratch_.stats.snapshot);
    const std::uint64_t dt = now_ns() - t0;
    metrics_.bin_close_ns += dt;
    metrics_.max_bin_close_ns = std::max(metrics_.max_bin_close_ns, dt);
    if (opts_.timers && opts_.timers->bin_close)
        opts_.timers->bin_close->record_ns(dt);
    ++metrics_.bins_emitted;
    if (scratch_.verdict.anomalous) ++metrics_.anomalies;
    if (callback_) callback_(scratch_);
}

// Every close below advances the cursor (or clears the open flag)
// BEFORE emit_bin runs, so the state an on_bin observer sees is always
// resumable: "each bin up to and including the observed one is scored,
// the next bin is open". save_checkpoint() called from the observer
// therefore captures a consistent cut — a restored pipeline never
// re-emits the observed bin.

void stream_pipeline::close_bin() {
    const std::size_t closing = current_bin_;
    current_bin_ = closing + 1;
    emit_bin(closing);
}

void stream_pipeline::reset_time_base(std::size_t bin) {
    // A jump beyond max_gap_bins in either direction is a time-base
    // discontinuity (see pipeline_options): the open bin is scored as
    // it stands, no gap bins bridge the jump, and the cursor resumes at
    // `bin`. A reset after finish() has no open bin to score.
    ++metrics_.time_base_resets;
    const std::size_t closing = current_bin_;
    const bool had_open = bin_open_;
    if (lifecycle_cb_) {
        lifecycle_event ev;
        ev.type = lifecycle_event::kind::time_base_reset;
        ev.from_bin = closing;
        ev.to_bin = bin;
        lifecycle_cb_(ev);
    }
    current_bin_ = bin;
    bin_open_ = true;
    if (had_open) emit_bin(closing);
}

void stream_pipeline::push(std::span<const flow::flow_record> records) {
    // The accumulation clock covers resolve + routing + shard work, so
    // records_per_second() reflects the full per-record ingest cost.
    const std::uint64_t t0 = now_ns();
    resolver_.resolve_batch(records, od_scratch_);
    ingest(records, od_scratch_, t0);
}

void stream_pipeline::ingest(std::span<const flow::flow_record> records,
                             std::span<const int> ods, std::uint64_t t0) {
    if (records.empty()) return;
    // The same clock (bin closures excluded) feeds the accumulate stage
    // histogram, once per call, when one is attached.
    std::uint64_t push_accum_ns = 0;
    // Bin closures are timed separately (bin_close_ns), so the
    // accumulation clock pauses around them.
    const auto pause_clock = [&] {
        const std::uint64_t dt = now_ns() - t0;
        metrics_.accumulate_ns += dt;
        push_accum_ns += dt;
    };

    // Process maximal same-bin runs so shard fan-out happens once per
    // run, not once per record. All per-record accounting (records_in,
    // resolver drops, counted from the run's reason codes) is at run
    // granularity and happens AFTER any bin closes the run triggers: at
    // every on_bin callback the counters describe exactly the records
    // consumed so far, so metrics().records_in doubles as the drained
    // stream position a checkpoint needs for exact resume. A batch can
    // span a bin boundary, so its drops are never counted all at once.
    std::size_t i = 0;
    const std::size_t n = records.size();
    while (i < n) {
        const std::size_t bin = flow::bin_index(records[i].first_us, opts_.bin_us);
        // The run is the records in [start, start + bin_us): two compares
        // per record instead of a 64-bit division.
        const std::uint64_t start = bin * opts_.bin_us;
        std::size_t j = i + 1;
        while (j < n && records[j].first_us >= start &&
               records[j].first_us - start < opts_.bin_us)
            ++j;
        const auto run = records.subspan(i, j - i);
        const auto run_ods = ods.subspan(i, j - i);
        // A record is late when its bin has already been scored: behind
        // the cursor, or — after finish()/run() closed the stream — at
        // or below the last emitted bin. Late records cannot be
        // replayed into the model. Only resolvable records count as
        // late; unresolvable ones are already in resolver_drops, so the
        // counters partition records_in exactly.
        const bool started = bin_open_ || metrics_.bins_emitted > 0;
        const bool late =
            bin_open_ ? bin < current_bin_ : started && bin <= current_bin_;
        if (late && current_bin_ - bin <= opts_.max_gap_bins) {
            metrics_.resolver_drops.count_codes(run_ods);
            for (const int od : run_ods)
                if (od >= 0) ++metrics_.late_records;
            metrics_.records_in += run.size();
            i = j;
            continue;
        }
        if (late) {
            // One corrupt far-future timestamp must not poison
            // current_bin_ so badly that the entire remaining (sane)
            // feed gets late-dropped: resync instead of dropping.
            pause_clock();
            reset_time_base(bin);
            t0 = now_ns();
        } else if (!started) {
            current_bin_ = bin;
            bin_open_ = true;
        } else if (bin > current_bin_) {
            // After finish() the stream continues where it stopped: the
            // bins between the last emitted one and `bin` are bridged or
            // reset exactly as if that bin had still been open.
            pause_clock();
            if (bin - current_bin_ > opts_.max_gap_bins) {
                reset_time_base(bin);
            } else {
                if (!bin_open_) {
                    ++current_bin_;
                    bin_open_ = true;
                }
                while (current_bin_ < bin) close_bin();
            }
            t0 = now_ns();
        }
        metrics_.resolver_drops.count_codes(run_ods);
        metrics_.records_in += run.size();
        const std::uint64_t before = shards_.pending_records();
        const std::uint64_t bad0 = shards_.records_dropped_bad_od();
        shards_.accumulate(run, run_ods);
        metrics_.records_dropped_bad_od +=
            shards_.records_dropped_bad_od() - bad0;
        metrics_.records_accumulated += shards_.pending_records() - before;
        i = j;
    }
    pause_clock();
    if (opts_.timers && opts_.timers->accumulate)
        opts_.timers->accumulate->record_ns(push_accum_ns);
}

void stream_pipeline::finish() {
    if (!bin_open_) return;
    // Clear the open flag before emitting so an observer (e.g. a
    // checkpoint) sees the finished state: the emitted bin is the last,
    // and any later record for it is late.
    bin_open_ = false;
    emit_bin(current_bin_);
}

std::size_t stream_pipeline::run(flow_codec_reader& reader) {
    // The reader's quarantine counters are cumulative per reader; fold
    // only this run's delta into the pipeline metrics (readers may be
    // reused, pipelines may drain several readers).
    const quarantine_stats q0 = reader.quarantine();
    bounded_queue<resolved_frame> queue(opts_.queue_frames);
    // Queue depth + one in flight on each side bounds how many buffers
    // can circulate, so the ring never needs to hold more than that.
    frame_ring ring(opts_.queue_frames + 2);
    std::exception_ptr producer_error;

    // The producer decodes and resolves each frame, so the consuming
    // thread only accumulates and scores; the resolver is const and
    // reads only the topology. Drops are tallied from the frame's
    // reason codes on the consuming thread, run by run, so metrics_
    // has one writer. The decode stage histogram is fed from the
    // producer thread and spans decode plus resolve; the histogram's
    // buckets are atomics, so this is scrape-safe.
    obs::latency_histogram* decode_timer =
        opts_.timers ? opts_.timers->decode : nullptr;
    std::thread producer([&] {
        try {
            resolved_frame frame = ring.acquire();
            for (;;) {
                bool got;
                {
                    obs::stage_span span(decode_timer);
                    got = reader.next_frame(frame.records);
                    if (got) resolver_.resolve_batch(frame.records, frame.ods);
                }
                if (!got) break;
                if (!queue.push(std::move(frame))) break;
                frame = ring.acquire();
            }
        } catch (...) {
            producer_error = std::current_exception();
        }
        queue.close();
    });

    std::size_t frames = 0;
    std::exception_ptr consumer_error;
    try {
        while (auto frame = queue.pop()) {
            ingest(frame->records, frame->ods, now_ns());
            ring.release(std::move(*frame));
            ++frames;
        }
    } catch (...) {
        // ingest() (e.g. a throwing on_bin callback) must not leave the
        // producer blocked on a full queue with a joinable thread going
        // out of scope — that would be std::terminate.
        consumer_error = std::current_exception();
        queue.close();
    }
    producer.join();
    last_run_blocked_pushes_ = queue.blocked_pushes();
    metrics_.frames_reused += ring.reuses();
    const quarantine_stats& q1 = reader.quarantine();
    const std::uint64_t dq_frames =
        q1.frames_quarantined - q0.frames_quarantined;
    const std::uint64_t dq_records =
        q1.records_lost_corrupt - q0.records_lost_corrupt;
    const std::uint64_t dq_bytes =
        q1.resync_bytes_skipped - q0.resync_bytes_skipped;
    metrics_.frames_quarantined += dq_frames;
    metrics_.records_lost_corrupt += dq_records;
    metrics_.resync_bytes_skipped += dq_bytes;
    // Degraded-operation summaries for this run, emitted only when the
    // run actually degraded (zero-delta events would be noise). Summing
    // the deltas across every emitted event reproduces metrics()
    // exactly, which the reconciliation test relies on. Emitted even
    // when the drain is about to rethrow: the deltas are already folded
    // into metrics(), so the event stream must carry them too.
    if (lifecycle_cb_ && (dq_frames || dq_records || dq_bytes)) {
        lifecycle_event ev;
        ev.type = lifecycle_event::kind::quarantine;
        ev.frames_quarantined = dq_frames;
        ev.records_lost = dq_records;
        ev.resync_bytes = dq_bytes;
        lifecycle_cb_(ev);
    }
    if (lifecycle_cb_ && last_run_blocked_pushes_ > 0) {
        lifecycle_event ev;
        ev.type = lifecycle_event::kind::backpressure;
        ev.blocked_pushes = last_run_blocked_pushes_;
        ev.queue_high_watermark = queue.high_watermark();
        lifecycle_cb_(ev);
    }
    if (consumer_error) std::rethrow_exception(consumer_error);
    if (producer_error) std::rethrow_exception(producer_error);
    finish();
    return frames;
}

std::uint64_t stream_pipeline::config_fingerprint() const {
    io::wire_writer w;
    // Topology digest: OD attribution (and therefore every serialized
    // cell) depends on the PoP set, their address spaces, and the link
    // graph — topology construction is deterministic from these, so a
    // routing-relevant change always moves the digest even when the OD
    // count stays the same.
    const net::topology& topo = resolver_.topo();
    w.varint(topo.name().size());
    w.bytes({reinterpret_cast<const std::uint8_t*>(topo.name().data()),
             topo.name().size()});
    for (const net::pop& p : topo.pops()) {
        w.varint(p.name.size());
        w.bytes({reinterpret_cast<const std::uint8_t*>(p.name.data()),
                 p.name.size()});
        w.u32(p.address_space.network.value);
        w.varint(static_cast<std::uint64_t>(p.address_space.length));
    }
    for (const net::link& l : topo.links()) {
        w.varint(static_cast<std::uint64_t>(l.a));
        w.varint(static_cast<std::uint64_t>(l.b));
    }
    w.varint(static_cast<std::uint64_t>(shards_.od_count()));
    w.varint(shards_.shard_count());  // effective, not the 0 = auto knob
    w.varint(opts_.bin_us);
    w.varint(opts_.max_gap_bins);
    // The deleted reorder window's byte, pinned at its only value in use
    // so the fingerprint of an unchanged configuration does not move.
    w.varint(0);
    const core::online_options& o = opts_.online;
    w.varint(o.window);
    w.varint(o.warmup);
    w.varint(o.refit_interval);
    // The deleted max_identified knob's byte, pinned at the 3 flows the
    // online detector identifies, so fingerprints do not move.
    w.varint(3);
    w.varint(o.subspace.normal_dims);
    // Bytes of two deleted subspace flags, pinned so old checkpoints restore.
    w.u8(1);
    w.u8(1);
    w.f64(o.alpha);
    // Recalibration policy: every knob changes the trajectory of a
    // drift-aware detector, so a snapshot must not restore across a
    // policy change. (Disabled policies all serialize identically.)
    const core::recalibration_options& rc = o.recalibration;
    w.u8(rc.enabled ? 1 : 0);
    if (rc.enabled) {
        w.varint(rc.relearn_bins);
        w.f64(rc.degraded_confidence);
        w.f64(rc.monitor.ph_delta);
        w.f64(rc.monitor.ph_lambda);
        w.varint(rc.monitor.min_shift_bins);
        w.varint(rc.monitor.watchdog_window);
        w.f64(rc.monitor.storm_rate);
    }
    return io::fnv1a64(w.data());
}

void stream_pipeline::save_state(io::snapshot_writer& snap) const {
    {
        io::wire_writer w;
        w.varint(current_bin_);
        w.u8(bin_open_ ? 1 : 0);
        const pipeline_metrics& m = metrics_;
        w.varint(m.records_in);
        w.varint(m.records_accumulated);
        w.varint(m.resolver_drops.unknown_ingress);
        w.varint(m.resolver_drops.unresolvable_egress);
        w.varint(m.late_records);
        w.varint(m.records_dropped_bad_od);
        w.varint(m.bins_emitted);
        w.varint(m.empty_bins);
        w.varint(m.time_base_resets);
        w.varint(m.anomalies);
        w.varint(m.accumulate_ns);
        w.varint(m.bin_close_ns);
        w.varint(m.max_bin_close_ns);
        w.varint(m.frames_reused);
        w.varint(m.frames_quarantined);
        w.varint(m.records_lost_corrupt);
        w.varint(m.resync_bytes_skipped);
        snap.add_section(kTagPipeline, kVersionPipeline, w.take());
    }
    {
        io::wire_writer w;
        shards_.save(w);
        snap.add_section(kTagShards, kVersionShards, w.take());
    }
    {
        io::wire_writer w;
        detector_.save(w);
        snap.add_section(kTagDetector, kVersionDetector, w.take());
    }
}

void stream_pipeline::check_section_versions(const io::snapshot_reader& snap) {
    const auto expect_version = [&](std::uint32_t tag, std::uint16_t want,
                                    const char* name) {
        const std::uint16_t got = snap.section_version(tag);
        if (got != want)
            throw io::snapshot_error(
                io::snapshot_errc::unsupported_version,
                std::string(name) + " section version " +
                    std::to_string(got) + ", this build reads " +
                    std::to_string(want));
    };
    expect_version(kTagPipeline, kVersionPipeline, "pipeline");
    expect_version(kTagShards, kVersionShards, "shards");
    expect_version(kTagDetector, kVersionDetector, "detector");
}

void stream_pipeline::restore_state(const io::snapshot_reader& snap) {
    check_section_versions(snap);
    {
        io::wire_reader r = snap.section(kTagPipeline);
        current_bin_ = static_cast<std::size_t>(r.varint());
        bin_open_ = r.u8() != 0;
        pipeline_metrics& m = metrics_;
        m.records_in = r.varint();
        m.records_accumulated = r.varint();
        m.resolver_drops.unknown_ingress =
            static_cast<std::size_t>(r.varint());
        m.resolver_drops.unresolvable_egress =
            static_cast<std::size_t>(r.varint());
        m.late_records = r.varint();
        m.records_dropped_bad_od = r.varint();
        m.bins_emitted = r.varint();
        m.empty_bins = r.varint();
        m.time_base_resets = r.varint();
        m.anomalies = r.varint();
        m.accumulate_ns = r.varint();
        m.bin_close_ns = r.varint();
        m.max_bin_close_ns = r.varint();
        m.frames_reused = r.varint();
        m.frames_quarantined = r.varint();
        m.records_lost_corrupt = r.varint();
        m.resync_bytes_skipped = r.varint();
        r.expect_end();
    }
    {
        io::wire_reader r = snap.section(kTagShards);
        shards_.load(r);
        r.expect_end();
    }
    {
        io::wire_reader r = snap.section(kTagDetector);
        detector_.load(r);
        r.expect_end();
    }
}

}  // namespace tfd::stream
