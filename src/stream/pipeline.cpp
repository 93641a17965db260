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
// little-endian fourccs) and their payload versions. PIPE/SHRD moved
// to v2 when the single held reorder bin became a ring of up to
// reorder_window_bins held bins (and PIPE grew the quarantine
// counters); DETC moved to v2 when the detector grew the drift
// monitor / recalibration state block; PIPE moved to v3 when the
// metrics block grew records_dropped_bad_od; DETC moved to v3 when the
// detector stopped maintaining a Gram (the payload lost the Gram upper
// triangle, the column sums and the exact-rebuild counter). Older
// versions are rejected as unsupported_version rather than guessed at.
constexpr std::uint32_t kTagPipeline = 0x45504950u;
constexpr std::uint32_t kTagShards = 0x44524853u;
constexpr std::uint32_t kTagDetector = 0x43544544u;
constexpr std::uint16_t kVersionPipeline = 3;
constexpr std::uint16_t kVersionShards = 2;
constexpr std::uint16_t kVersionDetector = 3;

/// Hard cap on the reorder ring: W held bins cost W open accumulators
/// of memory and W bins of verdict latency; anything past this is a
/// misconfiguration, not a workload.
constexpr std::size_t kMaxReorderWindow = 64;

}  // namespace

stream_pipeline::stream_pipeline(const net::topology& topo,
                                 pipeline_options opts)
    : resolver_(topo),
      opts_(opts),
      shards_(topo.od_count(), opts.shards),
      detector_(static_cast<std::size_t>(topo.od_count()), opts.online) {
    if (opts.bin_us == 0)
        throw std::invalid_argument("stream_pipeline: bin_us must be > 0");
    if (opts.reorder_window_bins > kMaxReorderWindow)
        throw std::invalid_argument(
            "stream_pipeline: reorder_window_bins must be <= 64");
    if (opts.reorder_window_bins > opts.max_gap_bins)
        throw std::invalid_argument(
            "stream_pipeline: reorder_window_bins must be <= max_gap_bins");
}

void stream_pipeline::emit_bin(od_shard_set& shards, std::size_t bin) {
    const std::uint64_t t0 = now_ns();
    shards.harvest(scratch_.stats);
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
    last_emitted_bin_ = bin;
    any_emitted_ = true;
    if (callback_) callback_(scratch_);
}

// Every close below advances the cursor (or clears the open flag)
// BEFORE emit_bin runs, so the state an on_bin observer sees is always
// resumable: "each bin up to and including the observed one is scored,
// the next bin is open". save_checkpoint() called from the observer
// therefore captures a consistent cut — a restored pipeline never
// re-emits the observed bin.

void stream_pipeline::close_bin() {
    // Only valid when nothing is held below the cursor: every bin under
    // the new cursor position has been emitted.
    const std::size_t closing = current_bin_;
    current_bin_ = closing + 1;
    open_floor_ = current_bin_;
    emit_bin(shards_, closing);
}

od_shard_set stream_pipeline::acquire_set() {
    if (!set_pool_.empty()) {
        od_shard_set set = std::move(set_pool_.back());
        set_pool_.pop_back();
        return set;
    }
    return od_shard_set(shards_.od_count(), opts_.shards);
}

od_shard_set* stream_pipeline::find_held(std::size_t bin) {
    for (held_bin& h : held_)
        if (h.bin == bin) return &h.set;
    return nullptr;
}

od_shard_set* stream_pipeline::retro_open(std::size_t bin) {
    const auto it = std::lower_bound(
        held_.begin(), held_.end(), bin,
        [](const held_bin& h, std::size_t b) { return h.bin < b; });
    const auto inserted = held_.insert(it, held_bin{bin, acquire_set()});
    open_floor_ = std::min(open_floor_, bin);
    return &inserted->set;
}

void stream_pipeline::emit_pending_below(std::size_t limit) {
    // Emit, in ascending bin order, every pending bin below `limit`:
    // held accumulators, and the implicit empty gap bins between them,
    // so the detector's row-per-bin time base stays gap-complete. The
    // floor is advanced and the ring popped BEFORE each emission, so an
    // on_bin observer always sees a resumable cut (see close_bin).
    while (open_floor_ < limit && open_floor_ < current_bin_) {
        const std::size_t bin = open_floor_;
        open_floor_ = bin + 1;
        od_shard_set set = (!held_.empty() && held_.front().bin == bin)
                               ? [&] {
                                     od_shard_set s =
                                         std::move(held_.front().set);
                                     held_.erase(held_.begin());
                                     return s;
                                 }()
                               : acquire_set();
        emit_bin(set, bin);
        set_pool_.push_back(std::move(set));
    }
}

void stream_pipeline::reorder_advance(std::size_t bin) {
    // The cursor moves forward to `bin`; the window now covers
    // [bin - W, bin]. Everything that slid below it is emitted
    // (ascending, gap-complete); the cursor's old bin either joins the
    // held ring or — when the jump is wider than the window — is
    // emitted along with the empty bins bridging it to the window edge.
    const std::size_t w = opts_.reorder_window_bins;
    const std::size_t low = bin > w ? bin - w : 0;
    if (current_bin_ < low) {
        emit_pending_below(current_bin_);
        close_bin();
        while (current_bin_ < low) close_bin();
        current_bin_ = bin;
        // Bins [low, bin) stay implicit: straggler-eligible, emitted
        // as empty when the window slides past them.
    } else {
        emit_pending_below(low);
        held_.push_back(held_bin{current_bin_, std::move(shards_)});
        shards_ = acquire_set();
        current_bin_ = bin;
    }
}

void stream_pipeline::push(std::span<const flow::flow_record> records) {
    if (records.empty()) return;
    // The accumulation clock covers resolve + routing + shard work, so
    // records_per_second() reflects the full per-record ingest cost.
    // The same clock (bin closures excluded) feeds the per-push
    // accumulate stage histogram when one is attached.
    std::uint64_t push_accum_ns = 0;
    std::uint64_t t0 = now_ns();

    // Process maximal same-bin runs so shard fan-out happens once per
    // run, not once per record. All per-record accounting (records_in,
    // resolver drops) is at run granularity and happens AFTER any bin
    // closes the run triggers: at every on_bin callback the counters
    // describe exactly the records consumed so far, so
    // metrics().records_in doubles as the drained stream position a
    // checkpoint needs for exact resume.
    std::size_t i = 0;
    const std::size_t n = records.size();
    while (i < n) {
        const std::size_t bin = flow::bin_index(records[i].first_us, opts_.bin_us);
        std::size_t j = i + 1;
        while (j < n &&
               flow::bin_index(records[j].first_us, opts_.bin_us) == bin)
            ++j;
        const auto run = records.subspan(i, j - i);
        // A record is late when its bin has already been scored: below
        // the reorder window (or, with reorder off, behind the
        // cursor), or — after finish()/run() closed the stream — at or
        // below the last emitted bin. Late records cannot be replayed
        // into the model. Only resolvable records count as late;
        // unresolvable ones are already in resolver_drops, so the
        // counters partition records_in exactly.
        // A straggler lands in a held bin of the reorder ring — or,
        // when its bin is inside the window but holds no accumulator
        // yet and was provably never scored (an implicit empty gap,
        // stream start, a time-base reset), retroactively opens one:
        // "late" must mean "already scored", not merely "behind the
        // cursor".
        // "Provably never scored": nothing emitted yet, the last
        // verdict is below this bin (stream start, forward time-base
        // reset), or the last verdict is unreachably far above it
        // (backward time-base reset started a new era; bin indices are
        // era-local, so a bin more than max_gap_bins below every scored
        // bin has no verdict in this era).
        od_shard_set* straggler_set = nullptr;
        if (bin_open_ && bin < current_bin_ &&
            current_bin_ - bin <= opts_.reorder_window_bins) {
            straggler_set = find_held(bin);
            if (!straggler_set &&
                (!any_emitted_ || last_emitted_bin_ < bin ||
                 last_emitted_bin_ - bin > opts_.max_gap_bins))
                straggler_set = retro_open(bin);
        }
        const bool straggler = straggler_set != nullptr;
        const bool late =
            !straggler &&
            (bin_open_ ? bin < current_bin_
                       : metrics_.bins_emitted > 0 && bin <= current_bin_);
        if (late) {
            // A backward jump beyond max_gap_bins is a time-base
            // discontinuity, the mirror of the forward case below: one
            // corrupt far-future timestamp must not poison current_bin_
            // so badly that the entire remaining (sane) feed gets
            // late-dropped. Resync instead of dropping.
            if (current_bin_ - bin > opts_.max_gap_bins) {
                const std::uint64_t dt = now_ns() - t0;
                metrics_.accumulate_ns += dt;
                push_accum_ns += dt;
                emit_pending_below(current_bin_);
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
                open_floor_ = bin;
                bin_open_ = true;
                if (had_open) emit_bin(shards_, closing);
                t0 = now_ns();
            } else {
                resolver_.resolve_batch(run, od_scratch_,
                                        &metrics_.resolver_drops);
                for (std::size_t k = 0; k < run.size(); ++k)
                    if (od_scratch_[k] >= 0) ++metrics_.late_records;
                metrics_.records_in += run.size();
                i = j;
                continue;
            }
        }
        if (!bin_open_) {
            current_bin_ = bin;
            open_floor_ = bin;
            bin_open_ = true;
        } else if (bin > current_bin_) {
            // Bin closures are timed separately (bin_close_ns), so pause
            // the accumulation clock around them.
            const std::uint64_t dt = now_ns() - t0;
            metrics_.accumulate_ns += dt;
            push_accum_ns += dt;
            if (bin - current_bin_ > opts_.max_gap_bins) {
                // Time-base discontinuity: don't spin through an absurd
                // number of empty harvests (see pipeline_options).
                emit_pending_below(current_bin_);
                ++metrics_.time_base_resets;
                const std::size_t closing = current_bin_;
                if (lifecycle_cb_) {
                    lifecycle_event ev;
                    ev.type = lifecycle_event::kind::time_base_reset;
                    ev.from_bin = closing;
                    ev.to_bin = bin;
                    lifecycle_cb_(ev);
                }
                current_bin_ = bin;
                open_floor_ = bin;
                emit_bin(shards_, closing);
            } else {
                reorder_advance(bin);
            }
            t0 = now_ns();
        }
        resolver_.resolve_batch(run, od_scratch_, &metrics_.resolver_drops);
        metrics_.records_in += run.size();
        const std::span<const int> run_ods(od_scratch_.data(), run.size());
        od_shard_set& target = straggler ? *straggler_set : shards_;
        const std::uint64_t before = target.pending_records();
        const std::uint64_t bad0 = target.records_dropped_bad_od();
        target.accumulate(run, run_ods);
        const std::uint64_t got = target.pending_records() - before;
        metrics_.records_dropped_bad_od +=
            target.records_dropped_bad_od() - bad0;
        metrics_.records_accumulated += got;
        if (straggler) metrics_.records_reordered += got;
        i = j;
    }
    const std::uint64_t dt = now_ns() - t0;
    metrics_.accumulate_ns += dt;
    push_accum_ns += dt;
    if (opts_.timers && opts_.timers->accumulate)
        opts_.timers->accumulate->record_ns(push_accum_ns);
}

void stream_pipeline::finish() {
    if (bin_open_) emit_pending_below(current_bin_);
    if (!bin_open_) return;
    // Clear the open flag before emitting so an observer (e.g. a
    // checkpoint) sees the finished state: the emitted bin is the last,
    // and any later record for it is late.
    bin_open_ = false;
    emit_bin(shards_, current_bin_);
}

std::size_t stream_pipeline::run(flow_codec_reader& reader) {
    // The reader's quarantine counters are cumulative per reader; fold
    // only this run's delta into the pipeline metrics (readers may be
    // reused, pipelines may drain several readers).
    const quarantine_stats q0 = reader.quarantine();
    bounded_queue<std::vector<flow::flow_record>> queue(opts_.queue_frames);
    // Queue depth + one in flight on each side bounds how many buffers
    // can circulate, so the ring never needs to hold more than that.
    frame_ring ring(opts_.queue_frames + 2);
    std::exception_ptr producer_error;

    // The decode stage histogram is fed from the producer thread; the
    // histogram's buckets are atomics, so this is scrape-safe.
    obs::latency_histogram* decode_timer =
        opts_.timers ? opts_.timers->decode : nullptr;
    std::thread producer([&] {
        try {
            std::vector<flow::flow_record> frame = ring.acquire();
            for (;;) {
                bool got;
                {
                    obs::stage_span span(decode_timer);
                    got = reader.next_frame(frame);
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
            push(*frame);
            ring.release(std::move(*frame));
            ++frames;
        }
    } catch (...) {
        // push() (e.g. a throwing on_bin callback) must not leave the
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
    w.varint(opts_.reorder_window_bins);
    const core::online_options& o = opts_.online;
    w.varint(o.window);
    w.varint(o.warmup);
    w.varint(o.refit_interval);
    w.varint(o.max_identified);
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
        w.u8(any_emitted_ ? 1 : 0);
        w.varint(last_emitted_bin_);
        w.varint(open_floor_);
        const pipeline_metrics& m = metrics_;
        w.varint(m.records_in);
        w.varint(m.records_accumulated);
        w.varint(m.resolver_drops.unknown_ingress);
        w.varint(m.resolver_drops.unresolvable_egress);
        w.varint(m.late_records);
        w.varint(m.records_dropped_bad_od);
        w.varint(m.records_reordered);
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
        w.varint(held_.size());
        for (const held_bin& h : held_) {
            w.varint(h.bin);
            h.set.save(w);
        }
        snap.add_section(kTagShards, kVersionShards, w.take());
    }
    {
        io::wire_writer w;
        detector_.save(w);
        snap.add_section(kTagDetector, kVersionDetector, w.take());
    }
}

void stream_pipeline::restore_state(const io::snapshot_reader& snap) {
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
    {
        io::wire_reader r = snap.section(kTagPipeline);
        current_bin_ = static_cast<std::size_t>(r.varint());
        bin_open_ = r.u8() != 0;
        any_emitted_ = r.u8() != 0;
        last_emitted_bin_ = static_cast<std::size_t>(r.varint());
        open_floor_ = static_cast<std::size_t>(r.varint());
        pipeline_metrics& m = metrics_;
        m.records_in = r.varint();
        m.records_accumulated = r.varint();
        m.resolver_drops.unknown_ingress =
            static_cast<std::size_t>(r.varint());
        m.resolver_drops.unresolvable_egress =
            static_cast<std::size_t>(r.varint());
        m.late_records = r.varint();
        m.records_dropped_bad_od = r.varint();
        m.records_reordered = r.varint();
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
        const std::size_t held = static_cast<std::size_t>(r.varint());
        if (held > opts_.reorder_window_bins)
            r.fail("stream_pipeline: snapshot holds more reorder bins "
                   "than this pipeline's window");
        held_.clear();
        held_.reserve(held);
        for (std::size_t i = 0; i < held; ++i) {
            const std::size_t bin = static_cast<std::size_t>(r.varint());
            if (!held_.empty() && bin <= held_.back().bin)
                r.fail("stream_pipeline: held reorder bins out of order");
            held_.push_back(held_bin{bin, acquire_set()});
            held_.back().set.load(r);
        }
        r.expect_end();
    }
    {
        io::wire_reader r = snap.section(kTagDetector);
        detector_.load(r);
        r.expect_end();
    }
}

}  // namespace tfd::stream
