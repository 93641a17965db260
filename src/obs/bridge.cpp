#include "obs/bridge.h"

#include "linalg/simd.h"
#include "net/topology.h"
#include "obs/json.h"

namespace tfd::obs {

pipeline_bridge::pipeline_bridge(stream::stream_pipeline& pipeline,
                                 bridge_options opts)
    : pipeline_(&pipeline), opts_(opts), emitter_(opts.sink, opts.first_seq) {
    if (metrics_registry* reg = opts_.registry) {
        m_.records_in = &reg->get_counter(
            "tfd_records_in_total", "Flow records offered to the pipeline");
        m_.records_accumulated = &reg->get_counter(
            "tfd_records_accumulated_total",
            "Records that survived resolve and lateness");
        m_.records_late = &reg->get_counter(
            "tfd_records_late_total",
            "Resolvable records dropped because their bin was already scored");
        m_.records_dropped_bad_od = &reg->get_counter(
            "tfd_records_dropped_bad_od_total",
            "Records dropped: OD index out of range (broken producer)");
        m_.drops_unknown_ingress = &reg->get_counter(
            "tfd_resolver_drops_unknown_ingress_total",
            "Records dropped: source address outside every PoP");
        m_.drops_unresolvable_egress = &reg->get_counter(
            "tfd_resolver_drops_unresolvable_egress_total",
            "Records dropped: no egress PoP resolvable");
        m_.bins_emitted = &reg->get_counter("tfd_bins_emitted_total",
                                            "Timebins closed and scored");
        m_.bins_empty = &reg->get_counter(
            "tfd_bins_empty_total", "Gap bins emitted with no records");
        m_.anomalies = &reg->get_counter("tfd_anomalies_total",
                                         "Bins the detector flagged");
        m_.time_base_resets = &reg->get_counter(
            "tfd_time_base_resets_total",
            "Time-base discontinuities (> max_gap_bins jumps)");
        m_.frames_quarantined = &reg->get_counter(
            "tfd_frames_quarantined_total", "Corrupt codec frames skipped");
        m_.records_lost_corrupt = &reg->get_counter(
            "tfd_records_lost_corrupt_total",
            "Records provably lost inside quarantined frames");
        m_.resync_bytes_skipped = &reg->get_counter(
            "tfd_resync_bytes_skipped_total",
            "Bytes discarded while rescanning for a frame boundary");
        m_.backpressure_blocked = &reg->get_counter(
            "tfd_backpressure_blocked_pushes_total",
            "Producer pushes that found the frame queue full");
        m_.frames_reused = &reg->get_counter(
            "tfd_frames_reused_total",
            "Decoded-frame buffers served from the recycling ring");
        m_.events_emitted = &reg->get_counter(
            "tfd_events_emitted_total", "Structured events emitted");
        m_.alerts_total = &reg->get_counter(
            "tfd_alerts_total", "Alerts delivered (survived dedup)");
        m_.alerts_suppressed = &reg->get_counter(
            "tfd_alerts_suppressed_total",
            "Alerts suppressed by the per-OD cooldown");
        m_.checkpoints_written = &reg->get_counter(
            "tfd_checkpoints_written_total", "Periodic checkpoints written");
        m_.checkpoint_retries = &reg->get_counter(
            "tfd_checkpoint_retries_total",
            "Extra checkpoint save attempts beyond the first");
        m_.drift_events = &reg->get_counter(
            "tfd_drift_events_total",
            "Distribution shifts confirmed by the drift monitor");
        m_.recalibrations = &reg->get_counter(
            "tfd_recalibrations_total",
            "Detector recalibrations completed after a drift");
        m_.detector_state = &reg->get_gauge(
            "tfd_detector_state",
            "Detector calibration state: 0=normal, 1=degraded (re-learning)");
        m_.records_per_second = &reg->get_gauge(
            "tfd_ingest_records_per_second",
            "Throughput over time spent inside the pipeline "
            "(pipeline_metrics::records_per_second)");
        m_.bin_close_mean_seconds = &reg->get_gauge(
            "tfd_bin_close_mean_seconds",
            "Mean harvest+detect latency per emitted bin, empty gap bins "
            "included (pipeline_metrics::mean_bin_close_ms)");
        m_.kernel_isa = &reg->get_gauge(
            "tfd_kernel_isa",
            "SIMD tier the linalg kernels dispatched to: 0=scalar, "
            "1=fma256");
        // Dispatch is decided once at process start; stamp it so a
        // scrape shows which tier this daemon actually runs.
        m_.kernel_isa->set(static_cast<double>(
            static_cast<int>(linalg::active_kernel_isa())));
        emitter_.count_into(m_.events_emitted);
    }
    pipeline.on_lifecycle(
        [this](const stream::lifecycle_event& ev) { on_lifecycle(ev); });
}

void pipeline_bridge::fill_od_names(int od, std::string& origin,
                                    std::string& dest) const {
    if (!opts_.topology || od < 0 || od >= opts_.topology->od_count()) return;
    const auto [o, d] = opts_.topology->od_pair(od);
    origin = opts_.topology->pops()[static_cast<std::size_t>(o)].name;
    dest = opts_.topology->pops()[static_cast<std::size_t>(d)].name;
}

void pipeline_bridge::observe_bin(const stream::bin_result& r) {
    const stream::pipeline_metrics& pm = pipeline_->metrics();
    last_bin_ = r.stats.bin;

    bin_closed_data bc;
    bc.records = r.stats.records;
    bc.empty = r.stats.records == 0;
    bc.scored = r.verdict.scored;
    bc.anomalous = r.verdict.anomalous;
    // emit_bin folded this bin's close time into the cumulative counter
    // before invoking the observer, so the delta is exactly this bin's.
    bc.close_ns = pm.bin_close_ns - last_bin_close_ns_;
    last_bin_close_ns_ = pm.bin_close_ns;
    emitter_.emit(r.stats.bin, event_data(bc));

    if (r.verdict.degraded) ++degraded_bins_;

    if (r.verdict.drift_detected) {
        // The detector keeps the monitor's confirming statistics until
        // the recalibration bin, so they are still readable here.
        drift_data dd;
        if (const core::drift_monitor* mon = pipeline_->detector().drift()) {
            dd.ph = mon->ph();
            dd.alarm_rate = mon->alarm_rate();
        }
        dd.relearn_bins =
            pipeline_->detector().options().recalibration.relearn_bins;
        if (m_.drift_events) m_.drift_events->inc();
        emitter_.emit(r.stats.bin, event_data(dd));
    }

    if (r.verdict.recalibrated) {
        recalibrated_data rd;
        rd.threshold = r.verdict.threshold;
        rd.bins_degraded = degraded_bins_;
        degraded_bins_ = 0;
        if (m_.recalibrations) m_.recalibrations->inc();
        emitter_.emit(r.stats.bin, event_data(rd));
    }

    if (r.verdict.anomalous) {
        anomaly_data an;
        an.od = r.verdict.top_od;
        an.spe = r.verdict.spe;
        an.threshold = r.verdict.threshold;
        an.h_tilde = r.verdict.h_tilde;
        an.confidence = r.verdict.confidence;
        fill_od_names(an.od, an.origin, an.dest);
        alert_decision d;
        if (r.verdict.degraded) {
            // Re-learn window: the alarm storm that triggered the drift
            // must not flood the alert manager (or burn its per-OD
            // cooldowns). The detection is still delivered as an event,
            // marked suppressed + low-confidence.
            d.ratio = an.threshold > 0.0 ? an.spe / an.threshold : 0.0;
            d.sev = severity::warning;
            d.suppressed = true;
        } else if (opts_.alerts) {
            d = opts_.alerts->observe(r.stats.bin, an.od, an.spe,
                                      an.threshold);
        } else {
            d.ratio = an.threshold > 0.0 ? an.spe / an.threshold : 0.0;
            d.sev = severity::warning;
        }
        an.ratio = d.ratio;
        an.severity = severity_name(d.sev);
        an.suppressed = d.suppressed;
        an.flows.reserve(r.verdict.flows.size());
        for (const core::identified_flow& f : r.verdict.flows) {
            anomaly_flow af;
            af.od = f.od;
            af.magnitude = f.magnitude;
            af.spe_after = f.spe_after;
            fill_od_names(af.od, af.origin, af.dest);
            an.flows.push_back(std::move(af));
        }
        emitter_.emit(r.stats.bin, event_data(std::move(an)));
    }

    sync_metrics();
}

void pipeline_bridge::sync_metrics() {
    if (!opts_.registry) return;
    const stream::pipeline_metrics& pm = pipeline_->metrics();
    m_.records_in->set_to(pm.records_in);
    m_.records_accumulated->set_to(pm.records_accumulated);
    m_.records_late->set_to(pm.late_records);
    m_.records_dropped_bad_od->set_to(pm.records_dropped_bad_od);
    m_.drops_unknown_ingress->set_to(pm.resolver_drops.unknown_ingress);
    m_.drops_unresolvable_egress->set_to(pm.resolver_drops.unresolvable_egress);
    m_.bins_emitted->set_to(pm.bins_emitted);
    m_.bins_empty->set_to(pm.empty_bins);
    m_.anomalies->set_to(pm.anomalies);
    m_.time_base_resets->set_to(pm.time_base_resets);
    m_.frames_quarantined->set_to(pm.frames_quarantined);
    m_.records_lost_corrupt->set_to(pm.records_lost_corrupt);
    m_.resync_bytes_skipped->set_to(pm.resync_bytes_skipped);
    m_.frames_reused->set_to(pm.frames_reused);
    m_.records_per_second->set(pm.records_per_second());
    m_.bin_close_mean_seconds->set(pm.mean_bin_close_ms() * 1e-3);
    m_.detector_state->set(
        pipeline_->detector().state() == core::detector_state::degraded ? 1.0
                                                                        : 0.0);
    if (opts_.alerts) {
        m_.alerts_total->set_to(opts_.alerts->alerts_total());
        m_.alerts_suppressed->set_to(opts_.alerts->suppressed_total());
    }
}

void pipeline_bridge::on_lifecycle(const stream::lifecycle_event& ev) {
    using kind = stream::lifecycle_event::kind;
    switch (ev.type) {
        case kind::time_base_reset: {
            time_base_reset_data d;
            d.from_bin = ev.from_bin;
            d.to_bin = ev.to_bin;
            emitter_.emit(ev.from_bin, event_data(d));
            break;
        }
        case kind::quarantine: {
            quarantine_data d;
            d.frames = ev.frames_quarantined;
            d.records_lost = ev.records_lost;
            d.resync_bytes = ev.resync_bytes;
            emitter_.emit(last_bin_, event_data(d));
            break;
        }
        case kind::backpressure: {
            backpressure_data d;
            d.blocked_pushes = ev.blocked_pushes;
            d.queue_high_watermark = ev.queue_high_watermark;
            // The cumulative counter spans runs; the event carries this
            // run's delta only, so inc (not set_to) keeps them equal.
            if (m_.backpressure_blocked)
                m_.backpressure_blocked->inc(ev.blocked_pushes);
            emitter_.emit(last_bin_, event_data(d));
            break;
        }
    }
}

void pipeline_bridge::wire_checkpointer(stream::periodic_checkpointer& cp) {
    cp.on_checkpoint([this](const stream::checkpoint_written& info) {
        const stream::pipeline_metrics& pm = pipeline_->metrics();
        checkpoint_saved_data d;
        d.path = info.path;
        d.seq = info.seq;
        d.bins_emitted = pm.bins_emitted;
        d.records_in = pm.records_in;
        d.retries = info.retries;
        if (m_.checkpoints_written) m_.checkpoints_written->inc();
        if (m_.checkpoint_retries) m_.checkpoint_retries->inc(info.retries);
        emitter_.emit(last_bin_, event_data(std::move(d)));
    });
}

void pipeline_bridge::emit_checkpoint_restored(
    const stream::restore_report& report) {
    if (report.restored_path.empty()) return;
    const stream::pipeline_metrics& pm = pipeline_->metrics();
    checkpoint_restored_data d;
    d.path = report.restored_path;
    d.bins_emitted = pm.bins_emitted;
    d.records_in = pm.records_in;
    d.candidates = report.candidates;
    d.skipped = report.corrupt_skipped + report.truncated_skipped +
                report.mismatched_skipped + report.io_failed_skipped;
    last_bin_ = pm.bins_emitted;
    last_bin_close_ns_ = pm.bin_close_ns;
    last_records_accumulated_ = pm.records_accumulated;
    emitter_.emit(last_bin_, event_data(std::move(d)));
    sync_metrics();
}

std::string pipeline_bridge::healthz_json() const {
    // Reads only registry atomics and the alert manager's locked
    // totals: safe from the HTTP thread while the pipeline runs (the
    // raw pipeline_metrics struct is NOT touched here — it belongs to
    // the ingest thread).
    json_writer w;
    w.begin_object();
    w.key("status");
    w.value("ok");
    if (opts_.registry) {
        w.key("bins_emitted");
        w.value(m_.bins_emitted->value());
        w.key("records_in");
        w.value(m_.records_in->value());
        w.key("anomalies");
        w.value(m_.anomalies->value());
        w.key("events_emitted");
        w.value(m_.events_emitted->value());
        // Mirrors the tfd_detector_state gauge (registry atomic, not
        // the detector itself — this runs on the HTTP thread).
        w.key("detector_state");
        w.value(m_.detector_state->value() >= 1.0 ? "degraded" : "normal");
        w.key("drift_events");
        w.value(m_.drift_events->value());
        w.key("recalibrations");
        w.value(m_.recalibrations->value());
    }
    if (opts_.alerts) {
        w.key("alerts_total");
        w.value(opts_.alerts->alerts_total());
        w.key("alerts_suppressed");
        w.value(opts_.alerts->suppressed_total());
    }
    // Which SIMD tier this process dispatched to — set once at startup,
    // so reading the global here is as safe as reading a constant.
    w.key("kernel_isa");
    w.value(linalg::kernel_isa_name(linalg::active_kernel_isa()));
    w.key("schema_version");
    w.value(static_cast<std::uint64_t>(event_schema_version));
    w.end_object();
    return w.take();
}

}  // namespace tfd::obs
