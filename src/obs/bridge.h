// tfd::obs — the bridge between the streaming layers and the
// observability surface.
//
// The pipeline, checkpointer and detector stay observability-agnostic:
// they expose observers (on_bin, on_lifecycle, on_checkpoint) and
// optional latency sinks, and this bridge turns what those observers
// see into the three operator surfaces:
//
//   * the structured event stream (obs/event.h) — one JSONL line per
//     anomaly / bin close / checkpoint / quarantine / reset /
//     backpressure, through whatever sink the caller plugged in;
//   * the metrics registry (obs/metrics.h) — pipeline_metrics counters
//     adopted via monotone set_to() at every bin close (the pipeline's
//     counters stay authoritative; the registry is the exposition
//     copy), plus the derived throughput/latency gauges;
//   * the alert manager (obs/alert.h) — every anomalous verdict is
//     graded and deduped, and the decision (severity, suppressed) is
//     stamped into the anomaly event itself.
//
// Wiring: the bridge installs the pipeline's on_lifecycle observer at
// construction (it is the only consumer of that hook). The bin observer
// is NOT installed — callers own pipeline.on_bin() (the daemon chains
// checkpointing and progress reporting there) and call
// bridge.observe_bin() from it. wire_checkpointer() installs the
// checkpointer's on_checkpoint observer.
//
// Reconciliation contract (pinned by tests/obs/reconcile_test.cpp):
// after a drain where every emitted bin passed through observe_bin(),
// event totals reconcile exactly with pipeline_metrics.
#pragma once

#include <cstdint>
#include <string>

#include "obs/alert.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "stream/checkpoint.h"
#include "stream/pipeline.h"

namespace tfd::net {
class topology;
}

namespace tfd::obs {

struct bridge_options {
    /// Destination for serialized events (tee_sink for several). Null
    /// disables event emission (metrics/alerts still update).
    event_sink* sink = nullptr;
    /// Registry to adopt pipeline counters + stage gauges into. Null
    /// disables metrics adoption.
    metrics_registry* registry = nullptr;
    /// Alert grading/dedup for anomalous verdicts. Null means every
    /// anomaly event carries severity from a default-graded decision
    /// computed inline (never suppressed).
    alert_manager* alerts = nullptr;
    /// When set, anomaly events carry PoP names for the OD pairs.
    const net::topology* topology = nullptr;
    /// First sequence number the emitter assigns (a resumed daemon can
    /// continue a previous run's sequence).
    std::uint64_t first_seq = 1;
};

/// The adopted-counter and gauge set the bridge maintains (see
/// src/obs/README.md for the full metric catalog).
class pipeline_bridge {
public:
    /// Installs `pipeline`'s on_lifecycle observer. The bridge must
    /// outlive the pipeline's last push()/run() call.
    pipeline_bridge(stream::stream_pipeline& pipeline, bridge_options opts);

    pipeline_bridge(const pipeline_bridge&) = delete;
    pipeline_bridge& operator=(const pipeline_bridge&) = delete;

    /// Call from the pipeline's on_bin observer, for every emitted bin:
    /// emits bin_closed (and anomaly, when the verdict is anomalous)
    /// and refreshes the registry from pipeline_metrics.
    void observe_bin(const stream::bin_result& r);

    /// Install the checkpointer's on_checkpoint observer: each
    /// successful write becomes a checkpoint_saved event.
    void wire_checkpointer(stream::periodic_checkpointer& cp);

    /// Emit a checkpoint_restored event for a startup restore (no-op
    /// when the report restored nothing).
    void emit_checkpoint_restored(const stream::restore_report& report);

    /// Copy the pipeline's counters into the registry now (observe_bin
    /// does this per bin; call this after a drain so final partial-bin
    /// state — quarantine folds, late drops past the last close — is
    /// exposed too).
    void sync_metrics();

    /// JSON health snapshot for the /healthz endpoint; safe to call
    /// from the HTTP thread (reads registry atomics only).
    std::string healthz_json() const;

    event_emitter& emitter() noexcept { return emitter_; }

private:
    void on_lifecycle(const stream::lifecycle_event& ev);
    void fill_od_names(int od, std::string& origin, std::string& dest) const;

    stream::stream_pipeline* pipeline_;
    bridge_options opts_;
    event_emitter emitter_;

    // Per-bin deltas need the previous cumulative values.
    std::uint64_t last_bin_close_ns_ = 0;
    std::uint64_t last_records_accumulated_ = 0;
    std::uint64_t last_bin_ = 0;

    // Bins spent degraded since the last drift event; counted per
    // observed bin (not bin-number arithmetic) so time-base resets
    // inside a re-learn window cannot corrupt the recalibrated event.
    std::uint64_t degraded_bins_ = 0;

    // Adopted registry metrics (null when no registry was given).
    struct adopted {
        counter* records_in = nullptr;
        counter* records_accumulated = nullptr;
        counter* records_late = nullptr;
        counter* records_dropped_bad_od = nullptr;
        counter* drops_unknown_ingress = nullptr;
        counter* drops_unresolvable_egress = nullptr;
        counter* bins_emitted = nullptr;
        counter* bins_empty = nullptr;
        counter* anomalies = nullptr;
        counter* time_base_resets = nullptr;
        counter* frames_quarantined = nullptr;
        counter* records_lost_corrupt = nullptr;
        counter* resync_bytes_skipped = nullptr;
        counter* backpressure_blocked = nullptr;
        counter* frames_reused = nullptr;
        counter* events_emitted = nullptr;
        counter* alerts_total = nullptr;
        counter* alerts_suppressed = nullptr;
        counter* checkpoints_written = nullptr;
        counter* checkpoint_retries = nullptr;
        counter* drift_events = nullptr;
        counter* recalibrations = nullptr;
        gauge* records_per_second = nullptr;
        gauge* bin_close_mean_seconds = nullptr;
        gauge* detector_state = nullptr;
        gauge* kernel_isa = nullptr;
    } m_;
};

}  // namespace tfd::obs
