// tfd::core — online (streaming) detection.
//
// The paper's conclusion names "online extensions" as ongoing work: an
// operator wants each new 5-minute bin scored as it arrives, not a
// batch re-analysis of three weeks. This module provides that: a
// sliding-window detector that maintains the multiway subspace model
// over the last W bins, scores each incoming bin against the current
// model, and refits on a configurable cadence (refitting every bin
// would cost an eigendecomposition per 5 minutes; the model drifts
// slowly, so refitting every R bins loses little).
//
// Refit contract: the detector keeps only the window's raw rows, and a
// refit is subspace_model::fit of the block-normalized window — the
// rows stacked oldest-first into one t x 4p matrix and each feature
// block divided by its Frobenius norm, with unfold()'s semantics and
// summation order. The model, threshold and every verdict are therefore
// bit-identical to a batch fit of the same window (pinned by the online
// parity test). The fit picks its own algebra: while the window has
// fewer rows than the unfolded matrix has columns (Géant's 576 bins
// against 4 x 484 columns) it eigensolves the t x t Gram of the rows,
// otherwise the 4p x 4p covariance; pushes only append and evict rows.
//
// The incoming unit of data is one network-wide snapshot: the four
// entropy values and the volume counters for every OD flow in the bin.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "core/drift.h"
#include "core/identify.h"
#include "core/subspace.h"
#include "flow/flow_record.h"
#include "io/wire.h"

namespace tfd::obs {
class latency_histogram;  // obs/metrics.h — optional refit latency sink
}

namespace tfd::core {

/// One network-wide observation: per-OD entropy 4-tuples.
struct entropy_snapshot {
    /// entropies[f] holds one value per OD flow, in flow::feature order.
    std::array<std::vector<double>, flow::feature_count> entropies;

    /// Number of OD flows (0 if unset / inconsistent).
    std::size_t flows() const noexcept;
};

/// Where the detector is in its calibration lifecycle.
enum class detector_state : int {
    normal = 0,    ///< model trusted, full-confidence verdicts
    degraded = 1,  ///< drift confirmed, re-learning; low-confidence verdicts
};

/// Drift-aware self-calibration policy (off by default: with
/// enabled == false every verdict and every model state is bit-identical
/// to a detector that predates this option).
struct recalibration_options {
    bool enabled = false;
    /// Drift confirmation policy (Page–Hinkley + alarm-rate watchdog).
    drift_options monitor{};
    /// Bins of post-drift history to re-learn from: once a shift is
    /// confirmed, the detector stays degraded for exactly this many more
    /// bins, then truncates its window to those bins, refits, and
    /// re-estimates the threshold. The re-learned state is bit-identical
    /// to a fresh detector (with warmup == relearn_bins) fed only the
    /// post-drift rows — the fresh-fit parity contract pinned by
    /// tests/core/drift_test.cpp.
    /// Must be in [2, window].
    std::size_t relearn_bins = 32;
    /// Confidence stamped on verdicts while degraded (normal bins carry
    /// 1.0). Detections are never dropped, only marked.
    double degraded_confidence = 0.25;
};

/// Options for the streaming detector.
struct online_options {
    std::size_t window = 576;        ///< sliding history length (bins)
    std::size_t warmup = 288;        ///< bins required before scoring
    std::size_t refit_interval = 48; ///< refit the model every R bins
    subspace_options subspace{.normal_dims = 10};
    double alpha = 0.999;
    /// Optional latency sink: each refit() (the eigendecomposition
    /// cadence) records its duration here when non-null.
    /// Observability-only — excluded from the checkpoint fingerprint,
    /// never changes behaviour.
    obs::latency_histogram* refit_timer = nullptr;
    /// Drift-aware self-calibration (core/drift.h); disabled by default.
    recalibration_options recalibration{};
};

/// Verdict for one scored bin.
struct online_verdict {
    std::size_t bin = 0;      ///< running index of the observation
    bool scored = false;      ///< false during warmup
    bool anomalous = false;
    double spe = 0.0;
    double threshold = 0.0;
    /// Attribution as identify_flows returns it, at most 3 flows (only
    /// set when anomalous).
    std::vector<identified_flow> flows;
    int top_od = -1;
    std::array<double, flow::feature_count> h_tilde{};
    /// How much to trust this verdict: 1.0 normally,
    /// recalibration_options::degraded_confidence while re-learning.
    double confidence = 1.0;
    /// True while the detector is in the degraded (re-learn) state.
    bool degraded = false;
    /// True on exactly the bin where a distribution shift was confirmed.
    bool drift_detected = false;
    /// True on exactly the bin where recalibration completed (this bin
    /// is already scored under the re-learned model and threshold).
    bool recalibrated = false;
};

/// Sliding-window multiway subspace detector.
///
/// Feed one entropy_snapshot per bin through push(); the detector
/// maintains the window, refits on schedule, and returns a verdict.
/// Deterministic: no hidden randomness.
class online_detector {
public:
    /// `flows` fixes the expected per-snapshot width. Throws
    /// std::invalid_argument on degenerate options.
    online_detector(std::size_t flows, const online_options& opts = {});

    /// Ingest the next bin; returns its verdict (unscored in warmup).
    online_verdict push(const entropy_snapshot& snapshot);

    /// Number of bins ingested so far.
    std::size_t bins_seen() const noexcept { return bins_seen_; }

    /// True once a model is fitted and scoring is live.
    bool ready() const noexcept { return model_.has_value(); }

    /// The live threshold (0 before ready()).
    double threshold() const noexcept { return threshold_; }

    const online_options& options() const noexcept { return opts_; }

    /// Calibration lifecycle state (always `normal` when recalibration
    /// is disabled).
    detector_state state() const noexcept { return state_; }

    /// The drift monitor, or nullptr when recalibration is disabled.
    const drift_monitor* drift() const noexcept {
        return monitor_ ? &*monitor_ : nullptr;
    }

    /// Snapshot hook: serialize the complete streaming state — window
    /// rows bit-exactly, the refit cadence counter, and the current
    /// subspace model with its threshold. Configuration (flows, options)
    /// is NOT serialized: it belongs to the constructor, and the
    /// checkpoint layer fingerprints it so a snapshot can never be
    /// restored into a differently configured detector.
    void save(io::wire_writer& w) const;

    /// Restore from save() output (state replaced). The detector must
    /// have been constructed with the same flows/options as the one
    /// that saved. After load, every future push() returns verdicts
    /// bit-identical to the uninterrupted detector's. Throws
    /// io::wire_error on truncated or shape-inconsistent payloads.
    void load(io::wire_reader& r);

private:
    void refit();
    void recalibrate();
    std::vector<double> flatten(const entropy_snapshot& s) const;

    std::size_t flows_;
    online_options opts_;
    std::deque<std::vector<double>> window_;  ///< raw (un-normalized) rows
    std::array<double, flow::feature_count> norms_{};  ///< current block norms
    std::optional<subspace_model> model_;
    double threshold_ = 0.0;
    std::size_t bins_seen_ = 0;
    std::size_t since_refit_ = 0;
    std::vector<double> obs_buf_;      ///< scoring scratch (normalized obs)
    std::vector<double> spe_scratch_;  ///< scoring scratch (centered obs)

    /// Drift-aware recalibration (engaged only when
    /// opts_.recalibration.enabled; otherwise state_ stays normal and
    /// monitor_ is empty, and push() takes the legacy path untouched).
    std::optional<drift_monitor> monitor_;
    detector_state state_ = detector_state::normal;
    std::size_t relearn_progress_ = 0;  ///< bins observed while degraded
};

}  // namespace tfd::core
