// tfd::diagnosis — the end-to-end diagnosis pipeline.
//
// Composition of everything the paper runs per network: build the
// Figure 3 tensor, run the volume baseline [24] and the multiway
// entropy detector, identify responsible OD flows, label each detected
// event with the heuristic inspector, match it against ground truth,
// and (optionally) cluster the unit-norm residual entropy vectors.
#pragma once

#include <optional>
#include <vector>

#include "core/detector.h"
#include "diagnosis/dataset.h"
#include "diagnosis/labeler.h"

namespace tfd::diagnosis {

/// Knobs for a diagnosis run.
struct diagnosis_options {
    core::subspace_options subspace{.normal_dims = 10};
    double alpha = 0.999;  ///< detection confidence (paper: 0.995 / 0.999)
};

/// A detected event with labels attached.
struct event_diagnosis {
    core::anomaly_event event;      ///< bin, identified flows, h_tilde
    label heuristic = label::unknown;
    /// Ground-truth anomaly active at (bin, top_od), if any.
    const traffic::planted_anomaly* truth = nullptr;
    /// Ground-truth label (false_alarm when no planted anomaly matches).
    label truth_label = label::false_alarm;
};

/// Output of a full diagnosis run.
struct diagnosis_report {
    core::entropy_detection entropy;
    core::volume_detection volume;
    core::detection_overlap overlap;   ///< Table 2 partition
    std::vector<event_diagnosis> events;

    /// Events whose bin truly contains a planted anomaly.
    std::size_t true_detections() const noexcept;
    /// Events with no planted anomaly anywhere in the bin.
    std::size_t false_alarms() const noexcept;
};

/// Run the full pipeline over a study with a pre-built dataset.
diagnosis_report run_diagnosis(const network_study& study,
                               const core::od_dataset& data,
                               const diagnosis_options& opts = {});

/// Convenience: build the dataset then diagnose.
diagnosis_report run_diagnosis(const network_study& study,
                               const diagnosis_options& opts = {});

/// Detection-rate scoring against ground truth: the fraction of planted
/// anomalies whose active bins were flagged.
struct truth_score {
    std::size_t planted = 0;
    std::size_t detected = 0;
    double rate() const noexcept {
        return planted ? static_cast<double>(detected) /
                             static_cast<double>(planted)
                       : 0.0;
    }
};

/// Score entropy detections against the planted schedule, overall or for
/// one anomaly type.
truth_score score_against_truth(
    const network_study& study, const core::entropy_detection& det,
    std::optional<traffic::anomaly_type> only_type = std::nullopt);

}  // namespace tfd::diagnosis
