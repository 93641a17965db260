// tfd::core — end-to-end detectors over an od_dataset.
//
// Volume detection reproduces the SIGCOMM'04 baseline [24]: the subspace
// method on byte-count and packet-count OD timeseries (an anomaly in
// either counts as volume-detected). Entropy detection is the paper's
// contribution: the multiway subspace method on the unfolded entropy
// tensor, followed by multi-attribute identification and extraction of
// the unit-norm residual entropy vector h_tilde used for classification.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "core/identify.h"
#include "core/multiway.h"
#include "core/subspace.h"
#include "core/timeseries.h"

namespace tfd::core {

/// One detected entropy anomaly.
struct anomaly_event {
    std::size_t bin = 0;
    double spe = 0.0;  ///< ||h_tilde||^2 at the bin (whole-network)
    /// Identified flows, top OD and h_tilde, as identify_flows returns
    /// them (at most 5 flows).
    std::vector<identified_flow> flows;
    int top_od = -1;
    std::array<double, flow::feature_count> h_tilde{};
};

/// Entropy-detection output.
struct entropy_detection {
    detection_result rows;            ///< per-bin SPE + threshold
    std::vector<anomaly_event> events;
    subspace_options options;
    double alpha = 0.0;
};

/// Volume-detection output (baseline).
struct volume_detection {
    detection_result bytes;
    detection_result packets;
    /// Bins anomalous in either metric.
    std::vector<std::size_t> anomalous_bins;
};

/// Run the multiway subspace method on a dataset's entropy tensor.
entropy_detection detect_entropy_anomalies(const od_dataset& data,
                                           const subspace_options& opts,
                                           double alpha);

/// Same, reusing an already-unfolded matrix (for experiments that unfold
/// once and inject repeatedly).
entropy_detection detect_entropy_anomalies(const multiway_matrix& m,
                                           const subspace_options& opts,
                                           double alpha);

/// Run the volume baseline on bytes and packets.
volume_detection detect_volume_anomalies(const od_dataset& data,
                                         const subspace_options& opts,
                                         double alpha);

/// How two detectors' anomalous-bin sets relate (Table 2 / Figure 4).
struct detection_overlap {
    std::vector<std::size_t> volume_only;
    std::vector<std::size_t> entropy_only;
    std::vector<std::size_t> both;

    std::size_t total() const noexcept {
        return volume_only.size() + entropy_only.size() + both.size();
    }
};

/// Partition anomalous bins into volume-only / entropy-only / both.
detection_overlap compare_detections(const volume_detection& volume,
                                     const entropy_detection& entropy);

}  // namespace tfd::core
