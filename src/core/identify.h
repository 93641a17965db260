// tfd::core — multi-attribute anomaly identification (Section 4.2).
//
// Detection says *when*; identification says *which OD flow(s)*. For
// each candidate flow k a 4p x 4 selection matrix Theta_k picks that
// flow's four feature coordinates, and the best anomaly magnitude f_k is
// the least-squares minimizer of || C_res (h - Theta_k f_k) || where
// C_res projects onto the residual subspace. The flow with the smallest
// minimum wins; the method recurses (deflating the winner's contribution)
// until the residual drops below the detection threshold, so anomalies
// spanning several OD flows are identified one flow at a time.
//
// identify_flows is also the one place that attributes a detection for
// classification (Sections 6-7): it names the top OD flow and extracts
// that flow's unit-norm residual entropy vector h_tilde. The batch
// detector and the online detector both take their attribution from it.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "core/subspace.h"
#include "flow/flow_record.h"

namespace tfd::core {

/// One identified flow within a detection.
struct identified_flow {
    int od = -1;
    /// Estimated per-feature anomaly magnitude f_k (in normalized units).
    std::array<double, flow::feature_count> magnitude{};
    /// Residual SPE *after* deflating this flow.
    double spe_after = 0.0;

    friend bool operator==(const identified_flow&,
                           const identified_flow&) = default;
};

/// Result of recursive identification at one timebin.
struct identification {
    std::vector<identified_flow> flows;  ///< in order of identification
    double spe_before = 0.0;             ///< SPE of the raw observation
    /// OD flow judged primarily responsible: the first identified, or the
    /// one with the largest residual energy (the first on ties) when
    /// identification found none.
    int top_od = -1;
    /// Unit-norm residual entropy vector of top_od, in feature order
    /// (srcIP, srcPort, dstIP, dstPort): the classification coordinates.
    /// Taken from model.residual(obs), the residual before any deflation.
    std::array<double, flow::feature_count> h_tilde{};
};

/// Options bounding the recursion.
struct identify_options {
    std::size_t max_flows = 5;  ///< at most this many flows identified
    /// Stop when SPE falls below this (typically the Q threshold).
    double stop_threshold = 0.0;
};

/// Identify the OD flow(s) responsible for an anomalous observation
/// `obs` under a fitted multiway subspace model, and attribute it: the
/// OD count p comes from the length 4p of `obs`, laid out as unfold()
/// lays out a row.
///
/// Throws std::invalid_argument unless obs.size() equals the model's
/// dimension and is a positive multiple of 4.
identification identify_flows(const subspace_model& model,
                              std::span<const double> obs,
                              const identify_options& opts);

}  // namespace tfd::core
