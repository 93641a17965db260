// tfd::core — the multiway subspace method (Section 4.2).
//
// The three-way entropy tensor H(t, p, k) — time x OD flow x feature —
// is "unfolded" into a single t x 4p matrix by arranging the four t x p
// feature submatrices side by side:
//
//   [ H(srcIP) | H(srcPort) | H(dstIP) | H(dstPort) ]
//
// with each submatrix normalized to unit energy so no one feature
// dominates. The ordinary subspace method then applies to the unfolded
// matrix, detecting correlated entropy changes across OD flows *and*
// features simultaneously.
#pragma once

#include <array>
#include <cstddef>

#include "core/subspace.h"
#include "core/timeseries.h"
#include "flow/flow_record.h"
#include "linalg/matrix.h"

namespace tfd::core {

/// The unfolded (and per-submatrix energy-normalized) multiway matrix.
struct multiway_matrix {
    linalg::matrix h;  ///< t x 4p, feature-major blocks in flow::feature order
    std::size_t flows = 0;  ///< p
    /// Frobenius norm each submatrix was divided by (for un-normalizing).
    std::array<double, flow::feature_count> submatrix_norm{};

    std::size_t bins() const noexcept { return h.rows(); }

    /// Column index of (feature, od): feature block f spans
    /// [f*p, (f+1)*p).
    std::size_t column(flow::feature f, int od) const;

    /// Inverse of column().
    std::pair<flow::feature, int> unpack(std::size_t col) const;
};

/// Unfold four t x p entropy matrices (in flow::feature order) into the
/// merged matrix, normalizing each submatrix to unit energy. Throws
/// std::invalid_argument on shape mismatch or empty input.
multiway_matrix unfold(
    const std::array<linalg::matrix, flow::feature_count>& features);

/// Convenience: unfold the entropy views of an od_dataset.
multiway_matrix unfold(const od_dataset& dataset);

/// Residual entropy 4-vector of one OD flow extracted from a full
/// residual vector of the unfolded matrix, in feature order; the OD
/// count p comes from the residual's length 4p. Throws
/// std::invalid_argument if the length is not a multiple of 4 and
/// std::out_of_range unless 0 <= od < p.
std::array<double, flow::feature_count> flow_residual(
    std::span<const double> residual, int od);

/// Rescale a 4-vector to unit Euclidean norm (paper Section 7.1); zero
/// vectors are returned unchanged.
std::array<double, flow::feature_count> to_unit_norm(
    std::array<double, flow::feature_count> v) noexcept;

}  // namespace tfd::core
