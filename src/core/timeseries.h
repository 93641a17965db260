// tfd::core — network-wide OD-flow timeseries (the Figure 3 tensor).
//
// Six views per (timebin, OD flow) cell: byte count, packet count, and
// sample entropy of the four traffic features. The builder pulls flow
// records per cell from a caller-provided source (the synthetic
// generator, an injection harness, or a file reader) so the full dataset
// never has to exist in memory at once.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <vector>

#include "core/histogram.h"
#include "flow/flow_record.h"
#include "linalg/matrix.h"

namespace tfd::core {

/// Per-cell record source: (bin, od) -> flow records.
using cell_source =
    std::function<std::vector<flow::flow_record>(std::size_t, int)>;

/// The multivariate, multiway dataset of Figure 3: timeseries of volume
/// and per-feature entropy for the ensemble of OD flows.
struct od_dataset {
    linalg::matrix bytes;    ///< t x p byte counts
    linalg::matrix packets;  ///< t x p packet counts
    /// One t x p entropy matrix per feature, indexed by flow::feature.
    std::array<linalg::matrix, flow::feature_count> entropy;

    std::size_t bins() const noexcept { return bytes.rows(); }
    std::size_t flows() const noexcept { return bytes.cols(); }
};

/// Build the dataset by evaluating `source` for every (bin, od) cell.
///
/// Bins run as tasks on the shared thread pool (TFD_THREADS sizes it),
/// so `source` must be safe to call concurrently. Cells are independent
/// and a cell's entropies depend only on its own records, so any task
/// order gives the same bytes. Throws std::invalid_argument if bins or
/// flows is zero.
od_dataset build_od_dataset(std::size_t bins, int flows,
                            const cell_source& source);

/// Entropy timeseries of a single OD flow for one feature (column slice).
std::vector<double> entropy_series(const od_dataset& d, flow::feature f,
                                   int od);

}  // namespace tfd::core
