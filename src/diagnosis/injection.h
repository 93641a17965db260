// tfd::diagnosis — the Section 6.3 injection laboratory.
//
// Precomputes a clean (anomaly-free) dataset and fits the entropy and
// volume subspace models once; each injection then patches only the
// affected row cells (4 entropy coordinates and 1 volume coordinate per
// injected OD flow) and re-evaluates the residual against the fitted
// thresholds. This keeps the paper's methodology — inject into each OD
// flow in turn, at each thinning level, and record whether the multiway
// subspace method fires — while making thousands of injections cheap.
// Fitting on clean data also avoids the small-t model contamination a
// refit per injection would suffer at simulation scale (the paper's
// three-week matrices make contamination negligible; see DESIGN.md).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/detector.h"
#include "core/multiway.h"
#include "core/subspace.h"
#include "core/timeseries.h"
#include "flow/flow_record.h"
#include "net/topology.h"
#include "traffic/background.h"

namespace tfd::diagnosis {

/// Configuration of the injection laboratory.
struct injection_options {
    std::size_t bins = 576;  ///< clean-history length (2 days default)
    /// The "randomly chosen anomaly-free" timebin of Section 6.3.1.
    /// auto_bin (the default) picks the bin whose clean entropy SPE is
    /// closest to the median with volume SPEs at or below their medians,
    /// so the bin is unambiguously ordinary under every model.
    static constexpr std::size_t auto_bin = static_cast<std::size_t>(-1);
    std::size_t inject_bin = auto_bin;
    core::subspace_options subspace{.normal_dims = 10};
};

/// One injection: extra records merged into (inject_bin, od).
struct injection {
    int od = 0;
    std::vector<flow::flow_record> records;
};

/// Detection outcome of one injection experiment.
struct injection_outcome {
    double entropy_spe = 0.0;
    double bytes_spe = 0.0;
    double packets_spe = 0.0;
    bool entropy_detected = false;
    bool volume_detected = false;  ///< bytes OR packets fired

    bool combined_detected() const noexcept {
        return entropy_detected || volume_detected;
    }
};

/// Injection laboratory bound to one network + background model.
class injection_lab {
public:
    /// Builds the clean dataset and fits all three models. Expensive
    /// (seconds); do it once per experiment sweep.
    injection_lab(const net::topology& topo,
                  const traffic::background_model& background,
                  const injection_options& opts = {});

    /// Evaluate one (multi-)injection at confidence alpha.
    injection_outcome evaluate(const std::vector<injection>& injections,
                               double alpha) const;

    /// Detection thresholds at alpha (entropy, bytes, packets).
    std::array<double, 3> thresholds(double alpha) const;

    /// Average per-OD sampled packet rate (pkts/sec) in the clean data —
    /// the denominator of Table 5's percentage column.
    double mean_od_packet_rate() const noexcept { return mean_od_pps_; }

    const injection_options& options() const noexcept { return opts_; }

    /// The bin injections land in (resolved when auto_bin was requested).
    std::size_t inject_bin() const noexcept { return opts_.inject_bin; }
    const net::topology& topo() const noexcept { return *topo_; }
    const core::od_dataset& clean_data() const noexcept { return data_; }

private:
    const net::topology* topo_;
    const traffic::background_model* background_;
    injection_options opts_;
    core::od_dataset data_;
    core::multiway_matrix multiway_;
    core::subspace_model entropy_model_;
    core::subspace_model bytes_model_;
    core::subspace_model packets_model_;
    double mean_od_pps_ = 0.0;
};

}  // namespace tfd::diagnosis
