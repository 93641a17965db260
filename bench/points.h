// bench/points.h — shared helpers for the classification experiments:
// turning detected (or synthesized) anomalies into labelled points in
// 4-dimensional entropy space.
#pragma once

#include <vector>

#include "bench/common.h"
#include "core/detector.h"
#include "core/histogram.h"
#include "linalg/matrix.h"
#include "traffic/anomaly.h"
#include "traffic/background.h"

namespace tfd::bench {

/// Labelled points in entropy space.
struct entropy_points {
    linalg::matrix x;                       ///< n x 4 unit-norm h~ vectors
    std::vector<diagnosis::label> labels;   ///< per-point label
};

/// Collect the detected events of a diagnosis report as entropy-space
/// points labelled by the heuristic inspector.
inline entropy_points points_from_report(
    const diagnosis::diagnosis_report& report) {
    entropy_points out;
    out.x.resize(report.events.size(), 4);
    out.labels.reserve(report.events.size());
    for (std::size_t i = 0; i < report.events.size(); ++i) {
        for (int f = 0; f < 4; ++f)
            out.x(i, f) = report.events[i].event.h_tilde[f];
        out.labels.push_back(report.events[i].heuristic);
    }
    return out;
}

/// Synthesize unit-norm residual vectors for known anomaly types by
/// perturbing clean background cells under a fitted multiway model (the
/// Figure 7 methodology).
inline entropy_points points_from_known_types(
    const std::vector<traffic::anomaly_type>& types, int per_type,
    std::uint64_t seed, std::size_t bins = 288) {
    const auto topo = net::topology::abilene();
    traffic::background_model bg(topo);
    auto clean = core::build_od_dataset(
        bins, topo.od_count(),
        [&](std::size_t b, int od) { return bg.generate(b, od); });
    auto m = core::unfold(clean);
    auto model =
        core::subspace_model::fit(m.h, {.normal_dims = 10});

    entropy_points out;
    out.x.resize(types.size() * per_type, 4);
    std::size_t row = 0;
    traffic::rng gen(seed);
    for (const auto type : types) {
        for (int i = 0; i < per_type; ++i) {
            const std::size_t bin = 20 + (row * 7) % (bins - 40);
            const int od = static_cast<int>(gen.uniform_int(topo.od_count()));

            traffic::anomaly_cell cell;
            cell.type = type;
            cell.od = od;
            cell.bin = bin;
            const auto [lo, hi] = traffic::default_intensity_range(type);
            cell.packets = gen.uniform(lo, hi) * 300.0;
            auto extra =
                traffic::generate_anomaly_records(topo, cell, gen.derive(row));

            std::vector<double> obs(m.h.row(bin).begin(), m.h.row(bin).end());
            core::feature_histogram_set hists;
            hists.add_records(bg.generate(bin, od));
            hists.add_records(extra);
            const auto h = hists.entropies();
            for (int f = 0; f < 4; ++f)
                obs[m.column(static_cast<flow::feature>(f), od)] =
                    h[f] / m.submatrix_norm[f];

            // Figure 7 takes the planted OD's residual, which need not be
            // identify_flows' top OD, so h_tilde is extracted here.
            const auto residual = model.residual(obs);
            const auto v =
                core::to_unit_norm(core::flow_residual(residual, od));
            for (int f = 0; f < 4; ++f) out.x(row, f) = v[f];
            out.labels.push_back(diagnosis::label_of(type));
            ++row;
        }
    }
    return out;
}

}  // namespace tfd::bench
