#include "diagnosis/injection.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/histogram.h"

namespace tfd::diagnosis {

injection_lab::injection_lab(const net::topology& topo,
                             const traffic::background_model& background,
                             const injection_options& opts)
    : topo_(&topo), background_(&background), opts_(opts) {
    if (opts_.inject_bin != injection_options::auto_bin &&
        opts_.inject_bin >= opts_.bins)
        throw std::invalid_argument("injection_lab: inject_bin out of range");

    data_ = core::build_od_dataset(
        opts_.bins, topo.od_count(),
        [&](std::size_t bin, int od) { return background.generate(bin, od); });
    multiway_ = core::unfold(data_);
    entropy_model_ = core::subspace_model::fit(multiway_.h, opts_.subspace);
    bytes_model_ = core::subspace_model::fit(data_.bytes, opts_.subspace);
    packets_model_ = core::subspace_model::fit(data_.packets, opts_.subspace);

    if (opts_.inject_bin == injection_options::auto_bin) {
        // Pick an unambiguously ordinary bin: entropy SPE nearest the
        // median among bins whose volume SPEs are also <= their medians.
        auto median_of = [](std::vector<double> v) {
            std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
            return v[v.size() / 2];
        };
        const auto h_spe = entropy_model_.spe_rows(multiway_.h);
        const auto b_spe = bytes_model_.spe_rows(data_.bytes);
        const auto p_spe = packets_model_.spe_rows(data_.packets);
        const double h_med = median_of(h_spe);
        const double b_med = median_of(b_spe);
        const double p_med = median_of(p_spe);
        std::size_t best = 0;
        double best_dist = std::numeric_limits<double>::max();
        for (std::size_t b = 0; b < h_spe.size(); ++b) {
            if (b_spe[b] > b_med || p_spe[b] > p_med) continue;
            const double dist = std::fabs(h_spe[b] - h_med);
            if (dist < best_dist) {
                best_dist = dist;
                best = b;
            }
        }
        opts_.inject_bin = best;
    }

    double total_packets = 0.0;
    for (double v : data_.packets.data()) total_packets += v;
    const double cells =
        static_cast<double>(data_.bins()) * static_cast<double>(data_.flows());
    const double bin_seconds =
        static_cast<double>(background.options().bin_us) / 1e6;
    mean_od_pps_ = total_packets / cells / bin_seconds;
}

std::array<double, 3> injection_lab::thresholds(double alpha) const {
    return {entropy_model_.q_threshold(alpha), bytes_model_.q_threshold(alpha),
            packets_model_.q_threshold(alpha)};
}

injection_outcome injection_lab::evaluate(
    const std::vector<injection>& injections, double alpha) const {
    const std::size_t bin = opts_.inject_bin;

    // Patch copies of the three observation rows.
    std::vector<double> h_row(multiway_.h.row(bin).begin(),
                              multiway_.h.row(bin).end());
    std::vector<double> bytes_row(data_.bytes.row(bin).begin(),
                                  data_.bytes.row(bin).end());
    std::vector<double> packets_row(data_.packets.row(bin).begin(),
                                    data_.packets.row(bin).end());

    for (const auto& inj : injections) {
        if (inj.od < 0 || inj.od >= topo_->od_count())
            throw std::invalid_argument("injection_lab: bad OD index");
        // Recompute the cell with the anomaly merged in.
        core::feature_histogram_set hists;
        hists.add_records(background_->generate(bin, inj.od));
        hists.add_records(inj.records);
        const auto h = hists.entropies();
        for (int f = 0; f < flow::feature_count; ++f)
            h_row[multiway_.column(static_cast<flow::feature>(f), inj.od)] =
                h[f] / multiway_.submatrix_norm[f];
        bytes_row[inj.od] = static_cast<double>(hists.total_bytes());
        packets_row[inj.od] = static_cast<double>(hists.total_packets());
    }

    injection_outcome out;
    out.entropy_spe = entropy_model_.spe(h_row);
    out.bytes_spe = bytes_model_.spe(bytes_row);
    out.packets_spe = packets_model_.spe(packets_row);
    const auto thr = thresholds(alpha);
    out.entropy_detected = out.entropy_spe > thr[0];
    out.volume_detected = out.bytes_spe > thr[1] || out.packets_spe > thr[2];
    return out;
}

}  // namespace tfd::diagnosis
