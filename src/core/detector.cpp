#include "core/detector.h"

#include <algorithm>

namespace tfd::core {

entropy_detection detect_entropy_anomalies(const multiway_matrix& m,
                                           const subspace_options& opts,
                                           double alpha) {
    entropy_detection out;
    out.options = opts;
    out.alpha = alpha;

    const auto model = subspace_model::fit(m.h, opts);
    out.rows.spe = model.spe_rows(m.h);
    out.rows.threshold = model.q_threshold(alpha);

    const identify_options iopts{.max_flows = 5,
                                 .stop_threshold = out.rows.threshold};
    for (std::size_t bin = 0; bin < m.h.rows(); ++bin) {
        if (out.rows.spe[bin] <= out.rows.threshold) continue;
        out.rows.anomalous_bins.push_back(bin);
        auto ident = identify_flows(model, m.h.row(bin), iopts);
        out.events.push_back({.bin = bin,
                              .spe = out.rows.spe[bin],
                              .flows = std::move(ident.flows),
                              .top_od = ident.top_od,
                              .h_tilde = ident.h_tilde});
    }
    return out;
}

entropy_detection detect_entropy_anomalies(const od_dataset& data,
                                           const subspace_options& opts,
                                           double alpha) {
    return detect_entropy_anomalies(unfold(data), opts, alpha);
}

volume_detection detect_volume_anomalies(const od_dataset& data,
                                         const subspace_options& opts,
                                         double alpha) {
    volume_detection out;
    out.bytes = detect_rows(data.bytes, opts, alpha);
    out.packets = detect_rows(data.packets, opts, alpha);
    std::vector<std::size_t> merged;
    merged.reserve(out.bytes.anomalous_bins.size() +
                   out.packets.anomalous_bins.size());
    std::set_union(out.bytes.anomalous_bins.begin(),
                   out.bytes.anomalous_bins.end(),
                   out.packets.anomalous_bins.begin(),
                   out.packets.anomalous_bins.end(),
                   std::back_inserter(merged));
    out.anomalous_bins = std::move(merged);
    return out;
}

detection_overlap compare_detections(const volume_detection& volume,
                                     const entropy_detection& entropy) {
    detection_overlap out;
    const auto& v = volume.anomalous_bins;
    const auto& e = entropy.rows.anomalous_bins;
    std::set_difference(v.begin(), v.end(), e.begin(), e.end(),
                        std::back_inserter(out.volume_only));
    std::set_difference(e.begin(), e.end(), v.begin(), v.end(),
                        std::back_inserter(out.entropy_only));
    std::set_intersection(v.begin(), v.end(), e.begin(), e.end(),
                          std::back_inserter(out.both));
    return out;
}

}  // namespace tfd::core
