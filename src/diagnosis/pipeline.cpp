#include "diagnosis/pipeline.h"

#include <algorithm>

namespace tfd::diagnosis {

std::size_t diagnosis_report::true_detections() const noexcept {
    std::size_t n = 0;
    for (const auto& e : events)
        if (e.truth) ++n;
    return n;
}

std::size_t diagnosis_report::false_alarms() const noexcept {
    std::size_t n = 0;
    for (const auto& e : events)
        if (!e.truth && e.truth_label == label::false_alarm) ++n;
    return n;
}

diagnosis_report run_diagnosis(const network_study& study,
                               const core::od_dataset& data,
                               const diagnosis_options& opts) {
    diagnosis_report out;
    out.entropy = core::detect_entropy_anomalies(data, opts.subspace, opts.alpha);
    out.volume = core::detect_volume_anomalies(data, opts.subspace, opts.alpha);
    out.overlap = core::compare_detections(out.volume, out.entropy);

    out.events.reserve(out.entropy.events.size());
    for (const auto& ev : out.entropy.events) {
        event_diagnosis diag;
        diag.event = ev;

        // Heuristic inspection of the identified cell.
        inspection_input in;
        in.records = study.cell_records(ev.bin, ev.top_od);
        in.expected_packets =
            study.background().base_records(ev.top_od) *
            study.background().volume_multiplier(ev.top_od, ev.bin) * 2.2;
        diag.heuristic = classify(in);

        // Ground truth: prefer an anomaly on the identified flow; fall
        // back to any anomaly active in the bin (identification may pick
        // a sibling flow of a multi-OD anomaly).
        const auto on_flow = study.schedule().find(ev.bin, ev.top_od);
        if (!on_flow.empty()) {
            diag.truth = on_flow.front();
        } else {
            diag.truth = study.schedule().dominant_at_bin(ev.bin);
        }
        diag.truth_label =
            diag.truth ? label_of(diag.truth->type) : label::false_alarm;
        out.events.push_back(std::move(diag));
    }
    return out;
}

diagnosis_report run_diagnosis(const network_study& study,
                               const diagnosis_options& opts) {
    const auto data = study.build();
    return run_diagnosis(study, data, opts);
}

truth_score score_against_truth(
    const network_study& study, const core::entropy_detection& det,
    std::optional<traffic::anomaly_type> only_type) {
    truth_score out;
    const auto& bins = det.rows.anomalous_bins;
    for (const auto& planted : study.schedule().anomalies()) {
        if (only_type && planted.type != *only_type) continue;
        ++out.planted;
        for (std::size_t b = planted.start_bin;
             b < planted.start_bin + planted.duration_bins; ++b) {
            if (std::binary_search(bins.begin(), bins.end(), b)) {
                ++out.detected;
                break;
            }
        }
    }
    return out;
}

}  // namespace tfd::diagnosis
