#include "scenario/runner.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/fault.h"
#include "net/topology.h"
#include "obs/json.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "traffic/background.h"
#include "traffic/rng.h"

namespace tfd::scenario {

namespace {

constexpr double kPi = 3.14159265358979323846;
/// Residual background on an OD carrying a planted `outage` anomaly
/// (the generator emits no records for outage — the dip IS the signal).
constexpr double kOutageResidual = 0.05;

/// Composed per-(bin, od) generation adjustments.
struct bin_tweaks {
    double volume_scale = 1.0;
    std::size_t host_rank_offset = 0;
};

double regime_volume(const regime_spec& r, std::size_t bin) {
    switch (r.kind) {
        case regime_kind::baseline: return 1.0;
        case regime_kind::diurnal:
            return 1.0 + r.amplitude *
                             std::sin(2.0 * kPi *
                                      static_cast<double>(bin - r.start_bin) /
                                      static_cast<double>(r.period_bins));
        case regime_kind::flash_crowd: return 1.0 + r.amplitude;
        case regime_kind::step_drift: return r.volume_scale;
        case regime_kind::gradual_drift: {
            const double p =
                static_cast<double>(bin - r.start_bin + 1) /
                static_cast<double>(r.duration_bins);
            return 1.0 + (r.volume_scale - 1.0) * std::min(1.0, p);
        }
    }
    return 1.0;
}

std::size_t regime_rank_offset(const regime_spec& r, std::size_t bin) {
    switch (r.kind) {
        case regime_kind::step_drift: return r.host_rank_offset;
        case regime_kind::gradual_drift: {
            const double p =
                static_cast<double>(bin - r.start_bin + 1) /
                static_cast<double>(r.duration_bins);
            return static_cast<std::size_t>(
                std::llround(static_cast<double>(r.host_rank_offset) *
                             std::min(1.0, p)));
        }
        default: return 0;
    }
}

/// Distinct deterministic sub-streams of the variant seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt,
                       std::uint64_t n) {
    std::uint64_t x = seed ^ (salt * 0x9E3779B97F4A7C15ull + n);
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDull;
    x ^= x >> 33;
    return x;
}

}  // namespace

experiment_runner::experiment_runner(scenario_model model)
    : model_(std::move(model)) {
    if (model_.variants.empty())
        throw config_error(0, "scenario has no variants");
}

campaign_result experiment_runner::run() {
    campaign_result out;
    out.scenario = model_.name;
    out.topology = model_.topology;
    out.bins = model_.bins;
    out.seed = model_.seed;
    out.drift_phase_start = model_.drift_phase_start();
    for (const variant_spec& v : model_.variants)
        out.variants.push_back(run_one(v));
    return out;
}

variant_score experiment_runner::run_variant(const std::string& name) {
    for (const variant_spec& v : model_.variants)
        if (v.name == name) return run_one(v);
    throw std::invalid_argument("unknown variant '" + name + "'");
}

variant_score experiment_runner::run_one(const variant_spec& variant) {
    const std::uint64_t seed = variant.seed != 0 ? variant.seed : model_.seed;
    const net::topology topo = model_.topology == "geant"
                                   ? net::topology::geant()
                                   : net::topology::abilene();

    traffic::background_options bopts;
    bopts.seed = seed;
    bopts.mean_records_per_bin = model_.mean_records_per_bin;
    const traffic::background_model bg(topo, bopts);
    const std::uint64_t bin_us = bg.options().bin_us;
    const double bin_seconds = static_cast<double>(bin_us) / 1e6;

    stream::pipeline_options popts;
    popts.online.window = model_.detector.window;
    popts.online.warmup = model_.detector.warmup;
    popts.online.refit_interval = model_.detector.refit_interval;
    popts.online.subspace.normal_dims =
        static_cast<std::size_t>(model_.detector.normal_dims);
    popts.online.alpha = model_.detector.alpha;
    if (variant.drift_enabled) {
        popts.online.recalibration.enabled = true;
        popts.online.recalibration.relearn_bins = model_.drift.relearn_bins;
        popts.online.recalibration.degraded_confidence =
            model_.drift.degraded_confidence;
        popts.online.recalibration.monitor = model_.drift.monitor;
    }
    stream::stream_pipeline pipeline(topo, popts);

    variant_score score;
    score.variant = variant.name;
    score.drift_enabled = variant.drift_enabled;
    const std::size_t drift_start = model_.drift_phase_start();

    pipeline.on_bin([&](const stream::bin_result& r) {
        ++score.bins_emitted;
        if (!r.verdict.scored) return;
        ++score.bins_scored;
        bool truth = false;
        for (const anomaly_spec& a : model_.anomalies)
            if (a.active_in(r.stats.bin)) truth = true;
        // Scoring counts operator-visible alarms only: a degraded
        // (re-learning) verdict is delivered low-confidence and
        // alert-suppressed, so it pages nobody — it lands in
        // low_confidence_alarms instead of either rate.
        const bool alarmed = r.verdict.anomalous && !r.verdict.degraded;
        if (r.verdict.anomalous && r.verdict.degraded)
            ++score.low_confidence_alarms;
        if (truth) {
            ++score.anomaly_bins;
            if (alarmed) ++score.true_detections;
        } else {
            ++score.clean_bins;
            if (alarmed) ++score.false_alarms;
            if (r.stats.bin >= drift_start) {
                ++score.drift_clean_bins;
                if (alarmed) ++score.drift_false_alarms;
            }
        }
        if (r.verdict.degraded) ++score.degraded_bins;
        if (r.verdict.drift_detected) ++score.drift_events;
        if (r.verdict.recalibrated) {
            ++score.recalibrations;
            if (score.time_to_recalibrate_bins == 0 &&
                drift_start < model_.bins && r.stats.bin >= drift_start)
                score.time_to_recalibrate_bins =
                    r.stats.bin - drift_start + 1;
        }
    });

    // Deterministic OD assignment for anomalies declared with od = -1.
    std::vector<int> anomaly_od(model_.anomalies.size());
    for (std::size_t i = 0; i < model_.anomalies.size(); ++i) {
        if (model_.anomalies[i].od >= 0) {
            anomaly_od[i] = model_.anomalies[i].od;
        } else {
            traffic::rng pick(mix_seed(seed, 0xA11, i));
            anomaly_od[i] = static_cast<int>(
                pick.uniform_int(static_cast<std::uint64_t>(topo.od_count())));
        }
    }

    std::vector<flow::flow_record> carried;  // reorder spillover
    for (std::size_t bin = 0; bin < model_.bins; ++bin) {
        // Active degradations for this bin.
        bool gap = false;
        double thin_keep = 1.0, reorder_rate = 0.0, corrupt_rate = 0.0;
        for (const degradation_spec& d : model_.degradations) {
            if (!d.active_in(bin, model_.bins)) continue;
            switch (d.kind) {
                case degradation_kind::feed_gap: gap = true; break;
                case degradation_kind::thinning:
                    thin_keep = std::min(thin_keep, d.rate);
                    break;
                case degradation_kind::reorder:
                    reorder_rate = std::max(reorder_rate, d.rate);
                    break;
                case degradation_kind::corrupt_frames:
                    corrupt_rate = std::max(corrupt_rate, d.rate);
                    break;
            }
        }
        if (gap) {
            carried.clear();  // records delayed into a dark bin are lost
            continue;
        }

        std::vector<flow::flow_record> records = std::move(carried);
        carried.clear();

        for (int od = 0; od < topo.od_count(); ++od) {
            bin_tweaks t;
            for (const regime_spec& r : model_.regimes) {
                if (!r.active_in(bin, model_.bins)) continue;
                t.volume_scale *= regime_volume(r, bin);
                t.host_rank_offset += regime_rank_offset(r, bin);
            }
            const auto [o, d] = topo.od_pair(od);
            for (const topology_event_spec& te : model_.topology_events)
                if (te.active_in(bin) && (o == te.pop || d == te.pop))
                    t.volume_scale *= te.residual_scale;
            for (std::size_t i = 0; i < model_.anomalies.size(); ++i)
                if (model_.anomalies[i].type ==
                        traffic::anomaly_type::outage &&
                    model_.anomalies[i].active_in(bin) &&
                    anomaly_od[i] == od)
                    t.volume_scale *= kOutageResidual;

            traffic::generation_tweaks gt;
            gt.volume_scale = t.volume_scale;
            gt.host_rank_offset = t.host_rank_offset;
            const auto cell = bg.generate(bin, od, gt);
            records.insert(records.end(), cell.begin(), cell.end());

            for (std::size_t i = 0; i < model_.anomalies.size(); ++i) {
                const anomaly_spec& a = model_.anomalies[i];
                if (!a.active_in(bin) || anomaly_od[i] != od) continue;
                if (a.type == traffic::anomaly_type::outage) continue;
                double pps = a.packets_per_second;
                if (pps <= 0.0) {
                    const auto [lo, hi] =
                        traffic::default_intensity_range(a.type);
                    pps = 0.5 * (lo + hi);
                }
                traffic::anomaly_cell cell_spec;
                cell_spec.type = a.type;
                cell_spec.od = od;
                cell_spec.bin = bin;
                cell_spec.packets = pps * bin_seconds;
                cell_spec.bin_us = bin_us;
                const auto an = traffic::generate_anomaly_records(
                    topo, cell_spec,
                    traffic::rng(mix_seed(seed, 0xA2, i * 131071 + bin)));
                records.insert(records.end(), an.begin(), an.end());
            }
        }

        if (thin_keep < 1.0) {
            traffic::rng thin(mix_seed(seed, 0x7417, bin));
            std::vector<flow::flow_record> kept;
            kept.reserve(records.size());
            for (const auto& r : records)
                if (thin.chance(thin_keep)) kept.push_back(r);
            records = std::move(kept);
        }

        if (reorder_rate > 0.0) {
            // Delay a deterministic fraction into the next bin's push;
            // by then their bin is closed, so the pipeline late-drops
            // them — reordering beyond the bin boundary IS data loss
            // for a bin-synchronous consumer.
            traffic::rng pick(mix_seed(seed, 0x2E02, bin));
            std::vector<flow::flow_record> now;
            now.reserve(records.size());
            for (const auto& r : records)
                if (pick.chance(reorder_rate))
                    carried.push_back(r);
                else
                    now.push_back(r);
            records = std::move(now);
        }

        if (corrupt_rate > 0.0) {
            // Round-trip this bin's records through the wire codec with
            // deterministic bit flips; frame checksums turn corruption
            // into whole-frame quarantine, so surviving records are
            // intact (no garbage timestamps reach the pipeline).
            std::ostringstream spool;
            stream::flow_codec_writer writer(spool,
                                             {.records_per_frame = 512});
            writer.add(records);
            writer.finish();
            const std::string bytes = spool.str();
            std::istringstream clean(bytes);
            io::fault_injector faults({.seed = mix_seed(seed, 0xC0, bin),
                                       .bit_flip_per_byte = corrupt_rate});
            io::fault_streambuf corrupted(*clean.rdbuf(), faults);
            std::istream in(&corrupted);
            records.clear();
            try {
                stream::codec_read_options ropts;
                ropts.on_corrupt = stream::corrupt_policy::quarantine;
                stream::flow_codec_reader reader(in, ropts);
                std::vector<flow::flow_record> frame;
                while (reader.next_frame(frame))
                    records.insert(records.end(), frame.begin(), frame.end());
            } catch (const stream::codec_error&) {
                // Header/terminal corruption: the whole bin is lost —
                // for the scenario that is just a harsher degradation.
                records.clear();
            }
        }

        if (!records.empty()) pipeline.push(records);
    }
    pipeline.finish();
    return score;
}

std::string experiment_runner::to_json(const campaign_result& result) {
    obs::json_writer w;
    w.begin_object();
    w.key("packet");
    w.value("campaign_result");
    w.key("v");
    w.value(std::uint64_t{1});
    w.key("scenario");
    w.value(result.scenario);
    w.key("topology");
    w.value(result.topology);
    w.key("bins");
    w.value(result.bins);
    w.key("seed");
    w.value(result.seed);
    w.key("drift_phase_start");
    w.value(result.drift_phase_start);
    w.key("variants");
    w.begin_array();
    for (const variant_score& v : result.variants) {
        w.begin_object();
        w.key("name");
        w.value(v.variant);
        w.key("drift");
        w.value(v.drift_enabled);
        w.key("bins_emitted");
        w.value(v.bins_emitted);
        w.key("bins_scored");
        w.value(v.bins_scored);
        w.key("anomaly_bins");
        w.value(v.anomaly_bins);
        w.key("true_detections");
        w.value(v.true_detections);
        w.key("clean_bins");
        w.value(v.clean_bins);
        w.key("false_alarms");
        w.value(v.false_alarms);
        w.key("low_confidence_alarms");
        w.value(v.low_confidence_alarms);
        w.key("detection_rate");
        w.value(v.detection_rate());
        w.key("false_alarm_rate");
        w.value(v.false_alarm_rate());
        w.key("drift_clean_bins");
        w.value(v.drift_clean_bins);
        w.key("drift_false_alarms");
        w.value(v.drift_false_alarms);
        w.key("drift_false_alarm_rate");
        w.value(v.drift_false_alarm_rate());
        w.key("drift_events");
        w.value(v.drift_events);
        w.key("recalibrations");
        w.value(v.recalibrations);
        w.key("degraded_bins");
        w.value(v.degraded_bins);
        w.key("time_to_recalibrate_bins");
        w.value(v.time_to_recalibrate_bins);
        w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.take();
}

}  // namespace tfd::scenario
