#include "core/online.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.h"

namespace tfd::core {

namespace {
// Flows identified per detection (the batch detector identifies 5).
constexpr std::size_t kMaxIdentified = 3;
}  // namespace

std::size_t entropy_snapshot::flows() const noexcept {
    const std::size_t n = entropies[0].size();
    for (const auto& e : entropies)
        if (e.size() != n) return 0;
    return n;
}

online_detector::online_detector(std::size_t flows, const online_options& opts)
    : flows_(flows), opts_(opts) {
    if (flows == 0)
        throw std::invalid_argument("online_detector: flows must be > 0");
    if (opts.window < 8)
        throw std::invalid_argument("online_detector: window too small");
    if (opts.warmup < 2 || opts.warmup > opts.window)
        throw std::invalid_argument(
            "online_detector: warmup must be in [2, window]");
    if (opts.refit_interval == 0)
        throw std::invalid_argument(
            "online_detector: refit_interval must be > 0");
    if (opts.recalibration.enabled) {
        const recalibration_options& rc = opts.recalibration;
        if (rc.relearn_bins < 2 || rc.relearn_bins > opts.window)
            throw std::invalid_argument(
                "online_detector: relearn_bins must be in [2, window]");
        if (rc.degraded_confidence < 0.0 || rc.degraded_confidence > 1.0)
            throw std::invalid_argument(
                "online_detector: degraded_confidence must be in [0, 1]");
        monitor_.emplace(rc.monitor);  // validates the monitor options
    }
}

std::vector<double> online_detector::flatten(const entropy_snapshot& s) const {
    std::vector<double> row(flow::feature_count * flows_);
    for (int f = 0; f < flow::feature_count; ++f)
        for (std::size_t od = 0; od < flows_; ++od)
            row[static_cast<std::size_t>(f) * flows_ + od] =
                s.entropies[f][od];
    return row;
}

void online_detector::refit() {
    obs::stage_span refit_span(opts_.refit_timer);
    // Stack the raw window oldest-first into one t x d matrix and
    // normalize each feature block to unit energy exactly as unfold()
    // does: the energy is summed over the block's t x p submatrix row by
    // row (frobenius_norm's order), so the fit below is bit-identical to
    // a batch fit of the same window.
    const std::size_t t = window_.size();
    const std::size_t d = flow::feature_count * flows_;
    linalg::matrix h(t, d);
    for (int f = 0; f < flow::feature_count; ++f) {
        const std::size_t c0 = static_cast<std::size_t>(f) * flows_;
        double energy = 0.0;
        for (const auto& row : window_)
            for (std::size_t od = 0; od < flows_; ++od)
                energy += row[c0 + od] * row[c0 + od];
        double norm = std::sqrt(energy);
        if (norm == 0.0) norm = 1.0;  // all-zero feature block stays zero
        norms_[f] = norm;
        const double inv = 1.0 / norm;
        for (std::size_t r = 0; r < t; ++r) {
            const double* src = window_[r].data() + c0;
            double* dst = h.row(r).data() + c0;
            for (std::size_t od = 0; od < flows_; ++od) dst[od] = src[od] * inv;
        }
    }

    model_ = subspace_model::fit(std::move(h), opts_.subspace);
    threshold_ = model_->q_threshold(opts_.alpha);
    since_refit_ = 0;
}

void online_detector::recalibrate() {
    // The re-learn window is over: the pre-drift history is the stale
    // part, so drop everything but the newest relearn_bins rows (all
    // post-confirmation), and refit + re-estimate the threshold. A refit
    // reads nothing but the window, so the resulting model state is
    // bit-identical to a fresh detector (warmup == relearn_bins) fed
    // exactly those rows.
    const std::size_t keep = opts_.recalibration.relearn_bins;
    while (window_.size() > keep) window_.pop_front();
    refit();
    state_ = detector_state::normal;
    relearn_progress_ = 0;
    monitor_->reset();
}

void online_detector::save(io::wire_writer& w) const {
    w.varint(bins_seen_);
    w.varint(since_refit_);
    w.f64(threshold_);
    for (double n : norms_) w.f64(n);
    w.varint(window_.size());
    for (const auto& row : window_)
        for (double v : row) w.f64(v);
    w.u8(model_.has_value() ? 1 : 0);
    if (model_) model_->save(w);
    // Recalibration block (since detector section v2). Written even when
    // disabled — the flag byte keeps the payload self-describing, and
    // the checkpoint fingerprint already pins the enabled option.
    w.u8(monitor_.has_value() ? 1 : 0);
    if (monitor_) {
        w.u8(static_cast<std::uint8_t>(state_));
        w.varint(relearn_progress_);
        monitor_->save(w);
    }
}

void online_detector::load(io::wire_reader& r) {
    const std::size_t d = flow::feature_count * flows_;
    bins_seen_ = static_cast<std::size_t>(r.varint());
    since_refit_ = static_cast<std::size_t>(r.varint());
    threshold_ = r.f64();
    for (double& n : norms_) n = r.f64();
    const std::uint64_t rows = r.varint();
    if (rows > opts_.window || rows > r.remaining() / (8 * d) + 1)
        r.fail("online_detector: implausible window size");
    window_.clear();
    for (std::uint64_t i = 0; i < rows; ++i) {
        std::vector<double> row(d);
        for (double& v : row) v = r.f64();
        window_.push_back(std::move(row));
    }
    if (r.u8() != 0) {
        model_.emplace();
        model_->load(r);
        if (model_->dimension() != d)
            r.fail("online_detector: model dimension mismatch");
    } else {
        model_.reset();
    }
    if ((r.u8() != 0) != monitor_.has_value())
        r.fail("online_detector: recalibration state presence mismatch");
    if (monitor_) {
        const std::uint8_t s = r.u8();
        if (s > 1) r.fail("online_detector: bad detector state");
        state_ = static_cast<detector_state>(s);
        relearn_progress_ = static_cast<std::size_t>(r.varint());
        monitor_->load(r);
    }
}

online_verdict online_detector::push(const entropy_snapshot& snapshot) {
    if (snapshot.flows() != flows_)
        throw std::invalid_argument(
            "online_detector: snapshot width mismatch");

    online_verdict v;
    v.bin = bins_seen_++;

    window_.push_back(flatten(snapshot));
    if (window_.size() > opts_.window) window_.pop_front();

    // Degraded bookkeeping before the refit decision: the re-learn
    // window completing on this bin means this bin is scored under the
    // re-learned model, exactly as the fresh-fit reference would score
    // it on its first post-warmup bin.
    bool recalibrated_now = false;
    if (state_ == detector_state::degraded &&
        ++relearn_progress_ >= opts_.recalibration.relearn_bins) {
        recalibrate();
        recalibrated_now = true;
        v.recalibrated = true;
    }

    // While degraded the scheduled refit is suppressed: a cadence refit
    // would blend pre- and post-drift rows into one covariance, which is
    // exactly the miscalibration being escaped. (With recalibration
    // disabled, state_ is permanently normal and this is the legacy
    // expression.)
    const bool due = !model_ || since_refit_ >= opts_.refit_interval;
    if (state_ != detector_state::degraded && !recalibrated_now &&
        window_.size() >= opts_.warmup && due)
        refit();
    ++since_refit_;

    if (!model_) return v;  // still warming up

    // Score the incoming row under the current model, normalizing with
    // the window's block norms.
    obs_buf_ = window_.back();
    std::vector<double>& obs = obs_buf_;
    for (int f = 0; f < flow::feature_count; ++f) {
        const double inv = 1.0 / norms_[f];
        for (std::size_t od = 0; od < flows_; ++od)
            obs[static_cast<std::size_t>(f) * flows_ + od] *= inv;
    }
    v.scored = true;
    v.spe = model_->spe(obs, spe_scratch_);
    v.threshold = threshold_;
    v.anomalous = v.spe > threshold_;

    if (opts_.recalibration.enabled) {
        if (state_ == detector_state::degraded) {
            // Re-learning: keep scoring (and detecting) against the
            // stale model, but say so — detections are marked
            // low-confidence, never dropped.
            v.degraded = true;
            v.confidence = opts_.recalibration.degraded_confidence;
        } else {
            const drift_signal sig =
                monitor_->observe(v.spe, v.threshold, v.anomalous);
            if (sig == drift_signal::shift) {
                state_ = detector_state::degraded;
                relearn_progress_ = 0;
                v.drift_detected = true;
                v.degraded = true;
                v.confidence = opts_.recalibration.degraded_confidence;
            }
        }
    }

    if (!v.anomalous) return v;

    auto ident = identify_flows(
        *model_, obs,
        {.max_flows = kMaxIdentified, .stop_threshold = threshold_});
    v.flows = std::move(ident.flows);
    v.top_od = ident.top_od;
    v.h_tilde = ident.h_tilde;
    return v;
}

}  // namespace tfd::core
