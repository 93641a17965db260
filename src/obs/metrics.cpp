#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/json.h"

namespace tfd::obs {

namespace {

bool valid_metric_name(const std::string& name) {
    if (name.empty()) return false;
    const auto head = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
               c == ':';
    };
    if (!head(name[0])) return false;
    for (const char c : name)
        if (!head(c) && !(c >= '0' && c <= '9')) return false;
    return true;
}

void append_prom_double(std::string& out, double v) {
    if (std::isnan(v)) {
        out += "NaN";
    } else if (std::isinf(v)) {
        out += v > 0 ? "+Inf" : "-Inf";
    } else {
        append_json_double(out, v);  // shortest round-trip decimal
    }
}

}  // namespace

const std::vector<double>& latency_histogram::default_bounds() {
    // µs-scale decode spans up to multi-second checkpoint writes; the
    // extra resolution between 1 ms and 100 ms is where bin close and
    // refit latencies live at Abilene scale.
    static const std::vector<double> b = {
        1e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,  2.5e-3, 5e-3, 1e-2,
        2.5e-2, 5e-2, 0.1,  0.25, 0.5,  1.0,    2.5,  10.0};
    return b;
}

latency_histogram::latency_histogram(std::vector<double> bounds_seconds)
    : bounds_(bounds_seconds.empty() ? default_bounds()
                                     : std::move(bounds_seconds)) {
    if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
        std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end())
        throw std::invalid_argument(
            "latency_histogram: bucket bounds must be strictly ascending");
    counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void latency_histogram::record_seconds(double s) noexcept {
    if (!(s >= 0.0)) s = 0.0;  // negative / NaN clock glitches clamp to 0
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), s);
    const std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
    counts_[idx].fetch_add(1, std::memory_order_relaxed);
    sum_ns_.fetch_add(static_cast<std::uint64_t>(s * 1e9 + 0.5),
                      std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
}

metrics_registry::entry& metrics_registry::find_or_create(
    const std::string& name, const std::string& help, kind type) {
    if (!valid_metric_name(name))
        throw std::invalid_argument("metrics_registry: invalid metric name '" +
                                    name + "'");
    std::lock_guard lock(mu_);
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const std::unique_ptr<entry>& e, const std::string& n) {
            return e->name < n;
        });
    if (it != entries_.end() && (*it)->name == name) {
        if ((*it)->type != type)
            throw std::invalid_argument(
                "metrics_registry: '" + name +
                "' already registered as a different type");
        return **it;
    }
    auto e = std::make_unique<entry>();
    e->name = name;
    e->help = help;
    e->type = type;
    return **entries_.insert(it, std::move(e));
}

counter& metrics_registry::get_counter(const std::string& name,
                                       const std::string& help) {
    entry& e = find_or_create(name, help, kind::counter);
    if (!e.c) e.c = std::make_unique<counter>();
    return *e.c;
}

gauge& metrics_registry::get_gauge(const std::string& name,
                                   const std::string& help) {
    entry& e = find_or_create(name, help, kind::gauge);
    if (!e.g) e.g = std::make_unique<gauge>();
    return *e.g;
}

latency_histogram& metrics_registry::get_histogram(
    const std::string& name, const std::string& help,
    std::vector<double> bounds_seconds) {
    entry& e = find_or_create(name, help, kind::histogram);
    if (!e.h) e.h = std::make_unique<latency_histogram>(std::move(bounds_seconds));
    return *e.h;
}

std::size_t metrics_registry::size() const {
    std::lock_guard lock(mu_);
    return entries_.size();
}

std::string metrics_registry::render_prometheus() const {
    std::lock_guard lock(mu_);
    std::string out;
    out.reserve(entries_.size() * 96);
    for (const auto& ep : entries_) {
        const entry& e = *ep;
        if (!e.help.empty()) {
            out += "# HELP ";
            out += e.name;
            out += ' ';
            out += e.help;
            out += '\n';
        }
        out += "# TYPE ";
        out += e.name;
        out += e.type == kind::counter    ? " counter\n"
               : e.type == kind::gauge    ? " gauge\n"
                                          : " histogram\n";
        switch (e.type) {
            case kind::counter:
                out += e.name;
                out += ' ';
                append_json_u64(out, e.c->value());
                out += '\n';
                break;
            case kind::gauge:
                out += e.name;
                out += ' ';
                append_prom_double(out, e.g->value());
                out += '\n';
                break;
            case kind::histogram: {
                const latency_histogram& h = *e.h;
                std::uint64_t cum = 0;
                for (std::size_t i = 0; i < h.bounds().size(); ++i) {
                    cum += h.bucket_count(i);
                    out += e.name;
                    out += "_bucket{le=\"";
                    append_prom_double(out, h.bounds()[i]);
                    out += "\"} ";
                    append_json_u64(out, cum);
                    out += '\n';
                }
                cum += h.bucket_count(h.bounds().size());
                out += e.name;
                out += "_bucket{le=\"+Inf\"} ";
                append_json_u64(out, cum);
                out += '\n';
                out += e.name;
                out += "_sum ";
                append_prom_double(out, h.sum_seconds());
                out += '\n';
                out += e.name;
                out += "_count ";
                append_json_u64(out, h.count());
                out += '\n';
                break;
            }
        }
    }
    return out;
}

stage_timers register_stage_timers(metrics_registry& reg) {
    stage_timers t;
    t.decode = &reg.get_histogram(
        "tfd_stage_decode_seconds",
        "Codec frame decode latency (run(): decode + OD resolve).");
    t.accumulate = &reg.get_histogram(
        "tfd_stage_accumulate_seconds",
        "Ingest latency per push (resolve + shard accumulation; run(): "
        "shard accumulation only).");
    t.bin_close = &reg.get_histogram(
        "tfd_stage_bin_close_seconds",
        "Bin close latency (harvest + detector push) per emitted bin.");
    t.refit = &reg.get_histogram("tfd_stage_refit_seconds",
                                 "Online detector model refit latency.");
    t.checkpoint_write =
        &reg.get_histogram("tfd_stage_checkpoint_write_seconds",
                           "Checkpoint snapshot write latency per attempt.");
    return t;
}

}  // namespace tfd::obs
