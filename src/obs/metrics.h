// tfd::obs — lock-cheap metrics registry with Prometheus-text
// exposition.
//
// The streaming pipeline already counts everything an operator needs
// (pipeline_metrics, quarantine_stats, checkpoint_save_stats) — but
// those counters live inside the owning objects and die with the
// process. This registry is the exposition surface: named counters,
// gauges and fixed-bucket latency histograms that an HTTP endpoint
// (obs/http.h) renders in the Prometheus text format, so any scraper
// can watch the daemon without bespoke tooling.
//
// Concurrency model: registration (get_counter / get_gauge /
// get_histogram) takes a mutex and returns a stable reference;
// updates on the returned objects are plain relaxed atomics — safe
// from any thread, no lock on the hot path. Exposition walks the
// registry under the registration mutex and reads the atomics, so a
// scrape concurrent with ingest sees a per-metric-consistent (not
// globally consistent) snapshot, which is what Prometheus expects.
//
// Adopted counters: the pipeline's counters are authoritative and
// monotone; the bridge (obs/bridge.h) copies them into registry
// counters via set_to() at every bin close rather than double-counting
// at each increment site. set_to() clamps to monotone so a scrape can
// never observe a counter going backwards.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace tfd::obs {

/// Monotone counter (Prometheus type: counter).
class counter {
public:
    void inc(std::uint64_t d = 1) noexcept {
        v_.fetch_add(d, std::memory_order_relaxed);
    }
    /// Adopt an externally maintained monotone value. Never moves the
    /// exposed value backwards (a racing reader must see a monotone
    /// series even if callers pass stale snapshots out of order).
    void set_to(std::uint64_t v) noexcept {
        std::uint64_t cur = v_.load(std::memory_order_relaxed);
        while (v > cur &&
               !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    std::uint64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value (Prometheus type: gauge).
class gauge {
public:
    void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
    double value() const noexcept { return v_.load(std::memory_order_relaxed); }

private:
    std::atomic<double> v_{0.0};
};

/// Fixed-bucket latency histogram (Prometheus type: histogram;
/// buckets are upper bounds in SECONDS, rendered cumulatively with
/// le="..." labels plus _sum and _count). Bounds are fixed at
/// construction — no resizing, no locking; record() is a few relaxed
/// atomic ops.
class latency_histogram {
public:
    /// Default bounds cover the pipeline's stage range (µs decode
    /// spans to multi-second checkpoint writes).
    static const std::vector<double>& default_bounds();

    explicit latency_histogram(std::vector<double> bounds_seconds = {});

    void record_seconds(double s) noexcept;
    void record_ns(std::uint64_t ns) noexcept {
        record_seconds(static_cast<double>(ns) * 1e-9);
    }

    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    double sum_seconds() const noexcept {
        return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
               1e-9;
    }
    /// Finite upper bounds (seconds); the +Inf bucket is implicit.
    const std::vector<double>& bounds() const noexcept { return bounds_; }
    /// Non-cumulative count of bucket i (i == bounds().size() is +Inf).
    std::uint64_t bucket_count(std::size_t i) const noexcept {
        return counts_[i].load(std::memory_order_relaxed);
    }

private:
    std::vector<double> bounds_;  ///< ascending finite upper bounds
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;  ///< bounds+1
    std::atomic<std::uint64_t> sum_ns_{0};
    std::atomic<std::uint64_t> count_{0};
};

/// The per-stage latency histograms the streaming layers feed (via
/// obs/trace.h spans). A null member disables that stage's timing at
/// the cost of one branch. register_stage_timers() builds the
/// canonical set backed by a registry.
struct stage_timers {
    /// Per codec frame. In stream_pipeline::run() this is the decode
    /// thread's whole per-frame work: decode plus OD resolve.
    latency_histogram* decode = nullptr;
    /// Per push() or run() frame, on the consuming thread: resolve +
    /// shard accumulate for push(); shard accumulate only in run(),
    /// whose decode thread resolves.
    latency_histogram* accumulate = nullptr;
    latency_histogram* bin_close = nullptr;         ///< harvest + detector push (per bin)
    latency_histogram* refit = nullptr;             ///< online detector model refit
    latency_histogram* checkpoint_write = nullptr;  ///< snapshot write attempt
};

/// Named-metric registry. Names must match the Prometheus charset
/// ([a-zA-Z_:][a-zA-Z0-9_:]*); get_* throws std::invalid_argument on a
/// bad name or on re-registering a name as a different type, and
/// returns the existing instance on an exact re-registration.
class metrics_registry {
public:
    metrics_registry() = default;
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;

    counter& get_counter(const std::string& name, const std::string& help);
    gauge& get_gauge(const std::string& name, const std::string& help);
    latency_histogram& get_histogram(const std::string& name,
                                     const std::string& help,
                                     std::vector<double> bounds_seconds = {});

    /// Render every metric in the Prometheus text exposition format
    /// (text/plain; version=0.0.4), metrics sorted by name.
    std::string render_prometheus() const;

    std::size_t size() const;

private:
    enum class kind { counter, gauge, histogram };
    struct entry {
        std::string name;
        std::string help;
        kind type;
        std::unique_ptr<counter> c;
        std::unique_ptr<gauge> g;
        std::unique_ptr<latency_histogram> h;
    };
    entry& find_or_create(const std::string& name, const std::string& help,
                          kind type);

    mutable std::mutex mu_;
    std::vector<std::unique_ptr<entry>> entries_;  ///< sorted by name
};

/// The canonical per-stage histogram set, registered as
/// tfd_stage_<stage>_seconds.
stage_timers register_stage_timers(metrics_registry& reg);

}  // namespace tfd::obs
