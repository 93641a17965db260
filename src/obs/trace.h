// tfd::obs — zero-dependency scoped trace spans.
//
// A stage_span times one scope and records the elapsed time into a
// latency_histogram on destruction. Constructing it with a null
// histogram skips the clock reads entirely (one branch), so a pipeline
// with no timers configured pays nothing measurable.
//
// Spans are intentionally coarse (per frame, per push batch, per bin,
// per refit, per checkpoint write) — never per record — so a steady
// clock read per span is noise relative to the work it bounds.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace tfd::obs {

class stage_span {
public:
    explicit stage_span(latency_histogram* h) noexcept : h_(h) {
        if (h_) start_ = now_ns();
    }
    stage_span(const stage_span&) = delete;
    stage_span& operator=(const stage_span&) = delete;
    ~stage_span() { stop(); }

    /// Record now instead of at scope exit (idempotent).
    void stop() noexcept {
        if (!h_) return;
        h_->record_ns(now_ns() - start_);
        h_ = nullptr;
    }

private:
    static std::uint64_t now_ns() noexcept {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    latency_histogram* h_;
    std::uint64_t start_ = 0;
};

}  // namespace tfd::obs
