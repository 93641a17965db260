// tfd::obs — pluggable event sinks and the sequencing emitter.
//
// A sink consumes one serialized event line at a time. The emitter
// serializes exactly once and hands every sink the same bytes, so a
// file sink, the in-memory ring behind /events/recent, and a test's
// memory sink all observe an identical stream.
//
// Threading: emit() is called from the thread driving the pipeline
// (push/finish/run and the checkpointer) — one writer. Sinks that are
// *read* from another thread (ring_sink by the HTTP server,
// memory_sink by a test thread) lock internally; write-only sinks
// (file, tcp) do not.
//
// Failure policy: an event stream is telemetry, not ground truth — a
// sink that loses its backing (disk full, socket peer gone) drops
// lines and counts them instead of taking the daemon down. Dropped
// counts are exposed so the loss is visible.
#pragma once

#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event.h"

namespace tfd::obs {

class counter;  // obs/metrics.h — optional emit counter hookup

/// Sink interface: one serialized line per event (no newline).
class event_sink {
public:
    virtual ~event_sink() = default;
    virtual void emit(const event& e, std::string_view jsonl_line) = 0;
};

/// Keeps every event (typed + serialized) in memory; the reconciliation
/// tests' instrument. Thread-safe.
class memory_sink : public event_sink {
public:
    void emit(const event& e, std::string_view jsonl_line) override;

    std::vector<event> events() const;
    std::vector<std::string> lines() const;
    std::size_t count() const;
    /// Events of one type, in emission order.
    std::vector<event> events_of(event_type t) const;

private:
    mutable std::mutex mu_;
    std::vector<event> events_;
    std::vector<std::string> lines_;
};

/// Appends lines to an owned file (append mode, one flush per line so
/// `tail -f` and a crash lose nothing). Throws std::system_error when
/// the file cannot be opened; write errors after that are counted, not
/// thrown.
class file_sink : public event_sink {
public:
    explicit file_sink(const std::string& path);

    void emit(const event& e, std::string_view jsonl_line) override;

    std::uint64_t dropped() const noexcept { return dropped_; }

private:
    std::ofstream out_;
    std::uint64_t dropped_ = 0;
};

/// The seq that continues the JSONL log at `path` (what file_sink
/// appends to): the `seq` of its last line that carries one, plus 1; 1
/// when the file is missing or holds no event. Pass it as the emitter's
/// first seq so a restarted process keeps the log strictly increasing.
std::uint64_t next_event_seq(const std::string& path);

/// Bounded ring of the most recent serialized lines; backs the HTTP
/// endpoint's /events/recent. Thread-safe.
class ring_sink : public event_sink {
public:
    explicit ring_sink(std::size_t capacity)
        : capacity_(capacity == 0 ? 1 : capacity) {}

    void emit(const event& e, std::string_view jsonl_line) override;

    /// Oldest-first copy of the retained lines.
    std::vector<std::string> recent() const;
    std::uint64_t total_emitted() const;

private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::deque<std::string> lines_;
    std::uint64_t total_ = 0;
};

/// Forwards each event to every registered sink, in registration order.
class tee_sink : public event_sink {
public:
    void add(event_sink* sink) {
        if (sink) sinks_.push_back(sink);
    }

    void emit(const event& e, std::string_view jsonl_line) override {
        for (event_sink* s : sinks_) s->emit(e, jsonl_line);
    }

private:
    std::vector<event_sink*> sinks_;
};

/// Connects to a TCP peer and writes lines. Connection failure at
/// construction throws std::system_error; a peer that goes away later
/// is survived, never a daemon crash — SIGPIPE is suppressed per send.
///
/// Reconnect policy: after losing the peer the sink counts each lost
/// line in `dropped()` and retries the connection at most once every
/// `reconnect_cooldown_emits` emit() calls (events are bin-paced, so
/// the cooldown is a bin count, not a wall-clock timer — deterministic
/// under test). A successful retry bumps `reconnects()` and resumes
/// delivery from the next line; lines dropped while disconnected are
/// gone (telemetry, not ground truth).
class tcp_sink : public event_sink {
public:
    tcp_sink(const std::string& host, std::uint16_t port,
             std::uint64_t reconnect_cooldown_emits = 16);
    ~tcp_sink() override;

    void emit(const event& e, std::string_view jsonl_line) override;

    std::uint64_t dropped() const noexcept { return dropped_; }
    std::uint64_t reconnects() const noexcept { return reconnects_; }
    bool connected() const noexcept { return fd_ >= 0; }

private:
    /// One resolve+connect attempt; returns the fd or -1 (never throws).
    int try_connect() noexcept;

    std::string host_;
    std::string service_;
    std::uint64_t cooldown_;
    std::uint64_t emits_since_loss_ = 0;
    int fd_ = -1;
    std::uint64_t dropped_ = 0;
    std::uint64_t reconnects_ = 0;
};

/// Assigns sequence numbers and wall-clock timestamps, serializes once,
/// and fans out to one sink (use tee_sink for several). A null sink
/// makes emit() a cheap no-op (events are still counted).
class event_emitter {
public:
    explicit event_emitter(event_sink* sink, std::uint64_t first_seq = 1)
        : sink_(sink), next_seq_(first_seq) {}

    /// Stamp seq + timestamp, serialize, emit. Returns the assigned seq.
    std::uint64_t emit(std::uint64_t bin, event_data data);

    std::uint64_t emitted() const noexcept { return emitted_; }

    /// Optional registry counter bumped once per emitted event.
    void count_into(counter* c) noexcept { counter_ = c; }

private:
    event_sink* sink_;
    std::uint64_t next_seq_;
    std::uint64_t emitted_ = 0;
    counter* counter_ = nullptr;
};

}  // namespace tfd::obs
