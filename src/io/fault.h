// tfd::io — deterministic, seed-driven fault injection.
//
// The detector is meant to run unattended on weeks of degraded feeds:
// corrupt exports, truncated spools, disks that return EIO once and
// then recover. Testing that the pipeline degrades gracefully requires
// injecting those faults on purpose — and injecting them *exactly the
// same way every run*, so a chaos test that fails once can be replayed
// under a debugger and pinned as a regression test forever.
//
// The design makes every fault decision a pure function of
// (plan.seed, fault site, index): whether byte #1234 of a spool gets a
// bit flipped, or write attempt #3 of a checkpoint fails, never depends
// on call order, thread timing, or how many other decisions were asked
// for in between. Two runs with the same plan therefore inject the
// identical fault set even if one of them crashes halfway through —
// the property the supervised-restart chaos tests rely on.
//
// Layers:
//
//   fault_plan      seed + per-site rates; a plain literal you can put
//                   in a test next to the assertions it produced
//   fault_injector  the vtable-free policy object: decision helpers per
//                   site (corrupt bytes, fail a write, truncate or
//                   shorten a read) plus counters of what actually fired
//   fault_streambuf read-side std::streambuf wrapper that applies bit
//                   flips / truncation by absolute byte offset while an
//                   existing reader pulls from it — degraded feeds
//                   without touching the reader's code
//
// Everything here is test/ops machinery: with a default (all-zero)
// plan the injector reports enabled() == false and every helper is a
// cheap no-op, so production paths can hold an optional injector
// pointer and pay one branch.
#pragma once

#include <cstdint>
#include <span>
#include <streambuf>

namespace tfd::io {

/// Where a fault decision is being made. Folded into the hash so the
/// same index at two different sites draws independent decisions.
enum class fault_site : std::uint32_t {
    corrupt_byte = 1,    ///< bit flip in a byte buffer (index = byte offset)
    write_failure = 2,   ///< transient EIO/ENOSPC-style write failure
    read_truncate = 3,   ///< feed ends early (index = byte offset)
    short_read = 4,      ///< a read returns fewer bytes than asked
};

/// A reproducible fault campaign: a seed plus per-site rates. Rates are
/// probabilities in [0, 1] evaluated per byte / per call; 0 disables a
/// site. The plan is semantically a value — copy it into a test next to
/// the assertions it produced.
struct fault_plan {
    std::uint64_t seed = 0;
    /// Per-byte probability that corrupt() flips one (hash-chosen) bit.
    double bit_flip_per_byte = 0.0;
    /// Per-call probability that should_fail_write() reports a
    /// transient failure (the caller maps it to EIO/ENOSPC semantics).
    double write_failure_per_call = 0.0;
    /// Per-byte probability that a fault_streambuf ends the stream
    /// early at that offset (spool truncated by a crash or full disk).
    double truncate_per_byte = 0.0;
    /// Per-call probability that a read is shortened (short read).
    double short_read_per_call = 0.0;

    bool enabled() const noexcept {
        return bit_flip_per_byte > 0.0 || write_failure_per_call > 0.0 ||
               truncate_per_byte > 0.0 || short_read_per_call > 0.0;
    }
};

/// What actually fired (distinct counter per site).
struct fault_stats {
    std::uint64_t bits_flipped = 0;
    std::uint64_t writes_failed = 0;
    std::uint64_t reads_truncated = 0;
    std::uint64_t reads_shortened = 0;
};

/// The policy object. Thread-compatible (confine one injector to one
/// thread, or guard it externally); decisions themselves are stateless
/// hashes, only the counters mutate.
class fault_injector {
public:
    explicit fault_injector(fault_plan plan) noexcept : plan_(plan) {}

    const fault_plan& plan() const noexcept { return plan_; }
    const fault_stats& stats() const noexcept { return stats_; }
    bool enabled() const noexcept { return plan_.enabled(); }

    /// Would this (site, index) fire at `rate`? Pure — no counters.
    bool fires(fault_site site, std::uint64_t index, double rate) const noexcept;

    /// Flip bits in `bytes` per bit_flip_per_byte; byte i of the span is
    /// judged at absolute offset base_offset + i, so corrupting a buffer
    /// in chunks produces the same flips as corrupting it whole.
    /// Returns the number of bits flipped.
    std::uint64_t corrupt(std::span<std::uint8_t> bytes,
                          std::uint64_t base_offset = 0);

    /// Transient write failure for write attempt `attempt` (caller keeps
    /// the attempt counter so retries of the same save draw new
    /// decisions).
    bool should_fail_write(std::uint64_t attempt);

    /// Should the feed end at absolute byte `offset`?
    bool should_truncate_at(std::uint64_t offset);

    /// Shorten an n-byte read issued as call `call_index`? Returns the
    /// number of bytes to deliver (== n when the site does not fire; at
    /// least 1 when it does, so a reader always makes progress).
    std::size_t short_read_len(std::uint64_t call_index, std::size_t n);

private:
    fault_plan plan_;
    fault_stats stats_;
};

/// Read-side degraded-feed wrapper: pulls bytes from an inner streambuf
/// and applies the injector's bit flips and truncation by absolute
/// offset. Stacks under any istream consumer (the flow codec reader,
/// snapshot loads) without that consumer knowing faults exist:
///
///   std::istringstream clean(spool);
///   io::fault_injector faults({.seed = 7, .bit_flip_per_byte = 1e-5});
///   io::fault_streambuf degraded(*clean.rdbuf(), faults);
///   std::istream in(&degraded);
///   stream::flow_codec_reader reader(in, opts);
class fault_streambuf final : public std::streambuf {
public:
    fault_streambuf(std::streambuf& inner, fault_injector& faults)
        : inner_(&inner), faults_(&faults) {}

protected:
    int_type underflow() override;

private:
    std::streambuf* inner_;
    fault_injector* faults_;
    std::uint64_t offset_ = 0;      ///< absolute offset of buf_[0]
    std::uint64_t read_calls_ = 0;
    bool truncated_ = false;
    char buf_[4096];
};

}  // namespace tfd::io
