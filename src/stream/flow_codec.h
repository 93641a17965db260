// tfd::stream — compact binary codec for flow-record batches.
//
// Traces in this repo have so far lived only as giant in-RAM
// std::vector<flow_record>s; a production collector ships them between
// processes and spools them to disk. This codec defines that boundary:
// a versioned stream of self-contained, checksummed frames, each
// holding a batch of records encoded with delta timestamps and LEB128
// varints (flow exports are bursty and near-sorted in time, so deltas
// are small and the packed form is a fraction of the 56-byte in-memory
// struct). The format is lossless: decode(encode(records)) reproduces
// every field bit for bit, anonymized or not — the Burkhart et al.
// compatibility requirement for anonymized feeds.
//
// Layout (all fixed-width integers little-endian):
//
//   file header  : u32 magic "TFC1", u16 version = 1, u16 flags = 0
//   frame        : u32 record_count, u32 payload_bytes, u64 base_us,
//                  u64 fnv1a64(payload), payload bytes
//   ...frames until EOF (a clean EOF at a frame boundary ends the
//   stream; anything else is reported as truncation)
//
// Per-record payload encoding, in stream order:
//
//   zigzag varint   first_us - prev_first_us   (prev = base_us at frame start)
//   zigzag varint   last_us  - first_us
//   varint          packets
//   varint          bytes
//   u32             src, dst
//   u16             src_port, dst_port
//   u8              protocol
//   zigzag varint   ingress_pop                (-1 = unknown survives)
//
// The writer buffers records and emits a frame every
// `records_per_frame` adds (or on flush); the reader reads one frame
// into a reusable buffer and decodes from a span, so per-frame work is
// one read call and no per-record allocation.
//
// The encoding primitives (LEB128 varints, zigzag, little-endian
// fixed-width integers, FNV-1a 64) live in the shared wire layer
// (io/wire.h) and are used by the checkpoint subsystem too; this codec
// defines only the frame layout on top of them. The rebase onto io/wire
// is byte-identical to the original private primitives — pinned by the
// golden-bytes test (tests/stream/codec_golden_test.cpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "flow/flow_record.h"

namespace tfd::stream {

inline constexpr std::uint32_t codec_magic = 0x31434654u;  // "TFC1"
inline constexpr std::uint16_t codec_version = 1;

/// What exactly went wrong with a codec stream. Callers branch on the
/// code (quarantine policy, tests, ops counters), never on the message
/// text.
enum class codec_errc : std::uint8_t {
    truncated_header,       ///< stream ended inside the file/frame header
    bad_magic,              ///< file header magic != "TFC1"
    unsupported_version,    ///< file header version this build cannot read
    implausible_frame,      ///< frame header violates the record-size envelope
    truncated_payload,      ///< stream ended inside a frame payload
    checksum_mismatch,      ///< payload FNV-1a64 != frame header checksum
    malformed_payload,      ///< checksum matched but records do not decode
    write_failure,          ///< underlying ostream write/flush failed
    error_budget_exceeded,  ///< quarantine: too many corrupt frames per window
};

/// Human-readable name for an error code (stable, for logs/tests).
const char* to_string(codec_errc code) noexcept;

/// Typed codec failure. Derives from std::runtime_error so existing
/// catch sites keep working; new code should switch on code().
class codec_error : public std::runtime_error {
public:
    codec_error(codec_errc code, const std::string& what)
        : std::runtime_error(what), code_(code) {}
    codec_errc code() const noexcept { return code_; }

private:
    codec_errc code_;
};

/// What the reader does when a frame fails validation.
enum class corrupt_policy : std::uint8_t {
    /// Throw codec_error immediately (the historical behavior; default).
    fail_fast,
    /// Skip the bad frame, rescan for the next plausible frame boundary,
    /// count the loss, and keep going — abort only when the error budget
    /// is exceeded.
    quarantine,
};

/// Tuning for the writer.
struct codec_options {
    /// Records buffered per frame. Bigger frames amortize headers and
    /// give the reader longer runs; smaller frames bound the working set
    /// and the blast radius of a corrupt frame.
    std::size_t records_per_frame = 4096;
};

/// Running totals for one codec endpoint.
struct codec_stats {
    std::uint64_t records = 0;        ///< records written / decoded
    std::uint64_t frames = 0;         ///< frames written / decoded
    std::uint64_t payload_bytes = 0;  ///< encoded payload bytes
    std::uint64_t wire_bytes = 0;     ///< payload + header bytes on the wire
};

/// Reader-side degraded-feed policy.
struct codec_read_options {
    corrupt_policy on_corrupt = corrupt_policy::fail_fast;
    /// Error budget (quarantine only): over the last budget_window_frames
    /// frame outcomes, more than budget_max_corrupt corrupt events throws
    /// codec_error{error_budget_exceeded}. A sustained-garbage feed is a
    /// systemic failure an operator must see, not a frame-level blip.
    /// budget_window_frames == 0 disables the budget entirely.
    std::size_t budget_window_frames = 64;
    std::size_t budget_max_corrupt = 8;
    /// Resync refuses to chase candidate frames larger than this many
    /// payload bytes (a garbage header with a plausible-looking giant
    /// payload_bytes field would otherwise make the scanner buffer it
    /// all just to fail the checksum).
    std::size_t resync_max_payload_bytes = std::size_t{1} << 24;
};

/// What the quarantine path discarded (all zero under fail_fast).
struct quarantine_stats {
    std::uint64_t frames_quarantined = 0;    ///< frames skipped as corrupt
    std::uint64_t records_lost_corrupt = 0;  ///< record_count of frames whose
                                             ///< boundary was trusted (payload
                                             ///< checksum/decode failures)
    std::uint64_t resyncs = 0;               ///< boundary-lost scans that
                                             ///< found a later valid frame
    std::uint64_t resync_bytes_skipped = 0;  ///< bytes discarded while
                                             ///< scanning for a boundary
};

namespace detail {

/// Append one record's encoding to `out`; `prev_first_us` is updated.
void encode_record(const flow::flow_record& r, std::uint64_t& prev_first_us,
                   std::vector<std::uint8_t>& out);

/// Decode `count` records from `payload` (base timestamp `base_us`),
/// appending to `out`. Throws codec_error{malformed_payload} if the
/// payload is malformed or has trailing bytes.
void decode_payload(std::span<const std::uint8_t> payload, std::size_t count,
                    std::uint64_t base_us,
                    std::vector<flow::flow_record>& out);

}  // namespace detail

/// Buffered frame writer. Writes the file header on construction and one
/// frame per `records_per_frame` records (or per flush_frame() call).
class flow_codec_writer {
public:
    /// Throws std::invalid_argument on zero records_per_frame, or
    /// codec_error{write_failure} if the stream is not writable.
    explicit flow_codec_writer(std::ostream& out, codec_options opts = {});

    /// Buffer one record (a frame is emitted when the buffer fills).
    void add(const flow::flow_record& r);

    /// Buffer a batch.
    void add(std::span<const flow::flow_record> rs);

    /// Emit buffered records as one frame now (no-op when empty).
    void flush_frame();

    /// Flush the final partial frame and the underlying stream. The
    /// writer is reusable afterwards (a new frame sequence continues the
    /// same stream).
    void finish();

    const codec_stats& stats() const noexcept { return stats_; }

private:
    std::ostream* out_;
    codec_options opts_;
    std::vector<flow::flow_record> pending_;
    std::vector<std::uint8_t> payload_;  ///< reused encode buffer
    codec_stats stats_;
};

/// Frame reader. Validates the file header on construction; next_frame()
/// yields one decoded batch at a time so a consumer never needs the
/// whole trace in memory.
///
/// Under corrupt_policy::quarantine a failed frame is discarded instead
/// of thrown: when the frame boundary is still trusted (the header
/// passed the plausibility envelope but the payload failed its checksum
/// or decode) the reader skips exactly that frame; when the boundary
/// itself is lost (implausible header, mid-frame truncation) it slides
/// byte-by-byte until it finds a candidate header whose envelope,
/// payload checksum, AND record decode all pass — a 1-in-2^64 bar for
/// garbage — and resumes there. Losses land in quarantine().
///
/// The file header is validated before any policy applies: a stream
/// whose first 8 bytes are wrong is the wrong file, not a degraded one,
/// so the constructor throws under either policy.
class flow_codec_reader {
public:
    /// Reads and validates the file header. Throws codec_error
    /// (truncated_header / bad_magic / unsupported_version) on failure.
    explicit flow_codec_reader(std::istream& in, codec_read_options opts = {});

    /// Decode the next frame into `out` (previous contents replaced).
    /// Returns false on clean end of stream. fail_fast: throws
    /// codec_error on truncation, implausible header, checksum mismatch,
    /// or malformed payload. quarantine: skips/rescans instead and only
    /// throws codec_error{error_budget_exceeded} when corrupt frames
    /// exceed the sliding-window budget.
    bool next_frame(std::vector<flow::flow_record>& out);

    const codec_stats& stats() const noexcept { return stats_; }
    const quarantine_stats& quarantine() const noexcept { return qstats_; }

private:
    std::size_t read_some(std::uint8_t* dest, std::size_t n);
    std::size_t window_fill(std::size_t need);
    bool resync(std::span<const std::uint8_t> bad_prefix,
                std::vector<flow::flow_record>& out);
    void budget_note(bool corrupt);

    std::istream* in_;
    codec_read_options opts_;
    std::vector<std::uint8_t> buf_;  ///< reused frame payload buffer
    codec_stats stats_;
    quarantine_stats qstats_;
    /// Bytes already pulled from the stream but not yet consumed (only
    /// ever non-empty right after a resync left residue); read_some()
    /// drains it before touching the stream, so the common path costs
    /// one empty() check.
    std::vector<std::uint8_t> window_;
    std::size_t window_pos_ = 0;
    /// Sliding error-budget ring over the last N frame outcomes.
    std::vector<std::uint8_t> budget_ring_;
    std::size_t budget_pos_ = 0;
    std::size_t budget_corrupt_ = 0;
};

/// Convenience: encode a batch to an in-memory byte string.
std::vector<std::uint8_t> encode_records(
    std::span<const flow::flow_record> records, codec_options opts = {});

/// Convenience: decode every frame of an in-memory byte string.
/// Throws codec_error on any corruption (policy from `opts` applies).
std::vector<flow::flow_record> decode_records(
    std::span<const std::uint8_t> bytes, codec_read_options opts = {});

}  // namespace tfd::stream
