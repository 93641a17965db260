#include "stream/flow_codec.h"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "io/wire.h"

namespace tfd::stream {

namespace {

using io::put_u8;
using io::put_u16;
using io::put_u32;
using io::put_u64;
using io::put_varint;
using io::unzigzag;
using io::zigzag;

// ---- frame header (24 bytes after the 8-byte file header) ----

struct frame_header {
    std::uint32_t record_count;
    std::uint32_t payload_bytes;
    std::uint64_t base_us;
    std::uint64_t checksum;
};

constexpr std::size_t kFileHeaderBytes = 8;
constexpr std::size_t kFrameHeaderBytes = 24;

// Encoded-record size envelope, used to sanity-check an untrusted frame
// header before allocating: every record is at least 18 bytes (ten
// single-byte varints would still ride with 13 fixed bytes) and at most
// 64 (five maximal 10-byte varints + 13 fixed bytes). A corrupted
// record_count or payload_bytes field almost surely violates the
// envelope, so we fail with a clean error instead of attempting a
// multi-GiB buf_.resize() the checksum would only catch afterwards.
constexpr std::uint64_t kMinRecordEncoding = 18;
constexpr std::uint64_t kMaxRecordEncoding = 64;

void write_bytes(std::ostream& out, const std::vector<std::uint8_t>& bytes) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw codec_error(codec_errc::write_failure, "flow_codec: write failed");
}

frame_header parse_frame_header(const std::uint8_t* p) {
    io::wire_reader c({p, kFrameHeaderBytes}, "flow_codec");
    frame_header fh;
    fh.record_count = c.u32();
    fh.payload_bytes = c.u32();
    fh.base_us = c.u64();
    fh.checksum = c.u64();
    return fh;
}

// The historical plausibility envelope, applied to every frame header
// under both policies.
bool envelope_ok(const frame_header& fh) noexcept {
    const auto count = static_cast<std::uint64_t>(fh.record_count);
    const auto payload = static_cast<std::uint64_t>(fh.payload_bytes);
    return payload <= count * kMaxRecordEncoding &&
           payload >= count * kMinRecordEncoding;
}

}  // namespace

const char* to_string(codec_errc code) noexcept {
    switch (code) {
        case codec_errc::truncated_header: return "truncated_header";
        case codec_errc::bad_magic: return "bad_magic";
        case codec_errc::unsupported_version: return "unsupported_version";
        case codec_errc::implausible_frame: return "implausible_frame";
        case codec_errc::truncated_payload: return "truncated_payload";
        case codec_errc::checksum_mismatch: return "checksum_mismatch";
        case codec_errc::malformed_payload: return "malformed_payload";
        case codec_errc::write_failure: return "write_failure";
        case codec_errc::error_budget_exceeded: return "error_budget_exceeded";
    }
    return "unknown";
}

namespace detail {

void encode_record(const flow::flow_record& r, std::uint64_t& prev_first_us,
                   std::vector<std::uint8_t>& out) {
    // Deltas computed in uint64 (wraparound defined) and reinterpreted
    // as int64 (modular conversion, C++20) before zigzag, so extreme
    // timestamps cannot trip signed-overflow UB.
    put_varint(out, zigzag(static_cast<std::int64_t>(r.first_us -
                                                     prev_first_us)));
    put_varint(out,
               zigzag(static_cast<std::int64_t>(r.last_us - r.first_us)));
    put_varint(out, r.packets);
    put_varint(out, r.bytes);
    put_u32(out, r.key.src.value);
    put_u32(out, r.key.dst.value);
    put_u16(out, r.key.src_port);
    put_u16(out, r.key.dst_port);
    put_u8(out, r.key.protocol);
    put_varint(out, zigzag(r.ingress_pop));
    prev_first_us = r.first_us;
}

void decode_payload(std::span<const std::uint8_t> payload, std::size_t count,
                    std::uint64_t base_us,
                    std::vector<flow::flow_record>& out) {
    try {
        io::wire_reader c(payload, "flow_codec");
        std::uint64_t prev_first = base_us;
        for (std::size_t i = 0; i < count; ++i) {
            flow::flow_record r;
            // Unsigned addition: wraparound is defined, so a crafted frame
            // with extreme deltas cannot trip signed-overflow UB.
            r.first_us =
                prev_first + static_cast<std::uint64_t>(unzigzag(c.varint()));
            r.last_us =
                r.first_us + static_cast<std::uint64_t>(unzigzag(c.varint()));
            r.packets = c.varint();
            r.bytes = c.varint();
            r.key.src.value = c.u32();
            r.key.dst.value = c.u32();
            r.key.src_port = c.u16();
            r.key.dst_port = c.u16();
            r.key.protocol = c.u8();
            r.ingress_pop = static_cast<int>(unzigzag(c.varint()));
            prev_first = r.first_us;
            out.push_back(r);
        }
        if (!c.done())
            throw codec_error(codec_errc::malformed_payload,
                              "flow_codec: trailing bytes in frame payload");
    } catch (const io::wire_error& e) {
        // The wire layer reports underruns/overlong varints generically;
        // at this boundary they all mean one thing: a checksummed payload
        // whose records do not decode.
        throw codec_error(codec_errc::malformed_payload,
                          std::string("flow_codec: malformed frame payload (") +
                              e.what() + ")");
    }
}

}  // namespace detail

flow_codec_writer::flow_codec_writer(std::ostream& out, codec_options opts)
    : out_(&out), opts_(opts) {
    if (opts_.records_per_frame == 0)
        throw std::invalid_argument(
            "flow_codec_writer: records_per_frame must be > 0");
    std::vector<std::uint8_t> header;
    header.reserve(kFileHeaderBytes);
    put_u32(header, codec_magic);
    put_u16(header, codec_version);
    put_u16(header, 0);  // flags
    write_bytes(*out_, header);
    stats_.wire_bytes += header.size();
    pending_.reserve(opts_.records_per_frame);
}

void flow_codec_writer::add(const flow::flow_record& r) {
    pending_.push_back(r);
    if (pending_.size() >= opts_.records_per_frame) flush_frame();
}

void flow_codec_writer::add(std::span<const flow::flow_record> rs) {
    for (const auto& r : rs) add(r);
}

void flow_codec_writer::flush_frame() {
    if (pending_.empty()) return;
    const std::uint64_t base_us = pending_.front().first_us;
    payload_.clear();
    std::uint64_t prev = base_us;
    for (const auto& r : pending_) detail::encode_record(r, prev, payload_);

    std::vector<std::uint8_t> header;
    header.reserve(kFrameHeaderBytes);
    put_u32(header, static_cast<std::uint32_t>(pending_.size()));
    put_u32(header, static_cast<std::uint32_t>(payload_.size()));
    put_u64(header, base_us);
    put_u64(header, io::fnv1a64(payload_));
    write_bytes(*out_, header);
    write_bytes(*out_, payload_);

    stats_.records += pending_.size();
    stats_.frames += 1;
    stats_.payload_bytes += payload_.size();
    stats_.wire_bytes += header.size() + payload_.size();
    pending_.clear();
}

void flow_codec_writer::finish() {
    flush_frame();
    out_->flush();
    if (!*out_)
        throw codec_error(codec_errc::write_failure, "flow_codec: flush failed");
}

flow_codec_reader::flow_codec_reader(std::istream& in, codec_read_options opts)
    : in_(&in), opts_(opts) {
    std::uint8_t header[kFileHeaderBytes];
    in_->read(reinterpret_cast<char*>(header), kFileHeaderBytes);
    if (in_->gcount() != static_cast<std::streamsize>(kFileHeaderBytes))
        throw codec_error(codec_errc::truncated_header,
                          "flow_codec: truncated file header");
    io::wire_reader c({header, kFileHeaderBytes}, "flow_codec");
    if (c.u32() != codec_magic)
        throw codec_error(codec_errc::bad_magic, "flow_codec: bad magic");
    const std::uint16_t version = c.u16();
    if (version != codec_version)
        throw codec_error(codec_errc::unsupported_version,
                          "flow_codec: unsupported version " +
                              std::to_string(version));
    stats_.wire_bytes += kFileHeaderBytes;
}

// Pull up to n bytes, draining resync residue before the stream. The
// common path (no residue) is one predictable branch on top of the
// plain istream read the pre-quarantine reader did.
std::size_t flow_codec_reader::read_some(std::uint8_t* dest, std::size_t n) {
    std::size_t got = 0;
    if (window_pos_ < window_.size()) {
        const std::size_t take = std::min(n, window_.size() - window_pos_);
        std::memcpy(dest, window_.data() + window_pos_, take);
        window_pos_ += take;
        got = take;
        if (window_pos_ == window_.size()) {
            window_.clear();
            window_pos_ = 0;
        }
    }
    if (got < n) {
        in_->read(reinterpret_cast<char*>(dest) + got,
                  static_cast<std::streamsize>(n - got));
        got += static_cast<std::size_t>(in_->gcount());
    }
    return got;
}

// Grow window_ to at least `need` bytes if the stream allows; returns
// the bytes available. Only called during resync (window_pos_ == 0).
std::size_t flow_codec_reader::window_fill(std::size_t need) {
    while (window_.size() < need && in_->good()) {
        const std::size_t old = window_.size();
        const std::size_t chunk = std::max<std::size_t>(4096, need - old);
        window_.resize(old + chunk);
        in_->read(reinterpret_cast<char*>(window_.data() + old),
                  static_cast<std::streamsize>(chunk));
        window_.resize(old + static_cast<std::size_t>(in_->gcount()));
        if (in_->gcount() == 0) break;
    }
    return window_.size();
}

void flow_codec_reader::budget_note(bool corrupt) {
    if (opts_.on_corrupt != corrupt_policy::quarantine ||
        opts_.budget_window_frames == 0)
        return;
    if (budget_ring_.empty()) budget_ring_.assign(opts_.budget_window_frames, 0);
    budget_corrupt_ -= budget_ring_[budget_pos_];
    budget_ring_[budget_pos_] = corrupt ? 1 : 0;
    budget_corrupt_ += budget_ring_[budget_pos_];
    budget_pos_ = (budget_pos_ + 1) % budget_ring_.size();
    if (corrupt && budget_corrupt_ > opts_.budget_max_corrupt)
        throw codec_error(
            codec_errc::error_budget_exceeded,
            "flow_codec: corrupt-frame error budget exceeded (" +
                std::to_string(budget_corrupt_) + " corrupt in last " +
                std::to_string(budget_ring_.size()) + " frames)");
}

// Boundary lost: slide byte-by-byte over `bad_prefix` + the rest of the
// stream until a candidate frame's envelope, payload checksum, and
// record decode all pass. Returns true with the recovered frame in
// `out`, false when the stream ends first.
bool flow_codec_reader::resync(std::span<const std::uint8_t> bad_prefix,
                               std::vector<flow::flow_record>& out) {
    ++qstats_.frames_quarantined;  // the region being abandoned
    budget_note(true);             // may throw error_budget_exceeded
    // Seed the scan window with bytes already pulled off the stream; any
    // residue from a previous resync logically follows the bad prefix.
    std::vector<std::uint8_t> scan;
    scan.reserve(bad_prefix.size() + (window_.size() - window_pos_));
    scan.insert(scan.end(), bad_prefix.begin(), bad_prefix.end());
    scan.insert(scan.end(), window_.begin() + static_cast<std::ptrdiff_t>(
                                                  window_pos_),
                window_.end());
    window_ = std::move(scan);
    window_pos_ = 0;

    std::size_t pos = 1;  // offset 0 is the known-bad boundary
    for (;;) {
        // Rejected offsets can never become boundaries again, so a long
        // garbage run is discarded in slabs instead of held in memory.
        if (pos >= (std::size_t{1} << 16)) {
            qstats_.resync_bytes_skipped += pos;
            window_.erase(window_.begin(),
                          window_.begin() + static_cast<std::ptrdiff_t>(pos));
            pos = 0;
        }
        if (window_fill(pos + kFrameHeaderBytes) < pos + kFrameHeaderBytes) {
            // Stream exhausted without finding a boundary.
            qstats_.resync_bytes_skipped += window_.size();
            window_.clear();
            window_pos_ = 0;
            return false;
        }
        const frame_header fh = parse_frame_header(window_.data() + pos);
        const auto count = static_cast<std::uint64_t>(fh.record_count);
        const auto payload = static_cast<std::uint64_t>(fh.payload_bytes);
        // Stricter than the main-path envelope: empty frames are never
        // written, and a garbage header claiming a giant payload is not
        // worth buffering just to fail its checksum.
        if (count < 1 || payload < count * kMinRecordEncoding ||
            payload > count * kMaxRecordEncoding ||
            payload > opts_.resync_max_payload_bytes) {
            ++pos;
            continue;
        }
        const std::size_t need =
            pos + kFrameHeaderBytes + static_cast<std::size_t>(payload);
        if (window_fill(need) < need) {
            ++pos;
            continue;
        }
        const std::span<const std::uint8_t> pl(
            window_.data() + pos + kFrameHeaderBytes,
            static_cast<std::size_t>(payload));
        if (io::fnv1a64(pl) != fh.checksum) {
            ++pos;
            continue;
        }
        out.clear();
        out.reserve(fh.record_count);
        try {
            detail::decode_payload(pl, fh.record_count, fh.base_us, out);
        } catch (const codec_error&) {
            out.clear();
            ++pos;
            continue;
        }
        ++qstats_.resyncs;
        qstats_.resync_bytes_skipped += pos;
        window_pos_ = need;  // residue (if any) feeds subsequent reads
        if (window_pos_ == window_.size()) {
            window_.clear();
            window_pos_ = 0;
        }
        stats_.records += fh.record_count;
        stats_.frames += 1;
        stats_.payload_bytes += fh.payload_bytes;
        stats_.wire_bytes += kFrameHeaderBytes + fh.payload_bytes;
        budget_note(false);
        return true;
    }
}

bool flow_codec_reader::next_frame(std::vector<flow::flow_record>& out) {
    const bool q = opts_.on_corrupt == corrupt_policy::quarantine;
    for (;;) {
        std::uint8_t header[kFrameHeaderBytes];
        const std::size_t got = read_some(header, kFrameHeaderBytes);
        if (got == 0 && in_->eof() && window_.empty()) return false;  // clean end
        if (got != kFrameHeaderBytes) {
            if (!q)
                throw codec_error(codec_errc::truncated_header,
                                  "flow_codec: truncated frame header");
            // A torn tail shorter than a header: nothing to resync into.
            ++qstats_.frames_quarantined;
            qstats_.resync_bytes_skipped += got;
            budget_note(true);
            return false;
        }

        const frame_header fh = parse_frame_header(header);
        if (!envelope_ok(fh)) {
            if (!q)
                throw codec_error(codec_errc::implausible_frame,
                                  "flow_codec: implausible frame header");
            if (resync({header, kFrameHeaderBytes}, out)) return true;
            return false;
        }

        buf_.resize(fh.payload_bytes);
        const std::size_t pgot = read_some(buf_.data(), fh.payload_bytes);
        if (pgot != fh.payload_bytes) {
            if (!q)
                throw codec_error(codec_errc::truncated_payload,
                                  "flow_codec: truncated frame payload");
            std::vector<std::uint8_t> bad;
            bad.reserve(kFrameHeaderBytes + pgot);
            bad.insert(bad.end(), header, header + kFrameHeaderBytes);
            bad.insert(bad.end(), buf_.begin(),
                       buf_.begin() + static_cast<std::ptrdiff_t>(pgot));
            if (resync(bad, out)) return true;
            return false;
        }

        if (io::fnv1a64(buf_) != fh.checksum) {
            if (!q)
                throw codec_error(codec_errc::checksum_mismatch,
                                  "flow_codec: frame checksum mismatch");
            // Envelope passed, payload present: the boundary is trusted,
            // so exactly this frame is lost and the next starts here.
            ++qstats_.frames_quarantined;
            qstats_.records_lost_corrupt += fh.record_count;
            budget_note(true);
            continue;
        }

        out.clear();
        out.reserve(fh.record_count);
        try {
            detail::decode_payload(buf_, fh.record_count, fh.base_us, out);
        } catch (const codec_error&) {
            if (!q) throw;
            ++qstats_.frames_quarantined;
            qstats_.records_lost_corrupt += fh.record_count;
            out.clear();
            budget_note(true);
            continue;
        }

        stats_.records += fh.record_count;
        stats_.frames += 1;
        stats_.payload_bytes += fh.payload_bytes;
        stats_.wire_bytes += kFrameHeaderBytes + fh.payload_bytes;
        budget_note(false);
        return true;
    }
}

std::vector<std::uint8_t> encode_records(
    std::span<const flow::flow_record> records, codec_options opts) {
    std::ostringstream os;
    flow_codec_writer w(os, opts);
    w.add(records);
    w.finish();
    const std::string s = os.str();
    return {s.begin(), s.end()};
}

std::vector<flow::flow_record> decode_records(
    std::span<const std::uint8_t> bytes, codec_read_options opts) {
    std::istringstream is(
        std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    flow_codec_reader r(is, opts);
    std::vector<flow::flow_record> out, frame;
    while (r.next_frame(frame)) out.insert(out.end(), frame.begin(), frame.end());
    return out;
}

}  // namespace tfd::stream
