#include "io/fault.h"

namespace tfd::io {

namespace {

// splitmix64 — the repo's standard cheap deterministic mixer (the
// eigensolver's inverse-iteration starts use the same recipe). Each
// decision hashes (seed, site, index) through it so decisions are
// independent across sites and indices but identical across runs.
std::uint64_t mix64(std::uint64_t x) noexcept {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

std::uint64_t decision_hash(std::uint64_t seed, fault_site site,
                            std::uint64_t index) noexcept {
    return mix64(mix64(seed ^ (static_cast<std::uint64_t>(site) *
                               0xD6E8FEB86659FD93ull)) ^
                 index);
}

// Top 53 bits -> uniform double in [0, 1).
double to_unit(std::uint64_t h) noexcept {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool fault_injector::fires(fault_site site, std::uint64_t index,
                           double rate) const noexcept {
    if (rate <= 0.0) return false;
    return to_unit(decision_hash(plan_.seed, site, index)) < rate;
}

std::uint64_t fault_injector::corrupt(std::span<std::uint8_t> bytes,
                                      std::uint64_t base_offset) {
    if (plan_.bit_flip_per_byte <= 0.0) return 0;
    std::uint64_t flipped = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        const std::uint64_t off = base_offset + i;
        const std::uint64_t h =
            decision_hash(plan_.seed, fault_site::corrupt_byte, off);
        if (to_unit(h) < plan_.bit_flip_per_byte) {
            // Which bit flips is drawn from the same hash, so a replay
            // reproduces the corruption bit for bit.
            bytes[i] ^= static_cast<std::uint8_t>(1u << (h & 7));
            ++flipped;
        }
    }
    stats_.bits_flipped += flipped;
    return flipped;
}

bool fault_injector::should_fail_write(std::uint64_t attempt) {
    if (!fires(fault_site::write_failure, attempt,
               plan_.write_failure_per_call))
        return false;
    ++stats_.writes_failed;
    return true;
}

bool fault_injector::should_truncate_at(std::uint64_t offset) {
    if (!fires(fault_site::read_truncate, offset, plan_.truncate_per_byte))
        return false;
    ++stats_.reads_truncated;
    return true;
}

std::size_t fault_injector::short_read_len(std::uint64_t call_index,
                                           std::size_t n) {
    if (n <= 1 ||
        !fires(fault_site::short_read, call_index, plan_.short_read_per_call))
        return n;
    ++stats_.reads_shortened;
    const std::uint64_t h =
        decision_hash(plan_.seed, fault_site::short_read, ~call_index);
    return 1 + static_cast<std::size_t>(h % (n - 1));
}

std::streambuf::int_type fault_streambuf::underflow() {
    if (gptr() < egptr())
        return traits_type::to_int_type(*gptr());
    if (truncated_) return traits_type::eof();
    offset_ += static_cast<std::uint64_t>(egptr() - eback());

    std::size_t want = sizeof(buf_);
    want = faults_->short_read_len(read_calls_++, want);
    const std::streamsize got =
        inner_->sgetn(buf_, static_cast<std::streamsize>(want));
    if (got <= 0) return traits_type::eof();

    std::size_t n = static_cast<std::size_t>(got);
    // Truncation: the stream ends at the first offset whose decision
    // fires; bytes past it are never delivered.
    for (std::size_t i = 0; i < n; ++i) {
        if (faults_->should_truncate_at(offset_ + i)) {
            truncated_ = true;
            n = i;
            break;
        }
    }
    if (n == 0) return traits_type::eof();
    faults_->corrupt(
        {reinterpret_cast<std::uint8_t*>(buf_), n}, offset_);
    setg(buf_, buf_, buf_ + n);
    return traits_type::to_int_type(*gptr());
}

}  // namespace tfd::io
