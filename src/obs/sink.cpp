#include "obs/sink.h"

#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>
#include <system_error>

#include "obs/metrics.h"

namespace tfd::obs {

// type_of() maps variant index -> event_type by value; keep the two
// declarations in lockstep.
static_assert(std::is_same_v<std::variant_alternative_t<0, event_data>,
                             anomaly_data>);
static_assert(std::is_same_v<std::variant_alternative_t<6, event_data>,
                             backpressure_data>);
static_assert(std::is_same_v<std::variant_alternative_t<7, event_data>,
                             drift_data>);
static_assert(std::is_same_v<std::variant_alternative_t<8, event_data>,
                             recalibrated_data>);

void memory_sink::emit(const event& e, std::string_view jsonl_line) {
    std::lock_guard lock(mu_);
    events_.push_back(e);
    lines_.emplace_back(jsonl_line);
}

std::vector<event> memory_sink::events() const {
    std::lock_guard lock(mu_);
    return events_;
}

std::vector<std::string> memory_sink::lines() const {
    std::lock_guard lock(mu_);
    return lines_;
}

std::size_t memory_sink::count() const {
    std::lock_guard lock(mu_);
    return events_.size();
}

std::vector<event> memory_sink::events_of(event_type t) const {
    std::lock_guard lock(mu_);
    std::vector<event> out;
    for (const event& e : events_)
        if (type_of(e) == t) out.push_back(e);
    return out;
}

file_sink::file_sink(const std::string& path)
    : out_(path, std::ios::app) {
    if (!out_)
        throw std::system_error(errno, std::generic_category(),
                                "file_sink: cannot open " + path);
}

void file_sink::emit(const event&, std::string_view jsonl_line) {
    if (!out_) {
        ++dropped_;
        return;
    }
    out_ << jsonl_line << '\n';
    out_.flush();
    if (!out_) ++dropped_;
}

std::uint64_t next_event_seq(const std::string& path) {
    // The envelope leads every line ({"v":1,"seq":N,...}), and no payload
    // key is "seq", so the first match on a line is the envelope's.
    constexpr std::string_view key = "\"seq\":";
    std::ifstream in(path);
    std::uint64_t last = 0;
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t at = line.find(key);
        if (at == std::string::npos) continue;
        const char* first = line.data() + at + key.size();
        std::uint64_t seq = 0;
        const auto [end, ec] =
            std::from_chars(first, line.data() + line.size(), seq);
        if (ec == std::errc{} && end != first) last = seq;
    }
    return last + 1;
}

void ring_sink::emit(const event&, std::string_view jsonl_line) {
    std::lock_guard lock(mu_);
    lines_.emplace_back(jsonl_line);
    if (lines_.size() > capacity_) lines_.pop_front();
    ++total_;
}

std::vector<std::string> ring_sink::recent() const {
    std::lock_guard lock(mu_);
    return {lines_.begin(), lines_.end()};
}

std::uint64_t ring_sink::total_emitted() const {
    std::lock_guard lock(mu_);
    return total_;
}

tcp_sink::tcp_sink(const std::string& host, std::uint16_t port,
                   std::uint64_t reconnect_cooldown_emits)
    : host_(host),
      service_(std::to_string(port)),
      cooldown_(reconnect_cooldown_emits == 0 ? 1 : reconnect_cooldown_emits) {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    const int rc = getaddrinfo(host_.c_str(), service_.c_str(), &hints, &res);
    if (rc != 0)
        throw std::system_error(
            std::make_error_code(std::errc::host_unreachable),
            "tcp_sink: cannot resolve " + host_ + ": " + gai_strerror(rc));
    int fd = -1;
    int err = ECONNREFUSED;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) {
            err = errno;
            continue;
        }
        if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        err = errno;
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0)
        throw std::system_error(err, std::generic_category(),
                                "tcp_sink: cannot connect to " + host_ + ":" +
                                    service_);
    fd_ = fd;
}

tcp_sink::~tcp_sink() {
    if (fd_ >= 0) close(fd_);
}

int tcp_sink::try_connect() noexcept {
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo* res = nullptr;
    if (getaddrinfo(host_.c_str(), service_.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0) continue;
        if (connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
        close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    return fd;
}

void tcp_sink::emit(const event&, std::string_view jsonl_line) {
    if (fd_ < 0) {
        // Disconnected: retry at most once per cooldown window. The
        // line that triggers a successful retry is delivered; every
        // line before it is counted lost.
        if (++emits_since_loss_ >= cooldown_) {
            emits_since_loss_ = 0;
            fd_ = try_connect();
            if (fd_ >= 0) ++reconnects_;
        }
        if (fd_ < 0) {
            ++dropped_;
            return;
        }
    }
    std::string line(jsonl_line);
    line += '\n';
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n = send(fd_, line.data() + off, line.size() - off,
                               MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR) continue;
            // Peer gone: drop this line, go into reconnect cooldown.
            close(fd_);
            fd_ = -1;
            emits_since_loss_ = 0;
            ++dropped_;
            return;
        }
        off += static_cast<std::size_t>(n);
    }
}

std::uint64_t event_emitter::emit(std::uint64_t bin, event_data data) {
    event e;
    e.seq = next_seq_++;
    e.ts_unix_ms = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
    e.bin = bin;
    e.data = std::move(data);
    ++emitted_;
    if (counter_) counter_->inc();
    if (sink_) sink_->emit(e, to_jsonl(e));
    return e.seq;
}

}  // namespace tfd::obs
