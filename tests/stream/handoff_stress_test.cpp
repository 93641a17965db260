// Thread stress for the hand-off between stream_pipeline::run()'s decode
// thread and its consuming thread: a producer and a consumer pass 100k
// resolved frames through a bounded_queue of capacity 1 to 4 and a
// frame_ring of capacity + 2, wired the way run() wires them. Each frame
// is stamped with its number in every record and OD index, so the
// consumer sees whether frames arrive in order and whether a buffer it
// still holds was handed out again. Run it under the dev-tsan preset as
// well: there a ring or queue that shares a buffer between the threads
// is also a reported race.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "stream/pipeline.h"

using namespace tfd;
using namespace tfd::stream;

namespace {

constexpr std::uint64_t kFrames = 100'000;

/// 1 to 3 records per frame, so recycled buffers shrink and regrow.
std::size_t frame_size(std::uint64_t n) { return 1 + n % 3; }

/// Fill `f` as frame `n`: every record and OD index carries n.
void stamp(resolved_frame& f, std::uint64_t n) {
    for (std::size_t k = 0; k < frame_size(n); ++k) {
        flow::flow_record r;
        r.first_us = n;
        f.records.push_back(r);
        f.ods.push_back(static_cast<int>(n));
    }
}

/// Whether `f` holds exactly what stamp(f, n) wrote.
bool is_stamped(const resolved_frame& f, std::uint64_t n) {
    if (f.records.size() != frame_size(n) || f.ods.size() != frame_size(n))
        return false;
    for (std::size_t k = 0; k < frame_size(n); ++k)
        if (f.records[k].first_us != n || f.ods[k] != static_cast<int>(n))
            return false;
    return true;
}

}  // namespace

TEST(FrameHandoffStressTest, QueueAndRingKeepOrderAndOwnership) {
    for (std::size_t capacity = 1; capacity <= 4; ++capacity) {
        SCOPED_TRACE(testing::Message() << "queue capacity " << capacity);
        bounded_queue<resolved_frame> queue(capacity);
        frame_ring ring(capacity + 2);
        std::uint64_t unclean_acquires = 0;  // producer-only
        std::thread producer([&] {
            for (std::uint64_t n = 0; n < kFrames; ++n) {
                resolved_frame f = ring.acquire();
                if (!f.records.empty() || !f.ods.empty()) ++unclean_acquires;
                stamp(f, n);
                if (!queue.push(std::move(f))) break;
            }
            queue.close();
        });

        std::uint64_t next = 0, out_of_order = 0, restamped = 0;
        while (auto f = queue.pop()) {
            if (f->records.empty() || f->records.front().first_us != next ||
                !is_stamped(*f, next))
                ++out_of_order;
            // Hold the buffer while the producer runs on: had the ring
            // handed it out again, the producer would restamp it now.
            std::this_thread::yield();
            if (!is_stamped(*f, next)) ++restamped;
            ring.release(std::move(*f));
            ++next;
        }
        producer.join();

        EXPECT_EQ(next, kFrames);
        EXPECT_EQ(out_of_order, 0u);
        EXPECT_EQ(restamped, 0u);
        EXPECT_EQ(unclean_acquires, 0u);
        // At most capacity + 2 buffers circulate (queued, held by the
        // producer, held by the consumer), so every other acquire reuses.
        EXPECT_GE(ring.reuses(), kFrames - (capacity + 2));
        EXPECT_LE(queue.high_watermark(), capacity);
    }
}
