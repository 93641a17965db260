// Unit tests for flow capture and OD aggregation/binning.
#include "flow/od_aggregator.h"

#include <gtest/gtest.h>

#include "flow/flow_capture.h"
#include "net/topology.h"

using namespace tfd::flow;
using tfd::net::topology;

namespace {

packet make_packet(std::uint64_t t, tfd::net::ipv4 src, tfd::net::ipv4 dst,
                   std::uint16_t sp, std::uint16_t dp, std::uint32_t bytes) {
    packet p;
    p.time_us = t;
    p.src = src;
    p.dst = dst;
    p.src_port = sp;
    p.dst_port = dp;
    p.bytes = bytes;
    return p;
}

}  // namespace

TEST(FlowCaptureTest, AggregatesSameFlow) {
    flow_capture cap;
    const auto src = tfd::net::parse_ipv4("10.0.0.1");
    const auto dst = tfd::net::parse_ipv4("11.0.0.2");
    cap.add_packet(make_packet(100, src, dst, 1000, 80, 500));
    cap.add_packet(make_packet(200, src, dst, 1000, 80, 700));
    cap.add_packet(make_packet(50, src, dst, 1000, 80, 100));
    EXPECT_EQ(cap.active_flows(), 1u);
    auto recs = cap.flush();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].packets, 3u);
    EXPECT_EQ(recs[0].bytes, 1300u);
    EXPECT_EQ(recs[0].first_us, 50u);
    EXPECT_EQ(recs[0].last_us, 200u);
    EXPECT_TRUE(cap.flush().empty());  // flush clears
}

TEST(FlowCaptureTest, DistinctTuplesSeparateFlows) {
    flow_capture cap;
    const auto src = tfd::net::parse_ipv4("10.0.0.1");
    const auto dst = tfd::net::parse_ipv4("11.0.0.2");
    cap.add_packet(make_packet(1, src, dst, 1000, 80, 100));
    cap.add_packet(make_packet(2, src, dst, 1001, 80, 100));  // diff sport
    cap.add_packet(make_packet(3, src, dst, 1000, 443, 100)); // diff dport
    packet p = make_packet(4, src, dst, 1000, 80, 100);
    p.protocol = 17;                                          // diff proto
    cap.add_packet(p);
    EXPECT_EQ(cap.active_flows(), 4u);
}

TEST(FlowCaptureTest, SamplingReducesRecords) {
    capture_options opts;
    opts.sampling_rate = 10;
    flow_capture cap(opts);
    const auto src = tfd::net::parse_ipv4("10.0.0.1");
    // 100 distinct single-packet flows: exactly 10 survive 1-in-10.
    for (int i = 0; i < 100; ++i)
        cap.add_packet(make_packet(i, src,
                                   tfd::net::ipv4{0x0B000000u + i}, 1000, 80,
                                   100));
    EXPECT_EQ(cap.packets_offered(), 100u);
    EXPECT_EQ(cap.packets_selected(), 10u);
    EXPECT_EQ(cap.flush().size(), 10u);
}

TEST(FlowCaptureTest, StampsIngressPop) {
    capture_options opts;
    opts.ingress_pop = 7;
    flow_capture cap(opts);
    cap.add_packet(make_packet(1, tfd::net::parse_ipv4("10.0.0.1"),
                               tfd::net::parse_ipv4("11.0.0.1"), 1, 2, 3));
    auto recs = cap.flush();
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].ingress_pop, 7);
}

TEST(FlowCaptureTest, FlushOrderDeterministic) {
    auto run = []() {
        flow_capture cap;
        for (int i = 99; i >= 0; --i)
            cap.add_packet(make_packet(i, tfd::net::ipv4{100u + i},
                                       tfd::net::ipv4{200u}, 5, 6, 7));
        return cap.flush();
    };
    auto a = run();
    auto b = run();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].key.src.value, b[i].key.src.value);
    // Sorted by first_us.
    for (std::size_t i = 1; i < a.size(); ++i)
        EXPECT_LE(a[i - 1].first_us, a[i].first_us);
}

TEST(BinIndexTest, FiveMinuteBins) {
    EXPECT_EQ(bin_index(0), 0u);
    EXPECT_EQ(bin_index(default_bin_us - 1), 0u);
    EXPECT_EQ(bin_index(default_bin_us), 1u);
    EXPECT_EQ(bin_index(10 * default_bin_us + 5), 10u);
}

TEST(OdResolverTest, ResolvesIngressEgress) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    flow_record r;
    r.ingress_pop = 2;
    r.key.dst = topo.address_in_pop(9, 1234);
    auto od = res.resolve(r);
    ASSERT_TRUE(od.has_value());
    EXPECT_EQ(*od, topo.od_index(2, 9));
}

TEST(OdResolverTest, UnknownIngressOrEgressFails) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    flow_record r;
    r.ingress_pop = -1;
    r.key.dst = topo.address_in_pop(0, 1);
    EXPECT_FALSE(res.resolve(r).has_value());

    r.ingress_pop = 0;
    r.key.dst = tfd::net::parse_ipv4("200.0.0.1");  // external
    EXPECT_FALSE(res.resolve(r).has_value());
}

TEST(BinRecordsTest, BinsAndCountsDroppedPerReason) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    std::vector<flow_record> recs(4);
    recs[0].ingress_pop = 0;
    recs[0].key.dst = topo.address_in_pop(1, 5);
    recs[0].first_us = 0;
    recs[1].ingress_pop = 0;
    recs[1].key.dst = topo.address_in_pop(2, 5);
    recs[1].first_us = default_bin_us * 3 + 17;
    recs[2].ingress_pop = 0;
    recs[2].key.dst = tfd::net::parse_ipv4("250.0.0.1");  // off-net egress
    recs[3].ingress_pop = -1;                             // unknown ingress
    recs[3].key.dst = topo.address_in_pop(1, 5);

    drop_counts dropped;
    auto binned = bin_records(res, recs, default_bin_us, &dropped);
    EXPECT_EQ(dropped.unresolvable_egress, 1u);
    EXPECT_EQ(dropped.unknown_ingress, 1u);
    EXPECT_EQ(dropped.total(), 2u);
    ASSERT_EQ(binned.size(), 2u);
    EXPECT_EQ(binned[0].bin, 0u);
    EXPECT_EQ(binned[0].od, topo.od_index(0, 1));
    EXPECT_EQ(binned[1].bin, 3u);
    EXPECT_EQ(binned[1].od, topo.od_index(0, 2));
}

TEST(BinRecordsTest, AcceptsSpanAndSubrange) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    std::vector<flow_record> recs(3);
    for (auto& r : recs) {
        r.ingress_pop = 1;
        r.key.dst = topo.address_in_pop(4, 9);
    }
    // A subrange without copying into a fresh vector.
    auto binned = bin_records(res, std::span(recs).subspan(1));
    EXPECT_EQ(binned.size(), 2u);
}

TEST(OdResolverTest, BatchResolveReportsReasons) {
    const auto topo = topology::abilene();
    od_resolver res(topo);
    std::vector<flow_record> recs(3);
    recs[0].ingress_pop = 3;
    recs[0].key.dst = topo.address_in_pop(7, 1);
    recs[1].ingress_pop = 99;  // out of range
    recs[1].key.dst = topo.address_in_pop(7, 1);
    recs[2].ingress_pop = 3;
    recs[2].key.dst = tfd::net::parse_ipv4("240.1.2.3");

    std::vector<int> ods;
    drop_counts dropped;
    const auto resolved = res.resolve_batch(recs, ods, &dropped);
    EXPECT_EQ(resolved, 1u);
    ASSERT_EQ(ods.size(), 3u);
    EXPECT_EQ(ods[0], topo.od_index(3, 7));
    EXPECT_EQ(ods[1], -1);  // unknown ingress
    EXPECT_EQ(ods[2], -2);  // unresolvable egress
    EXPECT_EQ(dropped.unknown_ingress, 1u);
    EXPECT_EQ(dropped.unresolvable_egress, 1u);
    // The codes alone recover the same tallies.
    drop_counts from_codes;
    from_codes.count_codes(ods);
    EXPECT_EQ(from_codes.unknown_ingress, 1u);
    EXPECT_EQ(from_codes.unresolvable_egress, 1u);
}
