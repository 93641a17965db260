// The structured event stream: JSON encoding invariants, the JSONL
// schema of every event type, emitter sequencing, and sink behaviour
// (memory, ring, tee, file), and the seq that continues a file log.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/event.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/sink.h"

using namespace tfd::obs;

namespace {

std::string esc(const std::string& s) {
    std::string out;
    append_json_string(out, s);
    return out;
}

std::string num(double v) {
    std::string out;
    append_json_double(out, v);
    return out;
}

}  // namespace

TEST(ObsJson, EscapesControlAndSpecialCharacters) {
    EXPECT_EQ(esc("plain"), "\"plain\"");
    EXPECT_EQ(esc("a\"b"), "\"a\\\"b\"");
    EXPECT_EQ(esc("a\\b"), "\"a\\\\b\"");
    EXPECT_EQ(esc("a\nb\tc"), "\"a\\nb\\tc\"");
    EXPECT_EQ(esc(std::string("a\x01z")), "\"a\\u0001z\"");
}

TEST(ObsJson, DoublesRoundTripShortest) {
    // std::to_chars shortest form: parses back bit-exactly, and simple
    // values stay human-readable.
    for (double v : {0.0, 1.0, -2.5, 0.1, 1e-9, 123456.789, 3.0e300}) {
        const std::string s = num(v);
        EXPECT_EQ(std::stod(s), v) << s;
    }
    EXPECT_EQ(num(std::nan("")), "null");
    EXPECT_EQ(num(INFINITY), "null");
}

TEST(ObsJson, WriterCommasAndNesting) {
    json_writer w;
    w.begin_object();
    w.key("a");
    w.value(std::uint64_t{1});
    w.key("b");
    w.begin_array();
    w.value("x");
    w.value(std::int64_t{-2});
    w.end_array();
    w.end_object();
    EXPECT_EQ(w.take(), "{\"a\":1,\"b\":[\"x\",-2]}");
}

TEST(ObsEvent, TypeNamesAndVariantOrderAgree) {
    event e;
    e.data = anomaly_data{};
    EXPECT_EQ(type_of(e), event_type::anomaly);
    e.data = bin_closed_data{};
    EXPECT_EQ(type_of(e), event_type::bin_closed);
    e.data = checkpoint_saved_data{};
    EXPECT_EQ(type_of(e), event_type::checkpoint_saved);
    e.data = checkpoint_restored_data{};
    EXPECT_EQ(type_of(e), event_type::checkpoint_restored);
    e.data = quarantine_data{};
    EXPECT_EQ(type_of(e), event_type::quarantine);
    e.data = time_base_reset_data{};
    EXPECT_EQ(type_of(e), event_type::time_base_reset);
    e.data = backpressure_data{};
    EXPECT_EQ(type_of(e), event_type::backpressure);
    EXPECT_STREQ(event_type_name(event_type::anomaly), "anomaly");
    EXPECT_STREQ(event_type_name(event_type::backpressure), "backpressure");
}

TEST(ObsEvent, BinClosedJsonlShape) {
    event e;
    e.seq = 7;
    e.ts_unix_ms = 1000;
    e.bin = 42;
    e.data = bin_closed_data{.records = 11, .empty = false, .scored = true,
                             .anomalous = false, .close_ns = 1234};
    const std::string line = to_jsonl(e);
    EXPECT_EQ(line,
              "{\"v\":1,\"seq\":7,\"ts_ms\":1000,\"type\":\"bin_closed\","
              "\"bin\":42,\"records\":11,\"empty\":false,\"scored\":true,"
              "\"anomalous\":false,\"close_ns\":1234}");
}

TEST(ObsEvent, AnomalyJsonlCarriesFlowsAndEntropyDeltas) {
    anomaly_data an;
    an.od = 5;
    an.origin = "SNVA";
    an.dest = "CHIN";
    an.spe = 2.5;
    an.threshold = 1.25;
    an.ratio = 2.0;
    an.severity = "major";
    an.h_tilde = {0.5, -0.5, 0.25, 0.0};
    anomaly_flow f;
    f.od = 5;
    f.magnitude = {1.0, 0.0, 0.0, 0.0};
    f.spe_after = 0.5;
    an.flows.push_back(f);
    event e;
    e.seq = 1;
    e.ts_unix_ms = 1;
    e.bin = 9;
    e.data = an;
    const std::string line = to_jsonl(e);
    EXPECT_NE(line.find("\"type\":\"anomaly\""), std::string::npos);
    EXPECT_NE(line.find("\"origin\":\"SNVA\""), std::string::npos);
    EXPECT_NE(line.find("\"h_tilde\":[0.5,-0.5,0.25,0]"), std::string::npos);
    EXPECT_NE(line.find("\"flows\":[{"), std::string::npos);
    EXPECT_NE(line.find("\"spe_after\":0.5"), std::string::npos);
    EXPECT_NE(line.find("\"severity\":\"major\""), std::string::npos);
}

TEST(ObsEvent, EmitterAssignsMonotoneSeqAndCounts) {
    memory_sink sink;
    event_emitter em(&sink, /*first_seq=*/10);
    counter c;
    em.count_into(&c);
    EXPECT_EQ(em.emit(1, event_data(bin_closed_data{})), 10u);
    EXPECT_EQ(em.emit(2, event_data(bin_closed_data{})), 11u);
    EXPECT_EQ(em.emitted(), 2u);
    EXPECT_EQ(c.value(), 2u);
    const auto events = sink.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].seq, 10u);
    EXPECT_EQ(events[1].seq, 11u);
    EXPECT_GE(events[1].ts_unix_ms, events[0].ts_unix_ms);
    EXPECT_GT(events[0].ts_unix_ms, 0u);
    // A null sink still counts.
    event_emitter nowhere(nullptr);
    EXPECT_EQ(nowhere.emit(0, event_data(quarantine_data{})), 1u);
    EXPECT_EQ(nowhere.emitted(), 1u);
}

TEST(ObsSink, RingKeepsNewestCapacityLines) {
    ring_sink ring(3);
    event_emitter em(&ring);
    for (int i = 0; i < 5; ++i)
        em.emit(static_cast<std::uint64_t>(i), event_data(bin_closed_data{}));
    EXPECT_EQ(ring.total_emitted(), 5u);
    const auto lines = ring.recent();
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_NE(lines.front().find("\"bin\":2"), std::string::npos);
    EXPECT_NE(lines.back().find("\"bin\":4"), std::string::npos);
}

TEST(ObsSink, TeeFansOutIdenticalBytes) {
    memory_sink a, b;
    tee_sink tee;
    tee.add(&a);
    tee.add(&b);
    event_emitter em(&tee);
    em.emit(3, event_data(time_base_reset_data{.from_bin = 1, .to_bin = 99}));
    ASSERT_EQ(a.count(), 1u);
    ASSERT_EQ(b.count(), 1u);
    EXPECT_EQ(a.lines()[0], b.lines()[0]);
    EXPECT_EQ(a.events_of(event_type::time_base_reset).size(), 1u);
}

TEST(ObsSink, FileSinkAppendsValidJsonl) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() /
                          ("tfd_obs_events_" + std::to_string(::getpid()) +
                           ".jsonl");
    fs::remove(path);
    {
        file_sink sink(path.string());
        event_emitter em(&sink);
        em.emit(1, event_data(bin_closed_data{.records = 5}));
        em.emit(2, event_data(quarantine_data{.frames = 1}));
        EXPECT_EQ(sink.dropped(), 0u);
    }
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"v\":1"), std::string::npos);
        ++n;
    }
    EXPECT_EQ(n, 2u);
    fs::remove(path);
    // An unopenable path throws at construction, not at emit time.
    EXPECT_THROW(file_sink("/nonexistent-dir-tfd/x.jsonl"),
                 std::system_error);
}

TEST(ObsSink, NextEventSeqContinuesAFileSinkLog) {
    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() /
                          ("tfd_obs_next_seq_" + std::to_string(::getpid()) +
                           ".jsonl");
    fs::remove(path);
    // Missing, then empty: a new log starts at 1.
    EXPECT_EQ(next_event_seq(path.string()), 1u);
    std::ofstream(path.string()).close();
    EXPECT_EQ(next_event_seq(path.string()), 1u);

    // A first process writes seqs 1..3; checkpoint_seq (a payload key
    // ending in "seq") must not be taken for the envelope's.
    {
        file_sink sink(path.string());
        event_emitter em(&sink, next_event_seq(path.string()));
        em.emit(1, event_data(bin_closed_data{.records = 5}));
        em.emit(2, event_data(checkpoint_saved_data{.path = "c", .seq = 40}));
        em.emit(2, event_data(bin_closed_data{.records = 6}));
    }
    EXPECT_EQ(next_event_seq(path.string()), 4u);

    // A restarted process appends from there, so the whole log stays
    // strictly increasing.
    {
        file_sink sink(path.string());
        event_emitter em(&sink, next_event_seq(path.string()));
        em.emit(2, event_data(bin_closed_data{.records = 6}));
    }
    std::ifstream in(path);
    std::string line;
    std::vector<std::uint64_t> seqs;
    while (std::getline(in, line)) {
        const std::size_t at = line.find("\"seq\":");
        ASSERT_NE(at, std::string::npos);
        seqs.push_back(std::stoull(line.substr(at + 6)));
    }
    EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 2, 3, 4}));
    EXPECT_EQ(next_event_seq(path.string()), 5u);
    fs::remove(path);
}

TEST(ObsEvent, DriftAndRecalibratedJsonlShape) {
    event e;
    e.seq = 3;
    e.ts_unix_ms = 500;
    e.bin = 64;
    e.data = drift_data{.ph = 7.25, .alarm_rate = 0.5, .relearn_bins = 24};
    EXPECT_EQ(type_of(e), event_type::drift);
    EXPECT_EQ(to_jsonl(e),
              "{\"v\":1,\"seq\":3,\"ts_ms\":500,\"type\":\"drift\","
              "\"bin\":64,\"ph\":7.25,\"alarm_rate\":0.5,"
              "\"relearn_bins\":24}");

    e.seq = 4;
    e.bin = 88;
    e.data = recalibrated_data{.threshold = 0.125, .bins_degraded = 24};
    EXPECT_EQ(type_of(e), event_type::recalibrated);
    EXPECT_EQ(to_jsonl(e),
              "{\"v\":1,\"seq\":4,\"ts_ms\":500,\"type\":\"recalibrated\","
              "\"bin\":88,\"threshold\":0.125,\"bins_degraded\":24}");
    EXPECT_STREQ(event_type_name(event_type::drift), "drift");
    EXPECT_STREQ(event_type_name(event_type::recalibrated), "recalibrated");
}

TEST(ObsEvent, AnomalyConfidenceIsAdditiveAtV1) {
    // confidence rides along inside schema v1: same version byte, new
    // field after the ones v1 consumers already know.
    anomaly_data an;
    an.severity = "warning";
    an.confidence = 0.25;
    event e;
    e.seq = 1;
    e.ts_unix_ms = 1;
    e.bin = 2;
    e.data = an;
    const std::string line = to_jsonl(e);
    EXPECT_NE(line.find("\"v\":1,"), std::string::npos);
    EXPECT_NE(line.find("\"suppressed\":false,\"confidence\":0.25"),
              std::string::npos);
}
