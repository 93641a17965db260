// Snapshot hooks of the stateful core types: feature histograms (flat
// table + incremental Σ n·log2 n accumulator), the fitted subspace
// model, and the online detector. The pinned contract everywhere is
// bit-identical resume: state saved mid-stream and restored into a
// fresh object must make every future output equal the uninterrupted
// object's, bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "core/histogram.h"
#include "core/online.h"
#include "core/subspace.h"
#include "io/wire.h"
#include "linalg/matrix.h"
#include "linalg/serialize.h"

using namespace tfd;
using namespace tfd::core;

namespace {

// Deterministic value stream (hand-rolled LCG: no rng dependency).
struct lcg {
    std::uint64_t s = 0x853c49e6748fea9bull;
    std::uint64_t next() {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return s >> 16;
    }
    double uniform() {
        return static_cast<double>(next() % 1000000) / 1000000.0;
    }
};

entropy_snapshot make_snapshot(std::size_t flows, lcg& gen) {
    entropy_snapshot s;
    for (auto& e : s.entropies) {
        e.resize(flows);
        for (double& v : e) v = 0.5 + gen.uniform();
    }
    return s;
}

}  // namespace

TEST(HistogramSnapshotTest, ResumedHistogramIsBitIdentical) {
    lcg gen;
    feature_histogram a;
    // Enough mutations to exercise the incremental accumulator and at
    // least one exact recompute (interval 4096).
    for (int i = 0; i < 6000; ++i)
        a.add(static_cast<std::uint32_t>(gen.next() % 700),
              1 + gen.next() % 9);

    io::wire_writer w;
    a.save(w);
    feature_histogram b;
    io::wire_reader r(w.data());
    b.load(r);
    r.expect_end();

    EXPECT_EQ(b.distinct(), a.distinct());
    EXPECT_EQ(b.total(), a.total());
    EXPECT_EQ(b.entropy_bits(), a.entropy_bits());
    EXPECT_EQ(b.normalized_entropy(), a.normalized_entropy());
    EXPECT_EQ(b.top(10), a.top(10));
    EXPECT_EQ(b.rank_counts(), a.rank_counts());

    // The resume contract: identical future updates (including the
    // accumulator's drift trajectory and recompute cadence).
    lcg ga = gen, gb = gen;
    for (int i = 0; i < 3000; ++i) {
        a.add(static_cast<std::uint32_t>(ga.next() % 900),
              1 + ga.next() % 9);
        b.add(static_cast<std::uint32_t>(gb.next() % 900),
              1 + gb.next() % 9);
        ASSERT_EQ(b.entropy_bits(), a.entropy_bits()) << "diverged at add " << i;
    }
}

TEST(HistogramSnapshotTest, SerializationIsCanonical) {
    // Two histograms with identical contents built in different orders
    // (different hash-table layouts) serialize to identical bytes.
    feature_histogram fwd, rev;
    for (int i = 0; i < 100; ++i)
        fwd.add(static_cast<std::uint32_t>(i), 2);
    for (int i = 99; i >= 0; --i)
        rev.add(static_cast<std::uint32_t>(i), 2);
    // Align the incremental-accumulator state exactly: same mutation
    // count, and each slot reached its value in one add.
    io::wire_writer wf, wr;
    fwd.save(wf);
    rev.save(wr);
    ASSERT_EQ(wf.data().size(), wr.data().size());
    EXPECT_TRUE(std::equal(wf.data().begin(), wf.data().end(),
                           wr.data().begin()));
}

TEST(HistogramSnapshotTest, SetRoundTripPreservesVolumeCounters) {
    flow::flow_record rec;
    rec.key.src.value = 42;
    rec.key.dst.value = 7;
    rec.key.src_port = 1000;
    rec.key.dst_port = 80;
    rec.packets = 5;
    rec.bytes = 1234;
    feature_histogram_set a;
    a.add_record(rec);
    rec.key.src_port = 2000;
    a.add_record(rec);

    io::wire_writer w;
    a.save(w);
    feature_histogram_set b;
    io::wire_reader r(w.data());
    b.load(r);
    r.expect_end();

    EXPECT_EQ(b.total_packets(), a.total_packets());
    EXPECT_EQ(b.total_bytes(), a.total_bytes());
    EXPECT_EQ(b.total_records(), a.total_records());
    EXPECT_EQ(b.entropies(), a.entropies());
}

TEST(HistogramSnapshotTest, CorruptPayloadFailsLoudly) {
    feature_histogram a;
    a.add(1, 2);
    io::wire_writer w;
    a.save(w);
    // Truncated payload.
    feature_histogram b;
    io::wire_reader cut(w.data().subspan(0, w.data().size() - 2));
    EXPECT_THROW(b.load(cut), io::wire_error);
    // A one-entry histogram whose count is `count`. Counts travel as
    // f64; only a whole number in [1, 2^53] is a packet count: a zero
    // would poison the open-addressing table, and the rest have no
    // exact integer value.
    const auto with_count = [](double count) {
        io::wire_writer bad;
        bad.varint(1);
        bad.varint(5);
        bad.f64(count);
        bad.f64(count);
        bad.f64(0.0);
        bad.varint(0);
        return bad;
    };
    for (const double count : {0.0, 0.5, 2.25, -1.0, -0.0, std::nan(""),
                               std::numeric_limits<double>::infinity(),
                               0x1p53 + 2.0, 1e300}) {
        const io::wire_writer bad = with_count(count);
        io::wire_reader br(bad.data());
        EXPECT_THROW(b.load(br), io::wire_error) << count;
    }
    for (const double count : {1.0, 0x1p53}) {
        const io::wire_writer good = with_count(count);
        io::wire_reader gr(good.data());
        b.load(gr);
        EXPECT_EQ(b.count_of(5), count);
    }
}

TEST(SubspaceSnapshotTest, RestoredModelScoresIdentically) {
    lcg gen;
    const std::size_t t = 40, n = 12;
    linalg::matrix x(t, n);
    for (std::size_t i = 0; i < t; ++i)
        for (std::size_t j = 0; j < n; ++j)
            x(i, j) = gen.uniform() + (j % 3 == 0 ? 2.0 * gen.uniform() : 0.0);
    const auto model = subspace_model::fit(x, {.normal_dims = 4});

    io::wire_writer w;
    model.save(w);
    subspace_model restored;
    io::wire_reader r(w.data());
    restored.load(r);
    r.expect_end();

    EXPECT_EQ(restored.normal_dims(), model.normal_dims());
    EXPECT_EQ(restored.dimension(), model.dimension());
    EXPECT_EQ(restored.q_threshold(0.999), model.q_threshold(0.999));
    std::vector<double> obs(n);
    for (int trial = 0; trial < 20; ++trial) {
        for (double& v : obs) v = 3.0 * gen.uniform();
        ASSERT_EQ(restored.spe(obs), model.spe(obs));
        ASSERT_EQ(restored.residual(obs), model.residual(obs));
    }
}

TEST(SubspaceSnapshotTest, PartialSpectrumFlagOtherThanOneFailsLoudly) {
    lcg gen;
    linalg::matrix x(30, 8);
    for (double& v : x.data()) v = gen.uniform();
    const auto model = subspace_model::fit(x, {.normal_dims = 3});
    io::wire_writer w;
    model.save(w);
    // The model's payload opens with its PCA, whose last byte is the flag.
    io::wire_writer pca_only;
    linalg::save(pca_only, model.pca());
    const std::size_t flag = pca_only.data().size() - 1;
    std::vector<std::uint8_t> bytes(w.data().begin(), w.data().end());
    ASSERT_EQ(bytes[flag], 1u);
    for (std::uint8_t bad : {0, 2}) {
        bytes[flag] = bad;
        subspace_model restored;
        io::wire_reader r(bytes);
        EXPECT_THROW(restored.load(r), io::wire_error) << int(bad);
    }
}

TEST(OnlineSnapshotTest, ResumedDetectorIsBitIdenticalAcrossRefitsAndEvictions) {
    const std::size_t flows = 6;
    online_options opts;
    opts.window = 10;
    opts.warmup = 4;
    opts.refit_interval = 3;
    opts.subspace.normal_dims = 3;

    // One continuous run vs. save-at-bin-14 + restore into a fresh
    // detector. 40 bins crosses warmup, several refits and window
    // evictions on each side of the cut.
    lcg gen;
    std::vector<entropy_snapshot> feed;
    for (int i = 0; i < 40; ++i) feed.push_back(make_snapshot(flows, gen));

    online_detector uninterrupted(flows, opts);
    std::vector<online_verdict> expect;
    for (const auto& s : feed) expect.push_back(uninterrupted.push(s));

    online_detector first(flows, opts);
    for (int i = 0; i < 14; ++i) {
        const auto v = first.push(feed[i]);
        ASSERT_EQ(v.spe, expect[i].spe);
    }
    io::wire_writer w;
    first.save(w);

    online_detector resumed(flows, opts);
    io::wire_reader r(w.data());
    resumed.load(r);
    r.expect_end();
    EXPECT_EQ(resumed.bins_seen(), 14u);
    EXPECT_EQ(resumed.ready(), first.ready());
    EXPECT_EQ(resumed.threshold(), first.threshold());

    for (int i = 14; i < 40; ++i) {
        const auto v = resumed.push(feed[i]);
        ASSERT_EQ(v.bin, expect[i].bin) << i;
        ASSERT_EQ(v.scored, expect[i].scored) << i;
        ASSERT_EQ(v.spe, expect[i].spe) << i;
        ASSERT_EQ(v.threshold, expect[i].threshold) << i;
        ASSERT_EQ(v.anomalous, expect[i].anomalous) << i;
        ASSERT_EQ(v.top_od, expect[i].top_od) << i;
        ASSERT_EQ(v.h_tilde, expect[i].h_tilde) << i;
        ASSERT_EQ(v.flows.size(), expect[i].flows.size()) << i;
        for (std::size_t k = 0; k < v.flows.size(); ++k) {
            EXPECT_EQ(v.flows[k].od, expect[i].flows[k].od);
            EXPECT_EQ(v.flows[k].magnitude, expect[i].flows[k].magnitude);
            EXPECT_EQ(v.flows[k].spe_after, expect[i].flows[k].spe_after);
        }
    }
}

TEST(OnlineSnapshotTest, ShapeMismatchFailsLoudly) {
    online_options opts;
    opts.window = 10;
    opts.warmup = 4;
    lcg gen;
    online_detector a(6, opts);
    for (int i = 0; i < 6; ++i) a.push(make_snapshot(6, gen));
    io::wire_writer w;
    a.save(w);
    // A detector over a different flow count must reject the payload.
    online_detector b(7, opts);
    io::wire_reader r(w.data());
    EXPECT_THROW(b.load(r), io::wire_error);
}
