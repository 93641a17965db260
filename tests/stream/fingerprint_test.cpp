// Golden config fingerprint: a checkpoint only restores into a pipeline
// whose config_fingerprint() matches the one it was written under, so
// the digest of an unchanged configuration must never move. Pinned for
// the paper's Abilene settings (default online options: window 576,
// warmup 288, refit every 48, k = 10, alpha = 0.999) at two shards.
#include <gtest/gtest.h>

#include <cstdint>

#include "net/topology.h"
#include "stream/pipeline.h"

using namespace tfd;

TEST(FingerprintTest, AbileneDefaultsMatchGolden) {
    const auto topo = net::topology::abilene();  // the pipeline keeps a reference
    stream::pipeline_options opts;
    opts.shards = 2;
    const stream::stream_pipeline p(topo, opts);
    EXPECT_EQ(p.config_fingerprint(), 0x0a986ea4d216fbf7ULL);
}
