// perf_stream — google-benchmark microbenchmarks for the tfd::stream
// ingest path: codec encode/decode, egress resolution, sharded OD
// accumulation at several shard counts on plain and anonymized records,
// and the end-to-end bin-synchronous pipeline (ingest throughput in
// records/s and per-bin close latency).
//
// Recorded into BENCH_core.json alongside perf_core by
// scripts/bench_to_json.py (the bench_json target runs both binaries).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <sstream>
#include <vector>

#include "flow/anonymizer.h"
#include "flow/od_aggregator.h"
#include "linalg/simd.h"
#include "net/topology.h"
#include "obs/alert.h"
#include "obs/bridge.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "stream/flow_codec.h"
#include "stream/pipeline.h"
#include "stream/shard.h"
#include "traffic/background.h"

using namespace tfd;

namespace {

const net::topology& abilene() {
    static const auto t = net::topology::abilene();
    return t;
}

const traffic::background_model& background() {
    static const traffic::background_model bg(abilene());
    return bg;
}

// One synthetic Abilene bin as a flat record stream (every OD cell,
// stamped into the right 5-minute window), reused across iterations.
std::vector<flow::flow_record> bin_stream(std::size_t bin) {
    std::vector<flow::flow_record> out;
    for (int od = 0; od < abilene().od_count(); ++od) {
        auto cell = background().generate(bin, od);
        out.insert(out.end(), cell.begin(), cell.end());
    }
    return out;
}

const std::vector<flow::flow_record>& day_stream() {
    // 16 bins is enough to exercise refits without minutes of setup.
    static const std::vector<flow::flow_record> s = [] {
        std::vector<flow::flow_record> all;
        for (std::size_t bin = 0; bin < 16; ++bin) {
            auto b = bin_stream(bin);
            all.insert(all.end(), b.begin(), b.end());
        }
        return all;
    }();
    return s;
}

void bm_stream_codec_encode(benchmark::State& state) {
    const auto& records = day_stream();
    for (auto _ : state) {
        auto bytes = stream::encode_records(records);
        benchmark::DoNotOptimize(bytes.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}
BENCHMARK(bm_stream_codec_encode)->Unit(benchmark::kMillisecond);

void bm_stream_codec_decode(benchmark::State& state) {
    static const auto bytes = stream::encode_records(day_stream());
    for (auto _ : state) {
        auto records = stream::decode_records(bytes);
        benchmark::DoNotOptimize(records.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day_stream().size()));
}
BENCHMARK(bm_stream_codec_decode)->Unit(benchmark::kMillisecond);

// The day stream as a perfbench spool feeds it: each bin sorted by
// first_us (the order a collector exports in) and cut into frames of
// 2048 records, no frame spanning two bins. The anonymized copy zeroes
// the low 11 bits of every address, as Abilene's public feed does
// (paper §5); the plain one keeps them. Both resolve to the same ODs.
struct spool_frame {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool closes_bin = false;  ///< last frame of its bin
};

struct spool {
    std::vector<flow::flow_record> records;
    std::vector<int> ods;
    std::vector<spool_frame> frames;
};

spool make_spool(bool anonymized) {
    constexpr std::size_t kFrame = 2048;
    spool s;
    for (std::size_t bin = 0; bin < 16; ++bin) {
        auto b = bin_stream(bin);
        std::stable_sort(b.begin(), b.end(),
                         [](const flow::flow_record& x,
                            const flow::flow_record& y) {
                             return x.first_us < y.first_us;
                         });
        if (anonymized) flow::anonymizer(11).apply(b);
        const std::size_t base = s.records.size();
        for (std::size_t at = 0; at < b.size(); at += kFrame) {
            const std::size_t end = std::min(at + kFrame, b.size());
            s.frames.push_back({base + at, base + end, end == b.size()});
        }
        s.records.insert(s.records.end(), b.begin(), b.end());
    }
    flow::od_resolver(abilene()).resolve_batch(s.records, s.ods);
    return s;
}

const spool& spool_of(bool anonymized) {
    static const spool plain = make_spool(false);
    static const spool anon = make_spool(true);
    return anonymized ? anon : plain;
}

// Shard accumulation as the pipeline drives it from a spool: one
// accumulate() per frame, one harvest() per bin.
void shard_accumulate(benchmark::State& state, const spool& s) {
    const std::span<const flow::flow_record> records(s.records);
    const std::span<const int> ods(s.ods);
    stream::od_shard_set shards(abilene().od_count(),
                                static_cast<std::size_t>(state.range(0)));
    stream::bin_statistics stats;
    for (auto _ : state) {
        for (const spool_frame& f : s.frames) {
            const std::size_t n = f.end - f.begin;
            shards.accumulate(records.subspan(f.begin, n),
                              ods.subspan(f.begin, n));
            if (f.closes_bin) shards.harvest(stats);
        }
        benchmark::DoNotOptimize(stats.snapshot.entropies[0].data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}

void bm_stream_shard_accumulate(benchmark::State& state) {
    shard_accumulate(state, spool_of(false));
}
BENCHMARK(bm_stream_shard_accumulate)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// The same records anonymized. CI gates its /1 against the plain /1
// with --compare: the count table must spread keys whose low bits are
// all zero as well as any others.
void bm_stream_shard_accumulate_anon(benchmark::State& state) {
    shard_accumulate(state, spool_of(true));
}
BENCHMARK(bm_stream_shard_accumulate_anon)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

// Egress resolution of the anonymized spool, one resolve_batch() per
// frame, as the pipeline calls it.
void bm_od_resolve(benchmark::State& state) {
    const spool& s = spool_of(true);
    const std::span<const flow::flow_record> records(s.records);
    const flow::od_resolver resolver(abilene());
    std::vector<int> ods;
    for (auto _ : state) {
        for (const spool_frame& f : s.frames)
            resolver.resolve_batch(records.subspan(f.begin, f.end - f.begin),
                                   ods);
        benchmark::DoNotOptimize(ods.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}
BENCHMARK(bm_od_resolve)->Unit(benchmark::kMillisecond);

// End-to-end ingest: codec stream -> queue -> shards -> detector.
// items_per_second is the acceptance metric (records/s); per-bin close
// latency comes out of the pipeline's own counters and is reported as
// the bin_close_ms counter.
void bm_stream_ingest(benchmark::State& state) {
    static const auto bytes = stream::encode_records(day_stream());
    double bin_close_ms = 0.0;
    std::uint64_t bins = 0;
    for (auto _ : state) {
        stream::pipeline_options opts;
        opts.online.window = 8;
        opts.online.warmup = 4;
        opts.online.refit_interval = 4;
        opts.online.subspace.normal_dims = 2;
        stream::stream_pipeline pipeline(abilene(), opts);
        std::istringstream in(
            std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()));
        stream::flow_codec_reader reader(in);
        pipeline.run(reader);
        benchmark::DoNotOptimize(pipeline.metrics().bins_emitted);
        bin_close_ms += pipeline.metrics().mean_bin_close_ms();
        bins += pipeline.metrics().bins_emitted;
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day_stream().size()));
    state.counters["bin_close_ms"] =
        bin_close_ms / static_cast<double>(state.iterations());
    state.counters["bins"] = static_cast<double>(bins) /
                             static_cast<double>(state.iterations());
}
BENCHMARK(bm_stream_ingest)->Unit(benchmark::kMillisecond);

// The same end-to-end ingest with the full observability harness wired
// in (registry + stage timers + alerts + ring sink + bridge). CI gates
// this against bm_stream_ingest with --compare: event emission and
// metric adoption must stay within a few percent of the bare pipeline.
void bm_stream_ingest_events(benchmark::State& state) {
    static const auto bytes = stream::encode_records(day_stream());
    std::uint64_t events = 0;
    for (auto _ : state) {
        obs::metrics_registry registry;
        obs::stage_timers timers = obs::register_stage_timers(registry);
        obs::alert_manager alerts;
        obs::ring_sink sink(256);
        stream::pipeline_options opts;
        opts.online.window = 8;
        opts.online.warmup = 4;
        opts.online.refit_interval = 4;
        opts.online.subspace.normal_dims = 2;
        opts.online.refit_timer = timers.refit;
        opts.timers = &timers;
        stream::stream_pipeline pipeline(abilene(), opts);
        obs::bridge_options bopts;
        bopts.sink = &sink;
        bopts.registry = &registry;
        bopts.alerts = &alerts;
        bopts.topology = &abilene();
        obs::pipeline_bridge bridge(pipeline, bopts);
        pipeline.on_bin([&](const stream::bin_result& r) {
            bridge.observe_bin(r);
        });
        std::istringstream in(
            std::string(reinterpret_cast<const char*>(bytes.data()),
                        bytes.size()));
        stream::flow_codec_reader reader(in);
        pipeline.run(reader);
        bridge.sync_metrics();
        benchmark::DoNotOptimize(pipeline.metrics().bins_emitted);
        events += bridge.emitter().emitted();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(day_stream().size()));
    state.counters["events"] = static_cast<double>(events) /
                               static_cast<double>(state.iterations());
}
BENCHMARK(bm_stream_ingest_events)->Unit(benchmark::kMillisecond);

// Serialization cost of one structured event (a bin_closed — the
// highest-frequency type) through the emitter into the /events/recent
// ring: what every closed bin pays on top of the pipeline work.
void bm_event_emit(benchmark::State& state) {
    obs::ring_sink sink(256);
    obs::event_emitter emitter(&sink);
    std::uint64_t bin = 0;
    for (auto _ : state) {
        obs::bin_closed_data d;
        d.records = 12345;
        d.scored = true;
        d.close_ns = 1234567;
        benchmark::DoNotOptimize(
            emitter.emit(bin++, obs::event_data(d)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_event_emit)->Unit(benchmark::kMicrosecond);

// One /metrics scrape: render the daemon's full metric surface (the
// bridge's adopted counters + gauges and the five stage histograms).
void bm_metrics_render(benchmark::State& state) {
    obs::metrics_registry registry;
    obs::stage_timers timers = obs::register_stage_timers(registry);
    obs::alert_manager alerts;
    stream::pipeline_options opts;
    opts.online.window = 8;
    opts.online.warmup = 4;
    opts.online.subspace.normal_dims = 2;
    stream::stream_pipeline pipeline(abilene(), opts);
    obs::bridge_options bopts;
    bopts.registry = &registry;
    bopts.alerts = &alerts;
    obs::pipeline_bridge bridge(pipeline, bopts);
    bridge.sync_metrics();
    for (int i = 0; i < 1000; ++i) {  // populate histogram buckets
        timers.decode->record_ns(1000 + i * 977);
        timers.bin_close->record_ns(100000 + i * 99991);
    }
    for (auto _ : state) {
        const std::string text = registry.render_prometheus();
        benchmark::DoNotOptimize(text.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_metrics_render)->Unit(benchmark::kMicrosecond);

}  // namespace

// Same expanded main as perf_core: stamp the dispatched kernel ISA into
// the benchmark context for BENCH_core.json.
int main(int argc, char** argv) {
    benchmark::AddCustomContext(
        "kernel_isa",
        tfd::linalg::kernel_isa_name(tfd::linalg::active_kernel_isa()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
