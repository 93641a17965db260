// perf_core — google-benchmark microbenchmarks for the library's hot
// paths: histogram accumulation + entropy, the symmetric eigensolver,
// PCA/subspace fits, multiway unfolding, SPE evaluation,
// identification, and cell generation throughput.
#include <benchmark/benchmark.h>

#include "core/detector.h"
#include "core/histogram.h"
#include "linalg/pca.h"
#include "linalg/simd.h"
#include "linalg/symmetric_eigen.h"
#include "net/topology.h"
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

// Shared small dataset for model-fit benchmarks.
const core::od_dataset& dataset() {
    static const core::od_dataset d = core::build_od_dataset(
        96, abilene().od_count(),
        [](std::size_t b, int od) { return background().generate(b, od); });
    return d;
}

void bm_histogram_accumulate(benchmark::State& state) {
    const auto records = background().generate(10, 40);
    for (auto _ : state) {
        core::feature_histogram_set set;
        set.add_records(records);
        benchmark::DoNotOptimize(set.entropies());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(records.size()));
}
BENCHMARK(bm_histogram_accumulate);

void bm_symmetric_eigen(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    linalg::matrix a(n, n);
    traffic::rng gen(3);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = gen.uniform(-1, 1);
    for (auto _ : state) {
        auto e = linalg::symmetric_eigen(a);
        benchmark::DoNotOptimize(e.values.data());
    }
}
BENCHMARK(bm_symmetric_eigen)->Arg(32)->Arg(128)->Arg(484)
    ->Unit(benchmark::kMillisecond);

void bm_symmetric_topk(benchmark::State& state) {
    // Same matrices as bm_symmetric_eigen, but only the 10 leading
    // eigenpairs (the subspace method's k) are extracted.
    const auto n = static_cast<std::size_t>(state.range(0));
    linalg::matrix a(n, n);
    traffic::rng gen(3);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j)
            a(i, j) = a(j, i) = gen.uniform(-1, 1);
    for (auto _ : state) {
        auto e = linalg::symmetric_eigen_topk(a, 10);
        benchmark::DoNotOptimize(e.values.data());
    }
}
BENCHMARK(bm_symmetric_topk)->Arg(128)->Arg(484)->Arg(1024)->Arg(2048)
    ->Unit(benchmark::kMillisecond);

void bm_pca_fit_topk(benchmark::State& state) {
    // The detection-path fit: only the 10 leading axes materialized.
    const auto& d = dataset();
    for (auto _ : state) {
        auto p = linalg::fit_pca_topk(d.packets, 10);
        benchmark::DoNotOptimize(p.eigenvalues.data());
    }
}
BENCHMARK(bm_pca_fit_topk)->Unit(benchmark::kMillisecond);

void bm_pca_fit_topk_geant(benchmark::State& state) {
    // The online refit's shape at Géant width: a full 576-bin window of
    // 4 x 484 = 1936 columns, so t < d and the fit takes the Gram trick
    // (outer_gram, top-k eigensolve of the 576 x 576 Gram, axes
    // assembled from the centred rows).
    static const linalg::matrix x = [] {
        linalg::matrix m(576, 1936);
        traffic::rng gen(11);
        for (double& v : m.data()) v = gen.uniform(-1, 1);
        return m;
    }();
    for (auto _ : state) {
        auto p = linalg::fit_pca_topk(x, 10);
        benchmark::DoNotOptimize(p.eigenvalues.data());
    }
}
BENCHMARK(bm_pca_fit_topk_geant)->Unit(benchmark::kMillisecond);

void bm_unfold(benchmark::State& state) {
    const auto& d = dataset();
    for (auto _ : state) {
        auto m = core::unfold(d);
        benchmark::DoNotOptimize(m.h.data().data());
    }
}
BENCHMARK(bm_unfold)->Unit(benchmark::kMillisecond);

void bm_multiway_fit_and_detect(benchmark::State& state) {
    const auto m = core::unfold(dataset());
    for (auto _ : state) {
        auto det = core::detect_entropy_anomalies(
            m, {.normal_dims = 10}, 0.999);
        benchmark::DoNotOptimize(det.rows.spe.data());
    }
}
BENCHMARK(bm_multiway_fit_and_detect)->Unit(benchmark::kMillisecond);

void bm_multiway_fit_and_detect_large(benchmark::State& state) {
    // ISP-scale variant: a 64-PoP synthetic backbone unfolds to
    // 4 * 64^2 = 16384 columns — the n >= 1024 regime ROADMAP item 2
    // targets, where fit cost is dominated by the Gram-trick
    // projections and the blocked kernels. Dataset construction is
    // lazy so other benchmark filters never pay for it.
    static const net::topology topo = net::topology::synthetic(64);
    static const traffic::background_model bg(topo);
    static const core::od_dataset d = core::build_od_dataset(
        96, topo.od_count(),
        [](std::size_t b, int od) { return bg.generate(b, od); });
    static const auto m = core::unfold(d);
    for (auto _ : state) {
        auto det = core::detect_entropy_anomalies(
            m, {.normal_dims = 10}, 0.999);
        benchmark::DoNotOptimize(det.rows.spe.data());
    }
}
BENCHMARK(bm_multiway_fit_and_detect_large)->Unit(benchmark::kMillisecond);

void bm_spe_single_observation(benchmark::State& state) {
    static const auto m = core::unfold(dataset());
    static const auto model =
        core::subspace_model::fit(m.h, {.normal_dims = 10});
    for (auto _ : state)
        benchmark::DoNotOptimize(model.spe(m.h.row(50)));
}
BENCHMARK(bm_spe_single_observation);

void bm_identification(benchmark::State& state) {
    // Recursive identification plus the attribution (residual, top OD,
    // h_tilde) that every detection's verdict carries.
    static const auto m = core::unfold(dataset());
    static const auto model =
        core::subspace_model::fit(m.h, {.normal_dims = 10});
    for (auto _ : state) {
        auto id = core::identify_flows(model, m.h.row(50),
                                       {.max_flows = 3, .stop_threshold = 0.0});
        benchmark::DoNotOptimize(id.flows.data());
    }
}
BENCHMARK(bm_identification)->Unit(benchmark::kMicrosecond);

void bm_cell_generation(benchmark::State& state) {
    std::size_t bin = 0;
    for (auto _ : state) {
        auto records = background().generate(bin++ % 288, 40);
        benchmark::DoNotOptimize(records.data());
    }
}
BENCHMARK(bm_cell_generation);

}  // namespace

// Expanded BENCHMARK_MAIN so every report carries the kernel ISA the
// process actually dispatched to — without it, BENCH_core.json deltas
// across machines/tiers are uninterpretable.
int main(int argc, char** argv) {
    benchmark::AddCustomContext(
        "kernel_isa", linalg::kernel_isa_name(linalg::active_kernel_isa()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
