// Tests for the thread pool, the deterministic blocked parallel-for, and
// parity between the blocked/parallel dense kernels and their naive
// single-threaded references (reference_kernels.h) under both SIMD
// ISAs: bit-exact under the scalar micro-kernels, tolerance-level under
// fma256 (fused multiply-adds change rounding), where outer_gram is also
// pinned bit-exactly to reference::lane_order_outer_gram. The fma256
// cases skip cleanly on hardware without AVX2+FMA.
#include "linalg/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "reference_kernels.h"
#include "traffic/rng.h"

namespace la = tfd::linalg;
namespace ref = tfd::linalg::reference;

namespace {

la::matrix random_matrix(std::size_t rows, std::size_t cols,
                         std::uint64_t seed) {
    la::matrix m(rows, cols);
    tfd::traffic::rng gen(seed);
    for (double& v : m.data()) v = gen.uniform(-2.0, 2.0);
    return m;
}

double max_abs(const la::matrix& m) {
    double v = 0.0;
    for (double x : m.data()) v = std::max(v, std::fabs(x));
    return v;
}

// Runs the test body once per ISA runnable on this machine, restoring
// the process default afterwards. The naive references run scalar loops
// (naive_outer_gram through the dispatched dot()), so the allowed
// blocked-vs-naive gap depends on the ISA: 0 for scalar, a small
// contraction tolerance for the fused multiply-add tier.
class KernelIsaParityTest : public ::testing::TestWithParam<la::kernel_isa> {
protected:
    void SetUp() override {
        prev_ = la::active_kernel_isa();
        if (!la::force_kernel_isa(GetParam()))
            GTEST_SKIP() << "ISA not runnable on this machine";
    }
    void TearDown() override { la::force_kernel_isa(prev_); }

    // Contraction-tolerance for an accumulation of `depth` fused terms.
    static double tol(la::kernel_isa isa, double scale, std::size_t depth) {
        if (isa == la::kernel_isa::scalar) return 0.0;
        return 1e-15 * scale * static_cast<double>(depth);
    }

private:
    la::kernel_isa prev_ = la::kernel_isa::scalar;
};

}  // namespace

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
    la::thread_pool pool(4);
    EXPECT_GE(pool.size(), 1u);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ZeroTasksIsANoop) {
    la::thread_pool pool(2);
    bool touched = false;
    pool.run(0, [&](std::size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPoolTest, PropagatesTaskException) {
    la::thread_pool pool(3);
    EXPECT_THROW(pool.run(8,
                          [](std::size_t i) {
                              if (i == 5) throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool stays usable after a failed batch.
    std::atomic<int> n{0};
    pool.run(4, [&](std::size_t) { n.fetch_add(1); });
    EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPoolTest, SerialPoolExecutesInline) {
    la::thread_pool pool(1);
    int count = 0;
    pool.run(10, [&](std::size_t) { ++count; });  // non-atomic on purpose
    EXPECT_EQ(count, 10);
}

TEST(ParallelForTest, BlocksCoverRangeWithoutOverlap) {
    for (std::size_t count : {0u, 1u, 7u, 32u, 33u, 100u, 1024u}) {
        std::vector<std::atomic<int>> hits(count);
        la::parallel_for_blocked(count, 32, [&](std::size_t b, std::size_t e) {
            ASSERT_LT(b, e);
            for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
}

// Blocked vs naive under each ISA. Under scalar the per-element
// reduction order is identical and parity is exact (the issue's original
// acceptance bar was 1e-12; the design gives exactly 0). Under fma256
// the same order runs with fused multiply-adds, so parity is bounded by
// a contraction tolerance proportional to the reduction depth.
// 10 x 576 x 1936 is the Gram-trick axis product: fewer rows than one
// row block and several column tiles, the last one partial.
TEST_P(KernelIsaParityTest, MultiplyMatchesNaive) {
    for (auto [n, k, m] : {std::tuple{3u, 4u, 5u},
                           std::tuple{32u, 32u, 32u},
                           std::tuple{65u, 97u, 33u},
                           std::tuple{96u, 484u, 10u},
                           std::tuple{130u, 70u, 129u},
                           std::tuple{10u, 576u, 1936u}}) {
        const auto a = random_matrix(n, k, 11u + n);
        const auto b = random_matrix(k, m, 29u + m);
        const auto blocked = la::multiply(a, b);
        const auto naive = ref::naive_multiply(a, b);
        EXPECT_LE(la::max_abs_diff(blocked, naive),
                  tol(GetParam(), std::max(1.0, max_abs(naive)), k))
            << n << "x" << k << "x" << m;
    }
}

TEST_P(KernelIsaParityTest, GramMatchesNaive) {
    for (auto [t, n] : {std::tuple{10u, 4u}, std::tuple{64u, 64u},
                        std::tuple{33u, 130u}, std::tuple{96u, 484u}}) {
        const auto a = random_matrix(t, n, 101u + t);
        const auto blocked = la::gram(a);
        const auto naive = ref::naive_gram(a);
        EXPECT_LE(la::max_abs_diff(blocked, naive),
                  tol(GetParam(), std::max(1.0, max_abs(naive)), t))
            << t << "x" << n;
    }
}

// outer_gram over row counts on and off the 3-row register tile and
// widths on and off the 4-lane step, d < 4 included: bit-exact against
// naive_outer_gram under scalar; under fma256 bit-exact against
// lane_order_outer_gram and within contraction tolerance of
// naive_outer_gram (whose dot() splits the sum 8 ways there).
TEST_P(KernelIsaParityTest, OuterGramMatchesReferenceExactly) {
    for (std::size_t t : {1u, 2u, 3u, 4u, 5u, 7u, 13u, 64u, 130u}) {
        for (std::size_t d : {1u, 3u, 4u, 5u, 31u, 32u, 33u, 484u, 1936u}) {
            const auto a = random_matrix(t, d, 7u + 131u * t + d);
            const auto blocked = la::outer_gram(a);
            const auto naive = ref::naive_outer_gram(a);
            if (GetParam() == la::kernel_isa::scalar) {
                EXPECT_EQ(la::max_abs_diff(blocked, naive), 0.0)
                    << t << "x" << d;
                continue;
            }
            EXPECT_EQ(la::max_abs_diff(blocked, ref::lane_order_outer_gram(a)),
                      0.0)
                << t << "x" << d;
            EXPECT_LE(la::max_abs_diff(blocked, naive),
                      tol(GetParam(), std::max(1.0, max_abs(naive)), d))
                << t << "x" << d;
        }
    }
}

// Same machine, same ISA, same inputs => same bits, run to run.
TEST_P(KernelIsaParityTest, KernelsAreDeterministic) {
    const auto a = random_matrix(37, 61, 17);
    const auto b = random_matrix(61, 29, 23);
    EXPECT_EQ(la::max_abs_diff(la::multiply(a, b), la::multiply(a, b)), 0.0);
    EXPECT_EQ(la::max_abs_diff(la::gram(a), la::gram(a)), 0.0);
    EXPECT_EQ(la::max_abs_diff(la::outer_gram(a), la::outer_gram(a)), 0.0);
}

TEST_P(KernelIsaParityTest, GramAgreesWithExplicitTranspose) {
    const auto a = random_matrix(40, 70, 5);
    const auto expected = ref::naive_multiply(la::transpose(a), a);
    EXPECT_LT(la::max_abs_diff(la::gram(a), expected), 1e-12);
}

// The fused axpy_dot micro-kernel must match the axpy + dot composition
// it replaces: exactly under scalar (the scalar body IS the
// composition), within contraction tolerance under fma256
// (the fused sweep keeps a fixed reduction order but regroups the dot
// into 4 accumulators). Odd lengths exercise every remainder path.
TEST_P(KernelIsaParityTest, AxpyDotMatchesComposition) {
    tfd::traffic::rng gen(321);
    for (std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u,
                          33u, 63u, 64u, 65u, 127u, 257u, 484u}) {
        std::vector<double> z(n), u(n), p1(n), p2(n);
        for (std::size_t i = 0; i < n; ++i) {
            z[i] = gen.uniform(-2.0, 2.0);
            u[i] = gen.uniform(-2.0, 2.0);
            p1[i] = p2[i] = gen.uniform(-1.0, 1.0);
        }
        const double a = gen.uniform(-1.5, 1.5);
        const double fused = la::simd::axpy_dot(p1.data(), z.data(), a,
                                                u.data(), n);
        la::simd::axpy(p2.data(), z.data(), a, n);
        const double split = la::simd::dot(z.data(), u.data(), n);
        const double t = tol(GetParam(), 4.0, std::max<std::size_t>(n, 1));
        EXPECT_LE(std::fabs(fused - split), t) << "n=" << n;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(p1[i], p2[i]) << "n=" << n << " i=" << i
                                    << " (axpy side must be bit-identical)";
        if (GetParam() == la::kernel_isa::scalar)
            EXPECT_EQ(fused, split) << "n=" << n;
    }
}

// Per-tier determinism for the raw micro-kernels: same inputs, same
// bits, run to run, whatever the dispatched tier.
TEST_P(KernelIsaParityTest, MicroKernelsAreDeterministic) {
    tfd::traffic::rng gen(99);
    const std::size_t n = 203;  // odd: remainder lanes in play
    std::vector<double> x(n), y(n), d1(n), d2(n);
    for (std::size_t i = 0; i < n; ++i) {
        x[i] = gen.uniform(-2.0, 2.0);
        y[i] = gen.uniform(-2.0, 2.0);
        d1[i] = d2[i] = gen.uniform(-1.0, 1.0);
    }
    EXPECT_EQ(la::simd::dot(x.data(), y.data(), n),
              la::simd::dot(x.data(), y.data(), n));
    la::simd::axpy2_sub(d1.data(), x.data(), 0.3, y.data(), -0.7, n);
    la::simd::axpy2_sub(d2.data(), x.data(), 0.3, y.data(), -0.7, n);
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(d1[i], d2[i]);
    std::vector<double> x2 = x, y2 = y, x3 = x, y3 = y;
    la::simd::rot(x2.data(), y2.data(), 0.8, 0.6, n);
    la::simd::rot(x3.data(), y3.data(), 0.8, 0.6, n);
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(x2[i], x3[i]);
        ASSERT_EQ(y2[i], y3[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(AllIsas, KernelIsaParityTest,
                         ::testing::Values(la::kernel_isa::scalar,
                                           la::kernel_isa::fma256),
                         [](const auto& info) {
                             return la::kernel_isa_name(info.param);
                         });
