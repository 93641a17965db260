// tfd::linalg — a small reusable thread pool and deterministic
// blocked parallel-for, used by the dense kernels (multiply / gram /
// outer_gram) to parallelize over row or tile ranges.
//
// Determinism contract: parallel_for_blocked splits [0, count) into
// fixed-size blocks that do not depend on the worker count, and every
// block writes a disjoint slice of the output. Within a block the
// caller's loop runs serially in index order, so results are identical
// whether the pool has 1 thread or 64 — only wall-clock changes.
//
// How this composes with the two SIMD tiers (linalg/simd.h): the
// blocked kernels keep one fixed per-element reduction order regardless
// of worker count AND regardless of ISA. Three levels of "same result"
// follow:
//   1. Same machine, same ISA: bit-identical run to run, any thread
//      count. This is the invariant the parity tests pin.
//   2. Scalar ISA anywhere (a CPU without AVX2+FMA, or
//      force_kernel_isa(kernel_isa::scalar)): bit-identical to the
//      naive reference kernels (tests/linalg/reference_kernels.h) and
//      to every pre-SIMD release.
//   3. fma256 vs scalar: the same reduction order evaluated with fused
//      multiply-adds; parity with the scalar reference is tolerance-
//      level (contraction changes rounding, never ordering).
//
// Worker count: hardware_concurrency by default, overridable with the
// TFD_THREADS environment variable (TFD_THREADS=1 forces fully serial
// execution with no worker threads at all).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tfd::linalg {

/// A fixed set of worker threads executing indexed task batches.
///
/// One job at a time: run() publishes a function and a task count,
/// workers claim task indices with an atomic counter, and run() returns
/// once every index has been executed. Exceptions thrown by tasks are
/// captured and rethrown on the calling thread (first one wins).
class thread_pool {
public:
    /// Pool with `workers` threads; 0 picks hardware_concurrency
    /// (respecting TFD_THREADS). A pool of size <= 1 spawns no threads
    /// and run() executes inline.
    explicit thread_pool(std::size_t workers = 0);
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    /// Number of threads that execute tasks (>= 1; includes the caller).
    std::size_t size() const noexcept { return size_; }

    /// Execute fn(i) for every i in [0, tasks); blocks until all done.
    /// The calling thread participates, so run() works (serially) even
    /// on a pool with no workers. One job runs at a time: concurrent
    /// run() calls from different threads serialize on an internal
    /// mutex, and a nested call from inside a task executes inline
    /// (serially) instead of deadlocking.
    void run(std::size_t tasks, const std::function<void(std::size_t)>& fn);

    /// The process-wide shared pool (started on first use).
    static thread_pool& shared();

private:
    void worker_loop();
    void execute_batch();

    std::size_t size_ = 1;
    std::vector<std::thread> threads_;

    std::mutex run_mu_;  ///< serializes whole run() invocations
    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    const std::function<void(std::size_t)>* job_ = nullptr;
    std::size_t job_tasks_ = 0;
    std::size_t next_task_ = 0;
    std::size_t in_flight_ = 0;
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr first_error_;
};

/// Deterministic blocked parallel-for: split [0, count) into blocks of
/// `grain` (last block may be short), run body(begin, end) for each block
/// on the shared pool. Block boundaries depend only on (count, grain),
/// never on thread count, so any run-to-run or machine-to-machine
/// difference is scheduling only; callers must make blocks write disjoint
/// outputs.
void parallel_for_blocked(std::size_t count, std::size_t grain,
                          const std::function<void(std::size_t, std::size_t)>& body);

}  // namespace tfd::linalg
