// A small reusable fork-join pool for the parallel LRGP phases.
//
// The pool keeps `threads - 1` workers parked on a condition variable;
// parallelFor() statically partitions [0, n) into one contiguous chunk
// per thread (the calling thread runs chunk 0), wakes the workers, and
// returns once every chunk finished.  Static partitioning is what makes
// the engine deterministic: each index is processed by exactly one
// thread and results land in per-index slots, so the outcome is
// independent of scheduling.  The pool itself adds no allocation per
// parallelFor beyond the shared-state handshake.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/instruments.hpp"

namespace lrgp::core {

class TaskPool {
public:
    /// `threads` counts the calling thread: 1 means no workers are
    /// spawned and parallelFor degrades to a plain loop.  0 resolves to
    /// std::thread::hardware_concurrency().  If a worker fails to start,
    /// the workers already started are joined and the std::system_error
    /// is rethrown.
    explicit TaskPool(int threads);
    ~TaskPool();

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

    [[nodiscard]] int threadCount() const noexcept { return thread_count_; }

    /// fn(begin, end, worker) over a static partition of [0, n); worker
    /// is in [0, threadCount()) and owns its chunk exclusively, so it can
    /// index per-worker scratch without synchronization.  Blocks until
    /// all chunks are done.  The first exception thrown by any chunk is
    /// rethrown on the calling thread.
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t, std::size_t, int)>& fn);

    /// Deterministic ordered fan-out/merge: runs task(i, worker) for
    /// every i in [0, n) across the pool (same static partition as
    /// parallelFor), then invokes merge(i) serially on the calling
    /// thread in ascending index order 0, 1, ..., n-1.  Tasks must write
    /// only per-index state (slots the merge step reads); merge runs
    /// strictly after every task finished, so the combined result is
    /// byte-identical regardless of worker count or scheduling.  Used by
    /// the sharded engine's reconciler to merge per-shard results in
    /// shard-id order.
    template <class Task, class Merge>
    void forEachMergeOrdered(std::size_t n, Task&& task, Merge&& merge) {
        parallelFor(n, [&task](std::size_t begin, std::size_t end, int worker) {
            for (std::size_t i = begin; i < end; ++i) task(i, worker);
        });
        for (std::size_t i = 0; i < n; ++i) merge(i);
    }

    /// Optional fan-out counters (dispatches, chunks, depth histogram);
    /// nullptr (the default) keeps parallelFor() uninstrumented.
    void setInstruments(const obs::PoolInstruments* instruments) noexcept {
        instruments_ = instruments;
    }

private:
    void workerLoop(int worker);
    /// Wakes every started worker with stop_ set and joins it.
    void stopWorkers();

    int thread_count_;
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    const std::function<void(std::size_t, std::size_t, int)>* job_ = nullptr;
    std::size_t job_n_ = 0;
    std::size_t job_chunk_ = 0;
    std::uint64_t generation_ = 0;
    int pending_ = 0;
    bool stop_ = false;
    std::exception_ptr first_error_;
    const obs::PoolInstruments* instruments_ = nullptr;
};

}  // namespace lrgp::core
