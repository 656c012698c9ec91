// TaskPool unit tests, focused on the deterministic ordered fan-out /
// merge helper the sharded engine builds on: tasks may finish in any
// order on any number of workers, but merge(i) must run serially on the
// calling thread in ascending index order, strictly after every task.
// The last test covers a worker that fails to start.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lrgp/task_pool.hpp"
#include "thread_start_failure.hpp"

namespace lrgp::core {
namespace {

TEST(TaskPool, ForEachMergeOrderedMergesInAscendingIndexOrder) {
    for (int threads : {1, 2, 4}) {
        TaskPool pool(threads);
        constexpr std::size_t kN = 64;
        std::vector<int> slot(kN, 0);
        std::vector<std::size_t> merge_order;
        const std::thread::id caller = std::this_thread::get_id();

        pool.forEachMergeOrdered(
            kN, [&](std::size_t i, int) { slot[i] = static_cast<int>(i) * 3 + 1; },
            [&](std::size_t i) {
                EXPECT_EQ(std::this_thread::get_id(), caller);
                merge_order.push_back(i);
            });

        ASSERT_EQ(merge_order.size(), kN) << "threads=" << threads;
        for (std::size_t i = 0; i < kN; ++i) {
            EXPECT_EQ(merge_order[i], i) << "threads=" << threads;
            EXPECT_EQ(slot[i], static_cast<int>(i) * 3 + 1) << "threads=" << threads;
        }
    }
}

TEST(TaskPool, ForEachMergeOrderedRunsEveryTaskBeforeAnyMerge) {
    TaskPool pool(4);
    constexpr std::size_t kN = 128;
    std::atomic<std::size_t> tasks_done{0};
    std::size_t seen_at_first_merge = 0;
    bool first_merge = true;
    pool.forEachMergeOrdered(
        kN, [&](std::size_t, int) { tasks_done.fetch_add(1, std::memory_order_relaxed); },
        [&](std::size_t) {
            if (first_merge) {
                seen_at_first_merge = tasks_done.load(std::memory_order_relaxed);
                first_merge = false;
            }
        });
    EXPECT_EQ(seen_at_first_merge, kN);
}

TEST(TaskPool, ForEachMergeOrderedZeroItemsIsANoop) {
    TaskPool pool(2);
    int calls = 0;
    pool.forEachMergeOrdered(
        0, [&](std::size_t, int) { ++calls; }, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(TaskPool, ForEachMergeOrderedPropagatesTaskException) {
    TaskPool pool(2);
    int merges = 0;
    EXPECT_THROW(pool.forEachMergeOrdered(
                     8,
                     [&](std::size_t i, int) {
                         if (i == 3) throw std::runtime_error("task 3 failed");
                     },
                     [&](std::size_t) { ++merges; }),
                 std::runtime_error);
    // The failure surfaces before any merge runs: no partial result is
    // ever published.
    EXPECT_EQ(merges, 0);
}

TEST(TaskPool, ForEachMergeOrderedWorkerIdsStayInRange) {
    TaskPool pool(3);
    constexpr std::size_t kN = 32;
    std::vector<int> worker_of(kN, -1);
    pool.forEachMergeOrdered(
        kN, [&](std::size_t i, int worker) { worker_of[i] = worker; }, [](std::size_t) {});
    for (std::size_t i = 0; i < kN; ++i) {
        EXPECT_GE(worker_of[i], 0);
        EXPECT_LT(worker_of[i], pool.threadCount());
    }
}

TEST(TaskPool, PartialStartJoinsAndThrows) {
    // The pool must join the worker that started and rethrow.
    test::expect_second_thread_start_throws([] { TaskPool pool(4); });
}

}  // namespace
}  // namespace lrgp::core
