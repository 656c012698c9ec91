#include "lrgp/task_pool.hpp"

#include <algorithm>
#include <utility>

namespace lrgp::core {

TaskPool::TaskPool(int threads) {
    if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
    thread_count_ = std::max(1, threads);
    workers_.reserve(static_cast<std::size_t>(thread_count_ - 1));
    try {
        for (int w = 1; w < thread_count_; ++w)
            workers_.emplace_back([this, w] { workerLoop(w); });
    } catch (...) {
        // A worker failed to start (std::system_error): the ones already
        // running must be joined, or destroying them calls std::terminate.
        stopWorkers();
        throw;
    }
}

TaskPool::~TaskPool() { stopWorkers(); }

void TaskPool::stopWorkers() {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
}

void TaskPool::parallelFor(std::size_t n,
                           const std::function<void(std::size_t, std::size_t, int)>& fn) {
    if (n == 0) return;
    if (thread_count_ == 1 || n == 1) {
        if (instruments_) {
            instruments_->jobs->add(1);
            instruments_->chunks->add(1);
            instruments_->fanout->observe(1.0);
        }
        fn(0, n, 0);
        return;
    }

    const std::size_t chunk =
        (n + static_cast<std::size_t>(thread_count_) - 1) / static_cast<std::size_t>(thread_count_);
    if (instruments_) {
        const std::size_t chunks = (n + chunk - 1) / chunk;
        instruments_->jobs->add(1);
        instruments_->chunks->add(chunks);
        instruments_->fanout->observe(static_cast<double>(chunks));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        job_n_ = n;
        job_chunk_ = chunk;
        pending_ = thread_count_ - 1;
        first_error_ = nullptr;
        ++generation_;
    }
    work_cv_.notify_all();

    // Chunk 0 runs on the calling thread while the workers take 1..T-1.
    try {
        fn(0, std::min(chunk, n), 0);
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
    if (first_error_) std::rethrow_exception(std::exchange(first_error_, nullptr));
}

void TaskPool::workerLoop(int worker) {
    std::uint64_t seen_generation = 0;
    for (;;) {
        const std::function<void(std::size_t, std::size_t, int)>* job;
        std::size_t n, chunk;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock,
                          [&] { return stop_ || generation_ != seen_generation; });
            if (stop_) return;
            seen_generation = generation_;
            job = job_;
            n = job_n_;
            chunk = job_chunk_;
        }

        const std::size_t begin = std::min(n, static_cast<std::size_t>(worker) * chunk);
        const std::size_t end = std::min(n, begin + chunk);
        if (begin < end) {
            try {
                (*job)(begin, end, worker);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!first_error_) first_error_ = std::current_exception();
            }
        }

        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (--pending_ == 0) done_cv_.notify_all();
        }
    }
}

}  // namespace lrgp::core
