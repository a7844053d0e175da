/**
 * @file
 * A small fixed-size fork-join thread pool for the mapper's evaluation
 * pipeline.
 *
 * `ThreadPool(N)` runs N wide: N-1 workers plus the thread that calls
 * parallelFor(), which claims work like any worker instead of sleeping
 * until the others finish. `ThreadPool(1)` starts no thread at all and
 * runs everything on the caller.
 *
 * parallelFor() is one fork-join path: the caller and up to
 * min(n-1, workers) helper tasks claim indices from a shared atomic
 * counter. Once every index is claimed, the caller takes back the
 * helpers no worker has picked up and waits (blocking, never
 * spinning) only for the ones that did, so nothing the call queued
 * outlives it. The same holds on a worker thread: a worker that fans
 * out again runs its share itself while idle workers help, and it
 * never waits on a queued task, so nesting cannot deadlock.
 *
 * Deliberately work-stealing-free: the workers drain one mutex-protected
 * FIFO queue. The mapper's units of work (one mapping evaluation each)
 * are coarse enough — tree build plus full analysis — that a shared
 * queue is nowhere near contention-bound.
 *
 * submit() called from inside a worker of the same pool (or on a pool
 * without workers) runs the task inline and returns a ready future.
 *
 * The width defaults to the TILEFLOW_THREADS environment variable,
 * falling back to std::thread::hardware_concurrency().
 */

#ifndef TILEFLOW_COMMON_THREADPOOL_HPP
#define TILEFLOW_COMMON_THREADPOOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/telemetry.hpp"

namespace tileflow {

class ThreadPool
{
  public:
    /** Run `threads` wide (threads-1 workers plus the caller); 0 means
     *  defaultThreadCount(). */
    explicit ThreadPool(size_t threads = 0);

    /** Joins all workers; pending tasks run to completion first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Width: the workers plus the calling thread. */
    size_t size() const { return workers_.size() + 1; }

    /** TILEFLOW_THREADS if set (clamped to >= 1), else
     *  hardware_concurrency(), else 1. */
    static size_t defaultThreadCount();

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /**
     * Schedule `fn` and return a future for its result. Called from a
     * worker of this pool, or on a pool without workers, runs inline
     * and returns a ready future.
     */
    template <typename F>
    auto
    submit(F&& fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        auto task =
            std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (workers_.empty() || onWorkerThread()) {
            inlineTasks_.add();
            (*task)();
            return future;
        }
        enqueue([task]() { (*task)(); });
        return future;
    }

    /**
     * Run fn(0..n-1), blocking until all complete. The caller claims
     * indices alongside idle workers (see the file comment), on a
     * worker thread too. Every index runs; if any throw, the exception
     * of the lowest throwing index is rethrown after all have run.
     */
    void parallelFor(size_t n, const std::function<void(size_t)>& fn);

  private:
    /** A queued task, the time it entered the queue (telemetry), and
     *  the parallelFor call it helps, if any (so that call can take it
     *  back). */
    struct QueuedTask
    {
        std::function<void()> fn;
        uint64_t enqueuedNs;
        const void* owner = nullptr;
    };

    void enqueue(std::function<void()> task);
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<QueuedTask> queue_;
    std::vector<std::thread> workers_;
    bool stopping_ = false;

    // Telemetry (process-wide instruments; see DESIGN.md §10). Tasks
    // that throw still count: the packaged_task layer captures the
    // exception before it can unwind past the accounting.
    Counter& tasks_ = MetricsRegistry::global().counter("threadpool.tasks");
    Counter& inlineTasks_ =
        MetricsRegistry::global().counter("threadpool.inline_tasks");
    Gauge& queueDepth_ =
        MetricsRegistry::global().gauge("threadpool.queue_depth");
    Histogram& queueWaitNs_ =
        MetricsRegistry::global().histogram("threadpool.queue_wait_ns");
    Histogram& taskRunNs_ =
        MetricsRegistry::global().histogram("threadpool.task_run_ns");
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_THREADPOOL_HPP
