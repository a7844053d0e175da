#include "common/threadpool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <string>

namespace tileflow {

namespace {

/** Set inside workerLoop so nested submits detect their own pool. */
thread_local const ThreadPool* tls_current_pool = nullptr;

/** The state one parallelFor() call shares with its helper tasks. */
struct ForkJoin
{
    const std::function<void(size_t)>& fn;
    const size_t n;
    std::atomic<size_t> next{0};

    std::mutex mutex;
    std::condition_variable helperExited;
    size_t helpersExited = 0; ///< guarded by `mutex`
    size_t failedIndex = std::numeric_limits<size_t>::max();
    std::exception_ptr failure; ///< of `failedIndex`; guarded by `mutex`

    ForkJoin(const std::function<void(size_t)>& body, size_t count)
        : fn(body), n(count)
    {
    }

    /** Claim and run indices until none is left; keep the exception
     *  of the lowest failing index. */
    void
    drain()
    {
        for (size_t i = next++; i < n; i = next++) {
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (i < failedIndex) {
                    failedIndex = i;
                    failure = std::current_exception();
                }
            }
        }
    }

    /** A helper task's body. It notifies under the lock, so the caller
     *  (which may destroy this object once woken) cannot return before
     *  the helper is done with it. */
    void
    help()
    {
        drain();
        const std::lock_guard<std::mutex> lock(mutex);
        helpersExited += 1;
        helperExited.notify_one();
    }
};

} // namespace

ThreadPool::ThreadPool(size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    // The thread that calls parallelFor is the last lane.
    workers_.reserve(threads - 1);
    for (size_t i = 0; i + 1 < threads; ++i)
        workers_.emplace_back([this]() { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

size_t
ThreadPool::defaultThreadCount()
{
    if (const char* env = std::getenv("TILEFLOW_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n >= 1)
            return size_t(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? size_t(hw) : 1;
}

bool
ThreadPool::onWorkerThread() const
{
    return tls_current_pool == this;
}

void
ThreadPool::enqueue(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(QueuedTask{std::move(task), telemetryNowNs()});
        queueDepth_.set(double(queue_.size()));
    }
    cv_.notify_one();
}

void
ThreadPool::workerLoop()
{
    tls_current_pool = this;
    for (;;) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this]() { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            queueDepth_.set(double(queue_.size()));
        }
        const uint64_t start = telemetryNowNs();
        queueWaitNs_.observe(start - task.enqueuedNs);
        tasks_.add();
        {
            TraceSpan span("threadpool.task", "threadpool");
            task.fn();
        }
        taskRunNs_.observe(telemetryNowNs() - start);
    }
}

void
ThreadPool::parallelFor(size_t n, const std::function<void(size_t)>& fn)
{
    if (n == 0)
        return;
    ForkJoin job(fn, n);
    const size_t helpers = std::min(n - 1, workers_.size());
    if (helpers > 0) {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            const uint64_t now = telemetryNowNs();
            for (size_t h = 0; h < helpers; ++h)
                queue_.push_back(
                    QueuedTask{[&job]() { job.help(); }, now, &job});
            queueDepth_.set(double(queue_.size()));
        }
        for (size_t h = 0; h < helpers; ++h)
            cv_.notify_one();
    }
    job.drain();
    if (helpers > 0) {
        // Every index is claimed: take back the helpers no worker has
        // picked up, then wait for the ones that did.
        size_t reclaimed = 0;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            reclaimed = std::erase_if(queue_, [&job](const QueuedTask& t) {
                return t.owner == &job;
            });
            queueDepth_.set(double(queue_.size()));
        }
        std::unique_lock<std::mutex> lock(job.mutex);
        job.helperExited.wait(lock, [&]() {
            return job.helpersExited == helpers - reclaimed;
        });
    }
    if (job.failure)
        std::rethrow_exception(job.failure);
}

} // namespace tileflow
