/**
 * @file
 * Tests for common support: strings, logging, the deterministic RNG
 * and the thread pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "common/threadpool.hpp"

namespace tileflow {
namespace {

TEST(Strings, TrimRemovesSurroundingWhitespace)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("\t x\n"), "x");
    EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, TrimHandlesEmptyAndAllSpace)
{
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, SplitOnDelimiter)
{
    const auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(Strings, SplitKeepsEmptyPieces)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(Strings, JoinRoundTripsSplit)
{
    EXPECT_EQ(join({"x", "y", "z"}, "/"), "x/y/z");
    EXPECT_EQ(join({}, "/"), "");
}

TEST(Strings, StartsWith)
{
    EXPECT_TRUE(startsWith("warn: foo", "warn:"));
    EXPECT_FALSE(startsWith("foo", "warn:"));
    EXPECT_FALSE(startsWith("wa", "warn:"));
}

TEST(Strings, HumanCountScales)
{
    EXPECT_EQ(humanCount(1536.0), "1.54K");
    EXPECT_EQ(humanCount(2.0e6), "2.00M");
    EXPECT_EQ(humanCount(3.0e9), "3.00G");
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("boom ", 42), FatalError);
    try {
        fatal("value=", 7);
    } catch (const FatalError& e) {
        EXPECT_STREQ(e.what(), "value=7");
    }
}

TEST(Logging, ConcatFormatsMixedTypes)
{
    EXPECT_EQ(concat("a", 1, "b", 2.5), "a1b2.5");
}

TEST(Rng, DeterministicWithSameSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differ = 0;
    for (int i = 0; i < 32; ++i)
        differ += a.uniformInt(0, 1 << 20) != b.uniformInt(0, 1 << 20);
    EXPECT_GT(differ, 0);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(5, 9);
        EXPECT_GE(v, 5);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformRealInHalfOpenUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, ChoicePicksContainedElement)
{
    Rng rng(11);
    const std::vector<int> v{3, 5, 7};
    for (int i = 0; i < 50; ++i) {
        const int c = rng.choice(v);
        EXPECT_TRUE(c == 3 || c == 5 || c == 7);
    }
}

TEST(Rng, MixSeedSeparatesStreams)
{
    const uint64_t base = 0x7ea51eafULL;
    EXPECT_NE(mixSeed(base, 0, 0), mixSeed(base, 0, 1));
    EXPECT_NE(mixSeed(base, 0, 0), mixSeed(base, 1, 0));
    EXPECT_NE(mixSeed(base, 1, 0), mixSeed(base, 0, 1));
    // Deterministic: same inputs, same stream.
    EXPECT_EQ(mixSeed(base, 3, 5), mixSeed(base, 3, 5));
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4u);
    std::vector<std::atomic<int>> counts(1000);
    pool.parallelFor(counts.size(),
                     [&](size_t i) { counts[i].fetch_add(1); });
    for (const auto& c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, SubmitReturnsValue)
{
    ThreadPool pool(2);
    auto future = pool.submit([]() { return 21 * 2; });
    EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock)
{
    // A worker that fans out again runs its share itself and never
    // waits on a helper that no worker has picked up, even when every
    // peer is blocked the same way.
    ThreadPool pool(2);
    std::atomic<int> total{0};
    pool.parallelFor(8, [&](size_t) {
        pool.parallelFor(8, [&](size_t) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPool, ParallelForPropagatesExceptions)
{
    ThreadPool pool(2);
    EXPECT_THROW(pool.parallelFor(4,
                                  [](size_t i) {
                                      if (i == 2)
                                          fatal("boom");
                                  }),
                 FatalError);
}

TEST(ThreadPool, NestedParallelForSpreadsOverIdleWorkers)
{
    // One worker fans out while the other two sit idle. Each item
    // waits until a second thread has run an item too, so the call
    // finishes early only if the nested items spread beyond the worker
    // that made it.
    ThreadPool pool(4);
    std::mutex mutex;
    std::condition_variable joined;
    std::set<std::thread::id> threads;
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    pool.submit([&]() {
            ASSERT_TRUE(pool.onWorkerThread());
            pool.parallelFor(8, [&](size_t) {
                std::unique_lock<std::mutex> lock(mutex);
                threads.insert(std::this_thread::get_id());
                joined.notify_all();
                joined.wait_until(lock, give_up,
                                  [&]() { return threads.size() >= 2; });
            });
        })
        .get();
    EXPECT_GE(threads.size(), 2u);
    EXPECT_EQ(threads.count(std::this_thread::get_id()), 0u);
}

TEST(ThreadPool, OneWidePoolStartsNoThreadAndRunsOnTheCaller)
{
    // Linux lists a process's threads under /proc/self/task.
    const auto thread_count = []() {
        size_t n = 0;
        std::error_code ec;
        for (std::filesystem::directory_iterator it("/proc/self/task", ec),
             end;
             !ec && it != end; it.increment(ec))
            n += 1;
        return n;
    };
    const size_t before = thread_count();
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(thread_count(), before);

    const std::thread::id caller = std::this_thread::get_id();
    std::set<std::thread::id> threads;
    pool.parallelFor(16, [&](size_t) {
        threads.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(threads, std::set<std::thread::id>{caller});

    std::future<std::thread::id> ran_on =
        pool.submit([]() { return std::this_thread::get_id(); });
    EXPECT_EQ(ran_on.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(ran_on.get(), caller);
}

TEST(ThreadPool, ParallelForRunsEveryIndexAndRethrowsTheLowestFailure)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> counts(200);
    try {
        pool.parallelFor(counts.size(), [&](size_t i) {
            counts[i].fetch_add(1);
            if (i == 37) {
                // Thrown last in time: the higher indices fail first.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("37");
            }
            if (i == 90 || i == 150)
                throw std::runtime_error(std::to_string(i));
        });
        FAIL() << "parallelFor swallowed the exceptions";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "37");
    }
    for (const auto& c : counts)
        EXPECT_EQ(c.load(), 1);
}

TEST(ThreadPool, ParallelForTakesBackHelpersNoWorkerPickedUp)
{
    // Both workers are blocked, so the helper tasks parallelFor queues
    // cannot start: the caller runs every index and must take the
    // helpers back out of the queue before it returns.
    ThreadPool pool(3);
    std::mutex mutex;
    std::condition_variable cv;
    int blocked = 0;
    bool release = false;
    std::vector<std::future<void>> blockers;
    for (int w = 0; w < 2; ++w) {
        blockers.push_back(pool.submit([&]() {
            std::unique_lock<std::mutex> lock(mutex);
            blocked += 1;
            cv.notify_all();
            cv.wait(lock, [&]() { return release; });
        }));
    }
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&]() { return blocked == 2; });
    }

    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t tasks_before = metrics.counterValue("threadpool.tasks");
    std::set<std::thread::id> threads;
    pool.parallelFor(8, [&](size_t) {
        threads.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(metrics.gaugeValue("threadpool.queue_depth"), 0.0);
    EXPECT_EQ(metrics.counterValue("threadpool.tasks"), tasks_before);
    EXPECT_EQ(threads,
              std::set<std::thread::id>{std::this_thread::get_id()});

    {
        const std::lock_guard<std::mutex> lock(mutex);
        release = true;
    }
    cv.notify_all();
    for (std::future<void>& blocker : blockers)
        blocker.get();
}

TEST(ThreadPool, DefaultThreadCountHonorsEnvVar)
{
    setenv("TILEFLOW_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    unsetenv("TILEFLOW_THREADS");
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

} // namespace
} // namespace tileflow
