/**
 * @file
 * Timing and allocation counting for calls the benchmark makes into
 * the program's layers.
 */

#ifndef PERFBENCH_TIMING_HPP
#define PERFBENCH_TIMING_HPP

#include <cstdint>
#include <utility>

#include "common/telemetry.hpp"

namespace perfbench {

/** Heap allocations made so far by the calling thread (allocs.cpp
 *  replaces the global operator new to count them). */
uint64_t threadAllocs();

/** Host time and heap allocations of one kind of call. */
struct CallStats
{
    uint64_t calls = 0;
    uint64_t ns = 0;
    uint64_t allocs = 0;

    double meanUs() const { return calls ? double(ns) / calls / 1e3 : 0.0; }
    double meanAllocs() const { return calls ? double(allocs) / calls : 0.0; }
};

/** Call `fn`, add its time and allocations to `stats`, and record it
 *  as a span of the benchmark's own category (`span` must be a
 *  literal). Accounts for the call even when it throws. */
template <typename F>
auto
timed(const char* span, CallStats& stats, F&& fn)
{
    struct Account
    {
        const char* span;
        CallStats& stats;
        uint64_t allocs = threadAllocs();
        uint64_t start = tileflow::telemetryNowNs();

        ~Account()
        {
            const uint64_t end = tileflow::telemetryNowNs();
            stats.ns += end - start;
            stats.allocs += threadAllocs() - allocs;
            ++stats.calls;
            if (tileflow::tracingEnabled())
                tileflow::traceRecordSpan(span, "bench", start, end);
        }
    } account{span, stats};
    return std::forward<F>(fn)();
}

} // namespace perfbench

#endif // PERFBENCH_TIMING_HPP
