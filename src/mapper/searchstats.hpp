/**
 * @file
 * The accounting every search engine reports: one SearchStats record
 * shared by MctsResult, GeneticResult and MapperResult, and the
 * RunLedger that keeps its checkpoint-aware totals.
 */

#ifndef TILEFLOW_MAPPER_SEARCHSTATS_HPP
#define TILEFLOW_MAPPER_SEARCHSTATS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mapper/evalcache.hpp"

namespace tileflow {

/** Failure-reason histogram: reason string → occurrence count. */
using FailureHistogram = std::map<std::string, uint64_t>;

/** Merge `from` into `into` (histogram accumulation). */
inline void
mergeHistogram(FailureHistogram& into, const FailureHistogram& from)
{
    for (const auto& [reason, count] : from)
        into[reason] += count;
}

/** Sum of all counts in a histogram. */
inline uint64_t
histogramTotal(const FailureHistogram& hist)
{
    uint64_t total = 0;
    for (const auto& [reason, count] : hist)
        total += count;
    return total;
}

/**
 * Search accounting. Counters are checkpoint-aware: a resumed run
 * includes the pre-kill portion, and ckptWriteStats/ckptReadStats
 * (mapper/checkpoint.hpp) persist the whole record.
 */
struct SearchStats
{
    /** Best-so-far cycles per GA generation (Fig. 9b/9c) or per MCTS
     *  sample (Fig. 9a); NaN until the first valid mapping (never a
     *  DBL_MAX sentinel). */
    std::vector<double> trace;

    /** Actual Evaluator::evaluate invocations (cache hits excluded;
     *  repeated samples are memoized). */
    int evaluations = 0;

    /** Candidates discarded by the branch-and-bound lower bound —
     *  never fully evaluated, never counted in `evaluations`. A
     *  repeat prune answered from the EvalCache's bound-only entry
     *  is a cache hit, not counted here again. */
    uint64_t boundPruned = 0;

    /** EvalCache hits/misses charged to this run. */
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;

    /** True when a budget or cancellation ended the search early;
     *  `stopReason` is "deadline", "cancelled" or "evaluation
     *  budget". Best-so-far fields stay usable. */
    bool timedOut = false;
    std::string stopReason;

    /** True when the search resumed from an on-disk checkpoint. */
    bool resumed = false;

    /** Candidate evaluations that threw or returned non-finite
     *  results, keyed by failure reason. These are *search outcomes*
     *  (the candidate scores as infeasible), not errors. */
    FailureHistogram failureHistogram;

    /** Wall clock consumed by the search — what the time budget is
     *  charged with across kill/resume cycles. */
    int64_t elapsedMs = 0;
};

/**
 * The "pre-kill portion + this process's delta" arithmetic behind a
 * SearchStats' wall clock and cache counters. Construct at run start;
 * restore() with the stats read from a checkpoint; snapshot() once
 * the cache is settled — a rejected checkpoint clears the cache, which
 * zeroes its counters, and a snapshot straddling that reset would make
 * the deltas wrap.
 */
class RunLedger
{
  public:
    /** `cache` may be null (no memoization: the cache counters stay at
     *  their restored values). */
    explicit RunLedger(const EvalCache* cache)
        : cache_(cache), start_(std::chrono::steady_clock::now())
    {
        snapshot();
    }

    void
    restore(const SearchStats& stats)
    {
        restoredMs_ = stats.elapsedMs;
        restoredHits_ = stats.cacheHits;
        restoredMisses_ = stats.cacheMisses;
    }

    void
    snapshot()
    {
        hitsBefore_ = cache_ ? cache_->hits() : 0;
        missesBefore_ = cache_ ? cache_->misses() : 0;
    }

    /** Wall clock spent before the kill this run resumed from. */
    int64_t restoredMs() const { return restoredMs_; }

    /** This process's share: wall clock and cache traffic. */
    int64_t
    sessionMs() const
    {
        return std::chrono::duration_cast<std::chrono::milliseconds>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }
    uint64_t
    sessionHits() const
    {
        return cache_ ? cache_->hits() - hitsBefore_ : 0;
    }
    uint64_t
    sessionMisses() const
    {
        return cache_ ? cache_->misses() - missesBefore_ : 0;
    }

    /** Write the checkpoint-aware totals into `stats`. */
    void
    settle(SearchStats& stats) const
    {
        stats.elapsedMs = restoredMs_ + sessionMs();
        stats.cacheHits = restoredHits_ + sessionHits();
        stats.cacheMisses = restoredMisses_ + sessionMisses();
    }

  private:
    const EvalCache* cache_;
    std::chrono::steady_clock::time_point start_;
    int64_t restoredMs_ = 0;
    uint64_t restoredHits_ = 0;
    uint64_t restoredMisses_ = 0;
    uint64_t hitsBefore_ = 0;
    uint64_t missesBefore_ = 0;
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_SEARCHSTATS_HPP
