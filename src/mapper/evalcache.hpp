/**
 * @file
 * Sharded memoization cache for mapping evaluations.
 *
 * The GA resamples structural genes and the MCTS revisits tiling
 * prefixes, so the same complete choice vector is evaluated many times
 * per search (Sec. 7.2's budget counts every one). The cache keys on
 * the full choice vector — hashed with FNV-1a over its int64 entries,
 * compared element-wise on collision — and stores just the verdict the
 * search loop needs (valid + cycles), so a repeated sample skips the
 * tree build and the entire analysis; a pruned candidate's lower bound
 * is kept too, so a repeated prune skips the bound.
 *
 * EvalCache is a ShardedCache (common/shardedcache.hpp): sharded,
 * FIFO-bounded (unbounded by default), memory-budget aware, with
 * "evalcache.*" registry counters. Hit/miss counters are surfaced in
 * MapperResult.
 */

#ifndef TILEFLOW_MAPPER_EVALCACHE_HPP
#define TILEFLOW_MAPPER_EVALCACHE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/shardedcache.hpp"

namespace tileflow {

/**
 * The memoized verdict for one choice vector.
 *
 * Four states: an ordinarily *invalid* mapping (resource violation —
 * `valid == false, failed == false`), a *valid* one, an evaluation
 * that *failed* outright (the evaluator threw, or returned a
 * non-finite result), and a *bound-only* entry (`pruned`). Failed
 * evaluations are memoized as tagged infeasible entries — never as
 * ordinary results — so retries of a crashing candidate are cache
 * hits that carry the original failure reason, and hit/miss counters
 * stay honest.
 *
 * A bound-only entry records that the branch-and-bound screen
 * (mapper/guard.hpp) pruned the candidate before full evaluation. It
 * holds no verdict, only the candidate's lower bound, which does not
 * depend on the pruning threshold: a later lookup re-derives the
 * verdict against its own threshold (settles(), mapper/guard.hpp).
 * It never replaces a full verdict in the cache, and readers that
 * need a real result — the no-factor search path, checkpoint
 * serialization — skip it.
 */
struct CachedEval
{
    bool valid = false;
    double cycles = 0.0;

    /** Evaluation threw or produced a non-finite result. */
    bool failed = false;

    /** Why it failed (empty unless `failed`). */
    std::string failReason;

    /** Bound-only entry: pruned on its lower bound, never evaluated. */
    bool pruned = false;

    /** The lower bound of a bound-only entry, in cycles (+inf for a
     *  capacity reject, which every threshold prunes). */
    double boundCycles = 0.0;
};

struct EvalCacheTraits
{
    using Key = std::vector<int64_t>;
    using Value = CachedEval;

    /** FNV-1a over the bytes of the choice vector's int64 entries. */
    static uint64_t hash(const Key& choices);

    /** Key counted twice (map entry + FIFO copy), plus the value and
     *  its failure reason. */
    static size_t entryBytes(const Key& choices, const CachedEval& value);

    /** Merge rule: a bound-only entry never replaces a full verdict
     *  (concurrent GA tuners share one cache); otherwise the last
     *  writer wins. */
    static bool
    replaces(const CachedEval& existing, const CachedEval& incoming)
    {
        return existing.pruned || !incoming.pruned;
    }

    static constexpr const char* kMetricPrefix = "evalcache.";
    static constexpr const char* kBudgetName = "evalcache";
    static constexpr size_t kDefaultEntryCap = 0;
    static constexpr const char* kTraceHits = "evalcache.hits";
    static constexpr const char* kTraceMisses = "evalcache.misses";
};

using EvalCache = ShardedCache<EvalCacheTraits>;

} // namespace tileflow

#endif // TILEFLOW_MAPPER_EVALCACHE_HPP
