/**
 * @file
 * Sharded per-subtree analysis cache for incremental evaluation.
 *
 * The mapper's mutate / expand moves change one knob of a mapping at a
 * time, leaving most of the tree structurally identical to its parent.
 * This cache memoizes the expensive per-Tile-node analysis partials —
 * data-movement simulation, step-footprint geometry, and per-execution
 * latency — keyed on (subtreeHash, contextSignature), so re-evaluating
 * a mutated tree recomputes only the changed node's ancestor spine
 * while untouched sibling subtrees are served from cache.
 *
 * Key contract (see core/tree.hpp): two Tile nodes with equal
 * subtreeHash and equal contextSignature produce bit-identical
 * partials, because every analyzer quantity of a node depends only on
 * the node's subtree plus its ancestors' Tile loops. The cached values
 * are the exact doubles/int64s a fresh analysis would compute, and the
 * accumulation into whole-tree results runs through the same code
 * either way, so incremental evaluation is bit-identical to full
 * evaluation (the tier-1 property test asserts this per fuzz family).
 *
 * SubtreeCache is a ShardedCache (common/shardedcache.hpp) with
 * "analysis.subtree_*" registry counters. Each evaluated Tile node
 * performs exactly one lookup, so hits + misses == lookups always
 * holds.
 */

#ifndef TILEFLOW_ANALYSIS_SUBTREECACHE_HPP
#define TILEFLOW_ANALYSIS_SUBTREECACHE_HPP

#include <cstdint>

#include "analysis/datamovement.hpp"
#include "common/hash.hpp"
#include "common/shardedcache.hpp"

namespace tileflow {

/** Cache key: structural identity + ancestor-loop context. */
struct SubtreeKey
{
    uint64_t hash = 0;    ///< subtreeHash(node)
    uint64_t context = 0; ///< contextSignature(node)

    bool operator==(const SubtreeKey& other) const
    {
        return hash == other.hash && context == other.context;
    }
};

/**
 * Memoized analysis partials of one Tile node.
 *
 * Latency fields may be absent (`hasLatency == false`) when the
 * recording evaluation bailed out before the latency phase (resource
 * enforcement failure), or when only one of the two latency passes was
 * freshly computed — a later evaluation that does reach the phase
 * upgrades the entry in place (last writer wins).
 */
struct SubtreePartial
{
    /** Data-movement totals + per-child fills/drains (exact). */
    DmNodePartial dm;

    /** Step footprint in bytes (exact). */
    int64_t footprintBytes = 0;

    /** Latency fields below are valid. */
    bool hasLatency = false;

    /** Per-execution cycles, memory pass. */
    double cycles = 0.0;

    /** Per-execution cycles, pure-compute pass. */
    double computeCycles = 0.0;
};

struct SubtreeCacheTraits
{
    using Key = SubtreeKey;
    using Value = SubtreePartial;

    static uint64_t
    hash(const SubtreeKey& key)
    {
        // hash already mixes the whole subtree; fold in context.
        return key.hash ^ (key.context * kSplitMixGamma);
    }

    /** Key counted twice (map entry + FIFO copy), plus the partial's
     *  per-child vectors. */
    static size_t
    entryBytes(const SubtreeKey&, const SubtreePartial& value)
    {
        return 2 * sizeof(SubtreeKey) + sizeof(SubtreePartial) +
               (value.dm.childFill.size() + value.dm.childDrain.size()) *
                   sizeof(double) +
               value.dm.childLevels.size() * sizeof(int) +
               kCacheEntryOverheadBytes;
    }

    static constexpr const char* kMetricPrefix = "analysis.subtree_";
    static constexpr const char* kBudgetName = "subtreecache";
    static constexpr size_t kDefaultEntryCap = 4096;
    static constexpr const char* kTraceHits = nullptr;
    static constexpr const char* kTraceMisses = nullptr;
};

using SubtreeCache = ShardedCache<SubtreeCacheTraits>;

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_SUBTREECACHE_HPP
