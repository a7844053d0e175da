#include "mapper/evalcache.hpp"

#include "common/hash.hpp"

namespace tileflow {

uint64_t
EvalCacheTraits::hash(const Key& choices)
{
    uint64_t hash = kFnvOffset;
    for (int64_t choice : choices)
        hash = fnvWord(hash, uint64_t(choice));
    return hash;
}

size_t
EvalCacheTraits::entryBytes(const Key& choices, const CachedEval& value)
{
    // Sizes, not capacities: the stored copies allocate exactly
    // size() elements, and a size-pure estimate guarantees the bytes
    // debited at eviction equal the bytes credited at insert.
    return 2 * (sizeof(Key) + choices.size() * sizeof(int64_t)) +
           sizeof(CachedEval) + value.failReason.size() +
           kCacheEntryOverheadBytes;
}

} // namespace tileflow
