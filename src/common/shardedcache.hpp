/**
 * @file
 * Sharded, bounded, memory-budget-aware memo table: the one
 * implementation behind EvalCache (mapper/evalcache.hpp) and
 * SubtreeCache (analysis/subtreecache.hpp). A traits type supplies
 * only what differs — `Key`, `Value`, `hash(key)`, the size-pure
 * `entryBytes(key, value)`, `kMetricPrefix` (registry names are
 * `<prefix>lookups`, `hits`, `misses`, `inserts`, `evictions`,
 * `bytes_inserted`, `bytes_evicted` and the `<prefix>bytes` gauge),
 * `kBudgetName`, `kDefaultEntryCap`, the string-literal
 * `kTraceHits`/`kTraceMisses` trace counter names (nullptr: none),
 * and optionally a `replaces(existing, incoming)` merge rule for an
 * insert over an existing key.
 *
 * The key hash picks one of `shards` independently-locked maps, each
 * FIFO-bounded by an entry cap and a byte cap. Eviction changes hit
 * rates only, never values — an evicted key is simply recomputed —
 * so checkpoint/resume and memory-pressure runs stay bit-identical.
 * Because entryBytes() depends on sizes only, insert credits equal
 * eviction debits and the gauge stays exactly
 * `bytes_inserted − bytes_evicted` (telemetry_check asserts it).
 */

#ifndef TILEFLOW_COMMON_SHARDEDCACHE_HPP
#define TILEFLOW_COMMON_SHARDEDCACHE_HPP

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/membudget.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

/** Fixed per-entry overhead for Traits::entryBytes: the unordered_map
 *  node (hash + next pointer + bucket share) and the FIFO deque slot,
 *  amortized. */
constexpr size_t kCacheEntryOverheadBytes = 64;

template <class Traits>
class ShardedCache
{
  public:
    using Key = typename Traits::Key;
    using Value = typename Traits::Value;

    /** Per-shard caps: FIFO-evict beyond this many entries / bytes;
     *  0 = unbounded. Soft memory pressure halves both (shrink()). */
    explicit ShardedCache(size_t shards = 16,
                          size_t maxEntriesPerShard = Traits::kDefaultEntryCap,
                          size_t maxBytesPerShard = 0)
        : shards_(shards == 0 ? 1 : shards),
          maxEntriesPerShard_(maxEntriesPerShard),
          maxBytesPerShard_(maxBytesPerShard),
          budgetReg_(Traits::kBudgetName, [this] { return bytes(); },
                     [this](MemPressure level) { return shrink(level); })
    {
    }

    ~ShardedCache()
    {
        // Stop pressure callbacks first, then settle the gauge: a
        // destroyed cache's live bytes count as evicted.
        budgetReg_.release();
        creditEvictions(0, dropAll(/*blocking=*/true).second);
    }

    ShardedCache(const ShardedCache&) = delete;
    ShardedCache& operator=(const ShardedCache&) = delete;

    /** The size-pure per-entry byte estimate the accounting uses. */
    static size_t
    entryBytes(const Key& key, const Value& value)
    {
        return Traits::entryBytes(key, value);
    }

    /** Find a memoized value; counts a lookup and a hit or a miss. */
    std::optional<Value>
    lookup(const Key& key)
    {
        return lookup(key, [](const Value&) { return true; });
    }

    /**
     * Find a memoized value that the caller may or may not be able to
     * use: counts a hit only when `usable(value)`, a miss otherwise
     * (or when the key is absent), and returns the value either way.
     */
    template <class Usable>
    std::optional<Value>
    lookup(const Key& key, Usable&& usable)
    {
        metricLookups_.add();
        std::optional<Value> found;
        Shard& shard = shardFor(key);
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.map.find(key);
            if (it != shard.map.end())
                found = it->second;
        }
        if (found && usable(*found)) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            metricHits_.add();
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            metricMisses_.add();
        }
        return found;
    }

    /** Memoize a value (may FIFO-evict). An existing entry is
     *  overwritten unless the traits' optional
     *  `replaces(existing, incoming)` merge rule says otherwise;
     *  without one, the last writer wins. */
    void
    insert(const Key& key, Value value)
    {
        const size_t newBytes = entryBytes(key, value);
        uint64_t evicted = 0;
        uint64_t evictedBytes = 0;
        Shard& shard = shardFor(key);
        {
            std::lock_guard<std::mutex> lock(shard.mutex);
            const auto it = shard.map.find(key);
            if constexpr (requires { Traits::replaces(it->second, value); }) {
                if (it != shard.map.end() &&
                    !Traits::replaces(it->second, value))
                    return;
            }
            if (it != shard.map.end()) {
                // Overwrite: the old entry's bytes count as evicted,
                // the new entry's as inserted, keeping both exact.
                const size_t oldBytes = entryBytes(it->first, it->second);
                evictedBytes += oldBytes;
                shard.bytes -= std::min(shard.bytes, oldBytes);
                it->second = std::move(value);
            } else {
                shard.map.emplace(key, std::move(value));
                shard.order.push_back(key);
            }
            shard.bytes += newBytes;
            const size_t entryCap =
                maxEntriesPerShard_.load(std::memory_order_relaxed);
            const size_t byteCap =
                maxBytesPerShard_.load(std::memory_order_relaxed);
            while (((entryCap > 0 && shard.map.size() > entryCap) ||
                    (byteCap > 0 && shard.bytes > byteCap)) &&
                   !shard.order.empty()) {
                evictedBytes += evictOneLocked(shard);
                ++evicted;
            }
        }
        metricInserts_.add();
        metricBytesInserted_.add(newBytes);
        metricBytes_.add(double(newBytes));
        creditEvictions(evicted, evictedBytes);
        if constexpr (Traits::kTraceHits != nullptr) {
            if (tracingEnabled()) {
                // Chrome counter tracks: hit/miss totals over the
                // run's timeline, sampled at each insert.
                traceCounter(Traits::kTraceHits,
                             double(metricHits_.value()));
                traceCounter(Traits::kTraceMisses,
                             double(metricMisses_.value()));
            }
        }
    }

    /**
     * Per-instance counters since construction or the last clear().
     * Searches that need totals scoped to one run snapshot these
     * around the run and report the delta — never compare raw totals
     * across a clear().
     */
    uint64_t hits() const { return hits_.load(); }
    uint64_t misses() const { return misses_.load(); }

    /** Entries evicted by the caps or by memory pressure. */
    uint64_t evictions() const { return evictions_.load(); }

    /** Number of distinct keys memoized. */
    size_t
    size() const
    {
        return sumShards([](const Shard& s) { return s.map.size(); });
    }

    /** Approximate bytes held; exact against entryBytes(). */
    uint64_t
    bytes() const
    {
        return sumShards([](const Shard& s) { return s.bytes; });
    }

    /**
     * Memory-pressure hook (registered with MemoryBudget). Soft: halve
     * the caps and evict down to them; Hard: drop every entry. Unlike
     * clear(), hit/miss counters are kept, so run deltas stay
     * consistent when pressure fires mid-run. A shard a worker holds
     * is skipped (try_lock), never waited on: an allocation-failure
     * reclaim can fire inside that worker's insert. Returns the
     * approximate bytes freed.
     */
    uint64_t
    shrink(MemPressure level)
    {
        if (level == MemPressure::Hard)
            return evictAll();
        if (level != MemPressure::Soft)
            return 0;

        size_t largest = 0;
        for (Shard& shard : shards_) {
            std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
            if (lock.owns_lock())
                largest = std::max(largest, shard.bytes);
        }
        // Halve each cap toward its floor, so a long-pressured run
        // keeps a minimally useful cache; a cap already below its
        // floor is kept, never raised. An unbounded byte cap becomes
        // half the largest shard.
        const auto halve = [](size_t cap, size_t floor) {
            return std::min(cap, std::max(floor, cap / 2));
        };
        const size_t bytesNow =
            maxBytesPerShard_.load(std::memory_order_relaxed);
        const size_t byteCap =
            bytesNow > 0 ? halve(bytesNow, kMinBytesPerShard)
                         : std::max(kMinBytesPerShard, largest / 2);
        maxBytesPerShard_.store(byteCap, std::memory_order_relaxed);
        const size_t entryCap =
            maxEntriesPerShard_.load(std::memory_order_relaxed);
        if (entryCap > 0)
            maxEntriesPerShard_.store(halve(entryCap, kMinEntriesPerShard),
                                      std::memory_order_relaxed);

        uint64_t freed = 0;
        uint64_t entries = 0;
        for (Shard& shard : shards_) {
            std::unique_lock<std::mutex> lock(shard.mutex, std::try_to_lock);
            if (!lock.owns_lock())
                continue;
            while (shard.bytes > byteCap && !shard.order.empty()) {
                freed += evictOneLocked(shard);
                ++entries;
            }
        }
        creditEvictions(entries, freed);
        return freed;
    }

    /** shrink(Hard): drop every entry, keep hit/miss counters. */
    uint64_t
    evictAll()
    {
        const auto [entries, freed] = dropAll(/*blocking=*/false);
        creditEvictions(entries, freed);
        return freed;
    }

    /**
     * Drop every entry AND zero the instance hit/miss/eviction
     * counters, so rates computed after a clear (tuner restart,
     * rejected checkpoint) never mix fresh traffic with stale totals.
     * The dropped entries still count as evictions in the registry.
     */
    void
    clear()
    {
        const auto [entries, freed] = dropAll(/*blocking=*/true);
        creditEvictions(entries, freed);
        hits_.store(0, std::memory_order_relaxed);
        misses_.store(0, std::memory_order_relaxed);
        evictions_.store(0, std::memory_order_relaxed);
    }

    /**
     * Visit every entry as fn(key, value) (checkpoint serialization).
     * Not synchronized against concurrent insert(): call only while
     * no workers are running. Iteration order is unspecified.
     */
    template <class Fn>
    void
    forEach(Fn&& fn) const
    {
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            for (const auto& [key, value] : shard.map)
                fn(key, value);
        }
    }

  private:
    /** Soft-pressure cap floors. */
    static constexpr size_t kMinEntriesPerShard = 64;
    static constexpr size_t kMinBytesPerShard = 4096;

    struct KeyHash
    {
        size_t
        operator()(const Key& key) const
        {
            return size_t(Traits::hash(key));
        }
    };

    struct Shard
    {
        mutable std::mutex mutex;
        std::unordered_map<Key, Value, KeyHash> map;
        std::deque<Key> order; ///< insertion order (FIFO cap)
        size_t bytes = 0; ///< sum of entryBytes() over map (under mutex)
    };

    Shard&
    shardFor(const Key& key)
    {
        return shards_[Traits::hash(key) % shards_.size()];
    }

    template <class Field>
    uint64_t
    sumShards(Field field) const
    {
        uint64_t total = 0;
        for (const Shard& shard : shards_) {
            std::lock_guard<std::mutex> lock(shard.mutex);
            total += field(shard);
        }
        return total;
    }

    /** Pop the FIFO-oldest entry; returns its bytes (caller holds the
     *  shard mutex and credits the metrics). */
    size_t
    evictOneLocked(Shard& shard)
    {
        size_t freed = 0;
        const auto it = shard.map.find(shard.order.front());
        if (it != shard.map.end()) {
            freed = entryBytes(it->first, it->second);
            shard.bytes -= std::min(shard.bytes, freed);
            shard.map.erase(it);
        }
        shard.order.pop_front();
        return freed;
    }

    /** Empty every shard (skipping contended ones unless `blocking`);
     *  returns {entries, bytes} dropped, not yet credited. */
    std::pair<uint64_t, uint64_t>
    dropAll(bool blocking)
    {
        uint64_t entries = 0;
        uint64_t freed = 0;
        for (Shard& shard : shards_) {
            std::unique_lock<std::mutex> lock(shard.mutex, std::defer_lock);
            if (blocking)
                lock.lock();
            else if (!lock.try_lock())
                continue;
            entries += shard.map.size();
            freed += shard.bytes;
            shard.map.clear();
            shard.order.clear();
            shard.bytes = 0;
        }
        return {entries, freed};
    }

    /** Credit an eviction batch to instance + registry accounting. */
    void
    creditEvictions(uint64_t entries, uint64_t bytes)
    {
        if (entries > 0) {
            evictions_.fetch_add(entries, std::memory_order_relaxed);
            metricEvictions_.add(entries);
        }
        if (bytes > 0) {
            metricBytesEvicted_.add(bytes);
            metricBytes_.add(-double(bytes));
        }
    }

    static Counter&
    counter(const char* name)
    {
        return MetricsRegistry::global().counter(
            std::string(Traits::kMetricPrefix) + name);
    }

    std::vector<Shard> shards_;
    std::atomic<size_t> maxEntriesPerShard_;
    std::atomic<size_t> maxBytesPerShard_;
    std::atomic<uint64_t> hits_{0};
    std::atomic<uint64_t> misses_{0};
    std::atomic<uint64_t> evictions_{0};

    // Process-cumulative mirrors (survive clear(); see DESIGN.md §10).
    Counter& metricLookups_ = counter("lookups");
    Counter& metricHits_ = counter("hits");
    Counter& metricMisses_ = counter("misses");
    Counter& metricInserts_ = counter("inserts");
    Counter& metricEvictions_ = counter("evictions");
    Counter& metricBytesInserted_ = counter("bytes_inserted");
    Counter& metricBytesEvicted_ = counter("bytes_evicted");
    Gauge& metricBytes_ = MetricsRegistry::global().gauge(
        std::string(Traits::kMetricPrefix) + "bytes");

    // Registered last so it is destroyed first: no shrink callback
    // can arrive once the destructor body runs.
    MemReclaimRegistration budgetReg_;
};

} // namespace tileflow

#endif // TILEFLOW_COMMON_SHARDEDCACHE_HPP
