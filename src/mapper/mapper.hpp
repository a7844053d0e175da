/**
 * @file
 * The TileFlow mapper facade (Sec. 6): genetic algorithm over the
 * ordering/binding space combined with MCTS over tiling tables.
 *
 * Exploration runs on a fork-join ThreadPool (MapperConfig::threads
 * wide, defaulting to TILEFLOW_THREADS / hardware_concurrency) with a
 * sharded EvalCache memoizing repeated mapping evaluations. For a
 * fixed seed a 1-thread search is bit-identical, and so is
 * exploreTiling at any thread count; a multi-threaded exploreSpace is
 * not yet reproducible, because its concurrent tuners share the cache
 * (DESIGN.md §4.6).
 *
 * The search is fault-tolerant: candidate evaluations that throw or
 * return non-finite results are recorded as infeasible (see
 * MapperResult::failureHistogram) instead of aborting; wall-clock /
 * evaluation budgets and external cancellation degrade gracefully to
 * best-so-far with `timedOut` set; and with `checkpointPath` set the
 * search state is persisted atomically so an interrupted run resumes
 * bit-identically.
 */

#ifndef TILEFLOW_MAPPER_MAPPER_HPP
#define TILEFLOW_MAPPER_MAPPER_HPP

#include <string>

#include "analysis/evaluator.hpp"
#include "common/stop.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/guard.hpp"
#include "mapper/searchstats.hpp"

namespace tileflow {

/** Mapper configuration (maps onto Sec. 7.2's round structure). */
struct MapperConfig
{
    /** GA generations ("rounds" in Fig. 9b/9c). */
    int rounds = 10;

    /** Individuals per generation. */
    int population = 8;

    /** MCTS samples used to tune each individual's tiling. */
    int tilingSamples = 40;

    /** MCTS rollout batch size (fixed across thread counts so the
     *  search trajectory is too). */
    int mctsBatch = 8;

    /** Threads that do search work, the calling thread included (the
     *  pool starts threads-1 workers); 0 =
     *  ThreadPool::defaultThreadCount() (the TILEFLOW_THREADS
     *  environment variable when set). */
    int threads = 0;

    uint64_t seed = 0x7ea51eafULL;

    /** Wall-clock budget in milliseconds (0 = unlimited). Expiry is
     *  polled at generation / rollout-batch boundaries; the search
     *  returns best-so-far with `timedOut` set, never throws. */
    int64_t timeBudgetMs = 0;

    /** Cap on Evaluator::evaluate calls (0 = unlimited); best-effort,
     *  overshoots by at most one batch per concurrent tuner. */
    int64_t maxEvaluations = 0;

    /** External kill switch (nullable; must outlive the call). */
    const CancellationToken* cancel = nullptr;

    /** Checkpoint file ("" disables). If a checkpoint written by the
     *  same configuration exists there, the search resumes from it;
     *  otherwise it starts fresh and overwrites. Writes are atomic
     *  (tmp + rename): a crash mid-write never corrupts the file. */
    std::string checkpointPath;

    /** GA generations between checkpoint writes. */
    int checkpointEveryRounds = 1;

    /** MCTS batches between checkpoint writes (tiling-only search). */
    int checkpointEveryBatches = 8;

    /** Emit an inform() progress line (best-so-far, evals/sec, cache
     *  hit rate, deadline remaining) at most every this many
     *  milliseconds, polled at the StopControl polling points
     *  (generation / rollout-batch boundaries). <= 0 disables. */
    int64_t progressIntervalMs = 0;

    /**
     * Evaluate candidates with a SubtreeCache attached to (a copy of)
     * the caller's Evaluator, memoizing per-subtree partials.
     * Bit-identical to the plain evaluator — search results and
     * checkpoints are unaffected, so this knob is deliberately NOT
     * part of the checkpoint config hash; it only trades memory for
     * candidate throughput.
     */
    bool incremental = true;

    /**
     * Branch-and-bound candidate screening (analysis/lowerbound.hpp):
     * every sampled candidate is lower-bounded first, and one that
     * provably cannot beat the best-so-far — or provably overflows a
     * buffer — is pruned without full evaluation (counted in
     * `MapperResult::boundPruned`, never in `evaluations`). Like
     * `incremental`, deliberately NOT part of the checkpoint config
     * hash, so checkpoints interoperate across the setting; unlike
     * `incremental`, pruning IS part of the search trajectory (pruned
     * samples feed a 0 reward back into the search).
     */
    bool boundPrune = true;

    /** SubtreeCache per-shard entry cap (0 = unbounded); see
     *  analysis/subtreecache.hpp. */
    size_t subtreeCacheCap = 4096;

    /** EvalCache per-shard entry cap (0 = unbounded). */
    size_t evalCacheCap = 0;

    /** Per-shard byte cap of both the EvalCache and the SubtreeCache
     *  (0 = unbounded). Like the entry caps, it changes hit rates
     *  only, never values, and is deliberately NOT part of the
     *  checkpoint config hash. */
    size_t cacheBytesCap = 0;
};

/** Exploration outcome; `trace` holds one entry per round (GA) or
 *  per sample (tiling-only search). */
struct MapperResult : SearchStats
{
    AnalysisTree bestTree;
    std::vector<int64_t> bestChoices;
    double bestCycles = 0.0;
    bool found = false;

    /** Sum of failureHistogram counts. */
    uint64_t failedEvaluations = 0;

    /** Offspring rejected by the GA's cheap validateTree pre-screen
     *  (counted separately from runtime infeasibility). */
    uint64_t prescreenRejects = 0;

    explicit MapperResult(const Workload& workload)
        : bestTree(workload)
    {
    }
};

/** Run the full 3D-space exploration over a mapping space. */
MapperResult exploreSpace(const Evaluator& evaluator,
                          const MappingSpace& space,
                          const MapperConfig& config = {});

/** Run a tiling-only exploration (Fig. 9a): structural knobs fixed at
 *  their defaults, pure MCTS over the factors. */
MapperResult exploreTiling(const Evaluator& evaluator,
                           const MappingSpace& space, int samples,
                           uint64_t seed = 0x7ea51eafULL,
                           const MapperConfig& config = {});

} // namespace tileflow

#endif // TILEFLOW_MAPPER_MAPPER_HPP
