/**
 * @file
 * Genetic algorithm over structural encodings (Sec. 6, Fig. 7a/7b).
 *
 * The GA evolves the ordering/binding genes (which ops fuse, which
 * primitive binds them, whether work spreads across cores); each
 * individual's fitness comes from an MCTS pass over its tiling table.
 * The top-K individuals seed the next population through crossover
 * and mutation.
 *
 * Each generation's individuals are tuned concurrently on a
 * ThreadPool, which every tuner also uses for its rollout batches.
 * Every (generation, individual) pair gets its own Rng seeded with
 * mixSeed(seed, generation, index), and selection / crossover stay on
 * the caller's thread. A shared EvalCache memoizes mapping evaluations
 * across individuals and generations; because concurrent tuners race
 * on it, the trajectory is bit-identical for a fixed seed only at one
 * thread (DESIGN.md §4.6).
 *
 * Fault tolerance: individual fitness evaluation goes through the
 * guarded boundary (mapper/guard.hpp), so a throwing or NaN-poisoned
 * candidate becomes an invalid individual with its reason counted in
 * `GeneticResult.failureHistogram` — never an aborted search. Fresh
 * offspring are pre-screened (one tree build: validateTree plus the
 * lower-bound capacity screen) before paying for a full MCTS pass;
 * rejects are resampled and counted separately in
 * `prescreenRejects`. Wall-clock / evaluation budgets
 * and external cancellation are polled at generation boundaries (and,
 * via the shared StopControl, at each tuner's batch boundaries);
 * tripping them returns best-so-far with `timedOut` set. With
 * `checkpointPath` set, completed generations are persisted
 * atomically and a matching checkpoint resumes the run
 * bit-identically (for a fixed seed and thread count).
 */

#ifndef TILEFLOW_MAPPER_GENETIC_HPP
#define TILEFLOW_MAPPER_GENETIC_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "common/rng.hpp"
#include "common/stop.hpp"
#include "common/threadpool.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/guard.hpp"
#include "mapper/mapper.hpp"

namespace tileflow {

/**
 * GA configuration: the mapper's knobs (`rounds` generations of
 * `population` individuals, `tilingSamples` MCTS samples each, the
 * budgets, checkpointing and pruning; see MapperConfig) plus the GA's
 * own. The evaluator handed to GeneticMapper decides subtree
 * memoization, so `incremental` and `subtreeCacheCap` are read by
 * exploreSpace, not here; `checkpointEveryBatches` is tiling-only.
 */
struct GeneticConfig : MapperConfig
{
    GeneticConfig() = default;
    explicit GeneticConfig(const MapperConfig& base) : MapperConfig(base) {}

    /** Individuals kept as parents of the next generation. */
    int topK = 3;

    /** Per-structural-gene mutation probability. */
    double mutationRate = 0.25;

    /** Pre-screen offspring with validateTree (cheap structural
     *  checks) and the lower-bound capacity screen before paying full
     *  evaluation. */
    bool prescreen = true;

    /** Resample attempts per offspring slot when pre-screening
     *  rejects a candidate; the last attempt is kept regardless. */
    int prescreenRetries = 4;
};

/** One evolved individual. */
struct Individual
{
    std::vector<int64_t> choices;

    /** Meaningful only when `valid` (NaN otherwise). */
    double cycles = 0.0;
    bool valid = false;
};

/** GA outcome; `trace` holds one entry per generation. */
struct GeneticResult : SearchStats
{
    Individual best;

    /** Offspring rejected by the cheap validateTree pre-screen before
     *  any evaluation was paid for (distinct from the runtime
     *  infeasibility in `failureHistogram`). */
    uint64_t prescreenRejects = 0;
};

/** The GA driver; composes with MctsTuner per individual. */
class GeneticMapper
{
  public:
    /**
     * `pool` / `cache` may be shared with other components; when null
     * the mapper creates its own (pool sized by config.threads, cache
     * capped by config.evalCacheCap / cacheBytesCap).
     */
    GeneticMapper(const Evaluator& evaluator, const MappingSpace& space,
                  GeneticConfig config = {}, ThreadPool* pool = nullptr,
                  EvalCache* cache = nullptr)
        : evaluator_(&evaluator),
          space_(&space),
          config_(config),
          pool_(pool),
          cache_(cache)
    {
    }

    GeneticResult run();

  private:
    const Evaluator* evaluator_;
    const MappingSpace* space_;
    GeneticConfig config_;
    ThreadPool* pool_;
    EvalCache* cache_;
};

} // namespace tileflow

#endif // TILEFLOW_MAPPER_GENETIC_HPP
