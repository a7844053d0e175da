#include "mapper/mapper.hpp"

#include "common/logging.hpp"
#include "common/threadpool.hpp"
#include "mapper/genetic.hpp"
#include "mapper/mcts.hpp"

namespace tileflow {

namespace {

/** What one exploration runs on: the pool, both caches, and a copy of
 *  the caller's evaluator with the subtree cache attached when
 *  `config.incremental` is set. */
struct SearchContext
{
    ThreadPool pool;
    EvalCache cache;
    SubtreeCache subtrees;
    Evaluator evaluator;

    SearchContext(const Evaluator& base, const MapperConfig& config)
        : pool(config.threads > 0 ? size_t(config.threads) : 0),
          cache(16, config.evalCacheCap, config.cacheBytesCap),
          subtrees(16, config.subtreeCacheCap, config.cacheBytesCap),
          evaluator(base)
    {
        if (config.incremental)
            evaluator.setSubtreeCache(&subtrees);
    }
};

/** Fill the best-mapping fields of `result` from a winning choice
 *  vector, and the stats shared with the engine. */
void
finish(MapperResult& result, const SearchStats& stats,
       const MappingSpace& space, bool found,
       const std::vector<int64_t>& choices, double cycles)
{
    static_cast<SearchStats&>(result) = stats;
    result.failedEvaluations = histogramTotal(result.failureHistogram);
    if (found) {
        result.found = true;
        result.bestCycles = cycles;
        result.bestChoices = choices;
        result.bestTree = space.build(choices);
    }
}

} // namespace

MapperResult
exploreSpace(const Evaluator& evaluator, const MappingSpace& space,
             const MapperConfig& config)
{
    SearchContext ctx(evaluator, config);
    GeneticMapper mapper(ctx.evaluator, space, GeneticConfig(config),
                         &ctx.pool, &ctx.cache);
    const GeneticResult ga = mapper.run();

    MapperResult result(evaluator.workload());
    result.prescreenRejects = ga.prescreenRejects;
    finish(result, ga, space, ga.best.valid, ga.best.choices,
           ga.best.cycles);
    return result;
}

MapperResult
exploreTiling(const Evaluator& evaluator, const MappingSpace& space,
              int samples, uint64_t seed, const MapperConfig& config)
{
    Rng rng(seed);
    SearchContext ctx(evaluator, config);
    const StopControl stop(Deadline::afterMs(config.timeBudgetMs),
                           config.cancel, config.maxEvaluations);
    const LowerBoundEvaluator lower_bound(ctx.evaluator);

    MctsTuner tuner(ctx.evaluator, space, rng);
    if (config.boundPrune)
        tuner.setBoundPrune(&lower_bound);
    tuner.setPool(&ctx.pool);
    tuner.setCache(&ctx.cache);
    tuner.setBatch(config.mctsBatch);
    tuner.setStop(&stop);
    tuner.setProgress(config.progressIntervalMs);
    if (!config.checkpointPath.empty()) {
        tuner.setCheckpoint(config.checkpointPath,
                            config.checkpointEveryBatches, seed);
    }
    const MctsResult tuned = tuner.tune(space.defaultChoices(), samples);

    MapperResult result(evaluator.workload());
    finish(result, tuned, space, tuned.found, tuned.bestChoices,
           tuned.bestCycles);
    return result;
}

} // namespace tileflow
