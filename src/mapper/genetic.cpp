#include "mapper/genetic.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"
#include "mapper/checkpoint.hpp"
#include "mapper/mcts.hpp"

namespace tileflow {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/** Valid individuals first, then by ascending cycles. */
bool
fitterThan(const Individual& a, const Individual& b)
{
    if (a.valid != b.valid)
        return a.valid;
    if (!a.valid)
        return false; // invalid individuals are equivalent
    return a.cycles < b.cycles;
}

void
writeIndividual(CkptWriter& w, const Individual& ind)
{
    w.u64(ind.valid ? 1 : 0);
    w.d(ind.cycles);
    w.u64(ind.choices.size());
    for (int64_t c : ind.choices)
        w.i64(c);
}

bool
readIndividual(CkptReader& r, Individual& ind)
{
    ind.valid = r.u64() != 0;
    ind.cycles = r.d();
    const uint64_t n = r.u64();
    if (!r.ok() || n > (1u << 20))
        return false;
    ind.choices.resize(size_t(n));
    for (auto& c : ind.choices)
        c = r.i64();
    return r.ok();
}

} // namespace

GeneticResult
GeneticMapper::run()
{
    GeneticResult result;

    static Counter& gen_counter =
        MetricsRegistry::global().counter("ga.generations");
    static Histogram& gen_hist =
        MetricsRegistry::global().histogram("ga.generation_ns");

    // GA-level randomness (population init, selection, crossover,
    // prescreen resampling) stays on this thread and never interleaves
    // with the workers'.
    Rng rng(config_.seed);

    std::unique_ptr<ThreadPool> own_pool;
    ThreadPool* pool = pool_;
    if (!pool) {
        own_pool = std::make_unique<ThreadPool>(
            config_.threads > 0 ? size_t(config_.threads) : 0);
        pool = own_pool.get();
    }
    std::unique_ptr<EvalCache> own_cache;
    EvalCache* cache = cache_;
    if (!cache) {
        own_cache = std::make_unique<EvalCache>(16, config_.evalCacheCap,
                                                config_.cacheBytesCap);
        cache = own_cache.get();
    }
    // Wall clock for the time budget and the cache counters, both
    // checkpoint-aware: a resumed run restores the pre-kill portion
    // and arms the deadline with only the *remaining* budget — not a
    // fresh full one.
    RunLedger ledger(cache);

    // Armed after the restore block, once the pre-kill elapsed time is
    // known; lambdas below capture it by reference.
    StopControl stop;
    // Budget accounting shared by all concurrent tuners. Adds are
    // relaxed and the stop decision reads a racy snapshot: budgets
    // are best-effort at >1 thread, exact at one.
    std::atomic<int64_t> global_evals{0};

    const std::vector<size_t> structural = space_->structuralKnobs();

    // Admissible lower bounds for the offspring prescreen's capacity
    // check and (when config_.boundPrune) the tuners' branch-and-bound
    // screen; mirrors the evaluator's workload/spec/options.
    const LowerBoundEvaluator lower_bound(*evaluator_);

    // Declared before the lambdas that read it: `best` is only
    // written serially at generation boundaries (and by the restore
    // block), so the workers of a generation all see the same value.
    Individual best;

    auto random_individual = [&]() {
        Individual ind;
        ind.choices = space_->defaultChoices();
        for (size_t idx : structural) {
            ind.choices[idx] =
                rng.choice(space_->knobs()[idx].choices);
        }
        return ind;
    };

    // Cheap offspring screen: ONE tree build serves both checks —
    // structural validation and the lower-bound capacity screen
    // (which rejects only trees the full evaluator would reject for
    // a buffer overflow; see analysis/lowerbound.hpp). No
    // data-movement / latency analysis is paid. A throwing builder
    // counts as a reject like any hard validation error. The
    // capacity part is independent of config_.boundPrune so the
    // prescreen trajectory is identical with pruning on or off.
    auto passes_prescreen = [&](const std::vector<int64_t>& choices) {
        try {
            const AnalysisTree tree = space_->build(choices);
            return validationErrors(tree, &evaluator_->spec()).empty() &&
                   !lower_bound.capacityRejects(tree);
        } catch (const std::exception&) {
            return false;
        }
    };

    // Tune one individual's tiling with a private, deterministically
    // seeded Rng; returns the tuner's stats for serial merging.
    auto evaluate = [&](Individual& ind, int gen, int index) {
        Rng ind_rng(mixSeed(config_.seed, uint64_t(gen),
                            uint64_t(index)));
        MctsTuner tuner(*evaluator_, *space_, ind_rng);
        tuner.setPool(pool);
        tuner.setCache(cache);
        tuner.setBatch(config_.mctsBatch);
        tuner.setStop(&stop, &global_evals);
        if (config_.boundPrune) {
            // The seed threshold is the generation-boundary best,
            // read here on a worker but only ever written between
            // generations (and by the restore block) — every tuner
            // of a generation prunes against the same incumbent.
            tuner.setBoundPrune(
                &lower_bound,
                best.valid
                    ? best.cycles
                    : std::numeric_limits<double>::infinity());
        }
        MctsResult tuned =
            tuner.tune(ind.choices, config_.tilingSamples);
        ind.valid = tuned.found;
        ind.cycles = tuned.found ? tuned.bestCycles : kNaN;
        if (tuned.found)
            ind.choices = tuned.bestChoices;
        return tuned;
    };

    // ---- Checkpoint plumbing -------------------------------------
    uint64_t config_hash = kFnvOffset;
    int start_gen = 0;

    if (!config_.checkpointPath.empty()) {
        config_hash = fnvWord(config_hash, config_.seed);
        config_hash = fnvWord(config_hash, uint64_t(config_.population));
        config_hash = fnvWord(config_hash, uint64_t(config_.rounds));
        config_hash = fnvWord(config_hash, uint64_t(config_.topK));
        config_hash = fnvWord(
            config_hash, std::bit_cast<uint64_t>(config_.mutationRate));
        config_hash = fnvWord(config_hash, uint64_t(config_.tilingSamples));
        config_hash = fnvWord(config_hash, uint64_t(config_.mctsBatch));
        config_hash = fnvWord(config_hash, config_.prescreen ? 1 : 0);
        config_hash = fnvWord(config_hash, uint64_t(config_.prescreenRetries));
        config_hash = ckptHashSpace(config_hash, *space_);
    }

    std::vector<Individual> population;

    if (!config_.checkpointPath.empty()) {
        if (std::optional<CkptReader> r = CkptReader::open(
                config_.checkpointPath, "ga", config_hash)) {
            GeneticResult restored;
            std::vector<Individual> restored_pop;
            Individual restored_best;
            r->tag("gen");
            const int64_t gen = r->i64();
            r->tag("best");
            bool state_ok = readIndividual(*r, restored_best);
            r->tag("population");
            const uint64_t npop = r->u64();
            if (npop == uint64_t(config_.population)) {
                restored_pop.resize(size_t(npop));
                for (auto& ind : restored_pop)
                    state_ok = state_ok && readIndividual(*r, ind);
            } else {
                state_ok = false;
            }
            state_ok = ckptReadStats(*r, restored) && state_ok;
            r->tag("prescreen");
            restored.prescreenRejects = r->u64();
            r->tag("rng");
            const std::string rng_state = r->str();
            state_ok = state_ok && ckptReadCache(*r, *cache);
            if (state_ok && r->ok()) {
                result = std::move(restored);
                result.resumed = true;
                best = restored_best;
                population = std::move(restored_pop);
                start_gen = int(gen);
                ledger.restore(result);
                std::istringstream is(rng_state);
                is >> rng.engine();
                global_evals.store(result.evaluations,
                                   std::memory_order_relaxed);
                ckptCreditRestoredMetrics(result, *evaluator_);
            } else {
                warn("ga checkpoint '", config_.checkpointPath,
                     "': truncated state; starting fresh");
                cache->clear();
            }
        }
    }

    ledger.snapshot();
    stop = StopControl(Deadline::afterRemainingMs(config_.timeBudgetMs,
                                                  ledger.restoredMs()),
                       config_.cancel, config_.maxEvaluations);

    auto save_checkpoint = [&](int next_gen) {
        if (config_.checkpointPath.empty())
            return;
        CkptWriter w("ga", config_hash);
        w.tag("gen");
        w.i64(next_gen);
        w.tag("best");
        writeIndividual(w, best);
        w.tag("population");
        w.u64(population.size());
        for (const Individual& ind : population)
            writeIndividual(w, ind);
        ledger.settle(result);
        ckptWriteStats(w, result);
        w.tag("prescreen");
        w.u64(result.prescreenRejects);
        w.tag("rng");
        std::ostringstream os;
        os << rng.engine();
        w.str(os.str());
        ckptWriteCache(w, *cache);
        w.writeTo(config_.checkpointPath);
    };
    // --------------------------------------------------------------

    if (population.empty()) {
        for (int i = 0; i < config_.population; ++i)
            population.push_back(random_individual());
        // A started run is immediately resumable: persist the initial
        // population before any evaluation, so a budget that trips
        // inside generation 0 (easy when bound pruning concentrates
        // the full evaluations early) still leaves a checkpoint
        // behind. Resume replays generation 0 in full — the same
        // replay-the-degraded-generation contract as below.
        save_checkpoint(start_gen);
    }

    const int64_t evals_at_start =
        global_evals.load(std::memory_order_relaxed);
    ProgressMeter progress(config_.progressIntervalMs);

    int gens_since_ckpt = 0;
    for (int gen = start_gen; gen < config_.rounds; ++gen) {
        if (const char* why = stop.stopReason(
                global_evals.load(std::memory_order_relaxed))) {
            result.timedOut = true;
            result.stopReason = why;
            // The state at a generation boundary is complete (no
            // degraded tuners), so persist it on the way out — with
            // checkpointEveryRounds > 1 a cancellation would otherwise
            // discard up to N-1 finished generations.
            if (gens_since_ckpt > 0)
                save_checkpoint(gen);
            break;
        }

        const TraceSpan gen_span("ga.generation", "mapper");
        const ScopedLatency gen_timer(gen_hist);
        gen_counter.add();

        // One pool index per individual. Each tuner also evaluates its
        // rollout batches on the pool, so workers that run out of
        // individuals at the tail of a generation help the tuners
        // still running.
        std::vector<MctsResult> tuned(population.size());
        pool->parallelFor(population.size(), [&](size_t i) {
            tuned[i] = evaluate(population[i], gen, int(i));
        });
        bool cut_short = false;
        for (const MctsResult& t : tuned) {
            result.evaluations += t.evaluations;
            result.boundPruned += t.boundPruned;
            mergeHistogram(result.failureHistogram, t.failureHistogram);
            cut_short = cut_short || t.timedOut;
        }

        std::sort(population.begin(), population.end(), fitterThan);
        if (population.front().valid &&
            (!best.valid ||
             population.front().cycles < best.cycles)) {
            best = population.front();
        }
        result.trace.push_back(best.valid ? best.cycles : kNaN);

        if (progress.due()) {
            const int64_t evals_now =
                global_evals.load(std::memory_order_relaxed);
            const double secs =
                std::max(1e-3, double(ledger.sessionMs()) / 1e3);
            const uint64_t h = ledger.sessionHits();
            const uint64_t m = ledger.sessionMisses();
            const int64_t left = stop.deadline().remainingMs();
            inform("progress: gen ", gen + 1, "/", config_.rounds,
                   " best=",
                   best.valid ? concat(uint64_t(best.cycles), " cycles")
                              : std::string("none"),
                   " evals=", evals_now, " (",
                   uint64_t(double(evals_now - evals_at_start) / secs),
                   "/s) cache-hit=",
                   h + m > 0 ? int(100.0 * double(h) / double(h + m)) : 0,
                   "% deadline=",
                   left < 0 ? std::string("unlimited")
                            : concat(left, "ms"));
        }

        // A generation whose tuners were cut short by the budget is
        // degraded: report its best-so-far but never checkpoint it —
        // a resumed run replays it in full, which is what keeps
        // resume bit-identical to an uninterrupted run.
        if (cut_short ||
            stop.shouldStop(
                global_evals.load(std::memory_order_relaxed))) {
            result.timedOut = true;
            const char* why = stop.stopReason(
                global_evals.load(std::memory_order_relaxed));
            result.stopReason = why ? why : "deadline";
            break;
        }

        // Elitism + crossover + mutation; offspring are pre-screened
        // with cheap structural validation before any evaluation is
        // paid for (rejects are resampled and counted separately).
        const int keep =
            std::min<int>(config_.topK, int(population.size()));
        std::vector<Individual> next(population.begin(),
                                     population.begin() + keep);
        while (int(next.size()) < config_.population) {
            Individual child;
            const int attempts =
                config_.prescreen ? std::max(1, config_.prescreenRetries)
                                  : 1;
            for (int attempt = 0; attempt < attempts; ++attempt) {
                const Individual& a =
                    population[rng.index(size_t(keep))];
                const Individual& b =
                    population[rng.index(size_t(keep))];
                child.choices = a.choices;
                for (size_t idx : structural) {
                    if (rng.flip(0.5))
                        child.choices[idx] = b.choices[idx];
                    if (rng.flip(config_.mutationRate)) {
                        child.choices[idx] =
                            rng.choice(space_->knobs()[idx].choices);
                    }
                }
                if (!config_.prescreen ||
                    passes_prescreen(child.choices))
                    break;
                result.prescreenRejects += 1;
                // Out of retries: keep the last candidate anyway; the
                // guarded runtime evaluation will classify it.
            }
            next.push_back(std::move(child));
        }
        population = std::move(next);

        if (++gens_since_ckpt >= config_.checkpointEveryRounds ||
            gen + 1 == config_.rounds) {
            save_checkpoint(gen + 1);
            gens_since_ckpt = 0;
        }
    }

    result.best = best;
    ledger.settle(result);
    return result;
}

} // namespace tileflow
