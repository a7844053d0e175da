#include "mapper/guard.hpp"

#include <cmath>
#include <exception>
#include <limits>
#include <new>

#include "common/logging.hpp"
#include "common/membudget.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

namespace {

/**
 * The candidate's threshold-free lower bound in cycles: +inf for a
 * capacity-screen reject (every threshold prunes it), nullopt when the
 * bound cannot be computed — a failing bound is never a verdict, the
 * full evaluator classifies the candidate instead.
 */
std::optional<double>
computeBound(const LowerBoundEvaluator& lower_bound,
             const AnalysisTree& tree)
{
    static Counter& boundEvals =
        MetricsRegistry::global().counter("mapper.bound_evals");
    const TraceSpan span("bound", "mapper");
    try {
        const LowerBound lb = lower_bound.bound(tree);
        if (!lb.analyzed)
            return std::nullopt;
        boundEvals.add();
        return lb.capacityReject ? std::numeric_limits<double>::infinity()
                                 : lb.cycles;
    } catch (const std::exception&) {
        return std::nullopt;
    }
}

} // namespace

CachedEval
guardedEvaluate(const Evaluator& evaluator, const MappingSpace& space,
                const std::vector<int64_t>& choices,
                const BoundPrune* prune, std::optional<double> knownBound)
{
    // The single chokepoint every real (non-memoized) search
    // evaluation passes through, in both the GA and MCTS paths.
    // Accounting invariant (telemetry_check enforces it):
    //   mapper.candidates == mapper.bound_pruned + mapper.evaluations
    // — every candidate either prunes on the lower bound or pays a
    // full evaluation; `mapper.evaluations`, plus the restored-portion
    // credit the engines add on checkpoint resume, always equals
    // MapperResult::evaluations. A prune memoized in the EvalCache
    // never gets here, so it is none of the three.
    static Counter& candidates =
        MetricsRegistry::global().counter("mapper.candidates");
    static Counter& evals =
        MetricsRegistry::global().counter("mapper.evaluations");
    static Counter& failed =
        MetricsRegistry::global().counter("mapper.failed_evaluations");
    static Counter& oomFailed =
        MetricsRegistry::global().counter("mem.oom_failed_evals");
    static Counter& boundPruned =
        MetricsRegistry::global().counter("mapper.bound_pruned");
    // Bound/actual ratio in percent per fully evaluated valid
    // candidate: 100 means the bound was exact, small values mean it
    // was loose. Tightness telemetry only — no invariant beyond
    // histogram well-formedness depends on it.
    static Histogram& tightness =
        MetricsRegistry::global().histogram("mapper.bound_tightness");
    candidates.add();

    CachedEval out;
    // Hard memory pressure sheds the evaluation before it allocates
    // anything: the candidate is reported as a tagged-infeasible
    // "oom" failure (never an abort), the budget's reclaim has
    // already flushed the caches, and the search carries on. The
    // poll is one relaxed load when no budget is configured. A shed
    // counts as a (failed) evaluation, exactly as before pruning
    // existed.
    if (MemoryBudget::global().poll() == MemPressure::Hard) {
        out.failed = true;
        out.failReason = "oom";
        oomFailed.add();
        evals.add();
        failed.add();
        return out;
    }
    // A candidate that reaches (or throws before reaching) the full
    // evaluator counts as an evaluation, pruned ones never do.
    bool counted_eval = false;
    try {
        // One build serves both the bound screen and the full
        // evaluation (the screen must not double the tree-build cost
        // it is trying to save).
        const AnalysisTree tree = [&] {
            const TraceSpan span("space.build", "mapper");
            return space.build(choices);
        }();

        std::optional<double> lb_cycles;
        if (prune != nullptr && prune->bound != nullptr) {
            lb_cycles =
                knownBound ? knownBound : computeBound(*prune->bound, tree);
            if (lb_cycles && *lb_cycles >= prune->bestCycles) {
                // Sound to discard: either the full evaluator
                // provably rejects this tree for capacity, or its
                // cycles provably cannot beat the caller's best. Not
                // an evaluation; the bound-only verdict is cacheable
                // because the bound itself is threshold-free.
                out.pruned = true;
                out.boundCycles = *lb_cycles;
                boundPruned.add();
                return out;
            }
        }

        counted_eval = true;
        evals.add();
        const EvalResult full = evaluator.evaluate(tree);
        if (full.valid &&
            !(std::isfinite(full.cycles) && full.cycles > 0.0)) {
            out.failed = true;
            out.failReason = "non-finite or non-positive cycles";
        } else {
            out.valid = full.valid;
            out.cycles = full.cycles;
            if (lb_cycles && full.valid && full.cycles > 0.0) {
                tightness.observe(
                    uint64_t(100.0 * *lb_cycles / full.cycles));
            }
        }
    } catch (const FatalError& e) {
        out.failed = true;
        out.failReason = e.what();
    } catch (const std::bad_alloc&) {
        // Allocation failure anywhere under evaluation (including the
        // TILEFLOW_ALLOC_FAULT injector) is an infeasible candidate,
        // not a crash. Reclaim hard so the retry path has headroom.
        out.failed = true;
        out.failReason = "oom";
        oomFailed.add();
        MemoryBudget::global().reclaim(MemPressure::Hard);
    } catch (const std::exception& e) {
        out.failed = true;
        out.failReason = concat("unexpected exception: ", e.what());
    }
    if (out.failed) {
        // A throwing tree build never reached the evals.add() above;
        // it still counts as a (failed) evaluation so the candidates
        // identity holds on every path.
        if (!counted_eval)
            evals.add();
        failed.add();
    }
    return out;
}

} // namespace tileflow
