#include "analysis/evaluator.hpp"

#include <cmath>
#include <limits>
#include <new>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"

namespace tileflow {

namespace {

/**
 * Per-Tile-node working state for one memoized evaluate() call.
 * `cached` is the one cache lookup the pre-pass performs; the fresh*
 * flags say which partials this evaluation computed itself and
 * therefore owes back to the cache.
 */
struct Slot
{
    SubtreeKey key;
    std::optional<SubtreePartial> cached;
    SubtreePartial fresh;
    bool freshDm = false;
    bool freshFp = false;
    bool freshLat = false;  ///< memory-pass latency
    bool freshPure = false; ///< pure-compute-pass latency
};

} // namespace

EvalResult
Evaluator::evaluate(const AnalysisTree& tree) const
{
    // Always-on metrics (handles resolved once; ~ns per call) plus
    // per-phase spans that cost one relaxed load when tracing is off.
    // The plain and memoized paths count and time themselves apart.
    static Counter& calls =
        MetricsRegistry::global().counter("analysis.evaluations");
    static Counter& memo_calls =
        MetricsRegistry::global().counter("analysis.incremental_evals");
    static Counter& invalid =
        MetricsRegistry::global().counter("analysis.invalid_mappings");
    static Histogram& latency_hist =
        MetricsRegistry::global().histogram("analysis.evaluate_ns");
    static Histogram& memo_latency_hist = MetricsRegistry::global().histogram(
        "analysis.incremental_evaluate_ns");
    const bool memoize = subtreeCache_ != nullptr;
    (memoize ? memo_calls : calls).add();
    const ScopedLatency timer(memoize ? memo_latency_hist : latency_hist);
    const TraceSpan span("evaluate", "analysis");

    EvalResult result;

    if (const FaultInjector* injector = faultInjector()) {
        switch (injector->decide(tree)) {
        case FaultKind::Throw:
            fatal("injected evaluator fault (seed ", injector->seed(),
                  ")");
        case FaultKind::Nan:
            // A poisoned "success": callers that trust `valid` without
            // checking the number would propagate NaN into their best.
            result.valid = true;
            result.cycles = std::numeric_limits<double>::quiet_NaN();
            return result;
        case FaultKind::None:
            break;
        }
    }

    if (const AllocFaultInjector* alloc = allocFaultInjector()) {
        if (alloc->decideKey(FaultInjector::treeKey(tree))) {
            static Counter& allocFaults = MetricsRegistry::global()
                                              .counter("mem.alloc_faults");
            allocFaults.add();
            throw std::bad_alloc();
        }
    }

    if (options_.validate) {
        const TraceSpan phase("evaluate.validate", "analysis");
        result.problems = validationErrors(tree, spec_);
        if (!result.problems.empty()) {
            invalid.add();
            return result;
        }
    }

    // Memoized path: one Slot per Tile node, filled by a pre-pass
    // doing exactly ONE cache lookup per node, so subtree_hits +
    // subtree_misses == subtree_lookups by construction
    // (tools/telemetry_check enforces it). Empty on the plain path.
    std::vector<Slot> slots;
    std::unordered_map<const Node*, size_t> index;
    if (memoize && tree.hasRoot()) {
        std::vector<const Node*> stack{tree.root()};
        while (!stack.empty()) {
            const Node* node = stack.back();
            stack.pop_back();
            for (const auto& child : node->children())
                stack.push_back(child.get());
            if (!node->isTile())
                continue;
            Slot slot;
            slot.key = SubtreeKey{subtreeHash(node), contextSignature(node)};
            slot.cached = subtreeCache_->lookup(slot.key);
            index.emplace(node, slots.size());
            slots.push_back(std::move(slot));
        }
    }
    auto slotOf = [&](const Node* node) -> Slot& {
        return slots[index.at(node)];
    };

    // Give freshly computed partials back to the cache. Runs before
    // every post-resource return, so even an enforcement-failed
    // evaluation contributes its dm/footprint work (latency fields are
    // marked absent and upgraded by a later evaluation that reaches
    // the phase — last writer wins).
    auto flush = [&]() {
        for (Slot& slot : slots) {
            if (!slot.freshDm && !slot.freshFp && !slot.freshLat &&
                !slot.freshPure)
                continue; // fully served from cache; nothing new
            SubtreePartial merged;
            merged.dm =
                slot.freshDm ? std::move(slot.fresh.dm) : slot.cached->dm;
            merged.footprintBytes = slot.freshFp
                                        ? slot.fresh.footprintBytes
                                        : slot.cached->footprintBytes;
            if (slot.freshLat && slot.freshPure) {
                merged.hasLatency = true;
                merged.cycles = slot.fresh.cycles;
                merged.computeCycles = slot.fresh.computeCycles;
            } else if (!slot.freshLat && !slot.freshPure && slot.cached &&
                       slot.cached->hasLatency) {
                merged.hasLatency = true;
                merged.cycles = slot.cached->cycles;
                merged.computeCycles = slot.cached->computeCycles;
            }
            // A lone freshLat (memory pass recomputed under a pure-pass
            // ancestor hit, e.g. after this node's entry was evicted)
            // stays hasLatency = false: its pure-pass twin was never
            // computed and storing a zero would poison later hits.
            subtreeCache_->insert(slot.key, merged);
        }
    };

    {
        // Slice geometry is computed inside this walk (StepGeometry
        // per Tile node); the span covers both.
        const TraceSpan phase("evaluate.data_movement", "analysis");
        const DataMovementAnalyzer dm_analyzer(*workload_, *spec_);
        if (!memoize) {
            result.dm = dm_analyzer.analyze(tree);
        } else {
            result.dm = dm_analyzer.analyze(
                tree,
                [&](const Node* node) -> const DmNodePartial* {
                    const Slot& slot = slotOf(node);
                    return slot.cached ? &slot.cached->dm : nullptr;
                },
                [&](const Node* node, const DmNodePartial& partial) {
                    Slot& slot = slotOf(node);
                    slot.fresh.dm = partial;
                    slot.freshDm = true;
                });
        }
    }

    {
        const TraceSpan phase("evaluate.resource", "analysis");
        const ResourceAnalyzer resource_analyzer(*workload_, *spec_);
        if (!memoize) {
            result.resources =
                resource_analyzer.analyze(tree, options_.enforceMemory);
        } else {
            result.resources = resource_analyzer.analyze(
                tree, options_.enforceMemory,
                [&](const Node* node) -> const int64_t* {
                    const Slot& slot = slotOf(node);
                    return slot.cached ? &slot.cached->footprintBytes
                                       : nullptr;
                },
                [&](const Node* node, int64_t footprint) {
                    Slot& slot = slotOf(node);
                    slot.fresh.footprintBytes = footprint;
                    slot.freshFp = true;
                });
        }
    }

    if ((options_.enforceMemory && !result.resources.fitsMemory) ||
        (options_.enforceCompute && !result.resources.fitsCompute)) {
        result.problems = enforcementProblems(options_, result.resources);
        invalid.add();
        flush();
        return result;
    }

    {
        const TraceSpan phase("evaluate.latency", "analysis");
        const LatencyModel latency_model(*workload_, *spec_);
        LatencyMemo hooks;
        if (memoize) {
            hooks.lookup = [&](const Node* node,
                               bool with_memory) -> const double* {
                const Slot& slot = slotOf(node);
                if (!slot.cached || !slot.cached->hasLatency)
                    return nullptr;
                return with_memory ? &slot.cached->cycles
                                   : &slot.cached->computeCycles;
            };
            hooks.record = [&](const Node* node, bool with_memory,
                               double lat) {
                Slot& slot = slotOf(node);
                if (with_memory) {
                    slot.fresh.cycles = lat;
                    slot.freshLat = true;
                } else {
                    slot.fresh.computeCycles = lat;
                    slot.freshPure = true;
                }
            };
        }
        result.latency = latency_model.analyze(tree, result.dm,
                                               memoize ? &hooks : nullptr);
        result.cycles = result.latency.cycles;
        result.utilization = result.latency.utilization;
    }

    {
        const TraceSpan phase("evaluate.energy", "analysis");
        result.energy = computeEnergy(result.dm, *spec_);
        result.energyPJ = result.energy.totalPJ();
    }

    result.valid = true;
    flush();
    return result;
}

std::vector<std::string>
enforcementProblems(const EvalOptions& options,
                    const ResourceResult& resources)
{
    std::vector<std::string> problems;
    if (options.enforceMemory && !resources.fitsMemory) {
        problems.insert(problems.end(), resources.memoryViolations.begin(),
                        resources.memoryViolations.end());
    }
    if (options.enforceCompute && !resources.fitsCompute) {
        problems.insert(problems.end(),
                        resources.computeViolations.begin(),
                        resources.computeViolations.end());
    }
    return problems;
}

std::string
EvalResult::str(const ArchSpec& spec) const
{
    std::ostringstream os;
    if (!valid) {
        os << "INVALID mapping:\n";
        for (const std::string& problem : problems)
            os << "  " << problem << "\n";
        return os.str();
    }
    if (!std::isfinite(cycles) || !std::isfinite(energyPJ) ||
        !std::isfinite(utilization)) {
        // A poisoned result (injected fault, upstream NaN) must not
        // render as plausible numbers.
        os << "POISONED (non-finite) result:\n";
        os << "  cycles: " << cycles << "\n";
        os << "  energy_pj: " << energyPJ << "\n";
        os << "  utilization: " << utilization << "\n";
        return os.str();
    }
    os << "cycles: " << humanCount(cycles) << " (" << fmt(runtimeMs(spec), 3)
       << " ms @ " << spec.frequencyGHz() << " GHz)\n";
    os << "energy: " << humanCount(energyPJ / 1e6) << " uJ\n";
    os << "utilization: " << fmt(utilization * 100.0, 1) << "%\n";
    os << dm.str(spec);
    return os.str();
}

} // namespace tileflow
