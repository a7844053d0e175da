#include "probes.hpp"

#include <algorithm>
#include <bit>
#include <exception>

#include "analysis/incremental.hpp"
#include "analysis/lowerbound.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"

namespace perfbench {

uint64_t
mix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

namespace {

std::vector<int64_t>
drawChoices(const MappingSpace& space, uint64_t& state)
{
    std::vector<int64_t> choices;
    for (const Knob& knob : space.knobs()) {
        state = mix(state);
        choices.push_back(knob.choices[state % knob.choices.size()]);
    }
    return choices;
}

/** Validate, bound and evaluate one tree; returns the full result. */
EvalResult
probeTree(const AnalysisTree& tree, const Evaluator& model,
          const LowerBoundEvaluator& lb, ReplayResult& out)
{
    timed("bench.validate", out.validate,
          [&] { return validateTree(tree, &model.spec()); });
    const LowerBound bound =
        timed("bench.bound", out.bound, [&] { return lb.bound(tree); });
    const EvalResult exact = timed("bench.evaluate", out.evaluate,
                                   [&] { return model.evaluate(tree); });
    if (exact.valid && exact.cycles > 0.0 && bound.analyzed &&
        !bound.capacityReject)
        out.tightness.push_back(100.0 * bound.cycles / exact.cycles);
    return exact;
}

} // namespace

ReplayResult
replayProbe(const Suite& suite, uint64_t seed, int perSpace)
{
    ReplayResult out;
    for (const TreeCase& c : suite.trees) {
        const LowerBoundEvaluator lb(*c.model);
        try {
            probeTree(*c.tree, *c.model, lb, out);
        } catch (const std::exception&) {
        }
    }
    for (size_t i = 0; i < suite.searches.size(); ++i) {
        const SearchCase& c = suite.searches[i];
        const LowerBoundEvaluator lb(*c.model);
        SubtreeCache subtrees;
        const IncrementalEvaluator incremental(*c.model, subtrees);
        EvalCache cache;
        uint64_t state = mix(seed ^ mix(i + 1));
        for (int k = 0; k < perSpace; ++k) {
            try {
                incremental.evaluate(c.space->build(drawChoices(*c.space, state)));
            } catch (const std::exception&) {
            }
        }
        for (int k = 0; k < perSpace; ++k) {
            const std::vector<int64_t> choices = drawChoices(*c.space, state);
            try {
                const AnalysisTree tree = c.space->build(choices);
                const EvalResult exact = probeTree(tree, *c.model, lb, out);
                timed("bench.incremental", out.incremental,
                      [&] { return incremental.evaluate(tree); });
                CachedEval verdict;
                verdict.valid = exact.valid;
                verdict.cycles = exact.cycles;
                timed("bench.evalcache", out.evalcache, [&] {
                    if (!cache.lookup(choices))
                        cache.insert(choices, verdict);
                    return 0;
                });
            } catch (const std::exception&) {
            }
        }
    }
    return out;
}

DeterminismResult
determinismProbe(const Suite& suite, uint64_t seed)
{
    // Bert-S at 60 evaluations is the known nondeterministic case; the
    // others cover a large attention space, a conv chain and a spec file.
    static const char* const kCases[] = {"Bert-S/Edge", "Bert-L/Edge",
                                         "CC1/Edge", "fig4.wl/Edge"};
    constexpr int kRepeats = 3;
    DeterminismResult out;
    const int threads = defaultSearchThreads();
    for (const char* label : kCases) {
        const auto it = std::find_if(
            suite.searches.begin(), suite.searches.end(),
            [&](const SearchCase& c) { return c.label == label; });
        if (it == suite.searches.end())
            continue;
        for (int64_t budget : {int64_t(0), int64_t(60)}) {
            const uint64_t s = mix(seed ^ mix(uint64_t(budget) + 0x5eed));
            SearchArm arm;
            arm.maxEvaluations = budget;
            arm.threads = 1;
            const MapperResult ref = runSearch(suite, *it, *it->space, s, arm);
            int lo = ref.evaluations;
            int hi = ref.evaluations;
            arm.threads = threads;
            for (int r = 0; r < kRepeats; ++r) {
                const MapperResult got =
                    runSearch(suite, *it, *it->space, s, arm);
                lo = std::min(lo, got.evaluations);
                hi = std::max(hi, got.evaluations);
                const bool same =
                    got.found == ref.found &&
                    std::bit_cast<uint64_t>(got.bestCycles) ==
                        std::bit_cast<uint64_t>(ref.bestCycles) &&
                    got.evaluations == ref.evaluations &&
                    std::equal(got.trace.begin(), got.trace.end(),
                               ref.trace.begin(), ref.trace.end(),
                               [](double a, double b) {
                                   return std::bit_cast<uint64_t>(a) ==
                                          std::bit_cast<uint64_t>(b);
                               });
                out.resultMismatches += same ? 0 : 1;
            }
            out.evalsSpread = std::max<int64_t>(out.evalsSpread, hi - lo);
        }
    }
    return out;
}

} // namespace perfbench
