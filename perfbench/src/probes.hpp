/**
 * @file
 * Probes that attribute time to single layers from outside the
 * program: a seeded replay of individual layer calls, and a
 * determinism check of the search across thread counts and budgets.
 */

#ifndef PERFBENCH_PROBES_HPP
#define PERFBENCH_PROBES_HPP

#include <cstdint>
#include <vector>

#include "suite.hpp"
#include "timing.hpp"

namespace perfbench {

/** What the replay probe measured, one call of each kind per candidate. */
struct ReplayResult
{
    CallStats validate;
    CallStats bound;
    CallStats evaluate;
    CallStats incremental; ///< warm subtree cache
    CallStats evalcache;   ///< one missing lookup plus its insert

    /** 100 * bound / exact cycles per valid, bounded candidate. */
    std::vector<double> tightness;
};

/**
 * Replay `perSpace` seeded candidates of every search space (after as
 * many warm-up candidates that fill the subtree cache), or every
 * canned tree of model-eval, calling each layer once per candidate.
 * Builds that throw are skipped, as the mapper's guard skips them.
 */
ReplayResult replayProbe(const Suite& suite, uint64_t seed, int perSpace);

/** How far repeated searches of one seed disagree. */
struct DeterminismResult
{
    /** Multi-thread runs whose best, trace or evaluation count differs
     *  from the single-thread run of the same seed and budget. */
    uint64_t resultMismatches = 0;

    /** Largest max - min evaluation count over the runs of one seed
     *  and budget. */
    int64_t evalsSpread = 0;
};

/** Repeat a fixed subset of search-3d at 1 thread and at
 *  defaultSearchThreads(), unbudgeted and with maxEvaluations = 60. */
DeterminismResult determinismProbe(const Suite& suite, uint64_t seed);

/** splitmix64: the benchmark's own seed mixer. */
uint64_t mix(uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_PROBES_HPP
