/**
 * @file
 * The mapper's hardened evaluation boundary.
 *
 * A candidate mapping drawn by the search can fail in three ways the
 * search loop must survive:
 *  - the space's tree builder throws (structurally-impossible combo);
 *  - Evaluator::evaluate throws FatalError (user-level model error,
 *    including injected faults);
 *  - the evaluator returns a "valid" result whose cycles are NaN,
 *    infinite or non-positive (a poisoned success).
 *
 * guardedEvaluate converts all three into a tagged infeasible
 * CachedEval carrying the failure reason, so a bad candidate is a
 * search outcome (penalty + histogram entry), never a crashed search.
 * panic() — an internal invariant violation — calls abort() and is
 * deliberately NOT caught: a TileFlow bug must not be masked as an
 * infeasible mapping.
 */

#ifndef TILEFLOW_MAPPER_GUARD_HPP
#define TILEFLOW_MAPPER_GUARD_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "analysis/evaluator.hpp"
#include "analysis/lowerbound.hpp"
#include "mapper/encoding.hpp"
#include "mapper/evalcache.hpp"
#include "mapper/searchstats.hpp"

namespace tileflow {

/**
 * Branch-and-bound context for guardedEvaluate's bound-first path.
 * When passed (non-null, with a non-null evaluator), the candidate's
 * tree is built once and lower-bounded before full evaluation: a
 * capacity-screen reject, or a bound already >= `bestCycles`, returns
 * a bound-only CachedEval (`pruned`, with the threshold-free bound in
 * `boundCycles`) — never fully evaluated, never counted in
 * `mapper.evaluations`. Callers may memoize it: a later lookup
 * re-derives the verdict against its own threshold (settles()).
 *
 * Caller contract: `bound` must be constructed from the same
 * workload/spec/options as the evaluator it screens for, and
 * `bestCycles` must be a cycle count some fully evaluated valid
 * mapping actually achieved (or +inf before one exists — the
 * capacity screen still applies then).
 */
struct BoundPrune
{
    const LowerBoundEvaluator* bound = nullptr;

    /** Prune when the candidate's lower-bound cycles reach this. */
    double bestCycles = std::numeric_limits<double>::infinity();
};

/**
 * Whether a cached `entry` settles its candidate without further work
 * under `prune` (nullable: pruning disarmed). A full verdict always
 * does; a bound-only entry does when its bound still reaches the
 * threshold — a memoized prune, the verdict the bound would give
 * again.
 */
inline bool
settles(const CachedEval& entry, const BoundPrune* prune)
{
    return !entry.pruned ||
           (prune != nullptr && entry.boundCycles >= prune->bestCycles);
}

/**
 * Build and evaluate `choices`, converting every throw and every
 * non-finite "valid" result into a tagged infeasible CachedEval.
 * Never throws (panic/abort excepted). `prune` (nullable) arms the
 * bound-first branch-and-bound screen described above; `knownBound`,
 * when given, is the candidate's memoized bound, used in place of
 * computing it again. Whether `evaluator` memoizes subtrees never
 * changes the verdict — the two paths are bit-identical — only the
 * throughput.
 */
CachedEval guardedEvaluate(const Evaluator& evaluator,
                           const MappingSpace& space,
                           const std::vector<int64_t>& choices,
                           const BoundPrune* prune = nullptr,
                           std::optional<double> knownBound = std::nullopt);

} // namespace tileflow

#endif // TILEFLOW_MAPPER_GUARD_HPP
