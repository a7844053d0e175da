/**
 * @file
 * The benchmark's three workloads, built from the repository's public
 * API exactly as its tools build them:
 *
 *  - search-3d:     one exploreSpace per operation, mapper_search
 *                   defaults, over the Table 2 attention shapes on Edge
 *                   and Cloud, the Table 3 conv chains on Edge, and the
 *                   fig4 / conv_chain spec files in the chain space;
 *  - search-tiling: one exploreTiling (2000 MCTS samples, 1 thread) per
 *                   operation over the expanded-softmax attention;
 *  - model-eval:    one Evaluator::evaluate per operation over the
 *                   prebuilt Table 5 canned dataflow trees.
 */

#ifndef PERFBENCH_SUITE_HPP
#define PERFBENCH_SUITE_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "analysis/evaluator.hpp"
#include "arch/arch.hpp"
#include "core/tree.hpp"
#include "ir/workload.hpp"
#include "mapper/mapper.hpp"
#include "timing.hpp"

namespace perfbench {

using namespace tileflow;

/** Which canned dataflow a search is compared against. */
enum class RefKind { None, Attention, ConvChain };

/** One searchable (workload, arch, space) triple. */
struct SearchCase
{
    std::string label;
    const Workload* workload = nullptr;
    const ArchSpec* arch = nullptr;
    const Evaluator* model = nullptr;
    std::unique_ptr<MappingSpace> space;
    RefKind ref = RefKind::None;

    /** Cycles of the canned TileFlow dataflow on the same shape and
     *  arch; 0 when the case has none (spec-file workloads). */
    double refCycles = 0.0;
};

/** One prebuilt canned dataflow tree. */
struct TreeCase
{
    std::string label;

    /** Shape/arch group; best_vs_ref compares dataflows inside it. */
    std::string group;
    bool tileflowDataflow = false;
    const Evaluator* model = nullptr;
    std::unique_ptr<AnalysisTree> tree;
};

/** Host time spent in each set-up layer. */
struct SetupTimes
{
    CallStats frontend; ///< spec files, workloads and archs
    CallStats space;    ///< MappingSpace construction
    CallStats dataflow; ///< canned dataflow tree builds
    uint64_t totalNs = 0;
};

/** Everything a workload needs before its first operation. Owners
 *  are deques so the references the spaces capture stay valid. */
struct Suite
{
    std::string name;
    std::deque<Workload> workloads;
    std::deque<ArchSpec> archs;
    std::deque<Evaluator> models;
    std::vector<SearchCase> searches;
    std::vector<TreeCase> trees;
    SetupTimes times;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/**
 * Build a workload's suite, timing each layer. `spec_dir` holds the
 * fig4.wl / conv_chain.wl spec files. fatal() on an unknown name or an
 * unloadable spec.
 */
std::unique_ptr<Suite> makeSuite(const std::string& workload,
                                 const std::string& spec_dir);

/** Fill SearchCase::refCycles from the canned TileFlow dataflows
 *  (benchmark bookkeeping, kept out of the set-up time). */
void attachReferences(Suite& suite);

/** Search settings of one operation. */
struct SearchArm
{
    bool boundPrune = true;
    bool incremental = true;
    int threads = 0; ///< 0: the workload's default
    int64_t maxEvaluations = 0;
};

/** Threads the search-3d workload uses: min(online CPUs, 4). */
int defaultSearchThreads();

/** Run one search operation of `suite` on `space` (which must be the
 *  case's space or a wrapper of it). */
MapperResult runSearch(const Suite& suite, const SearchCase& c,
                       const MappingSpace& space, uint64_t seed,
                       const SearchArm& arm = {});

/** The empty string when `r` passes the output checks, else why not:
 *  a mapping was found, its tree validates, and a fresh Evaluator
 *  reproduces its cycles bit for bit. */
std::string checkSearch(const SearchCase& c, const MapperResult& r);

} // namespace perfbench

#endif // PERFBENCH_SUITE_HPP
