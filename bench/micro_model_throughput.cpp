/**
 * @file
 * Google-benchmark microbenchmarks for the framework itself: how fast
 * the notation parser, the tree-based analysis, the full evaluator and
 * the simulator run. The paper's mapper evaluates ~200 mappings per
 * 12-second round on one 2.6GHz core (Sec. 7.2); these benches show
 * this implementation's evaluation cost per mapping.
 */

#include <benchmark/benchmark.h>

#include "analysis/evaluator.hpp"
#include "arch/presets.hpp"
#include "core/notation.hpp"
#include "dataflows/attention.hpp"
#include "dataflows/convchain.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"
#include "sim/simulator.hpp"

using namespace tileflow;

namespace {

void
BM_EvaluateAttentionMapping(benchmark::State& state)
{
    const ArchSpec edge = makeEdgeArch();
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    const Evaluator model(w, edge);
    const AnalysisTree tree = buildAttentionDataflow(
        w, edge, AttentionDataflow::TileFlowDF);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluate(tree));
    }
}
BENCHMARK(BM_EvaluateAttentionMapping);

void
BM_EvaluateConvChainMapping(benchmark::State& state)
{
    const ArchSpec cloud = makeCloudArch();
    const Workload w = buildConvChain(convChainShape("CC1"));
    const Evaluator model(w, cloud);
    const AnalysisTree tree = buildConvChainDataflow(
        w, cloud, ConvChainDataflow::TileFlowDF);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluate(tree));
    }
}
BENCHMARK(BM_EvaluateConvChainMapping);

void
BM_BuildAttentionTree(benchmark::State& state)
{
    const ArchSpec edge = makeEdgeArch();
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    for (auto _ : state) {
        benchmark::DoNotOptimize(buildAttentionDataflow(
            w, edge, AttentionDataflow::FlatHGran));
    }
}
BENCHMARK(BM_BuildAttentionTree);

void
BM_ParseNotation(benchmark::State& state)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const AnalysisTree tree = buildAttentionDataflow(
        w, edge, AttentionDataflow::TileFlowDF);
    const std::string text = printNotation(tree);
    for (auto _ : state) {
        benchmark::DoNotOptimize(parseNotation(w, text));
    }
}
BENCHMARK(BM_ParseNotation);

void
BM_SimulateMapping(benchmark::State& state)
{
    const ArchSpec spec = makeValidationArch();
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const Evaluator model(w, spec);
    const AnalysisTree tree = buildAttentionDataflow(
        w, spec, AttentionDataflow::FlatHGran);
    const EvalResult r = model.evaluate(tree);
    const SimTrace trace = generateTrace(tree, spec, r);
    const AcceleratorSimulator sim(spec);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.run(trace));
    }
}
BENCHMARK(BM_SimulateMapping);

void
BM_MapperTilingRound(benchmark::State& state)
{
    const ArchSpec edge = makeEdgeArch();
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    for (auto _ : state) {
        benchmark::DoNotOptimize(exploreTiling(model, space, 20));
    }
}
BENCHMARK(BM_MapperTilingRound);

/**
 * Wall clock of the full Bert-B attention search across thread counts.
 * Compare the 1-thread and 8-thread rows for the mapper speedup. Only
 * the 1-thread search is reproducible bit for bit; at more threads the
 * tuners share one cache, so `bestCycles` and `evals` may differ
 * between rows (DESIGN.md §4.6).
 */
void
BM_MapperParallel(benchmark::State& state)
{
    const ArchSpec edge = makeEdgeArch();
    const Workload w = buildAttention(attentionShape("Bert-B"), false);
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);
    MapperConfig cfg;
    cfg.rounds = 4;
    cfg.population = 8;
    cfg.tilingSamples = 40;
    cfg.threads = int(state.range(0));
    double best = 0.0;
    int evaluations = 0;
    // No DoNotOptimize here: exploreSpace lives in another TU, so the
    // call cannot be elided (and DoNotOptimize on a double miscompiles
    // under GCC -O3 with benchmark 1.7.1's "+r,m" asm constraint).
    for (auto _ : state) {
        const MapperResult r = exploreSpace(model, space, cfg);
        best = r.bestCycles;
        evaluations = r.evaluations;
    }
    state.counters["threads"] = double(cfg.threads);
    state.counters["bestCycles"] = best;
    state.counters["evals"] = double(evaluations);
}
BENCHMARK(BM_MapperParallel)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

} // namespace

BENCHMARK_MAIN();
