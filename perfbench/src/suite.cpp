#include "suite.hpp"

#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>

#include "arch/presets.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "core/validate.hpp"
#include "dataflows/attention.hpp"
#include "dataflows/convchain.hpp"
#include "frontend/loader.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"

namespace perfbench {

namespace {

constexpr int kRounds = 12;
constexpr int kPopulation = 8;
constexpr int kTilingSamples = 30;
constexpr int kMctsSamples = 2000;
constexpr const char* kSpecFiles[] = {"fig4.wl", "conv_chain.wl"};

/** Workload, arch and model for one case; the arch is one of `archs`. */
const Evaluator&
addModel(Suite& s, Workload w, const ArchSpec& arch)
{
    s.workloads.push_back(std::move(w));
    s.models.emplace_back(s.workloads.back(), arch);
    return s.models.back();
}

void
addSearch(Suite& s, std::string label, const Evaluator& model,
          MappingSpace (*make)(const Workload&, const ArchSpec&),
          RefKind ref)
{
    SearchCase c;
    c.label = std::move(label);
    c.ref = ref;
    c.workload = &model.workload();
    c.arch = &model.spec();
    c.model = &model;
    c.space = timed("bench.space.make", s.times.space, [&] {
        return std::make_unique<MappingSpace>(make(*c.workload, *c.arch));
    });
    s.searches.push_back(std::move(c));
}

void
makeSearch3d(Suite& s, const std::string& spec_dir)
{
    std::vector<Workload> specs;
    std::vector<Workload> attention;
    std::vector<Workload> convs;
    timed("bench.frontend.load", s.times.frontend, [&] {
        s.archs.push_back(makeEdgeArch());
        s.archs.push_back(makeCloudArch());
        for (const char* file : kSpecFiles)
            specs.push_back(loadWorkloadSpecOrDie(spec_dir + "/" + file));
        for (const AttentionShape& shape : attentionShapes())
            attention.push_back(buildAttention(shape, false));
        for (const ConvChainShape& shape : convChainShapes())
            convs.push_back(buildConvChain(shape));
    });
    const ArchSpec& edge = s.archs[0];
    for (const ArchSpec& arch : s.archs) {
        for (const Workload& w : attention) {
            const Evaluator& m = addModel(s, w, arch);
            addSearch(s, w.name() + "/" + arch.name(), m, makeAttentionSpace,
                      RefKind::Attention);
        }
    }
    for (size_t i = 0; i < convs.size(); ++i) {
        const Evaluator& m = addModel(s, std::move(convs[i]), edge);
        addSearch(s, convChainShapes()[i].name + "/" + edge.name(), m,
                  makeConvChainSpace, RefKind::ConvChain);
    }
    for (size_t i = 0; i < specs.size(); ++i) {
        const Evaluator& m = addModel(s, std::move(specs[i]), edge);
        addSearch(s, std::string(kSpecFiles[i]) + "/" + edge.name(), m,
                  makeChainSpace, RefKind::None);
    }
}

void
makeSearchTiling(Suite& s)
{
    std::vector<Workload> attention;
    timed("bench.frontend.load", s.times.frontend, [&] {
        s.archs.push_back(makeEdgeArch());
        s.archs.push_back(makeCloudArch());
        for (const AttentionShape& shape : attentionShapes())
            attention.push_back(buildAttention(shape, true));
    });
    for (const ArchSpec& arch : s.archs) {
        for (const Workload& w : attention) {
            const Evaluator& m = addModel(s, w, arch);
            addSearch(s, w.name() + "/" + arch.name(), m,
                      makeAttentionTilingSpace, RefKind::Attention);
        }
    }
}

void
addTree(Suite& s, const std::string& group, const std::string& dataflow,
        bool tileflow, const Evaluator& model,
        const std::function<AnalysisTree()>& build)
{
    TreeCase c;
    c.label = group + "/" + dataflow;
    c.group = group;
    c.tileflowDataflow = tileflow;
    c.model = &model;
    c.tree = timed("bench.dataflow.build", s.times.dataflow,
                   [&] { return std::make_unique<AnalysisTree>(build()); });
    s.trees.push_back(std::move(c));
}

void
makeModelEval(Suite& s)
{
    std::vector<Workload> attention;
    std::vector<Workload> convs;
    timed("bench.frontend.load", s.times.frontend, [&] {
        s.archs.push_back(makeEdgeArch());
        s.archs.push_back(makeCloudArch());
        for (const AttentionShape& shape : attentionShapes())
            attention.push_back(buildAttention(shape, true));
        for (const ConvChainShape& shape : convChainShapes())
            convs.push_back(buildConvChain(shape));
    });
    for (const ArchSpec& arch : s.archs) {
        for (const Workload& w : attention) {
            const Evaluator& m = addModel(s, w, arch);
            const std::string group = w.name() + "/" + arch.name();
            for (AttentionDataflow df : mainAttentionDataflows()) {
                addTree(s, group, attentionDataflowName(df),
                        df == AttentionDataflow::TileFlowDF, m, [&] {
                            return buildAttentionDataflow(m.workload(),
                                                          m.spec(), df);
                        });
            }
        }
    }
    // Conv chains on Cloud, as in the paper's Fig. 12.
    const ArchSpec& cloud = s.archs[1];
    for (Workload& w : convs) {
        const Evaluator& m = addModel(s, std::move(w), cloud);
        const std::string group = m.workload().name() + "/" + cloud.name();
        for (ConvChainDataflow df : mainConvChainDataflows()) {
            addTree(s, group, convChainDataflowName(df),
                    df == ConvChainDataflow::TileFlowDF, m, [&] {
                        return buildConvChainDataflow(m.workload(),
                                                      m.spec(), df);
                    });
        }
    }
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "search-3d", "search-tiling", "model-eval"};
    return names;
}

std::unique_ptr<Suite>
makeSuite(const std::string& workload, const std::string& spec_dir)
{
    auto s = std::make_unique<Suite>();
    s->name = workload;
    const uint64_t start = telemetryNowNs();
    if (workload == "search-3d")
        makeSearch3d(*s, spec_dir);
    else if (workload == "search-tiling")
        makeSearchTiling(*s);
    else if (workload == "model-eval")
        makeModelEval(*s);
    else
        fatal("unknown workload '", workload, "'");
    s->times.totalNs = telemetryNowNs() - start;
    return s;
}

void
attachReferences(Suite& suite)
{
    for (SearchCase& c : suite.searches) {
        if (c.ref == RefKind::None)
            continue;
        const AnalysisTree ref =
            c.ref == RefKind::Attention
                ? buildAttentionDataflow(*c.workload, *c.arch,
                                               AttentionDataflow::TileFlowDF)
                      : buildConvChainDataflow(*c.workload, *c.arch,
                                               ConvChainDataflow::TileFlowDF);
        const EvalResult r = c.model->evaluate(ref);
        if (r.valid)
            c.refCycles = r.cycles;
    }
}

int
defaultSearchThreads()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    int cpus = 1;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        cpus = CPU_COUNT(&set);
    return std::clamp(cpus, 1, 4);
}

MapperResult
runSearch(const Suite& suite, const SearchCase& c, const MappingSpace& space,
          uint64_t seed, const SearchArm& arm)
{
    MapperConfig cfg;
    cfg.rounds = kRounds;
    cfg.population = kPopulation;
    cfg.tilingSamples = kTilingSamples;
    cfg.seed = seed;
    cfg.boundPrune = arm.boundPrune;
    cfg.incremental = arm.incremental;
    cfg.maxEvaluations = arm.maxEvaluations;
    if (suite.name == "search-tiling") {
        cfg.threads = arm.threads > 0 ? arm.threads : 1;
        return exploreTiling(*c.model, space, kMctsSamples, seed, cfg);
    }
    cfg.threads = arm.threads > 0 ? arm.threads : defaultSearchThreads();
    return exploreSpace(*c.model, space, cfg);
}

std::string
checkSearch(const SearchCase& c, const MapperResult& r)
{
    if (!r.found)
        return "no mapping found";
    if (!(r.bestCycles > 0.0) || !std::isfinite(r.bestCycles))
        return "non-finite best cycles";
    for (const std::string& problem : validateTree(r.bestTree, c.arch)) {
        if (problem.rfind("warn: ", 0) != 0)
            return "best tree fails validation: " + problem;
    }
    const Evaluator fresh(*c.workload, *c.arch);
    const EvalResult e = fresh.evaluate(r.bestTree);
    if (!e.valid ||
        std::bit_cast<uint64_t>(e.cycles) !=
            std::bit_cast<uint64_t>(r.bestCycles))
        return "fresh evaluation does not reproduce best cycles";
    return {};
}

} // namespace perfbench
