/**
 * @file
 * Branch-and-bound lower-bound tests (analysis/lowerbound.hpp).
 *
 * The core soundness property: for every candidate across all oracle
 * fuzz families, LowerBoundEvaluator::bound(tree).cycles <= the full
 * evaluator's cycles (compared as exact doubles — the bound is
 * admissible bitwise, not just mathematically), against both the plain
 * and the incremental evaluation paths; and the capacity screen only
 * ever rejects trees the full evaluator also rejects. Plus the search
 * integration: prune-on and prune-off searches find equal-cost best
 * mappings (GA and MCTS), kill/resume with pruning stays
 * bit-identical, and the guard's candidate accounting partitions
 * exactly into pruned + evaluated. And the bound memo: a pruned
 * candidate is cached as a bound-only entry that is bounded once per
 * run, settles later draws against their own threshold, never
 * replaces a full verdict and is never read as a result.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/incremental.hpp"
#include "analysis/lowerbound.hpp"
#include "arch/presets.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/builders.hpp"
#include "ir/shapes.hpp"
#include "mapper/checkpoint.hpp"
#include "mapper/mapper.hpp"
#include "mapper/mcts.hpp"
#include "oracle/fuzz.hpp"

namespace tileflow {
namespace {

const ArchSpec&
fuzzSpec()
{
    static const ArchSpec spec = makeValidationArch();
    return spec;
}

void
collectNodes(Node* node, std::vector<Node*>& scopes,
             std::vector<Node*>& tiles)
{
    if (node->isScope())
        scopes.push_back(node);
    if (node->isTile() && !node->loops().empty())
        tiles.push_back(node);
    for (const auto& child : node->children())
        collectNodes(child.get(), scopes, tiles);
}

/** Single-knob mutation, mirroring the GA / MCTS moves (and the
 *  incremental-evaluation test): scope-kind flip, loop-kind flip, or
 *  loop-extent change. Invalid mutants are kept — the bound must stay
 *  sound (or decline to analyze) on those too. */
bool
mutateOneKnob(Rng& rng, AnalysisTree& tree)
{
    if (!tree.hasRoot())
        return false;
    std::vector<Node*> scopes;
    std::vector<Node*> tiles;
    collectNodes(tree.root(), scopes, tiles);

    for (int attempt = 0; attempt < 16; ++attempt) {
        const int64_t pick = rng.uniformInt(0, 3);
        if (pick <= 1 && !scopes.empty()) {
            Node* scope = scopes[rng.index(scopes.size())];
            static const ScopeKind kKinds[] = {
                ScopeKind::Seq, ScopeKind::Shar, ScopeKind::Para,
                ScopeKind::Pipe};
            const ScopeKind next = kKinds[rng.index(4)];
            if (next == scope->scopeKind())
                continue;
            scope->setScopeKind(next);
            return true;
        }
        if (pick == 2 && !tiles.empty()) {
            Node* tile = tiles[rng.index(tiles.size())];
            Loop& loop = tile->loops()[rng.index(tile->loops().size())];
            loop.kind = loop.isTemporal() ? LoopKind::Spatial
                                          : LoopKind::Temporal;
            return true;
        }
        if (!tiles.empty()) {
            Node* tile = tiles[rng.index(tiles.size())];
            Loop& loop = tile->loops()[rng.index(tile->loops().size())];
            const int64_t next = rng.uniformInt(1, 4);
            if (next == loop.extent)
                continue;
            loop.extent = next;
            return true;
        }
    }
    return false;
}

} // namespace

// -------------------------------------------------------------------
// The tentpole property: admissibility on every fuzz candidate
// -------------------------------------------------------------------

TEST(LowerBound, AdmissibleOnEveryFuzzCandidate)
{
    Rng rng(0xB0B0u);
    std::set<int> families_seen;
    int candidates = 0;
    int valid_full = 0;
    int capacity_rejects = 0;

    for (uint64_t index = 0; index < 60; ++index) {
        FuzzCase fc = makeFuzzCase(0x10BBu, index);
        families_seen.insert(fc.kind);

        const Evaluator full(*fc.workload, fuzzSpec());
        SubtreeCache cache;
        const IncrementalEvaluator inc(full, cache);
        const LowerBoundEvaluator lbe(full);

        // Warm candidate plus 9 single-knob mutants: 600 total.
        for (int m = 0; m < 10; ++m) {
            if (m > 0 && !mutateOneKnob(rng, *fc.tree))
                break;
            ++candidates;
            const LowerBound lb = lbe.bound(*fc.tree);
            const EvalResult a = full.evaluate(*fc.tree);
            const EvalResult b = inc.evaluate(*fc.tree);

            if (lb.capacityReject) {
                // The screen's contract: a reject is a full-evaluator
                // verdict, never a false positive.
                ++capacity_rejects;
                EXPECT_FALSE(a.valid)
                    << "capacity screen rejected a tree the full "
                       "evaluator accepts: case "
                    << index << " mutation " << m << " ("
                    << lb.capacityReason << ") " << fc.summary;
                continue;
            }
            if (!a.valid)
                continue; // full evaluator classifies; nothing to bound
            ++valid_full;
            ASSERT_TRUE(lb.analyzed)
                << "bound declined a tree the full evaluator accepts: "
                << fc.summary;
            EXPECT_LE(lb.cycles, a.cycles)
                << "bound above full cycles: case " << index
                << " mutation " << m << " (" << fc.summary << ")";
            EXPECT_LE(lb.cycles, b.cycles)
                << "bound above incremental cycles: case " << index
                << " mutation " << m << " (" << fc.summary << ")";
            EXPECT_LE(lb.computeCycles, lb.cycles);
            EXPECT_GE(lb.cycles, 0.0);
            EXPECT_TRUE(std::isfinite(lb.cycles));
        }
    }

    EXPECT_GE(candidates, 500);
    EXPECT_GT(valid_full, 0);
    EXPECT_EQ(families_seen.size(), 7u)
        << "fuzz stream did not cover every generator family";
    // makeFuzzCase keeps its trees capacity-feasible by construction,
    // so rejects here are rare; the starved-arch test below guarantees
    // the screen fires.
    (void)capacity_rejects;
}

TEST(LowerBound, CapacityScreenAgreesWithFullEvaluatorWhenStarved)
{
    // Starve every on-chip buffer to one byte: the screen must now
    // fire, and every firing must agree with the full evaluator.
    ArchSpec starved = makeValidationArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;

    int rejects = 0;
    for (uint64_t index = 0; index < 20; ++index) {
        const FuzzCase fc = makeFuzzCase(0xCAFEu, index);
        const Evaluator full(*fc.workload, starved);
        const LowerBoundEvaluator lbe(full);
        std::string reason;
        if (lbe.capacityRejects(*fc.tree, &reason)) {
            ++rejects;
            EXPECT_FALSE(reason.empty());
            EXPECT_FALSE(full.evaluate(*fc.tree).valid)
                << fc.summary << " (" << reason << ")";
        }
    }
    EXPECT_GT(rejects, 0)
        << "capacity screen never fired on a one-byte arch";
}

TEST(LowerBound, ScreenNeverFiresWhenMemoryUnenforced)
{
    ArchSpec starved = makeValidationArch();
    for (size_t i = 0; i + 1 < starved.levels().size(); ++i)
        starved.levels()[i].capacityBytes = 1;
    EvalOptions no_memory;
    no_memory.enforceMemory = false;

    for (uint64_t index = 0; index < 5; ++index) {
        const FuzzCase fc = makeFuzzCase(0xCAFEu, index);
        const LowerBoundEvaluator lbe(*fc.workload, starved, no_memory);
        EXPECT_FALSE(lbe.capacityRejects(*fc.tree));
        // And the traffic bound still stands against that evaluator.
        const Evaluator full(*fc.workload, starved, no_memory);
        const EvalResult r = full.evaluate(*fc.tree);
        const LowerBound lb = lbe.bound(*fc.tree);
        if (r.valid && lb.analyzed) {
            EXPECT_LE(lb.cycles, r.cycles) << fc.summary;
        }
    }
}

TEST(LowerBound, DegenerateTrees)
{
    const FuzzCase fc = makeFuzzCase(0x1u, 0);
    const LowerBoundEvaluator lbe(*fc.workload, fuzzSpec());

    // Empty tree: nothing to analyze, nothing to reject.
    const AnalysisTree empty(*fc.workload);
    const LowerBound lb = lbe.bound(empty);
    EXPECT_FALSE(lb.analyzed);
    EXPECT_FALSE(lb.capacityReject);
    EXPECT_EQ(lb.cycles, 0.0);
    EXPECT_FALSE(lbe.capacityRejects(empty));
}

// -------------------------------------------------------------------
// Guard integration: the bound-first path
// -------------------------------------------------------------------

TEST(LowerBound, GuardPrunesAgainstAnUnbeatableThreshold)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);
    const LowerBoundEvaluator lbe(model);

    // Unpruned baseline: the default choices evaluate fully.
    const CachedEval plain =
        guardedEvaluate(model, space, space.defaultChoices());
    EXPECT_FALSE(plain.pruned);

    // A threshold no candidate can beat: every analyzable candidate
    // is discarded on its bound alone — no full evaluation, no
    // failure classification, and a verdict callers must not cache.
    const BoundPrune prune{&lbe, 1e-9};
    const CachedEval pruned =
        guardedEvaluate(model, space, space.defaultChoices(), &prune);
    EXPECT_TRUE(pruned.pruned);
    EXPECT_FALSE(pruned.valid);
    EXPECT_FALSE(pruned.failed);

    // +inf threshold: only the capacity screen can prune, so a
    // feasible candidate passes through to full evaluation with the
    // identical result.
    const BoundPrune no_threshold{&lbe,
                                  std::numeric_limits<double>::infinity()};
    const CachedEval through = guardedEvaluate(
        model, space, space.defaultChoices(), &no_threshold);
    EXPECT_EQ(through.pruned, false);
    EXPECT_EQ(through.valid, plain.valid);
    EXPECT_EQ(through.cycles, plain.cycles);
}

// -------------------------------------------------------------------
// Search integration: equal-cost bests, accounting, kill/resume
// -------------------------------------------------------------------

namespace {

MapperConfig
smallGaConfig()
{
    MapperConfig cfg;
    cfg.rounds = 5;
    cfg.population = 6;
    cfg.tilingSamples = 15;
    cfg.seed = 0xB00B5u;
    cfg.threads = 1;
    return cfg;
}

} // namespace

TEST(LowerBound, GaPruneOnAndOffFindEqualCostBests)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    MapperConfig on = smallGaConfig();
    on.boundPrune = true;
    MapperConfig off = smallGaConfig();
    off.boundPrune = false;

    const MapperResult a = exploreSpace(model, space, on);
    const MapperResult b = exploreSpace(model, space, off);
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.bestCycles, b.bestCycles);

    // Pruning discards work, it never invents it: strictly fewer full
    // evaluations, with the difference visible in boundPruned.
    EXPECT_LT(a.evaluations, b.evaluations);
    EXPECT_GT(a.boundPruned, 0u);
    EXPECT_EQ(b.boundPruned, 0u);
}

TEST(LowerBound, MctsPruneOnAndOffFindEqualCostBests)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    MapperConfig on;
    on.threads = 1;
    on.boundPrune = true;
    MapperConfig off = on;
    off.boundPrune = false;

    const MapperResult a =
        exploreTiling(model, space, 300, 0x5EEDu, on);
    const MapperResult b =
        exploreTiling(model, space, 300, 0x5EEDu, off);
    ASSERT_TRUE(a.found);
    ASSERT_TRUE(b.found);
    EXPECT_EQ(a.bestCycles, b.bestCycles);
    EXPECT_LT(a.evaluations, b.evaluations);
    EXPECT_GT(a.boundPruned, 0u);
    EXPECT_EQ(b.boundPruned, 0u);
}

TEST(LowerBound, CandidateAccountingPartitionsExactly)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    MetricsRegistry& metrics = MetricsRegistry::global();
    const uint64_t cand0 = metrics.counterValue("mapper.candidates");
    const uint64_t pruned0 = metrics.counterValue("mapper.bound_pruned");
    const uint64_t evals0 = metrics.counterValue("mapper.evaluations");
    const uint64_t bevals0 = metrics.counterValue("mapper.bound_evals");
    const uint64_t tight0 =
        metrics.histogram("mapper.bound_tightness").count();

    MapperConfig cfg;
    cfg.threads = 1;
    const MapperResult r = exploreTiling(model, space, 200, 7u, cfg);

    const uint64_t cand =
        metrics.counterValue("mapper.candidates") - cand0;
    const uint64_t pruned =
        metrics.counterValue("mapper.bound_pruned") - pruned0;
    const uint64_t evals =
        metrics.counterValue("mapper.evaluations") - evals0;
    const uint64_t bevals =
        metrics.counterValue("mapper.bound_evals") - bevals0;
    const uint64_t tight =
        metrics.histogram("mapper.bound_tightness").count() - tight0;

    // Every candidate the guard saw was pruned or fully evaluated.
    EXPECT_EQ(cand, pruned + evals);
    // The search result reports exactly the registry's deltas.
    EXPECT_EQ(r.boundPruned, pruned);
    EXPECT_EQ(uint64_t(r.evaluations), evals);
    // Every prune was preceded by a computed bound, and tightness is
    // only observed for bounded candidates that were then evaluated.
    EXPECT_GE(bevals, pruned);
    EXPECT_LE(tight, evals);
}

TEST(LowerBound, MctsKillResumeWithPruningIsBitIdentical)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    MapperConfig cfg;
    cfg.threads = 1;
    cfg.checkpointEveryBatches = 1;

    const MapperResult reference =
        exploreTiling(model, space, 300, 42u, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);
    ASSERT_GT(reference.boundPruned, 0u);

    const std::string path = testing::TempDir() + "lb_mcts.ckpt";
    std::remove(path.c_str());

    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = std::max(1, reference.evaluations / 2);
    const MapperResult k = exploreTiling(model, space, 300, 42u, killed);
    EXPECT_TRUE(k.timedOut);
    EXPECT_LE(k.evaluations, reference.evaluations);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreTiling(model, space, 300, 42u, resume);
    EXPECT_TRUE(r.resumed);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.bestCycles, reference.bestCycles);
    EXPECT_EQ(r.bestChoices, reference.bestChoices);
    EXPECT_EQ(r.evaluations, reference.evaluations);
    EXPECT_EQ(r.boundPruned, reference.boundPruned);
    EXPECT_EQ(r.failureHistogram, reference.failureHistogram);
    std::remove(path.c_str());

    // The budget above trips after the first batch, which holds every
    // full evaluation of this search and no prune yet. Now kill the
    // run later, after prunes have been memoized: every checkpoint
    // write after the first kKilledAfter batches fails, as if the
    // process died there.
    constexpr size_t kKilledAfter = 4;
    armCheckpointCrashForTesting(int(kKilledAfter));
    exploreTiling(model, space, 300, 42u, resume);
    armCheckpointCrashForTesting(-1);
    // What the dead run left behind: a resume whose evaluation budget
    // is already spent stops at its first batch boundary and reports
    // the checkpointed state.
    MapperConfig peek = resume;
    peek.maxEvaluations = 1;
    const MapperResult dead = exploreTiling(model, space, 300, 42u, peek);
    ASSERT_TRUE(dead.resumed);
    ASSERT_TRUE(dead.timedOut);
    ASSERT_EQ(dead.trace.size(), kKilledAfter * size_t(cfg.mctsBatch));
    ASSERT_GT(dead.boundPruned, 0u) << "the kill must come after a prune";

    const MapperResult late = exploreTiling(model, space, 300, 42u, resume);
    EXPECT_TRUE(late.resumed);
    ASSERT_TRUE(late.found);
    EXPECT_EQ(late.bestCycles, reference.bestCycles);
    EXPECT_EQ(late.bestChoices, reference.bestChoices);
    ASSERT_EQ(late.trace.size(), reference.trace.size());
    for (size_t i = 0; i < late.trace.size(); ++i) {
        EXPECT_EQ(std::bit_cast<uint64_t>(late.trace[i]),
                  std::bit_cast<uint64_t>(reference.trace[i]))
            << "trace index " << i;
    }
    EXPECT_EQ(late.evaluations, reference.evaluations);
    EXPECT_EQ(late.failureHistogram, reference.failureHistogram);
    // A checkpoint keeps verdicts, not memoized prunes (DESIGN §13):
    // the resume bounds again each pre-kill prune it redraws, once.
    EXPECT_GE(late.boundPruned, reference.boundPruned);
    EXPECT_LE(late.boundPruned, reference.boundPruned + dead.boundPruned);
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

TEST(LowerBound, GaKillResumeWithPruningIsBitIdentical)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    const MapperConfig cfg = smallGaConfig();
    const MapperResult reference = exploreSpace(model, space, cfg);
    ASSERT_TRUE(reference.found);
    ASSERT_GT(reference.evaluations, 0);
    ASSERT_GT(reference.boundPruned, 0u);

    const std::string path = testing::TempDir() + "lb_ga.ckpt";
    std::remove(path.c_str());

    MapperConfig killed = cfg;
    killed.checkpointPath = path;
    killed.maxEvaluations = std::max(1, reference.evaluations / 2);
    const MapperResult k = exploreSpace(model, space, killed);
    EXPECT_TRUE(k.timedOut);

    MapperConfig resume = cfg;
    resume.checkpointPath = path;
    const MapperResult r = exploreSpace(model, space, resume);
    EXPECT_TRUE(r.resumed);
    ASSERT_TRUE(r.found);
    EXPECT_EQ(r.bestCycles, reference.bestCycles);
    EXPECT_EQ(r.bestChoices, reference.bestChoices);
    EXPECT_EQ(r.evaluations, reference.evaluations);
    EXPECT_EQ(r.boundPruned, reference.boundPruned);
    std::remove(path.c_str());
}


// -------------------------------------------------------------------
// The bound memo: bound-only EvalCache entries
// -------------------------------------------------------------------

namespace {

/** Registry counter deltas over a scope. */
struct CounterDelta
{
    explicit CounterDelta(const char* name)
        : name_(name),
          start_(MetricsRegistry::global().counterValue(name))
    {
    }

    uint64_t
    value() const
    {
        return MetricsRegistry::global().counterValue(name_) - start_;
    }

  private:
    const char* name_;
    uint64_t start_;
};

/** `space` narrowed to its default choices: every draw is the same
 *  candidate, so a test controls exactly what the cache holds. */
MappingSpace
singlePoint(const MappingSpace& space)
{
    std::vector<Knob> knobs = space.knobs();
    const std::vector<int64_t> defaults = space.defaultChoices();
    for (size_t i = 0; i < knobs.size(); ++i)
        knobs[i].choices = {defaults[i]};
    return MappingSpace(std::move(knobs),
                        [&space](const std::vector<int64_t>& choices) {
                            return space.build(choices);
                        });
}

} // namespace

TEST(BoundMemo, EachDistinctCandidateIsBoundedOnce)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace space = makeAttentionTilingSpace(w, edge);

    // Every candidate that reaches the guard is built exactly once
    // there, so the distinct built vectors are the distinct
    // candidates the search bounded or evaluated.
    std::mutex mutex;
    std::set<std::vector<int64_t>> built;
    const MappingSpace counting(
        space.knobs(), [&](const std::vector<int64_t>& choices) {
            {
                const std::lock_guard<std::mutex> lock(mutex);
                built.insert(choices);
            }
            return space.build(choices);
        });

    const CounterDelta bounds("mapper.bound_evals");
    const CounterDelta candidates("mapper.candidates");
    MapperConfig cfg;
    cfg.threads = 1;
    const MapperResult r = exploreTiling(model, counting, 600, 7u, cfg);
    ASSERT_TRUE(r.found);
    ASSERT_GT(r.boundPruned, 0u);

    // One bound per distinct candidate: a repeat draw is settled by
    // the cache (a memoized prune, or a full verdict), and a
    // bound-only entry that the threshold no longer prunes is
    // evaluated with its memoized bound.
    EXPECT_EQ(bounds.value(), built.size());
    // Repeat prunes are cache hits, not candidates.
    EXPECT_LT(candidates.value(), 600u);
    EXPECT_EQ(candidates.value(), r.boundPruned + uint64_t(r.evaluations));
    EXPECT_EQ(r.cacheHits + r.cacheMisses, 600u);
}

TEST(BoundMemo, CachedBoundIsJudgedAgainstEachThreshold)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace tiling = makeAttentionTilingSpace(w, edge);
    const MappingSpace space = singlePoint(tiling);
    const LowerBoundEvaluator lbe(model);
    const std::vector<int64_t> choices = space.defaultChoices();

    // Bound the candidate once, through the guard, against a
    // threshold nothing beats.
    const BoundPrune unbeatable{&lbe, 1e-9};
    const CachedEval memo =
        guardedEvaluate(model, space, choices, &unbeatable);
    ASSERT_TRUE(memo.pruned);
    const double bound = memo.boundCycles;
    ASSERT_TRUE(std::isfinite(bound));
    const CachedEval full = guardedEvaluate(model, space, choices);
    ASSERT_TRUE(full.valid);
    ASSERT_LE(bound, full.cycles);

    const int samples = 16;
    auto tune = [&](EvalCache& cache, double seed_best) {
        Rng rng(1);
        MctsTuner tuner(model, space, rng);
        tuner.setCache(&cache);
        tuner.setBoundPrune(&lbe, seed_best);
        return tuner.tune(choices, samples);
    };

    {
        // A threshold at or below the bound: every draw is a memoized
        // prune — a cache hit, with no bound call, no candidate and
        // no evaluation.
        SCOPED_TRACE("threshold == bound");
        EvalCache cache;
        cache.insert(choices, memo);
        const CounterDelta bounds("mapper.bound_evals");
        const CounterDelta candidates("mapper.candidates");
        const MctsResult r = tune(cache, bound);
        EXPECT_FALSE(r.found);
        EXPECT_EQ(r.evaluations, 0);
        EXPECT_EQ(r.boundPruned, 0u);
        EXPECT_EQ(r.cacheHits, uint64_t(samples));
        EXPECT_EQ(r.cacheMisses, 0u);
        EXPECT_EQ(bounds.value(), 0u);
        EXPECT_EQ(candidates.value(), 0u);
        EXPECT_TRUE(cache.lookup(choices)->pruned);
    }
    {
        // A threshold above the bound: the first draw misses and is
        // evaluated in full without bounding it again; its verdict
        // replaces the bound-only entry and settles every later draw.
        SCOPED_TRACE("threshold > bound");
        EvalCache cache;
        cache.insert(choices, memo);
        const CounterDelta bounds("mapper.bound_evals");
        const CounterDelta candidates("mapper.candidates");
        const MctsResult r =
            tune(cache, std::numeric_limits<double>::infinity());
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.bestCycles, full.cycles);
        EXPECT_EQ(r.evaluations, 1);
        EXPECT_EQ(r.boundPruned, 0u);
        EXPECT_EQ(r.cacheMisses, 1u);
        EXPECT_EQ(r.cacheHits, uint64_t(samples - 1));
        EXPECT_EQ(bounds.value(), 0u);
        EXPECT_EQ(candidates.value(), 1u);
        const std::optional<CachedEval> now = cache.lookup(choices);
        ASSERT_TRUE(now.has_value());
        EXPECT_FALSE(now->pruned);
        EXPECT_EQ(now->cycles, full.cycles);
    }
}

TEST(BoundMemo, BoundOnlyEntryNeverReplacesAFullVerdict)
{
    CachedEval full;
    full.valid = true;
    full.cycles = 100.0;
    CachedEval bound_only;
    bound_only.pruned = true;
    bound_only.boundCycles = 90.0;

    EvalCache cache;
    const std::vector<int64_t> first{1, 2, 3};
    cache.insert(first, full);
    cache.insert(first, bound_only);
    std::optional<CachedEval> got = cache.lookup(first);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(got->pruned);
    EXPECT_EQ(got->cycles, 100.0);

    // The other order: the full verdict replaces the bound.
    const std::vector<int64_t> second{4};
    cache.insert(second, bound_only);
    cache.insert(second, full);
    got = cache.lookup(second);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(got->pruned);
    EXPECT_TRUE(got->valid);

    // The refused insert left the byte accounting exact.
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.bytes(), EvalCache::entryBytes(first, full) +
                                 EvalCache::entryBytes(second, full));
}

TEST(BoundMemo, ResultReadersSkipBoundOnlyEntries)
{
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const LowerBoundEvaluator lbe(model);
    CachedEval bound_only;
    bound_only.pruned = true;
    bound_only.boundCycles = std::numeric_limits<double>::infinity();

    {
        // The no-factor path needs the base's cycles: a bound-only
        // entry is a miss there, and the full verdict replaces it.
        SCOPED_TRACE("no-factor path");
        const MappingSpace fixed({}, [&](const std::vector<int64_t>&) {
            return buildAttentionDataflow(w, edge,
                                          AttentionDataflow::TileFlowDF);
        });
        EvalCache cache;
        cache.insert(fixed.defaultChoices(), bound_only);
        Rng rng(1);
        MctsTuner tuner(model, fixed, rng);
        tuner.setCache(&cache);
        tuner.setBoundPrune(&lbe, 1e-9);
        const MctsResult r = tuner.tune(fixed.defaultChoices(), 10);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.evaluations, 1);
        EXPECT_EQ(r.cacheHits, 0u);
        EXPECT_EQ(r.cacheMisses, 1u);
        EXPECT_FALSE(cache.lookup(fixed.defaultChoices())->pruned);
    }
    {
        // Checkpoints persist verdicts only.
        SCOPED_TRACE("ckptWriteCache");
        EvalCache cache;
        cache.insert({1, 2}, {true, 512.0, false, ""});
        cache.insert({3}, bound_only);
        const std::string path =
            testing::TempDir() + "bound_memo_cache.ckpt";
        CkptWriter writer("test", 1);
        ckptWriteCache(writer, cache);
        ASSERT_TRUE(writer.writeTo(path));
        std::optional<CkptReader> reader = CkptReader::open(path, "test", 1);
        ASSERT_TRUE(reader.has_value());
        EvalCache back;
        ASSERT_TRUE(ckptReadCache(*reader, back));
        EXPECT_EQ(back.size(), 1u);
        EXPECT_FALSE(back.lookup({3}).has_value());
        ASSERT_TRUE(back.lookup({1, 2}).has_value());
        EXPECT_EQ(back.lookup({1, 2})->cycles, 512.0);
        std::remove(path.c_str());
    }
}

TEST(BoundMemo, ResumeWithoutTheMemoReproducesTheSearch)
{
    // A checkpoint drops the bound-only entries. Kill the runs after
    // many prunes have been memoized (every checkpoint write after the
    // first `kept` fails, as if the process died there), then resume:
    // the resumed run bounds those candidates again, reaches the same
    // verdicts and so the same search.
    const Workload w = buildAttention(attentionShape("Bert-S"), false);
    const ArchSpec edge = makeEdgeArch();
    const Evaluator model(w, edge);
    const MappingSpace tiling = makeAttentionTilingSpace(w, edge);
    const MappingSpace space = makeAttentionSpace(w, edge);

    auto expect_same_search = [](const MapperResult& r,
                                 const MapperResult& reference) {
        EXPECT_TRUE(r.resumed);
        ASSERT_TRUE(r.found);
        EXPECT_EQ(r.bestCycles, reference.bestCycles);
        EXPECT_EQ(r.bestChoices, reference.bestChoices);
        ASSERT_EQ(r.trace.size(), reference.trace.size());
        for (size_t i = 0; i < r.trace.size(); ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(r.trace[i]),
                      std::bit_cast<uint64_t>(reference.trace[i]))
                << "trace index " << i;
        }
        EXPECT_EQ(r.evaluations, reference.evaluations);
        // The lost memo shows only as repeated bounds.
        EXPECT_GT(r.boundPruned, reference.boundPruned);
    };

    {
        SCOPED_TRACE("exploreTiling");
        MapperConfig cfg;
        cfg.threads = 1;
        cfg.checkpointEveryBatches = 1;
        const MapperResult reference =
            exploreTiling(model, tiling, 600, 42u, cfg);
        ASSERT_TRUE(reference.found);

        const std::string path = testing::TempDir() + "bound_memo_mcts.ckpt";
        std::remove(path.c_str());
        MapperConfig run = cfg;
        run.checkpointPath = path;
        armCheckpointCrashForTesting(20);
        exploreTiling(model, tiling, 600, 42u, run);
        armCheckpointCrashForTesting(-1);
        expect_same_search(exploreTiling(model, tiling, 600, 42u, run),
                           reference);
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
    {
        SCOPED_TRACE("exploreSpace");
        MapperConfig cfg = smallGaConfig();
        const MapperResult reference = exploreSpace(model, space, cfg);
        ASSERT_TRUE(reference.found);

        const std::string path = testing::TempDir() + "bound_memo_ga.ckpt";
        std::remove(path.c_str());
        MapperConfig run = cfg;
        run.checkpointPath = path;
        // The initial population's write and two generations.
        armCheckpointCrashForTesting(3);
        exploreSpace(model, space, run);
        armCheckpointCrashForTesting(-1);
        expect_same_search(exploreSpace(model, space, run), reference);
        std::remove(path.c_str());
        std::remove((path + ".tmp").c_str());
    }
}

} // namespace tileflow
