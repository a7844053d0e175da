#include "analysis/datamovement.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/childgroup.hpp"
#include "analysis/slice.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace tileflow {

namespace {

/** Traffic sink for one boundary type. */
struct StepTraffic
{
    double readBytes = 0.0;
    double writeBytes = 0.0;
    /** Per child index: bytes filled into / read back from its buffer. */
    std::vector<double> childFill;
    std::vector<double> childDrain;

    explicit StepTraffic(size_t num_children)
        : childFill(num_children, 0.0), childDrain(num_children, 0.0)
    {
    }

    void reset()
    {
        readBytes = 0.0;
        writeBytes = 0.0;
        std::fill(childFill.begin(), childFill.end(), 0.0);
        std::fill(childDrain.begin(), childDrain.end(), 0.0);
    }
};

/** Resident buffer entry of one (child, tensor). */
struct Resident
{
    int child = 0;
    TensorId tensor = -1;
    HyperRect rect;
    bool dirty = false;
};

/**
 * The residents of all children, kept sorted by (child, tensor): the
 * order in which the Seq eviction sweep accumulates drained bytes.
 */
struct ResidentTable
{
    std::vector<Resident> entries;
    /** Scratch for the Seq sweep's ownership moves. */
    std::vector<Resident> moves;

    Resident* find(int child, TensorId tensor)
    {
        for (Resident& r : entries) {
            if (r.child == child && r.tensor == tensor)
                return &r;
        }
        return nullptr;
    }

    /** Insert or overwrite the entry of (r.child, r.tensor). */
    void set(const Resident& r)
    {
        auto it = entries.begin();
        while (it != entries.end() &&
               (it->child < r.child ||
                (it->child == r.child && it->tensor < r.tensor)))
            ++it;
        if (it != entries.end() && it->child == r.child &&
            it->tensor == r.tensor)
            *it = r;
        else
            entries.insert(it, r);
    }
};

/** Relevance of a dim to an access (reduction dims revisit writes). */
bool
accessRelevant(const Operator& op, const TensorAccess& access, DimId dim)
{
    for (const auto& dim_expr : access.projection) {
        for (const auto& term : dim_expr) {
            if (term.dim == dim)
                return true;
        }
    }
    return access.isWrite && op.isReduction(dim);
}

/**
 * How many executions of a node actually move data for this access:
 * ancestor temporal loops over dims the access does not touch repeat
 * the same slice, which stays buffered below (Timeloop-style reuse
 * across outer executions). Spatial loops always multiply — separate
 * instances hold separate copies. `ancestor_loops` lists the loops of
 * the node's ancestor Tiles, nearest ancestor first.
 */
double
relevantExecutions(const std::vector<Loop>& ancestor_loops,
                   const Operator& op, const TensorAccess& access)
{
    double count = 1.0;
    for (const Loop& loop : ancestor_loops) {
        if (loop.isSpatial() || accessRelevant(op, access, loop.dim))
            count *= double(loop.extent);
    }
    return count;
}

/**
 * Which accesses a simulation pass processes. Retained accesses have
 * step slices small enough for the destination buffer to keep across
 * irrelevant-loop sweeps (phase-matched boundaries, relevant-loop
 * weights); streamed accesses are too big to retain and are re-fetched
 * every step (adjacent-step boundaries, uniform weights) — the
 * "replacement every outer iteration" behaviour of Sec. 7.1.
 */
enum class PassKind { All, RetainedOnly, StreamedOnly };

/**
 * One access of one leaf of one (non-passthrough) child, with every
 * value the simulation needs that does not depend on the step. Built
 * once per Tile node; every pass and boundary iterates the same list.
 */
struct AccessSite
{
    const Node* leaf = nullptr;
    const Operator* op = nullptr;
    const TensorAccess* access = nullptr;
    double elemBytes = 0.0;
    /** The step slice is too large to retain (see PassKind). */
    bool streamed = false;
    /** Read of a tensor whose producer lives inside the child. */
    bool producedInside = false;
    /** Write whose data must leave the child (escapesChild). */
    bool escapes = false;
    /** Volume of the slice at the zero step; computed only where the
     *  streamed test or the final write-back reads it. */
    int64_t zeroVolume = 0;
    /** relevantExecutions(); computed only where it is read: for
     *  retained accesses outside conservative mode. */
    double relevantExecs = 0.0;
};

/** A Tile node's access sites, grouped by child in child order. */
struct TileSites
{
    std::vector<AccessSite> sites;
    /** Per child, the [begin, end) range of its sites. */
    std::vector<std::pair<size_t, size_t>> ranges;

    bool childUses(size_t j, TensorId tensor) const
    {
        for (size_t i = ranges[j].first; i < ranges[j].second; ++i) {
            if (sites[i].access->tensor == tensor)
                return true;
        }
        return false;
    }
};

TileSites
buildSites(const Workload& workload, const StepGeometry& geom,
           const ChildGroup& group, bool conservative,
           int64_t stream_threshold)
{
    TileSites out;
    const std::vector<int64_t> zero(geom.temporalLoops().size(), 0);
    std::vector<Loop> ancestor_loops;
    for (const Node* cursor = geom.node()->parent(); cursor != nullptr;
         cursor = cursor->parent()) {
        if (cursor->isTile())
            ancestor_loops.insert(ancestor_loops.end(),
                                  cursor->loops().begin(),
                                  cursor->loops().end());
    }
    for (const ChildInfo& child : group.children) {
        const size_t begin = out.sites.size();
        if (!child.passthrough) {
            for (const Node* leaf : child.leaves) {
                const Operator& op = workload.op(leaf->op());
                for (const auto& access : op.accesses()) {
                    AccessSite site;
                    site.leaf = leaf;
                    site.op = &op;
                    site.access = &access;
                    const int64_t dtype_bytes =
                        dataTypeBytes(workload.tensor(access.tensor).dtype);
                    site.elemBytes = double(dtype_bytes);
                    if (access.isWrite)
                        site.escapes =
                            escapesChild(workload, access.tensor, child);
                    else
                        site.producedInside =
                            producedInside(workload, access.tensor, child);
                    if (stream_threshold > 0 ||
                        (access.isWrite && site.escapes)) {
                        site.zeroVolume =
                            geom.slice(leaf, access, zero).volume();
                    }
                    site.streamed =
                        stream_threshold > 0 &&
                        4 * (site.zeroVolume * dtype_bytes) >
                            stream_threshold;
                    if (!conservative && !site.streamed)
                        site.relevantExecs =
                            relevantExecutions(ancestor_loops, op, access);
                    out.sites.push_back(site);
                }
            }
        }
        out.ranges.emplace_back(begin, out.sites.size());
    }
    return out;
}

/**
 * Simulate one temporal step of the node at loop indices `idx`:
 * visit children in order, diff required slices against residents,
 * apply Seq evictions, and (when `sink` is non-null) record traffic.
 *
 * `boundary` selects the advance weights: -1 means the initial
 * (compulsory) step with weight 1 per access; otherwise it is the
 * index of the advancing temporal loop and each access is weighted by
 * its own relevant-loop advance count (or the uniform count in
 * conservative mode — used under Seq, whose evictions defeat
 * irrelevant-loop reuse).
 */
void
simulateStep(const Workload& workload, const StepGeometry& geom,
             const ChildGroup& group, const TileSites& tile,
             double executions,
             const std::vector<int64_t>& idx, ResidentTable& residents,
             StepTraffic* sink, int boundary, bool conservative,
             PassKind pass)
{
    const double step_weight =
        (boundary < 0 ? 1.0 : double(geom.advances(size_t(boundary)))) *
        executions;
    const bool uniform = conservative || pass == PassKind::StreamedOnly;
    auto weight_for = [&](const AccessSite& site) {
        const double execs = uniform ? executions : site.relevantExecs;
        if (boundary < 0)
            return execs;
        if (uniform)
            return step_weight;
        return double(geom.advancesFor(size_t(boundary), *site.op,
                                       *site.access)) *
               execs;
    };
    for (size_t j = 0; j < group.children.size(); ++j) {
        if (group.children[j].passthrough)
            continue;

        if (group.binding == ScopeKind::Seq && group.children.size() > 1) {
            // Seq: children take the same buffer in turns. When child j
            // starts, other children's residents are evicted unless
            // child j consumes the same tensor (then ownership moves).
            // Moves are applied after the sweep; a later move of the
            // same tensor overwrites an earlier one.
            residents.moves.clear();
            size_t kept = 0;
            for (size_t i = 0; i < residents.entries.size(); ++i) {
                const Resident& r = residents.entries[i];
                if (r.child == int(j)) {
                    residents.entries[kept++] = r;
                } else if (tile.childUses(j, r.tensor)) {
                    residents.moves.push_back(r);
                    residents.moves.back().child = int(j);
                } else if (r.dirty && sink) {
                    // Dirty eviction: write the displaced data upward.
                    const double bytes =
                        step_weight * double(r.rect.volume()) *
                        double(dataTypeBytes(
                            workload.tensor(r.tensor).dtype));
                    sink->writeBytes += bytes;
                    sink->childDrain[size_t(r.child)] += bytes;
                }
            }
            residents.entries.resize(kept);
            for (const Resident& moved : residents.moves)
                residents.set(moved);
        }

        for (size_t i = tile.ranges[j].first; i < tile.ranges[j].second;
             ++i) {
            const AccessSite& site = tile.sites[i];
            if (pass != PassKind::All &&
                site.streamed != (pass == PassKind::StreamedOnly)) {
                continue;
            }
            // Locally produced data never crosses this level.
            if (site.producedInside)
                continue;
            const TensorAccess& access = *site.access;
            const TensorId tensor = access.tensor;
            const HyperRect slice = geom.slice(site.leaf, access, idx);
            Resident* resident = residents.find(int(j), tensor);
            const HyperRect prev = resident ? resident->rect : HyperRect();

            if (!access.isWrite) {
                if (sink) {
                    const double bytes =
                        weight_for(site) *
                        double(slice.differenceVolume(prev)) *
                        site.elemBytes;
                    sink->readBytes += bytes;
                    sink->childFill[j] += bytes;
                }
                const bool same_rect = resident && resident->rect == slice;
                if (sink && resident && resident->dirty && !same_rect) {
                    // A read replacing a dirty resident with a
                    // different slice displaces the written data —
                    // it must drain upward like a Seq eviction, not
                    // silently vanish.
                    const double bytes = weight_for(site) *
                                         double(prev.volume()) *
                                         site.elemBytes;
                    sink->writeBytes += bytes;
                    sink->childDrain[j] += bytes;
                }
                const bool dirty = resident && resident->dirty && same_rect;
                residents.set(Resident{int(j), tensor, slice, dirty});
            } else {
                if (sink && site.escapes && resident && resident->dirty) {
                    const double bytes =
                        weight_for(site) *
                        double(prev.differenceVolume(slice)) *
                        site.elemBytes;
                    sink->writeBytes += bytes;
                    sink->childDrain[j] += bytes;
                }
                residents.set(Resident{int(j), tensor, slice, true});
            }
        }
    }
}

} // namespace

DataMovementResult
DataMovementAnalyzer::analyze(const AnalysisTree& tree) const
{
    return analyze(tree, PartialLookup{}, PartialRecord{});
}

DmNodePartial
DataMovementAnalyzer::analyzeTile(const Node* node) const
{
    return tileImpl(node, /*compulsory_only=*/false);
}

DmNodePartial
DataMovementAnalyzer::compulsoryTile(const Node* node) const
{
    return tileImpl(node, /*compulsory_only=*/true);
}

DmNodePartial
DataMovementAnalyzer::tileImpl(const Node* node,
                               bool compulsory_only) const
{
    const StepGeometry geom(*workload_, node);
    const ChildGroup group = childGroupOf(node);
    const size_t num_children = group.children.size();
    const int level = node->memLevel();
    const double executions = double(executionCount(node));

    // Seq's evictions defeat reuse across irrelevant loops, so it
    // falls back to the paper's conservative adjacent-step deltas.
    const bool conservative =
        group.binding == ScopeKind::Seq && group.children.size() > 1;

    // When this node feeds the register level, retention is
    // capacity-aware: accesses whose step slice is too large for
    // the register file are *streamed* — re-fetched every step with
    // no irrelevant-loop reuse (the over-estimation the paper
    // itself reports in Sec. 7.1). Small slices are retained.
    bool feeds_registers = true;
    for (const ChildInfo& child : group.children)
        feeds_registers = feeds_registers && child.level <= 0;
    const int64_t stream_threshold =
        (!conservative && feeds_registers && level >= 1)
            ? spec_->level(0).capacityBytes
            : 0;

    const TileSites tile =
        buildSites(*workload_, geom, group, conservative, stream_threshold);

    double load = 0.0;
    double store = 0.0;
    std::vector<double> child_fill(num_children, 0.0);
    std::vector<double> child_drain(num_children, 0.0);

    std::vector<PassKind> passes;
    if (conservative || stream_threshold <= 0)
        passes = {PassKind::All};
    else
        passes = {PassKind::RetainedOnly, PassKind::StreamedOnly};

    const std::vector<int64_t> zero(geom.temporalLoops().size(), 0);
    ResidentTable residents;
    StepTraffic traffic(num_children);
    auto add_traffic = [&]() {
        load += traffic.readBytes;
        store += traffic.writeBytes;
        for (size_t j = 0; j < num_children; ++j) {
            child_fill[j] += traffic.childFill[j];
            child_drain[j] += traffic.childDrain[j];
        }
    };
    for (PassKind pass : passes) {
        const bool adjacent = conservative || pass == PassKind::StreamedOnly;

        // Initial (compulsory) step.
        traffic.reset();
        residents.entries.clear();
        simulateStep(*workload_, geom, group, tile, executions, zero,
                     residents, &traffic, -1, conservative, pass);
        add_traffic();

        // One boundary type per temporal loop; contributions arrive
        // pre-weighted by the advance counts. The compulsory-only mode
        // skips this block entirely — the totals it returns must stay
        // an in-order subsequence of the exact accumulation (see
        // compulsoryTile).
        for (size_t k = 0;
             !compulsory_only && k < geom.temporalLoops().size(); ++k) {
            if (geom.advances(k) == 0)
                continue;
            traffic.reset();
            residents.entries.clear();
            simulateStep(*workload_, geom, group, tile, executions,
                         geom.beforeAdvance(k, adjacent), residents,
                         nullptr, -1, conservative, pass);
            simulateStep(*workload_, geom, group, tile, executions,
                         geom.afterAdvance(k), residents, &traffic, int(k),
                         conservative, pass);
            add_traffic();
        }
    }

    // Final write-back of the last resident slices of escaping written
    // tensors (one per written access, repeated per execution that
    // actually produced new data).
    for (size_t j = 0; j < num_children; ++j) {
        for (size_t i = tile.ranges[j].first; i < tile.ranges[j].second;
             ++i) {
            const AccessSite& site = tile.sites[i];
            if (!site.access->isWrite || !site.escapes)
                continue;
            const double execs = (conservative || site.streamed)
                                     ? executions
                                     : site.relevantExecs;
            const double bytes =
                execs * double(site.zeroVolume) * site.elemBytes;
            store += bytes;
            child_drain[j] += bytes;
        }
    }

    // All contributions arrive pre-scaled to whole-run totals.
    DmNodePartial partial;
    partial.loadBytes = load;
    partial.storeBytes = store;
    partial.childFill = std::move(child_fill);
    partial.childDrain = std::move(child_drain);
    partial.childLevels.reserve(num_children);
    for (const ChildInfo& child : group.children)
        partial.childLevels.push_back(child.level);
    return partial;
}

DataMovementResult
DataMovementAnalyzer::analyze(const AnalysisTree& tree,
                              const PartialLookup& lookup,
                              const PartialRecord& record) const
{
    DataMovementResult result;
    result.levels.assign(size_t(spec_->numLevels()), LevelTraffic{});

    if (!tree.hasRoot())
        return result;

    // Compute op counts once. pathSpan is cheap and exact (int64), so
    // op counts are always recomputed, never cached.
    for (const Node* leaf : tree.root()->opLeaves()) {
        const Operator& op = workload_->op(leaf->op());
        double effective = op.opsPerPoint();
        double padded = op.opsPerPoint();
        for (DimId dim : op.dims()) {
            effective *= double(workload_->dim(dim).extent);
            padded *= double(pathSpan(tree.root(), leaf, dim));
        }
        result.effectiveOps += effective;
        result.paddedOps += padded;
        if (op.kind() == ComputeKind::Matrix)
            result.effectiveMatrixOps += effective;
    }

    // Walk all Tile nodes. Cached and fresh partials feed the same
    // accumulation statements in the same traversal order with the
    // same values, so the floating-point totals are bit-identical
    // whether a node's contribution came from the cache or not.
    std::vector<const Node*> stack{tree.root()};
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        if (!node->isTile())
            continue;

        const DmNodePartial* partial = lookup ? lookup(node) : nullptr;
        DmNodePartial computed;
        if (partial == nullptr) {
            computed = analyzeTile(node);
            if (record)
                record(node, computed);
            partial = &computed;
        }

        // The per-node record keeps the per-execution average for the
        // latency model.
        const double executions = double(executionCount(node));
        result.perNode[node] =
            NodeTraffic{partial->loadBytes / executions,
                        partial->storeBytes / executions};

        auto& lvl = result.levels[size_t(node->memLevel())];
        lvl.readBytes += partial->loadBytes;
        lvl.updateBytes += partial->storeBytes;
        for (size_t j = 0; j < partial->childLevels.size(); ++j) {
            const int child_level = partial->childLevels[j];
            if (child_level < 0)
                continue; // op leaf: operands feed the PEs directly
            auto& clvl = result.levels[size_t(child_level)];
            clvl.fillBytes += partial->childFill[j];
            clvl.readBytes += partial->childDrain[j];
        }
    }
    return result;
}

DataMovementResult
DataMovementAnalyzer::analyzeCompulsory(const AnalysisTree& tree) const
{
    DataMovementResult result;
    result.levels.assign(size_t(spec_->numLevels()), LevelTraffic{});

    if (!tree.hasRoot())
        return result;

    // Same traversal order and aggregation statements as analyze(),
    // fed with compulsory-only partials: each per-node and per-level
    // total is an fl-sum of an in-order subsequence of the exact
    // sum's non-negative terms, hence bitwise <= it. Op counts are
    // deliberately not computed — the bound's latency pass reads only
    // perNode, and utilization (their one consumer) is discarded.
    std::vector<const Node*> stack{tree.root()};
    while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        for (const auto& child : node->children())
            stack.push_back(child.get());
        if (!node->isTile())
            continue;

        const DmNodePartial partial = compulsoryTile(node);

        const double executions = double(executionCount(node));
        result.perNode[node] =
            NodeTraffic{partial.loadBytes / executions,
                        partial.storeBytes / executions};

        auto& lvl = result.levels[size_t(node->memLevel())];
        lvl.readBytes += partial.loadBytes;
        lvl.updateBytes += partial.storeBytes;
        for (size_t j = 0; j < partial.childLevels.size(); ++j) {
            const int child_level = partial.childLevels[j];
            if (child_level < 0)
                continue;
            auto& clvl = result.levels[size_t(child_level)];
            clvl.fillBytes += partial.childFill[j];
            clvl.readBytes += partial.childDrain[j];
        }
    }
    return result;
}

std::string
DataMovementResult::str(const ArchSpec& spec) const
{
    std::ostringstream os;
    for (int i = int(levels.size()) - 1; i >= 0; --i) {
        const auto& lvl = levels[size_t(i)];
        os << "L" << i << " (" << spec.level(i).name
           << "): read=" << humanCount(lvl.readBytes)
           << "B fill=" << humanCount(lvl.fillBytes)
           << "B update=" << humanCount(lvl.updateBytes) << "B\n";
    }
    os << "ops: effective=" << humanCount(effectiveOps)
       << " padded=" << humanCount(paddedOps) << "\n";
    return os.str();
}

} // namespace tileflow
