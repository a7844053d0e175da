#include "analysis/slice.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "common/logging.hpp"
#include "common/telemetry.hpp"

namespace tileflow {

StepGeometry::StepGeometry(const Workload& workload, const Node* node,
                           bool include_node_spatial)
    : workload_(&workload), node_(node)
{
    if (!node->isTile())
        panic("StepGeometry: node must be a Tile");
    static Counter& built =
        MetricsRegistry::global().counter("analysis.step_geometries");
    built.add();

    const size_t num_dims = workload.dims().size();
    units_.assign(num_dims, 1);
    spatialSpan_.assign(num_dims, 1);

    std::vector<int64_t> full_spatial(num_dims, 1);
    for (const Loop& loop : node->loops()) {
        if (loop.isTemporal()) {
            temporal_.push_back(loop);
        } else {
            full_spatial[size_t(loop.dim)] *= loop.extent;
            if (include_node_spatial)
                spatialSpan_[size_t(loop.dim)] *= loop.extent;
        }
    }

    // One pass over the leaves below the node computes both:
    //  - unit(d) = spatial extent at this node times the largest d-span
    //    of any child subtree (always including spatial: temporal steps
    //    advance past all spatial instances);
    //  - per leaf, the span below the node: loops on the path from the
    //    node's child down to the leaf (pathSpan from the node includes
    //    the node's own loops, so divide those back out), times the
    //    node's spatial extent.
    leaves_ = node->opLeaves();
    leafSpans_.resize(leaves_.size() * num_dims);
    std::vector<int64_t> child_span(num_dims);
    for (size_t i = 0; i < leaves_.size(); ++i) {
        const Node* leaf = leaves_[i];
        const Node* child = leaf;
        while (child->parent() != node)
            child = child->parent();
        pathSpans(child, leaf, child_span);
        for (size_t d = 0; d < num_dims; ++d)
            units_[d] = std::max(units_[d], child_span[d]);

        const std::span<int64_t> below(leafSpans_.data() + i * num_dims,
                                       num_dims);
        pathSpans(node, leaf, below);
        for (const Loop& loop : node->loops())
            below[size_t(loop.dim)] /= loop.extent;
        for (size_t d = 0; d < num_dims; ++d)
            below[d] *= spatialSpan_[d];
    }
    for (size_t d = 0; d < num_dims; ++d)
        units_[d] = full_spatial[d] * units_[d];
}

HyperRect
StepGeometry::slice(const Node* leaf, const TensorAccess& access,
                    const std::vector<int64_t>& temporal_idx) const
{
    static const std::vector<int64_t> no_base;
    return slice(leaf, access, temporal_idx, no_base);
}

HyperRect
StepGeometry::slice(const Node* leaf, const TensorAccess& access,
                    const std::vector<int64_t>& temporal_idx,
                    const std::vector<int64_t>& dim_base) const
{
    const size_t num_dims = units_.size();
    const auto found = std::find(leaves_.begin(), leaves_.end(), leaf);
    if (found == leaves_.end())
        panic("StepGeometry::slice: leaf is not below the node");
    const std::span<const int64_t> span(
        leafSpans_.data() + size_t(found - leaves_.begin()) * num_dims,
        num_dims);

    // Per-dim base offsets; on the stack for every workload this
    // repository ships, on the heap past kStackDims dims.
    constexpr size_t kStackDims = 32;
    std::array<int64_t, kStackDims> stack_base;
    std::vector<int64_t> heap_base;
    int64_t* base = stack_base.data();
    if (num_dims > kStackDims) {
        heap_base.resize(num_dims);
        base = heap_base.data();
    }
    if (dim_base.empty()) {
        std::fill(base, base + num_dims, 0);
    } else {
        if (dim_base.size() != num_dims)
            panic("StepGeometry::slice: dim_base rank mismatch");
        std::copy(dim_base.begin(), dim_base.end(), base);
    }
    for (size_t k = 0; k < temporal_.size(); ++k) {
        const Loop& loop = temporal_[k];
        base[size_t(loop.dim)] +=
            temporal_idx[k] * units_[size_t(loop.dim)];
    }

    const Operator& op = workload_->op(leaf->op());
    return op.sliceOf(access, std::span<const int64_t>(base, num_dims),
                      span);
}

std::vector<int64_t>
StepGeometry::beforeAdvance(size_t k, bool conservative) const
{
    std::vector<int64_t> idx(temporal_.size(), 0);
    if (conservative) {
        for (size_t j = k + 1; j < temporal_.size(); ++j)
            idx[j] = temporal_[j].extent - 1;
    }
    return idx;
}

std::vector<int64_t>
StepGeometry::afterAdvance(size_t k) const
{
    std::vector<int64_t> idx(temporal_.size(), 0);
    idx[k] = 1;
    return idx;
}

std::vector<int64_t>
StepGeometry::lastStep() const
{
    std::vector<int64_t> idx(temporal_.size(), 0);
    for (size_t j = 0; j < temporal_.size(); ++j)
        idx[j] = temporal_[j].extent - 1;
    return idx;
}

int64_t
StepGeometry::advances(size_t k) const
{
    if (temporal_[k].extent <= 1)
        return 0;
    int64_t outer = 1;
    for (size_t j = 0; j < k; ++j)
        outer *= temporal_[j].extent;
    return (temporal_[k].extent - 1) * outer;
}

int64_t
StepGeometry::advancesFor(size_t k, const Operator& op,
                          const TensorAccess& access) const
{
    if (temporal_[k].extent <= 1)
        return 0;

    auto relevant = [&](DimId dim) {
        for (const auto& dim_expr : access.projection) {
            for (const auto& term : dim_expr) {
                if (term.dim == dim)
                    return true;
            }
        }
        // Outer reduction loops revisit a written tensor's tile.
        return access.isWrite && op.isReduction(dim);
    };

    if (!relevant(temporal_[k].dim))
        return 0;
    int64_t outer = 1;
    for (size_t j = 0; j < k; ++j) {
        if (relevant(temporal_[j].dim))
            outer *= temporal_[j].extent;
    }
    return (temporal_[k].extent - 1) * outer;
}

} // namespace tileflow
