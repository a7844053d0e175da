#include "ir/operator.hpp"

#include <algorithm>
#include <array>

#include "common/logging.hpp"

namespace tileflow {

std::string
computeKindName(ComputeKind kind)
{
    return kind == ComputeKind::Matrix ? "matrix" : "vector";
}

void
Operator::addDim(DimId dim, bool is_reduction)
{
    if (usesDim(dim))
        fatal("Operator ", name_, ": dim ", dim, " added twice");
    dims_.push_back(dim);
    if (is_reduction)
        reductionDims_.push_back(dim);
}

void
Operator::addAccess(TensorAccess access)
{
    for (const auto& dim_expr : access.projection) {
        for (const auto& term : dim_expr) {
            if (!usesDim(term.dim))
                fatal("Operator ", name_, ": access uses dim ", term.dim,
                      " not in the operator's dim set");
            if (term.coeff < 0)
                fatal("Operator ", name_,
                      ": negative access coefficients are not supported");
        }
    }
    accesses_.push_back(std::move(access));
}

bool
Operator::usesDim(DimId dim) const
{
    return std::find(dims_.begin(), dims_.end(), dim) != dims_.end();
}

bool
Operator::isReduction(DimId dim) const
{
    return std::find(reductionDims_.begin(), reductionDims_.end(), dim) !=
           reductionDims_.end();
}

std::vector<TensorId>
Operator::inputTensors() const
{
    std::vector<TensorId> out;
    for (const auto& access : accesses_) {
        if (!access.isWrite)
            out.push_back(access.tensor);
    }
    return out;
}

std::vector<TensorId>
Operator::outputTensors() const
{
    std::vector<TensorId> out;
    for (const auto& access : accesses_) {
        if (access.isWrite)
            out.push_back(access.tensor);
    }
    return out;
}

HyperRect
Operator::sliceOf(const TensorAccess& access, std::span<const int64_t> base,
                  std::span<const int64_t> span) const
{
    const size_t rank = access.projection.size();
    if (rank > HyperRect::kMaxRank)
        fatal("Operator ", name_, ": access of rank ", rank,
              " exceeds the supported maximum ", HyperRect::kMaxRank);
    std::array<int64_t, HyperRect::kMaxRank> begins;
    std::array<int64_t, HyperRect::kMaxRank> ends;
    for (size_t d = 0; d < rank; ++d) {
        int64_t lo = 0;
        int64_t hi = 0; // inclusive upper bound
        for (const auto& term : access.projection[d]) {
            const int64_t b = base[size_t(term.dim)];
            const int64_t s = std::max<int64_t>(span[size_t(term.dim)], 1);
            lo += term.coeff * b;
            hi += term.coeff * (b + s - 1);
        }
        begins[d] = lo;
        ends[d] = hi + 1;
    }
    return HyperRect(std::span<const int64_t>(begins.data(), rank),
                     std::span<const int64_t>(ends.data(), rank));
}

} // namespace tileflow
