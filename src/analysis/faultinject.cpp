#include "analysis/faultinject.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/hash.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "core/tree.hpp"

namespace tileflow {

namespace {

double
clamp01(double v)
{
    return std::min(1.0, std::max(0.0, v));
}

} // namespace

FaultInjector::FaultInjector(double throw_fraction, double nan_fraction,
                             uint64_t seed)
    : throwFraction_(clamp01(throw_fraction)),
      nanFraction_(clamp01(nan_fraction)),
      seed_(seed)
{
    if (throwFraction_ + nanFraction_ > 1.0)
        nanFraction_ = 1.0 - throwFraction_;
}

std::shared_ptr<const FaultInjector>
FaultInjector::fromEnv()
{
    double throw_fraction = 0.0;
    double nan_fraction = 0.0;
    uint64_t seed = 1;
    for (const auto& [key, value] : envKeyValues("TILEFLOW_FAULT_INJECT")) {
        if (key == "throw") {
            throw_fraction = std::strtod(value.c_str(), nullptr);
        } else if (key == "nan") {
            nan_fraction = std::strtod(value.c_str(), nullptr);
        } else if (key == "seed") {
            seed = std::strtoull(value.c_str(), nullptr, 10);
        } else {
            warn("TILEFLOW_FAULT_INJECT: unknown key '", key, "'");
        }
    }
    if (throw_fraction <= 0.0 && nan_fraction <= 0.0)
        return nullptr;
    return std::make_shared<const FaultInjector>(throw_fraction,
                                                 nan_fraction, seed);
}

uint64_t
FaultInjector::treeKey(const AnalysisTree& tree)
{
    return fnvBytes(tree.str());
}

FaultKind
FaultInjector::decideKey(uint64_t key) const
{
    // Structurally-similar trees fault independently: the draw
    // spreads the key bits before the threshold comparison.
    const double u = seededDraw(seed_, key);
    if (u < throwFraction_)
        return FaultKind::Throw;
    if (u < throwFraction_ + nanFraction_)
        return FaultKind::Nan;
    return FaultKind::None;
}

FaultKind
FaultInjector::decide(const AnalysisTree& tree) const
{
    return decideKey(treeKey(tree));
}

} // namespace tileflow
