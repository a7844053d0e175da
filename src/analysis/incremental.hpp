/**
 * @file
 * IncrementalEvaluator: an Evaluator with a SubtreeCache attached.
 *
 * Evaluator::evaluate memoizes per-subtree analysis partials whenever
 * a cache is attached (see evaluator.hpp for the bit-identity
 * contract and telemetry). This subclass is the one-line way to get
 * such an evaluator from a plain one; it adds no behaviour.
 */

#ifndef TILEFLOW_ANALYSIS_INCREMENTAL_HPP
#define TILEFLOW_ANALYSIS_INCREMENTAL_HPP

#include "analysis/evaluator.hpp"

namespace tileflow {

class IncrementalEvaluator : public Evaluator
{
  public:
    /** Copies `base` (workload, spec, options and fault injectors as
     *  set now) and attaches `cache`, which must outlive this. */
    IncrementalEvaluator(const Evaluator& base, SubtreeCache& cache)
        : Evaluator(base)
    {
        setSubtreeCache(&cache);
    }
};

} // namespace tileflow

#endif // TILEFLOW_ANALYSIS_INCREMENTAL_HPP
