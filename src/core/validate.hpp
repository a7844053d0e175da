/**
 * @file
 * Structural validation of analysis trees.
 *
 * Checks well-formedness rules implied by Sec. 4:
 *  - the root is a Tile and every Op leaf sits under a level-0 Tile;
 *  - Tile memory levels never increase from parent to child;
 *  - no dim appears twice in one Tile's loop list;
 *  - every workload operator appears exactly once as a leaf;
 *  - per op and dim, the loop extents along the root-to-leaf path
 *    cover the dim extent;
 *  - Scope nodes have at least two children.
 *
 * The primary entry point is validateTreeDiag(), which reports every
 * problem as a structured Diagnostic (V3xx codes; trees carry no
 * source text, so locations are unknown). The fusion-granularity rule
 * of Sec. 4.1 (a parent tile above a fused producer should only carry
 * the *consumer's* reduction loops) is Severity::Warning rather than
 * an error, since the paper describes it as an efficiency rule.
 *
 * V3xx code taxonomy:
 *  - V301 node structure (root kind, op placement, child counts)
 *  - V302 loop list problems (unknown dim, bad extent, duplicates)
 *  - V303 dim coverage shortfall along a root-to-leaf path
 *  - V304 op multiplicity (missing or repeated leaves)
 *  - V305 fusion granularity (warning)
 */

#ifndef TILEFLOW_CORE_VALIDATE_HPP
#define TILEFLOW_CORE_VALIDATE_HPP

#include <string>
#include <vector>

#include "arch/arch.hpp"
#include "common/diag.hpp"
#include "core/tree.hpp"

namespace tileflow {

/**
 * Validate a tree, reporting every problem to `diags` (errors plus
 * V305 warnings). If `spec` is given, tile levels are checked against
 * its hierarchy. Returns true when no *errors* were added.
 */
bool validateTreeDiag(const AnalysisTree& tree, DiagnosticEngine& diags,
                      const ArchSpec* spec = nullptr);

/**
 * Legacy string form: human-readable problem descriptions (empty means
 * valid). Warnings carry a "warn: " prefix. Thin wrapper over
 * validateTreeDiag().
 */
std::vector<std::string> validateTree(const AnalysisTree& tree,
                                      const ArchSpec* spec = nullptr);

/**
 * The hard errors of validateTree(): the same messages in the same
 * order, without its "warn: " entries. For hot paths that need only a
 * verdict: the advisory V305 pass is skipped, so no warning is built.
 */
std::vector<std::string> validationErrors(const AnalysisTree& tree,
                                          const ArchSpec* spec = nullptr);

/** Convenience: run validateTreeDiag and fatal() with *all* hard
 *  errors aggregated into one message (warnings are not fatal). */
void checkTree(const AnalysisTree& tree, const ArchSpec* spec = nullptr);

} // namespace tileflow

#endif // TILEFLOW_CORE_VALIDATE_HPP
