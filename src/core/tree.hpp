/**
 * @file
 * AnalysisTree: the tree representation of one fusion dataflow mapping
 * (concrete loop extents), plus the path/span queries the tree-based
 * analysis of Sec. 5 is built on.
 */

#ifndef TILEFLOW_CORE_TREE_HPP
#define TILEFLOW_CORE_TREE_HPP

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/tile.hpp"
#include "ir/workload.hpp"

namespace tileflow {

/**
 * One fusion-dataflow mapping for a workload: an owning tree of Nodes.
 *
 * The tree is the canonical mapping object — the tile-centric text
 * notation (core/notation.hpp) parses to and prints from it.
 */
class AnalysisTree
{
  public:
    explicit AnalysisTree(const Workload& workload)
        : workload_(&workload)
    {
    }

    AnalysisTree(AnalysisTree&&) = default;
    AnalysisTree& operator=(AnalysisTree&&) = default;

    const Workload& workload() const { return *workload_; }

    /** Install the root node; returns an observer pointer. */
    Node* setRoot(std::unique_ptr<Node> root);

    Node* root() const { return root_.get(); }
    bool hasRoot() const { return root_ != nullptr; }

    /** Deep copy (same workload reference). */
    AnalysisTree clone() const;

    /** Indented structural dump (see also notation printer). */
    std::string str() const;

  private:
    const Workload* workload_;
    std::unique_ptr<Node> root_;
};

/**
 * Product of the extents of loops over `dim` on the path from `subtree`
 * (inclusive if it is a Tile) down to `leaf` (an Op node in the
 * subtree). This is the span of `dim` covered by one full execution of
 * `subtree` as seen by that leaf.
 */
int64_t pathSpan(const Node* subtree, const Node* leaf, DimId dim);

/**
 * pathSpan for every dim in one walk: spans[d] = pathSpan(subtree,
 * leaf, d), with the same saturating products. `spans` has one entry
 * per workload dim.
 */
void pathSpans(const Node* subtree, const Node* leaf,
               std::span<int64_t> spans);

/**
 * Number of times `node` executes in total: the product of temporal
 * steps and spatial instances of all strict ancestors.
 */
int64_t executionCount(const Node* node);

/** Nearest ancestor Tile node (nullptr at/above the root). */
const Node* enclosingTile(const Node* node);

/** True iff `ancestor` is `node` or one of its ancestors. */
bool isAncestorOf(const Node* ancestor, const Node* node);

/**
 * Structural equality: same node types, memory levels, loop lists
 * (dim, kind, extent, order), op ids, scope kinds, and child shapes.
 * The notation round-trip property parseNotation(printNotation(t)) == t
 * is stated in terms of this.
 */
bool equalTrees(const Node* a, const Node* b);
bool equalTrees(const AnalysisTree& a, const AnalysisTree& b);

/**
 * 64-bit FNV-1a structural hash over exactly the attributes
 * equalTrees compares: node type, memory level, loop list (dim, kind,
 * extent, order), scope kind, op id and child shapes. Therefore
 * equalTrees(a, b) implies subtreeHash(a) == subtreeHash(b). An
 * Evaluator with a SubtreeCache attached (analysis/evaluator.hpp)
 * keys its per-node partial cache on this hash.
 */
uint64_t subtreeHash(const Node* node);

/**
 * Hash of the *enclosing context* of `node`: the root-to-parent chain,
 * contributing each ancestor's type, and for ancestor Tiles the memory
 * level and full loop list. Ancestor Scope kinds are deliberately
 * excluded: a node's analysis partials (data-movement traffic, step
 * footprint, latency) depend on its ancestors only through their Tile
 * loops — executionCount and the data-movement analyzer's
 * relevantExecutions both skip non-Tile ancestors — so a binding
 * (Scope-kind) mutation above a subtree keeps its cached partials
 * valid. Two nodes with equal subtreeHash AND equal contextSignature
 * produce bit-identical per-node analysis partials.
 */
uint64_t contextSignature(const Node* node);

} // namespace tileflow

#endif // TILEFLOW_CORE_TREE_HPP
