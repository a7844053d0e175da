/**
 * @file
 * Integer hyper-rectangles (axis-aligned boxes over element indices).
 *
 * The tree-based data-movement analysis of the paper (Sec. 5.1) reduces
 * to set differences between *data slices*, and for dense affine DNN
 * accesses every slice is a hyper-rectangle:
 *
 *     Slice_Z^t = Z[b_0:e_0, b_1:e_1, ..., b_{D-1}:e_{D-1}]
 *
 * The quantity the analysis needs is |new − old| = vol(new) −
 * vol(new ∩ old), which HyperRect provides exactly.
 */

#ifndef TILEFLOW_GEOM_HYPERRECT_HPP
#define TILEFLOW_GEOM_HYPERRECT_HPP

#include <array>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace tileflow {

/**
 * An axis-aligned box of tensor elements, [begin, end) per dimension.
 *
 * An empty rectangle is represented by rank 0 or by any dimension with
 * end <= begin; all operations treat those uniformly as the empty set.
 *
 * Bounds are stored inline (at most kMaxRank dimensions), so building,
 * intersecting and comparing rectangles never touches the heap. A
 * larger rank is rejected with a recoverable fatal(), never truncated;
 * the workload front end (diagnostic W512) and Workload::addTensor
 * reject such tensors before any slice is built.
 */
class HyperRect
{
  public:
    /** Largest supported rank (tensor dimensions). */
    static constexpr size_t kMaxRank = 8;

    /** The empty rectangle. */
    HyperRect() = default;

    /** Construct from per-dimension [begin, end) pairs. */
    HyperRect(std::span<const int64_t> begins, std::span<const int64_t> ends);
    HyperRect(std::initializer_list<int64_t> begins,
              std::initializer_list<int64_t> ends)
        : HyperRect(std::span<const int64_t>(begins.begin(), begins.size()),
                    std::span<const int64_t>(ends.begin(), ends.size()))
    {
    }

    /** A rectangle anchored at the origin with the given extents. */
    static HyperRect fromExtents(const std::vector<int64_t>& extents);

    /** Number of dimensions (0 for the canonical empty rectangle). */
    size_t rank() const { return rank_; }

    bool empty() const;

    /** Number of elements contained. */
    int64_t volume() const;

    int64_t begin(size_t dim) const { return begins_[dim]; }
    int64_t end(size_t dim) const { return ends_[dim]; }
    int64_t extent(size_t dim) const { return ends_[dim] - begins_[dim]; }

    /**
     * Intersection with another rectangle.
     *
     * Both rectangles must have the same rank unless one is empty.
     */
    HyperRect intersect(const HyperRect& other) const;

    /** vol(this − other): elements in this but not in other. */
    int64_t differenceVolume(const HyperRect& other) const;

    /** Smallest rectangle covering both (bounding box). */
    HyperRect boundingUnion(const HyperRect& other) const;

    /** Translate by a per-dimension offset. */
    HyperRect shifted(const std::vector<int64_t>& offset) const;

    /** True iff other is fully contained in this. */
    bool contains(const HyperRect& other) const;

    bool operator==(const HyperRect& other) const;

    /** Debug form, e.g. "[0:4, 8:14]". */
    std::string str() const;

  private:
    /** Zero bounds at the given rank; fatal() above kMaxRank. */
    explicit HyperRect(size_t rank);

    std::array<int64_t, kMaxRank> begins_{};
    std::array<int64_t, kMaxRank> ends_{};
    size_t rank_ = 0;
};

/**
 * Exact volume of the union of a set of rectangles (empty rectangles
 * ignored; all non-empty ones must share one rank). Computed by
 * coordinate compression: the union is sliced into the grid cells
 * induced by all begin/end coordinates and each cell is counted once
 * if any rectangle covers it. Cost is O(cells x rects), fine for the
 * handfuls of slices per tensor the analyses produce. A single
 * non-empty rectangle returns its volume() directly.
 */
int64_t unionVolume(const std::vector<HyperRect>& rects);

} // namespace tileflow

#endif // TILEFLOW_GEOM_HYPERRECT_HPP
