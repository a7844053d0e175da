#include "geom/hyperrect.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/logging.hpp"

namespace tileflow {

HyperRect::HyperRect(size_t rank) : rank_(rank)
{
    if (rank > kMaxRank)
        fatal("HyperRect: rank ", rank, " exceeds the supported maximum ",
              kMaxRank);
}

HyperRect::HyperRect(std::span<const int64_t> begins,
                     std::span<const int64_t> ends)
    : HyperRect(begins.size())
{
    if (begins.size() != ends.size())
        panic("HyperRect: begins/ends rank mismatch (", begins.size(),
              " vs ", ends.size(), ")");
    std::copy(begins.begin(), begins.end(), begins_.begin());
    std::copy(ends.begin(), ends.end(), ends_.begin());
}

HyperRect
HyperRect::fromExtents(const std::vector<int64_t>& extents)
{
    HyperRect rect(extents.size());
    std::copy(extents.begin(), extents.end(), rect.ends_.begin());
    return rect;
}

bool
HyperRect::empty() const
{
    if (rank_ == 0)
        return true;
    for (size_t d = 0; d < rank_; ++d) {
        if (ends_[d] <= begins_[d])
            return true;
    }
    return false;
}

int64_t
HyperRect::volume() const
{
    if (empty())
        return 0;
    // Accumulate in 128 bits: every extent is positive here, so the
    // running product is monotone and a per-step bound check catches
    // the first wrap instead of silently corrupting data-movement
    // volumes on large fused workloads.
    __int128 vol = 1;
    for (size_t d = 0; d < rank_; ++d) {
        vol *= __int128(ends_[d] - begins_[d]);
        // Overflow here is a property of the (possibly user-supplied)
        // problem sizes, not an internal invariant violation, so it is
        // a recoverable fatal() rather than an abort — mapper guards
        // and spec loaders catch it and report the offending input.
        if (vol > __int128(std::numeric_limits<int64_t>::max()))
            fatal("HyperRect::volume: overflow at ", str());
    }
    return int64_t(vol);
}

HyperRect
HyperRect::intersect(const HyperRect& other) const
{
    if (empty() || other.empty())
        return HyperRect();
    if (rank() != other.rank())
        panic("HyperRect::intersect: rank mismatch (", rank(), " vs ",
              other.rank(), ")");
    HyperRect out(rank_);
    for (size_t d = 0; d < rank_; ++d) {
        out.begins_[d] = std::max(begins_[d], other.begins_[d]);
        out.ends_[d] = std::min(ends_[d], other.ends_[d]);
        if (out.ends_[d] <= out.begins_[d])
            return HyperRect();
    }
    return out;
}

int64_t
HyperRect::differenceVolume(const HyperRect& other) const
{
    return volume() - intersect(other).volume();
}

HyperRect
HyperRect::boundingUnion(const HyperRect& other) const
{
    if (empty())
        return other;
    if (other.empty())
        return *this;
    if (rank() != other.rank())
        panic("HyperRect::boundingUnion: rank mismatch");
    HyperRect out(rank_);
    for (size_t d = 0; d < rank_; ++d) {
        out.begins_[d] = std::min(begins_[d], other.begins_[d]);
        out.ends_[d] = std::max(ends_[d], other.ends_[d]);
    }
    return out;
}

HyperRect
HyperRect::shifted(const std::vector<int64_t>& offset) const
{
    if (empty())
        return *this;
    if (offset.size() != rank())
        panic("HyperRect::shifted: offset rank mismatch");
    HyperRect out(rank_);
    for (size_t d = 0; d < rank_; ++d) {
        out.begins_[d] = begins_[d] + offset[d];
        out.ends_[d] = ends_[d] + offset[d];
    }
    return out;
}

bool
HyperRect::contains(const HyperRect& other) const
{
    if (other.empty())
        return true;
    if (empty() || rank() != other.rank())
        return false;
    for (size_t d = 0; d < rank(); ++d) {
        if (other.begins_[d] < begins_[d] || other.ends_[d] > ends_[d])
            return false;
    }
    return true;
}

bool
HyperRect::operator==(const HyperRect& other) const
{
    if (empty() && other.empty())
        return true;
    if (rank_ != other.rank_)
        return false;
    return std::equal(begins_.begin(), begins_.begin() + rank_,
                      other.begins_.begin()) &&
           std::equal(ends_.begin(), ends_.begin() + rank_,
                      other.ends_.begin());
}

int64_t
unionVolume(const std::vector<HyperRect>& rects)
{
    // One non-empty rectangle (the common case: a tensor touched by a
    // single access) is its own union; skip the grid entirely.
    size_t num_live = 0;
    const HyperRect* only = nullptr;
    for (const HyperRect& r : rects) {
        if (!r.empty()) {
            ++num_live;
            only = &r;
        }
    }
    if (num_live == 0)
        return 0;
    if (num_live == 1)
        return only->volume();

    std::vector<const HyperRect*> live;
    for (const HyperRect& r : rects) {
        if (!r.empty())
            live.push_back(&r);
    }
    const size_t rank = live.front()->rank();
    for (const HyperRect* r : live) {
        if (r->rank() != rank)
            panic("unionVolume: rank mismatch (", rank, " vs ",
                  r->rank(), ")");
    }

    // Per dimension, the sorted distinct cut coordinates.
    std::vector<std::vector<int64_t>> cuts(rank);
    for (size_t d = 0; d < rank; ++d) {
        for (const HyperRect* r : live) {
            cuts[d].push_back(r->begin(d));
            cuts[d].push_back(r->end(d));
        }
        std::sort(cuts[d].begin(), cuts[d].end());
        cuts[d].erase(std::unique(cuts[d].begin(), cuts[d].end()),
                      cuts[d].end());
    }

    // Odometer over grid cells; a cell is in the union iff its lower
    // corner is inside some rectangle.
    std::vector<size_t> cell(rank, 0);
    int64_t total = 0;
    while (true) {
        __int128 cell_vol = 1;
        for (size_t d = 0; d < rank; ++d)
            cell_vol *= __int128(cuts[d][cell[d] + 1] - cuts[d][cell[d]]);
        for (const HyperRect* r : live) {
            bool inside = true;
            for (size_t d = 0; d < rank && inside; ++d) {
                const int64_t lo = cuts[d][cell[d]];
                inside = r->begin(d) <= lo && lo < r->end(d);
            }
            if (inside) {
                const __int128 next = __int128(total) + cell_vol;
                // Recoverable for the same reason as volume() above.
                if (next > __int128(std::numeric_limits<int64_t>::max()))
                    fatal("unionVolume: overflow");
                total = int64_t(next);
                break;
            }
        }
        size_t d = 0;
        while (d < rank && ++cell[d] + 1 >= cuts[d].size()) {
            cell[d] = 0;
            ++d;
        }
        if (d == rank)
            break;
    }
    return total;
}

std::string
HyperRect::str() const
{
    if (empty())
        return "[empty]";
    std::ostringstream os;
    os << "[";
    for (size_t d = 0; d < rank(); ++d) {
        if (d > 0)
            os << ", ";
        os << begins_[d] << ":" << ends_[d];
    }
    os << "]";
    return os.str();
}

} // namespace tileflow
