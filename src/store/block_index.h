#ifndef OPERB_STORE_BLOCK_INDEX_H_
#define OPERB_STORE_BLOCK_INDEX_H_

/// \file
/// Hierarchical block index: a packed R-tree over block footers
/// (bounding box x time interval), STR bulk-loaded at open.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/bbox.h"

namespace operb::store {

/// One indexable block: its footer's bounding box and time interval plus
/// the ordinal identifying the block to the reader.
struct BlockIndexEntry {
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
  double t_min = 0.0, t_max = 0.0;
  std::uint32_t ordinal = 0;
};

/// Packed R-tree over block footers, bulk-loaded with the
/// Sort-Tile-Recursive (STR) algorithm: entries are sorted into vertical
/// slices by bbox center x, each slice sorted by center y, and chopped
/// into leaves of kFanout consecutive entries; parent levels group
/// kFanout consecutive children until one root remains. The packing
/// gives ~100% node occupancy and spatially coherent siblings without
/// any insert-time balancing — the right trade for an index rebuilt from
/// footers on every open.
///
/// Every node carries the union bounding box *and* union time interval
/// of its subtree, so a spatio-temporal window query descends only into
/// subtrees that overlap in both dimensions and visits O(log n) nodes on
/// selective windows instead of every footer. The entry-level test uses
/// exactly the same predicates as the flat footer scan, so the candidate
/// block set (and therefore the query result) is identical in both scan
/// modes — the flat scan stays available as the verification oracle.
///
/// Immutable after Build(); queries are const and thread-safe.
class BlockIndex {
 public:
  /// Node capacity (children per internal node, entries per leaf).
  static constexpr std::size_t kFanout = 8;

  /// Levels of the tallest tree Build() can make: ordinals are u32, so a
  /// tree holds at most 2^32 entries, and each level above the leaves
  /// has kFanout times fewer nodes. Bounds Query()'s fixed-size stack.
  static constexpr std::size_t kMaxHeight = [] {
    std::uint64_t nodes = (std::uint64_t{1} << 32) / kFanout;  // leaves
    std::size_t levels = 1;
    for (; nodes > 1; nodes = (nodes + kFanout - 1) / kFanout) ++levels;
    return levels;
  }();

  /// (Re)builds the tree from `entries`. An empty vector clears it.
  void Build(std::vector<BlockIndexEntry> entries);

  /// Appends to `ordinals` every entry whose bbox overlaps `window` and
  /// whose time interval overlaps [t_min, t_max]. Ordinals come out in
  /// tree order — callers wanting the flat-scan order must sort.
  /// `nodes_visited` (if non-null) is incremented once per tree node
  /// whose box/interval was tested — the number the acceptance criterion
  /// compares against the flat scan's footer count. `window` must be
  /// non-empty and already inflated by the caller. Allocates nothing
  /// beyond `ordinals`' own growth.
  void Query(const geo::BoundingBox& window, double t_min, double t_max,
             std::vector<std::uint32_t>* ordinals,
             std::uint64_t* nodes_visited) const;

  bool empty() const { return nodes_.empty(); }

  /// Total tree nodes (internal + leaf); 0 when empty.
  std::size_t node_count() const { return nodes_.size(); }

  /// Tree height in levels (1 = a lone leaf root); 0 when empty.
  std::size_t height() const { return height_; }

 private:
  struct Node {
    double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;
    double t_min = 0.0, t_max = 0.0;
    /// First child node index (internal) or first entry index (leaf).
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    bool leaf = false;
  };

  /// STR-ordered copy of the entries; leaves reference runs of it.
  std::vector<BlockIndexEntry> entries_;
  std::vector<Node> nodes_;
  std::uint32_t root_ = 0;
  std::size_t height_ = 0;
};

}  // namespace operb::store

#endif  // OPERB_STORE_BLOCK_INDEX_H_
