#include "store/block_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace operb::store {

namespace {

bool Overlaps(double a_min, double a_max, double b_min, double b_max) {
  return a_min <= b_max && b_min <= a_max;
}

/// Twice a box's center along one axis: the STR sort key. A box from
/// -inf to +inf has no center; it sorts last instead of handing the
/// sort a NaN, which would break its strict weak ordering.
double CenterKey(double lo, double hi) {
  const double twice = lo + hi;
  return std::isnan(twice) ? std::numeric_limits<double>::infinity() : twice;
}

}  // namespace

void BlockIndex::Build(std::vector<BlockIndexEntry> entries) {
  entries_ = std::move(entries);
  nodes_.clear();
  root_ = 0;
  height_ = 0;
  if (entries_.empty()) return;

  // STR tiling: slice by center x, order each slice by center y.
  const std::size_t n = entries_.size();
  const std::size_t leaf_count = (n + kFanout - 1) / kFanout;
  const std::size_t slices = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const std::size_t slice_entries =
      ((leaf_count + slices - 1) / slices) * kFanout;
  std::sort(entries_.begin(), entries_.end(),
            [](const BlockIndexEntry& a, const BlockIndexEntry& b) {
              return CenterKey(a.min_x, a.max_x) <
                     CenterKey(b.min_x, b.max_x);
            });
  for (std::size_t begin = 0; begin < n; begin += slice_entries) {
    const std::size_t end = std::min(n, begin + slice_entries);
    std::sort(entries_.begin() + static_cast<std::ptrdiff_t>(begin),
              entries_.begin() + static_cast<std::ptrdiff_t>(end),
              [](const BlockIndexEntry& a, const BlockIndexEntry& b) {
                return CenterKey(a.min_y, a.max_y) <
                       CenterKey(b.min_y, b.max_y);
              });
  }

  // Leaf level: runs of kFanout consecutive STR-ordered entries.
  std::vector<std::uint32_t> level;
  for (std::size_t begin = 0; begin < n; begin += kFanout) {
    const std::size_t end = std::min(n, begin + kFanout);
    Node leaf;
    leaf.leaf = true;
    leaf.first = static_cast<std::uint32_t>(begin);
    leaf.count = static_cast<std::uint32_t>(end - begin);
    const BlockIndexEntry& e0 = entries_[begin];
    leaf.min_x = e0.min_x;
    leaf.min_y = e0.min_y;
    leaf.max_x = e0.max_x;
    leaf.max_y = e0.max_y;
    leaf.t_min = e0.t_min;
    leaf.t_max = e0.t_max;
    for (std::size_t i = begin + 1; i < end; ++i) {
      const BlockIndexEntry& e = entries_[i];
      leaf.min_x = std::min(leaf.min_x, e.min_x);
      leaf.min_y = std::min(leaf.min_y, e.min_y);
      leaf.max_x = std::max(leaf.max_x, e.max_x);
      leaf.max_y = std::max(leaf.max_y, e.max_y);
      leaf.t_min = std::min(leaf.t_min, e.t_min);
      leaf.t_max = std::max(leaf.t_max, e.t_max);
    }
    level.push_back(static_cast<std::uint32_t>(nodes_.size()));
    nodes_.push_back(leaf);
  }
  height_ = 1;

  // Pack parent levels over kFanout consecutive children (the STR order
  // keeps consecutive nodes spatially coherent) until one root remains.
  while (level.size() > 1) {
    std::vector<std::uint32_t> parents;
    for (std::size_t begin = 0; begin < level.size(); begin += kFanout) {
      const std::size_t end = std::min(level.size(), begin + kFanout);
      Node parent;
      parent.leaf = false;
      parent.first = level[begin];
      parent.count = static_cast<std::uint32_t>(end - begin);
      const Node& c0 = nodes_[level[begin]];
      parent.min_x = c0.min_x;
      parent.min_y = c0.min_y;
      parent.max_x = c0.max_x;
      parent.max_y = c0.max_y;
      parent.t_min = c0.t_min;
      parent.t_max = c0.t_max;
      for (std::size_t i = begin + 1; i < end; ++i) {
        const Node& c = nodes_[level[i]];
        parent.min_x = std::min(parent.min_x, c.min_x);
        parent.min_y = std::min(parent.min_y, c.min_y);
        parent.max_x = std::max(parent.max_x, c.max_x);
        parent.max_y = std::max(parent.max_y, c.max_y);
        parent.t_min = std::min(parent.t_min, c.t_min);
        parent.t_max = std::max(parent.t_max, c.t_max);
      }
      parents.push_back(static_cast<std::uint32_t>(nodes_.size()));
      nodes_.push_back(parent);
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level.front();
  OPERB_CHECK(height_ <= kMaxHeight);
}

void BlockIndex::Query(const geo::BoundingBox& window, double t_min,
                       double t_max, std::vector<std::uint32_t>* ordinals,
                       std::uint64_t* nodes_visited) const {
  if (nodes_.empty() || window.IsEmpty()) return;
  // Depth first: each level of the current path leaves at most
  // kFanout - 1 siblings waiting, so a fixed array holds the stack.
  std::array<std::uint32_t, 1 + (kFanout - 1) * kMaxHeight> stack;
  std::size_t depth = 0;
  stack[depth++] = root_;
  while (depth > 0) {
    const Node& node = nodes_[stack[--depth]];
    if (nodes_visited != nullptr) ++*nodes_visited;
    if (!Overlaps(node.t_min, node.t_max, t_min, t_max) ||
        !Overlaps(node.min_x, node.max_x, window.min_x, window.max_x) ||
        !Overlaps(node.min_y, node.max_y, window.min_y, window.max_y)) {
      continue;
    }
    if (node.leaf) {
      for (std::uint32_t i = 0; i < node.count; ++i) {
        const BlockIndexEntry& e = entries_[node.first + i];
        // Exactly the flat footer scan's predicates, so both scan modes
        // select the same candidate blocks.
        if (Overlaps(e.t_min, e.t_max, t_min, t_max) &&
            Overlaps(e.min_x, e.max_x, window.min_x, window.max_x) &&
            Overlaps(e.min_y, e.max_y, window.min_y, window.max_y)) {
          ordinals->push_back(e.ordinal);
        }
      }
    } else {
      for (std::uint32_t i = 0; i < node.count; ++i) {
        stack[depth++] = node.first + i;
      }
    }
  }
}

}  // namespace operb::store
