#ifndef OPERB_STORE_QUERY_FILTER_H_
#define OPERB_STORE_QUERY_FILTER_H_

/// \file
/// The store's query predicates, shared by every layer that answers
/// queries. StoreReader applies them to sealed blocks; the server's
/// read-your-writes merge applies the *same* predicates to in-memory
/// overlay segments and in-flight engine tails, which is what makes a
/// merged answer indistinguishable from querying a store that had
/// already sealed everything (DESIGN.md §11). Keeping them in one
/// header is the correctness seam: a predicate change cannot drift
/// between the sealed and live halves of an answer.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "geo/bbox.h"
#include "geo/point.h"
#include "traj/multi_object.h"

namespace operb::store {

/// Closed-interval overlap test used for every [t_start, t_end] vs
/// [t_min, t_max] comparison (block footers, segments, overlay tails).
inline bool IntervalsOverlap(double a_min, double a_max, double b_min,
                             double b_max) {
  return a_min <= b_max && b_min <= a_max;
}

/// Grows `box` by `margin` on every side; an empty box stays empty.
/// Window queries inflate by the store's zeta so answers are sound for
/// original points (DESIGN.md §8).
inline geo::BoundingBox Inflate(const geo::BoundingBox& box, double margin) {
  geo::BoundingBox out;
  if (box.IsEmpty()) return out;
  out.min_x = box.min_x - margin;
  out.min_y = box.min_y - margin;
  out.max_x = box.max_x + margin;
  out.max_y = box.max_y + margin;
  return out;
}

inline bool BoxesOverlap(const geo::BoundingBox& a,
                         const geo::BoundingBox& b) {
  return !a.IsEmpty() && !b.IsEmpty() && a.min_x <= b.max_x &&
         b.min_x <= a.max_x && a.min_y <= b.max_y && b.min_y <= a.max_y;
}

/// Liang-Barsky segment/axis-aligned-box intersection test. Degenerate
/// segments degrade to a containment check.
inline bool SegmentIntersectsBox(geo::Vec2 a, geo::Vec2 b,
                                 const geo::BoundingBox& box) {
  if (box.IsEmpty()) return false;
  double t0 = 0.0, t1 = 1.0;
  const double dx = b.x - a.x;
  const double dy = b.y - a.y;
  const double p[4] = {-dx, dx, -dy, dy};
  const double q[4] = {a.x - box.min_x, box.max_x - a.x, a.y - box.min_y,
                       box.max_y - a.y};
  for (int i = 0; i < 4; ++i) {
    if (p[i] == 0.0) {
      if (q[i] < 0.0) return false;  // parallel and outside this slab
      continue;
    }
    const double r = q[i] / p[i];
    if (p[i] < 0.0) {
      if (r > t1) return false;
      if (r > t0) t0 = r;
    } else {
      if (r < t0) return false;
      if (r < t1) t1 = r;
    }
  }
  return t0 <= t1;
}

/// The full per-segment window-query predicate: time interval overlap
/// plus geometric intersection with the (already inflated) window.
inline bool SegmentMatchesWindow(const traj::TimedSegment& s,
                                 const geo::BoundingBox& inflated,
                                 double t_min, double t_max) {
  return IntervalsOverlap(s.t_start, s.t_end, t_min, t_max) &&
         SegmentIntersectsBox(s.segment.start, s.segment.end, inflated);
}

/// Skip test for a group of segments known only by their extent: every
/// endpoint lies in `extent` and every [t_start, t_end] in [t_lo, t_hi].
/// False proves that no segment of the group passes
/// SegmentMatchesWindow(·, inflated, t_min, t_max), so the caller may
/// skip the group unread; true decides nothing. The time half is exact
/// (comparisons only). The box half pads the window first, because
/// SegmentIntersectsBox divides rounded differences and can accept a
/// segment whose endpoints lie outside the box by a few ulps of the
/// largest coordinate in play; the pad, 2^-40 of that magnitude (plus
/// 2^-40 absolute), covers it many times over. An empty extent (no
/// segments) or an empty window is always skipped; a window with a NaN
/// or infinite bound never is.
inline bool ExtentMayMatchWindow(const geo::BoundingBox& extent, double t_lo,
                                 double t_hi,
                                 const geo::BoundingBox& inflated,
                                 double t_min, double t_max) {
  if (extent.IsEmpty() || inflated.IsEmpty()) return false;
  if (!IntervalsOverlap(t_lo, t_hi, t_min, t_max)) return false;
  const double bounds[8] = {extent.min_x,   extent.min_y,   extent.max_x,
                            extent.max_y,   inflated.min_x, inflated.min_y,
                            inflated.max_x, inflated.max_y};
  double magnitude = 0.0;
  for (const double v : bounds) {
    if (!std::isfinite(v)) return true;
    magnitude = std::max(magnitude, std::fabs(v));
  }
  return BoxesOverlap(extent, Inflate(inflated, 0x1p-40 * (1.0 + magnitude)));
}

/// Position on `s` at time `t` by time-proportional interpolation —
/// the one interpolation rule of PositionAt, wherever the covering
/// segment came from (sealed block, overlay or in-flight tail).
/// Precondition: s.t_start <= t <= s.t_end.
inline geo::Point InterpolateOnSegment(const traj::TimedSegment& s,
                                       double t) {
  const double span = s.t_end - s.t_start;
  const double u = span > 0.0 ? (t - s.t_start) / span : 0.0;
  const geo::Vec2 pos = s.segment.AsSegment().At(u);
  return geo::Point{pos.x, pos.y, t};
}

}  // namespace operb::store

#endif  // OPERB_STORE_QUERY_FILTER_H_
