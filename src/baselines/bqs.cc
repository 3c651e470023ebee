#include "baselines/bqs.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "geo/distance.h"
#include "geo/polygon_clip.h"

namespace operb::baselines {

namespace {

int QuadrantOf(geo::Vec2 rel) {
  if (rel.x >= 0.0) return rel.y >= 0.0 ? 0 : 3;
  return rel.y >= 0.0 ? 1 : 2;
}

/// Fixed-capacity convex polygon for the per-point bound computation.
/// Clipping a quad by two half-planes yields at most 8 vertices (plus
/// slack for boundary duplicates); keeping it on the stack keeps the
/// FBQS hot path allocation-free.
struct SmallPolygon {
  std::array<geo::Vec2, 12> v;
  int n = 0;

  void Push(geo::Vec2 p) {
    if (n < static_cast<int>(v.size())) v[n++] = p;
  }
};

void ClipInPlace(SmallPolygon* poly, const geo::HalfPlane& hp) {
  SmallPolygon out;
  for (int i = 0; i < poly->n; ++i) {
    const geo::Vec2 cur = poly->v[i];
    const geo::Vec2 nxt = poly->v[(i + 1) % poly->n];
    const double ec = hp.Evaluate(cur);
    const double en = hp.Evaluate(nxt);
    const bool cur_in = ec <= 1e-9;
    const bool nxt_in = en <= 1e-9;
    if (cur_in) out.Push(cur);
    if (cur_in != nxt_in && ec != en) {
      out.Push(cur + (nxt - cur) * (ec / (ec - en)));
    }
  }
  *poly = out;
}

}  // namespace

void QuadrantSummary::Reset(geo::Vec2 origin) {
  origin_ = origin;
  box_ = geo::BoundingBox();
  count_ = 0;
}

void QuadrantSummary::Add(geo::Vec2 p) {
  const geo::Vec2 rel = p - origin_;
  if (count_ == 0) {
    p_high_ = p_low_ = p;
    box_points_.fill(p);
  } else {
    // Points in one quadrant span less than pi of bearing, so "larger
    // angle from the origin" is exactly "counter-clockwise of", a cross
    // product — no atan2 needed on this per-point path.
    if ((p_high_ - origin_).Cross(rel) > 0.0) p_high_ = p;
    if ((p_low_ - origin_).Cross(rel) < 0.0) p_low_ = p;
    if (p.x < box_points_[0].x) box_points_[0] = p;
    if (p.x > box_points_[1].x) box_points_[1] = p;
    if (p.y < box_points_[2].y) box_points_[2] = p;
    if (p.y > box_points_[3].y) box_points_[3] = p;
  }
  box_.Extend(p);
  ++count_;
}

double QuadrantSummary::UpperBound(geo::Vec2 a, geo::Vec2 b) const {
  if (count_ == 0) return 0.0;
  // Convex region = bounding box clipped by the angular wedge
  // [Pl angle, Ph angle] around the origin: keep points clockwise of
  // origin->Ph (right of it) and counter-clockwise of origin->Pl.
  SmallPolygon region;
  for (const geo::Vec2& c : box_.Corners()) region.Push(c);
  if (count_ >= 2) {
    // With a single point the wedge is degenerate; the box is the point.
    ClipInPlace(&region, geo::HalfPlane::RightOf(origin_, p_high_));
    ClipInPlace(&region, geo::HalfPlane::LeftOf(origin_, p_low_));
  }
  // Distance from each region vertex to the line a->b, hoisting the
  // line's inverse length out of the loop.
  const geo::Vec2 ab = b - a;
  const double len = ab.Norm();
  if (len == 0.0) {
    double worst = 0.0;
    for (int i = 0; i < region.n; ++i) {
      worst = std::max(worst, geo::Distance(region.v[i], a));
    }
    return worst;
  }
  double worst_cross = 0.0;
  for (int i = 0; i < region.n; ++i) {
    worst_cross = std::max(worst_cross, std::fabs(ab.Cross(region.v[i] - a)));
  }
  return worst_cross / len;
}

double QuadrantSummary::LowerBound(geo::Vec2 a, geo::Vec2 b) const {
  if (count_ == 0) return 0.0;
  double best = std::max(geo::PointToLineDistance(p_high_, a, b),
                         geo::PointToLineDistance(p_low_, a, b));
  for (const geo::Vec2& p : box_points_) {
    best = std::max(best, geo::PointToLineDistance(p, a, b));
  }
  return best;
}

BqsWindow::BqsWindow(geo::Vec2 start) : start_(start) {
  for (QuadrantSummary& q : quadrants_) q.Reset(start);
}

void BqsWindow::Add(geo::Vec2 p) {
  quadrants_[QuadrantOf(p - start_)].Add(p);
}

BqsWindow::Bounds BqsWindow::BoundsForLine(geo::Vec2 end) const {
  Bounds b;
  for (const QuadrantSummary& q : quadrants_) {
    if (q.empty()) continue;
    b.upper = std::max(b.upper, q.UpperBound(start_, end));
    b.lower = std::max(b.lower, q.LowerBound(start_, end));
  }
  return b;
}

namespace {

/// Shared BQS/FBQS driver. `buffered` enables the exact fallback scan on
/// ambiguous bounds (BQS); without it ambiguity closes the window (FBQS).
traj::PiecewiseRepresentation RunBqs(const traj::Trajectory& trajectory,
                                     double zeta, bool buffered) {
  OPERB_CHECK_MSG(zeta > 0.0, "zeta must be positive");
  traj::PiecewiseRepresentation out;
  const std::size_t n = trajectory.size();
  if (n < 2) return out;

  std::size_t first = 0;
  BqsWindow window(trajectory[first].pos());
  std::size_t last = 1;  // window is [first .. last], interior summarized

  auto emit = [&](std::size_t lo, std::size_t hi) {
    traj::RepresentedSegment s;
    s.start = trajectory[lo].pos();
    s.end = trajectory[hi].pos();
    s.first_index = lo;
    s.last_index = hi;
    s.t_start = trajectory[lo].t;
    s.t_end = trajectory[hi].t;
    out.Append(s);
  };

  while (last + 1 < n) {
    const std::size_t candidate = last + 1;
    // The previous window endpoint becomes an interior point of the
    // extended window; summarize it before bounding.
    window.Add(trajectory[last].pos());
    const BqsWindow::Bounds bounds =
        window.BoundsForLine(trajectory[candidate].pos());

    bool fits;
    if (bounds.upper <= zeta) {
      fits = true;
    } else if (bounds.lower > zeta) {
      fits = false;
    } else if (buffered) {
      // BQS ambiguity fallback: exact scan of the buffered interior.
      fits = true;
      const geo::Vec2 a = trajectory[first].pos();
      const geo::Vec2 b = trajectory[candidate].pos();
      for (std::size_t i = first + 1; i < candidate; ++i) {
        if (geo::PointToLineDistance(trajectory[i].pos(), a, b) > zeta) {
          fits = false;
          break;
        }
      }
    } else {
      // FBQS: no buffer to consult — close the window conservatively.
      fits = false;
    }

    if (fits) {
      last = candidate;
      continue;
    }
    // The line first -> last was verified when `last` was accepted.
    emit(first, last);
    first = last;
    window = BqsWindow(trajectory[first].pos());
    last = first + 1;
  }
  emit(first, n - 1);
  return out;
}

}  // namespace

traj::PiecewiseRepresentation SimplifyBqs(const traj::Trajectory& trajectory,
                                          double zeta) {
  return RunBqs(trajectory, zeta, /*buffered=*/true);
}

traj::PiecewiseRepresentation SimplifyFbqs(const traj::Trajectory& trajectory,
                                           double zeta) {
  return RunBqs(trajectory, zeta, /*buffered=*/false);
}

}  // namespace operb::baselines
