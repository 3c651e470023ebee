#include "baselines/opw.h"

#include "common/check.h"
#include "geo/distance.h"

namespace operb::baselines {

namespace {

bool WindowFits(const traj::Trajectory& t, std::size_t first,
                std::size_t last, double zeta, OpwDistance distance) {
  const geo::Point& a = t[first];
  const geo::Point& b = t[last];
  for (std::size_t i = first + 1; i < last; ++i) {
    const double d =
        distance == OpwDistance::kEuclidean
            ? geo::PointToLineDistance(t[i].pos(), a.pos(), b.pos())
            : geo::SynchronousEuclideanDistance(t[i], a, b);
    if (d > zeta) return false;
  }
  return true;
}

}  // namespace

traj::PiecewiseRepresentation SimplifyOpw(const traj::Trajectory& trajectory,
                                          double zeta, OpwDistance distance) {
  OPERB_CHECK_MSG(zeta > 0.0, "zeta must be positive");
  traj::PiecewiseRepresentation out;
  const std::size_t n = trajectory.size();
  if (n < 2) return out;

  std::size_t first = 0;
  std::size_t last = 1;
  while (last + 1 < n) {
    // Try to extend the window to include point last+1.
    if (WindowFits(trajectory, first, last + 1, zeta, distance)) {
      ++last;
      continue;
    }
    // P_{last+1} breaks the window: emit Ps -> P_last and restart there.
    traj::RepresentedSegment s;
    s.start = trajectory[first].pos();
    s.end = trajectory[last].pos();
    s.first_index = first;
    s.last_index = last;
    s.t_start = trajectory[first].t;
    s.t_end = trajectory[last].t;
    out.Append(s);
    first = last;
    last = first + 1;
  }
  traj::RepresentedSegment s;
  s.start = trajectory[first].pos();
  s.end = trajectory[n - 1].pos();
  s.first_index = first;
  s.last_index = n - 1;
  s.t_start = trajectory[first].t;
  s.t_end = trajectory[n - 1].t;
  out.Append(s);
  return out;
}

}  // namespace operb::baselines
