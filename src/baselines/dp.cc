#include "baselines/dp.h"

#include <utility>
#include <vector>

#include "common/check.h"
#include "geo/distance.h"

namespace operb::baselines {

namespace {

/// Index of the point in (first, last) farthest from the line
/// P_first -> P_last, together with that distance. Returns {first, 0}
/// when the range has no interior points.
std::pair<std::size_t, double> FarthestPoint(const traj::Trajectory& t,
                                             std::size_t first,
                                             std::size_t last) {
  const geo::Vec2 a = t[first].pos();
  const geo::Vec2 b = t[last].pos();
  std::size_t arg = first;
  double best = 0.0;
  for (std::size_t i = first + 1; i < last; ++i) {
    const double d = geo::PointToLineDistance(t[i].pos(), a, b);
    if (d > best) {
      best = d;
      arg = i;
    }
  }
  return {arg, best};
}

traj::RepresentedSegment MakeSegment(const traj::Trajectory& t,
                                     std::size_t first, std::size_t last) {
  traj::RepresentedSegment s;
  s.start = t[first].pos();
  s.end = t[last].pos();
  s.first_index = first;
  s.last_index = last;
  s.t_start = t[first].t;
  s.t_end = t[last].t;
  return s;
}

void DpRecurse(const traj::Trajectory& t, std::size_t first, std::size_t last,
               double zeta, traj::PiecewiseRepresentation* out) {
  const auto [k, dmax] = FarthestPoint(t, first, last);
  if (dmax <= zeta) {
    out->Append(MakeSegment(t, first, last));
    return;
  }
  DpRecurse(t, first, k, zeta, out);
  DpRecurse(t, k, last, zeta, out);
}

}  // namespace

traj::PiecewiseRepresentation SimplifyDp(const traj::Trajectory& trajectory,
                                         double zeta) {
  OPERB_CHECK_MSG(zeta > 0.0, "zeta must be positive");
  traj::PiecewiseRepresentation out;
  if (trajectory.size() < 2) return out;

  // Depth-first over an explicit stack, expanding the left child first so
  // segments are appended in trajectory order.
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  stack.emplace_back(0, trajectory.size() - 1);
  while (!stack.empty()) {
    const auto [first, last] = stack.back();
    stack.pop_back();
    const auto [k, dmax] = FarthestPoint(trajectory, first, last);
    if (dmax <= zeta) {
      out.Append(MakeSegment(trajectory, first, last));
      continue;
    }
    // Right pushed first so the left range is processed next.
    stack.emplace_back(k, last);
    stack.emplace_back(first, k);
  }
  return out;
}

traj::PiecewiseRepresentation SimplifyDpRecursive(
    const traj::Trajectory& trajectory, double zeta) {
  OPERB_CHECK_MSG(zeta > 0.0, "zeta must be positive");
  traj::PiecewiseRepresentation out;
  if (trajectory.size() < 2) return out;
  DpRecurse(trajectory, 0, trajectory.size() - 1, zeta, &out);
  return out;
}

traj::PiecewiseRepresentation SimplifyDpSed(const traj::Trajectory& trajectory,
                                            double zeta) {
  OPERB_CHECK_MSG(zeta > 0.0, "zeta must be positive");
  traj::PiecewiseRepresentation out;
  if (trajectory.size() < 2) return out;
  std::vector<std::pair<std::size_t, std::size_t>> stack;
  stack.emplace_back(0, trajectory.size() - 1);
  while (!stack.empty()) {
    const auto [first, last] = stack.back();
    stack.pop_back();
    const geo::Point& a = trajectory[first];
    const geo::Point& b = trajectory[last];
    std::size_t arg = first;
    double best = 0.0;
    for (std::size_t i = first + 1; i < last; ++i) {
      const double d = geo::SynchronousEuclideanDistance(trajectory[i], a, b);
      if (d > best) {
        best = d;
        arg = i;
      }
    }
    if (best <= zeta) {
      out.Append(MakeSegment(trajectory, first, last));
      continue;
    }
    stack.emplace_back(arg, last);
    stack.emplace_back(first, arg);
  }
  return out;
}

}  // namespace operb::baselines
