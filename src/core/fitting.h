#ifndef OPERB_CORE_FITTING_H_
#define OPERB_CORE_FITTING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/options.h"
#include "geo/distance.h"
#include "geo/point.h"
#include "geo/segment.h"

namespace operb::core {

/// The paper's fitting function F (Section 4.1), maintained incrementally
/// for one candidate segment.
///
/// Given the segment's start point Ps (the anchor) and the error bound
/// zeta, the fitting function evolves a directed line segment
/// L = (Ps, |L|, theta) that fits all points processed so far, enabling
/// the *local* distance check: each new point is compared against L only.
///
/// Space is O(1): anchor, length, angle, the previous active zone index
/// and the two side maxima — nothing grows with the number of points.
///
/// The three cases of F map onto this API as follows. Zone membership and
/// the inactive test (case (1), the identity update) are queried with
/// ZoneIndex() / IsActive(); a point that is active is applied with
/// Activate(), which performs case (2) (first activation: L takes R's
/// angle) or case (3) (rotate L toward the point by
/// f * arcsin(d / (j*zeta/2)) / j).
class FittingFunction {
 public:
  /// `options` supplies zeta and the optimization flags that alter F
  /// (opt_closer_line / opt_missing_active); the object keeps a copy of
  /// the scalar parameters only.
  FittingFunction(geo::Vec2 anchor, const OperbOptions& options);

  /// Zone index j = ceil(|R|*2/zeta - 0.5) of a radius |R| from the
  /// anchor; zone Z_j covers radii in (j*zeta/2 - zeta/4, j*zeta/2 + zeta/4].
  std::int64_t ZoneIndex(double radius) const;

  /// The paper's activity test: a point at `radius` from the anchor is
  /// active iff |R| - |L| > zeta/4.
  bool IsActive(double radius) const { return radius - length_ > slack_; }

  /// True until the first activation (|L| == 0, the state in which case
  /// (2) applies).
  bool IsUndirected() const { return length_ == 0.0; }

  /// Distance from `p` to the current line L (through the anchor with
  /// angle theta). Before the first activation this is the distance to
  /// the anchor itself.
  double DistanceToLine(geo::Vec2 p) const;

  /// Signed perpendicular offset of `p` from L (positive left of L's
  /// direction). Meaningless before the first activation.
  double SignedOffset(geo::Vec2 p) const;

  /// Records a point's offset into the per-side maxima d+max / d-max
  /// (used by optimizations (2) and (3)). Call for every checked point.
  void ObserveOffset(double signed_offset);

  /// Sum d+max + d-max of the side maxima (optimization (2)'s bound).
  double SideMaxSum() const { return d_plus_max_ + d_minus_max_; }

  /// Historical per-side maxima of |signed offset| (optimizations (2)/(3)).
  double d_plus_max() const { return d_plus_max_; }
  double d_minus_max() const { return d_minus_max_; }

  /// Everything case (2)/(3) would do to the state for point `p`,
  /// precomputed without mutating. `rotation` is the absolute angle step
  /// and `sign` its direction (the paper's f).
  struct ActivationPlan {
    std::int64_t zone = 0;
    double new_length = 0.0;
    double distance = 0.0;
    double rotation = 0.0;
    int sign = 1;
    bool first_activation = false;
  };

  /// Precondition: IsActive(|p - anchor|). The overload taking `radius`
  /// avoids recomputing |p - anchor| when the caller already has it.
  ActivationPlan PlanActivation(geo::Vec2 p) const;
  ActivationPlan PlanActivation(geo::Vec2 p, double radius) const;

  /// Applies F to an *active* point `p` (cases (2)/(3)). Precondition:
  /// IsActive(|p - anchor|).
  void Activate(geo::Vec2 p);

  /// Applies a previously computed plan (avoids recomputing the math when
  /// the caller already planned the activation for its guard check).
  void ApplyActivation(geo::Vec2 p, const ActivationPlan& plan);

  /// Drift-budget guard (see DESIGN.md "Error-bound guard").
  ///
  /// Three O(1) budgets conservatively bound the distance of every point
  /// consumed by this segment to the *current* line L:
  ///  - `drift_plus` / `drift_minus`: max distance of points with a
  ///    non-negative projection onto L (ahead of the anchor), per side.
  ///    Rotating L by `m` toward one side can only increase the opposite
  ///    side's distances, by at most m * (|L| + zeta/4).
  ///  - `drift_back`: max *radius* of points behind the anchor — their
  ///    distance to any line through the anchor never exceeds their
  ///    radius, so rotations cost them nothing.
  double drift_bound() const {
    return std::max(std::max(drift_plus_, drift_minus_), drift_back_);
  }

  /// Records a consumed point whose position relative to the current line
  /// is unknown (pre-direction points): its radius bounds its distance to
  /// every line through the anchor, so it charges the rotation-free
  /// budget.
  void NoteDriftDistance(double radius) {
    if (radius > drift_back_) drift_back_ = radius;
  }

  /// Records a consumed point into the side maxima *and* the drift
  /// budgets (supersedes ObserveOffset when the guard is active).
  void ObservePoint(geo::Vec2 p);

  /// True when executing `plan` keeps every consumed point provably within
  /// zeta of the would-be output chord anchor->p: the per-side drift after
  /// the rotation plus the chord-vs-line divergence stays under zeta.
  bool ActivationKeepsBound(const ActivationPlan& plan) const;

  geo::Vec2 anchor() const { return anchor_; }
  double length() const { return length_; }
  /// Cached unit direction of L (== FromAngle(theta_) for the internal,
  /// unnormalized theta_). Meaningful once directed; {1, 0} before.
  geo::Vec2 dir() const { return dir_; }
  /// L.theta in [0, 2*pi). Stored unnormalized internally (per-segment
  /// rotation is bounded, and skipping the fmod keeps the activation path
  /// cheap); normalized on read.
  double theta() const { return geo::NormalizeAngle2Pi(theta_); }
  geo::AnchoredLine line() const { return {anchor_, length_, theta()}; }

  /// Zone index of the last activation (case (2)/(3)); -1 before any.
  std::int64_t last_active_zone() const { return last_active_zone_; }

  /// The paper's sign function f: +1 when the included angle
  /// delta = R.theta - L.theta (normalized into (-2pi, 2pi)) falls in
  /// (-2pi, -3pi/2], [-pi, -pi/2], [0, pi/2] or [pi, 3pi/2), else -1.
  static int SignFunction(double delta);

  /// Appends the dynamic state (anchor, length, unnormalized theta, the
  /// cached direction, zone index, side maxima and drift budgets) as
  /// byte-stable little-endian fields. The parameters derived from
  /// OperbOptions are *not* written — DeserializeFrom runs on an instance
  /// constructed with the same options, which is what makes a restored
  /// stream bit-identical: `dir_` in particular is the cached unit vector
  /// of the *unnormalized* theta_ and must round-trip exactly, not be
  /// recomputed.
  void SerializeTo(std::vector<std::uint8_t>* out) const;

  /// Overwrites the dynamic state from `in`, advancing `*pos`.
  /// Corruption on truncation.
  Status DeserializeFrom(std::span<const std::uint8_t> in, std::size_t* pos);

 private:
  void SetTheta(double theta) {
    theta_ = theta;
    dir_ = geo::Vec2::FromAngle(theta);
  }

  geo::Vec2 anchor_;
  double zeta_;
  /// Zone width (the fitting function's step length; paper: zeta/2).
  double step_width_;
  /// Half a zone width — the radius slop of a zone member.
  double half_width_;
  /// Activation slack (paper: zeta/4).
  double slack_;
  /// Max distance from the anchor a consumed point can have beyond |L|.
  double reach_slop_;
  bool opt_closer_line_;
  bool opt_missing_active_;

  double length_ = 0.0;
  double theta_ = 0.0;
  /// Unit vector of theta_, cached — the distance/offset kernels run per
  /// input point and must not pay cos/sin each time.
  geo::Vec2 dir_{1.0, 0.0};
  std::int64_t last_active_zone_ = -1;
  double d_plus_max_ = 0.0;
  double d_minus_max_ = 0.0;
  double drift_plus_ = 0.0;
  double drift_minus_ = 0.0;
  double drift_back_ = 0.0;
};

}  // namespace operb::core

#endif  // OPERB_CORE_FITTING_H_
