#include "datagen/vehicle_sim.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "datagen/noise.h"

namespace operb::datagen {

namespace {

/// Tracks a position moving along a waypoint polyline.
class PolylineCursor {
 public:
  explicit PolylineCursor(const std::vector<geo::Vec2>& waypoints)
      : waypoints_(waypoints) {}

  bool Done() const { return leg_ + 1 >= waypoints_.size(); }

  /// Advances by `distance` meters along the polyline.
  void Advance(double distance) {
    while (distance > 0.0 && !Done()) {
      const geo::Vec2 a = waypoints_[leg_];
      const geo::Vec2 b = waypoints_[leg_ + 1];
      const double leg_len = geo::Distance(a, b);
      const double remaining = leg_len - along_;
      if (distance < remaining) {
        along_ += distance;
        return;
      }
      distance -= remaining;
      ++leg_;
      along_ = 0.0;
    }
  }

  geo::Vec2 Position() const {
    if (Done()) return waypoints_.back();
    const geo::Vec2 a = waypoints_[leg_];
    const geo::Vec2 b = waypoints_[leg_ + 1];
    const double leg_len = geo::Distance(a, b);
    if (leg_len == 0.0) return a;
    return a + (b - a) * (along_ / leg_len);
  }

  /// Distance to the nearest endpoint of the current leg (proximity to an
  /// intersection).
  double DistanceToWaypoint() const {
    if (Done()) return 0.0;
    const double leg_len =
        geo::Distance(waypoints_[leg_], waypoints_[leg_ + 1]);
    return std::min(along_, leg_len - along_);
  }

 private:
  const std::vector<geo::Vec2>& waypoints_;
  std::size_t leg_ = 0;
  double along_ = 0.0;
};

}  // namespace

traj::Trajectory SimulateVehicle(const std::vector<geo::Vec2>& waypoints,
                                 const VehicleSimParams& params, Rng* rng) {
  OPERB_CHECK(params.cruise_speed_mps > 0.0);
  OPERB_CHECK(params.sampling_interval_s > 0.0);
  traj::Trajectory out;
  if (waypoints.size() < 2) return out;

  PolylineCursor cursor(waypoints);
  double t = params.start_time_s;
  double last_t = -1.0;
  // Smoothly varying speed factor (AR(1) around 1.0).
  double speed_factor = 1.0;
  GaussMarkovNoise gps_error(params.gps_noise_m,
                             params.gps_noise_correlation_s);

  while (!cursor.Done()) {
    // Sensor tick: possibly jittered interval.
    double dt = params.sampling_interval_s;
    if (params.sampling_jitter_fraction > 0.0) {
      dt *= 1.0 + rng->Uniform(-params.sampling_jitter_fraction,
                               params.sampling_jitter_fraction);
    }
    // Kinematics between ticks: evolve the speed factor and slow near
    // intersections.
    speed_factor = 0.8 * speed_factor +
                   0.2 * (1.0 + params.speed_jitter_fraction * rng->Normal());
    speed_factor = std::clamp(speed_factor, 0.2, 1.8);
    double speed = params.cruise_speed_mps * speed_factor;
    if (cursor.DistanceToWaypoint() < params.slowdown_radius_m) {
      speed *= params.turn_slowdown_fraction +
               (1.0 - params.turn_slowdown_fraction) *
                   (cursor.DistanceToWaypoint() / params.slowdown_radius_m);
    }
    cursor.Advance(speed * dt);
    t += dt;
    // The error process advances even for dropped samples (time passes).
    const geo::Vec2 error = gps_error.Sample(dt, rng);

    if (params.dropout_probability > 0.0 &&
        rng->Bernoulli(params.dropout_probability)) {
      continue;  // lost sample
    }
    geo::Vec2 pos = cursor.Position() + error;
    // Guard the strictly-increasing-time invariant against degenerate
    // jitter draws.
    if (t <= last_t) t = last_t + 1e-3;
    out.AppendUnchecked({pos.x, pos.y, t});
    last_t = t;
  }
  return out;
}

}  // namespace operb::datagen
