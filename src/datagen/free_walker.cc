#include "datagen/free_walker.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "datagen/noise.h"
#include "geo/angle.h"

namespace operb::datagen {

traj::Trajectory SimulateFreeWalk(std::size_t num_points,
                                  const FreeWalkerParams& params, Rng* rng) {
  OPERB_CHECK(params.sampling_interval_s > 0.0);
  traj::Trajectory out;
  out.reserve(num_points);

  geo::Vec2 pos{0.0, 0.0};
  double heading = rng->Uniform(0.0, geo::kTwoPi);
  // The OU process reverts the heading *drift* to zero, so the walker
  // tends to keep its current direction while wandering.
  double heading_drift = 0.0;
  double t = params.start_time_s;
  double last_t = -1.0;
  GaussMarkovNoise gps_error(params.gps_noise_m,
                             params.gps_noise_correlation_s);

  while (out.size() < num_points) {
    double dt = params.sampling_interval_s;
    if (params.sampling_jitter_fraction > 0.0) {
      dt *= 1.0 + rng->Uniform(-params.sampling_jitter_fraction,
                               params.sampling_jitter_fraction);
    }
    heading_drift += -params.heading_reversion * heading_drift * dt +
                     params.heading_volatility * std::sqrt(dt) * rng->Normal();
    heading_drift = std::clamp(heading_drift, -0.3, 0.3);
    heading += heading_drift * dt;

    double speed = params.speed_mps *
                   (1.0 + params.speed_jitter_fraction * rng->Normal());
    speed = std::max(0.1, speed);
    pos += geo::Vec2::FromAngle(heading) * (speed * dt);
    t += dt;
    const geo::Vec2 error = gps_error.Sample(dt, rng);

    if (params.dropout_probability > 0.0 &&
        rng->Bernoulli(params.dropout_probability)) {
      continue;
    }
    const geo::Vec2 sample = pos + error;
    if (t <= last_t) t = last_t + 1e-3;
    out.AppendUnchecked({sample.x, sample.y, t});
    last_t = t;
  }
  return out;
}

}  // namespace operb::datagen
