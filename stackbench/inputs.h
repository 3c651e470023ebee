#ifndef STACKBENCH_INPUTS_H_
#define STACKBENCH_INPUTS_H_

// Seeded input generation. Everything the program under test sees is
// built here, before timing, from the run's seed alone.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/point.h"
#include "traj/multi_object.h"
#include "traj/trajectory.h"

namespace stackbench {

struct NamedProfile {
  std::string name;
  operb::datagen::DatasetProfile profile;
};

/// Taxi, Truck, SerCar, GeoLife and GeoLife_dense (GeoLife at 0.2-0.4 s
/// sampling, hundreds of points per segment).
std::vector<NamedProfile> DeviceProfiles();

/// The paper's four profiles.
std::vector<NamedProfile> FleetProfiles();

/// `legs` datagen trajectories of one profile stitched end to end into
/// one trace of `points` samples: each leg starts where the previous one
/// stopped, one sampling interval later.
operb::traj::Trajectory GenerateLegs(const operb::datagen::DatasetProfile& profile,
                                     std::size_t points, std::size_t legs,
                                     operb::datagen::Rng* rng);

/// One trace per profile, `points` samples each.
std::vector<operb::traj::Trajectory> GenerateTraces(
    const std::vector<NamedProfile>& profiles, std::size_t points,
    std::uint64_t seed);

/// One moving object of a fleet: its id and its full sample sequence.
struct FleetObject {
  operb::traj::ObjectId id = 0;
  std::size_t profile = 0;
  std::vector<operb::geo::Point> points;
};

struct FleetSpec {
  std::size_t objects = 100000;
  /// Target total samples; each object gets a share by Zipf rank.
  std::size_t total_points = 2000000;
  /// Zipf exponent of per-object sizes; 0 gives every object the same size.
  double zipf = 0.8;
  std::size_t min_points = 4;
  /// Objects are spread over a square of this side, meters.
  double area_m = 100000.0;
  /// Object start times are spread over [0, this), seconds.
  double start_spread_s = 3600.0;
  std::uint64_t seed = 1;
};

/// Objects are slices of a few long datagen trajectories per profile,
/// each moved to its own place and start time: building one road network
/// per object would dominate set-up. Profiles are dealt round-robin by
/// size rank, so every profile gets the same share of large objects.
std::vector<FleetObject> GenerateFleet(const FleetSpec& spec);

/// Every object's samples [begin[i], end[i]) merged into one stream in
/// timestamp order (ties by object id).
std::vector<operb::traj::ObjectUpdate> MergeByTime(
    const std::vector<FleetObject>& objects,
    const std::vector<std::size_t>& begin, const std::vector<std::size_t>& end);

}  // namespace stackbench

#endif  // STACKBENCH_INPUTS_H_
