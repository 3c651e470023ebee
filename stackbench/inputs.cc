#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "datagen/rng.h"

namespace stackbench {

using operb::datagen::DatasetKind;
using operb::datagen::DatasetProfile;
using operb::datagen::Rng;

namespace {

/// Legs per generated trace. Each datagen trajectory draws one sampling
/// interval (Truck: anywhere in 1-60 s); stitching many legs keeps one
/// seed's draw from moving the whole workload.
constexpr std::size_t kLegs = 64;

}  // namespace

std::vector<NamedProfile> FleetProfiles() {
  std::vector<NamedProfile> out;
  for (const DatasetKind kind : operb::datagen::AllDatasetKinds()) {
    out.push_back({std::string(operb::datagen::DatasetName(kind)),
                   DatasetProfile::For(kind)});
  }
  return out;
}

std::vector<NamedProfile> DeviceProfiles() {
  std::vector<NamedProfile> out = FleetProfiles();
  DatasetProfile dense = DatasetProfile::For(DatasetKind::kGeoLife);
  dense.sampling_min_s = 0.2;
  dense.sampling_max_s = 0.4;
  out.push_back({"GeoLife_dense", dense});
  return out;
}

operb::traj::Trajectory GenerateLegs(const DatasetProfile& profile,
                                     std::size_t points, std::size_t legs,
                                     Rng* rng) {
  operb::traj::Trajectory out;
  out.reserve(points);
  for (std::size_t k = 0; k < legs; ++k) {
    const std::size_t n = points / legs + (k < points % legs ? 1 : 0);
    if (n < 2) continue;
    Rng leg_rng = rng->Fork();
    const operb::traj::Trajectory leg =
        operb::datagen::GenerateTrajectory(profile, n, &leg_rng);
    // The leg starts where the previous one ended, one sample later.
    double dx = 0.0, dy = 0.0, dt = 0.0;
    if (!out.empty()) {
      dx = out.back().x - leg[0].x;
      dy = out.back().y - leg[0].y;
      dt = out.back().t - leg[0].t + (leg[1].t - leg[0].t);
    }
    for (const operb::geo::Point& p : leg) {
      out.AppendUnchecked({p.x + dx, p.y + dy, p.t + dt});
    }
  }
  return out;
}

std::vector<operb::traj::Trajectory> GenerateTraces(
    const std::vector<NamedProfile>& profiles, std::size_t points,
    std::uint64_t seed) {
  Rng root(seed);
  std::vector<operb::traj::Trajectory> out;
  for (const NamedProfile& p : profiles) {
    Rng rng = root.Fork();
    out.push_back(GenerateLegs(p.profile, points, kLegs, &rng));
  }
  return out;
}

std::vector<FleetObject> GenerateFleet(const FleetSpec& spec) {
  Rng rng(spec.seed ^ 0xF1EE7ULL);
  const std::vector<NamedProfile> profiles = FleetProfiles();
  const std::size_t n = spec.objects;

  // Per-rank sizes.
  std::vector<double> weight(n);
  for (std::size_t r = 0; r < n; ++r) {
    weight[r] = std::pow(static_cast<double>(r + 1), -spec.zipf);
  }
  const double total_weight = std::accumulate(weight.begin(), weight.end(), 0.0);
  std::vector<std::size_t> size(n);
  std::vector<std::size_t> longest(profiles.size(), spec.min_points);
  for (std::size_t r = 0; r < n; ++r) {
    size[r] = std::max(spec.min_points,
                       static_cast<std::size_t>(std::llround(
                           static_cast<double>(spec.total_points) *
                           weight[r] / total_weight)));
    std::size_t& l = longest[r % profiles.size()];
    l = std::max(l, size[r]);
  }

  // Eight source traces per profile, long enough for its largest object,
  // plus room for the slices to start at varied offsets. With two, the
  // few traces' draws decided how much state the live engine holds, and
  // fleet_live's peak_rss_mb spread by 0.12 over five seeds; with eight
  // by 0.06.
  constexpr std::size_t kPools = 8;
  std::vector<std::vector<operb::traj::Trajectory>> pools(profiles.size());
  for (std::size_t p = 0; p < profiles.size(); ++p) {
    const std::size_t len = std::max<std::size_t>(2 * longest[p], 20000);
    for (std::size_t k = 0; k < kPools; ++k) {
      Rng child = rng.Fork();
      pools[p].push_back(GenerateLegs(profiles[p].profile, len, kLegs, &child));
    }
  }

  // Ids 1..n, dealt to ranks in a seeded order so size and id are
  // unrelated.
  std::vector<operb::traj::ObjectId> ids(n);
  std::iota(ids.begin(), ids.end(), 1);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.NextBelow(i)]);
  }

  std::vector<FleetObject> out(n);
  for (std::size_t r = 0; r < n; ++r) {
    FleetObject& o = out[r];
    o.id = ids[r];
    o.profile = r % profiles.size();
    const auto& pool = pools[o.profile][rng.NextBelow(kPools)].points();
    const std::size_t offset = rng.NextBelow(pool.size() - size[r] + 1);
    const operb::geo::Point base = pool[offset];
    const double ox = rng.Uniform(0.0, spec.area_m);
    const double oy = rng.Uniform(0.0, spec.area_m);
    const double ot = rng.Uniform(0.0, spec.start_spread_s);
    o.points.reserve(size[r]);
    for (std::size_t i = 0; i < size[r]; ++i) {
      const operb::geo::Point& p = pool[offset + i];
      o.points.emplace_back(p.x - base.x + ox, p.y - base.y + oy,
                            p.t - base.t + ot);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const FleetObject& a, const FleetObject& b) { return a.id < b.id; });
  return out;
}

std::vector<operb::traj::ObjectUpdate> MergeByTime(
    const std::vector<FleetObject>& objects,
    const std::vector<std::size_t>& begin,
    const std::vector<std::size_t>& end) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < objects.size(); ++i) total += end[i] - begin[i];
  std::vector<operb::traj::ObjectUpdate> out;
  out.reserve(total);
  for (std::size_t i = 0; i < objects.size(); ++i) {
    for (std::size_t k = begin[i]; k < end[i]; ++k) {
      out.push_back({objects[i].id, objects[i].points[k]});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const operb::traj::ObjectUpdate& a,
               const operb::traj::ObjectUpdate& b) {
              return a.point.t != b.point.t ? a.point.t < b.point.t
                                            : a.object_id < b.object_id;
            });
  return out;
}

}  // namespace stackbench
