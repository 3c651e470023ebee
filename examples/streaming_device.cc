// Streaming device scenario — the deployment the paper's introduction
// motivates: a vehicle-mounted sensor compresses its GPS stream on the fly
// with O(1) memory and ships finished line segments to the "cloud" as soon
// as they are determined.
//
// The raw sensor stream is deliberately dirty (duplicates, out-of-order
// fixes, outliers); a StreamCleaner sanitizes it in the same pass, and an
// OperbAStream compresses the clean stream. The example reports per-stage
// counters and the bandwidth saved.

#include <cstdio>
#include <vector>

#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "traj/cleaner.h"

namespace {

/// Corrupts a clean trajectory the way lossy transports do: occasional
/// duplicates, swapped neighbours and wild outliers.
std::vector<operb::geo::Point> MakeDirtyStream(
    const operb::traj::Trajectory& clean, operb::datagen::Rng* rng) {
  std::vector<operb::geo::Point> out;
  out.reserve(clean.size() + clean.size() / 10);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    operb::geo::Point p = clean[i];
    if (rng->Bernoulli(0.01)) {
      // GPS glitch: a fix several km off.
      p.x += rng->Uniform(2000.0, 5000.0);
      out.push_back(p);
      continue;
    }
    out.push_back(p);
    if (rng->Bernoulli(0.02)) out.push_back(p);  // duplicate
    if (i > 0 && rng->Bernoulli(0.02)) {
      std::swap(out[out.size() - 1], out[out.size() - 2]);  // reorder
    }
  }
  return out;
}

}  // namespace

int main() {
  using namespace operb;  // NOLINT: example brevity

  datagen::Rng rng(2024);
  // A densely sampled (3-5 s) connected-car stream: the regime where
  // on-device simplification pays the most.
  const traj::Trajectory drive = datagen::GenerateTrajectory(
      datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar), 2000,
      &rng);
  const std::vector<geo::Point> sensor_stream = MakeDirtyStream(drive, &rng);

  traj::CleanerOptions cleaner_options;
  cleaner_options.max_speed_mps = 70.0;  // nothing street-legal goes faster
  traj::StreamCleaner cleaner(cleaner_options);

  core::OperbAStream compressor(core::OperbAOptions::Optimized(40.0));

  // The sink runs the moment a segment is determined. In a real device
  // this is the network send; a segment costs one point (its start — the
  // previous segment supplied the shared end) and its two times.
  std::size_t transmitted_segments = 0;
  compressor.SetSink([&transmitted_segments](const traj::RepresentedSegment&) {
    ++transmitted_segments;
  });
  for (const geo::Point& raw_fix : sensor_stream) {
    const auto clean_fix = cleaner.Push(raw_fix);
    if (!clean_fix.has_value()) continue;  // dropped by the cleaner
    compressor.Push(*clean_fix);
  }
  compressor.Finish();

  const traj::CleanerStats& cs = cleaner.stats();
  const core::OperbAStats stats = compressor.stats();
  std::printf("sensor stream:   %zu raw fixes\n", sensor_stream.size());
  std::printf("cleaner:         %zu accepted, %zu duplicates, %zu "
              "out-of-order, %zu outliers dropped\n",
              cs.accepted, cs.duplicates_dropped, cs.out_of_order_dropped,
              cs.outliers_dropped);
  std::printf("compressor:      %zu points in, %zu segments out "
              "(%zu absorbed, %zu/%zu anomalies patched)\n",
              stats.base.points_processed, transmitted_segments,
              stats.base.points_absorbed, stats.patches_applied,
              stats.anomalous_segments);
  const double sent = static_cast<double>(transmitted_segments + 1);
  std::printf("bandwidth:       %.1f%% of the cleaned stream "
              "(%.0fx reduction)\n",
              100.0 * sent / cs.accepted, cs.accepted / sent);
  return 0;
}
