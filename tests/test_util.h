#ifndef OPERB_TESTS_TEST_UTIL_H_
#define OPERB_TESTS_TEST_UTIL_H_

#include <charconv>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/point.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::testutil {

/// Parameters the golden fixtures under tests/golden/ were produced with
/// (must match tools/make_golden.cc).
inline constexpr std::uint64_t kGoldenSeed = 20170401;
inline constexpr std::size_t kGoldenPoints = 600;
inline constexpr double kGoldenZeta = 40.0;

/// The exact trajectory a golden fixture was generated from.
inline traj::Trajectory GoldenTrajectory(datagen::DatasetKind kind) {
  datagen::Rng rng(kGoldenSeed);
  return datagen::GenerateTrajectory(datagen::DatasetProfile::For(kind),
                                     kGoldenPoints, &rng);
}

/// Loads a tests/golden/ fixture
/// (`first,last,start_patch,end_patch,x0,y0,x1,y1` rows). The fixtures
/// hold no times: each segment is stamped with the times of `original`'s
/// points at its two indices, `original` being the trajectory the
/// fixture's output is compared for.
inline std::vector<traj::RepresentedSegment> LoadGolden(
    const std::string& path, const traj::Trajectory& original) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << "missing golden file " << path
                            << " (regenerate with tools/make_golden)";
  std::vector<traj::RepresentedSegment> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    traj::RepresentedSegment s;
    const char* p = line.c_str();
    const char* end = p + line.size();
    unsigned long long first = 0, last = 0;
    int sp = 0, ep = 0;
    auto field = [&](auto* value) {
      if (p < end && *p == ',') ++p;
      const auto r = std::from_chars(p, end, *value);
      ASSERT_EQ(r.ec, std::errc()) << "corrupt golden row: " << line;
      p = r.ptr;
    };
    field(&first);
    field(&last);
    field(&sp);
    field(&ep);
    field(&s.start.x);
    field(&s.start.y);
    field(&s.end.x);
    field(&s.end.y);
    s.first_index = first;
    s.last_index = last;
    s.start_is_patch = sp != 0;
    s.end_is_patch = ep != 0;
    EXPECT_LT(last, original.size()) << "golden row past the trajectory";
    if (last < original.size()) {
      s.t_start = original[s.first_index].t;
      s.t_end = original[s.last_index].t;
    }
    out.push_back(s);
  }
  return out;
}

/// Field-by-field bit-exact segment comparison, times included.
inline void ExpectSegmentsEqual(
    const std::vector<traj::RepresentedSegment>& actual,
    const std::vector<traj::RepresentedSegment>& want,
    const std::string& label) {
  ASSERT_EQ(actual.size(), want.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    SCOPED_TRACE(label + " segment " + std::to_string(i));
    EXPECT_EQ(actual[i].first_index, want[i].first_index);
    EXPECT_EQ(actual[i].last_index, want[i].last_index);
    EXPECT_EQ(actual[i].start_is_patch, want[i].start_is_patch);
    EXPECT_EQ(actual[i].end_is_patch, want[i].end_is_patch);
    EXPECT_EQ(actual[i].start.x, want[i].start.x);
    EXPECT_EQ(actual[i].start.y, want[i].start.y);
    EXPECT_EQ(actual[i].end.x, want[i].end.x);
    EXPECT_EQ(actual[i].end.y, want[i].end.y);
    EXPECT_EQ(actual[i].t_start, want[i].t_start);
    EXPECT_EQ(actual[i].t_end, want[i].t_end);
  }
}

/// A trajectory from inline (x, y) pairs with unit time steps.
inline traj::Trajectory MakeTrajectory(
    const std::vector<std::pair<double, double>>& xy) {
  traj::Trajectory t;
  double time = 0.0;
  for (const auto& [x, y] : xy) {
    t.AppendUnchecked({x, y, time});
    time += 1.0;
  }
  return t;
}

/// A straight line along +x with `n` points spaced `step` meters.
inline traj::Trajectory StraightLine(std::size_t n, double step = 10.0) {
  traj::Trajectory t;
  for (std::size_t i = 0; i < n; ++i) {
    t.AppendUnchecked(
        {static_cast<double>(i) * step, 0.0, static_cast<double>(i)});
  }
  return t;
}

/// A zig-zag: alternating diagonal legs, producing many sharp turns.
inline traj::Trajectory ZigZag(std::size_t n, double step = 20.0,
                               double amplitude = 30.0) {
  traj::Trajectory t;
  for (std::size_t i = 0; i < n; ++i) {
    const double y = (i % 2 == 0) ? 0.0 : amplitude;
    t.AppendUnchecked(
        {static_cast<double>(i) * step, y, static_cast<double>(i)});
  }
  return t;
}

/// Uniform random walk in a box (adversarial for all simplifiers).
inline traj::Trajectory RandomWalk(std::size_t n, std::uint64_t seed,
                                   double step = 15.0) {
  datagen::Rng rng(seed);
  traj::Trajectory t;
  geo::Vec2 pos{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    t.AppendUnchecked({pos.x, pos.y, static_cast<double>(i)});
    pos.x += rng.Uniform(-step, step);
    pos.y += rng.Uniform(-step, step);
  }
  return t;
}

/// A small generated dataset trajectory for property tests.
inline traj::Trajectory Generated(datagen::DatasetKind kind, std::size_t n,
                                  std::uint64_t seed) {
  datagen::Rng rng(seed);
  return datagen::GenerateTrajectory(datagen::DatasetProfile::For(kind), n,
                                     &rng);
}

}  // namespace operb::testutil

#endif  // OPERB_TESTS_TEST_UTIL_H_
