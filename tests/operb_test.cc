#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/operb.h"
#include "eval/metrics.h"
#include "eval/verifier.h"
#include "test_util.h"

namespace operb::core {
namespace {

using testutil::Generated;
using testutil::MakeTrajectory;
using testutil::RandomWalk;
using testutil::StraightLine;
using testutil::ZigZag;

TEST(OperbTest, EmptyAndSinglePointYieldEmptyRepresentation) {
  const OperbOptions opts = OperbOptions::Optimized(10.0);
  traj::Trajectory empty;
  EXPECT_TRUE(SimplifyOperb(empty, opts).empty());
  traj::Trajectory one;
  one.AppendUnchecked({1.0, 2.0, 0.0});
  EXPECT_TRUE(SimplifyOperb(one, opts).empty());
}

TEST(OperbTest, TwoPointsYieldOneSegment) {
  const auto t = MakeTrajectory({{0, 0}, {100, 0}});
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_EQ(rep[0].first_index, 0u);
  EXPECT_EQ(rep[0].last_index, 1u);
  EXPECT_EQ(rep[0].start, geo::Vec2(0, 0));
  EXPECT_EQ(rep[0].end, geo::Vec2(100, 0));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(OperbTest, StraightLineCompressesToOneSegment) {
  const auto t = StraightLine(500);
  for (const OperbOptions& opts :
       {OperbOptions::Raw(10.0), OperbOptions::Optimized(10.0)}) {
    const auto rep = SimplifyOperb(t, opts);
    ASSERT_EQ(rep.size(), 1u) << opts.ToString();
    EXPECT_EQ(rep[0].first_index, 0u);
    EXPECT_EQ(rep[0].last_index, 499u);
    EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  }
}

TEST(OperbTest, NearStraightLineStaysBoundedAndOptimizationsHelp) {
  // Small offsets off the axis. Raw OPERB may still split (the first
  // active point can fix a misaligned initial angle — the motivation for
  // optimization (1)), but the bound must hold and the optimized variant
  // must compress at least as well.
  traj::Trajectory t;
  datagen::Rng rng(7);
  for (int i = 0; i < 300; ++i) {
    t.AppendUnchecked({i * 10.0, rng.Uniform(-4.9, 4.9), double(i)});
  }
  const auto raw = SimplifyOperb(t, OperbOptions::Raw(20.0));
  const auto opt = SimplifyOperb(t, OperbOptions::Optimized(20.0));
  EXPECT_TRUE(raw.ValidateAgainst(t).ok());
  EXPECT_TRUE(opt.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, raw, 20.0).bounded);
  EXPECT_TRUE(eval::VerifyErrorBound(t, opt, 20.0).bounded);
  EXPECT_LE(opt.size(), raw.size());
  EXPECT_LE(opt.size(), 6u);  // near-straight data compresses hard
}

TEST(OperbTest, SharpTurnBreaksSegment) {
  // An L-shaped path cannot be one segment once the leg exceeds zeta.
  traj::Trajectory t;
  for (int i = 0; i <= 20; ++i) t.AppendUnchecked({i * 10.0, 0.0, double(i)});
  for (int i = 1; i <= 20; ++i)
    t.AppendUnchecked({200.0, i * 10.0, 20.0 + i});
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(15.0));
  EXPECT_GE(rep.size(), 2u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 15.0).bounded);
}

TEST(OperbTest, RepresentationIsContinuousAndChains) {
  const auto t = ZigZag(101);
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(12.0));
  ASSERT_FALSE(rep.empty());
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  for (std::size_t i = 1; i < rep.size(); ++i) {
    EXPECT_EQ(rep[i].start, rep[i - 1].end);
    EXPECT_EQ(rep[i].first_index, rep[i - 1].last_index);
  }
}

TEST(OperbTest, StreamingMatchesBatch) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 4000, 99);
  const OperbOptions opts = OperbOptions::Optimized(25.0);
  const auto batch = SimplifyOperb(t, opts);

  OperbStream stream(opts);
  traj::PiecewiseRepresentation incremental;
  stream.SetSink(
      [&incremental](const traj::RepresentedSegment& s) {
        incremental.Append(s);
      });
  for (const geo::Point& p : t) stream.Push(p);
  stream.Finish();

  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].first_index, incremental[i].first_index);
    EXPECT_EQ(batch[i].last_index, incremental[i].last_index);
    EXPECT_EQ(batch[i].start, incremental[i].start);
    EXPECT_EQ(batch[i].end, incremental[i].end);
    EXPECT_EQ(batch[i].t_start, incremental[i].t_start);
    EXPECT_EQ(batch[i].t_end, incremental[i].t_end);
  }
}

TEST(OperbTest, StatsCountEveryPointOnce) {
  const auto t = Generated(datagen::DatasetKind::kTaxi, 3000, 5);
  OperbStats stats;
  SimplifyOperb(t, OperbOptions::Optimized(40.0), &stats);
  EXPECT_EQ(stats.points_processed, t.size());
}

TEST(OperbTest, DeterministicAcrossRuns) {
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 3000, 11);
  const OperbOptions opts = OperbOptions::Optimized(15.0);
  const auto a = SimplifyOperb(t, opts);
  const auto b = SimplifyOperb(t, opts);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(OperbTest, OptimizationsImproveCompressionOnDenseData) {
  // The headline claim of Section 4.4 / Figure 16: optimized OPERB has a
  // (much) lower compression ratio than Raw-OPERB on dense datasets.
  const auto t = Generated(datagen::DatasetKind::kSerCar, 8000, 21);
  const auto raw = SimplifyOperb(t, OperbOptions::Raw(40.0));
  const auto opt = SimplifyOperb(t, OperbOptions::Optimized(40.0));
  EXPECT_LT(eval::CompressionRatio(t, opt), eval::CompressionRatio(t, raw));
}

TEST(OperbTest, PaperVerbatimModeEndsAtLastActivePoint) {
  // With the closing segment disabled, trailing inactive points leave the
  // representation ending before the final sample (the pseudocode's
  // behaviour); with it enabled the last endpoint is always P_n.
  traj::Trajectory t;
  for (int i = 0; i <= 10; ++i) t.AppendUnchecked({i * 20.0, 0.0, double(i)});
  // Trailing cluster of inactive points near the end.
  for (int i = 1; i <= 5; ++i)
    t.AppendUnchecked({200.0 + 0.1 * i, 0.0, 10.0 + i});
  OperbOptions closing = OperbOptions::Raw(40.0);
  const auto rep = SimplifyOperb(t, closing);
  EXPECT_EQ(rep[rep.size() - 1].last_index, t.size() - 1);

  OperbOptions verbatim = closing;
  verbatim.emit_closing_segment = false;
  const auto rep2 = SimplifyOperb(t, verbatim);
  ASSERT_FALSE(rep2.empty());
  // Coverage still reaches the end even though the endpoint may not.
  EXPECT_EQ(rep2[rep2.size() - 1].last_index, t.size() - 1);
}

TEST(OperbTest, CapForcesSegmentBreak) {
  OperbOptions opts = OperbOptions::Raw(1000.0);
  opts.max_points_per_segment = 100;
  const auto t = StraightLine(1000, 1.0);
  OperbStats stats;
  const auto rep = SimplifyOperb(t, opts, &stats);
  EXPECT_GT(stats.cap_breaks, 0u);
  EXPECT_GE(rep.size(), 9u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 1000.0).bounded);
}

TEST(OperbTest, AbsorbOptimizationConsumesPointsAfterBreak) {
  // A path that turns, then returns close to the first segment's line:
  // absorption should extend the first segment's coverage.
  OperbOptions with_absorb = OperbOptions::Optimized(20.0);
  OperbOptions without_absorb = with_absorb;
  without_absorb.opt_absorb = false;

  const auto t = Generated(datagen::DatasetKind::kTaxi, 5000, 31);
  OperbStats s_with, s_without;
  const auto rep_with = SimplifyOperb(t, with_absorb, &s_with);
  const auto rep_without = SimplifyOperb(t, without_absorb, &s_without);
  EXPECT_GT(s_with.points_absorbed, 0u);
  EXPECT_EQ(s_without.points_absorbed, 0u);
  EXPECT_TRUE(rep_with.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep_with, 20.0).bounded);
}

// ---------------------------------------------------------------------------
// Property sweep: for every dataset kind, zeta and optimization setting the
// output must be a valid, continuous, error-bounded representation.
// ---------------------------------------------------------------------------

struct SweepParam {
  datagen::DatasetKind kind;
  double zeta;
  bool optimized;
  std::uint64_t seed;
};

class OperbPropertyTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(OperbPropertyTest, ErrorBoundedValidContinuous) {
  const SweepParam p = GetParam();
  const auto t = Generated(p.kind, 2500, p.seed);
  const OperbOptions opts = p.optimized ? OperbOptions::Optimized(p.zeta)
                                        : OperbOptions::Raw(p.zeta);
  const auto rep = SimplifyOperb(t, opts);
  ASSERT_TRUE(rep.ValidateAgainst(t).ok());
  const auto verdict = eval::VerifyErrorBound(t, rep, p.zeta);
  EXPECT_TRUE(verdict.bounded) << verdict.ToString();
  // Compression must never exceed 1 (plus the closing segment's +1).
  EXPECT_LE(rep.StoredPointCount(), t.size() + 1);
}

std::string SweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  std::string name(datagen::DatasetName(info.param.kind));
  name += "_z" + std::to_string(static_cast<int>(info.param.zeta));
  name += info.param.optimized ? "_opt" : "_raw";
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

std::vector<SweepParam> MakeSweep() {
  std::vector<SweepParam> out;
  for (auto kind : datagen::AllDatasetKinds()) {
    for (double zeta : {5.0, 20.0, 40.0, 100.0}) {
      for (bool optimized : {false, true}) {
        for (std::uint64_t seed : {1ULL, 2ULL}) {
          out.push_back({kind, zeta, optimized, seed});
        }
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OperbPropertyTest,
                         ::testing::ValuesIn(MakeSweep()), SweepName);

// Adversarial inputs: random walks and degenerate shapes.
class OperbAdversarialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OperbAdversarialTest, RandomWalkStaysBounded) {
  const auto t = RandomWalk(1500, GetParam());
  for (double zeta : {5.0, 25.0}) {
    for (const OperbOptions& opts :
         {OperbOptions::Raw(zeta), OperbOptions::Optimized(zeta)}) {
      const auto rep = SimplifyOperb(t, opts);
      ASSERT_TRUE(rep.ValidateAgainst(t).ok()) << opts.ToString();
      const auto verdict = eval::VerifyErrorBound(t, rep, zeta);
      EXPECT_TRUE(verdict.bounded)
          << opts.ToString() << " " << verdict.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OperbAdversarialTest,
                         ::testing::Range<std::uint64_t>(100, 110));

TEST(OperbEdgeTest, AllPointsIdenticalPosition) {
  traj::Trajectory t;
  for (int i = 0; i < 50; ++i) t.AppendUnchecked({5.0, 5.0, double(i)});
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_EQ(rep[0].last_index, 49u);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(OperbEdgeTest, BackAndForthOnALine) {
  // Object oscillates along one axis; all points are collinear so one
  // segment suffices no matter how it moves in time.
  traj::Trajectory t;
  for (int i = 0; i < 200; ++i) {
    const double x = (i % 3 == 0) ? i * 2.0 : i * 2.0 - 30.0;
    t.AppendUnchecked({x, 0.0, double(i)});
  }
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 10.0).bounded);
}

TEST(OperbEdgeTest, TinyZetaProducesManySegmentsButStaysBounded) {
  const auto t = Generated(datagen::DatasetKind::kGeoLife, 1000, 3);
  const auto rep = SimplifyOperb(t, OperbOptions::Optimized(0.5));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
  EXPECT_TRUE(eval::VerifyErrorBound(t, rep, 0.5).bounded);
}

// ---------------------------------------------------------------------------
// Push(span) vs point-wise Push on an adversarial corpus
// ---------------------------------------------------------------------------

/// Everything a stream produced: the serialized segment bytes in emission
/// order, the stats, and the serialized dynamic state before Finish().
struct StreamOutput {
  std::vector<std::uint8_t> segments;
  std::vector<std::uint8_t> state;
  OperbStats stats;
};

/// Feeds `t` in chunks of `chunk` points through Push(span), or point by
/// point when `chunk` is 0.
StreamOutput RunStream(const traj::Trajectory& t, const OperbOptions& opts,
                       std::size_t chunk) {
  StreamOutput out;
  OperbStream stream(opts);
  stream.SetSink([&out](const traj::RepresentedSegment& s) {
    traj::SerializeSegment(s, &out.segments);
  });
  const std::span<const geo::Point> all(t.points());
  if (chunk == 0) {
    for (const geo::Point& p : all) stream.Push(p);
  } else {
    for (std::size_t i = 0; i < all.size(); i += chunk) {
      stream.Push(all.subspan(i, std::min(chunk, all.size() - i)));
    }
  }
  stream.Serialize(&out.state);
  stream.Finish();
  out.stats = stream.stats();
  return out;
}

struct AdversarialInput {
  std::string name;
  traj::Trajectory points;
  /// False when some radius from an anchor is Inf or NaN. Such points
  /// violate FittingFunction::PlanActivation's precondition, which
  /// debug builds check (and abort on) in both paths alike.
  bool finite = true;
};

// Inputs chosen to hit IEEE corner cases on every run type of the batched
// path (absorb, seek, inactive extend): exact zeros of both signs,
// denormals, overflow, NaN/Inf, and long runs that cross chunk edges.

AdversarialInput CollinearInput() {
  // Collinear runs with a back-step: every offset is a signed zero.
  std::vector<std::pair<double, double>> xy;
  for (int i = 0; i < 300; ++i) {
    xy.push_back({i % 50 == 49 ? i * 3.0 - 40.0 : i * 3.0, 0.0});
  }
  return {"collinear", MakeTrajectory(xy)};
}

AdversarialInput DuplicatesInput() {
  // Every point repeated, so each new anchor has duplicates at radius 0.
  std::vector<std::pair<double, double>> xy;
  const traj::Trajectory walk = RandomWalk(80, 5, 12.0);
  for (const geo::Point& p : walk) {
    for (int k = 0; k < 4; ++k) xy.push_back({p.x, p.y});
  }
  return {"duplicates", MakeTrajectory(xy)};
}

AdversarialInput SignedZerosInput() {
  // +0 / -0 coordinates around the anchor, then a zero-mixed walk.
  std::vector<std::pair<double, double>> xy;
  for (int i = 0; i < 40; ++i) {
    xy.push_back({i % 2 == 0 ? 0.0 : -0.0, i % 3 == 0 ? -0.0 : 0.0});
  }
  for (int i = 1; i < 200; ++i) {
    const double x = (i / 20) * 30.0;
    xy.push_back({i % 4 == 0 ? -0.0 : x, i % 5 == 0 ? -0.0 : (i % 7) * 2.0});
  }
  return {"signed_zeros", MakeTrajectory(xy)};
}

AdversarialInput DenormalsInput() {
  // Denormal coordinates and offsets on and off a straight run.
  std::vector<std::pair<double, double>> xy;
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (int i = 0; i < 60; ++i) xy.push_back({i * 1e-310, (i % 3) * tiny});
  for (int i = 0; i < 200; ++i) {
    xy.push_back({i * 4.0, (i % 2 == 0 ? 1.0 : -1.0) * (i % 5) * 1e-312});
  }
  return {"denormals", MakeTrajectory(xy)};
}

AdversarialInput OverflowInput() {
  // 1e306 steps: coordinates overflow to Inf part-way through.
  std::vector<std::pair<double, double>> xy;
  for (int i = 0; i < 40; ++i) xy.push_back({i * 2.0, i * 0.5});
  for (int i = 1; i < 260; ++i) {
    xy.push_back({i * 1e306, (i % 3) * 1e306});
  }
  return {"overflow", MakeTrajectory(xy), /*finite=*/false};
}

AdversarialInput NearZeroDirectionInput() {
  // Near-zero directions: runs of 1e-300 steps between real moves.
  std::vector<std::pair<double, double>> xy;
  geo::Vec2 pos{0.0, 0.0};
  for (int i = 0; i < 300; ++i) {
    if (i % 10 == 9) {
      pos.x += 25.0;
      pos.y += (i % 20 == 9) ? 6.0 : -6.0;
    } else {
      pos.x += 1e-300;
      pos.y -= 1e-300;
    }
    xy.push_back({pos.x, pos.y});
  }
  return {"near_zero_direction", MakeTrajectory(xy)};
}

AdversarialInput NanInfMidstreamInput() {
  // A NaN point and an Inf point in the middle of a road profile.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  traj::Trajectory base = Generated(datagen::DatasetKind::kSerCar, 400, 11);
  std::vector<std::pair<double, double>> xy;
  for (const geo::Point& p : base) xy.push_back({p.x, p.y});
  xy[130].first = nan;
  xy[131].second = nan;
  xy[260].first = inf;
  xy[261] = {-inf, -inf};
  return {"nan_inf_midstream", MakeTrajectory(xy), /*finite=*/false};
}

AdversarialInput NanInExtendRunInput(std::size_t bad) {
  // A straight run whose offsets from L alternate +0 / -0, with one NaN
  // offset planted at `bad` inside an inactive extend run.
  std::vector<std::pair<double, double>> xy;
  for (int i = 0; i < 160; ++i) {
    xy.push_back({i * 0.25, i % 2 == 0 ? 0.0 : -0.0});
  }
  xy[bad].second = std::numeric_limits<double>::quiet_NaN();
  return {"nan_in_extend_run_" + std::to_string(bad), MakeTrajectory(xy),
          /*finite=*/false};
}

AdversarialInput FullDistanceBudgetInput(int pad, double side) {
  // At zeta 10, (12, 0) is the first active point and L runs along the x
  // axis. The inactive run after it holds `pad` on-line points, then
  // offsets of exactly 5 on both sides, which fill the distance budget
  // (d+max + d-max == zeta, |offset| == zeta / 2); the next point is just
  // past it, so a run that starts there must accept nothing. `side`
  // mirrors the motif. Axis-aligned geometry keeps the offsets exact.
  std::vector<std::pair<double, double>> xy = {{0, 0}, {12, 0}};
  for (int j = 0; j < pad; ++j) xy.push_back({11.9 - 0.1 * j, 0});
  const std::pair<double, double> tail[] = {
      {11, 5 * side},    {11, -5 * side}, {10.5, 5.000001 * side},
      {10.5, -5 * side}, {10, 0},         {60, 0},
      {60, 40}};
  xy.insert(xy.end(), std::begin(tail), std::end(tail));
  return {"full_distance_budget_pad" + std::to_string(pad) +
              (side > 0 ? "_plus" : "_minus"),
          MakeTrajectory(xy)};
}

AdversarialInput ExactThresholdsInput() {
  // Distances of exactly zeta (10) from R_a and from an absorbing
  // segment, then just past it: axis-aligned geometry keeps them free
  // of rounding.
  std::vector<std::pair<double, double>> xy = {
      {0, 0},     {5, 0},      {100, 0},   {100, 10},
      {101, 10},  {102, 10},   {101.5, 10}, {101, 0},
      {102, -10}, {103, 10},   {104, -10}, {105, 10},
      {106, -10}, {107, 10.000000001},     {106, 50},
      {200, 50},  {200, 60},   {201, 60.000000001}, {150, 0}};
  for (const geo::Point& p : RandomWalk(200, 9, 12.0)) {
    xy.push_back({p.x + 150.0, p.y});
  }
  return {"exact_thresholds", MakeTrajectory(xy)};
}

AdversarialInput GeoLifeDenseInput() {
  // Dense high-rate walking: long inactive runs across chunk edges.
  datagen::DatasetProfile dense =
      datagen::DatasetProfile::For(datagen::DatasetKind::kGeoLife);
  dense.sampling_min_s = 0.2;
  dense.sampling_max_s = 0.4;
  datagen::Rng rng(301);
  return {"GeoLife_dense", datagen::GenerateTrajectory(dense, 3000, &rng)};
}

std::vector<std::pair<std::string, OperbOptions>> AdversarialOptions() {
  const double zeta = 10.0;
  std::vector<std::pair<std::string, OperbOptions>> out;
  out.emplace_back("raw", OperbOptions::Raw(zeta));
  out.emplace_back("optimized", OperbOptions::Optimized(zeta));
  OperbOptions o = OperbOptions::Optimized(zeta);
  o.strict_bound_guard = false;
  out.emplace_back("guard_off", o);
  o = OperbOptions::Optimized(zeta);
  o.opt_absorb = false;
  out.emplace_back("absorb_off", o);
  o = OperbOptions::Optimized(zeta);
  o.opt_adjusted_distance = false;
  out.emplace_back("adjusted_distance_off", o);
  out.emplace_back("zeta40", OperbOptions::Optimized(40.0));
  o = OperbOptions::Optimized(zeta);
  o.max_points_per_segment = 7;  // cap breaks land inside batched runs
  out.emplace_back("cap7", o);
  return out;
}

/// Push(span) at chunk sizes 1, 2, 3, 7, 63, 64, 65 and the whole span
/// must emit the same segment bytes, state and stats as point-wise Push,
/// under every option set of AdversarialOptions().
void ExpectSpanMatchesPointwise(const AdversarialInput& input) {
#ifdef NDEBUG
  constexpr bool kDebugChecks = false;
#else
  constexpr bool kDebugChecks = true;
#endif
  if (kDebugChecks && !input.finite) return;
  const traj::Trajectory& t = input.points;
  std::vector<std::size_t> sizes = {1, 2, 3, 7, 63, 64, 65};
  sizes.push_back(t.size());  // the whole span at once
  for (const auto& [opts_name, opts] : AdversarialOptions()) {
    const StreamOutput want = RunStream(t, opts, 0);
    for (std::size_t chunk : sizes) {
      SCOPED_TRACE(input.name + " / " + opts_name + " / chunk " +
                   std::to_string(chunk));
      const StreamOutput got = RunStream(t, opts, chunk);
      EXPECT_EQ(got.segments, want.segments);
      EXPECT_EQ(got.state, want.state);
      EXPECT_EQ(got.stats.points_processed, want.stats.points_processed);
      EXPECT_EQ(got.stats.segments_emitted, want.stats.segments_emitted);
      EXPECT_EQ(got.stats.points_absorbed, want.stats.points_absorbed);
      EXPECT_EQ(got.stats.cap_breaks, want.stats.cap_breaks);
    }
  }
}

// One case per IEEE corner case. The suite is named for the vector
// kernels these cases first covered; it now holds the scalar batched
// runs (AbsorbRun, SeekRun, ExtendRun) to ProcessPoint's output.

TEST(SimdKernelAdversarialTest, CollinearRunProducesIdenticalSignedZeros) {
  ExpectSpanMatchesPointwise(CollinearInput());
}

TEST(SimdKernelAdversarialTest, DuplicatePointsAtTheAnchor) {
  ExpectSpanMatchesPointwise(DuplicatesInput());
}

TEST(SimdKernelAdversarialTest, NegativeZeroCoordinates) {
  ExpectSpanMatchesPointwise(SignedZerosInput());
}

TEST(SimdKernelAdversarialTest, NearZeroAnchorDirection) {
  ExpectSpanMatchesPointwise(NearZeroDirectionInput());
}

TEST(SimdKernelAdversarialTest, DenormalCoordinates) {
  ExpectSpanMatchesPointwise(DenormalsInput());
}

TEST(SimdKernelAdversarialTest, HugeCoordinatesOverflowingToInf) {
  ExpectSpanMatchesPointwise(OverflowInput());
}

TEST(SimdKernelAdversarialTest, NanAndInfRejectionParity) {
  ExpectSpanMatchesPointwise(NanInfMidstreamInput());
}

TEST(SimdKernelAdversarialTest, ExtendAcceptNanLanesAndSignedZeroOffsets) {
  // The NaN lands on each side of the 63/64/65 chunk edges in turn.
  for (std::size_t bad = 60; bad <= 66; ++bad) {
    ExpectSpanMatchesPointwise(NanInExtendRunInput(bad));
  }
}

TEST(SimdKernelAdversarialTest, ExtendAcceptSumNotOkShortCircuits) {
  for (int pad = 0; pad < 8; ++pad) {
    for (double side : {1.0, -1.0}) {
      ExpectSpanMatchesPointwise(FullDistanceBudgetInput(pad, side));
    }
  }
}

TEST(OperbSpanTest, SpanPushMatchesPointwiseOnThresholdsAndProfiles) {
  ExpectSpanMatchesPointwise(ExactThresholdsInput());
  ExpectSpanMatchesPointwise(GeoLifeDenseInput());
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    ExpectSpanMatchesPointwise({std::string(datagen::DatasetName(kind)),
                                Generated(kind, 2000, 17)});
  }
}

}  // namespace
}  // namespace operb::core
