#include <cmath>

#include <gtest/gtest.h>

#include "core/operb.h"
#include "core/operb_a.h"
#include "core/patch.h"
#include "eval/metrics.h"
#include "eval/verifier.h"
#include "test_util.h"

namespace operb::core {
namespace {

using testutil::Generated;
using testutil::MakeTrajectory;
using testutil::RandomWalk;

traj::RepresentedSegment Seg(geo::Vec2 a, geo::Vec2 b, std::size_t f,
                             std::size_t l) {
  traj::RepresentedSegment s;
  s.start = a;
  s.end = b;
  s.first_index = f;
  s.last_index = l;
  // Unit time steps: point i is stamped i seconds.
  s.t_start = static_cast<double>(f);
  s.t_end = static_cast<double>(l);
  return s;
}

/// A patcher whose emissions collect into `*out`.
LazyPatcher CollectingPatcher(const OperbAOptions& options,
                              std::vector<traj::RepresentedSegment>* out) {
  LazyPatcher patcher(options);
  patcher.SetSink(
      [out](const traj::RepresentedSegment& s) { out->push_back(s); });
  return patcher;
}

// ---------------------------------------------------------------------------
// ComputePatchPoint: the three conditions of Section 5.1.
// ---------------------------------------------------------------------------

TEST(PatchPointTest, RightAngleCrossroadPatches) {
  // Horizontal segment then vertical segment, as at a crossroad; the
  // patch point is the corner where the two lines meet.
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const auto next = Seg({110, 10}, {110, 100}, 12, 20);
  OperbAOptions opts = OperbAOptions::Optimized(40.0);
  const auto g = ComputePatchPoint(prev, next, opts);
  ASSERT_TRUE(g.has_value());
  EXPECT_NEAR(g->x, 110.0, 1e-9);
  EXPECT_NEAR(g->y, 0.0, 1e-9);
}

TEST(PatchPointTest, UTurnRejectedByGammaM) {
  // Turn of ~170 degrees: |included angle| > pi - gamma_m for
  // gamma_m = pi/3, so condition (3) rejects.
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const auto next = Seg({105, 5}, {5, 22}, 12, 20);
  OperbAOptions opts = OperbAOptions::Optimized(40.0);
  EXPECT_FALSE(ComputePatchPoint(prev, next, opts).has_value());
  // With gamma_m = 0 any non-parallel turn is admissible.
  opts.gamma_m = 0.0;
  EXPECT_TRUE(ComputePatchPoint(prev, next, opts).has_value());
}

TEST(PatchPointTest, GammaMBoundaryIsSharp) {
  // A turn of exactly 120 degrees with gamma_m = pi/3 sits on the
  // boundary |delta| <= pi - gamma_m = 120deg: admissible. Slightly more
  // is not.
  OperbAOptions opts = OperbAOptions::Optimized(10.0);
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const double just_ok = geo::DegToRad(119.5);
  const double too_much = geo::DegToRad(121.0);
  for (double angle : {just_ok, too_much}) {
    const geo::Vec2 dir = geo::Vec2::FromAngle(angle);
    const geo::Vec2 s0 = geo::Vec2{104.0, 3.0};
    const auto next = Seg(s0, s0 + dir * 80.0, 12, 20);
    const auto g = ComputePatchPoint(prev, next, opts);
    EXPECT_EQ(g.has_value(), angle <= geo::DegToRad(120.0)) << angle;
  }
}

TEST(PatchPointTest, RetractionBeyondHalfZetaRejected) {
  // The intersection lies 30 m *behind* prev's end; with zeta = 40 the
  // allowance is 20 m, so condition (2) rejects; with zeta = 80 it passes.
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const auto next = Seg({70, 10}, {70, 100}, 12, 20);
  EXPECT_FALSE(
      ComputePatchPoint(prev, next, OperbAOptions::Optimized(40.0)));
  EXPECT_TRUE(
      ComputePatchPoint(prev, next, OperbAOptions::Optimized(80.0)));
}

TEST(PatchPointTest, IntersectionAheadOfNextStartRejected) {
  // The lines intersect beyond next's start (t > 0): G would reverse
  // next's direction, violating condition (1).
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const auto next = Seg({110, -10}, {110, -100}, 12, 20);
  // Intersection at (110, 0) is *behind* next.start along next's
  // direction? next goes downward from (110,-10); (110,0) has t < 0 ...
  // choose a configuration where G is ahead instead:
  const auto next_ahead = Seg({110, 10}, {110, -100}, 12, 20);
  // G = (110, 0) lies after next_ahead.start (110, 10) along its downward
  // direction (t > 0): rejected.
  EXPECT_FALSE(ComputePatchPoint(prev, next_ahead,
                                 OperbAOptions::Optimized(40.0)));
  (void)next;
}

TEST(PatchPointTest, ParallelLinesRejected) {
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const auto next = Seg({110, 5}, {210, 5}, 12, 20);
  EXPECT_FALSE(
      ComputePatchPoint(prev, next, OperbAOptions::Optimized(40.0)));
}

TEST(PatchPointTest, DegenerateSegmentsRejected) {
  const auto prev = Seg({0, 0}, {0, 0}, 0, 10);
  const auto next = Seg({10, 10}, {10, 100}, 12, 20);
  EXPECT_FALSE(
      ComputePatchPoint(prev, next, OperbAOptions::Optimized(40.0)));
}

TEST(PatchPointTest, MaxExtensionGuardRejectsFarPatches) {
  // A 10-degree turn puts the intersection far ahead of prev's end.
  const auto prev = Seg({0, 0}, {100, 0}, 0, 10);
  const geo::Vec2 dir = geo::Vec2::FromAngle(geo::DegToRad(10.0));
  const geo::Vec2 s0{150.0, 2.0};
  const auto next = Seg(s0, s0 + dir * 100.0, 12, 20);
  OperbAOptions opts = OperbAOptions::Optimized(10.0);
  const auto unguarded = ComputePatchPoint(prev, next, opts);
  ASSERT_TRUE(unguarded.has_value());
  EXPECT_GT(unguarded->x, 120.0);
  opts.max_patch_extension_zeta = 1.0;  // allow at most 10 m of extension
  EXPECT_FALSE(ComputePatchPoint(prev, next, opts).has_value());
}

// ---------------------------------------------------------------------------
// LazyPatcher policy.
// ---------------------------------------------------------------------------

TEST(LazyPatcherTest, PassesThroughNonAnomalousSegments) {
  std::vector<traj::RepresentedSegment> emitted;
  LazyPatcher patcher =
      CollectingPatcher(OperbAOptions::Optimized(40.0), &emitted);
  patcher.Accept(Seg({0, 0}, {50, 0}, 0, 5));
  EXPECT_TRUE(emitted.empty());  // buffered as candidate X
  patcher.Accept(Seg({50, 0}, {100, 0}, 5, 10));
  EXPECT_EQ(emitted.size(), 1u);
  patcher.Finish();
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_EQ(patcher.anomalous_segments(), 0u);
  EXPECT_EQ(patcher.patches_applied(), 0u);
}

TEST(LazyPatcherTest, PatchesCrossroadAnomaly) {
  // X covers 0..10 along +x; anomalous Y jumps to the start of the
  // vertical street; S covers the vertical street.
  std::vector<traj::RepresentedSegment> emitted;
  LazyPatcher patcher =
      CollectingPatcher(OperbAOptions::Optimized(40.0), &emitted);
  patcher.Accept(Seg({0, 0}, {100, 0}, 0, 10));
  patcher.Accept(Seg({100, 0}, {110, 10}, 10, 11));  // anomalous (2 pts)
  patcher.Accept(Seg({110, 10}, {110, 100}, 11, 20));
  patcher.Finish();
  ASSERT_EQ(patcher.anomalous_segments(), 1u);
  ASSERT_EQ(patcher.patches_applied(), 1u);
  const auto& out = emitted;
  ASSERT_EQ(out.size(), 2u);
  // X extended to G = (110, 0) on its own line.
  EXPECT_NEAR(out[0].end.x, 110.0, 1e-9);
  EXPECT_NEAR(out[0].end.y, 0.0, 1e-9);
  EXPECT_TRUE(out[0].end_is_patch);
  EXPECT_EQ(out[0].last_index, 10u);
  // Successor starts from G; its index range is untouched.
  EXPECT_TRUE(out[1].start_is_patch);
  EXPECT_EQ(out[1].first_index, 11u);
  EXPECT_NEAR(out[1].start.x, 110.0, 1e-9);
  // A patch moves endpoints, never indices, so the times ride along.
  EXPECT_EQ(out[0].t_start, 0.0);
  EXPECT_EQ(out[0].t_end, 10.0);
  EXPECT_EQ(out[1].t_start, 11.0);
  EXPECT_EQ(out[1].t_end, 20.0);
}

TEST(LazyPatcherTest, UnpatchableAnomalyEmittedInOrder) {
  std::vector<traj::RepresentedSegment> emitted;
  LazyPatcher patcher =
      CollectingPatcher(OperbAOptions::Optimized(40.0), &emitted);
  patcher.Accept(Seg({0, 0}, {100, 0}, 0, 10));
  // U-turn: angle condition rejects the patch.
  patcher.Accept(Seg({100, 0}, {105, 5}, 10, 11));
  patcher.Accept(Seg({105, 5}, {5, 20}, 11, 20));
  patcher.Finish();
  EXPECT_EQ(patcher.anomalous_segments(), 1u);
  EXPECT_EQ(patcher.patches_applied(), 0u);
  const auto& out = emitted;
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].last_index, 10u);
  EXPECT_EQ(out[1].first_index, 10u);
  EXPECT_EQ(out[1].last_index, 11u);
  EXPECT_EQ(out[2].first_index, 11u);
}

TEST(LazyPatcherTest, TrailingAnomalyFlushedOnFinish) {
  std::vector<traj::RepresentedSegment> emitted;
  LazyPatcher patcher =
      CollectingPatcher(OperbAOptions::Optimized(40.0), &emitted);
  patcher.Accept(Seg({0, 0}, {100, 0}, 0, 10));
  patcher.Accept(Seg({100, 0}, {110, 10}, 10, 11));
  patcher.Finish();
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_EQ(patcher.anomalous_segments(), 1u);
  EXPECT_EQ(patcher.patches_applied(), 0u);
}

TEST(LazyPatcherTest, PatchingDisabledCountsButNeverPatches) {
  OperbAOptions opts = OperbAOptions::Optimized(40.0);
  opts.enable_patching = false;
  std::vector<traj::RepresentedSegment> emitted;
  LazyPatcher patcher = CollectingPatcher(opts, &emitted);
  patcher.Accept(Seg({0, 0}, {100, 0}, 0, 10));
  patcher.Accept(Seg({100, 0}, {110, 10}, 10, 11));
  patcher.Accept(Seg({110, 10}, {110, 100}, 11, 20));
  patcher.Finish();
  EXPECT_EQ(patcher.anomalous_segments(), 1u);
  EXPECT_EQ(patcher.patches_applied(), 0u);
  EXPECT_EQ(emitted.size(), 3u);
}

TEST(LazyPatcherTest, ChainedPatchesAcrossConsecutiveAnomalies) {
  // Staircase: every turn produces an anomalous connector; the patched
  // pending segment must remain eligible as the next predecessor.
  std::vector<traj::RepresentedSegment> emitted;
  LazyPatcher patcher =
      CollectingPatcher(OperbAOptions::Optimized(40.0), &emitted);
  patcher.Accept(Seg({0, 0}, {100, 0}, 0, 10));
  patcher.Accept(Seg({100, 0}, {110, 10}, 10, 11));    // anomalous
  patcher.Accept(Seg({110, 10}, {110, 100}, 11, 20));  // vertical street
  patcher.Accept(Seg({110, 100}, {120, 110}, 20, 21));  // anomalous
  patcher.Accept(Seg({120, 110}, {220, 110}, 21, 30));  // horizontal
  patcher.Finish();
  EXPECT_EQ(patcher.anomalous_segments(), 2u);
  EXPECT_EQ(patcher.patches_applied(), 2u);
  EXPECT_EQ(emitted.size(), 3u);
}

// ---------------------------------------------------------------------------
// Whole-algorithm behaviour.
// ---------------------------------------------------------------------------

TEST(OperbATest, EquivalentToOperbWhenNoAnomalies) {
  const auto t = testutil::StraightLine(100);
  const auto a = SimplifyOperbA(t, OperbAOptions::Optimized(10.0));
  const auto b = SimplifyOperb(t, OperbOptions::Optimized(10.0));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start, b[i].start);
    EXPECT_EQ(a[i].end, b[i].end);
  }
}

TEST(OperbATest, ReducesAnomalousSegmentsOnRoadData) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 6000, 17);
  const double zeta = 40.0;
  const auto plain = SimplifyOperb(t, OperbOptions::Optimized(zeta));
  OperbAStats stats;
  const auto patched =
      SimplifyOperbA(t, OperbAOptions::Optimized(zeta), &stats);
  EXPECT_GT(stats.anomalous_segments, 0u);
  EXPECT_GT(stats.patches_applied, 0u);
  EXPECT_LT(eval::CountAnomalousSegments(patched),
            eval::CountAnomalousSegments(plain));
  EXPECT_LE(patched.StoredPointCount(), plain.StoredPointCount());
}

TEST(OperbATest, CompressionNeverWorseThanOperb) {
  for (auto kind : datagen::AllDatasetKinds()) {
    const auto t = Generated(kind, 4000, 77);
    for (double zeta : {10.0, 40.0}) {
      const auto plain = SimplifyOperb(t, OperbOptions::Optimized(zeta));
      const auto patched = SimplifyOperbA(t, OperbAOptions::Optimized(zeta));
      EXPECT_LE(patched.StoredPointCount(), plain.StoredPointCount())
          << datagen::DatasetName(kind) << " zeta=" << zeta;
    }
  }
}

TEST(OperbATest, IntroducesNoExtraError) {
  // Exp-3's observation: OPERB-A has the same average error as OPERB —
  // patching moves segment endpoints along their own lines only.
  const auto t = Generated(datagen::DatasetKind::kTaxi, 4000, 13);
  const auto plain = SimplifyOperb(t, OperbOptions::Raw(40.0));
  const auto patched = SimplifyOperbA(t, OperbAOptions::Raw(40.0));
  const auto e_plain = eval::MeasureError(t, plain);
  const auto e_patched = eval::MeasureError(t, patched);
  EXPECT_NEAR(e_patched.average, e_plain.average, 0.3);
  EXPECT_LE(e_patched.max, 40.0 * (1.0 + 1e-9));
}

TEST(OperbATest, GammaMZeroPatchesMoreThanGammaMPi) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 6000, 29);
  OperbAOptions loose = OperbAOptions::Optimized(40.0);
  loose.gamma_m = 0.0;
  OperbAOptions tight = OperbAOptions::Optimized(40.0);
  tight.gamma_m = geo::kPi;
  OperbAStats s_loose, s_tight;
  SimplifyOperbA(t, loose, &s_loose);
  SimplifyOperbA(t, tight, &s_tight);
  EXPECT_GT(s_loose.patches_applied, s_tight.patches_applied);
  // gamma_m = pi admits only |delta| <= 0 turns: essentially no patches.
  EXPECT_EQ(s_tight.patches_applied, 0u);
}

TEST(OperbATest, StreamingMatchesBatch) {
  const auto t = Generated(datagen::DatasetKind::kSerCar, 3000, 41);
  const OperbAOptions opts = OperbAOptions::Optimized(30.0);
  const auto batch = SimplifyOperbA(t, opts);
  OperbAStream stream(opts);
  traj::PiecewiseRepresentation incremental;
  stream.SetSink(
      [&incremental](const traj::RepresentedSegment& s) {
        incremental.Append(s);
      });
  for (const geo::Point& p : t) stream.Push(p);
  stream.Finish();
  ASSERT_EQ(batch.size(), incremental.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].start, incremental[i].start);
    EXPECT_EQ(batch[i].end, incremental[i].end);
    EXPECT_EQ(batch[i].t_start, incremental[i].t_start);
    EXPECT_EQ(batch[i].t_end, incremental[i].t_end);
  }
}

struct AParam {
  datagen::DatasetKind kind;
  double zeta;
  std::uint64_t seed;
};

class OperbAPropertyTest : public ::testing::TestWithParam<AParam> {};

TEST_P(OperbAPropertyTest, ValidAndErrorBounded) {
  const AParam p = GetParam();
  const auto t = Generated(p.kind, 2500, p.seed);
  for (const OperbAOptions& opts : {OperbAOptions::Raw(p.zeta),
                                    OperbAOptions::Optimized(p.zeta)}) {
    const auto rep = SimplifyOperbA(t, opts);
    ASSERT_TRUE(rep.ValidateAgainst(t).ok());
    const auto verdict = eval::VerifyErrorBound(t, rep, p.zeta);
    EXPECT_TRUE(verdict.bounded) << verdict.ToString();
  }
}

std::string AParamName(const ::testing::TestParamInfo<AParam>& info) {
  std::string name(datagen::DatasetName(info.param.kind));
  name += "_z" + std::to_string(static_cast<int>(info.param.zeta));
  name += "_s" + std::to_string(info.param.seed);
  return name;
}

std::vector<AParam> MakeAParams() {
  std::vector<AParam> out;
  for (auto kind : datagen::AllDatasetKinds()) {
    for (double zeta : {10.0, 40.0, 100.0}) {
      out.push_back({kind, zeta, 8ULL});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OperbAPropertyTest,
                         ::testing::ValuesIn(MakeAParams()), AParamName);

TEST(OperbATest, AdversarialRandomWalkStaysBounded) {
  for (std::uint64_t seed = 200; seed < 206; ++seed) {
    const auto t = RandomWalk(1200, seed);
    for (double zeta : {5.0, 25.0}) {
      const auto rep = SimplifyOperbA(t, OperbAOptions::Optimized(zeta));
      ASSERT_TRUE(rep.ValidateAgainst(t).ok());
      EXPECT_TRUE(eval::VerifyErrorBound(t, rep, zeta).bounded)
          << "seed=" << seed << " zeta=" << zeta;
    }
  }
}

TEST(OperbATest, TinyInputs) {
  const OperbAOptions opts = OperbAOptions::Optimized(10.0);
  traj::Trajectory empty;
  EXPECT_TRUE(SimplifyOperbA(empty, opts).empty());
  const auto two = MakeTrajectory({{0, 0}, {5, 5}});
  const auto rep = SimplifyOperbA(two, opts);
  ASSERT_EQ(rep.size(), 1u);
  EXPECT_TRUE(rep.ValidateAgainst(two).ok());
}

}  // namespace
}  // namespace operb::core
