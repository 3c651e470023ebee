// Golden equivalence suite for the hot-path optimizations.
//
// The fixtures under tests/golden/ were produced by the pre-optimization
// scalar implementation (trig per point, buffered emission, per-point
// Push). Every algorithm must keep emitting *bit-identical* segments,
// times included, through every execution path:
//   (a) the batch Simplify() entry point,
//   (b) the streaming sink path (SimplifyToSink),
//   (c) for the OPERB family: per-point Push + sink,
//   (d) for the OPERB family: batch Push(span) + sink.
// The fixtures hold no times; LoadGolden stamps each segment with its
// represented points' times, so every path's times are compared with
// the original points' and so with each other's.
// Regenerate the fixtures with tools/make_golden only for an intentional
// output change, and re-review the diff.

#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/simplifier.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "test_util.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb {
namespace {

using testutil::ExpectSegmentsEqual;
using testutil::GoldenTrajectory;
using testutil::kGoldenZeta;
using testutil::LoadGolden;

std::vector<traj::RepresentedSegment> ToVector(
    const traj::PiecewiseRepresentation& rep) {
  return rep.segments();
}

class EquivalenceTest
    : public testing::TestWithParam<
          std::tuple<baselines::Algorithm, datagen::DatasetKind>> {};

TEST_P(EquivalenceTest, AllPathsMatchGolden) {
  const auto [algo, kind] = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::string golden_path =
      std::string(OPERB_GOLDEN_DIR) + "/golden_" +
      std::string(baselines::AlgorithmName(algo)) + "_" +
      std::string(datagen::DatasetName(kind)) + ".csv";
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(golden_path, t);
  if (HasFailure()) return;

  const auto simplifier = baselines::MakeSimplifier(algo, kGoldenZeta);

  // (a) Batch entry point.
  ExpectSegmentsEqual(ToVector(simplifier->Simplify(t)), golden, "Simplify");

  // (b) Streaming sink path.
  std::vector<traj::RepresentedSegment> via_sink;
  simplifier->SimplifyToSink(
      t, [&via_sink](const traj::RepresentedSegment& s) {
        via_sink.push_back(s);
      });
  ExpectSegmentsEqual(via_sink, golden, "SimplifyToSink");
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllProfiles, EquivalenceTest,
    testing::Combine(testing::ValuesIn(baselines::AllAlgorithms()),
                     testing::ValuesIn(datagen::AllDatasetKinds())),
    [](const testing::TestParamInfo<EquivalenceTest::ParamType>& info) {
      std::string name =
          std::string(baselines::AlgorithmName(std::get<0>(info.param))) +
          "_" + std::string(datagen::DatasetName(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

/// The OPERB-family streams additionally expose point-wise Push and
/// batch Push(span): both must match the golden output exactly.
class OperbStreamPathsTest
    : public testing::TestWithParam<datagen::DatasetKind> {};

TEST_P(OperbStreamPathsTest, OperbPollingAndBatchPathsMatchGolden) {
  const datagen::DatasetKind kind = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(std::string(OPERB_GOLDEN_DIR) + "/golden_OPERB_" +
                     std::string(datagen::DatasetName(kind)) + ".csv",
                 t);
  if (HasFailure()) return;
  const core::OperbOptions opts = core::OperbOptions::Optimized(kGoldenZeta);

  // (c) Per-point Push + sink.
  core::OperbStream pointwise(opts);
  std::vector<traj::RepresentedSegment> collected;
  pointwise.SetSink([&collected](const traj::RepresentedSegment& s) {
    collected.push_back(s);
  });
  for (const geo::Point& p : t) pointwise.Push(p);
  pointwise.Finish();
  ExpectSegmentsEqual(collected, golden, "point-wise");

  // (d) Batch Push(span) + sink.
  core::OperbStream spans(opts);
  std::vector<traj::RepresentedSegment> via_sink;
  spans.SetSink([&via_sink](const traj::RepresentedSegment& s) {
    via_sink.push_back(s);
  });
  const std::span<const geo::Point> all(t.points());
  spans.Push(all.subspan(0, t.size() / 2));
  spans.Push(all.subspan(t.size() / 2));
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "span+sink");

  // (e) Pooled reuse: Reset() must restore the constructor-fresh state.
  spans.Reset();
  via_sink.clear();
  spans.Push(all);
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "reset+reuse");
}

TEST_P(OperbStreamPathsTest, OperbAPollingAndBatchPathsMatchGolden) {
  const datagen::DatasetKind kind = GetParam();
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(std::string(OPERB_GOLDEN_DIR) + "/golden_OPERB-A_" +
                     std::string(datagen::DatasetName(kind)) + ".csv",
                 t);
  if (HasFailure()) return;
  const core::OperbAOptions opts =
      core::OperbAOptions::Optimized(kGoldenZeta);

  core::OperbAStream pointwise(opts);
  std::vector<traj::RepresentedSegment> collected;
  pointwise.SetSink([&collected](const traj::RepresentedSegment& s) {
    collected.push_back(s);
  });
  for (const geo::Point& p : t) pointwise.Push(p);
  pointwise.Finish();
  ExpectSegmentsEqual(collected, golden, "point-wise");

  core::OperbAStream spans(opts);
  std::vector<traj::RepresentedSegment> via_sink;
  spans.SetSink([&via_sink](const traj::RepresentedSegment& s) {
    via_sink.push_back(s);
  });
  spans.Push(std::span<const geo::Point>(t.points()));
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "span+sink");

  // Pooled reuse: Reset() must restore the constructor-fresh state.
  spans.Reset();
  via_sink.clear();
  spans.Push(std::span<const geo::Point>(t.points()));
  spans.Finish();
  ExpectSegmentsEqual(via_sink, golden, "reset+reuse");
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, OperbStreamPathsTest,
    testing::ValuesIn(datagen::AllDatasetKinds()),
    [](const testing::TestParamInfo<datagen::DatasetKind>& info) {
      return std::string(datagen::DatasetName(info.param));
    });

}  // namespace
}  // namespace operb
