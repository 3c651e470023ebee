// Micro-benchmarks (google-benchmark) of the hot kernels: distance
// primitives, the fitting function, and per-point throughput of every
// simplifier. These back the complexity claims (O(1) fitting step, O(n)
// one-pass algorithms) with hardware numbers.

#include <benchmark/benchmark.h>

#include <span>

#include "baselines/simplifier.h"
#include "core/fitting.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "geo/distance.h"

namespace {

using namespace operb;  // NOLINT

traj::Trajectory BenchTrajectory(std::size_t n) {
  datagen::Rng rng(7);
  return datagen::GenerateTrajectory(
      datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar), n, &rng);
}

void BM_PointToLineDistance(benchmark::State& state) {
  const geo::Vec2 a{0, 0}, b{100, 37};
  double x = 0.0;
  for (auto _ : state) {
    x += geo::PointToLineDistance({x - 50.0, 20.0}, a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PointToLineDistance);

/// The pre-optimization AnchoredLine kernel: re-derive the unit vector
/// from theta with sin/cos on every call. Kept here (not in the library)
/// so the trig-free rewrite's win stays directly measurable.
double PointToAnchoredLineDistanceTrig(geo::Vec2 p,
                                       const geo::AnchoredLine& line) {
  const geo::Vec2 dir = geo::Vec2::FromAngle(line.theta);
  return std::fabs(dir.Cross(p - line.anchor));
}

void BM_AnchoredLineDistanceTrig(benchmark::State& state) {
  const geo::AnchoredLine line{{0, 0}, 100.0, 0.354};
  double x = 0.0;
  for (auto _ : state) {
    x += PointToAnchoredLineDistanceTrig({x - 50.0, 20.0}, line);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_AnchoredLineDistanceTrig);

/// The shipping kernel: cached unit direction, one cross product.
void BM_AnchoredLineDistanceDir(benchmark::State& state) {
  const geo::AnchoredLine line{{0, 0}, 100.0, 0.354};
  double x = 0.0;
  for (auto _ : state) {
    x += geo::PointToLineDistance({x - 50.0, 20.0}, line);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_AnchoredLineDistanceDir);

void BM_SynchronousEuclideanDistance(benchmark::State& state) {
  const geo::Point a{0, 0, 0}, b{100, 37, 60};
  double x = 0.0;
  for (auto _ : state) {
    x += geo::SynchronousEuclideanDistance({x - 50.0, 20.0, 30.0}, a, b);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SynchronousEuclideanDistance);

void BM_FittingActivate(benchmark::State& state) {
  const core::OperbOptions opts = core::OperbOptions::Optimized(10.0);
  datagen::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    core::FittingFunction f({0, 0}, opts);
    f.Activate({6.0, 0.0});
    state.ResumeTiming();
    // 64 activations per iteration.
    for (int i = 2; i < 66; ++i) {
      const double r = i * 5.0 + 1.0;
      const geo::Vec2 p =
          geo::Vec2::FromAngle(0.002 * i) * r;
      if (f.IsActive(r)) f.Activate(p);
    }
    benchmark::DoNotOptimize(f.theta());
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FittingActivate);

void BM_OperbStreamPush(benchmark::State& state) {
  const auto t = BenchTrajectory(20000);
  for (auto _ : state) {
    core::OperbStream stream(core::OperbOptions::Optimized(40.0));
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    benchmark::DoNotOptimize(stream.emitted().size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_OperbStreamPush);

/// Zero-allocation emission: segments go straight to a counting sink.
void BM_OperbStreamPushSink(benchmark::State& state) {
  const auto t = BenchTrajectory(20000);
  for (auto _ : state) {
    core::OperbStream stream(core::OperbOptions::Optimized(40.0));
    std::size_t segments = 0;
    stream.SetSink(
        [&segments](const traj::RepresentedSegment&) { ++segments; });
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    benchmark::DoNotOptimize(segments);
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_OperbStreamPushSink);

void BM_OperbAStreamPush(benchmark::State& state) {
  const auto t = BenchTrajectory(20000);
  for (auto _ : state) {
    core::OperbAStream stream(core::OperbAOptions::Optimized(40.0));
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    benchmark::DoNotOptimize(stream.stats().patches_applied);
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_OperbAStreamPush);

void BM_Simplifier(benchmark::State& state) {
  const auto algo = static_cast<baselines::Algorithm>(state.range(0));
  const auto t = BenchTrajectory(20000);
  const auto s = baselines::MakeSimplifier(algo, 40.0);
  state.SetLabel(std::string(s->name()));
  for (auto _ : state) {
    const auto rep = s->Simplify(t);
    benchmark::DoNotOptimize(rep.size());
  }
  state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_Simplifier)
    ->DenseRange(0, static_cast<int>(baselines::Algorithm::kOPERBA), 1);

}  // namespace

BENCHMARK_MAIN();
