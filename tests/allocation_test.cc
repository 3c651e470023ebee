// Proves the sink path's zero-allocation claim: with a sink installed,
// steady-state Push performs no heap allocation per point, for OPERB and
// OPERB-A alike, alone and inside the streaming engine. Also checks that
// ParseCsv allocates nothing but its output, and that store queries
// allocate per query, not per block they read. The whole
// binary's global operator new/delete are replaced by counting
// forwarders; counting is switched on only around the measured Push
// loop, so test-framework allocations don't pollute the numbers.

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <new>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/streaming.h"
#include "core/operb.h"
#include "core/operb_a.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "geo/bbox.h"
#include "obs/metrics.h"
#include "store/reader.h"
#include "store/writer.h"
#include "test_util.h"
#include "traj/io.h"
#include "traj/multi_object.h"
#include "traj/trajectory.h"

namespace {

// Atomic because the engine case allocates on its worker thread too.
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

struct CountingScope {
  CountingScope() {
    g_allocations.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
  }
  ~CountingScope() { g_counting.store(false, std::memory_order_relaxed); }
  std::size_t count() const {
    return g_allocations.load(std::memory_order_relaxed);
  }
};

// Out of line: where operator new is not inlined (the TSan build turns
// its atomics into calls), GCC 12 would pair an inlined free() with the
// opaque new and fail -Wmismatched-new-delete.
[[gnu::noinline]] void FreeOutOfLine(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms too (std::stable_sort's scratch buffer uses them):
// where a sanitizer supplies its own, an unreplaced one would hand the
// replaced delete memory malloc never gave out.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { FreeOutOfLine(p); }
void operator delete[](void* p) noexcept { FreeOutOfLine(p); }
void operator delete(void* p, std::size_t) noexcept { FreeOutOfLine(p); }
void operator delete[](void* p, std::size_t) noexcept { FreeOutOfLine(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  FreeOutOfLine(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  FreeOutOfLine(p);
}

namespace operb {
namespace {

traj::Trajectory TestTrajectory(std::size_t n) {
  datagen::Rng rng(20170401);
  return datagen::GenerateTrajectory(
      datagen::DatasetProfile::For(datagen::DatasetKind::kSerCar), n, &rng);
}

TEST(AllocationTest, OperbSinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  // SetSink may allocate (std::function setup) — that's one-time, not
  // per-point, and happens before counting starts.
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);  // the stream actually compressed something
}

TEST(AllocationTest, OperbBatchPushSinkPathIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

/// A warm, pooled stream: after one full trajectory and Reset(), the
/// span Push of the next trajectory must stay allocation-free too.
TEST(AllocationTest, OperbWarmBatchPushIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream.Push(std::span<const geo::Point>(t.points()));
  stream.Finish();
  stream.Reset();
  segments = 0;

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

/// The engine's sink path: each point goes through the ring, the shard
/// table and the pooled state, and each segment to a TimedSegmentSink.
/// Once the shard has served one object, the next allocates nothing on
/// the producer or the worker, even when its open segment grows far
/// longer than any of the first object's: a state's segments carry their
/// own times, so nothing per object grows with the open tail. Object 1
/// is a short random walk (many short segments); object 2 reuses its
/// pooled state for a 20k-point straight line, one segment open to the
/// end.
TEST(AllocationTest, EngineTimedSinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory walk = testutil::RandomWalk(2000, 7);
  const traj::Trajectory line = testutil::StraightLine(20000);
  engine::StreamEngineOptions options;
  options.spec.zeta = 40.0;  // default algorithm: OPERB
  options.num_shards = 1;
  options.num_threads = 1;
  std::atomic<std::size_t> segments{0};
  engine::StreamEngine eng(options, [&segments](const traj::TimedSegment&) {
    segments.fetch_add(1, std::memory_order_relaxed);
  });
  // A tail snapshot waits until the worker has processed every update
  // handed off before it; of an object never pushed, it visits nothing.
  constexpr traj::ObjectId kNeverPushed = 99;
  const engine::TailSnapshotVisitor visit_nothing =
      [](traj::ObjectId, std::span<const traj::TimedSegment>) {};
  bool waits_ok = true;
  const auto feed_and_finish = [&](traj::ObjectId id,
                                   const traj::Trajectory& t) {
    for (const geo::Point& p : t) eng.Push(id, p);
    eng.FinishObject(id);
    eng.Flush();
    waits_ok = eng.SnapshotObjectTail(kNeverPushed, visit_nothing).ok() &&
               waits_ok;
  };
  feed_and_finish(1, walk);
  const std::size_t walk_segments = segments.exchange(0);

  std::size_t allocations = 0;
  {
    CountingScope scope;
    feed_and_finish(2, line);
    allocations = scope.count();
  }
  eng.Close();
  EXPECT_TRUE(waits_ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(walk_segments, 10u);
  EXPECT_GE(segments.load(), 1u);
  EXPECT_EQ(eng.stats().objects_finished, 2u);
}

/// The engine's sink path when every consumer batch holds many objects:
/// 1,000 objects fed round-robin put 256 distinct ids in each batch, so
/// each point goes through the batch prefetch, a probe of a table of
/// 1,000 live slots and a state of its own. Once one round has grown the
/// table and the pool, finishing every object and feeding the same ids
/// again allocates nothing.
TEST(AllocationTest, EngineInterleavedBatchesAreAllocationFree) {
  const traj::Trajectory t = TestTrajectory(200);
  constexpr traj::ObjectId kObjects = 1000;
  engine::StreamEngineOptions options;
  options.spec.zeta = 40.0;  // default algorithm: OPERB
  options.num_shards = 1;
  options.num_threads = 1;
  std::atomic<std::size_t> segments{0};
  engine::StreamEngine eng(options, [&segments](const traj::TimedSegment&) {
    segments.fetch_add(1, std::memory_order_relaxed);
  });
  constexpr traj::ObjectId kNeverPushed = kObjects;
  const engine::TailSnapshotVisitor visit_nothing =
      [](traj::ObjectId, std::span<const traj::TimedSegment>) {};
  bool waits_ok = true;
  const auto wait_for_worker = [&] {
    eng.Flush();
    waits_ok = eng.SnapshotObjectTail(kNeverPushed, visit_nothing).ok() &&
               waits_ok;
  };
  const auto feed = [&] {
    for (const geo::Point& p : t) {
      for (traj::ObjectId id = 0; id < kObjects; ++id) eng.Push(id, p);
    }
    wait_for_worker();
  };
  const auto finish_all = [&] {
    for (traj::ObjectId id = 0; id < kObjects; ++id) eng.FinishObject(id);
    wait_for_worker();
  };
  feed();
  finish_all();
  const std::size_t first_round = segments.exchange(0);

  std::size_t allocations = 0;
  {
    CountingScope scope;
    feed();
    allocations = scope.count();
  }
  finish_all();
  eng.Close();
  EXPECT_TRUE(waits_ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(segments.load(), first_round);
  EXPECT_GT(first_round, kObjects);
}

TEST(AllocationTest, OperbASinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbAStream stream(core::OperbAOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 10u);
}

/// Pooled reuse (the engine's state-recycling path): after a warm-up run,
/// Reset() + a second full pass must perform no heap allocation at all —
/// not even the constructor-time setup the first pass was allowed.
TEST(AllocationTest, OperbResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream.Push(std::span<const geo::Point>(t.points()));  // warm-up
  stream.Finish();

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Reset();
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 20u);
}

TEST(AllocationTest, OperbAResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbAStream stream(core::OperbAOptions::Optimized(40.0));
  std::size_t segments = 0;
  stream.SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream.Push(std::span<const geo::Point>(t.points()));  // warm-up
  stream.Finish();

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream.Reset();
    stream.Push(std::span<const geo::Point>(t.points()));
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(segments, 20u);
}

/// Same through the type-erased StreamingSimplifier the engine pools.
TEST(AllocationTest, StreamingSimplifierResetReuseIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  for (const baselines::Algorithm algo :
       {baselines::Algorithm::kOPERB, baselines::Algorithm::kOPERBA,
        baselines::Algorithm::kRawOPERB}) {
    SCOPED_TRACE(std::string(baselines::AlgorithmName(algo)));
    const auto stream = baselines::MakeStreamingSimplifier(algo, 40.0);
    std::size_t segments = 0;
    stream->SetSink(
        [&segments](const traj::RepresentedSegment&) { ++segments; });
    stream->Push(std::span<const geo::Point>(t.points()));  // warm-up
    stream->Finish();

    std::size_t allocations = 0;
    {
      CountingScope scope;
      stream->Reset();
      stream->Push(std::span<const geo::Point>(t.points()));
      stream->Finish();
      allocations = scope.count();
    }
    EXPECT_EQ(allocations, 0u);
    EXPECT_GT(segments, 20u);
  }
}

/// The buffered batch adapters cannot promise allocation-free Finish()
/// (their batch algorithms allocate internally), but reused Push() must
/// stop allocating once the point buffer's capacity is warm.
TEST(AllocationTest, BufferedStreamingReusePushIsAllocationFree) {
  const traj::Trajectory t = TestTrajectory(20000);
  const auto stream =
      baselines::MakeStreamingSimplifier(baselines::Algorithm::kFBQS, 40.0);
  std::size_t segments = 0;
  stream->SetSink(
      [&segments](const traj::RepresentedSegment&) { ++segments; });
  stream->Push(std::span<const geo::Point>(t.points()));  // warm-up
  stream->Finish();
  EXPECT_GT(segments, 20u);

  std::size_t allocations = 0;
  {
    CountingScope scope;
    stream->Reset();
    stream->Push(std::span<const geo::Point>(t.points()));
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  stream->Finish();
}

/// The obs record path's no-allocation contract (DESIGN.md §10): once a
/// call site holds its instrument pointers (acquired once, at startup),
/// counter adds, gauge moves, histogram records and scoped timers touch
/// only pre-sized atomics — zero heap traffic per point.
TEST(AllocationTest, MetricsRecordPathIsAllocationFree) {
  obs::MetricsRegistry registry;  // local: keeps the global dump clean
  obs::Counter* points = registry.GetCounter("test.points");
  obs::Gauge* level = registry.GetGauge("test.level");
  obs::MaxGauge* hwm = registry.GetMaxGauge("test.hwm");
  obs::LatencyHistogram* lat = registry.GetHistogram("test.lat_ns");

  std::size_t allocations = 0;
  {
    CountingScope scope;
    for (int i = 0; i < 20000; ++i) {
      points->Increment();
      level->Add(2);
      level->Sub(1);
      hwm->Observe(i);
      lat->Record(static_cast<std::uint64_t>(i));
      obs::ScopedTimer timer(lat);
    }
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(points->Value(), 20000u);
  EXPECT_EQ(lat->Count(), 2 * 20000u);
}

/// The instrumented sink path: the zero-allocation Push contract holds
/// with live metrics updates interleaved the way the engine batches
/// them (per ~64-point stride, against the process-global registry).
TEST(AllocationTest, InstrumentedSinkPathIsAllocationFreePerPoint) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  obs::Counter* segments_ctr =
      obs::MetricsRegistry::Global().GetCounter("test.sink.segments");
  obs::Counter* points_ctr =
      obs::MetricsRegistry::Global().GetCounter("test.sink.points");
  obs::MaxGauge* occupancy =
      obs::MetricsRegistry::Global().GetMaxGauge("test.sink.occupancy");
  stream.SetSink([segments_ctr](const traj::RepresentedSegment&) {
    segments_ctr->Increment();
  });

  std::size_t allocations = 0;
  {
    CountingScope scope;
    std::size_t since_batch = 0;
    for (const geo::Point& p : t) {
      stream.Push(p);
      if (++since_batch == 64) {  // the engine's amortization stride
        points_ctr->Add(since_batch);
        occupancy->Observe(static_cast<std::int64_t>(since_batch));
        since_batch = 0;
      }
    }
    points_ctr->Add(since_batch);
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(points_ctr->Value(), t.size());
  EXPECT_GT(segments_ctr->Value(), 10u);
}

/// ParseCsv reserves its output from the line count and parses each row in
/// place, so a whole file costs one heap allocation: the output itself.
TEST(AllocationTest, ParseCsvAllocatesOnlyItsOutput) {
  const traj::Trajectory t = TestTrajectory(10000);
  const std::string content = traj::WriteCsvString(t);
  std::size_t allocations = 0;
  std::size_t rows = 0;
  {
    CountingScope scope;
    const Result<traj::Trajectory> parsed = traj::ParseCsv(content);
    allocations = scope.count();
    rows = parsed.ok() ? parsed->size() : 0;
  }
  EXPECT_EQ(allocations, 1u);
  EXPECT_EQ(rows, t.size());
}

/// Store queries read every admitted block into one payload buffer per
/// query and decode it straight into the query's filter, so what a
/// query allocates follows its answer, not the number of blocks it
/// reads. The store holds a 32 x 32 grid of objects 1 km apart. Each
/// object lives alone in its own 100 s time slot, and both its id and
/// its slot are shuffled against its place, so a block (a few
/// neighbouring objects) spans a wide id range and a long time.
TEST(AllocationTest, StoreQueriesAllocatePerQueryNotPerBlock) {
  constexpr std::size_t kSide = 32;
  constexpr std::size_t kObjects = kSide * kSide;
  constexpr std::size_t kSegments = 8;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto slot_of = [](std::size_t cell) { return (cell * 577) % kObjects; };
  const auto id_of = [](std::size_t cell) { return (cell * 389) % kObjects; };
  const std::string path =
      testing::TempDir() + "/allocation_store_queries.store";
  std::filesystem::remove_all(path);
  {
    store::StoreWriterOptions options;
    options.zeta = 1.0;
    options.num_shards = 1;
    options.block_budget_bytes = 1024;
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::size_t cell = 0; cell < kObjects; ++cell) {
      const double x0 = 1000.0 * static_cast<double>(cell % kSide);
      const double y0 = 1000.0 * static_cast<double>(cell / kSide);
      const double t0 = 100.0 * static_cast<double>(slot_of(cell));
      for (std::size_t j = 0; j < kSegments; ++j) {
        traj::TimedSegment s;
        s.object_id = id_of(cell);
        s.segment.first_index = 3 * j;
        s.segment.last_index = 3 * j + 3;
        s.segment.start = {x0 + 10.0 * j, y0 + 0.5 * j};
        s.segment.end = {x0 + 10.0 * (j + 1), y0 + 0.5 * (j + 1)};
        s.t_start = t0 + 10.0 * j;
        s.t_end = t0 + 10.0 * (j + 1);
        ASSERT_TRUE(writer.value()->Append(s).ok());
      }
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  auto opened = store::StoreReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const store::StoreReader& reader = *opened.value();

  // The target object sits mid-grid; t lies inside its fourth segment
  // and inside no other object's life.
  const std::size_t cell = kSide * (kSide / 2) + kSide / 2;
  const double x = 1000.0 * static_cast<double>(cell % kSide) + 35.0;
  const double y = 1000.0 * static_cast<double>(cell / kSide) + 1.75;
  const double t = 100.0 * static_cast<double>(slot_of(cell)) + 35.0;
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::Vec2{-1e6, -1e6});
  everywhere.Extend(geo::Vec2{1e6, 1e6});
  geo::BoundingBox nearby;
  nearby.Extend(geo::Vec2{x - 1.0, y - 1.0});
  nearby.Extend(geo::Vec2{x + 1.0, y + 1.0});

  struct Measured {
    std::size_t allocations = 0;
    std::size_t segments = 0;
    std::uint64_t blocks_scanned = 0;
  };
  const auto measure = [](auto query) {
    Measured m;
    store::StoreQueryStats stats;
    query(&stats);  // warm: first-use statics, registry instruments
    {
      CountingScope scope;
      const auto answer = query(&stats);
      m.allocations = scope.count();
      m.segments = answer.ok() ? answer->size() : 0;
    }
    m.blocks_scanned = stats.blocks_scanned;
    return m;
  };
  const Measured wide = measure([&](store::StoreQueryStats* stats) {
    return reader.QueryWindow(everywhere, t, t, stats);
  });
  const Measured narrow = measure([&](store::StoreQueryStats* stats) {
    return reader.QueryWindow(nearby, t, t, stats);
  });
  ASSERT_GE(wide.blocks_scanned, 32u);
  ASSERT_LE(narrow.blocks_scanned, 2u);
  ASSERT_EQ(wide.segments, 1u);
  ASSERT_EQ(narrow.segments, 1u);
  EXPECT_EQ(wide.allocations, narrow.allocations)
      << wide.blocks_scanned << " blocks against " << narrow.blocks_scanned;

  // Lookups: a middle id falls inside almost every block's id range,
  // the smallest id inside only its own block's.
  const Measured middle = measure([&](store::StoreQueryStats* stats) {
    return reader.ReconstructObject(kObjects / 2, -kInf, kInf, stats);
  });
  const Measured first = measure([&](store::StoreQueryStats* stats) {
    return reader.ReconstructObject(0, -kInf, kInf, stats);
  });
  ASSERT_GE(middle.blocks_scanned, 32u);
  ASSERT_LE(first.blocks_scanned, 2u);
  ASSERT_EQ(middle.segments, kSegments);
  ASSERT_EQ(first.segments, kSegments);
  EXPECT_EQ(middle.allocations, first.allocations)
      << middle.blocks_scanned << " blocks against " << first.blocks_scanned;
  std::filesystem::remove_all(path);
}

/// Contrast check: a sink that buffers into a growing vector must
/// allocate, confirming the counter actually observes allocations made
/// on the stream's emission path.
TEST(AllocationTest, BufferedPathAllocatesAndCounterSeesIt) {
  const traj::Trajectory t = TestTrajectory(20000);
  core::OperbStream stream(core::OperbOptions::Optimized(40.0));
  std::vector<traj::RepresentedSegment> buffered;
  stream.SetSink([&buffered](const traj::RepresentedSegment& s) {
    buffered.push_back(s);
  });
  std::size_t allocations = 0;
  {
    CountingScope scope;
    for (const geo::Point& p : t) stream.Push(p);
    stream.Finish();
    allocations = scope.count();
  }
  EXPECT_GT(allocations, 0u);
  EXPECT_GT(buffered.size(), 10u);
}

}  // namespace
}  // namespace operb
