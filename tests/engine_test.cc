// StreamEngine determinism and lifecycle suite.
//
// The engine's core contract: per-object output is bit-identical to the
// single-stream sink path, regardless of shard count, thread count,
// interleaving or scheduling. The determinism tests shuffle-interleave
// the 4 golden dataset profiles (as 4 concurrent objects) and require
// every object's emitted segments to match the committed tests/golden/
// fixtures for all 10 algorithms across several shard/thread
// configurations.

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "api/registry.h"
#include "api/spec.h"
#include "baselines/simplifier.h"
#include "baselines/streaming.h"
#include "common/serial.h"
#include "core/operb.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "engine/spsc_ring.h"
#include "engine/stream_engine.h"
#include "geo/bbox.h"
#include "store/env.h"
#include "test_util.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb {
namespace {

using testutil::ExpectSegmentsEqual;
using testutil::GoldenTrajectory;
using testutil::kGoldenZeta;
using testutil::LoadGolden;

/// Interleaves the objects' points in a seeded pseudo-random order that
/// preserves each object's internal point order (the only ordering the
/// engine requires from its producer).
std::vector<traj::ObjectUpdate> ShuffleInterleave(
    const std::vector<traj::ObjectTrajectory>& objects, std::uint64_t seed) {
  std::vector<std::size_t> next(objects.size(), 0);
  std::size_t remaining = 0;
  for (const traj::ObjectTrajectory& o : objects) {
    remaining += o.trajectory.size();
  }
  std::vector<traj::ObjectUpdate> out;
  out.reserve(remaining);
  datagen::Rng rng(seed);
  while (remaining > 0) {
    const std::size_t pick =
        static_cast<std::size_t>(rng.NextBelow(objects.size()));
    if (next[pick] >= objects[pick].trajectory.size()) continue;
    out.push_back({objects[pick].object_id,
                   objects[pick].trajectory[next[pick]]});
    ++next[pick];
    --remaining;
  }
  return out;
}

/// Thread-safe per-object collector for engine output, without times.
class Collector {
 public:
  engine::TimedSegmentSink Sink() {
    return [this](const traj::TimedSegment& s) {
      const std::lock_guard<std::mutex> lock(mu_);
      by_object_[s.object_id].push_back(s.segment);
    };
  }

  const std::vector<traj::RepresentedSegment>& ForObject(
      traj::ObjectId id) const {
    static const std::vector<traj::RepresentedSegment> kEmpty;
    const auto it = by_object_.find(id);
    return it == by_object_.end() ? kEmpty : it->second;
  }

  /// Locked copy — for reading while worker threads are still alive
  /// (e.g. right after a Checkpoint() drain barrier, before Close()).
  std::vector<traj::RepresentedSegment> Snapshot(traj::ObjectId id) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_object_.find(id);
    return it == by_object_.end() ? std::vector<traj::RepresentedSegment>{}
                                  : it->second;
  }

  std::size_t objects() const { return by_object_.size(); }

 private:
  std::mutex mu_;
  std::map<traj::ObjectId, std::vector<traj::RepresentedSegment>> by_object_;
};

/// Reference output: the single-stream sink path for one trajectory.
std::vector<traj::RepresentedSegment> SingleStream(
    baselines::Algorithm algo, const traj::Trajectory& t, double zeta) {
  std::vector<traj::RepresentedSegment> out;
  baselines::MakeSimplifier(algo, zeta)->SimplifyToSink(
      t, [&out](const traj::RepresentedSegment& s) { out.push_back(s); });
  return out;
}

struct EngineConfig {
  std::size_t shards;
  std::size_t threads;
  std::size_t ring_capacity;
  std::size_t producer_batch;
};

// 1/2/8 shards; the last config uses a deliberately tiny ring and batch
// so the backpressure and hand-off paths run under the golden check too.
const EngineConfig kConfigs[] = {
    {1, 1, 8192, 64},
    {2, 2, 8192, 64},
    {8, 3, 64, 16},
};

class EngineGoldenTest
    : public testing::TestWithParam<std::tuple<baselines::Algorithm, int>> {};

TEST_P(EngineGoldenTest, ShuffledInterleaveMatchesGoldenPerObject) {
  const auto [algo, config_index] = GetParam();
  const EngineConfig& config = kConfigs[config_index];

  const std::vector<datagen::DatasetKind> kinds = datagen::AllDatasetKinds();
  std::vector<traj::ObjectTrajectory> objects;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    // Ids far apart so the shard mix actually spreads them.
    objects.push_back({i * 7919 + 3, GoldenTrajectory(kinds[i])});
  }
  const std::vector<traj::ObjectUpdate> updates =
      ShuffleInterleave(objects, /*seed=*/42 + config_index);

  engine::StreamEngineOptions opts;
  // The engine is configured through the declarative spec — resolved via
  // api::AlgorithmRegistry — and must stay bit-identical to the enum-era
  // engine goldens (the spec is the exact equivalent of the old
  // (Algorithm, zeta, fidelity) triple).
  opts.spec = api::SpecFor(algo, kGoldenZeta);
  opts.num_shards = config.shards;
  opts.num_threads = config.threads;
  opts.ring_capacity = config.ring_capacity;
  opts.producer_batch = config.producer_batch;

  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  eng.Push(std::span<const traj::ObjectUpdate>(updates));
  eng.Close();

  ASSERT_EQ(collector.objects(), objects.size());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    const std::string golden_path =
        std::string(OPERB_GOLDEN_DIR) + "/golden_" +
        std::string(baselines::AlgorithmName(algo)) + "_" +
        std::string(datagen::DatasetName(kinds[i])) + ".csv";
    const std::vector<traj::RepresentedSegment> golden =
        LoadGolden(golden_path, objects[i].trajectory);
    if (HasFailure()) return;
    ExpectSegmentsEqual(collector.ForObject(objects[i].object_id), golden,
                        std::string(datagen::DatasetName(kinds[i])) +
                            " shards=" + std::to_string(config.shards) +
                            " threads=" + std::to_string(config.threads));
  }

  const engine::StreamEngineStats& stats = eng.stats();
  EXPECT_EQ(stats.points, updates.size());
  EXPECT_EQ(stats.objects_opened, objects.size());
  EXPECT_EQ(stats.objects_finished, objects.size());  // Close() flushes
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllConfigs, EngineGoldenTest,
    testing::Combine(testing::ValuesIn(baselines::AllAlgorithms()),
                     testing::Values(0, 1, 2)),
    [](const testing::TestParamInfo<EngineGoldenTest::ParamType>& info) {
      const EngineConfig& c = kConfigs[std::get<1>(info.param)];
      std::string name =
          std::string(baselines::AlgorithmName(std::get<0>(info.param))) +
          "_shards" + std::to_string(c.shards) + "_threads" +
          std::to_string(c.threads);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(EngineTest, ExplicitFinishFlushesOneObjectAndAllowsReuse) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 400, 7);
  const traj::Trajectory t2 =
      testutil::Generated(datagen::DatasetKind::kTaxi, 300, 8);

  engine::StreamEngineOptions opts;
  opts.num_shards = 1;  // both uses of id 5 must share one pooled state
  opts.num_threads = 1;
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  for (const geo::Point& p : t) eng.Push(5, p);
  eng.FinishObject(5);
  // Same id again: a fresh trajectory must get a fresh (Reset) state.
  for (const geo::Point& p : t2) eng.Push(5, p);
  eng.Close();

  std::vector<traj::RepresentedSegment> want =
      SingleStream(baselines::Algorithm::kOPERB, t, opts.spec.zeta);
  const std::vector<traj::RepresentedSegment> second =
      SingleStream(baselines::Algorithm::kOPERB, t2, opts.spec.zeta);
  want.insert(want.end(), second.begin(), second.end());
  ExpectSegmentsEqual(collector.ForObject(5), want, "finish+reuse");

  const engine::StreamEngineStats& stats = eng.stats();
  EXPECT_EQ(stats.objects_opened, 2u);
  EXPECT_EQ(stats.objects_finished, 2u);
  EXPECT_EQ(stats.states_allocated, 1u);  // second run reused the pool
}

TEST(EngineTest, TickEvictsIdleObjectsAtTheWatermark) {
  const traj::Trajectory early =
      testutil::Generated(datagen::DatasetKind::kSerCar, 200, 11);
  // A second object whose points carry much later timestamps.
  traj::Trajectory late;
  for (const geo::Point& p : testutil::Generated(
           datagen::DatasetKind::kSerCar, 200, 12)) {
    late.AppendUnchecked({p.x, p.y, p.t + 1e6});
  }

  engine::StreamEngineOptions opts;
  opts.num_shards = 4;
  opts.num_threads = 2;
  opts.idle_timeout_seconds = 60.0;
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  for (const geo::Point& p : early) eng.Push(1, p);
  for (const geo::Point& p : late) eng.Push(2, p);
  // Watermark far past `early`'s last sample but within `late`'s window:
  // only object 1 is idle-flushed.
  eng.Tick(1e6 + late.Duration());
  eng.Close();

  ExpectSegmentsEqual(collector.ForObject(1),
                      SingleStream(baselines::Algorithm::kOPERB, early,
                                   opts.spec.zeta),
                      "early object");
  ExpectSegmentsEqual(collector.ForObject(2),
                      SingleStream(baselines::Algorithm::kOPERB, late,
                                   opts.spec.zeta),
                      "late object");
  const engine::StreamEngineStats& stats = eng.stats();
  EXPECT_EQ(stats.idle_evictions, 1u);
  EXPECT_EQ(stats.objects_finished, 2u);  // 1 idle + 1 at Close
}

TEST(EngineTest, TickWithoutTimeoutIsANoOp) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 100, 3);
  engine::StreamEngineOptions opts;  // idle_timeout_seconds = 0
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  for (const geo::Point& p : t) eng.Push(9, p);
  eng.Tick(1e12);
  eng.Close();
  EXPECT_EQ(eng.stats().idle_evictions, 0u);
  ExpectSegmentsEqual(
      collector.ForObject(9),
      SingleStream(baselines::Algorithm::kOPERB, t, opts.spec.zeta), "no-op tick");
}

TEST(EngineTest, TinyRingBackpressureKeepsOutputIdentical) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kGeoLife, 20000, 21);
  engine::StreamEngineOptions opts;
  opts.num_shards = 1;
  opts.num_threads = 1;
  opts.ring_capacity = 4;
  opts.producer_batch = 4;
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  for (const geo::Point& p : t) eng.Push(77, p);
  eng.Close();
  ExpectSegmentsEqual(
      collector.ForObject(77),
      SingleStream(baselines::Algorithm::kOPERB, t, opts.spec.zeta),
      "tiny ring");
  // With 20k points through a 4-slot ring the producer must have stalled.
  EXPECT_GT(eng.stats().ring_full_stalls, 0u);
}

TEST(EngineTest, PoolBoundsStatesByPeakLiveObjects) {
  // 300 sequential objects, each finished before the next starts: one
  // shard must end up with a pool of size 1 (not 300), and the churn of
  // 300 distinct ids through the 64-slot initial table exercises the
  // tombstone-driven same-size rehash several times over.
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 120, 5);
  engine::StreamEngineOptions opts;
  opts.num_shards = 1;
  opts.num_threads = 1;
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  for (traj::ObjectId id = 0; id < 300; ++id) {
    for (const geo::Point& p : t) eng.Push(id, p);
    eng.FinishObject(id);
  }
  eng.Close();
  const engine::StreamEngineStats& stats = eng.stats();
  EXPECT_EQ(stats.objects_opened, 300u);
  EXPECT_EQ(stats.objects_finished, 300u);
  EXPECT_EQ(stats.peak_live_objects, 1u);
  EXPECT_EQ(stats.states_allocated, 1u);
  EXPECT_EQ(collector.objects(), 300u);
}

TEST(EngineTest, ManyObjectsGrowTheTablePastItsInitialSize) {
  // > 64-slot initial table per shard: forces open-addressing growth and
  // tombstone rehash under churn.
  engine::StreamEngineOptions opts;
  opts.num_shards = 2;
  opts.num_threads = 2;
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kTaxi, 40, 9);
  constexpr traj::ObjectId kObjects = 500;
  for (const geo::Point& p : t) {
    for (traj::ObjectId id = 0; id < kObjects; ++id) eng.Push(id, p);
  }
  eng.Close();
  EXPECT_EQ(collector.objects(), kObjects);
  const std::vector<traj::RepresentedSegment> want =
      SingleStream(baselines::Algorithm::kOPERB, t, opts.spec.zeta);
  ExpectSegmentsEqual(collector.ForObject(0), want, "object 0");
  ExpectSegmentsEqual(collector.ForObject(kObjects - 1), want, "object N-1");
  EXPECT_EQ(eng.stats().peak_live_objects, kObjects);
}

TEST(EngineTest, EmptySinkOnlyCounts) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 500, 2);
  engine::StreamEngineOptions opts;
  engine::StreamEngine eng(opts, engine::TimedSegmentSink{});
  for (const geo::Point& p : t) eng.Push(1, p);
  eng.Close();
  EXPECT_GT(eng.stats().segments, 0u);
}

TEST(EngineTest, SpecStringConstructionMatchesSingleStream) {
  // A spec parsed from a one-line string is a first-class way to stand
  // up the engine; output must match the single-stream path of the same
  // spec bit-for-bit.
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 500, 13);
  engine::StreamEngineOptions opts;
  const Result<api::SimplifierSpec> spec =
      api::SimplifierSpec::Parse("operb-a:zeta=25,fidelity=paper");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  opts.spec = *spec;
  Collector collector;
  Result<std::unique_ptr<engine::StreamEngine>> eng =
      engine::StreamEngine::Create(opts, collector.Sink());
  ASSERT_TRUE(eng.ok()) << eng.status().ToString();
  for (const geo::Point& p : t) (*eng)->Push(3, p);
  (*eng)->Close();

  std::vector<traj::RepresentedSegment> want;
  baselines::MakeSimplifier(baselines::Algorithm::kOPERBA, 25.0,
                            baselines::OperbFidelity::kPaperFaithful)
      ->SimplifyToSink(t, [&want](const traj::RepresentedSegment& s) {
        want.push_back(s);
      });
  ExpectSegmentsEqual(collector.ForObject(3), want, "spec-string engine");
}

TEST(EngineTest, CreateRejectsInvalidOptionsWithStatus) {
  // The boundary factory returns Status for every user-reachable
  // misconfiguration — no CHECK abort.
  engine::StreamEngineOptions unknown;
  unknown.spec.algorithm = "NOPE";
  const auto r1 =
      engine::StreamEngine::Create(unknown, engine::TimedSegmentSink{});
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kNotFound);

  engine::StreamEngineOptions bad_zeta;
  bad_zeta.spec.zeta = -1.0;
  EXPECT_FALSE(
      engine::StreamEngine::Create(bad_zeta, engine::TimedSegmentSink{})
          .ok());

  engine::StreamEngineOptions no_shards;
  no_shards.num_shards = 0;
  EXPECT_FALSE(
      engine::StreamEngine::Create(no_shards, engine::TimedSegmentSink{})
          .ok());
}

TEST(SpscRingTest, PushPopRoundTripsAcrossWrapAround) {
  engine::SpscRing<int> ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  int out[8];
  int next_in = 0, next_out = 0;
  // Repeatedly fill and drain with co-prime batch sizes so the indices
  // wrap several times.
  for (int round = 0; round < 100; ++round) {
    int in[3];
    for (int& v : in) v = next_in++;
    std::size_t pushed = ring.TryPush(in, 3);
    next_in -= static_cast<int>(3 - pushed);  // unpushed items retry later
    const std::size_t got = ring.Pop(out, 5);
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], next_out++);
  }
  // Drain the tail.
  std::size_t got;
  while ((got = ring.Pop(out, 8)) > 0) {
    for (std::size_t i = 0; i < got; ++i) EXPECT_EQ(out[i], next_out++);
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(SpscRingTest, TryPushReportsPartialAcceptanceWhenFull) {
  engine::SpscRing<int> ring(4);
  const int in[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.TryPush(in, 6), 4u);   // ring holds 4
  EXPECT_EQ(ring.TryPush(in, 1), 0u);   // full
  int out[6];
  EXPECT_EQ(ring.Pop(out, 6), 4u);
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[3], 3);
}

// ---------------------------------------------------------------------
// Checkpoint / restore (ISSUE 7 tentpole; see DESIGN.md §9)
// ---------------------------------------------------------------------

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<std::uint8_t> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path,
                   const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites a checkpoint's trailing FNV-1a64 over its edited body, so a
/// test reaches the checks behind the checksum.
void Rechecksum(std::vector<std::uint8_t>* bytes) {
  const std::uint64_t sum = serial::Fnv1a64(
      std::span<const std::uint8_t>(bytes->data(), bytes->size() - 8));
  for (std::size_t i = 0; i < 8; ++i) {
    (*bytes)[bytes->size() - 8 + i] = static_cast<std::uint8_t>(sum >> (8 * i));
  }
}

/// An engine checkpoint (version 3) cut at its record boundaries
/// (DESIGN.md §9): the header up to the first shard section, then per
/// shard the object records (id, last event time, length-prefixed state
/// blob) and the trailing counters.
struct CheckpointParts {
  struct Section {
    std::vector<std::vector<std::uint8_t>> records;
    std::vector<std::uint8_t> counters;
  };
  std::vector<std::uint8_t> header;
  std::vector<Section> shards;
};

CheckpointParts SplitCheckpoint(const std::vector<std::uint8_t>& bytes,
                                std::size_t num_shards) {
  const std::span<const std::uint8_t> body(bytes.data(), bytes.size() - 8);
  const auto at = [&](std::size_t pos) {
    return body.begin() + static_cast<std::ptrdiff_t>(pos);
  };
  CheckpointParts parts;
  std::size_t pos = 9;  // magic, version
  std::uint32_t spec_len = 0;
  EXPECT_TRUE(serial::GetU32(body, &pos, &spec_len));
  pos += spec_len + 4 * 8;  // spec, shard count, three engine counters
  parts.header.assign(body.begin(), at(pos));
  for (std::size_t s = 0; s < num_shards; ++s) {
    CheckpointParts::Section& section = parts.shards.emplace_back();
    std::uint64_t count = 0;
    EXPECT_TRUE(serial::GetU64(body, &pos, &count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::size_t start = pos;
      pos += 16;  // id, last event time
      std::uint32_t blob_len = 0;
      EXPECT_TRUE(serial::GetU32(body, &pos, &blob_len));
      pos += blob_len;
      section.records.emplace_back(at(start), at(pos));
    }
    section.counters.assign(at(pos), at(pos + 32));
    pos += 32;
  }
  EXPECT_EQ(pos, body.size());
  return parts;
}

/// Inverse of SplitCheckpoint, with a valid checksum.
std::vector<std::uint8_t> JoinCheckpoint(const CheckpointParts& parts) {
  std::vector<std::uint8_t> out = parts.header;
  for (const CheckpointParts::Section& section : parts.shards) {
    serial::PutU64(section.records.size(), &out);
    for (const std::vector<std::uint8_t>& r : section.records) {
      out.insert(out.end(), r.begin(), r.end());
    }
    out.insert(out.end(), section.counters.begin(), section.counters.end());
  }
  out.resize(out.size() + 8);
  Rechecksum(&out);
  return out;
}

/// Global index of the update whose Push emits the first mid-stream
/// segment anywhere in the interleave — cutting just before it
/// checkpoints the richest possible pending state. Falls back to a
/// one-third cut for the batch adapters that only emit on Finish.
std::size_t FirstEmitCut(baselines::Algorithm algo,
                         const std::vector<traj::ObjectUpdate>& updates) {
  std::map<traj::ObjectId, std::unique_ptr<baselines::StreamingSimplifier>>
      sims;
  bool emitted = false;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    std::unique_ptr<baselines::StreamingSimplifier>& sim =
        sims[updates[i].object_id];
    if (sim == nullptr) {
      sim = baselines::MakeStreamingSimplifier(algo, kGoldenZeta);
      sim->SetSink(
          [&emitted](const traj::RepresentedSegment&) { emitted = true; });
    }
    sim->Push(updates[i].point);
    if (emitted) return i;
  }
  return updates.size() / 3;
}

class EngineCheckpointTest
    : public testing::TestWithParam<baselines::Algorithm> {};

TEST_P(EngineCheckpointTest, RestoreResumesBitIdenticallyAtEveryCut) {
  const baselines::Algorithm algo = GetParam();
  const std::vector<datagen::DatasetKind> kinds = datagen::AllDatasetKinds();
  std::vector<traj::ObjectTrajectory> objects;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    objects.push_back({i * 7919 + 3, GoldenTrajectory(kinds[i])});
  }
  const std::vector<traj::ObjectUpdate> updates =
      ShuffleInterleave(objects, /*seed=*/77);

  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(algo, kGoldenZeta);
  opts.num_shards = 2;
  opts.num_threads = 2;

  // Uninterrupted reference run (itself golden-anchored below).
  Collector uninterrupted;
  engine::StreamEngineStats full_stats;
  {
    engine::StreamEngine eng(opts, uninterrupted.Sink());
    eng.Push(std::span<const traj::ObjectUpdate>(updates));
    eng.Close();
    full_stats = eng.stats();
  }

  // Cut at the very start (empty state), mid-stream, and right before
  // the first emission-triggering update (maximal pending state).
  const std::size_t cuts[] = {0, updates.size() / 2,
                              FirstEmitCut(algo, updates)};
  for (const std::size_t cut : cuts) {
    SCOPED_TRACE("cut=" + std::to_string(cut));
    // Unique per test instance: the suite's cases run concurrently
    // under `ctest -j` and must not overwrite each other's snapshots.
    const std::string path =
        TempPath("engine_checkpoint_" +
                 std::string(baselines::AlgorithmName(algo)) + ".ckpt");

    Collector prefix;
    auto eng = engine::StreamEngine::Create(opts, prefix.Sink());
    ASSERT_TRUE(eng.ok()) << eng.status().ToString();
    eng.value()->Push(std::span<const traj::ObjectUpdate>(updates).first(cut));
    const Status written = eng.value()->Checkpoint(path);
    ASSERT_TRUE(written.ok()) << written.ToString();
    // Snapshot before Close(): Close flushes tails that the resumed
    // engine — not this one — must produce.
    std::map<traj::ObjectId, std::vector<traj::RepresentedSegment>> combined;
    for (const traj::ObjectTrajectory& o : objects) {
      combined[o.object_id] = prefix.Snapshot(o.object_id);
    }
    eng.value()->Close();

    // Worker/ring/batch knobs may differ freely across the restore —
    // only spec and shard count are identity (determinism contract).
    engine::StreamEngineOptions resume_opts = opts;
    resume_opts.num_threads = 1;
    resume_opts.ring_capacity = 64;
    resume_opts.producer_batch = 8;
    Collector tail;
    auto restored = engine::StreamEngine::CreateFromCheckpoint(
        path, resume_opts, tail.Sink());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    restored.value()->Push(
        std::span<const traj::ObjectUpdate>(updates).subspan(cut));
    restored.value()->Close();

    // Counters continue across the cut as if nothing happened: the
    // restored engine's totals equal the uninterrupted run's.
    EXPECT_EQ(restored.value()->stats().points, updates.size());
    EXPECT_EQ(restored.value()->stats().segments, full_stats.segments);
    EXPECT_EQ(restored.value()->stats().objects_finished,
              full_stats.objects_finished);

    for (std::size_t i = 0; i < objects.size(); ++i) {
      std::vector<traj::RepresentedSegment>& c =
          combined[objects[i].object_id];
      const std::vector<traj::RepresentedSegment> rest =
          tail.Snapshot(objects[i].object_id);
      c.insert(c.end(), rest.begin(), rest.end());
      // Bit-identical to the uninterrupted engine run…
      ExpectSegmentsEqual(
          c, uninterrupted.ForObject(objects[i].object_id),
          std::string(datagen::DatasetName(kinds[i])) + " across cut " +
              std::to_string(cut));
      // …and to the committed golden fixture.
      const std::string golden_path =
          std::string(OPERB_GOLDEN_DIR) + "/golden_" +
          std::string(baselines::AlgorithmName(algo)) + "_" +
          std::string(datagen::DatasetName(kinds[i])) + ".csv";
      ExpectSegmentsEqual(c, LoadGolden(golden_path, objects[i].trajectory),
                          std::string(datagen::DatasetName(kinds[i])) +
                              " golden across cut " + std::to_string(cut));
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, EngineCheckpointTest,
    testing::ValuesIn(baselines::AllAlgorithms()),
    [](const testing::TestParamInfo<baselines::Algorithm>& info) {
      std::string name = std::string(baselines::AlgorithmName(info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

TEST(EngineTest, CheckpointStatusContract) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 200, 5);
  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(baselines::Algorithm::kOPERB, kGoldenZeta);
  opts.num_shards = 4;

  const std::string path = TempPath("engine_ckpt_contract.ckpt");
  {
    engine::StreamEngine eng(opts, nullptr);
    for (std::size_t i = 0; i < t.size(); ++i) eng.Push(11, t[i]);
    for (std::size_t i = 0; i < t.size(); ++i) eng.Push(12, t[i]);
    ASSERT_TRUE(eng.Checkpoint(path).ok());
    eng.Close();
    // A closed engine has nothing consistent left to snapshot.
    EXPECT_EQ(eng.Checkpoint(path).code(), StatusCode::kInvalidArgument);
  }
  const std::vector<std::uint8_t> good = ReadAllBytes(path);
  ASSERT_GT(good.size(), 16u);

  const auto restore = [&](const std::vector<std::uint8_t>& bytes) {
    WriteAllBytes(path, bytes);
    return engine::StreamEngine::CreateFromCheckpoint(path, opts, nullptr)
        .status();
  };

  // A missing file is an I/O condition, not corruption.
  EXPECT_EQ(engine::StreamEngine::CreateFromCheckpoint(
                TempPath("no_such.ckpt"), opts, nullptr)
                .status()
                .code(),
            StatusCode::kIOError);

  // Foreign magic / flipped payload byte / truncation / trailing
  // garbage: all Corruption — the checksum and framing catch them.
  std::vector<std::uint8_t> bad = good;
  bad[0] ^= 0xFF;
  EXPECT_EQ(restore(bad).code(), StatusCode::kCorruption);
  bad = good;
  bad[good.size() / 2] ^= 0x01;
  EXPECT_EQ(restore(bad).code(), StatusCode::kCorruption);
  bad.assign(good.begin(), good.end() - 9);
  EXPECT_EQ(restore(bad).code(), StatusCode::kCorruption);
  bad = good;
  bad.insert(bad.end(), {1, 2, 3, 4});
  EXPECT_EQ(restore(bad).code(), StatusCode::kCorruption);
  for (std::size_t len = 0; len < 16u && len < good.size(); ++len) {
    bad.assign(good.begin(), good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(restore(bad).code(), StatusCode::kCorruption) << len;
  }

  // An unsupported *version* with an intact checksum: InvalidArgument —
  // the file is honest about being from a future writer, not damaged.
  bad = good;
  bad[8] += 1;
  Rechecksum(&bad);
  EXPECT_EQ(restore(bad).code(), StatusCode::kInvalidArgument);

  // Configuration mismatches: the checkpoint pins spec and shard count.
  WriteAllBytes(path, good);
  engine::StreamEngineOptions wrong_spec = opts;
  wrong_spec.spec = api::SpecFor(baselines::Algorithm::kDP, kGoldenZeta);
  EXPECT_EQ(engine::StreamEngine::CreateFromCheckpoint(path, wrong_spec,
                                                       nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  engine::StreamEngineOptions wrong_zeta = opts;
  wrong_zeta.spec = api::SpecFor(baselines::Algorithm::kOPERB, 2 * kGoldenZeta);
  EXPECT_EQ(engine::StreamEngine::CreateFromCheckpoint(path, wrong_zeta,
                                                       nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  engine::StreamEngineOptions wrong_shards = opts;
  wrong_shards.num_shards = 8;
  EXPECT_EQ(engine::StreamEngine::CreateFromCheckpoint(path, wrong_shards,
                                                       nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The intact file still restores after all that.
  auto ok = engine::StreamEngine::CreateFromCheckpoint(path, opts, nullptr);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ok.value()->Close();
  EXPECT_EQ(ok.value()->stats().points, 2 * t.size());
}

TEST(EngineTest, CheckpointWriteFaultsLeaveNoPartialCheckpoint) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kTaxi, 150, 9);
  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(baselines::Algorithm::kOPERB, kGoldenZeta);
  opts.num_shards = 2;
  engine::StreamEngine eng(opts, nullptr);
  for (std::size_t i = 0; i < t.size(); ++i) eng.Push(3, t[i]);

  // Counting pass: how many durable operations one checkpoint performs.
  const std::string path = TempPath("engine_ckpt_faults.ckpt");
  store::FaultInjectingEnv env;
  ASSERT_TRUE(eng.Checkpoint(path, &env).ok());
  const std::uint64_t ops = env.op_count();
  ASSERT_GE(ops, 4u);  // create, append, flush, rename at minimum
  std::filesystem::remove(path);

  // Every crash point, every fault kind: the failure surfaces as
  // IOError and `path` never holds a partial checkpoint — at most a
  // stale .tmp the next attempt truncates.
  using FaultKind = store::FaultInjectingEnv::FaultKind;
  for (const FaultKind kind : {FaultKind::kError, FaultKind::kShortWrite,
                               FaultKind::kTornWriteCrash}) {
    for (std::uint64_t k = 0; k < ops; ++k) {
      SCOPED_TRACE("fault kind " + std::to_string(static_cast<int>(kind)) +
                   " at op " + std::to_string(k));
      env.ArmFault(kind, k);
      EXPECT_EQ(eng.Checkpoint(path, &env).code(), StatusCode::kIOError);
      EXPECT_TRUE(env.fault_fired());
      EXPECT_FALSE(std::filesystem::exists(path));
    }
  }

  // A failed checkpoint is not fatal: the engine keeps streaming, the
  // next attempt succeeds, and the file restores.
  env.Disarm();
  for (std::size_t i = 0; i < t.size(); ++i) eng.Push(4, t[i]);
  ASSERT_TRUE(eng.Checkpoint(path, &env).ok());
  auto restored =
      engine::StreamEngine::CreateFromCheckpoint(path, opts, nullptr);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  restored.value()->Close();
  EXPECT_EQ(restored.value()->stats().points, 2 * t.size());
  eng.Close();
}

TEST(EngineTest, PeriodicCheckpointsDuringConcurrentIngest) {
  // The TSan target for the checkpoint path: a multi-threaded engine
  // ingesting while the producer periodically checkpoints — the drain
  // barrier must fully synchronize against every worker, and the
  // resumed tail must complete the prefix output bit-identically.
  const std::vector<datagen::DatasetKind> kinds = datagen::AllDatasetKinds();
  std::vector<traj::ObjectTrajectory> objects;
  for (std::size_t i = 0; i < kinds.size(); ++i) {
    objects.push_back({i * 131 + 1, GoldenTrajectory(kinds[i])});
  }
  const std::vector<traj::ObjectUpdate> updates =
      ShuffleInterleave(objects, /*seed=*/5);

  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(baselines::Algorithm::kOPERBA, kGoldenZeta);
  opts.num_shards = 8;
  opts.num_threads = 4;
  opts.ring_capacity = 256;

  const std::string path = TempPath("engine_ckpt_concurrent.ckpt");
  Collector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  const std::span<const traj::ObjectUpdate> all(updates);
  const std::size_t kChunk = 400;
  std::size_t checkpoints = 0;
  for (std::size_t offset = 0; offset < all.size(); offset += kChunk) {
    eng.Push(all.subspan(offset, std::min(kChunk, all.size() - offset)));
    const Status written = eng.Checkpoint(path);
    ASSERT_TRUE(written.ok()) << written.ToString();
    ++checkpoints;
  }
  ASSERT_GT(checkpoints, 2u);

  // Prefix output as of the last checkpoint (pre-Close flush).
  std::map<traj::ObjectId, std::vector<traj::RepresentedSegment>> combined;
  for (const traj::ObjectTrajectory& o : objects) {
    combined[o.object_id] = collector.Snapshot(o.object_id);
  }
  eng.Close();  // flushes tails; the full reference output

  // The resumed engine has nothing left to ingest — its Close() must
  // emit exactly the tails the original Close() emitted.
  Collector tails;
  auto restored =
      engine::StreamEngine::CreateFromCheckpoint(path, opts, tails.Sink());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  restored.value()->Close();
  EXPECT_EQ(restored.value()->stats().points, updates.size());

  for (std::size_t i = 0; i < objects.size(); ++i) {
    std::vector<traj::RepresentedSegment>& c = combined[objects[i].object_id];
    const std::vector<traj::RepresentedSegment> rest =
        tails.Snapshot(objects[i].object_id);
    c.insert(c.end(), rest.begin(), rest.end());
    ExpectSegmentsEqual(c, collector.ForObject(objects[i].object_id),
                        std::string(datagen::DatasetName(kinds[i])) +
                            " resumed tail");
  }
}

/// Timed-sink collector keyed by object (Collector above, with times).
class TimedCollector {
 public:
  engine::TimedSegmentSink Sink() {
    return [this](const traj::TimedSegment& s) {
      const std::lock_guard<std::mutex> lock(mu_);
      by_object_[s.object_id].push_back(s);
    };
  }

  std::vector<traj::TimedSegment> Snapshot(traj::ObjectId id) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_object_.find(id);
    return it == by_object_.end() ? std::vector<traj::TimedSegment>{}
                                  : it->second;
  }

 private:
  std::mutex mu_;
  std::map<traj::ObjectId, std::vector<traj::TimedSegment>> by_object_;
};

void ExpectTimedEqual(const std::vector<traj::TimedSegment>& got,
                      const std::vector<traj::TimedSegment>& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(label + " segment " + std::to_string(i));
    EXPECT_EQ(got[i].object_id, want[i].object_id);
    EXPECT_EQ(got[i].segment.first_index, want[i].segment.first_index);
    EXPECT_EQ(got[i].segment.last_index, want[i].segment.last_index);
    EXPECT_EQ(got[i].segment.start.x, want[i].segment.start.x);
    EXPECT_EQ(got[i].segment.start.y, want[i].segment.start.y);
    EXPECT_EQ(got[i].segment.end.x, want[i].segment.end.x);
    EXPECT_EQ(got[i].segment.end.y, want[i].segment.end.y);
    EXPECT_EQ(got[i].t_start, want[i].t_start);
    EXPECT_EQ(got[i].t_end, want[i].t_end);
  }
}

engine::StreamEngineOptions OperbAOptions(std::size_t shards) {
  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(baselines::Algorithm::kOPERBA, kGoldenZeta);
  opts.num_shards = shards;
  return opts;
}

TEST(EngineTailSnapshotTest, ObjectTailMatchesFinishBitExactly) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kTaxi, 300, 21);
  TimedCollector sink;
  engine::StreamEngine eng(OperbAOptions(4), sink.Sink());
  for (std::size_t i = 0; i < t.size(); ++i) eng.Push(42, t[i]);
  // A snapshot covers what has been handed to the rings, not staging.
  eng.Flush();

  std::vector<traj::TimedSegment> tail;
  std::size_t visits = 0;
  ASSERT_TRUE(eng.SnapshotObjectTail(
                     42,
                     [&](traj::ObjectId id,
                         std::span<const traj::TimedSegment> s) {
                       EXPECT_EQ(id, 42u);
                       tail.assign(s.begin(), s.end());
                       ++visits;
                     })
                  .ok());
  EXPECT_EQ(visits, 1u);

  // No points were pushed after the snapshot, so finishing the object
  // must emit exactly the visited tail — the snapshot is "what
  // FinishObject would emit right now", bit for bit.
  const std::vector<traj::TimedSegment> before = sink.Snapshot(42);
  eng.FinishObject(42);
  eng.Close();
  const std::vector<traj::TimedSegment> after = sink.Snapshot(42);
  ASSERT_GE(after.size(), before.size());
  const std::vector<traj::TimedSegment> finish_tail(
      after.begin() + static_cast<std::ptrdiff_t>(before.size()),
      after.end());
  ExpectTimedEqual(tail, finish_tail, "snapshot vs finish");
  EXPECT_FALSE(tail.empty());

  // An unknown object is visited zero times, successfully.
  engine::StreamEngine empty(OperbAOptions(2), nullptr);
  std::size_t ghost_visits = 0;
  EXPECT_TRUE(empty
                  .SnapshotObjectTail(
                      7, [&](traj::ObjectId,
                             std::span<const traj::TimedSegment>) {
                        ++ghost_visits;
                      })
                  .ok());
  EXPECT_EQ(ghost_visits, 0u);
  empty.Close();
}

// Window-snapshot arguments that rule nothing out and hook nothing: the
// snapshot then visits every live object.
bool AcceptAll(const engine::TailSummary&) { return true; }
void NoHook(std::size_t) {}

TEST(EngineTailSnapshotTest, ShardTailsVisitAscendingIdsAndMatchFinish) {
  // One shard so every object lands in the same shard's visit.
  TimedCollector sink;
  engine::StreamEngine eng(OperbAOptions(1), sink.Sink());
  const std::vector<traj::ObjectId> ids = {9, 2, 300, 41};
  for (const traj::ObjectId id : ids) {
    const traj::Trajectory t =
        testutil::Generated(datagen::DatasetKind::kSerCar, 120, id);
    for (std::size_t i = 0; i < t.size(); ++i) eng.Push(id, t[i]);
  }
  eng.Flush();

  std::vector<traj::ObjectId> visited;
  std::map<traj::ObjectId, std::vector<traj::TimedSegment>> tails;
  ASSERT_TRUE(eng.SnapshotWindowTails(
                     AcceptAll, NoHook,
                     [&](traj::ObjectId id,
                         std::span<const traj::TimedSegment> s) {
                       visited.push_back(id);
                       tails[id].assign(s.begin(), s.end());
                     })
                  .ok());
  ASSERT_EQ(visited.size(), ids.size());
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()))
      << "visitor order is not ascending object id";

  std::map<traj::ObjectId, std::vector<traj::TimedSegment>> before;
  for (const traj::ObjectId id : ids) before[id] = sink.Snapshot(id);
  eng.Close();  // finishes every live object
  for (const traj::ObjectId id : ids) {
    const std::vector<traj::TimedSegment> after = sink.Snapshot(id);
    const std::vector<traj::TimedSegment> finish_tail(
        after.begin() + static_cast<std::ptrdiff_t>(before[id].size()),
        after.end());
    ExpectTimedEqual(tails[id], finish_tail,
                     "object " + std::to_string(id));
  }
}

TEST(EngineTailSnapshotTest, SnapshotStatusContract) {
  const auto visitor = [](traj::ObjectId,
                          std::span<const traj::TimedSegment>) {};

  engine::StreamEngine eng(OperbAOptions(2), nullptr);
  EXPECT_EQ(eng.SnapshotWindowTails(AcceptAll, NoHook, nullptr).code(),
            StatusCode::kInvalidArgument);  // empty visitor
  EXPECT_EQ(eng.SnapshotObjectTail(0, nullptr).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(eng.SnapshotWindowTails(nullptr, NoHook, visitor).code(),
            StatusCode::kInvalidArgument);  // empty filter
  EXPECT_EQ(eng.SnapshotWindowTails(AcceptAll, nullptr, visitor).code(),
            StatusCode::kInvalidArgument);  // empty hook
  EXPECT_TRUE(eng.SnapshotWindowTails(AcceptAll, NoHook, visitor).ok());
  EXPECT_TRUE(eng.SnapshotObjectTail(0, visitor).ok());
  eng.Close();
  EXPECT_EQ(eng.SnapshotWindowTails(AcceptAll, NoHook, visitor).code(),
            StatusCode::kInvalidArgument);  // closed engine
  EXPECT_EQ(eng.SnapshotObjectTail(0, visitor).code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTailSnapshotTest, SnapshotsFromAnotherThreadSeeFlushedPoints) {
  // The producer pushes and flushes while a second thread snapshots. A
  // snapshot taken after the producer published "n points of this object
  // are flushed" must cover at least those n points, and what one reader
  // sees of an object never shrinks.
  engine::StreamEngineOptions opts = OperbAOptions(3);
  opts.num_threads = 2;
  constexpr std::size_t kObjects = 5;
  constexpr std::size_t kPoints = 400;
  // Points of each object covered by its emitted segments so far;
  // written by the sink and read by the visitor, both on the object's
  // worker.
  std::vector<std::atomic<std::uint64_t>> emitted_end(kObjects);
  engine::StreamEngine eng(opts, [&](const traj::TimedSegment& s) {
    emitted_end[s.object_id].store(s.segment.last_index + 1,
                                   std::memory_order_relaxed);
  });
  std::vector<traj::Trajectory> trajs;
  for (std::size_t o = 0; o < kObjects; ++o) {
    trajs.push_back(
        testutil::Generated(datagen::DatasetKind::kTaxi, kPoints, 300 + o));
  }
  std::vector<std::atomic<std::size_t>> flushed(kObjects);
  std::atomic<bool> producer_done{false};
  std::atomic<std::size_t> rounds{0};
  std::atomic<bool> failed{false};

  std::thread reader([&] {
    std::vector<std::uint64_t> last_seen(kObjects, 0);
    for (std::size_t round = 0;
         !producer_done.load(std::memory_order_acquire); ++round) {
      const traj::ObjectId id = round % kObjects;
      const std::size_t floor = flushed[id].load(std::memory_order_acquire);
      std::uint64_t seen = 0;
      const engine::TailSnapshotVisitor visitor =
          [&](traj::ObjectId oid, std::span<const traj::TimedSegment> tail) {
            if (oid != id) return;
            seen = emitted_end[oid].load(std::memory_order_relaxed);
            if (!tail.empty()) seen = tail.back().segment.last_index + 1;
          };
      const Status st =
          round % 2 == 0 ? eng.SnapshotObjectTail(id, visitor)
                         : eng.SnapshotWindowTails(AcceptAll, NoHook, visitor);
      if (!st.ok() || (floor >= 2 && seen < floor) || seen < last_seen[id]) {
        failed.store(true);
        return;
      }
      last_seen[id] = seen;
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
  });

  for (std::size_t i = 0; i < kPoints; ++i) {
    for (std::size_t o = 0; o < kObjects; ++o) eng.Push(o, trajs[o][i]);
    if (i % 7 == 6 || i + 1 == kPoints) {
      eng.Flush();
      for (auto& f : flushed) f.store(i + 1, std::memory_order_release);
      std::this_thread::yield();
    }
  }
  // Let the reader see the final state a few times before stopping it.
  while (rounds.load(std::memory_order_relaxed) < 3 * kObjects &&
         !failed.load()) {
    std::this_thread::yield();
  }
  producer_done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load()) << "a snapshot missed flushed points or "
                                 "went backwards";

  // Quiesced: every object's tail reaches its last point.
  for (traj::ObjectId id = 0; id < kObjects; ++id) {
    std::uint64_t end = 0;
    ASSERT_TRUE(eng.SnapshotObjectTail(
                       id,
                       [&](traj::ObjectId,
                           std::span<const traj::TimedSegment> tail) {
                         ASSERT_FALSE(tail.empty());
                         end = tail.back().segment.last_index + 1;
                       })
                    .ok());
    EXPECT_EQ(end, kPoints) << "object " << id;
  }
  eng.Close();
}

TEST(EngineTailSnapshotTest, WindowSnapshotSkipsOnlyCurrentRuledOutSummaries) {
  engine::StreamEngine eng(OperbAOptions(2), nullptr);
  const std::vector<traj::ObjectId> ids = {3, 8, 21};
  std::map<traj::ObjectId, traj::Trajectory> trajs;
  for (const traj::ObjectId id : ids) {
    trajs[id] = testutil::Generated(datagen::DatasetKind::kSerCar, 81, id);
    for (std::size_t i = 0; i + 1 < trajs[id].size(); ++i) {
      eng.Push(id, trajs[id][i]);
    }
  }
  eng.Flush();

  // One window snapshot; reports visited ids, filter calls, hook calls.
  struct Outcome {
    std::vector<traj::ObjectId> visited;
    std::vector<engine::TailSummary> summaries;
    std::size_t hooks = 0;
  };
  std::map<traj::ObjectId, std::vector<traj::TimedSegment>> tails;
  const auto window = [&](bool accept) {
    Outcome out;
    std::mutex mu;
    const Status st = eng.SnapshotWindowTails(
        [&](const engine::TailSummary& s) {
          const std::lock_guard<std::mutex> lock(mu);
          out.summaries.push_back(s);
          return accept;
        },
        [&](std::size_t) {
          const std::lock_guard<std::mutex> lock(mu);
          ++out.hooks;
        },
        [&](traj::ObjectId id, std::span<const traj::TimedSegment> tail) {
          const std::lock_guard<std::mutex> lock(mu);
          out.visited.push_back(id);
          tails[id].assign(tail.begin(), tail.end());
        });
    EXPECT_TRUE(st.ok()) << st.ToString();
    std::sort(out.visited.begin(), out.visited.end());
    return out;
  };

  // No summary yet: every live object is cloned whatever the filter says.
  Outcome first = window(false);
  EXPECT_EQ(first.visited, ids);
  EXPECT_TRUE(first.summaries.empty());
  EXPECT_EQ(first.hooks, 2u);

  // Nothing pushed since: each summary is current, so the filter decides
  // alone — and each summary is exactly the extent of the tail cloned.
  Outcome rejected = window(false);
  EXPECT_TRUE(rejected.visited.empty());
  ASSERT_EQ(rejected.summaries.size(), ids.size());
  for (const engine::TailSummary& s : rejected.summaries) {
    bool found = false;
    for (const auto& [id, tail] : tails) {
      geo::BoundingBox box;
      double t_min = std::numeric_limits<double>::infinity();
      double t_max = -t_min;
      for (const traj::TimedSegment& seg : tail) {
        box.Extend(seg.segment.start);
        box.Extend(seg.segment.end);
        t_min = std::min(t_min, seg.t_start);
        t_max = std::max(t_max, seg.t_end);
      }
      found = found || (box.min_x == s.box.min_x && box.min_y == s.box.min_y &&
                        box.max_x == s.box.max_x && box.max_y == s.box.max_y &&
                        t_min == s.t_min && t_max == s.t_max);
    }
    EXPECT_TRUE(found) << "a summary matches no cloned tail's extent";
  }
  EXPECT_EQ(window(true).visited, ids);

  // A push invalidates only its own object's summary.
  eng.Push(8, trajs[8][80]);
  eng.Flush();
  EXPECT_EQ(window(false).visited, std::vector<traj::ObjectId>{8});
  EXPECT_TRUE(window(false).visited.empty());

  // A finished object is no longer visited or summarized.
  eng.FinishObject(21);
  eng.Flush();
  Outcome after_finish = window(false);
  EXPECT_TRUE(after_finish.visited.empty());
  EXPECT_EQ(after_finish.summaries.size(), 2u);

  // The object form refreshes summaries too, and keeps ignoring them.
  std::size_t object_visits = 0;
  ASSERT_TRUE(eng.SnapshotObjectTail(3,
                                     [&](traj::ObjectId,
                                         std::span<const traj::TimedSegment>) {
                                       ++object_visits;
                                     })
                  .ok());
  EXPECT_EQ(object_visits, 1u);
  eng.Close();
}

TEST(EngineTailSnapshotTest, CloseAnswersOrRefusesEverySnapshot) {
  // Readers snapshot in a loop from their own threads while the producer
  // closes the engine: each call returns OK or InvalidArgument and none
  // is left waiting (a stuck request would hang the joins below).
  engine::StreamEngineOptions opts = OperbAOptions(4);
  opts.num_threads = 2;
  engine::StreamEngine eng(opts, nullptr);
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kTruck, 200, 5);
  for (traj::ObjectId id = 0; id < 6; ++id) {
    for (std::size_t i = 0; i < t.size(); ++i) eng.Push(id, t[i]);
  }
  eng.Flush();

  std::atomic<std::size_t> answered{0};
  std::atomic<bool> wrong_code{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      const auto visitor = [](traj::ObjectId,
                              std::span<const traj::TimedSegment>) {};
      for (std::size_t k = 0;; ++k) {
        const Status st =
            r == 0 ? eng.SnapshotWindowTails(AcceptAll, NoHook, visitor)
            : r == 1
                ? eng.SnapshotObjectTail(k % 6, visitor)
                : eng.SnapshotWindowTails(
                      [](const engine::TailSummary&) { return false; },
                      NoHook, visitor);
        if (st.ok()) {
          answered.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (st.code() != StatusCode::kInvalidArgument) wrong_code.store(true);
        return;
      }
    });
  }
  while (answered.load(std::memory_order_relaxed) < 30) {
    std::this_thread::yield();
  }
  eng.Close();
  for (std::thread& r : readers) r.join();
  EXPECT_FALSE(wrong_code.load());
  EXPECT_TRUE(eng.closed());
}

TEST(EngineTest, LiveObjectCountAndRingAccessorsTrackTheCensus) {
  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(baselines::Algorithm::kOPERB, kGoldenZeta);
  opts.num_shards = 4;
  opts.ring_capacity = 100;  // rounds up to 128
  engine::StreamEngine eng(opts, nullptr);

  EXPECT_EQ(eng.LiveObjectCount(), 0u);
  EXPECT_EQ(eng.RingCapacity(), 128u);
  const std::size_t cap = eng.RingCapacity();
  EXPECT_EQ(cap & (cap - 1), 0u) << "capacity not a power of two";

  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kTruck, 50, 1);
  for (traj::ObjectId id = 0; id < 3; ++id) {
    for (std::size_t i = 0; i < t.size(); ++i) eng.Push(id, t[i]);
  }
  // Checkpoint is a drain barrier: afterwards the census is exact and
  // every ring has been consumed down to empty.
  const std::string path = TempPath("engine_census.ckpt");
  ASSERT_TRUE(eng.Checkpoint(path).ok());
  EXPECT_EQ(eng.LiveObjectCount(), 3u);
  for (std::size_t s = 0; s < opts.num_shards; ++s) {
    EXPECT_EQ(eng.RingOccupancy(s), 0u) << "shard " << s;
  }

  eng.FinishObject(1);
  ASSERT_TRUE(eng.Checkpoint(path).ok());
  EXPECT_EQ(eng.LiveObjectCount(), 2u);

  eng.Close();
  EXPECT_EQ(eng.LiveObjectCount(), 0u);
}

TEST(EngineTest, CheckpointRefusesVersion2AndResumesVersion3) {
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kGeoLife, 400, 13);
  const std::size_t cut = 250;

  const std::string v3_path = TempPath("engine_v3.ckpt");
  TimedCollector full_sink;
  engine::StreamEngine full(OperbAOptions(4), full_sink.Sink());
  for (std::size_t i = 0; i < cut; ++i) full.Push(5, t[i]);
  ASSERT_TRUE(full.Checkpoint(v3_path).ok());
  // The checkpoint's drain barrier makes this exactly the prefix output.
  const std::vector<traj::TimedSegment> at_cut = full_sink.Snapshot(5);
  const std::vector<std::uint8_t> v3 = ReadAllBytes(v3_path);
  ASSERT_GT(v3.size(), 9u);
  EXPECT_EQ(v3[8], 3u);

  // Version 2 followed each state blob with a tail clock. Such a file is
  // refused by its version byte, behind a valid checksum: InvalidArgument
  // naming the version, not Corruption.
  std::vector<std::uint8_t> v2 = v3;
  v2[8] = 2;
  Rechecksum(&v2);
  const std::string v2_path = TempPath("engine_v2.ckpt");
  WriteAllBytes(v2_path, v2);
  const Status refused =
      engine::StreamEngine::CreateFromCheckpoint(v2_path, OperbAOptions(4),
                                                 nullptr)
          .status();
  EXPECT_EQ(refused.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused.message().find("version 2"), std::string::npos)
      << refused.ToString();

  // The v3 round trip restores each state's segment times: the resumed
  // engine's remaining timed output is bit-identical to the
  // uninterrupted run, t_start/t_end included.
  TimedCollector resumed_sink;
  auto resumed = engine::StreamEngine::CreateFromCheckpoint(
      v3_path, OperbAOptions(4), resumed_sink.Sink());
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (std::size_t i = cut; i < t.size(); ++i) {
    full.Push(5, t[i]);
    resumed.value()->Push(5, t[i]);
  }
  full.Close();
  resumed.value()->Close();
  const std::vector<traj::TimedSegment> want = full_sink.Snapshot(5);
  const std::vector<traj::TimedSegment> rest = resumed_sink.Snapshot(5);
  std::vector<traj::TimedSegment> got = at_cut;
  got.insert(got.end(), rest.begin(), rest.end());
  ExpectTimedEqual(got, want, "v3 resumed timed output");
  EXPECT_FALSE(rest.empty());
}

/// Deterministic damage to a small v3 checkpoint, each file behind a
/// valid whole-file checksum so the restore reaches the record decoder:
/// the file cut at every record boundary, and every byte of the header,
/// of one object record and of one shard's counters flipped (two
/// patterns each). Every restore must come back OK, Corruption or
/// InvalidArgument, and a restored engine must close cleanly.
TEST(EngineTest, CheckpointMutationsAlwaysReturnAStatus) {
  engine::StreamEngineOptions opts = OperbAOptions(2);
  opts.num_threads = 1;
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 60, 8);
  const std::string path = TempPath("engine_ckpt_mutations.ckpt");
  {
    engine::StreamEngine eng(opts, nullptr);
    for (const geo::Point& p : t) {
      for (traj::ObjectId id = 1; id <= 3; ++id) eng.Push(id, p);
    }
    ASSERT_TRUE(eng.Checkpoint(path).ok());
    eng.Close();
  }
  const std::vector<std::uint8_t> good = ReadAllBytes(path);
  const CheckpointParts parts = SplitCheckpoint(good, opts.num_shards);
  ASSERT_EQ(parts.shards[0].records.size() + parts.shards[1].records.size(),
            3u);
  ASSERT_EQ(JoinCheckpoint(parts), good);

  std::size_t ok = 0;
  std::size_t refused = 0;
  const auto restore = [&](std::vector<std::uint8_t> body,
                           const std::string& what) {
    body.resize(body.size() + 8);
    Rechecksum(&body);
    WriteAllBytes(path, body);
    auto eng = engine::StreamEngine::CreateFromCheckpoint(path, opts, nullptr);
    const StatusCode code = eng.status().code();
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kCorruption ||
                code == StatusCode::kInvalidArgument)
        << what << ": " << eng.status().ToString();
    if (eng.ok()) {
      eng.value()->Close();
      ++ok;
    } else {
      ++refused;
    }
  };

  // Record boundaries of the body (the file without its checksum).
  const std::vector<std::uint8_t> body(good.begin(), good.end() - 8);
  std::vector<std::size_t> boundaries = {parts.header.size()};
  std::size_t pos = parts.header.size();
  std::size_t first_record = 0;  // offset of the first object record
  std::size_t first_counters = 0;
  for (const CheckpointParts::Section& section : parts.shards) {
    pos += 8;  // record count
    boundaries.push_back(pos);
    for (const std::vector<std::uint8_t>& r : section.records) {
      if (first_record == 0) first_record = pos;
      pos += r.size();
      boundaries.push_back(pos);
    }
    if (first_counters == 0) first_counters = pos;
    pos += section.counters.size();
    boundaries.push_back(pos);
  }
  ASSERT_EQ(pos, body.size());
  for (const std::size_t b : boundaries) {
    restore(std::vector<std::uint8_t>(
                body.begin(), body.begin() + static_cast<std::ptrdiff_t>(b)),
            "cut at " + std::to_string(b));
  }

  const std::size_t record_size = parts.shards[0].records.empty()
                                      ? parts.shards[1].records[0].size()
                                      : parts.shards[0].records[0].size();
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, parts.header.size()},
      {first_record, first_record + record_size},
      {first_counters, first_counters + parts.shards[0].counters.size()},
  };
  for (const auto& [begin, end] : ranges) {
    for (std::size_t i = begin; i < end; ++i) {
      for (const std::uint8_t pattern : {0x01, 0xFF}) {
        std::vector<std::uint8_t> flipped = body;
        flipped[i] ^= pattern;
        restore(std::move(flipped), "byte " + std::to_string(i) + " ^ " +
                                        std::to_string(pattern));
      }
    }
  }
  // Both outcomes occur: the damage is not all caught at one check.
  EXPECT_GT(ok, 0u);
  EXPECT_GT(refused, 0u);
}

TEST(EngineTest, CheckpointRestoreRefusesMisplacedObjects) {
  // The writer puts each object in the section of the shard that owns
  // it, in ascending id order. A file that breaks either rule behind a
  // valid checksum is Corruption: restoring it would give one object
  // two states, and its output would be silently wrong.
  engine::StreamEngineOptions opts;
  opts.spec = api::SpecFor(baselines::Algorithm::kOPERB, kGoldenZeta);
  opts.num_shards = 2;
  std::vector<traj::ObjectId> ids;  // two objects, both owned by shard 0
  for (traj::ObjectId id = 0; ids.size() < 2; ++id) {
    if (traj::ShardOfObject(id, opts.num_shards) == 0) ids.push_back(id);
  }
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 120, 4);
  const std::string path = TempPath("engine_ckpt_misplaced.ckpt");
  {
    engine::StreamEngine eng(opts, nullptr);
    for (const traj::ObjectId id : ids) {
      for (std::size_t i = 0; i < t.size(); ++i) eng.Push(id, t[i]);
    }
    ASSERT_TRUE(eng.Checkpoint(path).ok());
    eng.Close();
  }
  const std::vector<std::uint8_t> good = ReadAllBytes(path);
  const CheckpointParts parts = SplitCheckpoint(good, opts.num_shards);
  ASSERT_EQ(parts.shards[0].records.size(), 2u);
  ASSERT_TRUE(parts.shards[1].records.empty());
  ASSERT_EQ(JoinCheckpoint(parts), good);  // the split alone changes nothing

  const auto restore = [&](const CheckpointParts& p) {
    WriteAllBytes(path, JoinCheckpoint(p));
    return engine::StreamEngine::CreateFromCheckpoint(path, opts, nullptr)
        .status();
  };
  CheckpointParts moved = parts;  // an object in a shard that does not own it
  moved.shards[1].records.push_back(moved.shards[0].records.back());
  moved.shards[0].records.pop_back();
  EXPECT_EQ(restore(moved).code(), StatusCode::kCorruption);
  CheckpointParts repeated = parts;
  repeated.shards[0].records.push_back(repeated.shards[0].records.back());
  EXPECT_EQ(restore(repeated).code(), StatusCode::kCorruption);
  CheckpointParts swapped = parts;
  std::swap(swapped.shards[0].records[0], swapped.shards[0].records[1]);
  EXPECT_EQ(restore(swapped).code(), StatusCode::kCorruption);
  EXPECT_TRUE(restore(parts).ok());
}

/// ProcessBatch prefetches from the table as it stands before the batch,
/// so a batch that grows the table, finishes an object or hands its
/// pooled state to another must still process exactly as without the
/// hints. A one-shard engine receives batches of exactly one consumer
/// batch (256 updates, the producer batch; the test waits for the worker
/// after each). From the second batch on, each starts with points of
/// live objects, then a FinishObject directly followed by a new id
/// (which takes the finished object's pooled state), the finished id
/// re-opened and an id finished one batch earlier re-opened, all before
/// first points grow the table mid-batch; short same-id runs take the
/// span path in between. Every object instance must match the
/// single-stream oracle, times included.
TEST(EngineTest, PrefetchedBatchKeepsOutputAcrossGrowFinishAndReuse) {
  constexpr std::size_t kBatch = 256;
  engine::StreamEngineOptions opts;
  opts.num_shards = 1;
  opts.num_threads = 1;
  opts.producer_batch = kBatch;
  TimedCollector collector;
  engine::StreamEngine eng(opts, collector.Sink());
  constexpr traj::ObjectId kNeverPushed = 1u << 30;
  const engine::TailSnapshotVisitor visit_nothing =
      [](traj::ObjectId, std::span<const traj::TimedSegment>) {};
  bool waits_ok = true;

  // Model: every instance (one open..finish life of an id) and the prefix
  // of its source trajectory pushed so far.
  struct Instance {
    traj::Trajectory source;
    std::size_t pushed = 0;
  };
  std::map<traj::ObjectId, std::vector<Instance>> instances;
  std::map<traj::ObjectId, bool> open;
  std::vector<traj::ObjectId> live;  // open ids, in opening order
  const std::vector<datagen::DatasetKind> kinds = datagen::AllDatasetKinds();
  std::uint64_t next_seed = 100;
  std::size_t routed = 0;
  const auto routed_one = [&] {
    // The engine hands its staging batch to the ring at every kBatch-th
    // update; waiting for the worker then makes that one consumer batch.
    if (++routed % kBatch == 0) {
      waits_ok = eng.SnapshotObjectTail(kNeverPushed, visit_nothing).ok() &&
                 waits_ok;
    }
  };
  const auto point = [&](traj::ObjectId id) {
    if (!open[id]) {
      instances[id].push_back(
          {testutil::Generated(kinds[next_seed % kinds.size()], 200,
                               next_seed),
           0});
      ++next_seed;
      open[id] = true;
      live.push_back(id);
    }
    Instance& in = instances[id].back();
    ASSERT_LT(in.pushed, in.source.size());
    eng.Push(id, in.source[in.pushed++]);
    routed_one();
  };
  const auto finish = [&](traj::ObjectId id) {
    eng.FinishObject(id);
    open[id] = false;
    live.erase(std::find(live.begin(), live.end(), id));
    routed_one();
  };

  datagen::Rng rng(42);
  traj::ObjectId next_id = 1;
  std::size_t cursor = 0;
  // Runs of 1-3 points of live ids, until `end` updates have been routed.
  const auto continue_until = [&](std::size_t end) {
    while (!live.empty() && routed < end) {
      const traj::ObjectId id = live[cursor++ % live.size()];
      const int run = 1 + static_cast<int>(rng.NextBelow(3));
      for (int k = 0; k < run && routed < end; ++k) point(id);
    }
  };
  // First points per batch: the table (64 slots, grown at 3/4 of live +
  // tombstone slots) crosses 48, 96, 192 and 384 used slots mid-batch.
  const int kFirstPoints[] = {60, 60, 80, 190};
  traj::ObjectId finished_last_batch = 0;
  for (const int first_points : kFirstPoints) {
    const std::size_t batch_end = routed + kBatch;
    continue_until(routed + 40);
    if (!live.empty()) {
      const traj::ObjectId finished = live[live.size() / 2];
      finish(finished);
      point(next_id++);  // takes `finished`'s pooled state
      point(finished);   // re-opened in the same batch
    }
    if (finished_last_batch != 0) point(finished_last_batch);  // re-opened
    for (int k = 0; k < first_points; ++k) point(next_id++);
    finished_last_batch = live[live.size() / 3];
    finish(finished_last_batch);
    continue_until(batch_end);
    ASSERT_EQ(routed, batch_end);
  }
  // Drain: every open instance runs to the end of its source.
  for (bool any = true; any;) {
    any = false;
    for (const traj::ObjectId id : std::vector<traj::ObjectId>(live)) {
      if (instances[id].back().pushed < instances[id].back().source.size()) {
        point(id);
        any = true;
      }
    }
  }
  eng.Close();
  EXPECT_TRUE(waits_ok);

  std::uint64_t opened = 0;
  for (const auto& [id, list] : instances) {
    std::vector<traj::TimedSegment> want;
    for (const Instance& in : list) {
      ++opened;
      const traj::Trajectory t(std::vector<geo::Point>(
          in.source.begin(),
          in.source.begin() + static_cast<std::ptrdiff_t>(in.pushed)));
      for (const traj::RepresentedSegment& seg :
           SingleStream(baselines::Algorithm::kOPERB, t, opts.spec.zeta)) {
        want.push_back({id, seg, t[seg.first_index].t, t[seg.last_index].t});
      }
    }
    ExpectTimedEqual(collector.Snapshot(id), want,
                     "object " + std::to_string(id));
  }
  const engine::StreamEngineStats& stats = eng.stats();
  EXPECT_EQ(stats.objects_opened, opened);
  EXPECT_EQ(stats.objects_finished, opened);
  // First points, new ids on pooled states, same-batch and next-batch
  // re-opens.
  EXPECT_EQ(opened, 390u + 3u + 3u + 3u);
}

}  // namespace
}  // namespace operb
