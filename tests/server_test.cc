// TrajectoryServer suite: the read-your-writes merge against the
// offline oracle, the loopback client round trip, BUSY flow control,
// the seal-failure fault matrix, and the multi-threaded hammer the TSan
// CI job runs (DESIGN.md §11).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serial.h"
#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/socket.h"
#include "store/env.h"
#include "store/query_filter.h"
#include "store/reader.h"
#include "test_util.h"
#include "traj/multi_object.h"

namespace operb {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory per test.
std::string ScratchDir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("operb_server_test_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir.string();
}

/// The all-covering window every merge comparison queries with.
geo::BoundingBox EverythingBox() {
  geo::BoundingBox box;
  box.Extend(geo::Vec2{-1e12, -1e12});
  box.Extend(geo::Vec2{1e12, 1e12});
  return box;
}

constexpr double kAllTime = 1e18;
constexpr std::size_t kFullOverlay = std::numeric_limits<std::size_t>::max();

/// A seeded interleaved feed: `objects` random walks of `points` points
/// each, round-robin.
std::vector<traj::ObjectUpdate> MakeFeed(std::size_t objects,
                                         std::size_t points,
                                         std::uint64_t seed) {
  std::vector<traj::ObjectTrajectory> trajs(objects);
  for (std::size_t o = 0; o < objects; ++o) {
    trajs[o].object_id = o;
    trajs[o].trajectory = testutil::RandomWalk(points, seed + o);
  }
  return traj::InterleaveRoundRobin(trajs);
}

/// Offline oracle: the same feed through a bare engine, every
/// object finished at end-of-stream, timed segments in canonical store
/// order (ascending object id, emission order within an object).
std::vector<traj::TimedSegment> OfflineOracle(
    const engine::StreamEngineOptions& base,
    std::span<const traj::ObjectUpdate> updates) {
  std::mutex mu;
  std::vector<traj::TimedSegment> out;
  auto engine =
      engine::StreamEngine::Create(base, [&](const traj::TimedSegment& s) {
        const std::lock_guard<std::mutex> lock(mu);
        out.push_back(s);
      });
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  (*engine)->Push(updates);
  (*engine)->Close();
  std::stable_sort(out.begin(), out.end(),
                   [](const traj::TimedSegment& a,
                      const traj::TimedSegment& b) {
                     return a.object_id < b.object_id;
                   });
  return out;
}

/// The oracle's answer to a window query: the offline segments passing
/// the store's window predicate, in canonical order.
std::vector<traj::TimedSegment> WindowOracle(
    const std::vector<traj::TimedSegment>& offline,
    const geo::BoundingBox& window, double zeta, double t_min, double t_max) {
  const geo::BoundingBox inflated = store::Inflate(window, zeta);
  std::vector<traj::TimedSegment> out;
  for (const traj::TimedSegment& s : offline) {
    if (store::SegmentMatchesWindow(s, inflated, t_min, t_max)) {
      out.push_back(s);
    }
  }
  return out;
}

/// A square window of half-width `half` around `p`.
geo::BoundingBox BoxAround(const geo::Point& p, double half) {
  geo::BoundingBox box;
  box.Extend(geo::Vec2{p.x - half, p.y - half});
  box.Extend(geo::Vec2{p.x + half, p.y + half});
  return box;
}

std::uint64_t TailsSkipped() {
  return obs::MetricsRegistry::Global()
      .GetCounter("engine.snapshot.tails_skipped")
      ->Value();
}

void ExpectTimedSegmentsEqual(const std::vector<traj::TimedSegment>& got,
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

server::ServerOptions BaseOptions(const std::string& store) {
  server::ServerOptions options;
  options.engine.spec.zeta = 30.0;
  options.engine.num_threads = 2;
  options.engine.num_shards = 4;
  options.store_path = store;
  options.seal_interval_seconds = 0.0;  // seals only when a test says so
  return options;
}

// ---------------------------------------------------------------------------
// Read-your-writes merge vs the offline oracle
// ---------------------------------------------------------------------------

TEST(ServerMergeTest, UnsealedQueryMatchesOfflineOracleBitExactly) {
  const std::string dir = ScratchDir("merge_unsealed");
  const auto feed = MakeFeed(12, 80, 20170401);
  server::ServerOptions options = BaseOptions(dir + "/store");
  const auto want = OfflineOracle(options.engine, feed);

  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto ingested = (*server)->Ingest(feed);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  ASSERT_TRUE(*ingested);

  // Nothing sealed, nothing finished: the whole answer comes from the
  // overlay + in-flight engine tails, and must already be the offline
  // answer.
  auto got = (*server)->QueryWindow(EverythingBox(), -kAllTime, kAllTime,
                                    /*flat_scan=*/false);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectTimedSegmentsEqual(*got, want, "unsealed window");

  // Per-object and position queries agree with the window answer.
  for (traj::ObjectId id = 0; id < 12; ++id) {
    auto per_object = (*server)->QueryObject(id, -kAllTime, kAllTime);
    ASSERT_TRUE(per_object.ok()) << per_object.status().ToString();
    std::vector<traj::TimedSegment> want_object;
    for (const traj::TimedSegment& s : want) {
      if (s.object_id == id) want_object.push_back(s);
    }
    ExpectTimedSegmentsEqual(*per_object, want_object,
                             "object " + std::to_string(id));
  }
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerMergeTest, AnswerIsInvariantAcrossSealAndFinish) {
  const std::string dir = ScratchDir("merge_seal");
  const auto feed = MakeFeed(10, 60, 7);
  server::ServerOptions options = BaseOptions(dir + "/store");
  const auto want = OfflineOracle(options.engine, feed);

  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  // Two ingest halves with a seal between them: the first half's
  // segments reach the sealed store while the second half is still
  // in-flight, so a query crosses all three layers at once.
  const std::size_t half = feed.size() / 2;
  ASSERT_TRUE((*server)->Ingest({feed.data(), half}).ok());
  auto sealed = (*server)->Seal();
  ASSERT_TRUE(sealed.ok()) << sealed.status().ToString();
  ASSERT_TRUE(
      (*server)->Ingest({feed.data() + half, feed.size() - half}).ok());

  auto mixed = (*server)->QueryWindow(EverythingBox(), -kAllTime, kAllTime,
                                      false);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  ExpectTimedSegmentsEqual(*mixed, want, "store+overlay+tail window");

  // Finishing every object moves the tails into the overlay; sealing
  // again moves everything into the store. The answer never changes.
  for (traj::ObjectId id = 0; id < 10; ++id) {
    ASSERT_TRUE((*server)->FinishObject(id).ok());
  }
  ASSERT_TRUE((*server)->Seal().ok());
  auto stored = (*server)->QueryWindow(EverythingBox(), -kAllTime, kAllTime,
                                       false);
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ExpectTimedSegmentsEqual(*stored, want, "all-sealed window");

  // Position queries hit the documented NotFound contract outside the
  // covered interval.
  EXPECT_TRUE((*server)->PositionAt(0, 10.0).ok());
  EXPECT_EQ((*server)->PositionAt(0, 1e17).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*server)->PositionAt(9999, 10.0).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerMergeTest, TimeAndSpaceFiltersApplyAcrossAllLayers) {
  const std::string dir = ScratchDir("merge_filter");
  const auto feed = MakeFeed(6, 50, 99);
  server::ServerOptions options = BaseOptions(dir + "/store");
  const auto all = OfflineOracle(options.engine, feed);

  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Ingest({feed.data(), feed.size() / 2}).ok());
  ASSERT_TRUE((*server)->Seal().ok());
  ASSERT_TRUE(
      (*server)
          ->Ingest({feed.data() + feed.size() / 2, feed.size() / 2})
          .ok());

  // A time slice must keep exactly the oracle's overlapping segments.
  const double t_min = 10.0, t_max = 30.0;
  std::vector<traj::TimedSegment> want;
  for (const traj::TimedSegment& s : all) {
    if (s.t_end >= t_min && s.t_start <= t_max) want.push_back(s);
  }
  auto got = (*server)->QueryObject(3, t_min, t_max);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  std::vector<traj::TimedSegment> want_object;
  for (const traj::TimedSegment& s : want) {
    if (s.object_id == 3) want_object.push_back(s);
  }
  ExpectTimedSegmentsEqual(*got, want_object, "time-sliced object");
  EXPECT_TRUE((*server)->Stop().ok());
}

// ---------------------------------------------------------------------------
// Small windows over live tails: the summary skip against the oracle
// ---------------------------------------------------------------------------

/// `objects` random walks, each moved to its own spot on a 2 km grid so
/// that small windows hold few of them and most live tails get skipped.
std::vector<traj::ObjectUpdate> MakeSpreadFeed(std::size_t objects,
                                               std::size_t points,
                                               std::uint64_t seed) {
  std::vector<traj::ObjectUpdate> feed = MakeFeed(objects, points, seed);
  for (traj::ObjectUpdate& u : feed) {
    u.point.x += 2000.0 * static_cast<double>(u.object_id % 5);
    u.point.y += 2000.0 * static_cast<double>(u.object_id / 5);
  }
  return feed;
}

TEST(ServerMergeTest, SmallWindowsOverLiveTailsMatchTheOracle) {
  const std::string dir = ScratchDir("merge_small_windows");
  constexpr std::size_t kObjects = 20;
  const auto feed = MakeSpreadFeed(kObjects, 90, 4242);
  server::ServerOptions options = BaseOptions(dir + "/store");
  const double zeta = options.engine.spec.zeta;
  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Seeded windows around points of the ingested prefix: sizes from
  // inside zeta to a few hundred metres, instants to long time ranges.
  datagen::Rng rng(77);
  const auto make_windows = [&](std::size_t prefix) {
    struct Window {
      geo::BoundingBox box;
      double t_min, t_max;
    };
    std::vector<Window> windows;
    for (int k = 0; k < 24; ++k) {
      const geo::Point& p = feed[rng.NextBelow(prefix)].point;
      const double half = k % 3 == 0 ? 1.0 : k % 3 == 1 ? 40.0 : 300.0;
      const double dt = k % 4 == 0 ? 0.0 : k % 4 == 1 ? 3.0 : 30.0;
      windows.push_back({BoxAround(p, half), p.t - dt, p.t + dt});
    }
    // And one far from every object.
    windows.push_back({BoxAround(geo::Point{-1e6, -1e6, 0.0}, 10.0),
                       -kAllTime, kAllTime});
    return windows;
  };

  std::size_t prefix = 0;
  const auto check_round = [&](std::size_t upto, bool seal,
                               const std::string& label) {
    ASSERT_TRUE((*server)->Ingest({feed.data() + prefix, upto - prefix}).ok());
    prefix = upto;
    if (seal) {
      ASSERT_TRUE((*server)->Seal().ok());
    }
    const auto offline =
        OfflineOracle(options.engine, {feed.data(), prefix});
    const auto windows = make_windows(prefix);
    // Each window twice: the second run finds every summary current.
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t w = 0; w < windows.size(); ++w) {
        const auto& win = windows[w];
        auto got = (*server)->QueryWindow(win.box, win.t_min, win.t_max,
                                          /*flat_scan=*/false);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectTimedSegmentsEqual(
            *got, WindowOracle(offline, win.box, zeta, win.t_min, win.t_max),
            label + " pass " + std::to_string(pass) + " window " +
                std::to_string(w));
      }
    }
  };

  const std::uint64_t skipped_before = TailsSkipped();
  // Pushes between rounds make some summaries stale; a seal moves the
  // emitted part of every live object into the store.
  check_round(feed.size() / 3, false, "first third");
  check_round(feed.size() / 3 + kObjects / 2, false, "half a round more");
  check_round(2 * feed.size() / 3, true, "two thirds, sealed");
  check_round(feed.size(), false, "all");
  EXPECT_GT(TailsSkipped(), skipped_before)
      << "no window skipped a live tail, so no skip decision was tested";
  EXPECT_EQ((*server)->Stats().live_objects, kObjects);
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerMergeTest, ReusedPooledStateNeverServesAStaleSummary) {
  // One shard, so the restarted object gets back the very state it
  // released, and its tail clock reaches the same point count the old
  // summary was taken at.
  const std::string dir = ScratchDir("merge_stale_summary");
  server::ServerOptions options = BaseOptions(dir + "/store");
  options.engine.num_shards = 1;
  options.engine.num_threads = 1;
  const double zeta = options.engine.spec.zeta;
  constexpr traj::ObjectId kId = 7;
  const traj::Trajectory first = testutil::RandomWalk(40, 1);
  const traj::Trajectory second = testutil::RandomWalk(40, 2);
  std::vector<traj::ObjectUpdate> before, after;
  for (std::size_t i = 0; i < first.size(); ++i) {
    before.push_back({kId, first[i]});
    // Far away and later: no window around it can touch `first`.
    after.push_back({kId, {second[i].x + 50000.0, second[i].y + 50000.0,
                           second[i].t + 1000.0}});
  }

  // Oracle: the same two lives of the object through a bare engine.
  std::vector<traj::TimedSegment> offline;
  {
    std::mutex mu;
    engine::StreamEngine eng(options.engine,
                             [&](const traj::TimedSegment& s) {
                               const std::lock_guard<std::mutex> lock(mu);
                               offline.push_back(s);
                             });
    eng.Push(before);
    eng.FinishObject(kId);
    eng.Push(after);
    eng.Close();
  }

  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Ingest(before).ok());
  const geo::BoundingBox near_first = BoxAround(before.back().point, 100.0);
  auto got = (*server)->QueryWindow(near_first, -kAllTime, kAllTime, false);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->empty());

  ASSERT_TRUE((*server)->FinishObject(kId).ok());
  ASSERT_TRUE((*server)->Ingest(after).ok());
  const geo::BoundingBox near_second = BoxAround(after.back().point, 100.0);
  // Near the new position first: a stale summary would still describe
  // the old one and rule the object out.
  for (const geo::BoundingBox& box : {near_second, near_first}) {
    got = (*server)->QueryWindow(box, -kAllTime, kAllTime, false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTimedSegmentsEqual(
        *got, WindowOracle(offline, box, zeta, -kAllTime, kAllTime),
        "after restart");
  }
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerMergeTest, ZeroLengthTailSegmentIsFoundAndSkippedExactly) {
  // An object standing still: its in-flight tail is one segment whose
  // endpoints coincide, so its summary box is a single point.
  const std::string dir = ScratchDir("merge_zero_length");
  server::ServerOptions options = BaseOptions(dir + "/store");
  const double zeta = options.engine.spec.zeta;
  std::vector<traj::ObjectUpdate> feed;
  for (int i = 0; i < 12; ++i) {
    feed.push_back({9, {1234.5, -678.25, static_cast<double>(i)}});
    feed.push_back({10, {5000.0 + 10.0 * i, 5000.0, static_cast<double>(i)}});
  }
  const auto offline = OfflineOracle(options.engine, feed);
  bool zero_length = false;
  for (const traj::TimedSegment& s : offline) {
    zero_length = zero_length ||
                  (s.object_id == 9 && s.segment.start.x == s.segment.end.x &&
                   s.segment.start.y == s.segment.end.y);
  }
  ASSERT_TRUE(zero_length) << "the stationary object has no zero-length "
                              "segment to test";

  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  ASSERT_TRUE((*server)->Ingest(feed).ok());
  const geo::Point p{1234.5, -678.25, 5.0};
  // Windows that hold the point, touch it only through the zeta
  // inflation, miss it by a metre, and miss it in time.
  struct Window {
    geo::BoundingBox box;
    double t_min, t_max;
  };
  geo::BoundingBox east;
  east.Extend(geo::Vec2{p.x + zeta, p.y - 5.0});
  east.Extend(geo::Vec2{p.x + zeta + 10.0, p.y + 5.0});
  geo::BoundingBox east_miss = east;
  east_miss.min_x += 1.0;
  const std::vector<Window> windows = {
      {BoxAround(p, 1.0), 0.0, 20.0},
      {east, -kAllTime, kAllTime},
      {east_miss, -kAllTime, kAllTime},
      {BoxAround(p, 1.0), 100.0, 200.0},
  };
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const Window& win = windows[w];
      auto got = (*server)->QueryWindow(win.box, win.t_min, win.t_max, false);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTimedSegmentsEqual(
          *got, WindowOracle(offline, win.box, zeta, win.t_min, win.t_max),
          "pass " + std::to_string(pass) + " window " + std::to_string(w));
    }
  }
  EXPECT_TRUE((*server)->Stop().ok());
}

// ---------------------------------------------------------------------------
// Loopback client round trip
// ---------------------------------------------------------------------------

TEST(ServerClientTest, LoopbackRoundTripMatchesInProcessCalls) {
  const std::string dir = ScratchDir("client");
  const auto feed = MakeFeed(8, 40, 3);
  server::ServerOptions options = BaseOptions(dir + "/store");
  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = server::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ingest(feed).ok());

  auto via_wire =
      client->QueryWindow(EverythingBox(), -kAllTime, kAllTime);
  ASSERT_TRUE(via_wire.ok()) << via_wire.status().ToString();
  auto direct = (*server)->QueryWindow(EverythingBox(), -kAllTime, kAllTime,
                                       false);
  ASSERT_TRUE(direct.ok());
  ExpectTimedSegmentsEqual(*via_wire, *direct, "wire vs in-process");

  auto pos_wire = client->PositionAt(0, 5.0);
  auto pos_direct = (*server)->PositionAt(0, 5.0);
  ASSERT_TRUE(pos_wire.ok());
  ASSERT_TRUE(pos_direct.ok());
  EXPECT_EQ(pos_wire->x, pos_direct->x);
  EXPECT_EQ(pos_wire->y, pos_direct->y);

  // Errors keep their Status class across the wire (the CLI exit-code
  // contract rides on this).
  EXPECT_EQ(client->PositionAt(0, 1e17).status().code(),
            StatusCode::kNotFound);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->ingest_points, feed.size());
  EXPECT_EQ(stats->live_objects, 8u);
  EXPECT_EQ(stats->connections, 1u);

  // Server-side artifacts written through the wire.
  ASSERT_TRUE(client->Checkpoint(dir + "/ckpt.bin").ok());
  ASSERT_TRUE(client->MetricsSnapshot(dir + "/metrics.json").ok());
  EXPECT_TRUE(fs::exists(dir + "/ckpt.bin"));
  EXPECT_TRUE(fs::exists(dir + "/metrics.json"));

  auto sealed = client->Seal();
  ASSERT_TRUE(sealed.ok());
  EXPECT_GT(*sealed, 0u);

  EXPECT_FALSE((*server)->ShutdownRequested());
  ASSERT_TRUE(client->Shutdown().ok());
  EXPECT_TRUE((*server)->ShutdownRequested());
  EXPECT_TRUE((*server)->Stop().ok());

  // The daemon's store reopens offline with everything sealed.
  auto reader = store::StoreReader::Open(dir + "/store");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
}

TEST(ServerProtocolTest, OversizedIngestCountIsRefusedAndServingGoesOn) {
  const std::string dir = ScratchDir("ingest_count");
  server::ServerOptions options = BaseOptions(dir + "/store");
  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // A 9-byte frame announcing 2^32 - 1 updates, then one announcing two
  // updates but carrying one: both are malformed, neither allocates.
  auto sock = server::Socket::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(sock.ok()) << sock.status().ToString();
  std::vector<std::uint8_t> huge;
  serial::PutU32(0xFFFFFFFFu, &huge);
  std::vector<std::uint8_t> short_by_one;
  serial::PutU32(2, &short_by_one);
  serial::PutU64(1, &short_by_one);  // one whole update: id, t, x, y
  for (int field = 0; field < 3; ++field) serial::PutF64(0.0, &short_by_one);
  for (const auto* body : {&huge, &short_by_one}) {
    ASSERT_TRUE(server::SendFrame(*sock,
                                  static_cast<std::uint8_t>(
                                      server::Verb::kIngest),
                                  *body)
                    .ok());
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> reply;
    ASSERT_TRUE(server::RecvFrame(*sock, &tag, &reply).ok());
    EXPECT_EQ(tag, static_cast<std::uint8_t>(
                       server::WireStatus::kInvalidArgument));
  }

  // The same server still ingests and answers exactly.
  const auto feed = MakeFeed(5, 40, 8);
  auto client = server::Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(client->Ingest(feed).ok());
  auto got = client->QueryWindow(EverythingBox(), -kAllTime, kAllTime);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectTimedSegmentsEqual(*got, OfflineOracle(options.engine, feed),
                           "after the malformed frames");
  EXPECT_EQ((*server)->Stats().ingest_points, feed.size());
  EXPECT_TRUE((*server)->Stop().ok());
}

TEST(ServerProtocolTest, OversizedSegmentCountInAReplyIsAnIOError) {
  // A fake server answers QUERY_OBJECT with a count its body cannot hold.
  auto listener = server::Listener::Bind(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  std::thread fake([&] {
    Result<server::Socket> peer = Status::IOError("no connection");
    for (int i = 0; i < 100; ++i) {
      peer = listener->AcceptWithTimeout(100);
      if (!peer.ok() || peer->valid()) break;
    }
    if (!peer.ok() || !peer->valid()) return;
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> request;
    if (!server::RecvFrame(*peer, &tag, &request).ok()) return;
    std::vector<std::uint8_t> reply;
    serial::PutU32(0xFFFFFFFFu, &reply);
    (void)server::SendFrame(
        *peer, static_cast<std::uint8_t>(server::WireStatus::kOk), reply);
  });
  auto client = server::Client::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto got = client->QueryObject(1, -kAllTime, kAllTime);
  fake.join();
  EXPECT_EQ(got.status().code(), StatusCode::kIOError);

  traj::TimedSegment s;
  std::vector<std::uint8_t> encoded;
  server::PutTimedSegment(s, &encoded);
  EXPECT_EQ(encoded.size(), server::kTimedSegmentBytes);
}

TEST(ServerClientTest, ConnectToDeadPortFailsWithIOError) {
  auto client = server::Client::Connect("127.0.0.1", 1);
  EXPECT_FALSE(client.ok());
  EXPECT_EQ(client.status().code(), StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// BUSY flow control
// ---------------------------------------------------------------------------

TEST(ServerBackpressureTest, SaturatedRingsReportBusyAndNeverDrop) {
  const std::string dir = ScratchDir("busy");
  server::ServerOptions options = BaseOptions(dir + "/store");
  // Point-to-point segments (every push emits) + a brake in the sink +
  // a tiny ring: the consumer cannot keep up, so admission must trip.
  options.engine.spec.zeta = 1e-9;
  options.engine.num_shards = 1;
  options.engine.num_threads = 1;
  options.engine.ring_capacity = 8;
  options.engine.producer_batch = 1;
  options.busy_fraction = 0.25;
  options.busy_retry_ms = 1;
  options.sink_hook_for_test = [](const traj::TimedSegment&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const auto feed = MakeFeed(1, 400, 11);
  std::size_t accepted = 0;
  std::uint64_t rejects = 0;
  for (const traj::ObjectUpdate& u : feed) {
    // Bounded retry loop: BUSY is flow control, not loss — every point
    // must eventually get in, and the loop must terminate (no
    // deadlock: the consumer keeps draining while we sleep).
    for (int attempt = 0;; ++attempt) {
      ASSERT_LT(attempt, 100000) << "BUSY never cleared";
      auto ok = (*server)->Ingest({&u, 1});
      ASSERT_TRUE(ok.ok()) << ok.status().ToString();
      if (*ok) {
        ++accepted;
        break;
      }
      ++rejects;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(accepted, feed.size());
  EXPECT_GT(rejects, 0u) << "admission control never tripped";

  auto stats = (*server)->Stats();
  EXPECT_EQ(stats.ingest_points, feed.size());
  EXPECT_EQ(stats.backpressure_rejects, rejects);

  // Nothing was lost or duplicated: with zeta ~ 0 every consecutive
  // point pair is one segment.
  auto got = (*server)->QueryObject(0, -kAllTime, kAllTime);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), feed.size() - 1);
  EXPECT_TRUE((*server)->Stop().ok());
}

// ---------------------------------------------------------------------------
// Seal fault matrix
// ---------------------------------------------------------------------------

TEST(ServerFaultTest, FailedSealsKeepServingAndLeaveAReopenableStore) {
  const auto feed = MakeFeed(6, 40, 5);
  server::ServerOptions base = BaseOptions("");
  const auto want = OfflineOracle(base.engine, feed);

  // Enumerate the first 12 crash points of the seal path (writer
  // session create/append/flush/rename ops). After every one: queries
  // still answer the oracle bit-exactly from the overlay, Stop()
  // surfaces the error, and the store directory still opens.
  for (std::uint64_t fail_at = 0; fail_at < 12; ++fail_at) {
    SCOPED_TRACE("fail_at_op=" + std::to_string(fail_at));
    const std::string dir =
        ScratchDir("fault_" + std::to_string(fail_at));
    store::FaultInjectingEnv env;
    server::ServerOptions options = BaseOptions(dir + "/store");
    options.env = &env;

    auto server = server::TrajectoryServer::Start(options, 0);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    ASSERT_TRUE((*server)->Ingest(feed).ok());
    // A query waits until the workers have processed the feed, so the
    // overlay holds its emitted segments and the seal has work to do.
    ASSERT_TRUE(
        (*server)->QueryWindow(EverythingBox(), -kAllTime, kAllTime, false)
            .ok());

    env.ArmFault(store::FaultInjectingEnv::FaultKind::kError, fail_at);
    auto sealed = (*server)->Seal();
    const bool fired = env.fault_fired();  // Disarm() resets it
    env.Disarm();
    if (!fired) {
      // The seal finished in fewer ops; nothing to assert for this k.
      EXPECT_TRUE(sealed.ok()) << sealed.status().ToString();
      EXPECT_TRUE((*server)->Stop().ok());
      continue;
    }
    EXPECT_FALSE(sealed.ok());

    auto got =
        (*server)->QueryWindow(EverythingBox(), -kAllTime, kAllTime, false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTimedSegmentsEqual(*got, want,
                             "post-fault query, k=" +
                                 std::to_string(fail_at));

    // A poisoned seal path refuses further seals with the original
    // error instead of risking duplicated segments.
    EXPECT_FALSE((*server)->Seal().ok());

    const Status stopped = (*server)->Stop();
    EXPECT_FALSE(stopped.ok()) << "Stop() swallowed the seal failure";

    auto reader = store::StoreReader::Open(dir + "/store");
    EXPECT_TRUE(reader.ok())
        << "store unreopenable after fault: " << reader.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Concurrency hammer (the TSan job's main course)
// ---------------------------------------------------------------------------

TEST(ServerHammerTest, ConcurrentIngestAndQueryKeepMonotoneChainedReads) {
  const std::string dir = ScratchDir("hammer");
  server::ServerOptions options = BaseOptions(dir + "/store");
  // zeta ~ 0: every consecutive point pair becomes one segment, so a
  // reader can verify chaining (seg[i].end == seg[i+1].start) exactly.
  options.engine.spec.zeta = 1e-9;
  options.engine.num_threads = 2;
  options.engine.num_shards = 4;
  options.seal_interval_seconds = 0.01;  // background sealer races reads

  auto started = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(started.ok()) << started.status().ToString();
  server::TrajectoryServer& server = **started;

  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kObjectsPerWriter = 8;
  constexpr std::size_t kObjects = kWriters * kObjectsPerWriter;
  constexpr std::size_t kPointsPerObject = 120;
  std::atomic<bool> failed{false};
  std::mutex why_mu;
  std::string why;
  const auto fail = [&](const std::string& reason) {
    const std::lock_guard<std::mutex> lock(why_mu);
    if (!failed.exchange(true)) why = reason;
  };

  // Every object's points, fixed up front so readers know where each
  // acked point lies.
  std::vector<std::vector<geo::Point>> points(kObjects);
  for (std::size_t id = 0; id < kObjects; ++id) {
    datagen::Rng rng(1000 + id);
    geo::Vec2 pos{300.0 * static_cast<double>(id), 0.0};
    for (std::size_t i = 0; i < kPointsPerObject; ++i) {
      pos.x += rng.Uniform(-15.0, 15.0);
      pos.y += rng.Uniform(-15.0, 15.0);
      points[id].push_back({pos.x, pos.y, static_cast<double>(i)});
    }
  }

  // Writers own disjoint id ranges and publish, per object, how many
  // points have been acked so far (release after a successful Ingest).
  std::vector<std::atomic<std::size_t>> acked(kObjects);
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (std::size_t i = 0; i < kPointsPerObject; ++i) {
        for (std::size_t o = 0; o < kObjectsPerWriter; ++o) {
          const traj::ObjectId id = w * kObjectsPerWriter + o;
          const traj::ObjectUpdate u{id, points[id][i]};
          for (int attempt = 0;; ++attempt) {
            if (attempt >= 100000) {
              fail("BUSY never cleared");
              return;
            }
            auto ok = server.Ingest({&u, 1});
            if (!ok.ok()) {
              fail("ingest: " + ok.status().ToString());
              return;
            }
            if (*ok) break;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          acked[id].store(i + 1, std::memory_order_release);
        }
      }
    });
  }

  // Object readers: per-object segment lists must chain point-to-point,
  // never shrink (monotone read-your-writes), and cover at least the
  // points acked before the query was issued.
  std::atomic<bool> stop_readers{false};
  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      std::vector<std::size_t> last_seen(kObjects, 0);
      datagen::Rng rng(77 + r);
      while (!stop_readers.load(std::memory_order_relaxed)) {
        const traj::ObjectId id = rng.NextBelow(kObjects);
        const std::size_t floor_points =
            acked[id].load(std::memory_order_acquire);
        auto got = server.QueryObject(id, -kAllTime, kAllTime);
        if (!got.ok()) {
          fail("object query: " + got.status().ToString());
          return;
        }
        // floor_points points acked before the query => at least
        // floor_points - 1 segments visible (read-your-writes).
        if (floor_points > 0 && got->size() + 1 < floor_points) {
          fail("object query missed acked points");
          return;
        }
        if (got->size() < last_seen[id]) {  // monotone reads
          fail("object query went backwards");
          return;
        }
        last_seen[id] = got->size();
        for (std::size_t i = 0; i + 1 < got->size(); ++i) {  // no tears
          const auto& a = (*got)[i];
          const auto& b = (*got)[i + 1];
          // Consecutive segments share their boundary point.
          if (a.segment.end.x != b.segment.start.x ||
              a.segment.end.y != b.segment.start.y ||
              a.segment.last_index != b.segment.first_index ||
              a.t_end > b.t_start) {
            fail("object query returned a torn chain");
            return;
          }
        }
      }
    });
  }

  // Small-window and position readers: a query issued after an ack sees
  // the acked point — the segment ending there is inside a window around
  // it, and POSITION_AT finds a segment covering its time.
  readers.emplace_back([&] {
    datagen::Rng rng(91);
    while (!stop_readers.load(std::memory_order_relaxed)) {
      const traj::ObjectId id = rng.NextBelow(kObjects);
      const std::size_t n = acked[id].load(std::memory_order_acquire);
      if (n < 2) continue;
      const geo::Point& p = points[id][n - 1];
      geo::BoundingBox box;
      box.Extend(geo::Vec2{p.x - 0.5, p.y - 0.5});
      box.Extend(geo::Vec2{p.x + 0.5, p.y + 0.5});
      auto got = server.QueryWindow(box, p.t, p.t, /*flat_scan=*/false);
      if (!got.ok()) {
        fail("window query: " + got.status().ToString());
        return;
      }
      bool seen = false;
      for (const traj::TimedSegment& s : *got) {
        seen = seen || (s.object_id == id && s.segment.first_index <= n - 1 &&
                        n - 1 <= s.segment.last_index);
      }
      if (!seen) {
        fail("window query missed acked point " + std::to_string(n - 1) +
             " of object " + std::to_string(id));
        return;
      }
      auto pos = server.PositionAt(id, p.t);
      if (!pos.ok()) {
        fail("position query: " + pos.status().ToString());
        return;
      }
    }
  });

  for (std::thread& t : writers) t.join();
  stop_readers.store(true);
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed.load()) << "hammer invariant violated: " << why;

  // Quiesced: every object must now show its full chain.
  for (traj::ObjectId id = 0; id < kObjects; ++id) {
    auto got = server.QueryObject(id, -kAllTime, kAllTime);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->size(), kPointsPerObject - 1)
        << "object " << id << " lost points";
  }
  const server::StatsBody stats = server.Stats();
  EXPECT_EQ(stats.ingest_points, kObjects * kPointsPerObject);
  EXPECT_TRUE(server.Stop().ok());

  auto reader = store::StoreReader::Open(dir + "/store");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
}

// ---------------------------------------------------------------------------
// Options and lifecycle edges
// ---------------------------------------------------------------------------

TEST(ServerOptionsTest, ValidateRejectsBadConfiguration) {
  server::ServerOptions options = BaseOptions("");
  EXPECT_FALSE(options.Validate().ok()) << "empty store_path accepted";
  options.store_path = "/tmp/x";
  EXPECT_TRUE(options.Validate().ok());
  options.busy_fraction = 0.0;
  EXPECT_FALSE(options.Validate().ok());
  options.busy_fraction = 1.5;
  EXPECT_FALSE(options.Validate().ok());
  options.busy_fraction = 0.75;
  options.store_shards = 0;
  EXPECT_FALSE(options.Validate().ok());
}

TEST(ServerLifecycleTest, StopIsIdempotentAndWritesFinalArtifacts) {
  const std::string dir = ScratchDir("lifecycle");
  server::ServerOptions options = BaseOptions(dir + "/store");
  options.final_checkpoint_path = dir + "/final_ckpt.bin";
  options.final_metrics_path = dir + "/final_metrics.json";
  auto server = server::TrajectoryServer::Start(options, 0);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  const auto feed = MakeFeed(4, 30, 2);
  ASSERT_TRUE((*server)->Ingest(feed).ok());

  EXPECT_TRUE((*server)->Stop().ok());
  EXPECT_TRUE((*server)->Stop().ok()) << "second Stop() not idempotent";
  EXPECT_TRUE(fs::exists(options.final_checkpoint_path));
  EXPECT_TRUE(fs::exists(options.final_metrics_path));

  // Everything — including the never-finished in-flight tails — was
  // sealed on the way down.
  auto reader = store::StoreReader::Open(dir + "/store");
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto want = OfflineOracle(options.engine, feed);
  auto got = (*reader)->QueryWindow(EverythingBox(), -kAllTime, kAllTime);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectTimedSegmentsEqual(*got, want, "post-stop store contents");
}

}  // namespace
}  // namespace operb
