// fleet_live: the daemon's read-your-writes merge with writes running
// beside reads. Set-up starts an in-process TrajectoryServer (engine with
// 2 workers, no background sealer) and preloads a short prefix of each of
// 100k objects. The measured phase drives it over loopback:
//   - 1 connection ingests every object's continuation in an open loop
//     at a fixed rate, in 500-point batches, each timed from when it was
//     due;
//   - 2 connections run closed-loop lookups (POSITION_AT / QUERY_OBJECT on
//     random objects at times their prefix covers);
//   - 1 connection runs closed-loop small QUERY_WINDOWs.
// The server, the engine mutex, tail snapshots and the overlay dominate;
// fitting and sealed-store queries are light.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datagen/rng.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "workloads.h"

namespace stackbench {

namespace {

using operb::traj::ObjectUpdate;
using operb::traj::TimedSegment;

constexpr std::size_t kPrefix = 8;
constexpr std::size_t kPreloadChunk = 4096;
constexpr int kMaxIngestAttempts = 200;
constexpr std::size_t kCheckedObjects = 200;
/// Seconds between timings of the reference work in the measured phase.
constexpr double kReferenceEvery = 0.1;
/// Seconds between the seals the benchmark makes in the measured phase.
constexpr double kSealEvery = 2.0;
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Sizes {
  std::size_t objects = 100000;
  double rate = 100000.0;  ///< offered ingest rate, points per second
  std::size_t batch = 500;
};

struct Inputs {
  std::vector<FleetObject> objects;    ///< ascending id
  std::vector<ObjectUpdate> preload;   ///< every object's prefix
  std::vector<ObjectUpdate> stream;    ///< the continuations, by time
};

Inputs BuildInputs(const RunOptions& o, const Sizes& z) {
  // Enough continuation for the whole run at the offered rate.
  const std::size_t cont = static_cast<std::size_t>(
      std::ceil(z.rate * o.seconds * 1.2 / static_cast<double>(z.objects))) + 2;
  FleetSpec spec;
  spec.seed = o.seed;
  spec.objects = z.objects;
  spec.zipf = 0.0;
  spec.min_points = kPrefix + cont;
  spec.total_points = z.objects * (kPrefix + cont);
  spec.start_spread_s = 600.0;
  Inputs in;
  in.objects = GenerateFleet(spec);
  const std::size_t n = in.objects.size();
  in.preload = MergeByTime(in.objects, std::vector<std::size_t>(n, 0),
                           std::vector<std::size_t>(n, kPrefix));
  in.stream = MergeByTime(in.objects, std::vector<std::size_t>(n, kPrefix),
                          std::vector<std::size_t>(n, kPrefix + cont));
  return in;
}

/// Starts a server and preloads every prefix through the direct ingest
/// call; ends with a window query, which waits until every shard has
/// consumed what it was handed.
std::unique_ptr<operb::server::TrajectoryServer> StartServer(
    const Inputs& in, const std::string& store, std::string* error) {
  operb::server::ServerOptions so;
  so.engine.num_threads = 2;
  so.store_path = store;
  // The benchmark seals every kSealEvery itself (see ReadGate).
  so.seal_interval_seconds = 0.0;
  auto started = operb::server::TrajectoryServer::Start(so, 0);
  if (!started.ok()) {
    *error = "server start: " + started.status().ToString();
    return nullptr;
  }
  std::unique_ptr<operb::server::TrajectoryServer> server = std::move(*started);
  for (std::size_t i = 0; i < in.preload.size();) {
    const std::size_t n = std::min(kPreloadChunk, in.preload.size() - i);
    auto r = server->Ingest(
        std::span<const ObjectUpdate>(in.preload.data() + i, n));
    if (!r.ok()) {
      *error = "preload: " + r.status().ToString();
      return nullptr;
    }
    if (*r) {
      i += n;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  operb::geo::BoundingBox none;
  none.min_x = none.min_y = 0.0;
  none.max_x = none.max_y = 1.0;
  auto barrier = server->QueryWindow(none, -kInf, kInf, false);
  if (!barrier.ok()) {
    *error = "preload barrier: " + barrier.status().ToString();
    return nullptr;
  }
  return server;
}

/// A time strictly inside the object's preloaded prefix.
double CoveredTime(const FleetObject& obj, std::size_t i) {
  return 0.5 * (obj.points[i].t + obj.points[i + 1].t);
}

/// Holds the closed-loop readers back while the benchmark seals. Queries
/// hold the server's seal lock shared, and with three closed-loop readers
/// a seal seldom finds it free: the server's own 0.5 s sealer sealed at
/// most once a 20 s run, at a random moment, and its copy of the overlay
/// made the peak RSS of one run 50 MiB and of the next 85. Without seals
/// the overlay grows until ingest falls seconds behind. So the benchmark
/// closes this gate every kSealEvery, waits for the readers' requests in
/// flight, seals, and opens it; ingest runs on. Time a reader waits at the
/// gate is not part of its latency.
class ReadGate {
 public:
  void Enter() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !closed_; });
    ++inside_;
  }
  void Leave() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--inside_ == 0) cv_.notify_all();
  }
  /// Returns once no reader is inside; new ones wait until Open().
  void Close() {
    std::unique_lock<std::mutex> lock(mu_);
    closed_ = true;
    cv_.wait(lock, [this] { return inside_ == 0; });
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = false;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool closed_ = false;
  int inside_ = 0;
};

/// What one client thread measured.
struct Samples {
  std::vector<double> socket_ms;
  std::vector<double> direct_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;
  std::uint64_t returned = 0;  ///< segments in all window answers
  double finished = 0.0;       ///< when the thread's last request ended

  void Fail(const std::string& why) {
    if (failed++ == 0) first_failure = why;
  }
};

}  // namespace

void RunFleetLive(const RunOptions& o, Report* report) {
  Sizes z;
  if (o.smoke) {
    z.objects /= 20;
    z.rate /= 20;
    z.batch /= 5;
  }
  ReferenceWork reference;
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<operb::server::TrajectoryServer> server;
  std::string error;
  const auto store_dir = [&o](int i) {
    return o.work_dir + "/fleet_live-store-" + std::to_string(i);
  };
  std::error_code ec;
  for (int i = 0; i < kSetupRepeats && error.empty(); ++i) {
    if (server != nullptr) {
      server->Stop();
      server.reset();
      std::filesystem::remove_all(store_dir(i - 1), ec);
    }
    in = Inputs();
    const std::string store = store_dir(i);
    setup_s.push_back(NominalSeconds(reference, [&] {
      in = BuildInputs(o, z);
      server = StartServer(in, store, &error);
    }));
  }
  if (server == nullptr) {
    report->Attempted();
    report->Failed(error);
    return;
  }
  std::uint64_t input_hash = 0xCBF29CE484222325ULL;
  for (const auto* v : {&in.preload, &in.stream}) {
    input_hash = HashBytes(
        std::string_view(reinterpret_cast<const char*>(v->data()),
                         v->size() * sizeof(ObjectUpdate)),
        input_hash);
  }
  report->Fact("input_hash", Hex(input_hash));
  report->Fact("objects", std::to_string(in.objects.size()));
  report->Fact("offered_points_per_s", std::to_string(z.rate));
  RssMeter rss;
  rss.Start(report);

  std::vector<operb::server::Client> clients;
  for (int c = 0; c < 4; ++c) {
    auto conn = operb::server::Client::Connect("127.0.0.1", server->port());
    if (!conn.ok()) {
      report->Attempted();
      report->Failed("connect: " + conn.status().ToString());
      server->Stop();
      return;
    }
    clients.push_back(std::move(*conn));
  }
  const operb::server::StatsBody before = server->Stats();
  Tracer::SetEnabled(o.trace);

  const double start = Now() + 0.01;
  const double end = start + o.seconds;
  const std::size_t batches = in.stream.size() / z.batch;
  std::vector<char> acked(batches, 0);
  std::vector<double> generator_late_ms;
  // Socket ingest from send to ack (the lag minus time spent queued
  // behind earlier batches): compare with server.ingest_direct_p50_ms.
  std::vector<double> ingest_call_ms;
  Samples ingest;
  Samples lookups[2];
  Samples windows;
  ReadGate gate;

  // Open-loop ingest: batch b is due at start + b * batch / rate.
  // last_ack belongs to the ingest thread until it is joined.
  double last_ack = start;
  std::thread ingest_thread([&] {
    const double interval = static_cast<double>(z.batch) / z.rate;
    for (std::size_t b = 0; b < batches; ++b) {
      const double due = start + static_cast<double>(b) * interval;
      if (due >= end) break;
      if (Now() < due) {
        std::this_thread::sleep_for(std::chrono::duration<double>(due - Now()));
      }
      const double sent = Now();
      // Lateness of the generator itself: only when the previous batch
      // was acked before this one fell due.
      if (last_ack <= due) generator_late_ms.push_back((sent - due) * 1e3);
      const std::span<const ObjectUpdate> batch(in.stream.data() + b * z.batch,
                                                z.batch);
      const bool direct = o.trace && b % 2 == 1;
      Span span(direct ? "server.ingest" : "client.ingest", b + 1);
      ++ingest.attempted;
      bool ok = false;
      std::string why = "BUSY past retries";
      for (int attempt = 0; attempt < kMaxIngestAttempts; ++attempt) {
        std::uint32_t retry_ms = 1;
        if (direct) {
          auto r = server->Ingest(batch);
          if (!r.ok()) {
            why = r.status().ToString();
            break;
          }
          ok = *r;
        } else {
          auto r = clients[0].TryIngest(batch);
          if (!r.ok()) {
            why = r.status().ToString();
            break;
          }
          ok = r->accepted;
          retry_ms = std::max<std::uint32_t>(1, r->retry_after_ms);
        }
        if (ok) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
      }
      last_ack = Now();
      span.Close();
      if (!ok) {
        ingest.Fail("ingest batch " + std::to_string(b) + ": " + why);
        continue;
      }
      acked[b] = 1;
      if (direct) {
        ingest.direct_ms.push_back((last_ack - sent) * 1e3);
      } else {
        ingest.socket_ms.push_back((last_ack - due) * 1e3);
        ingest_call_ms.push_back((last_ack - sent) * 1e3);
      }
    }
  });

  const auto lookup_loop = [&](int k) {
    Samples& s = lookups[k];
    operb::datagen::Rng rng(o.seed * 31 + static_cast<std::uint64_t>(k) + 7);
    operb::server::Client& client = clients[1 + k];
    for (std::uint64_t q = 1; Now() < end; ++q) {
      const FleetObject& obj = in.objects[rng.NextBelow(in.objects.size())];
      const std::size_t i = rng.NextBelow(kPrefix - 2);
      const double t = CoveredTime(obj, i);
      const bool position = rng.NextBelow(2) == 0;
      const double t_end = CoveredTime(obj, i + 1 + rng.NextBelow(kPrefix - 2 - i));
      const bool direct = o.trace && q % 2 == 0;
      gate.Enter();
      const double q0 = Now();
      Span span(direct ? "server.lookup" : "client.lookup", q);
      bool ok = false;
      std::string why;
      if (position) {
        auto r = direct ? server->PositionAt(obj.id, t) : client.PositionAt(obj.id, t);
        ok = r.ok();
        if (!ok) why = r.status().ToString();
      } else {
        auto r = direct ? server->QueryObject(obj.id, t, t_end)
                        : client.QueryObject(obj.id, t, t_end);
        ok = r.ok() && !r->empty();
        if (!ok) why = "empty or " + r.status().ToString();
      }
      span.Close();
      (direct ? s.direct_ms : s.socket_ms).push_back((Now() - q0) * 1e3);
      gate.Leave();
      ++s.attempted;
      if (!ok) s.Fail("lookup of object " + std::to_string(obj.id) + ": " + why);
    }
    s.finished = Now();
  };
  std::thread lookup_threads[2] = {std::thread(lookup_loop, 0),
                                   std::thread(lookup_loop, 1)};

  std::thread window_thread([&] {
    operb::datagen::Rng rng(o.seed * 31 + 99);
    for (std::uint64_t q = 1; Now() < end; ++q) {
      const FleetObject& obj = in.objects[rng.NextBelow(in.objects.size())];
      const std::size_t i = rng.NextBelow(kPrefix - 1);
      const Window w = WindowAround(obj.points[i]);
      const bool direct = o.trace && q % 2 == 0;
      gate.Enter();
      const double q0 = Now();
      Span span(direct ? "server.window" : "client.window", q);
      auto r = direct ? server->QueryWindow(w.box, w.t_min, w.t_max, false)
                      : clients[3].QueryWindow(w.box, w.t_min, w.t_max);
      span.Close();
      (direct ? windows.direct_ms : windows.socket_ms).push_back((Now() - q0) * 1e3);
      gate.Leave();
      ++windows.attempted;
      if (!r.ok() || r->empty()) {
        windows.Fail("window: empty or " + r.status().ToString());
      } else {
        windows.returned += r->size();
      }
    }
  });

  // Meanwhile this thread seals every kSealEvery, ending a peak-RSS cycle
  // with each seal, and times the reference work every kReferenceEvery;
  // the ingest lag is scaled to nominal speed by the median.
  std::vector<double> run_reference_s;
  Samples seals;
  double next_seal = start + kSealEvery;
  do {
    run_reference_s.push_back(reference.TimeOnEveryCore());
    if (Now() >= next_seal) {
      gate.Close();
      const auto sealed = server->Seal();
      gate.Open();
      ++seals.attempted;
      if (!sealed.ok()) seals.Fail("seal: " + sealed.status().ToString());
      rss.Lap();
      next_seal += kSealEvery;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kReferenceEvery));
  } while (Now() < end);
  const double run_reference = Median(run_reference_s);
  ingest_thread.join();
  for (auto& t : lookup_threads) t.join();
  window_thread.join();
  rss.Stop();
  Tracer::SetEnabled(false);
  const operb::server::StatsBody after = server->Stats();

  for (const Samples* s : {&ingest, &lookups[0], &lookups[1], &windows, &seals}) {
    report->Attempted(s->attempted);
    if (s->failed > 0) report->Failed(s->first_failure, s->failed);
  }

  // Output check after quiescing: sampled QUERY_OBJECT answers equal the
  // offline single-stream result over the points acked so far.
  operb::datagen::Rng rng(o.seed ^ 0x11FEULL);
  std::unordered_set<operb::traj::ObjectId> sample;
  while (sample.size() < std::min(kCheckedObjects, in.objects.size())) {
    sample.insert(in.objects[rng.NextBelow(in.objects.size())].id);
  }
  std::unordered_map<operb::traj::ObjectId, std::vector<operb::geo::Point>> pts;
  for (const ObjectUpdate& u : in.preload) {
    if (sample.count(u.object_id)) pts[u.object_id].push_back(u.point);
  }
  std::uint64_t acked_points = 0;
  for (std::size_t b = 0; b < batches; ++b) {
    if (!acked[b]) continue;
    acked_points += z.batch;
    for (std::size_t k = b * z.batch; k < (b + 1) * z.batch; ++k) {
      const ObjectUpdate& u = in.stream[k];
      if (sample.count(u.object_id)) pts[u.object_id].push_back(u.point);
    }
  }
  bool tamper_pending = o.tamper;
  for (const operb::traj::ObjectId id : sample) {
    report->Attempted();
    auto got = clients[1].QueryObject(id, -kInf, kInf);
    std::vector<TimedSegment> want = SingleStreamAnswer(id, pts[id]);
    if (tamper_pending && !want.empty()) {
      want.front().segment.start.y += 1.0;
      tamper_pending = false;
    }
    if (!got.ok() || !SameAnswer(*got, want)) {
      report->Failed("object " + std::to_string(id) +
                     ": live answer differs from the offline result");
    }
  }
  clients.clear();
  const operb::Status stopped = server->Stop();
  report->Attempted();
  if (!stopped.ok()) report->Failed("server stop: " + stopped.ToString());
  const operb::server::StatsBody final_stats = server->Stats();
  server.reset();
  std::filesystem::remove_all(store_dir(kSetupRepeats - 1), ec);
  const double ratio =
      static_cast<double>(final_stats.segments_emitted + in.objects.size()) /
      static_cast<double>(final_stats.ingest_points);

  std::vector<double> lookup_ms = lookups[0].socket_ms;
  lookup_ms.insert(lookup_ms.end(), lookups[1].socket_ms.begin(),
                   lookups[1].socket_ms.end());
  std::vector<double> lookup_direct_ms = lookups[0].direct_ms;
  lookup_direct_ms.insert(lookup_direct_ms.end(), lookups[1].direct_ms.begin(),
                          lookups[1].direct_ms.end());
  // Each rate is taken over its own threads' span, so a slow last request
  // of another kind does not dilute it.
  const double pts_per_s = static_cast<double>(acked_points) / (last_ack - start);
  const double lookup_s =
      std::max(lookups[0].finished, lookups[1].finished) - start;
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("points_per_s", pts_per_s, "pts/s");
  report->EndToEnd("compression_ratio", ratio, "fraction");
  std::vector<double> lag_ms;  // at nominal speed
  for (const double ms : ingest.socket_ms) lag_ms.push_back(AtNominal(ms, run_reference));
  report->EndToEnd("latency_p50_ms", Percentile(lag_ms, 0.5), "ms");
  rss.AddTo(report);

  report->Detail("setup_s", Median(setup_s), "s", setup_s.size());
  report->Detail("points_per_s", pts_per_s, "pts/s", ingest.socket_ms.size());
  report->Detail("compression_ratio", ratio, "fraction", 1);
  ReportLatency(report, "ingest_lag", lag_ms, true);
  ReportLatency(report, "measured.ingest_lag", ingest.socket_ms, false);
  ReportLatency(report, "ingest_call", ingest_call_ms, false);
  ReportLatency(report, "lookup", lookup_ms, true);
  report->Detail("lookup_qps", static_cast<double>(lookup_ms.size()) / lookup_s,
                 "1/s", lookup_ms.size());
  ReportLatency(report, "window", windows.socket_ms, false);
  ReportReference(report, reference);
  report->Detail("run_reference_ms", run_reference * 1e3, "ms", run_reference_s.size());

  if (!o.trace) return;
  report->Layer("server.ingest_direct_p50_ms", Percentile(ingest.direct_ms, 0.5), "ms");
  report->Layer("server.lookup_direct_p50_ms", Percentile(lookup_direct_ms, 0.5), "ms");
  report->Layer("server.window_direct_p50_ms", Percentile(windows.direct_ms, 0.5), "ms");
  report->Layer("server.busy_rejects",
                static_cast<double>(after.backpressure_rejects -
                                    before.backpressure_rejects),
                "count");
  report->Layer("server.seals", static_cast<double>(after.seals - before.seals),
                "count");
  report->Layer("engine.live_objects", static_cast<double>(after.live_objects),
                "count");
  const std::size_t answered = windows.socket_ms.size() + windows.direct_ms.size();
  report->Layer("live.window_segments_returned",
                answered == 0 ? 0.0
                              : static_cast<double>(windows.returned) /
                                    static_cast<double>(answered),
                "count");
  report->Layer("live.generator_late_ms", Percentile(generator_late_ms, 0.99), "ms");
}

}  // namespace stackbench
