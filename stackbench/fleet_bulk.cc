// fleet_bulk: the offline backend job (operb_cli --group-by-id
// --store-out, then --query). About 100k objects with Zipf-skewed sizes,
// merged in timestamp order into id,t,x,y CSV bytes. The write phase
// parses them into a StreamEngine whose timed sink appends to a sharded
// StoreWriter, closes both and reopens the store; the read phase runs a
// closed-loop seeded mix of lookups and small window queries on one
// thread. The server is idle here.
//
// The 100k-object working set makes engine routing miss cache, and the
// timestamp merge leaves per-object runs of length 1, which bypasses the
// batched fitting window.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "inputs.h"
#include "store/reader.h"
#include "store/writer.h"
#include "traj/io.h"
#include "workloads.h"

namespace stackbench {

namespace {

using operb::traj::ObjectUpdate;
using operb::traj::TimedSegment;

constexpr double kZeta = 40.0;
constexpr std::size_t kEngineShards = 8;
constexpr std::size_t kStoreShards = 4;
constexpr std::size_t kPushChunk = 8192;
/// Share of the measured time given to the write phase.
constexpr double kWriteShare = 0.5;
constexpr int kMinWrites = 2;
constexpr std::size_t kCheckedObjects = 300;
constexpr std::size_t kFlatCompared = 50;
/// Seconds between timings of the reference work in the read phase.
constexpr double kReferenceEvery = 0.05;

struct Inputs {
  std::vector<FleetObject> objects;  ///< ascending id
  std::string csv;
  std::size_t points = 0;
};

Inputs BuildInputs(const RunOptions& o) {
  FleetSpec spec;
  spec.seed = o.seed;
  if (o.smoke) {
    spec.objects /= 20;
    spec.total_points /= 20;
  }
  Inputs in;
  in.objects = GenerateFleet(spec);
  std::vector<std::size_t> begin(in.objects.size(), 0);
  std::vector<std::size_t> end;
  for (const auto& obj : in.objects) end.push_back(obj.points.size());
  const std::vector<ObjectUpdate> merged = MergeByTime(in.objects, begin, end);
  in.points = merged.size();
  in.csv = operb::traj::WriteMultiObjectCsvString(merged);
  return in;
}

struct WriteResult {
  double seconds = 0.0;
  operb::engine::StreamEngineStats engine;
  operb::store::StoreWriterStats store;
  double append_s = 0.0;  ///< summed over worker threads
  std::unique_ptr<operb::store::StoreReader> reader;
};

/// One write phase: CSV bytes in -> durable store, reopened.
WriteResult WriteOnce(const std::string& csv, const std::string& dir,
                      std::uint64_t request, Report* report) {
  WriteResult w;
  const double t0 = Now();
  Span root("fleet_bulk.write", request);
  std::vector<ObjectUpdate> updates;
  {
    Span s("traj.parse_multi");
    auto parsed = operb::traj::ParseMultiObjectCsv(csv);
    if (!parsed.ok()) {
      report->Failed("parse: " + parsed.status().ToString());
      return w;
    }
    updates = std::move(*parsed);
  }
  std::unique_ptr<operb::store::StoreWriter> writer;
  {
    Span s("store.create");
    operb::store::StoreWriterOptions so;
    so.zeta = kZeta;
    so.num_shards = kStoreShards;
    auto created = operb::store::StoreWriter::Create(dir, so);
    if (!created.ok()) {
      report->Failed("store create: " + created.status().ToString());
      return w;
    }
    writer = std::move(*created);
  }
  std::unique_ptr<operb::engine::StreamEngine> engine;
  {
    Span s("engine.create");
    operb::engine::StreamEngineOptions eo;
    eo.spec.zeta = kZeta;
    eo.num_shards = kEngineShards;
    eo.num_threads = 2;
    eo.track_segment_times = true;
    auto created = operb::engine::StreamEngine::Create(eo, nullptr);
    if (!created.ok()) {
      report->Failed("engine create: " + created.status().ToString());
      return w;
    }
    engine = std::move(*created);
  }
  std::atomic<std::uint64_t> append_ns{0};
  std::atomic<std::uint64_t> append_failures{0};
  const bool traced = Tracer::enabled();
  engine->SetTimedSink([&](const TimedSegment& seg) {
    const double a0 = traced ? Now() : 0.0;
    if (!writer->Append(seg).ok()) append_failures.fetch_add(1);
    if (traced) {
      append_ns.fetch_add(static_cast<std::uint64_t>((Now() - a0) * 1e9),
                          std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 0; i < updates.size(); i += kPushChunk) {
    Span s("engine.push");
    const std::size_t n = std::min(kPushChunk, updates.size() - i);
    engine->Push(std::span<const ObjectUpdate>(updates.data() + i, n));
  }
  {
    Span s("engine.close");
    engine->Close();
  }
  operb::Status closed;
  {
    Span s("store.close");
    closed = writer->Close();
  }
  {
    Span s("store.open");
    auto opened = operb::store::StoreReader::Open(dir);
    if (opened.ok()) w.reader = std::move(*opened);
    else closed = opened.status();
  }
  w.seconds = Now() - t0;
  root.Close();
  report->Attempted();
  if (!closed.ok() || append_failures.load() != 0) {
    report->Failed("write phase: " + closed.ToString() + ", " +
                   std::to_string(append_failures.load()) + " failed appends");
    w.reader.reset();
  }
  w.engine = engine->stats();
  w.store = writer->stats();
  w.append_s = static_cast<double>(append_ns.load()) * 1e-9;
  return w;
}

void Accumulate(const operb::store::StoreQueryStats& one,
                operb::store::StoreQueryStats* total) {
  total->blocks_scanned += one.blocks_scanned;
  total->blocks_skipped += one.blocks_skipped;
  total->segments_scanned += one.segments_scanned;
  total->segments_matched += one.segments_matched;
  total->index_nodes_visited += one.index_nodes_visited;
}

}  // namespace

void RunFleetBulk(const RunOptions& o, Report* report) {
  ReferenceWork reference;
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs();
    setup_s.push_back(NominalSeconds(reference, [&] { in = BuildInputs(o); }));
  }
  report->Fact("input_hash", Hex(HashBytes(in.csv)));
  report->Fact("objects", std::to_string(in.objects.size()));
  report->Fact("points", std::to_string(in.points));
  report->Fact("csv_bytes", std::to_string(in.csv.size()));
  RssMeter rss;
  rss.Start(report);
  // Each write phase gets a fresh directory, so deleting the previous
  // store is not timed; all of them are removed after the run.
  const auto store_dir = [&o](int rep) {
    return o.work_dir + "/fleet_bulk-store-" + std::to_string(rep);
  };

  // Write phase, repeated, the reference work timed before and after each
  // write; a traced run alternates traced and untraced repeats, like
  // device's rounds.
  const double start = Now();
  const double trace_since = start;
  std::vector<double> write_s[2];  // [traced], at nominal speed
  std::vector<double> measured_write_s[2];
  WriteResult last;
  double append_s_traced = 0.0;
  int reps = 0;
  double reference_s = reference.TimeOnEveryCore(3);
  for (int rep = 0; rep < kMinWrites || Now() - start < kWriteShare * o.seconds;
       ++rep) {
    reps = rep + 1;
    const bool traced = o.trace && rep % 2 == 1;
    Tracer::SetEnabled(traced);
    last.reader.reset();
    last = WriteOnce(in.csv, store_dir(rep), static_cast<std::uint64_t>(rep) + 1,
                     report);
    Tracer::SetEnabled(false);
    if (last.reader == nullptr) return;
    const double before_s = reference_s;
    reference_s = reference.TimeOnEveryCore(3);
    write_s[traced].push_back(
        AtNominal(last.seconds, 0.5 * (before_s + reference_s)));
    measured_write_s[traced].push_back(last.seconds);
    if (traced) append_s_traced += last.append_s;
  }
  const operb::store::StoreReader& reader = *last.reader;
  const double points = static_cast<double>(in.points);

  // Read phase: closed loop on one thread until the run's time is up.
  // 40% PositionAt, 40% ReconstructObject over a sub-range, 20% windows;
  // every target time lies strictly inside the chosen object's samples.
  // Each query is scaled to nominal speed by the reference work last timed,
  // at most kReferenceEvery before it.
  operb::datagen::Rng rng(o.seed ^ 0xB01CULL);
  std::vector<double> lookup_ms;  // at nominal speed
  std::vector<double> window_ms;  // at nominal speed
  std::vector<double> measured_window_ms;
  double referenced = 0.0;
  operb::store::StoreQueryStats lookup_stats;
  operb::store::StoreQueryStats window_stats;
  struct Issued {
    Window w;
    std::uint64_t hash;
  };
  std::vector<Issued> windows;
  Tracer::SetEnabled(o.trace);
  for (std::uint64_t q = 1; Now() - start < o.seconds || window_ms.empty(); ++q) {
    const FleetObject& obj = in.objects[rng.NextBelow(in.objects.size())];
    const std::size_t i = rng.NextBelow(obj.points.size() - 1);
    const double t = 0.5 * (obj.points[i].t + obj.points[i + 1].t);
    const std::uint64_t kind = rng.NextBelow(10);
    operb::store::StoreQueryStats one;
    report->Attempted();
    if (Now() - referenced >= kReferenceEvery) {
      reference_s = reference.Time();
      referenced = Now();
    }
    const auto nominal_ms = [reference_s](double s) {
      return AtNominal(s, reference_s) * 1e3;
    };
    if (kind < 4) {
      Span s("store.position_at", q);
      auto r = reader.PositionAt(obj.id, t, &one);
      lookup_ms.push_back(nominal_ms(s.Close()));
      Accumulate(one, &lookup_stats);
      if (!r.ok()) report->Failed("PositionAt: " + r.status().ToString());
    } else if (kind < 8) {
      const std::size_t j = i + 1 + rng.NextBelow(obj.points.size() - 1 - i);
      const double t_end = j + 1 < obj.points.size()
                               ? 0.5 * (obj.points[j].t + obj.points[j + 1].t)
                               : obj.points[j].t - 1e-3;
      Span s("store.reconstruct", q);
      auto r = reader.ReconstructObject(obj.id, t, std::max(t, t_end),
                                        &one);
      lookup_ms.push_back(nominal_ms(s.Close()));
      Accumulate(one, &lookup_stats);
      if (!r.ok() || r->empty()) {
        report->Failed("ReconstructObject: empty or " + r.status().ToString());
      }
    } else {
      const Window w = WindowAround(obj.points[i]);
      Span s("store.window", q);
      auto r = reader.QueryWindow(w.box, w.t_min, w.t_max, &one);
      const double dt = s.Close();
      window_ms.push_back(nominal_ms(dt));
      measured_window_ms.push_back(dt * 1e3);
      Accumulate(one, &window_stats);
      if (!r.ok() || r->empty()) {
        report->Failed("QueryWindow: empty or " + r.status().ToString());
        continue;
      }
      if (windows.size() < kFlatCompared) windows.push_back({w, HashTimed(*r)});
    }
  }
  Tracer::SetEnabled(false);
  rss.Stop();

  // Output checks, untimed. Indexed window answers equal flat-scan ones.
  std::vector<double> flat_ms;
  for (std::size_t k = 0; k < windows.size(); ++k) {
    const Window& w = windows[k].w;
    const double f0 = Now();
    auto r = reader.QueryWindow(w.box, w.t_min, w.t_max, nullptr,
                                operb::store::ScanMode::kFlatScan);
    flat_ms.push_back((Now() - f0) * 1e3);
    report->Attempted();
    std::uint64_t h = r.ok() ? HashTimed(*r) : 0;
    if (o.tamper && k == 0) h ^= 1;
    if (!r.ok() || h != windows[k].hash) report->Failed("flat scan differs from index");
  }
  // Store reconstruction of a seeded sample equals single-stream
  // simplification of the object's points as parsed from the CSV.
  std::unordered_set<operb::traj::ObjectId> sample;
  while (sample.size() < std::min(kCheckedObjects, in.objects.size())) {
    sample.insert(in.objects[rng.NextBelow(in.objects.size())].id);
  }
  auto parsed = operb::traj::ParseMultiObjectCsv(in.csv);
  std::unordered_map<operb::traj::ObjectId, std::vector<operb::geo::Point>> pts;
  if (parsed.ok()) {
    for (const ObjectUpdate& u : *parsed) {
      if (sample.count(u.object_id)) pts[u.object_id].push_back(u.point);
    }
  }
  bool tamper_pending = o.tamper;
  for (const operb::traj::ObjectId id : sample) {
    report->Attempted();
    auto stored = reader.ReconstructObject(id);
    std::vector<TimedSegment> want = SingleStreamAnswer(id, pts[id]);
    if (tamper_pending && !want.empty()) {
      want.back().t_end += 1.0;
      tamper_pending = false;
    }
    if (!stored.ok() || !SameAnswer(*stored, want)) {
      report->Failed("object " + std::to_string(id) +
                     ": store reconstruction differs from single-stream");
    }
  }

  last.reader.reset();
  for (int rep = 0; rep < reps; ++rep) {
    std::error_code ec;
    std::filesystem::remove_all(store_dir(rep), ec);
  }

  // Shard skew of the input under the engine's routing.
  std::vector<double> per_shard(kEngineShards, 0.0);
  for (const FleetObject& obj : in.objects) {
    per_shard[operb::traj::ShardOfObject(obj.id, kEngineShards)] +=
        static_cast<double>(obj.points.size());
  }
  const double skew = *std::max_element(per_shard.begin(), per_shard.end()) /
                      (points / kEngineShards);

  const double pts_per_s = points / Median(write_s[0]);
  const double ratio =
      static_cast<double>(last.engine.segments + in.objects.size()) / points;
  const double bytes_per_point = static_cast<double>(last.store.file_bytes) / points;
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("points_per_s", pts_per_s, "pts/s");
  report->EndToEnd("compression_ratio", ratio, "fraction");
  report->EndToEnd("latency_p50_ms", Percentile(window_ms, 0.5), "ms");
  rss.AddTo(report);

  report->Detail("setup_s", Median(setup_s), "s", setup_s.size());
  report->Detail("points_per_s", pts_per_s, "pts/s", write_s[0].size());
  report->Detail("measured.points_per_s", points / Median(measured_write_s[0]),
                 "pts/s", measured_write_s[0].size());
  report->Detail("compression_ratio", ratio, "fraction", 1);
  report->Detail("bytes_per_point", bytes_per_point, "B/pt", 1);
  ReportLatency(report, "window", window_ms, true);
  ReportLatency(report, "lookup", lookup_ms, true);
  ReportLatency(report, "measured.window", measured_window_ms, false);
  ReportReference(report, reference);

  if (!o.trace) return;
  const std::size_t traced_writes = write_s[1].size();
  const double per_write = traced_writes == 0 ? 0.0 : 1.0 / traced_writes;
  const auto self = Tracer::SelfTimeByName(trace_since);
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  const char* write_layers[] = {"traj.parse_multi", "store.create",
                                "engine.create",    "engine.push",
                                "engine.close",     "store.close",
                                "store.open"};
  double layers = 0.0;
  for (const char* l : write_layers) layers += self_of(l);
  double traced_wall = 0.0;
  for (const double s : measured_write_s[1]) traced_wall += s;
  report->Layer("traj.parse_multi_s", self_of("traj.parse_multi") * per_write, "s");
  report->Layer("engine.push_s", self_of("engine.push") * per_write, "s");
  report->Layer("engine.close_s", self_of("engine.close") * per_write, "s");
  report->Layer("engine.ring_full_stalls",
                static_cast<double>(last.engine.ring_full_stalls), "count");
  report->Layer("engine.peak_live_objects",
                static_cast<double>(last.engine.peak_live_objects), "count");
  report->Layer("engine.states_allocated",
                static_cast<double>(last.engine.states_allocated), "count");
  report->Layer("engine.shard_skew", skew, "ratio");
  report->Layer("store.append_s", append_s_traced * per_write, "s");
  report->Layer("store.close_s", self_of("store.close") * per_write, "s");
  report->Layer("store.open_s", self_of("store.open") * per_write, "s");
  report->Layer("store.blocks", static_cast<double>(last.store.blocks), "count");
  report->Layer("store.file_bytes", static_cast<double>(last.store.file_bytes), "B");
  report->Layer("store.write_amplification", last.store.write_amplification,
                "ratio");
  const auto per = [](std::uint64_t v, std::size_t n) {
    return n == 0 ? 0.0 : static_cast<double>(v) / static_cast<double>(n);
  };
  const auto match = [](const operb::store::StoreQueryStats& s) {
    return s.segments_scanned == 0
               ? 0.0
               : static_cast<double>(s.segments_matched) /
                     static_cast<double>(s.segments_scanned);
  };
  report->Layer("store.window.blocks_scanned",
                per(window_stats.blocks_scanned, window_ms.size()), "count");
  report->Layer("store.window.blocks_skipped",
                per(window_stats.blocks_skipped, window_ms.size()), "count");
  report->Layer("store.window.index_nodes_visited",
                per(window_stats.index_nodes_visited, window_ms.size()), "count");
  report->Layer("store.window.match_ratio", match(window_stats), "fraction");
  report->Layer("store.window_flat_p50_ms", Percentile(flat_ms, 0.5), "ms");
  report->Layer("store.lookup.blocks_scanned",
                per(lookup_stats.blocks_scanned, lookup_ms.size()), "count");
  report->Layer("store.lookup.match_ratio", match(lookup_stats), "fraction");
  report->Layer("fleet_bulk.residual_s", (traced_wall - layers) * per_write, "s");
  report->Layer("trace.overhead_points_per_s",
                traced_writes == 0 ? 0.0 : points / Median(write_s[1]) - pts_per_s,
                "pts/s");
}

}  // namespace stackbench
