#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/serial.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "store/query_filter.h"
#include "store/writer.h"

namespace operb::server {

namespace {

/// Cached instrument pointers (DESIGN.md §10 idiom: resolve the names
/// once, hit the lock-free instruments afterwards).
struct ServerMetrics {
  obs::Gauge* connections;
  obs::Counter* requests;
  obs::Counter* ingest_points;
  obs::Counter* backpressure_rejects;
  obs::LatencyHistogram* query_ns;
};

ServerMetrics& GetServerMetrics() {
  static ServerMetrics* const m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return new ServerMetrics{
        r.GetGauge("server.connections"),
        r.GetCounter("server.requests"),
        r.GetCounter("server.ingest_points"),
        r.GetCounter("server.backpressure_rejects"),
        r.GetHistogram("server.query_ns"),
    };
  }();
  return *m;
}

Status SendReply(Socket& sock, WireStatus ws,
                 std::span<const std::uint8_t> body) {
  return SendFrame(sock, static_cast<std::uint8_t>(ws), body);
}

Status SendOk(Socket& sock, const std::vector<std::uint8_t>& body) {
  if (body.size() > kMaxFrameBytes) {
    const std::string msg = "result exceeds the protocol frame cap";
    return SendReply(
        sock, WireStatus::kInvalidArgument,
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
  }
  return SendReply(sock, WireStatus::kOk, body);
}

Status SendError(Socket& sock, const Status& s) {
  const std::string& msg = s.message();
  return SendReply(
      sock, WireStatusOf(s),
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()));
}

Status SendBusy(Socket& sock, std::uint32_t retry_after_ms) {
  std::vector<std::uint8_t> body;
  serial::PutU32(retry_after_ms, &body);
  return SendReply(sock, WireStatus::kBusy, body);
}

bool GetPath(std::span<const std::uint8_t> body, std::string* path) {
  path->assign(reinterpret_cast<const char*>(body.data()), body.size());
  return !path->empty();
}

std::vector<std::uint8_t> SegmentsBody(
    const std::vector<traj::TimedSegment>& segments) {
  std::vector<std::uint8_t> body;
  serial::PutU32(static_cast<std::uint32_t>(segments.size()), &body);
  for (const traj::TimedSegment& s : segments) PutTimedSegment(s, &body);
  return body;
}

}  // namespace

Status ServerOptions::Validate() const {
  OPERB_RETURN_IF_ERROR(engine.Validate());
  if (store_path.empty()) {
    return Status::InvalidArgument("server store_path must be set");
  }
  if (store_shards < 1 || store_shards > 65536) {
    return Status::InvalidArgument("server store_shards out of [1, 65536]");
  }
  if (!(busy_fraction > 0.0) || busy_fraction > 1.0 ||
      !std::isfinite(busy_fraction)) {
    return Status::InvalidArgument("server busy_fraction out of (0, 1]");
  }
  if (!std::isfinite(seal_interval_seconds)) {
    return Status::InvalidArgument("server seal_interval_seconds not finite");
  }
  return Status::OK();
}

TrajectoryServer::TrajectoryServer(const ServerOptions& options)
    : options_(options) {}

Result<std::unique_ptr<TrajectoryServer>> TrajectoryServer::Start(
    const ServerOptions& options, std::uint16_t port) {
  std::unique_ptr<TrajectoryServer> server(new TrajectoryServer(options));
  OPERB_RETURN_IF_ERROR(server->StartImpl(port));
  return server;
}

Status TrajectoryServer::StartImpl(std::uint16_t port) {
  OPERB_RETURN_IF_ERROR(options_.Validate());

  // An empty opening write session gives the reader a manifest to open
  // before the first seal; every later seal is an append session.
  store::StoreWriterOptions wo;
  wo.zeta = options_.engine.spec.zeta;
  wo.num_shards = options_.store_shards;
  wo.env = options_.env;
  {
    OPERB_ASSIGN_OR_RETURN(std::unique_ptr<store::StoreWriter> writer,
                           store::StoreWriter::Create(options_.store_path, wo));
    OPERB_RETURN_IF_ERROR(writer->Close());
  }
  OPERB_ASSIGN_OR_RETURN(reader_, store::StoreReader::Open(options_.store_path));

  overlay_.reserve(options_.engine.num_shards);
  for (std::size_t s = 0; s < options_.engine.num_shards; ++s) {
    overlay_.push_back(std::make_unique<OverlayShard>());
  }

  OPERB_ASSIGN_OR_RETURN(
      engine_, engine::StreamEngine::Create(
                   options_.engine,
                   [this](const traj::TimedSegment& s) { OnSegment(s); }));

  {
    Result<Listener> listener = Listener::Bind(port);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(listener).value();
  }

  accept_thread_ = std::thread(&TrajectoryServer::AcceptLoop, this);
  if (options_.seal_interval_seconds > 0.0) {
    sealer_thread_ = std::thread(&TrajectoryServer::SealerLoop, this);
  }
  return Status::OK();
}

TrajectoryServer::~TrajectoryServer() { (void)Stop(); }

Status TrajectoryServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return stop_status_;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (sealer_thread_.joinable()) sealer_thread_.join();
  ReapConnections(/*all=*/true);
  listener_.Close();

  Status result;
  const auto note = [&result](const Status& s) {
    if (result.ok() && !s.ok()) result = s;
  };
  if (engine_ != nullptr) {
    if (!options_.final_checkpoint_path.empty()) {
      std::lock_guard<std::mutex> lock(engine_mu_);
      note(engine_->Checkpoint(options_.final_checkpoint_path, options_.env));
    }
    // Closing finishes every live object — their tails land in the
    // overlay through the timed sink — so the final seal below persists
    // the complete stream.
    std::lock_guard<std::mutex> lock(engine_mu_);
    engine_->Close();
  }
  {
    std::unique_lock<std::shared_mutex> lock(seal_mu_);
    note(SealLocked());
  }
  if (!options_.final_metrics_path.empty()) {
    note(obs::WriteSnapshotJson(options_.final_metrics_path));
  }
  std::lock_guard<std::mutex> lock(stop_mu_);
  stop_status_ = result;
  return result;
}

void TrajectoryServer::WaitForShutdownRequest() {
  while (!ShutdownRequested() && !stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

void TrajectoryServer::OnSegment(const traj::TimedSegment& s) {
  if (options_.sink_hook_for_test) options_.sink_hook_for_test(s);
  OverlayShard& shard = OverlayOf(s.object_id);
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.segments[s.object_id].push_back(s);
  }
  segments_emitted_.fetch_add(1, std::memory_order_relaxed);
}

Result<bool> TrajectoryServer::Ingest(
    std::span<const traj::ObjectUpdate> updates) {
  if (updates.empty()) return true;
  const std::size_t num_shards = options_.engine.num_shards;
  const double busy_at =
      options_.busy_fraction * static_cast<double>(engine_->RingCapacity());
  std::vector<bool> touched(num_shards, false);
  for (const traj::ObjectUpdate& u : updates) {
    touched[traj::ShardOfObject(u.object_id, num_shards)] = true;
  }
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (touched[s] &&
        static_cast<double>(engine_->RingOccupancy(s)) > busy_at) {
      backpressure_rejects_.fetch_add(1, std::memory_order_relaxed);
      GetServerMetrics().backpressure_rejects->Increment();
      return false;
    }
  }
  {
    std::lock_guard<std::mutex> lock(engine_mu_);
    engine_->Push(updates);
    // Hand everything to the rings now: the client's next query must
    // see these points (read-your-writes), and the snapshot barrier
    // only covers what left staging.
    engine_->Flush();
  }
  ingest_points_.fetch_add(updates.size(), std::memory_order_relaxed);
  GetServerMetrics().ingest_points->Add(updates.size());
  return true;
}

Status TrajectoryServer::FinishObject(traj::ObjectId id) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  engine_->FinishObject(id);
  engine_->Flush();
  return Status::OK();
}

void TrajectoryServer::AppendOverlay(traj::ObjectId id, double t_min,
                                     double t_max,
                                     std::vector<traj::TimedSegment>* out) {
  OverlayShard& shard = OverlayOf(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.segments.find(id);
  if (it == shard.segments.end()) return;
  for (const traj::TimedSegment& s : it->second) {
    if (store::IntervalsOverlap(s.t_start, s.t_end, t_min, t_max)) {
      out->push_back(s);
    }
  }
}

Result<std::vector<traj::TimedSegment>> TrajectoryServer::QueryObject(
    traj::ObjectId id, double t_min, double t_max) {
  std::shared_lock<std::shared_mutex> seal_lock(seal_mu_);

  // A live object's overlay and tail are read together on its worker,
  // so both describe the same processed prefix (no torn tails).
  std::vector<traj::TimedSegment> unsealed;
  bool live = false;
  OPERB_RETURN_IF_ERROR(engine_->SnapshotObjectTail(
      id, [&](traj::ObjectId oid, std::span<const traj::TimedSegment> tail) {
        AppendOverlay(oid, t_min, t_max, &unsealed);
        for (const traj::TimedSegment& s : tail) {
          if (store::IntervalsOverlap(s.t_start, s.t_end, t_min, t_max)) {
            unsealed.push_back(s);
          }
        }
        live = true;
      }));
  // Not live: the object is finished or unknown, so its overlay entry
  // is complete.
  if (!live) AppendOverlay(id, t_min, t_max, &unsealed);

  OPERB_ASSIGN_OR_RETURN(std::vector<traj::TimedSegment> out,
                         reader_->ReconstructObject(id, t_min, t_max));
  out.insert(out.end(), unsealed.begin(), unsealed.end());
  return out;
}

Result<std::vector<traj::TimedSegment>> TrajectoryServer::QueryWindow(
    const geo::BoundingBox& window, double t_min, double t_max,
    bool flat_scan) {
  std::shared_lock<std::shared_mutex> seal_lock(seal_mu_);

  // Same predicate the reader applies to sealed segments.
  const geo::BoundingBox inflated = store::Inflate(window, reader_->zeta());
  const auto matches = [&](const traj::TimedSegment& s) {
    return store::SegmentMatchesWindow(s, inflated, t_min, t_max);
  };
  // The unsealed layers, gathered per engine shard on that shard's
  // worker: first its whole overlay shard (finished objects and the
  // emitted part of live ones), then the tails of the live objects whose
  // summary the window cannot rule out. Overlay shard s only grows on
  // that worker, so both reads see the same processed prefix.
  std::vector<std::vector<traj::TimedSegment>> unsealed(overlay_.size());
  OPERB_RETURN_IF_ERROR(engine_->SnapshotWindowTails(
      [&](const engine::TailSummary& tail) {
        return store::ExtentMayMatchWindow(tail.box, tail.t_min, tail.t_max,
                                           inflated, t_min, t_max);
      },
      [&](std::size_t s) {
        OverlayShard& shard = *overlay_[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto& [oid, v] : shard.segments) {
          for (const traj::TimedSegment& seg : v) {
            if (matches(seg)) unsealed[s].push_back(seg);
          }
        }
      },
      [&](traj::ObjectId oid, std::span<const traj::TimedSegment> tail) {
        std::vector<traj::TimedSegment>& out =
            unsealed[traj::ShardOfObject(oid, overlay_.size())];
        for (const traj::TimedSegment& seg : tail) {
          if (matches(seg)) out.push_back(seg);
        }
      }));

  OPERB_ASSIGN_OR_RETURN(
      std::vector<traj::TimedSegment> out,
      reader_->QueryWindow(window, t_min, t_max, nullptr,
                           flat_scan ? store::ScanMode::kFlatScan
                                     : store::ScanMode::kIndexed));
  // Per object that is sealed, then overlay, then tail — emission order —
  // and stable_sort keeps it while restoring the canonical ascending-id
  // order across objects.
  for (const std::vector<traj::TimedSegment>& v : unsealed) {
    out.insert(out.end(), v.begin(), v.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const traj::TimedSegment& a,
                      const traj::TimedSegment& b) {
                     return a.object_id < b.object_id;
                   });
  return out;
}

Result<geo::Point> TrajectoryServer::PositionAt(traj::ObjectId id, double t) {
  OPERB_ASSIGN_OR_RETURN(const std::vector<traj::TimedSegment> covering,
                         QueryObject(id, t, t));
  // Mirrors StoreReader::PositionAt exactly (first covering segment,
  // same interpolation, same NotFound message) so the server's answer
  // is byte-identical to the offline path once everything is sealed.
  for (const traj::TimedSegment& s : covering) {
    if (s.t_start <= t && t <= s.t_end) {
      return store::InterpolateOnSegment(s, t);
    }
  }
  return Status::NotFound("object " + std::to_string(id) +
                          " has no stored segment covering t=" +
                          std::to_string(t));
}

StatsBody TrajectoryServer::Stats() {
  StatsBody b;
  b.live_objects = engine_->LiveObjectCount();
  b.ingest_points = ingest_points_.load(std::memory_order_relaxed);
  b.segments_emitted = segments_emitted_.load(std::memory_order_relaxed);
  {
    std::shared_lock<std::shared_mutex> lock(seal_mu_);
    b.sealed_segments = reader_->segment_count();
  }
  b.backpressure_rejects =
      backpressure_rejects_.load(std::memory_order_relaxed);
  b.seals = seals_.load(std::memory_order_relaxed);
  b.connections = connections_open_.load(std::memory_order_relaxed);
  return b;
}

Result<std::uint64_t> TrajectoryServer::Seal() {
  std::unique_lock<std::shared_mutex> lock(seal_mu_);
  OPERB_RETURN_IF_ERROR(SealLocked());
  return reader_->segment_count();
}

Status TrajectoryServer::SealLocked() {
  if (reader_ == nullptr) return Status::OK();  // Start() never finished
  if (seal_poisoned_) return seal_error_;

  // Snapshot the overlay. Copy, don't move: the segments only leave the
  // overlay after the session committed and the reader serves them —
  // a failure in between must not lose (or later duplicate) them.
  struct Pending {
    traj::ObjectId id;
    std::vector<traj::TimedSegment> segments;
  };
  std::vector<Pending> pending;
  for (const auto& shard : overlay_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [oid, v] : shard->segments) {
      if (!v.empty()) pending.push_back(Pending{oid, v});
    }
  }
  if (pending.empty()) return Status::OK();

  store::StoreWriterOptions wo;
  wo.zeta = options_.engine.spec.zeta;
  wo.num_shards = options_.store_shards;
  wo.append = true;
  wo.env = options_.env;
  Status failed;
  {
    Result<std::unique_ptr<store::StoreWriter>> writer =
        store::StoreWriter::Create(options_.store_path, wo);
    if (!writer.ok()) {
      failed = writer.status();
    } else {
      for (const Pending& p : pending) {
        for (const traj::TimedSegment& s : p.segments) {
          failed = (*writer)->Append(s);
          if (!failed.ok()) break;
        }
        if (!failed.ok()) break;
      }
      const Status closed = (*writer)->Close();
      if (failed.ok()) failed = closed;
    }
  }
  if (failed.ok()) {
    Result<std::unique_ptr<store::StoreReader>> reader =
        store::StoreReader::Open(options_.store_path);
    if (!reader.ok()) {
      failed = reader.status();
    } else {
      reader_ = std::move(reader).value();
    }
  }
  if (!failed.ok()) {
    // A torn session may have committed part of these segments; sealing
    // again would duplicate them. Keep serving the old reader plus the
    // intact overlay — that view is still correct — and report at Stop.
    seal_poisoned_ = true;
    seal_error_ = failed;
    return failed;
  }

  // The new reader serves the copied segments; drop them from the
  // overlay (anything appended since the copy stays).
  for (const Pending& p : pending) {
    OverlayShard& shard = OverlayOf(p.id);
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.segments.find(p.id);
    if (it == shard.segments.end()) continue;
    std::vector<traj::TimedSegment>& v = it->second;
    v.erase(v.begin(),
            v.begin() + static_cast<std::ptrdiff_t>(
                            std::min(p.segments.size(), v.size())));
    if (v.empty()) shard.segments.erase(it);
  }
  seals_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status TrajectoryServer::WriteCheckpoint(const std::string& path) {
  std::lock_guard<std::mutex> lock(engine_mu_);
  return engine_->Checkpoint(path, options_.env);
}

Status TrajectoryServer::WriteMetricsSnapshot(const std::string& path) {
  return obs::WriteSnapshotJson(path);
}

void TrajectoryServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<Socket> accepted = listener_.AcceptWithTimeout(100);
    ReapConnections(/*all=*/false);
    if (!accepted.ok()) {
      // The listener broke (not a timeout); don't spin on the error.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    if (!accepted->valid()) continue;  // timeout: poll stop_ again
    auto conn = std::make_unique<Connection>();
    conn->sock = std::move(accepted).value();
    Connection* raw = conn.get();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(std::move(conn));
    }
    raw->thread = std::thread(&TrajectoryServer::ServeConnection, this, raw);
  }
}

void TrajectoryServer::SealerLoop() {
  const auto interval = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::duration<double>(options_.seal_interval_seconds));
  while (!stop_.load(std::memory_order_acquire)) {
    // Sleep in slices so Stop() is never held up by a long interval.
    auto remaining = interval;
    while (remaining.count() > 0 &&
           !stop_.load(std::memory_order_acquire)) {
      const auto slice = std::min(remaining, std::chrono::milliseconds(20));
      std::this_thread::sleep_for(slice);
      remaining -= slice;
    }
    if (stop_.load(std::memory_order_acquire)) break;
    std::unique_lock<std::shared_mutex> lock(seal_mu_);
    // Errors poison the seal path and resurface at Stop(); the serving
    // view stays correct either way.
    (void)SealLocked();
  }
}

void TrajectoryServer::ServeConnection(Connection* conn) {
  connections_open_.fetch_add(1, std::memory_order_relaxed);
  GetServerMetrics().connections->Add(1);
  for (;;) {
    std::uint8_t tag = 0;
    std::vector<std::uint8_t> body;
    if (!RecvFrame(conn->sock, &tag, &body).ok()) break;
    if (!Dispatch(conn, static_cast<Verb>(tag), body)) break;
  }
  connections_open_.fetch_sub(1, std::memory_order_relaxed);
  GetServerMetrics().connections->Sub(1);
  // The socket stays open (not Close()d) until ReapConnections joins
  // and destroys us: Stop()'s ShutdownBoth may race this exit, and
  // shutdown(2) on a still-open descriptor is safe where close is not.
  conn->done.store(true, std::memory_order_release);
}

bool TrajectoryServer::Dispatch(Connection* conn, Verb verb,
                                std::span<const std::uint8_t> body) {
  GetServerMetrics().requests->Increment();
  std::size_t pos = 0;
  const auto malformed = [&]() {
    return SendError(conn->sock,
                     Status::InvalidArgument("malformed request body"))
        .ok();
  };
  switch (verb) {
    case Verb::kIngest: {
      std::uint32_t n = 0;
      if (!serial::GetU32(body, &pos, &n)) return malformed();
      // The count is the peer's word: bound it by the bytes that are
      // actually there before allocating for it.
      if (n > (body.size() - pos) / kIngestUpdateBytes) return malformed();
      std::vector<traj::ObjectUpdate> updates(n);
      for (traj::ObjectUpdate& u : updates) {
        double t = 0.0;
        if (!serial::GetU64(body, &pos, &u.object_id) ||
            !serial::GetF64(body, &pos, &t) ||
            !serial::GetF64(body, &pos, &u.point.x) ||
            !serial::GetF64(body, &pos, &u.point.y)) {
          return malformed();
        }
        u.point.t = t;
      }
      Result<bool> accepted = Ingest(updates);
      if (!accepted.ok()) return SendError(conn->sock, accepted.status()).ok();
      if (!*accepted) {
        return SendBusy(conn->sock, options_.busy_retry_ms).ok();
      }
      std::vector<std::uint8_t> reply;
      serial::PutU64(n, &reply);
      return SendOk(conn->sock, reply).ok();
    }
    case Verb::kFinishObject: {
      traj::ObjectId id = 0;
      if (!serial::GetU64(body, &pos, &id)) return malformed();
      const Status s = FinishObject(id);
      if (!s.ok()) return SendError(conn->sock, s).ok();
      return SendOk(conn->sock, {}).ok();
    }
    case Verb::kQueryObject: {
      traj::ObjectId id = 0;
      double t_min = 0.0;
      double t_max = 0.0;
      if (!serial::GetU64(body, &pos, &id) ||
          !serial::GetF64(body, &pos, &t_min) ||
          !serial::GetF64(body, &pos, &t_max)) {
        return malformed();
      }
      Result<std::vector<traj::TimedSegment>> r = [&] {
        obs::ScopedTimer timer(GetServerMetrics().query_ns);
        return QueryObject(id, t_min, t_max);
      }();
      if (!r.ok()) return SendError(conn->sock, r.status()).ok();
      return SendOk(conn->sock, SegmentsBody(*r)).ok();
    }
    case Verb::kQueryWindow: {
      geo::BoundingBox window;
      double t_min = 0.0;
      double t_max = 0.0;
      std::uint8_t flat = 0;
      if (!serial::GetF64(body, &pos, &window.min_x) ||
          !serial::GetF64(body, &pos, &window.min_y) ||
          !serial::GetF64(body, &pos, &window.max_x) ||
          !serial::GetF64(body, &pos, &window.max_y) ||
          !serial::GetF64(body, &pos, &t_min) ||
          !serial::GetF64(body, &pos, &t_max) ||
          !serial::GetU8(body, &pos, &flat)) {
        return malformed();
      }
      Result<std::vector<traj::TimedSegment>> r = [&] {
        obs::ScopedTimer timer(GetServerMetrics().query_ns);
        return QueryWindow(window, t_min, t_max, flat != 0);
      }();
      if (!r.ok()) return SendError(conn->sock, r.status()).ok();
      return SendOk(conn->sock, SegmentsBody(*r)).ok();
    }
    case Verb::kPositionAt: {
      traj::ObjectId id = 0;
      double t = 0.0;
      if (!serial::GetU64(body, &pos, &id) ||
          !serial::GetF64(body, &pos, &t)) {
        return malformed();
      }
      Result<geo::Point> r = [&] {
        obs::ScopedTimer timer(GetServerMetrics().query_ns);
        return PositionAt(id, t);
      }();
      if (!r.ok()) return SendError(conn->sock, r.status()).ok();
      std::vector<std::uint8_t> reply;
      serial::PutF64(r->x, &reply);
      serial::PutF64(r->y, &reply);
      serial::PutF64(r->t, &reply);
      return SendOk(conn->sock, reply).ok();
    }
    case Verb::kStats: {
      std::vector<std::uint8_t> reply;
      PutStatsBody(Stats(), &reply);
      return SendOk(conn->sock, reply).ok();
    }
    case Verb::kCheckpoint: {
      std::string path;
      if (!GetPath(body, &path)) return malformed();
      const Status s = WriteCheckpoint(path);
      if (!s.ok()) return SendError(conn->sock, s).ok();
      return SendOk(conn->sock, {}).ok();
    }
    case Verb::kMetricsSnapshot: {
      std::string path;
      if (!GetPath(body, &path)) return malformed();
      const Status s = WriteMetricsSnapshot(path);
      if (!s.ok()) return SendError(conn->sock, s).ok();
      return SendOk(conn->sock, {}).ok();
    }
    case Verb::kSeal: {
      Result<std::uint64_t> sealed = Seal();
      if (!sealed.ok()) return SendError(conn->sock, sealed.status()).ok();
      std::vector<std::uint8_t> reply;
      serial::PutU64(*sealed, &reply);
      return SendOk(conn->sock, reply).ok();
    }
    case Verb::kShutdown: {
      // Order matters: the flag is visible before the client's ok reply
      // lands, so "Shutdown() returned" implies ShutdownRequested().
      shutdown_requested_.store(true, std::memory_order_release);
      (void)SendOk(conn->sock, {});
      return false;
    }
  }
  return SendError(conn->sock,
                   Status::InvalidArgument(
                       "unknown verb " +
                       std::to_string(static_cast<unsigned>(verb))))
      .ok();
}

void TrajectoryServer::ReapConnections(bool all) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    Connection* c = it->get();
    if (all) c->sock.ShutdownBoth();  // wakes a blocked RecvFrame
    if (all || c->done.load(std::memory_order_acquire)) {
      if (c->thread.joinable()) c->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace operb::server
