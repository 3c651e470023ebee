#include "server/client.h"

#include <chrono>
#include <thread>

#include "common/serial.h"

namespace operb::server {

namespace {

Status BusyStatus() {
  return Status::IOError("server busy (flow control) — retry");
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, std::uint16_t port) {
  OPERB_ASSIGN_OR_RETURN(Socket sock, Socket::Connect(host, port));
  return Client(std::move(sock));
}

Status Client::RoundTrip(Verb verb, const std::vector<std::uint8_t>& body,
                         std::vector<std::uint8_t>* reply) {
  OPERB_RETURN_IF_ERROR(
      SendFrame(sock_, static_cast<std::uint8_t>(verb), body));
  std::uint8_t tag = 0;
  OPERB_RETURN_IF_ERROR(RecvFrame(sock_, &tag, reply));
  const WireStatus ws = static_cast<WireStatus>(tag);
  if (ws == WireStatus::kOk) return Status::OK();
  if (ws == WireStatus::kBusy) return BusyStatus();
  return StatusFromWire(
      ws, std::string(reinterpret_cast<const char*>(reply->data()),
                      reply->size()));
}

Result<IngestAck> Client::TryIngest(
    std::span<const traj::ObjectUpdate> updates) {
  std::vector<std::uint8_t> body;
  serial::PutU32(static_cast<std::uint32_t>(updates.size()), &body);
  for (const traj::ObjectUpdate& u : updates) {
    serial::PutU64(u.object_id, &body);
    serial::PutF64(u.point.t, &body);
    serial::PutF64(u.point.x, &body);
    serial::PutF64(u.point.y, &body);
  }
  OPERB_RETURN_IF_ERROR(
      SendFrame(sock_, static_cast<std::uint8_t>(Verb::kIngest), body));
  std::uint8_t tag = 0;
  std::vector<std::uint8_t> reply;
  OPERB_RETURN_IF_ERROR(RecvFrame(sock_, &tag, &reply));
  std::size_t pos = 0;
  IngestAck ack;
  switch (static_cast<WireStatus>(tag)) {
    case WireStatus::kOk:
      ack.accepted = true;
      if (!serial::GetU64(reply, &pos, &ack.points)) {
        return Status::IOError("malformed ingest ack");
      }
      return ack;
    case WireStatus::kBusy:
      if (!serial::GetU32(reply, &pos, &ack.retry_after_ms)) {
        return Status::IOError("malformed busy reply");
      }
      return ack;
    default:
      return StatusFromWire(
          static_cast<WireStatus>(tag),
          std::string(reinterpret_cast<const char*>(reply.data()),
                      reply.size()));
  }
}

Status Client::Ingest(std::span<const traj::ObjectUpdate> updates,
                      int max_attempts) {
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    OPERB_ASSIGN_OR_RETURN(const IngestAck ack, TryIngest(updates));
    if (ack.accepted) return Status::OK();
    std::this_thread::sleep_for(
        std::chrono::milliseconds(std::max<std::uint32_t>(
            1, ack.retry_after_ms)));
  }
  return Status::IOError("server stayed busy across " +
                         std::to_string(max_attempts) + " ingest attempts");
}

Status Client::FinishObject(traj::ObjectId id) {
  std::vector<std::uint8_t> body;
  serial::PutU64(id, &body);
  std::vector<std::uint8_t> reply;
  return RoundTrip(Verb::kFinishObject, body, &reply);
}

namespace {

Result<std::vector<traj::TimedSegment>> ParseSegments(
    const std::vector<std::uint8_t>& reply) {
  std::size_t pos = 0;
  std::uint32_t count = 0;
  if (!serial::GetU32(reply, &pos, &count) ||
      count > (reply.size() - pos) / kTimedSegmentBytes) {
    return Status::IOError("malformed segment reply");
  }
  std::vector<traj::TimedSegment> out(count);
  for (traj::TimedSegment& s : out) {
    if (!GetTimedSegment(reply, &pos, &s)) {
      return Status::IOError("malformed segment reply");
    }
  }
  return out;
}

}  // namespace

Result<std::vector<traj::TimedSegment>> Client::QueryObject(traj::ObjectId id,
                                                            double t_min,
                                                            double t_max) {
  std::vector<std::uint8_t> body;
  serial::PutU64(id, &body);
  serial::PutF64(t_min, &body);
  serial::PutF64(t_max, &body);
  std::vector<std::uint8_t> reply;
  OPERB_RETURN_IF_ERROR(RoundTrip(Verb::kQueryObject, body, &reply));
  return ParseSegments(reply);
}

Result<std::vector<traj::TimedSegment>> Client::QueryWindow(
    const geo::BoundingBox& window, double t_min, double t_max,
    bool flat_scan) {
  std::vector<std::uint8_t> body;
  serial::PutF64(window.min_x, &body);
  serial::PutF64(window.min_y, &body);
  serial::PutF64(window.max_x, &body);
  serial::PutF64(window.max_y, &body);
  serial::PutF64(t_min, &body);
  serial::PutF64(t_max, &body);
  serial::PutU8(flat_scan ? 1 : 0, &body);
  std::vector<std::uint8_t> reply;
  OPERB_RETURN_IF_ERROR(RoundTrip(Verb::kQueryWindow, body, &reply));
  return ParseSegments(reply);
}

Result<geo::Point> Client::PositionAt(traj::ObjectId id, double t) {
  std::vector<std::uint8_t> body;
  serial::PutU64(id, &body);
  serial::PutF64(t, &body);
  std::vector<std::uint8_t> reply;
  OPERB_RETURN_IF_ERROR(RoundTrip(Verb::kPositionAt, body, &reply));
  std::size_t pos = 0;
  geo::Point p;
  if (!serial::GetF64(reply, &pos, &p.x) ||
      !serial::GetF64(reply, &pos, &p.y) ||
      !serial::GetF64(reply, &pos, &p.t)) {
    return Status::IOError("malformed position reply");
  }
  return p;
}

Result<StatsBody> Client::Stats() {
  std::vector<std::uint8_t> reply;
  OPERB_RETURN_IF_ERROR(RoundTrip(Verb::kStats, {}, &reply));
  std::size_t pos = 0;
  StatsBody stats;
  if (!GetStatsBody(reply, &pos, &stats)) {
    return Status::IOError("malformed stats reply");
  }
  return stats;
}

Status Client::Checkpoint(const std::string& path) {
  std::vector<std::uint8_t> body(path.begin(), path.end());
  std::vector<std::uint8_t> reply;
  return RoundTrip(Verb::kCheckpoint, body, &reply);
}

Status Client::MetricsSnapshot(const std::string& path) {
  std::vector<std::uint8_t> body(path.begin(), path.end());
  std::vector<std::uint8_t> reply;
  return RoundTrip(Verb::kMetricsSnapshot, body, &reply);
}

Result<std::uint64_t> Client::Seal() {
  std::vector<std::uint8_t> reply;
  OPERB_RETURN_IF_ERROR(RoundTrip(Verb::kSeal, {}, &reply));
  std::size_t pos = 0;
  std::uint64_t sealed = 0;
  if (!serial::GetU64(reply, &pos, &sealed)) {
    return Status::IOError("malformed seal reply");
  }
  return sealed;
}

Status Client::Shutdown() {
  std::vector<std::uint8_t> reply;
  return RoundTrip(Verb::kShutdown, {}, &reply);
}

}  // namespace operb::server
