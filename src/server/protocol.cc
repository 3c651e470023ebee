#include "server/protocol.h"

#include "common/serial.h"
#include "traj/piecewise.h"

namespace operb::server {

void PutTimedSegment(const traj::TimedSegment& s,
                     std::vector<std::uint8_t>* out) {
  serial::PutU64(s.object_id, out);
  traj::SerializeSegment(s.segment, out);
  serial::PutF64(s.t_start, out);
  serial::PutF64(s.t_end, out);
}

bool GetTimedSegment(std::span<const std::uint8_t> in, std::size_t* pos,
                     traj::TimedSegment* s) {
  if (!serial::GetU64(in, pos, &s->object_id)) return false;
  if (!traj::DeserializeSegment(in, pos, &s->segment).ok()) return false;
  if (!serial::GetF64(in, pos, &s->t_start) ||
      !serial::GetF64(in, pos, &s->t_end)) {
    return false;
  }
  s->segment.t_start = s->t_start;
  s->segment.t_end = s->t_end;
  return true;
}

void PutStatsBody(const StatsBody& s, std::vector<std::uint8_t>* out) {
  serial::PutU64(s.live_objects, out);
  serial::PutU64(s.ingest_points, out);
  serial::PutU64(s.segments_emitted, out);
  serial::PutU64(s.sealed_segments, out);
  serial::PutU64(s.backpressure_rejects, out);
  serial::PutU64(s.seals, out);
  serial::PutU64(s.connections, out);
}

bool GetStatsBody(std::span<const std::uint8_t> in, std::size_t* pos,
                  StatsBody* s) {
  return serial::GetU64(in, pos, &s->live_objects) &&
         serial::GetU64(in, pos, &s->ingest_points) &&
         serial::GetU64(in, pos, &s->segments_emitted) &&
         serial::GetU64(in, pos, &s->sealed_segments) &&
         serial::GetU64(in, pos, &s->backpressure_rejects) &&
         serial::GetU64(in, pos, &s->seals) &&
         serial::GetU64(in, pos, &s->connections);
}

WireStatus WireStatusOf(const Status& s) {
  switch (s.code()) {
    case StatusCode::kOk:
      return WireStatus::kOk;
    case StatusCode::kNotFound:
      return WireStatus::kNotFound;
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnimplemented:
      return WireStatus::kInvalidArgument;
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
      return WireStatus::kIOError;
    default:
      return WireStatus::kInternal;
  }
}

Status StatusFromWire(WireStatus ws, const std::string& message) {
  switch (ws) {
    case WireStatus::kOk:
      return Status::OK();
    case WireStatus::kNotFound:
      return Status::NotFound(message);
    case WireStatus::kInvalidArgument:
      return Status::InvalidArgument(message);
    case WireStatus::kIOError:
      return Status::IOError(message);
    case WireStatus::kBusy:
    case WireStatus::kInternal:
      break;
  }
  return Status::Internal(message);
}

}  // namespace operb::server
