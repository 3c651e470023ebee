#include "traj/piecewise.h"

#include <cmath>
#include <cstdio>

#include "common/serial.h"

namespace operb::traj {

namespace {

bool NearlyEqual(geo::Vec2 a, geo::Vec2 b) {
  // Endpoints are copied, not recomputed, so exact equality normally
  // holds; the epsilon only forgives benign float noise from patch-point
  // construction.
  return std::fabs(a.x - b.x) <= 1e-6 && std::fabs(a.y - b.y) <= 1e-6;
}

}  // namespace

void SerializeSegment(const RepresentedSegment& s,
                      std::vector<std::uint8_t>* out) {
  serial::PutF64(s.start.x, out);
  serial::PutF64(s.start.y, out);
  serial::PutF64(s.end.x, out);
  serial::PutF64(s.end.y, out);
  serial::PutU64(s.first_index, out);
  serial::PutU64(s.last_index, out);
  serial::PutU8(s.start_is_patch ? 1 : 0, out);
  serial::PutU8(s.end_is_patch ? 1 : 0, out);
}

Status DeserializeSegment(std::span<const std::uint8_t> in, std::size_t* pos,
                          RepresentedSegment* s) {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  std::uint8_t start_patch = 0;
  std::uint8_t end_patch = 0;
  if (!serial::GetF64(in, pos, &s->start.x) ||
      !serial::GetF64(in, pos, &s->start.y) ||
      !serial::GetF64(in, pos, &s->end.x) ||
      !serial::GetF64(in, pos, &s->end.y) ||
      !serial::GetU64(in, pos, &first) || !serial::GetU64(in, pos, &last) ||
      !serial::GetU8(in, pos, &start_patch) ||
      !serial::GetU8(in, pos, &end_patch)) {
    return Status::Corruption("truncated segment encoding");
  }
  if (start_patch > 1 || end_patch > 1) {
    return Status::Corruption("segment patch flag out of range");
  }
  s->first_index = static_cast<std::size_t>(first);
  s->last_index = static_cast<std::size_t>(last);
  s->start_is_patch = start_patch != 0;
  s->end_is_patch = end_patch != 0;
  return Status::OK();
}

void SerializeTimedSegment(const RepresentedSegment& s,
                           std::vector<std::uint8_t>* out) {
  SerializeSegment(s, out);
  serial::PutF64(s.t_start, out);
  serial::PutF64(s.t_end, out);
}

Status DeserializeTimedSegment(std::span<const std::uint8_t> in,
                               std::size_t* pos, RepresentedSegment* s) {
  OPERB_RETURN_IF_ERROR(DeserializeSegment(in, pos, s));
  if (!serial::GetF64(in, pos, &s->t_start) ||
      !serial::GetF64(in, pos, &s->t_end)) {
    return Status::Corruption("truncated segment times");
  }
  return Status::OK();
}

std::string RepresentedSegment::ToString() const {
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "[(%.3f,%.3f)->(%.3f,%.3f) covers %zu..%zu%s%s]", start.x,
                start.y, end.x, end.y, first_index, last_index,
                start_is_patch ? " start*" : "", end_is_patch ? " end*" : "");
  return buf;
}

Status PiecewiseRepresentation::ValidateAgainst(
    const Trajectory& original) const {
  if (original.size() < 2) {
    if (!segments_.empty()) {
      return Status::InvalidArgument(
          "representation of a <2 point trajectory must be empty");
    }
    return Status::OK();
  }
  if (segments_.empty()) {
    return Status::InvalidArgument("empty representation");
  }
  if (segments_.front().first_index != 0) {
    return Status::InvalidArgument("first segment does not start at index 0");
  }
  if (segments_.back().last_index != original.size() - 1) {
    return Status::InvalidArgument("last segment does not end at last index");
  }
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const RepresentedSegment& s = segments_[i];
    if (s.first_index > s.last_index || s.last_index >= original.size()) {
      return Status::InvalidArgument("segment " + std::to_string(i) +
                                     " has an invalid index range");
    }
    if (!s.start_is_patch &&
        !NearlyEqual(s.start, original[s.first_index].pos())) {
      return Status::InvalidArgument(
          "segment " + std::to_string(i) +
          " start does not match its first represented point");
    }
    if (!s.end_is_patch && !NearlyEqual(s.end, original[s.last_index].pos())) {
      return Status::InvalidArgument(
          "segment " + std::to_string(i) +
          " end does not match its last represented point");
    }
    // Times are copied from the points, never computed: compare exactly.
    if (s.t_start != original[s.first_index].t ||
        s.t_end != original[s.last_index].t) {
      return Status::InvalidArgument(
          "segment " + std::to_string(i) +
          " times do not match its represented points");
    }
    if (i > 0) {
      const RepresentedSegment& prev = segments_[i - 1];
      // Ordinary neighbours share their boundary point; a patched
      // junction (both sides flagged) instead skips exactly the
      // eliminated anomalous segment's boundary, leaving a one-index gap.
      const bool patched_junction = prev.end_is_patch && s.start_is_patch;
      const bool chains =
          s.first_index == prev.last_index ||
          (patched_junction && s.first_index == prev.last_index + 1);
      if (!chains) {
        return Status::InvalidArgument("index ranges of segments " +
                                       std::to_string(i - 1) + " and " +
                                       std::to_string(i) + " do not chain");
      }
      if (!NearlyEqual(s.start, prev.end)) {
        return Status::InvalidArgument("segments " + std::to_string(i - 1) +
                                       " and " + std::to_string(i) +
                                       " are not continuous");
      }
    }
  }
  return Status::OK();
}

std::string PiecewiseRepresentation::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "PiecewiseRepresentation{%zu segments}",
                segments_.size());
  return buf;
}

}  // namespace operb::traj
