#include "codec/segment_codec.h"

#include <bit>
#include <cstddef>
#include <string>

namespace operb::codec {

namespace {

using segment_codec_internal::Chain;

std::uint64_t Bits(double v) { return std::bit_cast<std::uint64_t>(v); }

}  // namespace

namespace segment_codec_internal {

Status BlockCorruption(const char* what) {
  return Status::Corruption(std::string("segment block: ") + what);
}

}  // namespace segment_codec_internal

void EncodeSegmentBlock(std::span<const traj::TimedSegment> segments,
                        std::vector<std::uint8_t>* out) {
  // Count runs of consecutive equal object ids.
  std::uint64_t runs = 0;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    if (i == 0 || segments[i].object_id != segments[i - 1].object_id) ++runs;
  }
  out->reserve(out->size() + 16 + segments.size() * 12);
  PutVarint(runs, out);

  Chain prev;
  std::uint64_t prev_run_id = 0;
  std::size_t i = 0;
  while (i < segments.size()) {
    const traj::ObjectId id = segments[i].object_id;
    std::size_t run_end = i;
    while (run_end < segments.size() && segments[run_end].object_id == id) {
      ++run_end;
    }
    PutVarint(ZigZag(static_cast<std::int64_t>(id - prev_run_id)), out);
    PutVarint(run_end - i, out);
    prev_run_id = id;
    for (; i < run_end; ++i) {
      const traj::RepresentedSegment& s = segments[i].segment;
      PutVarint(ZigZag(static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(s.first_index) -
                    prev.last_index)),
                out);
      PutVarint(static_cast<std::uint64_t>(s.last_index) -
                    static_cast<std::uint64_t>(s.first_index),
                out);
      out->push_back(static_cast<std::uint8_t>((s.start_is_patch ? 1 : 0) |
                                               (s.end_is_patch ? 2 : 0)));
      PutVarint(Bits(s.start.x) ^ prev.end_x, out);
      PutVarint(Bits(s.start.y) ^ prev.end_y, out);
      PutVarint(Bits(s.end.x) ^ Bits(s.start.x), out);
      PutVarint(Bits(s.end.y) ^ Bits(s.start.y), out);
      PutVarint(Bits(segments[i].t_start) ^ prev.t_end, out);
      PutVarint(Bits(segments[i].t_end) ^ Bits(segments[i].t_start), out);
      prev.last_index = static_cast<std::uint64_t>(s.last_index);
      prev.end_x = Bits(s.end.x);
      prev.end_y = Bits(s.end.y);
      prev.t_end = Bits(segments[i].t_end);
    }
  }
}

Result<std::vector<traj::TimedSegment>> DecodeSegmentBlock(
    std::span<const std::uint8_t> data) {
  std::vector<traj::TimedSegment> out;
  OPERB_RETURN_IF_ERROR(DecodeSegmentBlock(
      data, [&out](const traj::TimedSegment& s) { out.push_back(s); }));
  return out;
}

}  // namespace operb::codec
