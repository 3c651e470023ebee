#ifndef OPERB_CODEC_SEGMENT_CODEC_H_
#define OPERB_CODEC_SEGMENT_CODEC_H_

/// \file
/// Exact (bit-preserving) block codec for id-tagged, time-annotated
/// simplified segments — the trajectory store payload format.

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "codec/varint.h"
#include "common/result.h"
#include "common/status.h"
#include "traj/multi_object.h"

namespace operb::codec {

/// Lossless block codec for id-tagged, time-annotated simplified segments
/// — the payload format of the trajectory store's blocks (src/store).
///
/// Segments are grouped into *runs* of consecutive equal object ids (the
/// encoder forms the runs itself; a block the store seals holds each
/// object's segments contiguously, so one object is one run). Within a
/// run everything is delta-encoded against the previous segment:
///
///  - `first_index` as a zigzag varint delta against the previous
///    segment's `last_index` (adjacent segments chain, so this is
///    usually 0);
///  - `last_index` as a plain varint delta against `first_index`;
///  - patch flags as one byte (bit 0 start, bit 1 end);
///  - the four endpoint coordinates and the two timestamps as varints of
///    the IEEE-754 bit pattern XORed with the corresponding field of the
///    predecessor (`start` against the previous `end`, `t_start` against
///    the previous `t_end`), so the continuity of a piecewise
///    representation — each segment starts where the last one ended —
///    encodes as a single zero byte per shared field.
///
/// XOR of raw bit patterns makes the codec exact: DecodeSegmentBlock
/// reproduces every double bit-for-bit, which is what lets the store's
/// round-trip tests compare against the golden fixtures with `==` and
/// what keeps the stored zeta bound a theorem rather than a tolerance
/// (contrast DeltaEncode, which quantizes).
void EncodeSegmentBlock(std::span<const traj::TimedSegment> segments,
                        std::vector<std::uint8_t>* out);

/// Inverse of EncodeSegmentBlock, decoding in place: hands each segment,
/// in encoded order, to `visit(const traj::TimedSegment&)` and keeps
/// nothing itself, so a reader can filter a block without building a
/// copy of it. Returns Corruption on truncated or malformed input: a
/// truncated varint, a run count or run length larger than the payload,
/// patch flags above 3, or bytes left over after the last run. The
/// visitor may already have seen the segments before the fault, so a
/// caller must drop what it gathered when this fails. On success the
/// visited segments reproduce the encoder's input exactly (ids, indices,
/// flags, coordinates, times); the record's times are written both to
/// the TimedSegment and to its `segment`, so the two never disagree.
template <typename Visit>
Status DecodeSegmentBlock(std::span<const std::uint8_t> data, Visit&& visit);

/// DecodeSegmentBlock into a vector: the same decode loop and verdicts,
/// for callers that want the whole block (the compactor, tests).
Result<std::vector<traj::TimedSegment>> DecodeSegmentBlock(
    std::span<const std::uint8_t> data);

// ---------------------------------------------------------------------
// Implementation
// ---------------------------------------------------------------------

namespace segment_codec_internal {

/// Predecessor state threaded through a block: the previous segment's
/// trailing fields, shared by encoder and decoder so the XOR/delta chains
/// agree. Runs do not reset it — a cross-run XOR is just a longer varint.
struct Chain {
  std::uint64_t last_index = 0;
  std::uint64_t end_x = 0, end_y = 0;  // bit patterns
  std::uint64_t t_end = 0;
};

/// The Corruption verdict "segment block: <what>", built out of line so
/// the decode loop stays small enough to inline into its visitor.
Status BlockCorruption(const char* what);

}  // namespace segment_codec_internal

template <typename Visit>
Status DecodeSegmentBlock(std::span<const std::uint8_t> data, Visit&& visit) {
  using segment_codec_internal::BlockCorruption;
  std::size_t pos = 0;
  std::uint64_t runs = 0;
  if (!GetVarint(data, &pos, &runs)) {
    return BlockCorruption("truncated run count");
  }
  // Each run needs at least 2 bytes of header; each segment at least 9
  // bytes of payload. A cheap plausibility gate before looping.
  if (runs > data.size()) return BlockCorruption("implausible run count");
  segment_codec_internal::Chain prev;
  std::uint64_t prev_run_id = 0;
  for (std::uint64_t r = 0; r < runs; ++r) {
    std::uint64_t id_delta = 0, count = 0;
    if (!GetVarint(data, &pos, &id_delta) ||
        !GetVarint(data, &pos, &count)) {
      return BlockCorruption("truncated run header");
    }
    if (count > data.size()) return BlockCorruption("implausible run length");
    const traj::ObjectId id =
        prev_run_id + static_cast<std::uint64_t>(UnZigZag(id_delta));
    prev_run_id = id;
    for (std::uint64_t k = 0; k < count; ++k) {
      std::uint64_t dfirst = 0, dlast = 0;
      std::uint64_t sx = 0, sy = 0, ex = 0, ey = 0, t0 = 0, t1 = 0;
      if (!GetVarint(data, &pos, &dfirst) || pos >= data.size() ||
          !GetVarint(data, &pos, &dlast) || pos >= data.size()) {
        return BlockCorruption("truncated segment");
      }
      const std::uint8_t flags = data[pos++];
      if (flags > 3) return BlockCorruption("bad patch flags");
      if (!GetVarint(data, &pos, &sx) || !GetVarint(data, &pos, &sy) ||
          !GetVarint(data, &pos, &ex) || !GetVarint(data, &pos, &ey) ||
          !GetVarint(data, &pos, &t0) || !GetVarint(data, &pos, &t1)) {
        return BlockCorruption("truncated segment fields");
      }
      traj::TimedSegment ts;
      ts.object_id = id;
      const std::uint64_t first =
          prev.last_index + static_cast<std::uint64_t>(UnZigZag(dfirst));
      ts.segment.first_index = static_cast<std::size_t>(first);
      ts.segment.last_index = static_cast<std::size_t>(first + dlast);
      ts.segment.start_is_patch = (flags & 1) != 0;
      ts.segment.end_is_patch = (flags & 2) != 0;
      const std::uint64_t bsx = sx ^ prev.end_x;
      const std::uint64_t bsy = sy ^ prev.end_y;
      const std::uint64_t bex = ex ^ bsx;
      const std::uint64_t bey = ey ^ bsy;
      const std::uint64_t bt0 = t0 ^ prev.t_end;
      const std::uint64_t bt1 = t1 ^ bt0;
      ts.segment.start = {std::bit_cast<double>(bsx),
                          std::bit_cast<double>(bsy)};
      ts.segment.end = {std::bit_cast<double>(bex),
                        std::bit_cast<double>(bey)};
      ts.t_start = std::bit_cast<double>(bt0);
      ts.t_end = std::bit_cast<double>(bt1);
      ts.segment.t_start = ts.t_start;
      ts.segment.t_end = ts.t_end;
      prev.last_index = first + dlast;
      prev.end_x = bex;
      prev.end_y = bey;
      prev.t_end = bt1;
      visit(static_cast<const traj::TimedSegment&>(ts));
    }
  }
  if (pos != data.size()) return BlockCorruption("trailing bytes");
  return Status::OK();
}

}  // namespace operb::codec

#endif  // OPERB_CODEC_SEGMENT_CODEC_H_
