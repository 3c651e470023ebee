#ifndef OPERB_STORE_FORMAT_H_
#define OPERB_STORE_FORMAT_H_

/// \file
/// On-disk format of the trajectory store: segment-file header, block
/// frame, footer metadata, checksums.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/bbox.h"
#include "traj/multi_object.h"

namespace operb::store {

/// On-disk format of the block-organized trajectory store. The byte-level
/// specification lives in docs/ARCHITECTURE.md ("On-disk store format");
/// this header is its executable form. Everything is little-endian and
/// explicitly serialized field by field — no struct memcpy, so the format
/// is independent of padding and host endianness.
///
/// Segment-file layout (one file per shard x generation):
///
///   FileHeader | Block*          (append-only; blocks are immutable)
///   Block = payload_bytes:u32 | payload | BlockFooter
///
/// The payload is a codec::EncodeSegmentBlock stream; the footer carries
/// the metadata a reader needs to decide — without touching the payload —
/// whether the block can contain anything a query wants (id range, time
/// interval, bounding box), plus two checksums: one over payload+footer
/// (verified whenever the payload is read) and one over the footer bytes
/// alone, so any flipped footer byte is caught by the footer-only open
/// scan.

/// First 7 bytes of every store file; the 8th byte is '0' + version.
inline constexpr std::array<std::uint8_t, 7> kFileMagicPrefix = {
    'O', 'P', 'R', 'B', 'S', 'T', 'R'};

/// Format version written into segment files, and the only one the
/// reader accepts. Versioning rules (when to bump, what may change
/// without a bump) are specified in docs/ARCHITECTURE.md.
inline constexpr std::uint32_t kFormatVersion = 3;

/// Marker leading every block footer, used to cross-check the payload
/// length prefix before trusting the rest of the footer.
inline constexpr std::uint32_t kFooterMagic = 0x4F50'4246;  // "OPBF"

/// Serialized sizes (fixed; the writer and the reader's scan both depend
/// on them).
inline constexpr std::size_t kFileHeaderBytes = 8 + 4 + 4 + 8;  // magic,
                                                                // version,
                                                                // reserved,
                                                                // zeta

/// Footer: magic, segment count, id range, t interval + bbox, payload
/// length, payload checksum, and a trailing checksum over the footer
/// bytes themselves.
inline constexpr std::size_t kBlockFooterBytes =
    4 + 4 + 8 + 8 + 6 * 8 + 4 + 8 + 8;

/// Fixed-size per-block metadata, appended after the payload. All ranges
/// are inclusive and describe the *stored segment geometry* (a window
/// query over original points must inflate by zeta; see DESIGN.md §8).
struct BlockFooter {
  std::uint32_t payload_bytes = 0;  ///< must equal the block's length prefix
  std::uint32_t segment_count = 0;
  std::uint64_t object_min = 0;  ///< smallest object id in the block
  std::uint64_t object_max = 0;  ///< largest object id in the block
  double t_min = 0.0;            ///< earliest t_start in the block
  double t_max = 0.0;            ///< latest t_end in the block
  double min_x = 0.0, min_y = 0.0, max_x = 0.0, max_y = 0.0;  ///< geometry
  std::uint64_t checksum = 0;  ///< XXH64 over payload, then footer body
  /// XXH64 over the serialized footer up to (and including) `checksum`.
  /// This is what lets the open scan detect a flipped bit in any footer
  /// field without reading the payload.
  std::uint64_t footer_checksum = 0;

  /// The footer's bounding box as the geo type queries intersect against.
  geo::BoundingBox BBox() const {
    geo::BoundingBox b;
    b.min_x = min_x;
    b.min_y = min_y;
    b.max_x = max_x;
    b.max_y = max_y;
    return b;
  }
};

/// Serializes a file header (magic, version, reserved, zeta).
void EncodeFileHeader(double zeta, std::vector<std::uint8_t>* out);

/// Parses and validates a file header and returns the zeta it records.
/// Corruption on bad magic, a version other than kFormatVersion (the
/// message names the version found) or a truncated header.
Result<double> DecodeFileHeader(std::span<const std::uint8_t> data);

/// Computes footer metadata over `segments` (which must be the block's
/// exact payload input) plus both checksums. `payload` is the encoded
/// block the ranges describe.
BlockFooter MakeFooter(std::span<const traj::TimedSegment> segments,
                       std::span<const std::uint8_t> payload);

/// Serializes `footer`, checksums included.
void EncodeFooter(const BlockFooter& footer, std::vector<std::uint8_t>* out);

/// Parses a footer from exactly kBlockFooterBytes bytes. Corruption on a
/// bad footer magic or a footer-checksum mismatch. The payload checksum
/// is *not* verified here (the caller decides whether it holds the
/// payload bytes to verify against).
Result<BlockFooter> DecodeFooter(std::span<const std::uint8_t> data);

/// Structural sanity of decoded footer metadata: a block must be
/// non-empty and every range non-inverted (id range, time interval,
/// bounding box). Corruption with a field-naming message otherwise.
/// DecodeFooter's checksum catches flipped bits; this catches writer bugs
/// and hand-crafted files whose checksums are internally consistent.
Status ValidateFooterRanges(const BlockFooter& footer);

/// The payload checksum a block with this payload and footer body must
/// carry: XXH64 of the serialized footer body (everything before the two
/// checksum fields), seeded with XXH64 of the payload. Not
/// cryptographic; it detects torn writes and bit rot. Allocation-free:
/// it runs on every block read.
std::uint64_t BlockChecksum(std::span<const std::uint8_t> payload,
                            const BlockFooter& footer);

/// The footer self-checksum: XXH64 over the serialized footer up to and
/// including the payload checksum field. Allocation-free.
std::uint64_t FooterChecksum(const BlockFooter& footer);

}  // namespace operb::store

#endif  // OPERB_STORE_FORMAT_H_
