#ifndef OPERB_STORE_SEGMENT_FILE_H_
#define OPERB_STORE_SEGMENT_FILE_H_

/// \file
/// One segment file: the append-only block container that is the unit of
/// sharding and compaction. A store is a directory whose manifest names
/// many of these.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "codec/segment_codec.h"
#include "common/result.h"
#include "common/status.h"
#include "store/env.h"
#include "store/format.h"
#include "traj/multi_object.h"

namespace operb::store {

/// What SegmentFileReader::Open observed about the file's tail. An
/// append interrupted mid-block (crash, power cut) leaves a partial
/// final frame; the scan detects it structurally and drops it — the
/// per-segment half of the store's recovery contract is "a valid prefix
/// survives" (DESIGN.md §8).
struct SegmentFileOpenInfo {
  bool tail_dropped = false;        ///< a partial tail frame was ignored
  std::uint64_t dropped_bytes = 0;  ///< bytes ignored after the last
                                    ///< complete block
};

/// One indexed block: where its payload lives plus its footer.
struct BlockRef {
  std::uint64_t payload_offset = 0;
  BlockFooter footer;
};

/// Counters of one segment-file writer's lifetime (final after Close()).
struct SegmentFileStats {
  std::uint64_t segments = 0;       ///< segments appended
  std::uint64_t blocks = 0;         ///< blocks sealed
  std::uint64_t payload_bytes = 0;  ///< encoded payload across blocks
  std::uint64_t file_bytes = 0;     ///< total bytes written (incl. framing)
};

/// Cells per axis of the Hilbert grid a seal orders its runs on.
inline constexpr std::uint32_t kHilbertSide = std::uint32_t{1} << 16;

/// Position of cell (x, y), both below kHilbertSide, along the Hilbert
/// curve over the kHilbertSide x kHilbertSide grid: cells close on the
/// curve are close in the plane, so cutting the curve into pieces yields
/// compact boxes. A seal orders its objects' runs by this key.
std::uint64_t HilbertIndex(std::uint32_t x, std::uint32_t y);

/// Append-only writer of one segment file.
///
/// Buffers id-tagged, time-annotated segments and seals them
/// kBlocksPerSeal blocks at a time, clustered by place: the buffer is
/// stable-sorted by object id, so each object's segments form one run
/// in arrival order; the runs are ordered by the Hilbert index of their
/// first start point over the seal's own extent (ties by id, non-finite
/// points last); and the ordered runs are cut into blocks of about
/// `block_budget_bytes` each. The order is a permutation of the buffer's
/// indices: each block is gathered from the buffer into one reused
/// block buffer and encoded from there, so a seal never copies the whole
/// buffer. Neighbouring objects therefore share
/// blocks, and each footer's bounding box covers a small part of the
/// shard's extent. Every block is delta-encoded by
/// codec::EncodeSegmentBlock, framed with a length prefix and a
/// metadata footer (store/format.h). The file contents are a
/// deterministic function of the append sequence.
///
/// Emission order per object survives the layout: within a seal an
/// object's segments are one run, so they lie in one block or in
/// consecutive blocks, in arrival order; seals are written in order.
///
/// Seals run on the thread whose Append() fills the buffer, or on the
/// thread calling Close(). Under a StoreWriter that is the Env's
/// background thread, which feeds each shard file its appends in order
/// (store/writer.h); the compactor writes its files synchronously.
///
/// Thread safety: Append() may be called concurrently (it takes an
/// internal lock). Per object, callers must append in emission order.
/// Create/Close are not concurrent with Append.
///
/// Crash safety: the stream is flushed after every sealed block; a
/// crash loses at most the buffered segments and, mid-seal, the
/// unflushed blocks, which the reader's open scan detects and drops.
/// A StoreWriter can also lose the appends it has not yet fed here.
class SegmentFileWriter {
 public:
  /// Opens `path` for writing (truncating any existing file) through
  /// `env` (nullptr: the real filesystem) and writes the file header.
  /// IOError when the file cannot be created. `block_budget_bytes` must
  /// already be validated by the caller (StoreWriterOptions::Validate).
  static Result<std::unique_ptr<SegmentFileWriter>> Create(
      const std::string& path, double zeta, std::size_t block_budget_bytes,
      Env* env = nullptr);

  /// Seals any buffered segments into a final block and closes the file.
  ~SegmentFileWriter();

  SegmentFileWriter(const SegmentFileWriter&) = delete;
  SegmentFileWriter& operator=(const SegmentFileWriter&) = delete;

  /// Blocks' worth of segments one seal buffers before it orders and
  /// cuts them, so an open writer holds kBlocksPerSeal x the block
  /// budget (128 KiB at the default 2 KiB). The seal size fixes how many
  /// nearby objects are clustered together and how long a stretch of
  /// time a block spans; the block count fixes how finely that place is
  /// cut (DESIGN.md §8).
  static constexpr std::size_t kBlocksPerSeal = 64;

  /// Buffers one segment; seals kBlocksPerSeal blocks when the buffer
  /// fills.
  /// Thread-safe. Returns the first write error encountered (subsequent
  /// appends keep buffering but the writer is poisoned — Close() reports
  /// the error again).
  Status Append(const traj::TimedSegment& segment);

  /// Seals the remaining buffered segments (if any, possibly fewer than
  /// kBlocksPerSeal blocks' worth), flushes and closes
  /// the file. Idempotent: the first call's status is remembered and
  /// re-returned. stats() is final after Close().
  Status Close();

  /// Lifetime counters; final after Close().
  const SegmentFileStats& stats() const { return stats_; }

 private:
  SegmentFileWriter(std::unique_ptr<WritableFile> file,
                    std::size_t block_budget_bytes);

  /// Orders the pending buffer, writes it as one or more blocks and
  /// empties it. Caller holds mu_.
  Status SealLocked();

  /// Encodes and writes one block. Caller holds mu_.
  Status WriteBlockLocked(std::span<const traj::TimedSegment> block);

  std::size_t block_budget_bytes_ = 0;
  std::unique_ptr<WritableFile> file_;

  std::mutex mu_;
  /// Segments appended since the last seal, in arrival order.
  std::vector<traj::TimedSegment> pending_;
  /// The block being sealed, gathered from pending_ in seal order; kept
  /// so that seals reuse its capacity.
  std::vector<traj::TimedSegment> block_;
  /// The block's encoded frame (length prefix, payload, footer); kept
  /// for the same reason.
  std::vector<std::uint8_t> frame_;
  /// Bytes/segment estimate used against the block budget, updated from
  /// each seal's actual encoding.
  double estimated_segment_bytes_ = 48.0;
  bool closed_ = false;
  Status first_error_;
  SegmentFileStats stats_;
};

/// Footer-scan reader of one segment file.
///
/// Open() scans the block structure once — length prefixes and footers
/// only, payloads stay on disk — applying the valid-prefix rule: an
/// *incomplete* final frame is a torn tail and is dropped (reported via
/// open_info()), but a size-complete frame that fails validation (bad
/// footer magic, footer-checksum mismatch, length-prefix/footer
/// disagreement, inverted ranges) is Corruption — dropping it would
/// silently lose committed data. Payload checksums are verified by
/// ScanBlock(), on every read.
///
/// ScanBlock() and ReadBlock() are thread-safe: they read with pread at
/// the block's offset, so concurrent reads share the descriptor without
/// a lock, and every read lands in a buffer the caller owns.
class SegmentFileReader {
 public:
  /// Opens and footer-scans `path`. IOError when unreadable, Corruption
  /// when the header or any complete block frame is invalid.
  static Result<std::unique_ptr<SegmentFileReader>> Open(
      const std::string& path);

  ~SegmentFileReader();

  SegmentFileReader(const SegmentFileReader&) = delete;
  SegmentFileReader& operator=(const SegmentFileReader&) = delete;

  /// The error bound recorded in the file header.
  double zeta() const { return zeta_; }

  const std::vector<BlockRef>& blocks() const { return blocks_; }

  const SegmentFileOpenInfo& open_info() const { return open_info_; }

  /// Total file bytes the open scan saw.
  std::uint64_t file_bytes() const { return file_bytes_; }

  /// The read primitive: preads block `i`'s payload into `*payload`
  /// (resized to fit; its capacity is reused, so a caller that passes
  /// the same buffer for every block of a query allocates at most once),
  /// verifies its checksum, and decodes it segment by segment into
  /// `visit(const traj::TimedSegment&)`. IOError when the read fails;
  /// Corruption on a checksum mismatch, any codec::DecodeSegmentBlock
  /// verdict, or a decoded segment count that disagrees with the footer.
  /// The visitor may have seen segments before a fault was found, so a
  /// caller must drop what it gathered when this fails.
  template <typename Visit>
  Status ScanBlock(std::size_t i, std::vector<std::uint8_t>* payload,
                   Visit&& visit) const {
    OPERB_RETURN_IF_ERROR(ReadPayload(i, payload));
    std::uint64_t decoded = 0;
    OPERB_RETURN_IF_ERROR(codec::DecodeSegmentBlock(
        *payload, [&](const traj::TimedSegment& s) {
          ++decoded;
          visit(s);
        }));
    if (decoded != blocks_[i].footer.segment_count) {
      return SegmentCountMismatch(i);
    }
    return Status::OK();
  }

  /// Block `i`'s segments as a vector: ScanBlock into a fresh buffer,
  /// for callers that want a whole block (the compactor, tests).
  Result<std::vector<traj::TimedSegment>> ReadBlock(std::size_t i) const;

 private:
  SegmentFileReader() = default;

  /// ScanBlock's read half: pread and checksum check.
  Status ReadPayload(std::size_t i, std::vector<std::uint8_t>* payload) const;

  /// ScanBlock's verdict when block `i`'s decoded segments do not number
  /// its footer's segment_count.
  Status SegmentCountMismatch(std::size_t i) const;

  std::string path_;
  double zeta_ = 0.0;
  std::uint64_t file_bytes_ = 0;
  std::vector<BlockRef> blocks_;
  SegmentFileOpenInfo open_info_;

  int fd_ = -1;
};

}  // namespace operb::store

#endif  // OPERB_STORE_SEGMENT_FILE_H_
