#ifndef OPERB_STORE_READER_H_
#define OPERB_STORE_READER_H_

/// \file
/// Query reader over a trajectory store directory: per-object
/// reconstruction, window queries via the hierarchical block index,
/// position-at-time.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "store/block_index.h"
#include "store/format.h"
#include "store/segment_file.h"
#include "traj/multi_object.h"

namespace operb::store {

/// What StoreReader::Open observed about the store.
struct StoreOpenInfo {
  bool tail_dropped = false;        ///< some file's partial tail was ignored
  std::uint64_t dropped_bytes = 0;  ///< bytes ignored across files after
                                    ///< the last valid block
  std::uint64_t generation = 0;  ///< manifest generation
  /// Times Open() lost the manifest-swap race against a concurrent
  /// compaction commit and re-read the manifest (each retry backs off,
  /// see StoreReader::Open).
  std::uint32_t open_retries = 0;
};

/// How QueryWindow selects candidate blocks.
enum class ScanMode {
  /// Descend the packed R-tree (block_index.h): O(log n) index nodes on
  /// selective windows. The default.
  kIndexed,
  /// Test every block footer linearly — the debug/verify oracle the
  /// indexed path is checked against; both modes select identical
  /// candidates and return identical results.
  kFlatScan,
};

/// Per-query counters — the observable form of the block-skipping
/// claim. blocks_skipped counts blocks rejected on footer metadata
/// alone (no payload read, no decode); blocks_scanned counts blocks
/// whose payload was read and decoded.
///
/// This struct is the per-call view of the `store.query.*` registry
/// instruments (DESIGN.md §10): every query folds the same increments
/// into `obs::MetricsRegistry::Global()`, so a metrics snapshot shows
/// these numbers accumulated across all queries.
struct StoreQueryStats {
  std::uint64_t blocks_total = 0;
  std::uint64_t blocks_skipped = 0;
  std::uint64_t blocks_scanned = 0;
  std::uint64_t segments_scanned = 0;  ///< decoded segments inspected
  std::uint64_t segments_matched = 0;
  /// R-tree nodes whose box/interval was tested (kIndexed window queries
  /// only; 0 otherwise). The flat scan's equivalent is blocks_total
  /// footer tests — the acceptance ratio compares the two.
  std::uint64_t index_nodes_visited = 0;
  /// Mirror of StoreOpenInfo::open_retries — how many manifest-swap
  /// races this reader's Open() survived — so per-query telemetry
  /// carries the contention signal without a second API call.
  std::uint32_t open_retries = 0;
};

/// Query reader over a trajectory store.
///
/// Open() takes a store directory (manifest + per-shard segment files).
/// It reads the manifest, opens every live segment file — footer scans
/// only, payloads stay on disk — and bulk-loads the hierarchical block
/// index from the footers.
///
/// Queries prune blocks whose footer metadata cannot match and decode
/// only the survivors; a block's payload checksum is verified every
/// time a query reads it. A query reads its surviving blocks into one
/// payload buffer of its own, sized once for the largest, and decodes
/// each block segment by segment straight into its filter, so only
/// matching segments are copied into the answer and what a query
/// allocates does not grow with the blocks it reads (DESIGN.md §8). A
/// fault in any block it reads fails the whole query: the caller gets
/// the Status and no partial answer. Per-object queries additionally prune
/// whole shards: only the object's own shard (traj::ShardOfObject) is
/// consulted. Window queries descend the R-tree by default; the flat
/// footer scan remains available as the verification oracle
/// (ScanMode::kFlatScan) and both modes return identical results in the
/// canonical order (ascending object id, each object's segments in
/// emission order) — which is also why results are byte-identical
/// across shard counts and before/after compaction.
///
/// Queries are thread-safe: blocks are read with pread into the
/// calling query's own buffer, with no lock and no shared scratch.
class StoreReader {
 public:
  /// Opens and index-scans the store directory at `path`. IOError when
  /// missing or unreadable, Corruption when `path` is not a directory or
  /// the manifest, a header or any complete block frame is invalid. A
  /// torn tail in a segment file is *not* an error: it is dropped and
  /// reported via open_info().
  static Result<std::unique_ptr<StoreReader>> Open(const std::string& path);

  /// Replaces the sleep Open()'s retry backoff performs between
  /// attempts (tests observe the backoff schedule without real delays).
  /// nullptr restores the real sleep. Not thread-safe against
  /// concurrent Open() calls — a test-only seam.
  static void SetRetrySleepHookForTest(
      std::function<void(std::chrono::microseconds)> hook);

  StoreReader(const StoreReader&) = delete;
  StoreReader& operator=(const StoreReader&) = delete;

  /// The error bound recorded when the store was written.
  double zeta() const { return zeta_; }

  std::size_t block_count() const { return blocks_.size(); }

  /// Total stored segments (sum of footer counts).
  std::uint64_t segment_count() const { return segment_count_; }

  /// Shards the store was written with.
  std::size_t num_shards() const { return shard_blocks_.size(); }

  /// Live segment files backing this reader.
  std::size_t file_count() const { return files_.size(); }

  /// Nodes in the hierarchical block index.
  std::size_t index_node_count() const { return index_.node_count(); }

  /// Height of the hierarchical block index (0 when the store is empty).
  std::size_t index_height() const { return index_.height(); }

  const StoreOpenInfo& open_info() const { return open_info_; }

  /// Per-object time-range reconstruction: every stored segment of
  /// `object_id` whose [t_start, t_end] interval overlaps
  /// [t_min, t_max], in emission order — the contiguous piecewise
  /// representation of that object over the range. Only the object's
  /// shard is consulted; within it, blocks whose footer id range or
  /// time interval cannot match are skipped unread.
  Result<std::vector<traj::TimedSegment>> ReconstructObject(
      traj::ObjectId object_id,
      double t_min = -std::numeric_limits<double>::infinity(),
      double t_max = std::numeric_limits<double>::infinity(),
      StoreQueryStats* stats = nullptr) const;

  /// Spatio-temporal window query: every stored segment intersecting
  /// `window` *inflated by zeta* whose time interval overlaps
  /// [t_min, t_max]. The inflation makes the answer sound for original
  /// points: a sample inside `window` lies within zeta of its covering
  /// segment's line, so that segment intersects the inflated window and
  /// is returned — which is also why footer-bbox skipping loses nothing
  /// (DESIGN.md §8). Results come in the canonical order (ascending
  /// object id, emission order within an object) in both scan modes.
  Result<std::vector<traj::TimedSegment>> QueryWindow(
      const geo::BoundingBox& window,
      double t_min = -std::numeric_limits<double>::infinity(),
      double t_max = std::numeric_limits<double>::infinity(),
      StoreQueryStats* stats = nullptr,
      ScanMode mode = ScanMode::kIndexed) const;

  /// Interpolated position of `object_id` at time `t`: the point on the
  /// covering stored segment at the time-proportional parameter. The
  /// result carries the store's error certificate: the original sample
  /// nearest in time lies within zeta (perpendicular) of the covering
  /// segment's line (see DESIGN.md §8 for exactly what is and is not
  /// bounded). NotFound when no stored segment of the object covers `t`.
  Result<geo::Point> PositionAt(traj::ObjectId object_id, double t,
                                StoreQueryStats* stats = nullptr) const;

 private:
  /// One block's global position: which file, which block within it.
  struct GlobalBlock {
    std::uint32_t file = 0;
    std::uint32_t block = 0;
  };

  StoreReader() = default;

  /// Opens a directory store (manifest + segment files) into `reader`.
  static Status OpenDirectory(const std::string& path, StoreReader* reader);

  /// Indexes `file`'s blocks into the global tables under `shard`.
  void AdoptFile(std::unique_ptr<SegmentFileReader> file,
                 std::uint32_t shard);

  const BlockFooter& FooterOf(std::size_t ordinal) const {
    return files_[blocks_[ordinal].file]->blocks()[blocks_[ordinal].block]
        .footer;
  }

  /// Scans the blocks `candidates` names, in that order, through
  /// SegmentFileReader::ScanBlock into `visit`, reading every payload
  /// into one buffer sized once for the largest of them. Counts the
  /// blocks and segments it reads into `stats`.
  template <typename Visit>
  Status ScanBlocks(std::span<const std::uint32_t> candidates,
                    StoreQueryStats* stats, Visit&& visit) const;

  double zeta_ = 0.0;
  std::uint64_t segment_count_ = 0;
  std::vector<std::unique_ptr<SegmentFileReader>> files_;
  /// All blocks, file-major in manifest order — the emission order every
  /// query iterates candidates in.
  std::vector<GlobalBlock> blocks_;
  /// Block ordinals per shard, ascending.
  std::vector<std::vector<std::uint32_t>> shard_blocks_;
  BlockIndex index_;
  StoreOpenInfo open_info_;
};

}  // namespace operb::store

#endif  // OPERB_STORE_READER_H_
