#include "store/reader.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "store/manifest.h"
#include "store/query_filter.h"

namespace operb::store {

namespace {

/// Registry instruments the reader folds its per-call stats into: each
/// Open/query computes a local StoreQueryStats (the per-call API value)
/// and the same increments accumulate here, so snapshots show the
/// cumulative view of the numbers the structs already report
/// (DESIGN.md §10). Acquired once, then lock-free.
struct ReaderMetrics {
  obs::Counter* opens;
  obs::Counter* open_retries;
  obs::Counter* blocks_scanned;
  obs::Counter* blocks_skipped;
  obs::Counter* segments_scanned;
  obs::Counter* segments_matched;
  obs::Counter* index_nodes_visited;
  obs::LatencyHistogram* open_ns;
  obs::LatencyHistogram* window_query_ns;
  obs::LatencyHistogram* reconstruct_ns;
  obs::LatencyHistogram* position_at_ns;
};

ReaderMetrics& GetReaderMetrics() {
  static ReaderMetrics* const m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return new ReaderMetrics{
        r.GetCounter("store.opens"),
        r.GetCounter("store.open_retries"),
        r.GetCounter("store.query.blocks_scanned"),
        r.GetCounter("store.query.blocks_skipped"),
        r.GetCounter("store.query.segments_scanned"),
        r.GetCounter("store.query.segments_matched"),
        r.GetCounter("store.query.index_nodes_visited"),
        r.GetHistogram("store.open_ns"),
        r.GetHistogram("store.query.window_ns"),
        r.GetHistogram("store.query.reconstruct_ns"),
        r.GetHistogram("store.query.position_at_ns"),
    };
  }();
  return *m;
}

/// The per-query half of the fold (open_retries folds at Open time).
void FoldQueryStats(const StoreQueryStats& s) {
  ReaderMetrics& m = GetReaderMetrics();
  m.blocks_scanned->Add(s.blocks_scanned);
  m.blocks_skipped->Add(s.blocks_skipped);
  m.segments_scanned->Add(s.segments_scanned);
  m.segments_matched->Add(s.segments_matched);
  m.index_nodes_visited->Add(s.index_nodes_visited);
}

/// Backoff schedule of Open()'s manifest-swap retry: first wait, the
/// cap each doubling saturates at, and the attempt budget. Six attempts
/// at these spacings ride out several back-to-back compaction commits
/// without turning a persistently broken store into a long hang.
constexpr std::chrono::microseconds kOpenRetryInitialBackoff{100};
constexpr std::chrono::microseconds kOpenRetryMaxBackoff{5000};
constexpr int kOpenMaxAttempts = 6;

std::function<void(std::chrono::microseconds)>& OpenRetrySleepHook() {
  static auto* hook = new std::function<void(std::chrono::microseconds)>();
  return *hook;
}

void OpenRetrySleep(std::chrono::microseconds d) {
  const auto& hook = OpenRetrySleepHook();
  if (hook) {
    hook(d);
  } else {
    std::this_thread::sleep_for(d);
  }
}

// The query predicates themselves (IntervalsOverlap, Inflate,
// BoxesOverlap, SegmentIntersectsBox, InterpolateOnSegment) live in
// store/query_filter.h — shared with the server's read-your-writes
// merge so both halves of a merged answer filter identically.

}  // namespace

void StoreReader::SetRetrySleepHookForTest(
    std::function<void(std::chrono::microseconds)> hook) {
  OpenRetrySleepHook() = std::move(hook);
}

Result<std::unique_ptr<StoreReader>> StoreReader::Open(
    const std::string& path) {
  namespace fs = std::filesystem;
  obs::ScopedTimer open_timer(GetReaderMetrics().open_ns);
  std::unique_ptr<StoreReader> reader(new StoreReader());

  std::error_code ec;
  if (!fs::is_directory(path, ec)) {
    if (fs::exists(path, ec)) {
      return Status::Corruption(path + " is not a store directory");
    }
    return Status::IOError("no store at " + path);
  }
  // A compaction can commit between our manifest read and the file
  // opens, unlinking a file we were about to open; re-reading the
  // manifest and retrying converges because every retry starts from a
  // newer generation. Losing twice in a row means commits are coming
  // fast, so the retries back off (doubling, capped) instead of
  // hammering the manifest in a tight loop.
  Status open = Status::OK();
  std::uint32_t retries = 0;
  std::chrono::microseconds backoff = kOpenRetryInitialBackoff;
  for (int attempt = 0; attempt < kOpenMaxAttempts; ++attempt) {
    reader.reset(new StoreReader());
    open = OpenDirectory(path, reader.get());
    if (open.ok() || open.code() != StatusCode::kIOError) break;
    if (attempt + 1 == kOpenMaxAttempts) break;
    ++retries;
    OpenRetrySleep(backoff);
    backoff = std::min(backoff * 2, kOpenRetryMaxBackoff);
  }
  OPERB_RETURN_IF_ERROR(open);
  reader->open_info_.open_retries = retries;
  GetReaderMetrics().open_retries->Add(retries);

  // Bulk-load the hierarchical index from the footers just scanned.
  std::vector<BlockIndexEntry> entries;
  entries.reserve(reader->blocks_.size());
  for (std::size_t i = 0; i < reader->blocks_.size(); ++i) {
    const BlockFooter& f = reader->FooterOf(i);
    BlockIndexEntry e;
    e.min_x = f.min_x;
    e.min_y = f.min_y;
    e.max_x = f.max_x;
    e.max_y = f.max_y;
    e.t_min = f.t_min;
    e.t_max = f.t_max;
    e.ordinal = static_cast<std::uint32_t>(i);
    entries.push_back(e);
  }
  reader->index_.Build(std::move(entries));
  GetReaderMetrics().opens->Increment();
  return reader;
}

Status StoreReader::OpenDirectory(const std::string& path,
                                  StoreReader* reader) {
  namespace fs = std::filesystem;
  OPERB_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(path));
  reader->zeta_ = manifest.zeta;
  reader->open_info_.generation = manifest.generation;
  reader->shard_blocks_.resize(manifest.num_shards);
  for (const SegmentFileInfo& info : manifest.files) {
    const std::string file_path = (fs::path(path) / info.name).string();
    OPERB_ASSIGN_OR_RETURN(std::unique_ptr<SegmentFileReader> file,
                           SegmentFileReader::Open(file_path));
    if (file->zeta() != manifest.zeta) {
      return Status::Corruption("segment file " + info.name +
                                " zeta disagrees with the manifest");
    }
    reader->AdoptFile(std::move(file), info.shard);
  }
  return Status::OK();
}

void StoreReader::AdoptFile(std::unique_ptr<SegmentFileReader> file,
                            std::uint32_t shard) {
  const std::uint32_t file_index = static_cast<std::uint32_t>(files_.size());
  if (file->open_info().tail_dropped) {
    open_info_.tail_dropped = true;
    open_info_.dropped_bytes += file->open_info().dropped_bytes;
  }
  for (std::size_t b = 0; b < file->blocks().size(); ++b) {
    const std::uint32_t ordinal = static_cast<std::uint32_t>(blocks_.size());
    blocks_.push_back(GlobalBlock{file_index, static_cast<std::uint32_t>(b)});
    shard_blocks_[shard].push_back(ordinal);
    segment_count_ += file->blocks()[b].footer.segment_count;
  }
  files_.push_back(std::move(file));
}

template <typename Visit>
Status StoreReader::ScanBlocks(std::span<const std::uint32_t> candidates,
                               StoreQueryStats* stats, Visit&& visit) const {
  std::uint32_t largest = 0;
  for (const std::uint32_t ordinal : candidates) {
    largest = std::max(largest, FooterOf(ordinal).payload_bytes);
  }
  std::vector<std::uint8_t> payload;
  payload.reserve(largest);
  for (const std::uint32_t ordinal : candidates) {
    const GlobalBlock& b = blocks_[ordinal];
    ++stats->blocks_scanned;
    OPERB_RETURN_IF_ERROR(files_[b.file]->ScanBlock(b.block, &payload, visit));
    stats->segments_scanned += FooterOf(ordinal).segment_count;
  }
  return Status::OK();
}

Result<std::vector<traj::TimedSegment>> StoreReader::ReconstructObject(
    traj::ObjectId object_id, double t_min, double t_max,
    StoreQueryStats* stats) const {
  obs::ScopedTimer timer(GetReaderMetrics().reconstruct_ns);
  StoreQueryStats local;
  local.blocks_total = blocks_.size();
  local.open_retries = open_info_.open_retries;
  // The shard partition prunes every other shard's blocks without a
  // footer test — they count as skipped, keeping the invariant
  // skipped + scanned == total.
  const std::vector<std::uint32_t>& shard =
      shard_blocks_[traj::ShardOfObject(object_id, shard_blocks_.size())];
  std::vector<std::uint32_t> candidates;
  candidates.reserve(shard.size());
  for (const std::uint32_t ordinal : shard) {
    const BlockFooter& f = FooterOf(ordinal);
    if (object_id >= f.object_min && object_id <= f.object_max &&
        IntervalsOverlap(f.t_min, f.t_max, t_min, t_max)) {
      candidates.push_back(ordinal);
    }
  }
  std::vector<traj::TimedSegment> out;
  OPERB_RETURN_IF_ERROR(
      ScanBlocks(candidates, &local, [&](const traj::TimedSegment& s) {
        if (s.object_id == object_id &&
            IntervalsOverlap(s.t_start, s.t_end, t_min, t_max)) {
          out.push_back(s);
        }
      }));
  local.segments_matched = out.size();
  local.blocks_skipped = local.blocks_total - local.blocks_scanned;
  FoldQueryStats(local);
  if (stats != nullptr) *stats = local;
  return out;
}

Result<std::vector<traj::TimedSegment>> StoreReader::QueryWindow(
    const geo::BoundingBox& window, double t_min, double t_max,
    StoreQueryStats* stats, ScanMode mode) const {
  obs::ScopedTimer timer(GetReaderMetrics().window_query_ns);
  StoreQueryStats local;
  local.blocks_total = blocks_.size();
  local.open_retries = open_info_.open_retries;
  std::vector<traj::TimedSegment> out;
  if (window.IsEmpty() || blocks_.empty()) {
    local.blocks_skipped = blocks_.size();
    FoldQueryStats(local);
    if (stats != nullptr) *stats = local;
    return out;
  }
  // One inflation, shared by the block test and the per-segment test:
  // original samples stray up to zeta (perpendicular) from their
  // covering segment, so serving "everything that might have been in
  // `window`" means matching segment geometry against window + zeta.
  const geo::BoundingBox inflated = Inflate(window, zeta_);

  // Candidate selection: the R-tree and the flat footer scan apply the
  // same block-level predicates, so they select the same candidates —
  // the flat mode is the oracle the indexed mode is verified against.
  // Reserving every block up front makes the list one allocation
  // however many blocks the window admits.
  std::vector<std::uint32_t> candidates;
  candidates.reserve(blocks_.size());
  if (mode == ScanMode::kIndexed && !index_.empty()) {
    index_.Query(inflated, t_min, t_max, &candidates,
                 &local.index_nodes_visited);
    // Tree order -> emission order.
    std::sort(candidates.begin(), candidates.end());
  } else {
    for (std::uint32_t i = 0; i < blocks_.size(); ++i) {
      const BlockFooter& f = FooterOf(i);
      if (IntervalsOverlap(f.t_min, f.t_max, t_min, t_max) &&
          BoxesOverlap(f.BBox(), inflated)) {
        candidates.push_back(i);
      }
    }
  }

  OPERB_RETURN_IF_ERROR(
      ScanBlocks(candidates, &local, [&](const traj::TimedSegment& s) {
        if (SegmentMatchesWindow(s, inflated, t_min, t_max)) {
          out.push_back(s);
        }
      }));
  local.segments_matched = out.size();
  local.blocks_skipped = local.blocks_total - local.blocks_scanned;

  // Canonical result order: ascending object id, each object's segments
  // in emission order (candidates were visited in emission order and
  // the sort is stable). This is what makes results byte-identical
  // across scan modes, shard counts and compaction states.
  std::stable_sort(out.begin(), out.end(),
                   [](const traj::TimedSegment& a,
                      const traj::TimedSegment& b) {
                     return a.object_id < b.object_id;
                   });
  FoldQueryStats(local);
  if (stats != nullptr) *stats = local;
  return out;
}

Result<geo::Point> StoreReader::PositionAt(traj::ObjectId object_id,
                                           double t,
                                           StoreQueryStats* stats) const {
  obs::ScopedTimer timer(GetReaderMetrics().position_at_ns);
  OPERB_ASSIGN_OR_RETURN(const std::vector<traj::TimedSegment> covering,
                         ReconstructObject(object_id, t, t, stats));
  for (const traj::TimedSegment& s : covering) {
    if (s.t_start <= t && t <= s.t_end) {
      return InterpolateOnSegment(s, t);
    }
  }
  return Status::NotFound("object " + std::to_string(object_id) +
                          " has no stored segment covering t=" +
                          std::to_string(t));
}

}  // namespace operb::store
