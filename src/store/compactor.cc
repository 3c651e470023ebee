#include "store/compactor.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "store/segment_file.h"
#include "store/store_metrics.h"
#include "store/writer.h"

namespace operb::store {

namespace fs = std::filesystem;

namespace {

/// Staging name a shard merge writes to before the commit renames it to
/// its final SegmentFileName (the final name embeds the committing
/// generation, unknown until the commit lock is re-taken). Ends in
/// ".seg" so a crash's leftover is swept by orphan GC and a fresh
/// writer's start-over wipe; the "cmp-" prefix keeps it out of the
/// writer's "seg-" namespace.
std::string CompactionTempName(std::uint32_t shard,
                               std::uint64_t snapshot_generation) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "cmp-%05u-g%06llu.seg", shard,
                static_cast<unsigned long long>(snapshot_generation));
  return buf;
}

/// Folds a finished pass's stats into the registry — the cumulative
/// counterpart of the CompactionStats the caller gets back.
void FoldCompactionStats(const CompactionStats& s) {
  StoreWriteMetrics& m = GetStoreWriteMetrics();
  m.compaction_passes->Increment();
  m.compaction_bytes_read->Add(s.bytes_read);
  m.compaction_bytes_written->Add(s.bytes_written);
  m.compaction_segments_rewritten->Add(s.segments_rewritten);
  m.compaction_write_amp_milli->Observe(
      static_cast<std::int64_t>(s.write_amplification * 1000.0));
}

}  // namespace

Compactor::Compactor(std::string dir, const CompactionOptions& options)
    : dir_(std::move(dir)), options_(options),
      env_(ResolveEnv(options.env)) {}

bool Compactor::NeedsCompaction(const Manifest& manifest,
                                std::uint32_t shard) {
  // Only sealed files are merge candidates — an active file may still be
  // growing under a live writer. A shard warrants a rewrite when its
  // sealed set is fragmented (more than one file) or still in the
  // streaming layout (level 0: seals cut from whatever the write path
  // buffered, an object's segments spread over many of them).
  std::size_t sealed = 0;
  bool level0 = false;
  for (const SegmentFileInfo& f : manifest.files) {
    if (f.shard != shard || !f.sealed) continue;
    ++sealed;
    if (f.level == 0) level0 = true;
  }
  return sealed > 1 || (sealed == 1 && level0);
}

void Compactor::RemoveOrphans(const Manifest& manifest,
                              CompactionStats* stats) {
  std::unordered_set<std::string> live;
  for (const SegmentFileInfo& f : manifest.files) live.insert(f.name);
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name == kManifestFileName || name == kManifestTempFileName) continue;
    if (!IsStoreFileName(name) || live.count(name) != 0) continue;
    if (env_->Remove(entry.path().string()).ok()) ++stats->orphans_removed;
  }
}

Status Compactor::CompactShardPass(std::uint32_t shard, bool force,
                                   CompactionStats* stats) {
  // Phase 1 — snapshot, under the commit lock: the shard's sealed files
  // in manifest (= per-object emission) order. Sealed files are
  // immutable and only a compactor ever removes one — and at most one
  // compactor runs per store — so the snapshot stays valid while the
  // merge below runs unlocked.
  std::vector<SegmentFileInfo> inputs;
  std::uint32_t max_level = 0;
  std::uint64_t snapshot_generation = 0;
  double zeta = 0.0;
  std::size_t budget = options_.block_budget_bytes;
  {
    const std::lock_guard<std::mutex> lock(ManifestCommitMutex(dir_));
    OPERB_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(dir_));
    if (shard >= manifest.num_shards ||
        (!force && !NeedsCompaction(manifest, shard))) {
      return Status::OK();
    }
    for (const SegmentFileInfo& f : manifest.files) {
      if (f.shard != shard || !f.sealed) continue;
      inputs.push_back(f);
      max_level = std::max(max_level, f.level);
    }
    snapshot_generation = manifest.generation;
    zeta = manifest.zeta;
    if (budget == 0) {
      budget = static_cast<std::size_t>(manifest.block_budget_bytes);
    }
  }
  if (inputs.empty()) return Status::OK();
  if (budget < 1024) budget = StoreWriterOptions{}.block_budget_bytes;

  // Phase 2 — merge, outside the lock, so append sessions (the writer's
  // Create/Close commits) never stall behind a shard rewrite. Drain the
  // inputs in snapshot order — per object that is emission order — into
  // an id-keyed map and rewrite through one writer, objects ascending.
  // NOTE: this materializes the shard's full decoded segment set; see
  // the memory caveat on the class.
  std::map<traj::ObjectId, std::vector<traj::TimedSegment>> merged;
  std::uint64_t segments_in = 0;
  std::uint64_t blocks_in = 0;
  std::uint64_t bytes_read = 0;
  for (const SegmentFileInfo& input : inputs) {
    const std::string path = (fs::path(dir_) / input.name).string();
    OPERB_ASSIGN_OR_RETURN(const std::unique_ptr<SegmentFileReader> reader,
                           SegmentFileReader::Open(path));
    bytes_read += reader->file_bytes();
    blocks_in += reader->blocks().size();
    for (std::size_t b = 0; b < reader->blocks().size(); ++b) {
      OPERB_ASSIGN_OR_RETURN(const std::vector<traj::TimedSegment> segments,
                             reader->ReadBlock(b));
      for (const traj::TimedSegment& s : segments) {
        merged[s.object_id].push_back(s);
        ++segments_in;
      }
    }
  }

  // The output is staged under a temp name, fully written and flushed
  // before the commit below — a crash on either side of the commit
  // leaves a consistent store (old generation + orphan, or new
  // generation). An error path that abandons the temp file leaves an
  // orphan the next pass GC's.
  const fs::path tmp_path =
      fs::path(dir_) / CompactionTempName(shard, snapshot_generation);
  std::uint64_t bytes_written = 0;
  std::uint64_t blocks_out = 0;
  {
    OPERB_ASSIGN_OR_RETURN(
        const std::unique_ptr<SegmentFileWriter> writer,
        SegmentFileWriter::Create(tmp_path.string(), zeta, budget, env_));
    for (const auto& [id, segments] : merged) {
      for (const traj::TimedSegment& s : segments) {
        OPERB_RETURN_IF_ERROR(writer->Append(s));
      }
    }
    OPERB_RETURN_IF_ERROR(writer->Close());
    bytes_written = writer->stats().file_bytes;
    blocks_out = writer->stats().blocks;
  }

  // Phase 3 — commit, under the lock: validate the snapshot still
  // holds, give the output its final name, and swap it for the inputs
  // in one manifest generation.
  const std::lock_guard<std::mutex> lock(ManifestCommitMutex(dir_));
  const Result<Manifest> current = ReadManifest(dir_);
  if (!current.ok()) {
    (void)env_->Remove(tmp_path.string());
    return current.status();
  }

  std::unordered_set<std::string> input_names;
  for (const SegmentFileInfo& input : inputs) input_names.insert(input.name);
  std::size_t first_input_pos = current->files.size();
  std::size_t inputs_live = 0;
  for (std::size_t i = 0; i < current->files.size(); ++i) {
    const SegmentFileInfo& f = current->files[i];
    if (input_names.count(f.name) == 0) continue;
    if (f.shard == shard && f.sealed) ++inputs_live;
    first_input_pos = std::min(first_input_pos, i);
  }
  if (shard >= current->num_shards || inputs_live != inputs.size()) {
    // The store was re-created out from under the merge — the only way
    // a sealed file disappears besides this compactor. The inputs' data
    // is gone by that writer's decision, not ours to resurrect: abandon
    // the merge without committing.
    (void)env_->Remove(tmp_path.string());
    return Status::OK();
  }

  Manifest next = *current;
  next.generation = current->generation + 1;
  // Generations are unique across commits and segment files are only
  // ever created while this lock is held, so the final name cannot
  // collide with a live file (a same-named orphan from a pre-crash run
  // is dead and safe to replace).
  const std::string out_name = SegmentFileName(shard, next.generation);
  const Status renamed =
      env_->Rename(tmp_path.string(), (fs::path(dir_) / out_name).string());
  if (!renamed.ok()) {
    (void)env_->Remove(tmp_path.string());
    return Status::IOError("cannot rename " + tmp_path.string() + " to " +
                           out_name);
  }

  SegmentFileInfo out_info;
  out_info.shard = shard;
  out_info.level = max_level + 1;
  out_info.sealed = true;
  out_info.name = out_name;

  // The output replaces the inputs at the position of the *first*
  // input, not at the end: the manifest's per-shard oldest-first order
  // is what readers replay to keep each object's segments in emission
  // order, and the inputs — all sealed — predate every active file and
  // every file a session added after the snapshot. Appending instead
  // would replay an object's compacted (older) segments after segments
  // a session sealed mid-merge.
  std::vector<std::string> obsolete;
  std::vector<SegmentFileInfo> kept;
  kept.reserve(next.files.size() - inputs.size() + 1);
  for (std::size_t i = 0; i < next.files.size(); ++i) {
    if (i == first_input_pos) kept.push_back(out_info);
    if (input_names.count(next.files[i].name) != 0) {
      obsolete.push_back(next.files[i].name);
    } else {
      kept.push_back(next.files[i]);
    }
  }
  next.files = std::move(kept);
  OPERB_RETURN_IF_ERROR(WriteManifest(dir_, next, env_));

  // Old inputs are dead to every future open; unlink them. Readers that
  // already hold the files keep them alive via their descriptors.
  // Failures leave orphans the next pass GC's.
  for (const std::string& name : obsolete) {
    (void)env_->Remove((fs::path(dir_) / name).string());
  }

  ++stats->shards_compacted;
  ++stats->generations_committed;
  stats->files_before += inputs.size();
  stats->files_after += 1;
  stats->blocks_before += blocks_in;
  stats->blocks_after += blocks_out;
  stats->segments_rewritten += segments_in;
  stats->bytes_read += bytes_read;
  stats->bytes_written += bytes_written;
  return Status::OK();
}

Result<CompactionStats> Compactor::Run() {
  obs::ScopedTimer pass_timer(GetStoreWriteMetrics().compaction_pass_ns);
  obs::TraceSpan span("store.compaction.run");
  CompactionStats stats;
  std::uint32_t num_shards = 0;
  {
    const std::lock_guard<std::mutex> lock(ManifestCommitMutex(dir_));
    OPERB_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(dir_));
    RemoveOrphans(manifest, &stats);
    num_shards = manifest.num_shards;
  }
  for (std::uint32_t shard = 0; shard < num_shards; ++shard) {
    ++stats.shards_examined;
    OPERB_RETURN_IF_ERROR(CompactShardPass(shard, /*force=*/false, &stats));
  }
  if (stats.bytes_read > 0) {
    stats.write_amplification = static_cast<double>(stats.bytes_written) /
                                static_cast<double>(stats.bytes_read);
  }
  FoldCompactionStats(stats);
  return stats;
}

Result<CompactionStats> Compactor::CompactShard(std::uint32_t shard) {
  CompactionStats stats;
  {
    const std::lock_guard<std::mutex> lock(ManifestCommitMutex(dir_));
    OPERB_ASSIGN_OR_RETURN(const Manifest manifest, ReadManifest(dir_));
    if (shard >= manifest.num_shards) {
      return Status::InvalidArgument(
          "shard " + std::to_string(shard) + " out of range (store has " +
          std::to_string(manifest.num_shards) + " shards)");
    }
  }
  ++stats.shards_examined;
  OPERB_RETURN_IF_ERROR(CompactShardPass(shard, /*force=*/true, &stats));
  if (stats.bytes_read > 0) {
    stats.write_amplification = static_cast<double>(stats.bytes_written) /
                                static_cast<double>(stats.bytes_read);
  }
  FoldCompactionStats(stats);
  return stats;
}

BackgroundCompactor::BackgroundCompactor(std::string dir,
                                         const CompactionOptions& options,
                                         std::chrono::milliseconds interval)
    : compactor_(std::move(dir), options), interval_(interval) {}

BackgroundCompactor::~BackgroundCompactor() { Stop(); }

void BackgroundCompactor::Start() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (running_) return;
  running_ = true;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void BackgroundCompactor::Stop() {
  std::thread to_join;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (!running_) return;
    // Claim the join while holding the lock: a concurrent Stop() sees
    // running_ == false and returns instead of joining the thread a
    // second time (UB).
    running_ = false;
    stop_ = true;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  to_join.join();
}

void BackgroundCompactor::Pause() {
  std::unique_lock<std::mutex> lock(mu_);
  ++pause_depth_;
  // Wait out an in-flight pass; the loop won't start another while
  // pause_depth_ > 0. No stop_ escape needed: in_pass_ always returns to
  // false — either the pass completes or Loop() never entered one.
  cv_.wait(lock, [this] { return !in_pass_; });
}

void BackgroundCompactor::Resume() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    --pause_depth_;
  }
  cv_.notify_all();
}

CompactionStats BackgroundCompactor::total_stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

Status BackgroundCompactor::last_status() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return last_status_;
}

void BackgroundCompactor::Loop() {
  for (;;) {
    {
      // Honor a pause before touching the store; a Stop() during the
      // wait ends the loop without another pass.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || pause_depth_ == 0; });
      if (stop_) return;
      in_pass_ = true;
    }
    const Result<CompactionStats> pass = compactor_.Run();
    {
      const std::lock_guard<std::mutex> lock(mu_);
      in_pass_ = false;
      if (pass.ok()) {
        total_.shards_examined += pass->shards_examined;
        total_.shards_compacted += pass->shards_compacted;
        total_.files_before += pass->files_before;
        total_.files_after += pass->files_after;
        total_.blocks_before += pass->blocks_before;
        total_.blocks_after += pass->blocks_after;
        total_.segments_rewritten += pass->segments_rewritten;
        total_.bytes_read += pass->bytes_read;
        total_.bytes_written += pass->bytes_written;
        total_.generations_committed += pass->generations_committed;
        total_.orphans_removed += pass->orphans_removed;
        if (total_.bytes_read > 0) {
          total_.write_amplification =
              static_cast<double>(total_.bytes_written) /
              static_cast<double>(total_.bytes_read);
        }
      } else {
        last_status_ = pass.status();
      }
    }
    // A Pause() may be blocked on in_pass_; wake it before sleeping.
    cv_.notify_all();
    std::unique_lock<std::mutex> lock(mu_);
    if (cv_.wait_for(lock, interval_, [this] { return stop_; })) return;
  }
}

}  // namespace operb::store
