#include "store/writer.h"

#include <cmath>
#include <filesystem>
#include <new>
#include <utility>

#include "store/store_metrics.h"

namespace operb::store {

namespace fs = std::filesystem;

Status StoreWriterOptions::Validate() const {
  if (!(zeta > 0.0) || !std::isfinite(zeta)) {
    return Status::InvalidArgument(
        "store zeta must be positive and finite");
  }
  if (block_budget_bytes < 1024) {
    return Status::InvalidArgument(
        "store block budget must be at least 1024 bytes");
  }
  // The frame's length prefix and footer echo are u32; cap the budget
  // far below that so an encoding overshooting the estimate can never
  // wrap the prefix (which would corrupt every later block).
  if (block_budget_bytes > (std::size_t{1} << 30)) {
    return Status::InvalidArgument(
        "store block budget must be at most 1 GiB");
  }
  if (num_shards < 1 || num_shards > 65536) {
    return Status::InvalidArgument(
        "store shard count must be in [1, 65536]");
  }
  return Status::OK();
}

Result<std::unique_ptr<StoreWriter>> StoreWriter::Create(
    const std::string& path, const StoreWriterOptions& options) {
  OPERB_RETURN_IF_ERROR(options.Validate());

  std::error_code ec;
  const fs::file_status st = fs::status(path, ec);
  // A leftover single-file store (or any regular file) at the path gives
  // way, matching the old writer's truncate-on-create semantics.
  if (!ec && fs::is_regular_file(st)) {
    fs::remove(path, ec);
    if (ec) {
      return Status::IOError("cannot replace file " + path +
                             " with a store directory");
    }
  }
  // Throw-free status queries: `st` was taken with an error_code, and
  // fs::exists(p, ec) reports a failed stat as "absent" instead of
  // throwing out of this function's Status contract.
  const bool existed = fs::is_directory(st);
  if (options.append &&
      (!existed || !fs::exists(fs::path(path) / kManifestFileName, ec))) {
    // Appending promises the store already exists; silently creating a
    // fresh one would hide a typo'd path.
    return Status::IOError("cannot append: no store manifest at " + path);
  }
  if (!existed) {
    // Single-level create: a missing parent is the caller's error, not
    // something to silently mkdir -p over.
    if (!fs::create_directory(path, ec) || ec) {
      return Status::IOError("cannot create store directory " + path);
    }
  }

  const std::lock_guard<std::mutex> lock(ManifestCommitMutex(path));

  Manifest manifest;
  if (options.append) {
    OPERB_ASSIGN_OR_RETURN(manifest, ReadManifest(path));
    if (manifest.zeta != options.zeta) {
      return Status::InvalidArgument(
          "append zeta " + std::to_string(options.zeta) +
          " does not match the store's zeta " +
          std::to_string(manifest.zeta));
    }
    if (manifest.num_shards != options.num_shards) {
      return Status::InvalidArgument(
          "append shard count " + std::to_string(options.num_shards) +
          " does not match the store's " +
          std::to_string(manifest.num_shards) + " shards");
    }
    ++manifest.generation;
  } else {
    if (existed) {
      // Start over: remove the previous store's files (and only those —
      // foreign files in the directory are left alone).
      for (const fs::directory_entry& entry :
           fs::directory_iterator(path, ec)) {
        if (!entry.is_regular_file(ec)) continue;
        if (IsStoreFileName(entry.path().filename().string())) {
          fs::remove(entry.path(), ec);
        }
      }
    }
    manifest.generation = 1;
    manifest.zeta = options.zeta;
    manifest.num_shards = static_cast<std::uint32_t>(options.num_shards);
  }
  manifest.block_budget_bytes = options.block_budget_bytes;

  std::unique_ptr<StoreWriter> writer(new StoreWriter(path, options));
  for (std::size_t s = 0; s < options.num_shards; ++s) {
    const std::string name = SegmentFileName(static_cast<std::uint32_t>(s),
                                             manifest.generation);
    const std::string file_path = (fs::path(path) / name).string();
    OPERB_ASSIGN_OR_RETURN(std::unique_ptr<SegmentFileWriter> shard,
                           SegmentFileWriter::Create(
                               file_path, options.zeta,
                               options.block_budget_bytes, options.env));
    writer->shards_.push_back(std::move(shard));
    writer->session_files_.push_back(name);
    SegmentFileInfo info;
    info.shard = static_cast<std::uint32_t>(s);
    info.level = 0;
    info.sealed = false;  // active until Close() commits the seal
    info.name = name;
    manifest.files.push_back(info);
  }

  // The opening commit: from here a concurrent reader sees this
  // generation and serves every flushed block of the session's files.
  OPERB_RETURN_IF_ERROR(WriteManifest(path, manifest, options.env));
  writer->opened_ = true;
  std::vector<std::uint8_t> encoded;
  EncodeManifest(manifest, &encoded);
  writer->manifest_bytes_ = encoded.size();
  return writer;
}

StoreWriter::StoreWriter(std::string dir, const StoreWriterOptions& options)
    : options_(options),
      dir_(std::move(dir)),
      inboxes_(std::make_unique<Inbox[]>(options.num_shards)) {}

StoreWriter::~StoreWriter() { Close(); }

Status StoreWriter::Append(const traj::TimedSegment& segment) {
  if (closed_) {
    return Status::InvalidArgument("append to a closed store writer");
  }
  if (failed_.load(std::memory_order_acquire)) {
    const std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }
  const std::size_t shard =
      traj::ShardOfObject(segment.object_id, shards_.size());
  GetStoreWriteMetrics().segments_appended->Increment();
  Inbox& inbox = inboxes_[shard];
  const std::lock_guard<std::mutex> lock(inbox.mu);
  inbox.segments.push_back(segment);
  if (inbox.segments.size() == kChunkSegments) HandOver(shard, inbox);
  return Status::OK();
}

void StoreWriter::HandOver(std::size_t shard, Inbox& inbox) {
  Chunk* chunk = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (chunks_in_flight_ >= kMaxChunksInFlight) {
      ++stats_.handover_waits;
      GetStoreWriteMetrics().handover_waits->Increment();
      chunk_done_.wait(
          lock, [this] { return chunks_in_flight_ < kMaxChunksInFlight; });
    }
    ++chunks_in_flight_;
    if (spare_chunks_.empty()) {
      chunk = new Chunk();
    } else {
      chunk = spare_chunks_.back().release();
      spare_chunks_.pop_back();
    }
  }
  chunk->shard = shard;
  std::swap(chunk->segments, inbox.segments);
  ResolveEnv(options_.env)->Schedule([this, chunk] { FeedChunk(chunk); });
}

void StoreWriter::FeedChunk(Chunk* chunk) {
  Status s;
  if (!failed_.load(std::memory_order_acquire)) {
    SegmentFileWriter& file = *shards_[chunk->shard];
    // A seal allocates; a failed allocation poisons the writer like a
    // failed write, instead of ending the process on the Env's thread.
    try {
      for (const traj::TimedSegment& segment : chunk->segments) {
        s = file.Append(segment);
        if (!s.ok()) break;
      }
    } catch (const std::bad_alloc&) {
      s = Status::Internal("out of memory sealing a store block");
    }
  }
  chunk->segments.clear();
  // Notify under the lock: once the count reaches zero, Close() may
  // return and the writer be destroyed.
  const std::lock_guard<std::mutex> lock(mu_);
  if (!s.ok() && first_error_.ok()) {
    first_error_ = s;
    failed_.store(true, std::memory_order_release);
  }
  spare_chunks_.emplace_back(chunk);
  --chunks_in_flight_;
  chunk_done_.notify_all();
}

Status StoreWriter::Close() {
  if (closed_) return first_error_;
  closed_ = true;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    Inbox& inbox = inboxes_[s];
    const std::lock_guard<std::mutex> lock(inbox.mu);
    if (!inbox.segments.empty()) HandOver(s, inbox);
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    chunk_done_.wait(lock, [this] { return chunks_in_flight_ == 0; });
  }
  for (const std::unique_ptr<SegmentFileWriter>& shard : shards_) {
    const Status s = shard->Close();
    if (!s.ok() && first_error_.ok()) first_error_ = s;
    stats_.segments += shard->stats().segments;
    stats_.blocks += shard->stats().blocks;
    stats_.payload_bytes += shard->stats().payload_bytes;
    stats_.file_bytes += shard->stats().file_bytes;
  }

  // Seal the session: re-read the manifest under the commit lock (a
  // background compaction may have advanced it) and flip this session's
  // files to sealed in a new generation. Skipped when the opening
  // commit never happened — there is no session in the manifest to
  // seal, and the half-built writer Create() destroys on its error
  // paths dies while Create() still holds the commit mutex.
  if (opened_) {
    const std::lock_guard<std::mutex> lock(ManifestCommitMutex(dir_));
    Result<Manifest> current = ReadManifest(dir_);
    if (!current.ok()) {
      if (first_error_.ok()) first_error_ = current.status();
    } else {
      Manifest manifest = std::move(current).value();
      ++manifest.generation;
      for (SegmentFileInfo& f : manifest.files) {
        for (const std::string& name : session_files_) {
          if (f.name == name) f.sealed = true;
        }
      }
      const Status commit = WriteManifest(dir_, manifest, options_.env);
      if (!commit.ok() && first_error_.ok()) first_error_ = commit;
      std::vector<std::uint8_t> encoded;
      EncodeManifest(manifest, &encoded);
      manifest_bytes_ = encoded.size();
    }
  }

  stats_.file_bytes += manifest_bytes_;
  if (stats_.segments > 0) {
    stats_.write_amplification =
        static_cast<double>(stats_.file_bytes) /
        (kRawSegmentBytes * static_cast<double>(stats_.segments));
  }
  return first_error_;
}

}  // namespace operb::store
