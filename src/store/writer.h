#ifndef OPERB_STORE_WRITER_H_
#define OPERB_STORE_WRITER_H_

/// \file
/// Sharded writer of a directory-based trajectory store: one manifest,
/// one segment file per shard per write session.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/format.h"
#include "store/manifest.h"
#include "store/segment_file.h"
#include "traj/multi_object.h"

namespace operb::store {

/// Configuration of a StoreWriter.
struct StoreWriterOptions {
  /// The error bound the stored segments were simplified under, recorded
  /// in the manifest and every segment file header. Queries inflate
  /// windows by it and position-at-time answers inherit it as their
  /// error certificate (DESIGN.md §8). Must be positive and finite.
  double zeta = 40.0;

  /// Target encoded payload size per block. Each shard file buffers
  /// SegmentFileWriter::kBlocksPerSeal blocks' worth of segments, orders
  /// them by place and cuts them into blocks of about this size, so
  /// block count scales with data volume and every block's footer prunes
  /// a bounded byte range of nearby objects. Must be >= 1024.
  std::size_t block_budget_bytes = 2 * 1024;

  /// Shards the store's objects are partitioned into, by
  /// traj::ShardOfObject — the same hash the StreamEngine routes with,
  /// so engine output streams shard-locally when the counts match. One
  /// segment file per shard per write session. Must be in [1, 65536].
  std::size_t num_shards = 1;

  /// When true and `path` already holds a store, a new write session is
  /// appended: fresh level-0 segment files next to the existing ones
  /// (zeta and num_shards must match the manifest). When false the
  /// directory's store files are removed and the store starts over.
  bool append = false;

  /// Filesystem seam for every durable write (segment files, manifest
  /// commits). nullptr: the real filesystem. Tests inject a
  /// FaultInjectingEnv here to enumerate crash points (store/env.h).
  /// Not owned; must outlive the writer.
  Env* env = nullptr;

  /// Parameter-range check (the Status boundary for untrusted
  /// configuration, same contract as StreamEngineOptions::Validate).
  Status Validate() const;
};

/// Counters of one writer's lifetime (final after Close()).
struct StoreWriterStats {
  std::uint64_t segments = 0;       ///< segments appended
  std::uint64_t blocks = 0;         ///< blocks sealed
  std::uint64_t payload_bytes = 0;  ///< encoded payload across blocks
  std::uint64_t file_bytes = 0;     ///< total bytes written (incl. framing
                                    ///< and the manifest)
  /// file_bytes / (kRawSegmentBytes * segments): bytes the store writes
  /// per byte of the segments' natural in-memory representation. < 1
  /// means the delta codec more than pays for the block framing.
  double write_amplification = 0.0;
  /// Hand-overs that found StoreWriter::kMaxChunksInFlight chunks
  /// waiting and so waited for the background thread.
  std::uint64_t handover_waits = 0;
};

/// In-memory bytes a TimedSegment occupies in its natural struct form
/// (id + 2 indices + 2 flags + 4 coordinates + 2 timestamps), the
/// denominator of write_amplification.
inline constexpr double kRawSegmentBytes = 8 + 16 + 2 + 48;

/// Sharded writer of a directory-based trajectory store.
///
/// Create() prepares the directory, opens one SegmentFileWriter per
/// shard and commits a manifest generation naming the (active) files —
/// from that point a concurrent reader sees the store and serves every
/// flushed block. Append() routes each segment to its object's shard
/// (traj::ShardOfObject) and only buffers it in that shard's inbox.
/// Each full inbox of kChunkSegments segments is handed, in order, to
/// the Env's background thread (Env::Schedule), which feeds it to the
/// shard's SegmentFileWriter; that file buffers, orders and seals blocks
/// exactly as if it were fed directly (store/segment_file.h), so with
/// one appending thread the files are byte-identical to a direct feed.
/// Close() hands over the inboxes' remainders, waits for this writer's
/// chunks, seals all tails and commits a generation marking the
/// session's files sealed, which makes them compaction candidates
/// (store/compactor.h).
///
/// Thread safety: Append() may be called concurrently — the
/// StreamEngine's sink contract delivers segments from worker threads.
/// An append takes only its shard's inbox lock; a hand-over also takes
/// the writer's lock and blocks while kMaxChunksInFlight chunks wait
/// for the background thread, which bounds the writer's memory. Per
/// object, callers must append in emission order, which the engine
/// guarantees. Create/Close are not concurrent with Append.
///
/// Errors: a failed background write poisons the writer; the next
/// Append() and Close() return the first error, and later chunks are
/// dropped rather than written past the failed block.
///
/// Crash safety: every sealed block is flushed; a crash loses at most
/// the segments not yet in a flushed block — the inboxes, the chunks in
/// flight (at most kMaxChunksInFlight) and the shard files' unsealed
/// buffers. Readers drop a torn tail block per segment file
/// (valid-prefix rule). A crash before Close() leaves the session's
/// files active (never compacted) but fully queryable.
class StoreWriter {
 public:
  /// Creates (or, with options.append, extends) the store directory at
  /// `path` and commits the opening manifest generation.
  /// InvalidArgument on bad options or an append mismatch, IOError when
  /// the directory or files cannot be created.
  static Result<std::unique_ptr<StoreWriter>> Create(
      const std::string& path, const StoreWriterOptions& options = {});

  /// Segments an inbox gathers before it is handed to the background
  /// thread.
  static constexpr std::size_t kChunkSegments = 256;

  /// Chunks handed over but not yet fed to their shard file, at most;
  /// a hand-over beyond this waits. 32 chunks (8192 segments) absorb
  /// the burst of appends that arrive while one 128 KiB seal is being
  /// ordered and written (DESIGN.md §8).
  static constexpr std::size_t kMaxChunksInFlight = 32;

  /// Equivalent to Close(): no background task outlives the writer.
  ~StoreWriter();

  StoreWriter(const StoreWriter&) = delete;
  StoreWriter& operator=(const StoreWriter&) = delete;

  /// Buffers one segment in its shard's inbox and hands a full inbox to
  /// the background thread. Thread-safe. Returns the first write error
  /// encountered (the writer is poisoned — Close() reports it again).
  Status Append(const traj::TimedSegment& segment);

  /// Hands over the inboxes, waits until the background thread has fed
  /// every chunk to its shard file, seals the remaining buffered
  /// segments, closes every shard file and commits the manifest
  /// generation sealing them. Idempotent: the first call's status is
  /// remembered and re-returned. stats() is final after Close().
  Status Close();

  /// Lifetime counters; final after Close().
  const StoreWriterStats& stats() const { return stats_; }

  const StoreWriterOptions& options() const { return options_; }

  /// The store directory.
  const std::string& dir() const { return dir_; }

 private:
  /// A shard's run of appended segments on its way to the shard file.
  struct Chunk {
    std::size_t shard = 0;
    std::vector<traj::TimedSegment> segments;
  };

  /// Where Append() buffers a shard's segments until they fill a chunk.
  /// One cache line each, so appenders to different shards do not
  /// contend on one.
  struct alignas(64) Inbox {
    std::mutex mu;
    std::vector<traj::TimedSegment> segments;
  };

  StoreWriter(std::string dir, const StoreWriterOptions& options);

  /// Schedules `inbox`'s segments as shard `shard`'s next chunk and
  /// leaves the inbox empty. Caller holds the inbox's lock, which keeps
  /// a shard's chunks in append order.
  void HandOver(std::size_t shard, Inbox& inbox);

  /// The background task: feeds `chunk` to its shard file unless the
  /// writer is poisoned, then recycles the chunk.
  void FeedChunk(Chunk* chunk);

  StoreWriterOptions options_;
  std::string dir_;
  /// Names of this session's files (index = shard), recorded active in
  /// the opening manifest commit, flipped to sealed by Close().
  std::vector<std::string> session_files_;
  std::vector<std::unique_ptr<SegmentFileWriter>> shards_;
  std::uint64_t manifest_bytes_ = 0;
  /// True once the opening manifest commit succeeded. A writer whose
  /// opening commit failed must not run Close()'s sealing commit: there
  /// is no session to seal — and Create() still holds the store's
  /// commit mutex when such a writer is destroyed, so re-locking it
  /// there would self-deadlock.
  bool opened_ = false;
  bool closed_ = false;
  std::unique_ptr<Inbox[]> inboxes_;  // one per shard

  std::mutex mu_;  // guards the members below it
  std::condition_variable chunk_done_;
  std::size_t chunks_in_flight_ = 0;
  /// Fed chunks kept for reuse, so appends do not allocate.
  std::vector<std::unique_ptr<Chunk>> spare_chunks_;
  Status first_error_;
  /// Set with first_error_ when a background write fails; lets Append()
  /// check for poison without the writer's lock.
  std::atomic<bool> failed_{false};

  StoreWriterStats stats_;
};

}  // namespace operb::store

#endif  // OPERB_STORE_WRITER_H_
