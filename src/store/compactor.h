#ifndef OPERB_STORE_COMPACTOR_H_
#define OPERB_STORE_COMPACTOR_H_

/// \file
/// Store compaction: merges a shard's segment files into one file one
/// level up, committing each merge as a new manifest generation.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/result.h"
#include "common/status.h"
#include "store/env.h"
#include "store/manifest.h"

namespace operb::store {

/// Knobs of one compaction pass.
struct CompactionOptions {
  /// Block budget for rewritten blocks; 0 keeps the budget recorded in
  /// the manifest. A larger budget is how many small sealed frames
  /// become few dense blocks.
  std::size_t block_budget_bytes = 0;

  /// Filesystem seam for the pass's durable mutations (temp-file write,
  /// rename-commit, manifest commit, obsolete/orphan unlinks). nullptr:
  /// the real filesystem. Not owned; must outlive the compactor.
  Env* env = nullptr;
};

/// What one compaction pass did.
struct CompactionStats {
  std::uint64_t shards_examined = 0;
  std::uint64_t shards_compacted = 0;   ///< shards rewritten (one
                                        ///< manifest generation each)
  std::uint64_t files_before = 0;       ///< live files in compacted shards
  std::uint64_t files_after = 0;
  std::uint64_t blocks_before = 0;
  std::uint64_t blocks_after = 0;
  std::uint64_t segments_rewritten = 0;
  std::uint64_t bytes_read = 0;         ///< source segment-file bytes
  std::uint64_t bytes_written = 0;      ///< output segment-file bytes
  /// bytes_written / bytes_read over the compacted shards: < 1 means the
  /// merge densified (fewer frames, better delta runs); this is the
  /// write-amplification cost of a compaction pass.
  double write_amplification = 0.0;
  std::uint64_t generations_committed = 0;
  std::uint64_t orphans_removed = 0;    ///< unreferenced .seg files GC'd
};

/// One-shot compactor over a directory store.
///
/// A shard needs compaction when it has more than one live file or any
/// level-0 file (a freshly written file whose frames were sealed by the
/// streaming budget, not re-blocked densely). Compacting a shard reads
/// every live segment of the shard's files in manifest order — which is
/// per-object emission order — gathers each object's segments into one
/// run and feeds the runs, objects ascending, to one SegmentFileWriter
/// at level max+1. Each seal of that writer therefore holds a
/// contiguous id range (so lookups still prune on footer id ranges),
/// laid out by place within it (so windows prune on footer boxes).
/// Queries return byte-identical results before and after: the
/// reader's canonical result order is (object id, emission order), and
/// the writer keeps every object's emission order.
///
/// Crash safety: the output file is fully written and flushed *before*
/// the manifest naming it is committed (temp+rename). A crash before
/// the commit leaves an orphan .seg the manifest never names — readers
/// ignore it, the next pass GC's it — and the old generation stays
/// live: manifest rollback. Obsolete inputs are unlinked only after the
/// commit; already-open readers keep their file handles (POSIX unlink
/// semantics).
///
/// Concurrency: readers may open and query the store at any time; the
/// reader retries its manifest/file dance when a commit races it. The
/// merge itself runs *outside* the manifest commit lock — the inputs
/// are sealed, hence immutable — so append sessions never stall behind
/// a shard rewrite; only the input snapshot and the final swap-and-
/// commit hold the lock, with the commit re-validating that every
/// input is still live (a store re-created mid-merge abandons the
/// output as an orphan). The merged file replaces the inputs at the
/// first input's manifest position, preserving the per-shard
/// oldest-first order readers rely on for per-object emission order.
/// At most one compactor (foreground or background) may run per store
/// directory at a time.
///
/// Memory: a shard merge materializes the shard's full decoded segment
/// set in memory before rewriting, so peak memory is proportional to
/// the decoded shard — not to a block. Size shards (num_shards at
/// store creation) with that in mind.
class Compactor {
 public:
  explicit Compactor(std::string dir, const CompactionOptions& options = {});

  /// One full pass: GC orphans, then compact every shard that needs it,
  /// committing one manifest generation per compacted shard.
  Result<CompactionStats> Run();

  /// Compacts exactly `shard` (committing one generation) regardless of
  /// whether it needs it — the hook tests use to build mid-compaction
  /// manifest generations. InvalidArgument when `shard` is out of range.
  Result<CompactionStats> CompactShard(std::uint32_t shard);

 private:
  /// True when the shard's live file set warrants a rewrite.
  static bool NeedsCompaction(const Manifest& manifest, std::uint32_t shard);

  /// One shard's snapshot → merge → commit sequence; `force` skips the
  /// NeedsCompaction gate. Takes the commit lock only around the
  /// snapshot and the commit, accumulates into `stats` on commit.
  Status CompactShardPass(std::uint32_t shard, bool force,
                          CompactionStats* stats);

  /// Removes .seg files in the directory the manifest does not name.
  void RemoveOrphans(const Manifest& manifest, CompactionStats* stats);

  std::string dir_;
  CompactionOptions options_;
  Env* env_;
};

/// Owns a thread running Compactor::Run() on a fixed cadence — the
/// background half of the LSM story, and the concurrent reader/writer
/// path the TSan job exercises. Errors do not stop the loop; the last
/// non-OK status is retained for inspection.
class BackgroundCompactor {
 public:
  BackgroundCompactor(std::string dir, const CompactionOptions& options,
                      std::chrono::milliseconds interval);

  /// Stops the loop (joins the thread).
  ~BackgroundCompactor();

  BackgroundCompactor(const BackgroundCompactor&) = delete;
  BackgroundCompactor& operator=(const BackgroundCompactor&) = delete;

  /// Starts the loop; the first pass runs immediately.
  void Start();

  /// Signals and joins the thread. Idempotent and safe against
  /// concurrent callers — exactly one of them performs the join.
  void Stop();

  /// Blocks new passes and waits for an in-flight pass to finish: after
  /// Pause() returns, no compaction touches the store until the matching
  /// Resume(). Re-entrant (pauses nest); safe against concurrent Stop()
  /// in either order. Prefer PauseGuard.
  void Pause();
  void Resume();

  /// RAII pause: quiesces the background loop for a critical section —
  /// an engine checkpoint or a foreground `--compact` pass — instead of
  /// racing it.
  class PauseGuard {
   public:
    explicit PauseGuard(BackgroundCompactor& compactor)
        : compactor_(&compactor) {
      compactor_->Pause();
    }
    ~PauseGuard() { compactor_->Resume(); }

    PauseGuard(const PauseGuard&) = delete;
    PauseGuard& operator=(const PauseGuard&) = delete;

   private:
    BackgroundCompactor* const compactor_;
  };

  /// Aggregated stats across all completed passes.
  CompactionStats total_stats() const;

  /// OK until a pass fails; then that pass's status.
  Status last_status() const;

 private:
  void Loop();

  Compactor compactor_;
  std::chrono::milliseconds interval_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  int pause_depth_ = 0;   ///< nested Pause() calls currently holding
  bool in_pass_ = false;  ///< a Run() is executing outside mu_
  CompactionStats total_;
  Status last_status_;
  std::thread thread_;
};

}  // namespace operb::store

#endif  // OPERB_STORE_COMPACTOR_H_
