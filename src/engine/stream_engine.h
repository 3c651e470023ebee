#ifndef OPERB_ENGINE_STREAM_ENGINE_H_
#define OPERB_ENGINE_STREAM_ENGINE_H_

/// \file
/// Sharded multi-object streaming simplification engine and its
/// options, stats and sink types.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.h"
#include "common/result.h"
#include "common/status.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "store/env.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"

namespace operb::engine {

/// Output callback of the engine: one determined segment of one object,
/// carrying the timestamps of the original points at its first and last
/// index — exactly what a store::StoreWriter::Append wants. Invoked from
/// worker threads — concurrently for objects on different shards,
/// serially (and in emission order) for any single object. The callback
/// must therefore be thread-safe across objects; per-object it sees
/// exactly the segment sequence the single-stream sink path emits.
using TimedSegmentSink = std::function<void(const traj::TimedSegment&)>;

/// Callback of the tail-snapshot seam (SnapshotWindowTails /
/// SnapshotObjectTail): invoked once per visited
/// live object — in ascending object-id order within a shard — with the
/// segments a FinishObject at the snapshot point would emit ("the
/// in-flight tail"; possibly empty). Runs on the shard's worker thread
/// between two batches, so the shard is provably between updates:
/// anything the visitor reads of its own data structures is consistent
/// with exactly the update prefix the worker has processed. The span is
/// only valid during the call.
using TailSnapshotVisitor =
    std::function<void(traj::ObjectId, std::span<const traj::TimedSegment>)>;

/// Extent of one live object's in-flight tail, as the window snapshot's
/// predicate sees it: the bounding box of the tail segments' endpoints
/// and [min t_start, max t_end] over them (an empty tail has an empty
/// box and t_min > t_max). Only tails whose every endpoint is finite get
/// a summary.
struct TailSummary {
  geo::BoundingBox box;
  double t_min = 0.0;
  double t_max = 0.0;
};

/// Predicate of SnapshotWindowTails: returns false only when no segment
/// inside `summary` can match the caller's query, which lets the worker
/// skip cloning that object's tail.
using TailSummaryFilter = std::function<bool(const TailSummary& summary)>;

/// Per-shard hook of SnapshotWindowTails, run on the shard's worker
/// before its tails are visited (same consistency point as the visitor).
using ShardSnapshotHook = std::function<void(std::size_t shard)>;

/// Configuration of a StreamEngine.
struct StreamEngineOptions {
  /// Per-object simplifier, resolved through api::AlgorithmRegistry.
  /// Identical in configuration and output to the single-stream
  /// simplifier the same spec constructs (determinism contract below);
  /// the spec's zeta is the engine's error bound. Defaults to OPERB at
  /// zeta 40 with the guarded fidelity.
  api::SimplifierSpec spec;

  /// Number of shards (state-table partitions). Objects map to shards by
  /// a mixed hash of their id; per-object output is independent of this
  /// value (determinism contract), it only controls parallelism and
  /// table sizes.
  std::size_t num_shards = 8;

  /// Worker threads; shard s is owned by thread s % num_threads, so
  /// values above num_shards are clamped. Each shard is only ever
  /// touched by its owning thread — per-object state needs no locks.
  std::size_t num_threads = 1;

  /// Capacity of each shard's input ring (rounded up to a power of two).
  /// A full ring blocks the producer (backpressure), it never drops.
  std::size_t ring_capacity = 8192;

  /// Producer-side staging batch per shard: updates are handed to a ring
  /// in blocks of up to this many, amortizing the atomic hand-off.
  /// Points can therefore sit in staging until the batch fills — call
  /// Flush()/Close() (or Tick, which flushes first) to force delivery.
  std::size_t producer_batch = 64;

  /// Watermark-based idle flush: when a Tick(watermark) arrives, every
  /// object whose last point is older than `watermark -
  /// idle_timeout_seconds` is finished and evicted back to the state
  /// pool. 0 disables idle eviction (Tick becomes a no-op).
  double idle_timeout_seconds = 0.0;

  /// Ignored and read nowhere: every engine stamps segment times. Kept
  /// only so callers that still set it compile.
  bool track_segment_times = false;

  /// Validates parameter ranges and resolves the spec against the
  /// algorithm registry; this is the boundary check that makes engine
  /// construction safe on untrusted configuration (pair with
  /// StreamEngine::Create).
  Status Validate() const;

  std::string ToString() const;
};

/// Aggregate counters of one engine run (valid after Close()).
struct StreamEngineStats {
  std::uint64_t points = 0;            ///< point updates accepted
  std::uint64_t segments = 0;          ///< tagged segments emitted
  std::uint64_t objects_opened = 0;    ///< states created or reused
  std::uint64_t objects_finished = 0;  ///< explicit + idle + close flushes
  std::uint64_t idle_evictions = 0;    ///< flushes caused by Tick watermarks
  std::uint64_t ring_full_stalls = 0;  ///< producer backpressure events
  /// True global maximum of concurrently live states (tracked across
  /// shards at object open/finish — not per point).
  std::uint64_t peak_live_objects = 0;
  /// Total pooled states = sum of per-shard peak live populations (an
  /// upper bound on peak_live_objects when shards peak at different
  /// times).
  std::uint64_t states_allocated = 0;
};

/// Sharded multi-object streaming simplification engine.
///
/// Routes an interleaved stream of (object_id, point) updates from many
/// concurrently moving objects to per-object simplifier states — any of
/// the library's 10 algorithms — partitioned by hash(object_id) %
/// num_shards across a fixed worker-thread pool:
///
///   Push/Tick (producer thread)
///     └─ per-shard staging batch ──SPSC ring──► worker thread
///          └─ shard: open-addressing table object_id → pooled
///             StreamingSimplifier state + tail clock ──► TimedSegmentSink
///
/// Determinism contract: for every object, the emitted segment sequence
/// is bit-identical to running the single-stream sink path over that
/// object's points alone — regardless of shard count, thread count,
/// interleaving with other objects, or scheduling. This holds because an
/// object's updates stay in producer order through exactly one staging
/// buffer, one FIFO ring and one owning worker, and the per-object state
/// is exactly the single-stream simplifier (see DESIGN.md "Sharded
/// multi-object streaming engine").
///
/// Each live object keeps a tail clock: the timestamps of its points
/// since its last emitted segment boundary, O(open-tail length) doubles.
/// The clock stamps t_start/t_end on every emitted segment and on the
/// tails the snapshot seam clones, and it is part of the checkpoint.
///
/// Threading contract: Push/FinishObject/Tick/Flush/Checkpoint/Close
/// must be called from one producer thread (or externally serialized).
/// The tail snapshots and the read-only accessors are safe from any
/// thread, concurrently with the producer. The sink runs on worker
/// threads, concurrently across shards.
///
/// Steady-state cost: after warm-up (state pool and table grown to the
/// live-object working set), a point update performs no heap allocation
/// for the one-pass algorithms — the ring slots, the table, the pooled
/// states and their tail clocks are all reused (allocation_test).
class StreamEngine {
 public:
  /// Status-returning construction for untrusted configuration: validates
  /// `options` (including the spec, against the registry) and returns
  /// InvalidArgument/NotFound instead of aborting. The boundary entry
  /// point used by api::Pipeline and operb_cli.
  static Result<std::unique_ptr<StreamEngine>> Create(
      const StreamEngineOptions& options, TimedSegmentSink sink);

  /// Reconstructs an engine mid-stream from a file Checkpoint() wrote.
  /// `options` must describe the same engine: the simplifier spec and
  /// shard count are embedded in the checkpoint and checked
  /// (InvalidArgument on mismatch; thread count, ring sizing and idle
  /// timeout may differ — they never affect per-object output, see the
  /// determinism contract). Corruption on a damaged, truncated or
  /// foreign file; InvalidArgument on an unsupported checkpoint
  /// version (only version 2 is read). Worker threads start only after every per-object state is
  /// rebuilt, so the first post-restore Push() continues each
  /// trajectory exactly where the checkpoint cut it: replaying the
  /// stream's remainder emits bit-identical segments to the
  /// uninterrupted run.
  static Result<std::unique_ptr<StreamEngine>> CreateFromCheckpoint(
      const std::string& path, const StreamEngineOptions& options,
      TimedSegmentSink sink);

  /// Precondition: options.Validate().ok() (checked — use Create() when
  /// the options come from user input). The engine starts its worker
  /// threads immediately; `sink` may be empty (segments are then only
  /// counted).
  StreamEngine(const StreamEngineOptions& options, TimedSegmentSink sink);

  /// Implicitly Close()s if the caller has not.
  ~StreamEngine();

  StreamEngine(const StreamEngine&) = delete;
  StreamEngine& operator=(const StreamEngine&) = delete;

  /// Replaces the sink given at construction. Must be called before the
  /// first Push (checked) — the workers only read the sink after popping
  /// an update handed off later, which is what makes the unsynchronized
  /// replacement safe. May be empty (segments are then only counted).
  /// Prefer passing the sink to Create.
  void SetTimedSink(TimedSegmentSink sink);

  /// Feeds one update. Timestamps must be strictly increasing per object.
  void Push(traj::ObjectId id, const geo::Point& p);

  /// Feeds a batch of interleaved updates.
  void Push(std::span<const traj::ObjectUpdate> updates);

  /// Declares end-of-stream for one object: its state is flushed (the
  /// sink receives its remaining segments) and returned to the pool. An
  /// unknown id is a no-op; pushing the id again later starts a fresh
  /// trajectory.
  void FinishObject(traj::ObjectId id);

  /// Advances the event-time watermark: every shard flushes objects idle
  /// for longer than options.idle_timeout_seconds (no-op when that is 0).
  /// Ordered after everything pushed before it.
  void Tick(double watermark);

  /// Hands all staged updates to the shard rings (delivery barrier is
  /// still asynchronous; Close() is the only completion barrier).
  void Flush();

  /// Writes a consistent snapshot of the complete streaming state —
  /// every live object's simplifier state, engine and shard counters —
  /// to `path`, durably (temp file + rename through the store Env
  /// seam, DESIGN.md §9). The call is a drain barrier: everything
  /// pushed before it is fully processed first, so the snapshot is
  /// exactly "the engine after the stream's prefix" and the engine
  /// keeps running afterwards. Producer-thread only, like Push().
  /// InvalidArgument on a closed engine; IOError when the write or the
  /// rename fails (no partial checkpoint is left at `path` — at most a
  /// stale `path + ".tmp"`). `env` is the write-side filesystem seam;
  /// nullptr uses the real filesystem.
  Status Checkpoint(const std::string& path, store::Env* env = nullptr);

  /// The window form behind spatio-temporal queries: visits the
  /// in-flight tail of every live object (see TailSnapshotVisitor) that
  /// `may_match` cannot rule out. Each visited state is serialized,
  /// deserialized into a scratch state of the same spec and
  /// clone-finished, so the visited segments are bit-identical to what
  /// FinishObject would emit — without perturbing the live state.
  ///
  /// One request per shard goes to the shard's mailbox, not its ring,
  /// all submitted before any is awaited, so the workers serve them in
  /// parallel. Each records the shard's hand-off count when it is
  /// submitted; the worker serves it between batches once it has
  /// processed that many updates. So the call is a read-your-writes
  /// barrier for every update handed to the rings before it (by Flush()
  /// or a full staging batch — updates still in the producer's staging
  /// are not covered), drain-free, and it never waits for the producer.
  /// Safe from any thread. Blocks until every worker has served its
  /// request (bounded by the shard's queue depth).
  ///
  /// On each shard's worker `on_shard(shard)` runs first, then `visitor`
  /// per object in ascending id order. Each object keeps the summary of
  /// its last cloned tail while no point has been pushed to it since; an
  /// object with such a summary that `may_match` rejects is skipped
  /// without a clone. Every other live object is cloned and visited, and
  /// its summary refreshed. `on_shard` and `visitor` run concurrently
  /// across shards. InvalidArgument on a closed engine (including a
  /// request still pending when Close() joins the workers) or an empty
  /// callable.
  Status SnapshotWindowTails(const TailSummaryFilter& may_match,
                             const ShardSnapshotHook& on_shard,
                             const TailSnapshotVisitor& visitor);

  /// The single-object form behind object queries: only `id`'s tail is
  /// cloned and visited (no call when the object is not live), by `id`'s
  /// shard alone. Same barrier and status contract as
  /// SnapshotWindowTails; the clone refreshes the object's summary as a
  /// window visit does.
  Status SnapshotObjectTail(traj::ObjectId id,
                            const TailSnapshotVisitor& visitor);

  /// Live objects right now — a relaxed read of the cross-shard census,
  /// no drain barrier (unlike stats(), which requires Close()).
  std::uint64_t LiveObjectCount() const {
    return live_objects_.load(std::memory_order_relaxed);
  }

  /// Updates handed to `shard`'s ring and not yet consumed — the
  /// flow-control signal (server BUSY admission). Drain-free and
  /// approximate by nature: producer-staged updates are not counted
  /// until FlushShard hands them off, and the consumer count is a
  /// moment-in-time read. Precondition: shard < options().num_shards.
  std::uint64_t RingOccupancy(std::size_t shard) const;

  /// Actual per-shard ring capacity (options.ring_capacity rounded up
  /// to a power of two) — the denominator for RingOccupancy thresholds.
  std::size_t RingCapacity() const;

  /// Finishes every live object, drains all rings, stops the workers and
  /// joins them. Idempotent. After Close() the engine only serves
  /// stats().
  void Close();

  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Aggregate counters; requires closed().
  const StreamEngineStats& stats() const;

  const StreamEngineOptions& options() const { return options_; }

 private:
  enum class Kind : std::uint8_t { kPoint, kFinish, kTick, kCloseAll };

  struct TailSnapshotRequest;

  /// One ring entry. For kTick, point.t carries the watermark.
  struct Update {
    traj::ObjectId id = 0;
    geo::Point point;
    Kind kind = Kind::kPoint;
  };

  class Shard;

  /// Tag for the deferred-start constructor CreateFromCheckpoint uses:
  /// members are built but no worker thread runs until StartWorkers(),
  /// so restore can write shard state without synchronization.
  struct DeferWorkersTag {};
  StreamEngine(const StreamEngineOptions& options, TimedSegmentSink sink,
               DeferWorkersTag);
  void StartWorkers();

  std::size_t ShardOf(traj::ObjectId id) const;
  /// Appends to the shard's staging batch, flushing it when full.
  void Route(std::size_t shard, const Update& u);
  /// Pushes one shard's staging batch into its ring, blocking (yield
  /// loop) while the ring is full — the backpressure path.
  void FlushShard(std::size_t shard);
  /// Blocks until every shard has consumed everything handed to it.
  void WaitDrained();
  void WorkerLoop(std::size_t worker_index);
  /// The status contract shared by the tail-snapshot entry points.
  Status CheckSnapshot(const TailSnapshotVisitor& visitor) const;
  /// Common body of the tail-snapshot entry points: submits each of the
  /// `n` requests to its shard's mailbox, then waits until every one
  /// was served or refused.
  Status RunSnapshot(TailSnapshotRequest* requests, std::size_t n);

  StreamEngineOptions options_;
  TimedSegmentSink sink_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::vector<Update>> staging_;  ///< producer-side, per shard
  /// Per-shard hand-off counts. Written by the producer only; atomic so
  /// RingOccupancy and the snapshot barrier can read them from any
  /// thread without the drain barrier.
  std::vector<std::atomic<std::uint64_t>> pushed_;
  std::vector<std::thread> workers_;
  std::atomic<bool> stop_{false};
  /// Cross-shard live-object census, updated by workers on object
  /// open/finish (object-lifecycle frequency, not per point).
  std::atomic<std::uint64_t> live_objects_{0};
  std::atomic<std::uint64_t> peak_live_{0};
  /// Written by Close() only; atomic because snapshot calls read it from
  /// any thread.
  std::atomic<bool> closed_{false};
  StreamEngineStats stats_;  ///< aggregated in Close()
};

}  // namespace operb::engine

#endif  // OPERB_ENGINE_STREAM_ENGINE_H_
