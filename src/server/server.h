#ifndef OPERB_SERVER_SERVER_H_
#define OPERB_SERVER_SERVER_H_

/// \file
/// The long-running trajectory daemon: a live StreamEngine ingesting
/// concurrent client streams, a sealed store growing behind it, and
/// queries answered over both with a read-your-writes merge
/// (DESIGN.md §11).
///
/// Data layout per object, oldest to newest:
///
///   sealed store blocks | in-memory overlay | in-flight engine tail
///   (StoreReader)         (segments emitted   (what FinishObject
///                          since the last      would emit right now —
///                          seal)               via the engine's tail-
///                                              snapshot seam)
///
/// The three layers partition the object's emission sequence, so
/// concatenating them *is* the offline answer at the snapshot point.
/// Consistency: a query reads a live object's overlay and tail on the
/// engine worker that owns the object (inside the tail snapshot) — the
/// only thread that appends to that overlay shard — so both describe
/// the same stream prefix: no torn tails. Seals take the seal lock
/// exclusively; queries hold it shared across their whole merge and
/// never take the engine mutex.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/stream_engine.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "server/protocol.h"
#include "server/socket.h"
#include "store/env.h"
#include "store/reader.h"
#include "traj/multi_object.h"

namespace operb::server {

/// Configuration of a TrajectoryServer.
struct ServerOptions {
  /// The engine the daemon ingests into; its timed segments feed the
  /// overlay and the store. The spec's zeta becomes the store's zeta.
  engine::StreamEngineOptions engine;

  /// Store directory the daemon owns. Created fresh at Start (the
  /// daemon is the writer; point readers elsewhere).
  std::string store_path;

  /// Shard count of the written store (store::StoreWriterOptions).
  std::size_t store_shards = 4;

  /// Background seal period; <= 0 disables the sealer thread (sealing
  /// then happens only on the kSeal verb and at Stop()).
  double seal_interval_seconds = 0.5;

  /// INGEST admission: reject with BUSY when any target shard's ring
  /// occupancy exceeds this fraction of its capacity. The never-drop
  /// SPSC backpressure stays the last line of defense; this turns it
  /// into explicit flow control before the producer would stall.
  double busy_fraction = 0.75;

  /// Retry-after hint carried in BUSY responses, milliseconds.
  std::uint32_t busy_retry_ms = 5;

  /// Written at Stop() when non-empty: final engine checkpoint / final
  /// obs metrics snapshot (the graceful-lifecycle contract).
  std::string final_checkpoint_path;
  std::string final_metrics_path;

  /// Write-side filesystem seam for the store and checkpoints
  /// (nullptr: real filesystem) — the fault-injection hook of the
  /// lifecycle tests.
  store::Env* env = nullptr;

  /// Test-only: runs inside the engine's timed sink (worker threads)
  /// before each overlay append — a deterministic brake that lets
  /// tests saturate the rings and observe BUSY.
  std::function<void(const traj::TimedSegment&)> sink_hook_for_test;

  Status Validate() const;
};

/// The daemon. Start() binds, spins up the accept loop and worker
/// threads; Stop() (or destruction) drains connections, closes the
/// engine, seals the store and writes the final artifacts. All public
/// methods are thread-safe.
class TrajectoryServer {
 public:
  /// Binds 127.0.0.1:`port` (0 = ephemeral; see port()), creates the
  /// store, starts the engine, the accept loop and the sealer.
  static Result<std::unique_ptr<TrajectoryServer>> Start(
      const ServerOptions& options, std::uint16_t port);

  ~TrajectoryServer();
  TrajectoryServer(const TrajectoryServer&) = delete;
  TrajectoryServer& operator=(const TrajectoryServer&) = delete;

  std::uint16_t port() const { return listener_.port(); }

  /// Graceful shutdown: stop accepting, wake and join every
  /// connection, final checkpoint, engine Close (finishing every live
  /// object into the overlay), final seal, final metrics snapshot.
  /// Idempotent; returns the first error encountered (the store is
  /// still left reopenable — that is what the fault-matrix test
  /// asserts).
  Status Stop();

  /// True once a client's kShutdown verb was honored; the daemon's
  /// main() waits on this (or a signal) and then calls Stop().
  bool ShutdownRequested() const {
    return shutdown_requested_.load(std::memory_order_acquire);
  }

  /// Blocks until ShutdownRequested() (checked every 50 ms) — the
  /// daemon main-loop helper; returns immediately if already stopped.
  void WaitForShutdownRequest();

  // The server's own query/ingest surface — what connection threads
  // call, exposed publicly so in-process tests and the bench harness
  // can drive the merge without a socket in the way.

  /// Ingests a batch. Returns true when accepted; false = BUSY (the
  /// admission check tripped; nothing was ingested, retry after
  /// options().busy_retry_ms).
  Result<bool> Ingest(std::span<const traj::ObjectUpdate> updates);

  Status FinishObject(traj::ObjectId id);

  /// Read-your-writes merged queries (see file comment). Results are
  /// in the store's canonical order: ascending object id, emission
  /// order within an object — byte-identical to what a store that had
  /// sealed everything would answer.
  Result<std::vector<traj::TimedSegment>> QueryObject(traj::ObjectId id,
                                                      double t_min,
                                                      double t_max);
  Result<std::vector<traj::TimedSegment>> QueryWindow(
      const geo::BoundingBox& window, double t_min, double t_max,
      bool flat_scan);
  Result<geo::Point> PositionAt(traj::ObjectId id, double t);

  StatsBody Stats();

  /// Forces a seal now; returns the sealed-segment total on success.
  Result<std::uint64_t> Seal();

  /// Writes an engine checkpoint (drain barrier; concurrent ingest
  /// briefly blocks) / an obs metrics snapshot to `path`.
  Status WriteCheckpoint(const std::string& path);
  Status WriteMetricsSnapshot(const std::string& path);

  const ServerOptions& options() const { return options_; }

 private:
  /// Per-engine-shard slice of the overlay: overlay_[s] holds the
  /// objects of engine shard s, so only that shard's worker appends to
  /// it. The mutex is leaf-level: nothing is called while holding it.
  struct OverlayShard {
    std::mutex mu;
    std::unordered_map<traj::ObjectId, std::vector<traj::TimedSegment>>
        segments;
  };

  struct Connection {
    Socket sock;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  explicit TrajectoryServer(const ServerOptions& options);

  Status StartImpl(std::uint16_t port);
  void AcceptLoop();
  void SealerLoop();
  void ServeConnection(Connection* conn);
  /// Handles one request frame; returns false when the connection
  /// should close (shutdown honored).
  bool Dispatch(Connection* conn, Verb verb,
                std::span<const std::uint8_t> body);
  /// Joins finished connection threads; with `all`, wakes and joins
  /// every connection (Stop).
  void ReapConnections(bool all);

  /// The engine's timed sink (worker threads): append to the overlay.
  void OnSegment(const traj::TimedSegment& s);

  OverlayShard& OverlayOf(traj::ObjectId id) {
    return *overlay_[traj::ShardOfObject(id, overlay_.size())];
  }

  /// The overlay segments of `id` overlapping [t_min, t_max], appended
  /// to `out` in emission order.
  void AppendOverlay(traj::ObjectId id, double t_min, double t_max,
                     std::vector<traj::TimedSegment>* out);

  /// Seal with the exclusive lock already held.
  Status SealLocked();

  ServerOptions options_;
  Listener listener_;
  std::unique_ptr<engine::StreamEngine> engine_;
  /// Serializes the engine's producer calls (Push/Flush/FinishObject/
  /// Checkpoint/Close) — its single-producer contract. Queries never
  /// take it: tail snapshots are safe from any thread, and their
  /// barrier is the shard's hand-off count, which an acked Ingest has
  /// already advanced.
  std::mutex engine_mu_;

  /// Seal lock: queries shared (reader_ and the overlay boundary are
  /// stable across their merge), seals exclusive. Engine workers never
  /// take it (they only touch leaf overlay mutexes) — that asymmetry
  /// is what makes the lock order cycle-free; see DESIGN.md §11.
  std::shared_mutex seal_mu_;
  std::unique_ptr<store::StoreReader> reader_;  ///< guarded by seal_mu_
  std::vector<std::unique_ptr<OverlayShard>> overlay_;
  /// A failed seal session poisons further seals (segments already
  /// handed to a torn writer session must not be re-appended); the
  /// overlay keeps serving everything unsealed.
  bool seal_poisoned_ = false;  ///< guarded by seal_mu_
  Status seal_error_;           ///< guarded by seal_mu_

  std::thread accept_thread_;
  std::thread sealer_thread_;
  std::mutex conns_mu_;
  std::vector<std::unique_ptr<Connection>> conns_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::mutex stop_mu_;
  bool stopped_ = false;  ///< guarded by stop_mu_
  Status stop_status_;    ///< guarded by stop_mu_

  std::atomic<std::uint64_t> ingest_points_{0};
  std::atomic<std::uint64_t> segments_emitted_{0};
  std::atomic<std::uint64_t> backpressure_rejects_{0};
  std::atomic<std::uint64_t> seals_{0};
  std::atomic<std::uint64_t> connections_open_{0};
};

}  // namespace operb::server

#endif  // OPERB_SERVER_SERVER_H_
