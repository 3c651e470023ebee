#ifndef OPERB_STORE_ENV_H_
#define OPERB_STORE_ENV_H_

/// \file
/// The write-side filesystem seam of the store and the engine
/// checkpointer. Every durable mutation — segment-file creation and
/// sealing, MANIFEST commits, compaction's rename/unlink dance,
/// checkpoint temp+rename — goes through an Env, so tests can substitute
/// FaultInjectingEnv and deterministically fail the Nth operation to
/// enumerate every crash point (DESIGN.md §9). Read paths stay on plain
/// stdio: a reader never mutates the store, so injected read faults buy
/// no extra crash coverage. The Env also owns the background thread the
/// StoreWriter seals blocks on (Schedule).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace operb::store {

/// A sequentially written file. Append/Flush/Close mirror
/// fwrite/fflush/fclose; destruction closes the underlying handle if
/// Close() was never called (without reporting its status — callers that
/// care about durability must Close() explicitly).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(std::span<const std::uint8_t> data) = 0;
  virtual Status Flush() = 0;
  virtual Status Close() = 0;
};

/// The file operations the store's write paths perform. The default
/// implementation is the real filesystem; FaultInjectingEnv wraps any Env
/// and injects deterministic failures.
class Env {
 public:
  virtual ~Env() = default;

  /// Creates (truncating) `path` for sequential writing.
  virtual Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) = 0;

  /// Atomically replaces `to` with `from` (POSIX rename semantics — the
  /// commit primitive of every durable multi-step update here).
  virtual Status Rename(const std::string& from, const std::string& to) = 0;

  /// Unlinks `path`. NotFound when it does not exist.
  virtual Status Remove(const std::string& path) = 0;

  /// Runs `task` on a background thread, as LevelDB's Env::Schedule
  /// does. Tasks run one at a time, in the order they were scheduled, so
  /// work scheduled in order is done in order. A task must not throw,
  /// nor wait for work scheduled after it. The default Env starts its
  /// one thread on first use and keeps it for the life of the process;
  /// while no thread can be started, tasks run on the caller.
  virtual void Schedule(std::function<void()> task) = 0;

  /// The process-lived real-filesystem Env. Callers taking an `Env*`
  /// parameter treat nullptr as this.
  static Env* Default();
};

/// Resolves the ubiquitous "nullptr means the real filesystem" default.
inline Env* ResolveEnv(Env* env) { return env != nullptr ? env : Env::Default(); }

/// Deterministic fault injection: fails the Nth counted operation
/// (create, append, flush, rename, remove — close is not counted) in a
/// chosen way, so a test can enumerate k = 0..N-1 and assert recovery
/// after every possible crash point.
///
/// Thread-safe: the operation counter is shared across threads, so a
/// background compactor racing a writer still sees one deterministic
/// global operation sequence per single-threaded test scenario (the
/// crash-matrix tests run the pipeline single-threaded for exactly this
/// reproducibility).
class FaultInjectingEnv final : public Env {
 public:
  enum class FaultKind {
    kNone,            ///< count operations only
    kError,           ///< the Nth operation fails; later ones succeed
    kShortWrite,      ///< the Nth operation, if an append, persists only
                      ///< half its bytes before failing (torn write)
    kTornWriteCrash,  ///< like kShortWrite, but every later operation
                      ///< fails too — a crash at the Nth operation
  };

  /// Wraps `base` (nullptr: Env::Default()).
  explicit FaultInjectingEnv(Env* base = nullptr);

  /// Arms the injector: operation number `fail_at_op` (0-based, in
  /// counted-operation order) fails per `kind`. Resets the counter.
  void ArmFault(FaultKind kind, std::uint64_t fail_at_op);

  /// Disarms and resets the counter (counting continues).
  void Disarm();

  /// Operations counted since the last ArmFault/Disarm.
  std::uint64_t op_count() const;

  /// True once the armed fault has fired.
  bool fault_fired() const;

  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  /// Forwards to the base Env; scheduling is not a counted operation.
  void Schedule(std::function<void()> task) override;

 private:
  class FaultingFile;

  /// Ticks the counter; returns what the current operation must do.
  enum class OpOutcome { kSucceed, kFail, kTearThenFail };
  OpOutcome NextOp();

  Env* const base_;
  mutable std::mutex mu_;
  FaultKind kind_ = FaultKind::kNone;
  std::uint64_t fail_at_op_ = 0;
  std::uint64_t op_count_ = 0;
  bool fired_ = false;
  bool crashed_ = false;
};

}  // namespace operb::store

#endif  // OPERB_STORE_ENV_H_
