#ifndef OPERB_API_PIPELINE_H_
#define OPERB_API_PIPELINE_H_

/// \file
/// Composable Pipeline facade over the full dataflow: ingest, clean,
/// simplify, verify, delta-encode, write-store, sink.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/spec.h"
#include "codec/delta.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/stream_engine.h"
#include "eval/verifier.h"
#include "store/env.h"
#include "store/writer.h"
#include "traj/cleaner.h"
#include "traj/multi_object.h"
#include "traj/trajectory.h"

namespace operb::api {

/// Output callback of a Pipeline (Builder::ToSink): one segment of one
/// object, without its times. On the engine path it runs on worker
/// threads under the engine sink's contract (engine::TimedSegmentSink);
/// on the single path it runs inline, with object id 0.
using PipelineSink =
    std::function<void(traj::ObjectId, const traj::RepresentedSegment&)>;

/// Everything one Pipeline::Run() produced and measured.
///
/// The counters and stage timings here are the *per-run view* of the
/// `pipeline.*` instruments in obs::MetricsRegistry::Global()
/// (DESIGN.md §10): every run folds the same numbers into the registry,
/// so a metrics snapshot shows them accumulated across runs.
struct PipelineReport {
  /// Resolved canonical spec string of the simplifier that ran.
  std::string spec;

  std::size_t points_in = 0;    ///< raw samples ingested
  std::size_t points_kept = 0;  ///< after the clean stage (== points_in
                                ///< when cleaning is off)
  std::size_t objects = 0;      ///< trajectories simplified
  std::size_t segments = 0;     ///< output segments across all objects

  /// Wall time of the simplification stage alone: single path — push +
  /// finish; engine path — push + Close() (which includes the drain
  /// barrier). Ingest, cleaning, verification and encoding are excluded.
  double simplify_seconds = 0.0;

  /// Clean-stage counters (zeros when the stage is off).
  traj::CleanerStats cleaner;

  /// Verify-stage outcome (meaningful only when the stage ran).
  bool verify_ran = false;
  bool verified = false;            ///< every object within zeta
  std::size_t bound_violations = 0; ///< objects exceeding the bound
  double worst_distance = 0.0;      ///< worst point-to-line distance seen

  /// Delta-encode stage: lossless codec over the *cleaned input* (the
  /// storage-cost contrast point to the lossy simplification).
  std::size_t delta_bytes = 0;
  double delta_ratio = 0.0;  ///< delta_bytes / (24 bytes * points_kept)

  /// WriteStore-stage outcome (meaningful only when the stage ran): the
  /// path written and the writer's lifetime counters, including
  /// write_amplification (see store::StoreWriterStats).
  bool store_ran = false;
  std::string store_path;
  store::StoreWriterStats store_stats;

  /// Output segments in emission order, grouped by object id (stable
  /// sort), when no sink was installed; empty otherwise.
  std::vector<traj::TaggedSegment> segments_out;

  /// Engine-path extras.
  bool used_engine = false;
  engine::StreamEngineStats engine_stats;

  /// Checkpoint-stage outcome (engine path only; see
  /// Builder::Checkpoint / Builder::ResumeFrom).
  bool checkpointed = false;          ///< a Checkpoint() stage ran
  std::string checkpoint_path;        ///< where the last snapshot went
  std::size_t checkpoints_written = 0;
  bool resumed = false;               ///< the engine was restored from a
                                      ///< checkpoint before ingesting

  /// MetricsSnapshots-stage outcome. A failed snapshot write is never
  /// fatal to the run: it is logged, counted here (and in the
  /// `pipeline.snapshot_failures` registry counter) and ingest
  /// continues.
  bool metrics_ran = false;
  std::string metrics_path;            ///< where the last snapshot went
  std::size_t snapshots_written = 0;   ///< successful snapshot writes
  std::size_t snapshot_failures = 0;   ///< failed writes (non-fatal)
};

/// Composable facade over the library's full dataflow:
///
///   ingest → clean → simplify(spec) → verify(zeta) → delta-encode
///          → write-store → sink
///
/// Exactly one ingest source and a simplifier spec are required; every
/// other stage is opt-in. Single-trajectory sources run the one-pass
/// streaming sink path in the calling thread; multi-object sources (and
/// any source combined with Engine()) run on the sharded
/// engine::StreamEngine with per-object cleaning and verification. Both
/// paths emit segments bit-identical to the equivalent hand-assembled
/// calls — the facade adds composition, not behavior.
///
/// Error handling follows the library's boundary contract (DESIGN.md §7):
/// configuration errors surface at Build(), data errors (unreadable file,
/// corrupt rows, non-monotone timestamps without a Clean stage) at
/// Run() — always as Status, never a CHECK abort.
///
///   auto built = api::Pipeline::Builder()
///                    .FromCsvFile("fleet.csv")
///                    .Clean()
///                    .Simplify("operb-a:zeta=30")
///                    .Verify()
///                    .Build();
///   if (!built.ok()) { ... }
///   auto report = built->Run();
class Pipeline {
 public:
  class Builder {
   public:
    /// --- Ingest (exactly one) ---
    /// Single trajectory, by value.
    Builder& FromTrajectory(traj::Trajectory trajectory);
    /// Plain x,y,t CSV file / in-memory content.
    Builder& FromCsvFile(std::string path);
    Builder& FromCsv(std::string content);
    /// GeoLife .plt file.
    Builder& FromPltFile(std::string path);
    /// Interleaved multi-object updates, by value / id,t,x,y CSV file.
    Builder& FromUpdates(std::vector<traj::ObjectUpdate> updates);
    Builder& FromMultiObjectCsvFile(std::string path);

    /// --- Stages ---
    /// One-pass stream cleaning (duplicates, out-of-order, speed gate),
    /// applied per object before simplification.
    Builder& Clean(traj::CleanerOptions options = {});
    /// The simplifier (required). The string overload is parsed and
    /// validated at Build().
    Builder& Simplify(SimplifierSpec spec);
    Builder& Simplify(std::string_view spec_string);
    /// Independent per-object error-bound verification against the
    /// spec's zeta.
    Builder& Verify(double slack = 1e-9);
    /// Lossless delta encoding of the cleaned input (storage contrast).
    Builder& DeltaEncode(codec::DeltaCodecOptions options = {});
    /// Persist the simplified output: every emitted segment, annotated
    /// with the time interval it covers, streams into a sharded
    /// directory-based trajectory store at `path` (src/store: manifest +
    /// per-shard segment files), which `operb_cli --query` /
    /// api::RunStoreQuery can then serve. The options carry the shard
    /// count (options.num_shards; objects partition by
    /// traj::ShardOfObject, the engine's own hash) and block budget; the
    /// zeta field is overwritten by the Simplify() spec's zeta (the
    /// bound the segments are actually simplified under — it is the
    /// store's error certificate). Composes with ToSink(): the sink
    /// still receives every segment.
    Builder& WriteStore(std::string path,
                        store::StoreWriterOptions options = {});
    /// Route through the sharded StreamEngine with these knobs
    /// (shards/threads/ring/...). The options' spec field is overwritten
    /// by the Simplify() spec. Multi-object sources use the engine even
    /// without this call (with default knobs).
    Builder& Engine(engine::StreamEngineOptions options);
    /// Deliver segments to `sink` instead of collecting them into the
    /// report (see PipelineSink for the threading contract).
    Builder& ToSink(PipelineSink sink);
    /// Periodically snapshot the engine's complete streaming state to
    /// `path` (engine::StreamEngine::Checkpoint: drain barrier, temp
    /// file + rename, DESIGN.md §9). With every_n_points > 0 a
    /// checkpoint is written after each chunk of that many updates
    /// (each overwriting `path`); with 0, exactly one is written after
    /// the last update, before Close(). Implies the engine path. `env`
    /// is the write-side filesystem seam (nullptr: real filesystem; not
    /// owned, must outlive Run()).
    Builder& Checkpoint(std::string path, std::size_t every_n_points = 0,
                        store::Env* env = nullptr);
    /// Periodically export a metrics snapshot (obs::WriteSnapshotJson:
    /// every registry instrument plus trace totals, temp file + rename)
    /// to `path`. With every_n_points > 0 a snapshot is written after
    /// each chunk of that many updates (each overwriting `path`; implies
    /// the engine path, like Checkpoint); with 0, exactly one is written
    /// after the run completes, on either path. `env` is the write-side
    /// filesystem seam (nullptr: real filesystem; not owned, must
    /// outlive Run()) — under FaultInjectingEnv a failed write is
    /// logged and counted, never fatal (see PipelineReport).
    Builder& MetricsSnapshots(std::string path,
                              std::size_t every_n_points = 0,
                              store::Env* env = nullptr);
    /// Restore the engine from a checkpoint before ingesting: the
    /// source must then supply exactly the stream's *remainder* (the
    /// updates after the cut), and the run emits the segments the
    /// uninterrupted run would have emitted from that point on,
    /// bit-identically. Implies the engine path. Composes with
    /// WriteStore(): the store receives the post-cut segments, their
    /// times stamped by the restored engine. Incompatible with Clean()
    /// and Verify() — those stages need the full original stream, which
    /// a resumed run by definition does not have (Build() rejects the
    /// combination).
    Builder& ResumeFrom(std::string path);

    /// Validates the configuration (source present, spec parses and
    /// resolves, engine knobs in range).
    Result<Pipeline> Build();

   private:
    friend class Pipeline;
    enum class Source {
      kNone,
      kTrajectory,
      kCsvFile,
      kCsvContent,
      kPltFile,
      kUpdates,
      kMultiCsvFile,
    };

    Status SetSource(Source source);

    Source source_ = Source::kNone;
    Status source_error_;  ///< sticky: second source call reports here
    traj::Trajectory trajectory_;
    std::string path_or_content_;
    std::vector<traj::ObjectUpdate> updates_;

    bool clean_ = false;
    traj::CleanerOptions cleaner_options_;
    bool have_spec_ = false;
    SimplifierSpec spec_;
    bool have_spec_string_ = false;  ///< string overload pending Build()
    std::string spec_string_;
    bool verify_ = false;
    double verify_slack_ = 1e-9;
    bool delta_ = false;
    codec::DeltaCodecOptions delta_options_;
    bool write_store_ = false;
    std::string store_path_;
    store::StoreWriterOptions store_options_;
    bool use_engine_ = false;
    engine::StreamEngineOptions engine_options_;
    PipelineSink sink_;
    std::string checkpoint_path_;
    std::size_t checkpoint_every_ = 0;
    store::Env* checkpoint_env_ = nullptr;
    bool metrics_ = false;
    std::string metrics_path_;
    std::size_t metrics_every_ = 0;
    store::Env* metrics_env_ = nullptr;
    std::string resume_path_;
  };

  /// Executes the pipeline. Single use: a second call returns
  /// InvalidArgument (the input was consumed).
  Result<PipelineReport> Run();

 private:
  explicit Pipeline(Builder config) : config_(std::move(config)) {}

  Result<PipelineReport> RunSingle();
  Result<PipelineReport> RunEngine();

  Builder config_;
  bool ran_ = false;
};

}  // namespace operb::api

#endif  // OPERB_API_PIPELINE_H_
