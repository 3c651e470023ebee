#include "api/pipeline.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "api/registry.h"
#include "baselines/streaming.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "traj/io.h"
#include "traj/piecewise.h"

namespace operb::api {

namespace {

/// Raw storage cost a trajectory point is charged against (three doubles),
/// the same constant codec::DeltaCompressionRatio uses.
constexpr double kRawBytesPerPoint = 24.0;

/// Pipeline-layer registry instruments — the cumulative counterpart of
/// PipelineReport (which stays the per-run API). Acquired once per
/// process, then lock-free.
struct PipelineMetrics {
  obs::Counter* runs;
  obs::Counter* points_in;
  obs::Counter* points_kept;
  obs::Counter* segments_out;
  obs::Counter* snapshots_written;
  obs::Counter* snapshot_failures;
  obs::LatencyHistogram* ingest_ns;
  obs::LatencyHistogram* clean_ns;
  obs::LatencyHistogram* simplify_ns;
  obs::LatencyHistogram* verify_ns;
  obs::LatencyHistogram* delta_ns;
  obs::LatencyHistogram* store_close_ns;
};

PipelineMetrics& GetPipelineMetrics() {
  static PipelineMetrics* const m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return new PipelineMetrics{
        r.GetCounter("pipeline.runs"),
        r.GetCounter("pipeline.points_in"),
        r.GetCounter("pipeline.points_kept"),
        r.GetCounter("pipeline.segments_out"),
        r.GetCounter("pipeline.snapshots_written"),
        r.GetCounter("pipeline.snapshot_failures"),
        r.GetHistogram("pipeline.stage.ingest_ns"),
        r.GetHistogram("pipeline.stage.clean_ns"),
        r.GetHistogram("pipeline.stage.simplify_ns"),
        r.GetHistogram("pipeline.stage.verify_ns"),
        r.GetHistogram("pipeline.stage.delta_ns"),
        r.GetHistogram("pipeline.stage.store_close_ns"),
    };
  }();
  return *m;
}

/// Routes one snapshot write through the store's Env seam with the same
/// temp-file + rename discipline as a manifest commit or checkpoint, so
/// FaultInjectingEnv can fail it like any other durable write.
Status WriteSnapshotViaEnv(store::Env* env, const std::string& path,
                           std::string_view content) {
  const std::string tmp = path + ".tmp";
  OPERB_ASSIGN_OR_RETURN(std::unique_ptr<store::WritableFile> file,
                         env->NewWritableFile(tmp));
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(content.data()), content.size());
  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file->Append(bytes));
    OPERB_RETURN_IF_ERROR(file->Flush());
    return file->Close();
  }();
  if (!written.ok()) {
    (void)env->Remove(tmp);
    return written;
  }
  const Status renamed = env->Rename(tmp, path);
  if (!renamed.ok()) {
    (void)env->Remove(tmp);
    return renamed;
  }
  return Status::OK();
}

/// MetricsSnapshots-stage write. Never fatal: a failure is logged to
/// stderr, counted (report + `pipeline.snapshot_failures`) and the run
/// continues — losing a telemetry file must not lose the ingest.
void WriteMetricsSnapshot(const std::string& path, store::Env* env,
                          PipelineReport* report) {
  obs::AtomicWriteFn write;  // default: obs::AtomicWriteFile
  if (env != nullptr) {
    write = [env](const std::string& p, std::string_view content) {
      return WriteSnapshotViaEnv(env, p, content);
    };
  }
  const Status s = obs::WriteSnapshotJson(path, {}, std::move(write));
  if (s.ok()) {
    ++report->snapshots_written;
    GetPipelineMetrics().snapshots_written->Increment();
    return;
  }
  ++report->snapshot_failures;
  GetPipelineMetrics().snapshot_failures->Increment();
  std::fprintf(stderr, "operb: metrics snapshot to %s failed: %s\n",
               path.c_str(), s.ToString().c_str());
}

/// Folds the run's headline counters into the registry once the report
/// is final.
void FoldRunCounters(const PipelineReport& report) {
  PipelineMetrics& m = GetPipelineMetrics();
  m.runs->Increment();
  m.points_in->Add(report.points_in);
  m.points_kept->Add(report.points_kept);
  m.segments_out->Add(report.segments);
}

}  // namespace

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

Status Pipeline::Builder::SetSource(Source source) {
  if (source_ != Source::kNone && source_error_.ok()) {
    source_error_ = Status::InvalidArgument(
        "pipeline has more than one ingest source; call exactly one "
        "From*() method");
  }
  source_ = source;
  return Status::OK();
}

Pipeline::Builder& Pipeline::Builder::FromTrajectory(
    traj::Trajectory trajectory) {
  SetSource(Source::kTrajectory);
  trajectory_ = std::move(trajectory);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromCsvFile(std::string path) {
  SetSource(Source::kCsvFile);
  path_or_content_ = std::move(path);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromCsv(std::string content) {
  SetSource(Source::kCsvContent);
  path_or_content_ = std::move(content);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromPltFile(std::string path) {
  SetSource(Source::kPltFile);
  path_or_content_ = std::move(path);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromUpdates(
    std::vector<traj::ObjectUpdate> updates) {
  SetSource(Source::kUpdates);
  updates_ = std::move(updates);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::FromMultiObjectCsvFile(
    std::string path) {
  SetSource(Source::kMultiCsvFile);
  path_or_content_ = std::move(path);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Clean(traj::CleanerOptions options) {
  clean_ = true;
  cleaner_options_ = options;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Simplify(SimplifierSpec spec) {
  have_spec_ = true;
  have_spec_string_ = false;
  spec_ = std::move(spec);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Simplify(std::string_view spec_string) {
  have_spec_ = true;
  have_spec_string_ = true;  // parsed at Build(); "" must fail there, not
                             // silently fall back to an earlier spec
  spec_string_ = std::string(spec_string);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Verify(double slack) {
  verify_ = true;
  verify_slack_ = slack;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::DeltaEncode(
    codec::DeltaCodecOptions options) {
  delta_ = true;
  delta_options_ = options;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::WriteStore(
    std::string path, store::StoreWriterOptions options) {
  write_store_ = true;
  store_path_ = std::move(path);
  store_options_ = options;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Engine(
    engine::StreamEngineOptions options) {
  use_engine_ = true;
  engine_options_ = std::move(options);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::ToSink(PipelineSink sink) {
  sink_ = std::move(sink);
  return *this;
}

Pipeline::Builder& Pipeline::Builder::Checkpoint(std::string path,
                                                 std::size_t every_n_points,
                                                 store::Env* env) {
  checkpoint_path_ = std::move(path);
  checkpoint_every_ = every_n_points;
  checkpoint_env_ = env;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::MetricsSnapshots(std::string path,
                                                       std::size_t every_n_points,
                                                       store::Env* env) {
  metrics_ = true;
  metrics_path_ = std::move(path);
  metrics_every_ = every_n_points;
  metrics_env_ = env;
  return *this;
}

Pipeline::Builder& Pipeline::Builder::ResumeFrom(std::string path) {
  resume_path_ = std::move(path);
  return *this;
}

Result<Pipeline> Pipeline::Builder::Build() {
  if (!source_error_.ok()) return source_error_;
  if (source_ == Source::kNone) {
    return Status::InvalidArgument(
        "pipeline has no ingest source; call one of the From*() methods");
  }
  if (!have_spec_) {
    return Status::InvalidArgument(
        "pipeline has no simplifier; call Simplify(spec)");
  }
  if (have_spec_string_) {
    OPERB_ASSIGN_OR_RETURN(spec_, SimplifierSpec::Parse(spec_string_));
    have_spec_string_ = false;
    spec_string_.clear();
  }
  OPERB_RETURN_IF_ERROR(AlgorithmRegistry::Global().Validate(spec_));
  if (metrics_ && metrics_path_.empty()) {
    return Status::InvalidArgument(
        "MetricsSnapshots needs a non-empty path");
  }
  const bool multi_source =
      source_ == Source::kUpdates || source_ == Source::kMultiCsvFile;
  // Checkpoint/resume are engine features: the snapshot is of engine
  // shard state, so either stage routes the run through the engine.
  // Periodic (every_n > 0) metrics snapshots need the chunked ingest
  // loop, which also lives on the engine path.
  if (use_engine_ || multi_source || !checkpoint_path_.empty() ||
      !resume_path_.empty() || (metrics_ && metrics_every_ > 0)) {
    use_engine_ = true;
    engine_options_.spec = spec_;
    OPERB_RETURN_IF_ERROR(engine_options_.Validate());
  }
  if (!resume_path_.empty()) {
    // A resumed run only sees the stream's remainder; stages that need
    // the full original stream would silently mis-report on the tail.
    if (clean_) {
      return Status::InvalidArgument(
          "ResumeFrom cannot be combined with Clean: cleaner state is not "
          "part of an engine checkpoint, so the tail would be cleaned "
          "against a fresh history");
    }
    if (verify_) {
      return Status::InvalidArgument(
          "ResumeFrom cannot be combined with Verify: verification needs "
          "the full original stream, a resumed run only has its tail");
    }
  }
  if (verify_ && !(verify_slack_ >= 0.0)) {
    return Status::InvalidArgument("verify slack must be >= 0");
  }
  if (write_store_) {
    if (store_path_.empty()) {
      return Status::InvalidArgument("WriteStore needs a non-empty path");
    }
    // The stored zeta is the bound the segments are simplified under —
    // anything else would certify an error margin the data doesn't have.
    store_options_.zeta = spec_.zeta;
    OPERB_RETURN_IF_ERROR(store_options_.Validate());
  }
  return Pipeline(std::move(*this));
}

// ---------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------

Result<PipelineReport> Pipeline::Run() {
  if (ran_) {
    return Status::InvalidArgument(
        "Pipeline::Run() may only be called once (the input was consumed)");
  }
  ran_ = true;
  return config_.use_engine_ ? RunEngine() : RunSingle();
}

Result<PipelineReport> Pipeline::RunSingle() {
  Builder& cfg = config_;
  // With a Clean() stage, CSV sources are parsed as *raw* points — the
  // validating parser would reject the very rows the cleaner exists to
  // repair. (PLT parsing derives timestamps while projecting and stays
  // validating; a corrupt .plt is a Corruption, not a cleanable stream.)
  std::vector<geo::Point> raw;
  traj::Trajectory input;
  {
    obs::ScopedTimer ingest_timer(GetPipelineMetrics().ingest_ns);
    switch (cfg.source_) {
      case Builder::Source::kTrajectory:
        input = std::move(cfg.trajectory_);
        break;
      case Builder::Source::kCsvFile: {
        if (cfg.clean_) {
          OPERB_ASSIGN_OR_RETURN(raw,
                                 traj::ReadCsvPoints(cfg.path_or_content_));
        } else {
          OPERB_ASSIGN_OR_RETURN(input, traj::ReadCsv(cfg.path_or_content_));
        }
        break;
      }
      case Builder::Source::kCsvContent: {
        if (cfg.clean_) {
          OPERB_ASSIGN_OR_RETURN(raw,
                                 traj::ParseCsvPoints(cfg.path_or_content_));
        } else {
          OPERB_ASSIGN_OR_RETURN(input,
                                 traj::ParseCsv(cfg.path_or_content_));
        }
        break;
      }
      case Builder::Source::kPltFile: {
        OPERB_ASSIGN_OR_RETURN(input,
                               traj::ReadGeoLifePlt(cfg.path_or_content_));
        break;
      }
      default:
        return Status::Internal(
            "single-path Run with a multi-object source");
    }
  }

  PipelineReport report;
  report.spec = cfg.spec_.ToString();
  report.objects = 1;

  traj::Trajectory cleaned;
  if (cfg.clean_) {
    obs::ScopedTimer clean_timer(GetPipelineMetrics().clean_ns);
    if (raw.empty()) raw = input.points();  // trajectory / PLT sources
    report.points_in = raw.size();
    traj::StreamCleaner cleaner(cfg.cleaner_options_);
    cleaned = cleaner.CleanAll(raw);
    report.cleaner = cleaner.stats();
  } else {
    report.points_in = input.size();
    if (const Status s = input.Validate(); !s.ok()) {
      return Status::InvalidArgument(
          s.message() +
          " (timestamps must be strictly increasing; add a Clean() stage "
          "to repair raw sensor streams)");
    }
    cleaned = std::move(input);
  }
  report.points_kept = cleaned.size();

  OPERB_ASSIGN_OR_RETURN(
      const std::unique_ptr<baselines::StreamingSimplifier> simplifier,
      AlgorithmRegistry::Global().MakeStreaming(cfg.spec_));

  // Store stage: segments stream into the writer the moment they are
  // determined, annotated with the timestamps of the covered points.
  std::unique_ptr<store::StoreWriter> store_writer;
  if (cfg.write_store_) {
    OPERB_ASSIGN_OR_RETURN(
        store_writer,
        store::StoreWriter::Create(cfg.store_path_, cfg.store_options_));
  }

  traj::PiecewiseRepresentation rep;  // kept only for the verify stage
  const bool keep_rep = cfg.verify_;
  simplifier->SetSink([&](const traj::RepresentedSegment& s) {
    ++report.segments;
    if (keep_rep) rep.Append(s);
    if (store_writer != nullptr) {
      store_writer->Append({traj::ObjectId{0}, s,
                            cleaned[s.first_index].t,
                            cleaned[s.last_index].t});
    }
    if (cfg.sink_) {
      cfg.sink_(traj::ObjectId{0}, s);
    } else {
      report.segments_out.push_back({traj::ObjectId{0}, s});
    }
  });

  // The one-pass algorithms emit with <2 points pushed nothing at all;
  // skipping the push entirely mirrors Simplifier::Simplify's contract
  // for the buffering baselines too.
  Stopwatch watch;
  {
    obs::TraceSpan span("pipeline.simplify");
    obs::ScopedTimer simplify_timer(GetPipelineMetrics().simplify_ns);
    if (cleaned.size() >= 2) {
      simplifier->Push(std::span<const geo::Point>(cleaned.points()));
      simplifier->Finish();
    }
  }
  report.simplify_seconds = watch.ElapsedSeconds();

  if (store_writer != nullptr) {
    obs::ScopedTimer close_timer(GetPipelineMetrics().store_close_ns);
    OPERB_RETURN_IF_ERROR(store_writer->Close());
    report.store_ran = true;
    report.store_path = cfg.store_path_;
    report.store_stats = store_writer->stats();
  }

  if (cfg.verify_) {
    obs::ScopedTimer verify_timer(GetPipelineMetrics().verify_ns);
    report.verify_ran = true;
    const eval::VerificationResult verdict = eval::VerifyErrorBound(
        cleaned, rep, cfg.spec_.zeta, cfg.verify_slack_);
    report.verified = verdict.bounded;
    report.bound_violations = verdict.bounded ? 0 : 1;
    report.worst_distance = verdict.worst_distance;
  }

  if (cfg.delta_) {
    obs::ScopedTimer delta_timer(GetPipelineMetrics().delta_ns);
    report.delta_bytes =
        codec::DeltaEncode(cleaned, cfg.delta_options_).size();
    report.delta_ratio =
        cleaned.empty() ? 0.0
                        : static_cast<double>(report.delta_bytes) /
                              (kRawBytesPerPoint *
                               static_cast<double>(cleaned.size()));
  }

  FoldRunCounters(report);
  if (cfg.metrics_) {
    // Fold first so the final snapshot already carries this run.
    report.metrics_ran = true;
    report.metrics_path = cfg.metrics_path_;
    WriteMetricsSnapshot(cfg.metrics_path_, cfg.metrics_env_, &report);
  }
  return report;
}

Result<PipelineReport> Pipeline::RunEngine() {
  Builder& cfg = config_;
  std::vector<traj::ObjectUpdate> updates;
  {
    obs::ScopedTimer ingest_timer(GetPipelineMetrics().ingest_ns);
    switch (cfg.source_) {
      case Builder::Source::kUpdates:
        updates = std::move(cfg.updates_);
        break;
      case Builder::Source::kMultiCsvFile: {
        OPERB_ASSIGN_OR_RETURN(
            updates, traj::ReadMultiObjectCsv(cfg.path_or_content_));
        break;
      }
      case Builder::Source::kTrajectory: {
        updates.reserve(cfg.trajectory_.size());
        for (const geo::Point& p : cfg.trajectory_) updates.push_back({0, p});
        break;
      }
      case Builder::Source::kCsvFile:
      case Builder::Source::kCsvContent:
      case Builder::Source::kPltFile: {
        traj::Trajectory t;
        if (cfg.source_ == Builder::Source::kCsvFile) {
          OPERB_ASSIGN_OR_RETURN(t, traj::ReadCsv(cfg.path_or_content_));
        } else if (cfg.source_ == Builder::Source::kCsvContent) {
          OPERB_ASSIGN_OR_RETURN(t, traj::ParseCsv(cfg.path_or_content_));
        } else {
          OPERB_ASSIGN_OR_RETURN(t,
                                 traj::ReadGeoLifePlt(cfg.path_or_content_));
        }
        updates.reserve(t.size());
        for (const geo::Point& p : t) updates.push_back({0, p});
        break;
      }
      case Builder::Source::kNone:
        return Status::Internal("engine-path Run without a source");
    }
  }

  PipelineReport report;
  report.spec = cfg.spec_.ToString();
  report.used_engine = true;
  report.points_in = updates.size();

  if (cfg.clean_) {
    obs::ScopedTimer clean_timer(GetPipelineMetrics().clean_ns);
    // Cleaning is a per-stream repair: one cleaner per object id.
    std::unordered_map<traj::ObjectId, traj::StreamCleaner> cleaners;
    std::vector<traj::ObjectUpdate> kept;
    kept.reserve(updates.size());
    for (const traj::ObjectUpdate& u : updates) {
      auto it = cleaners.try_emplace(u.object_id, cfg.cleaner_options_).first;
      if (it->second.Push(u.point).has_value()) kept.push_back(u);
    }
    for (const auto& [id, cleaner] : cleaners) {
      const traj::CleanerStats& s = cleaner.stats();
      report.cleaner.accepted += s.accepted;
      report.cleaner.duplicates_dropped += s.duplicates_dropped;
      report.cleaner.out_of_order_dropped += s.out_of_order_dropped;
      report.cleaner.outliers_dropped += s.outliers_dropped;
    }
    updates = std::move(kept);
  }
  report.points_kept = updates.size();

  // Grouping validates per-object timestamp monotonicity *before* the
  // engine trusts it, and supplies the originals for verification and
  // delta encoding.
  OPERB_ASSIGN_OR_RETURN(
      const std::vector<traj::ObjectTrajectory> grouped,
      traj::GroupUpdatesByObject(
          std::span<const traj::ObjectUpdate>(updates)));
  report.objects = grouped.size();

  // Store stage: segments stream into the writer from the worker threads
  // (Append is thread-safe; per-object order is the engine's determinism
  // contract). The engine stamps each segment's times, so a resumed run
  // stores correctly timed segments too. The writer is created once the
  // engine exists, before the first Push, so a refused checkpoint leaves
  // no store behind.
  std::unique_ptr<store::StoreWriter> store_writer;

  // Collect when the report keeps the segments or verification needs
  // them; forward to the user sink either way.
  const bool collect = !cfg.sink_ || cfg.verify_;
  std::mutex mu;
  std::vector<traj::TaggedSegment> collected;
  engine::TimedSegmentSink engine_sink = [&](const traj::TimedSegment& s) {
    if (store_writer != nullptr) store_writer->Append(s);
    if (cfg.sink_) cfg.sink_(s.object_id, s.segment);
    if (collect) {
      const std::lock_guard<std::mutex> lock(mu);
      collected.push_back({s.object_id, s.segment});
    }
  };

  std::unique_ptr<engine::StreamEngine> eng;
  if (!cfg.resume_path_.empty()) {
    OPERB_ASSIGN_OR_RETURN(
        eng, engine::StreamEngine::CreateFromCheckpoint(
                 cfg.resume_path_, cfg.engine_options_,
                 std::move(engine_sink)));
    report.resumed = true;
  } else {
    OPERB_ASSIGN_OR_RETURN(eng,
                           engine::StreamEngine::Create(
                               cfg.engine_options_, std::move(engine_sink)));
  }
  if (cfg.write_store_) {
    OPERB_ASSIGN_OR_RETURN(
        store_writer,
        store::StoreWriter::Create(cfg.store_path_, cfg.store_options_));
  }
  Stopwatch watch;
  {
    obs::TraceSpan span("pipeline.simplify");
    obs::ScopedTimer simplify_timer(GetPipelineMetrics().simplify_ns);
    const bool do_checkpoint = !cfg.checkpoint_path_.empty();
    const std::size_t snap_every = cfg.metrics_ ? cfg.metrics_every_ : 0;
    if (do_checkpoint || snap_every > 0) {
      // Chunked ingest with a durable write at every cadence boundary.
      // Checkpoints keep their historical contract (every_n == 0: one
      // chunk covering everything, one snapshot after it; a trailing
      // partial chunk still checkpoints — each Checkpoint() is a drain
      // barrier, so the written state is exactly "after this prefix").
      // Metrics snapshots fire after each chunk of metrics_every_
      // updates. With both stages on, each Push covers the distance to
      // the nearer boundary, so neither cadence disturbs the other.
      const std::size_t cp_chunk = cfg.checkpoint_every_ == 0
                                       ? updates.size()
                                       : cfg.checkpoint_every_;
      std::span<const traj::ObjectUpdate> rest(updates);
      std::size_t cp_due = cp_chunk;
      std::size_t snap_due = snap_every;
      do {
        std::size_t take = rest.size();
        if (do_checkpoint) take = std::min(take, cp_due);
        if (snap_every > 0) take = std::min(take, snap_due);
        if (take > 0) eng->Push(rest.first(take));
        rest = rest.subspan(take);
        if (do_checkpoint) {
          cp_due -= take;
          if (cp_due == 0 || rest.empty()) {
            OPERB_RETURN_IF_ERROR(
                eng->Checkpoint(cfg.checkpoint_path_, cfg.checkpoint_env_));
            ++report.checkpoints_written;
            cp_due = cp_chunk;
          }
        }
        if (snap_every > 0) {
          snap_due -= take;
          if (snap_due == 0) {
            WriteMetricsSnapshot(cfg.metrics_path_, cfg.metrics_env_,
                                 &report);
            snap_due = snap_every;
          }
        }
      } while (!rest.empty());
      if (do_checkpoint) {
        report.checkpointed = true;
        report.checkpoint_path = cfg.checkpoint_path_;
      }
    } else {
      eng->Push(std::span<const traj::ObjectUpdate>(updates));
    }
    eng->Close();
  }
  report.simplify_seconds = watch.ElapsedSeconds();
  report.engine_stats = eng->stats();
  report.segments = static_cast<std::size_t>(report.engine_stats.segments);

  if (store_writer != nullptr) {
    obs::ScopedTimer close_timer(GetPipelineMetrics().store_close_ns);
    OPERB_RETURN_IF_ERROR(store_writer->Close());
    report.store_ran = true;
    report.store_path = cfg.store_path_;
    report.store_stats = store_writer->stats();
  }

  if (collect) {
    // Per-object order is emission order already; a stable sort by id
    // groups objects into contiguous runs without disturbing it.
    std::stable_sort(collected.begin(), collected.end(),
                     [](const traj::TaggedSegment& a,
                        const traj::TaggedSegment& b) {
                       return a.object_id < b.object_id;
                     });
  }

  if (cfg.verify_) {
    obs::ScopedTimer verify_timer(GetPipelineMetrics().verify_ns);
    report.verify_ran = true;
    report.verified = true;
    // `collected` is sorted by id: walk each object's contiguous run.
    std::unordered_map<traj::ObjectId, std::pair<std::size_t, std::size_t>>
        runs;
    for (std::size_t j = 0; j < collected.size();) {
      std::size_t k = j;
      while (k < collected.size() &&
             collected[k].object_id == collected[j].object_id) {
        ++k;
      }
      runs.emplace(collected[j].object_id, std::make_pair(j, k));
      j = k;
    }
    for (const traj::ObjectTrajectory& obj : grouped) {
      if (obj.trajectory.size() < 2) continue;  // empty output by contract
      traj::PiecewiseRepresentation rep;
      if (const auto it = runs.find(obj.object_id); it != runs.end()) {
        for (std::size_t j = it->second.first; j < it->second.second; ++j) {
          rep.Append(collected[j].segment);
        }
      }
      const eval::VerificationResult verdict = eval::VerifyErrorBound(
          obj.trajectory, rep, cfg.spec_.zeta, cfg.verify_slack_);
      if (!verdict.bounded) {
        report.verified = false;
        ++report.bound_violations;
      }
      report.worst_distance =
          std::max(report.worst_distance, verdict.worst_distance);
    }
  }

  if (cfg.delta_) {
    obs::ScopedTimer delta_timer(GetPipelineMetrics().delta_ns);
    for (const traj::ObjectTrajectory& obj : grouped) {
      report.delta_bytes +=
          codec::DeltaEncode(obj.trajectory, cfg.delta_options_).size();
    }
    report.delta_ratio =
        updates.empty() ? 0.0
                        : static_cast<double>(report.delta_bytes) /
                              (kRawBytesPerPoint *
                               static_cast<double>(updates.size()));
  }

  if (!cfg.sink_) report.segments_out = std::move(collected);

  FoldRunCounters(report);
  if (cfg.metrics_) {
    // Fold first so the final snapshot already carries this run; the
    // final snapshot is written on both cadences (with every_n > 0 it
    // supersedes the last periodic one at the same path).
    report.metrics_ran = true;
    report.metrics_path = cfg.metrics_path_;
    WriteMetricsSnapshot(cfg.metrics_path_, cfg.metrics_env_, &report);
  }
  return report;
}

}  // namespace operb::api
