#ifndef OPERB_STORE_STORE_METRICS_H_
#define OPERB_STORE_STORE_METRICS_H_

#include "obs/metrics.h"

/// Write-path registry instruments shared by the writer, segment-file,
/// manifest and compactor translation units (the read path's live in
/// reader.cc). Like StoreQueryStats, the per-call stats structs
/// (StoreWriterStats, CompactionStats) stay the per-call API — their
/// increments also fold in here so snapshots carry the cumulative view
/// (DESIGN.md §10). Acquired once per process, then lock-free.

namespace operb::store {

struct StoreWriteMetrics {
  obs::Counter* segments_appended;
  obs::Counter* blocks_sealed;
  obs::Counter* file_flushes;
  obs::Counter* bytes_written;
  obs::Counter* manifest_commits;
  /// StoreWriter hand-overs that waited for the background thread.
  obs::Counter* handover_waits;
  obs::Counter* compaction_passes;
  obs::Counter* compaction_bytes_read;
  obs::Counter* compaction_bytes_written;
  obs::Counter* compaction_segments_rewritten;
  /// Last-pass write amplification in thousandths, as a high-water mark
  /// (the exact per-pass ratio stays in CompactionStats).
  obs::MaxGauge* compaction_write_amp_milli;
  obs::LatencyHistogram* compaction_pass_ns;
};

inline StoreWriteMetrics& GetStoreWriteMetrics() {
  static StoreWriteMetrics* const m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return new StoreWriteMetrics{
        r.GetCounter("store.segments_appended"),
        r.GetCounter("store.blocks_sealed"),
        r.GetCounter("store.file_flushes"),
        r.GetCounter("store.bytes_written"),
        r.GetCounter("store.manifest_commits"),
        r.GetCounter("store.write.handover_waits"),
        r.GetCounter("store.compaction.passes"),
        r.GetCounter("store.compaction.bytes_read"),
        r.GetCounter("store.compaction.bytes_written"),
        r.GetCounter("store.compaction.segments_rewritten"),
        r.GetMaxGauge("store.compaction.write_amp_milli"),
        r.GetHistogram("store.compaction.pass_ns"),
    };
  }();
  return *m;
}

}  // namespace operb::store

#endif  // OPERB_STORE_STORE_METRICS_H_
