#include "api/store_query.h"

#include <cmath>
#include <memory>
#include <utility>

#include "common/stopwatch.h"

namespace operb::api {

Status StoreQuery::Validate() const {
  if (store_path.empty()) {
    return Status::InvalidArgument("store query has no store path");
  }
  if (!has_object && !has_window) {
    return Status::InvalidArgument(
        "store query selects nothing: give an object id (reconstruction) "
        "or a window (spatio-temporal query)");
  }
  if (has_object && has_window) {
    return Status::InvalidArgument(
        "store query mixes object reconstruction and a window; issue two "
        "queries");
  }
  if (has_at && !has_object) {
    return Status::InvalidArgument(
        "position-at-time requires an object id");
  }
  if (std::isnan(t_min) || std::isnan(t_max) || t_min > t_max) {
    return Status::InvalidArgument("store query time range is empty");
  }
  if (has_at && !std::isfinite(at_time)) {
    return Status::InvalidArgument(
        "position-at-time needs a finite timestamp");
  }
  if (has_at && (at_time < t_min || at_time > t_max)) {
    return Status::InvalidArgument(
        "position-at-time timestamp lies outside the query's "
        "[t_min, t_max] range");
  }
  if (has_window && window.IsEmpty()) {
    return Status::InvalidArgument("store query window is empty");
  }
  return Status::OK();
}

Result<StoreQueryReport> RunStoreQuery(const StoreQuery& query) {
  OPERB_RETURN_IF_ERROR(query.Validate());
  OPERB_ASSIGN_OR_RETURN(const std::unique_ptr<store::StoreReader> reader,
                         store::StoreReader::Open(query.store_path));
  StoreQueryReport report;
  report.zeta = reader->zeta();
  report.store_blocks = reader->block_count();
  report.store_segments = reader->segment_count();
  report.tail_dropped = reader->open_info().tail_dropped;
  report.store_shards = reader->num_shards();
  report.store_files = reader->file_count();
  report.store_generation = reader->open_info().generation;
  report.index_nodes = reader->index_node_count();

  Stopwatch watch;
  if (query.has_at) {
    OPERB_ASSIGN_OR_RETURN(
        report.position,
        reader->PositionAt(query.object_id, query.at_time, &report.stats));
    report.has_position = true;
  } else if (query.has_object) {
    OPERB_ASSIGN_OR_RETURN(
        report.segments,
        reader->ReconstructObject(query.object_id, query.t_min, query.t_max,
                                  &report.stats));
  } else {
    OPERB_ASSIGN_OR_RETURN(
        report.segments,
        reader->QueryWindow(query.window, query.t_min, query.t_max,
                            &report.stats,
                            query.use_flat_scan ? store::ScanMode::kFlatScan
                                                : store::ScanMode::kIndexed));
  }
  report.seconds = watch.ElapsedSeconds();
  return report;
}

}  // namespace operb::api
