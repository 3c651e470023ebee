#ifndef OPERB_API_STORE_QUERY_H_
#define OPERB_API_STORE_QUERY_H_

/// \file
/// One-call query surface over a written trajectory store: the
/// StoreQuery description and RunStoreQuery.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/bbox.h"
#include "geo/point.h"
#include "store/reader.h"
#include "traj/multi_object.h"

namespace operb::api {

/// Declarative description of one query against a trajectory store —
/// the read-side counterpart of the pipeline's WriteStore stage, and
/// what `operb_cli --query` parses its flags into.
///
/// Exactly one query shape must be selected:
///  - object reconstruction: `has_object`, optional [t_min, t_max];
///  - position-at-time: `has_object` + `has_at` (at_time within range);
///  - window query: `has_window`, optional [t_min, t_max].
///
/// Validate() enforces the shape rules as Status (the library's boundary
/// contract): malformed queries from untrusted flags are
/// InvalidArgument, never an abort.
struct StoreQuery {
  std::string store_path;

  bool has_object = false;
  traj::ObjectId object_id = 0;

  /// Time range for reconstruction and window queries (inclusive
  /// overlap); defaults cover everything.
  double t_min = -std::numeric_limits<double>::infinity();
  double t_max = std::numeric_limits<double>::infinity();

  bool has_window = false;
  geo::BoundingBox window;

  bool has_at = false;
  double at_time = 0.0;

  /// Window queries only: select candidate blocks with the flat footer
  /// scan instead of the hierarchical R-tree index — the debug/verify
  /// oracle; results are identical, only the pruning work differs
  /// (store::ScanMode).
  bool use_flat_scan = false;

  /// Shape and range validation (path set, exactly one query form, sane
  /// time range / window).
  Status Validate() const;
};

/// Everything one RunStoreQuery() produced and measured.
struct StoreQueryReport {
  double zeta = 0.0;              ///< the store's recorded error bound
  std::size_t store_blocks = 0;   ///< blocks in the opened store
  std::uint64_t store_segments = 0;  ///< total stored segments
  bool tail_dropped = false;      ///< reader dropped a torn tail on open
  std::size_t store_shards = 1;   ///< shard partition of the store
  std::size_t store_files = 1;    ///< live segment files behind it
  std::uint64_t store_generation = 0;  ///< manifest generation
  std::size_t index_nodes = 0;    ///< R-tree nodes built over the footers

  /// Matched segments (reconstruction / window queries; empty for a
  /// pure position-at-time query).
  std::vector<traj::TimedSegment> segments;

  bool has_position = false;  ///< true when the query was position-at-time
  geo::Point position;        ///< valid when has_position

  store::StoreQueryStats stats;  ///< the skip-scan counters
  double seconds = 0.0;          ///< wall time of the query itself
};

/// Opens the store, runs `query`, closes the store. Configuration errors
/// (bad query shape) and data errors (missing file, corrupt store,
/// position time not covered) all surface as Status — the one-call form
/// operb_cli builds its `--query` mode on. Callers issuing many queries
/// against one store should hold a store::StoreReader directly and skip
/// the reopen per call.
Result<StoreQueryReport> RunStoreQuery(const StoreQuery& query);

}  // namespace operb::api

#endif  // OPERB_API_STORE_QUERY_H_
