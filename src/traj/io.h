#ifndef OPERB_TRAJ_IO_H_
#define OPERB_TRAJ_IO_H_

#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "geo/projection.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::traj {

/// Plain CSV format used by this library: one `x,y,t` row per point, in
/// projected meters, `#`-prefixed comment lines allowed. The natural
/// interchange format for already-projected data and for test fixtures.
///
/// Parsing is one pass over the buffer: each row is parsed in place,
/// blank and comment lines skipped at its start, with no stream or scanf
/// machinery, no per-row allocation, and — unlike `%lf` — no dependence
/// on the process locale's decimal separator. A plain decimal with at
/// most 15 significant digits and a decimal exponent within ±22 (every
/// `%.9g` value from 1e-14 to 1e22 in magnitude, as WriteCsvString
/// writes it) converts with one exact IEEE operation; any other number
/// goes to std::from_chars, and both give the same bits.
/// The output is pre-reserved from the file's line count, so a
/// multi-megabyte file ingests in one allocation. After a row's last
/// field only horizontal whitespace may follow; `1,2,3,4` or `1,2,3x` is
/// Corruption.
///
/// The single-trace parsers (ParseCsv, ParseCsvPoints, ParseGeoLifePlt)
/// and WriteCsvString run on the calling thread: they handle one
/// device's trace, whose caller often times it in thread CPU time, and
/// moving the work to other threads would hide that cost rather than
/// remove it.
///
/// Every writer here formats its numbers with std::to_chars, which is
/// specified to print the bytes printf prints in the C locale: a double
/// at precision 9 or 17 in chars_format::general is `%.9g` or `%.17g`,
/// an integer is `%llu`/`%zu`. The files are the ones snprintf wrote,
/// byte for byte, at a fraction of its cost and with no dependence on the
/// process locale.
Status WriteCsv(const Trajectory& trajectory, const std::string& path);
Result<Trajectory> ReadCsv(const std::string& path);

/// In-memory counterpart of WriteCsv (single source of truth for the row
/// format; WriteCsv serializes through this). Values are written `%.9g`,
/// except that a time whose `%.9g` text would repeat the previous row's
/// is written `%.17g`, as is that previous row's: epoch times less than
/// 10 s apart would otherwise print equal. A trajectory with strictly
/// increasing times therefore reads back through ParseCsv with the same
/// point count and strictly increasing times.
std::string WriteCsvString(const Trajectory& trajectory);

/// GeoLife PLT format reader.
///
/// GeoLife (the one public dataset in the paper's Table 1) ships one
/// `.plt` file per trajectory: six header lines, then
/// `lat,lon,0,altitude_ft,days_since_1899,date,time` rows. Coordinates
/// are projected to local meters around the first point (or around
/// `reference` if provided), timestamps become seconds since the first
/// sample. Invalid rows yield Corruption.
struct PltReadOptions {
  /// Optional fixed projection reference; by default the first point.
  bool use_fixed_reference = false;
  geo::LatLon reference;
};
Result<Trajectory> ReadGeoLifePlt(const std::string& path,
                                  const PltReadOptions& options = {});

/// Parses in-memory PLT content (the file-reading half of ReadGeoLifePlt
/// split off so tests, benchmarks and network receivers can bypass the
/// filesystem). Same locale-proof one-pass scanner as ParseCsv.
Result<Trajectory> ParseGeoLifePlt(const std::string& content,
                                   const PltReadOptions& options = {});

/// Serializes a piecewise representation: one `x,y,first,last` row per
/// segment start, plus a final row for the last endpoint. Suitable for
/// downstream plotting.
Status WriteRepresentationCsv(const PiecewiseRepresentation& representation,
                              const std::string& path);

/// Parses the in-memory content of a CSV trajectory (exposed separately so
/// tests and network receivers can bypass the filesystem).
Result<Trajectory> ParseCsv(const std::string& content);

/// Raw-sample variants of ReadCsv/ParseCsv: same row format and scanner,
/// but rows parse into plain points in file order with *no* trajectory
/// validation — duplicate and out-of-order timestamps pass through. The
/// ingest form for cleaner-fronted pipelines (api::Pipeline with a
/// Clean() stage), where rejecting a dirty export at parse time would
/// make the repair stage unreachable.
Result<std::vector<geo::Point>> ParseCsvPoints(const std::string& content);
Result<std::vector<geo::Point>> ReadCsvPoints(const std::string& path);

/// Multi-object CSV: one `id,t,x,y` row per update, rows from different
/// objects freely interleaved (the on-disk form of a fleet feed),
/// `#`-prefixed comment lines allowed. `id` is a decimal 64-bit object
/// id; `t` seconds; `x`,`y` projected meters. Same locale-proof
/// one-pass scanner and row-end rule as ParseCsv, updates returned in
/// file order. Feed the result to engine::StreamEngine directly, or group
/// it with GroupUpdatesByObject (which also validates per-object
/// timestamps).
///
/// A fleet file is large, so ParseMultiObjectCsv splits it across CPUs:
/// it cuts the content at line starts into one part per CPU the process
/// may run on (each at least about 1 MiB, so small inputs stay on the
/// calling thread), counts each part's rows in parallel, allocates the
/// one output vector from those counts, and parses every part straight
/// into its own slice. The output and the error — the first malformed
/// row in file order, with its file line number — do not depend on the
/// CPU count.
Result<std::vector<ObjectUpdate>> ParseMultiObjectCsv(
    const std::string& content);
Result<std::vector<ObjectUpdate>> ReadMultiObjectCsv(const std::string& path);

/// In-memory/file writers for the same row format. Round-trips through
/// ParseMultiObjectCsv with %.9g precision, except that a row whose
/// %.9g time ties the same object's previous or next row's writes its
/// time with %.17g, so that one object's close epoch times (~1.7e9 s,
/// printed to 10 s) stay strictly increasing for GroupUpdatesByObject.
///
/// Like the parser, the writer splits a fleet across CPUs: after one
/// serial pass that finds the tied times over all rows (a tied pair may
/// fall on either side of a cut), it cuts the rows into one contiguous
/// range per usable CPU, each about 1 MiB of output or more (so small
/// inputs stay on the calling thread), formats every range into a
/// buffer of its own and joins the buffers in order. The bytes do not
/// depend on the CPU count.
std::string WriteMultiObjectCsvString(std::span<const ObjectUpdate> updates);
Status WriteMultiObjectCsv(std::span<const ObjectUpdate> updates,
                           const std::string& path);

/// Serializes id-tagged simplified segments, one
/// `id,first_index,last_index,start_is_patch,end_is_patch,x0,y0,x1,y1`
/// row per segment — the multi-object counterpart of
/// WriteRepresentationCsv, emitted by operb_cli --group-by-id.
std::string WriteTaggedSegmentsCsvString(
    std::span<const TaggedSegment> segments);
Status WriteTaggedSegmentsCsv(std::span<const TaggedSegment> segments,
                              const std::string& path);

}  // namespace operb::traj

#endif  // OPERB_TRAJ_IO_H_
