#ifndef OPERB_SERVER_PROTOCOL_H_
#define OPERB_SERVER_PROTOCOL_H_

/// \file
/// Wire protocol of the operb trajectory daemon (DESIGN.md §11).
///
/// Every message is one frame: a u32 little-endian length (covering
/// everything after itself), a one-byte tag, then the body. Requests
/// are tagged with a Verb, responses with a WireStatus. Bodies reuse
/// the library's serialization vocabulary (common/serial.h primitives,
/// traj::SerializeSegment for segments), so a timed segment travels in
/// exactly the bytes the engine checkpoints it with — which is how the
/// client can reproduce the offline query output byte-identically.
///
/// Response bodies by status:
///  - kOk:    verb-specific payload (below);
///  - kBusy:  u32 retry-after milliseconds (flow control, never an
///            error: the rings are momentarily full and nothing was
///            ingested);
///  - errors: the Status message as plain bytes.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "traj/multi_object.h"

namespace operb::server {

/// Hard cap on a frame body; a peer announcing more is a protocol
/// error, not an allocation request.
inline constexpr std::size_t kMaxFrameBytes = 64u << 20;

/// Request tags. Bodies (all integers/doubles via common/serial.h):
///  - kIngest:       u32 n, then n x (u64 id, f64 t, f64 x, f64 y);
///                   ok-reply: u64 accepted (= n).
///  - kFinishObject: u64 id; ok-reply: empty.
///  - kQueryObject:  u64 id, f64 t_min, f64 t_max;
///                   ok-reply: u32 count, count x timed segment.
///  - kQueryWindow:  f64 min_x, min_y, max_x, max_y, t_min, t_max,
///                   u8 flat_scan; ok-reply: as kQueryObject.
///  - kPositionAt:   u64 id, f64 t; ok-reply: f64 x, y, t.
///  - kStats:        empty; ok-reply: StatsBody.
///  - kCheckpoint:   path bytes (engine checkpoint written server-side);
///                   ok-reply: empty.
///  - kMetricsSnapshot: path bytes (obs snapshot written server-side);
///                   ok-reply: empty.
///  - kSeal:         empty (force a seal now); ok-reply: u64 sealed
///                   segment total.
///  - kShutdown:     empty; ok-reply: empty, then the daemon stops.
enum class Verb : std::uint8_t {
  kIngest = 1,
  kFinishObject = 2,
  kQueryWindow = 3,
  kQueryObject = 4,
  kPositionAt = 5,
  kStats = 6,
  kCheckpoint = 7,
  kMetricsSnapshot = 8,
  kSeal = 9,
  kShutdown = 10,
};

/// Response tags, mirroring the library's Status classes the CLI exit
/// codes are built on (plus kBusy, which is flow control, not failure).
enum class WireStatus : std::uint8_t {
  kOk = 0,
  kBusy = 1,
  kInvalidArgument = 2,
  kNotFound = 3,
  kIOError = 4,
  kInternal = 5,
};

/// One kStats ok-reply (all u64, in this order on the wire).
struct StatsBody {
  std::uint64_t live_objects = 0;
  std::uint64_t ingest_points = 0;
  std::uint64_t segments_emitted = 0;  ///< into the overlay, since start
  std::uint64_t sealed_segments = 0;   ///< visible in the sealed store
  std::uint64_t backpressure_rejects = 0;
  std::uint64_t seals = 0;
  std::uint64_t connections = 0;  ///< currently open
};

/// Wire size of one kIngest update (u64 id, f64 t, x, y).
inline constexpr std::size_t kIngestUpdateBytes = 32;

/// Wire size of one timed segment (u64 id, 50-byte segment encoding,
/// f64 t_start/t_end).
inline constexpr std::size_t kTimedSegmentBytes = 74;

/// Appends `s` (kTimedSegmentBytes: u64 id, 50-byte segment encoding,
/// f64 t_start/t_end).
void PutTimedSegment(const traj::TimedSegment& s,
                     std::vector<std::uint8_t>* out);

/// Inverse of PutTimedSegment, advancing `*pos`; false on truncation
/// or a malformed segment encoding.
bool GetTimedSegment(std::span<const std::uint8_t> in, std::size_t* pos,
                     traj::TimedSegment* s);

void PutStatsBody(const StatsBody& s, std::vector<std::uint8_t>* out);
bool GetStatsBody(std::span<const std::uint8_t> in, std::size_t* pos,
                  StatsBody* s);

/// Maps a library Status onto the wire (Corruption travels as kIOError:
/// both are exit-code-3 I/O classes to the CLI contract).
WireStatus WireStatusOf(const Status& s);

/// Reconstructs a Status from a non-ok, non-busy wire tag + message.
Status StatusFromWire(WireStatus ws, const std::string& message);

}  // namespace operb::server

#endif  // OPERB_SERVER_PROTOCOL_H_
