#ifndef OPERB_TRAJ_PIECEWISE_H_
#define OPERB_TRAJ_PIECEWISE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "geo/point.h"
#include "geo/segment.h"
#include "traj/trajectory.h"

namespace operb::traj {

/// One directed line segment of a piecewise-line representation, together
/// with the index range of original trajectory points it represents and
/// the timestamps of that range's two end points.
///
/// `start`/`end` usually coincide with trajectory points, but OPERB-A may
/// substitute interpolated *patch points*, so positions are stored
/// explicitly rather than as indices. `first_index`..`last_index`
/// (inclusive) are the represented original points; shared boundary
/// points belong to both neighboring segments, matching how the paper
/// counts points per segment in Figure 17.
struct RepresentedSegment {
  geo::Vec2 start;
  geo::Vec2 end;
  std::size_t first_index = 0;
  std::size_t last_index = 0;
  /// True when `start` (resp. `end`) is not the position of the point at
  /// `first_index` (resp. `last_index`): an interpolated patch point
  /// (OPERB-A), or a boundary detached from its index by the absorb
  /// optimization (OPERB optimization 5, which extends a segment's covered
  /// range past its geometric endpoint).
  bool start_is_patch = false;
  bool end_is_patch = false;
  /// Timestamps of the original points at `first_index` and `last_index`,
  /// seconds. Whoever sets an index sets its time, so a patch endpoint
  /// keeps the covered points' times.
  double t_start = 0.0;
  double t_end = 0.0;

  geo::DirectedSegment AsSegment() const { return {start, end}; }

  /// Number of original data points this segment represents (inclusive
  /// endpoints, so adjacent segments double-count the shared point — the
  /// convention Figure 17 uses).
  std::size_t PointCount() const { return last_index - first_index + 1; }

  std::string ToString() const;
};

/// Appends the byte-stable encoding of `s`'s geometry and index range (4
/// doubles, 2 u64 indices, 2 patch-flag bytes — 50 bytes, little-endian,
/// doubles as IEEE-754 bit patterns; the times are not written). The wire
/// protocol's timed segment carries its times separately; see
/// common/serial.h for the encoding discipline.
void SerializeSegment(const RepresentedSegment& s,
                      std::vector<std::uint8_t>* out);

/// Inverse of SerializeSegment, advancing `*pos`; leaves the times as
/// they were. Corruption on truncation or a patch-flag byte that is not
/// 0/1.
Status DeserializeSegment(std::span<const std::uint8_t> in, std::size_t* pos,
                          RepresentedSegment* s);

/// SerializeSegment followed by `t_start` and `t_end` (66 bytes): the
/// encoding the simplifier state blobs the engine checkpoints use.
void SerializeTimedSegment(const RepresentedSegment& s,
                           std::vector<std::uint8_t>* out);

/// Inverse of SerializeTimedSegment, advancing `*pos`.
Status DeserializeTimedSegment(std::span<const std::uint8_t> in,
                               std::size_t* pos, RepresentedSegment* s);

/// Consumer callback for streaming segment emission: the zero-allocation
/// output path of the one-pass simplifiers. A stream with a sink installed
/// hands each segment to the callback the moment it is determined instead
/// of buffering it, so steady-state compression performs no heap
/// allocation per point (see DESIGN.md "Performance").
using SegmentSink = std::function<void(const RepresentedSegment&)>;

/// A piecewise-line representation T[L0, ..., Lm] of a trajectory:
/// continuous directed segments whose first start is P0 and last end is Pn
/// (or patch points on the corresponding lines, for OPERB-A).
class PiecewiseRepresentation {
 public:
  PiecewiseRepresentation() = default;

  void Append(RepresentedSegment seg) { segments_.push_back(seg); }

  std::size_t size() const { return segments_.size(); }
  bool empty() const { return segments_.empty(); }

  const RepresentedSegment& operator[](std::size_t i) const {
    return segments_[i];
  }
  const std::vector<RepresentedSegment>& segments() const { return segments_; }

  auto begin() const { return segments_.begin(); }
  auto end() const { return segments_.end(); }

  /// Number of points a consumer must store: one per segment plus the
  /// final endpoint. This is the paper's |T| used in compression ratios.
  std::size_t StoredPointCount() const {
    return segments_.empty() ? 0 : segments_.size() + 1;
  }

  /// Checks the representation is continuous (each segment starts where
  /// the previous one ended, index ranges chain and cover [0, n]) against
  /// the original trajectory, and that each segment's times are those of
  /// the original points at its two indices.
  Status ValidateAgainst(const Trajectory& original) const;

  std::string ToString() const;

 private:
  std::vector<RepresentedSegment> segments_;
};

}  // namespace operb::traj

#endif  // OPERB_TRAJ_PIECEWISE_H_
