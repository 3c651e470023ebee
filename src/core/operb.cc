#include "core/operb.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/serial.h"
#include "geo/distance.h"

namespace operb::core {

OperbStream::OperbStream(const OperbOptions& options) : options_(options) {
  OPERB_CHECK_MSG(options.Validate().ok(), "invalid OperbOptions");
  // The drift guard is only needed where Theorem 2's proof does not apply:
  // any of the heuristic optimizations (2)-(4), or a non-paper fitting
  // parameterization.
  const bool paper_fitting = options_.step_length_factor == 0.5 &&
                             options_.activation_slack_factor == 0.25;
  guard_engaged_ = options_.strict_bound_guard &&
                   (options_.opt_adjusted_distance ||
                    options_.opt_closer_line || options_.opt_missing_active ||
                    !paper_fitting);
}

void OperbStream::SetSink(traj::SegmentSink sink) {
  OPERB_CHECK_MSG(next_index_ == 0, "SetSink after the first Push");
  sink_ = std::move(sink);
}

std::vector<traj::RepresentedSegment> OperbStream::TakeEmitted() {
  std::vector<traj::RepresentedSegment> out;
  out.swap(emitted_);
  last_take_size_ = out.size();
  return out;
}

void OperbStream::TakeEmitted(std::vector<traj::RepresentedSegment>* out) {
  out->clear();
  out->swap(emitted_);  // emitted_ inherits the caller's old capacity
  last_take_size_ = out->size();
}

void OperbStream::Emit(const traj::RepresentedSegment& s) {
  last_emitted_ = s;
  any_emitted_ = true;
  ++stats_.segments_emitted;
  if (sink_) {
    sink_(s);
    return;
  }
  if (emitted_.capacity() == 0) {
    // First growth (or a TakeEmitted() that moved the storage out): size
    // from the emission history instead of libstdc++'s 1-element start — a
    // polling caller tends to repeat batches of ~last_take_size_ segments.
    emitted_.reserve(std::max<std::size_t>(8, last_take_size_));
  }
  emitted_.push_back(s);
}

void OperbStream::Push(const geo::Point& p) {
  OPERB_DCHECK(mode_ != Mode::kFinished);
  const geo::Vec2 pos = p.pos();
  const std::size_t idx = next_index_++;
  last_pos_ = pos;
  last_index_ = idx;
  ++stats_.points_processed;

  if (mode_ == Mode::kIdle) {
    // The very first point anchors the first segment.
    StartSegment(pos, idx, /*detached=*/false);
    covered_index_ = idx;
    mode_ = Mode::kSeek;
    return;
  }
  ProcessPoint(pos, idx);
}

void OperbStream::Push(std::span<const geo::Point> points) {
  // Batched driver: each mode's "point fits, keep going" run is consumed
  // by a lookahead loop over the span; the point that ends a run (absorb
  // failure, activation, bound violation, cap) goes through the scalar
  // Push, which recomputes the same IEEE values and performs the mode
  // change. Output and state are bit-identical to point-wise Push.
  const std::size_t n = points.size();
  std::size_t i = 0;
  while (i < n) {
    switch (mode_) {
      case Mode::kAbsorb:
        if (options_.opt_absorb) i += AbsorbRun(points.subspan(i));
        break;
      case Mode::kSeek:
        i += SeekRun(points.subspan(i));
        break;
      case Mode::kExtend:
        i += ExtendRun(points.subspan(i));
        break;
      case Mode::kIdle:
      case Mode::kFinished:
        break;
    }
    if (i < n) Push(points[i++]);
  }
}

std::size_t OperbStream::CapRoom() const {
  // Points that can join the current segment before the per-segment cap
  // forces a break; the scalar path owns the cap-break transition.
  return options_.max_points_per_segment > points_in_segment_ + 1
             ? options_.max_points_per_segment - points_in_segment_ - 1
             : 0;
}

void OperbStream::ConsumeRun(std::span<const geo::Point> run) {
  // The index bookkeeping of `run.size()` point-wise Push calls that all
  // took their mode's "point fits" branch.
  next_index_ += run.size();
  stats_.points_processed += run.size();
  last_index_ = next_index_ - 1;
  last_pos_ = run.back().pos();
  covered_index_ = last_index_;
}

std::size_t OperbStream::AbsorbRun(std::span<const geo::Point> points) {
  std::size_t k = 0;
  while (k < points.size() &&
         geo::PointToLineDistanceDir(points[k].pos(), pending_.start,
                                     pending_unit_) <= options_.zeta) {
    ++k;
  }
  if (k == 0) return 0;
  ConsumeRun(points.first(k));
  stats_.points_absorbed += k;
  pending_.last_index = last_index_;
  return k;
}

std::size_t OperbStream::SeekRun(std::span<const geo::Point> points) {
  const double threshold = options_.opt_first_active
                               ? options_.zeta
                               : options_.zeta * options_.activation_slack_factor;
  const std::size_t limit = std::min(points.size(), CapRoom());
  std::size_t k = 0;
  for (; k < limit; ++k) {
    const double r = geo::Distance(points[k].pos(), anchor_pos_);
    if (!(r <= threshold)) break;
    fitting_->NoteDriftDistance(r);
  }
  if (k == 0) return 0;
  ConsumeRun(points.first(k));
  points_in_segment_ += k;
  return k;
}

std::size_t OperbStream::ExtendRun(std::span<const geo::Point> points) {
  // ProcessPoint's inactive-point branch, minus the activation and the
  // segment break: the run stops at the first point that needs either.
  const std::size_t limit = std::min(points.size(), CapRoom());
  std::size_t k = 0;
  for (; k < limit; ++k) {
    const geo::Vec2 pos = points[k].pos();
    const double r = geo::Distance(pos, anchor_pos_);
    if (fitting_->IsActive(r)) break;
    const double offset = fitting_->SignedOffset(pos);
    if (!DistanceOk(offset)) break;
    const double d_ra = geo::PointToLineDistanceDir(pos, anchor_pos_, ra_unit_);
    if (!(d_ra <= options_.zeta)) break;
    if (guard_engaged_) {
      fitting_->ObservePoint(pos);
    } else {
      fitting_->ObserveOffset(offset);
    }
  }
  if (k == 0) return 0;
  ConsumeRun(points.first(k));
  points_in_segment_ += k;
  return k;
}

bool OperbStream::DistanceOk(double offset) const {
  // The paper's distance condition d(P, L) <= zeta/2, or — with
  // optimization (2) — the relaxed d+max + d-max <= zeta.
  if (options_.opt_adjusted_distance) {
    const double tentative_plus =
        std::max(offset > 0.0 ? offset : 0.0, fitting_->d_plus_max());
    const double tentative_minus =
        std::max(offset < 0.0 ? -offset : 0.0, fitting_->d_minus_max());
    return (tentative_plus + tentative_minus) <= options_.zeta;
  }
  return std::fabs(offset) <= options_.zeta / 2.0;
}

void OperbStream::ProcessPoint(geo::Vec2 pos, std::size_t idx) {
  // A point may be re-dispatched once: when it breaks the current segment
  // it continues against the freshly started one (still O(1) per point).
  for (int pass = 0; pass < 3; ++pass) {
    switch (mode_) {
      case Mode::kAbsorb: {
        // Optimization (5): the pending segment keeps representing points
        // while they stay within zeta of its line.
        const double d =
            geo::PointToLineDistanceDir(pos, pending_.start, pending_unit_);
        if (options_.opt_absorb && d <= options_.zeta) {
          pending_.last_index = idx;
          covered_index_ = idx;
          ++stats_.points_absorbed;
          return;
        }
        EmitPending();
        continue;  // re-dispatch against the new segment (kSeek)
      }
      case Mode::kSeek: {
        const double r = geo::Distance(pos, anchor_pos_);
        ++points_in_segment_;
        // Optimization (1): postpone the first active point to radius
        // > zeta (default threshold: the activation slack, zeta/4). Every
        // point skipped here is within the threshold of the anchor, hence
        // within zeta of any line through it.
        const double threshold =
            options_.opt_first_active
                ? options_.zeta
                : options_.zeta * options_.activation_slack_factor;
        if (r <= threshold) {
          covered_index_ = idx;
          // A pre-direction point sits within `r` of any line through the
          // anchor; charge it to the drift budget.
          fitting_->NoteDriftDistance(r);
          if (points_in_segment_ >= options_.max_points_per_segment) {
            ++stats_.cap_breaks;
            // Degenerate cap break while seeking: close at the current
            // point (all consumed points are within `threshold` of the
            // anchor, so the bound holds for any segment through it).
            SetActive(pos, idx, r);
            covered_index_ = idx;
            mode_ = Mode::kExtend;
            BreakSegment();
            return;
          }
          return;
        }
        // First active point: case (2) of the fitting function.
        fitting_->Activate(pos);
        SetActive(pos, idx, r);
        covered_index_ = idx;
        mode_ = Mode::kExtend;
        return;
      }
      case Mode::kExtend: {
        const double r = geo::Distance(pos, anchor_pos_);
        if (points_in_segment_ + 1 >= options_.max_points_per_segment) {
          ++stats_.cap_breaks;
          BreakSegment();
          continue;
        }
        const bool is_active = fitting_->IsActive(r);
        const double offset = fitting_->SignedOffset(pos);
        const bool distance_ok = DistanceOk(offset);

        if (!is_active) {
          // Inactive points must additionally stay within zeta of the
          // candidate segment R_a = anchor -> active (they will be
          // represented by it if the segment breaks here or later).
          const double d_ra =
              geo::PointToLineDistanceDir(pos, anchor_pos_, ra_unit_);
          if (distance_ok && d_ra <= options_.zeta) {
            if (guard_engaged_) {
              fitting_->ObservePoint(pos);
            } else {
              fitting_->ObserveOffset(offset);
            }
            covered_index_ = idx;
            ++points_in_segment_;
            return;
          }
          BreakSegment();
          continue;
        }
        // Active candidate: combined when the distance condition holds
        // and (when the heuristic optimizations are in play) the drift
        // guard proves every represented point stays within zeta of the
        // would-be chord.
        if (distance_ok) {
          const FittingFunction::ActivationPlan plan =
              fitting_->PlanActivation(pos, r);
          if (!guard_engaged_ || fitting_->ActivationKeepsBound(plan)) {
            // d+-max per the paper uses the distance to L_{i-1} (before
            // the rotation); the drift budgets take the post-rotation
            // position.
            fitting_->ObserveOffset(offset);
            fitting_->ApplyActivation(pos, plan);
            if (guard_engaged_) fitting_->ObservePoint(pos);
            SetActive(pos, idx, r);
            covered_index_ = idx;
            ++points_in_segment_;
            return;
          }
        }
        BreakSegment();
        continue;
      }
      case Mode::kIdle:
      case Mode::kFinished:
        OPERB_CHECK_MSG(false, "ProcessPoint in invalid mode");
    }
  }
  OPERB_CHECK_MSG(false, "point re-dispatched more than twice");
}

void OperbStream::SetActive(geo::Vec2 pos, std::size_t idx, double radius) {
  active_pos_ = pos;
  active_index_ = idx;
  // radius > zeta/4 whenever a point becomes active, so the division is
  // safe except for the degenerate cap-break-while-seeking path.
  ra_unit_ = radius > 0.0 ? (pos - anchor_pos_) / radius : geo::Vec2{1.0, 0.0};
}

void OperbStream::BreakSegment() {
  // The segment anchor -> active is determined; it represents everything
  // consumed so far ([segment_first_index_, covered_index_]).
  pending_.start = anchor_pos_;
  pending_.end = active_pos_;
  pending_.first_index = segment_first_index_;
  pending_.last_index = covered_index_;
  pending_.start_is_patch = anchor_detached_;
  pending_.end_is_patch = false;  // finalized in EmitPending
  pending_end_index_ = active_index_;
  const geo::Vec2 d = pending_.end - pending_.start;
  const double len = d.Norm();
  pending_unit_ = len > 0.0 ? d / len : geo::Vec2{1.0, 0.0};
  mode_ = Mode::kAbsorb;
}

void OperbStream::EmitPending() {
  pending_.end_is_patch = (pending_.last_index != pending_end_index_);
  Emit(pending_);
  StartSegment(pending_.end, pending_.last_index, pending_.end_is_patch);
  mode_ = Mode::kSeek;
}

void OperbStream::StartSegment(geo::Vec2 anchor, std::size_t chain_index,
                               bool detached) {
  anchor_pos_ = anchor;
  segment_first_index_ = chain_index;
  anchor_detached_ = detached;
  points_in_segment_ = 1;  // the anchor itself
  fitting_.emplace(anchor, options_);
}

void OperbStream::Reset() {
  mode_ = Mode::kIdle;
  emitted_.clear();  // keeps capacity for the next trajectory
  last_take_size_ = 0;
  stats_ = OperbStats{};
  last_emitted_ = traj::RepresentedSegment{};
  any_emitted_ = false;
  fitting_.reset();
  anchor_pos_ = geo::Vec2{};
  segment_first_index_ = 0;
  anchor_detached_ = false;
  points_in_segment_ = 0;
  active_pos_ = geo::Vec2{};
  active_index_ = 0;
  ra_unit_ = geo::Vec2{};
  pending_ = traj::RepresentedSegment{};
  pending_end_index_ = 0;
  pending_unit_ = geo::Vec2{};
  covered_index_ = 0;
  next_index_ = 0;
  last_pos_ = geo::Vec2{};
  last_index_ = 0;
}

void OperbStream::Serialize(std::vector<std::uint8_t>* out) const {
  serial::PutU8(static_cast<std::uint8_t>(mode_), out);
  serial::PutU32(static_cast<std::uint32_t>(emitted_.size()), out);
  for (const traj::RepresentedSegment& s : emitted_) {
    traj::SerializeSegment(s, out);
  }
  serial::PutU64(last_take_size_, out);
  serial::PutU64(stats_.points_processed, out);
  serial::PutU64(stats_.segments_emitted, out);
  serial::PutU64(stats_.points_absorbed, out);
  serial::PutU64(stats_.cap_breaks, out);
  traj::SerializeSegment(last_emitted_, out);
  serial::PutU8(any_emitted_ ? 1 : 0, out);
  serial::PutU8(fitting_.has_value() ? 1 : 0, out);
  if (fitting_.has_value()) fitting_->SerializeTo(out);
  serial::PutF64(anchor_pos_.x, out);
  serial::PutF64(anchor_pos_.y, out);
  serial::PutU64(segment_first_index_, out);
  serial::PutU8(anchor_detached_ ? 1 : 0, out);
  serial::PutU64(points_in_segment_, out);
  serial::PutF64(active_pos_.x, out);
  serial::PutF64(active_pos_.y, out);
  serial::PutU64(active_index_, out);
  serial::PutF64(ra_unit_.x, out);
  serial::PutF64(ra_unit_.y, out);
  traj::SerializeSegment(pending_, out);
  serial::PutU64(pending_end_index_, out);
  serial::PutF64(pending_unit_.x, out);
  serial::PutF64(pending_unit_.y, out);
  serial::PutU64(covered_index_, out);
  serial::PutU64(next_index_, out);
  serial::PutF64(last_pos_.x, out);
  serial::PutF64(last_pos_.y, out);
  serial::PutU64(last_index_, out);
}

Status OperbStream::Deserialize(std::span<const std::uint8_t> in,
                                std::size_t* pos) {
  std::uint8_t mode = 0;
  std::uint32_t emitted_count = 0;
  if (!serial::GetU8(in, pos, &mode) ||
      !serial::GetU32(in, pos, &emitted_count)) {
    return Status::Corruption("truncated OPERB stream state");
  }
  if (mode > static_cast<std::uint8_t>(Mode::kFinished)) {
    return Status::Corruption("OPERB stream mode out of range");
  }
  mode_ = static_cast<Mode>(mode);
  emitted_.clear();
  emitted_.reserve(emitted_count);
  for (std::uint32_t i = 0; i < emitted_count; ++i) {
    traj::RepresentedSegment s;
    OPERB_RETURN_IF_ERROR(traj::DeserializeSegment(in, pos, &s));
    emitted_.push_back(s);
  }
  std::uint64_t last_take = 0;
  std::uint64_t points_processed = 0;
  std::uint64_t segments_emitted = 0;
  std::uint64_t points_absorbed = 0;
  std::uint64_t cap_breaks = 0;
  if (!serial::GetU64(in, pos, &last_take) ||
      !serial::GetU64(in, pos, &points_processed) ||
      !serial::GetU64(in, pos, &segments_emitted) ||
      !serial::GetU64(in, pos, &points_absorbed) ||
      !serial::GetU64(in, pos, &cap_breaks)) {
    return Status::Corruption("truncated OPERB stream state");
  }
  last_take_size_ = static_cast<std::size_t>(last_take);
  stats_.points_processed = static_cast<std::size_t>(points_processed);
  stats_.segments_emitted = static_cast<std::size_t>(segments_emitted);
  stats_.points_absorbed = static_cast<std::size_t>(points_absorbed);
  stats_.cap_breaks = static_cast<std::size_t>(cap_breaks);
  OPERB_RETURN_IF_ERROR(traj::DeserializeSegment(in, pos, &last_emitted_));
  std::uint8_t any_emitted = 0;
  std::uint8_t has_fitting = 0;
  if (!serial::GetU8(in, pos, &any_emitted) ||
      !serial::GetU8(in, pos, &has_fitting)) {
    return Status::Corruption("truncated OPERB stream state");
  }
  if (any_emitted > 1 || has_fitting > 1) {
    return Status::Corruption("OPERB stream flag out of range");
  }
  any_emitted_ = any_emitted != 0;
  if (has_fitting != 0) {
    // Placeholder anchor: DeserializeFrom overwrites the dynamic fields,
    // the constructor re-derives the option-dependent parameters.
    fitting_.emplace(geo::Vec2{}, options_);
    OPERB_RETURN_IF_ERROR(fitting_->DeserializeFrom(in, pos));
  } else {
    fitting_.reset();
  }
  std::uint64_t segment_first = 0;
  std::uint8_t anchor_detached = 0;
  std::uint64_t points_in_segment = 0;
  std::uint64_t active_index = 0;
  std::uint64_t pending_end = 0;
  std::uint64_t covered = 0;
  std::uint64_t next = 0;
  std::uint64_t last = 0;
  if (!serial::GetF64(in, pos, &anchor_pos_.x) ||
      !serial::GetF64(in, pos, &anchor_pos_.y) ||
      !serial::GetU64(in, pos, &segment_first) ||
      !serial::GetU8(in, pos, &anchor_detached) ||
      !serial::GetU64(in, pos, &points_in_segment) ||
      !serial::GetF64(in, pos, &active_pos_.x) ||
      !serial::GetF64(in, pos, &active_pos_.y) ||
      !serial::GetU64(in, pos, &active_index) ||
      !serial::GetF64(in, pos, &ra_unit_.x) ||
      !serial::GetF64(in, pos, &ra_unit_.y)) {
    return Status::Corruption("truncated OPERB stream state");
  }
  if (anchor_detached > 1) {
    return Status::Corruption("OPERB stream flag out of range");
  }
  OPERB_RETURN_IF_ERROR(traj::DeserializeSegment(in, pos, &pending_));
  if (!serial::GetU64(in, pos, &pending_end) ||
      !serial::GetF64(in, pos, &pending_unit_.x) ||
      !serial::GetF64(in, pos, &pending_unit_.y) ||
      !serial::GetU64(in, pos, &covered) || !serial::GetU64(in, pos, &next) ||
      !serial::GetF64(in, pos, &last_pos_.x) ||
      !serial::GetF64(in, pos, &last_pos_.y) ||
      !serial::GetU64(in, pos, &last)) {
    return Status::Corruption("truncated OPERB stream state");
  }
  segment_first_index_ = static_cast<std::size_t>(segment_first);
  anchor_detached_ = anchor_detached != 0;
  points_in_segment_ = static_cast<std::size_t>(points_in_segment);
  active_index_ = static_cast<std::size_t>(active_index);
  pending_end_index_ = static_cast<std::size_t>(pending_end);
  covered_index_ = static_cast<std::size_t>(covered);
  next_index_ = static_cast<std::size_t>(next);
  last_index_ = static_cast<std::size_t>(last);
  return Status::OK();
}

void OperbStream::Finish() {
  if (mode_ == Mode::kIdle || mode_ == Mode::kFinished) {
    mode_ = Mode::kFinished;
    return;
  }
  if (mode_ == Mode::kAbsorb) {
    EmitPending();  // transitions to kSeek with an empty segment
  }
  if (covered_index_ > segment_first_index_) {
    // The open segment has content.
    traj::RepresentedSegment s;
    s.start = anchor_pos_;
    s.first_index = segment_first_index_;
    s.last_index = covered_index_;
    s.start_is_patch = anchor_detached_;
    if (mode_ == Mode::kExtend) {
      s.end = active_pos_;
      s.end_is_patch = (covered_index_ != active_index_);
    } else {
      // kSeek: every consumed point is within the activation threshold
      // (<= zeta) of the anchor, so any line through the anchor bounds
      // them; end at the last sample for an exact tail.
      s.end = last_pos_;
      s.end_is_patch = false;
    }
    Emit(s);
  }
  // Closing segment: guarantee the representation ends at the last sample.
  if (options_.emit_closing_segment && any_emitted_) {
    const traj::RepresentedSegment tail = last_emitted_;
    if (tail.end_is_patch || tail.last_index != last_index_) {
      traj::RepresentedSegment close;
      close.start = tail.end;
      close.end = last_pos_;
      close.first_index = tail.last_index;
      close.last_index = last_index_;
      close.start_is_patch = tail.end_is_patch;
      close.end_is_patch = false;
      Emit(close);
    }
  }
  mode_ = Mode::kFinished;
}

traj::PiecewiseRepresentation SimplifyOperb(const traj::Trajectory& trajectory,
                                            const OperbOptions& options,
                                            OperbStats* stats) {
  OperbStream stream(options);
  traj::PiecewiseRepresentation out;
  if (trajectory.size() < 2) {
    if (stats != nullptr) *stats = stream.stats();
    return out;
  }
  stream.SetSink(
      [&out](const traj::RepresentedSegment& s) { out.Append(s); });
  stream.Push(std::span<const geo::Point>(trajectory.points()));
  stream.Finish();
  if (stats != nullptr) *stats = stream.stats();
  return out;
}

}  // namespace operb::core
