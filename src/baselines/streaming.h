#ifndef OPERB_BASELINES_STREAMING_H_
#define OPERB_BASELINES_STREAMING_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "baselines/simplifier.h"
#include "common/status.h"
#include "geo/point.h"
#include "traj/piecewise.h"

namespace operb::baselines {

/// Incremental counterpart of Simplifier: points go in one at a time,
/// segments come out through a sink. This is the per-object state the
/// sharded StreamEngine keeps resident for every live trajectory.
///
/// Contract (all implementations):
///  - SetSink() installs the emission callback; call it once, before the
///    first Push(). The sink survives Reset(), so a pooled state is wired
///    up exactly once.
///  - Push()/Finish() produce the same segment sequence as the matching
///    Simplifier::Simplify() on the same points — bit-identical, times
///    included (each segment carries the times of the points at its two
///    indices, which is all the engine needs to time it), which is what
///    makes the engine testable against tests/golden/.
///  - Reset() returns the state to "fresh trajectory" condition while
///    keeping its buffers' capacity, so pooled reuse performs no heap
///    allocation (asserted by allocation_test for the one-pass family).
///
/// The OPERB-family implementations are truly one-pass (O(1) state,
/// allocation-free per point on the sink path). The batch baselines (DP,
/// DP-SED, OPW, OPW-SED, BQS, FBQS) buffer the trajectory and run their
/// batch algorithm at Finish() — same output, but O(n) state; they exist
/// so the engine can serve any of the 10 algorithms uniformly.
class StreamingSimplifier {
 public:
  virtual ~StreamingSimplifier() = default;

  /// Paper-style algorithm name ("OPERB", "DP", ...).
  virtual std::string_view name() const = 0;

  /// True for the algorithms with O(1) per-object state (OPERB family);
  /// false for the buffering batch adapters.
  virtual bool one_pass() const = 0;

  /// Installs the emission callback (once, before the first Push).
  virtual void SetSink(traj::SegmentSink sink) = 0;

  /// Feeds the next point. Timestamps must be strictly increasing per
  /// trajectory (not re-validated here).
  virtual void Push(const geo::Point& p) = 0;

  /// Feeds a batch (same semantics as point-wise Push).
  virtual void Push(std::span<const geo::Point> points) = 0;

  /// End-of-trajectory: flushes pending state into the sink. Push() must
  /// not be called again until Reset().
  virtual void Finish() = 0;

  /// Ready the state for the next trajectory, keeping capacity.
  virtual void Reset() = 0;

  /// Appends a versioned, checksummed, byte-stable encoding of the
  /// complete dynamic state: a 4-byte family magic, a version byte, the
  /// fixed-size field payload, and a trailing FNV-1a64 over all of it —
  /// the same discipline as the store's block footer. Options and the
  /// sink are configuration, not state: Deserialize() must run on an
  /// instance created from the identical SimplifierSpec, which then
  /// resumes mid-trajectory bit-identically (the engine checkpoint
  /// contract; see DESIGN.md §9).
  virtual void Serialize(std::vector<std::uint8_t>* out) const = 0;

  /// Inverse of Serialize(), advancing `*pos` past the consumed blob.
  /// Corruption for a wrong magic, failed checksum or truncation;
  /// InvalidArgument for a version or configuration (zeta) mismatch.
  virtual Status Deserialize(std::span<const std::uint8_t> in,
                             std::size_t* pos) = 0;
};

/// Creates a resettable streaming state for any algorithm, configured
/// identically to MakeSimplifier(algorithm, zeta, fidelity) — the two
/// factories produce bit-identical segment sequences.
///
/// Compatibility wrapper: like MakeSimplifier, defined in
/// src/api/compat.cc over the AlgorithmRegistry (which hands out both
/// factories of an algorithm from one registration, so batch and
/// streaming configuration cannot drift apart).
std::unique_ptr<StreamingSimplifier> MakeStreamingSimplifier(
    Algorithm algorithm, double zeta,
    OperbFidelity fidelity = OperbFidelity::kGuarded);

}  // namespace operb::baselines

#endif  // OPERB_BASELINES_STREAMING_H_
