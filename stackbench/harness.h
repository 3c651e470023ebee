#ifndef STACKBENCH_HARNESS_H_
#define STACKBENCH_HARNESS_H_

// Shared plumbing of the stack benchmark: run options, sample summaries,
// output hashing, the in-memory span recorder of the traced run, the
// memory meter, and the report that prints every metric by name with its
// unit.

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "geo/bbox.h"
#include "geo/point.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"

namespace stackbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the measured phase.
  double seconds = 10.0;
  /// Record spans around every call into the library and report the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Inputs scaled down 20x, for the self-check.
  bool smoke = false;
  /// Corrupts one checked answer before it is compared; the run must then
  /// report correct=false. Proves the output checks can fail.
  bool tamper = false;
  /// Scratch directory for stores and the trace file.
  std::string work_dir;
};

/// Seconds on the steady clock.
double Now();
/// CPU seconds the calling thread has used.
double ThreadCpuNow();

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// FNV-1a over the byte-stable encodings of the segments, chained.
std::uint64_t HashSegments(std::span<const operb::traj::RepresentedSegment> s,
                           std::uint64_t seed = 0xCBF29CE484222325ULL);
std::uint64_t HashTimed(std::span<const operb::traj::TimedSegment> s,
                        std::uint64_t seed = 0xCBF29CE484222325ULL);
std::uint64_t HashBytes(std::string_view bytes,
                        std::uint64_t seed = 0xCBF29CE484222325ULL);
std::string Hex(std::uint64_t v);

/// True when both answers hold the same segments, byte for byte.
bool SameAnswer(const std::vector<operb::traj::TimedSegment>& a,
                const std::vector<operb::traj::TimedSegment>& b);

/// The window query the fleet workloads issue around a sample: a square
/// of side 1 km centred on it, over the 10 minutes around its time.
struct Window {
  operb::geo::BoundingBox box;
  double t_min = 0.0;
  double t_max = 0.0;
};
Window WindowAround(const operb::geo::Point& p);

/// The offline answer for one object: the single-stream simplifier the
/// engine and server run per object (OPERB, guarded, zeta 40) over
/// `points`, each segment timed by its first and last original point.
std::vector<operb::traj::TimedSegment> SingleStreamAnswer(
    operb::traj::ObjectId id, const std::vector<operb::geo::Point>& points);

/// In-memory span recorder. Disabled (the default), a Span costs one
/// branch. Enabled, each thread appends to its own buffer; parents are
/// the enclosing span on the same thread.
class Tracer {
 public:
  struct Record {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;  ///< index into the same thread's records
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
  };

  static void SetEnabled(bool on);
  static bool enabled();

  /// Records of every thread, each thread's records contiguous and in
  /// start order. Call only when no span is open.
  static std::vector<std::vector<Record>> Collect();

  /// Sum of self time (duration minus the time covered by children on
  /// the same thread) per span name, over spans starting at or after
  /// `since`.
  static std::map<std::string, double> SelfTimeByName(double since);

  /// Writes every record as Chrome trace-event JSON ("X" events, parent
  /// and request id in args), readable by chrome://tracing and Perfetto.
  static bool WriteChromeJson(const std::string& path);
};

/// RAII span. `request` 0 inherits the parent's request id.
class Span {
 public:
  Span(const char* name, std::uint64_t request = 0);
  ~Span() { Close(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span early; returns its duration in seconds (also when
  /// tracing is off, so callers can time with it).
  double Close();

 private:
  double start_ = 0.0;
  std::int64_t index_ = -1;
  bool open_ = true;
};

/// Collects the run's results and prints them: one human-readable line
/// per metric, then the result object as the last line of stdout. The
/// result holds the metrics this run measured; run.py checks their names
/// and units against BENCHMARK.json and completes the list from it.
class Report {
 public:
  explicit Report(const RunOptions& options) : options_(options) {}

  /// A metric of BENCHMARK.json's end_to_end list, printed in untraced
  /// runs.
  void EndToEnd(const std::string& name, double value, const std::string& unit);
  /// A workload-specific end-to-end metric with its sample count; printed
  /// in every run for reading, not part of the result object.
  void Detail(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A metric of BENCHMARK.json's per_layer list, printed in traced runs.
  void Layer(const std::string& name, double value, const std::string& unit);
  void Fact(const std::string& key, const std::string& value);

  void Attempted(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts `n` failed operations and prints the first few reasons.
  void Failed(const std::string& why, std::uint64_t n = 1);

  /// Prints everything as the last lines of stdout.
  void Print() const;

 private:
  struct Value {
    double value;
    std::string unit;
    std::size_t samples;
  };

  const RunOptions& options_;
  std::vector<std::pair<std::string, Value>> end_to_end_;
  std::vector<std::pair<std::string, Value>> details_;
  std::vector<std::pair<std::string, Value>> layers_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// A fixed piece of work that uses nothing of the library: parse a fixed
/// x,y,t text with std::from_chars, measure each point's distance from a
/// moving chord, sort a column. On a shared host the speed of this kind of
/// code moves by up to half between seconds, with what the other tenants
/// run; timing this work next to each measurement tells how fast the
/// machine ran at that moment. Times are CPU time of the calling thread,
/// so waiting for a core does not count.
class ReferenceWork {
 public:
  ReferenceWork();
  /// Runs the work `n` times; returns the median seconds of one run.
  double Time(int n = 1);
  /// Runs Time(n) pinned to each core this thread may use in turn, then
  /// restores the thread's affinity; returns the mean over the cores.
  /// Other tenants slow some cores and not others, so this is the figure
  /// for work spread over every core, Time() the one for work on this
  /// thread.
  double TimeOnEveryCore(int n = 1);
  /// Every run's seconds so far.
  const std::vector<double>& samples() const { return samples_; }

 private:
  void Run();

  std::string text_;
  std::vector<double> values_;
  std::vector<double> samples_;
};

/// The reference work's seconds on the nominal machine, about what it
/// takes on an undisturbed 2020s server core.
inline constexpr double kNominalReferenceS = 2.0e-3;

/// `seconds` measured while the reference work took `reference_s`, scaled
/// to the nominal machine: the figure a machine of constant speed would
/// show. The reference uses nothing of the library, so a change to the
/// library moves the scaled figure as much as the measured one.
inline double AtNominal(double seconds, double reference_s) {
  return seconds * kNominalReferenceS / reference_s;
}

/// Wall seconds `work` takes, at nominal speed by the reference work timed
/// just before and just after it.
template <typename F>
double NominalSeconds(ReferenceWork& reference, F&& work) {
  const double before = reference.Time(5);
  const double t0 = Now();
  work();
  const double seconds = Now() - t0;
  return AtNominal(seconds, 0.5 * (before + reference.Time(5)));
}

/// Latency sample in milliseconds with its p50/p99 detail lines.
void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& ms, bool with_p99);

/// The reference work's median and spread over the run, as detail lines.
void ReportReference(Report* report, const ReferenceWork& reference);

/// Peak resident memory the measured phase adds to what set-up left
/// resident, so neither the inputs the benchmark holds nor its output
/// checks count. Start() after set-up hands the memory set-up freed back
/// to the kernel and resets the kernel's peak-RSS mark (VmHWM) to the
/// current RSS; Stop() reads the mark when the measured phase ends. A
/// workload that runs in cycles calls Lap() at the end of each: it reads
/// the mark and resets it, and the metric becomes the median cycle's peak,
/// which does not hang on the one cycle where the allocator peaked.
class RssMeter {
 public:
  /// Counts one operation into `report`, failed when the mark cannot be
  /// reset.
  void Start(Report* report);
  /// Ends a cycle: records the mark minus the RSS at Start(), then resets
  /// the mark.
  void Lap();
  void Stop();
  /// Adds peak_rss_mb (the median lap, or without laps the mark at Stop()
  /// minus the RSS at Start()) and the detail peak_rss_total_mb (the
  /// highest mark).
  void AddTo(Report* report) const;

 private:
  double baseline_mib_ = 0.0;
  double peak_mib_ = 0.0;
  std::vector<double> laps_mib_;
};

}  // namespace stackbench

#endif  // STACKBENCH_HARNESS_H_
