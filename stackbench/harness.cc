#include "harness.h"

#include <malloc.h>
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

#include "api/registry.h"
#include "common/serial.h"

namespace stackbench {

namespace {

std::string Num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// The "<field>:  N kB" line of /proc/self/status in MiB; -1 if absent.
double ProcStatusMiB(const std::string& field) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.size() > field.size() && line[field.size()] == ':' &&
        line.compare(0, field.size(), field) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

// ---- span recorder -------------------------------------------------------

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Tracer::Record> records;
  std::vector<std::int64_t> open;  ///< stack of open record indices
};

std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded by mu
bool g_enabled = false;  // set before any worker thread starts

ThreadBuffer& LocalBuffer() {
  thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    local = g_buffers.back().get();
    local->thread = static_cast<std::uint32_t>(g_buffers.size() - 1);
    local->records.reserve(1 << 12);
  }
  return *local;
}

}  // namespace

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, n) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

std::uint64_t HashSegments(std::span<const operb::traj::RepresentedSegment> s,
                           std::uint64_t seed) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(s.size() * 50);
  for (const auto& seg : s) operb::traj::SerializeSegment(seg, &bytes);
  return operb::serial::Fnv1a64(bytes, seed);
}

std::uint64_t HashTimed(std::span<const operb::traj::TimedSegment> s,
                        std::uint64_t seed) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(s.size() * 74);
  for (const auto& seg : s) {
    operb::serial::PutU64(seg.object_id, &bytes);
    operb::traj::SerializeSegment(seg.segment, &bytes);
    operb::serial::PutF64(seg.t_start, &bytes);
    operb::serial::PutF64(seg.t_end, &bytes);
  }
  return operb::serial::Fnv1a64(bytes, seed);
}

std::uint64_t HashBytes(std::string_view bytes, std::uint64_t seed) {
  return operb::serial::Fnv1a64(
      std::span<const std::uint8_t>(
          reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()),
      seed);
}

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

bool SameAnswer(const std::vector<operb::traj::TimedSegment>& a,
                const std::vector<operb::traj::TimedSegment>& b) {
  return a.size() == b.size() && HashTimed(a) == HashTimed(b);
}

Window WindowAround(const operb::geo::Point& p) {
  constexpr double kHalfM = 500.0;
  constexpr double kHalfS = 300.0;
  Window w;
  w.box.min_x = p.x - kHalfM;
  w.box.max_x = p.x + kHalfM;
  w.box.min_y = p.y - kHalfM;
  w.box.max_y = p.y + kHalfM;
  w.t_min = p.t - kHalfS;
  w.t_max = p.t + kHalfS;
  return w;
}

std::vector<operb::traj::TimedSegment> SingleStreamAnswer(
    operb::traj::ObjectId id, const std::vector<operb::geo::Point>& points) {
  auto sim = operb::api::AlgorithmRegistry::Global().MakeStreaming(
      "operb:zeta=40");
  std::vector<operb::traj::TimedSegment> out;
  (*sim)->SetSink([&](const operb::traj::RepresentedSegment& s) {
    out.push_back({id, s, points[s.first_index].t, points[s.last_index].t});
  });
  (*sim)->Push(std::span<const operb::geo::Point>(points));
  (*sim)->Finish();
  return out;
}

// ---- Tracer / Span ---------------------------------------------------------

void Tracer::SetEnabled(bool on) { g_enabled = on; }
bool Tracer::enabled() { return g_enabled; }

std::vector<std::vector<Tracer::Record>> Tracer::Collect() {
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  std::vector<std::vector<Record>> out;
  for (const auto& b : g_buffers) out.push_back(b->records);
  return out;
}

std::map<std::string, double> Tracer::SelfTimeByName(double since) {
  std::map<std::string, double> self;
  for (const auto& records : Collect()) {
    std::vector<double> child_time(records.size(), 0.0);
    for (const Record& r : records) {
      if (r.parent >= 0) {
        child_time[static_cast<std::size_t>(r.parent)] += r.end - r.start;
      }
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (records[i].start < since) continue;
      self[records[i].name] +=
          records[i].end - records[i].start - child_time[i];
    }
  }
  return self;
}

bool Tracer::WriteChromeJson(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const auto& records : Collect()) {
    for (const Record& r : records) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\":" << Quote(r.name) << ",\"ph\":\"X\",\"pid\":1,"
          << "\"tid\":" << r.thread << ",\"ts\":" << Num(r.start * 1e6)
          << ",\"dur\":" << Num((r.end - r.start) * 1e6)
          << ",\"args\":{\"parent\":" << r.parent
          << ",\"request\":" << r.request << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t request) : start_(Now()) {
  if (!g_enabled) return;
  ThreadBuffer& b = LocalBuffer();
  Tracer::Record r;
  r.name = name;
  r.start = start_;
  r.thread = b.thread;
  r.parent = b.open.empty() ? -1 : b.open.back();
  r.request = request != 0 || r.parent < 0
                  ? request
                  : b.records[static_cast<std::size_t>(r.parent)].request;
  index_ = static_cast<std::int64_t>(b.records.size());
  b.records.push_back(r);
  b.open.push_back(index_);
}

double Span::Close() {
  if (!open_) return 0.0;
  open_ = false;
  const double end = Now();
  if (index_ >= 0) {
    ThreadBuffer& b = LocalBuffer();
    b.records[static_cast<std::size_t>(index_)].end = end;
    b.open.pop_back();
  }
  return end - start_;
}

// ---- Report ----------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit) {
  end_to_end_.push_back({name, {value, unit, 0}});
}

void Report::Detail(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  details_.push_back({name, {value, unit, samples}});
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_.push_back({name, {value, unit, 0}});
}

void Report::Fact(const std::string& key, const std::string& value) {
  facts_.push_back({key, value});
}

void Report::Failed(const std::string& why, std::uint64_t n) {
  if (failed_ < 5) {
    std::printf("check failed: %s%s\n", why.c_str(),
                n > 1 ? (" (x" + std::to_string(n) + ")").c_str() : "");
  }
  failed_ += n;
}

void Report::Print() const {
  const std::string& w = options_.workload;
  for (const auto& [k, v] : facts_) {
    std::printf("fact %s.%s = %s\n", w.c_str(), k.c_str(), v.c_str());
  }
  for (const auto& [name, v] : details_) {
    std::printf("detail %s.%s = %s %s (n=%zu)\n", w.c_str(), name.c_str(),
                Num(v.value).c_str(), v.unit.c_str(), v.samples);
  }
  const auto& shown = options_.trace ? layers_ : end_to_end_;
  bool finite = true;
  for (const auto& [name, v] : shown) {
    finite = finite && std::isfinite(v.value);
    std::printf("%s %s.%s = %s %s\n", options_.trace ? "layer" : "metric",
                w.c_str(), name.c_str(), Num(v.value).c_str(), v.unit.c_str());
  }
  const double failed_ratio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("detail %s.failed_ratio = %s fraction (n=%llu)\n", w.c_str(),
              Num(failed_ratio).c_str(),
              static_cast<unsigned long long>(attempted_));

  const bool correct = failed_ == 0 && attempted_ > 0 && finite;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(attempted_, 1));
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : shown) {
    if (!first) json += ", ";
    first = false;
    json += Quote(name) + ": {\"value\": " +
            Num(std::isfinite(v.value) ? v.value : 0.0) +
            ", \"unit\": " + Quote(v.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void ReportLatency(Report* report, const std::string& prefix,
                   const std::vector<double>& ms, bool with_p99) {
  report->Detail(prefix + "_p50_ms", Percentile(ms, 0.5), "ms", ms.size());
  if (with_p99) {
    report->Detail(prefix + "_p99_ms", Percentile(ms, 0.99), "ms", ms.size());
  }
}

void ReportReference(Report* report, const ReferenceWork& reference) {
  const auto& s = reference.samples();
  report->Detail("reference_p10_ms", Percentile(s, 0.1) * 1e3, "ms", s.size());
  report->Detail("reference_p50_ms", Percentile(s, 0.5) * 1e3, "ms", s.size());
  report->Detail("reference_p90_ms", Percentile(s, 0.9) * 1e3, "ms", s.size());
}

// ---- ReferenceWork ---------------------------------------------------------

namespace {
constexpr int kReferenceRows = 12000;
}

ReferenceWork::ReferenceWork() {
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  const auto next = [&s] {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(s >> 11) * 0x1.0p-53;
  };
  double x = 0.0, y = 0.0;
  for (int i = 0; i < kReferenceRows; ++i) {
    x += 20.0 * (next() - 0.3);
    y += 20.0 * (next() - 0.4);
    text_ += Num(x) + "," + Num(y) + "," + Num(i * 1.5) + "\n";
  }
  values_.reserve(3 * kReferenceRows);
}

double ReferenceWork::Time(int n) {
  std::vector<double> runs;
  for (int r = 0; r < n; ++r) {
    const double t0 = ThreadCpuNow();
    Run();
    runs.push_back(ThreadCpuNow() - t0);
  }
  samples_.insert(samples_.end(), runs.begin(), runs.end());
  return Median(std::move(runs));
}

double ReferenceWork::TimeOnEveryCore(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return Time(n);
  double sum = 0.0;
  int cores = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    sum += Time(n);
    ++cores;
  }
  sched_setaffinity(0, sizeof(allowed), &allowed);
  return cores == 0 ? Time(n) : sum / cores;
}

void ReferenceWork::Run() {
  values_.clear();
  const char* p = text_.data();
  const char* const end = p + text_.size();
  while (p < end) {
    double v = 0.0;
    const auto r = std::from_chars(p, end, v);
    values_.push_back(v);
    p = r.ptr + 1;
  }
  // Distance of each point from the chord anchor -> point, restarting the
  // chord when a point strays past 40 m, as a one-pass fit does.
  std::size_t anchor = 0;
  double acc = 0.0;
  for (std::size_t i = 3; i + 2 < values_.size(); i += 3) {
    const double ax = values_[anchor], ay = values_[anchor + 1];
    const double dx = values_[i] - ax, dy = values_[i + 1] - ay;
    const double len = std::sqrt(dx * dx + dy * dy);
    double worst = 0.0;
    for (std::size_t k = anchor + 3; k < i && len > 0.0; k += 3) {
      const double d =
          std::fabs((values_[k] - ax) * dy - (values_[k + 1] - ay) * dx) / len;
      worst = std::max(worst, d);
    }
    if (worst > 40.0 || i - anchor > 3 * 24) anchor = i;
    acc += worst;
  }
  std::vector<double> column(values_.begin(), values_.begin() + kReferenceRows);
  std::sort(column.begin(), column.end());
  volatile double sink = acc + column[column.size() / 2];
  (void)sink;
}

// ---- RssMeter --------------------------------------------------------------

void RssMeter::Start(Report* report) {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;  // 5: reset the peak RSS to the current RSS
  baseline_mib_ = ProcStatusMiB("VmRSS");
  report->Attempted();
  if (!clear || baseline_mib_ < 0.0) {
    report->Failed("cannot reset the peak RSS through /proc/self/clear_refs");
  }
}

void RssMeter::Lap() {
  const double mark = ProcStatusMiB("VmHWM");
  laps_mib_.push_back(mark - baseline_mib_);
  peak_mib_ = std::max(peak_mib_, mark);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5" << std::flush;
}

void RssMeter::Stop() { peak_mib_ = std::max(peak_mib_, ProcStatusMiB("VmHWM")); }

void RssMeter::AddTo(Report* report) const {
  const double added =
      laps_mib_.empty() ? peak_mib_ - baseline_mib_ : Median(laps_mib_);
  report->EndToEnd("peak_rss_mb", added, "MiB");
  report->Detail("peak_rss_mb", added, "MiB", std::max<std::size_t>(1, laps_mib_.size()));
  report->Detail("peak_rss_total_mb", peak_mib_, "MiB", 1);
}

}  // namespace stackbench
