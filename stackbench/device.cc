// device: one device compressing its own trace in one pass, the paper's
// use case. Each pass parses an in-memory x,y,t CSV, simplifies it with
// OPERB and then OPERB-A (guarded, zeta 40) into a sink, and verifies
// both outputs against zeta. Closed loop, one thread. The engine, store
// and server are idle here.

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "api/registry.h"
#include "eval/verifier.h"
#include "inputs.h"
#include "traj/io.h"
#include "workloads.h"

namespace stackbench {

namespace {

constexpr double kZeta = 40.0;
constexpr const char* kAlgorithms[2] = {"operb:zeta=40", "operb-a:zeta=40"};
constexpr const char* kCoreSpans[2] = {"core.operb", "core.operb_a"};

struct Inputs {
  std::vector<NamedProfile> profiles;
  std::vector<std::string> csv;  ///< one x,y,t CSV per profile
};

Inputs BuildInputs(const RunOptions& o) {
  Inputs in;
  in.profiles = DeviceProfiles();
  const std::size_t points = o.smoke ? 10000 : 200000;
  for (const auto& t : GenerateTraces(in.profiles, points, o.seed)) {
    in.csv.push_back(operb::traj::WriteCsvString(t));
  }
  return in;
}

}  // namespace

void RunDevice(const RunOptions& o, Report* report) {
  ReferenceWork reference;
  std::vector<double> setup_s;
  Inputs in;
  for (int i = 0; i < kSetupRepeats; ++i) {
    in = Inputs();
    setup_s.push_back(NominalSeconds(reference, [&] { in = BuildInputs(o); }));
  }
  std::uint64_t input_hash = 0xCBF29CE484222325ULL;
  for (const auto& c : in.csv) input_hash = HashBytes(c, input_hash);
  report->Fact("input_hash", Hex(input_hash));
  const std::size_t num_profiles = in.profiles.size();
  RssMeter rss;
  rss.Start(report);

  std::unique_ptr<operb::baselines::StreamingSimplifier> sims[2];
  operb::traj::PiecewiseRepresentation* target = nullptr;
  for (int a = 0; a < 2; ++a) {
    auto made = operb::api::AlgorithmRegistry::Global().MakeStreaming(
        kAlgorithms[a]);
    if (!made.ok()) {
      report->Failed(made.status().ToString());
      return;
    }
    sims[a] = std::move(*made);
    sims[a]->SetSink([&target](const operb::traj::RepresentedSegment& s) {
      target->Append(s);
    });
  }

  // The first pass over every profile is untimed: it fixes each output's
  // size and FNV-1a hash, which every later pass must reproduce.
  std::vector<std::array<std::size_t, 2>> expected(num_profiles);
  std::vector<std::array<double, 2>> core_s(num_profiles, {0.0, 0.0});
  std::vector<std::size_t> core_passes(num_profiles, 0);
  std::vector<std::size_t> profile_points(num_profiles, 0);
  std::size_t points_in = 0;
  std::size_t points_out[2] = {0, 0};
  bool tamper_pending = o.tamper;

  // One pass over profile p; the first pass records what later ones must
  // reproduce.
  const auto pass = [&](std::size_t p, bool first, std::uint64_t request) {
    Span span("device.pass", request);
    operb::traj::Trajectory t;
    {
      Span s("traj.parse");
      auto parsed = operb::traj::ParseCsv(in.csv[p]);
      if (!parsed.ok()) {
        report->Failed(in.profiles[p].name + ": " + parsed.status().ToString());
        return;
      }
      t = std::move(*parsed);
    }
    for (int a = 0; a < 2; ++a) {
      operb::traj::PiecewiseRepresentation rep;
      target = &rep;
      {
        Span s(kCoreSpans[a]);
        sims[a]->Reset();
        sims[a]->Push(std::span<const operb::geo::Point>(t.points()));
        sims[a]->Finish();
        const double dt = s.Close();
        if (Tracer::enabled()) core_s[p][a] += dt;
      }
      if (tamper_pending && !first) {
        // Shift the whole output far outside the bound (one moved vertex
        // can still pass: the check is existential over neighbours).
        operb::traj::PiecewiseRepresentation bad;
        for (auto seg : rep) {
          seg.start.x += 100.0 * kZeta;
          seg.end.x += 100.0 * kZeta;
          bad.Append(seg);
        }
        rep = std::move(bad);
        tamper_pending = false;
      }
      operb::eval::VerificationResult v;
      {
        Span s("eval.verify");
        v = operb::eval::VerifyErrorBound(t, rep, kZeta);
      }
      report->Attempted();
      const std::string what =
          in.profiles[p].name + "/" + sims[a]->name().data();
      if (!v.bounded) {
        report->Failed(what + ": " + v.ToString());
      } else if (first) {
        expected[p][a] = rep.size();
        points_out[a] += rep.StoredPointCount();
        report->Fact("hash." + what, Hex(HashSegments(rep.segments())));
        report->Fact("segments." + what, std::to_string(rep.size()));
      } else if (rep.size() != expected[p][a]) {
        report->Failed(what + ": segment count changed between passes");
      }
    }
    if (first) {
      profile_points[p] = t.size();
      points_in += t.size();
    }
    if (Tracer::enabled()) ++core_passes[p];
  };

  for (std::size_t p = 0; p < num_profiles; ++p) pass(p, true, 0);

  // Measured phase: rounds over all profiles, the reference work timed
  // before each pass. A traced run alternates traced and untraced rounds,
  // so the tracing overhead is measured on the same inputs in the same
  // run. A pass runs on this one thread and waits on nothing, so its cost
  // is the thread's CPU time, like the reference's: time the thread spends
  // waiting for a core while other tenants run does not count.
  std::vector<double> round_s[2];  // [traced], passes only, wall
  std::vector<double> pass_ms;     // CPU at nominal speed, untraced
  // Pass CPU seconds per profile at nominal speed, [traced][profile], and
  // wall seconds as measured, untraced.
  using PerProfile = std::vector<std::vector<double>>;
  PerProfile profile_pass_s[2] = {PerProfile(num_profiles),
                                  PerProfile(num_profiles)};
  PerProfile measured_pass_s(num_profiles);
  const double start = Now();
  const double trace_since = start;
  for (std::uint64_t round = 0; Now() - start < o.seconds; ++round) {
    const bool traced = o.trace && round % 2 == 1;
    Tracer::SetEnabled(traced);
    double round_wall = 0.0;
    for (std::size_t p = 0; p < num_profiles; ++p) {
      const double reference_s = reference.Time();
      const double c0 = ThreadCpuNow();
      const double p0 = Now();
      pass(p, false, round + 1);
      const double dt = Now() - p0;
      const double nominal_s = AtNominal(ThreadCpuNow() - c0, reference_s);
      round_wall += dt;
      profile_pass_s[traced][p].push_back(nominal_s);
      if (!traced) {
        pass_ms.push_back(nominal_s * 1e3);
        measured_pass_s[p].push_back(dt);
      }
    }
    round_s[traced].push_back(round_wall);
  }
  Tracer::SetEnabled(false);
  rss.Stop();

  // Throughput: the points of one round over the sum of each profile's
  // median pass time.
  const double round_points = static_cast<double>(points_in);
  const auto round_points_per_s = [&](const PerProfile& pass_s) {
    double round = 0.0;
    for (const auto& v : pass_s) round += Median(v);
    return round > 0.0 ? round_points / round : 0.0;
  };
  const double pts_per_s = round_points_per_s(profile_pass_s[0]);
  const double ratio = static_cast<double>(points_out[0] + points_out[1]) /
                       (2.0 * round_points);
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("points_per_s", pts_per_s, "pts/s");
  report->EndToEnd("compression_ratio", ratio, "fraction");
  // Latency: the middle profile's median pass. The median of all passes
  // would jump between the profiles whose pass times lie near it.
  std::vector<double> profile_median_ms;
  for (const auto& v : profile_pass_s[0]) profile_median_ms.push_back(Median(v) * 1e3);
  report->EndToEnd("latency_p50_ms", Median(profile_median_ms), "ms");
  rss.AddTo(report);

  report->Detail("setup_s", Median(setup_s), "s", setup_s.size());
  report->Detail("points_per_s", pts_per_s, "pts/s", measured_pass_s[0].size());
  report->Detail("measured.points_per_s", round_points_per_s(measured_pass_s),
                 "pts/s", measured_pass_s[0].size());
  report->Detail("compression_ratio", ratio, "fraction", 2 * num_profiles);
  ReportLatency(report, "pass", pass_ms, true);
  ReportReference(report, reference);

  if (!o.trace) return;
  const std::size_t traced_rounds = round_s[1].size();
  const double per_round = traced_rounds == 0 ? 0.0 : 1.0 / traced_rounds;
  const auto self = Tracer::SelfTimeByName(trace_since);
  const auto self_of = [&self](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  report->Layer("traj.parse_s", self_of("traj.parse") * per_round, "s");
  report->Layer("eval.verify_s", self_of("eval.verify") * per_round, "s");
  for (std::size_t p = 0; p < num_profiles; ++p) {
    const double pts =
        static_cast<double>(profile_points[p] * core_passes[p]);
    for (int a = 0; a < 2; ++a) {
      report->Layer(std::string(kCoreSpans[a]) + "." + in.profiles[p].name +
                        ".points_per_s",
                    core_s[p][a] > 0 ? pts / core_s[p][a] : 0.0, "pts/s");
    }
  }
  report->Layer("core.operb.ratio",
                static_cast<double>(points_out[0]) / round_points, "fraction");
  report->Layer("core.operb_a.ratio",
                static_cast<double>(points_out[1]) / round_points, "fraction");
  const double layers = self_of("traj.parse") + self_of("core.operb") +
                        self_of("core.operb_a") + self_of("eval.verify");
  double traced_wall = 0.0;
  for (const double s : round_s[1]) traced_wall += s;
  report->Layer("device.residual_s", (traced_wall - layers) * per_round, "s");
  report->Layer("trace.overhead_points_per_s",
                traced_rounds == 0
                    ? 0.0
                    : round_points_per_s(profile_pass_s[1]) - pts_per_s,
                "pts/s");
}

}  // namespace stackbench
