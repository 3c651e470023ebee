// Entry point of the stack benchmark. Usage:
//
//   stackbench --workload device|fleet_bulk|fleet_live --seed N
//              --seconds S --trace 0|1 --work-dir DIR [--smoke] [--tamper]
//
// Prints facts, per-workload detail metrics with sample counts, then the
// end-to-end metrics (--trace 0) or per-layer metrics (--trace 1) the
// workload measured, and as the last line the result object. run.py
// builds and runs it, and checks the result against BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace stackbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "stackbench: %s\nusage: stackbench --workload "
               "device|fleet_bulk|fleet_live --seed N --seconds S "
               "--trace 0|1 --work-dir DIR [--smoke] [--tamper]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--tamper") {
      o.tamper = true;
    } else if (!has_value) {
      return Usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      o.workload = argv[++i];
    } else if (a == "--seed") {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace") {
      o.trace = std::string(argv[++i]) == "1";
    } else if (a == "--work-dir") {
      o.work_dir = argv[++i];
    } else {
      return Usage(("unknown argument " + a).c_str());
    }
  }
  if (o.work_dir.empty() || !(o.seconds > 0)) {
    return Usage("--work-dir and a positive --seconds are required");
  }
  std::error_code ec;
  std::filesystem::create_directories(o.work_dir, ec);
  if (ec) return Usage(("cannot create work dir: " + ec.message()).c_str());

  Report report(o);
  report.Fact("seed", std::to_string(o.seed));
  report.Fact("compiler", __VERSION__);
  report.Fact("build_type", STACKBENCH_BUILD_TYPE);
  report.Fact("seconds", std::to_string(o.seconds));
  if (o.workload == "device") {
    RunDevice(o, &report);
  } else if (o.workload == "fleet_bulk") {
    RunFleetBulk(o, &report);
  } else if (o.workload == "fleet_live") {
    RunFleetLive(o, &report);
  } else {
    return Usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (o.trace) {
    const std::string path = o.work_dir + "/trace-" + o.workload + ".json";
    report.Fact("trace_file", Tracer::WriteChromeJson(path) ? path : "unwritable");
  }
  report.Print();
  return 0;
}

}  // namespace
}  // namespace stackbench

int main(int argc, char** argv) { return stackbench::Main(argc, argv); }
