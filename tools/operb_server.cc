// operb_server: long-running trajectory daemon (DESIGN.md §11).
//
// Owns a live StreamEngine (any registered algorithm spec) and a sealed
// trajectory store, accepts concurrent client connections over the
// length-prefixed TCP protocol (loopback only), ingests interleaved
// (id,t,x,y) streams, seals finished segments to the store in the
// background, and answers window / per-object / position-at-time
// queries with a read-your-writes merge of the sealed store and the
// in-flight per-object tails. `operb_cli --connect HOST:PORT` is the
// matching client.
//
// The daemon runs until SIGINT/SIGTERM or a client's --shutdown, then
// drains connections, checkpoints the engine (--checkpoint-out), seals
// everything to the store and writes a final metrics snapshot
// (--metrics-out).
//
// Exit codes: 0 clean shutdown, 2 usage error, 3 startup or shutdown
// I/O failure.

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/spec.h"
#include "server/server.h"

#include "flags.h"

namespace {

using namespace operb;  // NOLINT: single-file tool

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

volatile std::sig_atomic_t g_signal = 0;

void OnSignal(int sig) { g_signal = sig; }

/// The daemon's options: the server's own, plus where to listen.
struct DaemonOptions {
  server::ServerOptions server = [] {
    server::ServerOptions o;
    o.engine.num_threads = 2;
    o.engine.num_shards = 0;  // 0 = auto (4 * threads), resolved in main
    return o;
  }();
  std::uint64_t port = 0;
  std::string port_file;
};

std::vector<flags::Flag> DaemonFlags(DaemonOptions* d) {
  using flags::Integer;
  using flags::String;
  server::ServerOptions* o = &d->server;
  return {
      flags::Heading("Required:"),
      {"--store", "PATH", "store directory the daemon owns (created fresh)",
       0, String(&o->store_path)},
      flags::Heading("Optional:"),
      {"--port", "N", "TCP port on 127.0.0.1 (default 0 = ephemeral)", 0,
       Integer(&d->port, 0, 65535)},
      {"--port-file", "PATH", "write the bound port to PATH (atomic "
       "temp+rename;\nhow scripts find an ephemeral port)", 0,
       String(&d->port_file)},
      {"--spec", "SPEC", "simplifier spec, ALGORITHM[:key=value,...] "
       "(default\nOPERB:zeta=40; the spec's zeta is the store's zeta)", 0,
       flags::Spec(&o->engine.spec)},
      {"--threads", "N", "engine worker threads (default 2)", 0,
       Integer(&o->engine.num_threads, 1, 1024)},
      {"--shards", "N", "engine state-table shards (default 4 * threads)", 0,
       Integer(&o->engine.num_shards, 0, 65536)},
      {"--store-shards", "N", "store shard count (default 4)", 0,
       Integer(&o->store_shards, 1, 65536)},
      {"--ring-capacity", "N", "per-shard ring capacity (default 8192); the "
       "BUSY\nflow-control threshold is 75% of it", 0,
       Integer(&o->engine.ring_capacity, 1, 1u << 24)},
      {"--seal-interval", "SEC", "background seal period (default 0.5; 0 "
       "seals only\non demand and at shutdown)", 0,
       flags::Finite(&o->seal_interval_seconds,
                     "a non-negative number of seconds", 0.0)},
      {"--checkpoint-out", "PATH", "write a final engine checkpoint at "
       "shutdown", 0, String(&o->final_checkpoint_path)},
      {"--metrics-out", "PATH", "write a final metrics snapshot at shutdown",
       0, String(&o->final_metrics_path)},
  };
}

/// Atomic write of the bound port — readers either see nothing or a
/// complete port line, never a torn file (the smoke script polls it).
bool WritePortFile(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fprintf(f, "%u\n", static_cast<unsigned>(port)) > 0;
  if (std::fclose(f) != 0 || !ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  DaemonOptions daemon_options;
  server::ServerOptions& options = daemon_options.server;
  unsigned seen = 0;
  switch (flags::Parse("operb_server", DaemonFlags(&daemon_options), argc,
                       argv, &seen)) {
    case flags::Outcome::kHelp:
      flags::PrintUsage(stdout,
                        "operb_server — concurrent ingest+query trajectory "
                        "daemon (loopback TCP)",
                        DaemonFlags(&daemon_options));
      return kExitOk;
    case flags::Outcome::kUsageError:
      std::fprintf(stderr, "Run 'operb_server --help' for usage.\n");
      return kExitUsage;
    case flags::Outcome::kRun:
      break;
  }
  if (options.store_path.empty()) {
    std::fprintf(stderr, "operb_server: --store PATH is required\n");
    return kExitUsage;
  }
  if (options.engine.num_shards == 0) {
    options.engine.num_shards = 4 * options.engine.num_threads;
  }

  Result<std::unique_ptr<server::TrajectoryServer>> started =
      server::TrajectoryServer::Start(
          options, static_cast<std::uint16_t>(daemon_options.port));
  if (!started.ok()) {
    std::fprintf(stderr, "operb_server: %s\n",
                 started.status().ToString().c_str());
    return started.status().code() == StatusCode::kInvalidArgument
               ? kExitUsage
               : kExitIo;
  }
  server::TrajectoryServer& daemon = **started;

  const std::string& port_file = daemon_options.port_file;
  if (!port_file.empty() && !WritePortFile(port_file, daemon.port())) {
    std::fprintf(stderr, "operb_server: cannot write --port-file %s\n",
                 port_file.c_str());
    return kExitIo;
  }

  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  (void)sigaction(SIGINT, &sa, nullptr);
  (void)sigaction(SIGTERM, &sa, nullptr);

  std::printf("operb_server: listening on 127.0.0.1:%u  (store %s, spec "
              "%s, %llu thread(s), %llu shard(s))\n",
              static_cast<unsigned>(daemon.port()),
              options.store_path.c_str(),
              options.engine.spec.ToString().c_str(),
              static_cast<unsigned long long>(options.engine.num_threads),
              static_cast<unsigned long long>(options.engine.num_shards));
  std::fflush(stdout);

  // Wait for either a client's --shutdown verb or a signal. The sleep
  // keeps signal latency at ~50 ms without busy-waiting.
  while (g_signal == 0 && !daemon.ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  const char* why = g_signal == SIGINT    ? "SIGINT"
                    : g_signal == SIGTERM ? "SIGTERM"
                                          : "client shutdown";
  std::printf("operb_server: %s — draining and sealing\n", why);
  std::fflush(stdout);

  const Status stopped = daemon.Stop();
  if (!stopped.ok()) {
    std::fprintf(stderr, "operb_server: shutdown error: %s\n",
                 stopped.ToString().c_str());
    return kExitIo;
  }
  std::printf("operb_server: stopped cleanly\n");
  return kExitOk;
}
