// operb_cli: end-to-end command-line driver for the library, built on the
// public api:: facade (SimplifierSpec + AlgorithmRegistry + Pipeline).
//
// Reads a trajectory (plain x,y,t CSV, a GeoLife .plt file, or a synthetic
// dataset profile), simplifies it with any registered algorithm at a
// chosen error bound, independently verifies the bound, and prints
// compression-ratio / timing / error statistics. The simplified
// representation can be written back out as CSV for plotting.
//
// The simplifier is configured by a one-line spec string
// (ALGORITHM[:key=value,...], see README.md "Public API"); --algorithm,
// --zeta and --fidelity remain as sugar that edits the spec in place.
// All spec/flag validation surfaces as a one-line Status message and the
// usage exit code — bad input never aborts.
//
// With --group-by-id the input is a multi-object stream (`id,t,x,y` CSV
// rows, freely interleaved): every object is simplified independently by
// the sharded StreamEngine across --threads worker threads, output
// segments are tagged with their object id, and the bound is verified
// per object.
//
// With --store-out the simplified segments additionally stream into a
// sharded directory-based trajectory store (src/store: manifest +
// per-shard segment files, --store-shards N), which --query then serves
// without re-simplifying: per-object time-range reconstruction
// (--object [--from --to]), position-at-time (--object --at), and
// spatio-temporal window queries (--window) answered through a packed
// R-tree over per-block footer metadata (--flat-scan switches to the
// linear footer scan, the index's verification oracle). --compact PATH
// is the admin verb that merges each shard's segment files into one
// file of id-ordered seals (one manifest generation per shard).
//
// Examples:
//   operb_cli --input drive.csv --spec OPERB-A:zeta=30 --output out.csv
//   operb_cli --plt geolife/000/Trajectory/20081023025304.plt --zeta 10
//   operb_cli --generate SerCar:5000 --spec operb:zeta=40,fidelity=paper
//   operb_cli --group-by-id --input fleet.csv --threads 4 --output tagged.csv
//   operb_cli --group-by-id --generate Taxi:500 --objects 1000 --threads 8
//   operb_cli --group-by-id --generate Taxi:500 --store-out fleet.store
//             --store-shards 8   (one command line; wrapped here)
//   operb_cli --query fleet.store --object 3 --from 100 --to 900
//   operb_cli --query fleet.store --window 1000,2000,4000,5000
//   operb_cli --compact fleet.store
//
// Exit codes: 0 success (bound verified or --no-verify), 1 bound violation
// (or: --at time not covered by the store), 2 usage error, 3 I/O error.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/pipeline.h"
#include "api/registry.h"
#include "api/spec.h"
#include "api/store_query.h"
#include "datagen/profiles.h"
#include "datagen/rng.h"
#include "engine/stream_engine.h"
#include "eval/metrics.h"
#include "obs/snapshot.h"
#include "server/client.h"
#include "store/compactor.h"
#include "store/writer.h"
#include "traj/io.h"
#include "traj/multi_object.h"
#include "traj/trajectory.h"

#include "flags.h"

namespace {

using namespace operb;  // NOLINT: single-file tool

constexpr int kExitOk = 0;
constexpr int kExitBoundViolation = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

struct CliOptions {
  // Input: exactly one of csv_path / plt_path / generate.
  std::string csv_path;
  std::string plt_path;
  std::string generate_spec;  ///< KIND[:POINTS[:SEED]]

  api::SimplifierSpec spec;  ///< edited by --spec/--algorithm/--zeta/--fidelity

  // Multi-object engine mode (--group-by-id).
  bool group_by_id = false;
  std::uint64_t threads = 1;
  std::uint64_t shards = 0;   ///< 0 = auto (4 * threads)
  std::uint64_t objects = 8;  ///< synthetic object count for --generate

  std::string output_path;      ///< representation CSV (optional)
  std::string save_input_path;  ///< write the input trajectory as CSV
  std::string store_out_path;   ///< write a queryable segment store
  std::uint64_t store_shards = 1;  ///< shard count for --store-out

  // Engine checkpoint/restore (--group-by-id only).
  std::string checkpoint_out_path;   ///< snapshot engine state here
  std::uint64_t checkpoint_every = 0;  ///< 0 = once, after the last update
  std::string resume_path;           ///< restore engine state from here

  // Metrics export (--metrics-out; periodic cadence needs --group-by-id).
  std::string metrics_out_path;     ///< write a registry snapshot here
  std::uint64_t metrics_every = 0;  ///< 0 = once, after the run
  bool clean = false;           ///< repair raw streams before simplifying
  bool verify = true;
  double verify_slack = 1e-9;

  // Query mode (--query PATH): serves an existing store instead of
  // simplifying. Parsed into an api::StoreQuery, validated there.
  api::StoreQuery query;

  // Admin mode (--compact PATH): compacts an existing store in place.
  std::string compact_path;

  // Server client mode (--connect HOST:PORT): speaks the daemon
  // protocol instead of touching local stores. Reuses the input flags
  // for ingest and the query flags (without --query) for queries.
  std::string connect_spec;  ///< HOST:PORT
  bool finish_objects = false;      ///< FINISH every ingested object
  bool server_stats = false;        ///< print the daemon's STATS reply
  bool server_shutdown = false;     ///< ask the daemon to stop
  bool server_seal = false;         ///< force a seal now
  std::string server_checkpoint_path;  ///< server-side engine checkpoint
  std::string server_metrics_path;     ///< server-side metrics snapshot
};

// Flag groups: the bits of the mask flags::Parse() fills in, which the
// mode dispatch and the cross-flag rules below are written against.
enum Group : unsigned {
  kCsv = 1u << 0,
  kPlt = 1u << 1,
  kGenerate = 1u << 2,
  kSpec = 1u << 3,  ///< --spec/--algorithm/--zeta/--fidelity
  kGroupById = 1u << 4,
  kEngine = 1u << 5,  ///< --threads/--shards
  kObjects = 1u << 6,
  kStoreOut = 1u << 7,
  kStoreShards = 1u << 8,
  kCheckpointOut = 1u << 9,
  kCheckpointEvery = 1u << 10,
  kResume = 1u << 11,
  kMetricsOut = 1u << 12,
  kMetricsEvery = 1u << 13,
  kOutput = 1u << 14,
  kSaveInput = 1u << 15,
  kClean = 1u << 16,
  kNoVerify = 1u << 17,
  kQuery = 1u << 18,
  kQueryShape = 1u << 19,  ///< --from/--to/--window/--flat-scan
  kObject = 1u << 20,
  kAt = 1u << 21,
  kCompact = 1u << 22,
  kConnect = 1u << 23,
  kServerVerb = 1u << 24,  ///< the --connect-only companions
  kFinishObjects = 1u << 25,
};
constexpr unsigned kInputs = kCsv | kPlt | kGenerate;
constexpr unsigned kCheckpoint = kCheckpointOut | kCheckpointEvery | kResume;
constexpr unsigned kQueryFlags = kQueryShape | kObject | kAt;

/// The flag table: one row per flag, applied in argv order, so --spec
/// followed by --zeta still edits the spec.
std::vector<flags::Flag> CliFlags(CliOptions* o) {
  using flags::Finite;
  using flags::Heading;
  using flags::Integer;
  using flags::String;
  using flags::Switch;
  std::string algorithms;
  for (const std::string& name : api::AlgorithmRegistry::Global().Names()) {
    if (!algorithms.empty()) algorithms += " | ";
    algorithms += name;
  }
  return {
      Heading("Input (choose one; default --generate SerCar:2000:1):"),
      {"--input", "PATH", "plain CSV trajectory: x,y,t rows in projected "
       "meters", kCsv, String(&o->csv_path)},
      {"--plt", "PATH", "GeoLife .plt trajectory (lat/lon, projected to "
       "local meters)", kPlt, String(&o->plt_path)},
      {"--generate", "SPEC", "synthetic profile KIND[:POINTS[:SEED]], KIND "
       "one of\nTaxi | Truck | SerCar | GeoLife", kGenerate,
       String(&o->generate_spec)},

      Heading("Simplification (see README.md \"Public API\" for the spec "
              "grammar):"),
      {"--spec", "SPEC", "ALGORITHM[:key=value,...], e.g. "
       "'operb-a:zeta=30'\nor 'OPERB:zeta=5,fidelity=paper' (default "
       "OPERB:zeta=40)", kSpec, flags::Spec(&o->spec)},
      {"--algorithm", "NAME", "shorthand: sets the spec's algorithm. "
       "Registered:\n" + algorithms, kSpec, String(&o->spec.algorithm)},
      {"--zeta", "METERS", "shorthand: sets the spec's error bound (> 0)",
       kSpec, Finite(&o->spec.zeta, "a number")},
      {"--fidelity", "MODE", "shorthand: guarded | paper — how the OPERB "
       "family\ntreats the heuristic optimizations' bound (see DESIGN.md)",
       kSpec,
       [o](std::string_view flag, const char* value) -> std::string {
         const std::string_view mode = value;
         if (mode == "guarded") {
           o->spec.fidelity = baselines::OperbFidelity::kGuarded;
         } else if (mode == "paper") {
           o->spec.fidelity = baselines::OperbFidelity::kPaperFaithful;
         } else {
           return flags::MustBe(flag, "'guarded' or 'paper'", value);
         }
         return {};
       }},

      // Tight ceilings on the engine knobs, so a typo fails as a usage
      // error, not as a massive allocation or thread spawn (every shard
      // owns a pre-sized ring; every thread is a real std::thread).
      Heading("Multi-object engine mode:"),
      {"--group-by-id", "", "treat the input as an interleaved id,t,x,y "
       "stream and\nsimplify every object concurrently (StreamEngine)",
       kGroupById, Switch(&o->group_by_id)},
      {"--threads", "N", "engine worker threads (default 1; requires\n"
       "--group-by-id)", kEngine, Integer(&o->threads, 1, 1024)},
      {"--shards", "N", "engine state-table shards (default 4 * threads;\n"
       "requires --group-by-id)", kEngine, Integer(&o->shards, 0, 65536)},
      {"--objects", "K", "with --generate: synthesize K objects, "
       "round-robin\ninterleaved (default 8; requires --group-by-id or\n"
       "--connect)", kObjects, Integer(&o->objects, 1, 10'000'000)},

      // Same typo ceiling on both cadences: a wrapped or absurd cadence
      // fails as a usage error.
      Heading("Checkpoint/restore (engine mode, requires --group-by-id):"),
      {"--checkpoint-out", "PATH", "snapshot the engine's complete "
       "streaming state to\nPATH (atomic temp-file + rename) after the "
       "last\nupdate — or repeatedly, with --checkpoint-every",
       kCheckpointOut, String(&o->checkpoint_out_path)},
      {"--checkpoint-every", "N", "rewrite the checkpoint after every N "
       "ingested\nupdates (requires --checkpoint-out)", kCheckpointEvery,
       Integer(&o->checkpoint_every, 1, 1'000'000'000)},
      {"--resume", "PATH", "restore the engine from a checkpoint and feed "
       "it the\nstream's *remainder*; the emitted segments are\n"
       "bit-identical to the uninterrupted run's tail. The\nspec and shard "
       "count must match the checkpoint.\nImplies --no-verify "
       "(verification needs the full\nstream); excludes --clean",
       kResume, String(&o->resume_path)},

      Heading("Store (write side):"),
      {"--store-out", "PATH", "additionally persist the simplified "
       "segments into a\nsharded queryable store directory (both modes;\n"
       "single-trajectory input is stored as object 0)", kStoreOut,
       String(&o->store_out_path)},
      // Same ceiling as the writer's own StoreWriterOptions::Validate();
      // rejecting here keeps the error a one-line usage message.
      {"--store-shards", "N", "partition the store into N shards by "
       "object-id hash\n(1..65536, default 1; requires --store-out)",
       kStoreShards, Integer(&o->store_shards, 1, 65536)},

      Heading("Store (query mode; excludes every simplification flag):"),
      {"--query", "PATH", "serve an existing store instead of simplifying",
       kQuery, String(&o->query.store_path)},
      {"--object", "ID", "reconstruct one object's segments", kObject,
       Integer(&o->query.object_id, 0,
               std::numeric_limits<std::uint64_t>::max(), "an unsigned id")},
      {"--from", "T", "start of the time range (seconds)",
       kQueryShape, Finite(&o->query.t_min, "a finite timestamp")},
      {"--to", "T", "end of the time range (seconds)",
       kQueryShape, Finite(&o->query.t_max, "a finite timestamp")},
      {"--at", "T", "with --object: interpolated position at time T", kAt,
       Finite(&o->query.at_time, "a finite timestamp")},
      {"--window", "X0,Y0,X1,Y1", "spatio-temporal window query (meters; "
       "the window\nis inflated by the store's zeta so no original\nsample "
       "inside it can be missed)", kQueryShape,
       [o](std::string_view flag, const char* value) -> std::string {
         const std::string text = value;
         double c[4] = {};
         std::size_t start = 0;
         for (int k = 0; k < 4; ++k) {
           const std::size_t end =
               k == 3 ? text.size() : text.find(',', start);
           if (end == std::string::npos ||
               !flags::ParseFinite(text.substr(start, end - start).c_str(),
                                   &c[k])) {
             return flags::MustBe(
                 flag, "X0,Y0,X1,Y1 (four comma-separated meters)", value);
           }
           start = end + 1;
         }
         // Corner order is free; the box normalizes it.
         o->query.has_window = true;
         o->query.window = {};
         o->query.window.Extend(geo::Vec2{c[0], c[1]});
         o->query.window.Extend(geo::Vec2{c[2], c[3]});
         return {};
       }},
      {"--flat-scan", "", "answer --window with the linear footer scan "
       "instead\nof the R-tree index (the verify oracle; results are\n"
       "identical, only pruning work differs)", kQueryShape,
       Switch(&o->query.use_flat_scan)},

      Heading("Store (admin mode; excludes every other flag):"),
      {"--compact", "PATH", "merge each shard's segment files into one "
       "file\nof id-ordered seals, one manifest generation per\nshard; "
       "queries return byte-identical results", kCompact,
       String(&o->compact_path)},

      Heading("Output:"),
      {"--output", "PATH", "write the piecewise representation as CSV "
       "(with\n--group-by-id or --query: id-tagged segment rows)", kOutput,
       String(&o->output_path)},
      {"--save-input", "PATH", "write the (parsed or generated) input "
       "trajectory as CSV", kSaveInput, String(&o->save_input_path)},
      {"--clean", "", "repair raw streams before simplifying (drop "
       "duplicate and\nout-of-order samples; per object with "
       "--group-by-id)", kClean, Switch(&o->clean)},
      {"--no-verify", "", "skip the independent error-bound check",
       kNoVerify, Switch(&o->verify, false)},

      Heading("Observability (see DESIGN.md \"Metrics and tracing\"):"),
      {"--metrics-out", "PATH", "export a metrics snapshot (every "
       "engine/store/pipeline\nregistry instrument, versioned JSON, atomic "
       "temp-file +\nrename) to PATH after the run; also works with "
       "--query", kMetricsOut, String(&o->metrics_out_path)},
      {"--metrics-every", "N", "additionally rewrite the snapshot after "
       "every N ingested\nupdates (requires --metrics-out and "
       "--group-by-id; a\nfailed periodic write is logged and counted, "
       "never fatal)", kMetricsEvery,
       Integer(&o->metrics_every, 1, 1'000'000'000)},

      Heading("Server client mode (speaks to a running operb_server):"),
      {"--connect", "HOST:PORT", "connect to a daemon instead of touching "
       "local stores.\n--input/--generate/--objects then ingest over the\n"
       "connection; --object/--from/--to/--at/--window/\n--flat-scan/"
       "--output query it (the answer merges the\nsealed store with "
       "in-flight trajectory tails)", kConnect, String(&o->connect_spec)},
      {"--finish-objects", "", "declare end-of-stream for every ingested "
       "object", kServerVerb | kFinishObjects, Switch(&o->finish_objects)},
      {"--server-seal", "", "force the daemon to seal the overlay to its "
       "store", kServerVerb, Switch(&o->server_seal)},
      {"--server-checkpoint", "PATH", "daemon writes an engine checkpoint "
       "to PATH", kServerVerb, String(&o->server_checkpoint_path)},
      {"--server-metrics", "PATH", "daemon writes a metrics snapshot to "
       "PATH", kServerVerb, String(&o->server_metrics_path)},
      {"--stats", "", "print the daemon's counters", kServerVerb,
       Switch(&o->server_stats)},
      {"--shutdown", "", "ask the daemon to stop gracefully", kServerVerb,
       Switch(&o->server_shutdown)},
  };
}

void PrintUsage(std::FILE* out) {
  CliOptions unused;
  flags::PrintUsage(out,
                    "operb_cli — one-pass error-bounded trajectory "
                    "simplification (OPERB, PVLDB 2017)",
                    CliFlags(&unused));
}

/// A cross-flag rule: once any `when` group is seen, no `forbids` group
/// may be, and at least one `needs` group must be (when `needs` is set).
struct Rule {
  unsigned when;
  unsigned forbids;
  unsigned needs;
  const char* message;
};

constexpr Rule kRules[] = {
    // Client mode talks to a daemon, which owns the spec, the engine and
    // the store. Ingest input and query flags pass through.
    {kConnect,
     kCompact | kQuery | kStoreOut | kStoreShards | kGroupById | kClean |
         kSpec | kEngine | kNoVerify | kCheckpoint | kMetricsEvery | kPlt |
         kSaveInput,
     0,
     "--connect speaks to a running operb_server and cannot be combined "
     "with local store, simplification or engine flags"},
    {kServerVerb, 0, kConnect,
     "--finish-objects/--stats/--shutdown/--server-seal/--server-checkpoint"
     "/--server-metrics require --connect HOST:PORT"},
    {kFinishObjects, 0, kCsv | kGenerate,
     "--finish-objects finishes the objects this invocation ingests; give "
     "--input or --generate"},
    // Admin verb: it rewrites an existing store in place.
    {kCompact, ~unsigned{kCompact}, 0,
     "--compact is an exclusive admin verb and cannot be combined with any "
     "other flag"},
    // Query mode serves an existing store: nothing is ingested, simplified
    // or verified, so every write-side flag is a contradiction, not a
    // no-op. (--metrics-out stays legal: the snapshot then carries the
    // store.query.* instruments this query just exercised.)
    {kQuery,
     kInputs | kStoreOut | kStoreShards | kGroupById | kClean | kSpec |
         kEngine | kObjects | kNoVerify | kCheckpoint | kMetricsEvery |
         kSaveInput,
     0,
     "--query serves an existing store and cannot be combined with input, "
     "simplification, engine or --store-out flags"},
    {kQueryFlags, 0, kQuery | kConnect,
     "--object/--from/--to/--at/--window/--flat-scan require --query PATH"},
    {kStoreShards, 0, kStoreOut,
     "--store-shards shards a store written by --store-out PATH"},
    // The checkpoint is of StreamEngine shard state; the single-trajectory
    // flow never constructs an engine.
    {kCheckpoint, 0, kGroupById,
     "--checkpoint-out/--checkpoint-every/--resume snapshot the streaming "
     "engine and require --group-by-id"},
    {kCheckpointEvery, 0, kCheckpointOut,
     "--checkpoint-every sets the cadence of --checkpoint-out PATH"},
    {kMetricsEvery, 0, kMetricsOut,
     "--metrics-every sets the cadence of --metrics-out PATH"},
    // Periodic snapshots ride the engine path's chunked ingest loop; the
    // single-trajectory flow pushes everything at once.
    {kMetricsEvery, 0, kGroupById,
     "--metrics-every requires --group-by-id (the final --metrics-out "
     "snapshot works in every mode)"},
    {kEngine, 0, kGroupById,
     "--threads/--shards configure the streaming engine and require "
     "--group-by-id"},
    {kObjects, 0, kGroupById | kConnect,
     "--objects sets how many objects --generate synthesizes and requires "
     "--group-by-id or --connect"},
    {kResume, kClean, 0,
     "--resume feeds the engine a stream tail and cannot be combined with "
     "--clean (cleaner state is not part of a checkpoint)"},
    {kGroupById, kPlt, 0,
     "--plt is single-trajectory; --group-by-id needs --input (id,t,x,y "
     "CSV) or --generate"},
};

/// Parses argv into `options` and the mask of groups `seen`, then checks
/// the cross-flag rules. Prints one line to stderr on a usage error.
flags::Outcome ParseArgs(int argc, char** argv, CliOptions* options,
                         unsigned* seen) {
  const flags::Outcome outcome =
      flags::Parse("operb_cli", CliFlags(options), argc, argv, seen);
  if (outcome != flags::Outcome::kRun) return outcome;
  const auto fail = [](const char* message) {
    std::fprintf(stderr, "operb_cli: %s\n", message);
    return flags::Outcome::kUsageError;
  };
  for (const Rule& rule : kRules) {
    if ((*seen & rule.when) != 0 &&
        ((*seen & rule.forbids) != 0 ||
         (rule.needs != 0 && (*seen & rule.needs) == 0))) {
      return fail(rule.message);
    }
  }
  api::StoreQuery& query = options->query;
  query.has_object = (*seen & kObject) != 0;
  query.has_at = (*seen & kAt) != 0;
  if (*seen & kConnect) {
    // Same shape rules api::StoreQuery::Validate enforces offline, so
    // the two paths share one usage contract (and exit code).
    if (query.has_at && !query.has_object) {
      return fail("--at needs --object (position-at-time)");
    }
    if (query.has_object && query.has_window) {
      return fail("--object and --window are separate queries; issue two");
    }
    if (query.t_min > query.t_max) return fail("--from is later than --to");
    return flags::Outcome::kRun;
  }
  // The query shape itself is validated by api::StoreQuery.
  if (*seen & (kCompact | kQuery)) return flags::Outcome::kRun;

  // Verification needs the full original stream; a resumed run only has
  // the tail, so the check is skipped rather than mis-run.
  if (*seen & kResume) options->verify = false;
  const int inputs = (options->csv_path.empty() ? 0 : 1) +
                     (options->plt_path.empty() ? 0 : 1) +
                     (options->generate_spec.empty() ? 0 : 1);
  if (inputs > 1) {
    return fail("--input, --plt and --generate are mutually exclusive");
  }
  if (inputs == 0) options->generate_spec = "SerCar:2000:1";
  // The boundary validation: unknown algorithms, non-positive zeta and
  // out-of-range algorithm options all surface here as one Status line.
  if (const Status s = options->spec.Validate(); !s.ok()) {
    return fail(s.ToString().c_str());
  }
  return flags::Outcome::kRun;
}

std::optional<datagen::DatasetKind> ParseDatasetKind(std::string_view name) {
  for (datagen::DatasetKind kind : datagen::AllDatasetKinds()) {
    if (name == datagen::DatasetName(kind)) return kind;
  }
  return std::nullopt;
}

/// Parsed form of a --generate KIND[:POINTS[:SEED]] spec.
struct GenerateSpec {
  datagen::DatasetKind kind = datagen::DatasetKind::kSerCar;
  std::uint64_t points = 2000;
  std::uint64_t seed = 1;
};

/// Parses KIND[:POINTS[:SEED]]; prints to stderr and returns nullopt on
/// malformed specs.
std::optional<GenerateSpec> ParseGenerateSpec(const std::string& spec) {
  // Generous ceiling so a typo'd point count fails as a usage error
  // instead of a multi-gigabyte allocation.
  constexpr std::uint64_t kMaxGeneratedPoints = 100'000'000;

  GenerateSpec out;
  std::string kind_name = spec;

  const std::size_t colon1 = spec.find(':');
  if (colon1 != std::string::npos) {
    kind_name = spec.substr(0, colon1);
    const std::string rest = spec.substr(colon1 + 1);
    const std::size_t colon2 = rest.find(':');
    const std::string points_str =
        colon2 == std::string::npos ? rest : rest.substr(0, colon2);
    if (!flags::ParseDecimal(points_str, &out.points) || out.points < 2 ||
        out.points > kMaxGeneratedPoints) {
      std::fprintf(stderr,
                   "operb_cli: bad point count in --generate '%s' (need "
                   "2..%llu)\n",
                   spec.c_str(),
                   static_cast<unsigned long long>(kMaxGeneratedPoints));
      return std::nullopt;
    }
    if (colon2 != std::string::npos) {
      if (!flags::ParseDecimal(rest.substr(colon2 + 1), &out.seed)) {
        std::fprintf(stderr, "operb_cli: bad seed in --generate '%s'\n",
                     spec.c_str());
        return std::nullopt;
      }
    }
  }

  const auto kind = ParseDatasetKind(kind_name);
  if (!kind) {
    std::fprintf(stderr,
                 "operb_cli: unknown dataset kind '%s' (expected Taxi, "
                 "Truck, SerCar or GeoLife)\n",
                 kind_name.c_str());
    return std::nullopt;
  }
  out.kind = *kind;
  return out;
}

std::optional<traj::Trajectory> GenerateFromSpec(const std::string& spec) {
  const std::optional<GenerateSpec> parsed = ParseGenerateSpec(spec);
  if (!parsed) return std::nullopt;
  datagen::Rng rng(parsed->seed);
  return datagen::GenerateTrajectory(datagen::DatasetProfile::For(parsed->kind),
                                     parsed->points, &rng);
}

/// Loads or synthesizes the interleaved multi-object update stream.
std::optional<std::vector<traj::ObjectUpdate>> LoadUpdates(
    const CliOptions& options, std::string* source_label, int* error_exit) {
  *error_exit = kExitUsage;
  if (!options.csv_path.empty()) {
    *source_label = "multi-object csv " + options.csv_path;
    Result<std::vector<traj::ObjectUpdate>> r =
        traj::ReadMultiObjectCsv(options.csv_path);
    if (!r.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", r.status().ToString().c_str());
      *error_exit = kExitIo;
      return std::nullopt;
    }
    return std::move(r).value();
  }
  const std::optional<GenerateSpec> spec =
      ParseGenerateSpec(options.generate_spec);
  if (!spec) return std::nullopt;
  // Same typo guard as the per-trajectory ceiling in ParseGenerateSpec,
  // applied to the objects x points total.
  constexpr std::uint64_t kMaxTotalPoints = 100'000'000;
  if (options.objects > kMaxTotalPoints / spec->points) {
    std::fprintf(stderr,
                 "operb_cli: --objects %llu x %llu points exceeds the "
                 "%llu-point generation ceiling\n",
                 static_cast<unsigned long long>(options.objects),
                 static_cast<unsigned long long>(spec->points),
                 static_cast<unsigned long long>(kMaxTotalPoints));
    return std::nullopt;
  }
  *source_label = "generated " + options.generate_spec + " x" +
                  std::to_string(options.objects) + " objects";
  std::vector<traj::ObjectTrajectory> objects;
  objects.reserve(options.objects);
  for (std::uint64_t k = 0; k < options.objects; ++k) {
    datagen::Rng rng(spec->seed + k);
    objects.push_back(
        {k, datagen::GenerateTrajectory(datagen::DatasetProfile::For(spec->kind),
                                        spec->points, &rng)});
  }
  return traj::InterleaveRoundRobin(objects);
}

/// Prints the WriteStore-stage summary line of a pipeline report.
void PrintStoreLine(const api::PipelineReport& report,
                    std::uint64_t store_shards) {
  if (!report.store_ran) return;
  std::printf("store:     %s  (%llu blocks, %llu bytes, %llu shard(s), "
              "write amp %.3f)\n",
              report.store_path.c_str(),
              static_cast<unsigned long long>(report.store_stats.blocks),
              static_cast<unsigned long long>(report.store_stats.file_bytes),
              static_cast<unsigned long long>(store_shards),
              report.store_stats.write_amplification);
}

/// Prints the MetricsSnapshots-stage summary line of a pipeline report.
void PrintMetricsLine(const api::PipelineReport& report) {
  if (!report.metrics_ran) return;
  std::printf("metrics:   %s  (%zu snapshot(s) written, %zu failure(s))\n",
              report.metrics_path.c_str(), report.snapshots_written,
              report.snapshot_failures);
}

/// Writes the final --metrics-out snapshot for the modes that do not run
/// the Pipeline facade (query mode). Returns the exit code to use.
int WriteFinalMetricsSnapshot(const CliOptions& options, int exit_code) {
  if (options.metrics_out_path.empty() || exit_code == kExitUsage) {
    return exit_code;
  }
  if (const Status s = obs::WriteSnapshotJson(options.metrics_out_path);
      !s.ok()) {
    std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
    return kExitIo;
  }
  std::printf("metrics:   %s  (1 snapshot(s) written, 0 failure(s))\n",
              options.metrics_out_path.c_str());
  return exit_code;
}

/// The --query flow: open the store, run one query, print the matched
/// segments and the skip-scan evidence.
int RunQuery(const CliOptions& options) {
  Result<api::StoreQueryReport> run = api::RunStoreQuery(options.query);
  if (!run.ok()) {
    std::fprintf(stderr, "operb_cli: %s\n",
                 run.status().ToString().c_str());
    switch (run.status().code()) {
      case StatusCode::kIOError:
      case StatusCode::kCorruption:
        return kExitIo;
      case StatusCode::kNotFound:
        // --at outside the object's stored time span: a data answer
        // ("not there"), not a usage mistake.
        return kExitBoundViolation;
      default:
        return kExitUsage;
    }
  }
  const api::StoreQueryReport& report = *run;
  std::printf("store:     %s  (%zu blocks, %llu segments, zeta %g m, "
              "%zu shard(s), %zu file(s), generation %llu%s)\n",
              options.query.store_path.c_str(), report.store_blocks,
              static_cast<unsigned long long>(report.store_segments),
              report.zeta, report.store_shards, report.store_files,
              static_cast<unsigned long long>(report.store_generation),
              report.tail_dropped ? ", torn tail dropped" : "");
  const store::StoreQueryStats& stats = report.stats;
  std::printf("scan:      skipped %llu of %llu blocks on footer metadata, "
              "decoded %llu segments  (%.3f ms)\n",
              static_cast<unsigned long long>(stats.blocks_skipped),
              static_cast<unsigned long long>(stats.blocks_total),
              static_cast<unsigned long long>(stats.segments_scanned),
              report.seconds * 1e3);
  if (options.query.has_window) {
    if (options.query.use_flat_scan) {
      std::printf("index:     flat footer scan (oracle mode), %zu R-tree "
                  "nodes unused\n",
                  report.index_nodes);
    } else {
      std::printf("index:     R-tree visited %llu of %zu nodes\n",
                  static_cast<unsigned long long>(stats.index_nodes_visited),
                  report.index_nodes);
    }
  }
  if (report.has_position) {
    std::printf("position:  %.3f, %.3f at t=%g  (on the stored segment; "
                "covered samples stay within zeta %g m of its line)\n",
                report.position.x, report.position.y,
                options.query.at_time, report.zeta);
    return kExitOk;
  }
  std::printf("matched:   %llu segment(s)\n",
              static_cast<unsigned long long>(stats.segments_matched));
  if (!options.output_path.empty()) {
    std::vector<traj::TaggedSegment> tagged;
    tagged.reserve(report.segments.size());
    for (const traj::TimedSegment& s : report.segments) {
      tagged.push_back({s.object_id, s.segment});
    }
    if (const Status s = traj::WriteTaggedSegmentsCsv(
            std::span<const traj::TaggedSegment>(tagged),
            options.output_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return kExitIo;
    }
    std::printf("wrote:     %s\n", options.output_path.c_str());
  }
  return kExitOk;
}

/// Maps a Status from the server onto the CLI exit-code contract —
/// the same mapping RunQuery applies to offline query failures.
int ServerStatusExit(const Status& s) {
  switch (s.code()) {
    case StatusCode::kIOError:
    case StatusCode::kCorruption:
      return kExitIo;
    case StatusCode::kNotFound:
      return kExitBoundViolation;
    default:
      return kExitUsage;
  }
}

/// The --connect client flow: ingest, admin verbs, one query, stats,
/// shutdown — in that order, over one connection. Query answers are
/// written with the same CSV path as the offline --query flow, which is
/// what makes the two byte-comparable.
int RunConnect(const CliOptions& options) {
  const std::size_t colon = options.connect_spec.rfind(':');
  std::uint64_t port = 0;
  if (colon == std::string::npos || colon == 0 ||
      !flags::ParseDecimal(options.connect_spec.substr(colon + 1), &port) ||
      port == 0 || port > 65535) {
    std::fprintf(stderr,
                 "operb_cli: --connect expects HOST:PORT, got '%s'\n",
                 options.connect_spec.c_str());
    return kExitUsage;
  }
  const std::string host = options.connect_spec.substr(0, colon);
  Result<server::Client> client =
      server::Client::Connect(host, static_cast<std::uint16_t>(port));
  if (!client.ok()) {
    std::fprintf(stderr, "operb_cli: %s\n",
                 client.status().ToString().c_str());
    return kExitIo;
  }
  std::printf("connected: %s\n", options.connect_spec.c_str());

  if (!options.csv_path.empty() || !options.generate_spec.empty()) {
    std::string source_label;
    int error_exit = kExitUsage;
    std::optional<std::vector<traj::ObjectUpdate>> updates =
        LoadUpdates(options, &source_label, &error_exit);
    if (!updates) return error_exit;
    // Batched so the daemon's per-request flow control (BUSY + retry,
    // handled inside Client::Ingest) sees bounded requests.
    constexpr std::size_t kIngestBatch = 512;
    const std::span<const traj::ObjectUpdate> all(*updates);
    for (std::size_t i = 0; i < all.size(); i += kIngestBatch) {
      const std::size_t n = std::min(kIngestBatch, all.size() - i);
      if (const Status s = client->Ingest(all.subspan(i, n)); !s.ok()) {
        std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
        return kExitIo;
      }
    }
    std::printf("ingested:  %zu point(s) from %s\n", updates->size(),
                source_label.c_str());
    if (options.finish_objects) {
      std::vector<traj::ObjectId> ids;
      ids.reserve(options.objects);
      for (const traj::ObjectUpdate& u : *updates) ids.push_back(u.object_id);
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      for (const traj::ObjectId id : ids) {
        if (const Status s = client->FinishObject(id); !s.ok()) {
          std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
          return kExitIo;
        }
      }
      std::printf("finished:  %zu object(s)\n", ids.size());
    }
  }

  if (options.server_seal) {
    Result<std::uint64_t> sealed = client->Seal();
    if (!sealed.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n",
                   sealed.status().ToString().c_str());
      return ServerStatusExit(sealed.status());
    }
    std::printf("sealed:    %llu segment(s) now in the daemon's store\n",
                static_cast<unsigned long long>(*sealed));
  }
  if (!options.server_checkpoint_path.empty()) {
    if (const Status s = client->Checkpoint(options.server_checkpoint_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return ServerStatusExit(s);
    }
    std::printf("checkpoint: %s  (written server-side)\n",
                options.server_checkpoint_path.c_str());
  }
  if (!options.server_metrics_path.empty()) {
    if (const Status s =
            client->MetricsSnapshot(options.server_metrics_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return ServerStatusExit(s);
    }
    std::printf("metrics:   %s  (written server-side)\n",
                options.server_metrics_path.c_str());
  }

  if (options.query.has_at) {
    Result<geo::Point> p =
        client->PositionAt(options.query.object_id, options.query.at_time);
    if (!p.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", p.status().ToString().c_str());
      return ServerStatusExit(p.status());
    }
    std::printf("position:  %.3f, %.3f at t=%g  (server merge of the "
                "sealed store and the in-flight tail)\n",
                p->x, p->y, options.query.at_time);
  } else if (options.query.has_object || options.query.has_window) {
    Result<std::vector<traj::TimedSegment>> r =
        options.query.has_object
            ? client->QueryObject(options.query.object_id,
                                  options.query.t_min, options.query.t_max)
            : client->QueryWindow(options.query.window, options.query.t_min,
                                  options.query.t_max,
                                  options.query.use_flat_scan);
    if (!r.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", r.status().ToString().c_str());
      return ServerStatusExit(r.status());
    }
    std::printf("matched:   %zu segment(s)\n", r->size());
    if (!options.output_path.empty()) {
      // Byte-for-byte the offline RunQuery output path: id-tagged
      // segment rows through traj::WriteTaggedSegmentsCsv.
      std::vector<traj::TaggedSegment> tagged;
      tagged.reserve(r->size());
      for (const traj::TimedSegment& s : *r) {
        tagged.push_back({s.object_id, s.segment});
      }
      if (const Status s = traj::WriteTaggedSegmentsCsv(
              std::span<const traj::TaggedSegment>(tagged),
              options.output_path);
          !s.ok()) {
        std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
        return kExitIo;
      }
      std::printf("wrote:     %s\n", options.output_path.c_str());
    }
  }

  if (options.server_stats) {
    Result<server::StatsBody> stats = client->Stats();
    if (!stats.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n",
                   stats.status().ToString().c_str());
      return kExitIo;
    }
    std::printf("stats:     %llu live object(s), %llu point(s) ingested, "
                "%llu segment(s) emitted, %llu sealed, %llu busy "
                "reject(s), %llu seal(s), %llu connection(s)\n",
                static_cast<unsigned long long>(stats->live_objects),
                static_cast<unsigned long long>(stats->ingest_points),
                static_cast<unsigned long long>(stats->segments_emitted),
                static_cast<unsigned long long>(stats->sealed_segments),
                static_cast<unsigned long long>(stats->backpressure_rejects),
                static_cast<unsigned long long>(stats->seals),
                static_cast<unsigned long long>(stats->connections));
  }
  if (options.server_shutdown) {
    if (const Status s = client->Shutdown(); !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return kExitIo;
    }
    std::printf("shutdown:  requested\n");
  }
  return kExitOk;
}

/// The --compact admin flow: one full compaction pass over an existing
/// store (GC orphans, merge every shard that needs it), printing what
/// changed.
int RunCompact(const CliOptions& options) {
  store::Compactor compactor(options.compact_path);
  Result<store::CompactionStats> run = compactor.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "operb_cli: %s\n",
                 run.status().ToString().c_str());
    switch (run.status().code()) {
      case StatusCode::kIOError:
      case StatusCode::kCorruption:
        return kExitIo;
      default:
        return kExitUsage;
    }
  }
  const store::CompactionStats& stats = *run;
  std::printf("compacted: %s  (%llu of %llu shard(s), %llu generation(s) "
              "committed)\n",
              options.compact_path.c_str(),
              static_cast<unsigned long long>(stats.shards_compacted),
              static_cast<unsigned long long>(stats.shards_examined),
              static_cast<unsigned long long>(stats.generations_committed));
  std::printf("merged:    %llu -> %llu file(s), %llu -> %llu block(s), "
              "%llu segment(s) rewritten\n",
              static_cast<unsigned long long>(stats.files_before),
              static_cast<unsigned long long>(stats.files_after),
              static_cast<unsigned long long>(stats.blocks_before),
              static_cast<unsigned long long>(stats.blocks_after),
              static_cast<unsigned long long>(stats.segments_rewritten));
  std::printf("io:        read %llu bytes, wrote %llu bytes (write amp "
              "%.3f), %llu orphan(s) removed\n",
              static_cast<unsigned long long>(stats.bytes_read),
              static_cast<unsigned long long>(stats.bytes_written),
              stats.write_amplification,
              static_cast<unsigned long long>(stats.orphans_removed));
  return kExitOk;
}

/// The --group-by-id flow, composed on the Pipeline facade: interleaved
/// updates -> StreamEngine -> id-tagged segments, with per-object bound
/// verification.
int RunGroupById(const CliOptions& options) {
  std::string source_label;
  int error_exit = kExitUsage;
  std::optional<std::vector<traj::ObjectUpdate>> updates =
      LoadUpdates(options, &source_label, &error_exit);
  if (!updates) return error_exit;
  if (updates->empty()) {
    std::fprintf(stderr, "operb_cli: input stream has no updates\n");
    return kExitUsage;
  }
  const std::size_t total_points = updates->size();

  if (!options.save_input_path.empty()) {
    if (const Status s = traj::WriteMultiObjectCsv(
            std::span<const traj::ObjectUpdate>(*updates),
            options.save_input_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return kExitIo;
    }
  }

  engine::StreamEngineOptions eopts;
  eopts.num_threads = static_cast<std::size_t>(options.threads);
  eopts.num_shards = static_cast<std::size_t>(
      options.shards != 0 ? options.shards : 4 * options.threads);

  api::Pipeline::Builder builder;
  builder.FromUpdates(std::move(*updates))
      .Simplify(options.spec)
      .Engine(eopts);
  if (options.clean) builder.Clean();
  if (options.verify) builder.Verify(options.verify_slack);
  if (!options.store_out_path.empty()) {
    store::StoreWriterOptions store_options;
    store_options.num_shards = static_cast<std::size_t>(options.store_shards);
    builder.WriteStore(options.store_out_path, store_options);
  }
  if (!options.checkpoint_out_path.empty()) {
    builder.Checkpoint(options.checkpoint_out_path,
                       static_cast<std::size_t>(options.checkpoint_every));
  }
  if (!options.metrics_out_path.empty()) {
    builder.MetricsSnapshots(options.metrics_out_path,
                             static_cast<std::size_t>(options.metrics_every));
  }
  if (!options.resume_path.empty()) builder.ResumeFrom(options.resume_path);
  Result<api::Pipeline> pipeline = builder.Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "operb_cli: %s\n",
                 pipeline.status().ToString().c_str());
    return kExitUsage;
  }
  Result<api::PipelineReport> run = pipeline->Run();
  if (!run.ok()) {
    // Data errors (non-monotone per-object timestamps, corrupt rows,
    // unwritable store, a damaged or mismatched checkpoint) surface
    // here; configuration was already validated.
    std::fprintf(stderr, "operb_cli: %s%s\n",
                 run.status().ToString().c_str(),
                 options.clean ? "" : " (try --clean)");
    return run.status().code() == StatusCode::kIOError ? kExitIo
                                                       : kExitUsage;
  }
  const api::PipelineReport& report = *run;
  const engine::StreamEngineStats& stats = report.engine_stats;

  const double elapsed_ms = report.simplify_seconds * 1e3;
  const double ns_per_point = elapsed_ms * 1e6 / total_points;
  std::printf("input:     %zu updates from %zu objects  (%s)\n", total_points,
              report.objects, source_label.c_str());
  if (options.clean) {
    std::printf("cleaned:   kept %zu of %zu (%zu duplicate, %zu "
                "out-of-order)\n",
                report.points_kept, report.points_in,
                report.cleaner.duplicates_dropped,
                report.cleaner.out_of_order_dropped);
  }
  std::printf("engine:    %s, %zu shards, %zu threads\n",
              report.spec.c_str(), eopts.num_shards, eopts.num_threads);
  std::printf("output:    %llu segments, peak %llu live objects, "
              "%llu pooled states, %llu stalls\n",
              static_cast<unsigned long long>(stats.segments),
              static_cast<unsigned long long>(stats.peak_live_objects),
              static_cast<unsigned long long>(stats.states_allocated),
              static_cast<unsigned long long>(stats.ring_full_stalls));
  std::printf("time:      %.3f ms  (%.0f ns/point, %.2f M points/s)\n",
              elapsed_ms, ns_per_point,
              ns_per_point > 0.0 ? 1e3 / ns_per_point : 0.0);
  PrintStoreLine(report, options.store_shards);
  if (report.resumed) {
    std::printf("resumed:   %s\n", options.resume_path.c_str());
  }
  if (report.checkpointed) {
    std::printf("checkpoint: %s  (%zu snapshot(s) written)\n",
                report.checkpoint_path.c_str(), report.checkpoints_written);
  }
  PrintMetricsLine(report);

  if (!options.output_path.empty()) {
    if (const Status s = traj::WriteTaggedSegmentsCsv(
            std::span<const traj::TaggedSegment>(report.segments_out),
            options.output_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return kExitIo;
    }
    std::printf("wrote:     %s\n", options.output_path.c_str());
  }

  if (options.verify) {
    if (!report.verified) {
      std::printf("bound:     VIOLATED on %zu object(s) — worst %.2f m > "
                  "zeta %g m\n",
                  report.bound_violations, report.worst_distance,
                  options.spec.zeta);
      return kExitBoundViolation;
    }
    std::printf("bound:     verified per object (%zu objects <= zeta %g m)\n",
                report.objects, options.spec.zeta);
  }
  return kExitOk;
}

/// Loads the input trajectory, or returns nullopt after printing the error.
std::optional<traj::Trajectory> LoadInput(const CliOptions& options,
                                          std::string* source_label) {
  if (!options.csv_path.empty()) {
    *source_label = "csv " + options.csv_path;
    if (options.clean) {
      // Raw parse: the validating reader would reject the duplicate /
      // out-of-order rows the --clean stage exists to repair.
      Result<std::vector<geo::Point>> r =
          traj::ReadCsvPoints(options.csv_path);
      if (!r.ok()) {
        std::fprintf(stderr, "operb_cli: %s\n",
                     r.status().ToString().c_str());
        return std::nullopt;
      }
      traj::Trajectory raw;
      raw.reserve(r.value().size());
      for (const geo::Point& p : r.value()) raw.AppendUnchecked(p);
      return raw;
    }
    Result<traj::Trajectory> r = traj::ReadCsv(options.csv_path);
    if (!r.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", r.status().ToString().c_str());
      return std::nullopt;
    }
    return std::move(r).value();
  }
  if (!options.plt_path.empty()) {
    *source_label = "plt " + options.plt_path;
    Result<traj::Trajectory> r = traj::ReadGeoLifePlt(options.plt_path);
    if (!r.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", r.status().ToString().c_str());
      return std::nullopt;
    }
    return std::move(r).value();
  }
  *source_label = "generated " + options.generate_spec;
  return GenerateFromSpec(options.generate_spec);
}

/// The single-trajectory flow on the Pipeline facade.
int RunSingle(const CliOptions& options) {
  std::string source_label;
  std::optional<traj::Trajectory> input = LoadInput(options, &source_label);
  if (!input) {
    return options.generate_spec.empty() ? kExitIo : kExitUsage;
  }
  if (input->size() < 2) {
    std::fprintf(stderr,
                 "operb_cli: input has %zu point(s); need at least 2\n",
                 input->size());
    return kExitUsage;
  }

  if (!options.save_input_path.empty()) {
    if (const Status s = traj::WriteCsv(*input, options.save_input_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return kExitIo;
    }
  }

  // Keep a copy for the metrics below; the pipeline consumes its input.
  const traj::Trajectory original = *input;
  api::Pipeline::Builder builder;
  builder.FromTrajectory(std::move(*input)).Simplify(options.spec);
  if (options.clean) builder.Clean();
  if (options.verify) builder.Verify(options.verify_slack);
  if (!options.store_out_path.empty()) {
    store::StoreWriterOptions store_options;
    store_options.num_shards = static_cast<std::size_t>(options.store_shards);
    builder.WriteStore(options.store_out_path, store_options);
  }
  if (!options.metrics_out_path.empty()) {
    builder.MetricsSnapshots(options.metrics_out_path);
  }
  Result<api::Pipeline> pipeline = builder.Build();
  if (!pipeline.ok()) {
    std::fprintf(stderr, "operb_cli: %s\n",
                 pipeline.status().ToString().c_str());
    return kExitUsage;
  }
  Result<api::PipelineReport> run = pipeline->Run();
  if (!run.ok()) {
    // Data errors (e.g. non-monotone timestamps, unwritable store) —
    // configuration was already validated.
    std::fprintf(stderr, "operb_cli: %s%s\n",
                 run.status().ToString().c_str(),
                 options.clean ? "" : " (try --clean)");
    return run.status().code() == StatusCode::kIOError ? kExitIo
                                                       : kExitUsage;
  }
  const api::PipelineReport& report = *run;

  traj::PiecewiseRepresentation representation;
  for (const traj::TaggedSegment& s : report.segments_out) {
    representation.Append(s.segment);
  }

  const double elapsed_ms = report.simplify_seconds * 1e3;
  const double ratio = eval::CompressionRatio(original, representation);
  const eval::ErrorStats error = eval::MeasureError(original, representation);
  const double ns_per_point = elapsed_ms * 1e6 / original.size();

  std::printf("input:     %zu points, %.2f km, %.0f s  (%s)\n",
              original.size(), original.PathLength() / 1000.0,
              original.Duration(), source_label.c_str());
  if (options.clean) {
    std::printf("cleaned:   kept %zu of %zu (%zu duplicate, %zu "
                "out-of-order)\n",
                report.points_kept, report.points_in,
                report.cleaner.duplicates_dropped,
                report.cleaner.out_of_order_dropped);
  }
  std::printf("algorithm: %s%s\n", report.spec.c_str(),
              options.spec.fidelity == baselines::OperbFidelity::kPaperFaithful
                  ? " (paper-faithful heuristics, no strict guard)"
                  : "");
  std::printf("output:    %zu segments, %zu stored points\n",
              representation.size(), representation.StoredPointCount());
  std::printf("ratio:     %.2f%% of input kept (%.1fx compression)\n",
              100.0 * ratio, ratio > 0.0 ? 1.0 / ratio : 0.0);
  std::printf("time:      %.3f ms  (%.0f ns/point, %.2f M points/s)\n",
              elapsed_ms, ns_per_point,
              ns_per_point > 0.0 ? 1e3 / ns_per_point : 0.0);
  std::printf("error:     avg %.2f m, max %.2f m\n", error.average, error.max);
  PrintStoreLine(report, options.store_shards);
  PrintMetricsLine(report);

  if (!options.output_path.empty()) {
    if (const Status s =
            traj::WriteRepresentationCsv(representation, options.output_path);
        !s.ok()) {
      std::fprintf(stderr, "operb_cli: %s\n", s.ToString().c_str());
      return kExitIo;
    }
    std::printf("wrote:     %s\n", options.output_path.c_str());
  }

  if (options.verify) {
    if (!report.verified) {
      std::printf("bound:     VIOLATED — worst %.2f m > zeta %g m\n",
                  report.worst_distance, options.spec.zeta);
      return kExitBoundViolation;
    }
    std::printf("bound:     verified (worst %.2f m <= zeta %g m)\n",
                report.worst_distance, options.spec.zeta);
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  unsigned seen = 0;
  switch (ParseArgs(argc, argv, &options, &seen)) {
    case flags::Outcome::kHelp:
      PrintUsage(stdout);
      return kExitOk;
    case flags::Outcome::kUsageError:
      std::fprintf(stderr, "Run 'operb_cli --help' for usage.\n");
      return kExitUsage;
    case flags::Outcome::kRun:
      break;
  }
  if (!options.metrics_out_path.empty()) {
    // Pre-flight: snapshots are written late in the run (and periodic
    // failures are deliberately non-fatal), so an unusable path must
    // fail up front as a usage error, not as a silent no-op run.
    std::FILE* probe = std::fopen(options.metrics_out_path.c_str(), "ab");
    if (probe == nullptr) {
      std::fprintf(stderr,
                   "operb_cli: --metrics-out path '%s' is not writable\n",
                   options.metrics_out_path.c_str());
      return kExitUsage;
    }
    std::fclose(probe);
  }
  if (seen & kConnect) {
    return WriteFinalMetricsSnapshot(options, RunConnect(options));
  }
  if (seen & kCompact) return RunCompact(options);
  if (seen & kQuery) {
    return WriteFinalMetricsSnapshot(options, RunQuery(options));
  }
  return options.group_by_id ? RunGroupById(options) : RunSingle(options);
}
