// Public-API suite: SimplifierSpec parsing, AlgorithmRegistry
// resolution, and the Pipeline facade.
//
// The load-bearing half is the registry round-trip: for every registered
// algorithm name, a simplifier constructed from a *spec string* — batch
// and streaming — must reproduce the committed tests/golden/ fixtures
// bit-identically on every synthetic profile. That pins the registry
// path to the legacy enum path (which the equivalence suite pins to the
// pre-optimization implementation), so all three construction surfaces
// emit the same segments.

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/pipeline.h"
#include "api/registry.h"
#include "api/spec.h"
#include "obs/snapshot.h"
#include "store/env.h"
#include "baselines/simplifier.h"
#include "baselines/streaming.h"
#include "datagen/profiles.h"
#include "engine/stream_engine.h"
#include "store/reader.h"
#include "test_util.h"
#include "traj/io.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb {
namespace {

using testutil::ExpectSegmentsEqual;
using testutil::GoldenTrajectory;
using testutil::kGoldenZeta;
using testutil::LoadGolden;

// ---------------------------------------------------------------------
// SimplifierSpec::Parse — positive and canonicalization cases.
// ---------------------------------------------------------------------

TEST(SimplifierSpecTest, ParsesBareAlgorithmWithDefaults) {
  const Result<api::SimplifierSpec> spec = api::SimplifierSpec::Parse("OPERB");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->algorithm, "OPERB");
  EXPECT_EQ(spec->zeta, 40.0);
  EXPECT_EQ(spec->fidelity, baselines::OperbFidelity::kGuarded);
  EXPECT_TRUE(spec->options.empty());
}

TEST(SimplifierSpecTest, ParsesFullSpec) {
  const Result<api::SimplifierSpec> spec = api::SimplifierSpec::Parse(
      "operb-a:zeta=12.5,fidelity=paper,gamma_m=0.5");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec->zeta, 12.5);
  EXPECT_EQ(spec->fidelity, baselines::OperbFidelity::kPaperFaithful);
  EXPECT_TRUE(spec->HasOption("gamma_m"));
  EXPECT_EQ(spec->Option("gamma_m", -1.0), 0.5);
  EXPECT_TRUE(spec->Validate().ok());
}

TEST(SimplifierSpecTest, NameMatchingFoldsCaseAndSeparators) {
  for (const char* name : {"operb-a", "OPERB_A", "Operb-A", "OPERB-A"}) {
    const Result<api::SimplifierSpec> spec = api::SimplifierSpec::Parse(name);
    ASSERT_TRUE(spec.ok());
    EXPECT_TRUE(spec->Validate().ok()) << name;
    // Canonicalization: ToString always uses the registered spelling.
    EXPECT_EQ(spec->ToString(), "OPERB-A:zeta=40") << name;
  }
}

TEST(SimplifierSpecTest, ToStringRoundTripsThroughParse) {
  const Result<api::SimplifierSpec> spec = api::SimplifierSpec::Parse(
      "raw_operb:zeta=7.25,step_length=0.4");
  ASSERT_TRUE(spec.ok());
  const std::string canonical = spec->ToString();
  const Result<api::SimplifierSpec> reparsed =
      api::SimplifierSpec::Parse(canonical);
  ASSERT_TRUE(reparsed.ok()) << canonical;
  EXPECT_EQ(reparsed->ToString(), canonical);
  EXPECT_EQ(reparsed->zeta, spec->zeta);
  EXPECT_EQ(reparsed->options, spec->options);
}

TEST(SimplifierSpecTest, SpecForMatchesEveryEnumValue) {
  for (baselines::Algorithm algo : baselines::AllAlgorithms()) {
    const api::SimplifierSpec spec = api::SpecFor(algo, 17.0);
    EXPECT_TRUE(spec.Validate().ok())
        << std::string(baselines::AlgorithmName(algo));
    EXPECT_EQ(spec.algorithm, std::string(baselines::AlgorithmName(algo)));
  }
}

// ---------------------------------------------------------------------
// SimplifierSpec::Parse / Validate — negative and edge cases.
// ---------------------------------------------------------------------

TEST(SimplifierSpecTest, RejectsMalformedSpecs) {
  const char* malformed[] = {
      "",                      // empty
      "   ",                   // whitespace only
      ":zeta=5",               // missing name
      "OPERB:",                // dangling colon
      "OPERB:zeta",            // no '='
      "OPERB:zeta=",           // empty value
      "OPERB:=5",              // empty key
      "OPERB:zeta=abc",        // non-numeric
      "OPERB:zeta=5,zeta=6",   // duplicate universal key
      "OPERB:a=1,a=2",         // duplicate custom key
  };
  for (const char* text : malformed) {
    EXPECT_FALSE(api::SimplifierSpec::Parse(text).ok())
        << "'" << text << "' should not parse";
  }
}

TEST(SimplifierSpecTest, LocaleStyleCommaDecimalGetsAHint) {
  // "zeta=2,5" splits at the option separator: the stray "5" must fail
  // loudly (with a decimal-separator hint), never truncate to zeta=2.
  const Result<api::SimplifierSpec> spec =
      api::SimplifierSpec::Parse("OPERB:zeta=2,5");
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("decimal separator"),
            std::string::npos)
      << spec.status().ToString();
}

TEST(SimplifierSpecTest, ValidateRejectsSemanticErrors) {
  // Unknown algorithm: parses, fails validation with NotFound.
  Result<api::SimplifierSpec> unknown = api::SimplifierSpec::Parse("NOPE");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->Validate().code(), StatusCode::kNotFound);

  // Non-positive / non-finite zeta.
  for (const char* text :
       {"OPERB:zeta=0", "OPERB:zeta=-3", "OPERB:zeta=inf", "OPERB:zeta=nan"}) {
    const Result<api::SimplifierSpec> spec = api::SimplifierSpec::Parse(text);
    if (!spec.ok()) continue;  // "inf"/"nan" may already fail the parse
    EXPECT_FALSE(spec->Validate().ok()) << text;
  }

  // Option key not accepted by the algorithm.
  Result<api::SimplifierSpec> wrong_algo =
      api::SimplifierSpec::Parse("DP:step_length=0.5");
  ASSERT_TRUE(wrong_algo.ok());
  EXPECT_EQ(wrong_algo->Validate().code(), StatusCode::kInvalidArgument);

  // Known key, out-of-range value (core validation).
  Result<api::SimplifierSpec> bad_range =
      api::SimplifierSpec::Parse("OPERB:step_length=2.0");
  ASSERT_TRUE(bad_range.ok());
  EXPECT_FALSE(bad_range->Validate().ok());

  // Bad fidelity value fails at parse time.
  EXPECT_FALSE(api::SimplifierSpec::Parse("OPERB:fidelity=fast").ok());
}

// ---------------------------------------------------------------------
// AlgorithmRegistry.
// ---------------------------------------------------------------------

TEST(AlgorithmRegistryTest, GlobalListsAllTenBuiltinsInPaperOrder) {
  const std::vector<std::string> names =
      api::AlgorithmRegistry::Global().Names();
  std::vector<std::string> want;
  for (baselines::Algorithm algo : baselines::AllAlgorithms()) {
    want.emplace_back(baselines::AlgorithmName(algo));
  }
  EXPECT_EQ(names, want);
}

TEST(AlgorithmRegistryTest, EntriesExposeOnePassAndSummaries) {
  const api::AlgorithmRegistry& registry = api::AlgorithmRegistry::Global();
  EXPECT_TRUE(registry.Find("OPERB")->one_pass);
  EXPECT_TRUE(registry.Find("Raw-OPERB-A")->one_pass);
  EXPECT_FALSE(registry.Find("DP")->one_pass);
  EXPECT_FALSE(registry.Find("FBQS")->one_pass);
  for (const std::string& name : registry.Names()) {
    EXPECT_FALSE(registry.Find(name)->summary.empty()) << name;
  }
  EXPECT_EQ(registry.Find("no-such-algorithm"), nullptr);
}

TEST(AlgorithmRegistryTest, RejectsDuplicateAndIncompleteRegistrations) {
  api::AlgorithmRegistry registry;  // private instance
  api::RegisterBuiltinAlgorithms(registry);

  api::AlgorithmRegistry::Entry dup;
  dup.name = "operb_a";  // folds onto the builtin OPERB-A
  dup.batch = [](const api::SimplifierSpec&) {
    return std::unique_ptr<baselines::Simplifier>();
  };
  dup.streaming = [](const api::SimplifierSpec&) {
    return std::unique_ptr<baselines::StreamingSimplifier>();
  };
  EXPECT_FALSE(registry.Register(std::move(dup)).ok());

  api::AlgorithmRegistry::Entry incomplete;
  incomplete.name = "half-registered";
  incomplete.batch = [](const api::SimplifierSpec&) {
    return std::unique_ptr<baselines::Simplifier>();
  };
  EXPECT_FALSE(registry.Register(std::move(incomplete)).ok());
}

TEST(AlgorithmRegistryTest, MakeFromStringPropagatesParseAndLookupErrors) {
  const api::AlgorithmRegistry& registry = api::AlgorithmRegistry::Global();
  EXPECT_FALSE(registry.MakeBatch("").ok());
  EXPECT_FALSE(registry.MakeBatch("OPERB:zeta=2,5").ok());
  EXPECT_FALSE(registry.MakeStreaming("NOPE:zeta=5").ok());
  EXPECT_FALSE(registry.MakeStreaming("OPERB:zeta=-1").ok());
}

/// The tentpole acceptance check: every registered name, constructed
/// through a spec string, reproduces the golden fixtures on both the
/// batch and the streaming path, for all 4 profiles.
class RegistryGoldenTest
    : public testing::TestWithParam<
          std::tuple<baselines::Algorithm, datagen::DatasetKind>> {};

TEST_P(RegistryGoldenTest, SpecStringConstructionMatchesGolden) {
  const auto [algo, kind] = GetParam();
  const std::string name(baselines::AlgorithmName(algo));
  const traj::Trajectory t = GoldenTrajectory(kind);
  const std::string golden_path =
      std::string(OPERB_GOLDEN_DIR) + "/golden_" + name + "_" +
      std::string(datagen::DatasetName(kind)) + ".csv";
  const std::vector<traj::RepresentedSegment> golden =
      LoadGolden(golden_path);
  if (HasFailure()) return;

  const std::string spec_string = name + ":zeta=40";
  const api::AlgorithmRegistry& registry = api::AlgorithmRegistry::Global();

  auto batch = registry.MakeBatch(spec_string);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ExpectSegmentsEqual((*batch)->Simplify(t).segments(), golden,
                      "registry batch " + spec_string);

  auto streaming = registry.MakeStreaming(spec_string);
  ASSERT_TRUE(streaming.ok()) << streaming.status().ToString();
  std::vector<traj::RepresentedSegment> via_stream;
  (*streaming)->SetSink([&via_stream](const traj::RepresentedSegment& s) {
    via_stream.push_back(s);
  });
  (*streaming)->Push(std::span<const geo::Point>(t.points()));
  (*streaming)->Finish();
  ExpectSegmentsEqual(via_stream, golden, "registry streaming " + spec_string);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllProfiles, RegistryGoldenTest,
    testing::Combine(testing::ValuesIn(baselines::AllAlgorithms()),
                     testing::ValuesIn(datagen::AllDatasetKinds())),
    [](const testing::TestParamInfo<RegistryGoldenTest::ParamType>& info) {
      std::string name =
          std::string(baselines::AlgorithmName(std::get<0>(info.param))) +
          "_" + std::string(datagen::DatasetName(std::get<1>(info.param)));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Pipeline facade.
// ---------------------------------------------------------------------

TEST(PipelineTest, SinglePathMatchesGoldenAndReportsStages) {
  const traj::Trajectory t = GoldenTrajectory(datagen::DatasetKind::kSerCar);
  const std::vector<traj::RepresentedSegment> golden = LoadGolden(
      std::string(OPERB_GOLDEN_DIR) + "/golden_OPERB_SerCar.csv");

  Result<api::Pipeline> pipeline = api::Pipeline::Builder()
                                       .FromTrajectory(t)
                                       .Simplify("OPERB:zeta=40")
                                       .Verify()
                                       .DeltaEncode()
                                       .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Result<api::PipelineReport> run = pipeline->Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const api::PipelineReport& report = *run;

  EXPECT_EQ(report.spec, "OPERB:zeta=40");
  EXPECT_EQ(report.points_in, t.size());
  EXPECT_EQ(report.points_kept, t.size());
  EXPECT_EQ(report.objects, 1u);
  EXPECT_FALSE(report.used_engine);
  EXPECT_TRUE(report.verify_ran);
  EXPECT_TRUE(report.verified);
  EXPECT_GT(report.delta_bytes, 0u);
  EXPECT_GT(report.delta_ratio, 0.0);
  EXPECT_LT(report.delta_ratio, 1.0);

  std::vector<traj::RepresentedSegment> segments;
  for (const traj::TaggedSegment& s : report.segments_out) {
    EXPECT_EQ(s.object_id, 0u);
    segments.push_back(s.segment);
  }
  ExpectSegmentsEqual(segments, golden, "pipeline single path");
  EXPECT_EQ(report.segments, golden.size());
}

TEST(PipelineTest, CsvContentIngestMatchesDirectSimplification) {
  // CSV serialization is %.9g, so the reparsed trajectory — not the
  // original — is the reference the pipeline must match bit-for-bit.
  const traj::Trajectory t = GoldenTrajectory(datagen::DatasetKind::kTaxi);
  const std::string csv = traj::WriteCsvString(t);
  Result<api::Pipeline> pipeline = api::Pipeline::Builder()
                                       .FromCsv(csv)
                                       .Simplify("fbqs:zeta=40")
                                       .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Result<api::PipelineReport> run = pipeline->Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  const Result<traj::Trajectory> reparsed = traj::ParseCsv(csv);
  ASSERT_TRUE(reparsed.ok());
  const std::vector<traj::RepresentedSegment> want =
      baselines::MakeSimplifier(baselines::Algorithm::kFBQS, 40.0)
          ->Simplify(*reparsed)
          .segments();
  std::vector<traj::RepresentedSegment> segments;
  for (const traj::TaggedSegment& s : run->segments_out) {
    segments.push_back(s.segment);
  }
  ExpectSegmentsEqual(segments, want, "pipeline csv ingest");
}

TEST(PipelineTest, EnginePathMatchesGoldenPerObject) {
  // Two golden profiles as two interleaved objects through the engine
  // path: per-object output must match the same fixtures the
  // single-stream path is held to.
  const std::vector<traj::ObjectTrajectory> objects = {
      {11, GoldenTrajectory(datagen::DatasetKind::kSerCar)},
      {22, GoldenTrajectory(datagen::DatasetKind::kGeoLife)},
  };
  std::vector<traj::ObjectUpdate> updates = traj::InterleaveRoundRobin(
      std::span<const traj::ObjectTrajectory>(objects));

  engine::StreamEngineOptions eopts;
  eopts.num_shards = 4;
  eopts.num_threads = 2;
  Result<api::Pipeline> pipeline = api::Pipeline::Builder()
                                       .FromUpdates(std::move(updates))
                                       .Simplify("OPERB-A:zeta=40")
                                       .Engine(eopts)
                                       .Verify()
                                       .Build();
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  Result<api::PipelineReport> run = pipeline->Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const api::PipelineReport& report = *run;

  EXPECT_TRUE(report.used_engine);
  EXPECT_EQ(report.objects, 2u);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.engine_stats.objects_finished, 2u);

  // segments_out is grouped by object id (stable sort): split the runs.
  std::vector<traj::RepresentedSegment> first, second;
  for (const traj::TaggedSegment& s : report.segments_out) {
    (s.object_id == 11 ? first : second).push_back(s.segment);
  }
  ExpectSegmentsEqual(first,
                      LoadGolden(std::string(OPERB_GOLDEN_DIR) +
                                 "/golden_OPERB-A_SerCar.csv"),
                      "engine path object 11");
  ExpectSegmentsEqual(second,
                      LoadGolden(std::string(OPERB_GOLDEN_DIR) +
                                 "/golden_OPERB-A_GeoLife.csv"),
                      "engine path object 22");
}

TEST(PipelineTest, CleanStageRepairsRawStreams) {
  // A raw stream with duplicates and an out-of-order sample: without
  // Clean() the pipeline reports InvalidArgument; with it, the repaired
  // stream simplifies and verifies.
  traj::Trajectory raw;
  raw.AppendUnchecked({0.0, 0.0, 0.0});
  raw.AppendUnchecked({10.0, 0.0, 1.0});
  raw.AppendUnchecked({10.0, 0.0, 1.0});  // duplicate
  raw.AppendUnchecked({5.0, 0.0, 0.5});   // out of order
  raw.AppendUnchecked({20.0, 0.0, 2.0});
  raw.AppendUnchecked({30.0, 0.0, 3.0});

  Result<api::Pipeline> dirty = api::Pipeline::Builder()
                                    .FromTrajectory(raw)
                                    .Simplify("OPERB:zeta=10")
                                    .Build();
  ASSERT_TRUE(dirty.ok());
  const Result<api::PipelineReport> dirty_run = dirty->Run();
  ASSERT_FALSE(dirty_run.ok());
  EXPECT_EQ(dirty_run.status().code(), StatusCode::kInvalidArgument);

  Result<api::Pipeline> cleaned = api::Pipeline::Builder()
                                      .FromTrajectory(raw)
                                      .Clean()
                                      .Simplify("OPERB:zeta=10")
                                      .Verify()
                                      .Build();
  ASSERT_TRUE(cleaned.ok());
  const Result<api::PipelineReport> run = cleaned->Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->points_in, 6u);
  EXPECT_EQ(run->points_kept, 4u);
  EXPECT_EQ(run->cleaner.duplicates_dropped, 1u);
  EXPECT_EQ(run->cleaner.out_of_order_dropped, 1u);
  EXPECT_TRUE(run->verified);
}

TEST(PipelineTest, CleanStageRepairsDirtyCsvContent) {
  // A dirty CSV export (duplicate + out-of-order rows) must be
  // ingestable when — and only when — the Clean stage is on: without it
  // the validating parser reports Corruption at Run().
  const std::string dirty =
      "0,0,0\n10,0,1\n10,0,1\n5,0,0.5\n20,0,2\n30,0,3\n40,0,4\n";

  Result<api::Pipeline> strict = api::Pipeline::Builder()
                                     .FromCsv(dirty)
                                     .Simplify("OPERB:zeta=5")
                                     .Build();
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->Run().status().code(), StatusCode::kCorruption);

  Result<api::Pipeline> repaired = api::Pipeline::Builder()
                                       .FromCsv(dirty)
                                       .Clean()
                                       .Simplify("OPERB:zeta=5")
                                       .Verify()
                                       .Build();
  ASSERT_TRUE(repaired.ok());
  const Result<api::PipelineReport> run = repaired->Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->points_in, 7u);
  EXPECT_EQ(run->points_kept, 5u);
  EXPECT_EQ(run->cleaner.duplicates_dropped, 1u);
  EXPECT_EQ(run->cleaner.out_of_order_dropped, 1u);
  EXPECT_TRUE(run->verified);
}

TEST(PipelineTest, SinkReceivesSegmentsInsteadOfReport) {
  const traj::Trajectory t = GoldenTrajectory(datagen::DatasetKind::kTruck);
  std::vector<traj::RepresentedSegment> sunk;
  Result<api::Pipeline> pipeline =
      api::Pipeline::Builder()
          .FromTrajectory(t)
          .Simplify("OPERB:zeta=40")
          .Verify()
          .ToSink([&sunk](traj::ObjectId id,
                          const traj::RepresentedSegment& s) {
            EXPECT_EQ(id, 0u);
            sunk.push_back(s);
          })
          .Build();
  ASSERT_TRUE(pipeline.ok());
  Result<api::PipelineReport> run = pipeline->Run();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->segments_out.empty());
  EXPECT_TRUE(run->verified);  // verification works alongside a sink
  ExpectSegmentsEqual(sunk,
                      LoadGolden(std::string(OPERB_GOLDEN_DIR) +
                                 "/golden_OPERB_Truck.csv"),
                      "pipeline sink");
}

TEST(PipelineTest, ResumeWithWriteStoreStoresExactlyThePostCutSegments) {
  // Checkpoint at a cut, then ResumeFrom + WriteStore into a fresh store:
  // the store holds exactly the segments the uninterrupted run emits
  // after the cut, times bit-equal. The engine stamps the times, so the
  // resumed run needs nothing from before the cut.
  std::vector<traj::ObjectTrajectory> objects;
  for (traj::ObjectId id = 1; id <= 4; ++id) {
    objects.push_back(
        {id * 5, testutil::Generated(datagen::DatasetKind::kTaxi, 400, id)});
  }
  const std::vector<traj::ObjectUpdate> updates =
      traj::InterleaveRoundRobin(objects);
  const std::span<const traj::ObjectUpdate> all(updates);
  const std::size_t cut = updates.size() * 2 / 5;
  const Result<api::SimplifierSpec> spec =
      api::SimplifierSpec::Parse("operb-a:zeta=30");
  ASSERT_TRUE(spec.ok());
  engine::StreamEngineOptions eopts;
  eopts.spec = *spec;
  eopts.num_shards = 2;
  eopts.num_threads = 2;
  const std::string prefix = testing::TempDir() + "/pipeline_resume";
  const auto store_run =
      [&](std::span<const traj::ObjectUpdate> feed, const std::string& store,
          const std::string& resume) -> Result<api::PipelineReport> {
    api::Pipeline::Builder builder;
    builder.FromUpdates({feed.begin(), feed.end()})
        .Simplify(*spec)
        .Engine(eopts)
        .WriteStore(store);
    if (!resume.empty()) builder.ResumeFrom(resume);
    Result<api::Pipeline> pipeline = builder.Build();
    if (!pipeline.ok()) return pipeline.status();
    return pipeline->Run();
  };

  const Result<api::PipelineReport> full =
      store_run(all, prefix + "_full.store", "");
  ASSERT_TRUE(full.ok()) << full.status().ToString();

  // The prefix, cut by a checkpoint. Its drain barrier makes the counts
  // read right after it exactly what was emitted before the cut; the
  // tails Close() emits belong to the resumed run.
  const std::string checkpoint = prefix + ".ckpt";
  std::map<traj::ObjectId, std::size_t> before_cut;
  {
    std::mutex mu;
    std::map<traj::ObjectId, std::size_t> emitted;
    engine::StreamEngine eng(eopts, [&](const traj::TimedSegment& s) {
      const std::lock_guard<std::mutex> lock(mu);
      ++emitted[s.object_id];
    });
    eng.Push(all.first(cut));
    ASSERT_TRUE(eng.Checkpoint(checkpoint).ok());
    {
      const std::lock_guard<std::mutex> lock(mu);
      before_cut = emitted;
    }
    eng.Close();
  }

  const Result<api::PipelineReport> resumed =
      store_run(all.subspan(cut), prefix + "_resumed.store", checkpoint);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->resumed);
  EXPECT_TRUE(resumed->store_ran);

  const auto full_store = store::StoreReader::Open(prefix + "_full.store");
  const auto resumed_store =
      store::StoreReader::Open(prefix + "_resumed.store");
  ASSERT_TRUE(full_store.ok() && resumed_store.ok());
  std::size_t stored = 0;
  for (const traj::ObjectTrajectory& obj : objects) {
    SCOPED_TRACE("object " + std::to_string(obj.object_id));
    const auto want = full_store.value()->ReconstructObject(obj.object_id);
    const auto got = resumed_store.value()->ReconstructObject(obj.object_id);
    ASSERT_TRUE(want.ok() && got.ok());
    const std::size_t skip = before_cut[obj.object_id];
    ASSERT_LT(skip, want->size());
    ASSERT_EQ(got->size(), want->size() - skip);
    for (std::size_t i = 0; i < got->size(); ++i) {
      const traj::TimedSegment& g = (*got)[i];
      const traj::TimedSegment& w = (*want)[skip + i];
      ExpectSegmentsEqual({g.segment}, {w.segment},
                          "segment " + std::to_string(i));
      EXPECT_EQ(g.t_start, w.t_start) << "segment " << i;
      EXPECT_EQ(g.t_end, w.t_end) << "segment " << i;
    }
    stored += got->size();
  }
  EXPECT_EQ(resumed->store_stats.segments, stored);
}

TEST(PipelineTest, BuildRejectsBadConfigurations) {
  // No source.
  EXPECT_FALSE(api::Pipeline::Builder().Simplify("OPERB").Build().ok());
  // No Simplify stage.
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .Build()
                   .ok());
  // Two sources.
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .FromCsv("0,0,0\n1,1,1\n")
                   .Simplify("OPERB")
                   .Build()
                   .ok());
  // Malformed and unknown specs.
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .Simplify("OPERB:zeta=2,5")
                   .Build()
                   .ok());
  // An empty spec string is an error, not a silent fallback to the
  // default — even when a valid spec was set earlier.
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .Simplify("")
                   .Build()
                   .ok());
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .Simplify(api::SimplifierSpec{})
                   .Simplify("")
                   .Build()
                   .ok());
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .Simplify("NOPE")
                   .Build()
                   .ok());
  // Bad engine knobs.
  engine::StreamEngineOptions eopts;
  eopts.num_shards = 0;
  EXPECT_FALSE(api::Pipeline::Builder()
                   .FromTrajectory(testutil::StraightLine(10))
                   .Simplify("OPERB")
                   .Engine(eopts)
                   .Build()
                   .ok());
}

TEST(PipelineTest, RunReportsIoErrorsAndRejectsSecondRun) {
  Result<api::Pipeline> missing = api::Pipeline::Builder()
                                      .FromCsvFile("/nonexistent/input.csv")
                                      .Simplify("OPERB")
                                      .Build();
  ASSERT_TRUE(missing.ok());  // configuration is fine, the file isn't
  EXPECT_FALSE(missing->Run().ok());

  Result<api::Pipeline> pipeline =
      api::Pipeline::Builder()
          .FromTrajectory(testutil::StraightLine(50))
          .Simplify("OPERB")
          .Build();
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE(pipeline->Run().ok());
  EXPECT_FALSE(pipeline->Run().ok());  // input was consumed
}

// ---------------------------------------------------------------------
// MetricsSnapshots stage (DESIGN.md §10).
// ---------------------------------------------------------------------

std::vector<traj::ObjectUpdate> MetricsTestUpdates() {
  const std::vector<traj::ObjectTrajectory> objects = {
      {1, GoldenTrajectory(datagen::DatasetKind::kSerCar)},
      {2, GoldenTrajectory(datagen::DatasetKind::kTaxi)},
  };
  return traj::InterleaveRoundRobin(
      std::span<const traj::ObjectTrajectory>(objects));
}

/// One engine-path run over MetricsTestUpdates with an optional
/// MetricsSnapshots stage.
Result<api::PipelineReport> RunWithMetricsStage(const std::string& path,
                                                std::size_t every,
                                                store::Env* env,
                                                bool metrics_on) {
  engine::StreamEngineOptions eopts;
  eopts.num_shards = 4;
  eopts.num_threads = 1;
  api::Pipeline::Builder builder;
  builder.FromUpdates(MetricsTestUpdates())
      .Simplify("OPERB:zeta=40")
      .Engine(eopts);
  if (metrics_on) builder.MetricsSnapshots(path, every, env);
  OPERB_ASSIGN_OR_RETURN(api::Pipeline pipeline, builder.Build());
  return pipeline.Run();
}

void ExpectSameTaggedSegments(const std::vector<traj::TaggedSegment>& a,
                              const std::vector<traj::TaggedSegment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].object_id, b[i].object_id) << "segment " << i;
    EXPECT_EQ(a[i].segment.start.x, b[i].segment.start.x) << "segment " << i;
    EXPECT_EQ(a[i].segment.start.y, b[i].segment.start.y) << "segment " << i;
    EXPECT_EQ(a[i].segment.end.x, b[i].segment.end.x) << "segment " << i;
    EXPECT_EQ(a[i].segment.end.y, b[i].segment.end.y) << "segment " << i;
    EXPECT_EQ(a[i].segment.first_index, b[i].segment.first_index)
        << "segment " << i;
    EXPECT_EQ(a[i].segment.last_index, b[i].segment.last_index)
        << "segment " << i;
  }
}

TEST(PipelineTest, MetricsSnapshotsWritePeriodicallyAndParseBack) {
  const std::string path = testing::TempDir() + "/pipeline_metrics.json";
  Result<api::PipelineReport> plain =
      RunWithMetricsStage(path, 0, nullptr, /*metrics_on=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  Result<api::PipelineReport> run =
      RunWithMetricsStage(path, 500, nullptr, /*metrics_on=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run->metrics_ran);
  EXPECT_EQ(run->metrics_path, path);
  // points_in / 500 periodic snapshots plus the final one.
  EXPECT_EQ(run->snapshots_written, run->points_in / 500 + 1);
  EXPECT_EQ(run->snapshot_failures, 0u);
  // Instrumentation must not perturb the output (bit-identical contract).
  ExpectSameTaggedSegments(run->segments_out, plain->segments_out);

  // The exported document parses and carries the pipeline counters.
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto parsed = obs::ParseSnapshotJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->schema_version, obs::kSnapshotSchemaVersion);
  EXPECT_GE(parsed->counters.at("pipeline.points_in"), run->points_in);
  EXPECT_GE(parsed->counters.at("engine.points_routed"), run->points_in);
  EXPECT_GE(parsed->counters.at("pipeline.snapshots_written"), 1u);
}

TEST(PipelineTest, MetricsSnapshotFaultsNeverAbortIngest) {
  // The fault matrix of satellite concern: every snapshot write is 4
  // counted Env operations (create, append, flush, rename). Failing
  // each of the first 8 — covering two full periodic writes at every
  // crash point — must leave the run OK and the output bit-identical;
  // only the failure counters may move.
  const std::string path = testing::TempDir() + "/pipeline_metrics_fault.json";
  Result<api::PipelineReport> plain =
      RunWithMetricsStage(path, 0, nullptr, /*metrics_on=*/false);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();

  for (std::uint64_t k = 0; k < 8; ++k) {
    store::FaultInjectingEnv env;
    env.ArmFault(store::FaultInjectingEnv::FaultKind::kError, k);
    Result<api::PipelineReport> run =
        RunWithMetricsStage(path, 500, &env, /*metrics_on=*/true);
    ASSERT_TRUE(run.ok()) << "k=" << k << ": " << run.status().ToString();
    EXPECT_TRUE(env.fault_fired()) << "k=" << k;
    EXPECT_EQ(run->snapshot_failures, 1u) << "k=" << k;
    EXPECT_EQ(run->snapshots_written, run->points_in / 500) << "k=" << k;
    ExpectSameTaggedSegments(run->segments_out, plain->segments_out);
  }

  // A crash-style fault (every operation fails from op k on) loses
  // every snapshot — and still not the run.
  store::FaultInjectingEnv env;
  env.ArmFault(store::FaultInjectingEnv::FaultKind::kTornWriteCrash, 0);
  Result<api::PipelineReport> run =
      RunWithMetricsStage(path, 500, &env, /*metrics_on=*/true);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->snapshots_written, 0u);
  EXPECT_EQ(run->snapshot_failures, run->points_in / 500 + 1);
  ExpectSameTaggedSegments(run->segments_out, plain->segments_out);
}

}  // namespace
}  // namespace operb
