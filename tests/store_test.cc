// Tests for the queryable compressed trajectory store (src/store) and
// its block codec (codec/segment_codec.h): exact round-trips against the
// in-memory sink output and the tests/golden fixtures, footer-metadata
// block skipping (the ISSUE's "provably skips >= 1 block" assertion),
// crash-recovery (truncated tails, corrupted payloads, the footer
// corruption matrix), shard-count and compaction-state equivalence, the
// R-tree-vs-flat-scan oracle, and the position-at-time error
// certificate.

#include <algorithm>
#include <bit>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/pipeline.h"
#include "api/store_query.h"
#include "baselines/simplifier.h"
#include "baselines/streaming.h"
#include "codec/segment_codec.h"
#include "codec/varint.h"
#include "common/serial.h"
#include "datagen/rng.h"
#include "eval/verifier.h"
#include "geo/bbox.h"
#include "obs/metrics.h"
#include "store/compactor.h"
#include "store/env.h"
#include "store/format.h"
#include "store/manifest.h"
#include "store/query_filter.h"
#include "store/reader.h"
#include "store/segment_file.h"
#include "store/writer.h"
#include "test_util.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"

namespace operb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

/// Sorted paths of the segment files inside a store directory.
std::vector<std::string> SegmentFilesIn(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > 4 && name.substr(name.size() - 4) == ".seg") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The single segment file of a freshly written one-shard store.
std::string OnlySegmentFile(const std::string& dir) {
  const std::vector<std::string> files = SegmentFilesIn(dir);
  EXPECT_EQ(files.size(), 1u) << "expected exactly one segment file in "
                              << dir;
  return files.empty() ? std::string() : files.front();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Simplifies `t` through the streaming sink path and annotates every
/// segment with the covered points' timestamps — exactly what the
/// pipeline's WriteStore stage feeds the writer.
std::vector<traj::TimedSegment> SimplifyTimed(const traj::Trajectory& t,
                                              baselines::Algorithm algorithm,
                                              traj::ObjectId id) {
  const auto simplifier =
      baselines::MakeStreamingSimplifier(algorithm, testutil::kGoldenZeta);
  std::vector<traj::TimedSegment> out;
  simplifier->SetSink([&](const traj::RepresentedSegment& s) {
    out.push_back({id, s, t[s.first_index].t, t[s.last_index].t});
  });
  simplifier->Push(std::span<const geo::Point>(t.points()));
  simplifier->Finish();
  return out;
}

std::vector<traj::RepresentedSegment> Untimed(
    const std::vector<traj::TimedSegment>& timed) {
  std::vector<traj::RepresentedSegment> out;
  out.reserve(timed.size());
  for (const traj::TimedSegment& s : timed) out.push_back(s.segment);
  return out;
}

/// Writes `segments` to a fresh store at `path` and returns the reader.
std::unique_ptr<store::StoreReader> WriteAndOpen(
    const std::string& path, std::span<const traj::TimedSegment> segments,
    std::size_t block_budget = 64 * 1024,
    double zeta = testutil::kGoldenZeta) {
  store::StoreWriterOptions options;
  options.zeta = zeta;
  options.block_budget_bytes = block_budget;
  auto writer = store::StoreWriter::Create(path, options);
  EXPECT_TRUE(writer.ok()) << writer.status().ToString();
  for (const traj::TimedSegment& s : segments) {
    EXPECT_TRUE(writer.value()->Append(s).ok());
  }
  EXPECT_TRUE(writer.value()->Close().ok());
  auto reader = store::StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(reader).value();
}

void ExpectTimedEqual(const std::vector<traj::TimedSegment>& actual,
                      const std::vector<traj::TimedSegment>& want,
                      const std::string& label) {
  testutil::ExpectSegmentsEqual(Untimed(actual), Untimed(want), label);
  ASSERT_EQ(actual.size(), want.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].object_id, want[i].object_id) << label << " " << i;
    EXPECT_EQ(actual[i].t_start, want[i].t_start) << label << " " << i;
    EXPECT_EQ(actual[i].t_end, want[i].t_end) << label << " " << i;
  }
}

// ---------------------------------------------------------------------
// Block codec
// ---------------------------------------------------------------------

TEST(SegmentCodecTest, RoundTripsExactlyIncludingPatchFlags) {
  const traj::Trajectory t = testutil::GoldenTrajectory(
      datagen::DatasetKind::kSerCar);
  // OPERB-A produces patch endpoints; two objects make two runs.
  std::vector<traj::TimedSegment> input =
      SimplifyTimed(t, baselines::Algorithm::kOPERBA, 7);
  const std::vector<traj::TimedSegment> second =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 40000000001ULL);
  input.insert(input.end(), second.begin(), second.end());

  std::vector<std::uint8_t> encoded;
  codec::EncodeSegmentBlock(input, &encoded);
  const auto decoded = codec::DecodeSegmentBlock(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectTimedEqual(*decoded, input, "codec round trip");
}

TEST(SegmentCodecTest, EmptyBlockAndCorruptionAreHandled) {
  std::vector<std::uint8_t> encoded;
  codec::EncodeSegmentBlock({}, &encoded);
  const auto decoded = codec::DecodeSegmentBlock(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->empty());

  EXPECT_EQ(codec::DecodeSegmentBlock(std::span<const std::uint8_t>())
                .status()
                .code(),
            StatusCode::kCorruption);
  // Truncate a real block mid-stream.
  const traj::Trajectory t = testutil::StraightLine(20);
  codec::EncodeSegmentBlock(SimplifyTimed(t, baselines::Algorithm::kOPERB, 1),
                            &encoded);
  const std::span<const std::uint8_t> half(encoded.data(),
                                           encoded.size() / 2);
  EXPECT_EQ(codec::DecodeSegmentBlock(half).status().code(),
            StatusCode::kCorruption);
}

TEST(SegmentCodecTest, VarintRejectsOverlongEncodings) {
  // 9 continuation bytes then 0x7F: the 10th byte's upper bits would
  // shift past bit 63 — must fail, not silently truncate.
  const std::vector<std::uint8_t> overlong = {0x80, 0x80, 0x80, 0x80, 0x80,
                                              0x80, 0x80, 0x80, 0x80, 0x7F};
  std::size_t pos = 0;
  std::uint64_t v = 0;
  EXPECT_FALSE(codec::GetVarint(overlong, &pos, &v));
  // The canonical 10-byte encoding of UINT64_MAX still decodes.
  std::vector<std::uint8_t> max_bytes;
  codec::PutVarint(std::numeric_limits<std::uint64_t>::max(), &max_bytes);
  ASSERT_EQ(max_bytes.size(), 10u);
  pos = 0;
  EXPECT_TRUE(codec::GetVarint(max_bytes, &pos, &v));
  EXPECT_EQ(v, std::numeric_limits<std::uint64_t>::max());
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

/// The acceptance matrix: every algorithm x every golden profile must
/// round-trip through the store bit-identically to the in-memory sink
/// output, and therefore to tests/golden.
class StoreGoldenTest
    : public testing::TestWithParam<datagen::DatasetKind> {};

TEST_P(StoreGoldenTest, AllAlgorithmsRoundTripBitIdentically) {
  const datagen::DatasetKind kind = GetParam();
  const traj::Trajectory t = testutil::GoldenTrajectory(kind);
  const std::string path =
      TempPath("store_golden_" + std::string(datagen::DatasetName(kind)) +
               ".store");

  // One store per profile; object id = algorithm index.
  std::vector<std::vector<traj::TimedSegment>> expected;
  {
    store::StoreWriterOptions options;
    options.zeta = testutil::kGoldenZeta;
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    traj::ObjectId id = 0;
    for (const baselines::Algorithm algorithm : baselines::AllAlgorithms()) {
      expected.push_back(SimplifyTimed(t, algorithm, id));
      for (const traj::TimedSegment& s : expected.back()) {
        ASSERT_TRUE(writer.value()->Append(s).ok());
      }
      ++id;
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }

  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->zeta(), testutil::kGoldenZeta);
  EXPECT_FALSE(reader.value()->open_info().tail_dropped);

  traj::ObjectId id = 0;
  for (const baselines::Algorithm algorithm : baselines::AllAlgorithms()) {
    const std::string label =
        std::string(baselines::AlgorithmName(algorithm)) + " on " +
        std::string(datagen::DatasetName(kind));
    const auto got = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTimedEqual(*got, expected[id], label);

    // And directly against the committed fixtures: the store is the
    // third pinned path (batch, sink, store) to the same bytes.
    const std::vector<traj::RepresentedSegment> golden = testutil::LoadGolden(
        std::string(OPERB_GOLDEN_DIR) + "/golden_" +
        std::string(baselines::AlgorithmName(algorithm)) + "_" +
        std::string(datagen::DatasetName(kind)) + ".csv");
    if (!HasFailure()) {
      testutil::ExpectSegmentsEqual(Untimed(*got), golden,
                                    label + " vs golden fixture");
    }
    ++id;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProfiles, StoreGoldenTest,
    testing::ValuesIn(datagen::AllDatasetKinds()),
    [](const testing::TestParamInfo<datagen::DatasetKind>& info) {
      return std::string(datagen::DatasetName(info.param));
    });

// ---------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------

TEST(StoreTest, EmptyStoreServesEmptyAnswers) {
  const std::string path = TempPath("store_empty.store");
  {
    auto writer = store::StoreWriter::Create(path);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer.value()->Close().ok());
    EXPECT_EQ(writer.value()->stats().blocks, 0u);
    EXPECT_EQ(writer.value()->stats().segments, 0u);
  }
  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->block_count(), 0u);
  EXPECT_EQ(reader.value()->segment_count(), 0u);

  const auto rec = reader.value()->ReconstructObject(0);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->empty());

  geo::BoundingBox window;
  window.Extend(geo::Vec2{-1e9, -1e9});
  window.Extend(geo::Vec2{1e9, 1e9});
  const auto win = reader.value()->QueryWindow(window);
  ASSERT_TRUE(win.ok());
  EXPECT_TRUE(win->empty());

  EXPECT_EQ(reader.value()->PositionAt(0, 0.0).status().code(),
            StatusCode::kNotFound);
}

TEST(StoreTest, SingleSegmentObjectRoundTrips) {
  const std::string path = TempPath("store_single.store");
  const traj::Trajectory t = testutil::StraightLine(2);
  const std::vector<traj::TimedSegment> segments =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 42);
  ASSERT_EQ(segments.size(), 1u);
  const auto reader = WriteAndOpen(path, segments);
  const auto got = reader->ReconstructObject(42);
  ASSERT_TRUE(got.ok());
  ExpectTimedEqual(*got, segments, "single segment");
  // The unknown object answers empty, not an error.
  const auto other = reader->ReconstructObject(41);
  ASSERT_TRUE(other.ok());
  EXPECT_TRUE(other->empty());
}

TEST(StoreTest, TimeRangeStraddlingBlockBoundaries) {
  const std::string path = TempPath("store_straddle.store");
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 3000, 17);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 5);
  // Minimum budget => many small blocks of one object.
  const auto reader = WriteAndOpen(path, all, /*block_budget=*/1024);
  ASSERT_GE(reader->block_count(), 3u)
      << "fixture too small to form multiple blocks";

  // Full reconstruction equals the in-memory sequence despite blocking.
  const auto full = reader->ReconstructObject(5);
  ASSERT_TRUE(full.ok());
  ExpectTimedEqual(*full, all, "multi-block full reconstruction");

  // A range centered on a block boundary: expected = the time-overlap
  // filter of the in-memory sequence.
  const double boundary = reader->segment_count() > 0
                              ? all[all.size() / 2].t_start
                              : 0.0;
  const double t0 = boundary - 40.0;
  const double t1 = boundary + 40.0;
  std::vector<traj::TimedSegment> expected;
  for (const traj::TimedSegment& s : all) {
    if (s.t_start <= t1 && t0 <= s.t_end) expected.push_back(s);
  }
  store::StoreQueryStats stats;
  const auto ranged = reader->ReconstructObject(5, t0, t1, &stats);
  ASSERT_TRUE(ranged.ok());
  ExpectTimedEqual(*ranged, expected, "straddling range");
  EXPECT_FALSE(expected.empty());
  // The range prunes: some block outside [t0, t1] was skipped unread.
  EXPECT_GE(stats.blocks_skipped, 1u);
}

TEST(StoreTest, WindowQuerySkipsBlocksOnFooterMetadata) {
  const std::string path = TempPath("store_window.store");
  // Two spatially disjoint objects, far beyond any zeta inflation.
  const traj::Trajectory near_origin = testutil::ZigZag(120);
  traj::Trajectory far_away;
  for (const geo::Point& p : testutil::ZigZag(120)) {
    far_away.AppendUnchecked({p.x + 1e6, p.y + 1e6, p.t});
  }
  std::vector<traj::TimedSegment> all =
      SimplifyTimed(near_origin, baselines::Algorithm::kOPERB, 1);
  const std::vector<traj::TimedSegment> far =
      SimplifyTimed(far_away, baselines::Algorithm::kOPERB, 2);
  const std::size_t near_count = all.size();
  all.insert(all.end(), far.begin(), far.end());

  // Blocks smaller than one object's encoding: each object spans blocks,
  // so some block holds only the far object.
  const auto reader = WriteAndOpen(path, all, /*block_budget=*/1024);
  ASSERT_GE(reader->block_count(), 2u);

  geo::BoundingBox window;
  window.Extend(geo::Vec2{-100.0, -100.0});
  window.Extend(geo::Vec2{3000.0, 100.0});

  // The acceptance assertion: the far blocks are skipped on footer
  // metadata alone.
  store::StoreQueryStats stats;
  const auto got = reader->QueryWindow(window, -kInf, kInf, &stats);
  ASSERT_TRUE(got.ok());
  EXPECT_GE(stats.blocks_skipped, 1u);
  EXPECT_EQ(stats.blocks_skipped + stats.blocks_scanned,
            stats.blocks_total);
  EXPECT_FALSE(got->empty());
  EXPECT_LE(got->size(), near_count);
  for (const traj::TimedSegment& s : *got) {
    EXPECT_EQ(s.object_id, 1u) << "far object leaked into the window";
  }

  // A window touching nothing: every block is skipped, none decoded.
  geo::BoundingBox nowhere;
  nowhere.Extend(geo::Vec2{5e7, 5e7});
  nowhere.Extend(geo::Vec2{5e7 + 10, 5e7 + 10});
  store::StoreQueryStats none_stats;
  const auto none = reader->QueryWindow(nowhere, -kInf, kInf, &none_stats);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());
  EXPECT_EQ(none_stats.blocks_scanned, 0u);
  EXPECT_EQ(none_stats.blocks_skipped, none_stats.blocks_total);
}

TEST(StoreTest, ReopenAfterTruncationDropsOnlyTheTail) {
  const std::string path = TempPath("store_truncate.store");
  const traj::Trajectory t =
      testutil::GoldenTrajectory(datagen::DatasetKind::kSerCar);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 9);
  std::size_t blocks_before = 0;
  {
    const auto reader = WriteAndOpen(path, all, /*block_budget=*/1024);
    blocks_before = reader->block_count();
    ASSERT_GE(blocks_before, 2u);
  }
  // Chop into the last block's footer inside the shard's segment file: a
  // crash mid-append (the manifest still names the file).
  const std::string segment = OnlySegmentFile(path);
  const std::string bytes = ReadFileBytes(segment);
  WriteFileBytes(segment, bytes.substr(0, bytes.size() - 17));
  const auto reopened = store::StoreReader::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.value()->open_info().tail_dropped);
  EXPECT_GT(reopened.value()->open_info().dropped_bytes, 0u);
  EXPECT_EQ(reopened.value()->block_count(), blocks_before - 1);

  // The surviving prefix still answers, and answers correctly: it is a
  // prefix of the emission order.
  const auto got = reopened.value()->ReconstructObject(9);
  ASSERT_TRUE(got.ok());
  ASSERT_LT(got->size(), all.size());
  ExpectTimedEqual(
      *got,
      std::vector<traj::TimedSegment>(all.begin(),
                                      all.begin() + got->size()),
      "post-truncation prefix");
}

TEST(StoreTest, CorruptPayloadSurfacesAsCorruptionOnRead) {
  const std::string path = TempPath("store_corrupt.store");
  const traj::Trajectory t = testutil::ZigZag(60);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 3);
  { WriteAndOpen(path, all); }
  const std::string segment = OnlySegmentFile(path);
  std::string bytes = ReadFileBytes(segment);
  // Flip one payload byte (after the 24-byte header + 4-byte length).
  bytes[store::kFileHeaderBytes + 4 + 5] ^= 0x40;
  WriteFileBytes(segment, bytes);
  // Footers are intact, so the open scan passes: payload corruption is
  // caught lazily — and through both candidate-selection paths.
  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();  // lazy checksum
  EXPECT_EQ(reader.value()->ReconstructObject(3).status().code(),
            StatusCode::kCorruption);
  geo::BoundingBox everywhere;
  everywhere.Extend(geo::Vec2{-1e9, -1e9});
  everywhere.Extend(geo::Vec2{1e9, 1e9});
  EXPECT_EQ(reader.value()
                ->QueryWindow(everywhere, -kInf, kInf, nullptr,
                              store::ScanMode::kIndexed)
                .status()
                .code(),
            StatusCode::kCorruption);
  EXPECT_EQ(reader.value()
                ->QueryWindow(everywhere, -kInf, kInf, nullptr,
                              store::ScanMode::kFlatScan)
                .status()
                .code(),
            StatusCode::kCorruption);
}

/// One block frame of a segment file, split out for surgery.
struct Frame {
  std::size_t payload_at = 0;  ///< file offset of the payload
  std::vector<std::uint8_t> payload;
  store::BlockFooter footer;
};

/// The block frames of segment-file bytes, in file order.
std::vector<Frame> SplitFrames(const std::string& file) {
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(file.data());
  std::vector<Frame> frames;
  std::size_t pos = store::kFileHeaderBytes;
  while (pos + 4 <= file.size()) {
    Frame f;
    const std::uint32_t len = static_cast<std::uint32_t>(bytes[pos]) |
                              static_cast<std::uint32_t>(bytes[pos + 1]) << 8 |
                              static_cast<std::uint32_t>(bytes[pos + 2]) << 16 |
                              static_cast<std::uint32_t>(bytes[pos + 3]) << 24;
    f.payload_at = pos + 4;
    f.payload.assign(bytes + f.payload_at, bytes + f.payload_at + len);
    auto footer = store::DecodeFooter(std::span<const std::uint8_t>(
        bytes + f.payload_at + len, store::kBlockFooterBytes));
    EXPECT_TRUE(footer.ok()) << footer.status().ToString();
    if (!footer.ok()) break;
    f.footer = *footer;
    frames.push_back(std::move(f));
    pos += 4 + len + store::kBlockFooterBytes;
  }
  return frames;
}

/// Segment-file bytes: `file`'s header, then `frames`, each with its
/// length, payload checksum and footer checksum recomputed, so the file
/// passes every check short of decoding the payloads.
std::string JoinFrames(const std::string& file, std::vector<Frame> frames) {
  std::vector<std::uint8_t> out(file.begin(),
                                file.begin() + store::kFileHeaderBytes);
  for (Frame& f : frames) {
    f.footer.payload_bytes = static_cast<std::uint32_t>(f.payload.size());
    f.footer.checksum = store::BlockChecksum(f.payload, f.footer);
    f.footer.footer_checksum = store::FooterChecksum(f.footer);
    for (int i = 0; i < 4; ++i) {
      out.push_back(static_cast<std::uint8_t>(f.footer.payload_bytes >> (8 * i)));
    }
    out.insert(out.end(), f.payload.begin(), f.payload.end());
    store::EncodeFooter(f.footer, &out);
  }
  return std::string(out.begin(), out.end());
}

TEST(StoreTest, CorruptBlockMidAnswerFailsTheWholeQuery) {
  // One object over many small blocks; the middle one is damaged in
  // each way a read can detect. Every query whose answer runs through
  // it must fail whole, even after earlier blocks have matched.
  const std::string path = TempPath("store_corrupt_mid.store");
  const traj::Trajectory t =
      testutil::Generated(datagen::DatasetKind::kSerCar, 3000, 17);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 5);
  { WriteAndOpen(path, all, /*block_budget=*/1024); }
  const std::string segment = OnlySegmentFile(path);
  const std::string original = ReadFileBytes(segment);
  const std::vector<Frame> frames = SplitFrames(original);
  ASSERT_GE(frames.size(), 3u) << "fixture too small to form 3 blocks";
  ASSERT_EQ(JoinFrames(original, frames), original);
  const std::size_t mid = frames.size() / 2;
  // The middle block's first instant: PositionAt there finds its answer
  // at the end of the block before, and must still read the middle one.
  const double t_mid = frames[mid].footer.t_min;
  ASSERT_EQ(frames[mid - 1].footer.t_max, t_mid);

  geo::BoundingBox everywhere;
  everywhere.Extend(geo::Vec2{-1e9, -1e9});
  everywhere.Extend(geo::Vec2{1e9, 1e9});
  const auto expect_all_fail = [&](const std::string& damaged,
                                   const std::string& label) {
    WriteFileBytes(segment, damaged);
    const auto reader = store::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << label << ": " << reader.status().ToString();
    const store::StoreReader& r = *reader.value();
    for (const store::ScanMode mode :
         {store::ScanMode::kIndexed, store::ScanMode::kFlatScan}) {
      EXPECT_EQ(r.QueryWindow(everywhere, -kInf, kInf, nullptr, mode)
                    .status()
                    .code(),
                StatusCode::kCorruption)
          << label << " window, mode " << static_cast<int>(mode);
    }
    EXPECT_EQ(r.ReconstructObject(5).status().code(),
              StatusCode::kCorruption)
        << label << " reconstruct";
    EXPECT_EQ(r.PositionAt(5, t_mid).status().code(),
              StatusCode::kCorruption)
        << label << " position";
  };

  {
    // Intact, the same queries answer.
    const auto reader = store::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_TRUE(reader.value()->QueryWindow(everywhere).ok());
    const auto full = reader.value()->ReconstructObject(5);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ExpectTimedEqual(*full, all, "intact");
    EXPECT_TRUE(reader.value()->PositionAt(5, t_mid).ok());
  }
  {
    // A flipped payload byte: the payload checksum no longer holds.
    std::string damaged = original;
    damaged[frames[mid].payload_at + frames[mid].payload.size() / 2] ^= 0x40;
    expect_all_fail(damaged, "flipped byte");
  }
  {
    // A bad patch flag behind a valid checksum: the decoder's verdict.
    // The first segment's flag byte follows five varints: the run count,
    // the run's id delta and length, and the segment's two index deltas.
    std::vector<Frame> bad = frames;
    const std::span<const std::uint8_t> payload(bad[mid].payload);
    std::size_t pos = 0;
    for (int field = 0; field < 5; ++field) {
      std::uint64_t ignored = 0;
      ASSERT_TRUE(codec::GetVarint(payload, &pos, &ignored));
    }
    ASSERT_LE(bad[mid].payload[pos], 3);
    bad[mid].payload[pos] = 4;
    expect_all_fail(JoinFrames(original, bad), "bad patch flag");
  }
  {
    // A trailing byte behind a valid checksum.
    std::vector<Frame> bad = frames;
    bad[mid].payload.push_back(0);
    expect_all_fail(JoinFrames(original, bad), "trailing byte");
  }
  {
    // A footer whose segment count disagrees with its payload.
    std::vector<Frame> bad = frames;
    ++bad[mid].footer.segment_count;
    expect_all_fail(JoinFrames(original, bad), "segment count");
  }
  WriteFileBytes(segment, original);
}

TEST(StoreTest, InvertedFooterRangesFailOpenWithStatus) {
  // A hand-crafted block whose checksums are internally consistent but
  // whose id range is inverted: the open scan must answer Corruption
  // with a field-naming message — never a CHECK abort or a silent
  // acceptance (satellite: ValidateFooterRanges through Status).
  const std::string path = TempPath("store_inverted.store");
  const traj::Trajectory t = testutil::ZigZag(40);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 3);
  { WriteAndOpen(path, all); }
  const std::string segment = OnlySegmentFile(path);
  const std::string original = ReadFileBytes(segment);
  ASSERT_GT(original.size(), store::kBlockFooterBytes);

  // The file ends with the last block's footer; rewrite it with an
  // inverted id range and recomputed checksums.
  const std::size_t footer_at = original.size() - store::kBlockFooterBytes;
  const std::span<const std::uint8_t> footer_bytes(
      reinterpret_cast<const std::uint8_t*>(original.data()) + footer_at,
      store::kBlockFooterBytes);
  auto footer = store::DecodeFooter(footer_bytes);
  ASSERT_TRUE(footer.ok()) << footer.status().ToString();
  footer->object_min = footer->object_max + 1;  // inverted
  const std::span<const std::uint8_t> payload(
      reinterpret_cast<const std::uint8_t*>(original.data()) + footer_at -
          footer->payload_bytes,
      footer->payload_bytes);
  footer->checksum = store::BlockChecksum(payload, *footer);
  footer->footer_checksum = store::FooterChecksum(*footer);
  std::vector<std::uint8_t> encoded;
  store::EncodeFooter(*footer, &encoded);
  ASSERT_EQ(encoded.size(), store::kBlockFooterBytes);
  std::string patched = original;
  std::copy(encoded.begin(), encoded.end(),
            reinterpret_cast<std::uint8_t*>(patched.data()) + footer_at);
  WriteFileBytes(segment, patched);

  const auto reopened = store::StoreReader::Open(path);
  ASSERT_FALSE(reopened.ok());
  EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption);
  EXPECT_NE(reopened.status().ToString().find("inverted object id range"),
            std::string::npos)
      << reopened.status().ToString();

  // The same treatment for the time interval and the bounding box.
  auto patch_and_open = [&](auto mutate) {
    auto f = store::DecodeFooter(footer_bytes);
    EXPECT_TRUE(f.ok());
    mutate(&*f);
    f->checksum = store::BlockChecksum(payload, *f);
    f->footer_checksum = store::FooterChecksum(*f);
    std::vector<std::uint8_t> bytes;
    store::EncodeFooter(*f, &bytes);
    std::string next = original;
    std::copy(bytes.begin(), bytes.end(),
              reinterpret_cast<std::uint8_t*>(next.data()) + footer_at);
    WriteFileBytes(segment, next);
    return store::StoreReader::Open(path).status();
  };
  const Status bad_time = patch_and_open([](store::BlockFooter* f) {
    f->t_min = f->t_max + 1.0;
  });
  EXPECT_EQ(bad_time.code(), StatusCode::kCorruption);
  EXPECT_NE(bad_time.ToString().find("inverted time interval"),
            std::string::npos);
  const Status bad_box = patch_and_open([](store::BlockFooter* f) {
    f->min_x = f->max_x + 1.0;
  });
  EXPECT_EQ(bad_box.code(), StatusCode::kCorruption);
  EXPECT_NE(bad_box.ToString().find("inverted bounding box"),
            std::string::npos);
}

TEST(StoreTest, FooterCorruptionMatrixAlwaysSurfacesAsCorruption) {
  // The corruption matrix (satellite): flip one byte at *every* offset of
  // a sealed block's footer; every flip must surface as Corruption at
  // open — caught footer-only by the v2 footer checksum (or the footer
  // magic / range validation), never a crash or a silently wrong answer.
  const std::string path = TempPath("store_matrix.store");
  const traj::Trajectory t = testutil::ZigZag(40);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 3);
  { WriteAndOpen(path, all); }
  const std::string segment = OnlySegmentFile(path);
  const std::string original = ReadFileBytes(segment);
  ASSERT_GT(original.size(), store::kBlockFooterBytes);
  const std::size_t footer_at = original.size() - store::kBlockFooterBytes;

  for (std::size_t offset = 0; offset < store::kBlockFooterBytes; ++offset) {
    std::string corrupted = original;
    corrupted[footer_at + offset] =
        static_cast<char>(corrupted[footer_at + offset] ^ 0x01);
    WriteFileBytes(segment, corrupted);
    const auto reopened = store::StoreReader::Open(path);
    ASSERT_FALSE(reopened.ok())
        << "flipped footer byte " << offset << " went undetected";
    EXPECT_EQ(reopened.status().code(), StatusCode::kCorruption)
        << "footer byte " << offset << ": "
        << reopened.status().ToString();
  }
  // Restore: the pristine file opens again (the matrix itself did not
  // wear anything out).
  WriteFileBytes(segment, original);
  EXPECT_TRUE(store::StoreReader::Open(path).ok());
}

TEST(StoreTest, OpenRejectsForeignAndTruncatedHeaders) {
  const std::string path = TempPath("store_badheader.store");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "definitely not a store";
  }
  EXPECT_EQ(store::StoreReader::Open(path).status().code(),
            StatusCode::kCorruption);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "xy";
  }
  EXPECT_EQ(store::StoreReader::Open(path).status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(store::StoreReader::Open(TempPath("no_such.store"))
                .status()
                .code(),
            StatusCode::kIOError);

  // Inside a store directory, a segment file with a foreign, truncated
  // or version-1 header fails the open the same way.
  const std::string dir = TempPath("store_badsegheader.store");
  {
    WriteAndOpen(dir, SimplifyTimed(testutil::ZigZag(40),
                                    baselines::Algorithm::kOPERB, 3));
  }
  const std::string segment = OnlySegmentFile(dir);
  std::string version1 = ReadFileBytes(segment);
  version1[7] = '1';
  version1[8] = 1;
  for (const std::string& bad :
       {std::string("definitely not a store"), std::string("xy"),
        version1}) {
    WriteFileBytes(segment, bad);
    EXPECT_EQ(store::StoreReader::Open(dir).status().code(),
              StatusCode::kCorruption);
  }
}

TEST(StoreChecksumTest, Xxh64MatchesReferenceVectors) {
  auto xxh64 = [](std::string_view s, std::uint64_t seed = 0) {
    return serial::Xxh64(
        std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(s.data()), s.size()),
        seed);
  };
  EXPECT_EQ(xxh64(""), 0xEF46DB3751D8E999ULL);
  EXPECT_EQ(xxh64("a"), 0xD24EC4F1A98C6E5BULL);
  EXPECT_EQ(xxh64("abc"), 0x44BC2CF5AD770999ULL);
  // 39 bytes: one 32-byte stripe, then the 4-byte and 1-byte tails.
  EXPECT_EQ(xxh64("Nobody inspects the spammish repetition"),
            0xFBCEA83C8A378BF1ULL);
  EXPECT_EQ(xxh64("xxhash"), 0x32DD38952C4BC720ULL);
  EXPECT_EQ(xxh64("xxhash", 20141025), 0xB559B98D844E0635ULL);
}

TEST(StoreTest, OpenRefusesAVersion2SegmentFile) {
  // Rewrite a freshly written file into the exact bytes the version-2
  // writer produced: header version 2 and FNV-1a64 block checksums.
  const std::string dir = TempPath("store_version2.store");
  {
    WriteAndOpen(dir, SimplifyTimed(testutil::ZigZag(200),
                                    baselines::Algorithm::kOPERB, 3),
                 /*block_budget=*/1024);
  }
  const std::string segment = OnlySegmentFile(dir);
  std::string bytes = ReadFileBytes(segment);
  {
    const auto file = store::SegmentFileReader::Open(segment);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_GT(file.value()->blocks().size(), 1u);
    auto* raw = reinterpret_cast<std::uint8_t*>(bytes.data());
    for (const store::BlockRef& b : file.value()->blocks()) {
      const std::span<const std::uint8_t> payload(raw + b.payload_offset,
                                                  b.footer.payload_bytes);
      std::vector<std::uint8_t> footer;
      store::EncodeFooter(b.footer, &footer);
      const std::uint64_t checksum = serial::Fnv1a64(
          std::span<const std::uint8_t>(footer).first(
              store::kBlockFooterBytes - 16),
          serial::Fnv1a64(payload));
      footer.resize(store::kBlockFooterBytes - 16);
      serial::PutU64(checksum, &footer);
      serial::PutU64(serial::Fnv1a64(footer), &footer);
      std::copy(footer.begin(), footer.end(),
                raw + b.payload_offset + b.footer.payload_bytes);
    }
  }
  bytes[7] = '2';
  bytes[8] = 2;
  WriteFileBytes(segment, bytes);

  const Status opened = store::StoreReader::Open(dir).status();
  EXPECT_EQ(opened.code(), StatusCode::kCorruption);
  EXPECT_NE(opened.ToString().find("unsupported store format version 2"),
            std::string::npos)
      << opened.ToString();
}

TEST(StoreTest, EverySingleBitFlipInASealedBlockIsCaughtOnRead) {
  // One small block: flip each bit of its payload and footer in turn.
  // A footer flip fails the footer-only open scan; a payload flip
  // passes it and fails the payload checksum on read. Both are
  // Corruption.
  const std::string dir = TempPath("store_bitflips.store");
  {
    WriteAndOpen(dir, SimplifyTimed(testutil::ZigZag(40),
                                    baselines::Algorithm::kOPERB, 3));
  }
  const std::string segment = OnlySegmentFile(dir);
  const std::string original = ReadFileBytes(segment);
  const std::size_t payload_at = store::kFileHeaderBytes + 4;
  ASSERT_GT(original.size(), payload_at + store::kBlockFooterBytes);
  {
    const auto file = store::SegmentFileReader::Open(segment);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    ASSERT_EQ(file.value()->blocks().size(), 1u);
    ASSERT_TRUE(file.value()->ReadBlock(0).ok());
  }

  std::size_t caught_at_open = 0;
  for (std::size_t byte = payload_at; byte < original.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = original;
      flipped[byte] = static_cast<char>(flipped[byte] ^ (1 << bit));
      WriteFileBytes(segment, flipped);
      const auto file = store::SegmentFileReader::Open(segment);
      const Status read =
          file.ok() ? file.value()->ReadBlock(0).status() : file.status();
      caught_at_open += file.ok() ? 0 : 1;
      ASSERT_EQ(read.code(), StatusCode::kCorruption)
          << "byte " << byte << " bit " << bit << ": " << read.ToString();
    }
  }
  // Exactly the footer's bits fail the open scan.
  EXPECT_EQ(caught_at_open, 8 * store::kBlockFooterBytes);
  WriteFileBytes(segment, original);
}

TEST(StoreTest, WriterRejectsBadOptionsAndLateAppends) {
  store::StoreWriterOptions bad_zeta;
  bad_zeta.zeta = 0.0;
  EXPECT_EQ(store::StoreWriter::Create(TempPath("x.store"), bad_zeta)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  store::StoreWriterOptions bad_budget;
  bad_budget.block_budget_bytes = 16;
  EXPECT_EQ(store::StoreWriter::Create(TempPath("x.store"), bad_budget)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // A budget above the u32 frame headroom is rejected up front (a
  // payload overshooting 4 GiB would wrap the length prefix).
  store::StoreWriterOptions huge_budget;
  huge_budget.block_budget_bytes = std::size_t{5} << 30;
  EXPECT_EQ(store::StoreWriter::Create(TempPath("x.store"), huge_budget)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store::StoreWriter::Create("/nonexistent-dir/x.store")
                .status()
                .code(),
            StatusCode::kIOError);

  auto writer = store::StoreWriter::Create(TempPath("store_closed.store"));
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_EQ(writer.value()->Append({}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(writer.value()->Close().ok());  // idempotent
}

// ---------------------------------------------------------------------
// Sharding and compaction equivalence
// ---------------------------------------------------------------------

/// One fixture feed: 12 objects over three profiles, simplified with
/// OPERB at the golden zeta.
std::vector<std::vector<traj::TimedSegment>> MultiObjectFeed() {
  std::vector<std::vector<traj::TimedSegment>> per_object;
  for (traj::ObjectId id = 0; id < 12; ++id) {
    const traj::Trajectory t = testutil::Generated(
        datagen::DatasetKind::kTaxi, 200, 50 + id);
    per_object.push_back(SimplifyTimed(t, baselines::Algorithm::kOPERB, id));
  }
  return per_object;
}

/// Everything a query equivalence check compares: per-object
/// reconstructions plus a window answered by both scan modes.
struct QuerySnapshot {
  std::vector<std::vector<traj::TimedSegment>> reconstructions;
  std::vector<traj::TimedSegment> window_indexed;
  std::vector<traj::TimedSegment> window_flat;
  store::StoreQueryStats indexed_stats;
  store::StoreQueryStats flat_stats;
};

QuerySnapshot Snapshot(const std::string& path, std::size_t objects,
                       const geo::BoundingBox& window) {
  QuerySnapshot snap;
  const auto reader = store::StoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  if (!reader.ok()) return snap;
  for (traj::ObjectId id = 0; id < objects; ++id) {
    auto rec = reader.value()->ReconstructObject(id);
    EXPECT_TRUE(rec.ok()) << rec.status().ToString();
    snap.reconstructions.push_back(rec.ok() ? *std::move(rec)
                                            : std::vector<traj::TimedSegment>());
  }
  auto indexed = reader.value()->QueryWindow(window, -kInf, kInf,
                                             &snap.indexed_stats,
                                             store::ScanMode::kIndexed);
  EXPECT_TRUE(indexed.ok()) << indexed.status().ToString();
  if (indexed.ok()) snap.window_indexed = *std::move(indexed);
  auto flat = reader.value()->QueryWindow(window, -kInf, kInf,
                                          &snap.flat_stats,
                                          store::ScanMode::kFlatScan);
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  if (flat.ok()) snap.window_flat = *std::move(flat);
  return snap;
}

void ExpectSnapshotsEqual(const QuerySnapshot& actual,
                          const QuerySnapshot& want,
                          const std::string& label) {
  ASSERT_EQ(actual.reconstructions.size(), want.reconstructions.size());
  for (std::size_t i = 0; i < actual.reconstructions.size(); ++i) {
    ExpectTimedEqual(actual.reconstructions[i], want.reconstructions[i],
                     label + " object " + std::to_string(i));
  }
  ExpectTimedEqual(actual.window_indexed, want.window_indexed,
                   label + " window (indexed)");
  ExpectTimedEqual(actual.window_flat, want.window_flat,
                   label + " window (flat)");
}

TEST(StoreShardingTest, QueriesAreByteIdenticalAcrossShardCounts) {
  const std::vector<std::vector<traj::TimedSegment>> per_object =
      MultiObjectFeed();
  geo::BoundingBox window;
  window.Extend(geo::Vec2{-500.0, -500.0});
  window.Extend(geo::Vec2{1500.0, 1500.0});

  QuerySnapshot reference;
  bool have_reference = false;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    const std::string path =
        TempPath("store_shards_" + std::to_string(shards) + ".store");
    store::StoreWriterOptions options;
    options.zeta = testutil::kGoldenZeta;
    options.block_budget_bytes = 2048;
    options.num_shards = shards;
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const auto& object : per_object) {
      for (const traj::TimedSegment& s : object) {
        ASSERT_TRUE(writer.value()->Append(s).ok());
      }
    }
    ASSERT_TRUE(writer.value()->Close().ok());

    const auto reader = store::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->num_shards(), shards);
    EXPECT_EQ(reader.value()->file_count(), shards);

    QuerySnapshot snap = Snapshot(path, per_object.size(), window);
    ASSERT_FALSE(HasFatalFailure());
    // Reconstructions equal the in-memory emission at every shard count.
    for (std::size_t id = 0; id < per_object.size(); ++id) {
      ExpectTimedEqual(snap.reconstructions[id], per_object[id],
                       "shards=" + std::to_string(shards) + " object " +
                           std::to_string(id));
    }
    // Indexed and flat scans agree on results *and* on the candidate
    // set (the index's entry predicates are the flat scan's predicates).
    ExpectTimedEqual(snap.window_indexed, snap.window_flat,
                     "indexed vs flat, shards=" + std::to_string(shards));
    EXPECT_EQ(snap.indexed_stats.blocks_scanned,
              snap.flat_stats.blocks_scanned);
    EXPECT_EQ(snap.indexed_stats.blocks_skipped,
              snap.flat_stats.blocks_skipped);
    EXPECT_LE(snap.indexed_stats.index_nodes_visited,
              reader.value()->index_node_count());
    EXPECT_EQ(snap.flat_stats.index_nodes_visited, 0u);
    if (have_reference) {
      ExpectSnapshotsEqual(snap, reference,
                           "shards=" + std::to_string(shards) +
                               " vs shards=1");
    } else {
      reference = std::move(snap);
      have_reference = true;
    }
  }
}

TEST(StoreCompactionTest, QueriesAreByteIdenticalAcrossCompactionStates) {
  // Three append sessions x 4 shards: every shard holds three level-0
  // files — the LSM shape compaction exists for. Queries must answer
  // byte-identically uncompacted, at every mid-compaction manifest
  // generation, and fully compacted (satellite 3).
  const std::string path = TempPath("store_compact_eq.store");
  const std::vector<std::vector<traj::TimedSegment>> per_object =
      MultiObjectFeed();
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.block_budget_bytes = 1024;  // many small frames to merge
  options.num_shards = 4;
  for (int session = 0; session < 3; ++session) {
    options.append = session > 0;
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::size_t id = static_cast<std::size_t>(session) * 4;
         id < static_cast<std::size_t>(session + 1) * 4; ++id) {
      for (const traj::TimedSegment& s : per_object[id]) {
        ASSERT_TRUE(writer.value()->Append(s).ok());
      }
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  ASSERT_EQ(SegmentFilesIn(path).size(), 12u) << "3 sessions x 4 shards";

  geo::BoundingBox window;
  window.Extend(geo::Vec2{-500.0, -500.0});
  window.Extend(geo::Vec2{1500.0, 1500.0});
  const QuerySnapshot uncompacted =
      Snapshot(path, per_object.size(), window);
  ASSERT_FALSE(HasFatalFailure());

  // Mid-compaction: compact two of the four shards, one generation
  // each. The manifest now mixes merged and unmerged shards.
  store::Compactor compactor(path);
  for (const std::uint32_t shard : {0u, 2u}) {
    const auto mid = compactor.CompactShard(shard);
    ASSERT_TRUE(mid.ok()) << mid.status().ToString();
    EXPECT_EQ(mid->generations_committed, 1u);
    const QuerySnapshot snap = Snapshot(path, per_object.size(), window);
    ASSERT_FALSE(HasFatalFailure());
    ExpectSnapshotsEqual(snap, uncompacted,
                         "mid-compaction after shard " +
                             std::to_string(shard));
  }

  // Full pass: every remaining shard merges; files drop to one per
  // shard.
  const auto full = compactor.Run();
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_GE(full->shards_compacted, 2u);
  EXPECT_GT(full->write_amplification, 0.0);
  EXPECT_EQ(SegmentFilesIn(path).size(), 4u);
  const QuerySnapshot compacted = Snapshot(path, per_object.size(), window);
  ASSERT_FALSE(HasFatalFailure());
  ExpectSnapshotsEqual(compacted, uncompacted, "fully compacted");

  // Idempotence: a second pass finds nothing to do.
  const auto again = compactor.Run();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->shards_compacted, 0u);
  EXPECT_EQ(again->generations_committed, 0u);

  // Out-of-range shard: InvalidArgument, not a crash.
  EXPECT_EQ(compactor.CompactShard(99).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreCompactionTest, CompactionDuringLiveSessionKeepsEmissionOrder) {
  // An object's data spans a sealed first session and a still-active
  // second one, and a compaction commits in between. The merged (older)
  // file must slot into the manifest at the sealed inputs' position —
  // ahead of the active session's file — or the reader replays the
  // object's newer segments before its older ones, and the next
  // compaction bakes that order in permanently.
  const std::string path = TempPath("store_compact_live.store");
  const std::vector<std::vector<traj::TimedSegment>> per_object =
      MultiObjectFeed();
  const std::vector<traj::TimedSegment>& all = per_object[0];
  ASSERT_GE(all.size(), 4u);
  const std::size_t half = all.size() / 2;

  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.block_budget_bytes = 1024;
  options.num_shards = 2;
  {
    auto first = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    for (std::size_t i = 0; i < half; ++i) {
      ASSERT_TRUE(first.value()->Append(all[i]).ok());
    }
    ASSERT_TRUE(first.value()->Close().ok());
  }

  store::StoreWriterOptions session = options;
  session.append = true;
  auto second = store::StoreWriter::Create(path, session);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  for (std::size_t i = half; i < all.size(); ++i) {
    ASSERT_TRUE(second.value()->Append(all[i]).ok());
  }

  // The compaction commits while the second session is live: it merges
  // only the first session's sealed file of the object's shard.
  store::Compactor compactor(path);
  const std::uint32_t shard = static_cast<std::uint32_t>(
      traj::ShardOfObject(all[0].object_id, options.num_shards));
  const auto mid = compactor.CompactShard(shard);
  ASSERT_TRUE(mid.ok()) << mid.status().ToString();
  EXPECT_EQ(mid->generations_committed, 1u);

  ASSERT_TRUE(second.value()->Close().ok());

  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  const auto rec = reader.value()->ReconstructObject(all[0].object_id);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectTimedEqual(*rec, all, "object spanning sealed file + live session");

  // And the order survives the next full pass merging both halves.
  ASSERT_TRUE(compactor.Run().ok());
  const auto compacted = store::StoreReader::Open(path);
  ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
  const auto rec2 = compacted.value()->ReconstructObject(all[0].object_id);
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
  ExpectTimedEqual(*rec2, all, "after full compaction");
}

TEST(StoreCompactionTest, AppendSessionValidatesManifestAgreement) {
  const std::string path = TempPath("store_append_validate.store");
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.num_shards = 2;
  {
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // An append session must agree with the manifest on the partition and
  // the error bound — both are properties of the *store*, not of a
  // session.
  store::StoreWriterOptions wrong_shards = options;
  wrong_shards.append = true;
  wrong_shards.num_shards = 4;
  EXPECT_EQ(store::StoreWriter::Create(path, wrong_shards).status().code(),
            StatusCode::kInvalidArgument);
  store::StoreWriterOptions wrong_zeta = options;
  wrong_zeta.append = true;
  wrong_zeta.zeta = options.zeta * 2;
  EXPECT_EQ(store::StoreWriter::Create(path, wrong_zeta).status().code(),
            StatusCode::kInvalidArgument);
  // Append into a store that does not exist yet: IOError, not a silent
  // fresh create.
  const std::string missing = TempPath("store_no_append.store");
  std::filesystem::remove_all(missing);
  store::StoreWriterOptions fresh_append = options;
  fresh_append.append = true;
  EXPECT_EQ(store::StoreWriter::Create(missing, fresh_append)
                .status()
                .code(),
            StatusCode::kIOError);
}

TEST(StoreCompactionTest, ConcurrentAppendQueryAndBackgroundCompaction) {
  // The TSan target: an appending writer, polling readers and the
  // BackgroundCompactor all live on one store directory at once. The
  // invariants: no data race (TSan), readers only ever see committed
  // manifest generations (never Corruption), and the final state holds
  // every session's data.
  const std::string path = TempPath("store_concurrent.store");
  const std::vector<std::vector<traj::TimedSegment>> per_object =
      MultiObjectFeed();
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.block_budget_bytes = 1024;
  options.num_shards = 2;
  {
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : per_object[0]) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }

  store::BackgroundCompactor background(path, {},
                                        std::chrono::milliseconds(1));
  background.Start();

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> successful_reads{0};
  std::thread poller([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto reader = store::StoreReader::Open(path);
      if (!reader.ok()) {
        // A commit can race the open; the retry loop absorbs most of
        // it, and what remains must be IOError, never Corruption.
        EXPECT_EQ(reader.status().code(), StatusCode::kIOError)
            << reader.status().ToString();
        continue;
      }
      const auto rec = reader.value()->ReconstructObject(0);
      if (rec.ok() && !rec->empty()) {
        successful_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (std::size_t id = 1; id < per_object.size(); ++id) {
    store::StoreWriterOptions session = options;
    session.append = true;
    auto writer = store::StoreWriter::Create(path, session);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : per_object[id]) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }

  stop.store(true);
  poller.join();
  // Racing Stop() calls: exactly one joins, neither crashes (the
  // destructor adds a third, sequential, call).
  std::thread stopper([&] { background.Stop(); });
  background.Stop();
  stopper.join();
  EXPECT_TRUE(background.last_status().ok())
      << background.last_status().ToString();
  EXPECT_GE(successful_reads.load(), 1u);

  // Quiescent verification: one final pass, then every object answers
  // exactly its emission.
  store::Compactor compactor(path);
  ASSERT_TRUE(compactor.Run().ok());
  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (std::size_t id = 0; id < per_object.size(); ++id) {
    const auto rec = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ExpectTimedEqual(*rec, per_object[id],
                     "post-churn object " + std::to_string(id));
  }
}

// ---------------------------------------------------------------------
// The extent skip test behind live-tail skipping
// ---------------------------------------------------------------------

TEST(StoreQueryFilterTest, ExtentSkipNeverRejectsAMatchingSegment) {
  // Liang-Barsky rounds: this segment ends 5e-11 short of the box, yet
  // min_x - a.x and b.x - a.x round to the same double, so the test
  // accepts it. A plain box-overlap skip would drop it; the padded one
  // must not.
  {
    traj::TimedSegment s;
    s.segment.start = {-1e6, 0.5};
    s.segment.end = {1.0 - 5e-11, 0.5};
    s.t_start = 0.0;
    s.t_end = 1.0;
    geo::BoundingBox box;
    box.Extend(geo::Vec2{1.0, 0.0});
    box.Extend(geo::Vec2{2.0, 1.0});
    geo::BoundingBox extent;
    extent.Extend(s.segment.start);
    extent.Extend(s.segment.end);
    ASSERT_TRUE(store::SegmentMatchesWindow(s, box, 0.0, 1.0));
    ASSERT_FALSE(store::BoxesOverlap(extent, box));
    EXPECT_TRUE(store::ExtentMayMatchWindow(extent, 0.0, 1.0, box, 0.0, 1.0));
  }

  // Seeded segments against windows whose edges sit on, or an ulp off,
  // an endpoint coordinate, at magnitudes from 1e-3 to 1e7.
  datagen::Rng rng(20171017);
  std::size_t matches = 0;
  for (int i = 0; i < 50000; ++i) {
    const double scale = std::pow(10.0, rng.Uniform(-3.0, 7.0));
    traj::TimedSegment s;
    s.segment.start = {rng.Uniform(-scale, scale), rng.Uniform(-scale, scale)};
    s.segment.end = {rng.Uniform(-scale, scale), rng.Uniform(-scale, scale)};
    if (i % 5 == 0) s.segment.end = s.segment.start;  // zero length
    s.t_start = rng.Uniform(0.0, 100.0);
    s.t_end = s.t_start + (i % 7 == 0 ? 0.0 : rng.Uniform(0.0, 10.0));
    const geo::Vec2 anchor = i % 2 == 0 ? s.segment.start : s.segment.end;
    const double nudge[3] = {0.0, 1.0, -1.0};
    const auto edge = [&](double v, int k) {
      return nudge[k] == 0.0 ? v
                             : std::nextafter(v, nudge[k] *
                                   std::numeric_limits<double>::infinity());
    };
    const double w = rng.Uniform(0.0, scale);
    geo::BoundingBox box;
    switch (i % 4) {
      case 0:  // left edge on the anchor
        box.Extend(geo::Vec2{edge(anchor.x, i % 3), anchor.y - w});
        box.Extend(geo::Vec2{anchor.x + w, anchor.y + w});
        break;
      case 1:  // right edge on the anchor
        box.Extend(geo::Vec2{anchor.x - w, anchor.y - w});
        box.Extend(geo::Vec2{edge(anchor.x, i % 3), anchor.y + w});
        break;
      case 2:  // bottom edge on the anchor
        box.Extend(geo::Vec2{anchor.x - w, edge(anchor.y, i % 3)});
        box.Extend(geo::Vec2{anchor.x + w, anchor.y + w});
        break;
      default:  // anywhere
        box.Extend(geo::Vec2{rng.Uniform(-scale, scale),
                             rng.Uniform(-scale, scale)});
        box.Extend(geo::Vec2{rng.Uniform(-scale, scale),
                             rng.Uniform(-scale, scale)});
        break;
    }
    const double t_min = rng.Uniform(0.0, 110.0);
    const double t_max = i % 3 == 0 ? t_min : t_min + rng.Uniform(0.0, 20.0);
    if (!store::SegmentMatchesWindow(s, box, t_min, t_max)) continue;
    ++matches;
    geo::BoundingBox extent;
    extent.Extend(s.segment.start);
    extent.Extend(s.segment.end);
    ASSERT_TRUE(store::ExtentMayMatchWindow(extent, s.t_start, s.t_end, box,
                                            t_min, t_max))
        << "a matching segment was ruled out at iteration " << i;
  }
  EXPECT_GT(matches, 1000u);

  // The decided cases: an empty extent or window is skipped, a
  // non-finite window never is, and disjoint times always are.
  geo::BoundingBox unit;
  unit.Extend(geo::Vec2{0.0, 0.0});
  unit.Extend(geo::Vec2{1.0, 1.0});
  EXPECT_FALSE(store::ExtentMayMatchWindow(geo::BoundingBox{}, 0.0, 1.0, unit,
                                           0.0, 1.0));
  EXPECT_FALSE(store::ExtentMayMatchWindow(unit, 0.0, 1.0, geo::BoundingBox{},
                                           0.0, 1.0));
  geo::BoundingBox nan_box = unit;
  nan_box.max_x = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(store::ExtentMayMatchWindow(unit, 0.0, 1.0, nan_box, 0.0, 1.0));
  EXPECT_FALSE(store::ExtentMayMatchWindow(unit, 0.0, 1.0, unit, 2.0, 3.0));
}

// ---------------------------------------------------------------------
// Position-at-time and the zeta certificate
// ---------------------------------------------------------------------

TEST(StoreTest, PositionAtInterpolatesWithinTheStoredZetaBound) {
  const std::string path = TempPath("store_position.store");
  const traj::Trajectory t =
      testutil::GoldenTrajectory(datagen::DatasetKind::kGeoLife);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 1);
  const auto reader = WriteAndOpen(path, all, /*block_budget=*/1024);

  // The reconstruction carries the simplifier's guarantee: every
  // original sample lies within zeta of a reconstructed segment's line
  // (the DESIGN.md §8 certificate; quantization-free storage keeps it
  // exact).
  const auto rec = reader->ReconstructObject(1);
  ASSERT_TRUE(rec.ok());
  traj::PiecewiseRepresentation rep;
  for (const traj::TimedSegment& s : *rec) rep.Append(s.segment);
  EXPECT_TRUE(
      eval::VerifyErrorBound(t, rep, testutil::kGoldenZeta, 1e-9).bounded);

  // PositionAt returns a point on the covering stored segment for any
  // covered timestamp, including exact sample times and midpoints.
  for (std::size_t i = 0; i + 1 < t.size(); i += 7) {
    for (const double when : {t[i].t, (t[i].t + t[i + 1].t) / 2.0}) {
      const auto pos = reader->PositionAt(1, when);
      ASSERT_TRUE(pos.ok()) << pos.status().ToString() << " t=" << when;
      bool on_some_segment = false;
      for (const traj::TimedSegment& s : all) {
        if (s.t_start <= when && when <= s.t_end) {
          const geo::DirectedSegment seg = s.segment.AsSegment();
          const geo::Vec2 p = pos->pos();
          // Collinear within the segment's span (parameterized form).
          const geo::Vec2 d = seg.Displacement();
          const double cross = d.Cross(p - seg.start);
          if (std::abs(cross) <= 1e-6 * (1.0 + d.Norm())) {
            on_some_segment = true;
            break;
          }
        }
      }
      EXPECT_TRUE(on_some_segment) << "t=" << when;
    }
  }
  // Outside the stored time span: NotFound, not an invented answer.
  EXPECT_EQ(reader->PositionAt(1, t.back().t + 1e6).status().code(),
            StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// api::RunStoreQuery (the facade the CLI --query mode drives)
// ---------------------------------------------------------------------

TEST(StoreQueryApiTest, ValidatesShapeAndServesQueries) {
  const std::string path = TempPath("store_api.store");
  const traj::Trajectory t = testutil::ZigZag(80);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 6);
  { WriteAndOpen(path, all); }

  api::StoreQuery query;
  EXPECT_EQ(api::RunStoreQuery(query).status().code(),
            StatusCode::kInvalidArgument);  // no path
  query.store_path = path;
  EXPECT_EQ(api::RunStoreQuery(query).status().code(),
            StatusCode::kInvalidArgument);  // no shape
  query.has_object = true;
  query.object_id = 6;
  query.has_window = true;
  query.window.Extend(geo::Vec2{0, 0});
  query.window.Extend(geo::Vec2{1, 1});
  EXPECT_EQ(api::RunStoreQuery(query).status().code(),
            StatusCode::kInvalidArgument);  // both shapes
  query.has_window = false;

  const auto rec = api::RunStoreQuery(query);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->zeta, testutil::kGoldenZeta);
  ExpectTimedEqual(rec->segments, all, "api reconstruction");

  query.has_at = true;
  query.at_time = t[3].t;
  const auto pos = api::RunStoreQuery(query);
  ASSERT_TRUE(pos.ok()) << pos.status().ToString();
  EXPECT_TRUE(pos->has_position);

  // An --at outside an explicit [t_min, t_max] is a contradiction, not
  // a silently unconstrained lookup.
  query.t_min = 0.0;
  query.t_max = 1.0;
  query.at_time = 500.0;
  EXPECT_EQ(api::RunStoreQuery(query).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(StoreQueryApiTest, PipelineWriteStoreOnEnginePathRoundTrips) {
  const std::string path = TempPath("store_pipeline.store");
  // An interleaved 3-object feed through the StreamEngine with a
  // WriteStore stage: the store must end up holding exactly what the
  // report collected, per object, with times from the originals.
  std::vector<traj::ObjectTrajectory> objects;
  for (traj::ObjectId id = 0; id < 3; ++id) {
    objects.push_back(
        {id, testutil::Generated(datagen::DatasetKind::kSerCar, 300,
                                 100 + id)});
  }
  auto built = api::Pipeline::Builder()
                   .FromUpdates(traj::InterleaveRoundRobin(objects))
                   .Simplify("operb:zeta=40")
                   .WriteStore(path)
                   .Build();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const auto report = built->Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->store_ran);
  EXPECT_TRUE(report->used_engine);
  EXPECT_EQ(report->store_stats.segments, report->segments);

  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->zeta(), 40.0);
  for (const traj::ObjectTrajectory& obj : objects) {
    const auto got = reader.value()->ReconstructObject(obj.object_id);
    ASSERT_TRUE(got.ok());
    // segments_out is sorted by id with per-object emission order kept.
    std::vector<traj::RepresentedSegment> expected;
    for (const traj::TaggedSegment& s : report->segments_out) {
      if (s.object_id == obj.object_id) expected.push_back(s.segment);
    }
    testutil::ExpectSegmentsEqual(
        Untimed(*got), expected,
        "pipeline store object " + std::to_string(obj.object_id));
    for (const traj::TimedSegment& s : *got) {
      EXPECT_EQ(s.t_start, obj.trajectory[s.segment.first_index].t);
      EXPECT_EQ(s.t_end, obj.trajectory[s.segment.last_index].t);
    }
  }
}

// ---------------------------------------------------------------------
// Env seam: deterministic fault injection and crash-point recovery
// (the ISSUE 7 robustness suite; see DESIGN.md §9)
// ---------------------------------------------------------------------

TEST(StoreEnvTest, FaultInjectingEnvCountsAndInjectsDeterministically) {
  const std::string path = TempPath("env_unit.bin");
  store::FaultInjectingEnv env;

  // Disarmed: pure pass-through, counting create/append/flush/rename/
  // remove — and not Close, which models no durable transition of its
  // own (the flush before it does).
  {
    auto file = env.NewWritableFile(path);  // op 0
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    const std::vector<std::uint8_t> payload(8, 0xAB);
    ASSERT_TRUE(file.value()->Append(payload).ok());  // op 1
    ASSERT_TRUE(file.value()->Flush().ok());          // op 2
    ASSERT_TRUE(file.value()->Close().ok());          // uncounted
    ASSERT_TRUE(env.Rename(path, path + ".renamed").ok());  // op 3
    ASSERT_TRUE(env.Remove(path + ".renamed").ok());        // op 4
    EXPECT_EQ(env.op_count(), 5u);
    EXPECT_FALSE(env.fault_fired());
  }
  // Base-env semantics shine through where no fault is armed.
  EXPECT_EQ(env.Remove(path).code(), StatusCode::kNotFound);

  // kError: exactly the armed operation fails, earlier and later ones
  // succeed, and ArmFault resets the counter.
  env.ArmFault(store::FaultInjectingEnv::FaultKind::kError, 1);
  {
    auto file = env.NewWritableFile(path);  // op 0 succeeds
    ASSERT_TRUE(file.ok());
    const std::vector<std::uint8_t> payload(8, 0xCD);
    EXPECT_EQ(file.value()->Append(payload).code(), StatusCode::kIOError);
    EXPECT_TRUE(env.fault_fired());
    EXPECT_TRUE(file.value()->Append(payload).ok());  // op 2 succeeds again
    EXPECT_TRUE(file.value()->Flush().ok());
    EXPECT_TRUE(file.value()->Close().ok());
  }
  EXPECT_EQ(ReadFileBytes(path).size(), 8u);

  // kShortWrite: the armed append persists exactly half its bytes (a
  // torn write) and reports failure; the process keeps running and
  // later operations succeed.
  env.ArmFault(store::FaultInjectingEnv::FaultKind::kShortWrite, 1);
  {
    auto file = env.NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    const std::vector<std::uint8_t> payload(8, 0xEF);
    EXPECT_EQ(file.value()->Append(payload).code(), StatusCode::kIOError);
    EXPECT_TRUE(file.value()->Close().ok());
    EXPECT_TRUE(env.Rename(path, path + ".renamed").ok());
    EXPECT_TRUE(env.Rename(path + ".renamed", path).ok());
  }
  EXPECT_EQ(ReadFileBytes(path).size(), 4u);

  // kTornWriteCrash: the torn write is the process's last successful
  // act — every later operation fails, like a machine that went down.
  env.ArmFault(store::FaultInjectingEnv::FaultKind::kTornWriteCrash, 1);
  {
    auto file = env.NewWritableFile(path);
    ASSERT_TRUE(file.ok());
    const std::vector<std::uint8_t> payload(8, 0x99);
    EXPECT_EQ(file.value()->Append(payload).code(), StatusCode::kIOError);
    EXPECT_EQ(file.value()->Flush().code(), StatusCode::kIOError);
  }
  EXPECT_EQ(env.Rename(path, path + ".renamed").code(), StatusCode::kIOError);
  EXPECT_EQ(env.Remove(path).code(), StatusCode::kIOError);
  EXPECT_EQ(ReadFileBytes(path).size(), 4u);

  env.Disarm();
  EXPECT_EQ(env.op_count(), 0u);
  EXPECT_TRUE(env.Remove(path).ok());  // the "crash" ends with the env
}

/// A small deterministic 3-object feed for the crash matrix — enough
/// segments per shard to seal multiple blocks at the 1 KiB budget, small
/// enough that the full op matrix stays a few hundred pipeline runs.
std::vector<std::vector<traj::TimedSegment>> CrashFeed() {
  std::vector<std::vector<traj::TimedSegment>> feed;
  for (traj::ObjectId id = 0; id < 3; ++id) {
    const traj::Trajectory t = testutil::Generated(
        datagen::DatasetKind::kTaxi, 120, 90 + static_cast<int>(id));
    feed.push_back(SimplifyTimed(t, baselines::Algorithm::kOPERB, id));
  }
  return feed;
}

/// The store's full durable-write pipeline under a pluggable Env: a
/// creating session (object 0), an appending session (objects 1..), then
/// a compaction pass. Stops at the first error — a crashed process does
/// not keep going. The optional watermarks report the op counter after
/// each completed phase, which the counting run uses to classify crash
/// points.
Status RunCrashPipeline(
    const std::string& dir, store::FaultInjectingEnv* env,
    const std::vector<std::vector<traj::TimedSegment>>& feed,
    std::uint64_t* after_session1 = nullptr,
    std::uint64_t* after_session2 = nullptr) {
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.block_budget_bytes = 1024;
  options.num_shards = 2;
  options.env = env;
  {
    auto writer = store::StoreWriter::Create(dir, options);
    if (!writer.ok()) return writer.status();
    for (const traj::TimedSegment& s : feed[0]) {
      const Status appended = writer.value()->Append(s);
      if (!appended.ok()) return appended;
    }
    const Status closed = writer.value()->Close();
    if (!closed.ok()) return closed;
  }
  if (after_session1 != nullptr) *after_session1 = env->op_count();
  {
    store::StoreWriterOptions session = options;
    session.append = true;
    auto writer = store::StoreWriter::Create(dir, session);
    if (!writer.ok()) return writer.status();
    for (std::size_t id = 1; id < feed.size(); ++id) {
      for (const traj::TimedSegment& s : feed[id]) {
        const Status appended = writer.value()->Append(s);
        if (!appended.ok()) return appended;
      }
    }
    const Status closed = writer.value()->Close();
    if (!closed.ok()) return closed;
  }
  if (after_session2 != nullptr) *after_session2 = env->op_count();
  store::CompactionOptions compaction;
  compaction.env = env;
  store::Compactor compactor(dir, compaction);
  return compactor.Run().status();
}

TEST(StoreTest, CrashPointMatrixRecoversAtEveryFault) {
  const std::vector<std::vector<traj::TimedSegment>> feed = CrashFeed();

  // Counting run: how many durable operations the pipeline performs,
  // where each phase ends, and what the intact store answers.
  const std::string golden_dir = TempPath("crash_golden.store");
  std::filesystem::remove_all(golden_dir);
  store::FaultInjectingEnv counting;
  std::uint64_t after_session1 = 0;
  std::uint64_t after_session2 = 0;
  const Status golden_run = RunCrashPipeline(golden_dir, &counting, feed,
                                             &after_session1, &after_session2);
  ASSERT_TRUE(golden_run.ok()) << golden_run.ToString();
  const std::uint64_t total_ops = counting.op_count();
  ASSERT_GT(after_session1, 0u);
  ASSERT_GT(after_session2, after_session1);
  ASSERT_GT(total_ops, after_session2);

  // Every operation index × every fault kind: run the pipeline into the
  // injected failure, then reopen with the real filesystem and demand a
  // sane store — never Corruption, and nothing lost that an earlier
  // phase had already made durable.
  using FaultKind = store::FaultInjectingEnv::FaultKind;
  for (const FaultKind kind : {FaultKind::kError, FaultKind::kShortWrite,
                               FaultKind::kTornWriteCrash}) {
    for (std::uint64_t k = 0; k < total_ops; ++k) {
      SCOPED_TRACE("fault kind " + std::to_string(static_cast<int>(kind)) +
                   " at op " + std::to_string(k) + "/" +
                   std::to_string(total_ops));
      const std::string dir = TempPath("crash_matrix.store");
      std::filesystem::remove_all(dir);
      store::FaultInjectingEnv env;
      env.ArmFault(kind, k);
      // The run's status is deliberately ignored: some faults surface
      // (a failed manifest commit), some are absorbed (a failed orphan
      // unlink). Recovery below is the contract.
      (void)RunCrashPipeline(dir, &env, feed);
      EXPECT_TRUE(env.fault_fired());

      const auto reopened = store::StoreReader::Open(dir);
      if (!reopened.ok()) {
        // Acceptable only when the store never became visible — a crash
        // before the first manifest commit. An absent store, never a
        // corrupt one.
        EXPECT_NE(reopened.status().code(), StatusCode::kCorruption)
            << reopened.status().ToString();
        EXPECT_LT(k, after_session1);
        continue;
      }
      for (std::size_t id = 0; id < feed.size(); ++id) {
        const auto rec = reopened.value()->ReconstructObject(
            static_cast<traj::ObjectId>(id));
        ASSERT_TRUE(rec.ok()) << rec.status().ToString();
        const std::vector<traj::TimedSegment>& expected = feed[id];
        // Whatever survived is a prefix of the emission order — blocks
        // become durable in order, and readers drop torn tails.
        ASSERT_LE(rec->size(), expected.size());
        for (std::size_t i = 0; i < rec->size(); ++i) {
          EXPECT_EQ((*rec)[i].object_id, expected[i].object_id);
          EXPECT_EQ((*rec)[i].t_start, expected[i].t_start);
          EXPECT_EQ((*rec)[i].t_end, expected[i].t_end);
        }
        testutil::ExpectSegmentsEqual(
            Untimed(*rec),
            Untimed(std::vector<traj::TimedSegment>(
                expected.begin(),
                expected.begin() + static_cast<std::ptrdiff_t>(rec->size()))),
            "crash prefix, object " + std::to_string(id));
        // Completed phases are durable: object 0's session closed before
        // op after_session1; everything closed before compaction began.
        if ((id == 0 && k >= after_session1) || k >= after_session2) {
          EXPECT_EQ(rec->size(), expected.size())
              << "a crash at op " << k
              << " lost data an earlier phase had sealed and flushed";
        }
      }
    }
  }
}

TEST(StoreTest, OpenRetriesManifestSwapRaceWithCappedBackoff) {
  const std::string path = TempPath("store_backoff.store");
  std::filesystem::remove_all(path);
  const traj::Trajectory t = testutil::ZigZag(60);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 3);
  { WriteAndOpen(path, all); }

  // Hide the manifest-named segment file: Open now fails exactly the
  // way it does when a compaction commit swaps files underneath it.
  const std::string seg = OnlySegmentFile(path);
  const std::string hidden = seg + ".hidden";
  std::filesystem::rename(seg, hidden);

  // The injected sleep observes the schedule and "loses the race" twice
  // before the store heals — the third attempt succeeds.
  std::vector<std::chrono::microseconds> sleeps;
  store::StoreReader::SetRetrySleepHookForTest(
      [&](std::chrono::microseconds d) {
        sleeps.push_back(d);
        if (sleeps.size() == 2) std::filesystem::rename(hidden, seg);
      });

  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value()->open_info().open_retries, 2u);
  ASSERT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(sleeps[0], std::chrono::microseconds(100));
  EXPECT_EQ(sleeps[1], std::chrono::microseconds(200));

  // The count rides along on every query's stats, so callers can see
  // contention without instrumenting Open themselves.
  store::StoreQueryStats stats;
  const auto rec = reader.value()->ReconstructObject(3, -kInf, kInf, &stats);
  ASSERT_TRUE(rec.ok());
  ExpectTimedEqual(*rec, all, "after retried open");
  EXPECT_EQ(stats.open_retries, 2u);

  // A race that never resolves: the schedule doubles from 100us and the
  // reader gives up after the attempt cap with the underlying IOError —
  // bounded patience, no spin and no hang.
  sleeps.clear();
  store::StoreReader::SetRetrySleepHookForTest(
      [&](std::chrono::microseconds d) { sleeps.push_back(d); });
  std::filesystem::rename(seg, hidden);
  const auto failed = store::StoreReader::Open(path);
  EXPECT_EQ(failed.status().code(), StatusCode::kIOError);
  ASSERT_EQ(sleeps.size(), 5u);
  const std::chrono::microseconds want[] = {
      std::chrono::microseconds(100), std::chrono::microseconds(200),
      std::chrono::microseconds(400), std::chrono::microseconds(800),
      std::chrono::microseconds(1600)};
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(sleeps[i], want[i]);

  std::filesystem::rename(hidden, seg);
  store::StoreReader::SetRetrySleepHookForTest(nullptr);
}

TEST(StoreCompactionTest, PauseGuardQuiescesTheBackgroundLoop) {
  const std::string path = TempPath("store_pause.store");
  std::filesystem::remove_all(path);
  const std::vector<std::vector<traj::TimedSegment>> feed = CrashFeed();
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.block_budget_bytes = 1024;
  options.num_shards = 2;
  {
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : feed[0]) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }

  store::BackgroundCompactor background(path, {},
                                        std::chrono::milliseconds(1));
  background.Start();
  for (int i = 0; i < 5000 && background.total_stats().shards_examined == 0;
       ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(background.total_stats().shards_examined, 0u);

  std::uint64_t frozen = 0;
  {
    store::BackgroundCompactor::PauseGuard guard(background);
    // Pauses nest (an engine checkpoint inside a paused CLI section).
    { store::BackgroundCompactor::PauseGuard nested(background); }
    frozen = background.total_stats().shards_examined;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    // No pass ran while paused — the store was exclusively ours.
    EXPECT_EQ(background.total_stats().shards_examined, frozen);
    // So a foreground session can run without racing the compactor.
    store::StoreWriterOptions session = options;
    session.append = true;
    auto writer = store::StoreWriter::Create(path, session);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (std::size_t id = 1; id < feed.size(); ++id) {
      for (const traj::TimedSegment& s : feed[id]) {
        ASSERT_TRUE(writer.value()->Append(s).ok());
      }
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }

  // Resumed: the loop picks the new session up on its own.
  for (int i = 0;
       i < 5000 && background.total_stats().shards_examined == frozen; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(background.total_stats().shards_examined, frozen);
  background.Stop();
  EXPECT_TRUE(background.last_status().ok())
      << background.last_status().ToString();

  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (std::size_t id = 0; id < feed.size(); ++id) {
    const auto rec =
        reader.value()->ReconstructObject(static_cast<traj::ObjectId>(id));
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ExpectTimedEqual(*rec, feed[id],
                     "post-pause object " + std::to_string(id));
  }
}

TEST(StoreCompactionTest, PauseResumeRacingStopIsSafe) {
  // TSan target: PauseGuard sections racing Stop() in every interleaving
  // — pause before stop, stop mid-pause, pause after the loop is gone.
  // The invariants are no deadlock, no double-join, no race.
  const std::string path = TempPath("store_pause_race.store");
  std::filesystem::remove_all(path);
  const traj::Trajectory t = testutil::ZigZag(40);
  const std::vector<traj::TimedSegment> all =
      SimplifyTimed(t, baselines::Algorithm::kOPERB, 1);
  {
    store::StoreWriterOptions options;
    options.zeta = testutil::kGoldenZeta;
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : all) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }

  for (int round = 0; round < 3; ++round) {
    store::BackgroundCompactor background(path, {},
                                          std::chrono::milliseconds(1));
    background.Start();
    std::atomic<bool> go{false};
    std::thread pauser([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int i = 0; i < 50; ++i) {
        store::BackgroundCompactor::PauseGuard guard(background);
        std::this_thread::yield();
      }
    });
    std::thread stopper([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      background.Stop();
    });
    go.store(true, std::memory_order_release);
    pauser.join();
    stopper.join();
    background.Stop();  // idempotent after the race resolved
  }
}

// ---------------------------------------------------------------------
// Block layout: seals clustered by place
// ---------------------------------------------------------------------

/// A seeded fleet: `objects` random walks of `segments_per_object`
/// chained segments with 200 m steps, starting uniformly over a 100 km
/// square. Returned in the order a sharded engine delivers segments:
/// rounds in which every object emits 1–6 of its next segments, so
/// objects interleave and each object's segments stay in emission order.
std::vector<traj::TimedSegment> FleetFeed(std::size_t objects,
                                          std::size_t segments_per_object,
                                          std::uint64_t seed) {
  datagen::Rng rng(seed);
  std::vector<std::vector<traj::TimedSegment>> per_object(objects);
  for (std::size_t id = 0; id < objects; ++id) {
    geo::Vec2 at{rng.Uniform(0.0, 1e5), rng.Uniform(0.0, 1e5)};
    double t = rng.Uniform(0.0, 3600.0);
    for (std::size_t k = 0; k < segments_per_object; ++k) {
      traj::TimedSegment s;
      s.object_id = id;
      s.segment.start = at;
      at.x += rng.Uniform(-200.0, 200.0);
      at.y += rng.Uniform(-200.0, 200.0);
      s.segment.end = at;
      s.segment.first_index = k;
      s.segment.last_index = k + 1;
      s.t_start = t;
      t += rng.Uniform(10.0, 30.0);
      s.t_end = t;
      per_object[id].push_back(s);
    }
  }
  std::vector<traj::TimedSegment> feed;
  std::vector<std::size_t> next(objects, 0);
  while (feed.size() < objects * segments_per_object) {
    for (std::size_t id = 0; id < objects; ++id) {
      const std::size_t burst = 1 + rng.NextBelow(6);
      for (std::size_t b = 0; b < burst && next[id] < segments_per_object;
           ++b) {
        feed.push_back(per_object[id][next[id]++]);
      }
    }
  }
  return feed;
}

/// The segments of `id` in `feed`, in feed order.
std::vector<traj::TimedSegment> SegmentsOf(
    const std::vector<traj::TimedSegment>& feed, traj::ObjectId id) {
  std::vector<traj::TimedSegment> out;
  for (const traj::TimedSegment& s : feed) {
    if (s.object_id == id) out.push_back(s);
  }
  return out;
}

/// Writes `feed` to a fresh store at `path`; default options except the
/// ones given.
void WriteFeed(const std::string& path,
               const std::vector<traj::TimedSegment>& feed,
               std::size_t num_shards, std::size_t block_budget = 0) {
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.num_shards = num_shards;
  if (block_budget != 0) options.block_budget_bytes = block_budget;
  auto writer = store::StoreWriter::Create(path, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  for (const traj::TimedSegment& s : feed) {
    ASSERT_TRUE(writer.value()->Append(s).ok());
  }
  ASSERT_TRUE(writer.value()->Close().ok());
}

/// Every segment of `feed` the window query (window, t_min, t_max) must
/// return, in the canonical order: ascending id, feed order within.
std::vector<traj::TimedSegment> BruteForceWindow(
    const std::vector<traj::TimedSegment>& feed,
    const geo::BoundingBox& window, double t_min, double t_max) {
  const geo::BoundingBox inflated =
      store::Inflate(window, testutil::kGoldenZeta);
  std::vector<traj::TimedSegment> out;
  for (const traj::TimedSegment& s : feed) {
    if (store::SegmentMatchesWindow(s, inflated, t_min, t_max)) {
      out.push_back(s);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const traj::TimedSegment& a,
                      const traj::TimedSegment& b) {
                     return a.object_id < b.object_id;
                   });
  return out;
}

/// Median over every block of every segment file in `dir` of the
/// block's footer box area, as a share of its file's extent (the union
/// of that file's footer boxes). A one-session store has one file per
/// shard.
double MedianFooterAreaShare(const std::string& dir) {
  std::vector<double> shares;
  for (const std::string& path : SegmentFilesIn(dir)) {
    const auto file = store::SegmentFileReader::Open(path);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    if (!file.ok()) continue;
    geo::BoundingBox extent;
    for (const store::BlockRef& b : file.value()->blocks()) {
      extent.Extend(b.footer.BBox());
    }
    const double extent_area = extent.Width() * extent.Height();
    for (const store::BlockRef& b : file.value()->blocks()) {
      const geo::BoundingBox box = b.footer.BBox();
      shares.push_back(box.Width() * box.Height() / extent_area);
    }
  }
  if (shares.empty()) return 1.0;
  std::sort(shares.begin(), shares.end());
  return shares[shares.size() / 2];
}

TEST(StoreLayoutTest, FleetAnswersMatchBruteForceAndBlocksClusterByPlace) {
  const std::string path = TempPath("store_layout_fleet.store");
  const std::vector<traj::TimedSegment> feed = FleetFeed(600, 60, 2024);
  WriteFeed(path, feed, /*num_shards=*/2);
  ASSERT_FALSE(HasFatalFailure());
  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GE(reader.value()->block_count(), 16u)
      << "fixture too small to form many blocks per shard";

  // The pruning guard: each block covers a small part of its shard. A
  // seal cuts its extent into kBlocksPerSeal = 64 places (ideal share
  // 1/64); this fixture measures a median of 0.013.
  EXPECT_LE(MedianFooterAreaShare(path), 1.0 / 16);

  for (traj::ObjectId id = 0; id < 600; ++id) {
    const auto got = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTimedEqual(*got, SegmentsOf(feed, id),
                     "object " + std::to_string(id));
    if (HasFatalFailure()) return;
  }

  datagen::Rng rng(7);
  std::uint64_t matched = 0;
  std::uint64_t scanned = 0;
  std::uint64_t total = 0;
  for (int q = 0; q < 120; ++q) {
    // Centered on a stored segment, so most windows match something;
    // a third run over all time, the rest over ten minutes.
    const traj::TimedSegment& probe = feed[rng.NextBelow(feed.size())];
    const double half = rng.Uniform(200.0, 5000.0);
    geo::BoundingBox window;
    window.Extend(geo::Vec2{probe.segment.start.x - half,
                            probe.segment.start.y - half});
    window.Extend(geo::Vec2{probe.segment.start.x + half,
                            probe.segment.start.y + half});
    const bool all_time = q % 3 == 0;
    const double t_min = all_time ? -kInf : probe.t_start - 300.0;
    const double t_max = all_time ? kInf : probe.t_start + 300.0;
    const std::string label = "window " + std::to_string(q);

    const std::vector<traj::TimedSegment> want =
        BruteForceWindow(feed, window, t_min, t_max);
    store::StoreQueryStats stats;
    const auto indexed = reader.value()->QueryWindow(
        window, t_min, t_max, &stats, store::ScanMode::kIndexed);
    const auto flat = reader.value()->QueryWindow(
        window, t_min, t_max, nullptr, store::ScanMode::kFlatScan);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    ASSERT_TRUE(flat.ok()) << flat.status().ToString();
    ExpectTimedEqual(*indexed, want, label + " indexed");
    ExpectTimedEqual(*flat, want, label + " flat");
    if (HasFatalFailure()) return;
    matched += want.size();
    scanned += stats.blocks_scanned;
    total += stats.blocks_total;
  }
  EXPECT_GT(matched, 0u);
  // Footer boxes, not just time, do the skipping.
  EXPECT_LT(scanned * 4, total);
}

TEST(StoreQueryApiTest, ConcurrentQueriesMatchSerialAnswers) {
  // Four threads share one reader. Each query reads its blocks into a
  // buffer of its own, so concurrent answers equal the serial ones.
  const std::string path = TempPath("store_concurrent_queries.store");
  const std::vector<traj::TimedSegment> feed = FleetFeed(200, 30, 77);
  WriteFeed(path, feed, /*num_shards=*/2, /*block_budget=*/1024);
  ASSERT_FALSE(HasFatalFailure());
  const auto opened = store::StoreReader::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const store::StoreReader& reader = *opened.value();
  ASSERT_GE(reader.block_count(), 16u);

  // Mixed queries, each answered as a flat list of field bit patterns.
  datagen::Rng rng(5);
  std::vector<std::function<std::vector<std::uint64_t>()>> queries;
  const auto flatten =
      [](const Result<std::vector<traj::TimedSegment>>& r) {
        std::vector<std::uint64_t> out;
        if (!r.ok()) return std::vector<std::uint64_t>{~0ULL};
        for (const traj::TimedSegment& s : *r) {
          out.insert(out.end(),
                     {s.object_id, s.segment.first_index,
                      s.segment.last_index,
                      std::bit_cast<std::uint64_t>(s.segment.start.x),
                      std::bit_cast<std::uint64_t>(s.segment.start.y),
                      std::bit_cast<std::uint64_t>(s.segment.end.x),
                      std::bit_cast<std::uint64_t>(s.segment.end.y),
                      std::bit_cast<std::uint64_t>(s.t_start),
                      std::bit_cast<std::uint64_t>(s.t_end)});
        }
        return out;
      };
  for (int q = 0; q < 48; ++q) {
    const traj::TimedSegment& probe = feed[rng.NextBelow(feed.size())];
    const double half = rng.Uniform(200.0, 5000.0);
    geo::BoundingBox window;
    window.Extend(geo::Vec2{probe.segment.start.x - half,
                            probe.segment.start.y - half});
    window.Extend(geo::Vec2{probe.segment.start.x + half,
                            probe.segment.start.y + half});
    const double t = probe.t_start;
    switch (q % 4) {
      case 0:
        queries.push_back([&, window, t] {
          return flatten(reader.QueryWindow(window, t - 300.0, t + 300.0));
        });
        break;
      case 1:
        queries.push_back([&, window] {
          return flatten(reader.QueryWindow(window, -kInf, kInf, nullptr,
                                            store::ScanMode::kFlatScan));
        });
        break;
      case 2:
        queries.push_back([&, id = probe.object_id, t] {
          return flatten(reader.ReconstructObject(id, t, t + 600.0));
        });
        break;
      default:
        queries.push_back([&, id = probe.object_id, t] {
          const Result<geo::Point> p = reader.PositionAt(id, t);
          if (!p.ok()) return std::vector<std::uint64_t>{~0ULL};
          return std::vector<std::uint64_t>{std::bit_cast<std::uint64_t>(p->x),
                                            std::bit_cast<std::uint64_t>(p->y),
                                            std::bit_cast<std::uint64_t>(p->t)};
        });
    }
  }
  std::vector<std::vector<std::uint64_t>> serial;
  for (const auto& query : queries) serial.push_back(query());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < 4; ++k) {
    threads.emplace_back([&, k] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < queries.size(); ++i) {
          const std::size_t q = (i + k * queries.size() / 4) % queries.size();
          if (queries[q]() != serial[q]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  std::size_t answered = 0;
  for (const auto& answer : serial) {
    answered += answer.empty() || answer.front() != ~0ULL ? 1 : 0;
  }
  EXPECT_GE(answered, queries.size() / 2);
}

TEST(StoreLayoutTest, ObjectLongerThanASealKeepsItsOrder) {
  const std::string path = TempPath("store_layout_long.store");
  // Object 7 has far more segments than one seal buffers at the minimum
  // budget; twenty short objects interleave with it.
  std::vector<traj::TimedSegment> feed = FleetFeed(21, 30, 99);
  const std::vector<traj::TimedSegment> long_run =
      SegmentsOf(FleetFeed(1, 4000, 5), 0);
  std::vector<traj::TimedSegment> mixed;
  std::size_t next = 0;
  for (std::size_t i = 0; i < long_run.size(); ++i) {
    traj::TimedSegment s = long_run[i];
    s.object_id = 7;
    mixed.push_back(s);
    if (i % 8 == 0 && next < feed.size()) {
      if (feed[next].object_id != 7) mixed.push_back(feed[next]);
      ++next;
    }
  }
  WriteFeed(path, mixed, /*num_shards=*/1, /*block_budget=*/1024);
  ASSERT_FALSE(HasFatalFailure());

  // File order is emission order for every object: decoding the blocks
  // front to back yields each object's appended sequence.
  const auto file = store::SegmentFileReader::Open(OnlySegmentFile(path));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  ASSERT_GT(file.value()->blocks().size(),
            2 * store::SegmentFileWriter::kBlocksPerSeal)
      << "the long object must span several seals";
  std::vector<traj::TimedSegment> in_file;
  for (std::size_t b = 0; b < file.value()->blocks().size(); ++b) {
    const auto block = file.value()->ReadBlock(b);
    ASSERT_TRUE(block.ok()) << block.status().ToString();
    in_file.insert(in_file.end(), block->begin(), block->end());
  }
  ASSERT_EQ(in_file.size(), mixed.size());
  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (traj::ObjectId id = 0; id < 21; ++id) {
    const std::vector<traj::TimedSegment> want = SegmentsOf(mixed, id);
    ExpectTimedEqual(SegmentsOf(in_file, id), want,
                     "file order, object " + std::to_string(id));
    const auto got = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectTimedEqual(*got, want, "object " + std::to_string(id));
  }
}

/// ExpectTimedEqual for segments that may hold NaN coordinates, which
/// never compare equal: coordinates are compared as bit patterns.
void ExpectBitIdentical(const std::vector<traj::TimedSegment>& actual,
                        const std::vector<traj::TimedSegment>& want,
                        const std::string& label) {
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  ASSERT_EQ(actual.size(), want.size()) << label;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const traj::TimedSegment& a = actual[i];
    const traj::TimedSegment& b = want[i];
    SCOPED_TRACE(label + " segment " + std::to_string(i));
    EXPECT_EQ(a.object_id, b.object_id);
    EXPECT_EQ(bits(a.segment.start.x), bits(b.segment.start.x));
    EXPECT_EQ(bits(a.segment.start.y), bits(b.segment.start.y));
    EXPECT_EQ(bits(a.segment.end.x), bits(b.segment.end.x));
    EXPECT_EQ(bits(a.segment.end.y), bits(b.segment.end.y));
    EXPECT_EQ(a.segment.first_index, b.segment.first_index);
    EXPECT_EQ(a.segment.last_index, b.segment.last_index);
    EXPECT_EQ(a.t_start, b.t_start);
    EXPECT_EQ(a.t_end, b.t_end);
  }
}

TEST(StoreLayoutTest, NonFiniteStartPointsNeitherCrashNorReorder) {
  const std::string path = TempPath("store_layout_nonfinite.store");
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<traj::TimedSegment> feed = FleetFeed(40, 40, 31);
  // Poison the first start point of most objects: NaN, +inf and -inf
  // in x or y. Adjacent ids share a block, so one block spans
  // -inf..+inf.
  const geo::Vec2 poison[] = {{kNaN, 1.0},  {1.0, kNaN},  {kInf, 1.0},
                              {-kInf, 1.0}, {1.0, kInf},  {1.0, -kInf},
                              {kNaN, kNaN}, {kInf, -kInf}};
  for (traj::TimedSegment& s : feed) {
    if (s.segment.first_index == 0 && s.object_id % 5 != 0) {
      s.segment.start = poison[s.object_id % 8];
    }
  }
  WriteFeed(path, feed, /*num_shards=*/1, /*block_budget=*/1024);
  ASSERT_FALSE(HasFatalFailure());
  const auto reader = store::StoreReader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ASSERT_GT(reader.value()->block_count(),
            store::SegmentFileWriter::kBlocksPerSeal);

  for (traj::ObjectId id = 0; id < 40; ++id) {
    const auto got = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(*got, SegmentsOf(feed, id),
                       "object " + std::to_string(id));
  }
  // Window queries run through the poisoned blocks and still agree.
  geo::BoundingBox window;
  window.Extend(geo::Vec2{2e4, 2e4});
  window.Extend(geo::Vec2{8e4, 8e4});
  const auto indexed = reader.value()->QueryWindow(
      window, -kInf, kInf, nullptr, store::ScanMode::kIndexed);
  const auto flat = reader.value()->QueryWindow(
      window, -kInf, kInf, nullptr, store::ScanMode::kFlatScan);
  ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  EXPECT_FALSE(indexed->empty());
  ExpectBitIdentical(*indexed, *flat, "non-finite indexed vs flat");
}

TEST(StoreLayoutTest, CloseSealsAPartialBuffer) {
  // Less than one seal's worth, then several seals' worth whose last
  // seal is partial: Close() writes the partial seal either way. The
  // feed grows with kBlocksPerSeal so that it always spans more than two
  // seals at the minimum budget.
  const std::vector<traj::TimedSegment> feed =
      FleetFeed(30, 5 * store::SegmentFileWriter::kBlocksPerSeal, 77);
  std::uint64_t seal_blocks = 0;
  for (const std::size_t take : {std::size_t{40}, feed.size()}) {
    const std::string path =
        TempPath("store_layout_partial_" + std::to_string(take) + ".store");
    const std::vector<traj::TimedSegment> part(feed.begin(),
                                               feed.begin() + take);
    store::StoreWriterOptions options;
    options.zeta = testutil::kGoldenZeta;
    options.block_budget_bytes = 1024;
    auto writer = store::StoreWriter::Create(path, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : part) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    if (take == 40) {
      // Less than a seal's worth stays buffered until Close().
      const auto file = store::SegmentFileReader::Open(OnlySegmentFile(path));
      ASSERT_TRUE(file.ok()) << file.status().ToString();
      EXPECT_TRUE(file.value()->blocks().empty());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
    EXPECT_EQ(writer.value()->stats().segments, take);
    seal_blocks = writer.value()->stats().blocks;
    EXPECT_GE(seal_blocks, 1u);

    const auto reader = store::StoreReader::Open(path);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    EXPECT_EQ(reader.value()->segment_count(), take);
    EXPECT_EQ(reader.value()->block_count(), seal_blocks);
    for (traj::ObjectId id = 0; id < 30; ++id) {
      const auto got = reader.value()->ReconstructObject(id);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTimedEqual(*got, SegmentsOf(part, id),
                       "take " + std::to_string(take) + " object " +
                           std::to_string(id));
    }
  }
  EXPECT_GT(seal_blocks, 2 * store::SegmentFileWriter::kBlocksPerSeal)
      << "the full feed must fill more than two seals";
}

TEST(StoreLayoutTest, SmallBlocksCompactToLargerBudgetIdentically) {
  const std::string path = TempPath("store_layout_compact.store");
  const std::vector<traj::TimedSegment> feed = FleetFeed(200, 40, 13);
  WriteFeed(path, feed, /*num_shards=*/2);  // default 2 KiB blocks
  ASSERT_FALSE(HasFatalFailure());

  datagen::Rng rng(3);
  std::vector<geo::BoundingBox> windows;
  for (int q = 0; q < 30; ++q) {
    const traj::TimedSegment& probe = feed[rng.NextBelow(feed.size())];
    const double half = rng.Uniform(500.0, 8000.0);
    geo::BoundingBox w;
    w.Extend(geo::Vec2{probe.segment.start.x - half,
                       probe.segment.start.y - half});
    w.Extend(geo::Vec2{probe.segment.start.x + half,
                       probe.segment.start.y + half});
    windows.push_back(w);
  }
  auto answers = [&](std::size_t* blocks) {
    std::vector<std::vector<traj::TimedSegment>> out;
    const auto reader = store::StoreReader::Open(path);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return out;
    *blocks = reader.value()->block_count();
    for (traj::ObjectId id = 0; id < 200; ++id) {
      out.push_back(reader.value()->ReconstructObject(id).value());
    }
    for (const geo::BoundingBox& w : windows) {
      out.push_back(reader.value()->QueryWindow(w).value());
      out.push_back(reader.value()
                        ->QueryWindow(w, -kInf, kInf, nullptr,
                                      store::ScanMode::kFlatScan)
                        .value());
    }
    return out;
  };
  std::size_t blocks_before = 0;
  const auto before = answers(&blocks_before);
  ASSERT_FALSE(HasFailure());

  store::CompactionOptions compaction;
  compaction.block_budget_bytes = 64 * 1024;
  const auto ran = store::Compactor(path, compaction).Run();
  ASSERT_TRUE(ran.ok()) << ran.status().ToString();
  EXPECT_EQ(ran->shards_compacted, 2u);

  std::size_t blocks_after = 0;
  const auto after = answers(&blocks_after);
  ASSERT_EQ(after.size(), before.size());
  EXPECT_LT(blocks_after, blocks_before);
  for (std::size_t i = 0; i < before.size(); ++i) {
    ExpectTimedEqual(after[i], before[i], "answer " + std::to_string(i));
  }
}

/// The Hilbert index loop with explicit branches, kept as the reference
/// the branch-free store::HilbertIndex must match.
std::uint64_t ReferenceHilbertIndex(std::uint32_t x, std::uint32_t y) {
  std::uint64_t d = 0;
  for (std::uint32_t s = store::kHilbertSide / 2; s > 0; s /= 2) {
    const std::uint32_t rx = (x & s) != 0 ? 1 : 0;
    const std::uint32_t ry = (y & s) != 0 ? 1 : 0;
    d += std::uint64_t{s} * s * ((3 * rx) ^ ry);
    if (ry == 0) {
      if (rx == 1) {
        x = store::kHilbertSide - 1 - x;
        y = store::kHilbertSide - 1 - y;
      }
      std::swap(x, y);
    }
  }
  return d;
}

TEST(StoreLayoutTest, HilbertIndexMatchesTheReferenceLoop) {
  constexpr std::uint32_t kLast = store::kHilbertSide - 1;
  // Every cell on the grid's four edges.
  for (std::uint32_t v = 0; v <= kLast; ++v) {
    for (const auto& [x, y] : {std::pair{v, 0u}, std::pair{v, kLast},
                              std::pair{0u, v}, std::pair{kLast, v}}) {
      ASSERT_EQ(store::HilbertIndex(x, y), ReferenceHilbertIndex(x, y))
          << "edge cell (" << x << ", " << y << ")";
    }
  }
  // Seeded cells anywhere on the grid.
  datagen::Rng rng(0x4B11);
  for (int i = 0; i < 200000; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.NextBelow(kLast + 1));
    const auto y = static_cast<std::uint32_t>(rng.NextBelow(kLast + 1));
    ASSERT_EQ(store::HilbertIndex(x, y), ReferenceHilbertIndex(x, y))
        << "cell (" << x << ", " << y << ")";
  }
}

/// The cell of `v` along an axis whose extent is [lo, hi], as the
/// writer computes it.
std::uint32_t ReferenceHilbertCell(double v, double lo, double hi) {
  const double span = hi * 0.5 - lo * 0.5;
  if (!(span > 0.0)) return 0;
  const double u = std::clamp((v * 0.5 - lo * 0.5) / span, 0.0, 1.0);
  return static_cast<std::uint32_t>(u * (store::kHilbertSide - 1));
}

/// The seal order as a copy of the buffer: a stable sort by id, so each
/// object is one run in arrival order; runs ordered by the Hilbert index
/// of their first start point over those points' extent, ties by id; a
/// run whose first start point is not finite last.
std::vector<traj::TimedSegment> ReferenceSealOrder(
    const std::vector<traj::TimedSegment>& pending,
    std::size_t* equal_key_runs) {
  std::vector<traj::TimedSegment> by_id = pending;
  std::stable_sort(by_id.begin(), by_id.end(),
                   [](const traj::TimedSegment& a,
                      const traj::TimedSegment& b) {
                     return a.object_id < b.object_id;
                   });
  struct Run {
    std::uint64_t key;
    traj::ObjectId id;
    std::vector<traj::TimedSegment> segments;
  };
  std::vector<Run> runs;
  for (const traj::TimedSegment& s : by_id) {
    if (runs.empty() || runs.back().id != s.object_id) {
      runs.push_back(Run{0, s.object_id, {}});
    }
    runs.back().segments.push_back(s);
  }
  auto finite = [](geo::Vec2 p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  geo::BoundingBox extent;
  for (const Run& r : runs) {
    if (finite(r.segments.front().segment.start)) {
      extent.Extend(r.segments.front().segment.start);
    }
  }
  for (Run& r : runs) {
    const geo::Vec2 p = r.segments.front().segment.start;
    r.key = finite(p)
                ? ReferenceHilbertIndex(
                      ReferenceHilbertCell(p.x, extent.min_x, extent.max_x),
                      ReferenceHilbertCell(p.y, extent.min_y, extent.max_y))
                : std::numeric_limits<std::uint64_t>::max();
  }
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });
  std::vector<traj::TimedSegment> ordered;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (i > 0 && runs[i].key == runs[i - 1].key &&
        runs[i].key != std::numeric_limits<std::uint64_t>::max()) {
      ++*equal_key_runs;
    }
    ordered.insert(ordered.end(), runs[i].segments.begin(),
                   runs[i].segments.end());
  }
  return ordered;
}

TEST(StoreLayoutTest, SealOrderMatchesReferenceOrdering) {
  // A fleet whose runs cross block cuts, plus:
  // - objects 1000..1003 always start at one point, so their runs share
  //   a Hilbert key in every seal, and arrive in descending id order, so
  //   only the tie by id orders them;
  // - objects whose first start point is NaN or infinite in the first
  //   seal, and object 1004, whose every segment starts at NaN.
  std::vector<traj::TimedSegment> feed = FleetFeed(60, 120, 41);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (traj::TimedSegment& s : feed) {
    if (s.segment.first_index == 0 && s.object_id % 7 == 3) {
      s.segment.start = s.object_id % 2 == 0 ? geo::Vec2{kNaN, 5.0}
                                             : geo::Vec2{5.0, kInf};
    }
  }
  std::vector<traj::TimedSegment> mixed;
  for (std::size_t i = 0; i < feed.size(); ++i) {
    mixed.push_back(feed[i]);
    if (i % 9 != 0) continue;
    for (traj::ObjectId id = 1004; id >= 1000; --id) {
      traj::TimedSegment s = feed[i];
      s.object_id = id;
      s.segment.start = id == 1004 ? geo::Vec2{kNaN, kNaN}
                                   : geo::Vec2{4e4, 6e4};
      mixed.push_back(s);
    }
  }

  constexpr std::size_t kBudget = 1024;
  const std::string path = TempPath("store_layout_seal_order.seg");
  {
    auto writer = store::SegmentFileWriter::Create(
        path, testutil::kGoldenZeta, kBudget);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : mixed) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  const auto file = store::SegmentFileReader::Open(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const std::vector<store::BlockRef>& refs = file.value()->blocks();

  // Replays the writer's seal points and cuts: a seal starts once the
  // buffer's estimated encoding reaches kBlocksPerSeal budgets, the
  // estimate being the previous seal's payload bytes per segment.
  double estimate = 48.0;
  std::vector<traj::TimedSegment> pending;
  std::size_t next_block = 0;
  std::size_t seals = 0;
  std::size_t equal_key_runs = 0;
  std::size_t runs_across_cuts = 0;
  const auto check_seal = [&] {
    const std::vector<traj::TimedSegment> want =
        ReferenceSealOrder(pending, &equal_key_runs);
    const std::size_t n = want.size();
    const std::size_t blocks = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::lround(
            static_cast<double>(n) * estimate / static_cast<double>(kBudget))),
        1, n);
    std::uint64_t payload = 0;
    for (std::size_t b = 0; b < blocks; ++b, ++next_block) {
      ASSERT_LT(next_block, refs.size()) << "seal " << seals;
      const std::size_t lo = b * n / blocks;
      const std::size_t hi = (b + 1) * n / blocks;
      const auto got = file.value()->ReadBlock(next_block);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectBitIdentical(
          *got,
          std::vector<traj::TimedSegment>(want.begin() + lo,
                                          want.begin() + hi),
          "seal " + std::to_string(seals) + " block " + std::to_string(b));
      if (b > 0 && want[lo - 1].object_id == want[lo].object_id) {
        ++runs_across_cuts;
      }
      payload += refs[next_block].footer.payload_bytes;
    }
    estimate = static_cast<double>(payload) / static_cast<double>(n);
    pending.clear();
    ++seals;
  };
  for (const traj::TimedSegment& s : mixed) {
    pending.push_back(s);
    if (static_cast<double>(pending.size()) * estimate >=
        static_cast<double>(kBudget *
                            store::SegmentFileWriter::kBlocksPerSeal)) {
      check_seal();
      if (HasFatalFailure()) return;
    }
  }
  // Close() seals what is left: a partial seal.
  ASSERT_FALSE(pending.empty()) << "the feed must end in a partial seal";
  check_seal();
  if (HasFatalFailure()) return;
  EXPECT_EQ(next_block, refs.size());
  EXPECT_GE(seals, 3u);
  EXPECT_GT(equal_key_runs, 0u);
  EXPECT_GT(runs_across_cuts, 0u);
}

// ---------------------------------------------------------------------
// Background sealing: StoreWriter hands chunks of appends to the Env's
// background thread, which feeds the unchanged SegmentFileWriters.
// ---------------------------------------------------------------------

/// Writes `feed` through a StoreWriter with `num_shards` shards and
/// feeds each shard's subsequence straight into a SegmentFileWriter;
/// expects identical file bytes per shard. Returns the fewest blocks in
/// any shard file.
std::size_t ExpectSameBytesAsDirectFeed(
    const std::vector<traj::TimedSegment>& feed, std::size_t num_shards,
    const std::string& label) {
  SCOPED_TRACE(label);
  const std::string dir = TempPath("seal_identity.store");
  std::filesystem::remove_all(dir);
  WriteFeed(dir, feed, num_shards);
  std::vector<std::vector<traj::TimedSegment>> per_shard(num_shards);
  for (const traj::TimedSegment& s : feed) {
    per_shard[traj::ShardOfObject(s.object_id, num_shards)].push_back(s);
  }
  std::size_t fewest_blocks = std::numeric_limits<std::size_t>::max();
  for (std::size_t shard = 0; shard < num_shards; ++shard) {
    const std::string direct = TempPath("seal_identity_direct.seg");
    {
      auto writer = store::SegmentFileWriter::Create(
          direct, testutil::kGoldenZeta,
          store::StoreWriterOptions{}.block_budget_bytes);
      EXPECT_TRUE(writer.ok()) << writer.status().ToString();
      if (!writer.ok()) return 0;
      for (const traj::TimedSegment& s : per_shard[shard]) {
        EXPECT_TRUE(writer.value()->Append(s).ok());
      }
      EXPECT_TRUE(writer.value()->Close().ok());
    }
    const std::string via_store = ReadFileBytes(
        dir + "/" + store::SegmentFileName(static_cast<std::uint32_t>(shard),
                                           1));
    const std::string want = ReadFileBytes(direct);
    EXPECT_GT(want.size(), store::kFileHeaderBytes) << "shard " << shard;
    EXPECT_TRUE(via_store == want)
        << "shard " << shard << ": " << via_store.size() << " bytes through "
        << "the StoreWriter, " << want.size() << " fed directly";
    const auto reader = store::SegmentFileReader::Open(direct);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (reader.ok()) {
      fewest_blocks = std::min(fewest_blocks, reader.value()->blocks().size());
    }
  }
  return fewest_blocks;
}

TEST(StoreWriterSealTest, FilesMatchADirectSegmentFileFeed) {
  // Fewer segments than one chunk: everything reaches the shard files
  // through Close()'s hand-over.
  const std::vector<traj::TimedSegment> small = FleetFeed(12, 8, 31);
  ASSERT_LT(small.size(), store::StoreWriter::kChunkSegments);
  // Many chunks per shard, and many seals per shard file.
  const std::vector<traj::TimedSegment> large = FleetFeed(1200, 80, 32);
  for (const std::size_t shards : {1u, 4u}) {
    const std::string tag = std::to_string(shards) + " shard(s)";
    ExpectSameBytesAsDirectFeed(small, shards, "small feed, " + tag);
    const std::size_t blocks =
        ExpectSameBytesAsDirectFeed(large, shards, "large feed, " + tag);
    EXPECT_GT(blocks, 4 * store::SegmentFileWriter::kBlocksPerSeal)
        << "the large feed must span several seals per shard, " << tag;
  }
}

/// An Env whose background tasks wait until Release(): held tasks, and
/// every task scheduled after, then go to the default Env in order.
class HoldingEnv final : public store::Env {
 public:
  Result<std::unique_ptr<store::WritableFile>> NewWritableFile(
      const std::string& path) override {
    return store::Env::Default()->NewWritableFile(path);
  }
  Status Rename(const std::string& from, const std::string& to) override {
    return store::Env::Default()->Rename(from, to);
  }
  Status Remove(const std::string& path) override {
    return store::Env::Default()->Remove(path);
  }
  void Schedule(std::function<void()> task) override {
    const std::lock_guard<std::mutex> lock(mu_);
    if (released_) {
      store::Env::Default()->Schedule(std::move(task));
    } else {
      held_.push_back(std::move(task));
    }
  }

  std::size_t held() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return held_.size();
  }

  void Release() {
    const std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    for (std::function<void()>& task : held_) {
      store::Env::Default()->Schedule(std::move(task));
    }
    held_.clear();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::function<void()>> held_;
  bool released_ = false;
};

TEST(StoreWriterSealTest, CountsHandOverWaitsOnlyAtTheCap) {
  constexpr std::size_t kCap = store::StoreWriter::kMaxChunksInFlight;
  constexpr std::size_t kChunk = store::StoreWriter::kChunkSegments;
  const obs::Counter* registry_waits =
      obs::MetricsRegistry::Global().GetCounter("store.write.handover_waits");
  const std::vector<traj::TimedSegment> feed =
      FleetFeed(100, (kCap + 1) * kChunk / 100 + 1, 36);
  for (const bool past_cap : {false, true}) {
    SCOPED_TRACE(past_cap ? "one chunk past the cap" : "up to the cap");
    const std::string dir = TempPath("seal_handover_waits.store");
    std::filesystem::remove_all(dir);
    HoldingEnv env;
    store::StoreWriterOptions options;
    options.zeta = testutil::kGoldenZeta;
    options.env = &env;
    auto writer = store::StoreWriter::Create(dir, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    // One shard, so every kChunk appends hand over one chunk.
    const std::size_t appends = (past_cap ? kCap + 1 : kCap) * kChunk;
    ASSERT_LE(appends, feed.size());
    const std::uint64_t waits_before = registry_waits->Value();
    std::atomic<std::size_t> failed_appends{0};
    std::thread appender([&] {
      for (std::size_t i = 0; i < appends; ++i) {
        if (!writer.value()->Append(feed[i]).ok()) failed_appends.fetch_add(1);
      }
    });
    if (past_cap) {
      // The last hand-over finds kCap chunks held, so it must wait; it
      // counts before waiting.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (registry_waits->Value() == waits_before &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      EXPECT_EQ(env.held(), kCap);
    } else {
      appender.join();
      EXPECT_EQ(env.held(), kCap);
    }
    env.Release();
    if (appender.joinable()) appender.join();
    EXPECT_EQ(failed_appends.load(), 0u);
    ASSERT_TRUE(writer.value()->Close().ok());
    EXPECT_EQ(writer.value()->stats().segments, appends);
    if (past_cap) {
      EXPECT_GE(writer.value()->stats().handover_waits, 1u);
      EXPECT_GT(registry_waits->Value(), waits_before);
    } else {
      EXPECT_EQ(writer.value()->stats().handover_waits, 0u);
      EXPECT_EQ(registry_waits->Value(), waits_before);
    }
  }
}

TEST(StoreWriterSealTest, ConcurrentAppendersKeepEachObjectsOrder) {
  const std::string dir = TempPath("seal_concurrent.store");
  std::filesystem::remove_all(dir);
  constexpr std::size_t kObjects = 240;
  constexpr std::size_t kThreads = 4;
  const std::vector<traj::TimedSegment> feed = FleetFeed(kObjects, 40, 33);
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.num_shards = 3;  // threads share shards, so inboxes contend
  {
    auto writer = store::StoreWriter::Create(dir, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    std::atomic<std::size_t> failed_appends{0};
    std::vector<std::thread> appenders;
    for (std::size_t k = 0; k < kThreads; ++k) {
      appenders.emplace_back([&, k] {
        for (const traj::TimedSegment& s : feed) {
          if (s.object_id % kThreads != k) continue;
          if (!writer.value()->Append(s).ok()) failed_appends.fetch_add(1);
        }
      });
    }
    for (std::thread& t : appenders) t.join();
    EXPECT_EQ(failed_appends.load(), 0u);
    ASSERT_TRUE(writer.value()->Close().ok());
    EXPECT_EQ(writer.value()->stats().segments, feed.size());
  }
  const auto reader = store::StoreReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (traj::ObjectId id = 0; id < kObjects; ++id) {
    const auto rec = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ExpectTimedEqual(*rec, SegmentsOf(feed, id),
                     "object " + std::to_string(id));
  }
}

TEST(StoreWriterSealTest, WriterDestroyedWithoutCloseDrainsEveryChunk) {
  const std::string dir = TempPath("seal_no_close.store");
  std::filesystem::remove_all(dir);
  const std::vector<traj::TimedSegment> feed = FleetFeed(300, 30, 34);
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.num_shards = 2;
  {
    auto writer = store::StoreWriter::Create(dir, options);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const traj::TimedSegment& s : feed) {
      ASSERT_TRUE(writer.value()->Append(s).ok());
    }
    // No Close(): the destructor hands over, drains and seals.
  }
  const auto reader = store::StoreReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (traj::ObjectId id = 0; id < 300; ++id) {
    const auto rec = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ExpectTimedEqual(*rec, SegmentsOf(feed, id),
                     "object " + std::to_string(id));
  }
}

TEST(StoreWriterSealTest, BackgroundWriteErrorPoisonsTheWriter) {
  const std::string dir = TempPath("seal_error.store");
  std::filesystem::remove_all(dir);
  constexpr std::size_t kObjects = 300;
  const std::vector<traj::TimedSegment> feed = FleetFeed(kObjects, 60, 35);
  store::FaultInjectingEnv env;
  store::StoreWriterOptions options;
  options.zeta = testutil::kGoldenZeta;
  options.num_shards = 2;
  options.env = &env;
  auto writer = store::StoreWriter::Create(dir, options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  // Appends do no file operation of their own, so every operation from
  // here until Close() is the background thread's. Fail the second
  // block's append (op 0 and 1 are the first block's append and flush).
  env.ArmFault(store::FaultInjectingEnv::FaultKind::kError, 2);
  Status append_error;
  std::size_t appended = 0;
  for (const traj::TimedSegment& s : feed) {
    append_error = writer.value()->Append(s);
    if (!append_error.ok()) break;
    ++appended;
  }
  // The appender can run at most kMaxChunksInFlight chunks (plus each
  // shard's inbox) ahead of the background thread, and the failing
  // block is in the first seal — far short of this feed's end.
  EXPECT_EQ(append_error.code(), StatusCode::kIOError)
      << "the background error never reached Append()";
  EXPECT_LT(appended, feed.size());
  EXPECT_TRUE(env.fault_fired());
  const Status closed = writer.value()->Close();
  EXPECT_EQ(closed.code(), StatusCode::kIOError);
  EXPECT_EQ(closed.message(), append_error.message());
  EXPECT_EQ(writer.value()->Close().message(), closed.message());
  EXPECT_EQ(writer.value()->Append(feed.front()).code(),
            StatusCode::kInvalidArgument);
  writer.value().reset();

  // The store reopens, and each object kept a prefix of its emission.
  const auto reader = store::StoreReader::Open(dir);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  std::size_t kept = 0;
  for (traj::ObjectId id = 0; id < kObjects; ++id) {
    const auto rec = reader.value()->ReconstructObject(id);
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    std::vector<traj::TimedSegment> want = SegmentsOf(feed, id);
    ASSERT_LE(rec->size(), want.size()) << "object " << id;
    want.resize(rec->size());
    ExpectTimedEqual(*rec, want, "prefix of object " + std::to_string(id));
    kept += rec->size();
  }
  EXPECT_GT(kept, 0u);
  EXPECT_LT(kept, feed.size());
}

}  // namespace
}  // namespace operb
