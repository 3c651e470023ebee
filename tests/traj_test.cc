#include <sys/stat.h>

#include <algorithm>
#include <cfloat>
#include <charconv>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <locale>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>

#include <gtest/gtest.h>

#include "traj/cleaner.h"
#include "traj/io.h"
#include "traj/multi_object.h"
#include "traj/piecewise.h"
#include "traj/trajectory.h"

namespace operb::traj {
namespace {

TEST(TrajectoryTest, AppendEnforcesMonotonicTime) {
  Trajectory t;
  EXPECT_TRUE(t.Append({0, 0, 1.0}).ok());
  EXPECT_TRUE(t.Append({1, 1, 2.0}).ok());
  const Status bad = t.Append({2, 2, 2.0});
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(t.size(), 2u);
  const Status worse = t.Append({2, 2, 1.5});
  EXPECT_FALSE(worse.ok());
}

TEST(TrajectoryTest, ValidateDetectsUncheckedViolations) {
  Trajectory t;
  t.AppendUnchecked({0, 0, 5.0});
  t.AppendUnchecked({1, 0, 4.0});
  EXPECT_FALSE(t.Validate().ok());
  Trajectory good;
  good.AppendUnchecked({0, 0, 0.0});
  good.AppendUnchecked({1, 0, 1.0});
  EXPECT_TRUE(good.Validate().ok());
}

TEST(TrajectoryTest, SummaryStatistics) {
  Trajectory t;
  t.AppendUnchecked({0, 0, 0.0});
  t.AppendUnchecked({3, 4, 2.0});
  t.AppendUnchecked({3, 10, 4.0});
  EXPECT_DOUBLE_EQ(t.PathLength(), 5.0 + 6.0);
  EXPECT_DOUBLE_EQ(t.Duration(), 4.0);
  EXPECT_DOUBLE_EQ(t.MeanSamplingIntervalSeconds(), 2.0);
  Trajectory single;
  single.AppendUnchecked({0, 0, 0.0});
  EXPECT_DOUBLE_EQ(single.Duration(), 0.0);
  EXPECT_DOUBLE_EQ(single.MeanSamplingIntervalSeconds(), 0.0);
}

RepresentedSegment Seg(geo::Vec2 a, geo::Vec2 b, std::size_t f,
                       std::size_t l) {
  RepresentedSegment s;
  s.start = a;
  s.end = b;
  s.first_index = f;
  s.last_index = l;
  return s;
}

TEST(PiecewiseTest, PointCountConvention) {
  const auto s = Seg({0, 0}, {1, 0}, 3, 7);
  EXPECT_EQ(s.PointCount(), 5u);
}

TEST(PiecewiseTest, StoredPointCount) {
  PiecewiseRepresentation rep;
  EXPECT_EQ(rep.StoredPointCount(), 0u);
  rep.Append(Seg({0, 0}, {10, 0}, 0, 4));
  EXPECT_EQ(rep.StoredPointCount(), 2u);
  rep.Append(Seg({10, 0}, {10, 10}, 4, 9));
  EXPECT_EQ(rep.StoredPointCount(), 3u);
}

Trajectory FivePoints() {
  Trajectory t;
  t.AppendUnchecked({0, 0, 0});
  t.AppendUnchecked({10, 0, 1});
  t.AppendUnchecked({20, 0, 2});
  t.AppendUnchecked({20, 10, 3});
  t.AppendUnchecked({20, 20, 4});
  return t;
}

TEST(PiecewiseTest, ValidateAcceptsWellFormed) {
  const Trajectory t = FivePoints();
  PiecewiseRepresentation rep;
  rep.Append(Seg({0, 0}, {20, 0}, 0, 2));
  rep.Append(Seg({20, 0}, {20, 20}, 2, 4));
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(PiecewiseTest, ValidateRejectsGapsWithoutPatchFlags) {
  const Trajectory t = FivePoints();
  PiecewiseRepresentation rep;
  rep.Append(Seg({0, 0}, {20, 0}, 0, 2));
  rep.Append(Seg({20, 0}, {20, 20}, 3, 4));  // gap 2 -> 3, no flags
  EXPECT_FALSE(rep.ValidateAgainst(t).ok());
}

TEST(PiecewiseTest, ValidateAcceptsPatchedJunctionGap) {
  const Trajectory t = FivePoints();
  PiecewiseRepresentation rep;
  auto a = Seg({0, 0}, {25, 0}, 0, 2);
  a.end_is_patch = true;  // G = (25, 0)
  rep.Append(a);
  auto b = Seg({25, 0}, {20, 20}, 3, 4);
  b.start_is_patch = true;
  rep.Append(b);
  EXPECT_TRUE(rep.ValidateAgainst(t).ok());
}

TEST(PiecewiseTest, ValidateRejectsDiscontinuousGeometry) {
  const Trajectory t = FivePoints();
  PiecewiseRepresentation rep;
  rep.Append(Seg({0, 0}, {20, 0}, 0, 2));
  rep.Append(Seg({21, 0}, {20, 20}, 2, 4));  // start != previous end
  EXPECT_FALSE(rep.ValidateAgainst(t).ok());
}

TEST(PiecewiseTest, ValidateRejectsWrongEndpoints) {
  const Trajectory t = FivePoints();
  PiecewiseRepresentation rep;
  rep.Append(Seg({0, 0}, {19, 0}, 0, 2));  // end not at P2, unflagged
  rep.Append(Seg({19, 0}, {20, 20}, 2, 4));
  EXPECT_FALSE(rep.ValidateAgainst(t).ok());
}

TEST(PiecewiseTest, ValidateRejectsNotCoveringWholeTrajectory) {
  const Trajectory t = FivePoints();
  PiecewiseRepresentation rep;
  rep.Append(Seg({0, 0}, {20, 0}, 0, 2));
  EXPECT_FALSE(rep.ValidateAgainst(t).ok());
}

TEST(PiecewiseTest, TinyTrajectoriesRequireEmptyRepresentation) {
  Trajectory one;
  one.AppendUnchecked({0, 0, 0});
  PiecewiseRepresentation empty;
  EXPECT_TRUE(empty.ValidateAgainst(one).ok());
  PiecewiseRepresentation nonempty;
  nonempty.Append(Seg({0, 0}, {0, 0}, 0, 0));
  EXPECT_FALSE(nonempty.ValidateAgainst(one).ok());
}

TEST(CleanerTest, DropsDuplicates) {
  StreamCleaner cleaner;
  EXPECT_TRUE(cleaner.Push({0, 0, 1.0}).has_value());
  EXPECT_FALSE(cleaner.Push({0, 0, 1.0}).has_value());
  EXPECT_TRUE(cleaner.Push({1, 0, 2.0}).has_value());
  EXPECT_EQ(cleaner.stats().duplicates_dropped, 1u);
  EXPECT_EQ(cleaner.stats().accepted, 2u);
}

TEST(CleanerTest, DropsOutOfOrder) {
  StreamCleaner cleaner;
  cleaner.Push({0, 0, 10.0});
  EXPECT_FALSE(cleaner.Push({5, 5, 9.0}).has_value());
  EXPECT_EQ(cleaner.stats().out_of_order_dropped, 1u);
  // Same position, earlier time: out-of-order, not duplicate.
  EXPECT_FALSE(cleaner.Push({0, 0, 5.0}).has_value());
  EXPECT_EQ(cleaner.stats().out_of_order_dropped, 2u);
}

TEST(CleanerTest, SpeedGateDropsImpossibleJumps) {
  CleanerOptions opts;
  opts.max_speed_mps = 50.0;
  StreamCleaner cleaner(opts);
  cleaner.Push({0, 0, 0.0});
  // 1000 m in 1 s = 1000 m/s: impossible.
  EXPECT_FALSE(cleaner.Push({1000, 0, 1.0}).has_value());
  EXPECT_EQ(cleaner.stats().outliers_dropped, 1u);
  // 40 m in 1 s is fine.
  EXPECT_TRUE(cleaner.Push({40, 0, 1.0}).has_value());
}

TEST(CleanerTest, CleanAllProducesValidTrajectory) {
  std::vector<geo::Point> raw{{0, 0, 0.0}, {1, 0, 1.0}, {1, 0, 1.0},
                              {2, 0, 0.5}, {3, 0, 2.0}};
  StreamCleaner cleaner;
  const Trajectory t = cleaner.CleanAll(raw);
  EXPECT_TRUE(t.Validate().ok());
  EXPECT_EQ(t.size(), 3u);
}

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-case directory: gtest_discover_tests runs cases as separate
    // concurrent processes, so a shared fixed path would let one case's
    // TearDown remove_all another case's files mid-write.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("operb_io_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(IoTest, CsvRoundTrip) {
  Trajectory t;
  t.AppendUnchecked({1.5, -2.25, 0.0});
  t.AppendUnchecked({3.125, 4.5, 60.0});
  ASSERT_TRUE(WriteCsv(t, Path("t.csv")).ok());
  auto r = ReadCsv(Path("t.csv"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_DOUBLE_EQ((*r)[0].x, 1.5);
  EXPECT_DOUBLE_EQ((*r)[1].y, 4.5);
  EXPECT_DOUBLE_EQ((*r)[1].t, 60.0);
}

TEST_F(IoTest, ReadMissingFileIsIOError) {
  const auto r = ReadCsv(Path("nope.csv"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIOError);
}

TEST_F(IoTest, ParseCsvRejectsMalformedRow) {
  const auto r = ParseCsv("1,2,3\nnot-a-row\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, ParseCsvRejectsNonMonotonicTime) {
  const auto r = ParseCsv("0,0,5\n1,1,4\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, ParseCsvSkipsCommentsAndBlanks) {
  const auto r = ParseCsv("# header\n\n0,0,0\n  \n1,1,1\n");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(IoTest, GeoLifePltParses) {
  const std::string plt =
      "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
      "0,2,255,My Track,0,0,2,8421376\n0\n"
      "39.906631,116.385564,0,492,39744.245208,2008-10-23,05:53:06\n"
      "39.906554,116.385625,0,492,39744.245266,2008-10-23,05:53:11\n"
      "39.906409,116.385870,0,492,39744.245324,2008-10-23,05:53:16\n";
  const std::string path = Path("a.plt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(plt.c_str(), f);
    std::fclose(f);
  }
  const auto r = ReadGeoLifePlt(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  // First point is the projection reference -> origin, t = 0.
  EXPECT_NEAR((*r)[0].x, 0.0, 1e-9);
  EXPECT_NEAR((*r)[0].y, 0.0, 1e-9);
  EXPECT_NEAR((*r)[0].t, 0.0, 1e-9);
  // 5-second sampling.
  EXPECT_NEAR((*r)[1].t, 5.0, 0.1);
  // ~10 m of southward movement between the first two fixes.
  EXPECT_LT((*r)[1].y, 0.0);
  EXPECT_TRUE(r->Validate().ok());
}

TEST_F(IoTest, GeoLifePltRejectsTruncatedHeader) {
  const std::string path = Path("bad.plt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("only\ntwo lines\n", f);
    std::fclose(f);
  }
  const auto r = ReadGeoLifePlt(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, GeoLifePltRejectsOutOfRangeCoordinates) {
  const std::string path = Path("oob.plt");
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("h\nh\nh\nh\nh\nh\n200.0,116.0,0,0,39744.0,d,t\n", f);
    std::fclose(f);
  }
  const auto r = ReadGeoLifePlt(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

/// Restores both the C and the C++ global locale on scope exit, so a
/// failing assertion can't leak a comma-decimal locale into later tests.
class ScopedLocale {
 public:
  ScopedLocale() {
    const char* current = std::setlocale(LC_ALL, nullptr);
    saved_c_ = current != nullptr ? current : "C";
  }
  ~ScopedLocale() {
    std::locale::global(saved_cxx_);
    std::setlocale(LC_ALL, saved_c_.c_str());
  }

 private:
  std::string saved_c_;
  std::locale saved_cxx_;
};

/// A numpunct facet whose decimal separator is ',' — available on every
/// platform, unlike the OS's de_DE/fr_FR locale data.
class CommaDecimalNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// Regression test for the sscanf-era locale fragility: "%lf" honors the
/// process locale's decimal separator, so under a ","-decimal locale
/// "1.5" parsed as 1 (stopping at the '.'). The from_chars scanner is
/// locale-independent by specification; pin that down under both a
/// comma-decimal C++ global locale and (where the OS ships one) a
/// comma-decimal C locale.
TEST_F(IoTest, ParsingIsLocaleIndependent) {
  ScopedLocale guard;
  std::locale::global(
      std::locale(std::locale::classic(), new CommaDecimalNumpunct));
  // Best effort for the C locale (what sscanf/strtod actually read):
  // containers often ship no comma-decimal locale data; the custom C++
  // facet above covers the stream half regardless.
  for (const char* name :
       {"de_DE.UTF-8", "de_DE", "fr_FR.UTF-8", "nl_NL.UTF-8"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) break;
  }

  const auto csv = ParseCsv("1.5,-2.25,0.5\n3.125,4.5,1.5\n");
  ASSERT_TRUE(csv.ok()) << csv.status().ToString();
  ASSERT_EQ(csv->size(), 2u);
  EXPECT_EQ((*csv)[0].x, 1.5);
  EXPECT_EQ((*csv)[0].y, -2.25);
  EXPECT_EQ((*csv)[0].t, 0.5);
  EXPECT_EQ((*csv)[1].x, 3.125);
  EXPECT_EQ((*csv)[1].t, 1.5);

  const auto plt = ParseGeoLifePlt(
      "h\nh\nh\nh\nh\nh\n"
      "39.906631,116.385564,0,492,39744.245208,2008-10-23,05:53:06\n"
      "39.906554,116.385625,0,492,39744.245266,2008-10-23,05:53:11\n");
  ASSERT_TRUE(plt.ok()) << plt.status().ToString();
  ASSERT_EQ(plt->size(), 2u);
  EXPECT_NEAR((*plt)[1].t, 5.0, 0.1);  // fractional days survived parsing
}

TEST_F(IoTest, ParseCsvAcceptsPlusSignAndDosLineEndings) {
  // sscanf's %lf accepted an explicit '+' and "\r\n" rows; the from_chars
  // scanner must not regress either.
  const auto r = ParseCsv("+1.5,+2.5,+0.5\r\n2.5,3.5,1.5\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].x, 1.5);
  EXPECT_EQ((*r)[0].t, 0.5);
}

TEST_F(IoTest, ParseCsvRejectsDoublySignedNumbers) {
  // "+-1.5" made strtod convert nothing; it must not parse as -1.5.
  const auto r = ParseCsv("+-1.5,2.5,0.5\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
}

TEST_F(IoTest, ReadCsvFromNonSeekableSource) {
  // Pipes and process substitution have no file size; the reader must
  // fall back to chunked reads instead of failing the tellg fast path.
  const std::string fifo = Path("t.fifo");
  ASSERT_EQ(mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer([&fifo] {
    std::ofstream out(fifo);  // blocks until the reader opens
    out << "0,0,0\n1,1,1\n";
  });
  const auto r = ReadCsv(fifo);
  writer.join();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->size(), 2u);
}

TEST_F(IoTest, WriteCsvStringRoundTrips) {
  Trajectory t;
  t.AppendUnchecked({1.5, -2.25, 0.0});
  t.AppendUnchecked({3.125, 4.5, 60.0});
  const auto r = ParseCsv(WriteCsvString(t));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[1].x, 3.125);
}

/// `%.9g` rounds epoch seconds to 10 s, so close samples print equal
/// times unless the writer widens them. Seeded traces step 0.5-30 s and
/// carry runs of 3-5 samples inside one 10 s grid cell; every trace must
/// read back with its point count, strictly increasing times, and each
/// time exact or within the `%.9g` rounding of the one written.
TEST_F(IoTest, WriteCsvStringKeepsCloseEpochTimesInOrder) {
  std::mt19937_64 rng(1700);
  std::uniform_real_distribution<double> coord(-5e4, 5e4);
  std::uniform_real_distribution<double> step(0.5, 30.0);
  for (int trace = 0; trace < 20; ++trace) {
    Trajectory t;
    double time = 1.7e9 + static_cast<double>(rng() % 100000);
    for (int i = 0; i < 2000; ++i) {
      if (rng() % 50 == 0) {
        // A run of 3-5 rows 1 s apart, starting on a grid point, so all
        // of them print the same `%.9g` text.
        time = std::ceil(time / 10.0) * 10.0 + 10.0;
        const int run = 3 + static_cast<int>(rng() % 3);
        for (int k = 0; k < run; ++k, ++i) {
          t.AppendUnchecked({coord(rng), coord(rng), time + k});
        }
        time += run;
      }
      t.AppendUnchecked({coord(rng), coord(rng), time += step(rng)});
    }
    const auto r = ParseCsv(WriteCsvString(t));
    ASSERT_TRUE(r.ok()) << "trace " << trace << ": " << r.status().ToString();
    ASSERT_EQ(r->size(), t.size()) << "trace " << trace;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (i > 0) {
        ASSERT_LT((*r)[i - 1].t, (*r)[i].t) << "row " << i;
      }
      EXPECT_LE(std::abs((*r)[i].t - t[i].t), 5.0) << "row " << i;
    }
  }
  // Times on the 10 s grid never tie, so every row keeps its `%.9g` text.
  Trajectory grid;
  std::string want = "# x_meters,y_meters,t_seconds\n";
  for (int i = 0; i < 100; ++i) {
    const geo::Point p{coord(rng), coord(rng), 1.7e9 + 10.0 * i};
    grid.AppendUnchecked(p);
    char row[128];
    want.append(row, static_cast<std::size_t>(std::snprintf(
                         row, sizeof(row), "%.9g,%.9g,%.9g\n", p.x, p.y, p.t)));
  }
  EXPECT_EQ(WriteCsvString(grid), want);
}

TEST_F(IoTest, WriteMultiObjectCsvStringKeepsCloseEpochTimesInOrder) {
  std::mt19937_64 rng(1701);
  std::uniform_real_distribution<double> coord(-5e4, 5e4);
  std::uniform_real_distribution<double> step(0.5, 30.0);
  constexpr int kObjects = 40;
  // Each object's clock; rows of all objects interleave at random.
  std::vector<double> clock(kObjects);
  for (double& c : clock) c = 1.7e9 + static_cast<double>(rng() % 100000);
  std::vector<ObjectUpdate> updates;
  for (int i = 0; i < 20000; ++i) {
    const int id = static_cast<int>(rng() % kObjects);
    double& time = clock[static_cast<std::size_t>(id)];
    if (rng() % 50 == 0) {
      // A run of 3-5 updates 1 s apart, starting on a grid point, so
      // all of them print the same `%.9g` text.
      time = std::ceil(time / 10.0) * 10.0 + 10.0;
      const int run = 3 + static_cast<int>(rng() % 3);
      for (int k = 0; k < run; ++k) {
        updates.push_back(ObjectUpdate{static_cast<ObjectId>(id),
                                       {coord(rng), coord(rng), time + k}});
      }
      time += run;
    }
    updates.push_back(ObjectUpdate{static_cast<ObjectId>(id),
                                   {coord(rng), coord(rng), time += step(rng)}});
  }
  const auto parsed = ParseMultiObjectCsv(WriteMultiObjectCsvString(updates));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    ASSERT_EQ((*parsed)[i].object_id, updates[i].object_id) << "row " << i;
    EXPECT_LE(std::abs((*parsed)[i].point.t - updates[i].point.t), 5.0)
        << "row " << i;
  }
  const auto grouped = GroupUpdatesByObject(*parsed);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->size(), static_cast<std::size_t>(kObjects));
  // Times on the 10 s grid never tie within an object, although every
  // object shares them, so every row keeps its `%.9g` text.
  std::vector<ObjectUpdate> grid;
  std::string want = "# object_id,t_seconds,x_meters,y_meters\n";
  for (int i = 0; i < 100; ++i) {
    for (ObjectId id = 0; id < 3; ++id) {
      const ObjectUpdate u{id, {coord(rng), coord(rng), 1.7e9 + 10.0 * i}};
      grid.push_back(u);
      char row[160];
      want.append(row, static_cast<std::size_t>(std::snprintf(
                           row, sizeof(row), "%llu,%.9g,%.9g,%.9g\n",
                           static_cast<unsigned long long>(id), u.point.t,
                           u.point.x, u.point.y)));
    }
  }
  EXPECT_EQ(WriteMultiObjectCsvString(grid), want);
}

TEST_F(IoTest, RepresentationCsvWrites) {
  PiecewiseRepresentation rep;
  rep.Append(Seg({0, 0}, {10, 0}, 0, 3));
  rep.Append(Seg({10, 0}, {10, 5}, 3, 5));
  ASSERT_TRUE(WriteRepresentationCsv(rep, Path("rep.csv")).ok());
  std::FILE* f = std::fopen(Path("rep.csv").c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  int rows = 0;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) ++rows;
  std::fclose(f);
  EXPECT_EQ(rows, 1 + 2 + 1);  // header + segments + final endpoint
}

// The reference writers below print every row with snprintf, as the
// writers did before they formatted with std::to_chars; the writers must
// match them byte for byte.

std::string PrintfXyt(const geo::Point& p, bool exact_time) {
  char row[128];
  const int n =
      exact_time
          ? std::snprintf(row, sizeof(row), "%.9g,%.9g,%.17g\n", p.x, p.y, p.t)
          : std::snprintf(row, sizeof(row), "%.9g,%.9g,%.9g\n", p.x, p.y, p.t);
  return std::string(row, static_cast<std::size_t>(n));
}

/// "" when `got` equals `want`, else the first line where they differ as
/// each has it. Comparing megabytes with EXPECT_EQ would have gtest diff
/// them line by line, in time and memory quadratic in the line count.
std::string FirstDifference(std::string_view got, std::string_view want) {
  const auto [g, w] = std::mismatch(got.begin(), got.end(), want.begin(),
                                    want.end());
  if (g == got.end() && w == want.end()) return "";
  const auto line = [](std::string_view text, std::size_t at) {
    const std::size_t begin = text.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t first = begin == std::string_view::npos ? 0 : begin + 1;
    return std::string(text.substr(first, text.find('\n', first) - first));
  };
  const auto at = static_cast<std::size_t>(g - got.begin());
  return "byte " + std::to_string(at) + ": got \"" + line(got, at) +
         "\", want \"" + line(want, at) + "\"";
}

std::string PrintfNineDigits(double value) {
  char text[64];
  const int n = std::snprintf(text, sizeof(text), "%.9g", value);
  return std::string(text, static_cast<std::size_t>(n));
}

/// WriteCsvString's bytes: a row whose `%.9g` time text equals the
/// previous row's takes a `%.17g` time, and so does that previous row.
std::string ReferenceCsv(const Trajectory& t) {
  std::vector<bool> exact(t.size());
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (PrintfNineDigits(t[i].t) == PrintfNineDigits(t[i - 1].t)) {
      exact[i - 1] = exact[i] = true;
    }
  }
  std::string out = "# x_meters,y_meters,t_seconds\n";
  for (std::size_t i = 0; i < t.size(); ++i) out += PrintfXyt(t[i], exact[i]);
  return out;
}

/// WriteMultiObjectCsvString's bytes: as ReferenceCsv, but a row's time
/// is compared with its own object's previous row.
std::string ReferenceMultiObjectCsv(std::span<const ObjectUpdate> updates) {
  std::vector<bool> exact(updates.size());
  std::unordered_map<ObjectId, std::size_t> last_row;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto last = last_row.find(updates[i].object_id);
    if (last != last_row.end() &&
        PrintfNineDigits(updates[last->second].point.t) ==
            PrintfNineDigits(updates[i].point.t)) {
      exact[last->second] = exact[i] = true;
    }
    last_row[updates[i].object_id] = i;
  }
  std::string out = "# object_id,t_seconds,x_meters,y_meters\n";
  char row[160];
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const ObjectUpdate& u = updates[i];
    const auto id = static_cast<unsigned long long>(u.object_id);
    const int n = exact[i] ? std::snprintf(row, sizeof(row),
                                           "%llu,%.17g,%.9g,%.9g\n", id,
                                           u.point.t, u.point.x, u.point.y)
                           : std::snprintf(row, sizeof(row),
                                           "%llu,%.9g,%.9g,%.9g\n", id,
                                           u.point.t, u.point.x, u.point.y);
    out.append(row, static_cast<std::size_t>(n));
  }
  return out;
}

std::string ReferenceTaggedSegmentsCsv(
    std::span<const TaggedSegment> segments) {
  std::string out =
      "# object_id,first_index,last_index,start_is_patch,end_is_patch,"
      "start_x,start_y,end_x,end_y\n";
  char row[256];
  for (const TaggedSegment& ts : segments) {
    const RepresentedSegment& s = ts.segment;
    const int n = std::snprintf(
        row, sizeof(row), "%llu,%zu,%zu,%d,%d,%.17g,%.17g,%.17g,%.17g\n",
        static_cast<unsigned long long>(ts.object_id), s.first_index,
        s.last_index, s.start_is_patch ? 1 : 0, s.end_is_patch ? 1 : 0,
        s.start.x, s.start.y, s.end.x, s.end.y);
    out.append(row, static_cast<std::size_t>(n));
  }
  return out;
}

std::string ReferenceRepresentationCsv(const PiecewiseRepresentation& rep) {
  std::string out = "# x,y,first_index,last_index\n";
  char row[160];
  const auto append = [&](geo::Vec2 at, std::size_t first, std::size_t last) {
    out.append(row, static_cast<std::size_t>(
                        std::snprintf(row, sizeof(row), "%.9g,%.9g,%zu,%zu\n",
                                      at.x, at.y, first, last)));
  };
  for (const RepresentedSegment& s : rep) {
    append(s.start, s.first_index, s.last_index);
  }
  if (!rep.empty()) {
    const RepresentedSegment& last = rep[rep.size() - 1];
    append(last.end, last.last_index, last.last_index);
  }
  return out;
}

/// Doubles whose printf text is hard to get right: the edge values, then
/// `count` seeded ones in turn from random bit patterns (any sign, NaN
/// payloads, subnormals), meter and second magnitudes, 10-digit integers
/// ending in 5 (exact ties at the ninth digit) and runs of epoch times a
/// fraction of a second apart (ties of `%.9g` time text).
std::vector<double> FormatterInputs(std::size_t count) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  // Epoch times first: 1700000001, the double below 1700000005 and
  // 1700000005 itself all print `1.7e+09`.
  std::vector<double> values = {
      1700000001.0, std::nextafter(1700000005.0, 0.0), 1700000005.0,
      1700000009.75, 1700000010.0, 1.7e9, 0.0, -0.0, kInf, -kInf, kNaN, -kNaN,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), DBL_MIN, -DBL_MIN,
      DBL_MIN - std::numeric_limits<double>::denorm_min(), DBL_MAX, -DBL_MAX,
      1e22, 1e23, -1e23, 1234567895.0, 1234567885.0, 999999999.5,
      9999999995.0, 0.1, 1e-5, 123456789.0, 1e15, 1e16, 1e17, 2.5, 0.5};
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> meters(-2e5, 2e5);
  std::uniform_real_distribution<double> seconds(0.0, 2e9);
  double epoch = 1.7e9;
  for (std::size_t i = 0; values.size() < count; ++i) {
    switch (i % 5) {
      case 0: {
        const std::uint64_t bits = rng();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        values.push_back(v);
        break;
      }
      case 1:
        values.push_back(meters(rng));
        break;
      case 2:
        values.push_back(seconds(rng));
        break;
      case 3:
        values.push_back(
            static_cast<double>((1000000000 + rng() % 8999999999) / 10 * 10 +
                                5));
        break;
      default:
        // Three samples 0.25-1 s apart, often inside one 10 s cell.
        for (int k = 0; k < 3; ++k) {
          values.push_back(epoch += 0.25 * static_cast<double>(1 + rng() % 4));
        }
        break;
    }
  }
  return values;
}

TEST_F(IoTest, WritersMatchPrintfFormatting) {
  const std::vector<double> v = FormatterInputs(120000);
  const std::size_t n = v.size();
  std::mt19937_64 rng(2025);
  const auto index = [&rng](std::size_t i) -> std::size_t {
    switch (i % 4) {
      case 0:
        return std::numeric_limits<std::size_t>::max();
      case 1:
        return 0;
      default:
        return static_cast<std::size_t>(rng() >> (rng() % 64));
    }
  };
  const ObjectId ids[] = {0, 1, std::numeric_limits<ObjectId>::max(), 42,
                          12345678901234567890u};
  // Every value appears in every column.
  Trajectory trajectory;
  std::vector<ObjectUpdate> updates;
  std::vector<TaggedSegment> tagged;
  PiecewiseRepresentation representation;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Point p{v[i], v[(i + n / 3) % n], v[(i + 2 * n / 3) % n]};
    trajectory.AppendUnchecked({p.y, p.t, p.x});
    // Runs of 8 rows per object, so the epoch runs tie within objects.
    updates.push_back({ids[i / 8 % 5], {p.y, p.t, p.x}});
    TaggedSegment ts;
    ts.object_id = i < 5 ? ids[i] : rng() >> (rng() % 64);
    ts.segment = Seg({p.x, p.y}, {p.t, v[(i + 1) % n]}, index(i), index(i + 1));
    ts.segment.start_is_patch = i % 3 == 0;
    ts.segment.end_is_patch = i % 2 == 0;
    tagged.push_back(ts);
    representation.Append(ts.segment);
  }
  // The first rows' times tie, so they take `%.17g`; the reference must
  // agree on which rows do.
  const std::string csv = WriteCsvString(trajectory);
  EXPECT_NE(csv.find(",1700000005\n"), std::string::npos);
  EXPECT_EQ(FirstDifference(csv, ReferenceCsv(trajectory)), "");
  const std::string multi_csv = WriteMultiObjectCsvString(updates);
  EXPECT_NE(multi_csv.find("\n0,1700000005,"), std::string::npos);
  EXPECT_EQ(FirstDifference(multi_csv, ReferenceMultiObjectCsv(updates)), "");
  EXPECT_EQ(FirstDifference(WriteTaggedSegmentsCsvString(tagged),
                            ReferenceTaggedSegmentsCsv(tagged)),
            "");
  ASSERT_TRUE(WriteRepresentationCsv(representation, Path("rep.csv")).ok());
  std::ifstream in(Path("rep.csv"), std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(
      FirstDifference(written, ReferenceRepresentationCsv(representation)), "");
}

// ---------------------------------------------------------------------------
// Multi-object streams (id,t,x,y CSV + grouping).
// ---------------------------------------------------------------------------

TEST_F(IoTest, MultiObjectCsvParsesInterleavedRowsInFileOrder) {
  const auto r = ParseMultiObjectCsv(
      "# object_id,t_seconds,x_meters,y_meters\n"
      "7,0,1.5,2.5\n"
      "3,0.5,-1,0\n"
      "\n"
      "7,1,2.5,3.5\n"
      "# trailing comment\n"
      "3,1.5,-2,0\r\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 4u);
  EXPECT_EQ((*r)[0].object_id, 7u);
  EXPECT_DOUBLE_EQ((*r)[0].point.x, 1.5);
  EXPECT_DOUBLE_EQ((*r)[0].point.t, 0.0);
  EXPECT_EQ((*r)[1].object_id, 3u);
  EXPECT_EQ((*r)[2].object_id, 7u);
  EXPECT_EQ((*r)[3].object_id, 3u);  // DOS line ending stripped
  EXPECT_DOUBLE_EQ((*r)[3].point.x, -2.0);
}

TEST_F(IoTest, ParseCsvPointsAcceptsRawRowsTheValidatingParserRejects) {
  // Same row grammar as ParseCsv, but duplicates and time regressions
  // pass through (the cleaner-fronted ingest path).
  const std::string dirty = "0,0,0\n1,0,1\n1,0,1\n0.5,0,0.5\n2,0,2\n";
  ASSERT_FALSE(ParseCsv(dirty).ok());
  const auto raw = ParseCsvPoints(dirty);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_EQ(raw->size(), 5u);
  EXPECT_DOUBLE_EQ((*raw)[2].t, 1.0);   // duplicate kept
  EXPECT_DOUBLE_EQ((*raw)[3].t, 0.5);   // regression kept
  // Syntax errors are still Corruption.
  EXPECT_EQ(ParseCsvPoints("1,2\n").status().code(),
            StatusCode::kCorruption);
  EXPECT_EQ(ParseCsvPoints("a,b,c\n").status().code(),
            StatusCode::kCorruption);
}

TEST_F(IoTest, MultiObjectCsvRejectsMalformedRows) {
  const auto missing_field = ParseMultiObjectCsv("1,0,1\n");
  ASSERT_FALSE(missing_field.ok());
  EXPECT_EQ(missing_field.status().code(), StatusCode::kCorruption);
  const auto negative_id = ParseMultiObjectCsv("-4,0,1,1\n");
  ASSERT_FALSE(negative_id.ok());
  const auto junk = ParseMultiObjectCsv("7,zero,1,1\n");
  ASSERT_FALSE(junk.ok());
}

TEST_F(IoTest, RowParsersRejectTrailingJunk) {
  // After a row's last field only horizontal whitespace may follow.
  for (const char* bad : {"7,0,1,1,9\n", "7,0,1,1 junk\n", "7,0,1,1.5.5\n"}) {
    const auto r = ParseMultiObjectCsv(std::string("7,0,1,1\n") + bad);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().message(), "malformed multi-object CSV row at line 2")
        << bad;
  }
  for (const char* bad : {"1,2,3,4\n", "1,2,3x\n", "1,2,3 4\n"}) {
    const std::string csv = std::string("0,0,0\n") + bad;
    EXPECT_EQ(ParseCsv(csv).status().message(),
              "malformed CSV row at line 2") << bad;
    EXPECT_EQ(ParseCsvPoints(csv).status().message(),
              "malformed CSV row at line 2") << bad;
  }
  // Trailing blanks, tabs and a CR are not junk.
  const auto multi = ParseMultiObjectCsv("7,0,1,1.5 \t\r\n");
  ASSERT_TRUE(multi.ok()) << multi.status().ToString();
  EXPECT_DOUBLE_EQ((*multi)[0].point.y, 1.5);
  EXPECT_TRUE(ParseCsv("0,0,0\t \n1,1,1 \r\n").ok());
  EXPECT_TRUE(ParseCsvPoints("0,0,0 \n").ok());
  // PLT rows keep their documented date and time columns, unread.
  const auto plt = ParseGeoLifePlt(
      "h\nh\nh\nh\nh\nh\n"
      "39.906631,116.385564,0,492,39744.245208,2008-10-23,05:53:06\n");
  ASSERT_TRUE(plt.ok()) << plt.status().ToString();
  EXPECT_EQ(plt->size(), 1u);
}

/// `plain` (whole rows, one per line) with clutter between and inside
/// its rows: blank lines, comments, CRLF rows and whitespace-led fields
/// recur every few lines. No final newline.
std::string AddClutter(const std::string& plain) {
  std::string out;
  out.reserve(plain.size() + plain.size() / 4);
  std::size_t line = 0;
  for (std::size_t pos = 0; pos < plain.size(); ++line) {
    const std::size_t nl = plain.find('\n', pos);
    std::string row = plain.substr(pos, nl - pos);
    pos = nl + 1;
    if (line % 97 == 0) out += "\n";
    if (line % 89 == 0) out += "  # comment, 1,2,3,4\n";
    if (line % 83 == 0) out += "\t\r\n\n";
    if (line % 5 == 0) {
      std::string spaced = " \t";
      for (char c : row) spaced += c == ',' ? std::string(", ") : std::string(1, c);
      row = spaced;
    }
    out += row;
    out += line % 7 == 0 ? "\r\n" : "\n";
  }
  out.pop_back();  // no final newline
  if (out.back() == '\r') out.pop_back();
  return out;
}

/// About 6 MiB of seeded `id,t,x,y` rows, big enough that
/// ParseMultiObjectCsv cuts it into one part per usable CPU, with clutter
/// recurring every few lines so each part boundary lands next to some.
std::string FleetCsvWithClutter() {
  std::mt19937_64 rng(18);
  std::uniform_real_distribution<double> coord(-5e4, 5e4);
  std::vector<ObjectUpdate> updates(170000);
  double t = 0.0;
  for (ObjectUpdate& u : updates) {
    u.object_id = rng() % 100000;
    u.point = {coord(rng), coord(rng), t += 0.01};
  }
  return AddClutter(WriteMultiObjectCsvString(updates));
}

/// The lines of `text`, without their '\n'.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

/// The same text parsed one line at a time: every call a single part.
std::vector<ObjectUpdate> ParseLineByLine(const std::string& text) {
  std::vector<ObjectUpdate> out;
  for (const std::string& line : SplitLines(text)) {
    const auto r = ParseMultiObjectCsv(line);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) out.insert(out.end(), r->begin(), r->end());
  }
  return out;
}

TEST_F(IoTest, MultiObjectCsvPartsMatchLineByLineParse) {
  const std::string text = FleetCsvWithClutter();
  ASSERT_GT(text.size(), std::size_t{6} << 20);
  ASSERT_NE(text.back(), '\n');
  const auto r = ParseMultiObjectCsv(text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const std::vector<ObjectUpdate> want = ParseLineByLine(text);
  ASSERT_EQ(r->size(), 170000u);
  ASSERT_EQ(r->size(), want.size());
  EXPECT_EQ(std::memcmp(r->data(), want.data(),
                        want.size() * sizeof(ObjectUpdate)),
            0);
}

TEST_F(IoTest, MultiObjectCsvPartsReportFirstMalformedLine) {
  const std::string text = FleetCsvWithClutter();
  // Replaces the line that holds byte `at` with a malformed row and
  // returns that line's 1-based number.
  const auto corrupt = [](std::string* s, std::size_t at) {
    const std::size_t begin = s->rfind('\n', at - 1) + 1;
    const std::size_t end = s->find('\n', begin);
    s->replace(begin, end - begin, "12,3.5,oops,4");
    return static_cast<std::size_t>(
               std::count(s->begin(), s->begin() + begin, '\n')) + 1;
  };
  std::string bad = text;
  const std::size_t last_line = corrupt(&bad, bad.size() - 100);
  auto r = ParseMultiObjectCsv(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(r.status().message(), "malformed multi-object CSV row at line " +
                                      std::to_string(last_line));
  const std::size_t middle_line = corrupt(&bad, bad.size() / 2);
  ASSERT_LT(middle_line, last_line);
  r = ParseMultiObjectCsv(bad);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "malformed multi-object CSV row at line " +
                                      std::to_string(middle_line));
}

TEST_F(IoTest, MultiObjectCsvPartsHandleEmptyAndCommentOnlyInputs) {
  const auto empty = ParseMultiObjectCsv("");
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->empty());
  // Small and multi-part inputs made only of comments and blank lines.
  for (const std::size_t lines : {std::size_t{3}, std::size_t{200000}}) {
    std::string text;
    for (std::size_t i = 0; i < lines; ++i) {
      text += i % 3 == 0 ? "\n" : "# object_id,t_seconds,x_meters,y_meters\n";
    }
    const auto r = ParseMultiObjectCsv(text);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->empty());
  }
}

/// The writer cuts a fleet's rows into parts formatted on their own
/// threads. The tied `%.9g` times are found over all rows, so a tied pair
/// on either side of a cut still takes `%.17g` on both rows, and the
/// parts are joined in order: the bytes are those of the serial writer.
TEST_F(IoTest, MultiObjectCsvPartsWriteTheSerialBytes) {
  std::mt19937_64 rng(1702);
  std::uniform_real_distribution<double> coord(-5e4, 5e4);
  // Objects 0-39 write their times in isolated tied pairs: 1 s and 1.5 s
  // past a 20 s grid point, which both print that grid point. A pair cut
  // apart, formatted part by part, would lose its `%.17g` times. Objects
  // 40-99 step 11-40 s, so none of their times tie.
  constexpr ObjectId kObjects = 100;
  constexpr ObjectId kPairedObjects = 40;
  std::vector<double> clock(kObjects);
  for (double& c : clock) c = 1.7e9 + 10.0 * static_cast<double>(rng() % 10000);
  std::vector<std::size_t> rows_written(kObjects, 0);
  std::vector<ObjectUpdate> updates(170000);
  for (ObjectUpdate& u : updates) {
    u.object_id = rng() % 2 == 0
                      ? rng() % kPairedObjects
                      : kPairedObjects + rng() % (kObjects - kPairedObjects);
    const std::size_t m = rows_written[u.object_id]++;
    double& t = clock[u.object_id];
    if (u.object_id >= kPairedObjects) {
      t += 11.0 + static_cast<double>(rng() % 30);
    } else if (m % 2 == 0) {
      t = 1.7e9 + 20.0 * static_cast<double>(m / 2) + 1.0;
    } else {
      t += 0.5;
    }
    u.point = {coord(rng), coord(rng), t};
  }
  // Every tied run is a pair, and wherever the rows are cut, one of the
  // pairs straddles the cut: count, for every cut c, the tied pairs
  // (prev, row) with prev < c <= row. At 1 MiB a part or more the rows
  // make at most 7 parts, so every cut lies past row n/8.
  std::vector<int> ties(updates.size(), 0);
  std::vector<int> straddling(updates.size() + 1, 0);
  std::unordered_map<ObjectId, std::size_t> last_row;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto last = last_row.find(updates[i].object_id);
    if (last != last_row.end() &&
        PrintfNineDigits(updates[last->second].point.t) ==
            PrintfNineDigits(updates[i].point.t)) {
      ASSERT_EQ(++ties[last->second], 1) << "row " << last->second;
      ++ties[i];
      ++straddling[last->second + 1];
      --straddling[i + 1];
    }
    last_row[updates[i].object_id] = i;
  }
  int open = 0;
  for (std::size_t c = 0; c < updates.size(); ++c) {
    open += straddling[c];
    if (c >= updates.size() / 8) {
      ASSERT_GT(open, 0) << "no tied pair straddles a cut before row " << c;
    }
  }

  const std::string csv = WriteMultiObjectCsvString(updates);
  // Above 2 MiB, so two usable CPUs or more give two parts or more.
  ASSERT_GT(csv.size(), std::size_t{2} << 20);
  EXPECT_EQ(FirstDifference(csv, ReferenceMultiObjectCsv(updates)), "");
  const auto parsed = ParseMultiObjectCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), updates.size());
  for (std::size_t i = 0; i < updates.size(); ++i) {
    ASSERT_EQ((*parsed)[i].object_id, updates[i].object_id) << "row " << i;
    ASSERT_LE(std::abs((*parsed)[i].point.t - updates[i].point.t), 5.0)
        << "row " << i;
  }
  const auto grouped = GroupUpdatesByObject(*parsed);
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  EXPECT_EQ(grouped->size(), static_cast<std::size_t>(kObjects));
}

/// What the row parsers' number grammar makes of one whole field: optional
/// blanks, an optional '+' before a digit or '.', then std::from_chars,
/// which must consume the rest of the field.
bool FromCharsField(std::string_view field, double* value) {
  const char* c = field.data();
  const char* const end = c + field.size();
  while (c < end && (*c == ' ' || *c == '\t')) ++c;
  if (end - c >= 2 && *c == '+' &&
      ((c[1] >= '0' && c[1] <= '9') || c[1] == '.')) {
    ++c;
  }
  const std::from_chars_result r = std::from_chars(c, end, *value);
  return r.ec == std::errc() && r.ptr == end;
}

/// Seeded number-like fields. Most are decimals built around the exact
/// fast path's limits (15 significant digits, decimal exponent within
/// ±22); the rest are printf renderings and junk from the number alphabet.
std::vector<std::string> RandomNumberFields(std::size_t count) {
  std::mt19937_64 rng(20);
  const auto below = [&rng](std::uint64_t n) {
    return static_cast<int>(rng() % n);
  };
  std::vector<std::string> fields;
  fields.reserve(count);
  while (fields.size() < count) {
    std::string f;
    const int kind = below(8);
    if (kind < 5) {
      // Decimal: 1-20 digits split around an optional point, sometimes
      // after leading fraction zeros, with a combined exponent in
      // [-30, 30] when one is written.
      if (below(3) == 0) f += '-';
      const auto digit = [&below] {
        return static_cast<char>('0' + below(10));
      };
      const int digits = 1 + below(20);
      const int int_digits = below(digits + 1);
      const int leading_zeros = below(4) == 0 ? below(6) : 0;
      for (int i = 0; i < int_digits; ++i) f += digit();
      int fraction = 0;
      if (int_digits < digits || below(2) == 0) {
        f += '.';
        for (int i = 0; i < leading_zeros; ++i, ++fraction) f += '0';
        for (int i = int_digits; i < digits; ++i, ++fraction) f += digit();
      }
      if (below(4) != 0) {
        const int combined = below(61) - 30;
        const int written = combined + fraction;
        f += below(2) == 0 ? 'e' : 'E';
        if (written >= 0 && below(2) == 0) f += '+';
        f += std::to_string(written);
      }
    } else if (kind < 7) {
      // Any bit pattern (NaN, infinities and subnormals included), or a
      // 53-bit significand at a moderate scale.
      double v;
      const std::uint64_t bits = rng();
      std::memcpy(&v, &bits, sizeof(v));
      if (kind == 6) {
        v = std::ldexp(static_cast<double>(rng() >> 11), below(120) - 90);
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), below(2) == 0 ? "%.9g" : "%.17g", v);
      f = buf;
    } else {
      static constexpr char kAlphabet[] = "0123456789.-+eE";
      const int length = 1 + below(12);
      for (int i = 0; i < length; ++i) {
        f += kAlphabet[below(sizeof(kAlphabet) - 1)];
      }
    }
    fields.push_back(std::move(f));
  }
  return fields;
}

TEST_F(IoTest, DecimalFastPathMatchesFromChars) {
  std::vector<std::string> fields = {
      "0", "-0", "0.0", "-0.0", "-0e5", ".5", "-.5", "5.", "-5.", ".", "-.",
      "+1", "+.5", "+-1", "-+1", "  1.5", "\t-2.25", " +3", "007", "-000.000",
      "0000000000000000000000001.5",
      "123456789012345",         // 15 significant digits
      "1234567890123456",        // 16
      "9007199254740993",        // 2^53 + 1
      "1234567890123456789",     // 19
      "12345678901234567890",    // 20
      "0.000000000000123456789012345",
      "1.0000000000000000000000",  // fraction of 22 digits
      "0.0000000000000000000001",  // 22
      "0.00000000000000000000001",  // 23
      "1e", "1e+", "1e-", "1E5", "1e+5", "1e-5", "1e22", "1e23", "-1e22",
      "9e22", "3e23", "1e-22", "1e-23", "1.5e-22", "123456789012345e22",
      "123456789012345e-22", "1e0000000000000000000000005", "1e400",
      "1e-400", "4.9e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
      "inf", "-inf", "infinity", "nan", "-nan", "NaN", "0x1p3",
      "1.70000002e+09",
      "1..5", "1.5.5", "e5", "-", "+", "1-", "--1"};
  const std::vector<std::string> random = RandomNumberFields(100000);
  fields.insert(fields.end(), random.begin(), random.end());
  std::size_t accepted = 0;
  for (const std::string& field : fields) {
    double want = 0.0;
    const bool ok = FromCharsField(field, &want);
    accepted += ok ? 1 : 0;
    // The field first (a comma follows it) and last (the line ends).
    const auto first = ParseCsvPoints(field + ",0,1\n");
    const auto last = ParseCsvPoints("0,1," + field);
    ASSERT_EQ(first.ok(), ok) << '"' << field << '"';
    ASSERT_EQ(last.ok(), ok) << '"' << field << '"';
    if (!ok) continue;
    ASSERT_EQ(std::memcmp(&(*first)[0].x, &want, sizeof(want)), 0)
        << '"' << field << "\" parsed as " << (*first)[0].x;
    ASSERT_EQ(std::memcmp(&(*last)[0].t, &want, sizeof(want)), 0)
        << '"' << field << "\" parsed as " << (*last)[0].t;
  }
  // Both outcomes are well represented.
  EXPECT_GT(accepted, fields.size() / 2);
  EXPECT_LT(accepted, fields.size());
}

/// Seeded `x,y,t` rows as WriteCsvString writes them, with epoch-sized
/// timestamps (which `%.9g` writes in exponent form) 10-30 s apart, so
/// `%.9g` keeps them increasing; clutter added, no final newline.
std::string EpochCsvWithClutter(std::size_t rows) {
  std::mt19937_64 rng(21);
  std::uniform_real_distribution<double> coord(-5e4, 5e4);
  Trajectory t;
  double time = 1.7e9;
  for (std::size_t i = 0; i < rows; ++i) {
    t.AppendUnchecked({coord(rng), coord(rng), time += 10.0 * (1 + rng() % 3)});
  }
  return AddClutter(WriteCsvString(t));
}

/// Six header lines, then seeded GeoLife rows 5 s apart, clutter added.
std::string PltWithClutter(std::size_t rows) {
  std::mt19937_64 rng(22);
  std::uniform_real_distribution<double> jitter(-0.01, 0.01);
  std::string data;
  char buf[160];
  for (std::size_t i = 0; i < rows; ++i) {
    std::snprintf(buf, sizeof(buf),
                  "%.6f,%.6f,0,%d,%.10f,2008-10-23,05:53:06\n",
                  39.9 + jitter(rng), 116.3 + jitter(rng),
                  static_cast<int>(rng() % 600), 39744.0 + i * 5.0 / 86400.0);
    data += buf;
  }
  return "Geolife trajectory\nWGS 84\nAltitude is in Feet\nReserved 3\n"
         "0,2,255,My Track,0,0,2,8421376\n0\n" +
         AddClutter(data);
}

/// A text parsed one line at a time: the rows it yields up to the first
/// refused line, and that line's 1-based number (0 if none).
struct LineByLineParse {
  std::vector<geo::Point> rows;
  std::size_t bad_line = 0;
};

/// `x,y,t` text, each line through ParseCsvPoints on its own; with
/// `increasing_time`, a row not later than the previous one is refused.
LineByLineParse CsvLineByLine(const std::string& text, bool increasing_time) {
  LineByLineParse out;
  const std::vector<std::string> lines = SplitLines(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const auto r = ParseCsvPoints(lines[i]);
    if (!r.ok() || (increasing_time && !r->empty() && !out.rows.empty() &&
                    (*r)[0].t <= out.rows.back().t)) {
      out.bad_line = i + 1;
      return out;
    }
    out.rows.insert(out.rows.end(), r->begin(), r->end());
  }
  return out;
}

/// PLT text, each data line parsed after the header and the first data
/// row (which fixes t = 0), under a fixed projection reference.
LineByLineParse PltLineByLine(const std::string& text,
                              const PltReadOptions& options) {
  LineByLineParse out;
  const std::vector<std::string> lines = SplitLines(text);
  std::string header;
  for (std::size_t i = 0; i < 6; ++i) header += lines[i] + "\n";
  std::string first;
  for (std::size_t i = 6; i < lines.size(); ++i) {
    if (first.empty()) {
      const auto r = ParseGeoLifePlt(header + lines[i], options);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r->empty()) {
        first = lines[i];
        out.rows.push_back((*r)[0]);
      }
      continue;
    }
    const auto r = ParseGeoLifePlt(header + first + "\n" + lines[i], options);
    if (!r.ok() || (r->size() == 2 && (*r)[1].t <= out.rows.back().t)) {
      out.bad_line = i + 1;
      return out;
    }
    if (r->size() == 2) out.rows.push_back((*r)[1]);
  }
  return out;
}

/// The rows a one-pass parse returned, or nothing if it failed.
std::vector<geo::Point> RowsOf(const Result<Trajectory>& r) {
  return r.ok() ? r->points() : std::vector<geo::Point>();
}
std::vector<geo::Point> RowsOf(const Result<std::vector<geo::Point>>& r) {
  return r.ok() ? *r : std::vector<geo::Point>();
}

/// The 1-based line number a one-pass parse failed at, or 0 if it parsed.
template <typename R>
std::size_t BadLineOf(const R& r) {
  if (r.ok()) return 0;
  const std::string m = r.status().message();
  const std::size_t at = m.find("line ");
  return at == std::string::npos ? 0 : std::stoul(m.substr(at + 5));
}

bool SameBits(const std::vector<geo::Point>& a,
              const std::vector<geo::Point>& b) {
  // memcmp may not be handed the null data() of an empty vector.
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(),
                                   a.size() * sizeof(geo::Point)) == 0);
}

TEST_F(IoTest, OnePassParsersMatchLineByLineParse) {
  const std::string csv = EpochCsvWithClutter(8000);
  ASSERT_NE(csv.back(), '\n');
  ASSERT_NE(csv.find("e+09"), std::string::npos);
  PltReadOptions options;
  options.use_fixed_reference = true;
  options.reference = {39.9, 116.3};
  const std::string plt = PltWithClutter(8000);

  const LineByLineParse csv_ref = CsvLineByLine(csv, true);
  ASSERT_EQ(csv_ref.bad_line, 0u);
  ASSERT_EQ(csv_ref.rows.size(), 8000u);
  const auto parsed = ParseCsv(csv);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_TRUE(SameBits(parsed->points(), csv_ref.rows));
  const auto points = ParseCsvPoints(csv);
  ASSERT_TRUE(points.ok()) << points.status().ToString();
  EXPECT_TRUE(SameBits(*points, csv_ref.rows));

  const LineByLineParse plt_ref = PltLineByLine(plt, options);
  ASSERT_EQ(plt_ref.bad_line, 0u);
  ASSERT_EQ(plt_ref.rows.size(), 8000u);
  const auto track = ParseGeoLifePlt(plt, options);
  ASSERT_TRUE(track.ok()) << track.status().ToString();
  EXPECT_TRUE(SameBits(track->points(), plt_ref.rows));

  // Seeded corruptions, each on its own copy of the text: a malformed row,
  // a row whose time goes back, or a repeat of the previous data row (the
  // same time again). Only lines after the first data row change, so a
  // repeat always finds an earlier one. The first refused line must match.
  std::mt19937_64 rng(23);
  const auto is_data = [](const std::string& line) {
    const std::size_t at = line.find_first_not_of(" \t\r");
    return at != std::string::npos && line[at] != '#';
  };
  const auto corrupt = [&rng, &is_data](const std::string& text,
                                        std::size_t header, int kind,
                                        const std::string& bad_row,
                                        const std::string& early_row) {
    std::vector<std::string> lines = SplitLines(text);
    std::size_t first_row = header;
    while (!is_data(lines[first_row])) ++first_row;
    const std::size_t at =
        first_row + 1 + rng() % (lines.size() - first_row - 1);
    if (kind == 0) lines[at] = bad_row;
    if (kind == 1) lines[at] = early_row;
    if (kind == 2) {
      std::size_t prev = at - 1;
      while (!is_data(lines[prev])) --prev;
      lines[at] = lines[prev];
    }
    std::string out;
    for (const std::string& l : lines) out += l + "\n";
    return out;
  };
  for (int i = 0; i < 24; ++i) {
    const int kind = i % 3;
    const std::string bad_csv = corrupt(csv, 0, kind, "1,2,oops", "1,2,1.7e9");
    const LineByLineParse ordered = CsvLineByLine(bad_csv, true);
    const LineByLineParse raw = CsvLineByLine(bad_csv, false);
    ASSERT_NE(ordered.bad_line, 0u);
    const auto r = ParseCsv(bad_csv);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(BadLineOf(r), ordered.bad_line) << r.status().ToString();
    EXPECT_EQ(r.status().message().rfind(
                  kind == 0 ? "malformed CSV row at line "
                            : "line " + std::to_string(ordered.bad_line) +
                                  ": non-monotonic timestamp",
                  0),
              0u)
        << r.status().ToString();
    const auto rp = ParseCsvPoints(bad_csv);
    EXPECT_EQ(BadLineOf(rp), raw.bad_line) << rp.status().ToString();
    EXPECT_TRUE(SameBits(RowsOf(rp), raw.bad_line == 0
                                         ? raw.rows
                                         : std::vector<geo::Point>()));

    const std::string bad_plt =
        corrupt(plt, 6, kind, "39.9,116.3,0,oops,1,d,t",
                "39.9,116.3,0,0,39744,d,t");
    const LineByLineParse plt_bad = PltLineByLine(bad_plt, options);
    ASSERT_NE(plt_bad.bad_line, 0u);
    const auto rt = ParseGeoLifePlt(bad_plt, options);
    EXPECT_EQ(BadLineOf(rt), plt_bad.bad_line) << rt.status().ToString();
    EXPECT_TRUE(RowsOf(rt).empty());
  }
}

TEST_F(IoTest, MultiObjectCsvRoundTripsThroughFile) {
  std::vector<ObjectUpdate> updates = {
      {1, {10.5, -3.25, 0.0}},
      {2, {0.0, 0.0, 0.5}},
      {1, {11.5, -3.5, 1.0}},
  };
  ASSERT_TRUE(
      WriteMultiObjectCsv(updates, Path("fleet.csv")).ok());
  const auto r = ReadMultiObjectCsv(Path("fleet.csv"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0].object_id, 1u);
  EXPECT_DOUBLE_EQ((*r)[0].point.x, 10.5);
  EXPECT_EQ((*r)[1].object_id, 2u);
  EXPECT_DOUBLE_EQ((*r)[2].point.t, 1.0);
}

TEST_F(IoTest, TaggedSegmentsCsvWritesOneRowPerSegment) {
  std::vector<TaggedSegment> segments;
  TaggedSegment a;
  a.object_id = 12;
  a.segment = Seg({0, 0}, {10, 0}, 0, 3);
  segments.push_back(a);
  a.object_id = 9;
  a.segment = Seg({10, 0}, {10, 5}, 3, 5);
  a.segment.end_is_patch = true;
  segments.push_back(a);
  const std::string csv = WriteTaggedSegmentsCsvString(segments);
  EXPECT_NE(csv.find("12,0,3,0,0,"), std::string::npos);
  EXPECT_NE(csv.find("9,3,5,0,1,"), std::string::npos);
  ASSERT_TRUE(WriteTaggedSegmentsCsv(segments, Path("tagged.csv")).ok());
  std::FILE* f = std::fopen(Path("tagged.csv").c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[256];
  int rows = 0;
  while (std::fgets(buf, sizeof(buf), f) != nullptr) ++rows;
  std::fclose(f);
  EXPECT_EQ(rows, 1 + 2);  // header + one row per segment
}

TEST(MultiObjectTest, GroupUpdatesByObjectKeepsFirstAppearanceOrder) {
  const std::vector<ObjectUpdate> updates = {
      {5, {0, 0, 0}}, {2, {1, 1, 0}}, {5, {2, 2, 1}},
      {9, {3, 3, 0}}, {2, {4, 4, 1}}, {5, {5, 5, 2}},
  };
  const auto r = GroupUpdatesByObject(updates);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 3u);
  EXPECT_EQ((*r)[0].object_id, 5u);
  EXPECT_EQ((*r)[1].object_id, 2u);
  EXPECT_EQ((*r)[2].object_id, 9u);
  EXPECT_EQ((*r)[0].trajectory.size(), 3u);
  EXPECT_EQ((*r)[1].trajectory.size(), 2u);
  EXPECT_EQ((*r)[2].trajectory.size(), 1u);
  EXPECT_DOUBLE_EQ((*r)[0].trajectory[2].x, 5.0);
}

TEST(MultiObjectTest, GroupUpdatesRejectsPerObjectTimeRegression) {
  // Object 4's second point goes back in time; object 8's interleaved
  // points are fine and must not mask it.
  const std::vector<ObjectUpdate> updates = {
      {4, {0, 0, 10.0}}, {8, {0, 0, 0.0}}, {4, {1, 1, 9.0}},
  };
  const auto r = GroupUpdatesByObject(updates);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiObjectTest, InterleaveRoundRobinAlternatesAndDrainsTails) {
  ObjectTrajectory a;
  a.object_id = 1;
  a.trajectory.AppendUnchecked({0, 0, 0});
  a.trajectory.AppendUnchecked({1, 0, 1});
  a.trajectory.AppendUnchecked({2, 0, 2});
  ObjectTrajectory b;
  b.object_id = 2;
  b.trajectory.AppendUnchecked({9, 9, 0});
  const std::vector<ObjectTrajectory> objects = {a, b};
  const std::vector<ObjectUpdate> updates = InterleaveRoundRobin(objects);
  ASSERT_EQ(updates.size(), 4u);
  EXPECT_EQ(updates[0].object_id, 1u);
  EXPECT_EQ(updates[1].object_id, 2u);
  EXPECT_EQ(updates[2].object_id, 1u);  // b exhausted, a's tail continues
  EXPECT_EQ(updates[3].object_id, 1u);
  // Grouping the interleave recovers the originals.
  const auto grouped = GroupUpdatesByObject(updates);
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped.value().size(), 2u);
  EXPECT_EQ(grouped.value()[0].trajectory.size(), 3u);
  EXPECT_EQ(grouped.value()[1].trajectory.size(), 1u);
}

}  // namespace
}  // namespace operb::traj
