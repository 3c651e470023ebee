#include "traj/io.h"

#include <sched.h>

#include <algorithm>
#include <array>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string_view>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

namespace operb::traj {

namespace {

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open " + path);
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size >= 0) {
    // Seekable source: size once, read once.
    std::string content(static_cast<std::size_t>(size), '\0');
    in.seekg(0, std::ios::beg);
    if (size > 0) in.read(content.data(), size);
    if (in.bad() || in.gcount() != size) {
      return Status::IOError("read failure on " + path);
    }
    return content;
  }
  // Non-seekable source (pipe, /dev/stdin, process substitution): chunked
  // reads until EOF.
  in.clear();
  std::string content;
  char chunk[65536];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    content.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) return Status::IOError("read failure on " + path);
  return content;
}

bool IsHorizontalSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// The start of the line after the one holding `p`, or `end`.
const char* NextLineStart(const char* p, const char* end) {
  const char* nl = static_cast<const char*>(
      std::memchr(p, '\n', static_cast<std::size_t>(end - p)));
  return nl != nullptr ? nl + 1 : end;
}

/// Moves `*p`, a line start, past blank and `#` comment lines to the next
/// data row, counting every line it starts in `*lines`. Returns false at
/// the end of the buffer. On true, `*lines` is the row's 1-based line
/// number and `*p` its first character after leading whitespace. A '\r'
/// counts as whitespace, so DOS files parse as Unix ones do.
bool NextRow(const char** p, const char* end, std::size_t* lines) {
  const char* c = *p;
  while (c < end) {
    ++*lines;
    while (c < end && IsHorizontalSpace(*c)) ++c;
    if (c < end && *c != '\n' && *c != '#') {
      *p = c;
      return true;
    }
    c = NextLineStart(c, end);
  }
  *p = end;
  return false;
}

/// Consumes the end of a row at `*p`: horizontal whitespace, then '\n' or
/// the end of the buffer. Anything else after a row's last field (`1,2,3,4`
/// or `1,2,3x`) makes the row malformed.
bool EndRow(const char** p, const char* end) {
  const char* c = *p;
  while (c < end && IsHorizontalSpace(*c)) ++c;
  if (c < end) {
    if (*c != '\n') return false;
    ++c;
  }
  *p = c;
  return true;
}

// The fast path below must round once, in double: no x87 excess precision.
static_assert(FLT_EVAL_METHOD == 0);

/// 10^0 .. 10^22: exactly the powers of ten a double holds exactly
/// (5^22 < 2^53 <= 5^23).
constexpr double kExactPowersOfTen[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

/// Clinger's exact fast path for a plain decimal at `*p`: optional '-',
/// digits with an optional '.', optional exponent. When the significand
/// m has at most 15 significant digits (so m < 2^53 and the double made
/// from it is exact) and the decimal exponent k lies in [-22, 22] (so
/// 10^|k| is exact), m * 10^k or m / 10^k is a single IEEE operation on
/// exact operands: the correctly rounded result, which is what from_chars
/// returns. Returns false, touching nothing, on every other shape; the
/// caller then parses with from_chars.
bool ParseExactDecimal(const char** p, const char* end, double* out) {
  const char* c = *p;
  const bool negative = c < end && *c == '-';
  c += negative ? 1 : 0;
  // Past 19 digits the significand wraps, but by then the count of
  // significant digits has already ruled it out.
  std::uint64_t significand = 0;
  std::ptrdiff_t significant_digits = 0;  // from the first non-zero digit
  const auto take_digits = [&] {
    const char* const first = c;
    for (; c < end && IsDigit(*c); ++c) {
      significand = significand * 10 + static_cast<unsigned>(*c - '0');
      significant_digits += significand != 0 ? 1 : 0;
    }
    return c - first;
  };
  std::ptrdiff_t digits = take_digits();
  std::ptrdiff_t exponent = 0;
  if (c < end && *c == '.') {
    ++c;
    const std::ptrdiff_t fraction = take_digits();
    digits += fraction;
    exponent = -fraction;
  }
  if (digits == 0 || significant_digits > 15) return false;
  if (c < end && (*c == 'e' || *c == 'E')) {
    ++c;
    const bool exponent_negative = c < end && *c == '-';
    if (c < end && (*c == '-' || *c == '+')) ++c;
    if (c == end || !IsDigit(*c)) return false;  // `1e`: from_chars decides
    std::ptrdiff_t written = 0;  // saturates far outside [-22, 22]
    for (; c < end && IsDigit(*c); ++c) {
      if (written < 100000) written = written * 10 + (*c - '0');
    }
    exponent += exponent_negative ? -written : written;
  }
  if (exponent < -22 || exponent > 22) return false;
  const double m = static_cast<double>(significand);
  const double value = exponent < 0 ? m / kExactPowersOfTen[-exponent]
                                    : m * kExactPowersOfTen[exponent];
  *out = negative ? -value : value;
  *p = c;
  return true;
}

/// Locale-independent double parse at `*p` (after optional horizontal
/// whitespace and an optional '+', both of which sscanf's %lf accepted).
/// Advances `*p` past the number on success. Plain decimals take the
/// exact fast path; every other shape goes to std::from_chars, and both
/// give the same end and the same bits.
bool ParseDouble(const char** p, const char* end, double* out) {
  const char* c = *p;
  while (c < end && IsHorizontalSpace(*c)) ++c;
  if (c < end && *c == '+') {
    // Only consume the '+' when a number actually follows, so "+-1.5"
    // stays a parse error (as it was for strtod) instead of -1.5.
    if (c + 1 >= end || !(IsDigit(c[1]) || c[1] == '.')) return false;
    ++c;
  }
  if (ParseExactDecimal(&c, end, out)) {
    *p = c;
    return true;
  }
  const std::from_chars_result r = std::from_chars(c, end, *out);
  if (r.ec != std::errc()) return false;
  *p = r.ptr;
  return true;
}

bool ConsumeComma(const char** p, const char* end) {
  if (*p < end && **p == ',') {
    ++*p;
    return true;
  }
  return false;
}

/// One `x,y,t` row (ParseCsv and ParseCsvPoints), through its line end.
bool ParseXytRow(const char** p, const char* end, geo::Point* out) {
  return ParseDouble(p, end, &out->x) && ConsumeComma(p, end) &&
         ParseDouble(p, end, &out->y) && ConsumeComma(p, end) &&
         ParseDouble(p, end, &out->t) && EndRow(p, end);
}

/// Upper bound on the number of data rows: one per newline, plus a final
/// unterminated line. Used to pre-reserve the output so a multi-megabyte
/// file appends without reallocation.
std::size_t CountLines(std::string_view content) {
  return static_cast<std::size_t>(
             std::count(content.begin(), content.end(), '\n')) +
         (content.empty() || content.back() == '\n' ? 0 : 1);
}

/// The Corruption for the row at `line` whose `point` is not later than
/// the last of `rows`, worded by Trajectory::Append's own refusal.
Status NonMonotonicRow(std::size_t line, std::vector<geo::Point>* rows,
                       const geo::Point& point) {
  Trajectory trajectory(std::move(*rows));
  return Status::Corruption("line " + std::to_string(line) + ": " +
                            trajectory.Append(point).message());
}

/// One pass over the `x,y,t` rows of `content` into `out` (ParseCsv and
/// ParseCsvPoints). With `increasing_time`, a row whose t does not exceed
/// the previous row's is refused, as Trajectory::Append refuses it.
Status ParseXytRows(const std::string& content, bool increasing_time,
                    std::vector<geo::Point>* out) {
  out->reserve(CountLines(content));
  const char* p = content.data();
  const char* const end = p + content.size();
  std::size_t line = 0;
  while (NextRow(&p, end, &line)) {
    geo::Point point;
    if (!ParseXytRow(&p, end, &point)) {
      return Status::Corruption("malformed CSV row at line " +
                                std::to_string(line));
    }
    if (increasing_time && !out->empty() && point.t <= out->back().t) {
      return NonMonotonicRow(line, out, point);
    }
    out->push_back(point);
  }
  return Status::OK();
}

/// Locale-free decimal uint64 parse (object ids), after optional
/// horizontal whitespace. Advances `*p` past the digits on success.
bool ParseObjectIdField(const char** p, const char* end, ObjectId* out) {
  const char* c = *p;
  while (c < end && IsHorizontalSpace(*c)) ++c;
  const std::from_chars_result r = std::from_chars(c, end, *out);
  if (r.ec != std::errc()) return false;
  *p = r.ptr;
  return true;
}

/// One `id,t,x,y` row (ParseMultiObjectCsv), through its line end.
bool ParseObjectUpdateRow(const char** p, const char* end, ObjectUpdate* out) {
  return ParseObjectIdField(p, end, &out->object_id) && ConsumeComma(p, end) &&
         ParseDouble(p, end, &out->point.t) && ConsumeComma(p, end) &&
         ParseDouble(p, end, &out->point.x) && ConsumeComma(p, end) &&
         ParseDouble(p, end, &out->point.y) && EndRow(p, end);
}

/// Smallest share of a multi-object CSV worth a thread of its own: below
/// it, starting the thread costs more than the split saves.
constexpr std::size_t kMinPartBytes = std::size_t{1} << 20;

/// CPUs this process may run on (its affinity mask, which a container or
/// `taskset` narrows below the machine's core count); at least 1.
std::size_t UsableCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&allowed)));
}

/// One contiguous run of whole lines of a multi-object CSV.
struct CsvPart {
  std::string_view text;
  std::size_t lines = 0;      ///< lines in `text`, for later parts' numbers
  std::size_t rows = 0;       ///< data rows: lines neither blank nor comment
  std::size_t first_row = 0;  ///< output index of this part's first row
  std::size_t bad_line = 0;   ///< 1-based line of the first bad row, or 0
};

/// How many parts `bytes` of CSV text split into: one per usable CPU,
/// each at least about kMinPartBytes, so small inputs stay one part.
std::size_t PartsFor(std::size_t bytes) {
  return std::clamp<std::size_t>(bytes / kMinPartBytes, 1, UsableCpus());
}

/// Cuts `content` at line starts into PartsFor(content.size()) parts.
std::vector<CsvPart> SplitAtLineStarts(std::string_view content) {
  const std::size_t want = PartsFor(content.size());
  const char* const end = content.data() + content.size();
  std::vector<CsvPart> parts;
  parts.reserve(want);
  const char* start = content.data();
  for (std::size_t k = 1; k < want; ++k) {
    const char* cut = content.data() + content.size() / want * k;
    if (cut <= start) continue;  // the previous part's last line ran past
    // The first line start at or after `cut`.
    const char* nl = static_cast<const char*>(
        std::memchr(cut - 1, '\n', static_cast<std::size_t>(end - cut + 1)));
    const char* stop = nl != nullptr ? nl + 1 : end;
    parts.push_back({std::string_view(start, stop - start)});
    start = stop;
  }
  parts.push_back({std::string_view(start, end - start)});
  return parts;
}

/// Runs `fn(k)` for every part index k: part 0 on the calling thread, the
/// others on threads of their own (or the calling thread, should one fail
/// to start). Returns once every call has.
template <typename Fn>
void ForEachPart(std::size_t parts, const Fn& fn) {
  std::vector<std::thread> threads;
  threads.reserve(parts);
  for (std::size_t k = 1; k < parts; ++k) {
    try {
      threads.emplace_back([&fn, k] { fn(k); });
    } catch (const std::system_error&) {
      fn(k);
    }
  }
  fn(0);
  for (std::thread& t : threads) t.join();
}

Status WriteContentToFile(const std::string& content,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

/// The precision of every written coordinate, and of a time whose text
/// ties no neighbour's: `%.9g`.
constexpr int kRowDigits = 9;
/// Round-trip precision: `%.17g` reads back as the same double.
constexpr int kExactDigits = 17;

/// One CSV row built in a stack buffer, its fields comma-separated.
/// Numbers go through std::to_chars, which is specified to print what
/// printf prints in the C locale: a double in chars_format::general at
/// precision p gives the bytes of `%.<p>g` (libstdc++ formats it with
/// Ryu-printf), an unsigned integer those of `%llu`. There is no format
/// string to parse and no locale to consult, so a row costs a fraction
/// of one snprintf call.
class CsvRow {
 public:
  CsvRow& Add(double value, int precision) {
    Separate();
    end_ = std::to_chars(end_, buf_.data() + buf_.size(), value,
                         std::chars_format::general, precision)
               .ptr;
    return *this;
  }
  CsvRow& Add(std::uint64_t value) {
    Separate();
    end_ = std::to_chars(end_, buf_.data() + buf_.size(), value).ptr;
    return *this;
  }
  /// Ends the row with '\n' and returns it; valid while the row lives.
  std::string_view Line() {
    *end_++ = '\n';
    return {buf_.data(), static_cast<std::size_t>(end_ - buf_.data())};
  }

 private:
  void Separate() {
    if (end_ != buf_.data()) *end_++ = ',';
  }

  // The widest row, WriteTaggedSegmentsCsvString's, is three 20-digit
  // integers, two flags, four 24-character doubles
  // (`-2.2250738585072014e-308`) and nine separators: 167 bytes.
  std::array<char, 192> buf_;
  char* end_ = buf_.data();
};

/// True when `a` and `b` print the same `%.9g` text. Such values differ
/// by at most one unit in their ninth significant digit, about 1e-8 of
/// their magnitude, so values farther apart than twice that are told
/// apart without formatting them.
bool SameNineDigitText(double a, double b) {
  if (!(std::abs(a - b) <= 2e-8 * std::max(std::abs(a), std::abs(b)))) {
    return false;
  }
  CsvRow text_a;
  CsvRow text_b;
  return text_a.Add(a, kRowDigits).Line() == text_b.Add(b, kRowDigits).Line();
}

/// The rows of `updates` whose `%.9g` time text ties that of the same
/// object's previous or next row; empty when there are none.
std::vector<bool> RowsInPerObjectTimeTies(
    std::span<const ObjectUpdate> updates) {
  constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();
  struct LastRow {
    double t = 0.0;
    std::size_t row = kNoRow;
  };
  std::unordered_map<ObjectId, LastRow> last_rows;
  std::vector<bool> exact;
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const ObjectUpdate& u = updates[i];
    LastRow& last = last_rows[u.object_id];
    if (last.row != kNoRow && SameNineDigitText(last.t, u.point.t)) {
      if (exact.empty()) exact.resize(updates.size());
      exact[last.row] = true;
      exact[i] = true;
    }
    last = LastRow{u.point.t, i};
  }
  return exact;
}

}  // namespace

std::string WriteCsvString(const Trajectory& trajectory) {
  std::string out = "# x_meters,y_meters,t_seconds\n";
  out.reserve(out.size() + trajectory.size() * 40);
  // `%.9g` keeps nine significant digits, so an epoch time (~1.7e9 s)
  // prints rounded to 10 s and close samples could print equal times,
  // which ParseCsv refuses. When a row's `%.9g` time text ties the
  // previous row's, both rows take `%.17g` times, which read back
  // exactly; the previous row is still the output's tail, so it is
  // rewritten in place. A row with a unique time text keeps its bytes.
  const auto append_exact_time = [&out](const geo::Point& p) {
    CsvRow row;
    out.append(row.Add(p.x, kRowDigits)
                   .Add(p.y, kRowDigits)
                   .Add(p.t, kExactDigits)
                   .Line());
  };
  char previous_time[32] = {};
  std::size_t previous_time_size = 0;
  std::size_t previous_start = 0;
  bool previous_exact = false;
  for (std::size_t i = 0; i < trajectory.size(); ++i) {
    const geo::Point& p = trajectory[i];
    CsvRow row;
    const std::string_view line = row.Add(p.x, kRowDigits)
                                      .Add(p.y, kRowDigits)
                                      .Add(p.t, kRowDigits)
                                      .Line();
    const std::string_view time = line.substr(line.rfind(',') + 1);
    const bool tie =
        i > 0 && time == std::string_view(previous_time, previous_time_size);
    if (tie && !previous_exact) {
      out.resize(previous_start);
      append_exact_time(trajectory[i - 1]);
    }
    previous_start = out.size();
    if (tie) {
      append_exact_time(p);
    } else {
      out.append(line);
    }
    previous_exact = tie;
    previous_time_size = time.copy(previous_time, sizeof(previous_time));
  }
  return out;
}

Status WriteCsv(const Trajectory& trajectory, const std::string& path) {
  return WriteContentToFile(WriteCsvString(trajectory), path);
}

Result<Trajectory> ParseCsv(const std::string& content) {
  std::vector<geo::Point> points;
  OPERB_RETURN_IF_ERROR(
      ParseXytRows(content, /*increasing_time=*/true, &points));
  return Trajectory(std::move(points));
}

Result<Trajectory> ReadCsv(const std::string& path) {
  OPERB_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseCsv(content);
}

Result<std::vector<geo::Point>> ParseCsvPoints(const std::string& content) {
  std::vector<geo::Point> out;
  OPERB_RETURN_IF_ERROR(
      ParseXytRows(content, /*increasing_time=*/false, &out));
  return out;
}

Result<std::vector<geo::Point>> ReadCsvPoints(const std::string& path) {
  OPERB_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseCsvPoints(content);
}

Result<Trajectory> ParseGeoLifePlt(const std::string& content,
                                   const PltReadOptions& options) {
  const char* p = content.data();
  const char* const end = p + content.size();
  // PLT files carry six header lines before the data rows.
  constexpr std::size_t kHeaderLines = 6;
  for (std::size_t i = 0; i < kHeaderLines; ++i) {
    if (p == end) return Status::Corruption("PLT content truncated in header");
    p = NextLineStart(p, end);
  }
  std::vector<geo::Point> out;
  out.reserve(CountLines(content) - kHeaderLines);
  bool have_projector = options.use_fixed_reference;
  geo::LocalProjector projector(options.reference);
  double t0 = 0.0;
  std::size_t line = kHeaderLines;
  while (NextRow(&p, end, &line)) {
    double lat = 0.0, lon = 0.0, zero = 0.0, alt = 0.0, days = 0.0;
    // lat,lon,0,altitude_ft,days_since_1899[,date,time — ignored].
    if (!(ParseDouble(&p, end, &lat) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &lon) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &zero) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &alt) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &days))) {
      return Status::Corruption("malformed PLT row at line " +
                                std::to_string(line));
    }
    p = NextLineStart(p, end);
    if (lat < -90.0 || lat > 90.0 || lon < -180.0 || lon > 180.0) {
      return Status::Corruption("out-of-range coordinate at line " +
                                std::to_string(line));
    }
    if (!have_projector) {
      projector = geo::LocalProjector({lat, lon});
      have_projector = true;
    }
    const double t_abs = days * 86400.0;  // fractional days -> seconds
    if (out.empty()) t0 = t_abs;
    const geo::Vec2 xy = projector.Project({lat, lon});
    const geo::Point point{xy.x, xy.y, t_abs - t0};
    if (!out.empty() && point.t <= out.back().t) {
      return NonMonotonicRow(line, &out, point);
    }
    out.push_back(point);
  }
  return Trajectory(std::move(out));
}

Result<Trajectory> ReadGeoLifePlt(const std::string& path,
                                  const PltReadOptions& options) {
  OPERB_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  Result<Trajectory> r = ParseGeoLifePlt(content, options);
  if (!r.ok()) {
    // Re-attach the file context the content-level parser cannot know.
    return Status(r.status().code(), path + ": " + r.status().message());
  }
  return r;
}

Result<std::vector<ObjectUpdate>> ParseMultiObjectCsv(
    const std::string& content) {
  std::vector<CsvPart> parts = SplitAtLineStarts(content);
  ForEachPart(parts.size(), [&parts](std::size_t k) {
    const char* p = parts[k].text.data();
    const char* const end = p + parts[k].text.size();
    std::size_t lines = 0;
    std::size_t rows = 0;  // local: neighbouring parts share a cache line
    while (NextRow(&p, end, &lines)) {
      ++rows;
      p = NextLineStart(p, end);
    }
    parts[k].rows = rows;
    parts[k].lines = lines;
  });
  std::size_t rows = 0;
  for (CsvPart& part : parts) {
    part.first_row = rows;
    rows += part.rows;
  }
  // The one allocation: every part parses straight into its own slice.
  std::vector<ObjectUpdate> out(rows);
  ForEachPart(parts.size(), [&parts, &out](std::size_t k) {
    ObjectUpdate* next = out.data() + parts[k].first_row;
    const char* p = parts[k].text.data();
    const char* const end = p + parts[k].text.size();
    std::size_t line = 0;
    while (NextRow(&p, end, &line)) {
      if (!ParseObjectUpdateRow(&p, end, next++)) {
        parts[k].bad_line = line;
        return;
      }
    }
  });
  // The first bad part in file order holds the first bad row; its line
  // number counts every line of the parts before it.
  std::size_t lines_before = 0;
  for (const CsvPart& part : parts) {
    if (part.bad_line != 0) {
      return Status::Corruption("malformed multi-object CSV row at line " +
                                std::to_string(lines_before + part.bad_line));
    }
    lines_before += part.lines;
  }
  return out;
}

Result<std::vector<ObjectUpdate>> ReadMultiObjectCsv(const std::string& path) {
  OPERB_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  Result<std::vector<ObjectUpdate>> r = ParseMultiObjectCsv(content);
  if (!r.ok()) {
    return Status(r.status().code(), path + ": " + r.status().message());
  }
  return r;
}

std::string WriteMultiObjectCsvString(std::span<const ObjectUpdate> updates) {
  // As in WriteCsvString, a row whose `%.9g` time text ties its object's
  // previous row's takes a `%.17g` time, and so does that previous row;
  // rows of different objects may share a time text. The ties are found
  // over all rows first, since a tied pair may straddle two parts.
  const std::vector<bool> exact = RowsInPerObjectTimeTies(updates);
  // Rows run about 40 bytes; 48 leaves room for longer ids and times.
  constexpr std::size_t kRowBytes = 48;
  // The longest row: a 20-digit id, a 24-character `%.17g` time, two
  // 16-character `%.9g` coordinates, three commas and the '\n'.
  constexpr std::size_t kMaxRowBytes = 80;
  const std::size_t parts = PartsFor(updates.size() * kRowBytes);
  const auto first_row = [&](std::size_t k) {
    return updates.size() * k / parts;
  };
  // Part k formats rows [first_row(k), first_row(k + 1)) into texts[k].
  // Part 0 is the output: it starts with the header and reserves room
  // for every row, so the later parts are appended without moving it.
  // This thread allocates the other parts' buffers, large enough that
  // the part threads never allocate: glibc's malloc_trim does not return
  // the free top of a thread's own arena, and buffers allocated there
  // left about 56 MB of a 2M-row feed's parts resident after the call.
  std::vector<std::string> texts(parts);
  texts[0] = "# object_id,t_seconds,x_meters,y_meters\n";
  texts[0].reserve(texts[0].size() + updates.size() * kRowBytes);
  for (std::size_t k = 1; k < parts; ++k) {
    texts[k].reserve((first_row(k + 1) - first_row(k)) * kMaxRowBytes);
  }
  ForEachPart(parts, [&](std::size_t k) {
    std::string& out = texts[k];
    const std::size_t end = first_row(k + 1);
    for (std::size_t i = first_row(k); i < end; ++i) {
      const ObjectUpdate& u = updates[i];
      CsvRow row;
      out.append(
          row.Add(u.object_id)
              .Add(u.point.t, !exact.empty() && exact[i] ? kExactDigits
                                                         : kRowDigits)
              .Add(u.point.x, kRowDigits)
              .Add(u.point.y, kRowDigits)
              .Line());
    }
  });
  std::string& out = texts[0];
  for (std::size_t k = 1; k < parts; ++k) out += texts[k];
  return std::move(out);
}

Status WriteMultiObjectCsv(std::span<const ObjectUpdate> updates,
                           const std::string& path) {
  return WriteContentToFile(WriteMultiObjectCsvString(updates), path);
}

std::string WriteTaggedSegmentsCsvString(
    std::span<const TaggedSegment> segments) {
  std::string out =
      "# object_id,first_index,last_index,start_is_patch,end_is_patch,"
      "start_x,start_y,end_x,end_y\n";
  out.reserve(out.size() + segments.size() * 80);
  for (const TaggedSegment& ts : segments) {
    const RepresentedSegment& s = ts.segment;
    CsvRow row;
    out.append(row.Add(ts.object_id)
                   .Add(std::uint64_t{s.first_index})
                   .Add(std::uint64_t{s.last_index})
                   .Add(std::uint64_t{s.start_is_patch})
                   .Add(std::uint64_t{s.end_is_patch})
                   .Add(s.start.x, kExactDigits)
                   .Add(s.start.y, kExactDigits)
                   .Add(s.end.x, kExactDigits)
                   .Add(s.end.y, kExactDigits)
                   .Line());
  }
  return out;
}

Status WriteTaggedSegmentsCsv(std::span<const TaggedSegment> segments,
                              const std::string& path) {
  return WriteContentToFile(WriteTaggedSegmentsCsvString(segments), path);
}

Status WriteRepresentationCsv(const PiecewiseRepresentation& representation,
                              const std::string& path) {
  std::string out = "# x,y,first_index,last_index\n";
  out.reserve(out.size() + (representation.size() + 1) * 40);
  const auto append_row = [&out](geo::Vec2 at, std::size_t first,
                                 std::size_t last) {
    CsvRow row;
    out.append(row.Add(at.x, kRowDigits)
                   .Add(at.y, kRowDigits)
                   .Add(std::uint64_t{first})
                   .Add(std::uint64_t{last})
                   .Line());
  };
  for (const RepresentedSegment& s : representation) {
    append_row(s.start, s.first_index, s.last_index);
  }
  if (!representation.empty()) {
    const RepresentedSegment& last = representation[representation.size() - 1];
    append_row(last.end, last.last_index, last.last_index);
  }
  return WriteContentToFile(out, path);
}

}  // namespace operb::traj
