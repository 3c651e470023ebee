#include "traj/io.h"

#include <sched.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string_view>
#include <system_error>
#include <thread>

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

bool IsBlankOrComment(std::string_view line) {
  for (char c : line) {
    if (c == '#') return true;
    if (!IsHorizontalSpace(c)) return false;
  }
  return true;
}

/// Zero-copy line iterator over a file's content. Splits on '\n' and
/// strips one trailing '\r' so DOS files parse identically.
class LineScanner {
 public:
  explicit LineScanner(std::string_view content)
      : pos_(content.data()), end_(content.data() + content.size()) {}

  bool Next(std::string_view* line) {
    if (pos_ == end_) return false;
    const char* nl =
        static_cast<const char*>(std::memchr(pos_, '\n', end_ - pos_));
    const char* stop = nl != nullptr ? nl : end_;
    std::size_t len = static_cast<std::size_t>(stop - pos_);
    if (len > 0 && pos_[len - 1] == '\r') --len;
    *line = std::string_view(pos_, len);
    pos_ = nl != nullptr ? nl + 1 : end_;
    ++lineno_;
    return true;
  }

  std::size_t lineno() const { return lineno_; }

 private:
  const char* pos_;
  const char* end_;
  std::size_t lineno_ = 0;
};

/// Locale-independent double parse at `*p` (after optional horizontal
/// whitespace and an optional '+', both of which sscanf's %lf accepted).
/// Advances `*p` past the number on success.
bool ParseDouble(const char** p, const char* end, double* out) {
  const char* c = *p;
  while (c < end && IsHorizontalSpace(*c)) ++c;
  if (c < end && *c == '+') {
    // Only consume the '+' when a number actually follows, so "+-1.5"
    // stays a parse error (as it was for strtod) instead of -1.5.
    if (c + 1 >= end || !((c[1] >= '0' && c[1] <= '9') || c[1] == '.')) {
      return false;
    }
    ++c;
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

/// True when nothing but horizontal whitespace follows `p`: a row's last
/// field must end the row, so `1,2,3,4` and `1,2,3x` are malformed.
bool AtRowEnd(const char* p, const char* end) {
  while (p < end && IsHorizontalSpace(*p)) ++p;
  return p == end;
}

/// One `x,y,t` row (ParseCsv and ParseCsvPoints).
bool ParseXytRow(std::string_view line, geo::Point* out) {
  const char* p = line.data();
  const char* end = line.data() + line.size();
  return ParseDouble(&p, end, &out->x) && ConsumeComma(&p, end) &&
         ParseDouble(&p, end, &out->y) && ConsumeComma(&p, end) &&
         ParseDouble(&p, end, &out->t) && AtRowEnd(p, end);
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

/// One `id,t,x,y` row (ParseMultiObjectCsv).
bool ParseObjectUpdateRow(std::string_view line, ObjectUpdate* out) {
  const char* p = line.data();
  const char* end = line.data() + line.size();
  return ParseObjectIdField(&p, end, &out->object_id) &&
         ConsumeComma(&p, end) && ParseDouble(&p, end, &out->point.t) &&
         ConsumeComma(&p, end) && ParseDouble(&p, end, &out->point.x) &&
         ConsumeComma(&p, end) && ParseDouble(&p, end, &out->point.y) &&
         AtRowEnd(p, end);
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

/// Cuts `content` at line starts into one part per usable CPU, each at
/// least about kMinPartBytes, so small inputs stay one part.
std::vector<CsvPart> SplitAtLineStarts(std::string_view content) {
  const std::size_t want = std::clamp<std::size_t>(
      content.size() / kMinPartBytes, 1, UsableCpus());
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

/// Upper bound on the number of data rows: one per newline, plus a final
/// unterminated line. Used to pre-reserve the trajectory so a multi-
/// megabyte file appends without reallocation.
std::size_t CountLines(std::string_view content) {
  return static_cast<std::size_t>(
             std::count(content.begin(), content.end(), '\n')) +
         (content.empty() || content.back() == '\n' ? 0 : 1);
}

}  // namespace

std::string WriteCsvString(const Trajectory& trajectory) {
  std::string out = "# x_meters,y_meters,t_seconds\n";
  out.reserve(out.size() + trajectory.size() * 40);
  char buf[128];
  for (const geo::Point& p : trajectory) {
    const int n =
        std::snprintf(buf, sizeof(buf), "%.9g,%.9g,%.9g\n", p.x, p.y, p.t);
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

Status WriteCsv(const Trajectory& trajectory, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  const std::string content = WriteCsvString(trajectory);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.flush();
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

Result<Trajectory> ParseCsv(const std::string& content) {
  Trajectory out;
  out.reserve(CountLines(content));
  LineScanner scanner{content};
  std::string_view line;
  while (scanner.Next(&line)) {
    if (IsBlankOrComment(line)) continue;
    geo::Point point;
    if (!ParseXytRow(line, &point)) {
      return Status::Corruption("malformed CSV row at line " +
                                std::to_string(scanner.lineno()));
    }
    Status st = out.Append(point);
    if (!st.ok()) {
      return Status::Corruption("line " + std::to_string(scanner.lineno()) +
                                ": " + st.message());
    }
  }
  return out;
}

Result<Trajectory> ReadCsv(const std::string& path) {
  OPERB_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseCsv(content);
}

Result<std::vector<geo::Point>> ParseCsvPoints(const std::string& content) {
  std::vector<geo::Point> out;
  out.reserve(CountLines(content));
  LineScanner scanner{content};
  std::string_view line;
  while (scanner.Next(&line)) {
    if (IsBlankOrComment(line)) continue;
    geo::Point point;
    if (!ParseXytRow(line, &point)) {
      return Status::Corruption("malformed CSV row at line " +
                                std::to_string(scanner.lineno()));
    }
    out.push_back(point);
  }
  return out;
}

Result<std::vector<geo::Point>> ReadCsvPoints(const std::string& path) {
  OPERB_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseCsvPoints(content);
}

Result<Trajectory> ParseGeoLifePlt(const std::string& content,
                                   const PltReadOptions& options) {
  LineScanner scanner{content};
  std::string_view line;
  // PLT files carry six header lines before the data rows.
  for (int i = 0; i < 6; ++i) {
    if (!scanner.Next(&line)) {
      return Status::Corruption("PLT content truncated in header");
    }
  }
  Trajectory out;
  const std::size_t total_lines = CountLines(content);
  out.reserve(total_lines > 6 ? total_lines - 6 : 0);
  bool have_projector = options.use_fixed_reference;
  geo::LocalProjector projector(options.reference);
  double t0 = 0.0;
  bool have_t0 = false;
  while (scanner.Next(&line)) {
    if (IsBlankOrComment(line)) continue;
    const char* p = line.data();
    const char* end = line.data() + line.size();
    double lat = 0.0, lon = 0.0, zero = 0.0, alt = 0.0, days = 0.0;
    // lat,lon,0,altitude_ft,days_since_1899[,date,time — ignored].
    if (!(ParseDouble(&p, end, &lat) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &lon) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &zero) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &alt) && ConsumeComma(&p, end) &&
          ParseDouble(&p, end, &days))) {
      return Status::Corruption("malformed PLT row at line " +
                                std::to_string(scanner.lineno()));
    }
    if (lat < -90.0 || lat > 90.0 || lon < -180.0 || lon > 180.0) {
      return Status::Corruption("out-of-range coordinate at line " +
                                std::to_string(scanner.lineno()));
    }
    if (!have_projector) {
      projector = geo::LocalProjector({lat, lon});
      have_projector = true;
    }
    const double t_abs = days * 86400.0;  // fractional days -> seconds
    if (!have_t0) {
      t0 = t_abs;
      have_t0 = true;
    }
    const geo::Vec2 xy = projector.Project({lat, lon});
    Status st = out.Append({xy.x, xy.y, t_abs - t0});
    if (!st.ok()) {
      return Status::Corruption("line " + std::to_string(scanner.lineno()) +
                                ": " + st.message());
    }
  }
  return out;
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
    LineScanner scanner{parts[k].text};
    std::string_view line;
    std::size_t rows = 0;  // local: neighbouring parts share a cache line
    while (scanner.Next(&line)) {
      if (!IsBlankOrComment(line)) ++rows;
    }
    parts[k].rows = rows;
    parts[k].lines = scanner.lineno();
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
    LineScanner scanner{parts[k].text};
    std::string_view line;
    while (scanner.Next(&line)) {
      if (IsBlankOrComment(line)) continue;
      if (!ParseObjectUpdateRow(line, next++)) {
        parts[k].bad_line = scanner.lineno();
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
  std::string out = "# object_id,t_seconds,x_meters,y_meters\n";
  out.reserve(out.size() + updates.size() * 48);
  char buf[160];
  for (const ObjectUpdate& u : updates) {
    const int n = std::snprintf(buf, sizeof(buf), "%llu,%.9g,%.9g,%.9g\n",
                                static_cast<unsigned long long>(u.object_id),
                                u.point.t, u.point.x, u.point.y);
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
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
  char buf[240];
  for (const TaggedSegment& ts : segments) {
    const RepresentedSegment& s = ts.segment;
    const int n = std::snprintf(
        buf, sizeof(buf), "%llu,%zu,%zu,%d,%d,%.17g,%.17g,%.17g,%.17g\n",
        static_cast<unsigned long long>(ts.object_id), s.first_index,
        s.last_index, s.start_is_patch ? 1 : 0, s.end_is_patch ? 1 : 0,
        s.start.x, s.start.y, s.end.x, s.end.y);
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

Status WriteTaggedSegmentsCsv(std::span<const TaggedSegment> segments,
                              const std::string& path) {
  return WriteContentToFile(WriteTaggedSegmentsCsvString(segments), path);
}

Status WriteRepresentationCsv(const PiecewiseRepresentation& representation,
                              const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out << "# x,y,first_index,last_index\n";
  char buf[160];
  for (const RepresentedSegment& s : representation) {
    std::snprintf(buf, sizeof(buf), "%.9g,%.9g,%zu,%zu\n", s.start.x,
                  s.start.y, s.first_index, s.last_index);
    out << buf;
  }
  if (!representation.empty()) {
    const RepresentedSegment& last = representation[representation.size() - 1];
    std::snprintf(buf, sizeof(buf), "%.9g,%.9g,%zu,%zu\n", last.end.x,
                  last.end.y, last.last_index, last.last_index);
    out << buf;
  }
  out.flush();
  if (!out) return Status::IOError("write failure on " + path);
  return Status::OK();
}

}  // namespace operb::traj
