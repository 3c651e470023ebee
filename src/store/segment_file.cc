#include "store/segment_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <limits>
#include <utility>

#include "codec/segment_codec.h"
#include "geo/bbox.h"
#include "store/store_metrics.h"

namespace operb::store {

namespace {

/// The cell of `v` along an axis whose extent is [lo, hi]. Halving
/// before subtracting keeps hi - lo finite for any finite bounds.
std::uint32_t HilbertCell(double v, double lo, double hi) {
  const double span = hi * 0.5 - lo * 0.5;
  if (!(span > 0.0)) return 0;
  const double u = std::clamp((v * 0.5 - lo * 0.5) / span, 0.0, 1.0);
  return static_cast<std::uint32_t>(u * (kHilbertSide - 1));
}

/// The seal order of `pending`, as indices into it: grouped into one run
/// per object (arrival order kept within the run), runs ordered by the
/// Hilbert index of their first start point over the extent of those
/// points, ties by id. A run whose first start point is not finite sorts
/// last.
std::vector<std::size_t> OrderForSeal(
    std::span<const traj::TimedSegment> pending) {
  // (id, arrival index) pairs are unique, so an unstable sort of them is
  // a stable sort by id.
  std::vector<std::pair<traj::ObjectId, std::size_t>> by_id;
  by_id.reserve(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    by_id.emplace_back(pending[i].object_id, i);
  }
  std::sort(by_id.begin(), by_id.end());

  struct Run {
    std::uint64_t key = 0;
    traj::ObjectId id = 0;
    std::size_t begin = 0;  ///< range in by_id
    std::size_t end = 0;
  };
  std::vector<Run> runs;
  for (std::size_t i = 0; i < by_id.size(); ++i) {
    if (runs.empty() || runs.back().id != by_id[i].first) {
      runs.push_back(Run{0, by_id[i].first, i, i});
    }
    runs.back().end = i + 1;
  }
  auto first_start = [&](const Run& r) {
    return pending[by_id[r.begin].second].segment.start;
  };
  auto finite = [](geo::Vec2 p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  };
  geo::BoundingBox extent;
  for (const Run& r : runs) {
    if (finite(first_start(r))) extent.Extend(first_start(r));
  }
  for (Run& r : runs) {
    const geo::Vec2 p = first_start(r);
    r.key = finite(p) ? HilbertIndex(
                            HilbertCell(p.x, extent.min_x, extent.max_x),
                            HilbertCell(p.y, extent.min_y, extent.max_y))
                      : std::numeric_limits<std::uint64_t>::max();
  }
  std::sort(runs.begin(), runs.end(), [](const Run& a, const Run& b) {
    return a.key != b.key ? a.key < b.key : a.id < b.id;
  });

  std::vector<std::size_t> order;
  order.reserve(pending.size());
  for (const Run& r : runs) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      order.push_back(by_id[i].second);
    }
  }
  return order;
}

/// One step of the Hilbert curve over a 16 x 16 sub-grid: entry
/// [state][x << 4 | y] holds the four quadrant digits of cell (x, y) in
/// its low 8 bits and the orientation state the next finer sub-grid is
/// read in above them. A state is the reflection the curve has built up
/// so far: bit 0 mirrors both axes, bit 1 swaps them. The two commute,
/// so composing a step's reflection is an XOR of states.
using HilbertTable = std::array<std::array<std::uint16_t, 256>, 4>;

constexpr HilbertTable MakeHilbertTable() {
  HilbertTable table{};
  for (std::uint32_t state = 0; state < 4; ++state) {
    for (std::uint32_t cell = 0; cell < 256; ++cell) {
      std::uint32_t s = state;
      std::uint32_t digits = 0;
      for (int bit = 3; bit >= 0; --bit) {
        std::uint32_t rx = (cell >> (4 + bit)) & 1;
        std::uint32_t ry = (cell >> bit) & 1;
        if ((s & 1) != 0) {
          rx ^= 1;
          ry ^= 1;
        }
        if ((s & 2) != 0) std::swap(rx, ry);
        digits = (digits << 2) | ((3 * rx) ^ ry);
        // As in the bit-at-a-time loop: when ry == 0 swap the axes, and
        // mirror both first if rx == 1.
        if (ry == 0) s ^= rx == 1 ? 3 : 2;
      }
      table[state][cell] = static_cast<std::uint16_t>(digits | (s << 8));
    }
  }
  return table;
}

constexpr HilbertTable kHilbertTable = MakeHilbertTable();

/// Reads exactly `n` bytes at `offset`; false on an error or early end
/// of file.
bool PreadFull(int fd, std::uint8_t* out, std::size_t n,
               std::uint64_t offset) {
  while (n > 0) {
    if (offset > static_cast<std::uint64_t>(
                     std::numeric_limits<off_t>::max())) {
      return false;
    }
    const ssize_t got = ::pread(fd, out, n, static_cast<off_t>(offset));
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    out += got;
    n -= static_cast<std::size_t>(got);
    offset += static_cast<std::uint64_t>(got);
  }
  return true;
}

}  // namespace

std::uint64_t HilbertIndex(std::uint32_t x, std::uint32_t y) {
  static_assert(kHilbertSide == std::uint32_t{1} << 16,
                "the table walks the grid four bits per axis at a time");
  std::uint64_t d = 0;
  std::uint32_t state = 0;
  for (int shift = 12; shift >= 0; shift -= 4) {
    const std::uint16_t step =
        kHilbertTable[state][((x >> shift) & 15) << 4 | ((y >> shift) & 15)];
    d = (d << 8) | (step & 0xFF);
    state = step >> 8;
  }
  return d;
}

Result<std::unique_ptr<SegmentFileWriter>> SegmentFileWriter::Create(
    const std::string& path, double zeta, std::size_t block_budget_bytes,
    Env* env) {
  OPERB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         ResolveEnv(env)->NewWritableFile(path));
  std::vector<std::uint8_t> header;
  EncodeFileHeader(zeta, &header);
  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file->Append(header));
    return file->Flush();
  }();
  if (!written.ok()) {
    return Status::IOError("cannot write segment file header to " + path);
  }
  std::unique_ptr<SegmentFileWriter> writer(
      new SegmentFileWriter(std::move(file), block_budget_bytes));
  writer->stats_.file_bytes = header.size();
  return writer;
}

SegmentFileWriter::SegmentFileWriter(std::unique_ptr<WritableFile> file,
                                     std::size_t block_budget_bytes)
    : block_budget_bytes_(block_budget_bytes), file_(std::move(file)) {}

SegmentFileWriter::~SegmentFileWriter() { Close(); }

Status SegmentFileWriter::Append(const traj::TimedSegment& segment) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) {
    return Status::InvalidArgument("append to a closed segment file writer");
  }
  pending_.push_back(segment);
  ++stats_.segments;
  if (static_cast<double>(pending_.size()) * estimated_segment_bytes_ >=
      static_cast<double>(block_budget_bytes_ * kBlocksPerSeal)) {
    const Status s = SealLocked();
    if (!s.ok() && first_error_.ok()) first_error_ = s;
  }
  return first_error_;
}

Status SegmentFileWriter::SealLocked() {
  if (pending_.empty()) return Status::OK();
  const std::vector<std::size_t> order = OrderForSeal(pending_);

  // Cut into equal segment counts that each encode to about the budget;
  // a run may continue into the next block, never into another seal.
  // Each block is gathered from pending_ in seal order, so pending_ is
  // cleared only once every block is written.
  const std::size_t n = pending_.size();
  const double blocks_wanted = static_cast<double>(n) *
                               estimated_segment_bytes_ /
                               static_cast<double>(block_budget_bytes_);
  const std::size_t blocks = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::lround(blocks_wanted)), 1, n);
  const std::uint64_t payload_before = stats_.payload_bytes;
  Status written;
  for (std::size_t b = 0; b < blocks && written.ok(); ++b) {
    block_.clear();
    for (std::size_t i = b * n / blocks; i < (b + 1) * n / blocks; ++i) {
      block_.push_back(pending_[order[i]]);
    }
    written = WriteBlockLocked(block_);
  }
  pending_.clear();
  OPERB_RETURN_IF_ERROR(written);
  estimated_segment_bytes_ =
      static_cast<double>(stats_.payload_bytes - payload_before) /
      static_cast<double>(n);
  return Status::OK();
}

Status SegmentFileWriter::WriteBlockLocked(
    std::span<const traj::TimedSegment> block) {
  // The frame is the u32 length prefix, the payload and the footer; the
  // payload is encoded in place behind a prefix filled in afterwards.
  frame_.assign(4, 0);
  codec::EncodeSegmentBlock(block, &frame_);
  const std::span<const std::uint8_t> payload =
      std::span<const std::uint8_t>(frame_).subspan(4);
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    // Unreachable while StoreWriterOptions::Validate caps the budget at
    // 1 GiB; refuse to write a wrapped length prefix if it regresses.
    return Status::Internal("store block payload exceeds the u32 frame");
  }
  const BlockFooter footer = MakeFooter(block, payload);
  const std::uint32_t len = footer.payload_bytes;
  for (int i = 0; i < 4; ++i) {
    frame_[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
  EncodeFooter(footer, &frame_);

  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file_->Append(frame_));
    return file_->Flush();
  }();
  if (!written.ok()) {
    return Status::IOError("segment file block write failed: " +
                           written.message());
  }
  ++stats_.blocks;
  stats_.payload_bytes += footer.payload_bytes;
  stats_.file_bytes += frame_.size();
  StoreWriteMetrics& m = GetStoreWriteMetrics();
  m.blocks_sealed->Increment();
  m.file_flushes->Increment();
  m.bytes_written->Add(frame_.size());
  return Status::OK();
}

Status SegmentFileWriter::Close() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return first_error_;
  closed_ = true;
  const Status seal = SealLocked();
  if (!seal.ok() && first_error_.ok()) first_error_ = seal;
  const Status closed = file_->Close();
  if (!closed.ok() && first_error_.ok()) first_error_ = closed;
  file_.reset();
  return first_error_;
}

Result<std::unique_ptr<SegmentFileReader>> SegmentFileReader::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open segment file " + path);
  }
  std::unique_ptr<SegmentFileReader> reader(new SegmentFileReader());
  reader->path_ = path;
  reader->fd_ = fd;

  struct stat st;
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    return Status::IOError("cannot size segment file " + path);
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);
  reader->file_bytes_ = file_size;

  std::vector<std::uint8_t> header(kFileHeaderBytes);
  if (file_size < kFileHeaderBytes) {
    return Status::Corruption("store file shorter than its header: " + path);
  }
  if (!PreadFull(fd, header.data(), header.size(), 0)) {
    return Status::IOError("cannot read segment file header from " + path);
  }
  OPERB_ASSIGN_OR_RETURN(reader->zeta_, DecodeFileHeader(header));

  // Structural scan: length prefix -> footer, payloads skipped. An
  // *incomplete* final frame is the torn tail a crashed append leaves
  // and is dropped (valid-prefix rule); a size-complete frame that
  // fails validation is Corruption — the writer flushed it as
  // committed, so dropping it would silently lose data.
  std::uint64_t pos = kFileHeaderBytes;
  std::vector<std::uint8_t> footer_data(kBlockFooterBytes);
  while (pos < file_size) {
    const std::uint64_t remaining = file_size - pos;
    if (remaining < 4) break;  // partial length prefix
    std::uint8_t len_bytes[4];
    if (!PreadFull(fd, len_bytes, 4, pos)) {
      return Status::IOError("cannot read block length in " + path);
    }
    const std::uint32_t payload_bytes =
        static_cast<std::uint32_t>(len_bytes[0]) |
        (static_cast<std::uint32_t>(len_bytes[1]) << 8) |
        (static_cast<std::uint32_t>(len_bytes[2]) << 16) |
        (static_cast<std::uint32_t>(len_bytes[3]) << 24);
    if (remaining <
        4 + static_cast<std::uint64_t>(payload_bytes) + kBlockFooterBytes) {
      break;  // partial tail frame
    }
    if (!PreadFull(fd, footer_data.data(), footer_data.size(),
                   pos + 4 + payload_bytes)) {
      return Status::IOError("cannot read block footer in " + path);
    }
    OPERB_ASSIGN_OR_RETURN(const BlockFooter footer,
                           DecodeFooter(footer_data));
    if (footer.payload_bytes != payload_bytes) {
      return Status::Corruption(
          "block length prefix disagrees with its footer in " + path);
    }
    OPERB_RETURN_IF_ERROR(ValidateFooterRanges(footer));
    BlockRef ref;
    ref.payload_offset = pos + 4;
    ref.footer = footer;
    reader->blocks_.push_back(ref);
    pos += 4 + payload_bytes + kBlockFooterBytes;
  }
  if (pos < file_size) {
    reader->open_info_.tail_dropped = true;
    reader->open_info_.dropped_bytes = file_size - pos;
  }
  return reader;
}

SegmentFileReader::~SegmentFileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Status SegmentFileReader::ReadPayload(
    std::size_t i, std::vector<std::uint8_t>* payload) const {
  const BlockRef& ref = blocks_[i];
  payload->resize(ref.footer.payload_bytes);
  if (!PreadFull(fd_, payload->data(), payload->size(), ref.payload_offset)) {
    return Status::IOError("cannot read store block from " + path_);
  }
  if (BlockChecksum(*payload, ref.footer) != ref.footer.checksum) {
    return Status::Corruption("store block " + std::to_string(i) +
                              " checksum mismatch in " + path_);
  }
  return Status::OK();
}

Status SegmentFileReader::SegmentCountMismatch(std::size_t i) const {
  return Status::Corruption("store block " + std::to_string(i) +
                            " segment count mismatch in " + path_);
}

Result<std::vector<traj::TimedSegment>> SegmentFileReader::ReadBlock(
    std::size_t i) const {
  std::vector<std::uint8_t> payload;
  std::vector<traj::TimedSegment> segments;
  OPERB_RETURN_IF_ERROR(
      ScanBlock(i, &payload, [&segments](const traj::TimedSegment& s) {
        segments.push_back(s);
      }));
  return segments;
}

}  // namespace operb::store
