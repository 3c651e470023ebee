#include "store/format.h"

#include <algorithm>
#include <bit>

#include "common/serial.h"

namespace operb::store {

namespace {

/// Footer bytes before the two checksum fields.
constexpr std::size_t kFooterBodyBytes = kBlockFooterBytes - 16;

std::uint32_t GetU32(std::span<const std::uint8_t> data, std::size_t pos) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
  }
  return v;
}

std::uint64_t GetU64(std::span<const std::uint8_t> data, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
  }
  return v;
}

double GetF64(std::span<const std::uint8_t> data, std::size_t pos) {
  return std::bit_cast<double>(GetU64(data, pos));
}

/// The serialized footer, checksums included, built on the stack so that
/// checksumming a footer on every block read allocates nothing.
std::array<std::uint8_t, kBlockFooterBytes> FooterBytes(
    const BlockFooter& footer) {
  std::array<std::uint8_t, kBlockFooterBytes> out{};
  std::size_t pos = 0;
  auto put = [&](std::uint64_t v, int width) {
    for (int i = 0; i < width; ++i) {
      out[pos++] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  put(kFooterMagic, 4);
  put(footer.segment_count, 4);
  put(footer.object_min, 8);
  put(footer.object_max, 8);
  put(std::bit_cast<std::uint64_t>(footer.t_min), 8);
  put(std::bit_cast<std::uint64_t>(footer.t_max), 8);
  put(std::bit_cast<std::uint64_t>(footer.min_x), 8);
  put(std::bit_cast<std::uint64_t>(footer.min_y), 8);
  put(std::bit_cast<std::uint64_t>(footer.max_x), 8);
  put(std::bit_cast<std::uint64_t>(footer.max_y), 8);
  put(footer.payload_bytes, 4);
  put(footer.checksum, 8);
  put(footer.footer_checksum, 8);
  return out;
}

}  // namespace

void EncodeFileHeader(double zeta, std::vector<std::uint8_t>* out) {
  out->insert(out->end(), kFileMagicPrefix.begin(), kFileMagicPrefix.end());
  out->push_back(static_cast<std::uint8_t>('0' + kFormatVersion));
  serial::PutU32(kFormatVersion, out);
  serial::PutU32(0, out);  // reserved
  serial::PutF64(zeta, out);
}

Result<double> DecodeFileHeader(std::span<const std::uint8_t> data) {
  if (data.size() < kFileHeaderBytes) {
    return Status::Corruption("store file shorter than its header");
  }
  if (!std::equal(kFileMagicPrefix.begin(), kFileMagicPrefix.end(),
                  data.begin())) {
    return Status::Corruption("not a trajectory store (bad magic)");
  }
  const std::uint32_t version = GetU32(data, 8);
  if (version != kFormatVersion) {
    return Status::Corruption("unsupported store format version " +
                              std::to_string(version));
  }
  if (data[7] != static_cast<std::uint8_t>('0' + version)) {
    return Status::Corruption(
        "store magic generation disagrees with header version");
  }
  return GetF64(data, 16);
}

BlockFooter MakeFooter(std::span<const traj::TimedSegment> segments,
                       std::span<const std::uint8_t> payload) {
  BlockFooter f;
  f.payload_bytes = static_cast<std::uint32_t>(payload.size());
  f.segment_count = static_cast<std::uint32_t>(segments.size());
  geo::BoundingBox box;
  bool first = true;
  for (const traj::TimedSegment& s : segments) {
    if (first) {
      f.object_min = f.object_max = s.object_id;
      f.t_min = s.t_start;
      f.t_max = s.t_end;
      first = false;
    } else {
      f.object_min = std::min(f.object_min, s.object_id);
      f.object_max = std::max(f.object_max, s.object_id);
      f.t_min = std::min(f.t_min, s.t_start);
      f.t_max = std::max(f.t_max, s.t_end);
    }
    box.Extend(s.segment.start);
    box.Extend(s.segment.end);
  }
  if (!box.IsEmpty()) {
    f.min_x = box.min_x;
    f.min_y = box.min_y;
    f.max_x = box.max_x;
    f.max_y = box.max_y;
  }
  f.checksum = BlockChecksum(payload, f);
  f.footer_checksum = FooterChecksum(f);
  return f;
}

void EncodeFooter(const BlockFooter& footer,
                  std::vector<std::uint8_t>* out) {
  const auto bytes = FooterBytes(footer);
  out->insert(out->end(), bytes.begin(), bytes.end());
}

Result<BlockFooter> DecodeFooter(std::span<const std::uint8_t> data) {
  if (data.size() < kBlockFooterBytes) {
    return Status::Corruption("truncated block footer");
  }
  if (GetU32(data, 0) != kFooterMagic) {
    return Status::Corruption("bad block footer magic");
  }
  BlockFooter f;
  f.segment_count = GetU32(data, 4);
  f.object_min = GetU64(data, 8);
  f.object_max = GetU64(data, 16);
  f.t_min = GetF64(data, 24);
  f.t_max = GetF64(data, 32);
  f.min_x = GetF64(data, 40);
  f.min_y = GetF64(data, 48);
  f.max_x = GetF64(data, 56);
  f.max_y = GetF64(data, 64);
  f.payload_bytes = GetU32(data, 72);
  f.checksum = GetU64(data, 76);
  f.footer_checksum = GetU64(data, 84);
  if (f.footer_checksum != FooterChecksum(f)) {
    return Status::Corruption("block footer checksum mismatch");
  }
  return f;
}

Status ValidateFooterRanges(const BlockFooter& footer) {
  if (footer.segment_count == 0) {
    return Status::Corruption("block footer declares zero segments");
  }
  if (footer.object_min > footer.object_max) {
    return Status::Corruption("block footer has an inverted object id range");
  }
  // Negated comparisons so NaN bounds are rejected too.
  if (!(footer.t_min <= footer.t_max)) {
    return Status::Corruption("block footer has an inverted time interval");
  }
  if (!(footer.min_x <= footer.max_x) || !(footer.min_y <= footer.max_y)) {
    return Status::Corruption("block footer has an inverted bounding box");
  }
  return Status::OK();
}

std::uint64_t BlockChecksum(std::span<const std::uint8_t> payload,
                            const BlockFooter& footer) {
  const auto bytes = FooterBytes(footer);
  return serial::Xxh64(std::span(bytes).first(kFooterBodyBytes),
                       serial::Xxh64(payload));
}

std::uint64_t FooterChecksum(const BlockFooter& footer) {
  const auto bytes = FooterBytes(footer);
  return serial::Xxh64(std::span(bytes).first(kBlockFooterBytes - 8));
}

}  // namespace operb::store
