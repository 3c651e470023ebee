#ifndef OPERB_COMMON_SERIAL_H_
#define OPERB_COMMON_SERIAL_H_

/// \file
/// Byte-stable little-endian field encoding plus the two checksums — the
/// shared vocabulary of every durable byte format in this repo (store
/// block footers, MANIFEST, simplifier state blobs, engine checkpoints).
///
/// The discipline: fixed-size fields appended one at a time, doubles as
/// their IEEE-754 bit patterns, every blob prefixed with a magic + version
/// byte and closed by a trailing 64-bit checksum over everything before
/// it. Small blobs (manifest, checkpoints, state blobs) use FNV-1a64;
/// store segment files, whose payloads are read on every query, use
/// XXH64.
/// Readers advance a caller-owned cursor and report truncation instead of
/// reading past the end, so a corrupt length upstream can never walk a
/// parser out of its buffer.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace operb::serial {

inline void PutU8(std::uint8_t v, std::vector<std::uint8_t>* out) {
  out->push_back(v);
}

inline void PutU32(std::uint32_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void PutU64(std::uint64_t v, std::vector<std::uint8_t>* out) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

inline void PutF64(double v, std::vector<std::uint8_t>* out) {
  PutU64(std::bit_cast<std::uint64_t>(v), out);
}

/// Cursor-advancing readers: each returns false (leaving `*v` untouched
/// and `*pos` unspecified-but-unmoved) when fewer than the field's bytes
/// remain.
inline bool GetU8(std::span<const std::uint8_t> in, std::size_t* pos,
                  std::uint8_t* v) {
  if (in.size() - *pos < 1 || *pos > in.size()) return false;
  *v = in[(*pos)++];
  return true;
}

inline bool GetU32(std::span<const std::uint8_t> in, std::size_t* pos,
                   std::uint32_t* v) {
  if (*pos > in.size() || in.size() - *pos < 4) return false;
  std::uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<std::uint32_t>(in[*pos + i]) << (8 * i);
  }
  *pos += 4;
  *v = r;
  return true;
}

inline bool GetU64(std::span<const std::uint8_t> in, std::size_t* pos,
                   std::uint64_t* v) {
  if (*pos > in.size() || in.size() - *pos < 8) return false;
  std::uint64_t r = 0;
  for (int i = 0; i < 8; ++i) {
    r |= static_cast<std::uint64_t>(in[*pos + i]) << (8 * i);
  }
  *pos += 8;
  *v = r;
  return true;
}

inline bool GetF64(std::span<const std::uint8_t> in, std::size_t* pos,
                   double* v) {
  std::uint64_t bits = 0;
  if (!GetU64(in, pos, &bits)) return false;
  *v = std::bit_cast<double>(bits);
  return true;
}

inline constexpr std::uint64_t kFnv1a64OffsetBasis = 0xCBF2'9CE4'8422'2325ULL;

/// 64-bit FNV-1a over `data`, chainable through `seed` (pass a previous
/// call's result to hash discontiguous pieces as one stream).
inline std::uint64_t Fnv1a64(std::span<const std::uint8_t> data,
                             std::uint64_t seed = kFnv1a64OffsetBasis) {
  constexpr std::uint64_t kPrime = 0x0000'0100'0000'01B3ULL;
  std::uint64_t h = seed;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= kPrime;
  }
  return h;
}

namespace xxh64_detail {

inline constexpr std::uint64_t kPrime1 = 0x9E37'79B1'85EB'CA87ULL;
inline constexpr std::uint64_t kPrime2 = 0xC2B2'AE3D'27D4'EB4FULL;
inline constexpr std::uint64_t kPrime3 = 0x1656'67B1'9E37'79F9ULL;
inline constexpr std::uint64_t kPrime4 = 0x85EB'CA77'C2B2'AE63ULL;
inline constexpr std::uint64_t kPrime5 = 0x27D4'EB2F'1656'67C5ULL;

inline std::uint64_t Load64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

inline std::uint64_t Load32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, 4);
  } else {
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
    }
  }
  return v;
}

inline std::uint64_t Round(std::uint64_t acc, std::uint64_t lane) {
  return std::rotl(acc + lane * kPrime2, 31) * kPrime1;
}

inline std::uint64_t MergeRound(std::uint64_t h, std::uint64_t acc) {
  return (h ^ Round(0, acc)) * kPrime1 + kPrime4;
}

}  // namespace xxh64_detail

/// XXH64 (Yann Collet's xxHash, 64-bit variant) over `data`. The digest
/// equals the reference implementation's XXH64(data, size, seed). Four
/// independent 64-bit lanes per 32-byte stripe make it several times
/// faster than the byte-serial FNV-1a on long inputs; pass a previous
/// digest as `seed` to bind two pieces together.
inline std::uint64_t Xxh64(std::span<const std::uint8_t> data,
                           std::uint64_t seed = 0) {
  using namespace xxh64_detail;
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  std::uint64_t h;
  if (data.size() >= 32) {
    std::uint64_t v1 = seed + kPrime1 + kPrime2;
    std::uint64_t v2 = seed + kPrime2;
    std::uint64_t v3 = seed;
    std::uint64_t v4 = seed - kPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = MergeRound(h, v1);
    h = MergeRound(h, v2);
    h = MergeRound(h, v3);
    h = MergeRound(h, v4);
  } else {
    h = seed + kPrime5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h = std::rotl(h ^ Round(0, Load64(p)), 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h = std::rotl(h ^ (Load32(p) * kPrime1), 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h = std::rotl(h ^ (*p * kPrime5), 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

}  // namespace operb::serial

#endif  // OPERB_COMMON_SERIAL_H_
