#include "store/manifest.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string_view>
#include <unordered_set>

#include "common/serial.h"
#include "store/store_metrics.h"

namespace operb::store {

namespace {

using serial::GetU32;
using serial::GetU64;
using serial::PutU32;
using serial::PutU64;

}  // namespace

Status Manifest::Validate() const {
  if (num_shards < 1) {
    return Status::Corruption("manifest num_shards must be at least 1");
  }
  std::unordered_set<std::string> names;
  for (const SegmentFileInfo& f : files) {
    if (f.shard >= num_shards) {
      return Status::Corruption("manifest names segment file " + f.name +
                                " in out-of-range shard " +
                                std::to_string(f.shard));
    }
    if (f.name.empty() ||
        f.name.find('/') != std::string::npos ||
        f.name.find('\\') != std::string::npos) {
      return Status::Corruption(
          "manifest segment file names must be plain file names");
    }
    if (!names.insert(f.name).second) {
      return Status::Corruption("manifest names segment file " + f.name +
                                " twice");
    }
  }
  return Status::OK();
}

std::string SegmentFileName(std::uint32_t shard, std::uint64_t generation) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%05u-g%06llu.seg", shard,
                static_cast<unsigned long long>(generation));
  return buf;
}

bool IsStoreFileName(const std::string& name) {
  if (name == kManifestFileName || name == kManifestTempFileName) return true;
  constexpr std::string_view kExt = ".seg";
  return name.size() > kExt.size() &&
         name.compare(name.size() - kExt.size(), kExt.size(), kExt) == 0;
}

void EncodeManifest(const Manifest& manifest,
                    std::vector<std::uint8_t>* out) {
  out->insert(out->end(), kManifestMagic.begin(), kManifestMagic.end());
  PutU32(kManifestVersion, out);
  PutU64(manifest.generation, out);
  PutU64(std::bit_cast<std::uint64_t>(manifest.zeta), out);
  PutU32(manifest.num_shards, out);
  PutU64(manifest.block_budget_bytes, out);
  PutU32(static_cast<std::uint32_t>(manifest.files.size()), out);
  for (const SegmentFileInfo& f : manifest.files) {
    PutU32(f.shard, out);
    PutU32(f.level, out);
    PutU32(f.sealed ? 1u : 0u, out);  // flags word, bit 0 = sealed
    PutU32(static_cast<std::uint32_t>(f.name.size()), out);
    out->insert(out->end(), f.name.begin(), f.name.end());
  }
  PutU64(serial::Fnv1a64(*out), out);
}

Result<Manifest> DecodeManifest(std::span<const std::uint8_t> data) {
  if (data.size() < kManifestMagic.size() + 4 + 8) {
    return Status::Corruption("truncated store manifest");
  }
  if (!std::equal(kManifestMagic.begin(), kManifestMagic.end(),
                  data.begin())) {
    return Status::Corruption("not a store manifest (bad magic)");
  }
  // Verify the trailing checksum before trusting any field.
  std::size_t tail = data.size() - 8;
  std::uint64_t stored = 0;
  {
    std::size_t pos = tail;
    GetU64(data, &pos, &stored);
  }
  if (serial::Fnv1a64(data.first(tail)) != stored) {
    return Status::Corruption("store manifest checksum mismatch");
  }

  std::size_t pos = kManifestMagic.size();
  Manifest m;
  std::uint32_t version = 0;
  std::uint64_t zeta_bits = 0;
  std::uint32_t file_count = 0;
  if (!GetU32(data, &pos, &version) || !GetU64(data, &pos, &m.generation) ||
      !GetU64(data, &pos, &zeta_bits) || !GetU32(data, &pos, &m.num_shards) ||
      !GetU64(data, &pos, &m.block_budget_bytes) ||
      !GetU32(data, &pos, &file_count)) {
    return Status::Corruption("truncated store manifest");
  }
  if (version != kManifestVersion) {
    return Status::Corruption("unsupported store manifest version " +
                              std::to_string(version));
  }
  m.zeta = std::bit_cast<double>(zeta_bits);
  m.files.reserve(file_count);
  for (std::uint32_t i = 0; i < file_count; ++i) {
    SegmentFileInfo f;
    std::uint32_t flags = 0;
    std::uint32_t name_len = 0;
    if (!GetU32(data, &pos, &f.shard) || !GetU32(data, &pos, &f.level) ||
        !GetU32(data, &pos, &flags) || !GetU32(data, &pos, &name_len) ||
        pos + name_len > tail) {
      return Status::Corruption("truncated store manifest file table");
    }
    f.sealed = (flags & 1u) != 0;
    f.name.assign(reinterpret_cast<const char*>(data.data()) + pos, name_len);
    pos += name_len;
    m.files.push_back(std::move(f));
  }
  if (pos != tail) {
    return Status::Corruption("store manifest has trailing bytes");
  }
  OPERB_RETURN_IF_ERROR(m.Validate());
  return m;
}

Status WriteManifest(const std::string& dir, const Manifest& manifest,
                     Env* env) {
  OPERB_RETURN_IF_ERROR(manifest.Validate());
  env = ResolveEnv(env);
  std::vector<std::uint8_t> bytes;
  EncodeManifest(manifest, &bytes);

  namespace fs = std::filesystem;
  const std::string tmp = (fs::path(dir) / kManifestTempFileName).string();
  const std::string final_path = (fs::path(dir) / kManifestFileName).string();
  OPERB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> file,
                         env->NewWritableFile(tmp));
  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file->Append(bytes));
    OPERB_RETURN_IF_ERROR(file->Flush());
    return file->Close();
  }();
  if (!written.ok()) {
    (void)env->Remove(tmp);
    return written;
  }
  // The atomic commit point: readers see the old manifest or this one.
  const Status renamed = env->Rename(tmp, final_path);
  if (!renamed.ok()) {
    (void)env->Remove(tmp);
    return renamed;
  }
  StoreWriteMetrics& m = GetStoreWriteMetrics();
  m.manifest_commits->Increment();
  m.file_flushes->Increment();
  m.bytes_written->Add(bytes.size());
  return Status::OK();
}

std::mutex& ManifestCommitMutex(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path canonical = fs::weakly_canonical(fs::path(dir), ec);
  const std::string key = ec ? dir : canonical.string();
  static std::mutex registry_mu;
  // Keyed by canonical path; node-based map so returned references stay
  // stable. Entries are never erased — the set of distinct store
  // directories a process touches is tiny.
  static std::map<std::string, std::mutex>* registry =
      new std::map<std::string, std::mutex>();
  const std::lock_guard<std::mutex> lock(registry_mu);
  return (*registry)[key];
}

Result<Manifest> ReadManifest(const std::string& dir) {
  namespace fs = std::filesystem;
  const std::string path = (fs::path(dir) / kManifestFileName).string();
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open store manifest " + path);
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), file)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    return Status::IOError("cannot read store manifest " + path);
  }
  return DecodeManifest(bytes);
}

}  // namespace operb::store
