#include "store/env.h"

#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

namespace operb::store {

namespace {

namespace fs = std::filesystem;

class StdioWritableFile final : public WritableFile {
 public:
  StdioWritableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  ~StdioWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::span<const std::uint8_t> data) override {
    if (file_ == nullptr) {
      return Status::InvalidArgument("append to a closed file " + path_);
    }
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError("write to " + path_ + " failed");
    }
    return Status::OK();
  }

  Status Flush() override {
    if (file_ == nullptr) {
      return Status::InvalidArgument("flush of a closed file " + path_);
    }
    if (std::fflush(file_) != 0) {
      return Status::IOError("flush of " + path_ + " failed");
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IOError("close of " + path_ + " failed");
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
  std::string path_;
};

class DefaultEnv final : public Env {
 public:
  Result<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return Status::IOError("cannot create " + path);
    }
    return std::unique_ptr<WritableFile>(
        std::make_unique<StdioWritableFile>(file, path));
  }

  Status Rename(const std::string& from, const std::string& to) override {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) {
      return Status::IOError("cannot rename " + from + " to " + to + ": " +
                             ec.message());
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    std::error_code ec;
    if (!fs::remove(path, ec)) {
      if (ec) {
        return Status::IOError("cannot remove " + path + ": " + ec.message());
      }
      return Status::NotFound("no file to remove at " + path);
    }
    return Status::OK();
  }

  void Schedule(std::function<void()> task) override {
    std::unique_lock<std::mutex> lock(mu_);
    if (!thread_.joinable()) {
      try {
        thread_ = std::thread([this] { RunTasks(); });
      } catch (const std::system_error&) {
        // No thread to be had: the task runs on its caller. The queue is
        // empty until a thread exists, so FIFO order still holds.
        lock.unlock();
        task();
        return;
      }
    }
    tasks_.push_back(std::move(task));
    lock.unlock();
    task_ready_.notify_one();
  }

 private:
  /// The background thread's loop. The Env is never destroyed, so the
  /// thread is never joined.
  void RunTasks() {
    for (;;) {
      std::function<void()> task;
      {
        std::unique_lock<std::mutex> lock(mu_);
        task_ready_.wait(lock, [this] { return !tasks_.empty(); });
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
      task();
    }
  }

  std::mutex mu_;
  std::condition_variable task_ready_;
  std::deque<std::function<void()>> tasks_;
  std::thread thread_;  // started by the first Schedule()
};

}  // namespace

Env* Env::Default() {
  static DefaultEnv* env = new DefaultEnv();  // process-lived, never freed
  return env;
}

// ---------------------------------------------------------------------
// FaultInjectingEnv
// ---------------------------------------------------------------------

/// Wraps a base WritableFile so appends and flushes tick the shared
/// operation counter and honor the armed fault.
class FaultInjectingEnv::FaultingFile final : public WritableFile {
 public:
  FaultingFile(FaultInjectingEnv* env, std::unique_ptr<WritableFile> base)
      : env_(env), base_(std::move(base)) {}

  Status Append(std::span<const std::uint8_t> data) override {
    switch (env_->NextOp()) {
      case OpOutcome::kSucceed:
        return base_->Append(data);
      case OpOutcome::kFail:
        return Status::IOError("injected write fault");
      case OpOutcome::kTearThenFail: {
        // Persist a torn prefix — the crash left half the bytes on disk —
        // then report failure; flushing makes the torn state durable so
        // the reopen path, not the page cache, is what recovers it.
        const Status torn = base_->Append(data.first(data.size() / 2));
        if (torn.ok()) (void)base_->Flush();
        return Status::IOError("injected torn write");
      }
    }
    return Status::Internal("unreachable");
  }

  Status Flush() override {
    switch (env_->NextOp()) {
      case OpOutcome::kSucceed:
        return base_->Flush();
      case OpOutcome::kFail:
      case OpOutcome::kTearThenFail:
        return Status::IOError("injected flush fault");
    }
    return Status::Internal("unreachable");
  }

  Status Close() override { return base_->Close(); }

 private:
  FaultInjectingEnv* const env_;
  std::unique_ptr<WritableFile> base_;
};

FaultInjectingEnv::FaultInjectingEnv(Env* base) : base_(ResolveEnv(base)) {}

void FaultInjectingEnv::ArmFault(FaultKind kind, std::uint64_t fail_at_op) {
  const std::lock_guard<std::mutex> lock(mu_);
  kind_ = kind;
  fail_at_op_ = fail_at_op;
  op_count_ = 0;
  fired_ = false;
  crashed_ = false;
}

void FaultInjectingEnv::Disarm() { ArmFault(FaultKind::kNone, 0); }

std::uint64_t FaultInjectingEnv::op_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return op_count_;
}

bool FaultInjectingEnv::fault_fired() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return fired_;
}

FaultInjectingEnv::OpOutcome FaultInjectingEnv::NextOp() {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t op = op_count_++;
  if (crashed_) return OpOutcome::kFail;  // "crashed": everything fails
  if (kind_ == FaultKind::kNone || op != fail_at_op_) {
    return OpOutcome::kSucceed;
  }
  fired_ = true;
  switch (kind_) {
    case FaultKind::kError:
      return OpOutcome::kFail;
    case FaultKind::kShortWrite:
      return OpOutcome::kTearThenFail;
    case FaultKind::kTornWriteCrash:
      crashed_ = true;
      return OpOutcome::kTearThenFail;
    case FaultKind::kNone:
      break;
  }
  return OpOutcome::kSucceed;
}

Result<std::unique_ptr<WritableFile>> FaultInjectingEnv::NewWritableFile(
    const std::string& path) {
  if (NextOp() != OpOutcome::kSucceed) {
    return Status::IOError("injected create fault for " + path);
  }
  OPERB_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                         base_->NewWritableFile(path));
  return std::unique_ptr<WritableFile>(
      std::make_unique<FaultingFile>(this, std::move(base)));
}

Status FaultInjectingEnv::Rename(const std::string& from,
                                 const std::string& to) {
  if (NextOp() != OpOutcome::kSucceed) {
    return Status::IOError("injected rename fault for " + to);
  }
  return base_->Rename(from, to);
}

Status FaultInjectingEnv::Remove(const std::string& path) {
  if (NextOp() != OpOutcome::kSucceed) {
    return Status::IOError("injected remove fault for " + path);
  }
  return base_->Remove(path);
}

void FaultInjectingEnv::Schedule(std::function<void()> task) {
  base_->Schedule(std::move(task));
}

}  // namespace operb::store
