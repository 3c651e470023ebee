#include "engine/stream_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <mutex>
#include <utility>

#include "api/registry.h"
#include "baselines/streaming.h"
#include "common/check.h"
#include "common/serial.h"
#include "engine/spsc_ring.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace operb::engine {

namespace {

/// Consumer-side batch size per ring Pop.
constexpr std::size_t kConsumerBatch = 256;
/// Lines ProcessBatch prefetches per pooled state. OPERB's adapter
/// (src/api/register_algorithms.cc) is a vtable pointer and a name
/// around a 576-byte core::OperbStream, about 600 bytes: ten lines.
/// Prefetching only the first two lost about half the gain.
constexpr std::size_t kCacheLine = 64;
constexpr std::size_t kStatePrefetchLines = 10;
/// Batches a worker drains from one shard before moving on (fairness cap
/// so one hot shard cannot starve the thread's other shards).
constexpr int kMaxBatchesPerShard = 4;
/// Idle workers yield this many times before sleeping.
constexpr int kIdleSpinsBeforeSleep = 64;
constexpr std::chrono::microseconds kIdleSleep{200};
constexpr std::chrono::microseconds kDrainPoll{50};

/// Engine checkpoint file framing (DESIGN.md §9): 8-byte magic, version
/// byte, embedded spec string and shard count (the compatibility keys),
/// engine counters, per-shard state sections, trailing FNV-1a64. Each
/// live object's record carries its tail clock, so a restored engine
/// keeps emitting correctly timed segments. Version 1, which had no
/// clocks, is refused.
constexpr std::uint8_t kCheckpointMagic[8] = {'O', 'P', 'R', 'B',
                                              'C', 'K', 'P', '1'};
constexpr std::uint8_t kCheckpointVersion = 2;

/// Caller-side wait inside a tail snapshot: spin first (the worker
/// usually answers within microseconds), then sleep-poll.
constexpr int kSnapshotSpinsBeforeSleep = 256;
constexpr std::chrono::microseconds kSnapshotPoll{20};

Status TruncatedCheckpoint() {
  return Status::Corruption("truncated engine checkpoint");
}

/// Registry instruments for the engine hot paths (DESIGN.md §10). All
/// updates are amortized: points fold per producer batch in FlushShard,
/// never per point, and the ring-occupancy high-water is sampled at the
/// same cadence — the per-point cost of instrumentation is a fraction
/// of a relaxed fetch_add. Yield counters sit inside stall loops that
/// are already off the fast path.
struct EngineMetrics {
  obs::Counter* points_routed;
  obs::Counter* backpressure_yields;
  obs::Counter* objects_finished;
  obs::Counter* states_evicted;
  obs::Counter* states_restored;
  obs::MaxGauge* ring_occupancy_hwm;
  obs::LatencyHistogram* checkpoint_write_ns;
  obs::LatencyHistogram* checkpoint_restore_ns;
  obs::Counter* tails_cloned;   ///< folded once per served snapshot
  obs::Counter* tails_skipped;
};

EngineMetrics& GetEngineMetrics() {
  static EngineMetrics* const m = [] {
    auto& r = obs::MetricsRegistry::Global();
    return new EngineMetrics{
        r.GetCounter("engine.points_routed"),
        r.GetCounter("engine.backpressure_yields"),
        r.GetCounter("engine.objects_finished"),
        r.GetCounter("engine.states_evicted"),
        r.GetCounter("engine.states_restored"),
        r.GetMaxGauge("engine.ring_occupancy_hwm"),
        r.GetHistogram("engine.checkpoint.write_ns"),
        r.GetHistogram("engine.checkpoint.restore_ns"),
        r.GetCounter("engine.snapshot.tails_cloned"),
        r.GetCounter("engine.snapshot.tails_skipped"),
    };
  }();
  return *m;
}

}  // namespace

Status StreamEngineOptions::Validate() const {
  // Registry resolution covers the algorithm name, zeta range and the
  // algorithm-specific option keys/values.
  OPERB_RETURN_IF_ERROR(api::AlgorithmRegistry::Global().Validate(spec));
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  if (num_threads == 0) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (ring_capacity < 2) {
    return Status::InvalidArgument("ring_capacity must be >= 2");
  }
  if (producer_batch == 0) {
    return Status::InvalidArgument("producer_batch must be >= 1");
  }
  if (idle_timeout_seconds < 0.0) {
    return Status::InvalidArgument("idle_timeout_seconds must be >= 0");
  }
  return Status::OK();
}

std::string StreamEngineOptions::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "StreamEngineOptions{%s shards=%zu threads=%zu "
                "ring=%zu batch=%zu idle_timeout=%gs}",
                spec.ToString().c_str(), num_shards, num_threads,
                ring_capacity, producer_batch, idle_timeout_seconds);
  return buf;
}

/// One shard's part of a tail snapshot, owned by the calling thread
/// (which blocks on `done`, so the worker may use it until it releases
/// the flag): what to visit, from which hand-off count on, and the
/// outcome.
struct StreamEngine::TailSnapshotRequest {
  std::size_t shard = 0;
  const TailSnapshotVisitor* visitor = nullptr;
  const TailSummaryFilter* may_match = nullptr;  ///< window form only
  const ShardSnapshotHook* on_shard = nullptr;   ///< window form only
  bool filter = false;  ///< object form: visit only `filter_id`
  traj::ObjectId filter_id = 0;
  /// The shard's hand-off count at submission: served once the worker
  /// has processed at least this many updates.
  std::uint64_t handed_off = 0;
  bool refused = false;  ///< the engine closed first; set before `done`
  std::atomic<bool> done{false};
};

/// One state-table partition, owned by exactly one worker thread. Apart
/// from `ring`/`processed` and the snapshot mailbox, every member is
/// consumer-side only, so the hot path (table probe + state Push) is
/// lock-free and unsynchronized.
class StreamEngine::Shard {
 public:
  Shard(const StreamEngineOptions& options,
        const api::AlgorithmRegistry::Entry* algorithm,
        const TimedSegmentSink* sink, std::atomic<std::uint64_t>* live,
        std::atomic<std::uint64_t>* peak)
      : ring(options.ring_capacity),
        options_(options),
        algorithm_(algorithm),
        sink_(sink),
        live_census_(live),
        peak_census_(peak),
        slots_(kInitialSlots) {
    run_points_.reserve(kConsumerBatch);
  }

  SpscRing<Update> ring;
  /// Updates consumed, released after each processed batch; the producer
  /// compares it against its hand-off count to implement Close()'s drain
  /// barrier, and the worker against a snapshot request's.
  std::atomic<std::uint64_t> processed{0};

  /// Processes one consumer batch, coalescing consecutive kPoint updates
  /// for the same object into a single span Push. Interleaved streams
  /// (different ids, or control updates between points) degrade to the
  /// point-wise path; a single producer replaying one trajectory gets
  /// runs the length of the ring batch, which is what lets the batched
  /// lookahead inside OperbStream::Push(span) see real runs instead of
  /// singletons.
  void ProcessBatch(const Update* updates, std::size_t n) {
    PrefetchBatch(updates, n);
    std::size_t i = 0;
    while (i < n) {
      const Update& u = updates[i];
      if (u.kind != Kind::kPoint) {
        Process(u);
        ++i;
        continue;
      }
      std::size_t j = i + 1;
      while (j < n && updates[j].kind == Kind::kPoint &&
             updates[j].id == u.id) {
        ++j;
      }
      if (j - i == 1) {
        Process(u);
      } else {
        // Ring entries are strided Updates; the span path needs
        // contiguous points. run_points_ is reused across batches, so
        // this copy allocates nothing once warm.
        run_points_.clear();
        for (std::size_t k = i; k < j; ++k) {
          run_points_.push_back(updates[k].point);
        }
        ProcessPointRun(u.id, run_points_.data(), j - i);
      }
      i = j;
    }
  }

  /// Group prefetch (DESIGN.md §6 "Batch prefetch"): with ~10^5 live
  /// objects every update lands on a cold slot, state and tail clock,
  /// so the whole batch's loads are started before any of them is used.
  /// Pass one prefetches each update's home slot; pass two, with those
  /// slots arriving, finds each point's live slot and prefetches its
  /// state, its clock entry and the clock's append position. Read-only:
  /// an id not yet in the table is skipped, and a slot the batch itself
  /// grows, finishes or reuses only makes a hint stale.
  /// Always inlined: GCC rates a call to a function that only prefetches
  /// as free of side effects and deletes it.
  [[gnu::always_inline]] void PrefetchBatch(const Update* updates,
                                            std::size_t n) const {
    for (std::size_t k = 0; k < n; ++k) {
      __builtin_prefetch(&slots_[TableHash(updates[k].id) & Mask()]);
    }
    for (std::size_t k = 0; k < n; ++k) {
      if (updates[k].kind != Kind::kPoint) continue;
      const Slot* s = Find(updates[k].id);
      if (s == nullptr) continue;
      // Integer addresses: other algorithms' states are smaller than ten
      // lines, and a pointer past the end of its object is undefined.
      const auto state =
          reinterpret_cast<std::uintptr_t>(states_[s->state].get());
      for (std::size_t line = 0; line < kStatePrefetchLines; ++line) {
        __builtin_prefetch(
            reinterpret_cast<const void*>(state + line * kCacheLine));
      }
      // Reading the clock entry for its append position loads the entry.
      const TailClock& clock = clocks_[s->state];
      __builtin_prefetch(clock.times.data() + clock.times.size());
    }
  }

  void Process(const Update& u) {
    switch (u.kind) {
      case Kind::kPoint: {
        Slot& s = FindOrCreate(u.id);
        current_id_ = u.id;
        current_state_ = s.state;
        // The clock entry must exist before Push: the state may emit a
        // segment ending at this very point.
        clocks_[s.state].Append(u.point.t);
        states_[s.state]->Push(u.point);
        s.last_time = u.point.t;
        break;
      }
      case Kind::kFinish: {
        Slot* s = Find(u.id);
        if (s != nullptr) FinishSlot(*s, /*idle=*/false);
        break;
      }
      case Kind::kTick: {
        if (options_.idle_timeout_seconds <= 0.0) break;
        const double cutoff = u.point.t - options_.idle_timeout_seconds;
        for (Slot& s : slots_) {
          if (s.status == kOccupied && s.last_time <= cutoff) {
            FinishSlot(s, /*idle=*/true);
          }
        }
        break;
      }
      case Kind::kCloseAll: {
        for (Slot& s : slots_) {
          if (s.status == kOccupied) FinishSlot(s, /*idle=*/false);
        }
        break;
      }
    }
  }

  /// Span-path mirror of the kPoint case in Process(): one slot lookup
  /// and one state Push for the whole same-id run. All of the run's
  /// timestamps are appended to the tail clock BEFORE the Push — the
  /// state may emit mid-span, and TailClock::At addresses by absolute
  /// point index, so entries past the emitted segment are simply not
  /// read yet. Side effects (current_id_/current_state_, last_time,
  /// clock contents at every emission point) match the point-wise path
  /// exactly.
  void ProcessPointRun(traj::ObjectId id, const geo::Point* pts,
                       std::size_t n) {
    Slot& s = FindOrCreate(id);
    current_id_ = id;
    current_state_ = s.state;
    TailClock& clock = clocks_[s.state];
    for (std::size_t k = 0; k < n; ++k) clock.Append(pts[k].t);
    states_[s.state]->Push(std::span<const geo::Point>(pts, n));
    s.last_time = pts[n - 1].t;
  }

  /// Mailbox side of the tail snapshots. Any thread submits; the
  /// owning worker serves between batches and when idle; Close() refuses
  /// whatever is left once the worker has been joined. Returns false when
  /// the mailbox is already closed.
  bool Submit(TailSnapshotRequest* req) {
    std::lock_guard<std::mutex> lock(requests_mu_);
    if (requests_closed_) return false;
    requests_.push_back(req);
    requests_pending_.store(true, std::memory_order_release);
    return true;
  }

  /// Serves every pending request whose hand-off count this worker has
  /// processed (worker thread only). One relaxed-cost load when idle.
  void ServeRequests() {
    if (!requests_pending_.load(std::memory_order_acquire)) return;
    const std::uint64_t done = processed.load(std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(requests_mu_);
      std::size_t keep = 0;
      for (TailSnapshotRequest* req : requests_) {
        if (req->handed_off > done) {
          requests_[keep++] = req;
        } else {
          serving_.push_back(req);
        }
      }
      requests_.resize(keep);
      requests_pending_.store(keep != 0, std::memory_order_relaxed);
    }
    for (TailSnapshotRequest* req : serving_) {
      HandleSnapshot(*req);
      // The caller may destroy the request as soon as it sees the flag.
      req->done.store(true, std::memory_order_release);
    }
    serving_.clear();
  }

  /// Closes the mailbox and refuses what is still in it. Call after the
  /// owning worker has been joined (or never started).
  void RefuseRequests() {
    std::lock_guard<std::mutex> lock(requests_mu_);
    requests_closed_ = true;
    for (TailSnapshotRequest* req : requests_) {
      req->refused = true;
      req->done.store(true, std::memory_order_release);
    }
    requests_.clear();
    requests_pending_.store(false, std::memory_order_relaxed);
  }

  /// Runs a tail snapshot on this worker thread: the request's shard
  /// hook first, then every live (and matching, when filtered) slot
  /// that the request's summary filter cannot rule out is cloned — its
  /// state serialized into the scratch state and finished — and the
  /// clone's emissions, timed via the slot's tail clock (read, never
  /// advanced), go to the request's visitor in ascending object-id
  /// order. The live state is never touched, so processing resumes as
  /// if the snapshot had not happened.
  void HandleSnapshot(const TailSnapshotRequest& req) {
    if (req.on_shard != nullptr) (*req.on_shard)(req.shard);
    // Summaries are grown here, not per state at creation, so engines
    // that never take a window snapshot never pay for them.
    if (summaries_.size() < states_.size()) summaries_.resize(states_.size());
    visit_.clear();
    std::uint64_t skipped = 0;
    if (req.filter) {
      const Slot* s = Find(req.filter_id);
      if (s != nullptr) visit_.push_back(s);
    } else {
      for (const Slot& s : slots_) {
        if (s.status != kOccupied) continue;
        if (RuledOut(s.state, *req.may_match)) {
          ++skipped;
          continue;
        }
        visit_.push_back(&s);
      }
      std::sort(visit_.begin(), visit_.end(),
                [](const Slot* a, const Slot* b) { return a->id < b->id; });
    }
    for (const Slot* s : visit_) {
      CloneTail(*s);
      (*req.visitor)(s->id, std::span<const traj::TimedSegment>(
                                snapshot_tail_));
    }
    EngineMetrics& m = GetEngineMetrics();
    m.tails_cloned->Add(visit_.size());
    m.tails_skipped->Add(skipped);
  }

  /// Appends this shard's checkpoint section: live objects in ascending
  /// id order (canonical, so equal engine states serialize to equal
  /// bytes regardless of table history), each as id + last event time +
  /// length-prefixed simplifier state blob + tail clock, then the shard
  /// counters.
  /// Caller must hold the drain barrier (Checkpoint() does) — the
  /// owning worker is then provably idle.
  void SerializeState(std::vector<std::uint8_t>* out) const {
    std::vector<const Slot*> live;
    live.reserve(live_);
    for (const Slot& s : slots_) {
      if (s.status == kOccupied) live.push_back(&s);
    }
    std::sort(live.begin(), live.end(),
              [](const Slot* a, const Slot* b) { return a->id < b->id; });
    serial::PutU64(live.size(), out);
    std::vector<std::uint8_t> blob;
    for (const Slot* s : live) {
      serial::PutU64(s->id, out);
      serial::PutF64(s->last_time, out);
      blob.clear();
      states_[s->state]->Serialize(&blob);
      serial::PutU32(static_cast<std::uint32_t>(blob.size()), out);
      out->insert(out->end(), blob.begin(), blob.end());
      // The tail clock, logically (base index, window) — physical
      // compaction offsets never leak into the bytes, keeping equal
      // states byte-equal.
      const TailClock& clock = clocks_[s->state];
      serial::PutU64(clock.base, out);
      serial::PutU64(clock.size(), out);
      for (std::size_t i = 0; i < clock.size(); ++i) {
        serial::PutF64(clock.At(clock.base + i), out);
      }
    }
    serial::PutU64(segments_, out);
    serial::PutU64(objects_opened_, out);
    serial::PutU64(objects_finished_, out);
    serial::PutU64(idle_evictions_, out);
  }

  /// Rebuilds shard `shard` from its checkpoint section (before the
  /// workers start; thread creation publishes the restored state to the
  /// owning worker). Ids must rise strictly and belong to this shard, as
  /// the writer emits them: anything else is Corruption, never a second
  /// state for one object. Each blob is handed to a freshly pooled
  /// state's Deserialize, which enforces the blob's own
  /// magic/version/zeta framing; counters are then overwritten with the
  /// checkpointed values so a resumed run's totals match the
  /// uninterrupted run.
  Status RestoreState(std::size_t shard, std::span<const std::uint8_t> in,
                      std::size_t* pos) {
    std::uint64_t count = 0;
    if (!serial::GetU64(in, pos, &count)) return TruncatedCheckpoint();
    traj::ObjectId previous_id = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      std::uint64_t id = 0;
      double last_time = 0.0;
      std::uint32_t blob_len = 0;
      if (!serial::GetU64(in, pos, &id) ||
          !serial::GetF64(in, pos, &last_time) ||
          !serial::GetU32(in, pos, &blob_len)) {
        return TruncatedCheckpoint();
      }
      if (in.size() - *pos < blob_len) return TruncatedCheckpoint();
      if (traj::ShardOfObject(id, options_.num_shards) != shard) {
        return Status::Corruption("engine checkpoint puts object " +
                                  std::to_string(id) + " in shard " +
                                  std::to_string(shard) +
                                  ", which does not own it");
      }
      if (i > 0 && id <= previous_id) {
        return Status::Corruption(
            "engine checkpoint object ids do not rise strictly in shard " +
            std::to_string(shard));
      }
      previous_id = id;
      Slot& s = FindOrCreate(id);
      s.last_time = last_time;
      // Bound the blob's span to its declared length so a state that
      // (wrongly) reads long lands on truncation, not the next record.
      std::size_t blob_pos = *pos;
      OPERB_RETURN_IF_ERROR(
          states_[s.state]->Deserialize(in.first(*pos + blob_len),
                                        &blob_pos));
      if (blob_pos != *pos + blob_len) {
        return Status::Corruption(
            "checkpoint state blob length disagrees with its contents");
      }
      *pos += blob_len;
      TailClock& clock = clocks_[s.state];
      clock.Clear();
      std::uint64_t times = 0;
      if (!serial::GetU64(in, pos, &clock.base) ||
          !serial::GetU64(in, pos, &times)) {
        return TruncatedCheckpoint();
      }
      for (std::uint64_t t = 0; t < times; ++t) {
        double value = 0.0;
        if (!serial::GetF64(in, pos, &value)) return TruncatedCheckpoint();
        clock.Append(value);
      }
    }
    if (!serial::GetU64(in, pos, &segments_) ||
        !serial::GetU64(in, pos, &objects_opened_) ||
        !serial::GetU64(in, pos, &objects_finished_) ||
        !serial::GetU64(in, pos, &idle_evictions_)) {
      return TruncatedCheckpoint();
    }
    return Status::OK();
  }

  /// Folds this shard's counters into `out` (call after the workers have
  /// been joined; plain reads are then safe).
  void AccumulateStats(StreamEngineStats* out) const {
    out->segments += segments_;
    out->objects_opened += objects_opened_;
    out->objects_finished += objects_finished_;
    out->idle_evictions += idle_evictions_;
    out->states_allocated += states_.size();
  }

 private:
  static constexpr std::size_t kInitialSlots = 64;
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kOccupied = 1;
  static constexpr std::uint8_t kTombstone = 2;

  /// Open-addressing slot: object id -> pooled state index, plus the
  /// event time of the object's latest point (for watermark eviction).
  struct Slot {
    traj::ObjectId id = 0;
    std::uint32_t state = 0;
    double last_time = 0.0;
    std::uint8_t status = kEmpty;
  };

  std::size_t Mask() const { return slots_.size() - 1; }

  /// Double-mixed so the table mask sees bits independent of the shard
  /// modulus (with power-of-two shard counts the low bits of one mix
  /// are constant within a shard).
  static std::size_t TableHash(traj::ObjectId id) {
    return static_cast<std::size_t>(
        traj::MixObjectId(traj::MixObjectId(id)));
  }

  const Slot* Find(traj::ObjectId id) const {
    std::size_t i = TableHash(id) & Mask();
    for (;;) {
      const Slot& s = slots_[i];
      if (s.status == kEmpty) return nullptr;
      if (s.status == kOccupied && s.id == id) return &s;
      i = (i + 1) & Mask();
    }
  }
  Slot* Find(traj::ObjectId id) {
    return const_cast<Slot*>(std::as_const(*this).Find(id));
  }

  Slot& FindOrCreate(traj::ObjectId id) {
    // Grow at 3/4 occupancy of used (live + tombstone) slots so linear
    // probing stays short; growth also clears the tombstones.
    if ((used_ + 1) * 4 >= slots_.size() * 3) Grow();
    std::size_t i = TableHash(id) & Mask();
    std::size_t first_tombstone = std::numeric_limits<std::size_t>::max();
    for (;;) {
      Slot& s = slots_[i];
      if (s.status == kOccupied && s.id == id) return s;
      if (s.status == kEmpty) {
        const bool reuse_tombstone =
            first_tombstone != std::numeric_limits<std::size_t>::max();
        Slot& target = reuse_tombstone ? slots_[first_tombstone] : s;
        if (!reuse_tombstone) ++used_;
        target.id = id;
        target.state = AcquireState();
        target.last_time = 0.0;
        target.status = kOccupied;
        ++live_;
        ++objects_opened_;
        // Global live-object census (object-open frequency, not per
        // point): lock-free running count + CAS-max for the true peak.
        const std::uint64_t now =
            live_census_->fetch_add(1, std::memory_order_relaxed) + 1;
        std::uint64_t prev = peak_census_->load(std::memory_order_relaxed);
        while (prev < now &&
               !peak_census_->compare_exchange_weak(
                   prev, now, std::memory_order_relaxed)) {
        }
        return target;
      }
      if (s.status == kTombstone &&
          first_tombstone == std::numeric_limits<std::size_t>::max()) {
        first_tombstone = i;
      }
      i = (i + 1) & Mask();
    }
  }

  void Grow() {
    // Double only when the *live* population needs the room; when the
    // 3/4 trigger was reached mostly through tombstones (object churn
    // with a small live set), rehash at the same size — that clears the
    // tombstones and keeps the table O(peak live), not O(ids ever seen).
    std::vector<Slot> old = std::move(slots_);
    const std::size_t new_size =
        live_ * 2 >= old.size() ? old.size() * 2 : old.size();
    slots_.assign(new_size, Slot{});
    used_ = live_;
    for (const Slot& s : old) {
      if (s.status != kOccupied) continue;
      std::size_t i = TableHash(s.id) & Mask();
      while (slots_[i].status == kOccupied) i = (i + 1) & Mask();
      slots_[i] = s;
    }
  }

  /// Pops a pooled state or creates one. A created state is wired to the
  /// engine sink exactly once; `current_id_` tags its emissions for
  /// whichever object currently drives it.
  std::uint32_t AcquireState() {
    if (!free_states_.empty()) {
      const std::uint32_t idx = free_states_.back();
      free_states_.pop_back();
      return idx;
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(states_.size());
    // The entry was resolved (and the spec validated) once at engine
    // construction; invoking its factory directly keeps cold-start state
    // creation free of registry lookups and mutex traffic on the shard
    // threads. A null product past validation is an internal invariant
    // violation.
    std::unique_ptr<baselines::StreamingSimplifier> state =
        algorithm_->streaming(options_.spec);
    OPERB_CHECK_MSG(state != nullptr, "streaming factory returned null");
    states_.push_back(std::move(state));
    clocks_.emplace_back();
    states_.back()->SetSink([this](const traj::RepresentedSegment& seg) {
      ++segments_;
      TailClock& clock = clocks_[current_state_];
      if (*sink_) {
        (*sink_)(traj::TimedSegment{current_id_, seg,
                                    clock.At(seg.first_index),
                                    clock.At(seg.last_index)});
      }
      // The next segment starts at this one's last index; everything
      // before it can never be referenced again.
      clock.DropBefore(seg.last_index);
    });
    return idx;
  }

  void FinishSlot(Slot& s, bool idle) {
    current_id_ = s.id;
    current_state_ = s.state;
    baselines::StreamingSimplifier& state = *states_[s.state];
    state.Finish();
    state.Reset();
    clocks_[s.state].Clear();
    // The pooled state's next object restarts its clock at index 0, so
    // an old summary could look current again: drop it here.
    if (s.state < summaries_.size()) summaries_[s.state].end = kNoSummary;
    free_states_.push_back(s.state);
    s.status = kTombstone;
    --live_;
    live_census_->fetch_sub(1, std::memory_order_relaxed);
    ++objects_finished_;
    if (idle) ++idle_evictions_;
    EngineMetrics& m = GetEngineMetrics();
    m.objects_finished->Increment();
    if (idle) m.states_evicted->Increment();
  }

  /// Timestamps of one object's points since its last emitted segment
  /// boundary, addressed by absolute point index. `base` is the
  /// absolute index of the window's first entry; DropBefore compacts
  /// the backing vector lazily (offset first, erase when the dead
  /// prefix dominates) so per-segment upkeep is amortized O(1).
  struct TailClock {
    std::uint64_t base = 0;
    std::size_t off = 0;
    std::vector<double> times;

    void Append(double t) { times.push_back(t); }
    std::size_t size() const { return times.size() - off; }
    /// Absolute index of the next point; moves with every Append only.
    std::uint64_t end() const { return base + size(); }
    double At(std::uint64_t index) const {
      OPERB_DCHECK(index >= base && index - base < size());
      return times[off + static_cast<std::size_t>(index - base)];
    }
    void DropBefore(std::uint64_t index) {
      OPERB_DCHECK(index >= base && index - base <= size());
      off += static_cast<std::size_t>(index - base);
      base = index;
      if (off > times.size() / 2) {
        times.erase(times.begin(),
                    times.begin() + static_cast<std::ptrdiff_t>(off));
        off = 0;
      }
    }
    void Clear() {
      base = 0;
      off = 0;
      times.clear();
    }
  };

  /// A state's summary of its last cloned tail (TailSummary), current
  /// while `end` equals its tail clock's end(); kNoSummary otherwise.
  static constexpr std::uint64_t kNoSummary =
      std::numeric_limits<std::uint64_t>::max();
  struct SummaryEntry {
    TailSummary summary;
    std::uint64_t end = kNoSummary;
  };

  /// True when `state`'s summary is current and `may_match` rejects it.
  bool RuledOut(std::uint32_t state, const TailSummaryFilter& may_match) const {
    const SummaryEntry& e = summaries_[state];
    return e.end == clocks_[state].end() && !may_match(e.summary);
  }

  /// Creates the snapshot scratch state on first use: same spec, sink
  /// wired once to collect raw emissions into snapshot_raw_.
  void EnsureScratch() {
    if (scratch_ != nullptr) return;
    scratch_ = algorithm_->streaming(options_.spec);
    OPERB_CHECK_MSG(scratch_ != nullptr, "streaming factory returned null");
    scratch_->SetSink([this](const traj::RepresentedSegment& seg) {
      snapshot_raw_.push_back(seg);
    });
  }

  /// Clone-finishes `s`'s live state into snapshot_tail_ (timed by the
  /// slot's tail clock) and refreshes the state's summary from it.
  void CloneTail(const Slot& s) {
    snapshot_blob_.clear();
    states_[s.state]->Serialize(&snapshot_blob_);
    EnsureScratch();
    scratch_->Reset();
    std::size_t pos = 0;
    const Status restored = scratch_->Deserialize(snapshot_blob_, &pos);
    OPERB_CHECK_MSG(restored.ok(),
                    "tail snapshot: live state failed to round-trip");
    snapshot_raw_.clear();
    scratch_->Finish();
    scratch_->Reset();
    snapshot_tail_.clear();
    snapshot_tail_.reserve(snapshot_raw_.size());
    const TailClock& clock = clocks_[s.state];
    TailSummary summary;
    summary.t_min = std::numeric_limits<double>::infinity();
    summary.t_max = -summary.t_min;
    bool finite = true;
    for (const traj::RepresentedSegment& seg : snapshot_raw_) {
      const traj::TimedSegment& t = snapshot_tail_.emplace_back(
          traj::TimedSegment{s.id, seg, clock.At(seg.first_index),
                             clock.At(seg.last_index)});
      finite = finite && std::isfinite(seg.start.x) &&
               std::isfinite(seg.start.y) && std::isfinite(seg.end.x) &&
               std::isfinite(seg.end.y) && std::isfinite(t.t_start) &&
               std::isfinite(t.t_end);
      summary.box.Extend(seg.start);
      summary.box.Extend(seg.end);
      summary.t_min = std::min(summary.t_min, t.t_start);
      summary.t_max = std::max(summary.t_max, t.t_end);
    }
    // A non-finite endpoint defeats the box arithmetic, so such a tail
    // keeps no summary and is cloned by every window snapshot.
    SummaryEntry& entry = summaries_[s.state];
    entry.summary = summary;
    entry.end = finite ? clock.end() : kNoSummary;
  }

  const StreamEngineOptions& options_;
  const api::AlgorithmRegistry::Entry* algorithm_;
  const TimedSegmentSink* sink_;
  std::atomic<std::uint64_t>* live_census_;
  std::atomic<std::uint64_t>* peak_census_;

  std::vector<Slot> slots_;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  ///< occupied + tombstone slots
  std::vector<std::unique_ptr<baselines::StreamingSimplifier>> states_;
  /// Parallel to states_.
  std::vector<TailClock> clocks_;
  std::vector<std::uint32_t> free_states_;
  /// Contiguous staging for ProcessBatch's same-id point runs (ring
  /// entries are strided Updates). Capacity-stable once warm.
  std::vector<geo::Point> run_points_;
  traj::ObjectId current_id_ = 0;
  std::uint32_t current_state_ = 0;

  /// Parallel to states_ once a snapshot has run (grown there, so the
  /// table probe and the per-point path never touch it).
  std::vector<SummaryEntry> summaries_;

  /// Tail-snapshot scratch (consumer-side, reused across snapshots).
  std::unique_ptr<baselines::StreamingSimplifier> scratch_;
  std::vector<std::uint8_t> snapshot_blob_;
  std::vector<traj::RepresentedSegment> snapshot_raw_;
  std::vector<traj::TimedSegment> snapshot_tail_;
  std::vector<const Slot*> visit_;

  /// Snapshot mailbox (Submit / ServeRequests / RefuseRequests).
  std::mutex requests_mu_;
  std::vector<TailSnapshotRequest*> requests_;  ///< guarded by requests_mu_
  bool requests_closed_ = false;                ///< guarded by requests_mu_
  /// Set while requests_ is non-empty, so an idle worker checks the
  /// mailbox with one load instead of a lock.
  std::atomic<bool> requests_pending_{false};
  std::vector<TailSnapshotRequest*> serving_;  ///< worker-side scratch

  std::uint64_t segments_ = 0;
  std::uint64_t objects_opened_ = 0;
  std::uint64_t objects_finished_ = 0;
  std::uint64_t idle_evictions_ = 0;
};

Result<std::unique_ptr<StreamEngine>> StreamEngine::Create(
    const StreamEngineOptions& options, TimedSegmentSink sink) {
  OPERB_RETURN_IF_ERROR(options.Validate());
  return std::make_unique<StreamEngine>(options, std::move(sink));
}

Status StreamEngine::Checkpoint(const std::string& path, store::Env* env) {
  if (closed()) {
    return Status::InvalidArgument("checkpoint of a closed engine");
  }
  obs::ScopedTimer write_timer(GetEngineMetrics().checkpoint_write_ns);
  obs::TraceSpan span("engine.checkpoint");
  // Drain barrier: hand every staged update to the rings, then wait for
  // each shard's processed count (released by the worker after the
  // batch) to reach the hand-off count. After it, every worker is
  // provably idle and its shard state is the deterministic function of
  // the stream prefix pushed so far — the state the snapshot captures.
  Flush();
  WaitDrained();

  std::vector<std::uint8_t> buf;
  // Byte-wise append: vector::insert from a constexpr array trips
  // GCC 12's -Wstringop-overflow false positive under -fsanitize=thread.
  for (const std::uint8_t b : kCheckpointMagic) buf.push_back(b);
  serial::PutU8(kCheckpointVersion, &buf);
  const std::string spec = options_.spec.ToString();
  serial::PutU32(static_cast<std::uint32_t>(spec.size()), &buf);
  buf.insert(buf.end(), spec.begin(), spec.end());
  serial::PutU64(options_.num_shards, &buf);
  serial::PutU64(stats_.points, &buf);
  serial::PutU64(stats_.ring_full_stalls, &buf);
  serial::PutU64(peak_live_.load(std::memory_order_relaxed), &buf);
  for (const auto& shard : shards_) shard->SerializeState(&buf);
  serial::PutU64(serial::Fnv1a64(buf), &buf);

  // Same durability discipline as a manifest commit: fully write and
  // flush a temp file, then rename — a crash anywhere leaves either the
  // previous checkpoint or none, never a torn one.
  store::Env* e = store::ResolveEnv(env);
  const std::string tmp = path + ".tmp";
  OPERB_ASSIGN_OR_RETURN(std::unique_ptr<store::WritableFile> file,
                         e->NewWritableFile(tmp));
  const Status written = [&] {
    OPERB_RETURN_IF_ERROR(file->Append(buf));
    OPERB_RETURN_IF_ERROR(file->Flush());
    return file->Close();
  }();
  if (!written.ok()) {
    (void)e->Remove(tmp);
    return written;
  }
  const Status renamed = e->Rename(tmp, path);
  if (!renamed.ok()) {
    (void)e->Remove(tmp);
    return renamed;
  }
  return Status::OK();
}

Result<std::unique_ptr<StreamEngine>> StreamEngine::CreateFromCheckpoint(
    const std::string& path, const StreamEngineOptions& options,
    TimedSegmentSink sink) {
  OPERB_RETURN_IF_ERROR(options.Validate());
  obs::ScopedTimer restore_timer(GetEngineMetrics().checkpoint_restore_ns);
  obs::TraceSpan span("engine.restore");

  // Reads go through stdio like every store read path; the Env seam
  // covers durable writes only.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open engine checkpoint " + path);
  }
  std::vector<std::uint8_t> data;
  {
    bool read_ok = std::fseek(f, 0, SEEK_END) == 0;
    const long size = read_ok ? std::ftell(f) : -1;
    read_ok = read_ok && size >= 0 && std::fseek(f, 0, SEEK_SET) == 0;
    if (read_ok) {
      data.resize(static_cast<std::size_t>(size));
      read_ok = std::fread(data.data(), 1, data.size(), f) == data.size();
    }
    std::fclose(f);
    if (!read_ok) {
      return Status::IOError("cannot read engine checkpoint " + path);
    }
  }

  // Framing first: magic, then the whole-file checksum, so every later
  // parse step runs over bytes already known to be what was written.
  if (data.size() < sizeof(kCheckpointMagic) + 1 + 8 ||
      !std::equal(kCheckpointMagic, kCheckpointMagic + 8, data.begin())) {
    return Status::Corruption("not an engine checkpoint: " + path);
  }
  const std::span<const std::uint8_t> body(data.data(), data.size() - 8);
  std::size_t tail = body.size();
  std::uint64_t stored_checksum = 0;
  serial::GetU64(data, &tail, &stored_checksum);
  if (serial::Fnv1a64(body) != stored_checksum) {
    return Status::Corruption("engine checkpoint checksum mismatch: " +
                              path);
  }

  std::size_t pos = sizeof(kCheckpointMagic);
  std::uint8_t version = 0;
  if (!serial::GetU8(body, &pos, &version)) return TruncatedCheckpoint();
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument("unsupported engine checkpoint version " +
                                   std::to_string(version));
  }
  std::uint32_t spec_len = 0;
  if (!serial::GetU32(body, &pos, &spec_len) ||
      body.size() - pos < spec_len) {
    return TruncatedCheckpoint();
  }
  const std::string spec(data.begin() + static_cast<std::ptrdiff_t>(pos),
                         data.begin() + static_cast<std::ptrdiff_t>(pos) +
                             spec_len);
  pos += spec_len;
  if (spec != options.spec.ToString()) {
    return Status::InvalidArgument(
        "checkpoint was written by " + spec + ", options resolve to " +
        options.spec.ToString());
  }
  std::uint64_t num_shards = 0;
  if (!serial::GetU64(body, &pos, &num_shards)) return TruncatedCheckpoint();
  if (num_shards != options.num_shards) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(num_shards) +
        " shards, options ask for " + std::to_string(options.num_shards) +
        " (the object partition would not line up)");
  }

  std::unique_ptr<StreamEngine> engine(
      new StreamEngine(options, std::move(sink), DeferWorkersTag{}));
  std::uint64_t peak = 0;
  if (!serial::GetU64(body, &pos, &engine->stats_.points) ||
      !serial::GetU64(body, &pos, &engine->stats_.ring_full_stalls) ||
      !serial::GetU64(body, &pos, &peak)) {
    return TruncatedCheckpoint();
  }
  engine->peak_live_.store(peak, std::memory_order_relaxed);
  for (std::size_t s = 0; s < engine->shards_.size(); ++s) {
    OPERB_RETURN_IF_ERROR(engine->shards_[s]->RestoreState(s, body, &pos));
  }
  if (pos != body.size()) {
    return Status::Corruption("engine checkpoint has trailing bytes");
  }
  // Restoring bumped the peak census if the live count momentarily
  // exceeded the checkpointed peak mid-rebuild — it cannot (the peak
  // covered these very objects), so re-assert the checkpointed value.
  engine->peak_live_.store(peak, std::memory_order_relaxed);
  GetEngineMetrics().states_restored->Add(
      engine->live_objects_.load(std::memory_order_relaxed));
  engine->StartWorkers();
  return engine;
}

StreamEngine::StreamEngine(const StreamEngineOptions& options,
                           TimedSegmentSink sink)
    : StreamEngine(options, std::move(sink), DeferWorkersTag{}) {
  StartWorkers();
}

StreamEngine::StreamEngine(const StreamEngineOptions& options,
                           TimedSegmentSink sink, DeferWorkersTag)
    : options_(options), sink_(std::move(sink)) {
  OPERB_CHECK_MSG(options_.Validate().ok(), "invalid StreamEngineOptions");
  options_.num_threads = std::min(options_.num_threads, options_.num_shards);
  // Resolve the algorithm once; shards then construct pooled states via
  // the entry's factory without going back through the registry. The
  // pointer is stable (the registry is append-only and process-lived).
  const api::AlgorithmRegistry::Entry* algorithm =
      api::AlgorithmRegistry::Global().Find(options_.spec.algorithm);
  OPERB_CHECK_MSG(algorithm != nullptr, "validated spec has no entry");
  shards_.reserve(options_.num_shards);
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(options_, algorithm, &sink_,
                                              &live_objects_, &peak_live_));
  }
  staging_.resize(options_.num_shards);
  for (auto& batch : staging_) batch.reserve(options_.producer_batch);
  pushed_ = std::vector<std::atomic<std::uint64_t>>(options_.num_shards);
}

void StreamEngine::SetTimedSink(TimedSegmentSink sink) {
  // "Before the first Push" means no update has been staged or handed
  // to a ring in THIS process — a checkpoint-restored engine carries
  // the prefix's stats_.points but is still safely sink-less until its
  // first post-restore Push.
  bool pushed_any = false;
  for (std::size_t s = 0; s < options_.num_shards; ++s) {
    pushed_any = pushed_any ||
                 pushed_[s].load(std::memory_order_relaxed) != 0 ||
                 !staging_[s].empty();
  }
  OPERB_CHECK_MSG(!pushed_any && !closed(),
                  "SetTimedSink after the first Push");
  sink_ = std::move(sink);
}

void StreamEngine::StartWorkers() {
  workers_.reserve(options_.num_threads);
  for (std::size_t t = 0; t < options_.num_threads; ++t) {
    workers_.emplace_back([this, t] { WorkerLoop(t); });
  }
}

StreamEngine::~StreamEngine() { Close(); }

std::size_t StreamEngine::ShardOf(traj::ObjectId id) const {
  return traj::ShardOfObject(id, options_.num_shards);
}

void StreamEngine::Route(std::size_t shard, const Update& u) {
  std::vector<Update>& batch = staging_[shard];
  batch.push_back(u);
  if (batch.size() >= options_.producer_batch) FlushShard(shard);
}

void StreamEngine::FlushShard(std::size_t shard) {
  std::vector<Update>& batch = staging_[shard];
  if (batch.empty()) return;
  const Update* p = batch.data();
  std::size_t left = batch.size();
  while (left > 0) {
    const std::size_t took = shards_[shard]->ring.TryPush(p, left);
    p += took;
    left -= took;
    if (left > 0) {
      // Ring full: backpressure. The consumer is guaranteed to make
      // progress, so yielding (not dropping, not growing) is sound.
      ++stats_.ring_full_stalls;
      GetEngineMetrics().backpressure_yields->Increment();
      std::this_thread::yield();
    }
  }
  pushed_[shard].fetch_add(batch.size(), std::memory_order_relaxed);
  EngineMetrics& m = GetEngineMetrics();
  m.points_routed->Add(batch.size());
  // In-flight updates in this shard's ring right now; sampled per
  // producer batch, so the high-water is a lower bound on the true
  // instantaneous peak.
  m.ring_occupancy_hwm->Observe(static_cast<std::int64_t>(
      pushed_[shard].load(std::memory_order_relaxed) -
      shards_[shard]->processed.load(std::memory_order_relaxed)));
  batch.clear();
}

void StreamEngine::Push(traj::ObjectId id, const geo::Point& p) {
  OPERB_DCHECK(!closed());
  ++stats_.points;
  Route(ShardOf(id), Update{id, p, Kind::kPoint});
}

void StreamEngine::Push(std::span<const traj::ObjectUpdate> updates) {
  for (const traj::ObjectUpdate& u : updates) Push(u.object_id, u.point);
}

void StreamEngine::FinishObject(traj::ObjectId id) {
  OPERB_DCHECK(!closed());
  Route(ShardOf(id), Update{id, geo::Point{}, Kind::kFinish});
}

void StreamEngine::Tick(double watermark) {
  OPERB_DCHECK(!closed());
  Flush();  // everything pushed before the tick must reach the rings first
  const Update tick{0, geo::Point{0.0, 0.0, watermark}, Kind::kTick};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    while (shards_[s]->ring.TryPush(&tick, 1) == 0) {
      ++stats_.ring_full_stalls;
      GetEngineMetrics().backpressure_yields->Increment();
      std::this_thread::yield();
    }
    pushed_[s].fetch_add(1, std::memory_order_relaxed);
  }
}

void StreamEngine::Flush() {
  for (std::size_t s = 0; s < staging_.size(); ++s) FlushShard(s);
}

std::uint64_t StreamEngine::RingOccupancy(std::size_t shard) const {
  OPERB_DCHECK(shard < shards_.size());
  const std::uint64_t handed = pushed_[shard].load(std::memory_order_relaxed);
  const std::uint64_t done =
      shards_[shard]->processed.load(std::memory_order_acquire);
  return handed >= done ? handed - done : 0;
}

std::size_t StreamEngine::RingCapacity() const {
  return shards_.front()->ring.capacity();
}

Status StreamEngine::SnapshotObjectTail(traj::ObjectId id,
                                        const TailSnapshotVisitor& visitor) {
  OPERB_RETURN_IF_ERROR(CheckSnapshot(visitor));
  TailSnapshotRequest req;
  req.shard = ShardOf(id);
  req.visitor = &visitor;
  req.filter = true;
  req.filter_id = id;
  return RunSnapshot(&req, 1);
}

Status StreamEngine::SnapshotWindowTails(const TailSummaryFilter& may_match,
                                         const ShardSnapshotHook& on_shard,
                                         const TailSnapshotVisitor& visitor) {
  OPERB_RETURN_IF_ERROR(CheckSnapshot(visitor));
  if (!may_match || !on_shard) {
    return Status::InvalidArgument(
        "window tail snapshot needs a filter and a shard hook");
  }
  std::vector<TailSnapshotRequest> requests(shards_.size());
  for (std::size_t s = 0; s < requests.size(); ++s) {
    requests[s].shard = s;
    requests[s].visitor = &visitor;
    requests[s].may_match = &may_match;
    requests[s].on_shard = &on_shard;
  }
  return RunSnapshot(requests.data(), requests.size());
}

Status StreamEngine::CheckSnapshot(const TailSnapshotVisitor& visitor) const {
  if (closed()) {
    return Status::InvalidArgument("tail snapshot of a closed engine");
  }
  if (!visitor) {
    return Status::InvalidArgument("tail snapshot visitor must be callable");
  }
  return Status::OK();
}

Status StreamEngine::RunSnapshot(TailSnapshotRequest* requests,
                                 std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    TailSnapshotRequest& req = requests[i];
    // Read-your-writes: an update acked to the caller before this call
    // was handed off (and counted) before the ack, so this load sees a
    // count that includes it. A relaxed load suffices: whatever ordered
    // the ack before the call also orders the count's increment before
    // this read, and the worker compares against its own counter.
    req.handed_off = pushed_[req.shard].load(std::memory_order_relaxed);
    if (!shards_[req.shard]->Submit(&req)) {
      req.refused = true;
      req.done.store(true, std::memory_order_relaxed);
    }
  }
  bool refused = false;
  for (std::size_t i = 0; i < n; ++i) {
    const TailSnapshotRequest& req = requests[i];
    for (int spins = 0; !req.done.load(std::memory_order_acquire); ++spins) {
      if (spins < kSnapshotSpinsBeforeSleep) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kSnapshotPoll);
      }
    }
    refused = refused || req.refused;
  }
  if (refused) {
    return Status::InvalidArgument("tail snapshot of a closed engine");
  }
  return Status::OK();
}

void StreamEngine::WaitDrained() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    while (shards_[s]->processed.load(std::memory_order_acquire) !=
           pushed_[s].load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(kDrainPoll);
    }
  }
}

void StreamEngine::Close() {
  if (closed()) return;
  if (workers_.empty()) {
    // A deferred engine whose restore failed before StartWorkers():
    // nothing runs, nothing is in flight, so closing is bookkeeping.
    for (const auto& shard : shards_) {
      shard->RefuseRequests();
      shard->AccumulateStats(&stats_);
    }
    stats_.peak_live_objects = peak_live_.load(std::memory_order_relaxed);
    closed_.store(true, std::memory_order_release);
    return;
  }
  Flush();
  const Update close_all{0, geo::Point{}, Kind::kCloseAll};
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    while (shards_[s]->ring.TryPush(&close_all, 1) == 0) {
      ++stats_.ring_full_stalls;
      GetEngineMetrics().backpressure_yields->Increment();
      std::this_thread::yield();
    }
    pushed_[s].fetch_add(1, std::memory_order_relaxed);
  }
  WaitDrained();
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  // Snapshot requests submitted after a worker's last mailbox check
  // would otherwise wait forever.
  for (const auto& shard : shards_) {
    shard->RefuseRequests();
    shard->AccumulateStats(&stats_);
  }
  stats_.peak_live_objects = peak_live_.load(std::memory_order_relaxed);
  closed_.store(true, std::memory_order_release);
}

const StreamEngineStats& StreamEngine::stats() const {
  OPERB_CHECK_MSG(closed(), "stats() before Close()");
  return stats_;
}

void StreamEngine::WorkerLoop(std::size_t worker_index) {
  std::vector<Update> batch(kConsumerBatch);
  int idle_spins = 0;
  for (;;) {
    bool did_work = false;
    for (std::size_t s = worker_index; s < shards_.size();
         s += options_.num_threads) {
      Shard& shard = *shards_[s];
      for (int rounds = 0; rounds < kMaxBatchesPerShard; ++rounds) {
        const std::size_t n = shard.ring.Pop(batch.data(), batch.size());
        if (n == 0) break;
        shard.ProcessBatch(batch.data(), n);
        shard.processed.fetch_add(n, std::memory_order_release);
        did_work = true;
        if (n < batch.size()) break;
      }
      shard.ServeRequests();
    }
    if (did_work) {
      idle_spins = 0;
      continue;
    }
    // Close() drains every ring before setting stop_, so an idle worker
    // seeing the flag has nothing left to process.
    if (stop_.load(std::memory_order_acquire)) break;
    if (++idle_spins <= kIdleSpinsBeforeSleep) {
      std::this_thread::yield();
    } else {
      std::this_thread::sleep_for(kIdleSleep);
    }
  }
}

}  // namespace operb::engine
