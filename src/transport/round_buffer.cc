#include "transport/round_buffer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fo/sketch_wire.h"
#include "fo/wire.h"
#include "obs/stats_feed.h"
#include "service/ingest.h"
#include "util/u64_set.h"

namespace ldpids::transport {

const char* DeliverResultName(DeliverResult result) {
  switch (result) {
    case DeliverResult::kBuffered: return "buffered";
    case DeliverResult::kEndMarker: return "end marker";
    case DeliverResult::kClosedRound: return "closed round";
    case DeliverResult::kTooLate: return "too late";
    case DeliverResult::kTooEarly: return "too early";
  }
  return "?";
}

RoundBufferStats& RoundBufferStats::operator+=(const RoundBufferStats& other) {
  buffered += other.buffered;
  end_markers += other.end_markers;
  closed_round_drops += other.closed_round_drops;
  too_late_drops += other.too_late_drops;
  too_early_drops += other.too_early_drops;
  rounds_drained += other.rounds_drained;
  packets_drained += other.packets_drained;
  deadline_flushes += other.deadline_flushes;
  duplicate_frames += other.duplicate_frames;
  masked_losses += other.masked_losses;
  return *this;
}

std::string RoundBufferStats::ToString() const {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "buffered=%llu markers=%llu drained=%llu/%llu dropped=%llu "
      "(closed=%llu late=%llu early=%llu) duplicates=%llu "
      "deadline_flushes=%llu masked_losses=%llu",
      static_cast<unsigned long long>(buffered),
      static_cast<unsigned long long>(end_markers),
      static_cast<unsigned long long>(packets_drained),
      static_cast<unsigned long long>(rounds_drained),
      static_cast<unsigned long long>(dropped()),
      static_cast<unsigned long long>(closed_round_drops),
      static_cast<unsigned long long>(too_late_drops),
      static_cast<unsigned long long>(too_early_drops),
      static_cast<unsigned long long>(duplicate_frames),
      static_cast<unsigned long long>(deadline_flushes),
      static_cast<unsigned long long>(masked_losses));
  return buf;
}

namespace {

constexpr uint64_t kNoRound = ~uint64_t{0};
// Thread-local lane cache entries (power of two). A thread delivering
// into up to this many buffers at once never leaves its fast path.
constexpr std::size_t kLaneCacheSize = 8;

std::atomic<uint64_t> next_buffer_serial{1};

// Cleared when its thread exits. A lane whose owner has exited is handed
// to the next thread that registers, so a server that starts a reader
// thread per accepted connection reuses lanes across reconnects instead
// of growing the table.
class ThreadLiveness {
 public:
  ThreadLiveness() : alive_(std::make_shared<std::atomic<bool>>(true)) {}
  ~ThreadLiveness() { alive_->store(false); }
  const std::shared_ptr<std::atomic<bool>>& token() const { return alive_; }

 private:
  std::shared_ptr<std::atomic<bool>> alive_;
};

std::shared_ptr<const std::atomic<bool>> ThisThreadLiveness() {
  static thread_local ThreadLiveness liveness;
  return liveness.token();
}

// A payload's identity, and whether this copy may count toward its round's
// completion.
struct PacketKey {
  uint64_t identity = 0;
  bool intact = true;
};

// Both envelopes that carry an identity field (fo/wire.h reports,
// fo/sketch_wire.h partials) end in a checksum of everything before it.
bool TrailingChecksumOk(const uint8_t* data, std::size_t size) {
  return size >= 4 &&
         WireChecksum(data, size - 4) == GetU32Le(data + size - 4);
}

// A payload whose identity is read from an envelope field is intact only
// if its envelope checksum passes — a corrupt copy keeps that field, so it
// must not stand in for its genuine packet. An identity hashed from the
// raw bytes is its own proof.
PacketKey IdentifyPacket(const uint8_t* data, std::size_t size) {
  uint64_t nonce = 0;
  if (PeekWireNonce(data, size, &nonce)) {
    // Well-formed envelope prefix: the user nonce is the packet's logical
    // identity (retransmitted copies share it even if other bytes were
    // corrupted in one copy).
    return {nonce, TrailingChecksumOk(data, size)};
  }
  uint64_t node_id = 0;
  if (PeekPartialSketchNodeId(data, size, &node_id)) {
    // Partial-sketch payload: the emitting aggregator is the identity, so
    // a node's re-sent partial counts once toward completion while two
    // nodes' byte-identical partials (e.g. zero-report rounds) stay
    // distinct. SplitMix-step the id so small node indexes cannot collide
    // with small user nonces in a buffer that sees both kinds.
    uint64_t z = node_id + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return {z ^ (z >> 31), TrailingChecksumOk(data, size)};
  }
  // Too mangled to carry a nonce: fall back to the raw bytes (FNV-1a).
  // Byte-identical re-deliveries still collapse; distinct corrupted
  // packets stay distinct.
  uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash = (hash ^ data[i]) * 0x100000001b3ull;
  }
  return {hash, true};
}

void CountDrop(DeliverResult result, RoundBufferStats* stats) {
  switch (result) {
    case DeliverResult::kClosedRound: ++stats->closed_round_drops; break;
    case DeliverResult::kTooLate: ++stats->too_late_drops; break;
    case DeliverResult::kTooEarly: ++stats->too_early_drops; break;
    default: break;
  }
}

}  // namespace

uint64_t PacketIdentity(const uint8_t* data, std::size_t size) {
  return IdentifyPacket(data, size).identity;
}

// One lane's share of one round. Once its round drains, a slot is reused
// for a later round, sized from the round it last held. Its tables go
// with the drained round instead of staying pinned: a buffer that
// outlives its traffic keeps only empty slots.
struct RoundBuffer::LaneRound {
  enum class Outcome : uint8_t { kCounted, kDuplicate, kUncounted };

  uint64_t round = kNoRound;  // kNoRound: free
  std::vector<PayloadRef> packets;
  // Identities counted toward completion.
  U64Set counted;
  // Identities of checksum-failed copies not counted when they arrived.
  std::vector<uint64_t> uncounted;
  std::size_t reserve_hint = 0;  // packets the slot's previous round held

  void Open(uint64_t r) {
    round = r;
    uncounted.clear();
    packets.reserve(reserve_hint);
    counted.Reserve(reserve_hint);
  }

  Outcome Classify(const PacketKey& key) {
    if (key.intact) {
      return counted.Insert(key.identity) ? Outcome::kCounted
                                          : Outcome::kDuplicate;
    }
    if (counted.Contains(key.identity)) return Outcome::kDuplicate;
    uncounted.push_back(key.identity);
    return Outcome::kUncounted;
  }

  // Copies of an identity this slot had already counted.
  uint64_t local_duplicates() const {
    return packets.size() - counted.size() - uncounted.size();
  }
};

struct alignas(64) RoundBuffer::Lane {
  std::mutex mu;
  // The owning thread's liveness (ThisThreadLiveness); under the buffer
  // mutex.
  std::shared_ptr<const std::atomic<bool>> owner;
  std::vector<std::unique_ptr<LaneRound>> slots;
  LaneRound* last = nullptr;  // slot of the previous delivery
  // buffered and the admission drops of data frames; duplicates are read
  // off the slots (LaneRound::local_duplicates) and move to the buffer's
  // stats when their round drains.
  RoundBufferStats stats;

  LaneRound& SlotFor(uint64_t round) {
    if (last != nullptr && last->round == round) return *last;
    LaneRound* free_slot = nullptr;
    for (const auto& slot : slots) {
      if (slot->round == round) return *(last = slot.get());
      if (slot->round == kNoRound && free_slot == nullptr) {
        free_slot = slot.get();
      }
    }
    if (free_slot == nullptr) {
      slots.push_back(std::make_unique<LaneRound>());
      free_slot = slots.back().get();
    }
    free_slot->Open(round);
    return *(last = free_slot);
  }
};

struct RoundBuffer::RoundCount {
  bool marker_seen = false;
  uint64_t expected = 0;
  uint64_t arrivals = 0;  // raw buffered copies
  uint64_t counted = 0;   // sum of the lanes' counted identities
  // Identities counted on more than one lane; valid when repeats_known.
  uint64_t cross_lane_repeats = 0;
  bool repeats_known = false;
  bool complete = false;
};

RoundBuffer::RoundBuffer(RoundBufferOptions options)
    : options_(options),
      serial_(next_buffer_serial.fetch_add(1, std::memory_order_relaxed)),
      watch_round_(kNoRound) {}

RoundBuffer::~RoundBuffer() = default;

void RoundBuffer::AttachMetrics(obs::MetricsRegistry* registry,
                                const std::string& label) {
  obs::Labels labels;
  if (!label.empty()) labels.emplace_back("session", label);
  std::lock_guard<std::mutex> lock(mu_);
  metrics_feed_ =
      std::make_unique<obs::RoundBufferStatsFeed>(registry, labels);
}

RoundBuffer::Lane& RoundBuffer::LocalLane() {
  struct CachedLane {
    uint64_t serial = 0;
    Lane* lane = nullptr;
  };
  static thread_local CachedLane cache[kLaneCacheSize];
  CachedLane& entry = cache[serial_ & (kLaneCacheSize - 1)];
  if (entry.serial != serial_) entry = {serial_, RegisterLane()};
  return *entry.lane;
}

RoundBuffer::Lane* RoundBuffer::RegisterLane() {
  std::shared_ptr<const std::atomic<bool>> self = ThisThreadLiveness();
  std::lock_guard<std::mutex> lock(mu_);
  Lane* orphan = nullptr;
  for (const auto& lane : lanes_) {
    if (lane->owner == self) return lane.get();
    if (orphan == nullptr && !lane->owner->load()) orphan = lane.get();
  }
  if (orphan == nullptr) {
    lanes_.push_back(std::make_unique<Lane>());
    orphan = lanes_.back().get();
  }
  // An exited thread's lane keeps whatever it buffered; its new owner
  // appends behind it, so arrival order within the lane still holds.
  orphan->owner = std::move(self);
  return orphan;
}

DeliverResult RoundBuffer::Admit(uint64_t round) const {
  const uint64_t next = next_round_.load();
  if (round < next) return DeliverResult::kClosedRound;
  if (round + options_.max_lateness <
      newest_round_.load(std::memory_order_relaxed)) {
    return DeliverResult::kTooLate;
  }
  if (round >= next + options_.max_buffered_rounds) {
    return DeliverResult::kTooEarly;
  }
  return DeliverResult::kBuffered;
}

void RoundBuffer::AdvanceNewestRound(uint64_t round) {
  // Only an *admitted* frame advances the lateness clock — a single forged
  // far-future round index must not poison the watermark and starve every
  // legitimate round behind it.
  uint64_t seen = newest_round_.load(std::memory_order_relaxed);
  while (round > seen && !newest_round_.compare_exchange_weak(
                             seen, round, std::memory_order_relaxed)) {
  }
}

DeliverResult RoundBuffer::Deliver(Frame&& frame) {
  if (frame.kind == FrameKind::kEndRound) return DeliverMarker(frame);
  const uint64_t round = frame.timestamp;
  Lane& lane = LocalLane();
  // The identity and the checksum verdict depend only on the frame bytes
  // — computed before taking the lane lock (a wasted hash on the rare
  // dropped frame is the cheaper side).
  const PacketKey key =
      IdentifyPacket(frame.payload.data(), frame.payload.size());
  DeliverResult result = Admit(round);
  LaneRound::Outcome outcome = LaneRound::Outcome::kDuplicate;
  {
    std::lock_guard<std::mutex> lock(lane.mu);
    // Re-checked under the lane lock: TakeRound closes a round before it
    // empties the lanes, so a delivery racing the drain lands here.
    if (result == DeliverResult::kBuffered && round < next_round_.load()) {
      result = DeliverResult::kClosedRound;
    }
    if (result != DeliverResult::kBuffered) {
      CountDrop(result, &lane.stats);
      return result;
    }
    AdvanceNewestRound(round);
    LaneRound& slot = lane.SlotFor(round);
    // Duplicates are still buffered — the ingest edge owns exact
    // per-round duplicate rejection (by nonce) and its acceptance
    // accounting — but only the first counted copy advances completion.
    slot.packets.push_back(std::move(frame.payload));
    outcome = slot.Classify(key);
    ++lane.stats.buffered;
  }
  if (outcome == LaneRound::Outcome::kCounted) NoteCountedArrival(round);
  return DeliverResult::kBuffered;
}

DeliverResult RoundBuffer::DeliverMarker(const Frame& frame) {
  const uint64_t round = frame.timestamp;
  std::lock_guard<std::mutex> lock(mu_);
  // next_round_ only moves under mu_, so a marker is never armed for a
  // round that has drained.
  const DeliverResult result = Admit(round);
  if (result != DeliverResult::kBuffered) {
    CountDrop(result, &stats_);
    return result;
  }
  AdvanceNewestRound(round);
  ++stats_.end_markers;
  if (markers_.emplace(round, EndRoundExpected(frame)).second) {
    dirty_ = true;
    complete_cv_.notify_all();
  }
  return DeliverResult::kEndMarker;
}

void RoundBuffer::NoteCountedArrival(uint64_t round) {
  if (watch_round_.load() != round) return;
  if (need_.fetch_sub(1) != 1) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dirty_ = true;
  }
  complete_cv_.notify_all();
}

std::vector<RoundBuffer::LaneRound*> RoundBuffer::SlotsOf(
    uint64_t round) const {
  std::vector<LaneRound*> found;
  for (const auto& lane : lanes_) {
    for (const auto& slot : lane->slots) {
      if (slot->round == round) found.push_back(slot.get());
    }
  }
  return found;
}

namespace {

// Identities counted in more than one of `sets`: completion counts their
// union, sum(size) - repeats.
uint64_t CrossLaneRepeats(const std::vector<const U64Set*>& sets) {
  uint64_t repeats = 0;
  for (std::size_t j = 1; j < sets.size(); ++j) {
    sets[j]->ForEach([&](uint64_t id) {
      for (std::size_t i = 0; i < j; ++i) {
        if (sets[i]->Contains(id)) {
          ++repeats;
          return;
        }
      }
    });
  }
  return repeats;
}

// Uncounted copies whose identity some lane counted, or that an earlier
// uncounted copy already carried.
uint64_t UncountedRepeats(const std::vector<const U64Set*>& sets,
                          const std::vector<const std::vector<uint64_t>*>&
                              uncounted) {
  uint64_t repeats = 0;
  U64Set seen;
  for (const std::vector<uint64_t>* ids : uncounted) {
    for (uint64_t id : *ids) {
      bool counted = seen.Contains(id);
      for (std::size_t i = 0; !counted && i < sets.size(); ++i) {
        counted = sets[i]->Contains(id);
      }
      if (counted) {
        ++repeats;
      } else {
        seen.Insert(id);
      }
    }
  }
  return repeats;
}

}  // namespace

RoundBuffer::RoundCount RoundBuffer::CountRound(
    uint64_t round, const std::vector<LaneRound*>& slots) {
  RoundCount count;
  for (LaneRound* slot : slots) {
    count.arrivals += slot->packets.size();
    count.counted += slot->counted.size();
  }
  const auto marker = markers_.find(round);
  if (marker == markers_.end()) return count;
  count.marker_seen = true;
  count.expected = marker->second;
  uint64_t distinct = count.counted;
  if (distinct >= count.expected && slots.size() > 1) {
    std::vector<const U64Set*> sets;
    for (LaneRound* slot : slots) sets.push_back(&slot->counted);
    count.cross_lane_repeats = CrossLaneRepeats(sets);
    count.repeats_known = true;
    distinct -= count.cross_lane_repeats;
  }
  count.complete = distinct >= count.expected;
  if (!count.complete) {
    // Every counted arrival adds at most one distinct identity, so the
    // round cannot complete before this many more land. Set under every
    // lane lock: later deliveries see both stores.
    need_.store(static_cast<int64_t>(count.expected - distinct));
    watch_round_.store(round);
  }
  return count;
}

std::vector<PayloadRef> RoundBuffer::TakeRound(uint64_t round) {
  // Moved out under the locks, freed after them.
  std::vector<std::vector<PayloadRef>> parts;
  std::vector<U64Set> retired;
  RoundBufferStats published;
  std::size_t pending = 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (round != next_round_.load()) {
    throw std::logic_error("rounds must be taken strictly in order");
  }
  const auto deadline =
      std::chrono::steady_clock::now() + options_.round_deadline;
  bool timed_out = false;
  for (;;) {
    dirty_ = false;
    std::vector<std::unique_lock<std::mutex>> lane_locks;
    lane_locks.reserve(lanes_.size());
    for (const auto& lane : lanes_) lane_locks.emplace_back(lane->mu);
    const std::vector<LaneRound*> slots = SlotsOf(round);
    const RoundCount count = CountRound(round, slots);
    if (!count.complete && !timed_out) {
      lane_locks.clear();
      timed_out = !complete_cv_.wait_until(lock, deadline,
                                           [&] { return dirty_; });
      continue;
    }
    if (!count.complete) {
      ++stats_.deadline_flushes;
      if (count.marker_seen && count.arrivals >= count.expected) {
        // Raw arrivals reached the announced count but distinct ones did
        // not: a duplicate masked a genuine loss. The pre-distinct
        // accounting released this round as "complete".
        ++stats_.masked_losses;
      }
    }
    // Close the round first: a delivery that takes its lane lock after
    // this point sees it closed.
    next_round_.store(round + 1);
    watch_round_.store(kNoRound);
    markers_.erase(round);
    std::vector<const U64Set*> sets;
    std::vector<const std::vector<uint64_t>*> uncounted;
    for (LaneRound* slot : slots) {
      stats_.duplicate_frames += slot->local_duplicates();
      sets.push_back(&slot->counted);
      if (!slot->uncounted.empty()) uncounted.push_back(&slot->uncounted);
    }
    if (slots.size() > 1) {
      stats_.duplicate_frames += count.repeats_known ? count.cross_lane_repeats
                                                     : CrossLaneRepeats(sets);
    }
    if (!uncounted.empty()) {
      stats_.duplicate_frames += UncountedRepeats(sets, uncounted);
    }
    parts.reserve(slots.size());
    retired.reserve(slots.size());
    for (LaneRound* slot : slots) {
      slot->reserve_hint = slot->packets.size();
      parts.push_back(std::exchange(slot->packets, {}));
      retired.push_back(std::exchange(slot->counted, U64Set()));
      slot->round = kNoRound;
    }
    ++stats_.rounds_drained;
    stats_.packets_drained += count.arrivals;
    if (metrics_feed_ != nullptr) {
      published = StatsLocked();
      pending = PendingRoundsLocked();
    }
    break;
  }
  if (metrics_feed_ != nullptr) {
    // Once per drained round, still under mu_: per-frame delivery stays
    // untouched and only the draining side pays the publication.
    metrics_feed_->Publish(published);
    metrics_feed_->SetPending(pending);
  }
  lock.unlock();

  // Lanes are concatenated in registration order, outside every lock.
  if (parts.empty()) return {};
  std::vector<PayloadRef> packets = std::move(parts[0]);
  if (parts.size() > 1) {
    std::size_t total = 0;
    for (const auto& part : parts) total += part.size();
    packets.reserve(total);
    for (std::size_t i = 1; i < parts.size(); ++i) {
      packets.insert(packets.end(), std::make_move_iterator(parts[i].begin()),
                     std::make_move_iterator(parts[i].end()));
    }
  }
  return packets;
}

uint64_t RoundBuffer::next_round() const { return next_round_.load(); }

std::size_t RoundBuffer::PendingRoundsLocked() const {
  std::vector<uint64_t> rounds;
  for (const auto& marker : markers_) rounds.push_back(marker.first);
  for (const auto& lane : lanes_) {
    for (const auto& slot : lane->slots) {
      if (slot->round != kNoRound) rounds.push_back(slot->round);
    }
  }
  std::sort(rounds.begin(), rounds.end());
  return static_cast<std::size_t>(
      std::unique(rounds.begin(), rounds.end()) - rounds.begin());
}

RoundBufferStats RoundBuffer::StatsLocked() const {
  RoundBufferStats total = stats_;
  for (const auto& lane : lanes_) {
    total += lane->stats;
    for (const auto& slot : lane->slots) {
      if (slot->round != kNoRound) {
        total.duplicate_frames += slot->local_duplicates();
      }
    }
  }
  return total;
}

std::size_t RoundBuffer::pending_rounds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_lock<std::mutex>> lane_locks;
  for (const auto& lane : lanes_) lane_locks.emplace_back(lane->mu);
  return PendingRoundsLocked();
}

std::size_t RoundBuffer::lane_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lanes_.size();
}

RoundBufferStats RoundBuffer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::unique_lock<std::mutex>> lane_locks;
  for (const auto& lane : lanes_) lane_locks.emplace_back(lane->mu);
  return StatsLocked();
}

void FrameDemux::Register(uint64_t session_id, RoundBuffer* buffer) {
  if (buffer == nullptr) {
    throw std::invalid_argument("demux needs a buffer");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!buffers_.emplace(session_id, buffer).second) {
    throw std::invalid_argument("session id already registered");
  }
}

void FrameDemux::Deliver(Frame&& frame) {
  RoundBuffer* buffer = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = buffers_.find(frame.session_id);
    if (it == buffers_.end()) {
      ++unknown_session_drops_;
      return;
    }
    buffer = it->second;
  }
  buffer->Deliver(std::move(frame));
}

FrameHandler FrameDemux::Handler() {
  return [this](Frame&& frame) { Deliver(std::move(frame)); };
}

uint64_t FrameDemux::unknown_session_drops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return unknown_session_drops_;
}

service::RoundTransport MakeBufferedTransport(RoundBuffer& buffer,
                                              AnnounceFn announce,
                                              std::size_t num_threads) {
  return [&buffer, announce = std::move(announce), num_threads](
             const service::RoundRequest& request,
             service::ReportRouter& router) {
    if (announce) announce(request);
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
}

service::SplitRoundTransport MakeBufferedSplitTransport(
    RoundBuffer& buffer, AnnounceFn announce, std::size_t num_threads) {
  service::SplitRoundTransport split;
  split.announce = std::move(announce);
  split.ingest = [&buffer, num_threads](const service::RoundRequest& request,
                                        service::ReportRouter& router) {
    router.IngestBatch(buffer.TakeRound(request.round_index), num_threads);
  };
  return split;
}

void SendRoundFrames(FrameSender& sender, uint64_t session_id,
                     uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets) {
  SendRoundFrames(std::vector<FrameSender*>{&sender}, session_id, round,
                  packets);
}

void SendRoundFrames(const std::vector<FrameSender*>& senders,
                     uint64_t session_id, uint64_t round,
                     const std::vector<std::vector<uint8_t>>& packets) {
  if (senders.empty()) {
    throw std::invalid_argument("SendRoundFrames needs at least one sender");
  }
  for (FrameSender* sender : senders) {
    if (sender == nullptr) {
      throw std::invalid_argument("SendRoundFrames got a null sender");
    }
  }
  // Counted by the receiver's rule: a packet corrupted before it was sent
  // counts toward the marker only if an intact copy of it is sent too.
  U64Set identities;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const std::vector<uint8_t>& packet = packets[i];
    const PacketKey key = IdentifyPacket(packet.data(), packet.size());
    if (key.intact) identities.Insert(key.identity);
    senders[i % senders.size()]->Send(
        MakeDataFrame(session_id, round, packet));
  }
  // Every connection is flushed before the single whole-round marker goes
  // out on senders[0]. The marker could legally race data still in flight
  // on other connections — the RoundBuffer waits for the announced count
  // regardless of arrival order — but flushing first keeps the common case
  // "marker last", so deadline flushes only happen on real loss.
  for (FrameSender* sender : senders) sender->Flush();
  senders[0]->Send(
      MakeEndRoundFrame(session_id, round, identities.size()));
  senders[0]->Flush();
}

void SendPartialSketch(FrameSender& sender, uint64_t session_id,
                       uint64_t round, std::vector<uint8_t> payload) {
  sender.Send(MakePartialSketchFrame(session_id, round, std::move(payload)));
  sender.Flush();
}

}  // namespace ldpids::transport
