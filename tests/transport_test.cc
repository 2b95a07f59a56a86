// The network transport subsystem (src/transport/): frame codec, streaming
// decoder, loopback socket + batch-file transports, and the out-of-order
// RoundBuffer in front of the sharded ingest.
//
// The acceptance pin: a MechanismSession driven over the loopback socket
// with shuffled + late (after the end-of-round marker) + duplicated
// delivery produces releases bit-identical to the in-process transport for
// all 5 oracles, and a batch-file replay of the recorded frames reproduces
// them again.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factory.h"
#include "core/mechanism.h"
#include "fo/wire.h"
#include "service/client_fleet.h"
#include "service/session.h"
#include "transport/batch_file.h"
#include "transport/frame.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/histogram.h"
#include "util/rng.h"

namespace ldpids {
namespace {

using service::ClientFleet;
using service::MechanismSession;
using service::ReportRouter;
using service::RoundRequest;
using service::SessionOptions;
using transport::DeliverResult;
using transport::Frame;
using transport::FrameDecoder;
using transport::FrameDemux;
using transport::FrameKind;
using transport::FrameLogWriter;
using transport::FrameSender;
using transport::FrameStats;
using transport::MakeBufferedTransport;
using transport::MakeDataFrame;
using transport::MakeEndRoundFrame;
using transport::RoundBuffer;
using transport::RoundBufferOptions;
using transport::SendRoundFrames;
using transport::SocketClient;
using transport::SocketListener;

constexpr std::size_t kDomain = 10;
constexpr double kEpsilon = 1.0;
constexpr uint64_t kSessionId = 0xA11CE;

uint32_t TruthValue(uint64_t user, std::size_t t) {
  return static_cast<uint32_t>((user + 3 * t) % kDomain);
}

MechanismConfig SessionConfig(const std::string& fo) {
  MechanismConfig c;
  c.epsilon = kEpsilon;
  c.window = 4;
  c.fo = fo;
  c.seed = 91;
  return c;
}

// --- frame codec ----------------------------------------------------------

TEST(FrameCodecTest, DataFrameRoundTrips) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const Frame frame = MakeDataFrame(7, 42, payload);
  const auto bytes = transport::EncodeFrame(frame);
  EXPECT_EQ(bytes.size(), transport::EncodedFrameSize(payload.size()));

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(transport::TryDecodeFrame(bytes.data(), bytes.size(), &decoded,
                                      &consumed),
            transport::FrameError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.session_id, 7u);
  EXPECT_EQ(decoded.timestamp, 42u);
  EXPECT_EQ(decoded.kind, FrameKind::kData);
  EXPECT_EQ(decoded.payload, payload);
}

TEST(FrameCodecTest, EndRoundMarkerCarriesTheExpectedCount) {
  const Frame marker = MakeEndRoundFrame(9, 3, 12345);
  EXPECT_EQ(transport::EndRoundExpected(marker), 12345u);
  const auto bytes = transport::EncodeFrame(marker);
  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(transport::TryDecodeFrame(bytes.data(), bytes.size(), &decoded,
                                      &consumed),
            transport::FrameError::kOk);
  EXPECT_EQ(decoded.kind, FrameKind::kEndRound);
  EXPECT_EQ(transport::EndRoundExpected(decoded), 12345u);
  EXPECT_THROW(transport::EndRoundExpected(MakeDataFrame(1, 1, {})),
               std::invalid_argument);
}

TEST(FrameCodecTest, OversizePayloadIsRejectedAtBothEnds) {
  Frame frame = MakeDataFrame(1, 1, {});
  frame.payload = std::vector<uint8_t>(transport::kMaxFramePayload + 1);
  std::vector<uint8_t> out;
  EXPECT_THROW(transport::AppendEncodedFrame(frame, &out),
               std::invalid_argument);

  // A forged length field above the cap must be a typed reject, not an
  // attempted 4 GiB allocation.
  auto bytes = transport::EncodeFrame(MakeDataFrame(1, 1, {9, 9, 9}));
  bytes[22] = 0xFF;  // payload length bytes 20-23
  Frame decoded;
  std::size_t consumed = 0;
  EXPECT_EQ(transport::TryDecodeFrame(bytes.data(), bytes.size(), &decoded,
                                      &consumed),
            transport::FrameError::kOversize);
}

TEST(FrameCodecTest, AppendingAWholeRoundGrowsGeometrically) {
  // Regression: AppendEncodedFrame used to reserve exactly one more
  // frame, so appending a round to one vector reallocated on every frame.
  std::vector<uint8_t> stream;
  std::vector<uint8_t> expected;
  std::size_t capacity_changes = 0;
  std::size_t capacity = stream.capacity();
  for (uint64_t i = 0; i < 10000; ++i) {
    const Frame frame = MakeDataFrame(
        3, 7, {static_cast<uint8_t>(i), static_cast<uint8_t>(i >> 8), 42});
    transport::AppendEncodedFrame(frame, &stream);
    const auto one = transport::EncodeFrame(frame);
    expected.insert(expected.end(), one.begin(), one.end());
    if (stream.capacity() != capacity) {
      capacity = stream.capacity();
      ++capacity_changes;
    }
  }
  EXPECT_EQ(stream, expected);
  // log2(10000 frames * 31 B) is about 18.
  EXPECT_LE(capacity_changes, 24u);
}

TEST(FrameDecoderTest, SplitAndMergedReadsYieldTheSameFrames) {
  std::vector<Frame> sent;
  std::vector<uint8_t> stream;
  Rng rng(11);
  for (uint64_t i = 0; i < 40; ++i) {
    std::vector<uint8_t> payload(rng.UniformInt(60));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());
    sent.push_back(MakeDataFrame(i % 3, i, payload));
    transport::AppendEncodedFrame(sent.back(), &stream);
  }

  // Byte-by-byte, all-at-once, and random chunk sizes must all reassemble
  // the identical frame sequence.
  for (int mode = 0; mode < 3; ++mode) {
    FrameDecoder decoder;
    std::size_t fed = 0;
    std::size_t count = 0;
    Frame frame;
    Rng chunk_rng(mode);
    while (fed < stream.size()) {
      std::size_t n = mode == 0   ? 1
                      : mode == 1 ? stream.size()
                                  : 1 + chunk_rng.UniformInt(97);
      n = std::min(n, stream.size() - fed);
      decoder.Append(stream.data() + fed, n);
      fed += n;
      while (decoder.Next(&frame)) {
        ASSERT_LT(count, sent.size());
        EXPECT_EQ(frame.session_id, sent[count].session_id);
        EXPECT_EQ(frame.timestamp, sent[count].timestamp);
        EXPECT_EQ(frame.payload, sent[count].payload);
        ++count;
      }
    }
    EXPECT_EQ(count, sent.size()) << "mode " << mode;
    EXPECT_EQ(decoder.stats().frames, sent.size());
    EXPECT_EQ(decoder.stats().errors(), 0u);
    EXPECT_EQ(decoder.pending_bytes(), 0u);
  }
}

TEST(FrameDecoderTest, ResynchronizesPastCorruptionAndCountsIt) {
  std::vector<uint8_t> stream;
  for (uint64_t i = 0; i < 10; ++i) {
    transport::AppendEncodedFrame(MakeDataFrame(1, i, {1, 2, 3}), &stream);
  }
  const std::size_t frame_size = transport::EncodedFrameSize(3);
  // Corrupt one byte inside frame 4's payload.
  stream[4 * frame_size + 25] ^= 0xFF;

  FrameDecoder decoder;
  decoder.Append(stream);
  Frame frame;
  std::vector<uint64_t> timestamps;
  while (decoder.Next(&frame)) timestamps.push_back(frame.timestamp);
  // Every frame except the corrupted one survives.
  EXPECT_EQ(timestamps,
            (std::vector<uint64_t>{0, 1, 2, 3, 5, 6, 7, 8, 9}));
  EXPECT_GT(decoder.stats().errors(), 0u);
  EXPECT_GT(decoder.stats().skipped_bytes, 0u);
}

// --- round buffer ---------------------------------------------------------

std::vector<std::vector<uint8_t>> FakePackets(std::size_t n, uint8_t tag) {
  std::vector<std::vector<uint8_t>> packets;
  for (std::size_t i = 0; i < n; ++i) {
    packets.push_back({tag, static_cast<uint8_t>(i)});
  }
  return packets;
}

TEST(RoundBufferTest, EarlyRoundsAreHeldUntilTheirTurn) {
  RoundBuffer buffer;
  // Round 1 arrives completely before round 0.
  for (auto& p : FakePackets(3, 1)) {
    EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 1, std::move(p))),
              DeliverResult::kBuffered);
  }
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 1, 3)),
            DeliverResult::kEndMarker);
  for (auto& p : FakePackets(2, 0)) {
    buffer.Deliver(MakeDataFrame(0, 0, std::move(p)));
  }
  buffer.Deliver(MakeEndRoundFrame(0, 0, 2));

  EXPECT_EQ(buffer.TakeRound(0), FakePackets(2, 0));
  EXPECT_EQ(buffer.TakeRound(1), FakePackets(3, 1));
  EXPECT_EQ(buffer.next_round(), 2u);
  EXPECT_EQ(buffer.stats().rounds_drained, 2u);
  EXPECT_EQ(buffer.stats().packets_drained, 5u);
  EXPECT_EQ(buffer.stats().dropped(), 0u);
}

TEST(RoundBufferTest, StragglersAfterTheMarkerStillCount) {
  // The marker announces 3 distinct packets but arrives first
  // (marker-before-data); the round is complete only once all 3 land.
  RoundBuffer buffer;
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 0, 3)),
            DeliverResult::kEndMarker);
  EXPECT_EQ(buffer.pending_rounds(), 1u);
  auto packets = FakePackets(3, 0);
  for (auto& p : packets) {
    buffer.Deliver(MakeDataFrame(0, 0, std::move(p)));
  }
  EXPECT_EQ(buffer.TakeRound(0), FakePackets(3, 0));
  EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);
}

TEST(RoundBufferTest, DuplicateCannotMaskALostPacket) {
  // Regression for the completion accounting: the sender announces 3
  // distinct packets; the network duplicates one and loses another, so 3
  // raw frames arrive but only 2 distinct packets. Counting raw arrivals
  // (the old logic) released the round as "complete" while silently
  // missing a real packet — completion must count identities.
  RoundBufferOptions options;
  options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer buffer(options);
  auto packets = FakePackets(3, 0);  // A, B, C
  buffer.Deliver(MakeEndRoundFrame(0, 0, 3));
  buffer.Deliver(MakeDataFrame(0, 0, std::vector<uint8_t>(packets[0])));
  buffer.Deliver(MakeDataFrame(0, 0, std::vector<uint8_t>(packets[0])));
  buffer.Deliver(MakeDataFrame(0, 0, std::vector<uint8_t>(packets[1])));
  // C never arrives. The round must NOT complete; the deadline flush hands
  // back the partial round and counts the masked loss.
  const auto drained = buffer.TakeRound(0);
  EXPECT_EQ(drained.size(), 3u);  // A, dup(A), B — all buffered frames
  EXPECT_EQ(buffer.stats().deadline_flushes, 1u);
  EXPECT_EQ(buffer.stats().masked_losses, 1u);
  EXPECT_EQ(buffer.stats().duplicate_frames, 1u);

  // Same delivery plus the "lost" packet: completes without any flush.
  buffer.Deliver(MakeEndRoundFrame(0, 1, 3));
  for (int copy = 0; copy < 2; ++copy) {
    buffer.Deliver(MakeDataFrame(0, 1, std::vector<uint8_t>(packets[0])));
  }
  buffer.Deliver(MakeDataFrame(0, 1, std::vector<uint8_t>(packets[1])));
  buffer.Deliver(MakeDataFrame(0, 1, std::vector<uint8_t>(packets[2])));
  EXPECT_EQ(buffer.TakeRound(1).size(), 4u);
  EXPECT_EQ(buffer.stats().deadline_flushes, 1u);  // unchanged
  EXPECT_EQ(buffer.stats().masked_losses, 1u);     // unchanged
}

TEST(RoundBufferTest, MarkerForClosedRoundIsATypedDropNotAFreshRound) {
  // Regression: an end-of-round marker for an already-drained round must
  // be counted as kClosedRound, never armed as a fresh PendingRound that
  // pins memory forever.
  RoundBuffer buffer;
  buffer.Deliver(MakeDataFrame(0, 0, {1}));
  buffer.Deliver(MakeEndRoundFrame(0, 0, 1));
  EXPECT_EQ(buffer.TakeRound(0).size(), 1u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);

  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 0, 7)),
            DeliverResult::kClosedRound);
  EXPECT_EQ(buffer.stats().closed_round_drops, 1u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);
}

TEST(RoundBufferTest, MarkerOutsideTheAdmissionWindowArmsNoState) {
  RoundBufferOptions options;
  options.max_lateness = 2;
  options.max_buffered_rounds = 8;
  RoundBuffer buffer(options);

  // A marker beyond max_buffered_rounds is a typed drop, not a pinned
  // pending round.
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 8, 5)),
            DeliverResult::kTooEarly);
  EXPECT_EQ(buffer.stats().too_early_drops, 1u);
  EXPECT_EQ(buffer.pending_rounds(), 0u);

  // Establish round 5 as the newest traffic, then a marker too far behind
  // it is a kTooLate drop with no state armed for its round.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 5, {1})),
            DeliverResult::kBuffered);
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 2, 1)),
            DeliverResult::kTooLate);
  EXPECT_EQ(buffer.stats().too_late_drops, 1u);
  EXPECT_EQ(buffer.pending_rounds(), 1u);  // only round 5's data
}

TEST(RoundBufferTest, WatermarkPolicyDropsWithTypedReasons) {
  RoundBufferOptions options;
  options.max_lateness = 2;
  options.max_buffered_rounds = 8;
  RoundBuffer buffer(options);

  // Establish round 5 as the newest traffic.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 5, {1})),
            DeliverResult::kBuffered);
  // 3 + 2 >= 5: still inside the lateness window.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 3, {1})),
            DeliverResult::kBuffered);
  // 2 + 2 < 5: too far behind live traffic.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 2, {1})),
            DeliverResult::kTooLate);
  // 8 >= 0 + 8: too far ahead of the next round to drain.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 8, {1})),
            DeliverResult::kTooEarly);

  EXPECT_EQ(buffer.stats().too_late_drops, 1u);
  EXPECT_EQ(buffer.stats().too_early_drops, 1u);
  EXPECT_EQ(buffer.stats().buffered, 2u);
}

TEST(RoundBufferTest, DeadlineFlushReturnsPartialRoundAndClosesIt) {
  RoundBufferOptions options;
  options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer buffer(options);
  buffer.Deliver(MakeDataFrame(0, 0, {7}));
  // No marker ever arrives: the deadline flushes the partial round.
  const auto packets = buffer.TakeRound(0);
  ASSERT_EQ(packets.size(), 1u);
  EXPECT_EQ(packets[0], std::vector<uint8_t>{7});
  EXPECT_EQ(buffer.stats().deadline_flushes, 1u);
  // The round is now closed: re-delivery is a typed drop.
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 0, {8})),
            DeliverResult::kClosedRound);
  EXPECT_EQ(buffer.stats().closed_round_drops, 1u);
}

TEST(RoundBufferTest, RejectedFarFutureFrameDoesNotPoisonTheWatermark) {
  // Regression: a single forged frame with a huge round index must not
  // advance the lateness clock — only admitted frames move it, so
  // legitimate traffic keeps flowing after the hostile frame is dropped.
  RoundBufferOptions options;
  options.max_lateness = 2;
  options.max_buffered_rounds = 8;
  RoundBuffer buffer(options);
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 1u << 30, {9})),
            DeliverResult::kTooEarly);
  EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, 0, {1})),
            DeliverResult::kBuffered);
  EXPECT_EQ(buffer.Deliver(MakeEndRoundFrame(0, 0, 1)),
            DeliverResult::kEndMarker);
  EXPECT_EQ(buffer.TakeRound(0).size(), 1u);
}

TEST(RoundBufferTest, RoundsMustBeTakenInOrder) {
  RoundBuffer buffer;
  EXPECT_THROW(buffer.TakeRound(3), std::logic_error);
}

// A long-lived delivering thread — one RoundBuffer lane — that runs the
// posted tasks in order.
class Courier {
 public:
  Courier() : thread_([this] { Loop(); }) {}
  ~Courier() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  void Post(std::function<void()> task) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tasks_.push_back(std::move(task));
    }
    cv_.notify_all();
  }

  // Blocks until every posted task has run.
  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return tasks_.empty() && !busy_; });
  }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      cv_.wait(lock, [&] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;
      std::function<void()> task = std::move(tasks_.front());
      tasks_.pop_front();
      busy_ = true;
      lock.unlock();
      task();
      lock.lock();
      busy_ = false;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the state it reads
};

// A copy of an encoded wire report with one payload byte flipped: same
// nonce (so the same PacketIdentity), failing envelope checksum.
std::vector<uint8_t> CorruptCopy(std::vector<uint8_t> packet) {
  packet[packet.size() - 5] ^= 0x01;  // last payload byte, before the checksum
  return packet;
}

TEST(RoundBufferTest, CorruptCopyCannotStandInForALostPacket) {
  // One lane follows the same rule as many: a corrupt copy of a report
  // that was lost must not complete the round in its place.
  RoundBufferOptions options;
  options.round_deadline = std::chrono::milliseconds(50);
  RoundBuffer buffer(options);
  const auto lost = EncodeGrrReport(1, kDomain, 0, 11);
  const auto kept = EncodeGrrReport(2, kDomain, 0, 12);
  buffer.Deliver(MakeDataFrame(0, 0, kept));
  buffer.Deliver(MakeDataFrame(0, 0, CorruptCopy(lost)));
  buffer.Deliver(MakeEndRoundFrame(0, 0, 2));
  EXPECT_EQ(buffer.TakeRound(0).size(), 2u);
  const transport::RoundBufferStats stats = buffer.stats();
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.masked_losses, 1u);
  EXPECT_EQ(stats.duplicate_frames, 0u);
}

TEST(RoundBufferTest, CorruptCopyOnAnotherLaneCannotStandInForItsPacket) {
  // Striping hazard: a report-corrupt copy keeps its genuine packet's
  // nonce. Arriving on lane B ahead of everything else, it must not let
  // the round complete while the genuine packet is still on its way on
  // lane A — the genuine packet would then drop as kClosedRound and the
  // release would change.
  constexpr uint64_t kUsers = 60;
  constexpr std::size_t kSteps = 4;
  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;

  std::vector<Histogram> expected;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig("GRR"), kUsers), kDomain,
        options, fleet.Transport(1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      expected.push_back(session.Advance().release);
    }
  }

  const ClientFleet fleet(kUsers, TruthValue, 4242);
  RoundBuffer buffer;
  Courier lane_a;
  Courier lane_b;
  auto announce = [&](const RoundRequest& request) {
    const uint64_t round = request.round_index;
    auto packets = fleet.ProduceRound(request, 1);
    ASSERT_GE(packets.size(), 2u);
    const std::vector<uint8_t> late = packets[0];
    lane_b.Post([&buffer, round, copy = CorruptCopy(late)] {
      buffer.Deliver(MakeDataFrame(kSessionId, round, copy));
    });
    lane_b.Wait();  // the corrupt copy is in before anything else
    lane_a.Post([&buffer, round, packets, late] {
      for (std::size_t i = 1; i < packets.size(); ++i) {
        buffer.Deliver(MakeDataFrame(kSessionId, round, packets[i]));
      }
      buffer.Deliver(MakeEndRoundFrame(kSessionId, round, packets.size()));
      // TakeRound is waiting by now; the genuine packet lands last.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      buffer.Deliver(MakeDataFrame(kSessionId, round, late));
    });
  };

  std::vector<Histogram> released;
  uint64_t malformed = 0;
  {
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig("GRR"), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, announce, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      released.push_back(session.Advance().release);
    }
    malformed = session.stats().malformed;
    EXPECT_EQ(session.stats().duplicate, 0u);
  }
  lane_a.Wait();
  EXPECT_EQ(released, expected);
  const transport::RoundBufferStats stats = buffer.stats();
  EXPECT_EQ(malformed, stats.rounds_drained);  // one corrupt copy a round
  EXPECT_EQ(stats.closed_round_drops, 0u);
  EXPECT_EQ(stats.deadline_flushes, 0u);
  EXPECT_EQ(stats.duplicate_frames, stats.rounds_drained);
  EXPECT_EQ(buffer.lane_count(), 2u);
}

// K threads deliver interleaved rounds — cross-lane duplicates, frames
// after the marker, stragglers for drained rounds and one round with a
// loss masked by a duplicate — while this thread drains. Every counter
// and every round's packet multiset is exact.
class RoundBufferConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(RoundBufferConcurrencyTest, LanesDrainExactRoundsAndStats) {
  const std::size_t lanes = static_cast<std::size_t>(GetParam());
  constexpr uint64_t kRounds = 30;
  constexpr std::size_t kPackets = 48;
  constexpr uint64_t kLossyRound = kRounds - 1;

  auto packet = [](uint64_t round, std::size_t i) {
    return EncodeGrrReport(static_cast<uint32_t>(i % kDomain), kDomain,
                           static_cast<uint32_t>(round),
                           round * 1000 + i + 1);
  };
  // Thread t owns packets i % K == t and re-sends every sixth packet of
  // its neighbour's: a cross-lane duplicate. The lossy round never sends
  // packet 0 nor copies of it.
  auto owns = [&](std::size_t t, std::size_t i) { return i % lanes == t; };
  auto copies = [&](std::size_t t, uint64_t round, std::size_t i) {
    return owns((t + 1) % lanes, i) && i % 6 == 0 &&
           !(round == kLossyRound && i == 0);
  };
  auto lost = [&](uint64_t round, std::size_t i) {
    return round == kLossyRound && i == 0;
  };
  // Packets compare as strings: sorting byte vectors trips a false
  // -Wstringop-overread in GCC 12 at -O3.
  auto bytes = [](const std::vector<uint8_t>& v) {
    return std::string(v.begin(), v.end());
  };

  std::vector<std::vector<std::string>> sent(kRounds);
  uint64_t expected_duplicates = 0;
  for (uint64_t r = 0; r < kRounds; ++r) {
    for (std::size_t i = 0; i < kPackets; ++i) {
      if (!lost(r, i)) sent[r].push_back(bytes(packet(r, i)));
      for (std::size_t t = 0; t < lanes; ++t) {
        if (copies(t, r, i)) {
          sent[r].push_back(bytes(packet(r, i)));
          ++expected_duplicates;
        }
      }
    }
    std::sort(sent[r].begin(), sent[r].end());
  }

  RoundBufferOptions options;
  // Only the lossy round waits this out.
  options.round_deadline = std::chrono::milliseconds(500);
  RoundBuffer buffer(options);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < lanes; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t r = 0; r < kRounds; ++r) {
        if (r >= 2) {
          // A straggler for a round this thread saw drain: a typed drop.
          while (buffer.next_round() <= r - 2) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          }
          EXPECT_EQ(buffer.Deliver(MakeDataFrame(0, r - 2, packet(r - 2, t))),
                    DeliverResult::kClosedRound);
        }
        // The last owned packet goes out after the copies, so no copy can
        // arrive after its round completed.
        std::size_t last = kPackets;
        for (std::size_t i = 0; i < kPackets; ++i) {
          if (owns(t, i)) last = i;
        }
        for (std::size_t i = 0; i < kPackets; ++i) {
          if (owns(t, i) && i != last && !lost(r, i)) {
            buffer.Deliver(MakeDataFrame(0, r, packet(r, i)));
          }
        }
        // Lane 0's copies and last packet arrive after the marker.
        if (t == 0) buffer.Deliver(MakeEndRoundFrame(0, r, kPackets));
        for (std::size_t i = 0; i < kPackets; ++i) {
          if (copies(t, r, i)) {
            buffer.Deliver(MakeDataFrame(0, r, packet(r, i)));
          }
        }
        buffer.Deliver(MakeDataFrame(0, r, packet(r, last)));
      }
    });
  }
  for (uint64_t r = 0; r < kRounds; ++r) {
    std::vector<std::string> drained;
    for (const PayloadRef& p : buffer.TakeRound(r)) {
      drained.push_back(bytes(p.ToVector()));
    }
    std::sort(drained.begin(), drained.end());
    EXPECT_EQ(drained, sent[r]) << "round " << r;
  }
  for (std::thread& thread : threads) thread.join();

  uint64_t buffered = 0;
  for (const auto& round : sent) buffered += round.size();
  const transport::RoundBufferStats stats = buffer.stats();
  EXPECT_EQ(stats.buffered, buffered);
  EXPECT_EQ(stats.packets_drained, buffered);
  EXPECT_EQ(stats.rounds_drained, kRounds);
  EXPECT_EQ(stats.end_markers, kRounds);
  EXPECT_EQ(stats.duplicate_frames, expected_duplicates);
  EXPECT_EQ(stats.closed_round_drops, lanes * (kRounds - 2));
  EXPECT_EQ(stats.too_late_drops, 0u);
  EXPECT_EQ(stats.too_early_drops, 0u);
  EXPECT_EQ(stats.deadline_flushes, 1u);
  EXPECT_EQ(stats.masked_losses, 1u);
  EXPECT_EQ(buffer.lane_count(), lanes);
  EXPECT_EQ(buffer.pending_rounds(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Lanes, RoundBufferConcurrencyTest,
                         ::testing::Values(2, 4));

TEST(FrameDemuxTest, OneDeliveringThreadOwnsOneLanePerBuffer) {
  RoundBuffer a;
  RoundBuffer b;
  RoundBuffer c;
  FrameDemux demux;
  demux.Register(1, &a);
  demux.Register(2, &b);
  demux.Register(3, &c);
  auto handler = demux.Handler();
  Courier reader;
  reader.Post([&] {
    for (uint64_t i = 0; i < 300; ++i) {
      handler(MakeDataFrame(1 + i % 3, 0,
                            {static_cast<uint8_t>(i),
                             static_cast<uint8_t>(i >> 8)}));
    }
  });
  reader.Wait();
  for (const RoundBuffer* buffer : {&a, &b, &c}) {
    EXPECT_EQ(buffer->lane_count(), 1u);
    EXPECT_EQ(buffer->stats().buffered, 100u);
  }
  // A second delivering thread, while the first is alive, gets a lane of
  // its own.
  handler(MakeDataFrame(1, 0, {7, 7, 7}));
  EXPECT_EQ(a.lane_count(), 2u);
  EXPECT_EQ(b.lane_count(), 1u);
}

TEST(RoundBufferTest, ReconnectsReuseTheLanesOfExitedThreads) {
  // A socket listener serves every accepted connection on a fresh reader
  // thread. Once a reader has exited, the next one takes over its lane —
  // the lane table stays at the number of readers alive at once — and the
  // packets it buffered keep their place ahead of the new owner's.
  RoundBuffer buffer;
  std::vector<std::vector<uint8_t>> sent;
  auto deliver = [&buffer](uint8_t tag) {
    buffer.Deliver(MakeDataFrame(0, 0, {tag, tag, 1}));
  };
  for (uint8_t connection = 0; connection < 5; ++connection) {
    std::thread reader(deliver, connection);
    reader.join();
    sent.push_back({connection, connection, 1});
  }
  EXPECT_EQ(buffer.lane_count(), 1u);
  {
    Courier first;
    Courier second;
    first.Post([&] { deliver(10); });
    first.Wait();
    second.Post([&] { deliver(20); });
    second.Wait();
    EXPECT_EQ(buffer.lane_count(), 2u);
  }
  sent.push_back({10, 10, 1});
  sent.push_back({20, 20, 1});
  buffer.Deliver(MakeEndRoundFrame(0, 0, sent.size()));
  std::vector<std::vector<uint8_t>> drained;
  for (const PayloadRef& p : buffer.TakeRound(0)) {
    drained.push_back(p.ToVector());
  }
  EXPECT_EQ(drained, sent);  // lanes in registration order, each in order
  EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
}

TEST(FrameDemuxTest, RoutesBySessionAndCountsUnknownSessions) {
  RoundBuffer a;
  RoundBuffer b;
  FrameDemux demux;
  demux.Register(1, &a);
  demux.Register(2, &b);
  EXPECT_THROW(demux.Register(1, &a), std::invalid_argument);

  auto handler = demux.Handler();
  handler(MakeDataFrame(1, 0, {1}));
  handler(MakeDataFrame(2, 0, {2}));
  handler(MakeDataFrame(2, 0, {3}));
  handler(MakeDataFrame(99, 0, {4}));  // nobody listens on 99
  EXPECT_EQ(a.stats().buffered, 1u);
  EXPECT_EQ(b.stats().buffered, 2u);
  EXPECT_EQ(demux.unknown_session_drops(), 1u);
}

// --- batch-file transport -------------------------------------------------

TEST(BatchFileTest, WriteThenReplayReproducesEveryFrame) {
  const std::string path = ::testing::TempDir() + "frames_roundtrip.log";
  std::vector<Frame> sent;
  {
    FrameLogWriter writer(path);
    for (uint64_t i = 0; i < 25; ++i) {
      sent.push_back(MakeDataFrame(4, i / 5, {static_cast<uint8_t>(i)}));
      writer.Send(sent.back());
    }
    writer.Send(MakeEndRoundFrame(4, 4, 5));
    writer.Close();
    EXPECT_EQ(writer.frames_written(), 26u);
  }
  std::vector<Frame> replayed;
  const FrameStats stats = transport::ReplayFrameLog(
      path, [&](Frame&& f) { replayed.push_back(std::move(f)); },
      /*chunk_bytes=*/7);  // deliberately tiny reads
  ASSERT_EQ(replayed.size(), 26u);
  EXPECT_EQ(stats.frames, 26u);
  EXPECT_EQ(stats.errors(), 0u);
  for (std::size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(replayed[i].timestamp, sent[i].timestamp);
    EXPECT_EQ(replayed[i].payload, sent[i].payload);
  }
  EXPECT_EQ(replayed.back().kind, FrameKind::kEndRound);
}

TEST(BatchFileTest, CorruptedLogDegradesToTypedStatsNotACrash) {
  const std::string path = ::testing::TempDir() + "frames_corrupt.log";
  {
    FrameLogWriter writer(path);
    for (uint64_t i = 0; i < 10; ++i) {
      writer.Send(MakeDataFrame(1, i, {1, 2, 3, 4}));
    }
  }
  // Flip a byte in the middle of the recording.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 100, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, 100, SEEK_SET);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  std::size_t count = 0;
  const FrameStats stats =
      transport::ReplayFrameLog(path, [&](Frame&&) { ++count; });
  EXPECT_EQ(count, 9u);  // the frame the flip landed in is lost
  EXPECT_GT(stats.errors(), 0u);
}

// --- socket transport -----------------------------------------------------

TEST(SocketTest, FramesSurviveTheLoopbackIntact) {
  std::mutex mu;
  std::vector<Frame> received;
  SocketListener listener(0, [&](Frame&& f) {
    std::lock_guard<std::mutex> lock(mu);
    received.push_back(std::move(f));
  });
  {
    SocketClient client(listener.port(), /*flush_bytes=*/256);
    for (uint64_t i = 0; i < 200; ++i) {
      client.Send(MakeDataFrame(3, i, {static_cast<uint8_t>(i), 0x5A}));
    }
    client.Close();
    EXPECT_EQ(client.frames_sent(), 200u);
  }
  // The listener owns its own accept/read threads; wait for delivery
  // before tearing down (real consumers block on RoundBuffer completion
  // instead — Stop() is an immediate shutdown, not a drain).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mu);
      if (received.size() == 200u) break;
    }
    if (std::chrono::steady_clock::now() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  listener.Stop();
  ASSERT_EQ(received.size(), 200u);
  for (uint64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(received[i].timestamp, i);
    EXPECT_EQ(received[i].session_id, 3u);
  }
  EXPECT_EQ(listener.stats().frames, 200u);
  EXPECT_EQ(listener.stats().errors(), 0u);
  EXPECT_EQ(listener.connections(), 1u);
}

// --- end-to-end: socket + file replay vs in-process -----------------------

// Forwards every frame to several senders (socket + recorder tee).
class TeeSender : public FrameSender {
 public:
  explicit TeeSender(std::vector<FrameSender*> outs)
      : outs_(std::move(outs)) {}
  void Send(const Frame& frame) override {
    for (FrameSender* out : outs_) out->Send(frame);
  }
  void Flush() override {
    for (FrameSender* out : outs_) out->Flush();
  }

 private:
  std::vector<FrameSender*> outs_;
};

class TransportEquivalenceTest : public ::testing::TestWithParam<OracleId> {};

TEST_P(TransportEquivalenceTest,
       HostileSocketDeliveryAndFileReplayMatchInProcessBitForBit) {
  const std::string fo_name = OracleIdName(GetParam());
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 6;
  const std::string log_path =
      ::testing::TempDir() + "transport_" + fo_name + ".log";

  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;

  // Reference: the PR 3 in-process transport.
  std::vector<Histogram> expected;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, fleet.Transport(1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      expected.push_back(session.Advance().release);
    }
  }

  // Socket path: same fleet, but the round's packets travel as frames over
  // a loopback TCP connection with a hostile delivery schedule — shuffled
  // order, ~1/5 duplicated, and a third of the round arriving after the
  // end-of-round marker ("late", still inside the round's window).
  uint64_t dupes_sent = 0;
  std::vector<Histogram> via_socket;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    RoundBuffer buffer;
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    SocketClient socket_sender(listener.port());
    FrameLogWriter recorder(log_path);
    TeeSender network({&socket_sender, &recorder});

    auto announce = [&](const RoundRequest& request) {
      auto packets = fleet.ProduceRound(request, 1);
      Rng rng(HashCounter(999, request.round_index, 0));
      for (std::size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[rng.UniformInt(i)]);
      }
      std::vector<std::vector<uint8_t>> dupes;
      for (std::size_t i = 0; i < packets.size(); i += 5) {
        dupes.push_back(packets[i]);
      }
      dupes_sent += dupes.size();
      const std::size_t early = packets.size() * 2 / 3;
      for (std::size_t i = 0; i < early; ++i) {
        network.Send(MakeDataFrame(kSessionId, request.round_index,
                                   packets[i]));
      }
      // The duplicates land mid-round (some of them *before* their
      // original — a retry overtaking the first copy), and the marker
      // overtakes the stragglers. It announces the distinct packet count:
      // completion must ride on identities, not raw arrivals, so the round
      // closes exactly when the last straggler lands.
      for (const auto& dupe : dupes) {
        network.Send(MakeDataFrame(kSessionId, request.round_index, dupe));
      }
      network.Send(MakeEndRoundFrame(kSessionId, request.round_index,
                                     packets.size()));
      for (std::size_t i = early; i < packets.size(); ++i) {
        network.Send(MakeDataFrame(kSessionId, request.round_index,
                                   packets[i]));
      }
      network.Flush();
    };

    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, announce, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_socket.push_back(session.Advance().release);
    }

    EXPECT_EQ(session.stats().duplicate, dupes_sent) << fo_name;
    EXPECT_EQ(session.stats().malformed, 0u);
    EXPECT_EQ(buffer.stats().duplicate_frames, dupes_sent) << fo_name;
    EXPECT_EQ(buffer.stats().masked_losses, 0u);
    EXPECT_EQ(buffer.stats().deadline_flushes, 0u);
    EXPECT_EQ(buffer.stats().dropped(), 0u);
    recorder.Close();
    socket_sender.Close();
    listener.Stop();
    EXPECT_EQ(listener.stats().errors(), 0u);
  }
  EXPECT_EQ(via_socket, expected) << fo_name;

  // Batch-file replay: the recorded traffic re-drives a fresh server. The
  // whole recording is delivered up front, so every round but the first is
  // "early" — the buffer holds them all (watermark knobs widened).
  std::vector<Histogram> via_replay;
  {
    RoundBufferOptions replay_options;
    replay_options.max_lateness = 1u << 20;
    replay_options.max_buffered_rounds = 1u << 20;
    RoundBuffer buffer(replay_options);
    const FrameStats stats = transport::ReplayFrameLog(
        log_path, [&](Frame&& f) { buffer.Deliver(std::move(f)); });
    EXPECT_EQ(stats.errors(), 0u);

    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, nullptr, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_replay.push_back(session.Advance().release);
    }
    EXPECT_EQ(session.stats().duplicate, dupes_sent) << fo_name;
  }
  EXPECT_EQ(via_replay, expected) << fo_name;
}

INSTANTIATE_TEST_SUITE_P(AllOracles, TransportEquivalenceTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

// --- multi-connection ingest ----------------------------------------------

class MultiConnectionTest : public ::testing::TestWithParam<OracleId> {};

// A round striped across four socket connections — with shuffling and
// cross-connection duplicates, so one packet's copies can race each other
// on different TCP streams — must release bit-identically to the
// in-process (and therefore single-connection) run. Each connection gets
// its own listener-side reader thread and FrameDecoder; the RoundBuffer is
// the only merge point.
TEST_P(MultiConnectionTest, FourStripedConnectionsMatchOneBitForBit) {
  const std::string fo_name = OracleIdName(GetParam());
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 4;
  constexpr std::size_t kConnections = 4;

  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;

  std::vector<Histogram> expected;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, fleet.Transport(1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      expected.push_back(session.Advance().release);
    }
  }

  uint64_t dupes_sent = 0;
  std::vector<Histogram> via_sockets;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    RoundBuffer buffer;
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    std::vector<std::unique_ptr<SocketClient>> clients;
    std::vector<FrameSender*> senders;
    for (std::size_t c = 0; c < kConnections; ++c) {
      // Tiny flush threshold: the four streams interleave at a granularity
      // of a few frames instead of whole rounds.
      clients.push_back(
          std::make_unique<SocketClient>(listener.port(), /*flush_bytes=*/256));
      senders.push_back(clients.back().get());
    }

    auto announce = [&](const RoundRequest& request) {
      auto packets = fleet.ProduceRound(request, 1);
      Rng rng(HashCounter(777, request.round_index, 0));
      for (std::size_t i = packets.size(); i > 1; --i) {
        std::swap(packets[i - 1], packets[rng.UniformInt(i)]);
      }
      // Duplicate every fifth packet at the end of the list: round-robin
      // striping then lands most copies on a different connection than
      // their original, so dedup must hold across streams.
      const std::size_t originals = packets.size();
      for (std::size_t i = 0; i < originals; i += 5) {
        packets.push_back(packets[i]);
        ++dupes_sent;
      }
      SendRoundFrames(senders, kSessionId, request.round_index, packets);
    };

    MechanismSession session(
        CreateMechanism("LBA", SessionConfig(fo_name), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, announce, 1));
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_sockets.push_back(session.Advance().release);
    }

    // Drain the connections before reading any counters: with the copies
    // striped onto different connections than their originals, a round can
    // complete (every distinct frame arrived) and be drained while a
    // redundant copy is still in flight on another stream.
    for (auto& client : clients) client->Close();
    listener.Stop();
    // A straggler arriving after its round drained lands as a closed-round
    // drop. Only duplicates can straggle — completion requires all distinct
    // frames — so the drop and duplicate counters must account for every
    // copy between them, and no other drop reason may fire.
    const transport::RoundBufferStats bstats = buffer.stats();
    const uint64_t stragglers = bstats.closed_round_drops;
    EXPECT_EQ(session.stats().duplicate + stragglers, dupes_sent) << fo_name;
    EXPECT_EQ(session.stats().malformed, 0u);
    EXPECT_EQ(bstats.duplicate_frames + stragglers, dupes_sent) << fo_name;
    EXPECT_EQ(bstats.deadline_flushes, 0u);
    EXPECT_EQ(bstats.masked_losses, 0u);
    EXPECT_EQ(bstats.dropped(), stragglers);
    EXPECT_EQ(listener.connections(), kConnections);
    EXPECT_EQ(listener.stats().errors(), 0u);
  }
  EXPECT_EQ(via_sockets, expected) << fo_name;
}

INSTANTIATE_TEST_SUITE_P(AllOracles, MultiConnectionTest,
                         ::testing::ValuesIn(AllOracleIds()),
                         [](const auto& info) {
                           return std::string(OracleIdName(info.param));
                         });

TEST(StripedSocketTest, LoneCorruptReportsDoNotStallTheRound) {
  // Reports corrupted before they were sent, with no intact copy: the
  // sender's marker must count them exactly as the receiver does (not at
  // all), or every round waits out its deadline although every packet
  // arrived. One corrupt report rides each connection.
  constexpr uint64_t kUsers = 300;
  constexpr std::size_t kSteps = 4;
  constexpr std::size_t kConnections = 2;
  SessionOptions options;
  options.num_shards = 2;
  options.num_threads = 1;
  auto produce = [](const ClientFleet& fleet, const RoundRequest& request) {
    auto packets = fleet.ProduceRound(request, 1);
    for (std::size_t i = 0; i < kConnections; ++i) {
      packets[i] = CorruptCopy(packets[i]);
    }
    return packets;
  };

  std::vector<Histogram> expected;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig("GRR"), kUsers), kDomain,
        options, [&](const RoundRequest& request, ReportRouter& router) {
          router.IngestBatch(produce(fleet, request), 1);
        });
    for (std::size_t t = 0; t < kSteps; ++t) {
      expected.push_back(session.Advance().release);
    }
  }

  std::vector<Histogram> via_sockets;
  {
    const ClientFleet fleet(kUsers, TruthValue, 4242);
    RoundBufferOptions buffer_options;
    buffer_options.round_deadline = std::chrono::milliseconds(2000);
    RoundBuffer buffer(buffer_options);
    FrameDemux demux;
    demux.Register(kSessionId, &buffer);
    SocketListener listener(0, demux.Handler());
    std::vector<std::unique_ptr<SocketClient>> clients;
    std::vector<FrameSender*> senders;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(
          std::make_unique<SocketClient>(listener.port(), /*flush_bytes=*/256));
      senders.push_back(clients.back().get());
    }
    auto announce = [&](const RoundRequest& request) {
      SendRoundFrames(senders, kSessionId, request.round_index,
                      produce(fleet, request));
    };
    MechanismSession session(
        CreateMechanism("LBA", SessionConfig("GRR"), kUsers), kDomain,
        options, MakeBufferedTransport(buffer, announce, 1));
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < kSteps; ++t) {
      via_sockets.push_back(session.Advance().release);
    }
    const auto elapsed = std::chrono::steady_clock::now() - start;
    for (auto& client : clients) client->Close();
    listener.Stop();

    const transport::RoundBufferStats bstats = buffer.stats();
    EXPECT_EQ(bstats.deadline_flushes, 0u);
    EXPECT_EQ(bstats.masked_losses, 0u);
    EXPECT_EQ(bstats.duplicate_frames, 0u);
    EXPECT_EQ(bstats.dropped(), 0u);
    EXPECT_EQ(session.stats().malformed, kConnections * bstats.rounds_drained);
    EXPECT_EQ(buffer.lane_count(), kConnections);
    EXPECT_LT(elapsed, buffer_options.round_deadline);
  }
  EXPECT_EQ(via_sockets, expected);
}

// --- pooled decoder buffers -----------------------------------------------

// Frames decoded zero-copy alias the decoder's pooled block: the payload
// bytes must stay valid while the ref lives (even across further decoder
// traffic), and blocks must recycle — not accumulate — once payloads drop.
TEST(FrameDecoderPoolTest, PayloadsPinBlocksAndBlocksRecycle) {
  FrameDecoder decoder;
  Frame frame;
  std::vector<uint8_t> stream;
  std::vector<PayloadRef> held;
  // Push ~40 MiB of frames through the decoder while holding only one
  // round's payloads at a time. With in-flight refs the decoder must hop
  // blocks instead of compacting under them; with refs dropped it must
  // reuse, keeping the footprint a handful of blocks.
  for (int round = 0; round < 80; ++round) {
    stream.clear();
    std::vector<std::vector<uint8_t>> sent;
    for (uint64_t i = 0; i < 900; ++i) {
      std::vector<uint8_t> payload(600, static_cast<uint8_t>(i ^ round));
      transport::AppendEncodedFrame(
          MakeDataFrame(1, static_cast<uint64_t>(round), payload), &stream);
      sent.push_back(std::move(payload));
    }
    held.clear();  // previous round's refs drop -> blocks become reusable
    std::size_t fed = 0;
    while (fed < stream.size()) {
      const std::size_t n = std::min<std::size_t>(64 * 1024,
                                                  stream.size() - fed);
      decoder.Append(stream.data() + fed, n);
      fed += n;
      while (decoder.Next(&frame)) held.push_back(std::move(frame.payload));
    }
    ASSERT_EQ(held.size(), sent.size());
    for (std::size_t i = 0; i < held.size(); ++i) {
      ASSERT_EQ(held[i], sent[i]) << "round " << round << " frame " << i;
    }
  }
  EXPECT_EQ(decoder.stats().errors(), 0u);
  // Steady state is a small ring of recycled blocks, not one per chunk.
  EXPECT_LE(decoder.pool().allocated_blocks(), 8u);
  EXPECT_GT(decoder.pool().reused_blocks(), 0u);
}

}  // namespace
}  // namespace ldpids
