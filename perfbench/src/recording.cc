#include "recording.h"

#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "service/client_fleet.h"
#include "service/ingest.h"
#include "service/session.h"
#include "transport/round_buffer.h"
#include "util/rng.h"

namespace perfbench {

using ldpids::transport::EncodedFrameSize;
using ldpids::transport::Frame;
using ldpids::transport::MakeDataFrame;
using ldpids::transport::MakeEndRoundFrame;

namespace {

// Encoded frame layout (transport/frame.h): 24 header bytes, payload,
// 4-byte checksum.
constexpr std::size_t kFrameHeader = 24;

}  // namespace

ChunkEncoder::ChunkEncoder(std::vector<std::vector<uint8_t>>* chunks)
    : chunks_(chunks) {
  buffer_.reserve(kChunkBytes);
}

void ChunkEncoder::Send(const Frame& frame) {
  const std::size_t size = EncodedFrameSize(frame.payload.size());
  if (!buffer_.empty() && buffer_.size() + size > kChunkBytes) Flush();
  // Within capacity, AppendEncodedFrame's exact reserve is a no-op.
  ldpids::transport::AppendEncodedFrame(frame, &buffer_);
  ++frames_;
}

void ChunkEncoder::SendCorrupted(const Frame& frame) {
  if (frame.payload.size() == 0) {
    throw std::invalid_argument("cannot corrupt an empty frame payload");
  }
  Send(frame);
  const std::size_t size = EncodedFrameSize(frame.payload.size());
  buffer_[buffer_.size() - size + kFrameHeader + frame.payload.size() / 2] ^=
      0xFF;
  corrupt_bytes_ += size;
}

void ChunkEncoder::Flush() {
  if (buffer_.empty()) return;
  buffer_.shrink_to_fit();  // a round's last chunk is usually partial
  chunks_->push_back(std::move(buffer_));
  buffer_ = {};
  buffer_.reserve(kChunkBytes);
}

namespace {

// Encodes one round's packets onto the workload's connections following
// the hostile placement plan (hostile.h).
RecordedRound EncodeRound(const Workload& w,
                          const ldpids::service::RoundRequest& request,
                          const std::vector<std::vector<uint8_t>>& packets,
                          ldpids::Rng& rng, bool drop_frame) {
  RecordedRound round;
  round.descriptor = DescribeRound(request);
  round.copies = w.hostile ? PlanCopies(packets.size(), w.connections,
                                        HostileRates{})
                           : CopyCounts{packets.size(), 0, 0, 0};
  const auto placement = PlaceRound(packets.size(), w.connections,
                                    round.copies, w.hostile, rng);
  round.chunks.resize(w.connections);
  std::vector<std::unique_ptr<ChunkEncoder>> encoders;
  for (std::size_t c = 0; c < w.connections; ++c) {
    encoders.push_back(std::make_unique<ChunkEncoder>(&round.chunks[c]));
  }
  // The marker announces distinct packets the way SendRoundFrames does.
  std::unordered_set<uint64_t> identities;
  identities.reserve(packets.size());
  bool dropped = !drop_frame;
  std::vector<uint8_t> scratch;
  for (std::size_t c = 0; c < w.connections; ++c) {
    for (const Placed& p : placement[c]) {
      const std::vector<uint8_t>& packet = packets[p.packet];
      switch (p.kind) {
        case CopyKind::kGenuine:
          identities.insert(
              ldpids::transport::PacketIdentity(packet.data(), packet.size()));
          if (!dropped) {
            dropped = true;  // counted by the marker, never sent
            continue;
          }
          encoders[c]->Send(MakeDataFrame(kSessionId, request.round_index,
                                          packet));
          break;
        case CopyKind::kDuplicate:
          encoders[c]->Send(MakeDataFrame(kSessionId, request.round_index,
                                          packet));
          break;
        case CopyKind::kReportCorrupt:
          scratch = packet;
          scratch[ReportFlipOffset(scratch.size())] ^= 0xFF;
          identities.insert(ldpids::transport::PacketIdentity(
              scratch.data(), scratch.size()));
          encoders[c]->Send(MakeDataFrame(kSessionId, request.round_index,
                                          scratch));
          break;
        case CopyKind::kFrameCorrupt:
          encoders[c]->SendCorrupted(
              MakeDataFrame(kSessionId, request.round_index, packet));
          break;
      }
    }
  }
  for (auto& encoder : encoders) {
    round.data_frames += encoder->frames();
    round.corrupt_bytes += encoder->corrupt_bytes();
  }
  // Every copy shares its genuine packet's identity (hostile.h), so the
  // marker must announce exactly the genuine count the plan expects.
  if (identities.size() != Expect(round.copies).marker_count) {
    throw std::logic_error("round " + std::to_string(request.round_index) +
                           " announces " + std::to_string(identities.size()) +
                           " distinct packets, plan expects " +
                           std::to_string(Expect(round.copies).marker_count));
  }
  encoders[0]->Send(MakeEndRoundFrame(kSessionId, request.round_index,
                                      identities.size()));
  for (auto& encoder : encoders) encoder->Flush();
  return round;
}

// Records one segment: a fresh session over the segment's own inputs.
Segment RecordSegment(const Workload& w, uint64_t seed, std::size_t threads,
                      bool drop_frame, SetupCosts* costs) {
  const auto dataset = MakeWorkloadDataset(w, seed);
  const ldpids::service::ClientFleet fleet(
      w.users,
      [dataset](uint64_t user, std::size_t t) { return dataset->value(user, t); },
      FleetSeed(seed));
  ldpids::Rng placement_rng(ldpids::HashCounter(seed, 4, 0x5eed));

  Segment seg;
  // The self-test drops a frame from a round of the middle timestamp.
  const std::size_t drop_timestamp = w.timestamps / 2;
  bool drop_pending = drop_frame;
  auto transport = [&](const ldpids::service::RoundRequest& request,
                       ldpids::service::ReportRouter& router) {
    const uint64_t t0 = NowNs();
    const auto packets = fleet.ProduceRound(request, threads);
    const uint64_t t1 = NowNs();
    const bool drop = drop_pending && request.timestamp == drop_timestamp;
    if (drop) drop_pending = false;
    seg.rounds.push_back(EncodeRound(w, request, packets, placement_rng, drop));
    const uint64_t t2 = NowNs();
    costs->produce_ns += t1 - t0;
    costs->produced_reports += packets.size();
    costs->encode_ns += t2 - t1;
    router.IngestBatch(packets, threads);
  };

  ldpids::service::SessionOptions options;
  options.num_shards = 0;
  options.num_threads = threads;
  ldpids::service::MechanismSession session(MakeWorkloadMechanism(w, seed),
                                            w.domain, options, transport);
  for (std::size_t t = 0; t <= w.timestamps; ++t) {
    seg.release_digests.push_back(ReleaseDigest(session.Advance()));
  }
  for (const RecordedRound& round : seg.rounds) {
    costs->encoded_frames += round.data_frames + 1;  // + marker
  }
  return seg;
}

}  // namespace

Recording RecordWorkload(const Workload& w, uint64_t seed,
                         std::size_t threads, bool drop_frame) {
  const uint64_t start = NowNs();
  Recording rec;
  for (std::size_t k = 0; k < w.segments; ++k) {
    rec.segments.push_back(RecordSegment(w, SegmentSeed(seed, k), threads,
                                         drop_frame && k == 0, &rec.costs));
  }
  rec.costs.record_s = static_cast<double>(NowNs() - start) / 1e9;
  return rec;
}

}  // namespace perfbench
