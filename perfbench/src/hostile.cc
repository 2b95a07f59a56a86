#include "hostile.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

namespace {

// Wire envelope layout (fo/wire.h): 19 header bytes, payload, 4-byte
// checksum.
constexpr std::size_t kWireHeader = 19;
constexpr std::size_t kWireChecksum = 4;

uint64_t Share(uint64_t n, double rate) {
  return static_cast<uint64_t>(std::floor(static_cast<double>(n) * rate));
}

}  // namespace

CopyCounts& CopyCounts::operator+=(const CopyCounts& other) {
  genuine += other.genuine;
  duplicates += other.duplicates;
  frame_corrupt += other.frame_corrupt;
  report_corrupt += other.report_corrupt;
  return *this;
}

CopyCounts PlanCopies(uint64_t genuine, std::size_t connections,
                      const HostileRates& rates) {
  if (connections == 0) throw std::invalid_argument("no connections");
  // Genuine packet i rides connection i % K, so connection 0 carries
  // ceil(genuine / K) of them.
  const uint64_t on_first = (genuine + connections - 1) / connections;
  CopyCounts c;
  c.genuine = genuine;
  c.duplicates = std::min(on_first, Share(genuine, rates.duplicate));
  c.report_corrupt = std::min(on_first, Share(genuine, rates.report_corrupt));
  c.frame_corrupt = Share(genuine, rates.frame_corrupt);
  return c;
}

ExpectedRejects Expect(const CopyCounts& copies) {
  ExpectedRejects e;
  e.accepted = copies.genuine;
  e.duplicate = copies.duplicates;
  e.malformed = copies.report_corrupt;
  const uint64_t delivered =
      copies.genuine + copies.duplicates + copies.report_corrupt;
  e.buffered = delivered;
  e.duplicate_frames = copies.duplicates + copies.report_corrupt;
  e.data_frames = delivered;
  e.checksum_mismatch = copies.frame_corrupt;
  e.marker_count = copies.genuine;
  return e;
}

std::vector<std::vector<Placed>> PlaceRound(uint64_t genuine,
                                            std::size_t connections,
                                            const CopyCounts& copies,
                                            bool shuffle, ldpids::Rng& rng) {
  if (connections == 0) throw std::invalid_argument("no connections");
  std::vector<uint32_t> order(genuine);
  for (uint32_t i = 0; i < genuine; ++i) order[i] = i;
  if (shuffle) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }
  }
  // Each entry sorts by a key: genuine packets by stream position, copies
  // by a random key behind (or, for frame-corrupt ones, anywhere in) it.
  struct Keyed {
    double key;
    Placed placed;
  };
  std::vector<std::vector<Keyed>> streams(connections);
  for (std::size_t i = 0; i < order.size(); ++i) {
    auto& stream = streams[i % connections];
    stream.push_back({static_cast<double>(stream.size()),
                      {order[i], CopyKind::kGenuine}});
  }
  const std::size_t first_len = streams[0].size();
  auto copy_behind = [&](CopyKind kind) {
    const Keyed source = streams[0][rng.UniformInt(first_len)];
    const double span = static_cast<double>(first_len) - source.key;
    // Key in (source.key, first_len]: strictly behind the source. A tie
    // with a later genuine key keeps the genuine packet first (stable).
    streams[0].push_back({source.key + span * (1.0 - rng.NextDouble()),
                          {source.placed.packet, kind}});
  };
  for (uint64_t i = 0; i < copies.duplicates; ++i) {
    copy_behind(CopyKind::kDuplicate);
  }
  for (uint64_t i = 0; i < copies.report_corrupt; ++i) {
    copy_behind(CopyKind::kReportCorrupt);
  }
  for (uint64_t i = 0; i < copies.frame_corrupt && genuine > 0; ++i) {
    const std::size_t c = rng.UniformInt(connections);
    const std::size_t len = streams[c].size();
    const uint32_t packet = order[rng.UniformInt(order.size())];
    streams[c].push_back({rng.NextDouble() * static_cast<double>(len),
                          {packet, CopyKind::kFrameCorrupt}});
  }
  std::vector<std::vector<Placed>> placed(connections);
  for (std::size_t c = 0; c < connections; ++c) {
    std::stable_sort(streams[c].begin(), streams[c].end(),
                     [](const Keyed& a, const Keyed& b) {
                       return a.key < b.key;
                     });
    placed[c].reserve(streams[c].size());
    for (const Keyed& k : streams[c]) placed[c].push_back(k.placed);
  }
  return placed;
}

std::size_t ReportFlipOffset(std::size_t size) {
  if (size <= kWireHeader + kWireChecksum) {
    throw std::invalid_argument("wire report has no payload to corrupt");
  }
  return kWireHeader + (size - kWireHeader - kWireChecksum) / 2;
}

}  // namespace perfbench
