// The hostile traffic plan: extra copies of genuine reports injected into
// a round, where each copy goes, and the exact reject accounting the
// server must show for them.
//
// Only copies are damaged, never the genuine report, so a correct server
// releases bit-identically to the clean recording. Three kinds of copy:
//   * duplicate       — the genuine packet again; the ingest edge must
//                       reject it as IngestResult::kDuplicate;
//   * report-corrupt  — one payload byte of the wire report flipped inside
//                       a well-formed frame; the frame is delivered and
//                       buffered, the arena rejects it as malformed;
//   * frame-corrupt   — one payload byte flipped after the frame was
//                       encoded; the connection's FrameDecoder rejects it
//                       as a checksum mismatch and never delivers it.
//
// Placement. Genuine packets are shuffled and striped round-robin over
// the connections; the end-of-round marker goes last on connection 0.
// Duplicates and report-corrupt copies share the genuine packet's
// identity (transport::PacketIdentity reads the nonce), so the
// RoundBuffer counts whichever copy arrives first toward completion. They
// are therefore only made of users whose genuine packet also rides
// connection 0, and placed after it: every such copy is read before the
// marker, and no copy can stand in for a genuine packet still in flight on
// another connection. (A copy placed on another stream than its genuine
// packet could complete the round early and the genuine packet would be
// dropped as late — see README.md, "Defects found".) Frame-corrupt copies
// never reach the buffer and go anywhere.
#ifndef PERFBENCH_HOSTILE_H_
#define PERFBENCH_HOSTILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace perfbench {

struct HostileRates {
  double duplicate = 0.02;
  double frame_corrupt = 0.01;
  double report_corrupt = 0.01;
};

// Packets one round carries, by kind.
struct CopyCounts {
  uint64_t genuine = 0;
  uint64_t duplicates = 0;
  uint64_t frame_corrupt = 0;
  uint64_t report_corrupt = 0;

  CopyCounts& operator+=(const CopyCounts& other);
};

// Copies for a round of `genuine` packets: floor(genuine * rate) of each
// kind. Duplicates and report-corrupt copies are made of connection-0
// users only, so their counts are capped at that stream's genuine count.
CopyCounts PlanCopies(uint64_t genuine, std::size_t connections,
                      const HostileRates& rates);

// What the server must account for a set of rounds carrying `copies`.
struct ExpectedRejects {
  // service::IngestStats
  uint64_t accepted = 0;
  uint64_t duplicate = 0;
  uint64_t malformed = 0;
  // transport::RoundBufferStats
  uint64_t buffered = 0;
  uint64_t duplicate_frames = 0;
  // transport::FrameStats. One mismatch per frame-corrupt copy, where it
  // starts; resynchronizing through the copy's bytes can meet a false
  // frame start and add another, so the observed count is at least this.
  uint64_t data_frames = 0;
  uint64_t checksum_mismatch = 0;
  // Distinct packets the end-of-round marker announces.
  uint64_t marker_count = 0;
};

ExpectedRejects Expect(const CopyCounts& copies);

enum class CopyKind : uint8_t {
  kGenuine = 0,
  kDuplicate,
  kFrameCorrupt,
  kReportCorrupt,
};

// One packet in a connection's send order: which genuine packet (index
// into the round's cohort-ordered packets) and what to do with it.
struct Placed {
  uint32_t packet = 0;
  CopyKind kind = CopyKind::kGenuine;
};

// Send order of one round on each of `connections` streams, following the
// placement rules above. `shuffle` permutes the genuine packets first.
std::vector<std::vector<Placed>> PlaceRound(uint64_t genuine,
                                            std::size_t connections,
                                            const CopyCounts& copies,
                                            bool shuffle, ldpids::Rng& rng);

// Offset of the byte a corrupt copy flips inside a wire report of `size`
// bytes: always in the oracle payload, never the header or checksum, so
// the nonce (and the packet's identity) survives.
std::size_t ReportFlipOffset(std::size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_HOSTILE_H_
