// The load generator's recording pass: an in-process MechanismSession
// over a ClientFleet runs the workload once, capturing every round the
// mechanism asks for and its reference releases, and pre-encodes each
// round's traffic into per-connection frame chunks ready to write to a
// socket. Client production and frame encoding therefore happen once, in
// set-up, and never inside the measured window.
#ifndef PERFBENCH_RECORDING_H_
#define PERFBENCH_RECORDING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "control.h"
#include "hostile.h"
#include "transport/frame.h"
#include "workload.h"

namespace perfbench {

// The session id every benchmark frame carries.
inline constexpr uint64_t kSessionId = 1;

// Staging size of the chunked encoder, as in SocketClient/FrameLogWriter.
inline constexpr std::size_t kChunkBytes = 64 * 1024;

// A FrameSender that encodes into a fixed kChunkBytes staging buffer and
// moves it to `*chunks` whenever the next frame would not fit, the way
// SocketClient and FrameLogWriter batch their writes. Appending a whole
// round to one growing vector instead is quadratic: AppendEncodedFrame
// reserves exactly the bytes it is about to write, which defeats the
// vector's geometric growth (see README.md, "Defects found").
class ChunkEncoder : public ldpids::transport::FrameSender {
 public:
  explicit ChunkEncoder(std::vector<std::vector<uint8_t>>* chunks);

  void Send(const ldpids::transport::Frame& frame) override;
  // Sends `frame` with one payload byte flipped after encoding, so its
  // frame checksum no longer matches.
  void SendCorrupted(const ldpids::transport::Frame& frame);
  void Flush() override;

  uint64_t frames() const { return frames_; }
  uint64_t corrupt_bytes() const { return corrupt_bytes_; }

 private:
  std::vector<std::vector<uint8_t>>* chunks_;
  std::vector<uint8_t> buffer_;
  uint64_t frames_ = 0;
  uint64_t corrupt_bytes_ = 0;  // encoded size of the corrupted frames
};

struct RecordedRound {
  RoundDescriptor descriptor;
  CopyCounts copies;
  // chunks[c] is connection c's byte stream for the round, in write order.
  std::vector<std::vector<std::vector<uint8_t>>> chunks;
  uint64_t data_frames = 0;  // data frames written, corrupt ones included
  // Bytes of the frame-corrupt copies: the receiving decoder must skip
  // exactly these while resynchronizing.
  uint64_t corrupt_bytes = 0;
};

// Set-up costs of one recording, for the ledger.
struct SetupCosts {
  double record_s = 0.0;          // whole recording pass
  uint64_t produce_ns = 0;        // ClientFleet::ProduceRound
  uint64_t produced_reports = 0;
  uint64_t encode_ns = 0;         // placement + frame encoding
  uint64_t encoded_frames = 0;
};

// One independent realization of the workload: its own values, client
// randomness and mechanism seed (SegmentSeed), replayed by its own passes.
struct Segment {
  std::vector<RecordedRound> rounds;
  // Reference release digests (ReleaseDigest) for timestamps 0..T, i.e.
  // one past the workload's measured timestamps.
  std::vector<uint64_t> release_digests;
};

struct Recording {
  std::vector<Segment> segments;  // Workload::segments of them
  SetupCosts costs;
};

// Runs the recording pass for `w` from the workload seed, one session per
// segment. Production and ingest fan out over `threads` pool lanes.
// `drop_frame` leaves one genuine data frame of a mid-stream round of
// segment 0 out of the encoded traffic while its end-of-round marker still
// counts it — the self-test that shows a lost report fails the benchmark.
Recording RecordWorkload(const Workload& w, uint64_t seed,
                         std::size_t threads, bool drop_frame = false);

}  // namespace perfbench

#endif  // PERFBENCH_RECORDING_H_
