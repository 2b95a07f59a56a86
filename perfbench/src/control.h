// The control channel between the benchmark's server process and its
// load-generator process: typed, length-prefixed messages over a stream
// socket, plus the round descriptor the server's announce hook sends.
//
// Message: u32 type | u32 payload length | payload (little-endian fields).
#ifndef PERFBENCH_CONTROL_H_
#define PERFBENCH_CONTROL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/session.h"

namespace perfbench {

enum class MsgType : uint32_t {
  kReference = 1,  // gen -> server: recorded rounds, releases, set-up costs
  kReady,          // gen -> server: data connections are up
  kAnnounce,       // server -> gen: one round descriptor
  kPhase,          // server -> gen: a new measurement phase starts
  kPass,           // server -> gen: a replay pass of segment k starts
  kFinish,         // server -> gen: close connections and report
  kReport,         // gen -> server: load-generator accounting
  kError,          // gen -> server: a check failed; text follows
};

// What the announce hook tells the generator about one round; the
// generator checks it field by field against its recording.
struct RoundDescriptor {
  uint64_t round_index = 0;
  uint64_t timestamp = 0;
  uint64_t epsilon_bits = 0;
  uint8_t oracle = 0;
  uint64_t cohort_digest = 0;

  bool operator==(const RoundDescriptor&) const = default;
  std::string ToString() const;
};

RoundDescriptor DescribeRound(const ldpids::service::RoundRequest& request);

class ByteWriter {
 public:
  void U8(uint8_t v) { out_.push_back(v); }
  void U64(uint64_t v);
  void F64(double v);
  void Str(const std::string& s);
  void Descriptor(const RoundDescriptor& d);
  const std::vector<uint8_t>& bytes() const { return out_; }

 private:
  std::vector<uint8_t> out_;
};

// Reads what ByteWriter wrote; throws std::runtime_error on a short
// message.
class ByteReader {
 public:
  explicit ByteReader(const std::vector<uint8_t>& in) : in_(in) {}
  uint8_t U8();
  uint64_t U64();
  double F64();
  std::string Str();
  RoundDescriptor Descriptor();
  bool done() const { return pos_ == in_.size(); }

 private:
  const uint8_t* Take(std::size_t n);
  const std::vector<uint8_t>& in_;
  std::size_t pos_ = 0;
};

void SendMessage(int fd, MsgType type, const std::vector<uint8_t>& payload);
inline void SendMessage(int fd, MsgType type) { SendMessage(fd, type, {}); }

// Blocks until one whole message arrived. Returns false on a clean EOF
// before the header; throws on a truncated message or read error.
bool RecvMessage(int fd, MsgType* type, std::vector<uint8_t>* payload);

// Waits up to `timeout_ms` (-1 = forever) for `fd` to become readable.
bool WaitReadable(int fd, int timeout_ms);

// Connects a TCP socket to 127.0.0.1:`port` with TCP_NODELAY set.
int ConnectLoopback(uint16_t port);

// Steady-clock nanoseconds, the time base of every span.
using ldpids::obs::NowNs;

// CPU nanoseconds of the calling thread.
uint64_t ThreadCpuNs();

}  // namespace perfbench

#endif  // PERFBENCH_CONTROL_H_
