// The benchmark's two processes. The server role is what a run measures;
// it spawns the generator role as a separate process (the same binary)
// that records and pre-encodes the traffic, then answers every announced
// round with that round's pre-encoded bytes.
#ifndef PERFBENCH_ROLES_H_
#define PERFBENCH_ROLES_H_

#include <cstdint>
#include <string>

namespace perfbench {

// Fault injection for the self-test: each must make the run fail.
enum class Inject { kNone, kDropFrame, kFlipRelease };

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny workload sizes (SmokeSize)
  Inject inject = Inject::kNone;
};

struct GeneratorArgs {
  RunArgs run;
  int control_fd = -1;
  uint16_t data_port = 0;
  uint16_t scrape_port = 0;  // 0: no scrape connection
};

int ServerMain(const RunArgs& args);
int GeneratorMain(const GeneratorArgs& args);

// Generator phases, announced by the server with MsgType::kPhase.
inline constexpr uint8_t kPhaseSetup = 0;
inline constexpr uint8_t kPhaseUntraced = 1;
inline constexpr uint8_t kPhaseTraced = 2;
inline constexpr uint8_t kNumPhases = 3;

}  // namespace perfbench

#endif  // PERFBENCH_ROLES_H_
