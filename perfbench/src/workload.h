// The benchmark's workloads: which mechanism, oracle, population and
// serving configuration each one drives, and the deterministic inputs
// (dataset, client fleet, mechanism seed) derived from the workload seed.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mechanism.h"
#include "service/session.h"
#include "stream/dataset.h"

namespace perfbench {

struct Workload {
  std::string name;
  std::string mechanism;  // LBD | LBA | LPA
  std::string oracle;     // GRR | OLH | OUE
  std::size_t domain = 0;
  uint64_t users = 0;
  std::size_t window = 20;
  // Timestamps released by one replay pass. The recording covers one more
  // (see RecordWorkload) so a pipelined session's prefetch has its round.
  std::size_t timestamps = 0;
  // Independent realizations recorded per run; replay passes rotate
  // through them, so one run's figures average over several mechanism
  // trajectories instead of hanging on one (LPA's largest absorbed
  // publication, for one, differs between trajectories).
  std::size_t segments = 1;
  std::size_t connections = 1;     // striped data connections
  std::size_t pipeline_depth = 1;  // SessionOptions::pipeline_depth
  // Deployed observability: metrics registry, flight recorder, and a
  // scrape endpoint that the generator polls on its own connection.
  bool observed = false;
  // Extra damaged and duplicate copies of genuine reports (hostile.h).
  bool hostile = false;
};

// The three benchmark workloads, in BENCHMARK.json order.
const std::vector<Workload>& AllWorkloads();

// Looks a workload up by name; nullptr when unknown.
const Workload* FindWorkload(const std::string& name);

// A tiny version of `w` for smoke tests: users and timestamps scaled down,
// every serving feature kept.
Workload SmokeSize(Workload w);

// Seeds of the three independent input streams, derived from the
// benchmark's --seed.
uint64_t DatasetSeed(uint64_t seed);
uint64_t FleetSeed(uint64_t seed);
uint64_t MechanismSeed(uint64_t seed);
// Seed of segment `k` of a run with workload seed `seed`.
uint64_t SegmentSeed(uint64_t seed, std::size_t k);

// A drifting-Zipf stream (datagen/realworld_sim.h) of timestamps() + 1
// timestamps over the workload's domain and population.
std::shared_ptr<ldpids::StreamDataset> MakeWorkloadDataset(const Workload& w,
                                                           uint64_t seed);

// The workload's mechanism, epsilon = 1, seeded from `seed`.
std::unique_ptr<ldpids::StreamMechanism> MakeWorkloadMechanism(
    const Workload& w, uint64_t seed);

// Digest of one release: its published flag and the exact bits of every
// estimate, so any single flipped bit changes it.
uint64_t ReleaseDigest(const ldpids::StepResult& step);

// Digest of a round's cohort: the member list for population division,
// a fixed marker for whole-population rounds.
uint64_t CohortDigest(const ldpids::service::RoundRequest& request);

// Bit pattern of a double, for exact comparisons of round budgets.
uint64_t DoubleBits(double value);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
