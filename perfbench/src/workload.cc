#include "workload.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/factory.h"
#include "datagen/realworld_sim.h"
#include "datagen/synthetic.h"
#include "util/rng.h"

namespace perfbench {

using ldpids::HashCounter;
using ldpids::Mix64;

namespace {

constexpr uint64_t kStreamShapeSeed = 20220612;

}  // namespace

const std::vector<Workload>& AllWorkloads() {
  static const std::vector<Workload> kWorkloads = [] {
    std::vector<Workload> all;
    Workload grr;
    grr.name = "bd-grr-wire";
    grr.mechanism = "LBD";
    grr.oracle = "GRR";
    grr.domain = 77;
    grr.users = 20000;
    grr.timestamps = 40;
    grr.segments = 2;
    all.push_back(grr);

    Workload olh;
    olh.name = "bd-olh-live";
    olh.mechanism = "LBA";
    olh.oracle = "OLH";
    olh.domain = 1024;
    olh.users = 10000;
    olh.timestamps = 40;
    olh.connections = 3;
    olh.pipeline_depth = 2;
    olh.observed = true;
    olh.hostile = true;
    all.push_back(olh);

    Workload oue;
    oue.name = "pd-oue-rounds";
    oue.mechanism = "LPA";
    oue.oracle = "OUE";
    oue.domain = 512;
    oue.users = 40000;
    oue.timestamps = 250;
    oue.segments = 4;
    all.push_back(oue);
    return all;
  }();
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : AllWorkloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload SmokeSize(Workload w) {
  w.users = std::max<uint64_t>(400, w.users / 50);
  w.timestamps = std::max<std::size_t>(w.window / 2, w.timestamps / 4);
  w.segments = std::min<std::size_t>(w.segments, 2);
  return w;
}

uint64_t DatasetSeed(uint64_t seed) { return HashCounter(seed, 1, 0x5eed); }
uint64_t FleetSeed(uint64_t seed) { return HashCounter(seed, 2, 0x5eed); }
uint64_t MechanismSeed(uint64_t seed) { return HashCounter(seed, 3, 0x5eed); }
uint64_t SegmentSeed(uint64_t seed, std::size_t k) {
  return k == 0 ? seed : HashCounter(seed, k, 0x5e9);
}

std::shared_ptr<ldpids::StreamDataset> MakeWorkloadDataset(const Workload& w,
                                                           uint64_t seed) {
  // The stream's shape — drift, diurnal cycle, bursts — is part of the
  // workload and fixed; the seed draws each user's values from it. The
  // mechanism's publish/approximate pattern, and with it the round mix a
  // pass serves, then varies between seeds only through sampling and
  // perturbation noise.
  ldpids::RealWorldSimOptions options;
  options.seed = kStreamShapeSeed;
  const auto shape = ldpids::MakeDriftingZipfDataset(
      w.name, w.users, w.timestamps + 1, w.domain,
      /*timestamps_per_day=*/24, options);
  std::vector<ldpids::Histogram> distributions;
  for (std::size_t t = 0; t < shape->length(); ++t) {
    distributions.push_back(shape->DistributionAt(t));
  }
  return std::make_shared<ldpids::DistributionSequenceDataset>(
      w.name, w.users, std::move(distributions), DatasetSeed(seed));
}

std::unique_ptr<ldpids::StreamMechanism> MakeWorkloadMechanism(
    const Workload& w, uint64_t seed) {
  ldpids::MechanismConfig config;
  config.epsilon = 1.0;
  config.window = w.window;
  config.fo = w.oracle;
  config.seed = MechanismSeed(seed);
  return ldpids::CreateMechanism(w.mechanism, config, w.users);
}

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

uint64_t ReleaseDigest(const ldpids::StepResult& step) {
  uint64_t h = Mix64(step.published ? 0x9b1 : 0x9b0);
  h = Mix64(h ^ step.release.size());
  for (const double v : step.release) h = Mix64(h ^ DoubleBits(v));
  return h;
}

uint64_t CohortDigest(const ldpids::service::RoundRequest& request) {
  if (request.cohort == nullptr) return Mix64(0xa11a11a11ull);
  uint64_t h = Mix64(request.cohort->size());
  for (const uint32_t user : *request.cohort) h = Mix64(h ^ user);
  return h;
}

}  // namespace perfbench
