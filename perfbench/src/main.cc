// ldpids_perfbench — replay-driven serving benchmark.
//
//   ldpids_perfbench serve --workload NAME --seed N --seconds S --trace 0|1
//                          [--smoke 1] [--inject drop-frame|flip-release]
//   ldpids_perfbench generate ...   (spawned by `serve`; not run by hand)
//
// `serve` prints a metric table and, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}; it exits 0 only when
// every output check passed.
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string>

#include "roles.h"

namespace {

using perfbench::Inject;

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: ldpids_perfbench serve --workload NAME "
               "--seed N --seconds S --trace 0|1 [--smoke 0|1] "
               "[--inject none|drop-frame|flip-release]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage("missing role");
  const std::string role = argv[1];
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage(("bad argument " + key).c_str());
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 0) return Usage("flag without a value");
  auto take = [&](const std::string& key, const std::string& def) {
    const auto it = flags.find(key);
    if (it == flags.end()) return def;
    std::string v = it->second;
    flags.erase(it);
    return v;
  };
  try {
    perfbench::RunArgs run;
    run.workload = take("workload", "");
    run.seed = std::stoull(take("seed", "1"));
    run.seconds = std::stod(take("seconds", "10"));
    run.trace = take("trace", "0") == "1";
    run.smoke = take("smoke", "0") == "1";
    const std::string inject = take("inject", "none");
    if (inject == "drop-frame") {
      run.inject = Inject::kDropFrame;
    } else if (inject == "flip-release") {
      run.inject = Inject::kFlipRelease;
    } else if (inject != "none") {
      return Usage("unknown --inject");
    }
    if (run.workload.empty()) return Usage("--workload is required");
    if (!(run.seconds > 0.0)) return Usage("--seconds must be positive");

    if (role == "serve") {
      if (!flags.empty()) return Usage(("unknown flag --" + flags.begin()->first).c_str());
      return perfbench::ServerMain(run);
    }
    if (role == "generate") {
      perfbench::GeneratorArgs gen;
      gen.run = run;
      gen.control_fd = std::stoi(take("control-fd", "-1"));
      gen.data_port = static_cast<uint16_t>(std::stoul(take("port", "0")));
      gen.scrape_port =
          static_cast<uint16_t>(std::stoul(take("scrape-port", "0")));
      if (!flags.empty() || gen.control_fd < 0 || gen.data_port == 0) {
        return Usage("generate needs --control-fd and --port");
      }
      return perfbench::GeneratorMain(gen);
    }
    return Usage(("unknown role " + role).c_str());
  } catch (const std::invalid_argument&) {
    return Usage("malformed number");
  } catch (const std::out_of_range&) {
    return Usage("number out of range");
  }
}
