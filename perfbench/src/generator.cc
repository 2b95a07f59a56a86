// The load-generator process: records the workload once, pre-encodes its
// traffic, then answers each round descriptor the server announces by
// writing that round's bytes. One thread serves the whole measured window
// (recording fans ClientFleet production over the shared pool first), so
// the generator never competes with the server for more than one core.
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "control.h"
#include "recording.h"
#include "roles.h"
#include "spans.h"
#include "transport/socket_util.h"
#include "util/thread_pool.h"
#include "workload.h"

namespace perfbench {

namespace {

using ldpids::transport::SendAll;

constexpr int kScrapeIntervalMs = 100;

struct PhaseStats {
  uint64_t start_ns = 0;
  uint64_t cpu_start_ns = 0;
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  std::vector<double> respond_ns;
  std::vector<double> scrape_ns;
};

double MedianOrZero(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Median(v);
}

// One GET /metrics over a keep-alive connection to the ScrapeEndpoint.
void Scrape(int fd) {
  static const char kRequest[] =
      "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
  SendAll(fd, reinterpret_cast<const uint8_t*>(kRequest),
          sizeof(kRequest) - 1);
  std::string in;
  std::size_t header_end = std::string::npos;
  std::size_t body_len = 0;
  char buf[16384];
  for (;;) {
    if (header_end != std::string::npos &&
        in.size() >= header_end + 4 + body_len) {
      break;
    }
    const ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) throw std::runtime_error("scrape connection closed");
    in.append(buf, static_cast<std::size_t>(r));
    if (header_end == std::string::npos) {
      header_end = in.find("\r\n\r\n");
      if (header_end == std::string::npos) continue;
      if (in.compare(0, 12, "HTTP/1.1 200") != 0) {
        throw std::runtime_error("scrape answered " + in.substr(0, 16));
      }
      const std::size_t cl = in.find("Content-Length: ");
      if (cl == std::string::npos || cl > header_end) {
        throw std::runtime_error("scrape response without Content-Length");
      }
      body_len = std::stoul(in.substr(cl + 16, header_end - cl - 16));
    }
  }
}

[[noreturn]] void Fail(int control_fd, const std::string& what) {
  std::fprintf(stderr, "generator: %s\n", what.c_str());
  ByteWriter w;
  w.Str(what);
  try {
    SendMessage(control_fd, MsgType::kError, w.bytes());
  } catch (...) {
  }
  std::_Exit(1);
}

void SendReference(int fd, const Workload& w, const Recording& rec) {
  ByteWriter out;
  out.U64(w.timestamps);
  out.U64(rec.segments.size());
  for (const Segment& seg : rec.segments) {
    out.U64(seg.rounds.size());
    for (const RecordedRound& r : seg.rounds) {
      out.Descriptor(r.descriptor);
      out.U64(r.copies.genuine);
      out.U64(r.copies.duplicates);
      out.U64(r.copies.frame_corrupt);
      out.U64(r.copies.report_corrupt);
    }
    out.U64(seg.release_digests.size());
    for (const uint64_t d : seg.release_digests) out.U64(d);
  }
  out.F64(rec.costs.record_s);
  out.U64(rec.costs.produce_ns);
  out.U64(rec.costs.produced_reports);
  out.U64(rec.costs.encode_ns);
  out.U64(rec.costs.encoded_frames);
  SendMessage(fd, MsgType::kReference, out.bytes());
}

}  // namespace

int GeneratorMain(const GeneratorArgs& args) {
  const int ctl = args.control_fd;
  try {
    const Workload* found = FindWorkload(args.run.workload);
    if (found == nullptr) Fail(ctl, "unknown workload " + args.run.workload);
    const Workload w = args.run.smoke ? SmokeSize(*found) : *found;
    const std::size_t threads = std::min<std::size_t>(4, ldpids::HardwareThreads());

    const Recording rec =
        RecordWorkload(w, args.run.seed, threads,
                       args.run.inject == Inject::kDropFrame);
    SendReference(ctl, w, rec);

    std::vector<int> data_fds;
    for (std::size_t c = 0; c < w.connections; ++c) {
      data_fds.push_back(ConnectLoopback(args.data_port));
    }
    const int scrape_fd =
        args.scrape_port != 0 ? ConnectLoopback(args.scrape_port) : -1;
    SendMessage(ctl, MsgType::kReady);

    std::vector<PhaseStats> phases(kNumPhases);
    uint8_t phase = kPhaseSetup;
    phases[phase].start_ns = NowNs();
    phases[phase].cpu_start_ns = ThreadCpuNs();
    auto close_phase = [&] {
      PhaseStats& p = phases[phase];
      p.wall_ns += NowNs() - p.start_ns;
      p.cpu_ns += ThreadCpuNs() - p.cpu_start_ns;
    };

    uint64_t data_frames = 0;
    uint64_t corrupt_frames = 0;
    uint64_t corrupt_bytes = 0;
    uint64_t markers = 0;
    const Segment* segment = &rec.segments[0];
    uint64_t expected_round = 0;
    uint64_t next_scrape = NowNs() + kScrapeIntervalMs * 1000000ull;
    std::vector<uint8_t> msg;
    for (;;) {
      int timeout = -1;
      if (scrape_fd >= 0) {
        const uint64_t now = NowNs();
        timeout = next_scrape > now
                      ? static_cast<int>((next_scrape - now) / 1000000 + 1)
                      : 0;
      }
      if (!WaitReadable(ctl, timeout)) {
        const uint64_t t0 = NowNs();
        Scrape(scrape_fd);
        phases[phase].scrape_ns.push_back(static_cast<double>(NowNs() - t0));
        next_scrape = NowNs() + kScrapeIntervalMs * 1000000ull;
        continue;
      }
      MsgType type;
      if (!RecvMessage(ctl, &type, &msg)) return 1;  // server went away
      ByteReader in(msg);
      if (type == MsgType::kAnnounce) {
        const uint64_t t0 = NowNs();
        const RoundDescriptor d = in.Descriptor();
        if (d.round_index != expected_round) {
          Fail(ctl, "round sequence broken: expected round " +
                        std::to_string(expected_round) + ", got " +
                        d.ToString());
        }
        // Bounds check: a round past the recording (a pipelined prefetch
        // beyond the recorded horizon) fails here at once instead of
        // leaving the server to wait out its round deadline.
        if (d.round_index >= segment->rounds.size()) {
          Fail(ctl, "announced round " + std::to_string(d.round_index) +
                        " is out of range of the recording (" +
                        std::to_string(segment->rounds.size()) + " rounds)");
        }
        const RecordedRound& round = segment->rounds[d.round_index];
        if (!(d == round.descriptor)) {
          Fail(ctl, "announced " + d.ToString() + " but recorded " +
                        round.descriptor.ToString());
        }
        expected_round = d.round_index + 1;
        // Connection 0 carries the end-of-round marker; write it last.
        for (std::size_t c = w.connections; c-- > 0;) {
          for (const auto& chunk : round.chunks[c]) {
            SendAll(data_fds[c], chunk.data(), chunk.size());
          }
        }
        data_frames += round.data_frames;
        corrupt_frames += round.copies.frame_corrupt;
        corrupt_bytes += round.corrupt_bytes;
        ++markers;
        phases[phase].respond_ns.push_back(static_cast<double>(NowNs() - t0));
      } else if (type == MsgType::kPass) {
        // A fresh session restarts at round 0 of the pass's segment.
        const uint64_t k = in.U64();
        if (k >= rec.segments.size()) Fail(ctl, "bad segment");
        segment = &rec.segments[k];
        expected_round = 0;
      } else if (type == MsgType::kPhase) {
        close_phase();
        phase = in.U8();
        if (phase >= kNumPhases) Fail(ctl, "bad phase");
        phases[phase].start_ns = NowNs();
        phases[phase].cpu_start_ns = ThreadCpuNs();
      } else if (type == MsgType::kFinish) {
        close_phase();
        for (const int fd : data_fds) ::close(fd);
        if (scrape_fd >= 0) ::close(scrape_fd);
        ByteWriter out;
        out.U64(data_frames);
        out.U64(corrupt_frames);
        out.U64(corrupt_bytes);
        out.U64(markers);
        for (const PhaseStats& p : phases) {
          out.U64(p.wall_ns);
          out.U64(p.cpu_ns);
          out.F64(MedianOrZero(p.respond_ns));
          out.U64(p.scrape_ns.size());
          out.F64(MedianOrZero(p.scrape_ns));
        }
        SendMessage(ctl, MsgType::kReport, out.bytes());
        return 0;
      } else {
        Fail(ctl, "unexpected control message");
      }
    }
  } catch (const std::exception& e) {
    Fail(ctl, e.what());
  }
}

}  // namespace perfbench
