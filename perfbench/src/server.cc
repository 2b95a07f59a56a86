// The measured process: a MechanismSession served over the real socket
// path (SocketListener -> RoundBuffer -> ReportRouter -> mechanism), fed
// by the separate generator process, in a closed loop — the announce hook
// sends the round descriptor, the generator answers with the round's
// pre-encoded bytes, and the next timestamp starts once the release is
// out.
//
// The recording is finite, so the measured window is a sequence of replay
// passes: each pass runs a fresh session with the mechanism seed over the
// recorded timestamps, and every pass is checked against the recording
// (round descriptors by the generator, releases and reject accounting
// here). Spans are taken only around public calls: the announce hook,
// RoundBuffer::TakeRound, ReportRouter::IngestBatch (with its stage
// timing), the FrameHandler handed to SocketListener, and Advance().
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "control.h"
#include "hostile.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/scrape_endpoint.h"
#include "recording.h"
#include "roles.h"
#include "service/ingest.h"
#include "service/session.h"
#include "spans.h"
#include "transport/round_buffer.h"
#include "transport/socket.h"
#include "util/thread_pool.h"
#include "workload.h"

extern char** environ;

namespace perfbench {

namespace {

using ldpids::service::IngestStats;
using ldpids::service::MechanismSession;
using ldpids::service::ReportRouter;
using ldpids::service::RoundRequest;
using ldpids::service::SessionOptions;
using ldpids::service::SplitRoundTransport;
using ldpids::transport::DeliverResult;
using ldpids::transport::Frame;
using ldpids::transport::FrameStats;
using ldpids::transport::RoundBuffer;
using ldpids::transport::RoundBufferStats;
using ldpids::transport::SocketListener;

// Set-up repetitions per run; setup_s reports their median.
constexpr int kSetupReps = 3;
// Latency samples an untraced window collects at least, so that ten lie
// beyond the p99 (spans.h SamplesBeyond); also the block size of the
// reported release percentiles (spans.h BlockPercentile).
constexpr std::size_t kMinLatencySamples = 1000;
// Whole-run budget: passes stop starting after this, well inside the
// three-minute limit a run must meet.
constexpr double kRunBudgetS = 120.0;
// A traced reader times one FrameHandler call in this many.
constexpr uint64_t kDeliverSample = 8;

class CheckFailure : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

std::string U(uint64_t v) { return std::to_string(v); }

// What the generator recorded for one segment.
struct SegmentRef {
  std::vector<RoundDescriptor> rounds;
  std::vector<CopyCounts> copies;
  std::vector<uint64_t> digests;
  // Rounds of timestamps 0..T-1, i.e. the rounds a pass consumes.
  std::size_t consumed_rounds = 0;

  CopyCounts Sum(std::size_t n) const {
    CopyCounts total;
    for (std::size_t i = 0; i < n && i < copies.size(); ++i) {
      total += copies[i];
    }
    return total;
  }
};

struct Reference {
  std::size_t timestamps = 0;
  std::vector<SegmentRef> segments;
  SetupCosts costs;

  std::size_t rounds() const {
    std::size_t n = 0;
    for (const SegmentRef& s : segments) n += s.rounds.size();
    return n;
  }
};

struct GenPhase {
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;
  double respond_p50_ns = 0.0;
  uint64_t scrapes = 0;
  double scrape_p50_ns = 0.0;
};

struct GenReport {
  uint64_t data_frames = 0;     // written, frame-corrupt copies included
  uint64_t corrupt_frames = 0;
  uint64_t corrupt_bytes = 0;
  uint64_t markers = 0;
  GenPhase phases[kNumPhases];
};

// Sums of the traced spans and counters of one window.
struct Ledger {
  uint64_t rounds = 0;  // consumed rounds
  uint64_t announces = 0;
  uint64_t announce_ns = 0;
  uint64_t take_ns = 0;
  uint64_t ingest_ns = 0;
  uint64_t arena_ns = 0;
  uint64_t fold_ns = 0;
  uint64_t rows = 0;  // packets offered to IngestBatch
  uint64_t accepted = 0;
  uint64_t self_ns = 0;
};

struct Window {
  uint64_t wall_ns = 0;
  uint64_t advance_ns = 0;
  uint64_t accepted = 0;  // genuine reports folded
  uint64_t offered = 0;   // genuine reports sent in consumed rounds
  uint64_t passes = 0;
  std::vector<double> latency_ms;
  Ledger ledger;
  uint64_t timed_frames = 0;  // sampled FrameHandler calls
  uint64_t deliver_ns = 0;
  double reader_busy_share = 0.0;
  // Rate of each rotation (one pass over every segment), and the open
  // rotation's sums.
  std::vector<double> rotation_rates;
  uint64_t rotation_accepted = 0;
  uint64_t rotation_ns = 0;

  // Median over rotations: a burst of interference from outside the
  // benchmark moves one rotation, not the figure.
  double reports_per_s() const {
    if (!rotation_rates.empty()) return Median(rotation_rates);
    return advance_ns == 0 ? 0.0
                           : static_cast<double>(accepted) * 1e9 /
                                 static_cast<double>(advance_ns);
  }
};

uint64_t ThreadCpuNs(pthread_t thread) {
  clockid_t cid;
  if (pthread_getcpuclockid(thread, &cid) != 0) return 0;
  timespec ts{};
  if (clock_gettime(cid, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Peak resident set of this process since the last ResetPeakRss.
void ResetPeakRss() {
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw CheckFailure("no VmHWM in /proc/self/status");
}

// One server: listener, optional observability plane, and the generator
// process it feeds from.
class Harness {
 public:
  Harness(const Workload& w, const RunArgs& args);
  ~Harness();

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  // Replays the recording once through a fresh session, checking it.
  void RunPass(bool traced, Window* win);
  // Runs passes for `seconds` (and until `min_samples` latencies).
  Window RunWindow(uint8_t phase, bool traced, double seconds,
                   std::size_t min_samples, uint64_t budget_end_ns);
  // Ends the generator and the listener, then checks run totals.
  GenReport Finish();

  const Reference& reference() const { return ref_; }
  FrameStats frame_stats() const { return frame_stats_; }
  // Run totals over every pass of this harness, warm-up included.
  uint64_t deadline_flushes() const { return deadline_flushes_; }
  uint64_t duplicate_frames() const { return duplicate_frames_; }

 private:
  void OnFrame(Frame&& frame);
  void Spawn(uint16_t data_port, uint16_t scrape_port);
  void Receive(MsgType want, std::vector<uint8_t>* payload);
  void PollGeneratorError();
  void StopChild();

  const Workload& w_;
  const RunArgs& args_;
  const std::size_t threads_;
  Reference ref_;
  std::unique_ptr<ldpids::obs::MetricsRegistry> registry_;
  std::unique_ptr<ldpids::obs::FlightRecorder> recorder_;
  std::unique_ptr<ldpids::obs::ScrapeEndpoint> endpoint_;

  // One RoundBuffer per pass (round indices restart with each session);
  // drained buffers stay alive until the listener stops, so a reader
  // thread can never deliver into a destroyed one.
  std::deque<RoundBuffer> buffers_;
  std::atomic<RoundBuffer*> current_{nullptr};
  std::atomic<bool> tracing_{false};
  std::atomic<uint64_t> stray_frames_{0};
  std::atomic<uint64_t> refused_frames_{0};
  // One slot per listener reader thread (a deque: slots never move).
  struct ReaderSlot {
    pthread_t thread{};
    uint64_t tick = 0;  // reader-thread only
    std::atomic<uint64_t> timed{0};
    std::atomic<uint64_t> timed_ns{0};
  };
  std::mutex readers_mu_;
  std::deque<ReaderSlot> readers_;

  uint64_t passes_ = 0;
  uint64_t deadline_flushes_ = 0;
  uint64_t duplicate_frames_ = 0;
  bool flip_pending_ = false;
  FrameStats frame_stats_;
  pid_t child_ = -1;
  int ctl_ = -1;
  // Last: stops (and joins its reader threads) before what they touch.
  std::unique_ptr<SocketListener> listener_;
};

Harness::Harness(const Workload& w, const RunArgs& args)
    : w_(w),
      args_(args),
      threads_(std::min<std::size_t>(4, ldpids::HardwareThreads())) {
  if (w.observed) {
    registry_ = std::make_unique<ldpids::obs::MetricsRegistry>();
  }
  if (w.observed || args.trace) {
    recorder_ = std::make_unique<ldpids::obs::FlightRecorder>();
  }
  if (w.observed) {
    endpoint_ = std::make_unique<ldpids::obs::ScrapeEndpoint>(
        registry_.get(), recorder_.get());
  }
  listener_ = std::make_unique<SocketListener>(
      0, [this](Frame&& frame) { OnFrame(std::move(frame)); });
  if (w.observed) listener_->AttachMetrics(registry_.get(), "bench");
  Spawn(listener_->port(), endpoint_ ? endpoint_->port() : 0);

  std::vector<uint8_t> msg;
  Receive(MsgType::kReference, &msg);
  ByteReader in(msg);
  ref_.timestamps = in.U64();
  ref_.segments.resize(in.U64());
  for (SegmentRef& seg : ref_.segments) {
    const uint64_t rounds = in.U64();
    for (uint64_t i = 0; i < rounds; ++i) {
      seg.rounds.push_back(in.Descriptor());
      CopyCounts c;
      c.genuine = in.U64();
      c.duplicates = in.U64();
      c.frame_corrupt = in.U64();
      c.report_corrupt = in.U64();
      seg.copies.push_back(c);
      if (seg.rounds.back().timestamp < ref_.timestamps) {
        seg.consumed_rounds = i + 1;
      }
    }
    const uint64_t digests = in.U64();
    for (uint64_t i = 0; i < digests; ++i) seg.digests.push_back(in.U64());
    Check(seg.digests.size() == w.timestamps + 1,
          "generator recorded a different horizon");
  }
  Check(ref_.timestamps == w.timestamps && ref_.segments.size() == w.segments,
        "generator recorded a different workload");
  ref_.costs.record_s = in.F64();
  ref_.costs.produce_ns = in.U64();
  ref_.costs.produced_reports = in.U64();
  ref_.costs.encode_ns = in.U64();
  ref_.costs.encoded_frames = in.U64();
  Check(in.done(), "reference message has trailing bytes");
  Receive(MsgType::kReady, &msg);
}

Harness::~Harness() {
  StopChild();
  if (listener_) listener_->Stop();
}

void Harness::Spawn(uint16_t data_port, uint16_t scrape_port) {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    throw std::runtime_error("socketpair failed");
  }
  ctl_ = fds[0];
  ::fcntl(ctl_, F_SETFD, FD_CLOEXEC);
  const char* inject = args_.inject == Inject::kDropFrame ? "drop-frame"
                                                          : "none";
  std::vector<std::string> argv_s = {
      "ldpids_perfbench", "generate",
      "--workload",       args_.workload,
      "--seed",           std::to_string(args_.seed),
      "--smoke",          args_.smoke ? "1" : "0",
      "--inject",         inject,
      "--control-fd",     std::to_string(fds[1]),
      "--port",           std::to_string(data_port),
      "--scrape-port",    std::to_string(scrape_port)};
  std::vector<char*> argv;
  for (auto& s : argv_s) argv.push_back(s.data());
  argv.push_back(nullptr);
  const int rc = ::posix_spawn(&child_, "/proc/self/exe", nullptr, nullptr,
                               argv.data(), environ);
  ::close(fds[1]);
  if (rc != 0) {
    child_ = -1;
    throw std::runtime_error(std::string("posix_spawn: ") + std::strerror(rc));
  }
}

void Harness::Receive(MsgType want, std::vector<uint8_t>* payload) {
  MsgType type;
  Check(RecvMessage(ctl_, &type, payload), "generator exited early");
  if (type == MsgType::kError) {
    ByteReader in(*payload);
    throw CheckFailure("generator: " + in.Str());
  }
  Check(type == want, "unexpected control message from the generator");
}

void Harness::PollGeneratorError() {
  if (!WaitReadable(ctl_, 0)) return;
  std::vector<uint8_t> msg;
  Receive(MsgType::kError, &msg);  // anything else is out of protocol
}

void Harness::StopChild() {
  if (child_ <= 0) return;
  if (ctl_ >= 0) {
    ::close(ctl_);
    ctl_ = -1;
  }
  // Closing the control channel ends a healthy generator; one blocked on
  // a dead data connection ends when the listener closes it.
  if (listener_) listener_->Stop();
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(child_, nullptr, WNOHANG) == child_) {
      child_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(child_, SIGKILL);
  ::waitpid(child_, nullptr, 0);
  child_ = -1;
}

void Harness::OnFrame(Frame&& frame) {
  // Each listener reader thread registers its slot on its first frame.
  thread_local ReaderSlot* slot = nullptr;
  thread_local const Harness* owner = nullptr;
  if (owner != this) {
    std::lock_guard<std::mutex> lock(readers_mu_);
    slot = &readers_.emplace_back();
    slot->thread = pthread_self();
    owner = this;
  }
  RoundBuffer* buffer = current_.load(std::memory_order_acquire);
  if (buffer == nullptr) {
    stray_frames_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  DeliverResult result;
  // Traced: time one frame in kDeliverSample, so two clock reads per
  // frame do not slow the reader they measure.
  if (tracing_.load(std::memory_order_relaxed) &&
      slot->tick++ % kDeliverSample == 0) {
    const uint64_t t0 = NowNs();
    result = buffer->Deliver(std::move(frame));
    const uint64_t ns = NowNs() - t0;
    // Single writer per slot: plain load + store, no read-modify-write.
    slot->timed_ns.store(slot->timed_ns.load(std::memory_order_relaxed) + ns,
                         std::memory_order_relaxed);
    slot->timed.store(slot->timed.load(std::memory_order_relaxed) + 1,
                      std::memory_order_relaxed);
  } else {
    result = buffer->Deliver(std::move(frame));
  }
  if (result != DeliverResult::kBuffered &&
      result != DeliverResult::kEndMarker) {
    refused_frames_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Harness::RunPass(bool traced, Window* win) {
  // Passes rotate through the recorded segments.
  const std::size_t k = passes_++ % ref_.segments.size();
  const SegmentRef& seg = ref_.segments[k];
  ByteWriter pass;
  pass.U64(k);
  SendMessage(ctl_, MsgType::kPass, pass.bytes());

  RoundBuffer& buffer = buffers_.emplace_back();
  if (w_.observed) buffer.AttachMetrics(registry_.get(), "bench");
  current_.store(&buffer, std::memory_order_release);

  std::vector<Span> advance_spans, child_spans, announce_spans;
  Ledger& led = win->ledger;
  const uint64_t pass_start = NowNs();

  SplitRoundTransport transport;
  transport.announce = [&](const RoundRequest& request) {
    const uint64_t t0 = traced ? NowNs() : 0;
    ByteWriter out;
    out.Descriptor(DescribeRound(request));
    SendMessage(ctl_, MsgType::kAnnounce, out.bytes());
    if (traced) announce_spans.push_back({t0, NowNs()});
  };
  // Runs on the session's ingest worker when pipelined; only it touches
  // child_spans and the ingest sums until the session is destroyed.
  transport.ingest = [&](const RoundRequest& request, ReportRouter& router) {
    if (!traced) {
      router.IngestBatch(buffer.TakeRound(request.round_index), threads_);
      return;
    }
    const uint64_t t0 = NowNs();
    const auto packets = buffer.TakeRound(request.round_index);
    const uint64_t t1 = NowNs();
    router.EnableStageTiming();
    router.IngestBatch(packets, threads_);
    const uint64_t t2 = NowNs();
    child_spans.push_back({t0, t1});
    child_spans.push_back({t1, t2});
    if (request.round_index < seg.consumed_rounds) {
      led.take_ns += t1 - t0;
      led.ingest_ns += t2 - t1;
      led.arena_ns += router.stage_nanos().arena_decode;
      led.fold_ns += router.stage_nanos().shard_fold;
      led.rows += packets.size();
    }
  };

  SessionOptions options;
  options.num_shards = 0;  // adaptive
  options.num_threads = threads_;
  options.pipeline_depth = w_.pipeline_depth;
  options.metrics = registry_.get();
  options.metrics_label = "bench";
  if (w_.observed || traced) options.recorder = recorder_.get();

  IngestStats stats;
  uint64_t pass_ns = 0;
  {
    MechanismSession session(
        MakeWorkloadMechanism(w_, SegmentSeed(args_.seed, k)), w_.domain,
        options, transport);
    for (std::size_t t = 0; t < w_.timestamps; ++t) {
      const uint64_t t0 = NowNs();
      ldpids::StepResult step = session.Advance();
      const uint64_t t1 = NowNs();
      advance_spans.push_back({t0, t1});
      win->latency_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      pass_ns += t1 - t0;
      if (flip_pending_ && t == w_.timestamps / 2) {
        flip_pending_ = false;  // self-test: one flipped release bit
        uint64_t bits = DoubleBits(step.release.at(0)) ^ 1;
        std::memcpy(&step.release[0], &bits, sizeof(bits));
      }
      Check(ReleaseDigest(step) == seg.digests[t],
            "release at timestamp " + U(t) + " of segment " + U(k) +
                " differs from the recording pass");
    }
    stats = session.stats();
  }  // joins the ingest worker; a prefetched round is drained
  current_.store(nullptr, std::memory_order_release);
  PollGeneratorError();

  // Reject accounting against the hostile plan's arithmetic.
  const ExpectedRejects consumed = Expect(seg.Sum(seg.consumed_rounds));
  Check(stats.accepted == consumed.accepted &&
            stats.duplicate == consumed.duplicate &&
            stats.malformed == consumed.malformed &&
            stats.wrong_oracle == 0 && stats.wrong_timestamp == 0 &&
            stats.sketch_rejected == 0,
        "ingest accounting " + stats.ToString() + " but expected accepted=" +
            U(consumed.accepted) + " duplicate=" + U(consumed.duplicate) +
            " malformed=" + U(consumed.malformed));
  const RoundBufferStats bs = buffer.stats();
  const ExpectedRejects drained = Expect(seg.Sum(bs.rounds_drained));
  deadline_flushes_ += bs.deadline_flushes;
  duplicate_frames_ += bs.duplicate_frames;
  Check(bs.deadline_flushes == 0 && bs.dropped() == 0 &&
            bs.buffered == drained.buffered &&
            bs.duplicate_frames == drained.duplicate_frames,
        "round buffer accounting " + bs.ToString() + " but expected buffered=" +
            U(drained.buffered) +
            " duplicate_frames=" + U(drained.duplicate_frames));

  win->advance_ns += pass_ns;
  win->accepted += stats.accepted;
  win->offered += consumed.accepted;
  win->rotation_accepted += stats.accepted;
  win->rotation_ns += pass_ns;
  if (++win->passes % ref_.segments.size() == 0) {
    win->rotation_rates.push_back(static_cast<double>(win->rotation_accepted) *
                                  1e9 /
                                  static_cast<double>(win->rotation_ns));
    win->rotation_accepted = 0;
    win->rotation_ns = 0;
  }
  if (traced) {
    led.rounds += seg.consumed_rounds;
    led.accepted += stats.accepted;
    led.announces += announce_spans.size();
    for (const Span& s : announce_spans) led.announce_ns += s.length();
    child_spans.insert(child_spans.end(), announce_spans.begin(),
                       announce_spans.end());
    // The session's own stage windows inside Advance: merge, estimate
    // and post-process, from the flight recorder attached for tracing.
    for (const auto& e : recorder_->Snapshot().events) {
      if (e.t_start_ns < pass_start) continue;
      if (e.stage == ldpids::obs::Stage::kMerge ||
          e.stage == ldpids::obs::Stage::kEstimate ||
          e.stage == ldpids::obs::Stage::kPostProcess) {
        child_spans.push_back({e.t_start_ns, e.t_end_ns});
      }
    }
    led.self_ns += SelfTimeNs(advance_spans, child_spans);
  }
}

Window Harness::RunWindow(uint8_t phase, bool traced, double seconds,
                          std::size_t min_samples, uint64_t budget_end_ns) {
  ByteWriter out;
  out.U8(phase);
  SendMessage(ctl_, MsgType::kPhase, out.bytes());
  flip_pending_ = args_.inject == Inject::kFlipRelease;

  // Every reader registered during the warm-up pass; none join later.
  struct ReaderStart {
    pthread_t thread;
    uint64_t cpu_ns, timed, timed_ns;
  };
  std::vector<ReaderStart> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const ReaderSlot& r : readers_) {
      readers.push_back({r.thread, ThreadCpuNs(r.thread), r.timed.load(),
                         r.timed_ns.load()});
    }
  }
  tracing_.store(traced);

  Window win;
  const uint64_t start = NowNs();
  const uint64_t until = start + static_cast<uint64_t>(seconds * 1e9);
  do {
    RunPass(traced, &win);
  } while ((NowNs() < until || win.latency_ms.size() < min_samples ||
            win.passes % ref_.segments.size() != 0) &&
           NowNs() < budget_end_ns);
  win.wall_ns = NowNs() - start;

  tracing_.store(false);
  std::lock_guard<std::mutex> lock(readers_mu_);
  for (std::size_t i = 0; i < readers.size(); ++i) {
    const ReaderSlot& r = readers_[i];
    win.timed_frames += r.timed.load() - readers[i].timed;
    win.deliver_ns += r.timed_ns.load() - readers[i].timed_ns;
    const uint64_t busy = ThreadCpuNs(r.thread) - readers[i].cpu_ns;
    win.reader_busy_share =
        std::max(win.reader_busy_share,
                 static_cast<double>(busy) / static_cast<double>(win.wall_ns));
  }
  return win;
}

GenReport Harness::Finish() {
  SendMessage(ctl_, MsgType::kFinish);
  std::vector<uint8_t> msg;
  Receive(MsgType::kReport, &msg);
  ByteReader in(msg);
  GenReport r;
  r.data_frames = in.U64();
  r.corrupt_frames = in.U64();
  r.corrupt_bytes = in.U64();
  r.markers = in.U64();
  for (GenPhase& p : r.phases) {
    p.wall_ns = in.U64();
    p.cpu_ns = in.U64();
    p.respond_p50_ns = in.F64();
    p.scrapes = in.U64();
    p.scrape_p50_ns = in.F64();
  }
  Check(in.done(), "generator report has trailing bytes");
  int status = 0;
  ::waitpid(child_, &status, 0);
  child_ = -1;
  ::close(ctl_);
  ctl_ = -1;
  Check(WIFEXITED(status) && WEXITSTATUS(status) == 0,
        "generator exited abnormally");
  // Per-connection decoder stats fold into the listener's once the
  // generator's connections close; Stop() waits for every reader.
  listener_->Stop();
  frame_stats_ = listener_->stats();

  Check(stray_frames_.load() == 0, U(stray_frames_.load()) +
                                       " frames arrived between passes");
  Check(refused_frames_.load() == 0,
        U(refused_frames_.load()) + " frames refused by the round buffer");
  // Each frame-corrupt copy fails its checksum where it starts, and the
  // decoder then skips exactly its bytes. A false frame start among those
  // bytes can add a mismatch but never costs a real frame, so the
  // mismatch count is a lower bound and the skipped bytes are exact.
  const FrameStats& fs = frame_stats_;
  Check(fs.data_frames == r.data_frames - r.corrupt_frames &&
            fs.checksum_mismatch >= r.corrupt_frames &&
            fs.skipped_bytes == r.corrupt_bytes &&
            fs.end_round_frames == r.markers,
        "frame decode accounting " + fs.ToString() + " but sent data=" +
            U(r.data_frames) + " corrupt=" + U(r.corrupt_frames) + " (" +
            U(r.corrupt_bytes) + " B) markers=" + U(r.markers));
  return r;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& table,
                 const std::vector<Metric>& json) {
  for (const Metric& m : table) {
    std::printf("  %-36s %18.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < json.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", json[i].name.c_str(), json[i].value,
                json[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace

int ServerMain(const RunArgs& args) {
  const Workload* found = FindWorkload(args.workload);
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload w = args.smoke ? SmokeSize(*found) : *found;
  const uint64_t budget_end =
      NowNs() + static_cast<uint64_t>(kRunBudgetS * 1e9);
  Window untraced;
  Window traced;
  try {
    std::vector<double> setup_s;
    std::unique_ptr<Harness> h;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      if (h) {
        h->Finish();
        h.reset();
      }
      const uint64_t t0 = NowNs();
      h = std::make_unique<Harness>(w, args);
      // Warm-up pass: starts the lazy pool lanes, fills the decoders'
      // buffer pools and the routers' arenas before timing.
      Window warm;
      h->RunPass(false, &warm);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }

    ResetPeakRss();
    if (!args.trace) {
      untraced = h->RunWindow(kPhaseUntraced, false, args.seconds,
                              kMinLatencySamples, budget_end);
    } else {
      untraced = h->RunWindow(kPhaseUntraced, false, args.seconds / 2, 0,
                              budget_end);
      traced = h->RunWindow(kPhaseTraced, true, args.seconds / 2, 0,
                            budget_end);
    }
    const double peak_rss_mb = PeakRssMb();
    const Reference ref = h->reference();
    const GenReport gen = h->Finish();
    const FrameStats fs = h->frame_stats();
    const uint64_t flushes = h->deadline_flushes();
    const uint64_t dup_frames = h->duplicate_frames();
    h.reset();

    const uint64_t attempted = untraced.offered + traced.offered;
    const uint64_t failed =
        attempted - (untraced.accepted + traced.accepted);
    const double samples = static_cast<double>(untraced.latency_ms.size());
    const double supported = SupportedPercentile(untraced.latency_ms.size());
    Check(args.trace || supported >= 99.0,
          "too few latency samples for a p99: " + U(untraced.latency_ms.size()));

    std::vector<Metric> table;
    std::vector<Metric> json;
    std::printf("%s seed=%llu: %llu passes of %zu timestamps, %zu rounds "
                "recorded, %.0f latency samples\n",
                w.name.c_str(), static_cast<unsigned long long>(args.seed),
                static_cast<unsigned long long>(untraced.passes + traced.passes),
                w.timestamps, ref.rounds(), samples);
    if (!args.trace) {
      json = {
          {"reports_per_s", untraced.reports_per_s(), "1/s"},
          {"release_p50_ms",
           BlockPercentile(untraced.latency_ms, 50.0, kMinLatencySamples),
           "ms"},
          {"release_p99_ms",
           BlockPercentile(untraced.latency_ms, 99.0, kMinLatencySamples),
           "ms"},
          {"setup_s", Median(setup_s), "s"},
          {"server_peak_rss_mb", peak_rss_mb, "MB"},
      };
      table = json;
      table.push_back({"failed_share",
                       Ratio(static_cast<double>(failed),
                             static_cast<double>(attempted)),
                       "share"});
      table.push_back({"latency_samples", samples, "count"});
      table.push_back({"latency_supported_percentile", supported, "pct"});
      table.push_back({"latency_blocks",
                       static_cast<double>(std::max<std::size_t>(
                           1, untraced.latency_ms.size() / kMinLatencySamples)),
                       "count"});
      table.push_back({"release_p99_ms_whole_window",
                       Percentile(untraced.latency_ms, 99.0), "ms"});
    } else {
      const Ledger& L = traced.ledger;
      const GenPhase& g = gen.phases[kPhaseTraced];
      const double rows = static_cast<double>(L.rows);
      json = {
          {"transport.deliver_ns_per_frame",
           Ratio(static_cast<double>(traced.deliver_ns),
                 static_cast<double>(traced.timed_frames)),
           "ns"},
          {"transport.reader_busy_share", traced.reader_busy_share, "share"},
          {"transport.round_wait_ns_per_round",
           Ratio(static_cast<double>(L.take_ns),
                 static_cast<double>(L.rounds)),
           "ns"},
          {"transport.frames", static_cast<double>(fs.frames), "count"},
          {"transport.bytes_per_frame",
           Ratio(static_cast<double>(fs.bytes), static_cast<double>(fs.frames)),
           "B"},
          {"transport.frame_errors", static_cast<double>(fs.errors()), "count"},
          {"transport.duplicate_frames", static_cast<double>(dup_frames),
           "count"},
          {"transport.deadline_flushes", static_cast<double>(flushes),
           "count"},
          {"fo.fold_ns_per_report",
           Ratio(static_cast<double>(L.fold_ns), rows), "ns"},
          {"fo.arena_decode_ns_per_report",
           Ratio(static_cast<double>(L.arena_ns), rows), "ns"},
          {"fo.client_produce_ns_per_report",
           Ratio(static_cast<double>(ref.costs.produce_ns),
                 static_cast<double>(ref.costs.produced_reports)),
           "ns"},
          {"setup.encode_ns_per_frame",
           Ratio(static_cast<double>(ref.costs.encode_ns),
                 static_cast<double>(ref.costs.encoded_frames)),
           "ns"},
          {"setup.record_s", ref.costs.record_s, "s"},
          {"service.ingest_ns_per_report",
           Ratio(static_cast<double>(L.ingest_ns), rows), "ns"},
          {"service.accept_ratio", Ratio(static_cast<double>(L.accepted), rows),
           "share"},
          {"service.session_self_ns_per_round",
           Ratio(static_cast<double>(L.self_ns),
                 static_cast<double>(L.rounds)),
           "ns"},
          {"service.announce_ns_per_round",
           Ratio(static_cast<double>(L.announce_ns),
                 static_cast<double>(L.announces)),
           "ns"},
          {"obs.scrape_ms_p50", g.scrape_p50_ns / 1e6, "ms"},
          {"obs.scrapes", static_cast<double>(g.scrapes), "count"},
          {"loadgen.busy_share",
           Ratio(static_cast<double>(g.cpu_ns), static_cast<double>(g.wall_ns)),
           "share"},
          {"loadgen.respond_ms_p50", g.respond_p50_ns / 1e6, "ms"},
          {"trace.overhead_share",
           1.0 - Ratio(traced.reports_per_s(), untraced.reports_per_s()),
           "share"},
      };
      table = json;
      table.push_back({"untraced_reports_per_s", untraced.reports_per_s(),
                       "1/s"});
      table.push_back({"traced_reports_per_s", traced.reports_per_s(), "1/s"});
    }
    PrintResult(failed == 0, attempted, failed, table, json);
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    // A failed check, or the session itself failing (a round that ended
    // with zero reports after a deadline flush, for one).
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    const uint64_t attempted = untraced.offered + traced.offered;
    PrintResult(false, attempted, std::max<uint64_t>(1, attempted), {}, {});
    return 1;
  }
}

}  // namespace perfbench
