#include "control.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <stdexcept>

#include "transport/socket_util.h"
#include "workload.h"

namespace perfbench {

std::string RoundDescriptor::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{round %llu, t %llu, eps bits %016llx, oracle %u, "
                "cohort %016llx}",
                static_cast<unsigned long long>(round_index),
                static_cast<unsigned long long>(timestamp),
                static_cast<unsigned long long>(epsilon_bits),
                static_cast<unsigned>(oracle),
                static_cast<unsigned long long>(cohort_digest));
  return buf;
}

RoundDescriptor DescribeRound(const ldpids::service::RoundRequest& request) {
  RoundDescriptor d;
  d.round_index = request.round_index;
  d.timestamp = request.timestamp;
  d.epsilon_bits = DoubleBits(request.epsilon);
  d.oracle = static_cast<uint8_t>(request.oracle);
  d.cohort_digest = CohortDigest(request);
  return d;
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::F64(double v) { U64(DoubleBits(v)); }

void ByteWriter::Str(const std::string& s) {
  U64(s.size());
  out_.insert(out_.end(), s.begin(), s.end());
}

void ByteWriter::Descriptor(const RoundDescriptor& d) {
  U64(d.round_index);
  U64(d.timestamp);
  U64(d.epsilon_bits);
  U8(d.oracle);
  U64(d.cohort_digest);
}

const uint8_t* ByteReader::Take(std::size_t n) {
  if (in_.size() - pos_ < n) {
    throw std::runtime_error("control message too short");
  }
  const uint8_t* p = in_.data() + pos_;
  pos_ += n;
  return p;
}

uint8_t ByteReader::U8() { return *Take(1); }

uint64_t ByteReader::U64() {
  const uint8_t* p = Take(8);
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(p[i]) << (8 * i);
  return v;
}

double ByteReader::F64() {
  const uint64_t bits = U64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::Str() {
  const uint64_t n = U64();
  if (n > in_.size() - pos_) {
    throw std::runtime_error("control message too short");
  }
  const uint8_t* p = Take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p), n);
}

RoundDescriptor ByteReader::Descriptor() {
  RoundDescriptor d;
  d.round_index = U64();
  d.timestamp = U64();
  d.epsilon_bits = U64();
  d.oracle = U8();
  d.cohort_digest = U64();
  return d;
}

void SendMessage(int fd, MsgType type, const std::vector<uint8_t>& payload) {
  if (payload.size() > UINT32_MAX) {
    throw std::invalid_argument("control message too large");
  }
  // One write per message: the announce hook sends one per round.
  std::vector<uint8_t> out(8 + payload.size());
  const uint32_t t = static_cast<uint32_t>(type);
  const uint32_t n = static_cast<uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    out[i] = static_cast<uint8_t>(t >> (8 * i));
    out[4 + i] = static_cast<uint8_t>(n >> (8 * i));
  }
  std::copy(payload.begin(), payload.end(), out.begin() + 8);
  ldpids::transport::SendAll(fd, out.data(), out.size());
}

namespace {

// Reads exactly `size` bytes; returns the count read before EOF.
std::size_t ReadFull(int fd, uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t r = ::read(fd, data + got, size - got);
    if (r == 0) return got;
    if (r < 0) {
      if (errno == EINTR) continue;
      ldpids::transport::ThrowErrno("control read");
    }
    got += static_cast<std::size_t>(r);
  }
  return got;
}

}  // namespace

bool RecvMessage(int fd, MsgType* type, std::vector<uint8_t>* payload) {
  uint8_t header[8];
  const std::size_t got = ReadFull(fd, header, sizeof(header));
  if (got == 0) return false;
  if (got != sizeof(header)) {
    throw std::runtime_error("control channel closed mid-header");
  }
  uint32_t t = 0;
  uint32_t n = 0;
  for (int i = 0; i < 4; ++i) {
    t |= static_cast<uint32_t>(header[i]) << (8 * i);
    n |= static_cast<uint32_t>(header[4 + i]) << (8 * i);
  }
  *type = static_cast<MsgType>(t);
  payload->resize(n);
  if (ReadFull(fd, payload->data(), n) != n) {
    throw std::runtime_error("control channel closed mid-message");
  }
  return true;
}

bool WaitReadable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int r = ::poll(&p, 1, timeout_ms);
    if (r >= 0) return r > 0;
    if (errno != EINTR) ldpids::transport::ThrowErrno("poll");
  }
}

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) ldpids::transport::ThrowErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    ldpids::transport::ThrowErrno("connect");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

uint64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
