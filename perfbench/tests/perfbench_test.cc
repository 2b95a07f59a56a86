// Unit tests of the benchmark's own arithmetic: percentile choice, span
// self time, the hostile plan's expected rejects, and the chunked
// pre-encoder. The end-to-end smoke runs of every workload live in
// `python3 perfbench/run.py --test`.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "hostile.h"
#include "recording.h"
#include "spans.h"
#include "transport/frame.h"
#include "util/rng.h"

namespace perfbench {
namespace {

TEST(PercentileChoice, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(999, 99.0), 9u);
  EXPECT_EQ(SamplesBeyond(10000, 99.9), 10u);
  EXPECT_DOUBLE_EQ(SupportedPercentile(10000), 99.9);
  EXPECT_DOUBLE_EQ(SupportedPercentile(9999), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(999), 95.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(200), 95.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(100), 90.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(20), 50.0);
  EXPECT_DOUBLE_EQ(SupportedPercentile(19), 0.0);
}

TEST(PercentileChoice, NearestRank) {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  EXPECT_DOUBLE_EQ(Percentile(v, 99.0), 990.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50.0), 500.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 1000.0);
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0, 10.0}), 2.5);
}

TEST(PercentileChoice, MedianOverBlocks) {
  // 3000 samples in three blocks of 1000: 1..1000 in each, except that a
  // burst inflates the top of the middle block.
  std::vector<double> v;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) v.push_back(b == 1 && i > 960 ? 1e6 : i);
  }
  EXPECT_DOUBLE_EQ(Percentile(v, 99.0), 1e6);
  EXPECT_DOUBLE_EQ(BlockPercentile(v, 99.0, 1000), 990.0);
  // 2500 samples make two blocks of 1250; fewer than one block is one.
  std::vector<double> ramp;
  for (int i = 1; i <= 2500; ++i) ramp.push_back(i);
  EXPECT_DOUBLE_EQ(BlockPercentile(ramp, 50.0, 1000), 0.5 * (625 + 1875));
  EXPECT_DOUBLE_EQ(BlockPercentile({4.0, 1.0, 3.0, 2.0}, 50.0, 1000), 2.0);
}

TEST(SpanSelfTime, DisjointAndNestedChildren) {
  const std::vector<Span> parent = {{100, 200}};
  EXPECT_EQ(SelfTimeNs(parent, {}), 100u);
  EXPECT_EQ(SelfTimeNs(parent, {{110, 120}, {150, 170}}), 70u);
  // Nested children count once.
  EXPECT_EQ(SelfTimeNs(parent, {{110, 160}, {120, 130}}), 50u);
}

TEST(SpanSelfTime, ChildrenClippedToParent) {
  // A pipelined worker's ingest starts before Advance and ends inside it;
  // another runs past its end.
  EXPECT_EQ(SelfTimeNs({{100, 200}}, {{50, 130}, {180, 400}}), 50u);
  EXPECT_EQ(SelfTimeNs({{100, 200}}, {{0, 100}, {200, 300}}), 100u);
}

TEST(SpanSelfTime, OverlappingChildrenUnderPipelining) {
  // Advance t estimates [120,150) while the worker already takes and folds
  // round t+1 over [110,170); both cover [120,150) once.
  const std::vector<Span> advances = {{100, 200}, {200, 300}};
  const std::vector<Span> children = {
      {120, 150},  // estimate of t
      {110, 170},  // worker: TakeRound + IngestBatch of t+1
      {160, 180},  // post-process of t, overlapping the worker
      {210, 240},  // estimate of t+1
      {230, 260},  // worker of t+2
  };
  // Advance 1: covered [110,180) = 70 -> self 30.
  // Advance 2: covered [210,260) = 50 -> self 50.
  EXPECT_EQ(SelfTimeNs(advances, children), 80u);
}

TEST(SpanSelfTime, UnionMergesTouchingAndDropsEmpty) {
  const auto u = UnionOf({{5, 5}, {30, 40}, {10, 20}, {20, 30}, {15, 18}});
  ASSERT_EQ(u.size(), 1u);
  EXPECT_EQ(u[0].start_ns, 10u);
  EXPECT_EQ(u[0].end_ns, 40u);
}

TEST(HostilePlan, ExpectedRejectArithmetic) {
  const CopyCounts c = PlanCopies(10000, 3, HostileRates{});
  EXPECT_EQ(c.genuine, 10000u);
  EXPECT_EQ(c.duplicates, 200u);      // 2%
  EXPECT_EQ(c.frame_corrupt, 100u);   // 1%
  EXPECT_EQ(c.report_corrupt, 100u);  // 1%
  const ExpectedRejects e = Expect(c);
  EXPECT_EQ(e.accepted, 10000u);
  EXPECT_EQ(e.duplicate, 200u);
  EXPECT_EQ(e.malformed, 100u);
  // Duplicates and report-corrupt copies are delivered and buffered, and
  // share the genuine packet's identity; frame-corrupt ones never arrive.
  EXPECT_EQ(e.buffered, 10300u);
  EXPECT_EQ(e.data_frames, 10300u);
  EXPECT_EQ(e.duplicate_frames, 300u);
  EXPECT_EQ(e.checksum_mismatch, 100u);
  EXPECT_EQ(e.marker_count, 10000u);
}

TEST(HostilePlan, SmallRoundsAndSums) {
  // Connection 0 carries ceil(5 / 3) = 2 genuine packets: copies of its
  // users are capped there.
  const CopyCounts small = PlanCopies(5, 3, {1.0, 0.0, 1.0});
  EXPECT_EQ(small.duplicates, 2u);
  EXPECT_EQ(small.report_corrupt, 2u);
  EXPECT_EQ(PlanCopies(49, 1, HostileRates{}).duplicates, 0u);  // floor
  CopyCounts total;
  total += PlanCopies(10000, 3, HostileRates{});
  total += PlanCopies(5000, 3, HostileRates{});
  const ExpectedRejects e = Expect(total);
  EXPECT_EQ(e.duplicate, 300u);
  EXPECT_EQ(e.buffered, 15000u + 300u + 150u);
}

TEST(HostilePlan, PlacementKeepsCopiesBehindTheirGenuineOnConnectionZero) {
  ldpids::Rng rng(7);
  const CopyCounts c = PlanCopies(3000, 3, HostileRates{});
  const auto placed = PlaceRound(3000, 3, c, /*shuffle=*/true, rng);
  ASSERT_EQ(placed.size(), 3u);
  std::set<uint32_t> genuine_seen;
  std::set<uint32_t> conn0_genuine;
  uint64_t counts[4] = {0, 0, 0, 0};
  for (std::size_t conn = 0; conn < placed.size(); ++conn) {
    for (const Placed& p : placed[conn]) {
      ++counts[static_cast<int>(p.kind)];
      if (p.kind == CopyKind::kGenuine) {
        EXPECT_TRUE(genuine_seen.insert(p.packet).second);
        if (conn == 0) conn0_genuine.insert(p.packet);
      } else if (p.kind != CopyKind::kFrameCorrupt) {
        EXPECT_EQ(conn, 0u);
        EXPECT_TRUE(conn0_genuine.count(p.packet))
            << "copy of " << p.packet << " precedes its genuine packet";
      }
    }
  }
  EXPECT_EQ(genuine_seen.size(), 3000u);
  EXPECT_EQ(counts[static_cast<int>(CopyKind::kDuplicate)], c.duplicates);
  EXPECT_EQ(counts[static_cast<int>(CopyKind::kFrameCorrupt)],
            c.frame_corrupt);
  EXPECT_EQ(counts[static_cast<int>(CopyKind::kReportCorrupt)],
            c.report_corrupt);
}

TEST(ChunkEncoder, ChunksStayBoundedAndDecodeBack) {
  std::vector<std::vector<uint8_t>> chunks;
  ChunkEncoder enc(&chunks);
  const std::vector<uint8_t> payload(40, 0x5a);
  for (int i = 0; i < 5000; ++i) {
    enc.Send(ldpids::transport::MakeDataFrame(kSessionId, 3, payload));
  }
  enc.SendCorrupted(ldpids::transport::MakeDataFrame(kSessionId, 3, payload));
  enc.Flush();
  ASSERT_GT(chunks.size(), 1u);
  ldpids::transport::FrameDecoder decoder;
  for (const auto& chunk : chunks) {
    EXPECT_LE(chunk.size(), kChunkBytes);
    decoder.Append(chunk);
  }
  ldpids::transport::Frame frame;
  uint64_t frames = 0;
  while (decoder.Next(&frame)) ++frames;
  EXPECT_EQ(frames, 5000u);
  EXPECT_EQ(decoder.stats().checksum_mismatch, 1u);
  EXPECT_EQ(enc.frames(), 5001u);
}

}  // namespace
}  // namespace perfbench
