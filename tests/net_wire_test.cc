// The binary wire protocol: every request and response field must survive
// an encode/decode round trip bit-exactly, malformed frames must be
// rejected without reading out of bounds, and the framed socket I/O must
// move payloads intact.

#include "net/wire.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

namespace spatial {
namespace {

template <int D>
QueryRequest<D> RoundTripRequest(const QueryRequest<D>& in) {
  std::string buf;
  EncodeRequest<D>(in, &buf);
  auto out = DecodeRequest<D>(reinterpret_cast<const uint8_t*>(buf.data()),
                              buf.size());
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

TEST(WireTest, KnnRequestRoundTrip) {
  QueryRequest<2> in = QueryRequest<2>::Knn({{0.25, -3.5}}, 17);
  in.knn.ordering = AblOrdering::kMinMaxDist;
  in.knn.use_s2 = false;
  QueryRequest<2> out = RoundTripRequest(in);
  EXPECT_EQ(out.kind, QueryKind::kKnn);
  EXPECT_EQ(out.query[0], 0.25);
  EXPECT_EQ(out.query[1], -3.5);
  EXPECT_EQ(out.knn.k, 17u);
  EXPECT_EQ(out.knn.ordering, AblOrdering::kMinMaxDist);
  EXPECT_TRUE(out.knn.use_s1);
  EXPECT_FALSE(out.knn.use_s2);
  EXPECT_TRUE(out.knn.use_s3);
}

TEST(WireTest, AllKindsRoundTrip) {
  const Rect<2> window = Rect<2>::FromCorners({{0.1, 0.2}}, {{0.7, 0.9}});
  std::vector<QueryRequest<2>> requests = {
      QueryRequest<2>::Knn({{0.5, 0.5}}, 3),
      QueryRequest<2>::ConstrainedKnn({{0.5, 0.5}}, window, 4),
      QueryRequest<2>::Range(window),
      QueryRequest<2>::TopK({{0.3, 0.4}}, 9),
      QueryRequest<2>::BatchKnn({{{0.1, 0.1}}, {{0.9, 0.8}}}, 2),
      QueryRequest<2>::Insert(window, 12345),
      QueryRequest<2>::Delete(window, 777),
      QueryRequest<2>::Checkpoint(),
      QueryRequest<2>::ReverseKnn({{0.6, 0.4}}, 5),
      QueryRequest<2>::NnSkyline({{{0.2, 0.3}}, {{0.8, 0.1}}}),
      QueryRequest<2>::ApproxKnn({{0.5, 0.5}}, 8, 0.25, 4096),
  };
  for (const auto& in : requests) {
    QueryRequest<2> out = RoundTripRequest(in);
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.window.lo, in.window.lo);
    EXPECT_EQ(out.window.hi, in.window.hi);
    EXPECT_EQ(out.object_id, in.object_id);
    EXPECT_EQ(out.top_k, in.top_k);
    ASSERT_EQ(out.batch_queries.size(), in.batch_queries.size());
    for (size_t i = 0; i < in.batch_queries.size(); ++i) {
      EXPECT_EQ(out.batch_queries[i], in.batch_queries[i]);
    }
  }
}

TEST(WireTest, ApproxAndBoundedKnobsRoundTripBitExact) {
  QueryRequest<2> in = QueryRequest<2>::ApproxKnn({{0.1, 0.9}}, 3, 0.125, 77);
  in.knn.max_distance = 0.4375;  // exactly representable
  QueryRequest<2> out = RoundTripRequest(in);
  EXPECT_EQ(out.kind, QueryKind::kApproxKnn);
  EXPECT_EQ(out.knn.k, 3u);
  EXPECT_EQ(out.knn.epsilon, 0.125);
  EXPECT_EQ(out.knn.max_visits, 77u);
  EXPECT_EQ(out.knn.max_distance, 0.4375);
  EXPECT_FALSE(out.rknn_candidates_only);

  // The unbounded default (+inf) survives as +inf, not as a large finite.
  QueryRequest<2> plain = QueryRequest<2>::Knn({{0.5, 0.5}}, 2);
  QueryRequest<2> plain_out = RoundTripRequest(plain);
  EXPECT_TRUE(std::isinf(plain_out.knn.max_distance));
  EXPECT_EQ(plain_out.knn.epsilon, 0.0);
  EXPECT_EQ(plain_out.knn.max_visits, 0u);

  QueryRequest<2> cand = QueryRequest<2>::ReverseKnn({{0.3, 0.3}}, 4);
  cand.rknn_candidates_only = true;
  QueryRequest<2> cand_out = RoundTripRequest(cand);
  EXPECT_EQ(cand_out.kind, QueryKind::kReverseKnn);
  EXPECT_EQ(cand_out.knn.k, 4u);
  EXPECT_TRUE(cand_out.rknn_candidates_only);
}

TEST(WireTest, RejectsBadCandidatesFlag) {
  QueryRequest<2> in = QueryRequest<2>::Knn({{0.5, 0.5}}, 1);
  std::string buf;
  EncodeRequest<2>(in, &buf);
  // Layout: the candidates-only flag byte sits ahead of the v3 trace
  // context (trace id 8, parent span 8, sampled flag 1, deadline 8) and
  // the 4-byte batch count that ends every request frame.
  std::string bad = buf;
  bad[bad.size() - 30] = 2;
  EXPECT_TRUE(DecodeRequest<2>(reinterpret_cast<const uint8_t*>(bad.data()),
                               bad.size())
                  .status()
                  .IsCorruption());
}

TEST(WireTest, TraceContextAndDeadlineRoundTrip) {
  QueryRequest<2> in = QueryRequest<2>::Knn({{0.5, 0.5}}, 7);
  in.trace_id = 0xDEADBEEFCAFEF00DULL;
  in.parent_span_id = 0x0123456789ABCDEFULL;
  in.trace_sampled = true;
  in.deadline_budget_ns = 2'000'000;
  QueryRequest<2> out = RoundTripRequest(in);
  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.parent_span_id, in.parent_span_id);
  EXPECT_TRUE(out.trace_sampled);
  EXPECT_EQ(out.deadline_budget_ns, 2'000'000u);

  // The v2 defaults (no trace, no deadline) survive as exact zeros.
  QueryRequest<2> plain = RoundTripRequest(QueryRequest<2>::Knn({{0, 0}}, 1));
  EXPECT_EQ(plain.trace_id, 0u);
  EXPECT_EQ(plain.parent_span_id, 0u);
  EXPECT_FALSE(plain.trace_sampled);
  EXPECT_EQ(plain.deadline_budget_ns, 0u);
}

// The router's per-query batch bounds are in-process pointers, like a
// response's completed_at_ns: they never reach the wire, so a batch
// encodes to the same bytes with or without them and decodes without them.
TEST(WireTest, BatchBoundsAreInProcessOnly) {
  const QueryRequest<2> plain =
      QueryRequest<2>::BatchKnn({{{0.1, 0.1}}, {{0.9, 0.8}}}, 3);
  SharedPruneBound bounds[2];
  bounds[0].TightenSq(0.25);
  SharedPruneBound* const ptrs[2] = {&bounds[0], &bounds[1]};
  QueryRequest<2> bounded = plain;
  bounded.batch_bounds = ptrs;
  std::string plain_bytes;
  std::string bounded_bytes;
  EncodeRequest<2>(plain, &plain_bytes);
  EncodeRequest<2>(bounded, &bounded_bytes);
  EXPECT_EQ(bounded_bytes, plain_bytes);
  EXPECT_EQ(RoundTripRequest(bounded).batch_bounds, nullptr);

  QueryResponse<2> response;
  response.completed_at_ns = 123456789;
  std::string response_bytes;
  EncodeResponse<2>(response, &response_bytes);
  response.completed_at_ns = 0;
  std::string unstamped_bytes;
  EncodeResponse<2>(response, &unstamped_bytes);
  EXPECT_EQ(response_bytes, unstamped_bytes);
}

TEST(WireTest, RejectsBadTraceSampledFlag) {
  QueryRequest<2> in = QueryRequest<2>::Knn({{0.5, 0.5}}, 1);
  std::string buf;
  EncodeRequest<2>(in, &buf);
  // The sampled flag byte sits ahead of the 8-byte deadline and the
  // 4-byte batch count.
  std::string bad = buf;
  bad[bad.size() - 13] = 2;
  EXPECT_TRUE(DecodeRequest<2>(reinterpret_cast<const uint8_t*>(bad.data()),
                               bad.size())
                  .status()
                  .IsCorruption());
}

TEST(WireTest, ResponseRoundTrip) {
  QueryResponse<2> in;
  in.status = Status::OK();
  in.neighbors = {{42, 0.125}, {7, 3.875}};
  in.entries = {{Rect<2>::FromCorners({{0, 0}}, {{1, 1}}), 9}};
  in.batch_offsets = {0, 1, 2};
  in.stats.nodes_visited = 11;
  in.stats.pruned_s3 = 5;
  in.stats.heap_pops = 2;
  in.latency_ns = 123456789;
  in.worker_id = 3;
  in.lsn = 17;
  in.affected = 1;

  std::string buf;
  EncodeResponse<2>(in, &buf);
  auto out = DecodeResponse<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                               buf.size());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.ok());
  ASSERT_EQ(out->neighbors.size(), 2u);
  EXPECT_EQ(0, std::memcmp(out->neighbors.data(), in.neighbors.data(),
                           2 * sizeof(Neighbor)));
  ASSERT_EQ(out->entries.size(), 1u);
  EXPECT_EQ(out->entries[0].id, 9u);
  EXPECT_EQ(out->batch_offsets, in.batch_offsets);
  EXPECT_EQ(out->stats.nodes_visited, 11u);
  EXPECT_EQ(out->stats.pruned_s3, 5u);
  EXPECT_EQ(out->stats.heap_pops, 2u);
  EXPECT_EQ(out->latency_ns, in.latency_ns);
  EXPECT_EQ(out->worker_id, 3u);
  EXPECT_EQ(out->lsn, 17u);
  EXPECT_EQ(out->affected, 1u);
}

TEST(WireTest, ResponseWithTraceRecordRoundTrip) {
  QueryResponse<2> in;
  in.neighbors = {{42, 0.125}};
  in.stats.nodes_visited = 11;
  in.latency_ns = 5555;
  in.has_trace = true;
  in.trace.worker = 3;
  in.trace.k = 7;
  in.trace.SetKindName("knn");
  in.trace.latency_ns = 5555;
  in.trace.queue_wait_ns = 1234;
  in.trace.traced = true;
  in.trace.stats.nodes_visited = 11;
  in.trace.stats.heap_pops = 4;
  in.trace.nodes_per_level[0] = 9;
  in.trace.nodes_per_level[2] = 1;

  std::string buf;
  EncodeResponse<2>(in, &buf);
  auto out = DecodeResponse<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                               buf.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_TRUE(out->has_trace);
  EXPECT_EQ(out->trace.worker, 3u);
  EXPECT_EQ(out->trace.k, 7u);
  EXPECT_STREQ(out->trace.kind_name, "knn");
  EXPECT_EQ(out->trace.latency_ns, 5555u);
  EXPECT_EQ(out->trace.queue_wait_ns, 1234u);
  EXPECT_TRUE(out->trace.traced);
  EXPECT_EQ(out->trace.stats.nodes_visited, 11u);
  EXPECT_EQ(out->trace.stats.heap_pops, 4u);
  EXPECT_EQ(out->trace.nodes_per_level[0], 9u);
  EXPECT_EQ(out->trace.nodes_per_level[2], 1u);

  // A traceless response decodes with has_trace off and an untouched
  // (default) record.
  QueryResponse<2> plain;
  std::string plain_buf;
  EncodeResponse<2>(plain, &plain_buf);
  auto plain_out = DecodeResponse<2>(
      reinterpret_cast<const uint8_t*>(plain_buf.data()), plain_buf.size());
  ASSERT_TRUE(plain_out.ok());
  EXPECT_FALSE(plain_out->has_trace);
}

TEST(WireTest, RejectsTruncatedTraceResponse) {
  // With has_trace set, the truncation sweep covers every byte of the
  // embedded record — the new v3 truncation points.
  QueryResponse<2> in;
  in.has_trace = true;
  in.trace.traced = true;
  in.trace.SetKindName("top-k");
  std::string buf;
  EncodeResponse<2>(in, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto out = DecodeResponse<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                                 cut);
    EXPECT_FALSE(out.ok()) << "accepted a response truncated to " << cut;
  }
  buf.push_back('\0');
  auto padded = DecodeResponse<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                                  buf.size());
  EXPECT_TRUE(padded.status().IsCorruption());
}

TEST(WireTest, RejectsBadTraceFlags) {
  // A traceless response ends with its has_trace byte; anything but 0/1
  // there is corruption, not a bool.
  QueryResponse<2> plain;
  std::string buf;
  EncodeResponse<2>(plain, &buf);
  buf.back() = 2;
  EXPECT_TRUE(DecodeResponse<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                                buf.size())
                  .status()
                  .IsCorruption());

  // Inside the embedded record, the traced flag sits ahead of the stats
  // block (12 u64) and the 12-slot level array that end the frame.
  QueryResponse<2> traced;
  traced.has_trace = true;
  std::string tbuf;
  EncodeResponse<2>(traced, &tbuf);
  tbuf[tbuf.size() - 145] = 2;
  EXPECT_TRUE(DecodeResponse<2>(reinterpret_cast<const uint8_t*>(tbuf.data()),
                                tbuf.size())
                  .status()
                  .IsCorruption());
}

TEST(WireTest, AdminRequestRoundTrip) {
  for (const AdminKind kind :
       {AdminKind::kScrapeMetrics, AdminKind::kDumpSlowLog}) {
    std::string buf;
    EncodeAdminRequest(kind, &buf);
    ASSERT_FALSE(buf.empty());
    EXPECT_TRUE(IsAdminRequest(reinterpret_cast<const uint8_t*>(buf.data()),
                               buf.size()));
    auto out = DecodeAdminRequest(reinterpret_cast<const uint8_t*>(buf.data()),
                                  buf.size());
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_EQ(*out, kind);
  }

  // Query kinds never look like admin frames: their tag bytes are small
  // enum values, far below the reserved 0xF0 range.
  QueryRequest<2> query = QueryRequest<2>::Knn({{0.5, 0.5}}, 1);
  std::string qbuf;
  EncodeRequest<2>(query, &qbuf);
  EXPECT_FALSE(IsAdminRequest(reinterpret_cast<const uint8_t*>(qbuf.data()),
                              qbuf.size()));
  EXPECT_FALSE(IsAdminRequest(nullptr, 0));
}

TEST(WireTest, AdminResponseRoundTrip) {
  const std::string text = "spatial_router_requests_total{kind=\"knn\"} 3\n";
  std::string buf;
  EncodeAdminResponse(Status::OK(), text, &buf);
  auto out = DecodeAdminResponse(reinterpret_cast<const uint8_t*>(buf.data()),
                                 buf.size());
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(*out, text);

  // An application-level error travels inside the frame and surfaces as
  // the Result's error.
  std::string err_buf;
  EncodeAdminResponse(Status::Overloaded("busy"), "", &err_buf);
  auto err = DecodeAdminResponse(
      reinterpret_cast<const uint8_t*>(err_buf.data()), err_buf.size());
  EXPECT_TRUE(err.status().IsOverloaded());
  EXPECT_EQ(err.status().message(), "busy");
}

TEST(WireTest, RejectsMalformedAdminFrames) {
  // Unknown admin tag.
  const uint8_t bad_tag[1] = {0xFE};
  EXPECT_TRUE(DecodeAdminRequest(bad_tag, 1).status().IsCorruption());
  // Trailing bytes after the tag.
  std::string req;
  EncodeAdminRequest(AdminKind::kScrapeMetrics, &req);
  req.push_back('\0');
  EXPECT_TRUE(DecodeAdminRequest(reinterpret_cast<const uint8_t*>(req.data()),
                                 req.size())
                  .status()
                  .IsCorruption());
  // Truncated admin responses: every cut of a valid frame is rejected.
  std::string buf;
  EncodeAdminResponse(Status::OK(), "payload", &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto out =
        DecodeAdminResponse(reinterpret_cast<const uint8_t*>(buf.data()), cut);
    EXPECT_FALSE(out.ok()) << "accepted an admin response truncated to "
                           << cut;
  }
  // A text length promising more bytes than the frame holds.
  std::string lying = buf;
  lying.resize(lying.size() - 3);
  EXPECT_FALSE(
      DecodeAdminResponse(reinterpret_cast<const uint8_t*>(lying.data()),
                          lying.size())
          .ok());
}

TEST(WireTest, ErrorStatusRoundTrip) {
  QueryResponse<2> in;
  in.status = Status::Overloaded("server at max_pending; retry later");
  std::string buf;
  EncodeResponse<2>(in, &buf);
  auto out = DecodeResponse<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                               buf.size());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->status.IsOverloaded());
  EXPECT_EQ(out->status.message(), "server at max_pending; retry later");
}

TEST(WireTest, RejectsTruncatedAndTrailingBytes) {
  QueryRequest<2> in = QueryRequest<2>::BatchKnn({{{0.1, 0.1}}}, 2);
  std::string buf;
  EncodeRequest<2>(in, &buf);
  for (size_t cut = 0; cut < buf.size(); ++cut) {
    auto out = DecodeRequest<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                                cut);
    EXPECT_FALSE(out.ok()) << "accepted a frame truncated to " << cut;
  }
  buf.push_back('\0');
  auto padded = DecodeRequest<2>(reinterpret_cast<const uint8_t*>(buf.data()),
                                 buf.size());
  EXPECT_TRUE(padded.status().IsCorruption());
}

TEST(WireTest, RejectsUnknownKindAndLyingCounts) {
  QueryRequest<2> in = QueryRequest<2>::Knn({{0.5, 0.5}}, 1);
  std::string buf;
  EncodeRequest<2>(in, &buf);
  std::string bad_kind = buf;
  bad_kind[0] = 99;
  EXPECT_TRUE(DecodeRequest<2>(
                  reinterpret_cast<const uint8_t*>(bad_kind.data()),
                  bad_kind.size())
                  .status()
                  .IsCorruption());

  // A batch count promising far more points than the frame holds must be
  // rejected before any allocation is sized from it.
  std::string lying = buf;
  const size_t count_at = lying.size() - 4;
  lying[count_at] = '\xff';
  lying[count_at + 1] = '\xff';
  lying[count_at + 2] = '\xff';
  lying[count_at + 3] = '\x7f';
  EXPECT_TRUE(DecodeRequest<2>(
                  reinterpret_cast<const uint8_t*>(lying.data()), lying.size())
                  .status()
                  .IsCorruption());
}

TEST(WireTest, FramesCrossSocketsIntact) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));

  std::string sent(100000, 'x');
  for (size_t i = 0; i < sent.size(); ++i) sent[i] = static_cast<char>(i % 251);
  std::thread writer([&] {
    EXPECT_TRUE(SendFrame(fds[0], sent).ok());
    WireHandshake hs;
    hs.dim = 2;
    EXPECT_TRUE(SendHandshake(fds[0], hs).ok());
    ::close(fds[0]);
  });
  std::string got;
  ASSERT_TRUE(RecvFrame(fds[1], &got).ok());
  EXPECT_EQ(got, sent);
  auto hs = RecvHandshake(fds[1]);
  ASSERT_TRUE(hs.ok());
  EXPECT_EQ(hs->magic, kWireMagic);
  EXPECT_EQ(hs->version, kWireVersion);
  EXPECT_EQ(hs->dim, 2u);
  // Peer closed: the next read reports clean end-of-stream, not an error.
  EXPECT_TRUE(RecvFrame(fds[1], &got).IsNotFound());
  writer.join();
  ::close(fds[1]);
}

// A frame is its 4-byte little-endian length followed by the payload,
// byte for byte, whether the payload is empty or not.
TEST(WireTest, FrameBytesAreLengthPrefixThenPayload) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  const std::string payload = "\x01\x02frame\xff";
  ASSERT_TRUE(SendFrame(fds[0], payload).ok());
  ASSERT_TRUE(SendFrame(fds[0], std::string()).ok());
  ::close(fds[0]);

  std::string raw;
  char buf[64];
  for (ssize_t n; (n = ::read(fds[1], buf, sizeof(buf))) > 0;) {
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[1]);
  std::string want = {static_cast<char>(payload.size()), 0, 0, 0};
  want += payload;
  want += std::string(4, '\0');
  EXPECT_EQ(raw, want);
}

TEST(WireTest, OversizedFrameLengthRejected) {
  int fds[2];
  ASSERT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  // A length prefix beyond kMaxFrameBytes must be rejected without
  // attempting the read.
  const uint8_t evil[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(4, ::write(fds[0], evil, 4));
  std::string got;
  EXPECT_TRUE(RecvFrame(fds[1], &got).IsCorruption());
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace spatial
