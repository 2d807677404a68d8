#include "net/frame.h"

#include <cstdint>
#include <string>

#include "gtest/gtest.h"

/// \file
/// Round-trip and semantics tests for the binary wire codec — the
/// well-behaved-peer half; tests/net/frame_fuzz_test.cc drills the
/// hostile half.

namespace kanon {
namespace {

NetRequest MakeAnonymizeRequest() {
  NetRequest request;
  request.verb = NetVerb::kAnonymize;
  request.client_seq = 77;
  request.request.algorithm = "greedy_cover";
  request.request.k = 3;
  request.request.deadline_ms = 1500.5;
  request.request.node_budget = 4096;
  request.request.priority = -2;
  request.request.emit_csv = false;
  request.request.csv_text = "age,zip\n30,10001\n30,10001\n";
  request.request.coreset_rate = 1.0 / 3.0;
  request.request.coreset_seed = UINT64_MAX - 1;
  request.request.shards = 5;
  request.request.shard_parallelism = 2;
  return request;
}

TEST(FrameEnvelope, RoundTripsABody) {
  const std::string frame = EncodeFrame("hello body");
  EXPECT_EQ(frame.size(),
            kFrameHeaderBytes + 10 + kFrameTrailerBytes);

  const StatusOr<std::string> body = DecodeFrameExact(frame);
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_EQ(*body, "hello body");
}

TEST(FrameEnvelope, RoundTripsAnEmptyBody) {
  const StatusOr<std::string> body = DecodeFrameExact(EncodeFrame(""));
  ASSERT_TRUE(body.ok()) << body.status();
  EXPECT_TRUE(body->empty());
}

TEST(FrameEnvelope, StreamingDecoderSplitsConcatenatedFrames) {
  const std::string stream = EncodeFrame("first") + EncodeFrame("second");
  std::string_view rest = stream;
  FrameLimits limits;
  std::string_view body;
  size_t consumed = 0;
  Status error;

  ASSERT_EQ(TryDecodeFrame(rest, limits, &body, &consumed, &error),
            FrameDecode::kFrame);
  EXPECT_EQ(body, "first");
  rest.remove_prefix(consumed);
  ASSERT_EQ(TryDecodeFrame(rest, limits, &body, &consumed, &error),
            FrameDecode::kFrame);
  EXPECT_EQ(body, "second");
  rest.remove_prefix(consumed);
  EXPECT_EQ(TryDecodeFrame(rest, limits, &body, &consumed, &error),
            FrameDecode::kNeedMore);
}

TEST(FrameEnvelope, EveryPrefixOfAValidFrameNeedsMore) {
  const std::string frame = EncodeFrame("prefix drill");
  FrameLimits limits;
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    std::string_view body;
    size_t consumed = 0;
    Status error;
    EXPECT_EQ(TryDecodeFrame(std::string_view(frame).substr(0, cut),
                             limits, &body, &consumed, &error),
              FrameDecode::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FrameEnvelope, AnnouncedLengthPastTheCapIsRejectedAtTheHeader) {
  FrameLimits limits;
  limits.max_body = 64;
  // A legitimate frame over a hostile-to-us limit: the header alone
  // must condemn it, even though the frame itself is well-formed.
  const std::string frame = EncodeFrame(std::string(65, 'x'));
  std::string_view body;
  size_t consumed = 0;
  Status error;
  EXPECT_EQ(TryDecodeFrame(frame, limits, &body, &consumed, &error),
            FrameDecode::kBad);
  EXPECT_EQ(error.code(), StatusCode::kParseError);

  // Just the header prefix is already enough to reject.
  EXPECT_EQ(TryDecodeFrame(
                std::string_view(frame).substr(0, kFrameHeaderBytes),
                limits, &body, &consumed, &error),
            FrameDecode::kBad);
}

TEST(NetCodec, AnonymizeRequestRoundTripsEveryField) {
  const NetRequest request = MakeAnonymizeRequest();
  const StatusOr<std::string> body =
      DecodeFrameExact(EncodeNetRequest(request));
  ASSERT_TRUE(body.ok()) << body.status();
  const StatusOr<NetRequest> decoded = DecodeNetRequest(*body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, NetVerb::kAnonymize);
  EXPECT_EQ(decoded->client_seq, 77u);
  EXPECT_EQ(decoded->request.algorithm, "greedy_cover");
  EXPECT_EQ(decoded->request.k, 3u);
  EXPECT_DOUBLE_EQ(decoded->request.deadline_ms, 1500.5);
  EXPECT_EQ(decoded->request.node_budget, 4096u);
  EXPECT_EQ(decoded->request.priority, -2);
  EXPECT_FALSE(decoded->request.emit_csv);
  EXPECT_EQ(decoded->request.csv_text, request.request.csv_text);
  EXPECT_EQ(decoded->request.coreset_rate, 1.0 / 3.0);
  EXPECT_EQ(decoded->request.coreset_seed, UINT64_MAX - 1);
  EXPECT_EQ(decoded->request.shards, 5u);
  EXPECT_EQ(decoded->request.shard_parallelism, 2u);
}

TEST(NetCodec, StatsAndShutdownRequestsRoundTrip) {
  for (const NetVerb verb : {NetVerb::kStats, NetVerb::kShutdown}) {
    NetRequest request;
    request.verb = verb;
    request.client_seq = 5;
    const StatusOr<std::string> body =
        DecodeFrameExact(EncodeNetRequest(request));
    ASSERT_TRUE(body.ok());
    const StatusOr<NetRequest> decoded = DecodeNetRequest(*body);
    ASSERT_TRUE(decoded.ok()) << decoded.status();
    EXPECT_EQ(decoded->verb, verb);
    EXPECT_EQ(decoded->client_seq, 5u);
  }
}

TEST(NetCodec, SuccessResponseRoundTripsThePayload) {
  AnonymizeResponse answer;
  answer.id = 9;
  answer.status = Status::Ok();
  answer.k = 3;
  answer.rows = 12;
  answer.cost = 4;
  answer.stage = "greedy_cover";
  answer.chain = "exact_dp(declined:budget)->greedy_cover(ok)";
  answer.termination = StopReason::kBudget;
  answer.cache_hit = true;
  answer.queue_ms = 0.25;
  answer.run_ms = 8.5;
  answer.anonymized_csv = "a,b\n*,1\n*,1\n";

  const NetResponse wire = MakeNetResponse(NetVerb::kAnonymize, 42, answer);
  const StatusOr<std::string> body =
      DecodeFrameExact(EncodeNetResponse(wire));
  ASSERT_TRUE(body.ok());
  const StatusOr<NetResponse> decoded = DecodeNetResponse(*body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->client_seq, 42u);
  EXPECT_EQ(decoded->job_id, 9u);
  EXPECT_EQ(decoded->k, 3u);
  EXPECT_EQ(decoded->rows, 12u);
  EXPECT_EQ(decoded->cost, 4u);
  EXPECT_EQ(decoded->stage, "greedy_cover");
  EXPECT_EQ(decoded->chain, answer.chain);
  EXPECT_EQ(decoded->termination,
            static_cast<uint32_t>(StopReason::kBudget));
  EXPECT_TRUE(decoded->cache_hit);
  EXPECT_DOUBLE_EQ(decoded->queue_ms, 0.25);
  EXPECT_DOUBLE_EQ(decoded->run_ms, 8.5);
  EXPECT_EQ(decoded->csv, answer.anonymized_csv);
}

TEST(NetCodec, TypedErrorResponseCarriesTheTaxonomyName) {
  const NetResponse wire = MakeNetError(
      NetVerb::kShutdown, 0, ServiceError::kConnectionLimit,
      "connection limit reached");
  const StatusOr<std::string> body =
      DecodeFrameExact(EncodeNetResponse(wire));
  ASSERT_TRUE(body.ok());
  const StatusOr<NetResponse> decoded = DecodeNetResponse(*body);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_FALSE(decoded->ok());
  EXPECT_EQ(decoded->verb, NetVerb::kShutdown);
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(decoded->error_name, "connection_limit");
  EXPECT_EQ(decoded->message, "connection limit reached");
}

TEST(NetCodec, RejectionResponseInheritsTheServiceTaxonomy) {
  AnonymizeResponse rejected;
  rejected.error = ServiceError::kQueueFull;
  rejected.status =
      MakeServiceStatus(ServiceError::kQueueFull, "queue is full");
  const NetResponse wire =
      MakeNetResponse(NetVerb::kAnonymize, 7, rejected);
  const StatusOr<NetResponse> decoded = DecodeNetResponse(
      *DecodeFrameExact(EncodeNetResponse(wire)));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->error_name, "queue_full");
  EXPECT_EQ(decoded->code, StatusCode::kResourceExhausted);
}

TEST(NetCodec, StatsResponseCarriesTheLine) {
  NetResponse wire;
  wire.verb = NetVerb::kStats;
  wire.client_seq = 3;
  wire.stats_line = "ok verb=stats workers=2 accepted=5";
  const StatusOr<NetResponse> decoded = DecodeNetResponse(
      *DecodeFrameExact(EncodeNetResponse(wire)));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->verb, NetVerb::kStats);
  EXPECT_EQ(decoded->stats_line, "ok verb=stats workers=2 accepted=5");
}

}  // namespace
}  // namespace kanon
