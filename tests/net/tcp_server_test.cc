#include "net/tcp_server.h"

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "ckpt/checkpoint.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/frame.h"
#include "service/server.h"

/// \file
/// Live-socket tests for the epoll front end: request/response round
/// trips, typed rejection of hostile frames and over-limit connects,
/// slow-loris timeouts, and the drain-accounting invariant
/// (jobs_submitted == responses_delivered + responses_dropped).

namespace kanon {
namespace {

constexpr char kSmallCsv[] = "age,zip\n30,1\n30,1\n31,2\n31,2\n";

/// Service + server + serving thread, torn down in order.
class TcpServerTest : public ::testing::Test {
 protected:
  void StartServer(NetServerOptions net = {}) {
    ServiceOptions service_options;
    service_options.workers = 2;
    service_ = std::make_unique<AnonymizationService>(service_options);
    net.port = 0;
    server_ = std::make_unique<NetServer>(*service_, net);
    const Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    thread_ = std::thread([this] { server_->Run(); });
  }

  void StopServer() {
    if (server_) server_->RequestDrain();
    if (thread_.joinable()) thread_.join();
    if (service_) service_->Shutdown();
  }

  void TearDown() override { StopServer(); }

  NetRequest Anonymize(uint64_t seq, size_t k = 2) {
    NetRequest request;
    request.verb = NetVerb::kAnonymize;
    request.client_seq = seq;
    request.request.algorithm = "resilient";
    request.request.k = k;
    request.request.csv_text = kSmallCsv;
    return request;
  }

  std::unique_ptr<AnonymizationService> service_;
  std::unique_ptr<NetServer> server_;
  std::thread thread_;
};

TEST_F(TcpServerTest, AnonymizeRoundTrip) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const StatusOr<NetResponse> response = client.Call(Anonymize(41));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok()) << response->message;
  EXPECT_EQ(response->client_seq, 41u);
  EXPECT_EQ(response->k, 2u);
  EXPECT_EQ(response->rows, 4u);
  EXPECT_FALSE(response->csv.empty());
}

TEST_F(TcpServerTest, PipelinedBurstAnswersEveryRequest) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(client.Send(Anonymize(seq)).ok());
  }
  bool seen[6] = {};
  for (int i = 0; i < 5; ++i) {
    const StatusOr<NetResponse> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->ok());
    ASSERT_GE(response->client_seq, 1u);
    ASSERT_LE(response->client_seq, 5u);
    EXPECT_FALSE(seen[response->client_seq]) << "duplicate response";
    seen[response->client_seq] = true;
  }
}

TEST_F(TcpServerTest, StatsVerbReturnsTheCounterLine) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  NetRequest request;
  request.verb = NetVerb::kStats;
  request.client_seq = 9;
  const StatusOr<NetResponse> response = client.Call(request);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->ok());
  EXPECT_NE(response->stats_line.find("workers="), std::string::npos);
  EXPECT_NE(response->stats_line.find("accepted="), std::string::npos);
}

TEST_F(TcpServerTest, ValidationErrorIsTypedAndKeepsTheConnection) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  NetRequest bad = Anonymize(1);
  bad.request.algorithm = "no_such_algorithm";
  const StatusOr<NetResponse> rejected = client.Call(bad);
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_FALSE(rejected->ok());
  EXPECT_EQ(rejected->error_name, "unknown_algorithm");
  // The connection survived the typed rejection.
  const StatusOr<NetResponse> ok = client.Call(Anonymize(2));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->ok());
}

TEST_F(TcpServerTest, GarbageBytesGetBadFrameThenClose) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.SendRaw("this is not the protocol").ok());
  const StatusOr<NetResponse> farewell = client.Receive();
  ASSERT_TRUE(farewell.ok()) << farewell.status();
  EXPECT_FALSE(farewell->ok());
  EXPECT_EQ(farewell->error_name, "bad_frame");
  EXPECT_EQ(farewell->verb, NetVerb::kShutdown);
  // Framing is lost, so the server closes after the farewell.
  const StatusOr<NetResponse> eof = client.Receive();
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(server_->stats().protocol_errors, 1u);
}

TEST_F(TcpServerTest, HostileBodyInValidEnvelopeKeepsTheConnection) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // A perfectly framed envelope whose body is garbage: the envelope
  // held, so framing is intact and the connection survives.
  ASSERT_TRUE(client.SendRaw(EncodeFrame("not a request body")).ok());
  const StatusOr<NetResponse> typed = client.Receive();
  ASSERT_TRUE(typed.ok()) << typed.status();
  EXPECT_EQ(typed->error_name, "bad_frame");
  const StatusOr<NetResponse> ok = client.Call(Anonymize(3));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->ok());
}

TEST_F(TcpServerTest, AnonymizeBodyWithoutTheKnobsIsABadFrame) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // The body layout before the wrapper knobs were carried: it ends
  // after csv. It must be refused typed, never run with default knobs.
  CheckpointWriter w;
  w.PutU32(uint32_t(NetVerb::kAnonymize));
  w.PutU64(4);
  w.PutBytes("coreset_mdav");
  w.PutU64(2);
  w.PutDouble(0.0);
  w.PutU64(0);
  w.PutU64(0);
  w.PutU32(1);
  w.PutBytes("a,b\n1,2\n1,2\n");
  ASSERT_TRUE(client.SendRaw(EncodeFrame(w.bytes())).ok());
  const StatusOr<NetResponse> typed = client.Receive();
  ASSERT_TRUE(typed.ok()) << typed.status();
  EXPECT_EQ(typed->error_name, "bad_frame");
  const StatusOr<NetResponse> ok = client.Call(Anonymize(5));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_TRUE(ok->ok());
}

TEST_F(TcpServerTest, OversizedDeclaredLengthIsRejected) {
  NetServerOptions net;
  net.max_frame_bytes = 1024;
  StartServer(net);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  NetRequest big = Anonymize(1);
  big.request.csv_text = "c\n" + std::string(4096, '1');
  ASSERT_TRUE(client.Send(big).ok());
  const StatusOr<NetResponse> farewell = client.Receive();
  ASSERT_TRUE(farewell.ok()) << farewell.status();
  EXPECT_EQ(farewell->error_name, "bad_frame");
}

TEST_F(TcpServerTest, OverLimitConnectGetsTypedRejection) {
  NetServerOptions net;
  net.max_connections = 1;
  StartServer(net);
  NetClient first;
  ASSERT_TRUE(first.Connect("127.0.0.1", server_->port()).ok());
  // Make sure the first connection is registered before the second
  // tries (accept order is the connect order on loopback).
  ASSERT_TRUE(first.Call(Anonymize(1)).ok());

  NetClient second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server_->port()).ok());
  const StatusOr<NetResponse> rejected = second.Receive();
  ASSERT_TRUE(rejected.ok()) << rejected.status();
  EXPECT_EQ(rejected->error_name, "connection_limit");
  EXPECT_EQ(rejected->verb, NetVerb::kShutdown);
  EXPECT_EQ(server_->stats().rejected_over_limit, 1u);

  // The registered connection is unaffected.
  EXPECT_TRUE(first.Call(Anonymize(2)).ok());
}

TEST_F(TcpServerTest, PeerGoneBeforeItsResponsesDoesNotKillTheServer) {
  StartServer();
  // Two pipelined jobs that finish apart, then the client closes. The
  // first response draws an RST from the closed peer; writing the
  // second must fail with EPIPE, not raise a process-ending SIGPIPE.
  std::string large = "a,b\n";
  for (int i = 0; i < 2000; ++i) {
    large += std::to_string(i % 7) + "," + std::to_string(i % 11) + "\n";
  }
  NetRequest slow = Anonymize(2, 3);
  slow.request.algorithm = "mdav";
  slow.request.csv_text = large;
  {
    NetClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(client.Send(Anonymize(1)).ok());
    ASSERT_TRUE(client.Send(slow).ok());
  }
  for (int i = 0; i < 1000; ++i) {
    const NetServerStats stats = server_->stats();
    if (stats.responses_delivered + stats.responses_dropped == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const NetServerStats stats = server_->stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.responses_delivered + stats.responses_dropped, 2u);
  // Still serving.
  NetClient next;
  ASSERT_TRUE(next.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(next.Call(Anonymize(3)).ok());
}

TEST_F(TcpServerTest, SlowLorisPartialFrameTimesOutTyped) {
  NetServerOptions net;
  net.frame_timeout_ms = 100.0;
  net.tick_ms = 10.0;
  StartServer(net);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  // Half a frame, then silence.
  const std::string frame = EncodeNetRequest(Anonymize(1));
  ASSERT_TRUE(client.SendRaw(frame.substr(0, frame.size() / 2)).ok());
  const StatusOr<NetResponse> farewell = client.Receive(5000.0);
  ASSERT_TRUE(farewell.ok()) << farewell.status();
  EXPECT_EQ(farewell->error_name, "bad_frame");
  EXPECT_GE(server_->stats().timeouts_frame, 1u);
}

TEST_F(TcpServerTest, IdleConnectionIsClosed) {
  NetServerOptions net;
  net.idle_timeout_ms = 100.0;
  net.tick_ms = 10.0;
  StartServer(net);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  const StatusOr<NetResponse> eof = client.Receive(5000.0);
  ASSERT_FALSE(eof.ok());
  EXPECT_EQ(eof.status().code(), StatusCode::kUnavailable);
  EXPECT_GE(server_->stats().timeouts_idle, 1u);
}

TEST_F(TcpServerTest, ShutdownVerbAcksThenDrains) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  NetRequest request;
  request.verb = NetVerb::kShutdown;
  request.client_seq = 4;
  const StatusOr<NetResponse> ack = client.Call(request);
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_TRUE(ack->ok());
  EXPECT_EQ(ack->verb, NetVerb::kShutdown);
  // The serving loop exits on its own — join without another drain.
  thread_.join();
  service_->Shutdown();
}

TEST_F(TcpServerTest, DrainDeliversEveryAdmittedResponse) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  constexpr uint64_t kJobs = 6;
  for (uint64_t seq = 1; seq <= kJobs; ++seq) {
    ASSERT_TRUE(client.Send(Anonymize(seq)).ok());
  }
  server_->RequestDrain();
  // Every response the front end admitted before the drain must still
  // arrive (or the connection must close cleanly — never a hang, never
  // a torn frame). Count what we get.
  size_t answered = 0;
  for (;;) {
    const StatusOr<NetResponse> response = client.Receive(20000.0);
    if (!response.ok()) {
      ASSERT_EQ(response.status().code(), StatusCode::kUnavailable)
          << response.status().ToString();
      break;
    }
    if (response->verb == NetVerb::kShutdown) continue;  // drain notice
    ++answered;
  }
  thread_.join();
  const NetServerStats stats = server_->stats();
  EXPECT_EQ(stats.jobs_submitted,
            stats.responses_delivered + stats.responses_dropped);
  EXPECT_EQ(answered, stats.responses_delivered);
  service_->Shutdown();
}

TEST_F(TcpServerTest, HardStopStillAccountsForAdmittedJobs) {
  StartServer();
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(client.Send(Anonymize(1)).ok());
  server_->RequestStop();
  thread_.join();
  // Hard stop drops completions rather than waiting, but the counters
  // never lie: nothing is both undelivered and undropped once the
  // service finishes the work.
  service_->Shutdown();
  const NetServerStats stats = server_->stats();
  EXPECT_LE(stats.responses_delivered + stats.responses_dropped,
            stats.jobs_submitted);
}

}  // namespace
}  // namespace kanon
