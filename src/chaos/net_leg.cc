#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "chaos/legs.h"
#include "data/csv_table.h"
#include "fault/fault.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "service/journal.h"
#include "util/fingerprint.h"

namespace kanon {
namespace chaos {

namespace {

/// Concurrent client sessions per schedule.
constexpr size_t kSessions = 6;

const char* const kAlgorithms[] = {
    "resilient", "resilient", "greedy_cover", "mondrian", "mdav",
};

/// One step of a client session. Exactly one of the payloads applies.
struct Op {
  enum class Kind {
    kAnonymize,    // one valid request, wait for its response
    kBurst,        // `burst` pipelined valid requests, then collect all
    kStats,        // stats probe
    kGarbage,      // bytes that are not the protocol (terminal)
    kBitFlip,      // a valid frame with one bit flipped (terminal)
    kTruncate,     // a valid frame cut short, then EOF (terminal)
    kOversized,    // an envelope declaring a too-large body (terminal)
  };
  Kind kind = Kind::kAnonymize;
  std::vector<NetRequest> requests;  // kAnonymize/kBurst/kStats
  std::string raw;                   // the hostile byte payloads
};

struct Session {
  std::vector<Op> ops;
};

bool IsTerminal(Op::Kind kind) {
  return kind == Op::Kind::kGarbage || kind == Op::Kind::kBitFlip ||
         kind == Op::Kind::kTruncate || kind == Op::Kind::kOversized;
}

/// The transport fault plan: only net.* + queue.admit specs, never a
/// background probability (worker/cache/ckpt sites belong to the
/// service leg).
FaultPlan DrawNetFaultPlan(uint64_t seed, Rng* rng, bool* mid_write) {
  FaultPlan plan;
  plan.seed = seed;
  *mid_write = false;
  // Every 4th schedule runs fault-free as a control.
  if (rng->Uniform(4) == 0) return plan;
  static const char* const kSites[] = {
      "net.accept", "net.read_torn", "net.write_stall",
      "net.close_mid_frame", "queue.admit",
  };
  const int overrides = rng->UniformInt(1, 3);
  for (int i = 0; i < overrides; ++i) {
    FaultSiteSpec spec;
    spec.site = kSites[rng->Uniform(sizeof(kSites) / sizeof(kSites[0]))];
    if (rng->Bernoulli(0.5)) {
      spec.first_n = static_cast<uint64_t>(rng->UniformInt(1, 3));
    } else {
      spec.probability = 0.02 + 0.18 * rng->UniformDouble();
    }
    if (spec.site == std::string("net.close_mid_frame") ||
        spec.site == std::string("net.write_stall")) {
      *mid_write = true;
    }
    plan.sites.push_back(std::move(spec));
  }
  return plan;
}

NetRequest DrawAnonymize(Rng* rng, uint64_t* next_seq) {
  NetRequest request;
  request.verb = NetVerb::kAnonymize;
  request.client_seq = (*next_seq)++;
  request.request = DrawRequest(rng, kAlgorithms);
  return request;
}

Op DrawOp(Rng* rng, uint64_t* next_seq) {
  Op op;
  const uint32_t pick = rng->Uniform(10);
  if (pick < 4) {
    op.kind = Op::Kind::kAnonymize;
    op.requests.push_back(DrawAnonymize(rng, next_seq));
    return op;
  }
  if (pick < 6) {
    op.kind = Op::Kind::kBurst;
    const int burst = rng->UniformInt(2, 5);
    for (int i = 0; i < burst; ++i) {
      op.requests.push_back(DrawAnonymize(rng, next_seq));
    }
    return op;
  }
  if (pick < 7) {
    op.kind = Op::Kind::kStats;
    NetRequest request;
    request.verb = NetVerb::kStats;
    request.client_seq = (*next_seq)++;
    op.requests.push_back(std::move(request));
    return op;
  }
  // Hostile payloads: all terminal for their session.
  const uint32_t hostile = rng->Uniform(4);
  if (hostile == 0) {
    op.kind = Op::Kind::kGarbage;
    const int len = rng->UniformInt(8, 64);
    op.raw.reserve(static_cast<size_t>(len));
    for (int i = 0; i < len; ++i) {
      op.raw.push_back(static_cast<char>(rng->Uniform(256)));
    }
    op.raw[0] = 'X';  // never a valid magic prefix
    return op;
  }
  std::string frame = EncodeNetRequest(DrawAnonymize(rng, next_seq));
  if (hostile == 1) {
    op.kind = Op::Kind::kBitFlip;
    const size_t bit =
        rng->Uniform(static_cast<uint32_t>(frame.size() * 8));
    frame[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));
    op.raw = std::move(frame);
    return op;
  }
  if (hostile == 2) {
    op.kind = Op::Kind::kTruncate;
    const size_t keep = 1 + static_cast<size_t>(rng->Uniform(
                                static_cast<uint32_t>(frame.size() - 1)));
    op.raw = frame.substr(0, keep);
    return op;
  }
  op.kind = Op::Kind::kOversized;
  // A syntactically perfect header announcing a body past the cap: the
  // codec must reject it before buffering a byte of it.
  std::string header = "KNET";
  const uint32_t version = 1;
  for (int i = 0; i < 4; ++i) {
    header.push_back(static_cast<char>((version >> (8 * i)) & 0xff));
  }
  const uint64_t huge = (uint64_t{1} << 40) + rng->Uniform(1000);
  for (int i = 0; i < 8; ++i) {
    header.push_back(static_cast<char>((huge >> (8 * i)) & 0xff));
  }
  op.raw = std::move(header);
  return op;
}

uint64_t FoldWorkload(uint64_t fp, const std::vector<Session>& sessions,
                      const FaultPlan& plan) {
  for (const FaultSiteSpec& spec : plan.sites) {
    fp = FingerprintPiece(fp, spec.site);
    fp = FingerprintInt(fp, spec.first_n);
    fp = FingerprintInt(fp, static_cast<uint64_t>(spec.probability * 1e6));
  }
  for (const Session& session : sessions) {
    for (const Op& op : session.ops) {
      fp = FingerprintInt(fp, static_cast<uint64_t>(op.kind));
      fp = FingerprintPiece(fp, op.raw);
      for (const NetRequest& request : op.requests) {
        fp = FingerprintPiece(fp, EncodeNetRequest(request));
      }
    }
  }
  return fp;
}

/// Shared tallies the session threads fold into.
struct Tally {
  std::mutex mu;
  size_t ok = 0;
  size_t typed = 0;
  std::vector<std::string> violations;  // invariant 7

  void Count(size_t* counter) {
    std::lock_guard<std::mutex> lock(mu);
    ++*counter;
  }
  void Violation(std::string what) {
    std::lock_guard<std::mutex> lock(mu);
    violations.push_back(std::move(what));
  }
};

/// Examines one Receive outcome for `want` (null when the response
/// matched no outstanding request). Returns false when the session's
/// transport is gone (stop the session).
bool NoteReceive(const StatusOr<NetResponse>& received,
                 const NetRequest* want, bool mid_write_faults,
                 Tally* tally) {
  if (!received.ok()) {
    const StatusCode code = received.status().code();
    if (code == StatusCode::kParseError) {
      tally->Violation("server sent non-protocol bytes: " +
                       received.status().ToString());
    } else if (code == StatusCode::kDeadlineExceeded) {
      tally->Violation("interaction hung: " + received.status().ToString());
    } else if (code == StatusCode::kDataLoss && !mid_write_faults) {
      tally->Violation("frame torn with no mid-write fault armed: " +
                       received.status().ToString());
    }
    return false;
  }
  const NetResponse& response = *received;
  if (response.verb == NetVerb::kShutdown) {
    // Connection-level farewell (limit, desync, drain): permitted; the
    // close that follows is clean.
    tally->Count(&tally->typed);
    return false;
  }
  if (!response.ok()) {
    if (response.error_name.empty()) {
      tally->Violation("error response without a taxonomy name (code " +
                       std::string(StatusCodeName(response.code)) + ")");
    }
    tally->Count(&tally->typed);
    return true;
  }
  if (want != nullptr && want->verb == NetVerb::kAnonymize) {
    const StatusOr<Table> input = ParseTableCsv(want->request.csv_text);
    const std::string wrong =
        input.ok() ? AnswerViolation(*input, want->request.k, response.csv,
                                     response.cost)
                   : input.status().ToString();
    if (!wrong.empty()) {
      tally->Violation("request seq " + std::to_string(want->client_seq) +
                       ": " + wrong);
    }
  }
  tally->Count(&tally->ok);
  return true;
}

/// Runs one session's ops against the server. Each terminal hostile op
/// ends the session; transport loss ends it early (permitted).
void RunSession(const Session& session, uint16_t port,
                bool mid_write_faults, Tally* tally) {
  NetClient client;
  // A refused connect is the listener gone (drain) or an injected
  // accept failure: a clean refusal.
  if (!client.Connect("127.0.0.1", port, 2000.0).ok()) return;
  for (const Op& op : session.ops) {
    if (IsTerminal(op.kind)) {
      if (!client.SendRaw(op.raw).ok()) return;
      // A truncated frame is torn by EOF: the server must treat it as
      // the clean end of a conversation that never completed a request.
      if (op.kind == Op::Kind::kTruncate) client.ShutdownWrite();
      // Expect one typed farewell or a straight close — never garbage,
      // never silence.
      const StatusOr<NetResponse> answer = client.Receive(10000.0);
      if (answer.ok()) {
        tally->Count(&tally->typed);
      } else if (answer.status().code() == StatusCode::kParseError) {
        tally->Violation("server answered hostile bytes with garbage: " +
                         answer.status().ToString());
      } else if (answer.status().code() == StatusCode::kDeadlineExceeded) {
        tally->Violation("hostile bytes hung the connection: " +
                         answer.status().ToString());
      }
      return;
    }

    // Valid traffic: send everything, then collect one response per
    // request (bursts pipeline, so responses may arrive out of order).
    for (const NetRequest& request : op.requests) {
      if (!client.Send(request).ok()) return;
    }
    std::vector<const NetRequest*> outstanding;
    for (const NetRequest& request : op.requests) {
      outstanding.push_back(&request);
    }
    for (size_t i = 0; i < op.requests.size(); ++i) {
      const StatusOr<NetResponse> received = client.Receive(20000.0);
      const NetRequest* want = nullptr;
      if (received.ok()) {
        const auto found = std::find_if(
            outstanding.begin(), outstanding.end(),
            [&](const NetRequest* r) {
              return r->client_seq == received->client_seq;
            });
        if (found != outstanding.end()) {
          want = *found;
          outstanding.erase(found);
        } else if (received->verb != NetVerb::kShutdown) {
          tally->Violation("response seq " +
                           std::to_string(received->client_seq) +
                           " matches no outstanding request");
        }
      }
      if (!NoteReceive(received, want, mid_write_faults, tally)) return;
    }
  }
  client.Close();
}

}  // namespace

void RunNetLeg(const ChaosOptions& options, const Leg& leg) {
  Rng rng(options.seed, /*stream=*/0x6e657463ull);  // "netc"

  bool mid_write_faults = false;
  const FaultPlan plan =
      DrawNetFaultPlan(options.seed, &rng, &mid_write_faults);

  // Workload first (pure function of the seed), then the live run.
  uint64_t next_seq = 1;
  std::vector<Session> sessions(kSessions);
  for (Session& session : sessions) {
    const int ops = rng.UniformInt(2, 6);
    for (int i = 0; i < ops; ++i) {
      session.ops.push_back(DrawOp(&rng, &next_seq));
      const Op& op = session.ops.back();
      leg.report->requests += IsTerminal(op.kind) ? 1 : op.requests.size();
      if (IsTerminal(op.kind)) break;  // terminal ends the session
    }
  }
  leg.report->digest = FoldWorkload(leg.report->digest, sessions, plan);

  const std::string journal_path =
      options.scratch_dir + "/kanon_netchaos_" +
      std::to_string(static_cast<unsigned long>(::getpid())) + "_" +
      std::to_string(options.seed) + ".journal";
  ::unlink(journal_path.c_str());
  auto journal = std::make_unique<JobJournal>(journal_path);

  ServiceOptions service_options;
  service_options.workers = 2;
  service_options.queue_capacity =
      static_cast<size_t>(rng.UniformInt(4, 32));
  service_options.cache_capacity = 16;
  service_options.observer = journal.get();
  AnonymizationService service(service_options);

  NetServerOptions server_options;
  server_options.port = 0;
  server_options.max_connections =
      rng.Bernoulli(0.25) ? 2 : sessions.size() + 4;
  server_options.max_inflight = static_cast<size_t>(rng.UniformInt(2, 8));
  server_options.frame_timeout_ms = 250.0;
  server_options.write_stall_ms = 2000.0;
  server_options.drain_grace_ms = 500.0;
  NetServer server(service, server_options);
  const Status started = server.Start();
  if (!started.ok()) {
    leg.Violation(7, "server failed to start: " + started.ToString());
    return;
  }

  // Arm the fault plan only for the live run.
  std::optional<ScopedFaultInjection> injection;
  injection.emplace(plan);
  std::thread server_thread([&server] { server.Run(); });

  Tally tally;
  const uint16_t port = server.port();
  std::vector<std::thread> threads;
  threads.reserve(sessions.size());
  for (const Session& session : sessions) {
    threads.emplace_back([&session, port, mid_write_faults, &tally] {
      RunSession(session, port, mid_write_faults, &tally);
    });
  }
  // The SIGTERM path, mid-flight: stop accepting, deliver what was
  // admitted, cancel (typed) past the grace window.
  std::this_thread::sleep_for(
      std::chrono::milliseconds(rng.UniformInt(20, 120)));
  server.RequestDrain();
  for (std::thread& t : threads) t.join();
  server_thread.join();
  leg.report->fires = FaultRegistry::Instance().TotalFires();
  injection.reset();

  // Everything the front end admitted must now drain through the
  // workers; Shutdown blocks until the queue is empty and joined.
  service.Shutdown();

  leg.report->ok = tally.ok;
  leg.report->typed = tally.typed;
  for (const std::string& what : tally.violations) leg.Violation(7, what);

  const NetServerStats stats = server.stats();
  if (stats.jobs_submitted !=
      stats.responses_delivered + stats.responses_dropped) {
    leg.Violation(9, "admitted jobs leaked: submitted=" +
                         std::to_string(stats.jobs_submitted) +
                         " delivered=" +
                         std::to_string(stats.responses_delivered) +
                         " dropped=" +
                         std::to_string(stats.responses_dropped));
  }

  const Metrics& metrics = service.metrics();
  const uint64_t accepted = metrics.Get(Counter::kAccepted);
  const uint64_t completed = metrics.Get(Counter::kCompleted);
  if (accepted != completed) {
    leg.Violation(8, "queue/pool ledgers disagree: accepted=" +
                         std::to_string(accepted) +
                         " completed=" + std::to_string(completed));
  }

  // The journal replays, and every admitted job has a durable outcome
  // record.
  journal.reset();  // close the fd before reading
  const StatusOr<JournalReplay> replay = JobJournal::ReplayFile(journal_path);
  if (!replay.ok()) {
    leg.Violation(8, "journal does not replay: " + replay.status().message());
  } else if (!replay->pending.empty()) {
    leg.Violation(8, "journal shows " +
                         std::to_string(replay->pending.size()) +
                         " job(s) with no outcome after a clean drain");
  }
  ::unlink(journal_path.c_str());
}

}  // namespace chaos
}  // namespace kanon
