// serve_bench — closed-loop serving benchmark of the in-process stack:
// AnonymizationService behind NetServer, driven over KNET from this
// process. perfbench/run.py builds it and is the entry point; see
// perfbench/README.md for the workloads and metrics.
//
// Usage:
//   serve_bench --workload=NAME --seed=N --seconds=S --trace=0|1
//               [--spans-out=PATH]
//
// --trace=0 measures the end-to-end metrics; --trace=1 serves the same
// way, then replays every served request through each layer's public
// functions with spans and reports the per-layer metrics. Either way
// every answer is checked after the timed window, and the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}.
//
// Exit codes: 0 all checks passed, 1 usage or set-up error, 2 a check
// failed (the JSON line is still printed, with "correct": false).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/anonymity.h"
#include "data/csv_table.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "replay.h"
#include "service/server.h"
#include "util/build_info.h"
#include "util/cli.h"
#include "util/fingerprint.h"
#include "util/parallel.h"
#include "workload.h"

namespace {

using namespace kanon;
using perfbench::ServedRequest;
using perfbench::Workload;

/// An end-to-end run splits its --seconds over this many rounds, each on
/// a freshly set-up stack. setup_s is the median of the rounds' set-ups,
/// and the timing metrics are medians over rounds, so one round that
/// the host slowed does not move them.
constexpr int kRounds = 10;

/// Untimed load before the first timed set-up (see RampUp).
constexpr double kRampSeconds = 2.0;

/// Longest window a traced run serves. Its single-threaded replay of
/// every served request takes several times the window, and the whole
/// run must end inside 180 s.
constexpr double kTraceSeconds = 12.0;

/// Replay Execute-path time over served run_ms must lie inside
/// [1 / kReconcileSlack, kReconcileSlack] (medians over requests).
constexpr double kReconcileSlack = 2.0;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear interpolation between order statistics (as util/stats
/// Quantile), over the first `n` values, which it sorts in place.
template <typename T>
double Percentile(std::vector<T>& values, size_t n, double q) {
  if (n == 0) return 0.0;
  std::sort(values.begin(), values.begin() + static_cast<ptrdiff_t>(n));
  const double pos = q * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, n - 1);
  const double frac = pos - static_cast<double>(lo);
  return static_cast<double>(values[lo]) * (1.0 - frac) +
         static_cast<double>(values[hi]) * frac;
}

/// Peak resident set (VmHWM) of this process in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// The serving stack under test, with the client connections.
class Stack {
 public:
  explicit Stack(const Workload& workload) {
    ServiceOptions options;
    options.workers = perfbench::kWorkers;
    options.queue_capacity = perfbench::kQueueCapacity;
    options.cache_capacity = perfbench::kCacheCapacity;
    options.shed_start_fraction = 0.75;
    options.shed_levels = 4;
    options.retry = RetryPolicy{};
    options.breaker = BreakerOptions{};
    options.observer = nullptr;
    options.checkpoints = nullptr;
    options.watchdog_stall_ms = 0.0;
    options.overload_enabled = false;
    service_ = std::make_unique<AnonymizationService>(options);
    NetServerOptions server_options;
    server_options.host = "127.0.0.1";
    server_options.port = 0;
    server_options.max_connections =
        static_cast<size_t>(workload.connections) + 4;
    server_ = std::make_unique<NetServer>(*service_, server_options);
    status_ = server_->Start();
    if (!status_.ok()) return;
    NetServer* raw = server_.get();
    thread_ = std::thread([raw] { raw->Run(); });
    for (int c = 0; c < workload.connections && status_.ok(); ++c) {
      clients_.push_back(std::make_unique<NetClient>());
      status_ = clients_.back()->Connect("127.0.0.1", server_->port());
    }
  }

  ~Stack() {
    for (auto& client : clients_) client->Close();
    if (thread_.joinable()) {
      server_->RequestDrain();
      thread_.join();
    }
    server_.reset();
    service_->Shutdown();
  }

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  const Status& status() const { return status_; }
  AnonymizationService& service() { return *service_; }
  NetServer& server() { return *server_; }
  NetClient& client(int c) { return *clients_[static_cast<size_t>(c)]; }

 private:
  std::unique_ptr<AnonymizationService> service_;
  std::unique_ptr<NetServer> server_;
  std::thread thread_;
  std::vector<std::unique_ptr<NetClient>> clients_;
  Status status_;
};

/// Distinct answers per pool table. Identical answers are kept once, so
/// every answer is checked after the window while memory depends only on
/// the pool, not on how many requests the window fit.
class AnswerStore {
 public:
  struct Answer {
    std::string csv;
    std::vector<uint64_t> costs;
  };

  explicit AnswerStore(size_t tables) : slots_(tables) {}

  void Add(uint32_t table, const std::string& csv, uint64_t cost) {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Answer>& slot = slots_[table];
    auto it = std::find_if(slot.begin(), slot.end(),
                           [&](const Answer& a) { return a.csv == csv; });
    if (it == slot.end()) {
      slot.push_back({csv, {}});
      it = slot.end() - 1;
    }
    if (std::find(it->costs.begin(), it->costs.end(), cost) ==
        it->costs.end()) {
      it->costs.push_back(cost);
    }
  }

  const std::vector<std::vector<Answer>>& slots() const { return slots_; }

 private:
  std::mutex mu_;
  std::vector<std::vector<Answer>> slots_;
};

/// Latencies of OK answers in a buffer sized and zeroed before the
/// first request, so its footprint does not depend on throughput.
class LatencyLog {
 public:
  explicit LatencyLog(size_t capacity) : values_(capacity) {}

  /// False when the buffer is full.
  bool Add(double latency_ms) {
    const size_t slot = count_.fetch_add(1);
    if (slot >= values_.size()) return false;
    values_[slot] = static_cast<float>(latency_ms);
    return true;
  }

  /// The recorded latencies, sorted.
  std::vector<float> Sorted() const {
    std::vector<float> out(
        values_.begin(),
        values_.begin() + static_cast<ptrdiff_t>(
                              std::min(count_.load(), values_.size())));
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::vector<float> values_;
  std::atomic<size_t> count_{0};
};

/// Where a closed loop puts what it sees. Null members are skipped.
struct Sink {
  double limit_ms = std::numeric_limits<double>::infinity();
  LatencyLog* latencies = nullptr;
  AnswerStore* answers = nullptr;
  /// Per connection: every OK answer in full (trace runs).
  std::vector<std::vector<ServedRequest>>* served = nullptr;
};

struct Totals {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t good = 0;
  uint64_t typed = 0;
  uint64_t protocol = 0;
  uint64_t transport = 0;
  /// OK answers whose echoed shape (k, rows) or sequence number is wrong.
  uint64_t bad_echo = 0;
  /// More OK answers than the latency buffer was sized for.
  uint64_t overflow = 0;
  std::string first_error;

  uint64_t Failures() const {
    return typed + protocol + transport + bad_echo + overflow;
  }

  void Add(const Totals& o) {
    attempted += o.attempted;
    ok += o.ok;
    good += o.good;
    typed += o.typed;
    protocol += o.protocol;
    transport += o.transport;
    bad_echo += o.bad_echo;
    overflow += o.overflow;
    if (first_error.empty()) first_error = o.first_error;
  }
};

/// Drives every connection closed loop: each sends request
/// `next++`, waits for its answer, and repeats until `end_index` or
/// `deadline_ms`.
Totals RunClosedLoop(Stack& stack, const Workload& w,
                     std::atomic<uint64_t>* next, uint64_t end_index,
                     double deadline_ms, const Sink& sink) {
  std::vector<Totals> totals(static_cast<size_t>(w.connections));
  std::vector<std::thread> threads;
  for (int c = 0; c < w.connections; ++c) {
    threads.emplace_back([&, c] {
      NetClient& client = stack.client(c);
      Totals& t = totals[static_cast<size_t>(c)];
      uint64_t seq = 0;
      while (NowMs() < deadline_ms) {
        const uint64_t i = next->fetch_add(1);
        if (i >= end_index) break;
        const auto table = static_cast<uint32_t>(w.TableFor(i));
        NetRequest request;
        request.verb = NetVerb::kAnonymize;
        request.client_seq = ++seq;
        request.request.algorithm = w.algorithm;
        request.request.k = w.k;
        request.request.node_budget = w.node_budget;
        request.request.csv_text = w.csv[table];
        ++t.attempted;
        const double t0 = NowMs();
        StatusOr<NetResponse> response = client.Call(request, 120000.0);
        const double latency_ms = NowMs() - t0;
        if (!response.ok()) {
          ++(response.status().code() == StatusCode::kParseError
                 ? t.protocol
                 : t.transport);
          if (t.first_error.empty()) {
            t.first_error = response.status().ToString();
          }
          break;  // the connection is gone either way
        }
        if (!response->ok()) {
          ++t.typed;
          if (t.first_error.empty()) {
            t.first_error = response->error_name + ": " + response->message;
          }
          continue;
        }
        ++t.ok;
        if (latency_ms <= sink.limit_ms) ++t.good;
        if (response->client_seq != seq || response->k != w.k ||
            response->rows != w.tables[table].num_rows()) {
          ++t.bad_echo;
        }
        if (sink.latencies != nullptr && !sink.latencies->Add(latency_ms)) {
          ++t.overflow;
        }
        if (sink.answers != nullptr) {
          sink.answers->Add(table, response->csv, response->cost);
        }
        if (sink.served != nullptr) {
          ServedRequest s;
          s.job_id = response->job_id;
          s.table = table;
          s.latency_ms = latency_ms;
          s.queue_ms = response->queue_ms;
          s.run_ms = response->run_ms;
          s.cost = response->cost;
          s.chain = response->chain;
          (*sink.served)[static_cast<size_t>(c)].push_back(std::move(s));
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  Totals sum;
  for (const Totals& t : totals) sum.Add(t);
  return sum;
}

/// Builds the stack and runs the fixed warm-up: the workload's
/// warmup_requests requests from `first` on. Null on failure.
std::unique_ptr<Stack> SetUp(const Workload& w, uint64_t first,
                             std::string* error) {
  auto stack = std::make_unique<Stack>(w);
  if (!stack->status().ok()) {
    *error = "set-up failed: " + stack->status().ToString();
    return nullptr;
  }
  std::atomic<uint64_t> next{first};
  const Totals warm =
      RunClosedLoop(*stack, w, &next, first + w.warmup_requests,
                    std::numeric_limits<double>::infinity(), Sink{});
  if (warm.ok != w.warmup_requests) {
    *error = "warm-up answered " + std::to_string(warm.ok) + " of " +
             std::to_string(w.warmup_requests) + ": " + warm.first_error;
    return nullptr;
  }
  return stack;
}

/// A first stack under closed-loop load for kRampSeconds, untimed: the
/// host runs an idle vCPU slower for its first second or two of load,
/// and set-up and the window should not see that.
std::unique_ptr<Stack> RampUp(const Workload& w, std::string* error) {
  std::unique_ptr<Stack> stack = SetUp(w, 0, error);
  if (stack == nullptr) return nullptr;
  std::atomic<uint64_t> next{w.warmup_requests};
  const Totals ramp =
      RunClosedLoop(*stack, w, &next, std::numeric_limits<uint64_t>::max(),
                    NowMs() + kRampSeconds * 1000.0, Sink{});
  if (ramp.ok != ramp.attempted) {
    *error = "ramp-up failed: " + ramp.first_error;
    return nullptr;
  }
  return stack;
}

/// What the answer check found.
struct CheckReport {
  uint64_t answers = 0;
  uint64_t failures = 0;
  std::string first_failure;
  /// Distinct pool tables with an answer, and their cost and cells.
  uint64_t tables_answered = 0;
  uint64_t cost = 0;
  uint64_t cells = 0;

  void Fail(const std::string& what) {
    if (failures++ == 0) first_failure = what;
  }
};

/// Every distinct answer: same rows and columns as its request, each
/// cell the input's or `*`, k-anonymous, and a star count equal to every
/// cost reported with it.
CheckReport CheckAnswers(const Workload& w, const AnswerStore& store) {
  CheckReport report;
  for (size_t t = 0; t < store.slots().size(); ++t) {
    const std::vector<AnswerStore::Answer>& slot = store.slots()[t];
    if (slot.empty()) continue;
    const Table& input = w.tables[t];
    ++report.tables_answered;
    report.cost += slot.front().costs.front();
    report.cells += static_cast<uint64_t>(input.num_rows()) *
                    input.num_columns();
    for (const AnswerStore::Answer& answer : slot) {
      ++report.answers;
      const std::string where = "table " + std::to_string(t) + ": ";
      StatusOr<Table> parsed = ParseTableCsv(answer.csv);
      if (!parsed.ok()) {
        report.Fail(where + parsed.status().ToString());
        continue;
      }
      const Table& output = *parsed;
      if (output.num_rows() != input.num_rows() ||
          output.num_columns() != input.num_columns()) {
        report.Fail(where + "shape differs from the request");
        continue;
      }
      bool cells_ok = true;
      for (ColId c = 0; c < input.num_columns(); ++c) {
        cells_ok &= output.schema().attribute_name(c) ==
                    input.schema().attribute_name(c);
      }
      for (RowId r = 0; r < input.num_rows() && cells_ok; ++r) {
        const std::vector<std::string> in = input.DecodeRow(r);
        const std::vector<std::string> out = output.DecodeRow(r);
        for (size_t c = 0; c < in.size(); ++c) {
          cells_ok &= out[c] == in[c] || out[c] == "*";
        }
      }
      if (!cells_ok) {
        report.Fail(where + "a cell is neither the input nor *");
        continue;
      }
      if (!IsKAnonymous(output, w.k)) {
        report.Fail(where + "answer is not " + std::to_string(w.k) +
                    "-anonymous");
      }
      const uint64_t stars = output.CountSuppressedCells();
      for (uint64_t cost : answer.costs) {
        if (cost != stars) {
          report.Fail(where + "reported cost " + std::to_string(cost) +
                      " but " + std::to_string(stars) + " stars");
        }
      }
    }
  }
  return report;
}

using Metrics = std::vector<std::tuple<std::string, double, std::string>>;

void PrintResult(bool correct, const Totals& totals, uint64_t failed,
                 const Metrics& metrics) {
  std::ostringstream line;
  line << std::setprecision(17) << "{\"correct\": "
       << (correct ? "true" : "false") << ", \"attempted\": "
       << totals.attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, value, unit] = metrics[i];
    line << (i ? ", " : "") << JsonString(name) << ": {\"value\": "
         << (std::isfinite(value) ? value : 0.0)
         << ", \"unit\": " << JsonString(unit) << "}";
  }
  line << "}}";
  std::cout << line.str() << std::endl;
}

struct Flags {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
};

/// The outcome of one timed window.
struct Window {
  Totals totals;
  double seconds = 0.0;
  NetServerStats net_before, net_after;
  ServiceStats service_before, service_after;
};

/// Serves the request sequence from `*cursor` on for `seconds` and
/// advances `*cursor` past the requests sent.
Window RunWindow(Stack& stack, const Workload& w, uint64_t* cursor,
                 double seconds, const Sink& sink) {
  Window window;
  window.net_before = stack.server().stats();
  window.service_before = stack.service().Stats();
  std::atomic<uint64_t> next{*cursor};
  const double start = NowMs();
  window.totals =
      RunClosedLoop(stack, w, &next, std::numeric_limits<uint64_t>::max(),
                    start + seconds * 1000.0, sink);
  window.seconds = (NowMs() - start) / 1000.0;
  *cursor += window.totals.attempted;
  window.net_after = stack.server().stats();
  window.service_after = stack.service().Stats();
  return window;
}

void PrintStamp(const Flags& flags, const Workload& w) {
  std::cout << "perfbench stamp: {\"workload\": " << JsonString(w.name)
            << ", \"seed\": " << flags.seed
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": " << JsonString(CpuModel())
            << ", \"build\": " << JsonString(BuildInfoString())
            << ", \"workers\": " << perfbench::kWorkers
            << ", \"parallelism\": " << GetParallelism()
            << ", \"connections\": " << w.connections
            << ", \"cache_capacity\": " << perfbench::kCacheCapacity
            << ", \"queue_capacity\": " << perfbench::kQueueCapacity
            << ", \"pool_tables\": " << w.csv.size()
            << ", \"pool_fingerprint\": \"" << std::hex
            << w.pool_fingerprint << std::dec << "\"}\n";
}

Totals SumTotals(const std::vector<Window>& windows) {
  Totals sum;
  for (const Window& window : windows) sum.Add(window.totals);
  return sum;
}

/// Prints why a run is not correct; true when it is. In every window
/// the client ledger must balance, and the server must have admitted or
/// refused every request the clients sent and delivered every admitted
/// job.
bool Verdict(const std::vector<Window>& windows, const CheckReport& check) {
  bool correct = true;
  for (const Window& window : windows) {
    const Totals& t = window.totals;
    if (t.attempted != t.ok + t.typed + t.protocol + t.transport) {
      std::cout << "perfbench FAIL: ledger attempted=" << t.attempted
                << " != ok+typed+protocol+transport\n";
      correct = false;
    }
    const uint64_t submitted =
        window.net_after.jobs_submitted - window.net_before.jobs_submitted;
    const uint64_t refused =
        window.net_after.jobs_rejected - window.net_before.jobs_rejected;
    const uint64_t delivered = window.net_after.responses_delivered -
                               window.net_before.responses_delivered;
    if (t.protocol + t.transport == 0 &&
        (submitted + refused != t.attempted || delivered != submitted)) {
      std::cout << "perfbench FAIL: server ledger submitted=" << submitted
                << " refused=" << refused << " delivered=" << delivered
                << " for " << t.attempted << " requests\n";
      correct = false;
    }
  }
  const Totals t = SumTotals(windows);
  if (t.ok == 0 || t.Failures() > 0) {
    std::cout << "perfbench FAIL: ok=" << t.ok << " typed=" << t.typed
              << " protocol=" << t.protocol << " transport=" << t.transport
              << " bad_echo=" << t.bad_echo << " overflow=" << t.overflow
              << " first error: " << t.first_error << "\n";
    correct = false;
  }
  if (check.failures > 0) {
    std::cout << "perfbench FAIL: " << check.failures
              << " answer check(s), first: " << check.first_failure << "\n";
    correct = false;
  }
  return correct;
}

void PrintList(const char* key, const std::vector<double>& values) {
  std::cout << ", \"" << key << "\": [";
  for (size_t i = 0; i < values.size(); ++i) {
    std::cout << (i ? ", " : "") << values[i];
  }
  std::cout << "]";
}

int RunEndToEnd(const Flags& flags, const Workload& w) {
  const double round_seconds = flags.seconds / kRounds;
  std::vector<std::unique_ptr<LatencyLog>> latencies;
  for (int round = 0; round < kRounds; ++round) {
    latencies.push_back(std::make_unique<LatencyLog>(static_cast<size_t>(
        static_cast<double>(w.max_rps) * round_seconds)));
  }
  AnswerStore answers(w.csv.size());
  Sink sink;
  sink.limit_ms = w.goodput_limit_ms;
  sink.answers = &answers;

  std::string error;
  std::unique_ptr<Stack> stack = RampUp(w, &error);
  std::vector<Window> windows;
  std::vector<double> setup_s, rps, p50, p90, p99;
  size_t samples = 0;
  // Each round warms up on the requests just before its window, so every
  // window starts from the cache state the sequence itself leaves, and
  // the rounds together cover the pool.
  uint64_t cursor = 0;
  for (int round = 0; round < kRounds && stack != nullptr; ++round) {
    stack.reset();
    const double start = NowMs();
    stack = SetUp(w, cursor, &error);
    if (stack == nullptr) break;
    setup_s.push_back((NowMs() - start) / 1000.0);
    cursor += w.warmup_requests;
    sink.latencies = latencies[static_cast<size_t>(round)].get();
    windows.push_back(RunWindow(*stack, w, &cursor, round_seconds, sink));
    std::vector<float> sorted = sink.latencies->Sorted();
    const size_t n = sorted.size();
    rps.push_back(static_cast<double>(windows.back().totals.ok) /
                  windows.back().seconds);
    p50.push_back(Percentile(sorted, n, 0.50));
    p90.push_back(Percentile(sorted, n, 0.90));
    p99.push_back(Percentile(sorted, n, 0.99));
    samples += n;
  }
  if (stack == nullptr) {
    std::cerr << "serve_bench: " << error << "\n";
    return 1;
  }
  const double peak_rss_mb = PeakRssMb();
  stack.reset();

  const CheckReport check = CheckAnswers(w, answers);
  const Totals t = SumTotals(windows);
  double window_s = 0.0;
  uint64_t cache_hits = 0;
  for (const Window& window : windows) {
    window_s += window.seconds;
    cache_hits +=
        window.service_after.cache.hits - window.service_before.cache.hits;
  }
  const double attempted = std::max<double>(1.0, t.attempted);
  std::cout << std::setprecision(6) << "perfbench diag: {\"window_s\": "
            << window_s << ", \"latency_samples\": " << samples
            << ", \"latency_p99_ms\": " << Percentile(p99, p99.size(), 0.5)
            << ", \"tables_answered\": " << check.tables_answered
            << ", \"distinct_answers\": " << check.answers;
  PrintList("round_rps", rps);
  PrintList("round_p90_ms", p90);
  PrintList("setup_reps_s", setup_s);
  std::cout << ", \"cache_hits\": " << cache_hits << ", \"breakers\": "
            << JsonString(windows.back().service_after.breakers) << "}\n";

  const bool correct = Verdict(windows, check);
  const Metrics metrics = {
      {"throughput_rps", Percentile(rps, rps.size(), 0.5), "1/s"},
      {"latency_p50_ms", Percentile(p50, p50.size(), 0.5), "ms"},
      {"latency_p90_ms", Percentile(p90, p90.size(), 0.5), "ms"},
      {"goodput_frac", static_cast<double>(t.good) / attempted, "frac"},
      {"ok_frac", static_cast<double>(t.ok) / attempted, "frac"},
      {"suppressed_frac",
       check.cells ? static_cast<double>(check.cost) / check.cells : 0.0,
       "frac"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", Percentile(setup_s, setup_s.size(), 0.5), "s"},
  };
  PrintResult(correct, t, t.Failures() + check.failures, metrics);
  return correct ? 0 : 2;
}

int RunTraced(const Flags& flags, const Workload& w) {
  // The window runs on a fresh stack, as every end-to-end round does, so
  // its cache holds only the set-up's warm-up and not the ramp's tables.
  std::string error;
  std::unique_ptr<Stack> stack = RampUp(w, &error);
  if (stack != nullptr) {
    stack.reset();
    stack = SetUp(w, 0, &error);
  }
  if (stack == nullptr) {
    std::cerr << "serve_bench: " << error << "\n";
    return 1;
  }
  AnswerStore answers(w.csv.size());
  std::vector<std::vector<ServedRequest>> per_connection(
      static_cast<size_t>(w.connections));
  Sink sink;
  sink.limit_ms = w.goodput_limit_ms;
  sink.answers = &answers;
  sink.served = &per_connection;
  uint64_t cursor = w.warmup_requests;
  const Window window = RunWindow(
      *stack, w, &cursor, std::min(flags.seconds, kTraceSeconds), sink);
  stack.reset();
  const CheckReport check = CheckAnswers(w, answers);
  const Totals& t = window.totals;

  // Served view: what each response reported.
  std::vector<ServedRequest> served;
  for (auto& requests : per_connection) {
    served.insert(served.end(), std::make_move_iterator(requests.begin()),
                  std::make_move_iterator(requests.end()));
  }
  std::sort(served.begin(), served.end(),
            [](const ServedRequest& a, const ServedRequest& b) {
              return a.job_id < b.job_id;
            });
  std::vector<double> front_ms, queue_ms, run_ms;
  for (const ServedRequest& s : served) {
    front_ms.push_back(s.latency_ms - s.queue_ms - s.run_ms);
    queue_ms.push_back(s.queue_ms);
    run_ms.push_back(s.run_ms);
  }
  const size_t n = served.size();
  const double served_run_p50 = Percentile(run_ms, n, 0.5);

  // Replay view: every request traced. The tracing overhead compares the
  // first quarter of the requests, traced, with untraced passes over the
  // same quarter before and after it; the faster untraced pass counts,
  // so a first pass's cold allocator and caches are not charged to
  // tracing.
  const size_t prefix = std::max<size_t>(1, n / 4);
  perfbench::Tracer untraced(false);
  perfbench::ReplayResult plain =
      perfbench::Replay(w, served, &untraced, prefix, prefix);
  perfbench::Tracer tracer(true);
  perfbench::ReplayResult replay =
      perfbench::Replay(w, served, &tracer, n, prefix);
  perfbench::ReplayResult again =
      perfbench::Replay(w, served, &untraced, prefix, prefix);
  plain.mismatches += again.mismatches;
  if (plain.first_mismatch.empty()) plain.first_mismatch = again.first_mismatch;
  plain.prefix_s = std::min(plain.prefix_s, again.prefix_s);
  const uint64_t lower_bound =
      perfbench::SumKnnLowerBound(w, replay.cost_by_table);
  uint64_t distinct_cost = 0;
  for (const auto& [table, cost] : replay.cost_by_table) distinct_cost += cost;
  uint64_t nodes = 0;
  for (const auto& [table, count] : replay.nodes_by_table) nodes += count;

  const double requests = std::max<double>(1.0, replay.requests);
  auto per_request = [&](std::initializer_list<const char*> names,
                         double scale) {
    double ns = 0.0;
    for (const char* name : names) ns += tracer.TotalNs(name);
    return ns / requests / scale;
  };
  constexpr double kUs = 1e3, kMs = 1e6;
  // The diagnostic re-runs happen once per distinct table.
  auto per_table = [&](const char* name) {
    const uint64_t count = tracer.Count(name);
    return count ? static_cast<double>(tracer.TotalNs(name)) / count / kMs
                 : 0.0;
  };
  const double replay_execute_p50 =
      Percentile(replay.execute_ms, replay.execute_ms.size(), 0.5);
  const double reconcile =
      served_run_p50 > 0.0 ? replay_execute_p50 / served_run_p50 : 0.0;
  const double overhead =
      plain.prefix_s > 0.0 ? replay.prefix_s / plain.prefix_s - 1.0 : 0.0;
  const uint64_t lookups =
      (window.service_after.cache.hits + window.service_after.cache.misses) -
      (window.service_before.cache.hits + window.service_before.cache.misses);
  const uint64_t submitted =
      window.net_after.jobs_submitted - window.net_before.jobs_submitted;
  const uint64_t rejected =
      window.net_after.jobs_rejected - window.net_before.jobs_rejected;

  std::cout << std::setprecision(6) << "perfbench diag: {\"window_s\": "
            << window.seconds << ", \"served\": " << n
            << ", \"served_rps\": " << static_cast<double>(t.ok) /
                                           window.seconds
            << ", \"replay_rps_traced\": " << prefix / replay.prefix_s
            << ", \"replay_rps_untraced\": " << prefix / plain.prefix_s
            << ", \"served_run_p50_ms\": " << served_run_p50
            << ", \"replay_execute_p50_ms\": " << replay_execute_p50
            << ", \"reconcile_slack\": " << kReconcileSlack
            << ", \"mismatches\": " << replay.mismatches
            << ", \"untraced_mismatches\": " << plain.mismatches
            << ", \"tables_replayed\": " << replay.cost_by_table.size()
            << ", \"lower_bound\": " << lower_bound
            << ", \"breakers\": " << JsonString(window.service_after.breakers)
            << "}\n";

  bool correct = Verdict({window}, check);
  if (replay.mismatches + plain.mismatches > 0) {
    std::cout << "perfbench FAIL: replay disagrees with serving on "
              << replay.mismatches << " + " << plain.mismatches
              << " request(s), first: " << replay.first_mismatch
              << plain.first_mismatch << "\n";
    correct = false;
  }
  if (!(reconcile >= 1.0 / kReconcileSlack && reconcile <= kReconcileSlack)) {
    std::cout << "perfbench FAIL: replay Execute-path p50 "
              << replay_execute_p50 << " ms vs served run_ms p50 "
              << served_run_p50 << " ms is outside the slack x"
              << kReconcileSlack << "\n";
    correct = false;
  }
  if (!flags.spans_out.empty()) {
    std::ofstream out(flags.spans_out);
    tracer.Write(out);
    if (!out) {
      std::cerr << "serve_bench: cannot write " << flags.spans_out << "\n";
      return 1;
    }
  }

  const Metrics metrics = {
      {"net.front_ms", Percentile(front_ms, n, 0.5), "ms"},
      {"net.codec_us",
       per_request({"net.encode_request", "net.decode_request",
                    "net.encode_response", "net.decode_response"},
                   kUs),
       "us"},
      {"net.frame_bytes",
       static_cast<double>(replay.request_frame_bytes +
                           replay.response_frame_bytes) /
           requests,
       "bytes"},
      {"net.backpressure_pauses",
       static_cast<double>(window.net_after.backpressure_pauses -
                           window.net_before.backpressure_pauses),
       "count"},
      {"service.queue_p50_ms", Percentile(queue_ms, n, 0.5), "ms"},
      {"service.queue_p90_ms", Percentile(queue_ms, n, 0.9), "ms"},
      {"service.run_ms", served_run_p50, "ms"},
      {"service.validate_us", per_request({"service.validate"}, kUs), "us"},
      {"service.fingerprint_us", per_request({"service.fingerprint"}, kUs),
       "us"},
      {"service.cache_us",
       per_request({"service.cache_lookup", "service.cache_insert"}, kUs),
       "us"},
      {"service.cache_hit_frac",
       lookups ? static_cast<double>(window.service_after.cache.hits -
                                     window.service_before.cache.hits) /
                     lookups
               : 0.0,
       "frac"},
      {"service.rejected_frac",
       submitted + rejected
           ? static_cast<double>(rejected) / (submitted + rejected)
           : 0.0,
       "frac"},
      {"data.csv_parse_us", per_request({"data.csv_parse"}, kUs), "us"},
      {"data.csv_render_us", per_request({"data.csv_render"}, kUs), "us"},
      {"data.csv_bytes",
       static_cast<double>(replay.request_csv_bytes) / requests, "bytes"},
      {"algo.chain_ms", per_request({"algo.chain"}, kMs), "ms"},
      {"algo.stage.exact_dp_ms", per_request({"algo.stage.exact_dp"}, kMs),
       "ms"},
      {"algo.stage.branch_bound_ms",
       per_request({"algo.stage.branch_bound"}, kMs), "ms"},
      {"algo.stage.greedy_cover_ms",
       per_request({"algo.stage.greedy_cover"}, kMs), "ms"},
      {"algo.stage.mdav_ms", per_request({"algo.stage.mdav"}, kMs), "ms"},
      {"algo.stage.suppress_all_ms",
       per_request({"algo.stage.suppress_all"}, kMs), "ms"},
      {"algo.stages_per_req", static_cast<double>(replay.stages_run) / requests,
       "count"},
      {"algo.useful_frac",
       tracer.TotalNs("algo.chain") > 0
           ? static_cast<double>(replay.accepted_stage_ns) /
                 tracer.TotalNs("algo.chain")
           : 0.0,
       "frac"},
      {"algo.nodes_per_req",
       replay.nodes_by_table.empty()
           ? 0.0
           : static_cast<double>(nodes) / replay.nodes_by_table.size(),
       "count"},
      {"core.distance_build_ms", per_request({"core.distance_build"}, kMs),
       "ms"},
      {"core.distance_bytes",
       replay.oracle_builds ? replay.oracle_dense_bytes / replay.oracle_builds
                            : 0.0,
       "bytes"},
      {"core.finalize_ms", per_table("core.finalize"), "ms"},
      {"core.diameter_sum_ms", per_table("core.diameter_sum"), "ms"},
      {"core.suppress_ms", per_request({"core.suppress"}, kMs), "ms"},
      {"core.validate_ms", per_table("core.validate"), "ms"},
      {"core.lb_gap",
       lower_bound ? static_cast<double>(distinct_cost) / lower_bound : 0.0,
       "ratio"},
      {"trace.overhead_frac", overhead, "frac"},
      {"trace.reconcile_ratio", reconcile, "ratio"},
  };
  PrintResult(correct, t, t.Failures() + check.failures + replay.mismatches,
              metrics);
  return correct ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  const std::vector<std::string> unknown = cl.UnknownFlags(
      {"workload", "seed", "seconds", "trace", "spans-out"});
  const StatusOr<long long> seed = cl.GetValidatedInt(
      "seed", -1, 0, std::numeric_limits<long long>::max());
  const StatusOr<long long> trace = cl.GetValidatedInt("trace", 0, 0, 1);
  Flags flags;
  flags.workload = cl.GetString("workload", "");
  flags.seconds = cl.GetDouble("seconds", 0.0);
  flags.spans_out = cl.GetString("spans-out", "");
  if (!unknown.empty() || !seed.ok() || !trace.ok() ||
      !(flags.seconds > 0.0)) {
    std::cerr << "usage: serve_bench --workload=NAME --seed=N --seconds=S "
                 "--trace=0|1 [--spans-out=PATH]\n";
    return 1;
  }
  flags.seed = static_cast<uint64_t>(*seed);
  flags.trace = *trace == 1;

  SetParallelism(perfbench::kParallelism);
  Workload workload;
  if (!perfbench::MakeWorkload(flags.workload, flags.seed, &workload)) {
    std::cerr << "serve_bench: unknown workload '" << flags.workload
              << "'\n";
    return 1;
  }
  PrintStamp(flags, workload);
  return flags.trace ? RunTraced(flags, workload)
                     : RunEndToEnd(flags, workload);
}
