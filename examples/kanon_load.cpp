// kanon_load — load generator for the kanond TCP front end.
//
// Two traffic shapes:
//   - closed loop (default): N connections each send one request, wait
//     for its response, repeat until the shared budget is spent. The
//     classic throughput benchmark — but offered load is capped by
//     service latency, so it cannot probe overload.
//   - open loop (--target-rps=R[,R2,...]): requests are launched on a
//     Poisson arrival schedule at the *offered* rate regardless of how
//     the service is coping — the arrival process of real clients, and
//     the only shape that can push a server past saturation. Each
//     offered rate becomes one point of a load curve (goodput,
//     latency percentiles, typed-shed breakdown) in the JSON report,
//     so sweeping rates charts goodput/latency vs offered load.
//
// With --deadline-ms=D every request carries deadline D and *goodput*
// counts only OK answers delivered inside D — the metric the overload
// plane's brownout ladder is designed to defend. --overload-target-ms /
// --retry-budget-ratio / --brownout arm the overload plane of the
// hermetic in-process service (same semantics as the kanond flags), so
// A/B-ing `--brownout=off` vs `--brownout=auto` under the same offered
// load measures what the ladder buys.
//
// Modes:
//   - hermetic (default, no --port): spawns the full service stack +
//     NetServer in-process on an ephemeral port — the CI benchmark path,
//     no daemon required;
//   - remote (--port=P [--host=H]): drives an already-running kanond.
//
// The request pool cycles through more table variants than the result
// cache holds, so the measured path is the real queue -> worker ->
// solver pipeline, not a cache echo. Every request names the algorithm
// --algo (default resilient); a cheap one such as mdav measures the
// front end's ceiling rather than the solver.
//
// Usage:
//   ./kanon_load [--connections=N] [--requests=N] [--rows=N] [--k=N]
//                [--algo=NAME] [--node-budget=N] [--target-rps=R[,R2,...]]
//                [--deadline-ms=F] [--overload-target-ms=F]
//                [--retry-budget-ratio=F] [--brownout=off|auto]
//                [--host=H] [--port=P] [--out=FILE] [--version]
//
// Exit codes: 0 success, 1 usage/setup error, 2 protocol errors seen.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algo/registry.h"
#include "data/csv_table.h"
#include "data/generators/uniform.h"
#include "net/client.h"
#include "net/tcp_server.h"
#include "service/server.h"
#include "util/build_info.h"
#include "util/cli.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace {

using namespace kanon;

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Everything the worker threads fold into, merged under one lock at
/// thread exit (per-thread locals while running: no contention inside
/// the measured loop).
struct Totals {
  std::mutex mu;
  std::vector<double> latencies_ms;
  size_t ok = 0;
  /// OK answers delivered inside the request deadline (== ok when no
  /// deadline was set).
  size_t good = 0;
  /// OK answers the brownout ladder degraded to a cheaper backend.
  size_t browned_out = 0;
  size_t typed_errors = 0;
  size_t shed = 0;
  size_t infeasible = 0;
  size_t protocol_errors = 0;
  size_t transport_errors = 0;
};

/// One measured point of the load curve.
struct LoadPoint {
  double offered_rps = 0.0;  // 0 = closed loop
  double duration_ms = 0.0;
  Totals totals;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const size_t index = std::min(
      sorted.size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted.size())));
  return sorted[index];
}

struct WorkloadConfig {
  std::string host;
  uint16_t port = 0;
  const std::vector<std::string>* pool = nullptr;
  std::string algorithm;
  long long connections = 0;
  long long requests = 0;
  size_t k = 0;
  uint64_t node_budget = 0;
  double deadline_ms = 0.0;
};

/// Classifies one answered response into the point's counters.
void CountResponse(const NetResponse& response, double latency_ms,
                   double deadline_ms, Totals* totals) {
  totals->latencies_ms.push_back(latency_ms);
  if (response.ok()) {
    ++totals->ok;
    if (deadline_ms <= 0.0 || latency_ms <= deadline_ms) ++totals->good;
    if (response.brownout > 0) ++totals->browned_out;
    return;
  }
  if (response.error_name == "queue_full" ||
      response.error_name == "shed_low_priority" ||
      response.error_name == "shed_overload") {
    ++totals->shed;
  } else if (response.error_name == "deadline_infeasible") {
    ++totals->infeasible;
  } else {
    ++totals->typed_errors;
  }
}

NetRequest BuildRequest(const WorkloadConfig& config, uint64_t seq,
                        size_t pool_index) {
  NetRequest request;
  request.verb = NetVerb::kAnonymize;
  request.client_seq = seq;
  request.request.algorithm = config.algorithm;
  request.request.k = config.k;
  request.request.node_budget = config.node_budget;
  request.request.deadline_ms = config.deadline_ms;
  request.request.csv_text =
      (*config.pool)[pool_index % config.pool->size()];
  return request;
}

/// Closed loop: each connection keeps exactly one request in flight.
void RunClosedLoop(const WorkloadConfig& config, LoadPoint* point) {
  std::atomic<long long> budget{config.requests};
  const double start_ms = NowMs();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.connections));
  for (long long c = 0; c < config.connections; ++c) {
    workers.emplace_back([&, c] {
      NetClient client;
      if (!client.Connect(config.host, config.port, 5000.0).ok()) {
        std::lock_guard<std::mutex> lock(point->totals.mu);
        ++point->totals.transport_errors;
        return;
      }
      Totals local;
      uint64_t seq = 0;
      size_t next = static_cast<size_t>(c);
      while (budget.fetch_sub(1) > 0) {
        const NetRequest request = BuildRequest(config, ++seq, next);
        next += static_cast<size_t>(config.connections);
        const double t0 = NowMs();
        const StatusOr<NetResponse> response =
            client.Call(request, 60000.0);
        const double t1 = NowMs();
        if (!response.ok()) {
          if (response.status().code() == StatusCode::kParseError) {
            ++local.protocol_errors;
          } else {
            ++local.transport_errors;
          }
          break;  // connection is gone either way
        }
        CountResponse(*response, t1 - t0, config.deadline_ms, &local);
      }
      std::lock_guard<std::mutex> lock(point->totals.mu);
      point->totals.latencies_ms.insert(point->totals.latencies_ms.end(),
                                        local.latencies_ms.begin(),
                                        local.latencies_ms.end());
      point->totals.ok += local.ok;
      point->totals.good += local.good;
      point->totals.browned_out += local.browned_out;
      point->totals.typed_errors += local.typed_errors;
      point->totals.shed += local.shed;
      point->totals.infeasible += local.infeasible;
      point->totals.protocol_errors += local.protocol_errors;
      point->totals.transport_errors += local.transport_errors;
    });
  }
  for (std::thread& t : workers) t.join();
  point->duration_ms = NowMs() - start_ms;
}

/// Open loop: requests launch on a precomputed Poisson schedule at the
/// offered rate, whether or not earlier ones have been answered. Each
/// worker claims the next arrival slot, sleeps until its scheduled
/// time (a worker running behind fires immediately — offered load is
/// never throttled by service latency), sends, and waits for that one
/// response.
void RunOpenLoop(const WorkloadConfig& config, double offered_rps,
                 uint64_t seed, LoadPoint* point) {
  point->offered_rps = offered_rps;
  const size_t n = static_cast<size_t>(config.requests);
  std::vector<double> arrivals_ms(n);
  Rng rng(seed, /*stream=*/0x6f70656eull);  // "open"
  const double mean_gap_ms = 1000.0 / offered_rps;
  double clock_ms = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double u = std::min(rng.UniformDouble(), 0.999999);
    clock_ms += -mean_gap_ms * std::log(1.0 - u);
    arrivals_ms[i] = clock_ms;
  }

  std::atomic<size_t> next_slot{0};
  const auto start = std::chrono::steady_clock::now();
  const double start_ms = NowMs();
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.connections));
  for (long long c = 0; c < config.connections; ++c) {
    workers.emplace_back([&] {
      NetClient client;
      if (!client.Connect(config.host, config.port, 5000.0).ok()) {
        std::lock_guard<std::mutex> lock(point->totals.mu);
        ++point->totals.transport_errors;
        return;
      }
      Totals local;
      uint64_t seq = 0;
      bool connected = true;
      while (connected) {
        const size_t slot = next_slot.fetch_add(1);
        if (slot >= n) break;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(
                            arrivals_ms[slot])));
        const NetRequest request = BuildRequest(config, ++seq, slot);
        const double t0 = NowMs();
        const StatusOr<NetResponse> response =
            client.Call(request, 60000.0);
        const double t1 = NowMs();
        if (!response.ok()) {
          if (response.status().code() == StatusCode::kParseError) {
            ++local.protocol_errors;
          } else {
            ++local.transport_errors;
          }
          // The connection is gone; reconnect so the schedule's
          // remaining arrivals still launch (open loop never slows).
          client.Close();
          connected = client.Connect(config.host, config.port,
                                     5000.0).ok();
          continue;
        }
        CountResponse(*response, t1 - t0, config.deadline_ms, &local);
      }
      std::lock_guard<std::mutex> lock(point->totals.mu);
      point->totals.latencies_ms.insert(point->totals.latencies_ms.end(),
                                        local.latencies_ms.begin(),
                                        local.latencies_ms.end());
      point->totals.ok += local.ok;
      point->totals.good += local.good;
      point->totals.browned_out += local.browned_out;
      point->totals.typed_errors += local.typed_errors;
      point->totals.shed += local.shed;
      point->totals.infeasible += local.infeasible;
      point->totals.protocol_errors += local.protocol_errors;
      point->totals.transport_errors += local.transport_errors;
    });
  }
  for (std::thread& t : workers) t.join();
  point->duration_ms = NowMs() - start_ms;
}

void AppendPointJson(std::ostringstream& json, const std::string& indent,
                     LoadPoint& point) {
  std::sort(point.totals.latencies_ms.begin(),
            point.totals.latencies_ms.end());
  const size_t answered = point.totals.latencies_ms.size();
  const double throughput =
      point.duration_ms > 0
          ? 1000.0 * static_cast<double>(answered) / point.duration_ms
          : 0.0;
  const double goodput =
      point.duration_ms > 0
          ? 1000.0 * static_cast<double>(point.totals.good) /
                point.duration_ms
          : 0.0;
  const double shed_rate =
      answered > 0 ? static_cast<double>(point.totals.shed) /
                         static_cast<double>(answered)
                   : 0.0;
  json << indent << "\"offered_rps\": " << point.offered_rps << ",\n"
       << indent << "\"requests\": " << answered << ",\n"
       << indent << "\"duration_ms\": " << point.duration_ms << ",\n"
       << indent << "\"throughput_rps\": " << throughput << ",\n"
       << indent << "\"goodput_rps\": " << goodput << ",\n"
       << indent << "\"latency_ms\": {\n"
       << indent << "  \"p50\": "
       << Percentile(point.totals.latencies_ms, 0.50) << ",\n"
       << indent << "  \"p90\": "
       << Percentile(point.totals.latencies_ms, 0.90) << ",\n"
       << indent << "  \"p99\": "
       << Percentile(point.totals.latencies_ms, 0.99) << ",\n"
       << indent << "  \"max\": "
       << (answered ? point.totals.latencies_ms.back() : 0.0) << "\n"
       << indent << "},\n"
       << indent << "\"ok\": " << point.totals.ok << ",\n"
       << indent << "\"good\": " << point.totals.good << ",\n"
       << indent << "\"browned_out\": " << point.totals.browned_out
       << ",\n"
       << indent << "\"typed_errors\": " << point.totals.typed_errors
       << ",\n"
       << indent << "\"shed\": " << point.totals.shed << ",\n"
       << indent << "\"shed_rate\": " << shed_rate << ",\n"
       << indent << "\"deadline_infeasible\": "
       << point.totals.infeasible << ",\n"
       << indent << "\"protocol_errors\": "
       << point.totals.protocol_errors << ",\n"
       << indent << "\"transport_errors\": "
       << point.totals.transport_errors;
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cl = CommandLine::Parse(argc, argv);
  if (cl.GetBool("version", false)) {
    std::cout << "kanon_load " << BuildInfoString() << "\n";
    return 0;
  }

  const StatusOr<long long> connections =
      cl.GetValidatedInt("connections", 32, 1, 4096);
  const StatusOr<long long> requests =
      cl.GetValidatedInt("requests", 2000, 1,
                         std::numeric_limits<long long>::max());
  const StatusOr<long long> rows = cl.GetValidatedInt("rows", 24, 4, 4096);
  const StatusOr<long long> k_flag = cl.GetValidatedInt("k", 3, 1, 64);
  // Without a budget the resilient chain is allowed to run branch_bound
  // to completion, which is exponential in the worst case — a
  // benchmark wants the *serving* cost, so bound the solver and let the
  // chain degrade the way production requests do.
  const StatusOr<long long> node_budget =
      cl.GetValidatedInt("node-budget", 2000, 0,
                         std::numeric_limits<long long>::max());
  const StatusOr<long long> port_flag =
      cl.GetValidatedInt("port", 0, 0, 65535);
  for (const auto* flag :
       {&connections, &requests, &rows, &k_flag, &node_budget,
        &port_flag}) {
    if (!flag->ok()) {
      std::cerr << "error: " << flag->status().message() << "\n";
      return 1;
    }
  }
  const std::string algorithm = cl.GetString("algo", "resilient");
  if (const StatusOr<AlgorithmName> parsed = ParseAlgorithmNameOr(algorithm);
      !parsed.ok()) {
    std::cerr << "error: " << parsed.status().message() << "\n";
    return 1;
  }
  const std::string host = cl.GetString("host", "127.0.0.1");
  const std::string out_path = cl.GetString("out", "BENCH_service.json");
  // Millisecond flags become steady-clock durations; the cap keeps that
  // conversion far from overflow.
  constexpr double kMaxMillis = 1e9;
  const StatusOr<double> deadline_flag =
      cl.GetValidatedDouble("deadline-ms", 0.0, 0.0, kMaxMillis);
  const StatusOr<double> overload_flag =
      cl.GetValidatedDouble("overload-target-ms", 0.0, 0.0, kMaxMillis);
  const StatusOr<double> retry_flag =
      cl.GetValidatedDouble("retry-budget-ratio", 0.1, 0.0, 1.0);
  for (const auto* flag : {&deadline_flag, &overload_flag, &retry_flag}) {
    if (!flag->ok()) {
      std::cerr << "error: " << flag->status().message() << "\n";
      return 1;
    }
  }
  const double deadline_ms = *deadline_flag;
  const double overload_target = *overload_flag;
  const double retry_ratio = *retry_flag;
  const std::string brownout = cl.GetString("brownout", "");
  if (!brownout.empty() && brownout != "off" && brownout != "auto") {
    std::cerr << "error: --brownout must be off or auto\n";
    return 1;
  }

  // The offered-rate sweep: each entry becomes one open-loop point.
  std::vector<double> target_rps;
  const std::string rps_spec = cl.GetString("target-rps", "");
  if (!rps_spec.empty()) {
    for (const std::string& piece : Split(rps_spec, ',')) {
      char* end = nullptr;
      const double rate = std::strtod(piece.c_str(), &end);
      if (end == piece.c_str() || *end != '\0' || !(rate > 0.0)) {
        std::cerr << "error: --target-rps wants positive rates, got '"
                  << piece << "'\n";
        return 1;
      }
      target_rps.push_back(rate);
    }
  }

  // Pre-generate the request pool: 256 distinct tables > the default
  // result-cache capacity, so cache hits stay a minority.
  constexpr size_t kPoolSize = 256;
  Rng rng(42, /*stream=*/0x6c6f6164ull);  // "load"
  std::vector<std::string> pool;
  pool.reserve(kPoolSize);
  for (size_t i = 0; i < kPoolSize; ++i) {
    UniformTableOptions table;
    table.num_rows = static_cast<uint32_t>(*rows);
    table.num_columns = 3;
    table.alphabet = 4;
    pool.push_back(TableToCsv(UniformTable(table, &rng)));
  }

  // Hermetic mode: the whole serving stack in-process.
  std::unique_ptr<AnonymizationService> service;
  std::unique_ptr<NetServer> server;
  std::thread server_thread;
  uint16_t port = static_cast<uint16_t>(*port_flag);
  if (port == 0) {
    ServiceOptions service_options;
    service_options.workers =
        std::max(2u, std::thread::hardware_concurrency());
    if (overload_target > 0.0 || !brownout.empty()) {
      service_options.overload_enabled = true;
      if (overload_target > 0.0) {
        service_options.overload.codel.target_ms = overload_target;
      }
      service_options.overload.retry_budget.ratio = retry_ratio;
      service_options.overload.governor_enabled = brownout != "off";
    }
    service = std::make_unique<AnonymizationService>(service_options);
    NetServerOptions server_options;
    server_options.port = 0;
    server_options.max_connections =
        static_cast<size_t>(*connections) + 16;
    NetServer* raw = new NetServer(*service, server_options);
    server.reset(raw);
    const Status started = server->Start();
    if (!started.ok()) {
      std::cerr << "error: server start failed: " << started.ToString()
                << "\n";
      return 1;
    }
    port = server->port();
    server_thread = std::thread([raw] { raw->Run(); });
  }

  WorkloadConfig config;
  config.host = host;
  config.port = port;
  config.pool = &pool;
  config.algorithm = algorithm;
  config.connections = *connections;
  config.requests = *requests;
  config.k = static_cast<size_t>(*k_flag);
  config.node_budget = static_cast<uint64_t>(*node_budget);
  config.deadline_ms = deadline_ms;

  std::vector<std::unique_ptr<LoadPoint>> points;
  if (target_rps.empty()) {
    points.push_back(std::make_unique<LoadPoint>());
    RunClosedLoop(config, points.back().get());
  } else {
    for (size_t i = 0; i < target_rps.size(); ++i) {
      points.push_back(std::make_unique<LoadPoint>());
      RunOpenLoop(config, target_rps[i], /*seed=*/42 + i,
                  points.back().get());
    }
  }

  if (server) {
    server->RequestDrain();
    server_thread.join();
  }
  if (service) service->Shutdown();

  size_t protocol_errors = 0;
  std::ostringstream json;
  json.precision(3);
  json << std::fixed;
  json << "{\n"
       << "  \"build\": \"" << BuildInfoString() << "\",\n"
       << "  \"nproc\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"algorithm\": \"" << algorithm << "\",\n"
       << "  \"connections\": " << *connections << ",\n"
       << "  \"mode\": \""
       << (target_rps.empty() ? "closed_loop" : "open_loop") << "\",\n"
       << "  \"deadline_ms\": " << deadline_ms << ",\n";
  // The first point doubles as the top-level summary (keeps the
  // closed-loop JSON shape stable for existing consumers).
  AppendPointJson(json, "  ", *points.front());
  protocol_errors += points.front()->totals.protocol_errors;
  if (!target_rps.empty()) {
    json << ",\n  \"load_curve\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      json << "    {\n";
      AppendPointJson(json, "      ", *points[i]);
      json << "\n    }" << (i + 1 < points.size() ? "," : "") << "\n";
      if (i > 0) protocol_errors += points[i]->totals.protocol_errors;
    }
    json << "  ]";
  }
  json << "\n}\n";

  std::cout << json.str();
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  out << json.str();
  out.close();
  std::cerr << "kanon_load: wrote " << out_path << "\n";
  return protocol_errors == 0 ? 0 : 2;
}
