// kanond — the k-anonymization daemon: a long-running service speaking
// the newline-delimited line protocol (service/server.h) over
// stdin/stdout. Each `anonymize` line is validated, admitted through
// the bounded job queue, executed on the worker pool as the requested
// algorithm followed by suppress_all (`resilient` runs its own chain),
// and answered from the LRU result cache when the same (table,
// algorithm, k) instance was already solved.
//
// Usage:
//   ./kanond [--workers=N] [--queue-capacity=N] [--cache-capacity=N]
//            [--journal=PATH] [--checkpoint-dir=PATH]
//            [--checkpoint-every=N] [--checkpoint-ms=F]
//            [--watchdog-ms=F] [--faults=SPEC] [--once]
//            [--tcp-port=N] [--tcp-max-conns=N] [--tcp-idle-ms=F]
//            [--tcp-drain-ms=F] [--overload-target-ms=F]
//            [--retry-budget-ratio=F] [--brownout=off|auto]
//            [--help] [--version]
//
//   --once suppresses the interactive banner: batch mode for piped
//   scripts (the serving loop itself is identical — read lines until
//   EOF or `shutdown`).
//
//   --tcp-port=N switches the transport from stdin/stdout lines to the
//   binary TCP protocol (net/tcp_server.h): an epoll front end on
//   127.0.0.1:N (0 picks an ephemeral port, announced on stderr as
//   `kanond: tcp listening on 127.0.0.1:PORT`). SIGTERM/SIGINT trigger
//   a graceful drain — stop accepting, deliver every admitted job's
//   response (or a typed cancellation past --tcp-drain-ms), flush the
//   journal, exit 0.
//
//   --journal=PATH arms the crash-consistent job journal: every
//   admitted job is recorded (fsync'd) before it can run, and at
//   startup an existing journal is replayed — jobs that never started
//   are re-run and answered as `ok verb=replay old_id=...` lines on
//   stdout; a job that was on a worker when the previous incarnation
//   died is answered `error verb=replay ... error=interrupted`. A
//   journal corrupt beyond a torn tail aborts startup (exit 2).
//
//   --checkpoint-dir=PATH arms durable solver checkpoints: running jobs
//   periodically snapshot their state there (every --checkpoint-every
//   cadence polls, default 256, and/or every --checkpoint-ms
//   milliseconds), and a journal replay *continues* a started job from
//   its snapshot (`ok verb=replay old_id=... resumed=1`) instead of
//   degrading it to the interrupted error — which remains the typed
//   fallback when the snapshot is missing, stale or corrupt.
//
//   --watchdog-ms=F arms the stall watchdog: a job whose progress
//   counters flat-line for F milliseconds is preempted and answered
//   with the typed watchdog_preempted error.
//
//   --overload-target-ms=F arms the adaptive overload-control plane
//   (service/overload/overload.h) with F as the CoDel queue-delay
//   target: sustained delay above the target sheds arrivals with the
//   typed shed_overload error, jobs whose deadline cannot fit even the
//   optimistic solve estimate are rejected deadline_infeasible at
//   dispatch, and worker retries draw from a pool-wide budget
//   (--retry-budget-ratio=F, tokens refilled as a fraction of
//   successes, default 0.1). --brownout=auto (the default once the
//   plane is armed) additionally lets the health governor rewrite
//   admissible jobs to cheaper sharded/coreset backends under
//   pressure; --brownout=off keeps admission control without
//   degradation. Responses carry `effective=`/`brownout=` when a job
//   was degraded; `stats` reports the overload_* counters and level.
//
//   --version prints build provenance (git hash, build type,
//   sanitizer) and exits; the same token rides in every stats reply.
//
//   --faults=SPEC arms deterministic fault injection (fault/fault.h),
//   e.g. --faults="seed=42 p=0.01 worker.dispatch=0.5" — for chaos
//   drills against a live daemon.
//
// Protocol (one request per line, one response line per request):
//   anonymize algo=<name> k=<int> [deadline_ms=<f>] [budget=<int>]
//             [priority=<int>] [emit=0|1] [coreset_rate=<f>]
//             [coreset_seed=<int>] [shards=<int>]
//             [shard_parallelism=<int>] csv=<inline>|file=<path>
//   stats
//   shutdown
// The four knobs apply to every coreset_ / sharded_ level of the
// algorithm (0 = default; src/algo/registry.h has the name grammar).
// Inline CSV uses ';' as the record separator:
//   csv=age,zip;30,10001;30,10001
// Responses are `ok ...` / `error code=<CODE> error=<taxonomy> ...`
// key=value lines; errors never stop the serving loop.
//
// Exit codes: 0 clean shutdown/EOF, 1 usage error, 2 unreplayable
// journal.

#include <csignal>
#include <iostream>
#include <limits>
#include <memory>

#include "ckpt/checkpoint.h"
#include "fault/fault.h"
#include "net/tcp_server.h"
#include "service/journal.h"
#include "service/server.h"
#include "util/build_info.h"
#include "util/cli.h"

namespace {

// The signal handler must be async-signal-safe: RequestDrain is a
// relaxed atomic store plus an eventfd write, nothing else.
kanon::NetServer* g_tcp_server = nullptr;

void HandleDrainSignal(int) {
  if (g_tcp_server != nullptr) g_tcp_server->RequestDrain();
}

// Every millisecond flag ends up in a steady-clock duration; this cap
// (about 11.6 days) keeps that conversion far from overflow.
constexpr double kMaxMillis = 1e9;

constexpr char kUsage[] =
    "usage: kanond [--workers=N] [--queue-capacity=N] [--cache-capacity=N]\n"
    "              [--journal=PATH] [--checkpoint-dir=PATH]\n"
    "              [--checkpoint-every=N] [--checkpoint-ms=F]\n"
    "              [--watchdog-ms=F] [--faults=SPEC] [--once]\n"
    "              [--tcp-port=N] [--tcp-max-conns=N] [--tcp-idle-ms=F]\n"
    "              [--tcp-drain-ms=F] [--overload-target-ms=F]\n"
    "              [--retry-budget-ratio=F] [--brownout=off|auto]\n"
    "              [--help] [--version]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace kanon;
  const CommandLine cl = CommandLine::Parse(argc, argv);

  // A typo'd flag must not silently run with defaults: a daemon started
  // with --watchdog-sm=500 and no watchdog is a misconfiguration that
  // only surfaces during the outage it was meant to contain.
  if (!CheckKnownFlags(cl, "kanond",
                       {"workers", "queue-capacity", "cache-capacity",
                        "journal", "checkpoint-dir", "checkpoint-every",
                        "checkpoint-ms", "watchdog-ms", "faults", "once",
                        "tcp-port", "tcp-max-conns", "tcp-idle-ms",
                        "tcp-drain-ms", "overload-target-ms",
                        "retry-budget-ratio", "brownout", "help",
                        "version"})) {
    std::cerr << kUsage;
    return 1;
  }
  if (cl.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  if (cl.GetBool("version", false)) {
    std::cout << "kanond " << BuildInfoString() << "\n";
    return 0;
  }

  ServiceOptions options;
  const struct {
    const char* flag;
    long long min;
    long long fallback;
  } int_flags[] = {
      {"workers", 0, 0},
      {"queue-capacity", 1, 64},
      {"cache-capacity", 0, 64},
      {"checkpoint-every", 1, 256},
  };
  long long values[4];
  for (int i = 0; i < 4; ++i) {
    const StatusOr<long long> flag =
        cl.GetValidatedInt(int_flags[i].flag, int_flags[i].fallback,
                           int_flags[i].min,
                           std::numeric_limits<int>::max());
    if (!flag.ok()) {
      std::cerr << "error: --" << int_flags[i].flag << ": "
                << flag.status().message() << "\n";
      return 1;
    }
    values[i] = *flag;
  }
  options.workers = static_cast<unsigned>(values[0]);
  options.queue_capacity = static_cast<size_t>(values[1]);
  options.cache_capacity = static_cast<size_t>(values[2]);
  options.checkpoint_every_polls = static_cast<uint64_t>(values[3]);

  // 0 disarms each millisecond flag.
  bool doubles_ok = true;
  const auto double_flag = [&](const char* name, double fallback,
                               double max = kMaxMillis) {
    const StatusOr<double> flag =
        cl.GetValidatedDouble(name, fallback, 0.0, max);
    if (flag.ok()) return *flag;
    std::cerr << "error: " << flag.status().message() << "\n";
    doubles_ok = false;
    return fallback;
  };
  options.checkpoint_every_ms = double_flag("checkpoint-ms", 0.0);
  options.watchdog_stall_ms = double_flag("watchdog-ms", 0.0);
  const double overload_target = double_flag("overload-target-ms", 0.0);
  const double retry_ratio = double_flag("retry-budget-ratio", 0.1, 1.0);
  const double tcp_idle_ms = double_flag("tcp-idle-ms", 0.0);
  const double tcp_drain_ms = double_flag("tcp-drain-ms", 2000.0);
  if (!doubles_ok) return 1;

  // Overload plane: --overload-target-ms (or an explicit --brownout)
  // arms it; --brownout=off keeps admission control but pins the
  // governor so no job is ever rewritten.
  const std::string brownout = cl.GetString("brownout", "");
  if (!brownout.empty() && brownout != "off" && brownout != "auto") {
    std::cerr << "error: --brownout must be off or auto\n";
    return 1;
  }
  if (overload_target > 0.0 || !brownout.empty()) {
    options.overload_enabled = true;
    if (overload_target > 0.0) {
      options.overload.codel.target_ms = overload_target;
    }
    options.overload.retry_budget.ratio = retry_ratio;
    options.overload.governor_enabled = brownout != "off";
  }

  const std::string fault_spec = cl.GetString("faults", "");
  if (!fault_spec.empty()) {
    const StatusOr<FaultPlan> plan = ParseFaultPlan(fault_spec);
    if (!plan.ok()) {
      std::cerr << "error: --faults: " << plan.status().message() << "\n";
      return 1;
    }
    FaultRegistry::Instance().Arm(*plan);
  }

  // Checkpoint store bring-up happens before the journal replay is
  // applied: the replay needs the *previous* incarnation's snapshots,
  // and ApplyReplayToService clears the store before resubmitting so
  // this incarnation's ids (restarting at 1) never collide with them.
  std::unique_ptr<CheckpointStore> checkpoints;
  const std::string checkpoint_dir = cl.GetString("checkpoint-dir", "");
  if (!checkpoint_dir.empty()) {
    checkpoints = std::make_unique<CheckpointStore>(checkpoint_dir);
    options.checkpoints = checkpoints.get();
  }

  // Journal bring-up: read the previous incarnation's records, wipe the
  // file, and only then arm a fresh journal — replayed jobs are
  // re-journaled under this incarnation's ids, so old and new records
  // must never share a file.
  const std::string journal_path = cl.GetString("journal", "");
  StatusOr<JournalReplay> replayed = JournalReplay{};
  std::unique_ptr<JobJournal> journal;
  if (!journal_path.empty()) {
    replayed = JobJournal::ReplayFile(journal_path);
    if (!replayed.ok()) {
      std::cerr << "kanond: cannot replay journal: "
                << replayed.status().message() << "\n";
      return 2;
    }
    const Status reset = JobJournal::Reset(journal_path);
    if (!reset.ok()) {
      std::cerr << "kanond: " << reset.message() << "\n";
      return 2;
    }
    journal = std::make_unique<JobJournal>(journal_path);
    const Status open = journal->Open();
    if (!open.ok()) {
      std::cerr << "kanond: " << open.message() << "\n";
      return 2;
    }
    options.observer = journal.get();
  }

  AnonymizationService service(options);
  std::cerr << "kanond: " << BuildInfoString() << "\n";
  if (!journal_path.empty()) {
    ReplayOptions replay_options;
    replay_options.checkpoints = checkpoints.get();
    const JournalReplayReport report = ApplyReplayToService(
        *std::move(replayed), service, replay_options);
    for (const std::string& line : report.lines) {
      std::cout << line << "\n";
    }
    std::cout.flush();
    std::cerr << "kanond: journal replay: resubmitted="
              << report.resubmitted << " resumed=" << report.resumed
              << " resume_degraded=" << report.resume_degraded
              << " interrupted=" << report.interrupted
              << " completed=" << report.completed
              << " torn=" << report.torn_records << "\n";
  }
  if (cl.HasFlag("tcp-port")) {
    const StatusOr<long long> tcp_port =
        cl.GetValidatedInt("tcp-port", 0, 0, 65535);
    const StatusOr<long long> tcp_max_conns =
        cl.GetValidatedInt("tcp-max-conns", 1024, 1, 1 << 20);
    if (!tcp_port.ok() || !tcp_max_conns.ok()) {
      std::cerr << "error: "
                << (tcp_port.ok() ? tcp_max_conns : tcp_port)
                       .status()
                       .message()
                << "\n";
      return 1;
    }
    NetServerOptions net;
    net.port = static_cast<uint16_t>(*tcp_port);
    net.max_connections = static_cast<size_t>(*tcp_max_conns);
    net.idle_timeout_ms = tcp_idle_ms;
    net.drain_grace_ms = tcp_drain_ms;
    NetServer tcp(service, net);
    const Status started = tcp.Start();
    if (!started.ok()) {
      std::cerr << "kanond: tcp start failed: " << started.ToString()
                << "\n";
      return 1;
    }
    g_tcp_server = &tcp;
    std::signal(SIGTERM, HandleDrainSignal);
    std::signal(SIGINT, HandleDrainSignal);
    std::cerr << "kanond: tcp listening on 127.0.0.1:" << tcp.port()
              << " (workers=" << service.Stats().workers
              << ", queue=" << options.queue_capacity
              << ", max_conns=" << net.max_connections
              << (journal_path.empty() ? "" : ", journal=" + journal_path)
              << ")\n";
    const size_t connections = tcp.Run();
    std::signal(SIGTERM, SIG_DFL);
    std::signal(SIGINT, SIG_DFL);
    g_tcp_server = nullptr;
    // Run() returning means the drain finished: every admitted job's
    // completion was observed. Shutdown flushes the workers + journal.
    service.Shutdown();
    std::cerr << "kanond: drained; served " << connections
              << " connection(s)\n";
    return 0;
  }
  if (!cl.GetBool("once", false)) {
    std::cerr << "kanond serving on stdin (workers="
              << service.Stats().workers
              << ", queue=" << options.queue_capacity
              << ", cache=" << options.cache_capacity
              << (journal_path.empty() ? ""
                                       : ", journal=" + journal_path)
              << (checkpoint_dir.empty()
                      ? ""
                      : ", checkpoints=" + checkpoint_dir)
              << (options.watchdog_stall_ms > 0.0 ? ", watchdog=on" : "")
              << (options.overload_enabled
                      ? (options.overload.governor_enabled
                             ? ", overload=on brownout=auto"
                             : ", overload=on brownout=off")
                      : "")
              << "); verbs: anonymize stats shutdown\n";
  }
  const size_t served = ServeLines(service, std::cin, std::cout);
  std::cerr << "kanond: served " << served << " request(s)\n";
  return 0;
}
