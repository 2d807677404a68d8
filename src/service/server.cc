#include "service/server.h"

#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "fault/fault.h"
#include "util/build_info.h"
#include "util/string_util.h"

namespace kanon {

namespace {

/// Error messages travel as the final quoted token; keep them one line
/// and quote-free so the response stays trivially tokenizable.
std::string QuoteMessage(std::string message) {
  for (char& c : message) {
    if (c == '"') c = '\'';
    if (c == '\n' || c == '\r') c = ' ';
  }
  return "\"" + message + "\"";
}

std::string FormatErrorLine(const std::string& verb, uint64_t id,
                            ServiceError error, const Status& status) {
  std::ostringstream out;
  out << "error verb=" << verb;
  if (id != 0) out << " id=" << id;
  out << " code=" << StatusCodeName(status.code())
      << " error=" << ServiceErrorName(error)
      << " message=" << QuoteMessage(status.message());
  return out.str();
}

std::string FormatAnonymizeResponse(const AnonymizeResponse& response) {
  if (!response.ok()) {
    return FormatErrorLine("anonymize", response.id, response.error,
                           response.status);
  }
  std::ostringstream out;
  out << "ok verb=anonymize id=" << response.id
      << " algo=" << response.algorithm << " k=" << response.k
      << " rows=" << response.rows << " cost=" << response.cost
      << " stage=" << response.stage
      << " termination=" << StopReasonName(response.termination)
      << " chain=" << (response.chain.empty() ? "-" : response.chain)
      << " cache=" << (response.cache_hit ? "hit" : "miss")
      << " queue_ms=" << FormatDouble(response.queue_ms, 3)
      << " run_ms=" << FormatDouble(response.run_ms, 3);
  if (!response.effective_algorithm.empty() &&
      response.effective_algorithm != response.algorithm) {
    out << " effective=" << response.effective_algorithm;
  }
  if (response.brownout > 0) {
    out << " brownout=" << response.brownout;
  }
  if (!response.anonymized_csv.empty()) {
    out << " csv=" << CsvToInline(response.anonymized_csv);
  }
  return out.str();
}

}  // namespace

std::string FormatStatsLine(const ServiceStats& stats) {
  std::ostringstream out;
  out << "ok verb=stats workers=" << stats.workers
      << " queue_depth=" << stats.queue_depth;
  for (const CounterKey& key : kCounterKeys) {
    out << ' ' << key.name << '=' << stats.counters[key.counter];
  }
  out << " breakers=" << (stats.breakers.empty() ? "-" : stats.breakers)
      << " cache_hits=" << stats.cache.hits
      << " cache_misses=" << stats.cache.misses
      << " cache_evictions=" << stats.cache.evictions
      << " cache_rejected=" << stats.cache.rejected
      << " cache_size=" << stats.cache.size
      << " cache_capacity=" << stats.cache.capacity
      << " overload_transitions=" << stats.overload_transitions
      << " overload_level="
      << (stats.overload_level.empty() ? "off" : stats.overload_level)
      << " build=" << BuildInfoToken();
  return out.str();
}

AnonymizationService::AnonymizationService(ServiceOptions options)
    : cache_(options.cache_capacity),
      overload_(options.overload_enabled
                    ? std::make_unique<OverloadControl>(options.overload)
                    : nullptr),
      queue_(QueueOptions{.capacity = options.queue_capacity,
                          .shed_start_fraction = options.shed_start_fraction,
                          .shed_levels = options.shed_levels,
                          .observer = options.observer,
                          .overload = overload_.get()}),
      watchdog_(options.watchdog_stall_ms > 0.0
                    ? std::make_unique<Watchdog>(WatchdogOptions{
                          .scan_interval_ms =
                              options.watchdog_scan_interval_ms,
                          .stall_ms = options.watchdog_stall_ms})
                    : nullptr),
      pool_(&queue_, &cache_,
            {.workers = options.workers,
             .retry = options.retry,
             .breaker = options.breaker,
             .checkpoints = options.checkpoints,
             .checkpoint_every_polls = options.checkpoint_every_polls,
             .checkpoint_every_ms = options.checkpoint_every_ms,
             .keep_checkpoints = options.keep_checkpoints,
             .watchdog = watchdog_.get(),
             .overload = overload_.get()}) {}

AnonymizationService::~AnonymizationService() { Shutdown(); }

StatusOr<JobQueue::Ticket> AnonymizationService::Submit(
    AnonymizeRequest request, ServiceError* error) {
  const Status prepared = ValidateAndPrepare(request, error);
  if (!prepared.ok()) return prepared;
  return queue_.Submit(std::move(request), error);
}

StatusOr<uint64_t> AnonymizationService::SubmitAsync(
    AnonymizeRequest request, ServiceError* error,
    std::function<void(const AnonymizeResponse&)> on_done) {
  const Status prepared = ValidateAndPrepare(request, error);
  if (!prepared.ok()) return prepared;
  StatusOr<JobQueue::Ticket> ticket =
      queue_.Submit(std::move(request), error, std::move(on_done));
  if (!ticket.ok()) return ticket.status();
  // The future is deliberately dropped: the callback is the delivery
  // path, and a promise fulfilled with no waiter is harmless.
  return ticket->id;
}

AnonymizeResponse AnonymizationService::Handle(AnonymizeRequest request) {
  AnonymizeResponse rejection;
  rejection.algorithm = request.algorithm;
  rejection.k = request.k;

  ServiceError error = ServiceError::kNone;
  StatusOr<JobQueue::Ticket> ticket = Submit(std::move(request), &error);
  if (!ticket.ok()) {
    rejection.status = ticket.status();
    rejection.error = error;
    return rejection;
  }
  return ticket->result.get();
}

ServiceStats AnonymizationService::Stats() const {
  ServiceStats stats;
  stats.workers = pool_.num_workers();
  stats.queue_depth = queue_.depth();
  stats.counters = queue_.metrics().Snapshot();
  stats.breakers = pool_.breakers().Describe();
  stats.cache = cache_.stats();
  if (overload_ != nullptr) {
    stats.overload_transitions = overload_->transitions();
    if (overload_->governor_enabled()) {
      stats.overload_level = BrownoutLevelName(overload_->level());
    }
  }
  return stats;
}

void AnonymizationService::Shutdown() { pool_.Join(); }

std::string HandleLine(AnonymizationService& service,
                       const std::string& line, bool* shutdown) {
  *shutdown = false;
  const std::string_view trimmed = Trim(line);
  const size_t space = trimmed.find(' ');
  const std::string verb(trimmed.substr(0, space));
  const std::string tail(
      space == std::string_view::npos ? "" : trimmed.substr(space + 1));

  if (verb == "anonymize") {
    ServiceError error = ServiceError::kNone;
    StatusOr<AnonymizeRequest> request = ParseRequestLine(tail, &error);
    if (!request.ok()) {
      return FormatErrorLine("anonymize", 0, error, request.status());
    }
    // An injected transport fault drops the request at the handler
    // boundary; the client gets a typed error line, the loop survives.
    if (KANON_FAULT_POINT("server.io")) {
      const ServiceError fault = ServiceError::kWorkerFailure;
      return FormatErrorLine(
          "anonymize", 0, fault,
          MakeServiceStatus(fault, "injected I/O fault; retry"));
    }
    if (!request->wait) {
      // Fire-and-forget: answer at admission; the result is delivered
      // to no one, but the job still runs (and lands in the journal).
      StatusOr<JobQueue::Ticket> ticket =
          service.Submit(*std::move(request), &error);
      if (!ticket.ok()) {
        return FormatErrorLine("anonymize", 0, error, ticket.status());
      }
      return "ok verb=anonymize id=" + std::to_string(ticket->id) +
             " queued=1";
    }
    return FormatAnonymizeResponse(service.Handle(*std::move(request)));
  }
  if (verb == "stats") {
    return FormatStatsLine(service.Stats());
  }
  if (verb == "shutdown") {
    *shutdown = true;
    return "ok verb=shutdown";
  }
  const ServiceError error = ServiceError::kUnknownVerb;
  return FormatErrorLine(
      verb.empty() ? "-" : verb, 0, error,
      MakeServiceStatus(error, "unknown verb '" + verb +
                                   "'; expected anonymize|stats|shutdown"));
}

namespace {

/// Rewrites a live response line into its replay form.
std::string ReplayLine(std::string line, uint64_t old_id, bool resumed) {
  const std::string needle = "verb=anonymize";
  const size_t at = line.find(needle);
  if (at != std::string::npos) {
    std::string verb = "verb=replay old_id=" + std::to_string(old_id);
    if (resumed) verb += " resumed=1";
    line.replace(at, needle.size(), verb);
  }
  return line;
}

}  // namespace

JournalReplayReport ApplyReplayToService(JournalReplay replay,
                                         AnonymizationService& service,
                                         const ReplayOptions& options) {
  JournalReplayReport report;
  report.completed = replay.completed;
  report.torn_records = replay.torn_records;

  // Load every snapshot a started job may resume from into memory *up
  // front*, then clear the store: the new incarnation's job ids restart
  // at 1 and its own checkpoints would otherwise collide with (or
  // wrongly inherit) the dead incarnation's files.
  std::unordered_map<uint64_t, SolverSnapshot> snapshots;
  std::unordered_map<uint64_t, std::string> load_errors;
  if (options.checkpoints != nullptr) {
    for (const ReplayedJob& job : replay.pending) {
      if (!job.started || job.cancelled || job.checkpoint_seq == 0) {
        continue;
      }
      StatusOr<SolverSnapshot> loaded =
          options.checkpoints->Load(job.old_id);
      if (loaded.ok()) {
        snapshots.emplace(job.old_id, *std::move(loaded));
      } else {
        // kNotFound / kDataLoss / kParseError: remember why so the
        // degraded error line can say.
        load_errors.emplace(job.old_id, loaded.status().ToString());
      }
    }
    (void)options.checkpoints->Clear();
  }

  for (ReplayedJob& job : replay.pending) {
    if (job.started || job.cancelled) {
      // A checkpointed job continues from its snapshot; anything else
      // that was on a worker when the process died is unsafe to re-run
      // blindly (the input may be what killed it) — typed error.
      std::string degrade_note;
      if (options.checkpoints != nullptr && !job.cancelled &&
          job.checkpoint_seq > 0) {
        const auto found = snapshots.find(job.old_id);
        if (found == snapshots.end()) {
          const auto why = load_errors.find(job.old_id);
          degrade_note = why != load_errors.end()
                             ? why->second
                             : "snapshot file missing";
        } else {
          ServiceError error = ServiceError::kNone;
          const Status prepared = ValidateAndPrepare(job.request, &error);
          if (!prepared.ok()) {
            degrade_note = "request failed validation: " +
                           prepared.ToString();
          } else if (found->second.table_fp !=
                         TableFingerprint(*job.request.table) ||
                     found->second.k != job.request.k) {
            degrade_note = "snapshot stale: table/k stamp mismatch";
          } else {
            job.request.resume_solver = found->second.solver;
            job.request.resume_payload = std::move(found->second.payload);
            ++report.resumed;
            AnonymizeResponse response =
                service.Handle(std::move(job.request));
            report.lines.push_back(ReplayLine(
                FormatAnonymizeResponse(response), job.old_id, true));
            continue;
          }
        }
        ++report.resume_degraded;
      }
      ++report.interrupted;
      const ServiceError error = job.cancelled ? ServiceError::kCancelled
                                               : ServiceError::kInterrupted;
      std::string message =
          job.cancelled ? "cancelled before the crash; not re-run"
                        : "was running when the daemon died; not re-run";
      if (!degrade_note.empty()) {
        message += "; checkpoint unusable: " + degrade_note;
      }
      const Status status = MakeServiceStatus(error, std::move(message));
      std::ostringstream line;
      line << "error verb=replay old_id=" << job.old_id
           << " code=" << StatusCodeName(status.code())
           << " error=" << ServiceErrorName(error)
           << " message=" << QuoteMessage(status.message());
      report.lines.push_back(line.str());
      continue;
    }
    ++report.resubmitted;
    AnonymizeResponse response = service.Handle(std::move(job.request));
    // Same shape as a live response, re-verbed so clients can tell a
    // recovered answer from one they asked this incarnation for.
    report.lines.push_back(
        ReplayLine(FormatAnonymizeResponse(response), job.old_id, false));
  }
  Metrics& metrics = service.metrics();
  metrics.Add(Counter::kJournalReplays,
              report.resubmitted + report.resumed + report.interrupted);
  metrics.Add(Counter::kResumed, report.resumed);
  metrics.Add(Counter::kResumeDegraded, report.resume_degraded);
  return report;
}

StatusOr<JournalReplayReport> ReplayJournalIntoService(
    const std::string& path, AnonymizationService& service) {
  StatusOr<JournalReplay> replay = JobJournal::ReplayFile(path);
  if (!replay.ok()) return replay.status();
  return ApplyReplayToService(*std::move(replay), service);
}

namespace {

/// getline with an allocation cap: reads through the next '\n' (or
/// EOF), keeping at most `cap` bytes. Bytes past the cap are *consumed
/// and dropped* — the stream stays line-synchronized — and *overflow is
/// set so the caller can answer with the typed error instead of parsing
/// a truncated request. Returns false once the stream is exhausted.
bool GetLineBounded(std::istream& in, std::string* line, size_t cap,
                    bool* overflow) {
  line->clear();
  *overflow = false;
  std::streambuf* const buf = in.rdbuf();
  bool any = false;
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      in.setstate(std::ios::eofbit);
      return any;
    }
    any = true;
    if (c == '\n') return true;
    if (line->size() >= cap) {
      *overflow = true;
      continue;  // keep draining to the newline, remember nothing
    }
    line->push_back(static_cast<char>(c));
  }
}

}  // namespace

size_t ServeLines(AnonymizationService& service, std::istream& in,
                  std::ostream& out) {
  size_t served = 0;
  std::string line;
  bool overflow = false;
  while (GetLineBounded(in, &line, kMaxProtocolLineBytes, &overflow)) {
    if (overflow) {
      const ServiceError error = ServiceError::kLineTooLong;
      out << FormatErrorLine(
                 "-", 0, error,
                 MakeServiceStatus(
                     error, "request line exceeds " +
                                std::to_string(kMaxProtocolLineBytes) +
                                " bytes; discarded unparsed"))
          << '\n'
          << std::flush;
      ++served;
      continue;
    }
    const std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    bool shutdown = false;
    out << HandleLine(service, line, &shutdown) << '\n' << std::flush;
    ++served;
    if (shutdown) break;
  }
  return served;
}

}  // namespace kanon
