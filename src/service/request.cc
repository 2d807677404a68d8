#include "service/request.h"

#include <charconv>
#include <sstream>
#include <utility>

#include "algo/registry.h"
#include "data/csv_table.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace kanon {

const char* ServiceErrorName(ServiceError error) {
  switch (error) {
    case ServiceError::kNone:
      return "none";
    case ServiceError::kMalformedLine:
      return "malformed_line";
    case ServiceError::kUnknownVerb:
      return "unknown_verb";
    case ServiceError::kBadParameter:
      return "bad_parameter";
    case ServiceError::kUnknownAlgorithm:
      return "unknown_algorithm";
    case ServiceError::kTableNotFound:
      return "table_not_found";
    case ServiceError::kTableParseError:
      return "table_parse_error";
    case ServiceError::kQueueFull:
      return "queue_full";
    case ServiceError::kShuttingDown:
      return "shutting_down";
    case ServiceError::kCancelled:
      return "cancelled";
    case ServiceError::kShedLowPriority:
      return "shed_low_priority";
    case ServiceError::kWorkerFailure:
      return "worker_failure";
    case ServiceError::kInterrupted:
      return "interrupted";
    case ServiceError::kWatchdogPreempted:
      return "watchdog_preempted";
    case ServiceError::kLineTooLong:
      return "line_too_long";
    case ServiceError::kBadFrame:
      return "bad_frame";
    case ServiceError::kConnectionLimit:
      return "connection_limit";
    case ServiceError::kShedOverload:
      return "shed_overload";
    case ServiceError::kDeadlineInfeasible:
      return "deadline_infeasible";
  }
  KANON_CHECK(false) << "bad ServiceError " << static_cast<int>(error);
  return "";
}

StatusCode ServiceErrorCode(ServiceError error) {
  switch (error) {
    case ServiceError::kNone:
      return StatusCode::kOk;
    case ServiceError::kMalformedLine:
    case ServiceError::kUnknownVerb:
    case ServiceError::kBadParameter:
      return StatusCode::kInvalidArgument;
    case ServiceError::kUnknownAlgorithm:
    case ServiceError::kTableNotFound:
      return StatusCode::kNotFound;
    case ServiceError::kTableParseError:
      return StatusCode::kParseError;
    case ServiceError::kQueueFull:
    case ServiceError::kShedLowPriority:
      return StatusCode::kResourceExhausted;
    case ServiceError::kShuttingDown:
    case ServiceError::kCancelled:
      return StatusCode::kCancelled;
    case ServiceError::kWorkerFailure:
    case ServiceError::kInterrupted:
    case ServiceError::kWatchdogPreempted:
      return StatusCode::kInternal;
    case ServiceError::kLineTooLong:
    case ServiceError::kBadFrame:
      return StatusCode::kParseError;
    case ServiceError::kConnectionLimit:
    case ServiceError::kShedOverload:
      return StatusCode::kResourceExhausted;
    case ServiceError::kDeadlineInfeasible:
      return StatusCode::kDeadlineExceeded;
  }
  KANON_CHECK(false) << "bad ServiceError " << static_cast<int>(error);
  return StatusCode::kInternal;
}

Status MakeServiceStatus(ServiceError error, std::string message) {
  return Status(ServiceErrorCode(error), std::move(message));
}

namespace {

/// The shortest decimal form that parses back to exactly `value`.
std::string ExactDouble(double value) {
  char buf[32];
  const std::to_chars_result written =
      std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, written.ptr);
}

}  // namespace

StatusOr<AnonymizeRequest> ParseRequestLine(const std::string& tail,
                                            ServiceError* error) {
  *error = ServiceError::kNone;
  AnonymizeRequest request;
  std::istringstream tokens(tail);
  std::string token;
  while (tokens >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      *error = ServiceError::kMalformedLine;
      return MakeServiceStatus(*error,
                               "expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    uint64_t count = 0;
    long long priority = 0;
    bool parsed = true;
    if (key == "algo") {
      request.algorithm = value;
    } else if (key == "k") {
      parsed = ParseUint(value, &count);
      request.k = static_cast<size_t>(count);
    } else if (key == "deadline_ms") {
      parsed = ParseDouble(value, &request.deadline_ms);
    } else if (key == "budget") {
      parsed = ParseUint(value, &request.node_budget);
    } else if (key == "priority") {
      parsed = ParseInt(value, &priority);
      request.priority = static_cast<int>(priority);
    } else if (key == "coreset_rate") {
      parsed = ParseDouble(value, &request.coreset_rate);
    } else if (key == "coreset_seed") {
      parsed = ParseUint(value, &request.coreset_seed);
    } else if (key == "shards") {
      parsed = ParseUint(value, &count);
      request.shards = static_cast<size_t>(count);
    } else if (key == "shard_parallelism") {
      parsed = ParseUint(value, &count);
      request.shard_parallelism = static_cast<size_t>(count);
    } else if (key == "emit") {
      request.emit_csv = value != "0" && value != "false";
    } else if (key == "wait") {
      request.wait = value != "0" && value != "false";
    } else if (key == "csv") {
      request.csv_text = InlineToCsv(value);
    } else if (key == "file") {
      StatusOr<Table> loaded = ReadTableCsv(value);
      if (!loaded.ok()) {
        *error = loaded.status().code() == StatusCode::kNotFound
                     ? ServiceError::kTableNotFound
                     : ServiceError::kTableParseError;
        return MakeServiceStatus(*error, loaded.status().message());
      }
      request.table.emplace(*std::move(loaded));
    } else {
      *error = ServiceError::kMalformedLine;
      return MakeServiceStatus(*error, "unknown key '" + key + "'");
    }
    if (!parsed) {
      *error = ServiceError::kBadParameter;
      return MakeServiceStatus(*error, "bad " + key + " '" + value + "'");
    }
  }
  return request;
}

std::string FormatRequestFields(const AnonymizeRequest& request) {
  return "algo=" + request.algorithm + " k=" + std::to_string(request.k) +
         " deadline_ms=" + ExactDouble(request.deadline_ms) +
         " budget=" + std::to_string(request.node_budget) +
         " priority=" + std::to_string(request.priority) +
         " emit=" + (request.emit_csv ? "1" : "0") +
         " coreset_rate=" + ExactDouble(request.coreset_rate) +
         " coreset_seed=" + std::to_string(request.coreset_seed) +
         " shards=" + std::to_string(request.shards) +
         " shard_parallelism=" + std::to_string(request.shard_parallelism);
}

std::string InlineToCsv(std::string text) {
  for (char& c : text) {
    if (c == ';') c = '\n';
  }
  return text;
}

std::string CsvToInline(std::string text) {
  while (!text.empty() && text.back() == '\n') text.pop_back();
  for (char& c : text) {
    if (c == '\n') c = ';';
  }
  return text;
}

Status ValidateAndPrepare(AnonymizeRequest& request, ServiceError* error) {
  KANON_CHECK(error != nullptr);
  *error = ServiceError::kNone;

  if (!request.table.has_value()) {
    if (request.csv_text.empty()) {
      *error = ServiceError::kBadParameter;
      return MakeServiceStatus(*error,
                               "request carries neither a table nor CSV");
    }
    StatusOr<Table> parsed = ParseTableCsv(request.csv_text);
    if (!parsed.ok()) {
      *error = ServiceError::kTableParseError;
      return MakeServiceStatus(*error, parsed.status().message());
    }
    request.table.emplace(*std::move(parsed));
    request.csv_text.clear();
  }

  const StatusOr<AlgorithmName> algorithm =
      ParseAlgorithmNameOr(request.algorithm);
  if (!algorithm.ok()) {
    *error = ServiceError::kUnknownAlgorithm;
    return MakeServiceStatus(*error, algorithm.status().message());
  }

  const size_t n = request.table->num_rows();
  if (request.k < 1 || request.k > n) {
    *error = ServiceError::kBadParameter;
    return MakeServiceStatus(
        *error, "k=" + std::to_string(request.k) +
                    " outside [1, rows=" + std::to_string(n) + "]");
  }
  if (request.coreset_rate < 0.0 || request.coreset_rate > 1.0) {
    *error = ServiceError::kBadParameter;
    return MakeServiceStatus(
        *error, "coreset_rate=" + std::to_string(request.coreset_rate) +
                    " outside (0, 1] (0 = default)");
  }
  if (request.shards > kMaxRequestShards) {
    *error = ServiceError::kBadParameter;
    return MakeServiceStatus(
        *error, "shards=" + std::to_string(request.shards) + " above " +
                    std::to_string(kMaxRequestShards) + " (0 = default)");
  }
  if (request.shard_parallelism > kMaxRequestShardParallelism) {
    *error = ServiceError::kBadParameter;
    return MakeServiceStatus(
        *error,
        "shard_parallelism=" + std::to_string(request.shard_parallelism) +
            " above " + std::to_string(kMaxRequestShardParallelism) +
            " (0 = default)");
  }
  return Status::Ok();
}

}  // namespace kanon
