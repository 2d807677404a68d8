#ifndef KANON_UTIL_STATUS_H_
#define KANON_UTIL_STATUS_H_

#include <iosfwd>
#include <optional>
#include <string>
#include <utility>

#include "util/logging.h"

/// \file
/// Error-code plumbing for the library's *input* boundary.
///
/// The library distinguishes two failure classes. Internal invariant
/// violations (bugs) still terminate via `KANON_CHECK` — those guard
/// data-integrity properties no caller can recover from. Bad *input*
/// (malformed CSV, an out-of-range k, a missing file) must instead reach
/// the caller as a `Status` so a CLI can print a message and exit
/// non-zero, and a server can reject the one request instead of dying.

namespace kanon {

/// Machine-readable failure class, loosely following the absl/grpc
/// canonical codes the team already knows.
enum class StatusCode {
  kOk = 0,
  /// Caller passed an argument outside the documented domain (k < 1,
  /// k > n, batch_size < k, ...).
  kInvalidArgument,
  /// A named resource (file path, algorithm name) does not exist.
  kNotFound,
  /// Input data failed to parse (malformed CSV, ragged rows).
  kParseError,
  /// A deadline expired before the operation finished.
  kDeadlineExceeded,
  /// A node/iteration budget was exhausted, or an allocation failed.
  kResourceExhausted,
  /// The operation was cooperatively cancelled.
  kCancelled,
  /// Unexpected internal failure surfaced as a value (rare; prefer
  /// KANON_CHECK for true invariants).
  kInternal,
  /// Persisted state is unrecoverable: a torn write, a failed checksum.
  /// Unlike kParseError (well-formed bytes that mean nothing) this says
  /// the bytes themselves did not survive — callers should discard the
  /// artifact and fall back, never retry the read.
  kDataLoss,
  /// A peer or transport is gone (connection refused, closed, reset).
  /// Distinct from kDataLoss: nothing was corrupted, the other side
  /// simply is not there — callers may reconnect and retry.
  kUnavailable,
};

/// Short upper-case tag ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

/// A code plus a human-readable message. Cheap to copy for the sizes it
/// carries; the OK status has an empty message.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status ParseError(std::string m) {
    return Status(StatusCode::kParseError, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Status(StatusCode::kDataLoss, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "CODE: message" (or "OK").
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Either a value or a non-OK Status. Minimal by design: accessors check,
/// there is no monadic API.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit by design
      : status_(std::move(status)) {
    KANON_CHECK(!status_.ok()) << "StatusOr constructed from OK status";
  }
  StatusOr(T value)  // NOLINT: implicit by design
      : status_(Status::Ok()), value_(std::move(value)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    KANON_CHECK(value_.has_value()) << status_.ToString();
    return *value_;
  }
  T& value() & {
    KANON_CHECK(value_.has_value()) << status_.ToString();
    return *value_;
  }
  T&& value() && {
    KANON_CHECK(value_.has_value()) << status_.ToString();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }

  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace kanon

#endif  // KANON_UTIL_STATUS_H_
