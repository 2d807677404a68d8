#ifndef KANON_NET_TCP_SERVER_H_
#define KANON_NET_TCP_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/frame.h"
#include "service/server.h"

/// \file
/// The hardened TCP front end of `kanond`: a single-threaded epoll
/// readiness loop speaking the binary frame protocol (net/frame.h) and
/// feeding the existing AnonymizationService admission path.
///
/// **Threading model.** One thread owns every socket: Run() is the
/// event loop; worker threads never touch a connection. A worker
/// finishing a job pushes its response onto a mutex-guarded completion
/// queue and signals an eventfd the loop polls — the loop then encodes
/// the response into the owning connection's output buffer. The
/// completion queue is a shared_ptr co-owned by the job callbacks, so a
/// callback outliving the server (shutdown races) degrades to a dropped
/// completion, never a dangling pointer.
///
/// **Connection state machine.**
///
///     accepting --over-limit--> reject (typed response, close)
///         |
///     serving  <--frames/responses-->  (inbuf / outbuf bounded)
///         |
///         |  bad frame / timeout / drain
///         v
///     closing  (flush outbuf, then close)
///
/// Robustness properties, each enforced here and checked by the chaos
/// harness's net leg (chaos/chaos.h):
///   - *Bounded everything*: connection count, input buffer (one frame
///     cap), output buffer, and in-flight jobs per connection are all
///     capped; past each cap the server rejects/pauses, never buffers.
///   - *Typed rejection over silent drop*: over-limit accepts, hostile
///     frames, oversized frames, timeouts and drain-time requests all
///     produce one well-formed error frame when the transport still
///     permits (a half-open peer gets a close).
///   - *Slow-loris resistance*: a connection sitting on a partial frame
///     or an unflushed output buffer past its timeout is closed; idle
///     complete-state connections are closed after idle_timeout_ms.
///   - *Graceful drain*: RequestDrain() (async-signal-safe) stops the
///     listener, parks parsing, answers new requests with
///     `shutting_down`, and keeps the loop alive until every admitted
///     job's response is delivered or its connection died — an admitted
///     job is never silently lost (cancel only fires past the grace
///     window, and cancellation is itself a typed response).

namespace kanon {

struct NetServerOptions {
  /// Bind address. Tests and the load harness use 127.0.0.1.
  std::string host = "127.0.0.1";
  /// 0 binds an ephemeral port; read the outcome from port().
  uint16_t port = 0;
  int backlog = 128;
  /// Connections past this are answered with a typed connection_limit
  /// frame (best effort) and closed without being registered.
  size_t max_connections = 1024;
  /// Frame body cap forwarded to the codec; bounds per-connection input
  /// buffering to roughly this plus envelope overhead.
  size_t max_frame_bytes = size_t{8} << 20;
  /// Output buffer cap per connection. Reads pause (backpressure) while
  /// the peer is this far behind; the connection is not killed unless
  /// it also stops draining for write_stall_ms.
  size_t max_output_bytes = size_t{16} << 20;
  /// In-flight (admitted, unanswered) jobs per connection; reads pause
  /// past this bound — admission-level backpressure, not an error.
  size_t max_inflight = 32;
  /// A connection with no complete frame, no partial bytes and no
  /// pending work for this long is closed. <= 0 disables.
  double idle_timeout_ms = 0.0;
  /// A connection sitting on a *partial* frame for this long is
  /// answered with bad_frame and closed (slow-loris). <= 0 disables.
  double frame_timeout_ms = 0.0;
  /// A connection whose output buffer makes no progress for this long
  /// is hard-closed. <= 0 disables.
  double write_stall_ms = 0.0;
  /// Drain: how long to wait for in-flight jobs before cancelling them
  /// (the cancellation still produces a typed response). <= 0 cancels
  /// immediately.
  double drain_grace_ms = 2000.0;
  /// Event-loop tick (timeout scan cadence).
  double tick_ms = 20.0;
};

/// Monotonic counters, readable from any thread.
struct NetServerStats {
  uint64_t accepted = 0;
  uint64_t rejected_over_limit = 0;
  uint64_t closed = 0;
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  /// Hostile input answered with a typed frame (bad envelope/body).
  uint64_t protocol_errors = 0;
  uint64_t timeouts_idle = 0;
  uint64_t timeouts_frame = 0;
  uint64_t timeouts_write = 0;
  /// Times a connection's reads were paused for outbuf/inflight bounds.
  uint64_t backpressure_pauses = 0;
  uint64_t jobs_submitted = 0;
  /// Typed admission/validation rejections (queue_full, shed, ...).
  uint64_t jobs_rejected = 0;
  /// Completions encoded into a live connection's output buffer.
  uint64_t responses_delivered = 0;
  /// Completions whose connection was already gone (every admitted job
  /// is still delivered or counted here — never silently lost).
  uint64_t responses_dropped = 0;
  /// Jobs cancelled by drain past the grace window.
  uint64_t drain_cancelled = 0;
  uint64_t open_connections = 0;
};

/// The epoll front end. Lifecycle: construct, Start(), Run() on the
/// serving thread, RequestDrain()/RequestStop() from anywhere
/// (including a signal handler), then destroy. The referenced service
/// must outlive the server.
class NetServer {
 public:
  NetServer(AnonymizationService& service, NetServerOptions options);
  ~NetServer();

  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens and creates the epoll/eventfd plumbing. On success
  /// port() is live. Typed kInternal/kUnavailable on socket errors.
  Status Start();

  /// The serving loop: blocks until drain completes or RequestStop().
  /// Returns the number of connections served over its lifetime.
  size_t Run();

  /// Begins graceful drain: stop accepting, answer new requests with
  /// shutting_down, deliver (or cancel past the grace window) every
  /// admitted job, then return from Run(). Async-signal-safe: writes
  /// one eventfd and sets an atomic.
  void RequestDrain();

  /// Hard stop: Run() exits at the next poll without waiting for
  /// in-flight work (their completions are dropped and counted).
  /// Async-signal-safe.
  void RequestStop();

  /// The bound port (after a successful Start()).
  uint16_t port() const { return port_; }

  NetServerStats stats() const;

 private:
  struct Connection;
  struct Completions;

  void AcceptReady();
  void HandleReadable(Connection& conn);
  void HandleWritable(Connection& conn);
  /// Parses every complete frame currently buffered (unless paused).
  void DrainInput(Connection& conn);
  void HandleFrame(Connection& conn, std::string_view body);
  void SendResponse(Connection& conn, const NetResponse& response);
  void DeliverCompletions();
  void ScanTimeouts();
  void CloseConnection(uint64_t conn_id, bool flush_first);
  void DestroyConnection(Connection& conn);
  /// True while the connection must not parse further input (outbuf or
  /// inflight bound exceeded, or draining).
  bool ReadsPaused(const Connection& conn) const;
  void UpdateEpoll(Connection& conn);
  void BeginDrain();
  bool DrainComplete() const;

  AnonymizationService& service_;
  const NetServerOptions options_;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  uint16_t port_ = 0;

  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> stop_requested_{false};
  bool draining_ = false;
  double drain_deadline_ms_ = 0.0;
  /// Monotonic milliseconds at the current loop iteration.
  double now_ms_ = 0.0;

  uint64_t next_conn_id_ = 1;
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> conns_;
  /// job id -> owning connection id, for drain-time cancellation.
  std::unordered_map<uint64_t, uint64_t> inflight_jobs_;
  std::shared_ptr<Completions> completions_;

  mutable std::mutex stats_mu_;
  NetServerStats stats_;
};

}  // namespace kanon

#endif  // KANON_NET_TCP_SERVER_H_
