#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "util/logging.h"

namespace kanon {

namespace {

/// epoll user-data ids below this are the loop's own fds; connections
/// start above it.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kFirstConnId = 2;

double MonotonicMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Signals an eventfd. Async-signal-safe (one write(2) of a counter).
void SignalEventFd(int fd) {
  const uint64_t one = 1;
  ssize_t ignored = write(fd, &one, sizeof(one));
  (void)ignored;
}

}  // namespace

/// Per-connection state machine. Owned by the loop thread exclusively.
struct NetServer::Connection {
  uint64_t id = 0;
  int fd = -1;
  /// Unparsed input. Bounded: reads pause under backpressure and the
  /// frame codec rejects oversized declared lengths at the header, so
  /// the buffer cannot exceed one frame plus one read chunk per parse
  /// pause.
  std::string inbuf;
  /// Encoded-but-unsent output plus the flushed prefix length.
  std::string outbuf;
  size_t out_offset = 0;
  /// Admitted, unanswered jobs owned by this connection.
  size_t inflight = 0;
  /// The peer half-closed; never read again, flush and go.
  bool eof = false;
  /// Close as soon as the output buffer flushes (protocol error,
  /// shutdown verb, frame timeout).
  bool close_after_flush = false;
  /// Events currently registered with epoll (EPOLLIN/EPOLLOUT mask).
  uint32_t armed_events = 0;
  bool paused = false;
  double last_read_ms = 0.0;
  /// When the head of inbuf became a partial frame; < 0 when the buffer
  /// holds no partial frame (slow-loris clock).
  double partial_since_ms = -1.0;
  /// Last instant the flush made progress; < 0 when nothing is pending.
  double write_since_ms = -1.0;

  size_t pending_out() const { return outbuf.size() - out_offset; }
};

/// The worker -> loop handoff. Callbacks co-own it, so a completion
/// arriving after the server died locks, observes `open == false` and
/// returns — never a dangling server pointer.
struct NetServer::Completions {
  struct Item {
    uint64_t conn_id = 0;
    uint64_t client_seq = 0;
    AnonymizeResponse response;
  };
  std::mutex mu;
  bool open = true;
  int wake_fd = -1;
  std::vector<Item> items;
};

NetServer::NetServer(AnonymizationService& service, NetServerOptions options)
    : service_(service), options_(std::move(options)) {}

NetServer::~NetServer() {
  if (completions_ != nullptr) {
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->open = false;
  }
  for (auto& [id, conn] : conns_) {
    if (conn->fd >= 0) close(conn->fd);
  }
  conns_.clear();
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fd_ >= 0) close(wake_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status NetServer::Start() {
  listen_fd_ = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(std::string("socket: ") + strerror(errno));
  }
  const int enable = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad bind address '" + options_.host +
                                   "'");
  }
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(std::string("bind: ") + strerror(errno));
  }
  if (listen(listen_fd_, options_.backlog) != 0) {
    return Status::Unavailable(std::string("listen: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return Status::Internal(std::string("getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeTag;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);

  completions_ = std::make_shared<Completions>();
  completions_->wake_fd = wake_fd_;
  next_conn_id_ = kFirstConnId;
  return Status::Ok();
}

void NetServer::RequestDrain() {
  drain_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) SignalEventFd(wake_fd_);
}

void NetServer::RequestStop() {
  stop_requested_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) SignalEventFd(wake_fd_);
}

NetServerStats NetServer::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

bool NetServer::ReadsPaused(const Connection& conn) const {
  return draining_ || conn.close_after_flush ||
         conn.pending_out() > options_.max_output_bytes ||
         conn.inflight >= options_.max_inflight;
}

void NetServer::UpdateEpoll(Connection& conn) {
  uint32_t want = 0;
  if (!conn.eof && !ReadsPaused(conn)) want |= EPOLLIN;
  if (conn.pending_out() > 0) want |= EPOLLOUT;
  if (want == conn.armed_events) return;
  epoll_event ev{};
  ev.events = want;
  ev.data.u64 = conn.id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed_events = want;
}

void NetServer::AcceptReady() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient (EMFILE, ECONNABORTED): retry at next tick
    }
    // Injected accept-path failure: the fd is dropped on the floor.
    // The peer observes an immediate close — exactly what a crashed
    // accept handler or an out-of-fds spiral produces.
    if (KANON_FAULT_POINT("net.accept")) {
      close(fd);
      continue;
    }
    if (conns_.size() >= options_.max_connections) {
      // Typed over-limit rejection, best effort: one nonblocking write
      // of a connection_limit frame, then close. A peer that cannot
      // take even that sees a plain close. The counter moves first: a
      // peer that has read the frame may read the stats next.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.rejected_over_limit;
      }
      const std::string frame = EncodeNetResponse(MakeNetError(
          NetVerb::kShutdown, 0, ServiceError::kConnectionLimit,
          "server at max_connections=" +
              std::to_string(options_.max_connections)));
      ssize_t ignored = send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
      (void)ignored;
      close(fd);
      continue;
    }
    const int enable = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &enable, sizeof(enable));
    auto conn = std::make_unique<Connection>();
    conn->id = next_conn_id_++;
    conn->fd = fd;
    conn->last_read_ms = now_ms_;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conn->armed_events = EPOLLIN;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.accepted;
      ++stats_.open_connections;
    }
    conns_.emplace(conn->id, std::move(conn));
  }
}

void NetServer::SendResponse(Connection& conn, const NetResponse& response) {
  conn.outbuf += EncodeNetResponse(response);
  if (conn.write_since_ms < 0) conn.write_since_ms = now_ms_;
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.frames_out;
}

void NetServer::HandleFrame(Connection& conn, std::string_view body) {
  StatusOr<NetRequest> request = DecodeNetRequest(body);
  if (!request.ok()) {
    // The envelope was intact (checksum verified) but the body does not
    // decode: framing is still synchronized, so answer the one bad
    // frame and keep serving the connection.
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.protocol_errors;
    }
    SendResponse(conn,
                 MakeNetError(NetVerb::kAnonymize, 0, ServiceError::kBadFrame,
                              request.status().message()));
    return;
  }

  switch (request->verb) {
    case NetVerb::kStats: {
      NetResponse response;
      response.verb = NetVerb::kStats;
      response.client_seq = request->client_seq;
      response.stats_line = FormatStatsLine(service_.Stats());
      SendResponse(conn, response);
      return;
    }
    case NetVerb::kShutdown: {
      NetResponse response;
      response.verb = NetVerb::kShutdown;
      response.client_seq = request->client_seq;
      SendResponse(conn, response);
      conn.close_after_flush = true;
      // The shutdown verb means "drain the daemon", same as the line
      // protocol: picked up at the top of the next loop iteration.
      drain_requested_.store(true, std::memory_order_release);
      return;
    }
    case NetVerb::kAnonymize:
      break;
  }

  if (draining_) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.jobs_rejected;
    SendResponse(conn, MakeNetError(NetVerb::kAnonymize, request->client_seq,
                                    ServiceError::kShuttingDown,
                                    "server is draining"));
    return;
  }

  const uint64_t conn_id = conn.id;
  const uint64_t client_seq = request->client_seq;
  std::shared_ptr<Completions> comp = completions_;
  ServiceError error = ServiceError::kNone;
  StatusOr<uint64_t> job = service_.SubmitAsync(
      std::move(request->request), &error,
      [comp, conn_id, client_seq](const AnonymizeResponse& response) {
        std::lock_guard<std::mutex> lock(comp->mu);
        if (!comp->open) return;
        comp->items.push_back({conn_id, client_seq, response});
        SignalEventFd(comp->wake_fd);
      });
  if (!job.ok()) {
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.jobs_rejected;
    }
    SendResponse(conn, MakeNetError(NetVerb::kAnonymize, client_seq, error,
                                    job.status().message()));
    return;
  }
  ++conn.inflight;
  inflight_jobs_.emplace(*job, conn_id);
  std::lock_guard<std::mutex> lock(stats_mu_);
  ++stats_.jobs_submitted;
}

void NetServer::DrainInput(Connection& conn) {
  while (!conn.close_after_flush) {
    // Backpressure on parsing, not just reading: buffered frames wait
    // until a completion frees an in-flight slot (or the outbuf drains,
    // or the drain finishes with a clean close).
    if (ReadsPaused(conn)) break;
    std::string_view frame_body;
    size_t consumed = 0;
    Status error;
    const FrameLimits limits{options_.max_frame_bytes};
    const FrameDecode decode = TryDecodeFrame(conn.inbuf, limits,
                                              &frame_body, &consumed, &error);
    if (decode == FrameDecode::kNeedMore) {
      if (conn.inbuf.empty()) {
        conn.partial_since_ms = -1.0;
      } else if (conn.partial_since_ms < 0) {
        conn.partial_since_ms = now_ms_;
      }
      break;
    }
    if (decode == FrameDecode::kBad) {
      // Framing is lost: one typed response, then close. Anything else
      // buffered is unparseable noise.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.protocol_errors;
      }
      SendResponse(conn,
                   MakeNetError(NetVerb::kShutdown, 0,
                                ServiceError::kBadFrame, error.message()));
      conn.inbuf.clear();
      conn.partial_since_ms = -1.0;
      conn.close_after_flush = true;
      break;
    }
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.frames_in;
    }
    HandleFrame(conn, frame_body);
    conn.inbuf.erase(0, consumed);
    conn.partial_since_ms = conn.inbuf.empty() ? -1.0 : now_ms_;
  }
}

void NetServer::HandleReadable(Connection& conn) {
  char chunk[65536];
  while (!conn.eof && !ReadsPaused(conn)) {
    const ssize_t n = read(conn.fd, chunk, sizeof(chunk));
    if (n == 0) {
      conn.eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      DestroyConnection(conn);
      return;
    }
    size_t take = size_t(n);
    // An injected torn read models a peer (or middlebox) dying mid
    // frame: only a prefix of the bytes arrives, then EOF.
    if (KANON_FAULT_POINT("net.read_torn")) {
      take = size_t(n) / 2;
      conn.eof = true;
    }
    conn.inbuf.append(chunk, take);
    conn.last_read_ms = now_ms_;
    if (conn.eof) break;
  }
  DrainInput(conn);
  if (conn.eof) {
    if (conn.inflight == 0 && conn.pending_out() == 0) {
      DestroyConnection(conn);
      return;
    }
    // Half-closed peer with work still owed: deliver, flush, then go.
    conn.close_after_flush = true;
  }
  UpdateEpoll(conn);
}

void NetServer::HandleWritable(Connection& conn) {
  // An injected write stall skips the flush while EPOLLOUT stays armed:
  // the kernel will report writability again, the stall clock keeps
  // running, and the write_stall_ms reaper is the one that acts.
  if (KANON_FAULT_POINT("net.write_stall")) return;
  // An injected mid-frame close flushes half of what is pending and
  // hard-closes: the peer observes a torn frame (kDataLoss on their
  // side), the server's accounting stays exact.
  if (conn.pending_out() > 0 && KANON_FAULT_POINT("net.close_mid_frame")) {
    const size_t half = conn.pending_out() / 2;
    if (half > 0) {
      ssize_t ignored = send(conn.fd, conn.outbuf.data() + conn.out_offset,
                             half, MSG_NOSIGNAL);
      (void)ignored;
    }
    DestroyConnection(conn);
    return;
  }
  // Socket writes use MSG_NOSIGNAL: a peer that has already closed is an
  // EPIPE handled below, not a SIGPIPE that ends the process.
  while (conn.pending_out() > 0) {
    const ssize_t n = send(conn.fd, conn.outbuf.data() + conn.out_offset,
                           conn.pending_out(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      DestroyConnection(conn);
      return;
    }
    conn.out_offset += size_t(n);
    conn.write_since_ms = now_ms_;  // progress resets the stall clock
  }
  if (conn.pending_out() == 0) {
    conn.outbuf.clear();
    conn.out_offset = 0;
    conn.write_since_ms = -1.0;
    // Close only once every admitted job's response has been delivered
    // and flushed — a closing connection still collects what it is owed.
    if (conn.close_after_flush && conn.inflight == 0) {
      DestroyConnection(conn);
      return;
    }
  } else if (conn.out_offset > size_t{1} << 16) {
    conn.outbuf.erase(0, conn.out_offset);
    conn.out_offset = 0;
  }
  UpdateEpoll(conn);
}

void NetServer::DeliverCompletions() {
  std::vector<Completions::Item> items;
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    items.swap(completions_->items);
  }
  for (Completions::Item& item : items) {
    inflight_jobs_.erase(item.response.id);
    const auto found = conns_.find(item.conn_id);
    if (found == conns_.end()) {
      // The connection died while its job ran. The job still executed
      // to completion (and is journaled); only the delivery is lost,
      // and it is lost *accountably*.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses_dropped;
      continue;
    }
    Connection& conn = *found->second;
    KANON_CHECK_GE(conn.inflight, 1u);
    --conn.inflight;
    SendResponse(conn, MakeNetResponse(NetVerb::kAnonymize, item.client_seq,
                                       item.response));
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.responses_delivered;
    }
    // A freed in-flight slot may unpause parsing of buffered frames.
    DrainInput(conn);
    HandleWritable(conn);
  }
}

void NetServer::ScanTimeouts() {
  std::vector<uint64_t> hard_close;
  for (auto& [id, conn_ptr] : conns_) {
    Connection& conn = *conn_ptr;
    if (options_.write_stall_ms > 0 && conn.write_since_ms >= 0 &&
        now_ms_ - conn.write_since_ms > options_.write_stall_ms) {
      // The peer stopped reading: no typed farewell can be delivered
      // through a full socket, so this one is a hard close.
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.timeouts_write;
      hard_close.push_back(id);
      continue;
    }
    if (options_.frame_timeout_ms > 0 && conn.partial_since_ms >= 0 &&
        !conn.close_after_flush &&
        now_ms_ - conn.partial_since_ms > options_.frame_timeout_ms) {
      // Slow loris: a partial frame aged out. Typed farewell, close.
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.timeouts_frame;
      }
      SendResponse(conn, MakeNetError(NetVerb::kShutdown, 0,
                                      ServiceError::kBadFrame,
                                      "partial frame timed out"));
      conn.inbuf.clear();
      conn.partial_since_ms = -1.0;
      conn.close_after_flush = true;
      UpdateEpoll(conn);  // arm the flush; never destroy mid-iteration
      continue;
    }
    if (options_.idle_timeout_ms > 0 && conn.inbuf.empty() &&
        conn.inflight == 0 && conn.pending_out() == 0 &&
        now_ms_ - conn.last_read_ms > options_.idle_timeout_ms) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.timeouts_idle;
      hard_close.push_back(id);
      continue;
    }
  }
  for (const uint64_t id : hard_close) CloseConnection(id, false);
}

void NetServer::CloseConnection(uint64_t conn_id, bool flush_first) {
  const auto found = conns_.find(conn_id);
  if (found == conns_.end()) return;
  Connection& conn = *found->second;
  if (flush_first && conn.pending_out() > 0) {
    conn.close_after_flush = true;
    UpdateEpoll(conn);
    return;
  }
  DestroyConnection(conn);
}

void NetServer::DestroyConnection(Connection& conn) {
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn.fd, nullptr);
  close(conn.fd);
  conn.fd = -1;
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.closed;
    --stats_.open_connections;
  }
  // Jobs this connection owns stay in inflight_jobs_: their completions
  // are still observed (and counted dropped) before a drain finishes.
  conns_.erase(conn.id);
}

void NetServer::BeginDrain() {
  draining_ = true;
  drain_deadline_ms_ = now_ms_ + std::max(options_.drain_grace_ms, 0.0);
  if (listen_fd_ >= 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    close(listen_fd_);
    listen_fd_ = -1;
  }
  // Pause every connection's reads; flush what is owed; close the ones
  // that are already square.
  std::vector<uint64_t> idle;
  for (auto& [id, conn] : conns_) {
    if (conn->inflight == 0 && conn->pending_out() == 0) {
      idle.push_back(id);
    } else {
      UpdateEpoll(*conn);
    }
  }
  for (const uint64_t id : idle) CloseConnection(id, false);
}

bool NetServer::DrainComplete() const {
  return draining_ && conns_.empty() && inflight_jobs_.empty();
}

size_t NetServer::Run() {
  KANON_CHECK_GE(epoll_fd_, 0) << "NetServer::Run requires Start()";
  bool cancelled_for_drain = false;
  now_ms_ = MonotonicMs();
  while (!stop_requested_.load(std::memory_order_acquire)) {
    if (drain_requested_.load(std::memory_order_acquire) && !draining_) {
      BeginDrain();
    }
    if (draining_) {
      // Sweep: connections that became square since the last pass close
      // cleanly; past the grace window, cancel what is still running
      // (cancellation itself produces a typed response to deliver).
      // Unparsed pipelined input is deliberately ignored here: those
      // requests were never admitted, and a clean close is their typed
      // outcome under drain.
      std::vector<uint64_t> square;
      for (auto& [id, conn] : conns_) {
        if (conn->inflight == 0 && conn->pending_out() == 0) {
          square.push_back(id);
        }
      }
      for (const uint64_t id : square) CloseConnection(id, false);
      if (!cancelled_for_drain && now_ms_ >= drain_deadline_ms_) {
        cancelled_for_drain = true;
        for (const auto& [job_id, conn_id] : inflight_jobs_) {
          if (service_.Cancel(job_id)) {
            std::lock_guard<std::mutex> lock(stats_mu_);
            ++stats_.drain_cancelled;
          }
        }
      }
      if (DrainComplete()) break;
    }

    epoll_event events[64];
    const int timeout_ms = std::max(1, int(options_.tick_ms));
    const int n = epoll_wait(epoll_fd_, events, 64, timeout_ms);
    now_ms_ = MonotonicMs();
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        uint64_t drained = 0;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (tag == kListenerTag) {
        if (!draining_) AcceptReady();
        continue;
      }
      // The connection may have been destroyed by an earlier event in
      // this same batch; re-resolve before every touch.
      auto found = conns_.find(tag);
      if (found == conns_.end()) continue;
      if (events[i].events & EPOLLOUT) {
        HandleWritable(*found->second);
        found = conns_.find(tag);
        if (found == conns_.end()) continue;
      }
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) {
        HandleReadable(*found->second);
      }
    }
    DeliverCompletions();
    ScanTimeouts();
    // Backpressure accounting: note connections whose reads just
    // transitioned into the paused state.
    for (auto& [id, conn] : conns_) {
      const bool paused_now =
          !draining_ && !conn->close_after_flush && ReadsPaused(*conn);
      if (paused_now && !conn->paused) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.backpressure_pauses;
      }
      conn->paused = paused_now;
      UpdateEpoll(*conn);
    }
  }

  // Teardown. A hard stop abandons connections (their completions are
  // dropped by the closed queue); a completed drain has nothing left.
  std::vector<uint64_t> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) remaining.push_back(id);
  for (const uint64_t id : remaining) CloseConnection(id, false);
  {
    std::lock_guard<std::mutex> lock(completions_->mu);
    completions_->open = false;
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  return size_t(stats_.accepted);
}

}  // namespace kanon
