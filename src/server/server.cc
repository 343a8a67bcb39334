#include "src/server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

namespace pnw::server {

namespace {

/// One read() chunk. Large enough that a deep pipeline usually lands in
/// one syscall, small enough to keep per-connection memory sane.
constexpr size_t kReadChunk = 64 * 1024;

void BumpMax(core::RelaxedCounter<uint64_t>& slot, uint64_t candidate) {
  // Single-writer (the loop thread), so load-compare-store is race-free.
  if (candidate > slot.load()) {
    slot = candidate;
  }
}

}  // namespace

std::string ServerMetrics::ToString() const {
  std::ostringstream os;
#define PNW_PRINT_FIELD(type, name) os << " " #name "=" << (name);
  PNW_SERVER_METRICS(PNW_PRINT_FIELD)
#undef PNW_PRINT_FIELD
  return os.str().substr(1);
}

PnwServer::PnwServer(core::ShardedPnwStore* store,
                     const ServerOptions& options)
    : store_(store), options_(options) {}

Result<std::unique_ptr<PnwServer>> PnwServer::Start(
    core::ShardedPnwStore* store, const ServerOptions& options) {
  if (store == nullptr) {
    return Status::InvalidArgument("server needs a store");
  }
  if (options.max_pipeline_batch == 0 || options.global_inflight_limit == 0 ||
      options.per_conn_outbuf_limit == 0) {
    return Status::InvalidArgument("server budgets must be positive");
  }
  std::unique_ptr<PnwServer> server(new PnwServer(store, options));
  PNW_RETURN_IF_ERROR(server->Bind());
  {
    util::MutexLock lock(server->lifecycle_mu_);
    server->loop_thread_ = std::thread([raw = server.get()] {
      raw->EventLoop();
    });
  }
  return server;
}

Status PnwServer::Bind() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("unparsable listen host");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal(std::string("bind failed: ") +
                            std::strerror(errno));
  }
  if (::listen(listen_fd_, 128) < 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    if (wake_fd_ >= 0) ::close(wake_fd_);
    ::close(listen_fd_);
    listen_fd_ = epoll_fd_ = wake_fd_ = -1;
    return Status::Internal("epoll/eventfd setup failed");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  return Status::OK();
}

void PnwServer::Stop() {
  std::thread joinable;
  {
    util::MutexLock lock(lifecycle_mu_);
    if (!loop_thread_.joinable()) {
      return;  // already stopped (or never started)
    }
    stop_.store(true, std::memory_order_release);
    const uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(wake_fd_, &one, sizeof(one));
    joinable = std::move(loop_thread_);
  }
  joinable.join();
  // The loop has exited: its single-threaded state is now ours to tear
  // down. Queued-but-unsent responses die with their connections.
  for (auto& [fd, conn] : connections_) {
    metrics_.dropped_responses += conn.pending_frames;
    ++metrics_.connections_closed;
    ::close(fd);
  }
  connections_.clear();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  listen_fd_ = wake_fd_ = epoll_fd_ = -1;
}

PnwServer::~PnwServer() { Stop(); }

void PnwServer::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    // Leftover complete frames (a burst larger than max_pipeline_batch)
    // mean there is work regardless of socket readiness: poll instead of
    // sleeping. The 500 ms cap is a belt over the eventfd wakeup. The
    // probe must be "a *complete* frame is buffered", not "bytes are
    // buffered" -- a partial frame parks as kNeedMore and would otherwise
    // busy-spin the loop until its tail arrives.
    bool work_pending = false;
    for (auto& [fd, conn] : connections_) {
      if (!conn.paused_reading && !conn.closing && HasServableFrame(conn)) {
        work_pending = true;
        break;
      }
    }
    const int timeout_ms = work_pending ? 0 : 500;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) {
      break;  // epoll itself failed; nothing sane to do but shut down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_, &drained, sizeof(drained));
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      // A connection closed earlier in this batch can still have a stale
      // event entry; look it up fresh.
      auto it = connections_.find(fd);
      if (it == connections_.end()) {
        continue;
      }
      Connection& conn = it->second;
      if (events[i].events & (EPOLLHUP | EPOLLERR)) {
        CloseConnection(fd);
        continue;
      }
      if (events[i].events & EPOLLOUT) {
        WriteReady(conn);
        if (connections_.find(fd) == connections_.end()) {
          continue;  // WriteReady may close on EPIPE / drained-and-closing
        }
      }
      if (events[i].events & EPOLLIN) {
        ReadReady(conn);
      }
    }
    // Serve leftover decoded-but-unprocessed bursts fairly: one batch per
    // connection per iteration.
    std::vector<int> pending_fds;
    for (auto& [fd, conn] : connections_) {
      if (!conn.paused_reading && !conn.closing && HasServableFrame(conn)) {
        pending_fds.push_back(fd);
      }
    }
    for (const int fd : pending_fds) {
      auto it = connections_.find(fd);
      if (it == connections_.end()) {
        continue;
      }
      ProcessFrames(it->second);
      if (connections_.find(fd) != connections_.end()) {
        WriteReady(it->second);
      }
    }
  }
}

void PnwServer::AcceptReady() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      return;  // EAGAIN (or a transient error): nothing more to accept
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.so_sndbuf > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.so_sndbuf,
                   sizeof(options_.so_sndbuf));
    }
    Connection conn;
    conn.fd = fd;
    connections_.emplace(fd, std::move(conn));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    ++metrics_.connections_accepted;
  }
}

bool PnwServer::HasServableFrame(const Connection& conn) const {
  const std::span<const uint8_t> unparsed(conn.inbuf.data() + conn.consumed,
                                          conn.inbuf.size() - conn.consumed);
  FrameView frame;
  Status error;
  // A framing *error* is also servable work (ProcessFrames turns it into
  // protocol_errors + close); only a clean partial frame is not.
  return ExtractFrame(unparsed, options_.limits, &frame, &error) !=
         FrameResult::kNeedMore;
}

bool PnwServer::InputBacklogged(const Connection& conn) const {
  // Unparsed bytes beyond the valve mean the client outpaces processing:
  // stop reading and let TCP flow control push back. Same bound as the
  // output valve, so per-connection memory is ~2x the limit + one chunk.
  return conn.inbuf.size() - conn.consumed > options_.per_conn_outbuf_limit;
}

void PnwServer::ReadReady(Connection& conn) {
  const int fd = conn.fd;
  bool saw_eof = false;
  while (!conn.paused_reading && !InputBacklogged(conn)) {
    const size_t old_size = conn.inbuf.size();
    conn.inbuf.resize(old_size + kReadChunk);
    const ssize_t n = ::read(fd, conn.inbuf.data() + old_size, kReadChunk);
    if (n > 0) {
      conn.inbuf.resize(old_size + static_cast<size_t>(n));
      metrics_.bytes_in += static_cast<uint64_t>(n);
      if (static_cast<size_t>(n) < kReadChunk) {
        break;  // drained the socket
      }
      continue;
    }
    conn.inbuf.resize(old_size);
    if (n == 0) {
      saw_eof = true;
    }
    // n < 0: EAGAIN (drained) or a hard error surfaced at the next event.
    break;
  }
  // Serve the complete frames that arrived -- including the tail of a
  // pipeline whose client already hung up: a complete PUT frame is
  // applied in full (and durable once the store acks it), a partial one
  // is never half-applied because it is never decoded.
  ProcessFrames(conn);
  if (connections_.find(fd) == connections_.end()) {
    return;
  }
  if (saw_eof) {
    conn.closing = true;
  }
  WriteReady(conn);  // flush what this burst produced; may close
  if (connections_.find(fd) == connections_.end()) {
    return;
  }
  UpdateEpoll(conn);
}

void PnwServer::ProcessFrames(Connection& conn) {
  std::vector<Request> requests;
  requests.reserve(options_.max_pipeline_batch);
  while (requests.size() < options_.max_pipeline_batch) {
    const std::span<const uint8_t> unparsed(
        conn.inbuf.data() + conn.consumed, conn.inbuf.size() - conn.consumed);
    FrameView frame;
    Status error;
    const FrameResult r =
        ExtractFrame(unparsed, options_.limits, &frame, &error);
    if (r == FrameResult::kNeedMore) {
      break;
    }
    if (r == FrameResult::kError) {
      // The stream offset cannot be trusted past a framing error; no
      // response is possible (there is no request id to echo reliably).
      ++metrics_.protocol_errors;
      conn.closing = true;
      conn.consumed = conn.inbuf.size();
      break;
    }
    conn.consumed += frame.frame_bytes;
    ++metrics_.frames_in;
    Request request;
    const Status decode = DecodeRequest(frame, options_.limits, &request);
    if (!decode.ok()) {
      // Framing was intact, so the stream survives: answer the typed
      // error (kInvalidArgument for an unknown opcode, kCorruption for
      // payload rot) and keep going.
      ++metrics_.decode_errors;
      Response response;
      response.opcode =
          OpcodeKnown(frame.opcode) ? static_cast<Opcode>(frame.opcode)
                                    : Opcode::kGet;
      response.request_id = frame.request_id;
      response.status = decode.code();
      Enqueue(conn, response);
      continue;
    }
    requests.push_back(std::move(request));
  }
  // Reclaim consumed prefix once it dominates the buffer.
  if (conn.consumed == conn.inbuf.size()) {
    conn.inbuf.clear();
    conn.consumed = 0;
  } else if (conn.consumed > kReadChunk) {
    conn.inbuf.erase(conn.inbuf.begin(),
                     conn.inbuf.begin() + static_cast<long>(conn.consumed));
    conn.consumed = 0;
  }
  // Execute the burst: adjacent GETs (and PUTs) group into one store
  // MultiGet (MultiPut) -- the pipelining amortization -- while DELETE and
  // STATS frames execute one at a time.
  size_t i = 0;
  while (i < requests.size()) {
    const Opcode op = requests[i].opcode;
    if (op == Opcode::kGet || op == Opcode::kPut) {
      size_t j = i + 1;
      while (j < requests.size() && requests[j].opcode == op) {
        ++j;
      }
      ExecuteRun(conn, requests, i, j);
      i = j;
    } else {
      ExecuteOne(conn, requests[i]);
      ++i;
    }
  }
}

bool PnwServer::AdmitFrame() const {
  return global_inflight_ < options_.global_inflight_limit;
}

void PnwServer::ExecuteRun(Connection& conn,
                           const std::vector<Request>& requests, size_t begin,
                           size_t end) {
  // Admission control caps the run at the remaining global budget; the
  // overflow is answered kOverloaded without touching the store.
  const size_t budget = options_.global_inflight_limit > global_inflight_
                            ? options_.global_inflight_limit - global_inflight_
                            : 0;
  const size_t admitted = begin + std::min(end - begin, budget);
  const Opcode op = requests[begin].opcode;
  const size_t n = admitted - begin;
  if (n > 0) {
    batch_keys_.clear();
    for (size_t i = begin; i < admitted; ++i) {
      batch_keys_.push_back(requests[i].key);
    }
    ++metrics_.store_batches;
    metrics_.batched_keys += n;
    BumpMax(metrics_.max_batch_keys, n);
    if (op == Opcode::kGet) {
      metrics_.get_keys += n;
      auto results = store_->MultiGet(batch_keys_);
      for (size_t i = 0; i < n; ++i) {
        Response response;
        response.opcode = Opcode::kGet;
        response.request_id = requests[begin + i].request_id;
        response.status = results[i].status().code();
        if (results[i].ok()) {
          response.value = std::move(results[i].value());
        }
        Enqueue(conn, response);
      }
    } else {
      metrics_.put_keys += n;
      batch_values_.clear();
      for (size_t i = begin; i < admitted; ++i) {
        batch_values_.emplace_back(requests[i].value);
      }
      const auto statuses = store_->MultiPut(batch_keys_, batch_values_);
      for (size_t i = 0; i < n; ++i) {
        Response response;
        response.opcode = Opcode::kPut;
        response.request_id = requests[begin + i].request_id;
        response.status = statuses[i].code();
        Enqueue(conn, response);
      }
    }
  }
  for (size_t i = admitted; i < end; ++i) {
    ++metrics_.overload_rejects;
    Response response;
    response.opcode = op;
    response.request_id = requests[i].request_id;
    response.status = Status::Code::kOverloaded;
    Enqueue(conn, response);
  }
}

void PnwServer::ExecuteOne(Connection& conn, const Request& request) {
  Response response;
  response.opcode = request.opcode;
  response.request_id = request.request_id;
  if (!AdmitFrame()) {
    ++metrics_.overload_rejects;
    response.status = Status::Code::kOverloaded;
    Enqueue(conn, response);
    return;
  }
  switch (request.opcode) {
    case Opcode::kDelete: {
      ++metrics_.delete_keys;
      ++metrics_.store_batches;
      ++metrics_.batched_keys;
      BumpMax(metrics_.max_batch_keys, 1);
      response.status = store_->Delete(request.key).code();
      break;
    }
    case Opcode::kStats:
      RespondStats(conn, request);
      return;
    case Opcode::kGet:
    case Opcode::kPut:
      // Handled by ExecuteRun; unreachable here.
      break;
  }
  Enqueue(conn, response);
}

void PnwServer::RespondStats(Connection& conn, const Request& request) {
  ++metrics_.stats_frames;
  Response response;
  response.opcode = Opcode::kStats;
  response.request_id = request.request_id;
  const core::ShardedMetrics agg = store_->AggregatedMetrics();
  const core::StoreMetrics& t = agg.totals;
  auto add = [&response](const char* name, uint64_t value) {
    response.stats.emplace_back(name, value);
  };
  // The whole ledger, one stat per field; simulated and measured times
  // travel as whole nanoseconds.
#define PNW_ADD_STORE_FIELD(type, name) \
  add("store." #name, static_cast<uint64_t>(t.name));
  PNW_STORE_METRICS(PNW_ADD_STORE_FIELD)
#undef PNW_ADD_STORE_FIELD
  add("store.num_shards", store_->num_shards());
#define PNW_ADD_SERVER_FIELD(type, name) add("server." #name, metrics_.name);
  PNW_SERVER_METRICS(PNW_ADD_SERVER_FIELD)
#undef PNW_ADD_SERVER_FIELD
  Enqueue(conn, response);
}

void PnwServer::Enqueue(Connection& conn, const Response& response) {
  EncodeResponse(response, &conn.outbuf);
  ++conn.pending_frames;
  ++global_inflight_;
  conn.out_frame_ends.push_back(conn.outbuf.size());
  const size_t backlog = conn.outbuf.size() - conn.sent;
  if (!conn.paused_reading && backlog > options_.per_conn_outbuf_limit) {
    conn.paused_reading = true;
    ++metrics_.slow_reader_stalls;
  }
}

void PnwServer::WriteReady(Connection& conn) {
  const int fd = conn.fd;
  while (conn.sent < conn.outbuf.size()) {
    const ssize_t n = ::write(fd, conn.outbuf.data() + conn.sent,
                              conn.outbuf.size() - conn.sent);
    if (n > 0) {
      conn.sent += static_cast<size_t>(n);
      metrics_.bytes_out += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;  // kernel buffer full; EPOLLOUT resumes the flush
    }
    // Hard write error (EPIPE after a disconnect): everything still
    // queued is dropped with the connection.
    CloseConnection(fd);
    return;
  }
  // Credit fully-written response frames back to the global budget.
  while (conn.frame_ends_head < conn.out_frame_ends.size() &&
         conn.out_frame_ends[conn.frame_ends_head] <= conn.sent) {
    ++conn.frame_ends_head;
    ++metrics_.frames_out;
    --conn.pending_frames;
    --global_inflight_;
  }
  if (conn.sent == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.sent = 0;
    conn.out_frame_ends.clear();
    conn.frame_ends_head = 0;
    if (conn.closing) {
      CloseConnection(fd);
      return;
    }
  }
  const size_t backlog = conn.outbuf.size() - conn.sent;
  if (conn.paused_reading && backlog < options_.per_conn_outbuf_limit / 2) {
    conn.paused_reading = false;
    ++metrics_.slow_reader_resumes;
  }
  UpdateEpoll(conn);
}

void PnwServer::UpdateEpoll(Connection& conn) {
  epoll_event ev{};
  ev.events = 0;
  if (!conn.paused_reading && !conn.closing && !InputBacklogged(conn)) {
    ev.events |= EPOLLIN;
  }
  if (conn.sent < conn.outbuf.size()) {
    ev.events |= EPOLLOUT;
  }
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void PnwServer::CloseConnection(int fd) {
  auto it = connections_.find(fd);
  if (it == connections_.end()) {
    return;
  }
  Connection& conn = it->second;
  metrics_.dropped_responses += conn.pending_frames;
  global_inflight_ -= conn.pending_frames;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  connections_.erase(it);
  ++metrics_.connections_closed;
}

}  // namespace pnw::server
