#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pnw::server {

namespace {

constexpr size_t kReadChunk = 64 * 1024;

Status WriteAll(int fd, const uint8_t* data, size_t len) {
  size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal(std::string("client write: ") +
                              std::strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                uint16_t port,
                                                ProtocolLimits limits,
                                                int so_rcvbuf) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::Internal(std::string("socket: ") + std::strerror(errno));
  }
  if (so_rcvbuf > 0) {
    // Before connect(): setting SO_RCVBUF afterwards would not shrink the
    // already-advertised window.
    // status-dropped: buffer sizing is a performance hint; the kernel may
    // clamp or refuse it and the connection still works.
    (void)::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &so_rcvbuf,
                       sizeof(so_rcvbuf));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("client: host must be an IPv4 literal: " +
                                   host);
  }
  while (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) != 0) {
    if (errno == EINTR) {
      continue;
    }
    const int err = errno;
    ::close(fd);
    return Status::Internal(std::string("connect: ") + std::strerror(err));
  }
  const int one = 1;
  // status-dropped: TCP_NODELAY is a latency hint; a connection without it
  // is slower, not broken.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::unique_ptr<Client>(new Client(fd, limits));
}

Client::~Client() { Abort(); }

void Client::Abort() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::WriteRaw(std::span<const uint8_t> bytes) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client: connection closed");
  }
  PNW_RETURN_IF_ERROR(WriteAll(fd_, bytes.data(), bytes.size()));
  bytes_sent_ += bytes.size();
  return Status::OK();
}

uint64_t Client::SendGet(uint64_t key) {
  const uint64_t id = NextId();
  EncodeGet(id, key, &sendbuf_);
  ++frames_sent_;
  return id;
}

uint64_t Client::SendPut(uint64_t key, std::span<const uint8_t> value) {
  const uint64_t id = NextId();
  EncodePut(id, key, value, &sendbuf_);
  ++frames_sent_;
  return id;
}

uint64_t Client::SendDelete(uint64_t key) {
  const uint64_t id = NextId();
  EncodeDelete(id, key, &sendbuf_);
  ++frames_sent_;
  return id;
}

Status Client::Flush() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client: connection closed");
  }
  if (sendbuf_.empty()) {
    return Status::OK();
  }
  PNW_RETURN_IF_ERROR(WriteAll(fd_, sendbuf_.data(), sendbuf_.size()));
  bytes_sent_ += sendbuf_.size();
  sendbuf_.clear();
  return Status::OK();
}

Result<Response> Client::ReadResponse() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client: connection closed");
  }
  for (;;) {
    FrameView frame;
    Status error;
    const std::span<const uint8_t> pending(recvbuf_.data() + recv_consumed_,
                                           recvbuf_.size() - recv_consumed_);
    const FrameResult r = ExtractFrame(pending, limits_, &frame, &error);
    if (r == FrameResult::kError) {
      return error;
    }
    if (r == FrameResult::kOk) {
      Response response;
      PNW_RETURN_IF_ERROR(DecodeResponse(frame, limits_, &response));
      recv_consumed_ += frame.frame_bytes;
      if (recv_consumed_ == recvbuf_.size()) {
        recvbuf_.clear();
        recv_consumed_ = 0;
      }
      ++responses_received_;
      return response;
    }
    // kNeedMore: compact, then block for more bytes.
    if (recv_consumed_ > 0) {
      recvbuf_.erase(recvbuf_.begin(),
                     recvbuf_.begin() + static_cast<ptrdiff_t>(recv_consumed_));
      recv_consumed_ = 0;
    }
    const size_t old_size = recvbuf_.size();
    recvbuf_.resize(old_size + kReadChunk);
    const ssize_t n = ::read(fd_, recvbuf_.data() + old_size, kReadChunk);
    if (n < 0) {
      recvbuf_.resize(old_size);
      if (errno == EINTR) {
        continue;
      }
      return Status::Internal(std::string("client read: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      recvbuf_.resize(old_size);
      return Status::Internal("client: server closed the connection");
    }
    recvbuf_.resize(old_size + static_cast<size_t>(n));
    bytes_received_ += static_cast<uint64_t>(n);
  }
}

Result<Response> Client::Receive() { return ReadResponse(); }

Result<Response> Client::RoundTrip(uint64_t id, Opcode opcode) {
  PNW_RETURN_IF_ERROR(Flush());
  Result<Response> r = ReadResponse();
  if (!r.ok()) {
    return r;
  }
  const Response& response = r.value();
  if (response.request_id != id) {
    return Status::Internal("client: response id mismatch (sent " +
                            std::to_string(id) + ", got " +
                            std::to_string(response.request_id) + ")");
  }
  if (response.opcode != opcode) {
    return Status::Internal("client: response opcode mismatch");
  }
  return r;
}

Status Client::Put(uint64_t key, std::span<const uint8_t> value) {
  const uint64_t id = SendPut(key, value);
  Result<Response> r = RoundTrip(id, Opcode::kPut);
  if (!r.ok()) {
    return r.status();
  }
  if (r.value().status != Status::Code::kOk) {
    return Status::Internal("remote put failed: status code " +
                            std::to_string(static_cast<int>(r.value().status)));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> Client::Get(uint64_t key) {
  const uint64_t id = SendGet(key);
  Result<Response> r = RoundTrip(id, Opcode::kGet);
  if (!r.ok()) {
    return r.status();
  }
  Response& response = r.value();
  switch (response.status) {
    case Status::Code::kOk:
      return std::move(response.value);
    case Status::Code::kNotFound:
      return Status::NotFound("remote get: key absent");
    case Status::Code::kOverloaded:
      return Status::Overloaded("remote get: server shed the request");
    default:
      return Status::Internal(
          "remote get failed: status code " +
          std::to_string(static_cast<int>(response.status)));
  }
}

Status Client::Delete(uint64_t key) {
  const uint64_t id = SendDelete(key);
  Result<Response> r = RoundTrip(id, Opcode::kDelete);
  if (!r.ok()) {
    return r.status();
  }
  switch (r.value().status) {
    case Status::Code::kOk:
      return Status::OK();
    case Status::Code::kNotFound:
      return Status::NotFound("remote delete: key absent");
    case Status::Code::kOverloaded:
      return Status::Overloaded("remote delete: server shed the request");
    default:
      return Status::Internal(
          "remote delete failed: status code " +
          std::to_string(static_cast<int>(r.value().status)));
  }
}

Result<std::vector<std::pair<std::string, uint64_t>>> Client::Stats() {
  const uint64_t id = NextId();
  EncodeStats(id, &sendbuf_);
  ++frames_sent_;
  Result<Response> r = RoundTrip(id, Opcode::kStats);
  if (!r.ok()) {
    return r.status();
  }
  Response& response = r.value();
  if (response.status != Status::Code::kOk) {
    return Status::Internal("remote stats failed: status code " +
                            std::to_string(static_cast<int>(response.status)));
  }
  return std::move(response.stats);
}

}  // namespace pnw::server
