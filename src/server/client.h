// Blocking TCP client for the pnw_server wire protocol -- the counterpart
// of src/server/server.h and the reference decoder consumer. Two usage
// modes share one connection:
//
//   Sync:      Put/Get/Delete/Stats -- encode one frame, flush, block
//              for its response. Simple, one round trip each.
//   Pipelined: SendGet/SendPut/SendDelete queue frames locally; Flush()
//              writes them in one syscall burst; Receive() blocks for the
//              next response. This is the protocol's only way to batch:
//              keeping N frames in flight lets the server group them into
//              one store MultiGet/MultiPut and amortize the op-log group
//              fsync (bench_fig19_server measures this).
//
// Not thread-safe: one Client per thread (the e2e tests and ycsb_runner
// --remote open one connection per worker thread).
#ifndef PNW_SERVER_CLIENT_H_
#define PNW_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/server/protocol.h"
#include "src/util/status.h"

namespace pnw::server {

class Client {
 public:
  /// Connects (blocking) to host:port. On error nothing is leaked.
  /// `so_rcvbuf` > 0 shrinks (and pins) the kernel receive buffer before
  /// connecting -- the backpressure tests use it so a deliberately slow
  /// reader cannot hide behind kernel buffering.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 uint16_t port,
                                                 ProtocolLimits limits = {},
                                                 int so_rcvbuf = 0);

  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Sync operations (one round trip each) ---

  Status Put(uint64_t key, std::span<const uint8_t> value);
  /// kNotFound when the key is absent; other codes pass through.
  Result<std::vector<uint8_t>> Get(uint64_t key);
  Status Delete(uint64_t key);
  /// Flat name -> counter snapshot: "store.*" (StoreMetrics) and
  /// "server.*" (ServerMetrics), the remote reconcile surface.
  Result<std::vector<std::pair<std::string, uint64_t>>> Stats();

  // --- Pipelined operations ---

  /// Queue a frame locally (no I/O). Returns its request_id.
  uint64_t SendGet(uint64_t key);
  uint64_t SendPut(uint64_t key, std::span<const uint8_t> value);
  uint64_t SendDelete(uint64_t key);
  /// Write every queued frame to the socket (one burst).
  Status Flush();
  /// Block for the next response frame, in server order (which is send
  /// order: one loop thread, FIFO per connection).
  Result<Response> Receive();

  /// Frames sent and responses received over this connection's lifetime
  /// (the client-side legs of the three-way reconcile).
  uint64_t frames_sent() const { return frames_sent_; }
  uint64_t responses_received() const { return responses_received_; }
  /// Wire bytes written / read, including WriteRaw fault injections -- the
  /// client-side legs of the server.bytes_in / bytes_out reconcile.
  uint64_t bytes_sent() const { return bytes_sent_; }
  uint64_t bytes_received() const { return bytes_received_; }

  /// Close the socket without waiting for pending responses -- the
  /// disconnect-mid-pipeline fault injection. Further calls fail.
  void Abort();

  /// Write raw bytes straight to the socket, bypassing the codec -- the
  /// torn-frame / garbage-stream fault injections send exactly the bytes
  /// a well-behaved client never would.
  Status WriteRaw(std::span<const uint8_t> bytes);

 private:
  Client(int fd, ProtocolLimits limits) : fd_(fd), limits_(limits) {}

  uint64_t NextId() { return next_request_id_++; }
  /// Blocks until one frame is decoded from the socket.
  Result<Response> ReadResponse();
  /// Flush + read one response and require its id/opcode to match.
  Result<Response> RoundTrip(uint64_t id, Opcode opcode);

  int fd_ = -1;
  const ProtocolLimits limits_;
  uint64_t next_request_id_ = 1;
  std::vector<uint8_t> sendbuf_;
  std::vector<uint8_t> recvbuf_;
  size_t recv_consumed_ = 0;
  uint64_t frames_sent_ = 0;
  uint64_t responses_received_ = 0;
  uint64_t bytes_sent_ = 0;
  uint64_t bytes_received_ = 0;
};

}  // namespace pnw::server

#endif  // PNW_SERVER_CLIENT_H_
