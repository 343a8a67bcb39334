// The networked front-end: pnw_server's engine. A single epoll event-loop
// thread serves length-prefixed binary frames (src/server/protocol.h) over
// non-blocking TCP sockets and feeds each connection's pipelined requests
// to ShardedPnwStore::MultiGet / MultiPut, so the store's batched entry
// points -- one shared/exclusive lock acquisition per involved shard and
// the op-log's group fsync -- amortize across whatever a client kept in
// flight. Admission control is two-tier: a slow reader
// (responses backing up past per_conn_outbuf_limit) stops being *read*
// until it drains (bounded memory, no disconnect), and past the global
// in-flight budget new frames are answered kOverloaded without touching
// the store. ServerMetrics counts every frame and byte so the e2e tests
// can reconcile client counts == server frames == StoreMetrics ops.
#ifndef PNW_SERVER_SERVER_H_
#define PNW_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/sharded_store.h"
#include "src/server/protocol.h"
#include "src/server/server_metrics_fields.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace pnw::server {

/// Server configuration. The budgets are deliberately small-settable so
/// the fault-injection tests can engage backpressure deterministically.
struct ServerOptions {
  /// Listen address. Port 0 binds an ephemeral port; read the assigned
  /// one back via PnwServer::port().
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  ProtocolLimits limits;

  /// Max frames decoded from one connection into one processing burst;
  /// adjacent GETs/PUTs within the burst group into one store
  /// MultiGet/MultiPut. Anything beyond stays buffered for the next
  /// iteration (keeps one chatty pipeline from starving the loop).
  size_t max_pipeline_batch = 64;

  /// Stop *reading* a connection whose pending response bytes exceed this
  /// (resumed when the socket drains below half). This is the slow-reader
  /// valve: memory stays bounded without disconnecting anyone.
  size_t per_conn_outbuf_limit = 1u << 20;

  /// Global admission budget: response frames enqueued across all
  /// connections but not yet handed to the kernel. Past it, newly decoded
  /// frames are answered kOverloaded without reaching the store.
  size_t global_inflight_limit = 4096;

  /// SO_SNDBUF for accepted connections; 0 keeps the kernel default. The
  /// backpressure tests shrink it so a slow reader backs responses up
  /// into the server's own buffers instead of the kernel's.
  int so_sndbuf = 0;
};

/// Event-loop counters, declared from the list in server_metrics_fields.h
/// (which documents each counter and the reconciliation identities). All
/// slots are relaxed atomics: the loop thread is the only writer, but
/// tests and the STATS opcode read them live from other threads.
struct ServerMetrics {
  using Counter = core::RelaxedCounter<uint64_t>;

#define PNW_DECLARE_FIELD(type, name) type name;
  PNW_SERVER_METRICS(PNW_DECLARE_FIELD)
#undef PNW_DECLARE_FIELD

  /// Every counter as "name=value", for logs.
  std::string ToString() const;
};

/// The epoll front-end over one ShardedPnwStore (not owned; the store may
/// concurrently serve embedded callers, checkpoints, and migration -- the
/// per-shard locks are the interlock, same as every other entry point).
///
/// Thread model: Start() spawns one event-loop thread; Stop() (or the
/// destructor) wakes it via an eventfd, joins it, and closes every live
/// connection. All connection state is owned by the loop thread;
/// cross-thread surface is only `metrics()` (relaxed atomics), `port()`
/// (written before the thread starts), and the stop flag.
class PnwServer {
 public:
  /// Binds, listens, and starts the event loop. On error nothing is
  /// running and no fd is leaked.
  static Result<std::unique_ptr<PnwServer>> Start(core::ShardedPnwStore* store,
                                                  const ServerOptions& options);

  /// Joins the event loop and closes all connections. Idempotent; called
  /// by the destructor. Safe to call from any thread except the loop
  /// itself.
  void Stop() PNW_EXCLUDES(lifecycle_mu_);

  ~PnwServer();
  PnwServer(const PnwServer&) = delete;
  PnwServer& operator=(const PnwServer&) = delete;

  /// The bound port (the ephemeral one when options.port was 0).
  uint16_t port() const { return port_; }
  const ServerMetrics& metrics() const { return metrics_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// Per-connection state, owned and touched exclusively by the loop
  /// thread (no lock: single-threaded by construction).
  struct Connection {
    int fd = -1;
    /// Received-but-unparsed bytes; consumed_ is the parse offset so a
    /// burst doesn't memmove per frame.
    std::vector<uint8_t> inbuf;
    size_t consumed = 0;
    /// Encoded-but-unsent response bytes, and the count of response
    /// frames they hold (the global in-flight budget counts frames).
    std::vector<uint8_t> outbuf;
    size_t sent = 0;
    size_t pending_frames = 0;
    /// End offset (in outbuf) of each enqueued response frame, with a
    /// head index instead of front-erases: frames whose end is <= sent
    /// are fully written and credited back to the global budget.
    std::vector<size_t> out_frame_ends;
    size_t frame_ends_head = 0;
    bool paused_reading = false;
    /// Peer hung up or the stream is unrecoverable: flush what is queued,
    /// then close.
    bool closing = false;
  };

  PnwServer(core::ShardedPnwStore* store, const ServerOptions& options);

  Status Bind();
  void EventLoop();

  void AcceptReady();
  void ReadReady(Connection& conn);
  void WriteReady(Connection& conn);
  /// Decode and serve up to max_pipeline_batch frames from conn's inbuf.
  void ProcessFrames(Connection& conn);
  /// Execute one run of same-opcode single-key frames as a store batch.
  void ExecuteRun(Connection& conn, const std::vector<Request>& requests,
                  size_t begin, size_t end);
  void ExecuteOne(Connection& conn, const Request& request);
  void RespondStats(Connection& conn, const Request& request);
  void Enqueue(Connection& conn, const Response& response);
  /// True when the global budget admits another response frame.
  bool AdmitFrame() const;
  /// True when conn's unparsed input exceeds the valve (stop reading).
  bool InputBacklogged(const Connection& conn) const;
  /// True when conn's inbuf holds a complete (or unrecoverable) frame --
  /// i.e. ProcessFrames would make progress. A partial frame is not work.
  bool HasServableFrame(const Connection& conn) const;
  void UpdateEpoll(Connection& conn);
  void CloseConnection(int fd);

  core::ShardedPnwStore* store_;
  const ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  /// Loop-thread-only state (single-threaded by construction; the
  /// lifecycle lock below owns the thread itself, not this map).
  std::unordered_map<int, Connection> connections_;
  /// Response frames enqueued across all connections and not yet written
  /// -- the global admission gauge. Loop-thread-only.
  size_t global_inflight_ = 0;
  /// Reused scratch for batch execution (loop-thread-only).
  std::vector<uint64_t> batch_keys_;
  std::vector<std::span<const uint8_t>> batch_values_;

  ServerMetrics metrics_;

  /// Start/Stop serialization, exactly the migration-pacer pattern: the
  /// lifecycle lock owns the thread object (spawn + join); the loop never
  /// takes it, so Stop can hold it across the join without deadlock. The
  /// stop flag is an atomic the loop polls after every epoll wake (the
  /// eventfd write makes that wake immediate).
  util::Mutex lifecycle_mu_;
  std::thread loop_thread_ PNW_GUARDED_BY(lifecycle_mu_);
  std::atomic<bool> stop_{false};
};

}  // namespace pnw::server

#endif  // PNW_SERVER_SERVER_H_
