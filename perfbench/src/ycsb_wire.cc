// ycsb_b_wire: YCSB-B (95% read / 5% update, Zipf 0.99; Cooper et al.,
// SoCC '10) over loopback to an in-process PnwServer on a 4-shard
// ShardedPnwStore. 2 client threads, one connection each, run a closed
// loop of pipelines: queue 8 single-key frames, flush, read 8 responses.
// 128 B values, 32 Ki records over 64 Ki buckets (50% occupancy, an
// 8.5 MiB device that fits in L3). No op-log.
//
// Each client owns the keys k with k % 2 == client, so it knows the last
// acknowledged version of every key it reads; a GET's latency runs from
// the flush that carried its frame to its response.

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "common.h"
#include "src/core/sharded_store.h"
#include "src/server/client.h"
#include "src/server/protocol.h"
#include "src/server/server.h"
#include "src/workloads/ycsb.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 2;
constexpr size_t kDepth = 8;
constexpr size_t kValueBytes = 128;
constexpr size_t kValuePool = 4096;

struct Sizes {
  size_t records;
  size_t buckets;
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kSmall) {
    return {2048, 4096};
  }
  return {32768, 65536};
}

/// The ServerMetrics counters the benchmark reconciles, at one instant.
struct ServerCounts {
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t dropped_responses = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t store_batches = 0;
  uint64_t batched_keys = 0;
  uint64_t overload_rejects = 0;
  uint64_t protocol_errors = 0;

  static ServerCounts Read(const pnw::server::ServerMetrics& m) {
    return {m.frames_in.load(),        m.frames_out.load(),
            m.dropped_responses.load(), m.bytes_in.load(),
            m.bytes_out.load(),         m.store_batches.load(),
            m.batched_keys.load(),      m.overload_rejects.load(),
            m.protocol_errors.load()};
  }
};

class YcsbWire final : public Workload {
 public:
  explicit YcsbWire(const Args& args)
      : args_(args), sizes_(SizesFor(args.scale)) {}

  void Generate() override {
    values_ = ValueFactory(
        GenerateClusteredValues(kValuePool, kValueBytes, Mix64(args_.seed)),
        {});
    keys_.resize(sizes_.records);
    boot_.resize(sizes_.records);
    for (size_t k = 0; k < sizes_.records; ++k) {
      keys_[k] = k;
      boot_[k] = values_.Make(k, 0);
    }
  }

  pnw::Status Setup(Tracer* /*tracer*/) override {
    replay_errors_ = 0;
    pnw::core::ShardedOptions options;
    options.num_shards = 4;
    options.store.value_bytes = kValueBytes;
    options.store.initial_buckets = sizes_.buckets;
    options.store.capacity_buckets = 2 * sizes_.buckets;
    options.store.num_clusters = 8;
    options.store.max_features = 256;
    auto opened = pnw::core::ShardedPnwStore::Open(options);
    if (!opened.ok()) {
      return opened.status();
    }
    store_ = std::move(opened.value());
    PNW_RETURN_IF_ERROR(store_->Bootstrap(keys_, boot_));
    store_->ResetWearAndMetrics();
    // The server loop and the clients are not pinned. Pinned to one CPU
    // they ran at that one virtual CPU's speed, which on a shared host
    // shifted by 1.3x from run to run (p50 IQR/median 0.31 over ten
    // seeds); free to move, they average over every CPU (0.04 over five).
    auto started =
        pnw::server::PnwServer::Start(store_.get(), pnw::server::ServerOptions{});
    if (!started.ok()) {
      return started.status();
    }
    server_ = std::move(started).value();
    acked_.assign(kClients, std::vector<uint32_t>(sizes_.records / kClients, 0));
    return pnw::Status::OK();
  }

  void Run(const RunLimits& limits, PhaseResult& phase) override {
    std::vector<std::unique_ptr<pnw::server::Client>> clients;
    for (size_t c = 0; c < kClients; ++c) {
      auto connected = pnw::server::Client::Connect("127.0.0.1", server_->port());
      if (!connected.ok()) {
        ++phase.clients[c].failed;
        return;
      }
      clients.push_back(std::move(connected).value());
    }
    before_ = ServerCounts::Read(server_->metrics());
    const uint64_t t0 = NowNs();
    const uint64_t deadline =
        t0 + static_cast<uint64_t>(limits.seconds * 1e9);
    phase.StartWindows(t0, limits.seconds);
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
          ClientLoop(c, *clients[c], phase.clients[c], limits, deadline);
        });
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }
    phase.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  }

  void Snapshot(const PhaseResult& phase) override {
    counters_ = ShardedCounters(*store_);
    // The loop thread credits frames_out after the socket write, so a
    // client can hold its last response before the count moves: wait (at
    // most a second) until every frame the clients sent is accounted for.
    const pnw::server::ServerMetrics& m = server_->metrics();
    const uint64_t settle_deadline = NowNs() + 1000000000ull;
    while (m.frames_out.load() + m.dropped_responses.load() -
                   before_.frames_out - before_.dropped_responses <
               phase.Ops() &&
           NowNs() < settle_deadline) {
      std::this_thread::yield();
    }
    const ServerCounts after = ServerCounts::Read(m);
    counters_.wire = true;
    counters_.frames_in = after.frames_in - before_.frames_in;
    counters_.frames_out = after.frames_out - before_.frames_out;
    counters_.dropped_responses =
        after.dropped_responses - before_.dropped_responses;
    counters_.bytes_in = after.bytes_in - before_.bytes_in;
    counters_.bytes_out = after.bytes_out - before_.bytes_out;
    counters_.store_batches = after.store_batches - before_.store_batches;
    counters_.batched_keys = after.batched_keys - before_.batched_keys;
    counters_.overload_rejects =
        after.overload_rejects - before_.overload_rejects;
    counters_.protocol_errors = after.protocol_errors - before_.protocol_errors;
  }

  void Replay(const PhaseResult& phase, Tracer* tracer) override {
    replay_errors_ += ReplayShardedCoreLayers(
        *store_, values_, sizes_.records, sizes_.buckets, phase, tracer);
    ReplayCodec(phase, tracer);
  }

  void Check(const PhaseResult& phase, Report& report) override {
    CheckStoreIdentities(phase, counters_, replay_errors_, report);
  }

  void Teardown() override {
    if (server_ != nullptr) {
      server_->Stop();
    }
    server_.reset();
    store_.reset();
  }

  size_t Clients() const override { return kClients; }
  uint64_t TracedOpsPerClient() const override { return 120000; }

 private:
  struct Pending {
    uint64_t key = 0;
    uint32_t local = 0;
    uint32_t version = 0;
    bool write = false;
  };

  void ClientLoop(size_t c, pnw::server::Client& client, ClientLog& log,
                  const RunLimits& limits, uint64_t deadline) {
    pnw::workloads::YcsbOptions options;
    options.workload = pnw::workloads::YcsbWorkload::kB;
    options.record_count = sizes_.records / kClients;
    options.seed = Mix64(args_.seed * 1000 + c);
    pnw::workloads::YcsbGenerator generator(options);
    std::vector<uint32_t>& acked = acked_[c];
    std::vector<uint32_t> sent = acked;
    std::array<Pending, kDepth> window;
    std::vector<uint8_t> value(kValueBytes);
    Tracer* tracer = log.tracer.get();
    uint64_t pipeline = 0;
    while (NowNs() < deadline && (limits.max_ops_per_client == 0 ||
                                  log.ops < limits.max_ops_per_client)) {
      for (Pending& p : window) {
        const pnw::workloads::YcsbOp op = generator.Next();
        p.local = static_cast<uint32_t>(op.key);
        p.key = op.key * kClients + c;
        p.write = op.type != pnw::workloads::YcsbOp::Type::kRead;
        if (p.write) {
          p.version = ++sent[p.local];
          values_.Fill(p.key, p.version, value);
          client.SendPut(p.key, value);
        } else {
          client.SendGet(p.key);
        }
      }
      ScopedSpan span(tracer, SpanName::kServerPipeline, pipeline++);
      const uint64_t flush_ns = NowNs();
      if (!client.Flush().ok()) {
        log.failed += kDepth;
        log.ops += kDepth;
        return;
      }
      for (const Pending& p : window) {
        const pnw::Result<pnw::server::Response> r = client.Receive();
        const uint64_t latency = NowNs() - flush_ns;
        ++log.ops;
        if (p.write) {
          ++log.writes;
          log.RecordPut(latency);
        } else {
          ++log.reads;
          log.RecordGet(latency);
          log.RecordRead(p.key);
        }
        if (!r.ok() || r.value().status != pnw::Status::Code::kOk) {
          ++log.failed;
        } else if (p.write) {
          acked[p.local] = p.version;
          log.RecordWrite(p.key, p.version);
        } else if (!values_.Matches(p.key, acked[p.local], r.value().value)) {
          ++log.mismatches;
        }
      }
      log.Tick(NowNs());
    }
  }

  /// server.codec: each recorded frame through the request and response
  /// encoders and decoders, one parent span per frame.
  void ReplayCodec(const PhaseResult& phase, Tracer* tracer) {
    const pnw::server::ProtocolLimits limits;
    std::vector<uint8_t> value(kValueBytes);
    std::vector<uint8_t> request_bytes;
    std::vector<uint8_t> response_bytes;
    pnw::server::Request request;
    pnw::server::Response response;
    pnw::server::Response decoded;
    uint64_t id = 0;
    auto round = [&](bool write, uint64_t key, uint64_t version) {
      values_.Fill(key, version, value);
      request_bytes.clear();
      response_bytes.clear();
      response = pnw::server::Response{};
      response.opcode =
          write ? pnw::server::Opcode::kPut : pnw::server::Opcode::kGet;
      response.request_id = id;
      if (!write) {
        response.value = value;
      }
      ScopedSpan frame_span(tracer, SpanName::kServerCodec, id);
      {
        ScopedSpan span(tracer, SpanName::kCodecEncodeRequest, id);
        if (write) {
          pnw::server::EncodePut(id, key, value, &request_bytes);
        } else {
          pnw::server::EncodeGet(id, key, &request_bytes);
        }
      }
      {
        ScopedSpan span(tracer, SpanName::kCodecDecodeRequest, id);
        pnw::server::FrameView frame;
        pnw::Status error;
        if (pnw::server::ExtractFrame(request_bytes, limits, &frame, &error) !=
                pnw::server::FrameResult::kOk ||
            !pnw::server::DecodeRequest(frame, limits, &request).ok()) {
          ++replay_errors_;
        }
      }
      {
        ScopedSpan span(tracer, SpanName::kCodecEncodeResponse, id);
        pnw::server::EncodeResponse(response, &response_bytes);
      }
      {
        ScopedSpan span(tracer, SpanName::kCodecDecodeResponse, id);
        pnw::server::FrameView frame;
        pnw::Status error;
        if (pnw::server::ExtractFrame(response_bytes, limits, &frame,
                                      &error) !=
                pnw::server::FrameResult::kOk ||
            !pnw::server::DecodeResponse(frame, limits, &decoded).ok()) {
          ++replay_errors_;
        }
      }
      ++id;
    };
    for (const ClientLog& log : phase.clients) {
      for (const uint64_t key : log.read_keys) {
        round(false, key, 0);
      }
      for (const WrittenValue& w : log.written) {
        round(true, w.key, w.version);
      }
    }
  }

  const Args args_;
  const Sizes sizes_;
  ValueFactory values_;
  std::vector<uint64_t> keys_;
  std::vector<std::vector<uint8_t>> boot_;
  std::unique_ptr<pnw::core::ShardedPnwStore> store_;
  std::unique_ptr<pnw::server::PnwServer> server_;
  /// Last acknowledged version of each key, per client (index = key / 2).
  std::vector<std::vector<uint32_t>> acked_;
  ServerCounts before_;
};

}  // namespace

std::unique_ptr<Workload> MakeYcsbWire(const Args& args) {
  return std::make_unique<YcsbWire>(args);
}

}  // namespace perfbench
