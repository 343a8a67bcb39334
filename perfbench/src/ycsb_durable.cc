// ycsb_a_durable: YCSB-A (50% read / 50% update, Zipf 0.99) in process on
// a 4-shard ShardedPnwStore whose per-shard op-logs are attached by an
// initial Checkpoint: every record is flushed to the OS on append and the
// disk is synced when a checkpoint commits (kStoreSyncEvery). 784 B
// MNIST-like values, 16 Ki records over 32 Ki buckets (a 25 MiB device).
// 2 client threads make single-key Get/Put calls; a Put of an existing key
// is an endurance-first update (DELETE + PUT through the model). Client 0
// takes a full Checkpoint every `checkpoint_every` of its own ops.
//
// After the phase the store is dropped without a final checkpoint and the
// directory reopened with ShardedPnwStore::Open(dir), which loads the last
// snapshot and replays the op-logs; every acknowledged write must read
// back. This checks recovery, not crash safety.

#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "src/core/sharded_store.h"
#include "src/persist/op_log.h"
#include "src/workloads/image_dataset.h"
#include "src/workloads/ycsb.h"

namespace perfbench {
namespace {

constexpr size_t kClients = 2;
constexpr size_t kValuePool = 4096;
/// The store's op-log group-fsync interval, held fixed: past any run's
/// length, so records are flushed to the OS on every append and reach the
/// disk when a checkpoint commits. Not the RecoveryOptions default of 32:
/// fdatasync on a virtual disk shared with other tenants varies five-fold
/// from minute to minute, and with a sync per 32 (or 1024) records the
/// workload's throughput and p99 measured that disk, not the store.
constexpr size_t kStoreSyncEvery = size_t{1} << 30;
/// The append/sync replay's interval: the RecoveryOptions default, so
/// persist.sync_ns prices the group fsync the store would pay by default.
constexpr size_t kReplaySyncEvery = 32;

struct Sizes {
  size_t records;
  size_t buckets;
  uint64_t checkpoint_every;  // client-0 ops between checkpoints
};

Sizes SizesFor(Scale scale) {
  if (scale == Scale::kSmall) {
    return {1024, 2048, 2000};
  }
  return {16384, 32768, 100000};
}

namespace fs = std::filesystem;

class YcsbDurable final : public Workload {
 public:
  explicit YcsbDurable(const Args& args)
      : args_(args),
        sizes_(SizesFor(args.scale)),
        dir_(args.work_dir + "/ycsb_a_durable.ckpt") {}

  void Generate() override {
    pnw::workloads::ImageDatasetOptions options;
    options.profile = pnw::workloads::ImageProfile::kMnist;
    options.num_old = 0;
    options.num_new = kValuePool;
    options.seed = Mix64(args_.seed);
    values_ = ValueFactory(pnw::workloads::GenerateImages(options).new_data, {});
    keys_.resize(sizes_.records);
    boot_.resize(sizes_.records);
    for (size_t k = 0; k < sizes_.records; ++k) {
      keys_[k] = k;
      boot_[k] = values_.Make(k, 0);
    }
  }

  pnw::Status Setup(Tracer* /*tracer*/) override {
    replay_errors_ = 0;
    std::error_code ec;
    fs::remove_all(dir_, ec);
    pnw::core::ShardedOptions options;
    options.num_shards = 4;
    options.store.value_bytes = values_.value_bytes();
    options.store.initial_buckets = sizes_.buckets;
    options.store.capacity_buckets = 2 * sizes_.buckets;
    options.store.num_clusters = 10;
    options.store.max_features = 256;
    options.store.update_mode = pnw::core::UpdateMode::kEnduranceFirst;
    auto opened = pnw::core::ShardedPnwStore::Open(options);
    if (!opened.ok()) {
      return opened.status();
    }
    store_ = std::move(opened.value());
    PNW_RETURN_IF_ERROR(store_->Bootstrap(keys_, boot_));
    // The first checkpoint attaches every shard's op-log. It is not
    // spanned: persist.checkpoint_s times checkpoints under load.
    PNW_RETURN_IF_ERROR(store_->Checkpoint(dir_));
    // Reopening is how a store takes a group-fsync interval other than
    // the default; the reopened store keeps it across later checkpoints.
    store_.reset();
    auto reopened = pnw::core::ShardedPnwStore::Open(dir_, Recovery());
    if (!reopened.ok()) {
      return reopened.status();
    }
    store_ = std::move(reopened.value());
    store_->ResetWearAndMetrics();
    acked_.assign(kClients, std::vector<uint32_t>(sizes_.records / kClients, 0));
    return pnw::Status::OK();
  }

  void Run(const RunLimits& limits, PhaseResult& phase) override {
    const uint64_t t0 = NowNs();
    const uint64_t deadline =
        t0 + static_cast<uint64_t>(limits.seconds * 1e9);
    phase.StartWindows(t0, limits.seconds);
    {
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back(
            [&, c] { ClientLoop(c, phase.clients[c], limits, deadline); });
      }
      for (std::thread& t : threads) {
        t.join();
      }
    }
    phase.seconds = static_cast<double>(NowNs() - t0) / 1e9;
  }

  void Snapshot(const PhaseResult& /*phase*/) override {
    counters_ = ShardedCounters(*store_);
    counters_.log_bytes_per_user_byte = LogBytesPerUserByte();
  }

  void Replay(const PhaseResult& phase, Tracer* tracer) override {
    replay_errors_ += ReplayShardedCoreLayers(
        *store_, values_, sizes_.records, sizes_.buckets, phase, tracer);
    ReplayOpLog(phase, tracer);
  }

  void Check(const PhaseResult& phase, Report& report) override {
    CheckStoreIdentities(phase, counters_, replay_errors_, report);
    // Recovery: drop the store without a final checkpoint, reopen the
    // directory (snapshot + op-log replay), read back every acked write.
    store_.reset();
    const uint64_t t0 = NowNs();
    auto reopened = pnw::core::ShardedPnwStore::Open(dir_, Recovery());
    const double reopen_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!reopened.ok()) {
      report.Fail("recovery: reopen failed: " +
                  reopened.status().ToString());
      return;
    }
    store_ = std::move(reopened.value());
    uint64_t bad = 0;
    for (size_t c = 0; c < kClients; ++c) {
      for (size_t local = 0; local < acked_[c].size(); ++local) {
        const uint64_t key = local * kClients + c;
        const pnw::Result<std::vector<uint8_t>> got = store_->Get(key);
        if (!got.ok() || !values_.Matches(key, acked_[c][local], got.value())) {
          ++bad;
        }
      }
    }
    char line[160];
    std::snprintf(line, sizeof(line),
                  "recovery: reopen %.4f s, %zu keys read back, %llu wrong",
                  reopen_s, sizes_.records, static_cast<unsigned long long>(bad));
    report.Note(line);
    if (bad != 0) {
      report.Fail("recovery: acknowledged writes lost or wrong after reopen: " +
                      std::to_string(bad),
                  bad);
    }
  }

  void Teardown() override {
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  size_t Clients() const override { return kClients; }
  /// Client 0 takes three checkpoints under load within the cap.
  uint64_t TracedOpsPerClient() const override {
    return 3 * sizes_.checkpoint_every + sizes_.checkpoint_every / 2;
  }

 private:
  static pnw::persist::RecoveryOptions Recovery() {
    pnw::persist::RecoveryOptions recovery;
    recovery.op_log_sync_every = kStoreSyncEvery;
    return recovery;
  }

  void ClientLoop(size_t c, ClientLog& log, const RunLimits& limits,
                  uint64_t deadline) {
    pnw::workloads::YcsbOptions options;
    options.workload = pnw::workloads::YcsbWorkload::kA;
    options.record_count = sizes_.records / kClients;
    options.seed = Mix64(args_.seed * 1000 + c);
    pnw::workloads::YcsbGenerator generator(options);
    std::vector<uint32_t>& acked = acked_[c];
    std::vector<uint8_t> value(values_.value_bytes());
    Tracer* tracer = log.tracer.get();
    for (uint64_t op = 0; NowNs() < deadline &&
                          (limits.max_ops_per_client == 0 ||
                           log.ops < limits.max_ops_per_client);
         ++op) {
      if (c == 0 && op != 0 && op % sizes_.checkpoint_every == 0) {
        ScopedSpan span(tracer, SpanName::kPersistCheckpoint, op);
        if (!store_->Checkpoint(dir_).ok()) {
          ++log.failed;
        }
      }
      const pnw::workloads::YcsbOp next = generator.Next();
      const auto local = static_cast<uint32_t>(next.key);
      const uint64_t key = next.key * kClients + c;
      ScopedSpan op_span(tracer, SpanName::kClientOp, op);
      ++log.ops;
      if (next.type == pnw::workloads::YcsbOp::Type::kRead) {
        pnw::Result<std::vector<uint8_t>> got = pnw::Status::OK();
        const uint64_t start = NowNs();
        {
          ScopedSpan span(tracer, SpanName::kCoreGet, op);
          got = store_->Get(key);
        }
        log.RecordGet(NowNs() - start);
        ++log.reads;
        log.RecordRead(key);
        if (!got.ok()) {
          ++log.failed;
        } else if (!values_.Matches(key, acked[local], got.value())) {
          ++log.mismatches;
        }
      } else {
        const uint32_t version = acked[local] + 1;
        values_.Fill(key, version, value);
        pnw::Status s;
        const uint64_t start = NowNs();
        {
          ScopedSpan span(tracer, SpanName::kCorePut, op);
          s = store_->Put(key, value);
        }
        log.RecordPut(NowNs() - start);
        ++log.writes;
        if (s.ok()) {
          acked[local] = version;
          log.RecordWrite(key, version);
        } else {
          ++log.failed;
        }
      }
      log.Tick(NowNs());
    }
  }

  /// On-disk bytes of the live generation's op-logs over the value bytes
  /// of the records they hold.
  double LogBytesPerUserByte() const {
    uint64_t file_bytes = 0;
    uint64_t value_bytes = 0;
    std::error_code ec;
    for (const auto& entry : fs::recursive_directory_iterator(dir_, ec)) {
      if (entry.path().extension() != ".oplog") {
        continue;
      }
      const auto contents = pnw::persist::ReadOpLog(entry.path().string());
      if (!contents.ok()) {
        continue;
      }
      file_bytes += contents.value().valid_bytes;
      for (const pnw::persist::OpRecord& r : contents.value().records) {
        value_bytes += r.value.size();
      }
    }
    return value_bytes == 0 ? 0.0
                            : static_cast<double>(file_bytes) /
                                  static_cast<double>(value_bytes);
  }

  /// persist.append / persist.sync: the phase's acknowledged writes
  /// appended to a scratch log on the same filesystem, with an explicit
  /// Sync every kReplaySyncEvery records, spanned apart from the append.
  void ReplayOpLog(const PhaseResult& phase, Tracer* tracer) {
    const std::string path = args_.work_dir + "/replay.oplog";
    std::error_code ec;
    fs::remove(path, ec);
    auto opened = pnw::persist::OpLogWriter::Open(path, SIZE_MAX, 1);
    if (!opened.ok()) {
      ++replay_errors_;
      return;
    }
    std::unique_ptr<pnw::persist::OpLogWriter> log = std::move(opened.value());
    std::vector<uint8_t> value(values_.value_bytes());
    uint64_t id = 0;
    for (const ClientLog& client : phase.clients) {
      for (const WrittenValue& w : client.written) {
        values_.Fill(w.key, w.version, value);
        {
          ScopedSpan span(tracer, SpanName::kPersistAppend, id);
          if (!log->Append(pnw::persist::OpType::kUpdate, w.key, value).ok()) {
            ++replay_errors_;
          }
        }
        if (++id % kReplaySyncEvery == 0) {
          ScopedSpan span(tracer, SpanName::kPersistSync, id);
          if (!log->Sync().ok()) {
            ++replay_errors_;
          }
        }
      }
    }
    log.reset();
    fs::remove(path, ec);
  }

  const Args args_;
  const Sizes sizes_;
  const std::string dir_;
  ValueFactory values_;
  std::vector<uint64_t> keys_;
  std::vector<std::vector<uint8_t>> boot_;
  std::unique_ptr<pnw::core::ShardedPnwStore> store_;
  /// Last acknowledged version of each key, per client (index = key / 2).
  std::vector<std::vector<uint32_t>> acked_;
};

}  // namespace

std::unique_ptr<Workload> MakeYcsbDurable(const Args& args) {
  return std::make_unique<YcsbDurable>(args);
}

}  // namespace perfbench
