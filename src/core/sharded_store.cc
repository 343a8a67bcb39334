#include "src/core/sharded_store.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>
#include <utility>

#include "src/persist/snapshot.h"
#include "src/persist/store_codec.h"
#include "src/util/hash.h"
#include "src/util/mutex.h"
#include "src/util/thread_pool.h"

namespace pnw::core {

namespace {

/// Per-shard share of `total` buckets: ceiling division plus ~4 sigma of
/// Binomial(total, 1/shards) headroom, so a shard that draws an unlucky
/// (but statistically ordinary) excess of keys still fits.
size_t PerShardBuckets(size_t total, size_t shards) {
  const size_t base = (total + shards - 1) / shards;
  if (shards == 1) {
    return base;
  }
  const auto sigma = static_cast<size_t>(
      std::ceil(4.0 * std::sqrt(static_cast<double>(base))));
  return base + std::max<size_t>(8, sigma);
}

}  // namespace

double ShardedMetrics::PutImbalance() const {
  if (shards.empty() || totals.puts == 0) {
    return 1.0;
  }
  uint64_t max_puts = 0;
  for (const auto& s : shards) {
    max_puts = std::max(max_puts, s.metrics.puts);
  }
  const double mean = static_cast<double>(totals.puts) /
                      static_cast<double>(shards.size());
  return mean == 0.0 ? 1.0 : static_cast<double>(max_puts) / mean;
}

uint32_t ShardedMetrics::MaxBucketWrites() const {
  uint32_t max_writes = 0;
  for (const auto& s : shards) {
    max_writes = std::max(max_writes, s.max_bucket_writes);
  }
  return max_writes;
}

std::string ShardedMetrics::ToString() const {
  std::ostringstream os;
  os << totals.ToString() << " shards=" << shards.size()
     << " put_imbalance=" << PutImbalance()
     << " max_bucket_writes=" << MaxBucketWrites();
  return os.str();
}

ShardedPnwStore::ShardedPnwStore(const ShardedOptions& options)
    : options_(options) {}

ShardedPnwStore::~ShardedPnwStore() { StopBackgroundMigration(); }

Result<std::unique_ptr<ShardedPnwStore>> ShardedPnwStore::Open(
    const ShardedOptions& options) {
  const size_t n = options.num_shards;
  if (n == 0 || (n & (n - 1)) != 0) {
    return Status::InvalidArgument("num_shards must be a power of two");
  }
  if (options.split_buckets && options.store.initial_buckets < n) {
    return Status::InvalidArgument(
        "initial_buckets must be >= num_shards to split across shards");
  }
  PnwOptions per_shard = options.store;
  if (options.split_buckets) {
    per_shard.initial_buckets =
        PerShardBuckets(options.store.initial_buckets, n);
    per_shard.capacity_buckets = std::max(
        per_shard.initial_buckets,
        PerShardBuckets(options.store.capacity_buckets, n));
  }
  std::unique_ptr<ShardedPnwStore> store(new ShardedPnwStore(options));
  store->shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    PnwOptions shard_options = per_shard;
    // De-correlate per-shard K-means initializations.
    shard_options.seed = options.store.seed + i;
    auto shard = PnwStore::Open(shard_options);
    if (!shard.ok()) {
      return shard.status();
    }
    store->shards_.push_back(std::move(shard.value()));
  }
  if (options.background_migration) {
    PNW_RETURN_IF_ERROR(store->StartBackgroundMigration());
  }
  return store;
}

size_t ShardedPnwStore::ShardOf(uint64_t key) const {
  // Mixed before masking, or shard 0 would take every run of small keys.
  return util::Fmix64(key) & (shards_.size() - 1);
}

std::string ShardedPnwStore::ShardSnapshotName(size_t i) {
  char name[32];
  std::snprintf(name, sizeof(name), "shard-%04zu.snap", i);
  return name;
}

namespace {

/// MANIFEST section id (the manifest is a one-section snapshot container).
constexpr uint32_t kManifestSection = 1;

/// Workers for parallel shard checkpoint/recovery: one per shard, capped
/// by the machine's core count.
size_t CheckpointThreads(size_t num_shards) {
  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  return std::max<size_t>(1, std::min(num_shards, hw));
}

/// Runs `per_shard(i)` for every shard i in [0, num_shards) on `pool` (a
/// fresh CheckpointThreads-sized one when null), waits for all of them, and
/// returns the first error in shard order.
Status ForEachShard(size_t num_shards, ThreadPool* pool,
                    const std::function<Status(size_t)>& per_shard) {
  std::unique_ptr<ThreadPool> own;
  if (pool == nullptr) {
    own = std::make_unique<ThreadPool>(CheckpointThreads(num_shards));
    pool = own.get();
  }
  std::vector<Status> statuses(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    pool->Submit([&statuses, &per_shard, i] { statuses[i] = per_shard(i); });
  }
  pool->Wait();
  for (const Status& s : statuses) {
    PNW_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

/// Directory of one checkpoint generation inside the checkpoint dir.
std::string EpochDirName(uint64_t epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "epoch-%06llu",
                static_cast<unsigned long long>(epoch));
  return name;
}

}  // namespace

Status ShardedPnwStore::Checkpoint(const std::string& dir) {
  // Each checkpoint writes a fresh generation directory; the manifest
  // rename below is the commit point, so a crash anywhere before it
  // leaves the previous generation (and the manifest pointing at it)
  // untouched.
  const uint64_t epoch = checkpoint_epoch_ + 1;
  const std::string epoch_dir = dir + "/" + EpochDirName(epoch);
  std::error_code ec;
  std::filesystem::create_directories(epoch_dir, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint directory " +
                            epoch_dir + ": " + ec.message());
  }
  // Phase 1: snapshots only. Every shard keeps logging into its
  // *committed* generation's op-log, so a failure anywhere up to the
  // manifest commit leaves the durable state exactly as before this call
  // -- no write is ever captured only by an uncommitted generation.
  PNW_RETURN_IF_ERROR(ForEachShard(
      shards_.size(), nullptr, [this, &epoch_dir](size_t i) -> Status {
        // Exclusive: the snapshot must see a quiesced shard, so in-flight
        // shared-lock readers drain first and new ones wait; readers of
        // *other* shards are unaffected (this is the checkpoint-vs-reader
        // interlock).
        PnwStore& shard = *shards_[i];
        util::WriterLock lock(shard.mu());
        return shard.WriteCheckpoint(epoch_dir + "/" + ShardSnapshotName(i));
      }));
  persist::SnapshotWriter manifest(kManifestVersion);
  auto& w = manifest.AddSection(kManifestSection);
  w.PutU64(shards_.size());
  w.PutBool(options_.split_buckets);
  w.PutU64(epoch);
  persist::EncodePnwOptions(options_.store, w);
  w.PutBool(options_.background_migration);
  w.PutU64(options_.migration_interval_ms);
  w.PutU64(options_.migration_max_buckets);
  PNW_RETURN_IF_ERROR(manifest.WriteToFile(dir + "/" + kManifestName));
  checkpoint_epoch_ = epoch;
  // Phase 2, after the commit point: switch every shard's op-log to the
  // new generation. Ops a shard acknowledges between the manifest rename
  // and its own switch land in the old generation's log only -- the one
  // bounded loss window a crash in this phase can cause.
  PNW_RETURN_IF_ERROR(ForEachShard(
      shards_.size(), nullptr, [this, &epoch_dir](size_t i) -> Status {
        PnwStore& shard = *shards_[i];
        util::WriterLock lock(shard.mu());
        return shard.FinishCheckpoint(epoch_dir + "/" + ShardSnapshotName(i));
      }));
  // Only after the new manifest is durable: drop superseded generations
  // (and any partial ones a crashed checkpoint left). Failures here are
  // ignored -- leftovers waste disk but are never opened.
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_directory() &&
        entry.path().filename().string().rfind("epoch-", 0) == 0 &&
        entry.path().filename().string() != EpochDirName(epoch)) {
      std::filesystem::remove_all(entry.path(), ec);
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedPnwStore>> ShardedPnwStore::Open(
    const std::string& dir, const persist::RecoveryOptions& recovery) {
  auto parsed = persist::SnapshotReader::FromFile(dir + "/" + kManifestName,
                                                  kManifestVersion);
  if (!parsed.ok()) {
    if (parsed.status().IsNotFound()) {
      return Status::NotFound(
          dir + " has no " + std::string(kManifestName) +
          " -- not a sharded checkpoint, or the checkpoint never finished");
    }
    return parsed.status();
  }
  auto section = parsed.value().Section(kManifestSection);
  if (!section.ok()) {
    return Status::Corruption("sharded manifest has no content section");
  }
  persist::BufferReader& r = section.value();
  ShardedOptions options;
  uint64_t num_shards = 0;
  uint64_t epoch = 0;
  PNW_RETURN_IF_ERROR(r.GetU64(&num_shards));
  PNW_RETURN_IF_ERROR(r.GetBool(&options.split_buckets));
  PNW_RETURN_IF_ERROR(r.GetU64(&epoch));
  PNW_RETURN_IF_ERROR(persist::DecodePnwOptions(r, &options.store));
  {
    uint64_t interval = 0;
    uint64_t max_buckets = 0;
    PNW_RETURN_IF_ERROR(r.GetBool(&options.background_migration));
    PNW_RETURN_IF_ERROR(r.GetU64(&interval));
    PNW_RETURN_IF_ERROR(r.GetU64(&max_buckets));
    options.migration_interval_ms = interval;
    options.migration_max_buckets = max_buckets;
  }
  if (num_shards == 0 || (num_shards & (num_shards - 1)) != 0 ||
      num_shards > (size_t{1} << 20)) {
    return Status::Corruption("sharded manifest shard count out of range");
  }
  options.num_shards = num_shards;

  std::unique_ptr<ShardedPnwStore> store(new ShardedPnwStore(options));
  store->checkpoint_epoch_ = epoch;
  store->shards_.resize(num_shards);
  const std::string epoch_dir = dir + "/" + EpochDirName(epoch);
  PNW_RETURN_IF_ERROR(ForEachShard(
      num_shards, nullptr,
      [&store, &epoch_dir, &recovery](size_t i) -> Status {
        auto shard =
            PnwStore::Open(epoch_dir + "/" + ShardSnapshotName(i), recovery);
        if (!shard.ok()) {
          return shard.status();
        }
        store->shards_[i] = std::move(shard.value());
        return Status::OK();
      }));
  if (options.background_migration) {
    PNW_RETURN_IF_ERROR(store->StartBackgroundMigration());
  }
  return store;
}

Result<size_t> ShardedPnwStore::MigrateOnce(size_t max_buckets_per_shard) {
  std::vector<size_t> moved(shards_.size(), 0);
  PNW_RETURN_IF_ERROR(ForEachShard(
      shards_.size(), nullptr,
      [this, &moved, max_buckets_per_shard](size_t i) -> Status {
        // Exclusive, like any writer: migration mutates the shard's index,
        // pool, flags, and device, so readers drain first and checkpoints
        // never observe a half-moved bucket.
        PnwStore& shard = *shards_[i];
        util::WriterLock lock(shard.mu());
        auto migrated = shard.MigrateHotBuckets(max_buckets_per_shard);
        if (!migrated.ok()) {
          return migrated.status();
        }
        moved[i] = migrated.value();
        return Status::OK();
      }));
  return std::accumulate(moved.begin(), moved.end(), size_t{0});
}

Status ShardedPnwStore::StartBackgroundMigration() {
  if (!options_.store.store_keys_in_data_zone) {
    return Status::FailedPrecondition(
        "background migration requires store_keys_in_data_zone");
  }
  // Lifecycle lock first: unsynchronized, two concurrent Starts (or a
  // Start racing the destructor's Stop) would both see a non-joinable
  // pacer, then assign over a joinable std::thread -- std::terminate --
  // while racing on migration_stop_. The flag itself still needs
  // migration_mu_, the lock the pacer's wait loop holds.
  util::MutexLock lifecycle(migration_lifecycle_mu_);
  if (migration_pacer_.joinable()) {
    return Status::OK();  // already running
  }
  {
    util::MutexLock lock(migration_mu_);
    migration_stop_ = false;
  }
  migrator_pool_ =
      std::make_unique<ThreadPool>(CheckpointThreads(shards_.size()));
  // The pacer borrows the pool by raw pointer instead of re-reading the
  // lifecycle-guarded member: Stop joins the pacer before resetting the
  // pool, so the borrow outlives every use.
  ThreadPool* pool = migrator_pool_.get();
  const auto interval = std::chrono::milliseconds(
      std::max<size_t>(1, options_.migration_interval_ms));
  migration_pacer_ =
      std::thread([this, interval, pool] { MigrationPacerLoop(interval, pool); });
  return Status::OK();
}

void ShardedPnwStore::MigrationPacerLoop(std::chrono::milliseconds interval,
                                         ThreadPool* pool) {
  util::UniqueLock lock(migration_mu_);
  for (;;) {
    // Sleep one interval, waking early only for the stop signal (spurious
    // wakeups re-wait on the same deadline).
    const auto deadline = std::chrono::steady_clock::now() + interval;
    while (!migration_stop_ &&
           migration_cv_.WaitUntil(lock, deadline) != std::cv_status::timeout) {
    }
    if (migration_stop_) {
      return;
    }
    // Run the pass outside the pacer mutex so Stop never waits on a full
    // pass's worth of shard locks just to deliver its signal.
    lock.Unlock();
    RunMigrationPass(pool);
    lock.Lock();
  }
}

void ShardedPnwStore::RunMigrationPass(ThreadPool* pool) {
  const Status s =
      ForEachShard(shards_.size(), pool, [this](size_t i) -> Status {
        PnwStore& shard = *shards_[i];
        util::WriterLock shard_lock(shard.mu());
        auto migrated =
            shard.MigrateHotBuckets(options_.migration_max_buckets);
        // A FailedPrecondition here only means the shard is not
        // bootstrapped yet (Open starts the pacer before the caller
        // loads data): a benign no-op sweep, not a failure.
        if (!migrated.ok() && !migrated.status().IsFailedPrecondition()) {
          return migrated.status();
        }
        return Status::OK();
      });
  if (!s.ok()) {
    background_migration_failures_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedPnwStore::StopBackgroundMigration() {
  // Same lifecycle lock as Start: the join below must never race another
  // Start's thread assignment. The pacer never takes this lock, so holding
  // it across the join cannot deadlock.
  util::MutexLock lifecycle(migration_lifecycle_mu_);
  {
    util::MutexLock lock(migration_mu_);
    migration_stop_ = true;
  }
  migration_cv_.NotifyAll();
  if (migration_pacer_.joinable()) {
    migration_pacer_.join();
    migration_pacer_ = std::thread();
  }
  migrator_pool_.reset();
}

Status ShardedPnwStore::Bootstrap(
    std::span<const uint64_t> keys,
    std::span<const std::vector<uint8_t>> values) {
  if (keys.size() != values.size()) {
    return Status::InvalidArgument("keys/values size mismatch");
  }
  std::vector<std::vector<uint64_t>> shard_keys(shards_.size());
  std::vector<std::vector<std::vector<uint8_t>>> shard_values(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const size_t s = ShardOf(keys[i]);
    shard_keys[s].push_back(keys[i]);
    shard_values[s].push_back(values[i]);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    PnwStore& shard = *shards_[s];
    util::WriterLock lock(shard.mu());
    PNW_RETURN_IF_ERROR(shard.Bootstrap(shard_keys[s], shard_values[s]));
  }
  return Status::OK();
}

Status ShardedPnwStore::Put(uint64_t key, std::span<const uint8_t> value) {
  PnwStore& shard = *shards_[ShardOf(key)];
  util::WriterLock lock(shard.mu());
  return shard.Put(key, value);
}

Result<std::vector<uint8_t>> ShardedPnwStore::Get(uint64_t key) {
  PnwStore& shard = *shards_[ShardOf(key)];
  // Fastest path: seqlock optimistic read, no lock acquired at all. Falls
  // through on a seqlock conflict, when optimistic reads are disabled, or
  // when the shard's index has no lock-free lookup (NVM path hashing).
  if (auto fast = shard.TryGetOptimistic(key)) {
    return std::move(*fast);
  }
  // Shared: readers of the same shard proceed in parallel (the PnwStore
  // read path is Peek + relaxed atomics, see its thread-safety contract).
  util::ReaderLock lock(shard.mu());
  return shard.Get(key);
}

template <typename Result, typename PerShardFn>
std::vector<Result> ShardedPnwStore::ScatterGatherBatch(
    std::span<const uint64_t> keys, PerShardFn&& per_shard) {
  // Group slot indices by owning shard. Per-shard results keep their
  // in-shard order, so re-walking the batch with one cursor per shard
  // reassembles slot order without placeholder results.
  std::vector<std::vector<size_t>> shard_slots(shards_.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    shard_slots[ShardOf(keys[i])].push_back(i);
  }
  std::vector<std::vector<Result>> shard_results(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shard_slots[s].empty()) {
      shard_results[s] = per_shard(s, shard_slots[s]);
    }
  }
  std::vector<Result> out;
  out.reserve(keys.size());
  std::vector<size_t> cursor(shards_.size(), 0);
  for (const uint64_t key : keys) {
    const size_t s = ShardOf(key);
    out.push_back(std::move(shard_results[s][cursor[s]++]));
  }
  return out;
}

std::vector<Status> ShardedPnwStore::MultiPut(
    std::span<const uint64_t> keys,
    std::span<const std::span<const uint8_t>> values) {
  if (keys.size() != values.size()) {
    return std::vector<Status>(
        std::max(keys.size(), values.size()),
        Status::InvalidArgument("keys/values size mismatch"));
  }
  if (keys.empty()) {
    return {};
  }
  return ScatterGatherBatch<Status>(
      keys, [this, keys, values](size_t s, const std::vector<size_t>& slots) {
        // Values travel as borrowed spans -- no payload copies on the way
        // to the owning shard.
        std::vector<uint64_t> shard_keys;
        std::vector<std::span<const uint8_t>> shard_values;
        shard_keys.reserve(slots.size());
        shard_values.reserve(slots.size());
        for (const size_t slot : slots) {
          shard_keys.push_back(keys[slot]);
          shard_values.push_back(values[slot]);
        }
        // One *exclusive*-lock acquisition per involved shard, however
        // many writes the batch routes to it; the shard-level MultiPut
        // then amortizes the op-log flush across the group.
        PnwStore& shard = *shards_[s];
        util::WriterLock lock(shard.mu());
        return shard.MultiPut(shard_keys, shard_values);
      });
}

std::vector<Status> ShardedPnwStore::MultiPut(
    std::span<const uint64_t> keys,
    std::span<const std::vector<uint8_t>> values) {
  std::vector<std::span<const uint8_t>> spans(values.begin(), values.end());
  return MultiPut(keys, spans);
}

std::vector<Result<std::vector<uint8_t>>> ShardedPnwStore::MultiGet(
    std::span<const uint64_t> keys) {
  if (keys.empty()) {
    return {};
  }
  return ScatterGatherBatch<Result<std::vector<uint8_t>>>(
      keys, [this, keys](size_t s, const std::vector<size_t>& slots) {
        std::vector<uint64_t> shard_keys;
        shard_keys.reserve(slots.size());
        for (const size_t slot : slots) {
          shard_keys.push_back(keys[slot]);
        }
        // Optimistic first for every key, lock-free; then AT MOST one
        // *shared*-lock acquisition per involved shard for the keys whose
        // optimistic attempt fell through.
        PnwStore& shard = *shards_[s];
        std::vector<Result<std::vector<uint8_t>>> results;
        results.reserve(shard_keys.size());
        std::vector<size_t> fallback;
        for (size_t i = 0; i < shard_keys.size(); ++i) {
          if (auto fast = shard.TryGetOptimistic(shard_keys[i])) {
            results.push_back(std::move(*fast));
          } else {
            results.emplace_back(
                Status::Internal("unresolved optimistic slot"));
            fallback.push_back(i);
          }
        }
        if (!fallback.empty()) {
          util::ReaderLock lock(shard.mu());
          for (const size_t i : fallback) {
            results[i] = shard.Get(shard_keys[i]);
          }
        }
        return results;
      });
}

Status ShardedPnwStore::Delete(uint64_t key) {
  PnwStore& shard = *shards_[ShardOf(key)];
  util::WriterLock lock(shard.mu());
  return shard.Delete(key);
}

Status ShardedPnwStore::Update(uint64_t key, std::span<const uint8_t> value) {
  PnwStore& shard = *shards_[ShardOf(key)];
  util::WriterLock lock(shard.mu());
  return shard.Update(key, value);
}

Status ShardedPnwStore::TrainModel() {
  for (const auto& shard_ptr : shards_) {
    PnwStore& shard = *shard_ptr;
    util::WriterLock lock(shard.mu());
    PNW_RETURN_IF_ERROR(shard.TrainModel());
  }
  return Status::OK();
}

void ShardedPnwStore::ResetWearAndMetrics() {
  for (const auto& shard_ptr : shards_) {
    PnwStore& shard = *shard_ptr;
    util::WriterLock lock(shard.mu());
    shard.ResetWearAndMetrics();
  }
}

ShardedMetrics ShardedPnwStore::AggregatedMetrics() const {
  ShardedMetrics aggregated;
  aggregated.shards.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    // Shared: aggregation is a pure read, so a metrics dashboard never
    // stalls the readers it is measuring (writers still exclude it). The
    // const ref makes the const (shared-capability) overloads of pool()
    // and device() apply below.
    PnwStore& mutable_store = *shards_[i];
    const PnwStore& store = mutable_store;
    util::ReaderLock lock(store.mu());
    // Re-snapshot the arena gauges before summing them: they describe
    // current allocator state, not accumulated history.
    mutable_store.RefreshArenaStats();
    ShardSummary summary;
    summary.shard = i;
    summary.metrics = store.metrics();
    aggregated.totals.Accumulate(summary.metrics);
    summary.used_buckets = store.size();
    summary.active_buckets = store.active_buckets();
    summary.free_addresses = store.pool().FreeCount();
    summary.max_bucket_writes = store.wear_tracker().MaxBucketWrites();
    summary.device_bits_written = store.device().counters().total_bits_written;
    summary.max_physical_writes = store.wear_tracker().MaxPhysicalWrites();
    summary.physical_bucket_writes = store.wear_tracker().TotalPhysicalWrites();
    summary.start_gap_rotations =
        store.remapper() != nullptr ? store.remapper()->rotations() : 0;
    aggregated.shards.push_back(summary);
  }
  return aggregated;
}

size_t ShardedPnwStore::size() const {
  size_t total = 0;
  for (const auto& shard_ptr : shards_) {
    const PnwStore& shard = *shard_ptr;
    util::ReaderLock lock(shard.mu());
    total += shard.size();
  }
  return total;
}

}  // namespace pnw::core
