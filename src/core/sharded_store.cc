#include "src/core/sharded_store.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string_view>
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

Result<std::unique_ptr<ShardedPnwStore>> ShardedPnwStore::Open(
    const ShardedOptions& options) {
  const size_t n = options.num_shards;
  if (n == 0 || (n & (n - 1)) != 0) {
    return Status::InvalidArgument("num_shards must be a power of two");
  }
  if (options.store.initial_buckets < n) {
    return Status::InvalidArgument(
        "initial_buckets must be >= num_shards to split across shards");
  }
  PnwOptions per_shard = options.store;
  per_shard.initial_buckets = PerShardBuckets(options.store.initial_buckets, n);
  per_shard.capacity_buckets =
      std::max(per_shard.initial_buckets,
               PerShardBuckets(options.store.capacity_buckets, n));
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

/// Runs `per_shard(i)` for every shard i in [0, num_shards) on a fresh
/// CheckpointThreads-sized pool, waits for all of them, and returns the
/// first error in shard order.
Status ForEachShard(size_t num_shards,
                    const std::function<Status(size_t)>& per_shard) {
  ThreadPool pool(CheckpointThreads(num_shards));
  std::vector<Status> statuses(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    pool.Submit([&statuses, &per_shard, i] { statuses[i] = per_shard(i); });
  }
  pool.Wait();
  for (const Status& s : statuses) {
    PNW_RETURN_IF_ERROR(s);
  }
  return Status::OK();
}

/// Directory of one checkpoint generation inside the checkpoint dir.
constexpr std::string_view kGenerationPrefix = "epoch-";
std::string EpochDirName(uint64_t epoch) {
  char name[32];
  std::snprintf(name, sizeof(name), "epoch-%06llu",
                static_cast<unsigned long long>(epoch));
  return name;
}

/// One past the highest number among `dir`'s `epoch-<digits>` entries, or
/// 1 when it has none (or cannot be listed).
uint64_t NextEpoch(const std::string& dir) {
  uint64_t highest = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(kGenerationPrefix, 0) == 0) {
      const char* last = name.data() + name.size();
      uint64_t epoch = 0;
      const auto [end, err] = std::from_chars(
          name.data() + kGenerationPrefix.size(), last, epoch);
      if (err == std::errc() && end == last) {
        highest = std::max(highest, epoch);
      }
    }
  }
  return highest + 1;
}

}  // namespace

Status ShardedPnwStore::Checkpoint(const std::string& dir) {
  // Each checkpoint writes a generation directory that did not exist
  // before (create_directories reports one that did as not created). The
  // manifest rename below is the commit point, so a failure or crash
  // anywhere before it leaves the committed generation (and the manifest
  // pointing at it) untouched.
  const uint64_t epoch = NextEpoch(dir);
  const std::string epoch_dir = dir + "/" + EpochDirName(epoch);
  std::error_code ec;
  if (!std::filesystem::create_directories(epoch_dir, ec)) {
    return Status::Internal("cannot create checkpoint generation " +
                            epoch_dir + ": " +
                            (ec ? ec.message() : "it already exists"));
  }
  // Phase 1: snapshots only. Every shard keeps logging into its
  // *committed* generation's op-log (a first checkpoint's shards log into
  // the new generation at once), so no write is ever captured only by an
  // uncommitted generation once the failure path below has run.
  Status s = ForEachShard(
      shards_.size(), [this, &epoch_dir, epoch](size_t i) -> Status {
        PnwStore& shard = *shards_[i];
        const std::string path = epoch_dir + "/" + ShardSnapshotName(i);
        // Exclusive only while the snapshot is captured into its temp
        // file: the capture must see a quiesced shard, so in-flight
        // shared-lock readers drain first and new ones wait; readers of
        // *other* shards are unaffected (this is the checkpoint-vs-reader
        // interlock).
        auto pending = [&shard, &path, epoch] {
          util::WriterLock lock(shard.mu());
          return shard.CaptureCheckpoint(path, epoch);
        }();
        if (!pending.ok()) {
          return pending.status();
        }
        // The fsync, rename and directory fsync run unlocked: the shard
        // keeps serving, and its operations keep landing in the committed
        // generation's log, past the capture's mark.
        return pending.value().Commit();
      });
  if (s.ok()) {
    persist::SnapshotWriter manifest(kManifestVersion);
    auto& w = manifest.AddSection(kManifestSection);
    w.PutU64(shards_.size());
    w.PutU64(epoch);
    persist::EncodePnwOptions(options_.store, w);
    s = manifest.WriteToFile(dir + "/" + kManifestName);
  }
  if (!s.ok()) {
    // Nothing committed: every shard aborts its capture (a no-op where the
    // capture itself failed), which detaches a log attached to the
    // uncommitted generation, so each shard's log attachment is as it was
    // before the call.
    for (const auto& shard_ptr : shards_) {
      PnwStore& shard = *shard_ptr;
      util::WriterLock lock(shard.mu());
      shard.AbortCheckpoint();
    }
    // No manifest names the generation and no shard logs into it now, so
    // repeated failures (a full disk, say) do not pile up its files.
    std::filesystem::remove_all(epoch_dir, ec);
    return s;
  }
  // Phase 2, after the commit point: switch every shard's op-log to the
  // new generation. Ops a shard acknowledged after its capture sit in the
  // old generation's log only until its switch carries them -- the one
  // bounded loss window a crash in this phase can cause.
  PNW_RETURN_IF_ERROR(ForEachShard(
      shards_.size(), [this, &epoch_dir, epoch](size_t i) -> Status {
        PnwStore& shard = *shards_[i];
        util::WriterLock lock(shard.mu());
        return shard.FinishCheckpoint(epoch_dir + "/" + ShardSnapshotName(i),
                                      epoch);
      }));
  // Only after the new manifest is durable: drop superseded generations
  // (and any partial ones a crashed checkpoint left). Failures here are
  // ignored -- leftovers waste disk but are never opened.
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.rfind(kGenerationPrefix, 0) == 0 &&
        name != EpochDirName(epoch)) {
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
  PNW_RETURN_IF_ERROR(r.GetU64(&epoch));
  PNW_RETURN_IF_ERROR(persist::DecodePnwOptions(r, &options.store));
  if (num_shards == 0 || (num_shards & (num_shards - 1)) != 0 ||
      num_shards > (size_t{1} << 20)) {
    return Status::Corruption("sharded manifest shard count out of range");
  }
  options.num_shards = num_shards;

  std::unique_ptr<ShardedPnwStore> store(new ShardedPnwStore(options));
  store->shards_.resize(num_shards);
  const std::string epoch_dir = dir + "/" + EpochDirName(epoch);
  PNW_RETURN_IF_ERROR(ForEachShard(
      num_shards, [&store, &epoch_dir, &recovery](size_t i) -> Status {
        auto shard =
            PnwStore::Open(epoch_dir + "/" + ShardSnapshotName(i), recovery);
        if (!shard.ok()) {
          return shard.status();
        }
        store->shards_[i] = std::move(shard.value());
        return Status::OK();
      }));
  return store;
}

Result<size_t> ShardedPnwStore::MigrateOnce(size_t max_buckets_per_shard) {
  size_t moved = 0;
  for (const auto& shard_ptr : shards_) {
    // Exclusive, like any writer: migration mutates the shard's index,
    // pool, flags, and device, so readers drain first and checkpoints
    // never observe a half-moved bucket.
    PnwStore& shard = *shard_ptr;
    util::WriterLock lock(shard.mu());
    auto migrated = shard.MigrateHotBuckets(max_buckets_per_shard);
    if (!migrated.ok()) {
      return migrated.status();
    }
    moved += migrated.value();
  }
  return moved;
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
  // through on a seqlock conflict, or when the shard's index has no
  // lock-free lookup (NVM path hashing).
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
    summary.bucket_writes = store.wear_tracker().TotalBucketWrites();
    summary.device_bits_written = store.device().counters().total_bits_written;
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
