#ifndef PNW_CORE_SHARDED_STORE_H_
#define PNW_CORE_SHARDED_STORE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/metrics.h"
#include "src/core/pnw_store.h"
#include "src/persist/recovery.h"
#include "src/util/status.h"

namespace pnw::core {

/// Configuration of a ShardedPnwStore.
struct ShardedOptions {
  /// Template for every shard. The bucket counts are divided across the
  /// shards (ceiling division plus a ~4-sigma binomial headroom per shard,
  /// covering hash-routing imbalance), so total capacity tracks the
  /// unsharded configuration. Everything else (value size, clustering,
  /// update mode, migration thresholds, ...) applies to each shard
  /// verbatim, so the paper's per-shard placement behaviour is exactly a
  /// PnwStore's.
  PnwOptions store;

  /// Number of independent shards. Must be a power of two (the router
  /// masks a mixed key hash).
  size_t num_shards = 4;
};

/// One shard's health snapshot inside a ShardedMetrics report: enough to
/// see routing imbalance (ops and occupancy skew) and wear imbalance
/// (hottest bucket, device bits) across shards at a glance.
struct ShardSummary {
  size_t shard = 0;
  /// The shard's own ledger (the totals are the Accumulate of these).
  StoreMetrics metrics;
  size_t used_buckets = 0;
  size_t active_buckets = 0;
  size_t free_addresses = 0;
  /// Max K/V writes any single bucket of this shard received.
  uint32_t max_bucket_writes = 0;
  /// Bucket writes this shard took in total (client + migration).
  uint64_t bucket_writes = 0;
  /// NVM cells this shard's device updated in total.
  uint64_t device_bits_written = 0;
};

/// Cross-shard aggregate: summed StoreMetrics plus per-shard summaries.
struct ShardedMetrics {
  StoreMetrics totals;
  std::vector<ShardSummary> shards;

  /// Routing-imbalance measure: max per-shard PUTs over the per-shard
  /// mean. 1.0 = perfectly balanced; >> 1 = one shard takes the heat.
  double PutImbalance() const;
  /// Hottest bucket across all shards (cross-shard wear ceiling).
  uint32_t MaxBucketWrites() const;

  /// Summed totals plus the shard count and imbalance measures, one line.
  std::string ToString() const;
};

/// Concurrent, hash-sharded front-end over N independent PnwStore shards.
///
/// Scaling move beyond the paper (which evaluates single-writer): each
/// shard keeps its own K-means model, dynamic address pool, index, and
/// simulated device -- i.e. its own wear domain -- so the paper's placement
/// logic is untouched per shard. Keys are routed by a mixed 64-bit hash
/// masked to the shard count; each shard carries its own reader-writer
/// capability (PnwStore::mu(), a util::SharedMutex), so operations on
/// different shards proceed in parallel and there is no global lock
/// anywhere on the data path.
///
/// Lock discipline per shard, machine-checked by Clang Thread Safety
/// Analysis against PnwStore's PNW_REQUIRES/PNW_REQUIRES_SHARED contracts
/// (the read-mostly YCSB mixes the paper reports on are why reads must not
/// serialize):
///   - shared:    Get, MultiGet, AggregatedMetrics, size -- any number of
///                readers proceed concurrently, even on the *same* shard.
///   - exclusive: Put, Delete, Update, Bootstrap, TrainModel,
///                ResetWearAndMetrics, MigrateOnce, and Checkpoint's
///                capture and log switch (the snapshot is a consistent
///                read of a quiesced shard). No fsync runs under it: a
///                snapshot's fsync and rename run unlocked.
/// The PnwStore read path holds up its end: under a shared lock it only
/// does const index lookups, device Peeks, and relaxed-atomic metrics
/// updates (StoreMetrics::gets/get_misses/get_device_ns).
///
/// Thread-safe: any number of threads may call Put/Get/MultiGet/Delete/
/// Update/MigrateOnce concurrently. Bootstrap/TrainModel/
/// ResetWearAndMetrics also lock per shard but are intended for
/// single-threaded setup phases. The store keeps no background thread:
/// hot-bucket migration runs only when a caller invokes MigrateOnce. The
/// unlocked `shard(i)` accessor is for tests/benches inspecting a quiesced
/// store.
class ShardedPnwStore {
 public:
  /// Bumped whenever the MANIFEST layout changes (shard snapshots carry
  /// their own version, PnwStore::kSnapshotVersion).
  ///   v2: background-migration options (enabled flag, interval, per-pass
  ///       victim budget) follow the encoded store options.
  ///   v3: the encoded store options lost LatencyParams' predict-overhead
  ///       knob (never read), so they are one double shorter.
  ///   v4: the encoded store options lost the mini-batch training knob (no
  ///       caller set it), so they are one u64 shorter.
  ///   v5: the split-buckets flag and v2's background-migration options are
  ///       gone (bucket counts are always split; MigrateOnce is the only
  ///       migration driver): shard count, epoch, encoded store options.
  ///   v6: the encoded store options lost the two Start-Gap knobs.
  ///   v7: the encoded store options lost the background-retrain flag and
  ///       the retrain-pacing knob.
  ///   v8: the encoded store options lost LatencyParams' two DRAM
  ///       latencies.
  static constexpr uint32_t kManifestVersion = 8;
  /// Checkpoint-directory file names: the manifest, and one snapshot (plus
  /// its `.oplog`) per shard, named by ShardSnapshotName().
  static constexpr const char* kManifestName = "MANIFEST";

  /// Validates options (power-of-two shard count, enough buckets to split)
  /// and opens every shard.
  static Result<std::unique_ptr<ShardedPnwStore>> Open(
      const ShardedOptions& options);

  /// Reopen a checkpoint directory written by Checkpoint(): reads the
  /// MANIFEST (its absence means "not a finished checkpoint" -- the
  /// manifest is written last), then recovers every shard snapshot in
  /// parallel on a util::ThreadPool, replaying each shard's own op-log per
  /// `recovery`. The recovered store has the same shard count, routing,
  /// per-shard models, pools, and wear domains as the checkpointed one.
  static Result<std::unique_ptr<ShardedPnwStore>> Open(
      const std::string& dir,
      const persist::RecoveryOptions& recovery = persist::RecoveryOptions{});

  /// Two-phase checkpoint into a new `dir/epoch-NNNNNN/` generation, the
  /// store's one durable layout. N is one past the highest `epoch-*` entry
  /// already in `dir`, so no checkpoint writes into a generation that
  /// existed before the call, and N is the epoch stamped into every shard
  /// snapshot and op-log header of the generation.
  /// Phase 1 snapshots every shard in parallel (one thread-pool task per
  /// shard) while the shards keep logging into the *committed*
  /// generation -- so an error or crash anywhere up to the commit leaves
  /// durability exactly as before the call. A shard's exclusive lock
  /// covers only its capture: the small sections encoded and the snapshot
  /// written into its temp file straight from live memory, plus the
  /// op-log mark. The fsync, rename and directory fsync follow unlocked
  /// (PnwStore::CaptureCheckpoint). If any shard's capture or commit
  /// fails, or the manifest write does, every shard aborts under its lock,
  /// leaving each shard's log attachment as it was before the call, and
  /// the uncommitted generation is removed. The commit point is the
  /// atomic write of `dir/MANIFEST`; phase 2 then switches every shard's
  /// op-log (`shard-NNNN.snap.oplog` inside the generation) to the new
  /// generation under its lock -- carrying over the records of operations
  /// that raced the shard's snapshot, so in the absence of a crash no
  /// acknowledged write is ever dropped, and closing the superseded log
  /// without an fsync -- and superseded generations, with any partial one
  /// a crash left, are garbage-collected. A crash mid-checkpoint therefore recovers the
  /// previous complete generation; a crash between the manifest commit
  /// and a shard's log switch can lose only the operations that shard
  /// acknowledged after its capture, which until the switch sit in the
  /// superseded generation's log alone. The snapshot is crash-consistent
  /// *per shard*, not a global point in time (keys routed to different
  /// shards may be captured at slightly different moments). Call from one
  /// thread at a time.
  Status Checkpoint(const std::string& dir);

  /// File name of shard `i`'s snapshot inside a checkpoint generation.
  static std::string ShardSnapshotName(size_t i);

  ShardedPnwStore(const ShardedPnwStore&) = delete;
  ShardedPnwStore& operator=(const ShardedPnwStore&) = delete;

  /// Routes each warm-up item to its shard, then bootstraps every shard
  /// (training a per-shard model unless options.store.train_on_bootstrap
  /// is off). Items must fit each shard's initial buckets; the per-shard
  /// headroom (see ShardedOptions::store) makes hash-imbalance overflow
  /// improbable.
  Status Bootstrap(std::span<const uint64_t> keys,
                   std::span<const std::vector<uint8_t>> values);

  Status Put(uint64_t key, std::span<const uint8_t> value);
  Result<std::vector<uint8_t>> Get(uint64_t key);
  Status Delete(uint64_t key);
  Status Update(uint64_t key, std::span<const uint8_t> value);

  /// Batched write: one Status per (key, value) slot, in slot order
  /// (duplicates allowed; later slots observe earlier ones). Groups the
  /// slots by owning shard and takes each involved shard's *exclusive*
  /// lock exactly once, so a batch of B writes over S shards costs
  /// min(B, S) lock acquisitions instead of B; within a shard the group
  /// goes through PnwStore::MultiPut (a Put per slot, one group op-log
  /// append). Writes to different shards still serialize only
  /// against their own shard's readers/writers. An empty batch returns an
  /// empty vector without locking.
  std::vector<Status> MultiPut(std::span<const uint64_t> keys,
                               std::span<const std::span<const uint8_t>> values);
  /// Convenience overload for callers holding owned values.
  std::vector<Status> MultiPut(std::span<const uint64_t> keys,
                               std::span<const std::vector<uint8_t>> values);

  /// Batched read: one Result per key, in key order (duplicates allowed).
  /// Groups the keys by owning shard and acquires each involved shard's
  /// shared lock exactly once, so a batch of B keys over S shards costs
  /// min(B, S) lock acquisitions instead of B -- the cheap way to drive
  /// the read-mostly YCSB mixes. Per-slot statuses mirror Get's: NotFound
  /// for an absent key, Internal for an index entry whose bucket holds a
  /// different key (both count as get_misses). An empty batch returns an
  /// empty vector without locking.
  std::vector<Result<std::vector<uint8_t>>> MultiGet(
      std::span<const uint64_t> keys);

  /// One synchronous migration pass, the only driver of hot-bucket
  /// migration: runs MigrateHotBuckets(max_buckets_per_shard) on each
  /// shard in turn, under that shard's exclusive lock, and returns the
  /// total number of buckets relocated (or the first shard error, which
  /// ends the pass). Callers pace it themselves (the YCSB runner's
  /// --migrate-every, tests). Needs bootstrapped shards that store keys in
  /// the data zone; otherwise FailedPrecondition.
  Result<size_t> MigrateOnce(size_t max_buckets_per_shard);

  /// Retrains every shard's model synchronously. Each shard op-logs its
  /// retrain, so recovery replays it in order with the shard's other
  /// operations.
  Status TrainModel();

  /// Zeroes every shard's wear counters and operation metrics.
  void ResetWearAndMetrics();

  /// Sums per-shard StoreMetrics and collects per-shard wear summaries so
  /// cross-shard imbalance is visible, locking one shard at a time (the
  /// result is a consistent per-shard, not cross-shard, snapshot).
  ShardedMetrics AggregatedMetrics() const;

  /// Total K/V pairs across all shards.
  size_t size() const;

  /// Number of independent shards (a power of two).
  size_t num_shards() const { return shards_.size(); }
  /// The validated configuration this store was opened with.
  const ShardedOptions& options() const { return options_; }

  /// Which shard `key` routes to.
  size_t ShardOf(uint64_t key) const;

  /// Direct shard access. Single-threaded inspection phases (tests,
  /// benches) may call the shard's accessors without locking; annotated
  /// builds still require naming the shard's capability (PnwStore::mu())
  /// through a ReaderLock/WriterLock guard.
  PnwStore& shard(size_t i) { return *shards_[i]; }

 private:
  explicit ShardedPnwStore(const ShardedOptions& options);

  /// Shared scatter/gather scaffolding of the batched entry points
  /// (MultiGet/MultiPut): group batch slots by owning shard, invoke
  /// `per_shard(shard, slot_indices)` once per involved shard -- the
  /// callable takes the lock its operation requires and returns that
  /// shard's results in slot_indices order -- then reassemble per-slot
  /// results in slot order. Defined in the .cc (only used there).
  template <typename Result, typename PerShardFn>
  std::vector<Result> ScatterGatherBatch(std::span<const uint64_t> keys,
                                         PerShardFn&& per_shard);

  ShardedOptions options_;
  /// Each shard owns its reader-writer capability (PnwStore::mu()); entry
  /// points name it through a local `PnwStore& shard` reference and an RAII
  /// guard, which is how the analysis ties each acquisition to the
  /// contracts it discharges. The vector itself is immutable after Open.
  std::vector<std::unique_ptr<PnwStore>> shards_;
};

}  // namespace pnw::core

#endif  // PNW_CORE_SHARDED_STORE_H_
