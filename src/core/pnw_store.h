#ifndef PNW_CORE_PNW_STORE_H_
#define PNW_CORE_PNW_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/dynamic_address_pool.h"
#include "src/core/metrics.h"
#include "src/core/model_manager.h"
#include "src/core/pnw_options.h"
#include "src/index/key_index.h"
#include "src/nvm/nvm_device.h"
#include "src/util/arena.h"
#include "src/nvm/wear_tracker.h"
#include "src/persist/op_log.h"
#include "src/persist/recovery.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace pnw::persist {
class SnapshotReader;
}  // namespace pnw::persist

namespace pnw::core {

/// Predict-and-Write K/V store (the paper's contribution, Section V).
///
/// Components (Fig. 2): a K-means `ValueModel` and the `DynamicAddressPool`
/// on DRAM; a hash index (DRAM or NVM-resident path hashing, per
/// `PnwOptions::index_placement`); and the K/V *data zone* on simulated PCM.
/// A PUT predicts the cluster of the incoming value, acquires a free
/// address whose resident (stale) data is similar, and writes
/// differentially so only the Hamming-different bits cost endurance.
///
/// Data-zone bucket layout: [8-byte key][value_bytes value]; bucket
/// occupancy flags live in a separate NVM bitmap, and deletes reset a
/// single flag bit (paper Section V-B2).
///
/// Thread-safety contract, machine-checked by Clang Thread Safety Analysis
/// (see src/util/thread_annotations.h and ARCHITECTURE.md "Concurrency
/// contracts"): every store owns a reader-writer capability `mu_`,
/// reachable through mu(). Mutating operations (Put/Delete/Update/
/// Bootstrap/TrainModel/CaptureCheckpoint/...) require it exclusively; Get and
/// the metrics/geometry accessors require it at least shared -- the read
/// path is index lookup (const) + device Peek + relaxed-atomic metrics,
/// mutating nothing else, so any number of readers proceed in parallel
/// (matching the paper's single-writer evaluation per shard). The seqlock
/// read TryGetOptimistic runs the same read body with no lock at all and
/// keeps its result only if no writer ran meanwhile.
/// A store starts no thread of its own: (re)training runs synchronously
/// inside the operation that triggers it, so every model swap happens at a
/// point in the op sequence that op-log replay reproduces. Single-threaded
/// callers (tests, benches) take util::WriterLock/ReaderLock guards, which
/// are uncontended one-atomic-op acquisitions; the concurrent entry point
/// is ShardedPnwStore (src/core/sharded_store.h), which routes keys across
/// N independent PnwStore shards and locks exactly one shard per operation.
class PnwStore {
 public:
  /// Bumped whenever the snapshot section layout changes; a snapshot
  /// written under any other version is rejected with a clean
  /// InvalidArgument ("snapshot version mismatch") instead of a misparse.
  /// v2: StoreMetrics gained `get_misses` (PR 4 read-accounting overhaul).
  /// v3: StoreMetrics gained `log_wall_ns` (PR 5 write-path cost split).
  /// v4: endurance layer -- PnwOptions gained the Start-Gap/migration
  ///     knobs, StoreMetrics gained migrations/gap_moves/wear_device_ns,
  ///     the wear section carries the physical-slot histogram, and a new
  ///     remap section serializes the Start-Gap registers.
  /// v5: raw-speed ceiling -- StoreMetrics gained the optimistic-read
  ///     split (optimistic_gets/locked_gets/optimistic_retries). The
  ///     arena gauges are snapshots of process RAM and are NOT serialized.
  /// v6: the encoded PnwOptions lost LatencyParams' predict-overhead knob
  ///     (never read), so the options section is one double shorter.
  /// v7: the encoded PnwOptions lost the mini-batch training knob (no
  ///     caller set it), so the options section is one u64 shorter.
  /// v8: Start-Gap is gone: PnwOptions lost its two knobs, StoreMetrics
  ///     lost gap_moves, the wear section holds one histogram (per bucket),
  ///     and the remap section is gone.
  /// v9: background retraining is gone: PnwOptions lost its flag and the
  ///     retrain-pacing knob, StoreMetrics lost the failed-retrain counter.
  /// v10: the encoded PnwOptions lost LatencyParams' two DRAM latencies
  ///     (never read), and the op-log gained the TRAIN record, which a v9
  ///     binary would take for a torn tail.
  /// v11: the device section lost its per-word and per-line write
  ///     histograms (nothing read them): contents, NvmCounters and the
  ///     per-bit wear, in that order.
  static constexpr uint32_t kSnapshotVersion = 11;
  /// The op-log of a shard snapshot at `path` lives at
  /// `path + kOpLogSuffix`, in the same generation directory.
  static constexpr const char* kOpLogSuffix = ".oplog";

  /// Validates options and sizes the simulated device.
  static Result<std::unique_ptr<PnwStore>> Open(const PnwOptions& options);

  /// Reopen one shard of a checkpoint generation (ShardedPnwStore::Open
  /// calls it per shard): parse + checksum-verify the snapshot at `path`,
  /// rebuild every DRAM and NVM structure exactly as checkpointed (no
  /// retraining -- the K-means centroids, PCA basis, pool labels, and wear
  /// counters come back verbatim), then replay the op-log at
  /// `path + kOpLogSuffix` (truncating a torn tail first) and re-attach it
  /// for subsequent writes, per `recovery`. Replay reproduces every
  /// write-side counter of the operations it replays; see RecoveryOptions
  /// for the counters it cannot reproduce. Errors are clean Statuses:
  /// NotFound (no such snapshot), Corruption (checksum/structural damage,
  /// or a log stamped with another epoch than the snapshot's),
  /// InvalidArgument (snapshot version mismatch, or attach_op_log without
  /// replay_op_log).
  static Result<std::unique_ptr<PnwStore>> Open(
      const std::string& path,
      const persist::RecoveryOptions& recovery = persist::RecoveryOptions{});

  /// One shard's part of ShardedPnwStore::Checkpoint, in three steps, so
  /// the coordinator commits every shard before any switches its log and
  /// never holds a shard's lock across an fsync. `path` names the shard's
  /// snapshot inside a generation directory that did not exist before the
  /// checkpoint, and `epoch` is that generation's number: it is stamped
  /// into the snapshot and into the new op-log's header, tying the two.
  ///   1. CaptureCheckpoint, under the exclusive lock: encode the small
  ///      sections, write the snapshot into `path`'s temp file straight
  ///      from live memory (the device contents and wear arrays are
  ///      borrowed, not copied), and record where the live op-log stands
  ///      (the mark).
  ///   2. The returned PendingFile's Commit(), with no lock held: fsync,
  ///      rename over `path`, fsync the directory. Operations keep being
  ///      captured by the *previous* generation's log meanwhile. If this
  ///      or any other shard's step fails, or the manifest write does, the
  ///      coordinator retakes the lock and calls AbortCheckpoint, which
  ///      drops the mark (and is a no-op after a failed capture).
  ///   3. FinishCheckpoint, under the lock again, once the coordinator has
  ///      reached its commit point: create the op-log at `path +
  ///      kOpLogSuffix` stamped with `epoch`, carry into it the records
  ///      appended past the mark, and close the superseded log.
  /// With no log attached yet (first checkpoint, or a log detached after
  /// an append failure) the capture attaches the new generation's log at
  /// once, so nothing falls into a gap, and AbortCheckpoint detaches it:
  /// an aborted checkpoint leaves the log attachment as it found it. The
  /// snapshot holds everything the store serves and counts: options, data
  /// zone and flags, wear, index, model, pool, retrain pacing, metrics.
  Result<persist::PendingFile> CaptureCheckpoint(const std::string& path,
                                                 uint64_t epoch)
      PNW_REQUIRES(mu_);
  void AbortCheckpoint() PNW_REQUIRES(mu_);
  Status FinishCheckpoint(const std::string& path, uint64_t epoch)
      PNW_REQUIRES(mu_);

  /// True while an op-log is attached and healthy (a checkpoint or Open
  /// attaches one; an append failure detaches it and surfaces Internal on
  /// the op that could not be captured).
  bool op_log_attached() const PNW_REQUIRES_SHARED(mu_) {
    return op_log_ != nullptr;
  }

  /// The store's reader-writer capability. Exposed so callers (and the
  /// thread-safety analysis) name the lock they hold: ShardedPnwStore's
  /// entry points and single-threaded harnesses alike take
  /// util::WriterLock/ReaderLock guards on shard.mu().
  util::SharedMutex& mu() const PNW_RETURN_CAPABILITY(mu_) { return mu_; }

  ~PnwStore();
  PnwStore(const PnwStore&) = delete;
  PnwStore& operator=(const PnwStore&) = delete;

  /// Warm-up (paper Section VI-A: "we store some items as old data before
  /// starting our tests"): writes values[i] under keys[i] into the first
  /// buckets, then runs Algorithm 1 (train + build the dynamic address
  /// pool). Must be called on a fresh store.
  Status Bootstrap(std::span<const uint64_t> keys,
                   std::span<const std::vector<uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Algorithm 2. `value.size()` must equal options.value_bytes. A PUT of
  /// an existing key behaves as UPDATE under the configured update mode.
  Status Put(uint64_t key, std::span<const uint8_t> value) PNW_REQUIRES(mu_);

  /// Batched write: one Status per (key, value) slot, in slot order
  /// (duplicate keys allowed; later slots observe earlier ones, so the
  /// second occurrence of a key is an UPDATE). Each slot IS
  /// Put(keys[i], values[i]), prediction included, so a retrain that an
  /// earlier slot triggers steers every later one. Only the op-log capture
  /// is deferred: the attached log receives ONE group append for every
  /// applied operation (one buffer build + one flush + at most one
  /// deferred group fsync) instead of a flush per record. If that single
  /// group append fails, every applied-but-uncaptured slot reports
  /// Internal (mirroring Put's contract) and the log is detached.
  std::vector<Status> MultiPut(std::span<const uint64_t> keys,
                               std::span<const std::span<const uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Convenience overload for callers holding owned values.
  std::vector<Status> MultiPut(std::span<const uint64_t> keys,
                               std::span<const std::vector<uint8_t>> values)
      PNW_REQUIRES(mu_);

  /// Section V-B4: index lookup + data-zone read. One copy, straight from
  /// device memory into the returned vector. Hits bump `gets` and
  /// `locked_gets`, misses (index NotFound, or a key-mismatched bucket ->
  /// Internal) bump `get_misses`; the simulated device time lands in
  /// `get_device_ns` on every exit that read the device, mismatches
  /// included. Safe to call concurrently with other readers (see class
  /// comment).
  Result<std::vector<uint8_t>> Get(uint64_t key) PNW_REQUIRES_SHARED(mu_);

  /// Seqlock GET: Get()'s read body, run WITHOUT taking mu_ -- the reader
  /// snapshots the shard's sequence word (SharedMutex::OptimisticSeq),
  /// reads with relaxed-atomic byte loads, and only trusts the result if
  /// the sequence validates (no writer entered in between). Returns
  /// std::nullopt when the caller must fall back to the locked path: the
  /// index is NVM path hashing (not safe without the lock), or the
  /// conflict-retry budget was exhausted. A returned value carries Get()'s
  /// accounting, with `optimistic_gets` in place of `locked_gets`;
  /// discarded conflicting attempts bump only `optimistic_retries`.
  ///
  /// Safe to call with NO lock held, concurrently with writers -- that is
  /// its whole point. ShardedPnwStore::Get/MultiGet try it first and fall
  /// back to ReaderLock + Get().
  std::optional<Result<std::vector<uint8_t>>> TryGetOptimistic(uint64_t key);

  /// Algorithm 3: reset flag bit, re-label the freed address by its
  /// resident content, recycle it into the pool. While the model that
  /// served the bucket's PUT still serves, that PUT's label is reused
  /// instead of predicted again; the simulated NVM read of line 3 is
  /// charged either way.
  Status Delete(uint64_t key) PNW_REQUIRES(mu_);

  /// Section V-B3, honoring options.update_mode.
  Status Update(uint64_t key, std::span<const uint8_t> value)
      PNW_REQUIRES(mu_);

  /// Algorithm 1: sample the data zone, train a fresh model synchronously,
  /// swap it in, and re-label the pool's free addresses. Op-logged
  /// (OpType::kTrain), so recovery retrains at the same point.
  Status TrainModel() PNW_REQUIRES(mu_);

  /// Endurance maintenance: re-place up to `max_buckets` of the
  /// hottest-worn resident buckets into colder free addresses, choosing
  /// each destination in the stored value's ranked-cluster order (the
  /// pool's min-wear acquire) so placement quality survives relocation. A
  /// bucket qualifies as a victim when its K/V write count reaches both
  /// options().migration_min_writes and migration_hot_multiplier times
  /// the active-zone mean; a victim with no colder free destination is
  /// skipped without side effects. Each performed relocation is op-logged
  /// (OpType::kMigrate, keyed by the bucket index) and replayed
  /// deterministically on recovery. Requires store_keys_in_data_zone (the
  /// index entry is re-pointed via the bucket's key prefix). Callers
  /// serialize like any mutating op (ShardedPnwStore's migrator holds the
  /// shard's exclusive lock). Returns the number of buckets relocated.
  Result<size_t> MigrateHotBuckets(size_t max_buckets) PNW_REQUIRES(mu_);

  /// Number of K/V pairs currently stored.
  size_t size() const PNW_REQUIRES_SHARED(mu_) { return used_buckets_; }
  /// Buckets activated so far (the data zone grows toward
  /// options().capacity_buckets by extension).
  size_t active_buckets() const PNW_REQUIRES_SHARED(mu_) {
    return active_buckets_;
  }
  /// Occupied fraction of the active data zone (the load factor input).
  double UsedFraction() const PNW_REQUIRES_SHARED(mu_) {
    return active_buckets_ == 0
               ? 0.0
               : static_cast<double>(used_buckets_) /
                     static_cast<double>(active_buckets_);
  }

  /// The validated configuration this store was opened with.
  const PnwOptions& options() const { return options_; }
  /// Operation counters and latency attribution since the last reset.
  const StoreMetrics& metrics() const PNW_REQUIRES_SHARED(mu_) {
    return metrics_;
  }
  /// PUTs since the last (re)training, i.e. the retrain-pacing state that
  /// gates load-factor-triggered retraining (zeroed by ResetWearAndMetrics
  /// so a measured epoch never inherits warm-up pacing).
  size_t puts_since_retrain() const PNW_REQUIRES_SHARED(mu_) {
    return puts_since_retrain_;
  }
  /// The simulated PCM device backing the data zone (and, per options,
  /// the occupancy bitmap and NVM-resident index). The mutable overload
  /// hands out write access, so it demands the exclusive capability;
  /// shared holders get the inspect-only view.
  nvm::NvmDevice& device() PNW_REQUIRES(mu_) { return *device_; }
  const nvm::NvmDevice& device() const PNW_REQUIRES_SHARED(mu_) {
    return *device_;
  }
  /// Per-bucket K/V write counts (paper Fig. 12 input).
  const nvm::WearTracker& wear_tracker() const PNW_REQUIRES_SHARED(mu_) {
    return *wear_;
  }
  /// The dynamic address pool: one free-list per predicted cluster. Same
  /// split as device(): mutation demands the exclusive capability.
  DynamicAddressPool& pool() PNW_REQUIRES(mu_) { return pool_; }
  const DynamicAddressPool& pool() const PNW_REQUIRES_SHARED(mu_) {
    return pool_;
  }
  /// Currently served model; null while the store places model-less (DCW).
  std::shared_ptr<const ValueModel> model() const PNW_REQUIRES_SHARED(mu_) {
    return model_;
  }

  /// Zero all wear counters and operation metrics (benches call this after
  /// warm-up so only measured traffic is scored). Not an op-log record: a
  /// checkpoint after the reset persists the zeroed counters, but recovery
  /// from one taken before it replays later ops onto the old counters.
  void ResetWearAndMetrics() PNW_REQUIRES(mu_);

  /// Re-snapshot the arena gauges (metrics().arena_*) from the store's
  /// arenas: the device's data array, the DRAM index's nodes/tables (when
  /// DRAM-resident), and the bucket staging buffer. Gauges are written as
  /// relaxed counters, so shared suffices; ShardedPnwStore's
  /// AggregatedMetrics refreshes every shard before summing.
  void RefreshArenaStats() PNW_REQUIRES_SHARED(mu_);

  /// Data-zone bucket geometry (exposed for tests and benches): index
  /// entries, pool free-lists and device accesses all name a bucket by
  /// its device address, BucketAddr.
  size_t bucket_bytes() const { return bucket_bytes_; }
  uint64_t BucketAddr(size_t bucket) const { return bucket * bucket_bytes_; }

 private:
  explicit PnwStore(const PnwOptions& options);

  Status Init() PNW_REQUIRES(mu_);
  /// Algorithm 2 for a key the index does not hold: predict (timed into
  /// predict_wall_ns), acquire, Place, account. The caller logs the op.
  Status PutInternal(uint64_t key, std::span<const uint8_t> value)
      PNW_REQUIRES(mu_);
  Status DeleteInternal(uint64_t key) PNW_REQUIRES(mu_);

  /// The one no-model rule, untimed: `value`'s cluster label and its
  /// clusters nearest-first under the served model, or cluster 0 and {0}
  /// when none is trained yet (the store then degenerates to DCW
  /// placement, exactly the paper's k=1 behaviour). The ranking aliases
  /// per-store scratch, valid until the next predict/rank call. With
  /// `labeled`, `value` is the one the last LabelOf predicted, and the
  /// ranking reuses the features that call left in the scratch.
  size_t LabelOf(std::span<const uint8_t> value) PNW_REQUIRES(mu_);
  std::span<const size_t> RankOf(std::span<const uint8_t> value,
                                 bool labeled = false) PNW_REQUIRES(mu_);

  /// Return `bucket`'s address to the pool under the label of the value
  /// bytes now in it: a freed address is filed by its stale content
  /// (Algorithm 1 lines 4-5, Algorithm 3 line 3). A current stamp is that
  /// label already; only a stale or unknown one is predicted again.
  void Recycle(size_t bucket) PNW_REQUIRES(mu_);

  /// Copy [key|value] into bucket_scratch_.
  void Stage(uint64_t key, std::span<const uint8_t> value) PNW_REQUIRES(mu_);
  /// Write bucket_scratch_ into `bucket`, set its occupancy flag and point
  /// `key` at it, inside the caller's device accounting scope. Clears the
  /// bucket's stamp first; the caller stamps a successful write. On
  /// failure the caller closes that scope and calls Unplace(bucket).
  Status Place(uint64_t key, size_t bucket) PNW_REQUIRES(mu_);
  /// Roll back a failed Place: clear the flag, Recycle the bucket under
  /// whatever bytes it now holds, and count a failed op.
  void Unplace(size_t bucket) PNW_REQUIRES(mu_);

  /// A GET's outcome before it is charged: the value (or why there is
  /// none) and the simulated cost of the bucket read, zero when no bucket
  /// was read.
  struct BucketRead {
    Result<std::vector<uint8_t>> value;
    double device_ns = 0.0;
  };

  /// The one read body of Get and TryGetOptimistic: index lookup, range
  /// check, copy of the bucket's key and value with `Copy` (a memcpy
  /// signature, fixed at compile time so the call inlines), simulated read
  /// cost, key check. Charges nothing. Safe without the lock: the
  /// index_/device_ pointers are set once in Init and never reseated, the
  /// DRAM index lookup is lock-free, and a lock-free caller copies with
  /// relaxed-atomic loads and validates its seqlock before trusting the
  /// result. Get copies with memcpy, which vectorizes, and builds the value
  /// straight from the resident bytes; the byte-wise atomic loads fill a
  /// sized vector.
  template <auto Copy>
  BucketRead ReadBucket(uint64_t key) const PNW_NO_THREAD_SAFETY_ANALYSIS;

  /// Charge one GET: add its device time, then count `gets` plus `hits`
  /// (locked_gets or optimistic_gets) on a hit, `get_misses` on a miss.
  Result<std::vector<uint8_t>> ChargeRead(BucketRead read,
                                          RelaxedCounter<uint64_t>& hits);

  /// The bucket an index entry's address names, with ReadBucket's range
  /// check: Internal when it lies outside the data zone.
  Result<size_t> IndexedBucket(uint64_t addr) const PNW_REQUIRES_SHARED(mu_);

  /// Occupancy flag bitmap ops (each is a 1-byte differential NVM write).
  bool GetBucketFlag(size_t bucket) const PNW_REQUIRES_SHARED(mu_);
  Status SetBucketFlag(size_t bucket, bool occupied) PNW_REQUIRES(mu_);

  /// Value bytes resident in a bucket (stale or live), no accounting.
  std::span<const uint8_t> PeekBucketValue(size_t bucket) const
      PNW_REQUIRES_SHARED(mu_);

  /// Uniform sample of data-zone contents for training.
  std::vector<std::vector<uint8_t>> CollectTrainingSamples() const
      PNW_REQUIRES_SHARED(mu_);

  /// Serve `model` from now on: every install starts a new model epoch,
  /// which makes every stamp stale.
  void InstallModel(std::shared_ptr<const ValueModel> model)
      PNW_REQUIRES(mu_);
  /// InstallModel(model), then re-label every free address under it.
  void AdoptModel(std::shared_ptr<const ValueModel> model) PNW_REQUIRES(mu_);

  /// Grow the active data zone (new free addresses labeled under the
  /// current model) and trigger retraining per options.
  Status MaybeExtendAndRetrain() PNW_REQUIRES(mu_);

  /// TrainModel without its op-log record, for the trainings replay must
  /// not repeat: a load-factor retrain reruns inside the replayed PUT that
  /// triggered it, and Bootstrap is no op-log record, so its training
  /// would replay onto a snapshot without the bootstrapped data.
  Status Retrain() PNW_REQUIRES(mu_);

  /// Relocate one resident bucket to a colder free address (the shared
  /// body of MigrateHotBuckets and kMigrate replay). Decision phase is
  /// Peek-only, so "no colder destination" returns false with zero state
  /// or accounting side effects -- only performed (hence logged)
  /// relocations touch anything, which is what keeps replay bit-for-bit.
  Result<bool> MigrateBucket(size_t bucket) PNW_REQUIRES(mu_);

  /// Restore every serialized section of `snap` into this freshly-Init'd
  /// store (geometry mismatches fail with Corruption), and return the
  /// epoch the snapshot was stamped with in `*epoch`.
  Status RestoreFrom(const persist::SnapshotReader& snap, uint64_t* epoch)
      PNW_REQUIRES(mu_);

  /// Open the op-log at `path` and attach it so LogOp captures subsequent
  /// operations: a new or empty file is stamped with `epoch`, and an
  /// existing log (one Open just replayed) is appended to.
  Status AttachOpLog(const std::string& path, uint64_t epoch)
      PNW_REQUIRES(mu_);

  /// Append one record to the attached op-log (no-op when none is
  /// attached or while replaying). While a MultiPut batch is open
  /// (batch_slot_ set) the record is deferred into pending_log_ instead --
  /// FlushBatchLog turns the whole batch into one group append. On
  /// (immediate) append failure the log is detached -- it no longer
  /// matches the store -- and Internal is returned.
  Status LogOp(persist::OpType op, uint64_t key,
               std::span<const uint8_t> value) PNW_REQUIRES(mu_);

  /// Group-append every deferred record of the open batch (one flush, at
  /// most one deferred fsync). On failure the log is detached and the
  /// slots whose operations were applied but not captured are overwritten
  /// with Internal in `statuses`.
  void FlushBatchLog(std::span<Status> statuses) PNW_REQUIRES(mu_);

  /// The store's reader-writer capability (see mu()). Mutable so const
  /// read paths can acquire it shared through RAII guards.
  mutable util::SharedMutex mu_;

  // Immutable after construction (set in the constructor from validated
  // options): safe to read without the capability.
  PnwOptions options_;
  size_t key_bytes_;  // 8 when keys live in the data zone, else 0
  size_t bucket_bytes_;

  uint64_t flags_base_ PNW_GUARDED_BY(mu_);
  uint64_t index_base_ PNW_GUARDED_BY(mu_);

  std::unique_ptr<nvm::NvmDevice> device_ PNW_GUARDED_BY(mu_);
  std::unique_ptr<nvm::WearTracker> wear_ PNW_GUARDED_BY(mu_);
  std::unique_ptr<index::KeyIndex> index_ PNW_GUARDED_BY(mu_);
  std::shared_ptr<const ValueModel> model_ PNW_GUARDED_BY(mu_);
  DynamicAddressPool pool_ PNW_GUARDED_BY(mu_);
  /// The cluster label a bucket's value bytes were predicted to, and the
  /// model epoch of that predict. A stamp is current only while the
  /// bucket's value bytes are exactly the bytes the label was predicted
  /// from, under the served model: a successful PUT sets it, a migration
  /// carries it to the destination, and whatever rewrites the bytes (Place,
  /// the in-place UPDATE) clears it first. Epoch 0 is unknown. Stamps are
  /// DRAM-only and never persisted: after Init, Bootstrap and Open every
  /// one is unknown or stale.
  struct LabelStamp {
    uint32_t epoch = 0;
    uint32_t label = 0;
  };
  std::vector<LabelStamp> stamps_ PNW_GUARDED_BY(mu_);
  /// Epoch of the served model (see InstallModel); never 0.
  uint32_t model_epoch_ PNW_GUARDED_BY(mu_) = 1;

  size_t active_buckets_ PNW_GUARDED_BY(mu_) = 0;
  size_t used_buckets_ PNW_GUARDED_BY(mu_) = 0;
  size_t puts_since_retrain_ PNW_GUARDED_BY(mu_) = 0;
  /// DRAM-side occupancy bitmap, used when !options_.occupancy_flags_on_nvm.
  std::vector<uint8_t> dram_flags_ PNW_GUARDED_BY(mu_);
  bool bootstrapped_ PNW_GUARDED_BY(mu_) = false;
  /// Deliberately NOT PNW_GUARDED_BY(mu_): the analysis guards members
  /// whole, but StoreMetrics splits per field -- its read-side slots
  /// (gets/get_misses/get_device_ns) are RelaxedCounter atomics bumped by
  /// Get under the *shared* capability and by TryGetOptimistic under none,
  /// while every non-atomic field is only touched under the exclusive one.
  /// Annotating the struct would force the read path to take the writer
  /// lock it exists to avoid; the per-field discipline is enforced by the
  /// TSan CI job and the metrics-reconcile lint instead.
  StoreMetrics metrics_;
  /// Attached write-ahead log (null until a checkpoint or Open attaches
  /// one).
  std::unique_ptr<persist::OpLogWriter> op_log_ PNW_GUARDED_BY(mu_);
  /// Group-fsync interval for (re)attached logs; set by Open's
  /// RecoveryOptions and reused by later Checkpoints so an operator's
  /// durability setting survives re-checkpointing.
  size_t op_log_sync_every_ PNW_GUARDED_BY(mu_) =
      persist::RecoveryOptions{}.op_log_sync_every;
  /// Between CaptureCheckpoint and FinishCheckpoint: the previous log and
  /// its size at capture time. Operations logged past that mark raced
  /// the snapshot (its commit runs unlocked, and a sharded checkpoint
  /// commits every shard before any switches its log); FinishCheckpoint
  /// re-appends them to the fresh log so they stay durable even though
  /// the new snapshot predates them.
  std::string carry_log_path_ PNW_GUARDED_BY(mu_);
  uint64_t carry_log_mark_ PNW_GUARDED_BY(mu_) = 0;
  /// Set when CaptureCheckpoint already attached the new generation's log
  /// (no previous log existed to carry from -- first checkpoint or a
  /// degraded store); FinishCheckpoint then has nothing left to switch,
  /// and AbortCheckpoint detaches it.
  bool log_switched_in_capture_ PNW_GUARDED_BY(mu_) = false;
  /// True while Open() replays the log: replayed ops must not re-append.
  bool replaying_ PNW_GUARDED_BY(mu_) = false;

  /// Hot-path scratch (all mutating operations run under the exclusive
  /// lock, so one set per store suffices): prediction pipeline buffers,
  /// the [key|value] bucket staging buffer, and the deferred op-log
  /// records (+ their batch slots) of an open MultiPut. Capacity persists
  /// across operations -- the steady-state write path allocates nothing.
  FeatureScratch predict_scratch_ PNW_GUARDED_BY(mu_);
  /// [key|value] bucket staging, carved from the staging arena at Init
  /// (fixed bucket_bytes_ size, 64-byte aligned) -- the write path's last
  /// per-op heap allocation moved into arena memory like the device array
  /// and the index nodes.
  util::Arena staging_arena_ PNW_GUARDED_BY(mu_){
      util::Arena::Options{.slab_bytes = 4096}};
  std::span<uint8_t> bucket_scratch_ PNW_GUARDED_BY(mu_);
  std::vector<persist::OpLogEntry> pending_log_ PNW_GUARDED_BY(mu_);
  std::vector<size_t> pending_log_slots_ PNW_GUARDED_BY(mu_);
  /// Index of the MultiPut slot currently executing (drives
  /// pending_log_slots_); SIZE_MAX outside a batch.
  size_t batch_slot_ PNW_GUARDED_BY(mu_) = SIZE_MAX;
};

}  // namespace pnw::core

#endif  // PNW_CORE_PNW_STORE_H_
