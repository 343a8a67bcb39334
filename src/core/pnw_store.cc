#include "src/core/pnw_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <type_traits>
#include <utility>

#include "src/index/dram_hash_index.h"
#include "src/index/path_hash_index.h"
#include "src/util/atomic_bytes.h"
#include "src/persist/snapshot.h"
#include "src/persist/store_codec.h"

namespace pnw::core {

namespace {

constexpr size_t kStoredKeyBytes = 8;
/// Host cache line, the stride of the freed-bucket prefetch.
constexpr size_t kCpuLineBytes = 64;

/// Snapshot section ids (layout versioned by PnwStore::kSnapshotVersion).
enum SnapshotSection : uint32_t {
  kSectionOptions = 1,
  kSectionState = 2,
  kSectionDevice = 3,
  kSectionWear = 4,
  kSectionDramFlags = 5,
  kSectionIndex = 6,
  kSectionModel = 7,
  kSectionPool = 8,
};

/// Scoped attribution of device-counter deltas to a metrics slot: every NVM
/// byte the enclosed operation touches (payload, flag bitmap, NVM-resident
/// index) lands in the same per-op accounting.
class DeviceDeltaScope {
 public:
  DeviceDeltaScope(nvm::NvmDevice* device, double* ns_slot,
                   uint64_t* bits_slot = nullptr,
                   uint64_t* lines_slot = nullptr,
                   uint64_t* words_slot = nullptr)
      : device_(device),
        ns_slot_(ns_slot),
        bits_slot_(bits_slot),
        lines_slot_(lines_slot),
        words_slot_(words_slot),
        start_(device->counters()) {}

  ~DeviceDeltaScope() {
    const auto& end = device_->counters();
    if (ns_slot_ != nullptr) {
      *ns_slot_ += end.total_latency_ns - start_.total_latency_ns;
    }
    if (bits_slot_ != nullptr) {
      *bits_slot_ += end.total_bits_written - start_.total_bits_written;
    }
    if (lines_slot_ != nullptr) {
      *lines_slot_ += end.total_lines_written - start_.total_lines_written;
    }
    if (words_slot_ != nullptr) {
      *words_slot_ += end.total_words_written - start_.total_words_written;
    }
  }

 private:
  nvm::NvmDevice* device_;
  double* ns_slot_;
  uint64_t* bits_slot_;
  uint64_t* lines_slot_;
  uint64_t* words_slot_;
  nvm::NvmCounters start_;
};

/// Adds the wall-clock nanoseconds of its lifetime to `*slot`; with a null
/// slot it reads no clock.
class WallTimer {
 public:
  explicit WallTimer(double* slot) : slot_(slot) {
    if (slot_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~WallTimer() {
    if (slot_ != nullptr) {
      *slot_ += std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
    }
  }
  WallTimer(const WallTimer&) = delete;
  WallTimer& operator=(const WallTimer&) = delete;

 private:
  double* slot_;
  std::chrono::steady_clock::time_point start_{};
};

/// Migration re-points the index by the key stored in the bucket's first
/// bytes, so a keyless store cannot migrate.
Status KeylessMigration() {
  return Status::FailedPrecondition(
      "hot-bucket migration requires store_keys_in_data_zone (the index "
      "entry is re-pointed by the key read from the bucket)");
}

}  // namespace

PnwStore::~PnwStore() = default;

PnwStore::PnwStore(const PnwOptions& options)
    : options_(options),
      key_bytes_(options.store_keys_in_data_zone ? kStoredKeyBytes : 0),
      bucket_bytes_(key_bytes_ + options.value_bytes),
      flags_base_(0),
      index_base_(0),
      pool_(std::max<size_t>(1, options.num_clusters)) {}

Result<std::unique_ptr<PnwStore>> PnwStore::Open(const PnwOptions& options) {
  if (options.value_bytes == 0) {
    return Status::InvalidArgument("value_bytes must be positive");
  }
  if (options.initial_buckets == 0 ||
      options.capacity_buckets < options.initial_buckets) {
    return Status::InvalidArgument(
        "need 0 < initial_buckets <= capacity_buckets");
  }
  if (options.num_clusters == 0) {
    return Status::InvalidArgument("num_clusters must be positive");
  }
  if (options.num_clusters > UINT32_MAX) {
    // A bucket's label stamp holds its cluster in 32 bits.
    return Status::InvalidArgument("num_clusters must fit in 32 bits");
  }
  if (options.load_factor <= 0.0 || options.load_factor > 1.0) {
    return Status::InvalidArgument("load_factor must be in (0, 1]");
  }
  std::unique_ptr<PnwStore> store(new PnwStore(options));
  {
    // Nobody else can reach the store yet; the guard exists so Init's
    // REQUIRES(mu_) contract is dischargeable (and free: uncontended).
    PnwStore& s = *store;
    util::WriterLock lock(s.mu());
    PNW_RETURN_IF_ERROR(s.Init());
  }
  return store;
}

Status PnwStore::Init() {
  // The flag bitmap and the NVM index regions sit above the data zone.
  const size_t data_bytes = options_.capacity_buckets * bucket_bytes_;
  const size_t flag_bytes = (options_.capacity_buckets + 7) / 8;
  flags_base_ = data_bytes;
  index_base_ = data_bytes + flag_bytes;
  if (!options_.occupancy_flags_on_nvm) {
    dram_flags_.assign(flag_bytes, 0);
  }
  stamps_.assign(options_.capacity_buckets, LabelStamp{});

  size_t index_bytes = 0;
  if (options_.index_placement == IndexPlacement::kNvmPathHash) {
    index_bytes = index::PathHashIndex::StorageBytes(
        options_.capacity_buckets * 2, /*num_levels=*/8);
  }

  nvm::NvmConfig config;
  config.size_bytes = data_bytes + flag_bytes + index_bytes;
  config.track_bit_wear = options_.track_bit_wear;
  config.latency = options_.latency;
  device_ = std::make_unique<nvm::NvmDevice>(config);
  wear_ = std::make_unique<nvm::WearTracker>(device_.get(), bucket_bytes_);

  if (options_.index_placement == IndexPlacement::kNvmPathHash) {
    index_ = std::make_unique<index::PathHashIndex>(
        device_.get(), index_base_, options_.capacity_buckets * 2,
        /*num_levels=*/8);
  } else {
    index_ = std::make_unique<index::DramHashIndex>();
  }

  // The bucket staging buffer lives in arena memory for the store's whole
  // life (Init runs once per store object).
  bucket_scratch_ = std::span<uint8_t>(
      static_cast<uint8_t*>(staging_arena_.Allocate(bucket_bytes_, 64)),
      bucket_bytes_);

  active_buckets_ = options_.initial_buckets;
  // Until a model exists, every free address sits in cluster 0 and PUTs
  // place like DCW.
  for (size_t b = 0; b < active_buckets_; ++b) {
    pool_.Insert(0, BucketAddr(b));
  }
  return Status::OK();
}

bool PnwStore::GetBucketFlag(size_t bucket) const {
  const uint8_t byte = options_.occupancy_flags_on_nvm
                           ? device_->Peek(flags_base_ + bucket / 8, 1)[0]
                           : dram_flags_[bucket / 8];
  return (byte >> (bucket % 8)) & 1;
}

Status PnwStore::SetBucketFlag(size_t bucket, bool occupied) {
  if (!options_.occupancy_flags_on_nvm) {
    if (occupied) {
      dram_flags_[bucket / 8] |= static_cast<uint8_t>(1u << (bucket % 8));
    } else {
      dram_flags_[bucket / 8] &= static_cast<uint8_t>(~(1u << (bucket % 8)));
    }
    return Status::OK();
  }
  uint8_t byte = device_->Peek(flags_base_ + bucket / 8, 1)[0];
  if (occupied) {
    byte |= static_cast<uint8_t>(1u << (bucket % 8));
  } else {
    byte &= static_cast<uint8_t>(~(1u << (bucket % 8)));
  }
  auto result = device_->WriteDifferential(
      flags_base_ + bucket / 8, std::span<const uint8_t>(&byte, 1));
  return result.ok() ? Status::OK() : result.status();
}

std::span<const uint8_t> PnwStore::PeekBucketValue(size_t bucket) const {
  return device_->Peek(BucketAddr(bucket) + key_bytes_,
                       options_.value_bytes);
}

size_t PnwStore::LabelOf(std::span<const uint8_t> value) {
  return model_ != nullptr ? model_->Predict(value, predict_scratch_) : 0;
}

std::span<const size_t> PnwStore::RankOf(std::span<const uint8_t> value,
                                         bool labeled) {
  if (model_ == nullptr) {
    predict_scratch_.ranked.assign(1, 0);
    return predict_scratch_.ranked;
  }
  return labeled ? model_->RankPredicted(predict_scratch_)
                 : model_->RankClusters(value, predict_scratch_);
}

void PnwStore::Recycle(size_t bucket) {
  const LabelStamp stamp = stamps_[bucket];
  if (stamp.epoch != model_epoch_) {
    pool_.Insert(LabelOf(PeekBucketValue(bucket)), BucketAddr(bucket));
    return;
  }
  // The pool pops a cluster's newest address first, so the next PUT of
  // this cluster diffs every line of this bucket. A predict would have read
  // them; without one, prefetch them so that PUT does not miss on each.
  // Into L2 only: that PUT comes rounds later, when L1 has turned over,
  // and meanwhile the lines would displace L1's working set.
  const uint8_t* lines =
      device_->Peek(BucketAddr(bucket), bucket_bytes_).data();
  for (size_t off = 0; off < bucket_bytes_; off += kCpuLineBytes) {
    __builtin_prefetch(lines + off, /*rw=*/0, /*locality=*/2);
  }
  pool_.Insert(stamp.label, BucketAddr(bucket));
}

void PnwStore::Stage(uint64_t key, std::span<const uint8_t> value) {
  // Every byte of the reused buffer is overwritten (key prefix + full
  // value), so no clearing is needed and the write path allocates nothing.
  if (key_bytes_ > 0) {
    std::memcpy(bucket_scratch_.data(), &key, key_bytes_);
  }
  std::memcpy(bucket_scratch_.data() + key_bytes_, value.data(),
              options_.value_bytes);
}

Status PnwStore::Place(uint64_t key, size_t bucket) {
  // Cleared before the write, so a failed Place's Unplace predicts from
  // whatever bytes landed.
  stamps_[bucket] = LabelStamp{};
  auto write =
      device_->WriteDifferential(BucketAddr(bucket), bucket_scratch_);
  if (!write.ok()) {
    return write.status();
  }
  PNW_RETURN_IF_ERROR(SetBucketFlag(bucket, true));
  // The index upsert points the key at its new home; a reader that
  // raced in before this line still found the old copy (or nothing).
  return index_->Put(key, BucketAddr(bucket));
}

void PnwStore::Unplace(size_t bucket) {
  // The acquired address must not leak: clear any occupancy flag Place set
  // (a no-op differential write if it never got that far) and file the
  // bucket under whatever bits are now resident (the payload write may or
  // may not have landed before the failure).
  // status-dropped: best-effort rollback inside an already-failing op; the
  // caller sees the original failure, not the cleanup's.
  (void)SetBucketFlag(bucket, false);
  Recycle(bucket);
  ++metrics_.failed_ops;
}

Status PnwStore::Bootstrap(std::span<const uint64_t> keys,
                           std::span<const std::vector<uint8_t>> values) {
  if (bootstrapped_) {
    return Status::FailedPrecondition("store already bootstrapped");
  }
  if (keys.size() != values.size()) {
    return Status::InvalidArgument("keys/values size mismatch");
  }
  if (values.size() > active_buckets_) {
    return Status::InvalidArgument("more warm-up items than buckets");
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].size() != options_.value_bytes) {
      return Status::InvalidArgument("warm-up value size mismatch");
    }
    Stage(keys[i], values[i]);
    auto write = device_->WriteConventional(BucketAddr(i), bucket_scratch_);
    if (!write.ok()) {
      return write.status();
    }
    PNW_RETURN_IF_ERROR(SetBucketFlag(i, true));
    PNW_RETURN_IF_ERROR(index_->Put(keys[i], BucketAddr(i)));
  }
  used_buckets_ = values.size();
  bootstrapped_ = true;
  if (!options_.train_on_bootstrap) {
    // Model-less operation: rebuild the pool from the occupancy bitmap with
    // every free address in cluster 0 (pure DCW placement) until
    // TrainModel() installs a model.
    AdoptModel(nullptr);
    return Status::OK();
  }
  // Algorithm 1: train on the data zone and build the dynamic address pool.
  return Retrain();
}

std::vector<std::vector<uint8_t>> PnwStore::CollectTrainingSamples() const {
  // Uniform stride over *all* active buckets: free slots still hold stale
  // data, which is exactly what the model must cluster (the pool places new
  // writes on top of that stale content).
  const size_t cap = std::max<size_t>(1, options_.training_sample_cap);
  const size_t stride = std::max<size_t>(1, active_buckets_ / cap);
  std::vector<std::vector<uint8_t>> samples;
  samples.reserve(std::min(cap, active_buckets_));
  for (size_t b = 0; b < active_buckets_; b += stride) {
    const auto value = PeekBucketValue(b);
    samples.emplace_back(value.begin(), value.end());
  }
  return samples;
}

void PnwStore::InstallModel(std::shared_ptr<const ValueModel> model) {
  model_ = std::move(model);
  // Epoch 0 marks an unknown stamp: when the counter wraps, every stamp is
  // forgotten first, so none can come current again.
  if (++model_epoch_ == 0) {
    std::fill(stamps_.begin(), stamps_.end(), LabelStamp{});
    model_epoch_ = 1;
  }
}

void PnwStore::AdoptModel(std::shared_ptr<const ValueModel> model) {
  InstallModel(std::move(model));
  // Algorithm 1 lines 4-5: rebuild the pool from the *available* addresses
  // (the occupancy bitmap is authoritative), labeling each by the stale
  // content resident at it.
  pool_.Clear();
  for (size_t b = 0; b < active_buckets_; ++b) {
    if (!GetBucketFlag(b)) {
      Recycle(b);
    }
  }
}

Status PnwStore::TrainModel() {
  PNW_RETURN_IF_ERROR(Retrain());
  return LogOp(persist::OpType::kTrain, 0, {});
}

Status PnwStore::Retrain() {
  auto model = TrainValueModel(options_, CollectTrainingSamples());
  if (!model.ok()) {
    return model.status();
  }
  AdoptModel(std::move(model.value()));
  ++metrics_.retrains;
  puts_since_retrain_ = 0;
  return Status::OK();
}

Status PnwStore::MaybeExtendAndRetrain() {
  if (UsedFraction() < options_.load_factor || !options_.auto_retrain) {
    return Status::OK();
  }
  // Extend the data zone: activate up to initial_buckets more addresses.
  const size_t grow = std::min(options_.initial_buckets,
                               options_.capacity_buckets - active_buckets_);
  if (grow > 0) {
    const size_t first_new = active_buckets_;
    active_buckets_ += grow;
    for (size_t b = first_new; b < active_buckets_; ++b) {
      Recycle(b);
    }
    ++metrics_.extensions;
  }
  // Retrain over the (possibly extended) data zone -- but not on every
  // operation while the store hovers at the threshold (steady-state
  // delete+put traffic keeps occupancy pinned there).
  const size_t min_interval = std::max<size_t>(256, active_buckets_ / 4);
  if (grow == 0 && puts_since_retrain_ < min_interval) {
    return Status::OK();
  }
  return Retrain();
}

Status PnwStore::PutInternal(uint64_t key, std::span<const uint8_t> value) {
  // Attribution and predict timing are decided here -- the retry path below
  // may install a model mid-operation, but this placement was steered by
  // the model (or lack of one) present at prediction time. Only a model's
  // predictions count toward predict_wall_ns.
  const bool placed_by_model = model_ != nullptr;
  double* predict_ns = placed_by_model ? &metrics_.predict_wall_ns : nullptr;
  // The stamp carries the epoch the label is predicted under: the retry
  // below may install a model before the write, and the stamp must then be
  // stale.
  const uint32_t epoch = model_epoch_;
  // Fast path: one predict (Algorithm 2 line 1) and a pop from that
  // cluster's free-list. Only when the predicted cluster is empty do we pay
  // for the full nearest-centroid ranking.
  size_t label = 0;
  {
    WallTimer timer(predict_ns);
    label = LabelOf(value);
  }
  auto addr = pool_.Acquire(label);
  if (!addr.has_value()) {
    std::span<const size_t> ranked;
    {
      WallTimer timer(predict_ns);
      ranked = RankOf(value, /*labeled=*/true);
    }
    bool fallback = false;
    addr = pool_.AcquireRanked(ranked, &fallback);
    if (addr.has_value()) {
      ++metrics_.pool_fallbacks;
    } else {
      // Try to make room, then retry once.
      PNW_RETURN_IF_ERROR(MaybeExtendAndRetrain());
      addr = pool_.AcquireRanked(ranked, &fallback);
      if (!addr.has_value()) {
        ++metrics_.failed_ops;
        return Status::OutOfSpace("data zone full");
      }
      if (fallback) {
        ++metrics_.pool_fallbacks;
      }
    }
  }

  Stage(key, value);
  const size_t bucket = *addr / bucket_bytes_;
  Status s;
  {
    DeviceDeltaScope scope(device_.get(), &metrics_.put_device_ns,
                           &metrics_.put_bits_written,
                           &metrics_.put_lines_written,
                           &metrics_.put_words_written);
    s = Place(key, bucket);
  }
  if (!s.ok()) {
    Unplace(bucket);
    return s;
  }
  stamps_[bucket] = LabelStamp{epoch, static_cast<uint32_t>(label)};
  // Attribute only successful placements (counted alongside `puts` so the
  // predicted/fallback split always sums to the placed PUTs): a trained
  // model steered this PUT, or the store was serving model-less and the
  // address came from the DCW-style cluster 0.
  if (placed_by_model) {
    ++metrics_.predicted_placements;
  } else {
    ++metrics_.fallback_placements;
  }
  metrics_.put_payload_bits += value.size() * 8;
  ++used_buckets_;
  ++metrics_.puts;
  ++puts_since_retrain_;
  wear_->RecordBucketWrite(BucketAddr(bucket));
  return MaybeExtendAndRetrain();
}

Status PnwStore::Put(uint64_t key, std::span<const uint8_t> value) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap the store before Put");
  }
  if (value.size() != options_.value_bytes) {
    return Status::InvalidArgument("value size mismatch");
  }
  if (index_->Get(key).ok()) {
    return Update(key, value);
  }
  Status s = PutInternal(key, value);
  if (s.ok()) {
    PNW_RETURN_IF_ERROR(LogOp(persist::OpType::kPut, key, value));
  }
  return s;
}

std::vector<Status> PnwStore::MultiPut(
    std::span<const uint64_t> keys,
    std::span<const std::span<const uint8_t>> values) {
  if (keys.size() != values.size()) {
    return std::vector<Status>(
        std::max(keys.size(), values.size()),
        Status::InvalidArgument("keys/values size mismatch"));
  }
  std::vector<Status> out(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    batch_slot_ = i;
    out[i] = Put(keys[i], values[i]);
  }
  batch_slot_ = SIZE_MAX;
  // One group append for every operation the batch applied: one buffer
  // build, one flush, at most one (deferred, group-paced) fsync.
  FlushBatchLog(out);
  pending_log_.clear();
  pending_log_slots_.clear();
  return out;
}

std::vector<Status> PnwStore::MultiPut(
    std::span<const uint64_t> keys,
    std::span<const std::vector<uint8_t>> values) {
  std::vector<std::span<const uint8_t>> spans(values.begin(), values.end());
  return MultiPut(keys, spans);
}

Result<size_t> PnwStore::IndexedBucket(uint64_t addr) const {
  const size_t bucket = addr / bucket_bytes_;
  if (bucket >= options_.capacity_buckets) {
    return Status::Internal("index points outside the data zone");
  }
  return bucket;
}

template <auto Copy>
PnwStore::BucketRead PnwStore::ReadBucket(uint64_t key) const {
  auto addr = index_->Get(key);
  if (!addr.ok()) {
    return {addr.status()};
  }
  auto bucket = IndexedBucket(addr.value());
  if (!bucket.ok()) {
    return {bucket.status()};
  }
  const uint64_t bucket_addr = BucketAddr(bucket.value());
  // Without keys in the data zone nothing is copied into stored_key, so
  // it keeps `key` and the check below passes.
  const uint8_t* resident = device_->Peek(bucket_addr, bucket_bytes_).data();
  uint64_t stored_key = key;
  Copy(reinterpret_cast<uint8_t*>(&stored_key), resident, key_bytes_);
  const uint8_t* value_bytes = resident + key_bytes_;
  std::vector<uint8_t> value;
  // The locked copy (std::memcpy, the one that returns a pointer) may read
  // the bytes in place, so the value is built from them, not zero-filled
  // first; the atomic byte loads fill a sized vector.
  if constexpr (std::is_void_v<decltype(Copy(std::declval<uint8_t*>(),
                                             value_bytes, size_t{0}))>) {
    value.resize(options_.value_bytes);
    Copy(value.data(), value_bytes, value.size());
  } else {
    value.assign(value_bytes, value_bytes + options_.value_bytes);
  }
  // A key-mismatch miss has already paid for its bucket read.
  const double device_ns = device_->ReadCostNs(bucket_addr, bucket_bytes_);
  if (stored_key != key) {
    return {Status::Internal("index/data-zone key mismatch"), device_ns};
  }
  return {std::move(value), device_ns};
}

Result<std::vector<uint8_t>> PnwStore::ChargeRead(
    BucketRead read, RelaxedCounter<uint64_t>& hits) {
  metrics_.get_device_ns += read.device_ns;
  if (read.value.ok()) {
    ++metrics_.gets;
    ++hits;
  } else {
    ++metrics_.get_misses;
  }
  return std::move(read.value);
}

Result<std::vector<uint8_t>> PnwStore::Get(uint64_t key) {
  return ChargeRead(ReadBucket<std::memcpy>(key), metrics_.locked_gets);
}

std::optional<Result<std::vector<uint8_t>>> PnwStore::TryGetOptimistic(
    uint64_t key) {
  // NVM path hashing reads its cells with plain loads, so only the DRAM
  // index is safe to search without the lock.
  if (options_.index_placement != IndexPlacement::kDram) {
    return std::nullopt;
  }
  constexpr int kAttempts = 3;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    // An odd sequence means a writer is inside the critical section: the
    // attempt could never validate, so it is a conflict without a read.
    const uint64_t seq = mu_.OptimisticSeq();
    if ((seq & 1) == 0) {
      // Relaxed-atomic byte loads make a racing write to the bucket
      // defined behavior; a torn copy fails the validation below, and only
      // a validated read is charged.
      BucketRead read = ReadBucket<util::AtomicLoadBytes>(key);
      if (mu_.ValidateSeq(seq)) {
        return ChargeRead(std::move(read), metrics_.optimistic_gets);
      }
    }
    ++metrics_.optimistic_retries;
  }
  return std::nullopt;  // conflict budget exhausted -> locked fallback
}

Status PnwStore::DeleteInternal(uint64_t key) {
  auto addr = index_->Get(key);
  if (!addr.ok()) {
    return addr.status();
  }
  auto indexed = IndexedBucket(addr.value());
  if (!indexed.ok()) {
    return indexed.status();
  }
  const size_t bucket = indexed.value();
  {
    DeviceDeltaScope scope(device_.get(), &metrics_.delete_device_ns);
    PNW_RETURN_IF_ERROR(index_->Delete(key));
    if (Status s = SetBucketFlag(bucket, false); !s.ok()) {
      // The bucket still holds the key and its flag, so the index goes back
      // to it, as a failed migration's rollback does.
      // status-dropped: best-effort rollback inside an already-failing op;
      // the caller sees the original failure, not the cleanup's.
      (void)index_->Put(key, addr.value());
      return s;
    }
    // Algorithm 3 line 3: E = model.predict(Read(A)). The NVM read is
    // charged as the paper models it, but nothing is copied: under the
    // model that served the PUT, E is the label the PUT stamped, and
    // Recycle predicts from the resident bytes only when that stamp is
    // stale.
    PNW_RETURN_IF_ERROR(
        device_->ChargeRead(BucketAddr(bucket), bucket_bytes_));
    Recycle(bucket);
  }
  --used_buckets_;
  ++metrics_.deletes;
  return Status::OK();
}

Status PnwStore::Delete(uint64_t key) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap the store before Delete");
  }
  PNW_RETURN_IF_ERROR(DeleteInternal(key));
  return LogOp(persist::OpType::kDelete, key, {});
}

Status PnwStore::Update(uint64_t key, std::span<const uint8_t> value) {
  if (value.size() != options_.value_bytes) {
    return Status::InvalidArgument("value size mismatch");
  }
  if (options_.update_mode == UpdateMode::kEnduranceFirst) {
    // DELETE + PUT through the model, the paper's endurance-first mode.
    // `puts` keeps counting every write placed via the model; `updates`
    // additionally records that it replaced an existing key.
    PNW_RETURN_IF_ERROR(DeleteInternal(key));
    Status s = PutInternal(key, value);
    if (!s.ok()) {
      // The DELETE half is applied: capture it, or recovery brings back the
      // value the live store no longer serves.
      PNW_RETURN_IF_ERROR(LogOp(persist::OpType::kDelete, key, {}));
      return s;
    }
    ++metrics_.updates;
    return LogOp(persist::OpType::kUpdate, key, value);
  }
  // Latency-first: in-place differential write through the index only. It
  // counts as a PUT (full value through the PUT accounting scopes) but not
  // as a placement -- the pool was never consulted -- so it lands in
  // metrics_.inplace_updates, keeping the attribution invariant
  // (predicted + fallback + inplace == puts) intact.
  auto addr = index_->Get(key);
  if (!addr.ok()) {
    return addr.status();
  }
  auto indexed = IndexedBucket(addr.value());
  if (!indexed.ok()) {
    return indexed.status();
  }
  const size_t bucket = indexed.value();
  Stage(key, value);
  // The write replaces the bytes the bucket's stamp was predicted from.
  stamps_[bucket] = LabelStamp{};
  {
    DeviceDeltaScope scope(device_.get(), &metrics_.put_device_ns,
                           &metrics_.put_bits_written,
                           &metrics_.put_lines_written,
                           &metrics_.put_words_written);
    auto write =
        device_->WriteDifferential(BucketAddr(bucket), bucket_scratch_);
    if (!write.ok()) {
      // Nothing to roll back: no address was acquired and the index still
      // points at the (unmodified or partially updated) resident bucket.
      ++metrics_.failed_ops;
      return write.status();
    }
  }
  metrics_.put_payload_bits += value.size() * 8;
  ++metrics_.puts;
  ++metrics_.inplace_updates;
  ++metrics_.updates;
  wear_->RecordBucketWrite(BucketAddr(bucket));
  return LogOp(persist::OpType::kUpdate, key, value);
}

Result<bool> PnwStore::MigrateBucket(size_t bucket) {
  if (key_bytes_ == 0) {
    return KeylessMigration();
  }
  if (bucket >= active_buckets_ || !GetBucketFlag(bucket)) {
    return Status::InvalidArgument(
        "migration source is not a resident bucket");
  }
  // Decision phase: Peek-only (no device counters, no accounted reads).
  // A migration that is skipped below leaves literally zero trace, which
  // is what lets replay -- which only sees the *logged* migrations --
  // reproduce device counters and wear histograms bit-for-bit.
  const std::span<const uint8_t> resident =
      device_->Peek(BucketAddr(bucket), bucket_bytes_);
  uint64_t key = 0;
  std::memcpy(&key, resident.data(), key_bytes_);
  // Untimed ranking: migration is background work, so its prediction cost
  // stays out of the client-facing predict_wall_ns.
  const auto ranked = RankOf(resident.subspan(key_bytes_));
  const auto counts = wear_->bucket_write_counts();
  bool used_fallback = false;
  const auto dst = pool_.AcquireRankedMinWear(
      ranked, [&](uint64_t addr) { return counts[addr / bucket_bytes_]; },
      counts[bucket], &used_fallback);
  if (!dst.has_value()) {
    // No strictly colder free address anywhere: not worth moving. The
    // pool was left untouched, so this non-event is invisible to replay.
    return false;
  }
  const size_t dst_bucket = *dst / bucket_bytes_;
  Status s;
  {
    DeviceDeltaScope scope(device_.get(), &metrics_.wear_device_ns);
    s = device_->Read(BucketAddr(bucket), bucket_scratch_);
    if (s.ok()) {
      s = Place(key, dst_bucket);
    }
    if (s.ok()) {
      s = SetBucketFlag(bucket, false);
    }
  }
  if (!s.ok()) {
    // Place may already have pointed the index at the destination, which
    // Unplace returns to the pool; the source still holds the key, so the
    // index goes back to it first.
    // status-dropped: best-effort rollback inside an already-failing op;
    // the caller sees the original failure, not the cleanup's.
    (void)index_->Put(key, BucketAddr(bucket));
    Unplace(dst_bucket);
    return s;
  }
  // The destination now holds the source's bytes, so it takes the source's
  // stamp. Free the source under the label of its (still resident, now
  // stale) content -- exactly how DELETE returns addresses, so the pool
  // keeps placing future writes onto similar bits.
  stamps_[dst_bucket] = stamps_[bucket];
  Recycle(bucket);
  ++metrics_.migrations;
  wear_->RecordBucketWrite(BucketAddr(dst_bucket));
  return true;
}

Result<size_t> PnwStore::MigrateHotBuckets(size_t max_buckets) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap the store before migration");
  }
  if (key_bytes_ == 0) {
    return KeylessMigration();
  }
  if (max_buckets == 0) {
    return size_t{0};
  }
  const auto counts = wear_->bucket_write_counts();
  uint64_t total = 0;
  for (size_t b = 0; b < active_buckets_; ++b) {
    total += counts[b];
  }
  const double mean =
      active_buckets_ > 0
          ? static_cast<double>(total) / static_cast<double>(active_buckets_)
          : 0.0;
  const uint64_t threshold = std::max<uint64_t>(
      options_.migration_min_writes,
      static_cast<uint64_t>(options_.migration_hot_multiplier * mean));
  std::vector<size_t> victims;
  for (size_t b = 0; b < active_buckets_; ++b) {
    if (counts[b] >= threshold && GetBucketFlag(b)) {
      victims.push_back(b);
    }
  }
  // Hottest first; bucket index breaks ties so a replayed pass visits
  // victims in the identical order.
  std::sort(victims.begin(), victims.end(), [&](size_t a, size_t b) {
    return counts[a] != counts[b] ? counts[a] > counts[b] : a < b;
  });
  if (victims.size() > max_buckets) {
    victims.resize(max_buckets);
  }
  size_t migrated = 0;
  for (const size_t b : victims) {
    auto moved = MigrateBucket(b);
    if (!moved.ok()) {
      return moved.status();
    }
    if (!moved.value()) {
      // Nothing in the pool is colder than this victim -- and every later
      // victim demands an even colder destination, so stop the pass.
      break;
    }
    ++migrated;
    PNW_RETURN_IF_ERROR(LogOp(persist::OpType::kMigrate, b, {}));
  }
  return migrated;
}

Result<persist::PendingFile> PnwStore::CaptureCheckpoint(
    const std::string& path, uint64_t epoch) {
  persist::SnapshotWriter snap(kSnapshotVersion);
  {
    auto& w = snap.AddSection(kSectionOptions);
    persist::EncodePnwOptions(options_, w);
  }
  {
    auto& w = snap.AddSection(kSectionState);
    w.PutBool(bootstrapped_);
    w.PutU64(active_buckets_);
    w.PutU64(used_buckets_);
    w.PutU64(puts_since_retrain_);
    w.PutU64(epoch);
    persist::EncodeStoreMetrics(metrics_, w);
  }
  {
    auto& w = snap.AddSection(kSectionDevice);
    w.PutSizedBytes(device_->Contents());
    persist::EncodeNvmCounters(device_->counters(), w);
    w.PutU16Vec(device_->bit_write_counts());
  }
  {
    auto& w = snap.AddSection(kSectionWear);
    w.PutU32Vec(wear_->bucket_write_counts());
  }
  if (!options_.occupancy_flags_on_nvm) {
    auto& w = snap.AddSection(kSectionDramFlags);
    w.PutSizedBytes(dram_flags_);
  }
  {
    auto& w = snap.AddSection(kSectionIndex);
    w.PutU8(static_cast<uint8_t>(options_.index_placement));
    if (options_.index_placement == IndexPlacement::kDram) {
      const auto entries =
          static_cast<const index::DramHashIndex*>(index_.get())
              ->LiveEntries();
      w.PutU64(entries.size());
      for (const auto& [key, addr] : entries) {
        w.PutU64(key);
        w.PutU64(addr);
      }
    }
    // kNvmPathHash: the cells live in the device contents already; only
    // the live-entry count is DRAM state, and recovery recounts it.
  }
  {
    auto& w = snap.AddSection(kSectionModel);
    persist::EncodeValueModel(model_.get(), w);
  }
  {
    auto& w = snap.AddSection(kSectionPool);
    w.PutU64(pool_.num_clusters());
    for (size_t c = 0; c < pool_.num_clusters(); ++c) {
      w.PutU64Vec(pool_.FreeList(c));
    }
  }
  // The only write the lock must cover: the temp file gets the bytes of
  // the quiesced store, borrowed arrays included. Its fsync and rename
  // are the caller's Commit().
  auto pending = snap.WriteTemp(path);
  if (!pending.ok()) {
    return pending.status();
  }
  carry_log_path_.clear();
  carry_log_mark_ = 0;
  log_switched_in_capture_ = false;
  if (op_log_ == nullptr) {
    // No previous log exists to carry racing operations from (first
    // checkpoint ever, or a store whose log was detached after an append
    // failure) -- and in either case no committed checkpoint+log pair is
    // being protected. Switch to the new generation's log right here,
    // while the caller still holds the operation lock, so operations
    // between capture and finish are captured instead of falling into a
    // gap.
    PNW_RETURN_IF_ERROR(AttachOpLog(path + kOpLogSuffix, epoch));
    log_switched_in_capture_ = true;
    return pending;
  }
  // Remember where the still-attached previous log stands right now:
  // anything appended past this mark happened after the snapshot and
  // must be carried into the next generation's log by FinishCheckpoint.
  std::error_code ec;
  const auto size = std::filesystem::file_size(op_log_->path(), ec);
  if (ec) {
    return Status::Internal("cannot stat op-log " + op_log_->path() + ": " +
                            ec.message());
  }
  carry_log_path_ = op_log_->path();
  carry_log_mark_ = size;
  return pending;
}

void PnwStore::AbortCheckpoint() {
  carry_log_path_.clear();
  carry_log_mark_ = 0;
  if (log_switched_in_capture_) {
    // The log the capture attached extends a snapshot that never landed,
    // so no recovery can read it: detach it, leaving the store without a
    // log as it was before the capture.
    persist::OpLogWriter::CloseSuperseded(std::exchange(op_log_, nullptr));
    log_switched_in_capture_ = false;
  }
}

Status PnwStore::FinishCheckpoint(const std::string& path, uint64_t epoch) {
  if (log_switched_in_capture_) {
    // CaptureCheckpoint already put the new generation's log in place.
    log_switched_in_capture_ = false;
    return Status::OK();
  }
  // The new snapshot is durable, so the previous log is superseded: no
  // recovery reads it again, and it closes without an fsync. Every record
  // was handed to the OS on append, so the tail read below sees them all.
  persist::OpLogWriter::CloseSuperseded(std::exchange(op_log_, nullptr));
  // Collect the records that raced the snapshot (appended to the old log
  // after the capture's mark). Only the old log's header and the bytes
  // past the mark are read.
  std::vector<persist::OpRecord> carried;
  if (!carry_log_path_.empty()) {
    auto tail = persist::ReadOpLog(carry_log_path_, carry_log_mark_);
    carry_log_path_.clear();
    carry_log_mark_ = 0;
    if (!tail.ok()) {
      return tail.status();
    }
    carried = std::move(tail.value().records);
  }
  // Create the new generation's log and carry the tail in one group
  // append (one flush, at most one group fsync). On failure the log stays
  // detached: the new snapshot is already committed, so the superseded
  // log no longer extends it. The caller sees the error and knows
  // durability is degraded until the next successful checkpoint.
  Status s = AttachOpLog(path + kOpLogSuffix, epoch);
  if (s.ok()) {
    std::vector<persist::OpLogEntry> entries;
    entries.reserve(carried.size());
    for (const persist::OpRecord& rec : carried) {
      entries.push_back(persist::OpLogEntry{rec.op, rec.key, rec.value});
    }
    s = op_log_->AppendBatch(entries);
  }
  if (!s.ok()) {
    op_log_.reset();
  }
  return s;
}

Result<std::unique_ptr<PnwStore>> PnwStore::Open(
    const std::string& path, const persist::RecoveryOptions& recovery) {
  if (recovery.attach_op_log && !recovery.replay_op_log) {
    // Records appended behind ones the served state never saw could not
    // replay onto it later.
    return Status::InvalidArgument("attach_op_log requires replay_op_log");
  }
  auto parsed = persist::SnapshotReader::FromFile(path, kSnapshotVersion);
  if (!parsed.ok()) {
    return parsed.status();
  }
  const persist::SnapshotReader& snap = parsed.value();
  auto options_section = snap.Section(kSectionOptions);
  if (!options_section.ok()) {
    return Status::Corruption("snapshot has no options section");
  }
  PnwOptions options;
  PNW_RETURN_IF_ERROR(
      persist::DecodePnwOptions(options_section.value(), &options));
  auto opened = Open(options);
  if (!opened.ok()) {
    return opened.status();
  }
  std::unique_ptr<PnwStore> store = std::move(opened.value());
  // The store is private to this call; the writer guard makes the replay
  // path's exclusive contracts (RestoreFrom, Put, MigrateBucket, ...)
  // dischargeable, exactly as a live mutator would hold them.
  PnwStore& s = *store;
  util::WriterLock lock(s.mu());
  uint64_t epoch = 0;
  PNW_RETURN_IF_ERROR(s.RestoreFrom(snap, &epoch));

  const std::string log_path = path + kOpLogSuffix;
  s.op_log_sync_every_ = recovery.op_log_sync_every;
  if (recovery.replay_op_log) {
    auto log = persist::ReadOpLog(log_path);
    if (!log.ok()) {
      return log.status();
    }
    // A generation's log is created with its snapshot's epoch and no path
    // is ever reused, so a log carrying another epoch was never written
    // behind this snapshot.
    if (log.value().has_header && log.value().epoch != epoch) {
      return Status::Corruption("op-log epoch differs from its snapshot's: " +
                                log_path);
    }
    if (log.value().tail_truncated) {
      PNW_RETURN_IF_ERROR(
          persist::TruncateOpLog(log_path, log.value().valid_bytes));
    }
    s.replaying_ = true;
    for (const auto& rec : log.value().records) {
      Status status;
      switch (rec.op) {
        case persist::OpType::kPut:
        case persist::OpType::kUpdate:
          status = s.Put(rec.key, rec.value);
          break;
        case persist::OpType::kDelete:
          status = s.Delete(rec.key);
          break;
        case persist::OpType::kMigrate: {
          // Re-run the relocation the live store performed. The restored
          // pool, model, and wear histogram are bit-identical, so the
          // decision resolves to the same destination; a skip here means
          // the log and snapshot disagree.
          auto moved = s.MigrateBucket(static_cast<size_t>(rec.key));
          status = !moved.ok()      ? moved.status()
                   : moved.value() ? Status::OK()
                                   : Status::Corruption(
                                         "logged migration did not replay");
          break;
        }
        case persist::OpType::kTrain:
          status = s.TrainModel();
          break;
      }
      if (!status.ok()) {
        s.replaying_ = false;
        return Status::Corruption("op-log replay failed: " +
                                  status.ToString());
      }
    }
    s.replaying_ = false;
  }
  if (recovery.attach_op_log) {
    // Append behind the replayed records, or stamp a new log if a crash
    // before the log switch left the generation without one.
    PNW_RETURN_IF_ERROR(s.AttachOpLog(log_path, epoch));
  }
  return store;
}

Status PnwStore::RestoreFrom(const persist::SnapshotReader& snap,
                             uint64_t* epoch) {
  {
    auto section = snap.Section(kSectionState);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no state section");
    }
    persist::BufferReader& r = section.value();
    uint64_t active = 0;
    uint64_t used = 0;
    uint64_t since_retrain = 0;
    PNW_RETURN_IF_ERROR(r.GetBool(&bootstrapped_));
    PNW_RETURN_IF_ERROR(r.GetU64(&active));
    PNW_RETURN_IF_ERROR(r.GetU64(&used));
    PNW_RETURN_IF_ERROR(r.GetU64(&since_retrain));
    PNW_RETURN_IF_ERROR(r.GetU64(epoch));
    PNW_RETURN_IF_ERROR(persist::DecodeStoreMetrics(r, &metrics_));
    if (active > options_.capacity_buckets || used > active) {
      return Status::Corruption("snapshot bucket accounting out of range");
    }
    active_buckets_ = active;
    used_buckets_ = used;
    puts_since_retrain_ = since_retrain;
  }
  // Every address the snapshot hands the index or the pool must name an
  // active bucket.
  const auto in_zone = [bucket_bytes = bucket_bytes_,
                        active = active_buckets_](uint64_t addr) {
    return addr % bucket_bytes == 0 && addr / bucket_bytes < active;
  };
  {
    auto section = snap.Section(kSectionDevice);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no device section");
    }
    persist::BufferReader& r = section.value();
    std::vector<uint8_t> contents;
    nvm::NvmCounters counters;
    std::vector<uint16_t> bit_counts;
    PNW_RETURN_IF_ERROR(r.GetSizedBytes(&contents));
    PNW_RETURN_IF_ERROR(persist::DecodeNvmCounters(r, &counters));
    PNW_RETURN_IF_ERROR(r.GetU16Vec(&bit_counts));
    PNW_RETURN_IF_ERROR(
        device_->RestoreState(contents, counters, bit_counts));
  }
  {
    auto section = snap.Section(kSectionWear);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no wear section");
    }
    persist::BufferReader& r = section.value();
    std::vector<uint32_t> counts;
    PNW_RETURN_IF_ERROR(r.GetU32Vec(&counts));
    PNW_RETURN_IF_ERROR(wear_->RestoreCounts(counts));
  }
  if (!options_.occupancy_flags_on_nvm) {
    auto section = snap.Section(kSectionDramFlags);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no DRAM-flags section");
    }
    std::vector<uint8_t> flags;
    PNW_RETURN_IF_ERROR(section.value().GetSizedBytes(&flags));
    if (flags.size() != dram_flags_.size()) {
      return Status::Corruption("snapshot DRAM flag bitmap size mismatch");
    }
    dram_flags_ = std::move(flags);
  }
  {
    auto section = snap.Section(kSectionIndex);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no index section");
    }
    persist::BufferReader& r = section.value();
    uint8_t placement = 0;
    PNW_RETURN_IF_ERROR(r.GetU8(&placement));
    if (placement != static_cast<uint8_t>(options_.index_placement)) {
      return Status::Corruption(
          "snapshot index placement does not match its own options");
    }
    if (options_.index_placement == IndexPlacement::kDram) {
      uint64_t n = 0;
      PNW_RETURN_IF_ERROR(r.GetU64(&n));
      if (n > r.remaining() / 16) {
        return Status::Corruption("snapshot index entry count exceeds data");
      }
      for (uint64_t i = 0; i < n; ++i) {
        uint64_t key = 0;
        uint64_t addr = 0;
        PNW_RETURN_IF_ERROR(r.GetU64(&key));
        PNW_RETURN_IF_ERROR(r.GetU64(&addr));
        if (!in_zone(addr)) {
          return Status::Corruption("snapshot index address out of range");
        }
        PNW_RETURN_IF_ERROR(index_->Put(key, addr));
      }
    } else {
      // Cells were restored with the device contents; recount the
      // DRAM-side size() counter from them.
      static_cast<index::PathHashIndex*>(index_.get())->RebuildLiveCount();
    }
  }
  {
    auto section = snap.Section(kSectionModel);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no model section");
    }
    auto model = persist::DecodeValueModel(section.value());
    if (!model.ok()) {
      return model.status();
    }
    // Install without AdoptModel: the pool section below restores the
    // exact checkpointed free-lists, labels and pop order included.
    InstallModel(std::move(model.value()));
    if (model_ != nullptr && model_->k() > pool_.num_clusters()) {
      return Status::Corruption(
          "snapshot model has more clusters than the address pool");
    }
  }
  {
    auto section = snap.Section(kSectionPool);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no pool section");
    }
    persist::BufferReader& r = section.value();
    uint64_t clusters = 0;
    PNW_RETURN_IF_ERROR(r.GetU64(&clusters));
    if (clusters != pool_.num_clusters()) {
      return Status::Corruption(
          "snapshot pool cluster count does not match its own options");
    }
    pool_.Clear();
    for (uint64_t c = 0; c < clusters; ++c) {
      std::vector<uint64_t> addrs;
      PNW_RETURN_IF_ERROR(r.GetU64Vec(&addrs));
      for (uint64_t addr : addrs) {
        if (!in_zone(addr)) {
          return Status::Corruption("snapshot pool address out of range");
        }
        pool_.Insert(c, addr);
      }
    }
  }
  return Status::OK();
}

Status PnwStore::AttachOpLog(const std::string& path, uint64_t epoch) {
  auto log = persist::OpLogWriter::Open(path, op_log_sync_every_, epoch);
  if (!log.ok()) {
    return log.status();
  }
  op_log_ = std::move(log.value());
  return Status::OK();
}

Status PnwStore::LogOp(persist::OpType op, uint64_t key,
                       std::span<const uint8_t> value) {
  if (op_log_ == nullptr || replaying_) {
    return Status::OK();
  }
  if (batch_slot_ != SIZE_MAX) {
    // Open MultiPut batch: defer. The value span borrows the caller's
    // batch storage, which outlives the batch; FlushBatchLog turns the
    // whole set into one group append.
    pending_log_.push_back(persist::OpLogEntry{op, key, value});
    pending_log_slots_.push_back(batch_slot_);
    return Status::OK();
  }
  Status s;
  {
    WallTimer timer(&metrics_.log_wall_ns);
    s = op_log_->Append(op, key, value);
  }
  if (!s.ok()) {
    // The log no longer matches the store; detach it rather than keep
    // writing records recovery would replay out of order.
    op_log_.reset();
    return Status::Internal(
        "operation applied but its op-log append failed: " + s.ToString());
  }
  return Status::OK();
}

void PnwStore::FlushBatchLog(std::span<Status> statuses) {
  if (op_log_ == nullptr || pending_log_.empty()) {
    return;
  }
  Status s;
  {
    WallTimer timer(&metrics_.log_wall_ns);
    s = op_log_->AppendBatch(pending_log_);
  }
  if (!s.ok()) {
    // Same contract as the single-op path, per slot: the operations are
    // applied but no longer captured, so each logged slot surfaces
    // Internal and the log is detached.
    op_log_.reset();
    for (const size_t slot : pending_log_slots_) {
      statuses[slot] = Status::Internal(
          "operation applied but its op-log append failed: " + s.ToString());
    }
  }
}

void PnwStore::ResetWearAndMetrics() {
  device_->ResetCounters();
  metrics_ = StoreMetrics{};
  // Retrain pacing restarts with the new epoch; without this a post-warm-up
  // bench inherits the warm-up's PUT count and retrains early (or late).
  puts_since_retrain_ = 0;
  wear_ = std::make_unique<nvm::WearTracker>(device_.get(), bucket_bytes_);
}

void PnwStore::RefreshArenaStats() {
  util::ArenaStats total = device_->arena_stats();
  const auto fold = [&total](const util::ArenaStats& s) {
    total.slabs += s.slabs;
    total.slab_bytes += s.slab_bytes;
    total.live_bytes += s.live_bytes;
    total.high_water_bytes += s.high_water_bytes;
    total.allocations += s.allocations;
    total.freelist_hits += s.freelist_hits;
  };
  if (options_.index_placement == IndexPlacement::kDram) {
    fold(static_cast<const index::DramHashIndex*>(index_.get())
             ->arena_stats());
  }
  fold(staging_arena_.Stats());
  metrics_.arena_slabs = total.slabs;
  metrics_.arena_slab_bytes = total.slab_bytes;
  metrics_.arena_live_bytes = total.live_bytes;
  metrics_.arena_high_water_bytes = total.high_water_bytes;
}

}  // namespace pnw::core
