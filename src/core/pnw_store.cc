#include "src/core/pnw_store.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <utility>

#include "src/index/dram_hash_index.h"
#include "src/index/path_hash_index.h"
#include "src/util/atomic_bytes.h"
#include "src/persist/snapshot.h"
#include "src/persist/store_codec.h"

namespace pnw::core {

namespace {

constexpr size_t kStoredKeyBytes = 8;

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
  /// Start-Gap translation registers; present iff the store was opened
  /// with start_gap_wear_leveling (v4).
  kSectionRemap = 9,
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
  // With Start-Gap wear leveling the data zone holds one spare bucket slot
  // (the initial gap); the flag bitmap and NVM index regions sit above it
  // and are never remapped -- only bucket-granular data-zone accesses
  // translate.
  const size_t data_bytes =
      options_.start_gap_wear_leveling
          ? nvm::StartGapRemapper::StorageBytes(options_.capacity_buckets,
                                                bucket_bytes_)
          : options_.capacity_buckets * bucket_bytes_;
  const size_t flag_bytes = (options_.capacity_buckets + 7) / 8;
  flags_base_ = data_bytes;
  index_base_ = data_bytes + flag_bytes;
  if (!options_.occupancy_flags_on_nvm) {
    dram_flags_.assign(flag_bytes, 0);
  }

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
  if (options_.start_gap_wear_leveling) {
    remapper_ = std::make_unique<nvm::StartGapRemapper>(
        device_.get(), /*base=*/0, options_.capacity_buckets, bucket_bytes_,
        options_.gap_write_interval);
  }

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

  ModelTrainingConfig training;
  training.value_bytes = options_.value_bytes;
  training.num_clusters = options_.num_clusters;
  training.max_features = options_.max_features;
  training.pca_components = options_.pca_components;
  training.max_iterations = options_.max_training_iterations;
  training.train_threads = options_.train_threads;
  training.encode_byte_stride = options_.encode_byte_stride;
  training.seed = options_.seed;
  manager_ = std::make_unique<ModelManager>(training);

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
  return device_->Peek(PhysBucketAddr(bucket) + key_bytes_,
                       options_.value_bytes);
}

size_t PnwStore::LabelOf(std::span<const uint8_t> value) {
  return model_ != nullptr ? model_->Predict(value, predict_scratch_) : 0;
}

std::span<const size_t> PnwStore::RankOf(std::span<const uint8_t> value) {
  if (model_ != nullptr) {
    return model_->RankClusters(value, predict_scratch_);
  }
  predict_scratch_.ranked.assign(1, 0);
  return predict_scratch_.ranked;
}

void PnwStore::Recycle(size_t bucket, std::span<const uint8_t> resident) {
  pool_.Insert(LabelOf(resident), BucketAddr(bucket));
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
  auto write =
      device_->WriteDifferential(PhysBucketAddr(bucket), bucket_scratch_);
  if (!write.ok()) {
    return write.status();
  }
  PNW_RETURN_IF_ERROR(SetBucketFlag(bucket, true));
  // The index upsert points the key at its new logical home; a reader that
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
  Recycle(bucket, PeekBucketValue(bucket));
  ++metrics_.failed_ops;
}

void PnwStore::AccountBucketWrite(size_t bucket) {
  wear_->RecordBucketWrite(BucketAddr(bucket));
  wear_->RecordPhysicalWrite(PhysBucketAddr(bucket));
  if (remapper_ == nullptr) {
    return;
  }
  // The gap move's block copy is endurance overhead, not client traffic:
  // its device costs land in wear_device_ns, outside the write's own
  // accounting scope, which already closed.
  DeviceDeltaScope scope(device_.get(), &metrics_.wear_device_ns);
  uint64_t moved = 0;
  auto advanced = remapper_->AdvanceAfterWrite(&moved);
  if (advanced.ok() && advanced.value()) {
    ++metrics_.gap_moves;
    wear_->RecordPhysicalWrite(moved);
  }
  // On failure the remapper keeps its interval counter saturated and the
  // next bucket write retries the move; the client write that triggered
  // this advance already landed, so nothing is surfaced here.
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
  std::vector<uint8_t> bucket(bucket_bytes_);
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].size() != options_.value_bytes) {
      return Status::InvalidArgument("warm-up value size mismatch");
    }
    if (key_bytes_ > 0) {
      std::memcpy(bucket.data(), &keys[i], key_bytes_);
    }
    std::memcpy(bucket.data() + key_bytes_, values[i].data(),
                options_.value_bytes);
    auto write = device_->WriteConventional(PhysBucketAddr(i), bucket);
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
    // TrainModel() or a background run installs a model.
    AdoptModel(nullptr);
    return Status::OK();
  }
  // Algorithm 1: train on the data zone and build the dynamic address pool.
  return TrainModel();
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

void PnwStore::AdoptModel(std::shared_ptr<const ValueModel> model) {
  model_ = std::move(model);
  // Algorithm 1 lines 4-5: rebuild the pool from the *available* addresses
  // (the occupancy bitmap is authoritative), labeling each by the stale
  // content resident at it.
  pool_.Clear();
  for (size_t b = 0; b < active_buckets_; ++b) {
    if (!GetBucketFlag(b)) {
      Recycle(b, PeekBucketValue(b));
    }
  }
}

Status PnwStore::TrainModel() {
  const auto samples = CollectTrainingSamples();
  auto model = manager_->Train(samples);
  if (!model.ok()) {
    return model.status();
  }
  AdoptModel(std::move(model.value()));
  ++metrics_.retrains;
  puts_since_retrain_ = 0;
  return Status::OK();
}

void PnwStore::PollBackgroundModel() {
  // Surface background-training failures: the worker records its status in
  // the manager; fold any new failures into the store's metrics so a stale
  // model in service is visible to operators.
  const uint64_t failures = manager_->background_failures();
  if (failures > background_failures_seen_) {
    metrics_.failed_retrains += failures - background_failures_seen_;
    background_failures_seen_ = failures;
  }
  if (auto model = manager_->TakeTrainedModel(); model != nullptr) {
    AdoptModel(std::move(model));
    ++metrics_.retrains;
  }
}

Status PnwStore::MaybeExtendAndRetrain() {
  PollBackgroundModel();
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
      Recycle(b, PeekBucketValue(b));
    }
    ++metrics_.extensions;
  }
  // Retrain over the (possibly extended) data zone -- but not on every
  // operation while the store hovers at the threshold (steady-state
  // delete+put traffic keeps occupancy pinned there).
  const size_t min_interval =
      options_.retrain_min_interval != 0
          ? options_.retrain_min_interval
          : std::max<size_t>(256, active_buckets_ / 4);
  if (grow == 0 && puts_since_retrain_ < min_interval) {
    return Status::OK();
  }
  if (options_.background_retrain) {
    if (manager_->StartBackgroundTrain(CollectTrainingSamples())) {
      puts_since_retrain_ = 0;
    }
    return Status::OK();
  }
  return TrainModel();
}

Status PnwStore::PutInternal(uint64_t key, std::span<const uint8_t> value) {
  // Attribution and predict timing are decided here -- the retry path below
  // may install a model mid-operation, but this placement was steered by
  // the model (or lack of one) present at prediction time. Only a model's
  // predictions count toward predict_wall_ns.
  const bool placed_by_model = model_ != nullptr;
  double* predict_ns = placed_by_model ? &metrics_.predict_wall_ns : nullptr;
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
      ranked = RankOf(value);
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
  AccountBucketWrite(bucket);
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

template <auto Copy>
PnwStore::BucketRead PnwStore::ReadBucket(uint64_t key) const {
  auto addr = index_->Get(key);
  if (!addr.ok()) {
    return {addr.status()};
  }
  // Translating before the range check is plain arithmetic; the check must
  // test the bucket itself, because Start-Gap wraps any index into the zone.
  const size_t bucket = addr.value() / bucket_bytes_;
  const uint64_t phys = PhysBucketAddr(bucket);
  if (bucket >= options_.capacity_buckets ||
      phys + bucket_bytes_ > device_->size()) {
    return {Status::Internal("index points outside the data zone")};
  }
  // Without keys in the data zone nothing is copied into stored_key, so
  // it keeps `key` and the check below passes.
  const uint8_t* resident = device_->Peek(phys, bucket_bytes_).data();
  uint64_t stored_key = key;
  Copy(reinterpret_cast<uint8_t*>(&stored_key), resident, key_bytes_);
  std::vector<uint8_t> value(options_.value_bytes);
  Copy(value.data(), resident + key_bytes_, value.size());
  // A key-mismatch miss has already paid for its bucket read.
  const double device_ns = device_->ReadCostNs(phys, bucket_bytes_);
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
  if (!options_.optimistic_reads ||
      options_.index_placement != IndexPlacement::kDram) {
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
  {
    DeviceDeltaScope scope(device_.get(), &metrics_.delete_device_ns);
    PNW_RETURN_IF_ERROR(index_->Delete(key));
    const size_t bucket = addr.value() / bucket_bytes_;
    PNW_RETURN_IF_ERROR(SetBucketFlag(bucket, false));
    // Algorithm 3 line 3: E = model.predict(Read(A)) -- an NVM read,
    // staged through the reused bucket scratch (DELETE is half of every
    // endurance-first UPDATE, so it shares the allocation-free discipline
    // of the write path).
    PNW_RETURN_IF_ERROR(device_->Read(PhysBucketAddr(bucket), bucket_scratch_));
    Recycle(bucket, bucket_scratch_.subspan(key_bytes_));
  }
  --used_buckets_;
  ++metrics_.deletes;
  return Status::OK();
}

Status PnwStore::Delete(uint64_t key) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap the store before Delete");
  }
  Status s = DeleteInternal(key);
  if (s.ok()) {
    PollBackgroundModel();
    PNW_RETURN_IF_ERROR(LogOp(persist::OpType::kDelete, key, {}));
  }
  return s;
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
    if (s.ok()) {
      ++metrics_.updates;
      PNW_RETURN_IF_ERROR(LogOp(persist::OpType::kUpdate, key, value));
    }
    return s;
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
  Stage(key, value);
  const size_t bucket = addr.value() / bucket_bytes_;
  {
    DeviceDeltaScope scope(device_.get(), &metrics_.put_device_ns,
                           &metrics_.put_bits_written,
                           &metrics_.put_lines_written,
                           &metrics_.put_words_written);
    auto write =
        device_->WriteDifferential(PhysBucketAddr(bucket), bucket_scratch_);
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
  AccountBucketWrite(bucket);
  return LogOp(persist::OpType::kUpdate, key, value);
}

Result<bool> PnwStore::MigrateBucket(size_t bucket) {
  if (bucket >= active_buckets_ || !GetBucketFlag(bucket)) {
    return Status::InvalidArgument(
        "migration source is not a resident bucket");
  }
  // Decision phase: Peek-only (no device counters, no accounted reads).
  // A migration that is skipped below leaves literally zero trace, which
  // is what lets replay -- which only sees the *logged* migrations --
  // reproduce device counters and wear histograms bit-for-bit.
  const std::span<const uint8_t> resident =
      device_->Peek(PhysBucketAddr(bucket), bucket_bytes_);
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
    s = device_->Read(PhysBucketAddr(bucket), bucket_scratch_);
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
  // Free the source under the label of its (still resident, now stale)
  // content -- exactly how DELETE returns addresses, so the pool keeps
  // placing future writes onto similar bits.
  Recycle(bucket, PeekBucketValue(bucket));
  ++metrics_.migrations;
  AccountBucketWrite(dst_bucket);
  return true;
}

Result<size_t> PnwStore::MigrateHotBuckets(size_t max_buckets) {
  if (!bootstrapped_) {
    return Status::FailedPrecondition("Bootstrap the store before migration");
  }
  if (key_bytes_ == 0) {
    return Status::FailedPrecondition(
        "hot-bucket migration requires store_keys_in_data_zone (the index "
        "entry is re-pointed by the key read from the bucket)");
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

Status PnwStore::Checkpoint(const std::string& path) {
  PNW_RETURN_IF_ERROR(WriteCheckpoint(path));
  return FinishCheckpoint(path);
}

Status PnwStore::WriteCheckpoint(const std::string& path) {
  // The new epoch ties this snapshot to the op-log FinishCheckpoint will
  // reset; the bump is rolled back only if the snapshot itself failed to
  // land (once it is durably renamed in, the epoch must stand -- see
  // FinishCheckpoint).
  ++checkpoint_epoch_;
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
    w.PutU64(checkpoint_epoch_);
    persist::EncodeStoreMetrics(metrics_, w);
  }
  {
    auto& w = snap.AddSection(kSectionDevice);
    w.PutSizedBytes(device_->Contents());
    persist::EncodeNvmCounters(device_->counters(), w);
    w.PutU32Vec(device_->word_write_counts());
    w.PutU32Vec(device_->line_write_counts());
    w.PutU16Vec(device_->bit_write_counts());
  }
  {
    auto& w = snap.AddSection(kSectionWear);
    w.PutU32Vec(wear_->bucket_write_counts());
    w.PutU32Vec(wear_->physical_write_counts());
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
  if (remapper_ != nullptr) {
    auto& w = snap.AddSection(kSectionRemap);
    const nvm::StartGapRegisters regs = remapper_->registers();
    w.PutU64(regs.start);
    w.PutU64(regs.gap);
    w.PutU64(regs.writes_since_move);
    w.PutU64(regs.gap_moves);
    w.PutU64(regs.rotations);
  }
  Status s = snap.WriteToFile(path);
  if (!s.ok()) {
    --checkpoint_epoch_;
    return s;
  }
  carry_log_path_.clear();
  carry_log_mark_ = 0;
  log_switched_in_write_ = false;
  if (op_log_ == nullptr) {
    // No previous log exists to carry racing operations from (first
    // checkpoint ever, or a store whose log was detached after an append
    // failure) -- and in either case no committed checkpoint+log pair is
    // being protected. Switch to the new generation's log right here,
    // while the caller still holds the operation lock, so operations
    // between the two phases are captured instead of falling into a gap.
    s = AttachOpLog(path + kOpLogSuffix, /*truncate=*/true);
    if (!s.ok()) {
      op_log_.reset();
      return s;
    }
    log_switched_in_write_ = true;
    return Status::OK();
  }
  // Remember where the still-attached previous log stands right now:
  // anything appended past this mark happened after the snapshot and
  // must be carried into the next generation's log by FinishCheckpoint.
  std::error_code ec;
  const auto size = std::filesystem::file_size(op_log_->path(), ec);
  if (ec) {
    // The epoch-N+1 snapshot is already durable, so the old log's epoch
    // can never legally replay again: detach it (like FinishCheckpoint's
    // failure paths) rather than keep acknowledging writes into a file
    // recovery must discard.
    const std::string log_path = op_log_->path();
    op_log_.reset();
    return Status::Internal("cannot stat op-log " + log_path + ": " +
                            ec.message());
  }
  carry_log_path_ = op_log_->path();
  carry_log_mark_ = size;
  return s;
}

Status PnwStore::FinishCheckpoint(const std::string& path) {
  if (log_switched_in_write_) {
    // WriteCheckpoint already put the new generation's log in place.
    log_switched_in_write_ = false;
    return Status::OK();
  }
  // Collect the records that raced the snapshot (appended to the old log
  // after WriteCheckpoint's mark) BEFORE any reset -- with an unchanged
  // log path the reset below would destroy them.
  std::vector<persist::OpRecord> carried;
  if (!carry_log_path_.empty()) {
    auto tail = persist::ReadOpLog(carry_log_path_, carry_log_mark_);
    if (!tail.ok()) {
      op_log_.reset();
      return tail.status();
    }
    carried = std::move(tail.value().records);
  }
  carry_log_path_.clear();
  carry_log_mark_ = 0;
  // Reset the log under the new epoch and keep capturing from there. On
  // failure the log is detached rather than the epoch rolled back -- the
  // epoch-N+1 snapshot is already durable, and appending more records to
  // a stale-epoch log would only grow a file recovery must discard. The
  // caller sees the error and knows durability is degraded until the
  // next successful Checkpoint.
  Status s = AttachOpLog(path + kOpLogSuffix, /*truncate=*/true);
  if (s.ok()) {
    for (const auto& rec : carried) {
      s = op_log_->Append(rec.op, rec.key, rec.value);
      if (!s.ok()) {
        break;
      }
    }
  }
  if (!s.ok()) {
    op_log_.reset();
  }
  return s;
}

Result<std::unique_ptr<PnwStore>> PnwStore::Open(
    const std::string& path, const persist::RecoveryOptions& recovery) {
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
  PNW_RETURN_IF_ERROR(s.RestoreFrom(snap));

  const std::string log_path = path + kOpLogSuffix;
  s.op_log_sync_every_ = recovery.op_log_sync_every;
  bool log_matches_snapshot = false;
  if (recovery.replay_op_log || recovery.attach_op_log) {
    auto log = persist::ReadOpLog(log_path);
    if (!log.ok()) {
      return log.status();
    }
    // A log from another epoch is one a crash orphaned between a snapshot
    // rename and the log reset: every record it holds is already folded
    // into this (newer) snapshot, so it must be discarded, not replayed.
    log_matches_snapshot = log.value().has_header &&
                           log.value().epoch == s.checkpoint_epoch_;
    if (recovery.replay_op_log && log_matches_snapshot) {
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
            status =
                !moved.ok()
                    ? moved.status()
                    : (moved.value() ? Status::OK()
                                     : Status::Corruption(
                                           "logged migration did not replay"));
            break;
          }
        }
        if (!status.ok()) {
          s.replaying_ = false;
          return Status::Corruption("op-log replay failed: " +
                                    status.ToString());
        }
      }
      s.replaying_ = false;
    }
  }
  if (recovery.attach_op_log) {
    // Keep appending behind the replayed records only when the log both
    // matches this snapshot's epoch and was actually replayed; otherwise
    // its content can never legally replay onto the state being served,
    // so the attach re-stamps it empty under the snapshot's epoch.
    const bool keep = log_matches_snapshot && recovery.replay_op_log;
    PNW_RETURN_IF_ERROR(s.AttachOpLog(log_path, /*truncate=*/!keep));
  }
  return store;
}

Status PnwStore::RestoreFrom(const persist::SnapshotReader& snap) {
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
    PNW_RETURN_IF_ERROR(r.GetU64(&checkpoint_epoch_));
    PNW_RETURN_IF_ERROR(persist::DecodeStoreMetrics(r, &metrics_));
    if (active > options_.capacity_buckets || used > active) {
      return Status::Corruption("snapshot bucket accounting out of range");
    }
    active_buckets_ = active;
    used_buckets_ = used;
    puts_since_retrain_ = since_retrain;
    // The fresh ModelManager starts with zero background failures; the
    // checkpointed ones are already folded into metrics_.failed_retrains.
    background_failures_seen_ = 0;
  }
  {
    auto section = snap.Section(kSectionDevice);
    if (!section.ok()) {
      return Status::Corruption("snapshot has no device section");
    }
    persist::BufferReader& r = section.value();
    std::vector<uint8_t> contents;
    nvm::NvmCounters counters;
    std::vector<uint32_t> word_counts;
    std::vector<uint32_t> line_counts;
    std::vector<uint16_t> bit_counts;
    PNW_RETURN_IF_ERROR(r.GetSizedBytes(&contents));
    PNW_RETURN_IF_ERROR(persist::DecodeNvmCounters(r, &counters));
    PNW_RETURN_IF_ERROR(r.GetU32Vec(&word_counts));
    PNW_RETURN_IF_ERROR(r.GetU32Vec(&line_counts));
    PNW_RETURN_IF_ERROR(r.GetU16Vec(&bit_counts));
    PNW_RETURN_IF_ERROR(device_->RestoreState(contents, counters,
                                              word_counts, line_counts,
                                              bit_counts));
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
    std::vector<uint32_t> physical;
    PNW_RETURN_IF_ERROR(r.GetU32Vec(&physical));
    PNW_RETURN_IF_ERROR(wear_->RestorePhysicalCounts(physical));
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
    model_ = std::move(model.value());
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
        if (addr % bucket_bytes_ != 0 ||
            addr / bucket_bytes_ >= active_buckets_) {
          return Status::Corruption("snapshot pool address out of range");
        }
        pool_.Insert(c, addr);
      }
    }
  }
  if (options_.start_gap_wear_leveling) {
    auto section = snap.Section(kSectionRemap);
    if (!section.ok()) {
      return Status::Corruption(
          "snapshot has no remap section (start_gap_wear_leveling on)");
    }
    persist::BufferReader& r = section.value();
    nvm::StartGapRegisters regs;
    PNW_RETURN_IF_ERROR(r.GetU64(&regs.start));
    PNW_RETURN_IF_ERROR(r.GetU64(&regs.gap));
    PNW_RETURN_IF_ERROR(r.GetU64(&regs.writes_since_move));
    PNW_RETURN_IF_ERROR(r.GetU64(&regs.gap_moves));
    PNW_RETURN_IF_ERROR(r.GetU64(&regs.rotations));
    PNW_RETURN_IF_ERROR(remapper_->RestoreRegisters(regs));
  }
  return Status::OK();
}

Status PnwStore::AttachOpLog(const std::string& path, bool truncate) {
  auto log = persist::OpLogWriter::Open(path, op_log_sync_every_,
                                        checkpoint_epoch_);
  if (!log.ok()) {
    return log.status();
  }
  op_log_ = std::move(log.value());
  if (truncate) {
    return op_log_->Reset(checkpoint_epoch_);
  }
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
  // Settle background state into the epoch being discarded before zeroing:
  // any finished background model is adopted now and any pending training
  // failure is folded into the old metrics, which synchronizes
  // background_failures_seen_ with the manager. Post-reset deltas then
  // count only post-reset failures -- a warm-up failure is neither
  // re-folded into the fresh metrics nor double counted later.
  PollBackgroundModel();
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
