#include "src/core/model_manager.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace pnw::core {

std::span<const float> ValueModel::Featurize(std::span<const uint8_t> value,
                                             FeatureScratch& scratch) const {
  scratch.encoded.resize(encoder_.dims());
  encoder_.Encode(value, scratch.encoded, scratch.lanes);
  if (pca_.has_value()) {
    scratch.features.resize(pca_->num_components());
    pca_->Transform(scratch.encoded, scratch.features, scratch.centered);
  }
  return Featurized(scratch);
}

std::span<const float> ValueModel::Featurized(
    const FeatureScratch& scratch) const {
  return pca_.has_value() ? scratch.features : scratch.encoded;
}

size_t ValueModel::Predict(std::span<const uint8_t> value) const {
  FeatureScratch scratch;
  return Predict(value, scratch);
}

size_t ValueModel::Predict(std::span<const uint8_t> value,
                           FeatureScratch& scratch) const {
  return kmeans_.Predict(Featurize(value, scratch));
}

std::vector<size_t> ValueModel::RankClusters(
    std::span<const uint8_t> value) const {
  FeatureScratch scratch;
  return RankClusters(value, scratch);
}

const std::vector<size_t>& ValueModel::RankClusters(
    std::span<const uint8_t> value, FeatureScratch& scratch) const {
  Featurize(value, scratch);
  return RankPredicted(scratch);
}

const std::vector<size_t>& ValueModel::RankPredicted(
    FeatureScratch& scratch) const {
  kmeans_.RankClusters(Featurized(scratch), scratch.rank_scores,
                       scratch.ranked);
  return scratch.ranked;
}

ModelManager::ModelManager(const ModelTrainingConfig& config)
    : config_(config) {}

ModelManager::~ModelManager() { JoinWorker(); }

void ModelManager::JoinWorker() {
  if (worker_.joinable()) {
    worker_.join();
  }
}

std::shared_ptr<const ValueModel> ModelManager::TrainInternal(
    const std::vector<std::vector<uint8_t>>& samples, Status* status) {
  // The encoder zero-pads short samples and truncates long ones, so a size
  // mismatch would not crash -- it would silently train the model on data
  // that looks nothing like what the store serves. Treat it as a caller
  // bug instead.
  for (const auto& sample : samples) {
    if (sample.size() != config_.value_bytes) {
      *status = Status::InvalidArgument(
          "training sample size does not match value_bytes");
      return nullptr;
    }
  }
  const auto start = std::chrono::steady_clock::now();

  const size_t stride =
      config_.encode_byte_stride != 0
          ? config_.encode_byte_stride
          : std::max<size_t>(1, config_.value_bytes / 2048);
  ml::BitFeatureEncoder encoder(config_.value_bytes, config_.max_features,
                                stride);
  ml::Matrix encoded = encoder.EncodeBatch(samples);

  std::optional<ml::PcaModel> pca;
  const ml::Matrix* train_data = &encoded;
  ml::Matrix projected;
  if (config_.pca_components > 0 &&
      config_.pca_components < encoder.dims()) {
    ml::PcaOptions pca_options;
    pca_options.num_components = config_.pca_components;
    pca_options.seed = config_.seed;
    auto pca_result = ml::PcaTrainer(pca_options).Fit(encoded);
    if (!pca_result.ok()) {
      *status = pca_result.status();
      return nullptr;
    }
    pca = std::move(pca_result.value());
    projected = pca->TransformBatch(encoded);
    train_data = &projected;
  }

  ml::KMeansOptions kmeans_options;
  kmeans_options.k = config_.num_clusters;
  kmeans_options.max_iterations = config_.max_iterations;
  kmeans_options.seed = config_.seed;
  kmeans_options.num_threads = config_.train_threads;
  auto kmeans_result = ml::KMeansTrainer(kmeans_options).Fit(*train_data);
  if (!kmeans_result.ok()) {
    *status = kmeans_result.status();
    return nullptr;
  }

  const auto end = std::chrono::steady_clock::now();
  last_training_seconds_.store(
      std::chrono::duration<double>(end - start).count(),
      std::memory_order_release);
  *status = Status::OK();
  return std::make_shared<const ValueModel>(std::move(encoder), std::move(pca),
                                            std::move(kmeans_result.value()));
}

Result<std::shared_ptr<const ValueModel>> ModelManager::Train(
    const std::vector<std::vector<uint8_t>>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("model training requires samples");
  }
  Status status;
  auto model = TrainInternal(samples, &status);
  if (!status.ok()) {
    return status;
  }
  return Result<std::shared_ptr<const ValueModel>>(std::move(model));
}

bool ModelManager::StartBackgroundTrain(
    std::vector<std::vector<uint8_t>> samples) {
  if (samples.empty()) {
    return false;
  }
  bool expected = false;
  if (!training_in_flight_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return false;  // a run is already in flight
  }
  JoinWorker();  // reap a previously finished thread
  worker_ = std::thread([this, samples = std::move(samples)]() mutable {
    Status status;
    auto model = TrainInternal(samples, &status);
    {
      util::MutexLock lock(mu_);
      last_background_status_ = status;
      if (status.ok()) {
        ready_model_ = std::move(model);
      }
    }
    if (!status.ok()) {
      background_failures_.fetch_add(1, std::memory_order_acq_rel);
    }
    training_in_flight_.store(false, std::memory_order_release);
  });
  return true;
}

Status ModelManager::last_background_status() const {
  util::MutexLock lock(mu_);
  return last_background_status_;
}

std::shared_ptr<const ValueModel> ModelManager::TakeTrainedModel() {
  util::MutexLock lock(mu_);
  return std::exchange(ready_model_, nullptr);
}

}  // namespace pnw::core
