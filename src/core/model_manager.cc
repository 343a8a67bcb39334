#include "src/core/model_manager.h"

#include <algorithm>
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

Result<std::shared_ptr<const ValueModel>> TrainValueModel(
    const PnwOptions& options,
    const std::vector<std::vector<uint8_t>>& samples) {
  if (samples.empty()) {
    return Status::InvalidArgument("model training requires samples");
  }
  // The encoder zero-pads short samples and truncates long ones, so a size
  // mismatch would not crash -- it would silently train the model on data
  // that looks nothing like what the store serves. Treat it as a caller
  // bug instead.
  for (const auto& sample : samples) {
    if (sample.size() != options.value_bytes) {
      return Status::InvalidArgument(
          "training sample size does not match value_bytes");
    }
  }

  const size_t stride =
      options.encode_byte_stride != 0
          ? options.encode_byte_stride
          : std::max<size_t>(1, options.value_bytes / 2048);
  ml::BitFeatureEncoder encoder(options.value_bytes, options.max_features,
                                stride);
  ml::Matrix encoded = encoder.EncodeBatch(samples);

  std::optional<ml::PcaModel> pca;
  const ml::Matrix* train_data = &encoded;
  ml::Matrix projected;
  if (options.pca_components > 0 &&
      options.pca_components < encoder.dims()) {
    ml::PcaOptions pca_options;
    pca_options.num_components = options.pca_components;
    pca_options.seed = options.seed;
    auto pca_result = ml::PcaTrainer(pca_options).Fit(encoded);
    if (!pca_result.ok()) {
      return pca_result.status();
    }
    pca = std::move(pca_result.value());
    projected = pca->TransformBatch(encoded);
    train_data = &projected;
  }

  ml::KMeansOptions kmeans_options;
  kmeans_options.k = options.num_clusters;
  kmeans_options.max_iterations = options.max_training_iterations;
  kmeans_options.seed = options.seed;
  kmeans_options.num_threads = options.train_threads;
  auto kmeans_result = ml::KMeansTrainer(kmeans_options).Fit(*train_data);
  if (!kmeans_result.ok()) {
    return kmeans_result.status();
  }
  return std::make_shared<const ValueModel>(std::move(encoder), std::move(pca),
                                            std::move(kmeans_result.value()));
}

}  // namespace pnw::core
