#ifndef PNW_CORE_MODEL_MANAGER_H_
#define PNW_CORE_MODEL_MANAGER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/pnw_options.h"
#include "src/ml/feature_encoder.h"
#include "src/ml/kmeans.h"
#include "src/ml/pca.h"
#include "src/util/status.h"

namespace pnw::core {

/// Caller-owned scratch buffers for the prediction pipeline. Every
/// ValueModel inference entry point has an overload threading one of these
/// through, so a steady-state Predict performs zero heap allocations: the
/// buffers grow to the pipeline's working-set sizes on the first call and
/// are reused verbatim afterwards. A scratch is *not* thread-safe; give
/// each predicting thread its own (the PNW store keeps one for its single
/// writer).
struct FeatureScratch {
  /// Bit-feature encoder output (encoder dims).
  std::vector<float> encoded;
  /// PCA projection output (num_components), when the pipeline uses PCA.
  std::vector<float> features;
  /// Folded-encoding lane accumulators (BitFeatureEncoder internals).
  std::vector<uint64_t> lanes;
  /// PCA centering buffer (input dims).
  std::vector<float> centered;
  /// RankClusters (score, cluster) pairs and the resulting order.
  std::vector<std::pair<float, size_t>> rank_scores;
  std::vector<size_t> ranked;
};

/// A trained prediction pipeline: bit-feature encoding, optional PCA
/// projection, and a K-means model. Immutable once built: a retrain builds
/// a new one and the store swaps its shared_ptr, so readers holding the old
/// model (benches replaying predictions) keep a valid one.
class ValueModel {
 public:
  ValueModel(ml::BitFeatureEncoder encoder, std::optional<ml::PcaModel> pca,
             ml::KMeansModel kmeans)
      : encoder_(std::move(encoder)),
        pca_(std::move(pca)),
        kmeans_(std::move(kmeans)) {}

  /// Number of clusters the underlying K-means model predicts into.
  size_t k() const { return kmeans_.k(); }

  /// Cluster label for a raw value ("E = model.predict(D)", Algorithm 2).
  size_t Predict(std::span<const uint8_t> value) const;

  /// Allocation-free Predict: all pipeline temporaries live in `scratch`
  /// and are reused across calls. This is the PUT hot path.
  size_t Predict(std::span<const uint8_t> value, FeatureScratch& scratch) const;

  /// Clusters ordered nearest-first for the pool's fallback path.
  std::vector<size_t> RankClusters(std::span<const uint8_t> value) const;

  /// Allocation-free ranking: the order lands in (and is returned as a
  /// reference to) `scratch.ranked`, valid until the scratch's next use.
  const std::vector<size_t>& RankClusters(std::span<const uint8_t> value,
                                          FeatureScratch& scratch) const;

  /// RankClusters of the value the last Predict(value, scratch) encoded,
  /// from the features it left in `scratch`: no second encode or
  /// projection. The PUT's fallback when its predicted cluster is empty.
  const std::vector<size_t>& RankPredicted(FeatureScratch& scratch) const;

  const ml::KMeansModel& kmeans() const { return kmeans_; }
  bool uses_pca() const { return pca_.has_value(); }
  /// Trained pipeline pieces, exposed so the persist layer can serialize a
  /// model and rebuild it bit-identically on recovery (no retraining).
  const ml::BitFeatureEncoder& encoder() const { return encoder_; }
  const std::optional<ml::PcaModel>& pca() const { return pca_; }

 private:
  /// Encode + (optionally) project through `scratch`; the returned span
  /// aliases scratch storage and stays valid until its next use.
  std::span<const float> Featurize(std::span<const uint8_t> value,
                                   FeatureScratch& scratch) const;
  /// The features the last Featurize left in `scratch`.
  std::span<const float> Featurized(const FeatureScratch& scratch) const;

  ml::BitFeatureEncoder encoder_;
  std::optional<ml::PcaModel> pca_;
  ml::KMeansModel kmeans_;
};

/// Algorithm 1's training step: encode `samples` (raw values, each
/// options.value_bytes long) into bit features, project them with PCA when
/// options.pca_components asks for it, and fit full-batch K-means -- one
/// synchronous run on the caller's thread. Fails with InvalidArgument on no
/// samples or a sample of the wrong size.
Result<std::shared_ptr<const ValueModel>> TrainValueModel(
    const PnwOptions& options,
    const std::vector<std::vector<uint8_t>>& samples);

}  // namespace pnw::core

#endif  // PNW_CORE_MODEL_MANAGER_H_
