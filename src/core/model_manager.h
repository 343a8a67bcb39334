#ifndef PNW_CORE_MODEL_MANAGER_H_
#define PNW_CORE_MODEL_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/ml/feature_encoder.h"
#include "src/ml/kmeans.h"
#include "src/ml/pca.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace pnw::core {

/// Caller-owned scratch buffers for the prediction pipeline. Every
/// ValueModel inference entry point has an overload threading one of these
/// through, so a steady-state Predict performs zero heap allocations: the
/// buffers grow to the pipeline's working-set sizes on the first call and
/// are reused verbatim afterwards. A scratch is *not* thread-safe; give
/// each predicting thread (the PNW store's single writer, a background
/// labeler, ...) its own.
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
/// projection, and a K-means model. Immutable once built, so the store can
/// share it between the serving path and a background trainer via
/// shared_ptr swap (the paper's "switch to the new model ... while the
/// system is running").
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

/// Training configuration for the manager (a distilled view of PnwOptions).
struct ModelTrainingConfig {
  size_t value_bytes = 32;
  size_t num_clusters = 8;
  size_t max_features = 512;
  size_t pca_components = 0;  // 0 = PCA disabled
  size_t max_iterations = 30;
  size_t train_threads = 1;
  /// Byte stride for folded feature encoding; 0 = auto (scan <= 2 KiB per
  /// value, bounding prediction latency for page-sized values).
  size_t encode_byte_stride = 0;
  uint64_t seed = 42;
};

/// Owns model (re)training. Synchronous training returns a fresh model;
/// background training runs on a private thread and the result is collected
/// by the store on a later operation ("we can hide the re-training latency
/// and the system works without disruptions").
class ModelManager {
 public:
  explicit ModelManager(const ModelTrainingConfig& config);
  ~ModelManager();

  ModelManager(const ModelManager&) = delete;
  ModelManager& operator=(const ModelManager&) = delete;

  /// Train a model on `samples` (raw values, each config.value_bytes long).
  Result<std::shared_ptr<const ValueModel>> Train(
      const std::vector<std::vector<uint8_t>>& samples);

  /// Kick off asynchronous training on `samples`. No-op if a training run
  /// is already in flight. Returns false in that case.
  bool StartBackgroundTrain(std::vector<std::vector<uint8_t>> samples);

  /// True while a background run is in flight.
  bool background_training_in_progress() const {
    return training_in_flight_.load(std::memory_order_acquire);
  }

  /// Collect the finished background model, if any (nullptr otherwise).
  std::shared_ptr<const ValueModel> TakeTrainedModel() PNW_EXCLUDES(mu_);

  /// Status of the most recently *completed* background run. OK until the
  /// first background run finishes; a failed run leaves its error here (and
  /// bumps background_failures()) instead of vanishing inside the worker --
  /// the store would otherwise keep serving a stale model with no signal.
  Status last_background_status() const PNW_EXCLUDES(mu_);

  /// Background runs that completed with a non-OK status.
  uint64_t background_failures() const {
    return background_failures_.load(std::memory_order_acquire);
  }

  /// Wall-clock seconds of the most recent completed training run
  /// (Fig. 11's y-axis).
  double last_training_seconds() const { return last_training_seconds_; }

  /// The training configuration every run of this manager uses.
  const ModelTrainingConfig& config() const { return config_; }

 private:
  std::shared_ptr<const ValueModel> TrainInternal(
      const std::vector<std::vector<uint8_t>>& samples, Status* status);
  void JoinWorker();

  ModelTrainingConfig config_;
  std::thread worker_;
  std::atomic<bool> training_in_flight_{false};
  mutable util::Mutex mu_;
  std::shared_ptr<const ValueModel> ready_model_ PNW_GUARDED_BY(mu_);
  Status last_background_status_ PNW_GUARDED_BY(mu_);
  std::atomic<uint64_t> background_failures_{0};
  std::atomic<double> last_training_seconds_{0.0};
};

}  // namespace pnw::core

#endif  // PNW_CORE_MODEL_MANAGER_H_
