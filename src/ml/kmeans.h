#ifndef PNW_ML_KMEANS_H_
#define PNW_ML_KMEANS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/ml/matrix.h"
#include "src/util/status.h"

namespace pnw::ml {

/// Training knobs for K-means.
struct KMeansOptions {
  /// Number of clusters (the paper sweeps K from 1 to 30).
  size_t k = 8;
  /// Lloyd iteration cap.
  size_t max_iterations = 50;
  /// Stop when the relative SSE improvement falls below this.
  double tolerance = 1e-4;
  /// PRNG seed for k-means++ initialization.
  uint64_t seed = 42;
  /// Worker threads for the assignment step (Fig. 11 compares 1 vs 4).
  size_t num_threads = 1;
};

/// A trained model: centroids plus prediction. Immutable once built; the
/// PNW store serves one inside a core::ValueModel.
class KMeansModel {
 public:
  KMeansModel() = default;
  KMeansModel(Matrix centroids, double sse)
      : centroids_(std::move(centroids)), sse_(sse) {
    ComputeCentroidNorms();
  }

  size_t k() const { return centroids_.rows(); }
  size_t dims() const { return centroids_.cols(); }
  bool trained() const { return centroids_.rows() > 0; }

  /// Index of the nearest centroid. Pre-condition: trained() and
  /// features.size() == dims().
  ///
  /// Hot-loop form: with per-centroid squared norms precomputed at
  /// construction, argmin_c ‖x − c‖² == argmin_c (‖c‖² − 2·x·c) -- the
  /// ‖x‖² term is constant across centroids -- so each candidate costs one
  /// fused multiply-add dot product, which auto-vectorizes, instead of a
  /// subtract-square-accumulate loop. No allocation.
  size_t Predict(std::span<const float> features) const;

  /// All cluster indices ordered by increasing distance to `features`.
  /// The PNW address pool uses this to fall back to the next-nearest
  /// cluster when the predicted one has no free address.
  std::vector<size_t> RankClusters(std::span<const float> features) const;

  /// Allocation-free ranking into caller-owned scratch: `by_score` and
  /// `out` are resized (capacity reused across calls). Same order as
  /// RankClusters(features).
  void RankClusters(std::span<const float> features,
                    std::vector<std::pair<float, size_t>>& by_score,
                    std::vector<size_t>& out) const;

  std::span<const float> Centroid(size_t c) const { return centroids_.Row(c); }
  const Matrix& centroids() const { return centroids_; }
  /// ‖c‖² per centroid, precomputed at construction (exposed for tests).
  const std::vector<float>& centroid_norms() const { return centroid_norms_; }

  /// Final sum of squared errors (inertia) on the training set; the elbow
  /// method (paper Eq. 1, Fig. 4) plots this against K.
  double sse() const { return sse_; }

 private:
  void ComputeCentroidNorms();

  Matrix centroids_;
  std::vector<float> centroid_norms_;
  double sse_ = 0.0;
};

/// Lloyd's algorithm with k-means++ seeding.
class KMeansTrainer {
 public:
  explicit KMeansTrainer(const KMeansOptions& options) : options_(options) {}

  /// Fit on `data` (rows = samples). Fails with InvalidArgument on an empty
  /// matrix or k == 0. If there are fewer samples than k, duplicate
  /// centroids are permitted (empty clusters collapse onto existing points).
  Result<KMeansModel> Fit(const Matrix& data) const;

  /// Per-sample labels under a trained model (convenience used by
  /// Algorithm 1's initialization: "labels = model.labels").
  static std::vector<size_t> Label(const KMeansModel& model,
                                   const Matrix& data);

 private:
  KMeansOptions options_;
};

}  // namespace pnw::ml

#endif  // PNW_ML_KMEANS_H_
