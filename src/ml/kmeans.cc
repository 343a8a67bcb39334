#include "src/ml/kmeans.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/thread_pool.h"

namespace pnw::ml {

namespace {

/// k-means++ seeding: first centroid uniform, subsequent ones sampled with
/// probability proportional to squared distance from the nearest chosen
/// centroid.
Matrix SeedCentroids(const Matrix& data, size_t k, Rng& rng) {
  const size_t n = data.rows();
  const size_t d = data.cols();
  Matrix centroids(k, d);

  std::vector<float> min_dist(n, std::numeric_limits<float>::max());
  size_t first = rng.NextBelow(n);
  std::copy_n(data.Row(first).data(), d, centroids.Row(0).data());

  for (size_t c = 1; c < k; ++c) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const float dist = SquaredDistance(data.Row(i), centroids.Row(c - 1));
      min_dist[i] = std::min(min_dist[i], dist);
      total += min_dist[i];
    }
    size_t chosen = 0;
    if (total > 0.0) {
      double target = rng.NextDouble() * total;
      for (size_t i = 0; i < n; ++i) {
        target -= min_dist[i];
        if (target <= 0.0) {
          chosen = i;
          break;
        }
      }
    } else {
      // All points coincide with centroids; any choice works.
      chosen = rng.NextBelow(n);
    }
    std::copy_n(data.Row(chosen).data(), d, centroids.Row(c).data());
  }
  return centroids;
}

}  // namespace

void KMeansModel::ComputeCentroidNorms() {
  centroid_norms_.resize(centroids_.rows());
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    const auto row = centroids_.Row(c);
    centroid_norms_[c] = DotProduct(row, row);
  }
}

size_t KMeansModel::Predict(std::span<const float> features) const {
  // ‖x − c‖² = ‖x‖² + ‖c‖² − 2·x·c; ‖x‖² is the same for every candidate,
  // so the argmin needs only the precomputed ‖c‖² and one dot per centroid.
  // The fused kernel walks the row-major centroid matrix directly (strict
  // less-than, first index wins -- identical tie behavior on every ISA).
  float best_score;
  return simd::Kernels().argmin_centroids(
      features.data(), centroids_.data().data(), centroid_norms_.data(),
      centroids_.rows(), centroids_.cols(), &best_score);
}

std::vector<size_t> KMeansModel::RankClusters(
    std::span<const float> features) const {
  std::vector<std::pair<float, size_t>> by_score;
  std::vector<size_t> order;
  RankClusters(features, by_score, order);
  return order;
}

void KMeansModel::RankClusters(
    std::span<const float> features,
    std::vector<std::pair<float, size_t>>& by_score,
    std::vector<size_t>& out) const {
  by_score.clear();
  by_score.reserve(centroids_.rows());
  for (size_t c = 0; c < centroids_.rows(); ++c) {
    // Same ‖c‖² − 2·x·c score as Predict: shifted from the true squared
    // distance by the centroid-independent ‖x‖², so the ordering is equal.
    by_score.emplace_back(centroid_norms_[c] -
                              2.0f * DotProduct(features, centroids_.Row(c)),
                          c);
  }
  std::sort(by_score.begin(), by_score.end());
  out.resize(by_score.size());
  for (size_t i = 0; i < by_score.size(); ++i) {
    out[i] = by_score[i].second;
  }
}

Result<KMeansModel> KMeansTrainer::Fit(const Matrix& data) const {
  if (data.empty()) {
    return Status::InvalidArgument("k-means: empty training matrix");
  }
  if (options_.k == 0) {
    return Status::InvalidArgument("k-means: k must be positive");
  }
  const size_t n = data.rows();
  const size_t d = data.cols();
  const size_t k = std::min(options_.k, n);

  Rng rng(options_.seed);
  Matrix centroids = SeedCentroids(data, k, rng);

  std::vector<size_t> assignment(n, 0);
  const size_t threads = std::max<size_t>(1, options_.num_threads);
  // One thread assigns inline, so it starts no pool.
  std::optional<ThreadPool> pool;
  if (threads > 1) {
    pool.emplace(threads);
  }

  double prev_sse = std::numeric_limits<double>::max();
  double sse = 0.0;
  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    // Assignment step (parallelizable; dominates training time).
    std::vector<double> partial_sse(threads, 0.0);
    auto assign_range = [&](size_t begin, size_t end, size_t slot) {
      double local = 0.0;
      for (size_t i = begin; i < end; ++i) {
        size_t best = 0;
        float best_dist = std::numeric_limits<float>::max();
        const auto row = data.Row(i);
        for (size_t c = 0; c < k; ++c) {
          const float dist = SquaredDistance(row, centroids.Row(c));
          if (dist < best_dist) {
            best_dist = dist;
            best = c;
          }
        }
        assignment[i] = best;
        local += best_dist;
      }
      partial_sse[slot] += local;
    };
    if (pool.has_value()) {
      const size_t chunk = (n + threads - 1) / threads;
      std::atomic<size_t> slot{0};
      pool->ParallelFor(threads, [&](size_t begin, size_t end) {
        for (size_t w = begin; w < end; ++w) {
          const size_t lo = w * chunk;
          const size_t hi = std::min(n, lo + chunk);
          if (lo < hi) {
            assign_range(lo, hi, w);
          }
        }
      });
    } else {
      assign_range(0, n, 0);
    }
    sse = std::accumulate(partial_sse.begin(), partial_sse.end(), 0.0);

    // Update step.
    Matrix new_centroids(k, d);
    std::vector<size_t> counts(k, 0);
    for (size_t i = 0; i < n; ++i) {
      const size_t c = assignment[i];
      ++counts[c];
      auto dst = new_centroids.Row(c);
      const auto src = data.Row(i);
      for (size_t j = 0; j < d; ++j) {
        dst[j] += src[j];
      }
    }
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed an empty cluster on a random sample to keep k clusters
        // live (scikit-learn does the same on its "relocate" path).
        const size_t pick = rng.NextBelow(n);
        std::copy_n(data.Row(pick).data(), d, new_centroids.Row(c).data());
        continue;
      }
      auto row = new_centroids.Row(c);
      const float inv = 1.0f / static_cast<float>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        row[j] *= inv;
      }
    }
    centroids = std::move(new_centroids);

    if (prev_sse < std::numeric_limits<double>::max()) {
      const double denom = std::max(prev_sse, 1e-12);
      if ((prev_sse - sse) / denom < options_.tolerance) {
        break;
      }
    }
    prev_sse = sse;
  }

  return KMeansModel(std::move(centroids), sse);
}

std::vector<size_t> KMeansTrainer::Label(const KMeansModel& model,
                                         const Matrix& data) {
  std::vector<size_t> labels(data.rows());
  for (size_t i = 0; i < data.rows(); ++i) {
    labels[i] = model.Predict(data.Row(i));
  }
  return labels;
}

}  // namespace pnw::ml
