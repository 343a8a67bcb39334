#ifndef PNW_CORE_DYNAMIC_ADDRESS_POOL_H_
#define PNW_CORE_DYNAMIC_ADDRESS_POOL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

namespace pnw::core {

/// The dynamic address pool (paper Section V-A2, Fig. 5): one free-list of
/// available data-zone addresses per K-means cluster. Addresses are removed
/// when allocated to a K/V pair and reinserted when the pair is deleted
/// ("we remove memory addresses out of the dynamic address pool when they
/// are allocated ... and reinsert them afterwards").
///
/// The paper leaves open what happens when the predicted cluster is empty;
/// this implementation falls back to the next-nearest cluster in the
/// caller-supplied centroid-distance order, so a PUT never fails while any
/// free address exists (the fallback count is surfaced so callers can use
/// it as a retraining signal alongside the load factor).
class DynamicAddressPool {
 public:
  explicit DynamicAddressPool(size_t num_clusters);

  /// Number of per-cluster free-lists (fixed at construction).
  size_t num_clusters() const { return free_lists_.size(); }

  /// Add a free address under `cluster`. Pre-condition:
  /// cluster < num_clusters().
  void Insert(size_t cluster, uint64_t addr);

  /// Pop a free address from exactly `cluster`; nullopt if that cluster's
  /// free-list is empty.
  std::optional<uint64_t> Acquire(size_t cluster);

  /// Pop from the first non-empty cluster in `ranked_clusters` (typically
  /// KMeansModel::RankClusters output: nearest centroid first). Sets
  /// `*used_fallback` if the address did not come from the first entry.
  std::optional<uint64_t> AcquireRanked(std::span<const size_t> ranked_clusters,
                                        bool* used_fallback);

  /// Cold-placement acquire for the hot-bucket migrator: walk
  /// `ranked_clusters` in order and take, from the first cluster holding
  /// any address with `wear_of(addr) < max_wear`, the address with the
  /// smallest wear (ties broken toward the front of the list, i.e. the
  /// least recently freed). Returns nullopt -- with the pool untouched --
  /// when no free address anywhere is colder than `max_wear`, so a
  /// migration that would not improve wear has no side effects. Sets
  /// `*used_fallback` when the address did not come from the first entry.
  /// Removal swaps with the back, so it stays O(1) after the scan (the
  /// resulting order change is deterministic, which checkpoint replay
  /// relies on).
  std::optional<uint64_t> AcquireRankedMinWear(
      std::span<const size_t> ranked_clusters,
      const std::function<uint32_t(uint64_t)>& wear_of, uint32_t max_wear,
      bool* used_fallback);

  /// Total free addresses across all clusters.
  size_t FreeCount() const { return total_free_; }
  /// Free addresses in one cluster.
  size_t FreeCount(size_t cluster) const { return free_lists_[cluster].size(); }
  /// One cluster's free-list, in pop order. Exposed so a checkpoint can
  /// serialize the exact pool state (labels *and* ordering) and recovery
  /// can restore it without re-predicting every free address.
  const std::vector<uint64_t>& FreeList(size_t cluster) const {
    return free_lists_[cluster];
  }

  /// Drop every address (used when a new model re-labels the free space).
  void Clear();

 private:
  std::vector<std::vector<uint64_t>> free_lists_;
  size_t total_free_ = 0;
};

}  // namespace pnw::core

#endif  // PNW_CORE_DYNAMIC_ADDRESS_POOL_H_
