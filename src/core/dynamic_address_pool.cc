#include "src/core/dynamic_address_pool.h"

namespace pnw::core {

DynamicAddressPool::DynamicAddressPool(size_t num_clusters)
    : free_lists_(num_clusters) {}

void DynamicAddressPool::Insert(size_t cluster, uint64_t addr) {
  free_lists_[cluster].push_back(addr);
  ++total_free_;
}

std::optional<uint64_t> DynamicAddressPool::Acquire(size_t cluster) {
  auto& list = free_lists_[cluster];
  if (list.empty()) {
    return std::nullopt;
  }
  const uint64_t addr = list.back();
  list.pop_back();
  --total_free_;
  return addr;
}

std::optional<uint64_t> DynamicAddressPool::AcquireRanked(
    std::span<const size_t> ranked_clusters, bool* used_fallback) {
  if (used_fallback != nullptr) {
    *used_fallback = false;
  }
  for (size_t i = 0; i < ranked_clusters.size(); ++i) {
    auto addr = Acquire(ranked_clusters[i]);
    if (addr.has_value()) {
      if (used_fallback != nullptr && i > 0) {
        *used_fallback = true;
      }
      return addr;
    }
  }
  return std::nullopt;
}

std::optional<uint64_t> DynamicAddressPool::AcquireRankedMinWear(
    std::span<const size_t> ranked_clusters,
    const std::function<uint32_t(uint64_t)>& wear_of, uint32_t max_wear,
    bool* used_fallback) {
  if (used_fallback != nullptr) {
    *used_fallback = false;
  }
  for (size_t i = 0; i < ranked_clusters.size(); ++i) {
    auto& list = free_lists_[ranked_clusters[i]];
    size_t best = list.size();
    uint32_t best_wear = max_wear;
    for (size_t j = 0; j < list.size(); ++j) {
      const uint32_t wear = wear_of(list[j]);
      if (wear < best_wear) {
        best = j;
        best_wear = wear;
      }
    }
    if (best == list.size()) {
      continue;  // nothing in this cluster is colder than max_wear
    }
    const uint64_t addr = list[best];
    list[best] = list.back();
    list.pop_back();
    --total_free_;
    if (used_fallback != nullptr && i > 0) {
      *used_fallback = true;
    }
    return addr;
  }
  return std::nullopt;
}

void DynamicAddressPool::Clear() {
  for (auto& list : free_lists_) {
    list.clear();
  }
  total_free_ = 0;
}

}  // namespace pnw::core
