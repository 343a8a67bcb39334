#include "src/nvm/wear_tracker.h"

#include <algorithm>

namespace pnw::nvm {

WearTracker::WearTracker(const NvmDevice* device, size_t bucket_bytes)
    : device_(device),
      bucket_bytes_(bucket_bytes),
      bucket_write_counts_(device->size() / bucket_bytes, 0) {}

void WearTracker::RecordBucketWrite(uint64_t addr) {
  const uint64_t bucket = addr / bucket_bytes_;
  if (bucket < bucket_write_counts_.size()) {
    ++bucket_write_counts_[bucket];
  }
}

EmpiricalCdf WearTracker::AddressWriteCdf() const {
  std::vector<double> obs;
  obs.reserve(bucket_write_counts_.size());
  for (uint32_t c : bucket_write_counts_) {
    obs.push_back(static_cast<double>(c));
  }
  return EmpiricalCdf(std::move(obs));
}

EmpiricalCdf WearTracker::BitWriteCdf(size_t sample_stride) const {
  const auto& bits = device_->bit_write_counts();
  std::vector<double> obs;
  if (sample_stride == 0) {
    sample_stride = 1;
  }
  obs.reserve(bits.size() / sample_stride + 1);
  for (size_t i = 0; i < bits.size(); i += sample_stride) {
    obs.push_back(static_cast<double>(bits[i]));
  }
  return EmpiricalCdf(std::move(obs));
}

Status WearTracker::RestoreCounts(std::span<const uint32_t> counts) {
  if (counts.size() != bucket_write_counts_.size()) {
    return Status::Corruption(
        "checkpointed wear counters do not match this store's bucket count");
  }
  std::copy(counts.begin(), counts.end(), bucket_write_counts_.begin());
  return Status::OK();
}

uint32_t WearTracker::MaxBucketWrites() const {
  uint32_t max = 0;
  for (uint32_t c : bucket_write_counts_) {
    max = std::max(max, c);
  }
  return max;
}

uint64_t WearTracker::TotalBucketWrites() const {
  uint64_t total = 0;
  for (uint32_t c : bucket_write_counts_) {
    total += c;
  }
  return total;
}

}  // namespace pnw::nvm
