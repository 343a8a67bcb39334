#ifndef PNW_NVM_WEAR_TRACKER_H_
#define PNW_NVM_WEAR_TRACKER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/nvm/nvm_device.h"
#include "src/util/stats.h"
#include "src/util/status.h"

namespace pnw::nvm {

/// Aggregates device counters into the wear-leveling views the paper plots:
///   - Fig. 12: CDF of per-*address* (bucket) write counts, and
///   - Fig. 13: CDF of per-*bit* write counts.
///
/// Bucket granularity is whatever the K/V store allocates (a data-zone slot),
/// which the tracker learns at construction.
class WearTracker {
 public:
  /// `bucket_bytes` is the allocation unit of the data zone on `device`.
  WearTracker(const NvmDevice* device, size_t bucket_bytes);

  /// Record that the bucket starting at `addr` received one write (a
  /// client write or a migration copy). The histogram is the migration
  /// victim-selection signal and the paper's Fig. 12 input.
  void RecordBucketWrite(uint64_t addr);

  /// Per-bucket write counts (by bucket index).
  const std::vector<uint32_t>& bucket_write_counts() const {
    return bucket_write_counts_;
  }

  /// CDF over bucket write counts (paper Fig. 12). Buckets that were never
  /// written are included, matching a whole-chip wear view.
  EmpiricalCdf AddressWriteCdf() const;

  /// CDF over per-bit write counts (paper Fig. 13). Requires the device to
  /// have been configured with `track_bit_wear`; returns an empty CDF
  /// otherwise. `sample_stride` subsamples bits to bound the cost on large
  /// devices (1 = every bit).
  EmpiricalCdf BitWriteCdf(size_t sample_stride = 1) const;

  /// Maximum writes any single bucket received.
  uint32_t MaxBucketWrites() const;
  /// Total writes across all buckets (the reconcile side of
  /// "puts + migrations == bucket writes").
  uint64_t TotalBucketWrites() const;

  /// Restore checkpointed per-bucket counters verbatim (recovery path;
  /// `counts` must have exactly bucket_write_counts().size() entries).
  Status RestoreCounts(std::span<const uint32_t> counts);

 private:
  const NvmDevice* device_;
  size_t bucket_bytes_;
  std::vector<uint32_t> bucket_write_counts_;
};

}  // namespace pnw::nvm

#endif  // PNW_NVM_WEAR_TRACKER_H_
