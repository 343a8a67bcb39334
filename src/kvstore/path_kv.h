#ifndef PNW_KVSTORE_PATH_KV_H_
#define PNW_KVSTORE_PATH_KV_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "src/index/path_hash_layout.h"
#include "src/kvstore/kv_interface.h"

namespace pnw::kvstore {

/// A K/V store that keeps (key, value) pairs inline in a path-hashing table
/// on NVM (Zuo & Hua, the "Path hashing" bar of the paper's Fig. 9).
/// Collisions are resolved by descending the shared binary-tree paths below
/// the two hash positions -- no element movement -- so its per-request line
/// count is low, but unlike PNW it is not "memory-aware": every insert
/// rewrites its full value wherever the hash sends it.
class PathKvStore final : public KvComparatorStore {
 public:
  /// `capacity` root cells (rounded to a power of two), values of
  /// `value_bytes` each.
  PathKvStore(size_t capacity, size_t value_bytes, size_t num_levels = 8);

  std::string_view name() const override { return "PathHashing"; }
  Status Put(uint64_t key, std::span<const uint8_t> value) override;
  Result<std::vector<uint8_t>> Get(uint64_t key) override;
  Status Delete(uint64_t key) override;
  nvm::NvmDevice& device() override { return *device_; }

 private:
  struct CellHeader {
    uint64_t key;
    bool live;
  };

  CellHeader LoadHeader(uint64_t cell_addr) const;
  Result<uint64_t> Locate(uint64_t key) const;

  size_t value_bytes_;
  size_t cell_bytes_;
  index::PathHashLayout layout_;
  std::unique_ptr<nvm::NvmDevice> device_;
};

}  // namespace pnw::kvstore

#endif  // PNW_KVSTORE_PATH_KV_H_
