#ifndef PNW_INDEX_PATH_HASH_INDEX_H_
#define PNW_INDEX_PATH_HASH_INDEX_H_

#include <cstddef>
#include <cstdint>

#include "src/index/key_index.h"
#include "src/index/path_hash_layout.h"
#include "src/nvm/nvm_device.h"

namespace pnw::index {

/// NVM-resident, write-friendly hash index modeled on *path hashing*
/// (Zuo & Hua, TPDS'17, cited as [20]), the index the paper persists in PCM
/// for its evaluation (Fig. 2b, "worst case scenario ... in terms of extra
/// bit flips introduced by write amplification").
///
/// Layout: PathHashLayout's tree of cells (src/index/path_hash_layout.h).
/// Collisions descend the two paths below a key's hash positions with zero
/// element movement -- no rehash writes, which is what makes the scheme
/// write-friendly on NVM.
///
/// Every cell mutation goes through the NvmDevice so index write
/// amplification lands in the same counters as data-zone writes.
class PathHashIndex final : public KeyIndex {
 public:
  /// Cell layout on NVM: 8B key, 8B addr, 1B flags, 7B pad (keeps cells
  /// word-aligned).
  static constexpr size_t kCellBytes = 24;

  /// Builds an index over `device` starting at byte offset `base`,
  /// with `num_root_cells` (rounded up to a power of two) root cells and
  /// `num_levels` fallback levels.
  PathHashIndex(nvm::NvmDevice* device, uint64_t base, size_t num_root_cells,
                size_t num_levels = 8);

  /// NVM bytes required by a configuration (for sizing the device).
  static size_t StorageBytes(size_t num_root_cells, size_t num_levels);

  Status Put(uint64_t key, uint64_t addr) override;
  Result<uint64_t> Get(uint64_t key) const override;
  Status Delete(uint64_t key) override;
  size_t size() const override { return live_; }

  /// Recount the DRAM-side live-entry counter from the NVM-resident cells
  /// (a cost-free Peek scan). Called after recovery restores the device
  /// contents this index lives in: the cells come back with the data zone,
  /// but `size()` is DRAM state and must be rebuilt.
  void RebuildLiveCount();

 private:
  struct Cell {
    uint64_t key;
    uint64_t addr;
    uint8_t flags;  // bit 0: occupied/live
  };

  Cell LoadCell(uint64_t cell_addr) const;
  Status StoreCell(uint64_t cell_addr, const Cell& cell);
  /// Find the cell currently holding `key`; returns the cell NVM address or
  /// NotFound. Const (Peek-only) so Get stays a concurrent read path.
  Result<uint64_t> Locate(uint64_t key) const;

  nvm::NvmDevice* device_;
  PathHashLayout layout_;
  size_t live_ = 0;
};

}  // namespace pnw::index

#endif  // PNW_INDEX_PATH_HASH_INDEX_H_
