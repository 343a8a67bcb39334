#ifndef PNW_NVM_START_GAP_H_
#define PNW_NVM_START_GAP_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/nvm/nvm_device.h"
#include "src/util/status.h"

namespace pnw::nvm {

/// The remapper's complete translation state: two address registers plus
/// the write-interval and movement counters. In hardware these are a few
/// on-controller registers; here they are exactly what a checkpoint must
/// serialize (and recovery restore) for logical->physical translation to
/// survive a restart -- the data zone's bytes are meaningless without them.
struct StartGapRegisters {
  uint64_t start = 0;
  uint64_t gap = 0;
  uint64_t writes_since_move = 0;
  uint64_t gap_moves = 0;
  uint64_t rotations = 0;
};

/// Start-Gap wear leveling (Qureshi et al., MICRO'09): the canonical
/// low-overhead PCM address-rotation scheme, provided as an orthogonal
/// substrate to PNW's content-aware placement. PNW levels wear *within* the
/// traffic it sees (paper Section VI-G); Start-Gap additionally protects
/// against adversarial or residual hot spots by slowly rotating every
/// logical block through physical locations.
///
/// Mechanism: `num_blocks` logical blocks map onto `num_blocks + 1`
/// physical slots; one slot (the *gap*) is empty. Every `gap_write_interval`
/// block writes, the block just above the gap moves into it and the gap
/// shifts down one slot; after num_blocks+1 movements the *start* pointer
/// advances, completing one full rotation. Translation is O(1) arithmetic
/// from two registers (start, gap) -- no remap table.
class StartGapRemapper {
 public:
  /// Manages `num_blocks` logical blocks of `block_bytes` each, stored at
  /// [base, base + (num_blocks + 1) * block_bytes) on `device`.
  /// `gap_write_interval` is the psi parameter of the paper (writes between
  /// gap movements; Qureshi et al. use 100).
  StartGapRemapper(NvmDevice* device, uint64_t base, size_t num_blocks,
                   size_t block_bytes, size_t gap_write_interval = 100);

  /// Total device bytes required for a configuration.
  static size_t StorageBytes(size_t num_blocks, size_t block_bytes) {
    return (num_blocks + 1) * block_bytes;
  }

  /// Physical byte address currently backing `logical_block`.
  /// Pre-condition: logical_block < num_blocks(). Safe without the owning
  /// store's lock: the seqlock GET translates lock-free, and a racing gap
  /// move can then yield an address that was never current -- the
  /// caller's seqlock validation discards the read in exactly that case.
  uint64_t Translate(size_t logical_block) const;

  /// Write `data` (exactly block_bytes) to a logical block, performing the
  /// differential write at its current physical slot and advancing the gap
  /// when the write interval elapses (the gap move itself costs one block
  /// copy, accounted on the device like any other write).
  Result<WriteResult> WriteBlock(size_t logical_block,
                                 std::span<const uint8_t> data);

  /// Read a logical block's current content.
  Status ReadBlock(size_t logical_block, std::span<uint8_t> out);

  /// Advance the write interval after the caller performed (and accounted)
  /// a block write at Translate() itself -- the integration point for a
  /// store that owns its device writes (PnwStore writes buckets through its
  /// own accounting scopes and only delegates rotation here). Returns true
  /// when the interval elapsed and the gap moved; in that case
  /// `*moved_physical` (if non-null) receives the physical byte address the
  /// displaced block was copied to, so the caller can charge that copy to
  /// its wear histograms. On a gap-move failure the interval counter stays
  /// saturated, so the next successful write retries the move.
  Result<bool> AdvanceAfterWrite(uint64_t* moved_physical = nullptr);

  /// Translation-state snapshot for checkpointing.
  StartGapRegisters registers() const {
    return StartGapRegisters{start_.load(std::memory_order_relaxed),
                             gap_.load(std::memory_order_relaxed),
                             writes_since_move_, gap_moves_, rotations_};
  }
  /// Restore checkpointed registers verbatim (recovery path). Rejects
  /// registers that cannot address this geometry with InvalidArgument.
  Status RestoreRegisters(const StartGapRegisters& regs);

  size_t num_blocks() const { return num_blocks_; }
  size_t block_bytes() const { return block_bytes_; }
  size_t gap_write_interval() const { return gap_write_interval_; }
  /// Completed full rotations of the start pointer.
  uint64_t rotations() const { return rotations_; }
  /// Gap movements performed so far.
  uint64_t gap_moves() const { return gap_moves_; }

 private:
  /// Move the block above the gap into the gap slot; shift the gap. On
  /// success `*moved_physical` (if non-null) receives the copy destination.
  Status MoveGap(uint64_t* moved_physical);

  NvmDevice* device_;
  uint64_t base_;
  size_t num_blocks_;
  size_t block_bytes_;
  size_t gap_write_interval_;
  /// The two translation registers are relaxed atomics so the seqlock GET
  /// can run Translate without the lock.
  /// Mutations still happen only under the owning store's exclusive lock;
  /// the counters below are never read concurrently and stay plain.
  std::atomic<uint64_t> gap_{0};    // physical slot index of the gap
  std::atomic<uint64_t> start_{0};  // rotation offset
  uint64_t writes_since_move_ = 0;
  uint64_t gap_moves_ = 0;
  uint64_t rotations_ = 0;
  /// Gap-move staging buffer; capacity persists so steady-state rotation
  /// allocates nothing (gap moves happen inside the store's write path).
  std::vector<uint8_t> move_scratch_;
};

}  // namespace pnw::nvm

#endif  // PNW_NVM_START_GAP_H_
