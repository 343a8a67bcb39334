#include "src/nvm/start_gap.h"

namespace pnw::nvm {

StartGapRemapper::StartGapRemapper(NvmDevice* device, uint64_t base,
                                   size_t num_blocks, size_t block_bytes,
                                   size_t gap_write_interval)
    : device_(device),
      base_(base),
      num_blocks_(num_blocks),
      block_bytes_(block_bytes),
      gap_write_interval_(gap_write_interval == 0 ? 1 : gap_write_interval),
      gap_(num_blocks) {}  // the spare slot at the top starts as the gap

uint64_t StartGapRemapper::Translate(size_t logical_block) const {
  // The i-th non-gap physical slot is i for i < gap, else i + 1; logical
  // blocks occupy non-gap slots rotated by start_.
  const size_t idx =
      (logical_block + start_.load(std::memory_order_relaxed)) % num_blocks_;
  const size_t slot =
      idx < gap_.load(std::memory_order_relaxed) ? idx : idx + 1;
  return base_ + slot * block_bytes_;
}

Status StartGapRemapper::MoveGap(uint64_t* moved_physical) {
  move_scratch_.resize(block_bytes_);
  const uint64_t gap = gap_.load(std::memory_order_relaxed);
  uint64_t src = 0;
  uint64_t dst = 0;
  if (gap > 0) {
    // Slide the block just below the gap up into it.
    src = base_ + (gap - 1) * block_bytes_;
    dst = base_ + gap * block_bytes_;
  } else {
    // Gap wrapped: the top slot's block moves to slot 0 and the start
    // pointer advances, completing one rotation step.
    src = base_ + num_blocks_ * block_bytes_;
    dst = base_;
  }
  PNW_RETURN_IF_ERROR(device_->Read(src, move_scratch_));
  auto write = device_->WriteDifferential(dst, move_scratch_);
  if (!write.ok()) {
    return write.status();
  }
  if (gap > 0) {
    gap_.store(gap - 1, std::memory_order_relaxed);
  } else {
    gap_.store(num_blocks_, std::memory_order_relaxed);
    start_.store(
        (start_.load(std::memory_order_relaxed) + 1) % num_blocks_,
        std::memory_order_relaxed);
    ++rotations_;
  }
  ++gap_moves_;
  if (moved_physical != nullptr) {
    *moved_physical = dst;
  }
  return Status::OK();
}

Result<bool> StartGapRemapper::AdvanceAfterWrite(uint64_t* moved_physical) {
  if (++writes_since_move_ < gap_write_interval_) {
    return false;
  }
  // Reset the interval only after the move lands: a failed move (an
  // injected device fault) keeps the counter saturated, so the very next
  // write retries instead of silently skipping a rotation step.
  PNW_RETURN_IF_ERROR(MoveGap(moved_physical));
  writes_since_move_ = 0;
  return true;
}

Status StartGapRemapper::RestoreRegisters(const StartGapRegisters& regs) {
  if (regs.start >= num_blocks_ || regs.gap > num_blocks_) {
    return Status::InvalidArgument(
        "start-gap registers do not address this geometry");
  }
  start_ = regs.start;
  gap_ = regs.gap;
  writes_since_move_ = regs.writes_since_move;
  gap_moves_ = regs.gap_moves;
  rotations_ = regs.rotations;
  return Status::OK();
}

Result<WriteResult> StartGapRemapper::WriteBlock(
    size_t logical_block, std::span<const uint8_t> data) {
  if (logical_block >= num_blocks_ || data.size() != block_bytes_) {
    return Status::InvalidArgument("start-gap: bad block or size");
  }
  auto result = device_->WriteDifferential(Translate(logical_block), data);
  if (!result.ok()) {
    return result;
  }
  auto advanced = AdvanceAfterWrite();
  if (!advanced.ok()) {
    return advanced.status();
  }
  return result;
}

Status StartGapRemapper::ReadBlock(size_t logical_block,
                                   std::span<uint8_t> out) {
  if (logical_block >= num_blocks_ || out.size() != block_bytes_) {
    return Status::InvalidArgument("start-gap: bad block or size");
  }
  return device_->Read(Translate(logical_block), out);
}

}  // namespace pnw::nvm
