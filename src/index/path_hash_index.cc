#include "src/index/path_hash_index.h"

#include <cstring>

namespace pnw::index {

namespace {

constexpr uint8_t kLiveFlag = 0x1;

}  // namespace

PathHashIndex::PathHashIndex(nvm::NvmDevice* device, uint64_t base,
                             size_t num_root_cells, size_t num_levels)
    : device_(device), layout_(base, num_root_cells, num_levels, kCellBytes) {}

size_t PathHashIndex::StorageBytes(size_t num_root_cells, size_t num_levels) {
  return PathHashLayout(0, num_root_cells, num_levels, kCellBytes).bytes();
}

PathHashIndex::Cell PathHashIndex::LoadCell(uint64_t cell_addr) const {
  std::span<const uint8_t> raw = device_->Peek(cell_addr, kCellBytes);
  Cell cell{};
  std::memcpy(&cell.key, raw.data(), 8);
  std::memcpy(&cell.addr, raw.data() + 8, 8);
  cell.flags = raw[16];
  return cell;
}

Status PathHashIndex::StoreCell(uint64_t cell_addr, const Cell& cell) {
  uint8_t raw[kCellBytes] = {};
  std::memcpy(raw, &cell.key, 8);
  std::memcpy(raw + 8, &cell.addr, 8);
  raw[16] = cell.flags;
  auto result = device_->WriteDifferential(
      cell_addr, std::span<const uint8_t>(raw, kCellBytes));
  return result.ok() ? Status::OK() : result.status();
}

Result<uint64_t> PathHashIndex::Locate(uint64_t key) const {
  const auto cell = layout_.Probe(key, [&](uint64_t cell_addr) {
    const Cell c = LoadCell(cell_addr);
    return (c.flags & kLiveFlag) && c.key == key;
  });
  if (!cell.has_value()) {
    return Status::NotFound("key not in path-hash index");
  }
  return *cell;
}

void PathHashIndex::RebuildLiveCount() {
  live_ = 0;
  layout_.ForEachCell([&](uint64_t cell_addr) {
    if (LoadCell(cell_addr).flags & kLiveFlag) {
      ++live_;
    }
  });
}

Status PathHashIndex::Put(uint64_t key, uint64_t addr) {
  // Overwrite in place if the key is already present.
  auto existing = Locate(key);
  if (existing.ok()) {
    Cell cell = LoadCell(existing.value());
    cell.addr = addr;
    return StoreCell(existing.value(), cell);
  }
  const auto free_cell = layout_.Probe(key, [&](uint64_t cell_addr) {
    return !(LoadCell(cell_addr).flags & kLiveFlag);
  });
  if (!free_cell.has_value()) {
    return Status::OutOfSpace("path-hash index: all path cells occupied");
  }
  PNW_RETURN_IF_ERROR(StoreCell(*free_cell, Cell{key, addr, kLiveFlag}));
  ++live_;
  return Status::OK();
}

Result<uint64_t> PathHashIndex::Get(uint64_t key) const {
  auto cell_addr = Locate(key);
  if (!cell_addr.ok()) {
    return cell_addr.status();
  }
  return LoadCell(cell_addr.value()).addr;
}

Status PathHashIndex::Delete(uint64_t key) {
  auto cell_addr = Locate(key);
  if (!cell_addr.ok()) {
    return cell_addr.status();
  }
  Cell cell = LoadCell(cell_addr.value());
  // The paper deletes by resetting the flag bit only -- a single-bit NVM
  // update -- leaving key/addr bytes in place.
  cell.flags = static_cast<uint8_t>(cell.flags & ~kLiveFlag);
  PNW_RETURN_IF_ERROR(StoreCell(cell_addr.value(), cell));
  --live_;
  return Status::OK();
}

}  // namespace pnw::index
