#include "src/kvstore/path_kv.h"

#include <cstring>
#include <optional>

namespace pnw::kvstore {

namespace {

constexpr uint8_t kLiveFlag = 0x1;

size_t RoundUp8(size_t v) { return (v + 7) & ~size_t{7}; }

}  // namespace

PathKvStore::PathKvStore(size_t capacity, size_t value_bytes,
                         size_t num_levels)
    : value_bytes_(value_bytes),
      // Cell: 8B key, 1B flags, value, padded to word alignment.
      cell_bytes_(RoundUp8(8 + 1 + value_bytes)),
      layout_(0, capacity, num_levels, cell_bytes_) {
  nvm::NvmConfig config;
  config.size_bytes = layout_.bytes();
  device_ = std::make_unique<nvm::NvmDevice>(config);
}

PathKvStore::CellHeader PathKvStore::LoadHeader(uint64_t cell_addr) const {
  std::span<const uint8_t> raw = device_->Peek(cell_addr, 9);
  CellHeader header{0, (raw[8] & kLiveFlag) != 0};
  std::memcpy(&header.key, raw.data(), 8);
  return header;
}

Result<uint64_t> PathKvStore::Locate(uint64_t key) const {
  const auto cell = layout_.Probe(key, [&](uint64_t cell_addr) {
    const CellHeader header = LoadHeader(cell_addr);
    return header.live && header.key == key;
  });
  if (!cell.has_value()) {
    return Status::NotFound("key not in path-hash store");
  }
  return *cell;
}

Status PathKvStore::Put(uint64_t key, std::span<const uint8_t> value) {
  if (value.size() != value_bytes_) {
    return Status::InvalidArgument("value size mismatch");
  }
  std::vector<uint8_t> cell(cell_bytes_, 0);
  std::memcpy(cell.data(), &key, 8);
  cell[8] = kLiveFlag;
  std::memcpy(cell.data() + 9, value.data(), value.size());

  // Overwrite in place if present, else take the first free cell on the
  // key's two paths.
  auto existing = Locate(key);
  const std::optional<uint64_t> target =
      existing.ok() ? std::optional<uint64_t>(existing.value())
                    : layout_.Probe(key, [this](uint64_t cell_addr) {
                        return !LoadHeader(cell_addr).live;
                      });
  if (!target.has_value()) {
    return Status::OutOfSpace("path-hash store: path cells exhausted");
  }
  // Path hashing is not memory-aware: the full cell is rewritten.
  auto write = device_->WriteConventional(*target, cell);
  return write.ok() ? Status::OK() : write.status();
}

Result<std::vector<uint8_t>> PathKvStore::Get(uint64_t key) {
  auto addr = Locate(key);
  if (!addr.ok()) {
    return addr.status();
  }
  std::vector<uint8_t> cell(cell_bytes_);
  PNW_RETURN_IF_ERROR(device_->Read(addr.value(), cell));
  return std::vector<uint8_t>(cell.begin() + 9,
                              cell.begin() + 9 + value_bytes_);
}

Status PathKvStore::Delete(uint64_t key) {
  auto addr = Locate(key);
  if (!addr.ok()) {
    return addr.status();
  }
  // Reset the flag byte only.
  const uint8_t zero = 0;
  auto write = device_->WriteDifferential(
      addr.value() + 8, std::span<const uint8_t>(&zero, 1));
  return write.ok() ? Status::OK() : write.status();
}

}  // namespace pnw::kvstore
