#include "src/schemes/minshift.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/util/hamming.h"

namespace pnw::schemes {

void RotateBitsLeft(std::span<const uint8_t> data, size_t shift_bits,
                    std::span<uint8_t> out) {
  const size_t num_bytes = data.size();
  const size_t num_bits = num_bytes * 8;
  if (num_bits == 0) {
    return;
  }
  shift_bits %= num_bits;
  const size_t byte_shift = shift_bits / 8;
  const unsigned bit_shift = static_cast<unsigned>(shift_bits % 8);
  if (bit_shift == 0) {
    for (size_t i = 0; i < num_bytes; ++i) {
      out[i] = data[(i + byte_shift) % num_bytes];
    }
    return;
  }
  // Output bit j takes input bit (j + shift) mod n, LSB-first within bytes.
  for (size_t i = 0; i < num_bytes; ++i) {
    const uint8_t lo = data[(i + byte_shift) % num_bytes];
    const uint8_t hi = data[(i + byte_shift + 1) % num_bytes];
    out[i] = static_cast<uint8_t>((lo >> bit_shift) |
                                  (hi << (8 - bit_shift)));
  }
}

MinShiftScheme::MinShiftScheme(nvm::NvmDevice* device,
                               size_t data_region_bytes, size_t block_bytes,
                               size_t max_candidates)
    : device_(device),
      data_region_bytes_(data_region_bytes),
      block_bytes_(block_bytes),
      max_candidates_(std::max<size_t>(1, max_candidates)) {}

Result<nvm::WriteResult> MinShiftScheme::Write(uint64_t addr,
                                               std::span<const uint8_t> data) {
  if (addr % block_bytes_ != 0 || data.size() != block_bytes_) {
    return Status::InvalidArgument(
        "MinShift writes must cover exactly one aligned block");
  }
  const size_t num_bits = data.size() * 8;
  std::span<const uint8_t> old_data = device_->Peek(addr, data.size());

  // Candidate rotations: exhaustive for small blocks, evenly spaced
  // otherwise (documented best-effort cap).
  std::vector<size_t> candidates;
  if (num_bits <= kExhaustiveBits) {
    candidates.resize(num_bits);
    for (size_t s = 0; s < num_bits; ++s) {
      candidates[s] = s;
    }
  } else {
    const size_t c = std::min(max_candidates_, num_bits);
    candidates.reserve(c);
    for (size_t i = 0; i < c; ++i) {
      candidates.push_back(i * num_bits / c);
    }
  }

  std::vector<uint8_t> rotated(data.size());
  std::vector<uint8_t> best(data.begin(), data.end());
  size_t best_shift = 0;
  uint64_t best_cost = HammingDistance(old_data, data);
  for (size_t s : candidates) {
    if (s == 0) {
      continue;
    }
    RotateBitsLeft(data, s, rotated);
    const uint64_t cost = HammingDistance(old_data, rotated);
    if (cost < best_cost) {
      best_cost = cost;
      best_shift = s;
      best = rotated;
    }
  }

  auto payload = device_->WriteDifferential(addr, best);
  if (!payload.ok()) {
    return payload.status();
  }

  // Persist the 16-bit shift field for this block.
  const uint64_t block_index = addr / block_bytes_;
  uint8_t shift_bytes[kShiftFieldBytes] = {
      static_cast<uint8_t>(best_shift & 0xff),
      static_cast<uint8_t>((best_shift >> 8) & 0xff)};
  auto meta = device_->WriteDifferential(
      data_region_bytes_ + block_index * kShiftFieldBytes,
      std::span<const uint8_t>(shift_bytes, kShiftFieldBytes));
  if (!meta.ok()) {
    return meta.status();
  }

  nvm::WriteResult result = payload.value();
  result.bits_written += meta.value().bits_written;
  result.words_written += meta.value().words_written;
  result.lines_written += meta.value().lines_written;
  result.lines_read += meta.value().lines_read;
  result.latency_ns += meta.value().latency_ns;
  return result;
}

Result<std::vector<uint8_t>> MinShiftScheme::ReadDecoded(uint64_t addr,
                                                         size_t len) {
  if (addr % block_bytes_ != 0 || len != block_bytes_) {
    return Status::InvalidArgument(
        "MinShift reads must cover exactly one aligned block");
  }
  std::vector<uint8_t> stored(len);
  PNW_RETURN_IF_ERROR(device_->Read(addr, stored));
  const uint64_t block_index = addr / block_bytes_;
  std::span<const uint8_t> meta = device_->Peek(
      data_region_bytes_ + block_index * kShiftFieldBytes, kShiftFieldBytes);
  const size_t shift = static_cast<size_t>(meta[0]) |
                       (static_cast<size_t>(meta[1]) << 8);
  // The stored image is the logical value rotated left by `shift`; undo by
  // rotating left by (bits - shift).
  const size_t num_bits = len * 8;
  std::vector<uint8_t> out(len);
  RotateBitsLeft(stored, (num_bits - shift % num_bits) % num_bits, out);
  return out;
}

}  // namespace pnw::schemes
