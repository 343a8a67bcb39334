#include "src/schemes/captopril.h"

#include <algorithm>

namespace pnw::schemes {

namespace {

void Merge(nvm::WriteResult& into, const nvm::WriteResult& from) {
  into.bits_written += from.bits_written;
  into.words_written += from.words_written;
  into.lines_written += from.lines_written;
  into.lines_read += from.lines_read;
  into.latency_ns += from.latency_ns;
}

uint64_t HammingBytes(std::span<const uint8_t> a, std::span<const uint8_t> b) {
  uint64_t h = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    h += static_cast<uint64_t>(__builtin_popcount(
        static_cast<unsigned>(a[i] ^ b[i])));
  }
  return h;
}

}  // namespace

CaptoprilScheme::CaptoprilScheme(nvm::NvmDevice* device,
                                 size_t data_region_bytes, size_t block_bytes,
                                 size_t profile_writes, size_t segments)
    : device_(device),
      data_region_bytes_(data_region_bytes),
      block_bytes_(block_bytes),
      segments_(std::clamp<size_t>(segments, 1, 32)),
      flag_bytes_per_block_((std::clamp<size_t>(segments, 1, 32) + 7) / 8),
      segment_bytes_(std::max<size_t>(1, block_bytes / segments_)),
      profile_remaining_(profile_writes),
      flip_counts_(block_bytes * 8, 0) {}

void CaptoprilScheme::FreezeMask() {
  mask_.assign(block_bytes_, 0);
  if (profiled_writes_ == 0) {
    return;
  }
  // A position is "hot" if it flipped in more than half the profiled
  // writes; the mask pre-inverts hot positions so the masked candidate
  // absorbs their activity.
  const uint64_t threshold = profiled_writes_ / 2;
  for (size_t bit = 0; bit < flip_counts_.size(); ++bit) {
    if (flip_counts_[bit] > threshold) {
      mask_[bit / 8] |= static_cast<uint8_t>(1u << (bit % 8));
    }
  }
}

Result<nvm::WriteResult> CaptoprilScheme::Write(
    uint64_t addr, std::span<const uint8_t> data) {
  if (addr % block_bytes_ != 0 || data.size() != block_bytes_) {
    return Status::InvalidArgument(
        "Captopril writes must cover exactly one aligned block");
  }
  std::span<const uint8_t> old_data = device_->Peek(addr, data.size());

  if (profile_remaining_ > 0) {
    // Profiling phase: behave like DCW while building the flip histogram.
    for (size_t i = 0; i < data.size(); ++i) {
      uint8_t diff = static_cast<uint8_t>(old_data[i] ^ data[i]);
      while (diff) {
        const int b = __builtin_ctz(diff);
        ++flip_counts_[i * 8 + static_cast<size_t>(b)];
        diff = static_cast<uint8_t>(diff & (diff - 1));
      }
    }
    ++profiled_writes_;
    --profile_remaining_;
    if (profile_remaining_ == 0) {
      FreezeMask();
    }
    return device_->WriteDifferential(addr, data);
  }

  // Steady state: per segment, store plain or XOR-masked, whichever
  // updates fewer cells (counting the segment's flag bit).
  const uint64_t block_index = addr / block_bytes_;
  const uint64_t flag_addr =
      data_region_bytes_ + block_index * flag_bytes_per_block_;
  std::span<const uint8_t> old_flag_span =
      device_->Peek(flag_addr, flag_bytes_per_block_);
  uint32_t old_flags = 0;
  for (size_t i = 0; i < flag_bytes_per_block_; ++i) {
    old_flags |= static_cast<uint32_t>(old_flag_span[i]) << (8 * i);
  }
  uint32_t new_flags = old_flags;

  std::vector<uint8_t> encoded(data.begin(), data.end());
  std::vector<uint8_t> masked(segment_bytes_);
  for (size_t s = 0; s < segments_; ++s) {
    const size_t begin = s * segment_bytes_;
    if (begin >= data.size()) {
      break;
    }
    const size_t len = std::min(segment_bytes_, data.size() - begin);
    const auto old_seg = old_data.subspan(begin, len);
    const auto new_seg = data.subspan(begin, len);
    for (size_t i = 0; i < len; ++i) {
      masked[i] = static_cast<uint8_t>(new_seg[i] ^ mask_[begin + i]);
    }
    const bool old_flag = (old_flags >> s) & 1;
    const uint64_t cost_plain =
        HammingBytes(old_seg, new_seg) + (old_flag ? 1 : 0);
    const uint64_t cost_masked =
        HammingBytes(old_seg, std::span<const uint8_t>(masked.data(), len)) +
        (old_flag ? 0 : 1);
    if (cost_masked < cost_plain) {
      std::copy_n(masked.data(), len, encoded.data() + begin);
      new_flags |= uint32_t{1} << s;
    } else {
      new_flags &= ~(uint32_t{1} << s);
    }
  }

  auto payload = device_->WriteDifferential(addr, encoded);
  if (!payload.ok()) {
    return payload.status();
  }
  uint8_t flag_bytes[4] = {};
  for (size_t i = 0; i < flag_bytes_per_block_; ++i) {
    flag_bytes[i] = static_cast<uint8_t>(new_flags >> (8 * i));
  }
  auto meta = device_->WriteDifferential(
      flag_addr,
      std::span<const uint8_t>(flag_bytes, flag_bytes_per_block_));
  if (!meta.ok()) {
    return meta.status();
  }
  nvm::WriteResult result = payload.value();
  Merge(result, meta.value());
  return result;
}

Result<std::vector<uint8_t>> CaptoprilScheme::ReadDecoded(uint64_t addr,
                                                          size_t len) {
  if (addr % block_bytes_ != 0 || len != block_bytes_) {
    return Status::InvalidArgument(
        "Captopril reads must cover exactly one aligned block");
  }
  std::vector<uint8_t> out(len);
  PNW_RETURN_IF_ERROR(device_->Read(addr, out));
  if (mask_.empty()) {
    return out;  // still profiling: stored plain
  }
  const uint64_t block_index = addr / block_bytes_;
  const uint64_t flag_addr =
      data_region_bytes_ + block_index * flag_bytes_per_block_;
  std::span<const uint8_t> flag_span =
      device_->Peek(flag_addr, flag_bytes_per_block_);
  uint32_t flags = 0;
  for (size_t i = 0; i < flag_bytes_per_block_; ++i) {
    flags |= static_cast<uint32_t>(flag_span[i]) << (8 * i);
  }
  for (size_t s = 0; s < segments_; ++s) {
    if (!((flags >> s) & 1)) {
      continue;
    }
    const size_t begin = s * segment_bytes_;
    if (begin >= len) {
      break;
    }
    const size_t seg_len = std::min(segment_bytes_, len - begin);
    for (size_t i = 0; i < seg_len; ++i) {
      out[begin + i] ^= mask_[begin + i];
    }
  }
  return out;
}

}  // namespace pnw::schemes
