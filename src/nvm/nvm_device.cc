#include "src/nvm/nvm_device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/atomic_bytes.h"
#include "src/util/hamming.h"
#include "src/util/simd.h"

namespace pnw::nvm {

namespace {

util::Arena::Options DeviceArenaOptions(const NvmConfig& config) {
  util::Arena::Options options;
  options.huge_pages = config.huge_pages;
  return options;
}

}  // namespace

NvmDevice::NvmDevice(const NvmConfig& config)
    : config_(config),
      latency_model_(config.latency),
      arena_(DeviceArenaOptions(config)),
      word_write_counts_((config.size_bytes + kWordBytes - 1) / kWordBytes,
                         0),
      line_write_counts_(
          (config.size_bytes + config.cache_line_bytes - 1) /
              config.cache_line_bytes,
          0) {
  size_ = config_.size_bytes;
  data_ = static_cast<uint8_t*>(
      arena_.Allocate(size_ > 0 ? size_ : 1, /*align=*/4096));
  std::memset(data_, 0, size_);  // mmap zeroes, the fallback path may not
  if (config_.track_bit_wear) {
    bit_write_counts_.assign(config_.size_bytes * 8, 0);
  }
}

Status NvmDevice::CheckRange(uint64_t addr, size_t len) const {
  if (addr + len > size_ || addr + len < addr) {
    return Status::InvalidArgument("NVM access out of bounds");
  }
  return Status::OK();
}

Status NvmDevice::ConsumeWriteFault() {
  if (fault_count_ == 0) {
    return Status::OK();
  }
  if (fault_skip_ > 0) {
    --fault_skip_;
    return Status::OK();
  }
  --fault_count_;
  return Status::Internal("injected NVM write fault");
}

Status NvmDevice::Read(uint64_t addr, std::span<uint8_t> out) {
  PNW_RETURN_IF_ERROR(CheckRange(addr, out.size()));
  std::memcpy(out.data(), data_ + addr, out.size());
  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line =
      out.empty() ? first_line
                  : (addr + out.size() - 1) / config_.cache_line_bytes;
  const uint64_t lines = last_line - first_line + 1;
  counters_.total_lines_read += lines;
  counters_.total_read_ops += 1;
  counters_.total_latency_ns += latency_model_.NvmReadCostNs(lines);
  return Status::OK();
}

std::span<const uint8_t> NvmDevice::Peek(uint64_t addr, size_t len) const {
  if (!CheckRange(addr, len).ok()) {
    return {};
  }
  return std::span<const uint8_t>(data_ + addr, len);
}

double NvmDevice::ReadCostNs(uint64_t addr, size_t len) const {
  // Same line-spanning arithmetic as Read(), so a Peek+ReadCostNs pair is
  // accounted identically to the serialized Read() path.
  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line =
      len == 0 ? first_line : (addr + len - 1) / config_.cache_line_bytes;
  return latency_model_.NvmReadCostNs(last_line - first_line + 1);
}

Result<WriteResult> NvmDevice::WriteConventional(
    uint64_t addr, std::span<const uint8_t> data) {
  PNW_RETURN_IF_ERROR(CheckRange(addr, data.size()));
  PNW_RETURN_IF_ERROR(ConsumeWriteFault());
  WriteResult result;
  result.bits_written = data.size() * 8;

  // Every word and line covered by the range is rewritten.
  const uint64_t first_word = addr / kWordBytes;
  const uint64_t last_word =
      data.empty() ? first_word : (addr + data.size() - 1) / kWordBytes;
  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line =
      data.empty() ? first_line
                   : (addr + data.size() - 1) / config_.cache_line_bytes;
  result.words_written = data.empty() ? 0 : last_word - first_word + 1;
  result.lines_written = data.empty() ? 0 : last_line - first_line + 1;

  if (!data.empty()) {
    for (uint64_t w = first_word; w <= last_word; ++w) {
      ++word_write_counts_[w];
    }
    for (uint64_t l = first_line; l <= last_line; ++l) {
      ++line_write_counts_[l];
    }
    if (config_.track_bit_wear) {
      // Bulk increment of the contiguous bit range -- a conventional write
      // wears every covered cell, so no per-bit predicate is needed and
      // the loop reduces to += 1 over a dense slice (auto-vectorizable).
      const auto first = bit_write_counts_.begin() +
                         static_cast<ptrdiff_t>(addr * 8);
      const auto last = first + static_cast<ptrdiff_t>(data.size() * 8);
      for (auto it = first; it != last; ++it) {
        ++*it;
      }
    }
  }
  util::AtomicStoreBytes(data_ + addr, data.data(), data.size());

  result.latency_ns = latency_model_.NvmWriteCostNs(result.lines_written);
  counters_.total_bits_written += result.bits_written;
  counters_.total_words_written += result.words_written;
  counters_.total_lines_written += result.lines_written;
  counters_.total_write_ops += 1;
  counters_.total_payload_bits += data.size() * 8;
  counters_.total_latency_ns += result.latency_ns;
  return result;
}

void NvmDevice::DiffWords(uint64_t addr, std::span<const uint8_t> data,
                          WriteResult* result) {
  // Word-at-a-time on the device's 8-byte word grid. The fully covered
  // words are diffed in 64-word blocks: one dispatched dirty_mask64 pass
  // per block (XOR + popcount + compare, 32 bytes a step on AVX2) yields
  // the block's flipped-bit total and a mask of its dirty words, and the
  // loop below walks the mask's set bits -- a fixed 8-byte store plus the
  // word/line counters per dirty word, no call. The store's writes dirty
  // most words (about 71% on paper_replace, 79% on ycsb_a_durable, 88% on
  // ycsb_b_wire), so one pass beats a skip-ahead scan that stops at every
  // dirty word. Only a partial head or tail word takes the zero-padded
  // path (equal padding XORs to zero). Words are visited in address order
  // and never straddle a cache line (kWordBytes | cache_line_bytes), so a
  // line is counted once, when its first dirty word is met.
  constexpr size_t wb = kWordBytes;
  static_assert(wb == 8,
                "dirty_mask64 and AtomicStoreBytes8 work on 8-byte words");
  const uint64_t end = addr + data.size();
  const bool track_bits = config_.track_bit_wear;
  const uint64_t last_word = (end - 1) / wb;
  const uint64_t line_words = config_.cache_line_bytes / wb;
  // Tallies and counter bases live in locals: the byte stores below may
  // alias any memory, so members would be reloaded after every store.
  uint64_t bits = 0;
  uint64_t words = 0;
  uint64_t lines = 0;
  uint32_t* const word_counts = word_write_counts_.data();
  uint32_t* const line_counts = line_write_counts_.data();
  uint64_t line_end = 0;  // first word past the last line dirtied so far

  auto account_word = [&](uint64_t w) {
    ++words;
    ++word_counts[w];
    if (w >= line_end) {
      const uint64_t line = w / line_words;
      line_end = (line + 1) * line_words;
      ++lines;
      ++line_counts[line];
    }
  };
  // Rare, memory-heavy mode: attribute changed bits bytewise (endian-
  // independent) before the resident bytes are overwritten.
  auto attribute_bits = [&](uint64_t lo, const uint8_t* resident,
                            const uint8_t* incoming, size_t len) {
    for (size_t j = 0; j < len; ++j) {
      uint8_t d = static_cast<uint8_t>(resident[j] ^ incoming[j]);
      while (d) {
        const int bit = std::countr_zero(d);
        ++bit_write_counts_[(lo + j) * 8 + static_cast<uint64_t>(bit)];
        d = static_cast<uint8_t>(d & (d - 1));
      }
    }
  };
  auto partial_word = [&](uint64_t w) {
    const uint64_t lo = std::max<uint64_t>(addr, w * wb);
    const uint64_t hi = std::min<uint64_t>(end, (w + 1) * wb);
    const size_t len = hi - lo;
    uint8_t* resident = data_ + lo;
    const uint8_t* incoming = data.data() + (lo - addr);
    uint64_t old_word = 0;
    uint64_t new_word = 0;
    std::memcpy(&old_word, resident, len);
    std::memcpy(&new_word, incoming, len);
    const uint64_t diff = old_word ^ new_word;
    if (diff == 0) {
      return;
    }
    bits += static_cast<uint64_t>(std::popcount(diff));
    if (track_bits) {
      attribute_bits(lo, resident, incoming, len);
    }
    util::AtomicStoreBytes(resident, incoming, len);
    account_word(w);
  };

  // Word grid split: at most one partial head word, a run of fully covered
  // words, at most one partial tail word. (A single word partial on both
  // ends makes full_begin > full_end; the head loop then covers it alone.)
  const uint64_t full_begin = (addr + wb - 1) / wb;
  const uint64_t full_end = end / wb;
  uint64_t w = addr / wb;
  for (; w <= last_word && w < full_begin; ++w) {
    partial_word(w);
  }
  const auto dirty_mask64 = simd::Kernels().dirty_mask64;
  for (uint64_t block = full_begin; block < full_end; block += 64) {
    const size_t block_words = std::min<uint64_t>(64, full_end - block);
    uint8_t* resident = data_ + block * wb;
    const uint8_t* incoming = data.data() + (block * wb - addr);
    uint64_t flipped = 0;
    uint64_t mask = dirty_mask64(resident, incoming, block_words, &flipped);
    bits += flipped;
    for (; mask != 0; mask &= mask - 1) {
      const size_t j = static_cast<size_t>(std::countr_zero(mask));
      if (track_bits) {
        attribute_bits((block + j) * wb, resident + j * wb,
                       incoming + j * wb, wb);
      }
      util::AtomicStoreBytes8(resident + j * wb, incoming + j * wb);
      account_word(block + j);
    }
  }
  for (w = std::max(full_begin, full_end); w <= last_word; ++w) {
    partial_word(w);
  }
  result->bits_written += bits;
  result->words_written += words;
  result->lines_written += lines;
}

Result<WriteResult> NvmDevice::WriteDifferential(
    uint64_t addr, std::span<const uint8_t> data) {
  PNW_RETURN_IF_ERROR(CheckRange(addr, data.size()));
  PNW_RETURN_IF_ERROR(ConsumeWriteFault());
  WriteResult result;
  if (data.empty()) {
    return result;
  }

  const uint64_t first_line = addr / config_.cache_line_bytes;
  const uint64_t last_line = (addr + data.size() - 1) / config_.cache_line_bytes;
  // Read-before-write: the old content of every covered line is read once.
  result.lines_read = last_line - first_line + 1;

  DiffWords(addr, data, &result);

  result.latency_ns = latency_model_.NvmReadCostNs(result.lines_read) +
                      latency_model_.NvmWriteCostNs(result.lines_written);
  counters_.total_bits_written += result.bits_written;
  counters_.total_words_written += result.words_written;
  counters_.total_lines_written += result.lines_written;
  counters_.total_lines_read += result.lines_read;
  counters_.total_write_ops += 1;
  counters_.total_payload_bits += data.size() * 8;
  counters_.total_latency_ns += result.latency_ns;
  return result;
}

Status NvmDevice::RestoreState(std::span<const uint8_t> contents,
                               const NvmCounters& counters,
                               std::span<const uint32_t> word_counts,
                               std::span<const uint32_t> line_counts,
                               std::span<const uint16_t> bit_counts) {
  if (contents.size() != size_ ||
      word_counts.size() != word_write_counts_.size() ||
      line_counts.size() != line_write_counts_.size() ||
      bit_counts.size() != bit_write_counts_.size()) {
    return Status::Corruption(
        "checkpointed device state does not match this device's geometry");
  }
  util::AtomicStoreBytes(data_, contents.data(), contents.size());
  std::copy(word_counts.begin(), word_counts.end(),
            word_write_counts_.begin());
  std::copy(line_counts.begin(), line_counts.end(),
            line_write_counts_.begin());
  std::copy(bit_counts.begin(), bit_counts.end(), bit_write_counts_.begin());
  counters_ = counters;
  return Status::OK();
}

void NvmDevice::ResetCounters() {
  counters_ = NvmCounters{};
  std::fill(word_write_counts_.begin(), word_write_counts_.end(), 0);
  std::fill(line_write_counts_.begin(), line_write_counts_.end(), 0);
  std::fill(bit_write_counts_.begin(), bit_write_counts_.end(), 0);
}

}  // namespace pnw::nvm
