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
  // Word-at-a-time: the span is walked in kWordBytes(=8) units aligned to
  // the device's word grid -- a partial head/tail unit is loaded through a
  // short zero-padded memcpy (equal padding XORs to zero), a full unit
  // through a single unaligned 8-byte load. One XOR + popcount decides a
  // whole word; clean words cost no byte work at all, and the fully-covered
  // middle region is scanned for dirty words by the dispatched
  // next_dirty_word kernel (32 bytes per compare on AVX2), which only ever
  // skips words this loop would `continue` over -- the accounting below is
  // bit-identical to visiting every word. Because a word unit never
  // straddles a cache line (kWordBytes | cache_line_bytes), per-unit line
  // attribution is exact, and because units are visited in address order
  // the `prev_line` dedup counts each dirtied line once.
  constexpr size_t wb = kWordBytes;
  const uint64_t end = addr + data.size();
  const bool track_bits = config_.track_bit_wear;
  uint64_t prev_line = UINT64_MAX;
  const uint64_t last_word = (end - 1) / wb;

  auto process_word = [&](uint64_t w) {
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
    result->bits_written += std::popcount(diff);
    if (track_bits) {
      // Rare, memory-heavy mode: attribute changed bits bytewise (endian-
      // independent) before the resident bytes are overwritten.
      for (size_t j = 0; j < len; ++j) {
        uint8_t d = static_cast<uint8_t>(resident[j] ^ incoming[j]);
        while (d) {
          const int bit = std::countr_zero(d);
          ++bit_write_counts_[(lo + j) * 8 + static_cast<uint64_t>(bit)];
          d = static_cast<uint8_t>(d & (d - 1));
        }
      }
    }
    util::AtomicStoreBytes(resident, incoming, len);
    ++result->words_written;
    ++word_write_counts_[w];
    const uint64_t line = lo / config_.cache_line_bytes;
    if (line != prev_line) {
      ++result->lines_written;
      ++line_write_counts_[line];
      prev_line = line;
    }
  };

  // Word grid split: at most one partial head word, a run of fully covered
  // words, at most one partial tail word. (A single word partial on both
  // ends makes full_begin > full_end; the head loop then covers it alone.)
  const uint64_t full_begin = (addr + wb - 1) / wb;
  const uint64_t full_end = end / wb;
  uint64_t w = addr / wb;
  for (; w <= last_word && w < full_begin; ++w) {
    process_word(w);
  }
  if (full_begin < full_end) {
    const uint8_t* resident_base = data_ + full_begin * wb;
    const uint8_t* incoming_base = data.data() + (full_begin * wb - addr);
    const size_t words = full_end - full_begin;
    const auto next_dirty = simd::Kernels().next_dirty_word;
    for (size_t idx = next_dirty(resident_base, incoming_base, 0, words);
         idx < words;
         idx = next_dirty(resident_base, incoming_base, idx + 1, words)) {
      process_word(full_begin + idx);
    }
  }
  for (w = std::max(full_begin, full_end); w <= last_word; ++w) {
    process_word(w);
  }
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
