#include "src/schemes/fnw.h"

#include <bit>
#include <cstring>

#include "src/util/hamming.h"

namespace pnw::schemes {

namespace {

/// Accumulate accounting from a metadata write into the payload result.
void Merge(nvm::WriteResult& into, const nvm::WriteResult& from) {
  into.bits_written += from.bits_written;
  into.words_written += from.words_written;
  into.lines_written += from.lines_written;
  into.lines_read += from.lines_read;
  into.latency_ns += from.latency_ns;
}

/// Load up to 8 bytes little-endian.
uint64_t LoadChunk(const uint8_t* p, size_t bytes) {
  uint64_t w = 0;
  std::memcpy(&w, p, bytes);
  return w;
}

void StoreChunk(uint8_t* p, uint64_t w, size_t bytes) {
  std::memcpy(p, &w, bytes);
}

}  // namespace

FnwScheme::FnwScheme(nvm::NvmDevice* device, size_t data_region_bytes,
                     size_t chunk_bits)
    : device_(device),
      data_region_bytes_(data_region_bytes),
      chunk_bits_(chunk_bits == 8 || chunk_bits == 16 || chunk_bits == 32 ||
                          chunk_bits == 64
                      ? chunk_bits
                      : kChunkBits),
      chunk_bytes_(chunk_bits_ / 8) {}

Result<nvm::WriteResult> FnwScheme::Write(uint64_t addr,
                                          std::span<const uint8_t> data) {
  if (addr % chunk_bytes_ != 0 || data.size() % chunk_bytes_ != 0) {
    return Status::InvalidArgument("FNW writes must be chunk-aligned");
  }
  const size_t num_chunks = data.size() / chunk_bytes_;
  const uint64_t first_chunk = addr / chunk_bytes_;
  const uint64_t chunk_mask =
      chunk_bits_ == 64 ? ~uint64_t{0} : (uint64_t{1} << chunk_bits_) - 1;

  // Old payload and current flags (RBW read is charged by the differential
  // write below, which reads every covered line).
  std::span<const uint8_t> old_data = device_->Peek(addr, data.size());
  const size_t flag_first_byte = first_chunk / 8;
  const size_t flag_last_byte = (first_chunk + num_chunks - 1) / 8;
  const size_t flag_len = flag_last_byte - flag_first_byte + 1;
  std::span<const uint8_t> old_flags =
      device_->Peek(data_region_bytes_ + flag_first_byte, flag_len);

  std::vector<uint8_t> encoded(data.size());
  std::vector<uint8_t> new_flags(old_flags.begin(), old_flags.end());

  for (size_t c = 0; c < num_chunks; ++c) {
    const uint64_t old_word =
        LoadChunk(old_data.data() + c * chunk_bytes_, chunk_bytes_);
    const uint64_t new_word =
        LoadChunk(data.data() + c * chunk_bytes_, chunk_bytes_);

    const uint64_t chunk_index = first_chunk + c;
    const size_t flag_byte = chunk_index / 8 - flag_first_byte;
    const uint8_t flag_mask = static_cast<uint8_t>(1u << (chunk_index % 8));
    const bool old_flag = (new_flags[flag_byte] & flag_mask) != 0;

    const uint64_t flipped = ~new_word & chunk_mask;
    const uint32_t cost_plain =
        static_cast<uint32_t>(std::popcount(old_word ^ new_word)) +
        (old_flag ? 1 : 0);
    const uint32_t cost_flipped =
        static_cast<uint32_t>(std::popcount(old_word ^ flipped)) +
        (old_flag ? 0 : 1);

    const bool flip = cost_flipped < cost_plain;
    StoreChunk(encoded.data() + c * chunk_bytes_,
               flip ? flipped : new_word, chunk_bytes_);
    if (flip) {
      new_flags[flag_byte] |= flag_mask;
    } else {
      new_flags[flag_byte] &= static_cast<uint8_t>(~flag_mask);
    }
  }

  auto payload = device_->WriteDifferential(addr, encoded);
  if (!payload.ok()) {
    return payload.status();
  }
  auto flags = device_->WriteDifferential(data_region_bytes_ + flag_first_byte,
                                          new_flags);
  if (!flags.ok()) {
    return flags.status();
  }
  nvm::WriteResult result = payload.value();
  Merge(result, flags.value());
  return result;
}

Result<std::vector<uint8_t>> FnwScheme::ReadDecoded(uint64_t addr,
                                                    size_t len) {
  if (addr % chunk_bytes_ != 0 || len % chunk_bytes_ != 0) {
    return Status::InvalidArgument("FNW reads must be chunk-aligned");
  }
  std::vector<uint8_t> out(len);
  PNW_RETURN_IF_ERROR(device_->Read(addr, out));
  const uint64_t first_chunk = addr / chunk_bytes_;
  const uint64_t chunk_mask =
      chunk_bits_ == 64 ? ~uint64_t{0} : (uint64_t{1} << chunk_bits_) - 1;
  for (size_t c = 0; c < len / chunk_bytes_; ++c) {
    const uint64_t chunk_index = first_chunk + c;
    const uint8_t flag_byte =
        device_->Peek(data_region_bytes_ + chunk_index / 8, 1)[0];
    if ((flag_byte >> (chunk_index % 8)) & 1) {
      uint64_t w = LoadChunk(out.data() + c * chunk_bytes_, chunk_bytes_);
      w = ~w & chunk_mask;
      StoreChunk(out.data() + c * chunk_bytes_, w, chunk_bytes_);
    }
  }
  return out;
}

}  // namespace pnw::schemes
