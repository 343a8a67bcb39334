#ifndef PNW_PERSIST_CRC32_H_
#define PNW_PERSIST_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace pnw::persist {

/// Reflected CRC-32 (IEEE 802.3 polynomial 0xEDB88320, the zlib/gzip
/// variant). Every on-disk artifact of the durability subsystem -- snapshot
/// sections and op-log records -- carries one of these so recovery can
/// distinguish "torn tail / bit rot" from "valid state" before trusting a
/// single byte of it. Computed by the dispatched kernel
/// (simd::KernelTable::crc32_update), whose every table gives the same
/// value, so a file written under one ISA opens under any other.
uint32_t Crc32(std::span<const uint8_t> data);

/// Incremental form: feed `data` into a running checksum. Start from
/// `kCrc32Init` and finish with `Crc32Finish`.
inline constexpr uint32_t kCrc32Init = 0xFFFFFFFFu;
uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data);
inline uint32_t Crc32Finish(uint32_t state) { return state ^ 0xFFFFFFFFu; }

}  // namespace pnw::persist

#endif  // PNW_PERSIST_CRC32_H_
