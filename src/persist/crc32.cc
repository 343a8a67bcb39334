#include "src/persist/crc32.h"

#include "src/util/simd.h"

namespace pnw::persist {

uint32_t Crc32Update(uint32_t state, std::span<const uint8_t> data) {
  return simd::Kernels().crc32_update(state, data.data(), data.size());
}

uint32_t Crc32(std::span<const uint8_t> data) {
  return Crc32Finish(Crc32Update(kCrc32Init, data));
}

}  // namespace pnw::persist
