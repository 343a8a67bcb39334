#ifndef PNW_UTIL_HAMMING_H_
#define PNW_UTIL_HAMMING_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/util/simd.h"

namespace pnw {

/// Bit-level distance kernels. These are the innermost loops of both the
/// NVM simulator's differential-write accounting and the baseline write
/// schemes. Both span forms route through the runtime-dispatched kernel
/// table (src/util/simd.h) so there is exactly one popcount-distance
/// implementation per ISA — the word-at-a-time scalar reference lives in
/// kernels_scalar.cc, and tests/kernels_test.cc keeps every target
/// bit-identical to a naive byte loop.

/// Number of set bits in a byte span.
inline uint64_t PopCount(std::span<const uint8_t> data) {
  return simd::Kernels().popcount_bytes(data.data(), data.size());
}

/// Hamming distance between two equal-length byte spans, in bits.
/// Pre-condition: a.size() == b.size().
inline uint64_t HammingDistance(std::span<const uint8_t> a,
                                std::span<const uint8_t> b) {
  return simd::Kernels().hamming_bytes(a.data(), b.data(), a.size());
}

/// Hamming distance between two 64-bit words.
inline uint32_t HammingDistance64(uint64_t a, uint64_t b) {
  return static_cast<uint32_t>(std::popcount(a ^ b));
}

}  // namespace pnw

#endif  // PNW_UTIL_HAMMING_H_
