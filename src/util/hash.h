// The two 64-bit hash mixers of the codebase, each defined once. Store
// keys are often sequential, so every hash table and router mixes a key
// before masking it to a power-of-two size.
#ifndef PNW_UTIL_HASH_H_
#define PNW_UTIL_HASH_H_

#include <cstdint>

namespace pnw::util {

/// SplitMix64's increment (the golden-ratio gamma).
inline constexpr uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// SplitMix64 (Steele et al.): the output of one generator step from
/// state `x`, i.e. its finalizer applied to x + gamma.
constexpr uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + kSplitMix64Gamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// MurmurHash3's 64-bit finalizer (fmix64).
constexpr uint64_t Fmix64(uint64_t x) {
  x = (x ^ (x >> 33)) * 0xff51afd7ed558ccdull;
  x = (x ^ (x >> 33)) * 0xc4ceb9fe1a85ec53ull;
  return x ^ (x >> 33);
}

}  // namespace pnw::util

#endif  // PNW_UTIL_HASH_H_
