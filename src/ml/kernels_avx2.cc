// AVX2 kernels. This translation unit is compiled with -mavx2 -mpclmul on
// x86 (see src/CMakeLists.txt) and must therefore only be entered through
// the dispatch table: Avx2KernelTable() returns nullptr unless the
// *running* CPU reports AVX2 and PCLMULQDQ, so no such instruction is ever
// reached on a host without them. On non-x86 targets the whole TU
// collapses to the nullptr stub.
//
// Bit-identity with the scalar reference (see src/util/simd.h): the float
// kernels use separate _mm256_mul_ps/_mm256_add_ps (never FMA -- one
// rounding per op, exactly like the scalar striped loop, which is compiled
// with -ffp-contract=off), vector lane l accumulates exactly the elements
// scalar stripe l accumulates, and both reduce through the shared
// ReduceDotLanes/ReduceCenteredLanes trees. The integer kernels are exact.

#include "src/util/simd.h"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

namespace pnw::simd {

namespace {

float DotAvx2(const float* a, const float* b, size_t n) {
  __m256 acc = _mm256_setzero_ps();
  const size_t main = n - n % 8;
  size_t i = 0;
  for (; i < main; i += 8) {
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    acc = _mm256_add_ps(acc, prod);
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, acc);
  for (; i < n; ++i) {
    lanes[i - main] += a[i] * b[i];
  }
  return ReduceDotLanes(lanes);
}

size_t ArgminCentroidsAvx2(const float* x, const float* centroids,
                           const float* norms, size_t k, size_t dims,
                           float* best_score) {
  size_t best = 0;
  float best_val = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    const float score =
        norms[c] - 2.0f * DotAvx2(x, centroids + c * dims, dims);
    if (score < best_val) {
      best_val = score;
      best = c;
    }
  }
  *best_score = best_val;
  return best;
}

double DotCenteredAvx2(const float* a, const float* b, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  const size_t main = n - n % 4;
  size_t i = 0;
  for (; i < main; i += 4) {
    // Multiply in float (rounds exactly like the scalar reference), then
    // widen the 4 products to double and accumulate per stripe.
    const __m128 prod =
        _mm_mul_ps(_mm_loadu_ps(a + i), _mm_loadu_ps(b + i));
    acc = _mm256_add_pd(acc, _mm256_cvtps_pd(prod));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  for (; i < n; ++i) {
    lanes[i - main] += static_cast<double>(a[i] * b[i]);
  }
  return ReduceCenteredLanes(lanes);
}

/// lanes[0..4) += v, as four uint64 adds.
void AddToLanes(uint64_t* lanes, __m256i v) {
  __m256i* at = reinterpret_cast<__m256i*>(lanes);
  _mm256_storeu_si256(at, _mm256_add_epi64(_mm256_loadu_si256(at), v));
}

/// lanes[s] += the uint64 whose byte b is counts[b][s], for the 32 slots
/// s of one group: an 8x32 byte transpose by unpacks (bits 0+1, 2+3, ...
/// pair up per slot, then quads, then octets), then 64-bit adds.
void AddCountsToLanes(const __m256i (&counts)[8], uint64_t* lanes) {
  // pairs[k][h]: 16-bit (bit 2k, bit 2k+1) per slot, slots 8h..8h+7 in the
  // low 128-bit half and 16+8h..16+8h+7 in the high half.
  __m256i pairs[4][2];
  for (int k = 0; k < 4; ++k) {
    pairs[k][0] = _mm256_unpacklo_epi8(counts[2 * k], counts[2 * k + 1]);
    pairs[k][1] = _mm256_unpackhi_epi8(counts[2 * k], counts[2 * k + 1]);
  }
  for (int h = 0; h < 2; ++h) {
    // quads[q][h2]: 32-bit (bits 4q..4q+3) per slot, slots 8h+4h2..+3 in
    // the low half (+16 in the high half).
    const __m256i quads[2][2] = {
        {_mm256_unpacklo_epi16(pairs[0][h], pairs[1][h]),
         _mm256_unpackhi_epi16(pairs[0][h], pairs[1][h])},
        {_mm256_unpacklo_epi16(pairs[2][h], pairs[3][h]),
         _mm256_unpackhi_epi16(pairs[2][h], pairs[3][h])},
    };
    for (int h2 = 0; h2 < 2; ++h2) {
      // Whole slots: lo holds base, base+1 | base+16, base+17 and hi holds
      // base+2, base+3 | base+18, base+19.
      const __m256i lo = _mm256_unpacklo_epi32(quads[0][h2], quads[1][h2]);
      const __m256i hi = _mm256_unpackhi_epi32(quads[0][h2], quads[1][h2]);
      uint64_t* base = lanes + 8 * h + 4 * h2;
      AddToLanes(base, _mm256_permute2x128_si256(lo, hi, 0x20));
      AddToLanes(base + 16, _mm256_permute2x128_si256(lo, hi, 0x31));
    }
  }
}

/// The vertical count for contiguous input: `rounds` full rounds of
/// num_slots (a multiple of 32) bytes. One 32-byte load covers 32 slots of
/// a round, and each bit adds into its own byte-counter vector: after b
/// 16-bit right shifts, bit b of every byte sits at bit 0, and the and
/// with 1 drops what crossed in from the neighbouring byte. (One constant
/// and eight named counters stay in registers; an and/cmpeq per bit needs
/// eight masks, and a counter array, spills.) A counter holds 255, so a
/// group is transposed into `lanes` every 255 rounds -- once per call
/// under the encoder's chunking.
void CountBitsVertical(const uint8_t* value, size_t rounds, size_t num_slots,
                       uint64_t* lanes) {
  const __m256i one = _mm256_set1_epi8(1);
  for (size_t group = 0; group < num_slots; group += 32) {
    for (size_t r0 = 0; r0 < rounds; r0 += 255) {
      const size_t r1 = std::min(rounds, r0 + 255);
      __m256i c0 = _mm256_setzero_si256();
      __m256i c1 = c0, c2 = c0, c3 = c0, c4 = c0, c5 = c0, c6 = c0, c7 = c0;
      for (size_t r = r0; r < r1; ++r) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(value + r * num_slots + group));
        const auto count_low_bit = [&](__m256i& counter) {
          counter = _mm256_add_epi8(counter, _mm256_and_si256(v, one));
          v = _mm256_srli_epi16(v, 1);
        };
        count_low_bit(c0);
        count_low_bit(c1);
        count_low_bit(c2);
        count_low_bit(c3);
        count_low_bit(c4);
        count_low_bit(c5);
        count_low_bit(c6);
        count_low_bit(c7);
      }
      const __m256i counts[8] = {c0, c1, c2, c3, c4, c5, c6, c7};
      AddCountsToLanes(counts, lanes + group);
    }
  }
}

void EncodeAccumulateAvx2(const uint8_t* value, size_t count, size_t stride,
                          size_t num_slots, uint64_t* lanes) {
  // Full rounds (all slots) run vectorized: the vertical count for the
  // store's contiguous 32-slot-multiple shape, else four slots per
  // gather+add. Narrow folds (< 4 slots) have no room for either. Integer
  // adds are exact, so any split is bit-identical.
  size_t t = 0;
  if (stride == 1 && num_slots >= 32 && num_slots % 32 == 0) {
    const size_t rounds = count / num_slots;
    CountBitsVertical(value, rounds, num_slots, lanes);
    t = rounds * num_slots;
  } else if (num_slots >= 4) {
    const auto* spread =
        reinterpret_cast<const long long*>(kBitSpread.data());
    const size_t rounds = count / num_slots;
    const size_t slots4 = num_slots - num_slots % 4;
    for (size_t r = 0; r < rounds; ++r) {
      const size_t base = r * num_slots;
      size_t s = 0;
      for (; s < slots4; s += 4) {
        const size_t v = (base + s) * stride;
        const __m128i idx = _mm_set_epi32(
            value[v + 3 * stride], value[v + 2 * stride], value[v + stride],
            value[v]);
        AddToLanes(lanes + s, _mm256_i32gather_epi64(spread, idx, 8));
      }
      for (; s < num_slots; ++s) {
        lanes[s] += kBitSpread[value[(base + s) * stride]];
      }
    }
    t = rounds * num_slots;
  }
  // Partial tail round (and the whole stream when num_slots < 4).
  size_t slot = t % num_slots;
  for (; t < count; ++t) {
    lanes[slot] += kBitSpread[value[t * stride]];
    if (++slot == num_slots) {
      slot = 0;
    }
  }
}

/// Horizontal sum of the 4 uint64 lanes of a __m256i.
uint64_t HorizontalSum64(__m256i v) {
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), v);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

/// Mula's nibble-LUT popcount of each byte of a 32-byte vector.
__m256i PopcountEachByte(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
  return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                         _mm256_shuffle_epi8(lut, hi));
}

/// Popcount of a 32-byte vector, accumulated per 64-bit lane via SAD
/// against zero.
__m256i PopcountLanes(__m256i v) {
  return _mm256_sad_epu8(PopcountEachByte(v), _mm256_setzero_si256());
}

uint64_t PopcountBytesAvx2(const uint8_t* p, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
    acc = _mm256_add_epi64(acc, PopcountLanes(v));
  }
  uint64_t total = HorizontalSum64(acc);
  for (; i + 8 <= n; i += 8) {
    uint64_t w;
    std::memcpy(&w, p + i, 8);
    total += static_cast<uint64_t>(std::popcount(w));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(std::popcount(p[i]));
  }
  return total;
}

uint64_t HammingBytesAvx2(const uint8_t* a, const uint8_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, PopcountLanes(_mm256_xor_si256(va, vb)));
  }
  uint64_t total = HorizontalSum64(acc);
  for (; i + 8 <= n; i += 8) {
    uint64_t wa;
    uint64_t wb;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    total += static_cast<uint64_t>(std::popcount(wa ^ wb));
  }
  for (; i < n; ++i) {
    total += static_cast<uint64_t>(
        std::popcount(static_cast<uint8_t>(a[i] ^ b[i])));
  }
  return total;
}

uint64_t DirtyMask64Avx2(const uint8_t* resident, const uint8_t* incoming,
                         size_t words, uint64_t* flipped_bits) {
  // Four words per 32-byte step: cmpeq_epi64 against zero marks the clean
  // words, and their movemask is the step's nibble of the mask. A block
  // is at most 16 steps, so the per-byte popcounts (<= 8 each) sum to at
  // most 128 and stay in byte lanes until one SAD after the loop.
  const __m256i zero = _mm256_setzero_si256();
  __m256i byte_counts = zero;
  uint64_t mask = 0;
  size_t w = 0;
  for (; w + 4 <= words; w += 4) {
    const __m256i diff = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(resident + w * 8)),
        _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(incoming + w * 8)));
    const uint64_t clean = static_cast<uint64_t>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(diff, zero))));
    mask |= (clean ^ 0xf) << w;
    byte_counts = _mm256_add_epi8(byte_counts, PopcountEachByte(diff));
  }
  uint64_t bits = HorizontalSum64(_mm256_sad_epu8(byte_counts, zero));
  for (; w < words; ++w) {
    uint64_t r;
    uint64_t i;
    std::memcpy(&r, resident + w * 8, 8);
    std::memcpy(&i, incoming + w * 8, 8);
    bits += static_cast<uint64_t>(std::popcount(r ^ i));
    mask |= static_cast<uint64_t>(r != i) << w;
  }
  *flipped_bits = bits;
  return mask;
}

// CRC-32 folding with PCLMULQDQ (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel, 2009). Every
// constant is derived from P(x) = 0x104C11DB7, the normal form of the
// reflected polynomial 0xEDB88320, by GF(2) arithmetic: x^n mod P(x) by
// repeated multiplication by x with reduction by P, then bit-reflected
// over 32 bits and shifted left by one, because the carry-less product of
// two reflected operands comes out one bit low.
//   x^544 mod P -> 0x154442BD4, x^480 mod P -> 0x1C6E41596: the 512-bit
//     fold, which moves each of four 128-bit accumulators 64 bytes on;
//   x^160 mod P -> 0x1751997D0, x^96 mod P -> 0x0CCAA009E: the 128-bit
//     fold (four accumulators into one, then one 16-byte block a step);
//     x^96 alone folds the last 128 bits to 64;
//   x^64 mod P -> 0x163CD6124: folds 64 bits to 32;
//   Barrett reduction: P' = 0x1DB710641 (P(x) reflected over 33 bits) and
//     mu' = 0x1F7011641 (x^64 div P(x) = 0x104D101DF, reflected over 33
//     bits).
// A wrong constant fails KernelsTest.Crc32MatchesBitwiseReference.

/// acc's 64-bit halves carry-less multiplied by k's matching halves (low
/// by low, high by high), xored into `next`: acc moved on by the fold
/// distance k encodes and added to the block there.
__m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

__m128i Load16(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// The raw state after p[0, n), for n >= 64 and a multiple of 16: four
/// accumulators fold 64 bytes a step, fold into one, take the remaining
/// 16-byte blocks, and reduce 128 -> 64 -> 32 bits (Barrett last).
uint32_t Crc32Fold(uint32_t state, const uint8_t* p, size_t n) {
  const __m128i k512 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k128 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k64 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i barrett = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  // The running state is xored into the first 32 message bits.
  __m128i x0 = _mm_xor_si128(Load16(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = Load16(p + 16);
  __m128i x2 = Load16(p + 32);
  __m128i x3 = Load16(p + 48);
  size_t i = 64;
  for (; i + 64 <= n; i += 64) {
    x0 = Fold(x0, k512, Load16(p + i));
    x1 = Fold(x1, k512, Load16(p + i + 16));
    x2 = Fold(x2, k512, Load16(p + i + 32));
    x3 = Fold(x3, k512, Load16(p + i + 48));
  }
  x0 = Fold(x0, k128, x1);
  x0 = Fold(x0, k128, x2);
  x0 = Fold(x0, k128, x3);
  for (; i < n; i += 16) {
    x0 = Fold(x0, k128, Load16(p + i));
  }
  // 128 -> 64 bits: the low half times x^96, plus the high half.
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  // 64 -> 32 bits: the low 32 bits times x^64, plus the rest.
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k64, 0x00));
  // Barrett: q = low32(x0) * mu', then x0 - low32(q) * P' leaves the
  // remainder in bits 32..63.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x0, q), 1));
}

uint32_t Crc32UpdateAvx2(uint32_t state, const uint8_t* p, size_t n) {
  if (n >= 64) {
    const size_t head = n & ~size_t{15};
    state = Crc32Fold(state, p, head);
    p += head;
    n -= head;
  }
  return Crc32UpdateScalar(state, p, n);
}

constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,        DotAvx2,          ArgminCentroidsAvx2,
    DotCenteredAvx2,   EncodeAccumulateAvx2,
    PopcountBytesAvx2, HammingBytesAvx2, DirtyMask64Avx2,
    Crc32UpdateAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() {
  // Compile-time AVX2 and PCLMULQDQ (this TU) are necessary but not
  // sufficient: the binary may run on an older CPU, so gate on the runtime
  // checks too. Every AVX2 CPU has PCLMULQDQ, but the gate says so.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("pclmul");
  return supported ? &kAvx2Table : nullptr;
}

}  // namespace pnw::simd

#else  // !defined(__AVX2__)

namespace pnw::simd {

const KernelTable* Avx2KernelTable() { return nullptr; }

}  // namespace pnw::simd

#endif  // defined(__AVX2__)
