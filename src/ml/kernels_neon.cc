// NEON kernels (aarch64 / ARMv7 with NEON). Entered only through the
// dispatch table; on targets without __ARM_NEON the TU collapses to the
// nullptr stub.
//
// Bit-identity with the scalar reference: separate vmulq_f32 + vaddq_f32
// (never vmlaq/vfmaq -- those fuse, rounding once where the reference
// rounds twice), stripes 0-3 and 4-7 live in two q registers so vector
// lane l accumulates exactly the elements scalar stripe l accumulates,
// and both sides reduce through the shared ReduceDotLanes /
// ReduceCenteredLanes trees. The integer kernels are exact.

#include "src/util/simd.h"

#if defined(__ARM_NEON) || defined(__ARM_NEON__)

#include <arm_neon.h>

#include <bit>
#include <cstring>
#include <limits>

namespace pnw::simd {

namespace {

float DotNeon(const float* a, const float* b, size_t n) {
  float32x4_t acc_lo = vdupq_n_f32(0.0f);  // stripes 0..3
  float32x4_t acc_hi = vdupq_n_f32(0.0f);  // stripes 4..7
  const size_t main = n - n % 8;
  size_t i = 0;
  for (; i < main; i += 8) {
    acc_lo = vaddq_f32(acc_lo, vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
    acc_hi = vaddq_f32(
        acc_hi, vmulq_f32(vld1q_f32(a + i + 4), vld1q_f32(b + i + 4)));
  }
  float lanes[8];
  vst1q_f32(lanes, acc_lo);
  vst1q_f32(lanes + 4, acc_hi);
  for (; i < n; ++i) {
    lanes[i - main] += a[i] * b[i];
  }
  return ReduceDotLanes(lanes);
}

size_t ArgminCentroidsNeon(const float* x, const float* centroids,
                           const float* norms, size_t k, size_t dims,
                           float* best_score) {
  size_t best = 0;
  float best_val = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    const float score =
        norms[c] - 2.0f * DotNeon(x, centroids + c * dims, dims);
    if (score < best_val) {
      best_val = score;
      best = c;
    }
  }
  *best_score = best_val;
  return best;
}

double DotCenteredNeon(const float* a, const float* b, size_t n) {
#if defined(__aarch64__)
  float64x2_t acc_lo = vdupq_n_f64(0.0);  // stripes 0..1
  float64x2_t acc_hi = vdupq_n_f64(0.0);  // stripes 2..3
  const size_t main = n - n % 4;
  size_t i = 0;
  for (; i < main; i += 4) {
    // Multiply in float (rounds exactly like the scalar reference), then
    // widen to double and accumulate per stripe.
    const float32x4_t prod = vmulq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    acc_lo = vaddq_f64(acc_lo, vcvt_f64_f32(vget_low_f32(prod)));
    acc_hi = vaddq_f64(acc_hi, vcvt_f64_f32(vget_high_f32(prod)));
  }
  double lanes[4];
  vst1q_f64(lanes, acc_lo);
  vst1q_f64(lanes + 2, acc_hi);
  for (; i < n; ++i) {
    lanes[i - main] += static_cast<double>(a[i] * b[i]);
  }
  return ReduceCenteredLanes(lanes);
#else
  // 32-bit NEON has no float64x2_t: run the striped reference directly.
  double lanes[4] = {0, 0, 0, 0};
  const size_t main = n - n % 4;
  size_t i = 0;
  for (; i < main; i += 4) {
    for (size_t l = 0; l < 4; ++l) {
      lanes[l] += static_cast<double>(a[i + l] * b[i + l]);
    }
  }
  for (; i < n; ++i) {
    lanes[i - main] += static_cast<double>(a[i] * b[i]);
  }
  return ReduceCenteredLanes(lanes);
#endif
}

void EncodeAccumulateNeon(const uint8_t* value, size_t count, size_t stride,
                          size_t num_slots, uint64_t* lanes) {
  // NEON has no 64-bit gather; process two slots per iteration with scalar
  // LUT loads and a vector add. Integer adds are exact, so bit-identity is
  // free regardless of the split.
  size_t t = 0;
  if (num_slots >= 2) {
    const size_t rounds = count / num_slots;
    const size_t slots2 = num_slots - num_slots % 2;
    for (size_t r = 0; r < rounds; ++r) {
      const size_t base = r * num_slots;
      size_t s = 0;
      for (; s < slots2; s += 2) {
        const size_t v = (base + s) * stride;
        const uint64_t g0 = kBitSpread[value[v]];
        const uint64_t g1 = kBitSpread[value[v + stride]];
        uint64x2_t gathered = vcombine_u64(vcreate_u64(g0), vcreate_u64(g1));
        vst1q_u64(lanes + s, vaddq_u64(vld1q_u64(lanes + s), gathered));
      }
      for (; s < num_slots; ++s) {
        lanes[s] += kBitSpread[value[(base + s) * stride]];
      }
    }
    t = rounds * num_slots;
  }
  size_t slot = t % num_slots;
  for (; t < count; ++t) {
    lanes[slot] += kBitSpread[value[t * stride]];
    if (++slot == num_slots) {
      slot = 0;
    }
  }
}

uint64_t PopcountBytesNeon(const uint8_t* p, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = vld1q_u8(p + i);
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
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

uint64_t HammingBytesNeon(const uint8_t* a, const uint8_t* b, size_t n) {
  uint64x2_t acc = vdupq_n_u64(0);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t v = veorq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    acc = vaddq_u64(acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(v)))));
  }
  uint64_t total = vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1);
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

// dirty_mask64 and crc32_update have no NEON form; the scalar kernels
// serve this table. The table is an aggregate, so every slot is named: a
// slot left out would compile to a null pointer.
constexpr KernelTable kNeonTable = {
    Isa::kNeon,        DotNeon,          ArgminCentroidsNeon,
    DotCenteredNeon,   EncodeAccumulateNeon,
    PopcountBytesNeon, HammingBytesNeon, DirtyMask64Scalar,
    Crc32UpdateScalar,
};

}  // namespace

const KernelTable* NeonKernelTable() { return &kNeonTable; }

}  // namespace pnw::simd

#else  // !__ARM_NEON

namespace pnw::simd {

const KernelTable* NeonKernelTable() { return nullptr; }

}  // namespace pnw::simd

#endif  // __ARM_NEON
