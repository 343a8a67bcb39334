// Runtime-dispatched SIMD kernels for the hot loops of the placement
// pipeline (dot product, fused centroid argmin, PCA projection, bit-feature
// encode -- a vertical per-bit byte count for the store's contiguous
// 32-slot-multiple shape), of the NVM substrate (popcount/Hamming
// distance, the differential write's 64-word block dirty mask) and of the
// durability layer (the CRC-32 of every op-log record and snapshot
// section).
//
// Contract: every kernel is BIT-IDENTICAL across ISAs. The floating-point
// kernels achieve this by fixing *striped-lane* semantics -- the scalar
// reference accumulates into the same independent lanes a vector register
// holds (8 float stripes for the dot product, 4 double stripes for the PCA
// projection) and both sides reduce through the identical pairwise tree
// (ReduceDotLanes / ReduceCenteredLanes below). The integer kernels are
// exact by nature. tests/kernels_test.cc proves the equivalence for every
// ISA reachable on the host, over random lengths and unaligned heads/tails;
// this is what makes model predictions independent of the machine the
// binary happens to run on.
//
// Dispatch: Kernels() returns the active table -- picked once at startup
// (best ISA the CPU supports, overridable via the PNW_KERNEL_ISA
// environment variable: "scalar", "avx2", "neon"). Benches and tests pin a
// specific table with PinIsa(); pinning is meant for single-threaded setup
// phases (it is a relaxed pointer swap, safe but unsequenced against
// concurrent kernel calls).
#ifndef PNW_UTIL_SIMD_H_
#define PNW_UTIL_SIMD_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace pnw::simd {

/// Instruction sets a kernel table can be specialized for. kScalar is the
/// striped-lane reference, always available; the others exist only when
/// both compiled in and supported by the running CPU.
enum class Isa : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// Lowercase name ("scalar", "avx2", "neon") for logs, benches, and the
/// PNW_KERNEL_ISA override.
const char* IsaName(Isa isa);

/// One resolved kernel set. All pointers are always non-null; raw pointers
/// + lengths (not spans) keep the indirect call ABI trivial.
struct KernelTable {
  Isa isa;

  /// Striped dot product: conceptually lanes[i % 8] += a[i] * b[i], reduced
  /// with ReduceDotLanes. Bit-identical across ISAs (see header comment).
  float (*dot)(const float* a, const float* b, size_t n);

  /// Fused per-centroid argmin of norms[c] - 2 * dot(x, centroids + c*dims)
  /// over all k centroids (row-major centroid matrix). Strict less-than,
  /// first index wins on ties -- KMeansModel::Predict's exact semantics.
  /// Writes the winning score to *best_score (always, k must be >= 1).
  size_t (*argmin_centroids)(const float* x, const float* centroids,
                             const float* norms, size_t k, size_t dims,
                             float* best_score);

  /// Striped float-multiply / double-accumulate dot (the PCA projection
  /// inner loop): lanes[i % 4] += double(a[i] * b[i]) -- the product rounds
  /// in float exactly like the historical scalar loop, the accumulation is
  /// double -- reduced with ReduceCenteredLanes.
  double (*dot_centered)(const float* a, const float* b, size_t n);

  /// Folded bit-feature accumulation: for t in [0, count),
  /// lanes[t % num_slots] += kBitSpread[value[t * stride]]. The caller
  /// (BitFeatureEncoder) slices the stream into chunks of at most
  /// 255 * num_slots accumulations and unpacks/flushes lanes in between,
  /// so every call starts at slot 0 and no byte lane can overflow. The
  /// store's shape (stride 1, num_slots a multiple of 32) runs on AVX2 as
  /// a vertical count: one 32-byte load covers 32 slots of a round, each
  /// bit adds into its own byte-counter vector, and the counters are
  /// transposed into `lanes` once per call.
  void (*encode_accumulate)(const uint8_t* value, size_t count, size_t stride,
                            size_t num_slots, uint64_t* lanes);

  /// Set bits in p[0, n).
  uint64_t (*popcount_bytes)(const uint8_t* p, size_t n);

  /// popcount(a XOR b) over n bytes (Hamming distance in bits).
  uint64_t (*hamming_bytes)(const uint8_t* a, const uint8_t* b, size_t n);

  /// Differential-write block diff over `words` <= 64 8-byte words: bit w
  /// of the result is set iff resident[w*8..] and incoming[w*8..] differ,
  /// and *flipped_bits receives popcount(resident XOR incoming) over the
  /// whole block. One pass, no early exit: the store's writes dirty most
  /// words, so the caller walks the mask rather than re-scanning.
  /// Unaligned pointers are fine.
  uint64_t (*dirty_mask64)(const uint8_t* resident, const uint8_t* incoming,
                           size_t words, uint64_t* flipped_bits);

  /// Reflected CRC-32 (polynomial 0xEDB88320) of p[0, n) fed into the raw
  /// running `state`; returns the new raw state (persist::Crc32Update's
  /// contract: start from 0xFFFFFFFF, the caller applies the final xor).
  /// Any length and alignment, because recovery feeds it untrusted bytes.
  /// Scalar: slice-by-8. AVX2: PCLMULQDQ folding of the 16-byte-multiple
  /// head of inputs of 64 bytes or more, scalar on the rest.
  uint32_t (*crc32_update)(uint32_t state, const uint8_t* p, size_t n);
};

/// The active table (startup-selected or pinned). Never null.
const KernelTable& Kernels();

/// ISA of the active table.
Isa ActiveIsa();

/// Table for a specific ISA, or nullptr when it is not reachable on this
/// host (not compiled in, or the CPU lacks it). The property tests iterate
/// AvailableIsas() and compare every table against ScalarKernels().
const KernelTable* TableFor(Isa isa);

/// The always-available striped-lane reference table.
const KernelTable& ScalarKernels();

/// The scalar dirty_mask64, for tables with no vector form of it (NEON).
uint64_t DirtyMask64Scalar(const uint8_t* resident, const uint8_t* incoming,
                           size_t words, uint64_t* flipped_bits);

/// The scalar crc32_update: the AVX2 kernel's tail and the NEON table's
/// slot.
uint32_t Crc32UpdateScalar(uint32_t state, const uint8_t* p, size_t n);

/// Every ISA reachable on this host (kScalar always included).
std::vector<Isa> AvailableIsas();

/// Pin dispatch to `isa` for benches/tests. Returns false (and leaves the
/// active table unchanged) when the ISA is not reachable on this host.
bool PinIsa(Isa isa);

/// Undo PinIsa: back to the startup selection (env override included).
void UnpinIsa();

/// Byte -> eight 0/1 byte lanes: bit b of the input byte becomes byte lane
/// b of the result. Shared by every encode_accumulate implementation (and
/// by the AVX2 gather path, which indexes it directly).
extern const std::array<uint64_t, 256> kBitSpread;

/// The fixed pairwise reduction both sides of the dot kernel share:
/// (l0+l4, l1+l5, l2+l6, l3+l7) -> (m0+m2, m1+m3) -> n0+n1. Pure float
/// adds in a fixed order; no multiply, so -ffp-contract cannot alter it.
inline float ReduceDotLanes(const float lanes[8]) {
  const float m0 = lanes[0] + lanes[4];
  const float m1 = lanes[1] + lanes[5];
  const float m2 = lanes[2] + lanes[6];
  const float m3 = lanes[3] + lanes[7];
  const float n0 = m0 + m2;
  const float n1 = m1 + m3;
  return n0 + n1;
}

/// Fixed reduction of the 4 double stripes of dot_centered.
inline double ReduceCenteredLanes(const double lanes[4]) {
  const double m0 = lanes[0] + lanes[2];
  const double m1 = lanes[1] + lanes[3];
  return m0 + m1;
}

}  // namespace pnw::simd

#endif  // PNW_UTIL_SIMD_H_
