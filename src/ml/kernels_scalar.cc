// Scalar reference kernels + the runtime dispatch machinery.
//
// This translation unit is compiled with vectorization disabled and
// -ffp-contract=off (see src/CMakeLists.txt): the striped-lane loops below
// ARE the semantics every SIMD kernel must reproduce bit-for-bit, so the
// compiler must not fuse the multiply-adds (an FMA rounds once where the
// reference rounds twice) and should not silently re-vectorize the
// reference the SIMD tables are benchmarked against.

#include "src/util/simd.h"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string_view>

namespace pnw::simd {

// Outside the anonymous namespace: the NEON table names it too (simd.h).
uint64_t DirtyMask64Scalar(const uint8_t* resident, const uint8_t* incoming,
                           size_t words, uint64_t* flipped_bits) {
  uint64_t mask = 0;
  uint64_t bits = 0;
  for (size_t w = 0; w < words; ++w) {
    uint64_t r;
    uint64_t i;
    std::memcpy(&r, resident + w * 8, 8);
    std::memcpy(&i, incoming + w * 8, 8);
    const uint64_t diff = r ^ i;
    bits += static_cast<uint64_t>(std::popcount(diff));
    mask |= static_cast<uint64_t>(diff != 0) << w;
  }
  *flipped_bits = bits;
  return mask;
}

namespace {

constexpr std::array<uint64_t, 256> MakeBitSpread() {
  std::array<uint64_t, 256> table{};
  for (unsigned v = 0; v < 256; ++v) {
    uint64_t spread = 0;
    for (unsigned b = 0; b < 8; ++b) {
      spread |= static_cast<uint64_t>((v >> b) & 1) << (8 * b);
    }
    table[v] = spread;
  }
  return table;
}

float DotScalar(const float* a, const float* b, size_t n) {
  float lanes[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  const size_t main = n - n % 8;
  size_t i = 0;
  for (; i < main; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      lanes[l] += a[i + l] * b[i + l];
    }
  }
  for (; i < n; ++i) {
    lanes[i - main] += a[i] * b[i];
  }
  return ReduceDotLanes(lanes);
}

size_t ArgminCentroidsScalar(const float* x, const float* centroids,
                             const float* norms, size_t k, size_t dims,
                             float* best_score) {
  size_t best = 0;
  float best_val = std::numeric_limits<float>::max();
  for (size_t c = 0; c < k; ++c) {
    const float score = norms[c] - 2.0f * DotScalar(x, centroids + c * dims,
                                                    dims);
    if (score < best_val) {
      best_val = score;
      best = c;
    }
  }
  *best_score = best_val;
  return best;
}

double DotCenteredScalar(const float* a, const float* b, size_t n) {
  double lanes[4] = {0, 0, 0, 0};
  const size_t main = n - n % 4;
  size_t i = 0;
  for (; i < main; i += 4) {
    for (size_t l = 0; l < 4; ++l) {
      // Product rounds in float (both operands are float), accumulation
      // is double: the exact promotion the historical PCA loop performed.
      lanes[l] += static_cast<double>(a[i + l] * b[i + l]);
    }
  }
  for (; i < n; ++i) {
    lanes[i - main] += static_cast<double>(a[i] * b[i]);
  }
  return ReduceCenteredLanes(lanes);
}

void EncodeAccumulateScalar(const uint8_t* value, size_t count, size_t stride,
                            size_t num_slots, uint64_t* lanes) {
  size_t slot = 0;
  for (size_t t = 0; t < count; ++t) {
    lanes[slot] += kBitSpread[value[t * stride]];
    if (++slot == num_slots) {
      slot = 0;
    }
  }
}

uint64_t PopcountBytesScalar(const uint8_t* p, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  // 8-byte strides via memcpy keep this alignment-safe.
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

uint64_t HammingBytesScalar(const uint8_t* a, const uint8_t* b, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
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

constexpr KernelTable kScalarTable = {
    Isa::kScalar,        DotScalar,          ArgminCentroidsScalar,
    DotCenteredScalar,   EncodeAccumulateScalar,
    PopcountBytesScalar, HammingBytesScalar, DirtyMask64Scalar,
};

/// Startup selection: PNW_KERNEL_ISA override first, then the best ISA the
/// host supports. Runs once (function-local static).
const KernelTable* SelectStartupTable() {
  if (const char* env = std::getenv("PNW_KERNEL_ISA")) {
    const std::string_view want(env);
    for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
      if (want == IsaName(isa)) {
        if (const KernelTable* table = TableFor(isa)) {
          return table;
        }
        break;  // named but unreachable: fall through to auto-selection
      }
    }
  }
  if (const KernelTable* avx2 = TableFor(Isa::kAvx2)) {
    return avx2;
  }
  if (const KernelTable* neon = TableFor(Isa::kNeon)) {
    return neon;
  }
  return &kScalarTable;
}

std::atomic<const KernelTable*>& ActiveTable() {
  static std::atomic<const KernelTable*> active{SelectStartupTable()};
  return active;
}

}  // namespace

const std::array<uint64_t, 256> kBitSpread = MakeBitSpread();

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kNeon:
      return "neon";
  }
  return "unknown";
}

// Defined by kernels_avx2.cc / kernels_neon.cc; each returns nullptr when
// its ISA is not compiled in or the running CPU lacks it.
const KernelTable* Avx2KernelTable();
const KernelTable* NeonKernelTable();

const KernelTable& ScalarKernels() { return kScalarTable; }

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
    case Isa::kAvx2:
      return Avx2KernelTable();
    case Isa::kNeon:
      return NeonKernelTable();
  }
  return nullptr;
}

const KernelTable& Kernels() {
  return *ActiveTable().load(std::memory_order_relaxed);
}

Isa ActiveIsa() { return Kernels().isa; }

std::vector<Isa> AvailableIsas() {
  std::vector<Isa> out;
  for (const Isa isa : {Isa::kScalar, Isa::kAvx2, Isa::kNeon}) {
    if (TableFor(isa) != nullptr) {
      out.push_back(isa);
    }
  }
  return out;
}

bool PinIsa(Isa isa) {
  const KernelTable* table = TableFor(isa);
  if (table == nullptr) {
    return false;
  }
  ActiveTable().store(table, std::memory_order_relaxed);
  return true;
}

void UnpinIsa() {
  ActiveTable().store(SelectStartupTable(), std::memory_order_relaxed);
}

}  // namespace pnw::simd
