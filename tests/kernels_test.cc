// Property suite for the runtime-dispatched SIMD kernels: every table
// reachable on this host (AvailableIsas) must be BIT-IDENTICAL to the
// striped-lane scalar reference, over random lengths and unaligned
// heads/tails. This equivalence is the load-bearing contract of the
// dispatch layer -- model predictions must not depend on the machine the
// binary happens to run on (see src/util/simd.h).
#include "src/util/simd.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

namespace pnw::simd {
namespace {

// Non-scalar tables reachable on this host (empty on a plain machine --
// the suite then still validates the scalar table against the byte
// references below).
std::vector<const KernelTable*> SimdTables() {
  std::vector<const KernelTable*> tables;
  for (const Isa isa : AvailableIsas()) {
    if (isa != Isa::kScalar) {
      tables.push_back(TableFor(isa));
    }
  }
  return tables;
}

// Deterministic fill helpers. Floats get a mix of magnitudes so lane
// reassociation errors (the bug class this suite exists to catch) would
// actually surface in the low mantissa bits.
void FillFloats(std::mt19937& rng, std::vector<float>& v) {
  std::uniform_real_distribution<float> dist(-8.0f, 8.0f);
  for (auto& x : v) {
    x = dist(rng) * (rng() % 7 == 0 ? 1024.0f : 1.0f);
  }
}

void FillBytes(std::mt19937& rng, std::vector<uint8_t>& v) {
  for (auto& b : v) {
    b = static_cast<uint8_t>(rng());
  }
}

TEST(KernelsTest, DotBitIdenticalAcrossIsas) {
  std::mt19937 rng(7);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t n : {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100, 255, 512}) {
      for (size_t offset : {0, 1, 2, 3}) {
        std::vector<float> a(n + offset), b(n + offset);
        FillFloats(rng, a);
        FillFloats(rng, b);
        const float got = table->dot(a.data() + offset, b.data() + offset, n);
        const float want = ref.dot(a.data() + offset, b.data() + offset, n);
        // Bit-exact, not approximately-equal: compare representations.
        EXPECT_EQ(std::bit_cast<uint32_t>(got), std::bit_cast<uint32_t>(want))
            << IsaName(table->isa) << " dot n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, ArgminCentroidsMatchesScalarAndBreaksTiesFirst) {
  std::mt19937 rng(11);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t k : {1, 2, 3, 8, 17}) {
      for (size_t dims : {1, 4, 8, 9, 33, 128, 256}) {
        std::vector<float> x(dims), centroids(k * dims), norms(k);
        FillFloats(rng, x);
        FillFloats(rng, centroids);
        FillFloats(rng, norms);
        float got_score = 0.0f;
        float want_score = 0.0f;
        const size_t got = table->argmin_centroids(
            x.data(), centroids.data(), norms.data(), k, dims, &got_score);
        const size_t want = ref.argmin_centroids(
            x.data(), centroids.data(), norms.data(), k, dims, &want_score);
        EXPECT_EQ(got, want) << IsaName(table->isa) << " k=" << k
                             << " dims=" << dims;
        EXPECT_EQ(std::bit_cast<uint32_t>(got_score),
                  std::bit_cast<uint32_t>(want_score));
      }
    }
    // Exact ties must resolve to the FIRST index -- KMeansModel::Predict's
    // semantics, which placement replay depends on. All four rows are the
    // same centroid with the same norm, so every score is bit-identical.
    const size_t dims = 16;
    std::vector<float> x(dims), row(dims);
    FillFloats(rng, x);
    FillFloats(rng, row);
    std::vector<float> centroids;
    for (int r = 0; r < 4; ++r) {
      centroids.insert(centroids.end(), row.begin(), row.end());
    }
    std::vector<float> norms(4, 2.25f);
    float score = 0.0f;
    EXPECT_EQ(table->argmin_centroids(x.data(), centroids.data(),
                                      norms.data(), 4, dims, &score),
              0u)
        << IsaName(table->isa);
  }
}

TEST(KernelsTest, DotCenteredBitIdenticalAcrossIsas) {
  std::mt19937 rng(13);
  const auto& ref = ScalarKernels();
  for (const KernelTable* table : SimdTables()) {
    for (size_t n : {0, 1, 2, 3, 4, 5, 7, 8, 11, 16, 63, 130, 511}) {
      for (size_t offset : {0, 1, 3}) {
        std::vector<float> a(n + offset), b(n + offset);
        FillFloats(rng, a);
        FillFloats(rng, b);
        const double got =
            table->dot_centered(a.data() + offset, b.data() + offset, n);
        const double want =
            ref.dot_centered(a.data() + offset, b.data() + offset, n);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << IsaName(table->isa) << " dot_centered n=" << n
            << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, EncodeAccumulateMatchesScalarAndBitSpread) {
  std::mt19937 rng(17);
  const auto& ref = ScalarKernels();
  // Random counts for narrow and odd folds; for the store's contiguous
  // 32-slot-multiple shapes (AVX2's vertical count at stride 1), the
  // counts at its edges: a partial first round, exactly one round, rounds
  // plus a partial tail, and the 255-round chunk limit in all-0xFF bytes,
  // which drives every byte counter to exactly 255. All counts stay within
  // the caller contract (count <= 255 * num_slots).
  struct Shape {
    size_t num_slots;
    size_t count;
    bool all_ones;
  };
  std::vector<Shape> shapes;
  for (size_t num_slots : {1, 2, 3, 8, 51}) {
    shapes.push_back(
        {num_slots, std::min<size_t>(255 * num_slots, 37 + rng() % 300),
         false});
  }
  for (size_t num_slots : {32, 64, 96}) {
    for (size_t count : {num_slots - 1, num_slots, 96 * num_slots + 7}) {
      shapes.push_back({num_slots, count, false});
    }
    shapes.push_back({num_slots, 255 * num_slots, true});
  }
  for (const KernelTable* table : SimdTables()) {
    for (const Shape& shape : shapes) {
      for (size_t stride : {1, 2, 4}) {
        // The stream must cover (count-1)*stride + 1 bytes.
        std::vector<uint8_t> value(
            (shape.count == 0 ? 0 : (shape.count - 1) * stride) + 1);
        if (shape.all_ones) {
          std::fill(value.begin(), value.end(), 0xFF);
        } else {
          FillBytes(rng, value);
        }
        std::vector<uint64_t> got(shape.num_slots, 0);
        std::vector<uint64_t> want(shape.num_slots, 0);
        table->encode_accumulate(value.data(), shape.count, stride,
                                 shape.num_slots, got.data());
        ref.encode_accumulate(value.data(), shape.count, stride,
                              shape.num_slots, want.data());
        EXPECT_EQ(got, want) << IsaName(table->isa)
                             << " num_slots=" << shape.num_slots
                             << " count=" << shape.count
                             << " stride=" << stride;
        if (shape.all_ones) {
          // 255 accumulations of 0xFF per slot: every byte lane is 255.
          EXPECT_EQ(got, std::vector<uint64_t>(shape.num_slots, ~uint64_t{0}))
              << IsaName(table->isa) << " num_slots=" << shape.num_slots;
        }
      }
    }
  }
  // The scalar reference itself against first principles: one accumulation
  // of byte 0b10100001 into one slot puts a 1-byte in lanes 0, 5, and 7.
  std::vector<uint64_t> lanes(1, 0);
  const uint8_t byte = 0xA1;
  ref.encode_accumulate(&byte, 1, 1, 1, lanes.data());
  EXPECT_EQ(lanes[0], kBitSpread[0xA1]);
  for (int bit = 0; bit < 8; ++bit) {
    const uint64_t lane_byte = (lanes[0] >> (8 * bit)) & 0xFF;
    EXPECT_EQ(lane_byte, (byte >> bit) & 1 ? 1u : 0u) << "bit " << bit;
  }
}

TEST(KernelsTest, PopcountAndHammingMatchByteReference) {
  std::mt19937 rng(19);
  const auto isas = AvailableIsas();
  for (const Isa isa : isas) {
    const KernelTable* table = TableFor(isa);
    ASSERT_NE(table, nullptr);
    for (size_t n : {0, 1, 7, 8, 31, 32, 33, 64, 100, 257, 1024}) {
      for (size_t offset : {0, 1, 5}) {
        std::vector<uint8_t> a(n + offset), b(n + offset);
        FillBytes(rng, a);
        FillBytes(rng, b);
        uint64_t pop_ref = 0;
        uint64_t ham_ref = 0;
        for (size_t i = 0; i < n; ++i) {
          pop_ref += std::popcount(unsigned{a[offset + i]});
          ham_ref += std::popcount(unsigned(a[offset + i] ^ b[offset + i]));
        }
        EXPECT_EQ(table->popcount_bytes(a.data() + offset, n), pop_ref)
            << IsaName(isa) << " n=" << n << " offset=" << offset;
        EXPECT_EQ(
            table->hamming_bytes(a.data() + offset, b.data() + offset, n),
            ham_ref)
            << IsaName(isa) << " n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST(KernelsTest, DirtyMask64MatchesScalarAndWordLoop) {
  std::mt19937 rng(23);
  // The plain per-word loop: bit w set iff word w differs anywhere, plus
  // the total of flipped bits.
  const auto word_loop = [](const uint8_t* a, const uint8_t* b, size_t words,
                            uint64_t* bits) {
    uint64_t mask = 0;
    *bits = 0;
    for (size_t w = 0; w < words; ++w) {
      for (size_t j = 0; j < 8; ++j) {
        const unsigned diff = a[w * 8 + j] ^ b[w * 8 + j];
        *bits += static_cast<uint64_t>(std::popcount(diff));
        mask |= static_cast<uint64_t>(diff != 0) << w;
      }
    }
    return mask;
  };
  // kAllDirty flips every bit, the most each byte can count.
  enum Pattern { kRandom, kAllClean, kAllDirty, kLastWordOnly };
  const auto& ref = ScalarKernels();
  for (size_t words = 1; words <= 64; ++words) {
    for (size_t offset = 0; offset < 8; ++offset) {  // unaligned is legal
      for (const Pattern pattern :
           {kRandom, kAllClean, kAllDirty, kLastWordOnly}) {
        std::vector<uint8_t> a(words * 8 + offset);
        FillBytes(rng, a);
        std::vector<uint8_t> b = a;
        uint8_t* const block = b.data() + offset;
        switch (pattern) {
          case kRandom:  // about 70% of words get 1-3 bit flips
            for (size_t w = 0; w < words; ++w) {
              const uint32_t flips = rng() % 10 < 7 ? 1 + rng() % 3 : 0;
              for (uint32_t f = 0; f < flips; ++f) {
                block[w * 8 + rng() % 8] ^= 1u << (rng() % 8);
              }
            }
            break;
          case kAllClean:
            break;
          case kAllDirty:
            for (size_t i = 0; i < words * 8; ++i) {
              block[i] = static_cast<uint8_t>(~block[i]);
            }
            break;
          case kLastWordOnly:  // word 63 when the block is full
            block[(words - 1) * 8 + rng() % 8] ^= 1u << (rng() % 8);
            break;
        }
        uint64_t loop_bits = 0;
        const uint64_t loop_mask =
            word_loop(a.data() + offset, block, words, &loop_bits);
        uint64_t want_bits = 0;
        const uint64_t want =
            ref.dirty_mask64(a.data() + offset, block, words, &want_bits);
        EXPECT_EQ(want, loop_mask) << "scalar words=" << words
                                   << " offset=" << offset
                                   << " pattern=" << pattern;
        EXPECT_EQ(want_bits, loop_bits) << "scalar words=" << words
                                        << " offset=" << offset
                                        << " pattern=" << pattern;
        for (const KernelTable* table : SimdTables()) {
          uint64_t got_bits = 0;
          EXPECT_EQ(table->dirty_mask64(a.data() + offset, block, words,
                                        &got_bits),
                    want)
              << IsaName(table->isa) << " words=" << words
              << " offset=" << offset << " pattern=" << pattern;
          EXPECT_EQ(got_bits, want_bits)
              << IsaName(table->isa) << " words=" << words
              << " offset=" << offset << " pattern=" << pattern;
        }
      }
    }
  }
}

// CRC-32 straight from the reflected polynomial, one bit a step and no
// table: what every crc32_update must reproduce.
uint32_t BitwiseCrc32(uint32_t state, const uint8_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    state ^= p[i];
    for (int bit = 0; bit < 8; ++bit) {
      state = (state >> 1) ^ ((state & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return state;
}

TEST(KernelsTest, Crc32MatchesBitwiseReference) {
  std::mt19937 rng(29);
  const auto isas = AvailableIsas();
  // Every length 0-1100 (the fold's head/tail split at every remainder)
  // at every start offset 0-15, from a random state per offset; the
  // reference grows one byte per length.
  std::vector<uint8_t> buf(1100 + 15);
  FillBytes(rng, buf);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* p = buf.data() + offset;
    const uint32_t state = static_cast<uint32_t>(rng());
    uint32_t want = state;
    for (size_t n = 0; n <= 1100; ++n) {
      if (n > 0) {
        want = BitwiseCrc32(want, p + n - 1, 1);
      }
      for (const Isa isa : isas) {
        EXPECT_EQ(TableFor(isa)->crc32_update(state, p, n), want)
            << IsaName(isa) << " n=" << n << " offset=" << offset;
      }
    }
  }
  // A snapshot-section-sized input: 1 MiB + 13 bytes at an odd offset.
  std::vector<uint8_t> big((size_t{1} << 20) + 13 + 3);
  FillBytes(rng, big);
  const uint32_t big_state = static_cast<uint32_t>(rng());
  const uint32_t big_want =
      BitwiseCrc32(big_state, big.data() + 3, big.size() - 3);
  // The standard check value: CRC-32("123456789") = 0xCBF43926.
  const uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  // Chaining: a split at every point of 300 bytes gives the one-shot CRC.
  const uint32_t chain_state = static_cast<uint32_t>(rng());
  const uint32_t chain_want = BitwiseCrc32(chain_state, buf.data(), 300);
  for (const Isa isa : isas) {
    const KernelTable& table = *TableFor(isa);
    EXPECT_EQ(table.crc32_update(big_state, big.data() + 3, big.size() - 3),
              big_want)
        << IsaName(isa);
    EXPECT_EQ(table.crc32_update(0xFFFFFFFFu, check, sizeof(check)) ^
                  0xFFFFFFFFu,
              0xCBF43926u)
        << IsaName(isa);
    for (size_t split = 0; split <= 300; ++split) {
      const uint32_t head = table.crc32_update(chain_state, buf.data(), split);
      EXPECT_EQ(table.crc32_update(head, buf.data() + split, 300 - split),
                chain_want)
          << IsaName(isa) << " split=" << split;
    }
  }
}

TEST(KernelsTest, PinIsaControlsDispatch) {
  ASSERT_TRUE(PinIsa(Isa::kScalar));
  EXPECT_EQ(ActiveIsa(), Isa::kScalar);
  EXPECT_EQ(Kernels().isa, Isa::kScalar);
  for (const Isa isa : AvailableIsas()) {
    EXPECT_TRUE(PinIsa(isa));
    EXPECT_EQ(ActiveIsa(), isa);
  }
  UnpinIsa();
  // Whatever startup selected, the table is live and consistent.
  EXPECT_EQ(Kernels().isa, ActiveIsa());
  // An ISA the host cannot reach must be refused without changing state.
  const Isa before = ActiveIsa();
  const auto isas = AvailableIsas();
  for (const Isa probe : {Isa::kAvx2, Isa::kNeon}) {
    if (std::find(isas.begin(), isas.end(), probe) == isas.end()) {
      EXPECT_FALSE(PinIsa(probe));
      EXPECT_EQ(ActiveIsa(), before);
    }
  }
}

}  // namespace
}  // namespace pnw::simd
