// Tests for the extension substrates beyond the paper's core design:
// parameterized FNW chunk sizes / Captopril segments, encode-stride
// sampling, and the YCSB operation-mix generator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "src/ml/feature_encoder.h"
#include "src/schemes/captopril.h"
#include "src/schemes/fnw.h"
#include "src/util/random.h"
#include "src/workloads/ycsb.h"

namespace pnw {
namespace {

// ------------------------------------------------ parameterized schemes

class FnwChunkTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FnwChunkTest, RoundTripAndWorstCaseBound) {
  const size_t chunk_bits = GetParam();
  constexpr size_t kBlock = 64;
  constexpr size_t kRegion = 16 * kBlock;
  nvm::NvmConfig config;
  config.size_bytes =
      kRegion + schemes::FnwScheme::MetadataBytes(kRegion, chunk_bits);
  nvm::NvmDevice device(config);
  schemes::FnwScheme scheme(&device, kRegion, chunk_bits);
  EXPECT_EQ(scheme.chunk_bits(), chunk_bits);

  Rng rng(chunk_bits);
  std::vector<uint8_t> data(kBlock);
  for (auto& b : data) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ASSERT_TRUE(scheme.Write(0, data).ok());
  EXPECT_EQ(scheme.ReadDecoded(0, kBlock).value(), data);

  // Complement write: per chunk at most 1 flag bit flips.
  std::vector<uint8_t> complement(kBlock);
  for (size_t i = 0; i < kBlock; ++i) {
    complement[i] = static_cast<uint8_t>(~data[i]);
  }
  auto result = scheme.Write(0, complement);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result.value().bits_written, kBlock * 8 / chunk_bits);
  EXPECT_EQ(scheme.ReadDecoded(0, kBlock).value(), complement);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, FnwChunkTest,
                         ::testing::Values(8, 16, 32, 64),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "bits" + std::to_string(info.param);
                         });

class CaptoprilSegmentsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CaptoprilSegmentsTest, RoundTripAfterProfiling) {
  const size_t segments = GetParam();
  constexpr size_t kBlock = 64;
  constexpr size_t kRegion = 16 * kBlock;
  nvm::NvmConfig config;
  config.size_bytes = kRegion + schemes::CaptoprilScheme::MetadataBytes(
                                    kRegion, kBlock, segments);
  nvm::NvmDevice device(config);
  schemes::CaptoprilScheme scheme(&device, kRegion, kBlock,
                                  /*profile_writes=*/8, segments);
  Rng rng(segments * 11);
  std::vector<uint8_t> data(kBlock);
  for (int round = 0; round < 30; ++round) {
    const uint64_t addr = rng.NextBelow(16) * kBlock;
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    ASSERT_TRUE(scheme.Write(addr, data).ok());
    EXPECT_EQ(scheme.ReadDecoded(addr, kBlock).value(), data)
        << "segments=" << segments << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(SegmentCounts, CaptoprilSegmentsTest,
                         ::testing::Values(4, 8, 16, 32),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "seg" + std::to_string(info.param);
                         });

// ------------------------------------------------------- encode stride

TEST(EncodeStrideTest, StridePreservesSimilarityOrdering) {
  Rng rng(21);
  std::vector<uint8_t> base(4096);
  for (auto& b : base) {
    b = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint8_t> near = base;
  for (int i = 0; i < 40; ++i) {
    near[rng.NextBelow(near.size())] ^= 0xff;
  }
  std::vector<uint8_t> far(4096);
  for (auto& b : far) {
    b = static_cast<uint8_t>(rng.Next());
  }
  ml::BitFeatureEncoder encoder(4096, 256, /*byte_stride=*/4);
  std::vector<float> fb(encoder.dims()), fn(encoder.dims()),
      ff(encoder.dims());
  encoder.Encode(base, fb);
  encoder.Encode(near, fn);
  encoder.Encode(far, ff);
  EXPECT_LT(ml::SquaredDistance(fb, fn), ml::SquaredDistance(fb, ff));
}

TEST(EncodeStrideTest, DimsRoundedToMultipleOf8) {
  ml::BitFeatureEncoder encoder(128, 100);
  EXPECT_EQ(encoder.dims() % 8, 0u);
  EXPECT_LE(encoder.dims(), 100u);
}

// --------------------------------------------------------------- YCSB

TEST(YcsbTest, WorkloadCIsReadOnly) {
  workloads::YcsbOptions options;
  options.workload = workloads::YcsbWorkload::kC;
  workloads::YcsbGenerator gen(options);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(gen.Next().type, workloads::YcsbOp::Type::kRead);
  }
}

TEST(YcsbTest, WorkloadAMixesRoughlyFiftyFifty) {
  workloads::YcsbOptions options;
  options.workload = workloads::YcsbWorkload::kA;
  workloads::YcsbGenerator gen(options);
  int updates = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    updates += gen.Next().type == workloads::YcsbOp::Type::kUpdate;
  }
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.5, 0.05);
}

TEST(YcsbTest, WorkloadDInsertsGrowKeySpace) {
  workloads::YcsbOptions options;
  options.workload = workloads::YcsbWorkload::kD;
  options.record_count = 100;
  workloads::YcsbGenerator gen(options);
  for (int i = 0; i < 2000; ++i) {
    const auto op = gen.Next();
    EXPECT_LT(op.key, gen.live_keys());
  }
  EXPECT_GT(gen.live_keys(), 100u);
}

TEST(YcsbTest, ZipfKeysAreSkewed) {
  workloads::YcsbOptions options;
  options.workload = workloads::YcsbWorkload::kA;
  options.record_count = 1000;
  workloads::YcsbGenerator gen(options);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) {
    ++counts[gen.Next().key];
  }
  int max_count = 0;
  for (const auto& [key, count] : counts) {
    max_count = std::max(max_count, count);
  }
  // The hottest key should far exceed the uniform expectation (20).
  EXPECT_GT(max_count, 200);
}

}  // namespace
}  // namespace pnw
