#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/nvm/nvm_device.h"
#include "src/nvm/wear_tracker.h"
#include "src/util/random.h"
#include "src/util/simd.h"

namespace pnw::nvm {
namespace {

NvmConfig SmallConfig(bool bit_wear = false) {
  NvmConfig config;
  config.size_bytes = 4096;
  config.track_bit_wear = bit_wear;
  return config;
}

TEST(NvmDeviceTest, StartsZeroed) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> out(64);
  ASSERT_TRUE(device.Read(0, out).ok());
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

TEST(NvmDeviceTest, OutOfBoundsRejected) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> buf(64);
  EXPECT_TRUE(device.Read(4096 - 32, buf).IsInvalidArgument());
  EXPECT_TRUE(
      device.WriteConventional(4090, buf).status().IsInvalidArgument());
  EXPECT_TRUE(
      device.WriteDifferential(1u << 30, buf).status().IsInvalidArgument());
}

TEST(NvmDeviceTest, ConventionalWriteChargesEveryBit) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data(64, 0x00);  // same value as current content
  auto result = device.WriteConventional(0, data);
  ASSERT_TRUE(result.ok());
  // Even an identical rewrite wears every cell.
  EXPECT_EQ(result.value().bits_written, 64u * 8);
  EXPECT_EQ(result.value().lines_written, 1u);
  EXPECT_EQ(result.value().words_written, 8u);
}

TEST(NvmDeviceTest, DifferentialWriteChargesOnlyFlips) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data(64, 0x00);
  data[5] = 0x03;   // 2 bits
  data[40] = 0x80;  // 1 bit
  auto result = device.WriteDifferential(0, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().bits_written, 3u);
  EXPECT_EQ(result.value().words_written, 2u);  // bytes 5 and 40
  EXPECT_EQ(result.value().lines_written, 1u);
  EXPECT_EQ(result.value().lines_read, 1u);  // RBW read of the covered line

  // Re-writing identical data flips nothing and dirties no lines.
  auto again = device.WriteDifferential(0, data);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().bits_written, 0u);
  EXPECT_EQ(again.value().lines_written, 0u);
}

TEST(NvmDeviceTest, DifferentialWriteStoresData) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  ASSERT_TRUE(device.WriteDifferential(100, data).ok());
  std::vector<uint8_t> out(8);
  ASSERT_TRUE(device.Read(100, out).ok());
  EXPECT_EQ(out, data);
}

TEST(NvmDeviceTest, CrossLineWriteCountsBothLines) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data(16, 0xff);
  // Straddle the line boundary at byte 64.
  auto result = device.WriteDifferential(56, data);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().lines_written, 2u);
  EXPECT_EQ(result.value().lines_read, 2u);
}

TEST(NvmDeviceTest, CountersAccumulate) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data(8, 0xff);
  ASSERT_TRUE(device.WriteDifferential(0, data).ok());
  ASSERT_TRUE(device.WriteDifferential(128, data).ok());
  const auto& counters = device.counters();
  EXPECT_EQ(counters.total_write_ops, 2u);
  EXPECT_EQ(counters.total_bits_written, 128u);
  EXPECT_EQ(counters.total_payload_bits, 128u);
  EXPECT_GT(counters.total_latency_ns, 0.0);
}

TEST(NvmDeviceTest, ResetCountersClearsEverything) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data(8, 0xff);
  ASSERT_TRUE(device.WriteDifferential(0, data).ok());
  device.ResetCounters();
  EXPECT_EQ(device.counters().total_bits_written, 0u);
  EXPECT_EQ(device.word_write_counts()[0], 0u);
  EXPECT_EQ(device.line_write_counts()[0], 0u);
  // Content survives a counter reset.
  std::vector<uint8_t> out(8);
  ASSERT_TRUE(device.Read(0, out).ok());
  EXPECT_EQ(out, data);
}

TEST(NvmDeviceTest, WordCountersTrackDirtiedWords) {
  NvmDevice device(SmallConfig());
  std::vector<uint8_t> data(24, 0);
  data[0] = 1;   // word 0
  data[17] = 1;  // word 2
  ASSERT_TRUE(device.WriteDifferential(0, data).ok());
  EXPECT_EQ(device.word_write_counts()[0], 1u);
  EXPECT_EQ(device.word_write_counts()[1], 0u);
  EXPECT_EQ(device.word_write_counts()[2], 1u);
}

TEST(NvmDeviceTest, BitWearTracking) {
  NvmDevice device(SmallConfig(/*bit_wear=*/true));
  std::vector<uint8_t> one = {0x01};
  std::vector<uint8_t> zero = {0x00};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(device.WriteDifferential(10, one).ok());
    ASSERT_TRUE(device.WriteDifferential(10, zero).ok());
  }
  // Bit 80 (byte 10, bit 0) was updated 6 times; its neighbors never.
  EXPECT_EQ(device.bit_write_counts()[80], 6u);
  EXPECT_EQ(device.bit_write_counts()[81], 0u);
}

TEST(NvmDeviceTest, LatencyModelChargesPerLine) {
  NvmConfig config = SmallConfig();
  config.latency.nvm_write_ns = 600.0;
  config.latency.nvm_read_ns = 70.0;
  NvmDevice device(config);
  std::vector<uint8_t> data(64, 0xff);
  auto result = device.WriteDifferential(0, data);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().latency_ns, 600.0 + 70.0);
}

TEST(NvmDeviceTest, PeekDoesNotAffectCounters) {
  NvmDevice device(SmallConfig());
  (void)device.Peek(0, 64);
  EXPECT_EQ(device.counters().total_read_ops, 0u);
  EXPECT_EQ(device.counters().total_lines_read, 0u);
}

// --- Differential-write equivalence: the device's word-at-a-time inner
// loop (uint64_t loads + XOR + popcount, unaligned head/tail) against a
// byte-at-a-time oracle. Over random unaligned offsets, lengths, and
// contents of mixed sparsity, the two must agree on every observable:
// stored contents, per-write WriteResult, cumulative counters, word/line/
// bit wear histograms, and fault-injection behavior.

/// The byte-at-a-time differential write: the same accounting contract as
/// NvmDevice::WriteDifferential, one byte per step, with no fast path to
/// get wrong. Faults arm like NvmDevice::InjectWriteFaults.
struct ByteReferenceDevice {
  explicit ByteReferenceDevice(const NvmConfig& config)
      : line_bytes(config.cache_line_bytes),
        latency(config.latency),
        contents(config.size_bytes, 0),
        word_counts((config.size_bytes + kWordBytes - 1) / kWordBytes, 0),
        line_counts((config.size_bytes + line_bytes - 1) / line_bytes, 0),
        bit_counts(config.track_bit_wear ? config.size_bytes * 8 : 0, 0) {}

  Result<WriteResult> WriteDifferential(uint64_t addr,
                                        std::span<const uint8_t> data) {
    if (addr + data.size() > contents.size()) {
      return Status::InvalidArgument("NVM access out of bounds");
    }
    if (fault_count > 0) {
      if (fault_skip > 0) {
        --fault_skip;
      } else {
        --fault_count;
        return Status::Internal("injected NVM write fault");
      }
    }
    WriteResult result;
    if (data.empty()) {
      return result;
    }
    result.lines_read =
        (addr + data.size() - 1) / line_bytes - addr / line_bytes + 1;
    uint64_t prev_word = UINT64_MAX;
    uint64_t prev_line = UINT64_MAX;
    for (size_t i = 0; i < data.size(); ++i) {
      const uint64_t at = addr + i;
      const uint8_t diff = contents[at] ^ data[i];
      if (diff == 0) {
        continue;
      }
      result.bits_written += std::popcount(diff);
      if (at / kWordBytes != prev_word) {
        prev_word = at / kWordBytes;
        ++result.words_written;
        ++word_counts[prev_word];
      }
      if (at / line_bytes != prev_line) {
        prev_line = at / line_bytes;
        ++result.lines_written;
        ++line_counts[prev_line];
      }
      for (size_t bit = 0; bit < 8 && !bit_counts.empty(); ++bit) {
        if ((diff >> bit) & 1) {
          ++bit_counts[at * 8 + bit];
        }
      }
      contents[at] = data[i];
    }
    result.latency_ns = latency.NvmReadCostNs(result.lines_read) +
                        latency.NvmWriteCostNs(result.lines_written);
    counters.total_bits_written += result.bits_written;
    counters.total_words_written += result.words_written;
    counters.total_lines_written += result.lines_written;
    counters.total_lines_read += result.lines_read;
    counters.total_write_ops += 1;
    counters.total_payload_bits += data.size() * 8;
    counters.total_latency_ns += result.latency_ns;
    return result;
  }

  size_t line_bytes;
  LatencyModel latency;
  std::vector<uint8_t> contents;
  std::vector<uint32_t> word_counts;
  std::vector<uint32_t> line_counts;
  std::vector<uint16_t> bit_counts;
  NvmCounters counters;
  uint64_t fault_skip = 0;
  uint64_t fault_count = 0;
};

void ExpectWriteResultsEqual(const Result<WriteResult>& word_result,
                             const Result<WriteResult>& byte_result) {
  ASSERT_EQ(word_result.ok(), byte_result.ok());
  if (!word_result.ok()) {
    EXPECT_EQ(word_result.status().code(), byte_result.status().code());
    return;
  }
  EXPECT_EQ(word_result.value().bits_written,
            byte_result.value().bits_written);
  EXPECT_EQ(word_result.value().words_written,
            byte_result.value().words_written);
  EXPECT_EQ(word_result.value().lines_written,
            byte_result.value().lines_written);
  EXPECT_EQ(word_result.value().lines_read, byte_result.value().lines_read);
  EXPECT_DOUBLE_EQ(word_result.value().latency_ns,
                   byte_result.value().latency_ns);
}

void ExpectDevicesIdentical(const NvmDevice& word_dev,
                            const ByteReferenceDevice& byte_dev,
                            size_t trial) {
  SCOPED_TRACE("trial " + std::to_string(trial));
  ASSERT_EQ(word_dev.Contents().size(), byte_dev.contents.size());
  EXPECT_TRUE(std::equal(word_dev.Contents().begin(),
                         word_dev.Contents().end(),
                         byte_dev.contents.begin()));
  const auto& wc = word_dev.counters();
  const auto& bc = byte_dev.counters;
  EXPECT_EQ(wc.total_bits_written, bc.total_bits_written);
  EXPECT_EQ(wc.total_words_written, bc.total_words_written);
  EXPECT_EQ(wc.total_lines_written, bc.total_lines_written);
  EXPECT_EQ(wc.total_lines_read, bc.total_lines_read);
  EXPECT_EQ(wc.total_write_ops, bc.total_write_ops);
  EXPECT_EQ(wc.total_payload_bits, bc.total_payload_bits);
  EXPECT_DOUBLE_EQ(wc.total_latency_ns, bc.total_latency_ns);
  EXPECT_EQ(word_dev.word_write_counts(), byte_dev.word_counts);
  EXPECT_EQ(word_dev.line_write_counts(), byte_dev.line_counts);
  EXPECT_EQ(word_dev.bit_write_counts(), byte_dev.bit_counts);
}

/// One property run against the active kernel table: random writes, every
/// other one up to 1.5 KiB so the full-word run crosses dirty_mask64's
/// 64-word block seam, then one dense 3072-byte write (the paper_replace
/// value size).
void RunWordDiffProperty(bool bit_wear) {
  NvmConfig config;
  config.size_bytes = 8192;
  config.track_bit_wear = bit_wear;
  NvmDevice word_dev(config);
  ByteReferenceDevice byte_dev(config);

  pnw::Rng rng(bit_wear ? 271828 : 314159);
  for (size_t trial = 0; trial < 300; ++trial) {
    // Unaligned offsets and lengths spanning head/body/tail cases: short
    // intra-word writes, word-straddling writes, multi-line and multi-block
    // writes.
    const size_t len = 1 + rng.NextBelow(trial % 2 == 0 ? 200 : 1536);
    const uint64_t addr = rng.NextBelow(config.size_bytes - len);
    std::vector<uint8_t> payload(len);
    // Mixed sparsity: mostly-clean rewrites of resident data, dense
    // random bytes, and all-ones, so clean-word skips, partial diffs,
    // and full flips all occur.
    const size_t mode = rng.NextBelow(3);
    for (size_t i = 0; i < len; ++i) {
      switch (mode) {
        case 0:  // sparse: resident byte, occasionally perturbed
          payload[i] = word_dev.Peek(addr + i, 1)[0];
          if (rng.NextBelow(8) == 0) {
            payload[i] ^= static_cast<uint8_t>(1u << rng.NextBelow(8));
          }
          break;
        case 1:
          payload[i] = static_cast<uint8_t>(rng.Next());
          break;
        default:
          payload[i] = 0xff;
          break;
      }
    }
    auto word_result = word_dev.WriteDifferential(addr, payload);
    auto byte_result = byte_dev.WriteDifferential(addr, payload);
    ASSERT_TRUE(word_result.ok());
    ExpectWriteResultsEqual(word_result, byte_result);
    if (trial % 50 == 0) {
      ExpectDevicesIdentical(word_dev, byte_dev, trial);
    }
  }
  std::vector<uint8_t> dense(3072);
  for (auto& b : dense) {
    b = static_cast<uint8_t>(rng.Next());
  }
  const uint64_t dense_addr = 8 * rng.NextBelow(600) + rng.NextBelow(8);
  auto word_result = word_dev.WriteDifferential(dense_addr, dense);
  auto byte_result = byte_dev.WriteDifferential(dense_addr, dense);
  ASSERT_TRUE(word_result.ok());
  ExpectWriteResultsEqual(word_result, byte_result);
  ExpectDevicesIdentical(word_dev, byte_dev, 300);
}

TEST(NvmDeviceTest, WordDiffMatchesByteReferenceProperty) {
  for (const simd::Isa isa : simd::AvailableIsas()) {
    ASSERT_TRUE(simd::PinIsa(isa));
    for (const bool bit_wear : {false, true}) {
      SCOPED_TRACE(std::string(simd::IsaName(isa)) +
                   (bit_wear ? " bit_wear" : ""));
      RunWordDiffProperty(bit_wear);
    }
  }
  simd::UnpinIsa();
}

TEST(NvmDeviceTest, WordDiffMatchesByteReferenceUnderFaultInjection) {
  NvmConfig config;
  config.size_bytes = 1024;
  config.track_bit_wear = true;
  NvmDevice word_dev(config);
  ByteReferenceDevice byte_dev(config);

  // Same fault schedule on both: skip 2 writes, fail the next 1 -- the
  // failing write must leave cells and counters untouched on both, and
  // the post-fault write must land identically.
  word_dev.InjectWriteFaults(/*skip=*/2, /*count=*/1);
  byte_dev.fault_skip = 2;
  byte_dev.fault_count = 1;
  pnw::Rng rng(99);
  for (size_t i = 0; i < 5; ++i) {
    const size_t len = 1 + rng.NextBelow(64);
    const uint64_t addr = rng.NextBelow(config.size_bytes - len);
    std::vector<uint8_t> payload(len);
    for (auto& b : payload) {
      b = static_cast<uint8_t>(rng.Next());
    }
    auto word_result = word_dev.WriteDifferential(addr, payload);
    auto byte_result = byte_dev.WriteDifferential(addr, payload);
    SCOPED_TRACE("write " + std::to_string(i));
    ExpectWriteResultsEqual(word_result, byte_result);
    if (i == 2) {
      EXPECT_TRUE(word_result.status().IsInternal());
    }
  }
  ExpectDevicesIdentical(word_dev, byte_dev, /*trial=*/0);
}

TEST(WearTrackerTest, BucketWritesAndCdf) {
  NvmDevice device(SmallConfig());
  WearTracker tracker(&device, /*bucket_bytes=*/64);  // 64 buckets
  tracker.RecordBucketWrite(0);
  tracker.RecordBucketWrite(0);
  tracker.RecordBucketWrite(64);
  EXPECT_EQ(tracker.MaxBucketWrites(), 2u);
  auto cdf = tracker.AddressWriteCdf();
  EXPECT_EQ(cdf.count(), 64u);
  // 62 of 64 buckets have zero writes.
  EXPECT_NEAR(cdf.CumulativeProbability(0), 62.0 / 64.0, 1e-9);
  EXPECT_DOUBLE_EQ(cdf.CumulativeProbability(2), 1.0);
}

TEST(WearTrackerTest, BitCdfRequiresTracking) {
  NvmDevice no_tracking(SmallConfig(false));
  WearTracker tracker(&no_tracking, 64);
  EXPECT_EQ(tracker.BitWriteCdf().count(), 0u);

  NvmDevice tracking(SmallConfig(true));
  WearTracker tracker2(&tracking, 64);
  std::vector<uint8_t> data = {0xff};
  ASSERT_TRUE(tracking.WriteDifferential(0, data).ok());
  auto cdf = tracker2.BitWriteCdf();
  EXPECT_EQ(cdf.count(), 4096u * 8);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 1.0);
}

}  // namespace
}  // namespace pnw::nvm
