#include <gtest/gtest.h>

#include "src/core/metrics.h"

namespace pnw::core {
namespace {

TEST(StoreMetricsTest, ZeroedByDefault) {
  StoreMetrics m;
  EXPECT_EQ(m.BitUpdatesPer512(), 0.0);
  EXPECT_EQ(m.AvgPutDeviceNs(), 0.0);
  EXPECT_EQ(m.AvgLinesPerPut(), 0.0);
  EXPECT_EQ(m.AvgPredictNs(), 0.0);
}

TEST(StoreMetricsTest, BitUpdatesPer512IsNormalized) {
  StoreMetrics m;
  m.put_bits_written = 100;
  m.put_payload_bits = 1024;  // two 512-bit payloads
  EXPECT_DOUBLE_EQ(m.BitUpdatesPer512(), 50.0);
}

TEST(StoreMetricsTest, ConventionalWriteScoresExactly512) {
  // Writing every bit of the payload must score exactly 512/512.
  StoreMetrics m;
  m.put_bits_written = 4096;
  m.put_payload_bits = 4096;
  EXPECT_DOUBLE_EQ(m.BitUpdatesPer512(), 512.0);
}

TEST(StoreMetricsTest, DeviceAndPredictionAveragesStaySeparate) {
  // Simulated device time and measured predict time are two labeled
  // averages; neither leaks into the other.
  StoreMetrics m;
  m.puts = 4;
  m.put_device_ns = 4000.0;
  m.predict_wall_ns = 2000.0;
  EXPECT_DOUBLE_EQ(m.AvgPutDeviceNs(), 1000.0);
  EXPECT_DOUBLE_EQ(m.AvgPredictNs(), 500.0);
  m.predict_wall_ns = 0.0;
  EXPECT_DOUBLE_EQ(m.AvgPutDeviceNs(), 1000.0);
  m.put_device_ns = 0.0;
  m.predict_wall_ns = 2000.0;
  EXPECT_DOUBLE_EQ(m.AvgPutDeviceNs(), 0.0);
  EXPECT_DOUBLE_EQ(m.AvgPredictNs(), 500.0);
}

TEST(StoreMetricsTest, LinesPerPut) {
  StoreMetrics m;
  m.puts = 10;
  m.put_lines_written = 35;
  EXPECT_DOUBLE_EQ(m.AvgLinesPerPut(), 3.5);
}

TEST(StoreMetricsTest, ToStringMentionsKeyCounters) {
  StoreMetrics m;
  m.puts = 7;
  m.retrains = 2;
  m.gets = 5;
  m.get_misses = 3;
  const std::string s = m.ToString();
  EXPECT_NE(s.find("puts=7"), std::string::npos);
  EXPECT_NE(s.find("retrains=2"), std::string::npos);
  EXPECT_NE(s.find("gets=5"), std::string::npos);
  EXPECT_NE(s.find("get_misses=3"), std::string::npos);
}

TEST(StoreMetricsTest, AccumulateSumsReadSideCounters) {
  // The read-side slots are relaxed atomics wrapped for copyability;
  // Accumulate (the ShardedPnwStore aggregation path) must sum them like
  // any other counter.
  StoreMetrics a;
  a.gets = 10;
  a.get_misses = 2;
  a.get_device_ns = 100.0;
  StoreMetrics b;
  b.gets = 5;
  b.get_misses = 1;
  b.get_device_ns = 50.0;
  a.Accumulate(b);
  EXPECT_EQ(a.gets, 15u);
  EXPECT_EQ(a.get_misses, 3u);
  EXPECT_DOUBLE_EQ(a.get_device_ns, 150.0);
}

TEST(StoreMetricsTest, CopySnapshotsReadSideCounters) {
  StoreMetrics a;
  a.gets = 7;
  a.get_misses = 4;
  StoreMetrics b = a;
  ++a.gets;  // the copy must not alias the original's atomics
  EXPECT_EQ(b.gets, 7u);
  EXPECT_EQ(b.get_misses, 4u);
  EXPECT_EQ(a.gets, 8u);
}

}  // namespace
}  // namespace pnw::core
