#include <gtest/gtest.h>

#include <vector>

#include "src/core/dynamic_address_pool.h"

namespace pnw::core {
namespace {

TEST(DynamicAddressPoolTest, InsertAcquireRoundTrip) {
  DynamicAddressPool pool(3);
  pool.Insert(1, 100);
  pool.Insert(1, 200);
  EXPECT_EQ(pool.FreeCount(), 2u);
  EXPECT_EQ(pool.FreeCount(1), 2u);
  auto a = pool.Acquire(1);
  ASSERT_TRUE(a.has_value());
  auto b = pool.Acquire(1);
  ASSERT_TRUE(b.has_value());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(pool.FreeCount(), 0u);
}

TEST(DynamicAddressPoolTest, AcquireFromEmptyClusterFails) {
  DynamicAddressPool pool(2);
  pool.Insert(0, 7);
  EXPECT_FALSE(pool.Acquire(1).has_value());
  EXPECT_TRUE(pool.Acquire(0).has_value());
}

TEST(DynamicAddressPoolTest, RankedFallbackUsesNextNearest) {
  DynamicAddressPool pool(3);
  pool.Insert(2, 42);
  const std::vector<size_t> ranked = {0, 1, 2};
  bool fallback = false;
  auto addr = pool.AcquireRanked(ranked, &fallback);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, 42u);
  EXPECT_TRUE(fallback);
}

TEST(DynamicAddressPoolTest, RankedNoFallbackWhenFirstHasAddresses) {
  DynamicAddressPool pool(3);
  pool.Insert(0, 1);
  pool.Insert(2, 2);
  const std::vector<size_t> ranked = {0, 1, 2};
  bool fallback = true;
  auto addr = pool.AcquireRanked(ranked, &fallback);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, 1u);
  EXPECT_FALSE(fallback);
}

TEST(DynamicAddressPoolTest, RankedAllEmpty) {
  DynamicAddressPool pool(2);
  const std::vector<size_t> ranked = {0, 1};
  bool fallback = false;
  EXPECT_FALSE(pool.AcquireRanked(ranked, &fallback).has_value());
}

TEST(DynamicAddressPoolTest, RankedMinWearPicksColdestInNearestCluster) {
  DynamicAddressPool pool(2);
  pool.Insert(0, 10);
  pool.Insert(0, 20);
  pool.Insert(0, 30);
  // Wear by address: 10 -> 5, 20 -> 1, 30 -> 3.
  const auto wear_of = [](uint64_t addr) -> uint32_t {
    return addr == 10 ? 5 : addr == 20 ? 1 : 3;
  };
  const std::vector<size_t> ranked = {0, 1};
  bool fallback = true;
  auto addr = pool.AcquireRankedMinWear(ranked, wear_of, /*max_wear=*/100,
                                        &fallback);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, 20u);  // the coldest, not the first
  EXPECT_FALSE(fallback);
  EXPECT_EQ(pool.FreeCount(), 2u);
}

TEST(DynamicAddressPoolTest, RankedMinWearRespectsBoundAndLeavesPoolIntact) {
  DynamicAddressPool pool(1);
  pool.Insert(0, 10);
  pool.Insert(0, 20);
  const auto wear_of = [](uint64_t addr) -> uint32_t {
    return addr == 10 ? 7 : 9;
  };
  const std::vector<size_t> ranked = {0};
  bool fallback = false;
  // Nothing strictly colder than 7: the acquire must fail WITHOUT touching
  // the pool (the migration-skip path depends on leaving zero trace).
  EXPECT_FALSE(pool.AcquireRankedMinWear(ranked, wear_of, /*max_wear=*/7,
                                         &fallback)
                   .has_value());
  EXPECT_EQ(pool.FreeCount(), 2u);
  EXPECT_EQ(pool.FreeList(0), (std::vector<uint64_t>{10, 20}));
  // Relaxing the bound by one admits exactly the wear-7 address.
  auto addr = pool.AcquireRankedMinWear(ranked, wear_of, /*max_wear=*/8,
                                        &fallback);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, 10u);
}

TEST(DynamicAddressPoolTest, RankedMinWearFallsBackToColderFarCluster) {
  DynamicAddressPool pool(2);
  pool.Insert(0, 10);  // nearest cluster, but hot
  pool.Insert(1, 20);  // farther cluster, cold
  const auto wear_of = [](uint64_t addr) -> uint32_t {
    return addr == 10 ? 50 : 2;
  };
  const std::vector<size_t> ranked = {0, 1};
  bool fallback = false;
  auto addr = pool.AcquireRankedMinWear(ranked, wear_of, /*max_wear=*/10,
                                        &fallback);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(*addr, 20u);
  EXPECT_TRUE(fallback);
}

TEST(DynamicAddressPoolTest, ClearEmptiesAllClusters) {
  DynamicAddressPool pool(2);
  pool.Insert(0, 1);
  pool.Insert(1, 2);
  pool.Clear();
  EXPECT_EQ(pool.FreeCount(), 0u);
  EXPECT_FALSE(pool.Acquire(0).has_value());
  EXPECT_FALSE(pool.Acquire(1).has_value());
}

}  // namespace
}  // namespace pnw::core
