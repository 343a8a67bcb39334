#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/bitvec.h"
#include "src/util/hamming.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace pnw {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("missing key");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.ToString(), "NotFound: missing key");
}

TEST(StatusTest, AllFactoriesProduceMatchingPredicates) {
  EXPECT_TRUE(Status::AlreadyExists("x").IsAlreadyExists());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::OutOfSpace("x").IsOutOfSpace());
  EXPECT_TRUE(Status::FailedPrecondition("x").IsFailedPrecondition());
  EXPECT_TRUE(Status::Internal("x").IsInternal());
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok_result(42);
  ASSERT_TRUE(ok_result.ok());
  EXPECT_EQ(ok_result.value(), 42);

  Result<int> err_result(Status::OutOfSpace("full"));
  EXPECT_FALSE(err_result.ok());
  EXPECT_TRUE(err_result.status().IsOutOfSpace());
}

TEST(ResultTest, ValueOfAnErrorAborts) {
  // Every build, not only debug ones: handing out a default-constructed
  // value for an error would hide the error from the caller.
  Result<int> missing(Status::NotFound("no such key"));
  const Result<int>& as_const = missing;
  EXPECT_DEATH(missing.value(), "of an error: NotFound: no such key");
  EXPECT_DEATH(as_const.value(), "of an error: NotFound: no such key");
  EXPECT_DEATH(std::move(missing).value(), "of an error: NotFound");
  EXPECT_DEATH(Result<std::vector<uint8_t>>(Status::Internal("boom")).value(),
               "of an error: Internal: boom");
}

// --------------------------------------------------------------- Hamming

TEST(HammingTest, PopCountMatchesBuiltin) {
  std::vector<uint8_t> data = {0xff, 0x0f, 0x01, 0x00, 0x80};
  EXPECT_EQ(PopCount(data), 8u + 4 + 1 + 0 + 1);
}

TEST(HammingTest, DistanceOfIdenticalIsZero) {
  std::vector<uint8_t> a = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(HammingDistance(a, a), 0u);
}

TEST(HammingTest, DistanceCountsDifferingBits) {
  std::vector<uint8_t> a = {0x00, 0xff};
  std::vector<uint8_t> b = {0x01, 0x7f};
  EXPECT_EQ(HammingDistance(a, b), 2u);
}

TEST(HammingTest, DistanceOnLongBuffers) {
  // Exercise both the 8-byte stride and the byte tail.
  std::vector<uint8_t> a(37, 0x00);
  std::vector<uint8_t> b(37, 0xff);
  EXPECT_EQ(HammingDistance(a, b), 37u * 8);
}

TEST(HammingTest, Distance64) {
  EXPECT_EQ(HammingDistance64(0x0, 0xf), 4u);
  EXPECT_EQ(HammingDistance64(UINT64_MAX, 0), 64u);
}

// --------------------------------------------------------------- BitVector

TEST(BitVectorTest, ConstructAllZero) {
  BitVector v(12);
  EXPECT_EQ(v.size(), 12u);
  EXPECT_EQ(v.CountOnes(), 0u);
}

TEST(BitVectorTest, SetAndGet) {
  BitVector v(16);
  v.Set(3, true);
  v.Set(15, true);
  EXPECT_TRUE(v.Get(3));
  EXPECT_TRUE(v.Get(15));
  EXPECT_FALSE(v.Get(4));
  EXPECT_EQ(v.CountOnes(), 2u);
}

TEST(BitVectorTest, FromStringIgnoresSeparators) {
  BitVector v = BitVector::FromString("0,1, 1 0");
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v.ToString(), "0110");
}

TEST(BitVectorTest, HammingDistanceTo) {
  BitVector a = BitVector::FromString("00001111");
  BitVector b = BitVector::FromString("11110000");
  EXPECT_EQ(a.HammingDistanceTo(b), 8u);
  EXPECT_EQ(a.HammingDistanceTo(a), 0u);
}

TEST(BitVectorTest, PushBackGrows) {
  BitVector v;
  for (int i = 0; i < 20; ++i) {
    v.PushBack(i % 2 == 0);
  }
  EXPECT_EQ(v.size(), 20u);
  EXPECT_EQ(v.CountOnes(), 10u);
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(10), 10u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ZipfianTest, RankZeroMostPopular) {
  Rng rng(13);
  ZipfianGenerator zipf(100, 0.99);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 20000; ++i) {
    ++counts[zipf.Next(rng)];
  }
  // Head should dominate the tail decisively.
  EXPECT_GT(counts[0], counts[50] * 5);
  EXPECT_GT(counts[0], 0);
}

// ------------------------------------------------------------------- Stats

TEST(RunningStatTest, MeanAndVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStatTest, CiShrinksWithSamples) {
  RunningStat small;
  RunningStat large;
  Rng rng(17);
  for (int i = 0; i < 10; ++i) {
    small.Add(rng.NextGaussian());
  }
  for (int i = 0; i < 1000; ++i) {
    large.Add(rng.NextGaussian());
  }
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(EmpiricalCdfTest, CumulativeProbability) {
  EmpiricalCdf cdf({1, 2, 2, 3, 5});
  EXPECT_DOUBLE_EQ(cdf.CumulativeProbability(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.CumulativeProbability(2), 0.6);
  EXPECT_DOUBLE_EQ(cdf.CumulativeProbability(5), 1.0);
}

TEST(EmpiricalCdfTest, Quantile) {
  EmpiricalCdf cdf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  EXPECT_DOUBLE_EQ(cdf.Quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(cdf.Quantile(1.0), 10.0);
}

TEST(EmpiricalCdfTest, PointsAreMonotone) {
  EmpiricalCdf cdf({3, 1, 4, 1, 5, 9, 2, 6});
  auto points = cdf.Points();
  ASSERT_FALSE(points.empty());
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].value, points[i - 1].value);
    EXPECT_GT(points[i].cumulative_probability,
              points[i - 1].cumulative_probability);
  }
  EXPECT_DOUBLE_EQ(points.back().cumulative_probability, 1.0);
}

// -------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.ParallelFor(1000, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      ++hits[i];
    }
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, ParallelForEmpty) {
  ThreadPool pool(2);
  bool ran = false;
  pool.ParallelFor(0, [&](size_t, size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace pnw
