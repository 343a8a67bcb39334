#include "src/util/random.h"

#include <cmath>

#include "src/util/hash.h"

namespace pnw {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // Seed the 256-bit state from SplitMix64, per the xoshiro authors'
  // recommendation; guarantees a non-zero state.
  uint64_t sm = seed;
  for (auto& s : s_) {
    s = util::SplitMix64(sm);
    sm += util::kSplitMix64Gamma;
  }
}

uint64_t Rng::Next() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  // Lemire's multiply-shift rejection-free approximation is fine here; exact
  // uniformity is not required for workload generation, determinism is.
  __uint128_t product = static_cast<__uint128_t>(Next()) * bound;
  return static_cast<uint64_t>(product >> 64);
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  // Avoid log(0).
  if (u1 < 1e-300) {
    u1 = 1e-300;
  }
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

ZipfianGenerator::ZipfianGenerator(uint64_t n, double theta)
    : n_(n), theta_(theta), cdf_(n) {
  double norm = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    norm += 1.0 / std::pow(static_cast<double>(i + 1), theta_);
  }
  double acc = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), theta_) / norm;
    cdf_[i] = acc;
  }
  cdf_[n - 1] = 1.0;  // guard against rounding
}

uint64_t ZipfianGenerator::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  // Binary search the CDF.
  uint64_t lo = 0;
  uint64_t hi = n_ - 1;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace pnw
