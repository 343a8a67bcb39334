#ifndef PNW_CORE_METRICS_H_
#define PNW_CORE_METRICS_H_

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <type_traits>

#include "src/core/store_metrics_fields.h"

namespace pnw::core {

/// Copyable relaxed-atomic counter for StoreMetrics' read-side slots.
///
/// GETs run under a *shared* per-shard lock or, on the seqlock path, under
/// no lock at all, so any number of reader threads may bump these counters
/// concurrently; relaxed atomics make that race-free without serializing
/// the readers.
/// StoreMetrics must nevertheless stay a value type -- the checkpoint
/// codec, aggregation, and tests copy it freely -- so copying a counter
/// snapshots its current value instead of (illegally) copying the atomic.
template <typename T>
class RelaxedCounter {
 public:
  RelaxedCounter() = default;
  RelaxedCounter(T value) : value_(value) {}  // NOLINT(runtime/explicit)
  RelaxedCounter(const RelaxedCounter& other) : value_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(T value) {
    value_.store(value, std::memory_order_relaxed);
    return *this;
  }

  /// Transparent read: counters behave as a plain T in arithmetic,
  /// comparisons, and streaming.
  operator T() const { return load(); }
  T load() const { return value_.load(std::memory_order_relaxed); }

  RelaxedCounter& operator+=(T delta) {
    if constexpr (std::is_integral_v<T>) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    } else {
      // fetch_add on atomic<double> is C++20 but not universally shipped;
      // a relaxed CAS loop is equivalent here (no ordering required).
      T current = value_.load(std::memory_order_relaxed);
      while (!value_.compare_exchange_weak(current, current + delta,
                                           std::memory_order_relaxed)) {
      }
    }
    return *this;
  }
  RelaxedCounter& operator++() { return *this += T{1}; }

 private:
  std::atomic<T> value_{};
};

template <typename T>
inline std::ostream& operator<<(std::ostream& os,
                                const RelaxedCounter<T>& counter) {
  return os << counter.load();
}

/// Per-store operation counters. Device-level wear (bits/words/lines) lives
/// in nvm::NvmCounters; this struct tracks what the *store* did and how the
/// simulated time breaks down, which the paper's latency figures need.
///
/// The fields come from the X-macro lists in store_metrics_fields.h, which
/// also document each field and its reconciliation identity.
struct StoreMetrics {
#define PNW_DECLARE_FIELD(type, name) type name{};
  PNW_STORE_METRICS(PNW_DECLARE_FIELD)
#undef PNW_DECLARE_FIELD

  /// The PUT-attribution invariant: every counted PUT was either placed by
  /// the model, placed model-less, or written in place. Tests assert this
  /// after mixed traffic; it fails if a path bumps `puts` without deciding
  /// its attribution (or vice versa).
  bool PlacementAttributionConsistent() const {
    return predicted_placements + fallback_placements + inplace_updates ==
           puts;
  }

  /// Average bit updates per 512 payload bits written (paper Fig. 6 y-axis).
  double BitUpdatesPer512() const;
  /// Average simulated device time per PUT in ns (paper Fig. 7/8). Measured
  /// prediction time is reported apart, by AvgPredictNs().
  double AvgPutDeviceNs() const;
  /// Average written cache lines per PUT (paper Fig. 9 y-axis).
  double AvgLinesPerPut() const;
  /// Average measured prediction wall time per PUT in ns.
  double AvgPredictNs() const;

  /// Fold another store's metrics into this one, field by field
  /// (ShardedPnwStore sums its shards' metrics through this).
  void Accumulate(const StoreMetrics& other);

  /// One-line rendering: every field as "name=value", then the derived
  /// ratios, for logs and CLIs.
  std::string ToString() const;
};

}  // namespace pnw::core

#endif  // PNW_CORE_METRICS_H_
