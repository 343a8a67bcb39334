// Byte-wise relaxed-atomic memcpy helpers for memory that seqlock
// optimistic readers may scan while a (lock-serialized) writer mutates it.
//
// Under the seqlock protocol the *values* a racing reader observes are
// discarded by the failed sequence validation -- but the C++ memory model
// still calls a plain-load/plain-store overlap a data race (undefined
// behavior, and a TSan report). Routing both sides through relaxed
// std::atomic_ref<uint8_t> accesses makes the race defined with zero
// fencing cost; on every relevant ABI a relaxed byte access compiles to
// the same mov as a plain one.
//
// Writers inside an exclusive section never race with each other, so only
// the stores (and reader-side loads) of seqlock-visible memory need these
// helpers; writer-side *loads* of that memory can stay plain.
#ifndef PNW_UTIL_ATOMIC_BYTES_H_
#define PNW_UTIL_ATOMIC_BYTES_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

namespace pnw::util {

/// memcpy(dst, src, n) with relaxed-atomic byte stores to dst.
inline void AtomicStoreBytes(uint8_t* dst, const uint8_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    std::atomic_ref<uint8_t>(dst[i]).store(src[i],
                                           std::memory_order_relaxed);
  }
}

/// AtomicStoreBytes(dst, src, 8) spelled out as eight byte stores: the
/// compiler keeps a loop of atomic stores a loop, and the differential
/// write issues one of these per dirty word.
inline void AtomicStoreBytes8(uint8_t* dst, const uint8_t* src) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (std::atomic_ref<uint8_t>(dst[I]).store(src[I],
                                            std::memory_order_relaxed),
     ...);
  }(std::make_index_sequence<8>{});
}

/// One relaxed-atomic byte load. (atomic_ref of a const type is a C++26
/// feature; the const_cast is safe because load() never writes.)
inline uint8_t AtomicLoadByte(const uint8_t& src) {
  return std::atomic_ref<uint8_t>(const_cast<uint8_t&>(src))
      .load(std::memory_order_relaxed);
}

/// memcpy(dst, src, n) with relaxed-atomic byte loads from src: eight
/// bytes per step as a fold of eight loads (the mirror of
/// AtomicStoreBytes8), then a byte tail. A loop of single-byte steps runs
/// once per byte of the value, and its speed depended on the loop's code
/// placement.
inline void AtomicLoadBytes(uint8_t* dst, const uint8_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    [&]<size_t... I>(std::index_sequence<I...>) {
      ((dst[i + I] = AtomicLoadByte(src[i + I])), ...);
    }(std::make_index_sequence<8>{});
  }
  for (; i < n; ++i) {
    dst[i] = AtomicLoadByte(src[i]);
  }
}

}  // namespace pnw::util

#endif  // PNW_UTIL_ATOMIC_BYTES_H_
