// Slab/arena allocator over mmap'd pages: the backing store for the
// simulated NVM array, DramHashIndex nodes, and PnwStore bucket staging.
//
// Design (after the free-list-over-page-pool idiom in SNIPPETS.md):
//   - memory arrives in large mmap'd slabs (default 2 MiB) and is
//     bump-allocated from the current slab;
//   - freed blocks are recycled through power-of-two size-class free
//     lists (the next pointer lives in the freed block itself);
//   - slabs are NEVER unmapped before the arena is destroyed. This is a
//     load-bearing property, not laziness: seqlock-optimistic readers may
//     chase a pointer into a node the writer has already retired, and the
//     read must fault-free land in still-mapped memory (the seq validation
//     afterwards discards the value).
//
// The arena is NOT internally synchronized. Every owner in this codebase
// allocates under its store's exclusive lock (or from a single thread);
// concurrent *reads* of previously allocated memory are always fine.
#ifndef PNW_UTIL_ARENA_H_
#define PNW_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>

namespace pnw::util {

/// Point-in-time allocator counters, all monotone except live/high-water.
/// Wired into StoreMetrics as gauges (refreshed, not serialized) so the
/// metrics reconcile lint covers the memory layer.
struct ArenaStats {
  uint64_t slabs = 0;             ///< mmap'd slabs currently owned
  uint64_t slab_bytes = 0;        ///< total bytes mapped across slabs
  uint64_t live_bytes = 0;        ///< bytes handed out and not yet freed
  uint64_t high_water_bytes = 0;  ///< max live_bytes ever observed
  uint64_t allocations = 0;       ///< Allocate() calls served
  uint64_t freelist_hits = 0;     ///< allocations served from a free list
};

/// A growable slab allocator. Allocate() never fails softly: it aborts on
/// mmap exhaustion (the simulated device sizes are fixed up front, so a
/// failure here is a configuration error, not a recoverable condition).
class Arena {
 public:
  struct Options {
    /// Granularity of slab growth; requests larger than this get a
    /// dedicated slab of exactly the rounded request size.
    size_t slab_bytes = size_t{2} << 20;
  };

  Arena() : Arena(Options()) {}
  explicit Arena(Options options);
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` bytes aligned to `align` (power of two, >= 8 after
  /// internal rounding). Zero-byte requests return a valid unique pointer.
  void* Allocate(size_t bytes, size_t align = 8);

  /// Recycles a block previously returned by Allocate(bytes, ...). The
  /// memory stays mapped (see header comment) but becomes reusable for
  /// future allocations of the same size class.
  void Deallocate(void* ptr, size_t bytes);

  /// Typed convenience: allocate + placement-construct.
  template <typename T, typename... Args>
  T* New(Args&&... args) {
    void* p = Allocate(sizeof(T), alignof(T));
    return ::new (p) T(static_cast<Args&&>(args)...);
  }

  ArenaStats Stats() const { return stats_; }

 private:
  struct Slab;      // header placed at the start of each mapping
  struct FreeNode;  // intrusive free-list link inside freed blocks

  /// Smallest power-of-two size class is 8 (a FreeNode must fit);
  /// largest is 4 KiB -- beyond that blocks are bump-only (the only
  /// oversized blocks in practice are the NVM array and hash buckets,
  /// which live for the arena's lifetime anyway).
  static constexpr size_t kMinClassShift = 3;
  static constexpr size_t kMaxClassShift = 12;
  static constexpr size_t kNumClasses = kMaxClassShift - kMinClassShift + 1;

  /// Size class index for a byte count, or kNoClass when too large.
  static constexpr size_t kNoClass = ~size_t{0};
  static size_t ClassFor(size_t bytes);

  void AddSlab(size_t min_bytes);

  Options options_;
  Slab* slabs_ = nullptr;          // newest first
  uint8_t* bump_ = nullptr;        // next free byte in the newest slab
  uint8_t* bump_end_ = nullptr;    // end of the newest slab
  FreeNode* free_lists_[kNumClasses] = {};
  ArenaStats stats_;
};

}  // namespace pnw::util

#endif  // PNW_UTIL_ARENA_H_
