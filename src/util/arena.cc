#include "src/util/arena.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define PNW_ARENA_HAVE_MMAP 1
#else
#define PNW_ARENA_HAVE_MMAP 0
#endif

namespace pnw::util {

struct Arena::Slab {
  Slab* next;
  size_t map_bytes;  // full mapping length including this header
};

struct Arena::FreeNode {
  FreeNode* next;
};

namespace {

constexpr size_t kSlabHeaderBytes = 64;  // keeps payload cache-line aligned

size_t RoundUp(size_t v, size_t align) {
  return (v + align - 1) & ~(align - 1);
}

void* MapSlab(size_t bytes) {
#if PNW_ARENA_HAVE_MMAP
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  return mem == MAP_FAILED ? nullptr : mem;
#else
  return ::operator new(bytes, std::nothrow);
#endif
}

void UnmapSlab(void* mem, size_t bytes) {
#if PNW_ARENA_HAVE_MMAP
  (void)::munmap(mem, bytes);
#else
  (void)bytes;
  ::operator delete(mem);
#endif
}

}  // namespace

Arena::Arena(Options options) : options_(options) {
  if (options_.slab_bytes < kSlabHeaderBytes + 4096) {
    options_.slab_bytes = kSlabHeaderBytes + 4096;
  }
}

Arena::~Arena() {
  Slab* s = slabs_;
  while (s != nullptr) {
    Slab* next = s->next;
    UnmapSlab(s, s->map_bytes);
    s = next;
  }
}

size_t Arena::ClassFor(size_t bytes) {
  if (bytes > (size_t{1} << kMaxClassShift)) {
    return kNoClass;
  }
  const size_t width = std::bit_width(bytes > 8 ? bytes - 1 : 7);
  return width - kMinClassShift;
}

void Arena::AddSlab(size_t min_bytes) {
  const size_t payload = std::max(options_.slab_bytes,
                                  RoundUp(min_bytes, size_t{4096}));
  const size_t map_bytes = kSlabHeaderBytes + payload;
  void* mem = MapSlab(map_bytes);
  if (mem == nullptr) {
    std::fprintf(stderr, "pnw arena: slab mmap of %zu bytes failed\n",
                 map_bytes);
    std::abort();
  }
  Slab* slab = static_cast<Slab*>(mem);
  slab->next = slabs_;
  slab->map_bytes = map_bytes;
  slabs_ = slab;
  bump_ = static_cast<uint8_t*>(mem) + kSlabHeaderBytes;
  bump_end_ = static_cast<uint8_t*>(mem) + map_bytes;
  ++stats_.slabs;
  stats_.slab_bytes += map_bytes;
}

void* Arena::Allocate(size_t bytes, size_t align) {
  if (align < 8) {
    align = 8;
  }
  const size_t cls = ClassFor(bytes < 8 ? 8 : bytes);
  const size_t rounded =
      cls == kNoClass ? RoundUp(bytes < 8 ? 8 : bytes, size_t{8})
                      : (size_t{1} << (cls + kMinClassShift));
  ++stats_.allocations;
  stats_.live_bytes += rounded;
  if (stats_.live_bytes > stats_.high_water_bytes) {
    stats_.high_water_bytes = stats_.live_bytes;
  }

  // Size-class blocks are naturally aligned to their (power-of-two) size,
  // so the free list can serve any request with align <= rounded.
  if (cls != kNoClass && align <= rounded && free_lists_[cls] != nullptr) {
    FreeNode* node = free_lists_[cls];
    free_lists_[cls] = node->next;
    ++stats_.freelist_hits;
    return node;
  }

  uintptr_t p = reinterpret_cast<uintptr_t>(bump_);
  uintptr_t aligned = RoundUp(p, align);
  if (bump_ == nullptr || aligned + rounded >
                              reinterpret_cast<uintptr_t>(bump_end_)) {
    AddSlab(rounded + align);
    p = reinterpret_cast<uintptr_t>(bump_);
    aligned = RoundUp(p, align);
  }
  bump_ = reinterpret_cast<uint8_t*>(aligned + rounded);
  return reinterpret_cast<void*>(aligned);
}

void Arena::Deallocate(void* ptr, size_t bytes) {
  if (ptr == nullptr) {
    return;
  }
  const size_t cls = ClassFor(bytes < 8 ? 8 : bytes);
  const size_t rounded =
      cls == kNoClass ? RoundUp(bytes < 8 ? 8 : bytes, size_t{8})
                      : (size_t{1} << (cls + kMinClassShift));
  stats_.live_bytes -= rounded;
  if (cls == kNoClass) {
    return;  // oversized blocks are bump-only; the slab reclaims at teardown
  }
  FreeNode* node = static_cast<FreeNode*>(ptr);
  node->next = free_lists_[cls];
  free_lists_[cls] = node;
}

}  // namespace pnw::util
