#ifndef PNW_INDEX_DRAM_HASH_INDEX_H_
#define PNW_INDEX_DRAM_HASH_INDEX_H_

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/index/key_index.h"
#include "src/util/arena.h"

namespace pnw::index {

/// The Fig. 2a design: the index lives in DRAM, so it adds no NVM bit flips
/// (at the cost of a rebuild on recovery: `PnwStore::Open(path)` reloads it
/// from the snapshot's live entries). Deletions keep a tombstone to mirror
/// the paper's flag-bit semantics.
///
/// Layout: an open-chaining hash whose nodes and bucket arrays live in an
/// owned arena. This buys two things over the previous unordered_map:
///  - zero heap churn on the hot path (a delete+reinsert cycle recycles the
///    tombstoned node in place; new nodes come from the arena free list);
///  - a lookup that is safe without any lock, for the store's seqlock
///    GET. Nodes are never freed or reused for a different key while the
///    index is alive, and retired bucket arrays stay mapped in the arena,
///    so a reader racing a writer can always dereference safely; the
///    seqlock validation discards any torn result afterwards.
///
/// Mutators (Put/Delete) are externally serialized by the owning store's
/// exclusive lock; Get is safe concurrently with them. Get is the one
/// lookup: the store's locked and lock-free reads both call it.
class DramHashIndex final : public KeyIndex {
 public:
  DramHashIndex();
  ~DramHashIndex() override = default;  // nodes are trivially destructible

  Status Put(uint64_t key, uint64_t addr) override;
  Result<uint64_t> Get(uint64_t key) const override;
  Status Delete(uint64_t key) override;
  size_t size() const override { return live_; }

  /// All live (key, addr) mappings, in unspecified order. Tombstones are
  /// skipped: a dead entry is observationally identical to an absent one
  /// (Get/Delete -> NotFound, Put revives either way), so checkpoints
  /// serialize only the live set.
  std::vector<std::pair<uint64_t, uint64_t>> LiveEntries() const;

  /// Allocator counters of the arena holding nodes and bucket arrays.
  util::ArenaStats arena_stats() const { return arena_.Stats(); }

 private:
  struct Node {
    uint64_t key;                  // immutable after publication
    std::atomic<uint64_t> addr;
    std::atomic<bool> live;
    std::atomic<Node*> next;
  };

  /// One resolved bucket array; readers snapshot the table pointer, so a
  /// rehash can swing to a bigger array without invalidating them.
  struct Table {
    std::atomic<Node*>* buckets;
    size_t mask;  // bucket_count - 1 (power of two)
  };

  /// The node holding `key` (live or tombstoned), or null. The walk is
  /// step-bounded: a consistent chain is far shorter than the table (load
  /// factor <= 1), so only a lock-free reader racing a Rehash can exceed
  /// the bound. It gets null -- a miss -- rather than chase a mid-splice
  /// cycle, and the rehash's exclusive section fails its seqlock
  /// validation.
  Node* FindNode(const Table& table, uint64_t key) const;
  void Rehash();

  util::Arena arena_;
  /// table_ is read by every lookup, lock-free ones included, while
  /// nodes_/live_ change on every Put/Delete. Separate cache lines keep
  /// concurrent readers from missing on table_ after each write, whatever
  /// address the index object lands at.
  alignas(64) std::atomic<Table*> table_;
  alignas(64) size_t nodes_ = 0;  // live + tombstoned (rehash threshold)
  size_t live_ = 0;
};

}  // namespace pnw::index

#endif  // PNW_INDEX_DRAM_HASH_INDEX_H_
