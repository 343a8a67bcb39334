#include "src/index/dram_hash_index.h"

#include "src/util/hash.h"

namespace pnw::index {

namespace {

constexpr size_t kInitialBuckets = 64;  // power of two

}  // namespace

DramHashIndex::DramHashIndex() {
  Table* table = static_cast<Table*>(
      arena_.Allocate(sizeof(Table), alignof(Table)));
  table->buckets = static_cast<std::atomic<Node*>*>(arena_.Allocate(
      kInitialBuckets * sizeof(std::atomic<Node*>), alignof(std::atomic<Node*>)));
  for (size_t i = 0; i < kInitialBuckets; ++i) {
    table->buckets[i].store(nullptr, std::memory_order_relaxed);
  }
  table->mask = kInitialBuckets - 1;
  table_.store(table, std::memory_order_release);
}

DramHashIndex::Node* DramHashIndex::FindNode(const Table& table,
                                             uint64_t key) const {
  size_t budget = 2 * (table.mask + 1) + 64;
  for (Node* node = table.buckets[util::SplitMix64(key) & table.mask].load(
           std::memory_order_acquire);
       node != nullptr && budget-- > 0;
       node = node->next.load(std::memory_order_acquire)) {
    if (node->key == key) {
      return node;
    }
  }
  return nullptr;
}

Status DramHashIndex::Put(uint64_t key, uint64_t addr) {
  Table* table = table_.load(std::memory_order_relaxed);
  Node* node = FindNode(*table, key);
  if (node != nullptr) {
    if (!node->live.load(std::memory_order_relaxed)) {
      ++live_;  // reviving a tombstone
    }
    node->addr.store(addr, std::memory_order_relaxed);
    node->live.store(true, std::memory_order_release);
    return Status::OK();
  }
  if (nodes_ + 1 > table->mask + 1) {
    Rehash();
    table = table_.load(std::memory_order_relaxed);
  }
  node = static_cast<Node*>(arena_.Allocate(sizeof(Node), alignof(Node)));
  node->key = key;
  node->addr.store(addr, std::memory_order_relaxed);
  node->live.store(true, std::memory_order_relaxed);
  std::atomic<Node*>& head = table->buckets[util::SplitMix64(key) & table->mask];
  node->next.store(head.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  // Publication point: everything written above becomes visible to any
  // reader that reaches the node through this head.
  head.store(node, std::memory_order_release);
  ++nodes_;
  ++live_;
  return Status::OK();
}

void DramHashIndex::Rehash() {
  Table* old_table = table_.load(std::memory_order_relaxed);
  const size_t new_count = (old_table->mask + 1) * 2;
  Table* table = static_cast<Table*>(
      arena_.Allocate(sizeof(Table), alignof(Table)));
  table->buckets = static_cast<std::atomic<Node*>*>(arena_.Allocate(
      new_count * sizeof(std::atomic<Node*>), alignof(std::atomic<Node*>)));
  for (size_t i = 0; i < new_count; ++i) {
    table->buckets[i].store(nullptr, std::memory_order_relaxed);
  }
  table->mask = new_count - 1;

  // Relink every node into the new array. A lock-free reader still
  // walking the OLD table may see chains mid-splice -- every pointer it
  // chases still lands in live arena memory, FindNode's walk is
  // step-bounded, and its seqlock validation will fail (the owning store's
  // writer lock is held here). The old table and bucket array are retired into the arena,
  // never unmapped.
  for (size_t i = 0; i <= old_table->mask; ++i) {
    Node* node = old_table->buckets[i].load(std::memory_order_relaxed);
    while (node != nullptr) {
      Node* next = node->next.load(std::memory_order_relaxed);
      std::atomic<Node*>& head = table->buckets[util::SplitMix64(node->key) & table->mask];
      node->next.store(head.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      head.store(node, std::memory_order_release);
      node = next;
    }
  }
  table_.store(table, std::memory_order_release);
}

Result<uint64_t> DramHashIndex::Get(uint64_t key) const {
  const Table* table = table_.load(std::memory_order_acquire);
  Node* node = FindNode(*table, key);
  if (node == nullptr || !node->live.load(std::memory_order_acquire)) {
    return Status::NotFound("key not in index");
  }
  return node->addr.load(std::memory_order_relaxed);
}

std::vector<std::pair<uint64_t, uint64_t>> DramHashIndex::LiveEntries()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> entries;
  entries.reserve(live_);
  const Table* table = table_.load(std::memory_order_acquire);
  for (size_t i = 0; i <= table->mask; ++i) {
    for (Node* node = table->buckets[i].load(std::memory_order_acquire);
         node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      if (node->live.load(std::memory_order_acquire)) {
        entries.emplace_back(node->key,
                             node->addr.load(std::memory_order_relaxed));
      }
    }
  }
  return entries;
}

Status DramHashIndex::Delete(uint64_t key) {
  Table* table = table_.load(std::memory_order_relaxed);
  Node* node = FindNode(*table, key);
  if (node == nullptr || !node->live.load(std::memory_order_relaxed)) {
    return Status::NotFound("key not in index");
  }
  node->live.store(false, std::memory_order_release);
  --live_;
  return Status::OK();
}

}  // namespace pnw::index
