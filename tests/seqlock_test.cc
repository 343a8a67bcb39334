// Seqlock optimistic-read path: single-threaded semantics (accounting
// identity, fallback conditions) plus the torture tests the TSan CI job
// runs (the suite name carries "Concurrency" for that job's -R filter).
//
// Torture invariant: writers only ever store values whose bytes are all
// equal, so ANY mixed-byte value returned by a reader is a torn read the
// seqlock validation failed to discard. Readers additionally check the key
// round-trip (the value's fill byte is derived from the key), catching a
// lookup that validated against the wrong bucket.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/pnw_store.h"
#include "src/core/sharded_store.h"
#include "src/util/atomic_bytes.h"
#include "src/util/mutex.h"

namespace pnw::core {
namespace {

constexpr size_t kValueBytes = 32;

PnwOptions SmallOptions() {
  PnwOptions options;
  options.value_bytes = kValueBytes;
  options.initial_buckets = 128;
  options.capacity_buckets = 256;
  options.num_clusters = 2;
  options.max_features = 0;
  options.training_sample_cap = 64;
  return options;
}

// All bytes equal; the fill encodes (key, version) so readers can vet both.
std::vector<uint8_t> SolidValue(uint64_t key, uint64_t version) {
  return std::vector<uint8_t>(kValueBytes,
                              static_cast<uint8_t>(key * 31 + version));
}

std::unique_ptr<PnwStore> BootstrappedStore(PnwOptions options, size_t n) {
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys(n);
  std::vector<std::vector<uint8_t>> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
    values[i] = SolidValue(i, 0);
  }
  util::WriterLock lock(store->mu());
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  return store;
}

TEST(OptimisticCopyTest, AtomicLoadBytesMatchesMemcpyAtEveryOffset) {
  // The seqlock copy moves eight bytes per step plus a byte tail. The
  // source is sized to the byte, so a sanitizer build flags any over-read;
  // a sentinel byte past the destination catches an over-write.
  for (size_t n = 0; n <= 70; ++n) {
    for (size_t src_off = 0; src_off < 8; ++src_off) {
      for (size_t dst_off = 0; dst_off < 8; ++dst_off) {
        std::vector<uint8_t> src(src_off + n);
        for (size_t i = 0; i < src.size(); ++i) {
          src[i] = static_cast<uint8_t>(i * 37 + 11);
        }
        std::vector<uint8_t> got(dst_off + n + 1, 0xa5);
        std::vector<uint8_t> want = got;
        util::AtomicLoadBytes(got.data() + dst_off, src.data() + src_off, n);
        std::copy_n(src.begin() + static_cast<long>(src_off), n,
                    want.begin() + static_cast<long>(dst_off));
        ASSERT_EQ(got, want) << "n=" << n << " src_off=" << src_off
                             << " dst_off=" << dst_off;
      }
    }
  }
}

TEST(OptimisticConcurrencyTest, OptimisticGetMatchesLockedGet) {
  auto store = BootstrappedStore(SmallOptions(), 64);
  for (uint64_t key = 0; key < 64; ++key) {
    auto fast = store->TryGetOptimistic(key);
    ASSERT_TRUE(fast.has_value()) << "uncontended optimistic Get fell back";
    ASSERT_TRUE(fast->ok());
    util::ReaderLock lock(store->mu());
    auto locked = store->Get(key);
    ASSERT_TRUE(locked.ok());
    EXPECT_EQ(fast->value(), locked.value());
  }
  // A validated miss is a real miss, accounted as one.
  auto miss = store->TryGetOptimistic(9999);
  ASSERT_TRUE(miss.has_value());
  EXPECT_TRUE(miss->status().IsNotFound());

  util::ReaderLock lock(store->mu());
  const StoreMetrics& m = store->metrics();
  EXPECT_EQ(m.gets.load(), m.optimistic_gets.load() + m.locked_gets.load());
  EXPECT_EQ(m.optimistic_gets.load(), 64u);
  EXPECT_EQ(m.locked_gets.load(), 64u);
  EXPECT_EQ(m.get_misses.load(), 1u);
}

TEST(OptimisticConcurrencyTest, FallsBackWhenUnsupportedOrDisabled) {
  // NVM path-hash index: no lock-free lookup, must decline.
  PnwOptions nvm_options = SmallOptions();
  nvm_options.index_placement = IndexPlacement::kNvmPathHash;
  auto nvm_store = BootstrappedStore(nvm_options, 32);
  EXPECT_FALSE(nvm_store->TryGetOptimistic(1).has_value());

  // Knob off: must decline even with the DRAM index.
  PnwOptions off_options = SmallOptions();
  off_options.optimistic_reads = false;
  auto off_store = BootstrappedStore(off_options, 32);
  EXPECT_FALSE(off_store->TryGetOptimistic(1).has_value());
  {
    util::ReaderLock lock(off_store->mu());
    EXPECT_EQ(off_store->metrics().optimistic_gets.load(), 0u);
  }
}

TEST(OptimisticConcurrencyTest, RefreshArenaStatsPopulatesGauges) {
  auto store = BootstrappedStore(SmallOptions(), 64);
  util::ReaderLock lock(store->mu());
  store->RefreshArenaStats();
  const StoreMetrics& m = store->metrics();
  EXPECT_GT(m.arena_slabs.load(), 0u);
  EXPECT_GE(m.arena_slab_bytes.load(), m.arena_high_water_bytes.load());
  EXPECT_GE(m.arena_high_water_bytes.load(), m.arena_live_bytes.load());
  // The device's data array alone puts the live gauge past the zone size.
  EXPECT_GE(m.arena_live_bytes.load(),
            SmallOptions().capacity_buckets * kValueBytes);
}

constexpr size_t kTortureKeys = 64;

// Readers hammer the lock-free path while a writer churns values; torn
// reads must never validate. Also exercised: Start-Gap translation racing
// gap moves, and lock-free lookups in an index that recovery rebuilt.
void RunTorture(PnwStore& store) {
  constexpr uint64_t kWriterOps = 1500;

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};

  const auto reader = [&]() {
    uint64_t key = 1;
    while (!done.load(std::memory_order_acquire)) {
      key = (key * 2654435761u + 1) % kTortureKeys;
      auto fast = store.TryGetOptimistic(key);
      if (!fast.has_value()) {
        util::ReaderLock lock(store.mu());
        fast = store.Get(key);
      }
      if (!fast->ok()) {
        continue;  // transiently deleted
      }
      const std::vector<uint8_t>& value = fast->value();
      for (const uint8_t byte : value) {
        if (byte != value[0]) {
          torn.fetch_add(1);
          break;
        }
      }
    }
  };

  std::thread r1(reader), r2(reader);
  uint64_t version = 0;
  for (uint64_t op = 0; op < kWriterOps; ++op) {
    const uint64_t key = (op * 7) % kTortureKeys;
    util::WriterLock lock(store.mu());
    if (op % 13 == 12) {
      // status-dropped: NotFound when racing a prior delete of this key
      // is part of the churn, not a failure.
      (void)store.Delete(key);
    } else {
      ++version;
      ASSERT_TRUE(store.Put(key, SolidValue(key, version)).ok());
    }
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(torn.load(), 0u) << "seqlock validated a torn value";
  util::ReaderLock lock(store.mu());
  const StoreMetrics& m = store.metrics();
  EXPECT_EQ(m.gets.load(), m.optimistic_gets.load() + m.locked_gets.load());
}

TEST(OptimisticConcurrencyTest, TortureReadersVsWriter) {
  auto store = BootstrappedStore(SmallOptions(), kTortureKeys);
  RunTorture(*store);
}

TEST(OptimisticConcurrencyTest, TortureWithStartGapRotation) {
  PnwOptions options = SmallOptions();
  options.start_gap_wear_leveling = true;
  options.gap_write_interval = 8;  // rotate aggressively under the readers
  auto store = BootstrappedStore(options, kTortureKeys);
  RunTorture(*store);
}

// Recovery's index under the readers: checkpoint, write through the
// op-log, reopen with PnwStore::Open(path) -- which rebuilds the DRAM
// index from the snapshot and replays the log into it -- and torture the
// lock-free path on the rebuilt index.
TEST(OptimisticConcurrencyTest, TortureOnRecoveredStore) {
  const std::string path =
      ::testing::TempDir() + "/seqlock_torture_recovered.snap";
  {
    auto store = BootstrappedStore(SmallOptions(), kTortureKeys);
    util::WriterLock lock(store->mu());
    ASSERT_TRUE(store->Checkpoint(path).ok());
    for (uint64_t key = 0; key < kTortureKeys; key += 3) {
      ASSERT_TRUE(store->Put(key, SolidValue(key, 1)).ok());
    }
    ASSERT_TRUE(store->Delete(1).ok());
  }
  auto reopened = PnwStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  PnwStore& store = *reopened.value();
  // The replayed writes are served by the lock-free path before any churn.
  for (uint64_t key = 0; key < kTortureKeys; key += 3) {
    auto fast = store.TryGetOptimistic(key);
    ASSERT_TRUE(fast.has_value()) << "recovered store declined key " << key;
    ASSERT_TRUE(fast->ok());
    EXPECT_EQ(fast->value(), SolidValue(key, 1));
  }
  auto deleted = store.TryGetOptimistic(1);
  ASSERT_TRUE(deleted.has_value());
  EXPECT_TRUE(deleted->status().IsNotFound());

  RunTorture(store);
  std::remove(path.c_str());
  std::remove((path + PnwStore::kOpLogSuffix).c_str());
}

// Lock-free readers vs the DRAM index's rehash. The tortures above churn a
// fixed key set, so their index never grows under a reader; here the
// writer inserts fresh keys until the index has doubled from 64 to 2,048
// buckets, yielding between PUTs, while two readers look up bootstrapped
// keys lock-free. Every validated read must be OK and untorn. This is
// coverage for the race detector (the TSan job runs it), not a proof: a
// mutant that trusts an unvalidated NotFound survived 10 runs of it.
TEST(OptimisticConcurrencyTest, ReadersVsIndexGrowth) {
  constexpr uint64_t kBootKeys = 64;
  constexpr uint64_t kFreshKeys = 1536;
  PnwOptions options = SmallOptions();
  options.initial_buckets = 2048;
  options.capacity_buckets = 2048;
  auto store = BootstrappedStore(options, kBootKeys);

  std::atomic<bool> growing{true};
  std::atomic<int> readers_started{0};
  std::atomic<uint64_t> validated{0};
  std::atomic<uint64_t> bad{0};
  const auto reader = [&]() {
    readers_started.fetch_add(1);
    uint64_t key = 5;
    while (growing.load(std::memory_order_acquire)) {
      key = (key * 2654435761u + 1) % kBootKeys;
      const auto fast = store->TryGetOptimistic(key);
      if (!fast.has_value()) {
        continue;
      }
      validated.fetch_add(1);
      if (!fast->ok() || fast->value() != SolidValue(key, 0)) {
        bad.fetch_add(1);
      }
    }
  };
  std::thread r1(reader), r2(reader);
  while (readers_started.load() < 2) {
    std::this_thread::yield();  // the growth must race running readers
  }
  for (uint64_t key = kBootKeys; key < kBootKeys + kFreshKeys; ++key) {
    Status s;
    {
      util::WriterLock lock(store->mu());
      s = store->Put(key, SolidValue(key, 0));
    }
    EXPECT_TRUE(s.ok()) << s;
    if (!s.ok()) {
      break;
    }
    std::this_thread::yield();
  }
  growing.store(false, std::memory_order_release);
  r1.join();
  r2.join();

  EXPECT_EQ(bad.load(), 0u) << "a validated read was wrong or torn";
  EXPECT_GT(validated.load(), 0u) << "no read validated while the index grew";
  util::ReaderLock lock(store->mu());
  EXPECT_EQ(store->size(), kBootKeys + kFreshKeys);
}

TEST(OptimisticConcurrencyTest, ShardedGetUsesOptimisticPath) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  auto store = ShardedPnwStore::Open(options).value();
  std::vector<uint64_t> keys(96);
  std::vector<std::vector<uint8_t>> values(96);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    values[i] = SolidValue(i, 0);
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());

  for (uint64_t key = 0; key < 96; ++key) {
    auto got = store->Get(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), SolidValue(key, 0));
  }
  auto multi = store->MultiGet(keys);
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(multi[i].ok());
    EXPECT_EQ(multi[i].value(), SolidValue(keys[i], 0));
  }
  const auto agg = store->AggregatedMetrics();
  EXPECT_EQ(agg.totals.gets.load(),
            agg.totals.optimistic_gets.load() +
                agg.totals.locked_gets.load());
  // Uncontended single-thread reads: everything should have gone
  // optimistic (no writer ever raced these lookups).
  EXPECT_EQ(agg.totals.locked_gets.load(), 0u);
  EXPECT_EQ(agg.totals.optimistic_gets.load(), 2u * 96u);
  EXPECT_GT(agg.totals.arena_slabs.load(), 0u);
}

// The full public-API churn the satellite asks for: optimistic readers
// (MultiGet) vs a writer vs Checkpoint's two-phase exclusive snapshots vs
// the paced background migrator, all live at once.
TEST(OptimisticConcurrencyTest, ShardedTortureThroughPublicApi) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  // Endurance churn under the readers: Start-Gap rotation plus the paced
  // background migrator with thresholds low enough to actually relocate.
  options.store.start_gap_wear_leveling = true;
  options.store.gap_write_interval = 8;
  options.store.migration_min_writes = 4;
  options.store.migration_hot_multiplier = 2.0;
  options.background_migration = true;
  options.migration_interval_ms = 1;
  auto store = ShardedPnwStore::Open(options).value();
  constexpr size_t kKeys = 64;
  std::vector<uint64_t> keys(kKeys);
  std::vector<std::vector<uint8_t>> values(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    keys[i] = i;
    values[i] = SolidValue(i, 0);
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  const std::string checkpoint_dir =
      ::testing::TempDir() + "/seqlock_torture_ckpt";

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  const auto reader = [&]() {
    uint64_t key = 3;
    std::vector<uint64_t> batch(4);
    while (!done.load(std::memory_order_acquire)) {
      for (auto& k : batch) {
        key = (key * 2654435761u + 1) % kKeys;
        k = key;
      }
      for (auto& result : store->MultiGet(batch)) {
        if (!result.ok()) {
          continue;
        }
        const auto& value = result.value();
        for (const uint8_t byte : value) {
          if (byte != value[0]) {
            torn.fetch_add(1);
            break;
          }
        }
      }
    }
  };
  std::thread r1(reader), r2(reader);
  for (uint64_t op = 0; op < 1200; ++op) {
    const uint64_t key = (op * 11) % kKeys;
    if (op % 400 == 399) {
      ASSERT_TRUE(store->Checkpoint(checkpoint_dir).ok());
      continue;
    }
    ASSERT_TRUE(store->Put(key, SolidValue(key, op + 1)).ok());
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  store->StopBackgroundMigration();
  EXPECT_EQ(torn.load(), 0u);
  const auto agg = store->AggregatedMetrics();
  EXPECT_EQ(agg.totals.gets.load(),
            agg.totals.optimistic_gets.load() +
                agg.totals.locked_gets.load());
}

}  // namespace
}  // namespace pnw::core
