#include "src/core/sharded_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/persist/snapshot.h"
#include "src/persist/store_codec.h"

namespace pnw::core {
namespace {

constexpr size_t kValueBytes = 16;

ShardedOptions SmallShardedOptions(size_t num_shards) {
  ShardedOptions options;
  options.num_shards = num_shards;
  options.store.value_bytes = kValueBytes;
  options.store.initial_buckets = 256;
  options.store.capacity_buckets = 512;
  options.store.num_clusters = 2;
  options.store.max_features = 0;
  options.store.training_sample_cap = 64;
  return options;
}

std::vector<uint8_t> GroupValue(int group, uint8_t tweak) {
  std::vector<uint8_t> v(kValueBytes, group == 0 ? 0x00 : 0xff);
  v[0] ^= tweak;
  return v;
}

std::unique_ptr<ShardedPnwStore> MakeBootstrappedStore(ShardedOptions options,
                                                       size_t n = 128) {
  auto store = ShardedPnwStore::Open(options).value();
  std::vector<uint64_t> keys(n);
  std::vector<std::vector<uint8_t>> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
    values[i] = GroupValue(static_cast<int>(i % 2),
                           static_cast<uint8_t>(i / 2));
  }
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  return store;
}

TEST(ShardedPnwStoreTest, OpenValidatesShardCount) {
  ShardedOptions options = SmallShardedOptions(3);  // not a power of two
  EXPECT_TRUE(ShardedPnwStore::Open(options).status().IsInvalidArgument());
  options = SmallShardedOptions(0);
  EXPECT_TRUE(ShardedPnwStore::Open(options).status().IsInvalidArgument());
  options = SmallShardedOptions(16);
  options.store.initial_buckets = 8;  // fewer buckets than shards
  options.store.capacity_buckets = 8;
  EXPECT_TRUE(ShardedPnwStore::Open(options).status().IsInvalidArgument());
}

TEST(ShardedPnwStoreTest, RoutingIsStableAndCoversAllShards) {
  auto store = ShardedPnwStore::Open(SmallShardedOptions(8)).value();
  std::vector<bool> hit(store->num_shards(), false);
  for (uint64_t key = 0; key < 512; ++key) {
    const size_t shard = store->ShardOf(key);
    ASSERT_LT(shard, store->num_shards());
    EXPECT_EQ(shard, store->ShardOf(key));  // deterministic
    hit[shard] = true;
  }
  // Sequential keys must spread: the router mixes before masking.
  for (size_t s = 0; s < hit.size(); ++s) {
    EXPECT_TRUE(hit[s]) << "shard " << s << " never hit by 512 keys";
  }
}

TEST(ShardedPnwStoreTest, BootstrapRoutesItemsToOwningShards) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  EXPECT_EQ(store->size(), 128u);
  size_t per_shard_total = 0;
  for (size_t s = 0; s < store->num_shards(); ++s) {
    per_shard_total += store->shard(s).size();
  }
  EXPECT_EQ(per_shard_total, 128u);
  // Every bootstrapped key is readable through the front-end and lives in
  // exactly the shard the router names.
  for (uint64_t key = 0; key < 128; ++key) {
    auto value = store->Get(key);
    ASSERT_TRUE(value.ok()) << key;
    EXPECT_EQ(value.value(),
              GroupValue(static_cast<int>(key % 2),
                         static_cast<uint8_t>(key / 2)));
  }
}

TEST(ShardedPnwStoreTest, PutGetDeleteLifecycleThroughRouter) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  const auto v = GroupValue(0, 0x55);
  ASSERT_TRUE(store->Put(9001, v).ok());
  EXPECT_EQ(store->Get(9001).value(), v);
  ASSERT_TRUE(store->Delete(9001).ok());
  EXPECT_TRUE(store->Get(9001).status().IsNotFound());
  EXPECT_TRUE(store->Delete(9001).IsNotFound());
}

TEST(ShardedPnwStoreTest, SingleShardMatchesPlainStoreBehaviour) {
  // num_shards=1 must degenerate to a mutex-wrapped PnwStore with the
  // exact configured geometry (no splitting headroom).
  ShardedOptions options = SmallShardedOptions(1);
  auto store = MakeBootstrappedStore(options);
  EXPECT_EQ(store->shard(0).options().initial_buckets,
            options.store.initial_buckets);
  EXPECT_EQ(store->shard(0).options().capacity_buckets,
            options.store.capacity_buckets);
  EXPECT_EQ(store->ShardOf(12345), 0u);
}

TEST(ShardedPnwStoreTest, SplitBucketsDividesGeometryWithHeadroom) {
  ShardedOptions options = SmallShardedOptions(4);
  auto store = ShardedPnwStore::Open(options).value();
  const size_t per_shard = store->shard(0).options().initial_buckets;
  EXPECT_GE(per_shard, options.store.initial_buckets / 4);
  EXPECT_LT(per_shard, options.store.initial_buckets);  // genuinely split
  EXPECT_GE(store->shard(0).options().capacity_buckets, per_shard);
}

TEST(ShardedPnwStoreTest, AggregatedMetricsSumShards) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  for (uint64_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(
        store->Put(5000 + key, GroupValue(static_cast<int>(key % 2), 3)).ok());
  }
  for (uint64_t key = 0; key < 64; ++key) {
    ASSERT_TRUE(store->Get(5000 + key).ok());
  }
  ASSERT_TRUE(store->Delete(5000).ok());

  const ShardedMetrics aggregated = store->AggregatedMetrics();
  EXPECT_EQ(aggregated.totals.puts, 64u);
  EXPECT_EQ(aggregated.totals.gets, 64u);
  EXPECT_EQ(aggregated.totals.deletes, 1u);
  EXPECT_TRUE(aggregated.totals.PlacementAttributionConsistent());
  ASSERT_EQ(aggregated.shards.size(), 4u);

  uint64_t puts = 0;
  uint64_t gets = 0;
  size_t used = 0;
  for (const auto& s : aggregated.shards) {
    puts += s.metrics.puts;
    gets += s.metrics.gets;
    used += s.used_buckets;
    EXPECT_EQ(s.max_bucket_writes,
              store->shard(s.shard).wear_tracker().MaxBucketWrites());
  }
  EXPECT_EQ(puts, aggregated.totals.puts);
  EXPECT_EQ(gets, aggregated.totals.gets);
  EXPECT_EQ(used, store->size());
  EXPECT_GE(aggregated.PutImbalance(), 1.0);
}

TEST(ShardedPnwStoreTest, PerShardWearSummariesExposeImbalance) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  // Hammer a single key: all wear lands in one shard and the aggregate
  // view must say so.
  const uint64_t hot_key = 77;
  ASSERT_TRUE(store->Put(hot_key, GroupValue(0, 1)).ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        store->Update(hot_key, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  const ShardedMetrics aggregated = store->AggregatedMetrics();
  const size_t hot_shard = store->ShardOf(hot_key);
  for (const auto& s : aggregated.shards) {
    if (s.shard == hot_shard) {
      EXPECT_GT(s.metrics.puts, 0u);
      EXPECT_GT(s.device_bits_written, 0u);
    } else {
      EXPECT_EQ(s.metrics.puts, 0u);
    }
  }
  EXPECT_NEAR(aggregated.PutImbalance(), 4.0, 1e-9);  // 4 shards, 1 busy
}

// ------------------------------------------------------------- MultiGet

TEST(ShardedPnwStoreTest, MultiGetEmptyBatch) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  EXPECT_TRUE(store->MultiGet({}).empty());
  EXPECT_EQ(store->AggregatedMetrics().totals.gets, 0u);
}

TEST(ShardedPnwStoreTest, MultiGetGroupsAcrossShardsInKeyOrder) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  // All 128 bootstrapped keys in one batch: they span every shard, and the
  // results must come back in batch order regardless of shard grouping.
  std::vector<uint64_t> keys(128);
  for (uint64_t i = 0; i < 128; ++i) {
    keys[i] = i;
  }
  const auto results = store->MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  for (uint64_t i = 0; i < 128; ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(results[i].value(),
              GroupValue(static_cast<int>(i % 2), static_cast<uint8_t>(i / 2)));
    EXPECT_EQ(results[i].value(), store->Get(keys[i]).value());
  }
  const ShardedMetrics aggregated = store->AggregatedMetrics();
  // 128 batch hits + 128 comparison Gets, all accounted.
  EXPECT_EQ(aggregated.totals.gets, 256u);
  EXPECT_EQ(aggregated.totals.get_misses, 0u);
}

TEST(ShardedPnwStoreTest, MultiGetReportsPartialMissesPerSlot) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  const std::vector<uint64_t> keys = {3, 70000, 7, 70001, 70002};
  const auto results = store->MultiGet(keys);
  ASSERT_EQ(results.size(), keys.size());
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].status().IsNotFound());
  EXPECT_TRUE(results[2].ok());
  EXPECT_TRUE(results[3].status().IsNotFound());
  EXPECT_TRUE(results[4].status().IsNotFound());
  const ShardedMetrics aggregated = store->AggregatedMetrics();
  EXPECT_EQ(aggregated.totals.gets, 2u);
  EXPECT_EQ(aggregated.totals.get_misses, 3u);
  // Misses are not failures: the books reconcile as reads, not errors.
  EXPECT_EQ(aggregated.totals.failed_ops, 0u);
}

// ------------------------------------------------ concurrency (TSan-able)

// --- PR 5: the batched write path through the router.

TEST(ShardedPnwStoreTest, MultiPutEmptyBatchAndSizeMismatch) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  EXPECT_TRUE(store
                  ->MultiPut(std::span<const uint64_t>(),
                             std::span<const std::vector<uint8_t>>())
                  .empty());
  const std::vector<uint64_t> keys = {1, 2};
  const std::vector<std::vector<uint8_t>> one = {GroupValue(0, 1)};
  const auto statuses = store->MultiPut(keys, one);
  ASSERT_EQ(statuses.size(), 2u);
  EXPECT_TRUE(statuses[0].IsInvalidArgument());
  EXPECT_TRUE(statuses[1].IsInvalidArgument());
}

TEST(ShardedPnwStoreTest, MultiPutGroupsAcrossShardsInSlotOrder) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  // Fresh keys spread across shards, plus overwrites of bootstrapped keys
  // and an in-batch duplicate whose second slot must win.
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint8_t>> values;
  for (uint64_t k = 0; k < 24; ++k) {
    keys.push_back(k % 3 == 0 ? k : 5000 + k);
    values.push_back(GroupValue(static_cast<int>(k % 2),
                                static_cast<uint8_t>(100 + k)));
  }
  keys.push_back(keys[1]);
  values.push_back(GroupValue(0, 0xee));
  const auto statuses = store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), keys.size());
  std::vector<size_t> touched_shards;
  for (size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "slot " << i;
    touched_shards.push_back(store->ShardOf(keys[i]));
  }
  // The batch genuinely crossed shards.
  std::sort(touched_shards.begin(), touched_shards.end());
  EXPECT_GT(std::unique(touched_shards.begin(), touched_shards.end()) -
                touched_shards.begin(),
            1);
  EXPECT_EQ(store->Get(keys[1]).value(), values.back());
  for (size_t i = 2; i < keys.size() - 1; ++i) {
    EXPECT_EQ(store->Get(keys[i]).value(), values[i]);
  }
  const ShardedMetrics agg = store->AggregatedMetrics();
  EXPECT_TRUE(agg.totals.PlacementAttributionConsistent());
}

TEST(ShardedPnwStoreTest, MultiPutMatchesPerOpPuts) {
  auto batched = MakeBootstrappedStore(SmallShardedOptions(4));
  auto serial = MakeBootstrappedStore(SmallShardedOptions(4));
  std::vector<uint64_t> keys;
  std::vector<std::vector<uint8_t>> values;
  for (uint64_t k = 0; k < 32; ++k) {
    keys.push_back(3000 + k * 17);
    values.push_back(GroupValue(static_cast<int>(k % 2),
                                static_cast<uint8_t>(k)));
  }
  for (const pnw::Status& s : batched->MultiPut(keys, values)) {
    ASSERT_TRUE(s.ok());
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(serial->Put(keys[i], values[i]).ok());
  }
  const ShardedMetrics bm = batched->AggregatedMetrics();
  const ShardedMetrics sm = serial->AggregatedMetrics();
  EXPECT_EQ(bm.totals.puts, sm.totals.puts);
  EXPECT_EQ(bm.totals.put_bits_written, sm.totals.put_bits_written);
  EXPECT_EQ(bm.totals.put_lines_written, sm.totals.put_lines_written);
  EXPECT_EQ(bm.totals.put_words_written, sm.totals.put_words_written);
}

TEST(ShardedConcurrencyTest, ConcurrentMultiPutMultiGet) {
  // PR 5 write batching under full concurrency: MultiPut holds each
  // involved shard's lock exclusively, MultiGet holds it shared; TSan
  // verifies the discipline, the reconciliations verify the books.
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  constexpr size_t kWriterThreads = 2;
  constexpr size_t kReaderThreads = 2;
  constexpr uint64_t kBatchesPerWriter = 40;
  constexpr size_t kBatch = 8;
  std::atomic<uint64_t> hard_failures{0};
  std::atomic<uint64_t> issued_reads{0};
  std::atomic<uint64_t> issued_writes{0};

  std::vector<std::thread> writers;
  for (size_t t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&store, &hard_failures, &issued_writes, t] {
      std::vector<uint64_t> keys(kBatch);
      std::vector<std::vector<uint8_t>> values(kBatch);
      for (uint64_t b = 0; b < kBatchesPerWriter; ++b) {
        for (size_t i = 0; i < kBatch; ++i) {
          // Writer threads own disjoint key ranges >= 10000.
          keys[i] = 10000 + t * 1000 + (b * kBatch + i) % 48;
          values[i] = GroupValue(static_cast<int>(i % 2),
                                 static_cast<uint8_t>(b));
        }
        for (const pnw::Status& s : store->MultiPut(keys, values)) {
          if (!s.ok()) {
            ++hard_failures;
          }
        }
        issued_writes += kBatch;
      }
    });
  }
  std::vector<std::thread> readers;
  for (size_t t = 0; t < kReaderThreads; ++t) {
    readers.emplace_back([&store, &hard_failures, &issued_reads, t] {
      for (uint64_t i = 0; i < 200; ++i) {
        const std::vector<uint64_t> batch = {(i * 5 + t) % 128,
                                             (i * 11 + t) % 128, 90000 + i};
        const auto results = store->MultiGet(batch);
        for (const auto& got : results) {
          if (!got.ok() && !got.status().IsNotFound()) {
            ++hard_failures;
          }
        }
        issued_reads += batch.size();
      }
    });
  }
  for (auto& thread : writers) {
    thread.join();
  }
  for (auto& thread : readers) {
    thread.join();
  }
  EXPECT_EQ(hard_failures.load(), 0u);
  const ShardedMetrics agg = store->AggregatedMetrics();
  EXPECT_EQ(agg.totals.gets + agg.totals.get_misses, issued_reads.load());
  EXPECT_EQ(agg.totals.puts + agg.totals.failed_ops, issued_writes.load());
  EXPECT_TRUE(agg.totals.PlacementAttributionConsistent());
}

TEST(ShardedConcurrencyTest, MultiPutDuringCheckpoint) {
  // The checkpoint-vs-writer interlock for the batched path: phase-1
  // snapshots take each shard's exclusive lock, so a MultiPut and a
  // checkpoint can only interleave at batch/shard granularity -- never
  // mid-shard-group -- and the committed checkpoint reopens to a
  // consistent store.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "pnw_sharded_multiput_during_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hard_failures{0};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 2; ++t) {
    writers.emplace_back([&store, &stop, &hard_failures, t] {
      std::vector<uint64_t> keys(4);
      std::vector<std::vector<uint8_t>> values(4);
      uint64_t b = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        for (size_t i = 0; i < keys.size(); ++i) {
          keys[i] = 30000 + t * 1000 + (b * keys.size() + i) % 32;
          values[i] = GroupValue(static_cast<int>(i % 2),
                                 static_cast<uint8_t>(b));
        }
        for (const pnw::Status& s : store->MultiPut(keys, values)) {
          if (!s.ok()) {
            ++hard_failures;
          }
        }
        ++b;
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(store->Checkpoint(dir.string()).ok());
  }
  stop.store(true);
  for (auto& thread : writers) {
    thread.join();
  }
  EXPECT_EQ(hard_failures.load(), 0u);
  auto reopened = ShardedPnwStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The recovered store serves every bootstrapped key; writer keys may or
  // may not be present depending on when their batch raced the final
  // checkpoint's logs, but the store itself must be fully consistent.
  for (uint64_t key = 0; key < 128; ++key) {
    EXPECT_TRUE(reopened.value()->Get(key).ok());
  }
  fs::remove_all(dir);
}

TEST(ShardedConcurrencyTest, MixedOpsSmokeAcrossThreads) {
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  constexpr size_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 200;
  std::atomic<uint64_t> unexpected_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &unexpected_failures, t] {
      // Disjoint key ranges per thread: every operation has a
      // deterministic expected outcome even under concurrency.
      const uint64_t base = 10000 + 1000 * t;
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = base + (i % 50);
        const auto value =
            GroupValue(static_cast<int>(i % 2), static_cast<uint8_t>(t));
        if (!store->Put(key, value).ok()) {
          ++unexpected_failures;
        }
        auto got = store->Get(key);
        if (!got.ok() || got.value() != value) {
          ++unexpected_failures;
        }
        if (i % 10 == 9 && !store->Delete(key).ok()) {
          ++unexpected_failures;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(unexpected_failures.load(), 0u);
  const ShardedMetrics aggregated = store->AggregatedMetrics();
  EXPECT_EQ(aggregated.totals.failed_ops, 0u);
  EXPECT_EQ(aggregated.totals.gets, kThreads * kOpsPerThread);
  EXPECT_TRUE(aggregated.totals.PlacementAttributionConsistent());
}

TEST(ShardedConcurrencyTest, ContendedKeysStressUnderSanitizers) {
  // All threads fight over the same small key set (maximum lock contention
  // and cross-thread visibility of every write path, including
  // delete+re-put address recycling). Run under -fsanitize=thread in CI.
  ShardedOptions options = SmallShardedOptions(2);
  options.store.update_mode = UpdateMode::kEnduranceFirst;
  auto store = MakeBootstrappedStore(options, 64);
  constexpr size_t kThreads = 4;
  constexpr uint64_t kOpsPerThread = 150;
  std::atomic<uint64_t> hard_failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &hard_failures, t] {
      for (uint64_t i = 0; i < kOpsPerThread; ++i) {
        const uint64_t key = (i + t) % 16;  // shared, contended keys
        switch ((i + t) % 4) {
          case 0:
          case 1: {
            const Status s = store->Put(
                key, GroupValue(static_cast<int>(i % 2),
                                static_cast<uint8_t>(i)));
            if (!s.ok()) {
              ++hard_failures;
            }
            break;
          }
          case 2: {
            // NotFound is a legal race outcome; anything else is a bug.
            const auto got = store->Get(key);
            if (!got.ok() && !got.status().IsNotFound()) {
              ++hard_failures;
            }
            break;
          }
          default: {
            const Status s = store->Delete(key);
            if (!s.ok() && !s.IsNotFound()) {
              ++hard_failures;
            }
            break;
          }
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(hard_failures.load(), 0u);
  // The store is still coherent after the storm: every surviving key reads
  // back a well-formed value.
  for (uint64_t key = 0; key < 16; ++key) {
    const auto got = store->Get(key);
    if (got.ok()) {
      EXPECT_EQ(got.value().size(), kValueBytes);
    }
  }
  EXPECT_TRUE(
      store->AggregatedMetrics().totals.PlacementAttributionConsistent());
}

TEST(ShardedConcurrencyTest, ManyReadersOneWriterSharedLocks) {
  // The PR 4 read path: GETs (and MultiGets) hold a *shared* per-shard
  // lock and mutate only relaxed-atomic metrics, so many readers run
  // concurrently -- against each other and against one writer that takes
  // the exclusive side. TSan verifies the discipline; the final
  // reconciliation verifies no read went unaccounted.
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  store->ResetWearAndMetrics();
  constexpr size_t kReaders = 4;
  constexpr uint64_t kReadsPerThread = 300;
  constexpr uint64_t kWriterOps = 200;
  std::atomic<uint64_t> hard_failures{0};
  std::atomic<uint64_t> issued_reads{0};

  std::thread writer([&store, &hard_failures] {
    // Writes confined to keys >= 10000 so reader expectations stay exact.
    for (uint64_t i = 0; i < kWriterOps; ++i) {
      const uint64_t key = 10000 + (i % 32);
      if (!store->Put(key, GroupValue(static_cast<int>(i % 2),
                                      static_cast<uint8_t>(i))).ok()) {
        ++hard_failures;
      }
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&store, &hard_failures, &issued_reads, t] {
      for (uint64_t i = 0; i < kReadsPerThread; ++i) {
        if (i % 8 == 7) {
          // Batched reads take the same shared locks, shard-grouped.
          const std::vector<uint64_t> batch = {i % 128, (i + t) % 128,
                                               90000 + i};  // last one misses
          const auto results = store->MultiGet(batch);
          for (const auto& got : results) {
            if (!got.ok() && !got.status().IsNotFound()) {
              ++hard_failures;
            }
          }
          issued_reads += batch.size();
        } else {
          const auto got = store->Get((i * 7 + t) % 128);
          if (!got.ok() || got.value().size() != kValueBytes) {
            ++hard_failures;  // bootstrapped keys never miss
          }
          ++issued_reads;
        }
      }
    });
  }
  for (auto& thread : readers) {
    thread.join();
  }
  writer.join();
  EXPECT_EQ(hard_failures.load(), 0u);
  const ShardedMetrics aggregated = store->AggregatedMetrics();
  // Honest read accounting under full concurrency: every issued read is a
  // hit or a miss, nothing double counted, nothing dropped.
  EXPECT_EQ(aggregated.totals.gets + aggregated.totals.get_misses,
            issued_reads.load());
  EXPECT_EQ(aggregated.totals.puts, kWriterOps);
  EXPECT_TRUE(aggregated.totals.PlacementAttributionConsistent());
}

TEST(ShardedConcurrencyTest, ReadersRunDuringCheckpoint) {
  // The checkpoint-vs-reader interlock: the snapshot phase takes each
  // shard's lock exclusively (draining that shard's readers), while
  // readers of other shards keep serving. Readers looping across all
  // shards throughout repeated checkpoints must never see an error, and
  // the committed checkpoint must reopen.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() / "pnw_sharded_readers_during_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);

  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hard_failures{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 3; ++t) {
    readers.emplace_back([&store, &stop, &hard_failures, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto got = store->Get((i * 13 + t) % 128);
        if (!got.ok()) {
          ++hard_failures;
        }
        ++i;
      }
    });
  }
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(store->Checkpoint(dir.string()).ok());
  }
  stop.store(true);
  for (auto& thread : readers) {
    thread.join();
  }
  EXPECT_EQ(hard_failures.load(), 0u);

  auto reopened = ShardedPnwStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), store->size());
  for (uint64_t key = 0; key < 128; ++key) {
    EXPECT_EQ(reopened.value()->Get(key).value(), store->Get(key).value());
  }
  fs::remove_all(dir);
}

TEST(ShardedConcurrencyTest, ConcurrentAggregationIsSafe) {
  // Metrics readers must be able to run against live writers (the ops
  // dashboard case): per-shard locking makes each snapshot consistent.
  auto store = MakeBootstrappedStore(SmallShardedOptions(4));
  std::atomic<bool> stop{false};
  std::thread writer([&store, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // status-dropped: races with concurrent readers by design; failures
      // (e.g. a momentarily full shard) are part of the stress pattern.
      (void)store->Put(20000 + (i % 64),
                       GroupValue(static_cast<int>(i % 2), 1));
      ++i;
    }
  });
  for (int i = 0; i < 50; ++i) {
    const ShardedMetrics aggregated = store->AggregatedMetrics();
    EXPECT_TRUE(aggregated.totals.PlacementAttributionConsistent());
    EXPECT_EQ(aggregated.shards.size(), 4u);
    (void)store->size();
  }
  stop.store(true);
  writer.join();
}

ShardedOptions EnduranceShardedOptions(size_t num_shards) {
  ShardedOptions options = SmallShardedOptions(num_shards);
  options.store.update_mode = UpdateMode::kLatencyFirst;
  options.store.migration_min_writes = 4;
  options.store.migration_hot_multiplier = 2.0;
  return options;
}

TEST(ShardedPnwStoreTest, MigrateOnceRelocatesHotBucketsAcrossShards) {
  auto store = MakeBootstrappedStore(EnduranceShardedOptions(4));
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 16; ++key) {
      ASSERT_TRUE(
          store
              ->Update(key, GroupValue(static_cast<int>(key % 2),
                                       static_cast<uint8_t>(round)))
              .ok());
    }
  }
  auto migrated = store->MigrateOnce(/*max_buckets_per_shard=*/8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_GT(migrated.value(), 0u);
  const ShardedMetrics aggregated = store->AggregatedMetrics();
  EXPECT_EQ(aggregated.totals.migrations, migrated.value());
  uint64_t bucket_writes = 0;
  for (const auto& shard : aggregated.shards) {
    bucket_writes += shard.bucket_writes;
  }
  // Reconcile: client placements + migration copies account for every
  // bucket write across every shard.
  EXPECT_EQ(bucket_writes,
            aggregated.totals.puts + aggregated.totals.migrations);
  for (uint64_t key = 0; key < 16; ++key) {
    EXPECT_EQ(store->Get(key).value(),
              GroupValue(static_cast<int>(key % 2), 15));
  }
}

TEST(ShardedPnwStoreTest, ManifestRoundTripsMigrationOptions) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pnw_sharded_manifest_v6";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ShardedOptions options = EnduranceShardedOptions(2);
  options.store.migration_min_writes = 7;
  options.store.migration_hot_multiplier = 3.5;
  {
    auto store = MakeBootstrappedStore(options, 64);
    ASSERT_TRUE(store->Checkpoint(dir.string()).ok());
  }
  auto reopened = ShardedPnwStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const ShardedOptions& got = reopened.value()->options();
  EXPECT_EQ(got.num_shards, 2u);
  EXPECT_EQ(got.store.migration_min_writes, 7u);
  EXPECT_DOUBLE_EQ(got.store.migration_hot_multiplier, 3.5);
  fs::remove_all(dir);
}

TEST(ShardedPnwStoreTest, ManifestFromVersion4IsRejected) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pnw_sharded_manifest_v4";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const ShardedOptions options = EnduranceShardedOptions(2);
  {
    auto store = MakeBootstrappedStore(options, 64);
    ASSERT_TRUE(store->Checkpoint(dir.string()).ok());
  }
  const std::string manifest = (dir / ShardedPnwStore::kManifestName).string();
  const auto expect_rejected = [&dir] {
    auto reopened = ShardedPnwStore::Open(dir.string());
    ASSERT_FALSE(reopened.ok());
    EXPECT_TRUE(reopened.status().IsInvalidArgument()) << reopened.status();
    EXPECT_NE(reopened.status().message().find("version mismatch"),
              std::string::npos);
  };
  // The manifest stamped v7, whose encoded store options still carried
  // the two DRAM latencies; v6, whose options also carried the
  // background-retrain flag and the retrain-pacing knob; then v5, whose
  // options also carried the two Start-Gap knobs. Byte 8 is the low byte
  // of the little-endian payload version.
  auto bytes = persist::ReadFileBytes(manifest).value();
  for (const uint8_t version : {7, 6, 5}) {
    bytes[8] = version;
    ASSERT_TRUE(persist::AtomicWriteFile(manifest, bytes).ok());
    expect_rejected();
  }
  // Overwrite the manifest with its v4 layout: shard count, split flag,
  // epoch, store options, then the background migrator's enabled flag,
  // interval and per-pass victim budget.
  persist::SnapshotWriter v4(/*payload_version=*/4);
  auto& w = v4.AddSection(/*manifest section=*/1);
  w.PutU64(options.num_shards);
  w.PutBool(true);
  w.PutU64(1);
  persist::EncodePnwOptions(options.store, w);
  w.PutBool(false);
  w.PutU64(20);
  w.PutU64(4);
  ASSERT_TRUE(v4.WriteToFile(manifest).ok());
  expect_rejected();
  fs::remove_all(dir);
}

/// Loops MigrateOnce(4) until `stop`, so the migration passes race whatever
/// traffic and checkpoints the test runs beside it. Counts the buckets moved
/// and the passes that failed.
std::thread StartMigrator(ShardedPnwStore& store, std::atomic<bool>& stop,
                          std::atomic<uint64_t>& moved,
                          std::atomic<uint64_t>& failures) {
  return std::thread([&store, &stop, &moved, &failures] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto pass = store.MigrateOnce(/*max_buckets_per_shard=*/4);
      if (pass.ok()) {
        moved += pass.value();
      } else {
        ++failures;
      }
    }
  });
}

TEST(ShardedMigrationTest, ConcurrentWithReadersAndWriters) {
  // The migrate-vs-traffic interlock, under ThreadSanitizer in CI: a
  // migrator thread takes each shard's exclusive lock for its passes while
  // reader and writer threads hammer the same shards. Values must stay
  // coherent and no pass may fail.
  ShardedOptions options = EnduranceShardedOptions(2);
  auto store = MakeBootstrappedStore(options, 64);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> hard_failures{0};
  std::atomic<uint64_t> moved{0};
  std::atomic<uint64_t> migration_failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&store, &stop, &hard_failures, t] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        // Updates concentrate on few keys so buckets actually run hot and
        // the migrator has real victims to relocate mid-traffic.
        const uint64_t key = (i + t) % 8;
        if (!store
                 ->Update(key, GroupValue(static_cast<int>(key % 2),
                                          static_cast<uint8_t>(i)))
                 .ok()) {
          ++hard_failures;
        }
        ++i;
      }
    });
  }
  threads.emplace_back([&store, &stop, &hard_failures] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto got = store->Get(i % 64);
      if (!got.ok()) {
        ++hard_failures;
      }
      ++i;
    }
  });
  threads.push_back(StartMigrator(*store, stop, moved, migration_failures));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(hard_failures.load(), 0u);
  EXPECT_EQ(migration_failures.load(), 0u);
  EXPECT_GT(moved.load(), 0u);
  EXPECT_EQ(store->AggregatedMetrics().totals.migrations, moved.load());
  // Every key still serves a well-formed value after the relocations.
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(store->Get(key).value().size(), kValueBytes);
  }
}

TEST(ShardedMigrationTest, ConcurrentWithCheckpoints) {
  // Migration passes and both checkpoint phases contend for the same
  // per-shard exclusive locks; the committed checkpoint must reopen
  // cleanly whatever interleaving they land on. TSan job covers the data
  // side.
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "pnw_sharded_migrate_ckpt";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ShardedOptions options = EnduranceShardedOptions(2);
  auto store = MakeBootstrappedStore(options, 64);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> moved{0};
  std::atomic<uint64_t> migration_failures{0};
  std::thread writer([&store, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // status-dropped: races with concurrent readers by design; the test
      // asserts final consistency, not per-op success.
      (void)store->Update(i % 8, GroupValue(static_cast<int>(i % 2),
                                            static_cast<uint8_t>(i)));
      ++i;
    }
  });
  std::thread migrator =
      StartMigrator(*store, stop, moved, migration_failures);
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(store->Checkpoint(dir.string()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  writer.join();
  migrator.join();
  EXPECT_EQ(migration_failures.load(), 0u);

  auto reopened = ShardedPnwStore::Open(dir.string());
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), 64u);
  fs::remove_all(dir);
}

TEST(ShardedMigrationTest, PassRequiresKeysInDataZone) {
  // Relocation re-points the index by the key read from the bucket, so a
  // store without keys in the data zone refuses every pass.
  ShardedOptions options = EnduranceShardedOptions(2);
  options.store.store_keys_in_data_zone = false;
  auto store = MakeBootstrappedStore(options, 64);
  const auto pass = store->MigrateOnce(/*max_buckets_per_shard=*/4);
  ASSERT_FALSE(pass.ok());
  EXPECT_TRUE(pass.status().IsFailedPrecondition()) << pass.status();
  EXPECT_NE(pass.status().message().find("store_keys_in_data_zone"),
            std::string::npos);
}

TEST(ShardedMigrationTest, ConcurrentPassesBesideAWriter) {
  // Several MigrateOnce callers at once beside a writer: each pass takes a
  // shard's exclusive lock per task, so concurrent passes serialize per
  // shard and every interleaving must leave the store coherent. The TSan
  // CI job runs this suite, so any unsynchronized access is
  // machine-checked too.
  ShardedOptions options = EnduranceShardedOptions(2);
  auto store = MakeBootstrappedStore(options, 64);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> moved{0};
  std::atomic<uint64_t> migration_failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 3; ++t) {
    threads.push_back(StartMigrator(*store, stop, moved, migration_failures));
  }
  threads.emplace_back([&store, &stop] {
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // status-dropped: races with concurrent readers by design; the test
      // asserts final consistency, not per-op success.
      (void)store->Update(i % 8, GroupValue(static_cast<int>(i % 2),
                                            static_cast<uint8_t>(i)));
      ++i;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stop.store(true);
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(migration_failures.load(), 0u);
  EXPECT_EQ(store->AggregatedMetrics().totals.migrations, moved.load());
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(store->Get(key).value().size(), kValueBytes);
  }
}

}  // namespace
}  // namespace pnw::core
