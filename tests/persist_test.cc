// Recovery edge cases for the durability subsystem (src/persist/ +
// ShardedPnwStore::Checkpoint/Open, the one durable layout, and the
// per-shard pieces it drives: PnwStore::CaptureCheckpoint/AbortCheckpoint/
// FinishCheckpoint/Open): empty store, kill-point round trips with
// metrics/wear/model equality, op-log replay, torn log tails, corrupted
// checksums, snapshot version mismatch, failed checkpoints, and the
// ResetWearAndMetrics <-> Checkpoint interplay. Most cases run a one-shard
// store and inspect it through shard(0).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/core/sharded_store.h"
#include "src/persist/op_log.h"
#include "src/persist/serializer.h"
#include "src/persist/snapshot.h"
#include "src/persist/store_codec.h"
#include "src/util/simd.h"

namespace pnw::core {
namespace {

namespace fs = std::filesystem;

PnwOptions SmallOptions() {
  PnwOptions options;
  options.value_bytes = 16;
  options.initial_buckets = 64;
  options.capacity_buckets = 128;
  options.num_clusters = 2;
  options.max_features = 0;
  options.training_sample_cap = 64;
  return options;
}

std::vector<uint8_t> GroupValue(int group, uint8_t tweak) {
  std::vector<uint8_t> v(16, group == 0 ? 0x00 : 0xff);
  v[0] ^= tweak;
  return v;
}

/// The durable layout's smallest case: a one-shard ShardedPnwStore. At one
/// shard the bucket counts and the seed are `options`' own, so shard(0) is
/// exactly PnwStore::Open(options).
std::unique_ptr<ShardedPnwStore> OneShardStore(const PnwOptions& options) {
  ShardedOptions sharded;
  sharded.num_shards = 1;
  sharded.store = options;
  return ShardedPnwStore::Open(sharded).value();
}

std::unique_ptr<ShardedPnwStore> MakeBootstrappedStore(PnwOptions options,
                                                       size_t n = 32) {
  auto store = OneShardStore(options);
  std::vector<uint64_t> keys(n);
  std::vector<std::vector<uint8_t>> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
    values[i] = GroupValue(i % 2, static_cast<uint8_t>(i / 2));
  }
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  return store;
}

/// Fresh per-test scratch directory under the system temp dir.
class PersistTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           (std::string("pnw_persist_") + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

/// Shard `shard`'s snapshot in generation `epoch` of checkpoint
/// directory `dir`; its op-log is this plus PnwStore::kOpLogSuffix.
std::string ShardSnap(const std::string& dir, uint64_t epoch = 1,
                      size_t shard = 0) {
  char generation[32];
  std::snprintf(generation, sizeof(generation), "/epoch-%06llu/",
                static_cast<unsigned long long>(epoch));
  return dir + generation + ShardedPnwStore::ShardSnapshotName(shard);
}

std::string ShardLog(const std::string& dir, uint64_t epoch = 1,
                     size_t shard = 0) {
  return ShardSnap(dir, epoch, shard) + PnwStore::kOpLogSuffix;
}

void WriteBytes(const std::string& path, std::span<const uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void ExpectMetricsEqual(const StoreMetrics& a, const StoreMetrics& b) {
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.gets, b.gets);
  EXPECT_EQ(a.optimistic_gets, b.optimistic_gets);
  EXPECT_EQ(a.locked_gets, b.locked_gets);
  EXPECT_EQ(a.optimistic_retries, b.optimistic_retries);
  EXPECT_EQ(a.get_misses, b.get_misses);
  EXPECT_EQ(a.deletes, b.deletes);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.failed_ops, b.failed_ops);
  EXPECT_EQ(a.put_bits_written, b.put_bits_written);
  EXPECT_EQ(a.put_payload_bits, b.put_payload_bits);
  EXPECT_EQ(a.put_lines_written, b.put_lines_written);
  EXPECT_EQ(a.put_words_written, b.put_words_written);
  EXPECT_DOUBLE_EQ(a.put_device_ns, b.put_device_ns);
  EXPECT_DOUBLE_EQ(a.get_device_ns, b.get_device_ns);
  EXPECT_DOUBLE_EQ(a.delete_device_ns, b.delete_device_ns);
  EXPECT_EQ(a.predicted_placements, b.predicted_placements);
  EXPECT_EQ(a.fallback_placements, b.fallback_placements);
  EXPECT_EQ(a.inplace_updates, b.inplace_updates);
  EXPECT_EQ(a.pool_fallbacks, b.pool_fallbacks);
  EXPECT_EQ(a.retrains, b.retrains);
  EXPECT_EQ(a.extensions, b.extensions);
}

TEST_F(PersistTest, EmptyStoreRoundTrips) {
  auto store = OneShardStore(SmallOptions());
  // Bootstrapping with zero items is legal (the data zone is all zeros);
  // checkpoint both the never-bootstrapped and the empty-bootstrapped
  // state.
  ASSERT_TRUE(store->Checkpoint(Path("fresh")).ok());
  auto fresh = ShardedPnwStore::Open(Path("fresh"));
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh.value()->size(), 0u);
  // Ops on the recovered-but-never-bootstrapped store still demand
  // Bootstrap, exactly like the original.
  const std::vector<uint8_t> v(16, 0);
  EXPECT_TRUE(fresh.value()->Put(1, v).IsFailedPrecondition());

  ASSERT_TRUE(
      store->Bootstrap(std::span<const uint64_t>(),
                       std::span<const std::vector<uint8_t>>()).ok());
  ASSERT_TRUE(store->Checkpoint(Path("empty")).ok());
  auto empty = ShardedPnwStore::Open(Path("empty"));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty.value()->size(), 0u);
  // And the recovered empty store serves writes.
  EXPECT_TRUE(empty.value()->Put(7, GroupValue(0, 1)).ok());
  EXPECT_EQ(empty.value()->Get(7).value(), GroupValue(0, 1));
}

// The acceptance scenario: N puts, checkpoint, "kill", reopen -- every key
// served, wear counters identical, placement predictions identical (no
// retrain).
TEST_F(PersistTest, KillPointRoundTripPreservesEverything) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  for (size_t i = 0; i < 24; ++i) {
    ASSERT_TRUE(
        store->Put(100 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Update(100, GroupValue(1, 0x7e)).ok());
  ASSERT_TRUE(store->Delete(101).ok());
  ASSERT_TRUE(store->Get(5).ok());

  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  auto reopened_result = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  PnwStore& reopened = reopened_result.value()->shard(0);

  EXPECT_EQ(reopened.size(), store->size());
  EXPECT_EQ(reopened.active_buckets(), store->active_buckets());
  EXPECT_EQ(reopened.puts_since_retrain(), store->puts_since_retrain());

  // Every key serves the same bytes.
  for (uint64_t key = 0; key < 32; ++key) {
    auto want = store->Get(key);
    auto got = reopened.Get(key);
    ASSERT_EQ(want.ok(), got.ok()) << "key " << key;
    if (want.ok()) {
      EXPECT_EQ(want.value(), got.value());
    }
  }
  // Probe the deleted key on *both* stores: misses count (get_misses), so
  // the metrics comparison below needs symmetric read traffic.
  EXPECT_TRUE(reopened.Get(101).status().IsNotFound());
  EXPECT_TRUE(store->Get(101).status().IsNotFound());

  // Wear counters come back verbatim, at bucket and device granularity.
  EXPECT_EQ(reopened.wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());
  EXPECT_EQ(reopened.device().counters().total_bits_written,
            store->device().counters().total_bits_written);
  EXPECT_EQ(reopened.device().counters().total_write_ops,
            store->device().counters().total_write_ops);

  // The model was deserialized, not retrained: identical centroids,
  // identical predictions, and the retrain counter did not move. (The two
  // extra Gets above were absorbed into the pre-checkpoint metrics.)
  ASSERT_NE(reopened.model(), nullptr);
  ASSERT_NE(store->model(), nullptr);
  EXPECT_EQ(reopened.model()->kmeans().centroids().data(),
            store->model()->kmeans().centroids().data());
  for (int g = 0; g < 2; ++g) {
    for (uint8_t t = 0; t < 8; ++t) {
      const auto probe = GroupValue(g, t);
      EXPECT_EQ(reopened.model()->Predict(probe), store->model()->Predict(probe));
    }
  }

  // Pool state (free counts per cluster) round-trips.
  EXPECT_EQ(reopened.pool().FreeCount(), store->pool().FreeCount());
  for (size_t c = 0; c < store->pool().num_clusters(); ++c) {
    EXPECT_EQ(reopened.pool().FreeList(c), store->pool().FreeList(c));
  }

  // Metrics equality -- every post-checkpoint Get above (hits and the
  // deleted-key miss) was issued symmetrically to both stores.
  ExpectMetricsEqual(reopened.metrics(), store->metrics());
}

TEST_F(PersistTest, OpLogReplayRecoversPostCheckpointWrites) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  EXPECT_TRUE(store->op_log_attached());

  // Post-checkpoint traffic: inserts, an update, a delete.
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Put(200 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Update(200, GroupValue(1, 0x3c)).ok());
  ASSERT_TRUE(store->Delete(201).ok());

  // "Kill" the process: reopen from disk only.
  auto reopened_result = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  PnwStore& reopened = reopened_result.value()->shard(0);

  // Replay re-applies the ops through the same deterministic placement
  // path, so even the wear counters and metrics match the pre-crash store.
  // (Compared before the verification Gets below move them.)
  ExpectMetricsEqual(reopened.metrics(), store->metrics());
  EXPECT_EQ(reopened.wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());

  EXPECT_EQ(reopened.size(), store->size());
  EXPECT_EQ(reopened.Get(200).value(), GroupValue(1, 0x3c));
  EXPECT_TRUE(reopened.Get(201).status().IsNotFound());
  for (size_t i = 2; i < 8; ++i) {
    EXPECT_EQ(reopened.Get(200 + i).value(),
              GroupValue(i % 2, static_cast<uint8_t>(i)));
  }

  // The replayed DELETE handed key 201's bucket back to the pool: a PUT of
  // the value it still holds predicts the same cluster, whose free-list
  // pops last-in-first-out, so the new key lands in exactly that bucket.
  const auto key_in_bucket = [&reopened](size_t bucket) {
    uint64_t key = 0;
    std::memcpy(&key,
                reopened.device().Peek(reopened.BucketAddr(bucket),
                                       sizeof(key)).data(),
                sizeof(key));
    return key;
  };
  size_t freed = SIZE_MAX;
  for (size_t b = 0; b < reopened.active_buckets(); ++b) {
    if (key_in_bucket(b) == 201) {
      freed = b;
    }
  }
  ASSERT_NE(freed, SIZE_MAX);
  ASSERT_TRUE(reopened.Put(300, GroupValue(1, 1)).ok());
  EXPECT_EQ(key_in_bucket(freed), 300u);
  EXPECT_EQ(reopened.Get(300).value(), GroupValue(1, 1));
}

PnwOptions EnduranceOptions() {
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kLatencyFirst;
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  return options;
}

/// Endurance state a snapshot must reproduce exactly: the wear histogram,
/// the migration counter and its device time, and the device counters.
void ExpectEnduranceStateEqual(PnwStore& a, PnwStore& b) {
  EXPECT_EQ(a.wear_tracker().bucket_write_counts(),
            b.wear_tracker().bucket_write_counts());
  EXPECT_EQ(a.metrics().migrations, b.metrics().migrations);
  EXPECT_DOUBLE_EQ(a.metrics().wear_device_ns, b.metrics().wear_device_ns);
  EXPECT_EQ(a.device().counters().total_bits_written,
            b.device().counters().total_bits_written);
  EXPECT_EQ(a.device().counters().total_write_ops,
            b.device().counters().total_write_ops);
}

// Acceptance scenario of the endurance layer: traffic + migrations,
// Checkpoint, crash, Open -- the migration counters and the wear histogram
// come back bit-for-bit from the snapshot alone.
TEST_F(PersistTest, EnduranceSnapshotRoundTripsBitForBit) {
  auto sharded = MakeBootstrappedStore(EnduranceOptions());
  PnwStore* store = &sharded->shard(0);
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);

  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectEnduranceStateEqual(reopened.value()->shard(0), *store);
  for (uint64_t key = 0; key < 32; ++key) {
    EXPECT_EQ(reopened.value()->Get(key).value(), store->Get(key).value());
  }
}

// The same scenario with the migrations *after* the checkpoint: recovery
// must re-run the kMigrate op-log records through the deterministic
// relocation path and land on the identical endurance state.
TEST_F(PersistTest, MigrationReplayReproducesEnduranceStateBitForBit) {
  auto sharded = MakeBootstrappedStore(EnduranceOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->op_log_attached());

  // Post-checkpoint: hot traffic, a migration pass (logged as kMigrate
  // records), and more traffic on top of the relocated buckets.
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);
  for (uint64_t key = 0; key < 4; ++key) {
    ASSERT_TRUE(store->Update(key, GroupValue(key % 2, 0x5a)).ok());
  }
  ASSERT_TRUE(store->Put(500, GroupValue(0, 0x11)).ok());

  // Crash: reopen from the pre-migration snapshot plus the op-log.
  auto reopened_result = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  PnwStore& reopened = reopened_result.value()->shard(0);
  ExpectEnduranceStateEqual(reopened, *store);
  ExpectMetricsEqual(reopened.metrics(), store->metrics());
  EXPECT_EQ(reopened.pool().FreeCount(), store->pool().FreeCount());
  for (size_t c = 0; c < store->pool().num_clusters(); ++c) {
    EXPECT_EQ(reopened.pool().FreeList(c), store->pool().FreeList(c));
  }
  for (uint64_t key = 0; key < 4; ++key) {
    EXPECT_EQ(reopened.Get(key).value(), GroupValue(key % 2, 0x5a));
  }
  EXPECT_EQ(reopened.Get(500).value(), GroupValue(0, 0x11));
}

/// A store recovered by replay is bit-identical to the live one: metrics,
/// the per-bucket wear, every free list in pop order, and the device
/// bytes.
void ExpectReplayedStoreIdentical(PnwStore& reopened, PnwStore& store) {
  ExpectMetricsEqual(reopened.metrics(), store.metrics());
  EXPECT_EQ(reopened.metrics().migrations, store.metrics().migrations);
  EXPECT_EQ(reopened.wear_tracker().bucket_write_counts(),
            store.wear_tracker().bucket_write_counts());
  ASSERT_EQ(reopened.pool().num_clusters(), store.pool().num_clusters());
  for (size_t c = 0; c < store.pool().num_clusters(); ++c) {
    EXPECT_EQ(reopened.pool().FreeList(c), store.pool().FreeList(c)) << c;
  }
  const auto got = reopened.device().Contents();
  const auto want = store.device().Contents();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
}

// Replay across an automatic retrain: after the checkpoint the traffic
// crosses the load factor, so the zone extends and a synchronous retrain
// runs; then DELETEs and endurance-first UPDATEs of keys placed before and
// after it, and a migration pass. The live store files a DELETE under the
// label its PUT predicted while that model still serves; replay starts with
// no such labels. Both must land on the same store.
TEST_F(PersistTest, ReplayAcrossAutomaticRetrainReproducesTheStore) {
  PnwOptions options = SmallOptions();
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  auto sharded = MakeBootstrappedStore(options);  // 32 of 64 buckets used
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());

  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        store->Put(100 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Delete(101).ok());
  ASSERT_TRUE(store->Update(102, GroupValue(1, 0x21)).ok());
  ASSERT_EQ(store->metrics().extensions, 0u);
  for (size_t i = 0; i < 12; ++i) {
    ASSERT_TRUE(
        store->Put(200 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_EQ(store->metrics().extensions, 1u);
  ASSERT_EQ(store->metrics().retrains, 2u);  // Bootstrap's and this one

  // Keys placed before the retrain (bootstrapped, then post-checkpoint)
  // and after it.
  for (const uint64_t key : {3, 104, 106, 201, 203}) {
    ASSERT_TRUE(store->Delete(key).ok()) << key;
  }
  for (const uint64_t key : {4, 105, 108, 202, 205}) {
    ASSERT_TRUE(store->Update(key, GroupValue(key % 2, 0x42)).ok()) << key;
  }
  // An endurance-first UPDATE with a same-group value pops the bucket its
  // DELETE half just freed, so key 7's bucket runs hot.
  for (uint8_t round = 0; round < 8; ++round) {
    ASSERT_TRUE(store->Update(7, GroupValue(1, round)).ok());
  }
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);
  ASSERT_TRUE(store->Delete(7).ok());
  ASSERT_TRUE(store->Put(300, GroupValue(0, 0x33)).ok());

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectReplayedStoreIdentical(reopened.value()->shard(0), *store);
}

// Replay across paced retrains: once the zone is at capacity, the load
// factor can no longer extend it, and the pacing rule alone retrains -- once
// per max(256, active_buckets / 4) PUTs. Each retrain runs inside the PUT
// that reaches the pace, so replay must retrain at the same PUTs.
TEST_F(PersistTest, ReplayAcrossPacedRetrainsReproducesTheStore) {
  PnwOptions options = SmallOptions();
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  auto sharded = MakeBootstrappedStore(options);  // keys 0..31
  PnwStore* store = &sharded->shard(0);
  std::deque<uint64_t> live(32);
  std::iota(live.begin(), live.end(), 0);
  uint64_t next_key = 100;
  const auto put = [&] {
    const uint64_t key = next_key++;
    live.push_back(key);
    return store->Put(key, GroupValue(key % 2, static_cast<uint8_t>(key)));
  };
  // Grow the zone to capacity and fill it past the load factor, leaving a
  // few free addresses for the churn below.
  while (store->size() < options.capacity_buckets - 8) {
    ASSERT_TRUE(put().ok());
  }
  ASSERT_EQ(store->active_buckets(), options.capacity_buckets);
  ASSERT_GE(store->UsedFraction(), options.load_factor);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  const uint64_t retrains = store->metrics().retrains;
  const uint64_t extensions = store->metrics().extensions;

  // PUT/DELETE pairs, just past the second pacing point. The pace counts
  // on from the checkpointed puts_since_retrain(), so a replay that
  // restarted it from zero would stop short of the second retrain. Most
  // pairs delete the key they just put, so the few addresses they cycle
  // through run hot. Every 64th pair deletes the oldest key instead, which
  // leaves its PUT resident on a hot bucket for the migration pass that
  // follows.
  const size_t interval =
      std::max<size_t>(256, options.capacity_buckets / 4);
  ASSERT_GT(store->puts_since_retrain(), 16u);
  const size_t pairs = 2 * interval - store->puts_since_retrain() + 16;
  uint64_t migrated = 0;
  for (size_t i = 1; i <= pairs; ++i) {
    ASSERT_TRUE(put().ok());
    if (i % 64 != 0) {
      ASSERT_TRUE(store->Delete(live.back()).ok()) << live.back();
      live.pop_back();
      continue;
    }
    ASSERT_TRUE(store->Delete(live.front()).ok()) << live.front();
    live.pop_front();
    auto pass = store->MigrateHotBuckets(4);
    ASSERT_TRUE(pass.ok()) << pass.status();
    migrated += pass.value();
  }
  EXPECT_EQ(store->metrics().retrains, retrains + 2);
  EXPECT_EQ(store->metrics().extensions, extensions);
  EXPECT_GT(migrated, 0u);

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectReplayedStoreIdentical(reopened.value()->shard(0), *store);
}

// Replay across an explicit retrain: TrainModel between two checkpoints is
// an op-log record of its own, so recovery adopts the retrained model at
// the same point in the op sequence and places the PUTs after it as the
// live store did.
TEST_F(PersistTest, ReplayAcrossExplicitTrainModelReproducesTheStore) {
  PnwOptions options;
  options.value_bytes = 64;
  options.initial_buckets = 512;
  options.capacity_buckets = 512;
  options.num_clusters = 4;
  // Eight value groups: the bootstrap fills half the zone from the first
  // four, the churn below moves it to the other four.
  constexpr uint8_t kGroupFill[] = {0x00, 0xff, 0x0f, 0xf0,
                                    0x33, 0xcc, 0x55, 0xaa};
  const auto value = [&](uint64_t key, size_t group) {
    std::vector<uint8_t> v(options.value_bytes, kGroupFill[group]);
    v[0] ^= static_cast<uint8_t>(key);
    return v;
  };
  auto sharded = OneShardStore(options);
  PnwStore* store = &sharded->shard(0);
  std::vector<uint64_t> keys(256);
  std::vector<std::vector<uint8_t>> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    values[i] = value(i, i % 4);
  }
  ASSERT_TRUE(sharded->Bootstrap(keys, values).ok());
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());

  // DELETE/PUT pairs that replace bootstrapped keys with new-group values.
  const auto churn = [&](uint64_t first_old, uint64_t first_new, size_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      ASSERT_TRUE(store->Delete(first_old + i).ok()) << first_old + i;
      ASSERT_TRUE(store->Put(first_new + i, value(first_new + i, 4 + i % 4))
                      .ok())
          << first_new + i;
    }
  };
  churn(0, 1000, 128);
  ASSERT_TRUE(store->TrainModel().ok());
  churn(128, 2000, 64);
  ASSERT_EQ(store->metrics().retrains, 2u);  // Bootstrap's and the explicit

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  ExpectReplayedStoreIdentical(reopened.value()->shard(0), *store);
}

// kMigrate re-points the index by the key stored in the bucket, which a
// keyless store does not have: replaying one must fail, not serve the
// bucket's value under key 0.
TEST_F(PersistTest, KeylessStoreRejectsReplayedMigration) {
  PnwOptions options = SmallOptions();
  options.store_keys_in_data_zone = false;
  options.update_mode = UpdateMode::kLatencyFirst;
  auto store = OneShardStore(options);
  const std::vector<uint64_t> keys = {5, 6, 7, 8};
  std::vector<std::vector<uint8_t>> values;
  for (const uint64_t key : keys) {
    values.push_back(GroupValue(key % 2, static_cast<uint8_t>(key)));
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  // Three in-place writes make key 5's bucket (bucket 0) warmer than every
  // free one, so a migration of it has a destination.
  for (uint8_t round = 0; round < 3; ++round) {
    ASSERT_TRUE(store->Update(5, GroupValue(1, round)).ok());
  }
  store.reset();
  {
    // The log holds bytes already, so it keeps its header and epoch.
    auto log = persist::OpLogWriter::Open(ShardLog(Path("ckpt")),
                                          /*sync_every=*/1, /*epoch=*/0)
                   .value();
    ASSERT_TRUE(log->Append(persist::OpType::kMigrate, 0, {}).ok());
  }
  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

// A snapshot whose DRAM index maps a key outside the data zone, or between
// buckets, is Corruption at Open: no operation may follow that address
// into the flag bitmap or past the device.
TEST_F(PersistTest, IndexAddressOutsideTheZoneIsCorruption) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  const std::string snap_path = ShardSnap(Path("ckpt"));
  const auto snap = persist::SnapshotReader::FromFile(
                        snap_path, PnwStore::kSnapshotVersion)
                        .value();
  constexpr uint32_t kIndexSection = 6;
  for (const uint64_t bad :
       {uint64_t{1} << 30, store->shard(0).BucketAddr(3) + 1}) {
    persist::SnapshotWriter rewritten(PnwStore::kSnapshotVersion);
    for (uint32_t id = 1; id <= 9; ++id) {
      auto section = snap.Section(id);
      if (!section.ok()) {
        continue;
      }
      std::vector<uint8_t> bytes(section.value().remaining());
      ASSERT_TRUE(section.value().GetBytes(bytes).ok());
      if (id == kIndexSection) {
        // u8 placement | u64 count | count x (u64 key, u64 address): the
        // first entry's address.
        std::memcpy(bytes.data() + 1 + 8 + 8, &bad, sizeof(bad));
      }
      rewritten.AddSection(id).PutBytes(bytes);
    }
    ASSERT_TRUE(rewritten.WriteToFile(snap_path).ok());
    auto reopened = ShardedPnwStore::Open(Path("ckpt"));
    ASSERT_FALSE(reopened.ok()) << bad;
    EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
  }
}

TEST_F(PersistTest, TornLogTailIsTruncatedNotFatal) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        store->Put(300 + i, GroupValue(0, static_cast<uint8_t>(i))).ok());
  }
  const std::string log_path = ShardLog(Path("ckpt"));

  // Tear the final record: chop 5 bytes off the log, as a crash mid-append
  // would.
  const auto full_size = fs::file_size(log_path);
  fs::resize_file(log_path, full_size - 5);

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // First three records replay; the torn fourth is gone.
  EXPECT_TRUE(reopened.value()->Get(300).ok());
  EXPECT_TRUE(reopened.value()->Get(301).ok());
  EXPECT_TRUE(reopened.value()->Get(302).ok());
  EXPECT_TRUE(reopened.value()->Get(303).status().IsNotFound());
  // The tail was physically truncated, and the re-attached log appends
  // cleanly after it: a new write then a second recovery must see it.
  ASSERT_TRUE(reopened.value()->Put(400, GroupValue(1, 1)).ok());
  auto again = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(again.value()->Get(400).value(), GroupValue(1, 1));
  EXPECT_TRUE(again.value()->Get(303).status().IsNotFound());
}

TEST_F(PersistTest, CorruptedSnapshotChecksumIsCleanError) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());

  // Flip one byte deep in the payload (past the 16-byte header and the
  // first section frame) and expect Corruption, not a crash or a
  // half-restored store.
  auto bytes = persist::ReadFileBytes(ShardSnap(Path("ckpt"))).value();
  bytes[bytes.size() / 2] ^= 0xff;
  WriteBytes(ShardSnap(Path("ckpt")), bytes);

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
}

TEST_F(PersistTest, SnapshotVersionMismatchIsCleanError) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  const std::string snap_path = ShardSnap(Path("ckpt"));
  const auto written = persist::ReadFileBytes(snap_path).value();

  // A version from the future; v9, the last layout with the DRAM
  // latencies and without the TRAIN op-log record; and v7, the last with
  // the Start-Gap fields.
  for (const uint32_t version : {PnwStore::kSnapshotVersion + 1, 9u, 7u}) {
    // Byte 8 is the low byte of the little-endian payload version.
    auto bytes = written;
    bytes[8] = static_cast<uint8_t>(version);
    WriteBytes(snap_path, bytes);

    auto reopened = ShardedPnwStore::Open(Path("ckpt"));
    ASSERT_FALSE(reopened.ok()) << "v" << version;
    EXPECT_TRUE(reopened.status().IsInvalidArgument()) << reopened.status();
    EXPECT_NE(reopened.status().message().find("version mismatch"),
              std::string::npos);
  }
}

TEST_F(PersistTest, NotASnapshotIsCleanError) {
  std::ofstream out(Path("junk.snap"), std::ios::binary);
  out << "this is not a snapshot";
  out.close();
  auto reopened = PnwStore::Open(Path("junk.snap"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
  EXPECT_TRUE(
      PnwStore::Open(Path("missing.snap")).status().IsNotFound());
}

// Satellite fix: the ResetWearAndMetrics / Checkpoint interplay is
// well-defined. A checkpoint is a pure read of the current epoch:
// checkpointing right after a reset persists the zeroed counters, and the
// recovered store starts the fresh epoch with its data intact.
TEST_F(PersistTest, CheckpointAfterResetPersistsTheFreshEpoch) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Put(500 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  store->ResetWearAndMetrics();
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());

  auto reopened_result = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  PnwStore& reopened = reopened_result.value()->shard(0);
  EXPECT_EQ(reopened.metrics().puts, 0u);
  EXPECT_EQ(reopened.wear_tracker().MaxBucketWrites(), 0u);
  EXPECT_EQ(reopened.device().counters().total_bits_written, 0u);
  EXPECT_EQ(reopened.puts_since_retrain(), 0u);
  // The data survived the reset: only the accounting epoch restarted.
  EXPECT_EQ(reopened.size(), store->size());
  EXPECT_TRUE(reopened.Get(500).ok());
}

// The other direction of the interplay: a reset is a DRAM-side epoch
// operation and is NOT an op-log record, so a reset that follows the
// checkpoint is forgotten by recovery -- the replayed ops land on the
// *checkpointed* epoch. Durable epoch boundaries require a checkpoint.
TEST_F(PersistTest, ResetWithoutCheckpointIsNotDurable) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  const uint64_t checkpoint_puts = store->metrics().puts;

  ASSERT_TRUE(store->Put(600, GroupValue(0, 1)).ok());
  store->ResetWearAndMetrics();  // live store now reads zero
  ASSERT_TRUE(store->Put(601, GroupValue(1, 2)).ok());
  EXPECT_EQ(store->metrics().puts, 1u);

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // Recovery = checkpoint epoch + both replayed puts; the mid-stream
  // reset never happened as far as durability is concerned.
  EXPECT_EQ(reopened.value()->shard(0).metrics().puts, checkpoint_puts + 2);
  EXPECT_TRUE(reopened.value()->Get(600).ok());
  EXPECT_TRUE(reopened.value()->Get(601).ok());
}

TEST_F(PersistTest, RecoveryWithoutReplayServesCheckpointOnly) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(700, GroupValue(0, 3)).ok());

  persist::RecoveryOptions recovery;
  recovery.replay_op_log = false;
  recovery.attach_op_log = false;
  auto reopened = ShardedPnwStore::Open(Path("ckpt"), recovery);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value()->Get(700).status().IsNotFound());
  EXPECT_FALSE(reopened.value()->shard(0).op_log_attached());
}

// Attaching the log without replaying it would append behind records the
// served state never saw, which no later recovery could replay: Open
// refuses the combination and leaves the log as it was.
TEST_F(PersistTest, AttachWithoutReplayIsInvalidArgument) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(700, GroupValue(0, 3)).ok());

  persist::RecoveryOptions recovery;
  recovery.replay_op_log = false;
  recovery.attach_op_log = true;
  auto refused = ShardedPnwStore::Open(Path("ckpt"), recovery);
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsInvalidArgument()) << refused.status();
  EXPECT_TRUE(PnwStore::Open(ShardSnap(Path("ckpt")), recovery)
                  .status()
                  .IsInvalidArgument());

  auto replayed = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  EXPECT_EQ(replayed.value()->Get(700).value(), GroupValue(0, 3));
}

// The durability contract, field by field. Replay reproduces every
// write-side counter of the operations it replays. These keep their
// snapshot values instead: failed_ops (a write that failed after the
// checkpoint leaves no record), the read counters (reads are not logged)
// and log_wall_ns (replay appends nothing); predict_wall_ns adds the
// replay's own predicts. A counter added to the ledger is held to the
// first rule until it is named here.
TEST_F(PersistTest, ReplayReproducesEveryWriteCounterButTheNamedOnes) {
  const std::set<std::string_view> kKeptAtSnapshot = {
      "failed_ops",         "gets",          "get_misses",
      "optimistic_gets",    "locked_gets",   "optimistic_retries",
      "get_device_ns",      "log_wall_ns"};
  PnwOptions options = EnduranceOptions();
  options.capacity_buckets = options.initial_buckets;  // 64, no extension
  auto sharded = MakeBootstrappedStore(options);       // 32 keys
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  const StoreMetrics at_checkpoint = store->metrics();

  // Fill the zone, fail one PUT for want of space, then free some
  // buckets, heat four keys in place, migrate, retrain and place more.
  for (uint64_t key = 100; key < 132; ++key) {
    ASSERT_TRUE(store->Put(key, GroupValue(key % 2, 1)).ok()) << key;
  }
  EXPECT_TRUE(store->Put(999, GroupValue(0, 9)).IsOutOfSpace());
  for (uint64_t key = 100; key < 108; ++key) {
    ASSERT_TRUE(store->Delete(key).ok()) << key;
  }
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  ASSERT_GT(migrated.value(), 0u);
  ASSERT_TRUE(store->TrainModel().ok());
  for (uint64_t key = 200; key < 204; ++key) {
    ASSERT_TRUE(store->Put(key, GroupValue(key % 2, 2)).ok()) << key;
  }
  ASSERT_TRUE(store->Get(0).ok());
  EXPECT_TRUE(store->Get(12345).status().IsNotFound());
  auto fast = store->TryGetOptimistic(1);
  ASSERT_TRUE(fast.has_value() && fast->ok());

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  const StoreMetrics& live = store->metrics();
  const StoreMetrics& replayed = reopened.value()->shard(0).metrics();
  const auto check = [&](std::string_view name, double checkpointed,
                         double live_value, double replayed_value) {
    if (name == "predict_wall_ns") {
      EXPECT_GT(replayed_value, checkpointed) << name;
    } else if (kKeptAtSnapshot.count(name) != 0) {
      EXPECT_DOUBLE_EQ(replayed_value, checkpointed) << name;
      if (name != "optimistic_retries") {  // needs a racing writer
        EXPECT_NE(live_value, checkpointed) << name << " never moved";
      }
    } else {
      EXPECT_DOUBLE_EQ(replayed_value, live_value) << name;
    }
  };
#define PNW_CHECK_FIELD(type, name)                       \
  check(#name, static_cast<double>(at_checkpoint.name), \
        static_cast<double>(live.name), static_cast<double>(replayed.name));
  PNW_STORE_COUNTERS(PNW_CHECK_FIELD)
#undef PNW_CHECK_FIELD
  EXPECT_EQ(live.failed_ops, at_checkpoint.failed_ops + 1);
  EXPECT_EQ(reopened.value()->shard(0).wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());
  const auto got = reopened.value()->shard(0).device().Contents();
  const auto want = store->device().Contents();
  EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
}

TEST_F(PersistTest, NvmIndexAndBitWearRoundTrip) {
  PnwOptions options = SmallOptions();
  options.index_placement = IndexPlacement::kNvmPathHash;
  options.track_bit_wear = true;
  auto store = MakeBootstrappedStore(options);
  for (size_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        store->Put(800 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  // The NVM-resident index came back with the device contents, including
  // its DRAM-side size counter.
  EXPECT_EQ(reopened.value()->size(), store->size());
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(reopened.value()->Get(800 + i).value(),
              GroupValue(i % 2, static_cast<uint8_t>(i)));
  }
  // Per-bit wear histograms round-trip too (Fig. 13 survives restarts).
  EXPECT_EQ(reopened.value()->shard(0).device().bit_write_counts(),
            store->shard(0).device().bit_write_counts());
}

// A shard snapshot's device section is the device contents, its
// NvmCounters and the per-bit wear (empty without track_bit_wear), and
// nothing more: a per-address array that no output reads must not ride in
// every checkpoint.
TEST_F(PersistTest, DeviceSectionHoldsContentsCountersAndBitWearOnly) {
  for (const bool bit_wear : {false, true}) {
    SCOPED_TRACE(bit_wear ? "track_bit_wear" : "no bit wear");
    PnwOptions options = SmallOptions();
    options.track_bit_wear = bit_wear;
    auto store = MakeBootstrappedStore(options);
    ASSERT_TRUE(store->Put(500, GroupValue(1, 5)).ok());
    const std::string dir = Path(bit_wear ? "bits" : "plain");
    ASSERT_TRUE(store->Checkpoint(dir).ok());

    const auto snap = persist::SnapshotReader::FromFile(
                          ShardSnap(dir), PnwStore::kSnapshotVersion)
                          .value();
    constexpr uint32_t kDeviceSection = 3;
    auto section = snap.Section(kDeviceSection);
    ASSERT_TRUE(section.ok()) << section.status();
    persist::BufferReader& r = section.value();
    std::vector<uint8_t> contents;
    nvm::NvmCounters counters;
    std::vector<uint16_t> bit_counts;
    ASSERT_TRUE(r.GetSizedBytes(&contents).ok());
    ASSERT_TRUE(persist::DecodeNvmCounters(r, &counters).ok());
    ASSERT_TRUE(r.GetU16Vec(&bit_counts).ok());
    EXPECT_EQ(r.remaining(), 0u);

    const nvm::NvmDevice& device = store->shard(0).device();
    const auto live = device.Contents();
    EXPECT_TRUE(std::equal(contents.begin(), contents.end(), live.begin(),
                           live.end()));
    persist::BufferWriter got;
    persist::BufferWriter want;
    persist::EncodeNvmCounters(counters, got);
    persist::EncodeNvmCounters(device.counters(), want);
    EXPECT_EQ(got.data(), want.data());
    EXPECT_EQ(bit_counts, device.bit_write_counts());
    EXPECT_EQ(bit_counts.empty(), !bit_wear);
  }
}

TEST_F(PersistTest, ShardedCheckpointRoundTripsInParallel) {
  ShardedOptions options;
  options.num_shards = 4;
  options.store = SmallOptions();
  options.store.initial_buckets = 128;
  options.store.capacity_buckets = 256;
  auto store = ShardedPnwStore::Open(options).value();

  std::vector<uint64_t> keys(96);
  std::vector<std::vector<uint8_t>> values(96);
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    values[i] = GroupValue(i % 2, static_cast<uint8_t>(i / 2));
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  for (size_t i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        store->Put(1000 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }

  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  // Post-checkpoint traffic lands in the per-shard op-logs.
  for (size_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        store->Put(2000 + i, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
  }
  ASSERT_TRUE(store->Delete(1000).ok());

  auto reopened_result = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened_result.ok()) << reopened_result.status();
  auto& reopened = *reopened_result.value();

  // Aggregate metrics match the pre-crash store (compared before the
  // verification Gets below move them).
  const auto want = store->AggregatedMetrics();
  const auto got = reopened.AggregatedMetrics();
  ExpectMetricsEqual(got.totals, want.totals);
  EXPECT_EQ(got.MaxBucketWrites(), want.MaxBucketWrites());

  // Same shard count and routing as the checkpointed store.
  EXPECT_EQ(reopened.num_shards(), store->num_shards());
  for (uint64_t key = 0; key < 64; ++key) {
    EXPECT_EQ(reopened.ShardOf(key), store->ShardOf(key));
  }
  EXPECT_EQ(reopened.size(), store->size());
  for (uint64_t key : keys) {
    EXPECT_EQ(reopened.Get(key).value(), store->Get(key).value());
  }
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(reopened.Get(2000 + i).ok());
  }
  EXPECT_TRUE(reopened.Get(1000).status().IsNotFound());
}

// Live backup drill: writer threads keep hammering the store while the
// main thread takes repeated checkpoints of it. Every checkpoint must
// succeed (per-shard locking, no global pause), and recovering the last
// one plus the per-shard op-logs must serve every key the writers wrote.
// Runs under TSan in CI (the "Sharded" name filter), machine-checking the
// checkpoint path's locking discipline.
TEST_F(PersistTest, ShardedLiveCheckpointUnderConcurrentTraffic) {
  ShardedOptions options;
  options.num_shards = 4;
  options.store = SmallOptions();
  options.store.initial_buckets = 2048;
  options.store.capacity_buckets = 4096;
  auto store = ShardedPnwStore::Open(options).value();
  ASSERT_TRUE(store
                  ->Bootstrap(std::span<const uint64_t>(),
                              std::span<const std::vector<uint8_t>>())
                  .ok());

  // Enough writer work that the checkpoints below genuinely race the
  // writers -- operations landing between a shard's snapshot and its log
  // switch are exactly the records the carry logic must preserve. Besides
  // fresh puts, each writer updates and deletes keys it wrote earlier, so
  // a carried tail holds every record kind.
  constexpr size_t kWriters = 4;
  constexpr size_t kPerWriter = 384;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store, w] {
      for (size_t i = 0; i < kPerWriter; ++i) {
        const uint64_t key = w * 1000 + i;
        ASSERT_TRUE(
            store->Put(key, GroupValue(i % 2, static_cast<uint8_t>(i))).ok());
        if (i % 3 == 1) {
          ASSERT_TRUE(store
                          ->Update(key - 1, GroupValue((i + 1) % 2,
                                                       static_cast<uint8_t>(i)))
                          .ok());
        }
        if (i % 5 == 4) {
          ASSERT_TRUE(store->Delete(key - 2).ok());
        }
      }
    });
  }
  // Checkpoints race the writers; each one locks shards one at a time.
  for (int c = 0; c < 3; ++c) {
    EXPECT_TRUE(store->Checkpoint(Path("live")).ok());
  }
  for (auto& writer : writers) {
    writer.join();
  }
  // Post-join ops land in the attached per-shard op-logs too.
  ASSERT_TRUE(store->Put(9999, GroupValue(1, 0x11)).ok());

  auto reopened = ShardedPnwStore::Open(Path("live"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), store->size());
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      const uint64_t key = w * 1000 + i;
      const auto live = store->Get(key);
      const auto recovered = reopened.value()->Get(key);
      ASSERT_EQ(recovered.ok(), live.ok()) << key;
      if (live.ok()) {
        EXPECT_EQ(recovered.value(), live.value()) << key;
      } else {
        EXPECT_TRUE(recovered.status().IsNotFound()) << key;
      }
    }
  }
  EXPECT_EQ(reopened.value()->Get(9999).value(), GroupValue(1, 0x11));
}

TEST_F(PersistTest, ShardedOpenRejectsUnfinishedCheckpoint) {
  // A directory with shard snapshots but no MANIFEST (the crash window of
  // Checkpoint) must be rejected cleanly.
  fs::create_directories(Path("partial"));
  std::ofstream(Path("partial") + "/" +
                ShardedPnwStore::ShardSnapshotName(0))
      << "half a shard";
  auto reopened = ShardedPnwStore::Open(Path("partial"));
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsNotFound()) << reopened.status();
  EXPECT_NE(reopened.status().message().find("MANIFEST"), std::string::npos);
}

// Low-level op-log properties: group fsync bookkeeping and torn-tail
// detection straight through the persist API.
TEST_F(PersistTest, OpLogReadBackAndTornTailDetection) {
  const std::string path = Path("ops.oplog");
  {
    auto writer =
        persist::OpLogWriter::Open(path, /*sync_every=*/2, /*epoch=*/7)
            .value();
    const std::vector<uint8_t> v1{1, 2, 3};
    const std::vector<uint8_t> v2{4, 5};
    ASSERT_TRUE(writer->Append(persist::OpType::kPut, 10, v1).ok());
    ASSERT_TRUE(writer->Append(persist::OpType::kUpdate, 11, v2).ok());
    ASSERT_TRUE(writer->Append(persist::OpType::kDelete, 12, {}).ok());
    EXPECT_EQ(writer->appended(), 3u);
  }
  auto contents = persist::ReadOpLog(path).value();
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_TRUE(contents.has_header);
  EXPECT_EQ(contents.epoch, 7u);
  EXPECT_FALSE(contents.tail_truncated);
  EXPECT_EQ(contents.records[0].op, persist::OpType::kPut);
  EXPECT_EQ(contents.records[0].key, 10u);
  EXPECT_EQ(contents.records[0].value, (std::vector<uint8_t>{1, 2, 3}));
  EXPECT_EQ(contents.records[2].op, persist::OpType::kDelete);
  EXPECT_TRUE(contents.records[2].value.empty());

  // Resuming from a mark (a checkpoint's carry): from every record
  // boundary, exactly the later records, with valid_bytes still an
  // absolute offset. 16B header | 8B frame + 12B body | 8 + 11 | 8 + 9.
  const uint64_t boundaries[] = {16, 36, 55, 72};
  EXPECT_EQ(contents.valid_bytes, 72u);
  for (size_t b = 0; b < std::size(boundaries); ++b) {
    const auto tail = persist::ReadOpLog(path, boundaries[b]).value();
    EXPECT_TRUE(tail.has_header);
    EXPECT_EQ(tail.epoch, 7u);
    EXPECT_FALSE(tail.tail_truncated);
    EXPECT_EQ(tail.valid_bytes, 72u);
    ASSERT_EQ(tail.records.size(), 3 - b);
    for (size_t r = 0; r < tail.records.size(); ++r) {
      EXPECT_EQ(tail.records[r].op, contents.records[b + r].op);
      EXPECT_EQ(tail.records[r].key, contents.records[b + r].key);
      EXPECT_EQ(tail.records[r].value, contents.records[b + r].value);
    }
  }
  const auto past_end = persist::ReadOpLog(path, 1000).value();
  EXPECT_TRUE(past_end.records.empty());
  EXPECT_FALSE(past_end.tail_truncated);
  EXPECT_EQ(past_end.valid_bytes, 72u);

  // Corrupt the second record's payload: the scan stops there (the rest
  // of the file is untrusted once one CRC fails) and reports truncation.
  auto bytes = persist::ReadFileBytes(path).value();
  // 16B header | 8B frame 1 | 12B body 1 | 8B frame 2 | into body 2.
  bytes[16 + 8 + 12 + 8 + 5] ^= 0xff;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  out.close();
  auto damaged = persist::ReadOpLog(path).value();
  EXPECT_EQ(damaged.records.size(), 1u);
  EXPECT_TRUE(damaged.tail_truncated);
  EXPECT_EQ(damaged.valid_bytes, 36u);
  // A torn record past the mark is reported the same way.
  auto damaged_tail = persist::ReadOpLog(path, 36).value();
  EXPECT_TRUE(damaged_tail.records.empty());
  EXPECT_TRUE(damaged_tail.tail_truncated);
  EXPECT_EQ(damaged_tail.valid_bytes, 36u);
}

// Every generation's log is created with its snapshot's epoch and no log
// path is ever reused, so a generation whose log carries another epoch
// holds a log that was never written behind its snapshot. Replaying it
// could double-apply records the snapshot already holds (skewing wear and
// metrics, and failing on deletes of deleted keys), so recovery refuses
// it; only an open that does not read the log serves the snapshot.
TEST_F(PersistTest, OpLogFromAnotherEpochIsCorruption) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(900, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Delete(900).ok());
  const auto first_log = persist::ReadFileBytes(ShardLog(Path("ckpt"))).value();

  // The second checkpoint folds those ops into generation 2's snapshot;
  // put generation 1's log in place of generation 2's.
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  EXPECT_EQ(persist::ReadOpLog(ShardLog(Path("ckpt"), 2)).value().epoch, 2u);
  WriteBytes(ShardLog(Path("ckpt"), 2), first_log);

  persist::RecoveryOptions recovery;
  for (const bool attach : {true, false}) {
    recovery.attach_op_log = attach;
    auto reopened = ShardedPnwStore::Open(Path("ckpt"), recovery);
    ASSERT_FALSE(reopened.ok()) << "attach " << attach;
    EXPECT_TRUE(reopened.status().IsCorruption()) << reopened.status();
  }
  recovery.replay_op_log = false;
  auto snapshot_only = ShardedPnwStore::Open(Path("ckpt"), recovery);
  ASSERT_TRUE(snapshot_only.ok()) << snapshot_only.status();
  ExpectMetricsEqual(snapshot_only.value()->shard(0).metrics(),
                     store->shard(0).metrics());
  EXPECT_TRUE(snapshot_only.value()->Get(900).status().IsNotFound());
}

// Repeated checkpoints into the same directory write fresh epoch
// generations with the MANIFEST as commit point: a crash mid-checkpoint
// (partial generation, manifest still pointing at the previous one) must
// recover the previous complete checkpoint, and committed checkpoints
// garbage-collect superseded generations.
TEST_F(PersistTest, ShardedRepeatedCheckpointsAndCrashFallback) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  auto store = ShardedPnwStore::Open(options).value();
  ASSERT_TRUE(store
                  ->Bootstrap(std::span<const uint64_t>(),
                              std::span<const std::vector<uint8_t>>())
                  .ok());
  ASSERT_TRUE(store->Put(1, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(2, GroupValue(1, 2)).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());

  // The superseded generation was garbage-collected after the commit.
  EXPECT_FALSE(fs::exists(Path("ckpt") + "/epoch-000001"));
  EXPECT_TRUE(fs::exists(Path("ckpt") + "/epoch-000002"));

  // Simulate a checkpoint that crashed before its manifest commit: a
  // partial next generation lying around must not be opened.
  fs::create_directories(Path("ckpt") + "/epoch-000003");
  std::ofstream(Path("ckpt") + "/epoch-000003/" +
                ShardedPnwStore::ShardSnapshotName(0))
      << "torn half-written shard";
  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_TRUE(reopened.value()->Get(1).ok());
  EXPECT_TRUE(reopened.value()->Get(2).ok());

  // The recovered store checkpoints into a generation numbered past the
  // partial one, never into it, and GCs both older directories.
  ASSERT_TRUE(reopened.value()->Put(3, GroupValue(0, 3)).ok());
  ASSERT_TRUE(reopened.value()->Checkpoint(Path("ckpt")).ok());
  EXPECT_FALSE(fs::exists(Path("ckpt") + "/epoch-000002"));
  EXPECT_FALSE(fs::exists(Path("ckpt") + "/epoch-000003"));
  EXPECT_TRUE(fs::exists(ShardSnap(Path("ckpt"), 4)));
  auto latest = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(latest.ok()) << latest.status();
  EXPECT_TRUE(latest.value()->Get(3).ok());
}

// --- The split checkpoint: capture under the lock, commit without it.

/// The suite of the split checkpoint's tests: in each, writers hold the
/// store's lock while the unlocked commit runs.
using PersistConcurrencyTest = PersistTest;

/// Commit `pending` on this thread while a second thread applies `writes`
/// under the store's exclusive lock, as a sharded checkpoint's commit
/// races the shard's writers. Returns the commit's status.
Status CommitRacingWrites(PnwStore& store, persist::PendingFile& pending,
                          const std::function<void(PnwStore&)>& writes) {
  std::thread writer([&store, &writes] {
    util::WriterLock lock(store.mu());
    writes(store);
  });
  const Status committed = pending.Commit();
  writer.join();
  return committed;
}

// Operations that land between a capture and its finish are not in the
// snapshot (it holds the capture-time state) but in the previous log,
// past the capture's mark; FinishCheckpoint carries them into the new
// generation's log, so a replaying open serves them.
TEST_F(PersistConcurrencyTest, CheckpointCarriesWritesRacingItsCommit) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());  // generation 1
  ASSERT_TRUE(store->Put(100, GroupValue(0, 1)).ok());

  fs::create_directories(Path("gen2"));
  const std::string path = Path("gen2") + "/shard.snap";
  auto pending = store->CaptureCheckpoint(path, /*epoch=*/2);
  ASSERT_TRUE(pending.ok()) << pending.status();
  EXPECT_FALSE(fs::exists(path));
  // Every record kind races the commit.
  const Status committed =
      CommitRacingWrites(*store, pending.value(), [](PnwStore& s) {
        ASSERT_TRUE(s.Put(200, GroupValue(1, 2)).ok());
        ASSERT_TRUE(s.Update(100, GroupValue(1, 3)).ok());
        ASSERT_TRUE(s.Delete(5).ok());
      });
  ASSERT_TRUE(committed.ok()) << committed;
  ASSERT_TRUE(store->FinishCheckpoint(path, /*epoch=*/2).ok());

  const auto carried =
      persist::ReadOpLog(path + PnwStore::kOpLogSuffix).value();
  EXPECT_EQ(carried.epoch, 2u);
  ASSERT_EQ(carried.records.size(), 3u);
  EXPECT_EQ(carried.records[0].op, persist::OpType::kPut);
  EXPECT_EQ(carried.records[2].op, persist::OpType::kDelete);

  persist::RecoveryOptions read_only;
  read_only.attach_op_log = false;
  auto replayed = PnwStore::Open(path, read_only);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  ExpectMetricsEqual(replayed.value()->metrics(), store->metrics());
  EXPECT_EQ(replayed.value()->wear_tracker().bucket_write_counts(),
            store->wear_tracker().bucket_write_counts());
  EXPECT_EQ(replayed.value()->Get(200).value(), GroupValue(1, 2));
  EXPECT_EQ(replayed.value()->Get(100).value(), GroupValue(1, 3));
  EXPECT_TRUE(replayed.value()->Get(5).status().IsNotFound());

  read_only.replay_op_log = false;
  auto snapshot_only = PnwStore::Open(path, read_only);
  ASSERT_TRUE(snapshot_only.ok()) << snapshot_only.status();
  EXPECT_TRUE(snapshot_only.value()->Get(200).status().IsNotFound());
  EXPECT_EQ(snapshot_only.value()->Get(100).value(), GroupValue(0, 1));
  EXPECT_TRUE(snapshot_only.value()->Get(5).ok());
}

// A commit that fails (here: the generation directory vanished, so the
// rename has nowhere to land) leaves the previous checkpoint and its log
// in charge once AbortCheckpoint drops the capture's mark.
TEST_F(PersistConcurrencyTest, FailedCheckpointCommitKeepsTheOldGeneration) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());  // generation 1
  fs::create_directories(Path("gen2"));
  auto pending =
      store->CaptureCheckpoint(Path("gen2") + "/shard.snap", /*epoch=*/2);
  ASSERT_TRUE(pending.ok()) << pending.status();
  fs::remove_all(Path("gen2"));
  EXPECT_FALSE(CommitRacingWrites(*store, pending.value(), [](PnwStore& s) {
                 ASSERT_TRUE(s.Put(300, GroupValue(1, 4)).ok());
               }).ok());
  store->AbortCheckpoint();
  EXPECT_TRUE(store->op_log_attached());

  // Writes during and after the failed commit replay from the old
  // generation.
  ASSERT_TRUE(store->Put(301, GroupValue(0, 5)).ok());
  persist::RecoveryOptions read_only;
  read_only.attach_op_log = false;
  auto old = ShardedPnwStore::Open(Path("ckpt"), read_only);
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old.value()->Get(300).value(), GroupValue(1, 4));
  EXPECT_EQ(old.value()->Get(301).value(), GroupValue(0, 5));

  // The next checkpoint succeeds.
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  auto next = ShardedPnwStore::Open(Path("ckpt"), read_only);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next.value()->Get(301).value(), GroupValue(0, 5));
}

// The first checkpoint has no previous log to carry from, so its capture
// attaches the new generation's log at once. If the commit fails, that
// log extends a snapshot that never landed: it must be detached.
TEST_F(PersistConcurrencyTest, FailedFirstCheckpointCommitDetachesItsLog) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_FALSE(store->op_log_attached());
  fs::create_directories(Path("gen1"));
  auto pending =
      store->CaptureCheckpoint(Path("gen1") + "/shard.snap", /*epoch=*/1);
  ASSERT_TRUE(pending.ok()) << pending.status();
  EXPECT_TRUE(store->op_log_attached());
  fs::remove_all(Path("gen1"));
  EXPECT_FALSE(CommitRacingWrites(*store, pending.value(), [](PnwStore& s) {
                 ASSERT_TRUE(s.Put(400, GroupValue(1, 6)).ok());
               }).ok());
  store->AbortCheckpoint();
  EXPECT_FALSE(store->op_log_attached());

  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  EXPECT_EQ(persist::ReadOpLog(ShardLog(Path("ckpt"))).value().epoch, 1u);
  ASSERT_TRUE(store->Put(401, GroupValue(0, 7)).ok());
  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->Get(400).value(), GroupValue(1, 6));
  EXPECT_EQ(reopened.value()->Get(401).value(), GroupValue(0, 7));
}

/// A fresh 2-shard store over SmallOptions, bootstrapped with no items.
std::unique_ptr<ShardedPnwStore> TwoShardStore() {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  auto store = ShardedPnwStore::Open(options).value();
  EXPECT_TRUE(store
                  ->Bootstrap(std::span<const uint64_t>(),
                              std::span<const std::vector<uint8_t>>())
                  .ok());
  return store;
}

/// Make the next manifest write into `dir` fail: a directory squats on
/// its temp file's name, so the commit point is never reached.
void BlockManifest(const std::string& dir) {
  fs::create_directories(dir + "/" + ShardedPnwStore::kManifestName +
                         ".tmp/x");
}

void UnblockManifest(const std::string& dir) {
  fs::remove_all(dir + "/" + ShardedPnwStore::kManifestName + ".tmp");
}

// The same through ShardedPnwStore::Checkpoint: the manifest write fails,
// so nothing commits. Every shard aborts its capture and keeps logging
// into the committed generation, which keeps replaying, and the retry
// commits a later generation.
TEST_F(PersistTest, ShardedCheckpointCommitFailureKeepsTheOldGeneration) {
  auto store = TwoShardStore();
  ASSERT_TRUE(store->Put(1, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());

  BlockManifest(Path("ckpt"));
  EXPECT_FALSE(store->Checkpoint(Path("ckpt")).ok());
  EXPECT_FALSE(fs::exists(Path("ckpt") + "/epoch-000002"));
  ASSERT_TRUE(store->Put(2, GroupValue(1, 2)).ok());
  {
    persist::RecoveryOptions read_only;
    read_only.attach_op_log = false;
    auto reopened = ShardedPnwStore::Open(Path("ckpt"), read_only);
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened.value()->Get(1).value(), GroupValue(0, 1));
    EXPECT_EQ(reopened.value()->Get(2).value(), GroupValue(1, 2));
  }

  UnblockManifest(Path("ckpt"));
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(3, GroupValue(0, 3)).ok());
  auto latest = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(latest.ok()) << latest.status();
  for (uint64_t key = 1; key <= 3; ++key) {
    EXPECT_EQ(latest.value()->Get(key).value(), store->Get(key).value());
  }
}

// A server restarted with --data-dir checkpoints a fresh store into the
// directory that holds the previous run's committed generation. Until the
// new manifest commits, that generation must stay intact: here the
// manifest write fails, and the old store's 40 keys are all still served.
TEST_F(PersistTest, ShardedFailedCheckpointLeavesAnOccupiedDirectoryIntact) {
  {
    auto old = TwoShardStore();
    for (uint64_t key = 0; key < 40; ++key) {
      ASSERT_TRUE(
          old->Put(key, GroupValue(key % 2, static_cast<uint8_t>(key))).ok());
    }
    ASSERT_TRUE(old->Checkpoint(Path("ckpt")).ok());
    // Half the keys reach only the committed generation's op-logs.
    for (uint64_t key = 0; key < 40; key += 2) {
      ASSERT_TRUE(old->Update(key, GroupValue(1, 0x40)).ok());
    }
  }
  auto fresh = TwoShardStore();
  for (uint64_t key = 1000; key < 1004; ++key) {
    ASSERT_TRUE(fresh->Put(key, GroupValue(0, 1)).ok());
  }
  BlockManifest(Path("ckpt"));
  EXPECT_FALSE(fresh->Checkpoint(Path("ckpt")).ok());
  UnblockManifest(Path("ckpt"));

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), 40u);
  for (uint64_t key = 0; key < 40; ++key) {
    EXPECT_EQ(reopened.value()->Get(key).value(),
              key % 2 == 0 ? GroupValue(1, 0x40)
                           : GroupValue(1, static_cast<uint8_t>(key)))
        << key;
  }
  EXPECT_TRUE(reopened.value()->Get(1000).status().IsNotFound());
}

// A first checkpoint attaches every shard's log to the new generation at
// capture. When it fails before the commit, each of those logs extends a
// generation no recovery opens, so every shard must detach it, not only a
// shard whose own step failed.
TEST_F(PersistTest, ShardedFailedFirstCheckpointDetachesEveryShardLog) {
  auto store = TwoShardStore();
  BlockManifest(Path("ckpt"));
  EXPECT_FALSE(store->Checkpoint(Path("ckpt")).ok());
  for (size_t i = 0; i < store->num_shards(); ++i) {
    EXPECT_FALSE(store->shard(i).op_log_attached()) << "shard " << i;
  }
}

/// The generation the MANIFEST of checkpoint directory `dir` commits
/// (its one section: u64 shard count, u64 epoch, store options).
uint64_t ManifestEpoch(const std::string& dir) {
  auto manifest = persist::SnapshotReader::FromFile(
                      dir + "/" + ShardedPnwStore::kManifestName,
                      ShardedPnwStore::kManifestVersion)
                      .value();
  auto r = manifest.Section(1).value();
  uint64_t epoch = 0;
  EXPECT_TRUE(r.Skip(8).ok());
  EXPECT_TRUE(r.GetU64(&epoch).ok());
  return epoch;
}

/// The epoch stamped into a shard snapshot (its state section: u8
/// bootstrapped, u64 active buckets, u64 used buckets, u64 puts since the
/// last retrain, u64 epoch, ...).
uint64_t SnapshotEpoch(const std::string& path) {
  auto snap =
      persist::SnapshotReader::FromFile(path, PnwStore::kSnapshotVersion)
          .value();
  auto r = snap.Section(2).value();
  uint64_t epoch = 0;
  EXPECT_TRUE(r.Skip(1 + 3 * 8).ok());
  EXPECT_TRUE(r.GetU64(&epoch).ok());
  return epoch;
}

// A failed checkpoint and its retry, first for a store without logs and
// then for one logging into a committed generation: each retry commits a
// generation whose every shard snapshot and op-log carry the epoch its
// manifest names, and which recovers every write.
TEST_F(PersistTest, ShardedRetriedCheckpointStampsTheManifestEpoch) {
  auto store = TwoShardStore();
  for (uint64_t round = 0; round < 2; ++round) {
    for (uint64_t key = 10 * round; key < 10 * round + 10; ++key) {
      ASSERT_TRUE(store->Put(key, GroupValue(key % 2, 1)).ok());
    }
    BlockManifest(Path("ckpt"));
    EXPECT_FALSE(store->Checkpoint(Path("ckpt")).ok()) << round;
    UnblockManifest(Path("ckpt"));
    ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok()) << round;
    ASSERT_TRUE(store->Put(100 + round, GroupValue(1, 2)).ok());

    const uint64_t epoch = ManifestEpoch(Path("ckpt"));
    for (size_t i = 0; i < store->num_shards(); ++i) {
      EXPECT_EQ(SnapshotEpoch(ShardSnap(Path("ckpt"), epoch, i)), epoch)
          << "round " << round << " shard " << i;
      EXPECT_EQ(persist::ReadOpLog(ShardLog(Path("ckpt"), epoch, i))
                    .value()
                    .epoch,
                epoch)
          << "round " << round << " shard " << i;
    }
    auto reopened = ShardedPnwStore::Open(Path("ckpt"));
    ASSERT_TRUE(reopened.ok()) << reopened.status();
    EXPECT_EQ(reopened.value()->size(), store->size());
    EXPECT_TRUE(reopened.value()->Get(100 + round).ok());
  }
}

// ShardedPnwStore::TrainModel between two checkpoints: every shard logs its
// retrain, so each one reopens with the live retrain count and device
// bytes, including the PUTs the retrained model placed.
TEST_F(PersistTest, ShardedTrainModelReplaysOnEveryShard) {
  ShardedOptions options;
  options.num_shards = 2;
  options.store = SmallOptions();
  options.store.initial_buckets = 128;
  options.store.capacity_buckets = 128;
  auto store = ShardedPnwStore::Open(options).value();
  std::vector<uint64_t> keys(64);
  std::vector<std::vector<uint8_t>> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
    values[i] = GroupValue(0, static_cast<uint8_t>(i));
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  ASSERT_TRUE(store->Checkpoint(Path("ckpt")).ok());

  // Replace half the zone with the other value group, retrain on it, and
  // place more of both groups under the new models.
  for (uint64_t key = 0; key < 32; ++key) {
    ASSERT_TRUE(store->Delete(key).ok());
    ASSERT_TRUE(store->Put(1000 + key, GroupValue(1, static_cast<uint8_t>(key)))
                    .ok());
  }
  ASSERT_TRUE(store->TrainModel().ok());
  for (uint64_t key = 32; key < 48; ++key) {
    ASSERT_TRUE(store->Delete(key).ok());
    ASSERT_TRUE(
        store->Put(2000 + key, GroupValue(key % 2, static_cast<uint8_t>(key)))
            .ok());
  }

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  for (size_t i = 0; i < store->num_shards(); ++i) {
    PnwStore& live = store->shard(i);
    PnwStore& recovered = reopened.value()->shard(i);
    EXPECT_EQ(live.metrics().retrains, 2u) << "shard " << i;
    EXPECT_EQ(recovered.metrics().retrains, live.metrics().retrains)
        << "shard " << i;
    const auto got = recovered.device().Contents();
    const auto want = live.device().Contents();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << "shard " << i;
  }
}

// --- PR 5: batched op-log capture.

TEST_F(PersistTest, AppendBatchIsByteIdenticalToSingleAppends) {
  // A batch of N must leave exactly the bytes N single Appends leave --
  // same framing, same CRCs -- so recovery replays either identically.
  const std::vector<uint8_t> v1 = GroupValue(0, 1);
  const std::vector<uint8_t> v2 = GroupValue(1, 2);
  {
    auto single =
        persist::OpLogWriter::Open(Path("single.oplog"), 32, 7).value();
    ASSERT_TRUE(single->Append(persist::OpType::kPut, 10, v1).ok());
    ASSERT_TRUE(single->Append(persist::OpType::kUpdate, 11, v2).ok());
    ASSERT_TRUE(single->Append(persist::OpType::kDelete, 12, {}).ok());
  }
  {
    auto batched =
        persist::OpLogWriter::Open(Path("batched.oplog"), 32, 7).value();
    const std::vector<persist::OpLogEntry> entries = {
        {persist::OpType::kPut, 10, v1},
        {persist::OpType::kUpdate, 11, v2},
        {persist::OpType::kDelete, 12, {}},
    };
    ASSERT_TRUE(batched->AppendBatch(entries).ok());
    EXPECT_EQ(batched->appended(), 3u);
  }
  const auto single_bytes = persist::ReadFileBytes(Path("single.oplog"));
  const auto batched_bytes = persist::ReadFileBytes(Path("batched.oplog"));
  ASSERT_TRUE(single_bytes.ok());
  ASSERT_TRUE(batched_bytes.ok());
  EXPECT_EQ(single_bytes.value(), batched_bytes.value());
}

TEST_F(PersistTest, MultiPutBatchCaptureReplaysOnRecovery) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());

  // One MultiPut batch mixing fresh keys, an overwrite of a bootstrapped
  // key (endurance-first UPDATE), and an in-batch duplicate. Everything it
  // applies must come back from snapshot + group-appended log replay.
  const std::vector<uint64_t> keys = {100, 3, 101, 100};
  const std::vector<std::vector<uint8_t>> values = {
      GroupValue(0, 0x11), GroupValue(1, 0x22), GroupValue(0, 0x33),
      GroupValue(1, 0x44)};
  const auto statuses = store->MultiPut(keys, values);
  for (size_t i = 0; i < statuses.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "slot " << i;
  }
  // The group append captured one record per applied operation, already
  // flushed to the OS.
  auto log = persist::ReadOpLog(ShardLog(Path("ckpt")));
  ASSERT_TRUE(log.ok());
  EXPECT_EQ(log.value().records.size(), 4u);
  EXPECT_FALSE(log.value().tail_truncated);
  // Slot 0 inserted a fresh key (PUT); slot 3 overwrote it (UPDATE).
  EXPECT_EQ(log.value().records[0].op, persist::OpType::kPut);
  EXPECT_EQ(log.value().records[3].op, persist::OpType::kUpdate);
  EXPECT_GT(store->metrics().log_wall_ns, 0.0);

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->Get(100).value(), GroupValue(1, 0x44));
  EXPECT_EQ(reopened.value()->Get(3).value(), GroupValue(1, 0x22));
  EXPECT_EQ(reopened.value()->Get(101).value(), GroupValue(0, 0x33));
  EXPECT_EQ(reopened.value()->size(), store->size());
  EXPECT_EQ(reopened.value()->shard(0).device().counters().total_bits_written,
            store->device().counters().total_bits_written);
}

TEST_F(PersistTest, FailedEnduranceUpdateReplaysAsItsDelete) {
  // An endurance-first UPDATE is a DELETE then a PUT. When the PUT half's
  // payload write (the second device write, after the DELETE's flag clear)
  // fails, the key is gone from the live store, and recovery must agree,
  // both for a single op and for a slot of a MultiPut batch.
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  store->device().InjectWriteFaults(/*skip=*/1, /*count=*/1);
  EXPECT_TRUE(store->Update(3, GroupValue(0, 0x5a)).IsInternal());
  const std::vector<uint64_t> keys = {100, 4};
  const std::vector<std::vector<uint8_t>> values = {GroupValue(0, 0x11),
                                                    GroupValue(1, 0x22)};
  // Key 100 is a fresh PUT (payload and flag writes), so the fault lands on
  // key 4's payload write.
  store->device().InjectWriteFaults(/*skip=*/3, /*count=*/1);
  const auto statuses = store->MultiPut(keys, values);
  store->device().InjectWriteFaults(0, 0);
  ASSERT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsInternal()) << statuses[1];
  EXPECT_TRUE(store->Get(3).status().IsNotFound());
  EXPECT_TRUE(store->Get(4).status().IsNotFound());

  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_EQ(reopened.value()->size(), store->size());
  for (const uint64_t key : {uint64_t{3}, uint64_t{4}, uint64_t{5},
                             uint64_t{100}}) {
    const auto live = store->Get(key);
    const auto recovered = reopened.value()->Get(key);
    ASSERT_EQ(recovered.ok(), live.ok()) << key;
    if (live.ok()) {
      EXPECT_EQ(recovered.value(), live.value()) << key;
    } else {
      EXPECT_TRUE(recovered.status().IsNotFound()) << key;
    }
  }
}

TEST_F(PersistTest, LogWallTimeRoundTripsInSnapshot) {
  auto sharded = MakeBootstrappedStore(SmallOptions());
  PnwStore* store = &sharded->shard(0);
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  ASSERT_TRUE(store->Put(70, GroupValue(0, 9)).ok());
  ASSERT_GT(store->metrics().log_wall_ns, 0.0);
  // Re-checkpoint so the accrued log wall time lands in the snapshot.
  ASSERT_TRUE(sharded->Checkpoint(Path("ckpt")).ok());
  auto reopened = ShardedPnwStore::Open(Path("ckpt"));
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  EXPECT_DOUBLE_EQ(reopened.value()->shard(0).metrics().log_wall_ns,
                   store->metrics().log_wall_ns);
}

// FNV-1a of a field's name: a per-field value that moves with its entry.
// Shifted below 2^53 so double fields hold it exactly.
uint64_t NameValue(std::string_view name) {
  uint64_t h = 14695981039346656037ull;
  for (const char c : name) {
    h = (h ^ static_cast<uint8_t>(c)) * 1099511628211ull;
  }
  return h >> 11;
}

std::string Hex(std::span<const uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

TEST_F(PersistTest, StoreMetricsEncodingIsPinned) {
  // Every field (the unserialized gauges too) gets a value derived from
  // its name, so reordering, retyping or dropping a list entry changes
  // the bytes. The literal is the snapshot-v9 metrics encoding: files
  // written by any v9 build must keep decoding to the same counters.
  StoreMetrics m;
#define PNW_SET_FIELD(type, name) m.name = NameValue(#name);
  PNW_STORE_METRICS(PNW_SET_FIELD)
#undef PNW_SET_FIELD
  persist::BufferWriter w;
  persist::EncodeStoreMetrics(m, w);
  EXPECT_EQ(Hex(w.data()),
            "0cebc401a38e0d008ff53deefce40c00f3e0e9753f091a00ef1aaffa23fb0700"
            "1a6e6a4f87790900c68f04e083050b00378d409cbde40300c1b5585186750800"
            "574def7fe0eb1000fb6bbb1028d713003a334e3642541000df5b32ee15dc0500"
            "86ee66e5aa3f0600641b5ea839f123433cdeb0fffa173543d698a6ea86c32843"
            "a03b7f242281fa42a906be4dc5d53b436f9c6aec20081800c802f130f6850300"
            "cbe7ddf874fe1900a127e1e14aa215006f5a55f49da60a005d27d34d02880300"
            "2b411657cef91e00ab9efa7442363443");

  persist::BufferReader r(w.data());
  StoreMetrics decoded;
  ASSERT_TRUE(persist::DecodeStoreMetrics(r, &decoded).ok());
  EXPECT_EQ(r.remaining(), 0u);
  persist::BufferWriter again;
  persist::EncodeStoreMetrics(decoded, again);
  EXPECT_EQ(again.data(), w.data());
  // The gauges describe the decoding process, not the snapshot: they come
  // back zero.
#define PNW_EXPECT_ZERO(type, name) EXPECT_EQ(decoded.name, 0u) << #name;
  PNW_STORE_GAUGES(PNW_EXPECT_ZERO)
#undef PNW_EXPECT_ZERO
}

// --- Checksums: the same bytes under every kernel table.

/// n bytes of a fixed LCG stream seeded by `seed`.
std::vector<uint8_t> PatternBytes(size_t n, uint32_t seed) {
  std::vector<uint8_t> out(n);
  uint32_t x = seed;
  for (auto& byte : out) {
    x = x * 1103515245u + 12345u;
    byte = static_cast<uint8_t>(x >> 16);
  }
  return out;
}

TEST_F(PersistTest, ChecksummedBytesArePinnedUnderEveryIsa) {
  // Both literals were captured from a build whose CRC-32 was the
  // byte-at-a-time table. The op-log file (header + one record) has a
  // 99-byte record body: a 96-byte fold head plus a 3-byte tail on AVX2.
  constexpr std::string_view kOpLogHex =
      "504e574c4f47310a0700000000000000b5d754036300000000efcdab89674523"
      "01c67e816b4bfbe2fb54f6bddf7c1ce18701bf31de56720f4767668759aa883c"
      "59ea56137bd285a1d83c54552f37ae655bda027998cce31a768e5fd9998f1f3f"
      "36ee43784d0dfabea6dae4868edc296d4eff56e17020fb8fb15805";
  // One section per length class: empty, shorter than a word, just under
  // the fold's 64-byte minimum, exactly 64, and fold heads with tails.
  constexpr size_t kSectionLengths[] = {0, 3, 63, 64, 200, 4099};
  constexpr uint32_t kSectionCrcs[] = {0x00000000u, 0x5FD8C0F7u, 0x0A206BC9u,
                                       0xAE8353F8u, 0xC59A6083u, 0x714AB1BEu};
  for (const simd::Isa isa : simd::AvailableIsas()) {
    ASSERT_TRUE(simd::PinIsa(isa));
    const std::string name = simd::IsaName(isa);
    {
      auto writer =
          persist::OpLogWriter::Open(Path(name + ".oplog"), 1, 7).value();
      ASSERT_TRUE(writer
                      ->Append(persist::OpType::kPut, 0x0123456789abcdefull,
                               PatternBytes(90, 1))
                      .ok());
    }
    EXPECT_EQ(Hex(persist::ReadFileBytes(Path(name + ".oplog")).value()),
              kOpLogHex)
        << name;

    persist::SnapshotWriter snapshot(/*payload_version=*/1);
    for (uint32_t s = 0; s < std::size(kSectionLengths); ++s) {
      snapshot.AddSection(s).PutBytes(PatternBytes(kSectionLengths[s], s + 2));
    }
    ASSERT_TRUE(snapshot.WriteToFile(Path(name + ".snap")).ok());
    const auto bytes = persist::ReadFileBytes(Path(name + ".snap")).value();
    // Header: magic, container version, payload version, section count.
    // Each frame: id (u32), length (u64), crc (u32), then the payload.
    persist::BufferReader r(bytes);
    ASSERT_TRUE(r.Skip(16).ok());
    for (size_t s = 0; s < std::size(kSectionLengths); ++s) {
      uint32_t id = 0;
      uint64_t length = 0;
      uint32_t crc = 0;
      ASSERT_TRUE(r.GetU32(&id).ok());
      ASSERT_TRUE(r.GetU64(&length).ok());
      ASSERT_TRUE(r.GetU32(&crc).ok());
      EXPECT_EQ(crc, kSectionCrcs[s]) << name << " section " << s;
      ASSERT_TRUE(r.Skip(length).ok());
    }
  }
  simd::UnpinIsa();
}

TEST_F(PersistTest, SnapshotWrittenUnderOneIsaOpensUnderEveryIsa) {
  const auto isas = simd::AvailableIsas();
  for (const simd::Isa writer_isa : isas) {
    ASSERT_TRUE(simd::PinIsa(writer_isa));
    const std::string dir = Path(std::string(simd::IsaName(writer_isa)));
    auto store = MakeBootstrappedStore(SmallOptions());
    ASSERT_TRUE(store->Checkpoint(dir).ok());
    ASSERT_TRUE(store->Put(500, GroupValue(1, 5)).ok());  // one log record
    for (const simd::Isa reader_isa : isas) {
      ASSERT_TRUE(simd::PinIsa(reader_isa));
      auto reopened = ShardedPnwStore::Open(dir);
      ASSERT_TRUE(reopened.ok())
          << simd::IsaName(writer_isa) << " -> " << simd::IsaName(reader_isa)
          << ": " << reopened.status();
      EXPECT_EQ(reopened.value()->Get(500).value(), GroupValue(1, 5));
      EXPECT_EQ(reopened.value()->size(), store->size());
    }
  }
  simd::UnpinIsa();
}

}  // namespace
}  // namespace pnw::core
