#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <numeric>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/util/bitvec.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/workloads/image_dataset.h"

namespace pnw::core {
namespace {

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

/// Bootstrap with two obvious content groups under keys 0..n-1.
std::unique_ptr<PnwStore> MakeBootstrappedStore(PnwOptions options,
                                                size_t n = 32) {
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys(n);
  std::vector<std::vector<uint8_t>> values(n);
  for (size_t i = 0; i < n; ++i) {
    keys[i] = i;
    values[i] = GroupValue(i % 2, static_cast<uint8_t>(i / 2));
  }
  EXPECT_TRUE(store->Bootstrap(keys, values).ok());
  return store;
}

TEST(PnwStoreTest, OpenValidatesOptions) {
  PnwOptions bad = SmallOptions();
  bad.value_bytes = 0;
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.capacity_buckets = 8;  // < initial_buckets
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.load_factor = 1.5;
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.num_clusters = size_t{1} << 32;  // wider than a label stamp
  EXPECT_TRUE(PnwStore::Open(bad).status().IsInvalidArgument());
}

TEST(PnwStoreTest, OpsRequireBootstrap) {
  auto store = PnwStore::Open(SmallOptions()).value();
  const std::vector<uint8_t> v(16, 0);
  EXPECT_TRUE(store->Put(1, v).IsFailedPrecondition());
  EXPECT_TRUE(store->Delete(1).IsFailedPrecondition());
}

TEST(PnwStoreTest, BootstrapTrainsModelAndIndexesKeys) {
  auto store = MakeBootstrappedStore(SmallOptions());
  EXPECT_NE(store->model(), nullptr);
  EXPECT_EQ(store->size(), 32u);
  auto value = store->Get(3);
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value.value(), GroupValue(1, 1));
}

TEST(PnwStoreTest, PutGetDeleteLifecycle) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const auto v = GroupValue(0, 0x55);
  ASSERT_TRUE(store->Put(100, v).ok());
  EXPECT_EQ(store->Get(100).value(), v);
  ASSERT_TRUE(store->Delete(100).ok());
  EXPECT_TRUE(store->Get(100).status().IsNotFound());
  EXPECT_TRUE(store->Delete(100).IsNotFound());
}

TEST(PnwStoreTest, ValueSizeValidated) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const std::vector<uint8_t> wrong(8, 0);
  EXPECT_TRUE(store->Put(100, wrong).IsInvalidArgument());
}

TEST(PnwStoreTest, PutOfExistingKeyActsAsUpdate) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const auto v1 = GroupValue(0, 1);
  const auto v2 = GroupValue(1, 2);
  ASSERT_TRUE(store->Put(200, v1).ok());
  ASSERT_TRUE(store->Put(200, v2).ok());
  EXPECT_EQ(store->Get(200).value(), v2);
  EXPECT_GE(store->metrics().updates, 1u);
}

TEST(PnwStoreTest, SimilarValueLandsOnSimilarResidue) {
  // Delete a group-0 key and a group-1 key, then put a group-0 value: the
  // model must steer it onto the freed group-0 bucket, flipping few bits.
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Delete(0).ok());  // group 0 residue freed
  ASSERT_TRUE(store->Delete(1).ok());  // group 1 residue freed
  ASSERT_TRUE(store->Put(300, GroupValue(0, 0x01)).ok());
  // 16-byte value over a same-group residue: only tweak bits + key bits
  // differ. Group mismatch would flip ~16*8=128 value bits.
  EXPECT_LT(store->metrics().put_bits_written, 60u);
  EXPECT_EQ(store->metrics().pool_fallbacks, 0u);
}

TEST(PnwStoreTest, EnduranceUpdateRelocates) {
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kEnduranceFirst;
  auto store = MakeBootstrappedStore(options);
  ASSERT_TRUE(store->Put(400, GroupValue(0, 3)).ok());
  ASSERT_TRUE(store->Update(400, GroupValue(1, 3)).ok());
  EXPECT_EQ(store->Get(400).value(), GroupValue(1, 3));
}

TEST(PnwStoreTest, LatencyFirstUpdateWritesInPlace) {
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kLatencyFirst;
  auto store = MakeBootstrappedStore(options);
  ASSERT_TRUE(store->Put(500, GroupValue(0, 1)).ok());
  const uint64_t deletes_before = store->metrics().deletes;
  ASSERT_TRUE(store->Update(500, GroupValue(0, 2)).ok());
  EXPECT_EQ(store->metrics().deletes, deletes_before);  // no delete+put
  EXPECT_EQ(store->Get(500).value(), GroupValue(0, 2));
}

TEST(PnwStoreTest, ExtendsDataZoneWhenLoadFactorCrossed) {
  PnwOptions options = SmallOptions();
  options.initial_buckets = 32;
  options.capacity_buckets = 128;
  options.load_factor = 0.75;
  auto store = MakeBootstrappedStore(options, 16);
  // Fill past the threshold: extension must kick in rather than failing.
  for (uint64_t k = 0; k < 60; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 7)).ok()) << k;
  }
  EXPECT_GT(store->active_buckets(), 32u);
  EXPECT_GE(store->metrics().extensions, 1u);
  EXPECT_EQ(store->size(), 16u + 60u);
}

TEST(PnwStoreTest, OutOfSpaceAtCapacity) {
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  // Every bucket is occupied and nothing was deleted.
  EXPECT_TRUE(
      store->Put(999, GroupValue(0, 1)).IsOutOfSpace());
}

TEST(PnwStoreTest, DeleteRecyclesAddressForReuse) {
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  ASSERT_TRUE(store->Delete(5).ok());
  EXPECT_TRUE(store->Put(999, GroupValue(1, 1)).ok());
}

TEST(PnwStoreTest, MetricsTrackOperations) {
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Put(600, GroupValue(0, 9)).ok());
  // status-dropped: only the metrics side effect matters here.
  (void)store->Get(600);
  ASSERT_TRUE(store->Delete(600).ok());
  const auto& m = store->metrics();
  EXPECT_EQ(m.puts, 1u);
  EXPECT_EQ(m.gets, 1u);
  EXPECT_EQ(m.deletes, 1u);
  EXPECT_GT(m.put_payload_bits, 0u);
  EXPECT_GT(m.put_device_ns, 0.0);
  EXPECT_GT(m.BitUpdatesPer512(), 0.0);
}

TEST(PnwStoreTest, GetMissCountsAsMissNotFailure) {
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  EXPECT_TRUE(store->Get(9999).status().IsNotFound());
  EXPECT_TRUE(store->Get(9998).status().IsNotFound());
  ASSERT_TRUE(store->Get(1).ok());
  const auto& m = store->metrics();
  EXPECT_EQ(m.gets, 1u);
  EXPECT_EQ(m.get_misses, 2u);
  // Misses are an expected workload outcome, not an operation failure:
  // failed_ops stays with the write path.
  EXPECT_EQ(m.failed_ops, 0u);
  // An index miss never touched the device, so no read time is charged.
  EXPECT_GT(m.get_device_ns, 0.0);  // the hit paid its bucket read
}

TEST(PnwStoreTest, KeyMismatchGetChargesDeviceAndCountsMiss) {
  // Corrupt the stored key bytes of key 0's bucket so the index points at
  // a bucket whose resident key no longer matches: the GET must surface
  // Internal, count a miss, and still charge the device read it performed.
  auto store = MakeBootstrappedStore(SmallOptions());
  store->ResetWearAndMetrics();
  const uint64_t wrong_key = 0xdeadbeefULL;
  std::vector<uint8_t> key_bytes(8);
  std::memcpy(key_bytes.data(), &wrong_key, 8);
  ASSERT_TRUE(
      store->device().WriteConventional(store->BucketAddr(0), key_bytes).ok());
  const auto got = store->Get(0);
  EXPECT_TRUE(got.status().IsInternal());
  const auto& m = store->metrics();
  EXPECT_EQ(m.gets, 0u);
  EXPECT_EQ(m.get_misses, 1u);
  EXPECT_GT(m.get_device_ns, 0.0);  // the mismatch path already paid the read

  // The lock-free read runs the same body: the same Internal, one more
  // miss, the same device charge, and no hit on either path.
  const double locked_ns = m.get_device_ns;
  const auto fast = store->TryGetOptimistic(0);
  ASSERT_TRUE(fast.has_value());
  EXPECT_TRUE(fast->status().IsInternal());
  EXPECT_EQ(m.get_misses, 2u);
  EXPECT_EQ(m.get_device_ns, 2 * locked_ns);
  EXPECT_EQ(m.optimistic_gets + m.locked_gets, 0u);
}

TEST(PnwStoreTest, IndexAddressOutsideTheZoneIsInternal) {
  // An NVM-resident index cell whose address lies past the data zone (a
  // damaged cell; a snapshot restores the index cells verbatim with the
  // device bytes): every operation that follows the index fails with
  // Internal instead of indexing the flag bitmap or the device past its
  // end, and the key stays indexed.
  for (const UpdateMode mode :
       {UpdateMode::kEnduranceFirst, UpdateMode::kLatencyFirst}) {
    PnwOptions options = SmallOptions();
    options.index_placement = IndexPlacement::kNvmPathHash;
    options.update_mode = mode;
    auto store = MakeBootstrappedStore(options);
    // The cell of key 5 holds [key | address of bucket 5 | flags]; it
    // lies past the data zone.
    const uint64_t key = 5;
    const uint64_t addr = store->BucketAddr(5);
    uint8_t cell[16];
    std::memcpy(cell, &key, 8);
    std::memcpy(cell + 8, &addr, 8);
    const auto contents = store->device().Contents();
    const auto zone_end = static_cast<ptrdiff_t>(
        store->BucketAddr(store->options().capacity_buckets));
    const auto found = std::search(contents.begin() + zone_end, contents.end(),
                                   std::begin(cell), std::end(cell));
    ASSERT_NE(found, contents.end());
    const uint64_t outside = uint64_t{1} << 30;
    std::vector<uint8_t> bytes(8);
    std::memcpy(bytes.data(), &outside, 8);
    ASSERT_TRUE(store->device()
                    .WriteConventional(
                        static_cast<uint64_t>(found - contents.begin()) + 8,
                        bytes)
                    .ok());
    EXPECT_TRUE(store->Get(key).status().IsInternal());
    EXPECT_TRUE(store->Update(key, GroupValue(1, 9)).IsInternal());
    EXPECT_TRUE(store->Delete(key).IsInternal());
    EXPECT_EQ(store->size(), 32u);
  }
}

// --- PR 5: the batched write path.

/// Every StoreMetrics counter but the measured wall-clock times.
void ExpectSameCounters(const StoreMetrics& got, const StoreMetrics& want) {
#define PNW_EXPECT_SAME_COUNTER(type, name)             \
  if (!std::string_view(#name).ends_with("_wall_ns")) { \
    EXPECT_EQ(got.name, want.name) << #name;            \
  }
  PNW_STORE_COUNTERS(PNW_EXPECT_SAME_COUNTER)
#undef PNW_EXPECT_SAME_COUNTER
}

bool SameDeviceBytes(PnwStore& a, PnwStore& b) {
  const auto x = a.device().Contents();
  const auto y = b.device().Contents();
  return std::equal(x.begin(), x.end(), y.begin(), y.end());
}

TEST(PnwStoreTest, MultiPutMatchesSequentialPutsExactly) {
  // The same (key, value) stream through MultiPut and through per-op Puts
  // must produce identical stores: same placements, same device wear, same
  // operation metrics. Batch prediction is the same model over the same
  // values, so placement is deterministic either way.
  auto batch_store = MakeBootstrappedStore(SmallOptions());
  auto serial_store = MakeBootstrappedStore(SmallOptions());

  std::vector<uint64_t> keys;
  std::vector<std::vector<uint8_t>> values;
  for (size_t i = 0; i < 20; ++i) {
    // Mix of fresh keys and overwrites of bootstrapped keys (upgrade to
    // endurance-first UPDATE), plus an in-batch duplicate below.
    keys.push_back(i % 3 == 0 ? i : 200 + i);
    values.push_back(GroupValue(static_cast<int>(i % 2),
                                static_cast<uint8_t>(40 + i)));
  }
  keys.push_back(keys[4]);  // duplicate within the batch -> second is UPDATE
  values.push_back(GroupValue(1, 0x77));

  const auto statuses = batch_store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), keys.size());
  for (size_t i = 0; i < statuses.size(); ++i) {
    EXPECT_TRUE(statuses[i].ok()) << "slot " << i;
    EXPECT_TRUE(serial_store->Put(keys[i], values[i]).ok()) << "slot " << i;
  }

  ExpectSameCounters(batch_store->metrics(), serial_store->metrics());
  EXPECT_TRUE(batch_store->metrics().PlacementAttributionConsistent());
  EXPECT_EQ(batch_store->device().counters().total_bits_written,
            serial_store->device().counters().total_bits_written);
  EXPECT_TRUE(SameDeviceBytes(*batch_store, *serial_store));
  for (size_t i = 0; i < keys.size(); ++i) {
    auto got = batch_store->Get(keys[i]);
    ASSERT_TRUE(got.ok());
    // The duplicate key's final value is the last slot's.
    if (keys[i] != keys[4] || i == keys.size() - 1) {
      EXPECT_EQ(got.value(), values[i]);
    }
  }
}

TEST(PnwStoreTest, MultiPutAcrossRetrainMatchesSequentialPuts) {
  // One batch crosses the load factor: the zone extends and a synchronous
  // retrain lands mid-batch. Every later slot must place under the new
  // model, exactly as the same Puts would -- a label predicted for the
  // whole batch up front goes stale at the retrain.
  PnwOptions options = SmallOptions();
  options.num_clusters = 4;
  const auto value = [](size_t group, size_t tweak) {
    static constexpr uint8_t kGroups[4] = {0x00, 0xff, 0x0f, 0xf0};
    std::vector<uint8_t> v(16, kGroups[group]);
    v[tweak % 16] ^= static_cast<uint8_t>(1 + tweak / 16);
    return v;
  };
  // 64 buckets from four content groups, half of them freed, retrained.
  const auto make_store = [&] {
    auto store = PnwStore::Open(options).value();
    std::vector<uint64_t> keys(64);
    std::vector<std::vector<uint8_t>> values(64);
    for (size_t i = 0; i < 64; ++i) {
      keys[i] = i;
      values[i] = value(i % 4, i);
    }
    EXPECT_TRUE(store->Bootstrap(keys, values).ok());
    for (uint64_t k = 0; k < 64; ++k) {
      if ((k / 4) % 2 == 0) {
        EXPECT_TRUE(store->Delete(k).ok());
      }
    }
    EXPECT_TRUE(store->TrainModel().ok());
    return store;
  };
  auto batch_store = make_store();
  auto serial_store = make_store();

  std::vector<uint64_t> keys;
  std::vector<std::vector<uint8_t>> values;
  for (size_t i = 0; i < 60; ++i) {
    keys.push_back(1000 + i);
    values.push_back(value(i % 4, 7 * i + 3));
  }
  const auto statuses = batch_store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(statuses[i].ok()) << "slot " << i;
    ASSERT_TRUE(serial_store->Put(keys[i], values[i]).ok()) << "slot " << i;
  }
  // The batch crossed the load factor (32 + 26 of 64 buckets used).
  ASSERT_EQ(serial_store->metrics().extensions, 1u);
  ExpectSameCounters(batch_store->metrics(), serial_store->metrics());
  EXPECT_TRUE(SameDeviceBytes(*batch_store, *serial_store));
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(batch_store->Get(keys[i]).value(), values[i]);
  }
}

TEST(PnwStoreTest, MultiPutSlotStatuses) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const std::vector<uint64_t> keys = {300, 301, 302};
  std::vector<std::vector<uint8_t>> values = {
      GroupValue(0, 1), std::vector<uint8_t>(7, 0xaa),  // wrong size
      GroupValue(1, 2)};
  const auto statuses = store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].IsInvalidArgument());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_TRUE(store->Get(300).ok());
  EXPECT_TRUE(store->Get(301).status().IsNotFound());
  EXPECT_TRUE(store->Get(302).ok());
}

TEST(PnwStoreTest, MultiPutSizeMismatchAndEmptyBatch) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const std::vector<uint64_t> keys = {1, 2};
  const std::vector<std::vector<uint8_t>> one_value = {GroupValue(0, 0)};
  const auto mismatched = store->MultiPut(keys, one_value);
  ASSERT_EQ(mismatched.size(), 2u);
  EXPECT_TRUE(mismatched[0].IsInvalidArgument());
  EXPECT_TRUE(store->MultiPut({}, std::span<const std::vector<uint8_t>>{})
                  .empty());
}

TEST(PnwStoreTest, MultiPutRequiresBootstrap) {
  auto store = PnwStore::Open(SmallOptions()).value();
  const std::vector<uint64_t> keys = {1};
  const std::vector<std::vector<uint8_t>> values = {GroupValue(0, 0)};
  const auto statuses = store->MultiPut(keys, values);
  ASSERT_EQ(statuses.size(), 1u);
  EXPECT_TRUE(statuses[0].IsFailedPrecondition());
}

TEST(PnwStoreTest, MultiPutFaultInjectionFailsSlotAndRollsBack) {
  auto store = MakeBootstrappedStore(SmallOptions());
  const size_t free_before = store->pool().FreeCount();
  // Fail the payload write of the second slot only (slot 1's first device
  // write); slots 0 and 2 must land normally and the acquired address of
  // slot 1 must return to the pool.
  store->device().InjectWriteFaults(/*skip=*/3, /*count=*/1);
  const std::vector<uint64_t> keys = {400, 401, 402};
  const std::vector<std::vector<uint8_t>> values = {
      GroupValue(0, 3), GroupValue(0, 4), GroupValue(1, 5)};
  const auto statuses = store->MultiPut(keys, values);
  store->device().InjectWriteFaults(0, 0);
  ASSERT_EQ(statuses.size(), 3u);
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_FALSE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_EQ(store->metrics().failed_ops, 1u);
  EXPECT_TRUE(store->Get(401).status().IsNotFound());
  // Two slots consumed a free address; the failed one was reinserted.
  EXPECT_EQ(store->pool().FreeCount(), free_before - 2);
  EXPECT_TRUE(store->metrics().PlacementAttributionConsistent());
}

TEST(PnwStoreTest, NvmIndexPlacementChargesIndexWrites) {
  PnwOptions dram = SmallOptions();
  PnwOptions nvm_index = SmallOptions();
  nvm_index.index_placement = IndexPlacement::kNvmPathHash;
  auto store_dram = MakeBootstrappedStore(dram);
  auto store_nvm = MakeBootstrappedStore(nvm_index);
  store_dram->ResetWearAndMetrics();
  store_nvm->ResetWearAndMetrics();
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(store_dram->Delete(k).ok());
    ASSERT_TRUE(store_dram->Put(800 + k, GroupValue(k % 2, 5)).ok());
    ASSERT_TRUE(store_nvm->Delete(k).ok());
    ASSERT_TRUE(store_nvm->Put(800 + k, GroupValue(k % 2, 5)).ok());
  }
  // The paper's "worst case" setup pays index write amplification in PCM.
  EXPECT_GT(store_nvm->metrics().put_bits_written,
            store_dram->metrics().put_bits_written);
}

TEST(PnwStoreTest, PlacementsAttributedToModelWhenTrained) {
  auto store = MakeBootstrappedStore(SmallOptions());
  ASSERT_NE(store->model(), nullptr);
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 3)).ok());
  }
  const auto& m = store->metrics();
  // Every placement went through the trained model; none fell back to the
  // model-less DCW path.
  EXPECT_EQ(m.predicted_placements, 8u);
  EXPECT_EQ(m.fallback_placements, 0u);
}

TEST(PnwStoreTest, ModelLessStoreCountsFallbackPlacements) {
  // The state a store lands in when its bootstrap model never trains
  // (train_on_bootstrap=false models a bootstrap-time training failure):
  // it serves DCW placements, and the metrics must say so instead of
  // letting the operator read DCW numbers as PNW numbers.
  PnwOptions options = SmallOptions();
  options.train_on_bootstrap = false;
  options.auto_retrain = false;
  auto store = MakeBootstrappedStore(options);
  ASSERT_EQ(store->model(), nullptr);
  for (uint64_t k = 0; k < 8; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 3)).ok());
  }
  EXPECT_EQ(store->metrics().predicted_placements, 0u);
  EXPECT_EQ(store->metrics().fallback_placements, 8u);
  EXPECT_EQ(store->metrics().predict_wall_ns, 0.0);

  // TrainModel() recovers the store into predicted placements.
  ASSERT_TRUE(store->TrainModel().ok());
  ASSERT_NE(store->model(), nullptr);
  ASSERT_TRUE(store->Put(2000, GroupValue(0, 4)).ok());
  EXPECT_EQ(store->metrics().predicted_placements, 1u);
  EXPECT_EQ(store->metrics().fallback_placements, 8u);
}

// -------------------------------------------- failure-path accounting

TEST(PnwStoreTest, FailedPutPayloadWriteReinsertsAcquiredAddress) {
  // Regression: a PUT whose payload write fails used to leak the acquired
  // address out of the pool forever (and never count as a failed op).
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  ASSERT_TRUE(store->Delete(5).ok());  // the only free address
  const size_t free_before = store->pool().FreeCount();
  ASSERT_EQ(free_before, 1u);

  store->device().InjectWriteFaults(/*skip=*/0, /*count=*/1);
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).IsInternal());
  EXPECT_EQ(store->metrics().failed_ops, 1u);
  EXPECT_EQ(store->pool().FreeCount(), free_before);
  EXPECT_TRUE(store->Get(999).status().IsNotFound());
  EXPECT_TRUE(store->metrics().PlacementAttributionConsistent());

  // Without the reinsert this Put would OutOfSpace: the one free address
  // would have leaked with every bucket flagged occupied.
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).ok());
  EXPECT_EQ(store->Get(999).value(), GroupValue(0, 1));
}

TEST(PnwStoreTest, FailedPutFlagWriteRollsBackAndReinserts) {
  // Same leak via the second write of the PUT sequence (the occupancy-flag
  // bit): the payload landed, so the address must be reinserted under the
  // label of the *new* resident bits and the flag must stay clear.
  PnwOptions options = SmallOptions();
  options.initial_buckets = 16;
  options.capacity_buckets = 16;
  auto store = MakeBootstrappedStore(options, 16);
  ASSERT_TRUE(store->Delete(5).ok());
  const size_t free_before = store->pool().FreeCount();

  store->device().InjectWriteFaults(/*skip=*/1, /*count=*/1);
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).IsInternal());
  EXPECT_EQ(store->metrics().failed_ops, 1u);
  EXPECT_EQ(store->pool().FreeCount(), free_before);
  EXPECT_TRUE(store->Get(999).status().IsNotFound());

  // The address is still placeable and the store fully recovers.
  EXPECT_TRUE(store->Put(999, GroupValue(0, 1)).ok());
  EXPECT_EQ(store->size(), 16u);
}

TEST(PnwStoreTest, FailedDeleteLeavesTheKeyInPlace) {
  // Regression: a DELETE whose occupancy-flag write failed had already
  // dropped the index entry, so the key read NotFound while its bucket
  // stayed flagged and out of the pool for good. The NVM path-hash index
  // writes its cell first, so there the flag write is the second write.
  struct Case {
    IndexPlacement placement;
    uint64_t writes_before_flag;
  };
  for (const Case c : {Case{IndexPlacement::kDram, 0},
                       Case{IndexPlacement::kNvmPathHash, 1}}) {
    SCOPED_TRACE(c.placement == IndexPlacement::kDram ? "dram" : "nvm");
    PnwOptions options = SmallOptions();
    options.index_placement = c.placement;
    options.occupancy_flags_on_nvm = true;
    auto store = MakeBootstrappedStore(options, 16);
    const size_t free_before = store->pool().FreeCount();

    store->device().InjectWriteFaults(c.writes_before_flag, /*count=*/1);
    EXPECT_TRUE(store->Delete(5).IsInternal());
    store->device().InjectWriteFaults(0, 0);
    EXPECT_EQ(store->Get(5).value(), GroupValue(1, 2));
    EXPECT_EQ(store->size(), 16u);
    EXPECT_EQ(store->pool().FreeCount(), free_before);

    // A retried DELETE frees the bucket.
    ASSERT_TRUE(store->Delete(5).ok());
    EXPECT_TRUE(store->Get(5).status().IsNotFound());
    EXPECT_EQ(store->size(), 15u);
    EXPECT_EQ(store->pool().FreeCount(), free_before + 1);
  }
}

TEST(PnwStoreTest, InPlaceUpdateKeepsAttributionInvariant) {
  // Regression: latency-first updates bumped `puts` without landing in
  // either placement bucket, breaking predicted + fallback (+ inplace)
  // == puts.
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kLatencyFirst;
  auto store = MakeBootstrappedStore(options);
  store->ResetWearAndMetrics();
  ASSERT_TRUE(store->Put(500, GroupValue(0, 1)).ok());
  ASSERT_TRUE(store->Update(500, GroupValue(0, 2)).ok());
  ASSERT_TRUE(store->Update(500, GroupValue(1, 3)).ok());
  const auto& m = store->metrics();
  EXPECT_EQ(m.puts, 3u);
  EXPECT_EQ(m.inplace_updates, 2u);
  EXPECT_EQ(m.predicted_placements, 1u);
  EXPECT_EQ(m.fallback_placements, 0u);
  EXPECT_TRUE(m.PlacementAttributionConsistent());
}

TEST(PnwStoreTest, AttributionInvariantHoldsAcrossMixedTraffic) {
  for (UpdateMode mode :
       {UpdateMode::kEnduranceFirst, UpdateMode::kLatencyFirst}) {
    PnwOptions options = SmallOptions();
    options.update_mode = mode;
    auto store = MakeBootstrappedStore(options);
    for (uint64_t k = 0; k < 24; ++k) {
      ASSERT_TRUE(store->Put(1000 + (k % 8), GroupValue(k % 2, 2)).ok());
      if (k % 5 == 0) {
        ASSERT_TRUE(store->Delete(k / 5).ok());
      }
      // status-dropped: only the metrics side effect matters here.
      (void)store->Get(1000 + (k % 8));
    }
    EXPECT_TRUE(store->metrics().PlacementAttributionConsistent())
        << store->metrics().ToString();
  }
}

TEST(PnwStoreTest, ResetWearAndMetricsClearsRetrainPacing) {
  // Regression: puts_since_retrain_ survived the reset, so a post-warm-up
  // bench inherited the warm-up's retrain pacing.
  auto store = MakeBootstrappedStore(SmallOptions());
  for (uint64_t k = 0; k < 6; ++k) {
    ASSERT_TRUE(store->Put(1000 + k, GroupValue(k % 2, 1)).ok());
  }
  EXPECT_EQ(store->puts_since_retrain(), 6u);
  store->ResetWearAndMetrics();
  EXPECT_EQ(store->puts_since_retrain(), 0u);
}

// ------------------------------------------------------- Table II example

PnwOptions EnduranceOptions() {
  PnwOptions options = SmallOptions();
  options.update_mode = UpdateMode::kLatencyFirst;  // in-place: buckets run hot
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  return options;
}

TEST(PnwStoreTest, MigrateHotBucketsRelocatesAndReconciles) {
  auto store = MakeBootstrappedStore(EnduranceOptions());
  // Concentrate writes on a handful of keys: their buckets blow past the
  // hot threshold while the rest of the zone stays cold.
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  const uint32_t hottest_before = store->wear_tracker().MaxBucketWrites();
  ASSERT_GE(hottest_before, 16u);
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_GT(migrated.value(), 0u);
  EXPECT_EQ(store->metrics().migrations, migrated.value());
  // The hot keys moved to cold addresses and still serve their values.
  for (uint64_t key = 0; key < 4; ++key) {
    EXPECT_EQ(store->Get(key).value(), GroupValue(key % 2, 15));
  }
  // Accounting invariant of the endurance layer: every bucket write is a
  // client placement or a migration copy.
  EXPECT_EQ(store->wear_tracker().TotalBucketWrites(),
            store->metrics().puts + store->metrics().migrations);
}

TEST(PnwStoreTest, MigrationRequiresKeysInDataZone) {
  PnwOptions options = EnduranceOptions();
  options.store_keys_in_data_zone = false;
  auto store = MakeBootstrappedStore(options);
  EXPECT_TRUE(store->MigrateHotBuckets(4).status().IsFailedPrecondition());
}

TEST(PnwStoreTest, MigrationSkipsWhenNoColderDestination) {
  // A store with zero free addresses has nowhere to relocate to: the pass
  // must report 0 moved buckets and leave no trace (no metrics, no pool
  // mutation) -- the property replay determinism rests on.
  PnwOptions options = EnduranceOptions();
  options.initial_buckets = 32;
  options.capacity_buckets = 32;
  options.load_factor = 1.0;
  options.auto_retrain = false;
  auto store = MakeBootstrappedStore(options, /*n=*/32);
  for (int round = 0; round < 8; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  ASSERT_EQ(store->pool().FreeCount(), 0u);
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_EQ(migrated.value(), 0u);
  EXPECT_EQ(store->metrics().migrations, 0u);
}

TEST(PnwStoreTest, FailedMigrationCopyRollsBackDestination) {
  // The relocation's destination write fails: the acquired destination
  // must go back to the pool, and the source must stay resident.
  auto store = MakeBootstrappedStore(EnduranceOptions());
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  const size_t free_before = store->pool().FreeCount();
  const uint64_t failed_before = store->metrics().failed_ops;
  const auto before = store->device().Contents();
  const std::vector<uint8_t> contents_before(before.begin(), before.end());

  store->device().InjectWriteFaults(/*skip=*/0, /*count=*/1);
  EXPECT_TRUE(store->MigrateHotBuckets(8).status().IsInternal());
  store->device().InjectWriteFaults(0, 0);
  EXPECT_EQ(store->metrics().failed_ops, failed_before + 1);
  EXPECT_EQ(store->metrics().migrations, 0u);
  EXPECT_EQ(store->pool().FreeCount(), free_before);
  // The device -- data zone and the NVM occupancy bitmap alike -- is
  // byte-for-byte what it was.
  const auto after = store->device().Contents();
  EXPECT_TRUE(std::equal(after.begin(), after.end(), contents_before.begin(),
                         contents_before.end()));
  for (uint64_t key = 0; key < 4; ++key) {
    EXPECT_EQ(store->Get(key).value(), GroupValue(key % 2, 15));
  }
  // The returned destination is usable: a retried pass relocates.
  auto migrated = store->MigrateHotBuckets(8);
  ASSERT_TRUE(migrated.ok()) << migrated.status();
  EXPECT_GT(migrated.value(), 0u);
}

TEST(PnwStoreTest, FailedMigrationFlagClearKeepsKeyOnSource) {
  // The destination is written and indexed, then clearing the source's
  // occupancy flag fails. The rollback returns the destination to the
  // pool, so the index must name the source again: otherwise the next PUT
  // that pops the destination overwrites the key.
  auto store = MakeBootstrappedStore(EnduranceOptions());
  for (int round = 0; round < 16; ++round) {
    for (uint64_t key = 0; key < 4; ++key) {
      ASSERT_TRUE(
          store->Update(key, GroupValue(key % 2, static_cast<uint8_t>(round)))
              .ok());
    }
  }
  const uint64_t failed_before = store->metrics().failed_ops;
  // A relocation writes the destination bucket, the destination's flag,
  // then the source's flag: the third write fails.
  store->device().InjectWriteFaults(/*skip=*/2, /*count=*/1);
  EXPECT_TRUE(store->MigrateHotBuckets(1).status().IsInternal());
  store->device().InjectWriteFaults(0, 0);
  EXPECT_EQ(store->metrics().failed_ops, failed_before + 1);
  EXPECT_EQ(store->metrics().migrations, 0u);
  // Fresh PUTs from both groups take the free addresses, the returned
  // destination among them.
  for (uint64_t key = 100; key < 132; ++key) {
    ASSERT_TRUE(store->Put(key, GroupValue(key % 2, 0x5a)).ok());
  }
  for (uint64_t key = 0; key < 4; ++key) {
    const auto got = store->Get(key);
    ASSERT_TRUE(got.ok()) << "key " << key << ": " << got.status();
    EXPECT_EQ(got.value(), GroupValue(key % 2, 15));
  }
}

TEST(PnwStoreTest, Table2WorkedExample) {
  // The paper's Table II: six 8-bit locations in three natural groups.
  // After clustering with k=3, writing d1=00001111 and d2=11110000 must
  // land each on its closest group, flipping exactly 1 data bit each.
  const char* contents[6] = {
      "00000111",  // index 0, cluster {0,1}
      "00001011",  // index 1
      "00101100",  // index 2, cluster {2,3}
      "00111100",  // index 3
      "11010000",  // index 4, cluster {4,5}
      "01110000",  // index 5
  };
  PnwOptions options;
  options.value_bytes = 1;
  options.initial_buckets = 6;
  options.capacity_buckets = 6;
  options.num_clusters = 3;
  options.max_features = 0;
  options.training_sample_cap = 6;
  options.seed = 13;
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys = {0, 1, 2, 3, 4, 5};
  std::vector<std::vector<uint8_t>> values;
  for (const char* c : contents) {
    pnw::BitVector bv = pnw::BitVector::FromString(c);
    values.push_back({bv.bytes()[0]});
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());

  // d1 is Hamming-close to cluster {0,1}; d2 to cluster {4,5}.
  const uint8_t d1 = pnw::BitVector::FromString("00001111").bytes()[0];
  const uint8_t d2 = pnw::BitVector::FromString("11110000").bytes()[0];

  // Free one location from each group, then write d1 and d2.
  ASSERT_TRUE(store->Delete(1).ok());  // frees 00001011 (d1's group)
  ASSERT_TRUE(store->Delete(3).ok());  // frees 00111100
  ASSERT_TRUE(store->Delete(5).ok());  // frees 01110000 (d2's group)
  store->ResetWearAndMetrics();

  const std::vector<uint8_t> d1_value = {d1};
  const std::vector<uint8_t> d2_value = {d2};
  ASSERT_TRUE(store->Put(10, d1_value).ok());
  const uint64_t d1_bits = store->metrics().put_bits_written;
  ASSERT_TRUE(store->Put(11, d2_value).ok());
  const uint64_t d2_bits = store->metrics().put_bits_written - d1_bits;

  // Value-bit cost must be tiny (the paper's worked example: 1 data bit per
  // item, plus our key/flag overhead). A pool fallback is permitted --
  // k-means on 6 points does not always match the paper's hand grouping --
  // but the Hamming-nearest placement property must still bound the cost.
  EXPECT_LE(d1_bits, 2u + 16u);  // <=2 value bits + key/flag bits
  EXPECT_LE(d2_bits, 2u + 16u);
  EXPECT_EQ(store->Get(10).value()[0], d1);
  EXPECT_EQ(store->Get(11).value()[0], d2);
}

// --- Label stamps: a DELETE files its bucket under the label the PUT
// predicted, and that must be invisible to the pool.

/// A 16-byte value of one of four content groups that lie far apart in
/// Hamming distance, made distinct within its group by `tweak`.
std::vector<uint8_t> QuadValue(size_t group, size_t tweak) {
  static constexpr uint8_t kGroups[4] = {0x00, 0xff, 0x0f, 0xf0};
  std::vector<uint8_t> v(16, kGroups[group]);
  v[tweak % 16] ^= static_cast<uint8_t>(1 + tweak / 16);
  return v;
}

/// Every free address sits in the cluster the served model predicts for
/// the value resident at it, and the pool holds every unoccupied bucket.
void ExpectPoolLabelsMatchModel(PnwStore& store, const char* step) {
  SCOPED_TRACE(step);
  const auto model = store.model();
  const size_t key_bytes = store.bucket_bytes() - store.options().value_bytes;
  for (size_t c = 0; c < store.pool().num_clusters(); ++c) {
    for (const uint64_t addr : store.pool().FreeList(c)) {
      const size_t bucket = addr / store.bucket_bytes();
      const auto value = store.device().Peek(
          store.BucketAddr(bucket) + key_bytes,
          store.options().value_bytes);
      EXPECT_EQ(c, model->Predict(value)) << "bucket " << bucket;
    }
  }
  EXPECT_EQ(store.pool().FreeCount(), store.active_buckets() - store.size());
}

/// Whether `after` labels some of `values` differently from `before`: only
/// then can a stale stamp be told from a current one.
bool Relabels(const ValueModel& before, const ValueModel& after,
              const std::vector<std::vector<uint8_t>>& values) {
  return std::any_of(values.begin(), values.end(), [&](const auto& v) {
    return before.Predict(v) != after.Predict(v);
  });
}

TEST(PnwStoreTest, DeleteFilesUnderTheLabelTheModelPredicts) {
  PnwOptions options = SmallOptions();
  options.num_clusters = 4;
  options.initial_buckets = 32;
  options.capacity_buckets = 128;
  options.update_mode = UpdateMode::kLatencyFirst;
  options.migration_min_writes = 4;
  options.migration_hot_multiplier = 2.0;
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys(32);
  std::vector<std::vector<uint8_t>> values(32);
  for (size_t i = 0; i < 32; ++i) {
    keys[i] = i;
    values[i] = QuadValue(i % 4, i);
  }
  ASSERT_TRUE(store->Bootstrap(keys, values).ok());
  std::map<uint64_t, std::vector<uint8_t>> live;
  for (size_t i = 0; i < 32; ++i) {
    live[i] = values[i];
  }
  uint64_t next_key = 100;
  const auto put = [&](size_t group) {
    const uint64_t key = next_key++;
    live[key] = QuadValue(group, key);
    EXPECT_TRUE(store->Put(key, live[key]).ok()) << key;
    return key;
  };
  const auto del = [&](uint64_t key) {
    EXPECT_TRUE(store->Delete(key).ok()) << key;
    live.erase(key);
  };
  const auto live_values = [&] {
    std::vector<std::vector<uint8_t>> out;
    for (const auto& [key, value] : live) {
      out.push_back(value);
    }
    return out;
  };

  // A PUT into the full zone: its predicted cluster and the whole pool are
  // empty, so its retry extends the zone and retrains between the predict
  // and the write. Its stamp must be stale by the time it is deleted.
  {
    const auto before = store->model();
    const uint64_t key = put(1);
    ASSERT_EQ(store->metrics().extensions, 1u);
    ASSERT_EQ(store->metrics().retrains, 2u);
    EXPECT_TRUE(Relabels(*before, *store->model(), {live[key]}));
    del(key);
    ExpectPoolLabelsMatchModel(*store, "full-zone PUT, then its DELETE");
  }

  // A PUT/DELETE stream: DELETEs of bootstrapped keys (no stamp) and of
  // streamed ones (stamped by their PUT).
  for (size_t i = 0; i < 16; ++i) {
    put(i % 4);
    if (i % 2 == 1) {
      del(i < 8 ? i : next_key - 2);
    }
  }
  ExpectPoolLabelsMatchModel(*store, "PUT/DELETE stream");

  // A synchronous retrain, then DELETEs of keys stamped before it.
  {
    const auto before = store->model();
    ASSERT_TRUE(store->TrainModel().ok());
    EXPECT_TRUE(Relabels(*before, *store->model(), live_values()));
    for (size_t i = 0; i < 4; ++i) {
      del(std::prev(live.end())->first);
    }
    ExpectPoolLabelsMatchModel(*store, "synchronous retrain");
  }
  for (size_t i = 0; i < 8; ++i) {
    put(i % 4);
  }

  // A latency-first UPDATE rewrites the bytes the PUT's label came from.
  {
    const uint64_t key = put(2);
    live[key] = QuadValue(3, key);
    ASSERT_TRUE(store->Update(key, live[key]).ok());
    ASSERT_NE(store->model()->Predict(QuadValue(2, key)),
              store->model()->Predict(live[key]));
    del(key);
    ExpectPoolLabelsMatchModel(*store, "in-place UPDATE, then its DELETE");
  }

  // A migration pass. The hot bucket's last write is a PUT, so its stamp
  // is current: the source is filed by it and the destination inherits it.
  {
    const uint64_t hot = put(1);
    for (size_t round = 0; round < 8; ++round) {
      live[hot] = QuadValue(1, hot + round);
      ASSERT_TRUE(store->Update(hot, live[hot]).ok());
    }
    del(hot);
    const uint64_t moved = put(1);  // pops the hot bucket just freed
    auto migrated = store->MigrateHotBuckets(8);
    ASSERT_TRUE(migrated.ok()) << migrated.status();
    ASSERT_GT(migrated.value(), 0u);
    ExpectPoolLabelsMatchModel(*store, "migration pass");
    del(moved);
    ExpectPoolLabelsMatchModel(*store, "DELETE of a migrated key");
  }

  // A failed Place: group 1's cluster is emptied, every other cluster's
  // newest address is a stamped bucket a DELETE just freed, and the
  // payload of a group-1 PUT lands on one of those before its flag write
  // fails. The rollback must file the bucket by its new bytes.
  {
    const size_t cluster = store->model()->Predict(QuadValue(1, 0));
    const size_t to_empty = store->pool().FreeCount(cluster);
    for (size_t i = 0; i < to_empty; ++i) {
      put(1);
    }
    ASSERT_EQ(store->pool().FreeCount(cluster), 0u);
    for (size_t group : {0, 2, 3}) {
      del(put(group));
    }
    const uint64_t fallbacks = store->metrics().pool_fallbacks;
    store->device().InjectWriteFaults(/*skip=*/1, /*count=*/1);
    EXPECT_TRUE(store->Put(next_key++, QuadValue(1, 7)).IsInternal());
    store->device().InjectWriteFaults(0, 0);
    ASSERT_EQ(store->metrics().pool_fallbacks, fallbacks + 1);
    ExpectPoolLabelsMatchModel(*store, "failed Place rolled back");
  }

  for (const auto& [key, value] : live) {
    EXPECT_EQ(store->Get(key).value(), value) << key;
  }
  EXPECT_TRUE(store->metrics().PlacementAttributionConsistent());
}

/// What one replay leaves behind: the store's ledger, the per-bucket
/// wear, every free list in pop order, and the device bytes.
struct ReplayOutcome {
  StoreMetrics metrics;
  std::vector<uint32_t> bucket_wear;
  std::vector<std::vector<uint64_t>> free_lists;
  std::vector<uint8_t> contents;
};

/// A small paper_replace-shaped stream under the active kernel table:
/// CIFAR-like 3072-byte images, K = 10 over 8 PCA components of 256
/// folded bit features, value-only accounting, 1 Ki buckets. Bootstrap
/// fills every bucket, half the keys are deleted and the model retrained,
/// then each round PUTs a new image over a free key and DELETEs the oldest
/// live one (Algorithm 3 predicts again), two turnovers in all.
ReplayOutcome ReplayImageStream() {
  constexpr size_t kBuckets = 1024;
  workloads::ImageDatasetOptions data;
  data.profile = workloads::ImageProfile::kCifar;
  data.num_old = kBuckets;
  data.num_new = kBuckets / 2;
  const workloads::Dataset ds = workloads::GenerateImages(data);

  PnwOptions options;
  options.value_bytes = ds.value_bytes;
  options.initial_buckets = kBuckets;
  options.capacity_buckets = kBuckets;
  options.num_clusters = 10;
  options.max_features = 256;
  options.pca_components = 8;
  options.store_keys_in_data_zone = false;
  options.occupancy_flags_on_nvm = false;
  auto store = PnwStore::Open(options).value();
  std::vector<uint64_t> keys(kBuckets);
  std::iota(keys.begin(), keys.end(), 0);
  EXPECT_TRUE(store->Bootstrap(keys, ds.old_data).ok());
  for (uint64_t k = 0; k < kBuckets / 2; ++k) {
    EXPECT_TRUE(store->Delete(k).ok());
  }
  EXPECT_TRUE(store->TrainModel().ok());
  store->ResetWearAndMetrics();
  for (size_t i = 0; i < kBuckets; ++i) {
    EXPECT_TRUE(
        store->Put(i, ds.new_data[i % ds.new_data.size()]).ok());
    EXPECT_TRUE(store->Delete((kBuckets / 2 + i) % kBuckets).ok());
  }
  std::vector<std::vector<uint64_t>> free_lists;
  for (size_t c = 0; c < store->pool().num_clusters(); ++c) {
    free_lists.push_back(store->pool().FreeList(c));
  }
  const auto contents = store->device().Contents();
  return {store->metrics(), store->wear_tracker().bucket_write_counts(),
          std::move(free_lists),
          std::vector<uint8_t>(contents.begin(), contents.end())};
}

TEST(PnwStoreTest, PlacementAndWearIdenticalAcrossIsas) {
  ASSERT_TRUE(simd::PinIsa(simd::Isa::kScalar));
  const ReplayOutcome want = ReplayImageStream();
  // The stream exercises the model and the differential write.
  EXPECT_EQ(want.metrics.predicted_placements, 1024u);
  EXPECT_GT(want.metrics.put_words_written, 0u);
  for (const simd::Isa isa : simd::AvailableIsas()) {
    ASSERT_TRUE(simd::PinIsa(isa));
    SCOPED_TRACE(simd::IsaName(isa));
    const ReplayOutcome got = ReplayImageStream();
    ExpectSameCounters(got.metrics, want.metrics);
    EXPECT_EQ(got.bucket_wear, want.bucket_wear);
    EXPECT_EQ(got.free_lists, want.free_lists);
    EXPECT_TRUE(got.contents == want.contents);
  }
  simd::UnpinIsa();
}

}  // namespace
}  // namespace pnw::core
