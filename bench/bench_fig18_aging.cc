// Fig. 18 (repo extension, not in the paper): bucket-wear aging under
// skewed traffic. Fast-forwards a Zipfian update stream over a resident
// working set in latency-first (in-place update) mode -- the regime the
// paper's content-aware placement alone cannot level, because a hot key
// keeps hammering one bucket. Two cells:
//
//   disabled: the seed behaviour -- max bucket wear diverges with the skew.
//   enabled:  periodic hot-bucket migration -- max bucket wear stays within
//             a small factor of the mean.
//
// The bench exits nonzero unless the enabled cell's max bucket wear is at
// most half the disabled cell's, so bench_smoke gates the endurance claim
// on every run. --json=PATH emits the trajectory in the
// BENCH_micro_ops.json style.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/pnw_store.h"
#include "src/util/random.h"
#include "src/util/stats.h"

namespace {

constexpr size_t kValueBytes = 64;
constexpr size_t kTrajectoryPoints = 8;

// Two value families far apart in byte space (so K-means has real
// clusters), with a salt that flips a few bytes per update -- in-place
// rewrites must cost bit flips for wear to accrue.
std::vector<uint8_t> MakeValue(uint64_t key, uint64_t salt) {
  std::vector<uint8_t> value(kValueBytes);
  const uint64_t group = key % 2;
  for (size_t j = 0; j < kValueBytes; ++j) {
    uint8_t byte = static_cast<uint8_t>((group * 160 + j * 7) & 0xff);
    if (j % 5 == 0) {
      byte ^= static_cast<uint8_t>(salt & 0xff);
    }
    value[j] = byte;
  }
  return value;
}

struct AgingCell {
  std::vector<uint64_t> trajectory;  // max bucket wear over time
  uint64_t max_wear = 0;
  double mean_wear = 0.0;
  uint64_t migrations = 0;
  uint64_t bucket_writes = 0;
  uint64_t client_writes = 0;
};

AgingCell RunCell(bool endurance, size_t zone, size_t stream) {
  pnw::core::PnwOptions options;
  options.value_bytes = kValueBytes;
  options.initial_buckets = zone;
  options.capacity_buckets = zone;
  options.num_clusters = 4;
  options.max_features = kValueBytes;
  options.training_sample_cap = 256;
  options.update_mode = pnw::core::UpdateMode::kLatencyFirst;
  options.auto_retrain = false;
  if (endurance) {
    options.migration_hot_multiplier = 2.0;
    options.migration_min_writes = 8;
  }
  auto store = pnw::core::PnwStore::Open(options).value();

  // Warm the whole zone, then free the first half: the freed addresses are
  // the cold-destination supply the migrator draws from.
  std::vector<uint64_t> keys(zone);
  std::vector<std::vector<uint8_t>> warmup(zone);
  for (size_t i = 0; i < zone; ++i) {
    keys[i] = i;
    warmup[i] = MakeValue(i, 0);
  }
  pnw::AbortOnError(store->Bootstrap(keys, warmup), "bootstrap");
  for (uint64_t i = 0; i < zone / 2; ++i) {
    pnw::AbortOnError(store->Delete(i), "delete");
  }
  pnw::AbortOnError(store->TrainModel(), "train");
  store->ResetWearAndMetrics();

  // Zipfian updates over the resident half: rank 0 is the hottest key.
  pnw::Rng rng(1234);
  pnw::ZipfianGenerator zipf(zone / 2);
  const size_t sample_every = stream / kTrajectoryPoints;
  AgingCell cell;
  for (size_t i = 0; i < stream; ++i) {
    const uint64_t key = zone / 2 + zipf.Next(rng);
    pnw::AbortOnError(store->Put(key, MakeValue(key, i + 1)), "put");
    if (endurance && (i + 1) % 64 == 0) {
      pnw::AbortOnError(store->MigrateHotBuckets(8).status(),
                        "migration sweep");
    }
    if ((i + 1) % sample_every == 0) {
      cell.trajectory.push_back(store->wear_tracker().MaxBucketWrites());
    }
  }

  const auto& wear = store->wear_tracker();
  cell.max_wear = wear.MaxBucketWrites();
  cell.bucket_writes = wear.TotalBucketWrites();
  cell.mean_wear = static_cast<double>(cell.bucket_writes) /
                   static_cast<double>(zone);
  cell.migrations = store->metrics().migrations;
  cell.client_writes = store->metrics().puts;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = pnw::bench::JsonPathFromArgs(argc, argv);
  const size_t zone = pnw::bench::SmokeScaled(1024, 128);
  const size_t stream = zone * 16;
  std::printf("=== Fig. 18: bucket-wear aging, Zipfian(0.99) in-place "
              "updates (%zu buckets, %zu writes) ===\n", zone, stream);

  const AgingCell disabled = RunCell(false, zone, stream);
  const AgingCell enabled = RunCell(true, zone, stream);

  pnw::TablePrinter table({"writes", "max_wear (seed)",
                           "max_wear (migration)"});
  for (size_t p = 0; p < disabled.trajectory.size(); ++p) {
    table.AddRow({pnw::TablePrinter::Fmt(
                      static_cast<double>((p + 1) * (stream / 8)), 0),
                  pnw::TablePrinter::Fmt(
                      static_cast<double>(disabled.trajectory[p]), 0),
                  pnw::TablePrinter::Fmt(
                      static_cast<double>(enabled.trajectory[p]), 0)});
  }
  table.Print();
  std::printf(
      "seed:      max=%llu mean=%.1f (max/mean %.1fx)\n",
      static_cast<unsigned long long>(disabled.max_wear), disabled.mean_wear,
      static_cast<double>(disabled.max_wear) / disabled.mean_wear);
  std::printf(
      "endurance: max=%llu mean=%.1f (max/mean %.1fx)  migrations=%llu\n",
      static_cast<unsigned long long>(enabled.max_wear), enabled.mean_wear,
      static_cast<double>(enabled.max_wear) / enabled.mean_wear,
      static_cast<unsigned long long>(enabled.migrations));

  if (!json_path.empty()) {
    std::vector<pnw::bench::JsonMetric> metrics;
    metrics.push_back({"disabled/max_bucket_writes",
                       static_cast<double>(disabled.max_wear)});
    metrics.push_back({"disabled/mean_bucket_writes", disabled.mean_wear});
    metrics.push_back({"enabled/max_bucket_writes",
                       static_cast<double>(enabled.max_wear)});
    metrics.push_back({"enabled/mean_bucket_writes", enabled.mean_wear});
    metrics.push_back({"enabled/migrations",
                       static_cast<double>(enabled.migrations)});
    for (size_t p = 0; p < disabled.trajectory.size(); ++p) {
      const std::string writes = std::to_string((p + 1) * (stream / 8));
      metrics.push_back({"disabled/max_at_" + writes,
                         static_cast<double>(disabled.trajectory[p])});
      metrics.push_back({"enabled/max_at_" + writes,
                         static_cast<double>(enabled.trajectory[p])});
    }
    if (!pnw::bench::WriteJsonMetrics(json_path, "fig18_aging", metrics)) {
      return 1;
    }
  }

  // Gates: the endurance cell must actually exercise the machinery, keep
  // the device's own accounting consistent, and at least halve the seed's
  // max bucket wear -- bench_smoke fails the build otherwise.
  bool ok = true;
  if (enabled.migrations == 0) {
    std::printf("[MISMATCH] endurance cell idle: migrations=0\n");
    ok = false;
  }
  if (enabled.bucket_writes != enabled.client_writes + enabled.migrations) {
    std::printf("[MISMATCH] bucket writes %llu != client %llu + "
                "migrations %llu\n",
                static_cast<unsigned long long>(enabled.bucket_writes),
                static_cast<unsigned long long>(enabled.client_writes),
                static_cast<unsigned long long>(enabled.migrations));
    ok = false;
  }
  if (enabled.max_wear * 2 > disabled.max_wear) {
    std::printf("[MISMATCH] endurance max wear %llu not at most half the "
                "seed's %llu\n",
                static_cast<unsigned long long>(enabled.max_wear),
                static_cast<unsigned long long>(disabled.max_wear));
    ok = false;
  }
  if (ok) {
    std::printf("[ok] wear bounded: %llu vs %llu max bucket writes "
                "(%.1fx reduction)\n",
                static_cast<unsigned long long>(enabled.max_wear),
                static_cast<unsigned long long>(disabled.max_wear),
                static_cast<double>(disabled.max_wear) /
                    static_cast<double>(enabled.max_wear));
  }
  return ok ? 0 : 1;
}
