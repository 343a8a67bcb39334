// Beyond the paper ("Fig. 15"): durability cost of the persistence
// subsystem. Sweeps the record count and measures, per store size:
//   - checkpoint wall time and snapshot size on disk,
//   - recovery wall time from the snapshot alone (PnwStore::Open with
//     replay disabled) and with an op-log of records/8 updates replayed.
// Expected trend: checkpoint size and snapshot-open time scale roughly
// linearly with the record count; replay adds time proportional to the
// log length (so checkpoint cadence bounds it). Recovery brings back the
// pre-crash keys and wear counters exactly, which the verified column
// checks.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/pnw_store.h"
#include "src/util/random.h"
#include "src/util/stats.h"

namespace {

namespace fs = std::filesystem;

constexpr size_t kValueBytes = 64;

std::vector<uint8_t> MakeValue(uint64_t key, pnw::Rng& rng) {
  std::vector<uint8_t> v(kValueBytes, static_cast<uint8_t>((key % 8) * 32));
  std::memcpy(v.data(), &key, 8);
  v[8 + rng.NextBelow(kValueBytes - 8)] = static_cast<uint8_t>(rng.Next());
  return v;
}

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

struct CellResult {
  double checkpoint_ms = 0.0;
  double snapshot_mib = 0.0;
  double open_ms = 0.0;      // snapshot restore only
  double replay_ms = 0.0;    // snapshot restore + records/8 log records
  bool verified = false;
};

CellResult RunCell(size_t records, const std::string& snap_path) {
  pnw::core::PnwOptions options;
  options.value_bytes = kValueBytes;
  options.initial_buckets = records;
  options.capacity_buckets = records * 2;
  options.num_clusters = 8;
  options.max_features = 256;
  auto store = pnw::core::PnwStore::Open(options).value();

  pnw::Rng rng(7);
  std::vector<uint64_t> keys(records);
  std::vector<std::vector<uint8_t>> values(records);
  for (size_t i = 0; i < records; ++i) {
    keys[i] = i;
    values[i] = MakeValue(i, rng);
  }
  if (!store->Bootstrap(keys, values).ok()) {
    std::fprintf(stderr, "bootstrap failed (n=%zu)\n", records);
    std::exit(1);
  }

  CellResult result;
  auto t0 = std::chrono::steady_clock::now();
  if (!store->Checkpoint(snap_path).ok()) {
    std::fprintf(stderr, "checkpoint failed (n=%zu)\n", records);
    std::exit(1);
  }
  result.checkpoint_ms = MsSince(t0);
  result.snapshot_mib =
      static_cast<double>(fs::file_size(snap_path)) / (1024.0 * 1024.0);

  // Pure snapshot restore (what recovery costs right after a checkpoint).
  t0 = std::chrono::steady_clock::now();
  {
    pnw::persist::RecoveryOptions no_replay;
    no_replay.replay_op_log = false;
    no_replay.attach_op_log = false;
    auto snap_only = pnw::core::PnwStore::Open(snap_path, no_replay);
    result.open_ms = MsSince(t0);
    if (!snap_only.ok()) {
      std::fprintf(stderr, "snapshot open failed (n=%zu): %s\n", records,
                   snap_only.status().ToString().c_str());
      std::exit(1);
    }
  }

  // Post-checkpoint traffic lands in the op-log, so a later recovery also
  // pays a replay of records/8 updates -- the realistic mixed cost.
  for (size_t i = 0; i < records / 8; ++i) {
    pnw::AbortOnError(store->Put(i, MakeValue(i + records, rng)), "put");
  }

  t0 = std::chrono::steady_clock::now();
  auto reopened = pnw::core::PnwStore::Open(snap_path);
  result.replay_ms = MsSince(t0);
  if (!reopened.ok()) {
    std::fprintf(stderr, "recovery failed (n=%zu): %s\n", records,
                 reopened.status().ToString().c_str());
    std::exit(1);
  }

  // Verify the acceptance property: every key is served after recovery
  // and the wear counters came back identical.
  result.verified =
      reopened.value()->size() == store->size() &&
      reopened.value()->wear_tracker().bucket_write_counts() ==
          store->wear_tracker().bucket_write_counts();
  for (size_t i = 0; result.verified && i < records; i += 7) {
    result.verified = reopened.value()->Get(i).ok();
  }
  return result;
}

}  // namespace

int main() {
  const fs::path dir = fs::temp_directory_path() / "pnw_bench_fig15";
  fs::remove_all(dir);
  fs::create_directories(dir);

  std::printf("=== Fig. 15 (beyond the paper): checkpoint size + recovery "
              "time vs record count, %zuB values ===\n",
              kValueBytes);
  pnw::TablePrinter table({"records", "ckpt_ms", "snap_MiB", "open_ms",
                           "replay_ms", "verified"});
  bool all_verified = true;
  for (size_t records :
       {pnw::bench::SmokeScaled(2048, 256), pnw::bench::SmokeScaled(8192, 512),
        pnw::bench::SmokeScaled(32768, 1024)}) {
    const std::string snap_path =
        (dir / ("store-" + std::to_string(records) + ".snap")).string();
    const CellResult cell = RunCell(records, snap_path);
    all_verified = all_verified && cell.verified;
    table.AddRow({pnw::TablePrinter::Fmt(static_cast<double>(records), 0),
                  pnw::TablePrinter::Fmt(cell.checkpoint_ms, 2),
                  pnw::TablePrinter::Fmt(cell.snapshot_mib, 2),
                  pnw::TablePrinter::Fmt(cell.open_ms, 2),
                  pnw::TablePrinter::Fmt(cell.replay_ms, 2),
                  cell.verified ? "yes" : "NO"});
  }
  table.Print();
  std::printf("\n(open_ms = snapshot restore alone; replay_ms = restore + "
              "records/8 logged updates;\n verified = same size, sampled keys "
              "served, wear counters identical after recovery.)\n");
  fs::remove_all(dir);
  return all_verified ? 0 : 1;
}
