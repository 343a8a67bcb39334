// Beyond the paper ("Fig. 17"): the allocation-free batched write path.
// PNW puts a K-means Predict on every write, so the write path is the
// system's hot loop; PR 5 made it batched (MultiPut: one exclusive-lock
// acquisition per involved shard per batch, a Put per slot, one
// group op-log append with one flush + one deferred group fsync) and
// allocation-free (scratch-buffer inference, reused bucket staging, reused
// op-log framing buffers, word-at-a-time differential device writes).
//
// Sweep: write batch size {1, 8, 64, 256} x shards {1, 4, 16}, one
// single-threaded overwrite stream (endurance-first updates: the paper's
// DELETE + re-predicted PUT) against a store with an attached op-log.
// Reported per cell:
//   - wall kops/s and its speedup over the batch=1 row of the same shard
//     count (the measured amortization win);
//   - the ns/Put cost split: measured predict wall time, simulated device
//     time (PUT + the update's DELETE half), and measured op-log append
//     wall time;
//   - heap allocations per operation, counted by this binary's global
//     operator new hook -- the steady-state write path is expected to sit
//     at (near) zero for batch=1 and stay sub-1 for batched rows (batch
//     orchestration allocates per *batch*, not per record).
//
// Correctness gates (exit nonzero on violation):
//   - every write in every cell succeeds;
//   - wear accounting is *byte-identical* across batch sizes: for a fixed
//     shard count every cell replays the same key/value stream against the
//     same bootstrap state, and batching must not change placement or the
//     bits/words/lines a write costs -- so puts, bits, words, and lines
//     written must match the batch=1 row exactly.
// The 2x wall-speedup target for batch=64 on 4 shards is printed as a
// PASS/below-target marker rather than an exit code: wall ratios on a
// loaded CI box are informative, not assertable.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/sharded_store.h"
#include "src/util/random.h"
#include "src/util/stats.h"

// ---------------------------------------------------------------------------
// Global allocation hook: every operator new in this binary bumps a counter
// (the delta across the measured loop, divided by ops, is the
// allocations/op column). Counting is relaxed-atomic so the hook itself
// stays cheap.
static std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kValueBytes = 128;

std::vector<uint8_t> MakeValue(uint64_t key, uint64_t version,
                               pnw::Rng& rng) {
  std::vector<uint8_t> v(kValueBytes,
                         static_cast<uint8_t>((key % 8) * 32));
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &version, 8);
  for (int i = 0; i < 4; ++i) {
    v[16 + rng.NextBelow(kValueBytes - 16)] =
        static_cast<uint8_t>(rng.Next());
  }
  return v;
}

struct CellResult {
  double wall_kops = 0.0;
  double predict_ns_per_put = 0.0;
  double device_ns_per_put = 0.0;
  double oplog_ns_per_put = 0.0;
  double allocs_per_op = 0.0;
  uint64_t puts = 0;
  uint64_t bits_written = 0;
  uint64_t words_written = 0;
  uint64_t lines_written = 0;
  uint64_t hard_failures = 0;
};

CellResult RunCell(size_t batch, size_t shards, size_t records,
                   size_t total_writes, const std::string& ckpt_dir) {
  pnw::core::ShardedOptions options;
  options.num_shards = shards;
  options.store.value_bytes = kValueBytes;
  // 50% steady occupancy: overwrites never cross the load factor, so no
  // mid-run extension/retraining -- placements are a pure function of the
  // op stream and the wear-identity gate across batch sizes holds exactly.
  options.store.initial_buckets = records * 2;
  options.store.capacity_buckets = records * 4;
  options.store.num_clusters = 8;
  options.store.max_features = 256;
  auto opened = pnw::core::ShardedPnwStore::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    std::exit(1);
  }
  auto store = std::move(opened.value());

  pnw::Rng boot_rng(7);
  std::vector<uint64_t> keys(records);
  std::vector<std::vector<uint8_t>> values(records);
  for (size_t i = 0; i < records; ++i) {
    keys[i] = i;
    values[i] = MakeValue(i, 0, boot_rng);
  }
  if (!store->Bootstrap(keys, values).ok()) {
    std::fprintf(stderr, "bootstrap failed (b=%zu s=%zu)\n", batch, shards);
    std::exit(1);
  }
  // Attach per-shard op-logs: checkpoint, then reopen under the *strict*
  // durability contract (fsync every record, recovery.h's "durable-but-
  // slow setting"). That is the configuration the batched log append is
  // for: a batch=1 stream pays one fdatasync per acknowledged write, while
  // a MultiPut group is captured with one flush + one deferred fsync per
  // involved shard -- classic group commit. The measured loop pays the
  // full write path: predict + device + flag/index + op-log capture.
  {
    const pnw::Status s = store->Checkpoint(ckpt_dir);
    if (!s.ok()) {
      std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  }
  pnw::persist::RecoveryOptions recovery;
  recovery.op_log_sync_every = 1;
  auto reopened = pnw::core::ShardedPnwStore::Open(ckpt_dir, recovery);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    std::exit(1);
  }
  store = std::move(reopened.value());

  // Pre-generated value pool and reusable batch buffers: the driver itself
  // allocates nothing inside the measured loop, so the allocations/op
  // column is the *store's* footprint.
  pnw::Rng value_rng(29);
  const size_t value_pool = std::min<size_t>(1024, records);
  std::vector<std::vector<uint8_t>> pool(value_pool);
  for (size_t i = 0; i < value_pool; ++i) {
    pool[i] = MakeValue(i * 2654435761u % records, i + 1, value_rng);
  }
  std::vector<uint64_t> batch_keys;
  std::vector<std::span<const uint8_t>> batch_values;
  batch_keys.reserve(batch);
  batch_values.reserve(batch);

  pnw::Rng key_rng(31);
  uint64_t hard_failures = 0;
  auto run_stream = [&](size_t ops) {
    batch_keys.clear();
    batch_values.clear();
    for (size_t i = 0; i < ops; ++i) {
      const uint64_t key = key_rng.NextBelow(records);
      const auto& value = pool[(i * 40503u + key) % value_pool];
      if (batch == 1) {
        if (!store->Put(key, value).ok()) {
          ++hard_failures;
        }
        continue;
      }
      batch_keys.push_back(key);
      batch_values.emplace_back(value);
      if (batch_keys.size() >= batch) {
        for (const pnw::Status& s : store->MultiPut(batch_keys, batch_values)) {
          if (!s.ok()) {
            ++hard_failures;
          }
        }
        batch_keys.clear();
        batch_values.clear();
      }
    }
    if (!batch_keys.empty()) {
      for (const pnw::Status& s : store->MultiPut(batch_keys, batch_values)) {
        if (!s.ok()) {
          ++hard_failures;
        }
      }
      batch_keys.clear();
      batch_values.clear();
    }
  };

  // Warm-up: exercises every scratch buffer (predict pipeline, bucket
  // staging, op-log framing, pool free-lists) to its steady-state
  // capacity, so the measured loop sees the allocation-free regime.
  run_stream(std::min<size_t>(total_writes, records));
  store->ResetWearAndMetrics();

  const uint64_t allocs_before =
      g_allocations.load(std::memory_order_relaxed);
  const auto t0 = std::chrono::steady_clock::now();
  run_stream(total_writes);
  const auto t1 = std::chrono::steady_clock::now();
  const uint64_t allocs_after = g_allocations.load(std::memory_order_relaxed);
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const pnw::core::ShardedMetrics agg = store->AggregatedMetrics();
  CellResult result;
  result.hard_failures = hard_failures + agg.totals.failed_ops;
  result.puts = agg.totals.puts;
  result.bits_written = agg.totals.put_bits_written;
  result.words_written = agg.totals.put_words_written;
  result.lines_written = agg.totals.put_lines_written;
  result.wall_kops =
      static_cast<double>(total_writes) / wall_s / 1000.0;
  const double puts = std::max<double>(1.0, static_cast<double>(agg.totals.puts));
  result.predict_ns_per_put = agg.totals.predict_wall_ns / puts;
  result.device_ns_per_put =
      (agg.totals.put_device_ns + agg.totals.delete_device_ns) / puts;
  result.oplog_ns_per_put = agg.totals.log_wall_ns / puts;
  result.allocs_per_op = static_cast<double>(allocs_after - allocs_before) /
                         static_cast<double>(total_writes);
  return result;
}

}  // namespace

int main() {
  const size_t records = pnw::bench::SmokeScaled(2048, 256);
  const size_t writes = pnw::bench::SmokeScaled(16384, 1024);
  std::printf("=== Fig. 17 (beyond the paper): batched allocation-free "
              "write path, %zu records, %zu overwrites, %zuB values, "
              "op-log attached ===\n",
              records, writes, kValueBytes);

  const std::string ckpt_root =
      (std::filesystem::temp_directory_path() / "pnw_fig17_ckpt").string();

  pnw::TablePrinter table({"shards", "batch", "kops/s", "x batch=1",
                           "predict ns", "device ns", "oplog ns",
                           "allocs/op", "wear=="});
  uint64_t total_hard_failures = 0;
  bool wear_identical = true;
  double target_ratio = 0.0;  // batch=64 over batch=1 at shards=4
  for (size_t shards : {1, 4, 16}) {
    CellResult baseline;
    for (size_t batch : {1, 8, 64, 256}) {
      const std::string dir = ckpt_root + "-s" + std::to_string(shards) +
                              "-b" + std::to_string(batch);
      const CellResult cell = RunCell(batch, shards, records, writes, dir);
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
      total_hard_failures += cell.hard_failures;
      if (batch == 1) {
        baseline = cell;
      }
      // Batching must never change what a write *costs the device*: same
      // stream, same placements, same wear -- only the wall clock and the
      // host-side overheads move.
      const bool wear_ok = cell.puts == baseline.puts &&
                           cell.bits_written == baseline.bits_written &&
                           cell.words_written == baseline.words_written &&
                           cell.lines_written == baseline.lines_written;
      wear_identical = wear_identical && wear_ok;
      const double speedup =
          baseline.wall_kops > 0.0 ? cell.wall_kops / baseline.wall_kops : 0.0;
      if (shards == 4 && batch == 64) {
        target_ratio = speedup;
      }
      table.AddRow({pnw::TablePrinter::Fmt(static_cast<double>(shards), 0),
                    pnw::TablePrinter::Fmt(static_cast<double>(batch), 0),
                    pnw::TablePrinter::Fmt(cell.wall_kops, 1),
                    pnw::TablePrinter::Fmt(speedup, 2),
                    pnw::TablePrinter::Fmt(cell.predict_ns_per_put, 0),
                    pnw::TablePrinter::Fmt(cell.device_ns_per_put, 0),
                    pnw::TablePrinter::Fmt(cell.oplog_ns_per_put, 0),
                    pnw::TablePrinter::Fmt(cell.allocs_per_op, 3),
                    wear_ok ? "yes" : "NO"});
    }
  }
  table.Print();
  std::printf(
      "\n(ns/Put split: measured predict wall + simulated device [PUT + the "
      "endurance-first DELETE half] + measured op-log append wall;\n "
      "allocs/op from this binary's operator-new hook -- the batch=1 "
      "steady-state write path is allocation-free, batched rows amortize "
      "their per-batch\n orchestration over the batch. wear== gates that "
      "batching left device accounting byte-identical to the batch=1 "
      "stream.\n batch=64 on 4 shards: %.2fx wall speedup over batch=1 "
      "[%s target 2x])\n",
      target_ratio,
      target_ratio >= 2.0 ? "PASS" : "below");
  if (total_hard_failures != 0 || !wear_identical) {
    std::printf("FAILURES: hard_failures=%llu wear_identical=%s\n",
                static_cast<unsigned long long>(total_hard_failures),
                wear_identical ? "yes" : "no");
    return 1;
  }
  return 0;
}
