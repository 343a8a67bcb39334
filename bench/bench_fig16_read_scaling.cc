// Beyond the paper ("Fig. 16"): read-path scaling of the sharded PNW
// front-end. The paper's evaluation leans on read-mostly YCSB mixes (B is
// 95% read, C is 100% read, D is 95% latest-skewed read), so the read path
// must scale past one core per shard. Since PR 4 each shard is guarded by
// a reader-writer lock: GETs take it shared and proceed in parallel even
// on the *same* shard, so reader throughput scales with threads, not with
// min(threads, shards).
//
// Sweep: reader threads {1, 2, 4, 8} x shards {1, 4, 16}, each cell run
// without and with one concurrent writer hammering PUTs. Reported per
// cell: wall-clock read kops/s, measured wall ns per Get call, and the
// misses. On a multi-core machine, readers that serialize (an
// exclusive-lock read path) show ns/get growing with the thread count,
// while shared-lock readers stay flat. (On a single-core box wall numbers
// cannot show parallelism either way; the locking discipline itself is
// machine-checked by the TSan test suite.)
//
// The bench also asserts the read books balance -- every issued read is
// either a `gets` hit or a `get_misses` miss -- and exits nonzero on any
// mismatch or hard failure.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/sharded_store.h"
#include "src/util/random.h"
#include "src/util/stats.h"
#include "src/workloads/ycsb.h"

namespace {

constexpr size_t kValueBytes = 64;

std::vector<uint8_t> MakeValue(uint64_t key, uint64_t version, pnw::Rng& rng) {
  std::vector<uint8_t> v(kValueBytes,
                         static_cast<uint8_t>((key % 8) * 32));
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &version, 8);
  v[16 + rng.NextBelow(kValueBytes - 16)] = static_cast<uint8_t>(rng.Next());
  return v;
}

struct CellResult {
  double wall_kops = 0.0;
  /// Measured wall time per Get call (grows with threads if readers
  /// serialize on a multi-core machine; flat under shared locks).
  double wall_ns_per_get = 0.0;
  uint64_t misses = 0;
  uint64_t hard_failures = 0;
  bool reconciled = true;
};

CellResult RunCell(size_t threads, size_t shards, bool with_writer,
                   size_t records, size_t total_reads) {
  pnw::core::ShardedOptions options;
  options.num_shards = shards;
  options.store.value_bytes = kValueBytes;
  options.store.initial_buckets = records;
  options.store.capacity_buckets = records * 2;
  options.store.num_clusters = 8;
  options.store.max_features = 256;
  options.store.load_factor = 0.85;
  auto store = pnw::core::ShardedPnwStore::Open(options).value();

  pnw::Rng boot_rng(7);
  std::vector<uint64_t> keys(records);
  std::vector<std::vector<uint8_t>> values(records);
  for (size_t i = 0; i < records; ++i) {
    keys[i] = i;
    values[i] = MakeValue(i, 0, boot_rng);
  }
  if (!store->Bootstrap(keys, values).ok()) {
    std::fprintf(stderr, "bootstrap failed (t=%zu s=%zu)\n", threads, shards);
    std::exit(1);
  }
  store->ResetWearAndMetrics();

  const size_t per_thread = (total_reads + threads - 1) / threads;
  std::vector<uint64_t> reads_done(threads, 0);
  std::vector<double> in_get_wall_ns(threads, 0.0);
  std::atomic<uint64_t> misses{0};
  std::atomic<uint64_t> hard_failures{0};
  auto reader = [&store, &reads_done, &in_get_wall_ns, &misses,
                 &hard_failures, records, per_thread](size_t thread_id) {
    pnw::workloads::YcsbOptions gen_options;
    gen_options.workload = pnw::workloads::YcsbWorkload::kC;  // 100% read
    gen_options.record_count = records;
    gen_options.seed = 31 + 101 * thread_id;
    pnw::workloads::YcsbGenerator gen(gen_options);
    for (size_t i = 0; i < per_thread; ++i) {
      const uint64_t key = gen.Next().key;
      // Measured time *inside* Get: lock wait included, so serialized
      // readers are visible as ns/get growth across the thread axis.
      const auto g0 = std::chrono::steady_clock::now();
      const auto got = store->Get(key);
      in_get_wall_ns[thread_id] +=
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - g0)
              .count();
      if (!got.ok()) {
        if (got.status().IsNotFound()) {
          misses.fetch_add(1, std::memory_order_relaxed);
        } else {
          hard_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ++reads_done[thread_id];
    }
  };

  std::atomic<bool> stop_writer{false};
  std::thread writer;
  if (with_writer) {
    writer = std::thread([&store, &stop_writer, &hard_failures, records] {
      pnw::Rng rng(97);
      uint64_t version = 1;
      while (!stop_writer.load(std::memory_order_relaxed)) {
        const uint64_t key = rng.NextBelow(records);
        if (!store->Put(key, MakeValue(key, ++version, rng)).ok()) {
          hard_failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  if (threads == 1) {
    reader(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back(reader, t);
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  if (with_writer) {
    stop_writer.store(true);
    writer.join();
  }
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const pnw::core::ShardedMetrics agg = store->AggregatedMetrics();
  uint64_t issued = 0;
  double total_in_get_ns = 0.0;
  for (size_t t = 0; t < threads; ++t) {
    issued += reads_done[t];
    total_in_get_ns += in_get_wall_ns[t];
  }

  CellResult result;
  result.misses = misses.load();
  result.hard_failures = hard_failures.load();
  // Honest accounting: every read this bench issued is a hit or a miss in
  // the store's own books (the writer issues no reads).
  result.reconciled =
      agg.totals.gets + agg.totals.get_misses == issued;
  result.wall_kops =
      static_cast<double>(issued) / wall_s / 1000.0;
  result.wall_ns_per_get =
      issued > 0 ? total_in_get_ns / static_cast<double>(issued) : 0.0;
  return result;
}

}  // namespace

int main() {
  const size_t records = pnw::bench::SmokeScaled(2048, 256);
  const size_t reads = pnw::bench::SmokeScaled(16384, 1024);
  std::printf("=== Fig. 16 (beyond the paper): read-path scaling, YCSB-C, "
              "%zu records, %zu reads, %zuB values ===\n",
              records, reads, kValueBytes);

  pnw::TablePrinter table(
      {"shards", "writer", "threads", "kops/s", "ns/get", "misses"});
  uint64_t total_hard_failures = 0;
  bool all_reconciled = true;
  for (size_t shards : {1, 4, 16}) {
    for (bool with_writer : {false, true}) {
      for (size_t threads : {1, 2, 4, 8}) {
        const CellResult cell =
            RunCell(threads, shards, with_writer, records, reads);
        total_hard_failures += cell.hard_failures;
        all_reconciled = all_reconciled && cell.reconciled;
        table.AddRow({pnw::TablePrinter::Fmt(static_cast<double>(shards), 0),
                      with_writer ? "yes" : "no",
                      pnw::TablePrinter::Fmt(static_cast<double>(threads), 0),
                      pnw::TablePrinter::Fmt(cell.wall_kops, 1),
                      pnw::TablePrinter::Fmt(cell.wall_ns_per_get, 0),
                      pnw::TablePrinter::Fmt(
                          static_cast<double>(cell.misses), 0)});
      }
    }
  }
  table.Print();
  std::printf(
      "\n(measured: kops/s + ns/get -- on a multi-core machine, ns/get "
      "growing along the thread axis means readers serialize, flat means "
      "shared locks work;\n reads reconcile: %s)\n",
      all_reconciled ? "gets + get_misses == issued reads in every cell"
                     : "RECONCILIATION FAILED");
  return (total_hard_failures == 0 && all_reconciled) ? 0 : 1;
}
