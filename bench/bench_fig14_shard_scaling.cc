// Beyond the paper ("Fig. 14"): scaling of the sharded PNW front-end.
// Sweeps client threads x shards over a YCSB-A style mixed workload and
// reports wall-clock throughput plus bit-flips per write, to show
// that placement quality -- the paper's headline metric -- survives
// sharding: each shard keeps its own K-means model and address pool, so
// bits/write should stay flat as shards multiply while throughput grows.

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
  double bits_per_write = 0.0;
  uint64_t failed = 0;
  double imbalance = 1.0;
};

CellResult RunCell(size_t threads, size_t shards, size_t records,
                   size_t ops) {
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
    std::fprintf(stderr, "bootstrap failed (t=%zu s=%zu)\n", threads,
                 shards);
    std::exit(1);
  }
  store->ResetWearAndMetrics();

  const size_t per_thread = (ops + threads - 1) / threads;
  auto stream = [&store, records, per_thread](size_t thread_id) {
    pnw::workloads::YcsbOptions gen_options;
    gen_options.workload = pnw::workloads::YcsbWorkload::kA;
    gen_options.record_count = records;
    gen_options.seed = 31 + 101 * thread_id;
    pnw::workloads::YcsbGenerator gen(gen_options);
    pnw::Rng rng(17 + thread_id);
    uint64_t version = static_cast<uint64_t>(thread_id) << 48;
    for (size_t i = 0; i < per_thread; ++i) {
      const auto op = gen.Next();
      if (op.type == pnw::workloads::YcsbOp::Type::kRead) {
        // A YCSB-A read may target a key the generator never inserted:
        // NotFound is workload, anything else is a broken store.
        if (const auto got = store->Get(op.key);
            !got.ok() && !got.status().IsNotFound()) {
          pnw::AbortOnError(got.status(), "get");
        }
      } else {
        pnw::AbortOnError(store->Put(op.key, MakeValue(op.key, ++version, rng)),
                          "put");
      }
    }
  };

  const auto t0 = std::chrono::steady_clock::now();
  if (threads == 1) {
    stream(0);
  } else {
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (size_t t = 0; t < threads; ++t) {
      workers.emplace_back(stream, t);
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const pnw::core::ShardedMetrics agg = store->AggregatedMetrics();
  CellResult result;
  const double total_ops =
      static_cast<double>(agg.totals.puts + agg.totals.gets);
  result.wall_kops = total_ops / wall_s / 1000.0;
  result.bits_per_write =
      agg.totals.puts > 0
          ? static_cast<double>(agg.totals.put_bits_written) /
                static_cast<double>(agg.totals.puts)
          : 0.0;
  result.failed = agg.totals.failed_ops;
  result.imbalance = agg.PutImbalance();
  return result;
}

}  // namespace

int main() {
  const size_t records = pnw::bench::SmokeScaled(2048, 256);
  const size_t ops = pnw::bench::SmokeScaled(16384, 1024);
  std::printf("=== Fig. 14 (beyond the paper): shard scaling, YCSB-A, "
              "%zu records, %zu ops, %zuB values ===\n",
              records, ops, kValueBytes);

  pnw::TablePrinter table({"threads", "shards", "kops/s", "bits/write",
                           "imbal", "failed"});
  uint64_t total_failed = 0;
  for (size_t threads : {1, 2, 4, 8}) {
    for (size_t shards : {1, 4, 16}) {
      const CellResult cell = RunCell(threads, shards, records, ops);
      total_failed += cell.failed;
      table.AddRow({pnw::TablePrinter::Fmt(static_cast<double>(threads), 0),
                    pnw::TablePrinter::Fmt(static_cast<double>(shards), 0),
                    pnw::TablePrinter::Fmt(cell.wall_kops, 1),
                    pnw::TablePrinter::Fmt(cell.bits_per_write, 1),
                    pnw::TablePrinter::Fmt(cell.imbalance, 2),
                    pnw::TablePrinter::Fmt(static_cast<double>(cell.failed),
                                           0)});
    }
  }
  table.Print();
  std::printf("\n(bits/write staying flat across the shard axis = placement "
              "quality survives sharding; kops/s is wall clock)\n");
  return total_failed == 0 ? 0 : 1;
}
