// Beyond the paper ("Fig. 20"): the raw-speed ceiling of the read fast
// path. PR 10 gave GETs a seqlock-validated optimistic path -- readers
// copy the bucket without taking the shard lock and validate the per-shard
// sequence word afterwards -- so a writer no longer stalls the read side.
// This bench sweeps reader threads {1, 2, 4, 8} x read mode {locked,
// seqlock} x kernel ISA {scalar, best SIMD} against a store under
// continuous writer churn, one cell per combination.
//
// Reported per cell, all measured:
//   - wall read kops/s and wall ns per Get (lock wait included). On a
//     single-core box these cannot show parallelism; they exist for
//     multi-core runs and as a sanity anchor.
//   - the optimistic share of reads (optimistic_gets / gets) and the
//     seqlock retries -- how much of the read stream the lock-free path
//     carried under the writer's churn.
//   - the writer's own wall throughput (the placement pipeline rides the
//     pinned kernel ISA, so the ISA axis shows up on the writer column;
//     the read path is memory-bound and deliberately ISA-independent).
//
// Smoke gate (exit nonzero): in seqlock mode at 8 threads the optimistic
// path must carry more than half of the reads for every ISA; in every
// cell gets == optimistic_gets + locked_gets and gets + get_misses ==
// issued reads must hold; and no operation may fail.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "src/core/sharded_store.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/util/stats.h"
#include "src/workloads/ycsb.h"

namespace {

constexpr size_t kValueBytes = 64;
constexpr size_t kShards = 2;

std::vector<uint8_t> MakeValue(uint64_t key, uint64_t version, pnw::Rng& rng) {
  std::vector<uint8_t> v(kValueBytes, static_cast<uint8_t>((key % 8) * 32));
  std::memcpy(v.data(), &key, 8);
  std::memcpy(v.data() + 8, &version, 8);
  v[16 + rng.NextBelow(kValueBytes - 16)] = static_cast<uint8_t>(rng.Next());
  return v;
}

struct CellResult {
  double wall_kops = 0.0;
  double wall_ns_per_get = 0.0;
  double optimistic_share = 0.0;  // optimistic_gets / gets
  uint64_t retries = 0;
  double writer_wall_kops = 0.0;
  uint64_t hard_failures = 0;
  bool reconciled = true;
};

CellResult RunCell(size_t threads, bool seqlock, size_t records,
                   size_t total_reads, size_t writer_ops) {
  pnw::core::ShardedOptions options;
  options.num_shards = kShards;
  options.store.value_bytes = kValueBytes;
  options.store.initial_buckets = records;
  options.store.capacity_buckets = records * 2;
  options.store.num_clusters = 8;
  options.store.max_features = 256;
  options.store.load_factor = 0.85;
  options.store.optimistic_reads = seqlock;
  auto store = pnw::core::ShardedPnwStore::Open(options).value();

  pnw::Rng boot_rng(7);
  std::vector<uint64_t> keys(records);
  std::vector<std::vector<uint8_t>> values(records);
  for (size_t i = 0; i < records; ++i) {
    keys[i] = i;
    values[i] = MakeValue(i, 0, boot_rng);
  }
  if (!store->Bootstrap(keys, values).ok()) {
    std::fprintf(stderr, "bootstrap failed (t=%zu)\n", threads);
    std::exit(1);
  }
  store->ResetWearAndMetrics();

  const size_t per_thread = (total_reads + threads - 1) / threads;
  std::vector<uint64_t> reads_done(threads, 0);
  std::vector<double> in_get_wall_ns(threads, 0.0);
  std::atomic<uint64_t> hard_failures{0};
  const auto reader = [&store, &reads_done, &in_get_wall_ns, &hard_failures,
                       records, per_thread](size_t thread_id) {
    pnw::workloads::YcsbOptions gen_options;
    gen_options.workload = pnw::workloads::YcsbWorkload::kC;  // 100% read
    gen_options.record_count = records;
    gen_options.seed = 131 + 17 * thread_id;
    pnw::workloads::YcsbGenerator gen(gen_options);
    for (size_t i = 0; i < per_thread; ++i) {
      const uint64_t key = gen.Next().key;
      const auto g0 = std::chrono::steady_clock::now();
      const auto got = store->Get(key);
      in_get_wall_ns[thread_id] +=
          std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - g0)
              .count();
      if (!got.ok() && !got.status().IsNotFound()) {
        hard_failures.fetch_add(1, std::memory_order_relaxed);
      }
      ++reads_done[thread_id];
    }
  };

  // The writer performs a FIXED op stream (deterministic keys/payloads),
  // so the locked and seqlock cells of one (threads, isa) pair race the
  // same churn.
  double writer_wall_s = 0.0;
  std::thread writer([&store, &hard_failures, &writer_wall_s, records,
                      writer_ops] {
    pnw::Rng rng(97);
    const auto w0 = std::chrono::steady_clock::now();
    for (uint64_t version = 1; version <= writer_ops; ++version) {
      const uint64_t key = rng.NextBelow(records);
      if (!store->Put(key, MakeValue(key, version, rng)).ok()) {
        hard_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
    writer_wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - w0)
                        .count();
  });

  const auto t0 = std::chrono::steady_clock::now();
  {
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
  writer.join();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();

  const pnw::core::ShardedMetrics agg = store->AggregatedMetrics();
  uint64_t issued = 0;
  double total_in_get_ns = 0.0;
  for (size_t t = 0; t < threads; ++t) {
    issued += reads_done[t];
    total_in_get_ns += in_get_wall_ns[t];
  }

  CellResult result;
  result.hard_failures = hard_failures.load();
  const uint64_t gets = agg.totals.gets.load();
  const uint64_t optimistic = agg.totals.optimistic_gets.load();
  const uint64_t locked = agg.totals.locked_gets.load();
  result.retries = agg.totals.optimistic_retries.load();
  // The read-path split must balance, and every read this bench issued
  // must be a hit or a miss in the store's own books.
  result.reconciled =
      gets == optimistic + locked &&
      gets + agg.totals.get_misses.load() == issued;
  result.optimistic_share =
      gets > 0 ? static_cast<double>(optimistic) / static_cast<double>(gets)
               : 0.0;
  result.wall_kops = static_cast<double>(issued) / wall_s / 1000.0;
  result.wall_ns_per_get =
      issued > 0 ? total_in_get_ns / static_cast<double>(issued) : 0.0;
  result.writer_wall_kops = writer_wall_s > 0.0
                                ? static_cast<double>(writer_ops) /
                                      writer_wall_s / 1000.0
                                : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = pnw::bench::JsonPathFromArgs(argc, argv);
  const size_t records = pnw::bench::SmokeScaled(2048, 256);
  const size_t reads = pnw::bench::SmokeScaled(16384, 1024);
  const size_t writer_ops = pnw::bench::SmokeScaled(4096, 384);
  std::printf("=== Fig. 20 (beyond the paper): read fast path under writer "
              "churn, YCSB-C, %zu records, %zu reads, %zu writer puts, "
              "%zu shards ===\n",
              records, reads, writer_ops, kShards);

  std::vector<pnw::simd::Isa> isas = {pnw::simd::Isa::kScalar};
  for (const pnw::simd::Isa isa : pnw::simd::AvailableIsas()) {
    if (isa != pnw::simd::Isa::kScalar) {
      isas.push_back(isa);
    }
  }

  pnw::TablePrinter table({"isa", "mode", "threads", "kops/s", "ns/get",
                           "opt%", "retries", "writer kops/s"});
  std::vector<pnw::bench::JsonMetric> metrics;
  uint64_t total_hard_failures = 0;
  bool all_reconciled = true;
  bool optimistic_carried = true;
  for (const pnw::simd::Isa isa : isas) {
    if (!pnw::simd::PinIsa(isa)) {
      std::fprintf(stderr, "cannot pin %s\n", pnw::simd::IsaName(isa));
      return 1;
    }
    for (const bool seqlock : {false, true}) {
      for (const size_t threads : {1, 2, 4, 8}) {
        const CellResult cell =
            RunCell(threads, seqlock, records, reads, writer_ops);
        total_hard_failures += cell.hard_failures;
        all_reconciled = all_reconciled && cell.reconciled;
        if (seqlock && threads == 8) {
          // The knob must matter: the optimistic path has to carry the
          // bulk of an (almost) uncontended-validation read stream.
          optimistic_carried =
              optimistic_carried && cell.optimistic_share > 0.5;
        }
        const char* mode = seqlock ? "seqlock" : "locked";
        table.AddRow({pnw::simd::IsaName(isa), mode,
                      pnw::TablePrinter::Fmt(static_cast<double>(threads), 0),
                      pnw::TablePrinter::Fmt(cell.wall_kops, 1),
                      pnw::TablePrinter::Fmt(cell.wall_ns_per_get, 0),
                      pnw::TablePrinter::Fmt(cell.optimistic_share * 100.0,
                                             1),
                      pnw::TablePrinter::Fmt(
                          static_cast<double>(cell.retries), 0),
                      pnw::TablePrinter::Fmt(cell.writer_wall_kops, 1)});
        const std::string cell_name = std::string(mode) + "/" +
                                      pnw::simd::IsaName(isa) + "/t" +
                                      std::to_string(threads);
        metrics.push_back({cell_name + "_wall_kops", cell.wall_kops});
        metrics.push_back(
            {cell_name + "_optimistic_share", cell.optimistic_share});
      }
    }
    pnw::simd::UnpinIsa();
  }
  table.Print();
  std::printf(
      "\n(all columns measured; opt%% = optimistic_gets / gets.\n gate: "
      "optimistic path carried >50%% of seqlock-mode reads at 8 threads "
      "[%s]; split reconciles: %s)\n",
      optimistic_carried ? "ok" : "FAILED",
      all_reconciled
          ? "gets == optimistic_gets + locked_gets in every cell"
          : "RECONCILIATION FAILED");
  if (!json_path.empty() &&
      !pnw::bench::WriteJsonMetrics(json_path, "fig20_fastpath", metrics)) {
    return 1;
  }
  return (total_hard_failures == 0 && all_reconciled && optimistic_carried)
             ? 0
             : 1;
}
