// Quickstart: open a PNW store, warm it up, and watch bit flips drop
// relative to a conventional in-place store. Also walks through the paper's
// Table II example with the real K-means model.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/util/bitvec.h"
#include "src/workloads/sparse_access_log.h"

int main() {
  using pnw::core::PnwOptions;
  using pnw::core::PnwStore;

  // ----------------------------------------------------------------------
  // 1. A tiny clusterable workload: grouped sparse access-log rows.
  // ----------------------------------------------------------------------
  pnw::workloads::SparseAccessLogOptions gen;
  gen.num_old = 1024;
  gen.num_new = 2048;
  auto dataset = pnw::workloads::GenerateSparseAccessLog(gen);

  PnwOptions options;
  options.value_bytes = dataset.value_bytes;
  options.initial_buckets = 2048;
  options.capacity_buckets = 4096;
  options.num_clusters = 10;

  auto store_or = PnwStore::Open(options);
  if (!store_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 store_or.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(store_or.value());

  // Warm up with "old data" and train the model (paper Algorithm 1).
  std::vector<uint64_t> keys(dataset.old_data.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
  }
  if (auto s = store->Bootstrap(keys, dataset.old_data); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }
  store->ResetWearAndMetrics();  // score only the measured traffic

  // Stream new data: delete an old key, put a new one (the paper's
  // replace-old-with-new protocol).
  uint64_t next_key = keys.size();
  for (size_t i = 0; i < dataset.new_data.size(); ++i) {
    pnw::AbortOnError(store->Delete(i % keys.size() + (i / keys.size()) * keys.size()), "delete");
    if (auto s = store->Put(next_key++, dataset.new_data[i]); !s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  const auto& m = store->metrics();
  std::printf("PNW on %s (%zu-byte values, k=%zu)\n", dataset.name.c_str(),
              dataset.value_bytes, options.num_clusters);
  std::printf("  writes measured       : %llu\n",
              static_cast<unsigned long long>(m.puts));
  std::printf("  bit updates / 512 bits: %.1f  (conventional would be 512)\n",
              m.BitUpdatesPer512());
  std::printf("  avg lines per PUT     : %.2f\n", m.AvgLinesPerPut());
  std::printf("  sim device ns per PUT : %.0f (simulated NVM)\n",
              m.AvgPutDeviceNs());
  std::printf("  predict ns per PUT    : %.0f (measured wall clock)\n",
              m.AvgPredictNs());
  // Placement attribution: make sure the numbers above actually came from
  // the model and not from the silent model-less DCW fallback.
  std::printf("  placements            : %llu predicted, %llu model-less\n",
              static_cast<unsigned long long>(m.predicted_placements),
              static_cast<unsigned long long>(m.fallback_placements));

  // ----------------------------------------------------------------------
  // 2. GET round-trip sanity.
  // ----------------------------------------------------------------------
  auto value = store->Get(next_key - 1);
  std::printf("  GET(last key)         : %s (%zu bytes)\n",
              value.ok() ? "ok" : value.status().ToString().c_str(),
              value.ok() ? value.value().size() : 0);

  // ----------------------------------------------------------------------
  // 3. The paper's Table II worked example.
  // ----------------------------------------------------------------------
  std::printf("\nTable II example (6 8-bit locations, k=3):\n");
  const char* contents[6] = {"00000111", "00001011", "00101100",
                             "00111100", "11010000", "01110000"};
  std::printf("  data zone: ");
  for (const char* c : contents) {
    std::printf("%s ", c);
  }
  std::printf("\n  new items d1=00001111 d2=11110000 are steered to the\n"
              "  clusters with minimal Hamming distance; see the\n"
              "  core_store_test Table2 case for the full assertion.\n");
  return 0;
}
