// Ablation studies for the design choices DESIGN.md calls out:
//   1. FNW chunk size (flag overhead vs flip bound),
//   2. Captopril segment count (CAP-n, the paper picks n=16 as its best),
//   3. PNW pool fallback (ranked next-nearest vs strict predicted cluster),
//   4. encode byte stride (prediction latency vs placement quality),
//   5. PCA pipeline on large values.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "src/core/pnw_store.h"
#include "src/schemes/captopril.h"
#include "src/schemes/fnw.h"
#include "src/util/stats.h"

namespace {

using pnw::bench::GetDataset;
using pnw::bench::PnwRunConfig;
using pnw::bench::RunPnw;

/// Bit updates/512 for a raw scheme instance over the standard protocol.
template <typename MakeScheme>
double RunRawScheme(const pnw::workloads::Dataset& dataset, size_t meta_bytes,
                    MakeScheme make) {
  const size_t block = dataset.value_bytes;
  const size_t n = dataset.old_data.size();
  pnw::nvm::NvmConfig config;
  config.size_bytes = n * block + meta_bytes;
  auto device = std::make_unique<pnw::nvm::NvmDevice>(config);
  auto scheme = make(device.get(), n * block);
  for (size_t i = 0; i < n; ++i) {
    pnw::AbortOnError(scheme->Write(i * block, dataset.old_data[i]), "scheme write");
  }
  device->ResetCounters();
  uint64_t payload = 0;
  for (size_t i = 0; i < dataset.new_data.size(); ++i) {
    pnw::AbortOnError(scheme->Write((i % n) * block, dataset.new_data[i]), "scheme write");
    payload += block * 8;
  }
  return static_cast<double>(device->counters().total_bits_written) * 512.0 /
         static_cast<double>(payload);
}

void FnwChunkAblation() {
  std::printf("\n--- Ablation 1: FNW chunk size (normal-u32 + amazon) ---\n");
  pnw::TablePrinter table({"chunk_bits", "normal", "amazon"});
  for (size_t chunk : {8, 16, 32, 64}) {
    std::vector<std::string> row = {std::to_string(chunk)};
    for (const char* name : {"normal", "amazon"}) {
      auto dataset = GetDataset(name);
      if (dataset.value_bytes * 8 % chunk != 0) {
        row.push_back("-");  // blocks are not chunk-aligned at this size
        continue;
      }
      const size_t meta = pnw::schemes::FnwScheme::MetadataBytes(
          dataset.old_data.size() * dataset.value_bytes, chunk);
      const double bits = RunRawScheme(
          dataset, meta, [chunk](pnw::nvm::NvmDevice* device, size_t region) {
            return std::make_unique<pnw::schemes::FnwScheme>(device, region,
                                                             chunk);
          });
      row.push_back(pnw::TablePrinter::Fmt(bits, 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
  std::printf("(small chunks bound flips tighter but pay more flag bits)\n");
}

void CaptoprilSegmentsAblation() {
  std::printf("\n--- Ablation 2: Captopril segment count (amazon) ---\n");
  pnw::TablePrinter table({"segments", "bits/512b"});
  auto dataset = GetDataset("amazon");
  for (size_t segments : {4, 8, 16, 32}) {
    const double bits = RunRawScheme(
        dataset,
        pnw::schemes::CaptoprilScheme::MetadataBytes(
            dataset.old_data.size() * dataset.value_bytes,
            dataset.value_bytes, segments),
        [&](pnw::nvm::NvmDevice* device, size_t region) {
          return std::make_unique<pnw::schemes::CaptoprilScheme>(
              device, region, dataset.value_bytes, 256, segments);
        });
    table.AddRow({std::to_string(segments),
                  pnw::TablePrinter::Fmt(bits, 1)});
  }
  table.Print();
  std::printf("(the paper reports n=16 as Captopril's best configuration)\n");
}

void FallbackAblation() {
  std::printf("\n--- Ablation 3: pool fallback policy (amazon, k=10) ---\n");
  // The next-nearest fallback is our resolution of a case the paper leaves
  // open; measure how often it fires and what it costs.
  auto dataset = GetDataset("amazon");
  pnw::core::PnwOptions options;
  options.value_bytes = dataset.value_bytes;
  options.initial_buckets = dataset.old_data.size();
  options.capacity_buckets = dataset.old_data.size();
  options.num_clusters = 10;
  options.max_features = 256;
  options.store_keys_in_data_zone = false;
  options.occupancy_flags_on_nvm = false;
  auto store = pnw::core::PnwStore::Open(options).value();
  std::vector<uint64_t> keys(dataset.old_data.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
  }
  pnw::AbortOnError(store->Bootstrap(keys, dataset.old_data), "bootstrap");
  for (uint64_t k = 0; k < keys.size() / 2; ++k) {
    pnw::AbortOnError(store->Delete(k), "delete");
  }
  pnw::AbortOnError(store->TrainModel(), "train");
  store->ResetWearAndMetrics();
  uint64_t next_key = keys.size();
  uint64_t next_delete = keys.size() / 2;
  for (const auto& value : dataset.new_data) {
    pnw::AbortOnError(store->Put(next_key++, value), "put");
    pnw::AbortOnError(store->Delete(next_delete++), "delete");
  }
  const auto& m = store->metrics();
  std::printf("puts=%llu fallbacks=%llu (%.2f%%), bits/512b=%.1f\n",
              static_cast<unsigned long long>(m.puts),
              static_cast<unsigned long long>(m.pool_fallbacks),
              100.0 * static_cast<double>(m.pool_fallbacks) /
                  static_cast<double>(m.puts),
              m.BitUpdatesPer512());
  std::printf("(without the fallback these PUTs would fail or stall until "
              "retraining)\n");
}

void StrideAblation() {
  std::printf("\n--- Ablation 4: encode byte stride (sherbrooke, k=8) ---\n");
  pnw::TablePrinter table({"stride", "bits/512b", "pred_us"});
  auto dataset = GetDataset("sherbrooke");
  for (size_t stride : {1, 2, 4, 8, 16}) {
    pnw::core::PnwOptions options;
    options.value_bytes = dataset.value_bytes;
    options.initial_buckets = dataset.old_data.size();
    options.capacity_buckets = dataset.old_data.size();
    options.num_clusters = 8;
    options.max_features = 256;
    options.encode_byte_stride = stride;
    options.store_keys_in_data_zone = false;
    options.occupancy_flags_on_nvm = false;
    auto store = pnw::core::PnwStore::Open(options).value();
    std::vector<uint64_t> keys(dataset.old_data.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      keys[i] = i;
    }
    pnw::AbortOnError(store->Bootstrap(keys, dataset.old_data), "bootstrap");
    for (uint64_t k = 0; k < keys.size() / 2; ++k) {
      pnw::AbortOnError(store->Delete(k), "delete");
    }
    pnw::AbortOnError(store->TrainModel(), "train");
    store->ResetWearAndMetrics();
    uint64_t next_key = keys.size();
    uint64_t next_delete = keys.size() / 2;
    for (const auto& value : dataset.new_data) {
      pnw::AbortOnError(store->Put(next_key++, value), "put");
      pnw::AbortOnError(store->Delete(next_delete++), "delete");
    }
    table.AddRow({std::to_string(stride),
                  pnw::TablePrinter::Fmt(store->metrics().BitUpdatesPer512(),
                                         1),
                  pnw::TablePrinter::Fmt(
                      store->metrics().AvgPredictNs() / 1000.0, 2)});
  }
  table.Print();
  std::printf("(sampling 1/8 of a frame's bytes keeps placement quality "
              "while slashing prediction cost)\n");
}

void PcaAblation() {
  std::printf("\n--- Ablation 5: PCA pipeline on large values "
              "(mnist, k=10) ---\n");
  pnw::TablePrinter table({"pipeline", "bits/512b", "pred_us"});
  auto dataset = GetDataset("mnist");
  for (size_t pca : {0, 16, 32}) {
    PnwRunConfig config;
    config.num_clusters = 10;
    config.pca_components = pca;
    const auto stats = RunPnw(dataset, config);
    table.AddRow({pca == 0 ? "raw 256 features"
                           : "PCA to " + std::to_string(pca),
                  pnw::TablePrinter::Fmt(stats.bit_updates_per_512, 1),
                  pnw::TablePrinter::Fmt(stats.predict_ns_per_write / 1000.0,
                                         2)});
  }
  table.Print();
  std::printf("(the paper applies PCA before K-means for large values; on "
              "noisy image data the projection also *denoises* the feature "
              "space and markedly improves placement, at extra per-PUT "
              "cost)\n");
}

}  // namespace

int main() {
  std::printf("=== Ablation studies (design choices beyond the paper's "
              "headline results) ===\n");
  FnwChunkAblation();
  CaptoprilSegmentsAblation();
  FallbackAblation();
  StrideAblation();
  PcaAblation();
  return 0;
}
