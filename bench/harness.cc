#include "bench/harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "src/core/pnw_store.h"
#include "src/nvm/nvm_device.h"
#include "src/workloads/bag_of_words.h"
#include "src/workloads/image_dataset.h"
#include "src/workloads/integer_generator.h"
#include "src/workloads/road_network.h"
#include "src/workloads/sparse_access_log.h"
#include "src/workloads/video_frames.h"

namespace pnw::bench {

RunStats RunBaseline(schemes::SchemeKind kind,
                     const workloads::Dataset& dataset) {
  // Value-only blocks: the paper's Fig. 6 metric counts bit updates per 512
  // *value* bits; index/key overheads are studied separately.
  const size_t block = dataset.value_bytes;
  const size_t n = dataset.old_data.size();
  const size_t data_region = n * block;
  nvm::NvmConfig config;
  config.size_bytes =
      data_region + schemes::SchemeMetadataBytes(kind, data_region, block);
  auto device = std::make_unique<nvm::NvmDevice>(config);
  auto scheme = schemes::CreateScheme(kind, device.get(), data_region, block);

  for (size_t i = 0; i < n; ++i) {
    AbortOnError(scheme->Write(i * block, dataset.old_data[i]), "scheme write");
  }
  device->ResetCounters();

  uint64_t payload_bits = 0;
  for (size_t i = 0; i < dataset.new_data.size(); ++i) {
    AbortOnError(scheme->Write((i % n) * block, dataset.new_data[i]), "scheme write");
    payload_bits += dataset.value_bytes * 8;
  }
  const auto& counters = device->counters();
  RunStats stats;
  stats.writes = dataset.new_data.size();
  stats.bit_updates_per_512 =
      static_cast<double>(counters.total_bits_written) * 512.0 /
      static_cast<double>(payload_bits);
  stats.lines_per_write = static_cast<double>(counters.total_lines_written) /
                          static_cast<double>(stats.writes);
  stats.latency_ns_per_write = counters.total_latency_ns /
                               static_cast<double>(stats.writes);
  return stats;
}

RunStats RunPnw(const workloads::Dataset& dataset,
                const PnwRunConfig& config) {
  core::PnwOptions options;
  options.value_bytes = dataset.value_bytes;
  options.initial_buckets = dataset.old_data.size();
  options.capacity_buckets = dataset.old_data.size();
  options.num_clusters = config.num_clusters;
  options.max_features = config.max_features;
  options.pca_components = config.pca_components;
  options.training_sample_cap = 1024;
  options.max_training_iterations = 20;
  options.index_placement = config.index_placement;
  options.seed = config.seed;
  options.train_threads = config.train_threads;
  // Measure the paper's value-only bit-update metric (keys add identical
  // noise to every method and are accounted separately in the repo's
  // index-placement experiments).
  options.store_keys_in_data_zone = false;
  options.occupancy_flags_on_nvm = false;  // paper keeps flags DRAM-side
  auto store_or = core::PnwStore::Open(options);
  if (!store_or.ok()) {
    throw std::runtime_error(store_or.status().ToString());
  }
  auto store = std::move(store_or.value());

  std::vector<uint64_t> keys(dataset.old_data.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
  }
  AbortOnError(store->Bootstrap(keys, dataset.old_data), "bootstrap");
  // Insert n / delete 0.5n: half the zone becomes the dynamic address pool.
  for (uint64_t k = 0; k < keys.size() / 2; ++k) {
    AbortOnError(store->Delete(k), "delete");
  }
  AbortOnError(store->TrainModel(), "train");
  store->ResetWearAndMetrics();

  uint64_t next_delete = keys.size() / 2;
  uint64_t next_key = keys.size();
  for (const auto& value : dataset.new_data) {
    AbortOnError(store->Put(next_key++, value), "put");
    AbortOnError(store->Delete(next_delete++), "delete");
  }
  const auto& m = store->metrics();
  RunStats stats;
  stats.writes = m.puts;
  stats.bit_updates_per_512 = m.BitUpdatesPer512();
  stats.lines_per_write = m.AvgLinesPerPut();
  // Fig. 7/8 charge PNW its prediction overhead: the paper's composite of
  // simulated device time and measured predict time, summed only here.
  stats.latency_ns_per_write = m.AvgPutDeviceNs() + m.AvgPredictNs();
  stats.predict_ns_per_write = m.AvgPredictNs();
  return stats;
}

bool SmokeMode() {
  // Read once at bench startup, before any worker threads exist, and no
  // code in this process ever calls setenv -- the getenv data race that
  // concurrency-mt-unsafe guards against cannot occur here.
  return std::getenv("PNW_BENCH_SMOKE") != nullptr;  // NOLINT(concurrency-mt-unsafe)
}

size_t SmokeScaled(size_t n, size_t floor) {
  if (!SmokeMode()) {
    return n;
  }
  return std::min(n, std::max(floor, n / 8));
}

workloads::Dataset GetDataset(const std::string& name) {
  if (name == "amazon") {
    workloads::SparseAccessLogOptions options;
    options.num_old = SmokeScaled(1024);
    options.num_new = SmokeScaled(2048);
    auto ds = GenerateSparseAccessLog(options);
    ds.name = "amazon-like";
    return ds;
  }
  if (name == "road") {
    workloads::RoadNetworkOptions options;
    options.num_old = SmokeScaled(2048);
    options.num_new = SmokeScaled(4096);
    return GenerateRoadNetwork(options);
  }
  if (name == "pubmed") {
    workloads::BagOfWordsOptions options;
    // Proportions of the real PubMed corpus: vocabulary far larger than the
    // per-document term count, so most cache lines of a document are zero
    // runs that stay clean under same-topic overwrites.
    options.vocabulary = 4096;
    options.doc_length = 48;
    // Abstracts reuse their topical head terms heavily; a steeper Zipf
    // exponent concentrates each topic's mass so same-topic documents are
    // line-level similar.
    options.zipf_theta = 1.25;
    options.num_old = SmokeScaled(1024);
    options.num_new = SmokeScaled(2048);
    return GenerateBagOfWords(options);
  }
  if (name == "sherbrooke" || name == "traffic") {
    workloads::VideoFramesOptions options;
    options.profile = name == "traffic" ? workloads::VideoProfile::kTraffic
                                        : workloads::VideoProfile::kSherbrooke;
    options.num_old = SmokeScaled(400);
    options.num_new = SmokeScaled(800);
    options.noise = 0.005;  // sensor noise; 1% would dirty nearly every line
    return GenerateVideoFrames(options);
  }
  if (name == "mnist" || name == "fashion" || name == "cifar") {
    workloads::ImageDatasetOptions options;
    options.profile = name == "mnist" ? workloads::ImageProfile::kMnist
                      : name == "fashion"
                          ? workloads::ImageProfile::kFashionMnist
                          : workloads::ImageProfile::kCifar;
    options.num_old = SmokeScaled(name == "cifar" ? 512 : 1024);
    options.num_new = SmokeScaled(name == "cifar" ? 1024 : 2048);
    return GenerateImages(options);
  }
  if (name == "normal" || name == "uniform") {
    workloads::IntegerGeneratorOptions options;
    options.distribution = name == "uniform"
                               ? workloads::IntegerDistribution::kUniform
                               : workloads::IntegerDistribution::kNormal;
    options.num_old = SmokeScaled(4096);
    options.num_new = SmokeScaled(8192);
    return GenerateIntegers(options);
  }
  throw std::runtime_error("unknown dataset: " + name);
}

std::vector<std::string> Fig6DatasetNames() {
  return {"amazon", "road", "sherbrooke", "traffic", "normal", "uniform"};
}

bool DatasetFilteredOut(int argc, char** argv, const std::string& name) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dataset=", 0) == 0) {
      return arg.substr(10) != name;
    }
  }
  return false;
}

std::string JsonPathFromArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      return arg.substr(7);
    }
  }
  return "";
}

namespace {

// Metric names are generated in-repo ("k5/p_le_5"), but stay safe against
// quotes/backslashes anyway.
std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
    }
    out.push_back(c);
  }
  return out;
}

}  // namespace

bool WriteJsonMetrics(const std::string& path, const std::string& bench,
                      const std::vector<JsonMetric>& metrics) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"results\": [\n",
               JsonEscape(bench).c_str());
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.6f}%s\n",
                 JsonEscape(metrics[i].name).c_str(), metrics[i].value,
                 i + 1 < metrics.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  // fclose flushes the buffered tail of the JSON; reporting success while
  // it failed would hand CI a torn artifact.
  return std::fclose(f) == 0;
}

}  // namespace pnw::bench
