// Micro-benchmarks of the hot kernels and store operations (google-benchmark
// suite; complements the per-figure harnesses).
//
// --json=PATH additionally writes a machine-readable perf record
// (`{"bench": "micro_ops", "results": [{name, ns_per_op, ops_per_s}, ...]}`)
// so the repo's performance trajectory is collectable run over run;
// scripts/bench_to_json.py drives this and stamps the surrounding
// BENCH_micro_ops.json artifact. Unknown to google-benchmark, the flag is
// stripped from argv before benchmark::Initialize sees it.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/pnw_store.h"
#include "src/ml/feature_encoder.h"
#include "src/ml/kmeans.h"
#include "src/nvm/nvm_device.h"
#include "src/util/hamming.h"
#include "src/util/random.h"
#include "src/util/simd.h"
#include "src/workloads/integer_generator.h"

namespace {

void BM_HammingDistance(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> a(bytes), b(bytes);
  pnw::Rng rng(1);
  for (size_t i = 0; i < bytes; ++i) {
    a[i] = static_cast<uint8_t>(rng.Next());
    b[i] = static_cast<uint8_t>(rng.Next());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(pnw::HammingDistance(a, b));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_HammingDistance)->Arg(64)->Arg(784)->Arg(4096);

void BM_KMeansPredict(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  const size_t dims = 256;
  pnw::Rng rng(2);
  pnw::ml::Matrix data(512, dims);
  for (size_t r = 0; r < data.rows(); ++r) {
    for (size_t c = 0; c < dims; ++c) {
      data.At(r, c) = static_cast<float>(rng.NextDouble());
    }
  }
  pnw::ml::KMeansOptions options;
  options.k = k;
  auto model = pnw::ml::KMeansTrainer(options).Fit(data).value();
  std::vector<float> query(dims, 0.5f);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Predict(query));
  }
}
BENCHMARK(BM_KMeansPredict)->Arg(5)->Arg(15)->Arg(30);

void BM_PnwStorePut(benchmark::State& state) {
  pnw::workloads::IntegerGeneratorOptions gen;
  gen.num_old = 2048;
  gen.num_new = 1;
  auto ds = pnw::workloads::GenerateIntegers(gen);

  pnw::core::PnwOptions options;
  options.value_bytes = ds.value_bytes;
  options.initial_buckets = 4096;
  options.capacity_buckets = 8192;
  options.num_clusters = 8;
  auto store = pnw::core::PnwStore::Open(options).value();
  std::vector<uint64_t> keys(ds.old_data.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
  }
  if (!store->Bootstrap(keys, ds.old_data).ok()) {
    state.SkipWithError("bootstrap failed");
    return;
  }
  uint64_t next_key = keys.size();
  pnw::Rng rng(3);
  std::vector<uint8_t> value(4);
  for (auto _ : state) {
    const uint32_t v = static_cast<uint32_t>(rng.Next());
    std::memcpy(value.data(), &v, 4);
    // Delete an old key to keep the pool supplied, then put.
    benchmark::DoNotOptimize(store->Delete(next_key - keys.size()));
    benchmark::DoNotOptimize(store->Put(next_key, value));
    ++next_key;
    if (next_key - keys.size() >= keys.size()) {
      break;  // pool of reusable old keys exhausted for this run
    }
  }
}
BENCHMARK(BM_PnwStorePut)->Iterations(1500);

// The PR 5 batched write path: overwrite existing keys through MultiPut in
// groups of `batch` (endurance-first updates, model re-steered). Compare
// against BM_PnwStorePut's per-op path for the batching win without an
// op-log (each slot is a Put, so this isolates the per-batch overhead).
void BM_PnwStoreMultiPut(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  constexpr size_t kRecords = 2048;
  constexpr size_t kValueBytes = 64;
  pnw::core::PnwOptions options;
  options.value_bytes = kValueBytes;
  options.initial_buckets = kRecords * 2;
  options.capacity_buckets = kRecords * 4;
  options.num_clusters = 8;
  options.max_features = 256;
  auto store = pnw::core::PnwStore::Open(options).value();
  pnw::Rng rng(5);
  std::vector<uint64_t> keys(kRecords);
  std::vector<std::vector<uint8_t>> values(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    keys[i] = i;
    values[i].assign(kValueBytes, static_cast<uint8_t>((i % 8) * 32));
    std::memcpy(values[i].data(), &i, 8);
  }
  if (!store->Bootstrap(keys, values).ok()) {
    state.SkipWithError("bootstrap failed");
    return;
  }
  std::vector<uint64_t> batch_keys(batch);
  std::vector<std::span<const uint8_t>> batch_values(batch);
  for (auto _ : state) {
    for (size_t i = 0; i < batch; ++i) {
      const uint64_t key = rng.NextBelow(kRecords);
      batch_keys[i] = key;
      batch_values[i] = values[(key * 7 + i) % kRecords];
    }
    benchmark::DoNotOptimize(store->MultiPut(batch_keys, batch_values));
  }
  // One iteration = one batch; items/s is the per-record throughput.
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_PnwStoreMultiPut)->Arg(8)->Arg(64)->Iterations(200);

void BM_FeatureEncode(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  pnw::ml::BitFeatureEncoder encoder(bytes, 512);
  std::vector<uint8_t> value(bytes, 0xa5);
  std::vector<float> out(encoder.dims());
  for (auto _ : state) {
    encoder.Encode(value, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureEncode)->Arg(32)->Arg(784)->Arg(4096);

// Scratch-buffer encoding (the allocation-free hot path a PUT's predict runs).
void BM_FeatureEncodeScratch(benchmark::State& state) {
  const size_t bytes = static_cast<size_t>(state.range(0));
  pnw::ml::BitFeatureEncoder encoder(bytes, 512);
  std::vector<uint8_t> value(bytes, 0xa5);
  std::vector<float> out(encoder.dims());
  std::vector<uint64_t> lanes;
  for (auto _ : state) {
    encoder.Encode(value, out, lanes);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_FeatureEncodeScratch)->Arg(32)->Arg(784)->Arg(4096);

// The differential-write device kernel (word at a time) over a realistic
// ~10% dirty-byte overwrite stream. The leading argument 1 is unused; it
// keeps the row names (BM_WriteDifferential/1/<len>) comparable with the
// committed baseline.
void BM_WriteDifferential(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(1));
  pnw::nvm::NvmConfig config;
  config.size_bytes = 1 << 20;
  pnw::nvm::NvmDevice device(config);
  pnw::Rng rng(11);
  std::vector<std::vector<uint8_t>> payloads(64);
  for (auto& p : payloads) {
    p.assign(len, 0);
    for (size_t i = 0; i < len / 10 + 1; ++i) {
      p[rng.NextBelow(len)] = static_cast<uint8_t>(rng.Next());
    }
  }
  uint64_t addr = 3;  // deliberately unaligned
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.WriteDifferential(addr, payloads[i]));
    i = (i + 1) % payloads.size();
    addr = 3 + (addr + len) % (config.size_bytes - len - 8);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(len));
}
BENCHMARK(BM_WriteDifferential)->Args({1, 136})->Args({1, 4096});

// ---------------------------------------------------------------------------
// Per-kernel dispatch rows (PR 10): each SIMD-dispatched kernel measured
// once per reachable ISA -- scalar always, plus every vector table the host
// can run -- with dispatch pinned for the duration of the row. The pinned
// ISA becomes the row's label and flows into the --json record as an "isa"
// field, which is what CI's dispatch-verification step greps to prove the
// AVX2 leg actually exercised the vector table (a silent fallback to scalar
// would pass every correctness test and show up only here).
//
// Workload shapes mirror the kernels' real call sites: argmin over the
// model's centroid matrix at 256 dims; the block dirty mask over a
// 3072-byte value image with ~71% of its words dirty, the density a traced
// paper_replace run measures (the store's writes dirty most words, so the
// kernel makes one pass per 64-word block); Hamming at the 784-byte
// MNIST-ish value size; and encode both at 784 bytes into 8 slots (the
// gather path) and at the store's shape, 3072 bytes into 32 slots (the
// AVX2 vertical count).

/// Pins kernel dispatch to one ISA for a benchmark run; restores the
/// startup selection on scope exit. Rows for unreachable ISAs are skipped
/// at registration (RegisterKernelBenchmarks only registers reachable
/// ones), so a failed pin here is a hard error, not a skip.
class PinnedIsa {
 public:
  PinnedIsa(benchmark::State& state, pnw::simd::Isa isa) {
    ok_ = pnw::simd::PinIsa(isa);
    if (!ok_) {
      state.SkipWithError("ISA not reachable on this host");
      return;
    }
    state.SetLabel(pnw::simd::IsaName(isa));
  }
  ~PinnedIsa() { pnw::simd::UnpinIsa(); }
  bool ok() const { return ok_; }

 private:
  bool ok_ = false;
};

void BM_KernelDot(benchmark::State& state, pnw::simd::Isa isa) {
  PinnedIsa pin(state, isa);
  if (!pin.ok()) {
    return;
  }
  constexpr size_t kDims = 256;
  pnw::Rng rng(31);
  std::vector<float> a(kDims), b(kDims);
  for (size_t i = 0; i < kDims; ++i) {
    a[i] = static_cast<float>(rng.NextDouble()) - 0.5f;
    b[i] = static_cast<float>(rng.NextDouble()) - 0.5f;
  }
  const auto& kernels = pnw::simd::Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.dot(a.data(), b.data(), kDims));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_KernelArgmin(benchmark::State& state, pnw::simd::Isa isa) {
  PinnedIsa pin(state, isa);
  if (!pin.ok()) {
    return;
  }
  // The model's Predict hot loop: one query against the full centroid
  // matrix (k=16 clusters x 256 dims, the shape the aging bench trains).
  constexpr size_t kClusters = 16;
  constexpr size_t kDims = 256;
  pnw::Rng rng(37);
  std::vector<float> x(kDims), centroids(kClusters * kDims), norms(kClusters);
  for (auto& v : x) {
    v = static_cast<float>(rng.NextDouble());
  }
  for (auto& v : centroids) {
    v = static_cast<float>(rng.NextDouble());
  }
  for (auto& v : norms) {
    v = static_cast<float>(rng.NextDouble()) * kDims;
  }
  const auto& kernels = pnw::simd::Kernels();
  for (auto _ : state) {
    float score = 0.0f;
    benchmark::DoNotOptimize(kernels.argmin_centroids(
        x.data(), centroids.data(), norms.data(), kClusters, kDims, &score));
    benchmark::DoNotOptimize(score);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void BM_KernelDirtyMask(benchmark::State& state, pnw::simd::Isa isa) {
  PinnedIsa pin(state, isa);
  if (!pin.ok()) {
    return;
  }
  // One 3072-byte value image, six 64-word blocks, about 71% of its words
  // dirty (paper_replace writes 274 of 384 words per PUT).
  constexpr size_t kWords = 384;
  pnw::Rng rng(41);
  std::vector<uint8_t> resident(kWords * 8), incoming;
  for (auto& byte : resident) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  incoming = resident;
  for (size_t w = 0; w < kWords; ++w) {
    if (rng.NextBelow(100) < 71) {
      incoming[w * 8 + rng.NextBelow(8)] ^=
          static_cast<uint8_t>(1u << rng.NextBelow(8));
    }
  }
  const auto& kernels = pnw::simd::Kernels();
  for (auto _ : state) {
    for (size_t w = 0; w < kWords; w += 64) {
      uint64_t flipped = 0;
      benchmark::DoNotOptimize(kernels.dirty_mask64(
          resident.data() + w * 8, incoming.data() + w * 8, 64, &flipped));
      benchmark::DoNotOptimize(flipped);
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kWords * 8));
}

void BM_KernelHamming(benchmark::State& state, pnw::simd::Isa isa) {
  PinnedIsa pin(state, isa);
  if (!pin.ok()) {
    return;
  }
  constexpr size_t kBytes = 784;
  pnw::Rng rng(43);
  std::vector<uint8_t> a(kBytes), b(kBytes);
  for (size_t i = 0; i < kBytes; ++i) {
    a[i] = static_cast<uint8_t>(rng.Next());
    b[i] = static_cast<uint8_t>(rng.Next());
  }
  const auto& kernels = pnw::simd::Kernels();
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels.hamming_bytes(a.data(), b.data(),
                                                   kBytes));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kBytes));
}

/// One folded-accumulation chunk of `bytes` random bytes into `slots`
/// slots at stride 1 (bytes <= 255 * slots, so no flush mid-call).
void RunKernelEncode(benchmark::State& state, pnw::simd::Isa isa,
                     size_t bytes, size_t slots) {
  PinnedIsa pin(state, isa);
  if (!pin.ok()) {
    return;
  }
  pnw::Rng rng(47);
  std::vector<uint8_t> value(bytes);
  for (auto& byte : value) {
    byte = static_cast<uint8_t>(rng.Next());
  }
  std::vector<uint64_t> lanes(slots);
  const auto& kernels = pnw::simd::Kernels();
  for (auto _ : state) {
    std::memset(lanes.data(), 0, slots * sizeof(uint64_t));
    kernels.encode_accumulate(value.data(), bytes, 1, slots, lanes.data());
    benchmark::DoNotOptimize(lanes.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}

// 784 bytes into 8 slots: the gather path on AVX2.
void BM_KernelEncode(benchmark::State& state, pnw::simd::Isa isa) {
  RunKernelEncode(state, isa, 784, 8);
}

// The store's shape, 3072 bytes into 32 slots (256 features): the AVX2
// vertical count.
void BM_KernelEncode32(benchmark::State& state, pnw::simd::Isa isa) {
  RunKernelEncode(state, isa, 3072, 32);
}

/// Registers every kernel row for every ISA reachable on this host. Runtime
/// registration (not the BENCHMARK macro) because the row set depends on
/// AvailableIsas(), which needs the dispatch layer initialized.
void RegisterKernelBenchmarks() {
  using Fn = void (*)(benchmark::State&, pnw::simd::Isa);
  constexpr struct {
    const char* name;
    Fn fn;
  } kKernelBenches[] = {
      {"BM_KernelDot", &BM_KernelDot},
      {"BM_KernelArgmin", &BM_KernelArgmin},
      {"BM_KernelDirtyMask", &BM_KernelDirtyMask},
      {"BM_KernelHamming", &BM_KernelHamming},
      {"BM_KernelEncode", &BM_KernelEncode},
      {"BM_KernelEncode32", &BM_KernelEncode32},
  };
  for (const auto& bench : kKernelBenches) {
    for (const pnw::simd::Isa isa : pnw::simd::AvailableIsas()) {
      const std::string name =
          std::string(bench.name) + "/" + pnw::simd::IsaName(isa);
      benchmark::RegisterBenchmark(name.c_str(), bench.fn, isa);
    }
  }
}

/// Console reporter that additionally captures (name, ns/op) pairs so
/// --json can emit the perf-trajectory record after the run.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  struct Entry {
    std::string name;
    double ns_per_op;
    /// The pinned kernel ISA for BM_Kernel* rows (the run's label); empty
    /// for store/model benchmarks, which go through normal dispatch.
    std::string isa;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations == 0) {
        continue;
      }
      entries.push_back(Entry{
          run.benchmark_name(),
          run.real_accumulated_time / static_cast<double>(run.iterations) *
              1e9,
          run.report_label});
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<Entry> entries;
};

/// Minimal JSON string escaping (benchmark names contain '/' and ':' only,
/// but stay safe against quotes/backslashes).
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

bool WriteJson(const std::string& path,
               const std::vector<CapturingReporter::Entry>& entries) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_ops\",\n  \"results\": [\n");
  for (size_t i = 0; i < entries.size(); ++i) {
    const double ns = entries[i].ns_per_op;
    std::string isa_field;
    if (!entries[i].isa.empty()) {
      isa_field = ", \"isa\": \"" + JsonEscape(entries[i].isa) + "\"";
    }
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                 "\"ops_per_s\": %.1f%s}%s\n",
                 JsonEscape(entries[i].name).c_str(), ns,
                 ns > 0.0 ? 1e9 / ns : 0.0, isa_field.c_str(),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  // fclose flushes the buffered tail of the JSON; reporting success while
  // it failed would hand CI a torn artifact.
  return std::fclose(f) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --json=PATH before google-benchmark sees (and rejects) it.
  std::string json_path;
  std::vector<char*> args;
  args.reserve(static_cast<size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    constexpr const char kJsonFlag[] = "--json=";
    if (std::strncmp(argv[i], kJsonFlag, sizeof(kJsonFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kJsonFlag) - 1;
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  RegisterKernelBenchmarks();
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty() && !WriteJson(json_path, reporter.entries)) {
    return 1;
  }
  return 0;
}
