// pnw_cli: run a custom PNW experiment from the command line without
// writing code. Picks a named dataset, a cluster count, and a scheme to
// compare against, then prints the full metric set.
//
//   ./build/examples/pnw_cli --dataset=amazon --k=10 --baseline=FNW
//   ./build/examples/pnw_cli --dataset=traffic --k=20 --index=nvm
//
// Flags (all optional, each at most once):
//   --dataset=NAME   amazon|road|pubmed|sherbrooke|traffic|mnist|fashion|
//                    cifar|normal|uniform           (default: amazon)
//   --k=N            clusters, N >= 1                (default: 10)
//   --baseline=NAME  Conventional|DCW|FNW|MinShift|CAP16 (default: DCW)
//   --index=dram|nvm index placement                 (default: dram)
//   --pca=N          PCA components, 0 = off         (default: 0)
//
// Any other argument, a malformed number, an unknown baseline or index, or
// a flag given twice prints the usage line and exits 2; an unknown dataset
// exits 1.
//
// Durability -- either flag switches to the save/load demo instead of the
// baseline comparison:
//   --save=DIR       build a one-shard store from the dataset (bootstrap
//                    the old data, put the new data), checkpoint it into
//                    the checkpoint directory DIR (a MANIFEST plus one
//                    epoch-NNNNNN/ generation holding the shard's snapshot
//                    and op-log), then reopen it and verify every key
//   --load=DIR       recover a store checkpointed with --save (snapshot +
//                    op-log replay) and report its size, model, and metrics

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "src/core/sharded_store.h"
#include "src/util/mutex.h"
#include "src/util/stats.h"

namespace {

constexpr char kUsage[] =
    "usage: pnw_cli [--dataset=NAME] [--k=N] [--baseline=NAME] "
    "[--index=dram|nvm] [--pca=N] [--save=DIR | --load=DIR]\n";

/// A command-line mistake: say what, print the usage line, exit 2.
[[noreturn]] void UsageError(const std::string& what) {
  std::fprintf(stderr, "pnw_cli: %s\n%s", what.c_str(), kUsage);
  std::exit(2);
}

struct Flags {
  std::string dataset = "amazon";
  size_t k = 10;
  pnw::schemes::SchemeKind baseline = pnw::schemes::SchemeKind::kDcw;
  pnw::core::IndexPlacement index = pnw::core::IndexPlacement::kDram;
  size_t pca = 0;
  std::string save_dir;
  std::string load_dir;
};

/// `value` as a whole decimal number of at least `min`.
size_t ParseCount(const std::string& name, const std::string& value,
                  size_t min) {
  size_t n = 0;
  const char* last = value.data() + value.size();
  const auto [end, err] = std::from_chars(value.data(), last, n);
  if (err != std::errc() || end != last || n < min) {
    UsageError("malformed --" + name + "=" + value + " (want an integer >= " +
               std::to_string(min) + ")");
  }
  return n;
}

/// Every argument must be --name=value for one of the flags above, given
/// at most once with a non-empty value, so a typo or a stale flag stops
/// the run instead of silently leaving a default in place.
Flags ParseFlags(int argc, char** argv) {
  constexpr const char* kNames[] = {"dataset", "k",    "baseline", "index",
                                    "pca",     "save", "load"};
  std::map<std::string, std::string> given;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string name =
        arg.rfind("--", 0) == 0 && eq != std::string::npos
            ? arg.substr(2, eq - 2)
            : std::string();
    if (std::find(std::begin(kNames), std::end(kNames), name) ==
        std::end(kNames)) {
      UsageError("unknown argument '" + arg + "'");
    }
    if (eq + 1 == arg.size()) {
      UsageError("--" + name + " needs a value");
    }
    if (!given.emplace(name, arg.substr(eq + 1)).second) {
      UsageError("--" + name + " given twice");
    }
  }
  Flags flags;
  for (const auto& [name, value] : given) {
    if (name == "dataset") {
      flags.dataset = value;
    } else if (name == "k") {
      flags.k = ParseCount(name, value, 1);
    } else if (name == "pca") {
      flags.pca = ParseCount(name, value, 0);
    } else if (name == "baseline") {
      const auto kinds = pnw::schemes::AllSchemeKinds();
      const auto kind = std::find_if(kinds.begin(), kinds.end(), [&](auto k) {
        return pnw::schemes::SchemeName(k) == value;
      });
      if (kind == kinds.end()) {
        UsageError("unknown --baseline=" + value);
      }
      flags.baseline = *kind;
    } else if (name == "index") {
      if (value != "dram" && value != "nvm") {
        UsageError("unknown --index=" + value);
      }
      flags.index = value == "nvm" ? pnw::core::IndexPlacement::kNvmPathHash
                                   : pnw::core::IndexPlacement::kDram;
    } else if (name == "save") {
      flags.save_dir = value;
    } else {
      flags.load_dir = value;
    }
  }
  if (!flags.save_dir.empty() && !flags.load_dir.empty()) {
    UsageError("--save and --load exclude each other");
  }
  return flags;
}

/// --save: bootstrap a one-shard store with the dataset's old data, stream
/// in the new data, checkpoint into `flags.save_dir`, and prove the round
/// trip by reopening. Honors the same --k/--index/--pca configuration as
/// the comparison mode.
int RunSave(const pnw::workloads::Dataset& dataset, const Flags& flags) {
  pnw::core::ShardedOptions options;
  options.num_shards = 1;
  options.store.value_bytes = dataset.value_bytes;
  options.store.initial_buckets = dataset.old_data.size();
  options.store.capacity_buckets =
      (dataset.old_data.size() + dataset.new_data.size()) * 2;
  options.store.num_clusters = flags.k;
  options.store.max_features = 256;
  options.store.pca_components = flags.pca;
  options.store.index_placement = flags.index;
  auto opened = pnw::core::ShardedPnwStore::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  auto store = std::move(opened.value());

  std::vector<uint64_t> keys(dataset.old_data.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i;
  }
  if (auto s = store->Bootstrap(keys, dataset.old_data); !s.ok()) {
    std::fprintf(stderr, "bootstrap failed: %s\n", s.ToString().c_str());
    return 1;
  }
  for (size_t i = 0; i < dataset.new_data.size(); ++i) {
    if (auto s = store->Put(keys.size() + i, dataset.new_data[i]); !s.ok()) {
      std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const std::string& dir = flags.save_dir;
  if (auto s = store->Checkpoint(dir); !s.ok()) {
    std::fprintf(stderr, "checkpoint failed: %s\n", s.ToString().c_str());
    return 1;
  }
  uintmax_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    bytes += entry.is_regular_file() ? entry.file_size() : 0;
  }
  {
    pnw::core::PnwStore& shard = store->shard(0);
    pnw::util::ReaderLock lock(shard.mu());
    std::printf("saved %zu keys (k=%zu model included) to %s (%.1f KiB: "
                "manifest, snapshot and op-log)\n",
                shard.size(), shard.model()->k(), dir.c_str(),
                static_cast<double>(bytes) / 1024.0);
  }

  // Prove the round trip immediately: reopen and verify every key.
  auto reopened = pnw::core::ShardedPnwStore::Open(dir);
  if (!reopened.ok()) {
    std::fprintf(stderr, "reload failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  size_t verified = 0;
  for (size_t key = 0; key < keys.size() + dataset.new_data.size(); ++key) {
    const auto want = store->Get(key);
    const auto got = reopened.value()->Get(key);
    if (want.ok() != got.ok() ||
        (want.ok() && want.value() != got.value())) {
      std::fprintf(stderr, "verify failed at key %zu\n", key);
      return 1;
    }
    verified += want.ok() ? 1 : 0;
  }
  std::printf("verified: reopened store serves all %zu keys identically, "
              "wear counters intact (max bucket writes %u)\n",
              verified,
              reopened.value()->AggregatedMetrics().MaxBucketWrites());
  return 0;
}

/// --load: recover a checkpoint directory and report what came back.
int RunLoad(const std::string& dir) {
  auto reopened = pnw::core::ShardedPnwStore::Open(dir);
  if (!reopened.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 reopened.status().ToString().c_str());
    return 1;
  }
  pnw::core::PnwStore& store = reopened.value()->shard(0);
  pnw::util::ReaderLock lock(store.mu());
  std::printf("loaded %s: %zu keys, %zuB values, %zu/%zu buckets active\n",
              dir.c_str(), store.size(), store.options().value_bytes,
              store.active_buckets(), store.options().capacity_buckets);
  const auto model = store.model();
  std::printf("model: %s (k=%zu%s) -- recovered from the snapshot, not "
              "retrained\n",
              model != nullptr ? "trained" : "none",
              model != nullptr ? model->k() : 0,
              model != nullptr && model->uses_pca() ? ", PCA" : "");
  std::printf("metrics: %s\n", store.metrics().ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (!flags.load_dir.empty()) {
    return RunLoad(flags.load_dir);
  }

  pnw::workloads::Dataset dataset;
  try {
    dataset = pnw::bench::GetDataset(flags.dataset);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 1;
  }

  if (!flags.save_dir.empty()) {
    return RunSave(dataset, flags);
  }

  std::printf("dataset=%s  values=%zuB  old=%zu  new=%zu  k=%zu\n",
              dataset.name.c_str(), dataset.value_bytes,
              dataset.old_data.size(), dataset.new_data.size(), flags.k);

  pnw::bench::PnwRunConfig config;
  config.num_clusters = flags.k;
  config.pca_components = flags.pca;
  config.index_placement = flags.index;
  const auto pnw_stats = pnw::bench::RunPnw(dataset, config);
  const auto base_stats = pnw::bench::RunBaseline(flags.baseline, dataset);
  const auto conventional = pnw::bench::RunBaseline(
      pnw::schemes::SchemeKind::kConventional, dataset);

  pnw::TablePrinter table({"method", "bits/512b", "lines/write",
                           "latency_us", "pred_us"});
  table.AddRow({"Conventional",
                pnw::TablePrinter::Fmt(conventional.bit_updates_per_512, 1),
                pnw::TablePrinter::Fmt(conventional.lines_per_write, 2),
                pnw::TablePrinter::Fmt(
                    conventional.latency_ns_per_write / 1000.0, 2),
                "-"});
  table.AddRow({std::string(pnw::schemes::SchemeName(flags.baseline)),
                pnw::TablePrinter::Fmt(base_stats.bit_updates_per_512, 1),
                pnw::TablePrinter::Fmt(base_stats.lines_per_write, 2),
                pnw::TablePrinter::Fmt(base_stats.latency_ns_per_write /
                                           1000.0, 2),
                "-"});
  table.AddRow({"PNW k=" + std::to_string(config.num_clusters),
                pnw::TablePrinter::Fmt(pnw_stats.bit_updates_per_512, 1),
                pnw::TablePrinter::Fmt(pnw_stats.lines_per_write, 2),
                pnw::TablePrinter::Fmt(
                    pnw_stats.latency_ns_per_write / 1000.0, 2),
                pnw::TablePrinter::Fmt(
                    pnw_stats.predict_ns_per_write / 1000.0, 2)});
  table.Print();

  const double improvement =
      (base_stats.bit_updates_per_512 - pnw_stats.bit_updates_per_512) /
      base_stats.bit_updates_per_512 * 100.0;
  std::printf("\nPNW vs %s: %+.1f%% bit updates (positive = PNW better)\n",
              std::string(pnw::schemes::SchemeName(flags.baseline)).c_str(),
              improvement);
  return 0;
}
